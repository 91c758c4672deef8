//! `cold-compile`: program text the executor has never seen → `from_json`
//! → first `run_one`, with the JIT cache empty at process start. What every
//! new program pays once: `expr` parse/compile/passes/verify/specialise,
//! fuse planning, C emission, `cc`, `dlopen`, first-sight tier measurement.
//! Sweep time is negligible, so steady-state optimisations must not move it.

use std::time::Instant;

use super::{whole_iterations, Ctx, Layers, Tally, Workload};
use crate::stats::{median, time_us, Rng};
use crate::sut::{self, Serve};
use crate::trace::Tracer;

/// Cold jobs run during set-up, so the compiler binary and its libraries
/// are in the page cache before the window opens.
const WARMUP_JOBS: usize = 4;

/// One job of the last whole pass, kept for the oracle and the probes.
struct Record {
    text: String,
    input_seed: u64,
    checksum: u64,
}

pub struct Cold {
    serve: Serve,
    seed: u64,
    rng: Rng,
    /// Counts every program generated: part of each program's name, so no
    /// fingerprint repeats within a run.
    serial: u64,
    last_pass: Vec<Record>,
    dir: std::path::PathBuf,
    /// `(cc invocations, cache hits)` of the shared JIT engine over the
    /// last window.
    jit_window: (u64, u64),
}

impl Cold {
    pub fn setup(ctx: &Ctx) -> Result<Cold, String> {
        let mut cold = Cold {
            serve: Serve::new(ctx.workers),
            seed: ctx.seed,
            rng: Rng::new(ctx.seed),
            serial: 0,
            last_pass: Vec::new(),
            dir: ctx.dir.clone(),
            jit_window: (0, 0),
        };
        let mut tally = Tally::default();
        let mut tracer = Tracer::new();
        for ix in 0..WARMUP_JOBS {
            cold.job(ix * sut::COLD_STRATA / WARMUP_JOBS, &mut tally, &mut tracer);
        }
        if tally.failed > 0 {
            return Err("a warm-up job failed".into());
        }
        cold.last_pass.clear();
        Ok(cold)
    }

    /// One cold job. Generating the text and the input grids is the
    /// benchmark's own work and stays outside the job's latency.
    fn job(&mut self, stratum: usize, tally: &mut Tally, tracer: &mut Tracer) {
        self.serial += 1;
        let id = Some(self.serial);
        let name = format!("cold-{}-{}", self.seed, self.serial);
        let jitter = self.rng.next();
        let text = tracer.span("harness.generate", id, || {
            sut::cold_program_json(stratum, jitter, &name)
        });
        tally.attempted += 1;

        let start = Instant::now();
        let parsed = tracer.span("program.from_json", id, || sut::program_from_json(&text));
        let parse_s = start.elapsed().as_secs_f64();
        let Ok(program) = parsed else {
            tally.failed += 1;
            return;
        };
        let input_seed = self.seed ^ self.serial;
        let inputs = tracer.span("harness.inputs", id, || {
            sut::gen_inputs(&program, input_seed)
        });
        let job = sut::job(&program, &inputs, 1);
        let start = Instant::now();
        let done = tracer.span("serve.first_run", id, || self.serve.run_one(&job, None));
        tally
            .latencies_ms
            .push((parse_s + start.elapsed().as_secs_f64()) * 1e3);
        match done.outputs {
            Ok(outputs) => {
                tally.cells += sut::cell_updates(&program);
                let checksum = tracer.span("harness.checksum", id, || {
                    sut::checksum(&program, &outputs, true)
                });
                self.serve.recycle(outputs);
                self.last_pass.push(Record {
                    text,
                    input_seed,
                    checksum,
                });
            }
            Err(_) => tally.failed += 1,
        }
    }
}

impl Workload for Cold {
    fn tail_percentile(&self) -> f64 {
        0.90
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        let before = sut::jit_counters().unwrap_or_default();
        // Every pass walks the same strata, in an order drawn from the seed.
        let mut order: Vec<usize> = (0..sut::COLD_STRATA).collect();
        whole_iterations(seconds, tally, tracer, |tally, tracer| {
            self.rng.shuffle(&mut order);
            self.last_pass.clear();
            for &stratum in &order {
                self.job(stratum, tally, tracer);
            }
        });
        let after = sut::jit_counters().unwrap_or_default();
        self.jit_window = (after.0 - before.0, after.1 - before.1);
    }

    /// Every program of the last pass, at full size, against the
    /// interpreter.
    fn verify(&mut self, tally: &mut Tally, _layers: &mut Layers) -> Result<(), String> {
        for record in &self.last_pass {
            let program = sut::program_from_json(&record.text)?;
            let inputs = sut::gen_inputs(&program, record.input_seed);
            let reference = sut::interpret(&program, &inputs, 1)?;
            tally.mismatches +=
                u64::from(sut::checksum(&program, &reference, true) != record.checksum);
        }
        Ok(())
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        layers.insert("jit.cc_invocations".into(), self.jit_window.0 as f64);
        layers.insert("jit.cache_hits".into(), self.jit_window.1 as f64);
        layers.insert(
            "program.from_json_us".into(),
            tracer.median_us("program.from_json", None),
        );

        // The front half of a cold job, layer by layer, over the programs
        // of the last pass: one sample per program, medians reported.
        let (mut parse_us, mut compile_us, mut specialize_us, mut prepare_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut ops_raw, mut ops_optimized, mut stencils, mut typed) = (0, 0, 0, 0);
        let mut sources = Vec::new();
        for record in &self.last_pass {
            let program = sut::program_from_json(&record.text)?;
            let codes = sut::stencil_sources(&program);
            let (asts, us) = time_us(|| codes.iter().map(|code| sut::expr_parse(code)).collect());
            parse_us.push(us);
            let asts: Vec<sut::Ast> = Result::from_iter::<Vec<_>>(asts)?;
            let (kernels, us) = time_us(|| asts.iter().map(sut::expr_compile).collect());
            compile_us.push(us);
            let kernels: Vec<sut::Kernel> = Result::from_iter::<Vec<_>>(kernels)?;
            let (_, us) = time_us(|| {
                kernels
                    .iter()
                    .filter(|kernel| sut::expr_specialize(&program, kernel))
                    .count()
            });
            specialize_us.push(us);
            for ast in &asts {
                let (raw, optimized) = sut::expr_op_counts(ast)?;
                ops_raw += raw;
                ops_optimized += optimized;
            }
            let (prepared, us) = time_us(|| sut::Executor::new().prepare(&program));
            let prepared = prepared?;
            prepare_us.push(us);
            stencils += prepared.stencils;
            typed += prepared.typed_stencils;
            sources.extend(prepared.jit_source);
        }
        if parse_us.is_empty() {
            return Err("no completed pass to probe".into());
        }
        layers.insert("expr.parse_us".into(), median(&parse_us));
        layers.insert("expr.compile_us".into(), median(&compile_us));
        layers.insert("expr.specialize_us".into(), median(&specialize_us));
        layers.insert("expr.ops_unoptimized".into(), ops_raw as f64);
        layers.insert("expr.ops_optimized".into(), ops_optimized as f64);
        layers.insert(
            "expr.typed_share".into(),
            typed as f64 / stencils.max(1) as f64,
        );
        layers.insert("executor.prepare_cold_us".into(), median(&prepare_us));

        // `JitEngine::load` on an empty cache (cc runs), then from a fresh
        // engine over the now populated cache (disk hit, no cc).
        let cache = self.dir.join("jit-probe");
        let sources: Vec<&String> = sources.iter().take(5).collect();
        let load_all = |engine: &sut::JitProbe| -> Result<Vec<f64>, String> {
            sources
                .iter()
                .enumerate()
                .map(|(ix, source)| {
                    let start = Instant::now();
                    engine.load(&format!("probe{ix}"), source)?;
                    Ok(start.elapsed().as_secs_f64() * 1e3)
                })
                .collect()
        };
        let cold_engine = sut::JitProbe::new(&cache)?;
        let cold_ms = load_all(&cold_engine)?;
        let compiled = cold_engine.cc_invocations();
        // Dropped first, so the modules are unloaded and the disk hits
        // below open them again.
        drop(cold_engine);
        let warm_engine = sut::JitProbe::new(&cache)?;
        let hit_ms = load_all(&warm_engine)?;
        if compiled != sources.len() as u64 || warm_engine.cc_invocations() != 0 {
            return Err("the JIT probe did not separate cold loads from disk hits".into());
        }
        if !cold_ms.is_empty() {
            layers.insert("jit.cc_compile_ms".into(), median(&cold_ms));
            layers.insert("jit.disk_hit_ms".into(), median(&hit_ms));
            let modules: Vec<f64> = std::fs::read_dir(&cache)
                .map_err(|e| e.to_string())?
                .flatten()
                .filter(|entry| entry.path().extension().is_some_and(|ext| ext == "so"))
                .filter_map(|entry| entry.metadata().ok())
                .map(|meta| meta.len() as f64)
                .collect();
            layers.insert("jit.module_bytes".into(), median(&modules));
        }
        Ok(())
    }
}
