//! `jacobi-steps` and `hdiff`: one large job at a time through
//! `ServeExecutor::run_one` under `TierPolicy::Auto`. The sweep does all the
//! work; compile, scheduler and ingest do none.

use std::time::Instant;

use super::{ms_since, prewarm, whole_iterations, Ctx, Layers, Tally, Workload};
use crate::stats::median_us;
use crate::sut::{self, Inputs, Job, Program, Serve};
use crate::trace::Tracer;

/// 16 MiB per `f64` field: 4× the host's 4 MiB L2.
const JACOBI_SHAPE: [usize; 3] = [128, 128, 128];
const JACOBI_STEPS: usize = 16;
/// The reduced-extent twin the interpreter can time-step in well under 3 s.
const JACOBI_TWIN_SHAPE: [usize; 3] = [24, 24, 24];

/// Elements of each STREAM-triad array: 32 MiB of `f64`, 8× a 4 MiB L2.
const TRIAD_ELEMENTS: usize = 4 << 20;

pub struct Sweep {
    program: Program,
    inputs: Inputs,
    steps: usize,
    /// Oracle program and inputs: a reduced twin for `jacobi-steps`, the
    /// workload's own for `hdiff`.
    oracle: (Program, Inputs),
    oracle_is_twin: bool,
    serve: Serve,
    job: Job,
    workers: usize,
    /// Checksum (values and masks) of the pinned `simd` run of the
    /// pre-warm; every measured iteration must reproduce it.
    expected: u64,
}

impl Sweep {
    pub fn jacobi_steps(ctx: &Ctx) -> Result<Sweep, String> {
        let twin = sut::jacobi_steps_program(JACOBI_TWIN_SHAPE);
        let twin_inputs = sut::gen_inputs(&twin, ctx.seed);
        Sweep::setup(
            ctx,
            sut::jacobi_steps_program(JACOBI_SHAPE),
            JACOBI_STEPS,
            Some((twin, twin_inputs)),
        )
    }

    pub fn hdiff(ctx: &Ctx) -> Result<Sweep, String> {
        Sweep::setup(ctx, sut::hdiff_bench_program(), 1, None)
    }

    fn setup(
        ctx: &Ctx,
        program: Program,
        steps: usize,
        twin: Option<(Program, Inputs)>,
    ) -> Result<Sweep, String> {
        let inputs = sut::gen_inputs(&program, ctx.seed);
        let serve = Serve::new(ctx.sweep_workers());
        let job = sut::job(&program, &inputs, steps);
        // The pre-warm's checksum is the one every later run must match; two
        // more auto runs warm the pools.
        let expected = prewarm(&serve, &program, &job)?;
        for _ in 0..2 {
            let outputs = serve.run_one(&job, None).outputs?;
            let got = sut::checksum(&program, &outputs, true);
            serve.recycle(outputs);
            if got != expected {
                return Err("a warm-up run disagrees with the pinned simd run".into());
            }
        }
        let oracle_is_twin = twin.is_some();
        Ok(Sweep {
            oracle: twin.unwrap_or_else(|| (program.clone(), inputs.clone())),
            oracle_is_twin,
            program,
            inputs,
            steps,
            serve,
            job,
            workers: ctx.sweep_workers(),
            expected,
        })
    }

    fn job_cells(&self) -> u64 {
        sut::cell_updates(&self.program) * self.steps as u64
    }

    /// Best-of-`runs` seconds of one job on `serve`, pinned or auto.
    fn best_job_s(&self, serve: &Serve, tier: Option<&str>, runs: usize) -> Result<f64, String> {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let start = Instant::now();
            let outputs = serve.run_one(&self.job, tier).outputs?;
            best = best.min(start.elapsed().as_secs_f64());
            serve.recycle(outputs);
        }
        Ok(best)
    }
}

impl Workload for Sweep {
    fn tail_percentile(&self) -> f64 {
        0.90
    }

    fn tier_choices(&self) -> Vec<String> {
        self.serve.tier_choices()
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        let mut serial = 0u64;
        whole_iterations(seconds, tally, tracer, |tally, tracer| {
            serial += 1;
            let id = Some(serial);
            let start = Instant::now();
            let done = tracer.span("serve.run_one", id, || self.serve.run_one(&self.job, None));
            tally.latencies_ms.push(ms_since(start));
            tally.attempted += 1;
            match done.outputs {
                Ok(outputs) => {
                    let got = tracer.span("harness.checksum", id, || {
                        sut::checksum(&self.program, &outputs, true)
                    });
                    tally.mismatches += u64::from(got != self.expected);
                    tally.cells += self.job_cells();
                    tracer.span("serve.recycle", id, || self.serve.recycle(outputs));
                }
                Err(_) => tally.failed += 1,
            }
        });
    }

    fn verify(&mut self, tally: &mut Tally, layers: &mut Layers) -> Result<(), String> {
        let (program, inputs) = &self.oracle;
        let start = Instant::now();
        let reference = sut::interpret(program, inputs, self.steps)?;
        let interp_s = start.elapsed().as_secs_f64();
        let want = sut::checksum(program, &reference, true);
        layers.insert(
            "executor.interp_cells_per_s".into(),
            (sut::cell_updates(program) * self.steps as u64) as f64 / interp_s,
        );
        let got = if self.oracle_is_twin {
            let job = sut::job(program, inputs, self.steps);
            let outputs = self.serve.run_one(&job, None).outputs?;
            let got = sut::checksum(program, &outputs, true);
            self.serve.recycle(outputs);
            got
        } else {
            self.expected
        };
        tally.mismatches += u64::from(got != want);
        Ok(())
    }

    fn probe(&mut self, _tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        let cells = self.job_cells() as f64;
        // Each tier pinned, on the workload's own program and inputs.
        let mut best_pinned = f64::INFINITY;
        let metrics = [
            "plan.simd_cells_per_s",
            "fuse.fused_cells_per_s",
            "jit.native_cells_per_s",
        ];
        for (tier, metric) in sut::TIERS.into_iter().zip(metrics) {
            let seconds = self.best_job_s(&self.serve, Some(tier), 2)?;
            best_pinned = best_pinned.min(seconds);
            layers.insert(metric.into(), cells / seconds);
        }

        // The sharded tier at two shards; its outputs are checked too.
        let mut shard_s = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            let sharded = sut::run_sharded(&self.program, &self.inputs, self.steps, 2)?;
            shard_s = shard_s.min(start.elapsed().as_secs_f64());
            if sharded.degraded
                || sut::checksum(&self.program, &sharded.outputs, true) != self.expected
            {
                return Err("sharded run degraded or disagrees with the simd run".into());
            }
            layers.insert("shard.halo_bytes_per_run".into(), sharded.halo_bytes as f64);
            layers.insert("shard.retransmits".into(), sharded.retransmits as f64);
        }
        layers.insert("shard.x2_cells_per_s".into(), cells / shard_s);

        // Auto decided cold in a fresh executor, against the best pinned
        // tier: what the tier choice costs.
        let fresh = Serve::new(self.workers);
        let decided = fresh.run_one(&self.job, None).outputs?;
        fresh.recycle(decided);
        let auto_s = self.best_job_s(&fresh, None, 3)?;
        layers.insert("serve.auto_regret_share".into(), auto_s / best_pinned - 1.0);

        // Roofline. Bytes and flops per cell are computed from the program
        // text and dtype widths, not measured; the bandwidth is measured.
        let bytes_per_cell =
            sut::bytes_per_cell(&self.program) / sut::stencil_count(&self.program) as f64;
        let flops_per_cell =
            sut::flops_per_cell(&self.program) / sut::stencil_count(&self.program) as f64;
        let stream = stream_triad_bytes_per_s();
        layers.insert("sweep.bytes_per_cell".into(), bytes_per_cell);
        layers.insert("sweep.flops_per_cell".into(), flops_per_cell);
        layers.insert("host.stream_gb_per_s".into(), stream / 1e9);
        layers.insert(
            "sweep.bandwidth_share".into(),
            cells / auto_s * bytes_per_cell / stream,
        );

        // `hdiff` (the workload without a twin) also probes the expression
        // evaluators its cost comes from.
        if !self.oracle_is_twin {
            let mut evaluators = sut::cell_evaluators(&self.program);
            let per_call_ns = |eval: &mut Option<Box<dyn FnMut() -> f64>>| match eval {
                Some(eval) => {
                    median_us(9, || {
                        for _ in 0..20_000 {
                            std::hint::black_box(eval());
                        }
                    }) * 1e3
                        / 20_000.0
                }
                None => 0.0,
            };
            layers.insert(
                "expr.value_eval_ns".into(),
                per_call_ns(&mut evaluators.value),
            );
            layers.insert(
                "expr.typed_eval_ns".into(),
                per_call_ns(&mut evaluators.typed),
            );
            layers.insert(
                "expr.lane_eval_ns_per_cell".into(),
                per_call_ns(&mut evaluators.lanes) / sut::LANES as f64,
            );
        }
        Ok(())
    }
}

/// STREAM triad (`a = b + s·c`) over three 32 MiB arrays, best of five
/// passes, counting the three arrays' bytes once each per pass.
fn stream_triad_bytes_per_s() -> f64 {
    let b = vec![1.5f64; TRIAD_ELEMENTS];
    let c = vec![0.25f64; TRIAD_ELEMENTS];
    let mut a = vec![0.0f64; TRIAD_ELEMENTS];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let scale = 3.0 + pass as f64;
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + scale * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (3 * TRIAD_ELEMENTS * std::mem::size_of::<f64>()) as f64 / best
}
