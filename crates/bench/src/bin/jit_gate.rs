//! Tier-4 native-JIT CI gate: sweep the workload suite
//! (`stencilflow_workloads::execution_suite`) through the compiled `.so`
//! backend and diff every run **bitwise** against the
//! tree-walking interpreter — values and shrink masks. Ineligible
//! programs must fall back transparently and still match, so the gate
//! covers the full ladder: native, fused fallback, materializing
//! fallback.
//!
//! With `--assert-cached`, additionally requires that the sweep spawned
//! the C compiler **zero** times — run from a second process against a
//! warmed `SF_JIT_CACHE_DIR` this proves the disk cache serves every
//! module (`verify.sh` runs the gate twice for exactly this reason; a
//! fresh process is the only honest way to measure it, since an
//! in-process rerun would hit the module cache anyway).
//!
//! With `--artifacts DIR`, writes the emitted C translation units, the
//! persisted compiler stderr logs, and a JSON summary of eligibility, the
//! unit census and cache statistics — the bundle CI uploads next to
//! `BENCH_eval.json`.
//!
//! The first line (`jit target: ...`) names the compiler, the flag set and
//! the `-march` those flags resolve to on this host: the engine's salt.
//!
//! The census (`jit units: P programs, M modules, S live stages, B
//! bodies`) says what the native programs share: a module is a distinct
//! emitted text (what `cc` is paid for), a body a distinct sweep function
//! inside one. The gate fails unless `B < S` — the suite's chain alone is
//! eight stages over one body — and when any workload falls back.
//!
//! Usage: `jit_gate [--assert-cached] [--artifacts DIR]`

use stencilflow_json::Json;
use stencilflow_program::StencilProgram;
use stencilflow_reference::{
    generate_inputs, ReferenceExecutor, RunSpec, Tier, TierPolicy, TierTrace,
};
use stencilflow_workloads::{execution_suite, jacobi3d};

/// Bitwise comparison of the program outputs of two execution results,
/// shrink masks included. Returns a description of the first mismatch.
fn diff_outputs(
    program: &StencilProgram,
    jit: &stencilflow_reference::ExecutionResult,
    baseline: &stencilflow_reference::ExecutionResult,
) -> Result<(), String> {
    for output in program.outputs() {
        let j = jit
            .field(output)
            .ok_or_else(|| format!("jit result misses output `{output}`"))?;
        let b = baseline
            .field(output)
            .ok_or_else(|| format!("baseline result misses output `{output}`"))?;
        if j.shape() != b.shape() {
            return Err(format!(
                "output `{output}`: shape {:?} != {:?}",
                j.shape(),
                b.shape()
            ));
        }
        for (cell, (x, y)) in j.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!(
                    "output `{output}`, cell {cell}: jit {x:?} (0x{:016x}) != interpreter {y:?} (0x{:016x})",
                    x.to_bits(),
                    y.to_bits()
                ));
            }
        }
        if jit.valid_mask(output) != baseline.valid_mask(output) {
            return Err(format!("output `{output}`: shrink masks differ"));
        }
    }
    Ok(())
}

struct WorkloadOutcome {
    name: String,
    native: bool,
    fallback_reason: Option<String>,
    cells: usize,
}

/// What the native programs of the sweep emitted, and how much of it is
/// shared.
#[derive(Default)]
struct Census {
    programs: usize,
    modules: usize,
    live_stages: usize,
    bodies: usize,
}

/// Why a single run pinned to the JIT tier landed below it: the JIT rung's
/// reason, and the fused rung's when that is what the JIT rung needs.
fn fallback_reason(trace: &TierTrace) -> String {
    let jit = trace
        .reason(Tier::Jit, None)
        .expect("the gate probed the compiler up front");
    match trace.reason(Tier::Fused, None) {
        Some(fused) => format!("{jit}: {fused}"),
        None => jit.to_string(),
    }
}

/// The gate pins the JIT tier (ineligible workloads take its transparent
/// fallback rungs).
fn jit_spec(steps: Option<usize>) -> RunSpec {
    RunSpec {
        steps,
        tier: TierPolicy::Fixed(Tier::Jit),
    }
}

fn main() {
    let mut assert_cached = false;
    let mut artifacts: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--assert-cached" => assert_cached = true,
            "--artifacts" => {
                let Some(dir) = args.next() else {
                    eprintln!("--artifacts requires a directory");
                    std::process::exit(2);
                };
                artifacts = Some(dir);
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` (usage: jit_gate [--assert-cached] [--artifacts DIR])"
                );
                std::process::exit(2);
            }
        }
    }

    // The gate is only meaningful with a working compiler; `verify.sh`
    // probes up front and decides whether a missing `cc` skips or fails.
    match stencilflow_reference::jit_available() {
        Ok(salt) => println!("jit target: {salt}"),
        Err(probe) => {
            eprintln!("jit gate: no usable C compiler: {probe}");
            std::process::exit(1);
        }
    }

    let executor = ReferenceExecutor::new();
    let mut outcomes: Vec<WorkloadOutcome> = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut census = Census::default();
    let mut failures = 0usize;
    for (ix, program) in execution_suite().into_iter().enumerate() {
        let inputs = generate_inputs(&program, 17);
        let compiled = match executor.prepare(&program) {
            Ok(compiled) => compiled,
            Err(e) => {
                eprintln!("FAIL {}: does not compile: {e}", program.name());
                failures += 1;
                continue;
            }
        };
        // Index-prefixed so same-named variants (jacobi3d f32/f64) keep
        // distinct artifact files.
        if let (Some(source), Some((live_stages, bodies))) =
            (compiled.jit_source(), compiled.jit_stage_census())
        {
            census.programs += 1;
            census.modules += usize::from(sources.iter().all(|(_, seen)| seen != source));
            census.live_stages += live_stages;
            census.bodies += bodies;
            sources.push((format!("{ix:02}-{}", program.name()), source.to_string()));
        }
        let baseline = executor.run_interpreted(&program, &inputs).unwrap();
        let (jit, ran) = match executor.execute(&compiled, &inputs, &jit_spec(None)) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("FAIL {}: the JIT tier errored: {e}", program.name());
                failures += 1;
                continue;
            }
        };
        let cells = program.space().num_cells() * program.stencil_count();
        let native = ran == Tier::Jit;
        let fallback_reason = (!native).then(|| fallback_reason(compiled.tier_trace()));
        match diff_outputs(&program, &jit, &baseline) {
            Ok(()) => {
                let tier = match &fallback_reason {
                    None => "native".to_string(),
                    Some(reason) => format!("fallback ({reason})"),
                };
                println!(
                    "ok: {:<24} {tier}, bitwise identical over {cells} cells",
                    program.name()
                );
            }
            Err(mismatch) => {
                eprintln!("FAIL {}: {mismatch}", program.name());
                failures += 1;
            }
        }
        outcomes.push(WorkloadOutcome {
            name: program.name().to_string(),
            native,
            fallback_reason,
            cells,
        });
    }

    // Time stepping goes through the same compiled kernels but a
    // different driver loop; pin it on the flagship iterative workload.
    let stepped = jacobi3d(1, &[16, 16, 8], 1);
    let inputs = generate_inputs(&stepped, 23);
    let baseline = executor.run_steps(&stepped, &inputs, 4).unwrap();
    let stepped_run = executor
        .prepare(&stepped)
        .and_then(|compiled| executor.execute(&compiled, &inputs, &jit_spec(Some(4))));
    match stepped_run {
        Ok((jit, ran)) => match diff_outputs(&stepped, &jit, &baseline) {
            Ok(()) if ran != Tier::Jit => {
                eprintln!("FAIL {} x4 steps: ran on {ran}", stepped.name());
                failures += 1;
            }
            Ok(()) => println!(
                "ok: {:<24} native x4 steps, bitwise identical",
                stepped.name()
            ),
            Err(mismatch) => {
                eprintln!("FAIL {} x4 steps: {mismatch}", stepped.name());
                failures += 1;
            }
        },
        Err(e) => {
            eprintln!(
                "FAIL {} x4 steps: the JIT tier errored: {e}",
                stepped.name()
            );
            failures += 1;
        }
    }

    let native = outcomes.iter().filter(|o| o.native).count();
    println!(
        "jit gate: {} workloads swept, {} native, {} fallback",
        outcomes.len(),
        native,
        outcomes.len() - native
    );
    // Every workload of the suite must run native.
    for o in outcomes.iter().filter(|o| !o.native) {
        eprintln!(
            "jit gate failed: `{}` fell back ({})",
            o.name,
            o.fallback_reason.as_deref().unwrap_or("unknown")
        );
        failures += 1;
    }
    println!(
        "jit units: {} programs, {} modules, {} live stages, {} bodies",
        census.programs, census.modules, census.live_stages, census.bodies
    );
    if census.bodies >= census.live_stages {
        eprintln!("jit gate failed: no two stages share a body (the chain's eight should)");
        failures += 1;
    }

    let stats = stencilflow_reference::jit_cache_stats();
    if let Some(stats) = &stats {
        println!(
            "jit cache: {} hits, {} misses, {} cc invocation(s), {} eviction(s), {} bytes",
            stats.hits, stats.misses, stats.cc_invocations, stats.evictions, stats.cache_bytes
        );
        if assert_cached && stats.cc_invocations != 0 {
            eprintln!(
                "jit gate failed: --assert-cached but the compiler ran {} time(s); \
                 the disk cache did not serve every module",
                stats.cc_invocations
            );
            failures += 1;
        }
    } else if assert_cached {
        eprintln!("jit gate failed: --assert-cached but no cache statistics are available");
        failures += 1;
    }

    if let Some(dir) = artifacts {
        if let Err(e) = write_artifacts(&dir, &outcomes, &sources, &census, stats.as_ref()) {
            eprintln!("jit gate failed: cannot write artifacts to `{dir}`: {e}");
            failures += 1;
        } else {
            println!("wrote jit artifacts to {dir}");
        }
    }

    if failures > 0 {
        eprintln!("jit gate failed: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("jit gate passed");
}

/// Artifact bundle: one `.c` per eligible workload, the compiler stderr
/// logs persisted by the cache, and a JSON summary of eligibility plus
/// cache counters.
fn write_artifacts(
    dir: &str,
    outcomes: &[WorkloadOutcome],
    sources: &[(String, String)],
    census: &Census,
    stats: Option<&stencilflow_reference::JitCacheStats>,
) -> Result<(), String> {
    let root = std::path::Path::new(dir);
    std::fs::create_dir_all(root).map_err(|e| e.to_string())?;
    for (name, source) in sources {
        let file = root.join(format!("{name}.c"));
        std::fs::write(&file, source).map_err(|e| e.to_string())?;
    }
    // The engine persists each entry's compiler stderr as `{hash}.log`
    // next to the object; copy them so failed or warning-laden builds are
    // inspectable from the CI artifact alone.
    let cache_dir = std::env::var_os("SF_JIT_CACHE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("stencilflow-jit-cache"));
    let log_dir = root.join("cc-logs");
    std::fs::create_dir_all(&log_dir).map_err(|e| e.to_string())?;
    if let Ok(entries) = std::fs::read_dir(&cache_dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "log") {
                let target = log_dir.join(path.file_name().expect("log files have names"));
                std::fs::copy(&path, &target).map_err(|e| e.to_string())?;
            }
        }
    }
    let workloads_json: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let mut fields = vec![
                ("workload".to_string(), Json::String(o.name.clone())),
                ("native".to_string(), Json::Bool(o.native)),
                ("cells".to_string(), Json::Number(o.cells as f64)),
            ];
            if let Some(reason) = &o.fallback_reason {
                fields.push(("fallback_reason".to_string(), Json::String(reason.clone())));
            }
            Json::Object(fields)
        })
        .collect();
    let count = |name: &str, n: usize| (name.to_string(), Json::Number(n as f64));
    let mut document = vec![
        ("gate".to_string(), Json::String("jit".to_string())),
        ("workloads".to_string(), Json::Array(workloads_json)),
        (
            "units".to_string(),
            Json::Object(vec![
                count("programs", census.programs),
                count("modules", census.modules),
                count("live_stages", census.live_stages),
                count("bodies", census.bodies),
            ]),
        ),
    ];
    if let Some(stats) = stats {
        document.push((
            "cache".to_string(),
            Json::Object(vec![
                ("hits".to_string(), Json::Number(stats.hits as f64)),
                ("misses".to_string(), Json::Number(stats.misses as f64)),
                (
                    "cc_invocations".to_string(),
                    Json::Number(stats.cc_invocations as f64),
                ),
                (
                    "evictions".to_string(),
                    Json::Number(stats.evictions as f64),
                ),
                (
                    "cache_bytes".to_string(),
                    Json::Number(stats.cache_bytes as f64),
                ),
            ]),
        ));
    }
    std::fs::write(
        root.join("jit_stats.json"),
        Json::Object(document).to_string_pretty(),
    )
    .map_err(|e| e.to_string())
}
