//! Automatic tier selection: correctness and performance contracts.
//!
//! * **Golden**: under [`TierPolicy::Auto`] every analyze-suite workload
//!   must produce program outputs bitwise identical to the interpreter —
//!   on the first job (where the tiers are being measured) and on the
//!   cached decision afterwards. Auto may pick any tier; it may never
//!   change a bit.
//! * **Agreement**: the tiers a first sight measures are exactly the tiers
//!   a pinned run lands on and reports, single and stepped — unless a pin
//!   lands on the JIT rung: then the first sight runs native by rule and
//!   measures nothing.
//! * **Floor**: on the two historical regression workloads — `upwind3d`
//!   (fused ran 0.89x the SIMD tier) and the 24x24x64
//!   `horizontal_diffusion` domain (0.94x) — the auto policy must run
//!   at 0.95x the best manually pinned tier or better, as the median of
//!   interleaved samples. Auto's steady state executes the winning
//!   tier's exact code path, so this holds by construction unless the
//!   decision cache or the measurement pass regresses.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{
    generate_inputs, jit_cache_stats, Grid, Ineligible, JobSpec, ReferenceExecutor, RunSpec,
    ServeConfig, ServeExecutor, Tier, TierPolicy,
};
use stencilflow_workloads::{
    execution_suite, horizontal_diffusion, jacobi3d, upwind3d, HorizontalDiffusionSpec,
};

/// Serializes the tests in this file: the floor test times wall-clock
/// samples, and on a small host a concurrently running golden test
/// would distort them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn assert_outputs_bitwise(
    program: &StencilProgram,
    got: &stencilflow_reference::ExecutionResult,
    want: &stencilflow_reference::ExecutionResult,
) {
    for name in program.outputs() {
        let got_grid = got
            .field(name)
            .unwrap_or_else(|| panic!("{}: missing output `{name}`", program.name()));
        let want_grid = want.field(name).expect("reference computes every output");
        assert_eq!(got_grid.shape(), want_grid.shape());
        for (ix, (a, b)) in got_grid
            .as_slice()
            .iter()
            .zip(want_grid.as_slice())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: output `{name}` differs at flat index {ix}: {a} != {b}",
                program.name()
            );
        }
        assert_eq!(
            got.valid_mask(name),
            want.valid_mask(name),
            "{}: validity mask of `{name}` differs",
            program.name()
        );
    }
    // Outputs-only contract.
    assert_eq!(got.fields().count(), program.outputs().len());
}

#[test]
fn auto_tier_matches_the_interpreter_bitwise_on_the_analyze_suite() {
    let _guard = serial();
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let reference = ReferenceExecutor::new();
    for program in execution_suite() {
        let program = Arc::new(program);
        let inputs = Arc::new(generate_inputs(&program, 42));
        let expected = reference.run_interpreted(&program, &inputs).unwrap();
        // Round 0 exercises the measurement pass (every eligible tier
        // runs), round 1 the cached decision.
        for round in 0..2 {
            let outcome = serve.run_one(JobSpec::new(Arc::clone(&program), Arc::clone(&inputs)));
            let result = outcome
                .result
                .unwrap_or_else(|e| panic!("{} round {round}: {e}", program.name()));
            assert_outputs_bitwise(&program, &result, &expected);
            serve.recycle(result);
        }
    }
    // Every workload got exactly one cached decision (measured once, or
    // single-candidate fast path).
    assert_eq!(serve.tier_choices().len(), execution_suite().len());
}

#[test]
fn auto_tier_matches_run_steps_bitwise_when_stepping() {
    let _guard = serial();
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let reference = ReferenceExecutor::new();
    let program = Arc::new(jacobi3d(1, &[12, 12, 6], 1));
    let inputs = Arc::new(generate_inputs(&program, 7));
    let expected = reference.run_steps(&program, &inputs, 5).unwrap();
    for round in 0..2 {
        let outcome =
            serve.run_one(JobSpec::new(Arc::clone(&program), Arc::clone(&inputs)).with_steps(5));
        let result = outcome
            .result
            .unwrap_or_else(|e| panic!("stepped round {round}: {e}"));
        assert_outputs_bitwise(&program, &result, &expected);
        serve.recycle(result);
    }
}

/// Fuses, but cannot fuse its time steps: `h_next` reads its state `h` out
/// of domain under 1.0 and `g_next` reads `h_next` under 2.0, while step
/// `t + 1` would read `h` from the ring step `t` wrote `h_next` to, which
/// holds one pad constant.
fn unsteppable() -> StencilProgram {
    StencilProgramBuilder::new("unsteppable", &[24])
        .input("h", DataType::Float32, &["i"])
        .input("g", DataType::Float32, &["i"])
        .stencil("h_next", "0.5 * (h[i-1] + h[i+1])")
        .boundary("h_next", "h", BoundaryCondition::Constant(1.0))
        .stencil("g_next", "g[i] + h_next[i-1]")
        .boundary("g_next", "h_next", BoundaryCondition::Constant(2.0))
        .output("h_next")
        .output("g_next")
        .build()
        .unwrap()
}

#[test]
fn auto_measures_exactly_the_tiers_a_pin_lands_on() {
    let _guard = serial();
    let compiled = ReferenceExecutor::new().prepare(&unsteppable()).unwrap();
    let trace = compiled.tier_trace();
    assert_eq!(trace.reason(Tier::Fused, Some(1)), None);
    assert_eq!(
        trace.reason(Tier::Fused, Some(4)),
        Some(&Ineligible::NoStepPlan)
    );
    assert_eq!(
        trace.reason(Tier::Jit, Some(4)),
        Some(&Ineligible::NeedsFused)
    );

    // What a first sight measured, read off a fresh executor: the floor
    // always; the fused schedule (either fused tier) draws from the pool,
    // which the unpooled SIMD sweep never does; the JIT tier loads a module.
    let jit_loads = || jit_cache_stats().map_or(0, |s| s.hits + s.misses);
    let mut programs = execution_suite();
    programs.push(unsteppable());
    for program in &programs {
        let inputs = generate_inputs(program, 5);
        for steps in [None, Some(1), Some(4)] {
            let label = format!("{} steps={steps:?}", program.name());
            let run = |tier| {
                let executor = ReferenceExecutor::new();
                let compiled = executor.prepare(program).unwrap();
                let spec = RunSpec { steps, tier };
                let ran = executor
                    .execute(&compiled, &inputs, &spec)
                    .map(|(_, ran)| ran);
                (ran, executor)
            };
            if run(TierPolicy::Fixed(Tier::Simd)).0.is_err() {
                // Unpairable for stepping: every tier rejects it.
                assert!(run(TierPolicy::Auto).0.is_err(), "{label}");
                continue;
            }
            let pinned: Vec<Tier> = [Tier::Simd, Tier::Fused, Tier::Jit]
                .into_iter()
                .filter(|&tier| run(TierPolicy::Fixed(tier)).0.unwrap() == tier)
                .collect();
            let loads = jit_loads();
            let (auto, executor) = run(TierPolicy::Auto);
            if pinned.contains(&Tier::Jit) {
                // Decided by rule: one native run, nothing timed.
                assert_eq!(auto.unwrap(), Tier::Jit, "{label}");
                assert_eq!(executor.tier_measure_count(), 0, "{label}");
                continue;
            }
            let mut measured = vec![Tier::Simd];
            if executor.pool_acquire_count() > 0 {
                measured.push(Tier::Fused);
            }
            if jit_loads() > loads {
                measured.push(Tier::Jit);
            }
            assert_eq!(measured, pinned, "{label}");
            assert!(pinned.contains(&auto.unwrap()), "{label}");
            let measurements = usize::from(pinned.len() > 1);
            assert_eq!(executor.tier_measure_count(), measurements, "{label}");
        }
    }
}

/// Median wall-clock of `samples` timed samples, each running the job
/// `runs_per_sample` times. Samples of all modes interleave round-robin
/// at the call site, so drift hits every mode equally.
fn sample_seconds(serve: &ServeExecutor, job: &JobSpec, runs_per_sample: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..runs_per_sample {
        let outcome = serve.run_one(job.clone());
        serve.recycle(outcome.result.expect("floor workloads run clean"));
    }
    t0.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One full interleaved measurement: returns
/// `(best manual median / auto median, auto median, best manual median)`.
fn measure_floor_ratio(
    serve: &ServeExecutor,
    auto_job: &JobSpec,
    manual_jobs: &[JobSpec],
) -> (f64, f64, f64) {
    const SAMPLES: usize = 7;
    const RUNS: usize = 6;
    let mut auto_s = Vec::with_capacity(SAMPLES);
    let mut manual_s: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); manual_jobs.len()];
    for _ in 0..SAMPLES {
        auto_s.push(sample_seconds(serve, auto_job, RUNS));
        for (ix, job) in manual_jobs.iter().enumerate() {
            manual_s[ix].push(sample_seconds(serve, job, RUNS));
        }
    }
    let auto_median = median(&mut auto_s);
    let best_manual = manual_s
        .iter_mut()
        .map(|s| median(s))
        .fold(f64::INFINITY, f64::min);
    (best_manual / auto_median, auto_median, best_manual)
}

#[test]
fn auto_tier_is_at_least_95pct_of_best_manual_tier_on_regression_workloads() {
    let _guard = serial();
    let regressions: Vec<StencilProgram> = vec![
        upwind3d(2, &[8, 8, 8], 1),
        horizontal_diffusion(&HorizontalDiffusionSpec::bench()),
    ];
    for program in regressions {
        let name = program.name().to_string();
        let program = Arc::new(program);
        let inputs: Arc<BTreeMap<String, Grid>> = Arc::new(generate_inputs(&program, 11));
        let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
        let auto_job = JobSpec::new(Arc::clone(&program), Arc::clone(&inputs));
        let manual_jobs: Vec<JobSpec> = [Tier::Simd, Tier::Fused, Tier::Jit]
            .into_iter()
            .map(|tier| auto_job.clone().with_tier(tier))
            .collect();
        // Warmup: fixes the auto decision, fills the pools, JIT-compiles.
        sample_seconds(&serve, &auto_job, 2);
        for job in &manual_jobs {
            sample_seconds(&serve, job, 2);
        }
        // Medians of interleaved samples absorb steady load; a burst of
        // external load on a shared runner can still land mid-measurement,
        // so allow a bounded number of full re-measurements before
        // declaring a real regression.
        const ATTEMPTS: usize = 3;
        for attempt in 1..=ATTEMPTS {
            let (ratio, auto_median, best_manual) =
                measure_floor_ratio(&serve, &auto_job, &manual_jobs);
            if ratio >= 0.95 {
                break;
            }
            assert!(
                attempt < ATTEMPTS,
                "{name}: auto tier runs at {ratio:.3}x the best manual tier \
                 (auto {auto_median:.6}s vs best manual {best_manual:.6}s, \
                 {ATTEMPTS} attempts)"
            );
        }
    }
}
