//! The multi-tenant service-layer benchmark (`bench_serve`): sustained
//! aggregate throughput and per-job latency under a seeded mix of
//! thousands of small jobs plus a few large ones, with the zero
//! steady-state allocation property measured rather than assumed.
//!
//! Methodology:
//!
//! 1. Generate the deterministic [`JobMixSpec`] stream (large jobs sit in
//!    the front quarter, so small jobs queue behind them and the p99 small
//!    latency directly observes scheduler fairness).
//! 2. Materialize each tenant's input grids once and share them `Arc`'d
//!    across every job that reuses the template — the service must not
//!    depend on caller-side copies.
//! 3. Warm up on one pass over the mix (`ServeExecutor::warm`): every
//!    fingerprint compiles and resolves its tier, the JIT compiles (if
//!    present), the buffer pools fill for every worker.
//! 4. Run the measured batches, recycling every result; the steady-state
//!    counters (`pool_misses`, `mask_misses`, `compiles`) must not move
//!    from the post-warmup snapshot. That delta, the sustained Mcells/s,
//!    and the latency percentiles go into `BENCH_serve.json`, which
//!    `bench_serve --check-floors` gates in CI.
//! 5. Time warm `ReferenceExecutor::prepare` hits of every job template
//!    (recorded beside the percentiles, not gated): the fixed cost a job
//!    pays before its sweep.

use crate::{missing, FloorError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use stencilflow_json::Json;
use stencilflow_program::StencilProgram;
use stencilflow_reference::{
    generate_inputs, Grid, JobSpec, ReferenceExecutor, ServeConfig, ServeExecutor, TierChoice,
};
use stencilflow_workloads::{JobClass, JobMixSpec, JobTemplate};

/// The measured service-layer report behind `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Quick mode (reduced mix for CI smoke runs).
    pub quick: bool,
    /// Hardware threads of the host (floor conditioning).
    pub host_threads: usize,
    /// Worker threads the service ran with.
    pub workers: usize,
    /// Jobs per batch.
    pub jobs_per_batch: usize,
    /// Large jobs per batch.
    pub large_jobs: usize,
    /// Measured batches (after the warmup).
    pub batches: usize,
    /// Failed jobs across the measured batches (must be zero).
    pub errors: usize,
    /// Wall-clock of the measured batches, seconds.
    pub elapsed_s: f64,
    /// Stencil cell evaluations across the measured batches.
    pub cells: u64,
    /// Sustained aggregate throughput, million cells/s.
    pub mcells_per_s: f64,
    /// Small-job latency percentiles (batch start → completion), ms.
    pub small_p50_ms: f64,
    /// p99 of the small jobs — the fairness number.
    pub small_p99_ms: f64,
    /// p99 of the large jobs.
    pub large_p99_ms: f64,
    /// Median µs of a warm `prepare` hit, per job template (`name
    /// extents`), in mix order.
    pub prepare_hit_us: Vec<(String, f64)>,
    /// Cell-buffer pool misses during the measured batches (steady state:
    /// must be zero).
    pub steady_pool_misses: usize,
    /// Mask pool misses during the measured batches (must be zero).
    pub steady_mask_misses: usize,
    /// Program compilations during the measured batches (must be zero —
    /// the shared cache dedups every fingerprint).
    pub steady_compiles: usize,
    /// The tier each template resolved to.
    pub tiers: Vec<TierChoice>,
}

/// Materialized job stream: the mix templates with their shared inputs.
struct PreparedMix {
    jobs: Vec<(JobSpec, JobClass)>,
    large_jobs: usize,
    /// Each distinct program of the mix once, in mix order.
    templates: Vec<Arc<StencilProgram>>,
}

fn prepare_mix(spec: &JobMixSpec) -> PreparedMix {
    let templates = spec.generate();
    // One grid set per (template, tenant seed), shared across all jobs
    // that reuse it. Keyed by template identity (the `Arc` pointer), not
    // by name — the mix reuses workload names across different shapes.
    let mut inputs: BTreeMap<(usize, u64), Arc<BTreeMap<String, Grid>>> = BTreeMap::new();
    let mut jobs = Vec::with_capacity(templates.len());
    let mut large_jobs = 0usize;
    let mut programs: Vec<Arc<StencilProgram>> = Vec::new();
    for JobTemplate {
        program,
        input_seed,
        steps,
        class,
    } in templates
    {
        if !programs.iter().any(|p| Arc::ptr_eq(p, &program)) {
            programs.push(Arc::clone(&program));
        }
        let key = (Arc::as_ptr(&program) as usize, input_seed);
        let grids = inputs
            .entry(key)
            .or_insert_with(|| Arc::new(generate_inputs(&program, input_seed)));
        if class == JobClass::Large {
            large_jobs += 1;
        }
        jobs.push((
            JobSpec::new(program, Arc::clone(grids)).with_steps(steps),
            class,
        ));
    }
    PreparedMix {
        jobs,
        large_jobs,
        templates: programs,
    }
}

/// Median µs of a warm `prepare` hit of each template: nine interleaved
/// rounds of 1000 hits on one executor.
fn prepare_hit_us(templates: &[Arc<StencilProgram>]) -> Vec<(String, f64)> {
    const ROUNDS: usize = 9;
    const HITS: usize = 1000;
    let executor = ReferenceExecutor::new();
    for program in templates {
        executor.prepare(program).expect("every template compiles");
    }
    let mut samples = vec![Vec::with_capacity(ROUNDS); templates.len()];
    for _ in 0..ROUNDS {
        for (program, samples) in templates.iter().zip(&mut samples) {
            let start = Instant::now();
            for _ in 0..HITS {
                std::hint::black_box(executor.prepare(program).expect("a hit"));
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6 / HITS as f64);
        }
    }
    templates
        .iter()
        .zip(samples)
        .map(|(program, mut samples)| {
            samples.sort_by(f64::total_cmp);
            let extents: Vec<String> = program.space().shape.iter().map(usize::to_string).collect();
            let name = format!("{} {}", program.name(), extents.join("x"));
            (name, samples[ROUNDS / 2])
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[ix.min(sorted_ms.len() - 1)]
}

/// Run the service-layer benchmark. `quick` shrinks the mix for CI smoke
/// runs; the measured properties (zero steady-state allocation, zero
/// recompilation, fairness) are identical in both modes.
pub fn run_serve_bench(quick: bool) -> ServeBenchReport {
    let spec = if quick {
        JobMixSpec::quick()
    } else {
        JobMixSpec::new()
    };
    let mix = prepare_mix(&spec);
    let serve = ServeExecutor::new(ServeConfig::new());
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let batch = || -> Vec<JobSpec> { mix.jobs.iter().map(|(job, _)| job.clone()).collect() };

    // Warmup: tier resolution, shared-cache compile, and pools
    // provisioned for every worker at once (`ServeExecutor::warm`; results
    // are recycled from the sink, so none is held), so the steady window's
    // zero-miss property does not hang on which jobs happened to overlap
    // during the warmup.
    serve.warm(batch()).expect("every job of the mix runs");
    let warm = serve.stats();

    let batches = if quick { 2 } else { 3 };
    #[derive(Default)]
    struct Tally {
        small_ms: Vec<f64>,
        large_ms: Vec<f64>,
        cells: u64,
        errors: usize,
    }
    let tally = std::sync::Mutex::new(Tally::default());
    let started = Instant::now();
    for _ in 0..batches {
        serve.run_batch_with(batch(), |outcome| {
            let class = mix.jobs[outcome.job].1;
            let ms = outcome.latency.as_secs_f64() * 1e3;
            // Recycle before taking the tally lock: the pools must see
            // the buffers again as soon as the job is answered.
            let cells = match outcome.result {
                Ok(result) => {
                    let cells = result.cells_evaluated() as u64;
                    serve.recycle(result);
                    Some(cells)
                }
                Err(_) => None,
            };
            let mut tally = tally.lock().expect("tally poisoned");
            match class {
                JobClass::Small => tally.small_ms.push(ms),
                JobClass::Large => tally.large_ms.push(ms),
            }
            match cells {
                Some(c) => tally.cells += c,
                None => tally.errors += 1,
            }
        });
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let steady = serve.stats();
    let Tally {
        mut small_ms,
        mut large_ms,
        cells,
        errors,
    } = tally.into_inner().expect("tally poisoned");
    small_ms.sort_by(f64::total_cmp);
    large_ms.sort_by(f64::total_cmp);

    ServeBenchReport {
        quick,
        host_threads,
        workers: serve.workers(),
        jobs_per_batch: mix.jobs.len(),
        large_jobs: mix.large_jobs,
        batches,
        errors,
        elapsed_s,
        cells,
        mcells_per_s: cells as f64 / elapsed_s / 1e6,
        small_p50_ms: percentile(&small_ms, 0.50),
        small_p99_ms: percentile(&small_ms, 0.99),
        large_p99_ms: percentile(&large_ms, 0.99),
        prepare_hit_us: prepare_hit_us(&mix.templates),
        steady_pool_misses: steady.pool_misses - warm.pool_misses,
        steady_mask_misses: steady.mask_misses - warm.mask_misses,
        steady_compiles: steady.compiles - warm.compiles,
        tiers: serve.tier_choices(),
    }
}

/// Render the report as the `BENCH_serve.json` document.
pub fn serve_json(report: &ServeBenchReport) -> String {
    let tiers: Vec<Json> = report
        .tiers
        .iter()
        .map(|choice| {
            Json::Object(vec![
                (
                    "fingerprint".to_string(),
                    Json::String(choice.fingerprint.clone()),
                ),
                ("program".to_string(), Json::String(choice.program.clone())),
                ("stepped".to_string(), Json::Bool(choice.stepped)),
                (
                    "tier".to_string(),
                    Json::String(choice.tier.as_str().to_string()),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        (
            "benchmark".to_string(),
            Json::String("serve_throughput".to_string()),
        ),
        ("quick".to_string(), Json::Bool(report.quick)),
        (
            "host_threads".to_string(),
            Json::Number(report.host_threads as f64),
        ),
        ("workers".to_string(), Json::Number(report.workers as f64)),
        (
            "jobs_per_batch".to_string(),
            Json::Number(report.jobs_per_batch as f64),
        ),
        (
            "large_jobs".to_string(),
            Json::Number(report.large_jobs as f64),
        ),
        ("batches".to_string(), Json::Number(report.batches as f64)),
        ("errors".to_string(), Json::Number(report.errors as f64)),
        ("elapsed_s".to_string(), Json::Number(report.elapsed_s)),
        ("cells".to_string(), Json::Number(report.cells as f64)),
        (
            "mcells_per_s".to_string(),
            Json::Number(report.mcells_per_s),
        ),
        (
            "small_p50_ms".to_string(),
            Json::Number(report.small_p50_ms),
        ),
        (
            "small_p99_ms".to_string(),
            Json::Number(report.small_p99_ms),
        ),
        (
            "large_p99_ms".to_string(),
            Json::Number(report.large_p99_ms),
        ),
        (
            "prepare_hit_us".to_string(),
            Json::Object(
                report
                    .prepare_hit_us
                    .iter()
                    .map(|(template, us)| (template.clone(), Json::Number(*us)))
                    .collect(),
            ),
        ),
        (
            "steady_state".to_string(),
            Json::Object(vec![
                (
                    "pool_misses".to_string(),
                    Json::Number(report.steady_pool_misses as f64),
                ),
                (
                    "mask_misses".to_string(),
                    Json::Number(report.steady_mask_misses as f64),
                ),
                (
                    "compiles".to_string(),
                    Json::Number(report.steady_compiles as f64),
                ),
            ]),
        ),
        ("tiers".to_string(), Json::Array(tiers)),
    ])
    .to_string_pretty()
}

/// Render the human-readable summary of a report.
pub fn format_serve(report: &ServeBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} jobs/batch ({} large) x {} batches on {} workers ({} host threads)\n",
        report.jobs_per_batch,
        report.large_jobs,
        report.batches,
        report.workers,
        report.host_threads
    ));
    out.push_str(&format!(
        "  sustained {:.1} Mcells/s over {:.2} s; small p50 {:.2} ms, small p99 {:.2} ms, large p99 {:.2} ms\n",
        report.mcells_per_s,
        report.elapsed_s,
        report.small_p50_ms,
        report.small_p99_ms,
        report.large_p99_ms
    ));
    out.push_str(&format!(
        "  steady state: {} pool misses, {} mask misses, {} compiles\n",
        report.steady_pool_misses, report.steady_mask_misses, report.steady_compiles
    ));
    for (template, us) in &report.prepare_hit_us {
        out.push_str(&format!("  prepare hit: {template} {us:.3} us\n"));
    }
    for choice in &report.tiers {
        out.push_str(&format!(
            "  tier: {}{} -> {}\n",
            choice.program,
            if choice.stepped { " (stepped)" } else { "" },
            choice.tier
        ));
    }
    out
}

/// Gate a `BENCH_serve.json` document (the CI gate behind
/// `bench_serve --check-floors`):
///
/// * **Zero steady-state allocation** — `steady_state.pool_misses` and
///   `.mask_misses` must be exactly 0: once warm, sustained mixed traffic
///   draws every O(cells) buffer from the pools. This is an equality, not
///   a floor — one miss is a leak.
/// * **Zero recompilation** — `steady_state.compiles` must be 0: the
///   shared cache dedups every fingerprint in the mix.
/// * **No failed jobs** — `errors` must be 0.
/// * **Sustained throughput floor** — conditioned on `host_threads` (a
///   single-core runner cannot match a multi-core one) and on quick mode;
///   set ~10x below healthy local measurements so only a structural
///   regression (lost parallelism, per-job recompiles, allocation storms)
///   trips it, not shared-runner jitter.
/// * **Fairness (p99 latency) floor** — the small-job p99 is bounded: if
///   a large job monopolized the pool, thousands of queued small jobs
///   would blow this bound immediately.
///
/// # Errors
///
/// Returns [`FloorError::Missed`] with every violated floor, or the error
/// of a malformed document; `Ok` carries the human-readable summary of the
/// checks passed.
pub fn check_serve_floors(json_text: &str) -> Result<String, FloorError> {
    const DOCUMENT: &str = "serve JSON";
    let parsed = stencilflow_json::parse(json_text).map_err(|e| FloorError::InvalidJson {
        document: DOCUMENT,
        detail: format!("{e:?}"),
    })?;
    let quick = parsed
        .get("quick")
        .and_then(|v| v.as_bool())
        .ok_or(missing(DOCUMENT, "the `quick` flag"))?;
    let host_threads = parsed
        .get("host_threads")
        .and_then(|v| v.as_usize())
        .ok_or(missing(DOCUMENT, "`host_threads`"))?;
    let mut failures = Vec::new();
    let mut summary = String::new();

    let steady = parsed
        .get("steady_state")
        .ok_or(missing(DOCUMENT, "the `steady_state` section"))?;
    for key in ["pool_misses", "mask_misses", "compiles"] {
        match steady.get(key).and_then(|v| v.as_usize()) {
            Some(0) => summary.push_str(&format!("ok: steady_state.{key} == 0\n")),
            Some(n) => failures.push(format!(
                "steady_state.{key} is {n}, steady-state traffic must not allocate or recompile"
            )),
            None => failures.push(format!("steady_state is missing `{key}`")),
        }
    }
    match parsed.get("errors").and_then(|v| v.as_usize()) {
        Some(0) => summary.push_str("ok: errors == 0\n"),
        Some(n) => failures.push(format!("{n} jobs failed")),
        None => failures.push("serve JSON is missing `errors`".to_string()),
    }

    // Healthy local numbers: ~100+ Mcells/s on a 4-thread host (full
    // mix), quick mode in the same range over a shorter run. The floors
    // sit an order of magnitude below and scale down for small hosts.
    let throughput_floor = if host_threads >= 4 { 10.0 } else { 2.5 };
    match parsed.get("mcells_per_s").and_then(|v| v.as_f64()) {
        Some(value) if value >= throughput_floor => summary.push_str(&format!(
            "ok: mcells_per_s {value:.1} >= {throughput_floor:.1} ({host_threads} host threads)\n"
        )),
        Some(value) => failures.push(format!(
            "mcells_per_s {value:.1} below floor {throughput_floor:.1} ({host_threads} host threads)"
        )),
        None => failures.push("serve JSON is missing `mcells_per_s`".to_string()),
    }

    // Healthy small-job p99 is tens of milliseconds (queue wait behind a
    // full batch dominates); the bound is ~10x that. A fairness
    // regression (large job starving the queue) multiplies the p99 by the
    // large/small work ratio (~100x), far past this bound.
    let p99_floor_ms = if quick { 2_000.0 } else { 5_000.0 };
    match parsed.get("small_p99_ms").and_then(|v| v.as_f64()) {
        Some(value) if value <= p99_floor_ms => summary.push_str(&format!(
            "ok: small_p99_ms {value:.1} <= {p99_floor_ms:.1}\n"
        )),
        Some(value) => failures.push(format!(
            "small_p99_ms {value:.1} above bound {p99_floor_ms:.1}: small jobs are being starved"
        )),
        None => failures.push("serve JSON is missing `small_p99_ms`".to_string()),
    }

    // Tier selection must have run: every template resolved to a rung.
    match parsed
        .get("tiers")
        .and_then(|v| v.as_array())
        .map(<[_]>::len)
    {
        Some(n) if n >= 1 => summary.push_str(&format!("ok: {n} tier decisions >= 1\n")),
        Some(_) => {
            failures.push("no tier decisions recorded: tier selection did not run".to_string())
        }
        None => failures.push("serve JSON is missing `tiers`".to_string()),
    }

    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(FloorError::Missed(failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_serve_bench_passes_its_own_floors() {
        let report = run_serve_bench(true);
        assert_eq!(report.errors, 0);
        assert_eq!(report.steady_pool_misses, 0, "steady-state allocation");
        assert_eq!(report.steady_mask_misses, 0, "steady-state mask allocation");
        assert_eq!(report.steady_compiles, 0, "steady-state recompilation");
        let json = serve_json(&report);
        let summary = check_serve_floors(&json).expect("quick report must pass the gate");
        assert!(summary.contains("ok: steady_state.pool_misses == 0"));
    }

    #[test]
    fn floor_checker_rejects_violations() {
        let mut report = run_serve_bench(true);
        report.steady_pool_misses = 3;
        let err = check_serve_floors(&serve_json(&report))
            .unwrap_err()
            .to_string();
        assert!(err.contains("pool_misses"), "{err}");
        report.steady_pool_misses = 0;
        report.mcells_per_s = 0.01;
        let err = check_serve_floors(&serve_json(&report))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mcells_per_s"), "{err}");
        assert_eq!(
            check_serve_floors("{\"quick\": true}"),
            Err(missing("serve JSON", "`host_threads`"))
        );
        assert!(matches!(
            check_serve_floors("{"),
            Err(FloorError::InvalidJson { .. })
        ));
    }
}
