//! Command-line driver for the service layer.
//!
//! * `stencilflow run PROGRAM.json GRIDS [--steps N] [--tier TIER]
//!   [--out OUT.sfgs]` — execute one job. The grid file may be the
//!   compact `SFGS` binary framing or the text escape hatch
//!   (auto-detected); outputs are written as a binary grid set when
//!   `--out` is given, otherwise a per-output summary is printed.
//! * `stencilflow serve MANIFEST.json [--workers N] [--tier TIER]
//!   [--repeat N]` — submit a whole manifest of jobs to the batch
//!   executor and print aggregate throughput, latency, tier, and
//!   allocation statistics. The manifest is a JSON array of
//!   `{"program": ..., "grids": ..., "steps": ..., "tier": ...,
//!   "count": ...}` objects with paths relative to the manifest.
//! * `stencilflow daemon [--workers N] [--queue N] [--batch N]
//!   [--max-job-cells N] [--hard-timeout-ms N] [--drain-timeout-ms N]
//!   [--tier-cache PATH]` — the long-lived resilient serving loop:
//!   JSON-lines requests on stdin, responses on stdout (see the
//!   `stencilflow::daemon` module docs for the protocol). End of input
//!   drains gracefully; `--tier-cache` persists measured tier decisions
//!   across restarts.
//!
//! Exit codes: 0 on success, 1 when any job fails (for `daemon`: when
//! the drain was not clean), 2 on usage errors.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use stencilflow::daemon::{self, DaemonLoopOptions};
use stencilflow::ingest::{self, ManifestJob};
use stencilflow::reference::{
    DaemonConfig, JobOutcome, JobSpec, ServeConfig, ServeExecutor, Tier, TierPolicy,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  stencilflow run PROGRAM.json GRIDS [--steps N] [--tier TIER] [--out OUT.sfgs]\n  \
         stencilflow serve MANIFEST.json [--workers N] [--tier TIER] [--repeat N]\n  \
         stencilflow daemon [--workers N] [--queue N] [--batch N] [--max-job-cells N]\n                     \
         [--hard-timeout-ms N] [--drain-timeout-ms N] [--tier-cache PATH]\n\
         tiers: simd, fused, jit (default: automatic selection)"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn parse_tier(name: &str) -> Tier {
    name.parse()
        .unwrap_or_else(|e| -> Tier { fail(format_args!("--tier {name}: {e}")) })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        Some("daemon") => daemon_command(&args[1..]),
        _ => usage(),
    }
}

fn daemon_command(args: &[String]) {
    let mut workers: Option<usize> = None;
    let mut queue: Option<usize> = None;
    let mut batch: Option<usize> = None;
    let mut max_job_cells: Option<u64> = None;
    let mut hard_timeout_ms: Option<u64> = None;
    let mut drain_timeout_ms: Option<u64> = None;
    let mut tier_cache: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()).filter(|&w| w >= 1) {
                Some(w) => workers = Some(w),
                None => fail("--workers needs a positive integer"),
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()).filter(|&q| q >= 1) {
                Some(q) => queue = Some(q),
                None => fail("--queue needs a positive integer"),
            },
            "--batch" => match it.next().and_then(|v| v.parse().ok()) {
                Some(b) => batch = Some(b),
                None => fail("--batch needs an integer (0 = per-worker default)"),
            },
            "--max-job-cells" => match it.next().and_then(|v| v.parse().ok()) {
                Some(c) => max_job_cells = Some(c),
                None => fail("--max-job-cells needs an integer"),
            },
            "--hard-timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => hard_timeout_ms = Some(t),
                None => fail("--hard-timeout-ms needs an integer"),
            },
            "--drain-timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => drain_timeout_ms = Some(t),
                None => fail("--drain-timeout-ms needs an integer"),
            },
            "--tier-cache" => match it.next() {
                Some(path) => tier_cache = Some(PathBuf::from(path)),
                None => fail("--tier-cache needs a path"),
            },
            _ => usage(),
        }
    }
    let mut serve = ServeConfig::new();
    if let Some(workers) = workers {
        serve = serve.with_workers(workers);
    }
    let mut config = DaemonConfig::new().with_serve(serve);
    if let Some(queue) = queue {
        config = config.with_queue_capacity(queue);
    }
    if let Some(batch) = batch {
        config = config.with_batch_size(batch);
    }
    if let Some(limit) = max_job_cells {
        config = config.with_max_job_cells(limit);
    }
    if let Some(ms) = hard_timeout_ms {
        config = config.with_default_hard_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = drain_timeout_ms {
        config = config.with_drain_timeout(std::time::Duration::from_millis(ms));
    }
    let mut options = DaemonLoopOptions::new().with_config(config);
    if let Some(path) = tier_cache {
        options = options.with_tier_cache(path);
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let summary = daemon::run_loop(stdin.lock(), &mut stdout.lock(), options)
        .unwrap_or_else(|e| fail(format_args!("daemon I/O: {e}")));
    eprintln!(
        "daemon: {} submitted, {} admitted, {} rejected; {} completed, {} failed, \
         {} panicked, {} cancelled; drain {}",
        summary.stats.submitted,
        summary.stats.admitted,
        summary.stats.rejected,
        summary.stats.completed,
        summary.stats.failed,
        summary.stats.panicked,
        summary.stats.cancelled,
        if summary.drain.clean {
            "clean"
        } else {
            "unclean"
        },
    );
    if !summary.drain.clean {
        std::process::exit(1);
    }
}

fn run_command(args: &[String]) {
    let mut positional: Vec<&str> = Vec::new();
    let mut steps = 1usize;
    let mut tier: Option<Tier> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--steps" => match it.next().and_then(|v| v.parse().ok()).filter(|&s| s >= 1) {
                Some(s) => steps = s,
                None => fail("--steps needs a positive integer"),
            },
            "--tier" => match it.next() {
                Some(name) => tier = Some(parse_tier(name)),
                None => fail("--tier needs a tier name"),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => fail("--out needs a path"),
            },
            flag if flag.starts_with('-') => usage(),
            p => positional.push(p),
        }
    }
    let [program_path, grids_path] = positional[..] else {
        usage();
    };
    let program = ingest::load_program(Path::new(program_path)).unwrap_or_else(|e| fail(e));
    let inputs = ingest::load_grid_set(Path::new(grids_path)).unwrap_or_else(|e| fail(e));
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let mut job = JobSpec::new(program, std::sync::Arc::new(inputs)).with_steps(steps);
    if let Some(tier) = tier {
        job = job.with_tier(tier);
    }
    let outcome = serve.run_one(job);
    let result = outcome.result.unwrap_or_else(|e| fail(e));
    println!(
        "tier: {}  latency: {:.3} ms  cells: {}",
        outcome.tier,
        outcome.latency.as_secs_f64() * 1e3,
        result.cells_evaluated()
    );
    match out {
        Some(path) => {
            let grids = result
                .fields()
                .map(|(name, grid)| (name.to_string(), grid.clone()))
                .collect::<Vec<_>>();
            ingest::write_grid_set(&path, grids.into_iter()).unwrap_or_else(|e| fail(e));
            println!("wrote {}", path.display());
        }
        None => {
            for (name, grid) in result.fields() {
                let slice = grid.as_slice();
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in slice {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                println!(
                    "  {name}: shape {:?}  min {lo:.6}  max {hi:.6}",
                    grid.shape()
                );
            }
        }
    }
    serve.recycle(result);
}

fn serve_command(args: &[String]) {
    let mut manifest_path: Option<&str> = None;
    let mut workers: Option<usize> = None;
    let mut tier: Option<Tier> = None;
    let mut repeat = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()).filter(|&w| w >= 1) {
                Some(w) => workers = Some(w),
                None => fail("--workers needs a positive integer"),
            },
            "--tier" => match it.next() {
                Some(name) => tier = Some(parse_tier(name)),
                None => fail("--tier needs a tier name"),
            },
            "--repeat" => match it.next().and_then(|v| v.parse().ok()).filter(|&r| r >= 1) {
                Some(r) => repeat = r,
                None => fail("--repeat needs a positive integer"),
            },
            flag if flag.starts_with('-') => usage(),
            p if manifest_path.is_none() => manifest_path = Some(p),
            _ => usage(),
        }
    }
    let Some(manifest_path) = manifest_path else {
        usage();
    };
    let manifest = ingest::load_manifest(Path::new(manifest_path)).unwrap_or_else(|e| fail(e));
    if manifest.is_empty() {
        fail("manifest contains no jobs");
    }
    let jobs = expand_manifest(&manifest, repeat);
    let mut config = ServeConfig::new();
    if let Some(workers) = workers {
        config = config.with_workers(workers);
    }
    if let Some(tier) = tier {
        config = config.with_tier_policy(TierPolicy::Fixed(tier));
    }
    let serve = ServeExecutor::new(config);
    let tally = Mutex::new(Tally::default());
    let started = Instant::now();
    serve.run_batch_with(jobs.clone(), |outcome: JobOutcome| {
        let (cells, error) = match outcome.result {
            Ok(result) => {
                let cells = result.cells_evaluated();
                serve.recycle(result);
                (cells, None)
            }
            Err(e) => (0, Some(format!("job {}: {e}", outcome.job))),
        };
        let mut tally = tally.lock().unwrap();
        tally.cells += cells;
        tally.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
        if let Some(error) = error {
            tally.errors.push(error);
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let tally = tally.into_inner().unwrap();
    let stats = serve.stats();
    println!(
        "{} jobs on {} workers in {elapsed:.3} s  ({:.2} Mcells/s)",
        jobs.len(),
        serve.workers(),
        tally.cells as f64 / elapsed / 1e6
    );
    let mut latencies = tally.latencies_ms;
    latencies.sort_by(f64::total_cmp);
    if !latencies.is_empty() {
        let pick = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
        println!(
            "latency ms: p50 {:.3}  p99 {:.3}  max {:.3}",
            pick(0.50),
            pick(0.99),
            latencies[latencies.len() - 1]
        );
    }
    println!(
        "compiles: {}  tier measurements: {}  pool misses: {}  mask misses: {}",
        stats.compiles, stats.tier_measurements, stats.pool_misses, stats.mask_misses
    );
    for choice in serve.tier_choices() {
        println!(
            "tier choice: {} ({}{}) -> {}",
            choice.program,
            &choice.fingerprint[..12.min(choice.fingerprint.len())],
            if choice.stepped { ", stepped" } else { "" },
            choice.tier
        );
    }
    if !tally.errors.is_empty() {
        for error in &tally.errors {
            eprintln!("error: {error}");
        }
        std::process::exit(1);
    }
}

#[derive(Default)]
struct Tally {
    cells: usize,
    latencies_ms: Vec<f64>,
    errors: Vec<String>,
}

/// Expand manifest entries into the submitted job list: each entry's
/// `count` repeats, the whole list `repeat` times, interleaved by
/// round-robin so heterogeneous entries share the queue fairly.
fn expand_manifest(manifest: &[ManifestJob], repeat: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for _ in 0..repeat {
        let mut remaining: Vec<usize> = manifest.iter().map(|m| m.count).collect();
        loop {
            let mut any = false;
            for (entry, left) in manifest.iter().zip(remaining.iter_mut()) {
                if *left == 0 {
                    continue;
                }
                *left -= 1;
                any = true;
                let mut job = JobSpec::new(entry.program.clone(), entry.inputs.clone())
                    .with_steps(entry.steps);
                if let Some(name) = &entry.tier {
                    job = job.with_tier(parse_tier(name));
                }
                jobs.push(job);
            }
            if !any {
                break;
            }
        }
    }
    jobs
}
