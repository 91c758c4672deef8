//! `sfbench`: one workload per process.
//!
//! `sfbench --workload NAME --seed N --seconds S --trace 0|1` sets the
//! workload up, measures whole iterations for `S` seconds, checks the
//! outputs, and prints one JSON object as the last line of standard output.
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` records spans around the benchmark's own calls into each
//! layer, runs the layer probes and reports the per-layer metrics (0 where a
//! layer metric does not apply to the workload). `benchmark/run.sh` builds
//! and invokes it.

mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use trace::Tracer;
use workloads::{Ctx, Layers, Tally, Workload};

/// Set-up runs per measurement: this process and at least two fresh children
/// (a second set-up in one process would find `cc` output, tier decisions and
/// pools already warm). Cheap set-ups are noisier, so children keep coming
/// until they have spent [`SETUP_BUDGET_S`] or there are nine samples.
/// `setup_s` is the median.
const SETUP_RUNS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET_S: f64 = 2.0;

/// Span layers whose share of the traced window is reported.
const LAYERS: [&str; 11] = [
    "program", "serve", "wire", "daemon", "analysis", "dataflow", "core", "codegen", "perf", "sim",
    "harness",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    /// Print the workloads and end-to-end metrics of `BENCHMARK.json` and
    /// the ungated workloads (for the shell scripts) and exit.
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        setup_only: false,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--setup-only" => {
                args.setup_only = true;
                continue;
            }
            "--list" => {
                args.list = true;
                continue;
            }
            _ => {}
        }
        let value = argv.next().ok_or(format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number of seconds"));
                }
            }
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() && !args.list {
        return Err("`--workload NAME` is required".into());
    }
    Ok(args)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("sfbench: {message}");
            std::process::exit(2);
        }
    }
}

/// `Ok(false)`: the run completed but an output was wrong or a job failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let home = PathBuf::from(std::env::var_os("SFBENCH_HOME").unwrap_or("benchmark".into()));
    let manifest_path = home.join("../BENCHMARK.json");
    let manifest = sut::parse_manifest(
        &std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?,
    )?;
    if args.list {
        for name in &manifest.workloads {
            println!("workload {name}");
        }
        for name in workloads::UNGATED {
            println!("ungated {name}");
        }
        for metric in &manifest.end_to_end {
            let bound = metric.bound.ok_or("an end-to-end metric lacks `bound`")?;
            println!(
                "metric {} {} {} {bound}",
                metric.name, metric.unit, metric.better
            );
        }
        return Ok(true);
    }
    if !manifest.workloads.contains(&args.workload)
        && !workloads::UNGATED.contains(&args.workload.as_str())
    {
        return Err(format!(
            "unknown workload `{}` (BENCHMARK.json lists: {}; ungated: {})",
            args.workload,
            manifest.workloads.join(", "),
            workloads::UNGATED.join(", ")
        ));
    }

    // A private scratch directory, with the JIT cache (initially empty) and
    // the C compiler's temporaries inside it. Set before any thread starts.
    let dir = home
        .join("target/runs")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("SF_JIT_CACHE_DIR", dir.join("jit"));
    std::env::set_var("TMPDIR", dir.join("tmp"));
    let ctx = Ctx {
        seed: args.seed,
        workers: sut::host_threads().min(4),
        dir: dir.clone(),
    };

    // The scratch directory goes whatever happens, a panic included (a
    // reader that closes our standard output makes `println!` panic);
    // traces live elsewhere.
    let _scratch = RemoveOnDrop(dir);
    measure(&args, &ctx, &home, &manifest)
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn measure(args: &Args, ctx: &Ctx, home: &Path, manifest: &sut::Manifest) -> Result<bool, String> {
    if args.setup_only {
        let start = Instant::now();
        workloads::setup(&args.workload, ctx)?;
        println!("{}", start.elapsed().as_secs_f64());
        return Ok(true);
    }

    let mut setup_s = Vec::new();
    if !args.trace {
        while setup_s.len() + 1 < *SETUP_RUNS.start()
            || (setup_s.len() + 1 < *SETUP_RUNS.end()
                && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            setup_s.push(setup_in_child(args)?);
        }
    }
    let start = Instant::now();
    let mut workload = workloads::setup(&args.workload, ctx)?;
    setup_s.push(start.elapsed().as_secs_f64());

    let mut tally = Tally::default();
    let mut iteration_rows = Vec::new();
    let (metrics, units) = if args.trace {
        let metrics = traced_metrics(args, home, manifest, workload.as_mut(), &mut tally)?;
        (metrics, &manifest.per_layer)
    } else {
        let metrics = end_to_end_metrics(
            args,
            manifest,
            workload.as_mut(),
            &mut tally,
            &setup_s,
            &mut iteration_rows,
        )?;
        (metrics, &manifest.end_to_end)
    };

    println!(
        "# {} seed={} seconds={} trace={} nproc={} workers={} sweep_workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sut::host_threads(),
        ctx.workers,
        ctx.sweep_workers()
    );
    println!(
        "# window: {:.3} s, {} iterations, {} jobs attempted, {} failed, {} mismatches",
        tally.window_s,
        tally.iterations.len(),
        tally.attempted,
        tally.failed,
        tally.mismatches
    );
    let tiers = workload.tier_choices();
    if !tiers.is_empty() {
        println!("# auto tiers: {}", tiers.join(" "));
    }
    println!(
        "# job latency [ms]: {}",
        stats::summary(&tally.latencies_ms)
    );
    println!("# set-up [s]: {}", stats::summary(&setup_s));
    for row in iteration_rows {
        println!("{row}");
    }
    let mut fields = Vec::new();
    for ((name, value), unit) in metrics.iter().zip(units.iter().map(|m| &m.unit)) {
        println!("{name:<34} {value:>20.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = tally.mismatches == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        fields.join(",")
    );
    Ok(correct && tally.failed == 0)
}

/// The traced run: half the window with spans off, half with spans on (the
/// difference per iteration is what the spans cost), then the layer probes
/// and the oracle. Returns every per-layer metric of `BENCHMARK.json`, 0
/// where the workload does not measure it.
fn traced_metrics(
    args: &Args,
    home: &Path,
    manifest: &sut::Manifest,
    workload: &mut dyn Workload,
    tally: &mut Tally,
) -> Result<Vec<(String, f64)>, String> {
    let mut tracer = Tracer::new();
    let mut layers = Layers::new();
    let mut untraced = Tally::default();
    workload.run_window(args.seconds / 2.0, &mut untraced, &mut tracer);
    tracer.set_enabled(true);
    workload.run_window(args.seconds / 2.0, tally, &mut tracer);
    tracer.set_enabled(false);
    let per_iteration = |t: &Tally| t.window_s / t.iterations.len().max(1) as f64;
    layers.insert(
        "trace.overhead_share".into(),
        per_iteration(tally) / per_iteration(&untraced) - 1.0,
    );
    let self_time = tracer.self_time_by_layer();
    let attributed: f64 = self_time
        .iter()
        .filter(|(layer, _)| **layer != "harness")
        .map(|(_, seconds)| seconds)
        .sum();
    for layer in LAYERS {
        // `harness` is the benchmark's own spans plus everything in the
        // window no span covers.
        let seconds = match layer {
            "harness" => tally.window_s - attributed,
            _ => self_time.get(layer).copied().unwrap_or(0.0),
        };
        layers.insert(format!("selftime.{layer}_share"), seconds / tally.window_s);
    }
    // Over the whole traced window, undisturbed or not: the two timing
    // numbers too unsteady on a shared host to carry a regression bound.
    layers.insert("cells_per_s".into(), tally.cells as f64 / tally.window_s);
    if !tally.latencies_ms.is_empty() {
        layers.insert(
            "job_tail_ms".into(),
            stats::percentile(&tally.latencies_ms, workload.tail_percentile()),
        );
    }
    workload.probe(&tracer, &mut layers)?;
    workload.verify(tally, &mut layers)?;
    tracer
        .write(&home.join("target/traces"), &args.workload)
        .map_err(|e| format!("writing the trace: {e}"))?;
    if let Some(name) = layers
        .keys()
        .find(|name| !manifest.per_layer.iter().any(|m| m.name == **name))
    {
        return Err(format!(
            "per-layer metric `{name}` is not in BENCHMARK.json"
        ));
    }
    Ok(manifest
        .per_layer
        .iter()
        .map(|m| (m.name.clone(), layers.get(&m.name).copied().unwrap_or(0.0)))
        .collect())
}

/// The untraced run: the window, peak memory, the oracle. Returns every
/// end-to-end metric of `BENCHMARK.json`; each timing metric is the best of
/// the window's iterations ([`best`]), whose spread goes to `iteration_rows`
/// for the run's header.
fn end_to_end_metrics(
    args: &Args,
    manifest: &sut::Manifest,
    workload: &mut dyn Workload,
    tally: &mut Tally,
    setup_s: &[f64],
    iteration_rows: &mut Vec<String>,
) -> Result<Vec<(String, f64)>, String> {
    workload.run_window(args.seconds, tally, &mut Tracer::new());
    let peak_rss_mb = peak_rss_mb()?;
    workload.verify(tally, &mut Layers::new())?;
    let (jobs_per_s, p50_ms) = iteration_stats(tally);
    if jobs_per_s.is_empty() {
        return Err("the window measured no job".into());
    }
    let measured = [
        ("setup_s", vec![stats::median(setup_s)]),
        ("jobs_per_s", jobs_per_s),
        ("job_p50_ms", p50_ms),
        ("peak_rss_mb", vec![peak_rss_mb]),
    ];
    for (name, values) in measured.iter().filter(|(_, values)| values.len() > 1) {
        iteration_rows.push(format!("# iterations {name}: {}", stats::summary(values)));
    }
    manifest
        .end_to_end
        .iter()
        .map(|m| {
            let (_, values) =
                measured
                    .iter()
                    .find(|(known, _)| *known == m.name)
                    .ok_or(format!(
                        "end-to-end metric `{}` is not one sfbench measures",
                        m.name
                    ))?;
            Ok((m.name.clone(), best(values, m.better == "higher")))
        })
        .collect()
}

/// Jobs per second and median job latency of every iteration that
/// completed a job.
fn iteration_stats(tally: &Tally) -> (Vec<f64>, Vec<f64>) {
    tally
        .iterations
        .iter()
        .filter(|it| !it.latencies.is_empty() && it.wall_s > 0.0)
        .map(|it| {
            (
                it.completed as f64 / it.wall_s,
                stats::median(&tally.latencies_ms[it.latencies.clone()]),
            )
        })
        .unzip()
}

/// The best of the iterations' values.
///
/// On a shared host interference comes in bursts and phases, from a few
/// milliseconds to a minute long, and only ever adds time: an iteration
/// holds the same work every time, so nothing makes it faster than the
/// undisturbed machine does. A metric over the whole window mostly reports
/// how busy the neighbours were; so does a median over iterations once more
/// than half of them are disturbed. The best iteration is what the system
/// does when the host lets it, and it needs one quiet gap as long as one
/// iteration (45 ms to 0.6 s) somewhere in the window. Measured on ten
/// seeds in a noisy hour: the spread of `jobs_per_s`@`jacobi-steps` was
/// 0.09 over 2 s slices of the window, 0.075 over 0.5 s slices and 0.046
/// over single iterations; of `hdiff` 0.12, 0.03 and 0.01.
fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values
        .iter()
        .copied()
        .reduce(pick)
        .expect("at least one iteration")
}

/// Time the workload's set-up in a fresh process with its own scratch
/// directory and empty JIT cache; the child prints the seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("spawning the set-up child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "the set-up child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "the set-up child printed no time".to_string())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Iteration;

    /// A window of `walls.len()` iterations, one job of `walls[i]` seconds
    /// (and as many milliseconds of latency) each.
    fn window(walls: &[f64]) -> Tally {
        let mut tally = Tally::default();
        for (ix, &wall_s) in walls.iter().enumerate() {
            tally.latencies_ms.push(wall_s * 1e3);
            tally.iterations.push(Iteration {
                wall_s,
                completed: 1,
                latencies: ix..ix + 1,
            });
        }
        tally
    }

    #[test]
    fn every_iteration_with_a_job_is_measured() {
        let mut tally = window(&[0.5, 0.25]);
        // An iteration whose jobs all failed has no latency and no rate.
        tally.iterations.push(Iteration {
            wall_s: 0.1,
            completed: 0,
            latencies: 2..2,
        });
        let (jobs_per_s, p50_ms) = iteration_stats(&tally);
        assert_eq!(jobs_per_s, [2.0, 4.0]);
        assert_eq!(p50_ms, [500.0, 250.0]);
        assert!(iteration_stats(&Tally::default()).0.is_empty());
    }

    #[test]
    fn the_best_iteration_is_on_the_good_side() {
        let values = [8.0, 3.0, 5.0, 1.0, 7.0];
        assert_eq!(best(&values, false), 1.0);
        assert_eq!(best(&values, true), 8.0);
    }
}
