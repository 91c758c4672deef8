//! Deterministic fault-injection sweep over the sharded runtime.
//!
//! For every seed, runs the jacobi3d time loop under each fault schedule
//! (no faults, dropped halos, delayed halos, duplicated halos, corrupted
//! halos, and a worker panic) and checks the sharded output bitwise
//! against both the tree-walking interpreter (stepped by hand through the
//! feedback pair) and the compiled `run_steps` path. Writes a JSON log of
//! every run — per-schedule recovery statistics and the chronological
//! fault log — and exits non-zero on any bitwise mismatch, so CI can run
//! it as a gate and archive the log as an artifact. The exchange window is
//! pinned to one step (the default depends on the host's core count and
//! can swallow the whole run in one window), and a schedule that tested
//! nothing also fails the gate: a run that did not degrade yet sent no
//! halo frame, a halo schedule that injected no fault on any seed, a
//! `worker_panic` run that did not degrade.
//!
//! Usage: `fault_sweep [--seeds 7,23,42] [--out PATH]`
//!
//! Without `--seeds`, seeds come from the `STENCILFLOW_FAULT_SEEDS`
//! environment variable (comma- or space-separated), defaulting to `7,23`.

use stencilflow_json::Json;
use stencilflow_reference::{generate_inputs, FaultPlan, Grid, ReferenceExecutor, ShardConfig};
use stencilflow_workloads::jacobi3d;

fn parse_seeds(text: &str) -> Vec<u64> {
    text.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("invalid seed `{s}` (expected an unsigned integer)");
                std::process::exit(2);
            })
        })
        .collect()
}

fn grids_bitwise_equal(a: &Grid, b: &Grid) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let mut seeds: Option<Vec<u64>> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let Some(list) = args.next() else {
                    eprintln!("--seeds requires a comma-separated list");
                    std::process::exit(2);
                };
                seeds = Some(parse_seeds(&list));
            }
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                };
                out = Some(path);
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: fault_sweep [--seeds LIST] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let seeds = seeds
        .or_else(|| {
            std::env::var("STENCILFLOW_FAULT_SEEDS")
                .ok()
                .map(|text| parse_seeds(&text))
        })
        .unwrap_or_else(|| vec![7, 23]);
    if seeds.is_empty() {
        eprintln!("no seeds to sweep");
        std::process::exit(2);
    }

    // A domain small enough to sweep many schedules quickly but tall
    // enough along the sharded dimension for 3 shards plus dilation.
    let shape = [16usize, 12, 8];
    let steps = 4usize;
    let shards = 3usize;
    let program = jacobi3d(1, &shape, 1);
    let inputs = generate_inputs(&program, 11);
    let executor = ReferenceExecutor::new();

    // Ground truth #1: the tree-walking interpreter, stepped by hand
    // through the jacobi feedback pair (f1 feeds back into f0).
    let mut work = inputs.clone();
    let mut interpreted = None;
    for _ in 0..steps {
        let result = executor.run_interpreted(&program, &work).unwrap();
        work.insert("f0".to_string(), result.field("f1").unwrap().clone());
        interpreted = Some(result);
    }
    let interpreted = interpreted.expect("at least one step");
    // Ground truth #2: the compiled stepper (bit-identical to #1 by the
    // kernel-tier invariant; checked again here).
    let stepped = executor.run_steps(&program, &inputs, steps).unwrap();
    for name in program.outputs() {
        assert!(
            grids_bitwise_equal(
                interpreted.field(name).unwrap(),
                stepped.field(name).unwrap()
            ),
            "run_steps diverged from the interpreter on `{name}` before any sharding"
        );
    }

    type PlanFactory = Box<dyn Fn(u64) -> FaultPlan>;
    let schedules: Vec<(&str, PlanFactory)> = vec![
        ("none", Box::new(|_| FaultPlan::none())),
        ("dropped_halo", Box::new(FaultPlan::dropped_halo)),
        ("delayed_halo", Box::new(FaultPlan::delayed_halo)),
        ("duplicated_halo", Box::new(FaultPlan::duplicated_halo)),
        ("corrupted_halo", Box::new(FaultPlan::corrupted_halo)),
        ("worker_panic", Box::new(|_| FaultPlan::worker_panic(1, 0))),
    ];

    let mut runs = Vec::new();
    let mut mismatches = 0usize;
    // Runs (or whole schedules) that passed without testing anything.
    let mut vacuous = 0usize;
    for (schedule, make_plan) in &schedules {
        let mut schedule_faults = 0.0;
        for &seed in &seeds {
            let config = ShardConfig::shards(shards)
                .with_window(1)
                .with_fault_plan(make_plan(seed));
            let outcome = executor
                .run_steps_sharded(&program, &inputs, steps, &config)
                .unwrap();
            let bitwise_match = program.outputs().iter().all(|name| {
                let sharded = outcome.result.field(name);
                let reference = interpreted.field(name);
                match (sharded, reference) {
                    (Some(s), Some(r)) => grids_bitwise_equal(s, r),
                    _ => false,
                }
            });
            if !bitwise_match {
                mismatches += 1;
                eprintln!(
                    "MISMATCH: seed {seed} schedule {schedule} diverged from the interpreter"
                );
            }
            let report = &outcome.report;
            let sum = |f: fn(&stencilflow_reference::ShardStats) -> usize| -> f64 {
                report.per_shard.iter().map(f).sum::<usize>() as f64
            };
            if *schedule == "worker_panic" && !report.degraded {
                // The panic never fired (or was absorbed).
                vacuous += 1;
                eprintln!("NOT DEGRADED: seed {seed} worker_panic ran to completion sharded");
            }
            if !report.degraded && sum(|s| s.frames_sent) == 0.0 {
                vacuous += 1;
                eprintln!("NO EXCHANGE: seed {seed} schedule {schedule} sent no halo frame");
            }
            schedule_faults += sum(|s| s.faults_injected);
            println!(
                "seed {seed:>4} {schedule:<16} match={bitwise_match} degraded={} \
                 resent={} nacks={} corrupt={} faults={}",
                report.degraded,
                sum(|s| s.frames_resent),
                sum(|s| s.nacks_sent),
                sum(|s| s.corrupt_detected),
                sum(|s| s.faults_injected),
            );
            runs.push(Json::Object(vec![
                ("seed".to_string(), Json::Number(seed as f64)),
                ("schedule".to_string(), Json::String(schedule.to_string())),
                ("bitwise_match".to_string(), Json::Bool(bitwise_match)),
                ("degraded".to_string(), Json::Bool(report.degraded)),
                (
                    "degrade_reason".to_string(),
                    match &report.degrade_reason {
                        Some(reason) => Json::String(reason.clone()),
                        None => Json::Null,
                    },
                ),
                ("shards".to_string(), Json::Number(report.shards as f64)),
                ("window".to_string(), Json::Number(report.window as f64)),
                (
                    "frames_sent".to_string(),
                    Json::Number(sum(|s| s.frames_sent)),
                ),
                (
                    "frames_resent".to_string(),
                    Json::Number(sum(|s| s.frames_resent)),
                ),
                (
                    "nacks_sent".to_string(),
                    Json::Number(sum(|s| s.nacks_sent)),
                ),
                (
                    "corrupt_detected".to_string(),
                    Json::Number(sum(|s| s.corrupt_detected)),
                ),
                (
                    "stale_discarded".to_string(),
                    Json::Number(sum(|s| s.stale_discarded)),
                ),
                (
                    "faults_injected".to_string(),
                    Json::Number(sum(|s| s.faults_injected)),
                ),
                (
                    "fault_log".to_string(),
                    Json::Array(
                        report
                            .fault_log
                            .iter()
                            .map(|line| Json::String(line.clone()))
                            .collect(),
                    ),
                ),
            ]));
        }
        // A seeded roll may miss every frame of one small run, so a halo
        // schedule is held to injecting something over all the seeds.
        if schedule.ends_with("_halo") && schedule_faults == 0.0 {
            vacuous += 1;
            eprintln!("NO FAULTS: schedule {schedule} injected nothing on any seed");
        }
    }

    let document = Json::Object(vec![
        (
            "benchmark".to_string(),
            Json::String("fault_sweep".to_string()),
        ),
        (
            "program".to_string(),
            Json::String(format!(
                "jacobi3d {}x{}x{} x{steps} steps, {shards} shards",
                shape[0], shape[1], shape[2]
            )),
        ),
        (
            "seeds".to_string(),
            Json::Array(seeds.iter().map(|&s| Json::Number(s as f64)).collect()),
        ),
        ("runs".to_string(), Json::Array(runs)),
        ("mismatches".to_string(), Json::Number(mismatches as f64)),
    ])
    .to_string_pretty();
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{document}\n")).expect("write fault-sweep JSON");
            println!("wrote {path}");
        }
        None => println!("{document}"),
    }
    if mismatches > 0 || vacuous > 0 {
        eprintln!(
            "{mismatches} fault run(s) diverged from the interpreter, \
             {vacuous} run(s) or schedule(s) tested nothing"
        );
        std::process::exit(1);
    }
    println!(
        "all {} fault runs bitwise-identical to the interpreter, none vacuous",
        seeds.len() * schedules.len()
    );
}
