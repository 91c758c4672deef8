//! Golden suite for the sharded runtime: every combination of shard count
//! and fault schedule must produce outputs bitwise identical to the
//! tree-walking interpreter, unrecoverable faults must degrade (and still
//! match), and induced deadlocks must be *detected* — reported with the
//! starved edge — rather than hung.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stencilflow::reference::{generate_inputs, FaultPlan, Grid, ReferenceExecutor, ShardConfig};
use stencilflow::workloads::jacobi3d;

const STEPS: usize = 4;

fn program() -> stencilflow::StencilProgram {
    jacobi3d(1, &[24, 10, 8], 1)
}

/// Ground truth: the tree-walking interpreter, stepped by hand through the
/// jacobi feedback pair (output `f1` feeds back into input `f0`).
fn interpreter_reference(
    executor: &ReferenceExecutor,
    program: &stencilflow::StencilProgram,
    inputs: &BTreeMap<String, Grid>,
) -> stencilflow::reference::ExecutionResult {
    let mut work = inputs.clone();
    let mut last = None;
    for _ in 0..STEPS {
        let result = executor.run_interpreted(program, &work).unwrap();
        work.insert("f0".to_string(), result.field("f1").unwrap().clone());
        last = Some(result);
    }
    last.expect("at least one step")
}

fn assert_bitwise_identical(
    program: &stencilflow::StencilProgram,
    reference: &stencilflow::reference::ExecutionResult,
    sharded: &stencilflow::reference::ExecutionResult,
    context: &str,
) {
    for name in program.outputs() {
        let expected = reference.field(name).expect("reference output");
        let actual = sharded.field(name).expect("sharded output");
        assert_eq!(
            expected.shape(),
            actual.shape(),
            "{context}: shape of `{name}`"
        );
        for (index, (e, a)) in expected
            .as_slice()
            .iter()
            .zip(actual.as_slice())
            .enumerate()
        {
            assert_eq!(
                e.to_bits(),
                a.to_bits(),
                "{context}: `{name}` differs at linear index {index} ({e} vs {a})"
            );
        }
        assert_eq!(
            reference.valid_mask(name),
            sharded.valid_mask(name),
            "{context}: validity mask of `{name}`"
        );
    }
}

#[test]
fn sharded_runs_stay_bitwise_identical_to_the_interpreter_under_every_fault_schedule() {
    let program = program();
    let inputs = generate_inputs(&program, 29);
    let executor = ReferenceExecutor::new();
    let reference = interpreter_reference(&executor, &program, &inputs);
    let schedules: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        ("dropped_halo", FaultPlan::dropped_halo(41)),
        ("delayed_halo", FaultPlan::delayed_halo(41)),
        ("duplicated_halo", FaultPlan::duplicated_halo(41)),
        ("corrupted_halo", FaultPlan::corrupted_halo(41)),
        // Window 0 exists under every window sizing (with shards <= host
        // threads the whole run is one window).
        ("worker_panic", FaultPlan::worker_panic(1, 0)),
    ];
    for shards in [2usize, 4, 8] {
        for (name, plan) in &schedules {
            let config = ShardConfig::shards(shards).with_fault_plan(plan.clone());
            let outcome = executor
                .run_steps_sharded(&program, &inputs, STEPS, &config)
                .unwrap();
            assert_bitwise_identical(
                &program,
                &reference,
                &outcome.result,
                &format!("{shards} shards, schedule {name}"),
            );
            if *name == "worker_panic" {
                // A dead worker is unrecoverable: the run must degrade to
                // the single-shard tier — and, per the assertion above,
                // still match the interpreter bit for bit.
                assert!(
                    outcome.report.degraded,
                    "{shards} shards: worker panic did not degrade"
                );
            } else {
                assert!(
                    !outcome.report.degraded,
                    "{shards} shards, schedule {name}: degraded unnecessarily ({:?})",
                    outcome.report.degrade_reason
                );
            }
        }
    }
}

#[test]
fn recovery_statistics_show_the_protocol_actually_ran() {
    // Guard against a trivially-passing suite: the dropped-halo schedule
    // must actually drop frames and recover them via resends, and the
    // corrupted-halo schedule must actually detect checksum mismatches.
    let program = program();
    let inputs = generate_inputs(&program, 29);
    let executor = ReferenceExecutor::new();
    let dropped = executor
        .run_steps_sharded(
            &program,
            &inputs,
            STEPS,
            &ShardConfig::shards(4).with_fault_plan(FaultPlan::dropped_halo(41)),
        )
        .unwrap();
    let injected: usize = dropped
        .report
        .per_shard
        .iter()
        .map(|s| s.faults_injected)
        .sum();
    let resent: usize = dropped
        .report
        .per_shard
        .iter()
        .map(|s| s.frames_resent)
        .sum();
    assert!(injected > 0, "no faults injected by the dropped-halo plan");
    assert!(
        resent >= injected,
        "dropped frames not recovered by resends"
    );
    let corrupted = executor
        .run_steps_sharded(
            &program,
            &inputs,
            STEPS,
            &ShardConfig::shards(4).with_fault_plan(FaultPlan::corrupted_halo(41)),
        )
        .unwrap();
    let detected: usize = corrupted
        .report
        .per_shard
        .iter()
        .map(|s| s.corrupt_detected)
        .sum();
    assert!(detected > 0, "no corrupt frames detected by the checksum");
}

#[test]
fn undersized_halo_link_is_detected_and_reported_not_hung() {
    // Induce the fig04 deadlock: a link too small to hold one halo frame
    // can never drain. The run must *detect* this — naming the starved
    // edge and agreeing with the static buffer analysis — then degrade
    // and still match the interpreter, all well within wall-clock bounds
    // (no sleep longer than the watchdog bound may be involved).
    let program = program();
    let inputs = generate_inputs(&program, 29);
    let executor = ReferenceExecutor::new();
    let reference = interpreter_reference(&executor, &program, &inputs);
    let watchdog = Duration::from_millis(500);
    let started = Instant::now();
    let outcome = executor
        .run_steps_sharded(
            &program,
            &inputs,
            STEPS,
            &ShardConfig::shards(4)
                .with_link_capacity_words(4)
                .with_watchdog(watchdog),
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "deadlock detection took {elapsed:?}"
    );
    assert!(outcome.report.degraded, "undersized link did not degrade");
    let report = outcome
        .report
        .watchdog
        .as_ref()
        .expect("watchdog report for the undersized link");
    assert!(
        report.starved_edge.contains("halo["),
        "starved edge `{}` does not name a halo link",
        report.starved_edge
    );
    assert!(
        report.configured_capacity_words < report.required_frame_words,
        "report does not show the capacity shortfall"
    );
    assert!(
        report.analysis_agrees,
        "live detection disagrees with the fig04-style analysis"
    );
    assert_bitwise_identical(&program, &reference, &outcome.result, "undersized link");
}

#[test]
fn stall_longer_than_the_watchdog_trips_it_and_still_matches() {
    let program = program();
    let inputs = generate_inputs(&program, 29);
    let executor = ReferenceExecutor::new();
    let reference = interpreter_reference(&executor, &program, &inputs);
    let outcome = executor
        .run_steps_sharded(
            &program,
            &inputs,
            STEPS,
            &ShardConfig::shards(3)
                .with_fault_plan(FaultPlan::worker_stall(1, 1, Duration::from_millis(400)))
                .with_watchdog(Duration::from_millis(100)),
        )
        .unwrap();
    assert!(
        outcome.report.degraded,
        "long stall did not trip the watchdog"
    );
    assert!(
        outcome.report.watchdog.is_some(),
        "watchdog report missing after a tripped stall"
    );
    assert_bitwise_identical(&program, &reference, &outcome.result, "stalled worker");
}
