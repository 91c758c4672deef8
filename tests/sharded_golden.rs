//! Golden suite for the sharded runtime: every combination of shard count
//! and fault schedule must produce outputs bitwise identical to the
//! tree-walking interpreter, unrecoverable faults must degrade (and still
//! match), and induced deadlocks must be *detected* — reported with the
//! starved edge — rather than hung. Every run pins `.with_window(1)`: the
//! default window depends on the host's core count, and a suite that lets
//! one window swallow all steps exchanges no frame and passes vacuously.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stencilflow::expr::DataType;
use stencilflow::program::ProgramError;
use stencilflow::reference::{
    generate_inputs, FaultPlan, Grid, ReferenceExecutor, ShardConfig, ShardReport, ShardStats,
};
use stencilflow::workloads::jacobi3d;
use stencilflow::{StencilProgram, StencilProgramBuilder};

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

/// The six fault schedules every sweep runs; all but `none` and
/// `worker_panic` act on halo frames.
fn schedules() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        ("dropped_halo", FaultPlan::dropped_halo(41)),
        ("delayed_halo", FaultPlan::delayed_halo(41)),
        ("duplicated_halo", FaultPlan::duplicated_halo(41)),
        ("corrupted_halo", FaultPlan::corrupted_halo(41)),
        ("worker_panic", FaultPlan::worker_panic(1, 0)),
    ]
}

fn total(report: &ShardReport, stat: fn(&ShardStats) -> usize) -> usize {
    report.per_shard.iter().map(stat).sum()
}

#[test]
fn sharded_runs_stay_bitwise_identical_to_the_interpreter_under_every_fault_schedule() {
    let program = program();
    let inputs = generate_inputs(&program, 29);
    let executor = ReferenceExecutor::new();
    let reference = interpreter_reference(&executor, &program, &inputs);
    for (name, plan) in &schedules() {
        // A seeded roll may legitimately miss every frame of one small run,
        // so injected faults are counted over the whole sweep.
        let mut faults_injected = 0;
        for shards in [2usize, 4, 8] {
            let config = ShardConfig::shards(shards)
                .with_window(1)
                .with_fault_plan(plan.clone());
            let outcome = executor
                .run_steps_sharded(&program, &inputs, STEPS, &config)
                .unwrap();
            faults_injected += total(&outcome.report, |s| s.faults_injected);
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
                assert!(
                    total(&outcome.report, |s| s.frames_sent) > 0,
                    "{shards} shards, schedule {name}: no halo frame was exchanged"
                );
            }
        }
        if name.ends_with("_halo") {
            assert!(
                faults_injected > 0,
                "schedule {name} injected no fault on any shard count"
            );
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
            &ShardConfig::shards(4)
                .with_window(1)
                .with_fault_plan(FaultPlan::dropped_halo(41)),
        )
        .unwrap();
    let injected = total(&dropped.report, |s| s.faults_injected);
    let resent = total(&dropped.report, |s| s.frames_resent);
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
            &ShardConfig::shards(4)
                .with_window(1)
                .with_fault_plan(FaultPlan::corrupted_halo(41)),
        )
        .unwrap();
    let detected = total(&corrupted.report, |s| s.corrupt_detected);
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
                .with_window(1)
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
                .with_window(1)
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

/// Run `program` for `STEPS` steps on 3 shards under all six schedules,
/// with the given window pin, against the unsharded stepper; returns the
/// reports of the runs that did not degrade.
fn sweep_against_run_steps(program: &StencilProgram, window: Option<usize>) -> Vec<ShardReport> {
    let inputs = generate_inputs(program, 29);
    let executor = ReferenceExecutor::new();
    let reference = executor.run_steps(program, &inputs, STEPS).unwrap();
    let mut reports = Vec::new();
    for (name, plan) in schedules() {
        let mut config = ShardConfig::shards(3).with_fault_plan(plan);
        if let Some(window) = window {
            config = config.with_window(window);
        }
        let outcome = executor
            .run_steps_sharded(program, &inputs, STEPS, &config)
            .unwrap();
        let context = format!("`{}`, window {window:?}, schedule {name}", program.name());
        assert_bitwise_identical(program, &reference, &outcome.result, &context);
        assert_eq!(
            outcome.report.degraded,
            name == "worker_panic",
            "{context}: {:?}",
            outcome.report.degrade_reason
        );
        if !outcome.report.degraded {
            reports.push(outcome.report);
        }
    }
    reports
}

#[test]
fn pointwise_program_exchanges_no_frames_under_any_schedule() {
    // Radius 0 along the sharded dimension: there is no halo, so no frame
    // may be sent (and the corrupt fault must find nothing to damage),
    // whether one window covers the run or a pinned window cuts it up.
    let program = StencilProgramBuilder::new("pointwise", &[12, 6])
        .dims(&["i", "j"])
        .input("a", DataType::Float64, &["i", "j"])
        .stencil("a_next", "a[i,j] * 0.5 + 1.0")
        .output_type("a_next", DataType::Float64)
        .output("a_next")
        .build()
        .unwrap();
    for window in [None, Some(1)] {
        for report in sweep_against_run_steps(&program, window) {
            assert_eq!(report.shards, 3);
            assert_eq!(report.halo_rows, 0);
            assert_eq!(total(&report, |s| s.frames_sent), 0, "window {window:?}");
        }
    }
}

#[test]
fn two_feedback_pairs_and_a_lower_rank_input_stay_bitwise_identical() {
    // Two coupled state fields put `field >= 1` on the wire and two entries
    // per window in every retained/pending map; the coupling is asymmetric
    // so a shard's two neighbors need different rows. `c` does not span the
    // sharded dimension and reaches every shard whole.
    let program = StencilProgramBuilder::new("coupled", &[12, 6])
        .dims(&["i", "j"])
        .input("h", DataType::Float64, &["i", "j"])
        .input("u", DataType::Float64, &["i", "j"])
        .input("c", DataType::Float64, &["j"])
        .stencil(
            "h_next",
            "0.25 * (h[i-1,j] + h[i+1,j]) + 0.5 * u[i,j] + c[j]",
        )
        .stencil("u_next", "0.5 * (u[i,j-1] + u[i,j+1]) - 0.125 * h[i+1,j]")
        .output_type("h_next", DataType::Float64)
        .output_type("u_next", DataType::Float64)
        .output("h_next")
        .output("u_next")
        .build()
        .unwrap();
    for report in sweep_against_run_steps(&program, Some(1)) {
        // Two fields to each neighbor after each of the first three steps.
        assert_eq!(total(&report, |s| s.frames_sent), 2 * 4 * (STEPS - 1));
    }
}

#[test]
fn full_rank_input_not_led_by_the_sharded_dimension_is_an_error_not_a_panic() {
    let program = StencilProgramBuilder::new("transposed", &[8, 6])
        .dims(&["i", "j"])
        .input("a", DataType::Float64, &["i", "j"])
        .input("t", DataType::Float64, &["j", "i"])
        .stencil("b", "a[i,j] + t[j,i]")
        .output("b")
        .build()
        .unwrap();
    let inputs = generate_inputs(&program, 29);
    let outcome = ReferenceExecutor::new().run_sharded(&program, &inputs, &ShardConfig::shards(2));
    assert!(
        matches!(outcome, Err(ProgramError::Invalid { .. })),
        "{outcome:?}"
    );
}
