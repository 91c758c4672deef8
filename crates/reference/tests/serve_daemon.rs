//! Resilience contracts of the serving daemon and the panic-isolating
//! batch layer underneath it:
//!
//! * a poison job comes back as a structured `Panicked` outcome while the
//!   rest of the batch completes bitwise-identically, and the pooled
//!   buffers it touched recycle (0 new misses afterwards);
//! * admission control sheds load with stable `SF04xx` codes (queue
//!   bound, per-tenant in-flight caps and cell budgets, per-job size
//!   bound, duplicate ids, draining);
//! * deadlines replace FIFO: dispatch is earliest-deadline-first, lapsed
//!   hard timeouts cancel before start, the job's token cancels mid-run;
//! * graceful drain settles everything (the seeded chaos test runs
//!   poison + over-quota + hard-timeout + mid-stream shutdown in one
//!   daemon lifetime);
//! * exported tier decisions reload on a fresh executor with zero
//!   re-measurements and bitwise-identical results; a wrong salt
//!   discards them as stale; malformed caches error.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use stencilflow_expr::DataType;
use stencilflow_json::Json;
use stencilflow_program::{ProgramError, StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{
    generate_inputs, CancelReason, CancelToken, Daemon, DaemonConfig, DaemonOutcome, DaemonRequest,
    ExecutionResult, Grid, JobError, JobFault, JobSpec, JobStatus, ReferenceExecutor, RejectReason,
    ServeConfig, ServeExecutor, TenantQuota, Tier,
};
use stencilflow_workloads::{diffusion2d, jacobi2d, jacobi3d};

fn assert_outputs_bitwise(program: &StencilProgram, got: &ExecutionResult, want: &ExecutionResult) {
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
                "{}: output `{name}` differs at flat index {ix}",
                program.name()
            );
        }
    }
}

fn job(program: &Arc<StencilProgram>, inputs: &Arc<BTreeMap<String, Grid>>) -> JobSpec {
    JobSpec::new(Arc::clone(program), Arc::clone(inputs))
}

/// Collect daemon outcomes into an id-keyed map.
fn drain_collect(daemon: &Daemon) -> (BTreeMap<String, JobStatus>, bool) {
    let outcomes: Mutex<Vec<DaemonOutcome>> = Mutex::new(Vec::new());
    let report = daemon.drain(|outcome| {
        outcomes.lock().expect("sink poisoned").push(outcome);
    });
    let map = outcomes
        .into_inner()
        .expect("sink poisoned")
        .into_iter()
        .map(|o| (o.id, o.status))
        .collect();
    (map, report.clean)
}

// ---------------------------------------------------------------------
// Panic isolation on the batch layer (satellite: replace the join-abort
// with per-job isolation; pooled buffers must recycle after a poison job).
// ---------------------------------------------------------------------

#[test]
fn poison_job_is_isolated_and_pooled_buffers_recycle() {
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let program = Arc::new(jacobi2d(2, &[20, 16], 1));
    let inputs = Arc::new(generate_inputs(&program, 42));
    let expected = ReferenceExecutor::new()
        .run_interpreted(&program, &inputs)
        .unwrap();
    // Pinned to the materializing sweep, so the buffers a clean job draws
    // are exactly its results and the invariant is exact.
    let clean = job(&program, &inputs).with_tier(Tier::Simd);
    for _ in 0..2 {
        let outcome = serve.run_one(clean.clone());
        serve.recycle(outcome.result.expect("warmup runs clean"));
    }
    let warm = serve.stats();

    let outcome = serve.run_one(clean.clone().with_fault(JobFault::Poison));
    match outcome.result {
        Err(JobError::Panicked(message)) => {
            assert!(message.contains("injected poison-job fault"), "{message}")
        }
        other => panic!("poison job must surface as Panicked, got {other:?}"),
    }

    // The executor still serves, bitwise, with zero new pool misses: the
    // poison job's buffers went back to the pool on the error path.
    let outcome = serve.run_one(clean.clone());
    let result = outcome.result.expect("the batch layer survives poison");
    assert_outputs_bitwise(&program, &result, &expected);
    serve.recycle(result);
    let after = serve.stats();
    assert_eq!(
        after.pool_misses, warm.pool_misses,
        "poison job leaked pooled buffers"
    );
    assert_eq!(
        after.mask_misses, warm.mask_misses,
        "poison job leaked pooled masks"
    );
}

#[test]
fn cancelling_a_stepped_job_mid_run_stops_it_and_recycles_its_buffers() {
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 9));
    let stepped = |steps| {
        job(&program, &inputs)
            .with_tier(Tier::Simd)
            .with_steps(steps)
    };
    let clean = || {
        let outcome = serve.run_one(stepped(3));
        serve.recycle(outcome.result.expect("the clean job completes"));
        serve.stats()
    };
    let warm = clean();

    // 2^40 steps never finish on their own, so the job coming back at all
    // is the cancellation observed at a step boundary. The helper fires
    // the token only once the job is provably under way: it has drawn the
    // buffers of at least eight sweeps.
    let token = CancelToken::new();
    let endless = stepped(1 << 40).with_cancel_token(token.clone());
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            while serve.stats().pool_acquires < warm.pool_acquires + 8 {
                std::thread::yield_now();
            }
            token.cancel();
        });
        serve.run_one(endless)
    });
    assert!(
        matches!(outcome.result, Err(JobError::Cancelled)),
        "expected Cancelled, got {:?}",
        outcome.result
    );

    // Fed-back state, the sweep in flight, its mask: all back in the pools.
    let after = clean();
    assert_eq!(
        (after.pool_misses, after.mask_misses),
        (warm.pool_misses, warm.mask_misses),
        "the cancelled job leaked pooled buffers"
    );
}

#[test]
fn a_kernel_error_in_a_later_step_is_reported_and_leaks_nothing() {
    // Integer slots keep both kernels on the boxed path, where division
    // by zero is an error. `k_next = 4 / k - 2`: from k = 2 the first step
    // feeds back 0 and the second step divides by it, with `s` already
    // computed and the first step's output held as state. From k = 5 the
    // sequence is -2, -4, -3, -3, ... and never reaches 0.
    let program = StencilProgramBuilder::new("int_feedback", &[6, 5])
        .input("k", DataType::Int32, &["i", "j"])
        .stencil("s", "k[i,j] + 1")
        .output_type("s", DataType::Int32)
        .stencil("k_next", "4 / k[i,j] - 3 + s[i,j] - k[i,j]")
        .output_type("k_next", DataType::Int32)
        .output("k_next")
        .build()
        .unwrap();
    let program = Arc::new(program);
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let from = |k: f64| {
        let grid = Grid::from_fn(&["i", "j"], &[6, 5], DataType::Int32, |_| k);
        let inputs = Arc::new(BTreeMap::from([("k".to_string(), grid)]));
        serve.run_one(job(&program, &inputs).with_tier(Tier::Simd).with_steps(4))
    };
    let clean = || {
        let result = from(5.0).result.expect("k = 5 never divides by zero");
        assert!(result
            .field("k_next")
            .unwrap()
            .as_slice()
            .iter()
            .all(|&k| k == -3.0));
        serve.recycle(result);
        serve.stats()
    };
    let warm = clean();
    match from(2.0).result {
        Err(JobError::Program(ProgramError::Code { stencil, .. })) => assert_eq!(stencil, "k_next"),
        other => panic!("expected the kernel's error, got {other:?}"),
    }
    let after = clean();
    assert_eq!(
        (after.pool_misses, after.mask_misses),
        (warm.pool_misses, warm.mask_misses),
        "the failed job leaked pooled buffers"
    );
}

#[test]
fn batch_with_poison_jobs_completes_and_stays_bitwise() {
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(3));
    let program = Arc::new(diffusion2d(2, &[18, 14], 1));
    let inputs = Arc::new(generate_inputs(&program, 7));
    let expected = ReferenceExecutor::new()
        .run_interpreted(&program, &inputs)
        .unwrap();
    let clean = job(&program, &inputs);
    let jobs = vec![
        clean.clone(),
        clean.clone().with_fault(JobFault::Poison),
        clean.clone(),
        clean.clone().with_fault(JobFault::Poison),
        clean.clone(),
    ];
    let mut statuses = vec![None, None, None, None, None];
    for outcome in serve.run_batch(jobs) {
        statuses[outcome.job] = Some(outcome.result);
    }
    for (ix, slot) in statuses.into_iter().enumerate() {
        let result = slot.expect("every job settles exactly once");
        if ix % 2 == 1 {
            assert!(
                matches!(result, Err(JobError::Panicked(_))),
                "job {ix} should have panicked"
            );
        } else {
            let result = result.unwrap_or_else(|e| panic!("job {ix}: {e}"));
            assert_outputs_bitwise(&program, &result, &expected);
            serve.recycle(result);
        }
    }
}

// ---------------------------------------------------------------------
// Admission control and quotas.
// ---------------------------------------------------------------------

#[test]
fn bounded_queue_sheds_load_with_queue_full() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_queue_capacity(1),
    );
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 1));
    assert!(daemon
        .submit(DaemonRequest::new("a", "t", job(&program, &inputs)))
        .is_ok());
    let reject = daemon
        .submit(DaemonRequest::new("b", "t", job(&program, &inputs)))
        .unwrap_err();
    assert!(matches!(reject, RejectReason::QueueFull { capacity: 1 }));
    assert_eq!(reject.code(), "SF0401");
    drain_collect(&daemon);
}

#[test]
fn tenant_in_flight_cap_releases_after_completion() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_default_quota(TenantQuota::new().with_max_in_flight(1)),
    );
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 2));
    assert!(daemon
        .submit(DaemonRequest::new("j1", "t", job(&program, &inputs)))
        .is_ok());
    let reject = daemon
        .submit(DaemonRequest::new("j2", "t", job(&program, &inputs)))
        .unwrap_err();
    assert_eq!(reject.code(), "SF0402");
    // Other tenants keep flowing.
    assert!(daemon
        .submit(DaemonRequest::new("other", "u", job(&program, &inputs)))
        .is_ok());
    // Settling j1 releases the slot.
    while daemon.dispatch(|outcome| match outcome.status {
        JobStatus::Done { result, .. } => daemon.serve().recycle(result),
        other => panic!("{}: {other:?}", outcome.id),
    }) > 0
    {}
    assert!(daemon
        .submit(DaemonRequest::new("j2", "t", job(&program, &inputs)))
        .is_ok());
    drain_collect(&daemon);
}

#[test]
fn tenant_cell_budget_is_a_fixed_allowance_without_a_rate() {
    let program = Arc::new(jacobi2d(1, &[10, 10], 1));
    let inputs = Arc::new(generate_inputs(&program, 3));
    let cost = 100u64; // 10x10 cells, one step
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_tenant_quota("metered", TenantQuota::new().with_cell_budget(cost)),
    );
    assert!(daemon
        .submit(DaemonRequest::new("m1", "metered", job(&program, &inputs)))
        .is_ok());
    let reject = daemon
        .submit(DaemonRequest::new("m2", "metered", job(&program, &inputs)))
        .unwrap_err();
    match &reject {
        RejectReason::TenantBudget {
            tenant,
            needed,
            available,
        } => {
            assert_eq!(tenant, "metered");
            assert_eq!(*needed, cost);
            assert_eq!(*available, 0);
        }
        other => panic!("expected TenantBudget, got {other:?}"),
    }
    assert_eq!(reject.code(), "SF0403");
    // Unmetered tenants are untouched.
    assert!(daemon
        .submit(DaemonRequest::new("free", "open", job(&program, &inputs)))
        .is_ok());
    drain_collect(&daemon);
}

#[test]
fn oversized_jobs_are_rejected_before_any_allocation() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_max_job_cells(1000),
    );
    let big = Arc::new(jacobi2d(1, &[64, 64], 1));
    // Empty inputs: admission must reject on the program description
    // alone, before inputs are ever validated or buffers allocated.
    let inputs: Arc<BTreeMap<String, Grid>> = Arc::new(BTreeMap::new());
    let reject = daemon
        .submit(DaemonRequest::new(
            "big",
            "t",
            job(&big, &inputs).with_steps(4),
        ))
        .unwrap_err();
    match reject {
        RejectReason::Oversized { cells, limit } => {
            assert_eq!(cells, 64 * 64 * 4);
            assert_eq!(limit, 1000);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Deadlines: EDF ordering, lapsed-in-queue cancellation, mid-run
// cancellation through the token's deadline.
// ---------------------------------------------------------------------

#[test]
fn dispatch_is_earliest_deadline_first_not_fifo() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_batch_size(1),
    );
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 4));
    for (id, deadline_ms) in [("slack", 800u64), ("urgent", 100), ("middle", 400)] {
        daemon
            .submit(
                DaemonRequest::new(id, "t", job(&program, &inputs))
                    .with_soft_deadline(Duration::from_millis(deadline_ms)),
            )
            .unwrap();
    }
    let order: Mutex<Vec<String>> = Mutex::new(Vec::new());
    while daemon.dispatch(|outcome| {
        if let JobStatus::Done { result, .. } = outcome.status {
            daemon.serve().recycle(result);
        }
        order.lock().expect("sink poisoned").push(outcome.id);
    }) > 0
    {}
    assert_eq!(
        order.into_inner().expect("sink poisoned"),
        ["urgent", "middle", "slack"],
        "dispatch must follow soft deadlines, not submission order"
    );
}

#[test]
fn lapsed_hard_timeout_cancels_before_start() {
    let daemon = Daemon::new(DaemonConfig::new().with_serve(ServeConfig::new().with_workers(1)));
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 5));
    daemon
        .submit(
            DaemonRequest::new("late", "t", job(&program, &inputs))
                .with_hard_timeout(Duration::ZERO),
        )
        .unwrap();
    let (outcomes, clean) = drain_collect(&daemon);
    assert!(
        clean,
        "hard-timeout cancellation is not a drain cancellation"
    );
    match &outcomes["late"] {
        JobStatus::Cancelled(reason) => {
            assert_eq!(*reason, CancelReason::HardTimeout);
            assert_eq!(reason.code(), "SF0407");
        }
        other => panic!("expected Cancelled(HardTimeout), got {other:?}"),
    }
}

#[test]
fn watchdog_cancels_a_stalled_job_mid_run() {
    let daemon = Daemon::new(DaemonConfig::new().with_serve(ServeConfig::new().with_workers(1)));
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 6));
    // The stall holds the job past its 25 ms hard timeout; the check after
    // the stall then finds the token's deadline lapsed.
    daemon
        .submit(
            DaemonRequest::new(
                "stalled",
                "t",
                job(&program, &inputs)
                    .with_tier(Tier::Simd)
                    .with_fault(JobFault::Stall(Duration::from_millis(150))),
            )
            .with_hard_timeout(Duration::from_millis(25)),
        )
        .unwrap();
    let (outcomes, _) = drain_collect(&daemon);
    match &outcomes["stalled"] {
        JobStatus::Cancelled(CancelReason::HardTimeout) => {}
        other => panic!("expected mid-run Cancelled(HardTimeout), got {other:?}"),
    }
}

#[test]
fn drain_timeout_cancels_queued_remnants_with_drain_code() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_drain_timeout(Duration::ZERO),
    );
    let program = Arc::new(jacobi2d(1, &[8, 8], 1));
    let inputs = Arc::new(generate_inputs(&program, 8));
    daemon
        .submit(DaemonRequest::new("q1", "t", job(&program, &inputs)))
        .unwrap();
    daemon
        .submit(DaemonRequest::new("q2", "t", job(&program, &inputs)))
        .unwrap();
    let (outcomes, clean) = drain_collect(&daemon);
    assert!(!clean, "a zero drain timeout cannot drain cleanly");
    for id in ["q1", "q2"] {
        match &outcomes[id] {
            JobStatus::Cancelled(reason) => assert_eq!(reason.code(), "SF0408"),
            other => panic!("{id}: expected Cancelled(Drain), got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// The seeded chaos run: poison + over-quota + hard-timeout + mid-stream
// shutdown in one daemon lifetime, every admitted job bitwise-checked or
// structurally settled, and the daemon never aborts.
// ---------------------------------------------------------------------

#[test]
fn chaos_mix_settles_every_job_and_stays_bitwise() {
    let daemon = Daemon::new(
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(2))
            .with_batch_size(2)
            .with_max_job_cells(10_000)
            .with_tenant_quota("greedy", TenantQuota::new().with_cell_budget(1)),
    );
    let jac = Arc::new(jacobi2d(2, &[20, 16], 1));
    let jac_inputs = Arc::new(generate_inputs(&jac, 42));
    let dif = Arc::new(diffusion2d(2, &[16, 12], 1));
    let dif_inputs = Arc::new(generate_inputs(&dif, 43));
    let step = Arc::new(jacobi3d(1, &[10, 8, 6], 1));
    let step_inputs = Arc::new(generate_inputs(&step, 44));
    let reference = ReferenceExecutor::new();
    let jac_expected = reference.run_interpreted(&jac, &jac_inputs).unwrap();
    let dif_expected = reference.run_interpreted(&dif, &dif_inputs).unwrap();
    let step_expected = reference.run_steps(&step, &step_inputs, 3).unwrap();

    daemon
        .submit(DaemonRequest::new("jac-1", "acme", job(&jac, &jac_inputs)))
        .unwrap();
    daemon
        .submit(DaemonRequest::new("dif-1", "acme", job(&dif, &dif_inputs)))
        .unwrap();
    daemon
        .submit(DaemonRequest::new(
            "step-1",
            "acme",
            job(&step, &step_inputs).with_steps(3),
        ))
        .unwrap();
    daemon
        .submit(DaemonRequest::new(
            "poison-1",
            "chaos",
            job(&jac, &jac_inputs).with_fault(JobFault::Poison),
        ))
        .unwrap();
    assert_eq!(
        daemon
            .submit(DaemonRequest::new(
                "greedy-1",
                "greedy",
                job(&jac, &jac_inputs)
            ))
            .unwrap_err()
            .code(),
        "SF0403"
    );
    daemon
        .submit(
            DaemonRequest::new("late-1", "acme", job(&jac, &jac_inputs))
                .with_hard_timeout(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(
        daemon
            .submit(DaemonRequest::new("jac-1", "acme", job(&jac, &jac_inputs)))
            .unwrap_err()
            .code(),
        "SF0405"
    );

    // Mid-stream shutdown: drain, then keep (failing to) talk.
    let (mut outcomes, clean) = drain_collect(&daemon);
    assert!(clean, "nothing should be drain-cancelled");
    assert_eq!(
        daemon
            .submit(DaemonRequest::new("tail-1", "acme", job(&jac, &jac_inputs)))
            .unwrap_err()
            .code(),
        "SF0406"
    );

    assert_eq!(outcomes.len(), 5, "all five admitted jobs settled");
    for (id, program, expected) in [
        ("jac-1", &jac, &jac_expected),
        ("dif-1", &dif, &dif_expected),
        ("step-1", &step, &step_expected),
    ] {
        match outcomes.remove(id).unwrap() {
            JobStatus::Done { result, .. } => {
                assert_outputs_bitwise(program, &result, expected);
                daemon.serve().recycle(result);
            }
            other => panic!("{id}: expected Done, got {other:?}"),
        }
    }
    assert!(matches!(
        outcomes.remove("poison-1").unwrap(),
        JobStatus::Panicked(_)
    ));
    assert!(matches!(
        outcomes.remove("late-1").unwrap(),
        JobStatus::Cancelled(CancelReason::HardTimeout)
    ));

    let stats = daemon.stats();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.admitted, 5);
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.rejects_by_code["SF0403"], 1);
    assert_eq!(stats.rejects_by_code["SF0405"], 1);
    assert_eq!(stats.rejects_by_code["SF0406"], 1);
}

// ---------------------------------------------------------------------
// Tier-decision persistence: the restart golden.
// ---------------------------------------------------------------------

#[test]
fn restart_reuses_exported_tier_decisions_with_zero_remeasurements() {
    let first = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let jac = Arc::new(jacobi2d(2, &[20, 16], 1));
    let jac_inputs = Arc::new(generate_inputs(&jac, 42));
    let step = Arc::new(jacobi3d(1, &[10, 8, 6], 1));
    let step_inputs = Arc::new(generate_inputs(&step, 9));

    let single_a = first
        .run_one(job(&jac, &jac_inputs))
        .result
        .expect("first run clean");
    let stepped_a = first
        .run_one(job(&step, &step_inputs).with_steps(4))
        .result
        .expect("first stepped run clean");
    assert!(first.stats().tier_measurements > 0 || first.tier_choices().len() == 2);
    let exported = first.export_tier_decisions();

    // A "restarted" executor: fresh caches, the persisted decisions.
    let second = ServeExecutor::new(ServeConfig::new().with_workers(2));
    let load = second
        .import_tier_decisions(&exported)
        .expect("cache loads");
    assert!(!load.stale);
    assert_eq!(load.loaded, first.tier_choices().len());

    let single_b = second
        .run_one(job(&jac, &jac_inputs))
        .result
        .expect("restart run clean");
    let stepped_b = second
        .run_one(job(&step, &step_inputs).with_steps(4))
        .result
        .expect("restart stepped run clean");
    assert_eq!(
        second.stats().tier_measurements,
        0,
        "a restart with a warm tier cache re-measures nothing"
    );
    assert_outputs_bitwise(&jac, &single_b, &single_a);
    assert_outputs_bitwise(&step, &stepped_b, &stepped_a);
    // The reloaded decisions are the exported ones, verbatim.
    let choices = |serve: &ServeExecutor| {
        let mut v: Vec<(String, bool, Tier)> = serve
            .tier_choices()
            .into_iter()
            .map(|c| (c.fingerprint, c.stepped, c.tier))
            .collect();
        v.sort();
        v
    };
    assert_eq!(choices(&first), choices(&second));
    for result in [single_a, stepped_a] {
        first.recycle(result);
    }
    for result in [single_b, stepped_b] {
        second.recycle(result);
    }
}

#[test]
fn stale_salt_discards_persisted_decisions() {
    let first = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let program = Arc::new(jacobi2d(1, &[12, 10], 1));
    let inputs = Arc::new(generate_inputs(&program, 13));
    first.recycle(first.run_one(job(&program, &inputs)).result.unwrap());
    let exported = first.export_tier_decisions();

    // Flip the salt: decisions from "another build" must not be trusted.
    let mut doc = stencilflow_json::parse(&exported).unwrap();
    if let Json::Object(fields) = &mut doc {
        for (key, value) in fields.iter_mut() {
            if key == "salt" {
                *value = Json::String("some-other-build".to_string());
            }
        }
    }
    let second = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let load = second
        .import_tier_decisions(&doc.to_string_compact())
        .expect("a stale cache is not an error");
    assert!(load.stale);
    assert_eq!(load.loaded, 0);
    assert!(second.tier_choices().is_empty());
}

#[test]
fn malformed_tier_caches_error_without_polluting_the_executor() {
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    assert!(serve.import_tier_decisions("not json at all").is_err());
    assert!(serve.import_tier_decisions("[1, 2, 3]").is_err());
    assert!(serve
        .import_tier_decisions(r#"{"format":"something-else","salt":"x","decisions":[]}"#)
        .is_err());
    assert!(serve.tier_choices().is_empty());
}
