//! A simulation costs about what computing its outputs costs.
//!
//! A test binary of its own on purpose: cargo runs test binaries one after
//! another, so no sibling test competes for the core while this one times.

use std::time::Instant;

use stencilflow::core::AnalysisConfig;
use stencilflow::dataflow::fuse_all;
use stencilflow::reference::{generate_inputs, jit_cache_stats, ReferenceExecutor, RunSpec, Tier};
use stencilflow::sim::{SimConfig, Simulator};
use stencilflow::workloads::{chain_program, ChainSpec};

/// `Simulator::run` on the `sim-pipeline` chain (32 stages on 64×16×16,
/// after `fuse_all`, as `Pipeline` simulates it) against an `execute` of
/// the same prepared program at the `Tier::Fused` ceiling, best of five
/// interleaved runs each. A simulation takes its outputs from a fused sweep
/// until its program's fused sweeps have cost one native build, and five
/// runs (about 14 ms of sweeps) stay well under it — no JIT module is asked
/// for, which the engine's counters confirm — so the two are like for
/// like. The simulation must cost at most twice the sweep: the timing loop
/// may cost as much as the values, not more. Stepping all 16 448 cycles
/// made it about three times; jumping the linear stretches takes it to
/// about 1.1. A ratio does not depend on how fast the host is.
#[test]
fn simulating_costs_at_most_twice_the_sweep_it_takes_its_outputs_from() {
    let program = chain_program(&ChainSpec::new(32, 8).with_shape(&[64, 16, 16]));
    let program = fuse_all(&program).unwrap();
    let inputs = generate_inputs(&program, 1);
    let simulator = Simulator::build(
        &program,
        &AnalysisConfig::paper_defaults(),
        &SimConfig::default(),
    )
    .unwrap();
    let executor = ReferenceExecutor::new();
    let compiled = executor.prepare(&program).unwrap();
    let spec = RunSpec {
        steps: None,
        tier: Tier::Fused,
    };
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        let start = Instant::now();
        let report = simulator.run(&inputs).unwrap();
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        assert!(report.completed());
        let start = Instant::now();
        let (result, tier) = executor.execute(&compiled, &inputs, &spec).unwrap();
        best[1] = best[1].min(start.elapsed().as_secs_f64());
        assert_eq!(tier, Tier::Fused);
        std::hint::black_box(result);
    }
    if let Some(stats) = jit_cache_stats() {
        let requested = (stats.hits, stats.misses);
        assert_eq!(requested, (0, 0), "the simulation stayed on the fused rung");
    }
    let [simulate, sweep] = best.map(|s| s * 1e3);
    assert!(
        simulate <= 2.0 * sweep,
        "Simulator::run {simulate:.3} ms against execute {sweep:.3} ms"
    );
}
