//! Property-based cross-crate invariants: for randomly generated stencil
//! DAGs, the buffering analysis is structurally sound and the simulated
//! spatial execution matches the sequential reference executor.

use proptest::prelude::*;
use stencilflow::core::{analyze, AnalysisConfig, DelayBufferAnalysis};
use stencilflow::program::{StencilDag, StencilProgram, StencilProgramBuilder};
use stencilflow::reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow::sim::{SimConfig, SimOutcome, Simulator};
use stencilflow_expr::DataType;

/// A randomly generated small stencil DAG over a 2D domain: each stage reads
/// one or two previous fields at small offsets and applies simple arithmetic.
fn arb_program() -> impl Strategy<Value = StencilProgram> {
    let stage = (0usize..3, -1i64..2, -1i64..2, 0usize..3, any::<bool>());
    proptest::collection::vec(stage, 1..6).prop_map(|stages| {
        let mut builder = StencilProgramBuilder::new("random", &[10, 12]).input(
            "src",
            DataType::Float32,
            &["i", "j"],
        );
        let mut produced = vec!["src".to_string()];
        for (index, (pick_a, di, dj, pick_b, use_second)) in stages.iter().enumerate() {
            let name = format!("s{index}");
            let a = produced[pick_a % produced.len()].clone();
            let b = produced[pick_b % produced.len()].clone();
            let access = |field: &str, di: i64, dj: i64| {
                let fi = if di == 0 {
                    "i".to_string()
                } else if di > 0 {
                    format!("i+{di}")
                } else {
                    format!("i{di}")
                };
                let fj = if dj == 0 {
                    "j".to_string()
                } else if dj > 0 {
                    format!("j+{dj}")
                } else {
                    format!("j{dj}")
                };
                format!("{field}[{fi},{fj}]")
            };
            let code = if *use_second {
                format!(
                    "0.5 * ({} + {}) + 0.125 * {}",
                    access(&a, *di, *dj),
                    access(&a, -di, -dj),
                    access(&b, 0, 0)
                )
            } else {
                format!("{} * 0.75 + 1.0", access(&a, *di, *dj))
            };
            builder = builder.stencil(&name, &code).shrink(&name);
            produced.push(name);
        }
        let last = produced.last().unwrap().clone();
        builder
            .output(&last)
            .build()
            .expect("generated programs are valid")
    })
}

/// Every consumer of the delay-buffer analysis has at least one zero-delay
/// incoming edge: the slowest path into a node needs no buffer.
fn check_invariants(delay: &DelayBufferAnalysis, dag: &StencilDag) -> Result<(), String> {
    for node in dag.nodes() {
        let incoming: Vec<_> = (delay.channels().iter())
            .filter(|c| c.to == node.id)
            .collect();
        if !incoming.is_empty() && !incoming.iter().any(|c| c.delay_words == 0) {
            return Err(format!(
                "node `{}` has no zero-delay incoming edge",
                node.name
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The delay-buffer analysis always leaves at least one zero-delay edge
    /// per node and reports a pipeline latency no smaller than the delay
    /// accumulated on any edge.
    #[test]
    fn delay_analysis_invariants(program in arb_program()) {
        let config = AnalysisConfig::paper_defaults();
        let analysis = analyze(&program, &config).unwrap();
        let dag = program.dag();
        check_invariants(&analysis.delay, dag).unwrap();
        for channel in analysis.delay.channels() {
            prop_assert!(analysis.delay.pipeline_latency() >= channel.edge_delay);
        }
        // Eq. 1 consistency.
        let perf = &analysis.performance;
        prop_assert_eq!(perf.expected_cycles, perf.pipeline_latency + perf.iterations);
    }

    /// The spatial simulator completes (deadlock freedom with the computed
    /// buffers) and matches the sequential reference executor.
    #[test]
    fn simulator_matches_reference(program in arb_program()) {
        let config = AnalysisConfig::paper_defaults();
        let inputs = generate_inputs(&program, 123);
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let report = Simulator::build(&program, &config, &SimConfig::default())
            .unwrap()
            .run(&inputs)
            .unwrap();
        prop_assert_eq!(report.outcome, SimOutcome::Completed);
        // The simulated values are the executor's, bit for bit.
        let bits = |grid: &Grid| grid.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for output in program.outputs() {
            let simulated = bits(report.output(output).unwrap());
            prop_assert!(
                simulated == bits(reference.field(output).unwrap()),
                "output {} diverges",
                output
            );
        }
        // The pipeline is never slower than twice the analytical expectation
        // (and never faster than the iteration count).
        let analysis = analyze(&program, &config).unwrap();
        prop_assert!(report.cycles as f64 >= analysis.performance.iterations as f64 * 0.99);
        prop_assert!(report.cycles <= 3 * analysis.performance.expected_cycles + 1_000);
    }

    /// Fusion never changes program outputs.
    #[test]
    fn fusion_preserves_outputs(program in arb_program()) {
        let fused = stencilflow::dataflow::fuse_all(&program).unwrap();
        prop_assert!(fused.stencil_count() <= program.stencil_count());
        let inputs = generate_inputs(&program, 7);
        let before = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let after = ReferenceExecutor::new().run(&fused, &inputs).unwrap();
        for output in program.outputs() {
            let a = before.field(output).unwrap();
            let b = after.field(output).unwrap();
            prop_assert!(a.approx_eq(b, 1e-4));
        }
    }
}
