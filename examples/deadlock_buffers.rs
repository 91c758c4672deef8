//! Delay buffers and deadlock freedom (§III-A / §IV-B, Fig. 4 and Fig. 8):
//! shows the per-edge FIFO depths StencilFlow computes for a fork/join
//! program, and demonstrates that the design deadlocks when those buffers
//! are removed.
//!
//! Run with: `cargo run --example deadlock_buffers`

use stencilflow::core::{analyze, AnalysisConfig};
use stencilflow::reference::generate_inputs;
use stencilflow::sim::{SimConfig, SimOutcome, Simulator};
use stencilflow::workloads::listing1::listing1_with_shape;

fn main() {
    let program = listing1_with_shape(&[8, 8, 8]);
    let config = AnalysisConfig::paper_defaults();
    let analysis = analyze(&program, &config).expect("analysis succeeds");

    println!("delay buffers computed for the Lst. 1 fork/join program:");
    let dag = program.dag();
    for channel in analysis.delay.channels() {
        println!(
            "  {:<10} -> {:<10}  delay {:>6} words  (FIFO depth {:>6})",
            dag.name(channel.from),
            dag.name(channel.to),
            channel.delay_words,
            channel.depth_words
        );
    }
    println!(
        "pipeline latency L = {} cycles, iterations N = {}",
        analysis.performance.pipeline_latency, analysis.performance.iterations
    );

    let inputs = generate_inputs(&program, 1);
    let buffered = Simulator::build(&program, &config, &SimConfig::default())
        .unwrap()
        .run(&inputs)
        .unwrap();
    let starved = Simulator::build(&program, &config, &SimConfig::with_minimal_channels())
        .unwrap()
        .run(&inputs)
        .unwrap();
    println!(
        "with computed buffers: {:?} after {} cycles",
        buffered.outcome, buffered.cycles
    );
    println!(
        "with unit-depth channels: {:?} (Fig. 4's circular wait)",
        starved.outcome
    );
    assert_eq!(buffered.outcome, SimOutcome::Completed);
    assert_eq!(starved.outcome, SimOutcome::Deadlocked);
}
