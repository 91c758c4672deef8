//! Multi-device mapping (§III-B): partition a long stencil chain over
//! several FPGAs, inspect the replicated inputs and remote streams, and
//! verify that the distributed design computes the same result as the
//! single-device one, bit for bit.
//!
//! Run with: `cargo run --release --example multi_device`

use stencilflow::core::{AnalysisConfig, MultiDevicePlan, PartitionConfig};
use stencilflow::reference::generate_inputs;
use stencilflow::sim::{SimConfig, SimReport, Simulator};
use stencilflow::workloads::{chain_program, ChainSpec};

fn main() {
    // A 12-stage chain on a reduced domain, analogous to the paper's
    // iterative-stencil scaling experiments.
    let spec = ChainSpec::new(12, 8).with_shape(&[32, 16, 16]);
    let program = chain_program(&spec);
    let analysis_config = AnalysisConfig::paper_defaults();
    let inputs = generate_inputs(&program, 3);

    // Single-device baseline.
    let single = Simulator::build(&program, &analysis_config, &SimConfig::default())
        .expect("single-device design builds")
        .run(&inputs)
        .expect("single-device design runs");

    // Partition over 4 devices.
    let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(4))
        .expect("partitioning succeeds");
    println!(
        "partitioned {} stencils over {} devices:",
        program.stencil_count(),
        plan.device_count()
    );
    for device in &plan.devices {
        println!(
            "  device {}: {:?}, local inputs {:?}, {} remote in, {} remote out",
            device.index,
            device.stencils,
            device.local_inputs,
            device.remote_inputs.len(),
            device.remote_outputs.len()
        );
    }
    println!("replicated inputs: {:?}", plan.replicated_inputs);
    println!(
        "peak boundary traffic: {:.1} words/cycle, network feasible: {}",
        plan.peak_link_words_per_cycle,
        plan.network_feasible()
    );

    // Simulate the distributed design (remote streams get network latency
    // and bandwidth limits) and compare.
    let multi =
        Simulator::build_multi_device(&program, &analysis_config, &plan, &SimConfig::default())
            .expect("multi-device design builds")
            .run(&inputs)
            .expect("multi-device design runs");
    for name in program.outputs() {
        let bits = |report: &SimReport| -> Vec<u64> {
            let grid = report.output(name).expect("simulated output");
            grid.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            bits(&single),
            bits(&multi),
            "output `{name}` differs between one and {} devices",
            plan.device_count()
        );
    }
    println!(
        "single device: {} cycles; {} devices: {} cycles; outputs identical in bits",
        single.cycles,
        plan.device_count(),
        multi.cycles
    );
}
