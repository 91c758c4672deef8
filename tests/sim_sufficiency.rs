//! The delay-buffer analysis (§IV-B) is sufficient: every design the
//! simulator builds from it — one device, or a chain of SMI-linked devices
//! (§III-B) — streams to completion, with no capacity beyond what the
//! analysis and the partition plan give each channel.
//!
//! The designs are the execution suite, horizontal diffusion at 16³ and
//! 64 random DAGs, each unfused and after `fuse_all`, each on 1, 2 and 4
//! devices (capped at the stencil count, as the benchmark's partitioner
//! does). [`CYCLES_DIGEST`] pins every design's cycle count: it was taken
//! on a simulator that gave every FIFO 1 024 words beyond the analysed
//! depth, so a change that sizes a channel too small for full rate moves it.

use stencilflow::core::DelayBufferAnalysis;
use stencilflow::core::{AnalysisConfig, MultiDevicePlan, PartitionConfig};
use stencilflow::dataflow::fuse_all;
use stencilflow::reference::generate_inputs;
use stencilflow::sim::{SimConfig, Simulator};
use stencilflow::workloads as wl;
use stencilflow::StencilProgram;

/// FNV-1a of one `design devices cycles` line per design, in test order.
const CYCLES_DIGEST: u64 = 0x7fb2_12dc_018a_a515;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn programs() -> Vec<(String, StencilProgram)> {
    let suite = wl::execution_suite().into_iter().enumerate();
    let suite = suite.map(|(ix, program)| (format!("suite{ix}:{}", program.name()), program));
    let hdiff = wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec {
        shape: [16, 16, 16],
        vectorization: 1,
    });
    let random = (0..64).map(|seed| (format!("random{seed}"), wl::random_dag(seed)));
    suite
        .chain([("hdiff16".to_string(), hdiff)])
        .chain(random)
        .collect()
}

#[test]
fn every_analysed_design_completes_at_its_parent_cycle_count() {
    let analysis = AnalysisConfig::paper_defaults();
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut designs = 0;
    for (name, program) in programs() {
        let fused = fuse_all(&program).unwrap();
        for (form, program) in [("unfused", &program), ("fused", &fused)] {
            let inputs = generate_inputs(program, 1);
            for devices in [1, 2, 4] {
                let devices = devices.min(program.stencil_count()).max(1);
                let simulator = if devices == 1 {
                    Simulator::build(program, &analysis, &SimConfig::default())
                } else {
                    let plan =
                        MultiDevicePlan::partition(program, &PartitionConfig::devices(devices))
                            .unwrap();
                    Simulator::build_multi_device(program, &analysis, &plan, &SimConfig::default())
                };
                let report = simulator.unwrap().run(&inputs).unwrap();
                let line = format!("{name}/{form} {devices} {}\n", report.cycles);
                assert!(report.completed(), "{line}: {:?}", report.outcome);
                fnv1a(&mut digest, line.as_bytes());
                designs += 1;
            }
        }
    }
    assert_eq!(designs, 450);
    println!("cycles digest: {digest:#018x}");
    assert_eq!(digest, CYCLES_DIGEST);
}

/// Each channel of a two-device listing 1 holds what the analysis sized it
/// to and nothing more: the analysed depth, plus the producer's compute
/// latency (a simulated unit emits in the cycle it fires, a hardware one
/// holds those words in its pipeline), plus the link latency for a remote
/// stream.
#[test]
fn channel_capacity_is_the_analysed_depth_plus_the_latencies() {
    let analysis = AnalysisConfig::paper_defaults();
    let program = wl::listing1();
    let plan = MultiDevicePlan::partition(&program, &PartitionConfig::devices(2)).unwrap();
    assert!(!plan.remote_channels.is_empty());
    assert!(program
        .stencils()
        .all(|s| s.compute_latency(&analysis.latencies) > 0));
    let internal = &stencilflow::analyze(&program, &analysis).unwrap().internal;
    let delay = DelayBufferAnalysis::compute(&program, internal, &analysis, Some(&plan)).unwrap();
    let simulator =
        Simulator::build_multi_device(&program, &analysis, &plan, &SimConfig::default()).unwrap();
    let report = simulator.run(&generate_inputs(&program, 1)).unwrap();
    assert!(report.completed());
    assert_eq!(report.channel_stats.len(), delay.channels().len());
    let dag = program.dag();
    for (stats, channel) in report.channel_stats.iter().zip(delay.channels()) {
        let (from, to) = (dag.name(channel.from), dag.name(channel.to));
        assert_eq!(stats.name, format!("{from}->{to}"));
        let latency = program
            .stencil(from)
            .map_or(0, |s| s.compute_latency(&analysis.latencies));
        let remote = plan
            .remote_channels
            .iter()
            .any(|r| r.from_stencil == from && r.to_stencil == to);
        let link = if remote {
            plan.config.link_latency_cycles
        } else {
            0
        };
        let expected = channel.depth_words + latency + link;
        assert_eq!(stats.capacity as u64, expected, "{}", stats.name);
    }
}
