//! Pinned timing goldens of the cycle-level simulator: the seven programs of
//! the `sim-pipeline` benchmark workload (after `fuse_all`, as `Pipeline`
//! simulates them) under four configurations.
//!
//! Every number in [`GOLDEN`] was printed by the binary of commit `0a6b846`
//! (the value-carrying cycle loop) **before** the simulator became a token
//! timing loop whose outputs are the reference executor's fused sweep: a
//! change to how the simulator runs must leave every simulated statistic
//! and every output bit where it was. (No field of these programs is read
//! by a stencil of another element type, so the old loop's rounding of
//! every tap through the consuming unit's type agreed with the executor
//! here.) The single-device cycles sum to 72 384 and the 4-device ones to
//! 74 384 — the benchmark's `sim.cycles` (146 768) and
//! `sim.multi_device_cycles`.
//!
//! One exception: the `membw1.5` rows' two stall sums and largest
//! watermark were re-taken when channels lost the 1 024 words of slack they
//! carried beyond the analysed depth. Under a memory budget the slack let
//! readers run far ahead; at the analysed capacity they stall on full
//! channels instead. Every outcome, cycle count and output hash stayed.

use stencilflow::core::{AnalysisConfig, MultiDevicePlan, PartitionConfig};
use stencilflow::dataflow::fuse_all;
use stencilflow::reference::generate_inputs;
use stencilflow::sim::SimOutcome::{self, Completed, Deadlocked};
use stencilflow::sim::{SimConfig, SimReport, Simulator};
use stencilflow::workloads as wl;
use stencilflow::StencilProgram;

/// `sut::sim_set()` of the benchmark, in its order.
fn programs() -> Vec<(&'static str, StencilProgram)> {
    vec![
        (
            "hdiff16",
            wl::horizontal_diffusion(&wl::HorizontalDiffusionSpec {
                shape: [16, 16, 16],
                vectorization: 1,
            }),
        ),
        (
            "chain32",
            wl::chain_program(&wl::ChainSpec::new(32, 8).with_shape(&[64, 16, 16])),
        ),
        ("listing1", wl::listing1()),
        ("diffusion3d", wl::diffusion3d(1, &[16, 16, 16], 1)),
        ("jacobi3d-x2", wl::jacobi3d(2, &[16, 16, 16], 1)),
        ("upwind3d", wl::upwind3d(1, &[16, 16, 16], 1)),
        ("diffusion2d-x2", wl::diffusion2d(2, &[32, 32], 1)),
    ]
}

/// Program, configuration, outcome, cycles, sum of `input_stalls`, sum of
/// `output_stalls`, largest `high_watermark`, FNV-1a of the output bits (the
/// offset basis when a run that did not complete has no outputs).
type Row = (
    &'static str,
    &'static str,
    SimOutcome,
    u64,
    u64,
    u64,
    usize,
    u64,
);

#[rustfmt::skip]
const GOLDEN: [Row; 28] = [
    ("hdiff16", "single", Completed, 5632, 16_896, 0, 1537, 0xdd52_da58_e00a_96cf),
    ("hdiff16", "multi4", Completed, 6232, 23_896, 0, 2137, 0xdd52_da58_e00a_96cf),
    ("hdiff16", "membw1.5", Completed, 36_864, 637_341, 364_547, 1409, 0xdd52_da58_e00a_96cf),
    ("hdiff16", "minimal", Deadlocked, 501, 12_040, 5000, 1, 0xcbf2_9ce4_8422_2325),
    ("chain32", "single", Completed, 16_448, 1056, 0, 1, 0xd60e_f6bc_bd42_9813),
    ("chain32", "multi4", Completed, 17_048, 11_256, 0, 201, 0xd60e_f6bc_bd42_9813),
    ("chain32", "membw1.5", Completed, 32_768, 17_376, 502_090, 66, 0xd60e_f6bc_bd42_9813),
    ("chain32", "minimal", Completed, 16_448, 1056, 0, 1, 0xd60e_f6bc_bd42_9813),
    ("listing1", "single", Completed, 34_816, 2048, 0, 2049, 0xdcaf_f7a7_c491_1bc2),
    ("listing1", "multi4", Completed, 35_216, 3048, 0, 2449, 0xdcaf_f7a7_c491_1bc2),
    ("listing1", "membw1.5", Completed, 98_304, 71_915, 374_101, 2087, 0xdcaf_f7a7_c491_1bc2),
    ("listing1", "minimal", Deadlocked, 503, 1508, 2004, 1, 0xcbf2_9ce4_8422_2325),
    ("diffusion3d", "single", Completed, 4608, 512, 0, 1, 0xbfc2_ac63_9169_01fc),
    ("diffusion3d", "multi4", Completed, 4608, 512, 0, 1, 0xbfc2_ac63_9169_01fc),
    ("diffusion3d", "membw1.5", Completed, 8192, 4096, 7013, 70, 0xbfc2_ac63_9169_01fc),
    ("diffusion3d", "minimal", Completed, 4608, 512, 0, 1, 0xbfc2_ac63_9169_01fc),
    ("jacobi3d-x2", "single", Completed, 5120, 1536, 0, 1, 0x343c_5177_6c67_6ada),
    ("jacobi3d-x2", "multi4", Completed, 5320, 1936, 0, 201, 0x343c_5177_6c67_6ada),
    ("jacobi3d-x2", "membw1.5", Completed, 8192, 4608, 8852, 70, 0x343c_5177_6c67_6ada),
    ("jacobi3d-x2", "minimal", Completed, 5120, 1536, 0, 1, 0x343c_5177_6c67_6ada),
    ("upwind3d", "single", Completed, 4608, 512, 0, 513, 0xcb44_5333_5ba8_a52a),
    ("upwind3d", "multi4", Completed, 4608, 512, 0, 513, 0xcb44_5333_5ba8_a52a),
    ("upwind3d", "membw1.5", Completed, 12_288, 8775, 22_772, 529, 0xcb44_5333_5ba8_a52a),
    ("upwind3d", "minimal", Completed, 4608, 512, 512, 1, 0xcb44_5333_5ba8_a52a),
    ("diffusion2d-x2", "single", Completed, 1152, 192, 0, 1, 0xca4f_bf9d_b871_8bed),
    ("diffusion2d-x2", "multi4", Completed, 1352, 592, 0, 201, 0xca4f_bf9d_b871_8bed),
    ("diffusion2d-x2", "membw1.5", Completed, 2048, 1088, 2403, 54, 0xca4f_bf9d_b871_8bed),
    ("diffusion2d-x2", "minimal", Completed, 1152, 192, 0, 1, 0xca4f_bf9d_b871_8bed),
];

/// FNV-1a over the little-endian bits of every output grid, in name order.
fn output_hash(report: &SimReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for grid in report.outputs.values() {
        for value in grid.as_slice() {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn sim_pipeline_programs_keep_their_parent_commit_timing_and_bits() {
    let analysis = AnalysisConfig::paper_defaults();
    let mut measured = Vec::new();
    for (ix, (name, program)) in programs().into_iter().enumerate() {
        let fused = fuse_all(&program).unwrap();
        let inputs = generate_inputs(&fused, 1 + ix as u64);
        let devices = PartitionConfig::devices(fused.stencil_count().min(4));
        let plan = MultiDevicePlan::partition(&fused, &devices).unwrap();
        let minimal = SimConfig {
            deadlock_window: 500,
            ..SimConfig::with_minimal_channels()
        };
        let build = |config: &SimConfig| Simulator::build(&fused, &analysis, config).unwrap();
        let designs = [
            ("single", build(&SimConfig::default())),
            (
                "multi4",
                Simulator::build_multi_device(&fused, &analysis, &plan, &SimConfig::default())
                    .unwrap(),
            ),
            (
                "membw1.5",
                build(&SimConfig {
                    memory_words_per_cycle: Some(1.5),
                    ..SimConfig::default()
                }),
            ),
            ("minimal", build(&minimal)),
        ];
        for (config, design) in designs {
            let report = design.run(&inputs).unwrap();
            let row: Row = (
                name,
                config,
                report.outcome,
                report.cycles,
                report.unit_stats.iter().map(|u| u.input_stalls).sum(),
                report.unit_stats.iter().map(|u| u.output_stalls).sum(),
                report
                    .channel_stats
                    .iter()
                    .map(|c| c.high_watermark)
                    .max()
                    .unwrap_or(0),
                output_hash(&report),
            );
            measured.push(row);
        }
    }
    for (measured, golden) in measured.iter().zip(&GOLDEN) {
        assert_eq!(measured, golden);
    }
    assert_eq!(measured.len(), GOLDEN.len());
    let cycles = |config: &str| -> u64 {
        GOLDEN
            .iter()
            .filter(|row| row.1 == config)
            .map(|row| row.3)
            .sum()
    };
    assert_eq!((cycles("single"), cycles("multi4")), (72_384, 74_384));
}
