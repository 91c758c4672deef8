//! Mapping cost grows linearly with the number of stencils.
//!
//! A test binary of its own on purpose: cargo runs test binaries one after
//! another, so no sibling test competes for the core while this one times.

use std::time::Instant;

use stencilflow::codegen::generate_kernels;
use stencilflow::core::{AnalysisConfig, HardwareMapping};
use stencilflow::dataflow::fuse_all;
use stencilflow::program::{from_json, to_json};
use stencilflow::workloads::{chain_program, ChainSpec};

/// The two calls that were quadratic in the number of stencils, timed on a
/// 512- and a 2048-stage chain: five interleaved rounds, median of each.
/// Four times the stencils must cost less than eight times the time (linear
/// is 4, quadratic 16); a ratio does not depend on how fast the host is.
///
/// One sample of the small chain is four runs back to back, so it lasts
/// about as long as one run of the large chain: on a busy core the scheduler
/// then takes the same share from both, instead of preempting only the runs
/// that outlast a time slice.
///
/// Each run gets a program parsed afresh, outside the timed region, and
/// both calls time that one program. A stencil keeps the kernel it compiled,
/// so a second code generation on one program would skip the compiles the
/// guard is there to time. And a sample of the small chain then touches four
/// programs as the large one touches one: both sizes run on the same amount
/// of just-written memory, instead of the small chain's last three runs
/// finding its one program in the cache.
#[test]
fn fusion_and_codegen_cost_grows_linearly_with_the_dag() {
    const GROWTH: usize = 4;
    let config = AnalysisConfig::paper_defaults();
    let chains = [(512, GROWTH), (512 * GROWTH, 1)].map(|(stages, runs)| {
        let program = chain_program(&ChainSpec::new(stages, 8));
        let mapping = HardwareMapping::build(&program, &config).unwrap();
        (to_json(&program), mapping, runs)
    });
    let mut fuse_us = [Vec::new(), Vec::new()];
    let mut codegen_us = [Vec::new(), Vec::new()];
    // Results stay alive to the end: freeing a large program between two
    // timings would bill the allocator's clean-up to whichever comes next.
    let mut parsed = Vec::new();
    let mut fused = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..5 {
        for (size, (text, mapping, runs)) in chains.iter().enumerate() {
            let programs: Vec<_> = (0..*runs).map(|_| from_json(text).unwrap()).collect();
            let start = Instant::now();
            fused.extend(programs.iter().map(|p| fuse_all(p).unwrap()));
            fuse_us[size].push(start.elapsed().as_secs_f64() * 1e6 / *runs as f64);
            let start = Instant::now();
            kernels.extend(programs.iter().map(|p| generate_kernels(p, mapping)));
            codegen_us[size].push(start.elapsed().as_secs_f64() * 1e6 / *runs as f64);
            let stages = programs[0].stencil_count();
            parsed.extend(programs);
            assert_eq!(fused.last().unwrap().stencil_count(), stages);
            assert!(kernels.last().unwrap().len() > 500 * stages);
        }
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    for (what, [small, large]) in [
        ("fuse_all", &mut fuse_us),
        ("generate_kernels", &mut codegen_us),
    ] {
        let (small, large) = (median(small), median(large));
        assert!(
            large < 8.0 * small,
            "{what}: {large:.0} us at 2048 stages against {small:.0} us at 512"
        );
    }
}
