//! The COSMO horizontal-diffusion application study (§IX): build the full
//! stencil DAG, fuse it aggressively, analyze its buffering and arithmetic
//! intensity, map it, and run a reduced-domain functional simulation
//! validated against the reference executor.
//!
//! Run with: `cargo run --release --example horizontal_diffusion`

use stencilflow::core::{analyze, AnalysisConfig, HardwareMapping};
use stencilflow::dataflow::transforms::fuse_all_with_report;
use stencilflow::hwmodel::{estimate_resources, BandwidthModel, Device, Roofline};
use stencilflow::workloads::{horizontal_diffusion, HorizontalDiffusionSpec};
use stencilflow::Pipeline;

fn main() {
    // Production-size program for the analysis (128 x 128 x 80, W = 8).
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::production(8));
    let ops = program.ops_per_cell();
    println!(
        "horizontal diffusion: {} stencils, {} inputs, {} outputs",
        program.stencil_count(),
        program.inputs().count(),
        program.outputs().len()
    );
    println!(
        "operations per point: {} add, {} mul, {} sqrt, {} min, {} max, {} branches",
        ops.additions,
        ops.multiplications,
        ops.square_roots,
        ops.minimums,
        ops.maximums,
        ops.branches
    );
    println!(
        "arithmetic intensity: {:.3} Op/B (paper Eq. 2: 65/18 = {:.3})",
        program.arithmetic_intensity(),
        65.0 / 18.0
    );

    // Aggressive stencil fusion (§V-B).
    let fusion = fuse_all_with_report(&program).expect("fusion succeeds");
    println!(
        "fusion: {} -> {} stencils ({} pairs fused)",
        program.stencil_count(),
        fusion.program.stencil_count(),
        fusion.fused.len()
    );

    // Buffering analysis and hardware mapping of the fused program.
    let config = AnalysisConfig::paper_defaults().with_vectorization(8);
    let analysis = analyze(&fusion.program, &config).expect("analysis succeeds");
    let mapping = HardwareMapping::build(&fusion.program, &config).expect("mapping succeeds");
    let device = Device::stratix10_gx2800();
    let resources = estimate_resources(&mapping);
    let (alm, _, m20k, dsp) = resources.utilization(&device);
    println!(
        "mapping: {} Op/cycle, {} operands/cycle from DRAM, {:.1} MB on-chip buffers",
        mapping.ops_per_cycle(),
        mapping.memory_operands_per_cycle(),
        (analysis.total_buffer_elements() * 4) as f64 / 1e6
    );
    println!(
        "estimated utilization: {:.0}% ALM, {:.0}% M20K, {:.0}% DSP",
        alm * 100.0,
        m20k * 100.0,
        dsp * 100.0
    );

    // Roofline bound (Eq. 3).
    let bw = BandwidthModel::stratix10().effective_bytes_per_s(
        mapping.memory_access_points(),
        mapping.vector_width,
        300e6,
    );
    let bound = Roofline::new(bw, f64::INFINITY).attainable_gops(program.arithmetic_intensity());
    println!(
        "roofline bound at {:.1} GB/s: {:.1} GOp/s (paper: 210.5 at 58.3 GB/s)",
        bw / 1e9,
        bound
    );

    // Functional validation on a reduced domain (the production domain would
    // take a while in a cycle-level software simulator).
    let small = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let result = Pipeline::new(small).execute(7).expect("pipeline runs");
    println!(
        "reduced-domain simulation: {:?} in {} cycles, max error vs. reference {:.2e}",
        result.simulation.outcome, result.simulation.cycles, result.max_error_vs_reference
    );
}
