//! Benchmark harnesses: the paper's tables and figures, and the CI speed
//! floors. Every measurement question has one home:
//!
//! * **Paper artifacts** (Fig. 4, Fig. 14–16, Tab. I–II): the `report`
//!   binary prints them all, computed here from the analytical models and
//!   the simulator in the shape the paper reports them.
//! * **Tier speed floors**: `bench_eval` measures the evaluation
//!   throughput ([`eval_throughput`], [`sharded_throughput`]) and
//!   `bench_eval --check-floors` gates its ratios ([`check_floors`]); the
//!   service layer has `bench_serve` ([`serve`]).
//! * **End-to-end numbers**: the frozen `benchmark/` workspace, not this
//!   crate.

#![forbid(unsafe_code)]

pub mod serve;

pub use serve::{check_serve_floors, format_serve, run_serve_bench, serve_json, ServeBenchReport};

use stencilflow_core::{AnalysisConfig, HardwareMapping};
use stencilflow_hwmodel::{
    comparator_estimate, estimate_resources, silicon_efficiency, BandwidthModel, Device,
    FrequencyModel, Roofline,
};
use stencilflow_program::StencilProgram;
use stencilflow_reference::Tier;
use stencilflow_workloads::{
    chain_program, diffusion2d, diffusion3d, horizontal_diffusion, jacobi3d, listing1, upwind3d,
    ChainSpec, HorizontalDiffusionSpec, MembenchSpec,
};

/// Efficiency factor of multi-device designs relative to single-device peak,
/// calibrated on Fig. 14/15 (network/shell logic reduces the per-device fill
/// to roughly 73 % of the single-device maximum).
pub(crate) const MULTI_DEVICE_EFFICIENCY: f64 = 0.73;

/// One point of the Fig. 14 / Fig. 15 scaling series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Floating-point operations instantiated per cycle.
    pub ops_per_cycle: u64,
    /// Number of FPGAs the design spans.
    pub devices: usize,
    /// Modelled sustained performance in GOp/s.
    pub gops: f64,
    /// Performance upper bound from Eq. 1 at the modelled frequency.
    pub upper_bound_gops: f64,
}

/// Compute the scaling series of Fig. 14 (`vectorization = 1`,
/// 8 Op/stencil) or Fig. 15 (`vectorization = 4`, 24 Op/stencil).
pub fn scaling_series(
    vectorization: usize,
    ops_per_stencil: usize,
    quick: bool,
) -> Vec<ScalingPoint> {
    let device = Device::stratix10_gx2800();
    let frequency_model = FrequencyModel::default();
    let config = AnalysisConfig::paper_defaults().with_vectorization(vectorization);
    // Domain of the paper's sweep; a shorter domain in quick mode keeps the
    // harness fast without changing the shape (L << N either way).
    let shape: Vec<usize> = if quick {
        vec![1 << 11, 32, 32]
    } else {
        vec![1 << 15, 32, 32]
    };

    // Single-device points: chain lengths as in the paper's x-axis.
    let single_targets: &[u64] = if vectorization == 1 {
        &[128, 256, 384, 512, 640, 768, 896]
    } else {
        &[512, 1024, 1536, 2048, 2560, 3072]
    };
    let mut points = Vec::new();
    let mut best_single = 0.0f64;
    for &target_ops in single_targets {
        let stages = (target_ops as usize / (ops_per_stencil * vectorization)).max(1);
        let spec = ChainSpec::new(stages, ops_per_stencil)
            .with_shape(&shape)
            .with_vectorization(vectorization);
        let program = chain_program(&spec);
        let mapping = HardwareMapping::build(&program, &config).expect("chain programs always map");
        let resources = estimate_resources(&mapping);
        let frequency = frequency_model.frequency_hz(&resources, &device);
        let perf = mapping.performance;
        let pipeline_efficiency = perf.iterations as f64 / perf.expected_cycles as f64;
        let ops_per_cycle = mapping.ops_per_cycle();
        let upper_bound = ops_per_cycle as f64 * frequency * pipeline_efficiency / 1e9;
        // If the design no longer fits the device, logic is the bottleneck
        // and performance saturates at the largest fitting design.
        let gops = if resources.fits(&device) {
            upper_bound
        } else {
            best_single
        };
        best_single = best_single.max(gops);
        points.push(ScalingPoint {
            ops_per_cycle,
            devices: 1,
            gops,
            upper_bound_gops: upper_bound,
        });
    }
    // Multi-device points: 2, 4, 8 FPGAs chained.
    let max_single_ops = points
        .iter()
        .filter(|p| p.gops >= best_single * 0.999)
        .map(|p| p.ops_per_cycle)
        .max()
        .unwrap_or(896);
    for devices in [2usize, 4, 8] {
        let ops_per_cycle = max_single_ops * devices as u64;
        let gops = best_single * devices as f64 * MULTI_DEVICE_EFFICIENCY;
        points.push(ScalingPoint {
            ops_per_cycle,
            devices,
            gops,
            upper_bound_gops: best_single * devices as f64,
        });
    }
    points
}

/// Render a scaling series as the rows of Fig. 14 / Fig. 15.
pub fn format_scaling(points: &[ScalingPoint], title: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str("ops/cycle  devices      GOp/s   upper bound\n");
    for p in points {
        out.push_str(&format!(
            "{:>9}  {:>7}  {:>9.0}  {:>12.0}\n",
            p.ops_per_cycle, p.devices, p.gops, p.upper_bound_gops
        ));
    }
    out
}

/// One row of Tab. I.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Modelled performance in GOp/s.
    pub gops: f64,
    /// ALM / FF / M20K / DSP usage.
    pub alm: u64,
    /// Flip-flop usage.
    pub ff: u64,
    /// M20K usage.
    pub m20k: u64,
    /// DSP usage.
    pub dsp: u64,
    /// Utilization fractions (ALM, FF, M20K, DSP).
    pub utilization: (f64, f64, f64, f64),
}

/// Builder of a kernel chain with a given number of stages.
type KernelBuilder = Box<dyn Fn(usize) -> StencilProgram>;

fn best_fitting_chain(
    build: &dyn Fn(usize) -> StencilProgram,
    config: &AnalysisConfig,
    device: &Device,
) -> (StencilProgram, HardwareMapping) {
    let mut stages = 4usize;
    let mut last = None;
    loop {
        let program = build(stages);
        let mapping = HardwareMapping::build(&program, config).expect("chains map");
        let resources = estimate_resources(&mapping);
        if resources.fits(device) && stages < 512 {
            last = Some((program, mapping));
            stages *= 2;
        } else {
            // Refine linearly downwards from the first non-fitting size.
            let mut best = last;
            let mut s = stages * 3 / 4;
            while s > 2 {
                let program = build(s);
                let mapping = HardwareMapping::build(&program, config).expect("chains map");
                if estimate_resources(&mapping).fits(device) {
                    best = Some((program, mapping));
                    break;
                }
                s = s * 3 / 4;
            }
            return best.unwrap_or_else(|| {
                let program = build(2);
                let mapping = HardwareMapping::build(&program, config).expect("chains map");
                (program, mapping)
            });
        }
    }
}

/// Compute the "highest performing kernels" rows of Tab. I.
pub fn table1_rows(quick: bool) -> Vec<KernelRow> {
    let device = Device::stratix10_gx2800();
    let frequency_model = FrequencyModel::default();
    let shape3 = if quick {
        [1 << 11, 32, 32]
    } else {
        [1 << 15, 32, 32]
    };
    let shape2 = if quick {
        [1 << 11, 1 << 10]
    } else {
        [1 << 13, 1 << 12]
    };

    let kernels: Vec<(&str, usize, KernelBuilder)> = vec![
        ("Jacobi 3D", 1, Box::new(move |t| jacobi3d(t, &shape3, 1))),
        (
            "Jacobi 3D W=8",
            8,
            Box::new(move |t| jacobi3d(t, &shape3, 8)),
        ),
        (
            "Diffusion 2D W=8",
            8,
            Box::new(move |t| diffusion2d(t, &shape2, 8)),
        ),
        (
            "Diffusion 3D W=8",
            8,
            Box::new(move |t| diffusion3d(t, &shape3, 8)),
        ),
    ];
    let mut rows = Vec::new();
    for (name, width, build) in kernels {
        let config = AnalysisConfig::paper_defaults().with_vectorization(width);
        let (_, mapping) = best_fitting_chain(build.as_ref(), &config, &device);
        let resources = estimate_resources(&mapping);
        let frequency = frequency_model.frequency_hz(&resources, &device);
        let perf = mapping.performance;
        let pipeline_efficiency = perf.iterations as f64 / perf.expected_cycles as f64;
        let gops = mapping.ops_per_cycle() as f64 * frequency * pipeline_efficiency / 1e9;
        rows.push(KernelRow {
            name: name.to_string(),
            gops,
            alm: resources.alm,
            ff: resources.ff,
            m20k: resources.m20k,
            dsp: resources.dsp,
            utilization: resources.utilization(&device),
        });
    }
    rows
}

/// Render Tab. I, including the literature comparison rows from the paper
/// (which are fixed reference values, not re-measured).
pub fn format_table1(rows: &[KernelRow]) -> String {
    let mut out = String::new();
    out.push_str("== Table I: highest performing kernels and their resource usage ==\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>9} {:>9} {:>7} {:>6}\n",
        "kernel", "performance", "ALM", "FF", "M20K", "DSP"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<22} {:>8.0} GOp/s {:>9} {:>9} {:>7} {:>6}\n",
            row.name, row.gops, row.alm, row.ff, row.m20k, row.dsp
        ));
        out.push_str(&format!(
            "{:<22} {:>12} {:>8.1}% {:>8.1}% {:>6.1}% {:>5.1}%\n",
            "",
            "",
            row.utilization.0 * 100.0,
            row.utilization.1 * 100.0,
            row.utilization.2 * 100.0,
            row.utilization.3 * 100.0
        ));
    }
    out.push_str("-- literature reference rows (values as reported by the respective papers) --\n");
    out.push_str("Diffusion 2D (Zohouri et al.)      913 GOp/s   Stratix 10\n");
    out.push_str("Diffusion 3D (Zohouri et al.)      934 GOp/s   Stratix 10\n");
    out.push_str("Waidyasooriya and Hariyama         630 GOp/s   Arria 10 GX 1150\n");
    out.push_str("SODA                               135 GOp/s   ADM-PCIE-KU3\n");
    out.push_str("Niu et al.                         119 GOp/s   Virtex-6 SX475T\n");
    out.push_str("Ben-Nun et al. (DaCe)              139 GOp/s   VCU1525\n");
    out
}

/// One point of the Fig. 16 bandwidth sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Operands requested per cycle.
    pub operands_per_cycle: usize,
    /// Vector width of each access point.
    pub vector_width: usize,
    /// Effective bandwidth in GB/s.
    pub effective_gbs: f64,
    /// Fraction of the requested bandwidth delivered.
    pub efficiency: f64,
}

/// Compute the Fig. 16 series: effective bandwidth against the number of
/// operands requested per cycle, for scalar and 4-way vectorized endpoints.
pub fn bandwidth_series() -> Vec<BandwidthPoint> {
    let model = BandwidthModel::stratix10();
    let frequency = 318e6;
    let mut points = Vec::new();
    for &operands in &[8usize, 16, 24, 32, 40, 48] {
        for &width in &[1usize, 4] {
            let access_points = operands / width;
            // Consistency check with the workload generator (the membench
            // program with this many paths requests exactly these operands).
            let spec = MembenchSpec::new(access_points.div_ceil(2).max(1), width);
            let _ = spec.operands_per_cycle();
            points.push(BandwidthPoint {
                operands_per_cycle: operands,
                vector_width: width,
                effective_gbs: model.effective_bytes_per_s(access_points, width, frequency) / 1e9,
                efficiency: model.efficiency(access_points, width, frequency),
            });
        }
    }
    points
}

/// Render the Fig. 16 series.
pub fn format_bandwidth(points: &[BandwidthPoint]) -> String {
    let mut out = String::new();
    out.push_str("== Figure 16: effective off-chip bandwidth ==\n");
    out.push_str("operands/cycle  width  effective GB/s  efficiency\n");
    for p in points {
        out.push_str(&format!(
            "{:>14}  {:>5}  {:>14.1}  {:>9.2}x\n",
            p.operands_per_cycle, p.vector_width, p.effective_gbs, p.efficiency
        ));
    }
    out
}

/// One row of Tab. II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Platform name.
    pub platform: String,
    /// Runtime in microseconds.
    pub runtime_us: f64,
    /// Sustained performance in GOp/s.
    pub gops: f64,
    /// Peak memory bandwidth in GB/s (infinite for the simulated-bandwidth
    /// variant).
    pub peak_bw_gbs: f64,
    /// Fraction of the platform's own roofline achieved.
    pub roofline_fraction: f64,
    /// Silicon efficiency in GOp/s per mm².
    pub gops_per_mm2: f64,
}

/// Compute Tab. II: the horizontal-diffusion benchmark on the Stratix 10
/// (bandwidth-bound and with simulated infinite bandwidth) and the CPU/GPU
/// comparators, plus the §IX-A analysis numbers.
pub fn table2_rows() -> (Vec<Table2Row>, String) {
    let device = Device::stratix10_gx2800();
    let bandwidth_model = BandwidthModel::stratix10();
    let frequency_model = FrequencyModel::default();

    // The production program, aggressively fused as in the paper.
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::production(8));
    let fused = stencilflow_dataflow::fuse_all(&program).expect("fusion succeeds");
    let config = AnalysisConfig::paper_defaults().with_vectorization(8);
    let analysis = stencilflow_core::analyze(&fused, &config).expect("analysis succeeds");
    let mapping = HardwareMapping::build(&fused, &config).expect("mapping succeeds");
    let resources = estimate_resources(&mapping);
    let frequency = frequency_model.frequency_hz(&resources, &device);

    let total_ops = program.total_flops();
    let memory_bytes = program.total_memory_bytes() as u64;
    let intensity = program.arithmetic_intensity();

    // Effective bandwidth for this design's access-point configuration.
    let effective_bw = bandwidth_model.effective_bytes_per_s(
        mapping.memory_access_points(),
        mapping.vector_width,
        frequency,
    );
    // Bandwidth-bound performance on the Stratix 10. The paper measures 69 %
    // of the bound set by the *achievable* (crossbar-limited) bandwidth,
    // which corresponds to the 52 % of the data-sheet roofline reported in
    // Tab. II; the remaining gap is DRAM access inefficiency not captured by
    // the crossbar model, applied here as a calibrated factor.
    let roofline = Roofline::new(
        effective_bw,
        mapping.ops_per_cycle() as f64 * frequency / 1e9,
    );
    let bound = roofline.attainable_gops(intensity);
    let fpga_gops = bound * 0.70;
    let fpga_runtime = total_ops as f64 / (fpga_gops * 1e9) * 1e6;
    let peak_roofline = Roofline::new(device.peak_bandwidth_bytes(), f64::INFINITY);

    // Simulated infinite bandwidth: compute-bound at W=16.
    let config16 = AnalysisConfig::paper_defaults().with_vectorization(16);
    let mapping16 = HardwareMapping::build(&fused, &config16).expect("mapping succeeds");
    let resources16 = estimate_resources(&mapping16);
    let frequency16 = frequency_model.frequency_hz(&resources16, &device);
    let perf16 = mapping16.performance;
    let pipeline_eff16 = perf16.iterations as f64 / perf16.expected_cycles as f64;
    let inf_gops = mapping16.ops_per_cycle() as f64 * frequency16 * pipeline_eff16 / 1e9
        * (total_ops as f64 / (mapping16.ops_per_cycle() as f64 * perf16.iterations as f64));
    let inf_runtime = total_ops as f64 / (inf_gops * 1e9) * 1e6;

    let mut rows = vec![
        Table2Row {
            platform: "Stratix 10".to_string(),
            runtime_us: fpga_runtime,
            gops: fpga_gops,
            peak_bw_gbs: device.peak_bandwidth_gbs,
            roofline_fraction: fpga_gops / peak_roofline.attainable_gops(intensity),
            gops_per_mm2: silicon_efficiency(fpga_gops, &device),
        },
        Table2Row {
            platform: "Stratix 10 (infinite bandwidth)".to_string(),
            runtime_us: inf_runtime,
            gops: inf_gops,
            peak_bw_gbs: f64::INFINITY,
            roofline_fraction: f64::NAN,
            gops_per_mm2: silicon_efficiency(inf_gops, &device),
        },
    ];
    for comparator in [
        Device::xeon_e5_2690v3(),
        Device::tesla_p100(),
        Device::tesla_v100(),
    ] {
        let estimate = comparator_estimate(&comparator, total_ops, memory_bytes);
        rows.push(Table2Row {
            platform: comparator.name.clone(),
            runtime_us: estimate.runtime_us,
            gops: estimate.gops,
            peak_bw_gbs: estimate.peak_bandwidth_gbs,
            roofline_fraction: estimate.roofline_fraction,
            gops_per_mm2: silicon_efficiency(estimate.gops, &comparator),
        });
    }

    // The §IX-A analysis summary.
    let ops = program.ops_per_cell();
    let perf = &mapping.performance;
    let analysis_text = format!(
        "== §IX-A horizontal diffusion analysis ==\n\
         operations per point: {} add, {} mul, {} sqrt, {} min, {} max, {} branches ({} flops)\n\
         memory traffic: {} operands/point -> arithmetic intensity {:.3} Op/B (paper: 65/18 = {:.3})\n\
         roofline bound at {:.1} GB/s effective bandwidth: {:.1} GOp/s (paper Eq. 3: 210.5)\n\
         bandwidth to saturate compute at this intensity: {:.0} GB/s (paper Eq. 4: 254)\n\
         stencil nodes after fusion: {} (from {}), init latency fraction L/C = {:.3}% (paper: ~0.7%)\n\
         on-chip buffering: {} elements ({:.2} MB)\n",
        ops.additions,
        ops.multiplications,
        ops.square_roots,
        ops.minimums,
        ops.maximums,
        ops.branches,
        ops.flops(),
        (memory_bytes / 4) as f64 / program.space().num_cells() as f64,
        intensity,
        65.0 / 18.0,
        effective_bw / 1e9,
        bound,
        Roofline::bandwidth_to_saturate(917.1, intensity) / 1e9,
        fused.stencil_count(),
        program.stencil_count(),
        perf.init_fraction() * 100.0,
        analysis.total_buffer_elements(),
        (analysis.total_buffer_elements() * 4) as f64 / 1e6,
    );
    (rows, analysis_text)
}

/// Render Tab. II.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("== Table II: horizontal diffusion benchmarks ==\n");
    out.push_str(&format!(
        "{:<34} {:>12} {:>12} {:>10} {:>8} {:>12}\n",
        "platform", "runtime", "performance", "peak BW", "%roof", "GOp/s/mm2"
    ));
    for row in rows {
        let bw = if row.peak_bw_gbs.is_finite() {
            format!("{:.0} GB/s", row.peak_bw_gbs)
        } else {
            "inf".to_string()
        };
        let roof = if row.roofline_fraction.is_nan() {
            "-".to_string()
        } else {
            format!("{:.0}%", row.roofline_fraction * 100.0)
        };
        out.push_str(&format!(
            "{:<34} {:>9.0} us {:>6.0} GOp/s {:>10} {:>8} {:>12.2}\n",
            row.platform, row.runtime_us, row.gops, bw, roof, row.gops_per_mm2
        ));
    }
    out
}

/// One row of the evaluation-throughput comparison: tree-walking
/// interpreter vs. the fused tier vs. the native JIT.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Workload name.
    pub workload: String,
    /// Stencil-cell evaluations per run.
    pub cells: usize,
    /// Tree-walking evaluator throughput in cells/second.
    pub interpreted_cells_per_s: f64,
    /// Fused tier throughput in cells/second (`ReferenceExecutor::execute`
    /// pinned to `Tier::Fused`, stepped for the time-stepping rows — what
    /// the default `run` / `run_steps` take): the wavefront over per-field
    /// ring buffers of planes, every stencil on the kernel its own
    /// expression compiles to, lane-batched where it specializes. Cells are
    /// counted identically to the interpreter (iteration-space cells ×
    /// stencils × steps), which is also what the wavefront evaluates on one
    /// worker.
    pub fused_cells_per_s: f64,
    /// Tier-4 native-JIT throughput in cells/second
    /// (`ReferenceExecutor::execute` pinned to `Tier::Jit`): the fused
    /// schedule with the per-stencil kernel sweeps compiled to machine code
    /// by the system C compiler.
    /// Falls back to the fused tier when the program is ineligible, so an
    /// ineligible workload records a jit ≈ fused measurement rather than
    /// a hole.
    pub jit_cells_per_s: f64,
}

impl ThroughputRow {
    /// Speedup of the fused tier over the interpreter.
    pub(crate) fn fused_speedup(&self) -> f64 {
        self.fused_cells_per_s / self.interpreted_cells_per_s
    }

    /// Additional speedup of the native-JIT tier over the fused tier's
    /// bytecode sweep it replaces.
    pub(crate) fn jit_speedup(&self) -> f64 {
        self.jit_cells_per_s / self.fused_cells_per_s
    }
}

/// Seconds per iteration of `run` — one warm-up call, then repetition until
/// at least `budget` of wall clock has elapsed: how every per-tier
/// throughput cell of the `bench_eval` table is measured.
fn secs_per_iter(budget: std::time::Duration, mut run: impl FnMut()) -> f64 {
    use std::time::Instant;
    run();
    let mut iterations = 0u32;
    let start = Instant::now();
    loop {
        run();
        iterations += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_secs_f64() / iterations as f64
}

/// [`secs_per_iter`] for several workloads at once: they run round-robin
/// (after one warm-up round) until `budget` has elapsed, and each gets the
/// mean of its own iterations.
fn interleaved_secs_per_iter(
    budget: std::time::Duration,
    runs: &mut [&mut dyn FnMut()],
) -> Vec<f64> {
    use std::time::Instant;
    runs.iter_mut().for_each(|run| run());
    let mut totals = vec![0.0; runs.len()];
    let mut rounds = 0u32;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        for (run, total) in runs.iter_mut().zip(totals.iter_mut()) {
            let begin = Instant::now();
            run();
            *total += begin.elapsed().as_secs_f64();
        }
        rounds += 1;
    }
    totals
        .iter()
        .map(|total| total / f64::from(rounds))
        .collect()
}

/// One outputs-only run pinned to `tier` (`ReferenceExecutor::execute`
/// after a cache-hit `prepare`), so a per-tier row measures the tier it
/// names rather than the router's pick.
fn run_pinned(
    executor: &stencilflow_reference::ReferenceExecutor,
    program: &StencilProgram,
    inputs: &std::collections::BTreeMap<String, stencilflow_reference::Grid>,
    steps: Option<usize>,
    tier: Tier,
) -> stencilflow_reference::ExecutionResult {
    let compiled = executor.prepare(program).unwrap();
    let spec = stencilflow_reference::RunSpec { steps, tier };
    executor.execute(&compiled, inputs, &spec).unwrap().0
}

fn measure_cells_per_s(cells: usize, run: impl FnMut()) -> f64 {
    cells as f64 / secs_per_iter(std::time::Duration::from_millis(200), run)
}

/// The single-run rows of [`eval_throughput`], named as the table and
/// [`check_floors`] know them.
fn throughput_workloads(quick: bool) -> Vec<(String, StencilProgram)> {
    use stencilflow_expr::DataType;
    use stencilflow_workloads::jacobi3d_typed;
    let jacobi_shape: [usize; 3] = if quick { [32, 32, 32] } else { [64, 64, 64] };
    // §VIII-C-style linear chain: 8 stages of 8 operations on a domain
    // long enough that materializing every intermediate would stream it
    // through memory (the paper's 2^15×32×32 domain is shortened to keep
    // the interpreted baseline measurable).
    let chain_shape: [usize; 3] = if quick { [96, 32, 32] } else { [384, 32, 32] };
    let chain_spec = ChainSpec::new(8, 8).with_shape(&chain_shape);
    vec![
        (
            format!("jacobi3d {0}^3 f32", jacobi_shape[0]),
            jacobi3d(2, &jacobi_shape, 1),
        ),
        (
            format!("jacobi3d {0}^3 f64", jacobi_shape[0]),
            jacobi3d_typed(2, &jacobi_shape, 1, DataType::Float64),
        ),
        (
            // The historical small-domain row: 8-cell rows are one lane
            // batch each and the sweep stays below the parallel threshold,
            // so its speedup is structurally weak — see the `bench()` row
            // below for a fair measurement.
            "horizontal_diffusion".to_string(),
            horizontal_diffusion(&HorizontalDiffusionSpec::small()),
        ),
        (
            {
                let [i, j, k] = HorizontalDiffusionSpec::bench().shape;
                format!("horizontal_diffusion {i}x{j}x{k}")
            },
            horizontal_diffusion(&HorizontalDiffusionSpec::bench()),
        ),
        (
            // The branchy workload: per-cell data-dependent ternaries that
            // lane-batch only through if-conversion to selects.
            format!("upwind3d {0}^3 f32", jacobi_shape[0]),
            upwind3d(2, &jacobi_shape, 1),
        ),
        (
            format!(
                "chain 8x8op [{},{},{}]",
                chain_shape[0], chain_shape[1], chain_shape[2]
            ),
            chain_program(&chain_spec),
        ),
        (
            // The paper's running example at the size the service mix sends
            // it: its lower-rank `a2[i,k]` streams as a broadcast tap.
            "listing1 32^3".to_string(),
            listing1::listing1(),
        ),
    ]
}

/// Measure reference-execution throughput (cells/second) of the
/// tree-walking evaluator against the fused and JIT tiers, on Jacobi 3D (all-f32 and all-f64), horizontal
/// diffusion, upwind, the 8-stage chain, Listing 1, and an iterative
/// Jacobi time loop (one compilation for all steps). `quick` shrinks the domains for CI
/// runs.
pub fn eval_throughput(quick: bool) -> Vec<ThroughputRow> {
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};
    let jacobi_shape: [usize; 3] = if quick { [32, 32, 32] } else { [64, 64, 64] };
    // The executor caches its compilation across the repeated measurement
    // runs. The fused and JIT rows pin their tier so they measure it, not
    // the router's pick.
    let executor = ReferenceExecutor::new();
    let mut rows: Vec<ThroughputRow> = throughput_workloads(quick)
        .into_iter()
        .map(|(workload, program)| {
            let inputs = generate_inputs(&program, 17);
            let cells = program.space().num_cells() * program.stencil_count();
            let interpreted = measure_cells_per_s(cells, || {
                let result = executor.run_interpreted(&program, &inputs).unwrap();
                std::hint::black_box(&result);
            });
            let fused = measure_cells_per_s(cells, || {
                let result = run_pinned(&executor, &program, &inputs, None, Tier::Fused);
                std::hint::black_box(&result);
            });
            let jit = measure_cells_per_s(cells, || {
                let result = run_pinned(&executor, &program, &inputs, None, Tier::Jit);
                std::hint::black_box(&result);
            });
            ThroughputRow {
                workload,
                cells,
                interpreted_cells_per_s: interpreted,
                fused_cells_per_s: fused,
                jit_cells_per_s: jit,
            }
        })
        .collect();

    // Iterative time loop: one Jacobi sweep time-stepped on the fused
    // tiers, one compilation for all steps. The interpreted baseline feeds
    // the output back by hand.
    // Enough steps that a run is several milliseconds even on the quick
    // domain: launching and joining the workers costs a few hundred
    // microseconds per run (more when a wake-up crosses vCPUs), which at 4
    // steps was a third of a 32^3 run and swung the quick ratios by 0.3.
    let steps = if quick { 16 } else { 8 };
    let program = jacobi3d(1, &jacobi_shape, 1);
    let inputs = generate_inputs(&program, 17);
    let cells = program.space().num_cells() * steps;
    let interpreted = measure_cells_per_s(cells, || {
        let mut work = inputs.clone();
        for _ in 0..steps {
            let result = executor.run_interpreted(&program, &work).unwrap();
            work.insert("f0".to_string(), result.field("f1").unwrap().clone());
        }
        std::hint::black_box(&work);
    });
    let fused = measure_cells_per_s(cells, || {
        let result = run_pinned(&executor, &program, &inputs, Some(steps), Tier::Fused);
        std::hint::black_box(&result);
    });
    let jit = measure_cells_per_s(cells, || {
        let result = run_pinned(&executor, &program, &inputs, Some(steps), Tier::Jit);
        std::hint::black_box(&result);
    });
    rows.push(ThroughputRow {
        workload: format!("jacobi3d {0}^3 x{steps} steps", jacobi_shape[0]),
        cells,
        interpreted_cells_per_s: interpreted,
        fused_cells_per_s: fused,
        jit_cells_per_s: jit,
    });
    rows
}

/// The sharded-execution measurement attached to the evaluation-throughput
/// document: zero-fault overhead of the sharded runtime against the
/// single-process fused tier on the jacobi3d time loop, plus the measured
/// halo traffic of a 4-shard run.
#[derive(Debug, Clone)]
pub struct ShardedThroughput {
    /// Workload name (the jacobi3d time-stepping row).
    pub workload: String,
    /// Stencil-cell evaluations per run (iteration-space cells × steps).
    pub cells: usize,
    /// `std::thread::available_parallelism()` of the measuring host. The
    /// 4-shard floor is conditioned on this: shards can only run
    /// concurrently when the host actually has cores for them.
    pub host_threads: usize,
    /// Single-process fused-tier baseline (`execute`, `Tier::Fused`) in
    /// cells/s, swept on **one thread** — the thread budget of one shard
    /// worker — so the ratios below compare runtimes, not thread counts.
    pub fused_cells_per_s: f64,
    /// Sharded runtime at 1 shard (no boundaries, no halo traffic).
    pub sharded1_cells_per_s: f64,
    /// Sharded runtime at 4 shards (three boundaries of halo traffic).
    pub sharded4_cells_per_s: f64,
    /// Halo payload bytes sent over one whole 4-shard run.
    pub halo_bytes_per_run: f64,
    /// Measured aggregate halo bandwidth of the 4-shard run in bytes/s.
    pub measured_halo_bytes_per_s: f64,
}

impl ShardedThroughput {
    /// Zero-fault overhead of the sharded runtime at 1 shard, as a
    /// fraction of the single-process fused tier on the same single thread.
    pub(crate) fn sharded1_ratio(&self) -> f64 {
        self.sharded1_cells_per_s / self.fused_cells_per_s
    }

    /// 4-shard throughput as a fraction of the single-thread fused tier
    /// (> 1 means the shards scale; < 1 on hosts without 4 cores, where
    /// the shards time-slice and pay the halo/dilation tax).
    pub(crate) fn sharded4_ratio(&self) -> f64 {
        self.sharded4_cells_per_s / self.fused_cells_per_s
    }
}

/// Measure the sharded runtime (`ReferenceExecutor::run_steps_sharded`)
/// against the single-process fused tier on the jacobi3d time loop — the
/// zero-fault overhead measurement behind the `--check-floors` sharded
/// gates — and capture the halo traffic of a 4-shard run.
pub fn sharded_throughput(quick: bool) -> ShardedThroughput {
    use stencilflow_reference::{generate_inputs, ReferenceExecutor, ShardConfig};
    let jacobi_shape: [usize; 3] = if quick { [32, 32, 32] } else { [64, 64, 64] };
    // Enough steps that a run is several milliseconds even on the quick
    // domain: launching and joining the workers costs a few hundred
    // microseconds per run (more when a wake-up crosses vCPUs), which at 4
    // steps was a third of a 32^3 run and swung the quick ratios by 0.3.
    let steps = if quick { 16 } else { 8 };
    let program = jacobi3d(1, &jacobi_shape, 1);
    let inputs = generate_inputs(&program, 17);
    let cells = program.space().num_cells() * steps;
    let executor = ReferenceExecutor::new();
    // A shard worker sweeps its slab on one thread. Give the baseline the
    // same budget: on a 2-thread SMT host a row-parallel baseline read
    // `sharded1_ratio` as 0.97 or 0.55 depending on how the siblings were
    // scheduled that hour, which says nothing about the runtime's overhead.
    let one_thread = ReferenceExecutor::new().with_max_threads(1);
    let config1 = ShardConfig::shards(1);
    let config4 = ShardConfig::shards(4);
    let sharded = |config: &ShardConfig| {
        let outcome = executor.run_steps_sharded(&program, &inputs, steps, config);
        std::hint::black_box(outcome.unwrap());
    };
    // One plain run first to harvest the halo-traffic report (and to make
    // sure the measured path is the genuine sharded runtime, not the
    // degraded fallback).
    let probe = executor
        .run_steps_sharded(&program, &inputs, steps, &config4)
        .unwrap();
    assert!(
        !probe.report.degraded,
        "4-shard probe degraded: {:?}",
        probe.report.degrade_reason
    );
    let halo_bytes = probe.report.halo_bytes_sent() as f64;
    let elapsed = probe.report.elapsed.as_secs_f64();
    // The three runs take turns inside one window, so a load swing of the
    // host slows all of them alike instead of landing on one side of a ratio.
    let secs = interleaved_secs_per_iter(
        std::time::Duration::from_millis(600),
        &mut [
            &mut || {
                let result = run_pinned(&one_thread, &program, &inputs, Some(steps), Tier::Fused);
                std::hint::black_box(&result);
            },
            &mut || sharded(&config1),
            &mut || sharded(&config4),
        ],
    );
    let [fused, sharded1, sharded4] = [0, 1, 2].map(|run| cells as f64 / secs[run]);
    ShardedThroughput {
        workload: format!("jacobi3d {0}^3 x{steps} steps", jacobi_shape[0]),
        cells,
        host_threads: probe.report.host_threads,
        fused_cells_per_s: fused,
        sharded1_cells_per_s: sharded1,
        sharded4_cells_per_s: sharded4,
        halo_bytes_per_run: halo_bytes,
        measured_halo_bytes_per_s: if elapsed > 0.0 {
            halo_bytes / elapsed
        } else {
            0.0
        },
    }
}

/// Render the sharded-execution measurement.
pub fn format_sharded(sharded: &ShardedThroughput) -> String {
    let mut out = String::new();
    out.push_str("== Sharded execution (tier 3\u{00bd}): zero-fault overhead ==\n");
    out.push_str(&format!("{:<28} {}\n", "workload", sharded.workload));
    out.push_str(&format!(
        "{:<28} {}\n",
        "host threads", sharded.host_threads
    ));
    out.push_str(&format!(
        "{:<28} {:>12.3e}\n",
        "fused (1 thread) c/s", sharded.fused_cells_per_s
    ));
    out.push_str(&format!(
        "{:<28} {:>12.3e}  ({:.2}x fused)\n",
        "sharded x1 c/s",
        sharded.sharded1_cells_per_s,
        sharded.sharded1_ratio()
    ));
    out.push_str(&format!(
        "{:<28} {:>12.3e}  ({:.2}x fused)\n",
        "sharded x4 c/s",
        sharded.sharded4_cells_per_s,
        sharded.sharded4_ratio()
    ));
    out.push_str(&format!(
        "{:<28} {:>12.3e} B/s over {:.0} B per run\n",
        "halo traffic (x4)", sharded.measured_halo_bytes_per_s, sharded.halo_bytes_per_run
    ));
    out
}

/// Render the evaluation-throughput comparison.
pub fn format_throughput(rows: &[ThroughputRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "== Evaluation throughput: interpreted vs. fused vs. jit reference execution ==\n",
    );
    out.push_str(&format!(
        "{:<30} {:>12} {:>16} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "cells/run", "interpreted c/s", "fused c/s", "jit c/s", "fused x", "jit x"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<30} {:>12} {:>16.3e} {:>14.3e} {:>14.3e} {:>8.1}x {:>6.2}x\n",
            row.workload,
            row.cells,
            row.interpreted_cells_per_s,
            row.fused_cells_per_s,
            row.jit_cells_per_s,
            row.fused_speedup(),
            row.jit_speedup()
        ));
    }
    out
}

/// Serialize throughput rows (and the sharded-execution measurement, when
/// present) as a pretty-printed JSON document — the format of the
/// `BENCH_eval.json` baseline tracked in the repository. `check_floors`
/// requires the sharded section, so production documents should always
/// pass `Some`.
pub fn throughput_json(
    rows: &[ThroughputRow],
    sharded: Option<&ShardedThroughput>,
    quick: bool,
) -> String {
    use stencilflow_json::Json;
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|row| {
            Json::Object(vec![
                ("workload".to_string(), Json::String(row.workload.clone())),
                ("cells_per_run".to_string(), Json::Number(row.cells as f64)),
                (
                    "interpreted_cells_per_s".to_string(),
                    Json::Number(row.interpreted_cells_per_s),
                ),
                (
                    "fused_cells_per_s".to_string(),
                    Json::Number(row.fused_cells_per_s),
                ),
                (
                    "jit_cells_per_s".to_string(),
                    Json::Number(row.jit_cells_per_s),
                ),
                (
                    "fused_speedup".to_string(),
                    Json::Number(row.fused_speedup()),
                ),
                ("jit_speedup".to_string(), Json::Number(row.jit_speedup())),
            ])
        })
        .collect();
    let mut document = vec![
        (
            "benchmark".to_string(),
            Json::String("eval_throughput".to_string()),
        ),
        ("quick".to_string(), Json::Bool(quick)),
        ("rows".to_string(), Json::Array(rows_json)),
    ];
    if let Some(sharded) = sharded {
        document.push((
            "sharded".to_string(),
            Json::Object(vec![
                (
                    "workload".to_string(),
                    Json::String(sharded.workload.clone()),
                ),
                (
                    "cells_per_run".to_string(),
                    Json::Number(sharded.cells as f64),
                ),
                (
                    "host_threads".to_string(),
                    Json::Number(sharded.host_threads as f64),
                ),
                (
                    "fused_cells_per_s".to_string(),
                    Json::Number(sharded.fused_cells_per_s),
                ),
                (
                    "sharded1_cells_per_s".to_string(),
                    Json::Number(sharded.sharded1_cells_per_s),
                ),
                (
                    "sharded4_cells_per_s".to_string(),
                    Json::Number(sharded.sharded4_cells_per_s),
                ),
                (
                    "sharded1_ratio".to_string(),
                    Json::Number(sharded.sharded1_ratio()),
                ),
                (
                    "sharded4_ratio".to_string(),
                    Json::Number(sharded.sharded4_ratio()),
                ),
                (
                    "halo_bytes_per_run".to_string(),
                    Json::Number(sharded.halo_bytes_per_run),
                ),
                (
                    "measured_halo_bytes_per_s".to_string(),
                    Json::Number(sharded.measured_halo_bytes_per_s),
                ),
            ]),
        ));
    }
    Json::Object(document).to_string_pretty()
}

/// Why a benchmark document fails its floor gate ([`check_floors`] for
/// `bench_eval`'s document, [`check_serve_floors`] for `bench_serve`'s).
#[derive(Debug, Clone, PartialEq)]
pub enum FloorError {
    /// The document does not parse as JSON.
    InvalidJson {
        document: &'static str,
        detail: String,
    },
    /// A key the gate reads is absent or has the wrong type.
    MissingKey {
        document: &'static str,
        key: &'static str,
    },
    /// The document has no row of a kind the gate requires.
    MissingRows { rows: &'static str },
    /// The floors the document misses, one line each.
    Missed(Vec<String>),
}

impl std::fmt::Display for FloorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloorError::InvalidJson { document, detail } => {
                write!(f, "invalid {document}: {detail}")
            }
            FloorError::MissingKey { document, key } => write!(f, "{document} is missing {key}"),
            FloorError::MissingRows { rows } => {
                write!(f, "benchmark JSON has no {rows} to check")
            }
            FloorError::Missed(failures) => f.write_str(&failures.join("\n")),
        }
    }
}

/// The key `key` of `document` is missing.
pub(crate) fn missing(document: &'static str, key: &'static str) -> FloorError {
    FloorError::MissingKey { document, key }
}

/// Check the speedup floors recorded in a `bench_eval` JSON document (the
/// CI gate behind `bench_eval --check-floors`). Every gated row carries one
/// **kernel-tier** gate on `fused_speedup`: the fused tier (what the
/// default `run` takes) over the tree-walking interpreter, with a floor far
/// above what the boxed `Value` kernel reaches — so a stencil that silently
/// stops specializing, and with that leaves the lane-batched sweep, trips
/// it. It applies to the `jacobi3d*` rows, to the `upwind3d*` row (whose
/// data-dependent ternaries lane-batch only through if-conversion), to the
/// `chain*` row, to `listing1*` and to the benchmark-domain
/// `horizontal_diffusion 24x24x64` row (all 24 stencils, mixed-width
/// limiters included). The `chain*` and time-stepping (`* steps`) rows gate
/// `fused_speedup` higher: by the streaming and temporal-blocking factors
/// they once had to beat a materializing sweep by, times the kernel floor.
/// The `jacobi3d*` rows additionally gate the Tier-4 native JIT: the
/// compiled-C sweep must not lose to the fused bytecode sweep it replaces
/// (`jit_speedup` >= 1.0x on full-mode baselines). The `listing1*` row
/// gates its streamed tiers: the better of fused and JIT
/// (`streamed_speedup`) over the interpreter. The small-domain
/// `horizontal_diffusion` row carries no floor: it is structurally
/// lane-hostile and documents why. Quick-mode documents (small domains on
/// noisy shared CI runners) use looser floors than full-mode baselines.
///
/// The `sharded` section gates the zero-fault overhead of the sharded
/// runtime: 1-shard throughput must stay within a constant factor of the
/// single-process fused tier, and the 4-shard floor is conditioned on the
/// recorded `host_threads` — on a 4+-core host the shards must actually
/// scale (≥ 1.5x full mode), while on a smaller host they time-slice and
/// only the bounded overhead floor applies.
///
/// # Errors
///
/// Returns [`FloorError::Missed`] with every violated floor, or the error
/// of a malformed document; `Ok` carries the human-readable summary of the
/// checks passed.
pub fn check_floors(json_text: &str) -> Result<String, FloorError> {
    const DOCUMENT: &str = "benchmark JSON";
    let parsed = stencilflow_json::parse(json_text).map_err(|e| FloorError::InvalidJson {
        document: DOCUMENT,
        detail: format!("{e:?}"),
    })?;
    let quick = parsed
        .get("quick")
        .and_then(|v| v.as_bool())
        .ok_or(missing(DOCUMENT, "the `quick` flag"))?;
    // The kernel-tier floor guards against a stencil falling to the boxed
    // `Value` kernel. It was set under what the lane-batched materializing
    // sweep measured over the interpreter (40-75x quick, 48-89x full; one
    // stalled 200 ms window in five quick runs read 29x) and over what even
    // the scalar typed kernel reached (13-18x quick, 15-23x full, PR 17's
    // baseline; the boxed kernel is slower still); the fused tier reads
    // 67-176x full. Ordinary jitter does not trip it, a row that stopped
    // specializing does.
    let kernel_floor = if quick { 22.0 } else { 30.0 };
    // The fused-tier acceptance criteria were >= 2x on the 8-stage chain
    // and >= 1.5x on the jacobi3d time loop over the materializing sweep
    // (1.25x and 1.1x quick), and Listing 1's streamed tiers >= 1.2x over
    // it; with the sweep gone each is gated over the interpreter at that
    // factor times the kernel floor, so no row's required fused cells/s
    // falls.
    let chain_floor = if quick { 27.5 } else { 60.0 };
    let steps_floor = if quick { 24.2 } else { 45.0 };
    let listing_floor = if quick { 26.4 } else { 36.0 };
    // The Tier-4 acceptance criterion: the natively compiled sweep must
    // not lose to the fused bytecode sweep it replaces on the flagship
    // jacobi3d rows (>= 1.0x full mode; the quick floor absorbs the
    // small-domain FFI-call overhead and shared-runner jitter).
    let jit_floor = if quick { 0.7 } else { 1.0 };
    let rows = parsed
        .get("rows")
        .and_then(|v| v.as_array())
        .ok_or(missing(DOCUMENT, "`rows`"))?;
    let mut failures = Vec::new();
    let mut summary = String::new();
    let mut checked = 0usize;
    let mut branchy_checked = 0usize;
    let mut fused_checked = 0usize;
    let mut hdiff_checked = 0usize;
    let mut listing_checked = 0usize;
    let mut check_gate = |workload: &str, key: &str, value: Option<f64>, floor: f64| match value {
        Some(value) if value >= floor => {
            summary.push_str(&format!("ok: {workload}: {key} {value:.2} >= {floor:.2}\n"));
        }
        Some(value) => failures.push(format!(
            "{workload}: {key} {value:.2} below floor {floor:.2}"
        )),
        None => failures.push(format!("{workload}: missing `{key}`")),
    };
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(|v| v.as_str())
            .unwrap_or("<unnamed>")
            .to_string();
        let field = |key: &str| row.get(key).and_then(|v| v.as_f64());
        let gate = |key, floor| (key, field(key), floor);
        let mut fused_floor = kernel_floor;
        let mut gates = Vec::new();
        if workload.starts_with("horizontal_diffusion ") {
            hdiff_checked += 1;
        } else if workload.starts_with("jacobi3d") {
            checked += 1;
            gates.push(gate("jit_speedup", jit_floor));
            if workload.contains("steps") {
                fused_checked += 1;
                fused_floor = steps_floor;
            }
        } else if workload.starts_with("upwind3d") {
            branchy_checked += 1;
        } else if workload.starts_with("chain") {
            fused_checked += 1;
            fused_floor = chain_floor;
        } else if workload.starts_with("listing1") {
            listing_checked += 1;
            // Without `cc` the JIT rung runs the fused sweep, so the
            // better of the two is what must stream.
            let streamed = field("fused_speedup")
                .zip(field("jit_speedup"))
                .map(|(fused, jit)| fused.max(fused * jit));
            gates.push(("streamed_speedup", streamed, listing_floor));
        } else {
            continue;
        }
        gates.insert(0, gate("fused_speedup", fused_floor));
        for (key, value, floor) in gates {
            check_gate(&workload, key, value, floor);
        }
    }
    for (present, rows) in [
        (checked > 0, "jacobi3d rows"),
        (branchy_checked > 0, "upwind3d rows"),
        (fused_checked >= 2, "fused-tier rows (chain and steps)"),
        (
            hdiff_checked > 0,
            "benchmark-domain horizontal_diffusion row",
        ),
        (listing_checked > 0, "listing1 row"),
    ] {
        if !present {
            return Err(FloorError::MissingRows { rows });
        }
    }
    // The sharded-runtime zero-fault overhead gates.
    let sharded = parsed
        .get("sharded")
        .ok_or(missing(DOCUMENT, "the `sharded` section"))?;
    let host_threads = sharded
        .get("host_threads")
        .and_then(|v| v.as_usize())
        .ok_or(missing("sharded section", "`host_threads`"))?;
    // Healthy 1-shard runs measure ~1.0x the fused tier (the acceptance
    // criterion is >= 0.9x); the floors sit below that by the same noise
    // margin the kernel-tier floors use, so jitter on shared runners does
    // not trip them but a runtime regression that taxes every run does.
    let sharded1_floor = if quick { 0.6 } else { 0.8 };
    let sharded4_floor = if host_threads >= 4 {
        // Enough cores for real concurrency: the shards must scale.
        if quick {
            1.2
        } else {
            1.5
        }
    } else {
        // Time-sliced host: only the bounded halo/dilation overhead floor
        // applies (window drops to 1, so temporal blocking is lost too).
        if quick {
            0.25
        } else {
            0.4
        }
    };
    for (key, floor) in [
        ("sharded1_ratio", sharded1_floor),
        ("sharded4_ratio", sharded4_floor),
    ] {
        match sharded.get(key).and_then(|v| v.as_f64()) {
            Some(value) if value >= floor => {
                summary.push_str(&format!(
                    "ok: sharded ({host_threads} host threads): {key} {value:.2} >= {floor:.2}\n"
                ));
            }
            Some(value) => failures.push(format!(
                "sharded ({host_threads} host threads): {key} {value:.2} below floor {floor:.2}"
            )),
            None => failures.push(format!("sharded: missing `{key}`")),
        }
    }
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(FloorError::Missed(failures))
    }
}

/// Run the Fig. 4 deadlock demonstration: the listing-1 fork/join program
/// deadlocks with unit-depth channels and streams to completion with the
/// analysis-computed depths. Returns `(deadlocked_without, completed_with)`.
pub fn deadlock_demo() -> (bool, bool) {
    use stencilflow_sim::{SimConfig, SimOutcome, Simulator};
    let program = stencilflow_workloads::listing1::listing1_with_shape(&[6, 6, 6]);
    let inputs = stencilflow_reference::generate_inputs(&program, 1);
    let config = AnalysisConfig::paper_defaults();
    let starved = Simulator::build(&program, &config, &SimConfig::with_minimal_channels())
        .unwrap()
        .run(&inputs)
        .unwrap();
    let buffered = Simulator::build(&program, &config, &SimConfig::default())
        .unwrap()
        .run(&inputs)
        .unwrap();
    (
        starved.outcome == SimOutcome::Deadlocked,
        buffered.outcome == SimOutcome::Completed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_series_shape_matches_figure14() {
        let points = scaling_series(1, 8, true);
        // Single-device performance grows with ops/cycle.
        let single: Vec<&ScalingPoint> = points.iter().filter(|p| p.devices == 1).collect();
        assert!(single.len() >= 6);
        assert!(single.last().unwrap().gops > single.first().unwrap().gops);
        // Paper: ~264 GOp/s at 896 Op/cycle on one device.
        let best = single.iter().map(|p| p.gops).fold(0.0, f64::max);
        assert!((200.0..320.0).contains(&best), "best single = {best}");
        // Multi-device rows scale close to linearly.
        let eight: Vec<&ScalingPoint> = points.iter().filter(|p| p.devices == 8).collect();
        assert!(eight[0].gops > best * 5.0);
        assert!(eight[0].gops < best * 8.0);
    }

    #[test]
    fn vectorized_series_outperforms_scalar() {
        let scalar = scaling_series(1, 8, true);
        let vectorized = scaling_series(4, 24, true);
        let best = |pts: &[ScalingPoint]| {
            pts.iter()
                .filter(|p| p.devices == 1)
                .map(|p| p.gops)
                .fold(0.0, f64::max)
        };
        assert!(best(&vectorized) > best(&scalar) * 1.5);
    }

    #[test]
    fn bandwidth_series_flattens_as_in_figure16() {
        let points = bandwidth_series();
        let scalar_48 = points
            .iter()
            .find(|p| p.operands_per_cycle == 48 && p.vector_width == 1)
            .unwrap();
        assert!((scalar_48.effective_gbs - 36.4).abs() < 0.5);
        let vector_48 = points
            .iter()
            .find(|p| p.operands_per_cycle == 48 && p.vector_width == 4)
            .unwrap();
        assert!((vector_48.effective_gbs - 58.3).abs() < 0.5);
        assert!(vector_48.efficiency > scalar_48.efficiency);
    }

    #[test]
    fn table2_preserves_platform_ordering() {
        let (rows, analysis) = table2_rows();
        let get = |name: &str| rows.iter().find(|r| r.platform.contains(name)).unwrap();
        let fpga = get("Stratix 10");
        let inf = get("infinite");
        let xeon = get("Xeon");
        let p100 = get("P100");
        let v100 = get("V100");
        // Paper ordering: Xeon < FPGA < P100 < V100, and the infinite-BW FPGA
        // beats the P100 but not the V100.
        assert!(xeon.gops < fpga.gops);
        assert!(fpga.gops < p100.gops * 1.6); // FPGA and P100 are same order of magnitude
        assert!(p100.gops < v100.gops);
        assert!(inf.gops > p100.gops);
        assert!(inf.gops < v100.gops);
        assert!(analysis.contains("arithmetic intensity"));
    }

    #[test]
    fn deadlock_demo_reproduces_figure4() {
        let (deadlocked, completed) = deadlock_demo();
        assert!(deadlocked);
        assert!(completed);
    }

    /// A throughput row at 1e6 interpreted cells/s: `fused` over the
    /// interpreter, `jit` over the fused tier.
    fn row(workload: &str, fused: f64, jit: f64) -> ThroughputRow {
        ThroughputRow {
            workload: workload.to_string(),
            cells: 1 << 15,
            interpreted_cells_per_s: 1.0e6,
            fused_cells_per_s: 1.0e6 * fused,
            jit_cells_per_s: 1.0e6 * fused * jit,
        }
    }

    fn sharded(host_threads: usize, s1: f64, s4: f64) -> ShardedThroughput {
        ShardedThroughput {
            workload: "jacobi3d 32^3 x4 steps".to_string(),
            cells: 1 << 17,
            host_threads,
            fused_cells_per_s: 32.0e6,
            sharded1_cells_per_s: 32.0e6 * s1,
            sharded4_cells_per_s: 32.0e6 * s4,
            halo_bytes_per_run: 1.0e6,
            measured_halo_bytes_per_s: 5.0e8,
        }
    }

    /// The text of the error `check_floors` returns for `json`.
    fn floor_error(json: &str) -> String {
        check_floors(json).unwrap_err().to_string()
    }

    #[test]
    fn check_floors_accepts_healthy_and_rejects_regressed_documents() {
        let healthy_sharded = sharded(1, 0.95, 0.6);
        let document =
            |jacobi: f64, upwind: f64, chain: f64, steps: f64, jacobi_jit: f64, hdiff: f64| {
                let rows = vec![
                    row("jacobi3d 32^3 f32", jacobi, jacobi_jit),
                    row("upwind3d 32^3 f32", upwind, 1.0),
                    row("chain 8x8op [96,32,32]", chain, 1.0),
                    row("listing1 32^3", 150.0, 3.0),
                    row("jacobi3d 32^3 x4 steps", steps, jacobi_jit),
                    row("horizontal_diffusion 24x24x64", hdiff, 1.0),
                ];
                throughput_json(&rows, Some(&healthy_sharded), true)
            };
        assert!(check_floors(&document(40.0, 40.0, 64.0, 52.0, 1.2, 60.0)).is_ok());
        // Listing 1 streaming below its floor trips its gate; the fused
        // tier alone (no `cc`) clears it.
        let listing = |fused: f64, jit: f64| {
            let rows = [
                row("jacobi3d 32^3 f32", 40.0, 1.2),
                row("upwind3d 32^3 f32", 40.0, 1.0),
                row("chain 8x8op [96,32,32]", 64.0, 1.0),
                row("listing1 32^3", fused, jit),
                row("jacobi3d 32^3 x4 steps", 52.0, 1.2),
                row("horizontal_diffusion 24x24x64", 60.0, 1.0),
            ];
            check_floors(&throughput_json(&rows, Some(&healthy_sharded), true))
        };
        let err = listing(24.0, 1.02).unwrap_err().to_string();
        assert!(
            err.contains("listing1") && err.contains("streamed_speedup"),
            "unexpected error: {err}"
        );
        assert!(listing(30.0, 1.0).is_ok());
        // A jacobi row that left the lane-batched sweep trips the kernel gate.
        let err = floor_error(&document(14.0, 40.0, 64.0, 52.0, 1.2, 60.0));
        assert!(
            err.contains("jacobi3d") && err.contains("fused_speedup"),
            "unexpected error: {err}"
        );
        // A regressed branchy row trips its own gate.
        let err = floor_error(&document(40.0, 14.0, 64.0, 52.0, 1.2, 60.0));
        assert!(
            err.contains("upwind3d") && err.contains("fused_speedup"),
            "unexpected error: {err}"
        );
        // Chain and time-loop rows above the kernel floor but below their
        // streaming and temporal-blocking floors trip those.
        let err = floor_error(&document(40.0, 40.0, 25.0, 52.0, 1.2, 60.0));
        assert!(
            err.contains("chain") && err.contains("fused_speedup"),
            "unexpected error: {err}"
        );
        let err = floor_error(&document(40.0, 40.0, 64.0, 23.0, 1.2, 60.0));
        assert!(
            err.contains("steps") && err.contains("fused_speedup"),
            "unexpected error: {err}"
        );
        // A native sweep losing to the fused bytecode sweep trips the
        // Tier-4 floor on the jacobi rows.
        let err = floor_error(&document(40.0, 40.0, 64.0, 52.0, 0.5, 60.0));
        assert!(
            err.contains("jacobi3d") && err.contains("jit_speedup"),
            "unexpected error: {err}"
        );
        // Horizontal diffusion with stencils off the lane-batched sweep
        // trips the kernel gate.
        let err = floor_error(&document(40.0, 40.0, 64.0, 52.0, 1.2, 14.0));
        assert!(
            err.contains("horizontal_diffusion") && err.contains("fused_speedup"),
            "unexpected error: {err}"
        );
        // Documents without jacobi, upwind, or fused rows (or unparseable
        // ones) are errors, not silent passes.
        assert_eq!(
            check_floors("{\"quick\": true, \"rows\": []}"),
            Err(FloorError::MissingRows {
                rows: "jacobi3d rows"
            })
        );
        assert_eq!(
            check_floors("{}"),
            Err(missing("benchmark JSON", "the `quick` flag"))
        );
        let jacobi_only = throughput_json(
            &[row("jacobi3d 32^3 f32", 40.0, 1.2)],
            Some(&healthy_sharded),
            true,
        );
        assert!(floor_error(&jacobi_only).contains("upwind3d"));
        assert!(matches!(
            check_floors("not json"),
            Err(FloorError::InvalidJson { .. })
        ));
    }

    #[test]
    fn check_floors_gates_the_sharded_section() {
        let healthy_rows = vec![
            row("jacobi3d 32^3 f32", 40.0, 1.25),
            row("upwind3d 32^3 f32", 40.0, 1.0),
            row("chain 8x8op [96,32,32]", 64.0, 1.0),
            row("listing1 32^3", 150.0, 3.0),
            row("jacobi3d 32^3 x4 steps", 52.0, 1.2),
            row("horizontal_diffusion 24x24x64", 60.0, 1.0),
        ];
        let document = |sh: &ShardedThroughput| throughput_json(&healthy_rows, Some(sh), true);
        // Healthy single-core document passes under the time-sliced floor.
        assert!(check_floors(&document(&sharded(1, 0.95, 0.6))).is_ok());
        // Missing section is an error, not a silent pass.
        let err = floor_error(&throughput_json(&healthy_rows, None, true));
        assert!(err.contains("sharded"), "unexpected error: {err}");
        // A regressed 1-shard overhead trips its gate.
        assert!(matches!(
            check_floors(&document(&sharded(1, 0.5, 0.6))),
            Err(FloorError::Missed(failures)) if failures.len() == 1
        ));
        let err = floor_error(&document(&sharded(1, 0.5, 0.6)));
        assert!(err.contains("sharded1_ratio"), "unexpected error: {err}");
        // On a single-core host, 0.35x at 4 shards passes (time-sliced
        // floor) ...
        assert!(check_floors(&document(&sharded(1, 0.95, 0.35))).is_ok());
        // ... but the same ratio on a 8-core host violates the scaling
        // floor: with real cores the shards must actually scale.
        let err = floor_error(&document(&sharded(8, 0.95, 0.35)));
        assert!(err.contains("sharded4_ratio"), "unexpected error: {err}");
        assert!(check_floors(&document(&sharded(8, 0.95, 1.4))).is_ok());
    }

    #[test]
    fn repeated_time_stepping_compiles_exactly_once() {
        use stencilflow_reference::{generate_inputs, ReferenceExecutor};
        let program = jacobi3d(1, &[8, 8, 8], 1);
        let inputs = generate_inputs(&program, 3);
        let executor = ReferenceExecutor::new();
        executor.run_steps(&program, &inputs, 5).unwrap();
        executor.run(&program, &inputs).unwrap();
        executor.run_steps(&program, &inputs, 3).unwrap();
        assert_eq!(executor.compile_count(), 1);
    }

    #[test]
    fn a_quick_kernel_floor_row_runs_the_wide_lanes() {
        // The fused sweep picks its lane width from the innermost extent;
        // `fuse::tests::quick_kernel_floor_shapes_select_the_wide_lanes`
        // pins rows of 32 and 64 cells to at least `KERNEL_LANES_WIDE`
        // lanes. Every quick kernel-floor row must have one of those
        // extents, so the kernel-tier floor covers the wide batches (the
        // small `horizontal_diffusion` row carries no floor).
        for (name, program) in throughput_workloads(true) {
            let inner = program.space().inner_extent();
            if name == "horizontal_diffusion" {
                assert_eq!(inner, 8, "{name}");
            } else {
                assert!(matches!(inner, 32 | 64), "{name}: inner extent {inner}");
            }
        }
    }

    #[test]
    fn formatting_helpers_produce_tables() {
        let points = scaling_series(1, 8, true);
        assert!(format_scaling(&points, "Fig 14").contains("ops/cycle"));
        assert!(format_bandwidth(&bandwidth_series()).contains("GB/s"));
        let rows = table1_rows(true);
        assert!(format_table1(&rows).contains("Jacobi 3D"));
    }

    #[test]
    fn throughput_json_round_trips() {
        let rows = vec![ThroughputRow {
            workload: "jacobi3d 8^3 f32".to_string(),
            cells: 1024,
            interpreted_cells_per_s: 1.0e6,
            fused_cells_per_s: 4.5e7,
            jit_cells_per_s: 9.0e7,
        }];
        let sharded = ShardedThroughput {
            workload: "jacobi3d 8^3 x4 steps".to_string(),
            cells: 2048,
            host_threads: 1,
            fused_cells_per_s: 4.0e7,
            sharded1_cells_per_s: 3.8e7,
            sharded4_cells_per_s: 2.4e7,
            halo_bytes_per_run: 4096.0,
            measured_halo_bytes_per_s: 1.0e6,
        };
        let text = throughput_json(&rows, Some(&sharded), true);
        let parsed = stencilflow_json::parse(&text).unwrap();
        assert_eq!(parsed.get("quick").and_then(|v| v.as_bool()), Some(true));
        let sharded_json = parsed.get("sharded").unwrap();
        assert_eq!(
            sharded_json.get("host_threads").and_then(|v| v.as_usize()),
            Some(1)
        );
        let ratio = sharded_json
            .get("sharded1_ratio")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((ratio - 0.95).abs() < 1e-9);
        let row = &parsed.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(
            row.get("workload").and_then(|v| v.as_str()),
            Some("jacobi3d 8^3 f32")
        );
        assert_eq!(
            row.get("cells_per_run").and_then(|v| v.as_usize()),
            Some(1024)
        );
        assert!(row.get("simd_speedup").is_none());
        let fused_speedup = row.get("fused_speedup").and_then(|v| v.as_f64()).unwrap();
        assert!((fused_speedup - 45.0).abs() < 1e-9);
        let jit_speedup = row.get("jit_speedup").and_then(|v| v.as_f64()).unwrap();
        assert!((jit_speedup - 2.0).abs() < 1e-9);
    }
}
