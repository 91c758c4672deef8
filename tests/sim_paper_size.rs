//! The simulator at the paper's size: horizontal diffusion on the §VIII
//! production domain (128×128×80), the design the weather study times.

use stencilflow::core::{perf, AnalysisConfig};
use stencilflow::dataflow::fuse_all;
use stencilflow::reference::generate_inputs;
use stencilflow::sim::{SimConfig, Simulator};
use stencilflow::workloads::{horizontal_diffusion, HorizontalDiffusionSpec};

/// One device, after `fuse_all` (as `Pipeline` simulates it). The
/// simulated cycle count is pinned, and lands within 1 % of Eq. 1's
/// `C = L + I·N` from the analysis (`perf::expected_cycles`, 1 372 370).
/// Its initialization latency is `L = C - N` = 61 440 cycles, an L/C of
/// 4.48 %: the analytical model's 4.594 %, not the paper's ~0.7 %.
#[test]
fn production_horizontal_diffusion_simulates_at_the_model_s_cycle_count() {
    let program = horizontal_diffusion(&HorizontalDiffusionSpec::production(1));
    let program = fuse_all(&program).unwrap();
    let analysis = AnalysisConfig::paper_defaults();
    let inputs = generate_inputs(&program, 1);
    let simulator = Simulator::build(&program, &analysis, &SimConfig::default()).unwrap();
    let report = simulator.run(&inputs).unwrap();
    assert!(report.completed());
    assert_eq!(report.cycles, 1_372_160);
    let cells = program.space().num_cells() as u64;
    assert_eq!(report.cycles - cells, 61_440);
    let expected = perf::expected_cycles(&program, &analysis).unwrap();
    assert_eq!(expected, 1_372_370);
    let gap = expected.abs_diff(report.cycles) as f64 / expected as f64;
    assert!(gap < 0.01, "simulated {} against {expected}", report.cycles);
}
