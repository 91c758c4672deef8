//! FPGA resource estimation (ALM / FF / M20K / DSP).
//!
//! The paper reports post-fit utilization for its highest-performing kernels
//! (Tab. I). Without a synthesis toolchain we estimate utilization from the
//! mapped design: hardened floating-point DSP usage follows the operation mix
//! directly, logic (ALM/FF) follows the operations per cycle with a
//! per-vector-lane discount (vectorization amortizes control logic — the
//! coarsening effect of §IV-C), and M20K usage follows the buffered bytes
//! plus per-unit and per-memory-interface overheads. The coefficients are
//! calibrated against the Jacobi 3D rows of Tab. I; `report` prints the
//! estimates under `Table I`.

use crate::device::Device;
use stencilflow_core::HardwareMapping;

/// Estimated resource usage of a mapped design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Adaptive logic modules.
    pub alm: u64,
    /// Flip-flops.
    pub ff: u64,
    /// M20K memory blocks.
    pub m20k: u64,
    /// DSP blocks.
    pub dsp: u64,
}

impl ResourceEstimate {
    /// Utilization fractions relative to a device's resource pool, in the
    /// order (ALM, FF, M20K, DSP).
    pub fn utilization(&self, device: &Device) -> (f64, f64, f64, f64) {
        let frac = |used: u64, avail: u64| {
            if avail == 0 {
                0.0
            } else {
                used as f64 / avail as f64
            }
        };
        (
            frac(self.alm, device.resources.alm),
            frac(self.ff, device.resources.ff),
            frac(self.m20k, device.resources.m20k),
            frac(self.dsp, device.resources.dsp),
        )
    }

    /// Whether the design fits the device.
    pub fn fits(&self, device: &Device) -> bool {
        let (alm, ff, m20k, dsp) = self.utilization(device);
        alm <= 1.0 && ff <= 1.0 && m20k <= 1.0 && dsp <= 1.0
    }

    /// The binding (largest) utilization fraction.
    pub(crate) fn max_utilization(&self, device: &Device) -> f64 {
        let (alm, ff, m20k, dsp) = self.utilization(device);
        alm.max(ff).max(m20k).max(dsp)
    }
}

/// ALM cost per floating-point operation instantiated per cycle, as a
/// function of the vectorization width (wider designs amortize per-operation
/// control logic). Calibrated on Tab. I: ≈264 ALM/(Op/cycle) at W = 1 and
/// ≈142 at W = 8.
fn alm_per_op(width: u64) -> f64 {
    125.0 + 139.0 / width.max(1) as f64
}

/// Estimate the resource usage of a mapped single-device design.
pub fn estimate_resources(mapping: &HardwareMapping) -> ResourceEstimate {
    let width = mapping.vector_width.max(1) as u64;
    let ops_per_cycle: u64 = mapping.ops_per_cycle();
    let access_points = mapping.memory_access_points() as u64;

    // DSPs: one hardened FP block per add/mul lane; divisions and square
    // roots are composed of several blocks plus logic.
    let mut dsp = 0u64;
    let mut heavy_ops = 0u64;
    for unit in &mapping.units {
        let ops = &unit.ops;
        dsp += (ops.additions + ops.multiplications) * width;
        heavy_ops += (ops.divisions + ops.square_roots) * width;
    }
    dsp += heavy_ops * 4;

    // Logic: per-op cost plus a shell/infrastructure baseline and the memory
    // interfaces.
    let alm = (ops_per_cycle as f64 * alm_per_op(width)
        + heavy_ops as f64 * 900.0
        + access_points as f64 * 6_000.0
        + 25_000.0) as u64;
    let ff = (alm as f64 * 2.6) as u64;

    // On-chip memory: one M20K holds 20 kbit = 2,560 bytes of 32-bit data.
    let buffer_bytes = mapping.total_buffer_elements() * 4;
    let m20k = buffer_bytes.div_ceil(2_560)
        + mapping.units.len() as u64 * 3
        + access_points * (40 + 25 * width)
        + 300;

    ResourceEstimate { alm, ff, m20k, dsp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::AnalysisConfig;
    use stencilflow_workloads::{jacobi3d, listing1};

    #[test]
    fn utilization_and_fit() {
        let program = listing1();
        let mapping = HardwareMapping::build(&program, &AnalysisConfig::paper_defaults()).unwrap();
        let estimate = estimate_resources(&mapping);
        let device = Device::stratix10_gx2800();
        assert!(estimate.fits(&device));
        let (alm, ff, m20k, dsp) = estimate.utilization(&device);
        assert!(alm > 0.0 && alm < 0.5);
        assert!(ff > 0.0 && ff < 0.5);
        assert!(m20k > 0.0 && m20k < 0.5);
        assert!(dsp > 0.0 && dsp < 0.5);
        assert!(estimate.max_utilization(&device) < 0.5);
    }

    #[test]
    fn resources_grow_with_chain_length() {
        let config = AnalysisConfig::paper_defaults();
        let small = estimate_resources(
            &HardwareMapping::build(&jacobi3d(4, &[256, 32, 32], 1), &config).unwrap(),
        );
        let large = estimate_resources(
            &HardwareMapping::build(&jacobi3d(16, &[256, 32, 32], 1), &config).unwrap(),
        );
        assert!(large.alm > small.alm);
        assert!(large.dsp > small.dsp);
        assert!(large.m20k > small.m20k);
    }

    #[test]
    fn vectorization_amortizes_logic_per_op() {
        let config = AnalysisConfig::paper_defaults();
        let w1 = HardwareMapping::build(&jacobi3d(8, &[256, 32, 32], 1), &config).unwrap();
        let w8 = HardwareMapping::build(&jacobi3d(8, &[256, 32, 32], 8), &config).unwrap();
        let e1 = estimate_resources(&w1);
        let e8 = estimate_resources(&w8);
        let per_op_1 = e1.alm as f64 / w1.ops_per_cycle() as f64;
        let per_op_8 = e8.alm as f64 / w8.ops_per_cycle() as f64;
        assert!(per_op_8 < per_op_1);
        // DSPs scale proportionally to ops per cycle.
        assert!(e8.dsp > e1.dsp * 7);
    }

    #[test]
    fn jacobi3d_calibration_is_in_table1_ballpark() {
        // The paper's best unvectorized Jacobi 3D design sustains
        // ~883 Op/cycle with 233K ALMs, 784 DSPs, and 1,495 M20Ks. Build a
        // chain of comparable ops/cycle and check the estimate lands within
        // a factor of ~1.5 of those numbers.
        let config = AnalysisConfig::paper_defaults();
        let timesteps = 126; // 126 stencils * 7 Op = 882 Op/cycle
        let program = jacobi3d(timesteps, &[1 << 15, 32, 32], 1);
        let mapping = HardwareMapping::build(&program, &config).unwrap();
        let estimate = estimate_resources(&mapping);
        assert!(
            (600..=1_200).contains(&estimate.dsp),
            "dsp = {}",
            estimate.dsp
        );
        assert!(
            (150_000..=380_000).contains(&estimate.alm),
            "alm = {}",
            estimate.alm
        );
        assert!(
            (900..=2_500).contains(&estimate.m20k),
            "m20k = {}",
            estimate.m20k
        );
        let device = Device::stratix10_gx2800();
        assert!(estimate.fits(&device));
    }
}
