//! CPU / GPU comparator performance models (Tab. II).
//!
//! The paper measures the Dawn-generated horizontal-diffusion code on a Xeon
//! E5-2690v3, a Tesla P100, and a Tesla V100. Those measurements show the
//! platforms reaching only a modest fraction of their bandwidth rooflines
//! (13 %, 8 %, and 26 % respectively) because the program is split into five
//! separate kernels with intermediate fields spilled to memory, boundary
//! scheduling overhead, and limited occupancy. We cannot run CUDA or the
//! Dawn toolchain here, so the comparator model combines each device's
//! roofline with a calibrated *stencil efficiency* factor encoding exactly
//! those effects; the factors are taken from the paper's own measurements,
//! and `report` prints the rows they give under `Table II`.

use crate::device::{Device, DeviceKind};
use crate::roofline::Roofline;

/// Performance estimate of a comparator platform on a stencil program.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorResult {
    /// Device name.
    pub device: String,
    /// Estimated sustained throughput in GOp/s.
    pub gops: f64,
    /// Estimated runtime in microseconds.
    pub runtime_us: f64,
    /// The device's peak memory bandwidth in GB/s (reported alongside, as in
    /// Tab. II).
    pub peak_bandwidth_gbs: f64,
    /// Fraction of the device's bandwidth roofline achieved.
    pub roofline_fraction: f64,
}

/// The fraction of its own roofline a platform achieves on the multi-kernel
/// horizontal-diffusion program (calibrated on Tab. II).
fn stencil_efficiency(device: &Device) -> f64 {
    match device.kind {
        DeviceKind::Cpu => 0.13,
        DeviceKind::Gpu => {
            if device.peak_bandwidth_gbs >= 850.0 {
                0.26 // V100: newer scheduler, better occupancy
            } else {
                0.08 // P100
            }
        }
        DeviceKind::Fpga => 0.52,
    }
}

/// Estimate a comparator's performance on a program with the given total
/// operation count and off-chip traffic.
pub fn comparator_estimate(device: &Device, total_ops: u64, memory_bytes: u64) -> ComparatorResult {
    let intensity = total_ops as f64 / memory_bytes as f64;
    let roofline = Roofline::new(device.peak_bandwidth_bytes(), device.peak_compute_gops);
    let bound = roofline.attainable_gops(intensity);
    let fraction = stencil_efficiency(device);
    let gops = bound * fraction;
    let runtime_us = total_ops as f64 / (gops * 1e9) * 1e6;
    ComparatorResult {
        device: device.name.clone(),
        gops,
        runtime_us,
        peak_bandwidth_gbs: device.peak_bandwidth_gbs,
        roofline_fraction: fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Horizontal diffusion on the 128×128×80 domain: ~130 Op/point and
    /// 9·IJK + 5·J operands of 4 bytes.
    fn hd_totals() -> (u64, u64) {
        let ijk = 128 * 128 * 80u64;
        let ops = 130 * ijk;
        let bytes = (9 * ijk + 5 * 128) * 4;
        (ops, bytes)
    }

    #[test]
    fn table2_ordering_is_reproduced() {
        let (ops, bytes) = hd_totals();
        let xeon = comparator_estimate(&Device::xeon_e5_2690v3(), ops, bytes);
        let p100 = comparator_estimate(&Device::tesla_p100(), ops, bytes);
        let v100 = comparator_estimate(&Device::tesla_v100(), ops, bytes);
        // Paper: Xeon 32 GOp/s, P100 210 GOp/s, V100 849 GOp/s.
        assert!(xeon.gops < p100.gops);
        assert!(p100.gops < v100.gops);
        assert!((20.0..60.0).contains(&xeon.gops), "xeon = {}", xeon.gops);
        assert!((150.0..280.0).contains(&p100.gops), "p100 = {}", p100.gops);
        assert!((650.0..1000.0).contains(&v100.gops), "v100 = {}", v100.gops);
    }

    #[test]
    fn runtimes_track_throughput() {
        let (ops, bytes) = hd_totals();
        let v100 = comparator_estimate(&Device::tesla_v100(), ops, bytes);
        let xeon = comparator_estimate(&Device::xeon_e5_2690v3(), ops, bytes);
        assert!(v100.runtime_us < xeon.runtime_us);
        // Paper: V100 201 us, Xeon 5,270 us — check the order of magnitude.
        assert!(
            (100.0..400.0).contains(&v100.runtime_us),
            "{}",
            v100.runtime_us
        );
        assert!(
            (3_000.0..9_000.0).contains(&xeon.runtime_us),
            "{}",
            xeon.runtime_us
        );
    }

    #[test]
    fn efficiency_factors_match_calibration() {
        assert_eq!(stencil_efficiency(&Device::xeon_e5_2690v3()), 0.13);
        assert_eq!(stencil_efficiency(&Device::tesla_p100()), 0.08);
        assert_eq!(stencil_efficiency(&Device::tesla_v100()), 0.26);
        assert_eq!(stencil_efficiency(&Device::stratix10_gx2800()), 0.52);
    }
}
