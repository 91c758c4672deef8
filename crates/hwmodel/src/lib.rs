//! Hardware models for the StencilFlow reproduction.
//!
//! The paper's evaluation runs on a BittWare 520N board (Intel Stratix 10 GX
//! 2800, four DDR4 banks, four 40 Gbit/s network ports) and compares against
//! a Xeon E5-2690v3, a Tesla P100, and a Tesla V100. None of that hardware is
//! available here, so this crate provides calibrated analytical models of it:
//!
//! * [`device`] — device descriptors (resource pools, peak bandwidth, die
//!   area, clock band) for the FPGA and the comparison platforms.
//! * [`resources`] — ALM / FF / M20K / DSP estimation for mapped designs,
//!   calibrated against the utilization numbers of Tab. I.
//! * [`frequency`] — the 292–317 MHz clock-frequency band observed across the
//!   paper's bitstreams, as a simple fill-dependent model.
//! * [`bandwidth`] — the effective off-chip bandwidth model of Fig. 16
//!   (crossbar-limited roll-off with the number of parallel access points,
//!   mitigated by vectorized endpoints).
//! * [`roofline`] — arithmetic intensity / roofline bounds (Eq. 2–4).
//! * [`comparators`] — roofline-style performance models of the CPU and GPU
//!   baselines of Tab. II.
//! * [`silicon`] — the silicon-efficiency metric of §IX-C.

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod comparators;
pub mod device;
pub mod frequency;
pub mod resources;
pub mod roofline;
pub mod silicon;

pub use bandwidth::BandwidthModel;
pub use comparators::{comparator_estimate, ComparatorResult};
pub use device::{Device, DeviceKind, ResourcePool};
pub use frequency::FrequencyModel;
pub use resources::{estimate_resources, ResourceEstimate};
pub use roofline::Roofline;
pub use silicon::silicon_efficiency;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratix10_descriptor_matches_table1_totals() {
        let device = Device::stratix10_gx2800();
        // Tab. I "Avail." row: 692K ALMs (usable), 2.8M FFs, 8.9K M20Ks,
        // 4468 usable DSPs (5760 total).
        assert_eq!(device.resources.alm, 692_000);
        assert_eq!(device.resources.m20k, 8_900);
        assert!(device.resources.dsp >= 4_400);
        assert!((device.peak_bandwidth_gbs - 76.8).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_roofline_matches_eq3() {
        // Eq. 3: 65/18 Op/B * 58.3 GB/s = 210.5 GOp/s.
        let roofline = Roofline::new(58.3e9, f64::INFINITY);
        let bound = roofline.attainable_gops(65.0 / 18.0);
        assert!((bound - 210.5).abs() < 1.0, "bound = {bound}");
    }
}
