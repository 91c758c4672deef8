//! Device descriptors for the evaluation platforms.

/// Spatial-resource pool of an FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourcePool {
    /// Adaptive logic modules.
    pub alm: u64,
    /// Flip-flops.
    pub ff: u64,
    /// M20K on-chip memory blocks (20 kbit each).
    pub m20k: u64,
    /// Hardened DSP blocks.
    pub dsp: u64,
}

/// Broad device category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// A reconfigurable spatial device (FPGA).
    Fpga,
    /// A GPU comparator.
    Gpu,
    /// A CPU comparator.
    Cpu,
}

/// A device descriptor: enough information to bound performance (compute,
/// bandwidth), estimate utilization (FPGA resources), and compute silicon
/// efficiency (die area).
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Human-readable name.
    pub name: String,
    /// Device category.
    pub kind: DeviceKind,
    /// Usable spatial resources (zeroed for CPUs/GPUs).
    pub resources: ResourcePool,
    /// Peak off-chip memory bandwidth in GB/s.
    pub peak_bandwidth_gbs: f64,
    /// Peak single-precision compute in GOp/s (GPU/CPU comparators) or the
    /// practically reachable compute of StencilFlow designs (FPGA, from the
    /// paper's §VIII-C measurements).
    pub peak_compute_gops: f64,
    /// Nominal clock frequency in Hz (FPGA designs; boost clock otherwise).
    pub frequency_hz: f64,
    /// Approximate die area in mm² (for silicon efficiency, §IX-C).
    pub die_area_mm2: f64,
    /// Number of 40 Gbit/s network ports (FPGA only).
    pub network_ports: usize,
}

impl Device {
    /// The Intel Stratix 10 GX 2800 on the BittWare 520N board used by the
    /// paper: 4 DDR4 banks totalling 76.8 GB/s, four 40 Gbit/s QSFP ports,
    /// ~700 mm² die. The "available" resource numbers follow Tab. I (the
    /// board shell consumes part of the device).
    pub fn stratix10_gx2800() -> Self {
        Device {
            name: "Stratix 10 GX 2800 (BittWare 520N)".to_string(),
            kind: DeviceKind::Fpga,
            resources: ResourcePool {
                alm: 692_000,
                ff: 2_800_000,
                m20k: 8_900,
                dsp: 4_468,
            },
            peak_bandwidth_gbs: 76.8,
            // Highest single-device compute measured by the paper (Diffusion
            // 2D, W=8): 1.31 TOp/s; used as the compute roof.
            peak_compute_gops: 1_313.0,
            frequency_hz: 300e6,
            die_area_mm2: 700.0,
            network_ports: 4,
        }
    }

    /// Intel Xeon E5-2690 v3 (12 cores, 2.6/3.5 GHz), the CPU comparator.
    pub fn xeon_e5_2690v3() -> Self {
        Device {
            name: "Xeon E5-2690 v3 (12C)".to_string(),
            kind: DeviceKind::Cpu,
            resources: ResourcePool {
                alm: 0,
                ff: 0,
                m20k: 0,
                dsp: 0,
            },
            peak_bandwidth_gbs: 68.0,
            peak_compute_gops: 998.0, // 12 cores * 3.25 GHz * 2 FMA * 8-wide + margin
            frequency_hz: 2.6e9,
            die_area_mm2: 662.0,
            network_ports: 0,
        }
    }

    /// NVIDIA Tesla P100 (TSMC 16 nm, 610 mm², 732 GB/s HBM2).
    pub fn tesla_p100() -> Self {
        Device {
            name: "Tesla P100".to_string(),
            kind: DeviceKind::Gpu,
            resources: ResourcePool {
                alm: 0,
                ff: 0,
                m20k: 0,
                dsp: 0,
            },
            peak_bandwidth_gbs: 732.0,
            peak_compute_gops: 9_300.0,
            frequency_hz: 1.48e9,
            die_area_mm2: 610.0,
            network_ports: 0,
        }
    }

    /// NVIDIA Tesla V100 (TSMC 12 nm, 815 mm², 900 GB/s HBM2).
    pub fn tesla_v100() -> Self {
        Device {
            name: "Tesla V100".to_string(),
            kind: DeviceKind::Gpu,
            resources: ResourcePool {
                alm: 0,
                ff: 0,
                m20k: 0,
                dsp: 0,
            },
            peak_bandwidth_gbs: 900.0,
            peak_compute_gops: 14_000.0,
            frequency_hz: 1.53e9,
            die_area_mm2: 815.0,
            network_ports: 0,
        }
    }

    /// Peak off-chip bandwidth in bytes per second.
    pub fn peak_bandwidth_bytes(&self) -> f64 {
        self.peak_bandwidth_gbs * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_devices_have_expected_ordering() {
        let s10 = Device::stratix10_gx2800();
        let p100 = Device::tesla_p100();
        let v100 = Device::tesla_v100();
        let xeon = Device::xeon_e5_2690v3();
        assert!(v100.peak_bandwidth_gbs > p100.peak_bandwidth_gbs);
        assert!(p100.peak_bandwidth_gbs > s10.peak_bandwidth_gbs);
        assert!(s10.peak_bandwidth_gbs > xeon.peak_bandwidth_gbs);
        assert_eq!(s10.kind, DeviceKind::Fpga);
        assert_eq!(p100.kind, DeviceKind::Gpu);
        assert_eq!(xeon.kind, DeviceKind::Cpu);
    }

    #[test]
    fn die_areas_match_section9c() {
        assert_eq!(Device::stratix10_gx2800().die_area_mm2, 700.0);
        assert_eq!(Device::tesla_p100().die_area_mm2, 610.0);
        assert_eq!(Device::tesla_v100().die_area_mm2, 815.0);
    }

    #[test]
    fn network_capacity() {
        let s10 = Device::stratix10_gx2800();
        assert_eq!(s10.network_ports, 4);
        assert_eq!(Device::tesla_v100().network_ports, 0);
    }

    #[test]
    fn bandwidth_units() {
        assert_eq!(Device::stratix10_gx2800().peak_bandwidth_bytes(), 76.8e9);
    }
}
