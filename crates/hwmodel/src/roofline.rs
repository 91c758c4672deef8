//! Roofline model (Eq. 2–4, §IX-A).

/// A roofline: a memory-bandwidth roof and a compute roof.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Memory bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Compute roof in GOp/s.
    pub compute_gops: f64,
}

impl Roofline {
    /// Create a roofline from a bandwidth (bytes/s) and a compute roof
    /// (GOp/s).
    pub fn new(bandwidth_bytes_per_s: f64, compute_gops: f64) -> Self {
        Roofline {
            bandwidth_bytes_per_s,
            compute_gops,
        }
    }

    /// Attainable performance (GOp/s) at the given arithmetic intensity
    /// (Op/byte).
    pub fn attainable_gops(&self, intensity: f64) -> f64 {
        let memory_roof = intensity * self.bandwidth_bytes_per_s / 1e9;
        memory_roof.min(self.compute_gops)
    }

    /// The bandwidth (bytes/s) needed to sustain `gops` at the given
    /// intensity (Eq. 4 of the paper).
    pub fn bandwidth_to_saturate(gops: f64, intensity: f64) -> f64 {
        gops * 1e9 / intensity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The horizontal-diffusion arithmetic intensity of Eq. 2: 65/18 Op/B.
    const HD_INTENSITY: f64 = 65.0 / 18.0;

    #[test]
    fn eq3_bandwidth_bound() {
        // 65/18 Op/B × 58.3 GB/s = 210.5 GOp/s.
        let r = Roofline::new(58.3e9, 1_313.0);
        assert!((r.attainable_gops(HD_INTENSITY) - 210.5).abs() < 1.0);
        // At the data-sheet bandwidth of 76.8 GB/s the bound is 277.3 GOp/s.
        let r = Roofline::new(76.8e9, 1_313.0);
        assert!((r.attainable_gops(HD_INTENSITY) - 277.3).abs() < 1.0);
    }

    #[test]
    fn eq4_bandwidth_to_saturate_compute() {
        // 917.1 GOp/s at 65/18 Op/B needs 254 GB/s.
        let needed = Roofline::bandwidth_to_saturate(917.1, HD_INTENSITY);
        assert!((needed / 1e9 - 254.0).abs() < 1.0);
    }

    #[test]
    fn ridge_point_and_compute_bound_region() {
        let r = Roofline::new(76.8e9, 1_313.0);
        // The ridge point: where the memory roof meets the compute roof.
        let ridge = 1_313.0 / 76.8;
        assert!(r.attainable_gops(ridge * 0.5) < 1_313.0);
        assert_eq!(r.attainable_gops(ridge * 2.0), 1_313.0);
    }
}
