//! Effective off-chip bandwidth model (Fig. 16, §VIII-D).
//!
//! The Stratix 10 board's four DDR4 banks provide 76.8 GB/s of raw bandwidth,
//! but the memory-controller crossbar and the routing of many parallel access
//! points across the device limit what StencilFlow designs actually achieve:
//!
//! * with scalar (32-bit) access points, effective bandwidth tracks the
//!   request rate up to ~24 access points and then flattens out at
//!   ~36.4 GB/s (47 % of peak);
//! * with 4-way (or wider) vectorized access points, fewer endpoints request
//!   more data each, and the achievable bandwidth flattens at ~58.3 GB/s
//!   (76 % of peak).

/// Calibrated effective-bandwidth model for a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Raw peak bandwidth (bytes/s).
    pub peak_bytes_per_s: f64,
    /// Saturation bandwidth for scalar (1-word) access points (bytes/s).
    pub scalar_saturation_bytes_per_s: f64,
    /// Saturation bandwidth for vectorized (≥4-word) access points
    /// (bytes/s).
    pub vector_saturation_bytes_per_s: f64,
    /// Number of scalar access points the crossbar serves at full rate.
    pub scalar_knee_access_points: usize,
    /// Number of vectorized access points served at (nearly) full rate.
    pub vector_knee_access_points: usize,
}

impl BandwidthModel {
    /// The Stratix 10 / BittWare 520N model calibrated on Fig. 16.
    pub fn stratix10() -> Self {
        BandwidthModel {
            peak_bytes_per_s: 76.8e9,
            scalar_saturation_bytes_per_s: 36.4e9,
            vector_saturation_bytes_per_s: 58.3e9,
            scalar_knee_access_points: 24,
            vector_knee_access_points: 12,
        }
    }

    /// The saturation bandwidth for a given access-point vector width.
    fn saturation_bytes_per_s(&self, vector_width: usize) -> f64 {
        if vector_width >= 4 {
            self.vector_saturation_bytes_per_s
        } else if vector_width <= 1 {
            self.scalar_saturation_bytes_per_s
        } else {
            // Interpolate between the scalar and vectorized saturation points
            // for intermediate widths.
            let t = (vector_width - 1) as f64 / 3.0;
            self.scalar_saturation_bytes_per_s
                + t * (self.vector_saturation_bytes_per_s - self.scalar_saturation_bytes_per_s)
        }
    }

    /// Effective bandwidth (bytes/s) for a design with `access_points`
    /// endpoints of `vector_width` 32-bit operands each, clocked at
    /// `frequency_hz`.
    pub fn effective_bytes_per_s(
        &self,
        access_points: usize,
        vector_width: usize,
        frequency_hz: f64,
    ) -> f64 {
        let requested = access_points as f64 * vector_width as f64 * 4.0 * frequency_hz;
        requested
            .min(self.saturation_bytes_per_s(vector_width))
            .min(self.peak_bytes_per_s)
    }

    /// Fraction of the requested bandwidth actually delivered.
    pub fn efficiency(&self, access_points: usize, vector_width: usize, frequency_hz: f64) -> f64 {
        let requested = access_points as f64 * vector_width as f64 * 4.0 * frequency_hz;
        if requested == 0.0 {
            return 1.0;
        }
        self.effective_bytes_per_s(access_points, vector_width, frequency_hz) / requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: f64 = 318e6; // Fig. 16 designs close timing near the top of the band.

    #[test]
    fn scalar_bandwidth_flattens_at_36gbs() {
        let model = BandwidthModel::stratix10();
        // Up to 24 scalar access points the request is served ~fully.
        let low = model.effective_bytes_per_s(8, 1, F);
        assert!((low / 1e9 - 10.2).abs() < 0.5, "low = {low}");
        assert!(model.efficiency(24, 1, F) > 0.95);
        // Beyond the knee it saturates at 36.4 GB/s (47% of peak).
        let high = model.effective_bytes_per_s(48, 1, F);
        assert!((high - 36.4e9).abs() < 1e8);
        assert!(model.efficiency(48, 1, F) < 0.65);
    }

    #[test]
    fn vectorized_bandwidth_reaches_58gbs() {
        let model = BandwidthModel::stratix10();
        let high = model.effective_bytes_per_s(12, 4, F);
        assert!((high - 58.3e9).abs() < 1e8);
        // 76% of peak.
        assert!((high / model.peak_bytes_per_s - 0.76).abs() < 0.02);
        // Vectorization beats scalar access at the same operand count.
        assert!(model.effective_bytes_per_s(12, 4, F) > model.effective_bytes_per_s(48, 1, F));
    }

    #[test]
    fn efficiency_is_one_for_small_designs() {
        let model = BandwidthModel::stratix10();
        assert!((model.efficiency(2, 1, F) - 1.0).abs() < 1e-9);
        assert_eq!(model.efficiency(0, 1, F), 1.0);
    }

    #[test]
    fn intermediate_widths_interpolate() {
        let model = BandwidthModel::stratix10();
        let w2 = model.saturation_bytes_per_s(2);
        assert!(w2 > model.scalar_saturation_bytes_per_s);
        assert!(w2 < model.vector_saturation_bytes_per_s);
    }
}
