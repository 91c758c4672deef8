//! Configuration of the buffering analysis.

use stencilflow_expr::LatencyTable;

/// Tunable parameters of the buffering analysis.
///
/// The defaults correspond to the configuration used throughout the paper's
/// evaluation: conservative Stratix-10 operation latencies and a small
/// minimum channel depth to decouple adjacent pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Per-operation latencies used for compute critical paths (§IV-B:
    /// "these latencies can be provided as configuration to the framework,
    /// and default to conservative values").
    pub latencies: LatencyTable,
    /// Minimum depth of every inter-stencil channel, in elements. Even edges
    /// with zero computed delay need a small FIFO so producer and consumer
    /// are not rigidly lock-stepped; HLS tools round small depths up to a
    /// hardware-friendly minimum anyway.
    pub min_channel_depth: u64,
    /// Override the program's vectorization width (`None` keeps the
    /// program's own setting). Used by parameter sweeps.
    pub vectorization_override: Option<usize>,
    /// Default clock frequency (Hz) used to convert cycle counts into
    /// runtimes when no device model is involved. The paper's designs close
    /// timing between 292 and 317 MHz; 300 MHz is the representative value.
    pub default_frequency_hz: f64,
}

impl AnalysisConfig {
    /// The configuration used by the paper's experiments.
    pub fn paper_defaults() -> Self {
        AnalysisConfig {
            latencies: LatencyTable::stratix10_defaults(),
            min_channel_depth: 16,
            vectorization_override: None,
            default_frequency_hz: 300e6,
        }
    }

    /// A configuration with unit operation latencies and no minimum channel
    /// depth, isolating initialization-phase effects in the crate's tests.
    #[cfg(test)]
    pub(crate) fn unit_latencies() -> Self {
        AnalysisConfig {
            latencies: LatencyTable::unit(),
            min_channel_depth: 0,
            vectorization_override: None,
            default_frequency_hz: 300e6,
        }
    }

    /// Set the vectorization override (builder style).
    pub fn with_vectorization(mut self, width: usize) -> Self {
        self.vectorization_override = Some(width);
        self
    }

    /// The effective vectorization width for a program-declared width.
    pub(crate) fn effective_vectorization(&self, program_width: usize) -> usize {
        self.vectorization_override.unwrap_or(program_width).max(1)
    }
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let config = AnalysisConfig::default();
        assert_eq!(config.default_frequency_hz, 300e6);
        assert!(config.min_channel_depth > 0);
        assert!(config.vectorization_override.is_none());
    }

    #[test]
    fn builders_and_effective_vectorization() {
        let config = AnalysisConfig::default().with_vectorization(8);
        assert_eq!(config.effective_vectorization(1), 8);
        let config = AnalysisConfig::default();
        assert_eq!(config.effective_vectorization(4), 4);
        assert_eq!(config.effective_vectorization(0), 1);
    }
}
