//! Simulation configuration.
//!
//! A simulated design takes none of its sizes from here: every FIFO depth
//! comes from the delay-buffer analysis (`stencilflow-core`), and every
//! link's latency and bandwidth from the partition plan's
//! `PartitionConfig`. What is left to configure is the environment the
//! design runs in and when to stop it.

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Give every on-chip channel this capacity instead of the one the
    /// analysis sized (its depth plus its producer's compute latency). Used
    /// to demonstrate the deadlock of Fig. 4. A remote stream still holds
    /// its link latency in flight on top.
    pub channel_depth_override: Option<u64>,
    /// Off-chip memory bandwidth budget shared by all readers and writers, in
    /// words per cycle. `None` models unlimited bandwidth.
    pub memory_words_per_cycle: Option<f64>,
    /// Abort the simulation after this many cycles without completion.
    pub max_cycles: u64,
    /// Declare deadlock after this many consecutive cycles without any unit
    /// making progress.
    pub deadlock_window: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            channel_depth_override: None,
            memory_words_per_cycle: None,
            max_cycles: 200_000_000,
            deadlock_window: 10_000,
        }
    }
}

impl SimConfig {
    /// Configuration that forces minimal channels, used to reproduce the
    /// deadlock scenario of Fig. 4.
    pub fn with_minimal_channels() -> Self {
        SimConfig {
            channel_depth_override: Some(1),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = SimConfig::default();
        assert!(config.channel_depth_override.is_none());
        assert!(config.memory_words_per_cycle.is_none());
        assert!(config.max_cycles > 1_000_000);
        assert!(config.deadlock_window >= 1_000);
    }

    #[test]
    fn builders() {
        let config = SimConfig::with_minimal_channels();
        assert_eq!(config.channel_depth_override, Some(1));
        assert_eq!(config.max_cycles, SimConfig::default().max_cycles);
    }
}
