//! Simulation configuration.

/// Parameters of inter-device network channels (the SMI substitute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Additional latency of a remote stream, in cycles.
    pub latency_cycles: u64,
    /// Bandwidth of a remote stream in words per cycle (two 40 Gbit/s links
    /// carry ~8 32-bit words per cycle at 300 MHz; the default of 4 models a
    /// single link).
    pub words_per_cycle: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            latency_cycles: 200,
            words_per_cycle: 4.0,
        }
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Force every channel to this depth instead of the analysis-computed
    /// depth. Used to demonstrate the deadlock of Fig. 4.
    pub channel_depth_override: Option<u64>,
    /// Off-chip memory bandwidth budget shared by all readers and writers, in
    /// words per cycle. `None` models unlimited bandwidth.
    pub memory_words_per_cycle: Option<f64>,
    /// Network parameters applied to channels that cross devices (only
    /// relevant when simulating a multi-device plan).
    pub network: NetworkParams,
    /// Abort the simulation after this many cycles without completion.
    pub max_cycles: u64,
    /// Declare deadlock after this many consecutive cycles without any unit
    /// making progress.
    pub deadlock_window: u64,
    /// Extra capacity (words) added to every channel on top of the computed
    /// delay-buffer depth. Models the granularity of on-chip memory blocks
    /// (an M20K holds 512 32-bit words, and HLS tools round FIFO depths up)
    /// and absorbs the small difference between the analysis's conservative
    /// compute-latency terms and the simulator's single-cycle evaluation.
    /// Ignored when `channel_depth_override` is set.
    pub extra_channel_slack: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            channel_depth_override: None,
            memory_words_per_cycle: None,
            network: NetworkParams::default(),
            max_cycles: 200_000_000,
            deadlock_window: 10_000,
            extra_channel_slack: 1024,
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

    /// Set the shared off-chip bandwidth budget (builder style).
    pub fn with_memory_bandwidth(mut self, words_per_cycle: f64) -> Self {
        self.memory_words_per_cycle = Some(words_per_cycle);
        self
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
        let config = SimConfig::with_minimal_channels().with_memory_bandwidth(2.0);
        assert_eq!(config.channel_depth_override, Some(1));
        assert_eq!(config.memory_words_per_cycle, Some(2.0));
        assert!(NetworkParams::default().words_per_cycle > 0.0);
    }
}
