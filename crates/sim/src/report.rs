//! Simulation results and statistics.

use std::collections::BTreeMap;
use stencilflow_reference::Grid;

/// How a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOutcome {
    /// All program outputs were fully written.
    Completed,
    /// No unit made progress for the configured deadlock window: the design
    /// is deadlocked (Fig. 4 without sufficient buffering).
    Deadlocked,
    /// The configured cycle limit was reached before completion.
    MaxCyclesExceeded,
}

/// Per-unit statistics collected during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitStats {
    /// Unit name (stencil, reader `read:<field>`, or writer `write:<field>`).
    pub name: String,
    /// Output cells or elements produced.
    pub produced: usize,
    /// Cycles stalled waiting for inputs.
    pub input_stalls: u64,
    /// Cycles stalled waiting for output space or bandwidth.
    pub output_stalls: u64,
}

/// Per-channel statistics collected during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// Channel name (`producer->consumer`).
    pub name: String,
    /// Configured capacity in words.
    pub capacity: usize,
    /// Highest occupancy observed.
    pub high_watermark: usize,
    /// Total words transferred.
    pub words: u64,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// How the run ended.
    pub outcome: SimOutcome,
    /// Cycles simulated.
    pub cycles: u64,
    /// Collected program outputs (one grid per program output), valid only
    /// when the run completed.
    pub outputs: BTreeMap<String, Grid>,
    /// Per-unit statistics.
    pub unit_stats: Vec<UnitStats>,
    /// Per-channel statistics.
    pub channel_stats: Vec<ChannelStats>,
    /// Total off-chip words transferred.
    pub memory_words: u64,
    /// Memory requests that had to wait for bandwidth.
    pub memory_stalls: u64,
}

impl SimReport {
    /// The collected grid of one program output.
    pub fn output(&self, name: &str) -> Option<&Grid> {
        self.outputs.get(name)
    }

    /// Whether the run completed successfully.
    pub fn completed(&self) -> bool {
        self.outcome == SimOutcome::Completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let report = SimReport {
            outcome: SimOutcome::Completed,
            cycles: 100,
            outputs: BTreeMap::new(),
            unit_stats: vec![UnitStats {
                name: "s".into(),
                produced: 50,
                input_stalls: 3,
                output_stalls: 1,
            }],
            channel_stats: vec![ChannelStats {
                name: "a->s".into(),
                capacity: 16,
                high_watermark: 8,
                words: 50,
            }],
            memory_words: 100,
            memory_stalls: 0,
        };
        assert!(report.completed());
        assert!(report.output("x").is_none());
    }

    #[test]
    fn outcome_equality() {
        assert_ne!(SimOutcome::Completed, SimOutcome::Deadlocked);
        assert_ne!(SimOutcome::Deadlocked, SimOutcome::MaxCyclesExceeded);
    }
}
