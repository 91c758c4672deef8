//! Sharded-run shims. Every name here is kept only because the frozen
//! `benchmark/src/sut.rs` compiles against it, and goes with the next
//! benchmark re-anchor. A "sharded" run is [`ReferenceExecutor::run`] or
//! [`ReferenceExecutor::run_steps`] over the whole domain: it sends no
//! halo, resends nothing and never degrades.

use crate::executor::{ExecutionResult, ReferenceExecutor};
use crate::grid::Grid;
use std::collections::BTreeMap;
use stencilflow_program::{Result, StencilProgram};

/// A shim: no run reads it. Kept only because the frozen
/// `benchmark/src/sut.rs` builds one; goes with the next benchmark
/// re-anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Ignored: every run covers the whole domain.
    pub shards: usize,
}

impl ShardConfig {
    /// A configuration naming `shards`, which no run reads.
    pub fn shards(shards: usize) -> Self {
        ShardConfig { shards }
    }
}

/// A shim: what one shard did. Kept only because the frozen
/// `benchmark/src/sut.rs` reads it; goes with the next benchmark re-anchor.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Always 0: nothing is sent, so nothing is resent.
    pub frames_resent: usize,
}

/// A shim: what a sharded run did. Kept only because the frozen
/// `benchmark/src/sut.rs` reads it; goes with the next benchmark re-anchor.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Always empty: no run is split into shards.
    pub per_shard: Vec<ShardStats>,
    /// Always `false`: nothing can fail that the plain run would not.
    pub degraded: bool,
}

impl ShardReport {
    /// Always 0: no halo is exchanged.
    pub fn halo_bytes_sent(&self) -> usize {
        0
    }
}

/// A shim: the outputs of a sharded run and its report. Kept only because
/// the frozen `benchmark/src/sut.rs` reads it; goes with the next benchmark
/// re-anchor.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The plain run's result.
    pub result: ExecutionResult,
    /// The all-zero report.
    pub report: ShardReport,
}

impl ReferenceExecutor {
    /// A shim: [`ReferenceExecutor::run`] with an all-zero report; `config`
    /// is ignored. Kept only because the frozen `benchmark/src/sut.rs`
    /// calls it; goes with the next benchmark re-anchor.
    ///
    /// # Errors
    ///
    /// The failure modes of [`ReferenceExecutor::run`].
    pub fn run_sharded(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        _config: &ShardConfig,
    ) -> Result<ShardedOutcome> {
        Ok(ShardedOutcome {
            result: self.run(program, inputs)?,
            report: ShardReport::default(),
        })
    }

    /// A shim: [`ReferenceExecutor::run_steps`] with an all-zero report;
    /// `config` is ignored. Kept only because the frozen
    /// `benchmark/src/sut.rs` calls it; goes with the next benchmark
    /// re-anchor.
    ///
    /// # Errors
    ///
    /// The failure modes of [`ReferenceExecutor::run_steps`].
    pub fn run_steps_sharded(
        &self,
        program: &StencilProgram,
        inputs: &BTreeMap<String, Grid>,
        steps: usize,
        _config: &ShardConfig,
    ) -> Result<ShardedOutcome> {
        Ok(ShardedOutcome {
            result: self.run_steps(program, inputs, steps)?,
            report: ShardReport::default(),
        })
    }
}
