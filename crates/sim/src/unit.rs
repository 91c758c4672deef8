//! Simulated stencil processing units.
//!
//! Each unit mirrors the control of the expanded `Stencil` library node of
//! Fig. 12. Per input field a [`StencilUnit`] counts the elements consumed
//! from the field's channel against the shift-register fill distance; every
//! cycle it pulls at most one element per field, fires when every field has
//! reached that distance and every output channel has space, and otherwise
//! records an input or output stall. It passes through the phases of the
//! generated code (*initialization*, *streaming*, *draining*) without ever
//! looking at a value: the values are the reference executor's (see
//! [`crate::simulator`]). A memory reader is the unit without input ports
//! ([`StencilUnit::reader`]).

use crate::channel::TokenChannel;
use crate::forward;
use crate::memory::MemoryModel;
use stencilflow_program::{IterationSpace, StencilNode};

/// An access at `offsets` along `index_vars`, as one offset per dimension of
/// the iteration space (zero along the dimensions the field lacks).
fn full_offset(space: &IterationSpace, index_vars: &[String], offsets: &[i64]) -> Vec<i64> {
    let mut full = vec![0i64; space.rank()];
    for (var, &off) in index_vars.iter().zip(offsets) {
        if let Some(dim) = space.dim_index(var) {
            full[dim] = off;
        }
    }
    full
}

/// The per-field input port of a stencil unit.
#[derive(Debug, Clone)]
struct Port {
    channel: usize,
    /// How many elements ahead of the current output cell this port consumes
    /// (the internal-buffer fill distance, mirroring the shift-register
    /// implementation and the per-edge delay used by the analysis).
    consume_ahead: usize,
    /// Elements consumed from the channel so far.
    consumed: usize,
}

/// The control half of a simulated stencil unit.
#[derive(Debug, Clone)]
pub(crate) struct StencilUnit {
    ports: Vec<Port>,
    out_channels: Vec<usize>,
    total_cells: usize,
    /// Whether every produced cell costs a word of off-chip bandwidth.
    draws_memory: bool,
    /// Cells produced so far.
    pub(crate) produced: usize,
    /// Cycles stalled waiting for input data.
    pub(crate) input_stalls: u64,
    /// Cycles stalled waiting for output space.
    pub(crate) output_stalls: u64,
}

impl StencilUnit {
    /// Create the control unit of `stencil`; `in_channels` holds one channel
    /// index per accessed field, in `stencil.accesses` order.
    pub(crate) fn new(
        space: &IterationSpace,
        stencil: &StencilNode,
        in_channels: &[u32],
        out_channels: &[u32],
    ) -> Self {
        let ports = stencil
            .accesses
            .iter()
            .zip(in_channels)
            .map(|((_, info), &channel)| {
                let lins: Vec<i64> = (info.offsets.iter())
                    .map(|offsets| {
                        space.linearize_offset(&full_offset(space, &info.index_vars, offsets))
                    })
                    .collect();
                let max_lin = lins.iter().copied().max().unwrap_or(0);
                let min_lin = lins.iter().copied().min().unwrap_or(0);
                // Buffer-fill distance: the full shift-register span when the
                // field is accessed more than once, otherwise just far enough
                // to have the (possibly forward-offset) single access
                // available.
                let span = if lins.len() >= 2 {
                    max_lin - min_lin + 1
                } else {
                    0
                };
                Port {
                    channel: channel as usize,
                    consume_ahead: span.max(max_lin + 1).max(1) as usize,
                    consumed: 0,
                }
            })
            .collect();
        StencilUnit {
            ports,
            ..Self::reader(out_channels, false, space.num_cells())
        }
    }

    /// A dedicated prefetcher streaming one input field from off-chip
    /// memory, one element per cell, to all its consumers. Only full-domain
    /// fields draw from the bandwidth budget (`draws_memory`).
    pub(crate) fn reader(out_channels: &[u32], draws_memory: bool, total_cells: usize) -> Self {
        StencilUnit {
            ports: Vec::new(),
            out_channels: out_channels.iter().map(|&c| c as usize).collect(),
            total_cells,
            draws_memory,
            produced: 0,
            input_stalls: 0,
            output_stalls: 0,
        }
    }

    /// Attempt one cycle of work; returns `true` if any progress was made.
    pub(crate) fn step(
        &mut self,
        now: u64,
        channels: &mut [TokenChannel],
        memory: &mut MemoryModel,
    ) -> bool {
        let mut progress = false;
        let cell = self.produced;
        let total = self.total_cells;

        // Consume phase: pull at most one element per field per cycle, as
        // long as this cell (or the drain of the stream) still needs it.
        // A failed pop is back-pressure (word not produced yet or still in
        // network flight): the port retries next cycle.
        let mut missing_input = false;
        let mut ready = true;
        for port in &mut self.ports {
            // Past the last cell the unit drains whatever is left.
            let required = (cell + port.consume_ahead).min(total);
            if port.consumed < required {
                if channels[port.channel].try_pop(now) {
                    port.consumed += 1;
                    progress = true;
                } else {
                    missing_input = true;
                }
            }
            ready &= port.consumed >= required;
        }
        if cell >= total {
            return progress;
        }
        if !ready {
            if missing_input {
                self.input_stalls += 1;
            }
            return progress;
        }

        // Output channels must all have space (the conditional write of the
        // compute phase); only then is the memory word requested.
        if !self.out_channels.iter().all(|&c| channels[c].can_push())
            || (self.draws_memory && !memory.request_word())
        {
            self.output_stalls += 1;
            return progress;
        }
        for &c in &self.out_channels {
            channels[c].push(now);
        }
        self.produced += 1;
        true
    }

    /// The channel each port reads, in port order, and those the unit feeds.
    #[cfg(test)]
    pub(crate) fn wiring(&self) -> (Vec<usize>, Vec<usize>) {
        let ports = self.ports.iter().map(|port| port.channel);
        (ports.collect(), self.out_channels.clone())
    }

    /// Append the counts a jump moves (see [`crate::forward`]): cells
    /// produced, the two stall counts, then each port's consumed words.
    pub(crate) fn save(&self, into: &mut Vec<u64>) {
        let (produced, inputs, outputs) = (self.produced, self.input_stalls, self.output_stalls);
        into.extend([produced as u64, inputs, outputs]);
        into.extend(self.ports.iter().map(|port| port.consumed as u64));
    }

    /// For how many cycles from now on every comparison of [`Self::step`]
    /// answers as in the last cycle, which started from `saved`: whether
    /// cells are left, and per port whether `required` is clamped at the
    /// domain, whether the port wants a word, and whether it holds its
    /// window once it has taken one.
    pub(crate) fn horizon(&self, saved: &mut &[u64]) -> u64 {
        let [produced0, _, _] = forward::take(saved);
        let total = self.total_cells as i64;
        let produced = self.produced as i64;
        let dproduced = produced - produced0 as i64;
        let mut k = forward::holds_for(produced, dproduced, total);
        for port in &self.ports {
            let [consumed0] = forward::take(saved);
            let consumed = port.consumed as i64;
            let popped = consumed - consumed0 as i64;
            let ahead = produced + port.consume_ahead as i64;
            k = k.min(forward::holds_for(ahead, dproduced, total));
            let (required, drequired) = if ahead >= total {
                (total, 0)
            } else {
                (ahead, dproduced)
            };
            // `required - consumed >= 1`: the port pops; `>= popped + 1`:
            // even after its pop the port is short of its window.
            let (gap, dgap) = (required - consumed, drequired - popped);
            let wants = forward::holds_for(gap, dgap, 1);
            k = k.min(wants).min(forward::holds_for(gap, dgap, popped + 1));
        }
        k
    }

    /// Take `k` more cycles like the last one, which started from `saved`.
    pub(crate) fn advance(&mut self, saved: &mut &[u64], k: u64) {
        let [produced0, inputs0, outputs0] = forward::take(saved);
        self.produced += (k * (self.produced as u64 - produced0)) as usize;
        self.input_stalls += k * (self.input_stalls - inputs0);
        self.output_stalls += k * (self.output_stalls - outputs0);
        for port in &mut self.ports {
            let [consumed0] = forward::take(saved);
            port.consumed += (k * (port.consumed as u64 - consumed0)) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};

    fn simple_program() -> StencilProgram {
        StencilProgramBuilder::new("p", &[8])
            .input("a", DataType::Float32, &["i"])
            .stencil("s", "a[i-1] + a[i+1]")
            .boundary("s", "a", BoundaryCondition::Constant(0.0))
            .output("s")
            .build()
            .unwrap()
    }

    /// The unit of stencil `s`, wired `channel 0 -> s -> channel 1`.
    fn unit_of(program: &StencilProgram) -> StencilUnit {
        let stencil = program.stencil("s").unwrap();
        StencilUnit::new(program.space(), stencil, &[0], &[1])
    }

    fn channels(input: usize, output: usize) -> (Vec<TokenChannel>, MemoryModel) {
        let channels = vec![
            TokenChannel::new(input, 0, f64::INFINITY),
            TokenChannel::new(output, 0, f64::INFINITY),
        ];
        (channels, MemoryModel::new(None))
    }

    #[test]
    fn unit_streams_a_three_point_stencil() {
        let program = simple_program();
        let mut unit = unit_of(&program);
        let (mut channels, mut memory) = channels(64, 64);

        // Feed one word per cycle and run until the unit has
        // produced its eight cells and drained its input.
        let mut cycles = 0;
        for cycle in 0..200u64 {
            if cycle < 8 {
                channels[0].push(cycle);
            }
            unit.step(cycle, &mut channels, &mut memory);
            cycles = cycle + 1;
            if unit.produced == 8 && channels[0].len == 0 {
                break;
            }
        }
        // The fill distance of `a[i-1] + a[i+1]` is three words: the first
        // cell fires in cycle 2, the last two are drained from the buffer.
        assert_eq!((unit.produced, cycles), (8, 10));
        assert_eq!(channels[1].len, 8);
        assert_eq!((unit.input_stalls, unit.output_stalls), (0, 0));
    }

    #[test]
    fn unit_stalls_without_input_and_counts_it() {
        let program = simple_program();
        let mut unit = unit_of(&program);
        let (mut channels, mut memory) = channels(4, 4);
        // No input available: no progress, and the stall is recorded.
        assert!(!unit.step(0, &mut channels, &mut memory));
        assert_eq!(unit.input_stalls, 1);
        // A word that is consumed but does not yet fill the buffer is
        // progress, not a stall.
        channels[0].push(1);
        assert!(unit.step(1, &mut channels, &mut memory));
        assert_eq!((unit.input_stalls, unit.produced), (1, 0));
    }

    #[test]
    fn unit_blocks_on_full_output_channel() {
        let program = simple_program();
        let mut unit = unit_of(&program);
        // Output channel of capacity 1.
        let (mut channels, mut memory) = channels(64, 1);
        for cycle in 0..20u64 {
            if channels[0].can_push() {
                channels[0].push(cycle);
            }
            unit.step(cycle, &mut channels, &mut memory);
        }
        // Only one output fits; the unit must have stalled on output.
        assert_eq!(channels[1].len, 1);
        assert!(unit.output_stalls > 0);
        assert_eq!(unit.produced, 1);
    }
}
