//! Off-chip memory model and the reader / writer units attached to it.
//!
//! Readers and writers are count machines like the stencil units (a reader
//! *is* one: `StencilUnit::reader`). *Which* words a reader streams is a
//! function of the input grid alone (`input_stream`); what a writer
//! collects is the producing unit's whole field.

use crate::channel::TokenChannel;
use std::borrow::Cow;
use stencilflow_program::IterationSpace;
use stencilflow_reference::Grid;

/// Shared off-chip bandwidth budget.
///
/// All full-domain readers and all writers draw words from the same per-cycle
/// budget; when the budget is exhausted, the remaining memory units stall for
/// the rest of the cycle. Lower-dimensional parameter fields are served from
/// on-chip copies after an initial load and do not draw from the budget,
/// matching how the analysis counts "operands per cycle" (§VIII-D, §IX-A).
#[derive(Debug, Clone)]
pub(crate) struct MemoryModel {
    words_per_cycle: Option<f64>,
    credits: f64,
    total_words: u64,
    stalled_requests: u64,
}

impl MemoryModel {
    /// Create a memory model; `None` means unlimited bandwidth.
    pub(crate) fn new(words_per_cycle: Option<f64>) -> Self {
        MemoryModel {
            words_per_cycle,
            credits: 0.0,
            total_words: 0,
            stalled_requests: 0,
        }
    }

    /// Grant this cycle's budget.
    pub(crate) fn begin_cycle(&mut self) {
        match self.words_per_cycle {
            Some(budget) => {
                // Credits do not accumulate beyond one cycle's worth plus one
                // word: DRAM bandwidth not used in a cycle is lost.
                self.credits = (self.credits + budget).min(budget.max(1.0));
            }
            None => self.credits = f64::INFINITY,
        }
    }

    /// Try to reserve one word of bandwidth.
    pub(crate) fn request_word(&mut self) -> bool {
        if self.credits >= 1.0 {
            self.credits -= 1.0;
            self.total_words += 1;
            true
        } else {
            self.stalled_requests += 1;
            false
        }
    }

    /// Total words transferred.
    pub(crate) fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Number of requests that had to wait for bandwidth.
    pub(crate) fn stalled_requests(&self) -> u64 {
        self.stalled_requests
    }
}

/// The stream a reader feeds its consumers: element `c` is the grid value
/// the stencils expect at cell `c` of the iteration space. A grid spanning
/// the whole space in memory order is borrowed as it is; any other one
/// (dimensions matched by name) repeats its values along the dimensions it
/// lacks. The caller has checked that every grid dimension naming a space
/// dimension has that dimension's extent.
pub(crate) fn input_stream<'a>(grid: &'a Grid, space: &IterationSpace) -> Cow<'a, [f64]> {
    if grid.dims() == space.dims.as_slice() && grid.shape() == space.shape.as_slice() {
        return Cow::Borrowed(grid.as_slice());
    }
    // Stride of each space dimension inside the grid; zero broadcasts.
    let mut strides = vec![0usize; space.rank()];
    for (dim, &stride) in grid.dims().iter().zip(grid.strides()) {
        if let Some(ix) = space.dim_index(dim) {
            strides[ix] += stride;
        }
    }
    let data = grid.as_slice();
    let mut values = Vec::with_capacity(space.num_cells());
    let mut index = vec![0usize; space.rank()];
    let mut offset = 0usize;
    for _ in 0..space.num_cells() {
        values.push(data[offset]);
        for d in (0..space.rank()).rev() {
            index[d] += 1;
            offset += strides[d];
            if index[d] < space.shape[d] {
                break;
            }
            offset -= strides[d] * space.shape[d];
            index[d] = 0;
        }
    }
    Cow::Owned(values)
}

/// A dedicated writer draining one program output to off-chip memory.
#[derive(Debug, Clone)]
pub(crate) struct WriterUnit {
    /// Index of the incoming channel.
    in_channel: usize,
    /// Total number of cells expected.
    expected: usize,
    /// Cells drained so far.
    pub(crate) received: usize,
    /// Cycles spent waiting for data or bandwidth.
    pub(crate) stall_cycles: u64,
}

impl WriterUnit {
    pub(crate) fn new(in_channel: usize, expected: usize) -> Self {
        WriterUnit {
            in_channel,
            expected,
            received: 0,
            stall_cycles: 0,
        }
    }

    /// Whether all output cells have been received.
    pub(crate) fn done(&self) -> bool {
        self.received >= self.expected
    }

    /// Attempt one cycle of work; returns `true` if progress was made.
    pub(crate) fn step(
        &mut self,
        now: u64,
        channels: &mut [TokenChannel],
        memory: &mut MemoryModel,
    ) -> bool {
        if self.done() {
            return false;
        }
        // The bandwidth request comes second: a writer with nothing to
        // write does not draw from the budget.
        if !channels[self.in_channel].can_pop(now) || !memory.request_word() {
            self.stall_cycles += 1;
            return false;
        }
        channels[self.in_channel].try_pop(now);
        self.received += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::StencilUnit;
    use stencilflow_expr::DataType;

    fn channel(capacity: usize) -> TokenChannel {
        TokenChannel::new(capacity, 0, f64::INFINITY)
    }

    #[test]
    fn memory_model_enforces_budget() {
        let mut memory = MemoryModel::new(Some(2.0));
        memory.begin_cycle();
        assert!(memory.request_word());
        assert!(memory.request_word());
        assert!(!memory.request_word());
        assert_eq!(memory.total_words(), 2);
        assert_eq!(memory.stalled_requests(), 1);
        memory.begin_cycle();
        assert!(memory.request_word());
    }

    #[test]
    fn unlimited_memory_never_stalls() {
        let mut memory = MemoryModel::new(None);
        memory.begin_cycle();
        for _ in 0..1000 {
            assert!(memory.request_word());
        }
        assert_eq!(memory.stalled_requests(), 0);
    }

    #[test]
    fn reader_projects_lower_dimensional_fields() {
        let space = IterationSpace::new(&["i", "j"], &[2, 3]).unwrap();
        let grid = Grid::from_values(&["j"], &[3], &[10.0, 20.0, 30.0]);
        let streamed = input_stream(&grid, &space);
        assert_eq!(*streamed, [10.0, 20.0, 30.0, 10.0, 20.0, 30.0]);
        let column = Grid::from_values(&["i"], &[2], &[1.0, 2.0]);
        assert_eq!(
            *input_stream(&column, &space),
            [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
        // A full-rank grid is streamed in place, a transposed one by name.
        let values: Vec<f64> = (0..6).map(f64::from).collect();
        let full = Grid::from_values(&["i", "j"], &[2, 3], &values);
        assert!(matches!(input_stream(&full, &space), Cow::Borrowed(_)));
        let transposed = Grid::from_values(&["j", "i"], &[3, 2], &values);
        assert_eq!(
            *input_stream(&transposed, &space),
            [0.0, 2.0, 4.0, 1.0, 3.0, 5.0]
        );

        // The reader itself only counts: one word per cell, then done.
        let mut channels = vec![channel(16)];
        let mut memory = MemoryModel::new(None);
        let mut reader = StencilUnit::reader(vec![0], false, space.num_cells());
        memory.begin_cycle();
        for _ in 0..6 {
            assert!(reader.step(0, &mut channels, &mut memory));
        }
        assert!(!reader.step(0, &mut channels, &mut memory));
        assert_eq!(channels[0].len, 6);
        assert_eq!(memory.total_words(), 0);
    }

    #[test]
    fn writer_collects_in_order() {
        let mut channels = vec![channel(16)];
        let mut memory = MemoryModel::new(None);
        memory.begin_cycle();
        channels[0].push(0);
        channels[0].push(0);
        let mut writer = WriterUnit::new(0, 2);
        assert!(writer.step(0, &mut channels, &mut memory));
        assert!(writer.step(0, &mut channels, &mut memory));
        assert!(writer.done());
        assert_eq!(writer.received, 2);
        // Further steps make no progress.
        assert!(!writer.step(0, &mut channels, &mut memory));
        assert_eq!(writer.stall_cycles, 0);
        assert_eq!(memory.total_words(), 2);
    }

    #[test]
    fn writer_waits_for_data_and_for_bandwidth() {
        let mut channels = vec![channel(4)];
        let mut memory = MemoryModel::new(Some(1.0));
        let mut writer = WriterUnit::new(0, 2);
        memory.begin_cycle();
        // Nothing to drain: a stall that draws no bandwidth.
        assert!(!writer.step(0, &mut channels, &mut memory));
        assert_eq!((writer.stall_cycles, memory.stalled_requests()), (1, 0));
        channels[0].push(0);
        channels[0].push(0);
        assert!(writer.step(0, &mut channels, &mut memory));
        // The cycle's one word is spent.
        assert!(!writer.step(0, &mut channels, &mut memory));
        assert_eq!((writer.stall_cycles, memory.stalled_requests()), (2, 1));
        assert_eq!(channels[0].len, 1);
    }

    #[test]
    fn reader_stalls_on_full_channel_and_scalar_grid_broadcasts() {
        let space = IterationSpace::new(&["i"], &[4]).unwrap();
        let grid = Grid::scalar(7.0, DataType::Float32);
        assert_eq!(*input_stream(&grid, &space), [7.0; 4]);
        let mut channels = vec![channel(1)];
        let mut memory = MemoryModel::new(None);
        memory.begin_cycle();
        let mut reader = StencilUnit::reader(vec![0], false, space.num_cells());
        assert!(reader.step(0, &mut channels, &mut memory));
        assert!(!reader.step(0, &mut channels, &mut memory)); // channel full
        assert_eq!((reader.input_stalls, reader.output_stalls), (0, 1));
        assert_eq!(reader.produced, 1);
    }
}
