//! Off-chip memory model and the reader / writer units attached to it.
//!
//! Readers and writers are count machines like the stencil units (a reader
//! *is* one: `StencilUnit::reader`): they move one token per cell and never
//! look at a value.

use crate::channel::TokenChannel;
use crate::forward;

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

    /// Append the state a jump compares across a cycle (see
    /// [`crate::forward`]): credits, words granted, requests refused.
    pub(crate) fn save(&self, into: &mut Vec<u64>) {
        let credits = self.credits.to_bits();
        into.extend([credits, self.total_words, self.stalled_requests]);
    }

    /// Unbounded cycles if the credits are where they were when the last
    /// cycle, which started from `saved`, began: every request then gets
    /// the answer it got. None otherwise.
    pub(crate) fn horizon(&self, saved: &mut &[u64]) -> u64 {
        let [credits0, _, _] = forward::take(saved);
        if self.credits.to_bits() == credits0 {
            u64::MAX
        } else {
            0
        }
    }

    /// Take `k` more cycles like the last one, which started from `saved`.
    pub(crate) fn advance(&mut self, saved: &mut &[u64], k: u64) {
        let [_, words0, stalled0] = forward::take(saved);
        self.total_words += k * (self.total_words - words0);
        self.stalled_requests += k * (self.stalled_requests - stalled0);
    }
}

/// A dedicated writer draining one program output to off-chip memory.
#[derive(Debug, Clone)]
pub(crate) struct WriterUnit {
    /// Index of the incoming channel.
    pub(crate) in_channel: usize,
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

    /// Append the counts a jump moves: words received, stalled cycles.
    pub(crate) fn save(&self, into: &mut Vec<u64>) {
        into.extend([self.received as u64, self.stall_cycles]);
    }

    /// For how many cycles from now on the writer is done or not done as
    /// in the last cycle, which started from `saved`.
    pub(crate) fn horizon(&self, saved: &mut &[u64]) -> u64 {
        let [received0, _] = forward::take(saved);
        let received = self.received as i64;
        let expected = self.expected as i64;
        forward::holds_for(received, received - received0 as i64, expected)
    }

    /// Take `k` more cycles like the last one, which started from `saved`.
    pub(crate) fn advance(&mut self, saved: &mut &[u64], k: u64) {
        let [received0, stalled0] = forward::take(saved);
        self.received += (k * (self.received as u64 - received0)) as usize;
        self.stall_cycles += k * (self.stall_cycles - stalled0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::StencilUnit;

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
    fn reader_streams_one_word_per_cell_and_stalls_on_a_full_channel() {
        // A reader only counts: one word per cell, then done. A field that
        // does not span the domain draws no off-chip bandwidth.
        let mut channels = vec![channel(16)];
        let mut memory = MemoryModel::new(None);
        let mut reader = StencilUnit::reader(&[0], false, 6);
        memory.begin_cycle();
        for _ in 0..6 {
            assert!(reader.step(0, &mut channels, &mut memory));
        }
        assert!(!reader.step(0, &mut channels, &mut memory));
        assert_eq!(channels[0].len, 6);
        assert_eq!(memory.total_words(), 0);

        let mut channels = vec![channel(1)];
        let mut reader = StencilUnit::reader(&[0], true, 4);
        assert!(reader.step(0, &mut channels, &mut memory));
        assert!(!reader.step(0, &mut channels, &mut memory)); // channel full
        assert_eq!((reader.input_stalls, reader.output_stalls), (0, 1));
        assert_eq!((reader.produced, memory.total_words()), (1, 1));
    }
}
