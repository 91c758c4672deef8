//! Count-based channels of the timing loop.

use std::collections::VecDeque;

/// A bounded FIFO reduced to what a unit's control logic can observe: how
/// many words it holds, whether the head word has arrived, and whether the
/// link's bandwidth budget admits another word this cycle. Capacity, latency
/// and the fractional credit arithmetic are those of the value-carrying
/// `stencilflow_core::channel::Fifo`; the words themselves are computed
/// afterwards, once per stream (see [`crate::unit::FieldKernel`]).
#[derive(Debug, Clone)]
pub(crate) struct TokenChannel {
    pub(crate) capacity: usize,
    latency: u64,
    words_per_cycle: f64,
    credits: f64,
    /// Words currently buffered, visible or still in flight.
    pub(crate) len: usize,
    pub(crate) pushed_total: u64,
    pub(crate) high_watermark: usize,
    /// Arrival cycles of the buffered words, oldest first. Only network
    /// channels (`latency > 0`) need them: on-chip words are visible in the
    /// cycle they are pushed.
    arrivals: VecDeque<u64>,
}

impl TokenChannel {
    /// A channel of `capacity` words; `words_per_cycle` is infinite for an
    /// unthrottled on-chip FIFO.
    pub(crate) fn new(capacity: usize, latency: u64, words_per_cycle: f64) -> Self {
        TokenChannel {
            capacity: capacity.max(1),
            latency,
            words_per_cycle,
            // A budgeted link starts empty-handed and earns its credits in
            // `begin_cycle`; an unthrottled one never runs out.
            credits: if words_per_cycle.is_finite() {
                0.0
            } else {
                f64::INFINITY
            },
            len: 0,
            pushed_total: 0,
            high_watermark: 0,
            arrivals: VecDeque::new(),
        }
    }

    /// Whether the channel has a bandwidth budget, i.e. needs
    /// [`TokenChannel::begin_cycle`] every cycle.
    pub(crate) fn throttled(&self) -> bool {
        self.words_per_cycle.is_finite()
    }

    /// Grant this cycle's bandwidth credits. Unused credits are capped at
    /// one cycle's worth (at least one word), so an idle link cannot bank a
    /// burst.
    pub(crate) fn begin_cycle(&mut self) {
        self.credits = (self.credits + self.words_per_cycle).min(self.words_per_cycle.max(1.0));
    }

    pub(crate) fn can_push(&self) -> bool {
        self.len < self.capacity && self.credits >= 1.0
    }

    /// Enter one word at cycle `now`; the caller has checked
    /// [`TokenChannel::can_push`].
    pub(crate) fn push(&mut self, now: u64) {
        debug_assert!(self.can_push());
        if self.latency > 0 {
            self.arrivals.push_back(now + self.latency);
        }
        self.credits -= 1.0;
        self.len += 1;
        self.pushed_total += 1;
        self.high_watermark = self.high_watermark.max(self.len);
    }

    /// Whether a word is buffered and its latency has elapsed.
    pub(crate) fn can_pop(&self, now: u64) -> bool {
        if self.latency == 0 {
            self.len > 0
        } else {
            self.arrivals.front().is_some_and(|&ready| ready <= now)
        }
    }

    /// Take the head word if it is visible at cycle `now`.
    pub(crate) fn try_pop(&mut self, now: u64) -> bool {
        let visible = self.can_pop(now);
        if visible {
            self.arrivals.pop_front();
            self.len -= 1;
        }
        visible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_core::channel::Fifo;

    /// Drive a token channel and a value-carrying `Fifo` with the same
    /// push/pop attempts and require the same answers and statistics.
    fn agree(capacity: usize, latency: u64, words_per_cycle: f64) {
        let mut token = TokenChannel::new(capacity, latency, words_per_cycle);
        let mut fifo = Fifo::new("c", capacity).with_latency(latency);
        if words_per_cycle.is_finite() {
            fifo = fifo.with_bandwidth(words_per_cycle);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for now in 0..400u64 {
            if token.throttled() {
                token.begin_cycle();
            }
            fifo.begin_cycle();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    assert_eq!(token.can_pop(now), fifo.can_pop(now));
                    assert_eq!(token.try_pop(now), fifo.pop(now).is_ok());
                } else {
                    assert_eq!(token.can_push(), fifo.can_push());
                    if token.can_push() {
                        token.push(now);
                        fifo.push(now, 0.0).unwrap();
                    }
                }
                assert_eq!(token.len, fifo.len());
            }
        }
        assert!(token.pushed_total > 0);
        assert_eq!(token.capacity, fifo.capacity());
        assert_eq!(token.pushed_total, fifo.pushed_total());
        assert_eq!(token.high_watermark, fifo.high_watermark());
    }

    #[test]
    fn token_channel_answers_like_the_value_fifo() {
        agree(4, 0, f64::INFINITY);
        agree(1, 0, f64::INFINITY);
        agree(9, 5, f64::INFINITY);
        agree(9, 5, 4.0);
        agree(6, 0, 0.3);
        agree(6, 3, 1.5);
    }
}
