//! Count-based channels of the timing loop.

use crate::forward;
use std::collections::VecDeque;

/// A bounded FIFO reduced to what a unit's control logic can observe: how
/// many words it holds, whether the head word has arrived, and whether the
/// link's bandwidth budget admits another word this cycle. Capacity, latency
/// and the fractional credit arithmetic are those of the value-carrying
/// `stencilflow_core::channel::Fifo`; the words themselves are never
/// carried (a completed run's outputs come from the reference executor).
#[derive(Debug, Clone)]
pub(crate) struct TokenChannel {
    pub(crate) capacity: usize,
    pub(crate) latency: u64,
    pub(crate) words_per_cycle: f64,
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

    /// Append the state a jump compares across a cycle (see
    /// [`crate::forward`]): occupancy, words pushed, watermark, credits.
    pub(crate) fn save(&self, into: &mut Vec<u64>) {
        let len = self.len as u64;
        let watermark = self.high_watermark as u64;
        into.extend([len, self.pushed_total, watermark, self.credits.to_bits()]);
    }

    /// For how many cycles from `now` on every question a unit asks of this
    /// channel gets the answer it got in the last cycle, which started from
    /// `saved`. Within a cycle the producer pushes before the consumer pops
    /// (see `Machines::run`), so the producer sees the occupancy the cycle
    /// started with and the consumer that plus this cycle's push.
    pub(crate) fn horizon(&self, saved: &mut &[u64], now: u64) -> u64 {
        let [len0, pushed0, watermark0, credits0] = forward::take(saved);
        if self.credits.to_bits() != credits0 {
            return 0;
        }
        let push = self.pushed_total - pushed0;
        let len = self.len as i64;
        let dlen = len - len0 as i64;
        let watermark = self.high_watermark as i64;
        let dwatermark = watermark - watermark0 as i64;
        // Room for the producer's word.
        let mut k = forward::holds_for(len, dlen, self.capacity as i64);
        if push == 1 {
            // Whether the push raises the watermark; while it does, the
            // watermark follows the occupancy.
            let over = len + 1 - watermark;
            if over >= 1 && dwatermark != dlen {
                return 0;
            }
            k = k.min(forward::holds_for(over, dlen - dwatermark, 1));
        }
        if self.latency == 0 {
            // A word for the consumer: this cycle's push counts.
            k.min(forward::holds_for(len + push as i64, dlen, 1))
        } else {
            let pop = push as i64 - dlen;
            let visible = self.visible_for(pop == 1, push as usize, now);
            k.min(forward::holds_for(len, dlen, 1)).min(visible)
        }
    }

    /// For how many cycles from `now` on a network link's head word stays
    /// visible or hidden as it was in the last cycle, which popped a word or
    /// not and pushed `push`. A popping link needs its queue consecutive —
    /// every word arriving the cycle after the one before it, tested on
    /// front, back and length — so the next head is as visible as this one.
    fn visible_for(&self, popping: bool, push: usize, now: u64) -> u64 {
        let (Some(&front), Some(&back)) = (self.arrivals.front(), self.arrivals.back()) else {
            // Empty, and stays so unless the occupancy says otherwise.
            return u64::MAX;
        };
        let consecutive = back - front + 1 == self.len as u64;
        if popping {
            if consecutive && front <= now {
                u64::MAX
            } else {
                0
            }
        } else if front > now {
            // In flight: the head lands at cycle `front`.
            front - now
        } else if front < now && self.len > push {
            // Landed before the last cycle, which held it already.
            u64::MAX
        } else {
            0
        }
    }

    /// Take the `k` cycles from `now` on, each like the last one, which
    /// started from `saved`; [`TokenChannel::horizon`] allowed them.
    pub(crate) fn advance(&mut self, saved: &mut &[u64], now: u64, k: u64) {
        let [len0, pushed0, watermark0, _] = forward::take(saved);
        let push = self.pushed_total - pushed0;
        let dlen = self.len as i64 - len0 as i64;
        let len = self.len as i64 + k as i64 * dlen;
        if self.latency > 0 {
            if push as i64 > dlen {
                // Popping: the queue was consecutive and stays so.
                if let Some(&front) = self.arrivals.front() {
                    self.arrivals.clear();
                    self.arrivals.extend(front + k..front + k + len as u64);
                }
            } else if push == 1 {
                // Filling behind a head still in flight: at most capacity words.
                let latency = self.latency;
                self.arrivals.extend((now..now + k).map(|t| t + latency));
            }
        }
        self.len = len as usize;
        self.pushed_total += k * push;
        self.high_watermark += (k * (self.high_watermark as u64 - watermark0)) as usize;
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
    fn a_link_whose_credits_move_allows_no_jump() {
        // Half a word per cycle: the link pushes every other cycle, and no
        // cycle leaves the credits where it found them.
        let mut link = TokenChannel::new(64, 3, 0.5);
        let mut saved = Vec::new();
        for now in 0..8 {
            saved.clear();
            link.save(&mut saved);
            link.begin_cycle();
            if link.can_push() {
                link.push(now);
            }
            assert_eq!(
                link.horizon(&mut saved.as_slice(), now + 1),
                0,
                "cycle {now}"
            );
        }
        assert_eq!(link.pushed_total, 4);
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
