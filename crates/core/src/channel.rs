//! Bounded FIFO channels connecting simulated units.
//!
//! The cycle-level simulator (`stencilflow-sim`) models this channel: its
//! timing loop with a count-only twin (`TokenChannel`) that follows this
//! type's capacity, latency and credit rules, its value-carrying test
//! oracle with [`Fifo`] itself. Those are [`Fifo`]'s remaining users — the
//! simulator's `#[cfg(test)]` oracle and `TokenChannel`'s equivalence
//! test; the sharded runtime (`stencilflow_reference::shard`) queues whole
//! frames on links of its own.

use std::collections::VecDeque;
use std::fmt;

/// Typed misuse error returned by [`Fifo::push`] and [`Fifo::pop`].
///
/// Every variant names the channel so a stalled or misbehaving design can
/// report exactly which edge failed instead of dying in an assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A push was attempted while the queue already held `capacity` words.
    Full {
        /// Channel name.
        channel: String,
        /// Configured capacity in words.
        capacity: usize,
    },
    /// A push was attempted without a full bandwidth credit available.
    OutOfCredits {
        /// Channel name.
        channel: String,
    },
    /// A pop was attempted on a channel holding no words at all.
    Empty {
        /// Channel name.
        channel: String,
    },
    /// A pop was attempted before the head word's latency elapsed.
    NotReady {
        /// Channel name.
        channel: String,
        /// The cycle of the attempted pop.
        now: u64,
        /// The cycle at which the head word becomes visible.
        ready_at: u64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Full { channel, capacity } => {
                write!(f, "push into full channel `{channel}` (capacity {capacity})")
            }
            ChannelError::OutOfCredits { channel } => {
                write!(f, "push into channel `{channel}` without bandwidth credits")
            }
            ChannelError::Empty { channel } => write!(f, "pop from empty channel `{channel}`"),
            ChannelError::NotReady {
                channel,
                now,
                ready_at,
            } => write!(
                f,
                "pop from channel `{channel}` at cycle {now} before its head word is ready (cycle {ready_at})"
            ),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A bounded FIFO carrying scalar elements between two units.
///
/// Channels model the Intel OpenCL `channel` / hardware FIFO used by the
/// generated designs: a producer can push only while the FIFO has space, a
/// consumer can pop only while it is non-empty. An optional fixed latency
/// models network links (SMI remote streams), and an optional bandwidth
/// budget throttles how many words may enter the channel per cycle.
///
/// # Credit / bandwidth contract
///
/// * An **unthrottled** channel ([`Fifo::new`]) holds unlimited credits:
///   pushes succeed whenever capacity allows, with or without
///   [`Fifo::begin_cycle`] ever being called.
/// * Attaching a budget via [`Fifo::with_bandwidth`] **resets the credit
///   pool to zero**; thereafter [`Fifo::begin_cycle`] must be called once
///   per simulated cycle to grant `words_per_cycle` new credits.
///   Fractional budgets accumulate across cycles, capped at
///   `max(words_per_cycle, 1.0)` so an idle link cannot bank an unbounded
///   burst.
/// * Each successful push consumes exactly one credit; a push without a
///   full credit fails with [`ChannelError::OutOfCredits`], never silently.
/// * Misuse is **not** a panic: [`Fifo::push`] and [`Fifo::pop`] return a
///   typed [`ChannelError`] and leave the channel state untouched, so
///   callers can treat a failed transfer as back-pressure (the simulator's
///   units check [`Fifo::can_push`] / [`Fifo::can_pop`] first and treat an
///   error as a stall).
#[derive(Debug, Clone)]
pub struct Fifo {
    name: String,
    capacity: usize,
    latency: u64,
    words_per_cycle: f64,
    queue: VecDeque<(u64, f64)>,
    credits: f64,
    pushed_total: u64,
    high_watermark: usize,
}

impl Fifo {
    /// Create a FIFO with the given capacity (in words).
    ///
    /// Unthrottled channels start with unlimited bandwidth credits, so a
    /// push is possible immediately — [`Fifo::begin_cycle`] only matters
    /// once a bandwidth budget is attached via [`Fifo::with_bandwidth`].
    pub fn new(name: &str, capacity: usize) -> Self {
        Fifo {
            name: name.to_string(),
            capacity: capacity.max(1),
            latency: 0,
            words_per_cycle: f64::INFINITY,
            queue: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            credits: f64::INFINITY,
            pushed_total: 0,
            high_watermark: 0,
        }
    }

    /// Add a fixed latency (cycles) before pushed words become visible —
    /// used for inter-device network channels.
    pub fn with_latency(mut self, latency: u64) -> Self {
        self.latency = latency;
        self
    }

    /// Limit how many words can enter the channel per cycle (may be
    /// fractional; credits accumulate) — used for bandwidth-limited links.
    /// Credits start at zero and are granted by [`Fifo::begin_cycle`].
    pub fn with_bandwidth(mut self, words_per_cycle: f64) -> Self {
        self.words_per_cycle = words_per_cycle;
        self.credits = if words_per_cycle.is_finite() {
            0.0
        } else {
            f64::INFINITY
        };
        self
    }

    /// Channel name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of words currently buffered (visible or not).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the channel currently holds no words.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self) -> bool {
        self.queue.len() < self.capacity && self.credits >= 1.0
    }

    /// Whether a pop at the given cycle would succeed (a word is present and
    /// its latency has elapsed).
    pub fn can_pop(&self, now: u64) -> bool {
        self.queue
            .front()
            .map(|&(ready, _)| ready <= now)
            .unwrap_or(false)
    }

    /// Grant this cycle's bandwidth credits; called once per simulation
    /// cycle.
    pub fn begin_cycle(&mut self) {
        if self.words_per_cycle.is_finite() {
            self.credits = (self.credits + self.words_per_cycle).min(self.words_per_cycle.max(1.0));
        } else {
            self.credits = f64::INFINITY;
        }
    }

    /// Push a word at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Full`] when the queue is at capacity and
    /// [`ChannelError::OutOfCredits`] when the bandwidth budget is
    /// exhausted for this cycle; the channel state is unchanged in both
    /// cases. Check [`Fifo::can_push`] to avoid the error path entirely.
    pub fn push(&mut self, now: u64, value: f64) -> Result<(), ChannelError> {
        if self.queue.len() >= self.capacity {
            return Err(ChannelError::Full {
                channel: self.name.clone(),
                capacity: self.capacity,
            });
        }
        if self.credits < 1.0 {
            return Err(ChannelError::OutOfCredits {
                channel: self.name.clone(),
            });
        }
        self.queue.push_back((now + self.latency, value));
        self.credits -= 1.0;
        self.pushed_total += 1;
        self.high_watermark = self.high_watermark.max(self.queue.len());
        Ok(())
    }

    /// Pop the oldest visible word at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::Empty`] when no word is buffered at all and
    /// [`ChannelError::NotReady`] when the head word's latency has not
    /// elapsed yet; the channel state is unchanged in both cases. Check
    /// [`Fifo::can_pop`] to avoid the error path entirely.
    pub fn pop(&mut self, now: u64) -> Result<f64, ChannelError> {
        match self.queue.front() {
            None => Err(ChannelError::Empty {
                channel: self.name.clone(),
            }),
            Some(&(ready_at, _)) if ready_at > now => Err(ChannelError::NotReady {
                channel: self.name.clone(),
                now,
                ready_at,
            }),
            Some(_) => Ok(self.queue.pop_front().expect("checked above").1),
        }
    }

    /// Total words pushed over the run.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Highest occupancy observed (words).
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo_order() {
        let mut fifo = Fifo::new("c", 4);
        fifo.begin_cycle();
        fifo.push(0, 1.0).unwrap();
        fifo.push(0, 2.0).unwrap();
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.pop(0).unwrap(), 1.0);
        assert_eq!(fifo.pop(0).unwrap(), 2.0);
        assert!(fifo.is_empty());
        assert_eq!(fifo.pushed_total(), 2);
    }

    #[test]
    fn capacity_limits_pushes() {
        let mut fifo = Fifo::new("c", 2);
        fifo.begin_cycle();
        fifo.push(0, 1.0).unwrap();
        fifo.push(0, 2.0).unwrap();
        assert!(!fifo.can_push());
        assert_eq!(fifo.high_watermark(), 2);
    }

    #[test]
    fn latency_delays_visibility() {
        let mut fifo = Fifo::new("net", 8).with_latency(5);
        fifo.begin_cycle();
        fifo.push(0, 1.0).unwrap();
        assert!(!fifo.can_pop(0));
        assert!(!fifo.can_pop(4));
        assert!(fifo.can_pop(5));
        assert_eq!(fifo.pop(5).unwrap(), 1.0);
    }

    #[test]
    fn unthrottled_channels_accept_pushes_before_any_cycle() {
        // Regression: freshly constructed unthrottled channels used to start
        // with zero bandwidth credits, rejecting pushes until the first
        // `begin_cycle` even though no bandwidth budget was configured.
        let mut fifo = Fifo::new("c", 4);
        assert!(fifo.can_push());
        fifo.push(0, 1.0).unwrap();
        assert_eq!(fifo.pop(0).unwrap(), 1.0);
        // Latency does not interact with credits either.
        let mut delayed = Fifo::new("net", 4).with_latency(2);
        assert!(delayed.can_push());
        delayed.push(0, 2.0).unwrap();
        assert_eq!(delayed.pop(2).unwrap(), 2.0);
    }

    #[test]
    fn bandwidth_limited_channels_still_wait_for_credits() {
        // Attaching a bandwidth budget resets the credit pool: no push until
        // `begin_cycle` grants the first credit.
        let mut fifo = Fifo::new("link", 4).with_bandwidth(1.0);
        assert!(!fifo.can_push());
        fifo.begin_cycle();
        assert!(fifo.can_push());
    }

    #[test]
    fn bandwidth_credits_throttle_pushes() {
        let mut fifo = Fifo::new("link", 64).with_bandwidth(0.5);
        fifo.begin_cycle(); // credits = 0.5
        assert!(!fifo.can_push());
        fifo.begin_cycle(); // credits = 1.0
        assert!(fifo.can_push());
        fifo.push(1, 3.0).unwrap();
        assert!(!fifo.can_push());
    }

    #[test]
    fn misuse_returns_typed_errors_and_leaves_state_untouched() {
        // Pop from a channel that never held a word.
        let mut fifo = Fifo::new("c", 2);
        assert_eq!(
            fifo.pop(0),
            Err(ChannelError::Empty {
                channel: "c".to_string()
            })
        );
        // Pop before the head word's latency elapsed.
        let mut net = Fifo::new("net", 2).with_latency(3);
        net.push(0, 1.0).unwrap();
        assert_eq!(
            net.pop(1),
            Err(ChannelError::NotReady {
                channel: "net".to_string(),
                now: 1,
                ready_at: 3,
            })
        );
        assert_eq!(net.len(), 1, "failed pop must not consume the word");
        assert_eq!(net.pop(3).unwrap(), 1.0);
        // Push into a full channel.
        let mut full = Fifo::new("f", 1);
        full.push(0, 1.0).unwrap();
        assert_eq!(
            full.push(0, 2.0),
            Err(ChannelError::Full {
                channel: "f".to_string(),
                capacity: 1,
            })
        );
        assert_eq!(full.pushed_total(), 1, "failed push must not count");
        // Push without a bandwidth credit.
        let mut link = Fifo::new("link", 4).with_bandwidth(1.0);
        assert_eq!(
            link.push(0, 1.0),
            Err(ChannelError::OutOfCredits {
                channel: "link".to_string()
            })
        );
        assert!(link.is_empty());
        // The errors render the channel name for diagnostics.
        let message = ChannelError::Full {
            channel: "b0->b1".to_string(),
            capacity: 8,
        }
        .to_string();
        assert!(message.contains("b0->b1"));
    }
}
