//! Small numeric helpers: order statistics, a seeded generator, and the
//! word-wise FNV-1a checksum the oracles compare.

use std::time::Instant;

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`); the
/// lower of two candidates, so the value is always one that was measured.
/// An empty sample is a harness bug.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * p).floor() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `n / min / q1 / median / q3 / max`, as the human-readable report shows
/// for every timed sample.
pub fn summary(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "n=0".to_string();
    }
    format!(
        "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4}",
        samples.len(),
        percentile(samples, 0.0),
        percentile(samples, 0.25),
        percentile(samples, 0.5),
        percentile(samples, 0.75),
        percentile(samples, 1.0),
    )
}

/// `f`'s result and its wall time in microseconds.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (result, start.elapsed().as_secs_f64() * 1e6)
}

/// Median wall time of `runs` calls of `f`, in microseconds. Results pass
/// through `black_box` so the measured call cannot be optimised away.
pub fn median_us<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..runs.max(1)).map(|_| time_us(&mut f).1).collect();
    median(&samples)
}

/// SplitMix64, the generator the repository's own input data uses; every
/// draw of a workload comes from one of these seeded with `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for ix in (1..items.len()).rev() {
            items.swap(ix, self.below(ix as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over 64-bit words rather than bytes, with bulk data folded
/// through four independent lanes, so a checksum of a 2 M-cell grid stays a
/// few per cent of the sweep it checks.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(FNV_PRIME);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// Every value's bit pattern, in order.
    pub fn f64s(&mut self, values: &[f64]) {
        // One multiply chain per lane instead of one for the whole grid.
        let mut lanes = [
            self.0,
            !self.0,
            self.0.rotate_left(17),
            self.0.rotate_left(41),
        ];
        let chunks = values.chunks_exact(4);
        let rest = chunks.remainder();
        for chunk in chunks {
            for (lane, value) in lanes.iter_mut().zip(chunk) {
                *lane = (*lane ^ value.to_bits()).wrapping_mul(FNV_PRIME);
            }
        }
        for lane in lanes {
            self.word(lane);
        }
        for value in rest {
            self.word(value.to_bits());
        }
    }

    /// Every flag, eight to a word.
    pub fn bools(&mut self, flags: &[bool]) {
        for chunk in flags.chunks(8) {
            self.word(
                chunk
                    .iter()
                    .fold(1u64, |word, &flag| word << 1 | u64::from(flag)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_measured_values() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0, 6.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 0.9), 5.0);
        assert_eq!(percentile(&samples, 1.0), 6.0);
    }

    #[test]
    fn checksum_sees_every_bit_and_every_flag() {
        let sum = |values: &[f64], flags: &[bool]| {
            let mut fnv = Fnv::new();
            fnv.f64s(values);
            fnv.bools(flags);
            fnv.0
        };
        let values: Vec<f64> = (0..11).map(|i| i as f64 * 0.5).collect();
        let flags = vec![true; 11];
        let reference = sum(&values, &flags);
        for ix in 0..values.len() {
            let mut changed = values.clone();
            changed[ix] = f64::from_bits(changed[ix].to_bits() ^ 1);
            assert_ne!(sum(&changed, &flags), reference, "value {ix}");
            let mut masked = flags.clone();
            masked[ix] = false;
            assert_ne!(sum(&values, &masked), reference, "flag {ix}");
        }
        // -0.0 and 0.0 compare equal but are different outputs.
        assert_ne!(sum(&[0.0], &[]), sum(&[-0.0], &[]));
        // Trailing flags are not lost in a short last word.
        assert_ne!(sum(&[], &[true]), sum(&[], &[true, false]));
    }

    #[test]
    fn the_generator_is_seeded() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut items: Vec<u32> = (0..24).collect();
            rng.shuffle(&mut items);
            items
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<u32>>());
    }
}
