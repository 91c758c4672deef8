//! Exact jumps over linear stretches of the timing loop.
//!
//! Every decision a cycle makes is a comparison of a count against a
//! constant — a port's consumed words against what its cell requires, a
//! unit's produced cells against the domain, a channel's occupancy against
//! zero, its capacity or its watermark, a writer's words against the
//! domain, a network link's head arrival against the clock — or reads a
//! bandwidth credit. Say a cycle moved every count by `delta` and left
//! every credit where it was, bit for bit. The next cycle starts from the
//! old state plus `delta`; if it makes the same decisions, it moves every
//! count by `delta` again. Each compared count is then linear in the cycle
//! number `i`, so a comparison that had one answer in the last cycle
//! (`i = -1`) keeps it up to the first `i` at which the count crosses its
//! constant ([`holds_for`]), and the minimum over all comparisons is how
//! many cycles repeat the last one exactly. The loop adds that many times
//! `delta` to every count in one step and goes on stepping from there: the
//! state it lands on is the one stepping would have reached, so every
//! statistic of a run stays exact.
//!
//! A credit that changes across a cycle (a fractional bandwidth budget
//! repeats only every few cycles) stops a jump; such stretches are stepped.

/// For how many cycles `i = 0, 1, ...` the comparison `q + i·dq >= t` keeps
/// the answer it had in the last cycle, `i = -1` (`u64::MAX`: for ever).
pub(crate) fn holds_for(q: i64, dq: i64, t: i64) -> u64 {
    let before = q - dq >= t;
    match dq.signum() {
        0 => u64::MAX,
        1 if before => u64::MAX,
        -1 if !before => u64::MAX,
        // Rising towards `t`: the cycles before `q + i·dq` reaches it.
        1 => ((t - q).max(0) as u64).div_ceil(dq as u64),
        // Falling towards `t`: the cycles it stays at or above it.
        _ if q < t => 0,
        _ => (q - t) as u64 / dq.unsigned_abs() + 1,
    }
}

/// The next `N` saved counts of a component, in the order it saved them.
pub(crate) fn take<const N: usize>(saved: &mut &[u64]) -> [u64; N] {
    let (head, tail) = saved
        .split_first_chunk::<N>()
        .expect("a component reads back what it saved");
    *saved = tail;
    *head
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form against trying every cycle.
    #[test]
    fn holds_for_counts_the_cycles_a_comparison_keeps_its_answer() {
        for q in -6..6i64 {
            for dq in -3..=3i64 {
                for t in -4..4i64 {
                    let answer = |i: i64| q + i * dq >= t;
                    let counted = (0..64).take_while(|&i| answer(i) == answer(-1)).count();
                    let expected = if counted == 64 {
                        u64::MAX
                    } else {
                        counted as u64
                    };
                    assert_eq!(holds_for(q, dq, t), expected, "q {q}, dq {dq}, t {t}");
                }
            }
        }
    }
}
