//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile (`q` in 0..=1) of `xs`; 0 when empty.
/// Infinite samples (failed requests) sort last, so they count as missing
/// any latency limit.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `(completed at, latency)` samples grouped by the one-second window of
/// a timed phase of `seconds` in which each completed. Completions after
/// the phase fall in its last window; windows without one are dropped.
pub fn by_second(done: impl IntoIterator<Item = (f64, f64)>, seconds: f64) -> Vec<Vec<f64>> {
    let n = (seconds.floor() as usize).max(1);
    let mut windows = vec![Vec::new(); n];
    for (at, x) in done {
        windows[(at as usize).min(n - 1)].push(x);
    }
    windows.retain(|w| !w.is_empty());
    windows
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Deterministic 64-bit mixer (splitmix64): derives independent per-use
/// seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator for schedules (xorshift64*).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed, 0x5eed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, f64::INFINITY], 0.99), f64::INFINITY);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_by_completion_second() {
        let w = by_second([(0.2, 1.0), (0.9, 2.0), (2.5, 3.0), (7.0, 4.0)], 3.0);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
