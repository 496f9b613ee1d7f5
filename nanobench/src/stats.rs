//! Small numeric helpers: a seeded generator, quantiles and safe ratios.

/// SplitMix64: the benchmark's only source of input randomness, so one
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Quantile `q` in `[0, 1]` of `v` by nearest rank (sorts `v`). 0 for an
/// empty sample.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Log-linear histogram of nanosecond samples: exact below 128, then 64
/// buckets per power of two (under 1.6 % relative error), so a long
/// traced run keeps millions of per-task samples in a few KiB.
#[derive(Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < 64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as usize;
        64 * (e - 5) + ((v >> (e - 6)) & 63) as usize
    }

    fn lower(b: usize) -> u64 {
        if b < 64 {
            return b as u64;
        }
        (64 + (b % 64) as u64) << (b / 64 - 1)
    }

    pub fn add(&mut self, v: u64) {
        let b = Self::bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile (the lower edge of its bucket); 0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower(b) as f64;
            }
        }
        0.0
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when the base is 0 (a bypassed layer reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 { 0.0 } else { num / den }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.9), 90.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn hist_is_exact_when_small_and_close_when_large() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [5, 127, 128, 1000, 123_456_789] {
            let b = Hist::bucket(v);
            let lo = Hist::lower(b);
            assert!(lo <= v && v - lo <= v / 64, "{v} -> {lo}");
            assert!(Hist::lower(b + 1) > v, "{v}: next bucket starts above it");
            h.add(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.2), 5.0);
        assert_eq!(h.quantile(0.5), 128.0);
        assert_eq!(h.quantile(0.6), 128.0);
        assert_eq!(h.quantile(0.7), 1000.0);
    }
}
