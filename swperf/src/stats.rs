//! Order statistics and the small helpers every workload shares.

use std::time::Duration;

/// Quantile `q` of `xs` by linear interpolation between closest ranks
/// (`q = 0.5` is the median). `xs` need not be sorted; NaN for empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Traversed edges per second over operations `(edges, seconds)`: the
/// harmonic mean of the per-operation rates weighted by their edges,
/// i.e. total edges over total time. Where every operation traverses
/// the same component it equals Graph500's unweighted harmonic mean;
/// unlike that, an operation in a tiny component cannot collapse it.
pub fn teps(ops: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (e, t) = ops.fold((0.0, 0.0), |(e, t), (de, dt)| (e + de as f64, t + dt));
    e / t
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splitmix64: the benchmark's own seeded generator, so inputs depend
/// on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5157_5045_5246_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipf sampler over ranks `0..n` with `P(k) ∝ 1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Peak resident set of this process in MiB (`getrusage` high-water
/// mark).
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two `timeval`s, then fourteen `long`s), and
    // RUSAGE_SELF (0) only writes into the struct passed.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        // Rates 2 and 4 edges/s over 2 edges each: 4 edges in 1.5 s.
        assert!((teps([(2, 1.0), (2, 0.5)].into_iter()) - 4.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1024, 1.0);
        let mut rng = Rng::new(7);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // P(0) = 1 / H(1024) ≈ 0.133.
        assert!((1_100..1_550).contains(&head), "{head}");
    }
}
