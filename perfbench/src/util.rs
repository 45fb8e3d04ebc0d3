//! Small helpers: a seeded RNG, order statistics, pacing, host facts.

use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and good enough to generate workloads.
/// The same seed always yields the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A stateless per-message hash, so the publisher and the verifier can
/// both recompute message `i` of seed `seed` without sharing state.
pub fn mix(seed: u64, i: u64) -> Rng {
    let mut r = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i);
    r.next_u64();
    r
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Log-linear histogram of durations: 256 sub-buckets per power of two
/// of nanoseconds (under 0.4% error). Fixed size, so recording a sample
/// never allocates or copies and cannot stall the thread it measures.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; (64 * SUB + 2 * SUB) as usize],
            n: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let group = 63 - ns.leading_zeros() - SUB_BITS;
        (u64::from(group) * SUB + (ns >> group)) as usize
    }

    /// Midpoint of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * SUB {
            return i as f64;
        }
        let group = i / SUB - 1;
        let low = (i - group * SUB) << group;
        low as f64 + (1u64 << group) as f64 / 2.0
    }

    pub fn record_us(&mut self, us: f64) {
        let ns = (us.max(0.0) * 1e3).round() as u64;
        self.counts[Hist::index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile, in µs (0 when empty).
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Hist::value(i) / 1e3;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    percentile(&mut v, q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when there is no base to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Waits until `due` without burning a CPU the bus threads need: sleeps
/// while the deadline is far, yields when it is near.
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(400) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` in the working directory
/// when there is one (a source export has none).
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map_or_else(|| "unknown".into(), str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn hist_percentiles_are_within_half_a_percent() {
        let mut h = Hist::new();
        for us in 1..=10_000 {
            h.record_us(f64::from(us));
        }
        for (q, want) in [(0.5, 5_000.0), (0.99, 9_900.0), (1.0, 10_000.0)] {
            let got = h.percentile_us(q);
            assert!((got - want).abs() / want < 0.005, "p{q}: {got} vs {want}");
        }
        let mut sum = Hist::new();
        sum.merge(&h);
        sum.merge(&h);
        assert_eq!(sum.len(), 20_000);
        assert_eq!(Hist::new().percentile_us(0.5), 0.0);
        assert_eq!(Hist::value(Hist::index(300)), 300.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|i| mix(7, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| mix(7, i).next_u64()).collect();
        let c: Vec<u64> = (0..4).map(|i| mix(8, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
