//! Open-loop machinery and summary statistics, all in simulated cycles.
//!
//! Arrivals are seeded Poisson times on the simulated clock, so the load
//! generator can never run late: every op is timed from the instant it
//! was due.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Simulated cycles per second (the modelled CPU clock).
pub const HZ: f64 = ksim::cost::CYCLES_PER_SEC as f64;

/// Microseconds of simulated time in `cycles`.
pub fn cycles_to_us(cycles: u64) -> f64 {
    cycles as f64 * 1e6 / HZ
}

/// `n` Poisson arrival times of a unit-rate process, in seconds. Scaling
/// by `1/rate` gives the same stream at any rate, so one draw serves a
/// whole rate ladder.
pub fn unit_arrivals(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1]: never ln(0).
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            t -= u.ln();
            t
        })
        .collect()
}

/// Unit-rate arrivals as cycle times at `rate` ops per simulated second.
pub fn at_rate(unit: &[f64], rate: f64) -> Vec<u64> {
    unit.iter().map(|&t| (t * HZ / rate) as u64).collect()
}

/// Nearest-rank position of percentile `p` among `n` samples, or `None`
/// unless at least ten samples lie beyond it (a tail needs ten
/// witnesses).
fn rank(n: usize, p: f64) -> Option<usize> {
    // The epsilon keeps 99.9% of 10,000 at rank 9,990 despite rounding.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    (n > 0 && n - rank.min(n) >= 10).then_some(rank)
}

/// Percentile `p` of `samples` (any order), or `None` without ten samples
/// beyond it.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    let r = rank(samples.len(), p)?;
    let mut v = samples.to_vec();
    Some(*v.select_nth_unstable(r - 1).1)
}

/// The highest of `candidates` (ascending percentiles) that `n` samples
/// support with at least ten samples beyond it.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| rank(n, p).is_some())
}

/// Latencies of one open-loop run plus whether its backlog kept growing.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Per-op latency from due time to completion, in cycles.
    pub lat: Vec<u64>,
    /// Ops due but not yet complete when the last one arrived (the worst
    /// of pooled runs).
    pub backlog_at_end: usize,
    /// Ops in one run.
    pub run_len: usize,
}

impl LoadResult {
    pub fn new(lat: Vec<u64>, backlog_at_end: usize) -> Self {
        LoadResult {
            run_len: lat.len(),
            lat,
            backlog_at_end,
        }
    }

    /// Runs of one service sequence under different arrival streams, as
    /// one distribution.
    pub fn pooled(runs: Vec<LoadResult>) -> Self {
        let backlog = runs.iter().map(|r| r.backlog_at_end).max().unwrap_or(0);
        let run_len = runs.first().map_or(0, |r| r.run_len);
        let mut r = LoadResult::new(runs.into_iter().flat_map(|r| r.lat).collect(), backlog);
        r.run_len = run_len;
        r
    }

    /// A stable queue holds O(1/(1-ρ)) ops; one that grows holds a share
    /// of the whole run by its end.
    pub fn backlog_grew(&self) -> bool {
        self.backlog_at_end > (self.run_len / 100).max(16)
    }

    pub fn p(&self, pct: f64) -> Option<u64> {
        percentile(&self.lat, pct)
    }

    /// Within `p99_limit_us` with a bounded backlog.
    pub fn meets(&self, p99_limit_us: f64) -> bool {
        !self.backlog_grew()
            && self
                .p(99.0)
                .is_some_and(|c| cycles_to_us(c) <= p99_limit_us)
    }
}

/// Replay a single-server FIFO queue: op `i` arrives at `arrivals[i]` and
/// holds the server for `service[i]` cycles once it reaches the head.
pub fn fifo_replay(arrivals: &[u64], service: &[u64]) -> LoadResult {
    assert_eq!(arrivals.len(), service.len());
    let mut free_at = 0u64;
    let mut done = Vec::with_capacity(service.len());
    for (&a, &s) in arrivals.iter().zip(service) {
        free_at = free_at.max(a) + s;
        done.push(free_at);
    }
    let last = arrivals.last().copied().unwrap_or(0);
    let backlog = done.iter().filter(|&&d| d > last).count();
    let lat = done.iter().zip(arrivals).map(|(d, a)| d - a).collect();
    LoadResult::new(lat, backlog)
}

/// The batching server's admission rule: when it frees at `now`, it takes
/// every queued arrival already due, oldest first, up to `cap`. Returns
/// the end of the admitted range starting at `next`.
pub fn admit(arrivals: &[u64], next: usize, now: u64, cap: usize) -> usize {
    let due = arrivals[next..].partition_point(|&a| a <= now);
    next + due.min(cap)
}

/// Median of host-time samples; 0 for none.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over a byte stream; the determinism fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A metric or layer name the result line may carry.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_replay_gives_known_latencies() {
        // Arrivals 0, 10, 20, 100; services 15, 15, 5, 1.
        // Completions: 15, 30, 35, 101 → latencies 15, 20, 15, 1.
        let r = fifo_replay(&[0, 10, 20, 100], &[15, 15, 5, 1]);
        assert_eq!(r.lat, vec![15, 20, 15, 1]);
        assert_eq!(
            r.backlog_at_end, 1,
            "only the last op is in flight at its arrival"
        );
        assert!(!r.backlog_grew());
    }

    #[test]
    fn fifo_replay_flags_a_growing_backlog() {
        // Service 2 per op at one arrival per cycle: the queue grows
        // without bound.
        let n = 4000;
        let arrivals: Vec<u64> = (0..n as u64).collect();
        let r = fifo_replay(&arrivals, &vec![2; n]);
        assert!(r.backlog_at_end > n / 3);
        assert!(r.backlog_grew());
        assert!(!r.meets(f64::MAX));
        // Service 1 per op keeps up.
        let r = fifo_replay(&arrivals, &vec![1; n]);
        assert_eq!(r.backlog_at_end, 1);
        assert!(r.meets(f64::MAX));
    }

    #[test]
    fn pooling_keeps_the_per_run_backlog_rule() {
        let arrivals: Vec<u64> = (0..4000).collect();
        let slow = fifo_replay(&arrivals, &vec![2; 4000]);
        let fine = fifo_replay(&arrivals, &vec![1; 4000]);
        let p = LoadResult::pooled(vec![fine.clone(), slow, fine]);
        assert_eq!(p.lat.len(), 12_000);
        assert_eq!(p.run_len, 4000);
        assert!(p.backlog_grew(), "one growing run is enough");
    }

    #[test]
    fn admission_takes_exactly_the_due_arrivals() {
        let arr = [5, 10, 10, 30, 31, 50];
        assert_eq!(admit(&arr, 0, 4, 8), 0, "nothing due yet");
        assert_eq!(admit(&arr, 0, 10, 8), 3, "due at exactly now is admitted");
        assert_eq!(admit(&arr, 0, 10, 2), 2, "capped at the ring size");
        assert_eq!(
            admit(&arr, 3, 40, 8),
            5,
            "starts at the first unserved arrival"
        );
        assert_eq!(admit(&arr, 5, 1000, 8), 6);
        assert_eq!(admit(&arr, 6, 1000, 8), 6, "none left");
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let mut v: Vec<u64> = (1..=1000).collect();
        v.reverse();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        assert_eq!(percentile(&v, 99.9), None, "only one sample beyond p99.9");
        assert_eq!(highest_supported(1000, &[50.0, 99.0, 99.9]), Some(99.0));
        assert_eq!(highest_supported(10_000, &[50.0, 99.0, 99.9]), Some(99.9));
        assert_eq!(highest_supported(9_999, &[50.0, 99.0, 99.9]), Some(99.0));
        assert_eq!(highest_supported(15, &[50.0, 99.0]), None);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_hit_the_rate() {
        let a = at_rate(&unit_arrivals(7, 20_000), 1000.0);
        assert_eq!(a, at_rate(&unit_arrivals(7, 20_000), 1000.0));
        assert_ne!(a, at_rate(&unit_arrivals(8, 20_000), 1000.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / (*a.last().unwrap() as f64 / HZ);
        assert!((rate - 1000.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn metric_names_are_well_formed() {
        for n in crate::report::metric_names() {
            assert!(valid_name(n), "{n}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }
}
