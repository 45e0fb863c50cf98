//! Serving-side observability: a lock-free latency histogram and the
//! [`ServeMetrics`] summary.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets in [`LatencyHistogram`].
const BUCKETS: usize = 256;
/// Values below this (µs) get one exact bucket each.
const LINEAR: u64 = 16;
/// Log-linear sub-buckets per octave above the linear range.
const SUBS: usize = 4;

/// A fixed-size log-linear histogram of microsecond latencies.
///
/// Values `< 16 µs` land in exact unit buckets; above that each power of
/// two splits into 4 sub-buckets, so quantile estimates carry at most
/// ~25 % relative error while the whole histogram is 256 atomic counters
/// — recording is two relaxed atomic ops, no locks, safe on the query
/// hot path.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Exact maximum ever recorded (the top bucket only bounds below).
    max: AtomicU64,
}

/// Bucket index for a value in µs.
fn bucket_of(us: u64) -> usize {
    if us < LINEAR {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros() as usize; // ≥ 4
    let sub = ((us >> (msb - 2)) & 3) as usize;
    (LINEAR as usize + (msb - 4) * SUBS + sub).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `b` — what quantiles report, so an
/// estimate never undershoots the true latency of the ranked sample.
fn upper_bound(b: usize) -> u64 {
    if b < LINEAR as usize {
        return b as u64;
    }
    let msb = 4 + (b - LINEAR as usize) / SUBS;
    let sub = ((b - LINEAR as usize) % SUBS) as u64;
    (1u64 << msb) + (sub + 1) * (1u64 << (msb - 2)) - 1
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in µs: the upper bound of the bucket
    /// holding the sample of that rank, except the exact maximum for the
    /// unbounded top bucket. 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == BUCKETS - 1 {
                    self.max.load(Ordering::Relaxed)
                } else {
                    upper_bound(b).min(self.max.load(Ordering::Relaxed))
                };
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (exact).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Adds every sample of `other` into `self` — how the admin
    /// all-tenants view aggregates per-tenant histograms into one
    /// daemon-wide quantile estimate.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// A point-in-time summary of a running server, exposed (in part) through
/// `REQ_STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Store generation currently serving.
    pub active_generation: u64,
    /// Queries answered (batch entries each count once).
    pub queries_answered: u64,
    /// `REQ_BATCH` frames answered.
    pub batches_answered: u64,
    /// Successful hot reloads (sketch actually swapped).
    pub reloads: u64,
    /// Connections refused with `ERR_OVERLOADED`.
    pub shed: u64,
    /// Requests refused with `ERR_QUOTA` (per-tenant limits; the
    /// connection survives, unlike `shed`).
    pub quota_shed: u64,
    /// Connections currently registered (live or awaiting a worker).
    pub live_connections: u64,
    /// Query-latency percentiles and maximum, µs.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0;
        for us in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 1 << 30, u64::MAX] {
            let b = bucket_of(us);
            assert!(b >= prev, "bucket order violated at {us}");
            assert!(b < BUCKETS);
            prev = b;
            // Every value is ≤ its bucket's upper bound (top bucket aside).
            if b < BUCKETS - 1 {
                assert!(us <= upper_bound(b), "us {us} > upper {}", upper_bound(b));
            }
        }
        // Upper bounds are strictly increasing.
        for b in 1..BUCKETS - 1 {
            assert!(upper_bound(b) > upper_bound(b - 1), "bucket {b}");
        }
    }

    #[test]
    fn quantiles_bound_true_values() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count(), 1000);
        // True p50 = 500, p99 = 990; estimates are ≥ truth and within the
        // ~25 % bucket error.
        let p50 = h.quantile(0.5);
        assert!((500..=625).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1250).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max(), 1000);
        // p100 never exceeds the recorded maximum.
        assert!(h.quantile(1.0) <= 1000);
    }

    #[test]
    fn merge_accumulates_counts_and_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for us in [3u64, 10, 100] {
            a.record(us);
        }
        for us in [5u64, 900] {
            b.record(us);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), 900);
        assert_eq!(a.quantile(1.0), 900);
    }

    #[test]
    fn small_exact_range_is_exact() {
        let h = LatencyHistogram::new();
        for us in [3u64, 3, 3, 9] {
            h.record(us);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 9);
    }
}
