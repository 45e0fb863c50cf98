//! Jittered exponential backoff for reconnect loops (join retries in
//! [`crate::rendezvous`], `dim-serve` client connects).

use std::time::Duration;

use dim_graph::rng::Rng;

/// Delays double from `base` up to `cap`, each drawn uniformly from
/// `[base/2, base]` so a fleet of clients restarted together does not
/// hammer the server in lockstep. The jitter stream is a pure function of
/// the seed, which keeps tests reproducible.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: Rng,
}

impl Backoff {
    /// A fresh schedule whose jitter stream is derived from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            rng: Rng::new(seed),
        }
    }

    /// The next delay to sleep: jittered from the current base, which
    /// then doubles (capped).
    pub fn next_delay(&mut self) -> Duration {
        let base_ns = self.base.as_nanos() as u64;
        let jittered = base_ns / 2 + self.rng.next_u64() % (base_ns / 2 + 1);
        self.base = (self.base * 2).min(self.cap);
        Duration::from_nanos(jittered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitters_within_bounds_and_doubles() {
        let cap = Duration::from_millis(400);
        let mut backoff = Backoff::new(Duration::from_millis(50), cap, 7);
        let mut base = Duration::from_millis(50);
        for _ in 0..8 {
            let d = backoff.next_delay();
            assert!(
                d >= base / 2 && d <= base,
                "{d:?} outside [{:?}, {base:?}]",
                base / 2
            );
            base = (base * 2).min(cap);
        }
        // Deterministic given the seed; different seeds diverge.
        let first = |seed| Backoff::new(cap, cap, seed).next_delay();
        assert_eq!(first(1), first(1));
        assert_ne!(first(1), first(2));
    }
}
