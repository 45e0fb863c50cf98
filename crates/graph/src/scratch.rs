//! Reusable epoch-stamped flags: the workspace's one visited set.
//!
//! RR-set samplers and forward simulation mark visited nodes, and every
//! coverage path labels covered elements ([`EpochFlags::set_all`]). Clearing
//! a boolean array per sample or per query would cost O(n) each time; an
//! epoch-stamped array clears in O(1) (bump the epoch), and a thread-local
//! pool ([`with_flags`]) makes the buffer survive across invocations, so
//! repeated queries stop allocating entirely once warm.

use std::cell::RefCell;

/// O(1)-clearable boolean flags over indices `0..len`, cleared by bumping
/// an epoch instead of sweeping the array.
#[derive(Clone, Debug, Default)]
pub struct EpochFlags {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochFlags {
    /// Creates flags for `n` indices, all unset.
    pub fn new(n: usize) -> Self {
        EpochFlags {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of tracked indices.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// True when no indices are tracked.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Grows the tracked range to at least `n` indices (new indices unset).
    /// Never shrinks, so a pooled instance keeps its largest allocation.
    fn grow(&mut self, n: usize) {
        if n > self.stamp.len() {
            self.stamp.resize(n, 0);
        }
    }

    /// Unsets every flag and grows the tracked range to at least `n`.
    #[inline]
    pub fn reset(&mut self, n: usize) {
        self.grow(n);
        self.clear();
    }

    /// Unsets every flag in amortized O(1) (a full sweep happens once per
    /// `u32::MAX` clears to survive epoch wraparound).
    #[inline]
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Sets flag `i`. Returns `true` if it was previously unset. The stamp
    /// is stored unconditionally, so counting loops can add the result
    /// instead of branching on it.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        let slot = &mut self.stamp[i];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }

    /// True when flag `i` is set.
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    /// Sets every flag in `ids` and returns how many were unset: a seed's
    /// newly covered elements (Algorithm 1, lines 17 and 21). Counting adds
    /// each [`set`](Self::set) result, with no branch on it.
    #[inline]
    pub fn set_all(&mut self, ids: &[u32]) -> usize {
        ids.iter().filter(|&&i| self.set(i as usize)).count()
    }

    /// How many flags in `ids` are unset, changing none: a seed's marginal
    /// over its element list (Algorithm 1, line 16).
    #[inline]
    pub fn count_unset(&self, ids: &[u32]) -> usize {
        ids.iter().filter(|&&i| !self.is_set(i as usize)).count()
    }
}

thread_local! {
    static POOL: RefCell<EpochFlags> = RefCell::new(EpochFlags::default());
}

/// Runs `f` with a cleared thread-local [`EpochFlags`] covering `0..n`.
///
/// The buffer persists across calls on the same thread, so steady-state
/// invocations perform no allocation (it only grows toward the largest `n`
/// seen). Re-entrant: a nested call simply gets a fresh buffer for its own
/// scope instead of aliasing the outer one.
pub fn with_flags<T>(n: usize, f: impl FnOnce(&mut EpochFlags) -> T) -> T {
    let mut flags = POOL.with(|cell| cell.take());
    flags.reset(n);
    let out = f(&mut flags);
    POOL.with(|cell| {
        // Keep the larger buffer if a nested call left one behind.
        if cell.borrow().len() <= flags.len() {
            cell.replace(flags);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_query_clear() {
        let mut f = EpochFlags::new(4);
        assert!(!f.is_set(2));
        assert!(f.set(2));
        assert!(!f.set(2), "second set reports already-set");
        assert!(f.is_set(2));
        f.clear();
        assert!(!f.is_set(2));
        assert_eq!(f.len(), 4);
        assert!(!f.is_empty());
    }

    #[test]
    fn grow_keeps_existing_flags() {
        let mut f = EpochFlags::new(2);
        f.set(1);
        f.grow(5);
        assert!(f.is_set(1));
        assert!(!f.is_set(4));
        assert_eq!(f.len(), 5);
        f.grow(3);
        assert_eq!(f.len(), 5, "never shrinks");
    }

    #[test]
    fn many_clears_stay_correct() {
        let mut f = EpochFlags::new(1);
        for _ in 0..10_000 {
            f.clear();
            assert!(!f.is_set(0));
            f.set(0);
            assert!(f.is_set(0));
        }
    }

    #[test]
    fn epoch_wraparound_no_false_positives() {
        // Force the counter to the edge of its range: the next clear() must
        // take the sweep path (fill + restart at epoch 1) and flags set at
        // epoch u32::MAX must NOT read as set afterwards — a stale stamp of
        // u32::MAX colliding with a post-wrap epoch would be a false
        // positive that silently corrupts coverage counts.
        let mut f = EpochFlags {
            stamp: vec![0; 8],
            epoch: u32::MAX - 2,
        };
        for _ in 0..2 {
            f.clear(); // reaches u32::MAX without wrapping
        }
        assert_eq!(f.epoch, u32::MAX);
        assert!(f.set(3));
        assert!(f.set(7));
        assert!(f.is_set(3) && f.is_set(7));

        f.clear(); // the wraparound sweep
        assert_eq!(f.epoch, 1);
        for i in 0..8 {
            assert!(!f.is_set(i), "false positive at {i} after wraparound");
        }
        // Flags keep working across the boundary: set/clear cycles behave
        // exactly like a fresh instance.
        assert!(f.set(3));
        assert!(!f.set(3));
        f.clear();
        assert!(!f.is_set(3));
        assert!(f.set(0));
    }

    #[test]
    fn set_all_counts_each_index_once() {
        let mut f = EpochFlags::new(6);
        assert_eq!(f.set_all(&[1, 3, 1, 5]), 3, "a repeat in one list counts 0");
        assert_eq!(f.set_all(&[3, 5]), 0, "a repeat across calls counts 0");
        assert_eq!(f.set_all(&[0, 3]), 1);
        assert_eq!(f.set_all(&[]), 0);
        assert!([0, 1, 3, 5].iter().all(|&i| f.is_set(i)));
        assert!(!f.is_set(2) && !f.is_set(4));
    }

    #[test]
    fn count_unset_leaves_the_flags_unchanged() {
        let mut f = EpochFlags::new(5);
        f.set_all(&[0, 2]);
        assert_eq!(f.count_unset(&[0, 1, 2, 3, 1]), 3, "repeats count twice");
        assert_eq!(f.count_unset(&[0, 1, 2, 3, 1]), 3);
        assert!(f.is_set(0) && f.is_set(2));
        assert!(!f.is_set(1) && !f.is_set(3));
        assert_eq!(f.set_all(&[1, 3]), 2, "counted flags were not set");
    }

    #[test]
    fn reset_clears_and_grows() {
        let mut f = EpochFlags::new(3);
        f.set_all(&[0, 2]);
        f.reset(7);
        assert_eq!(f.len(), 7);
        assert_eq!(f.count_unset(&[0, 1, 2, 3, 4, 5, 6]), 7);
        assert_eq!(f.set_all(&[2, 6]), 2);
        f.reset(2);
        assert_eq!(f.len(), 7, "never shrinks");
        assert_eq!(f.count_unset(&[2, 6]), 2);
    }

    #[test]
    fn with_flags_is_reentrant() {
        let outer = with_flags(8, |a| {
            a.set(3);
            let inner = with_flags(4, |b| {
                // The nested buffer is independent and starts cleared.
                assert!(!b.is_set(3));
                b.set(1);
                b.is_set(1)
            });
            assert!(inner);
            a.is_set(3) && !a.is_set(1)
        });
        assert!(outer);
        // The pooled buffer is cleared on reuse.
        with_flags(8, |a| assert!(!a.is_set(3)));
    }

    #[test]
    fn with_flags_keeps_largest_buffer() {
        with_flags(100, |f| assert_eq!(f.len(), 100));
        // A smaller request reuses the grown buffer.
        with_flags(10, |f| assert!(f.len() >= 100));
    }
}
