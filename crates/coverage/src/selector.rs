//! The paper's coverage-bucketed greedy selector (Algorithm 1, lines 5–13).

/// Number of consecutive coverage levels materialized together. One block
/// of level lists stays cache-resident while the scan walks through it;
/// everything below lives in per-block piles until the scan arrives.
const BLOCK: usize = 64;

/// Master-side greedy selection state: a vector `D` of node lists bucketed
/// by (possibly stale) marginal coverage, scanned from the maximum bucket
/// downward with **lazy updates** — a node found with an outdated coverage
/// is dropped into its true bucket instead of being selected (lines 9–11).
///
/// Total scan work across all `k` selections is O(d* + #moves), and each
/// node moves at most once per coverage decrement, so selection is linear
/// in the total coverage mass — the amortized bound of §III-D.
///
/// Storage is cache-blocked: instead of `d*` separate `Vec`s (one heap
/// allocation per level, most holding a handful of nodes), levels are
/// grouped into blocks of `BLOCK`. Only the block under the scan head
/// keeps per-level lists; every other block is a single pile of
/// `(level-in-block, node)` pairs, distributed into level lists in one
/// pass when the scan reaches it. Filing records the level a node was
/// *moved at* (not its final coverage), so the lazy re-check still happens
/// at scan time and the selection order is exactly the per-level-`Vec`
/// order: each list holds its initial-id-order entries first, then moved
/// entries in move order.
///
/// The selector is deliberately independent of where coverage *updates*
/// come from: the centralized greedy feeds it deltas from a local shard,
/// NewGreeDi feeds it aggregated deltas gathered from `ℓ` machines. Both
/// therefore select the *same* sequence of seeds, which is the mechanism
/// behind Lemma 2's exact (1 − 1/e) guarantee.
#[derive(Clone, Debug)]
pub struct BucketSelector {
    /// `piles[b]` = nodes filed into levels `[b·BLOCK, (b+1)·BLOCK)`, as
    /// `(level − b·BLOCK, node)` in filing order.
    piles: Vec<Vec<(u8, u32)>>,
    /// Per-level lists for the block currently under the scan head.
    levels: Vec<Vec<u32>>,
    /// Which block `levels` holds.
    block: usize,
    /// Current true coverage per node.
    coverage: Vec<u64>,
    selected: Vec<bool>,
    /// Scan position: current bucket level.
    cur_d: usize,
    /// Scan position within the current level's list.
    cur_i: usize,
}

impl BucketSelector {
    /// Builds the selector from every node's initial coverage
    /// (Algorithm 1, lines 4–6). Nodes appear in their bucket in increasing
    /// id order, making tie-breaking deterministic.
    pub fn new(initial_coverage: &[u64]) -> Self {
        let d_star = initial_coverage.iter().copied().max().unwrap_or(0) as usize;
        let mut piles = vec![Vec::new(); d_star / BLOCK + 1];
        for (v, &c) in initial_coverage.iter().enumerate() {
            if c > 0 {
                let c = c as usize;
                piles[c / BLOCK].push(((c % BLOCK) as u8, v as u32));
            }
        }
        let mut s = BucketSelector {
            piles,
            levels: vec![Vec::new(); BLOCK],
            block: usize::MAX,
            coverage: initial_coverage.to_vec(),
            selected: vec![false; initial_coverage.len()],
            cur_d: d_star,
            cur_i: 0,
        };
        s.materialize(d_star / BLOCK);
        s
    }

    /// Distributes block `b`'s pile into the per-level lists. Draining in
    /// pile order keeps each level's list in exact push order (initial
    /// id-order entries, then moves in move order).
    fn materialize(&mut self, b: usize) {
        for l in &mut self.levels {
            l.clear();
        }
        let mut pile = std::mem::take(&mut self.piles[b]);
        for (lvl, v) in pile.drain(..) {
            self.levels[lvl as usize].push(v);
        }
        // Hand the emptied allocation back for reuse by later filings.
        self.piles[b] = pile;
        self.block = b;
    }

    /// Files node `v` under `level`: straight into the materialized lists
    /// when the level is in the current block, into the block's pile
    /// otherwise.
    fn file(&mut self, v: u32, level: usize) {
        let b = level / BLOCK;
        if b == self.block {
            self.levels[level % BLOCK].push(v);
        } else {
            self.piles[b].push(((level % BLOCK) as u8, v));
        }
    }

    /// Selects the node with the maximum current coverage, marks it
    /// selected, and returns `(node, its coverage)`. Returns `None` when
    /// every remaining node has zero coverage.
    ///
    /// The caller must afterwards apply the seed's effect on other nodes'
    /// coverages via [`Self::decrease`] before the next `select_next` (the
    /// reduce stage, line 22).
    pub fn select_next(&mut self) -> Option<(u32, u64)> {
        while self.cur_d >= 1 {
            if self.cur_d / BLOCK != self.block {
                self.materialize(self.cur_d / BLOCK);
            }
            let lvl = self.cur_d % BLOCK;
            while self.cur_i < self.levels[lvl].len() {
                let u = self.levels[lvl][self.cur_i];
                self.cur_i += 1;
                if self.selected[u as usize] {
                    continue;
                }
                let true_cov = self.coverage[u as usize] as usize;
                if true_cov < self.cur_d {
                    // Outdated coverage: lazily move to the true bucket.
                    if true_cov > 0 {
                        self.file(u, true_cov);
                    }
                    continue;
                }
                debug_assert_eq!(true_cov, self.cur_d, "coverage never increases");
                self.selected[u as usize] = true;
                return Some((u, true_cov as u64));
            }
            self.cur_d -= 1;
            self.cur_i = 0;
        }
        None
    }

    /// Applies a marginal-coverage decrement to node `v` (reduce stage).
    /// The bucket move is deferred to the lazy check during scanning.
    pub fn decrease(&mut self, v: u32, by: u64) {
        let c = &mut self.coverage[v as usize];
        debug_assert!(*c >= by, "coverage of {v} would go negative");
        *c = c.saturating_sub(by);
    }

    /// Current recorded coverage of `v`.
    pub fn coverage_of(&self, v: u32) -> u64 {
        self.coverage[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_in_decreasing_coverage_order_without_updates() {
        let mut s = BucketSelector::new(&[3, 5, 1, 5, 0]);
        // Ties broken by insertion (id) order: node 1 before node 3.
        assert_eq!(s.select_next(), Some((1, 5)));
        assert_eq!(s.select_next(), Some((3, 5)));
        assert_eq!(s.select_next(), Some((0, 3)));
        assert_eq!(s.select_next(), Some((2, 1)));
        assert_eq!(s.select_next(), None, "zero-coverage node never selected");
    }

    #[test]
    fn lazy_update_moves_node_down() {
        let mut s = BucketSelector::new(&[4, 3]);
        assert_eq!(s.select_next(), Some((0, 4)));
        // Node 1's coverage drops to 1 before the next selection.
        s.decrease(1, 2);
        assert_eq!(s.select_next(), Some((1, 1)));
        assert_eq!(s.select_next(), None);
    }

    #[test]
    fn decrease_to_zero_drops_node() {
        let mut s = BucketSelector::new(&[2, 2]);
        assert_eq!(s.select_next(), Some((0, 2)));
        s.decrease(1, 2);
        assert_eq!(s.select_next(), None);
    }

    #[test]
    fn selected_nodes_skipped_in_lower_buckets() {
        // Node 0 sits in bucket 3; after selection its stale entry must not
        // resurface even if scanning reaches lower buckets.
        let mut s = BucketSelector::new(&[3, 3, 1]);
        assert_eq!(s.select_next(), Some((0, 3)));
        s.decrease(1, 2);
        // Node 1's stale entry moves to bucket 1 behind node 2, so node 2
        // (equal coverage, already in place) is selected first.
        assert_eq!(s.select_next(), Some((2, 1)));
        assert_eq!(s.select_next(), Some((1, 1)));
        assert_eq!(s.select_next(), None);
    }

    #[test]
    fn all_zero_initial() {
        let mut s = BucketSelector::new(&[0, 0, 0]);
        assert_eq!(s.select_next(), None);
    }

    #[test]
    fn empty_universe() {
        let mut s = BucketSelector::new(&[]);
        assert_eq!(s.select_next(), None);
    }

    #[test]
    fn query_helpers() {
        let mut s = BucketSelector::new(&[2, 1]);
        assert_eq!(s.coverage_of(0), 2);
        assert!(!s.selected[0]);
        s.select_next();
        assert!(s.selected[0]);
    }

    #[test]
    fn cross_block_moves_preserve_scan_order() {
        // Coverages spanning three 64-level blocks, with lazy moves that
        // cross block boundaries in both directions relative to the scan.
        let mut s = BucketSelector::new(&[150, 140, 100, 70, 70, 5, 3]);
        assert_eq!(s.select_next(), Some((0, 150)));
        // Node 1 drops two blocks (140 → 4): filed into block 0's pile.
        s.decrease(1, 136);
        // Node 2 drops within reach of the block-1 scan (100 → 68).
        s.decrease(2, 32);
        assert_eq!(s.select_next(), Some((3, 70)));
        // Node 4 goes stale between blocks too (70 → 6).
        s.decrease(4, 64);
        assert_eq!(s.select_next(), Some((2, 68)));
        // Block 0: node 5 holds level 5, then node 4's move lands at 6,
        // above it; node 1's move landed at 4.
        assert_eq!(s.select_next(), Some((4, 6)));
        assert_eq!(s.select_next(), Some((5, 5)));
        assert_eq!(s.select_next(), Some((1, 4)));
        assert_eq!(s.select_next(), Some((6, 3)));
        assert_eq!(s.select_next(), None);
    }

    /// Reference implementation: the straightforward per-level-`Vec`
    /// selector the blocked layout must match move for move.
    struct FlatSelector {
        buckets: Vec<Vec<u32>>,
        coverage: Vec<u64>,
        selected: Vec<bool>,
        cur_d: usize,
        cur_i: usize,
    }

    impl FlatSelector {
        fn new(initial: &[u64]) -> Self {
            let d_star = initial.iter().copied().max().unwrap_or(0) as usize;
            let mut buckets = vec![Vec::new(); d_star + 1];
            for (v, &c) in initial.iter().enumerate() {
                if c > 0 {
                    buckets[c as usize].push(v as u32);
                }
            }
            FlatSelector {
                buckets,
                coverage: initial.to_vec(),
                selected: vec![false; initial.len()],
                cur_d: d_star,
                cur_i: 0,
            }
        }

        fn select_next(&mut self) -> Option<(u32, u64)> {
            while self.cur_d >= 1 {
                while self.cur_i < self.buckets[self.cur_d].len() {
                    let u = self.buckets[self.cur_d][self.cur_i];
                    self.cur_i += 1;
                    if self.selected[u as usize] {
                        continue;
                    }
                    let true_cov = self.coverage[u as usize] as usize;
                    if true_cov < self.cur_d {
                        if true_cov > 0 {
                            self.buckets[true_cov].push(u);
                        }
                        continue;
                    }
                    self.selected[u as usize] = true;
                    return Some((u, true_cov as u64));
                }
                self.cur_d -= 1;
                self.cur_i = 0;
            }
            None
        }

        fn decrease(&mut self, v: u32, by: u64) {
            self.coverage[v as usize] -= by;
        }
    }

    #[test]
    fn matches_flat_reference_under_random_decrements() {
        // Deterministic LCG so the scenario is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let initial: Vec<u64> = (0..300).map(|_| next(500)).collect();
        let mut blocked = BucketSelector::new(&initial);
        let mut flat = FlatSelector::new(&initial);
        loop {
            let a = blocked.select_next();
            let b = flat.select_next();
            assert_eq!(a, b, "blocked and flat selectors diverged");
            let Some((u, _)) = a else { break };
            // Random sparse decrements, identical on both selectors.
            for _ in 0..next(20) {
                let v = next(300) as u32;
                if v == u || blocked.selected[v as usize] {
                    continue;
                }
                let by = next(blocked.coverage_of(v) + 1);
                blocked.decrease(v, by);
                flat.decrease(v, by);
            }
        }
    }
}
