//! The one greedy selector: lazy evaluation under one tie rule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stale candidates re-evaluated per request. On graph-neighbourhood
/// instances one request of this size almost always confirms the next
/// seed, so a distributed selection takes one round per seed.
pub const PULL_BATCH: usize = 64;

/// Master-side state of greedy maximum coverage with lazy evaluation
/// (CELF, Leskovec et al., KDD 2007), under one tie rule: **largest
/// marginal, then smallest id**.
///
/// Coverage is submodular, so a set's last exact marginal bounds its
/// current one from above. The selector keeps a max-heap of
/// `(bound, Reverse(id), epoch)`, where the epoch is the number of seeds
/// applied when the bound was exact. A top entry whose epoch is current is
/// the exact greedy choice: nothing below it can do better or tie it with a
/// smaller id. Otherwise the top [`PULL_BATCH`] stale entries are
/// re-evaluated and re-filed as exact.
///
/// The selector knows nothing of where marginals come from. It asks an
/// evaluation callback `eval(seed, candidates)` to apply `seed` (the pick
/// since the previous call, if any) and answer the exact marginal of each
/// candidate, in order. The centralized greedy evaluates on a local shard
/// (GreeDi's core-set is that greedy on a machine's sets), NewGreeDi by one
/// pull round over the cluster, `constrained_greedy` over read-only
/// cursors: the same state and the same rule, so all of them select the
/// same seeds as `naive_greedy` —
/// the mechanism behind Lemma 2's exact (1 − 1/e) guarantee.
#[derive(Clone, Debug)]
pub struct LazySelector {
    heap: BinaryHeap<(u64, Reverse<u32>, u32)>,
    /// Seeds applied so far, counting `pending`.
    epoch: u32,
    /// The last pick, not yet handed to the evaluator.
    pending: Option<u32>,
}

impl LazySelector {
    /// A selector over the exact marginals `(id, marginal)` of the empty
    /// seed set. Sets with marginal 0 are never filed.
    pub fn new(marginals: impl IntoIterator<Item = (u32, u64)>) -> Self {
        let heap = marginals
            .into_iter()
            .filter(|&(_, m)| m > 0)
            .map(|(v, m)| (m, Reverse(v), 0))
            .collect();
        LazySelector {
            heap,
            epoch: 0,
            pending: None,
        }
    }

    /// Makes `u` the next seed whatever its marginal (an include
    /// constraint), returning that marginal.
    ///
    /// # Errors
    /// Whatever `eval` returns.
    pub fn force<X>(
        &mut self,
        u: u32,
        mut eval: impl FnMut(Option<u32>, &[u32]) -> Result<Vec<u64>, X>,
    ) -> Result<u64, X> {
        let m = eval(self.pending.take(), &[u])?;
        self.stage(u);
        Ok(m[0])
    }

    /// Selects greedily until `seeds` holds `k` or no set adds coverage,
    /// appending each pick and its exact marginal, then hands the last
    /// pick to `eval`, so the evaluator's state covers every seed.
    ///
    /// # Errors
    /// Whatever `eval` returns; the selection stops there.
    pub fn run<X>(
        mut self,
        k: usize,
        seeds: &mut Vec<u32>,
        marginals: &mut Vec<u64>,
        mut eval: impl FnMut(Option<u32>, &[u32]) -> Result<Vec<u64>, X>,
    ) -> Result<(), X> {
        while seeds.len() < k {
            let Some((u, m)) = self.next(&mut eval)? else {
                break;
            };
            seeds.push(u);
            marginals.push(m);
        }
        match self.pending {
            Some(u) => eval(Some(u), &[]).map(drop),
            None => Ok(()),
        }
    }

    fn stage(&mut self, u: u32) {
        self.pending = Some(u);
        self.epoch += 1;
    }

    /// The next pick and its exact marginal, `None` when no set adds
    /// coverage.
    fn next<X>(
        &mut self,
        eval: &mut impl FnMut(Option<u32>, &[u32]) -> Result<Vec<u64>, X>,
    ) -> Result<Option<(u32, u64)>, X> {
        let mut batch = Vec::with_capacity(PULL_BATCH);
        let mut exact = Vec::new();
        loop {
            match self.heap.peek() {
                None => return Ok(None),
                Some(&(m, Reverse(u), epoch)) if epoch == self.epoch => {
                    self.heap.pop();
                    self.stage(u);
                    return Ok(Some((u, m)));
                }
                Some(_) => {}
            }
            while batch.len() < PULL_BATCH {
                match self.heap.pop() {
                    Some(entry) if entry.2 == self.epoch => exact.push(entry),
                    Some((_, Reverse(v), _)) => batch.push(v),
                    None => break,
                }
            }
            self.heap.extend(exact.drain(..));
            let fresh = eval(self.pending.take(), &batch)?;
            assert_eq!(fresh.len(), batch.len(), "one marginal per candidate");
            let epoch = self.epoch;
            self.heap.extend(
                batch
                    .drain(..)
                    .zip(fresh)
                    .filter(|&(_, m)| m > 0)
                    .map(|(v, m)| (m, Reverse(v), epoch)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    type Requests = Vec<(Option<u32>, Vec<u32>)>;

    /// The pick a per-round rescan of `truth` makes: the largest marginal,
    /// then the smallest id.
    fn flat_pick(truth: &[u64]) -> Option<(u32, u64)> {
        let (v, &m) = truth.iter().enumerate().rev().max_by_key(|&(_, &m)| m)?;
        (m > 0).then_some((v as u32, m))
    }

    /// Runs the selector up to `k` seeds against true marginals that start
    /// at `initial` and that `lower(truth)` lowers as each seed is applied. Asserts every pick is the flat pick of the truth it was
    /// made in, and returns the picks and every request.
    fn run_against(
        initial: &[u64],
        k: usize,
        mut lower: impl FnMut(&mut [u64]),
    ) -> (Vec<(u32, u64)>, Requests) {
        let mut truth = initial.to_vec();
        let (mut expected, mut asked) = (Vec::new(), Vec::new());
        let selector = LazySelector::new(initial.iter().enumerate().map(|(v, &m)| (v as u32, m)));
        let (mut seeds, mut marginals) = (Vec::new(), Vec::new());
        let eval = |seed: Option<u32>, candidates: &[u32]| {
            if let Some(u) = seed {
                expected.extend(flat_pick(&truth));
                truth[u as usize] = 0;
                lower(&mut truth);
            }
            asked.push((seed, candidates.to_vec()));
            Ok::<_, Infallible>(candidates.iter().map(|&v| truth[v as usize]).collect())
        };
        let Ok(()) = selector.run(k, &mut seeds, &mut marginals, eval);
        let picks: Vec<(u32, u64)> = seeds.into_iter().zip(marginals).collect();
        assert_eq!(picks, expected, "the lazy picks are the flat picks");
        (picks, asked)
    }

    #[test]
    fn selects_in_decreasing_coverage_order_without_updates() {
        // Ties break toward the smaller id: node 1 before node 3.
        let (picks, _) = run_against(&[3, 5, 1, 5, 0], 9, |_| {});
        assert_eq!(picks, vec![(1, 5), (3, 5), (0, 3), (2, 1)]);
    }

    #[test]
    fn lazy_update_moves_node_down() {
        // Node 1's coverage drops to 1 once node 0 is applied.
        let (picks, _) = run_against(&[4, 3], 9, |truth| truth[1] = 1);
        assert_eq!(picks, vec![(0, 4), (1, 1)]);
    }

    #[test]
    fn decrease_to_zero_drops_node() {
        let (picks, asked) = run_against(&[2, 2], 9, |truth| truth[1] = 0);
        assert_eq!(picks, vec![(0, 2)]);
        assert_eq!(
            asked,
            vec![(Some(0), vec![1])],
            "a zero is never asked again"
        );
    }

    /// Node 0's initial entry is gone once it is picked: it is never a
    /// candidate again, even when the evaluator would still credit it.
    #[test]
    fn selected_sets_are_never_offered_again() {
        let selector = LazySelector::new([(0, 3), (1, 3), (2, 1)]);
        let (mut seeds, mut marginals, mut asked) = (Vec::new(), Vec::new(), Vec::new());
        let eval = |_: Option<u32>, candidates: &[u32]| {
            asked.extend_from_slice(candidates);
            Ok::<_, Infallible>(candidates.iter().map(|&v| [3, 1, 1][v as usize]).collect())
        };
        let Ok(()) = selector.run(9, &mut seeds, &mut marginals, eval);
        // After node 0, nodes 1 and 2 tie at 1: the smaller id goes first.
        assert_eq!((seeds, marginals), (vec![0, 1, 2], vec![3, 1, 1]));
        assert!(!asked.contains(&0));
    }

    #[test]
    fn all_zero_initial() {
        let (picks, asked) = run_against(&[0, 0, 0], 3, |_| {});
        assert!(picks.is_empty() && asked.is_empty());
    }

    #[test]
    fn empty_universe() {
        let (picks, asked) = run_against(&[], 3, |_| {});
        assert!(picks.is_empty() && asked.is_empty());
    }

    /// Exact initial marginals confirm the first pick with no request, and
    /// the last request only applies the last pick.
    #[test]
    fn each_request_carries_the_previous_pick() {
        let (_, asked) = run_against(&[4, 3, 2], 3, |_| {});
        let expected: Requests = vec![(Some(0), vec![1, 2]), (Some(1), vec![2]), (Some(2), vec![])];
        assert_eq!(asked, expected);
    }

    #[test]
    fn forced_seeds_go_first_and_make_every_bound_stale() {
        let mut selector = LazySelector::new([(0, 5), (1, 4)]);
        let mut asked = Vec::new();
        let mut eval = |seed, candidates: &[u32]| {
            asked.push((seed, candidates.to_vec()));
            Ok::<_, Infallible>(candidates.iter().map(|&v| [0, 4, 1][v as usize]).collect())
        };
        let Ok(m) = selector.force(2, &mut eval);
        assert_eq!(m, 1);
        let (mut seeds, mut marginals) = (vec![2], vec![m]);
        let Ok(()) = selector.run(2, &mut seeds, &mut marginals, &mut eval);
        assert_eq!((seeds, marginals), (vec![2, 1], vec![1, 4]));
        let expected: Requests = vec![(None, vec![2]), (Some(2), vec![0, 1]), (Some(1), vec![])];
        assert_eq!(asked, expected);
    }

    #[test]
    fn matches_flat_reference_under_random_decrements() {
        // Deterministic LCG so the scenario is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        // Few distinct values, so ties are common.
        let initial: Vec<u64> = (0..300).map(|_| next(40)).collect();
        let (picks, asked) = run_against(&initial, 300, |truth| {
            for _ in 0..next(20) {
                let v = next(300) as usize;
                truth[v] -= next(truth[v] + 1);
            }
        });
        assert!(picks.len() > 100);
        assert!(asked.iter().all(|(_, c)| c.len() <= PULL_BATCH));
    }
}
