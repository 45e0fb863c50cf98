//! Synthetic social-network generators.
//!
//! Real OSN snapshots (the SNAP datasets in the paper's Table III) cannot be
//! redistributed with this repository, so the benchmark harness generates
//! graphs whose size, directedness, and degree skew match each dataset's
//! published statistics — see [`profiles`]. Erdős–Rényi and Barabási–Albert
//! are also public for tests and examples building their own workloads;
//! Chung-Lu is reached through the directed profiles.

pub mod barabasi_albert;
mod chung_lu;
pub mod erdos_renyi;
pub mod profiles;

pub use barabasi_albert::barabasi_albert;
pub(crate) use chung_lu::chung_lu_directed;
pub use erdos_renyi::erdos_renyi;
pub use profiles::DatasetProfile;

use crate::builder::build_sorted;
use crate::csr::Graph;
use crate::weights::WeightModel;
use crate::NodeId;

/// The first `m` distinct non-loop pairs of the stream `draw`, or those
/// among its first `max_draws` draws if that is fewer, as sorted keys
/// `u << 32 | v`: the forward CSR order.
///
/// Drawn in rounds: each round draws `m − D` more pairs (`D` is the
/// number of distinct keys held), sorts its keys, and merges the new ones
/// into the sorted distinct prefix. A round of `m − D` draws holds at
/// most `m − D` new keys, so it cannot reach `m` before its last draw:
/// the rounds stop on exactly the draw where inserting each pair into a
/// set until it holds `m` would stop, with the same pairs. Self-loops
/// count as draws and are dropped.
fn first_distinct_pairs(
    m: usize,
    max_draws: usize,
    mut draw: impl FnMut() -> (NodeId, NodeId),
) -> Vec<u64> {
    let mut keys: Vec<u64> = Vec::with_capacity(m);
    let mut fresh: Vec<u64> = Vec::new();
    let mut draws = 0;
    while keys.len() < m && draws < max_draws {
        let held = keys.len();
        let round = (m - held).min(max_draws - draws);
        draws += round;
        for _ in 0..round {
            let (u, v) = draw();
            if u != v {
                keys.push(u64::from(u) << 32 | u64::from(v));
            }
        }
        keys[held..].sort_unstable();
        if held == 0 {
            keys.dedup();
            continue;
        }
        // The round's keys not held yet, each once, merged in from the
        // back so no held key moves more than once.
        fresh.clear();
        fresh.reserve(round);
        let (prefix, drawn) = keys.split_at(held);
        for (i, &key) in drawn.iter().enumerate() {
            if (i == 0 || drawn[i - 1] != key) && prefix.binary_search(&key).is_err() {
                fresh.push(key);
            }
        }
        keys.truncate(held);
        let (mut i, mut j) = (held, fresh.len());
        keys.resize(held + j, 0);
        while j > 0 {
            let slot = i + j - 1;
            if i > 0 && keys[i - 1] > fresh[j - 1] {
                i -= 1;
                keys[slot] = keys[i];
            } else {
                j -= 1;
                keys[slot] = fresh[j];
            }
        }
    }
    keys
}

/// The graph on `n` nodes of the first `m` distinct non-loop pairs of
/// `draw` ([`first_distinct_pairs`]), weighted by `model`; an edge's
/// index is its position in `(u, v)` order, as in
/// [`GraphBuilder::build`](crate::GraphBuilder::build).
pub(crate) fn distinct_pairs_graph(
    n: usize,
    m: usize,
    max_draws: usize,
    model: WeightModel,
    draw: impl FnMut() -> (NodeId, NodeId),
) -> Graph {
    let keys = first_distinct_pairs(m, max_draws, draw);
    let edge = |&key: &u64| ((key >> 32) as NodeId, key as NodeId, f32::NAN);
    build_sorted(n, || keys.iter().map(edge), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::collections::BTreeSet;

    /// The loop the rounds stand in for: each pair into a set, until it
    /// holds `m` or the draws run out.
    fn by_set(m: usize, max_draws: usize, mut draw: impl FnMut() -> (u32, u32)) -> Vec<u64> {
        let (mut seen, mut draws) = (BTreeSet::new(), 0);
        while seen.len() < m && draws < max_draws {
            draws += 1;
            let (u, v) = draw();
            if u != v {
                seen.insert(u64::from(u) << 32 | u64::from(v));
            }
        }
        seen.into_iter().collect()
    }

    /// Same pairs, and the same number of draws taken from the stream,
    /// with loops and duplicates common: saturating (m = n(n − 1)), under
    /// a cap that binds, and sparse; on uniform and on skewed draws.
    #[test]
    fn rounds_stop_on_the_draw_a_set_stops_on() {
        let uniform = |n: usize| move |rng: &mut Rng| (rng.below(n) as u32, rng.below(n) as u32);
        let skewed = |n: usize| {
            move |rng: &mut Rng| {
                let u = rng.below(n).min(rng.below(n));
                (u as u32, rng.below(n).min(rng.below(n)) as u32)
            }
        };
        let cases = [
            (5, 20, usize::MAX),
            (5, 20, 30),
            (8, 56, 60),
            (30, 600, 2_000),
            (400, 3_000, usize::MAX),
        ];
        for (n, m, max_draws) in cases {
            for seed in 0..10 {
                for draw in [&uniform(n) as &dyn Fn(&mut Rng) -> (u32, u32), &skewed(n)] {
                    let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
                    let rounds = first_distinct_pairs(m, max_draws, || draw(&mut a));
                    let set = by_set(m, max_draws, || draw(&mut b));
                    let case = format!("n = {n}, m = {m}, max_draws = {max_draws}, seed {seed}");
                    assert_eq!(rounds, set, "{case}");
                    assert_eq!(a.next_u64(), b.next_u64(), "{case}: draws taken");
                }
            }
        }
    }
}
