//! Global maximum-coverage instances and sharding.

use dim_graph::rng::Rng;
use dim_graph::Graph;

use crate::pooled::PooledSets;
use crate::shard::CoverageShard;

/// A complete set-element maximum-coverage instance: `num_sets` sets over
/// the elements `0..num_elements`, stored as *element records* (for each
/// element, the ids of the sets covering it — the natural orientation for
/// RIS, where an RR set's record is its member nodes).
#[derive(Clone, Debug)]
pub struct CoverageProblem {
    num_sets: usize,
    elements: PooledSets,
}

impl CoverageProblem {
    /// Builds an instance from element records.
    pub fn from_element_records<'a>(
        num_sets: usize,
        records: impl IntoIterator<Item = &'a [u32]>,
    ) -> Self {
        let mut elements = PooledSets::new();
        for r in records {
            debug_assert!(r.iter().all(|&s| (s as usize) < num_sets));
            elements.push(r);
        }
        CoverageProblem { num_sets, elements }
    }

    /// Builds an instance from *set records* (for each set, the elements it
    /// covers) over the element domain `0..num_elements`.
    pub(crate) fn from_set_records<'a>(
        num_elements: usize,
        sets: impl IntoIterator<Item = &'a [u32]>,
    ) -> Self {
        let mut set_store = PooledSets::new();
        for s in sets {
            debug_assert!(s.iter().all(|&e| (e as usize) < num_elements));
            set_store.push(s);
        }
        let num_sets = set_store.len();
        CoverageProblem {
            num_sets,
            elements: set_store.transpose(num_elements),
        }
    }

    /// The paper's §IV-C maximum-coverage workload: the graph `G = (V, E)`
    /// is viewed as `|V|` sets over `|V|` elements, where set `u` is the
    /// collection of `u`'s out-neighbors. Element `v`'s record is therefore
    /// `v`'s in-neighbor list.
    pub fn from_graph_neighborhoods(graph: &Graph) -> Self {
        let mut elements = PooledSets::with_capacity(graph.num_nodes(), graph.num_edges());
        for v in graph.nodes() {
            elements.push(graph.in_neighbors(v));
        }
        CoverageProblem {
            num_sets: graph.num_nodes(),
            elements,
        }
    }

    /// Number of sets in the universe.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Total incidence size `Σ_e |record(e)|`.
    pub fn total_size(&self) -> usize {
        self.elements.total_size()
    }

    /// The whole instance as one [`CoverageShard`] (centralized baseline).
    pub fn single_shard(&self) -> CoverageShard {
        CoverageShard::from_records(self.num_sets, self.elements.iter())
    }

    /// Element-distributed sharding: element `e` goes to machine
    /// `e mod machines` (elements arrive in random generation order, so
    /// round-robin matches the paper's "randomly and uniformly distributed"
    /// assumption while staying deterministic).
    pub fn shard_elements(&self, machines: usize) -> Vec<CoverageShard> {
        assert!(machines >= 1);
        let mut shards: Vec<CoverageShard> = (0..machines)
            .map(|_| CoverageShard::new(self.num_sets))
            .collect();
        for (e, record) in self.elements.iter().enumerate() {
            shards[e % machines].push_element(record);
        }
        for s in &mut shards {
            s.prepare();
        }
        shards
    }

    /// Set-distributed sharding for the composable core-sets baselines:
    /// machine `i` receives the sets `{s : s ≡ i (mod machines)}` together
    /// with their full element lists. When `shuffle_seed` is `Some`, set
    /// ids are first permuted pseudo-randomly (RandGreeDi's random
    /// partition).
    ///
    /// Machine `i`'s shard holds one record per *global* element (empty
    /// where none of its sets covers it), naming its sets by their local
    /// ids `0..|Sᵢ|` in partition order. The local → global map stays
    /// with the master, in the returned [`SetPartition`].
    pub fn shard_sets(
        &self,
        machines: usize,
        shuffle_seed: Option<u64>,
    ) -> (Vec<CoverageShard>, SetPartition) {
        assert!(machines >= 1);
        let index = self.elements.transpose(self.num_sets);
        let mut order: Vec<u32> = (0..self.num_sets as u32).collect();
        if let Some(seed) = shuffle_seed {
            Rng::new(seed).shuffle(&mut order);
        }
        let mut sets = vec![Vec::new(); machines];
        for (pos, &s) in order.iter().enumerate() {
            sets[pos % machines].push(s);
        }
        let num_elements = self.num_elements();
        let shards = sets.iter().map(|ids| {
            let lists = ids.iter().map(|&s| index.get(s as usize));
            CoverageProblem::from_set_records(num_elements, lists).single_shard()
        });
        (shards.collect(), SetPartition { sets, num_elements })
    }

    /// Number of elements covered by `seeds` (global evaluation).
    pub fn coverage_of(&self, seeds: &[u32]) -> u64 {
        let mut covered = 0u64;
        'elem: for record in self.elements.iter() {
            for s in record {
                if seeds.contains(s) {
                    covered += 1;
                    continue 'elem;
                }
            }
        }
        covered
    }

    /// Exact optimum coverage over all size-`k` set subsets. Exponential —
    /// test-sized instances only.
    pub fn brute_force_opt(&self, k: usize) -> (Vec<u32>, u64) {
        assert!(
            self.num_sets <= 24,
            "brute force limited to tiny universes"
        );
        let index = self.elements.transpose(self.num_sets);
        let mut best = (Vec::new(), 0u64);
        let mut subset: Vec<u32> = Vec::with_capacity(k);
        fn recurse(
            problem: &CoverageProblem,
            index: &PooledSets,
            k: usize,
            start: u32,
            subset: &mut Vec<u32>,
            covered: &mut Vec<bool>,
            best: &mut (Vec<u32>, u64),
        ) {
            if subset.len() == k {
                let c = covered.iter().filter(|&&b| b).count() as u64;
                if c > best.1 {
                    *best = (subset.clone(), c);
                }
                return;
            }
            let remaining = (k - subset.len()) as u32;
            let n = problem.num_sets as u32;
            for v in start..=(n - remaining) {
                let newly: Vec<u32> = index
                    .get(v as usize)
                    .iter()
                    .copied()
                    .filter(|&e| !covered[e as usize])
                    .collect();
                for &e in &newly {
                    covered[e as usize] = true;
                }
                subset.push(v);
                recurse(problem, index, k, v + 1, subset, covered, best);
                subset.pop();
                for &e in &newly {
                    covered[e as usize] = false;
                }
            }
        }
        if k > 0 && self.num_sets >= k {
            let mut covered = vec![false; self.num_elements()];
            recurse(self, &index, k, 0, &mut subset, &mut covered, &mut best);
        }
        best
    }
}

/// The master's half of a *set-distributed* layout: which global sets each
/// machine holds, and the element domain they cover. Machine `i` names
/// set `sets[i][j]` by its local id `j`. This is the layout composable
/// core-sets requires — and the reason it is incompatible with
/// distributed RIS (§III-B1): assembling it from distributed RR sets would
/// require gathering all samples on one machine first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetPartition {
    /// `sets[i]` = global ids of machine `i`'s sets, in local-id order.
    pub sets: Vec<Vec<u32>>,
    /// Size of the global element domain.
    pub num_elements: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_graph::{GraphBuilder, WeightModel};

    fn example3() -> CoverageProblem {
        CoverageProblem::from_element_records(
            5,
            [
                &[0u32][..],
                &[1, 2],
                &[0, 2],
                &[1, 4],
                &[0],
                &[1, 3],
            ],
        )
    }

    #[test]
    fn counts() {
        let p = example3();
        assert_eq!(p.num_sets(), 5);
        assert_eq!(p.num_elements(), 6);
        assert_eq!(p.total_size(), 10);
    }

    #[test]
    fn coverage_of_example3() {
        let p = example3();
        assert_eq!(p.coverage_of(&[0, 1]), 6); // {v1, v2} covers all
        assert_eq!(p.coverage_of(&[0]), 3);
        assert_eq!(p.coverage_of(&[]), 0);
        assert_eq!(p.coverage_of(&[4]), 1);
    }

    #[test]
    fn brute_force_example3() {
        let p = example3();
        let (seeds, opt) = p.brute_force_opt(2);
        assert_eq!(opt, 6);
        assert_eq!(seeds, vec![0, 1]);
        assert_eq!(p.brute_force_opt(0).1, 0);
    }

    #[test]
    fn from_set_records_transposes() {
        // Sets: A = {0, 1}, B = {1, 2}. Elements 0..3.
        let p = CoverageProblem::from_set_records(3, [&[0u32, 1][..], &[1, 2]]);
        assert_eq!(p.num_sets(), 2);
        assert_eq!(p.num_elements(), 3);
        assert_eq!(p.coverage_of(&[0]), 2);
        assert_eq!(p.coverage_of(&[0, 1]), 3);
    }

    #[test]
    fn graph_neighborhood_instance() {
        // 0 -> 1, 0 -> 2, 1 -> 2: set 0 covers {1,2}, set 1 covers {2}.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build(WeightModel::WeightedCascade);
        let p = CoverageProblem::from_graph_neighborhoods(&g);
        assert_eq!(p.num_sets(), 3);
        assert_eq!(p.num_elements(), 3);
        assert_eq!(p.coverage_of(&[0]), 2);
        assert_eq!(p.coverage_of(&[1]), 1);
        assert_eq!(p.coverage_of(&[2]), 0);
    }

    #[test]
    fn element_shards_partition_everything() {
        let p = example3();
        for l in 1..=4 {
            let shards = p.shard_elements(l);
            assert_eq!(shards.len(), l);
            let total: usize = shards.iter().map(|s| s.num_elements()).sum();
            assert_eq!(total, p.num_elements());
            let size: usize = shards.iter().map(|s| s.total_size()).sum();
            assert_eq!(size, p.total_size());
        }
    }

    #[test]
    fn set_shards_partition_sets() {
        let p = example3();
        let (shards, partition) = p.shard_sets(2, None);
        let mut all: Vec<u32> = partition.sets.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(partition.num_elements, 6);
        // Set 0 (= v1) covers elements R1, R3, R5 → global ids 0, 2, 4,
        // and is machine 0's first set, local id 0.
        assert_eq!(partition.sets[0], vec![0, 2, 4]);
        let shard0 = &shards[0];
        assert_eq!(shard0.num_sets(), 3);
        assert_eq!(shard0.num_elements(), p.num_elements());
        assert_eq!(shard0.elements_of(0), &[0, 2, 4]);
        // Element R2 = {v2, v3}: only v3 (local id 1) lives on machine 0.
        assert_eq!(shard0.elements().get(1), &[1]);
        assert_eq!(shards[1].elements().get(1), &[0]);
    }

    #[test]
    fn shuffled_set_shards_still_partition() {
        let p = example3();
        let (shards, partition) = p.shard_sets(3, Some(9));
        let mut all: Vec<u32> = partition.sets.concat();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        let size: usize = shards.iter().map(|s| s.total_size()).sum();
        assert_eq!(size, p.total_size());
        for (shard, sets) in shards.iter().zip(&partition.sets) {
            assert_eq!(shard.num_sets(), sets.len());
        }
    }

    #[test]
    fn single_shard_matches_problem() {
        let p = example3();
        let shard = p.single_shard();
        assert_eq!(shard.num_elements(), p.num_elements());
        assert_eq!(shard.total_size(), p.total_size());
    }
}
