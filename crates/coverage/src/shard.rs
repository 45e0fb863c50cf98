//! Per-machine element shard for element-distributed maximum coverage.

use dim_cluster::{OpExecutor, WorkerOp, WorkerReply, WorkerStats};
use dim_graph::scratch::{self, EpochFlags};

use crate::greedy::bucket_greedy;
use crate::pooled::PooledSets;
use crate::query::seed_set_coverage;

/// One machine's shard of the elements in an element-distributed maximum
/// coverage instance (the machine's RR sets `R_i` in the paper).
///
/// Each stored *element record* lists the ids of the sets covering that
/// element (for an RR set, the nodes it contains). The shard maintains:
///
/// * the transpose index `I_i(set) → local element ids`, from which a
///   set's local marginal is counted (Algorithm 1, line 16),
/// * per-element `covered` labels (lines 2, 17, 21), an [`EpochFlags`]
///   read and written through its kernel (`set_all`, `count_unset`).
///
/// Every per-set array is sized by the *domain*, which bounds the set ids
/// the records name: 1 + the largest of them for records pushed one by one
/// (the `BuildShard` op, sampling), the universe for records a loader has
/// already checked against it ([`CoverageShard::from_pooled`]). The
/// universe size `num_sets` is otherwise only the bound ids are checked
/// against, so a shard built by an op costs what the op shipped, whatever
/// universe it names. A set past the domain covers nothing here.
///
/// The index exists for selection only, and [`CoverageShard::prepare`] is
/// the one thing that builds it, at the start of each selection round.
/// Installing records ([`CoverageShard::from_pooled`], the `BuildShard`
/// op), appending them (DiIMM adds RR sets across iterations) or repairing
/// them ([`CoverageShard::replace_elements`]) leaves it stale. The index
/// grows with its records: it remembers how many leading records it
/// describes, and `prepare` transposes only the records appended since
/// ([`PooledSets::extend_transpose`]), so a DiIMM round pays for the sets
/// it added, not for every set. Installing or repairing records starts it
/// over from the first. Repair itself never reads it:
/// [`CoverageShard::elements_containing`] scans the records.
#[derive(Clone, Debug)]
pub struct CoverageShard {
    num_sets: usize,
    /// 1 + the largest set id any record has named (0 when none has).
    domain: usize,
    elements: PooledSets,
    /// Transpose: set id → local element ids, extended in place by
    /// `prepare`. While stale, nothing reads it, and `replace_elements`
    /// uses its buffers as the second arena it splices into. Either way the
    /// shard keeps the same two allocations: a repair or a re-index of an
    /// unchanged size allocates no arena.
    index: PooledSets,
    /// The leading records `index` describes, over `index.len()` sets.
    indexed: usize,
    covered: EpochFlags,
    covered_count: usize,
    /// Elements already reported through [`Self::take_new_coverage`].
    reported_elements: usize,
}

impl CoverageShard {
    /// Creates an empty shard over a universe of `num_sets` sets. Nothing
    /// is sized by `num_sets`.
    pub fn new(num_sets: usize) -> Self {
        CoverageShard {
            num_sets,
            domain: 0,
            elements: PooledSets::new(),
            index: PooledSets::new(),
            indexed: 0,
            covered: EpochFlags::default(),
            covered_count: 0,
            reported_elements: 0,
        }
    }

    /// A shard holding `elements`, as if each record had been pushed: the
    /// index is stale until the next [`CoverageShard::prepare`], which the
    /// first selection round runs, and nothing is yet reported through
    /// `CoverageShard::take_new_coverage`. Loaders hand over the records
    /// they read, every id already checked against `num_sets`, and leave
    /// the index to whoever reads it.
    pub fn from_pooled(num_sets: usize, elements: PooledSets) -> Self {
        CoverageShard {
            domain: num_sets,
            elements,
            ..CoverageShard::new(num_sets)
        }
    }

    /// Creates a shard pre-populated with element records.
    pub fn from_records<'a>(
        num_sets: usize,
        records: impl IntoIterator<Item = &'a [u32]>,
    ) -> Self {
        let mut shard = CoverageShard::new(num_sets);
        for r in records {
            shard.push_element(r);
        }
        shard.prepare();
        shard
    }

    /// Appends one element record (the sets covering it). The index is
    /// stale until the next [`Self::prepare`] transposes the appended
    /// records.
    pub fn push_element(&mut self, covering_sets: &[u32]) {
        debug_assert!(covering_sets
            .iter()
            .all(|&s| (s as usize) < self.num_sets));
        self.widen(covering_sets.iter().copied().max());
        self.elements.push(covering_sets);
    }

    /// Grows the domain to cover set `max`, the largest id a record names.
    fn widen(&mut self, max: Option<u32>) {
        if let Some(max) = max {
            self.domain = self.domain.max(max as usize + 1);
        }
    }

    /// Number of local elements (`|R_i|`).
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Size of the set universe.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// 1 + the largest set id the records name: every set at or past it
    /// covers nothing here.
    pub(crate) fn domain(&self) -> usize {
        self.domain
    }

    /// Σ over local elements of record length (`Σ_{R∈R_i} |R|`).
    pub fn total_size(&self) -> usize {
        self.elements.total_size()
    }

    /// Brings the transpose index up to date and labels every element
    /// *uncovered* (Algorithm 1, lines 1–3). Must be called before a
    /// selection round and after any `push_element` or `replace_elements`.
    /// Only the records appended since the index was last brought up to
    /// date are transposed (all of them after an install or a repair); with
    /// none, only the labels are reset.
    pub fn prepare(&mut self) {
        if self.needs_prepare() {
            self.elements
                .extend_transpose(self.indexed, self.domain, &mut self.index);
            self.indexed = self.elements.len();
        }
        self.covered.reset(self.elements.len());
        self.covered_count = 0;
    }

    /// True when the index is stale: records installed
    /// ([`Self::from_pooled`]), appended ([`Self::push_element`]) or
    /// repaired ([`Self::replace_elements`]) since the last
    /// [`Self::prepare`]. The selection calls (`initial_coverage`,
    /// `apply_seed`, `marginal`, `coverage_of`) refuse a stale shard; the
    /// record readers (`elements`, `elements_containing`) do not need the
    /// index.
    pub fn needs_prepare(&self) -> bool {
        self.indexed < self.elements.len() || self.index.len() != self.domain
    }

    /// This machine's coverage contribution from elements appended since
    /// the last call, as sparse `(set, count)` tuples in increasing set
    /// order. The paper's §III-C traffic optimization: across repeated
    /// NewGreeDi invocations (DiIMM adds RR sets between them), a machine
    /// need only report the marginals over its *newly generated* elements
    /// and let the master accumulate.
    pub(crate) fn take_new_coverage(&mut self) -> Vec<(u32, u32)> {
        let mut counts = vec![0u32; self.domain];
        for e in self.reported_elements..self.elements.len() {
            for &v in self.elements.get(e) {
                counts[v as usize] += 1;
            }
        }
        self.reported_elements = self.elements.len();
        sparse(counts)
    }

    /// This machine's initial coverage of every set: `Δ_i(v)` for all `v`
    /// with nonzero local coverage, as sparse `(set, count)` tuples in
    /// increasing set order (Algorithm 1, line 3).
    pub fn initial_coverage(&self) -> Vec<(u32, u32)> {
        assert!(!self.needs_prepare(), "call prepare() first");
        sparse((0..self.domain).map(|s| self.index.get(s).len() as u32))
    }

    /// Local elements of set `u`, none for a set past the domain.
    pub(crate) fn elements_of(&self, u: u32) -> &[u32] {
        if (u as usize) < self.domain {
            self.index.get(u as usize)
        } else {
            &[]
        }
    }

    /// Applies a newly selected seed `u` (Algorithm 1, lines 17 and 21):
    /// labels every local element containing `u` covered. Nothing is
    /// reported: the master asks for the marginals it needs.
    pub fn apply_seed(&mut self, u: u32) {
        assert!(!self.needs_prepare(), "call prepare() first");
        if (u as usize) < self.domain {
            self.covered_count += self.covered.set_all(self.index.get(u as usize));
        }
    }

    /// Number of locally covered elements after the seeds applied so far.
    pub(crate) fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Local coverage set `u` would add right now.
    pub fn marginal(&self, u: u32) -> usize {
        assert!(!self.needs_prepare(), "call prepare() first");
        self.covered.count_unset(self.elements_of(u))
    }

    /// Local elements covered by `seeds`, read-only: the shard's own labels
    /// are untouched and the transient "seen" marks live in the caller's
    /// `seen` (cleared by the caller, reusable across shards and queries).
    /// Out-of-range and duplicate seed ids add nothing. This is the one
    /// spread kernel: [`crate::seed_set_coverage`] runs it per shard over
    /// the thread-local pooled flags.
    ///
    /// # Panics
    /// Panics if the index is stale (`needs_prepare`) or `seen` tracks
    /// fewer indices than the shard has elements.
    pub fn coverage_of(&self, seeds: &[u32], seen: &mut EpochFlags) -> u64 {
        assert!(!self.needs_prepare(), "call prepare() first");
        assert!(seen.len() >= self.num_elements(), "flags shorter than shard");
        seeds.iter().map(|&u| seen.set_all(self.elements_of(u)) as u64).sum()
    }

    /// Borrow the raw element records.
    pub fn elements(&self) -> &PooledSets {
        &self.elements
    }

    /// Local element ids whose record contains any of the `touched` sets,
    /// in increasing order — the RR-set invalidation lookup for
    /// incremental repair: an edge mutation on `(·, v)` can only change the
    /// traversal of RR sets that visited `v`. One pass over the records
    /// against a per-set mark answers it, so the shard may be stale: repair
    /// never needs the transpose index, which only selection reads. Repeated
    /// touched ids count once.
    ///
    /// # Panics
    /// Panics if a touched id is outside the set universe.
    pub fn elements_containing(&self, touched: &[u32]) -> Vec<u32> {
        scratch::with_flags(self.domain, |hit| {
            for &v in touched {
                assert!((v as usize) < self.num_sets, "touched set {v} outside the universe");
                if (v as usize) < self.domain {
                    hit.set(v as usize);
                }
            }
            (0..self.elements.len() as u32)
                .filter(|&e| self.elements.get(e as usize).iter().any(|&v| hit.is_set(v as usize)))
                .collect()
        })
    }

    /// Replaces the records named in `replacements` (sorted by strictly
    /// increasing element id), leaving every other record as it was. The
    /// incremental-repair path calls this with the re-sampled RR sets after
    /// an edge batch.
    ///
    /// The repaired arena is spliced ([`PooledSets::splice_into`]) into
    /// the stale index's buffers, which then swap places with the previous
    /// arena. Once both buffers have held an arena of the new size, a
    /// repair allocates nothing. The index is not rebuilt: the shard is
    /// left stale ([`Self::needs_prepare`] is true) exactly as after
    /// [`Self::push_element`], with every element uncovered and
    /// unreported, and the next [`Self::prepare`] yields exactly the state
    /// [`CoverageShard::from_records`] would produce for the repaired
    /// record set.
    ///
    /// # Panics
    /// Panics if ids are out of range or not strictly increasing.
    pub fn replace_elements(&mut self, replacements: &[(u32, Vec<u32>)]) {
        self.elements.splice_into(replacements, &mut self.index);
        self.widen(replacements.iter().flat_map(|(_, r)| r).copied().max());
        std::mem::swap(&mut self.elements, &mut self.index);
        self.indexed = 0;
        self.covered_count = 0;
        self.reported_elements = 0;
    }
}

/// The nonzero entries of a dense per-set count, as `(set, count)`.
fn sparse(counts: impl IntoIterator<Item = u32>) -> Vec<(u32, u32)> {
    (0..).zip(counts).filter(|&(_, c)| c > 0).collect()
}

/// dim-serve shares one sketch across worker threads as
/// `Arc<[CoverageShard]>`; keep the shard thread-shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CoverageShard>();
};

/// Executes the coverage-phase subset of the [`WorkerOp`] vocabulary
/// against a shard, or returns `None` for ops outside it (graph loading,
/// RR sampling) so composite workers can route those to their other
/// components. A paired worker routes [`WorkerOp::Validate`] to its
/// validation shard and everything else here to its selection shard.
///
/// This is the single interpretation of coverage ops: the in-process
/// simulator and the `dim-worker` process both funnel through it, which is
/// what makes backend equivalence hold by construction.
/// [`WorkerOp::BuildShard`] installs the records and leaves the index
/// stale; [`WorkerOp::InitialCoverage`] and [`WorkerOp::NewCoverage`] call
/// [`CoverageShard::prepare`] first, starting a fresh selection round.
///
/// [`WorkerOp::ApplySeed`] is NewGreeDi's pull round: it labels the seed's
/// elements covered and answers one local marginal per candidate. No delta
/// is computed.
///
/// [`WorkerOp::Validate`] counts the elements a seed set covers, without
/// labelling them.
///
/// [`WorkerOp::CoreSet`] is GreeDi's core-set round on a set shard: the
/// centralized greedy ([`bucket_greedy`]) for κ of the shard's sets, each
/// answered with the elements it covers.
///
/// An op the shard cannot serve — a record, seed or candidate naming a set
/// outside the universe, a pull before the round's first op — is answered
/// with a [`WorkerReply::Err`] naming the op, never a panic: the worker
/// keeps serving, and a refused pull leaves the shard as it was.
pub fn execute_coverage_op(shard: &mut CoverageShard, op: &WorkerOp) -> Option<WorkerReply> {
    Some(match op {
        WorkerOp::BuildShard { num_sets, elements } => {
            let num_sets = *num_sets as usize;
            if let Some(set) = elements.iter().flatten().find(|&&s| s as usize >= num_sets) {
                return Some(WorkerReply::Err(format!(
                    "BuildShard: record names set {set} outside the universe of {num_sets}"
                )));
            }
            *shard = CoverageShard::new(num_sets);
            for element in elements {
                shard.push_element(element);
            }
            WorkerReply::Ok
        }
        WorkerOp::InitialCoverage => {
            shard.prepare();
            WorkerReply::Deltas(shard.initial_coverage())
        }
        WorkerOp::NewCoverage => {
            shard.prepare();
            WorkerReply::Deltas(shard.take_new_coverage())
        }
        WorkerOp::ApplySeed { .. } if shard.needs_prepare() => WorkerReply::Err(
            "ApplySeed: no InitialCoverage or NewCoverage since the shard changed".into(),
        ),
        WorkerOp::ApplySeed { seed, candidates } => {
            if let Some(err) = outside_universe("ApplySeed", shard, seed.iter().chain(candidates)) {
                return Some(err);
            }
            if let Some(u) = *seed {
                shard.apply_seed(u);
            }
            let marginals = candidates.iter().map(|&v| shard.marginal(v) as u32);
            WorkerReply::Marginals(marginals.collect())
        }
        WorkerOp::Validate { seeds } => {
            if let Some(err) = outside_universe("Validate", shard, seeds.iter()) {
                return Some(err);
            }
            shard.prepare();
            WorkerReply::Count(seed_set_coverage(std::slice::from_ref(shard), seeds))
        }
        WorkerOp::CoveredCount => WorkerReply::Count(shard.covered_count() as u64),
        WorkerOp::CoreSet { kappa } => {
            let picks = bucket_greedy(shard, *kappa as usize).seeds.into_iter();
            WorkerReply::CoreSet(picks.map(|u| (u, shard.elements_of(u).to_vec())).collect())
        }
        WorkerOp::Stats => WorkerReply::Stats(WorkerStats {
            num_elements: shard.num_elements() as u64,
            total_size: shard.total_size() as u64,
            edges_examined: 0,
        }),
        _ => return None,
    })
}

/// The `Err` reply naming `op` and the first of `ids` outside `shard`'s
/// universe, if any is.
fn outside_universe<'a>(
    op: &str,
    shard: &CoverageShard,
    mut ids: impl Iterator<Item = &'a u32>,
) -> Option<WorkerReply> {
    let universe = shard.num_sets;
    let set = ids.find(|&&s| s as usize >= universe)?;
    Some(WorkerReply::Err(format!(
        "{op}: set {set} outside the universe of {universe}"
    )))
}

impl OpExecutor for CoverageShard {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        execute_coverage_op(self, op)
            .unwrap_or_else(|| WorkerReply::Err("op unsupported by coverage shard".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 instance as a single shard.
    fn example3() -> CoverageShard {
        CoverageShard::from_records(
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
    fn initial_coverage_matches_example3() {
        let shard = example3();
        // v1 covers R1,R3,R5 → 3; v2 covers R2,R4,R6 → 3; v3 covers
        // R2,R3 → 2; v4 covers R6 → 1; v5 covers R4 → 1.
        assert_eq!(
            shard.initial_coverage(),
            vec![(0, 3), (1, 3), (2, 2), (3, 1), (4, 1)]
        );
    }

    /// Marginals of every set of `shard`'s universe.
    fn marginals(shard: &CoverageShard) -> Vec<usize> {
        (0..shard.num_sets() as u32).map(|v| shard.marginal(v)).collect()
    }

    #[test]
    fn apply_seed_marks_its_elements_covered() {
        let mut shard = example3();
        // Selecting v1 covers R1, R3, R5 = {v1}, {v1, v3}, {v1}: v1 loses
        // 3, v3 loses 1.
        shard.apply_seed(0);
        assert_eq!(shard.covered_count(), 3);
        assert_eq!(marginals(&shard), vec![0, 3, 1, 1, 1]);
        // Second application is a no-op: sets already covered.
        shard.apply_seed(0);
        assert_eq!(shard.covered_count(), 3);
    }

    #[test]
    fn greedy_example3_sequence() {
        let mut shard = example3();
        shard.apply_seed(0); // v1: covers R1,R3,R5
        assert_eq!(shard.marginal(1), 3); // v2 still covers R2,R4,R6
        shard.apply_seed(1);
        assert_eq!(shard.marginal(4), 0); // everything v5 covers is covered
        assert_eq!(shard.covered_count(), 6);
    }

    #[test]
    fn prepare_resets_coverage() {
        let mut shard = example3();
        shard.apply_seed(0);
        shard.prepare();
        assert_eq!(shard.covered_count(), 0);
        assert_eq!(shard.marginal(0), 3);
    }

    #[test]
    fn incremental_append_requires_prepare() {
        let mut shard = example3();
        assert!(!shard.needs_prepare());
        shard.push_element(&[4]);
        assert!(shard.needs_prepare());
        shard.prepare();
        assert_eq!(shard.marginal(4), 2);
    }

    #[test]
    fn take_new_coverage_incremental() {
        let mut shard = CoverageShard::new(3);
        shard.push_element(&[0, 1]);
        shard.push_element(&[1]);
        shard.prepare();
        assert_eq!(shard.take_new_coverage(), vec![(0, 1), (1, 2)]);
        // Nothing new: empty delta.
        assert_eq!(shard.take_new_coverage(), vec![]);
        // Append more elements: only their contribution is reported.
        shard.push_element(&[2, 0]);
        shard.prepare();
        assert_eq!(shard.take_new_coverage(), vec![(0, 1), (2, 1)]);
        // Accumulated totals equal a full recount.
        assert_eq!(
            shard.initial_coverage(),
            vec![(0, 2), (1, 2), (2, 1)]
        );
    }

    #[test]
    fn from_pooled_matches_from_records() {
        let fresh = example3();
        let mut rebuilt = CoverageShard::from_pooled(5, fresh.elements().clone());
        // Records only: the index waits for the first selection round.
        assert!(rebuilt.needs_prepare());
        // Snapshot contents count as unreported, like fresh pushes.
        assert_eq!(rebuilt.clone().take_new_coverage(), fresh.initial_coverage());
        rebuilt.prepare();
        assert_eq!(rebuilt.initial_coverage(), fresh.initial_coverage());
        let mut a = fresh.clone();
        let mut b = rebuilt.clone();
        a.apply_seed(0);
        b.apply_seed(0);
        assert_eq!(marginals(&a), marginals(&b));
        assert_eq!(a.covered_count(), b.covered_count());
    }

    fn example3_records() -> Vec<Vec<u32>> {
        example3().elements().iter().map(<[u32]>::to_vec).collect()
    }

    /// `BuildShard` installs the records and leaves the index to the
    /// round's first op, which answers what a prepared build answers.
    #[test]
    fn build_shard_leaves_the_shard_stale_for_initial_coverage() {
        let mut shard = CoverageShard::new(0);
        let build = WorkerOp::BuildShard { num_sets: 5, elements: example3_records() };
        assert_eq!(execute_coverage_op(&mut shard, &build), Some(WorkerReply::Ok));
        assert!(shard.needs_prepare());
        assert_eq!((shard.num_sets(), shard.num_elements()), (5, 6));
        let expected = CoverageShard::from_records(5, example3().elements().iter());
        assert_eq!(
            execute_coverage_op(&mut shard, &WorkerOp::InitialCoverage),
            Some(WorkerReply::Deltas(expected.initial_coverage()))
        );
        assert!(!shard.needs_prepare());
    }

    fn expect_err(reply: Option<WorkerReply>, op_name: &str) {
        match reply {
            Some(WorkerReply::Err(msg)) => assert!(msg.starts_with(op_name), "{msg}"),
            other => panic!("expected an error naming {op_name}, got {other:?}"),
        }
    }

    fn pull(seed: Option<u32>, candidates: &[u32]) -> WorkerOp {
        WorkerOp::ApplySeed { seed, candidates: candidates.to_vec() }
    }

    #[test]
    fn apply_seed_outside_the_universe_is_an_error_reply() {
        let mut shard = example3();
        expect_err(execute_coverage_op(&mut shard, &pull(Some(5), &[])), "ApplySeed");
        // A bad candidate refuses the whole round: seed 0 is not applied.
        expect_err(execute_coverage_op(&mut shard, &pull(Some(0), &[1, 5])), "ApplySeed");
        assert_eq!(shard.covered_count(), 0);
        // Still serving: the next op gets its ordinary answer.
        let reply = execute_coverage_op(&mut shard, &pull(Some(0), &[0, 2, 1]));
        assert_eq!(reply, Some(WorkerReply::Marginals(vec![0, 1, 3])));
    }

    /// The records name the domain: set 7 is the largest of a 10-set
    /// universe, and the sets past it answer like sets nothing covers.
    /// (`tests/alloc_regression.rs` builds over a `u32::MAX` universe.)
    #[test]
    fn a_shard_is_sized_by_its_records_not_its_universe() {
        let mut shard = CoverageShard::new(0);
        let build = WorkerOp::BuildShard { num_sets: 10, elements: vec![vec![7, 2], vec![3]] };
        execute_coverage_op(&mut shard, &build);
        execute_coverage_op(&mut shard, &WorkerOp::InitialCoverage);
        assert_eq!(shard.domain(), 8);
        assert_eq!(shard.initial_coverage(), vec![(2, 1), (3, 1), (7, 1)]);
        assert_eq!(marginals(&shard), vec![0, 0, 1, 1, 0, 0, 0, 1, 0, 0]);
        assert_eq!(shard.elements_containing(&[9]), Vec::<u32>::new());
    }

    #[test]
    fn build_shard_naming_a_set_outside_the_universe_is_an_error_reply() {
        let mut shard = example3();
        let build = WorkerOp::BuildShard { num_sets: 3, elements: vec![vec![0], vec![2, 3]] };
        expect_err(execute_coverage_op(&mut shard, &build), "BuildShard");
        // Refused whole: the previous shard is untouched.
        assert_eq!((shard.num_sets(), shard.num_elements()), (5, 6));
        assert!(!shard.needs_prepare());
    }

    #[test]
    fn apply_seed_on_a_stale_shard_is_an_error_reply() {
        let mut shard = CoverageShard::new(0);
        let build = WorkerOp::BuildShard { num_sets: 5, elements: example3_records() };
        execute_coverage_op(&mut shard, &build);
        expect_err(execute_coverage_op(&mut shard, &pull(Some(0), &[])), "ApplySeed");
        execute_coverage_op(&mut shard, &WorkerOp::InitialCoverage);
        let reply = execute_coverage_op(&mut shard, &pull(Some(0), &[2]));
        assert_eq!(reply, Some(WorkerReply::Marginals(vec![1])));
    }

    /// Over TCP, a bad coverage op fails its round as `Malformed` naming
    /// the machine, and the link survives to serve the next round.
    #[test]
    fn bad_coverage_ops_fail_the_round_not_the_link() {
        use dim_cluster::{phase, NetworkModel, OpCluster, ProcCluster, WireErrorKind};
        fn fails_on(
            cluster: &mut ProcCluster,
            label: &'static str,
            op: impl Fn(usize) -> WorkerOp + Sync,
            machine: usize,
        ) {
            let err = cluster.control(label, op).unwrap_err();
            assert_eq!((err.phase, err.machine), (label, Some(machine)));
            assert_eq!(err.kind, WireErrorKind::Malformed);
            let counts = cluster.control(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
            assert_eq!(counts.unwrap().len(), 2, "every link still answers");
        }
        let mut cluster =
            ProcCluster::local_with(2, NetworkModel::zero(), 4, |_| CoverageShard::new(0)).unwrap();
        // Machine i holds the records {0} and {i + 1}.
        let build = |num_sets| {
            move |i: usize| WorkerOp::BuildShard {
                num_sets,
                elements: vec![vec![0], vec![i as u32 + 1]],
            }
        };
        // Machine 1's second record names set 2 of a 2-set universe.
        fails_on(&mut cluster, phase::SETUP, build(2), 1);
        // Built but not prepared: a pull before the round's first op.
        cluster.control(phase::SETUP, build(3)).unwrap();
        fails_on(&mut cluster, phase::SEED_BROADCAST, |_| pull(None, &[0]), 0);
        // Prepared; machine 1's seed lies past the universe.
        cluster.control(phase::COVERAGE_UPLOAD, |_| WorkerOp::InitialCoverage).unwrap();
        let seed = |i: usize| pull(Some(2 + i as u32), &[]);
        fails_on(&mut cluster, phase::SEED_BROADCAST, seed, 1);
        // Machine 1's candidate lies past the universe.
        let candidate = |i: usize| pull(None, &[0, 2 + i as u32]);
        fails_on(&mut cluster, phase::SEED_BROADCAST, candidate, 1);
        // Every machine answers a good pull: set 0's one element each.
        let answers = cluster.control(phase::SEED_BROADCAST, |_| pull(None, &[0])).unwrap();
        assert_eq!(answers, vec![WorkerReply::Marginals(vec![1]); 2]);
    }

    /// The read-only `coverage_of` counts what applying the same seeds to
    /// a second shard counts, and leaves its own shard's labels alone.
    #[test]
    fn cover_counts_match_deltas() {
        let shard = example3();
        let mut seen = EpochFlags::new(shard.num_elements());
        let mut via_deltas = example3();
        let seeds = [1u32, 4, 2, 4, 99];
        for upto in 1..=seeds.len() {
            via_deltas.apply_seed(seeds[upto - 1]);
            seen.clear();
            assert_eq!(
                shard.coverage_of(&seeds[..upto], &mut seen),
                via_deltas.covered_count() as u64
            );
        }
        assert_eq!(shard.covered_count(), 0, "read-only");
        assert_eq!(marginals(&shard), marginals(&example3()));
    }

    #[test]
    fn elements_containing_scans_records() {
        let shard = example3();
        // Set 0 appears in elements 0, 2, 4; set 2 in elements 1, 2.
        assert_eq!(shard.elements_containing(&[0]), vec![0, 2, 4]);
        assert_eq!(shard.elements_containing(&[2]), vec![1, 2]);
        // Union is deduped and sorted.
        assert_eq!(shard.elements_containing(&[0, 2]), vec![0, 1, 2, 4]);
        assert_eq!(shard.elements_containing(&[]), Vec::<u32>::new());
        // A stale shard answers from its records, appended ones included.
        let mut stale = example3();
        stale.push_element(&[2, 3]);
        assert!(stale.needs_prepare());
        assert_eq!(stale.elements_containing(&[2]), vec![1, 2, 6]);
        assert_eq!(stale.elements_containing(&[3, 3]), vec![5, 6]);
    }

    #[test]
    fn replace_elements_matches_fresh_build() {
        let mut repaired = example3();
        repaired.replace_elements(&[(1, vec![3, 4]), (4, vec![2])]);
        // A repair leaves the index stale, like an append.
        assert!(repaired.needs_prepare());
        repaired.prepare();
        let fresh = CoverageShard::from_records(
            5,
            [&[0u32][..], &[3, 4], &[0, 2], &[1, 4], &[2], &[1, 3]],
        );
        assert_eq!(repaired.initial_coverage(), fresh.initial_coverage());
        assert_eq!(repaired.num_elements(), fresh.num_elements());
        assert_eq!(repaired.total_size(), fresh.total_size());
        let mut a = repaired.clone();
        let mut b = fresh.clone();
        a.apply_seed(4);
        b.apply_seed(4);
        assert_eq!(marginals(&a), marginals(&b));
        // Everything counts as unreported again after a repair.
        assert_eq!(repaired.clone().take_new_coverage(), fresh.initial_coverage());
        // Empty replacement list is an identity rebuild.
        let mut id = example3();
        id.replace_elements(&[]);
        id.prepare();
        assert_eq!(id.initial_coverage(), example3().initial_coverage());
    }

    /// Random sequences of appended batches (ids past the domain, empty
    /// batches and empty records included), prepares, repairs and
    /// reloads: after every prepare the grown index is byte for byte the
    /// transpose of the records.
    #[test]
    fn the_grown_index_is_the_transpose_of_the_records() {
        let mut rng = dim_graph::Rng::new(0x1d3c5);
        for case in 0..200 {
            let num_sets = 1 + rng.below(30);
            let mut shard = CoverageShard::new(num_sets);
            let mut log = Vec::new();
            for _ in 0..16 {
                let record = |rng: &mut dim_graph::Rng| -> Vec<u32> {
                    let bound = 1 + rng.below(num_sets);
                    (0..rng.below(5)).map(|_| rng.below(bound) as u32).collect()
                };
                match rng.below(5) {
                    0 | 1 => {
                        let batch: Vec<Vec<u32>> =
                            (0..rng.below(5)).map(|_| record(&mut rng)).collect();
                        for r in &batch {
                            shard.push_element(r);
                        }
                        log.push(format!("append {batch:?}"));
                    }
                    2 => {
                        let mut repairs = Vec::new();
                        for id in 0..shard.num_elements() as u32 {
                            if rng.below(3) == 0 {
                                repairs.push((id, record(&mut rng)));
                            }
                        }
                        shard.replace_elements(&repairs);
                        log.push(format!("replace {repairs:?}"));
                    }
                    3 => {
                        shard = CoverageShard::from_pooled(num_sets, shard.elements().clone());
                        log.push("from_pooled".into());
                    }
                    _ => {
                        shard.prepare();
                        log.push("prepare".into());
                        assert!(!shard.needs_prepare());
                        assert_eq!(shard.indexed, shard.num_elements());
                        let fresh = shard.elements().transpose(shard.domain());
                        assert_eq!(shard.index, fresh, "case {case}: {log:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn replace_elements_rejects_out_of_range_id() {
        let mut shard = example3();
        shard.replace_elements(&[(99, vec![0])]);
    }

    #[test]
    fn empty_shard() {
        let mut shard = CoverageShard::new(3);
        shard.prepare();
        assert_eq!(shard.initial_coverage(), vec![]);
        shard.apply_seed(1);
        assert_eq!(shard.marginal(1), 0);
        assert_eq!(shard.covered_count(), 0);
    }
}
