//! Flat pooled storage of `u32` lists.

use std::ops::Range;

/// Append-only storage of variable-length `u32` lists (until
/// [`PooledSets::splice_into`] or [`PooledSets::extend_transpose`]
/// overwrites it for reuse), stored back-to-back in one pool: a machine's
/// RR sets `R_i` and, through [`PooledSets::transpose`], their
/// node→RR-set index `I_i(v)` (§III). The
/// lists are plain `u32`s, so the coverage layer has no dependency on
/// diffusion (maximum coverage is a standalone problem — Fig. 10 runs it on
/// graph neighborhoods).
///
/// The offset array is `u32` (struct-of-arrays over one arena), halving
/// the index footprint versus `usize` offsets so more of the hot transpose
/// index stays cache-resident; the pool is therefore capped at `u32::MAX`
/// entries and `u32::MAX` lists, enforced by [`PooledSets::push`] and
/// [`PooledSets::splice_into`].
///
/// **Invariant** (maintained by every constructor and mutator and relied on by the
/// unchecked hot-path accessors): `offsets` is non-empty, starts at 0, is
/// monotone non-decreasing, and ends at `pool.len()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PooledSets {
    offsets: Vec<u32>,
    pool: Vec<u32>,
}

impl Default for PooledSets {
    fn default() -> Self {
        PooledSets::new()
    }
}

impl PooledSets {
    /// Creates empty storage.
    pub fn new() -> Self {
        PooledSets {
            offsets: vec![0],
            pool: Vec::new(),
        }
    }

    /// Creates empty storage pre-sized for `lists` lists totalling
    /// `total_len` entries.
    pub fn with_capacity(lists: usize, total_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(lists + 1);
        offsets.push(0);
        PooledSets {
            offsets,
            pool: Vec::with_capacity(total_len),
        }
    }

    /// Validated assembly from raw `(offsets, pool)` parts: `Err` with the
    /// violated condition instead of panicking, so callers holding
    /// untrusted bytes (dim-store snapshot decoding) can surface a typed
    /// corruption error.
    pub fn try_from_parts(offsets: Vec<usize>, pool: Vec<u32>) -> Result<Self, &'static str> {
        if offsets.is_empty() || offsets[0] != 0 {
            return Err("offset array must start at zero");
        }
        if *offsets.last().unwrap() != pool.len() {
            return Err("offset array must end at the pool length");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset array must be monotone");
        }
        if pool.len() > u32::MAX as usize || offsets.len() - 1 > u32::MAX as usize {
            return Err("pool or list count exceeds the u32 arena bound");
        }
        Ok(PooledSets {
            offsets: offsets.into_iter().map(|o| o as u32).collect(),
            pool,
        })
    }

    /// Appends one list; returns its id.
    ///
    /// # Panics
    /// Panics (with a message naming the bound) instead of silently
    /// truncating when the list count would exceed `u32::MAX` ids or the
    /// pool would outgrow the `u32` offset range.
    pub fn push(&mut self, list: &[u32]) -> u32 {
        let id = self.offsets.len() - 1;
        assert!(
            id <= u32::MAX as usize,
            "PooledSets: list id would exceed u32::MAX (2^32 lists stored)"
        );
        let end = self.pool.len() + list.len();
        assert!(
            end <= u32::MAX as usize,
            "PooledSets: pool length {end} exceeds the u32 offset range"
        );
        self.pool.extend_from_slice(list);
        self.offsets.push(end as u32);
        id as u32
    }

    /// Removes every list and keeps both allocations, so refilling the
    /// storage up to its old size allocates nothing.
    fn clear(&mut self) {
        self.offsets.truncate(1);
        self.pool.clear();
    }

    /// Appends lists `range` of `src`, in order, with one copy of their
    /// entries: the bulk form of pushing them one at a time.
    ///
    /// # Panics
    /// Panics if `range` is not within `src`, or under the same bounds as
    /// [`PooledSets::push`].
    fn extend_from(&mut self, src: &PooledSets, range: Range<usize>) {
        let (lo, hi) = (src.offsets[range.start], src.offsets[range.end]);
        let base = self.pool.len();
        let end = base + (hi - lo) as usize;
        assert!(
            self.len() + range.len() <= u32::MAX as usize + 1,
            "PooledSets: list id would exceed u32::MAX (2^32 lists stored)"
        );
        assert!(
            end <= u32::MAX as usize,
            "PooledSets: pool length {end} exceeds the u32 offset range"
        );
        self.pool.extend_from_slice(&src.pool[lo as usize..hi as usize]);
        let shift = base as u32;
        self.offsets.extend(
            src.offsets[range.start + 1..=range.end]
                .iter()
                .map(|&o| o - lo + shift),
        );
    }

    /// Writes these lists into `out` with each `(id, list)` of
    /// `sorted_replacements` (strictly increasing ids) in place of list
    /// `id`: runs of kept lists are copied in bulk, the replacements pushed
    /// between them. `out` is overwritten and sized exactly (no growth
    /// slack), keeping its allocations: splicing into a buffer that has
    /// held a collection of the result's size allocates nothing.
    ///
    /// # Panics
    /// Panics if an id is out of range or the ids do not strictly
    /// increase (before `out` is touched), or under the bounds of
    /// [`PooledSets::push`].
    pub fn splice_into<R: AsRef<[u32]>>(
        &self,
        sorted_replacements: &[(u32, R)],
        out: &mut PooledSets,
    ) {
        let n = self.len();
        let mut total = self.total_size();
        let mut prev: Option<u32> = None;
        for (id, list) in sorted_replacements {
            assert!(prev.is_none_or(|p| p < *id), "replacement ids must increase");
            assert!((*id as usize) < n, "replacement id out of range");
            total = total + list.as_ref().len() - self.get(*id as usize).len();
            prev = Some(*id);
        }
        out.clear();
        out.offsets.reserve_exact(n);
        out.pool.reserve_exact(total);
        let mut kept = 0;
        for (id, list) in sorted_replacements {
            out.extend_from(self, kept..*id as usize);
            out.push(list.as_ref());
            kept = *id as usize + 1;
        }
        out.extend_from(self, kept..n);
    }

    /// Number of lists.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no lists are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `id`-th list.
    #[inline]
    pub fn get(&self, id: usize) -> &[u32] {
        let lo = self.offsets[id] as usize;
        let hi = self.offsets[id + 1] as usize;
        // SAFETY: the struct invariant guarantees offsets are monotone and
        // bounded by `pool.len()`, so `lo..hi` is always in range.
        unsafe { self.pool.get_unchecked(lo..hi) }
    }

    /// Total entries across all lists.
    pub fn total_size(&self) -> usize {
        self.pool.len()
    }

    /// Iterates lists in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.pool[w[0] as usize..w[1] as usize])
    }

    /// Builds the transpose over value domain `0..domain`: for each value
    /// `v`, the ids of lists containing `v`. Returned in the same
    /// `PooledSets` representation (list `v` = ids containing `v`).
    pub fn transpose(&self, domain: usize) -> PooledSets {
        let mut index = PooledSets::new();
        self.extend_transpose(0, domain, &mut index);
        index
    }

    /// Extends `out`, the transpose of lists `0..from` (over a domain no
    /// larger than `domain`), to the transpose of every list over
    /// `0..domain`, reusing its allocations. With `from = 0` whatever `out`
    /// holds is overwritten: that is the full transpose.
    ///
    /// Only lists `from..` are counted. Each value's run keeps its old ids
    /// and grows by its new count; the runs are moved up to their new
    /// starts top down and in place (a run never moves down, so none is
    /// overwritten before it has moved), and the new ids are scattered
    /// after them. Old runs hold ids below `from` in ascending order, so
    /// the result equals [`PooledSets::transpose`] byte for byte. The pool
    /// grows exactly, and the only allocation besides that growth is one
    /// per-value cursor array.
    ///
    /// # Panics
    /// Panics if `from` is past the lists, if `out` spans more than
    /// `domain` values or does not hold `from` lists' entries, or if a list
    /// from `from` on names a value outside `0..domain`.
    pub fn extend_transpose(&self, from: usize, domain: usize, out: &mut PooledSets) {
        if from == 0 {
            // The transpose of no lists; the stale pool is only resized.
            out.offsets.truncate(1);
        }
        let kept = self.offsets[from];
        assert!(out.len() <= domain, "transpose: index spans more than the domain");
        assert_eq!(out.offsets[out.len()], kept, "transpose: index is not of lists 0..from");
        out.offsets.reserve_exact((domain + 1).saturating_sub(out.offsets.len()));
        out.offsets.resize(domain + 1, kept);
        // Count the new ids per value, then turn each count into the
        // value's cursor: its new start plus its old run's length.
        let mut cursor = vec![0u32; domain];
        for &v in &self.pool[kept as usize..] {
            cursor[v as usize] += 1;
        }
        let mut start = 0u32;
        for (v, c) in cursor.iter_mut().enumerate() {
            let run = out.offsets[v + 1] - out.offsets[v];
            let added = std::mem::replace(c, start + run);
            start += run + added;
        }
        let total = start as usize;
        if kept == 0 && out.pool.capacity() < total {
            // Nothing to keep: a fresh zeroed allocation copies none of the
            // stale ids that growing the old one would.
            out.pool = vec![0; total];
        } else {
            // Every slot past the old runs is overwritten below; only a
            // grown tail is zeroed.
            out.pool.reserve_exact(total.saturating_sub(out.pool.len()));
            out.pool.resize(total, 0);
        }
        let mut hi = kept;
        out.offsets[domain] = start;
        for v in (0..domain).rev() {
            let lo = out.offsets[v];
            let to = cursor[v] - (hi - lo);
            if lo < hi {
                out.pool.copy_within(lo as usize..hi as usize, to as usize);
            }
            out.offsets[v] = to;
            hi = lo;
        }
        self.scatter(from, &mut cursor, &mut out.pool);
    }

    /// Writes each id from `from` on at its values' cursors, advancing them.
    /// A function of its own: inlined into [`PooledSets::extend_transpose`]
    /// the loop compiled to about 10 % slower code.
    fn scatter(&self, from: usize, cursor: &mut [u32], pool: &mut [u32]) {
        for id in from..self.len() {
            for &v in self.get(id) {
                pool[cursor[v as usize] as usize] = id as u32;
                cursor[v as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter() {
        let mut p = PooledSets::new();
        assert!(p.is_empty());
        assert_eq!(p.push(&[1, 2]), 0);
        assert_eq!(p.push(&[]), 1);
        assert_eq!(p.push(&[0]), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(0), &[1, 2]);
        assert_eq!(p.get(1), &[] as &[u32]);
        assert_eq!(p.get(2), &[0]);
        assert_eq!(p.total_size(), 3);
        assert_eq!(p.iter().count(), 3);
    }

    fn pooled(lists: &[&[u32]]) -> PooledSets {
        let mut p = PooledSets::new();
        for list in lists {
            p.push(list);
        }
        p
    }

    #[test]
    fn transpose_involution() {
        let p = pooled(&[&[0, 1], &[1, 2, 3], &[0, 2]]);
        let t = p.transpose(4);
        assert_eq!(t.get(0), &[0, 2]); // value 0 in lists 0 and 2
        assert_eq!(t.get(1), &[0, 1]);
        assert_eq!(t.get(3), &[1]);

        // Paper Example 3 (Fig. 2): R1={v1,v2}, R2={v2,v3,v4}, R3={v1,v3},
        // R4={v2,v5}, R5={v1}, R6={v4,v5}, ids shifted down by one, over a
        // domain with one more node (id 5) that no RR set contains.
        let fig2 = pooled(&[&[0, 1], &[1, 2, 3], &[0, 2], &[1, 4], &[0], &[3, 4]]);
        let idx = fig2.transpose(6);
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.get(0), &[0, 2, 4]); // v1 ∈ R1, R3, R5
        assert_eq!(idx.get(1).len(), 3); // v2 ∈ R1, R2, R4
        assert_eq!(idx.get(3), &[1, 5]);
        assert_eq!(idx.get(5), &[] as &[u32], "absent node covers nothing");
        // Σ coverage = total size.
        let covered: usize = (0..idx.len()).map(|v| idx.get(v).len()).sum();
        assert_eq!(covered, fig2.total_size());
        assert_eq!(idx.total_size(), fig2.total_size());

        // An empty collection transposes to empty lists.
        let empty = PooledSets::new().transpose(3);
        assert_eq!((empty.len(), empty.total_size()), (3, 0));

        // Transposing back over the list domain recovers the original.
        for p in [p, fig2] {
            let back = p.transpose(6).transpose(p.len());
            assert!(back.iter().eq(p.iter()));
        }
    }

    #[test]
    fn a_full_transpose_overwrites_any_previous_contents() {
        let small = pooled(&[&[0, 1], &[1]]);
        let large = pooled(&[&[0, 1], &[1, 2, 3], &[0, 2], &[3, 4], &[]]);
        let mut out = PooledSets::new();
        // Growing, shrinking and regrowing the same buffers.
        for (p, domain) in [(&small, 2), (&large, 6), (&small, 3), (&large, 5)] {
            p.extend_transpose(0, domain, &mut out);
            assert_eq!(out, p.transpose(domain));
        }
    }

    /// Extending the transpose of every prefix, over a domain that grows
    /// with it, equals transposing the whole collection.
    #[test]
    fn extending_a_prefix_transpose_equals_the_full_transpose() {
        let p = pooled(&[&[0, 1], &[], &[1, 2, 3], &[0, 2], &[5], &[3, 4], &[0]]);
        let domain_of = |upto: usize| {
            let values = &p.pool[..p.offsets[upto] as usize];
            values.iter().max().map_or(0, |&m| m as usize + 1)
        };
        for from in 0..=p.len() {
            for domain in [domain_of(p.len()), 8] {
                let mut prefix = pooled(&[]);
                for id in 0..from {
                    prefix.push(p.get(id));
                }
                let mut out = prefix.transpose(domain_of(from));
                p.extend_transpose(from, domain, &mut out);
                assert_eq!(out, p.transpose(domain), "from {from}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not of lists 0..from")]
    fn extend_transpose_rejects_an_index_of_another_prefix() {
        let p = pooled(&[&[0, 1], &[1]]);
        let mut out = p.transpose(2);
        p.extend_transpose(1, 2, &mut out);
    }

    #[test]
    fn clear_keeps_allocations_and_leaves_valid_storage() {
        let mut p = pooled(&[&[0, 1], &[1, 2, 3], &[0, 2]]);
        let (offsets_cap, pool_cap) = (p.offsets.capacity(), p.pool.capacity());
        let (offsets_ptr, pool_ptr) = (p.offsets.as_ptr(), p.pool.as_ptr());
        p.clear();
        assert!(p.is_empty());
        assert_eq!((p.len(), p.total_size(), p.iter().count()), (0, 0, 0));
        assert_eq!(p.offsets, vec![0]);
        assert_eq!((p.offsets.capacity(), p.pool.capacity()), (offsets_cap, pool_cap));
        // Refilling within the old size reuses the same buffers.
        assert_eq!(p.push(&[4, 5]), 0);
        assert_eq!(p.push(&[6]), 1);
        assert_eq!((p.offsets.as_ptr(), p.pool.as_ptr()), (offsets_ptr, pool_ptr));
        assert_eq!(p.get(0), &[4, 5]);
        assert_eq!(p.get(1), &[6]);
        assert_eq!(p.transpose(7).get(6), &[1]);
    }

    #[test]
    fn extend_from_equals_pushing_each_list() {
        let src = pooled(&[&[0, 1], &[], &[1, 2, 3], &[0, 2], &[4]]);
        for (start, end) in [(0, 0), (0, 5), (1, 3), (2, 5), (5, 5)] {
            let mut bulk = pooled(&[&[9]]);
            bulk.extend_from(&src, start..end);
            let mut one_by_one = pooled(&[&[9]]);
            for id in start..end {
                one_by_one.push(src.get(id));
            }
            assert_eq!(bulk.offsets, one_by_one.offsets, "{start}..{end}");
            assert_eq!(bulk.pool, one_by_one.pool, "{start}..{end}");
        }
    }

    /// For random collections and random sorted replacements, splicing
    /// into a reused buffer equals pushing the result one list at a time.
    #[test]
    fn splice_into_equals_a_push_by_push_rebuild() {
        let mut rng = dim_graph::Rng::new(0x5911ce);
        let mut out = pooled(&[&[7, 7, 7]]);
        for case in 0..200 {
            let list = |rng: &mut dim_graph::Rng| -> Vec<u32> {
                (0..rng.below(6)).map(|_| rng.below(50) as u32).collect()
            };
            let src = {
                let mut p = PooledSets::new();
                for _ in 0..rng.below(12) {
                    p.push(&list(&mut rng));
                }
                p
            };
            let mut replacements: Vec<(u32, Vec<u32>)> = Vec::new();
            for id in 0..src.len() as u32 {
                if rng.below(3) == 0 {
                    replacements.push((id, list(&mut rng)));
                }
            }
            src.splice_into(&replacements, &mut out);
            let mut expected = PooledSets::new();
            let mut next = replacements.iter().peekable();
            for id in 0..src.len() {
                match next.next_if(|(r, _)| *r as usize == id) {
                    Some((_, record)) => expected.push(record),
                    None => expected.push(src.get(id)),
                };
            }
            assert_eq!(out.offsets, expected.offsets, "case {case}: {replacements:?}");
            assert_eq!(out.pool, expected.pool, "case {case}: {replacements:?}");
        }
    }

    #[test]
    #[should_panic(expected = "replacement ids must increase")]
    fn splice_into_rejects_unsorted_ids() {
        let src = pooled(&[&[0], &[1], &[2]]);
        src.splice_into(&[(2, vec![5]), (1, vec![6])], &mut PooledSets::new());
    }

    #[test]
    #[should_panic]
    fn extend_from_rejects_a_range_past_the_source() {
        let src = pooled(&[&[0, 1]]);
        PooledSets::new().extend_from(&src, 0..2);
    }

    #[test]
    fn try_from_parts_reports_each_violation() {
        assert!(PooledSets::try_from_parts(vec![], vec![])
            .unwrap_err()
            .contains("start at zero"));
        assert!(PooledSets::try_from_parts(vec![1, 2], vec![1, 2])
            .unwrap_err()
            .contains("start at zero"));
        assert!(PooledSets::try_from_parts(vec![0, 5], vec![1, 2])
            .unwrap_err()
            .contains("end at the pool length"));
        assert!(PooledSets::try_from_parts(vec![0, 2, 1, 3], vec![1, 2, 3])
            .unwrap_err()
            .contains("monotone"));
        let ok = PooledSets::try_from_parts(vec![0, 1, 3], vec![7, 8, 9]).unwrap();
        assert_eq!(ok.get(1), &[8, 9]);
    }
}
