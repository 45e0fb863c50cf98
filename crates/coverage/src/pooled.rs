//! Flat pooled storage of `u32` lists.

/// Append-only storage of variable-length `u32` lists, stored back-to-back
/// in one pool: a machine's RR sets `R_i` and, through
/// [`PooledSets::transpose`], their node→RR-set index `I_i(v)` (§III). The
/// lists are plain `u32`s, so the coverage layer has no dependency on
/// diffusion (maximum coverage is a standalone problem — Fig. 10 runs it on
/// graph neighborhoods).
///
/// The offset array is `u32` (struct-of-arrays over one arena), halving
/// the index footprint versus `usize` offsets so more of the hot transpose
/// index stays cache-resident; the pool is therefore capped at `u32::MAX`
/// entries and `u32::MAX` lists, enforced by [`PooledSets::push`].
///
/// **Invariant** (maintained by every constructor and relied on by the
/// unchecked hot-path accessors): `offsets` is non-empty, starts at 0, is
/// monotone non-decreasing, and ends at `pool.len()`.
#[derive(Clone, Debug)]
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
        // Counting sort; the pool invariant bounds every count by u32.
        let mut counts = vec![0u32; domain + 1];
        for &v in &self.pool {
            counts[v as usize + 1] += 1;
        }
        for i in 0..domain {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut ids = vec![0u32; self.pool.len()];
        for id in 0..self.len() {
            for &v in self.get(id) {
                ids[cursor[v as usize] as usize] = id as u32;
                cursor[v as usize] += 1;
            }
        }
        PooledSets {
            offsets,
            pool: ids,
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
