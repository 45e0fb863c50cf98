//! Seeded case generation shared by `tests/codecs.rs` and
//! `tests/properties.rs`.
//!
//! Case `i` of property `name` draws from
//! `Rng::new(splitmix64(PROPERTY_SEED ^ i))`, where `PROPERTY_SEED` is the
//! FNV-1a hash of the name (the test-only helper `dim-store` keeps for
//! pinned values). Seeds and case counts are fixed, so a failure —
//! reported with the property, the case index and the generated value —
//! reproduces by running the same test again: there is no shrinker, no
//! environment variable and no flag.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dim::dim_graph::rng::{splitmix64, Rng};

#[path = "../../crates/store/src/fnv.rs"]
mod fnv;

/// Runs `check` on `cases` values drawn from `gen`. `check` gets the
/// case's generator too, for draws of its own (cut points, bit flips).
pub fn forall<T: Debug>(
    property: &str,
    cases: u64,
    gen: impl Fn(&mut Rng) -> T,
    check: impl Fn(&T, &mut Rng),
) {
    let property_seed = fnv::fnv1a(property.as_bytes());
    for case in 0..cases {
        let mut rng = Rng::new(splitmix64(property_seed ^ case));
        let value = gen(&mut rng);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&value, &mut rng))) {
            eprintln!("property `{property}` failed at case {case}; generated value:\n{value:#?}");
            resume_unwind(panic);
        }
    }
}

/// Uniform in `range`.
pub fn in_range(rng: &mut Rng, range: Range<u64>) -> u64 {
    range.start + rng.next_u64() % (range.end - range.start)
}

/// Any `u64`; one draw in eight is a boundary value (zero, the `u32` and
/// `f64`-exact-integer limits, the top of the range).
pub fn any_u64(rng: &mut Rng) -> u64 {
    const EDGES: [u64; 8] =
        [0, 1, u32::MAX as u64, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
    match rng.below(8) {
        0 => EDGES[rng.below(EDGES.len())],
        _ => rng.next_u64(),
    }
}

/// A vector whose length is uniform in `len`, filled from `item`.
pub fn vec_of<T>(rng: &mut Rng, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = in_range(rng, len.start as u64..len.end as u64);
    (0..n).map(|_| item(rng)).collect()
}
