//! Regression guard for per-call scratch allocations on the query hot
//! paths and the stream-repair splice: repeated queries against a frozen
//! sketch, and repeated repairs of a resident shard, must reuse their
//! buffers, not re-allocate them.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The whole
//! guard lives in ONE test function — the counter is process-global, so a
//! second concurrently running test would make the deltas meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dim_coverage::{constrained_greedy, seed_set_coverage, CoverageShard, SketchCursors};
use dim_graph::scratch;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Deterministic little sketch: 3 shards of `elements` records each over a
/// 100-set universe.
fn fixture(elements: u32) -> Vec<CoverageShard> {
    (0..3u32)
        .map(|s| {
            let records: Vec<Vec<u32>> = (0..elements)
                .map(|e| {
                    (0..(e % 7 + 1))
                        .map(|j| (s * 31 + e * 13 + j * 41) % 100)
                        .collect()
                })
                .collect();
            CoverageShard::from_records(100, records.iter().map(Vec::as_slice))
        })
        .collect()
}

#[test]
fn hot_query_paths_do_not_allocate_in_steady_state() {
    let shards = fixture(200);

    // The pooled epoch-stamped scratch allocates only while growing.
    scratch::with_flags(100, |f| {
        f.set(3);
    });
    let baseline = allocs();
    for round in 0..10usize {
        scratch::with_flags(100, |f| {
            assert!(!f.is_set(3), "flags leaked across with_flags calls");
            f.set(round);
        });
    }
    assert_eq!(
        allocs(),
        baseline,
        "warm pooled scratch re-allocated on reuse"
    );

    // Batched spread queries through reused cursors: after the first
    // evaluation, resets are epoch bumps and covering allocates nothing.
    let mut cursors = SketchCursors::new(&shards);
    cursors.seed_set_coverage(&[1, 2, 3]);
    let baseline = allocs();
    let mut checksum = 0u64;
    for i in 0..50u32 {
        checksum += cursors.seed_set_coverage(&[i % 100, (i + 7) % 100, (i + 31) % 100]);
    }
    assert!(checksum > 0);
    assert_eq!(
        allocs(),
        baseline,
        "repeated spread queries allocated in steady state"
    );

    // The single-frame path: the free function borrows the same pooled
    // flags, so after one call on the larger sketch the pool has grown for
    // good and queries alternating between two sketches of different shard
    // sizes allocate nothing — and never see each other's marks.
    let larger = fixture(500);
    let triple = |i: u32| [i % 100, (i + 7) % 100, (i + 31) % 100];
    // Expected values by brute force, so the pool has not met the larger
    // sketch before the one warm-up call below.
    let brute = |shards: &[CoverageShard], seeds: &[u32]| -> u64 {
        let hit = |s: &CoverageShard, e| s.elements().get(e).iter().any(|v| seeds.contains(v));
        shards
            .iter()
            .map(|s| (0..s.num_elements()).filter(|&e| hit(s, e)).count() as u64)
            .sum()
    };
    let expected: Vec<(u64, u64)> = (0..50)
        .map(|i| (brute(&shards, &triple(i)), brute(&larger, &triple(i))))
        .collect();
    seed_set_coverage(&larger, &[1, 2, 3]);
    let baseline = allocs();
    let mut wrong = 0;
    for (i, &(small, large)) in expected.iter().enumerate() {
        let seeds = triple(i as u32);
        wrong += usize::from(seed_set_coverage(&shards, &seeds) != small);
        wrong += usize::from(seed_set_coverage(&larger, &seeds) != large);
    }
    assert_eq!(
        allocs(),
        baseline,
        "single-frame spread queries allocated in steady state"
    );
    assert_eq!(wrong, 0, "pooled flags leaked between sketches");
    assert!(expected.iter().any(|&(small, large)| small != large));

    // Full constrained selection allocates per call (cursors, counts,
    // selector), but the per-call count must be flat across repeats —
    // growth would mean some scratch escaped the reuse pools.
    let run = || constrained_greedy(&shards, 5, &[], &[2, 17]);
    let first = run();
    let a = allocs();
    let second = run();
    let per_call = allocs() - a;
    let b = allocs();
    let third = run();
    assert_eq!(
        allocs() - b,
        per_call,
        "constrained_greedy per-call allocations grew between runs"
    );
    assert_eq!(first.seeds, second.seeds);
    assert_eq!(second.seeds, third.seeds);
    assert!(!first.seeds.contains(&2) && !first.seeds.contains(&17));

    // Stream repair builds no index and splices into the arena the
    // previous repair retired: after one warm-up repair, a second whose
    // records total no more entries allocates nothing.
    let mut shard = fixture(200).swap_remove(0);
    let rewritten = |shard: &CoverageShard, ids: &[u32], keep: usize| -> Vec<(u32, Vec<u32>)> {
        ids.iter()
            .map(|&id| {
                let record = shard.elements().get(id as usize);
                (id, record.iter().take(keep).map(|v| (v + 1) % 100).collect())
            })
            .collect()
    };
    let warm_up = rewritten(&shard, &[3, 50, 120, 199], usize::MAX);
    let second = rewritten(&shard, &[0, 7, 60], 1);
    let total = shard.total_size();
    shard.replace_elements(&warm_up);
    assert_eq!(shard.total_size(), total, "warm-up repair keeps record lengths");
    let baseline = allocs();
    shard.replace_elements(&second);
    assert_eq!(allocs(), baseline, "a repair into the retired arena allocated");
    assert!(shard.needs_prepare(), "a repair must leave the index to selection");
    for (id, record) in warm_up.iter().chain(&second) {
        assert_eq!(shard.elements().get(*id as usize), record.as_slice());
    }
}
