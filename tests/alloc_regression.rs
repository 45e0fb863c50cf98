//! Regression guard for per-call scratch allocations on the query hot
//! paths, the stream-repair splice and RR sampling: repeated queries
//! against a frozen sketch, repeated repairs of a resident shard and
//! repeated sampling rounds must reuse their buffers and sampler, not
//! re-allocate them. And a worker's memory is bounded by what it was
//! shipped, whatever universe an op names.
//!
//! A counting `#[global_allocator]` wraps the system allocator, counting
//! calls and bytes. The whole guard lives in ONE test function — the
//! counters are process-global, so a second concurrently running test
//! would make the deltas meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dim_cluster::{OpExecutor, WorkerOp, WorkerReply};
use dim_core::diimm::DiimmWorker;
use dim_core::{ImConfig, SamplerKind};
use dim_coverage::{
    constrained_greedy, execute_coverage_op, seed_set_coverage, CoverageShard, SketchCursors,
};
use dim_diffusion::DiffusionModel::{IndependentCascade as IC, LinearThreshold as LT};
use dim_graph::generators::erdos_renyi;
use dim_graph::{scratch, WeightModel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator so far (a total, never decreased).
fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
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

    // A DiIMM worker builds its sampler once per graph it holds: on a warm
    // worker, a one-set sampling round allocates less than a byte per node,
    // so it rebuilds no per-node table (SUBSIM's row paths and CDF runs).
    let graph = erdos_renyi(20_000, 100_000, WeightModel::WeightedCascade, 4);
    for sampler in [
        SamplerKind::Standard(IC),
        SamplerKind::Standard(LT),
        SamplerKind::ReverseBfs,
    ] {
        let config = ImConfig {
            k: 1,
            epsilon: 0.5,
            delta: 0.5,
            seed: 3,
            sampler,
        };
        let mut worker = DiimmWorker::new(&graph, &config, 0);
        assert_eq!(
            worker.execute(&WorkerOp::SampleRr { count: 64 }),
            WorkerReply::Ok
        );
        let before = bytes();
        assert_eq!(
            worker.execute(&WorkerOp::SampleRr { count: 1 }),
            WorkerReply::Ok
        );
        let spent = bytes() - before;
        assert!(
            spent < graph.num_nodes() as u64,
            "{sampler:?}: a one-set round on a warm worker allocated {spent} bytes"
        );
    }

    // A 9-byte `BuildShard` naming the largest universe, its round's first
    // op and a pull round naming a set near the top of that universe all
    // answer, and allocate nothing sized by the universe: the shard's
    // per-set arrays follow the records it was shipped (none here).
    let ops = [
        WorkerOp::BuildShard {
            num_sets: u32::MAX,
            elements: vec![],
        },
        WorkerOp::InitialCoverage,
        WorkerOp::ApplySeed {
            seed: Some(u32::MAX - 1),
            candidates: vec![u32::MAX - 1],
        },
    ];
    let mut worker = CoverageShard::new(0);
    let before = bytes();
    let replies: Vec<_> = ops
        .iter()
        .map(|op| execute_coverage_op(&mut worker, op))
        .collect();
    let spent = bytes() - before;
    assert_eq!(
        replies,
        [
            Some(WorkerReply::Ok),
            Some(WorkerReply::Deltas(vec![])),
            Some(WorkerReply::Marginals(vec![0])),
        ]
    );
    assert!(
        spent < 4096,
        "an empty shard naming 2^32 sets allocated {spent} bytes"
    );

    // A pull frame claiming 2^32 - 1 candidates is refused before its
    // body is allocated.
    let mut frame = WorkerOp::ApplySeed {
        seed: None,
        candidates: vec![],
    }
    .encode();
    frame[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&[0; 64]);
    let before = bytes();
    assert_eq!(WorkerOp::decode(&frame), None);
    assert!(
        bytes() - before < 4096,
        "a hostile candidate count was allocated"
    );
}
