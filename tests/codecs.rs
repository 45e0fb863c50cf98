//! Strictness of every hand-written byte format, through one harness.
//!
//! [`strict`] takes a generator, an encoder and a decoder as closures and
//! asserts the contract the workspace's codecs share: the encoding
//! round-trips, every truncation and any trailing byte is refused,
//! arbitrary bytes never panic the decoder, and a single flipped bit is
//! either refused or decodes to a value whose encoding is exactly the
//! mutated bytes — no non-canonical encodings, so corruption can never
//! impersonate the original message. Each format below is one call.
//!
//! An enum's generator draws every variant into an array of the enum's
//! size and picks one through a `match` with no `_` arm: deleting an entry
//! (array length) or adding a variant (exhaustiveness) stops this file
//! compiling, so a new variant cannot go ungenerated unnoticed.

mod common;

use std::fmt::Debug;
use std::ops::Range;

use common::{any_u64, forall, in_range, vec_of};
use dim::dim_cluster::faults::PPM;
use dim::dim_cluster::ops::put_u32;
use dim::dim_cluster::rendezvous::{Hello, JoinHello, Reject, RejectReason, Welcome};
use dim::dim_cluster::wire::{
    delta_wire_size, ids_wire_size, read_frame, u64_wire_size, write_frame,
};
use dim::dim_coverage::PooledSets;
use dim::dim_graph::binary::{decode_binary, write_binary};
use dim::dim_serve::proto::*;
use dim::dim_store::{
    checksum, decode_delta_header, decode_delta_shard, decode_shard, encode_delta_shard,
    encode_shard, DeltaShardHeader, ShardHeader, Xxh64, DELTA_VERSION,
};
use dim::prelude::*;

/// Cases per codec property, and random single-bit flips tried on each.
const CASES: u64 = 256;
const FLIPS: usize = 16;

/// What a decoder must do with an encoding that has one bit flipped.
#[derive(Clone, Copy)]
enum Flip {
    /// Refuse it, or decode a value that re-encodes to exactly the mutated
    /// bytes: the format has no non-canonical encodings.
    Canonical,
    /// Refuse it: checksummed files detect every flip.
    Detected,
    /// Not panic. All that can be asked of text an operator writes by hand
    /// (whitespace, unknown keys and defaults are accepted on purpose).
    Survived,
}
use Flip::*;

fn strict<T: Debug + PartialEq>(
    flip: Flip,
    name: &str,
    cases: u64,
    gen: impl Fn(&mut Rng) -> T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    forall(name, cases, gen, |value, rng| {
        let bytes = encode(value);
        assert_eq!(decode(&bytes).as_ref(), Some(value), "roundtrip");
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "{cut} of {} bytes decoded", bytes.len());
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded).is_none(), "one trailing byte accepted");
        padded.extend(random_bytes(rng, 0..16));
        assert!(decode(&padded).is_none(), "trailing bytes accepted");
        for _ in 0..FLIPS {
            let (at, bit) = (rng.below(bytes.len()), rng.below(8));
            let mut mutated = bytes.clone();
            mutated[at] ^= 1 << bit;
            match (flip, decode(&mutated)) {
                (Canonical, Some(other)) => {
                    assert_eq!(encode(&other), mutated, "bit {bit} of byte {at}: non-canonical")
                }
                (Detected, Some(_)) => panic!("bit {bit} of byte {at}: flip undetected"),
                _ => {}
            }
        }
        // Byte soup, bare and behind a valid prefix (which reaches the
        // parsers past the magic and the headers): any answer, no panic.
        let soup = random_bytes(rng, 0..300);
        let _ = decode(&soup);
        let _ = decode(&[&bytes[..rng.below(bytes.len() + 1)], &soup[..]].concat());
    });
}

// Generators.

/// One of `items`, uniformly.
fn pick<T, const N: usize>(rng: &mut Rng, items: [T; N]) -> T {
    let i = rng.below(N);
    items.into_iter().nth(i).expect("i < N")
}

/// Boundary-biased like [`any_u64`], whose edges truncate to 0, 1 and MAX.
fn any_u32(rng: &mut Rng) -> u32 {
    any_u64(rng) as u32
}

fn any_u8(rng: &mut Rng) -> u8 {
    rng.next_u64() as u8
}

fn random_bytes(rng: &mut Rng, len: Range<usize>) -> Vec<u8> {
    vec_of(rng, len, any_u8)
}

/// Printable ASCII, like the paths, tenant ids and messages on the wire.
fn ascii(rng: &mut Rng, len: Range<usize>) -> String {
    vec_of(rng, len, |r| in_range(r, 0x20..0x7f) as u8 as char).into_iter().collect()
}

fn digest(rng: &mut Rng) -> [u8; 32] {
    std::array::from_fn(|_| any_u8(rng))
}

fn ids(rng: &mut Rng) -> Vec<u32> {
    vec_of(rng, 0..40, any_u32)
}

fn any_sampler(rng: &mut Rng) -> SamplerKind {
    use DiffusionModel::*;
    use SamplerKind::*;
    let all: [SamplerKind; 3] = [
        ReverseBfs,
        Standard(LinearThreshold),
        Standard(IndependentCascade),
    ];
    match pick(rng, all) {
        kind @ (ReverseBfs | Standard(LinearThreshold | IndependentCascade)) => kind,
    }
}

fn any_worker_op(rng: &mut Rng) -> WorkerOp {
    use WorkerOp::*;
    let (sampler, kappa) = (any_sampler(rng), any_u32(rng));
    let all: [WorkerOp; 14] = [
        LoadGraph { blob: random_bytes(rng, 0..200) },
        InitSampler { sampler, paired: rng.below(2) == 1 },
        BuildShard { num_sets: any_u32(rng), elements: vec_of(rng, 0..20, ids) },
        SampleRr { count: any_u64(rng) },
        InitialCoverage,
        NewCoverage,
        ApplySeed {
            seed: (rng.below(2) == 0).then(|| any_u32(rng)),
            candidates: ids(rng),
        },
        CoveredCount,
        CoreSet { kappa },
        Stats,
        Validate { seeds: ids(rng) },
        PersistShard {
            dir: ascii(rng, 0..61), fingerprint: any_u64(rng), theta: any_u64(rng),
            shard_count: any_u32(rng),
        },
        ApplyDelta {
            batch: random_bytes(rng, 0..200),
            persist_dir: (rng.below(2) == 0).then(|| ascii(rng, 0..61)),
            base_generation: any_u64(rng), fingerprint: any_u64(rng),
            parent_fingerprint: any_u64(rng), theta: any_u64(rng), shard_count: any_u32(rng),
        },
        Shutdown,
    ];
    match pick(rng, all) {
        op @ (LoadGraph { .. } | InitSampler { .. } | BuildShard { .. } | SampleRr { .. }
        | InitialCoverage | NewCoverage | ApplySeed { .. } | CoveredCount | CoreSet { .. }
        | Stats | Validate { .. } | PersistShard { .. } | ApplyDelta { .. } | Shutdown) => op,
    }
}

fn any_worker_reply(rng: &mut Rng) -> WorkerReply {
    use WorkerReply::*;
    let (num_elements, total_size, edges_examined) = (any_u64(rng), any_u64(rng), any_u64(rng));
    let all: [WorkerReply; 7] = [
        Ok,
        Deltas(vec_of(rng, 0..60, |r| (any_u32(r), any_u32(r)))),
        Marginals(ids(rng)),
        CoreSet(vec_of(rng, 0..8, |r| (any_u32(r), ids(r)))),
        Count(any_u64(rng)),
        Stats(WorkerStats { num_elements, total_size, edges_examined }),
        Err(ascii(rng, 0..41)),
    ];
    match pick(rng, all) {
        reply @ (Ok | Deltas(_) | Marginals(_) | CoreSet(_) | Count(_) | Stats(_) | Err(_)) => {
            reply
        }
    }
}

fn any_reject(rng: &mut Rng) -> Reject {
    use RejectReason::*;
    let all: [RejectReason; 6] =
        [Version, OutOfRange, Duplicate, SessionFull, SeedMismatch, Unauthorized];
    match pick(rng, all) {
        reason @ (Version | OutOfRange | Duplicate | SessionFull | SeedMismatch
        | Unauthorized) => Reject { reason },
    }
}

fn any_join_hello(rng: &mut Rng) -> JoinHello {
    // `u32::MAX` is the wire value of "any slot", so `Some(u32::MAX)` is
    // outside the codec's domain.
    let id = any_u32(rng);
    JoinHello {
        requested: (id != u32::MAX && rng.below(4) > 0).then_some(id),
        auth: digest(rng),
    }
}

/// Tenant ids stay within the wire cap (`MAX_TENANT_ID_LEN`).
fn any_request(rng: &mut Rng) -> QueryRequest {
    use QueryRequest::*;
    let all: [QueryRequest; 5] = [
        Spread { seeds: ids(rng) },
        TopK { k: any_u32(rng), include: ids(rng), exclude: ids(rng) },
        Stats,
        Reload,
        Auth { version: any_u8(rng), tenant: ascii(rng, 0..41), auth: digest(rng) },
    ];
    match pick(rng, all) {
        req @ (Spread { .. } | TopK { .. } | Stats | Reload | Auth { .. }) => req,
    }
}

fn any_response(rng: &mut Rng) -> QueryResponse {
    use QueryResponse::*;
    let (seeds, marginals) = vec_of(rng, 0..30, |r| (any_u32(r), any_u64(r))).into_iter().unzip();
    let all: [QueryResponse; 6] = [
        Spread { covered: any_u64(rng), theta: any_u64(rng), num_nodes: any_u64(rng) },
        TopK { seeds, marginals, covered: any_u64(rng), theta: any_u64(rng), num_nodes: any_u64(rng) },
        Stats(SketchStats {
            num_nodes: any_u64(rng), theta: any_u64(rng), shard_count: any_u32(rng),
            total_rr_size: any_u64(rng), queries_answered: any_u64(rng), generation: any_u64(rng),
            shed: any_u64(rng), quota_shed: any_u64(rng),
            p50_us: any_u64(rng), p95_us: any_u64(rng), p99_us: any_u64(rng),
        }),
        Reload { generation: any_u64(rng), changed: rng.below(2) == 0 },
        AuthOk { tenant: ascii(rng, 0..41), generation: any_u64(rng) },
        Error { code: any_u8(rng), message: ascii(rng, 0..61) },
    ];
    match pick(rng, all) {
        resp @ (Spread { .. } | TopK { .. } | Stats(_) | Reload { .. } | AuthOk { .. }
        | Error { .. }) => resp,
    }
}

/// Draws from `gen` until `keep` accepts: what a batch may carry.
fn batchable<T>(gen: fn(&mut Rng) -> T, keep: fn(&T) -> bool) -> impl Fn(&mut Rng) -> T {
    move |rng| loop {
        let value = gen(rng);
        if keep(&value) {
            return value;
        }
    }
}

fn batchable_request() -> impl Fn(&mut Rng) -> QueryRequest {
    batchable(any_request, |r| !matches!(r, QueryRequest::Reload | QueryRequest::Auth { .. }))
}

/// Probabilities stay within the ppm scale the plan codec enforces.
fn any_fault_plan(rng: &mut Rng) -> FaultPlan {
    let ppm = |r: &mut Rng| in_range(r, 0..u64::from(PPM) + 1) as u32;
    FaultPlan {
        chaos_seed: any_u64(rng),
        link_faults: vec_of(rng, 0..12, |r| LinkFault {
            machine: any_u32(r), extra_latency_us: any_u64(r), jitter_us: any_u64(r),
            loss_prob_ppm: ppm(r), loss_retry_us: any_u64(r),
            stall_prob_ppm: ppm(r), stall_ms: any_u64(r),
            kill_at_round: (r.below(2) == 0).then(|| any_u64(r)),
        }),
        partitions: vec_of(rng, 0..6, |r| Partition {
            from_round: any_u64(r), to_round: any_u64(r), heal_us: any_u64(r),
            machines: vec_of(r, 0..8, any_u32),
        }),
    }
}

fn any_delta_batch(rng: &mut Rng) -> DeltaBatch {
    use EdgeOp::*;
    let ops = vec_of(rng, 0..24, |r| {
        let (u, v, p) = (any_u32(r), any_u32(r), r.f32());
        let all: [EdgeOp; 3] = [Insert { u, v, p }, Delete { u, v }, Reweight { u, v, p }];
        match pick(r, all) {
            op @ (Insert { .. } | Delete { .. } | Reweight { .. }) => op,
        }
    });
    DeltaBatch::new(any_u64(rng), ops)
}

/// A DIMR file as its header and element records.
type ShardFile = (ShardHeader, Vec<Vec<u32>>);

/// Element records over `num_sets` node ids, under a header that agrees.
fn any_shard(rng: &mut Rng) -> ShardFile {
    let num_sets = in_range(rng, 1..40);
    let shard_count = in_range(rng, 1..6) as u32;
    let records = vec_of(rng, 0..30, |r| vec_of(r, 0..8, |r| in_range(r, 0..num_sets) as u32));
    let header = ShardHeader {
        fingerprint: any_u64(rng), sampler: any_sampler(rng), seed: any_u64(rng),
        theta: records.len() as u64, num_elements: records.len() as u64, num_sets,
        shard_id: rng.below(shard_count as usize) as u32, shard_count,
        edges_examined: any_u64(rng),
    };
    (header, records)
}

fn lists(sets: &PooledSets) -> Vec<Vec<u32>> {
    sets.iter().map(<[u32]>::to_vec).collect()
}

fn encode_dimr((header, records): &ShardFile) -> Vec<u8> {
    let mut elements = PooledSets::new();
    for record in records {
        elements.push(record);
    }
    encode_shard(header, &elements)
}

/// The universe passed is the one the header names (bytes 45..53: the
/// 12-byte envelope prefix, then 33 header bytes before `num_sets`), as a
/// caller whose graph matches would pass it.
fn decode_dimr(bytes: &[u8]) -> Result<ShardFile, StoreError> {
    let num_sets = bytes.get(45..53).map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
    let snap = decode_shard(bytes, num_sets)?;
    Ok((snap.header, lists(&snap.elements)))
}

/// A DIMD file as its header, edge batch and repaired records.
type DeltaFile = (DeltaShardHeader, DeltaBatch, Vec<(u32, Vec<u32>)>);

/// Sorted repaired records within the header's universe, and a batch
/// whose `seq` the header repeats.
fn any_delta_shard(rng: &mut Rng) -> DeltaFile {
    let (num_sets, num_elements) = (in_range(rng, 1..40), in_range(rng, 1..60));
    let shard_count = in_range(rng, 1..6) as u32;
    let mut repaired_ids = vec_of(rng, 0..12, |r| in_range(r, 0..num_elements) as u32);
    repaired_ids.sort_unstable();
    repaired_ids.dedup();
    let repaired: Vec<(u32, Vec<u32>)> = repaired_ids
        .into_iter()
        .map(|i| (i, vec_of(rng, 0..8, |r| in_range(r, 0..num_sets) as u32)))
        .collect();
    let batch = any_delta_batch(rng);
    let header = DeltaShardHeader {
        base_generation: any_u64(rng), parent_fingerprint: any_u64(rng),
        fingerprint: any_u64(rng), sampler: any_sampler(rng), seed: any_u64(rng),
        theta: any_u64(rng), batch_seq: batch.seq,
        shard_id: rng.below(shard_count as usize) as u32, shard_count,
        num_sets, num_elements, repaired_count: repaired.len() as u64,
    };
    (header, batch, repaired)
}

/// A graph as its node count and `(u, v, p)` edges in CSR order.
type GraphImage = (usize, Vec<(u32, u32, f32)>);

fn any_graph_image(rng: &mut Rng) -> GraphImage {
    let n = rng.below(12);
    let mut edges = std::collections::BTreeMap::new();
    for _ in 0..rng.below(30) * usize::from(n >= 2) {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            edges.insert((u, v), rng.f32());
        }
    }
    (n, edges.into_iter().map(|((u, v), p)| (u, v, p)).collect())
}

fn encode_dimg((n, edges): &GraphImage) -> Vec<u8> {
    let mut b = GraphBuilder::new(*n);
    for &(u, v, p) in edges {
        b.add_weighted_edge(u, v, p);
    }
    let mut image = Vec::new();
    write_binary(&b.build(WeightModel::WeightedCascade), &mut image).unwrap();
    image
}

/// Asserts the encoder's fixed wire size on every value it is given.
fn sized<T>(len: usize, encode: impl Fn(&T) -> Vec<u8>) -> impl Fn(&T) -> Vec<u8> {
    move |value| {
        let bytes = encode(value);
        assert_eq!(bytes.len(), len, "fixed-size frame");
        bytes
    }
}

// Cluster: ops, replies, the rendezvous handshake, the frame they ride in.

/// A sampler tag names the RR-set law that drew a sketch, in every DIMR and
/// DIMD file ever written: when the IC default changed law it took a new
/// tag (3, count-first) and retired the old one (2, the jump sampler); the
/// reverse BFS and the LT walk kept theirs.
#[test]
fn sampler_tags_are_pinned() {
    use DiffusionModel::*;
    use SamplerKind::*;
    let laws = [
        (ReverseBfs, 0),
        (Standard(LinearThreshold), 1),
        (Standard(IndependentCascade), 3),
    ];
    for (kind, tag) in laws {
        assert_eq!(kind.tag(), tag, "{kind:?}");
        assert_eq!(SamplerKind::from_tag(tag), Some(kind), "tag {tag}");
        assert!(!SamplerKind::is_retired(tag), "tag {tag}");
    }
    assert_eq!(SamplerKind::from_tag(2), None);
    assert!(SamplerKind::is_retired(2), "the jump law's tag is retired");
    assert_eq!(SamplerKind::from_tag(4), None);
    assert!(!SamplerKind::is_retired(4), "tag 4 is unknown, not retired");
}

#[test]
fn worker_op_is_strict() {
    strict(Canonical, "worker_op", CASES, any_worker_op, WorkerOp::encode, WorkerOp::decode);
}

/// `InitSampler`'s last byte is its collection mode: 0 (one collection)
/// and 1 (a pair) decode, every other value is refused.
#[test]
fn init_sampler_mode_byte_is_0_or_1() {
    for sampler in [
        SamplerKind::ReverseBfs,
        SamplerKind::Standard(DiffusionModel::LinearThreshold),
    ] {
        let mut bytes = WorkerOp::InitSampler {
            sampler,
            paired: false,
        }
        .encode();
        for mode in 0..=u8::MAX {
            *bytes.last_mut().unwrap() = mode;
            let decoded = WorkerOp::decode(&bytes);
            match mode {
                0 | 1 => {
                    let paired = mode == 1;
                    assert_eq!(decoded, Some(WorkerOp::InitSampler { sampler, paired }))
                }
                _ => assert_eq!(decoded, None, "mode byte {mode} accepted"),
            }
        }
    }
}

/// Replies are strict, and the advertised wire size follows the payload
/// accounting rules: deltas, marginals, core-sets and counts cost bytes,
/// envelopes are free.
#[test]
fn worker_reply_is_strict() {
    let encode = |reply: &WorkerReply| {
        let expected = match reply {
            WorkerReply::Ok | WorkerReply::Err(_) => 0,
            WorkerReply::Deltas(d) => delta_wire_size(d.len()),
            WorkerReply::Marginals(m) => ids_wire_size(m.len()),
            WorkerReply::CoreSet(picks) => {
                let lists = picks.iter().map(|(_, l)| ids_wire_size(l.len()));
                ids_wire_size(picks.len()) + lists.sum::<u64>()
            }
            WorkerReply::Count(_) => u64_wire_size(),
            WorkerReply::Stats(_) => 24,
        };
        assert_eq!(reply.wire_size(), expected);
        reply.encode()
    };
    strict(Canonical, "worker_reply", CASES, any_worker_reply, encode, WorkerReply::decode);
}

#[test]
fn rendezvous_frames_are_strict() {
    let welcome = |r: &mut Rng| Welcome {
        session: any_u64(r), machine_id: any_u32(r), cluster_size: any_u32(r),
        master_seed: any_u64(r),
    };
    let hello = |r: &mut Rng| Hello { stream_seed: any_u64(r) };
    strict(Canonical, "join", CASES, any_join_hello, sized(37, JoinHello::encode), JoinHello::decode);
    strict(Canonical, "welcome", CASES, welcome, sized(24, Welcome::encode), Welcome::decode);
    strict(Canonical, "hello", CASES, hello, sized(8, Hello::encode), Hello::decode);
    strict(Canonical, "reject", CASES, any_reject, sized(1, Reject::encode), Reject::decode);
}

#[test]
fn wire_frame_is_strict() {
    let gen = |r: &mut Rng| (any_u8(r), random_bytes(r, 0..300));
    let encode = |(opcode, body): &(u8, Vec<u8>)| {
        let mut out = Vec::new();
        write_frame(&mut out, *opcode, body).unwrap();
        out
    };
    let decode = |mut stream: &[u8]| {
        let frame = read_frame(&mut stream).ok()?;
        stream.is_empty().then_some(frame)
    };
    strict(Canonical, "wire_frame", CASES, gen, encode, decode);
}

/// However `write_frame` groups its writes, the bytes are the three-part
/// layout `[u32 len LE][opcode][body]` — at every power of two ± 1 up to
/// 64 KiB, so on both sides of the private one-write cutover in `wire.rs`
/// wherever it sits in that range, and at the largest frame allowed — and
/// `read_frame` takes them back from a reader that yields one byte per call. A zero or oversized length is refused on the
/// header alone: the reader below holds nothing after it, so any attempt
/// to go on to a body would surface as `UnexpectedEof` instead.
#[test]
fn wire_frame_layout_survives_write_coalescing() {
    use dim::dim_cluster::wire::MAX_FRAME;
    struct OneByte<'a>(&'a [u8]);
    impl std::io::Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }
    forall("wire_frame_layout", 4, any_u8, |&opcode, rng| {
        for len in (0..=16).flat_map(|p| [(1usize << p) - 1, 1 << p, (1 << p) + 1]) {
            let body = random_bytes(rng, len..len + 1);
            let mut out = Vec::new();
            write_frame(&mut out, opcode, &body).unwrap();
            let three_writes =
                [&(body.len() as u32 + 1).to_le_bytes()[..], &[opcode], &body].concat();
            assert!(out == three_writes, "body length {len}");
            let mut trickle = OneByte(&out);
            assert!(read_frame(&mut trickle).unwrap() == (opcode, body), "body length {len}");
            assert!(trickle.0.is_empty());
        }
    });
    // The largest frame: a 64 MiB body goes out uncopied behind its header.
    let mut body = vec![0u8; MAX_FRAME - 1];
    (body[0], body[MAX_FRAME / 2], body[MAX_FRAME - 2]) = (1, 2, 3);
    let mut out = Vec::new();
    write_frame(&mut out, 9, &body).unwrap();
    assert_eq!(out[..5], [&(MAX_FRAME as u32).to_le_bytes()[..], &[9]].concat()[..]);
    assert!(out[5..] == body[..]);
    for len in [0u32, MAX_FRAME as u32 + 1, u32::MAX] {
        let err = read_frame(&mut OneByte(&len.to_le_bytes())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len = {len}");
    }
}

// Chaos plans and edge batches.

/// The text form pays a full parse per truncation point, so strictness
/// runs on fewer cases; the roundtrip (every `u64` exact) runs on all.
#[test]
fn fault_plan_json_is_strict() {
    let encode = |plan: &FaultPlan| plan.to_json().into_bytes();
    let decode = |text: &[u8]| FaultPlan::from_json(std::str::from_utf8(text).ok()?).ok();
    strict(Survived, "plan_json", 24, any_fault_plan, encode, decode);
    forall("plan_json_roundtrip", CASES, any_fault_plan, |plan, _| {
        assert_eq!(FaultPlan::from_json(&plan.to_json()).as_ref(), Ok(plan));
    });
}

#[test]
fn delta_batch_is_strict() {
    let decode = |bytes: &[u8]| DeltaBatch::decode(bytes).ok();
    strict(Canonical, "delta_batch", CASES, any_delta_batch, DeltaBatch::encode, decode);
}

// Serve: query frames (`[opcode] ++ body`) and batches.

#[test]
fn query_request_is_strict() {
    let encode = |req: &QueryRequest| [vec![req.opcode()], req.encode()].concat();
    let decode = |frame: &[u8]| QueryRequest::decode(*frame.first()?, &frame[1..]);
    strict(Canonical, "query_request", CASES, any_request, encode, decode);
}

/// Responses are strict, and a reply frame can never decode as a request:
/// a confused peer fails loudly instead of executing a ghost query.
#[test]
fn query_response_is_strict() {
    let encode = |resp: &QueryResponse| {
        assert!(matches!(
            resp.opcode(),
            RESP_SPREAD | RESP_TOP_K | RESP_STATS | RESP_RELOAD | RESP_AUTH | RESP_ERROR
        ));
        assert_eq!(QueryRequest::decode(resp.opcode(), &resp.encode()), None);
        [vec![resp.opcode()], resp.encode()].concat()
    };
    let decode = |frame: &[u8]| QueryResponse::decode(*frame.first()?, &frame[1..]);
    strict(Canonical, "query_response", CASES, any_response, encode, decode);
}

#[test]
fn query_batches_are_strict() {
    let requests = |r: &mut Rng| vec_of(r, 0..12, batchable_request());
    strict(Canonical, "request_batch", CASES, requests, |reqs| encode_batch(reqs), decode_batch);
    // Session-scope `AuthOk` never rides in a reply batch.
    let response = batchable(any_response, |r| !matches!(r, QueryResponse::AuthOk { .. }));
    let responses = move |r: &mut Rng| vec_of(r, 0..12, &response);
    let encode = |resps: &Vec<QueryResponse>| encode_response_batch(resps);
    strict(Canonical, "response_batch", CASES, responses, encode, decode_response_batch);
}

/// A batch body with one more raw `(opcode, body)` entry spliced in at
/// `at`, bypassing the encoders' own refusals.
fn spliced(mut entries: Vec<(u8, Vec<u8>)>, at: usize, evil: (u8, Vec<u8>)) -> Vec<u8> {
    entries.insert(at % (entries.len() + 1), evil);
    let mut body = Vec::new();
    put_u32(&mut body, entries.len() as u32);
    for (opcode, entry) in &entries {
        body.push(*opcode);
        put_u32(&mut body, entry.len() as u32);
        body.extend_from_slice(entry);
    }
    body
}

/// A forbidden but individually well-formed entry — a nested batch, a
/// `Reload`, an `Auth`; an `AuthOk` among replies — anywhere in an
/// otherwise valid batch poisons the whole frame.
#[test]
fn batches_reject_admin_nested_and_auth_entries() {
    let gen = |r: &mut Rng| (vec_of(r, 0..6, batchable_request()), r.below(3), r.below(7));
    forall("batch_rejects_admin_and_nested", CASES, gen, |(reqs, evil, at), _| {
        let auth = QueryRequest::Auth { version: 1, tenant: "sneaky".into(), auth: [7; 32] };
        let evil = [(REQ_BATCH, encode_batch(&[])), (REQ_RELOAD, vec![]), (REQ_AUTH, auth.encode())]
            [*evil]
            .clone();
        let entries = reqs.iter().map(|r| (r.opcode(), r.encode())).collect();
        assert_eq!(decode_batch(&spliced(entries, *at, evil)), None);
    });
    let gen = |r: &mut Rng| (vec_of(r, 0..6, any_response), r.below(7));
    forall("response_batch_rejects_auth", CASES, gen, |(resps, at), _| {
        let evil = QueryResponse::AuthOk { tenant: "sneaky".into(), generation: 3 };
        let entries = resps.iter().map(|r| (r.opcode(), r.encode())).collect();
        let body = spliced(entries, *at, (evil.opcode(), evil.encode()));
        assert_eq!(decode_response_batch(&body), None);
    });
}

// Files: RR-sketch shards (DIMR), delta shards (DIMD), graphs (DIMG).

#[test]
fn dimr_header_and_file_are_strict() {
    let header = |bytes: &[u8]| ShardHeader::decode(bytes).ok();
    strict(Canonical, "shard_header", CASES, |r| any_shard(r).0, ShardHeader::encode, header);
    strict(Detected, "dimr_file", CASES, any_shard, encode_dimr, |bytes| decode_dimr(bytes).ok());
}

/// One offset of the elements section overwritten with an arbitrary value
/// *and the body checksum re-fixed*, so the hostile offset reaches the
/// `PooledSets` reassembly: `Corrupt`, never a panic, never a success.
#[test]
fn dimr_offset_corruption_surfaces_corrupt() {
    let gen = |r: &mut Rng| (any_shard(r), r.next_u64() as usize, any_u64(r));
    forall("dimr_offset_corruption", CASES, gen, |(shard, slot, value), _| {
        let mut file = encode_dimr(shard);
        let body_start = 4 + 4 + 4 + shard.0.encode().len() + 8;
        // Elements section: count u64, then count + 1 offsets.
        let at = body_start + 8 + slot % (shard.1.len() + 1) * 8;
        if file[at..at + 8] == value.to_le_bytes() {
            return;
        }
        file[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let body_end = file.len() - 8;
        let sum = checksum(&file[body_start..body_end]);
        file[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert!(
            matches!(decode_dimr(&file), Err(StoreError::Corrupt { .. })),
            "offset at byte {at} set to {value} was not rejected as Corrupt"
        );
    });
}

/// XXH64: the published digest of the empty input; order-sensitive.
#[test]
fn checksum_is_order_sensitive() {
    assert_eq!(checksum(&[]), 0xEF46_DB37_51D8_E999);
    forall("checksum_order_sensitive", CASES, |r| (any_u8(r), any_u8(r)), |&(a, b), _| {
        assert!(a == b || checksum(&[a, b]) != checksum(&[b, a]));
    });
}

/// The streaming hasher equals the one-shot [`checksum`] of everything
/// written so far, however the input is cut: pieces of 0, 1, 31, 32 and 33
/// bytes (around the 32-byte stripe) mixed with random ones.
#[test]
fn streamed_checksum_equals_one_shot() {
    let gen = |r: &mut Rng| random_bytes(r, 0..300);
    forall("streamed_checksum", CASES, gen, |bytes, rng| {
        let mut hasher = Xxh64::new();
        let mut done = 0;
        while done < bytes.len() {
            let random = rng.below(100);
            let len = pick(rng, [0, 1, 31, 32, 33, random]).min(bytes.len() - done);
            std::io::Write::write_all(&mut hasher, &bytes[done..done + len]).unwrap();
            done += len;
            assert_eq!(hasher.finish(), checksum(&bytes[..done]), "after {done} bytes");
        }
        assert_eq!(hasher.finish(), checksum(bytes));
    });
}

#[test]
fn dimd_header_and_file_are_strict() {
    let header = |bytes: &[u8]| DeltaShardHeader::decode(bytes).ok();
    let gen = |r: &mut Rng| any_delta_shard(r).0;
    strict(Canonical, "delta_shard_header", CASES, gen, DeltaShardHeader::encode, header);
    let encode = |(header, batch, repaired): &DeltaFile| encode_delta_shard(header, batch, repaired);
    let decode = |bytes: &[u8]| {
        let shard = decode_delta_shard(bytes).ok()?;
        Some((shard.header, shard.batch, shard.repaired))
    };
    strict(Detected, "dimd_file", CASES, any_delta_shard, encode, decode);
}

/// The header-only DIMD reader (what chain GC resolves links with): it
/// accepts the file or just its envelope prefix, refuses every truncation
/// of the prefix, a bad magic or version, an oversized `header_len` and any
/// flipped prefix bit as `Corrupt` — and never looks past the prefix, so a
/// flipped body bit is still the full decoder's to refuse.
#[test]
fn dimd_header_only_reader_is_strict() {
    forall("dimd_header_only", CASES, any_delta_shard, |(header, batch, repaired), rng| {
        let file = encode_delta_shard(header, batch, repaired);
        let prefix = 4 + 4 + 4 + header.encode().len() + 8;
        let corrupt = |bytes: &[u8], what: &str| {
            let got = decode_delta_header(bytes);
            assert!(matches!(got, Err(StoreError::Corrupt { .. })), "{what}: {got:?}");
        };
        assert_eq!(decode_delta_header(&file).ok(), Some(*header), "whole file");
        assert_eq!(decode_delta_header(&file[..prefix]).ok(), Some(*header), "bare prefix");
        for cut in 0..prefix {
            corrupt(&file[..cut], &format!("{cut} of {prefix} prefix bytes"));
        }
        for (what, at, value) in [
            ("bad magic", 0, *b"DIMR"),
            ("version 1", 4, 1u32.to_le_bytes()),
            ("next version", 4, (DELTA_VERSION + 1).to_le_bytes()),
            ("header_len = MAX + 1", 8, 4097u32.to_le_bytes()),
            ("header_len = u32::MAX", 8, u32::MAX.to_le_bytes()),
        ] {
            let mut bytes = file.clone();
            bytes[at..at + 4].copy_from_slice(&value);
            corrupt(&bytes, what);
        }
        for _ in 0..FLIPS {
            let (at, bit) = (rng.below(file.len()), rng.below(8));
            let mut mutated = file.clone();
            mutated[at] ^= 1 << bit;
            if at < prefix {
                corrupt(&mutated, &format!("bit {bit} of prefix byte {at}"));
            } else {
                assert_eq!(decode_delta_header(&mutated).ok(), Some(*header), "body byte {at}");
                assert!(decode_delta_shard(&mutated).is_err(), "body byte {at} undetected");
            }
        }
    });
}

#[test]
fn dimg_image_is_strict() {
    let decode = |bytes: &[u8]| {
        let g = decode_binary(bytes).ok()?;
        Some((g.num_nodes(), g.edges().collect()))
    };
    strict(Canonical, "dimg_image", CASES, any_graph_image, encode_dimg, decode);
}
