//! Property-based tests for the cluster substrate.

use std::time::Duration;

use dim_cluster::{
    phase, stream_seed, wire, ClusterBackend, ExecMode, NetworkModel, SamplerSpec, SimCluster,
    WorkerOp, WorkerReply, WorkerStats,
};
use proptest::prelude::*;

/// Generator over the full [`WorkerOp`] vocabulary.
fn any_worker_op() -> impl Strategy<Value = WorkerOp> {
    let ids = prop::collection::vec(any::<u32>(), 0..40);
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..200).prop_map(|blob| WorkerOp::LoadGraph { blob }),
        prop_oneof![
            Just(SamplerSpec::StandardIc),
            Just(SamplerSpec::StandardLt),
            Just(SamplerSpec::Subsim),
        ]
        .prop_map(|spec| WorkerOp::InitSampler { spec }),
        (any::<u32>(), prop::collection::vec(ids.clone(), 0..20))
            .prop_map(|(num_sets, elements)| WorkerOp::BuildShard { num_sets, elements }),
        any::<u64>().prop_map(|count| WorkerOp::SampleRr { count }),
        Just(WorkerOp::InitialCoverage),
        Just(WorkerOp::NewCoverage),
        any::<u32>().prop_map(|set| WorkerOp::ApplySeed { set }),
        Just(WorkerOp::CoveredCount),
        Just(WorkerOp::Stats),
        ids.prop_map(|seeds| WorkerOp::Validate { seeds }),
        (
            "[ -~]{0,60}",
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop_oneof![
                Just(SamplerSpec::StandardIc),
                Just(SamplerSpec::StandardLt),
                Just(SamplerSpec::Subsim),
            ],
        )
            .prop_map(
                |(dir, fingerprint, seed, theta, shard_id, shard_count, spec)| {
                    WorkerOp::PersistShard {
                        dir,
                        fingerprint,
                        seed,
                        theta,
                        shard_id,
                        shard_count,
                        spec,
                    }
                },
            ),
        Just(WorkerOp::Shutdown),
    ]
}

/// Generator over the full [`WorkerReply`] vocabulary.
fn any_worker_reply() -> impl Strategy<Value = WorkerReply> {
    prop_oneof![
        Just(WorkerReply::Ok),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..60)
            .prop_map(WorkerReply::Deltas),
        any::<u64>().prop_map(WorkerReply::Count),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(n, s, e)| {
            WorkerReply::Stats(WorkerStats {
                num_elements: n,
                total_size: s,
                edges_examined: e,
            })
        }),
        "[ -~]{0,40}".prop_map(WorkerReply::Err),
    ]
}

proptest! {
    /// Transfer time is monotone in bytes and messages.
    #[test]
    fn transfer_monotone(b1 in 0u64..1_000_000, b2 in 0u64..1_000_000,
                         m1 in 1u64..64, m2 in 1u64..64) {
        let net = NetworkModel::cluster_1gbps();
        let (lo_b, hi_b) = (b1.min(b2), b1.max(b2));
        let (lo_m, hi_m) = (m1.min(m2), m1.max(m2));
        prop_assert!(net.transfer_time(lo_m, lo_b) <= net.transfer_time(hi_m, hi_b));
        prop_assert!(net.collective_time(lo_m, lo_b) <= net.collective_time(hi_m, hi_b));
        // Collectives never cost more than point-to-point fan-in.
        prop_assert!(net.collective_time(hi_m, hi_b) <= net.transfer_time(hi_m, hi_b));
    }

    /// Stream seeds are collision-free over realistic machine ranges and
    /// differ across master seeds.
    #[test]
    fn stream_seeds_unique(master in any::<u64>()) {
        let seeds: Vec<u64> = (0..128).map(|i| stream_seed(master, i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        prop_assert_eq!(unique.len(), seeds.len());
        prop_assert_ne!(stream_seed(master, 0), stream_seed(master.wrapping_add(1), 0));
    }

    /// par_step visits every machine exactly once, in machine order, in
    /// every execution mode; gather accounts exactly the advertised bytes,
    /// and the phase timeline attributes them to the gather's label.
    #[test]
    fn cluster_accounting(l in 1usize..12, payload in 0u64..10_000) {
        for mode in [ExecMode::Sequential, ExecMode::Threads] {
            let mut c = SimCluster::new(
                vec![0u64; l],
                NetworkModel::cluster_1gbps(),
                mode,
            );
            let ids = c.gather(phase::COUNT_UPLOAD, |i, w| { *w += 1; i }, |_| payload);
            prop_assert_eq!(ids, (0..l).collect::<Vec<_>>());
            prop_assert!(c.workers().iter().all(|&w| w == 1));
            let m = c.metrics();
            prop_assert_eq!(m.messages, l as u64);
            prop_assert_eq!(m.bytes_to_master, payload * l as u64);
            prop_assert_eq!(m.phases, 1);
            prop_assert!(m.worker_busy >= m.worker_compute);
            // The flat aggregate equals the single labeled entry.
            prop_assert_eq!(c.timeline().get(phase::COUNT_UPLOAD), m);
            prop_assert_eq!(c.timeline().len(), 1);
        }
    }

    /// Every op round-trips through its canonical byte encoding.
    #[test]
    fn worker_op_roundtrip(op in any_worker_op()) {
        let bytes = op.encode();
        prop_assert_eq!(WorkerOp::decode(&bytes), Some(op));
    }

    /// Every reply round-trips, and the advertised wire size matches the
    /// payload accounting rules (deltas/counts cost bytes, envelopes are
    /// free).
    #[test]
    fn worker_reply_roundtrip(reply in any_worker_reply()) {
        let bytes = reply.encode();
        prop_assert_eq!(WorkerReply::decode(&bytes), Some(reply.clone()));
        let expected = match &reply {
            WorkerReply::Ok | WorkerReply::Err(_) => 0,
            WorkerReply::Deltas(d) => wire::delta_wire_size(d.len()),
            WorkerReply::Count(_) => wire::u64_wire_size(),
            WorkerReply::Stats(_) => 24,
        };
        prop_assert_eq!(reply.wire_size(), expected);
    }

    /// Truncating an encoded op or reply anywhere is always detected.
    #[test]
    fn op_truncation_detected(op in any_worker_op(), cut in 1usize..16) {
        let bytes = op.encode();
        let cut = cut.min(bytes.len());
        prop_assert_eq!(WorkerOp::decode(&bytes[..bytes.len() - cut]), None);
    }

    /// Flipping any single bit of an encoded op/reply never panics the
    /// decoder: it yields a (possibly different) valid value or `None`,
    /// and never a bogus allocation from corrupted length headers.
    #[test]
    fn op_mutation_never_panics(op in any_worker_op(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = op.encode();
        let pos = pos.index(bytes.len());
        bytes[pos] ^= 1 << bit;
        if let Some(decoded) = WorkerOp::decode(&bytes) {
            // A successful decode must re-encode to the same bytes: the
            // codec admits no non-canonical encodings.
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// Same single-bit-flip robustness for replies.
    #[test]
    fn reply_mutation_never_panics(reply in any_worker_reply(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = reply.encode();
        let pos = pos.index(bytes.len());
        bytes[pos] ^= 1 << bit;
        if let Some(decoded) = WorkerReply::decode(&bytes) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// Metrics algebra: since() of merge() restores the original.
    #[test]
    fn metrics_algebra(msgs in 0u64..1000, bytes in 0u64..100_000, phases in 0u64..50) {
        let a = dim_cluster::ClusterMetrics {
            messages: msgs,
            bytes_to_master: bytes,
            phases,
            comm_time: Duration::from_micros(msgs),
            ..Default::default()
        };
        let mut b = a;
        b.merge(&a);
        prop_assert_eq!(b.since(&a), a);
    }
}

/// Property tests for the v2 rendezvous handshake and liveness codecs
/// (JOIN / WELCOME / HELLO / HEARTBEAT / REJECT): every frame round-trips
/// its canonical fixed-size encoding, truncation and trailing bytes are
/// always detected (the decoders are strict), and single-bit corruption
/// never panics — it yields `None` or another value that re-encodes to
/// exactly the mutated bytes (no non-canonical encodings).
mod rendezvous_codecs {
    use dim_cluster::rendezvous::{
        Heartbeat, Hello, JoinHello, Reject, RejectReason, Welcome,
    };
    use proptest::prelude::*;

    fn any_reason() -> impl Strategy<Value = RejectReason> {
        prop_oneof![
            Just(RejectReason::Version),
            Just(RejectReason::OutOfRange),
            Just(RejectReason::Duplicate),
            Just(RejectReason::SessionFull),
            Just(RejectReason::SeedMismatch),
            Just(RejectReason::Unauthorized),
        ]
    }

    fn any_digest() -> impl Strategy<Value = [u8; 32]> {
        any::<[u8; 32]>()
    }

    /// `u32::MAX` is the wire value of "any slot", so `Some(u32::MAX)` is
    /// not representable — the generator mirrors the codec's domain.
    fn any_requested() -> impl Strategy<Value = Option<u32>> {
        prop::option::of(0u32..u32::MAX)
    }

    /// Checks strictness on one encoding: every truncation prefix fails,
    /// and so does one trailing byte.
    fn assert_strict<T: std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<(), TestCaseError> {
        for cut in 1..=bytes.len() {
            prop_assert!(
                decode(&bytes[..bytes.len() - cut]).is_none(),
                "truncated by {cut} must not decode"
            );
        }
        let mut padded = bytes.to_vec();
        padded.push(0);
        prop_assert!(decode(&padded).is_none(), "trailing byte must not decode");
        Ok(())
    }

    proptest! {
        /// JOIN round-trips, including the any-slot sentinel.
        #[test]
        fn join_hello_roundtrip(version in any::<u8>(), caps in any::<u8>(),
                                requested in any_requested(), auth in any_digest()) {
            let join = JoinHello { version, caps, requested, auth };
            let bytes = join.encode();
            prop_assert_eq!(bytes.len(), 38);
            prop_assert_eq!(JoinHello::decode(&bytes), Some(join));
            assert_strict(&bytes, JoinHello::decode)?;
        }

        /// WELCOME round-trips.
        #[test]
        fn welcome_roundtrip(session in any::<u64>(), machine_id in any::<u32>(),
                             cluster_size in any::<u32>(), master_seed in any::<u64>()) {
            let welcome = Welcome { session, machine_id, cluster_size, master_seed };
            let bytes = welcome.encode();
            prop_assert_eq!(bytes.len(), 24);
            prop_assert_eq!(Welcome::decode(&bytes), Some(welcome));
            assert_strict(&bytes, Welcome::decode)?;
        }

        /// HELLO round-trips.
        #[test]
        fn hello_roundtrip(version in any::<u8>(), caps in any::<u8>(),
                           machine_id in any::<u32>(), stream_seed in any::<u64>()) {
            let hello = Hello { version, caps, machine_id, stream_seed };
            let bytes = hello.encode();
            prop_assert_eq!(bytes.len(), 14);
            prop_assert_eq!(Hello::decode(&bytes), Some(hello));
            assert_strict(&bytes, Hello::decode)?;
        }

        /// HEARTBEAT round-trips.
        #[test]
        fn heartbeat_roundtrip(session in any::<u64>(), seq in any::<u64>()) {
            let hb = Heartbeat { session, seq };
            let bytes = hb.encode();
            prop_assert_eq!(bytes.len(), 16);
            prop_assert_eq!(Heartbeat::decode(&bytes), Some(hb));
            assert_strict(&bytes, Heartbeat::decode)?;
        }

        /// REJECT round-trips every reason code.
        #[test]
        fn reject_roundtrip(reason in any_reason()) {
            let reject = Reject { reason };
            let bytes = reject.encode();
            prop_assert_eq!(bytes.len(), 1);
            prop_assert_eq!(Reject::decode(&bytes), Some(reject));
            assert_strict(&bytes, Reject::decode)?;
        }

        /// Single-bit corruption of any handshake frame never panics and
        /// never produces a non-canonical decode.
        #[test]
        fn handshake_mutation_never_panics(
            join in (any::<u8>(), any::<u8>(), any_requested(), any_digest())
                .prop_map(|(version, caps, requested, auth)| JoinHello {
                    version, caps, requested, auth,
                }),
            welcome in (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>())
                .prop_map(|(session, machine_id, cluster_size, master_seed)| Welcome {
                    session, machine_id, cluster_size, master_seed,
                }),
            reason in any_reason(),
            pos in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let mut join_bytes = join.encode();
            let p = pos.index(join_bytes.len());
            join_bytes[p] ^= 1 << bit;
            if let Some(decoded) = JoinHello::decode(&join_bytes) {
                prop_assert_eq!(decoded.encode(), join_bytes);
            }
            let mut welcome_bytes = welcome.encode();
            let p = pos.index(welcome_bytes.len());
            welcome_bytes[p] ^= 1 << bit;
            if let Some(decoded) = Welcome::decode(&welcome_bytes) {
                prop_assert_eq!(decoded.encode(), welcome_bytes);
            }
            let mut reject_bytes = Reject { reason }.encode();
            let p = pos.index(reject_bytes.len());
            reject_bytes[p] ^= 1 << bit;
            if let Some(decoded) = Reject::decode(&reject_bytes) {
                prop_assert_eq!(decoded.encode(), reject_bytes);
            }
        }
    }
}

/// Loopback fail-stop: state is resident in the worker endpoints, so a
/// worker that truncates an upload frame kills its link, the round fails
/// with a typed error naming the machine, and later rounds refuse to run
/// without that machine's shard.
#[test]
fn proc_cluster_fail_stops_on_truncated_frame() {
    use dim_cluster::tcp::{ProcCluster, WorkerFault};
    use dim_cluster::{OpCluster, OpExecutor, WireErrorKind, WorkerOp, WorkerReply};

    /// Minimal resident state: `SampleRr` accumulates, `CoveredCount`
    /// reports the tally.
    struct Tally(u64);

    impl OpExecutor for Tally {
        fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
            match op {
                WorkerOp::SampleRr { count } => {
                    self.0 += count;
                    WorkerReply::Ok
                }
                WorkerOp::CoveredCount => WorkerReply::Count(self.0),
                _ => WorkerReply::Err("unsupported".into()),
            }
        }
    }

    let mut cluster = ProcCluster::local_with_faults(
        2,
        NetworkModel::cluster_1gbps(),
        7,
        |i| Tally(10 * (i as u64 + 1)),
        vec![None, Some(WorkerFault::TruncateUpload { request: 2 })],
    )
    .expect("loopback cluster");

    // The first op round completes on both links.
    let replies = cluster
        .control(phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: 5 })
        .expect("clean first round");
    assert_eq!(replies, vec![WorkerReply::Ok, WorkerReply::Ok]);

    // The second round trips machine 1's truncation fault mid-upload.
    let err = cluster
        .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
        .unwrap_err();
    assert_eq!(err.phase, phase::COUNT_UPLOAD);
    assert_eq!(err.machine, Some(1));
    assert_eq!(cluster.link_errors(), 1);
    assert_eq!(cluster.live_links(), 1);

    // The dead machine's shard is unreachable, so every later round is a
    // typed link error — no silent partial answers.
    let err = cluster
        .op_gather(phase::DELTA_UPLOAD, |_| WorkerOp::CoveredCount)
        .unwrap_err();
    assert_eq!(err.kind, WireErrorKind::Link);
    assert_eq!(err.machine, Some(1));
    assert_eq!(cluster.link_errors(), 1, "no new faults after the first");
}

/// Property tests for the chaos layer: the [`dim_cluster::FaultPlan`]
/// binary codec is canonical and hostile-input safe, the JSON form
/// round-trips, and a plan's chaos seed fully determines the injected
/// event sequence — the contract that makes `dim chaos` replays and the
/// recovery acceptance runs reproducible.
mod fault_plans {
    use dim_cluster::{
        phase, ExecMode, FaultInjector, FaultPlan, LinkFault, NetworkModel, OpCluster, OpExecutor,
        Partition, SimCluster, WorkerOp, WorkerReply,
    };
    use proptest::prelude::*;

    /// Probabilities are ppm-scale: the codec rejects anything above 10⁶.
    fn any_link_fault() -> impl Strategy<Value = LinkFault> {
        (
            0u32..16,
            0u64..1_000_000,
            0u64..1_000_000,
            0u32..=1_000_000,
            0u64..1_000_000,
            0u32..=1_000_000,
            0u64..10_000,
            prop::option::of(any::<u64>()),
        )
            .prop_map(
                |(
                    machine,
                    extra_latency_us,
                    jitter_us,
                    loss_prob_ppm,
                    loss_retry_us,
                    stall_prob_ppm,
                    stall_ms,
                    kill_at_round,
                )| LinkFault {
                    machine,
                    extra_latency_us,
                    jitter_us,
                    loss_prob_ppm,
                    loss_retry_us,
                    stall_prob_ppm,
                    stall_ms,
                    kill_at_round,
                },
            )
    }

    fn any_partition() -> impl Strategy<Value = Partition> {
        (
            0u64..64,
            0u64..64,
            0u64..1_000_000,
            prop::collection::vec(0u32..16, 0..8),
        )
            .prop_map(|(from_round, to_round, heal_us, machines)| Partition {
                from_round,
                to_round,
                heal_us,
                machines,
            })
    }

    fn any_fault_plan() -> impl Strategy<Value = FaultPlan> {
        (
            any::<u64>(),
            prop::collection::vec(any_link_fault(), 0..12),
            prop::collection::vec(any_partition(), 0..6),
        )
            .prop_map(|(chaos_seed, link_faults, partitions)| FaultPlan {
                chaos_seed,
                link_faults,
                partitions,
            })
    }

    /// Minimal resident op state so a [`SimCluster`] can run real op
    /// rounds under an armed injector.
    struct Tally(u64);

    impl OpExecutor for Tally {
        fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
            match op {
                WorkerOp::SampleRr { count } => {
                    self.0 += count;
                    WorkerReply::Ok
                }
                WorkerOp::CoveredCount => WorkerReply::Count(self.0),
                _ => WorkerReply::Err("unsupported".into()),
            }
        }
    }

    proptest! {
        /// Binary codec round-trips every well-formed plan.
        #[test]
        fn plan_roundtrip(plan in any_fault_plan()) {
            let bytes = plan.encode();
            prop_assert_eq!(FaultPlan::decode(&bytes), Some(plan));
        }

        /// The `dim chaos --plan` JSON form round-trips too.
        #[test]
        fn plan_json_roundtrip(plan in any_fault_plan()) {
            let text = plan.to_json();
            prop_assert_eq!(FaultPlan::from_json(&text), Ok(plan));
        }

        /// Truncating an encoded plan anywhere is always detected.
        #[test]
        fn plan_truncation_detected(plan in any_fault_plan(), cut in 1usize..64) {
            let bytes = plan.encode();
            let cut = cut.min(bytes.len());
            prop_assert_eq!(FaultPlan::decode(&bytes[..bytes.len() - cut]), None);
            // And so is a trailing byte: the codec is strict.
            let mut padded = bytes;
            padded.push(0);
            prop_assert_eq!(FaultPlan::decode(&padded), None);
        }

        /// Flipping any single bit of an encoded plan never panics the
        /// decoder, and anything that still decodes re-encodes to exactly
        /// the mutated bytes — the codec admits no non-canonical forms
        /// (this is what protects the count headers from hostile
        /// allocations).
        #[test]
        fn plan_mutation_never_panics(plan in any_fault_plan(),
                                      pos in any::<prop::sample::Index>(),
                                      bit in 0u8..8) {
            let mut bytes = plan.encode();
            let pos = pos.index(bytes.len());
            bytes[pos] ^= 1 << bit;
            if let Some(decoded) = FaultPlan::decode(&bytes) {
                prop_assert_eq!(decoded.encode(), bytes);
            }
        }

        /// The chaos seed fully determines the schedule: two injectors
        /// built from the same plan emit byte-identical event logs when
        /// driven through the same op rounds on a [`SimCluster`] —
        /// independent of execution mode, which is exactly why a replayed
        /// `dim chaos` plan reproduces a production incident.
        #[test]
        fn same_chaos_seed_same_event_sequence(chaos_seed in any::<u64>(),
                                               rounds in 1usize..6,
                                               machines in 2usize..6) {
            // Kill-free, high-probability schedule: every round injects
            // on most links, so log equality is never vacuous.
            let plan = FaultPlan {
                chaos_seed,
                link_faults: (0..machines as u32)
                    .map(|m| LinkFault {
                        machine: m,
                        extra_latency_us: 200,
                        jitter_us: 100,
                        loss_prob_ppm: 500_000,
                        loss_retry_us: 700,
                        stall_prob_ppm: 300_000,
                        stall_ms: 1,
                        ..LinkFault::default()
                    })
                    .collect(),
                partitions: vec![Partition {
                    from_round: 1,
                    to_round: 3,
                    heal_us: 400,
                    machines: vec![0],
                }],
            };
            let mut logs = Vec::new();
            for mode in [ExecMode::Sequential, ExecMode::Threads] {
                let workers: Vec<Tally> = (0..machines).map(|i| Tally(i as u64)).collect();
                let mut cluster =
                    SimCluster::new(workers, NetworkModel::cluster_1gbps(), mode)
                        .with_faults(FaultInjector::new(plan.clone(), machines));
                for _ in 0..rounds {
                    let replies = cluster
                        .control(phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: 3 })
                        .expect("kill-free plan fails no round");
                    prop_assert_eq!(replies.len(), machines);
                }
                let inj = cluster.fault_injector().expect("injector stays armed");
                prop_assert_eq!(inj.round(), rounds as u64);
                prop_assert!(!inj.events().is_empty(), "no events fired");
                logs.push(inj.events().to_vec());
            }
            prop_assert_eq!(&logs[0], &logs[1], "same plan, different schedule");
        }
    }
}
