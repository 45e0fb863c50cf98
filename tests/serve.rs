//! Concurrency and correctness of the dim-serve query service: many
//! client threads hammer one server over loopback TCP, and every single
//! reply must equal the direct in-process [`CoverageShard`] computation
//! on an identical sketch. Shutdown must be clean — all threads joined,
//! no socket left accepting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use dim::prelude::*;
use dim_core::diimm::DiimmWorker;
use dim_serve::proto::{ERR_QUOTA, ERR_UNAUTHORIZED, ERR_UNKNOWN_TENANT};
use dim_serve::QueryClient;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dim-serve-itest-{}-{tag}-{n}", std::process::id()))
}

/// θ and the coverage shards of the newest committed generation under
/// `root`, which must be `expected`: the reference every served reply is
/// checked against.
fn latest_reference(
    root: &std::path::Path,
    request: &dim::dim_store::SnapshotRequest,
    expected: u64,
) -> Arc<(u64, Vec<CoverageShard>)> {
    let (id, snapshot) = load_latest_snapshot(root, request).expect("load committed generation");
    assert_eq!(id, expected, "newest committed generation");
    let n = snapshot.num_sets as usize;
    let shards = snapshot.shards.iter();
    let shards = shards.map(|s| CoverageShard::from_records(n, s.elements.iter()));
    Arc::new((snapshot.theta, shards.collect()))
}

/// A tiny deterministic id stream so every thread queries different seed
/// sets without sharing state.
fn pseudo_ids(stream: u64, round: u64, n: u32, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(stream << 32 | round);
    (0..len).map(|_| rng.below(n as usize) as u32).collect()
}

/// Samples a real DiIMM sketch, serves it, and checks every concurrent
/// reply — spreads and constrained top-k — against direct evaluation.
#[test]
fn concurrent_queries_match_direct_computation() {
    let g = DatasetProfile::Facebook.generate(0.08, 5);
    let config = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g, 0.5, 21)
    };
    let dir = temp_dir("concurrent");
    let net = NetworkModel::shared_memory();
    diimm_sample_generation(&g, &config, 3, net, ExecMode::Sequential, &dir, 1).unwrap();

    // Two independent loads: one becomes the served sketch, the other the
    // reference the clients check every reply against.
    let served = Sketch::from_snapshot(
        g.num_nodes(),
        load_latest_rr_snapshot(&g, &config, &dir).unwrap().1,
    );
    let reference = latest_reference(&dir, &rr_snapshot_request(&g, &config), 1);
    let theta = served.theta();
    let n = g.num_nodes();

    let server = dim_serve::Server::start("127.0.0.1:0", served).unwrap();
    let addr = server.local_addr();

    const THREADS: u64 = 8;
    const ROUNDS: u64 = 20;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let reference = Arc::clone(&reference);
            thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    let seeds = pseudo_ids(t, round, n as u32, (round % 7) as usize);
                    let (covered, spread) = client.spread(&seeds).expect("spread query");
                    let expected = dim_coverage::seed_set_coverage(&reference.1, &seeds);
                    assert_eq!(covered, expected, "thread {t} round {round}: {seeds:?}");
                    let direct = n as f64 * expected as f64 / theta as f64;
                    assert!((spread - direct).abs() < 1e-9);
                    if round % 5 == 0 {
                        let exclude = pseudo_ids(t ^ 0xFF, round, n as u32, 2);
                        let top = client.top_k(3, &[], &exclude).expect("top-k query");
                        let direct =
                            dim_coverage::constrained_greedy(&reference.1, 3, &[], &exclude);
                        assert_eq!(top.seeds, direct.seeds, "thread {t} round {round}");
                        assert_eq!(top.marginals, direct.marginals);
                        assert_eq!(top.covered, direct.covered);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }

    let expected_queries = THREADS * (ROUNDS + ROUNDS.div_ceil(5));
    assert_eq!(server.queries_answered(), expected_queries);
    server.shutdown();

    // Clean shutdown: the listener is gone, so either the connect is
    // refused or the dead connection errors on first use.
    match QueryClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => assert!(client.spread(&[0]).is_err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hot reload under fire: eight threads hammer the server with pipelined
/// `[Stats, Spread]` batches while the main thread commits three fresh
/// generations to the store and hot-reloads into each one. The server
/// pins every batch to a single generation, so the stats reply inside a
/// batch names exactly which reference sketch its spread answer must be
/// byte-identical to. No query may error, and the generation ids each
/// connection observes must advance monotonically.
#[test]
fn hot_reload_under_fire() {
    let g = DatasetProfile::Facebook.generate(0.08, 5);
    let base = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g, 0.5, 21)
    };
    let root = temp_dir("reload-fire");
    let net = NetworkModel::shared_memory();

    // Per-generation reference shards, loaded straight from the store so
    // clients can verify answers against direct evaluation. A generation
    // is inserted here BEFORE the server is told to reload into it, so a
    // hammering thread can always resolve whatever id the server reports.
    type References =
        std::sync::RwLock<std::collections::HashMap<u64, Arc<(u64, Vec<CoverageShard>)>>>;
    let references: Arc<References> = Arc::default();
    let request = rr_snapshot_request(&g, &base);
    let load_reference = |expected: u64| latest_reference(&root, &request, expected);

    let (first, _) = diimm_sample_generation(&g, &base, 2, net, ExecMode::Sequential, &root, 10)
        .expect("sample generation 1");
    assert_eq!(first, 1);
    references.write().unwrap().insert(1, load_reference(1));

    let (generation, snapshot) = load_latest_rr_snapshot(&g, &base, &root).unwrap();
    assert_eq!(generation, 1);
    let server = dim_serve::Server::start_with(
        "127.0.0.1:0",
        Sketch::from_snapshot(g.num_nodes(), snapshot),
        ServeOptions {
            // One worker stays tied to each connection for its lifetime:
            // 8 hammer connections + the admin client need headroom.
            workers: 12,
            generation,
            reload: Some(ReloadSource {
                root: root.clone(),
                request,
                num_nodes: g.num_nodes(),
            }),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let n = g.num_nodes() as u32;
    const HAMMERS: u64 = 8;
    let workers: Vec<_> = (0..HAMMERS)
        .map(|t| {
            let references = Arc::clone(&references);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                let mut last_generation = 0u64;
                let mut seen = std::collections::BTreeSet::new();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) || round < 20 {
                    let seeds = pseudo_ids(t, round, n, (round % 7) as usize);
                    let replies = client
                        .batch(&[
                            QueryRequest::Stats,
                            QueryRequest::Spread {
                                seeds: seeds.clone(),
                            },
                        ])
                        .expect("batched query during reload");
                    let [QueryResponse::Stats(stats), QueryResponse::Spread { covered, theta, .. }] =
                        &replies[..]
                    else {
                        panic!("thread {t} round {round}: unexpected replies {replies:?}");
                    };
                    assert!(
                        stats.generation >= last_generation,
                        "thread {t}: generation went backwards ({} after {})",
                        stats.generation,
                        last_generation
                    );
                    last_generation = stats.generation;
                    seen.insert(stats.generation);
                    let reference = references
                        .read()
                        .unwrap()
                        .get(&stats.generation)
                        .cloned()
                        .unwrap_or_else(|| {
                            panic!("server reported unknown generation {}", stats.generation)
                        });
                    assert_eq!(*theta, reference.0, "theta must match the pinned generation");
                    assert_eq!(
                        *covered,
                        dim_coverage::seed_set_coverage(&reference.1, &seeds),
                        "thread {t} round {round} generation {}: {seeds:?}",
                        stats.generation
                    );
                    round += 1;
                }
                seen
            })
        })
        .collect();

    // Commit and reload three newer generations while the hammering runs.
    // A different sampling seed per generation changes the sketch content,
    // so a stale answer would be caught by the byte-identical check.
    let mut admin = QueryClient::connect(addr).expect("admin connect");
    for expected in 2..=4u64 {
        let config = ImConfig {
            seed: base.seed + expected,
            ..base
        };
        let (id, _) = diimm_sample_generation(&g, &config, 2, net, ExecMode::Sequential, &root, 10)
            .expect("sample newer generation");
        assert_eq!(id, expected);
        references.write().unwrap().insert(id, load_reference(id));
        let (gen, changed) = admin.reload().expect("wire reload");
        assert_eq!(gen, expected);
        assert!(changed, "reload must swap to the newer generation");
        thread::sleep(std::time::Duration::from_millis(50));
    }

    stop.store(true, Ordering::Relaxed);
    let mut observed = std::collections::BTreeSet::new();
    for w in workers {
        observed.extend(w.join().expect("hammer thread panicked"));
    }
    assert!(
        observed.contains(&1) && observed.contains(&4),
        "hammering threads never straddled the swaps: observed {observed:?}"
    );

    assert_eq!(server.generation(), 4);
    let metrics = server.metrics();
    assert_eq!(metrics.active_generation, 4);
    assert_eq!(metrics.reloads, 3);
    assert!(metrics.batches_answered >= HAMMERS * 20);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Streamed delta generations are first-class reload targets: while
/// client threads hammer the server, a [`StreamSession`] applies edge
/// batches (each committing a delta generation), compacts the chain into
/// a fresh standalone base, streams past the compaction, and GCs old
/// generations — and the server hot-reloads through every one of them
/// with zero query errors, every answer byte-identical to the folded
/// chain the reported generation pins.
#[test]
fn stream_generations_hot_reload_under_fire() {
    let g = DatasetProfile::Facebook.generate(0.08, 5);
    let base = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g, 0.5, 37)
    };
    let root = temp_dir("stream-fire");
    let net = NetworkModel::shared_memory();
    let request = rr_snapshot_request(&g, &base);

    // Per-generation reference shards: each entry is the *folded chain*
    // as of that generation's commit, loaded through the same chain-aware
    // path the server reloads through, and inserted BEFORE the server is
    // told to reload — so hammering threads can always resolve whatever
    // id the server reports.
    type References =
        std::sync::RwLock<std::collections::HashMap<u64, Arc<(u64, Vec<CoverageShard>)>>>;
    let references: Arc<References> = Arc::default();
    let load_latest_reference = |expected: u64| latest_reference(&root, &request, expected);

    let (first, _) = diimm_sample_generation(&g, &base, 2, net, ExecMode::Sequential, &root, 10)
        .expect("sample generation 1");
    assert_eq!(first, 1);
    references
        .write()
        .unwrap()
        .insert(1, load_latest_reference(1));

    let (generation, snapshot) = load_latest_rr_snapshot(&g, &base, &root).unwrap();
    let server = dim_serve::Server::start_with(
        "127.0.0.1:0",
        Sketch::from_snapshot(g.num_nodes(), snapshot),
        ServeOptions {
            workers: 10,
            generation,
            reload: Some(ReloadSource {
                root: root.clone(),
                request,
                num_nodes: g.num_nodes(),
            }),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let n = g.num_nodes() as u32;
    const HAMMERS: u64 = 6;
    let workers: Vec<_> = (0..HAMMERS)
        .map(|t| {
            let references = Arc::clone(&references);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                let mut last_generation = 0u64;
                let mut seen = std::collections::BTreeSet::new();
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) || round < 20 {
                    let seeds = pseudo_ids(t ^ 0xBEEF, round, n, (round % 7) as usize);
                    let replies = client
                        .batch(&[
                            QueryRequest::Stats,
                            QueryRequest::Spread {
                                seeds: seeds.clone(),
                            },
                        ])
                        .expect("batched query during streamed reload");
                    let [QueryResponse::Stats(stats), QueryResponse::Spread { covered, theta, .. }] =
                        &replies[..]
                    else {
                        panic!("thread {t} round {round}: unexpected replies {replies:?}");
                    };
                    assert!(
                        stats.generation >= last_generation,
                        "thread {t}: generation went backwards ({} after {})",
                        stats.generation,
                        last_generation
                    );
                    last_generation = stats.generation;
                    seen.insert(stats.generation);
                    let reference = references
                        .read()
                        .unwrap()
                        .get(&stats.generation)
                        .cloned()
                        .unwrap_or_else(|| {
                            panic!("server reported unknown generation {}", stats.generation)
                        });
                    assert_eq!(*theta, reference.0, "theta must match the pinned generation");
                    assert_eq!(
                        *covered,
                        dim_coverage::seed_set_coverage(&reference.1, &seeds),
                        "thread {t} round {round} generation {}: {seeds:?}",
                        stats.generation
                    );
                    round += 1;
                }
                seen
            })
        })
        .collect();

    // Stream against the store while the hammering runs: two delta
    // generations, a compaction, and one more delta past it. Every commit
    // is followed by a wire reload.
    let mut session =
        StreamSession::open(&g, &base, &root, net, ExecMode::Sequential).expect("open session");
    let mut edges = g.edges();
    let (u1, v1, _) = edges.next().expect("graph has edges");
    let (u2, v2, _) = edges.next().expect("graph has two edges");
    let steps: Vec<(Option<Vec<EdgeOp>>, u64)> = vec![
        // Delta generation 2: delete a sampled edge, insert a fresh one.
        (
            Some(vec![
                EdgeOp::Delete { u: u1, v: v1 },
                EdgeOp::Insert {
                    u: (u1 + 1) % n,
                    v: (u1 + 2) % n,
                    p: 0.4,
                },
            ]),
            2,
        ),
        // Delta generation 3.
        (Some(vec![EdgeOp::Reweight { u: u2, v: v2, p: 0.8 }]), 3),
        // Generation 4: the chain folded into a standalone base.
        (None, 4),
        // Delta generation 5, chained off the compacted base. keep = 2
        // GCs generations 1–3 out from under the server mid-flight.
        (Some(vec![EdgeOp::Delete { u: u2, v: v2 }]), 5),
    ];
    let mut admin = QueryClient::connect(addr).expect("admin connect");
    for (ops, expected) in steps {
        let committed = match ops {
            Some(ops) => {
                let keep = if expected == 5 { 2 } else { 10 };
                let applied = session.apply(ops, true, keep).expect("apply batch");
                assert!(applied.sets_repaired > 0, "generation {expected} repaired nothing");
                applied.generation.expect("persisted apply commits")
            }
            None => session
                .compact(10)
                .expect("compact chain")
                .expect("chain has batches to fold"),
        };
        assert_eq!(committed, expected);
        references
            .write()
            .unwrap()
            .insert(expected, load_latest_reference(expected));
        let (gen, changed) = admin.reload().expect("wire reload");
        assert_eq!(gen, expected);
        assert!(changed, "reload must swap to generation {expected}");
        thread::sleep(std::time::Duration::from_millis(40));
    }

    stop.store(true, Ordering::Relaxed);
    let mut observed = std::collections::BTreeSet::new();
    for w in workers {
        observed.extend(w.join().expect("hammer thread panicked"));
    }
    assert!(
        observed.contains(&1) && observed.contains(&5),
        "hammering threads never straddled the swaps: observed {observed:?}"
    );

    assert_eq!(server.generation(), 5);
    let metrics = server.metrics();
    assert_eq!(metrics.active_generation, 5);
    assert_eq!(metrics.reloads, 4);
    server.shutdown();
    // GC swept the pre-compaction generations; the compacted base (the
    // live chain's root) and its delta survive.
    let left: Vec<u64> = list_generations(&root)
        .unwrap()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(left, vec![4, 5]);
    std::fs::remove_dir_all(&root).ok();
}

/// Multi-tenant acceptance: two tenants served concurrently from ONE
/// daemon return byte-identical answers to two single-tenant daemons
/// over the same stores. While a hammering thread keeps one tenant's
/// queries in flight, the other tenant's failure modes — wrong token,
/// unknown tenant, query-before-auth, tripped batch quota — each get
/// their distinct typed error without disturbing it, including across a
/// hot reload that swaps only one tenant's generation.
#[test]
fn multi_tenant_matches_single_tenant_daemons() {
    let g_a = DatasetProfile::Facebook.generate(0.08, 5);
    let g_b = DatasetProfile::Facebook.generate(0.08, 9);
    let cfg_a = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g_a, 0.5, 21)
    };
    let cfg_b = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g_b, 0.5, 33)
    };
    let dir_a = temp_dir("mt-acme");
    let dir_b = temp_dir("mt-globex");
    let net = NetworkModel::shared_memory();
    let (gen_a, _) =
        diimm_sample_generation(&g_a, &cfg_a, 2, net, ExecMode::Sequential, &dir_a, 10).unwrap();
    let (gen_b, _) =
        diimm_sample_generation(&g_b, &cfg_b, 2, net, ExecMode::Sequential, &dir_b, 10).unwrap();
    assert_eq!((gen_a, gen_b), (1, 1));

    let load =
        |g: &Graph, cfg: &ImConfig, root: &std::path::Path| -> (u64, Sketch, ReloadSource) {
            let (generation, snapshot) = load_latest_rr_snapshot(g, cfg, root).unwrap();
            let reload = ReloadSource {
                root: root.to_path_buf(),
                request: rr_snapshot_request(g, cfg),
                num_nodes: g.num_nodes(),
            };
            (generation, Sketch::from_snapshot(g.num_nodes(), snapshot), reload)
        };

    // The two single-tenant reference daemons.
    let start_single = |g: &Graph, cfg: &ImConfig, root: &std::path::Path| {
        let (generation, sketch, reload) = load(g, cfg, root);
        dim_serve::Server::start_with(
            "127.0.0.1:0",
            sketch,
            ServeOptions {
                generation,
                reload: Some(reload),
                ..ServeOptions::default()
            },
        )
        .unwrap()
    };
    let single_a = start_single(&g_a, &cfg_a, &dir_a);
    let single_b = start_single(&g_b, &cfg_b, &dir_b);

    // The multi-tenant daemon over the SAME stores. Acme gets a tight
    // batch quota so the quota path can be tripped deterministically.
    let acme = Credentials::new("acme", "acme-secret");
    let globex = Credentials::new("globex", "globex-secret");
    let bind = |creds: &Credentials,
                g: &Graph,
                cfg: &ImConfig,
                root: &std::path::Path,
                quota: TenantQuota| {
        let (generation, sketch, reload) = load(g, cfg, root);
        TenantBind {
            spec: TenantSpec {
                id: creds.tenant.clone(),
                auth: creds.digest(),
                store: None,
                graph: None,
                quota,
            },
            sketch,
            generation,
            reload: Some(reload),
        }
    };
    let multi = dim_serve::Server::start_multi(
        "127.0.0.1:0",
        vec![
            bind(
                &acme,
                &g_a,
                &cfg_a,
                &dir_a,
                TenantQuota {
                    max_batch: 4,
                    ..TenantQuota::default()
                },
            ),
            bind(&globex, &g_b, &cfg_b, &dir_b, TenantQuota::default()),
        ],
        ServeOptions {
            workers: 8,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let multi_addr = multi.local_addr();
    let single_a_addr = single_a.local_addr();
    let single_b_addr = single_b.local_addr();

    // The probe queries answers are compared over: spreads of several
    // seed sets plus a constrained top-k. Stats is excluded — counters
    // legitimately differ between daemons.
    let probes = |n: u32| -> Vec<QueryRequest> {
        let mut reqs: Vec<QueryRequest> = (0..6u64)
            .map(|round| QueryRequest::Spread {
                seeds: pseudo_ids(11, round, n, (round % 5) as usize),
            })
            .collect();
        reqs.push(QueryRequest::TopK {
            k: 3,
            include: vec![],
            exclude: pseudo_ids(13, 1, n, 2),
        });
        reqs
    };
    let assert_identical = |tenant: &Credentials, single_addr: std::net::SocketAddr, n: u32| {
        let mut scoped = QueryClient::connect(multi_addr).unwrap();
        scoped.authenticate(tenant).unwrap();
        let mut reference = QueryClient::connect(single_addr).unwrap();
        for req in probes(n) {
            let got = scoped.request(&req).unwrap();
            let want = reference.request(&req).unwrap();
            assert_eq!(got, want, "tenant {:?} diverged on {req:?}", tenant.tenant);
        }
    };
    assert_identical(&acme, single_a_addr, g_a.num_nodes() as u32);
    assert_identical(&globex, single_b_addr, g_b.num_nodes() as u32);

    // Globex hammer: keeps queries in flight on the multi daemon for the
    // whole error dance and the acme-only reload, checking every answer
    // against the single-tenant daemon B live.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        let globex = globex.clone();
        let n = g_b.num_nodes() as u32;
        thread::spawn(move || {
            let mut scoped = QueryClient::connect(multi_addr).unwrap();
            scoped.authenticate(&globex).unwrap();
            let mut reference = QueryClient::connect(single_b_addr).unwrap();
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) || rounds < 30 {
                let req = QueryRequest::Spread {
                    seeds: pseudo_ids(3, rounds, n, (rounds % 6) as usize),
                };
                let got = scoped.request(&req).expect("globex query during acme faults");
                let want = reference.request(&req).unwrap();
                assert_eq!(got, want, "globex diverged at round {rounds}");
                rounds += 1;
            }
            rounds
        })
    };

    // Distinct typed errors, each on a fresh connection (failed auth and
    // pre-auth queries close the connection by design).
    let expect_error = |req: &QueryRequest, code: u8, what: &str| {
        let mut probe = QueryClient::connect(multi_addr).unwrap();
        match probe.request(req).unwrap() {
            QueryResponse::Error { code: got, .. } => {
                assert_eq!(got, code, "{what}: wrong error code")
            }
            other => panic!("{what}: expected typed error, got {other:?}"),
        }
    };
    expect_error(
        &Credentials::new("acme", "not-the-secret").auth_request(),
        ERR_UNAUTHORIZED,
        "wrong token",
    );
    expect_error(
        &Credentials::new("nobody", "acme-secret").auth_request(),
        ERR_UNKNOWN_TENANT,
        "unknown tenant",
    );
    expect_error(
        &QueryRequest::Spread { seeds: vec![0] },
        ERR_UNAUTHORIZED,
        "query before auth",
    );

    // Tripping acme's batch quota is a typed refusal that keeps the
    // connection usable — and is charged to acme's ledger only.
    let mut acme_client = QueryClient::connect(multi_addr).unwrap();
    acme_client.authenticate(&acme).unwrap();
    let oversized: Vec<QueryRequest> = (0..8)
        .map(|i| QueryRequest::Spread { seeds: vec![i] })
        .collect();
    let err = acme_client.batch(&oversized).unwrap_err();
    assert!(
        err.to_string().contains(&format!("server error {ERR_QUOTA}")),
        "oversized batch must be refused with ERR_QUOTA, got: {err}"
    );
    assert!(acme_client.spread(&[0, 1]).is_ok(), "connection must survive ERR_QUOTA");
    let quota_shed = |id: &str| multi.tenant(id).unwrap().metrics().quota_shed;
    assert_eq!(quota_shed("acme"), 1);
    assert_eq!(quota_shed("globex"), 0);

    // Acme-only hot reload: a fresh generation in store A (different
    // sampling seed, same provenance) swaps acme's sketch while globex's
    // generation — and its in-flight answers — stay put.
    let cfg_a2 = ImConfig {
        seed: cfg_a.seed + 1,
        ..cfg_a
    };
    let (id, _) =
        diimm_sample_generation(&g_a, &cfg_a2, 2, net, ExecMode::Sequential, &dir_a, 10).unwrap();
    assert_eq!(id, 2);
    let (gen, changed) = acme_client.reload().expect("wire reload scoped to acme");
    assert_eq!((gen, changed), (2, true));
    assert_eq!(multi.tenant("acme").unwrap().generation(), 2);
    assert_eq!(multi.tenant("globex").unwrap().generation(), 1);
    // Reload daemon A the same way, then both gen-2 surfaces must agree.
    assert_eq!(single_a.reload().unwrap(), (2, true));
    assert_identical(&acme, single_a_addr, g_a.num_nodes() as u32);
    assert_identical(&globex, single_b_addr, g_b.num_nodes() as u32);

    stop.store(true, Ordering::Relaxed);
    let rounds = hammer.join().expect("globex hammer panicked");
    assert!(rounds >= 30);

    // Per-tenant accounting: the admin view carries both ledgers, and
    // globex's error counters are untouched by acme's bad day.
    let by_id: std::collections::HashMap<String, ServeMetrics> =
        multi.tenant_metrics().into_iter().collect();
    assert_eq!(by_id.len(), 2);
    assert!(by_id["globex"].queries_answered >= rounds);
    assert_eq!(by_id["globex"].quota_shed, 0);
    assert_eq!(by_id["acme"].reloads, 1);
    assert_eq!(by_id["globex"].reloads, 0);

    multi.shutdown();
    single_a.shutdown();
    single_b.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Chaos riding the reload path: the streamed generations (deltas, a
/// compaction, chain GC) are produced by a resident cluster running
/// under an injected stall/loss fault schedule, and a killed machine's
/// shard is speculatively rebuilt before persisting one more. Hammering
/// clients must see ZERO errors and every answer byte-identical to the
/// folded chain its pinned generation names.
#[test]
fn reload_and_gc_survive_fault_schedule() {
    let g = DatasetProfile::Facebook.generate(0.08, 5);
    let base = ImConfig {
        k: 4,
        ..ImConfig::paper_defaults(&g, 0.5, 37)
    };
    let root = temp_dir("chaos-reload");
    let net = NetworkModel::shared_memory();
    let request = rr_snapshot_request(&g, &base);

    type References =
        std::sync::RwLock<std::collections::HashMap<u64, Arc<(u64, Vec<CoverageShard>)>>>;
    let references: Arc<References> = Arc::default();
    let load_latest_reference = |expected: u64| latest_reference(&root, &request, expected);

    let (first, _) = diimm_sample_generation(&g, &base, 2, net, ExecMode::Sequential, &root, 10)
        .expect("sample generation 1");
    assert_eq!(first, 1);
    references
        .write()
        .unwrap()
        .insert(1, load_latest_reference(1));

    let (generation, snapshot) = load_latest_rr_snapshot(&g, &base, &root).unwrap();
    let server = dim_serve::Server::start_with(
        "127.0.0.1:0",
        Sketch::from_snapshot(g.num_nodes(), snapshot),
        ServeOptions {
            workers: 8,
            generation,
            reload: Some(ReloadSource {
                root: root.clone(),
                request,
                num_nodes: g.num_nodes(),
            }),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let n = g.num_nodes() as u32;
    const HAMMERS: u64 = 4;
    let workers: Vec<_> = (0..HAMMERS)
        .map(|t| {
            let references = Arc::clone(&references);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                let mut seen = std::collections::BTreeSet::new();
                let mut round = 0u64;
                loop {
                    // `stop` is set once the last reload has returned, so the round
                    // that sees it queries the last generation.
                    let last = stop.load(Ordering::Relaxed) && round >= 20;
                    let seeds = pseudo_ids(t ^ 0xC4A0, round, n, (round % 7) as usize);
                    let replies = client
                        .batch(&[
                            QueryRequest::Stats,
                            QueryRequest::Spread {
                                seeds: seeds.clone(),
                            },
                        ])
                        .expect("query while chaos runs the producer");
                    let [QueryResponse::Stats(stats), QueryResponse::Spread { covered, theta, .. }] =
                        &replies[..]
                    else {
                        panic!("thread {t} round {round}: unexpected replies {replies:?}");
                    };
                    seen.insert(stats.generation);
                    let reference = references
                        .read()
                        .unwrap()
                        .get(&stats.generation)
                        .cloned()
                        .unwrap_or_else(|| {
                            panic!("server reported unknown generation {}", stats.generation)
                        });
                    assert_eq!(*theta, reference.0, "theta must match the pinned generation");
                    assert_eq!(
                        *covered,
                        dim_coverage::seed_set_coverage(&reference.1, &seeds),
                        "thread {t} round {round} generation {}: {seeds:?}",
                        stats.generation
                    );
                    round += 1;
                    if last {
                        break;
                    }
                }
                seen
            })
        })
        .collect();

    // Stream deltas, a compaction, and a chain GC — with a stall/loss
    // fault schedule armed on the resident cluster the whole time. The
    // link layer absorbs every fault (retries within budget), so commits
    // stay byte-identical; the injector's event log proves chaos fired.
    let chain = StoredChain::resolve(&g, &base, &root).expect("resolve the store");
    let chaos = FaultInjector::new(
        FaultPlan {
            chaos_seed: 0xD1CE,
            link_faults: (0..2)
                .map(|m| LinkFault {
                    machine: m,
                    extra_latency_us: 300,
                    jitter_us: 120,
                    loss_prob_ppm: 250_000,
                    loss_retry_us: 800,
                    stall_prob_ppm: 200_000,
                    stall_ms: 2,
                    ..LinkFault::default()
                })
                .collect(),
            ..FaultPlan::default()
        },
        2,
    );
    let machines = (0..2).map(|i| DiimmWorker::new(&g, &base, i)).collect();
    let armed = SimCluster::new(machines, net, ExecMode::Sequential).with_faults(chaos);
    let mut session = StreamSession::open_on(armed, chain).expect("open session");
    let mut edges = g.edges();
    let (u1, v1, _) = edges.next().expect("graph has edges");
    let (u2, v2, _) = edges.next().expect("graph has two edges");
    let mut admin = QueryClient::connect(addr).expect("admin connect");
    let steps: Vec<(Option<Vec<EdgeOp>>, u64)> = vec![
        (
            Some(vec![
                EdgeOp::Delete { u: u1, v: v1 },
                EdgeOp::Insert {
                    u: (u1 + 1) % n,
                    v: (u1 + 2) % n,
                    p: 0.4,
                },
            ]),
            2,
        ),
        // Generation 3: the chain folded into a standalone base.
        (None, 3),
        // Delta generation 4; keep = 2 GCs the pre-compaction chain out
        // from under the serving daemon mid-flight.
        (Some(vec![EdgeOp::Reweight { u: u2, v: v2, p: 0.8 }]), 4),
    ];
    for (ops, expected) in steps {
        let committed = match ops {
            Some(ops) => {
                let keep = if expected == 4 { 2 } else { 10 };
                let applied = session.apply(ops, true, keep).expect("apply under chaos");
                assert!(applied.sets_repaired > 0, "generation {expected} repaired nothing");
                applied.generation.expect("persisted apply commits")
            }
            None => session
                .compact(10)
                .expect("compact under chaos")
                .expect("chain has batches to fold"),
        };
        assert_eq!(committed, expected);
        references
            .write()
            .unwrap()
            .insert(expected, load_latest_reference(expected));
        let (gen, changed) = admin.reload().expect("wire reload");
        assert_eq!((gen, changed), (expected, true));
        thread::sleep(std::time::Duration::from_millis(40));
    }
    let events = session
        .cluster()
        .fault_injector()
        .expect("injector stays armed")
        .events();
    assert!(!events.is_empty(), "no fault events fired during streaming");
    drop(session);

    // Harder chaos: a full sampling run for generation 5 loses a machine
    // outright (killed link), recovers by speculative shard rebuild, and
    // persists the recovered shards — which must be byte-identical to a
    // fault-free run of the same config, proven by the seed set.
    let cfg5 = ImConfig {
        seed: base.seed + 100,
        ..base
    };
    let fault_free = dim_core::diimm::diimm(&g, &cfg5, 2, net, ExecMode::Sequential).unwrap();
    let cluster = SimCluster::new(
        (0..2usize)
            .map(|i| dim_core::diimm::DiimmWorker::new(&g, &cfg5, i))
            .collect(),
        net,
        ExecMode::Sequential,
    )
    .with_faults(FaultInjector::new(FaultPlan::kill_machine(1, 1), 2));
    let mut recovering = RecoveringCluster::new(
        cluster,
        &g,
        &cfg5,
        RecoveryPolicy {
            min_survivors: 1,
            ..RecoveryPolicy::resample()
        },
    );
    let result = dim_core::diimm::diimm_on(&mut recovering, &g, &cfg5, true)
        .expect("recovery absorbs the kill");
    assert_eq!(result.seeds, fault_free.seeds, "rebuilt shard diverged");
    let degraded = recovering.degraded_outcome().expect("kill not recorded");
    assert_eq!(degraded.lost, vec![1]);
    assert!(degraded.rebuilt_sets > 0);
    let (id, dir) = begin_generation(&root).unwrap();
    assert_eq!(id, 5);
    let fingerprint = graph_fingerprint(&g);
    persist_rr_shards(&mut recovering, &dir, fingerprint, result.num_rr_sets as u64)
        .expect("persist recovered shards");
    let run = RunParams { k: cfg5.k as u64, epsilon: cfg5.epsilon, delta: cfg5.delta };
    commit_generation(&dir, id, &run).unwrap();
    references.write().unwrap().insert(5, load_latest_reference(5));
    let (gen, changed) = admin.reload().expect("reload into recovered generation");
    assert_eq!((gen, changed), (5, true));

    stop.store(true, Ordering::Relaxed);
    let mut observed = std::collections::BTreeSet::new();
    for w in workers {
        observed.extend(w.join().expect("hammer thread panicked"));
    }
    assert!(
        observed.contains(&1) && observed.contains(&5),
        "hammering threads never straddled the swaps: observed {observed:?}"
    );
    assert_eq!(server.generation(), 5);
    assert_eq!(server.metrics().reloads, 4);
    server.shutdown();
    // Chain GC ran under chaos: only the compacted base, its delta, and
    // the recovered generation survive.
    let left: Vec<u64> = list_generations(&root)
        .unwrap()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(left, vec![3, 4, 5]);
    std::fs::remove_dir_all(&root).ok();
}

/// The unconstrained top-k answer served over the wire IS the persisted
/// run's seed set — sample once, query forever.
#[test]
fn served_topk_equals_sampled_run() {
    let g = DatasetProfile::Facebook.generate(0.08, 9);
    let config = ImConfig {
        k: 5,
        ..ImConfig::paper_defaults(&g, 0.5, 33)
    };
    let dir = temp_dir("topk");
    let net = NetworkModel::shared_memory();
    let (_, sampled) =
        diimm_sample_generation(&g, &config, 2, net, ExecMode::Sequential, &dir, 1).unwrap();
    let sketch = Sketch::from_snapshot(
        g.num_nodes(),
        load_latest_rr_snapshot(&g, &config, &dir).unwrap().1,
    );
    let server = dim_serve::Server::start("127.0.0.1:0", sketch).unwrap();
    let mut client = QueryClient::connect(server.local_addr()).unwrap();

    let top = client.top_k(config.k as u32, &[], &[]).unwrap();
    assert_eq!(top.seeds, sampled.seeds);
    assert_eq!(top.marginals, sampled.marginals);
    assert_eq!(top.covered, sampled.coverage);

    // And the serving stats describe the sketch exactly.
    let stats = client.stats().unwrap();
    assert_eq!(stats.theta as usize, sampled.num_rr_sets);
    assert_eq!(stats.total_rr_size as usize, sampled.total_rr_size);
    assert_eq!(stats.shard_count, 2);
    assert_eq!(stats.num_nodes as usize, g.num_nodes());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
