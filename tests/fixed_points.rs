//! The run's fixed points as tier-1 tests: exact counters that a change
//! must leave equal unless it declares the move. Each counter is asserted
//! by name — a run's through the [`RunRecord`] field of that name — and a
//! test reports every counter that moved, not only the first, so a
//! failure says what moved and by how much.

use dim_cluster::{
    ClusterBackend, ExecMode, NetworkModel, OpExecutor, SimCluster, WorkerOp, WorkerReply,
};
use dim_core::diimm::DiimmWorker;
use dim_core::snapshot::{diimm_sample_generation, StreamSession};
use dim_core::{diimm, ImConfig};
use dim_coverage::greedi::greedi;
use dim_coverage::newgreedi_with;
use dim_coverage::CoverageProblem;
use dim_graph::generators::DatasetProfile;
use dim_graph::{DeltaBatch, EdgeOp, Graph};

mod run_record;
use run_record::{assert_same, store_files, RunRecord};

/// The sampler work units a worker has spent so far.
fn examined(worker: &mut DiimmWorker) -> u64 {
    match worker.execute(&WorkerOp::Stats) {
        WorkerReply::Stats(stats) => stats.edges_examined,
        other => panic!("Stats answered {other:?}"),
    }
}

/// Asserts each `(name, got, want)`, listing every counter that moved.
fn assert_counters<S: std::fmt::Display>(what: &str, counters: &[(S, u64, u64)]) {
    let moved: Vec<String> = counters
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: {got} (pinned {want})"))
        .collect();
    assert!(moved.is_empty(), "{what} moved: {}", moved.join(", "));
}

/// The `im-ic` benchmark's solve at `--seed 1`: DiIMM on
/// `livejournal:0.02`, k = 20, ε = 0.1, δ = 1/n, IC, two machines. θ,
/// `edges_examined`, `bytes_to_master`, `bytes_from_master` and `messages`
/// equal the traced benchmark's `diffusion.rr_sets`,
/// `diffusion.edges_examined`, `cluster.bytes_up`, `cluster.bytes_down` and
/// `cluster.msgs`. `phases` counts this solve's op rounds, its closing
/// `Stats` round included; the benchmark's `cluster.rounds` (120) counts
/// those of its staged replay, which has none.
#[test]
fn diimm_im_ic_counters() {
    let g = DatasetProfile::LiveJournal.generate(0.02, 1);
    let config = ImConfig {
        k: 20,
        ..ImConfig::paper_defaults(&g, 0.1, 1)
    };
    let net = NetworkModel::cluster_1gbps();
    let r = diimm(&g, &config, 2, net, ExecMode::Sequential).expect("a simulated solve");
    let got = RunRecord::from(&r);
    let pinned = RunRecord {
        theta: 231_266,
        edges_examined: 16_693_587,
        bytes_to_master: 5_908_208,
        bytes_from_master: 54_752,
        messages: 448,
        phases: 121,
        ..got.clone()
    };
    assert_same(&got, &pinned, "im-ic (livejournal:0.02, seed 1) moved");
}

/// One fixed batch of 16 edits over `g`: inserts, reweights and deletes,
/// a hub (node 0) among the targets.
fn sixteen_edits(g: &Graph) -> Vec<EdgeOp> {
    let n = g.num_nodes() as u32;
    (0..16u32)
        .map(|i| {
            let (u, v) = ((i * 7919 + 13) % n, (i * 104_729 + 1) % n);
            match i % 4 {
                0 => EdgeOp::Insert { u, v: 0, p: 0.5 },
                1 => EdgeOp::Insert { u, v, p: 0.25 },
                2 => {
                    let w = g.in_neighbors(v).first().copied().unwrap_or(u);
                    EdgeOp::Reweight { u: w, v, p: 0.75 }
                }
                _ => {
                    let w = g.in_neighbors(v).last().copied().unwrap_or(u);
                    EdgeOp::Delete { u: w, v }
                }
            }
        })
        .collect()
}

/// Stream repair, the sampler's other caller: one machine of a two-machine
/// DiIMM run on `livejournal:0.002` (seed 1) draws 20 000 RR sets, then
/// applies one fixed batch of 16 edits (inserts, reweights and deletes;
/// a hub among the targets). Its own input, not the `stream-apply`
/// benchmark's: the repaired-set count and the sampler work are pinned.
#[test]
fn diimm_repair_counters() {
    let g = DatasetProfile::LiveJournal.generate(0.002, 1);
    let config = ImConfig {
        k: 20,
        ..ImConfig::paper_defaults(&g, 0.1, 1)
    };
    let mut worker = DiimmWorker::new(&g, &config, 1);
    worker.generate(20_000);
    let before = examined(&mut worker);
    let repaired = worker
        .apply_delta(&DeltaBatch::new(0, sixteen_edits(&g)))
        .expect("every edit names nodes of the graph");
    let members: u64 = repaired.iter().map(|(_, set)| set.len() as u64).sum();
    assert_counters(
        "repair (livejournal:0.002, seed 1)",
        &[
            ("sets_resampled", repaired.len() as u64, 3_130),
            ("repaired_members", members, 386_541),
            ("edges_examined", examined(&mut worker) - before, 846_326),
        ],
    );
}

/// NewGreeDi over element shards: maximum coverage of `livejournal:0.004`
/// (seed 1) in-neighbourhoods, k = 20, two machines — the shape of the
/// `maxcover-tcp` benchmark's smoke run, built here, not read from it.
/// Modeled traffic is a function of the messages alone, so a
/// [`SimCluster`] pins what the TCP backends send. `phases` counts the
/// solve's op rounds (the benchmark's `cluster.rounds`); the bytes and
/// messages are its `cluster.bytes_up`, `bytes_down` and `msgs` at this
/// input, not at the benchmark's full scale.
#[test]
fn newgreedi_maxcover_counters() {
    let g = DatasetProfile::LiveJournal.generate(0.004, 1);
    let problem = CoverageProblem::from_graph_neighborhoods(&g);
    let mut cluster = SimCluster::new(
        problem.shard_elements(2),
        NetworkModel::cluster_1gbps(),
        ExecMode::Sequential,
    );
    let r = newgreedi_with(&mut cluster, problem.num_sets(), 20).expect("a simulated solve");
    let got = RunRecord::from((&r, cluster.timeline()));
    let pinned = RunRecord {
        phases: 22,
        bytes_to_master: 319_712,
        bytes_from_master: 10_048,
        messages: 84,
        ..got.clone()
    };
    assert_same(&got, &pinned, "maxcover (livejournal:0.004, seed 1) moved");
}

/// One GreeDi solve over `problem` on two simulated machines, k = κ = 20.
/// `shuffle` is RandGreeDi's partition seed (`None` for GreeDi's
/// round-robin partition).
fn greedi_run(problem: &CoverageProblem, shuffle: Option<u64>) -> RunRecord {
    let (shards, partition) = problem.shard_sets(2, shuffle);
    let mut cluster = SimCluster::new(shards, NetworkModel::cluster_1gbps(), ExecMode::Sequential);
    let r = greedi(&mut cluster, &partition, 20, 20).expect("a simulated solve has no link");
    RunRecord::from((&r, cluster.timeline()))
}

/// GreeDi and RandGreeDi's core-set round over set shards of the same
/// `livejournal:0.004` (seed 1) neighbourhoods as above, ℓ = 2,
/// k = κ = 20. The core-set upload is one gather: two messages, one
/// phase, nothing sent down. `bytes_to_master` prices each machine's κ
/// picked ids and their element lists.
#[test]
fn greedi_coreset_counters() {
    let g = DatasetProfile::LiveJournal.generate(0.004, 1);
    let problem = CoverageProblem::from_graph_neighborhoods(&g);
    let picks = [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 9, 13, 10, 14, 12, 18, 15, 16, 20, 19,
    ];
    for (variant, shuffle, bytes_up) in [
        ("GreeDi", None, 187_744),
        ("RandGreeDi (shuffle seed 7)", Some(7), 185_808),
    ] {
        let got = greedi_run(&problem, shuffle);
        let pinned = RunRecord {
            seeds: picks.to_vec(),
            coverage: 14_134,
            bytes_to_master: bytes_up,
            bytes_from_master: 0,
            messages: 2,
            phases: 1,
            ..got.clone()
        };
        assert_same(&got, &pinned, &format!("{variant} moved"));
    }
}

/// The bytes a stream writes: DiIMM on `livejournal:0.002` (seed 1),
/// k = 10, ε = 0.5, two machines, sampled into a store root; the batch of
/// [`sixteen_edits`] applied and persisted; then compacted. Every file of
/// the three generations (base shards, delta shards, compacted shards,
/// the compacted graph image and each `MANIFEST`) is pinned by name,
/// length and checksum, and so is the batch's repaired-set count.
#[test]
fn persisted_generation_bytes() {
    let g = DatasetProfile::LiveJournal.generate(0.002, 1);
    let config = ImConfig {
        k: 10,
        ..ImConfig::paper_defaults(&g, 0.5, 1)
    };
    let root = std::env::temp_dir().join(format!("dim-fixed-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let net = NetworkModel::cluster_1gbps();
    diimm_sample_generation(&g, &config, 2, net, ExecMode::Sequential, &root, 8)
        .expect("a simulated solve has no link to fail");
    let mut session = StreamSession::open(&g, &config, &root, net, ExecMode::Sequential)
        .expect("the generation just committed opens");
    let applied = session
        .apply(sixteen_edits(&g), true, 8)
        .expect("every edit names nodes of the graph");
    assert_eq!(session.compact(8).expect("one batch to compact"), Some(3));
    let files = store_files(&root);
    std::fs::remove_dir_all(&root).unwrap();
    let pinned: [(&str, u64, u64); 10] = [
        ("gen 1 MANIFEST", 66, 8858099233268830104),
        ("gen 1 shard-0-of-2.rrs", 282_361, 2155711251677442816),
        ("gen 1 shard-1-of-2.rrs", 258_157, 7732372980740177352),
        ("gen 2 MANIFEST", 66, 6460438525848720592),
        ("gen 2 shard-0-of-2.rrd", 245_097, 14090277862547876672),
        ("gen 2 shard-1-of-2.rrd", 218_053, 6609024206702203873),
        ("gen 3 MANIFEST", 66, 17854297575263419421),
        ("gen 3 graph.dimg", 2_288_088, 17975764909646208694),
        ("gen 3 shard-0-of-2.rrs", 334_197, 1635905613267637017),
        ("gen 3 shard-1-of-2.rrs", 306_881, 12681436428827964334),
    ];
    let listed: Vec<&str> = files.iter().map(|(name, ..)| name.as_str()).collect();
    let want: Vec<&str> = pinned.iter().map(|(name, ..)| *name).collect();
    assert_eq!(listed, want, "the generations' files");
    let mut counters = vec![("sets_repaired".to_string(), applied.sets_repaired, 949)];
    for ((name, len, sum), (_, want_len, want_sum)) in files.iter().zip(&pinned) {
        counters.push((format!("{name} length"), *len, *want_len));
        counters.push((format!("{name} checksum"), *sum, *want_sum));
    }
    assert_counters(
        "persisted generations (livejournal:0.002, seed 1)",
        &counters,
    );
}

/// Node `v`'s forward row, and its reverse row with the row's
/// probability sum and uniform probability, every float by its bits.
fn node_arrays(g: &Graph, v: u32) -> [Vec<u32>; 6] {
    let bits = |ps: &[f32]| ps.iter().map(|p| p.to_bits()).collect();
    [
        g.out_neighbors(v).to_vec(),
        bits(g.out_probs(v)),
        g.in_neighbors(v).to_vec(),
        bits(g.in_probs(v)),
        vec![g.in_prob_sum(v).to_bits()],
        g.in_uniform_prob(v).map(f32::to_bits).into_iter().collect(),
    ]
}

/// The generated graphs themselves: `graph_fingerprint` (the XXH64 of the
/// DIMG image, i.e. the forward CSR and every probability) of each profile
/// on its own generator path — Chung–Lu for the directed three,
/// Barabási–Albert for `facebook` — and of Erdős–Rényi, once under
/// trivalency weights, which read each edge's CSR position. The image
/// holds the forward arrays only, so each graph (and one built with
/// non-uniform explicit weights) must also decode from its image equal in
/// every reverse array.
#[test]
fn profile_graph_fingerprints() {
    use dim_graph::binary::{decode_binary, write_binary};
    use dim_graph::generators::erdos_renyi;
    use dim_graph::{GraphBuilder, WeightModel};

    let mut explicit = GraphBuilder::new(50);
    for i in 0..400u32 {
        let (u, v) = ((i * 7) % 50, (i * 13 + 1) % 50);
        explicit.add_weighted_edge(u, v, ((i % 9) as f32 + 1.0) / 10.0);
        explicit.add_edge(v, (u + 3) % 50);
    }
    let graphs = [
        (
            "livejournal:0.002",
            DatasetProfile::LiveJournal.generate(0.002, 1),
        ),
        (
            "twitter:0.00005 trivalency",
            DatasetProfile::Twitter.generate_with(0.00005, WeightModel::Trivalency, 2),
        ),
        (
            "googleplus:0.002",
            DatasetProfile::GooglePlus.generate(0.002, 3),
        ),
        ("facebook:0.25", DatasetProfile::Facebook.generate(0.25, 4)),
        (
            "erdos_renyi(2000, 20000) trivalency",
            erdos_renyi(2_000, 20_000, WeightModel::Trivalency, 6),
        ),
        (
            "builder, explicit weights",
            explicit.build(WeightModel::WeightedCascade),
        ),
    ];
    let pinned: [u64; 6] = [
        15_033_608_696_653_317_115,
        359_026_948_413_265_542,
        6_435_448_660_361_620_736,
        15_422_573_079_142_909_359,
        3_852_428_461_128_775_897,
        16_113_856_447_766_806_749,
    ];
    let mut counters = Vec::new();
    for ((name, g), want) in graphs.iter().zip(pinned) {
        counters.push((
            format!("{name} fingerprint"),
            dim_store::graph_fingerprint(g),
            want,
        ));
        let mut image = Vec::new();
        write_binary(g, &mut image).expect("a Vec takes every byte");
        let decoded = decode_binary(&image).expect("a written image decodes");
        let differs = g
            .nodes()
            .find(|&v| node_arrays(&decoded, v) != node_arrays(g, v));
        assert_eq!(
            differs, None,
            "{name}: a node's arrays differ after decoding"
        );
    }
    assert_counters("generated graphs", &counters);
}
