//! Process-level tests for the TCP backend: spawn real `dim-worker` OS
//! processes, install resident state through setup ops, run phase ops
//! against it, and verify (a) the replies match an in-process shard, (b)
//! real transfer times are measured, and (c) dropping the cluster shuts
//! every worker process down — no orphans, and a launched worker never
//! outlives a master it cannot reach. Cargo builds `dim-worker` for
//! this test target, so a missing binary or a failed spawn is a failure.

use std::time::{Duration, Instant};

use dim::prelude::*;
use dim_cluster::ops::{expect_deltas, expect_ok};

/// The `dim-worker` binary cargo built alongside this test.
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_dim-worker");

fn spawn_cluster(count: usize, seed: u64) -> ProcCluster {
    std::env::set_var("DIM_WORKER_BIN", WORKER_BIN);
    ProcCluster::spawn(count, NetworkModel::cluster_1gbps(), seed)
        .expect("spawn dim-worker processes")
}

/// Fig. 2's instance, split over two machines.
fn shard_records(machine: usize) -> Vec<Vec<u32>> {
    match machine {
        0 => vec![vec![0], vec![1, 2], vec![0, 2]],
        _ => vec![vec![1, 4], vec![0], vec![1, 3]],
    }
}

#[test]
fn spawned_worker_processes_hold_shards_and_answer_ops() {
    let mut cluster = spawn_cluster(2, 42);
    assert_eq!(cluster.session_id(), 1, "a spawned cluster is its rendezvous' one session");
    // State ships to the workers once; nothing is retained master-side.
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: 5,
            elements: shard_records(i),
        })
        .unwrap();
    expect_ok(&replies, phase::SETUP).unwrap();

    // The coverage-upload round returns each machine's real initial
    // coverage, matching an in-process shard over the same records.
    let replies = cluster
        .op_gather(phase::COVERAGE_UPLOAD, |_| WorkerOp::InitialCoverage)
        .unwrap();
    let deltas = expect_deltas(replies, phase::COVERAGE_UPLOAD).unwrap();
    for (i, deltas) in deltas.iter().enumerate() {
        let local = CoverageShard::from_records(5, shard_records(i).iter().map(Vec::as_slice));
        assert_eq!(deltas, &local.initial_coverage(), "machine {i}");
    }

    assert_eq!(cluster.link_errors(), 0, "clean run over real processes");
    let m = cluster.metrics();
    assert!(
        m.measured_comm > Duration::ZERO,
        "cross-process transfers must record wall-clock time"
    );
    // Modeled upload traffic is the sparse-delta wire size, per machine.
    let expected: u64 = deltas
        .iter()
        .map(|d| dim_cluster::wire::delta_wire_size(d.len()) as u64)
        .sum();
    assert_eq!(m.bytes_to_master, expected);
}

/// Spawns a pre-started join-mode worker process, as an operator would:
/// `dim-worker --connect ADDR --join --machine-id ID --join-deadline 5`.
fn start_join_worker(addr: std::net::SocketAddr, id: u32) -> std::process::Child {
    std::process::Command::new(WORKER_BIN)
        .args(["--connect", &addr.to_string(), "--join"])
        .args(["--machine-id", &id.to_string()])
        .args(["--join-deadline", "5"])
        .stdin(std::process::Stdio::null())
        .spawn()
        .expect("spawn dim-worker --join")
}

fn join_rendezvous(machines: usize) -> dim_cluster::rendezvous::Rendezvous {
    let mut config = dim_cluster::JoinConfig::new(machines);
    config.join_timeout = Duration::from_secs(20);
    dim_cluster::Rendezvous::bind("127.0.0.1:0", config).expect("bind loopback rendezvous")
}

/// Runs the Fig. 2 coverage workload on an assembled join session and
/// checks the replies against in-process shards.
fn run_coverage_session(cluster: &mut ProcCluster, session: u64) {
    assert_eq!(cluster.session_id(), session);
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: 5,
            elements: shard_records(i),
        })
        .unwrap();
    expect_ok(&replies, phase::SETUP).unwrap();
    let replies = cluster
        .op_gather(phase::COVERAGE_UPLOAD, |_| WorkerOp::InitialCoverage)
        .unwrap();
    let deltas = expect_deltas(replies, phase::COVERAGE_UPLOAD).unwrap();
    for (i, deltas) in deltas.iter().enumerate() {
        let local = CoverageShard::from_records(5, shard_records(i).iter().map(Vec::as_slice));
        assert_eq!(deltas, &local.initial_coverage(), "machine {i}, session {session}");
    }
    assert_eq!(cluster.link_errors(), 0, "session {session}");
}

/// Pre-started `dim-worker --join` processes register with the master's
/// rendezvous point, serve a session, re-register for the next one (same
/// processes, same resident-state path), and exit 0 on their own once the
/// master is gone.
#[test]
fn join_mode_processes_serve_two_sessions_and_exit_clean() {
    let mut rendezvous = join_rendezvous(2);
    let addr = rendezvous.local_addr().unwrap();
    let children: Vec<_> = (0..2).map(|id| start_join_worker(addr, id)).collect();
    for session in 1..=2 {
        let mut cluster = rendezvous
            .accept_session(NetworkModel::cluster_1gbps(), 42)
            .expect("both join workers register in time");
        run_coverage_session(&mut cluster, session);
        // Dropping the cluster ends the session with Shutdown ops; the
        // worker processes survive and re-register with the same master.
    }
    drop(rendezvous);
    // With the rendezvous point gone, each worker's re-join deadline
    // expires against connection-refused and it exits *successfully*.
    for (id, mut child) in children.into_iter().enumerate() {
        let status = child.wait().unwrap();
        assert!(
            status.success(),
            "worker {id} should exit 0 once the master is gone, got {status:?}"
        );
    }
}

/// SIGKILLing a join worker mid-session fail-stops the link with a typed
/// error naming the machine; a freshly started replacement process
/// registers for the *next* session against the same master.
#[test]
fn killed_join_worker_fail_stops_and_a_restart_rejoins() {
    let mut rendezvous = join_rendezvous(2);
    let addr = rendezvous.local_addr().unwrap();
    let mut children: Vec<_> = (0..2).map(|id| start_join_worker(addr, id)).collect();
    let mut cluster = rendezvous
        .accept_session(NetworkModel::cluster_1gbps(), 7)
        .expect("both join workers register in time");
    let replies = cluster
        .control(phase::SETUP, |i| WorkerOp::BuildShard {
            num_sets: 5,
            elements: shard_records(i),
        })
        .unwrap();
    expect_ok(&replies, phase::SETUP).unwrap();

    // Kill machine 1's process outright — the MPI-style fail-stop case.
    children[1].kill().unwrap();
    children[1].wait().unwrap();
    // The next op round is the failure detector.
    let err = cluster
        .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
        .expect_err("dead worker must fail the next op round");
    assert_eq!(err.phase, phase::COUNT_UPLOAD);
    assert_eq!(err.machine, Some(1), "error names the dead machine");
    assert_eq!(err.kind, WireErrorKind::Link);
    assert!(
        err.to_string().contains("machine 1"),
        "fail-stop message names the machine: {err}"
    );
    assert_eq!(cluster.live_links(), 1);
    drop(cluster);

    // An operator restarts the dead worker; the surviving process and the
    // replacement assemble the next session and serve it clean.
    children.push(start_join_worker(addr, 1));
    let mut cluster = rendezvous
        .accept_session(NetworkModel::cluster_1gbps(), 7)
        .expect("survivor + replacement register in time");
    run_coverage_session(&mut cluster, 2);
    drop(cluster);
    drop(rendezvous);
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait().unwrap();
        if i != 1 {
            assert!(status.success(), "worker {i} exits 0, got {status:?}");
        }
    }
}

#[test]
fn dropping_the_cluster_leaves_no_orphan_processes() {
    let cluster = spawn_cluster(3, 7);
    let pids = cluster.worker_pids();
    assert_eq!(pids.len(), 3, "three real worker processes");
    for &pid in &pids {
        assert!(
            std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "worker {pid} alive while cluster is up"
        );
    }
    let dropping = Instant::now();
    drop(cluster);
    // Drop sends Shutdown ops and reaps each child (kill after a 2 s
    // grace), so by now every pid must be gone from the process table —
    // and promptly: a spawned worker serves one session and exits on the
    // Shutdown op, it does not re-register and wait to be killed.
    let took = dropping.elapsed();
    assert!(took < Duration::from_secs(1), "drop ran into the kill grace: {took:?}");
    for &pid in &pids {
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "worker process {pid} survived ProcCluster drop"
        );
    }
}

/// A worker launched the way `ProcCluster::spawn` launches it (no
/// `--join`) bounds its registration by the handshake timeout: against a
/// master that is not there it fails fast instead of retrying forever.
#[test]
fn launched_worker_gives_up_on_an_absent_master() {
    // Bind-then-drop guarantees nothing listens on the port.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let start = Instant::now();
    let status = std::process::Command::new(WORKER_BIN)
        .args(["--connect", &addr, "--machine-id", "0"])
        .env("DIM_HANDSHAKE_TIMEOUT_SECS", "1")
        .env_remove("DIM_JOIN_DEADLINE_SECS")
        .stdin(std::process::Stdio::null())
        .status()
        .expect("run dim-worker");
    assert_eq!(status.code(), Some(1), "join failure is exit 1, got {status:?}");
    assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
}

/// The spawn-mode spellings are gone: the seed arrives in WELCOME and the
/// address has one flag.
#[test]
fn removed_flag_spellings_are_unknown_arguments() {
    for flag in ["addr", "master-seed"] {
        let out = std::process::Command::new(WORKER_BIN)
            .args([&format!("--{flag}"), "1", "--connect", "127.0.0.1:1"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run dim-worker");
        assert_eq!(out.status.code(), Some(2), "--{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown argument"), "--{flag}: {err}");
    }
}
