//! Worker-process binary for the TCP process backend.
//!
//! One instance per machine of a [`dim_cluster::tcp::ProcCluster`] (spawn
//! mode) or of a [`dim_cluster::rendezvous::JoinCluster`] (join mode): a
//! [`dim_core::WorkerHost`] that connects to the master, completes the
//! JOIN/WELCOME/HELLO handshake, then serves [`dim_cluster::WorkerOp`]s
//! against its resident state.
//!
//! ```text
//! # spawn mode — launched BY the master, pinned id and seed:
//! dim-worker --addr 127.0.0.1:PORT --machine-id N --master-seed S
//!
//! # join mode — pre-started by an operator, registers with the master:
//! dim-worker --connect HOST:PORT --join [--machine-id N] [--join-deadline SECS]
//! ```
//!
//! In join mode the worker retries its registration with jittered
//! exponential backoff until `--join-deadline` (or
//! `DIM_JOIN_DEADLINE_SECS`) expires, serves the session, then loops back
//! to join the *next* session against the same master — its loaded graph
//! survives across sessions. Once at least one session has been served, a
//! master that can no longer be reached means the run is over: the worker
//! logs it and exits 0.
//!
//! The master address may also come from the `DIM_WORKER_ADDR` environment
//! variable (`--addr` and `--connect` are aliases; flags win).

use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use dim::dim_core::WorkerHost;
use dim_cluster::rendezvous::{self, JoinOptions};
use dim_cluster::tcp::run_worker;

/// How long a join-mode worker that has already served a session keeps
/// trying to re-register before concluding the master is gone (used when
/// no explicit deadline is configured).
const REJOIN_GRACE: Duration = Duration::from_secs(10);

fn main() -> ExitCode {
    let mut addr = None;
    let mut machine_id: Option<u32> = None;
    let mut master_seed: Option<u64> = None;
    let mut join = false;
    let mut join_deadline: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| match args.next() {
            Some(v) => Some(v),
            None => {
                eprintln!("dim-worker: {name} requires a value");
                None
            }
        };
        match arg.as_str() {
            "--addr" | "--connect" => addr = take("--addr"),
            "--machine-id" => machine_id = take("--machine-id").and_then(|v| v.parse().ok()),
            "--master-seed" => master_seed = take("--master-seed").and_then(|v| v.parse().ok()),
            "--join" => join = true,
            "--join-deadline" => {
                join_deadline = take("--join-deadline")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(Duration::from_secs)
            }
            other => {
                eprintln!("dim-worker: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let addr = addr.or_else(|| std::env::var("DIM_WORKER_ADDR").ok());

    if join {
        let Some(addr) = addr else {
            eprintln!("usage: dim-worker --connect HOST:PORT --join [--machine-id N] [--join-deadline SECS]");
            return ExitCode::from(2);
        };
        return run_join_mode(&addr, machine_id, join_deadline);
    }

    let (Some(addr), Some(id), Some(seed)) = (addr, machine_id, master_seed) else {
        eprintln!("usage: dim-worker --addr HOST:PORT --machine-id N --master-seed S");
        eprintln!("       dim-worker --connect HOST:PORT --join [--machine-id N] [--join-deadline SECS]");
        eprintln!("       (HOST:PORT may also come from DIM_WORKER_ADDR)");
        return ExitCode::from(2);
    };
    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dim-worker: connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut host = WorkerHost::new(id as usize, seed);
    match run_worker(stream, id, seed, &mut host) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dim-worker {id}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The join-mode loop: register → serve a session → re-register, keeping
/// one long-lived [`WorkerHost`] (and its loaded graph) across sessions.
fn run_join_mode(addr: &str, requested: Option<u32>, deadline: Option<Duration>) -> ExitCode {
    let deadline = deadline.or_else(rendezvous::join_deadline_env);
    let mut host = WorkerHost::new(requested.unwrap_or(0) as usize, 0);
    let mut sessions_served = 0u64;
    loop {
        let opts = JoinOptions {
            requested,
            caps: rendezvous::caps::ALL,
            // After the first session the master may legitimately be gone;
            // bound the re-join so the worker can notice and exit clean.
            deadline: deadline.or((sessions_served > 0).then_some(REJOIN_GRACE)),
        };
        match rendezvous::run_join_worker(addr, &opts, None, |welcome| {
            host.reset_session(welcome.machine_id as usize, welcome.master_seed);
            eprintln!(
                "dim-worker: joined session {} as machine {} of {}",
                welcome.session, welcome.machine_id, welcome.cluster_size
            );
            &mut host
        }) {
            Ok(session) => {
                sessions_served += 1;
                eprintln!(
                    "dim-worker: session {} ended ({:?}); re-registering",
                    session.welcome.session, session.end
                );
            }
            Err(e) if sessions_served > 0 => {
                eprintln!(
                    "dim-worker: master unreachable after {sessions_served} session(s) ({e}); done"
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("dim-worker: join {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}
