//! Worker-process binary for the TCP process backend.
//!
//! One instance per machine of a [`dim_cluster::tcp::ProcCluster`]: a
//! [`dim_core::WorkerHost`] that connects to the master's rendezvous
//! point, completes the JOIN/WELCOME/HELLO handshake, then serves
//! [`dim_cluster::WorkerOp`]s against its resident state.
//!
//! ```text
//! dim-worker --connect HOST:PORT [--machine-id N] [--join [--join-deadline SECS]]
//! ```
//!
//! An unknown flag, or a flag whose value is missing or does not parse,
//! exits 2 with the usage line before any connect.
//!
//! Without `--join` the worker serves exactly one session and exits 0
//! when the master ends it — this is what `ProcCluster::spawn` launches
//! (pinned with `--machine-id`), and its registration gives up after the
//! handshake timeout (`DIM_HANDSHAKE_TIMEOUT_SECS`, 10 s), so a launched
//! child never outlives a master that vanished before admitting it.
//!
//! With `--join` — the operator-started mode — the worker retries its
//! registration with jittered exponential backoff until `--join-deadline`
//! (or `DIM_JOIN_DEADLINE_SECS`; unset = forever) expires, serves the
//! session, then loops back to join the *next* session against the same
//! master — its loaded graph survives across sessions. Once at least one
//! session has been served, a master that can no longer be reached means
//! the run is over: the worker logs it and exits 0.
//!
//! Everything else a worker needs — machine id (unless pinned), cluster
//! size, master seed — arrives in the WELCOME. The master address may also
//! come from the `DIM_WORKER_ADDR` environment variable (the flag wins).

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use dim::dim_core::WorkerHost;
use dim_cluster::rendezvous::{self, JoinOptions};
use dim_cluster::tcp::handshake_timeout;

const USAGE: &str =
    "usage: dim-worker --connect HOST:PORT [--machine-id N] [--join [--join-deadline SECS]]\n       \
     (HOST:PORT may also come from DIM_WORKER_ADDR)";

/// How long a `--join` worker that has already served a session keeps
/// trying to re-register before concluding the master is gone (used when
/// no explicit deadline is configured).
const REJOIN_GRACE: Duration = Duration::from_secs(10);

/// `flag`'s value parsed as `T`; a missing or unparsable value is an
/// error naming the flag.
fn parse_flag<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value `{value}`"))
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut requested: Option<u32> = None;
    let mut rejoin = false;
    let mut join_deadline: Option<Duration> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = match arg.as_str() {
            "--connect" => parse_flag(&arg, args.next()).map(|v| addr = Some(v)),
            "--machine-id" => parse_flag(&arg, args.next()).map(|id| requested = Some(id)),
            "--join" => {
                rejoin = true;
                Ok(())
            }
            "--join-deadline" => parse_flag(&arg, args.next())
                .map(|secs| join_deadline = Some(Duration::from_secs(secs))),
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(msg) = parsed {
            eprintln!("dim-worker: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(addr) = addr.or_else(|| std::env::var("DIM_WORKER_ADDR").ok()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let deadline = if rejoin {
        join_deadline.or_else(rendezvous::join_deadline_env)
    } else {
        Some(handshake_timeout())
    };

    // One long-lived host: its loaded graph survives across sessions.
    let mut host = WorkerHost::new(requested.unwrap_or(0) as usize, 0);
    let mut sessions_served = 0u64;
    loop {
        let opts = JoinOptions {
            requested,
            // After the first session the master may legitimately be gone;
            // bound the re-join so the worker can notice and exit clean.
            deadline: deadline.or((sessions_served > 0).then_some(REJOIN_GRACE)),
        };
        match rendezvous::run_join_worker(&addr, &opts, |welcome| {
            host.reset_session(welcome.machine_id as usize, welcome.master_seed);
            if rejoin {
                eprintln!(
                    "dim-worker: joined session {} as machine {} of {}",
                    welcome.session, welcome.machine_id, welcome.cluster_size
                );
            }
            &mut host
        }) {
            Ok(_) if !rejoin => return ExitCode::SUCCESS,
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
