//! The process-per-machine backend over TCP.
//!
//! [`ProcCluster`] is the "real distribution" counterpart of
//! [`crate::SimCluster`]: each of the ℓ machines is a separate OS process
//! (the `dim-worker` binary, or a thread serving the identical protocol in
//! tests) that **owns its resident state** — graph partition, RNG stream,
//! RR-set shard, coverage labels — and answers serialized
//! [`WorkerOp`]s until shutdown. The master holds no shard state at all;
//! every algorithm phase becomes one op round through the [`OpCluster`]
//! seam, and since [`crate::SimCluster`] interprets the *same* op values in
//! process, both backends execute the same algorithm by construction.
//!
//! # Frame protocol
//!
//! Every frame is `[u32 len (LE)] [u8 opcode] [body; len − 1]`, with `len`
//! capped at [`MAX_FRAME`]. Opcodes:
//!
//! | opcode | name      | direction | body                                     |
//! |--------|-----------|-----------|------------------------------------------|
//! | 0      | HELLO     | w → m     | [`rendezvous::Hello`] (stream seed)      |
//! | 1      | OP        | m → w     | one encoded [`WorkerOp`]                 |
//! | 2      | REPLY     | w → m     | `[u64 elapsed_ns]` + encoded [`WorkerReply`] |
//! | 3      | JOIN      | w → m     | [`rendezvous::JoinHello`] (version, requested id, token digest) |
//! | 4      | WELCOME   | m → w     | [`rendezvous::Welcome`] (session, id, ℓ, master seed) |
//! | 6      | REJECT    | m → w     | [`rendezvous::Reject`] (reason)          |
//!
//! Every connection — from a spawned process, an in-process thread or an
//! operator-started `dim-worker --join` — is accepted by the same loop
//! ([`rendezvous::Rendezvous`]) and handshakes the same way (protocol v3):
//! the worker sends JOIN, whose first byte is the protocol version (any
//! other version is refused with REJECT before the rest is read), the
//! master registers it in a `rendezvous::MembershipTable` and answers
//! WELCOME (or REJECT with a typed reason), and the worker confirms with
//! HELLO carrying only the stream seed it derived from the WELCOME. The
//! master cross-checks that seed against
//! [`crate::stream_seed`]`(master_seed, id)`, which a wrong id or master
//! seed fails — the cross-process RNG contract is load-bearing for backend
//! equivalence, so a divergent worker is refused before it can compute
//! anything.
//!
//! An op round is pipelined: the master sends every machine its OP frame
//! first, then reads the ℓ REPLY frames — so worker processes genuinely
//! compute in parallel, and the round's compute cost is the *maximum*
//! worker-reported `elapsed_ns` (the paper's rule). The REPLY's elapsed
//! prefix lets the master separate worker compute from transfer time: the
//! wall clock of the send and of the receive-minus-compute land in
//! [`ClusterMetrics::measured_comm`] under the phase's labels, next to the
//! modeled [`ClusterMetrics::comm_time`].
//!
//! There is no dedicated shutdown frame: [`WorkerOp::Shutdown`] rides the
//! normal OP path (sent by `Drop`), and a master disconnect (EOF) is an
//! equally clean exit — workers log a line and exit 0 either way.
//!
//! # Failure semantics
//!
//! The op round is the only failure detector: a worker that dies shows up
//! in the first round that needs it. Worker state is resident in the
//! worker processes, so a dead link is *fatal to the round*, not a
//! degraded-measurement detail: an I/O error, a malformed or torn frame,
//! or no REPLY within the 60 s reply timeout marks the link dead, increments
//! [`ProcCluster::link_errors`], and surfaces as a typed
//! [`WireError`] (kind [`crate::WireErrorKind::Link`] for transport
//! failures, `Malformed` for protocol violations) which the algorithms
//! propagate to their callers — MPI's fail-stop model.
//!
//! # Addresses
//!
//! The master binds `127.0.0.1:0` by default; set `DIM_MASTER_BIND` (e.g.
//! `0.0.0.0:7070`) to accept workers from other hosts. Workers are told
//! where to connect via `--connect` (or the `DIM_WORKER_ADDR` environment
//! variable); [`ProcCluster::spawn`] passes its own bound address to the
//! children it launches.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::backend::ClusterBackend;
use crate::faults::{FaultInjector, LinkDecision};
use crate::metrics::{ClusterMetrics, PhaseTimeline};
use crate::network::NetworkModel;
use crate::ops::{OpCluster, OpExecutor, WorkerOp, WorkerReply};
use crate::rendezvous::{self, JoinConfig, JoinOptions, Reject, Rendezvous};
use crate::wire::{WireError, WireErrorKind};

pub use crate::wire::MAX_FRAME;
pub(crate) use crate::wire::{protocol_err, read_frame, write_frame};

/// Default seconds a handshake read or worker connect may block before the
/// link is declared dead ([`handshake_timeout`]).
const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Seconds the master waits for a REPLY — generous, because arbitrary
/// worker compute (RR sampling of a whole shard) happens between the OP
/// and its REPLY.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A positive whole-seconds duration from environment variable `name`;
/// unset, unparsable or zero reads as `None`. Every timeout knob of this
/// crate goes through here.
pub(crate) fn env_secs(name: &str) -> Option<Duration> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&secs| secs > 0)
        .map(Duration::from_secs)
}

/// The handshake/connect timeout: `DIM_HANDSHAKE_TIMEOUT_SECS` (whole
/// seconds) or 10 s. Bounds every pre-membership read — the
/// JOIN/WELCOME/HELLO exchanges — every worker connect attempt, and how
/// long a cluster that launches its own workers ([`ProcCluster::spawn`],
/// [`ProcCluster::local_with`]) waits for them to join.
pub fn handshake_timeout() -> Duration {
    env_secs("DIM_HANDSHAKE_TIMEOUT_SECS").unwrap_or(DEFAULT_HANDSHAKE_TIMEOUT)
}

/// Frame opcodes (see the module docs for the protocol table).
pub(crate) mod frame {
    pub const HELLO: u8 = 0;
    pub const OP: u8 = 1;
    pub const REPLY: u8 = 2;
    pub const JOIN: u8 = 3;
    pub const WELCOME: u8 = 4;
    pub const REJECT: u8 = 6;
}

/// How a served session ended, from the worker's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The master sent [`WorkerOp::Shutdown`]; the session is over but the
    /// master process may still be alive (`--join` workers re-register
    /// for the next session).
    Shutdown,
    /// The master hung up (EOF) without a shutdown op — equally clean.
    Disconnected,
}

/// Serves one session's op loop after a completed handshake: answers OP
/// frames and returns how the session ended — `Ok` on both clean ends
/// (shutdown op, master hang-up); any other opcode is an `InvalidData`
/// protocol error naming it. The op loop of every worker, reached through
/// [`rendezvous::run_join_worker`].
pub(crate) fn serve_session<E: OpExecutor>(
    mut stream: TcpStream,
    machine_id: u32,
    executor: &mut E,
) -> io::Result<SessionEnd> {
    // A master that hangs up mid-session is a *session end*, not a worker
    // fault — and it does not always look like a clean EOF. If the master
    // drops the cluster with bytes of ours still unread in its receive
    // buffer, the close arrives as an RST: the next read or write here
    // fails with ConnectionReset/BrokenPipe rather than UnexpectedEof. All
    // of those mean the same thing to a worker (especially a `--join` one,
    // which re-registers for the next session), so map the whole family to
    // `SessionEnd::Disconnected` and pass every other error through.
    let disconnected = |e: io::Error| match e.kind() {
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted => {
            eprintln!("dim-worker[{machine_id}]: master disconnected, exiting session");
            Ok(SessionEnd::Disconnected)
        }
        _ => Err(e),
    };
    loop {
        let (opcode, body) = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(e) => return disconnected(e),
        };
        match opcode {
            frame::OP => {}
            frame::REJECT => {
                let reason = Reject::decode(&body)
                    .map(|r| r.reason.describe())
                    .unwrap_or("unknown reason");
                return Err(protocol_err(&format!("master rejected session: {reason}")));
            }
            other => return Err(protocol_err(&format!("unexpected opcode {other}"))),
        }
        let Some(op) = WorkerOp::decode(&body) else {
            return Err(protocol_err("malformed op"));
        };
        if op == WorkerOp::Shutdown {
            let reply = [&0u64.to_le_bytes()[..], &WorkerReply::Ok.encode()].concat();
            let _ = write_frame(&mut stream, frame::REPLY, &reply);
            eprintln!("dim-worker[{machine_id}]: shutdown op received, ending session");
            return Ok(SessionEnd::Shutdown);
        }
        let start = Instant::now();
        let reply = executor.execute(&op);
        let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let body = [&elapsed.to_le_bytes()[..], &reply.encode()].concat();
        if let Err(e) = write_frame(&mut stream, frame::REPLY, &body) {
            return disconnected(e);
        }
    }
}

/// Master-side end of one worker link.
struct Link {
    stream: TcpStream,
    alive: bool,
}

/// A worker endpoint this master launched itself and therefore reaps.
enum Served {
    /// A spawned `dim-worker` OS process.
    Process(std::process::Child),
    /// An in-process thread serving one session.
    Thread(std::thread::JoinHandle<io::Result<()>>),
}

impl Served {
    /// Waits for the endpoint to finish, killing a process that is still
    /// running after `grace`.
    fn reap(self, grace: Duration) {
        match self {
            Served::Process(mut child) => {
                let deadline = Instant::now() + grace;
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            Served::Thread(handle) => {
                let _ = handle.join();
            }
        }
    }
}

/// A master/worker cluster of ℓ machines, each a separate endpoint over
/// TCP, driven through serialized [`WorkerOp`]s. The only TCP cluster
/// type: who *launched* the workers — this master as OS processes
/// ([`ProcCluster::spawn`]) or threads ([`ProcCluster::local_with`]), or
/// an operator ([`Rendezvous::accept_session`]) — is a fact about the
/// deployment, not about the cluster. The one difference is ownership:
/// workers the master launched are reaped on drop, operator-started ones
/// only see their session end and re-register for the next.
///
/// Worker state is *resident in the endpoints* — the master side carries no
/// shard data, only one link per machine.
/// Implements [`OpCluster`] with pipelined op rounds that populate
/// [`ClusterMetrics::measured_comm`] per phase from the real transfers.
pub struct ProcCluster {
    network: NetworkModel,
    timeline: PhaseTimeline,
    /// Rendezvous session this cluster was assembled for (1 for
    /// spawn/thread clusters, whose rendezvous lives exactly one session).
    session: u64,
    links: Vec<Link>,
    /// Workers this master launched (empty for operator-started ones).
    served: Vec<Served>,
    link_errors: u64,
    /// Socket-level fault injector (see [`crate::faults`]): the same
    /// [`FaultInjector`] schedule `SimCluster` interprets in virtual time,
    /// applied here for real — stalls become socket sleeps, kills become
    /// mid-frame connection teardown.
    chaos: Option<FaultInjector>,
}

/// The master's listening address: `DIM_MASTER_BIND` or loopback.
pub(crate) fn master_bind_addr() -> String {
    std::env::var("DIM_MASTER_BIND").unwrap_or_else(|_| "127.0.0.1:0".to_string())
}

impl ProcCluster {
    /// Spawns `count` `dim-worker` OS processes and admits them over TCP.
    ///
    /// The worker binary is located via the `DIM_WORKER_BIN` environment
    /// variable, falling back to a `dim-worker` next to (or one directory
    /// above) the current executable — which covers `cargo test`, whose
    /// test binaries live in `target/<profile>/deps` while bin targets
    /// land in `target/<profile>`. Errors if the binary cannot be found,
    /// a child fails to spawn, or the children have not all joined within
    /// [`handshake_timeout`]; there is no fallback to threads.
    pub fn spawn(count: usize, network: NetworkModel, master_seed: u64) -> io::Result<Self> {
        let bin = worker_binary()?;
        Self::launch(&master_bind_addr(), count, network, master_seed, |id, addr| {
            std::process::Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--machine-id")
                .arg(id.to_string())
                .stdin(std::process::Stdio::null())
                .spawn()
                .map(Served::Process)
        })
    }

    /// Builds a cluster whose machines are in-process threads serving the
    /// identical frame protocol over real loopback sockets, each running
    /// the executor `factory(machine_id)` produces.
    ///
    /// This is the test seam and the benchmark's cluster; everything except
    /// the process boundary (rendezvous, handshake, framing, op dispatch,
    /// measured transfers) is exercised the same way.
    pub fn local_with<E, F>(
        count: usize,
        network: NetworkModel,
        master_seed: u64,
        factory: F,
    ) -> io::Result<Self>
    where
        E: OpExecutor + Send + 'static,
        F: Fn(usize) -> E,
    {
        Self::launch("127.0.0.1:0", count, network, master_seed, |id, addr| {
            let executor = factory(id);
            let opts = JoinOptions {
                requested: Some(id as u32),
                deadline: Some(handshake_timeout()),
            };
            Ok(Served::Thread(std::thread::spawn(move || {
                rendezvous::run_join_worker(&addr.to_string(), &opts, |_| executor).map(|_| ())
            })))
        })
    }

    /// The one way a master launches its own workers: bind a
    /// [`Rendezvous`] on `bind`, start `count` endpoints that join it
    /// pinned to their machine id (`start(id, bound_addr)`), assemble one
    /// session through the loop [`Rendezvous::accept_session`] uses, and
    /// adopt the endpoints. The children were launched against this
    /// listener only, so it closes with the session either way; on failure
    /// every endpoint already started is reaped before the error returns.
    fn launch(
        bind: &str,
        count: usize,
        network: NetworkModel,
        master_seed: u64,
        mut start: impl FnMut(usize, SocketAddr) -> io::Result<Served>,
    ) -> io::Result<Self> {
        let config = JoinConfig {
            expected: count,
            join_timeout: handshake_timeout(),
        };
        let mut rendezvous = Rendezvous::bind(bind, config)?;
        let addr = rendezvous.local_addr()?;
        let mut served = Vec::with_capacity(count);
        let assembled = (0..count)
            .try_for_each(|id| start(id, addr).map(|endpoint| served.push(endpoint)))
            .and_then(|()| rendezvous.assemble(network, master_seed));
        drop(rendezvous);
        match assembled {
            Ok(mut cluster) => {
                cluster.served = served;
                Ok(cluster)
            }
            Err(e) => {
                served.into_iter().for_each(|endpoint| endpoint.reap(Duration::ZERO));
                Err(e)
            }
        }
    }

    /// Builds a cluster from fully handshaked streams in machine order;
    /// it owns the links and, until [`ProcCluster::launch`] hands it any,
    /// no worker endpoints.
    pub(crate) fn from_streams(
        streams: Vec<TcpStream>,
        network: NetworkModel,
        session: u64,
    ) -> io::Result<Self> {
        let count = streams.len();
        let mut links = Vec::with_capacity(count);
        for stream in streams {
            // Replaces the handshake's bounds: ops may compute for long, and
            // a multi-MB BuildShard write may block on the peer's reads.
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            stream.set_write_timeout(None)?;
            links.push(Link { stream, alive: true });
        }
        Ok(ProcCluster {
            network,
            timeline: PhaseTimeline::new(),
            session,
            links,
            served: Vec::new(),
            link_errors: 0,
            chaos: None,
        })
    }

    /// Arms (or clears) the socket-level chaos injector. Subsequent op
    /// rounds consult the injector per machine: `Healthy { delay }` sleeps
    /// `delay` before the OP frame goes out (a real write stall on the
    /// wire), `Killed` tears the connection down mid-frame — the worker
    /// sees a truncated frame then a reset, exactly like a crashed master,
    /// and the master's round surfaces a typed link error for that
    /// machine.
    pub fn set_chaos(&mut self, injector: Option<FaultInjector>) {
        self.chaos = injector;
    }

    /// The armed chaos injector, if any (its event log is the determinism
    /// observable).
    pub fn chaos_injector(&self) -> Option<&FaultInjector> {
        self.chaos.as_ref()
    }

    /// Mid-frame kill: ship a torn frame prefix (2 of the 4 length-header
    /// bytes) so the peer is mid-`read_exact` when the socket resets, then
    /// shut the connection down both ways.
    fn kill_link_mid_frame(&mut self, i: usize) {
        let _ = self.links[i].stream.write_all(&[0xAA, 0x55]);
        let _ = self.links[i].stream.flush();
        let _ = self.links[i].stream.shutdown(std::net::Shutdown::Both);
    }

    /// Number of link faults observed so far (dead links stay dead).
    pub fn link_errors(&self) -> u64 {
        self.link_errors
    }

    /// Number of links still alive.
    pub fn live_links(&self) -> usize {
        self.links.iter().filter(|l| l.alive).count()
    }

    /// OS process ids of the spawned worker processes (empty for thread-
    /// and operator-served clusters). Lets tests verify no orphans survive
    /// drop.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.served
            .iter()
            .filter_map(|s| match s {
                Served::Process(child) => Some(child.id()),
                Served::Thread(_) => None,
            })
            .collect()
    }

    /// The rendezvous session this cluster belongs to (counted from 1 per
    /// [`Rendezvous`]; always 1 when the master launched its own workers).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Marks link `i` dead and returns the typed error for `phase`.
    fn fail_link(&mut self, phase: &'static str, i: usize, kind: WireErrorKind) -> WireError {
        self.links[i].alive = false;
        self.link_errors += 1;
        WireError {
            phase,
            machine: Some(i),
            kind,
        }
    }
}

/// Locates the `dim-worker` binary (see [`ProcCluster::spawn`]).
fn worker_binary() -> io::Result<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("DIM_WORKER_BIN") {
        let path = std::path::PathBuf::from(path);
        if path.exists() {
            return Ok(path);
        }
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            "DIM_WORKER_BIN does not exist",
        ));
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no exe dir"))?
        .to_path_buf();
    for _ in 0..2 {
        let candidate = dir.join("dim-worker");
        if candidate.exists() {
            return Ok(candidate);
        }
        if !dir.pop() {
            break;
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "dim-worker binary not found (set DIM_WORKER_BIN)",
    ))
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        for link in &mut self.links {
            if link.alive {
                let _ = write_frame(&mut link.stream, frame::OP, &WorkerOp::Shutdown.encode());
            }
            let _ = link.stream.shutdown(std::net::Shutdown::Both);
        }
        // The Shutdown op (or the closed socket) ends the one session a
        // launched worker serves; give processes a moment, then make sure.
        for endpoint in self.served.drain(..) {
            endpoint.reap(Duration::from_secs(2));
        }
    }
}

impl ClusterBackend for ProcCluster {
    fn num_machines(&self) -> usize {
        self.links.len()
    }

    fn network(&self) -> NetworkModel {
        self.network
    }

    fn timeline(&self) -> &PhaseTimeline {
        &self.timeline
    }

    fn record(&mut self, label: &'static str, delta: ClusterMetrics) {
        self.timeline.record(label, delta);
    }
}

impl OpCluster for ProcCluster {
    /// One pipelined op round: send every machine its OP frame, then read
    /// the ℓ REPLY frames. Worker compute is the maximum of the
    /// worker-reported elapsed times (workers run concurrently);
    /// `measured_comm` records the send wall clock under `down_label`
    /// (falling back to `up_label`) and, under `up_label`, the slowest
    /// link's time from the start of its OP write to its REPLY read, minus
    /// that worker's own elapsed time.
    ///
    /// Every live link gets its OP and is read back even when another
    /// link fails mid-round — the seam speculative recovery needs (one
    /// dead machine must not discard the survivors' replies, which would
    /// leave their sockets desynchronized for the rebuild rounds that
    /// follow).
    fn exec_ops_each<F>(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Vec<Result<WorkerReply, WireError>>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        let l = self.links.len();
        let mut out: Vec<Option<Result<WorkerReply, WireError>>> = (0..l).map(|_| None).collect();

        // Socket-level chaos: fix this round's decisions up front (the
        // injector is round-ordered, matching SimCluster's interpretation
        // of the same plan).
        let decisions: Option<Vec<LinkDecision>> = self.chaos.as_mut().map(|inj| {
            let d = (0..l).map(|i| inj.decide(i)).collect();
            inj.next_round();
            d
        });

        let send_start = Instant::now();
        let mut sent_at = vec![send_start; l];
        for i in 0..l {
            if !self.links[i].alive {
                out[i] = Some(Err(WireError::link(up_label, i)));
                continue;
            }
            if let Some(ds) = &decisions {
                match ds[i] {
                    LinkDecision::Killed => {
                        self.kill_link_mid_frame(i);
                        out[i] = Some(Err(self.fail_link(up_label, i, WireErrorKind::Link)));
                        continue;
                    }
                    LinkDecision::Healthy { delay } if delay > Duration::ZERO => {
                        // Write stall: the injected delay really elapses
                        // on the socket before this OP frame goes out.
                        std::thread::sleep(delay);
                    }
                    LinkDecision::Healthy { .. } => {}
                }
            }
            let encoded = op(i).encode();
            // The worker cannot start before its OP write does, so this
            // link's window holds its whole compute.
            sent_at[i] = Instant::now();
            if write_frame(&mut self.links[i].stream, frame::OP, &encoded).is_err() {
                out[i] = Some(Err(self.fail_link(up_label, i, WireErrorKind::Link)));
            }
        }
        let send_wall = send_start.elapsed();

        let mut recv_comm = Duration::ZERO;
        let mut max_elapsed = Duration::ZERO;
        let mut sum_elapsed = Duration::ZERO;
        for (i, slot) in out.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            // One read under the link's REPLY_TIMEOUT: an I/O error, EOF or
            // timeout is the dead worker's fail-stop.
            let Ok((opcode, body)) = read_frame(&mut self.links[i].stream) else {
                *slot = Some(Err(self.fail_link(up_label, i, WireErrorKind::Link)));
                continue;
            };
            if opcode != frame::REPLY {
                *slot = Some(Err(self.fail_link(up_label, i, WireErrorKind::Malformed)));
                continue;
            }
            // A REPLY body shorter than its 8-byte elapsed-time prefix is
            // a *truncation*, typed as such; this guards the `[..8]` below.
            if body.len() < 8 {
                *slot = Some(Err(self.fail_link(up_label, i, WireErrorKind::Truncated)));
                continue;
            }
            let elapsed = Duration::from_nanos(u64::from_le_bytes(body[..8].try_into().unwrap()));
            let Some(reply) = WorkerReply::decode(&body[8..]) else {
                *slot = Some(Err(self.fail_link(up_label, i, WireErrorKind::Malformed)));
                continue;
            };
            recv_comm = recv_comm.max(sent_at[i].elapsed().saturating_sub(elapsed));
            *slot = Some(match reply {
                // A worker-side refusal, in its words: the link is healthy.
                WorkerReply::Err(text) => Err(WireError::refused(up_label, i, text)),
                reply => {
                    max_elapsed = max_elapsed.max(elapsed);
                    sum_elapsed += elapsed;
                    Ok(reply)
                }
            });
        }

        self.record(
            up_label,
            ClusterMetrics {
                worker_compute: max_elapsed,
                worker_busy: sum_elapsed,
                phases: 1,
                ..Default::default()
            },
        );
        self.record(
            down_label.unwrap_or(up_label),
            ClusterMetrics {
                measured_comm: send_wall,
                ..Default::default()
            },
        );
        self.record(
            up_label,
            ClusterMetrics {
                measured_comm: recv_comm,
                ..Default::default()
            },
        );
        out.into_iter()
            .map(|r| r.expect("every machine resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::{JoinHello, MembershipTable};
    use crate::backend::phase;
    use crate::ops::{expect_counts, expect_ok};
    use crate::runtime::{ExecMode, SimCluster};
    use crate::wire::WireErrorKind;

    /// Toy resident state: `SampleRr` accumulates, `CoveredCount` reports,
    /// `ApplySeed` subtracts its seed, `InitialCoverage` reports one tuple.
    struct Tally(u64);

    impl OpExecutor for Tally {
        fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
            match op {
                WorkerOp::SampleRr { count } => {
                    self.0 += count;
                    WorkerReply::Ok
                }
                WorkerOp::ApplySeed { seed, candidates } => {
                    self.0 = self.0.saturating_sub(u64::from(seed.unwrap_or(0)));
                    WorkerReply::Marginals(vec![self.0 as u32; candidates.len()])
                }
                WorkerOp::InitialCoverage => WorkerReply::Deltas(vec![(1, self.0 as u32)]),
                WorkerOp::CoveredCount => WorkerReply::Count(self.0),
                _ => WorkerReply::Err("unsupported".into()),
            }
        }
    }

    #[test]
    fn op_rounds_reach_resident_state() {
        let mut cluster = ProcCluster::local_with(3, NetworkModel::cluster_1gbps(), 7, |i| {
            Tally(i as u64 * 100)
        })
        .unwrap();
        let acks = cluster
            .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                count: i as u64 + 1,
            })
            .unwrap();
        expect_ok(&acks, phase::RR_SAMPLING).unwrap();
        let counts = cluster
            .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap();
        assert_eq!(
            expect_counts(&counts, phase::COUNT_UPLOAD).unwrap(),
            vec![1, 102, 203]
        );
        let m = cluster.timeline().get(phase::COUNT_UPLOAD);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes_to_master, 24);
        // The round physically crossed the sockets.
        assert!(m.measured_comm > Duration::ZERO);
        assert_eq!(cluster.link_errors(), 0);
    }

    #[test]
    fn broadcast_gather_measured_and_modeled() {
        let mut cluster =
            ProcCluster::local_with(2, NetworkModel::cluster_1gbps(), 1, |_| Tally(50)).unwrap();
        let replies = cluster
            .op_broadcast_gather(phase::SEED_BROADCAST, 8, phase::DELTA_UPLOAD, |_| {
                WorkerOp::ApplySeed {
                    seed: Some(5),
                    candidates: vec![1],
                }
            })
            .unwrap();
        assert_eq!(replies.len(), 2);
        let down = cluster.timeline().get(phase::SEED_BROADCAST);
        let up = cluster.timeline().get(phase::DELTA_UPLOAD);
        assert_eq!(down.bytes_from_master, 16);
        assert!(down.comm_time > Duration::ZERO);
        assert!(down.measured_comm > Duration::ZERO);
        assert_eq!(replies[0], WorkerReply::Marginals(vec![45]));
        assert_eq!(up.bytes_to_master, 2 * crate::wire::ids_wire_size(1));
        assert!(up.measured_comm > Duration::ZERO);
        // Label order mirrors the algorithm: broadcast before upload.
        let labels: Vec<_> = cluster.timeline().labels().collect();
        assert_eq!(labels, vec![phase::SEED_BROADCAST, phase::DELTA_UPLOAD]);
    }

    /// Runs the same two op rounds and one master step through any
    /// [`OpCluster`]; used to show sim and proc backends agree on results
    /// and modeled metrics.
    fn sample_then_count<B: OpCluster>(cluster: &mut B) -> Vec<WorkerReply> {
        cluster
            .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                count: 10 * (i as u64 + 1),
            })
            .unwrap();
        let counts = cluster
            .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap();
        let total: u64 = cluster.master(phase::SEED_SELECT, || {
            expect_counts(&counts, phase::COUNT_UPLOAD)
                .unwrap()
                .iter()
                .sum()
        });
        assert_eq!(total, 30);
        counts
    }

    #[test]
    fn same_ops_same_results_and_modeled_metrics_as_sim() {
        let mut sim = SimCluster::new(
            vec![Tally(0), Tally(0)],
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let sim_counts = sample_then_count(&mut sim);
        let mut proc =
            ProcCluster::local_with(2, NetworkModel::cluster_1gbps(), 99, |_| Tally(0)).unwrap();
        let proc_counts = sample_then_count(&mut proc);
        assert_eq!(sim_counts, proc_counts);
        let ms = sim.timeline().get(phase::COUNT_UPLOAD);
        let mp = proc.timeline().get(phase::COUNT_UPLOAD);
        // Identical modeled traffic and pricing; only measured differs.
        assert_eq!(ms.messages, mp.messages);
        assert_eq!(ms.bytes_to_master, mp.bytes_to_master);
        assert_eq!(ms.comm_time, mp.comm_time);
        assert_eq!(ms.measured_comm, Duration::ZERO);
        assert!(mp.measured_comm > Duration::ZERO);
        // The provided `master` records under its label — master compute
        // and nothing else — on both backends.
        for tl in [sim.timeline(), proc.timeline()] {
            assert!(tl.labels().any(|l| l == phase::SEED_SELECT));
            let m = tl.get(phase::SEED_SELECT);
            assert_eq!(
                m,
                ClusterMetrics {
                    master_compute: m.master_compute,
                    ..Default::default()
                }
            );
        }
    }

    #[test]
    fn large_frames_roundtrip() {
        // A multi-megabyte reply exercises framing well past one packet.
        struct Big;
        impl OpExecutor for Big {
            fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
                match op {
                    WorkerOp::InitialCoverage => {
                        WorkerReply::Deltas((0..500_000u32).map(|v| (v, 1)).collect())
                    }
                    _ => WorkerReply::Err("unsupported".into()),
                }
            }
        }
        let mut cluster = ProcCluster::local_with(2, NetworkModel::zero(), 5, |_| Big).unwrap();
        let replies = cluster
            .op_gather(phase::COVERAGE_UPLOAD, |_| WorkerOp::InitialCoverage)
            .unwrap();
        for reply in &replies {
            match reply {
                WorkerReply::Deltas(d) => assert_eq!(d.len(), 500_000),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(cluster.link_errors(), 0);
        assert_eq!(
            cluster.metrics().bytes_to_master,
            2 * crate::wire::delta_wire_size(500_000)
        );
    }

    /// `count` loopback workers on threads serving `Tally(tally(i))`,
    /// but for machine `bad`: a hostile worker on a raw socket that
    /// answers its first `good` ops as its tally would, then declares a
    /// 64-byte REPLY, delivers 3 bytes of it and vanishes.
    fn with_truncating_worker(
        count: usize,
        bad: usize,
        good: usize,
        tally: fn(usize) -> u64,
    ) -> ProcCluster {
        ProcCluster::launch("127.0.0.1:0", count, NetworkModel::zero(), 3, |id, addr| {
            let mut executor = Tally(tally(id));
            let opts = JoinOptions {
                requested: Some(id as u32),
                deadline: Some(handshake_timeout()),
            };
            Ok(Served::Thread(std::thread::spawn(move || {
                if id != bad {
                    let session =
                        rendezvous::run_join_worker(&addr.to_string(), &opts, |_| executor);
                    return session.map(|_| ());
                }
                let mut s = TcpStream::connect(addr)?;
                rendezvous::join_handshake(&mut s, JoinHello::new(opts.requested))
                    .map_err(|e| e.into_io())?;
                for _ in 0..good {
                    let (_, body) = read_frame(&mut s)?;
                    let reply = executor.execute(&WorkerOp::decode(&body).expect("an op"));
                    let body = [&0u64.to_le_bytes()[..], &reply.encode()].concat();
                    write_frame(&mut s, frame::REPLY, &body)?;
                }
                read_frame(&mut s)?;
                s.write_all(&64u32.to_le_bytes())?;
                s.write_all(&[frame::REPLY, 0xde, 0xad])
            })))
        })
        .unwrap()
    }

    #[test]
    fn truncated_reply_fails_round_with_typed_error() {
        // Machine 1 truncates its second reply. Worker state is resident, so
        // the round must fail with a typed error naming the machine — not
        // silently degrade like the old placeholder-payload path.
        let mut cluster = with_truncating_worker(2, 1, 1, |_| 9);
        // The first round completes on both links.
        let replies = cluster
            .control(phase::RR_SAMPLING, |_| WorkerOp::SampleRr { count: 5 })
            .unwrap();
        assert_eq!(replies, vec![WorkerReply::Ok, WorkerReply::Ok]);
        let err = cluster
            .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap_err();
        assert_eq!(err.phase, phase::COUNT_UPLOAD);
        assert_eq!(err.machine, Some(1));
        assert!(
            matches!(err.kind, WireErrorKind::Link | WireErrorKind::Malformed),
            "{err:?}"
        );
        assert_eq!(cluster.link_errors(), 1);
        assert_eq!(cluster.live_links(), 1);
        // Later rounds, under any label, refuse to run without the dead
        // machine's state — a typed link error, not a partial answer.
        let err = cluster
            .op_gather(phase::DELTA_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Link);
        assert_eq!(err.machine, Some(1));
        assert_eq!(cluster.link_errors(), 1, "no new faults after the first");
    }

    #[test]
    fn worker_error_reply_is_typed_not_fatal_to_link() {
        let mut cluster =
            ProcCluster::local_with(2, NetworkModel::zero(), 4, |_| Tally(0)).unwrap();
        let err = cluster
            .control(phase::VALIDATION, |_| WorkerOp::Stats)
            .unwrap_err();
        assert_eq!(err.phase, phase::VALIDATION);
        assert_eq!(err.machine, Some(0));
        assert_eq!(err.kind, WireErrorKind::Refused("unsupported".into()));
    }

    #[test]
    fn rejects_seed_mismatch_in_handshake() {
        // A worker whose confirming HELLO advertises the wrong stream seed
        // is refused at the handshake: the cross-process RNG contract is
        // load-bearing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bogus = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            write_frame(&mut s, frame::JOIN, &JoinHello::new(Some(0)).encode()).unwrap();
            let (opcode, body) = read_frame(&mut s).unwrap();
            assert_eq!(opcode, frame::WELCOME);
            let welcome = rendezvous::Welcome::decode(&body).unwrap();
            assert_eq!(welcome.machine_id, 0);
            let hello = rendezvous::Hello {
                stream_seed: 0xbad_5eed, // anything but the derived seed
            };
            let _ = write_frame(&mut s, frame::HELLO, &hello.encode());
            // Hold the socket open until the master decides; the REJECT
            // frame tells this worker why it was refused.
            if let Ok((opcode, body)) = read_frame(&mut s) {
                assert_eq!(opcode, frame::REJECT);
                assert_eq!(
                    Reject::decode(&body).unwrap().reason,
                    rendezvous::RejectReason::SeedMismatch
                );
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut table = MembershipTable::new(1);
        let deadline = Instant::now() + handshake_timeout();
        let err = rendezvous::master_handshake(&mut stream, &mut table, 1, 1, None, deadline)
            .expect_err("seed mismatch accepted");
        assert!(err.to_string().contains("seed mismatch"), "{err}");
        // The refused worker's slot is free again for a replacement.
        assert_eq!(table.joined(), 0);
        bogus.join().unwrap();
    }

    #[test]
    fn short_reply_body_is_typed_truncated() {
        // A hostile worker answers its OP with a REPLY whose body is
        // shorter than the 8-byte elapsed-time prefix. The old decode path
        // folded this into generic malformed; it must surface as a typed
        // truncation naming the machine — and never panic.
        let mut rendezvous = Rendezvous::bind("127.0.0.1:0", JoinConfig::new(1)).unwrap();
        let addr = rendezvous.local_addr().unwrap();
        let hostile = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            rendezvous::join_handshake(&mut s, JoinHello::new(Some(0))).unwrap();
            let (opcode, _) = read_frame(&mut s).unwrap();
            assert_eq!(opcode, frame::OP);
            write_frame(&mut s, frame::REPLY, &[0xde, 0xad, 0xbe]).unwrap();
            // Hold the socket until the master tears it down.
            let _ = read_frame(&mut s);
        });
        let mut cluster = rendezvous.accept_session(NetworkModel::zero(), 7).unwrap();
        let err = cluster
            .control(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Truncated);
        assert_eq!(err.machine, Some(0));
        assert_eq!(cluster.link_errors(), 1);
        assert_eq!(cluster.live_links(), 0);
        drop(cluster);
        let _ = hostile.join();
    }

    #[test]
    fn exec_ops_each_keeps_survivor_replies_past_a_dead_link() {
        // Machine 0 truncates its reply mid-round; the partial-failure
        // primitive must still deliver machine 1's and 2's replies and
        // keep their sockets consistent for the next round.
        let mut cluster = with_truncating_worker(3, 0, 0, |i| i as u64 + 1);
        let replies =
            cluster.exec_ops_each(None, phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        assert!(replies[0].is_err());
        assert_eq!(replies[1], Ok(WorkerReply::Count(2)));
        assert_eq!(replies[2], Ok(WorkerReply::Count(3)));
        assert_eq!(cluster.live_links(), 2);
        // Survivors answer the next round normally.
        let again = cluster.exec_ops_each(None, phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        assert_eq!(again[0].as_ref().unwrap_err().kind, WireErrorKind::Link);
        assert_eq!(again[1], Ok(WorkerReply::Count(2)));
        assert_eq!(again[2], Ok(WorkerReply::Count(3)));
    }

    #[test]
    fn chaos_kill_tears_link_mid_frame_and_types_the_error() {
        use crate::faults::{FaultInjector, FaultPlan};
        let mut cluster =
            ProcCluster::local_with(2, NetworkModel::zero(), 13, |i| Tally(10 + i as u64))
                .unwrap();
        // Round 0 healthy, machine 1 dies at round 1.
        cluster.set_chaos(Some(FaultInjector::new(FaultPlan::kill_machine(1, 1), 2)));
        let first = cluster.exec_ops_each(None, phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        assert_eq!(first[0], Ok(WorkerReply::Count(10)));
        assert_eq!(first[1], Ok(WorkerReply::Count(11)));
        let second =
            cluster.exec_ops_each(None, phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        assert_eq!(second[0], Ok(WorkerReply::Count(10)));
        assert_eq!(second[1].as_ref().unwrap_err().kind, WireErrorKind::Link);
        assert_eq!(cluster.live_links(), 1);
        let events = cluster.chaos_injector().unwrap().events().to_vec();
        assert!(events
            .iter()
            .any(|e| e.kind == crate::faults::FaultEventKind::Kill && e.machine == 1));
        // The torn-down worker thread exits as a clean disconnect — drop
        // joins it; a hang here fails the test by timeout.
        drop(cluster);
    }

    #[test]
    fn unassigned_opcode_ends_the_session_with_a_typed_error() {
        // Opcode 5 (retired, once a liveness probe) and 0xFF are assigned
        // to nothing: the worker ends the session with `InvalidData`
        // naming the opcode, and never runs the valid op in the body.
        for opcode in [5u8, 0xFF] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let mut master = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (worker, _) = listener.accept().unwrap();
            let session = std::thread::spawn(move || {
                let mut tally = Tally(0);
                (serve_session(worker, 0, &mut tally), tally.0)
            });
            let op = WorkerOp::SampleRr { count: 1 }.encode();
            write_frame(&mut master, opcode, &op).unwrap();
            let (result, sampled) = session.join().unwrap();
            assert_eq!(sampled, 0, "opcode {opcode}: the executor ran");
            let err = result.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "opcode {opcode}");
            let expected = format!("unexpected opcode {opcode}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
    }

    #[test]
    fn drop_shuts_workers_down_cleanly() {
        let cluster =
            ProcCluster::local_with(3, NetworkModel::zero(), 11, |_| Tally(0)).unwrap();
        // Dropping sends the Shutdown op and joins the threads; a hang here
        // would fail the test by timeout.
        drop(cluster);
    }
}
