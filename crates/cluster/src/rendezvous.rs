//! Cluster rendezvous & membership: the one way a TCP cluster is assembled.
//!
//! However a worker was *launched* — `fork/exec`ed by the master
//! ([`ProcCluster::spawn`]), started as a thread
//! ([`ProcCluster::local_with`]), or started by an operator as
//! `dim-worker --connect <addr> --join` on another host before the master
//! even exists — it is *admitted* the same way: it connects to a
//! [`Rendezvous`], registers, and serves the session it was welcomed into.
//! This module provides that front door:
//!
//! * **Codecs** for the v3 handshake frames ([`JoinHello`], [`Welcome`],
//!   [`Hello`], [`Reject`]) — fixed-size, little-endian, strict (trailing
//!   bytes are rejected). The JOIN leads with the protocol-version byte,
//!   so a worker of another version is refused with a typed reason
//!   instead of desyncing. Each frame carries only what its receiver does
//!   not already hold.
//! * A `MembershipTable` — the pure registration state machine. It
//!   assigns machine-id slots, refuses duplicates and out-of-range
//!   requests with typed [`RejectReason`]s (surfaced as
//!   [`WireError`]s of kind `DuplicateId` / `IdOutOfRange`), and frees a
//!   slot again if its owner dies before the session completes assembly.
//! * [`Rendezvous`] — the master side: bind an advertised address
//!   ([`tcp_cluster`] reads it from `DIM_MASTER_BIND`), then
//!   [`Rendezvous::accept_session`] registers joiners until the expected
//!   cluster size ℓ is reached (or the join deadline expires), yielding a
//!   [`ProcCluster`]. Rejected joiners are logged and do not abort the
//!   assembly. The bind→full-membership latency is recorded under
//!   [`phase::RENDEZVOUS`] in the cluster's
//!   [`PhaseTimeline`](crate::PhaseTimeline). A cluster assembled from
//!   operator-started workers owns the links but **not** the worker
//!   processes: drop ends the *session* (workers go back to joining).
//! * The worker side: [`run_join_worker`] connects, retrying with jittered
//!   exponential backoff ([`Backoff`]) until a configurable deadline, and
//!   serves one full session — the only worker-side
//!   session entry point. `dim-worker --join` loops it, so a restarted (or
//!   merely surviving) worker re-registers for the *next* run against the
//!   same master process; without `--join` (what `spawn` launches) it runs
//!   once.
//!
//! # Sessions
//!
//! A session is one cluster lifetime: one `accept_session` call on the
//! master, one served op loop per worker. Session ids are
//! per-[`Rendezvous`] counters starting at 1 and ride in every
//! WELCOME, so a worker that lags a session behind cannot be confused for
//! a current member. Machine ids are *per session* — a
//! worker that requested "any slot" may get a different id next session,
//! and its WELCOME tells it which RNG stream to derive.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::backend::{phase, ClusterBackend};
use crate::backoff::Backoff;
use crate::metrics::ClusterMetrics;
use crate::network::NetworkModel;
use crate::ops::{put_u32, put_u64, OpExecutor, Reader};
use crate::rng::stream_seed;
use crate::tcp::{
    self, env_secs, frame, handshake_timeout, protocol_err, read_frame, write_frame, ProcCluster,
    SessionEnd,
};
use crate::wire::WireError;

/// Version byte that leads every JOIN. Version 1 was the implicit
/// pre-rendezvous handshake (bare HELLO, no version byte); v2 carried a
/// capability byte in JOIN and HELLO and echoed the version and machine id
/// in HELLO; v3 is the exchange this module implements. The master refuses
/// a JOIN led by any other byte with [`RejectReason::Version`] before it
/// reads the rest.
pub const PROTOCOL_VERSION: u8 = 3;

/// Wire value of "any free slot" in [`JoinHello::requested`].
const ANY_SLOT: u32 = u32::MAX;

/// First frame of the v3 handshake, worker → master (opcode JOIN):
/// `[u8 version] [u32 requested] [auth; 32]`, the version always
/// [`PROTOCOL_VERSION`].
///
/// `requested` pins a specific machine id (workers the master launched
/// request the id they were launched with; operators can pin via
/// `--machine-id`); `None` asks for any free slot. `auth` is the SHA-256 digest of the cluster
/// token (`DIM_CLUSTER_TOKEN`), all-zeros when no token is configured —
/// an auth-requiring master refuses the zero digest like any other
/// mismatch ([`RejectReason::Unauthorized`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinHello {
    /// Requested machine id, or `None` for any free slot.
    pub requested: Option<u32>,
    /// SHA-256 digest of the cluster token; all-zeros when tokenless.
    pub auth: crate::auth::Digest,
}

impl JoinHello {
    /// A join asking for `requested`, presenting the `DIM_CLUSTER_TOKEN`
    /// digest when that variable is set.
    pub fn new(requested: Option<u32>) -> Self {
        JoinHello {
            requested,
            auth: crate::auth::cluster_token_digest().unwrap_or([0; crate::auth::DIGEST_LEN]),
        }
    }

    /// Serializes to the 37-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + crate::auth::DIGEST_LEN);
        out.push(PROTOCOL_VERSION);
        put_u32(&mut out, self.requested.unwrap_or(ANY_SLOT));
        out.extend_from_slice(&self.auth);
        out
    }

    /// Strict decode; `None` on another version, truncation, trailing
    /// bytes, or garbage.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        if r.u8()? != PROTOCOL_VERSION {
            return None;
        }
        let requested = match r.u32()? {
            ANY_SLOT => None,
            id => Some(id),
        };
        let mut auth = [0u8; crate::auth::DIGEST_LEN];
        auth.copy_from_slice(r.take(crate::auth::DIGEST_LEN)?);
        r.finish()?;
        Some(JoinHello { requested, auth })
    }
}

/// Master's acceptance, master → worker (opcode WELCOME).
///
/// Tells the worker everything it needs to be a member: which session it
/// joined, which machine-id slot it holds, the cluster size ℓ, and the
/// master seed from which it must derive its RNG stream
/// ([`stream_seed`]`(master_seed, machine_id)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Welcome {
    /// Session this membership is valid for.
    pub session: u64,
    /// The slot the worker was assigned.
    pub machine_id: u32,
    /// Expected cluster size ℓ of the session.
    pub cluster_size: u32,
    /// Seed all per-machine streams derive from.
    pub master_seed: u64,
}

impl Welcome {
    /// Serializes to the 24-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        put_u64(&mut out, self.session);
        put_u32(&mut out, self.machine_id);
        put_u32(&mut out, self.cluster_size);
        put_u64(&mut out, self.master_seed);
        out
    }

    /// Strict decode; `None` on truncation, trailing bytes, or garbage.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let welcome = Welcome {
            session: r.u64()?,
            machine_id: r.u32()?,
            cluster_size: r.u32()?,
            master_seed: r.u64()?,
        };
        r.finish()?;
        Some(welcome)
    }
}

/// Final frame of the handshake, worker → master (opcode HELLO): the
/// stream seed the worker derived from its WELCOME, `[u64 stream_seed]`.
///
/// The master cross-checks it against [`stream_seed`]`(master_seed, id)`,
/// which differs for a wrong id or master seed — the cross-process RNG
/// contract is load-bearing for backend equivalence, so a divergent worker
/// is refused ([`RejectReason::SeedMismatch`]) before it can compute
/// anything. The version was settled by the JOIN on the same connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The RNG stream seed the worker derived.
    pub stream_seed: u64,
}

impl Hello {
    /// Serializes to the 8-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        self.stream_seed.to_le_bytes().to_vec()
    }

    /// Strict decode; `None` on truncation or trailing bytes.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let stream_seed = r.u64()?;
        r.finish()?;
        Some(Hello { stream_seed })
    }
}

/// Why the master refused a registration (body of a REJECT frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The JOIN's protocol version is not [`PROTOCOL_VERSION`].
    Version,
    /// The requested machine id is ≥ the session's cluster size ℓ.
    OutOfRange,
    /// Another live worker already holds the requested machine id.
    Duplicate,
    /// Every slot of the session is taken. Retryable: the *next* session
    /// may have room (or need this worker again).
    SessionFull,
    /// The HELLO's stream seed does not match
    /// [`stream_seed`]`(master_seed, machine_id)`.
    SeedMismatch,
    /// The master requires a cluster token (`DIM_CLUSTER_TOKEN`) and the
    /// JOIN's auth digest did not match it.
    Unauthorized,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::Version => 1,
            RejectReason::OutOfRange => 2,
            RejectReason::Duplicate => 3,
            RejectReason::SessionFull => 4,
            RejectReason::SeedMismatch => 5,
            RejectReason::Unauthorized => 6,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => RejectReason::Version,
            2 => RejectReason::OutOfRange,
            3 => RejectReason::Duplicate,
            4 => RejectReason::SessionFull,
            5 => RejectReason::SeedMismatch,
            6 => RejectReason::Unauthorized,
            _ => return None,
        })
    }

    /// Human-readable reason, used in worker-side error messages.
    pub fn describe(self) -> &'static str {
        match self {
            RejectReason::Version => "unsupported protocol version",
            RejectReason::OutOfRange => "requested machine id out of range",
            RejectReason::Duplicate => "requested machine id already registered",
            RejectReason::SessionFull => "session membership already full",
            RejectReason::SeedMismatch => "stream seed mismatch",
            RejectReason::Unauthorized => "cluster token mismatch (set DIM_CLUSTER_TOKEN)",
        }
    }

    /// Whether a rejected worker should keep retrying. Only
    /// [`RejectReason::SessionFull`] is transient — everything else means
    /// this worker, as configured, can never join this master.
    pub(crate) fn retryable(self) -> bool {
        matches!(self, RejectReason::SessionFull)
    }

    /// The typed [`WireError`] this reason surfaces as on the master,
    /// attributed to `requested` where a machine id is meaningful.
    pub(crate) fn wire_error(self, requested: Option<u32>) -> WireError {
        let machine = requested.map(|id| id as usize);
        match self {
            RejectReason::Duplicate => {
                WireError::duplicate_id(phase::RENDEZVOUS, machine.unwrap_or(0))
            }
            RejectReason::OutOfRange => {
                WireError::id_out_of_range(phase::RENDEZVOUS, machine.unwrap_or(0))
            }
            RejectReason::SessionFull => WireError::session_full(phase::RENDEZVOUS),
            RejectReason::Version | RejectReason::SeedMismatch | RejectReason::Unauthorized => {
                WireError {
                    phase: phase::RENDEZVOUS,
                    machine,
                    kind: crate::wire::WireErrorKind::Malformed,
                }
            }
        }
    }
}

/// Master's refusal, master → worker (opcode REJECT).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reject {
    /// Why the registration was refused.
    pub reason: RejectReason,
}

impl Reject {
    /// Serializes to the 1-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        vec![self.reason.code()]
    }

    /// Strict decode; `None` on truncation, trailing bytes, or an unknown
    /// reason code.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let reason = RejectReason::from_code(r.u8()?)?;
        r.finish()?;
        Some(Reject { reason })
    }
}

/// The registration state machine for one session: which of the ℓ
/// machine-id slots are taken.
///
/// Pure state — no sockets — so registration policy (duplicates,
/// out-of-range ids, fullness, any-slot assignment) is testable without a
/// network. Every session a [`Rendezvous`] assembles drives its
/// handshakes through one of these.
#[derive(Clone, Debug)]
pub(crate) struct MembershipTable {
    taken: Vec<bool>,
}

impl MembershipTable {
    /// An empty table with `expected` slots (the session's ℓ).
    pub fn new(expected: usize) -> Self {
        assert!(expected > 0, "cluster needs at least one machine");
        MembershipTable {
            taken: vec![false; expected],
        }
    }

    /// The session's expected cluster size ℓ.
    pub fn expected(&self) -> usize {
        self.taken.len()
    }

    /// How many slots are currently registered.
    pub fn joined(&self) -> usize {
        self.taken.iter().filter(|&&t| t).count()
    }

    /// Whether every slot is registered (membership complete).
    pub fn is_full(&self) -> bool {
        self.taken.iter().all(|&t| t)
    }

    /// Registers a joiner that requested `requested`, returning its
    /// assigned machine id.
    ///
    /// A specific request gets exactly that slot or a typed refusal
    /// ([`RejectReason::OutOfRange`], [`RejectReason::Duplicate`]); an
    /// any-slot request gets the lowest free slot or
    /// [`RejectReason::SessionFull`].
    pub fn register(&mut self, requested: Option<u32>) -> Result<u32, RejectReason> {
        match requested {
            Some(id) => {
                let slot = self
                    .taken
                    .get_mut(id as usize)
                    .ok_or(RejectReason::OutOfRange)?;
                if *slot {
                    return Err(RejectReason::Duplicate);
                }
                *slot = true;
                Ok(id)
            }
            None => {
                let id = self
                    .taken
                    .iter()
                    .position(|&t| !t)
                    .ok_or(RejectReason::SessionFull)?;
                self.taken[id] = true;
                Ok(id as u32)
            }
        }
    }

    /// Frees a slot whose owner failed after WELCOME but before the
    /// session completed assembly, so a replacement can register.
    pub fn release(&mut self, id: u32) {
        if let Some(slot) = self.taken.get_mut(id as usize) {
            *slot = false;
        }
    }
}

/// What went wrong during a handshake.
#[derive(Debug)]
pub(crate) enum HandshakeError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// Protocol violation, typed per [`WireError`] (master side).
    Wire(WireError),
    /// The master sent REJECT (worker side).
    Rejected(RejectReason),
}

impl HandshakeError {
    /// Whether a join-mode worker should back off and retry. Transport
    /// failures are transient (the master may not be up yet, or is busy
    /// running a session); so is [`RejectReason::SessionFull`]. Protocol
    /// violations and the other reject reasons are configuration errors
    /// that retrying cannot fix.
    pub fn retryable(&self) -> bool {
        match self {
            HandshakeError::Io(e) => !matches!(
                e.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::InvalidInput
            ),
            HandshakeError::Wire(_) => false,
            HandshakeError::Rejected(reason) => reason.retryable(),
        }
    }

    /// Flattens into an [`io::Error`] for callers on `io::Result` paths.
    pub fn into_io(self) -> io::Error {
        match self {
            HandshakeError::Io(e) => e,
            HandshakeError::Wire(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
            HandshakeError::Rejected(reason) => io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("master rejected registration: {}", reason.describe()),
            ),
        }
    }
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
            HandshakeError::Wire(e) => write!(f, "handshake protocol error: {e}"),
            HandshakeError::Rejected(reason) => {
                write!(f, "registration rejected: {}", reason.describe())
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

impl From<io::Error> for HandshakeError {
    fn from(e: io::Error) -> Self {
        HandshakeError::Io(e)
    }
}

/// A handshaking peer's socket read and written against one absolute
/// deadline. A socket timeout bounds a single syscall, and `read_exact`
/// issues one per partial read, so a peer dripping a byte at a time just
/// inside a fixed timeout would be waited on indefinitely; here every
/// `read`/`write` arms the socket with what is left of `deadline` and
/// fails `TimedOut` once nothing is.
struct DeadlineIo<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl DeadlineIo<'_> {
    fn left(&self) -> io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "handshake deadline passed"));
        }
        Ok(left)
    }
}

impl Read for DeadlineIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read(buf)
    }

    fn read_vectored(&mut self, bufs: &mut [io::IoSliceMut<'_>]) -> io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        self.stream.read_vectored(bufs)
    }
}

impl Write for DeadlineIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.set_write_timeout(Some(self.left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Master side of the v3 handshake on one accepted connection.
///
/// Reads JOIN, registers it in `table`, answers WELCOME (or REJECT with a
/// typed reason), reads the confirming HELLO, and cross-checks its stream
/// seed against [`stream_seed`]`(master_seed, id)`. Any failure after the
/// slot was assigned releases it, so a crashed joiner does not leak a
/// slot.
///
/// A JOIN led by a byte other than [`PROTOCOL_VERSION`] is refused with
/// [`RejectReason::Version`] before the rest is decoded: a worker of
/// another version (a v2 JOIN is 38 bytes) learns why it was refused
/// instead of retrying on EOF.
///
/// With `required` set (the accept loop passes the digest of
/// `DIM_CLUSTER_TOKEN`; `None` = open port), the JOIN's auth digest must
/// match it (constant-time) or the joiner is refused with
/// [`RejectReason::Unauthorized`] before any slot is assigned.
///
/// The whole exchange ends by `deadline` — the accept loop passes its join
/// deadline, or [`handshake_timeout`] from now when that is sooner — however
/// the peer paces its bytes (see [`DeadlineIo`]). The last bound armed
/// stays on the stream; the caller resets it once the peer is a member.
pub(crate) fn master_handshake(
    stream: &mut TcpStream,
    table: &mut MembershipTable,
    session: u64,
    master_seed: u64,
    required: Option<&crate::auth::Digest>,
    deadline: Instant,
) -> Result<u32, HandshakeError> {
    stream.set_nodelay(true)?;
    let stream = &mut DeadlineIo { stream, deadline };
    let (opcode, body) = read_frame(stream)?;
    if opcode != frame::JOIN {
        return Err(HandshakeError::Io(protocol_err(&format!(
            "expected JOIN, got opcode {opcode}"
        ))));
    }
    if matches!(body.first(), Some(&version) if version != PROTOCOL_VERSION) {
        return Err(refuse(stream, RejectReason::Version, None));
    }
    let join = JoinHello::decode(&body).ok_or(HandshakeError::Wire(WireError {
        phase: phase::RENDEZVOUS,
        machine: None,
        kind: crate::wire::WireErrorKind::Malformed,
    }))?;
    if required.is_some_and(|expected| !crate::auth::verify_digest(&join.auth, expected)) {
        return Err(refuse(stream, RejectReason::Unauthorized, join.requested));
    }
    let id = table
        .register(join.requested)
        .map_err(|reason| refuse(stream, reason, join.requested))?;
    // The slot is assigned; from here every failure must release it.
    confirm_member(stream, table, session, master_seed, id).inspect_err(|_| table.release(id))
}

/// Sends REJECT(`reason`) on a best-effort basis and returns the typed
/// error it surfaces as on the master.
fn refuse(stream: &mut impl Write, reason: RejectReason, requested: Option<u32>) -> HandshakeError {
    let _ = write_frame(stream, frame::REJECT, &Reject { reason }.encode());
    HandshakeError::Wire(reason.wire_error(requested))
}

/// WELCOME + HELLO verification half of [`master_handshake`].
fn confirm_member(
    stream: &mut DeadlineIo<'_>,
    table: &MembershipTable,
    session: u64,
    master_seed: u64,
    id: u32,
) -> Result<u32, HandshakeError> {
    let welcome = Welcome {
        session,
        machine_id: id,
        cluster_size: table.expected() as u32,
        master_seed,
    };
    write_frame(stream, frame::WELCOME, &welcome.encode())?;
    let (opcode, body) = read_frame(stream)?;
    if opcode != frame::HELLO {
        return Err(HandshakeError::Io(protocol_err(&format!(
            "expected HELLO, got opcode {opcode}"
        ))));
    }
    let hello = Hello::decode(&body).ok_or_else(|| {
        HandshakeError::Wire(WireError::malformed(phase::RENDEZVOUS, id as usize))
    })?;
    if hello.stream_seed != stream_seed(master_seed, id as usize) {
        let reject = Reject {
            reason: RejectReason::SeedMismatch,
        };
        let _ = write_frame(stream, frame::REJECT, &reject.encode());
        return Err(HandshakeError::Io(protocol_err(&format!(
            "stream seed mismatch from machine {id} (cross-process RNG contract)"
        ))));
    }
    Ok(id)
}

/// Worker side of the v3 handshake on a connected stream.
///
/// Sends JOIN, waits for WELCOME (or REJECT), verifies the assignment
/// against the request, and confirms with a HELLO carrying the derived
/// stream seed. On success the stream's read timeout is cleared — the
/// serve loop blocks indefinitely between ops by design.
pub(crate) fn join_handshake(
    stream: &mut TcpStream,
    join: JoinHello,
) -> Result<Welcome, HandshakeError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(handshake_timeout()))?;
    write_frame(stream, frame::JOIN, &join.encode())?;
    let (opcode, body) = read_frame(stream)?;
    let welcome = match opcode {
        frame::WELCOME => Welcome::decode(&body)
            .ok_or_else(|| HandshakeError::Io(protocol_err("malformed WELCOME")))?,
        frame::REJECT => {
            let reason = Reject::decode(&body)
                .map(|r| r.reason)
                .ok_or_else(|| HandshakeError::Io(protocol_err("malformed REJECT")))?;
            return Err(HandshakeError::Rejected(reason));
        }
        other => {
            return Err(HandshakeError::Io(protocol_err(&format!(
                "expected WELCOME or REJECT, got opcode {other}"
            ))))
        }
    };
    if let Some(requested) = join.requested {
        if welcome.machine_id != requested {
            return Err(HandshakeError::Io(protocol_err(&format!(
                "WELCOME assigned machine {} but {requested} was requested",
                welcome.machine_id
            ))));
        }
    }
    if welcome.machine_id >= welcome.cluster_size {
        return Err(HandshakeError::Io(protocol_err(
            "WELCOME machine id out of range of its own cluster size",
        )));
    }
    let hello = Hello {
        stream_seed: stream_seed(welcome.master_seed, welcome.machine_id as usize),
    };
    write_frame(stream, frame::HELLO, &hello.encode())?;
    stream.set_read_timeout(None)?;
    Ok(welcome)
}

/// Master-side rendezvous knobs.
#[derive(Clone, Copy, Debug)]
pub struct JoinConfig {
    /// Expected cluster size ℓ — a session assembles exactly this many
    /// workers.
    pub expected: usize,
    /// How long [`Rendezvous::accept_session`] waits for full membership
    /// before giving up.
    pub join_timeout: Duration,
}

impl JoinConfig {
    /// A config for `expected` machines whose join deadline is
    /// `DIM_JOIN_TIMEOUT_SECS` (default 30 s).
    pub fn new(expected: usize) -> Self {
        JoinConfig {
            expected,
            join_timeout: default_join_timeout(),
        }
    }
}

/// The master's join deadline: `DIM_JOIN_TIMEOUT_SECS` (whole seconds) or
/// 30 s.
fn default_join_timeout() -> Duration {
    env_secs("DIM_JOIN_TIMEOUT_SECS").unwrap_or(Duration::from_secs(30))
}

/// The master side of cluster assembly: a bound listener that assembles
/// sessions from registering workers.
///
/// One `Rendezvous` outlives its sessions — after a [`ProcCluster`] is
/// dropped (ending its session), call [`Rendezvous::accept_session`]
/// again and surviving or restarted workers re-register for the next run.
pub struct Rendezvous {
    listener: TcpListener,
    config: JoinConfig,
    next_session: u64,
}

impl Rendezvous {
    /// Binds `addr` and prepares to accept joiners.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: JoinConfig) -> io::Result<Self> {
        assert!(config.expected > 0, "cluster needs at least one machine");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Rendezvous {
            listener,
            config,
            next_session: 1,
        })
    }

    /// The bound address workers should `--connect` to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Assembles one session: accepts and handshakes joiners until all ℓ
    /// slots are registered, then returns the [`ProcCluster`].
    ///
    /// Rejected or failed joiners are logged and do not abort assembly —
    /// their slot (if any) is released for a replacement. If membership
    /// is still incomplete after the join timeout, errors `TimedOut`
    /// naming how many workers had joined. The bind→membership latency is
    /// recorded under [`phase::RENDEZVOUS`] in the cluster's timeline
    /// (`master_compute`, one phase, no traffic).
    pub fn accept_session(
        &mut self,
        network: NetworkModel,
        master_seed: u64,
    ) -> io::Result<ProcCluster> {
        let start = Instant::now();
        let mut cluster = self.assemble(network, master_seed)?;
        cluster.record(
            phase::RENDEZVOUS,
            ClusterMetrics {
                master_compute: start.elapsed(),
                phases: 1,
                ..Default::default()
            },
        );
        Ok(cluster)
    }

    /// The accept loop behind every TCP cluster: [`Self::accept_session`]
    /// for operator-started workers, `ProcCluster::launch` for workers the
    /// master started itself (whose timelines carry no rendezvous phase).
    pub(crate) fn assemble(
        &mut self,
        network: NetworkModel,
        master_seed: u64,
    ) -> io::Result<ProcCluster> {
        let session = self.next_session;
        self.next_session += 1;
        let deadline = Instant::now() + self.config.join_timeout;
        let mut table = MembershipTable::new(self.config.expected);
        let mut slots: Vec<Option<TcpStream>> =
            (0..self.config.expected).map(|_| None).collect();
        let required = crate::auth::cluster_token_digest();
        while !table.is_full() {
            // Checked on every iteration, not only when the backlog is
            // empty: a peer that keeps reconnecting with refused or
            // garbage JOINs must not be able to hold the session open.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "rendezvous timed out: {} of {} workers joined session {session}",
                        table.joined(),
                        table.expected()
                    ),
                ));
            }
            match self.listener.accept() {
                Ok((mut stream, peer)) => {
                    // Bounded by the deadline inside the handshake too: a
                    // peer that connects and then says nothing, or drips
                    // its JOIN, costs the session what is left of it, not
                    // a handshake timeout (per byte) on top.
                    let admitted = stream
                        .set_nonblocking(false)
                        .map_err(HandshakeError::Io)
                        .and_then(|()| {
                            master_handshake(
                                &mut stream,
                                &mut table,
                                session,
                                master_seed,
                                required.as_ref(),
                                deadline.min(Instant::now() + handshake_timeout()),
                            )
                        });
                    match admitted {
                        Ok(id) => slots[id as usize] = Some(stream),
                        Err(e) => eprintln!(
                            "dim master: refused joiner {peer} for session {session}: {e}"
                        ),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        let streams = slots
            .into_iter()
            .map(|s| s.expect("full membership table implies a stream per slot"))
            .collect();
        ProcCluster::from_streams(streams, network, session)
    }
}

/// The TCP cluster behind every `--backend proc|join`: `spawn_workers`
/// launches one `dim-worker` process per machine ([`ProcCluster::spawn`]);
/// otherwise pre-started `dim-worker --join` processes register with a
/// [`Rendezvous`] bound to `DIM_MASTER_BIND` (default `127.0.0.1:0`;
/// multi-host deployments set e.g. `0.0.0.0:7070`), whose address is
/// announced on stderr.
/// One rendezvous per call: join workers re-register between calls, so a
/// fleet started once covers a whole sweep.
pub fn tcp_cluster(
    spawn_workers: bool,
    config: JoinConfig,
    network: NetworkModel,
    master_seed: u64,
) -> io::Result<ProcCluster> {
    if spawn_workers {
        return ProcCluster::spawn(config.expected, network, master_seed);
    }
    let mut rendezvous = Rendezvous::bind(tcp::master_bind_addr().as_str(), config)?;
    let addr = rendezvous.local_addr()?;
    eprintln!(
        "dim: waiting for {} worker(s) to join at {addr} \
         (dim-worker --connect {addr} --join)",
        config.expected
    );
    let cluster = rendezvous.accept_session(network, master_seed)?;
    eprintln!(
        "dim: session {} assembled in {:.3}s",
        cluster.session_id(),
        cluster.timeline().get(phase::RENDEZVOUS).master_compute.as_secs_f64()
    );
    Ok(cluster)
}

/// Worker-side join knobs: which slot to ask for, and how long to keep
/// asking.
#[derive(Clone, Copy, Debug)]
pub struct JoinOptions {
    /// Pin a specific machine id, or `None` for any free slot.
    pub requested: Option<u32>,
    /// Give up joining after this long (`None` = retry forever). The
    /// `dim-worker` binary seeds this from `DIM_JOIN_DEADLINE_SECS` /
    /// `--join-deadline`.
    pub deadline: Option<Duration>,
}

/// The worker's optional join deadline: `DIM_JOIN_DEADLINE_SECS` (whole
/// seconds), unset = retry forever.
pub fn join_deadline_env() -> Option<Duration> {
    env_secs("DIM_JOIN_DEADLINE_SECS")
}

/// Connects to `addr` and completes the join handshake, retrying
/// transient failures (master not up yet, session full, dropped
/// connections) with jittered exponential backoff until the deadline in
/// `opts` (if any) expires. Fatal rejections — version mismatch, wrong
/// token, duplicate or out-of-range id — surface immediately.
pub(crate) fn connect_and_join(
    addr: &str,
    opts: &JoinOptions,
) -> io::Result<(TcpStream, Welcome)> {
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    let mut backoff = Backoff::new(
        Duration::from_millis(50),
        Duration::from_secs(2),
        u64::from(opts.requested.unwrap_or(ANY_SLOT)) ^ u64::from(std::process::id()),
    );
    loop {
        let attempt = (|| -> Result<(TcpStream, Welcome), HandshakeError> {
            let mut stream = connect_with_timeout(addr)?;
            let welcome = join_handshake(&mut stream, JoinHello::new(opts.requested))?;
            Ok((stream, welcome))
        })();
        let err = match attempt {
            Ok(joined) => return Ok(joined),
            Err(e) => e,
        };
        if !err.retryable() {
            return Err(err.into_io());
        }
        let delay = backoff.next_delay();
        if let Some(deadline) = deadline {
            if Instant::now() + delay >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("join deadline expired; last error: {err}"),
                ));
            }
        }
        std::thread::sleep(delay);
    }
}

/// Resolves `addr` and connects with the shared [`handshake_timeout`].
fn connect_with_timeout(addr: &str) -> io::Result<TcpStream> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing"))?;
    TcpStream::connect_timeout(&sock, handshake_timeout())
}

/// How one joined session went, from the worker's side.
#[derive(Debug)]
pub struct JoinedSession {
    /// The membership the worker held.
    pub welcome: Welcome,
    /// Whether the master ended the session with a Shutdown op or by
    /// disconnecting.
    pub end: SessionEnd,
}

/// Joins a master at `addr` and serves one full session.
///
/// The only worker-side session entry point: `dim-worker` (with or
/// without `--join`) and the threads of [`ProcCluster::local_with`] all
/// come through here. `setup(&welcome)` builds (or re-binds) the op
/// executor once membership is known — `dim-worker` passes a closure that
/// resets its long-lived host state to the session's machine id and
/// master seed and returns `&mut host`, keeping an already-loaded graph
/// across sessions. Returns when the master ends the session;
/// `dim-worker --join` loops this to re-register for the next run.
pub fn run_join_worker<E, F>(addr: &str, opts: &JoinOptions, setup: F) -> io::Result<JoinedSession>
where
    E: OpExecutor,
    F: FnOnce(&Welcome) -> E,
{
    let (stream, welcome) = connect_and_join(addr, opts)?;
    let mut executor = setup(&welcome);
    let end = tcp::serve_session(stream, welcome.machine_id, &mut executor)?;
    Ok(JoinedSession { welcome, end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{expect_counts, OpCluster, WorkerOp, WorkerReply};
    use crate::wire::WireErrorKind;

    /// [`JoinHello::new`] with an explicit token instead of the env var.
    fn join_with_token(requested: Option<u32>, token: &str) -> JoinHello {
        JoinHello {
            auth: crate::auth::token_digest(token),
            ..JoinHello::new(requested)
        }
    }

    #[test]
    fn codec_roundtrips() {
        for requested in [None, Some(0), Some(7), Some(u32::MAX - 1)] {
            let join = join_with_token(requested, "hunter2");
            let bytes = join.encode();
            assert_eq!(bytes.len(), 37);
            assert_eq!(JoinHello::decode(&bytes), Some(join));
        }
        let welcome = Welcome {
            session: 3,
            machine_id: 1,
            cluster_size: 4,
            master_seed: 0xDEAD_BEEF,
        };
        assert_eq!(welcome.encode().len(), 24);
        assert_eq!(Welcome::decode(&welcome.encode()), Some(welcome));
        let hello = Hello { stream_seed: 99 };
        assert_eq!(hello.encode().len(), 8);
        assert_eq!(Hello::decode(&hello.encode()), Some(hello));
        for reason in [
            RejectReason::Version,
            RejectReason::OutOfRange,
            RejectReason::Duplicate,
            RejectReason::SessionFull,
            RejectReason::SeedMismatch,
            RejectReason::Unauthorized,
        ] {
            let reject = Reject { reason };
            assert_eq!(Reject::decode(&reject.encode()), Some(reject));
        }
    }

    #[test]
    fn codecs_reject_truncation_and_trailing_bytes() {
        let join = JoinHello::new(Some(1)).encode();
        assert!(JoinHello::decode(&join[..join.len() - 1]).is_none());
        let mut long = join.clone();
        long.push(0);
        assert!(JoinHello::decode(&long).is_none());
        let mut other_version = join.clone();
        other_version[0] = PROTOCOL_VERSION - 1;
        assert!(JoinHello::decode(&other_version).is_none());
        let welcome = Welcome {
            session: 1,
            machine_id: 0,
            cluster_size: 1,
            master_seed: 2,
        }
        .encode();
        assert!(Welcome::decode(&welcome[..23]).is_none());
        assert!(Hello::decode(&[]).is_none());
        assert!(Hello::decode(&[0; 9]).is_none());
        // Unknown reject reason codes are refused, not mapped arbitrarily.
        assert!(Reject::decode(&[0]).is_none());
        assert!(Reject::decode(&[7]).is_none());
        assert!(Reject::decode(&[1, 0]).is_none());
    }

    /// Satellite contract: a token-requiring master refuses a joiner with
    /// the wrong (or absent) token with a typed, non-retryable
    /// [`RejectReason::Unauthorized`] before assigning a slot, and admits
    /// a correctly-tokened joiner into the same table.
    #[test]
    fn token_requiring_master_rejects_wrong_token_joiner() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let required = crate::auth::token_digest("cluster-secret");
        let master = std::thread::spawn(move || {
            let mut table = MembershipTable::new(2);
            let mut outcomes = Vec::new();
            for _ in 0..3 {
                let (mut stream, _) = listener.accept().unwrap();
                outcomes.push(master_handshake(
                    &mut stream,
                    &mut table,
                    1,
                    42,
                    Some(&required),
                    Instant::now() + handshake_timeout(),
                ));
            }
            (outcomes, table.joined())
        });
        // Wrong token, then no token at all: both must be refused with the
        // typed reason on the worker side too.
        for join in [
            join_with_token(None, "not-the-secret"),
            JoinHello {
                auth: [0; crate::auth::DIGEST_LEN],
                ..JoinHello::new(None)
            },
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            let err = join_handshake(&mut stream, join).unwrap_err();
            match err {
                HandshakeError::Rejected(reason) => {
                    assert_eq!(reason, RejectReason::Unauthorized);
                    assert!(!reason.retryable());
                    assert!(reason.describe().contains("token"));
                }
                other => panic!("expected Unauthorized rejection, got {other}"),
            }
        }
        // The right token joins fine afterwards.
        let mut stream = TcpStream::connect(addr).unwrap();
        let welcome =
            join_handshake(&mut stream, join_with_token(None, "cluster-secret")).unwrap();
        assert_eq!(welcome.session, 1);
        let (outcomes, joined) = master.join().unwrap();
        assert!(matches!(
            &outcomes[0],
            Err(HandshakeError::Wire(e)) if e.kind == WireErrorKind::Malformed
        ));
        assert!(matches!(&outcomes[1], Err(HandshakeError::Wire(_))));
        assert_eq!(*outcomes[2].as_ref().unwrap(), welcome.machine_id);
        // Unauthorized joiners never held a slot.
        assert_eq!(joined, 1);
    }

    #[test]
    fn membership_assigns_requested_and_free_slots() {
        let mut table = MembershipTable::new(3);
        assert_eq!(table.register(Some(2)), Ok(2));
        assert_eq!(table.register(None), Ok(0));
        assert_eq!(table.register(None), Ok(1));
        assert!(table.is_full());
        assert_eq!(table.joined(), 3);
    }

    #[test]
    fn membership_rejects_duplicate_id_with_typed_error() {
        let mut table = MembershipTable::new(2);
        assert_eq!(table.register(Some(1)), Ok(1));
        let reason = table.register(Some(1)).unwrap_err();
        assert_eq!(reason, RejectReason::Duplicate);
        assert!(!reason.retryable());
        let err = reason.wire_error(Some(1));
        assert_eq!(err.kind, WireErrorKind::DuplicateId);
        assert_eq!(err.machine, Some(1));
        assert_eq!(err.phase, phase::RENDEZVOUS);
        assert!(err.to_string().contains("duplicate"), "{err}");
        // The slot's original owner is unaffected.
        assert_eq!(table.joined(), 1);
    }

    #[test]
    fn membership_rejects_out_of_range_id_with_typed_error() {
        let mut table = MembershipTable::new(2);
        let reason = table.register(Some(2)).unwrap_err();
        assert_eq!(reason, RejectReason::OutOfRange);
        assert!(!reason.retryable());
        let err = reason.wire_error(Some(2));
        assert_eq!(err.kind, WireErrorKind::IdOutOfRange);
        assert_eq!(err.machine, Some(2));
        assert_eq!(table.joined(), 0);
    }

    #[test]
    fn membership_session_full_is_retryable() {
        let mut table = MembershipTable::new(1);
        assert_eq!(table.register(None), Ok(0));
        let reason = table.register(None).unwrap_err();
        assert_eq!(reason, RejectReason::SessionFull);
        assert!(reason.retryable());
        assert_eq!(reason.wire_error(None).kind, WireErrorKind::SessionFull);
    }

    /// A JOIN led by another version byte is refused with REJECT(Version)
    /// before the rest of it is decoded, whatever its length: a v1 byte, a
    /// 38-byte v2 JOIN (version, capability byte, requested id, token
    /// digest), a future version. None of them takes a slot; a v3 JOIN then does, and a
    /// released slot can be registered again.
    #[test]
    fn membership_rejects_wrong_version_and_releases_slots() {
        let mut v2_join = vec![2, 3];
        v2_join.extend([0; 4 + crate::auth::DIGEST_LEN]);
        assert_eq!(v2_join.len(), 38);
        let mut future_join = JoinHello::new(Some(0)).encode();
        future_join[0] = PROTOCOL_VERSION + 1;
        let bodies = [vec![1], v2_join, future_join];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let count = bodies.len();
        let master = std::thread::spawn(move || {
            let mut table = MembershipTable::new(2);
            let outcomes: Vec<_> = (0..count)
                .map(|_| {
                    let (mut stream, _) = listener.accept().unwrap();
                    let deadline = Instant::now() + handshake_timeout();
                    master_handshake(&mut stream, &mut table, 1, 42, None, deadline)
                })
                .collect();
            (outcomes, table)
        });
        for body in &bodies {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, frame::JOIN, body).unwrap();
            let (opcode, reply) = read_frame(&mut stream).unwrap();
            let len = body.len();
            assert_eq!(opcode, frame::REJECT, "JOIN of {len} bytes");
            let reason = Reject::decode(&reply).unwrap().reason;
            assert_eq!(reason, RejectReason::Version, "JOIN of {len} bytes");
            assert!(!reason.retryable());
        }
        let (outcomes, mut table) = master.join().unwrap();
        for outcome in outcomes {
            assert!(matches!(
                outcome,
                Err(HandshakeError::Wire(e)) if e.kind == WireErrorKind::Malformed
            ));
        }
        assert_eq!(table.joined(), 0);
        assert_eq!(table.register(Some(0)), Ok(0));
        table.release(0);
        assert_eq!(table.joined(), 0);
        assert_eq!(table.register(Some(0)), Ok(0));
    }

    /// Toy resident executor counting SampleRr totals, as in tcp.rs tests.
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

    fn test_config(expected: usize) -> JoinConfig {
        JoinConfig {
            expected,
            join_timeout: Duration::from_secs(10),
        }
    }

    #[test]
    fn join_workers_assemble_serve_and_reregister_next_session() {
        let mut rdv = Rendezvous::bind("127.0.0.1:0", test_config(2)).unwrap();
        let addr = rdv.local_addr().unwrap().to_string();
        // Pre-started workers that serve TWO sessions each, keeping their
        // executor alive across sessions (the host-reuse contract).
        let handles: Vec<_> = (0..2u32)
            .map(|id| {
                let addr = addr.clone();
                std::thread::spawn(move || -> io::Result<Vec<(u64, u32, SessionEnd)>> {
                    let mut tally = Tally(0);
                    // Pin the slot so resident state stays attached to the
                    // same machine id across sessions.
                    let opts = JoinOptions {
                        requested: Some(id),
                        deadline: Some(Duration::from_secs(10)),
                    };
                    let mut served = Vec::new();
                    for _ in 0..2 {
                        let session = run_join_worker(&addr, &opts, |_welcome| &mut tally)?;
                        served.push((
                            session.welcome.session,
                            session.welcome.machine_id,
                            session.end,
                        ));
                    }
                    Ok(served)
                })
            })
            .collect();

        for expected_session in [1u64, 2] {
            let mut cluster = rdv
                .accept_session(NetworkModel::cluster_1gbps(), 42)
                .unwrap();
            assert_eq!(cluster.session_id(), expected_session);
            assert_eq!(cluster.num_machines(), 2);
            // Rendezvous latency landed in the timeline as a setup phase.
            let m = cluster.timeline().get(phase::RENDEZVOUS);
            assert_eq!(m.phases, 1);
            assert_eq!(m.bytes_to_master + m.bytes_from_master, 0);
            assert!(m.master_compute > Duration::ZERO);
            assert_eq!(m, cluster.metrics(), "nothing else is recorded at assembly");
            cluster
                .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                    count: i as u64 + 1,
                })
                .unwrap();
            let counts = cluster
                .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
                .unwrap();
            let counts = expect_counts(&counts, phase::COUNT_UPLOAD).unwrap();
            // Session 2 reuses the workers' resident state: tallies from
            // session 1 persist, so totals double.
            let scale = expected_session;
            assert_eq!(counts, vec![scale, 2 * scale]);
            assert_eq!(cluster.link_errors(), 0);
            // Drop ends the session; workers loop back to joining.
        }
        for handle in handles {
            let served = handle.join().unwrap().unwrap();
            assert_eq!(served.len(), 2);
            for (session, _, end) in served {
                assert!(session == 1 || session == 2);
                assert_eq!(end, SessionEnd::Shutdown);
            }
        }
    }

    #[test]
    fn duplicate_registration_is_refused_but_session_still_assembles() {
        let mut rdv = Rendezvous::bind("127.0.0.1:0", test_config(1)).unwrap();
        let addr = rdv.local_addr().unwrap().to_string();
        // Two workers race for machine id 0; the loser gets REJECT
        // Duplicate (fatal), the winner serves. Assembly must survive the
        // refusal.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut tally = Tally(0);
                    let opts = JoinOptions {
                        requested: Some(0),
                        deadline: Some(Duration::from_secs(10)),
                    };
                    run_join_worker(&addr, &opts, |_| &mut tally).map(|s| s.end)
                })
            })
            .collect();
        let cluster = rdv
            .accept_session(NetworkModel::cluster_1gbps(), 9)
            .unwrap();
        assert_eq!(cluster.num_machines(), 1);
        drop(cluster);
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let rejected = results
            .iter()
            .filter(|r| {
                r.as_ref().is_err_and(|e| {
                    e.to_string().contains("already registered")
                })
            })
            .count();
        // Exactly one worker served; if the loser arrived before assembly
        // finished it was told "already registered", otherwise it timed
        // out against a master that stopped accepting.
        assert_eq!(ok, 1, "{results:?}");
        assert!(rejected <= 1);
    }

    #[test]
    fn dead_worker_fails_the_next_op_round_with_typed_error_naming_machine() {
        let mut rdv = Rendezvous::bind("127.0.0.1:0", test_config(1)).unwrap();
        let addr = rdv.local_addr().unwrap().to_string();
        // A worker that registers, then dies without serving anything.
        let vanish = std::thread::spawn(move || {
            let opts = JoinOptions {
                requested: Some(0),
                deadline: Some(Duration::from_secs(10)),
            };
            let (stream, welcome) = connect_and_join(&addr, &opts).unwrap();
            drop(stream);
            welcome.machine_id
        });
        let mut cluster = rdv
            .accept_session(NetworkModel::cluster_1gbps(), 5)
            .unwrap();
        assert_eq!(vanish.join().unwrap(), 0);
        // The op round is the failure detector: the dead worker's link
        // fails the first round that needs it.
        let err = cluster
            .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap_err();
        assert_eq!(err.phase, phase::COUNT_UPLOAD);
        assert_eq!(err.machine, Some(0));
        assert_eq!(err.kind, WireErrorKind::Link);
        assert!(err.to_string().contains("machine 0"), "{err}");
        assert_eq!(cluster.live_links(), 0);
        assert_eq!(cluster.link_errors(), 1);
    }

    #[test]
    fn rendezvous_times_out_naming_partial_membership() {
        use std::sync::mpsc;
        let mut config = test_config(2);
        config.join_timeout = Duration::from_millis(300);
        let mut rdv = Rendezvous::bind("127.0.0.1:0", config).unwrap();
        let master = rdv.local_addr().unwrap();
        // Only one of the two expected workers ever joins.
        let (joined_tx, joined_rx) = mpsc::channel();
        let lone = std::thread::spawn(move || {
            let opts = JoinOptions {
                requested: Some(0),
                deadline: Some(Duration::from_secs(10)),
            };
            let mut tally = Tally(0);
            run_join_worker(&master.to_string(), &opts, |_| {
                let _ = joined_tx.send(());
                &mut tally
            })
        });
        // A hostile peer keeps the accept backlog non-empty for ~3 s, far
        // past the join timeout: it queues 60 connections at once and feeds
        // each a junk JOIN 50 ms after the previous one, so whenever the
        // master has refused one, the next is already waiting to be
        // accepted. The deadline must hold regardless.
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let hostile = std::thread::spawn(move || {
            use std::io::Write;
            joined_rx.recv().expect("the lone worker joins first");
            let mut queued: Vec<TcpStream> =
                (0..60).filter_map(|_| TcpStream::connect(master).ok()).collect();
            for stream in &mut queued {
                let tick = stop_rx.recv_timeout(Duration::from_millis(50));
                if tick != Err(mpsc::RecvTimeoutError::Timeout) {
                    break;
                }
                let _ = stream.write_all(&[0xff; 16]);
            }
        });
        let start = Instant::now();
        let err = rdv
            .accept_session(NetworkModel::cluster_1gbps(), 1)
            .err()
            .expect("one of two workers is not a cluster");
        let waited = start.elapsed();
        drop(stop_tx);
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("1 of 2"), "{err}");
        assert!(waited < Duration::from_secs(2), "deadline ignored for {waited:?}");
        drop(rdv);
        // The joined worker sees the master hang up — a clean session end.
        let session = lone.join().unwrap().unwrap();
        assert_eq!(session.end, SessionEnd::Disconnected);
        hostile.join().unwrap();
    }

    #[test]
    fn silent_peer_cannot_hold_the_accept_loop_past_the_join_deadline() {
        let mut config = test_config(1);
        config.join_timeout = Duration::from_millis(300);
        let mut rdv = Rendezvous::bind("127.0.0.1:0", config).unwrap();
        // Connects and never sends a byte: the master is inside this
        // peer's handshake, blocked on its JOIN, when the deadline passes.
        let silent = TcpStream::connect(rdv.local_addr().unwrap()).unwrap();
        let start = Instant::now();
        let err = rdv
            .accept_session(NetworkModel::cluster_1gbps(), 1)
            .err()
            .expect("a silent peer is not a member");
        let waited = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("0 of 1"), "slot table touched: {err}");
        // Well inside the (default 10 s) handshake timeout a silent peer
        // used to cost.
        assert!(waited < Duration::from_secs(2), "held for {waited:?}");
        drop(silent);
    }

    #[test]
    fn dripping_peer_cannot_hold_the_accept_loop_past_the_join_deadline() {
        let mut config = test_config(1);
        config.join_timeout = Duration::from_millis(300);
        let mut rdv = Rendezvous::bind("127.0.0.1:0", config).unwrap();
        let master = rdv.local_addr().unwrap();
        // A valid JOIN, one byte every 80 ms: every single read returns
        // well inside any per-syscall timeout, the frame as a whole takes
        // seconds. Stops at the first write the master's hang-up fails.
        let drip = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(master).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut join = Vec::new();
            write_frame(&mut join, frame::JOIN, &JoinHello::new(Some(0)).encode()).unwrap();
            for byte in join {
                if stream.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(80));
            }
        });
        let start = Instant::now();
        let err = rdv
            .accept_session(NetworkModel::cluster_1gbps(), 1)
            .err()
            .expect("a peer still spelling its JOIN is not a member");
        let waited = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("0 of 1"), "slot table touched: {err}");
        // 0.3 s of deadline plus scheduling slack; re-arming the timeout
        // per read let this peer finish its JOIN after ~3.5 s.
        assert!(waited < Duration::from_secs(1), "held for {waited:?}");
        drop(rdv);
        drip.join().unwrap();
    }

    #[test]
    fn join_deadline_expires_against_absent_master() {
        // Bind-then-drop guarantees nothing listens on the port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let opts = JoinOptions {
            requested: None,
            deadline: Some(Duration::from_millis(150)),
        };
        let start = Instant::now();
        let err = connect_and_join(&addr, &opts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("join deadline"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
