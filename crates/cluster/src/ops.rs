//! Serializable phase-op protocol between the algorithms and the backends.
//!
//! The paper's architecture keeps every machine's RR-set shard and
//! coverage labels *resident on that machine*; only thin typed messages —
//! "report your sparse ⟨set, Δ⟩ coverage", "apply seed v and tell me the
//! marginals of these candidates" — cross the wire (Algorithm 1, §III-C).
//! This module is that message vocabulary:
//!
//! * [`WorkerOp`] — everything a master ever asks a worker to do, from
//!   one-time setup ([`WorkerOp::LoadGraph`], [`WorkerOp::BuildShard`])
//!   through the per-phase algorithm steps ([`WorkerOp::SampleRr`],
//!   [`WorkerOp::ApplySeed`], [`WorkerOp::Validate`], …) to
//!   [`WorkerOp::Shutdown`].
//! * [`WorkerReply`] — the typed responses, with [`WorkerReply::wire_size`]
//!   defining each reply's *modeled* payload size (the quantity the paper
//!   measures: delta tuples, marginals and counts, not framing).
//! * [`OpExecutor`] — a worker that can answer ops against its resident
//!   state. `CoverageShard` and `dim-core`'s one IM worker (single or
//!   paired collection, for every framework) implement this.
//! * [`OpCluster`] — the backend contract for op execution. Crucially,
//!   [`crate::SimCluster`] implements it by interpreting the *same*
//!   [`WorkerOp`] values in process that the TCP backend serializes to
//!   worker processes — one code path, so backend equivalence holds by
//!   construction.
//!
//! Both message types have exact little-endian codecs here (next to the
//! payload codecs in [`crate::wire`]); the framing that carries them is the
//! transport's concern (`crate::tcp`).

use crate::backend::ClusterBackend;
use crate::runtime::SimCluster;
use crate::wire::{delta_wire_size, ids_wire_size, u64_wire_size, DeltaVec, WireError};

/// The workspace's one strict little-endian cursor lives in `dim-graph`;
/// re-exported here because the rendezvous, `dim-store` and `dim-serve`
/// codecs import it from this module.
pub use dim_graph::codec::{put_u32, put_u64, Reader};

use dim_diffusion::SamplerKind;

/// Aggregate shard statistics a worker reports on request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Number of elements (RR sets) resident in the shard.
    pub num_elements: u64,
    /// Σ over resident elements of their size.
    pub total_size: u64,
    /// Sampler work units spent while sampling (Σ w(R), the EPT mass: one
    /// per in-edge examined on a coin row, `1 + L` on a SUBSIM count row
    /// with `L` live edges), if the worker samples.
    pub edges_examined: u64,
}

/// One request from the master to a worker.
///
/// Setup ops (`LoadGraph`, `InitSampler`, `BuildShard`) install resident
/// state; phase ops drive the algorithms against it. Every op is answered
/// by exactly one [`WorkerReply`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerOp {
    /// Install the graph from its `dim-graph` binary encoding. → `Ok`.
    /// A worker holds one graph: a different blob replaces (and frees) the
    /// previous one, an identical blob keeps it.
    LoadGraph {
        /// The graph's portable binary encoding.
        blob: Vec<u8>,
    },
    /// Build the sampler of `sampler` over the loaded graph, once: every
    /// later `SampleRr` draws from it, and only an `ApplyDelta`, which
    /// replaces the graph, builds another. → `Ok`.
    InitSampler {
        /// Which RR-set law to sample.
        sampler: SamplerKind,
        /// Two collections, selection `R₁` and validation `R₂` (OPIM-C,
        /// SSA), instead of DiIMM's one: one byte, 0 or 1, nothing else.
        paired: bool,
    },
    /// Install a coverage shard with the given element lists. → `Ok`.
    BuildShard {
        /// Global number of sets (nodes) in the coverage instance.
        num_sets: u32,
        /// The shard's elements, each a list of set ids covering it.
        elements: Vec<Vec<u32>>,
    },
    /// Sample `count` RR sets into the resident shard — `count` pairs on
    /// a paired worker, one set into each collection. → `Ok`.
    SampleRr {
        /// How many RR sets (or pairs) this worker should add.
        count: u64,
    },
    /// Report initial per-set coverage of the whole shard. → `Deltas`.
    InitialCoverage,
    /// Report coverage of only elements added since the last report
    /// (§III-C incremental reporting). → `Deltas`.
    NewCoverage,
    /// One pull round of NewGreeDi's selection: mark `seed`'s elements
    /// covered, then answer the local marginal of every candidate. →
    /// `Marginals`, one per candidate, in request order.
    ApplySeed {
        /// The seed selected since the previous round, if any.
        seed: Option<u32>,
        /// The sets whose current local marginals the master needs.
        candidates: Vec<u32>,
    },
    /// Report how many resident elements are covered. → `Count`.
    CoveredCount,
    /// GreeDi's core-set round: run the greedy for `kappa` of the shard's
    /// sets and upload them. → `CoreSet`, the picks in pick order.
    CoreSet {
        /// Core-set size κ.
        kappa: u32,
    },
    /// Report shard statistics. → `Stats`.
    Stats,
    /// Count the validation collection's elements covered by `seeds`
    /// without mutating it (OPIM-C / SSA). → `Count`, or `Err` with no
    /// such collection or for a seed outside the universe.
    Validate {
        /// The candidate seed set.
        seeds: Vec<u32>,
    },
    /// Persist the resident RR shard as a `dim-store` snapshot shard file
    /// under `dir` (the worker writes its own shard — on the process/join
    /// backends this lands on the worker's machine). → `Ok`, or `Err` with
    /// the I/O failure. The master sends the run's fields; the worker
    /// stamps its own provenance (seed, sampler, shard id) into the header.
    PersistShard {
        /// Directory the shard file is written into (created if missing).
        dir: String,
        /// Fingerprint of the graph the RR sets were sampled from.
        fingerprint: u64,
        /// Global θ — total RR sets across all shards.
        theta: u64,
        /// Total number of shards in the snapshot.
        shard_count: u32,
    },
    /// Apply an edge-delta batch to the resident graph and repair the
    /// resident RR shard incrementally: invalidate exactly the RR sets that
    /// visited a mutated node and re-sample them (with their original
    /// per-set RNG streams) on the mutated graph. → `Count` (number of sets
    /// repaired), or `Err`.
    ///
    /// When `persist_dir` is set the worker also writes its own `dim-store`
    /// delta shard (`DIMD` file) into that directory — like
    /// [`WorkerOp::PersistShard`], no shard bytes transit the master. The
    /// master sends the chain's fields (base generation, pre/post graph
    /// fingerprints, θ); the worker stamps its own provenance and
    /// contributes the batch bytes and its repaired sets.
    ApplyDelta {
        /// The encoded [`dim-graph` `DeltaBatch`] (canonical LE codec).
        batch: Vec<u8>,
        /// Directory for the worker-written delta shard; `None` skips
        /// persistence (in-memory repair only).
        persist_dir: Option<String>,
        /// Generation id of the base snapshot this delta chain extends.
        base_generation: u64,
        /// Fingerprint of the graph *after* this batch.
        fingerprint: u64,
        /// Fingerprint of the graph *before* this batch (chain linkage).
        parent_fingerprint: u64,
        /// Global θ — total RR sets across all shards.
        theta: u64,
        /// Total number of shards in the snapshot.
        shard_count: u32,
    },
    /// Exit cleanly. → `Ok` (process workers exit afterwards).
    Shutdown,
}

/// One worker response. Every [`WorkerOp`] produces exactly one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerReply {
    /// Acknowledgement with no payload.
    Ok,
    /// Sparse ⟨set, Δ⟩ coverage tuples.
    Deltas(DeltaVec),
    /// Local marginals of an `ApplySeed` round's candidates, in its order.
    Marginals(Vec<u32>),
    /// A single counter.
    Count(u64),
    /// Shard statistics.
    Stats(WorkerStats),
    /// A `CoreSet` round's picks, in pick order: each set's local id and
    /// the elements it covers.
    CoreSet(Vec<(u32, Vec<u32>)>),
    /// The op failed worker-side (unsupported op, bad state).
    Err(String),
}

// Op tags. Reply tags live in `WorkerReply::encode`.
const OP_LOAD_GRAPH: u8 = 0;
const OP_INIT_SAMPLER: u8 = 1;
const OP_BUILD_SHARD: u8 = 2;
const OP_SAMPLE_RR: u8 = 3;
const OP_INITIAL_COVERAGE: u8 = 4;
const OP_NEW_COVERAGE: u8 = 5;
const OP_APPLY_SEED: u8 = 6;
const OP_COVERED_COUNT: u8 = 7;
const OP_STATS: u8 = 8;
const OP_VALIDATE: u8 = 9;
const OP_SHUTDOWN: u8 = 10;
const OP_PERSIST_SHARD: u8 = 11;
const OP_APPLY_DELTA: u8 = 12;
const OP_CORE_SET: u8 = 13;

const REPLY_OK: u8 = 0;
const REPLY_DELTAS: u8 = 1;
const REPLY_COUNT: u8 = 2;
const REPLY_STATS: u8 = 3;
const REPLY_ERR: u8 = 4;
const REPLY_MARGINALS: u8 = 5;
const REPLY_CORE_SET: u8 = 6;

/// Writes `[u32 count] ([u32 id])*`.
fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u32(out, id);
    }
}

/// The body of `[u32 count]` records of `width` bytes each. It must be
/// present before anything is allocated, so a count the frame cannot hold
/// costs nothing.
fn read_body<'a>(r: &mut Reader<'a>, width: usize) -> Option<&'a [u8]> {
    let count = r.u32()? as usize;
    r.take(count.checked_mul(width)?)
}

fn le_u32(w: &[u8]) -> u32 {
    u32::from_le_bytes([w[0], w[1], w[2], w[3]])
}

/// Reads what [`put_ids`] writes.
fn read_ids(r: &mut Reader) -> Option<Vec<u32>> {
    Some(read_body(r, 4)?.chunks_exact(4).map(le_u32).collect())
}

/// Writes `[u32 len] [UTF-8 bytes]`.
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Reads what [`put_str`] writes; `None` on bytes that are not UTF-8.
fn read_str(r: &mut Reader) -> Option<String> {
    let len = r.u32()? as usize;
    String::from_utf8(r.take(len)?.to_vec()).ok()
}

impl WorkerOp {
    /// Serializes the op to its canonical byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WorkerOp::LoadGraph { blob } => {
                out.push(OP_LOAD_GRAPH);
                put_u64(&mut out, blob.len() as u64);
                out.extend_from_slice(blob);
            }
            WorkerOp::InitSampler { sampler, paired } => {
                out.push(OP_INIT_SAMPLER);
                out.push(sampler.tag());
                out.push(u8::from(*paired));
            }
            WorkerOp::BuildShard { num_sets, elements } => {
                out.push(OP_BUILD_SHARD);
                put_u32(&mut out, *num_sets);
                put_u32(&mut out, elements.len() as u32);
                for element in elements {
                    put_ids(&mut out, element);
                }
            }
            WorkerOp::SampleRr { count } => {
                out.push(OP_SAMPLE_RR);
                put_u64(&mut out, *count);
            }
            WorkerOp::InitialCoverage => out.push(OP_INITIAL_COVERAGE),
            WorkerOp::NewCoverage => out.push(OP_NEW_COVERAGE),
            WorkerOp::ApplySeed { seed, candidates } => {
                out.push(OP_APPLY_SEED);
                match seed {
                    Some(seed) => {
                        out.push(1);
                        put_u32(&mut out, *seed);
                    }
                    None => out.push(0),
                }
                put_ids(&mut out, candidates);
            }
            WorkerOp::CoveredCount => out.push(OP_COVERED_COUNT),
            WorkerOp::CoreSet { kappa } => {
                out.push(OP_CORE_SET);
                put_u32(&mut out, *kappa);
            }
            WorkerOp::Stats => out.push(OP_STATS),
            WorkerOp::Validate { seeds } => {
                out.push(OP_VALIDATE);
                put_ids(&mut out, seeds);
            }
            WorkerOp::PersistShard {
                dir,
                fingerprint,
                theta,
                shard_count,
            } => {
                out.push(OP_PERSIST_SHARD);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *theta);
                put_u32(&mut out, *shard_count);
                put_str(&mut out, dir);
            }
            WorkerOp::ApplyDelta {
                batch,
                persist_dir,
                base_generation,
                fingerprint,
                parent_fingerprint,
                theta,
                shard_count,
            } => {
                out.push(OP_APPLY_DELTA);
                put_u64(&mut out, *base_generation);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *parent_fingerprint);
                put_u64(&mut out, *theta);
                put_u32(&mut out, *shard_count);
                match persist_dir {
                    Some(dir) => {
                        out.push(1);
                        put_str(&mut out, dir);
                    }
                    None => out.push(0),
                }
                put_u32(&mut out, batch.len() as u32);
                out.extend_from_slice(batch);
            }
            WorkerOp::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Deserializes an op. Returns `None` on any deviation from the
    /// canonical encoding (truncation, trailing bytes, bad tags,
    /// length/body mismatch).
    pub fn decode(bytes: &[u8]) -> Option<WorkerOp> {
        let mut r = Reader::new(bytes);
        let op = match r.u8()? {
            OP_LOAD_GRAPH => {
                let len = usize::try_from(r.u64()?).ok()?;
                WorkerOp::LoadGraph {
                    blob: r.take(len)?.to_vec(),
                }
            }
            OP_INIT_SAMPLER => WorkerOp::InitSampler {
                sampler: SamplerKind::from_tag(r.u8()?)?,
                paired: r.u8().filter(|&mode| mode <= 1)? == 1,
            },
            OP_BUILD_SHARD => {
                let num_sets = r.u32()?;
                let count = r.u32()? as usize;
                let mut elements = Vec::with_capacity(count.min(r.remaining() / 4));
                for _ in 0..count {
                    elements.push(read_ids(&mut r)?);
                }
                WorkerOp::BuildShard { num_sets, elements }
            }
            OP_SAMPLE_RR => WorkerOp::SampleRr { count: r.u64()? },
            OP_INITIAL_COVERAGE => WorkerOp::InitialCoverage,
            OP_NEW_COVERAGE => WorkerOp::NewCoverage,
            OP_APPLY_SEED => {
                let seed = match r.u8()? {
                    0 => None,
                    1 => Some(r.u32()?),
                    _ => return None,
                };
                WorkerOp::ApplySeed {
                    seed,
                    candidates: read_ids(&mut r)?,
                }
            }
            OP_COVERED_COUNT => WorkerOp::CoveredCount,
            OP_CORE_SET => WorkerOp::CoreSet { kappa: r.u32()? },
            OP_STATS => WorkerOp::Stats,
            OP_VALIDATE => WorkerOp::Validate {
                seeds: read_ids(&mut r)?,
            },
            OP_PERSIST_SHARD => WorkerOp::PersistShard {
                fingerprint: r.u64()?,
                theta: r.u64()?,
                shard_count: r.u32()?,
                dir: read_str(&mut r)?,
            },
            OP_APPLY_DELTA => WorkerOp::ApplyDelta {
                base_generation: r.u64()?,
                fingerprint: r.u64()?,
                parent_fingerprint: r.u64()?,
                theta: r.u64()?,
                shard_count: r.u32()?,
                persist_dir: match r.u8()? {
                    0 => None,
                    1 => Some(read_str(&mut r)?),
                    _ => return None,
                },
                batch: {
                    let len = r.u32()? as usize;
                    r.take(len)?.to_vec()
                },
            },
            OP_SHUTDOWN => WorkerOp::Shutdown,
            _ => return None,
        };
        r.finish()?;
        Some(op)
    }
}

impl WorkerReply {
    /// Serializes the reply to its canonical byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WorkerReply::Ok => out.push(REPLY_OK),
            WorkerReply::Deltas(deltas) => {
                out.push(REPLY_DELTAS);
                put_u32(&mut out, deltas.len() as u32);
                for &(v, d) in deltas {
                    put_u32(&mut out, v);
                    put_u32(&mut out, d);
                }
            }
            WorkerReply::Marginals(marginals) => {
                out.push(REPLY_MARGINALS);
                put_ids(&mut out, marginals);
            }
            WorkerReply::CoreSet(picks) => {
                out.push(REPLY_CORE_SET);
                put_u32(&mut out, picks.len() as u32);
                for (id, elements) in picks {
                    put_u32(&mut out, *id);
                    put_ids(&mut out, elements);
                }
            }
            WorkerReply::Count(c) => {
                out.push(REPLY_COUNT);
                put_u64(&mut out, *c);
            }
            WorkerReply::Stats(s) => {
                out.push(REPLY_STATS);
                put_u64(&mut out, s.num_elements);
                put_u64(&mut out, s.total_size);
                put_u64(&mut out, s.edges_examined);
            }
            WorkerReply::Err(msg) => {
                out.push(REPLY_ERR);
                put_str(&mut out, msg);
            }
        }
        out
    }

    /// Deserializes a reply. Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<WorkerReply> {
        let mut r = Reader::new(bytes);
        let reply = match r.u8()? {
            REPLY_OK => WorkerReply::Ok,
            REPLY_DELTAS => {
                let tuples = read_body(&mut r, 8)?.chunks_exact(8);
                WorkerReply::Deltas(tuples.map(|w| (le_u32(w), le_u32(&w[4..]))).collect())
            }
            REPLY_MARGINALS => WorkerReply::Marginals(read_ids(&mut r)?),
            REPLY_CORE_SET => {
                let count = r.u32()? as usize;
                let mut picks = Vec::with_capacity(count.min(r.remaining() / 8));
                for _ in 0..count {
                    picks.push((r.u32()?, read_ids(&mut r)?));
                }
                WorkerReply::CoreSet(picks)
            }
            REPLY_COUNT => WorkerReply::Count(r.u64()?),
            REPLY_STATS => WorkerReply::Stats(WorkerStats {
                num_elements: r.u64()?,
                total_size: r.u64()?,
                edges_examined: r.u64()?,
            }),
            REPLY_ERR => WorkerReply::Err(read_str(&mut r)?),
            _ => return None,
        };
        r.finish()?;
        Some(reply)
    }

    /// The *modeled* payload size of this reply — the byte count the
    /// paper's traffic accounting charges: sparse deltas cost
    /// [`delta_wire_size`], marginals [`ids_wire_size`], counts one u64,
    /// a core-set its ids plus one id list per pick; acknowledgements and
    /// control metadata (stats, errors) are free, like MPI envelopes.
    pub fn wire_size(&self) -> u64 {
        match self {
            WorkerReply::Ok | WorkerReply::Err(_) => 0,
            WorkerReply::Deltas(d) => delta_wire_size(d.len()),
            WorkerReply::Marginals(m) => ids_wire_size(m.len()),
            WorkerReply::CoreSet(picks) => {
                let lists: u64 = picks.iter().map(|(_, l)| ids_wire_size(l.len())).sum();
                ids_wire_size(picks.len()) + lists
            }
            WorkerReply::Count(_) => u64_wire_size(),
            WorkerReply::Stats(_) => 3 * u64_wire_size(),
        }
    }
}

/// A worker that answers [`WorkerOp`]s against its resident state.
///
/// Implementations hold whatever the op set touches — graph, sampler/RNG,
/// `CoverageShard` — and must answer every op they support with the reply
/// type documented on the op, returning [`WorkerReply::Err`] for ops they
/// do not support.
pub trait OpExecutor {
    /// Executes one op, mutating resident state as needed.
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply;
}

/// A mutable borrow serves ops exactly like the owner. Lets a long-lived
/// worker (e.g. a join-mode `dim-worker` keeping its graph across
/// sessions) hand each session a borrow instead of giving up ownership.
impl<T: OpExecutor + ?Sized> OpExecutor for &mut T {
    fn execute(&mut self, op: &WorkerOp) -> WorkerReply {
        (**self).execute(op)
    }
}

/// A cluster backend that can execute [`WorkerOp`]s on its machines.
///
/// This is the seam the distributed algorithms actually use: each
/// gather/broadcast round becomes "build an op per machine, collect the
/// typed replies". [`crate::SimCluster`] interprets ops in process;
/// [`crate::ProcCluster`] serializes the identical values to worker
/// processes — so both backends run the same op sequence by construction.
pub trait OpCluster: ClusterBackend {
    /// Executes `op(i)` on every machine `i` and returns one result per
    /// machine, in machine order, charging worker compute under
    /// `up_label` — the one round primitive every backend provides.
    ///
    /// It is *partial-failure aware*: one dead link does not discard the
    /// replies of the survivors. The recovery layer (`dim_core::recover`)
    /// drives it directly — on a single-machine loss it needs every
    /// surviving machine's reply to keep the round going. A
    /// [`WorkerReply::Err`] is the `Malformed` error of its machine.
    ///
    /// No *modeled* traffic is charged here — callers decide whether a
    /// round is free control flow ([`OpCluster::control`]), an upload
    /// ([`OpCluster::op_gather`]), or a broadcast + upload
    /// ([`OpCluster::op_broadcast_gather`]). Backends that physically move
    /// bytes attribute the *measured* send time to `down_label` when given
    /// (the op carries broadcast payload) and receive time to `up_label`.
    fn exec_ops_each<F>(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Vec<Result<WorkerReply, WireError>>
    where
        F: Fn(usize) -> WorkerOp + Sync;

    /// The fail-stop view of [`OpCluster::exec_ops_each`]: the replies in
    /// machine order, or the error of the first machine that failed. The
    /// whole round runs either way, so a failed round leaves no reply
    /// unread on a surviving link.
    fn exec_ops<F>(
        &mut self,
        down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Result<Vec<WorkerReply>, WireError>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        self.exec_ops_each(down_label, up_label, op).into_iter().collect()
    }

    /// An op round with no modeled traffic: setup, sampling commands,
    /// stats — control flow the paper does not count as algorithm
    /// communication.
    fn control<F>(&mut self, label: &'static str, op: F) -> Result<Vec<WorkerReply>, WireError>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        self.exec_ops(None, label, op)
    }

    /// An op round whose replies are uploaded to the master: charges one
    /// tree collective of `Σ reply.wire_size()` bytes across ℓ messages
    /// under `label`, next to the round's worker compute.
    fn op_gather<F>(&mut self, label: &'static str, op: F) -> Result<Vec<WorkerReply>, WireError>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        let replies = self.exec_ops(None, label, op)?;
        let bytes: u64 = replies.iter().map(WorkerReply::wire_size).sum();
        self.charge_upload(label, replies.len() as u64, bytes);
        Ok(replies)
    }

    /// A master→workers broadcast of `down_bytes_per_machine` (the op's
    /// payload, e.g. an encoded seed id) followed by an upload of the
    /// replies. The broadcast is charged under `down_label` *before* the
    /// ops run, the upload under `up_label` after — preserving first-use
    /// label order in the timeline.
    fn op_broadcast_gather<F>(
        &mut self,
        down_label: &'static str,
        down_bytes_per_machine: u64,
        up_label: &'static str,
        op: F,
    ) -> Result<Vec<WorkerReply>, WireError>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        self.broadcast(down_label, down_bytes_per_machine);
        let replies = self.exec_ops(Some(down_label), up_label, op)?;
        let bytes: u64 = replies.iter().map(WorkerReply::wire_size).sum();
        self.charge_upload(up_label, replies.len() as u64, bytes);
        Ok(replies)
    }
}

/// [`SimCluster`] interprets ops in process: the same [`WorkerOp`] values
/// the TCP backend ships are handed straight to each worker's
/// [`OpExecutor::execute`], each machine timed on its own and the round
/// charged the slowest (the virtual clock of [`crate::runtime`]).
impl<W: Send + OpExecutor> OpCluster for SimCluster<W> {
    fn exec_ops_each<F>(
        &mut self,
        _down_label: Option<&'static str>,
        up_label: &'static str,
        op: F,
    ) -> Vec<Result<WorkerReply, WireError>>
    where
        F: Fn(usize) -> WorkerOp + Sync,
    {
        // Chaos hook: when a fault injector is armed, this round's injected
        // delays are charged to `up_label` in virtual time, and killed
        // machines do not execute their op at all — exactly the observable
        // a real dead link has (no reply, typed link error).
        let killed = self.inject_round(up_label);
        let dead = |i: usize| killed.as_ref().is_some_and(|k| k[i]);
        let replies = self.par_step(up_label, |i, w| {
            if dead(i) {
                None
            } else {
                Some(w.execute(&op(i)))
            }
        });
        replies
            .into_iter()
            .enumerate()
            .map(|(i, reply)| match reply {
                None => Err(WireError::link(up_label, i)),
                Some(WorkerReply::Err(_)) => Err(WireError::malformed(up_label, i)),
                Some(reply) => Ok(reply),
            })
            .collect()
    }
}

/// Asserts every reply is [`WorkerReply::Ok`].
pub fn expect_ok(replies: &[WorkerReply], phase: &'static str) -> Result<(), WireError> {
    for (i, reply) in replies.iter().enumerate() {
        if !matches!(reply, WorkerReply::Ok) {
            return Err(WireError::malformed(phase, i));
        }
    }
    Ok(())
}

/// Extracts the [`WorkerReply::Count`] payload of every reply.
pub fn expect_counts(replies: &[WorkerReply], phase: &'static str) -> Result<Vec<u64>, WireError> {
    replies
        .iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            WorkerReply::Count(c) => Ok(*c),
            _ => Err(WireError::malformed(phase, i)),
        })
        .collect()
}

/// Extracts the [`WorkerReply::Deltas`] payload of every reply.
pub fn expect_deltas(
    replies: Vec<WorkerReply>,
    phase: &'static str,
) -> Result<Vec<DeltaVec>, WireError> {
    replies
        .into_iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            WorkerReply::Deltas(d) => Ok(d),
            _ => Err(WireError::malformed(phase, i)),
        })
        .collect()
}

/// Extracts the [`WorkerReply::Stats`] payload of every reply.
pub fn expect_stats(
    replies: &[WorkerReply],
    phase: &'static str,
) -> Result<Vec<WorkerStats>, WireError> {
    replies
        .iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            WorkerReply::Stats(s) => Ok(*s),
            _ => Err(WireError::malformed(phase, i)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::phase;
    use crate::network::NetworkModel;
    use crate::runtime::ExecMode;
    use dim_diffusion::DiffusionModel::{IndependentCascade as IC, LinearThreshold as LT};

    fn all_ops() -> Vec<WorkerOp> {
        vec![
            WorkerOp::LoadGraph {
                blob: vec![1, 2, 3, 255],
            },
            WorkerOp::LoadGraph { blob: vec![] },
            WorkerOp::InitSampler {
                sampler: SamplerKind::ReverseBfs,
                paired: false,
            },
            WorkerOp::InitSampler {
                sampler: SamplerKind::Standard(LT),
                paired: true,
            },
            WorkerOp::InitSampler {
                sampler: SamplerKind::Standard(IC),
                paired: false,
            },
            WorkerOp::BuildShard {
                num_sets: 9,
                elements: vec![vec![0, 3, 8], vec![], vec![5]],
            },
            WorkerOp::SampleRr { count: u64::MAX },
            WorkerOp::InitialCoverage,
            WorkerOp::NewCoverage,
            WorkerOp::ApplySeed {
                seed: Some(7),
                candidates: vec![0, u32::MAX],
            },
            WorkerOp::ApplySeed {
                seed: None,
                candidates: vec![],
            },
            WorkerOp::CoveredCount,
            WorkerOp::CoreSet { kappa: 20 },
            WorkerOp::CoreSet { kappa: u32::MAX },
            WorkerOp::Stats,
            WorkerOp::Validate {
                seeds: vec![1, u32::MAX],
            },
            WorkerOp::PersistShard {
                dir: "/tmp/dim-snapshot".into(),
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                theta: u64::MAX,
                shard_count: 4,
            },
            WorkerOp::PersistShard {
                dir: String::new(),
                fingerprint: 0,
                theta: 0,
                shard_count: 0,
            },
            WorkerOp::ApplyDelta {
                batch: vec![7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                persist_dir: Some("/tmp/dim-deltas".into()),
                base_generation: 3,
                fingerprint: 0xFEED_FACE_0123_4567,
                parent_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                theta: 10_000,
                shard_count: 4,
            },
            WorkerOp::ApplyDelta {
                batch: vec![],
                persist_dir: None,
                base_generation: 0,
                fingerprint: 0,
                parent_fingerprint: u64::MAX,
                theta: 0,
                shard_count: 0,
            },
            WorkerOp::Shutdown,
        ]
    }

    fn all_replies() -> Vec<WorkerReply> {
        vec![
            WorkerReply::Ok,
            WorkerReply::Deltas(vec![(0, 1), (u32::MAX, 42)]),
            WorkerReply::Deltas(vec![]),
            WorkerReply::Marginals(vec![3, 0, u32::MAX]),
            WorkerReply::CoreSet(vec![(2, vec![0, 9]), (u32::MAX, vec![])]),
            WorkerReply::CoreSet(vec![]),
            WorkerReply::Count(u64::MAX),
            WorkerReply::Stats(WorkerStats {
                num_elements: 3,
                total_size: 17,
                edges_examined: 99,
            }),
            WorkerReply::Err("shard missing".into()),
        ]
    }

    #[test]
    fn op_roundtrip() {
        for op in all_ops() {
            let bytes = op.encode();
            assert_eq!(WorkerOp::decode(&bytes).as_ref(), Some(&op), "{op:?}");
        }
    }

    #[test]
    fn reply_roundtrip() {
        for reply in all_replies() {
            let bytes = reply.encode();
            assert_eq!(
                WorkerReply::decode(&bytes).as_ref(),
                Some(&reply),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn rejects_truncated_and_trailing() {
        for op in all_ops() {
            let mut bytes = op.encode();
            bytes.push(0);
            assert!(WorkerOp::decode(&bytes).is_none(), "trailing: {op:?}");
            bytes.pop();
            if bytes.len() > 1 {
                assert!(
                    WorkerOp::decode(&bytes[..bytes.len() - 1]).is_none(),
                    "truncated: {op:?}"
                );
            }
        }
        for reply in all_replies() {
            let mut bytes = reply.encode();
            bytes.push(0);
            assert!(WorkerReply::decode(&bytes).is_none(), "trailing: {reply:?}");
        }
        assert!(WorkerOp::decode(&[]).is_none());
        assert!(WorkerReply::decode(&[]).is_none());
        assert!(WorkerOp::decode(&[200]).is_none());
        assert!(WorkerReply::decode(&[200]).is_none());
    }

    #[test]
    fn apply_delta_rejects_bad_dir_flag() {
        let op = WorkerOp::ApplyDelta {
            batch: vec![1, 2, 3],
            persist_dir: None,
            base_generation: 1,
            fingerprint: 2,
            parent_fingerprint: 3,
            theta: 5,
            shard_count: 6,
        };
        let mut bytes = op.encode();
        // The Option<persist_dir> flag byte sits right after the shard
        // count; anything other than 0/1 must be rejected.
        let flag_pos = 1 + 8 * 4 + 4;
        assert_eq!(bytes[flag_pos], 0);
        bytes[flag_pos] = 2;
        assert!(WorkerOp::decode(&bytes).is_none());
    }

    #[test]
    fn rejects_pathological_counts() {
        // A Validate header claiming u32::MAX seeds with a short body must
        // fail on the length check, not allocate or scan past the buffer.
        let mut bytes = vec![9u8]; // OP_VALIDATE
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(WorkerOp::decode(&bytes).is_none());

        for tag in [1u8, 5, 6] {
            // REPLY_DELTAS, REPLY_MARGINALS, REPLY_CORE_SET
            let mut reply = vec![tag];
            reply.extend_from_slice(&u32::MAX.to_le_bytes());
            reply.extend_from_slice(&[0u8; 8]);
            assert!(WorkerReply::decode(&reply).is_none());
        }
    }

    #[test]
    fn rejects_invalid_utf8_err() {
        let mut bytes = vec![4u8]; // REPLY_ERR
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(WorkerReply::decode(&bytes).is_none());
    }

    #[test]
    fn reply_wire_sizes_match_closure_accounting() {
        assert_eq!(WorkerReply::Ok.wire_size(), 0);
        assert_eq!(WorkerReply::Err("x".into()).wire_size(), 0);
        assert_eq!(WorkerReply::Count(5).wire_size(), u64_wire_size());
        assert_eq!(
            WorkerReply::Deltas(vec![(1, 2), (3, 4)]).wire_size(),
            delta_wire_size(2)
        );
        assert_eq!(WorkerReply::Stats(WorkerStats::default()).wire_size(), 24);
        let picks = WorkerReply::CoreSet(vec![(4, vec![1, 2, 3]), (0, vec![])]);
        assert_eq!(
            picks.wire_size(),
            ids_wire_size(2) + ids_wire_size(3) + ids_wire_size(0)
        );
    }

    /// A toy executor: `SampleRr` accumulates, `CoveredCount` reports, and
    /// everything else is unsupported.
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

    #[test]
    fn sim_cluster_interprets_ops_in_process() {
        let mut cluster = SimCluster::new(
            vec![Tally(0), Tally(0), Tally(0)],
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let acks = cluster
            .control(phase::RR_SAMPLING, |i| WorkerOp::SampleRr {
                count: (i as u64 + 1) * 10,
            })
            .unwrap();
        expect_ok(&acks, phase::RR_SAMPLING).unwrap();
        // Control rounds model no traffic.
        assert_eq!(cluster.metrics().total_bytes(), 0);

        let counts = cluster
            .op_gather(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap();
        let counts = expect_counts(&counts, phase::COUNT_UPLOAD).unwrap();
        assert_eq!(counts, vec![10, 20, 30]);
        let m = cluster.timeline().get(phase::COUNT_UPLOAD);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes_to_master, 3 * u64_wire_size());
    }

    #[test]
    fn broadcast_gather_orders_labels_and_charges_both_directions() {
        let mut cluster = SimCluster::new(
            vec![Tally(4), Tally(6)],
            NetworkModel::cluster_1gbps(),
            ExecMode::Sequential,
        );
        let replies = cluster
            .op_broadcast_gather(phase::SEED_BROADCAST, 8, phase::COUNT_UPLOAD, |_| {
                WorkerOp::CoveredCount
            })
            .unwrap();
        assert_eq!(expect_counts(&replies, phase::COUNT_UPLOAD).unwrap(), [4, 6]);
        let labels: Vec<_> = cluster.timeline().labels().collect();
        assert_eq!(labels, vec![phase::SEED_BROADCAST, phase::COUNT_UPLOAD]);
        assert_eq!(
            cluster.timeline().get(phase::SEED_BROADCAST).bytes_from_master,
            16
        );
        assert_eq!(
            cluster.timeline().get(phase::COUNT_UPLOAD).bytes_to_master,
            2 * u64_wire_size()
        );
    }

    #[test]
    fn chaos_kill_surfaces_link_error_with_survivor_replies() {
        use crate::faults::{FaultInjector, FaultPlan};
        use crate::wire::WireErrorKind;
        let mut cluster = SimCluster::new(
            vec![Tally(1), Tally(2), Tally(3)],
            NetworkModel::zero(),
            ExecMode::Sequential,
        )
        .with_faults(FaultInjector::new(FaultPlan::kill_machine(1, 0), 3));
        // Partial-failure view: survivors answer, the killed link is typed.
        let replies =
            cluster.exec_ops_each(None, phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount);
        assert_eq!(replies[0], Ok(WorkerReply::Count(1)));
        assert_eq!(replies[1].as_ref().unwrap_err().kind, WireErrorKind::Link);
        assert_eq!(replies[2], Ok(WorkerReply::Count(3)));
        // Fail-stop view over the same dead link aborts naming the machine.
        let err = cluster
            .control(phase::COUNT_UPLOAD, |_| WorkerOp::CoveredCount)
            .unwrap_err();
        assert_eq!(err.machine, Some(1));
        assert_eq!(err.kind, WireErrorKind::Link);
        let events = cluster.fault_injector().unwrap().events();
        assert!(!events.is_empty());
    }

    #[test]
    fn worker_err_aborts_round_naming_machine() {
        let mut cluster = SimCluster::new(
            vec![Tally(0), Tally(0)],
            NetworkModel::zero(),
            ExecMode::Sequential,
        );
        let err = cluster
            .control(phase::VALIDATION, |_| WorkerOp::Shutdown)
            .unwrap_err();
        assert_eq!(err.phase, phase::VALIDATION);
        assert_eq!(err.machine, Some(0));
    }

    #[test]
    fn expect_helpers_reject_mismatches() {
        let replies = vec![WorkerReply::Ok, WorkerReply::Count(1)];
        assert!(expect_ok(&replies, "x").is_err());
        assert!(expect_counts(&replies, "x").is_err());
        assert!(expect_deltas(replies.clone(), "x").is_err());
        assert_eq!(expect_stats(&replies, "x").unwrap_err().machine, Some(0));
    }
}
