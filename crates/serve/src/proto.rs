//! The query wire protocol: strict little-endian codecs in the style of
//! `dim_cluster::ops`, carried in the cluster wire's length-prefixed
//! frames (`dim_cluster::wire::{read_frame, write_frame}`).
//!
//! Requests and responses each own an opcode namespace (responses set the
//! high bit), so a frame is self-describing: `(opcode, body)` decodes to
//! exactly one message or is rejected. Decoders are strict — trailing
//! bytes, truncated fields, and counts that exceed the body length all
//! fail, and counts are bounds-checked *before* any allocation.

use dim_cluster::ops::{put_u32, put_u64, Reader};

/// Request opcodes.
pub const REQ_SPREAD: u8 = 0x01;
pub const REQ_TOP_K: u8 = 0x02;
pub const REQ_STATS: u8 = 0x03;
/// A pipelined batch of read-only queries: one frame, N queries, N
/// replies in request order. Not a [`QueryRequest`] variant — batches are
/// framed by [`encode_batch`]/[`decode_batch`] and cannot nest.
pub const REQ_BATCH: u8 = 0x04;
/// Admin: re-scan the snapshot store and hot-swap to the latest
/// generation.
pub const REQ_RELOAD: u8 = 0x05;
/// Tenant authentication: must be the first frame on a connection to a
/// multi-tenant server. Carries a version byte, the tenant id, and the
/// SHA-256 digest of the tenant token (the secret itself never travels).
pub const REQ_AUTH: u8 = 0x06;

/// Response opcodes (request opcode with the high bit set, plus error).
pub const RESP_SPREAD: u8 = 0x81;
pub const RESP_TOP_K: u8 = 0x82;
pub const RESP_STATS: u8 = 0x83;
pub const RESP_BATCH: u8 = 0x84;
pub const RESP_RELOAD: u8 = 0x85;
pub const RESP_AUTH: u8 = 0x86;
pub const RESP_ERROR: u8 = 0xEE;

/// The AUTH frame version this build speaks; servers reject others with
/// [`ERR_UNSUPPORTED`].
pub const AUTH_VERSION: u8 = 1;

/// Longest tenant id the codec accepts, bytes. Bounds the allocation a
/// hostile AUTH frame can demand and keeps ids printable in logs.
pub const MAX_TENANT_ID_LEN: usize = 128;

/// Error codes carried by [`QueryResponse::Error`].
pub const ERR_MALFORMED: u8 = 1;
pub const ERR_UNSUPPORTED: u8 = 2;
/// The server is at its connection limit; the connection is closed after
/// this reply. Retry later against a less loaded server.
pub const ERR_OVERLOADED: u8 = 3;
/// A reload was requested but failed (no store configured, or the store
/// scan/load errored). The serving sketch is unchanged.
pub const ERR_RELOAD: u8 = 4;
/// The presented token digest does not match the tenant's registered
/// digest, or a query arrived before AUTH on a multi-tenant server. The
/// connection is closed after this reply.
pub const ERR_UNAUTHORIZED: u8 = 5;
/// The AUTH frame named a tenant id absent from the registry. The
/// connection is closed after this reply.
pub const ERR_UNKNOWN_TENANT: u8 = 6;
/// A per-tenant quota tripped (in-flight ceiling, queries/sec bucket, or
/// batch size). Unlike the global [`ERR_OVERLOADED`] shed, the connection
/// stays open — the caller should back off and retry.
pub const ERR_QUOTA: u8 = 7;

/// One influence query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRequest {
    /// Estimate the spread of an arbitrary seed set.
    Spread { seeds: Vec<u32> },
    /// Constrained top-k selection: `include` is forced in, `exclude` is
    /// never selected, `k` is the total seed-set size.
    TopK {
        k: u32,
        include: Vec<u32>,
        exclude: Vec<u32>,
    },
    /// Sketch statistics and a liveness check.
    Stats,
    /// Admin: hot-swap to the latest committed store generation.
    Reload,
    /// Tenant authentication (first frame on a multi-tenant connection).
    /// `auth` is the SHA-256 digest of the tenant token.
    Auth {
        version: u8,
        tenant: String,
        auth: dim_cluster::auth::Digest,
    },
}

/// Sketch-wide statistics (the stats/health reply).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Node count `n` of the graph the sketch was sampled from.
    pub num_nodes: u64,
    /// Total RR sets in the sketch (θ).
    pub theta: u64,
    /// Shards the sketch is split into (the sampling run's ℓ).
    pub shard_count: u32,
    /// Σ over RR sets of their size.
    pub total_rr_size: u64,
    /// Queries answered since the server started.
    pub queries_answered: u64,
    /// Store generation of the sketch that answered *this* request.
    pub generation: u64,
    /// Connections refused with [`ERR_OVERLOADED`] since start.
    pub shed: u64,
    /// Requests refused with [`ERR_QUOTA`] for this tenant since start
    /// (always 0 on a single-tenant server).
    pub quota_shed: u64,
    /// Query-latency percentiles (µs) since start.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

/// One reply. `covered`/`theta`/`num_nodes` travel together so a client
/// can turn coverage into a spread estimate without a second round trip.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    Spread {
        covered: u64,
        theta: u64,
        num_nodes: u64,
    },
    TopK {
        seeds: Vec<u32>,
        marginals: Vec<u64>,
        covered: u64,
        theta: u64,
        num_nodes: u64,
    },
    Stats(SketchStats),
    /// Reply to [`QueryRequest::Reload`]: the generation now serving, and
    /// whether the request actually swapped sketches (`false` when the
    /// store had nothing newer).
    Reload { generation: u64, changed: bool },
    /// Reply to a successful [`QueryRequest::Auth`]: echoes the tenant id
    /// the connection is now scoped to and the generation it will query.
    AuthOk { tenant: String, generation: u64 },
    Error { code: u8, message: String },
}

/// The spread estimate `n · covered / θ` (Eq. 2); 0 for an empty sketch.
pub(crate) fn spread_estimate(covered: u64, theta: u64, num_nodes: u64) -> f64 {
    if theta == 0 {
        0.0
    } else {
        num_nodes as f64 * covered as f64 / theta as f64
    }
}

fn put_ids(out: &mut Vec<u8>, ids: &[u32]) {
    put_u64(out, ids.len() as u64);
    for &id in ids {
        put_u32(out, id);
    }
}

fn take_ids(r: &mut Reader) -> Option<Vec<u32>> {
    let count = r.u64()?;
    if count > (r.remaining() / 4) as u64 {
        return None;
    }
    (0..count).map(|_| r.u32()).collect()
}

fn take_u64s(r: &mut Reader, count: u64) -> Option<Vec<u64>> {
    if count > (r.remaining() / 8) as u64 {
        return None;
    }
    (0..count).map(|_| r.u64()).collect()
}

/// `len u32 · utf8 bytes`, capped at [`MAX_TENANT_ID_LEN`].
fn put_tenant_id(out: &mut Vec<u8>, id: &str) {
    let bytes = id.as_bytes();
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn take_tenant_id(r: &mut Reader) -> Option<String> {
    let len = r.u32()? as usize;
    if len > MAX_TENANT_ID_LEN {
        return None;
    }
    String::from_utf8(r.take(len)?.to_vec()).ok()
}

fn take_digest(r: &mut Reader) -> Option<dim_cluster::auth::Digest> {
    let mut digest = [0u8; dim_cluster::auth::DIGEST_LEN];
    digest.copy_from_slice(r.take(dim_cluster::auth::DIGEST_LEN)?);
    Some(digest)
}

impl QueryRequest {
    /// The frame opcode this request travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            QueryRequest::Spread { .. } => REQ_SPREAD,
            QueryRequest::TopK { .. } => REQ_TOP_K,
            QueryRequest::Stats => REQ_STATS,
            QueryRequest::Reload => REQ_RELOAD,
            QueryRequest::Auth { .. } => REQ_AUTH,
        }
    }

    /// Canonical body encoding (the opcode travels in the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            QueryRequest::Spread { seeds } => put_ids(&mut out, seeds),
            QueryRequest::TopK {
                k,
                include,
                exclude,
            } => {
                put_u32(&mut out, *k);
                put_ids(&mut out, include);
                put_ids(&mut out, exclude);
            }
            QueryRequest::Stats | QueryRequest::Reload => {}
            QueryRequest::Auth {
                version,
                tenant,
                auth,
            } => {
                out.push(*version);
                put_tenant_id(&mut out, tenant);
                out.extend_from_slice(auth);
            }
        }
        out
    }

    /// Strict decode of `(opcode, body)`; `None` on any malformation.
    pub fn decode(opcode: u8, body: &[u8]) -> Option<QueryRequest> {
        let mut r = Reader::new(body);
        let req = match opcode {
            REQ_SPREAD => QueryRequest::Spread {
                seeds: take_ids(&mut r)?,
            },
            REQ_TOP_K => QueryRequest::TopK {
                k: r.u32()?,
                include: take_ids(&mut r)?,
                exclude: take_ids(&mut r)?,
            },
            REQ_STATS => QueryRequest::Stats,
            REQ_RELOAD => QueryRequest::Reload,
            REQ_AUTH => QueryRequest::Auth {
                version: r.u8()?,
                tenant: take_tenant_id(&mut r)?,
                auth: take_digest(&mut r)?,
            },
            _ => return None,
        };
        r.finish()?;
        Some(req)
    }
}

/// Encodes a batch body: `count u32`, then per entry `opcode u8 ·
/// body_len u32 · body`. One frame carries the whole pipeline; the reply
/// is a [`RESP_BATCH`] frame with the responses in request order.
pub fn encode_batch(requests: &[QueryRequest]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, requests.len() as u32);
    for req in requests {
        let body = req.encode();
        out.push(req.opcode());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
    }
    out
}

/// Strict decode of a [`REQ_BATCH`] body. Only read-only queries may ride
/// in a batch: a nested batch, a [`QueryRequest::Reload`] entry, or a
/// [`QueryRequest::Auth`] entry rejects the whole frame (auth scopes the
/// connection, not a batch position), as does any malformed entry. The
/// entry count is bounds-checked against the body length (≥ 5 bytes per
/// entry) before any allocation.
pub fn decode_batch(body: &[u8]) -> Option<Vec<QueryRequest>> {
    let mut r = Reader::new(body);
    let count = r.u32()?;
    if count as u64 * 5 > r.remaining() as u64 {
        return None;
    }
    let mut requests = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let opcode = r.u8()?;
        if opcode == REQ_BATCH || opcode == REQ_RELOAD || opcode == REQ_AUTH {
            return None;
        }
        let len = r.u32()? as usize;
        let entry = r.take(len)?;
        requests.push(QueryRequest::decode(opcode, entry)?);
    }
    r.finish()?;
    Some(requests)
}

/// Encodes a [`RESP_BATCH`] body: same entry framing as [`encode_batch`].
pub fn encode_response_batch(responses: &[QueryResponse]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, responses.len() as u32);
    for resp in responses {
        let body = resp.encode();
        out.push(resp.opcode());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
    }
    out
}

/// Strict decode of a [`RESP_BATCH`] body. Per-query failures travel as
/// [`QueryResponse::Error`] entries; nested batches are rejected.
pub fn decode_response_batch(body: &[u8]) -> Option<Vec<QueryResponse>> {
    let mut r = Reader::new(body);
    let count = r.u32()?;
    if count as u64 * 5 > r.remaining() as u64 {
        return None;
    }
    let mut responses = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let opcode = r.u8()?;
        if opcode == RESP_BATCH || opcode == RESP_AUTH {
            return None;
        }
        let len = r.u32()? as usize;
        let entry = r.take(len)?;
        responses.push(QueryResponse::decode(opcode, entry)?);
    }
    r.finish()?;
    Some(responses)
}

impl QueryResponse {
    /// The frame opcode this response travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            QueryResponse::Spread { .. } => RESP_SPREAD,
            QueryResponse::TopK { .. } => RESP_TOP_K,
            QueryResponse::Stats(_) => RESP_STATS,
            QueryResponse::Reload { .. } => RESP_RELOAD,
            QueryResponse::AuthOk { .. } => RESP_AUTH,
            QueryResponse::Error { .. } => RESP_ERROR,
        }
    }

    /// Canonical body encoding (the opcode travels in the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            QueryResponse::Spread {
                covered,
                theta,
                num_nodes,
            } => {
                put_u64(&mut out, *covered);
                put_u64(&mut out, *theta);
                put_u64(&mut out, *num_nodes);
            }
            QueryResponse::TopK {
                seeds,
                marginals,
                covered,
                theta,
                num_nodes,
            } => {
                debug_assert_eq!(seeds.len(), marginals.len());
                put_ids(&mut out, seeds);
                for &m in marginals {
                    put_u64(&mut out, m);
                }
                put_u64(&mut out, *covered);
                put_u64(&mut out, *theta);
                put_u64(&mut out, *num_nodes);
            }
            QueryResponse::Stats(s) => {
                put_u64(&mut out, s.num_nodes);
                put_u64(&mut out, s.theta);
                put_u32(&mut out, s.shard_count);
                put_u64(&mut out, s.total_rr_size);
                put_u64(&mut out, s.queries_answered);
                put_u64(&mut out, s.generation);
                put_u64(&mut out, s.shed);
                put_u64(&mut out, s.quota_shed);
                put_u64(&mut out, s.p50_us);
                put_u64(&mut out, s.p95_us);
                put_u64(&mut out, s.p99_us);
            }
            QueryResponse::Reload {
                generation,
                changed,
            } => {
                put_u64(&mut out, *generation);
                out.push(*changed as u8);
            }
            QueryResponse::AuthOk { tenant, generation } => {
                put_tenant_id(&mut out, tenant);
                put_u64(&mut out, *generation);
            }
            QueryResponse::Error { code, message } => {
                out.push(*code);
                let bytes = message.as_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Strict decode of `(opcode, body)`; `None` on any malformation.
    pub fn decode(opcode: u8, body: &[u8]) -> Option<QueryResponse> {
        let mut r = Reader::new(body);
        let resp = match opcode {
            RESP_SPREAD => QueryResponse::Spread {
                covered: r.u64()?,
                theta: r.u64()?,
                num_nodes: r.u64()?,
            },
            RESP_TOP_K => {
                let seeds = take_ids(&mut r)?;
                let marginals = take_u64s(&mut r, seeds.len() as u64)?;
                QueryResponse::TopK {
                    seeds,
                    marginals,
                    covered: r.u64()?,
                    theta: r.u64()?,
                    num_nodes: r.u64()?,
                }
            }
            RESP_STATS => QueryResponse::Stats(SketchStats {
                num_nodes: r.u64()?,
                theta: r.u64()?,
                shard_count: r.u32()?,
                total_rr_size: r.u64()?,
                queries_answered: r.u64()?,
                generation: r.u64()?,
                shed: r.u64()?,
                quota_shed: r.u64()?,
                p50_us: r.u64()?,
                p95_us: r.u64()?,
                p99_us: r.u64()?,
            }),
            RESP_RELOAD => QueryResponse::Reload {
                generation: r.u64()?,
                changed: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            },
            RESP_AUTH => QueryResponse::AuthOk {
                tenant: take_tenant_id(&mut r)?,
                generation: r.u64()?,
            },
            RESP_ERROR => {
                let code = r.u8()?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?;
                QueryResponse::Error {
                    code,
                    message: String::from_utf8(bytes.to_vec()).ok()?,
                }
            }
            _ => return None,
        };
        r.finish()?;
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: QueryRequest) {
        let body = req.encode();
        assert_eq!(QueryRequest::decode(req.opcode(), &body), Some(req));
    }

    fn roundtrip_resp(resp: QueryResponse) {
        let body = resp.encode();
        assert_eq!(QueryResponse::decode(resp.opcode(), &body), Some(resp));
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(QueryRequest::Spread { seeds: vec![] });
        roundtrip_req(QueryRequest::Spread {
            seeds: vec![0, 7, u32::MAX],
        });
        roundtrip_req(QueryRequest::TopK {
            k: 10,
            include: vec![1, 2],
            exclude: vec![3],
        });
        roundtrip_req(QueryRequest::Stats);
        roundtrip_req(QueryRequest::Reload);
        roundtrip_req(QueryRequest::Auth {
            version: AUTH_VERSION,
            tenant: "acme".into(),
            auth: dim_cluster::auth::token_digest("s3cret"),
        });
        roundtrip_req(QueryRequest::Auth {
            version: 0,
            tenant: String::new(),
            auth: [0; 32],
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(QueryResponse::Spread {
            covered: 5,
            theta: 100,
            num_nodes: 50,
        });
        roundtrip_resp(QueryResponse::TopK {
            seeds: vec![4, 1],
            marginals: vec![9, 3],
            covered: 12,
            theta: 40,
            num_nodes: 20,
        });
        roundtrip_resp(QueryResponse::Stats(SketchStats {
            num_nodes: 9,
            theta: 77,
            shard_count: 4,
            total_rr_size: 300,
            queries_answered: 12,
            generation: 3,
            shed: 2,
            quota_shed: 1,
            p50_us: 11,
            p95_us: 220,
            p99_us: 900,
        }));
        roundtrip_resp(QueryResponse::Reload {
            generation: 7,
            changed: true,
        });
        roundtrip_resp(QueryResponse::Reload {
            generation: 7,
            changed: false,
        });
        roundtrip_resp(QueryResponse::AuthOk {
            tenant: "acme".into(),
            generation: 12,
        });
        roundtrip_resp(QueryResponse::Error {
            code: ERR_MALFORMED,
            message: "bad frame".into(),
        });
        roundtrip_resp(QueryResponse::Error {
            code: ERR_QUOTA,
            message: "tenant acme over qps".into(),
        });
    }

    #[test]
    fn auth_frame_is_strict() {
        let req = QueryRequest::Auth {
            version: AUTH_VERSION,
            tenant: "tenant-a".into(),
            auth: dim_cluster::auth::token_digest("tok"),
        };
        let body = req.encode();
        // Every truncation fails; so does a trailing byte.
        for cut in 0..body.len() {
            assert_eq!(QueryRequest::decode(REQ_AUTH, &body[..cut]), None);
        }
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(QueryRequest::decode(REQ_AUTH, &padded), None);
        // A hostile tenant-id length is refused before allocation.
        let mut hostile = vec![AUTH_VERSION];
        put_u32(&mut hostile, u32::MAX);
        assert_eq!(QueryRequest::decode(REQ_AUTH, &hostile), None);
        // ...as is one merely over the cap.
        let long = "x".repeat(MAX_TENANT_ID_LEN + 1);
        let mut over = vec![AUTH_VERSION];
        put_u32(&mut over, long.len() as u32);
        over.extend_from_slice(long.as_bytes());
        over.extend_from_slice(&[0; 32]);
        assert_eq!(QueryRequest::decode(REQ_AUTH, &over), None);
        // Non-UTF-8 tenant ids are refused.
        let mut bad = vec![AUTH_VERSION];
        put_u32(&mut bad, 1);
        bad.push(0xFF);
        bad.extend_from_slice(&[0; 32]);
        assert_eq!(QueryRequest::decode(REQ_AUTH, &bad), None);
    }

    #[test]
    fn auth_never_rides_in_a_batch() {
        // Request side: an AUTH entry rejects the whole frame.
        let auth = QueryRequest::Auth {
            version: AUTH_VERSION,
            tenant: "a".into(),
            auth: [7; 32],
        };
        let inner = auth.encode();
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        body.push(REQ_AUTH);
        put_u32(&mut body, inner.len() as u32);
        body.extend_from_slice(&inner);
        assert_eq!(decode_batch(&body), None);
        // Response side: an AuthOk entry rejects the whole frame.
        let ok = QueryResponse::AuthOk {
            tenant: "a".into(),
            generation: 1,
        };
        let inner = ok.encode();
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        body.push(RESP_AUTH);
        put_u32(&mut body, inner.len() as u32);
        body.extend_from_slice(&inner);
        assert_eq!(decode_response_batch(&body), None);
    }

    #[test]
    fn reload_bool_is_strict() {
        let mut body = Vec::new();
        put_u64(&mut body, 7);
        body.push(2); // neither 0 nor 1
        assert_eq!(QueryResponse::decode(RESP_RELOAD, &body), None);
    }

    #[test]
    fn batch_roundtrips_in_order() {
        let reqs = vec![
            QueryRequest::Stats,
            QueryRequest::Spread { seeds: vec![1, 2] },
            QueryRequest::TopK {
                k: 3,
                include: vec![0],
                exclude: vec![],
            },
            QueryRequest::Spread { seeds: vec![] },
        ];
        assert_eq!(decode_batch(&encode_batch(&reqs)), Some(reqs));
        assert_eq!(decode_batch(&encode_batch(&[])), Some(vec![]));

        let resps = vec![
            QueryResponse::Spread {
                covered: 1,
                theta: 2,
                num_nodes: 3,
            },
            QueryResponse::Error {
                code: ERR_UNSUPPORTED,
                message: "nope".into(),
            },
        ];
        assert_eq!(decode_response_batch(&encode_response_batch(&resps)), Some(resps));
    }

    #[test]
    fn batch_rejects_nesting_admin_and_truncation() {
        // A Reload entry rejects the whole frame: batches are read-only.
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        body.push(REQ_RELOAD);
        put_u32(&mut body, 0);
        assert_eq!(decode_batch(&body), None);
        // So does a nested batch.
        let inner = encode_batch(&[QueryRequest::Stats]);
        let mut body = Vec::new();
        put_u32(&mut body, 1);
        body.push(REQ_BATCH);
        put_u32(&mut body, inner.len() as u32);
        body.extend_from_slice(&inner);
        assert_eq!(decode_batch(&body), None);
        // Every truncation of a valid batch fails.
        let body = encode_batch(&[
            QueryRequest::Spread { seeds: vec![1] },
            QueryRequest::Stats,
        ]);
        for cut in 0..body.len() {
            assert_eq!(decode_batch(&body[..cut]), None, "prefix of {cut} bytes");
        }
        // Hostile count fails before allocation.
        let mut body = Vec::new();
        put_u32(&mut body, u32::MAX);
        assert_eq!(decode_batch(&body), None);
        assert_eq!(decode_response_batch(&body), None);
    }

    #[test]
    fn truncation_rejected() {
        let req = QueryRequest::TopK {
            k: 3,
            include: vec![1, 2, 3],
            exclude: vec![4, 5],
        };
        let body = req.encode();
        for cut in 0..body.len() {
            assert_eq!(
                QueryRequest::decode(req.opcode(), &body[..cut]),
                None,
                "prefix of {cut} bytes accepted"
            );
        }
        let resp = QueryResponse::TopK {
            seeds: vec![4, 1],
            marginals: vec![9, 3],
            covered: 12,
            theta: 40,
            num_nodes: 20,
        };
        let body = resp.encode();
        for cut in 0..body.len() {
            assert_eq!(QueryResponse::decode(resp.opcode(), &body[..cut]), None);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = QueryRequest::Stats.encode();
        body.push(0);
        assert_eq!(QueryRequest::decode(REQ_STATS, &body), None);
        let mut body = QueryRequest::Spread { seeds: vec![1] }.encode();
        body.push(0);
        assert_eq!(QueryRequest::decode(REQ_SPREAD, &body), None);
    }

    #[test]
    fn hostile_count_rejected_before_allocation() {
        // A count of u64::MAX with a 1-byte body must fail fast.
        let mut body = Vec::new();
        put_u64(&mut body, u64::MAX);
        body.push(0);
        assert_eq!(QueryRequest::decode(REQ_SPREAD, &body), None);
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert_eq!(QueryRequest::decode(0x7f, &[]), None);
        assert_eq!(QueryResponse::decode(0x00, &[]), None);
    }

    #[test]
    fn spread_estimate_formula() {
        assert_eq!(spread_estimate(50, 100, 200), 100.0);
        assert_eq!(spread_estimate(0, 0, 10), 0.0);
    }
}
