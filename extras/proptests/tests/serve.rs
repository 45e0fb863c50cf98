//! Property-based tests for the query protocol codecs.
//!
//! The encodings are canonical (one byte string per message), so beyond
//! roundtripping we can assert the strong form of corruption detection:
//! a mutated body either fails to decode or decodes to a *different*
//! message — it can never impersonate the original. Batch frames get the
//! same treatment: roundtrip in order, truncation always detected, and
//! admin/nested entries always rejected.

use dim_serve::proto::{
    decode_batch, decode_response_batch, encode_batch, encode_response_batch, QueryRequest,
    QueryResponse, SketchStats, REQ_AUTH, REQ_BATCH, REQ_RELOAD, RESP_AUTH, RESP_BATCH,
    RESP_ERROR, RESP_RELOAD, RESP_SPREAD, RESP_STATS, RESP_TOP_K,
};
use proptest::prelude::*;

fn any_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(any::<u32>(), 0..40)
}

/// Tenant ids within the wire cap (`MAX_TENANT_ID_LEN`), including empty.
fn any_tenant_id() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_-]{0,40}"
}

fn any_digest() -> impl Strategy<Value = [u8; 32]> {
    any::<[u8; 32]>()
}

fn any_request() -> impl Strategy<Value = QueryRequest> {
    prop_oneof![
        any_ids().prop_map(|seeds| QueryRequest::Spread { seeds }),
        (any::<u32>(), any_ids(), any_ids()).prop_map(|(k, include, exclude)| {
            QueryRequest::TopK {
                k,
                include,
                exclude,
            }
        }),
        Just(QueryRequest::Stats),
        Just(QueryRequest::Reload),
        (any::<u8>(), any_tenant_id(), any_digest()).prop_map(|(version, tenant, auth)| {
            QueryRequest::Auth {
                version,
                tenant,
                auth,
            }
        }),
    ]
}

/// Requests allowed inside a batch (everything except admin/session ops).
fn any_batchable_request() -> impl Strategy<Value = QueryRequest> {
    any_request().prop_filter("batches carry read-only queries", |r| {
        !matches!(r, QueryRequest::Reload | QueryRequest::Auth { .. })
    })
}

fn any_response() -> impl Strategy<Value = QueryResponse> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(covered, theta, num_nodes)| {
            QueryResponse::Spread {
                covered,
                theta,
                num_nodes,
            }
        }),
        (
            prop::collection::vec((any::<u32>(), any::<u64>()), 0..30),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(pairs, covered, theta, num_nodes)| {
                let (seeds, marginals) = pairs.into_iter().unzip();
                QueryResponse::TopK {
                    seeds,
                    marginals,
                    covered,
                    theta,
                    num_nodes,
                }
            }),
        (
            (
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                any::<u64>(),
            ),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(|(shape, serving)| {
                let (num_nodes, theta, shard_count, total_rr_size, queries_answered) = shape;
                let (generation, shed, quota_shed, p50_us, p95_us, p99_us) = serving;
                QueryResponse::Stats(SketchStats {
                    num_nodes,
                    theta,
                    shard_count,
                    total_rr_size,
                    queries_answered,
                    generation,
                    shed,
                    quota_shed,
                    p50_us,
                    p95_us,
                    p99_us,
                })
            }),
        (any::<u64>(), any::<bool>()).prop_map(|(generation, changed)| {
            QueryResponse::Reload {
                generation,
                changed,
            }
        }),
        (any_tenant_id(), any::<u64>()).prop_map(|(tenant, generation)| {
            QueryResponse::AuthOk { tenant, generation }
        }),
        (any::<u8>(), "[ -~]{0,60}").prop_map(|(code, message)| {
            QueryResponse::Error { code, message }
        }),
    ]
}

proptest! {
    #[test]
    fn request_roundtrip(req in any_request()) {
        let body = req.encode();
        prop_assert_eq!(QueryRequest::decode(req.opcode(), &body), Some(req));
    }

    #[test]
    fn response_roundtrip(resp in any_response()) {
        let body = resp.encode();
        prop_assert_eq!(QueryResponse::decode(resp.opcode(), &body), Some(resp));
    }

    #[test]
    fn request_truncation_detected(req in any_request()) {
        let body = req.encode();
        for cut in 0..body.len() {
            prop_assert_eq!(QueryRequest::decode(req.opcode(), &body[..cut]), None);
        }
    }

    #[test]
    fn response_truncation_detected(resp in any_response()) {
        let body = resp.encode();
        for cut in 0..body.len() {
            prop_assert_eq!(QueryResponse::decode(resp.opcode(), &body[..cut]), None);
        }
    }

    #[test]
    fn request_mutation_never_impersonates(
        req in any_request(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut body = req.encode();
        if body.is_empty() {
            return Ok(());
        }
        let i = byte.index(body.len());
        body[i] ^= 1 << bit;
        prop_assert_ne!(QueryRequest::decode(req.opcode(), &body), Some(req));
    }

    #[test]
    fn response_mutation_never_impersonates(
        resp in any_response(),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut body = resp.encode();
        if body.is_empty() {
            return Ok(());
        }
        let i = byte.index(body.len());
        body[i] ^= 1 << bit;
        prop_assert_ne!(QueryResponse::decode(resp.opcode(), &body), Some(resp));
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        opcode in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = QueryRequest::decode(opcode, &body);
        let _ = QueryResponse::decode(opcode, &body);
        let _ = decode_batch(&body);
        let _ = decode_response_batch(&body);
    }

    #[test]
    fn response_opcodes_are_disjoint_from_requests(resp in any_response()) {
        // A reply frame can never decode as a request, so a confused peer
        // fails loudly instead of executing a ghost query.
        let body = resp.encode();
        prop_assert!(matches!(
            resp.opcode(),
            RESP_SPREAD | RESP_TOP_K | RESP_STATS | RESP_RELOAD | RESP_AUTH | RESP_ERROR
        ));
        prop_assert_eq!(QueryRequest::decode(resp.opcode(), &body), None);
    }

    #[test]
    fn batch_roundtrip_preserves_order(
        reqs in prop::collection::vec(any_batchable_request(), 0..12),
    ) {
        let body = encode_batch(&reqs);
        prop_assert_eq!(decode_batch(&body), Some(reqs));
    }

    #[test]
    fn response_batch_roundtrip_preserves_order(
        resps in prop::collection::vec(any_response(), 0..12),
    ) {
        let body = encode_response_batch(&resps);
        prop_assert_eq!(decode_response_batch(&body), Some(resps));
    }

    #[test]
    fn batch_truncation_detected(
        reqs in prop::collection::vec(any_batchable_request(), 1..8),
    ) {
        let body = encode_batch(&reqs);
        for cut in 0..body.len() {
            prop_assert_eq!(decode_batch(&body[..cut]), None);
        }
    }

    #[test]
    fn batch_mutation_never_impersonates(
        reqs in prop::collection::vec(any_batchable_request(), 1..8),
        byte in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut body = encode_batch(&reqs);
        let i = byte.index(body.len());
        body[i] ^= 1 << bit;
        prop_assert_ne!(decode_batch(&body), Some(reqs));
    }

    #[test]
    fn batch_rejects_admin_and_nested_entries(
        reqs in prop::collection::vec(any_batchable_request(), 0..6),
        evil_opcode in prop_oneof![Just(REQ_BATCH), Just(REQ_RELOAD), Just(REQ_AUTH)],
        position in any::<prop::sample::Index>(),
    ) {
        // Splice a forbidden (but individually well-formed) entry into an
        // otherwise valid batch: the whole frame must be rejected.
        let mut entries: Vec<(u8, Vec<u8>)> = reqs
            .iter()
            .map(|r| (r.opcode(), r.encode()))
            .collect();
        let evil_body = if evil_opcode == REQ_BATCH {
            encode_batch(&[])
        } else if evil_opcode == REQ_AUTH {
            QueryRequest::Auth {
                version: 1,
                tenant: "sneaky".to_string(),
                auth: [7u8; 32],
            }
            .encode()
        } else {
            Vec::new()
        };
        entries.insert(position.index(entries.len() + 1), (evil_opcode, evil_body));
        let mut body = Vec::new();
        dim_cluster::ops::put_u32(&mut body, entries.len() as u32);
        for (op, entry) in &entries {
            body.push(*op);
            dim_cluster::ops::put_u32(&mut body, entry.len() as u32);
            body.extend_from_slice(entry);
        }
        prop_assert_eq!(decode_batch(&body), None);
    }

    #[test]
    fn response_batch_rejects_auth_entries(
        resps in prop::collection::vec(any_response(), 0..6),
        position in any::<prop::sample::Index>(),
    ) {
        // An AuthOk spliced into a reply batch (well-formed on its own)
        // must poison the whole frame — session-scope replies never ride
        // inside a batch.
        let evil = QueryResponse::AuthOk {
            tenant: "sneaky".to_string(),
            generation: 3,
        };
        let mut entries: Vec<(u8, Vec<u8>)> = resps
            .iter()
            .map(|r| (r.opcode(), r.encode()))
            .collect();
        entries.insert(position.index(entries.len() + 1), (evil.opcode(), evil.encode()));
        let mut body = Vec::new();
        dim_cluster::ops::put_u32(&mut body, entries.len() as u32);
        for (op, entry) in &entries {
            body.push(*op);
            dim_cluster::ops::put_u32(&mut body, entry.len() as u32);
            body.extend_from_slice(entry);
        }
        prop_assert_eq!(decode_response_batch(&body), None);
    }
}
