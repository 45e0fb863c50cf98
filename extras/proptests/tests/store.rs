//! Property-based tests for the RR-sketch snapshot codec: arbitrary
//! shards round-trip, and truncated or bit-flipped files always surface
//! as typed errors — never panics, never silent misreads.

use dim_cluster::SamplerSpec;
use dim_coverage::PooledSets;
use dim_store::{decode_shard, encode_shard, fnv1a, ShardHeader, StoreError};
use proptest::prelude::*;

fn any_sampler() -> impl Strategy<Value = SamplerSpec> {
    prop_oneof![
        Just(SamplerSpec::StandardIc),
        Just(SamplerSpec::StandardLt),
        Just(SamplerSpec::Subsim),
    ]
}

/// A coherent shard: element records over a universe of `num_sets` node
/// ids, with a header that agrees with the payload.
fn any_shard() -> impl Strategy<Value = (ShardHeader, PooledSets)> {
    (1usize..40, any_sampler(), any::<u64>(), any::<u64>(), 1u32..6)
        .prop_flat_map(|(num_sets, sampler, fingerprint, seed, shard_count)| {
            let records = prop::collection::vec(
                prop::collection::vec(0..num_sets as u32, 0..8),
                0..30,
            );
            (
                records,
                0..shard_count,
                Just(num_sets),
                Just(sampler),
                Just(fingerprint),
                Just(seed),
                Just(shard_count),
                any::<u64>(),
            )
        })
        .prop_map(
            |(records, shard_id, num_sets, sampler, fingerprint, seed, shard_count, edges)| {
                let mut elements = PooledSets::new();
                for r in &records {
                    elements.push(r);
                }
                let header = ShardHeader {
                    fingerprint,
                    sampler,
                    seed,
                    theta: elements.len() as u64,
                    shard_id,
                    shard_count,
                    num_sets: num_sets as u64,
                    num_elements: elements.len() as u64,
                    edges_examined: edges,
                };
                (header, elements)
            },
        )
}

fn encode(header: &ShardHeader, elements: &PooledSets) -> Vec<u8> {
    let index = elements.transpose(header.num_sets as usize);
    encode_shard(header, elements, &index)
}

proptest! {
    /// Header block round-trips its canonical encoding.
    #[test]
    fn header_roundtrip((header, _) in any_shard()) {
        prop_assert_eq!(ShardHeader::decode(&header.encode()).unwrap(), header);
    }

    /// Whole shard files round-trip: header, every element record, and
    /// the transpose index all survive.
    #[test]
    fn shard_roundtrip((header, elements) in any_shard()) {
        let bytes = encode(&header, &elements);
        let snap = decode_shard(&bytes).unwrap();
        prop_assert_eq!(snap.header, header);
        prop_assert_eq!(snap.elements.len(), elements.len());
        for i in 0..elements.len() {
            prop_assert_eq!(snap.elements.get(i), elements.get(i));
        }
        let index = elements.transpose(header.num_sets as usize);
        for v in 0..index.len() {
            prop_assert_eq!(snap.index.get(v), index.get(v));
        }
    }

    /// Every possible truncation is detected as a typed error.
    #[test]
    fn truncation_detected((header, elements) in any_shard(), cut in any::<prop::sample::Index>()) {
        let bytes = encode(&header, &elements);
        let len = cut.index(bytes.len());
        prop_assert!(matches!(
            decode_shard(&bytes[..len]),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// Flipping any single bit anywhere in the file is caught by the
    /// magic/version checks or a checksum — decode never succeeds on a
    /// mutated file and never panics.
    #[test]
    fn mutation_detected((header, elements) in any_shard(),
                         pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut bytes = encode(&header, &elements);
        let p = pos.index(bytes.len());
        bytes[p] ^= 1 << bit;
        prop_assert!(decode_shard(&bytes).is_err(), "flip at byte {} decoded", p);
    }

    /// Trailing garbage after the body checksum is rejected.
    #[test]
    fn trailing_bytes_detected((header, elements) in any_shard(), tail in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut bytes = encode(&header, &elements);
        bytes.extend_from_slice(&tail);
        prop_assert!(decode_shard(&bytes).is_err());
    }

    /// Completely arbitrary byte soup never panics the decoder, even when
    /// prefixed with valid magic + version to reach the deeper parsers.
    #[test]
    fn arbitrary_bytes_never_panic(mut soup in prop::collection::vec(any::<u8>(), 0..256),
                                   with_magic in any::<bool>()) {
        if with_magic && soup.len() >= 8 {
            soup[..4].copy_from_slice(b"DIMR");
            soup[4..8].copy_from_slice(&1u32.to_le_bytes());
        }
        let _ = decode_shard(&soup);
    }

    /// Targeted offset-array corruption: overwrite one u64 in the elements
    /// section's offset array with an arbitrary value and *re-fix the body
    /// checksum*, so the hostile offsets reach the deep `PooledSets`
    /// reassembly path rather than being stopped by the checksum. Decoding
    /// must surface `StoreError::Corrupt` — never panic, never succeed.
    #[test]
    fn offset_corruption_surfaces_corrupt((header, elements) in any_shard(),
                                          slot in any::<prop::sample::Index>(),
                                          value in any::<u64>()) {
        let bytes = encode(&header, &elements);
        let hdr_end = 4 + 4 + 4 + header.encode().len() + 8;
        // Elements section: count u64, then count+1 offsets.
        let off0 = hdr_end + 8;
        let i = slot.index(elements.len() + 1);
        let pos = off0 + i * 8;
        let original = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        prop_assume!(value != original);
        let mut mutated = bytes;
        mutated[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
        let body_end = mutated.len() - 8;
        let sum = fnv1a(&mutated[hdr_end..body_end]);
        mutated[body_end..].copy_from_slice(&sum.to_le_bytes());
        prop_assert!(
            matches!(decode_shard(&mutated), Err(StoreError::Corrupt { .. })),
            "offset slot {} set to {} was not rejected as Corrupt", i, value
        );
    }

    /// FNV-1a matches the reference test vectors' structure: empty input
    /// hashes to the offset basis, and the hash is order-sensitive.
    #[test]
    fn fnv_order_sensitive(a in any::<u8>(), b in any::<u8>()) {
        prop_assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        if a != b {
            prop_assert_ne!(fnv1a(&[a, b]), fnv1a(&[b, a]));
        }
    }
}
