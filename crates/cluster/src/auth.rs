//! Shared token-auth primitives for every authenticated port.
//!
//! Both authenticated surfaces — the serve port's AUTH frame
//! (`dim_serve::auth`) and the rendezvous JOIN handshake
//! ([`crate::rendezvous`], gated by `DIM_CLUSTER_TOKEN`) — verify the
//! same way: the wire carries a fixed 32-byte SHA-256 digest of the
//! secret, never the secret itself, and the verifier compares digests in
//! constant time so a byte-wise early exit cannot leak prefix matches.
//!
//! SHA-256 is implemented here (FIPS 180-4, ~60 lines) because the
//! workspace takes no registry dependencies; the test vectors below pin
//! the implementation to the published digests.

/// Length of every token digest on the wire.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data` (FIPS 180-4).
pub(crate) fn sha256(data: &[u8]) -> Digest {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data · 0x80 · zeros · bit-length (big-endian u64),
    // total a multiple of 64 bytes.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (t, word) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The digest a bearer of `token` presents on the wire.
pub fn token_digest(token: &str) -> Digest {
    sha256(token.as_bytes())
}

/// Constant-time equality: the comparison touches every byte of both
/// inputs regardless of where they first differ, so response timing does
/// not leak how long a matching prefix was. (Length mismatch returns
/// early — lengths are public: every digest is [`DIGEST_LEN`] bytes.)
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Verifies a presented digest against the expected one, constant-time.
pub fn verify_digest(presented: &Digest, expected: &Digest) -> bool {
    ct_eq(presented, expected)
}

/// The cluster-wide rendezvous token from `DIM_CLUSTER_TOKEN`, as the
/// digest the JOIN handshake carries and checks. `None` (unset or empty)
/// means the rendezvous port accepts unauthenticated joiners — the
/// pre-auth behavior.
pub(crate) fn cluster_token_digest() -> Option<Digest> {
    match std::env::var("DIM_CLUSTER_TOKEN") {
        Ok(token) if !token.is_empty() => Some(token_digest(&token)),
        _ => None,
    }
}

/// Parses a 64-hex-char digest (the `token_sha256` form in tenant
/// configs, so operators never store plaintext tokens on disk).
pub fn parse_hex_digest(hex: &str) -> Option<Digest> {
    let hex = hex.trim();
    if hex.len() != DIGEST_LEN * 2 || !hex.is_ascii() {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = hex.as_bytes();
    let mut out = [0u8; DIGEST_LEN];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = nibble(bytes[2 * i])? << 4 | nibble(bytes[2 * i + 1])?;
    }
    Some(out)
}

/// Renders a digest as lowercase hex (the `token_sha256` config form).
pub fn digest_hex(digest: &Digest) -> String {
    let mut out = String::with_capacity(DIGEST_LEN * 2);
    for b in digest {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST test vectors.
    #[test]
    fn sha256_matches_published_vectors() {
        assert_eq!(
            digest_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            digest_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            digest_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block input (length > 64 exercises the second block path).
        let long = vec![b'a'; 1_000];
        assert_eq!(
            digest_hex(&sha256(&long)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn hex_roundtrip_and_rejection() {
        let d = token_digest("swordfish");
        assert_eq!(parse_hex_digest(&digest_hex(&d)), Some(d));
        assert_eq!(parse_hex_digest("abc"), None);
        assert_eq!(parse_hex_digest(&"g".repeat(64)), None);
        // Uppercase hex is accepted.
        assert_eq!(parse_hex_digest(&digest_hex(&d).to_uppercase()), Some(d));
    }

    #[test]
    fn ct_eq_semantics() {
        assert!(ct_eq(b"same bytes", b"same bytes"));
        assert!(!ct_eq(b"same bytes", b"same bytez"));
        assert!(!ct_eq(b"short", b"longer input"));
        assert!(ct_eq(b"", b""));
        let a = token_digest("a");
        let b = token_digest("b");
        assert!(verify_digest(&a, &a));
        assert!(!verify_digest(&a, &b));
    }
}
