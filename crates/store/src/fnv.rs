//! FNV-1a 64, for tests only: no current format uses it. It sealed DIMR
//! v1–v2 and DIMD v1 files, which tests write to check that they are
//! refused, and it defines digests and property seeds that tests pin.
//! This one file is compiled into every test that needs it (`dim-store`
//! and `dim-core` unit tests, the root package's integration tests).

/// FNV-1a 64-bit hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// An envelope as DIMR v1–v2 and DIMD v1 files were sealed: `magic ·
/// version · header_len · header · fnv1a(header) · body · fnv1a(body)`.
#[allow(dead_code)] // not every test that includes this file writes one
pub fn fnv_seal(magic: [u8; 4], version: u32, header: &[u8], body: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header);
    out.extend_from_slice(&fnv1a(header).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}
