//! XXH64 (seed 0) — the checksum of every file this crate writes and of
//! [`crate::graph_fingerprint`]. Not cryptographic; it guards against
//! truncation and bit rot, not adversaries. Four independent 64-bit lanes
//! take a 32-byte stripe per step, so it hashes at about memory speed.

use std::io::{self, Write};

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64 of `bytes`, seed 0.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.finish()
}

/// Streaming XXH64, seed 0: the bytes written through [`Write`], however
/// they are split, hash to [`checksum`] of their concatenation.
#[derive(Debug)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The bytes of an unfinished stripe: `buf[..buf_len]`.
    buf: [u8; 32],
    buf_len: usize,
    total_len: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; 32],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8; 32]) {
        for (i, acc) in self.lanes.iter_mut().enumerate() {
            *acc = round(*acc, u64_at(stripe, 8 * i));
        }
    }

    /// Hashes `bytes` after everything written so far.
    fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.buf_len > 0 {
            let fill = bytes.len().min(32 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + fill].copy_from_slice(&bytes[..fill]);
            self.buf_len += fill;
            bytes = &bytes[fill..];
            if self.buf_len < 32 {
                return;
            }
            let stripe = self.buf;
            self.stripe(&stripe);
        }
        let (stripes, tail) = bytes.as_chunks::<32>();
        for stripe in stripes {
            self.stripe(stripe);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// The hash of everything written so far; writing may continue.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total_len >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.lanes {
                h = (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total_len);
        let tail = &self.buf[..self.buf_len];
        let (words, rest) = tail.as_chunks::<8>();
        for word in words {
            h ^= round(0, u64::from_le_bytes(*word));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        }
        let rest = match rest.split_first_chunk::<4>() {
            Some((word, rest)) => {
                h ^= (u32::from_le_bytes(*word) as u64).wrapping_mul(P1);
                h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
                rest
            }
            None => rest,
        };
        for &b in rest {
            h ^= (b as u64).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

impl Write for Xxh64 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published XXH64 test vectors (seed 0): the short path, and one
    /// input of 39 bytes that takes a full stripe and a tail.
    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    /// The low 32 bits of XXH64 (seed 0) are a zstd frame's content
    /// checksum; these were read from frames the zstd CLI wrote for the
    /// inputs `(131 i + 17) mod 256`, `i < len`. They cover what the vectors
    /// above do not: the 8-byte tail words and both sides of one stripe.
    #[test]
    fn low_half_matches_zstd_frame_checksums() {
        for (len, low) in [
            (8, 0x89fa_86de),
            (31, 0x5d2d_0233),
            (32, 0x173c_f196),
            (33, 0x4fe2_8fdc),
            (64, 0x4cbc_9f67),
            (100, 0xe09d_8123),
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            assert_eq!(checksum(&bytes) as u32, low, "{len} bytes");
        }
    }
}
