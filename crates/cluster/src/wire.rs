//! Framing, size accounting and typed errors for the messages exchanged by
//! the distributed algorithms.
//!
//! NewGreeDi's workers upload sparse `⟨node, Δ⟩` tuples (§III-B2 of the
//! paper) and pulled marginals, serialized for real as
//! [`crate::ops::WorkerReply::Deltas`] and `Marginals`; this module holds the
//! length-prefixed frame every op and reply travels in, and the size
//! formulas the simulated backends charge so their traffic accounting is
//! byte-accurate:
//! `[u32 count] ([u32 node] [u32 delta])*` for delta vectors, and
//! `[u32 count] ([u32 value])*` for plain id vectors (little-endian).

use std::io::{self, IoSliceMut, Read, Write};

/// A sparse coverage-delta message: each tuple says "node `v`'s marginal
/// coverage decreases by `delta`".
pub type DeltaVec = Vec<(u32, u32)>;

/// Typed decode failure for wire messages.
///
/// The master's reduce stages used to `.expect()` on malformed worker
/// messages; a single corrupt frame from one machine would abort the whole
/// run. Decoders return `None` (they see only a byte slice, with no context
/// to attach); the algorithm layer wraps that into a `WireError` naming the
/// phase and sender so callers can decide what to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Phase label during which the bad message arrived (see [`crate::phase`]).
    pub phase: &'static str,
    /// Index of the machine whose message failed to decode, if known.
    pub machine: Option<usize>,
    /// What was wrong with the message.
    pub kind: WireErrorKind,
}

/// What kind of decode failure occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Header or body truncated / trailing garbage / count overflow.
    Malformed,
    /// A frame arrived shorter than its fixed-size preamble (e.g. a REPLY
    /// body without its 8-byte elapsed-time prefix). Distinguished from
    /// [`WireErrorKind::Malformed`] so hostile-truncation paths are typed
    /// rather than folded into generic decode failure.
    Truncated,
    /// Decoded fine but referenced an out-of-range node/set id.
    IdOutOfRange,
    /// The transport link to a machine failed (connection reset, timeout).
    /// Worker state is resident on that machine, so the round cannot
    /// proceed without it.
    Link,
    /// A registration claimed a machine id another live worker already
    /// holds in this session.
    DuplicateId,
    /// A registration arrived after every slot of the session's expected
    /// cluster size was taken (retryable by the worker: the *next* session
    /// may have room).
    SessionFull,
    /// The worker answered with [`crate::WorkerReply::Err`]: it refused the
    /// op, saying why. The link itself is healthy.
    Refused(String),
}

impl WireError {
    /// A malformed-message error in `phase` from machine `machine`.
    pub fn malformed(phase: &'static str, machine: usize) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::Malformed,
        }
    }

    /// A truncated-frame error in `phase` from machine `machine`.
    pub fn truncated(phase: &'static str, machine: usize) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::Truncated,
        }
    }

    /// An out-of-range id error in `phase` from machine `machine`.
    pub fn id_out_of_range(phase: &'static str, machine: usize) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::IdOutOfRange,
        }
    }

    /// Machine `machine`'s refusal of its op in `phase`, in its own words.
    pub fn refused(phase: &'static str, machine: usize, text: String) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::Refused(text),
        }
    }

    /// A dead-link error in `phase` on the connection to `machine`.
    pub fn link(phase: &'static str, machine: usize) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::Link,
        }
    }

    /// A duplicate-registration error in `phase` for machine `machine`.
    pub(crate) fn duplicate_id(phase: &'static str, machine: usize) -> Self {
        WireError {
            phase,
            machine: Some(machine),
            kind: WireErrorKind::DuplicateId,
        }
    }

    /// A session-full error in `phase` (no machine slot to attribute).
    pub(crate) fn session_full(phase: &'static str) -> Self {
        WireError {
            phase,
            machine: None,
            kind: WireErrorKind::SessionFull,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match &self.kind {
            WireErrorKind::Malformed => "malformed wire message",
            WireErrorKind::Truncated => "truncated wire message",
            WireErrorKind::IdOutOfRange => "out-of-range id in wire message",
            WireErrorKind::Link => "dead link",
            WireErrorKind::DuplicateId => "duplicate machine id in registration",
            WireErrorKind::SessionFull => "session already has its full membership",
            WireErrorKind::Refused(_) => "refusal",
        };
        match self.machine {
            Some(m) => write!(f, "{what} from machine {m} in phase `{}`", self.phase)?,
            None => write!(f, "{what} in phase `{}`", self.phase)?,
        }
        match &self.kind {
            WireErrorKind::Refused(text) => write!(f, ": {text}"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on a single frame's declared length (header + body), shared by
/// every transport built on [`write_frame`]/[`read_frame`]: the process
/// backend, the rendezvous handshake, and the `dim-serve` query protocol.
pub const MAX_FRAME: usize = 64 << 20;

/// Bodies up to this size are copied next to their header so the frame
/// leaves in one `write`; larger ones (shard builds, big delta vectors) go
/// out as header, then body, uncopied.
const COALESCE_MAX: usize = 16 << 10;

/// Writes one length-prefixed frame: `[u32 len LE][u8 opcode][body]`,
/// where `len` counts the opcode byte plus the body. The sockets this runs
/// on are `TCP_NODELAY`, where every `write` is a segment and a wake-up of
/// the peer, so a small frame is one `write` and no frame is more than two.
pub fn write_frame(w: &mut impl Write, opcode: u8, body: &[u8]) -> io::Result<()> {
    let len = 1 + body.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4] = opcode;
    if body.len() <= COALESCE_MAX {
        let mut frame = Vec::with_capacity(head.len() + body.len());
        frame.extend_from_slice(&head);
        frame.extend_from_slice(body);
        w.write_all(&frame)?;
    } else {
        w.write_all(&head)?;
        w.write_all(body)?;
    }
    w.flush()
}

/// Reads one frame written by [`write_frame`], rejecting zero-length and
/// over-[`MAX_FRAME`] headers before allocating. Two reads when the frame
/// has arrived whole: the length, then opcode and body together, the body
/// landing in the buffer that is returned.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut opcode = [0u8; 1];
    let mut body = vec![0u8; len - 1];
    let got = loop {
        let mut bufs = [IoSliceMut::new(&mut opcode), IoSliceMut::new(&mut body)];
        match r.read_vectored(&mut bufs) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    r.read_exact(&mut body[got - 1..])?;
    Ok((opcode[0], body))
}

/// An `InvalidData` error for protocol violations.
pub fn protocol_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Size in bytes of an encoded delta vector with `count` tuples, without
/// materializing it. Used for ablation accounting.
pub fn delta_wire_size(count: usize) -> u64 {
    4 + 8 * count as u64
}

/// Size in bytes of an encoded id vector with `count` entries.
pub fn ids_wire_size(count: usize) -> u64 {
    4 + 4 * count as u64
}

/// Size in bytes of one raw little-endian `u64` on the wire — the payload
/// of every message that ships a single count (covered totals, validation
/// coverage, partial sums).
pub fn u64_wire_size() -> u64 {
    std::mem::size_of::<u64>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_wire_size_is_eight() {
        assert_eq!(u64_wire_size(), 8);
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"payload").unwrap();
        let (opcode, body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(opcode, 7);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn frame_rejects_zero_and_oversized_lengths() {
        // len = 0 frames would loop forever; the reader rejects them.
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice()).is_err());
        // A header claiming more than MAX_FRAME must fail before allocating.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        // And the writer refuses to produce such a frame in the first place.
        let body = vec![0u8; MAX_FRAME];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, 0, &body).is_err());
    }

    #[test]
    fn frame_rejects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"abcdef").unwrap();
        for cut in [0, 2, 4, buf.len() - 1] {
            assert!(read_frame(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wire_error_display_names_phase_and_machine() {
        let e = WireError::malformed("delta-upload", 3);
        let s = e.to_string();
        assert!(s.contains("delta-upload") && s.contains("machine 3"), "{s}");
        let e = WireError::id_out_of_range("coverage-upload", 0);
        assert_eq!(e.kind, WireErrorKind::IdOutOfRange);
        assert!(e.to_string().contains("out-of-range"));
        let e = WireError::truncated("coverage-upload", 2);
        assert_eq!(e.kind, WireErrorKind::Truncated);
        let s = e.to_string();
        assert!(s.contains("truncated") && s.contains("machine 2"), "{s}");
    }
}
