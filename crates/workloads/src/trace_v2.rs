//! `pipo-trace v2`: a compressed binary trace format.
//!
//! The v1 text format (`trace.rs`) is convenient to read and diff, but at
//! ~11–18 bytes per access it makes large corpora impractical to bundle.
//! v2 stores the same access stream (losslessly, bit for bit) in a
//! delta + LEB128-varint encoding at typically 2–4 bytes per access:
//!
//! ```text
//! [8]    magic  "PIPOTRC2"
//! varint total access count
//! frames until end of input, each:
//!   varint count        accesses in this frame (1..=FRAME_LEN)
//!   u8     shift        common power-of-two address alignment (0..=63)
//!   varint dict_len     distinct (kind, think) ops in the frame (1..=count)
//!   dict_len × op:      u8 kind (0 = read, 1 = write), varint think_cycles
//!   count × access:
//!     varint op_idx     index into the frame's op dictionary
//!                       (omitted entirely when dict_len == 1)
//!     varint addr       first access: absolute (addr >> shift);
//!                       later: zigzag((addr >> shift) − (prev >> shift))
//! ```
//!
//! Frames are self-contained: the delta chain and the op dictionary
//! restart per frame. All varints are unsigned LEB128 (7 payload bits per
//! byte, most significant continuation bit, at most 10 bytes). Signed
//! deltas use zigzag (`(v << 1) ^ (v >> 63)`) so small negative strides
//! stay short.
//!
//! The codec lives on [`Trace`]: [`Trace::to_v2`] encodes,
//! [`Trace::from_v2`] decodes and validates the whole stream, and
//! [`Trace::from_bytes`] sniffs the magic and falls back to the v1 text
//! parser, so both formats coexist in one corpus. A decoded trace replays
//! through [`Trace::replay`] like any recorded one.
//!
//! # Examples
//!
//! ```
//! use pipo_workloads::{StrideSource, Trace};
//!
//! let trace = Trace::record(&mut StrideSource::new(0, 64, 2), 500);
//! let bytes = trace.to_v2();
//! assert!(bytes.len() * 4 < trace.to_text().len(), "v2 compresses 4x+");
//! let restored = Trace::from_v2(&bytes).expect("round trip");
//! assert_eq!(restored, trace);
//! ```

use std::error::Error;
use std::fmt;

use cache_sim::{Access, AccessKind, Addr};

use crate::trace::{ParseTraceError, Trace};

/// The 8-byte magic prefix of every v2 trace.
pub const TRACE_V2_MAGIC: [u8; 8] = *b"PIPOTRC2";

/// Accesses per frame: enough to amortise each frame's header and op
/// dictionary. The encoder's output depends on it, so changing it changes
/// every encoded trace's bytes.
const FRAME_LEN: usize = 1024;

/// Error decoding a v2 trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeTraceError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace byte {}: {}", self.offset, self.reason)
    }
}

impl Error for DecodeTraceError {}

/// Error loading a trace of either format (see [`Trace::from_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadTraceError {
    /// The input carried the v2 magic but the body was malformed.
    V2(DecodeTraceError),
    /// The input was treated as v1 text but failed to parse.
    V1(ParseTraceError),
    /// The input was neither v2 binary nor valid UTF-8 text.
    NotText,
}

impl fmt::Display for LoadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadTraceError::V2(e) => write!(f, "pipo-trace v2: {e}"),
            LoadTraceError::V1(e) => write!(f, "pipo-trace v1: {e}"),
            LoadTraceError::NotText => {
                write!(f, "not a pipo-trace: no v2 magic and not UTF-8 text")
            }
        }
    }
}

impl Error for LoadTraceError {}

fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// A cursor over encoded bytes with positioned error reporting.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], pos: usize) -> Self {
        Self { bytes, pos }
    }

    fn err(&self, reason: impl Into<String>) -> DecodeTraceError {
        DecodeTraceError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeTraceError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, DecodeTraceError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            let payload = u64::from(b & 0x7f);
            if i == 9 && payload > 1 {
                return Err(self.err("varint overflows 64 bits"));
            }
            v |= payload << (7 * i);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("varint longer than 10 bytes"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Encodes one frame of accesses onto `body`, reusing `dict` as scratch.
fn encode_frame(body: &mut Vec<u8>, dict: &mut Vec<(AccessKind, u64)>, frame: &[Access]) {
    debug_assert!(!frame.is_empty() && frame.len() <= FRAME_LEN);
    // Common alignment: every address in the frame is a multiple of
    // 2^shift, so shifted values (and their deltas) are exact.
    let or = frame.iter().fold(0u64, |acc, a| acc | a.addr.0);
    let shift = if or == 0 { 0 } else { or.trailing_zeros() };
    // Frame-local op dictionary, in order of first appearance.
    dict.clear();
    for a in frame {
        let op = (a.kind, a.think_cycles);
        if !dict.contains(&op) {
            dict.push(op);
        }
    }

    write_varint(body, frame.len() as u64);
    body.push(shift as u8);
    write_varint(body, dict.len() as u64);
    for &(kind, think) in dict.iter() {
        body.push(u8::from(kind.is_write()));
        write_varint(body, think);
    }
    let mut prev = 0u64;
    for (i, a) in frame.iter().enumerate() {
        if dict.len() > 1 {
            let op_idx = dict
                .iter()
                .position(|&op| op == (a.kind, a.think_cycles))
                .expect("op was inserted above");
            write_varint(body, op_idx as u64);
        }
        let shifted = a.addr.0 >> shift;
        if i == 0 {
            write_varint(body, shifted);
        } else {
            write_varint(body, zigzag(shifted.wrapping_sub(prev) as i64));
        }
        prev = shifted;
    }
}

/// Decodes one frame from `r` into `out`, reusing `dict` as scratch.
/// Returns the number of accesses appended.
fn decode_frame(
    r: &mut Reader<'_>,
    dict: &mut Vec<(AccessKind, u64)>,
    out: &mut Vec<Access>,
) -> Result<usize, DecodeTraceError> {
    let count = r.varint()? as usize;
    if count == 0 {
        return Err(r.err("empty frame"));
    }
    // Every access costs at least one byte, so a count exceeding the
    // remaining input is corrupt — reject before reserving any memory.
    if count > r.bytes.len() - r.pos {
        return Err(r.err(format!("frame claims {count} accesses beyond end of input")));
    }
    let shift = u32::from(r.u8()?);
    if shift > 63 {
        return Err(r.err(format!("address shift {shift} out of range")));
    }
    let dict_len = r.varint()? as usize;
    if dict_len == 0 || dict_len > count {
        return Err(r.err(format!(
            "op dictionary length {dict_len} vs {count} accesses"
        )));
    }
    dict.clear();
    for _ in 0..dict_len {
        let kind = match r.u8()? {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => return Err(r.err(format!("unknown access kind {other}"))),
        };
        let think = r.varint()?;
        dict.push((kind, think));
    }
    let mut prev = 0u64;
    for i in 0..count {
        let op_idx = if dict_len > 1 {
            r.varint()? as usize
        } else {
            0
        };
        let Some(&(kind, think)) = dict.get(op_idx) else {
            return Err(r.err(format!("op index {op_idx} out of dictionary ({dict_len})")));
        };
        let raw = r.varint()?;
        let shifted = if i == 0 {
            raw
        } else {
            prev.wrapping_add(unzigzag(raw) as u64)
        };
        if shift > 0 && (shifted << shift) >> shift != shifted {
            return Err(r.err("address overflows its frame shift"));
        }
        prev = shifted;
        out.push(Access {
            addr: Addr(shifted << shift),
            kind,
            think_cycles: think,
        });
    }
    Ok(count)
}

/// Whether `bytes` carry the v2 magic (cheap format sniff).
#[must_use]
pub fn is_v2(bytes: &[u8]) -> bool {
    bytes.len() >= TRACE_V2_MAGIC.len() && bytes[..TRACE_V2_MAGIC.len()] == TRACE_V2_MAGIC
}

impl Trace {
    /// Serialises to the v2 binary format. The encoding is canonical:
    /// decoding the bytes with [`from_v2`](Self::from_v2) and re-encoding
    /// reproduces them.
    #[must_use]
    pub fn to_v2(&self) -> Vec<u8> {
        let mut out = Vec::from(TRACE_V2_MAGIC);
        write_varint(&mut out, self.len() as u64);
        let mut dict = Vec::new();
        for frame in self.accesses().chunks(FRAME_LEN) {
            encode_frame(&mut out, &mut dict, frame);
        }
        out
    }

    /// Parses the v2 binary format.
    ///
    /// # Errors
    ///
    /// Rejects a missing/wrong magic, truncated input (including input cut at
    /// a frame boundary — the header's total count would not be reached),
    /// trailing garbage, and any malformed frame.
    pub fn from_v2(bytes: &[u8]) -> Result<Self, DecodeTraceError> {
        if !is_v2(bytes) {
            return Err(DecodeTraceError {
                offset: 0,
                reason: "missing pipo-trace v2 magic".into(),
            });
        }
        let mut r = Reader::new(bytes, TRACE_V2_MAGIC.len());
        let total = r.varint()?;
        let mut dict = Vec::new();
        let mut accesses = Vec::with_capacity((total as usize).min(bytes.len()));
        let mut decoded = 0u64;
        while !r.done() {
            decoded += decode_frame(&mut r, &mut dict, &mut accesses)? as u64;
            if decoded > total {
                return Err(r.err(format!("more accesses than the declared {total}")));
            }
        }
        if decoded != total {
            return Err(r.err(format!(
                "truncated trace: header declares {total} accesses, found {decoded}"
            )));
        }
        Ok(accesses.into_iter().collect())
    }

    /// Loads either format: v2 binary when the magic matches, otherwise v1
    /// text.
    ///
    /// # Errors
    ///
    /// Returns the format-specific error ([`LoadTraceError`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LoadTraceError> {
        if is_v2(bytes) {
            return Self::from_v2(bytes).map_err(LoadTraceError::V2);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| LoadTraceError::NotText)?;
        text.parse().map_err(LoadTraceError::V1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{PointerChaseSource, StrideSource};

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf, 0);
            assert_eq!(r.varint().expect("valid"), v);
            assert!(r.done());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small: |v| <= 63 fits one varint byte.
        assert!(zigzag(-64) < 128);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new();
        let bytes = trace.to_v2();
        assert_eq!(bytes.len(), TRACE_V2_MAGIC.len() + 1);
        assert_eq!(Trace::from_v2(&bytes).expect("valid"), trace);
    }

    #[test]
    fn multi_frame_trace_round_trips() {
        // 2.5 frames, mixed kinds and think values.
        let mut src = PointerChaseSource::new(1 << 20, 512, 5, 11);
        let trace = Trace::record(&mut src, FRAME_LEN * 2 + FRAME_LEN / 2);
        let bytes = trace.to_v2();
        assert_eq!(Trace::from_v2(&bytes).expect("valid"), trace);
    }

    #[test]
    fn compresses_stride_traces_hard() {
        let trace = Trace::record(&mut StrideSource::new(0x4000, 64, 3), 1000);
        let v1 = trace.to_text().len();
        let v2 = trace.to_v2().len();
        // Single-op frames omit op indices: ~1 byte per access.
        assert!(
            v2 * 8 < v1,
            "stride should compress 8x+: v1 {v1} bytes, v2 {v2} bytes"
        );
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let err = Trace::from_v2(b"not a trace").unwrap_err();
        assert!(err.reason.contains("magic"), "{err}");
        assert_eq!(err.offset, 0);

        let trace = Trace::record(&mut StrideSource::new(0, 64, 1), 300);
        let bytes = trace.to_v2();
        // Truncation anywhere — mid-frame or at the frame boundary — must
        // be rejected (the declared total no longer matches).
        for cut in [bytes.len() - 1, bytes.len() / 2, TRACE_V2_MAGIC.len() + 2] {
            assert!(
                Trace::from_v2(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_fields() {
        let trace = Trace::record(&mut StrideSource::new(0, 64, 1), 10);
        let mut bytes = trace.to_v2();
        bytes.push(0x00);
        // One trailing byte parses as the start of a frame: count 0.
        assert!(Trace::from_v2(&bytes).is_err(), "trailing garbage accepted");

        // A corrupt shift byte (> 63) is rejected with its offset.
        let mut bytes = trace.to_v2();
        // Layout: magic(8) + count varint(1) + frame count varint(1) + shift.
        let shift_at = TRACE_V2_MAGIC.len() + 2;
        bytes[shift_at] = 77;
        let err = Trace::from_v2(&bytes).unwrap_err();
        assert!(err.reason.contains("shift"), "{err}");
    }

    #[test]
    fn load_trace_sniffs_both_formats() {
        let trace = Trace::record(&mut StrideSource::new(0x100, 64, 2), 20);
        assert_eq!(Trace::from_bytes(&trace.to_v2()).expect("v2"), trace);
        assert_eq!(
            Trace::from_bytes(trace.to_text().as_bytes()).expect("v1"),
            trace
        );
        assert!(matches!(
            Trace::from_bytes(&[0xff, 0xfe, 0x00, 0x01]),
            Err(LoadTraceError::NotText)
        ));
        assert!(matches!(
            Trace::from_bytes(b"X 0x40 1"),
            Err(LoadTraceError::V1(_))
        ));
        let mut corrupt = trace.to_v2();
        corrupt.truncate(corrupt.len() - 1);
        assert!(matches!(
            Trace::from_bytes(&corrupt),
            Err(LoadTraceError::V2(_))
        ));
    }

    #[test]
    fn error_display_carries_offset() {
        let e = DecodeTraceError {
            offset: 12,
            reason: "bad".into(),
        };
        assert_eq!(e.to_string(), "trace byte 12: bad");
        assert_eq!(
            LoadTraceError::V2(e).to_string(),
            "pipo-trace v2: trace byte 12: bad"
        );
        assert!(LoadTraceError::NotText.to_string().contains("UTF-8"));
    }
}
