//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! ┌────────┬──────┬────────────┬─────────┬──────────┬─────────┐
//! │ magic  │ kind │ request id │ len     │ checksum │ payload │
//! │ u32 le │ u8   │ u64 le     │ u32 le  │ u64 le   │ len B   │
//! └────────┴──────┴────────────┴─────────┴──────────┴─────────┘
//! ```
//!
//! * `magic` is [`MAGIC`] (`b"DCS1"`); anything else is a framing error.
//! * `kind` is an opcode ([`Request`]) or response tag ([`Response`]).
//! * `request id` is chosen by the client and echoed verbatim in the
//!   response, which is what makes **pipelining** work: a client may have
//!   any number of requests in flight per connection and match responses
//!   by id in whatever order the server completes them.
//! * `checksum` is FNV-1a over the payload (same convention as the TC WAL
//!   and the LSS). A mismatch is a transport-corruption error.
//! * `len` is bounded by [`MAX_PAYLOAD`]; oversized frames are rejected
//!   *before* any allocation, so a hostile length can't OOM the peer.
//!
//! Inside payloads, keys are `u16`-length-prefixed and values
//! `u32`-length-prefixed. Decoding is incremental: [`decode_frame`] returns
//! `Ok(None)` on a partial buffer and only consumes whole frames, so a TCP
//! reader can append bytes and re-poll without framing state of its own.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dcs_flashsim::fnv64;

/// Frame magic: `b"DCS1"`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DCS1");

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 8 + 4 + 8;

/// Upper bound on a frame payload. Chosen to fit any realistic record plus
/// slack; decoders reject bigger lengths before allocating.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Point read.
    Get {
        /// Target key.
        key: Vec<u8>,
    },
    /// Upsert.
    Put {
        /// Target key.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Delete.
    Delete {
        /// Target key.
        key: Vec<u8>,
    },
    /// Count up to `limit` records from `start`.
    Scan {
        /// First key of the range.
        start: Vec<u8>,
        /// Maximum records counted.
        limit: u32,
    },
    /// Read-modify-write: append `value` to the current value (missing
    /// treated as empty) and write the result back, atomically at the
    /// owning shard.
    Rmw {
        /// Target key.
        key: Vec<u8>,
        /// Bytes appended by the modification.
        value: Vec<u8>,
    },
    /// Scrape the server's telemetry: answered with a
    /// [`Response::Stats`] JSON document. Handled at the connection
    /// (never routed to a shard), so a live server can be observed even
    /// when every shard mailbox is saturated.
    Stats,
}

impl Request {
    /// The key that routes this request to a shard.
    pub fn routing_key(&self) -> &[u8] {
        match self {
            Request::Get { key }
            | Request::Put { key, .. }
            | Request::Delete { key }
            | Request::Rmw { key, .. } => key,
            Request::Scan { start, .. } => start,
            // STATS is connection-level; it never routes to a shard.
            Request::Stats => &[],
        }
    }

    /// Whether this request mutates the store (and therefore rides the
    /// group-commit path).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Put { .. } | Request::Delete { .. } | Request::Rmw { .. }
        )
    }

    /// Short label for metrics and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Get { .. } => "get",
            Request::Put { .. } => "put",
            Request::Delete { .. } => "delete",
            Request::Scan { .. } => "scan",
            Request::Rmw { .. } => "rmw",
            Request::Stats => "stats",
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Read result: `Some(value)` or a miss.
    Value(Option<Vec<u8>>),
    /// Write acknowledged (durable per the server's group-commit policy).
    Ok,
    /// Scan result: records counted.
    Count(u64),
    /// The owning shard's mailbox is past its high-water mark; the request
    /// was **not** executed. Explicit backpressure instead of unbounded
    /// queueing — retry later.
    Busy,
    /// The server failed to execute the request.
    Err(String),
    /// Telemetry snapshot: one JSON document,
    /// `{"stats_epoch": N, "registry": {...}, "mrc": {...}}`, captured
    /// under a single partition-map epoch.
    Stats(String),
    /// The key's range no longer lives on the shard this request reached
    /// — it moved under a newer partition-map epoch (or is mid-handoff).
    /// The request was **not** executed; resubmit it and the server will
    /// route through the current map. `epoch` lets the client distinguish
    /// progress from churn across retries; `shard` names the new owner
    /// for observability.
    Moved {
        /// Partition-map epoch the redirect is valid for.
        epoch: u64,
        /// Shard owning (or receiving) the key under that epoch.
        shard: u32,
    },
}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DELETE: u8 = 0x03;
const OP_SCAN: u8 = 0x04;
const OP_RMW: u8 = 0x05;
const OP_STATS: u8 = 0x06;
const RE_VALUE: u8 = 0x81;
const RE_OK: u8 = 0x82;
const RE_COUNT: u8 = 0x83;
const RE_BUSY: u8 = 0x84;
const RE_ERR: u8 = 0x85;
const RE_STATS: u8 = 0x86;
const RE_MOVED: u8 = 0x87;

/// Why a buffer failed to decode. All of these are fatal for the
/// connection: once framing is lost there is no way to resynchronize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Payload checksum mismatch.
    BadChecksum {
        /// Checksum carried by the header.
        expected: u64,
        /// Checksum computed over the received payload.
        actual: u64,
    },
    /// Unknown `kind` byte.
    UnknownKind(u8),
    /// The payload was shorter than its own internal length prefixes claim.
    Truncated,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            ProtoError::Oversized(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            ProtoError::BadChecksum { expected, actual } => {
                write!(f, "payload checksum {actual:#x} != header {expected:#x}")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Truncated => write!(f, "payload truncated mid-field"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// One frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client request.
    Request {
        /// Client-chosen id, echoed in the response.
        id: u64,
        /// The operation.
        req: Request,
    },
    /// A server response.
    Response {
        /// Id of the request this answers.
        id: u64,
        /// The outcome.
        resp: Response,
    },
}

fn put_key(out: &mut Vec<u8>, key: &[u8]) {
    debug_assert!(key.len() <= u16::MAX as usize, "key too long for wire");
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

fn put_val(out: &mut Vec<u8>, val: &[u8]) {
    out.extend_from_slice(&(val.len() as u32).to_le_bytes());
    out.extend_from_slice(val);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(ProtoError::Truncated)?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        match self.take(1)? {
            &[b] => Ok(b),
            _ => Err(ProtoError::Truncated),
        }
    }
    fn u16(&mut self) -> Result<u16, ProtoError> {
        match self.take(2)? {
            &[a, b] => Ok(u16::from_le_bytes([a, b])),
            _ => Err(ProtoError::Truncated),
        }
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        match self.take(4)? {
            &[a, b, c, d] => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(ProtoError::Truncated),
        }
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        match self.take(8)? {
            &[a, b, c, d, e, f, g, h] => Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
            _ => Err(ProtoError::Truncated),
        }
    }
    fn key(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u16()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn val(&mut self) -> Result<Vec<u8>, ProtoError> {
        let n = self.u32()? as usize;
        if n > MAX_PAYLOAD {
            return Err(ProtoError::Oversized(n as u32));
        }
        Ok(self.take(n)?.to_vec())
    }
    fn done(&self) -> Result<(), ProtoError> {
        // Trailing garbage means the peer and we disagree about the layout;
        // treat it like truncation (framing is unreliable either way).
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Truncated)
        }
    }
}

/// Append `frame` to `out` in wire format.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    // Kind, id, and the payload's variable-length bytes: every fixed
    // field of a payload fits in 12 more, so one reserve covers the frame.
    let (kind, id, var) = match frame {
        Frame::Request { id, req } => match req {
            Request::Get { key } => (OP_GET, id, key.len()),
            Request::Put { key, value } => (OP_PUT, id, key.len() + value.len()),
            Request::Delete { key } => (OP_DELETE, id, key.len()),
            Request::Scan { start, .. } => (OP_SCAN, id, start.len()),
            Request::Rmw { key, value } => (OP_RMW, id, key.len() + value.len()),
            Request::Stats => (OP_STATS, id, 0),
        },
        Frame::Response { id, resp } => match resp {
            Response::Value(v) => (RE_VALUE, id, v.as_ref().map_or(0, Vec::len)),
            Response::Ok => (RE_OK, id, 0),
            Response::Count(_) => (RE_COUNT, id, 0),
            Response::Busy => (RE_BUSY, id, 0),
            Response::Err(msg) => (RE_ERR, id, msg.len()),
            Response::Stats(doc) => (RE_STATS, id, doc.len()),
            Response::Moved { .. } => (RE_MOVED, id, 0),
        },
    };
    out.reserve(HEADER_LEN + var + 12);
    // The header goes first with its length and checksum zeroed; the
    // payload is written in place after it and the two are patched in.
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&id.to_le_bytes());
    let patch = out.len();
    out.extend_from_slice(&[0; 12]);
    let body = out.len();
    match frame {
        Frame::Request { req, .. } => match req {
            Request::Get { key } | Request::Delete { key } => put_key(out, key),
            Request::Put { key, value } | Request::Rmw { key, value } => {
                put_key(out, key);
                put_val(out, value);
            }
            Request::Scan { start, limit } => {
                put_key(out, start);
                out.extend_from_slice(&limit.to_le_bytes());
            }
            Request::Stats => {}
        },
        Frame::Response { resp, .. } => match resp {
            Response::Value(v) => match v {
                Some(v) => {
                    out.push(1);
                    put_val(out, v);
                }
                None => out.push(0),
            },
            Response::Ok | Response::Busy => {}
            Response::Count(n) => out.extend_from_slice(&n.to_le_bytes()),
            Response::Err(msg) | Response::Stats(msg) => put_val(out, msg.as_bytes()),
            Response::Moved { epoch, shard } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
            }
        },
    }
    let len = out.len() - body;
    debug_assert!(len <= MAX_PAYLOAD, "frame payload too large");
    let sum = out.get(body..).map_or(0, fnv64);
    if let Some((len_at, sum_at)) = out.get_mut(patch..body).map(|h| h.split_at_mut(4)) {
        len_at.copy_from_slice(&(len as u32).to_le_bytes());
        sum_at.copy_from_slice(&sum.to_le_bytes());
    }
}

/// Encode a frame into a fresh buffer.
pub fn encode_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

/// Little-endian u32 at `at`, if the slice is long enough.
fn le_u32(buf: &[u8], at: usize) -> Option<u32> {
    match buf.get(at..at.checked_add(4)?)? {
        &[a, b, c, d] => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

/// Little-endian u64 at `at`, if the slice is long enough.
fn le_u64(buf: &[u8], at: usize) -> Option<u64> {
    match buf.get(at..at.checked_add(8)?)? {
        &[a, b, c, d, e, f, g, h] => Some(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => None,
    }
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a whole frame was decoded; the caller
///   should drop `consumed` bytes from the front of `buf`.
/// * `Ok(None)` — `buf` holds only a partial frame; read more bytes.
/// * `Err(_)` — the stream is corrupt; the connection cannot continue.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic = le_u32(buf, 0).ok_or(ProtoError::Truncated)?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let kind = *buf.get(4).ok_or(ProtoError::Truncated)?;
    let id = le_u64(buf, 5).ok_or(ProtoError::Truncated)?;
    let len = le_u32(buf, 13).ok_or(ProtoError::Truncated)?;
    // Reject hostile lengths before touching (or allocating for) the
    // payload.
    if len as usize > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let expected = le_u64(buf, 17).ok_or(ProtoError::Truncated)?;
    let payload = buf.get(HEADER_LEN..total).ok_or(ProtoError::Truncated)?;
    let actual = fnv64(payload);
    if actual != expected {
        return Err(ProtoError::BadChecksum { expected, actual });
    }
    let mut c = Cursor::new(payload);
    let frame = match kind {
        OP_GET => Frame::Request {
            id,
            req: Request::Get { key: c.key()? },
        },
        OP_PUT => Frame::Request {
            id,
            req: Request::Put {
                key: c.key()?,
                value: c.val()?,
            },
        },
        OP_DELETE => Frame::Request {
            id,
            req: Request::Delete { key: c.key()? },
        },
        OP_SCAN => Frame::Request {
            id,
            req: Request::Scan {
                start: c.key()?,
                limit: c.u32()?,
            },
        },
        OP_RMW => Frame::Request {
            id,
            req: Request::Rmw {
                key: c.key()?,
                value: c.val()?,
            },
        },
        OP_STATS => Frame::Request {
            id,
            req: Request::Stats,
        },
        RE_VALUE => {
            let present = c.u8()?;
            let v = match present {
                0 => None,
                1 => Some(c.val()?),
                _ => return Err(ProtoError::Truncated),
            };
            Frame::Response {
                id,
                resp: Response::Value(v),
            }
        }
        RE_OK => Frame::Response {
            id,
            resp: Response::Ok,
        },
        RE_COUNT => Frame::Response {
            id,
            resp: Response::Count(c.u64()?),
        },
        RE_BUSY => Frame::Response {
            id,
            resp: Response::Busy,
        },
        RE_ERR => Frame::Response {
            id,
            resp: Response::Err(String::from_utf8_lossy(&c.val()?).into_owned()),
        },
        RE_STATS => Frame::Response {
            id,
            resp: Response::Stats(String::from_utf8_lossy(&c.val()?).into_owned()),
        },
        RE_MOVED => Frame::Response {
            id,
            resp: Response::Moved {
                epoch: c.u64()?,
                shard: c.u32()?,
            },
        },
        other => return Err(ProtoError::UnknownKind(other)),
    };
    c.done()?;
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Request {
                id: 1,
                req: Request::Get { key: b"k".to_vec() },
            },
            Frame::Request {
                id: u64::MAX,
                req: Request::Put {
                    key: b"key".to_vec(),
                    value: vec![0xAB; 300],
                },
            },
            Frame::Request {
                id: 3,
                req: Request::Delete { key: vec![] },
            },
            Frame::Request {
                id: 4,
                req: Request::Scan {
                    start: b"usr:0000".to_vec(),
                    limit: 100,
                },
            },
            Frame::Request {
                id: 5,
                req: Request::Rmw {
                    key: b"k".to_vec(),
                    value: b"suffix".to_vec(),
                },
            },
            Frame::Response {
                id: 6,
                resp: Response::Value(Some(b"v".to_vec())),
            },
            Frame::Response {
                id: 7,
                resp: Response::Value(None),
            },
            Frame::Response {
                id: 8,
                resp: Response::Ok,
            },
            Frame::Response {
                id: 9,
                resp: Response::Count(42),
            },
            Frame::Response {
                id: 10,
                resp: Response::Busy,
            },
            Frame::Response {
                id: 11,
                resp: Response::Err("boom".into()),
            },
            Frame::Request {
                id: 12,
                req: Request::Stats,
            },
            Frame::Response {
                id: 13,
                resp: Response::Stats("{\"stats_epoch\":3,\"mrc\":{\"consumers\":[]}}".into()),
            },
            Frame::Response {
                id: 14,
                resp: Response::Moved {
                    epoch: u64::MAX,
                    shard: 3,
                },
            },
        ]
    }

    #[test]
    fn roundtrip_every_frame_kind() {
        for f in all_frames() {
            let bytes = encode_to_vec(&f);
            let (back, used) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!(back, f);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut buf = Vec::new();
        for f in all_frames() {
            encode_frame(&f, &mut buf);
        }
        let mut decoded = Vec::new();
        let mut pos = 0;
        while let Some((f, used)) = decode_frame(&buf[pos..]).unwrap() {
            decoded.push(f);
            pos += used;
        }
        assert_eq!(decoded, all_frames());
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn partial_buffers_ask_for_more() {
        let bytes = encode_to_vec(&all_frames()[1]);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_to_vec(&all_frames()[0]);
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::BadMagic(_))));
    }

    #[test]
    fn oversized_length_rejected_without_payload() {
        // Header claims a 2 GiB payload; only the header is present. The
        // decoder must reject from the header alone (no allocation, no
        // waiting for 2 GiB that will never arrive).
        let mut bytes = encode_to_vec(&all_frames()[0]);
        bytes[13..17].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        bytes.truncate(HEADER_LEN);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn corrupt_payload_rejected_by_checksum() {
        let mut bytes = encode_to_vec(&all_frames()[1]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::BadChecksum { .. })
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = encode_to_vec(&all_frames()[0]);
        bytes[4] = 0x7E;
        // Fixing up nothing else: kind is covered by neither length nor
        // checksum, so this is the exact wire corruption UnknownKind guards.
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnknownKind(0x7E))
        ));
    }

    #[test]
    fn internal_truncation_rejected() {
        // A PUT whose key length prefix claims more bytes than the payload
        // holds, with a recomputed (valid) checksum: the frame layer is
        // intact but the body is inconsistent.
        let mut payload = Vec::new();
        payload.extend_from_slice(&100u16.to_le_bytes());
        payload.extend_from_slice(b"short");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(0x02);
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(decode_frame(&bytes), Err(ProtoError::Truncated));
    }

    #[test]
    fn stats_requests_route_nowhere_and_do_not_write() {
        let req = Request::Stats;
        assert!(req.routing_key().is_empty());
        assert!(!req.is_write());
        assert_eq!(req.kind_name(), "stats");
    }

    #[test]
    fn moved_frame_truncation_is_incomplete_or_truncated() {
        // Every proper prefix of a MOVED frame either asks for more bytes
        // (cut inside the header/payload) — never a panic, never a bogus
        // decode.
        let bytes = encode_to_vec(&Frame::Response {
            id: 77,
            resp: Response::Moved {
                epoch: 0x0102_0304_0506_0708,
                shard: 9,
            },
        });
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} bytes must be incomplete"
            );
        }
        // A MOVED payload short of its fixed 12 bytes, checksum recomputed:
        // the frame layer is intact but the body is truncated mid-field.
        let payload = 5u64.to_le_bytes()[..6].to_vec();
        let mut short = Vec::new();
        short.extend_from_slice(&MAGIC.to_le_bytes());
        short.push(0x87);
        short.extend_from_slice(&77u64.to_le_bytes());
        short.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        short.extend_from_slice(&fnv64(&payload).to_le_bytes());
        short.extend_from_slice(&payload);
        assert_eq!(decode_frame(&short), Err(ProtoError::Truncated));
    }

    #[test]
    fn moved_frame_payload_bitflips_rejected_by_checksum() {
        let bytes = encode_to_vec(&Frame::Response {
            id: 78,
            resp: Response::Moved {
                epoch: 42,
                shard: 1,
            },
        });
        // Flip each payload bit in turn: the epoch and shard fields are
        // checksummed, so no corruption can smuggle in a wrong redirect.
        for byte in HEADER_LEN..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    matches!(decode_frame(&corrupt), Err(ProtoError::BadChecksum { .. })),
                    "byte {byte} bit {bit} must fail the checksum"
                );
            }
        }
    }

    #[test]
    fn moved_frame_trailing_garbage_rejected() {
        // A MOVED payload with extra bytes past the epoch + shard fields,
        // checksum recomputed: layout disagreement, not a valid frame.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(0xEE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(0x87);
        bytes.extend_from_slice(&79u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(decode_frame(&bytes), Err(ProtoError::Truncated));
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Valid GET payload plus extra bytes, checksum recomputed.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(b'k');
        payload.extend_from_slice(b"junk");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.push(0x01);
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(decode_frame(&bytes), Err(ProtoError::Truncated));
    }
}
