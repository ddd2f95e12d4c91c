//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*. The base (v1) layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CRSL"
//! 4       1     version (1)
//! 5       4     payload length `len`, little-endian (1 ..= MAX_PAYLOAD)
//! 9       len   payload: tag byte + body
//! 9+len   4     CRC-32 (IEEE) of the payload, little-endian
//! ```
//!
//! Version 2 inserts a flags byte (and, when flag bit 0 is set, a 16-byte
//! trace-context extension) between the version and the length:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CRSL"
//! 4       1     version (2)
//! 5       1     flags (bit 0: trace extension present; others reserved)
//! 6       16    trace id (u64 LE) ++ parent span id (u64 LE), if bit 0
//! then          length, payload, CRC exactly as in v1
//! ```
//!
//! Frames without a trace context are always emitted in the v1 layout —
//! byte-identical to what pre-trace peers produce and accept — so the
//! version bump only ever rides on frames that actually carry the
//! extension, and old captures/peers remain readable. The extension
//! itself sits *outside* the payload CRC: it is best-effort observability
//! metadata ([`WireTrace`]) whose corruption can at worst mislabel a
//! trace, never alter the message.
//!
//! The tag byte lives *inside* the checksummed payload, so a flipped tag
//! cannot silently turn one valid message into another. Integers are
//! little-endian; strings are length-prefixed UTF-8. Encode and decode are
//! pure functions over byte slices ([`Request::encode`] /
//! [`Request::decode`]) with thin [`std::io`] adapters for sockets
//! ([`write_request`] / [`read_request`]); the property tests exercise the
//! pure layer without ever opening a socket.

use std::io::{Read, Write};
use std::time::Instant;

use filestore::checksum::crc32;

use crate::error::ClusterError;

/// Leading frame bytes identifying this protocol.
pub const MAGIC: [u8; 4] = *b"CRSL";
/// Base protocol version: the layout of every frame without a trace
/// extension.
pub const VERSION: u8 = 1;
/// Extended protocol version carrying a flags byte and optional trace
/// context; only emitted for frames that have one.
pub const TRACED_VERSION: u8 = 2;
/// Upper bound on a payload, rejecting absurd length prefixes before
/// allocation (a 256 MiB block is far beyond anything this workspace
/// stripes).
pub const MAX_PAYLOAD: usize = 256 << 20;
/// Fixed per-frame cost of the base layout: magic + version + length +
/// trailing CRC. A v2 frame with a trace extension adds
/// `1 + TRACE_EXT_BYTES` on top.
pub const FRAME_OVERHEAD: usize = 4 + 1 + 4 + 4;
/// Size of the optional trace-context header extension.
pub const TRACE_EXT_BYTES: usize = 16;

/// Flags-byte bit marking a trace extension (v2 frames only).
const FLAG_TRACE: u8 = 0x01;

/// Bytes a payload of `payload_len` occupies on the wire in the base
/// (untraced) layout.
pub fn frame_bytes(payload_len: usize) -> usize {
    payload_len + FRAME_OVERHEAD
}

// Request tags (0x01..) and response tags (0x81..) share the payload's
// first byte; the two decoders each reject the other family.
const TAG_PING: u8 = 0x01;
const TAG_PUT_BLOCK: u8 = 0x02;
const TAG_GET_BLOCK: u8 = 0x03;
const TAG_GET_UNITS: u8 = 0x04;
const TAG_REPAIR_READ: u8 = 0x05;
const TAG_STAT: u8 = 0x06;
const TAG_STATS: u8 = 0x07;
// 0x08 is unassigned.
const TAG_MANIFEST_GET: u8 = 0x09;
const TAG_WRITE_DELTA: u8 = 0x0A;
const TAG_DELETE_BLOCK: u8 = 0x0B;
const TAG_PONG: u8 = 0x81;
const TAG_DONE: u8 = 0x82;
const TAG_DATA: u8 = 0x83;
const TAG_ERROR: u8 = 0xEE;

/// The trace-context frame-header extension: the client's raw
/// `(trace, parent span)` ids, so spans a datanode opens while serving
/// the request join the client's trace. Carried outside the payload CRC
/// — it is best-effort observability metadata and never alters the
/// message it rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTrace {
    /// Trace id (nonzero).
    pub trace: u64,
    /// The sender's current span id (0 at a trace root).
    pub span: u64,
}

impl WireTrace {
    /// The extension `ctx` stamps on an outgoing frame.
    pub fn from_ctx(ctx: &telemetry::trace::TraceCtx) -> WireTrace {
        let (trace, span) = ctx.wire();
        WireTrace { trace, span }
    }

    /// Adopts this extension as a trace context for server-side spans.
    pub fn to_ctx(self) -> telemetry::trace::TraceCtx {
        telemetry::trace::TraceCtx::adopt(Some((self.trace, self.span)))
    }

    fn to_bytes(self) -> [u8; TRACE_EXT_BYTES] {
        let mut b = [0u8; TRACE_EXT_BYTES];
        b[..8].copy_from_slice(&self.trace.to_le_bytes());
        b[8..].copy_from_slice(&self.span.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; TRACE_EXT_BYTES]) -> WireTrace {
        WireTrace {
            trace: u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
            span: u64::from_le_bytes(b[8..].try_into().expect("8 bytes")),
        }
    }
}

/// Addresses one stored block: `(file, stripe, block-in-stripe)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockId {
    /// File name (no path separators; at most 255 bytes).
    pub file: String,
    /// Stripe index within the file.
    pub stripe: u32,
    /// Block index within the stripe.
    pub block: u32,
}

impl BlockId {
    /// Validates the file-name component: non-empty, at most 255 bytes,
    /// and free of path separators, NUL, and dot-dot — a `BlockId` becomes
    /// part of an on-disk file name on the datanode.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] describing the violation.
    pub fn validate(&self) -> Result<(), ClusterError> {
        validate_file_name(&self.file)
    }
}

/// Validates a wire-carried file name: non-empty, at most 255 bytes, and
/// free of path separators, NUL, and dot-dot. Shared by [`BlockId`] and
/// [`Request::ManifestGet`], both of which turn names into lookups (and,
/// for blocks, on-disk paths) on the serving node.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] describing the violation.
pub fn validate_file_name(f: &str) -> Result<(), ClusterError> {
    let bad = |why: &str| {
        Err(ClusterError::Protocol {
            reason: format!("bad file name {f:?}: {why}"),
        })
    };
    if f.is_empty() {
        return bad("empty");
    }
    if f.len() > 255 {
        return bad("longer than 255 bytes");
    }
    if f.contains(['/', '\\', '\0']) {
        return bad("contains a path separator or NUL");
    }
    if f == "." || f == ".." {
        return bad("reserved");
    }
    Ok(())
}

/// A client → datanode message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Store a block (overwrites); answered with [`Response::Done`].
    PutBlock {
        /// Which block to store.
        id: BlockId,
        /// The block bytes.
        data: Vec<u8>,
    },
    /// Fetch a whole block; answered with [`Response::Data`].
    GetBlock {
        /// Which block.
        id: BlockId,
    },
    /// Fetch selected stored units of a block — the parallel-read
    /// primitive: with unit width `w = block_len / sub`, the response
    /// carries `units.len() · w` bytes in request order.
    GetUnits {
        /// Which block.
        id: BlockId,
        /// Units per block of the file's code; the datanode derives the
        /// unit width from it.
        sub: u32,
        /// Stored unit indices (`< sub`), in the order wanted back.
        units: Vec<u32>,
    },
    /// Helper-side repair read: the datanode multiplies its block by the
    /// shipped `rows × cols` GF(256) matrix and returns the compressed
    /// `rows · w`-byte payload — this is what realizes the MSR
    /// `d/(d−k+1)` repair-bandwidth saving *on the wire*.
    RepairRead {
        /// Which block to compress.
        id: BlockId,
        /// Matrix rows (`β`, units sent back).
        rows: u32,
        /// Matrix columns (must equal the code's `sub`).
        cols: u32,
        /// Row-major GF(256) coefficients, `rows · cols` bytes.
        coeffs: Vec<u8>,
    },
    /// Presence probe for one block; answered with [`Response::Data`]
    /// holding `len (u32) ++ crc32 (u32)`, or [`Response::Error`] when
    /// absent.
    Stat {
        /// Which block.
        id: BlockId,
    },
    /// Scrape the serving node's full telemetry registry; answered with
    /// [`Response::Data`] holding an [`encode_stats`]-serialized
    /// snapshot. The repair progress report
    /// ([`RepairStatusReport`](crate::repair::RepairStatusReport)) is
    /// read from the same snapshot.
    Stats,
    /// Fetch one file's placement manifest from the serving node's
    /// attached metadata router; answered with [`Response::Data`]
    /// holding an [`encode_manifest`]-serialized `(shard epoch,
    /// placement)` pair, or [`Response::Error`] when the file is
    /// unknown or the node serves no metadata. The epoch rides in the
    /// reply so a caching client can tag the manifest and later detect
    /// staleness with a cheap epoch comparison.
    ManifestGet {
        /// The file whose manifest is wanted.
        name: String,
    },
    /// In-place delta update of one stored block — the write-path dual of
    /// [`Request::RepairRead`]: instead of shipping the whole rewritten
    /// block, the client ships only the unit-aligned *message deltas* of
    /// the edit plus, per touched local unit of this block, one GF(256)
    /// coefficient per delta. The datanode folds `Σ coeff · Δ` into its
    /// stored bytes locally ([`erasure::apply_block_delta`]) — it never
    /// learns the generator matrix — and answers [`Response::Done`]. The
    /// same op updates data and parity blocks; only the coefficients
    /// differ.
    WriteDelta {
        /// Which block to update.
        id: BlockId,
        /// Width of one unit in bytes; every delta is this long.
        unit_bytes: u32,
        /// The edit's message deltas (new ⊕ old), unit-aligned.
        deltas: Vec<Vec<u8>>,
        /// Per touched local unit of this block: `(unit index, one
        /// coefficient byte per delta, in delta order)`.
        rows: Vec<(u32, Vec<u8>)>,
    },
    /// Remove one stored block; answered with [`Response::Done`] whether
    /// or not the block existed (deletes are idempotent).
    DeleteBlock {
        /// Which block.
        id: BlockId,
    },
}

/// A datanode → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Success without a payload.
    Done,
    /// Success with a payload (block bytes, unit bytes, repair payload, or
    /// stat summary).
    Data(Vec<u8>),
    /// Failure, with a human-readable reason.
    Error(String),
}

// ---------------------------------------------------------------------
// Payload primitives.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_block_id(out: &mut Vec<u8>, id: &BlockId) {
    put_str(out, &id.file);
    put_u32(out, id.stripe);
    put_u32(out, id.block);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn err<T>(&self, why: &str) -> Result<T, ClusterError> {
        Err(ClusterError::Protocol {
            reason: format!("{why} at payload offset {}", self.pos),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ClusterError> {
        if self.buf.len() - self.pos < n {
            return self.err("truncated field");
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ClusterError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ClusterError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ClusterError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ClusterError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD {
            return self.err("oversized byte field");
        }
        Ok(self.take(len)?.to_vec())
    }

    fn str(&mut self) -> Result<String, ClusterError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).or_else(|_| self.err("invalid UTF-8 string"))
    }

    fn block_id(&mut self) -> Result<BlockId, ClusterError> {
        let id = BlockId {
            file: self.str()?,
            stripe: self.u32()?,
            block: self.u32()?,
        };
        id.validate()?;
        Ok(id)
    }

    fn finish(&self) -> Result<(), ClusterError> {
        if self.pos != self.buf.len() {
            return self.err("trailing bytes after message");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Wraps a payload (tag + body) into a complete frame: the v1 layout
/// when no trace context rides along, the v2 flags + extension layout
/// when one does.
fn frame(payload: &[u8], trace: Option<WireTrace>) -> Vec<u8> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_PAYLOAD);
    let mut out =
        Vec::with_capacity(frame_bytes(payload.len()) + trace.map_or(0, |_| 1 + TRACE_EXT_BYTES));
    out.extend_from_slice(&MAGIC);
    match trace {
        None => out.push(VERSION),
        Some(t) => {
            out.push(TRACED_VERSION);
            out.push(FLAG_TRACE);
            out.extend_from_slice(&t.to_bytes());
        }
    }
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u32(&mut out, crc32(payload));
    out
}

/// Unwraps exactly one frame from `buf`, checking magic, version, flags,
/// length, CRC, and that nothing trails the frame. Returns the trace
/// extension (if any) and the payload slice.
fn deframe(buf: &[u8]) -> Result<(Option<WireTrace>, &[u8]), ClusterError> {
    let err = |reason: String| Err(ClusterError::Protocol { reason });
    if buf.len() < FRAME_OVERHEAD + 1 {
        return err(format!("frame of {} bytes is too short", buf.len()));
    }
    if buf[..4] != MAGIC {
        return err("bad magic".into());
    }
    let (trace, len_at) = match buf[4] {
        VERSION => (None, 5),
        TRACED_VERSION => {
            let flags = buf[5];
            if flags & !FLAG_TRACE != 0 {
                return err(format!("unknown header flags 0x{flags:02x}"));
            }
            if flags & FLAG_TRACE != 0 {
                let ext_end = 6 + TRACE_EXT_BYTES;
                if buf.len() < ext_end + 4 {
                    return err(format!("frame of {} bytes is too short", buf.len()));
                }
                let ext: &[u8; TRACE_EXT_BYTES] = buf[6..ext_end].try_into().expect("sized slice");
                (Some(WireTrace::from_bytes(ext)), ext_end)
            } else {
                (None, 6)
            }
        }
        v => return err(format!("unsupported protocol version {v}")),
    };
    if buf.len() < len_at + 4 {
        return err(format!("frame of {} bytes is too short", buf.len()));
    }
    let len = u32::from_le_bytes([
        buf[len_at],
        buf[len_at + 1],
        buf[len_at + 2],
        buf[len_at + 3],
    ]) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return err(format!("bad payload length {len}"));
    }
    let expected = len_at + 4 + len + 4;
    if buf.len() != expected {
        return err(format!(
            "frame length {} does not match header ({expected})",
            buf.len(),
        ));
    }
    let payload = &buf[len_at + 4..len_at + 4 + len];
    let crc_at = len_at + 4 + len;
    let crc = u32::from_le_bytes([
        buf[crc_at],
        buf[crc_at + 1],
        buf[crc_at + 2],
        buf[crc_at + 3],
    ]);
    if crc32(payload) != crc {
        return err("payload CRC mismatch".into());
    }
    Ok((trace, payload))
}

/// Per-frame receive timings, split at the first byte: how long the
/// reader *waited* for the peer to start answering vs how long the body
/// took to *arrive*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvTiming {
    /// Nanoseconds from entering the read to the first header byte.
    pub wait_ns: u64,
    /// Nanoseconds from the first header byte to the last CRC byte.
    pub recv_ns: u64,
}

/// Everything `read_frame_into` learns about one frame besides the
/// payload bytes it deposits in the scratch buffer.
struct FrameMeta {
    /// Payload length within the scratch buffer.
    len: usize,
    /// Total wire bytes consumed (header + extension + payload + CRC).
    wire: usize,
    /// Trace extension, if the frame carried one.
    trace: Option<WireTrace>,
    /// Wait/receive split of the read.
    timing: RecvTiming,
}

/// Reads one frame into `scratch` (resized to fit, capacity reused across
/// calls). `Ok(None)` on a clean EOF at a frame boundary (the peer closed
/// the connection). This is the hot-path reader behind every stream
/// adapter: a long-lived connection reads each frame into one buffer
/// instead of allocating a fresh `Vec` per message.
fn read_frame_into(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<FrameMeta>, ClusterError> {
    let entered = Instant::now();
    // Read the first byte separately to distinguish clean EOF from a
    // truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let first_byte_at = Instant::now();
    // Rest of the magic plus the version byte.
    let mut head = [0u8; 4];
    r.read_exact(&mut head)?;
    if first[0] != MAGIC[0] || head[..3] != MAGIC[1..] {
        return Err(ClusterError::Protocol {
            reason: "bad magic".into(),
        });
    }
    let mut wire = 5usize;
    let trace = match head[3] {
        VERSION => None,
        TRACED_VERSION => {
            let mut flags = [0u8; 1];
            r.read_exact(&mut flags)?;
            wire += 1;
            if flags[0] & !FLAG_TRACE != 0 {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown header flags 0x{:02x}", flags[0]),
                });
            }
            if flags[0] & FLAG_TRACE != 0 {
                let mut ext = [0u8; TRACE_EXT_BYTES];
                r.read_exact(&mut ext)?;
                wire += TRACE_EXT_BYTES;
                Some(WireTrace::from_bytes(&ext))
            } else {
                None
            }
        }
        v => {
            return Err(ClusterError::Protocol {
                reason: format!("unsupported protocol version {v}"),
            })
        }
    };
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    wire += 4;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return Err(ClusterError::Protocol {
            reason: format!("bad payload length {len}"),
        });
    }
    scratch.resize(len, 0);
    let payload = &mut scratch[..len];
    r.read_exact(payload)?;
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    wire += len + 4;
    if crc32(payload) != u32::from_le_bytes(crc) {
        return Err(ClusterError::Protocol {
            reason: "payload CRC mismatch".into(),
        });
    }
    let timing = RecvTiming {
        wait_ns: first_byte_at
            .duration_since(entered)
            .as_nanos()
            .min(u64::MAX as u128) as u64,
        recv_ns: first_byte_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    };
    Ok(Some(FrameMeta {
        len,
        wire,
        trace,
        timing,
    }))
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

impl Request {
    /// Encodes this request as one complete frame in the base layout.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// Encodes this request as one complete frame, in the v2 layout
    /// carrying `trace` when given, the v1 layout otherwise.
    pub fn encode_traced(&self, trace: Option<WireTrace>) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Request::Ping => p.push(TAG_PING),
            Request::PutBlock { id, data } => {
                p.push(TAG_PUT_BLOCK);
                put_block_id(&mut p, id);
                put_bytes(&mut p, data);
            }
            Request::GetBlock { id } => {
                p.push(TAG_GET_BLOCK);
                put_block_id(&mut p, id);
            }
            Request::GetUnits { id, sub, units } => {
                p.push(TAG_GET_UNITS);
                put_block_id(&mut p, id);
                put_u32(&mut p, *sub);
                put_u32(&mut p, units.len() as u32);
                for &u in units {
                    put_u32(&mut p, u);
                }
            }
            Request::RepairRead {
                id,
                rows,
                cols,
                coeffs,
            } => {
                p.push(TAG_REPAIR_READ);
                put_block_id(&mut p, id);
                put_u32(&mut p, *rows);
                put_u32(&mut p, *cols);
                put_bytes(&mut p, coeffs);
            }
            Request::Stat { id } => {
                p.push(TAG_STAT);
                put_block_id(&mut p, id);
            }
            Request::Stats => p.push(TAG_STATS),
            Request::ManifestGet { name } => {
                p.push(TAG_MANIFEST_GET);
                put_str(&mut p, name);
            }
            Request::WriteDelta {
                id,
                unit_bytes,
                deltas,
                rows,
            } => {
                p.push(TAG_WRITE_DELTA);
                put_block_id(&mut p, id);
                put_u32(&mut p, *unit_bytes);
                // Deltas and coefficient rows have known widths
                // (`unit_bytes` and `deltas.len()` respectively), so they
                // travel raw, without per-item length prefixes — the whole
                // point of this op is a small wire footprint.
                put_u32(&mut p, deltas.len() as u32);
                for d in deltas {
                    p.extend_from_slice(d);
                }
                put_u32(&mut p, rows.len() as u32);
                for (unit, coeffs) in rows {
                    put_u32(&mut p, *unit);
                    p.extend_from_slice(coeffs);
                }
            }
            Request::DeleteBlock { id } => {
                p.push(TAG_DELETE_BLOCK);
                put_block_id(&mut p, id);
            }
        }
        frame(&p, trace)
    }

    /// Decodes exactly one framed request from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] on any framing or payload
    /// violation: bad magic/version/length/CRC, truncation, unknown tag,
    /// trailing bytes, or an invalid field.
    pub fn decode(buf: &[u8]) -> Result<Self, ClusterError> {
        Ok(Self::decode_traced(buf)?.0)
    }

    /// [`Request::decode`] that also surfaces the frame's trace-context
    /// extension (`None` for v1 frames and untraced v2 frames).
    ///
    /// # Errors
    ///
    /// As for [`Request::decode`].
    pub fn decode_traced(buf: &[u8]) -> Result<(Self, Option<WireTrace>), ClusterError> {
        let (trace, payload) = deframe(buf)?;
        Ok((Self::from_payload(payload)?, trace))
    }

    fn from_payload(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            TAG_PING => Request::Ping,
            TAG_PUT_BLOCK => Request::PutBlock {
                id: r.block_id()?,
                data: r.bytes()?,
            },
            TAG_GET_BLOCK => Request::GetBlock { id: r.block_id()? },
            TAG_GET_UNITS => {
                let id = r.block_id()?;
                let sub = r.u32()?;
                let count = r.u32()? as usize;
                if sub == 0 || count > sub as usize {
                    return Err(ClusterError::Protocol {
                        reason: format!("GetUnits wants {count} of sub={sub} units"),
                    });
                }
                let mut units = Vec::with_capacity(count);
                for _ in 0..count {
                    let u = r.u32()?;
                    if u >= sub {
                        return Err(ClusterError::Protocol {
                            reason: format!("unit {u} out of range 0..{sub}"),
                        });
                    }
                    units.push(u);
                }
                Request::GetUnits { id, sub, units }
            }
            TAG_REPAIR_READ => {
                let id = r.block_id()?;
                let rows = r.u32()?;
                let cols = r.u32()?;
                let coeffs = r.bytes()?;
                if rows == 0 || cols == 0 || coeffs.len() != rows as usize * cols as usize {
                    return Err(ClusterError::Protocol {
                        reason: format!(
                            "RepairRead matrix {rows}x{cols} with {} coefficient bytes",
                            coeffs.len()
                        ),
                    });
                }
                Request::RepairRead {
                    id,
                    rows,
                    cols,
                    coeffs,
                }
            }
            TAG_STAT => Request::Stat { id: r.block_id()? },
            TAG_STATS => Request::Stats,
            TAG_MANIFEST_GET => {
                let name = r.str()?;
                validate_file_name(&name)?;
                Request::ManifestGet { name }
            }
            TAG_WRITE_DELTA => {
                let id = r.block_id()?;
                let unit_bytes = r.u32()?;
                let ndeltas = r.u32()? as usize;
                if unit_bytes == 0
                    || ndeltas == 0
                    || ndeltas.saturating_mul(unit_bytes as usize) > MAX_PAYLOAD
                {
                    return Err(ClusterError::Protocol {
                        reason: format!("WriteDelta with {ndeltas} deltas of {unit_bytes} bytes"),
                    });
                }
                let mut deltas = Vec::with_capacity(ndeltas);
                for _ in 0..ndeltas {
                    deltas.push(r.take(unit_bytes as usize)?.to_vec());
                }
                let nrows = r.u32()? as usize;
                if nrows == 0 || nrows > MAX_PAYLOAD / ndeltas.max(4) {
                    return Err(ClusterError::Protocol {
                        reason: format!("WriteDelta with {nrows} coefficient rows"),
                    });
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let unit = r.u32()?;
                    rows.push((unit, r.take(ndeltas)?.to_vec()));
                }
                Request::WriteDelta {
                    id,
                    unit_bytes,
                    deltas,
                    rows,
                }
            }
            TAG_DELETE_BLOCK => Request::DeleteBlock { id: r.block_id()? },
            tag => {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown request tag 0x{tag:02x}"),
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// Writes one request to a stream, returning the wire bytes.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<usize, ClusterError> {
    write_request_traced(w, req, None)
}

/// [`write_request`] stamping the frame with a trace-context extension
/// when `trace` is given (the frame then uses the v2 layout).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_request_traced(
    w: &mut impl Write,
    req: &Request,
    trace: Option<WireTrace>,
) -> Result<usize, ClusterError> {
    let bytes = req.encode_traced(trace);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one request from a stream; `Ok(None)` means the peer closed the
/// connection cleanly. On success also returns the wire bytes consumed.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on malformed frames and
/// [`ClusterError::Io`] on socket failures (including read timeouts).
pub fn read_request(r: &mut impl Read) -> Result<Option<(Request, usize)>, ClusterError> {
    Ok(read_request_traced(r)?.map(|(req, wire, _)| (req, wire)))
}

/// [`read_request`] that also surfaces the frame's trace-context
/// extension, so a server can adopt the caller's trace.
///
/// # Errors
///
/// As for [`read_request`].
pub fn read_request_traced(
    r: &mut impl Read,
) -> Result<Option<(Request, usize, Option<WireTrace>)>, ClusterError> {
    let mut payload = Vec::new();
    match read_frame_into(r, &mut payload)? {
        None => Ok(None),
        Some(meta) => Ok(Some((
            Request::from_payload(&payload[..meta.len])?,
            meta.wire,
            meta.trace,
        ))),
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

impl Response {
    /// Encodes this response as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Response::Pong => p.push(TAG_PONG),
            Response::Done => p.push(TAG_DONE),
            Response::Data(data) => {
                p.push(TAG_DATA);
                put_bytes(&mut p, data);
            }
            Response::Error(msg) => {
                p.push(TAG_ERROR);
                put_str(&mut p, msg);
            }
        }
        // Responses never carry the trace extension: the client already
        // holds the context, so echoing it back would be dead weight.
        frame(&p, None)
    }

    /// Decodes exactly one framed response from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] on any framing or payload
    /// violation.
    pub fn decode(buf: &[u8]) -> Result<Self, ClusterError> {
        Self::from_payload(deframe(buf)?.1)
    }

    fn from_payload(payload: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            TAG_PONG => Response::Pong,
            TAG_DONE => Response::Done,
            TAG_DATA => Response::Data(r.bytes()?),
            TAG_ERROR => Response::Error(r.str()?),
            tag => {
                return Err(ClusterError::Protocol {
                    reason: format!("unknown response tag 0x{tag:02x}"),
                })
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Writes one response to a stream, returning the wire bytes.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<usize, ClusterError> {
    let bytes = resp.encode();
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one response from a stream; `Ok(None)` means the peer closed the
/// connection cleanly. On success also returns the wire bytes consumed.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on malformed frames and
/// [`ClusterError::Io`] on socket failures.
pub fn read_response(r: &mut impl Read) -> Result<Option<(Response, usize)>, ClusterError> {
    let mut scratch = Vec::new();
    read_response_into(r, &mut scratch)
}

/// [`read_response`] with a caller-owned scratch buffer for the frame
/// payload, so a long-lived connection (the client's per-node `Link`
/// entries) reads every response without a fresh per-frame allocation.
/// The scratch is an opaque workspace: only its capacity carries over.
///
/// # Errors
///
/// As for [`read_response`].
pub fn read_response_into(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(Response, usize)>, ClusterError> {
    Ok(read_response_timed(r, scratch)?.map(|(resp, wire, _)| (resp, wire)))
}

/// [`read_response_into`] that also reports the wait/receive split of the
/// read ([`RecvTiming`]) — the raw material for the client's per-phase
/// latency histograms.
///
/// # Errors
///
/// As for [`read_response`].
pub fn read_response_timed(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<(Response, usize, RecvTiming)>, ClusterError> {
    match read_frame_into(r, scratch)? {
        None => Ok(None),
        Some(meta) => Ok(Some((
            Response::from_payload(&scratch[..meta.len])?,
            meta.wire,
            meta.timing,
        ))),
    }
}

// ---------------------------------------------------------------------
// Stats snapshots on the wire.
// ---------------------------------------------------------------------

/// Upper bound on entries per section of a stats snapshot — far above
/// any real registry, small enough to reject allocation-bomb counts.
const MAX_STATS_ENTRIES: usize = 1 << 20;

/// Serializes a telemetry registry snapshot as the [`Response::Data`]
/// payload answering [`Request::Stats`]: three length-prefixed sections
/// (counters, gauges, histograms), entries as length-prefixed names plus
/// little-endian values; histograms ship `count/sum/min/max` and their
/// sparse `(bucket index, count)` pairs so the scraper can merge nodes
/// bucket-wise without losing tail resolution.
pub fn encode_stats(snap: &telemetry::Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_u32(&mut out, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    put_u32(&mut out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(&mut out, name);
        for v in [h.count, h.sum, h.min, h.max] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        put_u32(&mut out, h.buckets.len() as u32);
        for &(i, c) in &h.buckets {
            put_u32(&mut out, i);
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// Decodes an [`encode_stats`] payload back into a snapshot.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on truncation, trailing bytes,
/// absurd entry counts, or histogram buckets that are out of range or
/// not strictly ascending (the invariants the merge path relies on).
pub fn decode_stats(buf: &[u8]) -> Result<telemetry::Snapshot, ClusterError> {
    let section = |r: &mut Reader<'_>, what: &str| -> Result<usize, ClusterError> {
        let n = r.u32()? as usize;
        if n > MAX_STATS_ENTRIES {
            return Err(ClusterError::Protocol {
                reason: format!("stats snapshot claims {n} {what}"),
            });
        }
        Ok(n)
    };
    let mut r = Reader::new(buf);
    let mut counters = Vec::new();
    for _ in 0..section(&mut r, "counters")? {
        let name = r.str()?;
        let v = r.u64()?;
        counters.push((name, v));
    }
    let mut gauges = Vec::new();
    for _ in 0..section(&mut r, "gauges")? {
        let name = r.str()?;
        let v = r.u64()? as i64;
        gauges.push((name, v));
    }
    let mut histograms = Vec::new();
    for _ in 0..section(&mut r, "histograms")? {
        let name = r.str()?;
        let count = r.u64()?;
        let sum = r.u64()?;
        let min = r.u64()?;
        let max = r.u64()?;
        let nb = r.u32()? as usize;
        if nb > telemetry::snapshot::BUCKETS {
            return Err(ClusterError::Protocol {
                reason: format!("stats histogram {name:?} claims {nb} buckets"),
            });
        }
        let mut buckets = Vec::with_capacity(nb);
        let mut prev: Option<u32> = None;
        for _ in 0..nb {
            let i = r.u32()?;
            let c = r.u64()?;
            if i as usize >= telemetry::snapshot::BUCKETS || prev.is_some_and(|p| i <= p) {
                return Err(ClusterError::Protocol {
                    reason: format!("stats histogram {name:?} has bad bucket index {i}"),
                });
            }
            prev = Some(i);
            buckets.push((i, c));
        }
        histograms.push((
            name,
            telemetry::HistogramSnapshot {
                count,
                sum,
                min,
                max,
                buckets,
            },
        ));
    }
    r.finish()?;
    Ok(telemetry::Snapshot {
        counters,
        gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------
// File manifests on the wire.
// ---------------------------------------------------------------------

/// Version byte of the manifest payload, bumped if fields change.
const MANIFEST_VERSION: u8 = 1;
/// Upper bound on stripes claimed by a manifest payload.
const MAX_MANIFEST_STRIPES: usize = 1 << 22;
/// Upper bound on one stripe row's width (nodes per stripe).
const MAX_MANIFEST_ROW: usize = 4096;

/// Serializes `(shard epoch, placement)` as the [`Response::Data`]
/// payload answering [`Request::ManifestGet`]: a version byte, the
/// owning shard's epoch (u64 LE), then the placement — name, code spec
/// (display form), file length, block bytes, stripe count, and one
/// length-prefixed node row per stripe.
pub fn encode_manifest(epoch: u64, fp: &crate::coordinator::FilePlacement) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(MANIFEST_VERSION);
    out.extend_from_slice(&epoch.to_le_bytes());
    put_str(&mut out, &fp.name);
    put_str(&mut out, &fp.spec.to_string());
    out.extend_from_slice(&fp.file_len.to_le_bytes());
    out.extend_from_slice(&(fp.block_bytes as u64).to_le_bytes());
    put_u32(&mut out, fp.stripes as u32);
    for row in &fp.nodes {
        put_u32(&mut out, row.len() as u32);
        for &node in row {
            put_u32(&mut out, node as u32);
        }
    }
    out
}

/// Decodes an [`encode_manifest`] payload.
///
/// # Errors
///
/// Returns [`ClusterError::Protocol`] on an unknown version, truncation,
/// trailing bytes, an invalid name or code spec, or absurd stripe/row
/// counts.
pub fn decode_manifest(
    buf: &[u8],
) -> Result<(u64, crate::coordinator::FilePlacement), ClusterError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != MANIFEST_VERSION {
        return Err(ClusterError::Protocol {
            reason: format!("unknown manifest version {version}"),
        });
    }
    let epoch = r.u64()?;
    let name = r.str()?;
    validate_file_name(&name)?;
    let spec_text = r.str()?;
    let spec =
        filestore::format::CodeSpec::parse(&spec_text).map_err(|e| ClusterError::Protocol {
            reason: format!("manifest code spec {spec_text:?}: {e}"),
        })?;
    let file_len = r.u64()?;
    let block_bytes = r.u64()? as usize;
    let stripes = r.u32()? as usize;
    if stripes > MAX_MANIFEST_STRIPES {
        return Err(ClusterError::Protocol {
            reason: format!("manifest claims {stripes} stripes"),
        });
    }
    let mut nodes = Vec::with_capacity(stripes);
    for s in 0..stripes {
        let width = r.u32()? as usize;
        if width > MAX_MANIFEST_ROW {
            return Err(ClusterError::Protocol {
                reason: format!("manifest stripe {s} claims {width} nodes"),
            });
        }
        let mut row = Vec::with_capacity(width);
        for _ in 0..width {
            row.push(r.u32()? as usize);
        }
        nodes.push(row);
    }
    r.finish()?;
    Ok((
        epoch,
        crate::coordinator::FilePlacement {
            name,
            spec,
            file_len,
            block_bytes,
            stripes,
            nodes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(file: &str, stripe: u32, block: u32) -> BlockId {
        BlockId {
            file: file.into(),
            stripe,
            block,
        }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::PutBlock {
                id: id("a.bin", 0, 3),
                data: vec![1, 2, 3, 4, 5],
            },
            Request::GetBlock { id: id("f", 7, 0) },
            Request::GetUnits {
                id: id("data.enc", 2, 8),
                sub: 6,
                units: vec![0, 2, 5],
            },
            Request::RepairRead {
                id: id("x", 1, 1),
                rows: 2,
                cols: 3,
                coeffs: vec![1, 2, 3, 4, 5, 6],
            },
            Request::Stat { id: id("s", 0, 0) },
            Request::Stats,
            Request::ManifestGet {
                name: "data.bin".into(),
            },
            Request::WriteDelta {
                id: id("mut.bin", 4, 9),
                unit_bytes: 4,
                deltas: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
                rows: vec![(0, vec![3, 1]), (5, vec![0, 7])],
            },
            Request::DeleteBlock {
                id: id("gone", 2, 1),
            },
        ]
    }

    #[test]
    fn manifest_get_validates_names() {
        for bad in ["", "a/b", "..", &"x".repeat(300)] {
            let req = Request::ManifestGet { name: bad.into() };
            assert!(
                Request::decode(&req.encode()).is_err(),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn manifest_payload_roundtrip_and_validation() {
        let fp = crate::coordinator::FilePlacement {
            name: "data.bin".into(),
            spec: filestore::format::CodeSpec::Msr { n: 6, k: 3, d: 5 },
            file_len: 123_456,
            block_bytes: 4096,
            stripes: 3,
            nodes: vec![
                vec![0, 1, 2, 3, 4, 5],
                vec![5, 4, 3, 2, 1, 0],
                vec![2, 0, 4, 1, 5, 3],
            ],
        };
        let payload = encode_manifest(77, &fp);
        let (epoch, got) = decode_manifest(&payload).unwrap();
        assert_eq!(epoch, 77);
        assert_eq!(got, fp);
        // Unknown version, truncation, and trailing bytes are rejected.
        let mut wrong = payload.clone();
        wrong[0] = 9;
        assert!(decode_manifest(&wrong).is_err());
        for cut in 1..payload.len() {
            assert!(decode_manifest(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_manifest(&trailing).is_err());
    }

    #[test]
    fn request_roundtrip_all_variants() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
            // Stream adapters agree with the pure layer.
            let mut cursor = &bytes[..];
            let (got, wire) = read_request(&mut cursor).unwrap().unwrap();
            assert_eq!(got, req);
            assert_eq!(wire, bytes.len());
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        for resp in [
            Response::Pong,
            Response::Done,
            Response::Data(vec![9u8; 100]),
            Response::Error("nope".into()),
        ] {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn scratch_reads_match_allocating_reads() {
        let responses = [
            Response::Pong,
            Response::Data(vec![7u8; 300]),
            Response::Data(vec![1u8; 4]), // shrinks: stale scratch must not leak
            Response::Error("gone".into()),
        ];
        let mut stream = Vec::new();
        for resp in &responses {
            stream.extend_from_slice(&resp.encode());
        }
        let mut scratch = Vec::new();
        let mut cursor = &stream[..];
        for resp in &responses {
            let (got, wire) = read_response_into(&mut cursor, &mut scratch)
                .unwrap()
                .unwrap();
            assert_eq!(&got, resp);
            assert_eq!(wire, resp.encode().len());
        }
        assert!(read_response_into(&mut cursor, &mut scratch)
            .unwrap()
            .is_none());
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert!(read_request(&mut empty).unwrap().is_none());
        let bytes = Request::Ping.encode();
        let mut cut = &bytes[..bytes.len() - 1];
        assert!(read_request(&mut cut).is_err(), "truncated frame");
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let mut bytes = Request::Ping.encode();
        bytes[4] = 3; // future version beyond both supported layouts
        match Request::decode(&bytes) {
            Err(ClusterError::Protocol { reason }) => assert!(reason.contains("version")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        let mut bytes = Request::Ping.encode();
        bytes[0] = b'X';
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn v1_frames_without_trace_extension_still_accepted() {
        // Untraced encodes stay on the v1 layout — byte-identical to what
        // a pre-trace peer emits — and decode with no trace attached.
        let req = Request::GetUnits {
            id: id("old.bin", 4, 1),
            sub: 6,
            units: vec![1, 3],
        };
        let bytes = req.encode();
        assert_eq!(bytes[4], VERSION, "untraced frames keep the v1 layout");
        assert_eq!(bytes.len(), frame_bytes(bytes.len() - FRAME_OVERHEAD));
        let (got, trace) = Request::decode_traced(&bytes).unwrap();
        assert_eq!(got, req);
        assert_eq!(trace, None);
        let mut cursor = &bytes[..];
        let (got, wire, trace) = read_request_traced(&mut cursor).unwrap().unwrap();
        assert_eq!(got, req);
        assert_eq!(wire, bytes.len());
        assert_eq!(trace, None);
    }

    #[test]
    fn traced_frames_use_v2_and_roundtrip() {
        let req = Request::GetBlock { id: id("t", 9, 2) };
        let wt = WireTrace {
            trace: 0x1122_3344_5566_7788,
            span: 42,
        };
        let bytes = req.encode_traced(Some(wt));
        assert_eq!(bytes[4], TRACED_VERSION);
        assert_eq!(
            bytes.len(),
            req.encode().len() + 1 + TRACE_EXT_BYTES,
            "the extension costs exactly flags + 16 bytes"
        );
        let (got, trace) = Request::decode_traced(&bytes).unwrap();
        assert_eq!(got, req);
        assert_eq!(trace, Some(wt));
        // The plain decoder accepts the frame too, dropping the trace.
        assert_eq!(Request::decode(&bytes).unwrap(), req);
        // Stream adapter agrees, and accounts the extension in wire bytes.
        let mut cursor = &bytes[..];
        let (got, wire, trace) = read_request_traced(&mut cursor).unwrap().unwrap();
        assert_eq!(got, req);
        assert_eq!(wire, bytes.len());
        assert_eq!(trace, Some(wt));
        // Unknown flag bits are rejected, not silently skipped: a future
        // extension could change the layout after the flags byte.
        let mut bad = bytes.clone();
        bad[5] |= 0x02;
        match Request::decode(&bad) {
            Err(ClusterError::Protocol { reason }) => assert!(reason.contains("flags")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        // A v2 frame with no flags set parses as untraced.
        let p = vec![0x01u8]; // TAG_PING
        let mut v2_plain = Vec::new();
        v2_plain.extend_from_slice(&MAGIC);
        v2_plain.push(TRACED_VERSION);
        v2_plain.push(0);
        v2_plain.extend_from_slice(&(p.len() as u32).to_le_bytes());
        v2_plain.extend_from_slice(&p);
        v2_plain.extend_from_slice(&crc32(&p).to_le_bytes());
        let (got, trace) = Request::decode_traced(&v2_plain).unwrap();
        assert_eq!(got, Request::Ping);
        assert_eq!(trace, None);
    }

    #[test]
    fn stats_snapshot_roundtrips_and_rejects_hostile_buckets() {
        let snap = telemetry::Snapshot {
            counters: vec![("node.rx".into(), 123), ("node.tx".into(), u64::MAX)],
            gauges: vec![("inflight".into(), -7)],
            histograms: vec![
                ("empty_us".into(), telemetry::HistogramSnapshot::new()),
                (
                    "lat_us".into(),
                    telemetry::HistogramSnapshot {
                        count: 3,
                        sum: 2100,
                        min: 100,
                        max: 1100,
                        buckets: vec![(98, 2), (160, 1)],
                    },
                ),
            ],
        };
        let bytes = encode_stats(&snap);
        assert_eq!(decode_stats(&bytes).unwrap(), snap);
        // Over the wire as a full exchange.
        let resp = Response::Data(bytes.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::Data(d) => assert_eq!(decode_stats(&d).unwrap(), snap),
            other => panic!("unexpected {other:?}"),
        }
        // Truncation anywhere is an error, not a partial snapshot.
        for cut in 0..bytes.len() {
            assert!(decode_stats(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Bucket indices beyond the scheme or out of order are rejected.
        let bogus = telemetry::Snapshot {
            histograms: vec![(
                "h".into(),
                telemetry::HistogramSnapshot {
                    count: 1,
                    sum: 1,
                    min: 1,
                    max: 1,
                    buckets: vec![(telemetry::snapshot::BUCKETS as u32, 1)],
                },
            )],
            ..Default::default()
        };
        assert!(decode_stats(&encode_stats(&bogus)).is_err());
        let unsorted = telemetry::Snapshot {
            histograms: vec![(
                "h".into(),
                telemetry::HistogramSnapshot {
                    count: 2,
                    sum: 2,
                    min: 1,
                    max: 1,
                    buckets: vec![(5, 1), (5, 1)],
                },
            )],
            ..Default::default()
        };
        assert!(decode_stats(&encode_stats(&unsorted)).is_err());
    }

    #[test]
    fn hostile_fields_rejected() {
        // Path traversal in the file name.
        let evil = Request::GetBlock {
            id: id("../../etc/passwd", 0, 0),
        };
        assert!(Request::decode(&evil.encode()).is_err());
        // Unit index out of range of sub.
        let bad = Request::GetUnits {
            id: id("f", 0, 0),
            sub: 3,
            units: vec![3],
        };
        assert!(Request::decode(&bad.encode()).is_err());
        // Coefficient count disagreeing with the matrix shape.
        let bad = Request::RepairRead {
            id: id("f", 0, 0),
            rows: 2,
            cols: 2,
            coeffs: vec![1, 2, 3],
        };
        assert!(Request::decode(&bad.encode()).is_err());
        // WriteDelta with zero-width units or no deltas/rows.
        let bad = Request::WriteDelta {
            id: id("f", 0, 0),
            unit_bytes: 0,
            deltas: vec![vec![]],
            rows: vec![(0, vec![1])],
        };
        assert!(Request::decode(&bad.encode()).is_err());
        let bad = Request::WriteDelta {
            id: id("f", 0, 0),
            unit_bytes: 4,
            deltas: vec![],
            rows: vec![],
        };
        assert!(Request::decode(&bad.encode()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_put_block_roundtrips(
            stripe in 0u32..1000,
            block in 0u32..256,
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            let req = Request::PutBlock { id: id("prop.bin", stripe, block), data };
            let bytes = req.encode();
            prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
        }

        #[test]
        fn prop_data_response_roundtrips(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            let resp = Response::Data(data);
            let bytes = resp.encode();
            prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }

        #[test]
        fn prop_truncation_always_rejected(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = Request::PutBlock { id: id("t", 0, 0), data }.encode();
            // Cut strictly inside the frame: decode must fail, and the
            // stream reader must not report a clean EOF.
            let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
            prop_assert!(Request::decode(&bytes[..cut]).is_err());
            let mut stream = &bytes[..cut];
            prop_assert!(read_request(&mut stream).is_err());
        }

        #[test]
        fn prop_single_byte_corruption_rejected(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..256),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let req = Request::PutBlock { id: id("c", 3, 1), data };
            let mut bytes = req.encode();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            // Any single-byte flip lands in the magic/version (explicitly
            // checked), the length (breaks the frame-size equation), or the
            // checksummed payload/CRC — never a silently different message.
            match Request::decode(&bytes) {
                Err(_) => {}
                Ok(decoded) => prop_assert_eq!(decoded, req, "corruption changed the message"),
            }
        }

        #[test]
        fn prop_trace_ctx_roundtrips_through_extended_header(
            trace in proptest::prelude::any::<u64>(),
            span in proptest::prelude::any::<u64>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let wt = WireTrace { trace: trace.max(1), span };
            let req = Request::PutBlock { id: id("tr", 1, 0), data };
            let bytes = req.encode_traced(Some(wt));
            let (got, got_trace) = Request::decode_traced(&bytes).unwrap();
            prop_assert_eq!(&got, &req);
            prop_assert_eq!(got_trace, Some(wt));
            let mut cursor = &bytes[..];
            let (got, wire, got_trace) = read_request_traced(&mut cursor).unwrap().unwrap();
            prop_assert_eq!(got, req);
            prop_assert_eq!(wire, bytes.len());
            prop_assert_eq!(got_trace, Some(wt));
        }

        #[test]
        fn prop_single_byte_corruption_rejected_traced(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..256),
            pos_frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let req = Request::PutBlock { id: id("c", 3, 1), data };
            let wt = WireTrace { trace: 0xABCD_EF01_2345_6789, span: 5 };
            let mut bytes = req.encode_traced(Some(wt));
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            // The trace extension sits outside the CRC, so a flip there may
            // relabel the trace — but the *message* is still protected: it
            // either fails to decode or decodes identically.
            match Request::decode(&bytes) {
                Err(_) => {}
                Ok(decoded) => prop_assert_eq!(decoded, req, "corruption changed the message"),
            }
        }
    }
}
