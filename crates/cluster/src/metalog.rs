//! Append-only binary record log for cluster metadata.
//!
//! The coordinator's durable state — node registrations and file
//! placements — is a sequence of typed records appended to one log file.
//! Each record is individually CRC-framed, so crash recovery is a single
//! forward scan that stops at the first torn record and truncates the
//! file there: everything before the tear is intact (each record's CRC
//! vouches for it), everything after never happened. There is no undo
//! and no in-place mutation; a repair that re-homes a block appends a
//! [`MetaRecord::PlacementCommitted`] rather than rewriting the
//! [`MetaRecord::FilePlaced`] record it amends.
//!
//! The log grows without bound under churn, so [`MetaLog::compact`]
//! rewrites the *current* state (history collapsed) as a fresh snapshot
//! into a temp file and atomically renames it over the log — the
//! classic snapshot + tail scheme, with the tail being whatever is
//! appended after the rename. [`MetaLog::append`] triggers this
//! automatically past a size threshold via the caller-supplied snapshot
//! (the coordinator owns the state, the log owns the bytes).
//!
//! ## On-disk format
//!
//! ```text
//! header:  "CRSLMLOG" (8 bytes) ++ version (u32 LE, = 1)
//! record:  len (u32 LE, payload bytes) ++ payload ++ crc32(payload) (u32 LE)
//! payload: tag (u8) ++ body (tag-specific, see `docs/CLUSTER.md`)
//! ```
//!
//! All integers are little-endian; strings are `u16 LE length ++ UTF-8`.
//! A record whose length field, CRC, or body fails validation — or that
//! simply ends past EOF — is *torn*, and recovery keeps only the bytes
//! before it. Appends are flushed to the OS per record but not fsynced;
//! the tear-tolerant format is what makes that safe.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::LazyLock;
use std::time::Instant;

use filestore::checksum::crc32;
use filestore::format::CodeSpec;

use crate::coordinator::FilePlacement;
use crate::error::ClusterError;

/// Log file magic, first 8 bytes of every metalog.
pub const MAGIC: [u8; 8] = *b"CRSLMLOG";
/// Current log format version.
pub const VERSION: u32 = 1;
/// Header bytes preceding the first record.
pub const HEADER_BYTES: usize = 12;
/// Hard bound on one record's payload, against corrupt length fields.
pub const MAX_RECORD: usize = 64 << 20;
/// Default log size that triggers compaction on append.
pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

const TAG_NODE_REGISTERED: u8 = 0x01;
const TAG_FILE_PLACED: u8 = 0x02;
const TAG_PLACEMENT_COMMITTED: u8 = 0x03;
const TAG_FILE_DELETED: u8 = 0x04;
const TAG_OBJECT_PACKED: u8 = 0x05;
const TAG_OBJECT_DELETED: u8 = 0x06;
const TAG_FILE_EXTENDED: u8 = 0x07;

/// Decode bounds: a corrupt record must not allocate absurd amounts
/// before its CRC check has already rejected it — these are sanity caps
/// on top of the CRC, not the real validation.
const MAX_STRIPES: u64 = 1 << 22;
const MAX_ROW: u32 = 4096;

static LOG_APPEND_US: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("meta.log.append_us"));
static LOG_RECORDS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.log.records"));
static COMPACTION_RUNS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.compaction.runs"));

fn emit(event: &str, detail: impl FnOnce(telemetry::json::Obj) -> telemetry::json::Obj) {
    if telemetry::event_sink_installed() {
        let obj = telemetry::json::Obj::new()
            .str("type", "meta")
            .str("event", event);
        telemetry::emit_event(detail(obj));
    }
}

/// One durable metadata mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaRecord {
    /// A datanode joined the cluster (or moved to a new address).
    /// Replay registers the node *dead*; only a live heartbeat revives it.
    NodeRegistered {
        /// Cluster-wide node id.
        id: u64,
        /// The datanode's listen address, as printed by `SocketAddr`.
        addr: String,
    },
    /// A file was placed: the full stripe → node map at placement time.
    FilePlaced(FilePlacement),
    /// Repair re-homed one block: `nodes[stripe][role] = node` from now on.
    PlacementCommitted {
        /// File whose placement is amended.
        file: String,
        /// Stripe index within the file.
        stripe: u32,
        /// Block role within the stripe.
        role: u32,
        /// The node now holding the block.
        node: u64,
    },
    /// A file left the namespace.
    FileDeleted {
        /// The deleted file's name.
        file: String,
    },
    /// A small object was packed into a shared pack file: only its
    /// extent is metadata; the bytes live in the pack's stripes.
    ObjectPacked {
        /// The packed object's name.
        object: String,
        /// The pack file holding its bytes.
        pack: String,
        /// Byte offset within the pack.
        offset: u64,
        /// Object length in bytes.
        len: u64,
    },
    /// A packed object left the namespace (its pack keeps the bytes
    /// until compaction).
    ObjectDeleted {
        /// The deleted object's name.
        object: String,
    },
    /// A file grew in place: the new length, plus placement rows for any
    /// freshly appended stripes (empty when the append fit in the last
    /// stripe's padding).
    FileExtended {
        /// The extended file.
        file: String,
        /// The file's new length in bytes.
        file_len: u64,
        /// `nodes[new stripe][role]` rows appended to the placement.
        added: Vec<Vec<usize>>,
    },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Forward-only reader over one record payload. Every accessor returns
/// `None` past the end — decode treats that as a torn record.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes one record's *payload* (tag + body, no framing).
pub fn encode_payload(rec: &MetaRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        MetaRecord::NodeRegistered { id, addr } => {
            out.push(TAG_NODE_REGISTERED);
            put_u64(&mut out, *id);
            put_str(&mut out, addr);
        }
        MetaRecord::FilePlaced(fp) => {
            out.push(TAG_FILE_PLACED);
            put_str(&mut out, &fp.name);
            put_str(&mut out, &fp.spec.to_string());
            put_u64(&mut out, fp.file_len);
            put_u64(&mut out, fp.block_bytes as u64);
            put_u64(&mut out, fp.stripes as u64);
            for row in &fp.nodes {
                put_u32(&mut out, row.len() as u32);
                for &node in row {
                    put_u32(&mut out, node as u32);
                }
            }
        }
        MetaRecord::PlacementCommitted {
            file,
            stripe,
            role,
            node,
        } => {
            out.push(TAG_PLACEMENT_COMMITTED);
            put_str(&mut out, file);
            put_u32(&mut out, *stripe);
            put_u32(&mut out, *role);
            put_u64(&mut out, *node);
        }
        MetaRecord::FileDeleted { file } => {
            out.push(TAG_FILE_DELETED);
            put_str(&mut out, file);
        }
        MetaRecord::ObjectPacked {
            object,
            pack,
            offset,
            len,
        } => {
            out.push(TAG_OBJECT_PACKED);
            put_str(&mut out, object);
            put_str(&mut out, pack);
            put_u64(&mut out, *offset);
            put_u64(&mut out, *len);
        }
        MetaRecord::ObjectDeleted { object } => {
            out.push(TAG_OBJECT_DELETED);
            put_str(&mut out, object);
        }
        MetaRecord::FileExtended {
            file,
            file_len,
            added,
        } => {
            out.push(TAG_FILE_EXTENDED);
            put_str(&mut out, file);
            put_u64(&mut out, *file_len);
            put_u64(&mut out, added.len() as u64);
            for row in added {
                put_u32(&mut out, row.len() as u32);
                for &node in row {
                    put_u32(&mut out, node as u32);
                }
            }
        }
    }
    out
}

/// Encodes one fully framed record: `len ++ payload ++ crc`.
pub fn encode_record(rec: &MetaRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    put_u32(&mut out, crc32(&payload));
    out
}

/// Decodes one payload (as framed by [`encode_record`]). `None` means
/// the payload is malformed — recovery treats the record as torn.
pub fn decode_payload(payload: &[u8]) -> Option<MetaRecord> {
    let mut cur = Cur {
        buf: payload,
        pos: 0,
    };
    let rec = match cur.u8()? {
        TAG_NODE_REGISTERED => MetaRecord::NodeRegistered {
            id: cur.u64()?,
            addr: cur.str()?,
        },
        TAG_FILE_PLACED => {
            let name = cur.str()?;
            let spec = CodeSpec::parse(&cur.str()?).ok()?;
            let file_len = cur.u64()?;
            let block_bytes = cur.u64()?;
            let stripes = cur.u64()?;
            if stripes > MAX_STRIPES {
                return None;
            }
            let mut nodes = Vec::with_capacity(stripes as usize);
            for _ in 0..stripes {
                let len = cur.u32()?;
                if len > MAX_ROW {
                    return None;
                }
                let mut row = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    row.push(cur.u32()? as usize);
                }
                nodes.push(row);
            }
            MetaRecord::FilePlaced(FilePlacement {
                name,
                spec,
                file_len,
                block_bytes: usize::try_from(block_bytes).ok()?,
                stripes: usize::try_from(stripes).ok()?,
                nodes,
            })
        }
        TAG_PLACEMENT_COMMITTED => MetaRecord::PlacementCommitted {
            file: cur.str()?,
            stripe: cur.u32()?,
            role: cur.u32()?,
            node: cur.u64()?,
        },
        TAG_FILE_DELETED => MetaRecord::FileDeleted { file: cur.str()? },
        TAG_OBJECT_PACKED => MetaRecord::ObjectPacked {
            object: cur.str()?,
            pack: cur.str()?,
            offset: cur.u64()?,
            len: cur.u64()?,
        },
        TAG_OBJECT_DELETED => MetaRecord::ObjectDeleted { object: cur.str()? },
        TAG_FILE_EXTENDED => {
            let file = cur.str()?;
            let file_len = cur.u64()?;
            let count = cur.u64()?;
            if count > MAX_STRIPES {
                return None;
            }
            let mut added = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let len = cur.u32()?;
                if len > MAX_ROW {
                    return None;
                }
                let mut row = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    row.push(cur.u32()? as usize);
                }
                added.push(row);
            }
            MetaRecord::FileExtended {
                file,
                file_len,
                added,
            }
        }
        _ => return None,
    };
    cur.done().then_some(rec)
}

/// Scans log bytes (header included) and returns the records of the
/// longest valid prefix plus that prefix's byte length. A missing or
/// corrupt header yields `(vec![], 0)`; a torn record anywhere stops
/// the scan at the last record that checked out.
pub fn recover(bytes: &[u8]) -> (Vec<MetaRecord>, usize) {
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC || bytes[8..12] != VERSION.to_le_bytes() {
        return (Vec::new(), 0);
    }
    let mut records = Vec::new();
    let mut pos = HEADER_BYTES;
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_RECORD {
            break;
        }
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            break;
        };
        let Some(crc_bytes) = bytes.get(pos + 4 + len..pos + 8 + len) else {
            break;
        };
        if crc32(payload) != u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) {
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        records.push(rec);
        pos += 8 + len;
    }
    (records, pos)
}

/// Reads a log without opening it for writing — what `carousel-tool
/// manifest dump` uses. Returns `(records, valid_bytes, file_bytes)`;
/// `valid_bytes < file_bytes` means the tail is torn.
///
/// # Errors
///
/// Propagates filesystem failures; a malformed log is not an error
/// (recovery semantics apply, the torn tail is simply reported).
pub fn read_records(path: &Path) -> Result<(Vec<MetaRecord>, u64, u64), ClusterError> {
    let bytes = std::fs::read(path)?;
    let (records, valid) = recover(&bytes);
    Ok((records, valid as u64, bytes.len() as u64))
}

/// An open, appendable metadata log.
pub struct MetaLog {
    path: PathBuf,
    file: File,
    bytes: u64,
    records: u64,
    compact_min: u64,
    compact_at: u64,
}

impl fmt::Debug for MetaLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetaLog")
            .field("path", &self.path)
            .field("bytes", &self.bytes)
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

impl MetaLog {
    /// Creates a fresh empty log at `path`, truncating anything there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(path: &Path) -> Result<MetaLog, ClusterError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.flush()?;
        Ok(MetaLog {
            path: path.to_path_buf(),
            file,
            bytes: HEADER_BYTES as u64,
            records: 0,
            compact_min: DEFAULT_COMPACT_THRESHOLD,
            compact_at: DEFAULT_COMPACT_THRESHOLD,
        })
    }

    /// Opens (or creates) the log at `path`, replaying it: returns the
    /// log positioned for appends plus every record in the longest
    /// valid prefix. A torn tail is truncated away on the spot, so the
    /// next append lands right after the last intact record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. Corruption is not an error —
    /// recovery keeps the valid prefix (possibly empty).
    pub fn open(path: &Path) -> Result<(MetaLog, Vec<MetaRecord>), ClusterError> {
        if !path.exists() {
            return Ok((MetaLog::create(path)?, Vec::new()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (recs, valid) = recover(&bytes);
        if valid == 0 {
            // Unreadable header: start the log over rather than refuse
            // to serve. (An empty or foreign file has no records to lose.)
            drop(file);
            return Ok((MetaLog::create(path)?, Vec::new()));
        }
        if valid < bytes.len() {
            let torn = bytes.len() - valid;
            file.set_len(valid as u64)?;
            emit("recover_truncated", |o| {
                o.str("path", &path.display().to_string())
                    .u64("torn_bytes", torn as u64)
                    .u64("records", recs.len() as u64)
            });
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        let mut log = MetaLog {
            path: path.to_path_buf(),
            file,
            bytes: valid as u64,
            records: recs.len() as u64,
            compact_min: DEFAULT_COMPACT_THRESHOLD,
            compact_at: DEFAULT_COMPACT_THRESHOLD,
        };
        log.compact_at = log.compact_at.max(2 * log.bytes);
        Ok((log, recs))
    }

    /// Lowers (or raises) the compaction trigger — tests use tiny
    /// thresholds to force compactions; the bench raises it to measure
    /// raw append throughput.
    #[must_use]
    pub fn with_compact_threshold(mut self, bytes: u64) -> MetaLog {
        self.compact_min = bytes;
        self.compact_at = bytes.max(2 * self.bytes);
        self
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the in-memory byte count is only
    /// advanced on success, so a failed append can be retried.
    pub fn append(&mut self, rec: &MetaRecord) -> Result<(), ClusterError> {
        let start = Instant::now();
        let framed = encode_record(rec);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.bytes += framed.len() as u64;
        self.records += 1;
        LOG_APPEND_US.record_f64(start.elapsed().as_secs_f64() * 1e6);
        LOG_RECORDS.inc();
        Ok(())
    }

    /// Whether the log has outgrown its threshold and the owner should
    /// call [`MetaLog::compact`] with a state snapshot.
    pub fn needs_compaction(&self) -> bool {
        self.bytes >= self.compact_at
    }

    /// Rewrites the log as `snapshot` (current state, history
    /// collapsed): records go to a temp file that is atomically renamed
    /// over the log, so a crash mid-compaction leaves the old log
    /// intact. The next trigger is set to twice the new size so a large
    /// live state doesn't compact on every append.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the old log is still in
    /// place and open.
    pub fn compact(&mut self, snapshot: &[MetaRecord]) -> Result<(), ClusterError> {
        let before = self.bytes;
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut out = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            out.write_all(&MAGIC)?;
            out.write_all(&VERSION.to_le_bytes())?;
            for rec in snapshot {
                out.write_all(&encode_record(rec))?;
            }
            out.flush()?;
            out.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        let end = file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.bytes = end;
        self.records = snapshot.len() as u64;
        self.compact_at = self.compact_min.max(2 * self.bytes);
        COMPACTION_RUNS.inc();
        emit("compact", |o| {
            o.str("path", &self.path.display().to_string())
                .u64("bytes_before", before)
                .u64("bytes_after", self.bytes)
                .u64("records", self.records)
        });
        Ok(())
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended since open (or surviving the last compaction).
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "carousel-metalog-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_placement(name: &str, seed: usize) -> FilePlacement {
        FilePlacement {
            name: name.to_string(),
            spec: CodeSpec::Carousel {
                n: 6,
                k: 3,
                d: 4,
                p: 3,
            },
            file_len: 1000 + seed as u64,
            block_bytes: 256,
            stripes: 2,
            nodes: vec![
                vec![seed, seed + 1, seed + 2, 9, 10, 11],
                vec![0, 1, 2, 3, 4, 5],
            ],
        }
    }

    fn sample_records() -> Vec<MetaRecord> {
        vec![
            MetaRecord::NodeRegistered {
                id: 3,
                addr: "127.0.0.1:9301".into(),
            },
            MetaRecord::FilePlaced(sample_placement("a.bin", 1)),
            MetaRecord::PlacementCommitted {
                file: "a.bin".into(),
                stripe: 1,
                role: 2,
                node: 7,
            },
            MetaRecord::FileDeleted {
                file: "a.bin".into(),
            },
            MetaRecord::ObjectPacked {
                object: "tiny.json".into(),
                pack: ".pack-0003".into(),
                offset: 4096,
                len: 120,
            },
            MetaRecord::ObjectDeleted {
                object: "tiny.json".into(),
            },
            MetaRecord::FileExtended {
                file: "a.bin".into(),
                file_len: 2200,
                added: vec![vec![1, 2, 3, 4, 5, 6], vec![6, 5, 4, 3, 2, 1]],
            },
            MetaRecord::FileExtended {
                file: "a.bin".into(),
                file_len: 2300,
                added: vec![],
            },
        ]
    }

    #[test]
    fn roundtrip_through_file() {
        let path = tmp("roundtrip");
        let recs = sample_records();
        {
            let mut log = MetaLog::create(&path).unwrap();
            for r in &recs {
                log.append(r).unwrap();
            }
            assert_eq!(log.records(), recs.len() as u64);
        }
        let (log, replayed) = MetaLog::open(&path).unwrap();
        assert_eq!(replayed, recs);
        assert_eq!(log.records(), recs.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_missing_and_foreign_files() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (log, recs) = MetaLog::open(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(log.bytes(), HEADER_BYTES as u64);
        drop(log);
        // A file that is not a metalog restarts empty instead of erroring.
        std::fs::write(&path, b"format=carousel-cluster-v1\n").unwrap();
        let (log, recs) = MetaLog::open(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(log.bytes(), HEADER_BYTES as u64);
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_collapses_history_and_survives_reopen() {
        let path = tmp("compact");
        let mut log = MetaLog::create(&path).unwrap().with_compact_threshold(1);
        for i in 0..50 {
            log.append(&MetaRecord::PlacementCommitted {
                file: "f".into(),
                stripe: i,
                role: 0,
                node: u64::from(i),
            })
            .unwrap();
        }
        assert!(log.needs_compaction());
        let snap = vec![MetaRecord::FilePlaced(sample_placement("f", 0))];
        log.compact(&snap).unwrap();
        assert_eq!(log.records(), 1);
        // Tail appends after the snapshot survive a reopen.
        log.append(&MetaRecord::FileDeleted { file: "f".into() })
            .unwrap();
        drop(log);
        let (_, recs) = MetaLog::open(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], snap[0]);
        assert_eq!(recs[1], MetaRecord::FileDeleted { file: "f".into() });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_truncates_from_that_record() {
        let recs = sample_records();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        let mut third_start = 0;
        for (i, r) in recs.iter().enumerate() {
            if i == 2 {
                third_start = bytes.len();
            }
            bytes.extend_from_slice(&encode_record(r));
        }
        // Flip one payload byte of the third record: it and everything
        // after it are gone; the first two survive.
        bytes[third_start + 5] ^= 0xFF;
        let (got, valid) = recover(&bytes);
        assert_eq!(got, recs[..2]);
        assert_eq!(valid, third_start);
    }

    proptest! {
        // Satellite: truncating the log at *every* byte offset inside the
        // last record recovers exactly the longest valid prefix — no
        // panic, no phantom records, and the valid length points at the
        // prefix end so `open` truncates there.
        #[test]
        fn torn_tail_recovers_longest_prefix(
            names in proptest::collection::vec(0usize..1000, 1..6),
            seed in 0usize..100,
        ) {
            let mut recs: Vec<MetaRecord> = Vec::new();
            for (i, &n) in names.iter().enumerate() {
                let name = format!("f{n:03}.bin");
                recs.push(match (seed + i) % 7 {
                    0 => MetaRecord::NodeRegistered {
                        id: (seed + i) as u64,
                        addr: format!("10.0.0.{}:7000", i + 1),
                    },
                    1 => MetaRecord::FilePlaced(sample_placement(&name, seed + i)),
                    2 => MetaRecord::PlacementCommitted {
                        file: name,
                        stripe: i as u32,
                        role: (seed % 3) as u32,
                        node: seed as u64,
                    },
                    3 => MetaRecord::FileDeleted { file: name },
                    4 => MetaRecord::ObjectPacked {
                        object: name,
                        pack: format!(".pack-{seed:04}"),
                        offset: (seed * 512) as u64,
                        len: (i * 31 + 1) as u64,
                    },
                    5 => MetaRecord::ObjectDeleted { object: name },
                    _ => MetaRecord::FileExtended {
                        file: name,
                        file_len: (seed * 1000 + i) as u64,
                        added: vec![vec![i, i + 1, i + 2]; i % 3],
                    },
                });
            }
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            let mut prefix_end = 0;
            for (i, r) in recs.iter().enumerate() {
                if i == recs.len() - 1 {
                    prefix_end = bytes.len();
                }
                bytes.extend_from_slice(&encode_record(r));
            }
            // Whole log intact: everything comes back.
            let (all, valid) = recover(&bytes);
            prop_assert_eq!(&all, &recs);
            prop_assert_eq!(valid, bytes.len());
            // Torn anywhere inside the last record: exactly the prefix.
            for cut in prefix_end..bytes.len() {
                let (got, valid) = recover(&bytes[..cut]);
                prop_assert_eq!(&got, &recs[..recs.len() - 1]);
                prop_assert_eq!(valid, prefix_end);
            }
        }

        #[test]
        fn payload_roundtrip(id in any::<u64>(), stripe in any::<u32>(), tag in 0usize..10_000) {
            let name = format!("file-{tag:04}.dat");
            let recs = vec![
                MetaRecord::NodeRegistered { id, addr: "127.0.0.1:1".into() },
                MetaRecord::PlacementCommitted { file: name.clone(), stripe, role: 1, node: id },
                MetaRecord::FileDeleted { file: name },
            ];
            for rec in recs {
                let payload = encode_payload(&rec);
                prop_assert_eq!(decode_payload(&payload), Some(rec));
            }
        }
    }
}
