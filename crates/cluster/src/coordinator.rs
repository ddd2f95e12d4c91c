//! The coordinator: node registry, heartbeats, and file → stripe → block
//! → node placement.
//!
//! Mirrors the namenode of the paper's Hadoop testbed, but against *live*
//! TCP datanodes: nodes register on startup and heartbeat periodically;
//! placement reuses [`dfs::Placement`] (random or rack-aware) against the
//! currently-alive node set. The client consults the coordinator for
//! addresses and placement and reports nodes it finds unreachable, which
//! is how a mid-read failure becomes a degraded read on the next plan.
//!
//! Durability comes from [`crate::metalog`]: a coordinator opened with
//! [`Coordinator::open_log`] appends every metadata mutation (node
//! registrations, placements, repair re-homings, deletions) to an
//! append-only CRC-framed record log and replays it on startup. Replayed
//! nodes start *dead* — a cold-started coordinator must not plan reads
//! against nodes that vanished while it was down; the first live
//! heartbeat (or a [`Coordinator::verify_nodes`] ping sweep) revives
//! them. Every placement mutation also advances the coordinator's
//! *epoch*, which clients compare to validate cached per-file manifests
//! (see [`crate::router::MetaRouter`]).

use std::collections::BTreeMap;
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::{Duration, Instant};

use dfs::Placement;
use filestore::format::CodeSpec;
use rand::Rng;

use crate::error::ClusterError;
use crate::metalog::{MetaLog, MetaRecord};
use crate::protocol::{self, Request, Response};

static SHARD_EPOCH: LazyLock<&'static telemetry::Gauge> =
    LazyLock::new(|| telemetry::gauge("meta.shard.epoch"));
static LOG_ERRORS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("meta.log.errors"));

/// One liveness *transition* observed by the coordinator, delivered to
/// the registered listener (see
/// [`Coordinator::set_liveness_listener`]). Only genuine edges are
/// reported: a heartbeat from an already-alive node or a repeat
/// `mark_dead` of a dead one emits nothing, so a subscriber (the
/// background repair scheduler) can treat every event as new work or a
/// cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessEvent {
    /// A node came (back) up: fresh registration, re-registration after
    /// death, or a heartbeat reviving an expired node.
    Up(usize),
    /// A node went down: client report or heartbeat expiry.
    Down(usize),
}

type LivenessListener = Box<dyn Fn(LivenessEvent) + Send + Sync>;

/// One registered datanode.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// The node's cluster-wide id.
    pub id: usize,
    /// Where its datanode server listens.
    pub addr: SocketAddr,
    /// Whether the coordinator currently believes the node is up.
    pub alive: bool,
}

#[derive(Debug, Clone)]
struct NodeEntry {
    info: NodeInfo,
    last_seen: Instant,
}

/// Placement of one file: which node holds each block of each stripe.
#[derive(Debug, Clone, PartialEq)]
pub struct FilePlacement {
    /// File name (the key for reads and repair).
    pub name: String,
    /// The erasure code protecting the file.
    pub spec: CodeSpec,
    /// Original file length in bytes.
    pub file_len: u64,
    /// Bytes per encoded block.
    pub block_bytes: usize,
    /// Number of stripes.
    pub stripes: usize,
    /// `nodes[stripe][block-role]` → node id.
    pub nodes: Vec<Vec<usize>>,
}

/// A packed object's location: which pack file holds its bytes, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectExtent {
    /// The pack file (a regular placed file) holding the bytes.
    pub pack: String,
    /// Byte offset of the object within the pack.
    pub offset: u64,
    /// Object length in bytes.
    pub len: u64,
}

#[derive(Debug, Default)]
struct State {
    nodes: BTreeMap<usize, NodeEntry>,
    files: BTreeMap<String, FilePlacement>,
    extents: BTreeMap<String, ObjectExtent>,
    log: Option<MetaLog>,
}

impl State {
    /// Appends to the log when one is attached. Membership records may
    /// tolerate failure (`required = false`): a lost `NodeRegistered`
    /// only costs a re-announcement after the next restart, and the
    /// datanode heartbeat path has no error channel. Placement records
    /// are `required`: losing one silently would desynchronize
    /// recovered state from the blocks on disk.
    fn log_append(&mut self, rec: &MetaRecord, required: bool) -> Result<(), ClusterError> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        match log.append(rec) {
            Ok(()) => Ok(()),
            Err(e) => {
                LOG_ERRORS.inc();
                if required {
                    Err(e)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Current state collapsed to the minimal record sequence that
    /// recreates it — what compaction writes as the snapshot.
    fn snapshot_records(&self) -> Vec<MetaRecord> {
        let mut out = Vec::with_capacity(self.nodes.len() + self.files.len());
        for entry in self.nodes.values() {
            out.push(MetaRecord::NodeRegistered {
                id: entry.info.id as u64,
                addr: entry.info.addr.to_string(),
            });
        }
        for fp in self.files.values() {
            out.push(MetaRecord::FilePlaced(fp.clone()));
        }
        for (object, ext) in &self.extents {
            out.push(MetaRecord::ObjectPacked {
                object: object.clone(),
                pack: ext.pack.clone(),
                offset: ext.offset,
                len: ext.len,
            });
        }
        out
    }

    fn maybe_compact(&mut self) {
        if self.log.as_ref().is_some_and(MetaLog::needs_compaction) {
            let snapshot = self.snapshot_records();
            if let Some(log) = self.log.as_mut() {
                if log.compact(&snapshot).is_err() {
                    LOG_ERRORS.inc();
                }
            }
        }
    }
}

/// The cluster's metadata service. Cheap to share: all methods take
/// `&self` behind an internal lock, so an `Arc<Coordinator>` serves the
/// client, the datanodes' heartbeat threads, and tests concurrently.
#[derive(Default)]
pub struct Coordinator {
    state: Mutex<State>,
    listener: Mutex<Option<LivenessListener>>,
    epoch: AtomicU64,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator").finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Creates an empty in-memory coordinator (no durability).
    pub fn new() -> Self {
        Coordinator::default()
    }

    /// Creates a coordinator backed by a *fresh* record log at `path`,
    /// truncating anything already there — what `carousel-tool put`
    /// uses to start a new manifest.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create_log(path: &Path) -> Result<Self, ClusterError> {
        let coord = Coordinator::new();
        coord.state.lock().expect("coordinator lock").log = Some(MetaLog::create(path)?);
        Ok(coord)
    }

    /// Opens (or creates) the record log at `path` and replays it into
    /// a new coordinator, keeping the log attached for appends. A torn
    /// tail is truncated (see [`crate::metalog`]). Replayed nodes start
    /// **dead**: registration records prove a node existed, not that it
    /// still does — the first heartbeat (or a
    /// [`Coordinator::verify_nodes`] sweep) revives the survivors, so a
    /// cold-started coordinator never plans reads against vanished
    /// nodes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; corruption is recovered, not
    /// reported.
    pub fn open_log(path: &Path) -> Result<Self, ClusterError> {
        let (log, records) = MetaLog::open(path)?;
        let coord = Coordinator::new();
        let mut mutations = 0u64;
        {
            let mut st = coord.state.lock().expect("coordinator lock");
            let now = Instant::now();
            for rec in records {
                match rec {
                    MetaRecord::NodeRegistered { id, addr } => {
                        let Ok(addr) = addr.parse::<SocketAddr>() else {
                            continue;
                        };
                        let id = id as usize;
                        st.nodes.insert(
                            id,
                            NodeEntry {
                                info: NodeInfo {
                                    id,
                                    addr,
                                    alive: false,
                                },
                                last_seen: now,
                            },
                        );
                    }
                    MetaRecord::FilePlaced(fp) => {
                        mutations += 1;
                        st.files.insert(fp.name.clone(), fp);
                    }
                    MetaRecord::PlacementCommitted {
                        file,
                        stripe,
                        role,
                        node,
                    } => {
                        mutations += 1;
                        if let Some(slot) = st
                            .files
                            .get_mut(&file)
                            .and_then(|fp| fp.nodes.get_mut(stripe as usize))
                            .and_then(|row| row.get_mut(role as usize))
                        {
                            *slot = node as usize;
                        }
                    }
                    MetaRecord::FileDeleted { file } => {
                        mutations += 1;
                        st.files.remove(&file);
                    }
                    MetaRecord::ObjectPacked {
                        object,
                        pack,
                        offset,
                        len,
                    } => {
                        mutations += 1;
                        st.extents
                            .insert(object, ObjectExtent { pack, offset, len });
                    }
                    MetaRecord::ObjectDeleted { object } => {
                        mutations += 1;
                        st.extents.remove(&object);
                    }
                    MetaRecord::FileExtended {
                        file,
                        file_len,
                        added,
                    } => {
                        mutations += 1;
                        if let Some(fp) = st.files.get_mut(&file) {
                            fp.file_len = file_len;
                            fp.stripes += added.len();
                            fp.nodes.extend(added);
                        }
                    }
                }
            }
            st.log = Some(log);
        }
        coord.epoch.store(mutations, Ordering::Relaxed);
        Ok(coord)
    }

    /// The coordinator's shard epoch: a counter advanced by every
    /// placement mutation (place, repair re-homing, delete). Clients
    /// cache per-file manifests tagged with the epoch observed *before*
    /// the manifest read and refetch on mismatch, so a cached manifest
    /// can go stale but can never be served stale.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        let now = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        SHARD_EPOCH.set(now as i64);
    }

    /// Installs the liveness listener, replacing any previous one. The
    /// listener is invoked *after* the coordinator releases its state
    /// lock, so it may call back into any coordinator method (and the
    /// repair scheduler's does).
    pub fn set_liveness_listener(&self, f: impl Fn(LivenessEvent) + Send + Sync + 'static) {
        *self.listener.lock().expect("listener lock") = Some(Box::new(f));
    }

    /// Removes the liveness listener, if any.
    pub fn clear_liveness_listener(&self) {
        *self.listener.lock().expect("listener lock") = None;
    }

    fn notify(&self, events: &[LivenessEvent]) {
        if events.is_empty() {
            return;
        }
        let guard = self.listener.lock().expect("listener lock");
        if let Some(listener) = guard.as_ref() {
            for &ev in events {
                listener(ev);
            }
        }
    }

    /// Registers (or re-registers) a datanode, marking it alive. The
    /// membership change is logged only when the node is new or moved
    /// address, so periodic re-registrations don't grow the log.
    pub fn register(&self, id: usize, addr: SocketAddr) {
        let was_alive = {
            let mut st = self.state.lock().expect("coordinator lock");
            let prev = st.nodes.get(&id).map(|e| (e.info.alive, e.info.addr));
            st.nodes.insert(
                id,
                NodeEntry {
                    info: NodeInfo {
                        id,
                        addr,
                        alive: true,
                    },
                    last_seen: Instant::now(),
                },
            );
            if prev.map(|(_, a)| a) != Some(addr) {
                let rec = MetaRecord::NodeRegistered {
                    id: id as u64,
                    addr: addr.to_string(),
                };
                let _ = st.log_append(&rec, false);
                st.maybe_compact();
            }
            prev.is_some_and(|(alive, _)| alive)
        };
        if !was_alive {
            self.notify(&[LivenessEvent::Up(id)]);
        }
    }

    /// Records a heartbeat from a node, reviving it if it was marked dead.
    pub fn heartbeat(&self, id: usize) {
        let revived = {
            let mut st = self.state.lock().expect("coordinator lock");
            match st.nodes.get_mut(&id) {
                Some(entry) => {
                    let was = entry.info.alive;
                    entry.last_seen = Instant::now();
                    entry.info.alive = true;
                    !was
                }
                None => false,
            }
        };
        if revived {
            self.notify(&[LivenessEvent::Up(id)]);
        }
    }

    /// Marks a node dead (reported by a client that failed to reach it, or
    /// by [`Coordinator::expire_stale`]).
    pub fn mark_dead(&self, id: usize) {
        let died = {
            let mut st = self.state.lock().expect("coordinator lock");
            match st.nodes.get_mut(&id) {
                Some(entry) => {
                    let was = entry.info.alive;
                    entry.info.alive = false;
                    was
                }
                None => false,
            }
        };
        if died {
            self.notify(&[LivenessEvent::Down(id)]);
        }
    }

    /// Marks dead every alive node whose last heartbeat is older than
    /// `ttl`, returning the ids it expired.
    pub fn expire_stale(&self, ttl: Duration) -> Vec<usize> {
        let expired = {
            let mut st = self.state.lock().expect("coordinator lock");
            let now = Instant::now();
            let mut expired = Vec::new();
            for entry in st.nodes.values_mut() {
                if entry.info.alive && now.duration_since(entry.last_seen) > ttl {
                    entry.info.alive = false;
                    expired.push(entry.info.id);
                }
            }
            expired
        };
        let events: Vec<LivenessEvent> =
            expired.iter().map(|&id| LivenessEvent::Down(id)).collect();
        self.notify(&events);
        expired
    }

    /// Pings every currently-dead registered node over TCP and
    /// heartbeats the ones that answer, returning their ids. This is
    /// how a log-recovered coordinator (whose replayed nodes all start
    /// dead) discovers which of them are actually still serving, without
    /// waiting a heartbeat interval.
    pub fn verify_nodes(&self, timeout: Duration) -> Vec<usize> {
        let candidates: Vec<(usize, SocketAddr)> = {
            let st = self.state.lock().expect("coordinator lock");
            st.nodes
                .values()
                .filter(|e| !e.info.alive)
                .map(|e| (e.info.id, e.info.addr))
                .collect()
        };
        let mut verified = Vec::new();
        for (id, addr) in candidates {
            let Ok(mut stream) = TcpStream::connect_timeout(&addr, timeout) else {
                continue;
            };
            let _ = stream.set_read_timeout(Some(timeout));
            let _ = stream.set_write_timeout(Some(timeout));
            if protocol::write_request(&mut stream, &Request::Ping).is_err() {
                continue;
            }
            if matches!(
                protocol::read_response(&mut stream),
                Ok(Some((Response::Pong, _)))
            ) {
                self.heartbeat(id);
                verified.push(id);
            }
        }
        verified
    }

    /// Whether the coordinator currently believes `id` is alive.
    pub fn is_alive(&self, id: usize) -> bool {
        let st = self.state.lock().expect("coordinator lock");
        st.nodes.get(&id).is_some_and(|e| e.info.alive)
    }

    /// A node's address, if registered.
    pub fn node_addr(&self, id: usize) -> Option<SocketAddr> {
        let st = self.state.lock().expect("coordinator lock");
        st.nodes.get(&id).map(|e| e.info.addr)
    }

    /// Snapshot of every registered node.
    pub fn nodes(&self) -> Vec<NodeInfo> {
        let st = self.state.lock().expect("coordinator lock");
        st.nodes.values().map(|e| e.info.clone()).collect()
    }

    /// Ids of the currently-alive nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<usize> {
        let st = self.state.lock().expect("coordinator lock");
        st.nodes
            .values()
            .filter(|e| e.info.alive)
            .map(|e| e.info.id)
            .collect()
    }

    /// Places a new file across the alive nodes with the given
    /// [`Placement`] policy and records it (durably, when a log is
    /// attached — the record is appended before the in-memory insert).
    /// Every stripe gets `n` distinct nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Unavailable`] with fewer alive nodes than
    /// blocks per stripe, [`ClusterError::Protocol`] when the name is
    /// already taken, and [`ClusterError::Io`] when the log append fails.
    #[allow(clippy::too_many_arguments)]
    pub fn place_file(
        &self,
        name: &str,
        spec: CodeSpec,
        file_len: u64,
        block_bytes: usize,
        stripes: usize,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> Result<FilePlacement, ClusterError> {
        let n = match spec {
            CodeSpec::Rs { n, .. }
            | CodeSpec::Carousel { n, .. }
            | CodeSpec::Msr { n, .. }
            | CodeSpec::Mbr { n, .. } => n,
        };
        let alive = self.alive_nodes();
        if alive.len() < n {
            return Err(ClusterError::Unavailable {
                reason: format!(
                    "placing {n}-wide stripes needs {n} alive nodes, have {}",
                    alive.len()
                ),
            });
        }
        let mut st = self.state.lock().expect("coordinator lock");
        if st.files.contains_key(name) || st.extents.contains_key(name) {
            return Err(ClusterError::Protocol {
                reason: format!("file {name:?} already exists"),
            });
        }
        let nodes = (0..stripes)
            .map(|_| {
                placement
                    .place(alive.len(), n, rng)
                    .into_iter()
                    .map(|slot| alive[slot])
                    .collect()
            })
            .collect();
        let fp = FilePlacement {
            name: name.to_string(),
            spec,
            file_len,
            block_bytes,
            stripes,
            nodes,
        };
        st.log_append(&MetaRecord::FilePlaced(fp.clone()), true)?;
        st.files.insert(name.to_string(), fp.clone());
        st.maybe_compact();
        self.bump_epoch();
        Ok(fp)
    }

    /// Looks up a file's placement.
    pub fn file(&self, name: &str) -> Option<FilePlacement> {
        let st = self.state.lock().expect("coordinator lock");
        st.files.get(name).cloned()
    }

    /// The epoch *followed by* the file's placement, in that order —
    /// the pairing a caching client needs: tagging the manifest with an
    /// epoch read before it guarantees any concurrent mutation makes
    /// the cache entry look stale (an extra refetch, never a stale read).
    pub fn file_with_epoch(&self, name: &str) -> (u64, Option<FilePlacement>) {
        let epoch = self.epoch();
        (epoch, self.file(name))
    }

    /// Names of all placed files, ascending.
    pub fn files(&self) -> Vec<String> {
        let st = self.state.lock().expect("coordinator lock");
        st.files.keys().cloned().collect()
    }

    /// Re-homes one block after repair wrote it to a different node,
    /// logging a [`MetaRecord::PlacementCommitted`] and advancing the
    /// epoch (which invalidates client-side manifest caches). Unknown
    /// files/indices are a silent no-op, mirroring the lookup methods.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] when the commit record cannot be
    /// appended to the log; the in-memory state is left unchanged.
    pub fn set_block_node(
        &self,
        name: &str,
        stripe: usize,
        role: usize,
        node: usize,
    ) -> Result<(), ClusterError> {
        let mut st = self.state.lock().expect("coordinator lock");
        let valid = st
            .files
            .get(name)
            .and_then(|fp| fp.nodes.get(stripe))
            .is_some_and(|row| role < row.len());
        if !valid {
            return Ok(());
        }
        st.log_append(
            &MetaRecord::PlacementCommitted {
                file: name.to_string(),
                stripe: stripe as u32,
                role: role as u32,
                node: node as u64,
            },
            true,
        )?;
        if let Some(slot) = st
            .files
            .get_mut(name)
            .and_then(|fp| fp.nodes.get_mut(stripe))
            .and_then(|row| row.get_mut(role))
        {
            *slot = node;
        }
        st.maybe_compact();
        self.bump_epoch();
        Ok(())
    }

    /// Removes a file from the namespace, logging the deletion and
    /// advancing the epoch. Returns whether the file existed. The blocks
    /// themselves are not reclaimed here — datanode garbage collection
    /// is out of scope for the metadata layer.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] when the log append fails.
    pub fn delete_file(&self, name: &str) -> Result<bool, ClusterError> {
        let mut st = self.state.lock().expect("coordinator lock");
        if !st.files.contains_key(name) {
            return Ok(false);
        }
        st.log_append(
            &MetaRecord::FileDeleted {
                file: name.to_string(),
            },
            true,
        )?;
        st.files.remove(name);
        st.maybe_compact();
        self.bump_epoch();
        Ok(true)
    }

    /// Grows a file in place: records its new length and places
    /// `added_stripes` fresh stripe rows on the alive nodes, logging one
    /// [`MetaRecord::FileExtended`] and advancing the epoch. Returns the
    /// new rows (empty when the append fit in existing stripes) so the
    /// caller can write the new blocks where they now belong.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for an unknown file,
    /// [`ClusterError::Unavailable`] when fewer alive nodes than a
    /// stripe's width remain, and [`ClusterError::Io`] when the log
    /// append fails (state unchanged).
    pub fn extend_file(
        &self,
        name: &str,
        new_file_len: u64,
        added_stripes: usize,
        placement: Placement,
        rng: &mut impl Rng,
    ) -> Result<Vec<Vec<usize>>, ClusterError> {
        let alive = self.alive_nodes();
        let mut st = self.state.lock().expect("coordinator lock");
        let Some(fp) = st.files.get(name) else {
            return Err(ClusterError::Protocol {
                reason: format!("unknown file {name:?}"),
            });
        };
        let n = fp.nodes.first().map_or(0, Vec::len);
        if added_stripes > 0 && alive.len() < n {
            return Err(ClusterError::Unavailable {
                reason: format!(
                    "extending {n}-wide stripes needs {n} alive nodes, have {}",
                    alive.len()
                ),
            });
        }
        let added: Vec<Vec<usize>> = (0..added_stripes)
            .map(|_| {
                placement
                    .place(alive.len(), n, rng)
                    .into_iter()
                    .map(|slot| alive[slot])
                    .collect()
            })
            .collect();
        st.log_append(
            &MetaRecord::FileExtended {
                file: name.to_string(),
                file_len: new_file_len,
                added: added.clone(),
            },
            true,
        )?;
        let fp = st.files.get_mut(name).expect("checked above");
        fp.file_len = new_file_len;
        fp.stripes += added.len();
        fp.nodes.extend(added.iter().cloned());
        st.maybe_compact();
        self.bump_epoch();
        Ok(added)
    }

    /// Records a packed object's extent, logging a
    /// [`MetaRecord::ObjectPacked`] and advancing the epoch.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] when the name is already a
    /// file or a packed object, and [`ClusterError::Io`] when the log
    /// append fails.
    pub fn put_extent(&self, object: &str, extent: ObjectExtent) -> Result<(), ClusterError> {
        let mut st = self.state.lock().expect("coordinator lock");
        if st.files.contains_key(object) || st.extents.contains_key(object) {
            return Err(ClusterError::Protocol {
                reason: format!("file {object:?} already exists"),
            });
        }
        st.log_append(
            &MetaRecord::ObjectPacked {
                object: object.to_string(),
                pack: extent.pack.clone(),
                offset: extent.offset,
                len: extent.len,
            },
            true,
        )?;
        st.extents.insert(object.to_string(), extent);
        st.maybe_compact();
        self.bump_epoch();
        Ok(())
    }

    /// Looks up a packed object's extent.
    pub fn extent(&self, object: &str) -> Option<ObjectExtent> {
        let st = self.state.lock().expect("coordinator lock");
        st.extents.get(object).cloned()
    }

    /// Removes a packed object's extent, logging a
    /// [`MetaRecord::ObjectDeleted`] and advancing the epoch. Returns
    /// whether the object existed. The pack keeps the (now unreachable)
    /// bytes until a future compaction.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Io`] when the log append fails.
    pub fn delete_extent(&self, object: &str) -> Result<bool, ClusterError> {
        let mut st = self.state.lock().expect("coordinator lock");
        if !st.extents.contains_key(object) {
            return Ok(false);
        }
        st.log_append(
            &MetaRecord::ObjectDeleted {
                object: object.to_string(),
            },
            true,
        )?;
        st.extents.remove(object);
        st.maybe_compact();
        self.bump_epoch();
        Ok(true)
    }

    /// Names of all packed objects, ascending.
    pub fn packed_objects(&self) -> Vec<String> {
        let st = self.state.lock().expect("coordinator lock");
        st.extents.keys().cloned().collect()
    }

    /// Forces a compaction of the attached log (no size trigger),
    /// returning `false` when the coordinator is purely in-memory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the rewrite.
    pub fn compact_log(&self) -> Result<bool, ClusterError> {
        let mut st = self.state.lock().expect("coordinator lock");
        if st.log.is_none() {
            return Ok(false);
        }
        let snapshot = st.snapshot_records();
        st.log
            .as_mut()
            .expect("log checked above")
            .compact(&snapshot)?;
        Ok(true)
    }

    /// Every `(file, stripe)` whose placement row contains `node` — the
    /// stripes a node's death degrades. This is what the repair
    /// scheduler enumerates into its queue on a `Down` event.
    pub fn stripes_on(&self, node: usize) -> Vec<(String, usize)> {
        let st = self.state.lock().expect("coordinator lock");
        let mut out = Vec::new();
        for fp in st.files.values() {
            for (s, row) in fp.nodes.iter().enumerate() {
                if row.contains(&node) {
                    out.push((fp.name.clone(), s));
                }
            }
        }
        out
    }

    /// How many of a stripe's blocks live on currently-dead nodes — the
    /// stripe's *erasure count* as far as liveness knows (a wiped disk on
    /// an alive node is invisible here; the repair worker's presence
    /// probe is the ground truth). Returns 0 for unknown files/stripes.
    pub fn stripe_erasures(&self, name: &str, stripe: usize) -> usize {
        let st = self.state.lock().expect("coordinator lock");
        let Some(row) = st.files.get(name).and_then(|fp| fp.nodes.get(stripe)) else {
            return 0;
        };
        row.iter()
            .filter(|id| !st.nodes.get(id).is_some_and(|e| e.info.alive))
            .count()
    }

    /// A snapshot of this process's telemetry registry — what the
    /// coordinator would serve for a `Stats` scrape.
    pub fn stats(&self) -> telemetry::Snapshot {
        telemetry::Registry::global().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn tmp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "carousel-coord-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn registration_liveness_and_expiry() {
        let c = Coordinator::new();
        c.register(0, addr(9000));
        c.register(1, addr(9001));
        assert!(c.is_alive(0) && c.is_alive(1));
        c.mark_dead(1);
        assert_eq!(c.alive_nodes(), vec![0]);
        c.heartbeat(1); // heartbeat revives
        assert_eq!(c.alive_nodes(), vec![0, 1]);
        // Nothing is stale yet with a generous TTL…
        assert!(c.expire_stale(Duration::from_secs(60)).is_empty());
        // …but a zero TTL expires everything.
        let expired = c.expire_stale(Duration::from_nanos(0));
        assert_eq!(expired, vec![0, 1]);
        assert!(c.alive_nodes().is_empty());
    }

    #[test]
    fn placement_uses_distinct_alive_nodes() {
        let c = Coordinator::new();
        for i in 0..6 {
            c.register(i, addr(9100 + i as u16));
        }
        c.mark_dead(2);
        let mut rng = StdRng::seed_from_u64(7);
        let fp = c
            .place_file(
                "f",
                CodeSpec::Rs { n: 5, k: 3 },
                1000,
                100,
                4,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
        assert_eq!(fp.nodes.len(), 4);
        for row in &fp.nodes {
            assert_eq!(row.len(), 5);
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "nodes distinct within a stripe");
            assert!(!row.contains(&2), "dead node not placed on");
        }
        // Too-wide stripes and duplicate names are rejected.
        let mut rng = StdRng::seed_from_u64(8);
        assert!(matches!(
            c.place_file(
                "g",
                CodeSpec::Rs { n: 6, k: 3 },
                1,
                1,
                1,
                Placement::Random,
                &mut rng
            ),
            Err(ClusterError::Unavailable { .. })
        ));
        assert!(c
            .place_file(
                "f",
                CodeSpec::Rs { n: 2, k: 1 },
                1,
                1,
                1,
                Placement::Random,
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn liveness_events_fire_only_on_transitions() {
        use std::sync::Arc;

        let c = Coordinator::new();
        let events: Arc<Mutex<Vec<LivenessEvent>>> = Arc::default();
        let sink = Arc::clone(&events);
        c.set_liveness_listener(move |ev| sink.lock().unwrap().push(ev));

        c.register(0, addr(9300)); // fresh → Up
        c.register(0, addr(9300)); // already alive → nothing
        c.heartbeat(0); // already alive → nothing
        c.mark_dead(0); // alive → dead → Down
        c.mark_dead(0); // already dead → nothing
        c.heartbeat(0); // dead → alive → Up
        c.mark_dead(0);
        c.register(0, addr(9300)); // re-register after death → Up
        let _ = c.expire_stale(Duration::from_nanos(0)); // alive → Down
        assert_eq!(
            *events.lock().unwrap(),
            vec![
                LivenessEvent::Up(0),
                LivenessEvent::Down(0),
                LivenessEvent::Up(0),
                LivenessEvent::Down(0),
                LivenessEvent::Up(0),
                LivenessEvent::Down(0),
            ]
        );
        c.clear_liveness_listener();
        c.heartbeat(0);
        assert_eq!(events.lock().unwrap().len(), 6, "cleared listener is gone");
    }

    #[test]
    fn stripes_on_and_erasure_counts() {
        let c = Coordinator::new();
        for i in 0..5 {
            c.register(i, addr(9400 + i as u16));
        }
        let mut rng = StdRng::seed_from_u64(3);
        let fp = c
            .place_file(
                "f",
                CodeSpec::Rs { n: 4, k: 2 },
                800,
                100,
                3,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
        // Pick a node that appears in at least one row.
        let victim = fp.nodes[0][0];
        let hosted = c.stripes_on(victim);
        let expected: Vec<(String, usize)> = fp
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, row)| row.contains(&victim))
            .map(|(s, _)| ("f".to_string(), s))
            .collect();
        assert_eq!(hosted, expected);
        assert_eq!(c.stripe_erasures("f", 0), 0);
        c.mark_dead(victim);
        for &(ref name, s) in &hosted {
            assert_eq!(c.stripe_erasures(name, s), 1);
        }
        // A second failure in the same row upgrades the count.
        let second = fp.nodes[0].iter().copied().find(|&n| n != victim).unwrap();
        c.mark_dead(second);
        assert_eq!(c.stripe_erasures("f", 0), 2);
        assert_eq!(c.stripe_erasures("missing", 0), 0);
        assert_eq!(c.stripe_erasures("f", 99), 0);
    }

    #[test]
    fn log_roundtrip_recovers_placements() {
        let path = tmp_log("roundtrip");
        let _ = std::fs::remove_file(&path);
        let original = {
            let c = Coordinator::create_log(&path).unwrap();
            for i in 0..4 {
                c.register(i, addr(9200 + i as u16));
            }
            let mut rng = StdRng::seed_from_u64(1);
            c.place_file(
                "data.bin",
                CodeSpec::Carousel {
                    n: 4,
                    k: 2,
                    d: 2,
                    p: 4,
                },
                5000,
                300,
                3,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
            c.set_block_node("data.bin", 1, 0, 3).unwrap();
            c.file("data.bin").unwrap()
        };
        let loaded = Coordinator::open_log(&path).unwrap();
        assert_eq!(loaded.nodes().len(), 4);
        assert_eq!(loaded.node_addr(3), Some(addr(9203)));
        let fp = loaded.file("data.bin").unwrap();
        assert_eq!(fp, original, "replay reproduces placement + re-homing");
        assert_eq!(fp.nodes[1][0], 3, "committed re-homing survives replay");
        assert!(loaded.epoch() > 0, "replay advances the epoch");
        let _ = std::fs::remove_file(&path);
        assert!(Coordinator::create_log(Path::new("/nonexistent/dir/x")).is_err());
    }

    #[test]
    fn recovered_nodes_start_dead_until_heartbeat() {
        let path = tmp_log("dead-until-heartbeat");
        let _ = std::fs::remove_file(&path);
        {
            let c = Coordinator::create_log(&path).unwrap();
            c.register(0, addr(9500));
            c.register(1, addr(9501));
            assert_eq!(c.alive_nodes(), vec![0, 1]);
        }
        let loaded = Coordinator::open_log(&path).unwrap();
        assert_eq!(loaded.nodes().len(), 2, "registrations replayed");
        assert!(
            loaded.alive_nodes().is_empty(),
            "recovered nodes are unverified: dead until first heartbeat"
        );
        assert!(!loaded.is_alive(0) && !loaded.is_alive(1));
        loaded.heartbeat(1);
        assert_eq!(loaded.alive_nodes(), vec![1], "heartbeat revives");
        // verify_nodes can't reach anything (nothing listens) — no revival.
        assert!(loaded.verify_nodes(Duration::from_millis(50)).is_empty());
        assert!(!loaded.is_alive(0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epoch_advances_on_placement_mutations_only() {
        let c = Coordinator::new();
        for i in 0..4 {
            c.register(i, addr(9600 + i as u16));
        }
        assert_eq!(c.epoch(), 0, "membership does not move the epoch");
        let mut rng = StdRng::seed_from_u64(2);
        c.place_file(
            "f",
            CodeSpec::Rs { n: 3, k: 2 },
            100,
            50,
            1,
            Placement::Random,
            &mut rng,
        )
        .unwrap();
        assert_eq!(c.epoch(), 1);
        let (epoch, fp) = c.file_with_epoch("f");
        assert_eq!(epoch, 1);
        let fp = fp.unwrap();
        c.set_block_node("f", 0, 0, fp.nodes[0][1]).unwrap();
        assert_eq!(c.epoch(), 2);
        // No-op re-homings of unknown targets don't bump.
        c.set_block_node("missing", 0, 0, 1).unwrap();
        c.set_block_node("f", 99, 0, 1).unwrap();
        assert_eq!(c.epoch(), 2);
        assert!(c.delete_file("f").unwrap());
        assert_eq!(c.epoch(), 3);
        assert!(!c.delete_file("f").unwrap());
        assert_eq!(c.epoch(), 3);
        c.mark_dead(0);
        c.heartbeat(0);
        assert_eq!(c.epoch(), 3, "liveness does not move the epoch");
    }

    #[test]
    fn extent_lifecycle_survives_replay_and_compaction() {
        let path = tmp_log("extents");
        let _ = std::fs::remove_file(&path);
        {
            let c = Coordinator::create_log(&path).unwrap();
            for i in 0..4 {
                c.register(i, addr(9750 + i as u16));
            }
            let mut rng = StdRng::seed_from_u64(3);
            c.place_file(
                ".pack-0000",
                CodeSpec::Rs { n: 4, k: 2 },
                600,
                100,
                3,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
            let ext = |offset, len| ObjectExtent {
                pack: ".pack-0000".to_string(),
                offset,
                len,
            };
            c.put_extent("small-a", ext(0, 200)).unwrap();
            c.put_extent("small-b", ext(200, 150)).unwrap();
            c.put_extent("small-c", ext(350, 250)).unwrap();
            assert_eq!(c.epoch(), 4, "each extent bumps the epoch");
            // Extents and files share one namespace, both ways.
            assert!(c.put_extent("small-a", ext(0, 1)).is_err());
            assert!(c.put_extent(".pack-0000", ext(0, 1)).is_err());
            assert!(c
                .place_file(
                    "small-b",
                    CodeSpec::Rs { n: 4, k: 2 },
                    1,
                    1,
                    1,
                    Placement::Random,
                    &mut rng
                )
                .is_err());
            assert!(c.delete_extent("small-b").unwrap());
            assert!(!c.delete_extent("small-b").unwrap());
            assert_eq!(c.epoch(), 5);
            assert!(c.compact_log().unwrap());
        }
        let loaded = Coordinator::open_log(&path).unwrap();
        assert_eq!(loaded.packed_objects(), vec!["small-a", "small-c"]);
        let a = loaded.extent("small-a").unwrap();
        assert_eq!((a.pack.as_str(), a.offset, a.len), (".pack-0000", 0, 200));
        let c3 = loaded.extent("small-c").unwrap();
        assert_eq!((c3.offset, c3.len), (350, 250));
        assert!(loaded.extent("small-b").is_none(), "deletion replayed");
        assert!(loaded.file(".pack-0000").is_some(), "pack file intact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn extend_file_places_new_rows_and_survives_replay() {
        let path = tmp_log("extend");
        let _ = std::fs::remove_file(&path);
        let (rows, len) = {
            let c = Coordinator::create_log(&path).unwrap();
            for i in 0..5 {
                c.register(i, addr(9780 + i as u16));
            }
            let mut rng = StdRng::seed_from_u64(9);
            c.place_file(
                "grow.bin",
                CodeSpec::Rs { n: 4, k: 2 },
                350,
                100,
                2,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
            // Tail fill within the last stripe: no new rows.
            let added = c
                .extend_file("grow.bin", 400, 0, Placement::Random, &mut rng)
                .unwrap();
            assert!(added.is_empty());
            assert_eq!(c.epoch(), 2);
            // Overflow into two fresh stripes.
            let added = c
                .extend_file("grow.bin", 780, 2, Placement::Random, &mut rng)
                .unwrap();
            assert_eq!(added.len(), 2);
            for row in &added {
                assert_eq!(row.len(), 4);
                let mut sorted = row.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "nodes distinct within a stripe");
            }
            assert!(matches!(
                c.extend_file("missing", 1, 1, Placement::Random, &mut rng),
                Err(ClusterError::Protocol { .. })
            ));
            // A 4-wide stripe can't be placed with only 3 alive nodes.
            c.mark_dead(0);
            c.mark_dead(1);
            assert!(matches!(
                c.extend_file("grow.bin", 900, 1, Placement::Random, &mut rng),
                Err(ClusterError::Unavailable { .. })
            ));
            let fp = c.file("grow.bin").unwrap();
            (fp.nodes, fp.file_len)
        };
        let loaded = Coordinator::open_log(&path).unwrap();
        let fp = loaded.file("grow.bin").unwrap();
        assert_eq!(fp.stripes, 4, "two original + two appended stripes");
        assert_eq!(fp.file_len, len);
        assert_eq!(fp.file_len, 780);
        assert_eq!(fp.nodes, rows, "appended rows survive replay");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn log_compaction_is_transparent_to_replay() {
        let path = tmp_log("compaction");
        let _ = std::fs::remove_file(&path);
        let rows = {
            let c = Coordinator::create_log(&path).unwrap();
            for i in 0..6 {
                c.register(i, addr(9700 + i as u16));
            }
            let mut rng = StdRng::seed_from_u64(5);
            c.place_file(
                "f",
                CodeSpec::Rs { n: 4, k: 2 },
                4000,
                100,
                10,
                Placement::Random,
                &mut rng,
            )
            .unwrap();
            // Plenty of commits, then a forced compaction.
            for s in 0..10 {
                let fp = c.file("f").unwrap();
                let spare = (0..6).find(|n| !fp.nodes[s].contains(n)).unwrap();
                c.set_block_node("f", s, 0, spare).unwrap();
            }
            assert!(c.compact_log().unwrap());
            c.file("f").unwrap().nodes
        };
        let loaded = Coordinator::open_log(&path).unwrap();
        assert_eq!(loaded.file("f").unwrap().nodes, rows);
        // In-memory coordinators have nothing to compact.
        assert!(!Coordinator::new().compact_log().unwrap());
        let _ = std::fs::remove_file(&path);
    }
}
