//! A simulated datanode block store served through the `access` layer.
//!
//! Where [`crate::reader`] and [`crate::repairer`] model *time* (flows over
//! disks, NICs and CPUs), this module models *bytes*: it actually encodes a
//! file into per-stripe blocks, injects failures, and serves the blocks
//! through the same [`BlockSource`] contract the in-memory filestore and the
//! TCP cluster use. That makes the simulated DFS a third transport the
//! consistency proptests can compare byte-for-byte against the other two.

use std::collections::HashMap;

use access::{
    AccessCode, BatchRequest, BlockSource, ExecError, Fetch, ObjectStore, PlanCache, PlanExecutor,
    PutOptions,
};
use erasure::{CodeError, ColumnUpdater, SparseEncoder};

/// Collapses an executor error over an infallible transport into the
/// underlying [`CodeError`].
fn flatten_exec(e: ExecError<std::convert::Infallible>) -> CodeError {
    match e {
        ExecError::Source(never) => match never {},
        ExecError::Code(e) => e,
        ExecError::ReplansExhausted { attempts } => CodeError::InvalidParameters {
            reason: format!("gave up after {attempts} replans"),
        },
    }
}

/// One stripe's blocks plus per-role liveness.
#[derive(Debug, Clone)]
struct SimStripe {
    blocks: Vec<Vec<u8>>,
    alive: Vec<bool>,
}

/// A file encoded onto simulated datanodes: real bytes, injectable
/// failures, all reads and repairs planned through the `access` layer.
pub struct SimStore {
    code: Box<dyn AccessCode>,
    block_bytes: usize,
    file_len: usize,
    stripes: Vec<SimStripe>,
}

impl std::fmt::Debug for SimStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimStore")
            .field("code", &self.code.name())
            .field("block_bytes", &self.block_bytes)
            .field("file_len", &self.file_len)
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl SimStore {
    /// Encodes `data` into stripes of `block_bytes`-sized blocks under
    /// `code`, all blocks initially alive.
    ///
    /// # Errors
    ///
    /// Rejects empty input and a `block_bytes` that is zero or not a
    /// multiple of the code's sub-packetization.
    pub fn encode(
        code: Box<dyn AccessCode>,
        block_bytes: usize,
        data: &[u8],
    ) -> Result<Self, CodeError> {
        let sub = code.linear().sub();
        if block_bytes == 0 || !block_bytes.is_multiple_of(sub) {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "block_bytes {block_bytes} must be a positive multiple of sub = {sub}"
                ),
            });
        }
        if data.is_empty() {
            return Err(CodeError::InvalidParameters {
                reason: "cannot store an empty file".into(),
            });
        }
        let encoder = SparseEncoder::new(code.linear());
        let w = block_bytes / sub;
        let n = code.n();
        let stripe_data_bytes = code.k() * block_bytes;
        let mut stripes = Vec::new();
        for chunk in data.chunks(stripe_data_bytes) {
            let stripe = encoder.encode_with_unit_bytes(chunk, w)?;
            stripes.push(SimStripe {
                blocks: stripe.blocks,
                alive: vec![true; n],
            });
        }
        Ok(SimStore {
            code,
            block_bytes,
            file_len: data.len(),
            stripes,
        })
    }

    /// The code this file is striped under.
    pub fn code(&self) -> &dyn AccessCode {
        self.code.as_ref()
    }

    /// Original file length in bytes.
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// Size of every stored block in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stored block at `(stripe, role)` (present even while dead — a
    /// dead node's disk still holds the bytes, it just won't serve them).
    pub fn block(&self, stripe: usize, role: usize) -> &[u8] {
        &self.stripes[stripe].blocks[role]
    }

    /// Whether the block at `(stripe, role)` is being served.
    pub fn is_alive(&self, stripe: usize, role: usize) -> bool {
        self.stripes[stripe].alive[role]
    }

    /// Marks one block dead.
    pub fn fail_block(&mut self, stripe: usize, role: usize) {
        self.stripes[stripe].alive[role] = false;
    }

    /// Marks `role` dead in every stripe — a whole-datanode failure under
    /// identity placement.
    pub fn fail_role(&mut self, role: usize) {
        for stripe in &mut self.stripes {
            stripe.alive[role] = false;
        }
    }

    /// A [`BlockSource`] view of one stripe's datanodes.
    pub fn stripe_source(&self, stripe: usize) -> SimNodes<'_> {
        SimNodes {
            stripe: &self.stripes[stripe],
            sub: self.code.linear().sub(),
            unit_bytes: self.block_bytes / self.code.linear().sub(),
        }
    }

    /// Downloads the whole file through `plans`, degrading around dead
    /// blocks stripe by stripe.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] when some stripe has fewer
    /// than `k` live blocks.
    pub fn download(&self, plans: &PlanCache) -> Result<Vec<u8>, CodeError> {
        let executor = PlanExecutor::new(plans).with_max_replans(self.code.n());
        let mut out = Vec::with_capacity(self.file_len);
        for s in 0..self.stripes.len() {
            let mut source = self.stripe_source(s);
            let read = executor
                .read_stripe(self.code.as_ref(), &mut source)
                .map_err(flatten_exec)?;
            out.extend_from_slice(&read.data);
        }
        out.truncate(self.file_len);
        Ok(out)
    }

    /// Reads `len` bytes at `offset` by downloading the touched stripes
    /// through `plans` (degrading around dead blocks) and slicing.
    ///
    /// # Errors
    ///
    /// Rejects ranges past EOF; propagates decode failures.
    pub fn read_range(
        &self,
        offset: usize,
        len: usize,
        plans: &PlanCache,
    ) -> Result<Vec<u8>, CodeError> {
        if offset + len > self.file_len {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "range {offset}..{} exceeds file length {}",
                    offset + len,
                    self.file_len
                ),
            });
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let sdb = self.code.k() * self.block_bytes;
        let executor = PlanExecutor::new(plans).with_max_replans(self.code.n());
        let mut out = Vec::with_capacity(len);
        let (first, last) = (offset / sdb, (offset + len - 1) / sdb);
        for s in first..=last {
            let mut source = self.stripe_source(s);
            let read = executor
                .read_stripe(self.code.as_ref(), &mut source)
                .map_err(flatten_exec)?;
            out.extend_from_slice(&read.data);
        }
        let skip = offset - first * sdb;
        Ok(out[skip..skip + len].to_vec())
    }

    /// Overwrites `bytes` at `offset` in place, updating parity by delta:
    /// every stored block of each touched stripe absorbs `coeff · Δ`
    /// instead of the stripe being re-encoded. The simulator models the
    /// *bytes* of the update — dead blocks' disks are patched too (their
    /// stored contents stay consistent with the live stripe), they just
    /// keep refusing to serve until repaired.
    ///
    /// # Errors
    ///
    /// Rejects ranges past EOF (use [`SimStore::append`] to grow).
    pub fn write_range(&mut self, offset: usize, bytes: &[u8]) -> Result<(), CodeError> {
        if offset + bytes.len() > self.file_len {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "range {offset}..{} exceeds file length {}",
                    offset + bytes.len(),
                    self.file_len
                ),
            });
        }
        if bytes.is_empty() {
            return Ok(());
        }
        let updater = ColumnUpdater::new(self.code.linear());
        let sdb = self.code.k() * self.block_bytes;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let abs = offset + pos;
            let stripe = abs / sdb;
            let within = abs % sdb;
            let take = (sdb - within).min(bytes.len() - pos);
            let old = self.stripe_span(stripe, within, take);
            updater.delta_update(
                &mut self.stripes[stripe].blocks,
                within,
                &old,
                &bytes[pos..pos + take],
            )?;
            pos += take;
        }
        Ok(())
    }

    /// Appends `bytes`, returning the new file length: the last stripe's
    /// zero padding is filled in place via delta updates, overflow becomes
    /// freshly encoded stripes (all blocks alive).
    ///
    /// # Errors
    ///
    /// Propagates coding failures.
    pub fn append(&mut self, bytes: &[u8]) -> Result<usize, CodeError> {
        if bytes.is_empty() {
            return Ok(self.file_len);
        }
        let sdb = self.code.k() * self.block_bytes;
        let capacity = self.stripes.len() * sdb;
        let fill = (capacity - self.file_len).min(bytes.len());
        if fill > 0 {
            // Bytes past file_len are implicit zero padding, so the delta
            // of the fill region is simply the appended bytes.
            let updater = ColumnUpdater::new(self.code.linear());
            let stripe = self.stripes.len() - 1;
            let within = self.file_len % sdb;
            let zeros = vec![0u8; fill];
            updater.delta_update(
                &mut self.stripes[stripe].blocks,
                within,
                &zeros,
                &bytes[..fill],
            )?;
        }
        let encoder = SparseEncoder::new(self.code.linear());
        let w = self.block_bytes / self.code.linear().sub();
        let n = self.code.n();
        for chunk in bytes[fill..].chunks(sdb) {
            let stripe = encoder.encode_with_unit_bytes(chunk, w)?;
            self.stripes.push(SimStripe {
                blocks: stripe.blocks,
                alive: vec![true; n],
            });
        }
        self.file_len += bytes.len();
        Ok(self.file_len)
    }

    /// Reads `take` data bytes at offset `within` of one stripe in message
    /// order, straight from the stored data regions — the "old" side of a
    /// delta update.
    fn stripe_span(&self, stripe: usize, within: usize, take: usize) -> Vec<u8> {
        let layout = self.code.data_layout();
        let w = self.block_bytes / self.code.linear().sub();
        let mut out = Vec::with_capacity(take);
        let mut pos = within;
        let end = within + take;
        while pos < end {
            let unit = pos / w;
            let in_unit = pos % w;
            let chunk = (w - in_unit).min(end - pos);
            let loc = layout.locate(unit).expect("every file unit is mapped");
            let start = loc.unit * w + in_unit;
            out.extend_from_slice(&self.stripes[stripe].blocks[loc.node][start..start + chunk]);
            pos += chunk;
        }
        out
    }

    /// Rebuilds the dead block at `(stripe, role)` from `d` live helpers
    /// and brings it back into service.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] with fewer than `d` live
    /// helpers, and [`CodeError::InvalidParameters`] if the block is alive.
    pub fn repair_block(
        &mut self,
        stripe: usize,
        role: usize,
        plans: &PlanCache,
    ) -> Result<(), CodeError> {
        if self.stripes[stripe].alive[role] {
            return Err(CodeError::InvalidParameters {
                reason: format!("block ({stripe}, {role}) is not dead"),
            });
        }
        let outcome = {
            let executor = PlanExecutor::new(plans).with_max_replans(self.code.n());
            let mut source = self.stripe_source(stripe);
            executor
                .repair_block(self.code.as_ref(), role, &mut source)
                .map_err(flatten_exec)?
        };
        let st = &mut self.stripes[stripe];
        st.blocks[role] = outcome.block;
        st.alive[role] = true;
        Ok(())
    }
}

/// [`BlockSource`] over one [`SimStore`] stripe: dead roles answer
/// [`Fetch::Unavailable`], live ones serve their stored units.
#[derive(Debug)]
pub struct SimNodes<'a> {
    stripe: &'a SimStripe,
    sub: usize,
    unit_bytes: usize,
}

impl BlockSource for SimNodes<'_> {
    type Error = std::convert::Infallible;

    fn block_count(&self) -> usize {
        self.stripe.blocks.len()
    }

    fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    fn available(&mut self) -> Vec<usize> {
        (0..self.stripe.alive.len())
            .filter(|&i| self.stripe.alive[i])
            .collect()
    }

    fn fetch_units(&mut self, node: usize, units: &[usize]) -> Result<Fetch, Self::Error> {
        Ok(self.serve_units(node, units))
    }

    /// Native batch entry mirroring `MemorySource`: the simulated
    /// datanodes are plain memory, so the whole batch is answered in one
    /// pass, with repair requests running their helper task directly on
    /// the stored block and slice requests taking the default slice fetch.
    fn fetch_batch(&mut self, requests: &[BatchRequest<'_>]) -> Result<Vec<Fetch>, Self::Error> {
        requests
            .iter()
            .map(|request| match request {
                BatchRequest::Units { node, units } => Ok(self.serve_units(*node, units)),
                BatchRequest::Repair { node, task } => Ok(match self.live_block(*node) {
                    Some(block) => task.run(block).map_or(Fetch::Unavailable, Fetch::Data),
                    None => Fetch::Unavailable,
                }),
                BatchRequest::Slices {
                    node,
                    slice_bytes,
                    slices,
                } => self.fetch_slices(*node, *slice_bytes, slices),
            })
            .collect()
    }
}

impl SimNodes<'_> {
    /// The block at `node`, if that simulated datanode is alive.
    fn live_block(&self, node: usize) -> Option<&[u8]> {
        self.stripe
            .alive
            .get(node)
            .copied()
            .unwrap_or(false)
            .then(|| self.stripe.blocks[node].as_slice())
    }

    fn serve_units(&self, node: usize, units: &[usize]) -> Fetch {
        let Some(block) = self.live_block(node) else {
            return Fetch::Unavailable;
        };
        let w = self.unit_bytes;
        let mut out = Vec::with_capacity(units.len() * w);
        for &u in units {
            if u >= self.sub {
                return Fetch::Unavailable;
            }
            out.extend_from_slice(&block[u * w..(u + 1) * w]);
        }
        Fetch::Data(out)
    }
}

/// Reserved name prefix for pack files.
pub const SIM_PACK_PREFIX: &str = ".pack-";

/// A packed object's location inside a pack file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimExtent {
    /// The pack file holding the bytes.
    pub pack: String,
    /// Byte offset of the object within the pack.
    pub offset: usize,
    /// Object length in bytes.
    pub len: usize,
}

/// The simulated-DFS [`ObjectStore`]: named [`SimStore`] files plus
/// small-object packing via per-object extents, mirroring the filestore
/// and cluster implementations so the tri-stack tests can drive all
/// three through one trait.
///
/// Every object is encoded under a code produced by the store's factory
/// (per-put code specs are a transport concern and ignored here);
/// `block_bytes` may be overridden per put. Packed objects append their
/// bytes to a shared pack file and are served by range reads on it;
/// deleting one drops only its extent (packs are append-only).
pub struct SimObjects {
    make_code: Box<dyn Fn() -> Box<dyn AccessCode>>,
    block_bytes: usize,
    plans: PlanCache,
    files: HashMap<String, SimStore>,
    extents: HashMap<String, SimExtent>,
    open_pack: Option<String>,
    pack_seq: usize,
    pack_limit: usize,
}

impl std::fmt::Debug for SimObjects {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimObjects")
            .field("block_bytes", &self.block_bytes)
            .field("files", &self.files.len())
            .field("extents", &self.extents.len())
            .finish()
    }
}

impl SimObjects {
    /// Creates an empty store; `make_code` builds the code every object
    /// is striped under, `block_bytes` is the default block size.
    pub fn new(
        make_code: impl Fn() -> Box<dyn AccessCode> + 'static,
        block_bytes: usize,
    ) -> SimObjects {
        SimObjects {
            make_code: Box::new(make_code),
            block_bytes,
            plans: PlanCache::new(32),
            files: HashMap::new(),
            extents: HashMap::new(),
            open_pack: None,
            pack_seq: 0,
            pack_limit: 1 << 20,
        }
    }

    /// Sets the pack rollover size (bytes of object data per pack).
    #[must_use]
    pub fn with_pack_limit(mut self, bytes: usize) -> SimObjects {
        self.pack_limit = bytes.max(1);
        self
    }

    /// The extent of a packed object, if `name` is packed.
    pub fn extent(&self, name: &str) -> Option<&SimExtent> {
        self.extents.get(name)
    }

    /// Direct access to an object's backing [`SimStore`] (packed objects
    /// resolve to their pack) — the failure-injection hook.
    pub fn sim_mut(&mut self, name: &str) -> Option<&mut SimStore> {
        let backing = match self.extents.get(name) {
            Some(ext) => ext.pack.clone(),
            None => name.to_string(),
        };
        self.files.get_mut(&backing)
    }

    fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name) || self.extents.contains_key(name)
    }

    fn unknown(name: &str) -> CodeError {
        CodeError::InvalidParameters {
            reason: format!("unknown object {name:?}"),
        }
    }

    fn pack_put(&mut self, data: &[u8]) -> Result<SimExtent, CodeError> {
        let rollover = match &self.open_pack {
            Some(pack) => self.files[pack].file_len() >= self.pack_limit,
            None => true,
        };
        if rollover {
            let pack = format!("{SIM_PACK_PREFIX}{:04}", self.pack_seq);
            self.pack_seq += 1;
            let store = SimStore::encode((self.make_code)(), self.block_bytes, data)?;
            self.files.insert(pack.clone(), store);
            self.open_pack = Some(pack.clone());
            return Ok(SimExtent {
                pack,
                offset: 0,
                len: data.len(),
            });
        }
        let pack = self.open_pack.clone().expect("checked above");
        let file = self.files.get_mut(&pack).expect("open pack exists");
        let offset = file.file_len();
        file.append(data)?;
        Ok(SimExtent {
            pack,
            offset,
            len: data.len(),
        })
    }

    fn extent_of(&self, name: &str) -> Result<SimExtent, CodeError> {
        self.extents
            .get(name)
            .cloned()
            .ok_or_else(|| Self::unknown(name))
    }
}

impl ObjectStore for SimObjects {
    type Error = CodeError;

    fn put_opts(&mut self, name: &str, data: &[u8], opts: &PutOptions) -> Result<(), CodeError> {
        if name.starts_with(SIM_PACK_PREFIX) {
            return Err(CodeError::InvalidParameters {
                reason: format!("object names starting with {SIM_PACK_PREFIX:?} are reserved"),
            });
        }
        if self.exists(name) {
            return Err(CodeError::InvalidParameters {
                reason: format!("object {name:?} already exists"),
            });
        }
        if opts.packed() {
            let extent = self.pack_put(data)?;
            self.extents.insert(name.to_string(), extent);
        } else {
            let block_bytes = opts.block_bytes_hint().unwrap_or(self.block_bytes);
            let store = SimStore::encode((self.make_code)(), block_bytes, data)?;
            self.files.insert(name.to_string(), store);
        }
        Ok(())
    }

    fn get(&mut self, name: &str) -> Result<Vec<u8>, CodeError> {
        if let Some(file) = self.files.get(name) {
            return file.download(&self.plans);
        }
        let ext = self.extent_of(name)?;
        self.files[&ext.pack].read_range(ext.offset, ext.len, &self.plans)
    }

    fn get_range(&mut self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, CodeError> {
        let (offset, len) = (offset as usize, len as usize);
        if let Some(file) = self.files.get(name) {
            return file.read_range(offset, len, &self.plans);
        }
        let ext = self.extent_of(name)?;
        if offset + len > ext.len {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "range {offset}..{} exceeds object length {}",
                    offset + len,
                    ext.len
                ),
            });
        }
        self.files[&ext.pack].read_range(ext.offset + offset, len, &self.plans)
    }

    fn write_range(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<(), CodeError> {
        let offset = offset as usize;
        if let Some(file) = self.files.get_mut(name) {
            return file.write_range(offset, data);
        }
        let ext = self.extent_of(name)?;
        if offset + data.len() > ext.len {
            return Err(CodeError::InvalidParameters {
                reason: format!(
                    "range {offset}..{} exceeds object length {}",
                    offset + data.len(),
                    ext.len
                ),
            });
        }
        self.files
            .get_mut(&ext.pack)
            .expect("extent points at a live pack")
            .write_range(ext.offset + offset, data)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<u64, CodeError> {
        if let Some(file) = self.files.get_mut(name) {
            return Ok(file.append(data)? as u64);
        }
        if self.extents.contains_key(name) {
            return Err(CodeError::InvalidParameters {
                reason: format!("packed object {name:?} cannot grow; delete and re-put"),
            });
        }
        Err(Self::unknown(name))
    }

    fn delete(&mut self, name: &str) -> Result<bool, CodeError> {
        if self.files.remove(name).is_some() {
            return Ok(true);
        }
        // A packed delete drops only the extent; the pack keeps the
        // (now unreachable) bytes until a future compaction.
        Ok(self.extents.remove(name).is_some())
    }

    fn object_len(&mut self, name: &str) -> Result<u64, CodeError> {
        if let Some(file) = self.files.get(name) {
            return Ok(file.file_len() as u64);
        }
        Ok(self.extent_of(name)?.len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carousel::Carousel;
    use rs_code::ReedSolomon;

    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 17) as u8).collect()
    }

    #[test]
    fn round_trip_with_failures() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let data = bytes(1000);
        let mut store = SimStore::encode(Box::new(code), 60, &data).unwrap();
        let plans = PlanCache::new(8);
        assert_eq!(store.download(&plans).unwrap(), data);
        store.fail_role(2);
        assert_eq!(store.download(&plans).unwrap(), data);
        store.fail_block(0, 5);
        assert_eq!(store.download(&plans).unwrap(), data);
    }

    #[test]
    fn too_many_failures_reported() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let mut store = SimStore::encode(Box::new(code), 16, &bytes(100)).unwrap();
        for role in 0..3 {
            store.fail_role(role);
        }
        assert!(matches!(
            store.download(&PlanCache::new(4)),
            Err(CodeError::InsufficientData { needed: 2, got: 1 })
        ));
    }

    #[test]
    fn repair_restores_the_exact_block() {
        let code = Carousel::new(8, 4, 6, 8).unwrap();
        let data = bytes(4096);
        let mut store = SimStore::encode(Box::new(code), 120, &data).unwrap();
        let plans = PlanCache::new(8);
        let original = store.block(1, 3).to_vec();
        store.fail_block(1, 3);
        store.repair_block(1, 3, &plans).unwrap();
        assert!(store.is_alive(1, 3));
        assert_eq!(store.block(1, 3), &original[..]);
        // Repairing a live block is rejected.
        assert!(store.repair_block(1, 3, &plans).is_err());
    }

    #[test]
    fn identical_failure_patterns_share_cached_plans() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        let mut store = SimStore::encode(Box::new(code), 60, &bytes(2000)).unwrap();
        assert!(store.stripes() > 2);
        store.fail_role(1);
        let plans = PlanCache::new(8);
        store.download(&plans).unwrap();
        // One miss for the shared degraded pattern, hits for every other stripe.
        assert_eq!(plans.misses(), 1);
        assert_eq!(plans.hits() as usize, store.stripes() - 1);
    }

    #[test]
    fn write_range_and_append_keep_parity_consistent() {
        let data = bytes(1000);
        let mut store =
            SimStore::encode(Box::new(Carousel::new(6, 3, 3, 6).unwrap()), 60, &data).unwrap();
        let plans = PlanCache::new(8);
        let patch: Vec<u8> = (0..300).map(|i| (i * 7 + 3) as u8).collect();
        store.write_range(450, &patch).unwrap();
        let mut expect = data.clone();
        expect[450..750].copy_from_slice(&patch);
        assert_eq!(store.download(&plans).unwrap(), expect);
        let tail = bytes(500);
        assert_eq!(store.append(&tail).unwrap(), 1500);
        expect.extend_from_slice(&tail);
        assert_eq!(store.download(&plans).unwrap(), expect);
        assert_eq!(
            store.read_range(700, 120, &plans).unwrap(),
            &expect[700..820]
        );
        // Parity absorbed the deltas: degraded reads see the new bytes.
        store.fail_role(0);
        store.fail_role(4);
        assert_eq!(store.download(&plans).unwrap(), expect);
        // And repair reconstructs blocks consistent with the update.
        store.repair_block(2, 0, &plans).unwrap();
        assert_eq!(store.download(&plans).unwrap(), expect);
        // Past-EOF writes rejected.
        assert!(store.write_range(1400, &bytes(200)).is_err());
    }

    #[test]
    fn sim_objects_lifecycle_and_packing() {
        let mut s =
            SimObjects::new(|| Box::new(ReedSolomon::new(6, 4).unwrap()), 64).with_pack_limit(600);
        let data = bytes(700);
        s.put("obj", &data).unwrap();
        assert_eq!(s.get("obj").unwrap(), data);
        assert_eq!(s.object_len("obj").unwrap(), 700);
        assert!(s.put("obj", b"dup").is_err());
        s.write_range("obj", 100, b"PATCH").unwrap();
        let mut expect = data.clone();
        expect[100..105].copy_from_slice(b"PATCH");
        assert_eq!(s.get_range("obj", 98, 10).unwrap(), &expect[98..108]);
        s.append("obj", b"tail").unwrap();
        expect.extend_from_slice(b"tail");
        assert_eq!(s.get("obj").unwrap(), expect);
        assert!(s.delete("obj").unwrap());
        assert!(!s.delete("obj").unwrap());
        assert!(s.get("obj").is_err());
        // Packed small objects share pack files.
        let opts = PutOptions::new().pack(true);
        let objs: Vec<Vec<u8>> = (0..8).map(|i| bytes(50 + i * 11)).collect();
        for (i, data) in objs.iter().enumerate() {
            s.put_opts(&format!("small-{i}"), data, &opts).unwrap();
        }
        let packs: std::collections::HashSet<String> = (0..8)
            .map(|i| s.extent(&format!("small-{i}")).unwrap().pack.clone())
            .collect();
        assert!(packs.len() <= 2, "8 objects in {} packs", packs.len());
        // Served correctly even with failures injected into the pack.
        s.sim_mut("small-0").unwrap().fail_role(1);
        for (i, data) in objs.iter().enumerate() {
            assert_eq!(&s.get(&format!("small-{i}")).unwrap(), data);
        }
        s.write_range("small-2", 3, b"xy").unwrap();
        let mut expect = objs[2].clone();
        expect[3..5].copy_from_slice(b"xy");
        assert_eq!(s.get("small-2").unwrap(), expect);
        assert_eq!(s.get("small-3").unwrap(), objs[3]);
        assert!(s.append("small-2", b"z").is_err());
        assert!(s.delete("small-2").unwrap());
        assert_eq!(s.get("small-1").unwrap(), objs[1]);
        assert!(s.put(".pack-9999", b"nope").is_err());
    }

    #[test]
    fn bad_geometry_rejected() {
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        assert!(SimStore::encode(Box::new(code), 61, &bytes(100)).is_err());
        let code = Carousel::new(6, 3, 3, 6).unwrap();
        assert!(SimStore::encode(Box::new(code), 60, &[]).is_err());
    }
}
