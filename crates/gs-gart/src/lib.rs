//! # gs-gart — transactional dynamic graph store with MVCC and a WAL
//!
//! GART (paper §4.2) accommodates dynamic graphs: "GART always provides
//! consistent snapshots of graph data (identified by a version), and it
//! updates the graph with the version number write_version. ... GART employs
//! an efficient and mutable CSR-like data structure."
//!
//! The CSR-like structure here is a **pooled adjacency with version
//! fences**: each edge label keeps one large entry array; every vertex owns
//! a contiguous `(start, len, cap)` region that relocates with doubled
//! capacity when full (amortised O(1) appends). A region records the
//! maximum creation version it contains, so a snapshot whose version
//! dominates the fence scans the raw entries with *no per-edge version
//! checks* — that near-CSR layout plus the fence fast path is what closes
//! most of the gap to static CSR (the 73.5% in Fig. 7c), while the
//! LiveGraph baseline in `gs-baselines` pays per-entry version checks and
//! block pointer chasing.
//!
//! On top of the versioned store sit **snapshot-isolation transactions**
//! ([`GartStore::begin`] → [`GartTxn`]): every write carries its
//! transaction id, commit flips one slot in a transaction-status table
//! (O(1) regardless of write-set size), and conflicting writers lose
//! first-writer-wins (see the `txn` module docs). The legacy
//! `add_*`/`commit` API is an auto-commit layer over the same machinery,
//! so snapshots, views, freezes, and engines run unchanged.
//!
//! Opened with a [`DurabilityConfig`], the store also keeps a
//! **write-ahead log** with checksummed frames, group commit, and fuzzy
//! checkpoints ([`GartStore::open`]); reopening after a crash replays
//! committed transactions and discards uncommitted ones, yielding state
//! bit-identical to the committed prefix (the `wal` and `recovery`
//! module docs describe the protocol).
//!
//! Concurrency model: single writer / many readers. Writers stage mutations
//! inside a transaction and publish at commit; readers obtain a
//! [`GartSnapshot`] pinned to a committed version and are never blocked by
//! the writer for more than a segment append.

mod index;
mod recovery;
mod txn;
mod wal;

pub use txn::GartTxn;
pub use wal::{Durability, DurabilityConfig};

use gs_graph::csr::Csr;
use gs_graph::data::PropertyGraphData;
use gs_graph::ids::IdMap;
use gs_graph::layout::{LayoutKind, TopologyLayout};
use gs_graph::props::PropertyTable;
use gs_grin::{
    AdjEntry, Capabilities, Direction, GraphError, GraphSchema, GrinGraph, LabelId, PropId, Result,
    VId, Value,
};
use index::PropIndex;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use txn::{LockState, TxnCore, Vis, WriteKey, NEVER, NO_XID};
use wal::{Rec, Wal};

/// A snapshot version number.
pub type Version = u64;

/// The GRIN capabilities of a live [`GartSnapshot`]. Snapshots of a
/// durable store add [`Capabilities::DURABLE`]; a [`FrozenGart`] derives
/// its set from this one. The deployment composer's component table reads
/// the same constant, so what GART advertises has one source.
pub const CAPABILITIES: Capabilities = Capabilities::VERTEX_LIST_ITER
    .union(Capabilities::ADJ_LIST_ITER)
    .union(Capabilities::IN_ADJACENCY)
    .union(Capabilities::PROPERTY)
    .union(Capabilities::INDEX_EXTERNAL_ID)
    .union(Capabilities::INDEX_INTERNAL_ID)
    .union(Capabilities::INDEX_PROPERTY)
    .union(Capabilities::MVCC)
    .union(Capabilities::MUTABLE)
    .union(Capabilities::TRANSACTIONS);

/// One adjacency entry (24 bytes).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Entry {
    pub(crate) nbr: VId,
    pub(crate) eid: gs_grin::EId,
    /// Creation mark: a committed version, or `TXN_TAG | xid` while the
    /// writing transaction is in flight (resolved through the status
    /// table until commit-time stamping rewrites it).
    pub(crate) created: Version,
}

/// Per-vertex region descriptor into the shared entry pool.
#[derive(Clone, Copy, Debug, Default)]
struct VertexMeta {
    start: u32,
    len: u32,
    cap: u32,
    /// Version fence: every entry in the region was created at or before
    /// this version. Tagged (uncommitted) marks compare greater than any
    /// real version, so a region with pending writes fails the fence and
    /// falls to the checked path automatically.
    max_created: Version,
    has_tombstone: bool,
}

/// GART's mutable CSR-like adjacency: one large entry pool per edge label
/// with per-vertex `(start, len, cap)` regions. Appends fill the region's
/// spare capacity; a full region relocates to the pool's end with doubled
/// capacity (amortised O(1); vacated space is reclaimed by offline
/// compaction). Scans read near-contiguous memory, which is what keeps GART
/// close to static CSR (Fig. 7c) while staying writable — the LiveGraph
/// baseline pays per-entry version checks and block pointer chasing instead.
#[derive(Clone, Debug, Default)]
pub(crate) struct AdjPool {
    entries: Vec<Entry>,
    meta: Vec<VertexMeta>,
    /// Tombstones: vertex -> (edge id, deletion mark). Rare; fenced scans
    /// skip the lookup entirely for tombstone-free vertices.
    tombstones: HashMap<u32, Vec<(gs_grin::EId, Version)>>,
}

impl AdjPool {
    pub(crate) fn ensure(&mut self, v: usize) {
        if self.meta.len() <= v {
            self.meta.resize(v + 1, VertexMeta::default());
        }
    }

    /// Grows a vertex's region to exactly `cap` slots (bulk loading and
    /// copy-on-grow share this relocation).
    pub(crate) fn reserve_exact(&mut self, v: usize, cap: u32) {
        self.ensure(v);
        let m = self.meta[v];
        if m.cap >= cap {
            return;
        }
        let new_start = self.entries.len() as u32;
        let (start, len) = (m.start as usize, m.len as usize);
        self.entries.extend_from_within(start..start + len);
        self.entries
            .resize(new_start as usize + cap as usize, Entry::default());
        let m = &mut self.meta[v];
        m.start = new_start;
        m.cap = cap;
    }

    pub(crate) fn push(&mut self, v: usize, nbr: VId, eid: gs_grin::EId, mark: Version) {
        self.ensure(v);
        let m = self.meta[v];
        if m.len == m.cap {
            self.reserve_exact(v, (m.cap * 2).max(4));
        }
        let m = &mut self.meta[v];
        self.entries[(m.start + m.len) as usize] = Entry {
            nbr,
            eid,
            created: mark,
        };
        m.len += 1;
        m.max_created = m.max_created.max(mark);
    }

    pub(crate) fn add_tombstone(&mut self, v: usize, eid: gs_grin::EId, mark: Version) {
        self.ensure(v);
        self.meta[v].has_tombstone = true;
        self.tombstones
            .entry(v as u32)
            .or_default()
            .push((eid, mark));
    }

    /// Commit-time hint stamping: rewrites `tag` marks (entries and
    /// tombstones) in `v`'s region to the commit `version` and recomputes
    /// the fence, restoring the raw-scan fast path for later snapshots.
    pub(crate) fn stamp(&mut self, v: usize, tag: Version, version: Version) {
        let Some(&m) = self.meta.get(v) else { return };
        let (start, len) = (m.start as usize, m.len as usize);
        for e in &mut self.entries[start..start + len] {
            if e.created == tag {
                e.created = version;
            }
        }
        self.meta[v].max_created = self.entries[start..start + len]
            .iter()
            .map(|e| e.created)
            .max()
            .unwrap_or(0);
        if let Some(t) = self.tombstones.get_mut(&(v as u32)) {
            for tomb in t.iter_mut() {
                if tomb.1 == tag {
                    tomb.1 = version;
                }
            }
        }
    }

    /// Abort-side physical removal of `tag`-marked entries: the region is
    /// compacted in place, vacated slots scrubbed, and the fence
    /// recomputed. Idempotent — a second call finds nothing to remove.
    pub(crate) fn unstage(&mut self, v: usize, tag: Version) {
        let Some(&m) = self.meta.get(v) else { return };
        let (start, len) = (m.start as usize, m.len as usize);
        let mut w = start;
        for r in start..start + len {
            let e = self.entries[r];
            if e.created != tag {
                self.entries[w] = e;
                w += 1;
            }
        }
        for slot in &mut self.entries[w..start + len] {
            *slot = Entry::default();
        }
        self.meta[v].len = (w - start) as u32;
        self.meta[v].max_created = self.entries[start..w]
            .iter()
            .map(|e| e.created)
            .max()
            .unwrap_or(0);
    }

    /// Abort-side removal of one `tag`-marked tombstone.
    pub(crate) fn untomb(&mut self, v: usize, eid: gs_grin::EId, tag: Version) {
        if let Some(t) = self.tombstones.get_mut(&(v as u32)) {
            if let Some(p) = t.iter().rposition(|&(te, tv)| te == eid && tv == tag) {
                t.remove(p);
            }
            if t.is_empty() {
                self.tombstones.remove(&(v as u32));
                if let Some(m) = self.meta.get_mut(v) {
                    m.has_tombstone = false;
                }
            }
        }
    }

    /// Raw region contents for checkpoint encoding (no visibility
    /// filtering — marks are resolved by the caller).
    pub(crate) fn raw_region(&self, v: usize) -> (&[Entry], &[(gs_grin::EId, Version)]) {
        let Some(&m) = self.meta.get(v) else {
            return (&[], &[]);
        };
        let entries = &self.entries[m.start as usize..(m.start + m.len) as usize];
        let tombs = self
            .tombstones
            .get(&(v as u32))
            .map(|t| t.as_slice())
            .unwrap_or(&[]);
        (entries, tombs)
    }

    /// Visits live entries of `v` under the visibility context; the
    /// version fence lets fully-old, tombstone-free regions scan raw
    /// (deleted-neighbour filtering only arms when the neighbour label
    /// has ever seen a vertex deletion, so the fast path survives).
    #[inline]
    pub(crate) fn for_each<F: FnMut(VId, gs_grin::EId)>(&self, v: usize, vis: &Vis<'_>, f: &mut F) {
        // cached telemetry handles: this runs once per vertex in every scan,
        // so the enabled-check must stay one relaxed load
        static FENCE_SKIPS: gs_telemetry::StaticCounter =
            gs_telemetry::StaticCounter::new("gart.fence_skips");
        static VERSION_CHECK_SCANS: gs_telemetry::StaticCounter =
            gs_telemetry::StaticCounter::new("gart.version_check_scans");
        static TOMBSTONE_SCANS: gs_telemetry::StaticCounter =
            gs_telemetry::StaticCounter::new("gart.tombstone_scans");
        let Some(&m) = self.meta.get(v) else { return };
        let slice = &self.entries[m.start as usize..(m.start + m.len) as usize];
        if !m.has_tombstone && vis.nbr_deleted.is_none() {
            if m.max_created <= vis.version {
                // every entry predates the snapshot: no per-edge check
                FENCE_SKIPS.add(1);
                for e in slice {
                    f(e.nbr, e.eid);
                }
            } else {
                VERSION_CHECK_SCANS.add(1);
                for e in slice {
                    if vis.sees(e.created) {
                        f(e.nbr, e.eid);
                    }
                }
            }
        } else if !m.has_tombstone {
            VERSION_CHECK_SCANS.add(1);
            for e in slice {
                if vis.sees(e.created) && vis.nbr_live(e.nbr) {
                    f(e.nbr, e.eid);
                }
            }
        } else {
            TOMBSTONE_SCANS.add(1);
            let tombs = self.tombstones.get(&(v as u32));
            for e in slice {
                let deleted = tombs
                    .map(|t| t.iter().any(|&(te, tv)| te == e.eid && vis.sees(tv)))
                    .unwrap_or(false);
                if vis.sees(e.created) && !deleted && vis.nbr_live(e.nbr) {
                    f(e.nbr, e.eid);
                }
            }
        }
    }

    pub(crate) fn vertex_count(&self) -> usize {
        self.meta.len()
    }
}

#[derive(Default)]
pub(crate) struct Inner {
    /// Per vertex label.
    pub(crate) id_maps: Vec<IdMap>,
    pub(crate) vprops: Vec<PropertyTable>,
    pub(crate) vertex_created: Vec<Vec<Version>>,
    /// Deletion marks per vertex slot ([`txn::NEVER`] = live).
    pub(crate) vertex_deleted: Vec<Vec<Version>>,
    /// Whether any vertex of this label was ever deleted — gates the
    /// neighbour-deletion filter so labels without deletions keep the
    /// fence fast path.
    pub(crate) deleted_any: Vec<bool>,
    /// Displaced slots for deleted-then-re-added external ids: older
    /// snapshots resolve the external id through this chain.
    pub(crate) shadow: Vec<HashMap<u64, Vec<VId>>>,
    /// Per vertex label, per property: the equality index, built by the
    /// first lookup (see the `index` module).
    pub(crate) prop_index: Vec<Vec<OnceLock<PropIndex>>>,
    /// Per edge label: pooled out-/in-adjacency.
    pub(crate) adj_out: Vec<AdjPool>,
    pub(crate) adj_in: Vec<AdjPool>,
    pub(crate) eprops: Vec<PropertyTable>,
    pub(crate) edge_counts: Vec<u64>,
    /// Transaction machinery (see the `txn` module).
    pub(crate) tst: txn::Tst,
    pub(crate) locks: HashMap<WriteKey, LockState>,
    pub(crate) active_txns: u64,
}

impl Inner {
    /// Builds a read-visibility context; `nbr_label` arms deleted-vertex
    /// filtering for adjacency scans whose neighbours carry that label.
    pub(crate) fn vis(&self, version: Version, xid: u64, nbr_label: Option<LabelId>) -> Vis<'_> {
        let nbr_deleted = nbr_label.and_then(|l| {
            self.deleted_any[l.index()].then(|| self.vertex_deleted[l.index()].as_slice())
        });
        Vis {
            version,
            xid,
            tst: &self.tst,
            nbr_deleted,
        }
    }

    /// Whether vertex slot `i` of label `li` is created-and-not-deleted
    /// for a reader at `(version, xid)`.
    pub(crate) fn vertex_visible(&self, li: usize, i: usize, version: Version, xid: u64) -> bool {
        let Some(&c) = self.vertex_created[li].get(i) else {
            return false;
        };
        if !self.tst.visible(c, version, xid) {
            return false;
        }
        let d = self.vertex_deleted[li].get(i).copied().unwrap_or(NEVER);
        !self.tst.visible(d, version, xid)
    }
}

/// An empty [`Inner`] shaped for `schema` (shared by [`GartStore::new`]
/// and checkpoint decoding).
pub(crate) fn fresh_inner(schema: &GraphSchema) -> Inner {
    let nvl = schema.vertex_label_count();
    let nel = schema.edge_label_count();
    let mut inner = Inner::default();
    for l in schema.vertex_labels() {
        let defs: Vec<(String, _)> = l
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.value_type))
            .collect();
        inner
            .vprops
            .push(PropertyTable::new(&defs).expect("schema-derived columns"));
    }
    inner.id_maps = (0..nvl).map(|_| IdMap::new()).collect();
    inner.vertex_created = (0..nvl).map(|_| Vec::new()).collect();
    inner.vertex_deleted = (0..nvl).map(|_| Vec::new()).collect();
    inner.deleted_any = vec![false; nvl];
    inner.shadow = (0..nvl).map(|_| HashMap::new()).collect();
    inner.prop_index = schema
        .vertex_labels()
        .iter()
        .map(|l| l.properties.iter().map(|_| OnceLock::new()).collect())
        .collect();
    for l in schema.edge_labels() {
        let defs: Vec<(String, _)> = l
            .properties
            .iter()
            .map(|p| (p.name.clone(), p.value_type))
            .collect();
        inner
            .eprops
            .push(PropertyTable::new(&defs).expect("schema-derived columns"));
    }
    inner.adj_out = (0..nel).map(|_| AdjPool::default()).collect();
    inner.adj_in = (0..nel).map(|_| AdjPool::default()).collect();
    inner.edge_counts = vec![0; nel];
    inner
}

fn io_err(e: std::io::Error) -> GraphError {
    GraphError::Io(e.to_string())
}

/// Best-effort directory fsync so a rename is durable before we depend
/// on it (recovery tolerates either outcome of the rename, so a failed
/// dir sync degrades durability, not correctness).
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Verifies the `[len: u64][crc32: u32][payload]` checkpoint envelope.
fn checkpoint_payload(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < 12 {
        return Err(GraphError::Corrupt("checkpoint file too short".into()));
    }
    let len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if bytes.len() != 12 + len {
        return Err(GraphError::Corrupt("checkpoint length mismatch".into()));
    }
    let payload = &bytes[12..];
    if wal::crc32(payload) != crc {
        return Err(GraphError::Corrupt("checkpoint checksum mismatch".into()));
    }
    Ok(payload)
}

const CKPT_CHUNK: usize = 1 << 16;

/// The dynamic MVCC graph store.
pub struct GartStore {
    schema: GraphSchema,
    pub(crate) inner: RwLock<Inner>,
    committed: AtomicU64,
    /// The auto-commit transaction backing the legacy `add_*` API: begun
    /// lazily at the first staged write, committed by [`GartStore::commit`].
    implicit: Mutex<Option<TxnCore>>,
    pub(crate) wal: Option<Mutex<Wal>>,
    cfg: Option<DurabilityConfig>,
    commits_since: AtomicU64,
    /// Test knob: skip commit-time hint stamping so reads exercise the
    /// pure status-table visibility path.
    lazy_stamping: AtomicBool,
}

impl GartStore {
    fn construct(
        schema: GraphSchema,
        inner: Inner,
        committed: Version,
        wal: Option<Wal>,
        cfg: Option<DurabilityConfig>,
    ) -> Arc<Self> {
        Arc::new(Self {
            schema,
            inner: RwLock::new(inner),
            committed: AtomicU64::new(committed),
            implicit: Mutex::new(None),
            wal: wal.map(Mutex::new),
            cfg,
            commits_since: AtomicU64::new(0),
            lazy_stamping: AtomicBool::new(false),
        })
    }

    /// Creates an empty in-memory store over a schema (no durability).
    pub fn new(schema: GraphSchema) -> Arc<Self> {
        let inner = fresh_inner(&schema);
        Self::construct(schema, inner, 0, None, None)
    }

    /// Opens (or creates) a durable store rooted at `cfg.dir`: loads the
    /// latest checkpoint if present, replays the write-ahead log —
    /// redoing committed transactions, discarding uncommitted ones,
    /// truncating a torn tail — and leaves the log open for appending.
    /// Recovered state is bit-identical to the pre-crash committed state.
    pub fn open(schema: GraphSchema, cfg: DurabilityConfig) -> Result<Arc<Self>> {
        fs::create_dir_all(&cfg.dir).map_err(io_err)?;
        // interrupted checkpoint/rotation leftovers are never valid state
        for leftover in ["checkpoint.tmp", "wal.tmp"] {
            let p = cfg.dir.join(leftover);
            if p.exists() {
                let _ = fs::remove_file(&p);
            }
        }
        let ckpt = cfg.dir.join("checkpoint.snap");
        let (mut inner, mut committed) = if ckpt.exists() {
            let bytes = fs::read(&ckpt).map_err(io_err)?;
            let (g, v, _next_xid) = recovery::decode_inner(checkpoint_payload(&bytes)?, &schema)?;
            (g, v)
        } else {
            (fresh_inner(&schema), 0)
        };
        let wal_path = cfg.dir.join("wal.log");
        let mut need_checkpoint = false;
        if wal_path.exists() {
            let bytes = fs::read(&wal_path).map_err(io_err)?;
            if !bytes.is_empty() {
                let rep = recovery::replay_wal(&bytes, &mut inner, &schema, committed)?;
                committed = rep.committed;
                if rep.torn {
                    let f = fs::OpenOptions::new()
                        .write(true)
                        .open(&wal_path)
                        .map_err(io_err)?;
                    f.set_len(rep.valid_len as u64).map_err(io_err)?;
                    f.sync_data().map_err(io_err)?;
                }
                // anything beyond the bare header: fold it into a fresh
                // checkpoint so log growth is bounded by crash frequency
                need_checkpoint = rep.records > 1 || rep.torn;
            }
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(io_err)?;
        let empty = file.metadata().map(|m| m.len() == 0).unwrap_or(true);
        let mut log = Wal::new(file, wal_path, cfg.durability);
        if empty {
            log.append(&Rec::Header {
                format: wal::WAL_FORMAT,
                base_version: committed,
                first_xid: inner.tst.next_xid(),
                schema_fp: wal::schema_fingerprint(&schema),
            })?;
            log.sync()?;
        }
        let store = Self::construct(schema, inner, committed, Some(log), Some(cfg));
        if need_checkpoint {
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Builds a store pre-loaded from an interchange payload, committed at
    /// version 1.
    pub fn from_data(data: &PropertyGraphData) -> Result<Arc<Self>> {
        data.validate()?;
        let store = Self::new(data.schema.clone());
        for batch in &data.vertices {
            for (ext, props) in batch.external_ids.iter().zip(&batch.properties) {
                store.add_vertex(batch.label, *ext, props.clone())?;
            }
        }
        // Bulk load: pre-size every vertex's region exactly so the pooled
        // adjacency comes out contiguous in vertex order (the layout scans
        // want), then insert.
        {
            let mut g = store.inner.write();
            for (li, batch) in data.edges.iter().enumerate() {
                let ldef = data.schema.edge_label(batch.label)?;
                let mut out_deg: HashMap<u32, u32> = Default::default();
                let mut in_deg: HashMap<u32, u32> = Default::default();
                for &(s, d) in &batch.endpoints {
                    let si = g.id_maps[ldef.src.index()]
                        .internal(s)
                        .ok_or_else(|| GraphError::NotFound(format!("edge src {s}")))?;
                    let di = g.id_maps[ldef.dst.index()]
                        .internal(d)
                        .ok_or_else(|| GraphError::NotFound(format!("edge dst {d}")))?;
                    *out_deg.entry(si.0 as u32).or_insert(0) += 1;
                    *in_deg.entry(di.0 as u32).or_insert(0) += 1;
                }
                let src_n = g.id_maps[ldef.src.index()].len();
                let dst_n = g.id_maps[ldef.dst.index()].len();
                g.adj_out[li].ensure(src_n.saturating_sub(1));
                g.adj_in[li].ensure(dst_n.saturating_sub(1));
                for v in 0..src_n {
                    if let Some(&c) = out_deg.get(&(v as u32)) {
                        g.adj_out[li].reserve_exact(v, c);
                    }
                }
                for v in 0..dst_n {
                    if let Some(&c) = in_deg.get(&(v as u32)) {
                        g.adj_in[li].reserve_exact(v, c);
                    }
                }
            }
        }
        for batch in &data.edges {
            for (&(s, d), props) in batch.endpoints.iter().zip(&batch.properties) {
                store.add_edge(batch.label, s, d, props.clone())?;
            }
        }
        store.commit();
        Ok(store)
    }

    /// The fixed schema this store was created over.
    pub fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    /// The latest committed version.
    pub fn committed_version(&self) -> Version {
        self.committed.load(Ordering::Acquire)
    }

    /// The version at which staged (uncommitted) writes will become visible.
    pub fn write_version(&self) -> Version {
        self.committed_version() + 1
    }

    /// Whether this store persists commits to a write-ahead log.
    pub fn durable(&self) -> bool {
        self.wal.is_some()
    }

    // -----------------------------------------------------------------
    // Explicit transactions
    // -----------------------------------------------------------------

    /// Begins a snapshot-isolation read/write transaction pinned to the
    /// current committed version.
    pub fn begin(self: &Arc<Self>) -> GartTxn {
        let mut g = self.inner.write();
        let xid = g.tst.begin();
        g.active_txns += 1;
        gs_telemetry::counter!("gart.txn.begins");
        let begin = self.committed.load(Ordering::Acquire);
        drop(g);
        GartTxn::new(Arc::clone(self), TxnCore::new(xid, begin))
    }

    // -----------------------------------------------------------------
    // Legacy auto-commit layer: `add_*` stage into one implicit
    // transaction that `commit()` publishes.
    // -----------------------------------------------------------------

    fn with_implicit<R>(
        &self,
        f: impl FnOnce(&GartStore, &mut Inner, &mut TxnCore) -> Result<R>,
    ) -> Result<R> {
        let mut imp = self.implicit.lock();
        let mut g = self.inner.write();
        if imp.is_none() {
            let xid = g.tst.begin();
            g.active_txns += 1;
            gs_telemetry::counter!("gart.txn.begins");
            *imp = Some(TxnCore::new(xid, self.committed.load(Ordering::Acquire)));
        }
        f(
            self,
            &mut g,
            imp.as_mut().expect("implicit txn just ensured"),
        )
    }

    /// Publishes all staged writes; returns the new committed version.
    /// Panics on a WAL write failure — durable stores should prefer
    /// [`GartStore::try_commit`].
    pub fn commit(&self) -> Version {
        self.try_commit().expect("gart commit failed")
    }

    /// Publishes all staged writes (an empty commit still consumes a
    /// version, matching the historical `commit` contract).
    pub fn try_commit(&self) -> Result<Version> {
        let core = {
            let mut imp = self.implicit.lock();
            match imp.take() {
                Some(core) => core,
                None => {
                    let mut g = self.inner.write();
                    let xid = g.tst.begin();
                    g.active_txns += 1;
                    gs_telemetry::counter!("gart.txn.begins");
                    TxnCore::new(xid, self.committed.load(Ordering::Acquire))
                }
            }
        };
        self.commit_core(core, true)
    }

    /// Stages a vertex insertion (visible after the next [`GartStore::commit`]).
    pub fn add_vertex(&self, label: LabelId, external: u64, props: Vec<Value>) -> Result<VId> {
        self.with_implicit(|s, g, core| txn::op_add_vertex(s, g, core, label, external, &props))
    }

    /// Stages an edge insertion between endpoints that must exist (and be
    /// visible) at the write version; unknown endpoints yield a
    /// structured [`GraphError::NotFound`] instead of dangling adjacency.
    pub fn add_edge(
        &self,
        label: LabelId,
        src_ext: u64,
        dst_ext: u64,
        props: Vec<Value>,
    ) -> Result<gs_grin::EId> {
        self.with_implicit(|s, g, core| {
            txn::op_add_edge(s, g, core, label, src_ext, dst_ext, &props)
        })
    }

    /// Stages a batch of edge insertions under a single write-lock
    /// acquisition (group commit — the ingestion pattern real deployments
    /// use to keep writers from convoying with readers). The batch is
    /// atomic: the first invalid endpoint rolls the whole batch back and
    /// nothing is staged or logged.
    pub fn add_edges(&self, label: LabelId, edges: &[(u64, u64, Vec<Value>)]) -> Result<usize> {
        self.with_implicit(|s, g, core| txn::op_add_edges(s, g, core, label, edges))
    }

    /// Stages an edge deletion (tombstone) by endpoint external ids; removes
    /// the first live matching edge. Returns whether an edge was found.
    pub fn delete_edge(&self, label: LabelId, src_ext: u64, dst_ext: u64) -> Result<bool> {
        self.with_implicit(|s, g, core| txn::op_delete_edge(s, g, core, label, src_ext, dst_ext))
    }

    /// Stages a vertex deletion (tombstone): from the commit version on,
    /// the vertex disappears from scans and every adjacency entry of
    /// either direction pointing at it is filtered out; snapshots pinned
    /// before the commit keep seeing both. The external id may be
    /// re-added later (the old slot moves to a shadow chain so old
    /// snapshots still resolve it). Returns whether the vertex existed.
    pub fn delete_vertex(&self, label: LabelId, external: u64) -> Result<bool> {
        self.with_implicit(|s, g, core| txn::op_delete_vertex(s, g, core, label, external))
    }

    // -----------------------------------------------------------------
    // Transaction completion (shared by explicit and implicit paths)
    // -----------------------------------------------------------------

    fn finish_txn(g: &mut Inner) {
        g.active_txns -= 1;
        if g.active_txns == 0 {
            // quiescent: no snapshot-predating writer can conflict with
            // anything recorded here any more
            g.locks.clear();
        }
    }

    pub(crate) fn commit_core(&self, mut core: TxnCore, always_bump: bool) -> Result<Version> {
        let version = {
            let mut g = self.inner.write();
            if core.undo.is_empty() && !core.begin_logged && !always_bump {
                // read-only transaction: nothing to publish or log
                g.tst.commit(core.xid, core.begin);
                txn::release_locks(&mut g, &core, None);
                Self::finish_txn(&mut g);
                gs_telemetry::counter!("gart.txn.commits");
                return Ok(core.begin);
            }
            let version = self.committed.load(Ordering::Acquire) + 1;
            if let Some(walm) = &self.wal {
                let mut w = walm.lock();
                let logged = (|| -> Result<()> {
                    if !core.begin_logged {
                        w.append(&Rec::Begin {
                            xid: core.xid,
                            begin: core.begin,
                        })?;
                        core.begin_logged = true;
                    }
                    // the commit record + sync is the durability point:
                    // after this, crash recovery redoes the transaction
                    w.append(&Rec::Commit {
                        xid: core.xid,
                        version,
                    })?;
                    if w.durability == Durability::Sync {
                        w.sync()?;
                    }
                    Ok(())
                })();
                if let Err(e) = logged {
                    drop(w);
                    txn::undo_to(&mut g, &mut core, 0);
                    g.tst.abort(core.xid);
                    txn::release_locks(&mut g, &core, None);
                    Self::finish_txn(&mut g);
                    gs_telemetry::counter!("gart.txn.aborts");
                    return Err(e);
                }
            }
            g.tst.commit(core.xid, version);
            if !self.lazy_stamping.load(Ordering::Relaxed) {
                txn::stamp_txn(&mut g, &core, version);
            }
            txn::release_locks(&mut g, &core, Some(version));
            Self::finish_txn(&mut g);
            self.committed.store(version, Ordering::Release);
            gs_telemetry::counter!("gart.txn.commits");
            version
        };
        self.maybe_checkpoint();
        Ok(version)
    }

    pub(crate) fn abort_core(&self, mut core: TxnCore) {
        let mut g = self.inner.write();
        txn::undo_to(&mut g, &mut core, 0);
        g.tst.abort(core.xid);
        txn::release_locks(&mut g, &core, None);
        Self::finish_txn(&mut g);
        gs_telemetry::counter!("gart.txn.aborts");
        if core.begin_logged {
            if let Some(walm) = &self.wal {
                // best-effort: replay discards the txn either way, the
                // abort record just spares it the end-of-log undo pass
                let _ = walm.lock().append(&Rec::Abort { xid: core.xid });
            }
        }
    }

    pub(crate) fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends one op record, lazily preceding it with the transaction's
    /// `Begin` (transactions that never write are never logged).
    pub(crate) fn log_op(&self, core: &mut TxnCore, rec: &Rec) -> Result<()> {
        let walm = self.wal.as_ref().expect("log_op requires a WAL");
        let mut w = walm.lock();
        if !core.begin_logged {
            w.append(&Rec::Begin {
                xid: core.xid,
                begin: core.begin,
            })?;
            core.begin_logged = true;
        }
        w.append(rec)
    }

    // -----------------------------------------------------------------
    // Checkpoints
    // -----------------------------------------------------------------

    /// Writes a checkpoint image and rotates the log. Checkpoints are
    /// *quiescent*: if any transaction (explicit or implicit) is in
    /// flight the call is deferred and returns `Ok(false)`. The image is
    /// written to `checkpoint.tmp`, synced, renamed over
    /// `checkpoint.snap`, and only then is the log rotated — a crash
    /// between those steps leaves the new image plus the old log, which
    /// replay handles by skipping records the image already contains.
    pub fn checkpoint(&self) -> Result<bool> {
        let (Some(cfg), Some(walm)) = (&self.cfg, &self.wal) else {
            return Ok(false);
        };
        let imp = self.implicit.lock();
        let mut g = self.inner.write();
        if imp.is_some() || g.active_txns > 0 {
            return Ok(false);
        }
        let committed = self.committed.load(Ordering::Acquire);
        let next_xid = g.tst.next_xid();
        let payload = recovery::encode_inner(&g, &self.schema, committed, next_xid)?;
        let mut w = walm.lock();
        let tmp = cfg.dir.join("checkpoint.tmp");
        let mut f = fs::File::create(&tmp).map_err(io_err)?;
        let mut envelope = Vec::with_capacity(12);
        envelope.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        envelope.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
        // chunked through the same fault seam as log records so a kill
        // sweep covers every durable write the store performs
        wal::durable_write(&mut f, &mut w.writes, &envelope)?;
        for chunk in payload.chunks(CKPT_CHUNK) {
            wal::durable_write(&mut f, &mut w.writes, chunk)?;
        }
        f.sync_data().map_err(io_err)?;
        drop(f);
        fs::rename(&tmp, cfg.dir.join("checkpoint.snap")).map_err(io_err)?;
        sync_dir(&cfg.dir);
        // rotate: fresh log whose header names the image's xid horizon
        let wal_tmp = cfg.dir.join("wal.tmp");
        let mut nf = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_tmp)
            .map_err(io_err)?;
        let header = wal::encode_frame(&Rec::Header {
            format: wal::WAL_FORMAT,
            base_version: committed,
            first_xid: next_xid,
            schema_fp: wal::schema_fingerprint(&self.schema),
        })?;
        wal::durable_write(&mut nf, &mut w.writes, &header)?;
        nf.sync_data().map_err(io_err)?;
        fs::rename(&wal_tmp, w.path.clone()).map_err(io_err)?;
        sync_dir(&cfg.dir);
        w.replace_file(nf);
        g.tst.compact();
        self.commits_since.store(0, Ordering::Relaxed);
        gs_telemetry::counter!("gart.wal.checkpoints");
        Ok(true)
    }

    fn maybe_checkpoint(&self) {
        let Some(cfg) = &self.cfg else { return };
        if cfg.checkpoint_every == 0 {
            return;
        }
        let n = self.commits_since.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= cfg.checkpoint_every {
            // deferred silently when transactions are in flight; the
            // counter keeps growing so the next commit retries
            let _ = self.checkpoint();
        }
    }

    /// Durable writes performed so far this process lifetime (log records
    /// and checkpoint chunks) — the coordinate space of chaos kill plans.
    pub fn wal_writes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.lock().writes)
    }

    /// Log records appended to the current log file.
    pub fn wal_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.lock().records)
    }

    /// Test knob: disable commit-time hint stamping so visibility runs
    /// purely through the transaction-status table.
    #[doc(hidden)]
    pub fn set_lazy_stamping(&self, lazy: bool) {
        self.lazy_stamping.store(lazy, Ordering::Relaxed);
    }

    // -----------------------------------------------------------------
    // Reads
    // -----------------------------------------------------------------

    /// Runs a closure under a single read guard with a [`GartView`] —
    /// the stored-procedure fast path: one lock acquisition per procedure
    /// instead of one per traversal step.
    pub fn with_view<R>(&self, version: Version, f: impl FnOnce(&GartView<'_>) -> R) -> R {
        let g = self.inner.read();
        f(&GartView {
            inner: &g,
            schema: &self.schema,
            version,
            xid: NO_XID,
        })
    }

    /// A consistent read snapshot at the latest committed version.
    pub fn snapshot(self: &Arc<Self>) -> GartSnapshot {
        self.snapshot_at(self.committed_version())
    }

    /// A consistent read snapshot at a specific version.
    pub fn snapshot_at(self: &Arc<Self>, version: Version) -> GartSnapshot {
        GartSnapshot {
            store: Arc::clone(self),
            version,
        }
    }

    /// Native whole-label edge scan at `version`: visits every live
    /// `(src, dst, eid)` under a single read-lock acquisition. This is the
    /// fast path the Fig. 7(c) edge-scan throughput benchmark measures.
    pub fn scan_edges<F: FnMut(VId, VId, gs_grin::EId)>(
        &self,
        label: LabelId,
        version: Version,
        f: &mut F,
    ) {
        let Ok(ldef) = self.schema.edge_label(label) else {
            return;
        };
        let (sl, dl) = (ldef.src, ldef.dst);
        let g = self.inner.read();
        let pool = &g.adj_out[label.index()];
        let vis = g.vis(version, NO_XID, Some(dl));
        for s in 0..pool.vertex_count() {
            if !g.vertex_visible(sl.index(), s, version, NO_XID) {
                continue;
            }
            let src = VId(s as u64);
            pool.for_each(s, &vis, &mut |nbr, eid| f(src, nbr, eid));
        }
    }
}

/// A borrowed, single-lock read view used by stored procedures (see
/// [`GartStore::with_view`]) and transactional reads
/// ([`GartTxn::with_view`], where it also sees the transaction's own
/// staged writes).
pub struct GartView<'a> {
    pub(crate) inner: &'a Inner,
    pub(crate) schema: &'a GraphSchema,
    pub(crate) version: Version,
    pub(crate) xid: u64,
}

impl<'a> GartView<'a> {
    /// Internal id of an external vertex id (if visible at this version).
    pub fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        txn::resolve_visible_vertex(self.inner, label, external, self.version, self.xid)
    }

    /// External id of an internal vertex.
    pub fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        if self
            .inner
            .vertex_visible(label.index(), v.index(), self.version, self.xid)
        {
            self.inner.id_maps[label.index()].external(v)
        } else {
            None
        }
    }

    /// Visits live out-/in-neighbours of `v` under one already-held guard
    /// (entries pointing at deleted vertices are filtered).
    pub fn for_each_adjacent<F: FnMut(VId, gs_grin::EId)>(
        &self,
        v: VId,
        elabel: LabelId,
        dir: Direction,
        f: &mut F,
    ) {
        let Ok(ldef) = self.schema.edge_label(elabel) else {
            return;
        };
        let (sl, dl) = (ldef.src, ldef.dst);
        if matches!(dir, Direction::Out | Direction::Both)
            && self
                .inner
                .vertex_visible(sl.index(), v.index(), self.version, self.xid)
        {
            let vis = self.inner.vis(self.version, self.xid, Some(dl));
            self.inner.adj_out[elabel.index()].for_each(v.index(), &vis, f);
        }
        if matches!(dir, Direction::In | Direction::Both)
            && self
                .inner
                .vertex_visible(dl.index(), v.index(), self.version, self.xid)
        {
            let vis = self.inner.vis(self.version, self.xid, Some(sl));
            self.inner.adj_in[elabel.index()].for_each(v.index(), &vis, f);
        }
    }

    /// Edge property by id.
    pub fn edge_property(&self, label: LabelId, e: gs_grin::EId, prop: PropId) -> Value {
        let t = &self.inner.eprops[label.index()];
        if e.index() < t.row_count() {
            t.get(e.index(), prop)
        } else {
            Value::Null
        }
    }

    /// Vertex property (Null when invisible at this version).
    pub fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        if self
            .inner
            .vertex_visible(label.index(), v.index(), self.version, self.xid)
        {
            self.inner.vprops[label.index()].get(v.index(), prop)
        } else {
            Value::Null
        }
    }

    /// Vertices of `label` visible at this view whose `prop` equals
    /// `value` under [`Value::total_cmp`] (null never matches), in
    /// ascending internal-id order — the answer of GRIN's default scan,
    /// from one hash lookup. The first lookup of a (label, property)
    /// builds its index under this guard.
    pub fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        let li = label.index();
        let Some(cell) = self.inner.prop_index[li].get(prop.index()) else {
            return Vec::new();
        };
        if value.is_null() {
            return Vec::new();
        }
        let table = &self.inner.vprops[li];
        let index = cell.get_or_init(|| PropIndex::build(table, prop));
        let mut out: Vec<VId> = index
            .candidates(value)
            .filter(|&slot| {
                self.inner.vertex_visible(li, slot, self.version, self.xid)
                    && table.get(slot, prop).total_cmp(value).is_eq()
            })
            .map(|slot| VId(slot as u64))
            .collect();
        out.reverse();
        out
    }
}

/// A consistent read view of a [`GartStore`] at a fixed version; implements
/// [`GrinGraph`] so engines can run unchanged on dynamic graphs.
#[derive(Clone)]
pub struct GartSnapshot {
    store: Arc<GartStore>,
    version: Version,
}

impl GartSnapshot {
    /// The pinned version.
    pub fn version(&self) -> Version {
        self.version
    }

    fn collect_adj(&self, v: VId, elabel: LabelId, dir: Direction) -> Vec<AdjEntry> {
        let mut out = Vec::new();
        self.store.with_view(self.version, |view| {
            view.for_each_adjacent(v, elabel, dir, &mut |nbr, edge| {
                out.push(AdjEntry { nbr, edge })
            })
        });
        out
    }

    /// Freezes this snapshot's topology into an immutable, layout-backed
    /// [`FrozenGart`]: each edge label's live adjacency at the pinned
    /// version is materialised as a [`TopologyLayout`] (plain, sorted, or
    /// compressed CSR). Analytics over a fixed version then run on the
    /// same zero-version-check fast path static stores enjoy, while
    /// properties and id maps keep reading through the store at this
    /// version. The writer may keep committing; the freeze never sees it.
    pub fn freeze(&self, layout: LayoutKind) -> FrozenGart {
        let g = self.store.inner.read();
        let nel = self.store.schema.edge_label_count();
        let mut out_topo = Vec::with_capacity(nel);
        let mut in_topo = Vec::with_capacity(nel);
        for (li, ldef) in self.store.schema.edge_labels().iter().enumerate() {
            // Domains span the label's full internal-id space; vertices
            // created after this version (or deleted before it) simply
            // freeze with degree 0.
            let src_n = g.vertex_created[ldef.src.index()].len();
            let dst_n = g.vertex_created[ldef.dst.index()].len();
            let out_vis = g.vis(self.version, NO_XID, Some(ldef.dst));
            let src_live = |i: usize| g.vertex_visible(ldef.src.index(), i, self.version, NO_XID);
            out_topo.push(TopologyLayout::build(
                layout,
                freeze_pool(&g.adj_out[li], src_n, &out_vis, &src_live),
            ));
            let in_vis = g.vis(self.version, NO_XID, Some(ldef.src));
            let dst_live = |i: usize| g.vertex_visible(ldef.dst.index(), i, self.version, NO_XID);
            in_topo.push(TopologyLayout::build(
                layout,
                freeze_pool(&g.adj_in[li], dst_n, &in_vis, &dst_live),
            ));
        }
        FrozenGart {
            store: Arc::clone(&self.store),
            version: self.version,
            layout,
            out_topo,
            in_topo,
        }
    }
}

/// Materialises the live entries of a pooled adjacency under `vis` as a
/// static CSR, preserving edge ids; invisible source vertices freeze with
/// degree 0.
fn freeze_pool(pool: &AdjPool, n: usize, vis: &Vis<'_>, src_live: &dyn Fn(usize) -> bool) -> Csr {
    let scanned = n.min(pool.vertex_count());
    let mut offsets = vec![0u64; n + 1];
    for v in 0..scanned {
        if !src_live(v) {
            continue;
        }
        let mut d = 0u64;
        pool.for_each(v, vis, &mut |_, _| d += 1);
        offsets[v + 1] = d;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let m = offsets[n] as usize;
    let mut targets = Vec::with_capacity(m);
    let mut eids = Vec::with_capacity(m);
    for v in 0..scanned {
        if !src_live(v) {
            continue;
        }
        pool.for_each(v, vis, &mut |nbr, eid| {
            targets.push(nbr);
            eids.push(eid);
        });
    }
    Csr::from_parts(offsets, targets, eids)
}

/// An immutable freeze of a [`GartSnapshot`]: layout-backed topology (see
/// [`GartSnapshot::freeze`]) plus version-checked property/id access
/// through the owning store. Implements [`GrinGraph`] with the
/// array/sorted/compressed capabilities of its layout — unlike the live
/// snapshot, which only offers iterators.
pub struct FrozenGart {
    store: Arc<GartStore>,
    version: Version,
    layout: LayoutKind,
    out_topo: Vec<TopologyLayout>,
    in_topo: Vec<TopologyLayout>,
}

impl FrozenGart {
    /// The version the topology was frozen at.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The layout the topology is materialised in.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Heap footprint of the frozen topology (both directions, all labels).
    pub fn topology_bytes(&self) -> usize {
        self.out_topo
            .iter()
            .chain(&self.in_topo)
            .map(|t| t.heap_bytes())
            .sum()
    }
}

impl GrinGraph for FrozenGart {
    fn capabilities(&self) -> Capabilities {
        // a freeze is immutable but gains slice access to its topology
        let base = CAPABILITIES
            .difference(Capabilities::MUTABLE | Capabilities::TRANSACTIONS)
            .union(Capabilities::ADJ_LIST_ARRAY);
        let (add, remove) = Capabilities::layout_masks(self.layout);
        base.union(add).difference(remove)
    }

    fn topology_layout(&self) -> LayoutKind {
        self.layout
    }

    fn schema(&self) -> &GraphSchema {
        &self.store.schema
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        let g = self.store.inner.read();
        (0..g.vertex_created[label.index()].len())
            .filter(|&i| g.vertex_visible(label.index(), i, self.version, NO_XID))
            .count()
    }

    fn edge_count(&self, label: LabelId) -> usize {
        self.out_topo[label.index()].edge_count()
    }

    fn vertices(&self, label: LabelId) -> Box<dyn Iterator<Item = VId> + '_> {
        let g = self.store.inner.read();
        let v: Vec<VId> = (0..g.vertex_created[label.index()].len())
            .filter(|&i| g.vertex_visible(label.index(), i, self.version, NO_XID))
            .map(|i| VId(i as u64))
            .collect();
        Box::new(v.into_iter())
    }

    fn adjacent(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
        let out = &self.out_topo[elabel.index()];
        let inn = &self.in_topo[elabel.index()];
        match dir {
            Direction::Out => frozen_adj(out, v),
            Direction::In => frozen_adj(inn, v),
            Direction::Both => Box::new(frozen_adj(out, v).chain(frozen_adj(inn, v))),
        }
    }

    fn for_each_adjacent(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut dyn FnMut(AdjEntry),
    ) {
        let mut visit = |topo: &TopologyLayout| {
            if v.index() < topo.vertex_count() {
                topo.for_each_adj(v, |nbr, edge| f(AdjEntry { nbr, edge }));
            }
        };
        match dir {
            Direction::Out => visit(&self.out_topo[elabel.index()]),
            Direction::In => visit(&self.in_topo[elabel.index()]),
            Direction::Both => {
                visit(&self.out_topo[elabel.index()]);
                visit(&self.in_topo[elabel.index()]);
            }
        }
    }

    fn adjacent_slice(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Option<(&[VId], &[gs_grin::EId])> {
        let topo = match dir {
            Direction::Out => &self.out_topo[elabel.index()],
            Direction::In => &self.in_topo[elabel.index()],
            Direction::Both => return None,
        };
        if v.index() >= topo.vertex_count() {
            return Some((&[], &[]));
        }
        topo.adj_slices(v)
    }

    fn degree(&self, v: VId, _vl: LabelId, elabel: LabelId, dir: Direction) -> usize {
        let deg = |t: &TopologyLayout| {
            if v.index() < t.vertex_count() {
                t.degree(v)
            } else {
                0
            }
        };
        match dir {
            Direction::Out => deg(&self.out_topo[elabel.index()]),
            Direction::In => deg(&self.in_topo[elabel.index()]),
            Direction::Both => {
                deg(&self.out_topo[elabel.index()]) + deg(&self.in_topo[elabel.index()])
            }
        }
    }

    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut gs_grin::AdjScanFn<'_>,
    ) -> bool {
        let topo = match dir {
            Direction::Out => &self.out_topo[elabel.index()],
            Direction::In => &self.in_topo[elabel.index()],
            Direction::Both => return gs_grin::scan_via_iterators(self, vlabel, elabel, dir, f),
        };
        let visible: Vec<bool> = {
            let g = self.store.inner.read();
            (0..g.vertex_created[vlabel.index()].len())
                .map(|i| g.vertex_visible(vlabel.index(), i, self.version, NO_XID))
                .collect()
        };
        let mut nbrs = Vec::new();
        let mut eids = Vec::new();
        for (i, vis) in visible.iter().enumerate() {
            if !vis {
                continue;
            }
            let v = VId(i as u64);
            if v.index() >= topo.vertex_count() {
                f(v, &[], &[]);
            } else if let Some((ns, es)) = topo.adj_slices(v) {
                f(v, ns, es);
            } else {
                topo.as_layout().copy_adj(v, &mut nbrs, &mut eids);
                f(v, &nbrs, &eids);
            }
        }
        true
    }

    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        self.store
            .with_view(self.version, |view| view.vertex_property(label, v, prop))
    }

    fn edge_property(&self, label: LabelId, e: gs_grin::EId, prop: PropId) -> Value {
        self.store
            .with_view(self.version, |view| view.edge_property(label, e, prop))
    }

    fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        self.store
            .with_view(self.version, |view| view.internal_id(label, external))
    }

    fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        self.store
            .with_view(self.version, |view| view.external_id(label, v))
    }

    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        self.store.with_view(self.version, |view| {
            view.vertices_by_property(label, prop, value)
        })
    }
}

/// Boxed adjacency iteration over a frozen topology (zero-copy for
/// slice-backed layouts, buffered decode for compressed ones).
fn frozen_adj(topo: &TopologyLayout, v: VId) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
    if v.index() >= topo.vertex_count() {
        return Box::new(std::iter::empty());
    }
    if let Some((nbrs, eids)) = topo.adj_slices(v) {
        Box::new(
            nbrs.iter()
                .zip(eids)
                .map(|(&nbr, &edge)| AdjEntry { nbr, edge }),
        )
    } else {
        let mut entries = Vec::with_capacity(topo.degree(v));
        topo.for_each_adj(v, |nbr, edge| entries.push(AdjEntry { nbr, edge }));
        Box::new(entries.into_iter())
    }
}

impl GrinGraph for GartSnapshot {
    fn capabilities(&self) -> Capabilities {
        if self.store.durable() {
            CAPABILITIES.union(Capabilities::DURABLE)
        } else {
            CAPABILITIES
        }
    }

    fn schema(&self) -> &GraphSchema {
        &self.store.schema
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        let g = self.store.inner.read();
        (0..g.vertex_created[label.index()].len())
            .filter(|&i| g.vertex_visible(label.index(), i, self.version, NO_XID))
            .count()
    }

    fn edge_count(&self, label: LabelId) -> usize {
        // counts live edges at this version
        let mut n = 0usize;
        self.store
            .scan_edges(label, self.version, &mut |_, _, _| n += 1);
        n
    }

    fn vertices(&self, label: LabelId) -> Box<dyn Iterator<Item = VId> + '_> {
        let g = self.store.inner.read();
        let v: Vec<VId> = (0..g.vertex_created[label.index()].len())
            .filter(|&i| g.vertex_visible(label.index(), i, self.version, NO_XID))
            .map(|i| VId(i as u64))
            .collect();
        Box::new(v.into_iter())
    }

    fn adjacent(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
        Box::new(self.collect_adj(v, elabel, dir).into_iter())
    }

    fn for_each_adjacent(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut dyn FnMut(AdjEntry),
    ) {
        self.store.with_view(self.version, |view| {
            view.for_each_adjacent(v, elabel, dir, &mut |nbr, edge| f(AdjEntry { nbr, edge }))
        })
    }

    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut gs_grin::AdjScanFn<'_>,
    ) -> bool {
        // GART's bulk path: one read-lock acquisition for the whole label
        // scan over the pooled near-CSR regions, instead of one lock (and
        // one Vec allocation) per vertex through the iterator fallback.
        let Ok(ldef) = self.store.schema.edge_label(elabel) else {
            return false;
        };
        let (sl, dl) = (ldef.src, ldef.dst);
        let g = self.store.inner.read();
        let out_vis = g.vis(self.version, NO_XID, Some(dl));
        let in_vis = g.vis(self.version, NO_XID, Some(sl));
        let mut nbrs: Vec<VId> = Vec::new();
        let mut eids: Vec<gs_grin::EId> = Vec::new();
        for i in 0..g.vertex_created[vlabel.index()].len() {
            if !g.vertex_visible(vlabel.index(), i, self.version, NO_XID) {
                continue;
            }
            nbrs.clear();
            eids.clear();
            {
                let mut push = |nbr: VId, eid: gs_grin::EId| {
                    nbrs.push(nbr);
                    eids.push(eid);
                };
                match dir {
                    Direction::Out => g.adj_out[elabel.index()].for_each(i, &out_vis, &mut push),
                    Direction::In => g.adj_in[elabel.index()].for_each(i, &in_vis, &mut push),
                    Direction::Both => {
                        g.adj_out[elabel.index()].for_each(i, &out_vis, &mut push);
                        g.adj_in[elabel.index()].for_each(i, &in_vis, &mut push);
                    }
                }
            }
            f(VId(i as u64), &nbrs, &eids);
        }
        true
    }

    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        self.store
            .with_view(self.version, |view| view.vertex_property(label, v, prop))
    }

    fn edge_property(&self, label: LabelId, e: gs_grin::EId, prop: PropId) -> Value {
        self.store
            .with_view(self.version, |view| view.edge_property(label, e, prop))
    }

    fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        self.store
            .with_view(self.version, |view| view.internal_id(label, external))
    }

    fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        self.store
            .with_view(self.version, |view| view.external_id(label, v))
    }

    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        self.store.with_view(self.version, |view| {
            view.vertices_by_property(label, prop, value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::schema::GraphSchema as Schema;
    use gs_graph::ValueType;

    fn schema() -> (Schema, LabelId, LabelId) {
        let mut s = Schema::new();
        let v = s.add_vertex_label("V", &[("x", ValueType::Int)]);
        let e = s.add_edge_label("E", v, v, &[("w", ValueType::Float)]);
        (s, v, e)
    }

    #[test]
    fn staged_writes_invisible_until_commit() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        store.add_vertex(vl, 1, vec![Value::Int(10)]).unwrap();
        store.add_vertex(vl, 2, vec![Value::Int(20)]).unwrap();
        store.add_edge(el, 1, 2, vec![Value::Float(0.5)]).unwrap();
        let snap0 = store.snapshot();
        assert_eq!(snap0.vertex_count(vl), 0);
        assert_eq!(snap0.edge_count(el), 0);
        store.commit();
        let snap1 = store.snapshot();
        assert_eq!(snap1.vertex_count(vl), 2);
        assert_eq!(snap1.edge_count(el), 1);
        // the old snapshot still sees nothing (MVCC isolation)
        assert_eq!(snap0.vertex_count(vl), 0);
    }

    #[test]
    fn snapshot_versions_are_stable_across_later_writes() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        for i in 0..10 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
        }
        store.commit();
        let snap1 = store.snapshot();
        for i in 0..9 {
            store
                .add_edge(el, i, i + 1, vec![Value::Float(1.0)])
                .unwrap();
        }
        store.commit();
        let snap2 = store.snapshot();
        assert_eq!(snap1.edge_count(el), 0);
        assert_eq!(snap2.edge_count(el), 9);
        let v0 = snap2.internal_id(vl, 0).unwrap();
        assert_eq!(snap1.adjacent(v0, vl, el, Direction::Out).count(), 0);
        assert_eq!(snap2.adjacent(v0, vl, el, Direction::Out).count(), 1);
    }

    #[test]
    fn delete_edge_tombstones() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        store.add_vertex(vl, 1, vec![Value::Int(0)]).unwrap();
        store.add_vertex(vl, 2, vec![Value::Int(0)]).unwrap();
        store.add_edge(el, 1, 2, vec![Value::Float(1.0)]).unwrap();
        store.commit();
        let before = store.snapshot();
        assert!(store.delete_edge(el, 1, 2).unwrap());
        store.commit();
        let after = store.snapshot();
        assert_eq!(before.edge_count(el), 1, "old snapshot keeps the edge");
        assert_eq!(after.edge_count(el), 0);
        // deleting again finds nothing
        assert!(!store.delete_edge(el, 1, 2).unwrap());
    }

    #[test]
    fn in_adjacency_tracks_out() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        for i in 0..5 {
            store.add_vertex(vl, i, vec![Value::Int(0)]).unwrap();
        }
        for i in 1..5 {
            store
                .add_edge(el, i, 0, vec![Value::Float(i as f64)])
                .unwrap();
        }
        store.commit();
        let snap = store.snapshot();
        let v0 = snap.internal_id(vl, 0).unwrap();
        let ins: Vec<_> = snap.adjacent(v0, vl, el, Direction::In).collect();
        assert_eq!(ins.len(), 4);
        // edge property reachable through in-edges
        for e in ins {
            let w = snap.edge_property(el, e.edge, PropId(0));
            assert!(w.as_float().unwrap() >= 1.0);
        }
    }

    #[test]
    fn duplicate_vertex_external_id_rejected() {
        let (s, vl, _) = schema();
        let store = GartStore::new(s);
        store.add_vertex(vl, 7, vec![Value::Int(0)]).unwrap();
        assert!(store.add_vertex(vl, 7, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn edge_to_missing_vertex_rejected() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        store.add_vertex(vl, 1, vec![Value::Int(0)]).unwrap();
        assert!(store.add_edge(el, 1, 99, vec![Value::Float(0.0)]).is_err());
    }

    #[test]
    fn from_data_round_trip() {
        let data = PropertyGraphData::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let store = GartStore::from_data(&data).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.vertex_count(LabelId(0)), 4);
        assert_eq!(snap.edge_count(LabelId(0)), 3);
    }

    #[test]
    fn regions_relocate_and_grow() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        store.add_vertex(vl, 0, vec![Value::Int(0)]).unwrap();
        store.add_vertex(vl, 1, vec![Value::Int(0)]).unwrap();
        // enough edges to fill several segments
        for _ in 0..200 {
            store.add_edge(el, 0, 1, vec![Value::Float(1.0)]).unwrap();
        }
        store.commit();
        let snap = store.snapshot();
        let v0 = snap.internal_id(vl, 0).unwrap();
        assert_eq!(snap.adjacent(v0, vl, el, Direction::Out).count(), 200);
    }

    #[test]
    fn scan_edges_matches_per_vertex_iteration() {
        let data = PropertyGraphData::from_edge_list(
            50,
            &(0..200u64)
                .map(|i| (i % 50, (i * 7 + 1) % 50))
                .collect::<Vec<_>>(),
        );
        let store = GartStore::from_data(&data).unwrap();
        let snap = store.snapshot();
        let mut scanned = 0;
        store.scan_edges(LabelId(0), snap.version(), &mut |_, _, _| scanned += 1);
        let mut iterated = 0;
        for v in snap.vertices(LabelId(0)) {
            iterated += snap
                .adjacent(v, LabelId(0), LabelId(0), Direction::Out)
                .count();
        }
        assert_eq!(scanned, iterated);
        assert_eq!(scanned, 200);
    }

    #[test]
    fn scan_adjacency_respects_snapshot_version() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        for i in 0..6 {
            store.add_vertex(vl, i, vec![Value::Int(0)]).unwrap();
        }
        for i in 0..5 {
            store
                .add_edge(el, i, i + 1, vec![Value::Float(1.0)])
                .unwrap();
        }
        store.commit();
        let old = store.snapshot();
        store.add_vertex(vl, 6, vec![Value::Int(0)]).unwrap();
        store.add_edge(el, 6, 0, vec![Value::Float(9.0)]).unwrap();
        store.commit();
        let new = store.snapshot();

        let collect = |snap: &GartSnapshot, dir| {
            let mut rows = Vec::new();
            let bulk = snap.scan_adjacency(vl, el, dir, &mut |v, nbrs, eids| {
                rows.push((v, nbrs.to_vec(), eids.to_vec()));
            });
            assert!(bulk, "GART snapshot must run the pooled single-lock scan");
            rows
        };
        // old snapshot: 6 vertices, 5 edges; new: 7 vertices, 6 edges
        let old_rows = collect(&old, Direction::Out);
        assert_eq!(old_rows.len(), 6);
        assert_eq!(old_rows.iter().map(|(_, n, _)| n.len()).sum::<usize>(), 5);
        let new_rows = collect(&new, Direction::Out);
        assert_eq!(new_rows.len(), 7);
        assert_eq!(new_rows.iter().map(|(_, n, _)| n.len()).sum::<usize>(), 6);
        // per-vertex agreement with the iterator API, all directions
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            for (v, nbrs, eids) in collect(&new, dir) {
                let expect: Vec<AdjEntry> = new.adjacent(v, vl, el, dir).collect();
                assert_eq!(nbrs, expect.iter().map(|a| a.nbr).collect::<Vec<_>>());
                assert_eq!(eids, expect.iter().map(|a| a.edge).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn freeze_matches_snapshot_across_layouts() {
        let (s, vl, el) = schema();
        let mut data = PropertyGraphData::new(s);
        for v in 0..40u64 {
            data.add_vertex(vl, v, vec![Value::Int((v % 7) as i64)]);
        }
        for i in 0..160u64 {
            data.add_edge(el, i % 40, (i * 11 + 3) % 40, vec![Value::Float(1.0)]);
        }
        let store = GartStore::from_data(&data).unwrap();
        let snap = store.snapshot();
        // later commits the pinned version must not see: new holders of
        // existing values, and a deleted holder
        for v in 40..50u64 {
            store
                .add_vertex(vl, v, vec![Value::Int((v % 9) as i64)])
                .unwrap();
        }
        assert!(store.delete_vertex(vl, 3).unwrap());
        store.commit();
        let scan = |value: &Value| -> Vec<VId> {
            snap.vertices(vl)
                .filter(|&v| {
                    snap.vertex_property(vl, v, PropId(0))
                        .total_cmp(value)
                        .is_eq()
                })
                .collect()
        };
        for layout in LayoutKind::ALL {
            let frozen = snap.freeze(layout);
            assert_eq!(frozen.topology_layout(), layout);
            assert_eq!(frozen.version(), snap.version());
            assert_eq!(frozen.vertex_count(vl), snap.vertex_count(vl));
            assert_eq!(frozen.edge_count(el), snap.edge_count(el));
            assert!(frozen.topology_bytes() > 0);
            for v in snap.vertices(vl) {
                for dir in [Direction::Out, Direction::In, Direction::Both] {
                    let mut want: Vec<AdjEntry> = snap.adjacent(v, vl, el, dir).collect();
                    let mut got: Vec<AdjEntry> = frozen.adjacent(v, vl, el, dir).collect();
                    want.sort_by_key(|a| (a.nbr, a.edge));
                    got.sort_by_key(|a| (a.nbr, a.edge));
                    assert_eq!(got, want, "{layout} {dir:?} v{v:?}");
                    assert_eq!(frozen.degree(v, vl, el, dir), want.len());
                }
            }
            // bulk scan agrees with the live snapshot's
            let mut frozen_rows = Vec::new();
            assert!(
                frozen.scan_adjacency(vl, el, Direction::Out, &mut |v, ns, es| {
                    frozen_rows.push((v, ns.to_vec(), es.to_vec()));
                })
            );
            let mut live_rows = Vec::new();
            snap.scan_adjacency(vl, el, Direction::Out, &mut |v, ns, es| {
                live_rows.push((v, ns.to_vec(), es.to_vec()));
            });
            assert_eq!(frozen_rows, live_rows, "{layout}");
            // lookups agree at the frozen version: 7 and 8 are held only
            // after it, 9 never
            for x in 0..10 {
                let value = Value::Int(x);
                let want = scan(&value);
                assert_eq!(frozen.vertices_by_property(vl, PropId(0), &value), want);
                assert_eq!(snap.vertices_by_property(vl, PropId(0), &value), want);
            }
        }
    }

    #[test]
    fn property_lookups_follow_total_cmp_across_numeric_kinds() {
        let mut s = Schema::new();
        let vl = s.add_vertex_label("V", &[("i", ValueType::Int), ("f", ValueType::Float)]);
        let store = GartStore::new(s);
        // 2^53 and 2^53 + 1 share an f64 image, so they share a bucket,
        // but only 2^53 equals the float 2^53
        let big = 1i64 << 53;
        for (ext, i, f) in [(0, big, 2.0), (1, big + 1, -0.0), (2, 2, 0.0)] {
            store
                .add_vertex(vl, ext, vec![Value::Int(i), Value::Float(f)])
                .unwrap();
        }
        store.commit();
        let snap = store.snapshot();
        let (i, f) = (PropId(0), PropId(1));
        let ids = |p, v: Value| snap.vertices_by_property(vl, p, &v);
        assert_eq!(ids(i, Value::Int(big + 1)), vec![VId(1)]);
        assert_eq!(ids(i, Value::Float(big as f64)), vec![VId(0)]);
        assert_eq!(ids(i, Value::Float(2.0)), vec![VId(2)]);
        assert_eq!(ids(i, Value::Date(2)), vec![VId(2)]);
        assert_eq!(ids(f, Value::Int(2)), vec![VId(0)]);
        assert_eq!(ids(f, Value::Int(0)), vec![VId(2)], "-0.0 is not 0");
        assert_eq!(ids(i, Value::Str("2".into())), vec![]);
        assert_eq!(ids(i, Value::Null), vec![]);
        assert_eq!(ids(PropId(7), Value::Int(2)), vec![], "no such property");
    }

    #[test]
    fn freeze_is_isolated_from_later_commits_and_reports_capabilities() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        for i in 0..4 {
            store.add_vertex(vl, i, vec![Value::Int(0)]).unwrap();
        }
        store.add_edge(el, 0, 1, vec![Value::Float(1.0)]).unwrap();
        store.commit();
        let frozen = store.snapshot().freeze(LayoutKind::CompressedCsr);
        // writer keeps going; the freeze must not move
        store.add_edge(el, 1, 2, vec![Value::Float(2.0)]).unwrap();
        store.commit();
        assert_eq!(frozen.edge_count(el), 1);
        assert_eq!(store.snapshot().edge_count(el), 2);
        let caps = frozen.capabilities();
        assert!(caps.supports(Capabilities::COMPRESSED_TOPOLOGY | Capabilities::MVCC));
        assert!(!caps.supports(Capabilities::ADJ_LIST_ARRAY));
        assert!(
            !caps.supports(Capabilities::MUTABLE),
            "a freeze is immutable"
        );
        let sorted = store.snapshot().freeze(LayoutKind::SortedCsr);
        assert!(sorted
            .capabilities()
            .supports(Capabilities::ADJ_LIST_ARRAY | Capabilities::SORTED_ADJACENCY));
        // frozen topology drops tombstoned edges like the snapshot does
        assert!(store.delete_edge(el, 0, 1).unwrap());
        store.commit();
        let after = store.snapshot().freeze(LayoutKind::SortedCsr);
        assert_eq!(after.edge_count(el), 1);
        let v0 = after.internal_id(vl, 0).unwrap();
        assert_eq!(after.degree(v0, vl, el, Direction::Out), 0);
    }

    #[test]
    fn concurrent_reads_during_writes() {
        let (s, vl, el) = schema();
        let store = GartStore::new(s);
        for i in 0..100 {
            store.add_vertex(vl, i, vec![Value::Int(0)]).unwrap();
        }
        store.commit();
        let snap = store.snapshot();
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..99 {
                    store
                        .add_edge(el, i, i + 1, vec![Value::Float(1.0)])
                        .unwrap();
                    store.commit();
                }
            })
        };
        // reader never sees partial state beyond its version
        for _ in 0..50 {
            assert_eq!(snap.edge_count(el), 0);
        }
        writer.join().unwrap();
        assert_eq!(store.snapshot().edge_count(el), 99);
    }
}
