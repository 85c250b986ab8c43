//! Snapshot-isolation transactions over the GART store.
//!
//! Every write is tagged with the transaction id (XID) that staged it:
//! `created = TXN_TAG | xid`. Commit does **not** rewrite the write-set —
//! it flips one slot in the transaction-status table ([`Tst`]) and the
//! visibility check resolves tagged marks through that table, so commit
//! is O(1) regardless of transaction size. Eager *hint stamping* then
//! rewrites tagged marks to the real commit version (deduped per
//! adjacency region) to restore the version-fence fast path; the
//! `lazy_stamping` knob on the store disables it so tests can exercise
//! the pure-TST visibility path.
//!
//! Conflict detection is first-writer-wins: each written entity key maps
//! to a lock slot recording the in-flight owner and the last commit
//! version; a second writer — or a writer whose snapshot predates the
//! key's last commit — receives [`GraphError::TxnConflict`] and must
//! abort. Abort physically unstages the write-set (entry removal, region
//! compaction, fence recompute); edge-id allocation and property rows are
//! deliberately *not* rolled back, so the id holes an aborted transaction
//! leaves behind reproduce bit-identically under WAL replay.

use crate::wal::Rec;
use crate::{GartStore, GartView, Inner, Version};
use gs_grin::{EId, GraphError, LabelId, PropId, Result, VId, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// High bit marking an uncommitted version: `TXN_TAG | xid`. Tagged marks
/// compare greater than any real version, so a region containing pending
/// writes automatically fails the `max_created <= version` fence and
/// falls to the checked scan path.
pub(crate) const TXN_TAG: u64 = 1 << 63;

/// A mark that is never visible to anyone (aborted slots, "not deleted").
pub(crate) const NEVER: Version = u64::MAX;

/// The reader XID of plain (non-transactional) snapshots.
pub(crate) const NO_XID: u64 = u64::MAX;

const IN_PROGRESS: u64 = 0;
const ABORTED: u64 = 1;

/// Transaction-status table: slot `xid - base` holds `0` (in progress),
/// `1` (aborted) or `version + 2` (committed at `version`). Checkpoints
/// compact it by advancing `base` past every completed transaction.
#[derive(Debug, Default)]
pub(crate) struct Tst {
    pub(crate) base: u64,
    slots: Vec<u64>,
}

impl Tst {
    pub(crate) fn with_base(base: u64) -> Self {
        Self {
            base,
            slots: Vec::new(),
        }
    }

    /// The xid the next [`Tst::begin`] will hand out.
    pub(crate) fn next_xid(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    pub(crate) fn begin(&mut self) -> u64 {
        let xid = self.next_xid();
        self.slots.push(IN_PROGRESS);
        xid
    }

    /// Replay-side registration of an xid read from the log. Gaps (begun
    /// but never-logged transactions) fill as in-progress and are aborted
    /// at end-of-log.
    pub(crate) fn ensure(&mut self, xid: u64) {
        while self.next_xid() <= xid {
            self.slots.push(IN_PROGRESS);
        }
    }

    pub(crate) fn commit(&mut self, xid: u64, version: Version) {
        self.slots[(xid - self.base) as usize] = version + 2;
    }

    pub(crate) fn abort(&mut self, xid: u64) {
        self.slots[(xid - self.base) as usize] = ABORTED;
    }

    pub(crate) fn in_progress(&self, xid: u64) -> bool {
        xid >= self.base && self.slots.get((xid - self.base) as usize) == Some(&IN_PROGRESS)
    }

    /// Drops every completed slot; callable only at quiescent points
    /// (no transaction in flight).
    pub(crate) fn compact(&mut self) {
        debug_assert!(self.slots.iter().all(|&s| s != IN_PROGRESS));
        self.base = self.next_xid();
        self.slots.clear();
    }

    /// Whether `mark` is visible to a reader pinned at `version` running
    /// as transaction `xid` (pass [`NO_XID`] for plain snapshots): plain
    /// marks compare against the version, tagged marks resolve through
    /// the status table (own writes are always visible).
    #[inline]
    pub(crate) fn visible(&self, mark: Version, version: Version, xid: u64) -> bool {
        if mark & TXN_TAG == 0 {
            return mark <= version;
        }
        if mark == NEVER {
            return false;
        }
        let owner = mark & !TXN_TAG;
        if owner == xid {
            return true;
        }
        static TST_LOOKUPS: gs_telemetry::StaticCounter =
            gs_telemetry::StaticCounter::new("gart.txn.tst_lookups");
        TST_LOOKUPS.add(1);
        if owner < self.base {
            // completed before the last checkpoint; its marks were
            // resolved to plain versions at encode time, so a stale tag
            // can only mean "committed long ago"
            return true;
        }
        match self.slots.get((owner - self.base) as usize) {
            Some(&s) if s >= 2 => s - 2 <= version,
            _ => false,
        }
    }

    /// Resolves `mark` to a plain version for checkpoint encoding:
    /// committed tags become their commit version, anything else (there
    /// should be nothing else at a quiescent point) becomes [`NEVER`].
    pub(crate) fn resolve(&self, mark: Version) -> Version {
        if mark & TXN_TAG == 0 {
            return mark;
        }
        if mark == NEVER {
            return NEVER;
        }
        let owner = mark & !TXN_TAG;
        if owner < self.base {
            return NEVER;
        }
        match self.slots.get((owner - self.base) as usize) {
            Some(&s) if s >= 2 => s - 2,
            _ => NEVER,
        }
    }
}

/// A read-visibility context threaded through adjacency scans: the pinned
/// version, the reader's xid, the status table, and (only when the
/// neighbour label has ever seen a vertex deletion) the neighbour
/// deletion marks to filter against.
pub(crate) struct Vis<'a> {
    pub(crate) version: Version,
    pub(crate) xid: u64,
    pub(crate) tst: &'a Tst,
    pub(crate) nbr_deleted: Option<&'a [Version]>,
}

impl<'a> Vis<'a> {
    #[inline]
    pub(crate) fn sees(&self, mark: Version) -> bool {
        self.tst.visible(mark, self.version, self.xid)
    }

    #[inline]
    pub(crate) fn nbr_live(&self, nbr: VId) -> bool {
        match self.nbr_deleted {
            None => true,
            Some(del) => del.get(nbr.index()).is_none_or(|&dv| !self.sees(dv)),
        }
    }
}

/// The identity of a written entity for first-writer-wins detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum WriteKey {
    /// `(vertex label, external id)`
    Vertex(u16, u64),
    /// `(edge label, edge id)`
    Edge(u16, u64),
}

/// One lock slot: the in-flight owner (or [`NO_XID`]) plus the version of
/// the last commit that wrote this key, which catches writers whose
/// snapshot predates a concurrent committed write.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LockState {
    pub(crate) owner: u64,
    pub(crate) last_commit: Version,
}

/// How to undo one staged operation (applied in reverse on abort).
#[derive(Clone, Debug)]
pub(crate) enum UndoOp {
    /// An inserted vertex: kill the slot, unmap the external id, and
    /// restore a displaced (deleted-then-readded) predecessor mapping.
    Vertex {
        label: LabelId,
        idx: u64,
        external: u64,
        displaced: Option<VId>,
    },
    /// An inserted edge: physically unstage this txn's entries from both
    /// endpoint regions (edge-id and property-row allocation stays).
    Edge { label: LabelId, src: VId, dst: VId },
    /// An edge-deletion tombstone on both endpoint regions.
    EdgeTomb {
        label: LabelId,
        src: VId,
        dst: VId,
        eid: EId,
    },
    /// A vertex-deletion mark.
    VertexDel { label: LabelId, idx: u64 },
}

/// Where commit-time hint stamping must rewrite this txn's tagged marks.
#[derive(Clone, Copy, Debug)]
pub(crate) enum StampSite {
    VCreated {
        label: LabelId,
        idx: u64,
    },
    VDeleted {
        label: LabelId,
        idx: u64,
    },
    /// One endpoint region (`out` selects direction) of an edge label;
    /// stamped once per region regardless of how many ops touched it.
    AdjRegion {
        out: bool,
        label: LabelId,
        v: VId,
    },
}

/// The per-transaction mutable state shared by explicit transactions,
/// the implicit auto-commit transaction, and WAL replay.
pub(crate) struct TxnCore {
    pub(crate) xid: u64,
    pub(crate) begin: Version,
    pub(crate) begin_logged: bool,
    pub(crate) undo: Vec<UndoOp>,
    pub(crate) stamps: Vec<StampSite>,
    pub(crate) keys: Vec<WriteKey>,
}

impl TxnCore {
    pub(crate) fn new(xid: u64, begin: Version) -> Self {
        Self {
            xid,
            begin,
            begin_logged: false,
            undo: Vec::new(),
            stamps: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// The tagged mark this transaction stamps on its writes.
    #[inline]
    pub(crate) fn mark(&self) -> Version {
        TXN_TAG | self.xid
    }
}

/// First-writer-wins lock acquisition; `Err(TxnConflict)` means the
/// caller must abort (the lock table is left untouched on conflict).
pub(crate) fn lock_write(g: &mut Inner, core: &mut TxnCore, key: WriteKey) -> Result<()> {
    let cur = g.locks.get(&key).copied();
    if let Some(st) = cur {
        if st.owner != NO_XID && st.owner != core.xid && g.tst.in_progress(st.owner) {
            gs_telemetry::counter!("gart.txn.conflicts");
            return Err(GraphError::TxnConflict(format!(
                "{key:?} has uncommitted writer txn {}",
                st.owner
            )));
        }
        if st.last_commit > core.begin {
            gs_telemetry::counter!("gart.txn.conflicts");
            return Err(GraphError::TxnConflict(format!(
                "{key:?} was written at version {} after this transaction began at {}",
                st.last_commit, core.begin
            )));
        }
        if st.owner == core.xid {
            return Ok(());
        }
    }
    core.keys.push(key);
    g.locks.insert(
        key,
        LockState {
            owner: core.xid,
            last_commit: cur.map_or(0, |s| s.last_commit),
        },
    );
    Ok(())
}

/// Releases this txn's locks; `commit_version` records first-writer-wins
/// evidence for transactions that began before this commit.
pub(crate) fn release_locks(g: &mut Inner, core: &TxnCore, commit_version: Option<Version>) {
    for key in &core.keys {
        if let Some(st) = g.locks.get_mut(key) {
            if st.owner == core.xid {
                st.owner = NO_XID;
                if let Some(v) = commit_version {
                    st.last_commit = v;
                }
            }
        }
    }
}

/// Resolves an external vertex id to the slot visible to `(version, xid)`:
/// the primary (newest) mapping first, then the shadow chain of displaced
/// slots that older snapshots may still see.
pub(crate) fn resolve_visible_vertex(
    g: &Inner,
    vlabel: LabelId,
    external: u64,
    version: Version,
    xid: u64,
) -> Option<VId> {
    let li = vlabel.index();
    let live = |v: VId| {
        g.tst.visible(g.vertex_created[li][v.index()], version, xid)
            && !g.tst.visible(g.vertex_deleted[li][v.index()], version, xid)
    };
    if let Some(v) = g.id_maps[li].internal(external) {
        if live(v) {
            return Some(v);
        }
    }
    if let Some(chain) = g.shadow[li].get(&external) {
        for &v in chain.iter().rev() {
            if live(v) {
                return Some(v);
            }
        }
    }
    None
}

// =====================================================================
// Op application — shared verbatim by the live write path and WAL replay
// so recovered state is bit-identical to the pre-crash committed state.
// =====================================================================

pub(crate) fn apply_add_vertex(
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    external: u64,
    props: &[Value],
) -> Result<VId> {
    let li = label.index();
    let displaced = match g.id_maps[li].internal(external) {
        None => None,
        Some(old) => {
            let created = g.vertex_created[li][old.index()];
            let deleted = g.vertex_deleted[li][old.index()];
            let sees_c = g.tst.visible(created, core.begin, core.xid);
            let sees_d = g.tst.visible(deleted, core.begin, core.xid);
            if sees_c && !sees_d {
                return Err(GraphError::Schema(format!(
                    "vertex {external} already exists in label {label:?}"
                )));
            }
            if sees_c && sees_d {
                // deleted at this snapshot: displace the dead slot into
                // the shadow chain and re-add under a fresh slot
                Some(old)
            } else {
                // staged by a concurrent writer; the lock table normally
                // fences this, so surface it as the conflict it is
                return Err(GraphError::TxnConflict(format!(
                    "vertex {external} in label {label:?} has an uncommitted writer"
                )));
            }
        }
    };
    g.vprops[li].push_row(props)?;
    if let Some(old) = displaced {
        g.id_maps[li].remove(external);
        g.shadow[li].entry(external).or_default().push(old);
    }
    let v = g.id_maps[li].get_or_insert(external);
    debug_assert_eq!(v.index(), g.vertex_created[li].len());
    g.vertex_created[li].push(core.mark());
    g.vertex_deleted[li].push(NEVER);
    // built indexes take the new slot; unbuilt ones will read it from
    // the table when first used
    for (p, cell) in g.prop_index[li].iter_mut().enumerate() {
        if let Some(index) = cell.get_mut() {
            index.insert(v.index(), &g.vprops[li].get(v.index(), PropId(p as u16)));
        }
    }
    core.undo.push(UndoOp::Vertex {
        label,
        idx: v.0,
        external,
        displaced,
    });
    core.stamps.push(StampSite::VCreated { label, idx: v.0 });
    Ok(v)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_add_edge(
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    src_label: LabelId,
    dst_label: LabelId,
    src_ext: u64,
    dst_ext: u64,
    props: &[Value],
) -> Result<EId> {
    let s =
        resolve_visible_vertex(g, src_label, src_ext, core.begin, core.xid).ok_or_else(|| {
            GraphError::NotFound(format!("edge src {src_ext} not visible at write version"))
        })?;
    let d =
        resolve_visible_vertex(g, dst_label, dst_ext, core.begin, core.xid).ok_or_else(|| {
            GraphError::NotFound(format!("edge dst {dst_ext} not visible at write version"))
        })?;
    let li = label.index();
    g.eprops[li].push_row(props)?;
    let eid = EId(g.edge_counts[li]);
    g.edge_counts[li] += 1;
    g.adj_out[li].push(s.index(), d, eid, core.mark());
    g.adj_in[li].push(d.index(), s, eid, core.mark());
    core.undo.push(UndoOp::Edge {
        label,
        src: s,
        dst: d,
    });
    core.stamps.push(StampSite::AdjRegion {
        out: true,
        label,
        v: s,
    });
    core.stamps.push(StampSite::AdjRegion {
        out: false,
        label,
        v: d,
    });
    Ok(eid)
}

/// Finds the first live edge `src_ext -> dst_ext` visible to the txn.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_edge_victim(
    g: &Inner,
    label: LabelId,
    src_label: LabelId,
    dst_label: LabelId,
    src_ext: u64,
    dst_ext: u64,
    version: Version,
    xid: u64,
) -> Option<(VId, VId, EId)> {
    let s = resolve_visible_vertex(g, src_label, src_ext, version, xid)?;
    let d = resolve_visible_vertex(g, dst_label, dst_ext, version, xid)?;
    let vis = Vis {
        version,
        xid,
        tst: &g.tst,
        nbr_deleted: None,
    };
    let mut victim = None;
    g.adj_out[label.index()].for_each(s.index(), &vis, &mut |nbr, eid| {
        if nbr == d && victim.is_none() {
            victim = Some(eid);
        }
    });
    victim.map(|eid| (s, d, eid))
}

/// Applies an edge-deletion tombstone for an already-resolved victim
/// (the WAL logs the resolved triple, so replay never re-resolves).
pub(crate) fn apply_del_edge_resolved(
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    src: VId,
    dst: VId,
    eid: EId,
) {
    let li = label.index();
    g.adj_out[li].add_tombstone(src.index(), eid, core.mark());
    g.adj_in[li].add_tombstone(dst.index(), eid, core.mark());
    core.undo.push(UndoOp::EdgeTomb {
        label,
        src,
        dst,
        eid,
    });
    core.stamps.push(StampSite::AdjRegion {
        out: true,
        label,
        v: src,
    });
    core.stamps.push(StampSite::AdjRegion {
        out: false,
        label,
        v: dst,
    });
}

/// Applies a vertex-deletion mark for an already-resolved slot.
pub(crate) fn apply_del_vertex_resolved(g: &mut Inner, core: &mut TxnCore, label: LabelId, v: VId) {
    let li = label.index();
    g.vertex_deleted[li][v.index()] = core.mark();
    g.deleted_any[li] = true;
    core.undo.push(UndoOp::VertexDel { label, idx: v.0 });
    core.stamps.push(StampSite::VDeleted { label, idx: v.0 });
}

/// Rolls back the tail of `core`'s write set down to `undo.len() ==
/// savepoint` (used to keep failed batches atomic) — or the whole txn on
/// abort (`savepoint == 0`). Operations are undone in reverse order; each
/// undo is idempotent with respect to region-level unstaging.
pub(crate) fn undo_to(g: &mut Inner, core: &mut TxnCore, savepoint: usize) {
    let tag = core.mark();
    while core.undo.len() > savepoint {
        let op = core.undo.pop().expect("savepoint bounded by undo length");
        match op {
            UndoOp::Vertex {
                label,
                idx,
                external,
                displaced,
            } => {
                let li = label.index();
                g.vertex_created[li][idx as usize] = NEVER;
                g.id_maps[li].remove(external);
                if let Some(old) = displaced {
                    g.id_maps[li].reassign(external, old);
                    if let Some(chain) = g.shadow[li].get_mut(&external) {
                        chain.pop();
                        if chain.is_empty() {
                            g.shadow[li].remove(&external);
                        }
                    }
                }
            }
            UndoOp::Edge { label, src, dst } => {
                let li = label.index();
                g.adj_out[li].unstage(src.index(), tag);
                g.adj_in[li].unstage(dst.index(), tag);
            }
            UndoOp::EdgeTomb {
                label,
                src,
                dst,
                eid,
            } => {
                let li = label.index();
                g.adj_out[li].untomb(src.index(), eid, tag);
                g.adj_in[li].untomb(dst.index(), eid, tag);
            }
            UndoOp::VertexDel { label, idx } => {
                g.vertex_deleted[label.index()][idx as usize] = NEVER;
            }
        }
    }
}

/// Commit-time hint stamping: rewrites this txn's tagged marks to the
/// real commit version so the fence fast path recovers. Region sites are
/// deduped — one scan per touched region, not per op.
pub(crate) fn stamp_txn(g: &mut Inner, core: &TxnCore, version: Version) {
    let tag = core.mark();
    let mut seen: HashSet<(bool, u16, u64)> = HashSet::new();
    for site in &core.stamps {
        match *site {
            StampSite::VCreated { label, idx } => {
                let c = &mut g.vertex_created[label.index()][idx as usize];
                if *c == tag {
                    *c = version;
                }
            }
            StampSite::VDeleted { label, idx } => {
                let d = &mut g.vertex_deleted[label.index()][idx as usize];
                if *d == tag {
                    *d = version;
                }
            }
            StampSite::AdjRegion { out, label, v } => {
                if seen.insert((out, label.0, v.0)) {
                    let pool = if out {
                        &mut g.adj_out[label.index()]
                    } else {
                        &mut g.adj_in[label.index()]
                    };
                    pool.stamp(v.index(), tag, version);
                }
            }
        }
    }
}

// =====================================================================
// Shared op wrappers: lock, apply, log. Used by both the explicit
// transaction API and the store's implicit auto-commit layer.
// =====================================================================

pub(crate) fn op_add_vertex(
    store: &GartStore,
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    external: u64,
    props: &[Value],
) -> Result<VId> {
    lock_write(g, core, WriteKey::Vertex(label.0, external))?;
    let v = apply_add_vertex(g, core, label, external, props)?;
    if store.has_wal() {
        store.log_op(
            core,
            &Rec::AddVertex {
                xid: core.xid,
                label: label.0,
                external,
                props: props.to_vec(),
            },
        )?;
    }
    Ok(v)
}

pub(crate) fn op_add_edge(
    store: &GartStore,
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    src_ext: u64,
    dst_ext: u64,
    props: &[Value],
) -> Result<EId> {
    let ldef = store.schema().edge_label(label)?;
    let (sl, dl) = (ldef.src, ldef.dst);
    let eid = apply_add_edge(g, core, label, sl, dl, src_ext, dst_ext, props)?;
    if store.has_wal() {
        store.log_op(
            core,
            &Rec::AddEdge {
                xid: core.xid,
                label: label.0,
                src_ext,
                dst_ext,
                props: props.to_vec(),
            },
        )?;
    }
    Ok(eid)
}

/// Stages a whole batch atomically: all edges validate and apply before
/// anything is logged; the first failure rolls the batch back to its
/// savepoint and returns the error with nothing staged or logged.
pub(crate) fn op_add_edges(
    store: &GartStore,
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    edges: &[(u64, u64, Vec<Value>)],
) -> Result<usize> {
    let ldef = store.schema().edge_label(label)?;
    let (sl, dl) = (ldef.src, ldef.dst);
    let savepoint = core.undo.len();
    let stamp_mark = core.stamps.len();
    for (src_ext, dst_ext, props) in edges {
        if let Err(e) = apply_add_edge(g, core, label, sl, dl, *src_ext, *dst_ext, props) {
            undo_to(g, core, savepoint);
            core.stamps.truncate(stamp_mark);
            return Err(e);
        }
    }
    if store.has_wal() {
        for (src_ext, dst_ext, props) in edges {
            store.log_op(
                core,
                &Rec::AddEdge {
                    xid: core.xid,
                    label: label.0,
                    src_ext: *src_ext,
                    dst_ext: *dst_ext,
                    props: props.clone(),
                },
            )?;
        }
    }
    Ok(edges.len())
}

pub(crate) fn op_delete_edge(
    store: &GartStore,
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    src_ext: u64,
    dst_ext: u64,
) -> Result<bool> {
    let ldef = store.schema().edge_label(label)?;
    let (sl, dl) = (ldef.src, ldef.dst);
    let Some((s, d, eid)) =
        resolve_edge_victim(g, label, sl, dl, src_ext, dst_ext, core.begin, core.xid)
    else {
        return Ok(false);
    };
    lock_write(g, core, WriteKey::Edge(label.0, eid.0))?;
    apply_del_edge_resolved(g, core, label, s, d, eid);
    if store.has_wal() {
        store.log_op(
            core,
            &Rec::DelEdge {
                xid: core.xid,
                label: label.0,
                src: s.0,
                dst: d.0,
                eid: eid.0,
            },
        )?;
    }
    Ok(true)
}

pub(crate) fn op_delete_vertex(
    store: &GartStore,
    g: &mut Inner,
    core: &mut TxnCore,
    label: LabelId,
    external: u64,
) -> Result<bool> {
    lock_write(g, core, WriteKey::Vertex(label.0, external))?;
    let Some(v) = resolve_visible_vertex(g, label, external, core.begin, core.xid) else {
        return Ok(false);
    };
    apply_del_vertex_resolved(g, core, label, v);
    if store.has_wal() {
        store.log_op(
            core,
            &Rec::DelVertex {
                xid: core.xid,
                label: label.0,
                external,
                idx: v.0,
            },
        )?;
    }
    Ok(true)
}

// =====================================================================
// The explicit transaction handle
// =====================================================================

/// A snapshot-isolation read/write transaction over a [`GartStore`].
///
/// Reads see the store as of the begin version plus the transaction's own
/// staged writes. Writes conflict first-writer-wins: the second
/// transaction to write an entity (or one whose snapshot predates a
/// concurrent committed write to it) receives
/// [`GraphError::TxnConflict`] and should [`GartTxn::abort`] — retrying
/// in a fresh transaction may succeed. Dropping the handle aborts.
pub struct GartTxn {
    store: Arc<GartStore>,
    core: Option<TxnCore>,
}

impl GartTxn {
    pub(crate) fn new(store: Arc<GartStore>, core: TxnCore) -> Self {
        Self {
            store,
            core: Some(core),
        }
    }

    fn core_mut(&mut self) -> &mut TxnCore {
        self.core.as_mut().expect("transaction already finished")
    }

    fn core_ref(&self) -> &TxnCore {
        self.core.as_ref().expect("transaction already finished")
    }

    /// This transaction's id.
    pub fn xid(&self) -> u64 {
        self.core_ref().xid
    }

    /// The committed version this transaction's reads are pinned to.
    pub fn begin_version(&self) -> Version {
        self.core_ref().begin
    }

    /// Inserts a vertex; visible to this transaction immediately, to
    /// others after [`GartTxn::commit`].
    pub fn add_vertex(&mut self, label: LabelId, external: u64, props: Vec<Value>) -> Result<VId> {
        let store = Arc::clone(&self.store);
        let mut g = store.inner.write();
        op_add_vertex(&store, &mut g, self.core_mut(), label, external, &props)
    }

    /// Inserts an edge between endpoints that must be visible at this
    /// transaction's snapshot (plus its own staged vertices).
    pub fn add_edge(
        &mut self,
        label: LabelId,
        src_ext: u64,
        dst_ext: u64,
        props: Vec<Value>,
    ) -> Result<EId> {
        let store = Arc::clone(&self.store);
        let mut g = store.inner.write();
        op_add_edge(
            &store,
            &mut g,
            self.core_mut(),
            label,
            src_ext,
            dst_ext,
            &props,
        )
    }

    /// Stages a batch of edges atomically under one lock acquisition.
    pub fn add_edges(&mut self, label: LabelId, edges: &[(u64, u64, Vec<Value>)]) -> Result<usize> {
        let store = Arc::clone(&self.store);
        let mut g = store.inner.write();
        op_add_edges(&store, &mut g, self.core_mut(), label, edges)
    }

    /// Tombstones the first live matching edge; `Ok(false)` if none is
    /// visible to this transaction.
    pub fn delete_edge(&mut self, label: LabelId, src_ext: u64, dst_ext: u64) -> Result<bool> {
        let store = Arc::clone(&self.store);
        let mut g = store.inner.write();
        op_delete_edge(&store, &mut g, self.core_mut(), label, src_ext, dst_ext)
    }

    /// Tombstones a vertex: it and the adjacency entries pointing at it
    /// disappear from snapshots at or after the commit version, while
    /// older snapshots keep seeing both.
    pub fn delete_vertex(&mut self, label: LabelId, external: u64) -> Result<bool> {
        let store = Arc::clone(&self.store);
        let mut g = store.inner.write();
        op_delete_vertex(&store, &mut g, self.core_mut(), label, external)
    }

    /// Runs a closure under a read guard with a [`GartView`] that sees
    /// the begin-version state plus this transaction's own writes.
    pub fn with_view<R>(&self, f: impl FnOnce(&GartView<'_>) -> R) -> R {
        let core = self.core_ref();
        let g = self.store.inner.read();
        f(&GartView {
            inner: &g,
            schema: self.store.schema(),
            version: core.begin,
            xid: core.xid,
        })
    }

    /// Publishes the write set; returns the new committed version. A
    /// read-only transaction commits without consuming a version.
    pub fn commit(mut self) -> Result<Version> {
        let core = self.core.take().expect("transaction already finished");
        self.store.commit_core(core, false)
    }

    /// Discards the write set, physically unstaging every staged entry.
    pub fn abort(mut self) {
        let core = self.core.take().expect("transaction already finished");
        self.store.abort_core(core);
    }
}

impl Drop for GartTxn {
    fn drop(&mut self) {
        if let Some(core) = self.core.take() {
            self.store.abort_core(core);
        }
    }
}
