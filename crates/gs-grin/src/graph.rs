//! The [`GrinGraph`] trait — GRIN's handle/API surface.
//!
//! Conventions shared by all backends:
//!
//! * Vertices are identified by `(LabelId, VId)`; internal ids are dense
//!   *within* a label (GRIN's internal-id-assignment index trait).
//! * Edges are identified by `(LabelId, EId)`; edge ids are dense within an
//!   edge label, so backends can keep per-label edge-property columns.
//! * Every backend must provide iterator-based topology access; array-like
//!   access, in-adjacency, predicate pushdown, etc. are optional and
//!   advertised via [`Capabilities`].

use crate::capability::Capabilities;
use crate::predicate::EdgePredicate;
use gs_graph::partition::PartitionId;
use gs_graph::{EId, GraphSchema, LabelId, PropId, VId, Value};

/// Direction of adjacency expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    Out,
    In,
    /// Union of in and out (Gremlin's `both()`).
    Both,
}

/// One adjacency entry returned during expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbor vertex (its label is determined by the edge label's
    /// endpoint constraint and the traversal direction).
    pub nbr: VId,
    /// The edge connecting to the neighbor.
    pub edge: EId,
}

/// A fully-qualified vertex reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VertexRef {
    pub label: LabelId,
    pub id: VId,
}

impl VertexRef {
    pub fn new(label: LabelId, id: VId) -> Self {
        Self { label, id }
    }
}

/// Callback fed by [`GrinGraph::scan_adjacency`]: one `(vertex, neighbors,
/// edge_ids)` row per vertex, with `neighbors[i]` reached via `edge_ids[i]`.
pub type AdjScanFn<'a> = dyn FnMut(VId, &[VId], &[EId]) + 'a;

/// Partition metadata (GRIN's partition category): which partition this
/// graph handle represents and how vertices map to partitions.
#[derive(Clone, Debug)]
pub struct PartitionInfo {
    pub partition: PartitionId,
    pub total_partitions: usize,
}

/// GRIN's unified graph retrieval handle.
///
/// Methods that correspond to optional traits have default implementations
/// that either derive the answer from required methods (e.g. `degree` via
/// iteration) or return `None` (array access), matching GRIN's "backends
/// provide only the traits feasible for them" contract.
pub trait GrinGraph: Send + Sync {
    /// Advertised capability set.
    fn capabilities(&self) -> Capabilities;

    /// Which [`gs_graph::LayoutKind`] the backend materialised its
    /// topology in. Plain CSR by default; backends built with a different
    /// layout override this and adjust [`GrinGraph::capabilities`]
    /// accordingly ([`Capabilities::layout_masks`]).
    fn topology_layout(&self) -> gs_graph::LayoutKind {
        gs_graph::LayoutKind::Csr
    }

    /// Graph schema (labels + properties).
    fn schema(&self) -> &GraphSchema;

    // ---------------- topology ----------------

    /// Number of vertices with the given label.
    fn vertex_count(&self, label: LabelId) -> usize;

    /// Number of edges with the given edge label.
    fn edge_count(&self, label: LabelId) -> usize;

    /// Iterator over all vertices of a label (iterator-based vertex list).
    fn vertices(&self, label: LabelId) -> Box<dyn Iterator<Item = VId> + '_> {
        Box::new((0..self.vertex_count(label) as u64).map(VId))
    }

    /// Iterator-based adjacency expansion — the one required topology trait.
    fn adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_>;

    /// Push-based adjacency visitation. Semantically identical to draining
    /// [`GrinGraph::adjacent`], but backends guarding their structures with
    /// locks (GART) can override it to hold the lock once per scan instead
    /// of materialising an iterator.
    fn for_each_adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut dyn FnMut(AdjEntry),
    ) {
        for e in self.adjacent(v, vlabel, elabel, dir) {
            f(e);
        }
    }

    /// Array-like adjacency access: `(neighbors, edge_ids)` slices.
    /// `None` when the backend lacks [`Capabilities::ADJ_LIST_ARRAY`] or the
    /// direction is unavailable.
    fn adjacent_slice(
        &self,
        _v: VId,
        _vlabel: LabelId,
        _elabel: LabelId,
        _dir: Direction,
    ) -> Option<(&[VId], &[EId])> {
        None
    }

    /// Degree of `v` under the edge label/direction; backends with offset
    /// arrays should override with O(1) implementations.
    fn degree(&self, v: VId, vlabel: LabelId, elabel: LabelId, dir: Direction) -> usize {
        self.adjacent(v, vlabel, elabel, dir).count()
    }

    /// Dense internal-id range of a label — the array-like vertex list.
    /// `Some(0..n)` when internal ids form a contiguous domain the caller
    /// may index directly; backends lacking
    /// [`Capabilities::VERTEX_LIST_ARRAY`] (or whose visible set at a
    /// snapshot is not the full id domain) return `None` and callers fall
    /// back to [`GrinGraph::vertices`].
    fn vertex_range(&self, _label: LabelId) -> Option<std::ops::Range<u64>> {
        None
    }

    /// Whole-label bulk adjacency visitation: calls `f(v, neighbors,
    /// edge_ids)` exactly once per vertex of `vlabel` (in ascending
    /// internal-id order, skipping vertices not visible to this handle).
    ///
    /// Returns `true` when the scan was served by a backend fast path —
    /// [`Capabilities::ADJ_LIST_ARRAY`]-style slice access or a
    /// single-lock/chunk-granular pooled scan — and `false` when the
    /// default iterator fallback ran. Either way the callback observes
    /// identical data; the flag only tells engines (and telemetry) which
    /// path fed them. This is the bulk trait GRAPE's fragment loader is
    /// built on.
    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut AdjScanFn<'_>,
    ) -> bool {
        scan_via_iterators(self, vlabel, elabel, dir, f)
    }

    // ---------------- property ----------------

    /// A vertex property value ([`Value::Null`] when absent).
    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value;

    /// An edge property value ([`Value::Null`] when absent).
    fn edge_property(&self, label: LabelId, e: EId, prop: PropId) -> Value;

    // ---------------- index ----------------

    /// External→internal vertex id lookup (index category).
    fn internal_id(&self, _label: LabelId, _external: u64) -> Option<VId> {
        None
    }

    /// Internal→external vertex id lookup.
    fn external_id(&self, _label: LabelId, _v: VId) -> Option<u64> {
        None
    }

    /// Property-value index: vertices of `label` whose `prop` equals `value`.
    /// Default scans; backends with hash indexes override.
    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        self.vertices(label)
            .filter(|&v| {
                let x = self.vertex_property(label, v, prop);
                !x.is_null() && x.total_cmp(value).is_eq()
            })
            .collect()
    }

    // ---------------- predicate ----------------

    /// Adjacency expansion with an edge predicate. The default filters on
    /// top of [`GrinGraph::adjacent`]; backends with
    /// [`Capabilities::PREDICATE_PUSHDOWN`] may evaluate against columnar
    /// storage directly.
    fn adjacent_filtered<'a>(
        &'a self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        pred: &'a EdgePredicate,
    ) -> Box<dyn Iterator<Item = AdjEntry> + 'a> {
        if pred.is_pass() {
            return self.adjacent(v, vlabel, elabel, dir);
        }
        Box::new(
            self.adjacent(v, vlabel, elabel, dir)
                .filter(move |a| pred.eval(|pid| self.edge_property(elabel, a.edge, pid))),
        )
    }

    // ---------------- partition ----------------

    /// Partition metadata; `None` for non-partitioned (single-fragment)
    /// handles.
    fn partition_info(&self) -> Option<PartitionInfo> {
        None
    }
}

/// Iterator-based fallback behind [`GrinGraph::scan_adjacency`]: visits
/// every vertex of `vlabel` via [`GrinGraph::vertices`], drains its
/// adjacency through [`GrinGraph::for_each_adjacent`] into scratch buffers,
/// and hands the buffers to `f`. Always returns `false` (no fast path).
///
/// Backend overrides call this for directions their arrays cannot serve
/// (e.g. `Direction::Both`); it is generic rather than a default-method
/// body so those overrides can reuse it on `Self` directly.
pub fn scan_via_iterators<G: GrinGraph + ?Sized>(
    g: &G,
    vlabel: LabelId,
    elabel: LabelId,
    dir: Direction,
    f: &mut AdjScanFn<'_>,
) -> bool {
    let mut nbrs: Vec<VId> = Vec::new();
    let mut eids: Vec<EId> = Vec::new();
    for v in g.vertices(vlabel) {
        nbrs.clear();
        eids.clear();
        g.for_each_adjacent(v, vlabel, elabel, dir, &mut |a| {
            nbrs.push(a.nbr);
            eids.push(a.edge);
        });
        f(v, &nbrs, &eids);
    }
    false
}

/// A tiny in-memory GRIN implementation used by unit tests across the
/// workspace (not a real backend — Vineyard/GART/GraphAr are those).
pub mod mock {
    use super::*;
    use gs_graph::csr::Csr;
    use gs_graph::props::PropertyTable;
    use gs_graph::schema::GraphSchema;
    use gs_graph::ValueType;

    /// Single-label mock graph backed by CSR + CSC with one optional edge
    /// weight column and one vertex int property `tag`.
    pub struct MockGraph {
        schema: GraphSchema,
        out: Csr,
        in_: Csr,
        vertex_tags: Vec<i64>,
        edge_weights: Vec<f64>,
        /// When set, the mock withholds its array-like traits (capabilities,
        /// slices, ranges) and serves everything through iterators — lets
        /// tests prove iterator fallbacks against a backend that genuinely
        /// refuses array access.
        iter_only: bool,
    }

    impl MockGraph {
        /// Builds a mock that advertises only iterator capabilities (no
        /// `VERTEX_LIST_ARRAY`/`ADJ_LIST_ARRAY`), for exercising fallback
        /// paths.
        pub fn new_iter_only(n: usize, edges: &[(u64, u64, f64)]) -> Self {
            let mut g = Self::new(n, edges);
            g.iter_only = true;
            g
        }

        /// Builds a mock from `n` vertices and (src, dst, weight) triples.
        pub fn new(n: usize, edges: &[(u64, u64, f64)]) -> Self {
            let mut schema = GraphSchema::new();
            let v = schema.add_vertex_label("V", &[("tag", ValueType::Int)]);
            schema.add_edge_label("E", v, v, &[("weight", ValueType::Float)]);
            let pairs: Vec<(VId, VId)> = edges.iter().map(|&(s, d, _)| (VId(s), VId(d))).collect();
            let out = Csr::from_edges(n, &pairs);
            // Edge ids were assigned in CSR order; rebuild the weight array
            // in that order by replaying adjacency.
            let mut edge_weights = vec![0.0; edges.len()];
            {
                use std::collections::HashMap;
                let mut remaining: HashMap<(u64, u64), Vec<f64>> = HashMap::new();
                for &(s, d, w) in edges {
                    remaining.entry((s, d)).or_default().push(w);
                }
                for s in 0..n as u64 {
                    for (d, e) in out.adj(VId(s)) {
                        let ws = remaining.get_mut(&(s, d.0)).unwrap();
                        edge_weights[e.index()] = ws.pop().unwrap();
                    }
                }
            }
            let in_ = out.transpose();
            Self {
                schema,
                out,
                in_,
                vertex_tags: vec![0; n],
                edge_weights,
                iter_only: false,
            }
        }

        /// Sets the `tag` property of a vertex.
        pub fn set_tag(&mut self, v: VId, tag: i64) {
            self.vertex_tags[v.index()] = tag;
        }
    }

    impl GrinGraph for MockGraph {
        fn capabilities(&self) -> Capabilities {
            if self.iter_only {
                return Capabilities::of(&[
                    Capabilities::VERTEX_LIST_ITER,
                    Capabilities::ADJ_LIST_ITER,
                    Capabilities::IN_ADJACENCY,
                    Capabilities::PROPERTY,
                    Capabilities::INDEX_INTERNAL_ID,
                    Capabilities::INDEX_EXTERNAL_ID,
                ]);
            }
            Capabilities::of(&[
                Capabilities::VERTEX_LIST_ITER,
                Capabilities::VERTEX_LIST_ARRAY,
                Capabilities::ADJ_LIST_ITER,
                Capabilities::ADJ_LIST_ARRAY,
                Capabilities::IN_ADJACENCY,
                Capabilities::PROPERTY,
                Capabilities::INDEX_INTERNAL_ID,
                Capabilities::INDEX_EXTERNAL_ID,
            ])
        }

        fn schema(&self) -> &GraphSchema {
            &self.schema
        }

        fn vertex_count(&self, _label: LabelId) -> usize {
            self.out.vertex_count()
        }

        fn edge_count(&self, _label: LabelId) -> usize {
            self.out.edge_count()
        }

        fn adjacent(
            &self,
            v: VId,
            _vlabel: LabelId,
            _elabel: LabelId,
            dir: Direction,
        ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
            match dir {
                Direction::Out => {
                    Box::new(self.out.adj(v).map(|(nbr, edge)| AdjEntry { nbr, edge }))
                }
                Direction::In => {
                    Box::new(self.in_.adj(v).map(|(nbr, edge)| AdjEntry { nbr, edge }))
                }
                Direction::Both => Box::new(
                    self.out
                        .adj(v)
                        .chain(self.in_.adj(v))
                        .map(|(nbr, edge)| AdjEntry { nbr, edge }),
                ),
            }
        }

        fn adjacent_slice(
            &self,
            v: VId,
            _vlabel: LabelId,
            _elabel: LabelId,
            dir: Direction,
        ) -> Option<(&[VId], &[EId])> {
            if self.iter_only {
                return None;
            }
            match dir {
                Direction::Out => Some((self.out.neighbors(v), self.out.edge_ids(v))),
                Direction::In => Some((self.in_.neighbors(v), self.in_.edge_ids(v))),
                Direction::Both => None,
            }
        }

        fn vertex_range(&self, _label: LabelId) -> Option<std::ops::Range<u64>> {
            if self.iter_only {
                None
            } else {
                Some(0..self.out.vertex_count() as u64)
            }
        }

        fn scan_adjacency(
            &self,
            vlabel: LabelId,
            elabel: LabelId,
            dir: Direction,
            f: &mut AdjScanFn<'_>,
        ) -> bool {
            if self.iter_only || dir == Direction::Both {
                return scan_via_iterators(self, vlabel, elabel, dir, f);
            }
            let csr = match dir {
                Direction::Out => &self.out,
                Direction::In => &self.in_,
                Direction::Both => unreachable!(),
            };
            for v in 0..csr.vertex_count() as u64 {
                let v = VId(v);
                f(v, csr.neighbors(v), csr.edge_ids(v));
            }
            true
        }

        fn degree(&self, v: VId, _vl: LabelId, _el: LabelId, dir: Direction) -> usize {
            match dir {
                Direction::Out => self.out.degree(v),
                Direction::In => self.in_.degree(v),
                Direction::Both => self.out.degree(v) + self.in_.degree(v),
            }
        }

        fn vertex_property(&self, _label: LabelId, v: VId, prop: PropId) -> Value {
            if prop == PropId(0) {
                self.vertex_tags
                    .get(v.index())
                    .map_or(Value::Null, |&t| Value::Int(t))
            } else {
                Value::Null
            }
        }

        fn edge_property(&self, _label: LabelId, e: EId, prop: PropId) -> Value {
            if prop == PropId(0) {
                self.edge_weights
                    .get(e.index())
                    .map_or(Value::Null, |&w| Value::Float(w))
            } else {
                Value::Null
            }
        }

        fn internal_id(&self, _label: LabelId, external: u64) -> Option<VId> {
            if (external as usize) < self.out.vertex_count() {
                Some(VId(external))
            } else {
                None
            }
        }

        fn external_id(&self, _label: LabelId, v: VId) -> Option<u64> {
            if v.index() < self.out.vertex_count() {
                Some(v.0)
            } else {
                None
            }
        }
    }

    // Silence unused-import warning for PropertyTable (kept for docs parity).
    #[allow(unused)]
    fn _assert_table_usable(_t: PropertyTable) {}
}

#[cfg(test)]
mod tests {
    use super::mock::MockGraph;
    use super::*;
    use crate::predicate::{CmpOp, PropPredicate};

    fn diamond() -> MockGraph {
        // 0 -> 1 (w=1.0), 0 -> 2 (w=2.0), 1 -> 3 (w=3.0), 2 -> 3 (w=4.0)
        MockGraph::new(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)])
    }

    const L: LabelId = LabelId(0);

    #[test]
    fn out_and_in_adjacency_agree() {
        let g = diamond();
        let outs: Vec<_> = g
            .adjacent(VId(0), L, L, Direction::Out)
            .map(|a| a.nbr)
            .collect();
        assert_eq!(outs, vec![VId(1), VId(2)]);
        let ins: Vec<_> = g
            .adjacent(VId(3), L, L, Direction::In)
            .map(|a| a.nbr)
            .collect();
        assert_eq!(ins, vec![VId(1), VId(2)]);
        assert_eq!(g.degree(VId(0), L, L, Direction::Both), 2);
        assert_eq!(g.degree(VId(3), L, L, Direction::In), 2);
    }

    #[test]
    fn both_direction_unions() {
        let g = diamond();
        let both: Vec<_> = g
            .adjacent(VId(1), L, L, Direction::Both)
            .map(|a| a.nbr)
            .collect();
        assert_eq!(both, vec![VId(3), VId(0)]);
    }

    #[test]
    fn edge_properties_follow_edge_ids_through_directions() {
        let g = diamond();
        // weight of 1->3 must be 3.0 whether discovered via out(1) or in(3)
        let e_out = g
            .adjacent(VId(1), L, L, Direction::Out)
            .next()
            .unwrap()
            .edge;
        let e_in = g
            .adjacent(VId(3), L, L, Direction::In)
            .find(|a| a.nbr == VId(1))
            .unwrap()
            .edge;
        assert_eq!(e_out, e_in);
        assert_eq!(g.edge_property(L, e_out, PropId(0)), Value::Float(3.0));
    }

    #[test]
    fn predicate_filtered_expansion() {
        let g = diamond();
        let pred = EdgePredicate::pass().and(PropPredicate {
            prop: PropId(0),
            op: CmpOp::Gt,
            value: Value::Float(1.5),
        });
        let filtered: Vec<_> = g
            .adjacent_filtered(VId(0), L, L, Direction::Out, &pred)
            .map(|a| a.nbr)
            .collect();
        assert_eq!(filtered, vec![VId(2)]);
    }

    #[test]
    fn vertices_by_property_default_scan() {
        let mut g = diamond();
        g.set_tag(VId(2), 7);
        let hits = g.vertices_by_property(L, PropId(0), &Value::Int(7));
        assert_eq!(hits, vec![VId(2)]);
        // tag 0 matches the other three vertices
        let zeros = g.vertices_by_property(L, PropId(0), &Value::Int(0));
        assert_eq!(zeros, vec![VId(0), VId(1), VId(3)]);
    }

    #[test]
    fn adjacent_slice_fast_path() {
        let g = diamond();
        let (nbrs, eids) = g.adjacent_slice(VId(0), L, L, Direction::Out).unwrap();
        assert_eq!(nbrs, &[VId(1), VId(2)]);
        assert_eq!(eids.len(), 2);
        assert!(g.adjacent_slice(VId(0), L, L, Direction::Both).is_none());
    }

    #[test]
    fn capabilities_advertised() {
        let g = diamond();
        assert!(g
            .capabilities()
            .supports(Capabilities::ADJ_LIST_ARRAY | Capabilities::IN_ADJACENCY));
        assert!(!g.capabilities().supports(Capabilities::MVCC));
    }

    #[test]
    fn iter_only_mock_withholds_array_traits() {
        let g = MockGraph::new_iter_only(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0)]);
        assert!(!g.capabilities().supports(Capabilities::ADJ_LIST_ARRAY));
        assert!(!g.capabilities().supports(Capabilities::VERTEX_LIST_ARRAY));
        assert!(g.capabilities().supports(Capabilities::ADJ_LIST_ITER));
        assert!(g.adjacent_slice(VId(0), L, L, Direction::Out).is_none());
        assert!(g.vertex_range(L).is_none());
    }

    type ScanRow = (VId, Vec<VId>, Vec<EId>);

    fn collect_scan(g: &dyn GrinGraph, dir: Direction) -> (bool, Vec<ScanRow>) {
        let mut rows = Vec::new();
        let bulk = g.scan_adjacency(L, L, dir, &mut |v, nbrs, eids| {
            rows.push((v, nbrs.to_vec(), eids.to_vec()));
        });
        (bulk, rows)
    }

    #[test]
    fn scan_adjacency_bulk_and_fallback_agree() {
        let edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)];
        let bulk_graph = MockGraph::new(4, &edges);
        let iter_graph = MockGraph::new_iter_only(4, &edges);
        for dir in [Direction::Out, Direction::In, Direction::Both] {
            let (fast, rows_fast) = collect_scan(&bulk_graph, dir);
            let (slow, rows_slow) = collect_scan(&iter_graph, dir);
            assert_eq!(fast, dir != Direction::Both, "dir {dir:?}");
            assert!(!slow, "iter-only mock must use the fallback");
            assert_eq!(rows_fast, rows_slow, "dir {dir:?}");
        }
    }

    #[test]
    fn scan_adjacency_visits_every_vertex_once() {
        let g = diamond();
        let (_, rows) = collect_scan(&g, Direction::Out);
        let visited: Vec<VId> = rows.iter().map(|(v, _, _)| *v).collect();
        assert_eq!(visited, vec![VId(0), VId(1), VId(2), VId(3)]);
        let total_edges: usize = rows.iter().map(|(_, n, _)| n.len()).sum();
        assert_eq!(total_edges, g.edge_count(L));
    }
}
