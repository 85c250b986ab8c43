//! # gs-vineyard — immutable in-memory property-graph store
//!
//! Vineyard (paper §4.2) is GraphScope Flex's in-memory immutable backend:
//! it "adopts the property graph data model, handles graph partitioning
//! using edge-cut partitioning, and provides built-in indices such as CSR
//! and CSC representations ... and internal ID assignment", which lets it
//! implement *most* GRIN traits — including the array-like fast paths.
//!
//! This crate provides:
//!
//! * [`VineyardGraph`] — the store: per-vertex-label id maps and property
//!   tables, per-edge-label CSR + CSC with dense edge ids, and optional
//!   hash property indexes;
//! * a **native API** (inherent methods like [`VineyardGraph::out_neighbors`])
//!   used by the Fig. 7(b) "tightly-coupled baseline", and
//! * the [`GrinGraph`] implementation used by every engine in the stack.

use gs_graph::csr::Csr;
use gs_graph::data::PropertyGraphData;
use gs_graph::ids::IdMap;
use gs_graph::layout::{LayoutKind, TopologyLayout};
use gs_graph::props::PropertyTable;
use gs_graph::value::GroupKey;
use gs_grin::{
    AdjEntry, Capabilities, Direction, GraphError, GraphSchema, GrinGraph, LabelId, PropId, Result,
    VId, Value,
};
use std::collections::HashMap;

/// The immutable in-memory property graph.
pub struct VineyardGraph {
    schema: GraphSchema,
    /// Per-vertex-label external↔internal id maps.
    id_maps: Vec<IdMap>,
    /// Per-vertex-label property tables (rows indexed by internal VId).
    vprops: Vec<PropertyTable>,
    /// Per-edge-label property tables (rows indexed by EId).
    eprops: Vec<PropertyTable>,
    /// Per-edge-label out-topology over the source label's internal ids,
    /// materialised in the configured [`LayoutKind`].
    out_csr: Vec<TopologyLayout>,
    /// Per-edge-label in-topology (CSC) over the destination label's ids.
    in_csr: Vec<TopologyLayout>,
    /// The topology layout every edge label is stored in.
    layout: LayoutKind,
    /// Hash property indexes: (vertex label, prop) → value → vertices.
    prop_index: HashMap<(LabelId, PropId), HashMap<GroupKey, Vec<VId>>>,
}

impl VineyardGraph {
    /// Builds the store from an interchange payload. The payload is
    /// validated; edges referencing unknown vertices are an error (Vineyard
    /// is immutable, so the full vertex set must be present at build time).
    pub fn build(data: &PropertyGraphData) -> Result<Self> {
        Self::build_with_layout(data, LayoutKind::Csr)
    }

    /// [`VineyardGraph::build`] with an explicit topology layout — the
    /// flexbuild `layout` deployment knob lands here. Adjacency *contents*
    /// are identical across layouts; only representation (and therefore the
    /// advertised [`Capabilities`]) changes.
    pub fn build_with_layout(data: &PropertyGraphData, layout: LayoutKind) -> Result<Self> {
        data.validate()?;
        let schema = data.schema.clone();
        let nvl = schema.vertex_label_count();
        let nel = schema.edge_label_count();

        let mut id_maps: Vec<IdMap> = (0..nvl).map(|_| IdMap::new()).collect();
        let mut vprops: Vec<PropertyTable> = Vec::with_capacity(nvl);
        for ldef in schema.vertex_labels() {
            let defs: Vec<(String, _)> = ldef
                .properties
                .iter()
                .map(|p| (p.name.clone(), p.value_type))
                .collect();
            vprops.push(PropertyTable::new(&defs)?);
        }
        for batch in &data.vertices {
            let lid = batch.label.index();
            for (ext, props) in batch.external_ids.iter().zip(&batch.properties) {
                let v = id_maps[lid].get_or_insert(*ext);
                debug_assert_eq!(v.index(), vprops[lid].row_count());
                vprops[lid].push_row(props)?;
            }
        }

        let mut eprops: Vec<PropertyTable> = Vec::with_capacity(nel);
        let mut out_csr: Vec<TopologyLayout> = Vec::with_capacity(nel);
        let mut in_csr: Vec<TopologyLayout> = Vec::with_capacity(nel);
        for (ldef, batch) in schema.edge_labels().iter().zip(&data.edges) {
            let defs: Vec<(String, _)> = ldef
                .properties
                .iter()
                .map(|p| (p.name.clone(), p.value_type))
                .collect();
            let mut table = PropertyTable::new(&defs)?;
            let src_map = &id_maps[ldef.src.index()];
            let dst_map = &id_maps[ldef.dst.index()];
            let mut pairs = Vec::with_capacity(batch.endpoints.len());
            for (&(s, d), props) in batch.endpoints.iter().zip(&batch.properties) {
                let si = src_map.internal(s).ok_or_else(|| {
                    GraphError::NotFound(format!("edge src {s} for label {}", ldef.name))
                })?;
                let di = dst_map.internal(d).ok_or_else(|| {
                    GraphError::NotFound(format!("edge dst {d} for label {}", ldef.name))
                })?;
                pairs.push((si, di));
                table.push_row(props)?;
            }
            // Csr::from_edges assigns EId i to the i-th pushed pair, so the
            // property table rows (in batch order) align with edge ids.
            let csr = Csr::from_edges(id_maps[ldef.src.index()].len(), &pairs);
            // CSC needs dst-label sizing; transpose() keeps edge ids but its
            // vertex domain is the same as csr's. Build explicitly instead.
            let csc = transpose_sized(&csr, id_maps[ldef.dst.index()].len());
            out_csr.push(TopologyLayout::build(layout, csr));
            in_csr.push(TopologyLayout::build(layout, csc));
            eprops.push(table);
        }

        Ok(Self {
            schema,
            id_maps,
            vprops,
            eprops,
            out_csr,
            in_csr,
            layout,
            prop_index: HashMap::new(),
        })
    }

    /// The topology layout this store was built with.
    #[inline]
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Builds a hash index on `(label, prop)` enabling O(1)
    /// [`GrinGraph::vertices_by_property`] lookups (GRIN index category).
    pub fn build_property_index(&mut self, label: LabelId, prop: PropId) {
        let table = &self.vprops[label.index()];
        let mut idx: HashMap<GroupKey, Vec<VId>> = HashMap::new();
        for row in 0..table.row_count() {
            let v = table.get(row, prop);
            if !v.is_null() {
                idx.entry(GroupKey(v)).or_default().push(VId(row as u64));
            }
        }
        self.prop_index.insert((label, prop), idx);
    }

    // ---------------- native (non-GRIN) API: Fig 7(b) baseline ----------------

    /// Out-neighbors of `v` under `elabel` — direct slice access, static
    /// dispatch. The "tightly coupled" path original GraphScope used.
    /// Panics for compressed layouts, which have no borrowable slices; the
    /// GRIN iterator/visitor paths work for every layout.
    #[inline]
    pub fn out_neighbors(&self, elabel: LabelId, v: VId) -> &[VId] {
        self.out_csr[elabel.index()]
            .adj_slices(v)
            .expect("native slice API requires an uncompressed layout")
            .0
    }

    /// In-neighbors of `v` under `elabel`.
    #[inline]
    pub fn in_neighbors(&self, elabel: LabelId, v: VId) -> &[VId] {
        self.in_csr[elabel.index()]
            .adj_slices(v)
            .expect("native slice API requires an uncompressed layout")
            .0
    }

    /// Out edge ids parallel to [`VineyardGraph::out_neighbors`].
    #[inline]
    pub fn out_edge_ids(&self, elabel: LabelId, v: VId) -> &[gs_grin::EId] {
        self.out_csr[elabel.index()]
            .adj_slices(v)
            .expect("native slice API requires an uncompressed layout")
            .1
    }

    /// O(1) out-degree.
    #[inline]
    pub fn out_degree(&self, elabel: LabelId, v: VId) -> usize {
        self.out_csr[elabel.index()].degree(v)
    }

    /// Direct property-table access for a vertex label.
    #[inline]
    pub fn vertex_table(&self, label: LabelId) -> &PropertyTable {
        &self.vprops[label.index()]
    }

    /// Direct property-table access for an edge label.
    #[inline]
    pub fn edge_table(&self, label: LabelId) -> &PropertyTable {
        &self.eprops[label.index()]
    }

    /// The id map of a vertex label.
    #[inline]
    pub fn id_map(&self, label: LabelId) -> &IdMap {
        &self.id_maps[label.index()]
    }
}

/// Transposes `csr` into a structure indexed by destination vertices of a
/// (possibly different-sized) destination domain.
fn transpose_sized(csr: &Csr, dst_n: usize) -> Csr {
    let mut entries: Vec<(VId, VId, gs_grin::EId)> = Vec::with_capacity(csr.edge_count());
    for v in 0..csr.vertex_count() {
        let vid = VId(v as u64);
        for (d, e) in csr.adj(vid) {
            entries.push((d, vid, e));
        }
    }
    entries.sort_unstable_by_key(|&(d, s, _)| (d, s));
    let mut offsets = vec![0u64; dst_n + 1];
    for &(d, _, _) in &entries {
        offsets[d.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let targets: Vec<VId> = entries.iter().map(|&(_, s, _)| s).collect();
    let edge_ids: Vec<gs_grin::EId> = entries.iter().map(|&(_, _, e)| e).collect();
    Csr::from_parts(offsets, targets, edge_ids)
}

impl GrinGraph for VineyardGraph {
    fn capabilities(&self) -> Capabilities {
        let base = Capabilities::of(&[
            Capabilities::VERTEX_LIST_ARRAY,
            Capabilities::VERTEX_LIST_ITER,
            Capabilities::ADJ_LIST_ARRAY,
            Capabilities::ADJ_LIST_ITER,
            Capabilities::IN_ADJACENCY,
            Capabilities::PROPERTY,
            Capabilities::PROPERTY_COLUMN,
            Capabilities::INDEX_EXTERNAL_ID,
            Capabilities::INDEX_INTERNAL_ID,
            Capabilities::INDEX_PROPERTY,
            Capabilities::PREDICATE_PUSHDOWN,
        ]);
        // The layout decides what the adjacency arrays can advertise: a
        // compressed topology has no borrowable slices, so ADJ_LIST_ARRAY
        // is withdrawn and consumers fall back to iterators/visitors.
        let (add, remove) = Capabilities::layout_masks(self.layout);
        base.union(add).difference(remove)
    }

    fn topology_layout(&self) -> LayoutKind {
        self.layout
    }

    fn schema(&self) -> &GraphSchema {
        &self.schema
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        self.id_maps.get(label.index()).map_or(0, |m| m.len())
    }

    fn edge_count(&self, label: LabelId) -> usize {
        self.out_csr
            .get(label.index())
            .map_or(0, |c| c.edge_count())
    }

    fn adjacent(
        &self,
        v: VId,
        _vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
        let out = &self.out_csr[elabel.index()];
        let inn = &self.in_csr[elabel.index()];
        match dir {
            Direction::Out => Box::new(safe_adj(out, v).map(|(nbr, edge)| AdjEntry { nbr, edge })),
            Direction::In => Box::new(safe_adj(inn, v).map(|(nbr, edge)| AdjEntry { nbr, edge })),
            Direction::Both => Box::new(
                safe_adj(out, v)
                    .chain(safe_adj(inn, v))
                    .map(|(nbr, edge)| AdjEntry { nbr, edge }),
            ),
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
        // Array-like fast path: no iterator boxing, one virtual call per
        // scan — this is what keeps GRIN's overhead within the paper's 8%.
        // Compressed layouts decode inline instead of borrowing slices.
        let mut visit = |topo: &TopologyLayout| {
            if v.index() >= topo.vertex_count() {
                return;
            }
            topo.for_each_adj(v, |nbr, edge| f(AdjEntry { nbr, edge }));
        };
        match dir {
            Direction::Out => visit(&self.out_csr[elabel.index()]),
            Direction::In => visit(&self.in_csr[elabel.index()]),
            Direction::Both => {
                visit(&self.out_csr[elabel.index()]);
                visit(&self.in_csr[elabel.index()]);
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
            Direction::Out => &self.out_csr[elabel.index()],
            Direction::In => &self.in_csr[elabel.index()],
            Direction::Both => return None,
        };
        if v.index() >= topo.vertex_count() {
            return Some((&[], &[]));
        }
        // None for compressed layouts — callers take the iterator path.
        topo.adj_slices(v)
    }

    fn vertex_range(&self, label: LabelId) -> Option<std::ops::Range<u64>> {
        Some(0..self.vertex_count(label) as u64)
    }

    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut gs_grin::AdjScanFn<'_>,
    ) -> bool {
        let topo = match dir {
            Direction::Out => &self.out_csr[elabel.index()],
            Direction::In => &self.in_csr[elabel.index()],
            Direction::Both => return gs_grin::scan_via_iterators(self, vlabel, elabel, dir, f),
        };
        // Reused decode buffers keep the compressed path allocation-free
        // past the first hub vertex.
        let mut nbrs = Vec::new();
        let mut eids = Vec::new();
        for v in 0..self.vertex_count(vlabel) as u64 {
            let v = VId(v);
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

    fn degree(&self, v: VId, _vl: LabelId, elabel: LabelId, dir: Direction) -> usize {
        let out = &self.out_csr[elabel.index()];
        let inn = &self.in_csr[elabel.index()];
        let deg = |c: &TopologyLayout| {
            if v.index() < c.vertex_count() {
                c.degree(v)
            } else {
                0
            }
        };
        match dir {
            Direction::Out => deg(out),
            Direction::In => deg(inn),
            Direction::Both => deg(out) + deg(inn),
        }
    }

    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        let t = &self.vprops[label.index()];
        if v.index() < t.row_count() {
            t.get(v.index(), prop)
        } else {
            Value::Null
        }
    }

    fn edge_property(&self, label: LabelId, e: gs_grin::EId, prop: PropId) -> Value {
        let t = &self.eprops[label.index()];
        if e.index() < t.row_count() {
            t.get(e.index(), prop)
        } else {
            Value::Null
        }
    }

    fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        self.id_maps.get(label.index())?.internal(external)
    }

    fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        self.id_maps.get(label.index())?.external(v)
    }

    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        if let Some(idx) = self.prop_index.get(&(label, prop)) {
            return idx
                .get(&GroupKey(value.clone()))
                .cloned()
                .unwrap_or_default();
        }
        // fall back to the default full scan
        let t = &self.vprops[label.index()];
        (0..t.row_count())
            .filter(|&row| {
                let v = t.get(row, prop);
                !v.is_null() && v.total_cmp(value).is_eq()
            })
            .map(|row| VId(row as u64))
            .collect()
    }
}

/// Adjacency iteration that treats out-of-domain vertices as isolated
/// (multi-label graphs may probe a vertex id past this label's CSR).
/// Slice-backed layouts iterate zero-copy; compressed ones decode into a
/// temporary buffer.
fn safe_adj(topo: &TopologyLayout, v: VId) -> Box<dyn Iterator<Item = (VId, gs_grin::EId)> + '_> {
    if v.index() >= topo.vertex_count() {
        return Box::new(std::iter::empty());
    }
    if let Some((nbrs, eids)) = topo.adj_slices(v) {
        Box::new(nbrs.iter().copied().zip(eids.iter().copied()))
    } else {
        let mut pairs = Vec::with_capacity(topo.degree(v));
        topo.for_each_adj(v, |w, e| pairs.push((w, e)));
        Box::new(pairs.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::schema::GraphSchema as Schema;
    use gs_graph::ValueType;

    fn buyers_graph() -> (PropertyGraphData, LabelId, LabelId, LabelId, LabelId) {
        let mut schema = Schema::new();
        let buyer = schema.add_vertex_label(
            "Buyer",
            &[("username", ValueType::Str), ("credits", ValueType::Int)],
        );
        let item = schema.add_vertex_label("Item", &[("price", ValueType::Float)]);
        let buy = schema.add_edge_label("BUY", buyer, item, &[("date", ValueType::Date)]);
        let knows = schema.add_edge_label("KNOWS", buyer, buyer, &[]);
        let mut g = PropertyGraphData::new(schema);
        // buyers: ext ids 100, 200; items: ext ids 7, 8, 9
        g.add_vertex(buyer, 100, vec![Value::Str("A1".into()), Value::Int(10)]);
        g.add_vertex(buyer, 200, vec![Value::Str("B2".into()), Value::Int(20)]);
        g.add_vertex(item, 7, vec![Value::Float(9.99)]);
        g.add_vertex(item, 8, vec![Value::Float(19.99)]);
        g.add_vertex(item, 9, vec![Value::Float(5.0)]);
        g.add_edge(buy, 100, 7, vec![Value::Date(15001)]);
        g.add_edge(buy, 100, 8, vec![Value::Date(15002)]);
        g.add_edge(buy, 200, 8, vec![Value::Date(15003)]);
        g.add_edge(knows, 100, 200, vec![]);
        g.add_edge(knows, 200, 100, vec![]);
        (g, buyer, item, buy, knows)
    }

    #[test]
    fn build_and_counts() {
        let (data, buyer, item, buy, knows) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        assert_eq!(g.vertex_count(buyer), 2);
        assert_eq!(g.vertex_count(item), 3);
        assert_eq!(g.edge_count(buy), 3);
        assert_eq!(g.edge_count(knows), 2);
    }

    #[test]
    fn external_internal_round_trip() {
        let (data, buyer, ..) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        let v = g.internal_id(buyer, 200).unwrap();
        assert_eq!(g.external_id(buyer, v), Some(200));
        assert_eq!(g.internal_id(buyer, 999), None);
    }

    #[test]
    fn adjacency_and_properties() {
        let (data, buyer, item, buy, _) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        let a1 = g.internal_id(buyer, 100).unwrap();
        let bought: Vec<Value> = g
            .adjacent(a1, buyer, buy, Direction::Out)
            .map(|e| g.vertex_property(item, e.nbr, PropId(0)))
            .collect();
        assert_eq!(bought, vec![Value::Float(9.99), Value::Float(19.99)]);
        // edge property follows the edge id
        let first = g.adjacent(a1, buyer, buy, Direction::Out).next().unwrap();
        assert_eq!(
            g.edge_property(buy, first.edge, PropId(0)),
            Value::Date(15001)
        );
    }

    #[test]
    fn csc_in_adjacency_across_labels() {
        let (data, buyer, item, buy, _) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        let item8 = g.internal_id(item, 8).unwrap();
        let buyers: Vec<u64> = g
            .adjacent(item8, item, buy, Direction::In)
            .map(|e| g.external_id(buyer, e.nbr).unwrap())
            .collect();
        assert_eq!(buyers, vec![100, 200]);
        // edge properties consistent through CSC
        for e in g.adjacent(item8, item, buy, Direction::In) {
            let d = g.edge_property(buy, e.edge, PropId(0));
            assert!(matches!(d, Value::Date(15002) | Value::Date(15003)));
        }
    }

    #[test]
    fn property_index_matches_scan() {
        let (data, buyer, ..) = buyers_graph();
        let mut g = VineyardGraph::build(&data).unwrap();
        let scan = g.vertices_by_property(buyer, PropId(0), &Value::Str("A1".into()));
        g.build_property_index(buyer, PropId(0));
        let indexed = g.vertices_by_property(buyer, PropId(0), &Value::Str("A1".into()));
        assert_eq!(scan, indexed);
        assert_eq!(indexed.len(), 1);
        assert!(g
            .vertices_by_property(buyer, PropId(0), &Value::Str("ZZ".into()))
            .is_empty());
    }

    #[test]
    fn dangling_edge_is_error() {
        let (mut data, _, _, buy, _) = buyers_graph();
        data.add_edge(buy, 100, 999, vec![Value::Date(1)]);
        assert!(VineyardGraph::build(&data).is_err());
    }

    #[test]
    fn native_api_equals_grin_api() {
        let (data, buyer, _, buy, _) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        let a1 = g.internal_id(buyer, 100).unwrap();
        let native: Vec<VId> = g.out_neighbors(buy, a1).to_vec();
        let grin: Vec<VId> = g
            .adjacent(a1, buyer, buy, Direction::Out)
            .map(|e| e.nbr)
            .collect();
        assert_eq!(native, grin);
        assert_eq!(g.out_degree(buy, a1), 2);
    }

    #[test]
    fn bulk_scan_matches_per_vertex_adjacency() {
        let (data, buyer, _, buy, _) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        let mut rows = Vec::new();
        let bulk = g.scan_adjacency(buyer, buy, Direction::Out, &mut |v, nbrs, eids| {
            rows.push((v, nbrs.to_vec(), eids.to_vec()));
        });
        assert!(bulk, "Vineyard must serve the array fast path");
        assert_eq!(rows.len(), g.vertex_count(buyer));
        for (v, nbrs, eids) in rows {
            let expect: Vec<AdjEntry> = g.adjacent(v, buyer, buy, Direction::Out).collect();
            assert_eq!(nbrs, expect.iter().map(|a| a.nbr).collect::<Vec<_>>());
            assert_eq!(eids, expect.iter().map(|a| a.edge).collect::<Vec<_>>());
        }
        assert_eq!(g.vertex_range(buyer), Some(0..2));
    }

    #[test]
    fn layouts_serve_identical_adjacency() {
        let (data, buyer, _, buy, knows) = buyers_graph();
        let base = VineyardGraph::build(&data).unwrap();
        assert_eq!(base.layout(), LayoutKind::Csr);
        for layout in LayoutKind::ALL {
            let g = VineyardGraph::build_with_layout(&data, layout).unwrap();
            assert_eq!(g.topology_layout(), layout);
            for elabel in [buy, knows] {
                for dir in [Direction::Out, Direction::In, Direction::Both] {
                    for v in 0..base.vertex_count(buyer) as u64 {
                        let v = VId(v);
                        let mut want: Vec<AdjEntry> =
                            base.adjacent(v, buyer, elabel, dir).collect();
                        let mut got: Vec<AdjEntry> = g.adjacent(v, buyer, elabel, dir).collect();
                        want.sort_by_key(|a| (a.nbr, a.edge));
                        got.sort_by_key(|a| (a.nbr, a.edge));
                        assert_eq!(got, want, "{layout} {dir:?} v{v:?}");
                        assert_eq!(
                            g.degree(v, buyer, elabel, dir),
                            base.degree(v, buyer, elabel, dir)
                        );
                        let mut visited = Vec::new();
                        g.for_each_adjacent(v, buyer, elabel, dir, &mut |e| visited.push(e));
                        visited.sort_by_key(|a| (a.nbr, a.edge));
                        assert_eq!(visited, want, "{layout} visitor {dir:?}");
                    }
                }
                // bulk scan stays available (decoding inline when compressed)
                let mut rows = 0;
                assert!(g.scan_adjacency(buyer, elabel, Direction::Out, &mut |_, _, _| rows += 1));
                assert_eq!(rows, g.vertex_count(buyer));
            }
        }
    }

    #[test]
    fn compressed_layout_withdraws_array_capability() {
        let (data, buyer, _, buy, _) = buyers_graph();
        let g = VineyardGraph::build_with_layout(&data, LayoutKind::CompressedCsr).unwrap();
        let caps = g.capabilities();
        assert!(!caps.supports(Capabilities::ADJ_LIST_ARRAY));
        assert!(caps.supports(Capabilities::COMPRESSED_TOPOLOGY | Capabilities::SORTED_ADJACENCY));
        assert!(caps.supports(Capabilities::ADJ_LIST_ITER));
        let a1 = g.internal_id(buyer, 100).unwrap();
        assert_eq!(g.adjacent_slice(a1, buyer, buy, Direction::Out), None);

        let sorted = VineyardGraph::build_with_layout(&data, LayoutKind::SortedCsr).unwrap();
        let caps = sorted.capabilities();
        assert!(caps.supports(Capabilities::ADJ_LIST_ARRAY | Capabilities::SORTED_ADJACENCY));
        assert!(sorted
            .adjacent_slice(a1, buyer, buy, Direction::Out)
            .is_some());
    }

    #[test]
    fn capabilities_include_array_and_index() {
        let (data, ..) = buyers_graph();
        let g = VineyardGraph::build(&data).unwrap();
        assert!(g.capabilities().supports(
            Capabilities::ADJ_LIST_ARRAY
                | Capabilities::INDEX_EXTERNAL_ID
                | Capabilities::PREDICATE_PUSHDOWN
        ));
        assert!(!g.capabilities().supports(Capabilities::MUTABLE));
    }

    /// The hash index answers exactly what the scan answers, also where
    /// an integer and a float differ past 2^53 (2^53 + 1 is no float).
    #[test]
    fn property_index_equals_scan_across_numeric_kinds() {
        let mut schema = Schema::new();
        let vl = schema.add_vertex_label("V", &[("x", ValueType::Int)]);
        let big = 1i64 << 53;
        let mut data = PropertyGraphData::new(schema);
        data.add_vertex(vl, 0, vec![Value::Int(big + 1)]);
        data.add_vertex(vl, 1, vec![Value::Int(big)]);
        data.add_vertex(vl, 2, vec![Value::Int(0)]);
        let scan = VineyardGraph::build(&data).unwrap();
        let mut indexed = VineyardGraph::build(&data).unwrap();
        indexed.build_property_index(vl, PropId(0));
        for probe in [
            Value::Float(big as f64),
            Value::Int(big + 1),
            Value::Date(big),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        ] {
            assert_eq!(
                indexed.vertices_by_property(vl, PropId(0), &probe),
                scan.vertices_by_property(vl, PropId(0), &probe),
                "probe {probe:?}"
            );
        }
        assert_eq!(
            indexed.vertices_by_property(vl, PropId(0), &Value::Float(big as f64)),
            vec![VId(1)]
        );
    }
}
