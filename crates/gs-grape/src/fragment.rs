//! Fragments: the per-worker piece of an edge-cut-partitioned graph.
//!
//! A fragment owns its *inner* vertices and all edges sourced at them;
//! destination vertices owned elsewhere appear as *outer* mirrors. Local
//! dense ids place inner vertices first (`0..inner_count`, ascending global
//! order) and outer mirrors after (ascending global order), so per-vertex
//! state is a flat array — the layout GRAPE's "highly optimized core
//! operators for fragment management" rely on.
//!
//! Messages are addressed by local id end to end. An inner vertex's local
//! id is its index in its owner's inner list, which the partitioning pass
//! records once for every vertex (the shared *vertex map*). Each outer
//! mirror carries a routing entry precomputed at load — its owner fragment
//! and the id it has there ([`Fragment::route`]) — so a message to a mirror
//! is encoded with the owner's local id and the owner indexes its arrays
//! directly. Nothing on a message path hashes or searches; only source
//! lookups by global id ([`Fragment::local`]) search, over the sorted outer
//! range of `l2g`.
//!
//! Topology is held as a [`TopologyLayout`] (plain, sorted, or compressed
//! CSR — see [`gs_graph::layout`]); algorithms traverse through the
//! layout-agnostic [`Fragment::for_each_out`] / [`Fragment::for_each_in`]
//! so every layout produces bit-identical results. The parallel
//! per-fragment build uses a work-stealing task queue: with more fragments
//! than cores (or skewed fragment sizes), idle workers steal pending
//! builds instead of waiting on stragglers.

use gs_graph::csr::Csr;
use gs_graph::layout::{LayoutKind, TopologyLayout};
use gs_graph::partition::{EdgeCutPartitioner, PartitionId};
use gs_graph::{EId, VId};
use gs_sanitizer::TrackedMutex;
use gs_telemetry::counter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One fragment of a partitioned (optionally weighted) graph.
pub struct Fragment {
    pub id: PartitionId,
    pub total_fragments: usize,
    /// Total vertex count of the global graph.
    pub global_n: usize,
    /// Partitioner used to route messages to owners.
    pub router: EdgeCutPartitioner,
    /// local id → global id (inner first, then outer; each range sorted).
    pub l2g: Vec<VId>,
    /// Number of inner (owned) vertices.
    pub inner_count: usize,
    /// Routing entry of each outer mirror, parallel to
    /// `l2g[inner_count..]`: (owner fragment, local id on the owner).
    mirrors: Vec<(u32, u32)>,
    /// The vertex map, shared by every fragment of one partitioning:
    /// global id → the vertex's index in its owner's inner list.
    vertex_map: Arc<[u32]>,
    /// Local adjacency over local ids (edges sourced at inner vertices),
    /// in the fragment's chosen layout.
    pub out: TopologyLayout,
    /// Local reverse adjacency (in-edges of local vertices, from local
    /// sources) — the CSC transpose used by pull-mode traversal.
    pub inn: TopologyLayout,
    /// Optional edge weights parallel to `out` edge ids.
    pub weights: Option<Vec<f64>>,
}

impl Fragment {
    /// Partitions a global edge list into `k` fragments (plain CSR layout).
    pub fn partition_edges(n: usize, edges: &[(VId, VId)], k: usize) -> Vec<Fragment> {
        Self::partition_weighted(n, edges, None, k)
    }

    /// Partitions with optional per-edge weights (plain CSR layout).
    pub fn partition_weighted(
        n: usize,
        edges: &[(VId, VId)],
        weights: Option<&[f64]>,
        k: usize,
    ) -> Vec<Fragment> {
        Self::partition_weighted_with_layout(n, edges, weights, k, LayoutKind::Csr)
    }

    /// Partitions into `k` fragments materialised in the given layout.
    pub fn partition_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        k: usize,
        layout: LayoutKind,
    ) -> Vec<Fragment> {
        Self::partition_weighted_with_layout(n, edges, None, k, layout)
    }

    /// Partitions with optional per-edge weights (parallel to `edges`),
    /// materialising topology in `layout`.
    ///
    /// Routing is a single sequential pass (inner vertices in ascending
    /// global order, edges and their weights in global order, keyed by the
    /// source's owner) that also records the vertex map; the per-fragment
    /// CSR/CSC construction then runs on a work-stealing pool of
    /// `min(k, cores)` threads — fragments are tasks, so a straggler
    /// fragment no longer serialises the tail.
    pub fn partition_weighted_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        weights: Option<&[f64]>,
        k: usize,
        layout: LayoutKind,
    ) -> Vec<Fragment> {
        let router = EdgeCutPartitioner::new(k);
        let mut inner: Vec<Vec<VId>> = vec![Vec::new(); k];
        let mut vertex_map = Vec::with_capacity(n);
        for v in 0..n as u64 {
            let owned = &mut inner[router.owner(VId(v)).index()];
            vertex_map.push(owned.len() as u32);
            owned.push(VId(v));
        }
        let vertex_map: Arc<[u32]> = vertex_map.into();
        let mut frag_edges: Vec<Vec<(VId, VId)>> = vec![Vec::new(); k];
        let mut frag_weights: Vec<Vec<f64>> = vec![Vec::new(); k];
        for (i, &(s, d)) in edges.iter().enumerate() {
            let f = router.owner(s).index();
            frag_edges[f].push((s, d));
            if let Some(ws) = weights {
                frag_weights[f].push(ws[i]);
            }
        }
        // one fragment's routed share: (index, owned vertices, edges, weights)
        type RoutedShare = (usize, Vec<VId>, Vec<(VId, VId)>, Option<Vec<f64>>);
        let parts: Vec<TrackedMutex<Option<RoutedShare>>> = inner
            .into_iter()
            .zip(frag_edges)
            .zip(frag_weights)
            .enumerate()
            .map(|(i, ((inn, e), w))| {
                TrackedMutex::new(
                    "grape.fragment.part",
                    Some((i, inn, e, weights.is_some().then_some(w))),
                )
            })
            .collect();
        let slots: Vec<TrackedMutex<Option<Fragment>>> = (0..k)
            .map(|_| TrackedMutex::new("grape.fragment.slot", None))
            .collect();
        let next = AtomicUsize::new(0);
        let threads = k.min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        );
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                let parts = &parts;
                let slots = &slots;
                let next = &next;
                let vertex_map = &vertex_map;
                scope.spawn(move |_| {
                    let mut claimed = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= k {
                            break;
                        }
                        // beyond the first claim this thread is stealing
                        // work another (busy) worker would otherwise own
                        claimed += 1;
                        if claimed > 1 {
                            counter!("grape.steal.build_stolen");
                        }
                        let (idx, inn, e, w) = parts[i].lock().take().expect("task claimed once");
                        let frag = Self::build(
                            PartitionId(idx as u32),
                            router,
                            Arc::clone(vertex_map),
                            inn,
                            &e,
                            w,
                            layout,
                        );
                        *slots[idx].lock() = Some(frag);
                    }
                });
            }
        })
        .expect("fragment build scope");
        counter!("grape.steal.build_tasks"; k as u64);
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("fragment built"))
            .collect()
    }

    /// Builds one fragment from its routed share: owned vertices (ascending
    /// global order), edges sourced at them (global order), and weights
    /// parallel to those edges. Inner endpoints take their local id from
    /// the vertex map; outer ones their rank in the sorted mirror list.
    fn build(
        id: PartitionId,
        router: EdgeCutPartitioner,
        vertex_map: Arc<[u32]>,
        inner: Vec<VId>,
        edges: &[(VId, VId)],
        weights: Option<Vec<f64>>,
        layout: LayoutKind,
    ) -> Fragment {
        let mut outer: Vec<VId> = edges
            .iter()
            .map(|&(_, d)| d)
            .filter(|&d| router.owner(d) != id)
            .collect();
        outer.sort_unstable();
        outer.dedup();
        let inner_count = inner.len();
        let local_of = |g: VId| -> VId {
            let l = if router.owner(g) == id {
                vertex_map[g.index()] as usize
            } else {
                inner_count + outer.binary_search(&g).expect("mirror collected above")
            };
            VId(l as u64)
        };
        let local_edges: Vec<(VId, VId)> = edges
            .iter()
            .map(|&(s, d)| (local_of(s), local_of(d)))
            .collect();
        let mirrors = outer
            .iter()
            .map(|&g| (router.owner(g).0, vertex_map[g.index()]))
            .collect();
        let mut l2g = inner;
        l2g.extend(outer);
        // Csr::from_edges assigns edge id i to the i-th pushed pair, so the
        // routed weight vector is already in edge-id order.
        let out_csr = Csr::from_edges(l2g.len(), &local_edges);
        let inn_csr = out_csr.transpose();
        Fragment {
            id,
            total_fragments: router.partition_count(),
            global_n: vertex_map.len(),
            router,
            l2g,
            inner_count,
            mirrors,
            vertex_map,
            out: TopologyLayout::build(layout, out_csr),
            inn: TopologyLayout::build(layout, inn_csr),
            weights,
        }
    }

    /// Which topology layout this fragment materialised.
    #[inline]
    pub fn layout(&self) -> LayoutKind {
        self.out.kind()
    }

    /// Local id of a global vertex, if present on this fragment: the vertex
    /// map answers for inner vertices, a binary search over the sorted
    /// mirror range for outer ones. For source lookups only — messages
    /// already carry local ids.
    pub fn local(&self, g: VId) -> Option<u32> {
        if g.index() >= self.global_n {
            return None;
        }
        if self.owner(g) == self.id {
            return Some(self.vertex_map[g.index()]);
        }
        let outer = &self.l2g[self.inner_count..];
        outer
            .binary_search(&g)
            .ok()
            .map(|i| (self.inner_count + i) as u32)
    }

    /// Where a message to local vertex `l` goes: `(fragment, local id
    /// there)`. An inner vertex routes to this fragment under its own id, a
    /// mirror to its owner through its precomputed routing entry.
    #[inline]
    pub fn route(&self, l: u32) -> (usize, u32) {
        match (l as usize).checked_sub(self.inner_count) {
            None => (self.id.index(), l),
            Some(m) => {
                let (owner, lid) = self.mirrors[m];
                (owner as usize, lid)
            }
        }
    }

    /// Where a message to any global vertex goes: `(owner fragment, local
    /// id on the owner)` — FLASH's and Giraph's non-neighbor sends.
    #[inline]
    pub fn route_global(&self, g: VId) -> (usize, u32) {
        (self.owner(g).index(), self.vertex_map[g.index()])
    }

    /// Number of outer mirrors (`local_count() - inner_count`).
    #[inline]
    pub fn mirror_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn global(&self, l: u32) -> VId {
        self.l2g[l as usize]
    }

    /// Whether a local id is an inner (owned) vertex.
    #[inline]
    pub fn is_inner(&self, l: u32) -> bool {
        (l as usize) < self.inner_count
    }

    /// Owner fragment of a global vertex.
    #[inline]
    pub fn owner(&self, g: VId) -> PartitionId {
        self.router.owner(g)
    }

    /// Local vertex count (inner + outer).
    #[inline]
    pub fn local_count(&self) -> usize {
        self.l2g.len()
    }

    /// Out-degree of a local vertex (works on every layout).
    #[inline]
    pub fn out_degree(&self, l: u32) -> usize {
        self.out.degree(VId(l as u64))
    }

    /// In-degree of a local vertex, counting in-edges from local sources.
    #[inline]
    pub fn in_degree(&self, l: u32) -> usize {
        self.inn.degree(VId(l as u64))
    }

    /// Visits every out-edge `(neighbor local id, edge id)` of a local
    /// vertex. This is the layout-agnostic traversal primitive: identical
    /// visit order on every layout, so algorithm results are
    /// layout-independent.
    #[inline]
    pub fn for_each_out<F: FnMut(VId, EId)>(&self, l: u32, f: F) {
        self.out.for_each_adj(VId(l as u64), f);
    }

    /// Visits every in-edge `(source local id, edge id)` of a local vertex
    /// (sources are local; in-edges from remote fragments live on those
    /// fragments). Pull-mode traversal scans this.
    #[inline]
    pub fn for_each_in<F: FnMut(VId, EId)>(&self, l: u32, f: F) {
        self.inn.for_each_adj(VId(l as u64), f);
    }

    /// Visits the in-edge *sources* (local ids, no edge ids) of a local
    /// vertex until `f` returns `false` — pull-mode BFS's early-exit scan.
    #[inline]
    pub fn for_each_in_until<F: FnMut(VId) -> bool>(&self, l: u32, f: F) {
        self.inn.scan_targets(VId(l as u64), f);
    }

    /// Out-neighbors (local ids) of a local vertex, as a zero-copy slice.
    ///
    /// Only available on slice-backed layouts; compressed fragments must
    /// use [`Fragment::for_each_out`].
    #[inline]
    pub fn out_neighbors(&self, l: u32) -> &[VId] {
        self.out
            .adj_slices(VId(l as u64))
            .expect("out_neighbors: compressed layout has no slices; use for_each_out")
            .0
    }

    /// Edge ids parallel to [`Fragment::out_neighbors`] (index `weights`).
    #[inline]
    pub fn out_edge_ids(&self, l: u32) -> &[EId] {
        self.out
            .adj_slices(VId(l as u64))
            .expect("out_edge_ids: compressed layout has no slices; use for_each_out")
            .1
    }

    /// Local edge count.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Vec<(VId, VId)> {
        (0..n as u64)
            .map(|i| (VId(i), VId((i + 1) % n as u64)))
            .collect()
    }

    #[test]
    fn fragments_cover_graph() {
        let edges = ring(100);
        let frags = Fragment::partition_edges(100, &edges, 4);
        let inner_total: usize = frags.iter().map(|f| f.inner_count).sum();
        let edge_total: usize = frags.iter().map(|f| f.edge_count()).sum();
        assert_eq!(inner_total, 100);
        assert_eq!(edge_total, 100);
    }

    #[test]
    fn local_global_round_trip() {
        let edges = ring(50);
        let frags = Fragment::partition_edges(50, &edges, 3);
        for f in &frags {
            for l in 0..f.local_count() as u32 {
                let g = f.global(l);
                assert_eq!(f.local(g), Some(l));
                if f.is_inner(l) {
                    assert_eq!(f.owner(g), f.id);
                }
            }
        }
    }

    #[test]
    fn routes_name_the_owner_and_its_local_id() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(17);
        let edges: Vec<(VId, VId)> = (0..400)
            .map(|_| (VId(rng.gen_range(0..90)), VId(rng.gen_range(0..90))))
            .collect();
        let frags = Fragment::partition_edges(90, &edges, 3);
        for f in &frags {
            assert_eq!(f.mirror_count(), f.local_count() - f.inner_count);
            for l in 0..f.local_count() as u32 {
                let g = f.global(l);
                let (to, lid) = f.route(l);
                assert_eq!((to, lid), f.route_global(g));
                assert_eq!(to, f.owner(g).index());
                assert!(f.is_inner(l) == (to == f.id.index()));
                assert_eq!(frags[to].global(lid), g, "mirror {l} routes to {g:?}");
            }
        }
        assert_eq!(frags[0].local(VId(90)), None, "out of range");
    }

    #[test]
    fn edges_point_to_valid_locals() {
        let edges = ring(64);
        let frags = Fragment::partition_edges(64, &edges, 4);
        for f in &frags {
            for l in 0..f.inner_count as u32 {
                for &nbr in f.out_neighbors(l) {
                    assert!((nbr.index()) < f.local_count());
                }
            }
        }
    }

    #[test]
    fn weights_follow_edges() {
        let edges = vec![(VId(0), VId(1)), (VId(1), VId(2)), (VId(2), VId(0))];
        let weights = vec![0.1, 0.2, 0.3];
        let frags = Fragment::partition_weighted(3, &edges, Some(&weights), 2);
        let mut seen: Vec<f64> = Vec::new();
        for f in &frags {
            if let Some(ws) = &f.weights {
                for l in 0..f.inner_count as u32 {
                    for (&nbr, &eid) in f.out_neighbors(l).iter().zip(f.out_edge_ids(l)) {
                        let _ = nbr;
                        seen.push(ws[eid.index()]);
                    }
                }
            }
        }
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, weights);
    }

    #[test]
    fn weights_align_exactly_even_with_parallel_edges() {
        // duplicate (0,1) edges with distinct weights: alignment must follow
        // the global edge order, not a multiset match
        let edges = vec![
            (VId(0), VId(1)),
            (VId(0), VId(1)),
            (VId(1), VId(0)),
            (VId(2), VId(1)),
        ];
        let weights = vec![10.0, 20.0, 30.0, 40.0];
        let frags = Fragment::partition_weighted(3, &edges, Some(&weights), 2);
        let mut recovered: Vec<(u64, u64, f64)> = Vec::new();
        for f in &frags {
            let ws = f.weights.as_ref().unwrap();
            for l in 0..f.inner_count as u32 {
                for (&nbr, &eid) in f.out_neighbors(l).iter().zip(f.out_edge_ids(l)) {
                    recovered.push((f.global(l).0, f.global(nbr.0 as u32).0, ws[eid.index()]));
                }
            }
        }
        recovered.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            recovered,
            vec![(0, 1, 10.0), (0, 1, 20.0), (1, 0, 30.0), (2, 1, 40.0)]
        );
    }

    #[test]
    fn single_fragment_has_everything_inner() {
        let edges = ring(10);
        let frags = Fragment::partition_edges(10, &edges, 1);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].inner_count, 10);
        assert_eq!(frags[0].local_count(), 10);
    }

    #[test]
    fn layouts_produce_identical_fragments() {
        let edges = ring(40);
        let base = Fragment::partition_edges(40, &edges, 3);
        for layout in [LayoutKind::SortedCsr, LayoutKind::CompressedCsr] {
            let frags = Fragment::partition_edges_with_layout(40, &edges, 3, layout);
            for (a, b) in base.iter().zip(&frags) {
                assert_eq!(b.layout(), layout);
                assert_eq!(a.inner_count, b.inner_count);
                assert_eq!(a.l2g, b.l2g);
                for l in 0..a.local_count() as u32 {
                    assert_eq!(a.out_degree(l), b.out_degree(l));
                    let mut want = Vec::new();
                    a.for_each_out(l, |w, e| want.push((w, e)));
                    let mut got = Vec::new();
                    b.for_each_out(l, |w, e| got.push((w, e)));
                    assert_eq!(want, got, "layout {layout} out-adj of {l}");
                    let mut want_in = Vec::new();
                    a.for_each_in(l, |w, e| want_in.push((w, e)));
                    let mut got_in = Vec::new();
                    b.for_each_in(l, |w, e| got_in.push((w, e)));
                    assert_eq!(want_in, got_in, "layout {layout} in-adj of {l}");
                }
            }
        }
    }

    #[test]
    fn many_fragments_on_few_threads_steal_work() {
        // more fragments than any realistic core count: exercises the
        // work-stealing claim loop
        let edges = ring(256);
        let frags = Fragment::partition_edges(256, &edges, 64);
        assert_eq!(frags.len(), 64);
        let inner_total: usize = frags.iter().map(|f| f.inner_count).sum();
        assert_eq!(inner_total, 256);
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.id.index(), i);
        }
    }
}
