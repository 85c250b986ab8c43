//! [`ChaosGraph`] — a fault-wrapping GRIN storage adapter.
//!
//! GRIN's read surface is infallible by design (absent values are `Null`,
//! not errors), so a transient storage fault is modelled the way a real
//! poisoned mmap or torn snapshot read manifests in-process: a panic at
//! the read site, carrying the [`ChaosUnwind`](crate::ChaosUnwind)
//! payload. Callers that promise degradation (the learn sampler's
//! retry/skip path, gs-serve's plan execution) catch it; callers without
//! a recovery story crash loudly, which is the point.

use gs_graph::{EId, GraphSchema, LabelId, PropId, VId, Value};
use gs_grin::graph::{AdjEntry, AdjScanFn, PartitionInfo};
use gs_grin::{Capabilities, Direction, GrinGraph};

/// Wraps any GRIN store, injecting transient read faults at every
/// retrieval entry point when a [`FaultPlan`](crate::FaultPlan) with
/// `storage_p > 0` is installed. Without the `chaos` feature the fault
/// hook is an inlined no-op and this is a plain delegating wrapper.
pub struct ChaosGraph<G> {
    inner: G,
    site: &'static str,
}

impl<G: GrinGraph> ChaosGraph<G> {
    /// Wraps `inner`; `site` labels this adapter's faults in diagnostics.
    pub fn new(inner: G, site: &'static str) -> Self {
        Self { inner, site }
    }

    /// Unwraps the adapter.
    pub fn into_inner(self) -> G {
        self.inner
    }

    #[inline]
    fn fault_point(&self) {
        crate::storage_fault_point(self.site);
    }
}

impl<G: GrinGraph> GrinGraph for ChaosGraph<G> {
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn schema(&self) -> &GraphSchema {
        self.inner.schema()
    }

    fn vertex_count(&self, label: LabelId) -> usize {
        self.inner.vertex_count(label)
    }

    fn edge_count(&self, label: LabelId) -> usize {
        self.inner.edge_count(label)
    }

    fn vertices(&self, label: LabelId) -> Box<dyn Iterator<Item = VId> + '_> {
        self.inner.vertices(label)
    }

    fn adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = AdjEntry> + '_> {
        self.fault_point();
        self.inner.adjacent(v, vlabel, elabel, dir)
    }

    fn for_each_adjacent(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut dyn FnMut(AdjEntry),
    ) {
        self.fault_point();
        self.inner.for_each_adjacent(v, vlabel, elabel, dir, f);
    }

    fn adjacent_slice(
        &self,
        v: VId,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
    ) -> Option<(&[VId], &[EId])> {
        self.fault_point();
        self.inner.adjacent_slice(v, vlabel, elabel, dir)
    }

    fn degree(&self, v: VId, vlabel: LabelId, elabel: LabelId, dir: Direction) -> usize {
        self.fault_point();
        self.inner.degree(v, vlabel, elabel, dir)
    }

    fn vertex_range(&self, label: LabelId) -> Option<std::ops::Range<u64>> {
        self.inner.vertex_range(label)
    }

    fn scan_adjacency(
        &self,
        vlabel: LabelId,
        elabel: LabelId,
        dir: Direction,
        f: &mut AdjScanFn<'_>,
    ) -> bool {
        self.fault_point();
        self.inner.scan_adjacency(vlabel, elabel, dir, f)
    }

    fn vertex_property(&self, label: LabelId, v: VId, prop: PropId) -> Value {
        self.fault_point();
        self.inner.vertex_property(label, v, prop)
    }

    fn edge_property(&self, label: LabelId, e: EId, prop: PropId) -> Value {
        self.fault_point();
        self.inner.edge_property(label, e, prop)
    }

    fn internal_id(&self, label: LabelId, external: u64) -> Option<VId> {
        self.fault_point();
        self.inner.internal_id(label, external)
    }

    fn external_id(&self, label: LabelId, v: VId) -> Option<u64> {
        self.inner.external_id(label, v)
    }

    fn vertices_by_property(&self, label: LabelId, prop: PropId, value: &Value) -> Vec<VId> {
        self.fault_point();
        self.inner.vertices_by_property(label, prop, value)
    }

    fn partition_info(&self) -> Option<PartitionInfo> {
        self.inner.partition_info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;

    #[test]
    fn delegates_transparently_without_faults() {
        let g = ChaosGraph::new(
            MockGraph::new(10, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]),
            "test.store",
        );
        assert_eq!(g.vertex_count(LabelId(0)), 10);
        assert_eq!(g.degree(VId(0), LabelId(0), LabelId(0), Direction::Out), 1);
        let nbrs: Vec<_> = g
            .adjacent(VId(1), LabelId(0), LabelId(0), Direction::Out)
            .map(|a| a.nbr)
            .collect();
        assert_eq!(nbrs, vec![VId(2)]);
    }
}
