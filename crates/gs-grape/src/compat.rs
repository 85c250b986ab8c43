//! Compatibility interfaces (paper §6): "built-in algorithm packages ...
//! feature APIs that are compatible with NetworkX, GraphX, and Giraph
//! interfaces, enabling users to enjoy the performance improvements ...
//! without having to modify the original code."
//!
//! Three façades over the same GRAPE engine:
//!
//! * [`networkx`] — function-per-algorithm calls over an edge list, like
//!   `networkx.pagerank(G)`;
//! * [`graphx`] — Spark GraphX's `aggregateMessages` / `mapVertices` /
//!   `joinVertices` triplet model (the §8 equity algorithm is written
//!   against this);
//! * [`giraph`] — a Giraph-style `BasicComputation` class shape mapped to
//!   the Pregel runtime.

use crate::engine::{run_pregel, GrapeEngine, PregelContext, PregelProgram};
use crate::messages::Payload;
use gs_graph::VId;

/// NetworkX-style convenience calls: build once, call like the Python API.
pub mod networkx {
    use super::*;

    /// `networkx.Graph` stand-in: owns the engine, undirected by default.
    pub struct Graph {
        engine: GrapeEngine,
    }

    impl Graph {
        /// `nx.Graph()` from an edge list (symmetrized, like NetworkX's
        /// undirected default).
        pub fn new(n: usize, edges: &[(u64, u64)], workers: usize) -> Self {
            let mut el = gs_graph::EdgeList::from_pairs(n, edges.iter().copied());
            el.symmetrize();
            Self {
                engine: GrapeEngine::from_edges(n, el.edges(), workers),
            }
        }

        /// `nx.DiGraph()` — directed, no symmetrization.
        pub fn new_directed(n: usize, edges: &[(u64, u64)], workers: usize) -> Self {
            let pairs: Vec<(VId, VId)> = edges.iter().map(|&(s, d)| (VId(s), VId(d))).collect();
            Self {
                engine: GrapeEngine::from_edges(n, &pairs, workers),
            }
        }

        /// Undirected graph over any GRIN store (all labels, symmetrized).
        pub fn from_grin(graph: &dyn gs_grin::GrinGraph, workers: usize) -> gs_graph::Result<Self> {
            let (engine, _) = GrapeEngine::from_grin(
                graph,
                &crate::loader::GrinProjection::all().symmetrized(),
                workers,
            )?;
            Ok(Self { engine })
        }

        /// Directed graph over any GRIN store.
        pub fn from_grin_directed(
            graph: &dyn gs_grin::GrinGraph,
            workers: usize,
        ) -> gs_graph::Result<Self> {
            let (engine, _) =
                GrapeEngine::from_grin(graph, &crate::loader::GrinProjection::all(), workers)?;
            Ok(Self { engine })
        }

        /// `nx.pagerank(G, alpha)`.
        pub fn pagerank(&self, alpha: f64, max_iter: usize) -> Vec<f64> {
            crate::algorithms::pagerank(&self.engine, alpha, max_iter)
        }

        /// `nx.shortest_path_length(G, source)` in hops.
        pub fn shortest_path_length(&self, source: u64) -> Vec<Option<u64>> {
            crate::algorithms::bfs(&self.engine, VId(source))
                .into_iter()
                .map(|d| (d != u64::MAX).then_some(d))
                .collect()
        }

        /// `nx.connected_components(G)` — component label per vertex.
        pub fn connected_components(&self) -> Vec<u64> {
            crate::algorithms::wcc(&self.engine)
        }

        /// `nx.core_number`-style membership of the k-core.
        pub fn k_core(&self, k: usize) -> Vec<bool> {
            crate::algorithms::kcore(&self.engine, k)
        }
    }
}

/// GraphX-style vertex/edge-triplet programming.
pub mod graphx {
    use super::*;
    use crate::messages::OutBuffers;

    /// A GraphX-like property graph: per-vertex attribute `V`, per-edge
    /// attribute f64 (weight).
    pub struct PropertyGraph<V: Clone + Default + Send + Sync + 'static> {
        engine: GrapeEngine,
        vertices: Vec<V>,
    }

    /// One edge triplet visible to `aggregate_messages`.
    pub struct Triplet<'a, V> {
        pub src_id: u64,
        pub dst_id: u64,
        pub src_attr: &'a V,
        pub weight: f64,
    }

    impl<V: Clone + Default + Send + Sync + 'static> PropertyGraph<V> {
        /// `Graph(vertices, edges)` with weights.
        pub fn new(
            vertices: Vec<V>,
            edges: &[(u64, u64)],
            weights: &[f64],
            workers: usize,
        ) -> Self {
            let pairs: Vec<(VId, VId)> = edges.iter().map(|&(s, d)| (VId(s), VId(d))).collect();
            Self {
                engine: GrapeEngine::from_weighted_edges(vertices.len(), &pairs, weights, workers),
                vertices,
            }
        }

        /// `Graph(vertices, edges)` over any GRIN store: topology (and an
        /// optional `f64` edge-weight property) come from the store, vertex
        /// attributes from `init` (called with each flattened global id).
        pub fn from_grin(
            graph: &dyn gs_grin::GrinGraph,
            weight_property: Option<&str>,
            workers: usize,
            init: impl Fn(u64) -> V,
        ) -> gs_graph::Result<Self> {
            let proj = crate::loader::GrinProjection {
                weight_property: weight_property.map(str::to_string),
                ..Default::default()
            };
            let (engine, space) = GrapeEngine::from_grin(graph, &proj, workers)?;
            let vertices = (0..space.total() as u64).map(init).collect();
            Ok(Self { engine, vertices })
        }

        /// `graph.vertices`.
        pub fn vertices(&self) -> &[V] {
            &self.vertices
        }

        /// `graph.mapVertices(f)`.
        pub fn map_vertices<W: Clone + Default + Send + Sync + 'static>(
            &self,
            f: impl Fn(u64, &V) -> W,
        ) -> PropertyGraph<W> {
            PropertyGraph {
                engine: GrapeEngine {
                    fragments: Vec::new(), // re-partition below
                    recovery: None,
                },
                vertices: self
                    .vertices
                    .iter()
                    .enumerate()
                    .map(|(i, v)| f(i as u64, v))
                    .collect(),
            }
            .adopt_topology(&self.engine)
        }

        fn adopt_topology(mut self, engine: &GrapeEngine) -> Self {
            // rebuild fragments from the source engine's edges
            let mut edges = Vec::new();
            let mut weights = Vec::new();
            for frag in &engine.fragments {
                for l in 0..frag.inner_count as u32 {
                    frag.for_each_out(l, |nbr, eid| {
                        edges.push((frag.global(l), frag.global(nbr.0 as u32)));
                        weights.push(frag.weights.as_ref().map(|w| w[eid.index()]).unwrap_or(1.0));
                    });
                }
            }
            self.engine = GrapeEngine::from_weighted_edges(
                self.vertices.len(),
                &edges,
                &weights,
                engine.fragments.len().max(1),
            );
            self
        }

        /// `graph.aggregateMessages(sendMsg, mergeMsg)`: `send` inspects
        /// each out-edge triplet and may emit a message to the destination;
        /// messages merge pairwise. Returns one `Option<M>` per vertex.
        pub fn aggregate_messages<M>(
            &self,
            send: impl Fn(&Triplet<'_, V>) -> Option<M> + Sync,
            merge: impl Fn(M, M) -> M + Sync,
        ) -> Vec<Option<M>>
        where
            M: Payload + std::fmt::Debug,
        {
            let vertices = &self.vertices;
            let results: Vec<Option<M>> = self.engine.run(|frag, comm| {
                let mut out = OutBuffers::new(comm.workers);
                for l in 0..frag.inner_count as u32 {
                    let src = frag.global(l);
                    frag.for_each_out(l, |nbr, eid| {
                        let t = Triplet {
                            src_id: src.0,
                            dst_id: frag.global(nbr.0 as u32).0,
                            src_attr: &vertices[src.index()],
                            weight: frag.weights.as_ref().map(|w| w[eid.index()]).unwrap_or(1.0),
                        };
                        if let Some(m) = send(&t) {
                            let (to, lid) = frag.route(nbr.0 as u32);
                            out.send(to, lid, m);
                        }
                    });
                }
                let (blocks, _) = comm.exchange(&mut out);
                let mut acc: Vec<Option<M>> = vec![None; frag.inner_count];
                for b in &blocks {
                    b.for_each::<M>(|l, m| {
                        let l = l as usize;
                        acc[l] = Some(match acc[l].take() {
                            Some(prev) => merge(prev, m),
                            None => m,
                        });
                    });
                }
                (0..frag.inner_count as u32)
                    .map(|l| (frag.global(l), acc[l as usize].take()))
                    .collect()
            });
            results
        }

        /// `graph.joinVertices(msgs)(f)`: folds per-vertex messages back
        /// into vertex attributes.
        pub fn join_vertices<M>(&mut self, msgs: Vec<Option<M>>, f: impl Fn(u64, &V, M) -> V) {
            for (i, m) in msgs.into_iter().enumerate() {
                if let Some(m) = m {
                    self.vertices[i] = f(i as u64, &self.vertices[i], m);
                }
            }
        }
    }
}

/// Giraph-style "BasicComputation": subclass-shaped trait mapped onto the
/// Pregel runtime.
pub mod giraph {
    use super::*;

    /// The Giraph `BasicComputation<I, V, E, M>` shape (vertex ids are
    /// always u64 here; edge values come from fragment weights).
    pub trait BasicComputation: Sync {
        type VertexValue: Clone + Default + Send + 'static;
        type Message: Payload;

        /// `compute(vertex, messages)`.
        fn compute(
            &self,
            vertex: &mut GiraphVertex<'_, '_, Self::VertexValue, Self::Message>,
            messages: &[Self::Message],
        );

        /// Initial vertex value.
        fn initial_value(&self, id: u64) -> Self::VertexValue;

        /// Giraph's `MessageCombiner`: messages to one vertex fold
        /// pairwise, so `compute` receives at most one.
        fn combine(&self, a: Self::Message, b: Self::Message) -> Self::Message;
    }

    /// The mutable vertex handle passed to `compute`.
    pub struct GiraphVertex<'a, 'b, V, M: Payload> {
        pub id: u64,
        pub superstep: usize,
        value: &'a mut V,
        halted: bool,
        ctx: &'a mut PregelContext<'b, M>,
        local: u32,
    }

    impl<'a, 'b, V, M: Payload> GiraphVertex<'a, 'b, V, M> {
        /// `getValue()`.
        pub fn value(&self) -> &V {
            self.value
        }

        /// `setValue(v)`.
        pub fn set_value(&mut self, v: V) {
            *self.value = v;
        }

        /// `sendMessageToAllEdges(msg)`.
        pub fn send_message_to_all_edges(&mut self, msg: M) {
            self.ctx.send_to_out_neighbors(self.local, msg);
        }

        /// `sendMessage(target, msg)`.
        pub fn send_message(&mut self, target: u64, msg: M) {
            self.ctx.send(VId(target), msg);
        }

        /// `voteToHalt()`.
        pub fn vote_to_halt(&mut self) {
            self.halted = true;
        }
    }

    struct Adapter<'a, C: BasicComputation>(&'a C);

    impl<'a, C: BasicComputation> PregelProgram for Adapter<'a, C> {
        type Msg = C::Message;
        type Value = C::VertexValue;

        fn init(&self, g: VId, _f: &crate::fragment::Fragment) -> Self::Value {
            self.0.initial_value(g.0)
        }

        fn compute(
            &self,
            step: usize,
            local: u32,
            value: &mut Self::Value,
            msgs: &[Self::Msg],
            ctx: &mut PregelContext<'_, Self::Msg>,
        ) -> bool {
            let id = ctx.frag.global(local).0;
            let mut vertex = GiraphVertex {
                id,
                superstep: step,
                value,
                halted: false,
                ctx,
                local,
            };
            self.0.compute(&mut vertex, msgs);
            !vertex.halted
        }

        fn combine(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg {
            self.0.combine(a, b)
        }
    }

    /// `GiraphRunner.run(computation)`.
    pub fn run<C: BasicComputation>(
        engine: &GrapeEngine,
        computation: &C,
        max_supersteps: usize,
    ) -> Vec<C::VertexValue> {
        run_pregel(engine, &Adapter(computation), max_supersteps)
    }

    /// `GiraphRunner.run(computation)` straight over a GRIN store — builds
    /// the fragments from the store, then runs the computation.
    pub fn run_from_grin<C: BasicComputation>(
        graph: &dyn gs_grin::GrinGraph,
        computation: &C,
        max_supersteps: usize,
        workers: usize,
    ) -> gs_graph::Result<Vec<C::VertexValue>> {
        let (engine, _) =
            GrapeEngine::from_grin(graph, &crate::loader::GrinProjection::all(), workers)?;
        Ok(run(&engine, computation, max_supersteps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;

    #[test]
    fn networkx_from_grin_matches_edge_list_construction() {
        let triples: Vec<(u64, u64, f64)> = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 0, 1.0),
            (1, 3, 1.0),
        ];
        let store = MockGraph::new(5, &triples);
        let pairs: Vec<(u64, u64)> = triples.iter().map(|&(s, d, _)| (s, d)).collect();
        let from_list = networkx::Graph::new(5, &pairs, 2);
        let from_store = networkx::Graph::from_grin(&store, 2).unwrap();
        assert_eq!(
            from_list.connected_components(),
            from_store.connected_components()
        );
        assert_eq!(from_list.pagerank(0.85, 10), from_store.pagerank(0.85, 10));
        let directed = networkx::Graph::from_grin_directed(&store, 2).unwrap();
        assert_eq!(directed.shortest_path_length(0)[2], Some(2));
    }

    #[test]
    fn graphx_from_grin_reads_weights_from_store() {
        let store = MockGraph::new(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let mut g =
            graphx::PropertyGraph::from_grin(&store, Some("weight"), 1, |_| 1.0f64).unwrap();
        let msgs = g.aggregate_messages::<f64>(|t| Some(t.src_attr * t.weight), |a, b| a + b);
        g.join_vertices(msgs, |_, v, m| v + m);
        assert_eq!(g.vertices(), &[1.0, 1.5, 1.25]);
    }

    #[test]
    fn giraph_run_from_grin_matches_engine_run() {
        struct MinId;
        impl giraph::BasicComputation for MinId {
            type VertexValue = u64;
            type Message = u64;
            fn initial_value(&self, id: u64) -> u64 {
                id
            }
            fn combine(&self, a: u64, b: u64) -> u64 {
                a.min(b)
            }
            fn compute(
                &self,
                vertex: &mut giraph::GiraphVertex<'_, '_, u64, u64>,
                messages: &[u64],
            ) {
                let mut best = *vertex.value();
                for &m in messages {
                    best = best.min(m);
                }
                if vertex.superstep == 0 || best < *vertex.value() {
                    vertex.set_value(best);
                    vertex.send_message_to_all_edges(best);
                }
                vertex.vote_to_halt();
            }
        }
        let triples: Vec<(u64, u64, f64)> = (0..6u64)
            .flat_map(|i| [(i, (i + 1) % 6, 1.0), ((i + 1) % 6, i, 1.0)])
            .collect();
        let store = MockGraph::new(6, &triples);
        let values = giraph::run_from_grin(&store, &MinId, 50, 2).unwrap();
        assert!(values.iter().all(|&v| v == 0), "{values:?}");
    }

    #[test]
    fn networkx_facade_matches_algorithms() {
        let edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)];
        let g = networkx::Graph::new(5, &edges, 2);
        let comps = g.connected_components();
        assert_eq!(comps[..4], [0, 0, 0, 0]);
        assert_eq!(comps[4], 4, "isolated vertex is its own component");
        let dist = g.shortest_path_length(0);
        assert_eq!(dist[2], Some(2));
        assert_eq!(dist[4], None);
        let pr = g.pagerank(0.85, 10);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let core = g.k_core(2);
        assert!(core[..4].iter().all(|&b| b));
        assert!(!core[4]);
    }

    #[test]
    fn graphx_aggregate_messages_degree_count() {
        // in-degree via aggregateMessages, like the GraphX docs example
        let vertices: Vec<u64> = vec![0; 4];
        let edges = vec![(0u64, 1u64), (0, 2), (1, 2), (3, 2)];
        let weights = vec![1.0; 4];
        let g = graphx::PropertyGraph::new(vertices, &edges, &weights, 2);
        let indeg = g.aggregate_messages::<u64>(|_t| Some(1), |a, b| a + b);
        assert_eq!(indeg, vec![None, Some(1), Some(3), None]);
    }

    #[test]
    fn graphx_join_vertices_applies_messages() {
        let vertices: Vec<f64> = vec![1.0; 3];
        let edges = vec![(0u64, 1u64), (1, 2)];
        let weights = vec![0.5, 0.25];
        let mut g = graphx::PropertyGraph::new(vertices, &edges, &weights, 1);
        // propagate weighted attribute one hop
        let msgs = g.aggregate_messages::<f64>(|t| Some(t.src_attr * t.weight), |a, b| a + b);
        g.join_vertices(msgs, |_, v, m| v + m);
        assert_eq!(g.vertices(), &[1.0, 1.5, 1.25]);
    }

    #[test]
    fn giraph_max_value_propagation() {
        struct MaxValue;
        impl giraph::BasicComputation for MaxValue {
            type VertexValue = u64;
            type Message = u64;
            fn initial_value(&self, id: u64) -> u64 {
                id * 10
            }
            fn combine(&self, a: u64, b: u64) -> u64 {
                a.max(b)
            }
            fn compute(
                &self,
                vertex: &mut giraph::GiraphVertex<'_, '_, u64, u64>,
                messages: &[u64],
            ) {
                let mut best = *vertex.value();
                for &m in messages {
                    best = best.max(m);
                }
                if vertex.superstep == 0 || best > *vertex.value() {
                    vertex.set_value(best);
                    vertex.send_message_to_all_edges(best);
                }
                vertex.vote_to_halt();
            }
        }
        // bidirectional ring of 6
        let edges: Vec<(VId, VId)> = (0..6u64)
            .flat_map(|i| [(VId(i), VId((i + 1) % 6)), (VId((i + 1) % 6), VId(i))])
            .collect();
        let engine = GrapeEngine::from_edges(6, &edges, 2);
        let values = giraph::run(&engine, &MaxValue, 50);
        assert!(values.iter().all(|&v| v == 50), "{values:?}");
    }
}
