//! Property-based invariants across the stack (proptest).

use graphscope_flex::prelude::*;
use gs_graph::varint;
use gs_ir::physical::lower_naive;
use proptest::prelude::*;

/// All plan execution in this file goes through the unified
/// [`QueryEngine`] interface, via the prepared-handle path.
fn run(
    engine: &dyn QueryEngine,
    plan: &gs_ir::PhysicalPlan,
    graph: &dyn GrinGraph,
) -> Vec<Vec<Value>> {
    engine.prepare(plan).unwrap().execute(graph).unwrap()
}

/// Arbitrary small digraphs as (n, edge list).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u64, u64)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64), 0..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR preserves the edge multiset and degrees.
    #[test]
    fn csr_round_trips_edge_multiset((n, edges) in arb_graph(40, 200)) {
        let pairs: Vec<(VId, VId)> = edges.iter().map(|&(s, d)| (VId(s), VId(d))).collect();
        let csr = gs_graph::Csr::from_edges(n, &pairs);
        prop_assert_eq!(csr.edge_count(), pairs.len());
        let mut from_csr: Vec<(u64, u64)> = Vec::new();
        for v in 0..n {
            for &w in csr.neighbors(VId(v as u64)) {
                from_csr.push((v as u64, w.0));
            }
        }
        let mut want = edges.clone();
        want.sort_unstable();
        from_csr.sort_unstable();
        prop_assert_eq!(from_csr, want);
        // transpose twice is identity
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    /// Varint delta coding round-trips any u64 sequence.
    #[test]
    fn delta_codec_round_trips(values in proptest::collection::vec(any::<u64>(), 0..300)) {
        let mut buf = Vec::new();
        varint::encode_deltas(&values, &mut buf);
        let (back, used) = varint::decode_deltas(&buf).unwrap();
        prop_assert_eq!(back, values);
        prop_assert_eq!(used, buf.len());
    }

    /// GraphAr column chunks round-trip arbitrary int-with-null columns,
    /// and corruption of any single byte is detected (or yields the same
    /// data — CRC collisions aside, flipping a bit must never silently
    /// produce *different* data).
    #[test]
    fn graphar_chunk_round_trip_and_corruption(
        ints in proptest::collection::vec(proptest::option::of(any::<i64>()), 1..100),
        flip in any::<(usize, u8)>(),
    ) {
        let values: Vec<Value> = ints
            .iter()
            .map(|o| o.map(Value::Int).unwrap_or(Value::Null))
            .collect();
        let chunk = gs_graphar::codec::encode_column(&values, ValueType::Int).unwrap();
        let back = gs_graphar::codec::decode_column(&chunk).unwrap();
        prop_assert_eq!(&back, &values);
        // single-byte corruption
        let (pos, xor) = flip;
        if xor != 0 {
            let mut bad = chunk.to_vec();
            let i = pos % bad.len();
            bad[i] ^= xor;
            match gs_graphar::codec::decode_column(&bad) {
                Err(_) => {}
                Ok(data) => prop_assert_eq!(data, values, "silent corruption"),
            }
        }
    }

    /// GART: a snapshot taken before a batch of edge inserts never sees
    /// them; one taken after sees all of them.
    #[test]
    fn gart_snapshot_isolation((n, edges) in arb_graph(30, 120)) {
        let schema = GraphSchema::homogeneous(false);
        let store = GartStore::new(schema);
        for v in 0..n as u64 {
            store.add_vertex(gs_graph::LabelId(0), v, vec![]).unwrap();
        }
        store.commit();
        let split = edges.len() / 2;
        for &(s, d) in &edges[..split] {
            store.add_edge(gs_graph::LabelId(0), s, d, vec![]).unwrap();
        }
        store.commit();
        let snap_mid = store.snapshot();
        for &(s, d) in &edges[split..] {
            store.add_edge(gs_graph::LabelId(0), s, d, vec![]).unwrap();
        }
        store.commit();
        let snap_end = store.snapshot();
        prop_assert_eq!(snap_mid.edge_count(gs_graph::LabelId(0)), split);
        prop_assert_eq!(snap_end.edge_count(gs_graph::LabelId(0)), edges.len());
    }

    /// Optimizer passes never change query results (random 2-hop + filter
    /// queries over random graphs).
    #[test]
    fn optimizer_preserves_semantics(
        (n, edges) in arb_graph(25, 120),
        threshold in 0i64..20,
    ) {
        let pairs: Vec<(u64, u64)> = edges.clone();
        let data = PropertyGraphData::from_edge_list(n, &pairs);
        let store = VineyardGraph::build(&data).unwrap();
        let schema = data.schema.clone();
        let q = format!(
            "MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) WHERE a.id > {threshold} \
             RETURN a, COUNT(c) AS n"
        );
        let plan = parse_cypher(&q, &schema, &Default::default()).unwrap();
        let baseline = run(&ReferenceEngine::default(), &lower_naive(&plan).unwrap(), &store);
        let optimized = Optimizer::new(CostStats::build(&store, 50))
            .optimize(&plan)
            .unwrap();
        let opt = run(&ReferenceEngine::default(), &optimized, &store);
        let canon = |mut v: Vec<Vec<Value>>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        prop_assert_eq!(canon(opt), canon(baseline));
    }

    /// Distributed WCC equals union-find for any symmetrized graph and any
    /// fragment count.
    #[test]
    fn wcc_matches_union_find((n, edges) in arb_graph(40, 150), k in 1usize..5) {
        let mut el = gs_graph::EdgeList::from_pairs(n, edges);
        el.symmetrize();
        let engine = GrapeEngine::from_edges(n, el.edges(), k);
        let got = grape_algorithms::wcc(&engine);
        let want = grape_algorithms::reference::wcc(n, el.edges());
        prop_assert_eq!(got, want);
    }

    /// GRAPE BFS equals the sequential reference for any graph/partitioning.
    #[test]
    fn bfs_matches_reference((n, edges) in arb_graph(40, 150), k in 1usize..5) {
        let pairs: Vec<(VId, VId)> = edges.iter().map(|&(s, d)| (VId(s), VId(d))).collect();
        let engine = GrapeEngine::from_edges(n, &pairs, k);
        let got = grape_algorithms::bfs(&engine, VId(0));
        let want = grape_algorithms::reference::bfs(n, &pairs, VId(0));
        prop_assert_eq!(got, want);
    }

    /// Gaia with any worker count matches the reference executor on a
    /// group-by query.
    #[test]
    fn gaia_parallelism_is_transparent((n, edges) in arb_graph(25, 100), workers in 1usize..6) {
        let data = PropertyGraphData::from_edge_list(n, &edges);
        let store = VineyardGraph::build(&data).unwrap();
        let schema = data.schema.clone();
        let q = "MATCH (a:V)-[:E]->(b:V) RETURN b, COUNT(a) AS indeg";
        let plan = parse_cypher(q, &schema, &Default::default()).unwrap();
        let phys = lower_naive(&plan).unwrap();
        let reference = run(&ReferenceEngine::default(), &phys, &store);
        let parallel = run(&GaiaEngine::new(workers), &phys, &store);
        let canon = |mut v: Vec<Vec<Value>>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        prop_assert_eq!(canon(parallel), canon(reference));
    }

    /// Sampler fan-out bounds hold for arbitrary graphs and fan-out vectors.
    #[test]
    fn sampler_respects_fanouts(
        (n, edges) in arb_graph(30, 200),
        fanouts in proptest::collection::vec(1usize..6, 1..3),
        nseeds in 1usize..5,
    ) {
        let data = PropertyGraphData::from_edge_list(n, &edges);
        let store = VineyardGraph::build(&data).unwrap();
        let sampler = gs_learn::Sampler::new(
            &store,
            gs_graph::LabelId(0),
            gs_graph::LabelId(0),
            fanouts.clone(),
            4,
        );
        let seeds: Vec<VId> = (0..nseeds.min(n) as u64).map(VId).collect();
        let batch = sampler.sample(&seeds, 11);
        prop_assert_eq!(batch.layers.len(), fanouts.len() + 1);
        for (k, fo) in fanouts.iter().enumerate() {
            // each frontier vertex contributes at most `fo` samples
            prop_assert!(batch.layers[k + 1].len() <= batch.layers[k].len() * fo);
            for (i, nbrs) in batch.hops[k].iter().enumerate() {
                prop_assert!(nbrs.len() <= *fo, "hop {k} vertex {i}");
            }
        }
    }
}
