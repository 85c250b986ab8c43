//! Edge-case integration tests for the execution engines and front-ends —
//! conditions the happy-path unit tests don't reach.

use graphscope_flex::prelude::*;
use gs_ir::physical::lower_naive;
use gs_ir::physical::PhysicalPlan;
use gs_ir::record::Record;
use std::collections::HashMap;
use std::sync::Arc;

/// All execution in this file goes through the unified [`QueryEngine`]
/// interface, via the prepared-handle path (prepare once, execute many).
fn run(engine: &dyn QueryEngine, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Vec<Record> {
    engine.prepare(plan).unwrap().execute(graph).unwrap()
}

fn tiny_store() -> (VineyardGraph, GraphSchema) {
    let mut schema = GraphSchema::new();
    let v = schema.add_vertex_label("V", &[("x", ValueType::Int)]);
    schema.add_edge_label("E", v, v, &[("w", ValueType::Float)]);
    let mut data = PropertyGraphData::new(schema.clone());
    for i in 0..6u64 {
        data.add_vertex(v, i, vec![Value::Int(i as i64)]);
    }
    let e = schema.edge_label_by_name("E").unwrap().id;
    for (s, d, w) in [(0u64, 1u64, 1.0f64), (1, 2, 2.0), (2, 0, 3.0), (3, 4, 4.0)] {
        data.add_edge(e, s, d, vec![Value::Float(w)]);
    }
    (VineyardGraph::build(&data).unwrap(), schema)
}

#[test]
fn empty_result_queries_are_fine_everywhere() {
    let (store, schema) = tiny_store();
    let q = "MATCH (a:V)-[:E]->(b:V) WHERE a.x > 999 RETURN a, b";
    let plan = parse_cypher(q, &schema, &HashMap::new()).unwrap();
    let phys = lower_naive(&plan).unwrap();
    assert!(run(&ReferenceEngine::default(), &phys, &store).is_empty());
    for workers in [1, 4] {
        assert!(run(&GaiaEngine::new(workers), &phys, &store).is_empty());
    }
    assert!(run(&QueryService::new(2), &phys, &store).is_empty());
}

#[test]
fn aggregates_over_empty_input_yield_identities() {
    let (store, schema) = tiny_store();
    let q = "MATCH (a:V) WHERE a.x > 999 RETURN COUNT(*) AS c, SUM(a.x) AS s";
    let plan = parse_cypher(q, &schema, &HashMap::new()).unwrap();
    let phys = lower_naive(&plan).unwrap();
    let rows = run(&GaiaEngine::new(3), &phys, &store);
    assert_eq!(rows, vec![vec![Value::Int(0), Value::Int(0)]]);
}

#[test]
fn order_limit_zero_and_huge() {
    let (store, schema) = tiny_store();
    for (limit, expect) in [(0usize, 0usize), (1000, 6)] {
        let q = format!("MATCH (a:V) RETURN a ORDER BY a.x ASC LIMIT {limit}");
        let plan = parse_cypher(&q, &schema, &HashMap::new()).unwrap();
        let rows = run(&GaiaEngine::new(2), &lower_naive(&plan).unwrap(), &store);
        assert_eq!(rows.len(), expect);
    }
}

#[test]
fn self_loops_and_parallel_edges_in_patterns() {
    let mut schema = GraphSchema::new();
    let v = schema.add_vertex_label("V", &[]);
    let e = schema.add_edge_label("E", v, v, &[]);
    let mut data = PropertyGraphData::new(schema.clone());
    data.add_vertex(v, 0, vec![]);
    data.add_vertex(v, 1, vec![]);
    data.add_edge(e, 0, 0, vec![]); // self loop
    data.add_edge(e, 0, 1, vec![]);
    data.add_edge(e, 0, 1, vec![]); // parallel edge
    let store = VineyardGraph::build(&data).unwrap();
    let q = "MATCH (a:V)-[:E]->(b:V) RETURN a, b";
    let plan = parse_cypher(q, &schema, &HashMap::new()).unwrap();
    let rows = run(
        &ReferenceEngine::default(),
        &lower_naive(&plan).unwrap(),
        &store,
    );
    // homomorphic matching: self loop binds a=b; parallel edges double-count
    assert_eq!(rows.len(), 3);
}

#[test]
fn cypher_parser_rejects_malformed_inputs() {
    let (_, schema) = tiny_store();
    for bad in [
        "MATCH (a:V RETURN a",                // unclosed node
        "MATCH (a:V)-[:E]->(b:V) RETURN",     // empty items
        "MATCH (a:V) WHERE RETURN a",         // empty predicate
        "MATCH (a:V) RETURN a ORDER LIMIT 2", // ORDER without BY
        "MATCH (a:V)<-[:E]->(b:V) RETURN a",  // both arrows
        "RETURN 1 +",                         // dangling operator
    ] {
        assert!(
            parse_cypher(bad, &schema, &HashMap::new()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn gremlin_parser_rejects_malformed_inputs() {
    let (_, schema) = tiny_store();
    for bad in [
        "g.V().hasLabel('V').out()",     // out without label
        "g.V().hasLabel('V').limit(-1)", // negative limit
        "g.V().hasLabel('V')..count()",  // double dot
        "g.E()",                         // unsupported source
    ] {
        assert!(parse_gremlin(bad, &schema).is_err(), "accepted: {bad}");
    }
}

#[test]
fn session_call_error_is_isolated_to_its_result() {
    // a procedure returning an error must not poison the server
    let (store, _) = tiny_store();
    let server = Arc::new(Server::new(
        Box::new(QueryService::new(1)),
        Box::new(StaticServeStore::new(Arc::new(store))),
        ServeConfig::default(),
    ));
    server.register(
        "fails",
        Arc::new(|_| Err(gs_graph::GraphError::Query("intentional".into()))),
    );
    server.register("ok", Arc::new(|_| Ok(vec![vec![Value::Int(1)]])));
    let session = server.session("t", Priority::Normal);
    assert!(session.call("fails", &HashMap::new()).is_err());
    // the session keeps serving
    assert_eq!(
        session.call("ok", &HashMap::new()).unwrap()[0][0],
        Value::Int(1)
    );
    assert_eq!(server.admission().inflight(), 0);
}

#[test]
fn gart_snapshot_of_empty_store_is_usable() {
    let schema = GraphSchema::homogeneous(false);
    let store = GartStore::new(schema);
    let snap = store.snapshot();
    assert_eq!(snap.vertex_count(gs_graph::LabelId(0)), 0);
    assert_eq!(snap.edge_count(gs_graph::LabelId(0)), 0);
    assert_eq!(
        snap.adjacent(
            VId(0),
            gs_graph::LabelId(0),
            gs_graph::LabelId(0),
            Direction::Out
        )
        .count(),
        0
    );
}

#[test]
fn graphar_store_out_of_range_access_is_safe() {
    let data = PropertyGraphData::from_edge_list(10, &[(0, 1), (1, 2)]);
    let dir = std::env::temp_dir().join(format!("gs-edge-graphar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    gs_graphar::write_archive(&dir, &data).unwrap();
    let store = gs_graphar::GraphArStore::open(&dir).unwrap();
    let l = gs_graph::LabelId(0);
    // far past the vertex domain
    assert_eq!(store.adjacent(VId(10_000), l, l, Direction::Out).count(), 0);
    assert!(store.external_id(l, VId(10_000)).is_none());
    assert!(store.internal_id(l, 999_999).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gaia_second_scan_is_a_cross_product() {
    let (store, schema) = tiny_store();
    let q = "MATCH (a:V), (b:V) RETURN a, b";
    // disconnected pattern: parse rejects it? (our Pattern requires
    // connectivity) — verify the error is clean rather than a panic
    match parse_cypher(q, &schema, &HashMap::new()) {
        Ok(plan) => {
            // if accepted, execution must produce the full cross product
            let rows = run(
                &ReferenceEngine::default(),
                &lower_naive(&plan).unwrap(),
                &store,
            );
            assert_eq!(rows.len(), 36);
        }
        Err(e) => {
            assert!(e.to_string().contains("disconnected"), "{e}");
        }
    }
}

#[test]
fn snb_generation_scales_monotonically() {
    use gs_datagen::snb::{generate, SnbConfig};
    let small = generate(&SnbConfig::lite(100));
    let large = generate(&SnbConfig::lite(400));
    assert!(large.data.vertex_count() > small.data.vertex_count());
    assert!(large.data.edge_count() > small.data.edge_count());
}
