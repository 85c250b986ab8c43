//! Cross-crate integration tests: whole-stack paths assembled from bricks,
//! mirroring the deployments of paper §3/§8.

use graphscope_flex::prelude::*;
use gs_flex::snb::{bi_plan, BiParams};
use gs_ir::physical::lower_naive;
use std::collections::HashMap;
use std::sync::Arc;

/// Cypher → IR → RBO/CBO over Vineyard, executed through every
/// [`QueryEngine`] (§3's Workload-5 stack): the reference executor defines
/// the semantics, Gaia and HiActor must agree through the same interface.
#[test]
fn cypher_to_gaia_on_vineyard() {
    let social = generate_snb(&SnbConfig::lite(250));
    let store = VineyardGraph::build(&social.data).unwrap();
    let schema = social.data.schema.clone();
    let q = "MATCH (a:Person)-[:KNOWS]-(b:Person)-[:KNOWS]-(c:Person) \
             WHERE a.browserUsed = 'Firefox' \
             RETURN b, COUNT(c) AS reach ORDER BY reach DESC, b LIMIT 10";
    let optimizer = Optimizer::new(CostStats::build(&store, 200));
    let compiled = Frontend::Cypher
        .compile_with(q, &schema, &HashMap::new(), &optimizer)
        .unwrap();
    let canon = |mut v: Vec<Vec<Value>>| {
        v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        v
    };
    let reference = ReferenceEngine::default();
    let slow = canon(
        QueryEngine::execute(&reference, &lower_naive(&compiled.logical).unwrap(), &store).unwrap(),
    );
    let gaia = GaiaEngine::new(3);
    let hiactor = QueryService::new(2);
    let engines: [&dyn QueryEngine; 3] = [&reference, &gaia, &hiactor];
    for engine in engines {
        // prepare once, execute twice: the handle must agree with the
        // reference on every call
        let prepared = engine.prepare(&compiled.physical).unwrap();
        for _ in 0..2 {
            let fast = prepared.execute(&store).unwrap();
            assert_eq!(canon(fast), slow, "engine {}", engine.name());
        }
    }
}

/// The paper's Figure 5 claim: the same query in Gremlin and Cypher
/// compiles through one IR and produces identical results.
#[test]
fn figure5_gremlin_cypher_equivalence() {
    let mut schema = GraphSchema::new();
    let buyer = schema.add_vertex_label(
        "Buyer",
        &[("username", ValueType::Str), ("credits", ValueType::Int)],
    );
    let item = schema.add_vertex_label("Item", &[("price", ValueType::Float)]);
    schema.add_edge_label("knows", buyer, buyer, &[]);
    schema.add_edge_label("buys", buyer, item, &[]);
    let mut data = PropertyGraphData::new(schema.clone());
    for (id, name) in [(1u64, "A1"), (2, "B2"), (3, "C3")] {
        data.add_vertex(buyer, id, vec![Value::Str(name.into()), Value::Int(10)]);
    }
    for (id, price) in [(7u64, 10.0), (8, 20.0)] {
        data.add_vertex(item, id, vec![Value::Float(price)]);
    }
    let knows = schema.edge_label_by_name("knows").unwrap().id;
    let buys = schema.edge_label_by_name("buys").unwrap().id;
    data.add_edge(knows, 1, 2, vec![]);
    data.add_edge(knows, 2, 1, vec![]);
    data.add_edge(buys, 2, 7, vec![]);
    data.add_edge(buys, 2, 8, vec![]);
    let store = VineyardGraph::build(&data).unwrap();

    // "finding the purchased items' prices of friends" (paper Fig. 5)
    let gremlin =
        "g.V().hasLabel('Buyer').has('username', 'A1').out('knows').out('buys').values('price')";
    let cypher = "MATCH (a:Buyer {username: 'A1'})-[:knows]-(b:Buyer)-[:buys]->(c:Item) \
                  RETURN c.price AS price";
    let cg = Frontend::Gremlin.compile(gremlin, &schema).unwrap();
    let cc = Frontend::Cypher.compile(cypher, &schema).unwrap();
    assert_ne!(cg.key, cc.key, "statement keys must not alias");
    let engine: &dyn QueryEngine = &ReferenceEngine::default();
    let rg = engine
        .prepare(&cg.physical)
        .unwrap()
        .execute(&store)
        .unwrap();
    let rc = engine
        .prepare(&cc.physical)
        .unwrap()
        .execute(&store)
        .unwrap();
    let mut prices_g: Vec<String> = rg.iter().map(|r| r[0].to_string()).collect();
    let mut prices_c: Vec<String> = rc.iter().map(|r| r[0].to_string()).collect();
    prices_g.sort();
    prices_c.sort();
    assert_eq!(prices_g, prices_c);
    assert_eq!(prices_g, vec!["10", "20"]);
}

/// OLTP on a dynamic graph: a stored procedure runs a HiActor-prepared
/// Gremlin plan on GART through `Session::call` while a writer mutates —
/// reads stay on their pinned snapshot.
#[test]
fn hiactor_on_gart_with_concurrent_updates() {
    let mut schema = GraphSchema::new();
    let v = schema.add_vertex_label("V", &[("x", ValueType::Int)]);
    schema.add_edge_label("E", v, v, &[]);
    let store = GartStore::new(schema.clone());
    for i in 0..50u64 {
        store
            .add_vertex(gs_graph::LabelId(0), i, vec![Value::Int(i as i64)])
            .unwrap();
    }
    for i in 0..49u64 {
        store
            .add_edge(gs_graph::LabelId(0), i, i + 1, vec![])
            .unwrap();
    }
    store.commit();
    let server = Arc::new(Server::new(
        Box::new(QueryService::new(1)),
        Box::new(GartServeStore::new(Arc::clone(&store))),
        ServeConfig::default(),
    ));
    let snap = store.snapshot();
    let compiled = Frontend::Gremlin
        .compile("g.V().hasLabel('V').out('E').count()", &schema)
        .unwrap();
    let prepared = QueryService::new(1).prepare(&compiled.physical).unwrap();
    server.register("count_edges", Arc::new(move |_| prepared.execute(&snap)));
    let session = server.session("oltp", Priority::High);
    // concurrent writer adds edges, but the procedure's snapshot is pinned
    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for i in 0..48u64 {
                store
                    .add_edge(gs_graph::LabelId(0), i, i + 2, vec![])
                    .unwrap();
                store.commit();
            }
        })
    };
    for _ in 0..20 {
        let rows = session.call("count_edges", &HashMap::new()).unwrap();
        assert_eq!(rows[0][0], Value::Int(49), "pinned snapshot must not move");
    }
    writer.join().unwrap();
    assert_eq!(store.snapshot().edge_count(gs_graph::LabelId(0)), 97);
}

/// GraphAr round trip: dump a generated SNB graph, reload, and verify the
/// reloaded store answers a BI query identically.
#[test]
fn graphar_dump_reload_equivalence() {
    let social = generate_snb(&SnbConfig::lite(150));
    let dir = std::env::temp_dir().join(format!("gs-it-graphar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    gs_graphar::write_archive(&dir, &social.data).unwrap();
    let reloaded = gs_graphar::read_archive(&dir, 2).unwrap();
    let store_a = VineyardGraph::build(&social.data).unwrap();
    let store_b = VineyardGraph::build(&reloaded).unwrap();
    let plan = bi_plan(2, &social.data.schema, &social.labels, &BiParams::default()).unwrap();
    let phys = Optimizer::rbo_only().optimize(&plan).unwrap();
    let engine: &dyn QueryEngine = &ReferenceEngine::default();
    let a = engine.execute(&phys, &store_a).unwrap();
    let b = engine.execute(&phys, &store_b).unwrap();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Analytical agreement across every engine on one dataset: GRAPE CPU,
/// GRAPE GPU-sim, PowerGraph, Gemini, Gunrock, Groute (PageRank + BFS).
#[test]
fn all_analytics_engines_agree() {
    use gs_baselines::{GeminiEngine, GrouteEngine, GunrockEngine, PowerGraphEngine};
    use gs_grape::{algorithms, bfs_gpu, pagerank_gpu, GpuCluster};
    let el = gs_datagen::catalog::Dataset::by_abbr("FB0")
        .unwrap()
        .edges(0.02);
    let n = el.vertex_count();
    let edges = el.edges().to_vec();
    let csr = gs_graph::Csr::from_edges(n, &edges);
    let iters = 8;

    let grape = GrapeEngine::from_edges(n, &edges, 3);
    let pr_ref = algorithms::pagerank(&grape, 0.85, iters);
    let pr_pg = PowerGraphEngine::new(n, &edges, 3).pagerank(0.85, iters);
    let pr_gm = GeminiEngine::new(n, &edges, 3).pagerank(0.85, iters);
    let pr_gk = GunrockEngine::new(2, 2).pagerank(n, &csr, 0.85, iters);
    let pr_gpu = pagerank_gpu(&GpuCluster::new(2, 2), n, &csr, 0.85, iters);
    for i in 0..n {
        for other in [&pr_pg, &pr_gm, &pr_gk, &pr_gpu] {
            assert!((pr_ref[i] - other[i]).abs() < 1e-9, "vertex {i}");
        }
    }

    let src = VId(0);
    let bfs_ref = algorithms::bfs(&grape, src);
    assert_eq!(bfs_ref, PowerGraphEngine::new(n, &edges, 3).bfs(src));
    assert_eq!(bfs_ref, GeminiEngine::new(n, &edges, 3).bfs(src));
    assert_eq!(bfs_ref, GunrockEngine::new(2, 2).bfs(n, &csr, src));
    assert_eq!(bfs_ref, GrouteEngine::new(2, 2).bfs(n, &csr, src));
    assert_eq!(bfs_ref, bfs_gpu(&GpuCluster::new(2, 2), n, &csr, src));
}

/// flexbuild presets drive real deployments: the fraud preset's component
/// set actually matches what FraudApp uses.
#[test]
fn flexbuild_presets_compose_and_apps_run() {
    let d = FlexBuild::fraud_oltp_preset().unwrap();
    assert!(d.components.contains(&Component::HiActor));
    assert!(d.components.contains(&Component::Gart));
    let w = gs_datagen::apps::fraud_graph(200, 80, 800, 20, 3);
    let app = gs_flex::FraudApp::new(&w, gs_flex::FraudConfig::default()).unwrap();
    for &(a, it, dt) in w.order_stream.iter().take(20) {
        app.process_order(a, it, dt).unwrap();
    }
}
