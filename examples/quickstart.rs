//! Quickstart: assemble a GraphScope Flex stack brick by brick.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole LEGO box once: compose a deployment with flexbuild,
//! load a property graph into Vineyard, query it in Cypher *and* Gremlin
//! through the shared IR (optimizer + Gaia engine), then run an analytical
//! algorithm on GRAPE over the same data.

use graphscope_flex::prelude::*;
use std::collections::HashMap;

fn main() -> gs_graph::Result<()> {
    // ---- 1. pick your bricks (paper §3: flexbuild) -------------------
    let deployment = FlexBuild::compose(
        "quickstart",
        &[
            Component::Cypher,
            Component::Gremlin,
            Component::GraphIr,
            Component::Optimizer,
            Component::OlapCodegen,
            Component::Gaia,
            Component::Grin,
            Component::Vineyard,
        ],
        DeployTarget::SingleMachineBinary,
    )
    .expect("component selection composes");
    println!(
        "deployment `{}` with {} bricks\n",
        deployment.name,
        deployment.components.len()
    );

    // ---- 2. define a labeled property graph and load Vineyard --------
    let mut schema = GraphSchema::new();
    let person = schema.add_vertex_label(
        "Person",
        &[("name", ValueType::Str), ("age", ValueType::Int)],
    );
    let item = schema.add_vertex_label("Item", &[("price", ValueType::Float)]);
    schema.add_edge_label("KNOWS", person, person, &[]);
    let buy = schema.add_edge_label("BUY", person, item, &[("date", ValueType::Date)]);

    let mut data = PropertyGraphData::new(schema.clone());
    for (id, name, age) in [(1u64, "ann", 34i64), (2, "bob", 28), (3, "cho", 45)] {
        data.add_vertex(person, id, vec![Value::Str(name.into()), Value::Int(age)]);
    }
    for (id, price) in [(10u64, 9.99f64), (11, 199.0), (12, 3.5)] {
        data.add_vertex(item, id, vec![Value::Float(price)]);
    }
    let knows = schema.edge_label_by_name("KNOWS").unwrap().id;
    data.add_edge(knows, 1, 2, vec![]);
    data.add_edge(knows, 2, 1, vec![]);
    data.add_edge(knows, 2, 3, vec![]);
    data.add_edge(knows, 3, 2, vec![]);
    data.add_edge(buy, 2, 10, vec![Value::Date(15000)]);
    data.add_edge(buy, 2, 11, vec![Value::Date(15001)]);
    data.add_edge(buy, 3, 12, vec![Value::Date(15002)]);

    let store = VineyardGraph::build(&data)?;
    println!(
        "Vineyard holds {} persons, {} items",
        store.vertex_count(person),
        store.vertex_count(item)
    );

    // ---- 3. the same question in Cypher and Gremlin ------------------
    // "what do my friends buy, and for how much?"
    let cypher = "MATCH (a:Person {name: 'ann'})-[:KNOWS]-(f:Person)-[:BUY]->(i:Item) \
                  RETURN f.name AS friend, i.price AS price ORDER BY price DESC LIMIT 10";
    let plan_c = parse_cypher(cypher, &schema, &HashMap::new())?;

    let gremlin =
        "g.V().hasLabel('Person').has('name', 'ann').out('KNOWS').out('BUY').values('price')";
    let plan_g = parse_gremlin(gremlin, &schema)?;

    // one optimizer + one engine serve both front-ends
    let optimizer = Optimizer::new(CostStats::build(&store, 100));
    let gaia = GaiaEngine::new(2);

    let rows = gaia.execute(&optimizer.optimize(&plan_c)?, &store)?;
    println!("\nCypher results (friend, price):");
    for r in &rows {
        println!("  {} — {}", r[0], r[1]);
    }

    let rows = gaia.execute(&optimizer.optimize(&plan_g)?, &store)?;
    println!("\nGremlin results (price only):");
    for r in &rows {
        println!("  {}", r[0]);
    }

    // ---- 4. analytics on GRAPE over the same relationships -----------
    let knows_batch = &data.edges[knows.index()];
    let edges: Vec<(VId, VId)> = knows_batch
        .endpoints
        .iter()
        .map(|&(s, d)| (VId(s - 1), VId(d - 1))) // persons are ids 1..=3
        .collect();
    let engine = GrapeEngine::from_edges(3, &edges, 2);
    let ranks = grape_algorithms::pagerank(&engine, 0.85, 20);
    println!("\nPageRank over KNOWS:");
    for (i, r) in ranks.iter().enumerate() {
        println!("  person {} → {:.4}", i + 1, r);
    }
    Ok(())
}
