//! The built-in query corpus shared by the `irlint` and `costcheck` gates.
//!
//! It covers all three places queries come from in this repo: the 20
//! LDBC SNB BI plans (built directly with [`PlanBuilder`]), the §8
//! application queries that go through the frontends (the fraud Cypher
//! check, the cyber Gremlin sweep), and the quickstart example's
//! Cypher/Gremlin pair. A plan that fails to build or parse stays in the
//! corpus as an `Err`, so every gate reports it instead of dropping it.
//!
//! [`PlanBuilder`]: gs_ir::PlanBuilder

use gs_graph::schema::GraphSchema;
use gs_graph::{PropertyGraphData, Value};
use gs_ir::LogicalPlan;
use std::collections::HashMap;

/// One dataset and the named queries built over it.
pub type CorpusSet = (
    PropertyGraphData,
    Vec<(String, gs_graph::Result<LogicalPlan>)>,
);

/// The §8 fraud check, over [`fraud_data`] with [`fraud_params`].
pub const FRAUD_CYPHER: &str = "MATCH (v:Account {id: 0})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
     WHERE s.id IN $SEEDS AND b1.date - b2.date < 3 AND b2.date - b1.date < 3 \
     WITH v, COUNT(s) AS cnt1 \
     MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
     WHERE s2.id IN $SEEDS \
     WITH v, cnt1, COUNT(s2) AS cnt2 \
     WHERE 2 * cnt1 + 1 * cnt2 > 3 \
     RETURN v";

/// The quickstart example's Cypher query, over [`quickstart_data`].
pub const QUICKSTART_CYPHER: &str =
    "MATCH (a:Person {name: 'ann'})-[:KNOWS]-(f:Person)-[:BUY]->(i:Item) \
     RETURN f.name AS friend, i.price AS price ORDER BY price DESC LIMIT 10";

/// The fraud set's graph.
pub fn fraud_data() -> gs_datagen::apps::FraudWorkload {
    gs_datagen::apps::fraud_graph(20, 10, 40, 0, 7)
}

/// `$SEEDS` of [`FRAUD_CYPHER`].
pub fn fraud_params() -> HashMap<String, Value> {
    let seeds = Value::List(vec![Value::Int(1), Value::Int(2)]);
    HashMap::from([("SEEDS".to_string(), seeds)])
}

/// Builds the whole corpus; the quickstart set comes last.
pub fn corpus() -> Vec<CorpusSet> {
    // ---- LDBC SNB BI 1..=20 ------------------------------------------
    let snb = gs_datagen::snb::generate(&gs_datagen::snb::SnbConfig::lite(10));
    let params = gs_flex::snb::BiParams::default();
    let bi = (1..=gs_flex::snb::BI_COUNT)
        .map(|n| {
            let plan = gs_flex::snb::bi_plan(n, &snb.data.schema, &snb.labels, &params);
            (format!("BI{n}"), plan)
        })
        .collect();

    // ---- §8 fraud detection (Cypher frontend) ------------------------
    let fraud = fraud_data();
    let fraud_plan = gs_lang::parse_cypher(FRAUD_CYPHER, &fraud.data.schema, &fraud_params());

    // ---- §8 cyber monitoring (Gremlin frontend) ----------------------
    let cyber = gs_datagen::apps::cyber_graph(4, 1, 1);
    let cyber_q = "g.V().hasLabel('Host').out('RUNS').out('CONNECTS').dedup()";
    let cyber_plan = gs_lang::parse_gremlin(cyber_q, &cyber.data.schema);

    // ---- quickstart example (both frontends) -------------------------
    let quickstart = quickstart_data();
    let schema = &quickstart.schema;
    let gremlin =
        "g.V().hasLabel('Person').has('name', 'ann').out('KNOWS').out('BUY').values('price')";
    let cypher_plan = gs_lang::parse_cypher(QUICKSTART_CYPHER, schema, &HashMap::new());
    let gremlin_plan = gs_lang::parse_gremlin(gremlin, schema);

    vec![
        (snb.data, bi),
        (fraud.data, vec![("fraud-cypher".into(), fraud_plan)]),
        (cyber.data, vec![("cyber-gremlin".into(), cyber_plan)]),
        (
            quickstart,
            vec![
                ("quickstart-cypher".into(), cypher_plan),
                ("quickstart-gremlin".into(), gremlin_plan),
            ],
        ),
    ]
}

/// The graph from `examples/quickstart.rs`, rebuilt so its queries can be
/// checked without running the example.
pub fn quickstart_data() -> PropertyGraphData {
    use gs_graph::value::ValueType;
    let mut schema = GraphSchema::new();
    let person = schema.add_vertex_label(
        "Person",
        &[("name", ValueType::Str), ("age", ValueType::Int)],
    );
    let item = schema.add_vertex_label("Item", &[("price", ValueType::Float)]);
    let knows = schema.add_edge_label("KNOWS", person, person, &[]);
    let buy = schema.add_edge_label("BUY", person, item, &[("date", ValueType::Date)]);
    let mut data = PropertyGraphData::new(schema);
    for (id, name, age) in [(1u64, "ann", 34i64), (2, "bob", 28), (3, "cho", 45)] {
        data.add_vertex(person, id, vec![Value::Str(name.into()), Value::Int(age)]);
    }
    for (id, price) in [(10u64, 9.99f64), (11, 199.0), (12, 3.5)] {
        data.add_vertex(item, id, vec![Value::Float(price)]);
    }
    data.add_edge(knows, 1, 2, vec![]);
    data.add_edge(knows, 2, 1, vec![]);
    data.add_edge(knows, 2, 3, vec![]);
    data.add_edge(knows, 3, 2, vec![]);
    data.add_edge(buy, 2, 10, vec![Value::Date(15000)]);
    data.add_edge(buy, 2, 11, vec![Value::Date(15001)]);
    data.add_edge(buy, 3, 12, vec![Value::Date(15002)]);
    data
}
