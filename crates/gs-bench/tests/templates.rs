//! Inline vs normalized statements: every Cypher text runs once through
//! the literal path (`Frontend::compile_with` + the reference engine) and
//! once through `gs_serve::Session::query`, which serves it from its
//! template's plan with the text's values bound. The rows must agree as
//! multisets on a cold server (the text compiles its own template) and on
//! a warm one (the plan may come from another statement of the template,
//! the rows from the result cache).

use std::collections::HashMap;
use std::sync::Arc;

use gs_bench::corpus::{
    fraud_data, fraud_params, quickstart_data, FRAUD_CYPHER, QUICKSTART_CYPHER,
};
use gs_bench::storm::template_text;
use gs_gart::GartStore;
use gs_graph::{PropertyGraphData, Value};
use gs_ir::{physical::lower_naive, QueryEngine, Record, ReferenceEngine, VerifyLevel};
use gs_lang::{parse_cypher, statement_key, Frontend};
use gs_optimizer::Optimizer;
use gs_serve::{GartServeStore, Priority, ServeConfig, Server};

fn sorted(rows: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

fn server(store: &Arc<GartStore>) -> Arc<Server> {
    Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(Arc::clone(store))),
        ServeConfig::default(),
    ))
}

/// Checks every text of `texts` over `data`; returns the literal path's
/// row counts so callers can see the texts select something.
fn check(
    data: &PropertyGraphData,
    texts: &[String],
    params: &HashMap<String, Value>,
) -> Vec<usize> {
    let store = GartStore::from_data(data).expect("data loads");
    let snapshot = store.snapshot();
    let expected: Vec<Vec<String>> = texts
        .iter()
        .map(|text| {
            let compiled = Frontend::Cypher
                .compile_with(text, store.schema(), params, &Optimizer::rbo_only())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            // the literal path leaves no slot unbound
            assert!(compiled.physical.bind(&[]).is_ok(), "{text}");
            let logical = parse_cypher(text, store.schema(), params).unwrap();
            assert!(lower_naive(&logical).unwrap().bind(&[]).is_ok(), "{text}");
            let rows = ReferenceEngine::default()
                .execute(&compiled.physical, &snapshot)
                .unwrap();
            sorted(&rows)
        })
        .collect();

    for (text, want) in texts.iter().zip(&expected) {
        let cold = server(&store);
        let rows = cold
            .session("cold", Priority::Normal)
            .query(Frontend::Cypher, text, params)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&sorted(&rows), want, "cold: {text}");
    }

    let warm = server(&store);
    let session = warm.session("warm", Priority::Normal);
    for pass in 0..2 {
        for (text, want) in texts.iter().zip(&expected).rev() {
            let rows = session.query(Frontend::Cypher, text, params).unwrap();
            assert_eq!(&sorted(&rows), want, "warm pass {pass}: {text}");
        }
    }
    expected.iter().map(Vec::len).collect()
}

#[test]
fn corpus_and_storm_texts_agree_inline_and_normalized() {
    let fraud = fraud_data();
    let mut texts = vec![FRAUD_CYPHER.to_string()];
    for template in 0..3 {
        for account in [0, 3, 7, 19] {
            texts.push(template_text(template, account));
        }
    }
    let counts = check(&fraud.data, &texts, &fraud_params());
    assert!(counts.iter().any(|&n| n > 0));

    let counts = check(
        &quickstart_data(),
        &[QUICKSTART_CYPHER.to_string()],
        &HashMap::new(),
    );
    assert!(counts[0] > 0);
}

#[test]
fn literal_edge_cases_agree_inline_and_normalized() {
    let params = HashMap::from([
        (
            "ages".to_string(),
            Value::List(vec![Value::Int(28), Value::Int(45)]),
        ),
        ("name".to_string(), Value::Str("bob".into())),
        ("nothing".to_string(), Value::Null),
    ]);
    let texts: Vec<String> = [
        // strings with digits, quotes and escapes
        "MATCH (a:Person) WHERE a.name <> 'o\\'k 42' RETURN a.name AS n",
        "MATCH (a:Person) WHERE a.name = \"ann\" RETURN a.age AS age",
        "MATCH (a:Person) WHERE a.name = 'b\\\\ob' OR a.name = 'cho' RETURN a",
        "MATCH (a:Person {name: 'cho'}) RETURN a.age AS age",
        // negative ints and floats, unary and binary minus
        "MATCH (a:Person) WHERE a.age > -5 RETURN a.age - -1 AS next",
        "MATCH (a:Person) WHERE -40 < 0 - a.age RETURN a.name AS n",
        "MATCH (i:Item) WHERE i.price > - 1.5 AND i.price - 4 > 0.5 RETURN i.price AS p",
        // true, false and null
        "MATCH (a:Person) WHERE true AND a.age > 30 RETURN a.name AS n",
        "MATCH (a:Person) WHERE a.age > 30 OR FALSE RETURN a.name AS n, null AS z",
        "MATCH (a:Person) WHERE a.name <> null RETURN a",
        // list literals and $name
        "MATCH (a:Person) WHERE a.age IN [28, 34] RETURN a.name AS n",
        "MATCH (a:Person) WHERE a.name IN ['ann', 'cho'] RETURN a.age AS age",
        "MATCH (a:Person) WHERE a.age IN [] RETURN a",
        "MATCH (a:Person) WHERE a.age IN 34 RETURN a",
        "MATCH (a:Person) WHERE a.age IN $ages RETURN a.name AS n",
        "MATCH (a:Person {name: $name}) RETURN a.age AS age",
        "MATCH (a:Person) WHERE a.name = $nothing RETURN a",
        // literals inside comments
        "MATCH (a:Person) // a.age > 40\n WHERE a.age > 30 /* 99 */ RETURN a.name AS n",
        "MATCH (a:Person) /* {name: 'ann'} */ WHERE a.age < 40 RETURN a.name AS n",
        // identifiers containing digits
        "MATCH (p1:Person)-[:KNOWS]-(p2:Person) WHERE p2.age > 30 RETURN p1.name AS n1, p2.name AS n2",
        "MATCH (p1:Person)-[b1:BUY]->(i1:Item) WHERE i1.price > 5.0 RETURN p1, COUNT(i1) AS c1",
        // LIMIT n and ORDER BY ... LIMIT n
        "MATCH (a:Person) RETURN a.name AS n ORDER BY n LIMIT 2",
        "MATCH (a:Person) RETURN a.name AS n ORDER BY n LIMIT 1",
        "MATCH (a:Person) RETURN a LIMIT 1",
        "MATCH (a:Person) RETURN a LIMIT 3",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();
    let counts = check(&quickstart_data(), &texts, &params);
    assert!(counts.iter().filter(|&&n| n > 0).count() > texts.len() / 2);

    let key = |t: &str| statement_key(Frontend::Cypher, t, &params);
    // only LIMIT differs: different plans, so different templates
    assert_ne!(key(&texts[21]).template, key(&texts[22]).template);
    assert_ne!(key(&texts[23]).template, key(&texts[24]).template);
    // only a value differs: one template
    assert_eq!(
        key("MATCH (a:Person) WHERE a.age > 30 RETURN a").template,
        key("MATCH (a:Person) WHERE a.age > -7 RETURN a").template
    );
    // comments and identifiers are template text
    assert_ne!(
        key("MATCH (a:Person) /* 1 */ RETURN a").template,
        key("MATCH (a:Person) /* 2 */ RETURN a").template
    );
    assert_ne!(
        key("MATCH (p1:Person) RETURN p1").template,
        key("MATCH (p2:Person) RETURN p2").template
    );
}
