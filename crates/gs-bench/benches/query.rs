//! Criterion microbenchmarks for the interactive stack: parsing,
//! optimization, and execution (Fig. 7e/7f companions).

use criterion::{criterion_group, criterion_main, Criterion};
use gs_datagen::snb::{generate, SnbConfig};
use gs_flex::snb::interactive::{ic1, Params};
use gs_flex::snb::{bi_plan, BiParams, FlexBackend, TuBackend};
use gs_ir::cost::CostStats;
use gs_ir::exec::execute;
use gs_ir::physical::lower_naive;
use gs_lang::parse_cypher;
use gs_optimizer::Optimizer;
use gs_vineyard::VineyardGraph;
use std::collections::HashMap;

fn compile_pipeline(c: &mut Criterion) {
    let g = generate(&SnbConfig::lite(200));
    let schema = g.data.schema.clone();
    let store = VineyardGraph::build(&g.data).unwrap();
    let catalog = CostStats::build(&store, 100);
    let q = "MATCH (a:Person)-[:KNOWS]-(b:Person)-[:KNOWS]-(c:Person) \
             WHERE a.firstName = 'Jan' RETURN b, COUNT(c) AS n ORDER BY n DESC LIMIT 5";
    let mut group = c.benchmark_group("compile");
    group.bench_function("parse_cypher", |b| {
        b.iter(|| parse_cypher(q, &schema, &HashMap::new()).unwrap())
    });
    let plan = parse_cypher(q, &schema, &HashMap::new()).unwrap();
    group.bench_function("optimize_full", |b| {
        let opt = Optimizer::new(catalog.clone());
        b.iter(|| opt.optimize(&plan).unwrap())
    });
    group.bench_function("lower_naive", |b| b.iter(|| lower_naive(&plan).unwrap()));
    group.finish();
}

fn bi_execution(c: &mut Criterion) {
    let g = generate(&SnbConfig::lite(300));
    let store = VineyardGraph::build(&g.data).unwrap();
    let schema = g.data.schema.clone();
    let optimizer = Optimizer::new(CostStats::build(&store, 100));
    let plan = bi_plan(2, &schema, &g.labels, &BiParams::default()).unwrap();
    let optimized = optimizer.optimize(&plan).unwrap();
    let naive = lower_naive(&plan).unwrap();
    let mut group = c.benchmark_group("bi2_tag_ranking");
    group.bench_function("optimized", |b| {
        b.iter(|| execute(&optimized, &store).unwrap())
    });
    group.bench_function("naive", |b| b.iter(|| execute(&naive, &store).unwrap()));
    group.finish();
}

fn interactive_backends(c: &mut Criterion) {
    let g = generate(&SnbConfig::lite(300));
    let flex = FlexBackend::load(&g).unwrap();
    let tu = TuBackend::load(&g).unwrap();
    let params = Params::example();
    let mut group = c.benchmark_group("ic1_transitive_friends");
    group.bench_function("flex_gart", |b| b.iter(|| ic1(&flex, &params)));
    group.bench_function("tugraph_like", |b| b.iter(|| ic1(&tu, &params)));
    group.finish();
}

fn bench_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = bench_config();
    targets = compile_pipeline, bi_execution, interactive_backends
}
criterion_main!(benches);
