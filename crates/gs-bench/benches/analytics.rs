//! Criterion microbenchmarks for the analytical engines (Fig. 7h–7k
//! companions): PageRank and BFS across GRAPE and the baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use gs_baselines::{GeminiEngine, GunrockEngine, PowerGraphEngine};
use gs_datagen::catalog::Dataset;
use gs_grape::{algorithms, pagerank_gpu, GpuCluster, GrapeEngine};
use gs_graph::{Csr, VId};

fn pagerank_engines(c: &mut Criterion) {
    let el = Dataset::by_abbr("FB0").unwrap().edges(0.05);
    let n = el.vertex_count();
    let edges = el.edges().to_vec();
    let csr = Csr::from_edges(n, &edges);
    let iters = 5;
    let k = 2;

    let mut group = c.benchmark_group("pagerank");
    let grape = GrapeEngine::from_edges(n, &edges, k);
    group.bench_function("grape", |b| {
        b.iter(|| algorithms::pagerank(&grape, 0.85, iters))
    });
    let gemini = GeminiEngine::new(n, &edges, k);
    group.bench_function("gemini", |b| b.iter(|| gemini.pagerank(0.85, iters)));
    let pg = PowerGraphEngine::new(n, &edges, k);
    group.bench_function("powergraph", |b| b.iter(|| pg.pagerank(0.85, iters)));
    let cluster = GpuCluster::new(2, 2);
    group.bench_function("grape_gpu_sim", |b| {
        b.iter(|| pagerank_gpu(&cluster, n, &csr, 0.85, iters))
    });
    let gunrock = GunrockEngine::new(2, 2);
    group.bench_function("gunrock_sim", |b| {
        b.iter(|| gunrock.pagerank(n, &csr, 0.85, iters))
    });
    group.finish();
}

fn bfs_engines(c: &mut Criterion) {
    let el = Dataset::by_abbr("G500").unwrap().edges(0.05);
    let n = el.vertex_count();
    let edges = el.edges().to_vec();
    let k = 2;
    let mut group = c.benchmark_group("bfs");
    let grape = GrapeEngine::from_edges(n, &edges, k);
    group.bench_function("grape", |b| b.iter(|| algorithms::bfs(&grape, VId(0))));
    let gemini = GeminiEngine::new(n, &edges, k);
    group.bench_function("gemini", |b| b.iter(|| gemini.bfs(VId(0))));
    group.finish();
}

fn message_manager(c: &mut Criterion) {
    use gs_grape::{MessageBlock, OutBuffers};
    let mut group = c.benchmark_group("message_manager");
    group.bench_function("aggregate_100k_f64", |b| {
        b.iter(|| {
            let mut out = OutBuffers::new(4);
            for i in 0..100_000u32 {
                out.send((i % 4) as usize, i, 0.5f64);
            }
            out.take()
        })
    });
    let mut out = OutBuffers::new(1);
    for i in 0..100_000u32 {
        out.send(0, i, 0.5f64);
    }
    let blocks: Vec<MessageBlock> = out.take();
    group.bench_function("decode_100k_f64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            blocks[0].for_each::<f64>(|_, x| acc += x);
            acc
        })
    });
    group.finish();
}

fn bench_config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = bench_config();
    targets = pagerank_engines, bfs_engines, message_manager
}
criterion_main!(benches);
