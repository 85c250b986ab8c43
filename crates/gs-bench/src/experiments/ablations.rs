//! Ablations: isolate the design choices DESIGN.md credits for each
//! system's performance profile.

use crate::util::{fmt_duration, fmt_speedup, time_it, TablePrinter};
use gs_datagen::catalog::Dataset;
use gs_gart::GartStore;
use gs_grape::{IncrementalPageRank, OutBuffers};
use gs_graph::{LabelId, PropertyGraphData, VId, Value};
use gs_vineyard::VineyardGraph;

/// GART's version fence: scan a snapshot that dominates every region fence
/// (raw slice iteration) vs one that forces per-entry version checks.
pub fn ablation_fence(scale: f64) {
    println!("== Ablation: GART version-fence fast path ==");
    println!("claim: fenced regions scan without per-edge version checks\n");
    let el = Dataset::by_abbr("TW").unwrap().edges(0.05 * scale);
    let n = el.vertex_count();
    // ingest in many small commits so creation versions spread out
    let schema = gs_graph::GraphSchema::homogeneous(false);
    let store = GartStore::new(schema);
    for v in 0..n as u64 {
        store.add_vertex(LabelId(0), v, vec![]).unwrap();
    }
    store.commit();
    for chunk in el.edges().chunks(1024) {
        let batch: Vec<(u64, u64, Vec<Value>)> =
            chunk.iter().map(|&(s, d)| (s.0, d.0, vec![])).collect();
        store.add_edges(LabelId(0), &batch).unwrap();
        store.commit();
    }
    let latest = store.committed_version();
    let mid = latest / 2; // forces per-entry checks on ~half the regions
    let scan = |version| {
        let mut acc = 0u64;
        store.scan_edges(LabelId(0), version, &mut |_, d, _| {
            acc = acc.wrapping_add(d.0);
        });
        acc
    };
    let (t_fenced, _) = time_it(5, || scan(latest));
    let (t_checked, _) = time_it(5, || scan(mid));
    let mut t = TablePrinter::new(&["snapshot", "scan time", "relative"]);
    t.row(vec![
        "latest (all fences pass)".into(),
        fmt_duration(t_fenced),
        "1.00×".into(),
    ]);
    t.row(vec![
        "historical (per-entry checks)".into(),
        fmt_duration(t_checked),
        format!(
            "{:.2}× slower",
            t_checked.as_secs_f64() / t_fenced.as_secs_f64()
        ),
    ]);
    t.print();
}

/// GRAPE's message manager: aggregated delta-varint buffers vs plain
/// `(u64, f64)` tuple vectors (what the Gemini replica ships) vs per-message
/// boxed channel sends (what the PowerGraph replica pays).
pub fn ablation_messages(scale: f64) {
    println!("== Ablation: GRAPE message aggregation + varint encoding ==");
    println!("claim: compact buffers beat tuple vectors beat per-message sends\n");
    let m = (500_000.0 * scale) as u64;
    let targets: Vec<VId> = (0..m).map(|i| VId(i % 10_000)).collect();

    // 1. aggregated varint buffers (GRAPE)
    let (t_grape, grape_bytes) = time_it(3, || {
        let mut out = OutBuffers::new(4);
        for (i, &v) in targets.iter().enumerate() {
            out.send(i % 4, v.0 as u32, 0.5f64);
        }
        let blocks = out.take();
        let bytes: usize = blocks.iter().map(|b| b.bytes.len()).sum();
        let mut acc = 0.0;
        for b in &blocks {
            b.for_each::<f64>(|_, x| acc += x);
        }
        bytes
    });
    // 2. plain tuple vectors (Gemini-style)
    let (t_tuple, tuple_bytes) = time_it(3, || {
        let mut bufs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); 4];
        for (i, &v) in targets.iter().enumerate() {
            bufs[i % 4].push((v.0, 0.5));
        }
        let bytes: usize = bufs.iter().map(|b| b.len() * 16).sum();
        let mut acc = 0.0;
        for b in &bufs {
            for &(_, x) in b {
                acc += x;
            }
        }
        std::hint::black_box(acc);
        bytes
    });
    // 3. per-message boxed channel sends (PowerGraph-style)
    let (t_boxed, _) = time_it(1, || {
        let (tx, rx) = crossbeam::channel::unbounded::<(u64, Box<f64>)>();
        for &v in targets.iter() {
            // gs-lint: allow(L003 single-threaded micro-benchmark; rx is held in this scope so the send cannot fail)
            tx.send((v.0, Box::new(0.5))).unwrap();
        }
        drop(tx);
        let mut acc = 0.0;
        for (_, x) in rx {
            acc += *x;
        }
        acc as usize
    });

    let mut t = TablePrinter::new(&["transport", "time (send+drain)", "wire bytes", "vs GRAPE"]);
    t.row(vec![
        "GRAPE compact varint buffers".into(),
        fmt_duration(t_grape),
        grape_bytes.to_string(),
        "1.00×".into(),
    ]);
    t.row(vec![
        "tuple vectors (Gemini-like)".into(),
        fmt_duration(t_tuple),
        tuple_bytes.to_string(),
        fmt_speedup(t_tuple, t_grape),
    ]);
    t.row(vec![
        "boxed per-message sends (PowerGraph-like)".into(),
        fmt_duration(t_boxed),
        format!("{}", m * 24),
        fmt_speedup(t_boxed, t_grape),
    ]);
    t.print();
    println!(
        "wire-size ratio: varint buffers use {:.0}% of tuple-vector bytes",
        100.0 * grape_bytes as f64 / tuple_bytes as f64
    );
}

/// Vineyard's property hash index vs full scans for point lookups (the
/// index GRIN advertises through `INDEX_PROPERTY`).
pub fn ablation_index(scale: f64) {
    println!("== Ablation: Vineyard property index vs full scan ==");
    println!("claim: indexed vertices_by_property is O(1) per lookup\n");
    use gs_grin::GrinGraph;
    let n = (100_000.0 * scale) as usize;
    let mut schema = gs_graph::GraphSchema::new();
    let v = schema.add_vertex_label("V", &[("tag", gs_graph::ValueType::Int)]);
    schema.add_edge_label("E", v, v, &[]);
    let mut data = PropertyGraphData::new(schema);
    for i in 0..n as u64 {
        data.add_vertex(v, i, vec![Value::Int((i % 1000) as i64)]);
    }
    data.add_edge(LabelId(0), 0, 1, vec![]);
    let mut store = VineyardGraph::build(&data).unwrap();
    let lookups: Vec<Value> = (0..200).map(|i| Value::Int(i * 3 % 1000)).collect();
    let (t_scan, hits_scan) = time_it(3, || {
        lookups
            .iter()
            .map(|val| {
                store
                    .vertices_by_property(v, gs_graph::PropId(0), val)
                    .len()
            })
            .sum::<usize>()
    });
    store.build_property_index(v, gs_graph::PropId(0));
    let (t_index, hits_index) = time_it(3, || {
        lookups
            .iter()
            .map(|val| {
                store
                    .vertices_by_property(v, gs_graph::PropId(0), val)
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(hits_scan, hits_index);
    let mut t = TablePrinter::new(&["access path", "200 lookups", "speedup"]);
    t.row(vec!["full scan".into(), fmt_duration(t_scan), "—".into()]);
    t.row(vec![
        "hash index".into(),
        fmt_duration(t_index),
        fmt_speedup(t_scan, t_index),
    ]);
    t.print();
}

/// Ingress auto-incrementalization: incremental PageRank maintenance vs
/// recomputation from scratch as the graph receives updates.
pub fn ablation_ingress(scale: f64) {
    println!("== Ablation: Ingress incremental PageRank vs recompute ==");
    println!("claim: memoized deltas touch only the affected region\n");
    let el = Dataset::by_abbr("PD").unwrap().edges(0.05 * scale);
    let n = el.vertex_count();
    let mut inc = IncrementalPageRank::new(n, el.edges(), 0.85, 1e-10);
    use rand::Rng;
    let mut rng = rand_pcg::Pcg64Mcg::new(3);
    let updates: Vec<(VId, VId)> = (0..20)
        .map(|_| {
            (
                VId(rng.gen_range(0..n as u64)),
                VId(rng.gen_range(0..n as u64)),
            )
        })
        .collect();
    let t0 = std::time::Instant::now();
    let mut touched_total = 0usize;
    for &(s, d) in &updates {
        touched_total += inc.insert_edge(s, d);
    }
    let t_inc = t0.elapsed();
    let (t_full, _) = time_it(1, || inc.recompute_from_scratch());
    let mut t = TablePrinter::new(&["strategy", "20 updates", "notes"]);
    t.row(vec![
        "incremental (Ingress)".into(),
        fmt_duration(t_inc),
        format!(
            "avg {} vertices touched/update",
            touched_total / updates.len()
        ),
    ]);
    t.row(vec![
        "recompute from scratch".into(),
        fmt_duration(t_full * 20),
        format!("{} vertices every time (×20 shown)", n),
    ]);
    t.print();
    println!("incremental advantage: {}", fmt_speedup(t_full * 20, t_inc));
}
