//! `gate analytics` — layout × algorithm throughput matrix.
//!
//! Benchmarks the pluggable-topology work end to end on seeded gs-datagen
//! graphs: every [`LayoutKind`] (plain, sorted, compressed CSR) runs the
//! GRAPE traversal core — push-only Pregel BFS vs the direction-optimizing
//! scheduler, Pregel SSSP vs DO-SSSP, PageRank — plus the
//! intersection-bound kernels (triangle counting, where the sorted layout's
//! galloping search earns its keep on power-law hubs). Every combination is
//! cross-checked for result equality before a single timing is reported:
//! a layout or traversal mode that changes results is a failed run, not a
//! fast one.
//!
//! Results go to `BENCH_analytics.json`. Direction-optimizing BFS slower
//! than the push-only baseline on the default layout is a gate warning, so
//! it fails the run under `--deny` — the regression gate CI runs.

use std::time::Instant;

use crate::gate::{GateArgs, GateReport};
use crate::util::TablePrinter;
use gs_datagen::{powerlaw, rmat};
use gs_grape::algorithms::{self, triangle_count};
use gs_grape::traversal::{bfs_with_policy, sssp_with_policy, TraversalPolicy};
use gs_grape::GrapeEngine;
use gs_graph::csr::Csr;
use gs_graph::json::Json;
use gs_graph::layout::{LayoutKind, TopologyLayout};
use gs_graph::VId;

/// Benchmark knobs (deterministic given `seed`).
#[derive(Clone, Copy, Debug)]
pub struct AnalyticsConfig {
    pub seed: u64,
    /// R-MAT scale for the traversal graph (n = 2^scale, m ≈ 16n).
    pub scale: u32,
    /// Preferential-attachment vertex count for the triangle graph.
    pub tri_n: usize,
    /// GRAPE fragment count / kernel thread count.
    pub fragments: usize,
    /// Timed repetitions per measurement (best-of).
    pub runs: usize,
}

impl Default for AnalyticsConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            scale: 13,
            tri_n: 6000,
            fragments: 4,
            runs: 3,
        }
    }
}

/// One layout's measurements over both benchmark graphs.
#[derive(Clone, Debug)]
pub struct LayoutRow {
    pub layout: LayoutKind,
    /// Engine build time (partition + per-fragment layout materialisation).
    pub build_ms: f64,
    /// Heap bytes of the out-topology at this layout (whole graph).
    pub heap_bytes: usize,
    pub bfs_push_ms: f64,
    pub bfs_do_ms: f64,
    /// Supersteps the DO scheduler ran in pull mode.
    pub pull_steps: u64,
    pub sssp_push_ms: f64,
    pub sssp_do_ms: f64,
    pub pagerank_ms: f64,
    pub triangles_ms: f64,
}

/// The full run: per-layout rows plus the cross-layout summary numbers.
#[derive(Clone, Debug)]
pub struct AnalyticsReport {
    pub seed: u64,
    /// Traversal graph size.
    pub n: usize,
    pub m: usize,
    /// Triangle graph size (after symmetrization).
    pub tri_n: usize,
    pub tri_m: usize,
    pub triangles: u64,
    pub rows: Vec<LayoutRow>,
    /// push-only / direction-optimizing BFS time on the default layout.
    pub do_bfs_speedup: f64,
    /// plain-CSR merge / sorted-CSR galloping triangle time.
    pub galloping_speedup: f64,
    /// The CI gate: DO-BFS at least matched the push-only baseline.
    pub do_bfs_ok: bool,
}

fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.unwrap())
}

/// Runs the matrix. Panics (failing the bench) on any cross-layout or
/// cross-mode result mismatch.
pub fn run(cfg: &AnalyticsConfig) -> AnalyticsReport {
    // traversal graph: Graph500-parameterised R-MAT, heavy-tailed and
    // low-diameter, the regime direction optimization was designed for
    let mut rcfg = rmat::RmatConfig::graph500(cfg.scale);
    rcfg.seed = cfg.seed;
    let el = rmat::generate(&rcfg);
    let n = el.vertex_count();
    let edges = el.edges().to_vec();
    // deterministic positive weights; shared by every SSSP run
    let weights: Vec<f64> = edges
        .iter()
        .map(|&(s, d)| ((s.0 * 31 + d.0 * 7) % 100 + 1) as f64 / 10.0)
        .collect();
    // source: the busiest vertex, so the frontier actually grows
    let csr = Csr::from_edges(n, &edges);
    let src = VId((0..n)
        .max_by_key(|&v| csr.degree(VId(v as u64)))
        .unwrap_or(0) as u64);

    // triangle graph: preferential attachment grows the hub structure that
    // separates merge from galloping intersections
    let mut tri = powerlaw::preferential_attachment(cfg.tri_n, 8, cfg.seed);
    tri.symmetrize();
    tri.dedup_simple();
    let tri_edges = tri.edges().to_vec();

    let mut rows = Vec::new();
    let mut bfs_baseline: Option<Vec<u64>> = None;
    let mut sssp_baseline: Option<Vec<u64>> = None; // f64 bits
    let mut pr_baseline: Option<Vec<f64>> = None;
    let mut triangles = 0u64;
    for layout in LayoutKind::ALL {
        let (build_ms, engine) = best_of(1, || {
            GrapeEngine::from_edges_with_layout(n, &edges, cfg.fragments, layout)
        });
        let wengine = GrapeEngine::from_weighted_edges_with_layout(
            n,
            &edges,
            &weights,
            cfg.fragments,
            layout,
        );

        let (bfs_push_ms, push_depths) = best_of(cfg.runs, || algorithms::bfs(&engine, src));
        let (bfs_do_ms, (do_depths, report)) = best_of(cfg.runs, || {
            bfs_with_policy(&engine, src, TraversalPolicy::Auto)
        });
        assert_eq!(
            do_depths, push_depths,
            "{layout}: DO-BFS diverged from Pregel BFS"
        );
        match &bfs_baseline {
            Some(b) => assert_eq!(&do_depths, b, "{layout}: BFS diverged across layouts"),
            None => bfs_baseline = Some(do_depths),
        }

        let (sssp_push_ms, push_dist) = best_of(cfg.runs, || algorithms::sssp(&wengine, src));
        let (sssp_do_ms, (do_dist, _)) = best_of(cfg.runs, || {
            sssp_with_policy(&wengine, src, TraversalPolicy::Auto)
        });
        let bits: Vec<u64> = do_dist.iter().map(|d| d.to_bits()).collect();
        assert_eq!(
            bits,
            push_dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "{layout}: DO-SSSP not bit-identical to Pregel SSSP"
        );
        match &sssp_baseline {
            Some(b) => assert_eq!(&bits, b, "{layout}: SSSP diverged across layouts"),
            None => sssp_baseline = Some(bits),
        }

        let (pagerank_ms, pr) = best_of(cfg.runs, || algorithms::pagerank(&engine, 0.85, 10));
        match &pr_baseline {
            Some(b) => assert_eq!(&pr, b, "{layout}: PageRank diverged across layouts"),
            None => pr_baseline = Some(pr),
        }

        let (triangles_ms, tc) = best_of(cfg.runs, || {
            triangle_count(cfg.tri_n, &tri_edges, layout, cfg.fragments)
        });
        if triangles == 0 {
            triangles = tc;
        }
        assert_eq!(
            tc, triangles,
            "{layout}: triangle count diverged across layouts"
        );

        let heap_bytes = TopologyLayout::build(layout, csr.clone()).heap_bytes();
        rows.push(LayoutRow {
            layout,
            build_ms,
            heap_bytes,
            bfs_push_ms,
            bfs_do_ms,
            pull_steps: report.pull_steps,
            sssp_push_ms,
            sssp_do_ms,
            pagerank_ms,
            triangles_ms,
        });
    }

    let default_row = &rows[0];
    let do_bfs_speedup = default_row.bfs_push_ms / default_row.bfs_do_ms;
    let csr_tri = rows
        .iter()
        .find(|r| r.layout == LayoutKind::Csr)
        .unwrap()
        .triangles_ms;
    let sorted_tri = rows
        .iter()
        .find(|r| r.layout == LayoutKind::SortedCsr)
        .unwrap()
        .triangles_ms;
    AnalyticsReport {
        seed: cfg.seed,
        n,
        m: edges.len(),
        tri_n: cfg.tri_n,
        tri_m: tri_edges.len(),
        triangles,
        do_bfs_speedup,
        galloping_speedup: csr_tri / sorted_tri,
        do_bfs_ok: default_row.bfs_do_ms <= default_row.bfs_push_ms,
        rows,
    }
}

impl AnalyticsReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("analytics")),
            ("seed", Json::Int(self.seed as i64)),
            (
                "traversal_graph",
                Json::obj([
                    ("vertices", Json::Int(self.n as i64)),
                    ("edges", Json::Int(self.m as i64)),
                ]),
            ),
            (
                "triangle_graph",
                Json::obj([
                    ("vertices", Json::Int(self.tri_n as i64)),
                    ("edges", Json::Int(self.tri_m as i64)),
                    ("triangles", Json::Int(self.triangles as i64)),
                ]),
            ),
            (
                "layouts",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("layout", Json::str(r.layout.name())),
                        ("build_ms", Json::Float(r.build_ms)),
                        ("topology_heap_bytes", Json::Int(r.heap_bytes as i64)),
                        ("bfs_push_ms", Json::Float(r.bfs_push_ms)),
                        ("bfs_do_ms", Json::Float(r.bfs_do_ms)),
                        ("bfs_do_pull_steps", Json::Int(r.pull_steps as i64)),
                        ("sssp_push_ms", Json::Float(r.sssp_push_ms)),
                        ("sssp_do_ms", Json::Float(r.sssp_do_ms)),
                        ("pagerank_ms", Json::Float(r.pagerank_ms)),
                        ("triangles_ms", Json::Float(r.triangles_ms)),
                    ])
                })),
            ),
            ("do_bfs_speedup", Json::Float(self.do_bfs_speedup)),
            ("galloping_speedup", Json::Float(self.galloping_speedup)),
            ("do_bfs_ok", Json::Bool(self.do_bfs_ok)),
        ])
    }
}

/// The `analytics` gate: one row per layout; a DO-BFS regression is a
/// warning.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    let report = run(&AnalyticsConfig {
        seed: args.seed,
        ..Default::default()
    });
    let mut table = TablePrinter::new(&[
        "layout",
        "build ms",
        "topo MiB",
        "bfs push",
        "bfs DO",
        "pull",
        "sssp push",
        "sssp DO",
        "pagerank",
        "triangles",
    ]);
    for r in &report.rows {
        table.row(vec![
            r.layout.to_string(),
            format!("{:.1}", r.build_ms),
            format!("{:.2}", r.heap_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", r.bfs_push_ms),
            format!("{:.2}", r.bfs_do_ms),
            r.pull_steps.to_string(),
            format!("{:.2}", r.sssp_push_ms),
            format!("{:.2}", r.sssp_do_ms),
            format!("{:.2}", r.pagerank_ms),
            format!("{:.2}", r.triangles_ms),
        ]);
    }
    let mut summary = format!(
        "direction-optimizing BFS speedup (vs push-only, {} layout): {:.2}x\n\
         galloping triangle speedup (sorted_csr vs csr): {:.2}x",
        report.rows[0].layout, report.do_bfs_speedup, report.galloping_speedup
    );
    if !report.do_bfs_ok {
        summary.push_str("\nwarning: direction-optimizing BFS slower than the push-only baseline");
    }
    Ok(GateReport {
        table,
        summary,
        errors: 0,
        warnings: usize::from(!report.do_bfs_ok),
        json: Some(report.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_consistent_and_serializes() {
        // under `--features chaos` a chaos test could install a global
        // fault plan that would kill this run's GRAPE workers, and under
        // `--features sanitize` the sanitizer corpus test records every
        // tracked channel in the process; hold both gates (chaos first,
        // then sanitizer) so neither window sees this run
        let _no_faults = gs_chaos::exclusive();
        let _no_sanitizer = gs_sanitizer::exclusive();
        let cfg = AnalyticsConfig {
            seed: 7,
            scale: 8,
            tri_n: 400,
            fragments: 2,
            runs: 1,
        };
        let report = run(&cfg);
        assert_eq!(report.rows.len(), LayoutKind::ALL.len());
        assert!(report.triangles > 0);
        // compressed topology must actually be smaller than plain CSR
        let plain = report.rows[0].heap_bytes;
        let compressed = report
            .rows
            .iter()
            .find(|r| r.layout == LayoutKind::CompressedCsr)
            .unwrap()
            .heap_bytes;
        assert!(compressed < plain, "{compressed} !< {plain}");
        let json = report.to_json().render();
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.field("bench").unwrap().as_str(), Some("analytics"));
        assert_eq!(
            doc.field("layouts").unwrap().as_arr().unwrap().len(),
            LayoutKind::ALL.len()
        );
    }
}
