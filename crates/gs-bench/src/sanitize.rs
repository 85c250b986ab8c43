//! `gate sanitize` — run a workload corpus under the concurrency
//! sanitizer and print a diagnostic table, mirroring `irlint` one layer
//! down: the same stack paths the benchmarks exercise (GRAPE BSP
//! supersteps, a gs-serve stored-procedure storm, the pipelined sampler) run with
//! every tracked lock, channel, barrier, and shared cell recording, and
//! any `S`-code finding is a defect in the simulated cluster's
//! synchronization.
//!
//! Only meaningful when built with `--features sanitize`; without it the
//! gate driver prints a note and exits 0.

use crate::gate::{GateArgs, GateReport};
use crate::util::{random_edges, TablePrinter};
use gs_graph::VId;
use gs_grin::graph::mock::MockGraph;
use gs_grin::GrinGraph;
use gs_ir::Value;
use gs_sanitizer::Report;
use gs_serve::{Priority, ServeConfig, Server, StaticServeStore};
use std::collections::HashMap;
use std::sync::Arc;

/// BSP PageRank over 4 fragments: the double-buffered aggregator, tracked
/// barriers, and the all-to-all exchange channels all under load.
fn bsp_pagerank(seed: u64) -> Report {
    let n = 400;
    let edges = random_edges(seed, n, 6);
    let (ranks, report) = gs_sanitizer::with_sanitizer(seed, || {
        let engine = gs_grape::GrapeEngine::from_edges(n, &edges, 4);
        gs_grape::algorithms::pagerank(&engine, 0.85, 10)
    });
    assert_eq!(ranks.len(), n, "pagerank must rank every vertex");
    let total: f64 = ranks.iter().sum();
    assert!(
        (total - 1.0).abs() < 0.05,
        "pagerank mass should stay normalized, got {total}"
    );
    report
}

/// BSP WCC over a symmetrized graph: label propagation to fixpoint.
fn bsp_wcc(seed: u64) -> Report {
    let n = 400;
    let mut edges = random_edges(seed.wrapping_add(1), n, 4);
    let back: Vec<(VId, VId)> = edges.iter().map(|&(a, b)| (b, a)).collect();
    edges.extend(back);
    let (labels, report) = gs_sanitizer::with_sanitizer(seed, || {
        let engine = gs_grape::GrapeEngine::from_edges(n, &edges, 4);
        gs_grape::algorithms::wcc(&engine)
    });
    assert_eq!(labels.len(), n);
    report
}

/// Stored-procedure storm: 4 sessions on 4 threads `call` through one
/// server, hammering the shared procedure registry, the admission
/// ladder's tenant map and breaker, and the procedures' shared graph.
fn procedure_storm(seed: u64) -> Report {
    let n = 200;
    let edges: Vec<(u64, u64, f64)> = random_edges(seed.wrapping_add(2), n, 5)
        .into_iter()
        .map(|(a, b)| (a.0, b.0, 1.0))
        .collect();
    let (answered, report) = gs_sanitizer::with_sanitizer(seed, || {
        let graph = Arc::new(MockGraph::new(n, &edges));
        let server = Arc::new(Server::new(
            Box::new(gs_hiactor::QueryService::new(1)),
            Box::new(StaticServeStore::new(
                Arc::clone(&graph) as Arc<dyn GrinGraph>
            )),
            ServeConfig::default(),
        ));
        server.register(
            "degree_of",
            Arc::new(move |params| {
                let id = params.get("id").and_then(|v| v.as_int()).unwrap_or(0) as u64;
                let d = graph.degree(
                    VId(id),
                    gs_graph::LabelId(0),
                    gs_graph::LabelId(0),
                    gs_grin::Direction::Out,
                );
                Ok(vec![vec![Value::Int(d as i64)]])
            }),
        );
        server.register("noop", Arc::new(|_| Ok(vec![])));
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|t| {
                    let session = server.session(&format!("tenant-{t}"), Priority::High);
                    s.spawn(move || {
                        (0..100)
                            .filter(|i| {
                                let name = if i % 3 == 0 { "noop" } else { "degree_of" };
                                let p = HashMap::from([(
                                    "id".to_string(),
                                    Value::Int(((i * 4 + t) % n) as i64),
                                )]);
                                session.call(name, &p).is_ok()
                            })
                            .count()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().unwrap_or(0))
                .sum::<usize>()
        })
    });
    assert_eq!(answered, 400, "every call must answer");
    report
}

/// The decoupled sampling/training pipeline: bounded batch channel plus
/// the tracked busy-time accumulators.
fn learn_pipeline(seed: u64) -> Report {
    let n = 150;
    let edges: Vec<(u64, u64, f64)> = random_edges(seed.wrapping_add(3), n, 6)
        .into_iter()
        .map(|(a, b)| (a.0, b.0, 1.0))
        .collect();
    let (stats, report) = gs_sanitizer::with_sanitizer(seed, || {
        let graph = MockGraph::new(n, &edges);
        let cfg = gs_learn::PipelineConfig {
            samplers: 2,
            trainers: 2,
            batch_size: 16,
            fanouts: vec![4, 3],
            feature_dim: 8,
            hidden: 16,
            classes: 4,
            batches_per_epoch: 8,
            seed,
            ..Default::default()
        };
        let (stats, _model) =
            gs_learn::train_epoch(&graph, gs_graph::LabelId(0), gs_graph::LabelId(0), &cfg);
        stats
    });
    assert_eq!(stats.batches, 8, "pipeline must not lose batches");
    report
}

/// Runs the whole corpus, one exclusive sanitized run per workload so
/// findings attribute cleanly.
pub fn run_corpus(seed: u64) -> Vec<(&'static str, Report)> {
    vec![
        ("bsp-pagerank", bsp_pagerank(seed)),
        ("bsp-wcc", bsp_wcc(seed)),
        ("procedure-storm", procedure_storm(seed)),
        ("learn-pipeline", learn_pipeline(seed)),
    ]
}

/// The `sanitize` gate: one table row per `S`-code finding.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    let results = run_corpus(args.seed);
    let mut table = TablePrinter::new(&["workload", "code", "severity", "sites", "message"]);
    let (mut errors, mut warnings) = (0usize, 0usize);
    for (workload, report) in &results {
        errors += report.error_count();
        warnings += report.warning_count();
        for d in &report.diagnostics {
            table.row(vec![
                workload.to_string(),
                d.code.to_string(),
                d.severity.to_string(),
                d.sites.join(", "),
                d.message.clone(),
            ]);
        }
    }
    Ok(GateReport {
        table,
        summary: format!(
            "sanitize: {} workloads checked (seed {}), {errors} errors, {warnings} warnings",
            results.len(),
            args.seed
        ),
        errors,
        warnings,
        json: None,
    })
}

#[cfg(test)]
#[cfg(feature = "sanitize")]
mod tests {
    use super::*;

    /// The acceptance gate: the whole corpus runs clean under the
    /// sanitizer — the `gate sanitize --deny` CI bar.
    #[test]
    fn corpus_is_clean() {
        for (workload, report) in run_corpus(42) {
            assert!(
                report.is_clean(),
                "{workload} found defects:\n{}",
                report.render()
            );
        }
    }
}
