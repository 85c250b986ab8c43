//! `gate sanitize` — run a workload corpus under the concurrency
//! sanitizer and print a diagnostic table, mirroring `irlint` one layer
//! down: the same stack paths the benchmarks exercise (GRAPE BSP
//! supersteps, a HiActor procedure storm, the pipelined sampler) run with
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

/// HiActor procedure storm: concurrent `call`s across 4 shard actors
/// hammering the shared procedure registry, result channels, and shard
/// mailboxes.
fn hiactor_storm(seed: u64) -> Report {
    let n = 200;
    let edges: Vec<(u64, u64, f64)> = random_edges(seed.wrapping_add(2), n, 5)
        .into_iter()
        .map(|(a, b)| (a.0, b.0, 1.0))
        .collect();
    let ((), report) = gs_sanitizer::with_sanitizer(seed, || {
        let graph = Arc::new(MockGraph::new(n, &edges));
        let svc = gs_hiactor::QueryService::new(4);
        let g = Arc::clone(&graph);
        svc.register(
            "degree_of",
            Arc::new(move |params| {
                let id = params.get("id").and_then(|v| v.as_int()).unwrap_or(0) as u64;
                let d = g.degree(
                    VId(id),
                    gs_graph::LabelId(0),
                    gs_graph::LabelId(0),
                    gs_grin::Direction::Out,
                );
                Ok(vec![vec![Value::Int(d as i64)]])
            }),
        );
        svc.register("noop", Arc::new(|_| Ok(vec![])));
        let rxs: Vec<_> = (0..400)
            .map(|i| {
                let name = if i % 3 == 0 { "noop" } else { "degree_of" };
                let mut p = HashMap::new();
                p.insert("id".to_string(), Value::Int((i % n) as i64));
                svc.call(name, p)
            })
            .collect();
        for rx in rxs {
            // gs-lint: allow(L003 corpus harness must abort loudly if a shard dies; a missing reply here is a harness bug, not a recoverable condition)
            rx.recv().expect("shard replied").expect("procedure ok");
        }
        svc.runtime().quiesce();
        // drop the service before the report: idle shards legitimately
        // block on their mailboxes, which would read as S004 otherwise
        drop(svc);
    });
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
        ("hiactor-storm", hiactor_storm(seed)),
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
