//! `gate chaos` — run a seeded fault-injection corpus and assert
//! chaos equivalence: every workload must finish under injected faults
//! with the same answer a fault-free run produces (byte-identical for the
//! integer algorithms, within a documented 1e-9 tolerance for PageRank's
//! f64 reductions), or degrade along its documented ladder (structured
//! `Unavailable` errors, skipped batches) without losing accounting.
//!
//! Mirrors `irlint` and `sanitize` one robustness layer up: the table
//! lists each workload, the faults the plan actually injected, and the
//! equivalence verdict; every failed verdict is a gate error. The
//! `durability` gate shares the [`Verdict`] type and its table.
//!
//! Only meaningful when built with `--features chaos`; without it the
//! gate driver prints a note and exits 0.

use crate::gate::{GateArgs, GateReport};
use crate::util::{random_edges, TablePrinter};
use gs_chaos::{ChaosStats, FaultPlan};
use gs_grape::{GrapeEngine, RecoveryConfig};
use gs_graph::{GraphError, VId};
use gs_grin::{Direction, GrinGraph};
use gs_ir::Value;
use gs_serve::{GartServeStore, Priority, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One fault-injected workload's result: the faults that fired and the
/// equivalence verdict.
pub struct Verdict {
    pub stats: ChaosStats,
    /// `Ok` carries the equivalence summary; `Err` the violation.
    pub outcome: Result<String, String>,
}

/// The verdict table shared by the `chaos` and `durability` gates: one
/// row per workload, one error per failed verdict.
pub fn verdict_report(gate: &str, seed: u64, verdicts: &[(&str, Verdict)]) -> GateReport {
    let mut table = TablePrinter::new(&["workload", "injected", "verdict"]);
    let failures = verdicts.iter().filter(|(_, v)| v.outcome.is_err()).count();
    for (workload, v) in verdicts {
        let verdict = match &v.outcome {
            Ok(summary) => format!("ok: {summary}"),
            Err(why) => format!("FAIL: {why}"),
        };
        table.row(vec![workload.to_string(), v.stats.render(), verdict]);
    }
    GateReport {
        table,
        summary: format!(
            "{gate}: {} workloads checked (seed {seed}), {failures} equivalence failures",
            verdicts.len()
        ),
        errors: failures,
        warnings: 0,
        json: None,
    }
}

/// PageRank under scheduled worker kills: two workers die at different
/// supersteps; checkpoint/restart must reproduce the fault-free ranks
/// within the documented f64 tolerance. (The dangling-mass all-reduce
/// folds in a canonical order, so the ranks are in fact bit-identical;
/// the tolerance is the gate's contract, not the engine's.)
fn pagerank_kills(seed: u64) -> Verdict {
    let n = 300;
    let edges = random_edges(seed, n, 5);
    let want = gs_grape::algorithms::pagerank(&GrapeEngine::from_edges(n, &edges, 4), 0.85, 12);
    let plan = FaultPlan::new(seed ^ 0x4b11)
        .kill_worker(1, 4)
        .kill_worker(3, 8);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4)
            .with_recovery(RecoveryConfig::default().interval(3));
        gs_grape::algorithms::pagerank(&engine, 0.85, 12)
    });
    let max_dev = want
        .iter()
        .zip(&got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let outcome = if stats.worker_kills != 2 {
        Err(format!(
            "expected 2 worker kills, saw {}",
            stats.worker_kills
        ))
    } else if max_dev > 1e-9 {
        Err(format!("ranks deviate by {max_dev:e} (tolerance 1e-9)"))
    } else {
        Ok("ranks within 1e-9 of the fault-free run".to_string())
    };
    Verdict { stats, outcome }
}

/// WCC under probabilistic message drop/duplication/delay: the integer
/// label all-reduce is order-insensitive, so recovery must reproduce the
/// fault-free labels byte-identically.
fn wcc_msgfaults(seed: u64) -> Verdict {
    let n = 240;
    let mut edges = random_edges(seed.wrapping_add(1), n, 4);
    let back: Vec<(VId, VId)> = edges.iter().map(|&(a, b)| (b, a)).collect();
    edges.extend(back);
    let want = gs_grape::algorithms::wcc(&GrapeEngine::from_edges(n, &edges, 4));
    let plan = FaultPlan::new(seed ^ 0x3c3c)
        .message_faults(0.03, 0.03, 0.03)
        .budget(12);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(250)),
        );
        gs_grape::algorithms::wcc(&engine)
    });
    let outcome = if stats.msgs_dropped + stats.msgs_duplicated + stats.msgs_delayed == 0 {
        Err("plan injected no message faults".to_string())
    } else if got != want {
        Err("labels differ from the fault-free run".to_string())
    } else {
        Ok("labels byte-identical to the fault-free run".to_string())
    };
    Verdict { stats, outcome }
}

/// BFS under a mixed plan — a scheduled worker kill *and* probabilistic
/// message faults in the same run; distances must stay byte-identical.
fn bfs_mixed(seed: u64) -> Verdict {
    let n = 260;
    let edges = random_edges(seed.wrapping_add(2), n, 5);
    let want = gs_grape::algorithms::bfs(&GrapeEngine::from_edges(n, &edges, 4), VId(0));
    let plan = FaultPlan::new(seed ^ 0xbf5)
        .kill_worker(2, 2)
        .message_faults(0.02, 0.02, 0.02)
        .budget(8);
    let (got, stats) = gs_chaos::with_chaos(plan, || {
        let engine = GrapeEngine::from_edges(n, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(250)),
        );
        gs_grape::algorithms::bfs(&engine, VId(0))
    });
    let outcome = if stats.worker_kills == 0 {
        Err("the scheduled worker kill never fired".to_string())
    } else if got != want {
        Err("distances differ from the fault-free run".to_string())
    } else {
        Ok("distances byte-identical to the fault-free run".to_string())
    };
    Verdict { stats, outcome }
}

/// Stored procedures under storage faults: each `Session::call` reads a
/// `ChaosGraph`-wrapped GART snapshot. Every call must end in the
/// fault-free rows, a shed, or a structured `Unavailable` (an injected
/// read fault, or the serving breaker it opened); at least one must
/// answer, and faults must fire.
fn procedure_storage(seed: u64) -> Verdict {
    let workload = gs_datagen::apps::fraud_graph(60, 20, 200, 50, 7);
    let labels = workload.labels;
    let gart = gs_gart::GartStore::from_data(&workload.data).expect("workload loads");
    let server = Arc::new(Server::new(
        Box::new(gs_hiactor::QueryService::new(1)),
        Box::new(GartServeStore::new(Arc::clone(&gart))),
        ServeConfig::default(),
    ));
    // co-purchase reach: the summed buyer counts of the account's items
    let store = Arc::clone(&gart);
    server.register(
        "reach",
        Arc::new(move |params| {
            let snap = gs_chaos::ChaosGraph::new(store.snapshot(), "gate.procedure");
            let id = params.get("id").and_then(Value::as_int).unwrap_or(0) as u64;
            let mut reach = 0;
            if let Some(v) = snap.internal_id(labels.account, id) {
                snap.for_each_adjacent(v, labels.account, labels.buy, Direction::Out, &mut |e| {
                    reach += snap.degree(e.nbr, labels.item, labels.buy, Direction::In);
                });
            }
            Ok(vec![vec![Value::Int(reach as i64)]])
        }),
    );
    let session = server.session("gate", Priority::High);
    let calls = 40;
    let call = |i: u64| {
        let params = HashMap::from([("id".to_string(), Value::Int((i % 20) as i64))]);
        session.call("reach", &params)
    };
    let want: Vec<_> = {
        // no other workload's plan may inject into the fault-free pass
        let _gate = gs_chaos::exclusive();
        (0..calls).map(|i| call(i).ok()).collect()
    };
    let plan = FaultPlan::new(seed ^ 0x9c0)
        .storage_faults(0.1, 1)
        .budget(8);
    let (got, stats) = gs_chaos::with_chaos(plan, || (0..calls).map(call).collect::<Vec<_>>());
    let (mut ok, mut degraded) = (0, 0);
    let mut wrong = Vec::new();
    for (i, (got, want)) in got.into_iter().zip(want).enumerate() {
        match got {
            Ok(rows) if Some(&rows) == want.as_ref() => ok += 1,
            Err(GraphError::Unavailable(_) | GraphError::Overloaded { .. }) => degraded += 1,
            other => wrong.push(format!("call {i}: {other:?}")),
        }
    }
    let outcome = if stats.storage_faults == 0 {
        Err("plan injected no storage faults".to_string())
    } else if !wrong.is_empty() {
        Err(format!(
            "{} calls neither answered nor degraded: {}",
            wrong.len(),
            wrong[0]
        ))
    } else if ok == 0 {
        Err(format!("no call of {calls} answered"))
    } else {
        Ok(format!(
            "{ok}/{calls} calls answered the fault-free rows, {degraded} degraded"
        ))
    };
    Verdict { stats, outcome }
}

/// The sampling/training pipeline over a faulty store: storage-read
/// bursts exhaust the sampler's retries for some batches; the epoch must
/// finish with every batch either trained or reported as skipped.
fn learn_sampler(seed: u64) -> Verdict {
    let n = 150;
    let edges: Vec<(u64, u64, f64)> = random_edges(seed.wrapping_add(3), n, 6)
        .into_iter()
        .map(|(a, b)| (a.0, b.0, 1.0))
        .collect();
    let plan = FaultPlan::new(seed ^ 0x1ea2)
        .storage_faults(0.08, 4)
        .budget(2);
    let (stats_epoch, stats) = gs_chaos::with_chaos(plan, || {
        let graph = gs_chaos::ChaosGraph::new(
            gs_grin::graph::mock::MockGraph::new(n, &edges),
            "learn.sampler",
        );
        let cfg = gs_learn::PipelineConfig {
            samplers: 1,
            trainers: 2,
            batch_size: 16,
            fanouts: vec![4, 3],
            feature_dim: 8,
            hidden: 16,
            classes: 4,
            batches_per_epoch: 8,
            sampler_retries: 1,
            seed,
            ..Default::default()
        };
        let (stats, _model) =
            gs_learn::train_epoch(&graph, gs_graph::LabelId(0), gs_graph::LabelId(0), &cfg);
        stats
    });
    let outcome = if stats.storage_faults == 0 {
        Err("plan injected no storage faults".to_string())
    } else if stats_epoch.skipped == 0 {
        Err("retry exhaustion never skipped a batch".to_string())
    } else if stats_epoch.batches + stats_epoch.skipped != 8 {
        Err(format!(
            "batch accounting broke: {} trained + {} skipped != 8",
            stats_epoch.batches, stats_epoch.skipped
        ))
    } else {
        Ok("epoch finished; every batch trained or reported skipped".to_string())
    };
    Verdict { stats, outcome }
}

/// Runs the whole corpus; each workload installs its own exclusive fault
/// plan so injections attribute cleanly.
pub fn run_corpus(seed: u64) -> Vec<(&'static str, Verdict)> {
    vec![
        ("pagerank-kills", pagerank_kills(seed)),
        ("wcc-msgfaults", wcc_msgfaults(seed)),
        ("bfs-mixed", bfs_mixed(seed)),
        ("procedure-storage", procedure_storage(seed)),
        ("learn-sampler", learn_sampler(seed)),
    ]
}

/// The `chaos` gate.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    Ok(verdict_report("chaos", args.seed, &run_corpus(args.seed)))
}
