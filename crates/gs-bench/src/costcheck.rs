//! `gate costcheck` — estimator quality and soundness for the
//! `gs_ir::cost` static analysis (BENCH_cost.json).
//!
//! Runs the corpus irlint verifies ([`crate::corpus`]: 20 SNB BI plans,
//! the §8 fraud/cyber application queries, the quickstart pair) through
//! the cost analysis *and* the reference engine: every plan is costed
//! with a catalog built over its own dataset, executed with
//! [`gs_ir::exec::execute_traced`] recording actual per-operator
//! cardinalities, and diffed:
//!
//! * **q-error** `max(est/actual, actual/est)` per operator, with
//!   p50/p90/p99/max percentiles written to `BENCH_cost.json` — estimator
//!   quality is a tracked number, not a vibe;
//! * **soundness** — every actual must fall inside the predicted
//!   `[lo, hi]` interval (a violation is a bug in the analysis, not a bad
//!   estimate, and fails the run);
//! * **pathological plans** — hand-built cross-product / expansion-blowup
//!   / memory-hog plans must fire `C001`/`C002`/`C003` respectively,
//!   while the clean corpus must fire none.

use crate::gate::{GateArgs, GateReport};
use crate::util::TablePrinter;
use gs_graph::json::Json;
use gs_graph::Value;
use gs_ir::cost::{
    cost_physical, CostBudget, CostReport, CostStats, C_CROSS_PRODUCT, C_EXPANSION_BLOWUP,
    C_MEMORY_BUDGET,
};
use gs_ir::exec::execute_traced;
use gs_ir::expr::{BinOp, Expr};
use gs_ir::physical::{ExpandOut, PhysicalOp, PhysicalPlan};
use gs_ir::verify::Severity;
use gs_ir::{LogicalPlan, Record};
use gs_optimizer::Optimizer;
use gs_vineyard::VineyardGraph;

/// Per-operator estimate/actual pair for one query.
#[derive(Clone, Debug)]
pub struct OpRow {
    pub op: &'static str,
    pub est: f64,
    pub lo: f64,
    pub hi: f64,
    pub actual: u64,
    /// `max(est/actual, actual/est)`; `None` when either side is zero.
    pub q_error: Option<f64>,
    /// Whether `actual` fell inside `[lo, hi]`.
    pub sound: bool,
}

/// One costed + executed corpus query.
pub struct QueryCost {
    pub query: String,
    pub ops: Vec<OpRow>,
    /// C-errors the analysis raised on this (clean-corpus) plan.
    pub errors: usize,
    /// Ops whose actual cardinality escaped the predicted interval.
    pub violations: usize,
}

/// One pathological plan and whether its expected C-code fired.
pub struct PathologicalCheck {
    pub name: &'static str,
    pub expected: &'static str,
    pub fired: bool,
}

/// The whole costcheck outcome.
pub struct CostcheckReport {
    pub queries: Vec<QueryCost>,
    pub pathological: Vec<PathologicalCheck>,
    pub q_p50: f64,
    pub q_p90: f64,
    pub q_p99: f64,
    pub q_max: f64,
    pub q_samples: usize,
}

impl CostcheckReport {
    pub fn clean_errors(&self) -> usize {
        self.queries.iter().map(|q| q.errors).sum()
    }

    pub fn soundness_violations(&self) -> usize {
        self.queries.iter().map(|q| q.violations).sum()
    }

    pub fn pathological_missed(&self) -> usize {
        self.pathological.iter().filter(|p| !p.fired).count()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("costcheck")),
            ("queries", Json::Int(self.queries.len() as i64)),
            (
                "ops",
                Json::Int(self.queries.iter().map(|q| q.ops.len() as i64).sum()),
            ),
            (
                "q_error",
                Json::obj([
                    ("p50", Json::Float(self.q_p50)),
                    ("p90", Json::Float(self.q_p90)),
                    ("p99", Json::Float(self.q_p99)),
                    ("max", Json::Float(self.q_max)),
                    ("samples", Json::Int(self.q_samples as i64)),
                ]),
            ),
            (
                "soundness_violations",
                Json::Int(self.soundness_violations() as i64),
            ),
            ("clean_errors", Json::Int(self.clean_errors() as i64)),
            (
                "pathological",
                Json::arr(self.pathological.iter().map(|p| {
                    Json::obj([
                        ("name", Json::str(p.name)),
                        ("expected", Json::str(p.expected)),
                        ("fired", Json::Bool(p.fired)),
                    ])
                })),
            ),
        ])
    }
}

fn cost_and_execute(
    name: &str,
    plan: &gs_graph::Result<LogicalPlan>,
    store: &VineyardGraph,
    catalog: &CostStats,
) -> gs_graph::Result<QueryCost> {
    let plan = plan.as_ref().map_err(Clone::clone)?;
    let optimizer = Optimizer::new(catalog.clone());
    let physical = optimizer.optimize(plan)?;
    let cost = cost_physical(&physical, Some(catalog), &CostBudget::default());
    let (_, actuals): (Vec<Record>, Vec<u64>) = execute_traced(&physical, store)?;
    let mut ops = Vec::with_capacity(actuals.len());
    for (i, (op, actual)) in physical.ops.iter().zip(&actuals).enumerate() {
        let oc = &cost.per_op[i];
        let a = *actual as f64;
        let q_error = if oc.est_rows > 0.0 && a > 0.0 {
            Some((oc.est_rows / a).max(a / oc.est_rows))
        } else {
            None
        };
        ops.push(OpRow {
            op: op.name(),
            est: oc.est_rows,
            lo: oc.interval.lo,
            hi: oc.interval.hi,
            actual: *actual,
            q_error,
            sound: oc.interval.contains(a),
        });
    }
    let violations = ops.iter().filter(|o| !o.sound).count();
    Ok(QueryCost {
        query: name.to_string(),
        errors: cost
            .report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count(),
        violations,
        ops,
    })
}

/// Pathological plans: each must trip exactly its code under a tight
/// budget. Costed against the quickstart catalog (statistics present, so
/// the errors come from the plan shape, not from missing stats).
fn pathological(stats: &CostStats) -> Vec<PathologicalCheck> {
    let person = gs_graph::LabelId(0);
    let knows = gs_graph::LabelId(0);
    let scan = || PhysicalOp::Scan {
        label: person,
        predicate: None,
        index_lookup: None,
    };
    let expand = |src| PhysicalOp::Expand {
        src_col: src,
        src_label: person,
        elabel: knows,
        dir: gs_grin::Direction::Both,
        predicate: None,
        out: ExpandOut::VertexFused { label: person },
    };
    let plan = |ops: Vec<PhysicalOp>| PhysicalPlan {
        ops,
        layout: gs_ir::Layout::new(),
    };
    let check = |name, expected, report: CostReport| PathologicalCheck {
        name,
        expected,
        fired: report.has_code(expected),
    };
    vec![
        // two unconnected scans — a predicate touching only one side
        // must NOT count as connecting
        check(
            "cross-product",
            C_CROSS_PRODUCT,
            cost_physical(
                &plan(vec![
                    scan(),
                    scan(),
                    PhysicalOp::Select {
                        predicate: Expr::bin(
                            BinOp::Ne,
                            Expr::VertexId {
                                col: 1,
                                label: person,
                            },
                            Expr::Const(Value::Int(0)),
                        ),
                    },
                ]),
                Some(stats),
                &CostBudget::default(),
            ),
        ),
        // unbounded multi-hop expansion against a tight row budget
        check(
            "expansion-blowup",
            C_EXPANSION_BLOWUP,
            cost_physical(
                &plan(vec![
                    scan(),
                    expand(0),
                    expand(1),
                    expand(2),
                    expand(3),
                    expand(4),
                    expand(5),
                ]),
                Some(stats),
                &CostBudget {
                    max_rows: 50.0,
                    ..CostBudget::default()
                },
            ),
        ),
        // a full scan against a one-kilobyte memory budget
        check(
            "memory-hog",
            C_MEMORY_BUDGET,
            cost_physical(
                &plan(vec![scan(), expand(0)]),
                Some(stats),
                &CostBudget {
                    max_memory_bytes: 64,
                    ..CostBudget::default()
                },
            ),
        ),
    ]
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the whole costcheck corpus. A query that fails to build, optimize
/// or execute is one clean-corpus error with no op rows.
pub fn run() -> CostcheckReport {
    let mut queries = Vec::new();
    let mut quickstart_catalog = None;
    for (data, plans) in crate::corpus::corpus() {
        let store = VineyardGraph::build(&data).expect("corpus store");
        let catalog = CostStats::build(&store, 128);
        for (name, plan) in &plans {
            queries.push(
                cost_and_execute(name, plan, &store, &catalog).unwrap_or_else(|e| {
                    eprintln!("costcheck: {name} failed to build, optimize or execute: {e}");
                    QueryCost {
                        query: name.clone(),
                        ops: Vec::new(),
                        errors: 1,
                        violations: 0,
                    }
                }),
            );
        }
        // quickstart is last; its catalog feeds the pathological plans
        quickstart_catalog = Some(catalog);
    }
    let pathological = pathological(&quickstart_catalog.expect("at least one dataset"));

    let mut q_errors: Vec<f64> = queries
        .iter()
        .flat_map(|q| q.ops.iter().filter_map(|o| o.q_error))
        .collect();
    q_errors.sort_by(f64::total_cmp);
    CostcheckReport {
        q_p50: percentile(&q_errors, 0.50),
        q_p90: percentile(&q_errors, 0.90),
        q_p99: percentile(&q_errors, 0.99),
        q_max: q_errors.last().copied().unwrap_or(1.0),
        q_samples: q_errors.len(),
        queries,
        pathological,
    }
}

/// The `costcheck` gate: one row per query and per pathological plan.
/// Errors are clean-corpus C-errors (including queries that failed to
/// run), soundness violations, and pathological plans whose code did not
/// fire.
pub fn gate(_: &GateArgs) -> Result<GateReport, String> {
    gs_telemetry::install(gs_telemetry::Registry::new());
    let report = run();
    let mut table = TablePrinter::new(&["query", "ops", "est rows", "actual", "max q", "sound"]);
    for q in &report.queries {
        let max_q = q
            .ops
            .iter()
            .filter_map(|o| o.q_error)
            .fold(1.0f64, f64::max);
        let (est, actual) = q.ops.last().map(|o| (o.est, o.actual)).unwrap_or((0.0, 0));
        let sound = match (q.ops.is_empty(), q.violations) {
            (true, _) => "FAILED",
            (false, 0) => "yes",
            _ => "NO",
        };
        table.row(vec![
            q.query.clone(),
            q.ops.len().to_string(),
            format!("{est:.1}"),
            actual.to_string(),
            format!("{max_q:.1}"),
            sound.to_string(),
        ]);
    }
    for p in &report.pathological {
        table.row(vec![
            p.name.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            p.expected.to_string(),
            if p.fired { "fired" } else { "MISSED" }.to_string(),
        ]);
    }
    let summary = format!(
        "\ncostcheck: {} queries, {} op samples, q-error p50 {:.2} p90 {:.2} p99 {:.2} max {:.2}; \
         {} clean-corpus error(s), {} soundness violation(s), {} pathological missed\n{}",
        report.queries.len(),
        report.q_samples,
        report.q_p50,
        report.q_p90,
        report.q_p99,
        report.q_max,
        report.clean_errors(),
        report.soundness_violations(),
        report.pathological_missed(),
        gs_telemetry::global().text_report(),
    );
    Ok(GateReport {
        table,
        summary,
        errors: report.clean_errors()
            + report.soundness_violations()
            + report.pathological_missed(),
        warnings: 0,
        json: Some(report.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: the clean corpus stays C-error-free, every
    /// actual cardinality falls inside its predicted interval, and each
    /// pathological plan fires exactly its code.
    #[test]
    fn corpus_is_clean_and_sound() {
        let report = run();
        assert!(
            report.queries.len() >= 24,
            "corpus size: {}",
            report.queries.len()
        );
        // a plan that fails to build is an error row, not a dropped query:
        // costcheck sees exactly the queries irlint verifies
        let names: Vec<String> = report.queries.iter().map(|q| q.query.clone()).collect();
        let irlint_names: Vec<String> = crate::irlint::lint_all()
            .into_iter()
            .map(|r| r.query)
            .collect();
        assert_eq!(names, irlint_names);
        for q in &report.queries {
            assert_eq!(q.errors, 0, "{} raised C-errors", q.query);
            for o in &q.ops {
                assert!(
                    o.sound,
                    "{}: {} actual {} outside [{}, {}]",
                    q.query, o.op, o.actual, o.lo, o.hi
                );
            }
        }
        for p in &report.pathological {
            assert!(p.fired, "{} did not fire {}", p.name, p.expected);
        }
        assert!(report.q_samples > 0);
        assert!(report.q_p50 >= 1.0 && report.q_p50 <= report.q_max);
    }
}
