//! `gate irlint` — run the GraphIR static verifier over every query of
//! the built-in corpus ([`crate::corpus`]) and print a diagnostic table.
//!
//! Each plan is verified at three stages: the logical plan, the naive
//! physical lowering, and the RBO-optimized physical plan — so a
//! regression in any rewrite rule shows up here as a new row.

use crate::gate::{GateArgs, GateReport};
use crate::util::TablePrinter;
use gs_graph::schema::GraphSchema;
use gs_ir::physical::{lower_naive, PhysicalPlan};
use gs_ir::verify::{Severity, VerifyReport};
use gs_ir::{verify_logical, verify_physical, LogicalPlan};
use gs_optimizer::Optimizer;

/// One verified query: its name and the per-stage reports.
pub struct LintResult {
    pub query: String,
    /// `(stage name, report)` — logical, physical, optimized.
    pub stages: Vec<(&'static str, VerifyReport)>,
}

/// Verifies one corpus query at all three stages; a query that failed to
/// build or parse is a single logical-stage error.
fn lint_plan(name: &str, plan: &gs_graph::Result<LogicalPlan>, schema: &GraphSchema) -> LintResult {
    let verify = |lowered: gs_graph::Result<PhysicalPlan>| match lowered {
        Ok(phys) => verify_physical(&phys, schema),
        Err(e) => lowering_failure(e),
    };
    let stages = match plan {
        Ok(plan) => vec![
            ("logical", verify_logical(plan, schema)),
            ("physical", verify(lower_naive(plan))),
            ("optimized", verify(Optimizer::rbo_only().optimize(plan))),
        ],
        Err(e) => vec![("logical", lowering_failure(e.clone()))],
    };
    LintResult {
        query: name.to_string(),
        stages,
    }
}

/// A plan that failed to lower at all is reported as a layout error so it
/// lands in the same table instead of aborting the run.
fn lowering_failure(e: gs_graph::GraphError) -> VerifyReport {
    VerifyReport {
        diagnostics: vec![gs_ir::Diagnostic {
            code: gs_ir::verify::E_LAYOUT_MISMATCH,
            severity: Severity::Error,
            op_index: None,
            rule: None,
            message: format!("lowering failed: {e}"),
        }],
    }
}

/// Verifies the whole built-in query corpus ([`crate::corpus`]).
pub fn lint_all() -> Vec<LintResult> {
    let mut out = Vec::new();
    for (data, queries) in crate::corpus::corpus() {
        for (name, plan) in &queries {
            out.push(lint_plan(name, plan, &data.schema));
        }
    }
    out
}

/// The `irlint` gate: one table row per diagnostic, plus the `ir.verify.*`
/// telemetry counters after the summary.
pub fn gate(_: &GateArgs) -> Result<GateReport, String> {
    gs_telemetry::install(gs_telemetry::Registry::new());
    let results = lint_all();
    let mut table = TablePrinter::new(&["query", "stage", "code", "severity", "op", "message"]);
    let (mut errors, mut warnings) = (0usize, 0usize);
    for r in &results {
        for (stage, report) in &r.stages {
            // feed the ir.verify.* counters exactly as a submit would
            let _ = gs_ir::verify::enforce(report, gs_ir::VerifyLevel::Warn, stage);
            errors += report.error_count();
            warnings += report.warning_count();
            for d in &report.diagnostics {
                table.row(vec![
                    r.query.clone(),
                    stage.to_string(),
                    d.code.to_string(),
                    match d.severity {
                        Severity::Error => "error".into(),
                        Severity::Warning => "warning".into(),
                    },
                    d.op_index.map(|i| i.to_string()).unwrap_or_default(),
                    d.message.clone(),
                ]);
            }
        }
    }
    Ok(GateReport {
        table,
        summary: format!(
            "irlint: {} queries verified, {errors} errors, {warnings} warnings\n{}",
            results.len(),
            gs_telemetry::global().text_report()
        ),
        errors,
        warnings,
        json: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: every built-in query passes verification with
    /// zero errors, and with zero warnings (the CI `--deny` bar).
    #[test]
    fn builtin_corpus_is_clean() {
        let results = lint_all();
        assert!(results.len() >= 24, "corpus size: {}", results.len());
        let corpus_names: Vec<String> = crate::corpus::corpus()
            .into_iter()
            .flat_map(|(_, queries)| queries.into_iter().map(|(name, _)| name))
            .collect();
        let names: Vec<&String> = results.iter().map(|r| &r.query).collect();
        assert_eq!(names, corpus_names.iter().collect::<Vec<_>>());
        for r in &results {
            assert_eq!(r.stages.len(), 3, "{} missing stages", r.query);
            for (stage, report) in &r.stages {
                assert!(
                    report.is_clean(),
                    "{} [{stage}]: {}",
                    r.query,
                    report.render()
                );
            }
        }
    }
}
