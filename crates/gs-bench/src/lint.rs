//! `gate lint` — run the gs-lint workspace invariant linter and
//! print an irlint-style diagnostic table.
//!
//! The linter re-checks the stack's cross-cutting source contracts
//! (tracked sync primitives, deterministic reductions, graceful channel
//! failure, telemetry-name registry, feature-gate hygiene, injected
//! clocks) against the workspace's own sources and manifests. See
//! DESIGN.md §6g for the codes and the suppression story.

use crate::gate::{GateArgs, GateReport};
use crate::util::TablePrinter;
use gs_lint::{describe, format_registry, Level, LintConfig, ALL_CODES, REGISTRY_DUMP_FILE};

fn level_str(level: Level) -> &'static str {
    match level {
        Level::Off => "off",
        Level::Warn => "warn",
        Level::Deny => "deny",
    }
}

/// The `lint` gate. Deny-level findings and suppression-hygiene problems
/// are errors, warn-level findings are warnings; `--write-registry`
/// regenerates the machine-readable telemetry-name dump from DESIGN.md
/// before linting.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    // the workspace root is the nearest ancestor holding both `Cargo.toml`
    // and `crates/`
    let mut root = std::env::current_dir().map_err(|e| e.to_string())?;
    while !(root.join("Cargo.toml").is_file() && root.join("crates").is_dir()) {
        if !root.pop() {
            return Err("could not locate the workspace root".into());
        }
    }
    let cfg = LintConfig::default();

    if args.write_registry {
        let design = std::fs::read_to_string(root.join("DESIGN.md"))
            .map_err(|e| format!("cannot read DESIGN.md: {e}"))?;
        let registry = gs_lint::TelemetryRegistry::from_design_md(&design);
        std::fs::write(root.join(REGISTRY_DUMP_FILE), format_registry(&registry))
            .map_err(|e| format!("cannot write {REGISTRY_DUMP_FILE}: {e}"))?;
        println!("wrote {} names to {REGISTRY_DUMP_FILE}", registry.len());
    }

    let report =
        gs_lint::lint_workspace(&root, &cfg).map_err(|e| format!("workspace walk failed: {e}"))?;

    let mut table = TablePrinter::new(&["code", "level", "location", "message"]);
    for (f, level) in &report.findings {
        table.row(vec![
            f.code.to_string(),
            level_str(*level).to_string(),
            format!("{}:{}", f.file, f.line),
            f.message.clone(),
        ]);
    }
    for (file, line, msg) in &report.malformed_allows {
        table.row(vec![
            "allow".into(),
            "deny".into(),
            format!("{file}:{line}"),
            format!("malformed suppression: {msg}"),
        ]);
    }
    for (line, msg) in &report.baseline_errors {
        table.row(vec![
            "base".into(),
            "deny".into(),
            format!("{}:{line}", gs_lint::BASELINE_FILE),
            format!("malformed baseline entry: {msg}"),
        ]);
    }
    for e in &report.stale_baseline {
        table.row(vec![
            e.code.clone(),
            "deny".into(),
            format!("{}(baseline)", e.file),
            format!(
                "stale baseline entry (matches nothing): delete it — was: {}",
                e.reason
            ),
        ]);
    }
    let suppressed = &report.suppressed;
    let suppressed_by = |m: &str| suppressed.iter().filter(|s| s.mechanism == m).count();
    let mut summary = format!(
        "\n{} files scanned, {} registry names; {} deny, {} warn, {} suppressed \
         ({} inline, {} baseline), {} hygiene error(s)",
        report.files_scanned,
        report.registry_size,
        report.deny_count(),
        report.warn_count(),
        suppressed.len(),
        suppressed_by("inline"),
        suppressed_by("baseline"),
        report.hygiene_errors(),
    );
    for code in ALL_CODES {
        summary.push_str(&format!(
            "\n  {code} [{}] {}",
            level_str(cfg.level(code)),
            describe(code)
        ));
    }
    Ok(GateReport {
        table,
        summary,
        errors: report.deny_count() + report.hygiene_errors(),
        warnings: report.warn_count(),
        json: None,
    })
}
