//! gs-lint: source-level invariant linter for the GraphScope Flex
//! workspace.
//!
//! The stack's previous PRs each introduced a cross-cutting contract that
//! the compiler cannot check: sanitizer-instrumented crates must use
//! tracked sync primitives (PR 4), cross-worker float reductions must not
//! depend on hash iteration order (PR 7 fixed exactly such a PageRank
//! drift), engine loops must not panic on disconnected channels, telemetry
//! names must match DESIGN.md's documented registry, instrumentation
//! features must forward through the dependency graph, and deterministic
//! replay paths must not read the wall clock. gs-lint re-checks all six on
//! every CI run by lexing the workspace's own sources (with a small
//! in-tree lexer — no external parser) and reading its Cargo manifests.
//!
//! Diagnostics carry stable `L00x` codes (the `gs-ir::verify` E/W-code
//! idiom one layer up), each configurable Off/Warn/Deny, suppressible by
//! an inline `// gs-lint: allow(Lxxx reason)` with a mandatory written
//! justification, or by the committed `lint-baseline.txt`. Stale baseline
//! entries are themselves errors, so suppression can only shrink honestly.
//! The `gate lint` command in gs-bench renders the report and gates CI.

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod manifest;
pub mod registry;
pub mod suppress;
pub mod workspace;

pub use diag::{
    describe, Finding, Level, Suppressed, ALL_CODES, L001, L002, L003, L004, L005, L006,
};
pub use registry::TelemetryRegistry;
pub use suppress::BaselineEntry;

use lints::{collect_facts, CrateFacts, FileCx};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// Committed baseline of justified findings, at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";
/// Machine-readable registry dump, regenerated from DESIGN.md.
pub const REGISTRY_DUMP_FILE: &str = "telemetry-registry.txt";

/// Which lints run where, and at what level.
#[derive(Clone, Debug)]
pub struct LintConfig {
    levels: BTreeMap<&'static str, Level>,
    /// Crates under the sanitizer contract (L001).
    pub instrumented_crates: Vec<String>,
    /// Crates whose channel use is engine-critical (L003).
    pub engine_crates: Vec<String>,
    /// Workspace-relative path prefixes that must be deterministic (L006).
    pub deterministic_paths: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        let mut levels = BTreeMap::new();
        for code in ALL_CODES {
            levels.insert(code, Level::Deny);
        }
        // L002 is a heuristic (no type information) — warn, don't deny.
        levels.insert(L002, Level::Warn);
        Self {
            levels,
            instrumented_crates: [
                "gs-grape",
                "gs-hiactor",
                "gs-learn",
                "gs-serve",
                "gs-telemetry",
                "gs-graphar",
            ]
            .map(String::from)
            .to_vec(),
            engine_crates: [
                "gs-grape",
                "gs-hiactor",
                "gs-gaia",
                "gs-learn",
                "gs-serve",
                "gs-baselines",
                "gs-bench",
            ]
            .map(String::from)
            .to_vec(),
            deterministic_paths: [
                "crates/gs-grape/src/recover.rs",
                "crates/gs-chaos/src",
                // WAL replay and crash recovery must be a pure function of
                // the bytes on disk — wall-clock reads there break the
                // kill-anywhere equivalence the durability bench asserts.
                "crates/gs-gart/src/wal.rs",
                "crates/gs-gart/src/recovery.rs",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

impl LintConfig {
    /// Effective level for `code`.
    pub fn level(&self, code: &str) -> Level {
        self.levels.get(code).copied().unwrap_or(Level::Deny)
    }

    /// Overrides the level for `code`.
    pub fn set_level(&mut self, code: &'static str, level: Level) {
        self.levels.insert(code, level);
    }

    fn on(&self, code: &str) -> bool {
        self.level(code) != Level::Off
    }
}

/// Result of a workspace (or fixture) lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Kept findings with their effective levels, sorted by (file, line).
    pub findings: Vec<(Finding, Level)>,
    /// Findings suppressed by inline allows or the baseline.
    pub suppressed: Vec<Suppressed>,
    /// Baseline entries that matched nothing (must be deleted).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Malformed inline allows: (file, line, problem).
    pub malformed_allows: Vec<(String, u32, String)>,
    /// Malformed baseline lines: (line, problem).
    pub baseline_errors: Vec<(u32, String)>,
    pub files_scanned: usize,
    /// Names extracted from DESIGN.md.
    pub registry_size: usize,
}

impl LintReport {
    /// Findings at Deny level (always fatal).
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|(_, l)| *l == Level::Deny)
            .count()
    }

    /// Findings at Warn level (fatal only under `--deny`).
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|(_, l)| *l == Level::Warn)
            .count()
    }

    /// Suppression-hygiene problems (stale baseline entries, malformed
    /// allows, unparseable baseline lines) — always fatal: a rotten
    /// suppression is a lint that silently stopped running.
    pub fn hygiene_errors(&self) -> usize {
        self.stale_baseline.len() + self.malformed_allows.len() + self.baseline_errors.len()
    }

    /// Exit-code-determining error count.
    pub fn error_count(&self, deny_warnings: bool) -> usize {
        let warns = if deny_warnings { self.warn_count() } else { 0 };
        self.deny_count() + warns + self.hygiene_errors()
    }
}

/// Runs the per-file lints on one lexed source file.
pub fn run_file_lints(cx: &FileCx, cfg: &LintConfig, registry: &TelemetryRegistry) -> Vec<Finding> {
    let mut out = Vec::new();
    if cfg.on(L001) && cfg.instrumented_crates.iter().any(|c| c == cx.crate_name) {
        lints::l001(cx, &mut out);
    }
    if cfg.on(L002) {
        lints::l002(cx, &mut out);
    }
    if cfg.on(L003) && cfg.engine_crates.iter().any(|c| c == cx.crate_name) {
        lints::l003(cx, &mut out);
    }
    if cfg.on(L004) {
        lints::l004(cx, registry, &mut out);
    }
    if cfg.on(L006)
        && cfg
            .deterministic_paths
            .iter()
            .any(|p| cx.rel_path.starts_with(p.as_str()))
    {
        lints::l006(cx, &mut out);
    }
    out
}

/// Lints one in-memory source file — the fixture-test entry point.
/// Returns (kept findings, inline-suppressed, malformed allows).
pub fn lint_source(
    rel_path: &str,
    crate_name: &str,
    src: &str,
    cfg: &LintConfig,
    registry: &TelemetryRegistry,
) -> (Vec<Finding>, Vec<Suppressed>, Vec<(u32, String)>) {
    let lexed = lexer::lex(src);
    let cx = FileCx::new(rel_path, crate_name, false, &lexed.tokens, src);
    let raw = run_file_lints(&cx, cfg, registry);
    let (allows, malformed) = suppress::parse_inline_allows(&lexed.comments);
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in raw {
        match suppress::matching_allow(&allows, &f) {
            Some(a) => suppressed.push(Suppressed {
                finding: f,
                mechanism: "inline",
                reason: a.reason.clone(),
            }),
            None => kept.push(f),
        }
    }
    (kept, suppressed, malformed)
}

/// Renders the machine-readable registry dump (one name per line,
/// `{field}` marking templated names).
pub fn format_registry(registry: &TelemetryRegistry) -> String {
    let mut out = String::from(
        "# telemetry name registry — generated from DESIGN.md's telemetry tables\n\
         # regenerate with: cargo run -p gs-bench --bin gate -- lint --write-registry\n",
    );
    for e in registry.names() {
        out.push_str(&e.base);
        if e.templated {
            out.push_str("{field}");
        }
        out.push('\n');
    }
    out
}

/// Lints the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> io::Result<LintReport> {
    let ws = workspace::discover(root)?;
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let registry = TelemetryRegistry::from_design_md(&design);
    let baseline_text = fs::read_to_string(root.join(BASELINE_FILE)).unwrap_or_default();
    let (baseline, baseline_errors) = suppress::parse_baseline(&baseline_text);

    let mut raw = Vec::new();
    let mut suppressed = Vec::new();
    let mut malformed_allows = Vec::new();
    let mut facts: BTreeMap<String, CrateFacts> = ws
        .crates
        .iter()
        .map(|c| {
            (
                c.name.clone(),
                CrateFacts {
                    name: c.name.clone(),
                    manifest_path: c.manifest_rel.clone(),
                    manifest: c.manifest.clone(),
                    features_line: c.features_line,
                    ..CrateFacts::default()
                },
            )
        })
        .collect();

    let mut files_scanned = 0usize;
    let mut emitted = BTreeSet::new();
    for file in &ws.files {
        let Ok(src) = fs::read_to_string(&file.abs_path) else {
            continue;
        };
        files_scanned += 1;
        let lexed = lexer::lex(&src);
        let cx = FileCx::new(
            &file.rel_path,
            &file.crate_name,
            file.is_test_file,
            &lexed.tokens,
            &src,
        );
        if !file.is_test_file {
            if let Some(f) = facts.get_mut(&file.crate_name) {
                collect_facts(&cx, f);
            }
        }
        lints::collect_emitted(&cx, &mut emitted);
        let file_findings = run_file_lints(&cx, cfg, &registry);
        let (allows, malformed) = suppress::parse_inline_allows(&lexed.comments);
        for (line, msg) in malformed {
            malformed_allows.push((file.rel_path.clone(), line, msg));
        }
        for f in file_findings {
            match suppress::matching_allow(&allows, &f) {
                Some(a) => suppressed.push(Suppressed {
                    finding: f,
                    mechanism: "inline",
                    reason: a.reason.clone(),
                }),
                None => raw.push(f),
            }
        }
    }

    if cfg.on(L005) {
        let declarers = ws.feature_declarers();
        for f in facts.values() {
            raw.extend(lints::l005(f, &declarers));
        }
    }

    if cfg.on(L004) {
        if registry.is_empty() {
            raw.push(Finding {
                code: L004,
                file: "DESIGN.md".into(),
                line: 1,
                message: "no telemetry names could be extracted from DESIGN.md's tables — \
                          the registry the L004 lint checks against is empty"
                    .into(),
                snippet: String::new(),
            });
        }
        // committed machine-readable dump must match the live extraction
        if let Ok(existing) = fs::read_to_string(root.join(REGISTRY_DUMP_FILE)) {
            if existing != format_registry(&registry) {
                raw.push(Finding {
                    code: L004,
                    file: REGISTRY_DUMP_FILE.into(),
                    line: 1,
                    message: "registry dump is out of date with DESIGN.md — regenerate with \
                              `cargo run -p gs-bench --bin gate -- lint --write-registry`"
                        .into(),
                    snippet: String::new(),
                });
            }
        }
        raw.extend(lints::l004_unemitted(&registry, &emitted));
    }

    let (kept, base_sup, stale_baseline) = suppress::apply_baseline(raw, &baseline);
    suppressed.extend(base_sup.into_iter().map(|(finding, reason)| Suppressed {
        finding,
        mechanism: "baseline",
        reason,
    }));

    let mut findings: Vec<(Finding, Level)> = kept
        .into_iter()
        .map(|f| {
            let level = cfg.level(f.code);
            (f, level)
        })
        .filter(|(_, l)| *l != Level::Off)
        .collect();
    findings.sort_by(|a, b| {
        (a.0.file.as_str(), a.0.line, a.0.code).cmp(&(b.0.file.as_str(), b.0.line, b.0.code))
    });

    Ok(LintReport {
        findings,
        suppressed,
        stale_baseline,
        malformed_allows,
        baseline_errors,
        files_scanned,
        registry_size: registry.len(),
    })
}
