//! Negative fixtures: every L-code must fire on a minimal bad example
//! and stay quiet on the corresponding good one, and the suppression
//! mechanisms must round-trip. Fixtures are inline strings (never files
//! on disk) so the workspace sweep itself stays clean.

use gs_lint::lints::{collect_emitted, collect_facts, l004_unemitted, l005, CrateFacts, FileCx};
use gs_lint::{lint_source, LintConfig, TelemetryRegistry, L001, L002, L003, L004, L005, L006};
use std::collections::{BTreeMap, BTreeSet};

fn registry() -> TelemetryRegistry {
    TelemetryRegistry::from_design_md(
        "| Layer | Counters |\n|---|---|\n\
         | Gaia | `gaia.records{op}`, `gaia.exchange_stall_ns` |\n",
    )
}

fn codes(findings: &[gs_lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_on_raw_primitives_in_instrumented_crate() {
    let src = "\
use std::sync::{Arc, Mutex};\n\
struct S { lock: parking_lot::RwLock<u32>, b: std::sync::Barrier }\n\
fn sig(g: std::sync::MutexGuard<'_, u32>) {}\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::sync::Mutex; // exempt: test code\n\
}\n";
    let (found, _, _) = lint_source(
        "crates/gs-grape/src/x.rs",
        "gs-grape",
        src,
        &LintConfig::default(),
        &registry(),
    );
    // Mutex (import), RwLock, Barrier — but not MutexGuard, not the
    // test-module import
    assert_eq!(codes(&found), vec![L001, L001, L001], "{found:?}");
    assert!(found.iter().all(|f| f.line <= 2), "{found:?}");
}

#[test]
fn l001_silent_in_uninstrumented_crate() {
    let src = "use std::sync::Mutex;\n";
    let (found, _, _) = lint_source(
        "crates/gs-baselines/src/x.rs",
        "gs-baselines",
        src,
        &LintConfig::default(),
        &registry(),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_fires_on_hash_iteration_feeding_float_accumulation() {
    let src = "\
fn reduce(parts: &HashMap<u64, f64>) -> f64 {\n\
    let mut total = 0.0;\n\
    for (_, v) in parts.iter() {\n\
        total += *v;\n\
    }\n\
    total\n\
}\n\
fn chain(parts: &HashMap<u64, f64>) -> f64 {\n\
    parts.values().sum::<f64>()\n\
}\n";
    let (found, _, _) = lint_source(
        "crates/gs-grape/src/x.rs",
        "gs-grape",
        src,
        &LintConfig::default(),
        &registry(),
    );
    assert_eq!(codes(&found), vec![L002, L002], "{found:?}");
}

#[test]
fn l002_silent_on_btreemap_and_keyed_accumulation() {
    let src = "\
fn ordered(ranked: &BTreeMap<u64, f64>) -> f64 {\n\
    let mut total = 0.0;\n\
    for (_, v) in ranked.iter() { total += *v; }\n\
    total\n\
}\n\
fn keyed(parts: &HashMap<u64, f64>, out: &mut HashMap<u64, f64>) {\n\
    for (k, v) in parts.iter() {\n\
        *out.entry(*k).or_insert(0.0) += *v;\n\
    }\n\
}\n";
    let (found, _, _) = lint_source(
        "crates/gs-grape/src/x.rs",
        "gs-grape",
        src,
        &LintConfig::default(),
        &registry(),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_fires_on_channel_unwrap_in_engine_crate() {
    let src = "\
fn pump(rx: &Receiver<u32>, tx: &Sender<u32>) {\n\
    let v = rx.recv().unwrap();\n\
    tx.send(v).expect(\"peer alive\");\n\
    let _ = rx.try_recv();\n\
}\n\
#[test]\n\
fn in_test() { rx.recv().unwrap(); }\n";
    let (found, _, _) = lint_source(
        "crates/gs-hiactor/src/x.rs",
        "gs-hiactor",
        src,
        &LintConfig::default(),
        &registry(),
    );
    assert_eq!(codes(&found), vec![L003, L003], "{found:?}");
    assert_eq!(found[0].line, 2);
    assert_eq!(found[1].line, 3);
}

#[test]
fn l003_silent_outside_engine_crates() {
    let src = "fn f(rx: &Receiver<u32>) { rx.recv().unwrap(); }\n";
    let (found, _, _) = lint_source(
        "crates/gs-datagen/src/x.rs",
        "gs-datagen",
        src,
        &LintConfig::default(),
        &registry(),
    );
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------- L004

#[test]
fn l004_fires_on_malformed_unknown_and_untemplated_names() {
    let src = "\
fn f() {\n\
    counter!(\"BadName\"; 1);\n\
    counter!(\"gaia.not_documented\"; 1);\n\
    counter!(\"gaia.exchange_stall_ns\", op = \"x\"; 1);\n\
    counter!(\"gaia.records\", op = \"scan\"; 1);\n\
    let c = StaticCounter::new(\"gaia.exchange_stall_ns\");\n\
}\n";
    let (found, _, _) = lint_source(
        "crates/gs-gaia/src/x.rs",
        "gs-gaia",
        src,
        &LintConfig::default(),
        &registry(),
    );
    // line 2: convention violation; line 3: unknown; line 4: fields on an
    // untemplated name; lines 5–6 are fine
    assert_eq!(codes(&found), vec![L004, L004, L004], "{found:?}");
    assert_eq!(
        found.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn l004_fires_on_registered_names_nothing_emits() {
    // `gaia.exchange_stall_ns` (DESIGN.md line 3) is emitted only from a
    // test module and a test file, so no program code emits it
    let src = "\
fn f() { counter!(\"gaia.records\", op = \"scan\"; 1); }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn g() { counter!(\"gaia.exchange_stall_ns\"; 1); }\n\
}\n";
    let test_file = "fn t() { counter!(\"gaia.exchange_stall_ns\"; 1); }\n";
    let mut emitted = BTreeSet::new();
    for (path, is_test_file, text) in [
        ("crates/gs-gaia/src/x.rs", false, src),
        ("crates/gs-gaia/tests/t.rs", true, test_file),
    ] {
        let lexed = gs_lint::lexer::lex(text);
        let cx = FileCx::new(path, "gs-gaia", is_test_file, &lexed.tokens, text);
        collect_emitted(&cx, &mut emitted);
    }
    let found = l004_unemitted(&registry(), &emitted);
    assert_eq!(codes(&found), vec![L004], "{found:?}");
    assert_eq!((found[0].file.as_str(), found[0].line), ("DESIGN.md", 3));
    assert!(found[0].message.contains("gaia.exchange_stall_ns"));
    // once program code emits it, the registry is fully covered
    emitted.insert("gaia.exchange_stall_ns".into());
    assert!(l004_unemitted(&registry(), &emitted).is_empty());
}

// ---------------------------------------------------------------- L005

fn facts_for(name: &str, manifest_text: &str, src: &str) -> CrateFacts {
    let lexed = gs_lint::lexer::lex(src);
    let cx = FileCx::new("crates/x/src/lib.rs", name, false, &lexed.tokens, src);
    let mut facts = CrateFacts {
        name: name.to_string(),
        manifest_path: "crates/x/Cargo.toml".into(),
        manifest: gs_lint::manifest::parse(manifest_text),
        features_line: 1,
        ..CrateFacts::default()
    };
    collect_facts(&cx, &mut facts);
    facts
}

fn declarers() -> BTreeMap<String, BTreeSet<String>> {
    let mut m = BTreeMap::new();
    m.insert(
        "sanitize".to_string(),
        ["gs-sanitizer", "gs-telemetry"]
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>(),
    );
    m
}

#[test]
fn l005_fires_on_missing_hook_forward() {
    let facts = facts_for(
        "gs-x",
        "[package]\nname = \"gs-x\"\n[dependencies]\ngs-sanitizer.workspace = true\n",
        "use gs_sanitizer::TrackedMutex;\n",
    );
    let found = l005(&facts, &declarers());
    assert_eq!(codes(&found), vec![L005], "{found:?}");
    assert!(found[0].message.contains("gs-sanitizer/sanitize"));
}

#[test]
fn l005_fires_on_unforwarded_dependency_feature() {
    let facts = facts_for(
        "gs-x",
        "[package]\nname = \"gs-x\"\n\
         [dependencies]\ngs-sanitizer.workspace = true\ngs-telemetry.workspace = true\n\
         [features]\nsanitize = [\"gs-sanitizer/sanitize\"]\n",
        "use gs_sanitizer::TrackedMutex;\n",
    );
    let found = l005(&facts, &declarers());
    // forwards the definer but not gs-telemetry, which also declares it
    assert_eq!(codes(&found), vec![L005], "{found:?}");
    assert!(found[0].message.contains("gs-telemetry"));
}

#[test]
fn l005_fires_on_cfg_without_passthrough() {
    let facts = facts_for(
        "gs-x",
        "[package]\nname = \"gs-x\"\n[features]\nfast = []\n",
        "#[cfg(feature = \"fast\")]\nfn fast_path() {}\n",
    );
    let found = l005(&facts, &declarers());
    assert_eq!(codes(&found), vec![L005], "{found:?}");
    assert!(found[0].message.contains("passthrough"));
}

#[test]
fn l005_silent_when_hygiene_holds() {
    let facts = facts_for(
        "gs-x",
        "[package]\nname = \"gs-x\"\n\
         [dependencies]\ngs-sanitizer.workspace = true\ngs-telemetry.workspace = true\n\
         [features]\nsanitize = [\"gs-sanitizer/sanitize\", \"gs-telemetry/sanitize\"]\nfast = []\n",
        "use gs_sanitizer::TrackedMutex;\n\
         #[cfg(feature = \"fast\")]\nfn fast_path() {}\n\
         #[cfg(not(feature = \"fast\"))]\nfn fast_path() {}\n",
    );
    let found = l005(&facts, &declarers());
    assert!(found.is_empty(), "{found:?}");
}

// ---------------------------------------------------------------- L006

#[test]
fn l006_fires_only_in_deterministic_paths() {
    let src = "fn stamp() -> Instant { let t = Instant::now(); t }\n\
               fn wall() -> SystemTime { SystemTime::now() }\n";
    let cfg = LintConfig::default();
    let (found, _, _) = lint_source(
        "crates/gs-grape/src/recover.rs",
        "gs-grape",
        src,
        &cfg,
        &registry(),
    );
    assert_eq!(codes(&found), vec![L006, L006], "{found:?}");
    let (outside, _, _) = lint_source(
        "crates/gs-grape/src/engine.rs",
        "gs-grape",
        src,
        &cfg,
        &registry(),
    );
    assert!(outside.is_empty(), "{outside:?}");
}

// ----------------------------------------------------- suppression

#[test]
fn inline_allow_suppresses_with_reason_and_reports_malformed() {
    let src = "\
// gs-lint: allow(L001 init-only, single-threaded at this point)\n\
use std::sync::Mutex;\n\
// gs-lint: allow(L001)\n\
use std::sync::Barrier;\n";
    let (found, suppressed, malformed) = lint_source(
        "crates/gs-grape/src/x.rs",
        "gs-grape",
        src,
        &LintConfig::default(),
        &registry(),
    );
    // the reasoned allow suppresses the Mutex; the reasonless one is
    // malformed and the Barrier finding survives
    assert_eq!(codes(&found), vec![L001], "{found:?}");
    assert!(found[0].message.contains("Barrier"));
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].mechanism, "inline");
    assert!(suppressed[0].reason.contains("init-only"));
    assert_eq!(malformed.len(), 1, "{malformed:?}");
}

#[test]
fn baseline_round_trip_suppresses_and_detects_stale() {
    use gs_lint::suppress::{apply_baseline, format_baseline, parse_baseline, BaselineEntry};
    let (found, _, _) = lint_source(
        "crates/gs-grape/src/x.rs",
        "gs-grape",
        "use std::sync::Mutex;\n",
        &LintConfig::default(),
        &registry(),
    );
    assert_eq!(codes(&found), vec![L001]);
    let entries = vec![
        BaselineEntry {
            code: "L001".into(),
            file: "crates/gs-grape/src/x.rs".into(),
            occurrence: 0,
            snippet: found[0].snippet.clone(),
            reason: "legacy lock, tracked conversion scheduled".into(),
        },
        BaselineEntry {
            code: "L006".into(),
            file: "crates/gone.rs".into(),
            occurrence: 0,
            snippet: "Instant::now()".into(),
            reason: "no longer exists".into(),
        },
    ];
    // the committed format round-trips…
    let (parsed, errors) = parse_baseline(&format_baseline(&entries));
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(parsed, entries);
    // …the live finding is suppressed with its reason, and the entry
    // whose code matches nothing is reported stale
    let (kept, suppressed, stale) = apply_baseline(found, &parsed);
    assert!(kept.is_empty(), "{kept:?}");
    assert_eq!(suppressed.len(), 1);
    assert!(suppressed[0].1.contains("legacy lock"));
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].code, "L006");
}

// ------------------------------------------------- the self-host bar

/// The CI gate, as a test: the workspace's own sources must lint clean
/// (empty or justified baseline, no malformed suppressions, warnings
/// included).
#[test]
fn workspace_sweep_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = gs_lint::lint_workspace(&root, &LintConfig::default()).expect("sweep");
    assert!(report.files_scanned > 100, "walker found the workspace");
    assert!(
        report.registry_size > 30,
        "registry extracted from DESIGN.md"
    );
    let problems: Vec<String> = report
        .findings
        .iter()
        .map(|(f, _)| f.to_string())
        .chain(
            report
                .stale_baseline
                .iter()
                .map(|e| format!("stale baseline: {} {}", e.code, e.file)),
        )
        .chain(
            report
                .malformed_allows
                .iter()
                .map(|(f, l, m)| format!("malformed allow {f}:{l} {m}")),
        )
        .collect();
    assert_eq!(report.error_count(true), 0, "{problems:#?}");
}
