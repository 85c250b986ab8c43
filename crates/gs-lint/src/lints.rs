//! The six lint passes, L001–L006, over the token stream and manifests.
//!
//! These are pattern matchers, not a type checker: each pass encodes one
//! cross-cutting contract of the stack precisely enough to catch the real
//! violation classes previous PRs fixed by hand, with inline allows and
//! the baseline absorbing the judgment calls a source-level view cannot
//! make. False-negative-averse where the contract is cheap to follow
//! (L001, L003, L006), false-positive-averse where it needs type
//! knowledge we don't have (L002).

use crate::diag::{normalize_snippet, Finding, L001, L002, L003, L004, L005, L006};
use crate::lexer::{TokKind, Token};
use crate::manifest::Manifest;
use crate::registry::{is_metric_base, TelemetryRegistry};
use std::collections::{BTreeMap, BTreeSet, HashSet};

// ---------------------------------------------------------------------
// token-stream helpers
// ---------------------------------------------------------------------

fn ident(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn is_ident(toks: &[Token], i: usize, text: &str) -> bool {
    ident(toks, i) == Some(text)
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i)
        .map(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.as_bytes()[0] == c as u8)
        .unwrap_or(false)
}

/// `::` — two consecutive colon puncts at `i`.
fn is_cc(toks: &[Token], i: usize) -> bool {
    is_punct(toks, i, ':') && is_punct(toks, i + 1, ':')
}

/// Index of the delimiter matching the opener at `open` (`(`/`[`/`{`).
/// Returns `toks.len() - 1` on unbalanced input.
fn close_of(toks: &[Token], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        if let Some(t) = toks.get(i) {
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') | Some(b'[') | Some(b'{') => depth += 1,
                    Some(b')') | Some(b']') | Some(b'}') => {
                        depth -= 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// file context
// ---------------------------------------------------------------------

/// One lexed source file plus the classification the passes need.
pub struct FileCx<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Owning crate's package name ("" if unknown).
    pub crate_name: &'a str,
    /// True for files under `tests/`, `benches/`, or `examples/`.
    pub is_test_file: bool,
    pub tokens: &'a [Token],
    /// Raw source lines, for snippets.
    pub lines: Vec<&'a str>,
    /// Line ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl<'a> FileCx<'a> {
    pub fn new(
        rel_path: &'a str,
        crate_name: &'a str,
        is_test_file: bool,
        tokens: &'a [Token],
        src: &'a str,
    ) -> Self {
        Self {
            rel_path,
            crate_name,
            is_test_file,
            tokens,
            lines: src.lines().collect(),
            test_ranges: test_line_ranges(tokens),
        }
    }

    /// Is `line` inside test-only code (test file or `#[cfg(test)]` item)?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(s, e)| s <= line && line <= e)
    }

    fn finding(&self, code: &'static str, line: u32, message: String) -> Finding {
        Finding {
            code,
            file: self.rel_path.to_string(),
            line,
            message,
            snippet: normalize_snippet(self.lines.get(line as usize - 1).copied().unwrap_or("")),
        }
    }
}

/// Line ranges covered by items carrying a `test` attribute
/// (`#[cfg(test)] mod …`, `#[test] fn …`, `#[cfg(all(test, …))] …`).
/// A range starts at the first attribute of the item's attribute run, so
/// sibling attributes like `#[cfg(feature = "…")]` are covered too.
pub fn test_line_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(is_punct(toks, i, '#')
            && (is_punct(toks, i + 1, '[')
                || (is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '['))))
        {
            i += 1;
            continue;
        }
        // consume the whole attribute run, noting whether any attr
        // mentions the `test` ident
        let attr_start_line = toks[i].line;
        let mut has_test = false;
        let mut j = i;
        loop {
            let open = if is_punct(toks, j, '#') && is_punct(toks, j + 1, '[') {
                j + 1
            } else if is_punct(toks, j, '#')
                && is_punct(toks, j + 1, '!')
                && is_punct(toks, j + 2, '[')
            {
                j + 2
            } else {
                break;
            };
            let close = close_of(toks, open);
            if toks[open..=close.min(toks.len() - 1)]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "test")
            {
                has_test = true;
            }
            j = close + 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // find the item body `{…}` (or `;` for bodiless items)
        let mut k = j;
        let mut end_line = None;
        while k < toks.len() {
            if is_punct(toks, k, '{') {
                let close = close_of(toks, k);
                end_line = Some(toks.get(close).map(|t| t.line).unwrap_or(u32::MAX));
                j = close + 1;
                break;
            }
            if is_punct(toks, k, ';') {
                end_line = Some(toks[k].line);
                j = k + 1;
                break;
            }
            if is_punct(toks, k, '(') || is_punct(toks, k, '[') {
                k = close_of(toks, k) + 1;
                continue;
            }
            k += 1;
        }
        if let Some(end) = end_line {
            out.push((attr_start_line, end));
        }
        i = j.max(i + 1);
    }
    out
}

// ---------------------------------------------------------------------
// L001 — raw sync primitives in instrumented crates
// ---------------------------------------------------------------------

const STD_SYNC_TARGETS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "Barrier"];
const PARKING_LOT_TARGETS: [&str; 2] = ["Mutex", "RwLock"];

fn l001_suggestion(name: &str) -> &'static str {
    match name {
        "Mutex" => "use gs_sanitizer::TrackedMutex",
        "RwLock" => "use gs_sanitizer::TrackedRwLock",
        "Barrier" => "use gs_sanitizer::TrackedBarrier",
        "Condvar" => "no tracked equivalent exists — justify with an allow or restructure",
        _ => "use a tracked wrapper",
    }
}

/// Flags `std::sync::{Mutex,RwLock,Condvar,Barrier}` and
/// `parking_lot::{Mutex,RwLock}` mentions (imports and qualified paths)
/// in sanitizer-instrumented crates, outside test code. Guard types
/// (`MutexGuard`) are fine: the tracked pass-throughs hand those out.
pub fn l001(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    let report = |j: usize, targets: &[&str], origin: &str, out: &mut Vec<Finding>| {
        let mut hits: Vec<(u32, String)> = Vec::new();
        if let Some(name) = ident(toks, j) {
            if targets.contains(&name) {
                hits.push((toks[j].line, name.to_string()));
            }
        } else if is_punct(toks, j, '{') {
            let close = close_of(toks, j);
            for t in &toks[j..=close.min(toks.len() - 1)] {
                if t.kind == TokKind::Ident && targets.contains(&t.text.as_str()) {
                    hits.push((t.line, t.text.clone()));
                }
            }
        }
        for (line, name) in hits {
            if cx.in_test(line) {
                continue;
            }
            out.push(cx.finding(
                L001,
                line,
                format!(
                    "raw {origin}::{name} in sanitizer-instrumented crate `{}`: {}",
                    cx.crate_name,
                    l001_suggestion(&name)
                ),
            ));
        }
    };
    for i in 0..toks.len() {
        if is_ident(toks, i, "std")
            && is_cc(toks, i + 1)
            && is_ident(toks, i + 3, "sync")
            && is_cc(toks, i + 4)
        {
            report(i + 6, &STD_SYNC_TARGETS, "std::sync", out);
        }
        if is_ident(toks, i, "parking_lot") && is_cc(toks, i + 1) {
            report(i + 3, &PARKING_LOT_TARGETS, "parking_lot", out);
        }
    }
}

// ---------------------------------------------------------------------
// L002 — hash-order iteration feeding float accumulation
// ---------------------------------------------------------------------

const HASH_ITERS: [&str; 5] = ["values", "keys", "iter", "into_iter", "drain"];

fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f32") || text.ends_with("f64")
}

/// Identifiers bound to `HashMap`/`HashSet` in this file
/// (`x: HashMap<…>`, `x: &HashMap<…>`, `x = HashMap::new()`).
fn hash_bound_idents(toks: &[Token]) -> HashSet<String> {
    let mut set = HashSet::new();
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        let mut j = i;
        // walk back over `&`, `mut`
        while j > 0 && (is_punct(toks, j - 1, '&') || is_ident(toks, j - 1, "mut")) {
            j -= 1;
        }
        if j >= 2
            && (is_punct(toks, j - 1, ':') || is_punct(toks, j - 1, '='))
            && !is_punct(toks, j - 2, ':')
        {
            if let Some(bound) = ident(toks, j - 2) {
                set.insert(bound.to_string());
            }
        }
    }
    set
}

/// Identifiers with float evidence (`x: f64`, `x = 0.0`, `x = 1f32`).
fn float_idents(toks: &[Token]) -> HashSet<String> {
    let mut set = HashSet::new();
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if is_punct(toks, i + 1, ':')
            && !is_punct(toks, i + 2, ':')
            && matches!(ident(toks, i + 2), Some("f64") | Some("f32"))
        {
            set.insert(name.to_string());
        }
        if is_punct(toks, i + 1, '=')
            && toks
                .get(i + 2)
                .map(|t| t.kind == TokKind::Num && is_float_literal(&t.text))
                .unwrap_or(false)
        {
            set.insert(name.to_string());
        }
    }
    set
}

/// Flags (a) `for … in <hash-bound>.values()/… { … float += … }` loops
/// and (b) `<hash-bound>.values()….sum::<f64>()` / `.fold(0.0, …)`
/// chains. Iteration order of std hash containers is randomized per
/// process; folding floats in that order is the run-to-run drift class
/// the PageRank dangling-mass bug exemplified.
///
/// Bindings are tracked per file, not per scope: an identifier bound to
/// a `HashMap` anywhere in the file taints every iteration over that
/// name. That coarseness (plus the lack of type information) is why
/// L002 defaults to Warn rather than Deny.
pub fn l002(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    let maps = hash_bound_idents(toks);
    if maps.is_empty() {
        return;
    }
    let floats = float_idents(toks);

    // (a) for-loops
    for i in 0..toks.len() {
        if !is_ident(toks, i, "for") || cx.in_test(toks[i].line) {
            continue;
        }
        // find `in` at depth 0 (skipping destructuring-pattern groups)
        let mut k = i + 1;
        let mut found_in = None;
        while k < toks.len() && k < i + 64 {
            if is_punct(toks, k, '(') || is_punct(toks, k, '[') {
                k = close_of(toks, k) + 1;
                continue;
            }
            if is_punct(toks, k, '{') {
                break;
            }
            if is_ident(toks, k, "in") {
                found_in = Some(k);
                break;
            }
            k += 1;
        }
        let Some(in_at) = found_in else { continue };
        // iterable expression: tokens until the body `{` at depth 0
        let mut e = in_at + 1;
        let mut body_open = None;
        while e < toks.len() {
            if is_punct(toks, e, '(') || is_punct(toks, e, '[') {
                e = close_of(toks, e) + 1;
                continue;
            }
            if is_punct(toks, e, '{') {
                body_open = Some(e);
                break;
            }
            e += 1;
        }
        let Some(body_open) = body_open else { continue };
        let expr = &toks[in_at + 1..body_open];
        let map_var = expr
            .iter()
            .find(|t| t.kind == TokKind::Ident && maps.contains(&t.text));
        let Some(map_var) = map_var else { continue };
        let is_hash_iter = expr
            .iter()
            .any(|t| t.kind == TokKind::Ident && HASH_ITERS.contains(&t.text.as_str()))
            || expr
                .iter()
                .all(|t| t.kind != TokKind::Ident || maps.contains(&t.text) || t.text == "mut");
        if !is_hash_iter {
            continue;
        }
        // body: bare-identifier float accumulation
        let body_close = close_of(toks, body_open);
        for b in body_open..body_close {
            if let Some(acc) = ident(toks, b) {
                if floats.contains(acc)
                    && is_punct(toks, b + 1, '+')
                    && is_punct(toks, b + 2, '=')
                    && !is_punct(toks, b.wrapping_sub(1), '.')
                {
                    out.push(cx.finding(
                        L002,
                        toks[i].line,
                        format!(
                            "iteration over hash container `{}` accumulates into float `{acc}`: \
                             hash order is nondeterministic — reduce in sorted key order",
                            map_var.text
                        ),
                    ));
                    break;
                }
            }
        }
    }

    // (b) direct reduce chains
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if !maps.contains(name)
            || cx.in_test(toks[i].line)
            || !is_punct(toks, i + 1, '.')
            || !matches!(ident(toks, i + 2), Some(m) if HASH_ITERS.contains(&m))
        {
            continue;
        }
        let mut k = i + 3;
        let mut hit = None;
        while k < toks.len() && k < i + 200 {
            if is_punct(toks, k, ';') {
                break;
            }
            if is_ident(toks, k, "sum")
                && is_cc(toks, k + 1)
                && is_punct(toks, k + 3, '<')
                && matches!(ident(toks, k + 4), Some("f64") | Some("f32"))
            {
                hit = Some("sum");
                break;
            }
            if is_ident(toks, k, "fold")
                && is_punct(toks, k + 1, '(')
                && toks
                    .get(k + 2)
                    .map(|t| t.kind == TokKind::Num && is_float_literal(&t.text))
                    .unwrap_or(false)
            {
                hit = Some("fold");
                break;
            }
            k += 1;
        }
        if let Some(op) = hit {
            out.push(cx.finding(
                L002,
                toks[i].line,
                format!(
                    "`{name}.{}()…{op}` reduces floats in hash order: \
                     nondeterministic across runs — sort keys first",
                    toks[i + 2].text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// L003 — unwrap/expect on channel send/recv in engine code
// ---------------------------------------------------------------------

const CHANNEL_METHODS: [&str; 5] = ["send", "try_send", "recv", "try_recv", "recv_timeout"];

/// Flags `.recv().unwrap()` / `.send(x).expect(…)` chains: in engine,
/// shard, and recovery loops a disconnected peer is an expected failure
/// mode (worker death, shutdown, chaos kill) and must become a
/// structured `GraphError` or a graceful loop exit, not a panic that
/// poisons the whole process — the class PR 4 fixed in HiActor shards.
pub fn l003(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        let Some(m) = ident(toks, i) else { continue };
        if !CHANNEL_METHODS.contains(&m)
            || i == 0
            || !is_punct(toks, i - 1, '.')
            || !is_punct(toks, i + 1, '(')
            || cx.in_test(toks[i].line)
        {
            continue;
        }
        let close = close_of(toks, i + 1);
        if is_punct(toks, close + 1, '.') {
            if let Some(next) = ident(toks, close + 2) {
                if next == "unwrap" || next == "expect" {
                    out.push(cx.finding(
                        L003,
                        toks[i].line,
                        format!(
                            "`.{m}().{next}()` in engine code: a dead peer panics here — \
                             return a structured GraphError or exit the loop gracefully"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// L004 — telemetry name hygiene
// ---------------------------------------------------------------------

const TELEMETRY_MACROS: [&str; 3] = ["counter", "observe", "span"];
const TELEMETRY_STATICS: [&str; 2] = ["StaticCounter", "StaticHistogram"];

/// The name literal of every `counter!`/`observe!`/`span!` call and
/// `StaticCounter::new`/`StaticHistogram::new` in a file's non-test code,
/// with whether the call carries fields.
fn telemetry_calls<'t>(cx: &FileCx<'t>) -> Vec<(&'t Token, bool)> {
    let toks = cx.tokens;
    let str_at = |i: usize| toks.get(i).filter(|t| t.kind == TokKind::Str);
    let mut calls = Vec::new();
    for i in 0..toks.len() {
        let Some(m) = ident(toks, i) else { continue };
        if TELEMETRY_MACROS.contains(&m) && is_punct(toks, i + 1, '!') && is_punct(toks, i + 2, '(')
        {
            if let Some(t) = str_at(i + 3) {
                calls.push((t, is_punct(toks, i + 4, ',')));
            }
        }
        if TELEMETRY_STATICS.contains(&m)
            && is_cc(toks, i + 1)
            && is_ident(toks, i + 3, "new")
            && is_punct(toks, i + 4, '(')
        {
            if let Some(t) = str_at(i + 5) {
                calls.push((t, false));
            }
        }
    }
    calls.retain(|(t, _)| !cx.in_test(t.line));
    calls
}

/// Checks every telemetry name a file emits against the
/// `layer.noun[.verb]` convention and the registry extracted from
/// DESIGN.md's telemetry tables.
pub fn l004(cx: &FileCx, registry: &TelemetryRegistry, out: &mut Vec<Finding>) {
    for (t, has_fields) in telemetry_calls(cx) {
        let name = t.text.as_str();
        if !is_metric_base(name) {
            out.push(cx.finding(
                L004,
                t.line,
                format!(
                    "telemetry name `{name}` violates the layer.noun[.verb] convention \
                     (2–4 lowercase dotted segments)"
                ),
            ));
            continue;
        }
        match registry.get(name) {
            None => out.push(cx.finding(
                L004,
                t.line,
                format!(
                    "telemetry name `{name}` is not documented in DESIGN.md's telemetry \
                     tables — add it there (the registry is derived from the doc)"
                ),
            )),
            Some(entry) if has_fields && !entry.templated => out.push(cx.finding(
                L004,
                t.line,
                format!(
                    "telemetry name `{name}` carries dynamic fields in code but DESIGN.md \
                     documents it without a `{{field}}` template"
                ),
            )),
            Some(_) => {}
        }
    }
}

/// Adds the telemetry names a file's non-test code emits to `emitted`.
pub fn collect_emitted(cx: &FileCx, emitted: &mut BTreeSet<String>) {
    emitted.extend(telemetry_calls(cx).into_iter().map(|(t, _)| t.text.clone()));
}

/// The registry side of L004: a name DESIGN.md documents that no scanned
/// source emits, such as one left behind by a deleted emitter.
pub fn l004_unemitted(registry: &TelemetryRegistry, emitted: &BTreeSet<String>) -> Vec<Finding> {
    registry
        .names()
        .filter(|e| !emitted.contains(&e.base))
        .map(|e| Finding {
            code: L004,
            file: "DESIGN.md".into(),
            line: e.line,
            message: format!(
                "telemetry name `{}` is documented but no source emits it — delete its \
                 DESIGN.md entry (and regenerate the registry dump) or restore its emitter",
                e.base
            ),
            snippet: e.base.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// L005 — feature-gate hygiene
// ---------------------------------------------------------------------

/// Per-crate facts the feature lint needs, aggregated over source files.
#[derive(Debug, Default)]
pub struct CrateFacts {
    pub name: String,
    /// Workspace-relative Cargo.toml path.
    pub manifest_path: String,
    pub manifest: Manifest,
    /// Line of `[features]` in the manifest (1 if absent).
    pub features_line: u32,
    /// Crate non-test source references `gs_sanitizer`.
    pub uses_sanitizer: bool,
    /// Crate non-test source references `gs_chaos`.
    pub uses_chaos: bool,
    /// feature name → (seen `cfg(feature)`, seen `cfg(not(feature))`),
    /// non-test source only.
    pub cfg_features: BTreeMap<String, (bool, bool)>,
}

/// Collects `cfg`/`cfg_attr` feature gates from one file into `facts`,
/// skipping test regions, and notes hook-crate references.
pub fn collect_facts(cx: &FileCx, facts: &mut CrateFacts) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if cx.in_test(toks[i].line) {
            continue;
        }
        match name {
            "gs_sanitizer" => facts.uses_sanitizer = true,
            "gs_chaos" => facts.uses_chaos = true,
            "cfg" | "cfg_attr" if is_punct(toks, i + 1, '(') => {
                let close = close_of(toks, i + 1);
                collect_cfg_features(toks, i + 2, close, false, &mut facts.cfg_features);
            }
            _ => {}
        }
    }
}

fn collect_cfg_features(
    toks: &[Token],
    start: usize,
    end: usize,
    negated: bool,
    out: &mut BTreeMap<String, (bool, bool)>,
) {
    let mut j = start;
    while j < end {
        if matches!(ident(toks, j), Some("not") | Some("any") | Some("all"))
            && is_punct(toks, j + 1, '(')
        {
            let inner_close = close_of(toks, j + 1);
            let inner_neg = negated || ident(toks, j) == Some("not");
            collect_cfg_features(toks, j + 2, inner_close, inner_neg, out);
            j = inner_close + 1;
            continue;
        }
        if is_ident(toks, j, "feature")
            && is_punct(toks, j + 1, '=')
            && toks
                .get(j + 2)
                .map(|t| t.kind == TokKind::Str)
                .unwrap_or(false)
        {
            let entry = out
                .entry(toks[j + 2].text.clone())
                .or_insert((false, false));
            if negated {
                entry.1 = true;
            } else {
                entry.0 = true;
            }
            j += 3;
            continue;
        }
        j += 1;
    }
}

/// Instrumentation features and their defining crates.
const HOOK_FEATURES: [(&str, &str); 2] = [("sanitize", "gs-sanitizer"), ("chaos", "gs-chaos")];

/// Runs the manifest-level checks for one crate. `declarers` maps a
/// feature name to every workspace crate (vendor included) declaring it.
pub fn l005(facts: &CrateFacts, declarers: &BTreeMap<String, BTreeSet<String>>) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |line: u32, message: String| Finding {
        code: L005,
        file: facts.manifest_path.clone(),
        line,
        message,
        snippet: normalize_snippet("[features]"),
    };

    for (feature, definer) in HOOK_FEATURES {
        // 1. hook use ⇒ the feature must exist and forward to the definer
        let uses = match feature {
            "sanitize" => facts.uses_sanitizer,
            _ => facts.uses_chaos,
        };
        if uses
            && facts.name != definer
            && !facts
                .manifest
                .forwards(feature, &format!("{definer}/{feature}"))
        {
            out.push(finding(
                facts.features_line,
                format!(
                    "crate uses {} hooks but `[features] {feature}` does not forward \
                     `{definer}/{feature}` — zero-cost gating breaks",
                    definer.replace('-', "_")
                ),
            ));
        }
        // 2. declared ⇒ forwarded to every dependency that also declares it
        if facts.manifest.declares_feature(feature) {
            if let Some(who) = declarers.get(feature) {
                for dep in &facts.manifest.dependencies {
                    if who.contains(dep)
                        && !facts
                            .manifest
                            .forwards(feature, &format!("{dep}/{feature}"))
                    {
                        out.push(finding(
                            facts.features_line,
                            format!(
                                "feature `{feature}` does not forward to dependency `{dep}` \
                                 which declares it — enabling it here leaves `{dep}` un-instrumented"
                            ),
                        ));
                    }
                }
            }
        }
    }

    // 3. every cfg(feature = "f") needs a cfg(not(feature = "f"))
    //    passthrough counterpart somewhere in the crate's non-test code
    for (feature, &(pos, neg)) in &facts.cfg_features {
        if pos && !neg && facts.manifest.declares_feature(feature) {
            out.push(finding(
                facts.features_line,
                format!(
                    "`cfg(feature = \"{feature}\")` has no `cfg(not(feature = \"{feature}\"))` \
                     passthrough counterpart — the default build silently loses the item"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// L006 — wall-clock reads in deterministic paths
// ---------------------------------------------------------------------

/// Flags `Instant::now()` / `SystemTime::now()` in files designated as
/// deterministic replay/checkpoint paths: recovery must replay
/// identically from the same checkpoint and fault plan, so time must be
/// injected (a parameter, a step counter, a seeded virtual clock).
pub fn l006(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        let Some(name) = ident(toks, i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && is_cc(toks, i + 1)
            && is_ident(toks, i + 3, "now")
            && !cx.in_test(toks[i].line)
        {
            out.push(cx.finding(
                L006,
                toks[i].line,
                format!(
                    "`{name}::now()` in a deterministic replay/checkpoint path: \
                     inject time (parameter, step counter, or seeded clock) instead"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_ranges_cover_attribute_runs() {
        let src = "\
fn prod() {}\n\
#[cfg(test)]\n\
#[cfg(feature = \"sanitize\")]\n\
mod tests {\n\
    fn helper() {}\n\
}\n\
fn also_prod() {}\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 6)]);
    }

    #[test]
    fn test_fn_attr_covered() {
        let src = "#[test]\nfn t() {\n    x.recv().unwrap();\n}\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(1, 4)]);
    }

    #[test]
    fn hash_bindings_found() {
        let src = "let mut sums: HashMap<u64, f64> = HashMap::new();\n\
                   fn f(table: &HashMap<u64, f64>, v: Vec<HashMap<u64, f64>>) {}\n";
        let lexed = lex(src);
        let set = hash_bound_idents(&lexed.tokens);
        assert!(set.contains("sums"));
        assert!(set.contains("table"));
        // `Vec<HashMap<…>>` is not a direct binding
        assert!(!set.contains("v"));
    }

    #[test]
    fn cfg_feature_extraction_handles_not_any_all() {
        let src = "\
#[cfg(feature = \"chaos\")]\nfn armed() {}\n\
#[cfg(not(feature = \"chaos\"))]\nfn disarmed() {}\n\
#[cfg(all(feature = \"x\", not(feature = \"y\")))]\nfn both() {}\n";
        let lexed = lex(src);
        let cx = FileCx::new("f.rs", "c", false, &lexed.tokens, src);
        let mut facts = CrateFacts::default();
        collect_facts(&cx, &mut facts);
        assert_eq!(facts.cfg_features["chaos"], (true, true));
        assert_eq!(facts.cfg_features["x"], (true, false));
        assert_eq!(facts.cfg_features["y"], (false, true));
    }
}
