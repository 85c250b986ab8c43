//! The telemetry-name registry, extracted from DESIGN.md's tables.
//!
//! DESIGN.md documents every metric key the stack emits in markdown
//! tables (the "What each layer reports" matrix and the per-subsystem
//! rows added by later PRs). This module parses those tables into a
//! machine-readable registry so L004 and the docs can never drift: a
//! name used in code but absent from DESIGN.md is a lint error, and the
//! registry is re-derived from the document on every run rather than
//! committed as a second copy that could rot.
//!
//! Extraction rule: from every markdown table row (a line starting with
//! `|`), take each `` `backticked` `` span that looks like a metric key —
//! lowercase dotted segments, optionally with a `{field}` template suffix
//! (`gaia.records{op}`) marking keys that carry dynamic fields.

use std::collections::BTreeMap;

/// One documented metric name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Base name without any `{...}` template (`gaia.records`).
    pub base: String,
    /// True if the docs show a `{field}` template (dynamic fields).
    pub templated: bool,
    /// DESIGN.md line (1-based) of the first table row naming it.
    pub line: u32,
}

/// The set of documented names, keyed by base name.
#[derive(Clone, Debug, Default)]
pub struct TelemetryRegistry {
    entries: BTreeMap<String, RegistryEntry>,
}

impl TelemetryRegistry {
    /// Extracts the registry from DESIGN.md markdown text.
    pub fn from_design_md(text: &str) -> Self {
        let mut entries = BTreeMap::new();
        for (line_no, line) in (1..).zip(text.lines()) {
            let trimmed = line.trim_start();
            if !trimmed.starts_with('|') {
                continue;
            }
            for span in backtick_spans(trimmed) {
                if let Some(entry) = parse_metric_name(span, line_no) {
                    entries
                        .entry(entry.base.clone())
                        .and_modify(|e: &mut RegistryEntry| e.templated |= entry.templated)
                        .or_insert(entry);
                }
            }
        }
        Self { entries }
    }

    /// Is `base` a documented name? (Template fields are matched by base.)
    pub fn contains(&self, base: &str) -> bool {
        self.entries.contains_key(base)
    }

    /// Documented entry for `base`, if any.
    pub fn get(&self, base: &str) -> Option<&RegistryEntry> {
        self.entries.get(base)
    }

    /// Number of documented names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no names were extracted (a broken DESIGN.md — callers
    /// should treat this as a configuration error, not "all clean").
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All base names, sorted (for the machine-readable dump).
    pub fn names(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.values()
    }
}

/// Yields the contents of `` `...` `` spans in a line.
fn backtick_spans(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = line;
    std::iter::from_fn(move || {
        let start = rest.find('`')?;
        let tail = &rest[start + 1..];
        let end = tail.find('`')?;
        let span = &tail[..end];
        rest = &tail[end + 1..];
        Some(span)
    })
}

/// `layer.noun[.verb...]` with optional `{fields}` → entry; else None.
fn parse_metric_name(span: &str, line: u32) -> Option<RegistryEntry> {
    let (base, templated) = match span.find('{') {
        Some(i) => {
            if !span.ends_with('}') {
                return None;
            }
            (&span[..i], true)
        }
        None => (span, false),
    };
    if !is_metric_base(base) {
        return None;
    }
    Some(RegistryEntry {
        base: base.to_string(),
        templated,
        line,
    })
}

/// Validates the `layer.noun[.verb]` convention: 2–4 lowercase
/// `[a-z][a-z0-9_]*` segments joined by dots.
pub fn is_metric_base(base: &str) -> bool {
    let segs: Vec<&str> = base.split('.').collect();
    if !(2..=4).contains(&segs.len()) {
        return false;
    }
    segs.iter().all(|s| {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
            && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "\
Some prose mentioning `not.in.a.table.too.long` outside tables.\n\
| Layer | Spans | Counters |\n\
|---|---|---|\n\
| Gaia | `gaia.query` / `gaia.segment{idx}` | `gaia.records{op}`, `gaia.exchange_stall_ns` |\n\
| GRAPE | — | `grape.msg_bytes_raw` / `grape.msg_bytes_encoded` |\n\
| misc | `NotAMetric`, `gs-flex::fraud`, `snake_only` | `hiactor.proc_ns{name}` |\n";

    #[test]
    fn extracts_only_table_metric_names() {
        let r = TelemetryRegistry::from_design_md(DOC);
        assert!(r.contains("gaia.query"));
        assert!(r.contains("gaia.records"));
        assert!(r.get("gaia.records").unwrap().templated);
        assert!(!r.get("gaia.query").unwrap().templated);
        assert!(r.contains("grape.msg_bytes_raw"));
        assert!(r.contains("hiactor.proc_ns"));
        assert!(!r.contains("NotAMetric"));
        assert!(!r.contains("snake_only"));
        assert!(!r.contains("gs-flex::fraud"));
        // prose (non-table) lines are ignored even when they look dotted
        assert!(!r.contains("not.in.a.table.too.long"));
    }

    #[test]
    fn convention_check() {
        assert!(is_metric_base("gaia.records"));
        assert!(is_metric_base("serve.plan_cache.hit"));
        assert!(is_metric_base("grape.recovery.checkpoints"));
        assert!(!is_metric_base("single"));
        assert!(!is_metric_base("Has.Upper"));
        assert!(!is_metric_base("a.b.c.d.e"));
        assert!(!is_metric_base("trailing."));
        assert!(!is_metric_base(".leading"));
    }
}
