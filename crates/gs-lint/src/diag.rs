//! Diagnostic model: stable L-codes, Off/Warn/Deny levels, findings.
//!
//! Mirrors `gs-ir::verify` (E/W codes over plans) and `gs-sanitizer`
//! (S codes over executions) one layer up: L codes over the workspace's
//! own source and manifests.

use std::fmt;

/// How a lint's findings are treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// The lint does not run.
    Off,
    /// Findings are reported but only fail under `--deny`.
    Warn,
    /// Findings always fail the run.
    Deny,
}

/// Untracked `std::sync`/`parking_lot` primitive in a sanitizer-
/// instrumented crate.
pub const L001: &str = "L001";
/// `HashMap`/`HashSet` iteration feeding floating-point accumulation.
pub const L002: &str = "L002";
/// `.unwrap()`/`.expect()` on channel `send`/`recv` in engine code.
pub const L003: &str = "L003";
/// Telemetry name not in the documented registry or malformed.
pub const L004: &str = "L004";
/// Feature-gate hygiene (missing forward or passthrough counterpart).
pub const L005: &str = "L005";
/// Wall-clock read in a deterministic replay/checkpoint path.
pub const L006: &str = "L006";

/// All codes, in order.
pub const ALL_CODES: [&str; 6] = [L001, L002, L003, L004, L005, L006];

/// Short human description per code (for the table footer and docs).
pub fn describe(code: &str) -> &'static str {
    match code {
        L001 => "raw sync primitive in an instrumented crate (use Tracked*)",
        L002 => "hash-order iteration feeds float accumulation",
        L003 => "unwrap/expect on channel send/recv in engine code",
        L004 => {
            "telemetry name malformed, missing from the registry, or registered but never emitted"
        }
        L005 => "feature-gate hygiene (forwarding / passthrough)",
        L006 => "wall-clock read in a deterministic path",
        _ => "unknown code",
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, e.g. `L001`.
    pub code: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, whitespace-normalized (baseline key).
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.code, self.file, self.line, self.message
        )
    }
}

/// A finding that was suppressed, and by what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressed {
    pub finding: Finding,
    /// `inline` or `baseline`.
    pub mechanism: &'static str,
    /// The justification the author wrote.
    pub reason: String,
}

/// Whitespace-normalizes a source line for use as a stable baseline key.
pub fn normalize_snippet(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut last_space = true;
    for c in line.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.truncate(120);
    out
}
