//! `gate <name> [--deny] [--seed N] [--out PATH] [--duration-supersteps K] [--write-registry]`
//! — the one driver for every gs-bench check.
//!
//! Each gate module returns a [`GateReport`]; this module owns the rest:
//! the name → function table, flag parsing (a gate accepts only the flags
//! it reads), the note for a gate whose Cargo feature is not compiled in,
//! writing the JSON report, and the exit rule every gate shares — 1 on any
//! error, and under `--deny` on any warning too; 2 on a usage or I/O error.

use crate::util::TablePrinter;
use gs_graph::json::Json;

/// What one gate run found.
pub struct GateReport {
    /// Printed when it has rows.
    pub table: TablePrinter,
    /// Printed after the table; may span several lines.
    pub summary: String,
    pub errors: usize,
    pub warnings: usize,
    /// Written to `--out`, or to the gate's default path.
    pub json: Option<Json>,
}

/// Parsed options. A field the named gate does not read keeps its default.
#[derive(Debug, PartialEq)]
pub struct GateArgs {
    pub deny: bool,
    pub seed: u64,
    pub out: Option<String>,
    pub duration_supersteps: u64,
    pub write_registry: bool,
}

/// One entry of [`GATES`].
pub struct Gate {
    pub name: &'static str,
    /// Flags this gate reads besides `--deny`.
    pub flags: &'static [&'static str],
    /// JSON path when `--out` is not given; `None` if the gate writes none.
    pub default_out: Option<&'static str>,
    /// The Cargo feature the gate needs, and whether this build has it.
    pub feature: Option<(&'static str, bool)>,
    pub run: fn(&GateArgs) -> Result<GateReport, String>,
}

pub const GATES: &[Gate] = &[
    Gate {
        name: "irlint",
        flags: &[],
        default_out: None,
        feature: None,
        run: crate::irlint::gate,
    },
    Gate {
        name: "lint",
        flags: &["--write-registry"],
        default_out: None,
        feature: None,
        run: crate::lint::gate,
    },
    Gate {
        name: "costcheck",
        flags: &["--out"],
        default_out: Some("BENCH_cost.json"),
        feature: None,
        run: crate::costcheck::gate,
    },
    Gate {
        name: "sanitize",
        flags: &["--seed"],
        default_out: None,
        feature: Some(("sanitize", gs_sanitizer::COMPILED)),
        run: crate::sanitize::gate,
    },
    Gate {
        name: "chaos",
        flags: &["--seed"],
        default_out: None,
        feature: Some(("chaos", gs_chaos::COMPILED)),
        run: crate::chaos::gate,
    },
    Gate {
        name: "durability",
        flags: &["--seed"],
        default_out: None,
        feature: Some(("chaos", gs_chaos::COMPILED)),
        run: crate::durability::gate,
    },
    Gate {
        name: "analytics",
        flags: &["--seed", "--out"],
        default_out: Some("BENCH_analytics.json"),
        feature: None,
        run: crate::analytics::gate,
    },
    Gate {
        name: "storm",
        flags: &["--seed", "--duration-supersteps", "--out"],
        default_out: Some("BENCH_storm.json"),
        feature: None,
        run: crate::storm::gate,
    },
];

/// Resolves the gate name and its flags. Rejects an unknown gate, a flag
/// the gate does not read, a missing value, and a non-integer number.
pub fn parse(args: &[String]) -> Result<(&'static Gate, GateArgs), String> {
    let (name, rest) = args.split_first().ok_or("missing gate name")?;
    let gate = GATES
        .iter()
        .find(|g| g.name == name)
        .ok_or_else(|| format!("unknown gate `{name}`"))?;
    let mut parsed = GateArgs {
        deny: false,
        seed: 42,
        out: gate.default_out.map(String::from),
        duration_supersteps: 5,
        write_registry: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag != "--deny" && !gate.flags.contains(&flag.as_str()) {
            return Err(format!("`{name}` does not read `{flag}`"));
        }
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        let int = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag}` takes an integer, got `{v}`"))
        };
        match flag.as_str() {
            "--deny" => parsed.deny = true,
            "--write-registry" => parsed.write_registry = true,
            "--seed" => parsed.seed = int(value()?)?,
            "--duration-supersteps" => parsed.duration_supersteps = int(value()?)?,
            "--out" => parsed.out = Some(value()?.clone()),
            other => unreachable!("GATES lists unparsed flag `{other}`"),
        }
    }
    Ok((gate, parsed))
}

/// Runs one gate and applies the shared exit rule.
pub fn run(gate: &Gate, args: &GateArgs) -> i32 {
    if let Some((feature, false)) = gate.feature {
        println!(
            "{}: built without the `{feature}` feature — nothing to check \
             (rebuild with `--features {feature}`)",
            gate.name
        );
        return 0;
    }
    let report = match (gate.run)(args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{}: {e}", gate.name);
            return 2;
        }
    };
    if let (Some(json), Some(path)) = (&report.json, &args.out) {
        if let Err(e) = std::fs::write(path, json.render()) {
            eprintln!("{}: cannot write {path}: {e}", gate.name);
            return 2;
        }
        println!("wrote {path}");
    }
    if !report.table.is_empty() {
        report.table.print();
    }
    println!("{}", report.summary.trim_end());
    let fail = report.errors > 0 || (args.deny && report.warnings > 0);
    if fail {
        eprintln!(
            "{}: failing on {} error(s), {} warning(s)",
            gate.name, report.errors, report.warnings
        );
    }
    i32::from(fail)
}

/// Process entry: `args` without the program name; returns the exit code.
pub fn main(args: &[String]) -> i32 {
    match parse(args) {
        Ok((gate, parsed)) => run(gate, &parsed),
        Err(e) => {
            eprintln!("gate: {e}\nusage: gate <name> [--deny] [flags]");
            for g in GATES {
                let flags: String = g.flags.iter().map(|f| format!(" {f}")).collect();
                eprintln!("  {:<11} --deny{flags}", g.name);
            }
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn rejects(s: &str) -> String {
        match parse(&args(s)) {
            Ok(_) => panic!("`{s}` should be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn parse_rejects_bad_command_lines() {
        assert!(rejects("").contains("missing gate name"));
        assert!(rejects("nope").contains("unknown gate"));
        assert!(rejects("chaos --seeds 7").contains("--seeds"));
        assert!(rejects("irlint --deny-warnings").contains("--deny-warnings"));
        assert!(rejects("irlint --seed 3").contains("does not read"));
        assert!(rejects("lint --out x.json").contains("does not read"));
        assert!(rejects("chaos --seed").contains("needs a value"));
        assert!(rejects("storm --out").contains("needs a value"));
        assert!(rejects("chaos --seed x").contains("integer"));
        assert!(rejects("storm --duration-supersteps -1").contains("integer"));
        assert_eq!(main(&args("chaos --seeds 7")), 2);
    }

    #[test]
    fn parse_defaults_and_values() {
        let (gate, a) = parse(&args("chaos")).unwrap();
        assert_eq!(gate.name, "chaos");
        assert_eq!(
            a,
            GateArgs {
                deny: false,
                seed: 42,
                out: None,
                duration_supersteps: 5,
                write_registry: false,
            }
        );
        for (name, out) in [
            ("costcheck", "BENCH_cost.json"),
            ("analytics", "BENCH_analytics.json"),
            ("storm", "BENCH_storm.json"),
        ] {
            assert_eq!(parse(&args(name)).unwrap().1.out.as_deref(), Some(out));
        }
        for g in GATES {
            assert_eq!(
                g.default_out.is_some(),
                g.flags.contains(&"--out"),
                "{}: `--out` is accepted exactly when there is JSON to write",
                g.name
            );
        }
        let (_, a) = parse(&args(
            "storm --deny --seed 7 --duration-supersteps 2 --out s.json",
        ))
        .unwrap();
        assert!(a.deny);
        assert_eq!(
            (a.seed, a.duration_supersteps, a.out.as_deref()),
            (7, 2, Some("s.json"))
        );
        assert!(
            parse(&args("lint --deny --write-registry"))
                .unwrap()
                .1
                .write_registry
        );
    }

    fn fake(errors: usize, warnings: usize) -> Result<GateReport, String> {
        Ok(GateReport {
            table: TablePrinter::new(&["x"]),
            summary: String::new(),
            errors,
            warnings,
            json: None,
        })
    }

    fn fake_gate(run: fn(&GateArgs) -> Result<GateReport, String>) -> Gate {
        Gate {
            name: "fake",
            flags: &[],
            default_out: None,
            feature: None,
            run,
        }
    }

    #[test]
    fn exit_rule_is_shared() {
        let (_, mut a) = parse(&args("irlint")).unwrap();
        let errors = fake_gate(|_| fake(1, 0));
        let warnings = fake_gate(|_| fake(0, 3));
        let clean = fake_gate(|_| fake(0, 0));
        let io_error = fake_gate(|_| Err("cannot read".into()));
        assert_eq!(run(&errors, &a), 1);
        assert_eq!(run(&warnings, &a), 0);
        assert_eq!(run(&clean, &a), 0);
        assert_eq!(run(&io_error, &a), 2);
        a.deny = true;
        assert_eq!(run(&errors, &a), 1);
        assert_eq!(run(&warnings, &a), 1);
        assert_eq!(run(&clean, &a), 0);
        let skipped = Gate {
            feature: Some(("absent", false)),
            ..fake_gate(|_| panic!("a gate whose feature is not compiled must not run"))
        };
        assert_eq!(run(&skipped, &a), 0);
    }
}
