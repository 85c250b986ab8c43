//! Timing, table-formatting and input helpers shared by the experiments
//! and gates.

use gs_graph::VId;
use rand::Rng;
use std::time::{Duration, Instant};

/// Times a closure: one warm-up run, then the median of `runs` timed runs.
pub fn time_it<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut result = f(); // warm-up
    let mut times = Vec::with_capacity(runs.max(1));
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        result = f();
        times.push(t0.elapsed());
    }
    times.sort();
    (times[times.len() / 2], result)
}

/// One output row.
pub type Row = Vec<String>;

/// Fixed-width console table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Row>,
}

impl TablePrinter {
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {c:<w$} |"));
            }
            s
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        println!("{sep}");
        println!("{}", line(&self.headers));
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
        println!("{sep}");
    }
}

/// A seeded random digraph: `n * degree` edges with uniform endpoints.
pub fn random_edges(seed: u64, n: usize, degree: usize) -> Vec<(VId, VId)> {
    let mut rng = rand_pcg::Pcg64Mcg::new(seed as u128);
    (0..n * degree)
        .map(|_| {
            (
                VId(rng.gen_range(0..n as u64)),
                VId(rng.gen_range(0..n as u64)),
            )
        })
        .collect()
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(baseline: Duration, ours: Duration) -> String {
    if ours.as_nanos() == 0 {
        return "∞".to_string();
    }
    format!("{:.2}×", baseline.as_secs_f64() / ours.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result() {
        let (d, v) = time_it(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn table_prints_without_panicking() {
        let mut t = TablePrinter::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5µs");
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
        assert_eq!(
            fmt_speedup(Duration::from_secs(2), Duration::from_secs(1)),
            "2.00×"
        );
    }
}
