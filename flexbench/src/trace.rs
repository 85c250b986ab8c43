//! In-memory spans recorded by the traced run around calls into each
//! layer, written out as a tab-separated file when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the index of the span that caused it, and the request it
//! belongs to. Layer calls that happen inside the server are replayed by
//! the benchmark right after the request returns, so a replayed child's
//! interval follows its parent's instead of lying inside it; self time is
//! therefore the parent's duration minus the summed durations of its
//! children.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::quantile;

pub const NO_PARENT: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already-measured interval; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, start, end, parent, request))
    }

    /// Per-span self time (duration minus the children's durations,
    /// floored at zero) and the number of spans whose children sum to
    /// more than 1.1× the span itself.
    pub fn self_times(&self) -> (Vec<u64>, u64) {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_sum[s.parent] += s.dur_ns();
            }
        }
        let mut overcovered = 0;
        let selfs = self
            .spans
            .iter()
            .zip(&child_sum)
            .map(|(s, &c)| {
                if c * 10 > s.dur_ns() * 11 {
                    overcovered += 1;
                }
                s.dur_ns().saturating_sub(c)
            })
            .collect();
        (selfs, overcovered)
    }

    /// Durations in µs per span name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
        by
    }

    /// Self times in µs per span name.
    pub fn self_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let (selfs, _) = self.self_times();
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&selfs) {
            by.entry(s.name).or_default().push(ns as f64 / 1e3);
        }
        by
    }

    /// Writes every span (`id name request parent start_ns end_ns
    /// self_ns`) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let (selfs, _) = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// One summary line per span name: count, median, p99 and total self
    /// time.
    pub fn summary(&self) -> Vec<String> {
        let durs = self.durations_us();
        let selfs = self.self_us();
        durs.into_iter()
            .map(|(name, mut d)| {
                let n = d.len();
                let p50 = quantile(&mut d, 0.5);
                let p99 = quantile(&mut d, 0.99);
                let self_total: f64 = selfs[name].iter().sum();
                format!(
                    "{name:<20} n={n:<7} p50={p50:>10.2}us p99={p99:>10.2}us self_total={:>10.1}ms",
                    self_total / 1e3
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_flags_overcoverage() {
        let mut t = Tracer::new();
        let base = t.epoch;
        let at = |us: u64| base + Duration::from_micros(us);
        let root = t.record("root", at(0), at(100), NO_PARENT, 0);
        t.record("a", at(100), at(130), root, 0);
        t.record("b", at(130), at(150), root, 0);
        let over = t.record("over", at(200), at(210), NO_PARENT, 1);
        t.record("c", at(210), at(230), over, 1);
        let (selfs, flagged) = t.self_times();
        assert_eq!(selfs[root], 50_000);
        assert_eq!(selfs[over], 0);
        assert_eq!(flagged, 1);
    }
}
