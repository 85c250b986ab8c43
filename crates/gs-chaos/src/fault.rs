//! The fault plan: what to break, where, and with what probability.
//!
//! All probabilistic decisions come from a pure hash of `(seed, stream,
//! coordinates, per-stream sequence number)` rather than a shared RNG, so
//! a decision at a given injection site does not depend on how the worker
//! threads happened to interleave — the same plan over the same workload
//! injects a reproducible fault set. Sequence numbers are *not* reset when
//! an attempt restarts, so retried work draws fresh decisions and a
//! faulted run cannot livelock on the same injection forever.

/// SplitMix64 finalizer — the deterministic core of every fault decision.
#[cfg(any(feature = "chaos", test))]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds `parts` into one uniform value in `[0, 1)`.
#[cfg(any(feature = "chaos", test))]
pub(crate) fn unit(seed: u64, parts: &[u64]) -> f64 {
    let mut h = mix64(seed);
    for &p in parts {
        h = mix64(h ^ p);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic, seeded fault-injection plan. Plain data: build one,
/// hand it to [`with_chaos`](crate::with_chaos), read the returned
/// [`ChaosStats`]. Every field is inert unless the `chaos` feature is
/// compiled in *and* the plan is installed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seeds every probabilistic decision below.
    pub seed: u64,
    /// Kill worker `.0` when it reaches superstep `.1` (each entry fires
    /// exactly once, so restarts provably get past it).
    pub worker_kills: Vec<(usize, usize)>,
    /// Probability an exchange block is silently dropped.
    pub drop_p: f64,
    /// Probability an exchange block is delivered twice.
    pub dup_p: f64,
    /// Probability an exchange block is deferred to the next exchange.
    pub delay_p: f64,
    /// Probability a guarded storage read faults (starting a burst).
    pub storage_p: f64,
    /// Consecutive faults per storage burst — long enough bursts exhaust a
    /// caller's retry budget and force the skip/degrade path.
    pub storage_burst: u32,
    /// Cap on probabilistic injections (0 = unlimited). A safety valve so
    /// faulted runs provably converge within a bounded number of
    /// restarts/retries; scheduled kills are exempt.
    pub fault_budget: u64,
    /// Kill the process (panic with [`ChaosUnwind`](crate::ChaosUnwind))
    /// at the WAL's `n`-th durable write (0-based, counted across log
    /// records *and* checkpoint chunks). Each entry fires once.
    pub wal_kills: Vec<u64>,
    /// When a scheduled WAL kill fires, first write a torn strict prefix
    /// of the pending record (seed-derived length) — the page-cache tear a
    /// real crash leaves — instead of killing cleanly between writes.
    pub wal_torn: bool,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            worker_kills: Vec::new(),
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            storage_p: 0.0,
            storage_burst: 1,
            fault_budget: 0,
            wal_kills: Vec::new(),
            wal_torn: false,
        }
    }

    /// Schedules a one-shot worker kill at superstep `step`.
    pub fn kill_worker(mut self, worker: usize, step: usize) -> Self {
        self.worker_kills.push((worker, step));
        self
    }

    /// Sets the per-block message fault probabilities.
    pub fn message_faults(mut self, drop_p: f64, dup_p: f64, delay_p: f64) -> Self {
        self.drop_p = drop_p;
        self.dup_p = dup_p;
        self.delay_p = delay_p;
        self
    }

    /// Sets the storage-read fault probability and burst length.
    pub fn storage_faults(mut self, p: f64, burst: u32) -> Self {
        self.storage_p = p;
        self.storage_burst = burst.max(1);
        self
    }

    /// Caps probabilistic injections at `n` total.
    pub fn budget(mut self, n: u64) -> Self {
        self.fault_budget = n;
        self
    }

    /// Schedules a one-shot process kill at the WAL's `write`-th durable
    /// write (see [`FaultPlan::wal_kills`]).
    pub fn wal_kill(mut self, write: u64) -> Self {
        self.wal_kills.push(write);
        self
    }

    /// Makes scheduled WAL kills tear the in-flight record (write a strict
    /// prefix, then die) instead of killing between writes.
    pub fn wal_torn_writes(mut self) -> Self {
        self.wal_torn = true;
        self
    }
}

/// What the hooks injected during one [`with_chaos`](crate::with_chaos)
/// run. All-zero in pass-through builds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    pub worker_kills: u64,
    pub msgs_dropped: u64,
    pub msgs_duplicated: u64,
    pub msgs_delayed: u64,
    pub storage_faults: u64,
    pub wal_kills: u64,
    pub wal_torn_writes: u64,
}

impl ChaosStats {
    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.worker_kills
            + self.msgs_dropped
            + self.msgs_duplicated
            + self.msgs_delayed
            + self.storage_faults
            + self.wal_kills
            + self.wal_torn_writes
    }

    /// Compact one-line rendering for report tables, listing only the
    /// non-zero classes (`"2 kills, 5 drops"`).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (n, label) in [
            (self.worker_kills, "kills"),
            (self.msgs_dropped, "drops"),
            (self.msgs_duplicated, "dups"),
            (self.msgs_delayed, "delays"),
            (self.storage_faults, "storage"),
            (self.wal_kills, "wal-kills"),
            (self.wal_torn_writes, "torn-writes"),
        ] {
            if n > 0 {
                parts.push(format!("{n} {label}"));
            }
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// The verdict for one durable WAL write (log record or checkpoint chunk).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalWriteFault {
    /// Write the full buffer (the only verdict in pass-through builds).
    Proceed,
    /// Die (panic with [`ChaosUnwind`](crate::ChaosUnwind)) *before* the
    /// write: the disk ends exactly at the previous record boundary.
    Kill,
    /// Write only the first `n` bytes (a strict prefix), then die: the
    /// torn frame recovery must detect by length/checksum and discard.
    Torn(usize),
}

/// The verdict for one outgoing exchange block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFault {
    /// Deliver normally (the only verdict in pass-through builds).
    Deliver,
    /// Never send the block; the receiver's loss detection must catch it.
    Drop,
    /// Send the block twice; the receiver must deduplicate.
    Duplicate,
    /// Defer the block to the sender's next exchange round.
    Delay,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_and_uniformish() {
        let a = unit(42, &[1, 2, 3]);
        let b = unit(42, &[1, 2, 3]);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        // different coordinates decorrelate
        assert_ne!(unit(42, &[1, 2, 3]), unit(42, &[1, 2, 4]));
        assert_ne!(unit(42, &[1, 2, 3]), unit(43, &[1, 2, 3]));
        // crude uniformity: mean of many draws near 0.5
        let mean: f64 = (0..4000).map(|i| unit(7, &[i])).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn stats_render_lists_nonzero_classes() {
        assert_eq!(ChaosStats::default().render(), "none");
        let s = ChaosStats {
            worker_kills: 2,
            msgs_dropped: 5,
            ..Default::default()
        };
        assert_eq!(s.render(), "2 kills, 5 drops");
        assert_eq!(s.total(), 7);
    }
}
