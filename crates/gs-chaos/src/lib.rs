//! # gs-chaos — deterministic fault injection for the simulated cluster
//!
//! The paper's engines run "in production" across shared clusters; this
//! crate gives the in-process cluster simulation the failure modes a real
//! deployment has, plus the machinery the rest of the stack uses to
//! survive them. A [`FaultPlan`] (a seed plus an explicit schedule)
//! injects faults at the seams the simulation owns:
//!
//! | seam | hook | fault |
//! |---|---|---|
//! | GRAPE BSP loop | [`worker_kill_point`] | worker panic at superstep *k* |
//! | `CommHandle::exchange` | [`message_fault`] | block drop / duplication / delay |
//! | GRIN reads | [`storage_fault_point`] via [`ChaosGraph`] | transient storage fault |
//!
//! **Determinism.** Probabilistic decisions are a pure hash of
//! `(seed, stream, coordinates, sequence number)` — independent of thread
//! interleaving — and sequence counters survive restarts, so retried work
//! draws fresh decisions and faulted runs provably converge (see also
//! [`FaultPlan::budget`]).
//!
//! **Cost.** Injection only exists with the `chaos` feature; without it
//! every hook is an inlined no-op (mirroring `gs-sanitizer`'s
//! zero-cost-by-default design) and only the always-on recovery utilities
//! remain: [`breaker`] (the circuit breaker gs-serve's admission ladder
//! runs on) and the [`ChaosUnwind`] panic protocol that lets recovery
//! layers tell injected faults apart from real bugs.
//!
//! ```
//! use gs_chaos::FaultPlan;
//!
//! let plan = FaultPlan::new(42).message_faults(0.01, 0.01, 0.02);
//! let (out, stats) = gs_chaos::with_chaos(plan, || 2 + 2);
//! assert_eq!(out, 4);
//! # let _ = stats;
//! ```

pub mod breaker;
mod fault;
pub mod graph;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use fault::{ChaosStats, FaultPlan, MessageFault, WalWriteFault};
pub use graph::ChaosGraph;

/// Whether this build carries the injection machinery (`chaos` feature).
pub const COMPILED: bool = cfg!(feature = "chaos");

// =====================================================================
// The ChaosUnwind panic protocol (always compiled)
// =====================================================================

/// The payload of every injected panic (worker kills, storage faults).
/// Recovery layers downcast for it to distinguish an injected fault —
/// recoverable by design — from a genuine bug, which must keep crashing.
#[derive(Clone, Copy, Debug)]
pub struct ChaosUnwind(pub &'static str);

/// Whether a caught panic payload is an injected fault.
pub fn is_chaos_unwind(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<ChaosUnwind>()
}

/// Installs (once per process) a chaining panic hook that silences
/// [`ChaosUnwind`] panics — they are expected control flow under an
/// installed plan — and forwards everything else to the previous hook.
pub fn silence_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ChaosUnwind>() {
                prev(info);
            }
        }));
    });
}

// =====================================================================
// chaos: the installed plan and live decision state
// =====================================================================

#[cfg(feature = "chaos")]
mod state {
    use super::fault::{unit, ChaosStats, FaultPlan};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    /// Decision-stream tags (the `stream` hash coordinate).
    pub(super) const STREAM_MESSAGE: u64 = 1;
    pub(super) const STREAM_STORAGE: u64 = 2;

    pub(super) struct PlanState {
        pub(super) plan: FaultPlan,
        kills_fired: Vec<AtomicBool>,
        wal_kills_fired: Vec<AtomicBool>,
        /// Per-(stream, a, b) sequence counters; never reset, so restarted
        /// work draws fresh decisions.
        seqs: Mutex<HashMap<(u64, u64, u64), u64>>,
        /// Remaining consecutive faults in the current storage burst.
        storage_burst_left: AtomicU32,
        budget_used: AtomicU64,
        pub(super) stats: StatCells,
    }

    #[derive(Default)]
    pub(super) struct StatCells {
        pub(super) worker_kills: AtomicU64,
        pub(super) msgs_dropped: AtomicU64,
        pub(super) msgs_duplicated: AtomicU64,
        pub(super) msgs_delayed: AtomicU64,
        pub(super) storage_faults: AtomicU64,
        pub(super) wal_kills: AtomicU64,
        pub(super) wal_torn_writes: AtomicU64,
    }

    impl PlanState {
        fn new(plan: FaultPlan) -> Self {
            Self {
                kills_fired: plan
                    .worker_kills
                    .iter()
                    .map(|_| AtomicBool::new(false))
                    .collect(),
                wal_kills_fired: plan
                    .wal_kills
                    .iter()
                    .map(|_| AtomicBool::new(false))
                    .collect(),
                plan,
                seqs: Mutex::new(HashMap::new()),
                storage_burst_left: AtomicU32::new(0),
                budget_used: AtomicU64::new(0),
                stats: StatCells::default(),
            }
        }

        /// The next deterministic uniform for the `(stream, a, b)` stream.
        pub(super) fn next_unit(&self, stream: u64, a: u64, b: u64) -> f64 {
            let mut seqs = self.seqs.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = seqs.entry((stream, a, b)).or_insert(0);
            *seq += 1;
            unit(self.plan.seed, &[stream, a, b, *seq])
        }

        /// Consumes one unit of fault budget; `false` means the budget is
        /// exhausted and the injection must be skipped.
        pub(super) fn consume_budget(&self) -> bool {
            if self.plan.fault_budget == 0 {
                return true;
            }
            self.budget_used.fetch_add(1, Ordering::SeqCst) < self.plan.fault_budget
        }

        /// One-shot claim of scheduled kill entry `i`.
        pub(super) fn claim_kill(&self, i: usize) -> bool {
            !self.kills_fired[i].swap(true, Ordering::SeqCst)
        }

        /// One-shot claim of scheduled WAL-kill entry `i`.
        pub(super) fn claim_wal_kill(&self, i: usize) -> bool {
            !self.wal_kills_fired[i].swap(true, Ordering::SeqCst)
        }

        /// Burst accounting for storage faults: `true` to fault this read.
        pub(super) fn storage_decision(&self, site_hash: u64) -> bool {
            // drain an active burst first
            if self
                .storage_burst_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return true;
            }
            if self.plan.storage_p <= 0.0 {
                return false;
            }
            if self.next_unit(STREAM_STORAGE, site_hash, 0) < self.plan.storage_p
                && self.consume_budget()
            {
                self.storage_burst_left
                    .store(self.plan.storage_burst.saturating_sub(1), Ordering::SeqCst);
                return true;
            }
            false
        }

        pub(super) fn snapshot(&self) -> ChaosStats {
            let s = &self.stats;
            ChaosStats {
                worker_kills: s.worker_kills.load(Ordering::SeqCst),
                msgs_dropped: s.msgs_dropped.load(Ordering::SeqCst),
                msgs_duplicated: s.msgs_duplicated.load(Ordering::SeqCst),
                msgs_delayed: s.msgs_delayed.load(Ordering::SeqCst),
                storage_faults: s.storage_faults.load(Ordering::SeqCst),
                wal_kills: s.wal_kills.load(Ordering::SeqCst),
                wal_torn_writes: s.wal_torn_writes.load(Ordering::SeqCst),
            }
        }
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<Arc<PlanState>>> = Mutex::new(None);

    pub(super) fn install(plan: FaultPlan) {
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(PlanState::new(plan)));
        ACTIVE.store(true, Ordering::Release);
    }

    pub(super) fn uninstall() -> ChaosStats {
        ACTIVE.store(false, Ordering::Release);
        PLAN.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .map(|st| st.snapshot())
            .unwrap_or_default()
    }

    pub(super) fn current() -> Option<Arc<PlanState>> {
        if !ACTIVE.load(Ordering::Acquire) {
            return None;
        }
        PLAN.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// Whether a plan is installed and injecting right now.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "chaos")]
    {
        state::current().is_some()
    }
    #[cfg(not(feature = "chaos"))]
    {
        false
    }
}

/// Serializes access to the process-global plan slot. Tests (and any two
/// concurrent chaos workloads in one process) must hold this around
/// install…uninstall so injections do not cross-contaminate.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::OnceLock;
    static GATE: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| parking_lot::Mutex::new(())).lock()
}

/// Runs `f` as one exclusive chaos workload: takes the [`exclusive`] gate,
/// silences injected panics, installs `plan`, runs `f`, uninstalls, and
/// returns `f`'s result plus the injection [`ChaosStats`]. In pass-through
/// builds `f` still runs (under the gate) and the stats are all-zero.
pub fn with_chaos<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> (T, ChaosStats) {
    let _gate = exclusive();
    #[cfg(feature = "chaos")]
    {
        silence_chaos_panics();
        state::install(plan);
        // uninstall even if `f` unwinds, so a panicking workload cannot
        // leave the global plan injecting into unrelated code
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                let _ = state::uninstall();
            }
        }
        let disarm = Disarm;
        let out = f();
        std::mem::forget(disarm);
        (out, state::uninstall())
    }
    #[cfg(not(feature = "chaos"))]
    {
        let _ = plan;
        (f(), ChaosStats::default())
    }
}

// =====================================================================
// Fault hooks — injecting with `chaos`, inlined no-ops without
// =====================================================================

/// GRAPE BSP seam: called by each worker at the top of every superstep.
/// Panics with [`ChaosUnwind`] when the plan schedules a kill for
/// `(worker, step)` (each schedule entry fires once).
#[cfg(feature = "chaos")]
pub fn worker_kill_point(worker: usize, step: usize) {
    let Some(st) = state::current() else { return };
    for (i, &(w, s)) in st.plan.worker_kills.iter().enumerate() {
        if w == worker && s == step && st.claim_kill(i) {
            st.stats
                .worker_kills
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            gs_telemetry::counter!("chaos.worker_kills");
            std::panic::panic_any(ChaosUnwind("worker-kill"));
        }
    }
}

/// GRAPE BSP seam (pass-through build): no-op.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn worker_kill_point(_worker: usize, _step: usize) {}

/// Exchange seam: the verdict for one outgoing block `from → to`.
#[cfg(feature = "chaos")]
pub fn message_fault(from: usize, to: usize) -> MessageFault {
    use std::sync::atomic::Ordering;
    let Some(st) = state::current() else {
        return MessageFault::Deliver;
    };
    let p = &st.plan;
    let any = p.drop_p + p.dup_p + p.delay_p;
    if any <= 0.0 {
        return MessageFault::Deliver;
    }
    let u = st.next_unit(state::STREAM_MESSAGE, from as u64, to as u64);
    let verdict = if u < p.drop_p {
        MessageFault::Drop
    } else if u < p.drop_p + p.dup_p {
        MessageFault::Duplicate
    } else if u < any {
        MessageFault::Delay
    } else {
        return MessageFault::Deliver;
    };
    if !st.consume_budget() {
        return MessageFault::Deliver;
    }
    match verdict {
        MessageFault::Drop => {
            st.stats.msgs_dropped.fetch_add(1, Ordering::SeqCst);
            gs_telemetry::counter!("chaos.msgs_dropped");
        }
        MessageFault::Duplicate => {
            st.stats.msgs_duplicated.fetch_add(1, Ordering::SeqCst);
            gs_telemetry::counter!("chaos.msgs_duplicated");
        }
        MessageFault::Delay => {
            st.stats.msgs_delayed.fetch_add(1, Ordering::SeqCst);
            gs_telemetry::counter!("chaos.msgs_delayed");
        }
        MessageFault::Deliver => unreachable!(),
    }
    verdict
}

/// Exchange seam (pass-through build): always [`MessageFault::Deliver`].
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn message_fault(_from: usize, _to: usize) -> MessageFault {
    MessageFault::Deliver
}

/// Storage seam: called by [`ChaosGraph`] at every read entry point.
/// Panics with [`ChaosUnwind`] when the plan decides this read faults.
#[cfg(feature = "chaos")]
pub fn storage_fault_point(site: &'static str) {
    let Some(st) = state::current() else { return };
    let mut h = 0u64;
    for b in site.bytes() {
        h = h.wrapping_mul(131).wrapping_add(u64::from(b));
    }
    if st.storage_decision(h) {
        st.stats
            .storage_faults
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        gs_telemetry::counter!("chaos.storage_faults");
        std::panic::panic_any(ChaosUnwind("storage"));
    }
}

/// Storage seam (pass-through build): no-op.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn storage_fault_point(_site: &'static str) {}

/// WAL seam: the verdict for durable write number `write` of `len` bytes
/// (gs-gart calls this once per log record and per checkpoint chunk,
/// with a store-global monotone counter). Unlike the panic hooks, the
/// *caller* performs the kill: on [`WalWriteFault::Torn`] it must write
/// exactly the returned prefix first, so the disk really ends mid-frame.
/// The torn prefix length is a strict prefix derived from the plan seed.
#[cfg(feature = "chaos")]
pub fn wal_write_fault(write: u64, len: usize) -> WalWriteFault {
    use std::sync::atomic::Ordering;
    let Some(st) = state::current() else {
        return WalWriteFault::Proceed;
    };
    for (i, &w) in st.plan.wal_kills.iter().enumerate() {
        if w == write && st.claim_wal_kill(i) {
            if st.plan.wal_torn && len > 1 {
                st.stats.wal_torn_writes.fetch_add(1, Ordering::SeqCst);
                gs_telemetry::counter!("chaos.wal_torn_writes");
                let u = fault::unit(st.plan.seed, &[3, write, len as u64]);
                // a strict prefix: at least 1 byte short, at least 1 written
                let k = 1 + (u * (len - 1) as f64) as usize;
                return WalWriteFault::Torn(k.min(len - 1));
            }
            st.stats.wal_kills.fetch_add(1, Ordering::SeqCst);
            gs_telemetry::counter!("chaos.wal_kills");
            return WalWriteFault::Kill;
        }
    }
    WalWriteFault::Proceed
}

/// WAL seam (pass-through build): always writes through.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub fn wal_write_fault(_write: u64, _len: usize) -> WalWriteFault {
    WalWriteFault::Proceed
}

#[cfg(test)]
mod tests {
    /// Pass-through contract: without the feature, hooks are inert and
    /// `with_chaos` still runs the workload.
    #[cfg(not(feature = "chaos"))]
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn passthrough_hooks_are_noops() {
        use super::*;
        assert!(!COMPILED);
        assert!(!enabled());
        worker_kill_point(0, 0);
        assert_eq!(message_fault(0, 1), MessageFault::Deliver);
        storage_fault_point("x");
        let plan = FaultPlan::new(1)
            .kill_worker(0, 0)
            .message_faults(1.0, 0.0, 0.0)
            .storage_faults(1.0, 3);
        let (out, stats) = with_chaos(plan, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(stats, ChaosStats::default());
    }

    #[cfg(feature = "chaos")]
    mod chaos_on {
        use super::super::*;

        #[test]
        fn scheduled_kill_fires_exactly_once() {
            let plan = FaultPlan::new(7).kill_worker(2, 5);
            let ((), stats) = with_chaos(plan, || {
                worker_kill_point(0, 5); // wrong worker
                worker_kill_point(2, 4); // wrong step
                let r = std::panic::catch_unwind(|| worker_kill_point(2, 5));
                assert!(r.is_err(), "scheduled kill must panic");
                assert!(is_chaos_unwind(r.unwrap_err().as_ref()));
                // the entry already fired: a restarted worker passes it
                worker_kill_point(2, 5);
            });
            assert_eq!(stats.worker_kills, 1);
        }

        #[test]
        fn message_faults_are_seed_deterministic() {
            let run = |seed| {
                let plan = FaultPlan::new(seed).message_faults(0.2, 0.2, 0.2);
                with_chaos(plan, || {
                    (0..200)
                        .map(|i| message_fault(i % 4, (i + 1) % 4))
                        .collect::<Vec<_>>()
                })
            };
            let (a, sa) = run(11);
            let (b, sb) = run(11);
            assert_eq!(a, b, "same seed → same verdict sequence");
            assert_eq!(sa, sb);
            assert!(sa.msgs_dropped > 0 && sa.msgs_duplicated > 0 && sa.msgs_delayed > 0);
            let (c, _) = run(12);
            assert_ne!(a, c, "different seed → different verdicts");
        }

        #[test]
        fn budget_caps_probabilistic_injections() {
            let plan = FaultPlan::new(3).message_faults(1.0, 0.0, 0.0).budget(5);
            let (faults, stats) = with_chaos(plan, || {
                (0..100)
                    .filter(|_| message_fault(0, 1) == MessageFault::Drop)
                    .count()
            });
            assert_eq!(faults, 5);
            assert_eq!(stats.msgs_dropped, 5);
        }

        #[test]
        fn storage_bursts_run_their_length() {
            let plan = FaultPlan::new(5).storage_faults(1.0, 3).budget(1);
            let ((), stats) = with_chaos(plan, || {
                // p=1 with budget 1: exactly one burst of 3 consecutive faults
                for _ in 0..3 {
                    let r = std::panic::catch_unwind(|| storage_fault_point("s"));
                    assert!(r.is_err(), "burst read must fault");
                }
                storage_fault_point("s"); // burst drained, budget spent: clean
            });
            assert_eq!(stats.storage_faults, 3);
        }

        #[test]
        fn uninstall_stops_injection() {
            let plan = FaultPlan::new(1).message_faults(1.0, 0.0, 0.0);
            let _ = with_chaos(plan, || ());
            assert!(!enabled());
            assert_eq!(message_fault(0, 1), MessageFault::Deliver);
        }
    }
}
