//! Checkpoint/restart recovery for GRAPE's BSP runs.
//!
//! The paper's GRAPE deployments survive worker loss by coordinated
//! superstep checkpointing; this module reproduces that protocol on the
//! simulated cluster. Every `interval` supersteps each worker **stages** a
//! snapshot of its fragment state into the shared [`CheckpointStore`], the
//! cluster passes a commit barrier, and worker 0 **promotes** the staged
//! set to the committed checkpoint — so the committed checkpoint is always
//! a globally consistent cut at a superstep boundary.
//!
//! Failure handling lives in the one driver,
//! [`GrapeEngine::run`](crate::engine::GrapeEngine::run), which every
//! program already takes: a worker panic (including injected
//! [`gs_chaos`] kills), a lost message, or a stalled peer poisons the
//! cluster's [`GlobalSync`](crate::engine::GlobalSync), every surviving
//! worker unwinds with [`ClusterAborted`](crate::engine::ClusterAborted),
//! and with [`RecoveryConfig`] armed the driver restarts **all** workers.
//! Pregel and PageRank restore from the last committed checkpoint; the
//! other programs rerun from scratch. Because the per-step logic is
//! deterministic and `GlobalSync` folds f64 contributions in a canonical
//! order, a restarted run replays the exact arithmetic of an uninterrupted
//! one: WCC/BFS results are byte-identical and PageRank ranks are
//! bit-identical.
//!
//! Genuine bugs still crash: a panic whose payload is neither
//! [`gs_chaos::ChaosUnwind`] nor `ClusterAborted` is re-raised on the
//! caller once all workers have joined, never silently retried.

use crate::engine::CommHandle;
use gs_sanitizer::TrackedMutex;
use gs_telemetry::counter;
use std::collections::HashMap;
use std::time::Duration;

/// Tuning for recoverable runs, armed with
/// [`GrapeEngine::with_recovery`](crate::engine::GrapeEngine::with_recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Checkpoint every `interval` supersteps (0 disables checkpointing;
    /// restarts then replay from the beginning).
    pub interval: usize,
    /// Give up (panic) after this many restarts — a backstop so an
    /// unrecoverable cluster fails loudly instead of looping.
    pub max_restarts: usize,
    /// No-progress window after which a collective or exchange declares a
    /// worker dead / a message lost and aborts the attempt.
    pub detect_timeout: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            interval: 4,
            max_restarts: 16,
            detect_timeout: Duration::from_millis(400),
        }
    }
}

impl RecoveryConfig {
    /// Sets the checkpoint interval.
    pub fn interval(mut self, every: usize) -> Self {
        self.interval = every;
        self
    }

    /// Sets the restart budget.
    pub fn max_restarts(mut self, n: usize) -> Self {
        self.max_restarts = n;
        self
    }

    /// Sets the dead-worker / lost-message detection window.
    pub fn detect_timeout(mut self, d: Duration) -> Self {
        self.detect_timeout = d;
        self
    }
}

struct StoreInner<S> {
    /// Per-fragment snapshots staged for the in-flight checkpoint,
    /// `fragment → (superstep, state)`.
    staged: HashMap<usize, (usize, S)>,
    /// The last committed (globally consistent) checkpoint.
    committed: Option<(usize, HashMap<usize, S>)>,
}

/// Shared store for coordinated checkpoints: workers stage per-fragment
/// snapshots, worker 0 promotes a complete staged set to committed, and a
/// restarted attempt restores from committed. The store outlives attempts,
/// which is the whole point — it may also outlive the engine (see the
/// restore-into-a-fresh-engine test), modelling a checkpoint that survives
/// a full process replacement.
pub struct CheckpointStore<S> {
    inner: TrackedMutex<StoreInner<S>>,
}

impl<S> Default for CheckpointStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> CheckpointStore<S> {
    pub fn new() -> Self {
        Self {
            inner: TrackedMutex::new(
                "grape.recover.checkpoint_store",
                StoreInner {
                    staged: HashMap::new(),
                    committed: None,
                },
            ),
        }
    }

    fn lock(&self) -> impl std::ops::DerefMut<Target = StoreInner<S>> + '_ {
        // the tracked mutex is non-poisoning: a chaos-killed worker may die
        // holding it, and staged state is overwritten wholesale so the data
        // stays valid across that
        self.inner.lock()
    }

    /// Stages fragment `frag`'s snapshot for the checkpoint at `step`.
    pub fn stage(&self, frag: usize, step: usize, snapshot: S) {
        self.lock().staged.insert(frag, (step, snapshot));
    }

    /// Promotes the staged set to committed if every one of `fragments`
    /// fragments staged at exactly `step`. Returns whether it committed.
    pub fn commit(&self, step: usize, fragments: usize) -> bool {
        let mut st = self.lock();
        let complete = st.staged.len() == fragments && st.staged.values().all(|(s, _)| *s == step);
        if !complete {
            return false;
        }
        let snaps = std::mem::take(&mut st.staged)
            .into_iter()
            .map(|(frag, (_, snap))| (frag, snap))
            .collect();
        st.committed = Some((step, snaps));
        counter!("grape.recovery.checkpoints");
        true
    }

    /// The superstep of the last committed checkpoint, if any.
    pub fn committed_step(&self) -> Option<usize> {
        self.lock().committed.as_ref().map(|(s, _)| *s)
    }
}

impl<S: Clone> CheckpointStore<S> {
    /// Fragment `frag`'s state from the last committed checkpoint.
    pub fn restore(&self, frag: usize) -> Option<(usize, S)> {
        let st = self.lock();
        let (step, snaps) = st.committed.as_ref()?;
        snaps.get(&frag).map(|s| (*step, s.clone()))
    }
}

/// The coordinated-checkpoint collective: stage, barrier (everyone has
/// staged), promote on worker 0, barrier (the commit is durable before
/// anyone computes past it). Every worker must call it at the same
/// superstep — the callers gate it on globally agreed values only.
pub fn checkpoint<S>(
    comm: &CommHandle,
    store: &CheckpointStore<S>,
    frag: usize,
    step: usize,
    snapshot: S,
) {
    store.stage(frag, step, snapshot);
    comm.allreduce(0);
    if comm.my_id == 0 {
        let committed = store.commit(step, comm.workers);
        debug_assert!(committed, "all workers staged before the barrier");
    }
    comm.allreduce(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::wcc;
    use crate::engine::GrapeEngine;
    use gs_graph::VId;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn ring_edges(n: u64) -> Vec<(VId, VId)> {
        (0..n)
            .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
            .collect()
    }

    /// An armed engine produces the same results as a plain one when
    /// nothing faults (checkpointing is semantics-preserving).
    #[test]
    fn recoverable_pregel_matches_plain_run_without_faults() {
        let edges = ring_edges(48);
        let plain = wcc(&GrapeEngine::from_edges(48, &edges, 3));
        let armed = wcc(&GrapeEngine::from_edges(48, &edges, 3)
            .with_recovery(RecoveryConfig::default().interval(3)));
        assert_eq!(plain, armed);
    }

    #[test]
    fn checkpoint_store_commits_only_complete_consistent_sets() {
        let store: CheckpointStore<Vec<u64>> = CheckpointStore::new();
        assert_eq!(store.committed_step(), None);
        store.stage(0, 4, vec![1]);
        assert!(!store.commit(4, 2), "fragment 1 missing");
        store.stage(1, 3, vec![2]);
        assert!(!store.commit(4, 2), "fragment 1 staged a different step");
        store.stage(1, 4, vec![2]);
        assert!(store.commit(4, 2));
        assert_eq!(store.committed_step(), Some(4));
        assert_eq!(store.restore(0), Some((4, vec![1])));
        assert_eq!(store.restore(1), Some((4, vec![2])));
        // staged set was consumed; the committed cut survives
        assert!(!store.commit(4, 2));
        assert_eq!(store.restore(0), Some((4, vec![1])));
    }

    /// A genuine (non-chaos) worker panic must not be retried, even with
    /// recovery armed — it resurfaces on the caller.
    #[test]
    fn real_panics_are_reraised_not_retried() {
        let edges = ring_edges(8);
        let engine = GrapeEngine::from_edges(8, &edges, 2).with_recovery(RecoveryConfig::default());
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            engine.run::<u64, _>(|_frag, _comm| {
                attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                panic!("genuine bug");
            })
        }));
        assert!(got.is_err());
        assert!(
            attempts.load(std::sync::atomic::Ordering::SeqCst) <= 2,
            "a real panic must not burn the restart budget"
        );
    }

    /// Checkpoint/restore round-trip. Run PageRank far enough
    /// to commit a mid-run checkpoint, then restore that checkpoint into a
    /// **fresh** engine and finish: the final ranks must match an
    /// uninterrupted run bit-for-bit.
    #[test]
    fn checkpoint_restores_into_fresh_engine_with_identical_ranks() {
        use crate::algorithms::pagerank::pagerank_recoverable;
        let edges = ring_edges(30);
        let cfg = RecoveryConfig::default().interval(5);

        let full_engine = GrapeEngine::from_edges(30, &edges, 3).with_recovery(cfg.clone());
        let store = CheckpointStore::new();
        let uninterrupted = pagerank_recoverable(&full_engine, 0.85, 10, &store);
        // interval 5 over 10 iterations commits after step 4 (step 9 is
        // final, so no checkpoint there)
        assert_eq!(store.committed_step(), Some(4));
        drop(full_engine);

        // a brand-new engine resumes from the surviving checkpoint
        let fresh = GrapeEngine::from_edges(30, &edges, 3).with_recovery(cfg);
        let resumed = pagerank_recoverable(&fresh, 0.85, 10, &store);
        assert_eq!(
            uninterrupted.len(),
            resumed.len(),
            "same vertex set after restore"
        );
        for (i, (a, b)) in uninterrupted.iter().zip(&resumed).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "rank {i} diverged after restore: {a} vs {b}"
            );
        }
    }

    /// Plain runs never checkpoint (and still compute the same answer as
    /// an armed engine, tested above).
    #[test]
    fn unarmed_engine_does_not_checkpoint() {
        let edges = ring_edges(16);
        let engine = GrapeEngine::from_edges(16, &edges, 2);
        assert!(engine.recovery.is_none());
        assert!((0..16).all(|step| !engine.checkpoint_due(step, 16)));
        let labels = wcc(&engine);
        assert!(labels.iter().all(|&c| c == 0), "one ring, one component");
    }
}
