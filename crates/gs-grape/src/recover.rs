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
//! When an attempt dies — a worker panic (including injected
//! [`gs_chaos`] kills), a lost message, or a stalled peer — the failure
//! poisons the cluster's [`GlobalSync`](crate::engine::GlobalSync), every
//! surviving worker promptly aborts with
//! [`ClusterAborted`], and the driver tears
//! the attempt down and restarts **all** workers from the last committed
//! checkpoint. Because the per-step logic is deterministic, a restarted
//! run replays the exact arithmetic of an uninterrupted one: WCC/BFS
//! results are byte-identical and PageRank agrees to floating-point noise
//! (the global dangling-mass reduction sums in worker-arrival order).
//!
//! Genuine bugs still crash: a panic whose payload is not
//! [`gs_chaos::ChaosUnwind`] is re-raised on the driver thread after the
//! attempt unwinds, never silently retried.

use crate::engine::{pregel_step, ClusterAborted, CommHandle, GrapeEngine, PregelProgram};
use crate::fragment::Fragment;
use crate::messages::OutBuffers;
use gs_graph::VId;
use gs_sanitizer::TrackedMutex;
use gs_telemetry::counter;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for recoverable runs.
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
) -> Result<(), ClusterAborted> {
    store.stage(frag, step, snapshot);
    comm.try_allreduce(0)?;
    if comm.my_id == 0 {
        let committed = store.commit(step, comm.workers);
        debug_assert!(committed, "all workers staged before the barrier");
    }
    comm.try_allreduce(0)?;
    Ok(())
}

/// How one worker's attempt ended.
enum AttemptResult<T> {
    /// Clean completion with this fragment's results.
    Done(Vec<(VId, T)>),
    /// The attempt died recoverably: an injected fault or a cluster abort.
    Aborted,
    /// A genuine (non-chaos) panic; re-raised by the driver.
    Crashed(Box<dyn std::any::Any + Send>),
}

/// Runs `worker` over every fragment with dead-worker detection, retrying
/// whole attempts from scratch (the worker restores its own state from a
/// [`CheckpointStore`]) until one completes on every fragment. Injected
/// fault panics and [`ClusterAborted`] trigger a restart; any other panic
/// is re-raised — recovery must never swallow a real bug.
pub fn run_recoverable<T, F>(engine: &GrapeEngine, cfg: &RecoveryConfig, worker: F) -> Vec<T>
where
    T: Clone + Default + Send + 'static,
    F: Fn(&Fragment, &CommHandle, usize) -> Result<Vec<(VId, T)>, ClusterAborted> + Sync,
{
    gs_chaos::silence_chaos_panics();
    let k = engine.fragments.len();
    for attempt in 0..=cfg.max_restarts {
        let comms = CommHandle::cluster_with(k, Some(cfg.detect_timeout));
        let results: Vec<AttemptResult<T>> = crossbeam::thread::scope(|s| {
            let worker = &worker;
            let handles: Vec<_> = engine
                .fragments
                .iter()
                .zip(comms)
                .map(|(frag, comm)| {
                    s.spawn(move |_| {
                        let sync = Arc::clone(&comm.sync);
                        match catch_unwind(AssertUnwindSafe(|| worker(frag, &comm, attempt))) {
                            Ok(Ok(part)) => AttemptResult::Done(part),
                            Ok(Err(_aborted)) => AttemptResult::Aborted,
                            Err(payload) => {
                                // unblock the peers before this thread exits
                                sync.poison("peer worker panicked");
                                if gs_chaos::is_chaos_unwind(payload.as_ref()) {
                                    AttemptResult::Aborted
                                } else {
                                    AttemptResult::Crashed(payload)
                                }
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("recovery wrapper must not panic"))
                .collect()
        })
        .expect("grape scope");

        let mut parts = Vec::with_capacity(k);
        let mut aborted = false;
        for r in results {
            match r {
                AttemptResult::Done(p) => parts.push(p),
                AttemptResult::Aborted => aborted = true,
                AttemptResult::Crashed(payload) => resume_unwind(payload),
            }
        }
        if !aborted {
            let mut global = vec![T::default(); engine.global_n()];
            for part in parts {
                for (g, v) in part {
                    global[g.index()] = v;
                }
            }
            return global;
        }
        counter!("grape.recovery.restarts");
    }
    panic!(
        "grape recovery: attempt budget exhausted after {} restarts",
        cfg.max_restarts
    );
}

/// A consistent per-fragment cut of a Pregel run at a superstep boundary.
#[derive(Clone)]
pub struct PregelState<M, V> {
    pub values: Vec<V>,
    pub active: Vec<bool>,
    pub inboxes: Vec<Vec<M>>,
}

/// The checkpoint/restart Pregel driver: identical per-step semantics to
/// [`run_pregel`](crate::engine::run_pregel) (both delegate to the same
/// step function), plus a coordinated checkpoint every
/// `cfg.interval` supersteps and restart-from-checkpoint on failure.
pub fn run_pregel_recoverable<P: PregelProgram>(
    engine: &GrapeEngine,
    program: &P,
    max_steps: usize,
    cfg: &RecoveryConfig,
    store: &CheckpointStore<PregelState<P::Msg, P::Value>>,
) -> Vec<P::Value> {
    run_recoverable(engine, cfg, |frag, comm, _attempt| {
        let n_inner = frag.inner_count;
        let idx = frag.id.index();
        let (start, mut values, mut active, mut inboxes) = match store.restore(idx) {
            Some((step, st)) => (step + 1, st.values, st.active, st.inboxes),
            None => (
                0,
                (0..n_inner)
                    .map(|l| program.init(frag.global(l as u32), frag))
                    .collect(),
                vec![true; n_inner],
                vec![Vec::new(); n_inner],
            ),
        };
        let mut out = OutBuffers::new(comm.workers);
        for step in start..max_steps {
            gs_chaos::worker_kill_point(comm.my_id, step);
            let cont = pregel_step(
                program,
                frag,
                comm,
                step,
                &mut values,
                &mut active,
                &mut inboxes,
                &mut out,
            )?;
            if !cont {
                break;
            }
            // gate on globally agreed values only, so every worker makes
            // the identical collective sequence
            if cfg.interval > 0 && (step + 1) % cfg.interval == 0 && step + 1 < max_steps {
                checkpoint(
                    comm,
                    store,
                    idx,
                    step,
                    PregelState {
                        values: values.clone(),
                        active: active.clone(),
                        inboxes: inboxes.clone(),
                    },
                )?;
            }
        }
        Ok((0..n_inner)
            .map(|l| (frag.global(l as u32), values[l].clone()))
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::wcc;

    fn ring_edges(n: u64) -> Vec<(VId, VId)> {
        (0..n)
            .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
            .collect()
    }

    /// An armed engine produces the same results as a plain one when
    /// nothing faults (the recoverable driver is semantics-preserving).
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

    /// A genuine (non-chaos) worker panic must not be retried — it
    /// resurfaces on the driver thread.
    #[test]
    fn real_panics_are_reraised_not_retried() {
        let edges = ring_edges(8);
        let engine = GrapeEngine::from_edges(8, &edges, 2);
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let got = catch_unwind(AssertUnwindSafe(|| {
            run_recoverable::<u64, _>(&engine, &RecoveryConfig::default(), |_frag, _comm, _a| {
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

    /// Satellite: checkpoint/restore round-trip. Run PageRank far enough
    /// to commit a mid-run checkpoint, then restore that checkpoint into a
    /// **fresh** engine and finish: the final ranks must match an
    /// uninterrupted run bit-for-bit.
    #[test]
    fn checkpoint_restores_into_fresh_engine_with_identical_ranks() {
        use crate::algorithms::pagerank::pagerank_recoverable;
        let edges = ring_edges(30);
        let cfg = RecoveryConfig::default().interval(5);

        let full_engine = GrapeEngine::from_edges(30, &edges, 3);
        let store = CheckpointStore::new();
        let uninterrupted = pagerank_recoverable(&full_engine, 0.85, 10, &cfg, &store);
        // interval 5 over 10 iterations commits after step 4 (step 9 is
        // final, so no checkpoint there)
        assert_eq!(store.committed_step(), Some(4));
        drop(full_engine);

        // a brand-new engine resumes from the surviving checkpoint
        let fresh = GrapeEngine::from_edges(30, &edges, 3);
        let resumed = pagerank_recoverable(&fresh, 0.85, 10, &cfg, &store);
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

    /// Plain runs are untouched by the recoverable machinery: run_pregel
    /// without `with_recovery` takes the direct path (and still computes
    /// the same answer as an armed engine, tested above).
    #[test]
    fn unarmed_engine_does_not_checkpoint() {
        let edges = ring_edges(16);
        let engine = GrapeEngine::from_edges(16, &edges, 2);
        assert!(engine.recovery.is_none());
        let labels = wcc(&engine);
        assert!(labels.iter().all(|&c| c == 0), "one ring, one component");
    }
}
