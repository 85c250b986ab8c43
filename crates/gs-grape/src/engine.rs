//! The BSP core shared by all GRAPE programming models: per-fragment worker
//! threads, all-to-all compact-buffer message exchange, and barrier-based
//! global reductions.
//!
//! One driver runs every program: [`GrapeEngine::run`]. Each worker runs
//! under `catch_unwind`, and a worker that unwinds poisons the cluster's
//! [`GlobalSync`], so its peers leave their collectives promptly instead of
//! waiting on a block that will never come. The collectives themselves
//! ([`CommHandle::exchange`], [`CommHandle::allreduce`]) have one
//! infallible signature: on a dead cluster they unwind with a
//! [`ClusterAborted`] payload, the way injected kills unwind with
//! [`gs_chaos::ChaosUnwind`]. The driver re-raises any other payload on the
//! caller; with [`GrapeEngine::with_recovery`] armed it restarts an aborted
//! run (Pregel and PageRank resume from their last coordinated
//! checkpoint, see [`recover`](crate::recover)), and unarmed it panics
//! naming the cause.

use crate::fragment::Fragment;
use crate::messages::{MessageBlock, OutBuffers, Payload};
use crate::recover::{checkpoint, CheckpointStore};
use gs_graph::VId;
use gs_sanitizer::channel::{unbounded, RecvTimeoutError, TrackedReceiver, TrackedSender};
use gs_telemetry::counter;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
// gs-lint: allow(L001 GlobalSync pairs the mutex with a Condvar, which has no tracked equivalent; the sanitizer's channel events already cover this rendezvous)
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A collective or exchange observed the cluster dying mid-operation: a
/// peer worker was killed, a message was lost, or the cluster was poisoned
/// by another worker's failure. Collectives unwind with this payload; the
/// driver voids the attempt and, when recovery is armed, restarts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterAborted(pub &'static str);

/// Leaves the current collective with a [`ClusterAborted`] payload for the
/// driver to catch. `resume_unwind` skips the panic hook, so an abort
/// prints nothing.
fn abort(why: &'static str) -> ! {
    resume_unwind(Box::new(ClusterAborted(why)))
}

/// Poll granularity for poison checks while blocked in a collective or an
/// exchange. Purely a responsiveness bound — correctness never depends on
/// the value.
const POLL: Duration = Duration::from_millis(10);

#[derive(Default)]
struct RoundEntry {
    arrived: usize,
    departed: usize,
    total_u: u64,
    /// Finalized by the round's last arrival: the f64 contributions are
    /// folded in a canonical order so the reduced value is bit-identical
    /// regardless of which worker arrived first (f64 addition is not
    /// associative; arrival order is scheduler noise).
    total_f: f64,
    contribs_f: Vec<f64>,
}

struct SyncState {
    /// Live reduction rounds, keyed by round number. An entry is created
    /// by the round's first arrival and **removed by its last departure**,
    /// so the map holds only rounds some worker is still inside — it stays
    /// bounded by the worker-skew of the moment (at most `workers` rounds),
    /// not by the length of the run.
    rounds: HashMap<u64, RoundEntry>,
    poisoned: Option<&'static str>,
}

/// Global reduction across all workers, keyed by collective round: every
/// worker contributes at round `r`; all observe the total.
///
/// Unlike a plain barrier, the round map tolerates skew (a fast worker may
/// enter round `r+1` while a slow one still sits in `r`) and failure: any
/// worker — or the engine's dead-worker detector — can [`poison`] the
/// sync, which promptly unwinds every waiter with [`ClusterAborted`]
/// instead of deadlocking on a peer that will never arrive.
///
/// [`poison`]: GlobalSync::poison
pub struct GlobalSync {
    workers: usize,
    /// `Some(d)` arms dead-worker / lost-message detection: a reduction or
    /// an exchange that makes no progress for `d` poisons the cluster
    /// instead of waiting forever.
    detect: Option<Duration>,
    state: Mutex<SyncState>,
    cv: Condvar,
}

impl GlobalSync {
    /// A sync over `workers` workers; `detect` arms dead-worker detection.
    pub fn new(workers: usize, detect: Option<Duration>) -> Arc<Self> {
        Arc::new(Self {
            workers,
            detect,
            state: Mutex::new(SyncState {
                rounds: HashMap::new(),
                poisoned: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Marks the cluster dead: every blocked or future collective unwinds
    /// with [`ClusterAborted`] immediately. Idempotent; the first cause
    /// wins.
    pub fn poison(&self, why: &'static str) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.poisoned.is_none() {
            st.poisoned = Some(why);
        }
        self.cv.notify_all();
    }

    /// The poison cause, if the cluster has been marked dead.
    pub fn poisoned(&self) -> Option<&'static str> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned
    }

    /// How many reduction rounds currently hold state. Exposed for the
    /// boundedness regression test: after a run completes this is 0, and
    /// mid-run it never exceeds the number of workers.
    pub fn rounds_live(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rounds
            .len()
    }

    /// Contributes `(contribution, contribution_f)` to collective round
    /// `round` and waits for every worker; returns the round's u64 and f64
    /// sums. Every worker must call with the same monotonically increasing
    /// round number (see [`CommHandle::allreduce`], which manages the
    /// counter). Unwinds with [`ClusterAborted`] if the cluster is
    /// poisoned or, when detection is armed, a worker stalls.
    pub fn reduce(&self, round: u64, contribution: u64, contribution_f: f64) -> (u64, f64) {
        let deadline = self.detect.map(|d| Instant::now() + d);
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(why) = st.poisoned {
            drop(st);
            abort(why);
        }
        {
            let e = st.rounds.entry(round).or_default();
            e.total_u += contribution;
            e.contribs_f.push(contribution_f);
            e.arrived += 1;
            if e.arrived == self.workers {
                // Fold the f64 contributions in a canonical order so the
                // sum every worker observes is deterministic across runs.
                e.contribs_f.sort_by(|a, b| a.total_cmp(b));
                e.total_f = e.contribs_f.iter().sum();
                self.cv.notify_all();
            }
        }
        loop {
            if let Some(why) = st.poisoned {
                drop(st);
                abort(why);
            }
            if st.rounds.get(&round).map_or(0, |e| e.arrived) >= self.workers {
                break;
            }
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                st.poisoned = Some("allreduce stalled: worker lost");
                self.cv.notify_all();
                drop(st);
                abort("allreduce stalled: worker lost");
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, POLL)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        let e = st.rounds.get_mut(&round).expect("round entry present");
        let out = (e.total_u, e.total_f);
        e.departed += 1;
        if e.departed == self.workers {
            // last one out prunes the round — the map stays bounded
            st.rounds.remove(&round);
        }
        out
    }
}

/// An exchange packet: sender, the sender's exchange round, and the block.
/// The round tag is what makes the exchange robust to reordering, delay,
/// and duplication: a receiver files every packet under its declared round
/// instead of trusting per-sender FIFO arrival order.
type Packet = (usize, u64, MessageBlock);

/// Per-worker communication handle for all-to-all exchanges.
pub struct CommHandle {
    pub my_id: usize,
    pub workers: usize,
    senders: Vec<TrackedSender<Packet>>,
    receiver: TrackedReceiver<Packet>,
    pub sync: Arc<GlobalSync>,
    /// This worker's collective-round counter (each allreduce is one
    /// collective round; all workers must make the same sequence of calls).
    round: std::cell::Cell<u64>,
    /// This worker's exchange-round counter (tags outgoing packets).
    xround: std::cell::Cell<u64>,
    /// Blocks received ahead of their exchange round: `round → one slot
    /// per sender`. Consumed when this worker reaches that round.
    ahead: std::cell::RefCell<HashMap<u64, Vec<Option<MessageBlock>>>>,
    /// Blocks the fault plan deferred, tagged with their original round;
    /// flushed at this worker's next collective so a peer still waiting on
    /// that round receives them late but correctly filed.
    delayed: std::cell::RefCell<Vec<(usize, u64, MessageBlock)>>,
}

impl CommHandle {
    /// Builds a `k`-worker cluster of connected handles. `detect` arms
    /// dead-worker / lost-message detection: any collective or exchange
    /// stalled past it poisons the cluster and unwinds every worker with
    /// [`ClusterAborted`]. Unarmed, a slow worker is never declared dead.
    pub fn cluster(k: usize, detect: Option<Duration>) -> Vec<CommHandle> {
        let mut senders = Vec::with_capacity(k);
        let mut receivers = Vec::with_capacity(k);
        for _ in 0..k {
            let (tx, rx) = unbounded("grape.exchange");
            senders.push(tx);
            receivers.push(rx);
        }
        let sync = GlobalSync::new(k, detect);
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, receiver)| CommHandle {
                my_id: i,
                workers: k,
                senders: senders.clone(),
                receiver,
                sync: Arc::clone(&sync),
                round: std::cell::Cell::new(0),
                xround: std::cell::Cell::new(0),
                ahead: std::cell::RefCell::new(HashMap::new()),
                delayed: std::cell::RefCell::new(Vec::new()),
            })
            .collect()
    }

    /// Sends every fault-delayed block to its target, still tagged with
    /// the round it was originally part of. Send errors are ignored: in an
    /// aborting cluster the receiver may already be gone.
    fn flush_delayed(&self) {
        for (to, r, block) in self.delayed.borrow_mut().drain(..) {
            let _ = self.senders[to].send((self.my_id, r, block));
        }
    }

    /// One collective round of [`GlobalSync::reduce`].
    fn reduce(&self, contribution: u64, contribution_f: f64) -> (u64, f64) {
        self.flush_delayed();
        let r = self.round.get();
        self.round.set(r + 1);
        self.sync.reduce(r, contribution, contribution_f)
    }

    /// Collective all-reduce sum (u64). Unwinds with [`ClusterAborted`] if
    /// the cluster dies.
    pub fn allreduce(&self, contribution: u64) -> u64 {
        self.reduce(contribution, 0.0).0
    }

    /// Collective all-reduce sum (f64), folded in a canonical order so the
    /// result is bit-identical across runs. Unwinds with
    /// [`ClusterAborted`] if the cluster dies.
    pub fn allreduce_f64(&self, contribution: f64) -> f64 {
        self.reduce(0, contribution).1
    }

    /// All-to-all exchange: sends one block to every worker (including
    /// self), receives exactly one block *from* every worker for this
    /// round. Returns the received blocks (indexed by sender) and the total
    /// message count delivered to *this* worker.
    ///
    /// Under an installed fault plan the outgoing side consults
    /// [`gs_chaos::message_fault`] per block (self-delivery is exempt — a
    /// worker cannot lose a message to itself); the receiving side files
    /// packets by round tag, dropping duplicates and stale retransmits and
    /// stashing early arrivals. The receive loop polls for poison, so a
    /// dead peer unwinds this worker with [`ClusterAborted`]; with
    /// detection armed, a dropped block shows as no receive progress for
    /// the detection window, which poisons the cluster the same way.
    pub fn exchange(&self, out: &mut OutBuffers) -> (Vec<MessageBlock>, u64) {
        let round = self.xround.get();
        self.xround.set(round + 1);
        self.flush_delayed();
        let blocks = out.take();
        if gs_telemetry::enabled() {
            // cross-fragment traffic only: a self-block never leaves
            let remote = || {
                blocks
                    .iter()
                    .enumerate()
                    .filter(|&(to, _)| to != self.my_id)
                    .map(|(_, b)| b)
            };
            counter!("grape.msgs_sent"; remote().map(|b| b.count).sum());
            counter!("grape.msg_bytes_raw"; remote().map(|b| b.raw_bytes).sum());
            counter!("grape.msg_bytes_encoded"; remote().map(|b| b.bytes.len() as u64).sum());
        }
        for (to, block) in blocks.into_iter().enumerate() {
            if to == self.my_id {
                let _ = self.senders[to].send((self.my_id, round, block));
                continue;
            }
            match gs_chaos::message_fault(self.my_id, to) {
                gs_chaos::MessageFault::Deliver => {
                    let _ = self.senders[to].send((self.my_id, round, block));
                }
                gs_chaos::MessageFault::Drop => {}
                gs_chaos::MessageFault::Duplicate => {
                    let _ = self.senders[to].send((self.my_id, round, block.clone()));
                    let _ = self.senders[to].send((self.my_id, round, block));
                }
                gs_chaos::MessageFault::Delay => {
                    self.delayed.borrow_mut().push((to, round, block));
                }
            }
        }

        let mut incoming: Vec<Option<MessageBlock>> = self
            .ahead
            .borrow_mut()
            .remove(&round)
            .unwrap_or_else(|| (0..self.workers).map(|_| None).collect());
        let mut got = incoming.iter().filter(|b| b.is_some()).count();
        let stall_start = gs_telemetry::enabled().then(Instant::now);
        let detect = self.sync.detect;
        let mut deadline = detect.map(|d| Instant::now() + d);
        while got < self.workers {
            if let Some(why) = self.sync.poisoned() {
                abort(why);
            }
            let wait = match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        const STALLED: &str = "exchange stalled: message lost or worker dead";
                        self.sync.poison(STALLED);
                        abort(STALLED);
                    }
                    POLL.min(dl - now)
                }
                None => POLL,
            };
            let (from, r, block) = match self.receiver.recv_timeout(wait) {
                Ok(p) => p,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    self.sync.poison("exchange channel disconnected");
                    abort("exchange channel disconnected");
                }
            };
            // any receive is progress: push the loss-detection deadline out
            deadline = detect.map(|d| Instant::now() + d);
            match r.cmp(&round) {
                std::cmp::Ordering::Less => {
                    // stale retransmit of a round this worker completed
                }
                std::cmp::Ordering::Equal => {
                    if incoming[from].is_none() {
                        incoming[from] = Some(block);
                        got += 1;
                    }
                    // else: duplicate delivery — drop
                }
                std::cmp::Ordering::Greater => {
                    // a peer raced ahead; file under its declared round
                    let mut ahead = self.ahead.borrow_mut();
                    let slots = ahead
                        .entry(r)
                        .or_insert_with(|| (0..self.workers).map(|_| None).collect());
                    if slots[from].is_none() {
                        slots[from] = Some(block);
                    }
                }
            }
        }
        if let Some(t) = stall_start {
            counter!("grape.exchange_stall_ns"; t.elapsed().as_nanos() as u64);
        }
        let incoming: Vec<MessageBlock> = incoming
            .into_iter()
            .map(|b| b.expect("one per sender"))
            .collect();
        let count = incoming.iter().map(|b| b.count).sum();
        (incoming, count)
    }
}

/// The GRAPE engine: owns the fragments and runs programs over them, one
/// worker thread per fragment.
pub struct GrapeEngine {
    pub fragments: Vec<Fragment>,
    /// When set, [`run`](Self::run) arms dead-worker / lost-message
    /// detection and restarts an aborted run instead of panicking; Pregel
    /// and PageRank also checkpoint every `interval` supersteps and resume
    /// from the last checkpoint (see [`recover`](crate::recover)).
    pub recovery: Option<crate::recover::RecoveryConfig>,
}

impl GrapeEngine {
    /// Partitions a global edge list into `k` fragments.
    pub fn from_edges(n: usize, edges: &[(VId, VId)], k: usize) -> Self {
        Self {
            fragments: Fragment::partition_edges(n, edges, k),
            recovery: None,
        }
    }

    /// Partitions a weighted edge list.
    pub fn from_weighted_edges(n: usize, edges: &[(VId, VId)], weights: &[f64], k: usize) -> Self {
        Self {
            fragments: Fragment::partition_weighted(n, edges, Some(weights), k),
            recovery: None,
        }
    }

    /// Partitions into `k` fragments materialised in the given topology
    /// layout ([`gs_graph::LayoutKind`]); algorithm results are identical
    /// across layouts.
    pub fn from_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        k: usize,
        layout: gs_graph::LayoutKind,
    ) -> Self {
        Self {
            fragments: Fragment::partition_edges_with_layout(n, edges, k, layout),
            recovery: None,
        }
    }

    /// Partitions a weighted edge list with an explicit topology layout.
    pub fn from_weighted_edges_with_layout(
        n: usize,
        edges: &[(VId, VId)],
        weights: &[f64],
        k: usize,
        layout: gs_graph::LayoutKind,
    ) -> Self {
        Self {
            fragments: Fragment::partition_weighted_with_layout(n, edges, Some(weights), k, layout),
            recovery: None,
        }
    }

    /// The topology layout the fragments were materialised in.
    pub fn layout(&self) -> gs_graph::LayoutKind {
        self.fragments
            .first()
            .map_or(gs_graph::LayoutKind::Csr, |f| f.layout())
    }

    /// Arms detection and restart for every program, and coordinated
    /// checkpoints for Pregel and PageRank.
    pub fn with_recovery(mut self, cfg: crate::recover::RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Whether a coordinated checkpoint follows superstep `step` of a
    /// `steps`-step run: recovery is armed and `step` closes an interval
    /// before the last step. It reads only values every worker agrees on,
    /// so all workers make the identical collective sequence.
    pub(crate) fn checkpoint_due(&self, step: usize, steps: usize) -> bool {
        self.recovery.as_ref().is_some_and(|c| {
            c.interval > 0 && (step + 1).is_multiple_of(c.interval) && step + 1 < steps
        })
    }

    /// Global vertex count.
    pub fn global_n(&self) -> usize {
        self.fragments.first().map_or(0, |f| f.global_n)
    }

    /// Runs a per-fragment worker function in parallel and gathers each
    /// fragment's `(global id, value)` results into one global vector.
    /// The worker receives `(fragment, comm)`.
    ///
    /// Every worker runs under `catch_unwind`; one that unwinds poisons
    /// the cluster so its peers abort their collectives. Once all workers
    /// have joined, a payload that is neither [`gs_chaos::ChaosUnwind`] nor
    /// [`ClusterAborted`] (a genuine bug) is re-raised here, never retried.
    /// Otherwise an aborted run restarts from scratch (the worker restores
    /// its own state from any checkpoint it keeps) when recovery is armed,
    /// and panics naming the cause when it is not.
    pub fn run<T, F>(&self, worker: F) -> Vec<T>
    where
        T: Clone + Default + Send + 'static,
        F: Fn(&Fragment, &CommHandle) -> Vec<(VId, T)> + Sync,
    {
        gs_chaos::silence_chaos_panics();
        let k = self.fragments.len();
        let detect = self.recovery.as_ref().map(|c| c.detect_timeout);
        let max_restarts = self.recovery.as_ref().map_or(0, |c| c.max_restarts);
        for _ in 0..=max_restarts {
            let comms = CommHandle::cluster(k, detect);
            let sync = comms.first().map(|c| Arc::clone(&c.sync));
            let results = crossbeam::thread::scope(|s| {
                let worker = &worker;
                let handles: Vec<_> = self
                    .fragments
                    .iter()
                    .zip(comms)
                    .map(|(frag, comm)| {
                        s.spawn(move |_| {
                            catch_unwind(AssertUnwindSafe(|| worker(frag, &comm))).inspect_err(
                                |payload| {
                                    // unblock the peers before this thread exits
                                    let why = payload
                                        .downcast_ref::<gs_chaos::ChaosUnwind>()
                                        .map_or("peer worker panicked", |c| c.0);
                                    comm.sync.poison(why);
                                },
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panics are caught"))
                    .collect::<Vec<_>>()
            })
            .expect("grape scope");

            let mut parts = Vec::with_capacity(k);
            for r in results {
                match r {
                    Ok(part) => parts.push(part),
                    Err(payload)
                        if gs_chaos::is_chaos_unwind(payload.as_ref())
                            || payload.is::<ClusterAborted>() => {}
                    Err(payload) => resume_unwind(payload),
                }
            }
            if parts.len() == k {
                let mut global = vec![T::default(); self.global_n()];
                for (g, v) in parts.into_iter().flatten() {
                    global[g.index()] = v;
                }
                return global;
            }
            let why = sync.and_then(|s| s.poisoned()).unwrap_or("worker lost");
            if self.recovery.is_none() {
                panic!("grape run aborted: {why}");
            }
            counter!("grape.recovery.restarts");
        }
        panic!("grape recovery: attempt budget exhausted after {max_restarts} restarts");
    }
}

/// A Pregel ("think like a vertex") program.
pub trait PregelProgram: Sync {
    /// Message type exchanged along edges.
    type Msg: Payload;
    /// Per-vertex state.
    type Value: Clone + Default + Send + 'static;

    /// Initial value for a vertex.
    fn init(&self, g: VId, frag: &Fragment) -> Self::Value;

    /// One superstep for one vertex. `msgs` holds the vertex's combined
    /// message, if any (zero or one element). Returning `true` keeps the
    /// vertex active; `false` votes to halt (it reactivates on incoming
    /// messages).
    fn compute(
        &self,
        step: usize,
        local: u32,
        value: &mut Self::Value,
        msgs: &[Self::Msg],
        ctx: &mut PregelContext<'_, Self::Msg>,
    ) -> bool;

    /// Associative, commutative message combiner. The runtime folds every
    /// message to one vertex into one: inner targets in place as they are
    /// sent, mirror targets per mirror before the superstep's exchange,
    /// and remote blocks at the receiver.
    fn combine(&self, a: Self::Msg, b: Self::Msg) -> Self::Msg;
}

/// Context passed to [`PregelProgram::compute`].
pub struct PregelContext<'a, M: Payload> {
    pub frag: &'a Fragment,
    /// Next superstep's inbox (inner local ids) followed by one
    /// accumulator per outer mirror, both combined in place.
    next: &'a mut [Option<M>],
    out: &'a mut OutBuffers,
    combine: &'a dyn Fn(M, M) -> M,
    /// Sends this superstep (termination needs only zero vs non-zero).
    sent: u64,
}

/// Combines `msg` into a message slot.
#[inline]
fn fold<M>(slot: &mut Option<M>, msg: M, combine: impl FnOnce(M, M) -> M) {
    *slot = Some(match slot.take() {
        Some(prev) => combine(prev, msg),
        None => msg,
    });
}

impl<'a, M: Payload> PregelContext<'a, M> {
    /// Combines `msg` into the slot of local vertex `l`.
    #[inline]
    fn fold(&mut self, l: usize, msg: M) {
        fold(&mut self.next[l], msg, self.combine);
    }

    /// Sends a message to a vertex by *global* id. A vertex of this
    /// fragment receives it in place; any other goes to its owner now.
    #[inline]
    pub fn send(&mut self, target: VId, msg: M) {
        let (to, lid) = self.frag.route_global(target);
        if to == self.frag.id.index() {
            self.fold(lid as usize, msg);
        } else {
            self.out.send(to, lid, msg);
        }
        self.sent += 1;
    }

    /// Sends to every out-neighbor of a local vertex: inner neighbors and
    /// mirrors alike combine into their slot, and each mirror's combined
    /// message leaves once, at the end of the superstep.
    #[inline]
    pub fn send_to_out_neighbors(&mut self, local: u32, msg: M) {
        let frag = self.frag;
        let mut sent = 0;
        frag.for_each_out(local, |nbr, _| {
            self.fold(nbr.index(), msg);
            sent += 1;
        });
        self.sent += sent;
    }
}

/// One fragment's Pregel state at a superstep boundary — what a
/// coordinated checkpoint saves and a restarted worker restores.
#[derive(Clone)]
struct PregelState<M, V> {
    values: Vec<V>,
    active: Vec<bool>,
    /// The combined message each vertex receives next superstep, by local
    /// id (mirror slots are always empty at a superstep boundary).
    inbox: Vec<Option<M>>,
}

/// One Pregel superstep over a fragment: compute phase, mirror flush,
/// exchange, remote combining, and the global termination reduction.
/// `next` is the second inbox buffer (inner vertices, then mirrors); it is
/// all `None` on entry and on return. Returns `true` to continue, `false`
/// on global termination.
fn pregel_step<P: PregelProgram>(
    program: &P,
    frag: &Fragment,
    comm: &CommHandle,
    step: usize,
    st: &mut PregelState<P::Msg, P::Value>,
    next: &mut Vec<Option<P::Msg>>,
    out: &mut OutBuffers,
) -> bool {
    let n_inner = frag.inner_count;
    if comm.my_id == 0 {
        // one worker counts supersteps for the whole cluster
        counter!("grape.supersteps");
    }
    let PregelState {
        values,
        active,
        inbox,
    } = st;
    let combine = |a, b| program.combine(a, b);
    let mut ctx = PregelContext {
        frag,
        next,
        out,
        combine: &combine,
        sent: 0,
    };
    // compute phase
    let mut local_active = 0u64;
    for l in 0..n_inner {
        if !active[l] && inbox[l].is_none() {
            continue;
        }
        let msg = inbox[l].take();
        let keep = program.compute(step, l as u32, &mut values[l], msg.as_slice(), &mut ctx);
        active[l] = keep;
        if keep {
            local_active += 1;
        }
    }
    let sent = ctx.sent;
    // each mirror's combined message goes to its owner once
    for (m, slot) in next[n_inner..].iter_mut().enumerate() {
        if let Some(msg) = slot.take() {
            let (to, lid) = frag.route((n_inner + m) as u32);
            out.send(to, lid, msg);
        }
    }
    // exchange phase: remote messages combine after the inner ones
    let (blocks, _received) = comm.exchange(out);
    for block in &blocks {
        block.for_each::<P::Msg>(|l, m| fold(&mut next[l as usize], m, combine));
    }
    std::mem::swap(inbox, next);
    // global termination: nobody active, nothing in flight
    comm.allreduce(local_active + sent) != 0
}

/// Runs a Pregel program to fixpoint (or `max_steps`), returning per-vertex
/// values indexed by global id. With [`GrapeEngine::with_recovery`] armed,
/// every worker checkpoints its values, active flags and inbox every
/// `interval` supersteps, and a restarted run resumes from the last
/// committed checkpoint.
pub fn run_pregel<P: PregelProgram>(
    engine: &GrapeEngine,
    program: &P,
    max_steps: usize,
) -> Vec<P::Value> {
    let store = CheckpointStore::new();
    engine.run(|frag, comm| {
        let n_inner = frag.inner_count;
        let idx = frag.id.index();
        let (start, mut st) = match store.restore(idx) {
            Some((step, st)) => (step + 1, st),
            None => (
                0,
                PregelState {
                    values: (0..n_inner)
                        .map(|l| program.init(frag.global(l as u32), frag))
                        .collect(),
                    active: vec![true; n_inner],
                    inbox: vec![None; frag.local_count()],
                },
            ),
        };
        let mut next = vec![None; frag.local_count()];
        let mut out = OutBuffers::new(comm.workers);
        for step in start..max_steps {
            gs_chaos::worker_kill_point(comm.my_id, step);
            if !pregel_step(program, frag, comm, step, &mut st, &mut next, &mut out) {
                break;
            }
            if engine.checkpoint_due(step, max_steps) {
                checkpoint(comm, &store, idx, step, st.clone());
            }
        }
        st.values
            .into_iter()
            .enumerate()
            .map(|(l, v)| (frag.global(l as u32), v))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max-value propagation: every vertex converges to the component max.
    struct MaxProp;
    impl PregelProgram for MaxProp {
        type Msg = u64;
        type Value = u64;
        fn init(&self, g: VId, _f: &Fragment) -> u64 {
            g.0
        }
        fn compute(
            &self,
            step: usize,
            local: u32,
            value: &mut u64,
            msgs: &[u64],
            ctx: &mut PregelContext<'_, u64>,
        ) -> bool {
            let before = *value;
            for &m in msgs {
                *value = (*value).max(m);
            }
            if step == 0 || *value > before {
                let v = *value;
                ctx.send_to_out_neighbors(local, v);
            }
            false // vote halt; reactivated by messages
        }
        fn combine(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
    }

    #[test]
    fn max_propagation_on_ring() {
        let edges: Vec<(VId, VId)> = (0..40u64)
            .flat_map(|i| [(VId(i), VId((i + 1) % 40)), (VId((i + 1) % 40), VId(i))])
            .collect();
        for k in [1, 3, 4] {
            let engine = GrapeEngine::from_edges(40, &edges, k);
            let result = run_pregel(&engine, &MaxProp, 100);
            assert!(result.iter().all(|&v| v == 39), "k={k}: {result:?}");
        }
    }

    #[test]
    fn disconnected_components_get_their_own_max() {
        // two disjoint bidirectional paths: 0-1-2, 3-4
        let edges = vec![
            (VId(0), VId(1)),
            (VId(1), VId(0)),
            (VId(1), VId(2)),
            (VId(2), VId(1)),
            (VId(3), VId(4)),
            (VId(4), VId(3)),
        ];
        let engine = GrapeEngine::from_edges(5, &edges, 2);
        let result = run_pregel(&engine, &MaxProp, 50);
        assert_eq!(result, vec![2, 2, 2, 4, 4]);
    }

    #[test]
    fn global_sync_sums_across_workers() {
        let comms = CommHandle::cluster(4, None);
        let totals: Vec<u64> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move |_| -> u64 {
                        (0..3).map(|_| c.allreduce(c.my_id as u64 + 1)).sum()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        // each round sums 1+2+3+4 = 10; three rounds = 30 per worker
        assert!(totals.iter().all(|&t| t == 30), "{totals:?}");
    }

    /// Regression (round-map growth): a long run must not accumulate an
    /// entry per past round — the last worker out of a round prunes it, so
    /// the map holds at most the rounds currently straddled by skew.
    #[test]
    fn global_sync_round_map_stays_bounded_over_long_runs() {
        let workers = 4;
        let sync = GlobalSync::new(workers, None);
        let rounds = 2_000u64;
        crossbeam::thread::scope(|s| {
            for w in 0..workers {
                let sync = Arc::clone(&sync);
                s.spawn(move |_| {
                    for r in 0..rounds {
                        let (total, _) = sync.reduce(r, w as u64 + 1, 0.0);
                        assert_eq!(total, 10);
                    }
                    // live rounds are bounded by skew, never by history
                    assert!(
                        sync.rounds_live() <= workers,
                        "round map grew to {}",
                        sync.rounds_live()
                    );
                });
            }
        })
        .unwrap();
        assert_eq!(sync.rounds_live(), 0, "all rounds pruned after the run");
    }

    /// The [`ClusterAborted`] payload a collective unwound with.
    fn abort_cause<T>(r: std::thread::Result<T>) -> ClusterAborted {
        let payload = r.err().expect("the collective must abort");
        *payload
            .downcast::<ClusterAborted>()
            .expect("collectives unwind with a ClusterAborted payload")
    }

    /// Poisoning a sync unwinds waiting workers with `ClusterAborted`
    /// instead of deadlocking on a peer that never arrives.
    #[test]
    fn poison_unblocks_waiting_workers() {
        let sync = GlobalSync::new(2, None);
        let s2 = Arc::clone(&sync);
        let waiter = std::thread::spawn(move || s2.reduce(0, 1, 0.0));
        std::thread::sleep(Duration::from_millis(20));
        sync.poison("test kill");
        assert_eq!(abort_cause(waiter.join()), ClusterAborted("test kill"));
        assert_eq!(sync.poisoned(), Some("test kill"));
    }

    /// Dead-worker detection: with detection armed, a reduction missing a
    /// contributor aborts after the window instead of hanging forever.
    #[test]
    fn armed_sync_detects_missing_worker() {
        let sync = GlobalSync::new(2, Some(Duration::from_millis(50)));
        let got = catch_unwind(AssertUnwindSafe(|| sync.reduce(0, 1, 0.0)));
        abort_cause(got);
        assert!(sync.poisoned().is_some());
    }

    /// An exchange missing one sender's block aborts the cluster via the
    /// detection window (this is how message loss surfaces).
    #[test]
    fn armed_exchange_detects_lost_block() {
        let mut comms = CommHandle::cluster(2, Some(Duration::from_millis(60)));
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        // worker 1 never sends; worker 0's exchange must abort, not hang
        drop(c1);
        let mut out = OutBuffers::new(2);
        abort_cause(catch_unwind(AssertUnwindSafe(|| c0.exchange(&mut out))));
        assert!(c0.sync.poisoned().is_some());
    }

    fn ring(n: u64) -> Vec<(VId, VId)> {
        (0..n)
            .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
            .collect()
    }

    /// Runs `f` off the test thread and waits at most 20 s for it, so an
    /// engine that hangs fails the test instead of stalling the suite.
    fn within_deadline<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("engine run hung: a panicking worker left its peer blocked")
    }

    /// Regression: an unarmed run whose worker panics while its peer
    /// blocks in `exchange` used to leave the peer waiting forever. The
    /// panicking worker now poisons the cluster, the peer aborts, and the
    /// caller receives the original panic payload.
    #[test]
    fn worker_panic_unblocks_peer_blocked_in_exchange() {
        let got = within_deadline(|| {
            GrapeEngine::from_edges(8, &ring(8), 2).run(|_frag, comm| -> Vec<(VId, u64)> {
                if comm.my_id == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("worker 1 bug");
                }
                comm.exchange(&mut OutBuffers::new(comm.workers));
                Vec::new()
            })
        });
        let payload = got.expect_err("the bug must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 1 bug"));
    }

    /// The same through FLASH, with the peer blocked in an all-reduce.
    #[test]
    fn flash_worker_panic_unblocks_peer_blocked_in_allreduce() {
        let got = within_deadline(|| {
            let engine = GrapeEngine::from_edges(8, &ring(8), 2);
            crate::flash::run_flash(&engine, |ctx| -> Vec<(VId, u64)> {
                if ctx.frag.id.index() == 1 {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("flash program bug");
                }
                ctx.size(&crate::flash::VertexSubset::full(ctx.frag));
                Vec::new()
            })
        });
        let payload = got.expect_err("the bug must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"flash program bug"));
    }

    /// A worker killed by an injected fault in an unarmed run: nothing
    /// restarts, and the caller's panic names the cause.
    #[test]
    fn unarmed_abort_panics_naming_the_cause() {
        let engine = GrapeEngine::from_edges(8, &ring(8), 2);
        let got = catch_unwind(AssertUnwindSafe(|| {
            engine.run(|_frag, comm| -> Vec<(VId, u64)> {
                if comm.my_id == 1 {
                    std::panic::panic_any(gs_chaos::ChaosUnwind("injected kill"));
                }
                comm.allreduce(1);
                Vec::new()
            })
        }));
        let payload = got.expect_err("an aborted run must not return");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(msg, "grape run aborted: injected kill");
    }

    /// With recovery armed, the same injected kill restarts the run, which
    /// then completes.
    #[test]
    fn armed_run_restarts_after_an_injected_kill() {
        let engine = GrapeEngine::from_edges(8, &ring(8), 2)
            .with_recovery(crate::recover::RecoveryConfig::default());
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let got = engine.run(|frag, comm| {
            if comm.my_id == 1 && attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                std::panic::panic_any(gs_chaos::ChaosUnwind("injected kill"));
            }
            let total = comm.allreduce(1);
            (0..frag.inner_count as u32)
                .map(|l| (frag.global(l), total))
                .collect()
        });
        assert_eq!(got, vec![2; 8]);
        assert_eq!(attempts.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    /// A Pregel run restarted mid-way resumes from the checkpointed flat
    /// inbox: the messages in flight at the checkpoint are delivered after
    /// the restart, so the result equals an uninterrupted run's. (Losing
    /// them would strand the max short of the vertices they were bound
    /// for: every vertex halts each step.)
    #[test]
    fn pregel_restart_resumes_from_the_checkpointed_inbox() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct KillOnce<'a>(&'a AtomicBool);
        impl PregelProgram for KillOnce<'_> {
            type Msg = u64;
            type Value = u64;
            fn init(&self, g: VId, f: &Fragment) -> u64 {
                MaxProp.init(g, f)
            }
            fn compute(
                &self,
                step: usize,
                local: u32,
                value: &mut u64,
                msgs: &[u64],
                ctx: &mut PregelContext<'_, u64>,
            ) -> bool {
                if step == 7 && ctx.frag.id.index() == 1 && !self.0.swap(true, Ordering::SeqCst) {
                    std::panic::panic_any(gs_chaos::ChaosUnwind("injected kill"));
                }
                MaxProp.compute(step, local, value, msgs, ctx)
            }
            fn combine(&self, a: u64, b: u64) -> u64 {
                a.max(b)
            }
        }
        let edges = ring(60);
        let plain = run_pregel(&GrapeEngine::from_edges(60, &edges, 3), &MaxProp, 100);
        assert!(plain.iter().all(|&v| v == 59));
        let killed = AtomicBool::new(false);
        let engine = GrapeEngine::from_edges(60, &edges, 3)
            .with_recovery(crate::recover::RecoveryConfig::default().interval(3));
        let resumed = run_pregel(&engine, &KillOnce(&killed), 100);
        assert!(killed.load(Ordering::SeqCst), "the kill fired");
        assert_eq!(resumed, plain);
    }
}
