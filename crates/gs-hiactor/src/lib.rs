//! # gs-hiactor — HiActor, the high-concurrency OLTP engine
//!
//! HiActor (paper §5, after Alibaba's hiactor framework) targets the OLTP
//! side of graph querying: many small concurrent queries, each cheap, where
//! throughput and tail latency matter more than per-query parallelism.
//!
//! Plans — ad-hoc and prepared — run to completion on the calling thread,
//! after the capability check and submit-time verify: a point query costs
//! less than a thread hop, and the serving layer's admission already bounds
//! concurrency. That is the design contrast with Gaia: no coordination and
//! no data parallelism within one query.
//!
//! Stored procedures run on a set of *shard* actors — one OS thread each,
//! processing its mailbox sequentially — behind a procedure registry with
//! deadlines, retries, circuit breakers and load shedding, mirroring how
//! production deployments run parameterized procedures at high QPS (§8
//! real-time fraud detection runs exactly this stack over GART).

use gs_chaos::{BreakerConfig, CircuitBreaker, RetryPolicy};
use gs_grin::GrinGraph;
use gs_ir::exec::execute;
use gs_ir::physical::PhysicalPlan;
use gs_ir::record::Record;
use gs_ir::{GraphError, Result, Value};
use gs_sanitizer::channel::{bounded, unbounded, RecvTimeoutError, TrackedReceiver, TrackedSender};
use gs_sanitizer::SharedCell;
use gs_telemetry::{counter, observe};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shard-actor runtime.
pub struct HiActorRuntime {
    shards: Vec<TrackedSender<Job>>,
    /// Jobs currently waiting in (or running from) each shard's mailbox.
    depths: Vec<Arc<AtomicU64>>,
    /// Whether each shard's actor loop is still draining its mailbox.
    alive: Vec<Arc<AtomicBool>>,
    /// Kill switches checked by each loop before its next job.
    kills: Vec<Arc<AtomicBool>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next: AtomicUsize,
}

impl HiActorRuntime {
    /// Spawns `shards` actor threads.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let alive: Vec<Arc<AtomicBool>> = (0..shards)
            .map(|_| Arc::new(AtomicBool::new(true)))
            .collect();
        let kills: Vec<Arc<AtomicBool>> = (0..shards)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        for i in 0..shards {
            let (tx, rx): (TrackedSender<Job>, TrackedReceiver<Job>) = unbounded("hiactor.mailbox");
            senders.push(tx);
            let alive = Arc::clone(&alive[i]);
            let kill = Arc::clone(&kills[i]);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hiactor-shard-{i}"))
                    .spawn(move || {
                        // mark the shard dead on ANY exit path — and only
                        // after the mailbox receiver is gone, so a submitter
                        // that still sees `alive` has its send fail and its
                        // job dropped rather than stranded
                        struct AliveGuard(Arc<AtomicBool>);
                        impl Drop for AliveGuard {
                            fn drop(&mut self) {
                                self.0.store(false, Ordering::SeqCst);
                            }
                        }
                        let _guard = AliveGuard(alive);
                        // the actor loop: drain the mailbox sequentially. A
                        // panicking job must not take the whole shard down —
                        // its caller sees the dropped result channel as a
                        // structured error; the shard keeps serving.
                        let mut jobs_done: u64 = 0;
                        for job in rx {
                            if kill.load(Ordering::SeqCst) {
                                break;
                            }
                            if let Some(d) = gs_chaos::shard_delay(i) {
                                std::thread::sleep(d);
                            }
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            jobs_done += 1;
                            if gs_chaos::shard_should_die(i, jobs_done) {
                                break;
                            }
                        }
                        // leaving the loop drops the mailbox receiver: jobs
                        // still queued are dropped, which disconnects their
                        // result channels — callers get the structured
                        // "terminated" error instead of blocking forever
                    })
                    .expect("spawn shard"),
            );
        }
        Self {
            shards: senders,
            depths: (0..shards).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            alive,
            kills,
            handles,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Jobs currently queued on (or running from) shard `i`.
    pub fn queue_depth(&self, i: usize) -> u64 {
        self.depths[i % self.depths.len()].load(Ordering::Relaxed)
    }

    /// Whether shard `i`'s actor loop is still draining its mailbox.
    pub fn shard_alive(&self, i: usize) -> bool {
        self.alive[i % self.alive.len()].load(Ordering::SeqCst)
    }

    /// Kills shard `i`: its loop exits before running another job, and
    /// every job already queued there is dropped (each caller sees the
    /// structured "terminated" error). Used by tests and fault drills; the
    /// chaos layer's dead-shard schedule exercises the same exit path.
    pub fn kill_shard(&self, i: usize) {
        let i = i % self.shards.len();
        self.kills[i].store(true, Ordering::SeqCst);
        // wake the loop if it is parked on an empty mailbox; the no-op job
        // is never run — the kill check precedes it
        let _ = self.shards[i].send(Box::new(|| {}));
    }

    /// Resolves a submission target: an explicit dead shard is refused,
    /// and the round-robin path skips dead shards. `None` means no live
    /// shard can take the job.
    fn pick_shard(&self, shard: Option<usize>) -> Option<usize> {
        let n = self.shards.len();
        match shard {
            Some(i) => {
                let i = i % n;
                self.alive[i].load(Ordering::SeqCst).then_some(i)
            }
            None => (0..n)
                .map(|_| self.next.fetch_add(1, Ordering::Relaxed) % n)
                .find(|&i| self.alive[i].load(Ordering::SeqCst)),
        }
    }

    /// Submits a job to a specific shard (or round-robin when `None`);
    /// returns a completion receiver. Submitting to a dead shard (or when
    /// every shard is dead) yields an already-disconnected receiver, so
    /// the caller observes the structured "terminated" error promptly
    /// instead of parking on a mailbox nobody will ever drain.
    pub fn submit<T, F>(&self, shard: Option<usize>, f: F) -> TrackedReceiver<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = bounded("hiactor.result", 1);
        let Some(idx) = self.pick_shard(shard) else {
            drop(tx);
            return rx;
        };
        let depth = Arc::clone(&self.depths[idx]);
        let d = depth.fetch_add(1, Ordering::Relaxed) + 1;
        observe!("hiactor.queue_depth", shard = idx; d);
        // the depth must come back down even when the job panics out of the
        // shard loop's catch_unwind, so decrement from a drop guard —
        // before publishing the result, so a caller that has observed
        // completion never sees this job still counted
        struct DepthGuard(Arc<AtomicU64>);
        impl Drop for DepthGuard {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let guard = DepthGuard(depth);
        let job: Job = Box::new(move || {
            let out = f();
            drop(guard);
            let _ = tx.send(out);
        });
        // a dead shard drops the job here, which drops `tx`; the caller
        // observes a disconnected result channel and maps it to a
        // structured error instead of this send panicking
        let _ = self.shards[idx].send(job);
        rx
    }

    /// Blocks until all live shards have drained their current mailboxes.
    pub fn quiesce(&self) {
        let receivers: Vec<TrackedReceiver<()>> = (0..self.shards.len())
            .filter(|&i| self.shard_alive(i))
            .map(|i| self.submit(Some(i), || ()))
            .collect();
        for r in receivers {
            let _ = r.recv();
        }
    }
}

impl Drop for HiActorRuntime {
    fn drop(&mut self) {
        self.shards.clear(); // close mailboxes → actors exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The GRIN capabilities HiActor requires from a store: iterator access
/// plus properties, and external-id lookup so parameterized procedures can
/// seed traversals from user-supplied ids. Validated at
/// [`gs_ir::QueryEngine::execute`], mirroring Gaia.
pub const REQUIRED_CAPABILITIES: gs_grin::Capabilities = gs_grin::Capabilities::VERTEX_LIST_ITER
    .union(gs_grin::Capabilities::ADJ_LIST_ITER)
    .union(gs_grin::Capabilities::PROPERTY)
    .union(gs_grin::Capabilities::INDEX_EXTERNAL_ID);

/// A stored procedure: parameters in, records out.
pub type Procedure =
    Arc<dyn Fn(&HashMap<String, Value>) -> Result<Vec<Record>> + Send + Sync + 'static>;

/// A registry entry: the procedure plus whether it may be retried after a
/// transport-class failure (only idempotent procedures are safe to replay
/// — a crashed shard may or may not have applied the call's effects).
#[derive(Clone)]
struct ProcEntry {
    proc_: Procedure,
    idempotent: bool,
}

/// Robustness tuning for [`QueryService`] calls. The default is fully
/// permissive — no deadline, no retries, no shedding — matching the
/// behavior of a service constructed before this config existed.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Per-call deadline enforced by [`QueryService::call_sync`]; `None`
    /// waits indefinitely. A missed deadline surfaces as
    /// [`GraphError::Timeout`].
    pub deadline: Option<Duration>,
    /// Retry policy applied to transport-class failures (timeouts, shard
    /// deaths) of idempotent procedures. Application errors returned by
    /// the procedure itself are never retried.
    pub retry: RetryPolicy,
    /// Load-shedding watermark: once every live shard's queue depth is at
    /// or past it, new calls fail fast with [`GraphError::Overloaded`]
    /// instead of queueing unboundedly.
    pub overload_watermark: Option<u64>,
    /// Per-procedure circuit-breaker tuning; an open circuit rejects calls
    /// with [`GraphError::Unavailable`] until its cooldown lapses.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            deadline: None,
            retry: RetryPolicy::none(),
            overload_watermark: None,
            breaker: BreakerConfig::default(),
        }
    }
}

/// The OLTP query service: a HiActor runtime plus a stored-procedure
/// registry. Procedures capture their own graph access (e.g. a GART store
/// they snapshot per call), exactly like registered procedures in a graph
/// database. As a [`gs_ir::QueryEngine`] it runs plans on the caller.
pub struct QueryService {
    runtime: Arc<HiActorRuntime>,
    procedures: SharedCell<HashMap<String, ProcEntry>>,
    breakers: gs_sanitizer::TrackedMutex<HashMap<String, CircuitBreaker>>,
    config: ServiceConfig,
    verify: gs_ir::VerifyLevel,
}

impl QueryService {
    /// Service over `shards` actor threads.
    pub fn new(shards: usize) -> Self {
        Self {
            runtime: Arc::new(HiActorRuntime::new(shards)),
            procedures: SharedCell::new("hiactor.procedures", HashMap::new()),
            breakers: gs_sanitizer::TrackedMutex::new("hiactor.breakers", HashMap::new()),
            config: ServiceConfig::default(),
            verify: gs_ir::VerifyLevel::default(),
        }
    }

    /// Sets the submit-time plan verification level for ad-hoc and
    /// prepared plans.
    pub fn with_verify(mut self, verify: gs_ir::VerifyLevel) -> Self {
        self.verify = verify;
        self
    }

    /// Sets deadlines, retry policy, shedding and breaker tuning.
    pub fn with_config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// The underlying runtime (for ad-hoc jobs).
    pub fn runtime(&self) -> &HiActorRuntime {
        &self.runtime
    }

    /// Registers a native stored procedure. Assumed non-idempotent: it is
    /// never retried after a transport failure.
    pub fn register(&self, name: &str, proc_: Procedure) {
        self.insert(name, proc_, false);
    }

    /// Registers a procedure the caller guarantees is idempotent, making
    /// it eligible for retry-with-backoff after transport failures.
    pub fn register_idempotent(&self, name: &str, proc_: Procedure) {
        self.insert(name, proc_, true);
    }

    /// Registers a pre-compiled physical plan as a procedure over a fixed
    /// graph handle (parameters are ignored — the plan is fully bound).
    /// Plans are pure reads over a snapshot, hence idempotent.
    pub fn register_plan(&self, name: &str, plan: PhysicalPlan, graph: Arc<dyn GrinGraph>) {
        let proc_: Procedure = Arc::new(move |_params| execute(&plan, graph.as_ref()));
        self.register_idempotent(name, proc_);
    }

    fn insert(&self, name: &str, proc_: Procedure, idempotent: bool) {
        self.procedures.update(|m| {
            m.insert(name.to_string(), ProcEntry { proc_, idempotent });
        });
    }

    /// Calls a procedure asynchronously; the result arrives on the returned
    /// channel. Unknown procedures and load shedding are reported through
    /// the channel.
    pub fn call(
        &self,
        name: &str,
        params: HashMap<String, Value>,
    ) -> TrackedReceiver<Result<Vec<Record>>> {
        let entry = self.procedures.read_with(|m| m.get(name).cloned());
        let primed = |err: GraphError| {
            let (tx, rx) = bounded("hiactor.result", 1);
            let _ = tx.send(Err(err));
            rx
        };
        match entry {
            Some(e) => {
                if let Err(err) = self.admit() {
                    return primed(err);
                }
                let name = name.to_string();
                let p = e.proc_;
                self.runtime.submit(None, move || {
                    let start = gs_telemetry::enabled().then(Instant::now);
                    let r = p(&params);
                    if let Some(t) = start {
                        observe!("hiactor.proc_ns", name = name; t.elapsed().as_nanos() as u64);
                    }
                    r
                })
            }
            None => primed(GraphError::Query(format!("unknown procedure `{name}`"))),
        }
    }

    /// Load shedding: refuse new work once every live shard's queue is at
    /// or past the watermark, so callers get backpressure they can act on
    /// instead of unbounded queueing behind a saturated cluster.
    fn admit(&self) -> Result<()> {
        let Some(watermark) = self.config.overload_watermark else {
            return Ok(());
        };
        let least_loaded = (0..self.runtime.shard_count())
            .filter(|&i| self.runtime.shard_alive(i))
            .map(|i| (self.runtime.queue_depth(i), i))
            .min();
        if let Some((depth, shard)) = least_loaded {
            if depth >= watermark {
                counter!("hiactor.shed");
                return Err(GraphError::Overloaded { shard, depth });
            }
        }
        Ok(())
    }

    /// Synchronous convenience wrapper with the service's full resilience
    /// ladder: per-call deadline, retry-with-backoff for idempotent
    /// procedures on transport failures, and a per-procedure circuit
    /// breaker. A procedure that panics (or a shard that shut down
    /// mid-call) surfaces as a structured [`GraphError`] rather than a
    /// caller-side panic.
    pub fn call_sync(&self, name: &str, params: HashMap<String, Value>) -> Result<Vec<Record>> {
        let idempotent = self
            .procedures
            .read_with(|m| m.get(name).map(|e| e.idempotent))
            .unwrap_or(false);
        if !self.breaker_admits(name) {
            return Err(GraphError::Unavailable(format!(
                "circuit open for procedure `{name}`"
            )));
        }
        let out = gs_chaos::with_retries(
            &self.config.retry,
            idempotent,
            std::thread::sleep,
            Self::is_transport_failure,
            |attempt| {
                counter!("hiactor.retry.attempts");
                if attempt > 1 {
                    counter!("hiactor.retry.retries");
                }
                self.call_attempt(name, params.clone())
            },
        );
        match &out {
            Ok(_) => self.breaker_note(name, true),
            Err(e) if Self::is_transport_failure(e) => {
                counter!("hiactor.retry.giveups");
                self.breaker_note(name, false);
            }
            // an application error means the transport is healthy — it
            // must not trip the breaker
            Err(_) => {}
        }
        out
    }

    /// One attempt of a call: submit, then await the reply under the
    /// configured deadline.
    fn call_attempt(&self, name: &str, params: HashMap<String, Value>) -> Result<Vec<Record>> {
        let rx = self.call(name, params);
        let outcome = match self.config.deadline {
            Some(deadline) => rx.recv_timeout(deadline).map_err(|e| match e {
                RecvTimeoutError::Timeout => GraphError::Timeout(format!(
                    "procedure `{name}` missed its {deadline:?} deadline"
                )),
                RecvTimeoutError::Disconnected => Self::terminated(),
            }),
            None => rx.recv().map_err(|_| Self::terminated()),
        };
        outcome?
    }

    fn terminated() -> GraphError {
        GraphError::Query(
            "hiactor shard worker terminated before replying \
             (procedure panicked or shard shut down)"
                .into(),
        )
    }

    /// Transport-class failures are the retryable/breaker-tripping kind:
    /// the shard died, shut down, or missed its deadline — as opposed to
    /// the procedure itself returning an error.
    fn is_transport_failure(e: &GraphError) -> bool {
        match e {
            GraphError::Timeout(_) => true,
            GraphError::Query(m) => m.contains("terminated before replying"),
            _ => false,
        }
    }

    fn breaker_admits(&self, name: &str) -> bool {
        let mut map = self.breakers.lock();
        map.entry(name.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config.breaker.clone()))
            .allow(Instant::now())
    }

    fn breaker_note(&self, name: &str, ok: bool) {
        let mut map = self.breakers.lock();
        let breaker = map
            .entry(name.to_string())
            .or_insert_with(|| CircuitBreaker::new(self.config.breaker.clone()));
        if ok {
            breaker.on_success();
        } else {
            let now = Instant::now();
            breaker.on_failure(now);
            if breaker.is_open(now) {
                counter!("hiactor.breaker.open");
            }
        }
    }
}

impl gs_ir::QueryEngine for QueryService {
    /// Runs the plan to completion on the calling thread; the shards are
    /// for stored procedures.
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        graph.capabilities().require(REQUIRED_CAPABILITIES)?;
        gs_ir::verify::verify_on_submit(plan, graph.schema(), self.verify, "hiactor")?;
        execute(plan, graph)
    }

    fn name(&self) -> &'static str {
        "hiactor"
    }

    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn gs_ir::PreparedQuery>> {
        Ok(Box::new(gs_ir::Prepared::new(
            "hiactor",
            plan,
            self.verify,
            REQUIRED_CAPABILITIES,
            execute,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;
    use gs_ir::physical::lower_naive;
    use gs_ir::PlanBuilder;

    // Every test below starts shards, so each holds `gs_chaos::exclusive()`:
    // the fault plan is process-global, and `chaos_on` installs slow and
    // dead shards under the same gate.

    fn graph() -> Arc<MockGraph> {
        Arc::new(MockGraph::new(
            100,
            &(0..300u64)
                .map(|i| (i % 100, (i * 13 + 1) % 100, 1.0))
                .collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn runtime_executes_jobs_on_all_shards() {
        let _gate = gs_chaos::exclusive();
        let rt = HiActorRuntime::new(4);
        let results: Vec<_> = (0..16)
            .map(|i| rt.submit(Some(i % 4), move || i * 2))
            .collect();
        let sum: usize = results.into_iter().map(|r| r.recv().unwrap()).sum();
        assert_eq!(sum, (0..16).map(|i| i * 2).sum());
    }

    #[test]
    fn shard_mailboxes_are_sequential() {
        let _gate = gs_chaos::exclusive();
        // jobs on ONE shard must run in submission order
        let rt = HiActorRuntime::new(2);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut rxs = Vec::new();
        for i in 0..50 {
            let log = Arc::clone(&log);
            rxs.push(rt.submit(Some(0), move || log.lock().push(i)));
        }
        for rx in rxs {
            rx.recv().unwrap();
        }
        assert_eq!(*log.lock(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn queue_depth_drains_to_zero() {
        let _gate = gs_chaos::exclusive();
        let rt = HiActorRuntime::new(2);
        let rxs: Vec<_> = (0..100)
            .map(|i| rt.submit(Some(i % 2), move || i))
            .collect();
        for rx in rxs {
            rx.recv().unwrap();
        }
        rt.quiesce();
        assert_eq!(rt.queue_depth(0), 0);
        assert_eq!(rt.queue_depth(1), 0);
    }

    #[test]
    fn plan_procedure_round_trip() {
        let _gate = gs_chaos::exclusive();
        let g = graph();
        let s = g.schema().clone();
        let plan = lower_naive(&PlanBuilder::new(&s).scan("a", "V").unwrap().build()).unwrap();
        let svc = QueryService::new(2);
        svc.register_plan("all_vertices", plan, g);
        let rows = svc.call_sync("all_vertices", HashMap::new()).unwrap();
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn native_procedure_with_params() {
        let _gate = gs_chaos::exclusive();
        let g = graph();
        let svc = QueryService::new(2);
        let gg = Arc::clone(&g);
        svc.register(
            "degree_of",
            Arc::new(move |params| {
                let id = params
                    .get("id")
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| GraphError::Query("missing id".into()))?
                    as u64;
                let d = gg.degree(
                    gs_graph::VId(id),
                    gs_graph::LabelId(0),
                    gs_graph::LabelId(0),
                    gs_grin::Direction::Out,
                );
                Ok(vec![vec![Value::Int(d as i64)]])
            }),
        );
        let mut p = HashMap::new();
        p.insert("id".to_string(), Value::Int(0));
        let rows = svc.call_sync("degree_of", p).unwrap();
        assert_eq!(rows[0][0], Value::Int(3));
    }

    #[test]
    fn query_engine_runs_adhoc_plans() {
        let _gate = gs_chaos::exclusive();
        use gs_ir::QueryEngine;
        let g = graph();
        let s = g.schema().clone();
        let plan = lower_naive(&PlanBuilder::new(&s).scan("a", "V").unwrap().build()).unwrap();
        let svc = QueryService::new(2);
        assert_eq!(QueryEngine::name(&svc), "hiactor");
        let rows = QueryEngine::execute(&svc, &plan, g.as_ref()).unwrap();
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn unknown_procedure_errors() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(1);
        assert!(svc.call_sync("ghost", HashMap::new()).is_err());
    }

    #[test]
    fn panicking_procedure_surfaces_structured_error() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(2);
        svc.register("boom", Arc::new(|_| panic!("procedure exploded")));
        svc.register("ok", Arc::new(|_| Ok(vec![vec![Value::Int(7)]])));
        // silence the panic backtrace this test deliberately provokes
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = svc.call_sync("boom", HashMap::new()).unwrap_err();
        std::panic::set_hook(prev);
        match &err {
            GraphError::Query(msg) => {
                assert!(msg.contains("terminated"), "unexpected message: {msg}")
            }
            other => panic!("expected Query error, got {other:?}"),
        }
        // the shard survived the panic and still serves calls
        for _ in 0..8 {
            let rows = svc.call_sync("ok", HashMap::new()).unwrap();
            assert_eq!(rows[0][0], Value::Int(7));
        }
    }

    /// Plans never touch the shards: with every shard of the service
    /// killed, ad-hoc and prepared plans still return the reference rows,
    /// while a registered procedure reports the structured "terminated"
    /// error.
    #[test]
    fn plans_run_on_the_caller_when_every_shard_is_dead() {
        let _gate = gs_chaos::exclusive();
        use gs_ir::{QueryEngine, ReferenceEngine};
        let g = graph();
        let s = g.schema().clone();
        let plan = lower_naive(
            &PlanBuilder::new(&s)
                .scan("a", "V")
                .unwrap()
                .expand_edge("a", "E", gs_grin::Direction::Out, "e")
                .unwrap()
                .get_vertex("e", "b")
                .unwrap()
                .build(),
        )
        .unwrap();
        let svc = QueryService::new(2);
        svc.register_plan("edges", plan.clone(), Arc::clone(&g) as Arc<dyn GrinGraph>);
        for i in 0..svc.runtime().shard_count() {
            svc.runtime().kill_shard(i);
        }
        while (0..2).any(|i| svc.runtime().shard_alive(i)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let want = ReferenceEngine::default()
            .execute(&plan, g.as_ref())
            .unwrap();
        assert_eq!(want.len(), 300);
        assert_eq!(QueryEngine::execute(&svc, &plan, g.as_ref()).unwrap(), want);
        let prepared = svc.prepare(&plan).unwrap();
        assert_eq!(prepared.engine_name(), "hiactor");
        for _ in 0..3 {
            assert_eq!(prepared.execute(g.as_ref()).unwrap(), want);
        }
        let err = svc.call_sync("edges", HashMap::new()).unwrap_err();
        assert!(
            matches!(&err, GraphError::Query(m) if m.contains("terminated")),
            "got {err:?}"
        );
    }

    #[test]
    fn concurrent_calls_complete() {
        let _gate = gs_chaos::exclusive();
        let g = graph();
        let svc = QueryService::new(4);
        let gg = Arc::clone(&g);
        svc.register(
            "noop",
            Arc::new(move |_| {
                // touch the graph so the closure isn't optimised away
                let _ = gg.vertex_count(gs_graph::LabelId(0));
                Ok(vec![])
            }),
        );
        let rxs: Vec<_> = (0..1000)
            .map(|_| svc.call("noop", HashMap::new()))
            .collect();
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        svc.runtime().quiesce();
    }

    /// Satellite: a submit to a dead shard must disconnect promptly, not
    /// park on a mailbox nobody drains; round-robin routes around corpses.
    #[test]
    fn submit_to_dead_shard_errors_promptly() {
        let _gate = gs_chaos::exclusive();
        let rt = HiActorRuntime::new(2);
        rt.kill_shard(0);
        while rt.shard_alive(0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t = Instant::now();
        let rx = rt.submit(Some(0), || 42);
        assert!(rx.recv().is_err(), "dead shard must not reply");
        assert!(t.elapsed() < Duration::from_secs(1), "error must be prompt");
        for i in 0..8 {
            assert_eq!(rt.submit(None, move || i).recv().unwrap(), i);
        }
    }

    /// Satellite: submits racing shard death all resolve — a value if the
    /// job got in before the kill, a disconnect otherwise. Never a hang.
    #[test]
    fn racing_submits_against_shard_death_never_hang() {
        let _gate = gs_chaos::exclusive();
        let rt = Arc::new(HiActorRuntime::new(1));
        let rt2 = Arc::clone(&rt);
        let submitter = std::thread::spawn(move || {
            (0..400)
                .map(|i| rt2.submit(Some(0), move || i))
                .collect::<Vec<_>>()
        });
        std::thread::sleep(Duration::from_millis(2));
        rt.kill_shard(0);
        let rxs = submitter.join().unwrap();
        for rx in rxs {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(_) | Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => panic!("submission hung against shard death"),
            }
        }
    }

    /// Jobs queued behind a busy shard when it is killed are dropped
    /// with its mailbox, so each caller sees a disconnect instead of
    /// waiting on a job nobody will run.
    #[test]
    fn jobs_queued_at_shard_death_disconnect() {
        let _gate = gs_chaos::exclusive();
        let rt = HiActorRuntime::new(1);
        let (started_tx, started_rx) = unbounded::<()>("test.started");
        let (release_tx, release_rx) = unbounded::<()>("test.release");
        let busy = rt.submit(Some(0), move || {
            let _ = started_tx.send(());
            release_rx.recv().is_ok()
        });
        assert!(started_rx.recv().is_ok(), "the shard runs the busy job");
        let queued: Vec<_> = (0..8).map(|i| rt.submit(Some(0), move || i)).collect();
        rt.kill_shard(0);
        drop(release_tx);
        assert_eq!(busy.recv_timeout(Duration::from_secs(5)), Ok(false));
        for rx in queued {
            assert!(
                matches!(
                    rx.recv_timeout(Duration::from_secs(5)),
                    Err(RecvTimeoutError::Disconnected)
                ),
                "a job queued at shard death must disconnect, not hang"
            );
        }
    }

    #[test]
    fn missed_deadline_surfaces_as_timeout() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(1).with_config(ServiceConfig {
            deadline: Some(Duration::from_millis(20)),
            ..Default::default()
        });
        svc.register(
            "slow",
            Arc::new(|_| {
                std::thread::sleep(Duration::from_millis(300));
                Ok(vec![])
            }),
        );
        let err = svc.call_sync("slow", HashMap::new()).unwrap_err();
        assert!(matches!(err, GraphError::Timeout(_)), "got {err:?}");
        svc.runtime().quiesce();
    }

    #[test]
    fn idempotent_retries_mask_a_transient_crash() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(2).with_config(ServiceConfig {
            retry: RetryPolicy::new(3, Duration::from_millis(1)),
            ..Default::default()
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        svc.register_idempotent(
            "flaky",
            Arc::new(move |_| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient crash");
                }
                Ok(vec![vec![Value::Int(1)]])
            }),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let rows = svc.call_sync("flaky", HashMap::new()).unwrap();
        std::panic::set_hook(prev);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "exactly one retry");
    }

    /// Satellite: procedures registered as non-idempotent are never
    /// replayed, however generous the retry policy.
    #[test]
    fn non_idempotent_procedures_are_never_retried() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(1).with_config(ServiceConfig {
            retry: RetryPolicy::new(4, Duration::from_millis(1)),
            ..Default::default()
        });
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        svc.register(
            "mutate",
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                panic!("crash after side effect");
            }),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = svc.call_sync("mutate", HashMap::new()).unwrap_err();
        std::panic::set_hook(prev);
        assert!(
            matches!(&err, GraphError::Query(m) if m.contains("terminated")),
            "got {err:?}"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1, "must not replay");
    }

    #[test]
    fn breaker_opens_after_transport_failures_and_recovers() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(1).with_config(ServiceConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            ..Default::default()
        });
        let broken = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let calls = Arc::new(AtomicUsize::new(0));
        let (b, c) = (Arc::clone(&broken), Arc::clone(&calls));
        svc.register(
            "edge",
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                if b.load(Ordering::SeqCst) {
                    panic!("dependency down");
                }
                Ok(vec![])
            }),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert!(svc.call_sync("edge", HashMap::new()).is_err());
        assert!(svc.call_sync("edge", HashMap::new()).is_err());
        std::panic::set_hook(prev);
        // two consecutive transport failures opened the circuit: the next
        // call is rejected without ever reaching the procedure
        let err = svc.call_sync("edge", HashMap::new()).unwrap_err();
        assert!(matches!(err, GraphError::Unavailable(_)), "got {err:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // after the cooldown a half-open probe goes through, succeeds, and
        // closes the circuit again
        broken.store(false, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(60));
        assert!(svc.call_sync("edge", HashMap::new()).is_ok());
        assert!(svc.call_sync("edge", HashMap::new()).is_ok());
    }

    #[test]
    fn saturated_service_sheds_calls_with_overloaded() {
        let _gate = gs_chaos::exclusive();
        let svc = QueryService::new(1).with_config(ServiceConfig {
            overload_watermark: Some(3),
            ..Default::default()
        });
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let g = Arc::clone(&gate);
        svc.register(
            "block",
            Arc::new(move |_| {
                while !g.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(vec![])
            }),
        );
        // fill the queue exactly to the watermark (the gate holds all of
        // them in the mailbox), then the next call must be shed
        let held: Vec<_> = (0..3).map(|_| svc.call("block", HashMap::new())).collect();
        let err = svc.call_sync("block", HashMap::new()).unwrap_err();
        assert!(matches!(err, GraphError::Overloaded { .. }), "got {err:?}");
        gate.store(true, Ordering::SeqCst);
        for rx in held {
            rx.recv().unwrap().unwrap();
        }
    }

    #[cfg(feature = "chaos")]
    mod chaos_on {
        use super::*;
        use gs_chaos::FaultPlan;

        /// Graceful degradation under injected shard faults: a slow shard
        /// and a shard that dies mid-run are masked by deadlines, retries
        /// and dead-shard rerouting — every call still succeeds.
        #[test]
        fn service_rides_out_slow_and_dead_shards() {
            let plan = FaultPlan::new(0xC4A05)
                .slow_shard(0, Duration::from_millis(5))
                .dead_shard(1, 3);
            let (ok, stats) = gs_chaos::with_chaos(plan, || {
                let svc = QueryService::new(2).with_config(ServiceConfig {
                    deadline: Some(Duration::from_secs(2)),
                    retry: RetryPolicy::new(4, Duration::from_millis(2)),
                    ..Default::default()
                });
                svc.register_idempotent("ping", Arc::new(|_| Ok(vec![vec![Value::Int(1)]])));
                (0..24)
                    .filter(|_| svc.call_sync("ping", HashMap::new()).is_ok())
                    .count()
            });
            assert_eq!(ok, 24, "retries + rerouting must mask the faults");
            assert!(
                stats.shard_delays > 0 && stats.shard_deaths > 0,
                "both fault kinds must have fired: {stats:?}"
            );
        }
    }
}
