//! # gs-serve — the production serving layer over the Flex stack
//!
//! The paper's deployments (§8) are *services*: many concurrent users,
//! repeated parameterised statements, storage that keeps moving under
//! reads. This crate is that front end, assembled from bricks below it:
//!
//! * **Sessions** ([`Server::session`]) carry a tenant identity and a
//!   [`Priority`] class; they are cheap handles sharing one engine.
//! * **Prepared statements** ([`Session::prepare`] /
//!   [`Session::execute`]): parse → lower → optimize → irlint-verify runs
//!   **once** per statement *template* (through
//!   `gs_lang::Frontend::compile_template`), the engine-side handle
//!   (`gs_ir::PreparedQuery`) executes many times. A Cypher statement's
//!   value literals — numbers, strings, `true`/`false`/`null`, list
//!   literals — and its `$name` references are typed parameter slots, so
//!   statements that differ only in those values share one plan; `LIMIT n`,
//!   comments, identifiers and property names are template text. Gremlin
//!   has no slots: its template is its text. Compiled plans live in a
//!   bounded LRU **plan cache** keyed by (template key, schema epoch).
//! * **Result cache**: row batches are cached under (template key, binds
//!   digest, data version) — see `gs_lang::statement_key`. A statement's
//!   values become `Value`s only on a miss, and are bound into the plan
//!   before the engine runs it. GART commits bump the version; stale
//!   entries silently stop matching — *the* invalidation rule, there is no
//!   explicit purge. A hit costs one pass over the text and two lookups.
//! * **Admission control** ([`admission`]): per-tenant quotas and a
//!   priority shed ladder over the PR 5 circuit breaker — under overload
//!   the service sheds (`Overloaded`) instead of collapsing.
//! * **Static cost gate** ([`CostGate`]): every prepared statement
//!   carries its `gs_ir::cost` bounds; a statement whose *static*
//!   estimate exceeds the (per-tenant) budget is shed or demoted to
//!   [`Priority::Low`] **before** the admission ladder — abusive queries
//!   are rejected from the plan alone, never executed.
//! * **Stored procedures** ([`Server::register`] / [`Session::call`]):
//!   named native closures (the §8 fraud check) run on the calling thread
//!   behind the same admission ladder and breaker feedback as statements,
//!   with no result cache and no cost gate — one front door for both.
//! * **Degradation**: an injected fault raised on the serving thread
//!   during plan or procedure execution becomes a structured
//!   `Unavailable` error.
//!
//! Telemetry rows: `serve.admitted`, `serve.shed{reason,priority}`,
//! `serve.breaker.rejected`, `serve.cost.demoted`,
//! `serve.plan_cache.{hit,miss}`, `serve.result_cache.{hit,miss}`,
//! `serve.exec_ns{cache}`, `serve.proc_ns{procedure}`, `serve.sessions`.

pub mod admission;
pub mod cache;
pub mod store;

pub use admission::{AdmissionConfig, AdmissionController, Priority, TenantQuota};
pub use cache::LruCache;
pub use gs_ir::cost::CostBudget;
pub use store::{GartServeStore, ServeStore, StaticServeStore};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gs_graph::{GraphError, Result, Value};
use gs_grin::GrinGraph;
use gs_ir::cost::{cost_physical, CostReport};
use gs_ir::{PreparedQuery, QueryEngine, Record};
use gs_lang::{bind_values, statement_key, Frontend, StatementKey};
use gs_optimizer::Optimizer;
use gs_telemetry::{counter, observe};
use std::collections::HashMap;

/// What to do with a statement whose static cost bound exceeds the
/// tenant's budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostAction {
    /// Reject with `Overloaded` before the admission ladder — the query
    /// never reaches an engine.
    Shed,
    /// Let it run, but demoted to [`Priority::Low`] so the watermark
    /// ladder sheds it first under load.
    Demote,
}

/// The static-cost rung of the admission ladder: prepared statements are
/// costed once at compile time (`gs_ir::cost`) and checked against a
/// budget at every execution.
#[derive(Clone, Debug)]
pub struct CostGate {
    /// Budget applied to tenants without an override.
    pub budget: CostBudget,
    /// Per-tenant budget overrides.
    pub tenants: HashMap<String, CostBudget>,
    pub action: CostAction,
}

impl Default for CostGate {
    fn default() -> Self {
        Self {
            budget: CostBudget::default(),
            tenants: HashMap::new(),
            action: CostAction::Shed,
        }
    }
}

impl CostGate {
    fn budget_for(&self, tenant: &str) -> &CostBudget {
        self.tenants.get(tenant).unwrap_or(&self.budget)
    }
}

/// Server tuning knobs.
pub struct ServeConfig {
    /// Plan-cache capacity (compiled statements kept hot).
    pub plan_cache_capacity: usize,
    /// Result-cache capacity (row batches kept per data version).
    pub result_cache_capacity: usize,
    /// Disable to force parse → optimize → verify on *every* request —
    /// the baseline `gs-bench storm` measures the prepared path against.
    pub cache_plans: bool,
    /// Disable to force execution on every request.
    pub cache_results: bool,
    /// Admission ladder tuning.
    pub admission: AdmissionConfig,
    /// Static-cost admission gate (`None` = no gating; plans are still
    /// costed so the bounds show up in diagnostics).
    pub cost: Option<CostGate>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            plan_cache_capacity: 128,
            result_cache_capacity: 512,
            cache_plans: true,
            cache_results: true,
            admission: AdmissionConfig::default(),
            cost: None,
        }
    }
}

/// A stored procedure: parameters in, records out. It captures its own
/// graph access (e.g. a GART store it reads a view of per call).
pub type Procedure =
    Arc<dyn Fn(&HashMap<String, Value>) -> Result<Vec<Record>> + Send + Sync + 'static>;

/// One compiled + engine-prepared statement template, shared across
/// sessions and across every statement with its template key.
struct PlanEntry {
    prepared: Box<dyn PreparedQuery>,
    /// Static cost bounds of the physical plan, computed once at
    /// compile time with the optimizer's statistics (conservative
    /// defaults without a catalog).
    cost: CostReport,
}

/// A counter snapshot for tests and the storm harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub result_evictions: u64,
    pub admitted: u64,
    pub shed_low: u64,
    pub shed_normal: u64,
    pub shed_high: u64,
    pub breaker_rejections: u64,
    pub cost_shed: u64,
    pub cost_demoted: u64,
    pub executed: u64,
    pub errors: u64,
    pub sessions: u64,
}

/// The serving front end: one engine, one store, shared caches, shared
/// admission state. Create it once, wrap it in an [`Arc`], and open
/// sessions from any thread.
pub struct Server {
    engine: Box<dyn QueryEngine>,
    store: Box<dyn ServeStore>,
    optimizer: Optimizer,
    config: ServeConfig,
    /// Keyed by (template key, schema epoch).
    plans: LruCache<(u64, u64), Arc<PlanEntry>>,
    /// Keyed by (template key, binds digest, data version).
    results: LruCache<(u64, u64, u64), Arc<Vec<Record>>>,
    admission: AdmissionController,
    procedures: gs_sanitizer::SharedCell<HashMap<String, Procedure>>,
    cost_shed: AtomicU64,
    cost_demoted: AtomicU64,
    executed: AtomicU64,
    errors: AtomicU64,
    sessions: AtomicU64,
}

impl Server {
    /// A server over `engine` and `store` with the default rule-based
    /// optimizer.
    pub fn new(
        engine: Box<dyn QueryEngine>,
        store: Box<dyn ServeStore>,
        config: ServeConfig,
    ) -> Self {
        Self::with_optimizer(engine, store, config, Optimizer::rbo_only())
    }

    /// A server with an explicit optimizer — pass `Optimizer::new(catalog)`
    /// to give the static cost gate real statistics (otherwise it runs on
    /// conservative defaults).
    pub fn with_optimizer(
        engine: Box<dyn QueryEngine>,
        store: Box<dyn ServeStore>,
        config: ServeConfig,
        optimizer: Optimizer,
    ) -> Self {
        Self {
            plans: LruCache::new("serve.plan_cache", config.plan_cache_capacity),
            results: LruCache::new("serve.result_cache", config.result_cache_capacity),
            admission: AdmissionController::new(config.admission.clone()),
            procedures: gs_sanitizer::SharedCell::new("serve.procedures", HashMap::new()),
            engine,
            store,
            optimizer,
            config,
            cost_shed: AtomicU64::new(0),
            cost_demoted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
        }
    }

    /// Opens a session for `tenant` at `priority`.
    pub fn session(self: &Arc<Self>, tenant: &str, priority: Priority) -> Session {
        self.sessions.fetch_add(1, Ordering::Relaxed);
        counter!("serve.sessions");
        Session {
            server: Arc::clone(self),
            tenant: tenant.to_string(),
            priority,
            statements: gs_sanitizer::TrackedMutex::new("serve.statements", Vec::new()),
        }
    }

    /// Registers (or replaces) the stored procedure `name`, callable from
    /// any session through [`Session::call`].
    pub fn register(&self, name: &str, procedure: Procedure) {
        self.procedures.update(|m| {
            m.insert(name.to_string(), procedure);
        });
    }

    /// The engine serving this server (for diagnostics).
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The admission controller (exposed for harnesses that need to
    /// inspect in-flight load).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let (plan_hits, plan_misses, plan_evictions) = self.plans.stats();
        let (result_hits, result_misses, result_evictions) = self.results.stats();
        let (admitted, shed_low, shed_normal, shed_high, breaker_rejections) =
            self.admission.stats();
        ServerStats {
            plan_hits,
            plan_misses,
            plan_evictions,
            result_hits,
            result_misses,
            result_evictions,
            admitted,
            shed_low,
            shed_normal,
            shed_high,
            breaker_rejections,
            cost_shed: self.cost_shed.load(Ordering::Relaxed),
            cost_demoted: self.cost_demoted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
        }
    }

    /// Compile-or-fetch: the verify-once half of the prepare/execute
    /// split. Keyed by (template key, schema epoch) — statements that
    /// differ only in their values share one plan, and a schema change
    /// orphans every cached plan.
    fn plan_entry(
        &self,
        frontend: Frontend,
        text: &str,
        params: &HashMap<String, Value>,
        key: StatementKey,
    ) -> Result<Arc<PlanEntry>> {
        let pkey = (key.template, self.store.schema_epoch());
        if self.config.cache_plans {
            if let Some(entry) = self.plans.get(&pkey) {
                counter!("serve.plan_cache.hit");
                return Ok(entry);
            }
            counter!("serve.plan_cache.miss");
        }
        let compiled =
            frontend.compile_template(text, self.store.schema(), params, &self.optimizer)?;
        let prepared = self.engine.prepare(&compiled.physical)?;
        let budget = self
            .config
            .cost
            .as_ref()
            .map(|g| g.budget)
            .unwrap_or_default();
        let cost = cost_physical(&compiled.physical, self.optimizer.catalog.as_ref(), &budget);
        let entry = Arc::new(PlanEntry { prepared, cost });
        if self.config.cache_plans {
            self.plans.insert(pkey, Arc::clone(&entry));
        }
        Ok(entry)
    }

    /// The execute-many half: cost gate, admission ladder, result cache,
    /// engine. The statement's values (`binds`) are computed only on a
    /// result-cache miss, and bound into the plan before it runs.
    fn run_entry<B: AsRef<[Value]>>(
        &self,
        tenant: &str,
        priority: Priority,
        entry: &PlanEntry,
        key: StatementKey,
        binds: impl FnOnce() -> Result<B>,
    ) -> Result<Arc<Vec<Record>>> {
        // static-cost rung: decided from the plan's compile-time bounds,
        // before the dynamic ladder — a shed statement never executes
        let mut priority = priority;
        if let Some(gate) = &self.config.cost {
            if entry.cost.over_budget(gate.budget_for(tenant)) {
                match gate.action {
                    CostAction::Shed => {
                        self.cost_shed.fetch_add(1, Ordering::Relaxed);
                        counter!("serve.shed", reason = "cost", priority = priority.name());
                        return Err(GraphError::Overloaded {
                            shard: 0,
                            depth: entry.cost.total_est_rows as u64,
                        });
                    }
                    CostAction::Demote => {
                        if priority != Priority::Low {
                            self.cost_demoted.fetch_add(1, Ordering::Relaxed);
                            counter!("serve.cost.demoted");
                            priority = Priority::Low;
                        }
                    }
                }
            }
        }
        let guard = self.admission.admit(tenant, priority, Instant::now())?;
        // a hit needs no snapshot: rows cached under a version are that
        // version's rows
        if self.config.cache_results {
            let rkey = (key.template, key.binds, self.store.data_version());
            if let Some(rows) = self.results.get(&rkey) {
                counter!("serve.result_cache.hit");
                drop(guard);
                return Ok(rows);
            }
            counter!("serve.result_cache.miss");
        }
        // snapshot + its pinned version, atomically: results are cached
        // under exactly the version they were computed at
        let (snapshot, version) = self.store.snapshot();
        let started = Instant::now();
        let outcome = binds().and_then(|binds| {
            execute_degrading(entry.prepared.as_ref(), snapshot.as_ref(), binds.as_ref())
        });
        self.admission
            .record_result(outcome.is_ok(), Instant::now());
        drop(guard);
        match outcome {
            Ok(rows) => {
                self.executed.fetch_add(1, Ordering::Relaxed);
                observe!("serve.exec_ns", cache = "miss"; started.elapsed().as_nanos() as u64);
                let rows = Arc::new(rows);
                if self.config.cache_results {
                    let rkey = (key.template, key.binds, version);
                    self.results.insert(rkey, Arc::clone(&rows));
                }
                Ok(rows)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.errors");
                Err(e)
            }
        }
    }
}

/// Runs a prepared plan under [`degrading`].
fn execute_degrading(
    prepared: &dyn PreparedQuery,
    graph: &dyn GrinGraph,
    binds: &[Value],
) -> Result<Vec<Record>> {
    degrading(|| prepared.execute_with(graph, binds))
}

/// Runs a plan or procedure. An injected fault (a [`gs_chaos::ChaosUnwind`]
/// panic, e.g. a storage read through `gs_chaos::ChaosGraph`) becomes a
/// structured [`GraphError::Unavailable`], so the request degrades instead
/// of taking the serving thread down; any other panic is a real bug and is
/// re-raised.
fn degrading(run: impl FnOnce() -> Result<Vec<Record>>) -> Result<Vec<Record>> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(outcome) => outcome,
        Err(payload) => match payload.downcast_ref::<gs_chaos::ChaosUnwind>() {
            Some(fault) => Err(GraphError::Unavailable(format!(
                "injected {} fault during execution",
                fault.0
            ))),
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// Index of a statement prepared on a [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatementId(usize);

/// A statement prepared on a [`Session`]: its template's plan and its own
/// values.
#[derive(Clone)]
struct Statement {
    entry: Arc<PlanEntry>,
    key: StatementKey,
    binds: Arc<[Value]>,
}

/// A tenant-scoped handle onto a shared [`Server`].
pub struct Session {
    server: Arc<Server>,
    tenant: String,
    priority: Priority,
    statements: gs_sanitizer::TrackedMutex<Vec<Statement>>,
}

impl Session {
    /// Compiles (or fetches from the plan cache) a statement's template
    /// and pins it, with the statement's values, to this session. The
    /// heavy work happens here, once.
    pub fn prepare(
        &self,
        frontend: Frontend,
        text: &str,
        params: &HashMap<String, Value>,
    ) -> Result<StatementId> {
        let key = statement_key(frontend, text, params);
        let entry = self.server.plan_entry(frontend, text, params, key)?;
        let binds = bind_values(frontend, text, params)?.into();
        let mut stmts = self.statements.lock();
        stmts.push(Statement { entry, key, binds });
        Ok(StatementId(stmts.len() - 1))
    }

    /// Executes a prepared statement against the store's current version.
    pub fn execute(&self, stmt: StatementId) -> Result<Arc<Vec<Record>>> {
        let Statement { entry, key, binds } = {
            let stmts = self.statements.lock();
            stmts
                .get(stmt.0)
                .cloned()
                .ok_or_else(|| GraphError::Query(format!("unknown statement id {}", stmt.0)))?
        };
        self.server
            .run_entry(&self.tenant, self.priority, &entry, key, || Ok(binds))
    }

    /// One-shot convenience: prepare (with caching) + execute, without
    /// pinning the statement to the session. A plan-cache and
    /// result-cache hit costs one pass over `text` and two lookups.
    pub fn query(
        &self,
        frontend: Frontend,
        text: &str,
        params: &HashMap<String, Value>,
    ) -> Result<Arc<Vec<Record>>> {
        let key = statement_key(frontend, text, params);
        let entry = self.server.plan_entry(frontend, text, params, key)?;
        self.server
            .run_entry(&self.tenant, self.priority, &entry, key, || {
                bind_values(frontend, text, params)
            })
    }

    /// Calls the stored procedure `name` on this thread, after the same
    /// admission ladder statements climb; its outcome feeds the same
    /// breaker. Procedure results are not cached.
    pub fn call(&self, name: &str, params: &HashMap<String, Value>) -> Result<Vec<Record>> {
        let server = &self.server;
        let procedure = server
            .procedures
            .read_with(|m| m.get(name).cloned())
            .ok_or_else(|| GraphError::Query(format!("unknown procedure `{name}`")))?;
        let started = Instant::now();
        let guard = server
            .admission
            .admit(&self.tenant, self.priority, started)?;
        let outcome = degrading(|| procedure(params));
        let ended = Instant::now();
        server.admission.record_result(outcome.is_ok(), ended);
        drop(guard);
        if outcome.is_ok() {
            server.executed.fetch_add(1, Ordering::Relaxed);
            observe!("serve.proc_ns", procedure = name; (ended - started).as_nanos() as u64);
        } else {
            server.errors.fetch_add(1, Ordering::Relaxed);
            counter!("serve.errors");
        }
        outcome
    }

    /// The tenant this session authenticates as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The session's priority class.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}
