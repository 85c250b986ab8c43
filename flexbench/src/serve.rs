//! The serving side: store load and server open, the closed read loop
//! through `Session::query`, GART commits, output checks, the traced
//! replay of the layer calls a request made, and the durability check.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_flex::{EngineChoice, FlexBuild};
use gs_gart::{DurabilityConfig, GartStore};
use gs_graph::data::PropertyGraphData;
use gs_graph::Value;
use gs_grin::{Direction, GrinGraph};
use gs_ir::cost::{cost_physical, CostBudget};
use gs_ir::{verify_physical, PreparedQuery, QueryEngine, Record, ReferenceEngine, VerifyLevel};
use gs_lang::cypher::parse_cypher;
use gs_lang::Frontend;
use gs_optimizer::Optimizer;
use gs_serve::{GartServeStore, Priority, ServeConfig, ServeStore, Server, Session};

use crate::stats::mix64;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{template_text, Inputs, Spec, CHECKPOINT_EVERY, FRAUD, HOP, POINT};

/// One fraud request in this many is re-run on a cache-free reference
/// engine and compared row for row.
const FRAUD_SAMPLE_EVERY: u64 = 8;

/// A loaded store with a server open over it.
pub struct Rig {
    pub store: Arc<GartStore>,
    pub server: Arc<Server>,
    /// One session per template: checkout (High), analytics (Normal) and
    /// risk (Low), as in the §8 deployment.
    pub sessions: Vec<Session>,
    /// The WAL directory of a durable store.
    pub wal_dir: Option<PathBuf>,
}

/// The serving engine every workload uses: the reference executor, so no
/// timed request crosses a thread.
pub fn serving_engine() -> Box<dyn QueryEngine> {
    FlexBuild::fraud_oltp_preset()
        .expect("the fraud preset composes")
        .serving_engine(EngineChoice::Reference, 1, VerifyLevel::Deny)
        .expect("the reference engine is always available")
}

pub fn open_server(store: &Arc<GartStore>) -> (Arc<Server>, Vec<Session>) {
    let server = Arc::new(Server::new(
        serving_engine(),
        Box::new(GartServeStore::new(Arc::clone(store))),
        ServeConfig::default(),
    ));
    let sessions = [
        ("checkout", Priority::High),
        ("analytics", Priority::Normal),
        ("risk", Priority::Low),
    ]
    .iter()
    .map(|&(tenant, p)| server.session(tenant, p))
    .collect();
    (server, sessions)
}

/// Every record reaches the OS at commit (`Durability::Buffered`);
/// checkpoints still sync. An `fsync` per commit would time this host's
/// virtual disk, whose latency swings between runs.
pub fn durability_config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .buffered()
        .checkpoint_every(CHECKPOINT_EVERY)
}

/// Loads the generated graph into a durable store: one logged commit,
/// folded into a checkpoint so recovery starts from the image.
fn load_durable(data: &PropertyGraphData, dir: &Path) -> gs_graph::Result<Arc<GartStore>> {
    let store = GartStore::open(data.schema.clone(), durability_config(dir))?;
    for batch in &data.vertices {
        for (ext, props) in batch.external_ids.iter().zip(&batch.properties) {
            store.add_vertex(batch.label, *ext, props.clone())?;
        }
    }
    for batch in &data.edges {
        for (&(s, d), props) in batch.endpoints.iter().zip(&batch.properties) {
            store.add_edge(batch.label, s, d, props.clone())?;
        }
    }
    store.try_commit()?;
    store.checkpoint()?;
    Ok(store)
}

/// Loads the store and opens a server over it. A durable store is written
/// to a fresh directory `wal_dir`.
fn load(inputs: &Inputs, wal_dir: Option<PathBuf>) -> Rig {
    let store = match &wal_dir {
        Some(d) => load_durable(&inputs.graph.data, d).expect("durable load"),
        None => GartStore::from_data(&inputs.graph.data).expect("in-memory load"),
    };
    let (server, sessions) = open_server(&store);
    Rig {
        store,
        server,
        sessions,
        wal_dir,
    }
}

/// Drops a rig and removes its WAL directory.
fn discard(rig: Rig) {
    if let Some(d) = rig.wal_dir.clone() {
        drop(rig);
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Loads the store and opens the server the run serves from. This load
/// is not timed: it pays the process's one-time costs (code pages,
/// allocator growth), not those of a load.
pub fn setup(spec: &Spec, inputs: &Inputs, work: &Path) -> Rig {
    load(inputs, spec.durable.then(|| work.join("wal")))
}

/// The `setup_s` samples of a run. Each times `setup_batch` fresh loads
/// plus server opens, one after another; each rig is dropped before the
/// next load, outside the clock.
pub struct SetupClock<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    work: &'a Path,
    times: Vec<f64>,
    loads: usize,
}

impl<'a> SetupClock<'a> {
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, work: &'a Path) -> Self {
        SetupClock {
            spec,
            inputs,
            work,
            times: Vec::new(),
            loads: 0,
        }
    }

    pub fn samples(&self) -> usize {
        self.times.len()
    }

    pub fn sample(&mut self) {
        let mut took = Duration::ZERO;
        for _ in 0..self.spec.setup_batch {
            let wal_dir = self
                .spec
                .durable
                .then(|| self.work.join(format!("setup-wal-{}", self.loads)));
            self.loads += 1;
            let t0 = Instant::now();
            let rig = load(self.inputs, wal_dir);
            took += t0.elapsed();
            discard(rig);
        }
        self.times
            .push(took.as_secs_f64() / self.spec.setup_batch as f64);
    }

    /// The median time of one load plus server open.
    pub fn median(&mut self) -> f64 {
        crate::stats::median(&mut self.times)
    }
}

/// One operation of a schedule.
#[derive(Clone, Copy)]
pub enum Op {
    Read(usize, u64),
    /// Commit one order `(account, item, date)` as a `GartTxn`.
    Commit(u64, u64, i64),
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The 60/30/10 read mix.
    Reads,
    /// Commit an order, check its buyer for fraud, then three point/hop
    /// reads.
    Ingest,
    /// Commit orders only.
    Commits,
}

/// A workload's operation stream. Orders are taken from the generated
/// order stream in sequence, shared across every loop of a run.
pub struct Ops<'a> {
    inputs: &'a Inputs,
    mode: Mode,
    reads: crate::workload::Reads<'a>,
    ingest_reads: crate::workload::Reads<'a>,
    pending: VecDeque<Op>,
}

impl<'a> Ops<'a> {
    pub fn new(inputs: &'a Inputs, mode: Mode) -> Self {
        Ops {
            inputs,
            mode,
            reads: inputs.reads(),
            ingest_reads: inputs.ingest_reads(),
            pending: VecDeque::new(),
        }
    }

    fn next(&mut self, ledger: &mut Ledger) -> Op {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        let stream = &self.inputs.graph.order_stream;
        let mut order = || {
            let (a, i, d) = stream[ledger.cursor % stream.len()];
            ledger.cursor += 1;
            Op::Commit(a, i, d)
        };
        match self.mode {
            Mode::Reads => {
                let (t, a) = self.reads.next_mixed();
                Op::Read(t, a)
            }
            Mode::Commits => order(),
            Mode::Ingest => {
                let commit = order();
                let Op::Commit(buyer, ..) = commit else {
                    unreachable!()
                };
                self.pending.push_back(Op::Read(FRAUD, buyer));
                for _ in 0..3 {
                    let (t, a) = self.ingest_reads.next_point_or_hop();
                    self.pending.push_back(Op::Read(t, a));
                }
                commit
            }
        }
    }
}

/// The orders taken so far and those acknowledged, for the analytics
/// and durability checks.
#[derive(Default)]
pub struct Ledger {
    cursor: usize,
    pub acked: Vec<(u64, u64, i64)>,
}

/// How long a loop runs.
#[derive(Clone, Copy)]
pub enum Limit {
    For(Duration),
    Ops(u64),
}

/// What a loop measured.
#[derive(Default)]
pub struct Tally {
    /// Read latencies in µs per template.
    pub read_us: [Vec<f64>; 3],
    /// Acknowledged commits.
    pub commits: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the loop minus the time spent checking outputs.
    pub busy_s: f64,
}

impl Tally {
    pub fn ops(&self) -> u64 {
        self.read_us.iter().map(|v| v.len() as u64).sum::<u64>() + self.commits
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.busy_s.max(1e-9)
    }

    /// Adds another loop's measurements to this one.
    pub fn absorb(&mut self, other: Tally) {
        for (mine, theirs) in self.read_us.iter_mut().zip(other.read_us) {
            mine.extend(theirs);
        }
        self.commits += other.commits;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
    }
}

/// Layer calls replayed outside the server, and the counts the traced
/// run reports.
pub struct Replay {
    engine: Box<dyn QueryEngine>,
    optimizer: Optimizer,
    serve_store: GartServeStore,
    plans: HashMap<String, Box<dyn PreparedQuery>>,
    pub plan_lookups: u64,
    pub plan_misses: u64,
    pub result_lookups: u64,
    pub result_hits: u64,
    /// Rows produced by all operators, summed per template.
    pub rows_out: [u64; 3],
    pub execs: [u64; 3],
    pub commits: u64,
    pub wal_writes: u64,
    /// WAL bytes appended by commits that did not rotate the log.
    pub wal_bytes: u64,
    pub wal_bytes_commits: u64,
    request: u64,
}

impl Replay {
    pub fn new(store: &Arc<GartStore>) -> Self {
        Replay {
            engine: serving_engine(),
            optimizer: Optimizer::rbo_only(),
            serve_store: GartServeStore::new(Arc::clone(store)),
            plans: HashMap::new(),
            plan_lookups: 0,
            plan_misses: 0,
            result_lookups: 0,
            result_hits: 0,
            rows_out: [0; 3],
            execs: [0; 3],
            commits: 0,
            wal_writes: 0,
            wal_bytes: 0,
            wal_bytes_commits: 0,
            request: 0,
        }
    }

    /// Replays the compile pipeline of `Server::plan_entry`, one span per
    /// layer call.
    fn compile(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        text: &str,
        params: &HashMap<String, Value>,
    ) -> Box<dyn PreparedQuery> {
        let schema = self.serve_store.schema();
        let req = self.request;
        let (logical, _) = tracer.time("lang.parse", parent, req, || {
            parse_cypher(text, schema, params).expect("replayed parse")
        });
        let (physical, _) = tracer.time("optimizer.optimize", parent, req, || {
            self.optimizer
                .optimize(&logical)
                .expect("replayed optimize")
        });
        let (report, _) = tracer.time("ir.verify", parent, req, || {
            verify_physical(&physical, schema)
        });
        report.check("cypher").expect("replayed verify");
        let (cost, _) = tracer.time("ir.cost", parent, req, || {
            cost_physical(&physical, None, &CostBudget::default())
        });
        std::hint::black_box(cost);
        let (prepared, _) = tracer.time("engine.prepare", parent, req, || {
            self.engine.prepare(&physical).expect("replayed prepare")
        });
        prepared
    }

    /// The prepared handle for `text`: the one just replayed on a plan
    /// miss, else a kept one, else one compiled untimed.
    fn prepared_for(
        &mut self,
        text: &str,
        params: &HashMap<String, Value>,
        replayed: Option<Box<dyn PreparedQuery>>,
    ) -> &dyn PreparedQuery {
        // bounded like the server's plan cache, but without its LRU order
        if self.plans.len() >= 4096 && !self.plans.contains_key(text) {
            self.plans.clear();
        }
        let Replay {
            plans,
            engine,
            optimizer,
            serve_store,
            ..
        } = self;
        let slot = plans.entry(text.to_string());
        let prepared = match replayed {
            Some(p) => slot.insert_entry(p).into_mut(),
            None => slot.or_insert_with(|| {
                let compiled = Frontend::Cypher
                    .compile_with(text, serve_store.schema(), params, optimizer)
                    .expect("replayed compile");
                engine.prepare(&compiled.physical).expect("prepare")
            }),
        };
        &**prepared
    }
}

/// Runs `ops` through the rig until `limit`, checking every output.
/// With a tracer, every operation is recorded as spans and the layer
/// calls it made inside the server are replayed.
pub fn run_loop(
    rig: &Rig,
    inputs: &Inputs,
    ops: &mut Ops,
    ledger: &mut Ledger,
    limit: Limit,
    mut trace: Option<(&mut Tracer, &mut Replay)>,
    tally: &mut Tally,
) {
    let labels = inputs.graph.labels;
    let wal = rig.wal_dir.as_ref().map(|d| d.join("wal.log"));
    let start = Instant::now();
    let mut checking = Duration::ZERO;
    let mut done = 0u64;
    loop {
        match limit {
            Limit::For(d) if start.elapsed() >= d => break,
            Limit::Ops(n) if done >= n => break,
            _ => {}
        }
        done += 1;
        tally.attempted += 1;
        match ops.next(ledger) {
            Op::Commit(a, i, d) => {
                let before = trace.as_ref().map(|_| {
                    (
                        rig.store.wal_writes(),
                        wal.as_ref().map_or(0, |p| file_len(p)),
                    )
                });
                let t0 = Instant::now();
                let mut txn = rig.store.begin();
                let staged = txn.add_edge(labels.buy, a, i, vec![Value::Date(d)]);
                let t1 = Instant::now();
                let outcome = staged.and_then(|_| txn.commit());
                let t2 = Instant::now();
                if let Err(e) = outcome {
                    if tally.failed < 3 {
                        eprintln!("commit of order ({a}, {i}, {d}) failed: {e}");
                    }
                    tally.failed += 1;
                    continue;
                }
                tally.commits += 1;
                ledger.acked.push((a, i, d));
                if let Some((tracer, replay)) = trace.as_mut() {
                    let req = replay.request;
                    replay.request += 1;
                    let root = tracer.record("write.txn", t0, t2, NO_PARENT, req);
                    tracer.record("gart.txn_stage", t0, t1, root, req);
                    tracer.record("gart.commit", t1, t2, root, req);
                    let (writes0, bytes0) = before.expect("measured when tracing");
                    replay.commits += 1;
                    replay.wal_writes += rig.store.wal_writes() - writes0;
                    if let Some(p) = &wal {
                        let bytes1 = file_len(p);
                        if bytes1 >= bytes0 {
                            replay.wal_bytes += bytes1 - bytes0;
                            replay.wal_bytes_commits += 1;
                        }
                    }
                }
            }
            Op::Read(template, account) => {
                let text = template_text(template, account);
                let params = inputs.params(template);
                let session = &rig.sessions[template];
                let stats0 = trace.as_ref().map(|_| rig.server.stats());
                let t0 = Instant::now();
                let result = session.query(Frontend::Cypher, &text, params);
                let t1 = Instant::now();
                let c0 = Instant::now();
                let ok = match &result {
                    Ok(rows) => check_read(rig, inputs, template, account, &text, rows, done),
                    Err(_) => false,
                };
                checking += c0.elapsed();
                if !ok {
                    if tally.failed < 3 {
                        eprintln!("check failed: {text} returned {result:?}");
                    }
                    tally.failed += 1;
                    continue;
                }
                tally.read_us[template].push((t1 - t0).as_secs_f64() * 1e6);
                if let Some((tracer, replay)) = trace.as_mut() {
                    let stats1 = rig.server.stats();
                    let stats0 = stats0.expect("measured when tracing");
                    let plan_miss = stats1.plan_misses > stats0.plan_misses;
                    let result_hit = stats1.result_hits > stats0.result_hits;
                    replay_read(
                        tracer, replay, rig, inputs, template, account, &text, t0, t1, plan_miss,
                        result_hit,
                    );
                }
            }
        }
    }
    tally.busy_s += (start.elapsed() - checking).as_secs_f64();
}

#[allow(clippy::too_many_arguments)]
fn replay_read(
    tracer: &mut Tracer,
    replay: &mut Replay,
    rig: &Rig,
    inputs: &Inputs,
    template: usize,
    account: u64,
    text: &str,
    t0: Instant,
    t1: Instant,
    plan_miss: bool,
    result_hit: bool,
) {
    let req = replay.request;
    replay.request += 1;
    let root = tracer.record("serve.query", t0, t1, NO_PARENT, req);
    let params = inputs.params(template);
    replay.plan_lookups += 1;
    replay.result_lookups += 1;
    let compiled = plan_miss.then(|| {
        replay.plan_misses += 1;
        replay.compile(tracer, root, text, params)
    });
    let ((snapshot, _version), _) =
        tracer.time("gart.snapshot", root, req, || replay.serve_store.snapshot());
    if result_hit {
        replay.result_hits += 1;
        return;
    }
    let prepared = replay.prepared_for(text, params, compiled);
    let exec_name = ["ir.exec.point", "ir.exec.hop", "ir.exec.fraud"][template];
    let (rows, exec) = tracer.time(exec_name, root, req, || {
        prepared
            .execute(snapshot.as_ref())
            .expect("replayed execute")
    });
    std::hint::black_box(rows);
    // the index lookup the scan starts from, inside the execution
    let account_label = inputs.graph.labels.account;
    let id = rig
        .store
        .schema()
        .vertex_property(account_label, "id")
        .expect("Account.id")
        .id;
    let (found, _) = tracer.time("gart.lookup", exec, req, || {
        snapshot.vertices_by_property(account_label, id, &Value::Int(account as i64))
    });
    std::hint::black_box(found);
    let (_, actuals) =
        gs_ir::exec::execute_traced(prepared.plan(), snapshot.as_ref()).expect("traced execute");
    replay.rows_out[template] += actuals.iter().sum::<u64>();
    replay.execs[template] += 1;
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Checks one read's rows: `point` returns exactly the account, `hop`
/// the KNOWS degree from the generated edges, and a seeded sample of
/// `fraud` requests equals a cache-free reference execution.
fn check_read(
    rig: &Rig,
    inputs: &Inputs,
    template: usize,
    account: u64,
    text: &str,
    rows: &[Record],
    request: u64,
) -> bool {
    let label = inputs.graph.labels.account;
    match template {
        POINT => {
            rows.len() == 1
                && matches!(rows[0].first(), Some(&Value::Vertex(v, l))
                    if l == label && rig.store.snapshot().external_id(l, v) == Some(account))
        }
        HOP => {
            let deg = inputs.knows_degree[account as usize];
            if deg == 0 {
                rows.is_empty()
            } else {
                rows.len() == 1 && rows[0].get(1) == Some(&Value::Int(deg as i64))
            }
        }
        _ => {
            if !inputs.sampled(request, FRAUD_SAMPLE_EVERY) {
                return true;
            }
            let snapshot = rig.store.snapshot();
            let compiled = Frontend::Cypher
                .compile_with(
                    text,
                    rig.store.schema(),
                    &inputs.fraud_params,
                    &Optimizer::rbo_only(),
                )
                .expect("fraud statement compiles");
            let expected = ReferenceEngine::default()
                .execute(&compiled.physical, &snapshot)
                .expect("reference execution");
            sorted(rows) == sorted(&expected)
        }
    }
}

fn sorted(rows: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Order-independent digest of BUY edges as `(account, item, date)`.
pub fn edge_hash(a: u64, i: u64, d: i64) -> u64 {
    mix64(mix64(a) ^ mix64(i.wrapping_add(0x5bd1_e995)).rotate_left(17) ^ (d as u64))
}

/// The BUY edges a store must hold: the generated ones plus every
/// acknowledged order, as (count, digest).
pub fn expected_buy(inputs: &Inputs, ledger: &Ledger) -> (u64, u64) {
    let g = &inputs.graph;
    let mut count = 0u64;
    let mut digest = 0u64;
    for batch in g.data.edges.iter().filter(|b| b.label == g.labels.buy) {
        for (&(a, i), props) in batch.endpoints.iter().zip(&batch.properties) {
            let Some(Value::Date(d)) = props.first() else {
                continue;
            };
            count += 1;
            digest = digest.wrapping_add(edge_hash(a, i, *d));
        }
    }
    for &(a, i, d) in &ledger.acked {
        count += 1;
        digest = digest.wrapping_add(edge_hash(a, i, d));
    }
    (count, digest)
}

/// The BUY edges a store holds, as (count, digest).
pub fn stored_buy(store: &Arc<GartStore>, inputs: &Inputs) -> (u64, u64) {
    let labels = inputs.graph.labels;
    let snap = store.snapshot();
    let date = store
        .schema()
        .edge_property(labels.buy, "date")
        .expect("BUY.date")
        .id;
    let mut count = 0u64;
    let mut digest = 0u64;
    snap.scan_adjacency(
        labels.account,
        labels.buy,
        Direction::Out,
        &mut |v, nbrs, eids| {
            let a = snap.external_id(labels.account, v).unwrap_or(u64::MAX);
            for (&n, &e) in nbrs.iter().zip(eids) {
                let i = snap.external_id(labels.item, n).unwrap_or(u64::MAX);
                if let Value::Date(d) = snap.edge_property(labels.buy, e, date) {
                    count += 1;
                    digest = digest.wrapping_add(edge_hash(a, i, d));
                }
            }
        },
    );
    (count, digest)
}

/// Reopens a durable store from its WAL directory and checks that it
/// holds exactly the acknowledged commits.
pub fn durability_check(dir: &Path, inputs: &Inputs, ledger: &Ledger) -> bool {
    let store = match GartStore::open(inputs.graph.data.schema.clone(), durability_config(dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("durability: reopen failed: {e}");
            return false;
        }
    };
    let got = stored_buy(&store, inputs);
    let want = expected_buy(inputs, ledger);
    if got != want {
        eprintln!("durability: reopened store holds {got:?} BUY edges, expected {want:?}");
    }
    got == want
}

/// `hiactor.dispatch_us`: the median extra time a prepared execute takes
/// on a one-shard `QueryService` over the reference engine, same plan and
/// snapshot, alternating the two.
pub fn hiactor_dispatch_us(store: &Arc<GartStore>, inputs: &Inputs, per_template: Duration) -> f64 {
    let snapshot = store.snapshot();
    let reference = serving_engine();
    let actor = gs_hiactor::QueryService::new(1).with_verify(VerifyLevel::Deny);
    let mut diffs = Vec::new();
    for template in [POINT, HOP, FRAUD] {
        let text = template_text(template, 0);
        let compiled = Frontend::Cypher
            .compile_with(
                &text,
                store.schema(),
                inputs.params(template),
                &Optimizer::rbo_only(),
            )
            .expect("probe statement compiles");
        let r = reference.prepare(&compiled.physical).expect("prepare");
        let h = actor.prepare(&compiled.physical).expect("prepare");
        let start = Instant::now();
        for i in 0..2_000 {
            if i >= 20 && start.elapsed() >= per_template {
                break;
            }
            let t0 = Instant::now();
            std::hint::black_box(r.execute(&snapshot).expect("reference execute"));
            let t1 = Instant::now();
            std::hint::black_box(h.execute(&snapshot).expect("hiactor execute"));
            let t2 = Instant::now();
            if i >= 10 {
                diffs.push(((t2 - t1).as_secs_f64() - (t1 - t0).as_secs_f64()) * 1e6);
            }
        }
    }
    crate::stats::median(&mut diffs)
}
