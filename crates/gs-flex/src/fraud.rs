//! Real-time fraud detection (paper §8, Table 2).
//!
//! Deployment: HiActor (OLTP engine) over GART (dynamic store). Each
//! incoming order inserts an `(Account)-[BUY]->(Item)` edge into GART and
//! triggers the §8 check: direct and one-hop (via KNOWS) co-purchasing with
//! known *fraud seeds* within a date window; a weighted count over a
//! threshold raises an alert.
//!
//! The check runs two ways:
//! * [`FraudApp::check_order`] — the production path: a compiled stored
//!   procedure walking GART snapshots through GRIN (a serving layer
//!   registers it as a named procedure, e.g. `gs_serve::Server::register`);
//! * [`FraudApp::check_order_cypher`] — the paper's Cypher statement parsed
//!   and executed through the IR stack, used to differential-test the
//!   procedure.

use gs_datagen::apps::{FraudSchema, FraudWorkload};
use gs_gart::GartStore;
use gs_graph::{GraphError, Result, Value};
use gs_grin::{Direction, GrinGraph};
use gs_ir::exec::execute;
use gs_ir::Record;
use gs_lang::Frontend;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Detection weights/threshold from the §8 query (`w1·cnt1 + w2·cnt2 >
/// threshold`).
#[derive(Clone, Copy, Debug)]
pub struct FraudConfig {
    pub w1: i64,
    pub w2: i64,
    pub threshold: i64,
    /// Days of the co-purchase window for the direct check.
    pub window: i64,
}

impl Default for FraudConfig {
    fn default() -> Self {
        Self {
            w1: 2,
            w2: 1,
            threshold: 3,
            window: 5,
        }
    }
}

/// [`FraudApp::procedure`]'s shape: parameters in, records out — the same
/// closure type as `gs_serve::Procedure`.
pub type FraudProcedure = Arc<dyn Fn(&HashMap<String, Value>) -> Result<Vec<Record>> + Send + Sync>;

/// The fraud-detection service.
pub struct FraudApp {
    store: Arc<GartStore>,
    labels: FraudSchema,
    seeds: HashSet<u64>,
    config: FraudConfig,
    alerts: AtomicU64,
}

impl FraudApp {
    /// Builds the deployment from a generated workload.
    pub fn new(workload: &FraudWorkload, config: FraudConfig) -> Result<Self> {
        let store = GartStore::from_data(&workload.data)?;
        Ok(Self {
            store,
            labels: workload.labels,
            seeds: workload.seeds.iter().copied().collect(),
            config,
            alerts: AtomicU64::new(0),
        })
    }

    /// The GART store the app ingests into (what a serving layer reads).
    pub fn store(&self) -> &Arc<GartStore> {
        &self.store
    }

    /// Total alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts.load(Ordering::Relaxed)
    }

    /// The stored-procedure check, on the caller's thread.
    pub fn check_order(&self, account: u64, order_date: i64) -> Result<bool> {
        let l = self.labels;
        let version = self.store.committed_version();
        // One read-lock acquisition for the whole procedure (GartView) —
        // the high-QPS path Table 2 measures.
        let flagged = self.store.with_view(version, |view| {
            let Some(v) = view.internal_id(l.account, account) else {
                return false;
            };
            // Counting follows Cypher pattern-match (homomorphism)
            // semantics so the procedure and the parsed query agree
            // exactly: every (b1, b2) edge pair with a seed endpoint
            // counts, including pairs where `s` binds back to the start.
            let count_copurchases = |start: gs_graph::VId, window: Option<i64>| -> i64 {
                let mut cnt = 0;
                view.for_each_adjacent(start, l.buy, Direction::Out, &mut |item, b1| {
                    let d1 = view
                        .edge_property(l.buy, b1, gs_graph::PropId(0))
                        .as_int()
                        .unwrap_or(0);
                    view.for_each_adjacent(item, l.buy, Direction::In, &mut |other, b2| {
                        let Some(ext) = view.external_id(l.account, other) else {
                            return;
                        };
                        if !self.seeds.contains(&ext) {
                            return;
                        }
                        if let Some(w) = window {
                            let d2 = view
                                .edge_property(l.buy, b2, gs_graph::PropId(0))
                                .as_int()
                                .unwrap_or(0);
                            if (d1 - d2).abs() >= w {
                                return;
                            }
                        }
                        cnt += 1;
                    });
                });
                cnt
            };
            let cnt1 = count_copurchases(v, Some(self.config.window));
            let mut cnt2 = 0i64;
            view.for_each_adjacent(v, l.knows, Direction::Out, &mut |f, _| {
                cnt2 += count_copurchases(f, None);
            });
            let _ = order_date;
            // MATCH-without-matches eliminates the row in Cypher: an alert
            // requires both pattern stages to have produced bindings.
            cnt1 > 0
                && cnt2 > 0
                && self.config.w1 * cnt1 + self.config.w2 * cnt2 > self.config.threshold
        });
        if flagged {
            self.alerts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(flagged)
    }

    /// The check as a stored procedure for a serving layer, e.g.
    /// `gs_serve::Server::register("fraud_check", app.procedure())`:
    /// `account` and `date` in, one `[Bool]` row out. A missing or
    /// non-integer parameter is a [`GraphError::Query`].
    pub fn procedure(self: &Arc<Self>) -> FraudProcedure {
        let app = Arc::clone(self);
        Arc::new(move |params| {
            let int = |name: &str| {
                params
                    .get(name)
                    .and_then(Value::as_int)
                    .ok_or_else(|| GraphError::Query(format!("missing `{name}`")))
            };
            let flagged = app.check_order(int("account")? as u64, int("date")?)?;
            Ok(vec![vec![Value::Bool(flagged)]])
        })
    }

    /// The same check through the Cypher front-end + IR executor.
    pub fn check_order_cypher(&self, account: u64) -> Result<bool> {
        let snap = self.store.snapshot();
        let seeds: Vec<Value> = self.seeds.iter().map(|&s| Value::Int(s as i64)).collect();
        let mut params = HashMap::new();
        params.insert("SEEDS".to_string(), Value::List(seeds));
        params.insert("account".to_string(), Value::Int(account as i64));
        let q = format!(
            "MATCH (v:Account {{id: {account}}})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
             WHERE s.id IN $SEEDS AND b1.date - b2.date < {w} AND b2.date - b1.date < {w} \
             WITH v, COUNT(s) AS cnt1 \
             MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
             WHERE s2.id IN $SEEDS \
             WITH v, cnt1, COUNT(s2) AS cnt2 \
             WHERE {w1} * cnt1 + {w2} * cnt2 > {t} \
             RETURN v",
            w = self.config.window,
            w1 = self.config.w1,
            w2 = self.config.w2,
            t = self.config.threshold,
        );
        let compiled = Frontend::Cypher.compile_with(
            &q,
            snap.schema(),
            &params,
            &gs_optimizer::Optimizer::disabled(),
        )?;
        let rows = execute(&compiled.physical, &snap)?;
        Ok(!rows.is_empty())
    }

    /// Ingests one order (GART insert + commit) and runs the §8 "set of
    /// mandatory queries": the buyer's check plus checks on its direct
    /// contacts (diverse relational checks per order). Returns the number
    /// of checks executed.
    pub fn process_order(&self, account: u64, item: u64, date: i64) -> Result<usize> {
        self.store
            .add_edge(self.labels.buy, account, item, vec![Value::Date(date)])?;
        self.store.commit();
        let mut targets = vec![account];
        let version = self.store.committed_version();
        self.store.with_view(version, |view| {
            if let Some(v) = view.internal_id(self.labels.account, account) {
                view.for_each_adjacent(v, self.labels.knows, Direction::Out, &mut |f, _| {
                    if targets.len() < 8 {
                        if let Some(ext) = view.external_id(self.labels.account, f) {
                            targets.push(ext);
                        }
                    }
                });
            }
        });
        let n = targets.len();
        for t in targets {
            self.check_order(t, date)?;
        }
        Ok(n)
    }

    /// Drives `orders` through the production topology: one dedicated
    /// writer thread ingests the order stream into GART (the single-writer
    /// design GART assumes) while `threads` query clients run `check` — the
    /// per-order fraud check, given `(account, order date)`, e.g.
    /// [`FraudApp::check_order`] or a call of it through a serving layer —
    /// on each order's mandatory check set. Returns check throughput
    /// (checks/s), Table 2's metric; only checks that answered count, so a
    /// call the serving layer refused or failed adds nothing to it.
    pub fn run_throughput(
        self: &Arc<Self>,
        orders: &[(u64, u64, i64)],
        threads: usize,
        check: impl Fn(u64, i64) -> Result<bool> + Sync,
    ) -> f64 {
        use crossbeam::deque::{Injector, Steal};
        let queue: Injector<(u64, i64)> = Injector::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let checks = AtomicU64::new(0);
        let start = std::time::Instant::now();
        crossbeam::thread::scope(|s| {
            // the writer: ingest + fan out the per-order check set
            {
                let app = Arc::clone(self);
                let queue = &queue;
                let done = &done;
                s.spawn(move |_| {
                    // group commit: one write-lock acquisition per batch
                    for chunk in orders.chunks(128) {
                        let batch: Vec<(u64, u64, Vec<Value>)> = chunk
                            .iter()
                            .map(|&(a, it, d)| (a, it, vec![Value::Date(d)]))
                            .collect();
                        let _ = app.store.add_edges(app.labels.buy, &batch);
                        app.store.commit();
                        // fan out each order's mandatory check set
                        let version = app.store.committed_version();
                        app.store.with_view(version, |view| {
                            for &(a, _, d) in chunk {
                                queue.push((a, d));
                                if let Some(v) = view.internal_id(app.labels.account, a) {
                                    let mut n = 0;
                                    view.for_each_adjacent(
                                        v,
                                        app.labels.knows,
                                        Direction::Out,
                                        &mut |f, _| {
                                            if n < 7 {
                                                if let Some(ext) =
                                                    view.external_id(app.labels.account, f)
                                                {
                                                    queue.push((ext, d));
                                                    n += 1;
                                                }
                                            }
                                        },
                                    );
                                }
                            }
                        });
                    }
                    done.store(true, Ordering::Release);
                });
            }
            // query clients
            for _ in 0..threads.max(1) {
                let queue = &queue;
                let done = &done;
                let checks = &checks;
                let check = &check;
                s.spawn(move |_| loop {
                    match queue.steal() {
                        Steal::Success((a, d)) => {
                            if check(a, d).is_ok() {
                                checks.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && queue.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        Steal::Retry => {}
                    }
                });
            }
        })
        .expect("fraud clients");
        checks.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    /// Offline risk scoring — the analytics arm of the anti-fraud
    /// deployment. Composes the paper's Workload-2 preset
    /// ([`crate::flexbuild::FlexBuild::antifraud_analytics_preset`]),
    /// projects the Account/KNOWS social graph out of the live GART
    /// snapshot through GRIN, and runs built-in PageRank on GRAPE. Higher
    /// scores mark accounts central to the purchase-collusion network.
    pub fn risk_scores(&self, fragments: usize, iters: usize) -> Result<Vec<f64>> {
        let deployment = crate::flexbuild::FlexBuild::antifraud_analytics_preset()
            .map_err(|e| gs_graph::GraphError::Config(e.to_string()))?;
        let engine = deployment
            .analytics_engine(fragments)
            .expect("the antifraud preset selects GRAPE");
        let snap = self.store.snapshot();
        let proj = gs_grape::GrinProjection {
            vertex_labels: Some(vec![self.labels.account]),
            edge_labels: Some(vec![self.labels.knows]),
            ..Default::default()
        };
        let (grape, _space) = engine.load(&snap, &proj)?;
        Ok(gs_grape::algorithms::pagerank(&grape, 0.85, iters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_datagen::apps::fraud_graph;

    fn app() -> (Arc<FraudApp>, FraudWorkload) {
        let w = fraud_graph(300, 120, 1500, 60, 9);
        let app = FraudApp::new(&w, FraudConfig::default()).unwrap();
        (Arc::new(app), w)
    }

    #[test]
    fn stored_procedure_matches_cypher_path() {
        let (app, w) = app();
        let mut checked = 0;
        for account in (0..60u64).chain(w.seeds.iter().copied()) {
            let fast = app.check_order(account, 15350).unwrap();
            let slow = app.check_order_cypher(account).unwrap();
            assert_eq!(fast, slow, "account {account}");
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn seed_ring_orders_raise_alerts() {
        let (app, w) = app();
        // a seed buying a pumped item must co-purchase with other seeds
        for &s in w.seeds.iter().take(10) {
            app.process_order(s, 0, 15360).unwrap();
        }
        assert!(app.alerts() > 0, "no alerts for seed-ring orders");
    }

    #[test]
    fn risk_scores_run_the_preset_pipeline_end_to_end() {
        let (app, w) = app();
        let scores = app.risk_scores(2, 15).unwrap();
        let snap = app.store.snapshot();
        let n = snap.vertex_count(w.labels.account);
        assert_eq!(scores.len(), n, "one score per account");
        // the preset-loaded result must match a direct edge-list load of
        // the same KNOWS social graph
        let edges: Vec<(gs_graph::VId, gs_graph::VId)> = w.data.edges[w.labels.knows.index()]
            .endpoints
            .iter()
            .map(|&(s, d)| (gs_graph::VId(s), gs_graph::VId(d)))
            .collect();
        let baseline = gs_grape::GrapeEngine::from_edges(n, &edges, 2);
        let expect = gs_grape::algorithms::pagerank(&baseline, 0.85, 15);
        for (i, (a, b)) in scores.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "account {i}: {a} vs {b}");
        }
    }

    #[test]
    fn throughput_run_processes_all_orders() {
        let (app, w) = app();
        let qps = app.run_throughput(&w.order_stream, 4, |a, d| app.check_order(a, d));
        assert!(qps > 0.0);
        // graph grew by the stream size
        let snap = app.store.snapshot();
        assert_eq!(snap.edge_count(app.labels.buy), 1500 + w.order_stream.len());
    }

    #[test]
    fn refused_checks_add_no_throughput() {
        let (app, w) = app();
        let qps = app.run_throughput(&w.order_stream, 2, |_, _| {
            Err(GraphError::Unavailable("refused".into()))
        });
        assert_eq!(qps, 0.0);
    }

    #[test]
    fn procedure_answers_as_the_check_and_rejects_missing_params() {
        let (app, w) = app();
        let proc = app.procedure();
        let account = w.seeds[0];
        let params = HashMap::from([
            ("account".to_string(), Value::Int(account as i64)),
            ("date".to_string(), Value::Date(15_350)),
        ]);
        let expect = app.check_order(account, 15_350).unwrap();
        assert_eq!(proc(&params).unwrap(), vec![vec![Value::Bool(expect)]]);
        let missing = HashMap::from([("account".to_string(), Value::Int(account as i64))]);
        assert!(matches!(proc(&missing), Err(GraphError::Query(_))));
    }
}
