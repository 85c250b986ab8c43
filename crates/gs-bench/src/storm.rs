//! `gate storm` — open-loop load generation against the gs-serve
//! front end.
//!
//! The harness models the §8 fraud deployment under concurrent traffic: a
//! deterministic, Zipf-skewed request schedule (point lookups, one-hop
//! expansions, and the heavy two-hop fraud check) is generated up front
//! from a seed, then *dispatched on the clock* — arrivals do not wait for
//! completions (open loop), so overload manifests as backlog instead of
//! silently slowing the generator down. Latency is measured from each
//! request's **scheduled arrival** to its completion, which keeps the
//! numbers honest under queueing (no coordinated omission).
//!
//! Three phases run back-to-back at increasing arrival rates — `baseline`
//! (the service keeps up), `surge` (2× rate, with a GART writer committing
//! orders so cached results invalidate), and `overload` (12× rate, where
//! the admission ladder must shed low-priority work rather than collapse).
//! Results go to `BENCH_storm.json`: throughput, p50/p99/p999 per phase,
//! shed/error accounting, cache hit rates, plus a prepared-vs-parse
//! comparison that quantifies the prepare/execute split's latency win.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gate::{GateArgs, GateReport};
use crate::util::TablePrinter;
use gs_datagen::apps::{fraud_graph, FraudWorkload};
use gs_gart::GartStore;
use gs_graph::json::Json;
use gs_graph::Value;
use gs_hiactor::QueryService;
use gs_lang::Frontend;
use gs_serve::{
    AdmissionConfig, GartServeStore, Priority, ServeConfig, Server, ServerStats, TenantQuota,
};
use rand::Rng;

/// Harness knobs (all deterministic given `seed`).
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Seeds the workload graph, the Zipf account draws, the template mix
    /// and the arrival jitter.
    pub seed: u64,
    /// Scales every phase's request count (`requests = supersteps × 120`).
    pub duration_supersteps: u64,
    /// Service worker threads (= the server's admission capacity).
    pub workers: usize,
}

impl Default for StormConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            duration_supersteps: 5,
            workers: 4,
        }
    }
}

/// One scheduled request: everything about it is fixed at schedule time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Arrival offset from phase start, in nanoseconds.
    pub at_ns: u64,
    /// Index into [`templates`].
    pub template: usize,
    /// The Zipf-drawn account parameter.
    pub account: u64,
}

/// A statement template of the §8 fraud mix.
pub struct Template {
    pub name: &'static str,
    pub tenant: &'static str,
    pub priority: Priority,
}

/// The fixed §8-scenario mix: checkout point-reads dominate, analytics
/// one-hops follow, the heavy risk sweep trails (and is first to shed).
pub fn templates() -> [Template; 3] {
    [
        Template {
            name: "point",
            tenant: "checkout",
            priority: Priority::High,
        },
        Template {
            name: "hop",
            tenant: "analytics",
            priority: Priority::Normal,
        },
        Template {
            name: "fraud",
            tenant: "risk",
            priority: Priority::Low,
        },
    ]
}

/// The storm's statement texts: point read (0), one-hop degree (1) and
/// the §8 fraud check (2, taking `$SEEDS`), with the account inline.
pub fn template_text(template: usize, account: u64) -> String {
    match template {
        0 => format!("MATCH (v:Account {{id: {account}}}) RETURN v"),
        1 => format!(
            "MATCH (v:Account {{id: {account}}})-[:KNOWS]-(f:Account) \
             RETURN v, COUNT(f) AS deg"
        ),
        _ => format!(
            "MATCH (v:Account {{id: {account}}})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
             WHERE s.id IN $SEEDS AND b1.date - b2.date < 5 AND b2.date - b1.date < 5 \
             WITH v, COUNT(s) AS cnt1 \
             MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
             WHERE s2.id IN $SEEDS \
             WITH v, cnt1, COUNT(s2) AS cnt2 \
             WHERE 2 * cnt1 + 1 * cnt2 > 3 \
             RETURN v"
        ),
    }
}

/// Cumulative Zipf(s=1.1) distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(n);
    for r in 1..=n {
        acc += 1.0 / (r as f64).powf(1.1);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// The three phases: (name, requests multiplier, mean inter-arrival ns).
const PHASES: [(&str, u64, u64); 3] = [
    ("baseline", 120, 400_000),
    ("surge", 120, 200_000),
    ("overload", 120, 33_000),
];

/// Builds one phase's deterministic arrival schedule.
pub fn schedule(cfg: &StormConfig, phase: usize, accounts: usize) -> Vec<Request> {
    let (_, per_step, gap_ns) = PHASES[phase];
    let n = (cfg.duration_supersteps.max(1) * per_step) as usize;
    let mut rng = rand_pcg::Pcg64Mcg::new((cfg.seed as u128) << 8 | phase as u128);
    let cdf = zipf_cdf(accounts);
    let mut at = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // jittered open-loop arrivals around the phase's mean gap
        at += rng.gen_range(gap_ns / 2..gap_ns + gap_ns / 2);
        let mix: f64 = rng.gen_range(0.0..1.0);
        let template = if mix < 0.6 {
            0
        } else if mix < 0.9 {
            1
        } else {
            2
        };
        let z: f64 = rng.gen_range(0.0..1.0);
        let rank = cdf.partition_point(|&c| c < z).min(accounts - 1);
        out.push(Request {
            at_ns: at,
            template,
            account: rank as u64,
        });
    }
    out
}

/// FNV-1a digest of a schedule — the determinism witness stored in the
/// JSON and asserted by the determinism test.
pub fn schedule_digest(phases: &[Vec<Request>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for phase in phases {
        for r in phase {
            eat(r.at_ns);
            eat(r.template as u64);
            eat(r.account);
        }
    }
    h
}

/// Per-phase measurements.
#[derive(Clone, Debug, Default)]
pub struct PhaseReport {
    pub name: &'static str,
    pub offered: u64,
    pub completed: u64,
    pub shed: u64,
    pub errors: u64,
    pub wall_s: f64,
    pub throughput_qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub mix: [u64; 3],
}

/// The whole run.
#[derive(Clone, Debug)]
pub struct StormReport {
    pub seed: u64,
    pub duration_supersteps: u64,
    pub workers: usize,
    pub engine: &'static str,
    pub schedule_digest: u64,
    pub phases: Vec<PhaseReport>,
    pub data_versions_seen: u64,
    pub prepared_iterations: u64,
    pub parse_per_request_us: f64,
    pub prepared_us: f64,
    pub prepared_speedup: f64,
}

fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1_000.0
}

fn seeds_param(workload: &FraudWorkload) -> HashMap<String, Value> {
    let seeds: Vec<Value> = workload
        .seeds
        .iter()
        .map(|&s| Value::Int(s as i64))
        .collect();
    let mut params = HashMap::new();
    params.insert("SEEDS".to_string(), Value::List(seeds));
    params
}

/// Runs the full storm: three phases plus the prepared-vs-parse section.
pub fn run(cfg: &StormConfig) -> StormReport {
    let accounts = 200;
    let workload = fraud_graph(accounts, 80, 800, 400, cfg.seed);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let params = seeds_param(&workload);

    let serve_cfg = ServeConfig {
        admission: AdmissionConfig {
            capacity: cfg.workers,
            default_quota: TenantQuota {
                max_inflight: cfg.workers,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Arc::new(Server::new(
        Box::new(QueryService::new(2)),
        Box::new(GartServeStore::new(Arc::clone(&store))),
        serve_cfg,
    ));
    let engine = server.engine_name();

    let schedules: Vec<Vec<Request>> = (0..PHASES.len())
        .map(|p| schedule(cfg, p, accounts))
        .collect();
    let digest = schedule_digest(&schedules);

    let mut phases = Vec::new();
    let mut versions_seen = 1u64; // the loaded graph's commit
    let mut stats_before = server.stats();
    for (phase_idx, reqs) in schedules.iter().enumerate() {
        let (name, _, _) = PHASES[phase_idx];
        // surge and overload run against a moving store: a writer commits
        // orders, bumping the version and invalidating cached results
        let writer = if phase_idx > 0 {
            let store = Arc::clone(&store);
            let labels = workload.labels;
            let orders: Vec<(u64, u64, i64)> = workload
                .order_stream
                .iter()
                .skip(phase_idx * 40)
                .take(40)
                .copied()
                .collect();
            Some(std::thread::spawn(move || {
                for (a, i, d) in orders {
                    let _ = store.add_edge(labels.buy, a, i, vec![Value::Date(d)]);
                    store.commit();
                    std::thread::sleep(Duration::from_millis(2));
                }
            }))
        } else {
            None
        };
        let report = run_phase(&server, name, reqs, &params, cfg.workers);
        if let Some(w) = writer {
            versions_seen += 40;
            w.join().expect("writer thread");
        }
        let stats_after = server.stats();
        phases.push(attach_cache_delta(report, &stats_before, &stats_after));
        stats_before = stats_after;
    }

    let (iters, parse_us, prepared_us) = prepared_vs_parse(&store, &workload, &params, cfg);

    StormReport {
        seed: cfg.seed,
        duration_supersteps: cfg.duration_supersteps,
        workers: cfg.workers,
        engine,
        schedule_digest: digest,
        phases,
        data_versions_seen: versions_seen,
        prepared_iterations: iters,
        parse_per_request_us: parse_us,
        prepared_us,
        prepared_speedup: if prepared_us > 0.0 {
            parse_us / prepared_us
        } else {
            0.0
        },
    }
}

fn attach_cache_delta(
    mut report: PhaseReport,
    before: &ServerStats,
    after: &ServerStats,
) -> PhaseReport {
    report.plan_hits = after.plan_hits - before.plan_hits;
    report.plan_misses = after.plan_misses - before.plan_misses;
    report.result_hits = after.result_hits - before.result_hits;
    report.result_misses = after.result_misses - before.result_misses;
    report
}

/// Dispatches one phase's schedule on the clock through a worker pool.
fn run_phase(
    server: &Arc<Server>,
    name: &'static str,
    reqs: &[Request],
    params: &HashMap<String, Value>,
    workers: usize,
) -> PhaseReport {
    let templates = templates();
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, Instant)>();
    let completed = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
    let mix = Arc::new([
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ]);

    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let rx = rx.clone();
            let server = Arc::clone(server);
            let completed = Arc::clone(&completed);
            let shed = Arc::clone(&shed);
            let errors = Arc::clone(&errors);
            let latencies = Arc::clone(&latencies);
            let mix = Arc::clone(&mix);
            let params = params.clone();
            let reqs = reqs.to_vec();
            let sessions: Vec<_> = templates
                .iter()
                .map(|t| server.session(t.tenant, t.priority))
                .collect();
            std::thread::Builder::new()
                .name(format!("storm-worker-{w}"))
                .spawn(move || {
                    while let Ok((idx, arrived)) = rx.recv() {
                        let req = &reqs[idx];
                        let text = template_text(req.template, req.account);
                        let p = if req.template == 2 {
                            params.clone()
                        } else {
                            HashMap::new()
                        };
                        let session = &sessions[req.template];
                        match session.query(Frontend::Cypher, &text, &p) {
                            Ok(_) => {
                                mix[req.template].fetch_add(1, Ordering::Relaxed);
                                completed.fetch_add(1, Ordering::Relaxed);
                                latencies
                                    .lock()
                                    .unwrap()
                                    .push(arrived.elapsed().as_nanos() as u64);
                            }
                            Err(gs_graph::GraphError::Overloaded { .. })
                            | Err(gs_graph::GraphError::Unavailable(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn worker")
        })
        .collect();

    // open-loop dispatcher: arrivals follow the schedule, never the
    // service — latency is measured from here
    for (idx, req) in reqs.iter().enumerate() {
        let due = start + Duration::from_nanos(req.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if tx.send((idx, due.max(start))).is_err() {
            // a worker died and its panic will surface at join — stop
            // dispatching instead of panicking over the closed channel
            break;
        }
    }
    drop(tx);
    for h in handles {
        h.join().expect("worker");
    }
    let wall = start.elapsed().as_secs_f64();

    let mut lat = Arc::try_unwrap(latencies)
        .map(|m| m.into_inner().unwrap_or_default())
        .unwrap_or_default();
    lat.sort_unstable();
    let completed = completed.load(Ordering::Relaxed) as u64;
    PhaseReport {
        name,
        offered: reqs.len() as u64,
        completed,
        shed: shed.load(Ordering::Relaxed) as u64,
        errors: errors.load(Ordering::Relaxed) as u64,
        wall_s: wall,
        throughput_qps: completed as f64 / wall.max(1e-9),
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
        p999_us: percentile_us(&lat, 0.999),
        plan_hits: 0,
        plan_misses: 0,
        result_hits: 0,
        result_misses: 0,
        mix: [
            mix[0].load(Ordering::Relaxed) as u64,
            mix[1].load(Ordering::Relaxed) as u64,
            mix[2].load(Ordering::Relaxed) as u64,
        ],
    }
}

/// Measures the prepare/execute split: the same heavy statement run with
/// full parse → optimize → verify per request vs. compiled once and
/// executed through the prepared handle. Both run with result caching off
/// so execution is actually measured.
fn prepared_vs_parse(
    store: &Arc<GartStore>,
    workload: &FraudWorkload,
    params: &HashMap<String, Value>,
    cfg: &StormConfig,
) -> (u64, f64, f64) {
    let iters = cfg.duration_supersteps.max(1) * 20;
    let account = workload.accounts / 2;
    let text = template_text(2, account as u64);

    let mk_server = |cache_plans: bool| {
        Arc::new(Server::new(
            Box::new(QueryService::new(2)),
            Box::new(GartServeStore::new(Arc::clone(store))),
            ServeConfig {
                cache_plans,
                cache_results: false,
                ..Default::default()
            },
        ))
    };

    // parse-per-request baseline: the plan cache is disabled, so every
    // query() pays the full front-end pipeline
    let parse_server = mk_server(false);
    let session = parse_server.session("risk", Priority::High);
    let t0 = Instant::now();
    for _ in 0..iters {
        session
            .query(Frontend::Cypher, &text, params)
            .expect("parse path");
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    // prepared path: compile once, execute the handle many times
    let prep_server = mk_server(true);
    let session = prep_server.session("risk", Priority::High);
    let stmt = session
        .prepare(Frontend::Cypher, &text, params)
        .expect("prepare");
    let t0 = Instant::now();
    for _ in 0..iters {
        session.execute(stmt).expect("prepared path");
    }
    let prepared_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

    (iters, parse_us, prepared_us)
}

impl StormReport {
    /// Renders the report as the `BENCH_storm.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str("storm")),
            ("seed", Json::Int(self.seed as i64)),
            (
                "duration_supersteps",
                Json::Int(self.duration_supersteps as i64),
            ),
            ("workers", Json::Int(self.workers as i64)),
            ("engine", Json::str(self.engine)),
            ("schedule_digest", Json::Int(self.schedule_digest as i64)),
            (
                "phases",
                Json::arr(self.phases.iter().map(|p| {
                    Json::obj([
                        ("name", Json::str(p.name)),
                        ("offered", Json::Int(p.offered as i64)),
                        ("completed", Json::Int(p.completed as i64)),
                        ("shed", Json::Int(p.shed as i64)),
                        ("errors", Json::Int(p.errors as i64)),
                        ("wall_s", Json::Float(p.wall_s)),
                        ("throughput_qps", Json::Float(p.throughput_qps)),
                        ("p50_us", Json::Float(p.p50_us)),
                        ("p99_us", Json::Float(p.p99_us)),
                        ("p999_us", Json::Float(p.p999_us)),
                        ("plan_cache_hits", Json::Int(p.plan_hits as i64)),
                        ("plan_cache_misses", Json::Int(p.plan_misses as i64)),
                        ("result_cache_hits", Json::Int(p.result_hits as i64)),
                        ("result_cache_misses", Json::Int(p.result_misses as i64)),
                        ("mix", Json::arr(p.mix.iter().map(|&m| Json::Int(m as i64)))),
                    ])
                })),
            ),
            (
                "data_versions_seen",
                Json::Int(self.data_versions_seen as i64),
            ),
            (
                "prepared_vs_parse",
                Json::obj([
                    ("iterations", Json::Int(self.prepared_iterations as i64)),
                    (
                        "parse_per_request_us",
                        Json::Float(self.parse_per_request_us),
                    ),
                    ("prepared_us", Json::Float(self.prepared_us)),
                    ("speedup", Json::Float(self.prepared_speedup)),
                ]),
            ),
        ])
    }

    /// The determinism view: every field that must be identical across
    /// same-seed runs (counts and digests; no wall-clock numbers).
    pub fn determinism_view(&self) -> String {
        let mut s = format!(
            "seed={} supersteps={} workers={} digest={:#x}",
            self.seed, self.duration_supersteps, self.workers, self.schedule_digest
        );
        for p in &self.phases {
            s.push_str(&format!(" {}:{}", p.name, p.offered));
        }
        s.push_str(&format!(" iters={}", self.prepared_iterations));
        s
    }
}

/// The `storm` gate: one row per phase. Any shed or error in the
/// baseline (unloaded) phase is a warning — the storm-smoke CI bar runs
/// with `--deny`.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    let report = run(&StormConfig {
        seed: args.seed,
        duration_supersteps: args.duration_supersteps,
        ..Default::default()
    });
    let mut table = TablePrinter::new(&[
        "phase", "offered", "done", "shed", "errors", "qps", "p50 µs", "p99 µs", "p999 µs",
    ]);
    for p in &report.phases {
        table.row(vec![
            p.name.to_string(),
            p.offered.to_string(),
            p.completed.to_string(),
            p.shed.to_string(),
            p.errors.to_string(),
            format!("{:.0}", p.throughput_qps),
            format!("{:.0}", p.p50_us),
            format!("{:.0}", p.p99_us),
            format!("{:.0}", p.p999_us),
        ]);
    }
    let mut summary = format!(
        "prepared vs parse-per-request: {:.0} µs vs {:.0} µs ({:.2}x) over {} iterations",
        report.prepared_us,
        report.parse_per_request_us,
        report.prepared_speedup,
        report.prepared_iterations
    );
    let baseline = &report.phases[0];
    let warnings = baseline.errors + baseline.shed;
    if warnings > 0 {
        summary.push_str(&format!(
            "\nwarning: baseline phase had {} errors, {} shed (expected 0)",
            baseline.errors, baseline.shed
        ));
    }
    Ok(GateReport {
        table,
        summary,
        errors: 0,
        warnings: warnings as usize,
        json: Some(report.to_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = StormConfig {
            seed: 7,
            duration_supersteps: 1,
            workers: 2,
        };
        let a: Vec<_> = (0..3).map(|p| schedule(&cfg, p, 100)).collect();
        let b: Vec<_> = (0..3).map(|p| schedule(&cfg, p, 100)).collect();
        assert_eq!(a, b);
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let other = StormConfig {
            seed: 8,
            ..cfg.clone()
        };
        let c: Vec<_> = (0..3).map(|p| schedule(&other, p, 100)).collect();
        assert_ne!(schedule_digest(&a), schedule_digest(&c));
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let cfg = StormConfig {
            seed: 3,
            duration_supersteps: 2,
            workers: 2,
        };
        let reqs = schedule(&cfg, 0, 100);
        let low = reqs.iter().filter(|r| r.account < 10).count();
        assert!(
            low * 2 > reqs.len(),
            "zipf head too light: {low}/{}",
            reqs.len()
        );
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_us(&v, 0.50), 0.5);
        assert_eq!(percentile_us(&v, 0.99), 0.99);
        assert_eq!(percentile_us(&v, 0.999), 0.999);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }
}
