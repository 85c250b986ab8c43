//! End-to-end serving-layer invariants (`gs-serve`).
//!
//! Three families of guarantees:
//! * the prepare/execute split pays off: equal statements hit the plan
//!   cache across sessions, statements that differ only in their values
//!   share one plan yet keep their own rows, and result caching is exactly
//!   as fresh as the store — a GART commit bumps the data version and
//!   stale rows stop matching with **no explicit purge**;
//! * the admission ladder surfaces through sessions: `Overloaded` is a
//!   structured error, low priority sheds first, high priority keeps
//!   getting served to capacity;
//! * stored procedures (`Server::register` / `Session::call`) climb the
//!   same ladder: they fill tenant quotas, shed `Low` first, feed the same
//!   breaker, and turn an injected fault into a structured `Unavailable`;
//! * under injected faults (chaos builds) the service degrades — every
//!   request ends in rows or a structured error, nothing panics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gs_chaos::BreakerConfig;
use gs_datagen::apps::fraud_graph;
use gs_gart::GartStore;
use gs_graph::{GraphError, LabelId, VId, Value};
use gs_grin::graph::mock::MockGraph;
use gs_grin::{Direction, GrinGraph};
use gs_hiactor::QueryService;
use gs_ir::{QueryEngine, ReferenceEngine, VerifyLevel};
use gs_lang::Frontend;
use gs_optimizer::Optimizer;
use gs_serve::{
    AdmissionConfig, CostAction, CostBudget, CostGate, GartServeStore, Priority, ServeConfig,
    Server, StaticServeStore, TenantQuota,
};

fn fraud_server(capacity: usize) -> (Arc<Server>, Arc<GartStore>, gs_datagen::apps::FraudWorkload) {
    let workload = fraud_graph(60, 20, 200, 50, 7);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let config = ServeConfig {
        admission: AdmissionConfig {
            capacity,
            default_quota: TenantQuota {
                max_inflight: capacity,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(Arc::clone(&store))),
        config,
    ));
    (server, store, workload)
}

const DEG_QUERY: &str = "MATCH (v:Account {id: 3})-[:KNOWS]-(f:Account) RETURN v, COUNT(f) AS deg";

fn deg(rows: &[gs_ir::Record]) -> i64 {
    match rows.first().and_then(|r| r.last()) {
        Some(Value::Int(n)) => *n,
        other => panic!("expected a count, got {other:?}"),
    }
}

/// Equal statement text + params across sessions → one compilation, many
/// hits; repeated execution at one data version → one execution, many
/// cached row batches.
#[test]
fn plan_and_result_caches_hit_across_sessions() {
    let (server, _store, _workload) = fraud_server(8);
    let params = HashMap::new();

    let s1 = server.session("checkout", Priority::High);
    let s2 = server.session("analytics", Priority::Normal);
    let first = s1.query(Frontend::Cypher, DEG_QUERY, &params).unwrap();
    let second = s2.query(Frontend::Cypher, DEG_QUERY, &params).unwrap();
    assert_eq!(first, second, "cached rows must equal computed rows");

    let stats = server.stats();
    assert_eq!(stats.plan_misses, 1, "one compile for the shared statement");
    assert_eq!(stats.plan_hits, 1, "second session reuses the plan");
    assert_eq!(stats.result_misses, 1, "one execution at this version");
    assert_eq!(stats.result_hits, 1, "second call served from rows cache");
    assert_eq!(stats.executed, 1);

    // prepared-statement path shares the same caches
    let stmt = s1.prepare(Frontend::Cypher, DEG_QUERY, &params).unwrap();
    let third = s1.execute(stmt).unwrap();
    assert_eq!(first, third);
    let stats = server.stats();
    assert_eq!(stats.plan_hits, 2);
    assert_eq!(stats.result_hits, 2);
    assert_eq!(stats.executed, 1, "still a single real execution");
}

/// The invalidation rule: a GART commit bumps the data version, cached
/// results stop matching, and re-execution sees the new rows — while the
/// compiled plan (keyed by schema epoch, unchanged) stays hot.
#[test]
fn gart_commit_invalidates_results_but_not_plans() {
    let (server, store, workload) = fraud_server(8);
    let params = HashMap::new();
    let session = server.session("risk", Priority::Normal);

    let before = deg(&session.query(Frontend::Cypher, DEG_QUERY, &params).unwrap());

    // a new friendship lands online (KNOWS is symmetric, as in datagen)
    store
        .add_edge(workload.labels.knows, 3, 59, vec![])
        .expect("edge inserts");
    store
        .add_edge(workload.labels.knows, 59, 3, vec![])
        .expect("edge inserts");
    store.commit();

    let after = deg(&session.query(Frontend::Cypher, DEG_QUERY, &params).unwrap());
    assert!(
        after > before,
        "post-commit read must see the new edge: {before} -> {after}"
    );

    let stats = server.stats();
    assert_eq!(stats.plan_misses, 1, "schema epoch unchanged: plan reused");
    assert_eq!(stats.plan_hits, 1);
    assert_eq!(
        stats.result_misses, 2,
        "version bump must orphan the cached rows"
    );
    assert_eq!(stats.result_hits, 0);
    assert_eq!(stats.executed, 2);

    // and the new version's rows are cached in their own right
    let again = deg(&session.query(Frontend::Cypher, DEG_QUERY, &params).unwrap());
    assert_eq!(again, after);
    assert_eq!(server.stats().result_hits, 1);
}

/// The §8 mix's three statement templates, with the account inline.
fn mix_text(template: usize, account: usize) -> String {
    match template {
        0 => format!("MATCH (v:Account {{id: {account}}}) RETURN v"),
        1 => format!(
            "MATCH (v:Account {{id: {account}}})-[:KNOWS]-(f:Account) RETURN v, COUNT(f) AS deg"
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

/// Rows in a canonical order, to compare batches as multisets.
fn sorted(rows: &[gs_ir::Record]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// One plan per template: 600 texts (200 accounts × 3 templates) compile
/// three plans, every account still gets its own rows (those of a
/// cache-free reference execution of its own text), and a second pass is
/// served entirely from the result cache.
#[test]
fn statements_differing_only_in_values_share_one_plan() {
    let workload = fraud_graph(200, 80, 800, 0, 7);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let server = Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(Arc::clone(&store))),
        ServeConfig {
            result_cache_capacity: 1024,
            ..Default::default()
        },
    ));
    let seeds = workload
        .seeds
        .iter()
        .map(|&s| Value::Int(s as i64))
        .collect();
    let params = HashMap::from([("SEEDS".to_string(), Value::List(seeds))]);
    let session = server.session("risk", Priority::Normal);
    let snapshot = store.snapshot();
    let mut fraud_positive = 0;
    for template in 0..3 {
        for account in 0..200 {
            let text = mix_text(template, account);
            let rows = session.query(Frontend::Cypher, &text, &params).unwrap();
            let expected = Frontend::Cypher
                .compile_with(&text, store.schema(), &params, &Optimizer::rbo_only())
                .unwrap();
            let expected = ReferenceEngine::default()
                .execute(&expected.physical, &snapshot)
                .unwrap();
            assert_eq!(sorted(&rows), sorted(&expected), "{text}");
            if template == 0 {
                assert_eq!(rows.len(), 1, "{text}");
            }
            if template == 2 && !rows.is_empty() {
                fraud_positive += 1;
            }
        }
    }
    assert!(fraud_positive > 0, "the fraud template must flag someone");
    let first = server.stats();
    assert_eq!(first.plan_misses, 3, "one compile per template");
    assert_eq!(first.plan_hits, 597);
    assert_eq!(first.executed, 600, "every statement has its own rows");

    for template in 0..3 {
        for account in 0..200 {
            let text = mix_text(template, account);
            session.query(Frontend::Cypher, &text, &params).unwrap();
        }
    }
    let second = server.stats();
    assert_eq!(second.plan_misses, 3);
    assert_eq!(second.result_hits - first.result_hits, 600);
    assert_eq!(second.executed, 600, "the second pass runs nothing");
}

/// Prepared statements that share a template keep their own values.
#[test]
fn prepared_statements_sharing_a_template_keep_their_values() {
    let (server, _store, _workload) = fraud_server(8);
    let session = server.session("analytics", Priority::Normal);
    let params = HashMap::new();
    let a = session
        .prepare(Frontend::Cypher, &mix_text(0, 3), &params)
        .unwrap();
    let b = session
        .prepare(Frontend::Cypher, &mix_text(0, 4), &params)
        .unwrap();
    assert_ne!(a, b, "two statements, two ids");
    assert_eq!(server.stats().plan_misses, 1, "one template, one plan");
    let (rows_a, rows_b) = (session.execute(a).unwrap(), session.execute(b).unwrap());
    assert_ne!(rows_a, rows_b, "each statement runs with its own account");
    assert_eq!(
        *rows_a,
        *session
            .query(Frontend::Cypher, &mix_text(0, 3), &params)
            .unwrap()
    );
}

/// Statement keys tag each value with its type: `$id` bound to `Int(1)`
/// and then to `Str("1")` (equal as text) must not get the first
/// binding's plan or cached rows.
#[test]
fn a_binding_of_another_type_is_not_served_cached_rows() {
    let (server, _store, _workload) = fraud_server(8);
    let session = server.session("risk", Priority::Normal);
    let by_id = |id: Value| {
        let params = HashMap::from([("id".to_string(), id)]);
        session
            .query(
                Frontend::Cypher,
                "MATCH (v:Account {id: $id}) RETURN v",
                &params,
            )
            .unwrap()
    };
    assert_eq!(by_id(Value::Int(1)).len(), 1);
    assert!(
        by_id(Value::Str("1".into())).is_empty(),
        "a string never equals an integer id"
    );
    assert_eq!(server.stats().plan_misses, 2, "one plan per slot type");
}

/// `Overloaded` travels through the session API as a structured error,
/// low priority sheds first at the watermark, and high priority is still
/// served — no starvation, no panic.
#[test]
fn admission_sheds_low_priority_first_and_surfaces_overloaded() {
    let (server, _store, _workload) = fraud_server(2);
    let params = HashMap::new();
    let low = server.session("risk", Priority::Low);
    let high = server.session("checkout", Priority::High);

    // half the slots busy: load 0.5 is exactly the low-priority watermark
    let held = server
        .admission()
        .admit("background", Priority::High, Instant::now())
        .unwrap();

    let err = low
        .query(Frontend::Cypher, DEG_QUERY, &params)
        .expect_err("low priority must shed at the watermark");
    assert!(
        matches!(err, GraphError::Overloaded { .. }),
        "expected Overloaded, got {err:?}"
    );
    assert!(
        high.query(Frontend::Cypher, DEG_QUERY, &params).is_ok(),
        "high priority is served while low sheds"
    );

    let stats = server.stats();
    assert_eq!(stats.shed_low, 1);
    assert_eq!(stats.shed_high, 0);
    assert!(stats.errors == 0, "shedding is not an execution error");

    // pressure released → the same low-priority session is served again
    drop(held);
    assert!(low.query(Frontend::Cypher, DEG_QUERY, &params).is_ok());
}

/// Per-tenant quotas bound one noisy tenant without touching its peers.
#[test]
fn tenant_quota_is_isolated_from_other_tenants() {
    let workload = fraud_graph(60, 20, 200, 50, 7);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let config = ServeConfig {
        admission: AdmissionConfig {
            capacity: 16,
            default_quota: TenantQuota { max_inflight: 1 },
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(store)),
        config,
    ));
    let params = HashMap::new();

    // the noisy tenant's single slot is occupied...
    let held = server
        .admission()
        .admit("noisy", Priority::High, Instant::now())
        .unwrap();
    let noisy = server.session("noisy", Priority::High);
    let err = noisy
        .query(Frontend::Cypher, DEG_QUERY, &params)
        .expect_err("quota must cap the noisy tenant");
    assert!(matches!(err, GraphError::Overloaded { .. }));

    // ...while a quiet tenant sails through
    let quiet = server.session("quiet", Priority::Low);
    assert!(quiet.query(Frontend::Cypher, DEG_QUERY, &params).is_ok());
    drop(held);
}

fn tiny_cost_gate(action: CostAction) -> CostGate {
    CostGate {
        budget: CostBudget {
            max_rows: 1.0,
            ..Default::default()
        },
        tenants: HashMap::new(),
        action,
    }
}

/// The static cost gate sheds an over-budget query from the *plan alone*:
/// the engine never runs, so `executed` stays zero and no execution error
/// is recorded — only a structured `Overloaded` and a `cost_shed` count.
#[test]
fn statically_over_budget_query_is_shed_before_any_engine_runs() {
    let workload = fraud_graph(60, 20, 200, 50, 7);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let config = ServeConfig {
        cost: Some(tiny_cost_gate(CostAction::Shed)),
        ..Default::default()
    };
    let server = Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(store)),
        config,
    ));
    let params = HashMap::new();
    let session = server.session("analytics", Priority::High);

    let err = session
        .query(Frontend::Cypher, DEG_QUERY, &params)
        .expect_err("a one-row budget must reject the scan statically");
    assert!(
        matches!(err, GraphError::Overloaded { .. }),
        "expected Overloaded, got {err:?}"
    );

    let stats = server.stats();
    assert_eq!(stats.cost_shed, 1, "the gate must account for the shed");
    assert_eq!(stats.executed, 0, "the query must never reach an engine");
    assert_eq!(stats.errors, 0, "static shedding is not an execution error");
    assert_eq!(stats.plan_misses, 1, "the plan itself is still compiled");
}

/// `Demote` keeps an over-budget query runnable, but at `Low` priority:
/// under pressure it sheds at the low watermark like any other low query,
/// and once pressure lifts it executes normally.
#[test]
fn demoted_over_budget_query_sheds_at_the_low_watermark() {
    let workload = fraud_graph(60, 20, 200, 50, 7);
    let store = GartStore::from_data(&workload.data).expect("workload loads");
    let config = ServeConfig {
        admission: AdmissionConfig {
            capacity: 2,
            default_quota: TenantQuota { max_inflight: 2 },
            ..Default::default()
        },
        cost: Some(tiny_cost_gate(CostAction::Demote)),
        ..Default::default()
    };
    let server = Arc::new(Server::new(
        Box::new(ReferenceEngine::with_verify(VerifyLevel::Deny)),
        Box::new(GartServeStore::new(store)),
        config,
    ));
    let params = HashMap::new();
    let high = server.session("analytics", Priority::High);

    // half the slots busy: load 0.5 is exactly the low-priority watermark
    let held = server
        .admission()
        .admit("background", Priority::High, Instant::now())
        .unwrap();

    let err = high
        .query(Frontend::Cypher, DEG_QUERY, &params)
        .expect_err("demoted to Low, the query must shed at the watermark");
    assert!(matches!(err, GraphError::Overloaded { .. }));

    let stats = server.stats();
    assert_eq!(stats.cost_demoted, 1);
    assert_eq!(stats.cost_shed, 0, "Demote must not hard-shed");
    assert_eq!(stats.shed_low, 1, "the demoted query sheds as Low");
    assert_eq!(stats.shed_high, 0);

    // pressure released → the demoted query runs to completion
    drop(held);
    assert!(high.query(Frontend::Cypher, DEG_QUERY, &params).is_ok());
    let stats = server.stats();
    assert_eq!(stats.cost_demoted, 2, "still over budget, demoted again");
    assert_eq!(stats.executed, 1);
}

/// A server over a 100-vertex mock graph (vertex 0 has out-degree 3)
/// with `admission` tuning, for the stored-procedure tests.
fn proc_server(admission: AdmissionConfig) -> (Arc<Server>, Arc<MockGraph>) {
    let graph = Arc::new(MockGraph::new(
        100,
        &(0..300u64)
            .map(|i| (i % 100, (i * 13 + 1) % 100, 1.0))
            .collect::<Vec<_>>(),
    ));
    let server = Arc::new(Server::new(
        Box::new(QueryService::new(1)),
        Box::new(StaticServeStore::new(
            Arc::clone(&graph) as Arc<dyn GrinGraph>
        )),
        ServeConfig {
            admission,
            ..Default::default()
        },
    ));
    (server, graph)
}

/// A statement over [`proc_server`]'s graph.
const COUNT_QUERY: &str = "g.V().hasLabel('V').count()";

/// Registers `block`: a procedure that holds its admission slot until
/// `release` is set (or 30 s pass, so a failed test cannot hang its
/// scope). Returns the release flag.
fn register_blocking(server: &Server) -> Arc<AtomicBool> {
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    server.register(
        "block",
        Arc::new(move |_| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !r.load(Ordering::SeqCst) {
                if Instant::now() > deadline {
                    return Err(GraphError::Query("never released".into()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(vec![])
        }),
    );
    release
}

/// Waits (bounded) until `n` requests hold admission slots.
fn await_inflight(server: &Server, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.admission().inflight() != n {
        assert!(Instant::now() < deadline, "never reached {n} in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A procedure reads its parameters; an unknown name is a structured
/// error that takes no admission slot.
#[test]
fn procedures_take_params_and_unknown_names_error() {
    let (server, graph) = proc_server(AdmissionConfig::default());
    server.register(
        "degree_of",
        Arc::new(move |params| {
            let id = params
                .get("id")
                .and_then(Value::as_int)
                .ok_or_else(|| GraphError::Query("missing id".into()))?;
            let d = graph.degree(VId(id as u64), LabelId(0), LabelId(0), Direction::Out);
            Ok(vec![vec![Value::Int(d as i64)]])
        }),
    );
    let session = server.session("t", Priority::Normal);
    let params = HashMap::from([("id".to_string(), Value::Int(0))]);
    assert_eq!(
        session.call("degree_of", &params).unwrap(),
        vec![vec![Value::Int(3)]]
    );
    assert!(session.call("degree_of", &HashMap::new()).is_err());
    let err = session.call("ghost", &params).unwrap_err();
    assert!(
        matches!(&err, GraphError::Query(m) if m.contains("ghost")),
        "got {err:?}"
    );
    let stats = server.stats();
    assert_eq!(
        stats.admitted, 2,
        "an unknown name is refused before admission"
    );
    assert_eq!((stats.executed, stats.errors), (1, 1));
}

/// Concurrent calls from several sessions all complete and release
/// their slots.
#[test]
fn concurrent_calls_complete() {
    let (server, graph) = proc_server(AdmissionConfig::default());
    server.register(
        "noop",
        Arc::new(move |_| {
            let _ = graph.vertex_count(LabelId(0));
            Ok(vec![])
        }),
    );
    std::thread::scope(|s| {
        for t in 0..4 {
            let session = server.session(&format!("t{t}"), Priority::Normal);
            s.spawn(move || {
                for _ in 0..250 {
                    session.call("noop", &HashMap::new()).unwrap();
                }
            });
        }
    });
    assert_eq!(server.stats().executed, 1000);
    assert_eq!(server.admission().inflight(), 0);
}

/// Calls climb the statements' tenant quota: a blocking procedure holds
/// the tenant's only slot, so its next call — and its next statement —
/// is `Overloaded`, while another tenant is still served.
#[test]
fn a_blocking_procedure_fills_its_tenant_quota() {
    let (server, _) = proc_server(AdmissionConfig {
        default_quota: TenantQuota { max_inflight: 1 },
        ..Default::default()
    });
    let release = register_blocking(&server);
    server.register("ok", Arc::new(|_| Ok(vec![vec![Value::Int(1)]])));
    let greedy = server.session("greedy", Priority::High);
    let polite = server.session("polite", Priority::Low);
    let (call, query, other, held) = std::thread::scope(|s| {
        let held = s.spawn(|| greedy.call("block", &HashMap::new()));
        await_inflight(&server, 1);
        let call = greedy.call("ok", &HashMap::new());
        let query = greedy.query(Frontend::Gremlin, COUNT_QUERY, &HashMap::new());
        let other = polite.call("ok", &HashMap::new());
        release.store(true, Ordering::SeqCst);
        (call, query, other, held.join().unwrap())
    });
    assert!(
        matches!(call, Err(GraphError::Overloaded { .. })),
        "got {call:?}"
    );
    assert!(
        matches!(query, Err(GraphError::Overloaded { .. })),
        "got {query:?}"
    );
    assert!(other.is_ok() && held.is_ok());
    assert_eq!(server.stats().shed_high, 2);
}

/// Calls climb the statements' priority watermarks: with half the
/// capacity held, `Low` sheds and `Normal` is admitted.
#[test]
fn calls_shed_low_priority_first() {
    let (server, _) = proc_server(AdmissionConfig {
        capacity: 2,
        ..Default::default()
    });
    let release = register_blocking(&server);
    server.register("ok", Arc::new(|_| Ok(vec![])));
    let holder = server.session("holder", Priority::High);
    let low = server.session("batch", Priority::Low);
    let normal = server.session("batch", Priority::Normal);
    let (low, normal, held) = std::thread::scope(|s| {
        let held = s.spawn(|| holder.call("block", &HashMap::new()));
        await_inflight(&server, 1);
        let low = low.call("ok", &HashMap::new());
        let normal = normal.call("ok", &HashMap::new());
        release.store(true, Ordering::SeqCst);
        (low, normal, held.join().unwrap())
    });
    assert!(
        matches!(low, Err(GraphError::Overloaded { .. })),
        "got {low:?}"
    );
    assert!(normal.is_ok() && held.is_ok());
    let stats = server.stats();
    assert_eq!((stats.shed_low, stats.shed_normal), (1, 0));
}

/// Injected faults inside procedures feed the serving breaker: two
/// failures open it for calls and statements alike, and after the
/// cooldown a half-open probe closes it again.
#[test]
fn injected_faults_in_calls_open_the_serving_breaker() {
    gs_chaos::silence_chaos_panics();
    let (server, _) = proc_server(AdmissionConfig {
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
        },
        ..Default::default()
    });
    let broken = Arc::new(AtomicBool::new(true));
    let runs = Arc::new(AtomicUsize::new(0));
    let (b, r) = (Arc::clone(&broken), Arc::clone(&runs));
    server.register(
        "edge",
        Arc::new(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
            if b.load(Ordering::SeqCst) {
                std::panic::panic_any(gs_chaos::ChaosUnwind("storage"));
            }
            Ok(vec![])
        }),
    );
    let session = server.session("t", Priority::High);
    for _ in 0..2 {
        let err = session.call("edge", &HashMap::new()).unwrap_err();
        assert!(
            matches!(&err, GraphError::Unavailable(m) if m.contains("injected")),
            "got {err:?}"
        );
    }
    // open: refused before the procedure runs, and statements too
    let err = session.call("edge", &HashMap::new()).unwrap_err();
    assert!(
        matches!(&err, GraphError::Unavailable(m) if m.contains("circuit")),
        "got {err:?}"
    );
    assert_eq!(runs.load(Ordering::SeqCst), 2);
    let err = session
        .query(Frontend::Gremlin, COUNT_QUERY, &HashMap::new())
        .unwrap_err();
    assert!(matches!(err, GraphError::Unavailable(_)), "got {err:?}");
    assert_eq!(server.stats().breaker_rejections, 2);
    // after the cooldown the half-open probe runs, succeeds, and closes it
    broken.store(false, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(60));
    assert!(session.call("edge", &HashMap::new()).is_ok());
    assert!(!server.admission().breaker_open(Instant::now()));
    assert!(session.call("edge", &HashMap::new()).is_ok());
}

/// A `ChaosUnwind` inside a procedure is a structured `Unavailable`;
/// any other panic is a bug and reaches the caller. Neither leaks an
/// admission slot.
#[test]
fn a_chaos_unwind_in_a_procedure_is_unavailable() {
    gs_chaos::silence_chaos_panics();
    let (server, _) = proc_server(AdmissionConfig::default());
    server.register(
        "faulty",
        Arc::new(|_| std::panic::panic_any(gs_chaos::ChaosUnwind("storage"))),
    );
    server.register("buggy", Arc::new(|_| panic!("a real bug")));
    let session = server.session("t", Priority::Normal);
    let err = session.call("faulty", &HashMap::new()).unwrap_err();
    assert!(
        matches!(&err, GraphError::Unavailable(m) if m.contains("injected storage")),
        "got {err:?}"
    );
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let bug = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.call("buggy", &HashMap::new())
    }));
    std::panic::set_hook(prev);
    let payload = bug.expect_err("a real panic is re-raised");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"a real bug"));
    assert_eq!(server.admission().inflight(), 0);
}

/// Chaos-armed serving over the fraud workload: storage-read faults land
/// inside plan execution, and serving degrades — every request ends in
/// rows, a shed, or a structured error. Nothing panics, nothing hangs.
#[cfg(feature = "chaos")]
mod chaos_on {
    use super::*;
    use gs_chaos::{ChaosGraph, FaultPlan};
    use gs_graph::GraphSchema;
    use gs_serve::ServeStore;

    /// Serves GART snapshots through [`ChaosGraph`], so the installed
    /// plan's storage-read faults land inside plan execution.
    struct ChaosServeStore(Arc<GartStore>);

    impl ServeStore for ChaosServeStore {
        fn schema(&self) -> &GraphSchema {
            self.0.schema()
        }

        fn data_version(&self) -> u64 {
            self.0.committed_version()
        }

        fn snapshot(&self) -> (Arc<dyn GrinGraph>, u64) {
            let version = self.0.committed_version();
            let snap = ChaosGraph::new(self.0.snapshot_at(version), "serve.snapshot");
            (Arc::new(snap), version)
        }
    }

    #[test]
    fn serving_degrades_gracefully_under_injected_faults() {
        let plan = FaultPlan::new(0x5E12).storage_faults(0.25, 1);
        let ((ok, injected, shed, errs), stats) = gs_chaos::with_chaos(plan, || {
            let workload = fraud_graph(60, 20, 200, 50, 7);
            let gart = GartStore::from_data(&workload.data).expect("workload loads");
            let config = ServeConfig {
                cache_results: false, // force every request onto the engine
                ..Default::default()
            };
            let server = Arc::new(Server::new(
                Box::new(QueryService::new(1)),
                Box::new(ChaosServeStore(gart)),
                config,
            ));
            let params = HashMap::new();
            let session = server.session("checkout", Priority::High);
            let (mut ok, mut injected, mut shed, mut errs) = (0u64, 0u64, 0u64, 0u64);
            for i in 0..24 {
                let q = format!("MATCH (v:Account {{id: {}}}) RETURN v", i % 10);
                match session.query(Frontend::Cypher, &q, &params) {
                    Ok(_) => ok += 1,
                    Err(GraphError::Unavailable(m)) if m.contains("injected") => injected += 1,
                    Err(GraphError::Overloaded { .. }) | Err(GraphError::Unavailable(_)) => {
                        shed += 1
                    }
                    Err(_) => errs += 1,
                }
            }
            (ok, injected, shed, errs)
        });
        assert_eq!(
            ok + injected + shed + errs,
            24,
            "every request must be accounted"
        );
        assert_eq!(errs, 0, "faults must surface as structured errors");
        assert!(
            ok > 0,
            "transient read faults must not zero out the service"
        );
        assert!(
            injected > 0 && stats.storage_faults >= injected,
            "faults must actually have fired: {injected} requests, {stats:?}"
        );
    }
}
