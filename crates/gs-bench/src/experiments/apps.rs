//! Real-world application experiments: Table 2 and Exp-5 … Exp-8.

use crate::util::{fmt_duration, fmt_speedup, time_it, TablePrinter};
use gs_datagen::apps::{cyber_graph, equity_graph, fraud_graph};
use gs_flex::cyber::CyberApp;
use gs_flex::equity::{equity_grape, equity_sql};
use gs_flex::fraud::{FraudApp, FraudConfig};
use gs_flex::social::{train_social, SocialConfig};
use gs_graph::Value;
use gs_serve::{GartServeStore, Priority, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::Arc;

/// The §8 deployment's front door: a server over the app's GART store
/// with the fraud check registered as the `fraud_check` procedure.
fn fraud_server(app: &Arc<FraudApp>) -> Arc<Server> {
    let server = Server::new(
        Box::new(gs_hiactor::QueryService::new(1).with_verify(gs_ir::VerifyLevel::Deny)),
        Box::new(GartServeStore::new(Arc::clone(app.store()))),
        ServeConfig::default(),
    );
    server.register("fraud_check", app.procedure());
    Arc::new(server)
}

/// Table 2 / Exp-5: real-time fraud detection throughput vs client threads.
/// Every check is a `fraud_check` call through one gs-serve session, so it
/// climbs the same admission ladder as a statement.
pub fn table2(scale: f64) {
    println!("== Table 2 / Exp-5: fraud detection throughput vs threads ==");
    println!("paper shape: near-linear scaling with thread count\n");
    let accounts = (3000.0 * scale) as usize;
    let w = fraud_graph(
        accounts.max(300),
        accounts.max(300) / 3,
        accounts.max(300) * 5,
        4000,
        5,
    );
    let mut t = TablePrinter::new(&["#threads", "throughput (checks/s)", "scaling vs base"]);
    let mut base: Option<f64> = None;
    // the paper's 10..40 client threads, scaled to 1..8; on hosts with
    // fewer cores than threads the scaling column measures contention only
    for threads in [1usize, 2, 4, 8] {
        let app = Arc::new(FraudApp::new(&w, FraudConfig::default()).unwrap());
        let session = fraud_server(&app).session("fraud", Priority::High);
        let qps = app.run_throughput(&w.order_stream, threads, |account, date| {
            let params = HashMap::from([
                ("account".to_string(), Value::Int(account as i64)),
                ("date".to_string(), Value::Date(date)),
            ]);
            let rows = session.call("fraud_check", &params)?;
            Ok(rows[0][0] == Value::Bool(true))
        });
        let b = *base.get_or_insert(qps);
        t.row(vec![
            threads.to_string(),
            format!("{qps:.0}"),
            format!("{:.2}×", qps / b),
        ]);
    }
    t.print();
    // the analytics arm of the same deployment: PageRank risk scores over
    // the ingested store, loaded into GRAPE through GRIN
    let app = FraudApp::new(&w, FraudConfig::default()).unwrap();
    let (tr, scores) = time_it(1, || app.risk_scores(4, 10).unwrap());
    let top = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "offline risk scoring (PageRank over GRIN-loaded KNOWS graph): \
         {} for {} accounts, top score {top:.5}",
        fmt_duration(tr),
        scores.len()
    );
}

/// Exp-6: equity analysis — GRAPE propagation vs the SQL pipeline.
pub fn exp6(scale: f64) {
    println!("== Exp-6: equity analysis — GRAPE vs SQL baseline ==");
    println!("paper shape: graph deployment completes full analysis; SQL struggles\n");
    let companies = (2000.0 * scale) as usize;
    let eq = equity_graph(companies.max(200), companies.max(200) / 2, 7);
    let (tg, controllers) = time_it(3, || equity_grape(&eq, 4, 0.5));
    let (ts, sql_controllers) = time_it(1, || equity_sql(&eq, 64, 0.5));
    assert_eq!(
        controllers.len(),
        sql_controllers.len(),
        "methods must agree"
    );
    let mut t = TablePrinter::new(&["method", "time", "companies with controller"]);
    t.row(vec![
        "GRAPE propagation".into(),
        fmt_duration(tg),
        controllers.len().to_string(),
    ]);
    t.row(vec![
        "SQL self-joins".into(),
        fmt_duration(ts),
        sql_controllers.len().to_string(),
    ]);
    t.print();
    println!("graph-over-SQL speedup: {}", fmt_speedup(ts, tg));
}

/// Exp-7: social relation prediction (NCN) — per-epoch time and quality.
pub fn exp7(scale: f64) {
    println!("== Exp-7: social relation prediction (NCN) ==");
    println!("paper shape: steady per-epoch time; model separates links from non-links\n");
    let cfg = SocialConfig {
        vertices: ((4000.0 * scale) as usize).max(400),
        train_pairs: ((600.0 * scale) as usize).max(150),
        epochs: 4,
        ..Default::default()
    };
    let run = train_social(&cfg).unwrap();
    let mut t = TablePrinter::new(&["epoch", "time", "mean loss"]);
    for (i, e) in run.epochs.iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            fmt_duration(e.duration),
            format!("{:.4}", e.mean_loss),
        ]);
    }
    t.print();
    println!(
        "held-out separation (positives − negatives): {:.3}",
        run.separation
    );
}

/// Exp-8: cybersecurity monitoring — graph traversal vs SQL joins.
pub fn exp8(scale: f64) {
    println!("== Exp-8: cybersecurity monitoring — 2-hop traversal vs SQL joins ==");
    println!("paper shape: orders-of-magnitude advantage for the graph traversal\n");
    let hosts = ((4000.0 * scale) as usize).max(300);
    let g = cyber_graph(hosts, 4, 3);
    let app = CyberApp::new(&g).unwrap();
    // per-check latency: one monitored host each way
    let probe_hosts: Vec<u64> = (0..50u64).collect();
    let (t_graph, _) = time_it(3, || {
        probe_hosts
            .iter()
            .filter(|&&h| app.host_compromised(h))
            .count()
    });
    let (t_sql, _) = time_it(1, || app.sweep_sql(&g));
    // SQL must redo the full join work per monitoring sweep; the graph path
    // answers per-host checks directly.
    let mut t = TablePrinter::new(&["method", "time (50 host checks)", "per-check"]);
    t.row(vec![
        "graph 2-hop traversal".into(),
        fmt_duration(t_graph),
        fmt_duration(t_graph / 50),
    ]);
    t.row(vec![
        "SQL self-joins (full sweep)".into(),
        fmt_duration(t_sql),
        fmt_duration(t_sql / 50),
    ]);
    t.print();
    println!("graph-over-SQL speedup: {}", fmt_speedup(t_sql, t_graph));
    // offline arm: WCC infrastructure mapping over the same store via GRIN
    let (t_wcc, comps) = time_it(1, || app.infrastructure_components(4).unwrap());
    let distinct: std::collections::HashSet<u64> = comps.values().copied().collect();
    println!(
        "infrastructure mapping (WCC over GRIN-loaded store): {} — {} hosts in {} components",
        fmt_duration(t_wcc),
        comps.len(),
        distinct.len()
    );
}
