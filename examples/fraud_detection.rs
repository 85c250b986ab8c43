//! Real-time fraud detection (paper §8): the OLTP brick selection —
//! HiActor over GART — ingesting an order stream and flagging suspicious
//! co-purchases against known fraud seeds. The check is a stored procedure
//! registered on a gs-serve `Server`; every check is a `Session::call`.
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```

use gs_datagen::apps::fraud_graph;
use gs_flex::{FraudApp, FraudConfig};
use gs_graph::Value;
use gs_serve::{GartServeStore, Priority, ServeConfig, Server};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A server over the app's GART store with the check registered as
/// `fraud_check`.
fn fraud_server(app: &Arc<FraudApp>) -> Arc<Server> {
    let server = Server::new(
        Box::new(gs_hiactor::QueryService::new(1)),
        Box::new(GartServeStore::new(Arc::clone(app.store()))),
        ServeConfig::default(),
    );
    server.register("fraud_check", app.procedure());
    Arc::new(server)
}

fn main() -> gs_graph::Result<()> {
    // a transaction graph: accounts, items, historical BUY and KNOWS edges,
    // a seed list of known-fraud accounts, and an incoming order stream
    let workload = fraud_graph(2_000, 800, 10_000, 2_000, 42);
    println!(
        "transaction graph: {} accounts, {} items, {} historical orders, {} fraud seeds",
        workload.accounts,
        workload.items,
        workload.data.edges[workload.labels.buy.index()]
            .endpoints
            .len(),
        workload.seeds.len(),
    );

    // sanity: the stored procedure and the Cypher query agree
    let probe_app = FraudApp::new(&workload, FraudConfig::default())?;
    let probe = workload.seeds[0];
    assert_eq!(
        probe_app.check_order(probe, 15_350)?,
        probe_app.check_order_cypher(probe)?,
        "stored procedure must match the Cypher semantics"
    );

    // drive the online stream through concurrent clients (each order is a
    // GART insert + commit + co-purchase checks, each a procedure call); a
    // fresh deployment per configuration keeps the ingested graph identical
    // across runs
    for threads in [1usize, 2, 4, 8] {
        let app = Arc::new(FraudApp::new(&workload, FraudConfig::default())?);
        let session = fraud_server(&app).session("fraud", Priority::High);
        let t0 = Instant::now();
        let qps = app.run_throughput(&workload.order_stream, threads, |account, date| {
            let params = HashMap::from([
                ("account".to_string(), Value::Int(account as i64)),
                ("date".to_string(), Value::Date(date)),
            ]);
            Ok(session.call("fraud_check", &params)?[0][0] == Value::Bool(true))
        });
        println!(
            "{threads} client threads: {qps:.0} checks/s ({} alerts, wall {:?})",
            app.alerts(),
            t0.elapsed()
        );
    }
    Ok(())
}
