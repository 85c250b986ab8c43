//! Concurrency stress tests for the simulated cluster's synchronization
//! protocols. Each runs under `gs_sanitizer::with_sanitizer`: in default
//! builds the report is trivially empty and these are plain stress tests;
//! under `--features sanitize` (the CI `sanitize` job) the same runs also
//! assert the protocols are happens-before clean.

use graphscope_flex::gs_sanitizer;
use std::sync::Arc;

/// N workers hammering the GRAPE aggregator's double-buffer slots across
/// superstep boundaries: every round's reduction must be exact for every
/// worker, and the accumulate → barrier → read → barrier → leader-reset
/// protocol must be race-free.
#[test]
fn grape_aggregator_double_buffer_stress() {
    let k = 8;
    let rounds = 40;
    let ((), report) = gs_sanitizer::with_sanitizer(21, || {
        let comms = graphscope_flex::gs_grape::CommHandle::cluster(k, None);
        std::thread::scope(|s| {
            for c in comms {
                s.spawn(move || {
                    for r in 0..rounds {
                        // alternate integer and float reductions so both
                        // slot arrays cross superstep boundaries
                        let total = c.allreduce(c.my_id as u64 + r);
                        let expect = (0..k as u64).map(|i| i + r).sum::<u64>();
                        assert_eq!(total, expect, "worker {} round {r}", c.my_id);
                        let ftotal = c.allreduce_f64(0.5);
                        assert!((ftotal - k as f64 * 0.5).abs() < 1e-9);
                    }
                });
            }
        });
    });
    assert!(report.is_clean(), "{}", report.render());
}

/// Concurrent `Session::call` storm through one server: every call
/// completes, the procedure registry and the admission ladder survive
/// concurrent callers, and the whole run is sanitizer-clean.
#[test]
fn session_call_storm_through_one_server() {
    use graphscope_flex::gs_ir::{ReferenceEngine, Value};
    use graphscope_flex::gs_serve::{Priority, ServeConfig, Server, StaticServeStore};
    use std::collections::HashMap;
    let (count, report) = gs_sanitizer::with_sanitizer(23, || {
        let graph = graphscope_flex::gs_grin::graph::mock::MockGraph::new(4, &[(0, 1, 1.0)]);
        let server = Arc::new(Server::new(
            Box::new(ReferenceEngine::default()),
            Box::new(StaticServeStore::new(Arc::new(graph))),
            ServeConfig::default(),
        ));
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        server.register(
            "tick",
            Arc::new(move |_| {
                h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(vec![vec![Value::Int(1)]])
            }),
        );
        std::thread::scope(|s| {
            for t in 0..4 {
                let session = server.session(&format!("tenant-{t}"), Priority::Normal);
                s.spawn(move || {
                    for _ in 0..50 {
                        let rows = session.call("tick", &HashMap::new()).unwrap();
                        assert_eq!(rows[0][0], Value::Int(1));
                    }
                });
            }
        });
        assert_eq!(server.admission().inflight(), 0, "every slot released");
        hits.load(std::sync::atomic::Ordering::Relaxed)
    });
    assert_eq!(count, 200);
    assert!(report.is_clean(), "{}", report.render());
}
