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

/// Concurrent submitters to ONE HiActor shard: the mailbox must preserve
/// each submitter's order (per-shard FIFO), and the runtime must stay
/// sanitizer-clean under contention.
#[test]
fn hiactor_single_shard_preserves_submitter_fifo() {
    let callers = 4;
    let jobs_per_caller = 50;
    let (log, report) = gs_sanitizer::with_sanitizer(22, || {
        let rt = graphscope_flex::gs_hiactor::HiActorRuntime::new(2);
        let log = Arc::new(parking_lot::Mutex::new(Vec::<(usize, usize)>::new()));
        std::thread::scope(|s| {
            for t in 0..callers {
                let rt = &rt;
                let log = Arc::clone(&log);
                s.spawn(move || {
                    let rxs: Vec<_> = (0..jobs_per_caller)
                        .map(|i| {
                            let log = Arc::clone(&log);
                            rt.submit(Some(0), move || log.lock().push((t, i)))
                        })
                        .collect();
                    for rx in rxs {
                        rx.recv().unwrap();
                    }
                });
            }
        });
        rt.quiesce();
        Arc::try_unwrap(log).expect("all clones done").into_inner()
    });
    assert_eq!(log.len(), callers * jobs_per_caller);
    // each submitter's jobs ran in its submission order
    for t in 0..callers {
        let seq: Vec<usize> = log
            .iter()
            .filter(|&&(lt, _)| lt == t)
            .map(|&(_, i)| i)
            .collect();
        assert_eq!(seq, (0..jobs_per_caller).collect::<Vec<_>>(), "caller {t}");
    }
    assert!(report.is_clean(), "{}", report.render());
}

/// Concurrent `call_sync` storm against a single-shard service: every call
/// completes, the procedure registry survives concurrent readers, and the
/// whole run is sanitizer-clean.
#[test]
fn hiactor_call_sync_storm_on_one_shard() {
    use graphscope_flex::gs_ir::Value;
    use std::collections::HashMap;
    let (count, report) = gs_sanitizer::with_sanitizer(23, || {
        let svc = graphscope_flex::gs_hiactor::QueryService::new(1);
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        svc.register(
            "tick",
            Arc::new(move |_| {
                h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(vec![vec![Value::Int(1)]])
            }),
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = &svc;
                s.spawn(move || {
                    for _ in 0..50 {
                        let rows = svc.call_sync("tick", HashMap::new()).unwrap();
                        assert_eq!(rows[0][0], Value::Int(1));
                    }
                });
            }
        });
        svc.runtime().quiesce();
        drop(svc); // idle shards block on their mailboxes: tear down first
        hits.load(std::sync::atomic::Ordering::Relaxed)
    });
    assert_eq!(count, 200);
    assert!(report.is_clean(), "{}", report.render());
}
