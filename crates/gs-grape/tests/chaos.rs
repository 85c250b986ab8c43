//! GRAPE recovery under seeded chaos: scheduled worker kills and message
//! faults abort attempts, and the restarted run converges to the
//! fault-free answer.
//!
//! Lives in its own test binary (own process) because the chaos plan is
//! process-global: an installed kill or message-drop plan would reach
//! every plain GRAPE run in the crate's unit tests. Here every run,
//! fault-free baselines included, holds the `with_chaos` gate.
#![cfg(feature = "chaos")]

use gs_chaos::{with_chaos, FaultPlan};
use gs_grape::algorithms::{sssp, wcc};
use gs_grape::{GrapeEngine, RecoveryConfig};
use gs_graph::VId;
use std::time::Duration;

fn ring_edges(n: u64) -> Vec<(VId, VId)> {
    (0..n)
        .flat_map(|i| [(VId(i), VId((i + 1) % n)), (VId((i + 1) % n), VId(i))])
        .collect()
}

/// WCC labels of an unarmed run, under an empty plan.
fn fault_free_wcc(n: usize, edges: &[(VId, VId)], fragments: usize) -> Vec<u64> {
    with_chaos(FaultPlan::new(0), || {
        wcc(&GrapeEngine::from_edges(n, edges, fragments))
    })
    .0
}

/// Scheduled worker kills at different supersteps; the run restarts from
/// checkpoints and converges to the fault-free result.
#[test]
fn wcc_survives_worker_kills_byte_identically() {
    let edges = ring_edges(40);
    let plain = fault_free_wcc(40, &edges, 3);
    let plan = FaultPlan::new(77).kill_worker(1, 3).kill_worker(2, 7);
    let (survived, stats) = with_chaos(plan, || {
        wcc(&GrapeEngine::from_edges(40, &edges, 3)
            .with_recovery(RecoveryConfig::default().interval(2)))
    });
    assert_eq!(stats.worker_kills, 2, "both scheduled kills fired");
    assert_eq!(plain, survived, "WCC under kills must be byte-identical");
}

/// Message drop/duplication/delay on the exchange; duplicates and delays
/// are absorbed in-round, drops abort the attempt and the restart
/// converges to the exact fault-free answer.
#[test]
fn pregel_survives_message_faults() {
    let edges = ring_edges(32);
    let plain = fault_free_wcc(32, &edges, 4);
    let plan = FaultPlan::new(1234)
        .message_faults(0.05, 0.05, 0.05)
        .budget(12);
    let (survived, stats) = with_chaos(plan, || {
        wcc(&GrapeEngine::from_edges(32, &edges, 4).with_recovery(
            RecoveryConfig::default()
                .interval(2)
                .detect_timeout(Duration::from_millis(150)),
        ))
    });
    assert!(stats.total() > 0, "plan must actually inject");
    assert_eq!(plain, survived);
}

/// SSSP keeps no checkpoint of its own. With recovery armed, a dropped
/// block must still be detected and the run restarted from scratch,
/// converging to the fault-free distances (not leaving the receiver
/// waiting forever for the lost block).
#[test]
fn sssp_restarts_from_scratch_after_message_faults() {
    let edges = ring_edges(32);
    let weights: Vec<f64> = (0..edges.len()).map(|i| (i % 5 + 1) as f64).collect();
    let engine = |recovery: Option<RecoveryConfig>| {
        let engine = GrapeEngine::from_weighted_edges(32, &edges, &weights, 4);
        match recovery {
            Some(cfg) => engine.with_recovery(cfg),
            None => engine,
        }
    };
    let plain = with_chaos(FaultPlan::new(0), || sssp(&engine(None), VId(0))).0;
    let plan = FaultPlan::new(4321)
        .message_faults(0.05, 0.05, 0.05)
        .budget(12);
    let armed = engine(Some(
        RecoveryConfig::default().detect_timeout(Duration::from_millis(150)),
    ));
    let (survived, stats) = with_chaos(plan, || {
        // run off the gate-holding thread, so a hung run fails this test
        // (and releases the gate) instead of stalling the suite
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(sssp(&armed, VId(0)));
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("sssp hung on a dropped block")
    });
    assert!(stats.msgs_dropped > 0, "plan must drop a block: {stats:?}");
    assert_eq!(plain, survived);
}
