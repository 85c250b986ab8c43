//! Pass-through guarantee: without `--features chaos`, every fault hook
//! compiles to an inlined no-op — no plan can be armed, no fault can
//! fire, and running code under `with_chaos` changes nothing. This is the
//! default build the benchmarks and production paths use, so the chaos
//! layer must be invisible here.

#![cfg(not(feature = "chaos"))]

use graphscope_flex::gs_chaos;
use std::time::Duration;

#[test]
#[allow(clippy::assertions_on_constants)]
fn default_build_compiles_chaos_out() {
    assert!(
        !gs_chaos::COMPILED,
        "the default build must not carry injection code"
    );
}

#[test]
fn hooks_are_noops_even_under_an_armed_plan() {
    let plan = gs_chaos::FaultPlan::new(7)
        .kill_worker(0, 0)
        .message_faults(1.0, 1.0, 1.0)
        .storage_faults(1.0, 8)
        .wal_kill(0)
        .wal_torn_writes();
    let (value, stats) = gs_chaos::with_chaos(plan, || {
        // a plan demanding every fault at probability 1.0 still does
        // nothing: the hooks are no-ops
        gs_chaos::worker_kill_point(0, 0);
        gs_chaos::storage_fault_point("passthrough");
        assert!(matches!(
            gs_chaos::message_fault(0, 1),
            gs_chaos::MessageFault::Deliver
        ));
        assert_eq!(
            gs_chaos::wal_write_fault(0, 64),
            gs_chaos::WalWriteFault::Proceed
        );
        1234
    });
    assert_eq!(value, 1234, "with_chaos must run the closure unchanged");
    assert_eq!(stats.total(), 0, "nothing can fire in a pass-through build");
}

#[test]
fn recovery_utilities_are_always_available() {
    // the breaker and the injected-fault panic protocol are plain library
    // code — they work (and are testable) without the chaos feature
    let mut breaker = gs_chaos::CircuitBreaker::new(gs_chaos::BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_millis(5),
    });
    let t0 = std::time::Instant::now();
    breaker.on_failure(t0);
    assert!(breaker.allow(t0), "one failure keeps the circuit closed");
    breaker.on_failure(t0);
    assert!(!breaker.allow(t0), "the second failure opens it");
    let t1 = t0 + Duration::from_millis(5);
    assert!(breaker.allow(t1), "the cooldown admits a half-open probe");
    breaker.on_success();
    assert!(!breaker.is_open(t1));
    let payload: Box<dyn std::any::Any + Send> = Box::new(gs_chaos::ChaosUnwind("storage"));
    assert!(gs_chaos::is_chaos_unwind(payload.as_ref()));
}
