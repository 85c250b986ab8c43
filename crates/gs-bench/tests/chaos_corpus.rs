//! The `gate chaos --deny` bar as a test: the whole fault-injection
//! corpus holds chaos equivalence.
//!
//! Lives in its own test binary (own process): the corpus installs
//! process-global fault plans and starts GRAPE workers and HiActor shards,
//! so it must not share a process with the lib tests that open the
//! sanitizer's recording window.
#![cfg(feature = "chaos")]

#[test]
fn corpus_holds_chaos_equivalence() {
    for (workload, r) in gs_bench::chaos::run_corpus(42) {
        assert!(
            r.outcome.is_ok(),
            "{workload} broke equivalence ({}): {}",
            r.stats.render(),
            r.outcome.unwrap_err()
        );
    }
}
