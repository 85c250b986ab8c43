//! GRAPE messages only cross fragments: inner targets are updated in
//! place, and each mirror sends one combined message per superstep — read
//! off the `grape.msgs_sent` counter, which counts cross-fragment messages.
//!
//! Lives in its own test binary because the telemetry registry is
//! process-global: GRAPE runs in concurrently running unit tests would add
//! to the counter. The single test runs every phase sequentially.

use gs_grape::algorithms::{bfs, pagerank, wcc};
use gs_grape::GrapeEngine;
use gs_graph::edgelist::EdgeList;
use gs_graph::VId;
use rand::Rng;

fn random_graph(n: u64, m: usize, seed: u128) -> Vec<(VId, VId)> {
    let mut rng = rand_pcg::Pcg64Mcg::new(seed);
    (0..m)
        .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
        .collect()
}

#[test]
fn only_mirror_updates_cross_fragments() {
    let registry = gs_telemetry::Registry::new();
    gs_telemetry::install(registry.clone());
    let sent = || registry.counter_value("grape.msgs_sent");
    let n = 400u64;
    let edges = random_graph(n, 2_000, 23);
    let mut sym = EdgeList::from_pairs(n as usize, edges.iter().map(|&(s, d)| (s.0, d.0)));
    sym.symmetrize();

    // one fragment: every target is inner, so nothing is encoded
    let one = GrapeEngine::from_edges(n as usize, &edges, 1);
    let sym_one = GrapeEngine::from_edges(n as usize, sym.edges(), 1);
    assert_eq!(one.fragments[0].mirror_count(), 0);
    pagerank(&one, 0.85, 10);
    wcc(&sym_one);
    bfs(&one, VId(0));
    assert_eq!(sent(), 0, "a single fragment sent messages to itself");
    assert!(
        registry.counter_value("grape.supersteps") > 0,
        "telemetry on"
    );

    // two fragments: each PageRank iteration sends one message per mirror
    let two = GrapeEngine::from_edges(n as usize, &edges, 2);
    let mirrors: u64 = two.fragments.iter().map(|f| f.mirror_count() as u64).sum();
    assert!(mirrors > 0);
    for iters in [1u64, 2, 5] {
        registry.reset();
        pagerank(&two, 0.85, iters as usize);
        assert_eq!(sent(), iters * mirrors, "{iters} iteration(s)");
    }

    // Pregel combines per mirror: at most one message per mirror per step
    let sym_two = GrapeEngine::from_edges(n as usize, sym.edges(), 2);
    let sym_mirrors: u64 = sym_two
        .fragments
        .iter()
        .map(|f| f.mirror_count() as u64)
        .sum();
    registry.reset();
    let labels = wcc(&sym_two);
    let steps = registry.counter_value("grape.supersteps");
    assert!(sent() > 0 && sent() <= steps * sym_mirrors);
    assert_eq!(labels, wcc(&sym_one));
    gs_telemetry::uninstall();
}
