//! Cross-layout equivalence: every [`LayoutKind`] must be a pure
//! representation change. All gs-grape algorithms — Pregel BFS/SSSP/
//! PageRank/WCC/CDLP, FLASH k-core, LCC, triangle counting, and the
//! direction-optimizing traversals under every policy — run over seeded
//! gs-datagen graphs on all three layouts and must return identical (for
//! floats: bit-identical) results. Direction-optimizing BFS is additionally
//! pinned byte-for-byte to plain Pregel BFS.

use gs_datagen::{powerlaw, rmat};
use gs_grape::algorithms::{self, triangle_count};
use gs_grape::traversal::{bfs_with_policy, sssp_with_policy, TraversalPolicy};
use gs_grape::GrapeEngine;
use gs_graph::{LayoutKind, VId};

/// A named test graph: (name, vertex count, edge list).
type Corpus = (&'static str, usize, Vec<(VId, VId)>);

/// Seeded benchmark-shaped graphs: a heavy-tailed R-MAT digraph and a
/// preferential-attachment graph (hubs exercise the galloping paths).
fn corpora() -> Vec<Corpus> {
    let rm = rmat::generate(&rmat::RmatConfig {
        seed: 0xC0FFEE,
        ..rmat::RmatConfig::graph500(9)
    });
    let pa = powerlaw::preferential_attachment(700, 5, 0xC0FFEE);
    vec![
        ("rmat9", rm.vertex_count(), rm.edges().to_vec()),
        ("pa700", pa.vertex_count(), pa.edges().to_vec()),
    ]
}

fn weights_for(edges: &[(VId, VId)]) -> Vec<f64> {
    edges
        .iter()
        .map(|&(s, d)| ((s.0 * 13 + d.0 * 5) % 97 + 1) as f64 / 8.0)
        .collect()
}

#[test]
fn all_layouts_agree_on_every_algorithm() {
    for (name, n, edges) in corpora() {
        let weights = weights_for(&edges);
        let mut sym =
            gs_graph::edgelist::EdgeList::from_pairs(n, edges.iter().map(|&(s, d)| (s.0, d.0)));
        sym.symmetrize();
        sym.dedup_simple();
        let src = VId(0);

        // plain-CSR baselines, fragment counts 1 and 3
        for k in [1usize, 3] {
            let base = GrapeEngine::from_edges_with_layout(n, &edges, k, LayoutKind::Csr);
            let wbase = GrapeEngine::from_weighted_edges_with_layout(
                n,
                &edges,
                &weights,
                k,
                LayoutKind::Csr,
            );
            let sbase = GrapeEngine::from_edges_with_layout(n, sym.edges(), k, LayoutKind::Csr);
            let bfs0 = algorithms::bfs(&base, src);
            let sssp0: Vec<u64> = algorithms::sssp(&wbase, src)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            let pr0: Vec<u64> = algorithms::pagerank(&base, 0.85, 12)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            let wcc0 = algorithms::wcc(&sbase);
            let cdlp0 = algorithms::cdlp(&sbase, 5);
            let kcore0 = algorithms::kcore(&sbase, 3);
            let lcc0: Vec<u64> = algorithms::lcc_with_layout(n, sym.edges(), k, LayoutKind::Csr)
                .iter()
                .map(|d| d.to_bits())
                .collect();
            let tc0 = triangle_count(n, sym.edges(), LayoutKind::Csr, k);

            for layout in LayoutKind::ALL {
                let ctx = format!("{name} k={k} {layout}");
                let eng = GrapeEngine::from_edges_with_layout(n, &edges, k, layout);
                let weng =
                    GrapeEngine::from_weighted_edges_with_layout(n, &edges, &weights, k, layout);
                let seng = GrapeEngine::from_edges_with_layout(n, sym.edges(), k, layout);
                assert_eq!(eng.layout(), layout, "{ctx}");

                assert_eq!(algorithms::bfs(&eng, src), bfs0, "{ctx} bfs");
                assert_eq!(
                    algorithms::sssp(&weng, src)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>(),
                    sssp0,
                    "{ctx} sssp"
                );
                assert_eq!(
                    algorithms::pagerank(&eng, 0.85, 12)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>(),
                    pr0,
                    "{ctx} pagerank"
                );
                assert_eq!(algorithms::wcc(&seng), wcc0, "{ctx} wcc");
                assert_eq!(algorithms::cdlp(&seng, 5), cdlp0, "{ctx} cdlp");
                assert_eq!(algorithms::kcore(&seng, 3), kcore0, "{ctx} kcore");
                assert_eq!(
                    algorithms::lcc_with_layout(n, sym.edges(), k, layout)
                        .iter()
                        .map(|d| d.to_bits())
                        .collect::<Vec<_>>(),
                    lcc0,
                    "{ctx} lcc"
                );
                assert_eq!(
                    triangle_count(n, sym.edges(), layout, k),
                    tc0,
                    "{ctx} triangles"
                );
            }
        }
    }
}

#[test]
fn direction_optimizing_bfs_is_byte_identical_to_pregel_bfs() {
    for (name, n, edges) in corpora() {
        for k in [1usize, 2, 4] {
            for layout in LayoutKind::ALL {
                let eng = GrapeEngine::from_edges_with_layout(n, &edges, k, layout);
                let pregel = algorithms::bfs(&eng, VId(1));
                for policy in [
                    TraversalPolicy::Auto,
                    TraversalPolicy::PushOnly,
                    TraversalPolicy::PullOnly,
                ] {
                    let (depths, _) = bfs_with_policy(&eng, VId(1), policy);
                    assert_eq!(
                        depths, pregel,
                        "{name} k={k} {layout} {policy:?}: DO-BFS != Pregel BFS"
                    );
                }
            }
        }
    }
}

#[test]
fn direction_optimizing_sssp_is_bit_identical_across_layouts_and_policies() {
    for (name, n, edges) in corpora() {
        let weights = weights_for(&edges);
        let mut baseline: Option<Vec<u64>> = None;
        for k in [1usize, 3] {
            for layout in LayoutKind::ALL {
                let eng =
                    GrapeEngine::from_weighted_edges_with_layout(n, &edges, &weights, k, layout);
                let pregel: Vec<u64> = algorithms::sssp(&eng, VId(1))
                    .iter()
                    .map(|d| d.to_bits())
                    .collect();
                for policy in [TraversalPolicy::Auto, TraversalPolicy::PushOnly] {
                    let (dist, _) = sssp_with_policy(&eng, VId(1), policy);
                    let bits: Vec<u64> = dist.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(bits, pregel, "{name} k={k} {layout} {policy:?}");
                }
                match &baseline {
                    Some(b) => assert_eq!(&pregel, b, "{name} k={k} {layout}"),
                    None => baseline = Some(pregel),
                }
            }
        }
    }
}

/// Every fragment count agrees with the single-threaded references: a
/// partitioning only changes which messages cross fragments. PageRank
/// stays within 1e-12 of `reference::pagerank` and is bit-identical from
/// run to run; WCC and both BFS paths (Pregel and direction-optimizing)
/// equal the reference exactly.
#[test]
fn every_fragment_count_matches_the_references() {
    use algorithms::reference;
    for (name, n, edges) in corpora() {
        let mut sym =
            gs_graph::edgelist::EdgeList::from_pairs(n, edges.iter().map(|&(s, d)| (s.0, d.0)));
        sym.symmetrize();
        let pr_ref = reference::pagerank(n, &edges, 0.85, 20);
        let wcc_ref = reference::wcc(n, sym.edges());
        let bfs_ref = reference::bfs(n, &edges, VId(1));
        for k in [1usize, 2, 3, 4] {
            for layout in LayoutKind::ALL {
                let ctx = format!("{name} k={k} {layout}");
                let eng = GrapeEngine::from_edges_with_layout(n, &edges, k, layout);
                let seng = GrapeEngine::from_edges_with_layout(n, sym.edges(), k, layout);
                let pr = algorithms::pagerank(&eng, 0.85, 20);
                for (v, (a, b)) in pr.iter().zip(&pr_ref).enumerate() {
                    assert!((a - b).abs() < 1e-12, "{ctx} pagerank[{v}]: {a} vs {b}");
                }
                let again = algorithms::pagerank(&eng, 0.85, 20);
                assert!(
                    pr.iter()
                        .zip(&again)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{ctx} pagerank differs between runs"
                );
                assert_eq!(algorithms::wcc(&seng), wcc_ref, "{ctx} wcc");
                assert_eq!(algorithms::bfs(&eng, VId(1)), bfs_ref, "{ctx} pregel bfs");
                let (depths, _) = bfs_with_policy(&eng, VId(1), TraversalPolicy::Auto);
                assert_eq!(depths, bfs_ref, "{ctx} direction-optimizing bfs");
            }
        }
    }
}
