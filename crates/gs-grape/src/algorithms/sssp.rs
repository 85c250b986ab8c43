//! Distributed single-source shortest paths (Bellman-Ford-style relaxation
//! in the Pregel model) over weighted fragments.

use crate::engine::GrapeEngine;
use crate::messages::OutBuffers;
use gs_graph::VId;

/// SSSP distances from `src` (`f64::INFINITY` when unreachable). The engine
/// must have been built with [`GrapeEngine::from_weighted_edges`].
pub fn sssp(engine: &GrapeEngine, src: VId) -> Vec<f64> {
    engine.run(|frag, comm| {
        let weights = frag
            .weights
            .as_ref()
            .expect("sssp requires weighted fragments");
        let inner = frag.inner_count;
        let mut dist = vec![f64::INFINITY; inner];
        let mut out = OutBuffers::new(comm.workers);

        // round 0: seed the source
        if let Some(l) = frag.local(src) {
            if frag.is_inner(l) {
                dist[l as usize] = 0.0;
                relax_from(frag, weights, l, 0.0, &mut out);
            }
        }
        loop {
            let sent = out.total();
            let (blocks, _) = comm.exchange(&mut out);
            if comm.allreduce(sent) == 0 {
                break;
            }
            // collect the best incoming distance per local vertex
            let mut improved: Vec<(u32, f64)> = Vec::new();
            for b in &blocks {
                b.for_each::<f64>(|l, d| {
                    if d < dist[l as usize] {
                        dist[l as usize] = d;
                        improved.push((l, d));
                    }
                });
            }
            for (l, d) in improved {
                // only relax if still the best (may have been superseded)
                if (dist[l as usize] - d).abs() < f64::EPSILON {
                    relax_from(frag, weights, l, d, &mut out);
                }
            }
        }
        (0..inner as u32)
            .map(|l| (frag.global(l), dist[l as usize]))
            .collect()
    })
}

fn relax_from(
    frag: &crate::fragment::Fragment,
    weights: &[f64],
    l: u32,
    d: f64,
    out: &mut OutBuffers,
) {
    frag.for_each_out(l, |nbr, eid| {
        let (to, lid) = frag.route(nbr.0 as u32);
        out.send(to, lid, d + weights[eid.index()]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;

    #[test]
    fn matches_dijkstra_on_small_graph() {
        let edges = vec![
            (VId(0), VId(1)),
            (VId(0), VId(2)),
            (VId(1), VId(3)),
            (VId(2), VId(3)),
            (VId(3), VId(4)),
        ];
        let weights = vec![1.0, 4.0, 2.0, 0.5, 1.0];
        for k in [1, 2, 3] {
            let engine = GrapeEngine::from_weighted_edges(6, &edges, &weights, k);
            let got = sssp(&engine, VId(0));
            let want = reference::sssp(6, &edges, &weights, VId(0));
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() < 1e-12 || (a.is_infinite() && b.is_infinite()),
                    "k={k} {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn random_weighted_graph_matches_dijkstra() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(5);
        let n = 150u64;
        let edges: Vec<(VId, VId)> = (0..700)
            .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
            .collect();
        let weights: Vec<f64> = (0..700).map(|_| rng.gen_range(0.1..10.0)).collect();
        let engine = GrapeEngine::from_weighted_edges(n as usize, &edges, &weights, 4);
        let got = sssp(&engine, VId(3));
        let want = reference::sssp(n as usize, &edges, &weights, VId(3));
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "{a} vs {b}"
            );
        }
    }
}
