//! Distributed PageRank on GRAPE.
//!
//! Each round every fragment pushes `rank/out_degree` along its out-edges
//! into one flat array over its local ids: inner targets accumulate their
//! incoming mass in place, and each outer mirror accumulates the mass bound
//! for its owner. The mirrors then send one message each (their sum), the
//! dangling mass is all-reduced (f64), and the owners add the remote sums
//! in sender order. At one fragment nothing is encoded at all. Fixed
//! iteration count per Graphalytics.

use crate::engine::{CommHandle, GrapeEngine};
use crate::fragment::Fragment;
use crate::messages::OutBuffers;
use crate::recover::{checkpoint, CheckpointStore};

/// One PageRank iteration over a fragment: push shares into `recv` (one
/// slot per local id), send each mirror's sum to its owner, all-reduce the
/// dangling mass, exchange, and recombine. Each inner vertex folds its
/// local contributions in source order first, then the remote sums in
/// sender order, so a run is bit-identical to any other at the same
/// fragment count.
fn pagerank_step(
    frag: &Fragment,
    comm: &CommHandle,
    n: usize,
    damping: f64,
    rank: &mut [f64],
    recv: &mut [f64],
    out: &mut OutBuffers,
) {
    let inner = frag.inner_count;
    recv.fill(0.0);
    let mut dangling_local = 0.0;
    for l in 0..inner as u32 {
        let deg = frag.out_degree(l);
        if deg == 0 {
            dangling_local += rank[l as usize];
            continue;
        }
        let share = rank[l as usize] / deg as f64;
        frag.for_each_out(l, |nbr, _| recv[nbr.index()] += share);
    }
    // every mirror has an in-edge from this fragment, so each sends once
    for (m, &sum) in recv[inner..].iter().enumerate() {
        let (to, lid) = frag.route((inner + m) as u32);
        out.send(to, lid, sum);
    }
    let dangling = comm.allreduce_f64(dangling_local);
    let (blocks, _) = comm.exchange(out);
    for b in &blocks {
        b.for_each::<f64>(|l, sum| recv[l as usize] += sum);
    }
    let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
    for l in 0..inner {
        rank[l] = base + damping * recv[l];
    }
}

/// Runs `iters` PageRank iterations with the given damping factor; returns
/// ranks indexed by global id (summing to ~1). With
/// [`GrapeEngine::with_recovery`] armed, runs under checkpoint/restart.
pub fn pagerank(engine: &GrapeEngine, damping: f64, iters: usize) -> Vec<f64> {
    pagerank_recoverable(engine, damping, iters, &CheckpointStore::new())
}

/// [`pagerank`] over an explicit checkpoint store: each worker resumes
/// from `store`'s last committed checkpoint, if any, and — with
/// [`GrapeEngine::with_recovery`] armed — snapshots its ranks into `store`
/// every `interval` iterations. The store may outlive the engine, so a
/// fresh engine can finish a run another one checkpointed. The replayed
/// arithmetic is identical — the global dangling-mass f64 reduction folds
/// contributions in a canonical order — so a resumed run reproduces the
/// uninterrupted ranks bit-for-bit.
pub fn pagerank_recoverable(
    engine: &GrapeEngine,
    damping: f64,
    iters: usize,
    store: &CheckpointStore<Vec<f64>>,
) -> Vec<f64> {
    let n = engine.global_n();
    engine.run(|frag, comm| {
        let inner = frag.inner_count;
        let idx = frag.id.index();
        let (start, mut rank) = match store.restore(idx) {
            Some((step, ranks)) => (step + 1, ranks),
            None => (0, vec![1.0 / n as f64; inner]),
        };
        let mut recv = vec![0.0f64; frag.local_count()];
        let mut out = OutBuffers::new(comm.workers);
        for step in start..iters {
            gs_chaos::worker_kill_point(comm.my_id, step);
            pagerank_step(frag, comm, n, damping, &mut rank, &mut recv, &mut out);
            if engine.checkpoint_due(step, iters) {
                checkpoint(comm, store, idx, step, rank.clone());
            }
        }
        (0..inner as u32)
            .map(|l| (frag.global(l), rank[l as usize]))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;
    use gs_graph::VId;

    fn diamond_edges() -> Vec<(VId, VId)> {
        vec![
            (VId(0), VId(1)),
            (VId(0), VId(2)),
            (VId(1), VId(3)),
            (VId(2), VId(3)),
            (VId(3), VId(0)),
        ]
    }

    #[test]
    fn matches_reference_on_diamond() {
        let edges = diamond_edges();
        for k in [1, 2, 4] {
            let engine = GrapeEngine::from_edges(4, &edges, k);
            let got = pagerank(&engine, 0.85, 30);
            let want = reference::pagerank(4, &edges, 0.85, 30);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "k={k}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn handles_dangling_vertices() {
        // vertex 2 has no out-edges
        let edges = vec![(VId(0), VId(1)), (VId(1), VId(2))];
        let engine = GrapeEngine::from_edges(3, &edges, 2);
        let got = pagerank(&engine, 0.85, 40);
        let want = reference::pagerank(3, &edges, 0.85, 40);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
        let total: f64 = got.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass conserved: {total}");
    }

    #[test]
    fn matches_reference_on_random_graph() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(31);
        let n = 300;
        let edges: Vec<(VId, VId)> = (0..1500)
            .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
            .collect();
        let engine = GrapeEngine::from_edges(n as usize, &edges, 4);
        let got = pagerank(&engine, 0.85, 20);
        let want = reference::pagerank(n as usize, &edges, 0.85, 20);
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    /// Pins the f64 fold order at one fragment: a seeded graph's ranks,
    /// bit pattern by bit pattern, hash to the digest the per-message
    /// implementation (every edge encoded and decoded through the message
    /// buffers) produced. Any reordering of the additions changes it.
    #[test]
    fn single_fragment_ranks_match_recorded_bit_digest() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(0x5EED_0023);
        let n = 2_000u64;
        let edges: Vec<(VId, VId)> = (0..12_000)
            .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
            .collect();
        let engine = GrapeEngine::from_edges(n as usize, &edges, 1);
        let ranks = pagerank(&engine, 0.85, 20);
        // FNV-1a over each rank's little-endian bit pattern
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &ranks {
            for b in r.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x9110_759c_ebb4_72e0, "k=1 PageRank fold order changed");
    }
}
