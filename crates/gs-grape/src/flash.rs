//! The FLASH model: vertex-subset-centric programming with flexible control
//! flow and non-neighbor communication (paper §6, after FLASH [ICDE'23]).
//!
//! A FLASH program is ordinary sequential Rust driving *collective*
//! primitives over a distributed [`VertexSubset`]: `vertex_map` transforms,
//! `edge_map` pushes along edges, `size` is a global count — and, beyond
//! fixed-point vertex-centric models, [`FlashContext::send`] can message
//! *any* vertex, with [`FlashContext::deliver`] as the matching collective
//! receive. Programs run SPMD: every fragment's worker executes the same
//! control flow, so collectives must be invoked the same number of times on
//! every worker.

use crate::engine::{CommHandle, GrapeEngine};
use crate::fragment::Fragment;
use crate::messages::{OutBuffers, Payload};
use gs_graph::VId;

/// A distributed vertex subset: a bitset over this fragment's inner
/// vertices (each fragment holds its share).
#[derive(Clone, Debug)]
pub struct VertexSubset {
    bits: Vec<bool>,
}

impl VertexSubset {
    /// All inner vertices.
    pub fn full(frag: &Fragment) -> Self {
        Self {
            bits: vec![true; frag.inner_count],
        }
    }

    /// Empty subset.
    pub fn empty(frag: &Fragment) -> Self {
        Self {
            bits: vec![false; frag.inner_count],
        }
    }

    /// Membership of a local inner vertex.
    #[inline]
    pub fn contains(&self, l: u32) -> bool {
        self.bits.get(l as usize).copied().unwrap_or(false)
    }

    /// Adds / removes a local inner vertex.
    #[inline]
    pub fn set(&mut self, l: u32, member: bool) {
        self.bits[l as usize] = member;
    }

    /// Local member count.
    pub fn local_size(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Iterates local member ids.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
    }
}

/// Per-worker FLASH execution context.
pub struct FlashContext<'a> {
    pub frag: &'a Fragment,
    comm: &'a CommHandle,
    out: OutBuffers,
}

impl<'a> FlashContext<'a> {
    /// Global size of a subset (collective).
    pub fn size(&self, subset: &VertexSubset) -> u64 {
        self.comm.allreduce(subset.local_size() as u64)
    }

    /// Filters/updates members sequentially on each fragment: keep vertices
    /// where `f` returns true.
    pub fn vertex_filter(
        &self,
        subset: &VertexSubset,
        mut f: impl FnMut(u32) -> bool,
    ) -> VertexSubset {
        let mut out = VertexSubset::empty(self.frag);
        for l in subset.iter() {
            if f(l) {
                out.set(l, true);
            }
        }
        out
    }

    /// Queues a message to any vertex by global id (non-neighbor
    /// communication — FLASH's differentiator).
    #[inline]
    pub fn send<M: Payload>(&mut self, target: VId, msg: M) {
        let (to, lid) = self.frag.route_global(target);
        self.out.send(to, lid, msg);
    }

    /// Pushes `f(src_local, dst_global)`-generated messages along the out
    /// edges of every subset member, then delivers (collective). Returns
    /// received `(local inner id, msg)` pairs.
    pub fn edge_map<M: Payload>(
        &mut self,
        subset: &VertexSubset,
        mut f: impl FnMut(u32, VId) -> Option<M>,
    ) -> Vec<(u32, M)> {
        let frag = self.frag;
        let out = &mut self.out;
        for l in subset.iter() {
            frag.for_each_out(l, |nbr, _| {
                if let Some(m) = f(l, frag.global(nbr.0 as u32)) {
                    let (to, lid) = frag.route(nbr.0 as u32);
                    out.send(to, lid, m);
                }
            });
        }
        self.deliver()
    }

    /// Collective exchange of queued messages; returns `(local inner id,
    /// msg)` pairs (senders address owners by their local ids).
    pub fn deliver<M: Payload>(&mut self) -> Vec<(u32, M)> {
        let (blocks, _) = self.comm.exchange(&mut self.out);
        let mut out = Vec::new();
        for b in &blocks {
            b.for_each::<M>(|l, m| out.push((l, m)));
        }
        out
    }
}

/// Runs a FLASH program (SPMD closure per fragment); gathers per-vertex
/// outputs.
pub fn run_flash<T, F>(engine: &GrapeEngine, program: F) -> Vec<T>
where
    T: Clone + Default + Send + 'static,
    F: Fn(&mut FlashContext<'_>) -> Vec<(VId, T)> + Sync,
{
    engine.run(|frag, comm| {
        let mut ctx = FlashContext {
            frag,
            comm,
            out: OutBuffers::new(comm.workers),
        };
        program(&mut ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_global() {
        let edges: Vec<(VId, VId)> = (0..20u64).map(|i| (VId(i), VId((i + 1) % 20))).collect();
        let engine = GrapeEngine::from_edges(20, &edges, 3);
        let out = run_flash(&engine, |ctx| {
            let all = VertexSubset::full(ctx.frag);
            let n = ctx.size(&all);
            assert_eq!(n, 20);
            vec![]
        });
        let _: Vec<u64> = out;
    }

    #[test]
    fn edge_map_reaches_neighbors() {
        // star 0 -> 1..5
        let edges: Vec<(VId, VId)> = (1..6u64).map(|i| (VId(0), VId(i))).collect();
        let engine = GrapeEngine::from_edges(6, &edges, 2);
        let got = run_flash(&engine, |ctx| {
            let all = VertexSubset::full(ctx.frag);
            let received = ctx.edge_map::<u64>(&all, |_, _| Some(7));
            received
                .into_iter()
                .map(|(l, m)| (ctx.frag.global(l), m))
                .collect()
        });
        // vertices 1..5 each received 7; vertex 0 received nothing (default)
        assert_eq!(got[0], 0);
        assert!(got[1..].iter().all(|&m| m == 7), "{got:?}");
    }

    #[test]
    fn non_neighbor_send_works() {
        let edges: Vec<(VId, VId)> = vec![(VId(0), VId(1))];
        let engine = GrapeEngine::from_edges(8, &edges, 4);
        let got = run_flash(&engine, |ctx| {
            // every fragment sends its inner-count to vertex 7 (no edge!)
            let count = ctx.frag.inner_count as u64;
            ctx.send(VId(7), count);
            let received: Vec<(u32, u64)> = ctx.deliver();
            let mut total = 0;
            for (l, m) in received {
                assert_eq!(ctx.frag.global(l), VId(7));
                total += m;
            }
            if total > 0 {
                vec![(VId(7), total)]
            } else {
                vec![]
            }
        });
        assert_eq!(got[7], 8, "vertex 7 collected all inner counts");
    }
}
