//! Distributed BFS (Pregel model): frontier expansion with depth messages.

use crate::engine::{run_pregel, GrapeEngine, PregelContext, PregelProgram};
use gs_graph::VId;

struct Bfs {
    src: VId,
}

impl PregelProgram for Bfs {
    type Msg = u64;
    type Value = u64; // depth; u64::MAX = unreached

    fn init(&self, _g: VId, _f: &crate::fragment::Fragment) -> u64 {
        u64::MAX
    }

    fn compute(
        &self,
        step: usize,
        local: u32,
        value: &mut u64,
        msgs: &[u64],
        ctx: &mut PregelContext<'_, u64>,
    ) -> bool {
        let incoming = if step == 0 {
            if ctx.frag.global(local) == self.src {
                Some(0)
            } else {
                None
            }
        } else {
            msgs.iter().copied().min()
        };
        if let Some(d) = incoming {
            if d < *value {
                *value = d;
                ctx.send_to_out_neighbors(local, d + 1);
            }
        }
        false
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// BFS depths from `src` (u64::MAX when unreachable), indexed by global id.
pub fn bfs(engine: &GrapeEngine, src: VId) -> Vec<u64> {
    run_pregel(engine, &Bfs { src }, engine.global_n() + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;

    #[test]
    fn matches_reference_on_chain_with_branch() {
        let edges = vec![
            (VId(0), VId(1)),
            (VId(1), VId(2)),
            (VId(2), VId(3)),
            (VId(0), VId(4)),
            (VId(4), VId(3)),
            // vertex 5 unreachable
            (VId(5), VId(0)),
        ];
        for k in [1, 2, 3] {
            let engine = GrapeEngine::from_edges(6, &edges, k);
            let got = bfs(&engine, VId(0));
            let want = reference::bfs(6, &edges, VId(0));
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn unreachable_stays_max() {
        let edges = vec![(VId(0), VId(1))];
        let engine = GrapeEngine::from_edges(3, &edges, 2);
        let got = bfs(&engine, VId(0));
        assert_eq!(got, vec![0, 1, u64::MAX]);
    }

    #[test]
    fn random_graph_matches_reference() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(77);
        let n = 200u64;
        let edges: Vec<(VId, VId)> = (0..800)
            .map(|_| (VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n))))
            .collect();
        let engine = GrapeEngine::from_edges(n as usize, &edges, 4);
        assert_eq!(
            bfs(&engine, VId(0)),
            reference::bfs(n as usize, &edges, VId(0))
        );
    }
}
