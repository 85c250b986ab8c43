//! Weakly connected components: min-label propagation (Pregel model).
//! Expects a symmetrized edge list (Graphalytics preprocessing).

use crate::engine::{run_pregel, GrapeEngine, PregelContext, PregelProgram};
use gs_graph::VId;

struct Wcc;

impl PregelProgram for Wcc {
    type Msg = u64;
    type Value = u64;

    fn init(&self, g: VId, _f: &crate::fragment::Fragment) -> u64 {
        g.0
    }

    fn compute(
        &self,
        step: usize,
        local: u32,
        value: &mut u64,
        msgs: &[u64],
        ctx: &mut PregelContext<'_, u64>,
    ) -> bool {
        let mut best = *value;
        for &m in msgs {
            best = best.min(m);
        }
        if step == 0 || best < *value {
            *value = best;
            ctx.send_to_out_neighbors(local, best);
        }
        false
    }

    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Component labels (min global id per component), indexed by global id.
pub fn wcc(engine: &GrapeEngine) -> Vec<u64> {
    run_pregel(engine, &Wcc, engine.global_n() + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference;
    use gs_graph::edgelist::EdgeList;

    #[test]
    fn matches_union_find_on_random_graph() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(13);
        let n = 200u64;
        let mut el = EdgeList::new(n as usize);
        for _ in 0..300 {
            el.push(VId(rng.gen_range(0..n)), VId(rng.gen_range(0..n)));
        }
        el.symmetrize();
        for k in [1, 2, 4] {
            let engine = GrapeEngine::from_edges(n as usize, el.edges(), k);
            let got = wcc(&engine);
            let want = reference::wcc(n as usize, el.edges());
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn isolated_vertices_are_their_own_component() {
        let el = EdgeList::new(5);
        let engine = GrapeEngine::from_edges(5, el.edges(), 2);
        assert_eq!(wcc(&engine), vec![0, 1, 2, 3, 4]);
    }
}
