//! Community detection by label propagation (CDLP, Graphalytics variant):
//! each round every vertex adopts the most frequent label among its
//! neighbours (ties → smallest label). Fixed round count; expects a
//! symmetrized edge list.

use crate::engine::GrapeEngine;
use crate::messages::OutBuffers;
use std::collections::HashMap;

/// CDLP labels after `rounds` iterations, indexed by global id.
pub fn cdlp(engine: &GrapeEngine, rounds: usize) -> Vec<u64> {
    engine.run(|frag, comm| {
        let inner = frag.inner_count;
        let mut label: Vec<u64> = (0..inner as u32).map(|l| frag.global(l).0).collect();
        let mut out = OutBuffers::new(comm.workers);
        for _ in 0..rounds {
            // inner neighbours count the label in place; mirrors ship it
            let mut freq: Vec<HashMap<u64, u32>> = vec![HashMap::new(); inner];
            for l in 0..inner as u32 {
                let lab = label[l as usize];
                frag.for_each_out(l, |nbr, _| {
                    if frag.is_inner(nbr.0 as u32) {
                        *freq[nbr.index()].entry(lab).or_insert(0) += 1;
                    } else {
                        let (to, lid) = frag.route(nbr.0 as u32);
                        out.send(to, lid, lab);
                    }
                });
            }
            let (blocks, _) = comm.exchange(&mut out);
            for b in &blocks {
                b.for_each::<u64>(|l, lab| *freq[l as usize].entry(lab).or_insert(0) += 1);
            }
            for l in 0..inner {
                if freq[l].is_empty() {
                    continue;
                }
                // most frequent; ties broken by smallest label
                let best = freq[l]
                    .iter()
                    .map(|(&lab, &c)| (std::cmp::Reverse(c), lab))
                    .min()
                    .map(|(_, lab)| lab)
                    .unwrap();
                label[l] = best;
            }
        }
        (0..inner as u32)
            .map(|l| (frag.global(l), label[l as usize]))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::edgelist::EdgeList;
    use gs_graph::VId;

    /// Two dense cliques joined by one bridge edge: CDLP must separate them.
    #[test]
    fn separates_two_cliques() {
        let mut el = EdgeList::new(10);
        for i in 0..5u64 {
            for j in 0..5u64 {
                if i != j {
                    el.push(VId(i), VId(j));
                }
            }
        }
        for i in 5..10u64 {
            for j in 5..10u64 {
                if i != j {
                    el.push(VId(i), VId(j));
                }
            }
        }
        el.push(VId(4), VId(5));
        el.push(VId(5), VId(4));
        for k in [1, 3] {
            let engine = GrapeEngine::from_edges(10, el.edges(), k);
            let labels = cdlp(&engine, 10);
            assert!(
                labels[..5].iter().all(|&l| l == labels[0]),
                "k={k} {labels:?}"
            );
            assert!(
                labels[5..].iter().all(|&l| l == labels[5]),
                "k={k} {labels:?}"
            );
            assert_ne!(labels[0], labels[5], "k={k} {labels:?}");
        }
    }

    #[test]
    fn partition_count_does_not_change_result() {
        use rand::Rng;
        let mut rng = rand_pcg::Pcg64Mcg::new(3);
        let mut el = EdgeList::new(60);
        for _ in 0..200 {
            el.push(VId(rng.gen_range(0..60)), VId(rng.gen_range(0..60)));
        }
        el.symmetrize();
        let one = cdlp(&GrapeEngine::from_edges(60, el.edges(), 1), 5);
        let four = cdlp(&GrapeEngine::from_edges(60, el.edges(), 4), 5);
        assert_eq!(one, four);
    }
}
