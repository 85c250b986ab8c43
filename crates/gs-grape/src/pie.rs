//! The PIE (Partial evaluation / Incremental Evaluation) model.
//!
//! PIE [TODS'18, §6 of the paper] is subgraph-centric: a program first runs
//! a *partial evaluation* over its whole fragment as if the fragment were
//! the entire graph, then repeatedly *incrementally evaluates* against
//! messages from other fragments until a global fixpoint. GRAPE's claim is
//! that this auto-parallelizes sequential algorithms: both callbacks can be
//! plain sequential code over the fragment.

use crate::engine::GrapeEngine;
use crate::fragment::Fragment;
use crate::messages::{OutBuffers, Payload};
use gs_graph::VId;

/// A PIE program over per-fragment state `Self::State`.
pub trait PieProgram: Sync {
    /// Cross-fragment message payload.
    type Msg: Payload;
    /// Per-fragment state.
    type State: Send;
    /// Per-vertex output value.
    type Out: Clone + Default + Send + 'static;

    /// Fresh state for a fragment.
    fn init(&self, frag: &Fragment) -> Self::State;

    /// Sequential evaluation over the whole fragment; sends updates for
    /// border vertices through `ctx`.
    fn partial_eval(
        &self,
        frag: &Fragment,
        state: &mut Self::State,
        ctx: &mut PieContext<'_, Self::Msg>,
    );

    /// Incremental evaluation against messages received since the last
    /// round, each addressed to an inner vertex by its local id; sends
    /// further updates through `ctx`.
    fn inc_eval(
        &self,
        frag: &Fragment,
        state: &mut Self::State,
        msgs: &[(u32, Self::Msg)],
        ctx: &mut PieContext<'_, Self::Msg>,
    );

    /// Extracts per-inner-vertex outputs once converged.
    fn collect(&self, frag: &Fragment, state: &Self::State) -> Vec<(VId, Self::Out)>;
}

/// Message-sending context for PIE callbacks.
pub struct PieContext<'a, M: Payload> {
    frag: &'a Fragment,
    out: &'a mut OutBuffers,
    _marker: std::marker::PhantomData<M>,
}

impl<'a, M: Payload> PieContext<'a, M> {
    /// Sends a message about local vertex `l` to its owner: a mirror's
    /// update travels to the fragment that owns it, an inner vertex's to
    /// this fragment's own next round.
    #[inline]
    pub fn send(&mut self, l: u32, msg: M) {
        let (to, lid) = self.frag.route(l);
        self.out.send(to, lid, msg);
    }
}

/// Runs a PIE program: one partial evaluation, then incremental rounds
/// until no messages flow (or `max_rounds`).
pub fn run_pie<P: PieProgram>(engine: &GrapeEngine, program: &P, max_rounds: usize) -> Vec<P::Out> {
    engine.run(|frag, comm| {
        let mut state = program.init(frag);
        let mut out = OutBuffers::new(comm.workers);
        {
            let mut ctx = PieContext {
                frag,
                out: &mut out,
                _marker: std::marker::PhantomData,
            };
            program.partial_eval(frag, &mut state, &mut ctx);
        }
        for _ in 0..max_rounds {
            let sent = out.total();
            let (blocks, _) = comm.exchange(&mut out);
            let global_sent = comm.allreduce(sent);
            if global_sent == 0 {
                break;
            }
            let mut msgs: Vec<(u32, P::Msg)> = Vec::new();
            for b in &blocks {
                b.for_each::<P::Msg>(|l, m| msgs.push((l, m)));
            }
            let mut ctx = PieContext {
                frag,
                out: &mut out,
                _marker: std::marker::PhantomData,
            };
            program.inc_eval(frag, &mut state, &msgs, &mut ctx);
        }
        program.collect(frag, &state)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequential WCC inside a fragment + incremental border updates: the
    /// canonical PIE example from the GRAPE paper.
    struct PieWcc;

    struct WccState {
        label: Vec<u64>, // per local vertex
    }

    fn local_propagate(frag: &Fragment, label: &mut [u64]) -> Vec<u32> {
        // sequential pointer-jump propagation until stable; returns local
        // ids whose labels changed
        let mut changed_any = true;
        let mut touched = vec![false; frag.local_count()];
        while changed_any {
            changed_any = false;
            for l in 0..frag.inner_count as u32 {
                frag.for_each_out(l, |nbr, _| {
                    let (a, b) = (l as usize, nbr.index());
                    let m = label[a].min(label[b]);
                    if label[a] != m {
                        label[a] = m;
                        touched[a] = true;
                        changed_any = true;
                    }
                    if label[b] != m {
                        label[b] = m;
                        touched[b] = true;
                        changed_any = true;
                    }
                });
            }
        }
        (0..frag.local_count() as u32)
            .filter(|&l| touched[l as usize])
            .collect()
    }

    impl PieProgram for PieWcc {
        type Msg = u64;
        type State = WccState;
        type Out = u64;

        fn init(&self, frag: &Fragment) -> WccState {
            WccState {
                label: (0..frag.local_count() as u32)
                    .map(|l| frag.global(l).0)
                    .collect(),
            }
        }

        fn partial_eval(
            &self,
            frag: &Fragment,
            state: &mut WccState,
            ctx: &mut PieContext<'_, u64>,
        ) {
            let changed = local_propagate(frag, &mut state.label);
            for l in changed {
                if !frag.is_inner(l) {
                    ctx.send(l, state.label[l as usize]);
                } else {
                    // inner border vertices: their mirrors elsewhere need it;
                    // we simply broadcast to the owner of each outer copy via
                    // neighbors — handled next round through outer sends.
                }
            }
            // also push inner labels to mirrors: mirrors live on THIS
            // fragment as outer; other fragments have mirrors of OUR inner
            // vertices only if they have edges to them — they will learn via
            // their own outer sends, so nothing more to do here.
            let _ = frag;
        }

        fn inc_eval(
            &self,
            frag: &Fragment,
            state: &mut WccState,
            msgs: &[(u32, u64)],
            ctx: &mut PieContext<'_, u64>,
        ) {
            let mut dirty = false;
            for &(l, m) in msgs {
                if m < state.label[l as usize] {
                    state.label[l as usize] = m;
                    dirty = true;
                }
            }
            if dirty {
                let changed = local_propagate(frag, &mut state.label);
                for l in changed {
                    if !frag.is_inner(l) {
                        ctx.send(l, state.label[l as usize]);
                    }
                }
            }
        }

        fn collect(&self, frag: &Fragment, state: &WccState) -> Vec<(VId, u64)> {
            (0..frag.inner_count as u32)
                .map(|l| (frag.global(l), state.label[l as usize]))
                .collect()
        }
    }

    #[test]
    fn pie_wcc_on_two_components() {
        // component A: 0..10 chain (symmetrized); component B: 10..15 chain
        let mut edges = Vec::new();
        for i in 0..9u64 {
            edges.push((VId(i), VId(i + 1)));
            edges.push((VId(i + 1), VId(i)));
        }
        for i in 10..14u64 {
            edges.push((VId(i), VId(i + 1)));
            edges.push((VId(i + 1), VId(i)));
        }
        for k in [1, 2, 4] {
            let engine = GrapeEngine::from_edges(15, &edges, k);
            let labels = run_pie(&engine, &PieWcc, 100);
            assert!(labels[..10].iter().all(|&l| l == 0), "k={k} {labels:?}");
            assert!(labels[10..].iter().all(|&l| l == 10), "k={k} {labels:?}");
        }
    }
}
