//! LDBC SNB workloads (lite): the interactive (Fig. 7f) and BI (Fig. 7g)
//! query sets plus the storage backends they run on.

pub mod backend;
pub mod bi;
pub mod interactive;

pub use backend::{FlexBackend, SnbBackend, TuBackend};
pub use bi::{bi_plan, BiParams, BI_COUNT};
pub use interactive::{Params, Rows, COMPLEX_QUERIES, SHORT_QUERIES};

#[cfg(test)]
mod tests {
    use super::*;
    use gs_datagen::snb::{generate, SnbConfig};
    use gs_gaia::GaiaEngine;
    use gs_ir::cost::CostStats;
    use gs_ir::exec::execute;
    use gs_ir::physical::lower_naive;
    use gs_optimizer::Optimizer;
    use gs_vineyard::VineyardGraph;
    use interactive::{canonical, UpdateIds};

    fn small_graph() -> gs_datagen::snb::SnbGraph {
        generate(&SnbConfig::lite(120))
    }

    /// Every complex + short query must return identical results on the
    /// Flex (GART) and TuGraph-like backends.
    #[test]
    fn interactive_queries_agree_across_backends() {
        let g = small_graph();
        let flex = FlexBackend::load(&g).unwrap();
        let tu = TuBackend::load(&g).unwrap();
        backend::validate_backend_pair(&flex, &tu).unwrap();
        let mut params = Params::example();
        params.person = 3;
        params.person2 = 77;
        for (name, q) in COMPLEX_QUERIES.iter().chain(SHORT_QUERIES.iter()) {
            let a = canonical(q(&flex, &params));
            let b = canonical(q(&tu, &params));
            assert_eq!(a, b, "query {name} diverged");
        }
    }

    /// Updates must be visible to subsequent reads on both backends.
    #[test]
    fn updates_apply_on_both_backends() {
        let g = small_graph();
        let flex = FlexBackend::load(&g).unwrap();
        let tu = TuBackend::load(&g).unwrap();
        for b in [&flex as &dyn SnbBackend, &tu as &dyn SnbBackend] {
            let mut ids = UpdateIds {
                next_person: 1_000_000,
                next_post: 1_000_000,
                next_comment: 1_000_000,
                next_forum: 1_000_000,
            };
            let p = interactive::iu1(b, &mut ids, 15400).unwrap();
            interactive::iu8(b, p, 0, 15401).unwrap();
            assert!(b.friends(p).contains(&0), "new friendship visible");
            let f = interactive::iu4(b, &mut ids, 15400).unwrap();
            interactive::iu5(b, f, p, 15402).unwrap();
            let post = interactive::iu6(b, &mut ids, p, f, 15403).unwrap();
            let c = interactive::iu7(b, &mut ids, 0, post, 15404).unwrap();
            interactive::iu2(b, 0, post, 15405).unwrap();
            interactive::iu3(b, p, 2).unwrap();
            assert_eq!(b.post_creator(post), Some(p));
            assert_eq!(b.replies_of_post(post), vec![c]);
            assert_eq!(b.likes_of_post(post), vec![(0, 15405)]);
            assert!(b.interests(p).contains(&2));
        }
    }

    /// All 20 BI plans compile, optimize, and give identical results on the
    /// Gaia engine (optimized, parallel) and the reference executor (naive
    /// plan, single-threaded) — the two sides of Fig. 7(g).
    #[test]
    fn bi_queries_agree_between_gaia_and_reference() {
        let g = small_graph();
        let store = VineyardGraph::build(&g.data).unwrap();
        let schema = g.data.schema.clone();
        let catalog = CostStats::build(&store, 200);
        let optimizer = Optimizer::new(catalog);
        let gaia = GaiaEngine::new(4);
        let params = BiParams::default();
        for n in 1..=BI_COUNT {
            let plan = bi_plan(n, &schema, &g.labels, &params)
                .unwrap_or_else(|e| panic!("BI{n} build: {e}"));
            let optimized = optimizer
                .optimize(&plan)
                .unwrap_or_else(|e| panic!("BI{n} optimize: {e}"));
            let fast = gaia
                .execute(&optimized, &store)
                .unwrap_or_else(|e| panic!("BI{n} gaia: {e}"));
            let naive = lower_naive(&plan).unwrap();
            let slow = execute(&naive, &store).unwrap_or_else(|e| panic!("BI{n} ref: {e}"));
            assert_eq!(canonical(fast), canonical(slow), "BI{n} results diverged");
        }
    }
}
