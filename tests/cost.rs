//! Soundness of the `gs_ir::cost` abstract interpreter: on seeded R-MAT
//! graphs, the *actual* output cardinality of every operator must fall
//! inside the predicted `[lo, hi]` interval — with real catalog
//! statistics and with none at all (conservative bounds).

use gs_datagen::rmat::{generate, RmatConfig};
use gs_grin::graph::mock::MockGraph;
use gs_grin::Direction;
use gs_ir::cost::{cost_physical, CostBudget};
use gs_ir::exec::execute_traced;
use gs_ir::expr::{BinOp, Expr};
use gs_ir::logical::ProjectItem;
use gs_ir::physical::{ExpandOut, PhysicalOp, PhysicalPlan};
use gs_ir::{AggFunc, CostStats, Layout};
use proptest::prelude::*;

const V: gs_graph::LabelId = gs_graph::LabelId(0);
const E: gs_graph::LabelId = gs_graph::LabelId(0);

/// A seeded R-MAT graph as a MockGraph, tags set so predicates bite.
fn rmat_mock(scale: u32, edge_factor: u32, seed: u64) -> MockGraph {
    let edges = generate(&RmatConfig {
        scale,
        edge_factor,
        seed,
        ..RmatConfig::graph500(scale)
    });
    let triples: Vec<(u64, u64, f64)> = edges
        .edges()
        .iter()
        .map(|&(s, d)| (s.0, d.0, 1.0))
        .collect();
    let mut g = MockGraph::new(edges.vertex_count(), &triples);
    for v in 0..edges.vertex_count() as u64 {
        g.set_tag(gs_graph::VId(v), (v % 5) as i64);
    }
    g
}

fn scan(predicate: Option<Expr>) -> PhysicalOp {
    PhysicalOp::Scan {
        label: V,
        predicate,
        index_lookup: None,
    }
}

fn expand(src_col: usize, dir: Direction) -> PhysicalOp {
    PhysicalOp::Expand {
        src_col,
        src_label: V,
        elabel: E,
        dir,
        predicate: None,
        out: ExpandOut::VertexFused { label: V },
    }
}

fn tag_pred(col: usize) -> Expr {
    Expr::bin(
        BinOp::Eq,
        Expr::VertexProp {
            col,
            label: V,
            prop: gs_graph::PropId(0),
        },
        Expr::Const(gs_graph::Value::Int(2)),
    )
}

/// The plan zoo the soundness property runs over: scans, 1-hop and 2-hop
/// expansions in all directions, predicates, dedup, aggregation, limit.
fn plans() -> Vec<(&'static str, PhysicalPlan)> {
    let plan = |ops: Vec<PhysicalOp>| PhysicalPlan {
        ops,
        layout: Layout::new(),
    };
    vec![
        ("scan", plan(vec![scan(None)])),
        ("scan-filtered", plan(vec![scan(Some(tag_pred(0)))])),
        ("one-hop", plan(vec![scan(None), expand(0, Direction::Out)])),
        (
            "one-hop-in",
            plan(vec![scan(None), expand(0, Direction::In)]),
        ),
        (
            "two-hop-both",
            plan(vec![
                scan(None),
                expand(0, Direction::Both),
                expand(1, Direction::Both),
            ]),
        ),
        (
            "filter-then-expand",
            plan(vec![
                scan(Some(tag_pred(0))),
                expand(0, Direction::Out),
                PhysicalOp::Select {
                    predicate: tag_pred(1),
                },
            ]),
        ),
        (
            "dedup-limit",
            plan(vec![
                scan(None),
                expand(0, Direction::Out),
                PhysicalOp::Dedup { columns: vec![1] },
                PhysicalOp::Limit { n: 5 },
            ]),
        ),
        (
            "count",
            plan(vec![
                scan(None),
                expand(0, Direction::Out),
                PhysicalOp::Project {
                    items: vec![(
                        ProjectItem::Agg(AggFunc::Count, Expr::Column(1)),
                        "n".into(),
                    )],
                },
            ]),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Actual per-op cardinality ∈ predicted `[lo, hi]`, with statistics.
    #[test]
    fn actuals_fall_within_predicted_intervals(seed in 0u64..1000, scale in 3u32..6) {
        let g = rmat_mock(scale, 4, seed);
        let stats = CostStats::build(&g, 64);
        let budget = CostBudget::default();
        for (name, p) in plans() {
            let cost = cost_physical(&p, Some(&stats), &budget);
            let (_, actuals) = execute_traced(&p, &g).unwrap();
            prop_assert_eq!(cost.per_op.len(), actuals.len());
            for (i, actual) in actuals.iter().enumerate() {
                let iv = cost.per_op[i].interval;
                prop_assert!(
                    iv.contains(*actual as f64),
                    "{}[op {i} {}]: actual {} outside [{}, {}] (seed {seed}, scale {scale})",
                    name, p.ops[i].name(), actual, iv.lo, iv.hi
                );
            }
        }
    }

    /// Without a catalog the bounds are conservative but still sound.
    #[test]
    fn conservative_bounds_are_sound_without_statistics(seed in 0u64..200) {
        let g = rmat_mock(4, 4, seed);
        let budget = CostBudget::default();
        for (name, p) in plans() {
            let cost = cost_physical(&p, None, &budget);
            let (_, actuals) = execute_traced(&p, &g).unwrap();
            for (i, actual) in actuals.iter().enumerate() {
                let iv = cost.per_op[i].interval;
                prop_assert!(
                    iv.contains(*actual as f64),
                    "{}[op {i}]: actual {} outside [{}, {}] with no stats",
                    name, actual, iv.lo, iv.hi
                );
            }
        }
    }
}
