//! GLogue-style cost-based pattern ordering (§5.2, building on GLogS).
//!
//! Plan cost is the sum of estimated intermediate result sizes, exactly
//! as the paper defines it; [`cbo_order`] picks the greedy minimum-cost
//! expansion order. The statistics are `gs_ir::cost::CostStats` (exact
//! label cardinalities, per-edge-label average degrees — the frequency of
//! 2-vertex patterns — and sampled property distinct counts), and every
//! estimate comes from the same selectivity estimator and defaults that
//! `gs_ir::cost::cost_physical` prices plans with, so the optimizer
//! searches with the model the cost analysis measures.

use gs_graph::LabelId;
use gs_grin::Direction;
use gs_ir::cost::{CostStats, DEFAULT_FANOUT, DEFAULT_LABEL_COUNT};
use gs_ir::{Pattern, PatternVertex};

/// Estimated fraction of a pattern vertex's label its predicate keeps.
fn selectivity(pv: &PatternVertex, stats: &CostStats) -> f64 {
    pv.predicate
        .as_ref()
        .map_or(1.0, |p| stats.selectivity(p).0)
}

/// Average fan-out of expanding an edge label in a direction.
fn fanout(stats: &CostStats, elabel: LabelId, dir: Direction) -> f64 {
    stats
        .fanout_avg(elabel, dir)
        .unwrap_or(DEFAULT_FANOUT)
        .max(0.01)
}

/// Estimated rows of scanning pattern vertex `vi` on its own: the same
/// number `cost_physical` gives the Scan that anchors it.
fn vertex_base_cost(pattern: &Pattern, stats: &CostStats, vi: usize) -> f64 {
    let pv = &pattern.vertices[vi];
    stats.label_count(pv.label).unwrap_or(DEFAULT_LABEL_COUNT) * selectivity(pv, stats)
}

/// Estimated cost of visiting a pattern in a given `order`: the sum of
/// intermediate frontier sizes, exactly the objective [`cbo_order`]
/// greedily minimises step by step (the paper's plan cost). Shared by the
/// greedy-vs-exhaustive comparison test.
pub fn order_cost(pattern: &Pattern, order: &[usize], stats: &CostStats) -> f64 {
    let mut visited = vec![false; pattern.vertices.len()];
    let mut frontier = 1.0f64;
    let mut total = 0.0f64;
    for &vi in order {
        let sel = selectivity(&pattern.vertices[vi], stats);
        // cheapest edge connecting vi to the visited frontier, if any
        let cheapest = pattern
            .incident(vi)
            .into_iter()
            .filter(|&(_, _, other)| visited[other])
            .map(|(ei, dir_from_vi, _)| {
                let dir = match dir_from_vi {
                    Direction::Out => Direction::In,
                    Direction::In => Direction::Out,
                    Direction::Both => Direction::Both,
                };
                fanout(stats, pattern.edges[ei].label, dir)
            })
            .min_by(f64::total_cmp);
        frontier = match cheapest {
            Some(f) => (frontier * f * sel).max(1.0),
            // disconnected (or anchor): cross-product with a fresh scan
            None => (frontier * vertex_base_cost(pattern, stats, vi).max(1.0)).max(1.0),
        };
        visited[vi] = true;
        total += frontier;
    }
    total
}

/// Picks a pattern visit order by greedy cost minimisation: the anchor is
/// the vertex with the smallest (cardinality × selectivity); each step
/// extends with the incident edge minimising the running intermediate size;
/// closing edges (to already-visited vertices) are free wins and applied
/// implicitly by `compile_pattern`.
pub fn cbo_order(pattern: &Pattern, stats: &CostStats) -> Vec<usize> {
    let n = pattern.vertices.len();
    if n == 0 {
        return Vec::new();
    }
    let base_cost = |vi: usize| vertex_base_cost(pattern, stats, vi);
    let anchor = (0..n)
        .min_by(|&a, &b| base_cost(a).partial_cmp(&base_cost(b)).unwrap())
        .unwrap();
    let mut order = vec![anchor];
    let mut visited = vec![false; n];
    visited[anchor] = true;
    let mut frontier_size = base_cost(anchor).max(1.0);

    while order.len() < n {
        // candidate extensions: unvisited vertices adjacent to visited ones
        let mut best: Option<(usize, f64)> = None;
        for vi in 0..n {
            if visited[vi] {
                continue;
            }
            for (ei, dir_from_vi, other) in pattern.incident(vi) {
                if !visited[other] {
                    continue;
                }
                let pe = &pattern.edges[ei];
                // expanding from `other` to `vi`: invert direction
                let dir = match dir_from_vi {
                    Direction::Out => Direction::In,
                    Direction::In => Direction::Out,
                    Direction::Both => Direction::Both,
                };
                let est = frontier_size
                    * fanout(stats, pe.label, dir)
                    * selectivity(&pattern.vertices[vi], stats);
                if best.is_none_or(|(_, c)| est < c) {
                    best = Some((vi, est));
                }
            }
        }
        match best {
            Some((vi, est)) => {
                visited[vi] = true;
                order.push(vi);
                frontier_size = est.max(1.0);
            }
            None => {
                // disconnected remainder: anchor the cheapest unvisited
                let vi = (0..n)
                    .filter(|&v| !visited[v])
                    .min_by(|&a, &b| base_cost(a).partial_cmp(&base_cost(b)).unwrap())
                    .unwrap();
                visited[vi] = true;
                order.push(vi);
                frontier_size *= base_cost(vi).max(1.0);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::{PropId, Value};
    use gs_grin::graph::mock::MockGraph;
    use gs_grin::GrinGraph;
    use gs_ir::cost::{cost_physical, CostBudget};
    use gs_ir::expr::{BinOp, Expr};
    use gs_ir::physical::PhysicalOp;

    fn catalog() -> CostStats {
        // star: vertex 0 has high out-degree
        let edges: Vec<(u64, u64, f64)> = (1..100).map(|i| (0u64, i, 1.0)).collect();
        let g = MockGraph::new(100, &edges);
        CostStats::build(&g, 50)
    }

    #[test]
    fn cbo_anchors_on_selective_vertex() {
        let c = catalog();
        // pattern: (a)-->(b) with an id-equality predicate on b
        let mut p = Pattern::new();
        let a = p.add_vertex("a", LabelId(0));
        let b = p.add_vertex("b", LabelId(0));
        p.add_edge(None, LabelId(0), a, b);
        p.and_vertex_predicate(
            b,
            Expr::bin(
                BinOp::Eq,
                Expr::VertexId {
                    col: 0,
                    label: LabelId(0),
                },
                Expr::Const(Value::Int(7)),
            ),
        );
        let order = cbo_order(&p, &c);
        assert_eq!(order, vec![b, a], "anchor should be the selective vertex");
    }

    /// The CBO and the cost analysis read one model: `tag IN [1, 2]` keeps
    /// twice the rows of `tag = 1` in both, and the anchor's base estimate
    /// is the estimate `cost_physical` gives the Scan that anchors it.
    #[test]
    fn cbo_and_cost_analysis_share_one_estimate() {
        let mut g = MockGraph::new(100, &[]);
        for i in 0..100 {
            g.set_tag(gs_graph::VId(i), (i % 10) as i64);
        }
        let stats = CostStats::build(&g, 100);
        let tag = || Expr::VertexProp {
            col: 0,
            label: LabelId(0),
            prop: PropId(0),
        };
        let eq = Expr::bin(BinOp::Eq, tag(), Expr::Const(Value::Int(1)));
        let in2 = Expr::In {
            expr: Box::new(tag()),
            list: Box::new(Expr::Const(Value::List(vec![Value::Int(1), Value::Int(2)]))),
        };
        let estimates = |pred: Expr| {
            let mut p = Pattern::new();
            let a = p.add_vertex("a", LabelId(0));
            p.and_vertex_predicate(a, pred);
            let cbo = vertex_base_cost(&p, &stats, a);
            let plan = gs_ir::PlanBuilder::new(g.schema())
                .match_pattern(p)
                .unwrap()
                .build();
            let physical = crate::Optimizer::new(stats.clone())
                .optimize(&plan)
                .unwrap();
            assert!(matches!(physical.ops[0], PhysicalOp::Scan { .. }));
            let cost = cost_physical(&physical, Some(&stats), &CostBudget::default());
            (cbo, cost.per_op[0].est_rows)
        };
        let (cbo_eq, cost_eq) = estimates(eq);
        let (cbo_in, cost_in) = estimates(in2);
        assert!((cbo_eq - 10.0).abs() < 1e-9, "{cbo_eq}");
        assert!((cbo_in - 2.0 * cbo_eq).abs() < 1e-9, "{cbo_in} vs {cbo_eq}");
        assert!(
            (cost_in - 2.0 * cost_eq).abs() < 1e-9,
            "{cost_in} vs {cost_eq}"
        );
        assert_eq!(cbo_eq, cost_eq);
        assert_eq!(cbo_in, cost_in);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for i in 0..=p.len() {
                let mut q = p.clone();
                q.insert(i, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn greedy_order_is_near_optimal_on_small_patterns() {
        let c = catalog();
        let selective = |p: &mut Pattern, v: usize| {
            p.and_vertex_predicate(
                v,
                Expr::bin(
                    BinOp::Eq,
                    Expr::VertexId {
                        col: 0,
                        label: LabelId(0),
                    },
                    Expr::Const(Value::Int(7)),
                ),
            )
        };
        // a small zoo of ≤4-vertex patterns: chain, triangle, star, square
        let mut patterns = Vec::new();
        let mut chain = Pattern::new();
        let (a, b, d) = (
            chain.add_vertex("a", LabelId(0)),
            chain.add_vertex("b", LabelId(0)),
            chain.add_vertex("c", LabelId(0)),
        );
        chain.add_edge(None, LabelId(0), a, b);
        chain.add_edge(None, LabelId(0), b, d);
        selective(&mut chain, d);
        patterns.push(chain);
        let mut tri = Pattern::new();
        let (a, b, d) = (
            tri.add_vertex("a", LabelId(0)),
            tri.add_vertex("b", LabelId(0)),
            tri.add_vertex("c", LabelId(0)),
        );
        tri.add_edge(None, LabelId(0), a, b);
        tri.add_edge(None, LabelId(0), b, d);
        tri.add_edge(None, LabelId(0), a, d);
        patterns.push(tri);
        let mut star = Pattern::new();
        let hub = star.add_vertex("h", LabelId(0));
        for name in ["x", "y", "z"] {
            let v = star.add_vertex(name, LabelId(0));
            star.add_edge(None, LabelId(0), hub, v);
        }
        selective(&mut star, hub);
        patterns.push(star);
        let mut square = Pattern::new();
        let vs: Vec<usize> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| square.add_vertex(n, LabelId(0)))
            .collect();
        for i in 0..4 {
            square.add_edge(None, LabelId(0), vs[i], vs[(i + 1) % 4]);
        }
        selective(&mut square, vs[2]);
        patterns.push(square);

        for p in &patterns {
            let greedy = cbo_order(p, &c);
            let greedy_cost = order_cost(p, &greedy, &c);
            let best = permutations(p.vertices.len())
                .iter()
                .map(|o| order_cost(p, o, &c))
                .fold(f64::INFINITY, f64::min);
            assert!(
                greedy_cost <= 2.0 * best,
                "greedy {greedy_cost} vs optimal {best} on {:?}",
                p.vertices.iter().map(|v| &v.alias).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cbo_order_is_a_permutation() {
        let c = catalog();
        let mut p = Pattern::new();
        let a = p.add_vertex("a", LabelId(0));
        let b = p.add_vertex("b", LabelId(0));
        let d = p.add_vertex("d", LabelId(0));
        p.add_edge(None, LabelId(0), a, b);
        p.add_edge(None, LabelId(0), b, d);
        p.add_edge(None, LabelId(0), a, d);
        let mut order = cbo_order(&p, &c);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
