//! GLogue-style statistics catalog for cost-based optimization.
//!
//! The paper's CBO (§5.2, building on GLogS) tracks pattern frequencies up
//! to k vertices. We build the degenerate-but-effective core of that: exact
//! label cardinalities, per-edge-label average degrees (the frequency of
//! 2-vertex patterns), and sampled property-value distinct counts for
//! selectivity estimation. Plan cost = the sum of estimated intermediate
//! result sizes, exactly as the paper defines it; [`cbo_order`] picks the
//! greedy minimum-cost expansion order.

use gs_graph::{LabelId, PropId};
use gs_grin::{Direction, GrinGraph};
use gs_ir::cost::{CostStats, EdgeCostStats};
use gs_ir::expr::{BinOp, Expr};
use gs_ir::Pattern;
use std::collections::BTreeMap;

/// Seed used by [`GlogueCatalog::build`]; `build_seeded` takes any.
pub const DEFAULT_SAMPLE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64 — the dependency-free PRNG step used for sampling, so two
/// builds over the same graph are bit-identical for the same seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-edge-label statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeStats {
    pub count: u64,
    /// Average out-degree over *source-label* vertices.
    pub avg_out_degree: f64,
    /// Average in-degree over *destination-label* vertices.
    pub avg_in_degree: f64,
    /// Maximum out-degree over source-label vertices (sound expansion
    /// bound for `gs-ir::cost`).
    pub max_out_degree: u64,
    /// Maximum in-degree over destination-label vertices.
    pub max_in_degree: u64,
}

/// The statistics catalog.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GlogueCatalog {
    /// Vertex count per label.
    pub vertex_counts: Vec<u64>,
    /// Edge stats per edge label.
    pub edge_stats: Vec<EdgeStats>,
    /// Sampled distinct-value counts: (vertex label, prop) → estimated
    /// number of distinct values. Ordered map so accumulation and any
    /// later iteration are independent of hash order (gs-lint L002).
    pub distinct_values: BTreeMap<(u16, u16), u64>,
}

impl GlogueCatalog {
    /// Builds the catalog by scanning counts and sampling up to
    /// `sample_per_label` vertices per label for property statistics,
    /// with the default sampling seed. Deterministic: two builds over the
    /// same graph are equal.
    pub fn build(graph: &dyn GrinGraph, sample_per_label: usize) -> Self {
        Self::build_seeded(graph, sample_per_label, DEFAULT_SAMPLE_SEED)
    }

    /// [`build`](Self::build) with an explicit sampling seed. Sample
    /// positions come from a seeded splitmix64 stream over the label's
    /// id range — never from map iteration order — so the result is a
    /// pure function of `(graph, sample_per_label, seed)`.
    pub fn build_seeded(graph: &dyn GrinGraph, sample_per_label: usize, seed: u64) -> Self {
        let schema = graph.schema();
        let vertex_counts: Vec<u64> = schema
            .vertex_labels()
            .iter()
            .map(|l| graph.vertex_count(l.id) as u64)
            .collect();
        let edge_stats: Vec<EdgeStats> = schema
            .edge_labels()
            .iter()
            .map(|l| {
                let m = graph.edge_count(l.id) as u64;
                let src_n = graph.vertex_count(l.src).max(1) as f64;
                let dst_n = graph.vertex_count(l.dst).max(1) as f64;
                let max_out = graph
                    .vertices(l.src)
                    .map(|v| graph.degree(v, l.src, l.id, Direction::Out))
                    .max()
                    .unwrap_or(0) as u64;
                let max_in = graph
                    .vertices(l.dst)
                    .map(|v| graph.degree(v, l.dst, l.id, Direction::In))
                    .max()
                    .unwrap_or(0) as u64;
                EdgeStats {
                    count: m,
                    avg_out_degree: m as f64 / src_n,
                    avg_in_degree: m as f64 / dst_n,
                    max_out_degree: max_out,
                    max_in_degree: max_in,
                }
            })
            .collect();
        let mut distinct_values = BTreeMap::new();
        for l in schema.vertex_labels() {
            let n = graph.vertex_count(l.id);
            if n == 0 {
                continue;
            }
            let samples = sample_per_label.max(1).min(n);
            for p in &l.properties {
                // per-(label, prop) stream so adding a property never
                // shifts the samples drawn for another
                let mut rng = seed ^ ((l.id.0 as u64) << 32) ^ (p.id.0 as u64);
                let mut seen = std::collections::BTreeSet::new();
                let mut sampled = 0u64;
                for _ in 0..samples {
                    let i = splitmix64(&mut rng) % n as u64;
                    let v = graph.vertex_property(l.id, gs_graph::VId(i), p.id);
                    if !v.is_null() {
                        seen.insert(format!("{v}"));
                    }
                    sampled += 1;
                }
                // scale distinct count up when the sample looks unsaturated
                let distinct = if (seen.len() as u64) < sampled / 2 {
                    seen.len() as u64
                } else {
                    ((seen.len() as f64) * (n.max(1) as f64 / sampled.max(1) as f64)) as u64
                };
                distinct_values.insert((l.id.0, p.id.0), distinct.max(1));
            }
        }
        Self {
            vertex_counts,
            edge_stats,
            distinct_values,
        }
    }

    /// Converts into the dependency-free statistics form `gs-ir::cost`
    /// consumes (gs-ir cannot depend on this crate).
    pub fn to_cost_stats(&self) -> CostStats {
        CostStats {
            vertex_counts: self.vertex_counts.clone(),
            edge_stats: self
                .edge_stats
                .iter()
                .map(|s| EdgeCostStats {
                    count: s.count,
                    avg_out_degree: s.avg_out_degree,
                    avg_in_degree: s.avg_in_degree,
                    max_out_degree: s.max_out_degree,
                    max_in_degree: s.max_in_degree,
                })
                .collect(),
            distinct_values: self.distinct_values.clone(),
        }
    }

    /// Cardinality of a vertex label.
    pub fn label_count(&self, l: LabelId) -> f64 {
        self.vertex_counts.get(l.index()).copied().unwrap_or(1) as f64
    }

    /// Estimated selectivity (0..1] of a pushed-down vertex predicate.
    pub fn vertex_selectivity(&self, label: LabelId, pred: &Expr) -> f64 {
        match pred {
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.vertex_selectivity(label, lhs) * self.vertex_selectivity(label, rhs)
                }
                BinOp::Or => (self.vertex_selectivity(label, lhs)
                    + self.vertex_selectivity(label, rhs))
                .min(1.0),
                BinOp::Eq => {
                    if let Expr::VertexProp { prop, .. } = &**lhs {
                        1.0 / self.distinct(label, *prop) as f64
                    } else if matches!(&**lhs, Expr::VertexId { .. }) {
                        1.0 / self.label_count(label).max(1.0)
                    } else {
                        0.1
                    }
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 0.33,
                BinOp::Ne => 0.9,
                _ => 0.5,
            },
            Expr::In { list, .. } => match list.list_len() {
                Some(len) => (len as f64 / self.label_count(label).max(1.0)).min(1.0),
                None => 0.5,
            },
            _ => 0.5,
        }
    }

    fn distinct(&self, label: LabelId, prop: PropId) -> u64 {
        self.distinct_values
            .get(&(label.0, prop.0))
            .copied()
            .unwrap_or(10)
            .max(1)
    }

    /// Expansion factor of traversing an edge label in a direction.
    pub fn expansion_factor(&self, elabel: LabelId, dir: Direction) -> f64 {
        let s = match self.edge_stats.get(elabel.index()) {
            Some(s) => s,
            None => return 1.0,
        };
        match dir {
            Direction::Out => s.avg_out_degree,
            Direction::In => s.avg_in_degree,
            Direction::Both => s.avg_out_degree + s.avg_in_degree,
        }
    }
}

fn vertex_base_cost(pattern: &Pattern, catalog: &GlogueCatalog, vi: usize) -> f64 {
    let pv = &pattern.vertices[vi];
    let sel = pv
        .predicate
        .as_ref()
        .map(|p| catalog.vertex_selectivity(pv.label, p))
        .unwrap_or(1.0);
    catalog.label_count(pv.label) * sel
}

/// Estimated cost of visiting a pattern in a given `order`: the sum of
/// intermediate frontier sizes, exactly the objective [`cbo_order`]
/// greedily minimises step by step (the paper's plan cost). Shared by the
/// greedy-vs-exhaustive comparison test.
pub fn order_cost(pattern: &Pattern, order: &[usize], catalog: &GlogueCatalog) -> f64 {
    let mut visited = vec![false; pattern.vertices.len()];
    let mut frontier = 1.0f64;
    let mut total = 0.0f64;
    for &vi in order {
        let sel = pattern.vertices[vi]
            .predicate
            .as_ref()
            .map(|p| catalog.vertex_selectivity(pattern.vertices[vi].label, p))
            .unwrap_or(1.0);
        // cheapest edge connecting vi to the visited frontier, if any
        let fanout = pattern
            .incident(vi)
            .into_iter()
            .filter(|&(_, _, other)| visited[other])
            .map(|(ei, dir_from_vi, _)| {
                let dir = match dir_from_vi {
                    Direction::Out => Direction::In,
                    Direction::In => Direction::Out,
                    Direction::Both => Direction::Both,
                };
                catalog
                    .expansion_factor(pattern.edges[ei].label, dir)
                    .max(0.01)
            })
            .min_by(f64::total_cmp);
        frontier = match fanout {
            Some(f) => (frontier * f * sel).max(1.0),
            // disconnected (or anchor): cross-product with a fresh scan
            None => (frontier * vertex_base_cost(pattern, catalog, vi).max(1.0)).max(1.0),
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
pub fn cbo_order(pattern: &Pattern, catalog: &GlogueCatalog) -> Vec<usize> {
    let n = pattern.vertices.len();
    if n == 0 {
        return Vec::new();
    }
    let base_cost = |vi: usize| vertex_base_cost(pattern, catalog, vi);
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
                let fanout = catalog.expansion_factor(pe.label, dir).max(0.01);
                let sel = pattern.vertices[vi]
                    .predicate
                    .as_ref()
                    .map(|p| catalog.vertex_selectivity(pattern.vertices[vi].label, p))
                    .unwrap_or(1.0);
                let est = frontier_size * fanout * sel;
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
    use gs_graph::Value;
    use gs_grin::graph::mock::MockGraph;

    fn catalog() -> GlogueCatalog {
        // star: vertex 0 has high out-degree
        let edges: Vec<(u64, u64, f64)> = (1..100).map(|i| (0u64, i, 1.0)).collect();
        let g = MockGraph::new(100, &edges);
        GlogueCatalog::build(&g, 50)
    }

    #[test]
    fn catalog_counts() {
        let c = catalog();
        assert_eq!(c.vertex_counts, vec![100]);
        assert_eq!(c.edge_stats[0].count, 99);
        assert!((c.edge_stats[0].avg_out_degree - 0.99).abs() < 1e-9);
    }

    #[test]
    fn eq_predicate_is_selective() {
        let c = catalog();
        let pred = Expr::bin(
            BinOp::Eq,
            Expr::VertexId {
                col: 0,
                label: LabelId(0),
            },
            Expr::Const(Value::Int(5)),
        );
        let sel = c.vertex_selectivity(LabelId(0), &pred);
        assert!(sel <= 0.011, "{sel}");
        let range = Expr::bin(
            BinOp::Gt,
            Expr::VertexId {
                col: 0,
                label: LabelId(0),
            },
            Expr::Const(Value::Int(5)),
        );
        assert!(c.vertex_selectivity(LabelId(0), &range) > sel);
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

    #[test]
    fn build_is_deterministic() {
        // same graph, two builds → bit-identical catalogs; a different
        // seed may differ only in the sampled distinct counts
        let edges: Vec<(u64, u64, f64)> = (1..100).map(|i| (0u64, i, 1.0)).collect();
        let mut g = MockGraph::new(100, &edges);
        for i in 0..100 {
            g.set_tag(gs_graph::VId(i), (i % 7) as i64);
        }
        let a = GlogueCatalog::build(&g, 50);
        let b = GlogueCatalog::build(&g, 50);
        assert_eq!(a, b);
        let c = GlogueCatalog::build_seeded(&g, 50, 1);
        let d = GlogueCatalog::build_seeded(&g, 50, 1);
        assert_eq!(c, d);
        assert_eq!(a.vertex_counts, c.vertex_counts);
        assert_eq!(a.edge_stats, c.edge_stats);
    }

    #[test]
    fn catalog_records_max_degrees() {
        let c = catalog();
        // star: the hub has out-degree 99, every spoke in-degree 1
        assert_eq!(c.edge_stats[0].max_out_degree, 99);
        assert_eq!(c.edge_stats[0].max_in_degree, 1);
        let cs = c.to_cost_stats();
        assert_eq!(cs.edge_stats[0].max_out_degree, 99);
        assert_eq!(cs.vertex_counts, c.vertex_counts);
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
