//! Reference executor: the definitional semantics of every physical
//! operator, executed single-threaded with materialised intermediates.
//!
//! The Gaia (data-parallel) and HiActor (actor) engines implement the same
//! semantics with different runtimes; integration tests diff them against
//! this executor.
//!
//! Conventions:
//! * Execution starts from one empty record, so a leading `Scan` emits one
//!   record per vertex and a second `Scan` produces a cross product.
//! * `Value::Edge(e, label, from, to)` is **traversal-oriented**: `from` is
//!   the expansion origin and `to` the neighbour, regardless of the stored
//!   direction. Edge property lookups only use `e`/`label`, which are
//!   storage-true.

use crate::expr::AggFunc;
use crate::logical::ProjectItem;
use crate::physical::{ExpandOut, PhysicalOp, PhysicalPlan};
use crate::record::Record;
use gs_graph::value::GroupKey;
use gs_graph::{GraphError, Result, Value};
use gs_grin::{Direction, GrinGraph};
use std::collections::HashMap;

/// Runs a physical plan to completion.
pub fn execute(plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
    let mut records: Vec<Record> = vec![Record::new()];
    for op in &plan.ops {
        records = apply(op, records, graph)?;
    }
    Ok(records)
}

/// Like [`execute`], but also returns the actual output cardinality of
/// every operator (in plan order), recording each under the
/// `ir.cost.actual_rows` counter. `gs-bench costcheck` diffs these
/// actuals against the static estimates from [`crate::cost`] to track
/// estimator quality (q-error), and the soundness property test checks
/// each actual falls inside the predicted `[lo, hi]` interval.
pub fn execute_traced(
    plan: &PhysicalPlan,
    graph: &dyn GrinGraph,
) -> Result<(Vec<Record>, Vec<u64>)> {
    let mut records: Vec<Record> = vec![Record::new()];
    let mut actuals = Vec::with_capacity(plan.ops.len());
    for op in &plan.ops {
        records = apply(op, records, graph)?;
        gs_telemetry::counter!("ir.cost.actual_rows", op = op.name(); records.len() as u64);
        actuals.push(records.len() as u64);
    }
    Ok((records, actuals))
}

/// Applies one operator to a batch (shared by the reference executor and by
/// Gaia's per-worker pipelines).
pub fn apply(op: &PhysicalOp, input: Vec<Record>, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
    match op {
        PhysicalOp::Scan {
            label,
            predicate,
            index_lookup,
        } => {
            let mut out = Vec::new();
            // resolve the vertex set once; cross-product with input records
            let vertices: Vec<Value> = if let Some((prop, key)) = index_lookup {
                graph
                    .vertices_by_property(*label, *prop, &key.eval(&[], graph)?)
                    .into_iter()
                    .map(|v| Value::Vertex(v, *label))
                    .collect()
            } else {
                let mut vs = Vec::new();
                for v in graph.vertices(*label) {
                    let val = Value::Vertex(v, *label);
                    if let Some(p) = predicate {
                        if !p.eval_bool(std::slice::from_ref(&val), graph)? {
                            continue;
                        }
                    }
                    vs.push(val);
                }
                vs
            };
            // index path may still need the residual predicate
            let vertices: Vec<Value> = if index_lookup.is_some() {
                let mut vs = Vec::new();
                for val in vertices {
                    if let Some(p) = predicate {
                        if !p.eval_bool(std::slice::from_ref(&val), graph)? {
                            continue;
                        }
                    }
                    vs.push(val);
                }
                vs
            } else {
                vertices
            };
            for rec in &input {
                for v in &vertices {
                    let mut r = rec.clone();
                    r.push(v.clone());
                    out.push(r);
                }
            }
            Ok(out)
        }
        PhysicalOp::Expand {
            src_col,
            src_label,
            elabel,
            dir,
            predicate,
            out: expand_out,
        } => {
            let mut out = Vec::new();
            for rec in input {
                let Some(Value::Vertex(v, _)) = rec.get(*src_col).cloned() else {
                    if matches!(rec.get(*src_col), Some(Value::Null)) {
                        continue;
                    }
                    return Err(GraphError::Type(format!(
                        "Expand source col {src_col} is not a vertex"
                    )));
                };
                graph.for_each_adjacent(v, *src_label, *elabel, *dir, &mut |a| {
                    let produced = match expand_out {
                        ExpandOut::Edge => Value::Edge(a.edge, *elabel, v, a.nbr),
                        ExpandOut::VertexFused { label } => Value::Vertex(a.nbr, *label),
                    };
                    out.push((rec.clone(), produced));
                });
            }
            // evaluate predicates outside the adjacency closure (closure
            // cannot return Result)
            let mut res = Vec::with_capacity(out.len());
            for (rec, produced) in out {
                if let Some(p) = predicate {
                    if !p.eval_bool(std::slice::from_ref(&produced), graph)? {
                        continue;
                    }
                }
                let mut r = rec;
                r.push(produced);
                res.push(r);
            }
            Ok(res)
        }
        PhysicalOp::GetVertex {
            edge_col,
            label,
            predicate,
            take_dst,
        } => {
            let mut out = Vec::new();
            for mut rec in input {
                let Some(Value::Edge(_, _, from, to)) = rec.get(*edge_col).cloned() else {
                    if matches!(rec.get(*edge_col), Some(Value::Null)) {
                        continue;
                    }
                    return Err(GraphError::Type(format!(
                        "GetVertex col {edge_col} is not an edge"
                    )));
                };
                let v = if *take_dst { to } else { from };
                let val = Value::Vertex(v, *label);
                if let Some(p) = predicate {
                    if !p.eval_bool(std::slice::from_ref(&val), graph)? {
                        continue;
                    }
                }
                rec.push(val);
                out.push(rec);
            }
            Ok(out)
        }
        PhysicalOp::ExpandIntersect {
            src_col,
            elabel,
            dir,
            dst_col,
            bind_edge,
            predicate,
        } => {
            let mut out = Vec::new();
            for rec in input {
                let (Some(Value::Vertex(s, sl)), Some(Value::Vertex(d, dl))) =
                    (rec.get(*src_col).cloned(), rec.get(*dst_col).cloned())
                else {
                    continue;
                };
                // Direction-adaptive intersection: probe from the endpoint
                // with the smaller adjacency (the same trick worst-case-
                // optimal join implementations use); both probes find the
                // same edge because in-adjacency mirrors out-adjacency.
                let rev = match dir {
                    Direction::Out => Direction::In,
                    Direction::In => Direction::Out,
                    Direction::Both => Direction::Both,
                };
                let deg_s = graph.degree(s, sl, *elabel, *dir);
                let deg_d = graph.degree(d, dl, *elabel, rev);
                let mut found = None;
                if deg_d < deg_s {
                    graph.for_each_adjacent(d, dl, *elabel, rev, &mut |a| {
                        if a.nbr == s && found.is_none() {
                            found = Some(a.edge);
                        }
                    });
                } else {
                    graph.for_each_adjacent(s, sl, *elabel, *dir, &mut |a| {
                        if a.nbr == d && found.is_none() {
                            found = Some(a.edge);
                        }
                    });
                }
                let Some(eid) = found else { continue };
                let edge_val = Value::Edge(eid, *elabel, s, d);
                if let Some(p) = predicate {
                    if !p.eval_bool(std::slice::from_ref(&edge_val), graph)? {
                        continue;
                    }
                }
                let mut r = rec;
                if *bind_edge {
                    r.push(edge_val);
                }
                out.push(r);
            }
            Ok(out)
        }
        PhysicalOp::Select { predicate } => {
            let mut out = Vec::new();
            for rec in input {
                if predicate.eval_bool(&rec, graph)? {
                    out.push(rec);
                }
            }
            Ok(out)
        }
        PhysicalOp::Project { items } => project(items, input, graph),
        PhysicalOp::Order { keys, limit } => {
            let mut keyed: Vec<(Vec<Value>, Record)> = input
                .into_iter()
                .map(|rec| {
                    let ks = keys
                        .iter()
                        .map(|(e, _)| e.eval(&rec, graph))
                        .collect::<Result<Vec<_>>>()?;
                    Ok((ks, rec))
                })
                .collect::<Result<Vec<_>>>()?;
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, asc)) in keys.iter().enumerate() {
                    let c = a[i].total_cmp(&b[i]);
                    let c = if *asc { c } else { c.reverse() };
                    if c != std::cmp::Ordering::Equal {
                        return c;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut out: Vec<Record> = keyed.into_iter().map(|(_, r)| r).collect();
            if let Some(n) = limit {
                out.truncate(*n);
            }
            Ok(out)
        }
        PhysicalOp::Dedup { columns } => {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for rec in input {
                let key: Vec<GroupKey> = if columns.is_empty() {
                    rec.iter().map(|v| GroupKey(v.clone())).collect()
                } else {
                    columns.iter().map(|&c| GroupKey(rec[c].clone())).collect()
                };
                if seen.insert(KeyVec(key)) {
                    out.push(rec);
                }
            }
            Ok(out)
        }
        PhysicalOp::Limit { n } => {
            let mut out = input;
            out.truncate(*n);
            Ok(out)
        }
    }
}

#[derive(PartialEq, Eq, Hash)]
struct KeyVec(Vec<GroupKey>);

/// Projection with Cypher `WITH`/`RETURN` semantics: if any item aggregates,
/// the non-aggregate items become grouping keys.
fn project(
    items: &[(ProjectItem, String)],
    input: Vec<Record>,
    graph: &dyn GrinGraph,
) -> Result<Vec<Record>> {
    let has_agg = items
        .iter()
        .any(|(it, _)| matches!(it, ProjectItem::Agg(..)));
    if !has_agg {
        let mut out = Vec::with_capacity(input.len());
        for rec in input {
            let mut r = Record::with_capacity(items.len());
            for (it, _) in items {
                match it {
                    ProjectItem::Expr(e) => r.push(e.eval(&rec, graph)?),
                    ProjectItem::Agg(..) => unreachable!(),
                }
            }
            out.push(r);
        }
        return Ok(out);
    }

    // grouped aggregation
    let mut groups: HashMap<KeyVec, Vec<AggState>> = HashMap::new();
    let mut key_order: Vec<(KeyVec, Vec<Value>)> = Vec::new();
    for rec in input {
        let mut key = Vec::new();
        let mut key_vals = Vec::new();
        for (it, _) in items {
            if let ProjectItem::Expr(e) = it {
                let v = e.eval(&rec, graph)?;
                key.push(GroupKey(v.clone()));
                key_vals.push(v);
            }
        }
        let key = KeyVec(key);
        let entry = groups.entry(KeyVec(key.0.to_vec()));
        let states = match entry {
            std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                key_order.push((KeyVec(key.0.to_vec()), key_vals));
                v.insert(
                    items
                        .iter()
                        .filter_map(|(it, _)| match it {
                            ProjectItem::Agg(f, _) => Some(AggState::new(f)),
                            ProjectItem::Expr(_) => None,
                        })
                        .collect(),
                )
            }
        };
        let mut agg_idx = 0;
        for (it, _) in items {
            if let ProjectItem::Agg(_, e) = it {
                let v = e.eval(&rec, graph)?;
                states[agg_idx].update(v);
                agg_idx += 1;
            }
        }
    }
    // empty input + no keys → single row of aggregate identities
    if key_order.is_empty()
        && items
            .iter()
            .all(|(it, _)| matches!(it, ProjectItem::Agg(..)))
    {
        let r: Record = items
            .iter()
            .map(|(it, _)| match it {
                ProjectItem::Agg(f, _) => AggState::new(f).finish(),
                ProjectItem::Expr(_) => unreachable!(),
            })
            .collect();
        return Ok(vec![r]);
    }
    let mut out = Vec::with_capacity(key_order.len());
    for (key, key_vals) in key_order {
        let states = groups.remove(&key).expect("group state");
        let mut r = Record::with_capacity(items.len());
        let mut kv = key_vals.into_iter();
        let mut st = states.into_iter();
        for (it, _) in items {
            match it {
                ProjectItem::Expr(_) => r.push(kv.next().expect("key value")),
                ProjectItem::Agg(..) => r.push(st.next().expect("agg state").finish()),
            }
        }
        out.push(r);
    }
    Ok(out)
}

/// Incremental aggregate state.
pub enum AggState {
    Count(i64),
    CountDistinct(std::collections::HashSet<GroupKey>),
    Sum(Value),
    Avg(f64, i64),
    Min(Value),
    Max(Value),
    Collect(Vec<Value>),
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(f: &AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(Default::default()),
            AggFunc::Sum => AggState::Sum(Value::Null),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(Value::Null),
            AggFunc::Max => AggState::Max(Value::Null),
            AggFunc::Collect => AggState::Collect(Vec::new()),
        }
    }

    /// Folds one value in (nulls are skipped, SQL-style).
    pub fn update(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        match self {
            AggState::Count(c) => *c += 1,
            AggState::CountDistinct(s) => {
                s.insert(GroupKey(v));
            }
            AggState::Sum(acc) => {
                *acc = match (&acc, &v) {
                    (Value::Null, _) => v,
                    (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
                    _ => Value::Float(acc.as_float().unwrap_or(0.0) + v.as_float().unwrap_or(0.0)),
                };
            }
            AggState::Avg(sum, n) => {
                *sum += v.as_float().unwrap_or(0.0);
                *n += 1;
            }
            AggState::Min(m) => {
                if m.is_null() || v.total_cmp(m).is_lt() {
                    *m = v;
                }
            }
            AggState::Max(m) => {
                if m.is_null() || v.total_cmp(m).is_gt() {
                    *m = v;
                }
            }
            AggState::Collect(list) => list.push(v),
        }
    }

    /// Merges another state of the same kind (used by Gaia's parallel
    /// partial aggregation).
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b),
            (AggState::Sum(a), AggState::Sum(b)) => {
                if !b.is_null() {
                    *a = match (&a, &b) {
                        (Value::Null, _) => b,
                        (Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                        _ => {
                            Value::Float(a.as_float().unwrap_or(0.0) + b.as_float().unwrap_or(0.0))
                        }
                    };
                }
            }
            (AggState::Avg(s1, n1), AggState::Avg(s2, n2)) => {
                *s1 += s2;
                *n1 += n2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if !b.is_null() && (a.is_null() || b.total_cmp(a).is_lt()) {
                    *a = b;
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if !b.is_null() && (a.is_null() || b.total_cmp(a).is_gt()) {
                    *a = b;
                }
            }
            (AggState::Collect(a), AggState::Collect(b)) => a.extend(b),
            _ => panic!("merging mismatched aggregate states"),
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::CountDistinct(s) => Value::Int(s.len() as i64),
            AggState::Sum(v) => {
                if v.is_null() {
                    Value::Int(0)
                } else {
                    v
                }
            }
            AggState::Avg(s, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(s / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v,
            AggState::Collect(l) => Value::List(l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::record::Layout;
    use gs_graph::{LabelId, PropId, VId};
    use gs_grin::graph::mock::MockGraph;
    use gs_grin::Direction;

    const L: LabelId = LabelId(0);

    /// diamond: 0→1, 0→2, 1→3, 2→3, weights 1..4
    fn g() -> MockGraph {
        let mut g = MockGraph::new(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 4.0)]);
        g.set_tag(VId(0), 10);
        g.set_tag(VId(1), 11);
        g.set_tag(VId(2), 12);
        g.set_tag(VId(3), 13);
        g
    }

    fn plan(ops: Vec<PhysicalOp>) -> PhysicalPlan {
        PhysicalPlan {
            ops,
            layout: Layout::new(),
        }
    }

    #[test]
    fn scan_emits_all_vertices() {
        let res = execute(
            &plan(vec![PhysicalOp::Scan {
                label: L,
                predicate: None,
                index_lookup: None,
            }]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn scan_with_predicate() {
        let pred = Expr::bin(
            BinOp::Gt,
            Expr::VertexProp {
                col: 0,
                label: L,
                prop: PropId(0),
            },
            Expr::Const(Value::Int(11)),
        );
        let res = execute(
            &plan(vec![PhysicalOp::Scan {
                label: L,
                predicate: Some(pred),
                index_lookup: None,
            }]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 2); // tags 12, 13
    }

    #[test]
    fn expand_edge_then_get_vertex() {
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::Edge,
                },
                PhysicalOp::GetVertex {
                    edge_col: 1,
                    label: L,
                    predicate: None,
                    take_dst: true,
                },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 4); // 4 edges
        for r in &res {
            assert!(matches!(r[2], Value::Vertex(..)));
        }
    }

    #[test]
    fn fused_expand_equals_unfused() {
        let unfused = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::Edge,
                },
                PhysicalOp::GetVertex {
                    edge_col: 1,
                    label: L,
                    predicate: None,
                    take_dst: true,
                },
                PhysicalOp::Project {
                    items: vec![
                        (ProjectItem::Expr(Expr::Column(0)), "a".into()),
                        (ProjectItem::Expr(Expr::Column(2)), "b".into()),
                    ],
                },
            ]),
            &g(),
        )
        .unwrap();
        let fused = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: L },
                },
            ]),
            &g(),
        )
        .unwrap();
        let canon = |mut v: Vec<Record>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        assert_eq!(canon(unfused), canon(fused));
    }

    #[test]
    fn expand_intersect_closes_triangles() {
        // diamond has no triangle; add 1→2 to make 0,1,2 a triangle
        let mg = MockGraph::new(
            4,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 3.0),
                (2, 3, 4.0),
                (1, 2, 5.0),
            ],
        );
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: L },
                },
                PhysicalOp::Expand {
                    src_col: 1,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: L },
                },
                // close: a → c must exist
                PhysicalOp::ExpandIntersect {
                    src_col: 0,
                    elabel: L,
                    dir: Direction::Out,
                    dst_col: 2,
                    bind_edge: false,
                    predicate: None,
                },
            ]),
            &mg,
        )
        .unwrap();
        // directed 2-paths closed by an edge: 0→1→2 (closed by 0→2) and
        // 1→2→3 (closed by 1→3)
        assert_eq!(res.len(), 2);
        assert_eq!(res[0][0], Value::Vertex(VId(0), L));
        assert_eq!(res[0][2], Value::Vertex(VId(2), L));
        assert_eq!(res[1][0], Value::Vertex(VId(1), L));
        assert_eq!(res[1][2], Value::Vertex(VId(3), L));
    }

    #[test]
    fn group_by_with_count_and_sum() {
        // group neighbors-of by source, count them
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: L },
                },
                PhysicalOp::Project {
                    items: vec![
                        (ProjectItem::Expr(Expr::Column(0)), "src".into()),
                        (
                            ProjectItem::Agg(AggFunc::Count, Expr::Column(1)),
                            "cnt".into(),
                        ),
                    ],
                },
                PhysicalOp::Order {
                    keys: vec![(Expr::Column(1), false)],
                    limit: None,
                },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 3); // vertices 0,1,2 have out-edges
        assert_eq!(res[0][1], Value::Int(2)); // vertex 0 has 2
    }

    #[test]
    fn aggregate_without_keys_on_empty_input() {
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: Some(Expr::Const(Value::Bool(false))),
                    index_lookup: None,
                },
                PhysicalOp::Project {
                    items: vec![(
                        ProjectItem::Agg(AggFunc::Count, Expr::Column(0)),
                        "cnt".into(),
                    )],
                },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(res, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn order_desc_with_limit() {
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Order {
                    keys: vec![(
                        Expr::VertexProp {
                            col: 0,
                            label: L,
                            prop: PropId(0),
                        },
                        false,
                    )],
                    limit: Some(2),
                },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0][0], Value::Vertex(VId(3), L)); // tag 13
        assert_eq!(res[1][0], Value::Vertex(VId(2), L)); // tag 12
    }

    #[test]
    fn dedup_and_limit() {
        let res = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: L,
                    elabel: L,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: L },
                },
                PhysicalOp::Project {
                    items: vec![(ProjectItem::Expr(Expr::Column(1)), "n".into())],
                },
                PhysicalOp::Dedup { columns: vec![0] },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(res.len(), 3); // distinct targets: 1, 2, 3
        let limited = execute(
            &plan(vec![
                PhysicalOp::Scan {
                    label: L,
                    predicate: None,
                    index_lookup: None,
                },
                PhysicalOp::Limit { n: 2 },
            ]),
            &g(),
        )
        .unwrap();
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn agg_state_merge_matches_sequential() {
        let mut a = AggState::new(&AggFunc::Sum);
        a.update(Value::Int(1));
        a.update(Value::Int(2));
        let mut b = AggState::new(&AggFunc::Sum);
        b.update(Value::Int(3));
        a.merge(b);
        assert_eq!(a.finish(), Value::Int(6));

        let mut m = AggState::new(&AggFunc::Min);
        m.update(Value::Int(5));
        let mut m2 = AggState::new(&AggFunc::Min);
        m2.update(Value::Int(2));
        m.merge(m2);
        assert_eq!(m.finish(), Value::Int(2));

        let mut avg = AggState::new(&AggFunc::Avg);
        avg.update(Value::Int(1));
        let mut avg2 = AggState::new(&AggFunc::Avg);
        avg2.update(Value::Int(3));
        avg.merge(avg2);
        assert_eq!(avg.finish(), Value::Float(2.0));
    }
}
