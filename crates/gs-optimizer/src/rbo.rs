//! Rule-based optimization: the two headline rules from §5.2.
//!
//! * **FilterPushIntoMatch** ([`push_filters`], logical → logical): SELECT
//!   conjuncts that constrain a single pattern vertex/edge move into the
//!   pattern (and thence into scans/expands), shrinking intermediate results
//!   and enabling index lookups — the 279× of Fig. 7(e).
//! * **EdgeVertexFusion** ([`fuse_expand_get_vertex`], physical → physical):
//!   an `EXPAND_EDGE` whose produced edge is only consumed by the following
//!   `GET_VERTEX` fuses into one operator, eliminating the intermediate
//!   edge materialisation — the 2.9× of Fig. 7(e).

use gs_ir::expr::{BinOp, Expr};
use gs_ir::logical::{LogicalOp, LogicalPlan};
use gs_ir::physical::{ExpandOut, PhysicalOp, PhysicalPlan};
use gs_ir::Result;

/// Splits an expression into its top-level AND conjuncts.
fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut v = conjuncts(lhs);
            v.extend(conjuncts(rhs));
            v
        }
        other => vec![other.clone()],
    }
}

fn conjoin(mut es: Vec<Expr>) -> Option<Expr> {
    let mut acc = es.pop()?;
    while let Some(e) = es.pop() {
        acc = Expr::bin(BinOp::And, e, acc);
    }
    Some(acc)
}

/// The single column an expression constrains, if exactly one.
fn single_column(e: &Expr) -> Option<usize> {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    cols.sort_unstable();
    cols.dedup();
    if cols.len() == 1 {
        Some(cols[0])
    } else {
        None
    }
}

/// FilterPushIntoMatch: pushes single-alias SELECT conjuncts that follow a
/// `Match` (or `ScanVertex`) into the pattern vertex/edge predicates.
pub fn push_filters(plan: &LogicalPlan) -> Result<LogicalPlan> {
    let mut out = plan.clone();
    let mut i = 0;
    while i < out.ops.len() {
        let LogicalOp::Select { predicate } = &out.ops[i] else {
            i += 1;
            continue;
        };
        // the op this select follows must be a Match or ScanVertex
        if i == 0 {
            i += 1;
            continue;
        }
        let layout = out.layouts[i].clone(); // layout feeding the select
        let parts = conjuncts(predicate);
        let mut kept: Vec<Expr> = Vec::new();
        let mut pushed: Vec<(usize, Expr)> = Vec::new(); // (column, col0-form)
        for c in parts {
            match single_column(&c) {
                Some(col) => {
                    // rewrite to the column-0 convention used by pattern preds
                    let rewritten = c
                        .remap_columns(&|x| if x == col { Some(0) } else { None })
                        .expect("single column remap");
                    pushed.push((col, rewritten));
                }
                None => kept.push(c),
            }
        }
        if pushed.is_empty() {
            i += 1;
            continue;
        }
        // attach to the producing op
        let prev = i - 1;
        let mut leftovers: Vec<Expr> = Vec::new();
        match &mut out.ops[prev] {
            LogicalOp::Match { pattern } => {
                for (col, pred) in pushed {
                    let alias = layout.aliases().nth(col).unwrap().to_string();
                    if let Some(vi) = pattern.vertex_index(&alias) {
                        pattern.and_vertex_predicate(vi, pred);
                    } else if let Some(ei) = pattern
                        .edges
                        .iter()
                        .position(|e| e.alias.as_deref() == Some(alias.as_str()))
                    {
                        pattern.and_edge_predicate(ei, pred);
                    } else {
                        // alias predates this match; restore original form
                        leftovers.push(
                            pred.remap_columns(&|x| if x == 0 { Some(col) } else { None })
                                .unwrap(),
                        );
                    }
                }
            }
            LogicalOp::ScanVertex {
                alias, predicate, ..
            } => {
                for (col, pred) in pushed {
                    let name = layout.aliases().nth(col).unwrap();
                    if name == alias {
                        *predicate = Some(match predicate.take() {
                            Some(p) => Expr::bin(BinOp::And, p, pred),
                            None => pred,
                        });
                    } else {
                        leftovers.push(
                            pred.remap_columns(&|x| if x == 0 { Some(col) } else { None })
                                .unwrap(),
                        );
                    }
                }
            }
            _ => {
                // cannot push past this op; restore
                for (col, pred) in pushed {
                    leftovers.push(
                        pred.remap_columns(&|x| if x == 0 { Some(col) } else { None })
                            .unwrap(),
                    );
                }
            }
        }
        kept.extend(leftovers);
        match conjoin(kept) {
            Some(residual) => {
                out.ops[i] = LogicalOp::Select {
                    predicate: residual,
                };
                i += 1;
            }
            None => {
                out.ops.remove(i);
                out.layouts.remove(i + 1);
            }
        }
    }
    Ok(out)
}

/// EdgeVertexFusion on a physical plan: rewrites
/// `Expand{out: Edge} ; GetVertex{take_dst: true}` pairs whose edge column
/// is never referenced again into a single fused expand, compacting the
/// record by one column. The output layout is unchanged: fusion only
/// fires when a later Project rebuilds the record without the edge.
pub fn fuse_expand_get_vertex(plan: &PhysicalPlan) -> PhysicalPlan {
    let mut ops = plan.ops.clone();
    // column kinds of the record entering op `i`
    let mut kinds = Vec::new();
    let mut i = 0;
    while i + 1 < ops.len() {
        if let Some((fused, rest)) = fuse_at(&ops, i, kinds.len()) {
            ops.truncate(i);
            ops.push(fused);
            ops.extend(rest);
        }
        ops[i].shape(&mut kinds);
        i += 1;
    }
    PhysicalPlan {
        ops,
        layout: plan.layout.clone(),
    }
}

/// The fused expand replacing `ops[i..i + 2]` and the ops after the pair
/// with the edge column `ecol` (the column the Expand appends) removed,
/// if the pair can fuse.
fn fuse_at(ops: &[PhysicalOp], i: usize, ecol: usize) -> Option<(PhysicalOp, Vec<PhysicalOp>)> {
    let (
        PhysicalOp::Expand {
            src_col,
            src_label,
            elabel,
            dir,
            predicate: None,
            out: ExpandOut::Edge,
        },
        PhysicalOp::GetVertex {
            edge_col,
            label,
            predicate: vpred,
            take_dst: true,
        },
    ) = (&ops[i], ops.get(i + 1)?)
    else {
        return None;
    };
    // the edge column must not survive to the plan's output: a later
    // Project rebuilds the record (and, if it referenced the edge,
    // remapping below fails); with no Project the edge column flows
    // straight into the result set and fusing would drop it.
    if *edge_col != ecol
        || !ops[i + 2..]
            .iter()
            .any(|op| matches!(op, PhysicalOp::Project { .. }))
    {
        return None;
    }
    // the edge column must not be referenced by any later op
    let map = |x: usize| {
        if x == ecol {
            None
        } else if x > ecol {
            Some(x - 1)
        } else {
            Some(x)
        }
    };
    let rest = ops[i + 2..]
        .iter()
        .map(|later| later.remap_columns(&map))
        .collect::<Option<Vec<_>>>()?;
    let fused = PhysicalOp::Expand {
        src_col: *src_col,
        src_label: *src_label,
        elabel: *elabel,
        dir: *dir,
        predicate: vpred.clone(),
        out: ExpandOut::VertexFused { label: *label },
    };
    Some((fused, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::schema::GraphSchema;
    use gs_graph::{Value, ValueType};
    use gs_grin::Direction;
    use gs_ir::logical::ProjectItem;
    use gs_ir::physical::lower_naive;
    use gs_ir::{Pattern, PlanBuilder};

    fn schema() -> GraphSchema {
        let mut s = GraphSchema::new();
        let v = s.add_vertex_label("V", &[("tag", ValueType::Int)]);
        s.add_edge_label("E", v, v, &[("weight", ValueType::Float)]);
        s
    }

    #[test]
    fn push_filters_moves_single_alias_conjuncts() {
        let s = schema();
        let mut p = Pattern::new();
        let a = p.add_vertex("a", gs_graph::LabelId(0));
        let b = p.add_vertex("b", gs_graph::LabelId(0));
        p.add_edge(None, gs_graph::LabelId(0), a, b);
        let builder = PlanBuilder::new(&s).match_pattern(p).unwrap();
        let pred = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                builder.prop("a", "tag").unwrap(),
                Expr::Const(Value::Int(5)),
            ),
            Expr::bin(
                BinOp::Ne,
                builder.col("a").unwrap(),
                builder.col("b").unwrap(),
            ),
        );
        let plan = builder.select(pred).build();
        let optimized = push_filters(&plan).unwrap();
        // the a.tag=5 conjunct moved into the pattern; a<>b remains
        match &optimized.ops[0] {
            LogicalOp::Match { pattern } => {
                assert!(pattern.vertices[0].predicate.is_some());
                assert!(pattern.vertices[1].predicate.is_none());
            }
            other => panic!("{other:?}"),
        }
        match &optimized.ops[1] {
            LogicalOp::Select { predicate } => {
                let mut cols = Vec::new();
                predicate.referenced_columns(&mut cols);
                cols.dedup();
                assert_eq!(cols.len(), 2, "residual references both aliases");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn push_filters_removes_fully_pushed_select() {
        let s = schema();
        let builder = PlanBuilder::new(&s).scan("a", "V").unwrap();
        let pred = Expr::bin(
            BinOp::Eq,
            builder.prop("a", "tag").unwrap(),
            Expr::Const(Value::Int(1)),
        );
        let plan = builder.select(pred).build();
        let optimized = push_filters(&plan).unwrap();
        assert_eq!(optimized.ops.len(), 1);
        match &optimized.ops[0] {
            LogicalOp::ScanVertex { predicate, .. } => assert!(predicate.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fusion_rewrites_expand_getvertex_pairs() {
        let s = schema();
        let plan = PlanBuilder::new(&s)
            .scan("a", "V")
            .unwrap()
            .expand_edge("a", "E", Direction::Out, "e")
            .unwrap()
            .get_vertex("e", "b")
            .unwrap()
            .project(vec![
                (ProjectItem::Expr(Expr::Column(0)), "a"),
                (ProjectItem::Expr(Expr::Column(2)), "b"),
            ])
            .unwrap()
            .build();
        let phys = lower_naive(&plan).unwrap();
        let fused = fuse_expand_get_vertex(&phys);
        let n_expands = fused
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    PhysicalOp::Expand {
                        out: ExpandOut::VertexFused { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(n_expands, 1);
        assert!(fused.ops.len() < phys.ops.len());
        // the downstream project's columns were remapped (b was col 2 → 1)
        match fused.ops.last().unwrap() {
            PhysicalOp::Project { items } => match &items[1].0 {
                ProjectItem::Expr(Expr::Column(c)) => assert_eq!(*c, 1),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fusion_skips_when_edge_is_used() {
        let s = schema();
        let builder = PlanBuilder::new(&s)
            .scan("a", "V")
            .unwrap()
            .expand_edge("a", "E", Direction::Out, "e")
            .unwrap()
            .get_vertex("e", "b")
            .unwrap();
        let wpred = Expr::bin(
            BinOp::Gt,
            builder.prop("e", "weight").unwrap(),
            Expr::Const(Value::Float(1.0)),
        );
        let plan = builder.select(wpred).build();
        let phys = lower_naive(&plan).unwrap();
        let fused = fuse_expand_get_vertex(&phys);
        assert_eq!(fused.ops, phys.ops, "edge is referenced; no fusion");
    }
}
