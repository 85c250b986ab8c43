//! The physical stage: a concrete, ordered execution plan.
//!
//! Physical plans are linear operator chains over records. The naive
//! lowering here ([`lower_naive`]) preserves the logical op order and uses
//! *unfused* `ExpandEdge` + `GetVertex` pairs with *unpushed* predicates —
//! it is the "without optimization" baseline of Fig. 7(e). The optimizer in
//! `gs-optimizer` produces better plans via RBO/CBO; both lowerings share
//! [`compile_pattern`].

use crate::expr::Expr;
use crate::logical::{LogicalOp, LogicalPlan, ProjectItem};
use crate::pattern::Pattern;
use crate::record::{ColumnKind, Layout};
use crate::verify::{
    Diagnostic, E_BAD_PATTERN, E_COLUMN_RANGE, E_DUPLICATE_ALIAS, E_KIND_MISMATCH,
    E_LAYOUT_MISMATCH, E_UNKNOWN_ALIAS,
};
use gs_graph::{GraphError, LabelId, PropId, Result, Value};
use gs_grin::Direction;

/// What an expand produces.
#[derive(Clone, Debug, PartialEq)]
pub enum ExpandOut {
    /// Append the matched edge as a column.
    Edge,
    /// Append the far-endpoint vertex (fused EXPAND_EDGE+GET_VERTEX).
    VertexFused { label: LabelId },
}

/// Physical operators.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysicalOp {
    /// Source: emit one record per vertex of `label` (cross-producted with
    /// any incoming records). `index_lookup` (a property and a constant or
    /// slot to equal) uses a property index instead of a full scan when
    /// the store supports it.
    Scan {
        label: LabelId,
        predicate: Option<Expr>,
        index_lookup: Option<(PropId, Expr)>,
    },
    /// Flat-map: expand adjacency of the vertex at `src_col`.
    Expand {
        src_col: usize,
        src_label: LabelId,
        elabel: LabelId,
        dir: Direction,
        /// Predicate over the produced column (col 0 = produced value, in a
        /// temporary 1-column view).
        predicate: Option<Expr>,
        out: ExpandOut,
    },
    /// Map: endpoint of the edge at `edge_col` (the end away from the
    /// expansion source, as recorded in the edge value).
    GetVertex {
        edge_col: usize,
        label: LabelId,
        predicate: Option<Expr>,
        /// Which endpoint: true = edge destination, false = edge source.
        take_dst: bool,
    },
    /// Closes a pattern cycle: keep records where an `elabel` edge connects
    /// `src_col` to the already-bound `dst_col` (in `dir` from src).
    ExpandIntersect {
        src_col: usize,
        elabel: LabelId,
        dir: Direction,
        dst_col: usize,
        /// Optionally bind the connecting edge as a new column.
        bind_edge: bool,
        predicate: Option<Expr>,
    },
    /// Relational filter.
    Select {
        predicate: Expr,
    },
    /// Projection / grouped aggregation.
    Project {
        items: Vec<(ProjectItem, String)>,
    },
    Order {
        keys: Vec<(Expr, bool)>,
        limit: Option<usize>,
    },
    Dedup {
        columns: Vec<usize>,
    },
    Limit {
        n: usize,
    },
}

impl PhysicalOp {
    /// Rewrites every column reference through `map` (for post-fusion column
    /// compaction). Returns `None` if any reference is unmapped.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> Option<usize>) -> Option<PhysicalOp> {
        Some(match self {
            PhysicalOp::Scan {
                label,
                predicate,
                index_lookup,
            } => PhysicalOp::Scan {
                label: *label,
                predicate: predicate.clone(),
                index_lookup: index_lookup.clone(),
            },
            PhysicalOp::Expand {
                src_col,
                src_label,
                elabel,
                dir,
                predicate,
                out,
            } => PhysicalOp::Expand {
                src_col: map(*src_col)?,
                src_label: *src_label,
                elabel: *elabel,
                dir: *dir,
                predicate: predicate.clone(),
                out: out.clone(),
            },
            PhysicalOp::GetVertex {
                edge_col,
                label,
                predicate,
                take_dst,
            } => PhysicalOp::GetVertex {
                edge_col: map(*edge_col)?,
                label: *label,
                predicate: predicate.clone(),
                take_dst: *take_dst,
            },
            PhysicalOp::ExpandIntersect {
                src_col,
                elabel,
                dir,
                dst_col,
                bind_edge,
                predicate,
            } => PhysicalOp::ExpandIntersect {
                src_col: map(*src_col)?,
                elabel: *elabel,
                dir: *dir,
                dst_col: map(*dst_col)?,
                bind_edge: *bind_edge,
                predicate: predicate.clone(),
            },
            PhysicalOp::Select { predicate } => PhysicalOp::Select {
                predicate: predicate.remap_columns(map)?,
            },
            PhysicalOp::Project { items } => PhysicalOp::Project {
                items: items
                    .iter()
                    .map(|(it, name)| {
                        let it = match it {
                            ProjectItem::Expr(e) => ProjectItem::Expr(e.remap_columns(map)?),
                            ProjectItem::Agg(f, e) => {
                                ProjectItem::Agg(f.clone(), e.remap_columns(map)?)
                            }
                        };
                        Some((it, name.clone()))
                    })
                    .collect::<Option<Vec<_>>>()?,
            },
            PhysicalOp::Order { keys, limit } => PhysicalOp::Order {
                keys: keys
                    .iter()
                    .map(|(e, asc)| Some((e.remap_columns(map)?, *asc)))
                    .collect::<Option<Vec<_>>>()?,
                limit: *limit,
            },
            PhysicalOp::Dedup { columns } => PhysicalOp::Dedup {
                columns: columns
                    .iter()
                    .map(|c| map(*c))
                    .collect::<Option<Vec<_>>>()?,
            },
            PhysicalOp::Limit { n } => PhysicalOp::Limit { n: *n },
        })
    }

    /// The predicate this op filters its output with, if any.
    pub fn predicate(&self) -> Option<&Expr> {
        match self {
            PhysicalOp::Scan { predicate, .. }
            | PhysicalOp::Expand { predicate, .. }
            | PhysicalOp::GetVertex { predicate, .. }
            | PhysicalOp::ExpandIntersect { predicate, .. } => predicate.as_ref(),
            PhysicalOp::Select { predicate } => Some(predicate),
            _ => None,
        }
    }

    /// The record-shape transfer: turns `kinds`, the column kinds of the
    /// record entering this op, into those of the record leaving it.
    /// Scans and expansions append one column, a binding intersect
    /// appends its edge, a projection rebuilds the record, and every
    /// other op keeps it. `verify_physical`, `cost_physical` and
    /// EdgeVertexFusion all walk plans with this one rule.
    pub fn shape(&self, kinds: &mut Vec<ColumnKind>) {
        match self {
            PhysicalOp::Scan { label, .. } | PhysicalOp::GetVertex { label, .. } => {
                kinds.push(ColumnKind::Vertex(*label))
            }
            PhysicalOp::Expand { elabel, out, .. } => kinds.push(match out {
                ExpandOut::Edge => ColumnKind::Edge(*elabel),
                ExpandOut::VertexFused { label } => ColumnKind::Vertex(*label),
            }),
            PhysicalOp::ExpandIntersect {
                elabel,
                bind_edge: true,
                ..
            } => kinds.push(ColumnKind::Edge(*elabel)),
            PhysicalOp::Project { items } => {
                *kinds = items
                    .iter()
                    .map(|(it, _)| match it {
                        ProjectItem::Expr(Expr::Column(c)) => {
                            kinds.get(*c).cloned().unwrap_or(ColumnKind::Scalar)
                        }
                        _ => ColumnKind::Scalar,
                    })
                    .collect()
            }
            _ => {}
        }
    }

    /// Binds every parameter slot of this op's expressions.
    fn bind(&mut self, binds: &[Value]) -> Result<()> {
        let bind_opt = |e: &mut Option<Expr>| e.as_mut().map_or(Ok(()), |e| e.bind(binds));
        match self {
            PhysicalOp::Scan {
                predicate,
                index_lookup,
                ..
            } => {
                bind_opt(predicate)?;
                if let Some((_, key)) = index_lookup {
                    key.bind(binds)?;
                }
            }
            PhysicalOp::Expand { predicate, .. }
            | PhysicalOp::GetVertex { predicate, .. }
            | PhysicalOp::ExpandIntersect { predicate, .. } => bind_opt(predicate)?,
            PhysicalOp::Select { predicate } => predicate.bind(binds)?,
            PhysicalOp::Project { items } => {
                for (item, _) in items {
                    match item {
                        ProjectItem::Expr(e) | ProjectItem::Agg(_, e) => e.bind(binds)?,
                    }
                }
            }
            PhysicalOp::Order { keys, .. } => {
                for (e, _) in keys {
                    e.bind(binds)?;
                }
            }
            PhysicalOp::Dedup { .. } | PhysicalOp::Limit { .. } => {}
        }
        Ok(())
    }

    /// Stable lowercase operator name, used as the `op` telemetry field
    /// on `ir.cost.actual_rows` and in costcheck reports.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::Scan { .. } => "scan",
            PhysicalOp::Expand { .. } => "expand",
            PhysicalOp::GetVertex { .. } => "get_vertex",
            PhysicalOp::ExpandIntersect { .. } => "expand_intersect",
            PhysicalOp::Select { .. } => "select",
            PhysicalOp::Project { .. } => "project",
            PhysicalOp::Order { .. } => "order",
            PhysicalOp::Dedup { .. } => "dedup",
            PhysicalOp::Limit { .. } => "limit",
        }
    }
}

/// A physical plan with its output layout.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhysicalPlan {
    pub ops: Vec<PhysicalOp>,
    pub layout: Layout,
}

impl PhysicalPlan {
    /// A copy of this plan with every parameter slot bound to its value in
    /// `binds`. Binding a plan without slots copies it; a slot without a
    /// value of its type is an error, so the result has no slot left.
    pub fn bind(&self, binds: &[Value]) -> Result<PhysicalPlan> {
        let mut plan = self.clone();
        for op in &mut plan.ops {
            op.bind(binds)?;
        }
        Ok(plan)
    }
}

/// Lowering fails with a verifier [`Diagnostic`], so a malformed logical
/// plan reports the same codes whether it is lowered or verified.
pub type LowerResult<T> = std::result::Result<T, Diagnostic>;

/// Re-codes a layout or pattern error as a diagnostic with `code`.
fn coded(code: &'static str) -> impl Fn(GraphError) -> Diagnostic {
    move |e| {
        let message = match e {
            GraphError::Query(m) => m,
            other => other.to_string(),
        };
        Diagnostic::error(code, message)
    }
}

/// Binds `alias` to a new column (`E010` when it is already bound).
fn bind(layout: &mut Layout, alias: &str, kind: ColumnKind) -> LowerResult<usize> {
    layout.push(alias, kind).map_err(coded(E_DUPLICATE_ALIAS))
}

/// Resolves a bound alias (`E002`, listing the aliases that are bound).
fn resolve(layout: &Layout, alias: &str) -> LowerResult<usize> {
    layout.require(alias).map_err(coded(E_UNKNOWN_ALIAS))
}

/// Alias prefix of the columns that bind pattern edges with no alias of
/// their own; lowering drops them once the pattern is matched.
const INTERNAL_EDGE: &str = "__e";

/// The pattern visit order that follows declaration order.
pub fn declaration_order(pattern: &Pattern) -> Vec<usize> {
    (0..pattern.vertices.len()).collect()
}

/// Compiles a pattern into physical ops given a vertex visit `order`
/// (indices into `pattern.vertices`; the first element is the anchor).
///
/// * `fused` — use fused vertex expansion instead of `ExpandEdge`+`GetVertex`
///   when the edge is not alias-bound;
/// * `push_predicates` — attach vertex/edge predicates to scans/expands
///   instead of emitting trailing `Select`s.
///
/// Aliases already present in `layout` are reused as bound anchors (the
/// second `MATCH` of a multi-stage query extends existing bindings).
/// Fails with `E009` for a malformed pattern or order, `E002`/`E010` for
/// an alias that does not resolve or collides, and `E005` for a vertex or
/// edge predicate that reads beyond its own column.
pub fn compile_pattern(
    pattern: &Pattern,
    order: &[usize],
    layout: &mut Layout,
    ops: &mut Vec<PhysicalOp>,
    fused: bool,
    push_predicates: bool,
) -> LowerResult<()> {
    pattern.validate().map_err(coded(E_BAD_PATTERN))?;
    if order.len() != pattern.vertices.len() {
        return Err(Diagnostic::error(
            E_BAD_PATTERN,
            "pattern order length mismatch".into(),
        ));
    }
    let mut bound: Vec<bool> = pattern
        .vertices
        .iter()
        .map(|v| layout.index_of(&v.alias).is_some())
        .collect();
    let mut edge_done = vec![false; pattern.edges.len()];
    // edges between two already-bound (pre-existing) vertices must still be
    // checked at the end; handle via the same incident-edge closure loop.

    let mut deferred_selects: Vec<Expr> = Vec::new();

    for &vi in order {
        let pv = &pattern.vertices[vi];
        if !bound[vi] {
            // find a done-able connection to an already-bound vertex
            let conn = pattern
                .incident(vi)
                .into_iter()
                .find(|&(ei, _, other)| !edge_done[ei] && bound[other]);
            match conn {
                None => {
                    // anchor: scan
                    let pred = pv.predicate.as_ref();
                    let col = bind(layout, &pv.alias, ColumnKind::Vertex(pv.label))?;
                    if push_predicates {
                        ops.push(PhysicalOp::Scan {
                            label: pv.label,
                            predicate: pred.map(|p| remap_to(p, 0)).transpose()?,
                            index_lookup: pred.and_then(extract_eq_lookup),
                        });
                    } else {
                        ops.push(PhysicalOp::Scan {
                            label: pv.label,
                            predicate: None,
                            index_lookup: None,
                        });
                        if let Some(p) = pred {
                            deferred_selects.push(remap_to(p, col)?);
                        }
                    }
                }
                Some((ei, dir_from_other_view, other)) => {
                    // We expand FROM `other` TO `vi`. `incident(vi)` gave the
                    // direction from vi's perspective; invert it.
                    let pe = &pattern.edges[ei];
                    let dir = match dir_from_other_view {
                        Direction::Out => Direction::In, // edge leaves vi → from other it arrives
                        Direction::In => Direction::Out,
                        Direction::Both => Direction::Both,
                    };
                    let src_col = resolve(layout, &pattern.vertices[other].alias)?;
                    let src_label = pattern.vertices[other].label;
                    let epred = pe.predicate.as_ref();
                    let vpred = pv.predicate.as_ref();
                    let want_edge_alias = pe.alias.is_some();
                    // Fusion is only legal when nothing downstream needs the
                    // edge: no alias binding and no edge predicate.
                    if fused && !want_edge_alias && epred.is_none() {
                        let col = bind(layout, &pv.alias, ColumnKind::Vertex(pv.label))?;
                        ops.push(PhysicalOp::Expand {
                            src_col,
                            src_label,
                            elabel: pe.label,
                            dir,
                            predicate: None,
                            out: ExpandOut::VertexFused { label: pv.label },
                        });
                        // the vertex predicate runs on the fused output
                        // column, pushed or not
                        if let Some(p) = vpred {
                            deferred_selects.push(remap_to(p, col)?);
                        }
                    } else {
                        let ealias = pe
                            .alias
                            .clone()
                            .unwrap_or_else(|| format!("{INTERNAL_EDGE}{ei}"));
                        let ecol = bind(layout, &ealias, ColumnKind::Edge(pe.label))?;
                        ops.push(PhysicalOp::Expand {
                            src_col,
                            src_label,
                            elabel: pe.label,
                            dir,
                            predicate: if push_predicates {
                                epred.map(|p| remap_to(p, 0)).transpose()?
                            } else {
                                None
                            },
                            out: ExpandOut::Edge,
                        });
                        if !push_predicates {
                            if let Some(p) = epred {
                                deferred_selects.push(remap_to(p, ecol)?);
                            }
                        }
                        let vcol = bind(layout, &pv.alias, ColumnKind::Vertex(pv.label))?;
                        ops.push(PhysicalOp::GetVertex {
                            edge_col: ecol,
                            label: pv.label,
                            predicate: if push_predicates {
                                vpred.map(|p| remap_to(p, 0)).transpose()?
                            } else {
                                None
                            },
                            // Edge values are traversal-oriented (from =
                            // expansion origin): the pattern's far endpoint
                            // is always the `to` side, whatever the stored
                            // direction.
                            take_dst: true,
                        });
                        if !push_predicates {
                            if let Some(p) = vpred {
                                deferred_selects.push(remap_to(p, vcol)?);
                            }
                        }
                    }
                    edge_done[ei] = true;
                }
            }
            bound[vi] = true;
        }
        // close any remaining edges between vi and other bound vertices
        for (ei, dir, other) in pattern.incident(vi) {
            if edge_done[ei] || !bound[other] {
                continue;
            }
            let pe = &pattern.edges[ei];
            let src_col = resolve(layout, &pattern.vertices[vi].alias)?;
            let dst_col = resolve(layout, &pattern.vertices[other].alias)?;
            let bind_edge = pe.alias.is_some();
            ops.push(PhysicalOp::ExpandIntersect {
                src_col,
                elabel: pe.label,
                dir,
                dst_col,
                bind_edge,
                predicate: pe.predicate.as_ref().map(|p| remap_to(p, 0)).transpose()?,
            });
            if let Some(alias) = &pe.alias {
                bind(layout, alias, ColumnKind::Edge(pe.label))?;
            }
            edge_done[ei] = true;
        }
    }

    for p in deferred_selects {
        ops.push(PhysicalOp::Select { predicate: p });
    }
    if let Some(missing) = edge_done.iter().position(|d| !d) {
        return Err(Diagnostic::error(
            E_BAD_PATTERN,
            format!("pattern edge {missing} not compiled (disconnected order?)"),
        ));
    }
    Ok(())
}

/// Rebinds a single-column predicate (written against column 0) to `col`
/// (`E005` when it reads any other column).
fn remap_to(p: &Expr, col: usize) -> LowerResult<Expr> {
    p.remap_columns(&|i| (i == 0).then_some(col))
        .ok_or_else(|| {
            let mut cols = Vec::new();
            p.referenced_columns(&mut cols);
            let bad = cols.into_iter().find(|&c| c != 0).unwrap_or_default();
            Diagnostic::error(
                E_COLUMN_RANGE,
                format!("column {bad} out of range (record width 1)"),
            )
        })
}

/// Extracts `prop == const` from a vertex predicate for index lookups.
fn extract_eq_lookup(p: &Expr) -> Option<(PropId, Expr)> {
    if let Expr::Binary {
        op: crate::expr::BinOp::Eq,
        lhs,
        rhs,
    } = p
    {
        let key = |e: &Expr| matches!(e, Expr::Const(_) | Expr::Param(_));
        if let (Expr::VertexProp { col: 0, prop, .. }, v) = (&**lhs, &**rhs) {
            if key(v) {
                return Some((*prop, v.clone()));
            }
        }
        if let (v, Expr::VertexProp { col: 0, prop, .. }) = (&**lhs, &**rhs) {
            if key(v) {
                return Some((*prop, v.clone()));
            }
        }
    }
    None
}

/// Naive lowering: logical ops in order, unfused expansion, no predicate
/// pushdown, patterns compiled in declaration order.
pub fn lower_naive(plan: &LogicalPlan) -> Result<PhysicalPlan> {
    lower_with(plan, false, false, declaration_order)
}

/// Shared lowering skeleton. `order_fn` picks the pattern visit order
/// (identity for naive, GLogue for CBO). A malformed plan fails with the
/// verifier's diagnostic rendered into the error.
pub fn lower_with(
    plan: &LogicalPlan,
    fused: bool,
    push_predicates: bool,
    order_fn: impl Fn(&Pattern) -> Vec<usize>,
) -> Result<PhysicalPlan> {
    Ok(lower_traced(plan, fused, push_predicates, order_fn)?.0)
}

/// [`lower_with`], also returning, for each physical op, the index of the
/// logical op it came from. This is the only code that interprets a
/// [`LogicalOp`]: the verifier checks logical plans through it.
///
/// Fails with `E008` when `plan.layouts` is not one longer than `plan.ops`
/// or an op's output differs from the layout the plan declares after it,
/// `E002` for an alias that does not resolve, `E003` for an expansion from
/// a non-vertex column, `E005` for a projected column out of range,
/// `E009` for a malformed pattern and `E010` for a duplicate alias. The
/// diagnostic anchors to the logical op that failed.
pub(crate) fn lower_traced(
    plan: &LogicalPlan,
    fused: bool,
    push_predicates: bool,
    order_fn: impl Fn(&Pattern) -> Vec<usize>,
) -> LowerResult<(PhysicalPlan, Vec<usize>)> {
    if plan.layouts.len() != plan.ops.len() + 1 {
        return Err(Diagnostic::error(
            E_LAYOUT_MISMATCH,
            format!(
                "plan has {} ops but {} layouts (want ops+1)",
                plan.ops.len(),
                plan.layouts.len()
            ),
        ));
    }
    let mut layout = Layout::new();
    let mut ops = Vec::new();
    let mut origins = Vec::new();
    for (op_idx, op) in plan.ops.iter().enumerate() {
        let declared = &plan.layouts[op_idx + 1];
        let mut lower_op = || -> LowerResult<()> {
            match op {
                LogicalOp::ScanVertex {
                    alias,
                    label,
                    predicate,
                } => {
                    let col = bind(&mut layout, alias, ColumnKind::Vertex(*label))?;
                    if push_predicates {
                        ops.push(PhysicalOp::Scan {
                            label: *label,
                            predicate: predicate.as_ref().map(|p| remap_to(p, 0)).transpose()?,
                            index_lookup: predicate.as_ref().and_then(extract_eq_lookup),
                        });
                    } else {
                        ops.push(PhysicalOp::Scan {
                            label: *label,
                            predicate: None,
                            index_lookup: None,
                        });
                        if let Some(p) = predicate {
                            ops.push(PhysicalOp::Select {
                                predicate: remap_to(p, col)?,
                            });
                        }
                    }
                }
                LogicalOp::ExpandEdge {
                    src,
                    elabel,
                    dir,
                    alias,
                    predicate,
                } => {
                    let src_col = resolve(&layout, src)?;
                    let ColumnKind::Vertex(src_label) = *layout.kind(src_col) else {
                        return Err(Diagnostic::error(
                            E_KIND_MISMATCH,
                            format!(
                                "expand source `{src}` is {:?}, expected vertex",
                                layout.kind(src_col)
                            ),
                        ));
                    };
                    let ecol = bind(&mut layout, alias, ColumnKind::Edge(*elabel))?;
                    ops.push(PhysicalOp::Expand {
                        src_col,
                        src_label,
                        elabel: *elabel,
                        dir: *dir,
                        predicate: if push_predicates {
                            predicate.as_ref().map(|p| remap_to(p, 0)).transpose()?
                        } else {
                            None
                        },
                        out: ExpandOut::Edge,
                    });
                    if !push_predicates {
                        if let Some(p) = predicate {
                            ops.push(PhysicalOp::Select {
                                predicate: remap_to(p, ecol)?,
                            });
                        }
                    }
                }
                LogicalOp::GetVertex {
                    edge,
                    alias,
                    predicate,
                } => {
                    let edge_col = resolve(&layout, edge)?;
                    // the produced vertex label comes from the logical layout
                    let Some(&ColumnKind::Vertex(label)) = declared.kind_of(alias) else {
                        return Err(Diagnostic::error(
                            E_LAYOUT_MISMATCH,
                            format!(
                                "get-vertex target `{alias}` has no vertex kind in the declared layout"
                            ),
                        ));
                    };
                    let vcol = bind(&mut layout, alias, ColumnKind::Vertex(label))?;
                    ops.push(PhysicalOp::GetVertex {
                        edge_col,
                        label,
                        predicate: if push_predicates {
                            predicate.as_ref().map(|p| remap_to(p, 0)).transpose()?
                        } else {
                            None
                        },
                        take_dst: true,
                    });
                    if !push_predicates {
                        if let Some(p) = predicate {
                            ops.push(PhysicalOp::Select {
                                predicate: remap_to(p, vcol)?,
                            });
                        }
                    }
                }
                LogicalOp::Match { pattern } => {
                    let order = order_fn(pattern);
                    compile_pattern(
                        pattern,
                        &order,
                        &mut layout,
                        &mut ops,
                        fused,
                        push_predicates,
                    )?;
                    // Physical column order depends on the visit order; the
                    // declared layout (declaration order, no internal `__e*`
                    // columns) must hold the same bindings.
                    let internal = layout
                        .aliases()
                        .filter(|a| a.starts_with(INTERNAL_EDGE))
                        .count();
                    let same_bindings = layout.width() - internal == declared.width()
                        && declared
                            .aliases()
                            .enumerate()
                            .all(|(j, a)| layout.kind_of(a) == Some(declared.kind(j)));
                    if !same_bindings {
                        return Err(layout_mismatch(op_idx, &layout, declared));
                    }
                    // restore the canonical layout that downstream
                    // expressions were bound against
                    if layout.aliases().ne(declared.aliases()) {
                        let items = declared
                            .aliases()
                            .map(|a| {
                                let col = layout.index_of(a).expect("binding checked above");
                                (ProjectItem::Expr(Expr::Column(col)), a.to_string())
                            })
                            .collect();
                        ops.push(PhysicalOp::Project { items });
                        layout = declared.clone();
                    }
                }
                LogicalOp::Select { predicate } => {
                    ops.push(PhysicalOp::Select {
                        predicate: predicate.clone(),
                    });
                }
                LogicalOp::Project { items } => {
                    let mut next = Layout::new();
                    for (it, name) in items {
                        let kind = match it {
                            ProjectItem::Expr(Expr::Column(c)) if *c >= layout.width() => {
                                return Err(Diagnostic::error(
                                    E_COLUMN_RANGE,
                                    format!(
                                        "column {c} out of range (record width {})",
                                        layout.width()
                                    ),
                                ))
                            }
                            ProjectItem::Expr(Expr::Column(c)) => layout.kind(*c).clone(),
                            _ => ColumnKind::Scalar,
                        };
                        if next.push(name, kind).is_err() {
                            return Err(Diagnostic::error(
                                E_DUPLICATE_ALIAS,
                                format!("projection output `{name}` duplicated"),
                            ));
                        }
                    }
                    ops.push(PhysicalOp::Project {
                        items: items.clone(),
                    });
                    layout = next;
                }
                LogicalOp::Order { keys, limit } => {
                    ops.push(PhysicalOp::Order {
                        keys: keys.clone(),
                        limit: *limit,
                    });
                }
                LogicalOp::Dedup { columns } => {
                    let columns = columns
                        .iter()
                        .map(|a| resolve(&layout, a))
                        .collect::<LowerResult<Vec<_>>>()?;
                    ops.push(PhysicalOp::Dedup { columns });
                }
                LogicalOp::Limit { n } => ops.push(PhysicalOp::Limit { n: *n }),
            }
            if layout != *declared {
                return Err(layout_mismatch(op_idx, &layout, declared));
            }
            Ok(())
        };
        lower_op().map_err(|d| Diagnostic {
            op_index: Some(op_idx),
            ..d
        })?;
        origins.resize(ops.len(), op_idx);
    }
    Ok((PhysicalPlan { ops, layout }, origins))
}

/// `E008`: the layout op `op_idx` produces is not the one the plan declares.
fn layout_mismatch(op_idx: usize, produced: &Layout, declared: &Layout) -> Diagnostic {
    let want: Vec<&str> = produced.aliases().collect();
    let got: Vec<&str> = declared.aliases().collect();
    Diagnostic::error(
        E_LAYOUT_MISMATCH,
        format!(
            "layout after op {op_idx} should be [{}], plan declares [{}]",
            want.join(", "),
            got.join(", ")
        ),
    )
}
