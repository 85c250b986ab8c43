//! Scalar expressions evaluated against a record and the graph.
//!
//! Expressions reference record columns positionally (bound by the planner
//! from aliases); property accesses carry the resolved `(label, PropId)` so
//! evaluation never does name lookups.
//!
//! A statement *template* holds [`Expr::Param`] slots where its source text
//! had value literals. Verification and costing read a slot as a constant
//! of its declared type; [`Expr::bind`] turns every slot into a constant
//! before a plan executes, so engines never evaluate one.

use gs_graph::{GraphError, LabelId, PropId, Result, Value, ValueType};
use gs_grin::{CmpOp, GrinGraph};

/// Binary operators (arithmetic + comparison + boolean).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Aggregate functions used by `GROUP` / `WITH`.
#[derive(Clone, Debug, PartialEq)]
pub enum AggFunc {
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
    Collect,
}

/// A parameter slot of a statement template: the `index`-th value of the
/// statement's binds, of static type `ty` (every binding of the template
/// has this type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Slot {
    pub index: usize,
    pub ty: ValueType,
}

impl Slot {
    /// The value bound to this slot: `binds[index]`, which must have the
    /// slot's type.
    pub(crate) fn bound<'a>(&self, binds: &'a [Value]) -> Result<&'a Value> {
        let v = binds.get(self.index).ok_or_else(|| {
            GraphError::Query(format!("parameter slot {} is unbound", self.index))
        })?;
        if v.value_type() != self.ty {
            return Err(GraphError::Type(format!(
                "parameter slot {} is {:?}, bound to {:?}",
                self.index,
                self.ty,
                v.value_type()
            )));
        }
        Ok(v)
    }
}

/// A scalar expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// A template's parameter slot; a constant once bound.
    Param(Slot),
    /// The whole value of a record column.
    Column(usize),
    /// A vertex property: `record[col]` must be `Value::Vertex`.
    VertexProp {
        col: usize,
        label: LabelId,
        prop: PropId,
    },
    /// An edge property: `record[col]` must be `Value::Edge`.
    EdgeProp {
        col: usize,
        label: LabelId,
        prop: PropId,
    },
    /// The external id of a vertex column (Cypher's `id(v)` / LDBC `v.id`).
    VertexId {
        col: usize,
        label: LabelId,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Not(Box<Expr>),
    /// Membership in a constant list (a [`Expr::Const`] or a slot); a
    /// scalar constant is a one-element list.
    In {
        expr: Box<Expr>,
        list: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: `lhs <op> rhs`.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// How many values an `IN` list of this expression holds, when known
    /// without binding (a list-typed slot has no static length).
    pub fn list_len(&self) -> Option<usize> {
        match self {
            Expr::Const(Value::List(items)) => Some(items.len()),
            Expr::Param(Slot {
                ty: ValueType::List,
                ..
            }) => None,
            _ => Some(1),
        }
    }

    /// Replaces every parameter slot with its bound constant.
    pub fn bind(&mut self, binds: &[Value]) -> Result<()> {
        match self {
            Expr::Param(slot) => *self = Expr::Const(slot.bound(binds)?.clone()),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.bind(binds)?;
                rhs.bind(binds)?;
            }
            Expr::Not(e) => e.bind(binds)?,
            Expr::In { expr, list } => {
                expr.bind(binds)?;
                list.bind(binds)?;
            }
            Expr::Const(_)
            | Expr::Column(_)
            | Expr::VertexProp { .. }
            | Expr::EdgeProp { .. }
            | Expr::VertexId { .. } => {}
        }
        Ok(())
    }

    /// Evaluates against a record within a graph.
    pub fn eval(&self, rec: &[Value], graph: &dyn GrinGraph) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Param(slot) => Err(GraphError::Query(format!(
                "parameter slot {} is unbound",
                slot.index
            ))),
            Expr::Column(i) => rec
                .get(*i)
                .cloned()
                .ok_or_else(|| GraphError::Query(format!("column {i} out of range"))),
            Expr::VertexProp { col, label, prop } => match rec.get(*col) {
                Some(Value::Vertex(v, _)) => Ok(graph.vertex_property(*label, *v, *prop)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(GraphError::Type(format!(
                    "vertex property access on {:?}",
                    other.value_type()
                ))),
            },
            Expr::EdgeProp { col, label, prop } => match rec.get(*col) {
                Some(Value::Edge(e, ..)) => Ok(graph.edge_property(*label, *e, *prop)),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(GraphError::Type(format!(
                    "edge property access on {:?}",
                    other.value_type()
                ))),
            },
            Expr::VertexId { col, label } => match rec.get(*col) {
                Some(Value::Vertex(v, _)) => Ok(graph
                    .external_id(*label, *v)
                    .map_or(Value::Null, |e| Value::Int(e as i64))),
                Some(Value::Null) | None => Ok(Value::Null),
                Some(other) => Err(GraphError::Type(format!(
                    "id() on {:?}",
                    other.value_type()
                ))),
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.eval(rec, graph)?;
                // short-circuit booleans
                match op {
                    BinOp::And => {
                        if l.as_bool() == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = rhs.eval(rec, graph)?;
                        return Ok(Value::Bool(
                            l.as_bool().unwrap_or(false) && r.as_bool().unwrap_or(false),
                        ));
                    }
                    BinOp::Or => {
                        if l.as_bool() == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = rhs.eval(rec, graph)?;
                        return Ok(Value::Bool(
                            l.as_bool().unwrap_or(false) || r.as_bool().unwrap_or(false),
                        ));
                    }
                    _ => {}
                }
                let r = rhs.eval(rec, graph)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Not(e) => {
                let v = e.eval(rec, graph)?;
                Ok(Value::Bool(!v.as_bool().unwrap_or(false)))
            }
            Expr::In { expr, list } => {
                let v = expr.eval(rec, graph)?;
                if v.is_null() {
                    return Ok(Value::Bool(false));
                }
                let hit = |items: &[Value]| items.iter().any(|x| v.total_cmp(x).is_eq());
                Ok(Value::Bool(match &**list {
                    Expr::Const(Value::List(items)) => hit(items),
                    other => match other.eval(rec, graph)? {
                        Value::List(items) => hit(&items),
                        single => hit(std::slice::from_ref(&single)),
                    },
                }))
            }
        }
    }

    /// Evaluates as a boolean predicate (SQL semantics: null → false).
    pub fn eval_bool(&self, rec: &[Value], graph: &dyn GrinGraph) -> Result<bool> {
        Ok(self.eval(rec, graph)?.as_bool().unwrap_or(false))
    }

    /// Collects the record columns this expression reads.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Const(_) | Expr::Param(_) => {}
            Expr::Column(i)
            | Expr::VertexProp { col: i, .. }
            | Expr::EdgeProp { col: i, .. }
            | Expr::VertexId { col: i, .. } => out.push(*i),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            Expr::Not(e) => e.referenced_columns(out),
            Expr::In { expr, list } => {
                expr.referenced_columns(out);
                list.referenced_columns(out);
            }
        }
    }

    /// Rewrites column indexes through `map` (used when projections reshape
    /// the record). Returns `None` if a referenced column is not mapped.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> Option<usize>) -> Option<Expr> {
        Some(match self {
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Param(slot) => Expr::Param(*slot),
            Expr::Column(i) => Expr::Column(map(*i)?),
            Expr::VertexProp { col, label, prop } => Expr::VertexProp {
                col: map(*col)?,
                label: *label,
                prop: *prop,
            },
            Expr::EdgeProp { col, label, prop } => Expr::EdgeProp {
                col: map(*col)?,
                label: *label,
                prop: *prop,
            },
            Expr::VertexId { col, label } => Expr::VertexId {
                col: map(*col)?,
                label: *label,
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.remap_columns(map)?),
                rhs: Box::new(rhs.remap_columns(map)?),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(map)?)),
            Expr::In { expr, list } => Expr::In {
                expr: Box::new(expr.remap_columns(map)?),
                list: Box::new(list.remap_columns(map)?),
            },
        })
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(CmpOp::Eq.eval(l, r))),
        Ne => Ok(Value::Bool(CmpOp::Ne.eval(l, r))),
        Lt => Ok(Value::Bool(CmpOp::Lt.eval(l, r))),
        Le => Ok(Value::Bool(CmpOp::Le.eval(l, r))),
        Gt => Ok(Value::Bool(CmpOp::Gt.eval(l, r))),
        Ge => Ok(Value::Bool(CmpOp::Ge.eval(l, r))),
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // integer arithmetic when both sides are integral
            if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
                return Ok(match op {
                    Add => Value::Int(a.wrapping_add(b)),
                    Sub => Value::Int(a.wrapping_sub(b)),
                    Mul => Value::Int(a.wrapping_mul(b)),
                    Div => {
                        if b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a / b)
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (a, b) = (
                l.as_float()
                    .ok_or_else(|| GraphError::Type(format!("arith on {l:?}")))?,
                r.as_float()
                    .ok_or_else(|| GraphError::Type(format!("arith on {r:?}")))?,
            );
            Ok(match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => Value::Float(a / b),
                _ => unreachable!(),
            })
        }
        And | Or => unreachable!("handled with short-circuit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;

    fn g() -> MockGraph {
        MockGraph::new(3, &[(0, 1, 2.5), (1, 2, 5.0)])
    }

    #[test]
    fn arithmetic_and_comparison() {
        let g = g();
        let rec = vec![Value::Int(10), Value::Int(3)];
        let e = Expr::bin(
            BinOp::Gt,
            Expr::bin(BinOp::Mul, Expr::Column(0), Expr::Const(Value::Int(2))),
            Expr::Const(Value::Int(19)),
        );
        assert_eq!(e.eval(&rec, &g).unwrap(), Value::Bool(true));
        let e2 = Expr::bin(BinOp::Div, Expr::Column(0), Expr::Column(1));
        assert_eq!(e2.eval(&rec, &g).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_null() {
        let g = g();
        let e = Expr::bin(
            BinOp::Div,
            Expr::Const(Value::Int(1)),
            Expr::Const(Value::Int(0)),
        );
        assert_eq!(e.eval(&[], &g).unwrap(), Value::Null);
    }

    #[test]
    fn mixed_arith_promotes_to_float() {
        let g = g();
        let e = Expr::bin(
            BinOp::Add,
            Expr::Const(Value::Int(1)),
            Expr::Const(Value::Float(0.5)),
        );
        assert_eq!(e.eval(&[], &g).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn vertex_and_edge_props() {
        let mut mg = g();
        mg.set_tag(gs_graph::VId(1), 7);
        let rec = vec![
            Value::Vertex(gs_graph::VId(1), LabelId(0)),
            Value::Edge(
                gs_graph::EId(0),
                LabelId(0),
                gs_graph::VId(0),
                gs_graph::VId(1),
            ),
        ];
        let e = Expr::VertexProp {
            col: 0,
            label: LabelId(0),
            prop: PropId(0),
        };
        assert_eq!(e.eval(&rec, &mg).unwrap(), Value::Int(7));
        let w = Expr::EdgeProp {
            col: 1,
            label: LabelId(0),
            prop: PropId(0),
        };
        assert!(w.eval(&rec, &mg).unwrap().as_float().is_some());
    }

    #[test]
    fn in_list_and_not() {
        let g = g();
        let e = Expr::In {
            expr: Box::new(Expr::Const(Value::Int(3))),
            list: Box::new(Expr::Const(Value::List(vec![Value::Int(1), Value::Int(3)]))),
        };
        assert_eq!(e.eval(&[], &g).unwrap(), Value::Bool(true));
        let ne = Expr::Not(Box::new(e));
        assert_eq!(ne.eval(&[], &g).unwrap(), Value::Bool(false));
    }

    #[test]
    fn short_circuit_and_or() {
        let g = g();
        // (false AND <out-of-range column>) must not error
        let e = Expr::bin(
            BinOp::And,
            Expr::Const(Value::Bool(false)),
            Expr::Column(99),
        );
        assert_eq!(e.eval(&[], &g).unwrap(), Value::Bool(false));
        let e2 = Expr::bin(BinOp::Or, Expr::Const(Value::Bool(true)), Expr::Column(99));
        assert_eq!(e2.eval(&[], &g).unwrap(), Value::Bool(true));
    }

    #[test]
    fn remap_columns_total_and_partial() {
        let e = Expr::bin(BinOp::Add, Expr::Column(0), Expr::Column(2));
        let shifted = e.remap_columns(&|i| Some(i + 10)).unwrap();
        let mut cols = Vec::new();
        shifted.referenced_columns(&mut cols);
        assert_eq!(cols, vec![10, 12]);
        assert!(e
            .remap_columns(&|i| if i == 0 { Some(0) } else { None })
            .is_none());
    }

    #[test]
    fn null_propagation() {
        let g = g();
        let e = Expr::bin(
            BinOp::Add,
            Expr::Const(Value::Null),
            Expr::Const(Value::Int(1)),
        );
        assert_eq!(e.eval(&[], &g).unwrap(), Value::Null);
        let cmp = Expr::bin(
            BinOp::Eq,
            Expr::Const(Value::Null),
            Expr::Const(Value::Null),
        );
        assert_eq!(cmp.eval(&[], &g).unwrap(), Value::Bool(false));
    }
}
