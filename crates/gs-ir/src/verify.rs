//! Static plan verification and linting (`gs-irlint`).
//!
//! GraphIR is the seam between frontends (`gs-lang`), the optimizer
//! (`gs-optimizer`) and the execution engines — which makes it the place
//! where a malformed plan can silently cross a layer boundary and only
//! blow up (or return wrong rows) deep inside an engine. This module is a
//! schema-aware static analysis over [`PhysicalPlan`]; a [`LogicalPlan`]
//! is checked through its naive lowering, with findings anchored to the
//! logical op that produced them:
//!
//! * **type checks** — every operator is checked against the
//!   [`GraphSchema`] and the flowing [`Layout`]: aliases resolve, column
//!   kinds match what each op consumes/produces, expressions are
//!   well-typed against vertex/edge property types, expand directions
//!   respect edge-label endpoint constraints;
//! * **dataflow invariants** — layout widths line up across op
//!   boundaries, column references stay in range, projection outputs stay
//!   dense and alias-unique;
//! * **lints** — plan smells reported as warnings: unbounded scans,
//!   order-without-limit, cross-product scans, dedup-after-order,
//!   constant predicates.
//!
//! Every check emits a [`Diagnostic`] with a stable code (`E0xx` errors,
//! `W1xx` warnings); [`VerifyLevel`] decides what happens on submit
//! (`Off`/`Warn`/`Deny`). Verification runs at every stack boundary: both
//! frontends verify after lowering, the optimizer verifies after each RBO
//! rule (attributing failures to the rule), engines verify on submit, and
//! `flexbuild` folds rejections into its structured build errors.

use crate::expr::{BinOp, Expr};
use crate::logical::{LogicalPlan, ProjectItem};
use crate::physical::{declaration_order, lower_traced, ExpandOut, PhysicalOp, PhysicalPlan};
use crate::record::{ColumnKind, Layout};
use gs_graph::schema::GraphSchema;
use gs_graph::{GraphError, LabelId, Result, ValueType};
use gs_grin::Direction;
use std::fmt;

// ---------------------------------------------------------------------
// Diagnostic codes
// ---------------------------------------------------------------------

/// A label id that is not defined in the schema.
pub const E_UNKNOWN_LABEL: &str = "E001";
/// An alias referenced by an op is not bound in the incoming layout.
pub const E_UNKNOWN_ALIAS: &str = "E002";
/// A column holds the wrong [`ColumnKind`] for the operation.
pub const E_KIND_MISMATCH: &str = "E003";
/// An expansion direction contradicts the edge label's endpoint labels.
pub const E_ENDPOINT_MISMATCH: &str = "E004";
/// A column index is out of range for the record width at that point.
pub const E_COLUMN_RANGE: &str = "E005";
/// A property access names a property the schema marks absent (or binds
/// the wrong label).
pub const E_UNKNOWN_PROPERTY: &str = "E006";
/// An expression is ill-typed (arithmetic on strings, boolean connectives
/// over non-booleans, non-boolean predicates).
pub const E_TYPE_MISMATCH: &str = "E007";
/// The plan's declared layout disagrees with the layout the ops produce.
pub const E_LAYOUT_MISMATCH: &str = "E008";
/// A `Match` pattern fails structural validation.
pub const E_BAD_PATTERN: &str = "E009";
/// Duplicate alias within one layout stage (projection outputs, bindings).
pub const E_DUPLICATE_ALIAS: &str = "E010";

/// Scan with no predicate, no index lookup, and no downstream
/// cardinality-reducing op.
pub const W_UNBOUNDED_SCAN: &str = "W101";
/// Order with no fused limit, no later `Limit`, over unaggregated input.
pub const W_ORDER_NO_LIMIT: &str = "W102";
/// A scan over a non-empty record stream (cross-product expansion).
pub const W_CROSS_PRODUCT: &str = "W103";
/// Dedup downstream of an order (distinct-then-sort is cheaper).
pub const W_DEDUP_AFTER_ORDER: &str = "W104";
/// A constant predicate (always true or always false).
pub const W_CONST_PREDICATE: &str = "W105";

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// One verifier finding, with a span-style anchor (`op_index`) into the
/// plan and, when raised under the optimizer, the rewrite rule to blame.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` / `W1xx`).
    pub code: &'static str,
    pub severity: Severity,
    /// Index of the op the finding anchors to (`None` = whole plan).
    pub op_index: Option<usize>,
    /// The rewrite rule that produced the offending plan, if known.
    pub rule: Option<String>,
    pub message: String,
}

impl Diagnostic {
    /// An error with no op anchor or rule yet.
    pub(crate) fn error(code: &'static str, message: String) -> Self {
        Self {
            code,
            severity: Severity::Error,
            op_index: None,
            rule: None,
            message,
        }
    }
}

/// A failed lowering surfaces as a query error carrying the diagnostic.
impl From<Diagnostic> for GraphError {
    fn from(d: Diagnostic) -> Self {
        GraphError::Query(d.to_string())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{}[{sev}]", self.code)?;
        if let Some(i) = self.op_index {
            write!(f, " op#{i}")?;
        }
        if let Some(r) = &self.rule {
            write!(f, " (after {r})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// What to do with verifier findings at a submit boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyLevel {
    /// Skip verification entirely.
    Off,
    /// Verify and record telemetry, but never reject.
    #[default]
    Warn,
    /// Reject plans with error-severity diagnostics (warnings never block).
    Deny,
}

/// The outcome of a verification pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// No diagnostics at all (errors or warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether a diagnostic with `code` was emitted.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Tags every diagnostic with the rewrite rule that produced the plan.
    pub fn with_rule(mut self, rule: &str) -> Self {
        for d in &mut self.diagnostics {
            d.rule = Some(rule.to_string());
        }
        self
    }

    /// One line per diagnostic.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Errors rendered on one line (warnings omitted).
    pub fn render_errors(&self) -> String {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Fails if any error-severity diagnostic was emitted (warnings pass).
    pub fn check(&self, context: &str) -> Result<()> {
        if self.error_count() == 0 {
            return Ok(());
        }
        Err(GraphError::Query(format!(
            "plan verification failed in {context}: {}",
            self.render_errors()
        )))
    }
}

/// Applies a [`VerifyLevel`] to a report at a submit boundary, recording
/// `ir.verify.*` telemetry counters. Only `Deny` + errors rejects.
pub fn enforce(report: &VerifyReport, level: VerifyLevel, context: &str) -> Result<()> {
    if level == VerifyLevel::Off {
        return Ok(());
    }
    gs_telemetry::counter!("ir.verify.plans", at = context; 1);
    gs_telemetry::counter!("ir.verify.errors", at = context; report.error_count() as u64);
    gs_telemetry::counter!("ir.verify.warnings", at = context; report.warning_count() as u64);
    if level == VerifyLevel::Deny && report.error_count() > 0 {
        gs_telemetry::counter!("ir.verify.denied", at = context; 1);
        return report.check(context);
    }
    Ok(())
}

/// Engine-side submit hook: verify a physical plan against the graph's
/// schema under `level`. `Off` skips the pass entirely.
pub fn verify_on_submit(
    plan: &PhysicalPlan,
    schema: &GraphSchema,
    level: VerifyLevel,
    context: &str,
) -> Result<()> {
    if level == VerifyLevel::Off {
        return Ok(());
    }
    enforce(&verify_physical(plan, schema), level, context)
}

// ---------------------------------------------------------------------
// Checker core
// ---------------------------------------------------------------------

struct Checker<'a> {
    schema: &'a GraphSchema,
    diags: Vec<Diagnostic>,
    op_index: Option<usize>,
}

impl<'a> Checker<'a> {
    fn new(schema: &'a GraphSchema) -> Self {
        Self {
            schema,
            diags: Vec::new(),
            op_index: None,
        }
    }

    fn emit(&mut self, code: &'static str, severity: Severity, message: String) {
        self.diags.push(Diagnostic {
            code,
            severity,
            op_index: self.op_index,
            rule: None,
            message,
        });
    }

    fn error(&mut self, code: &'static str, message: String) {
        self.emit(code, Severity::Error, message);
    }

    fn warn(&mut self, code: &'static str, message: String) {
        self.emit(code, Severity::Warning, message);
    }

    fn finish(self) -> VerifyReport {
        VerifyReport {
            diagnostics: self.diags,
        }
    }

    /// Vertex label known to the schema?
    fn check_vlabel(&mut self, l: LabelId) -> bool {
        if self.schema.vertex_label(l).is_err() {
            self.error(E_UNKNOWN_LABEL, format!("unknown vertex label {l:?}"));
            return false;
        }
        true
    }

    /// Edge label known to the schema?
    fn check_elabel(&mut self, l: LabelId) -> bool {
        if self.schema.edge_label(l).is_err() {
            self.error(E_UNKNOWN_LABEL, format!("unknown edge label {l:?}"));
            return false;
        }
        true
    }

    /// Checks `src_label --elabel/dir--> far` against the edge label's
    /// endpoint constraint; `far = None` when the far side is not bound.
    fn check_endpoints(
        &mut self,
        src_label: LabelId,
        elabel: LabelId,
        dir: Direction,
        far: Option<LabelId>,
    ) {
        let Ok(def) = self.schema.edge_label(elabel) else {
            self.error(E_UNKNOWN_LABEL, format!("unknown edge label {elabel:?}"));
            return;
        };
        let (src, dst, name) = (def.src, def.dst, def.name.clone());
        match dir {
            Direction::Out => {
                if src_label != src {
                    self.error(
                        E_ENDPOINT_MISMATCH,
                        format!(
                            "out() over `{name}` from label {src_label:?}, edge starts at {src:?}"
                        ),
                    );
                }
                if let Some(f) = far {
                    if f != dst {
                        self.error(
                            E_ENDPOINT_MISMATCH,
                            format!("out() over `{name}` reaches {dst:?}, plan binds {f:?}"),
                        );
                    }
                }
            }
            Direction::In => {
                if src_label != dst {
                    self.error(
                        E_ENDPOINT_MISMATCH,
                        format!(
                            "in() over `{name}` from label {src_label:?}, edge ends at {dst:?}"
                        ),
                    );
                }
                if let Some(f) = far {
                    if f != src {
                        self.error(
                            E_ENDPOINT_MISMATCH,
                            format!("in() over `{name}` reaches {src:?}, plan binds {f:?}"),
                        );
                    }
                }
            }
            Direction::Both => {
                if src_label != src && src_label != dst {
                    self.error(
                        E_ENDPOINT_MISMATCH,
                        format!("both() over `{name}` from label {src_label:?}, edge connects {src:?}-{dst:?}"),
                    );
                }
                if let Some(f) = far {
                    if src != dst {
                        self.error(
                            E_ENDPOINT_MISMATCH,
                            format!("both() over heterogeneous `{name}` cannot bind one far label"),
                        );
                    } else if f != src {
                        self.error(
                            E_ENDPOINT_MISMATCH,
                            format!("both() over `{name}` reaches {src:?}, plan binds {f:?}"),
                        );
                    }
                }
            }
        }
    }

    /// Static type of an expression over columns of the given kinds.
    /// `None` = statically unknown (scalar columns, nulls).
    fn expr_type(&mut self, e: &Expr, kinds: &[ColumnKind]) -> Option<ValueType> {
        match e {
            Expr::Const(v) => {
                if v.is_null() {
                    None
                } else {
                    Some(v.value_type())
                }
            }
            // a slot is a constant of its declared type in every binding
            Expr::Param(slot) => (slot.ty != ValueType::Null).then_some(slot.ty),
            Expr::Column(i) => match kinds.get(*i) {
                Some(ColumnKind::Vertex(_)) => Some(ValueType::Vertex),
                Some(ColumnKind::Edge(_)) => Some(ValueType::Edge),
                Some(ColumnKind::Scalar) => None,
                None => {
                    self.error(
                        E_COLUMN_RANGE,
                        format!("column {i} out of range (record width {})", kinds.len()),
                    );
                    None
                }
            },
            Expr::VertexProp { col, label, prop } => {
                match kinds.get(*col) {
                    Some(ColumnKind::Vertex(l)) => {
                        if l != label {
                            self.error(
                                E_UNKNOWN_PROPERTY,
                                format!(
                                    "vertex property bound to label {label:?} but column {col} holds {l:?}"
                                ),
                            );
                            return None;
                        }
                    }
                    Some(other) => {
                        self.error(
                            E_KIND_MISMATCH,
                            format!("vertex property access on {other:?} column {col}"),
                        );
                        return None;
                    }
                    None => {
                        self.error(
                            E_COLUMN_RANGE,
                            format!("column {col} out of range (record width {})", kinds.len()),
                        );
                        return None;
                    }
                }
                let Ok(def) = self.schema.vertex_label(*label) else {
                    self.error(E_UNKNOWN_LABEL, format!("unknown vertex label {label:?}"));
                    return None;
                };
                match def.properties.iter().find(|p| p.id == *prop) {
                    Some(p) => Some(p.value_type),
                    None => {
                        self.error(
                            E_UNKNOWN_PROPERTY,
                            format!("vertex label `{}` has no property {prop:?}", def.name),
                        );
                        None
                    }
                }
            }
            Expr::EdgeProp { col, label, prop } => {
                match kinds.get(*col) {
                    Some(ColumnKind::Edge(l)) => {
                        if l != label {
                            self.error(
                                E_UNKNOWN_PROPERTY,
                                format!(
                                    "edge property bound to label {label:?} but column {col} holds {l:?}"
                                ),
                            );
                            return None;
                        }
                    }
                    Some(other) => {
                        self.error(
                            E_KIND_MISMATCH,
                            format!("edge property access on {other:?} column {col}"),
                        );
                        return None;
                    }
                    None => {
                        self.error(
                            E_COLUMN_RANGE,
                            format!("column {col} out of range (record width {})", kinds.len()),
                        );
                        return None;
                    }
                }
                let Ok(def) = self.schema.edge_label(*label) else {
                    self.error(E_UNKNOWN_LABEL, format!("unknown edge label {label:?}"));
                    return None;
                };
                match def.properties.iter().find(|p| p.id == *prop) {
                    Some(p) => Some(p.value_type),
                    None => {
                        self.error(
                            E_UNKNOWN_PROPERTY,
                            format!("edge label `{}` has no property {prop:?}", def.name),
                        );
                        None
                    }
                }
            }
            Expr::VertexId { col, .. } => {
                match kinds.get(*col) {
                    Some(ColumnKind::Vertex(_)) => {}
                    Some(other) => {
                        self.error(E_KIND_MISMATCH, format!("id() on {other:?} column {col}"));
                    }
                    None => {
                        self.error(
                            E_COLUMN_RANGE,
                            format!("column {col} out of range (record width {})", kinds.len()),
                        );
                    }
                }
                Some(ValueType::Int)
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.expr_type(lhs, kinds);
                let rt = self.expr_type(rhs, kinds);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        let numeric = |t: ValueType| {
                            matches!(
                                t,
                                ValueType::Int
                                    | ValueType::Float
                                    | ValueType::Date
                                    | ValueType::Bool
                            )
                        };
                        for t in [lt, rt].into_iter().flatten() {
                            if !numeric(t) {
                                self.error(E_TYPE_MISMATCH, format!("arithmetic on {t:?} operand"));
                                return None;
                            }
                        }
                        match (lt, rt) {
                            (Some(ValueType::Float), _) | (_, Some(ValueType::Float)) => {
                                Some(ValueType::Float)
                            }
                            (Some(_), Some(_)) => Some(ValueType::Int),
                            _ => None,
                        }
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        Some(ValueType::Bool)
                    }
                    BinOp::And | BinOp::Or => {
                        for t in [lt, rt].into_iter().flatten() {
                            if t != ValueType::Bool {
                                self.error(
                                    E_TYPE_MISMATCH,
                                    format!("boolean connective over {t:?} operand"),
                                );
                            }
                        }
                        Some(ValueType::Bool)
                    }
                }
            }
            Expr::Not(inner) => {
                if let Some(t) = self.expr_type(inner, kinds) {
                    if t != ValueType::Bool {
                        self.error(E_TYPE_MISMATCH, format!("NOT over {t:?} operand"));
                    }
                }
                Some(ValueType::Bool)
            }
            Expr::In { expr, .. } => {
                self.expr_type(expr, kinds);
                Some(ValueType::Bool)
            }
        }
    }

    /// Checks a predicate expression: well-typed and boolean-valued.
    fn check_predicate(&mut self, p: &Expr, kinds: &[ColumnKind], what: &str) {
        if matches!(p, Expr::Const(_) | Expr::Param(_)) {
            self.warn(W_CONST_PREDICATE, format!("{what} predicate is a constant"));
        }
        if let Some(t) = self.expr_type(p, kinds) {
            if t != ValueType::Bool {
                self.error(
                    E_TYPE_MISMATCH,
                    format!("{what} predicate has type {t:?}, expected bool"),
                );
            }
        }
    }
}

/// Column kinds of a layout, in column order.
fn layout_kinds(layout: &Layout) -> Vec<ColumnKind> {
    (0..layout.width())
        .map(|i| layout.kind(i).clone())
        .collect()
}

// ---------------------------------------------------------------------
// Logical verification
// ---------------------------------------------------------------------

/// Verifies a logical plan against a schema through its naive lowering:
/// a plan that cannot be lowered reports the lowering's diagnostic, and
/// every finding on the lowered plan is anchored back to the logical op
/// that produced the offending physical op.
pub fn verify_logical(plan: &LogicalPlan, schema: &GraphSchema) -> VerifyReport {
    match lower_traced(plan, false, false, declaration_order) {
        Ok((physical, origins)) => {
            let mut report = verify_physical(&physical, schema);
            for d in &mut report.diagnostics {
                d.op_index = d.op_index.map(|i| origins[i]);
            }
            report
        }
        Err(d) => VerifyReport {
            diagnostics: vec![d],
        },
    }
}

// ---------------------------------------------------------------------
// Physical verification
// ---------------------------------------------------------------------

/// Verifies a physical plan against a schema, reconstructing the record
/// kinds op by op with [`PhysicalOp::shape`] (mirroring the reference
/// executor's semantics).
pub fn verify_physical(plan: &PhysicalPlan, schema: &GraphSchema) -> VerifyReport {
    let mut c = Checker::new(schema);
    let mut kinds: Vec<ColumnKind> = Vec::new();
    let mut aggregated = false;
    let mut saw_order = false;
    for (i, op) in plan.ops.iter().enumerate() {
        c.op_index = Some(i);
        match op {
            PhysicalOp::Scan {
                label,
                predicate,
                index_lookup,
            } => {
                if c.check_vlabel(*label) {
                    if let Some(p) = predicate {
                        c.check_predicate(p, &[ColumnKind::Vertex(*label)], "scan");
                    }
                    if let Some((prop, _)) = index_lookup {
                        let def = c.schema.vertex_label(*label).expect("checked");
                        if !def.properties.iter().any(|p| p.id == *prop) {
                            let name = def.name.clone();
                            c.error(
                                E_UNKNOWN_PROPERTY,
                                format!("index lookup on `{name}` names absent property {prop:?}"),
                            );
                        }
                    }
                }
                if !kinds.is_empty() {
                    c.warn(
                        W_CROSS_PRODUCT,
                        format!("scan cross-products with {} bound columns", kinds.len()),
                    );
                }
                if predicate.is_none()
                    && index_lookup.is_none()
                    && !plan.ops[i + 1..].iter().any(physical_reduces)
                {
                    c.warn(
                        W_UNBOUNDED_SCAN,
                        "scan has no predicate and nothing downstream bounds it".to_string(),
                    );
                }
            }
            PhysicalOp::Expand {
                src_col,
                src_label,
                elabel,
                dir,
                predicate,
                out,
            } => {
                match kinds.get(*src_col) {
                    Some(ColumnKind::Vertex(l)) => {
                        if l != src_label {
                            c.error(
                                E_KIND_MISMATCH,
                                format!(
                                    "expand source col {src_col} holds {l:?}, op expects {src_label:?}"
                                ),
                            );
                        }
                    }
                    Some(other) => c.error(
                        E_KIND_MISMATCH,
                        format!("expand source col {src_col} is {other:?}, expected vertex"),
                    ),
                    None => c.error(
                        E_COLUMN_RANGE,
                        format!(
                            "expand source col {src_col} out of range (width {})",
                            kinds.len()
                        ),
                    ),
                }
                let far = match out {
                    ExpandOut::Edge => None,
                    ExpandOut::VertexFused { label } => Some(*label),
                };
                c.check_endpoints(*src_label, *elabel, *dir, far);
                match out {
                    ExpandOut::Edge => {
                        if let Some(p) = predicate {
                            c.check_predicate(p, &[ColumnKind::Edge(*elabel)], "expand");
                        }
                    }
                    ExpandOut::VertexFused { label } => {
                        c.check_vlabel(*label);
                        if let Some(p) = predicate {
                            c.check_predicate(p, &[ColumnKind::Vertex(*label)], "fused expand");
                        }
                    }
                }
            }
            PhysicalOp::GetVertex {
                edge_col,
                label,
                predicate,
                ..
            } => {
                match kinds.get(*edge_col) {
                    Some(ColumnKind::Edge(el)) => {
                        if let Ok(def) = c.schema.edge_label(*el) {
                            if *label != def.src && *label != def.dst {
                                c.error(
                                    E_ENDPOINT_MISMATCH,
                                    format!(
                                        "get-vertex binds {label:?}, but `{}` connects {:?}-{:?}",
                                        def.name, def.src, def.dst
                                    ),
                                );
                            }
                        }
                    }
                    Some(other) => c.error(
                        E_KIND_MISMATCH,
                        format!("get-vertex col {edge_col} is {other:?}, expected edge"),
                    ),
                    None => c.error(
                        E_COLUMN_RANGE,
                        format!(
                            "get-vertex col {edge_col} out of range (width {})",
                            kinds.len()
                        ),
                    ),
                }
                if c.check_vlabel(*label) {
                    if let Some(p) = predicate {
                        c.check_predicate(p, &[ColumnKind::Vertex(*label)], "get-vertex");
                    }
                }
            }
            PhysicalOp::ExpandIntersect {
                src_col,
                elabel,
                dir,
                dst_col,
                predicate,
                ..
            } => {
                let end_label = |c: &mut Checker, col: usize, what: &str| -> Option<LabelId> {
                    match kinds.get(col) {
                        Some(ColumnKind::Vertex(l)) => Some(*l),
                        Some(other) => {
                            c.error(
                                E_KIND_MISMATCH,
                                format!("intersect {what} col {col} is {other:?}, expected vertex"),
                            );
                            None
                        }
                        None => {
                            c.error(
                                E_COLUMN_RANGE,
                                format!(
                                    "intersect {what} col {col} out of range (width {})",
                                    kinds.len()
                                ),
                            );
                            None
                        }
                    }
                };
                let sl = end_label(&mut c, *src_col, "source");
                let dl = end_label(&mut c, *dst_col, "target");
                if let Some(sl) = sl {
                    c.check_endpoints(sl, *elabel, *dir, dl);
                } else {
                    c.check_elabel(*elabel);
                }
                if let Some(p) = predicate {
                    c.check_predicate(p, &[ColumnKind::Edge(*elabel)], "intersect");
                }
            }
            PhysicalOp::Select { predicate } => {
                c.check_predicate(predicate, &kinds, "select");
            }
            PhysicalOp::Project { items } => {
                let mut names: Vec<&str> = Vec::new();
                for (it, name) in items {
                    if names.contains(&name.as_str()) {
                        c.error(
                            E_DUPLICATE_ALIAS,
                            format!("projection output `{name}` duplicated"),
                        );
                    }
                    names.push(name);
                    let (ProjectItem::Expr(e) | ProjectItem::Agg(_, e)) = it;
                    aggregated |= matches!(it, ProjectItem::Agg(..));
                    c.expr_type(e, &kinds);
                }
            }
            PhysicalOp::Order { keys, limit } => {
                for (e, _) in keys {
                    c.expr_type(e, &kinds);
                }
                saw_order = true;
                let later_limit = plan.ops[i + 1..]
                    .iter()
                    .any(|o| matches!(o, PhysicalOp::Limit { .. }));
                if limit.is_none() && !later_limit && !aggregated {
                    c.warn(
                        W_ORDER_NO_LIMIT,
                        "order over unaggregated input with no limit".to_string(),
                    );
                }
            }
            PhysicalOp::Dedup { columns } => {
                for col in columns {
                    if *col >= kinds.len() {
                        c.error(
                            E_COLUMN_RANGE,
                            format!("dedup col {col} out of range (width {})", kinds.len()),
                        );
                    }
                }
                if saw_order {
                    c.warn(
                        W_DEDUP_AFTER_ORDER,
                        "dedup after order; deduplicating first is cheaper".to_string(),
                    );
                }
            }
            PhysicalOp::Limit { .. } => {}
        }
        op.shape(&mut kinds);
    }
    c.op_index = None;
    // final dataflow invariant: the declared output layout matches the
    // reconstructed kinds (an empty declared layout means "unspecified",
    // the convention hand-built test plans use)
    if plan.layout.width() > 0 {
        let declared = layout_kinds(&plan.layout);
        if declared.len() != kinds.len() {
            c.error(
                E_LAYOUT_MISMATCH,
                format!(
                    "ops produce {} columns, declared layout has {}",
                    kinds.len(),
                    declared.len()
                ),
            );
        } else {
            for (i, (got, want)) in kinds.iter().zip(declared.iter()).enumerate() {
                if got != want {
                    c.error(
                        E_LAYOUT_MISMATCH,
                        format!("output column {i} is {got:?}, declared layout says {want:?}"),
                    );
                }
            }
        }
    }
    c.finish()
}

/// Ops that bound or shrink the record stream (used by the unbounded-scan
/// lint).
fn physical_reduces(op: &PhysicalOp) -> bool {
    match op {
        PhysicalOp::Select { .. }
        | PhysicalOp::Limit { .. }
        | PhysicalOp::Dedup { .. }
        | PhysicalOp::ExpandIntersect { .. } => true,
        PhysicalOp::Order { limit, .. } => limit.is_some(),
        PhysicalOp::Project { items } => items
            .iter()
            .any(|(it, _)| matches!(it, ProjectItem::Agg(..))),
        PhysicalOp::Scan {
            predicate,
            index_lookup,
            ..
        } => predicate.is_some() || index_lookup.is_some(),
        PhysicalOp::Expand { predicate, .. } | PhysicalOp::GetVertex { predicate, .. } => {
            predicate.is_some()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::AggFunc;
    use crate::logical::LogicalOp;
    use crate::pattern::{Pattern, PatternEdge, PatternVertex};
    use crate::physical::lower_naive;
    use gs_graph::{Value, ValueType};

    /// Person --BUY--> Item, Person --KNOWS--> Person.
    fn schema() -> GraphSchema {
        let mut s = GraphSchema::new();
        let person = s.add_vertex_label(
            "Person",
            &[("name", ValueType::Str), ("age", ValueType::Int)],
        );
        let item = s.add_vertex_label("Item", &[("price", ValueType::Float)]);
        s.add_edge_label("BUY", person, item, &[("date", ValueType::Date)]);
        s.add_edge_label("KNOWS", person, person, &[]);
        s
    }

    const PERSON: LabelId = LabelId(0);
    const ITEM: LabelId = LabelId(1);
    const BUY: LabelId = LabelId(0);
    const KNOWS: LabelId = LabelId(1);

    fn scan(label: LabelId) -> PhysicalOp {
        PhysicalOp::Scan {
            label,
            predicate: None,
            index_lookup: None,
        }
    }

    fn phys(ops: Vec<PhysicalOp>) -> PhysicalPlan {
        PhysicalPlan {
            ops,
            layout: Layout::new(),
        }
    }

    fn layout_of(columns: &[(&str, ColumnKind)]) -> Layout {
        let mut l = Layout::new();
        for (alias, kind) in columns {
            l.push(alias, kind.clone()).unwrap();
        }
        l
    }

    fn scan_vertex(alias: &str, label: LabelId) -> LogicalOp {
        LogicalOp::ScanVertex {
            alias: alias.into(),
            label,
            predicate: None,
        }
    }

    /// Op index of the only diagnostic with `code`.
    fn anchor(rep: &VerifyReport, code: &str) -> Option<usize> {
        let found: Vec<_> = rep.diagnostics.iter().filter(|d| d.code == code).collect();
        assert_eq!(found.len(), 1, "{}", rep.render());
        found[0].op_index
    }

    #[test]
    fn builder_plan_verifies_clean() {
        let s = schema();
        let b = PlanBuilder::new(&s)
            .scan("a", "Person")
            .unwrap()
            .expand_edge("a", "BUY", Direction::Out, "e")
            .unwrap()
            .get_vertex("e", "i")
            .unwrap();
        let pred = Expr::bin(
            BinOp::Gt,
            b.prop("i", "price").unwrap(),
            Expr::Const(Value::Float(10.0)),
        );
        let plan = b
            .select(pred)
            .project(vec![(
                ProjectItem::Agg(AggFunc::Count, Expr::Column(2)),
                "n",
            )])
            .unwrap()
            .build();
        let rep = verify_logical(&plan, &s);
        assert!(rep.is_clean(), "{}", rep.render());
        let rep = verify_physical(&lower_naive(&plan).unwrap(), &s);
        assert!(rep.is_clean(), "{}", rep.render());
    }

    #[test]
    fn e001_unknown_label() {
        let s = schema();
        let rep = verify_physical(&phys(vec![scan(LabelId(9))]), &s);
        assert!(rep.has_code(E_UNKNOWN_LABEL), "{}", rep.render());
        assert!(rep.error_count() > 0);
        // logical: the scan's predicate lowers to a second physical op, yet
        // the finding anchors to the logical expand
        let vpred = Expr::bin(
            BinOp::Gt,
            Expr::VertexProp {
                col: 0,
                label: PERSON,
                prop: gs_graph::PropId(1),
            },
            Expr::Const(Value::Int(30)),
        );
        let a = layout_of(&[("a", ColumnKind::Vertex(PERSON))]);
        let plan = LogicalPlan {
            ops: vec![
                LogicalOp::ScanVertex {
                    alias: "a".into(),
                    label: PERSON,
                    predicate: Some(vpred),
                },
                LogicalOp::ExpandEdge {
                    src: "a".into(),
                    elabel: LabelId(9),
                    dir: Direction::Out,
                    alias: "e".into(),
                    predicate: None,
                },
            ],
            layouts: vec![
                Layout::new(),
                a,
                layout_of(&[
                    ("a", ColumnKind::Vertex(PERSON)),
                    ("e", ColumnKind::Edge(LabelId(9))),
                ]),
            ],
        };
        let rep = verify_logical(&plan, &s);
        assert_eq!(anchor(&rep, E_UNKNOWN_LABEL), Some(1));
    }

    #[test]
    fn e002_unknown_alias() {
        let s = schema();
        let plan = LogicalPlan {
            ops: vec![
                LogicalOp::ScanVertex {
                    alias: "a".into(),
                    label: PERSON,
                    predicate: None,
                },
                LogicalOp::ExpandEdge {
                    src: "ghost".into(),
                    elabel: KNOWS,
                    dir: Direction::Out,
                    alias: "e".into(),
                    predicate: None,
                },
            ],
            layouts: {
                let mut l0 = Layout::new();
                l0.push("a", ColumnKind::Vertex(PERSON)).unwrap();
                let mut l1 = l0.clone();
                l1.push("e", ColumnKind::Edge(KNOWS)).unwrap();
                vec![Layout::new(), l0, l1]
            },
        };
        let rep = verify_logical(&plan, &s);
        assert!(rep.has_code(E_UNKNOWN_ALIAS), "{}", rep.render());
        let msg = rep.render();
        assert!(msg.contains("available: a"), "lists bound aliases: {msg}");
    }

    #[test]
    fn e003_kind_mismatch() {
        let s = schema();
        // Expand whose source column is an edge, and GetVertex on a vertex
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::GetVertex {
                    edge_col: 0,
                    label: ITEM,
                    predicate: None,
                    take_dst: true,
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_KIND_MISMATCH), "{}", rep.render());
        // logical: expand from an edge alias
        let a = [("a", ColumnKind::Vertex(PERSON))];
        let ae = [a[0].clone(), ("e", ColumnKind::Edge(BUY))];
        let aef = [ae[0].clone(), ae[1].clone(), ("f", ColumnKind::Edge(KNOWS))];
        let plan = LogicalPlan {
            ops: vec![
                scan_vertex("a", PERSON),
                LogicalOp::ExpandEdge {
                    src: "a".into(),
                    elabel: BUY,
                    dir: Direction::Out,
                    alias: "e".into(),
                    predicate: None,
                },
                LogicalOp::ExpandEdge {
                    src: "e".into(),
                    elabel: KNOWS,
                    dir: Direction::Out,
                    alias: "f".into(),
                    predicate: None,
                },
            ],
            layouts: vec![
                Layout::new(),
                layout_of(&a),
                layout_of(&ae),
                layout_of(&aef),
            ],
        };
        let rep = verify_logical(&plan, &s);
        assert_eq!(anchor(&rep, E_KIND_MISMATCH), Some(2));
    }

    #[test]
    fn e004_endpoint_mismatch() {
        let s = schema();
        // BUY starts at Person; expanding out of an Item violates it
        let rep = verify_physical(
            &phys(vec![
                scan(ITEM),
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: ITEM,
                    elabel: BUY,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::Edge,
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_ENDPOINT_MISMATCH), "{}", rep.render());
        // fused far label must be the far endpoint
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Expand {
                    src_col: 0,
                    src_label: PERSON,
                    elabel: BUY,
                    dir: Direction::Out,
                    predicate: None,
                    out: ExpandOut::VertexFused { label: PERSON },
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_ENDPOINT_MISMATCH), "{}", rep.render());
    }

    #[test]
    fn e005_column_out_of_range() {
        let s = schema();
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Select {
                    predicate: Expr::bin(BinOp::Eq, Expr::Column(5), Expr::Const(Value::Int(1))),
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_COLUMN_RANGE), "{}", rep.render());
        let rep = verify_physical(
            &phys(vec![scan(PERSON), PhysicalOp::Dedup { columns: vec![3] }]),
            &s,
        );
        assert!(rep.has_code(E_COLUMN_RANGE), "{}", rep.render());
        // logical: a projected column out of range fails lowering instead
        // of panicking in it
        let plan = LogicalPlan {
            ops: vec![
                scan_vertex("a", PERSON),
                LogicalOp::Project {
                    items: vec![(ProjectItem::Expr(Expr::Column(5)), "x".into())],
                },
            ],
            layouts: vec![
                Layout::new(),
                layout_of(&[("a", ColumnKind::Vertex(PERSON))]),
                layout_of(&[("x", ColumnKind::Scalar)]),
            ],
        };
        let err = lower_naive(&plan).unwrap_err().to_string();
        assert!(err.contains("E005"), "{err}");
        assert_eq!(anchor(&verify_logical(&plan, &s), E_COLUMN_RANGE), Some(1));
    }

    #[test]
    fn e006_unknown_property() {
        let s = schema();
        // Person has props 0 (name) and 1 (age); prop 7 is absent
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Select {
                    predicate: Expr::bin(
                        BinOp::Gt,
                        Expr::VertexProp {
                            col: 0,
                            label: PERSON,
                            prop: gs_graph::PropId(7),
                        },
                        Expr::Const(Value::Int(0)),
                    ),
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_UNKNOWN_PROPERTY), "{}", rep.render());
    }

    #[test]
    fn e007_type_mismatch() {
        let s = schema();
        // arithmetic over a Str property
        let name_plus_one = Expr::bin(
            BinOp::Add,
            Expr::VertexProp {
                col: 0,
                label: PERSON,
                prop: gs_graph::PropId(0),
            },
            Expr::Const(Value::Int(1)),
        );
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Project {
                    items: vec![(ProjectItem::Expr(name_plus_one), "x".into())],
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_TYPE_MISMATCH), "{}", rep.render());
        // non-boolean predicate
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Select {
                    predicate: Expr::VertexProp {
                        col: 0,
                        label: PERSON,
                        prop: gs_graph::PropId(1),
                    },
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_TYPE_MISMATCH), "{}", rep.render());
    }

    #[test]
    fn e008_layout_mismatch() {
        let s = schema();
        // declared layout says Edge, the ops produce a vertex column
        let mut layout = Layout::new();
        layout.push("a", ColumnKind::Edge(BUY)).unwrap();
        let plan = PhysicalPlan {
            ops: vec![scan(PERSON)],
            layout,
        };
        let rep = verify_physical(&plan, &s);
        assert!(rep.has_code(E_LAYOUT_MISMATCH), "{}", rep.render());
        // logical: layouts vector with the wrong arity
        let plan = LogicalPlan {
            ops: vec![],
            layouts: vec![],
        };
        let rep = verify_logical(&plan, &s);
        assert!(rep.has_code(E_LAYOUT_MISMATCH), "{}", rep.render());
        // logical: an intermediate declared layout disagrees with the op
        // (the final one is right)
        let plan = LogicalPlan {
            ops: vec![scan_vertex("a", PERSON), LogicalOp::Limit { n: 5 }],
            layouts: vec![
                Layout::new(),
                layout_of(&[("a", ColumnKind::Vertex(ITEM))]),
                layout_of(&[("a", ColumnKind::Vertex(PERSON))]),
            ],
        };
        let rep = verify_logical(&plan, &s);
        assert_eq!(anchor(&rep, E_LAYOUT_MISMATCH), Some(0));
        // lowering a plan with no layout after its last op fails instead
        // of panicking
        let a = [("a", ColumnKind::Vertex(PERSON))];
        let ae = [a[0].clone(), ("e", ColumnKind::Edge(BUY))];
        let plan = LogicalPlan {
            ops: vec![
                scan_vertex("a", PERSON),
                LogicalOp::ExpandEdge {
                    src: "a".into(),
                    elabel: BUY,
                    dir: Direction::Out,
                    alias: "e".into(),
                    predicate: None,
                },
                LogicalOp::GetVertex {
                    edge: "e".into(),
                    alias: "i".into(),
                    predicate: None,
                },
            ],
            layouts: vec![Layout::new(), layout_of(&a), layout_of(&ae)],
        };
        let err = lower_naive(&plan).unwrap_err().to_string();
        assert!(err.contains("E008"), "{err}");
    }

    #[test]
    fn e009_bad_pattern() {
        let s = schema();
        let pattern = Pattern {
            vertices: vec![
                PatternVertex {
                    alias: "a".into(),
                    label: PERSON,
                    predicate: None,
                },
                PatternVertex {
                    alias: "b".into(),
                    label: PERSON,
                    predicate: None,
                },
            ],
            edges: vec![PatternEdge {
                alias: None,
                label: KNOWS,
                src: 0,
                dst: 9, // out of range
                predicate: None,
            }],
        };
        let mut l1 = Layout::new();
        l1.push("a", ColumnKind::Vertex(PERSON)).unwrap();
        l1.push("b", ColumnKind::Vertex(PERSON)).unwrap();
        let plan = LogicalPlan {
            ops: vec![LogicalOp::Match { pattern }],
            layouts: vec![Layout::new(), l1],
        };
        let rep = verify_logical(&plan, &s);
        assert!(rep.has_code(E_BAD_PATTERN), "{}", rep.render());
    }

    #[test]
    fn e010_duplicate_alias() {
        let s = schema();
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Project {
                    items: vec![
                        (ProjectItem::Expr(Expr::Column(0)), "x".into()),
                        (ProjectItem::Expr(Expr::Column(0)), "x".into()),
                    ],
                },
            ]),
            &s,
        );
        assert!(rep.has_code(E_DUPLICATE_ALIAS), "{}", rep.render());
        // logical: the same alias scanned twice
        let a = layout_of(&[("a", ColumnKind::Vertex(PERSON))]);
        let plan = LogicalPlan {
            ops: vec![scan_vertex("a", PERSON), scan_vertex("a", PERSON)],
            layouts: vec![Layout::new(), a.clone(), a],
        };
        let rep = verify_logical(&plan, &s);
        assert_eq!(anchor(&rep, E_DUPLICATE_ALIAS), Some(1));
    }

    #[test]
    fn w101_unbounded_scan() {
        let s = schema();
        let rep = verify_physical(&phys(vec![scan(PERSON)]), &s);
        assert!(rep.has_code(W_UNBOUNDED_SCAN), "{}", rep.render());
        assert_eq!(rep.error_count(), 0);
        // a downstream limit silences it
        let rep = verify_physical(&phys(vec![scan(PERSON), PhysicalOp::Limit { n: 5 }]), &s);
        assert!(!rep.has_code(W_UNBOUNDED_SCAN), "{}", rep.render());
    }

    #[test]
    fn w102_order_without_limit() {
        let s = schema();
        let order = PhysicalOp::Order {
            keys: vec![(Expr::Column(0), true)],
            limit: None,
        };
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Limit { n: 9 },
                order.clone(),
            ]),
            &s,
        );
        assert!(rep.has_code(W_ORDER_NO_LIMIT), "{}", rep.render());
        // aggregated input is exempt (top-level reports sort small groups)
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Project {
                    items: vec![(
                        ProjectItem::Agg(AggFunc::Count, Expr::Column(0)),
                        "n".into(),
                    )],
                },
                order,
            ]),
            &s,
        );
        assert!(!rep.has_code(W_ORDER_NO_LIMIT), "{}", rep.render());
    }

    #[test]
    fn w103_cross_product() {
        let s = schema();
        let rep = verify_physical(
            &phys(vec![scan(PERSON), scan(ITEM), PhysicalOp::Limit { n: 1 }]),
            &s,
        );
        assert!(rep.has_code(W_CROSS_PRODUCT), "{}", rep.render());
    }

    #[test]
    fn w104_dedup_after_order() {
        let s = schema();
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Order {
                    keys: vec![(Expr::Column(0), true)],
                    limit: Some(10),
                },
                PhysicalOp::Dedup { columns: vec![0] },
            ]),
            &s,
        );
        assert!(rep.has_code(W_DEDUP_AFTER_ORDER), "{}", rep.render());
    }

    #[test]
    fn w105_constant_predicate() {
        let s = schema();
        let rep = verify_physical(
            &phys(vec![
                scan(PERSON),
                PhysicalOp::Select {
                    predicate: Expr::Const(Value::Bool(true)),
                },
            ]),
            &s,
        );
        assert!(rep.has_code(W_CONST_PREDICATE), "{}", rep.render());
    }

    #[test]
    fn enforce_levels() {
        let s = schema();
        let bad = phys(vec![scan(LabelId(9))]);
        let rep = verify_physical(&bad, &s);
        assert!(enforce(&rep, VerifyLevel::Off, "test").is_ok());
        assert!(enforce(&rep, VerifyLevel::Warn, "test").is_ok());
        let err = enforce(&rep, VerifyLevel::Deny, "test").unwrap_err();
        assert!(err.to_string().contains("E001"), "{err}");
        // warnings never block, even under Deny
        let warn_only = verify_physical(&phys(vec![scan(PERSON)]), &s);
        assert_eq!(warn_only.error_count(), 0);
        assert!(enforce(&warn_only, VerifyLevel::Deny, "test").is_ok());
    }

    #[test]
    fn diagnostics_render_with_rule_attribution() {
        let s = schema();
        let rep = verify_physical(&phys(vec![scan(LabelId(9))]), &s).with_rule("SomeRule");
        let msg = rep.render();
        assert!(msg.contains("after SomeRule"), "{msg}");
        assert!(msg.contains("op#0"), "{msg}");
    }
}
