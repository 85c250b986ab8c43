//! Static cost analysis: abstract interpretation over GraphIR.
//!
//! The third member of the static-analysis family after `gs-ir::verify`
//! (plans, §6b) and `gs-lint` (sources, §6g): an abstract interpreter
//! that pushes a *cardinality interval* `[lo, hi]` and a point estimate
//! through every operator of a [`PhysicalPlan`], together with the
//! record width, so that every plan carries
//! machine-checked cardinality and memory bounds before a single tuple
//! flows (the GOpt idea of choosing plans by estimated intermediate
//! result size, made an engine-independent analysis).
//!
//! * The **estimate** uses [`CostStats`], the GLogue statistics catalog
//!   (label counts, per-edge-label average degrees, sampled distinct
//!   values), and its one selectivity estimator,
//!   [`CostStats::selectivity`]. `gs-optimizer`'s CBO orders patterns
//!   with the same catalog, estimator and defaults, so the plans it picks
//!   are priced by the model this analysis (and `gate costcheck`)
//!   measures.
//! * The **interval** is sound: `lo` and `hi` bound the true operator
//!   output for *any* data distribution consistent with the statistics
//!   (scans are exact, expansions are bounded by recorded max degrees,
//!   everything downstream of a predicate keeps `lo = 0`). Without
//!   statistics the analysis falls back to conservative bounds
//!   (`hi = ∞`) and says so.
//!
//! Findings are irlint-style [`Diagnostic`]s with stable codes:
//!
//! * `C001` — cross-product scan with no connecting predicate anywhere
//!   downstream;
//! * `C002` — estimated rows blow past the configured expansion budget
//!   (unbounded multi-hop expansion);
//! * `C003` — estimated peak memory exceeds the deployment budget;
//! * `C301` — no / incomplete statistics, bounds are conservative;
//! * `C302` — low-confidence estimate (a defaulted selectivity or
//!   distinct count fed the numbers).
//!
//! The record width comes from [`PhysicalOp::shape`], the record-shape
//! rule `verify_physical` and EdgeVertexFusion walk plans with too.
//!
//! Consumers: `gs-serve` sheds or demotes statically over-budget prepared
//! statements before they reach an engine; `gs-bench costcheck` tracks
//! estimator quality (q-error percentiles) against actual per-operator
//! cardinalities; `gs-optimizer`'s tests check that no rewrite rule
//! raises the estimated cost. A logical plan is costed through its
//! lowering.

use crate::expr::{BinOp, Expr};
use crate::logical::ProjectItem;
use crate::physical::{PhysicalOp, PhysicalPlan};
use crate::record::ColumnKind;
use crate::verify::{Diagnostic, Severity, VerifyReport};
use gs_graph::{LabelId, Value};
use gs_grin::{Direction, GrinGraph};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Diagnostic codes
// ---------------------------------------------------------------------

/// Cross-product scan with no connecting predicate downstream.
pub const C_CROSS_PRODUCT: &str = "C001";
/// Estimated rows exceed the expansion budget (multi-hop blowup).
pub const C_EXPANSION_BLOWUP: &str = "C002";
/// Estimated peak memory exceeds the deployment budget.
pub const C_MEMORY_BUDGET: &str = "C003";
/// Statistics missing or incomplete; bounds are conservative.
pub const W_NO_STATISTICS: &str = "C301";
/// A defaulted selectivity / distinct count fed the estimate.
pub const W_LOW_CONFIDENCE: &str = "C302";

/// Assumed bytes per record column (a [`gs_graph::Value`] plus `Vec`
/// bookkeeping) for memory-bound estimation.
pub const VALUE_BYTES: f64 = 48.0;

/// Label cardinality assumed when no statistics are available.
pub const DEFAULT_LABEL_COUNT: f64 = 1_000.0;
/// Expansion fan-out assumed when no statistics are available.
pub const DEFAULT_FANOUT: f64 = 10.0;
/// Distinct-value count assumed when a property was never sampled.
const DEFAULT_DISTINCT: u64 = 10;

// ---------------------------------------------------------------------
// Cardinality intervals
// ---------------------------------------------------------------------

/// A sound cardinality interval: the true operator output row count lies
/// in `[lo, hi]` (with `hi = ∞` when no finite bound is known).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CardInterval {
    pub lo: f64,
    pub hi: f64,
}

impl CardInterval {
    /// The exact interval `[n, n]`.
    pub fn exact(n: f64) -> Self {
        Self { lo: n, hi: n }
    }

    /// `[0, hi]` — anything a predicate may leave behind.
    pub fn at_most(hi: f64) -> Self {
        Self { lo: 0.0, hi }
    }

    /// Whether `n` falls inside the interval (the soundness property).
    pub fn contains(&self, n: f64) -> bool {
        n >= self.lo && n <= self.hi
    }

    /// Interval width ratio used as a confidence proxy (∞ when unbounded).
    pub fn spread(&self) -> f64 {
        if self.lo > 0.0 {
            self.hi / self.lo
        } else {
            f64::INFINITY
        }
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Seed used by [`CostStats::build`]; `build_seeded` takes any.
const DEFAULT_SAMPLE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Statistics with no entries: every lookup misses, so every estimate
/// takes its default (what the analysis runs on without statistics).
static NO_STATS: CostStats = CostStats {
    vertex_counts: Vec::new(),
    edge_stats: Vec::new(),
    distinct_values: BTreeMap::new(),
};

/// splitmix64 — the dependency-free PRNG step used for sampling, so two
/// builds over the same graph are bit-identical for the same seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-edge-label statistics. Average degrees drive estimates; max
/// degrees drive the sound `hi` bounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeCostStats {
    pub count: u64,
    /// Average out-degree over *source-label* vertices.
    pub avg_out_degree: f64,
    /// Average in-degree over *destination-label* vertices.
    pub avg_in_degree: f64,
    /// Maximum out-degree over source-label vertices.
    pub max_out_degree: u64,
    /// Maximum in-degree over destination-label vertices.
    pub max_in_degree: u64,
}

/// The GLogue statistics catalog (§5.2): exact label cardinalities,
/// per-edge-label degrees (the frequency of 2-vertex patterns) and
/// sampled property distinct counts. The CBO (`gs-optimizer`'s
/// `cbo_order`) orders patterns with it and [`cost_physical`] prices
/// plans with it, both through [`selectivity`](Self::selectivity).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostStats {
    /// Vertex count per vertex label (indexed by label id).
    pub vertex_counts: Vec<u64>,
    /// Edge statistics per edge label (indexed by label id).
    pub edge_stats: Vec<EdgeCostStats>,
    /// Sampled distinct-value counts: (vertex label, prop) → estimate.
    /// Ordered map so accumulation and any later iteration are
    /// independent of hash order (gs-lint L002).
    pub distinct_values: BTreeMap<(u16, u16), u64>,
}

impl CostStats {
    /// Builds the statistics by scanning counts and sampling up to
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
        let edge_stats: Vec<EdgeCostStats> = schema
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
                EdgeCostStats {
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

    /// Cardinality of a vertex label (`None` when outside the stats).
    pub fn label_count(&self, l: LabelId) -> Option<f64> {
        self.vertex_counts.get(l.index()).map(|&n| n as f64)
    }

    /// Average expansion fan-out of `elabel` in `dir`.
    pub fn fanout_avg(&self, elabel: LabelId, dir: Direction) -> Option<f64> {
        let s = self.edge_stats.get(elabel.index())?;
        Some(match dir {
            Direction::Out => s.avg_out_degree,
            Direction::In => s.avg_in_degree,
            Direction::Both => s.avg_out_degree + s.avg_in_degree,
        })
    }

    /// Max expansion fan-out of `elabel` in `dir` — the sound per-row
    /// bound on expansion output.
    pub fn fanout_max(&self, elabel: LabelId, dir: Direction) -> Option<f64> {
        let s = self.edge_stats.get(elabel.index())?;
        Some(match dir {
            Direction::Out => s.max_out_degree as f64,
            Direction::In => s.max_in_degree as f64,
            Direction::Both => (s.max_out_degree + s.max_in_degree) as f64,
        })
    }

    /// The selectivity estimator: the estimated fraction (0..=1) of rows a
    /// predicate keeps, and whether a default stood in for a missing
    /// statistic (which drives C302). Labels ride inside
    /// `VertexProp`/`VertexId`/`EdgeProp`, so no layout is needed.
    pub fn selectivity(&self, pred: &Expr) -> (f64, bool) {
        match pred {
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    let (l, l_default) = self.selectivity(lhs);
                    let (r, r_default) = self.selectivity(rhs);
                    let s = if *op == BinOp::And {
                        l * r
                    } else {
                        (l + r).min(1.0)
                    };
                    (s, l_default || r_default)
                }
                // whichever side names a vertex property or id
                BinOp::Eq => match (&**lhs, &**rhs) {
                    (x @ (Expr::VertexProp { .. } | Expr::VertexId { .. }), _) | (_, x) => {
                        self.eq_selectivity(x)
                    }
                },
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (0.33, false),
                BinOp::Ne => (0.9, false),
                _ => (0.5, true),
            },
            Expr::Not(e) => {
                let (s, defaulted) = self.selectivity(e);
                ((1.0 - s).clamp(0.0, 1.0), defaulted)
            }
            Expr::In { expr, list } => match list.list_len() {
                // one equality per list element
                Some(len) => {
                    let (s, defaulted) = self.eq_selectivity(expr);
                    ((len as f64 * s).min(1.0), defaulted)
                }
                // a list slot's length is unknown until bound
                None => (0.5, true),
            },
            Expr::Const(Value::Bool(b)) => (if *b { 1.0 } else { 0.0 }, false),
            _ => (0.5, true),
        }
    }

    /// Selectivity of `x = v` for a single value `v`.
    fn eq_selectivity(&self, x: &Expr) -> (f64, bool) {
        match x {
            Expr::VertexProp { label, prop, .. } => {
                match self.distinct_values.get(&(label.0, prop.0)) {
                    Some(&d) => (1.0 / d.max(1) as f64, false),
                    None => (1.0 / DEFAULT_DISTINCT as f64, true),
                }
            }
            Expr::VertexId { label, .. } => match self.label_count(*label) {
                Some(n) => (1.0 / n.max(1.0), false),
                None => (1.0 / DEFAULT_LABEL_COUNT, true),
            },
            _ => (0.1, true),
        }
    }
}

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// The budgets the C-codes are checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostBudget {
    /// Estimated rows past which `C002` fires (expansion blowup).
    pub max_rows: f64,
    /// Estimated peak bytes past which `C003` fires (deployment memory).
    pub max_memory_bytes: u64,
}

impl Default for CostBudget {
    fn default() -> Self {
        Self {
            max_rows: 1e8,
            max_memory_bytes: 4 << 30, // 4 GiB
        }
    }
}

impl CostBudget {
    /// A budget with the memory ceiling set (the deployment knob).
    pub fn with_memory(bytes: u64) -> Self {
        Self {
            max_memory_bytes: bytes,
            ..Self::default()
        }
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Cost of one operator's *output*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpCost {
    /// Point estimate of output rows.
    pub est_rows: f64,
    /// Sound output-row interval.
    pub interval: CardInterval,
    /// Record width (columns) flowing out of the op.
    pub width: usize,
    /// Estimated bytes to materialise this op's output.
    pub est_bytes: f64,
}

/// The outcome of a cost analysis over one plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostReport {
    /// One entry per plan operator, in plan order.
    pub per_op: Vec<OpCost>,
    /// Sum of estimated intermediate sizes — the paper's plan cost, the
    /// number rewrite rules are compared on.
    pub total_est_rows: f64,
    /// Estimated rows out of the final operator.
    pub output_est_rows: f64,
    /// Estimated peak materialised bytes across the plan.
    pub peak_est_bytes: f64,
    /// C-coded diagnostics (errors C0xx, warnings C3xx).
    pub report: VerifyReport,
}

impl CostReport {
    /// Whether a diagnostic with `code` was emitted.
    pub fn has_code(&self, code: &str) -> bool {
        self.report.has_code(code)
    }

    /// Whether the plan's static bounds exceed `budget`.
    pub fn over_budget(&self, budget: &CostBudget) -> bool {
        self.output_est_rows > budget.max_rows
            || self.total_est_rows > budget.max_rows
            || self.peak_est_bytes > budget.max_memory_bytes as f64
    }
}

// ---------------------------------------------------------------------
// The abstract interpreter
// ---------------------------------------------------------------------

struct CostChecker<'a> {
    stats: Option<&'a CostStats>,
    budget: &'a CostBudget,
    diags: Vec<Diagnostic>,
    /// Number of estimates that fell back to a default (drives C302).
    defaults_used: usize,
    /// Set once C002 has fired (one report per plan, at the first blowup).
    blowup_reported: bool,
}

impl<'a> CostChecker<'a> {
    fn new(stats: Option<&'a CostStats>, budget: &'a CostBudget) -> Self {
        Self {
            stats,
            budget,
            diags: Vec::new(),
            defaults_used: 0,
            blowup_reported: false,
        }
    }

    fn emit(&mut self, code: &'static str, severity: Severity, op: Option<usize>, msg: String) {
        self.diags.push(Diagnostic {
            code,
            severity,
            op_index: op,
            rule: None,
            message: msg,
        });
    }

    /// `(count, known)` — `known = false` means the estimate is a
    /// default and no finite upper bound may be derived from it.
    fn label_count(&mut self, l: LabelId, op: Option<usize>) -> (f64, bool) {
        match self.stats.and_then(|s| s.label_count(l)) {
            Some(n) => (n, true),
            None => {
                if self.stats.is_some() {
                    self.emit(
                        W_NO_STATISTICS,
                        Severity::Warning,
                        op,
                        format!("no cardinality statistics for vertex label {l:?}"),
                    );
                }
                (DEFAULT_LABEL_COUNT, false)
            }
        }
    }

    fn fanout(&mut self, elabel: LabelId, dir: Direction, op: Option<usize>) -> (f64, f64) {
        match self
            .stats
            .and_then(|s| Some((s.fanout_avg(elabel, dir)?, s.fanout_max(elabel, dir)?)))
        {
            Some((avg, max)) => (avg, max),
            None => {
                if self.stats.is_some() {
                    self.emit(
                        W_NO_STATISTICS,
                        Severity::Warning,
                        op,
                        format!("no degree statistics for edge label {elabel:?}"),
                    );
                }
                (DEFAULT_FANOUT, f64::INFINITY)
            }
        }
    }

    /// Records one op's output cost, checking the C002/C003 budgets.
    fn step(
        &mut self,
        per_op: &mut Vec<OpCost>,
        op_index: usize,
        expands: bool,
        est_rows: f64,
        interval: CardInterval,
        width: usize,
    ) -> (f64, CardInterval) {
        let est_rows = est_rows.clamp(interval.lo, interval.hi.max(interval.lo));
        let est_bytes = est_rows * width.max(1) as f64 * VALUE_BYTES;
        if expands && !self.blowup_reported && est_rows > self.budget.max_rows {
            self.blowup_reported = true;
            self.emit(
                C_EXPANSION_BLOWUP,
                Severity::Error,
                Some(op_index),
                format!(
                    "estimated {est_rows:.0} rows exceed the expansion budget of {:.0}",
                    self.budget.max_rows
                ),
            );
        }
        per_op.push(OpCost {
            est_rows,
            interval,
            width,
            est_bytes,
        });
        (est_rows, interval)
    }

    fn finish(mut self, per_op: Vec<OpCost>) -> CostReport {
        if self.stats.is_none() {
            self.emit(
                W_NO_STATISTICS,
                Severity::Warning,
                None,
                "no statistics catalog; bounds are conservative capability-derived defaults".into(),
            );
        } else if self.defaults_used > 0 {
            self.emit(
                W_LOW_CONFIDENCE,
                Severity::Warning,
                None,
                format!(
                    "{} low-confidence estimate(s): defaulted selectivity or distinct count",
                    self.defaults_used
                ),
            );
        }
        let peak = per_op.iter().map(|c| c.est_bytes).fold(0.0, f64::max);
        if peak > self.budget.max_memory_bytes as f64 {
            let at = per_op
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.est_bytes.total_cmp(&b.est_bytes))
                .map(|(i, _)| i);
            self.diags.push(Diagnostic {
                code: C_MEMORY_BUDGET,
                severity: Severity::Error,
                op_index: at,
                rule: None,
                message: format!(
                    "estimated peak memory {:.0} bytes exceeds the budget of {} bytes",
                    peak, self.budget.max_memory_bytes
                ),
            });
        }
        let total: f64 = per_op.iter().map(|c| c.est_rows).sum();
        let output = per_op.last().map(|c| c.est_rows).unwrap_or(0.0);
        CostReport {
            total_est_rows: total,
            output_est_rows: output,
            peak_est_bytes: peak,
            per_op,
            report: VerifyReport {
                diagnostics: self.diags,
            },
        }
    }
}

/// Does any op after `start` connect the columns below `boundary` to the
/// columns at/above it (a predicate or intersection spanning both sides)?
fn physically_connected(ops: &[PhysicalOp], start: usize, boundary: usize) -> bool {
    ops[start..].iter().any(|op| match op {
        PhysicalOp::Select { predicate } => {
            let mut cols = Vec::new();
            predicate.referenced_columns(&mut cols);
            cols.iter().any(|&c| c >= boundary) && cols.iter().any(|&c| c < boundary)
        }
        PhysicalOp::ExpandIntersect {
            src_col, dst_col, ..
        } => (*src_col < boundary) != (*dst_col < boundary),
        _ => false,
    })
}

// ---------------------------------------------------------------------
// Physical analysis
// ---------------------------------------------------------------------

/// Runs the abstract interpreter over a physical plan.
pub fn cost_physical(
    plan: &PhysicalPlan,
    stats: Option<&CostStats>,
    budget: &CostBudget,
) -> CostReport {
    let mut ck = CostChecker::new(stats, budget);
    let model = stats.unwrap_or(&NO_STATS);
    let mut per_op = Vec::with_capacity(plan.ops.len());
    // execution starts from one empty record
    let mut est = 1.0f64;
    let mut iv = CardInterval::exact(1.0);
    let mut kinds: Vec<ColumnKind> = Vec::new();

    for (i, op) in plan.ops.iter().enumerate() {
        let (sel, defaulted) = op
            .predicate()
            .map_or((1.0, false), |p| model.selectivity(p));
        ck.defaults_used += usize::from(defaulted);
        // (estimated rows, sound interval, whether the op can multiply rows)
        let (next_est, next, expands) = match op {
            PhysicalOp::Scan {
                label,
                predicate,
                index_lookup,
            } => {
                let (n, known) = ck.label_count(*label, Some(i));
                if !kinds.is_empty() && !physically_connected(&plan.ops, i + 1, kinds.len()) {
                    ck.emit(
                        C_CROSS_PRODUCT,
                        Severity::Error,
                        Some(i),
                        format!(
                            "scan of label {label:?} cross-products {} bound column(s) with no \
                             connecting predicate downstream",
                            kinds.len()
                        ),
                    );
                }
                let exact = known && predicate.is_none() && index_lookup.is_none();
                let next = CardInterval {
                    lo: if exact { iv.lo * n } else { 0.0 },
                    hi: if known { iv.hi * n } else { f64::INFINITY },
                };
                (est * n * sel, next, true)
            }
            PhysicalOp::Expand { elabel, dir, .. } => {
                let (avg, max) = ck.fanout(*elabel, *dir, Some(i));
                (est * avg * sel, CardInterval::at_most(iv.hi * max), true)
            }
            PhysicalOp::GetVertex { predicate, .. } => {
                let next = if predicate.is_none() {
                    iv // exactly one endpoint per edge
                } else {
                    CardInterval::at_most(iv.hi)
                };
                (est * sel, next, false)
            }
            PhysicalOp::ExpandIntersect {
                elabel,
                dir,
                dst_col,
                bind_edge,
                ..
            } => {
                let (avg, max) = ck.fanout(*elabel, *dir, Some(i));
                let n_dst = match kinds.get(*dst_col) {
                    Some(ColumnKind::Vertex(l)) => ck.label_count(*l, Some(i)).0,
                    _ => DEFAULT_LABEL_COUNT,
                };
                // probability an elabel edge closes onto the one bound dst
                let close = (avg / n_dst.max(1.0)).min(1.0);
                let hi = if *bind_edge { iv.hi * max } else { iv.hi };
                (est * close * sel, CardInterval::at_most(hi), true)
            }
            PhysicalOp::Select { .. } => (est * sel, CardInterval::at_most(iv.hi), false),
            PhysicalOp::Project { items } => {
                let n_aggs = items
                    .iter()
                    .filter(|(it, _)| matches!(it, ProjectItem::Agg(..)))
                    .count();
                let (next_est, next) = project_cardinality(est, iv, n_aggs, items.len());
                (next_est, next, false)
            }
            PhysicalOp::Order { limit, .. } => {
                let next = match limit {
                    Some(n) => CardInterval {
                        lo: iv.lo.min(*n as f64),
                        hi: iv.hi.min(*n as f64),
                    },
                    None => iv,
                };
                (limit.map_or(est, |n| est.min(n as f64)), next, false)
            }
            PhysicalOp::Dedup { .. } => {
                let next = CardInterval {
                    lo: if iv.lo > 0.0 { 1.0 } else { 0.0 },
                    hi: iv.hi,
                };
                (est, next, false)
            }
            PhysicalOp::Limit { n } => {
                let next = CardInterval {
                    lo: iv.lo.min(*n as f64),
                    hi: iv.hi.min(*n as f64),
                };
                (est.min(*n as f64), next, false)
            }
        };
        op.shape(&mut kinds);
        (est, iv) = ck.step(&mut per_op, i, expands, next_est, next, kinds.len());
    }
    ck.finish(per_op)
}

/// Output cardinality of a projection: keyless all-aggregate projections
/// produce exactly one row (even on empty input); grouped aggregation
/// produces between one group (when input is non-empty) and one per row;
/// plain projections are 1:1.
fn project_cardinality(
    est: f64,
    iv: CardInterval,
    n_aggs: usize,
    n_items: usize,
) -> (f64, CardInterval) {
    if n_aggs == 0 {
        return (est, iv);
    }
    if n_aggs == n_items {
        return (1.0, CardInterval::exact(1.0));
    }
    // grouped: #groups ≤ #rows; at least one group when input non-empty
    let lo = if iv.lo > 0.0 { 1.0 } else { 0.0 };
    (
        est.max(1.0).sqrt().max(1.0).min(est.max(1.0)),
        CardInterval { lo, hi: iv.hi },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::ExpandOut;
    use crate::record::Layout;
    use gs_graph::PropId;

    const V: LabelId = LabelId(0);
    const E: LabelId = LabelId(0);

    fn stats() -> CostStats {
        CostStats {
            vertex_counts: vec![100],
            edge_stats: vec![EdgeCostStats {
                count: 400,
                avg_out_degree: 4.0,
                avg_in_degree: 4.0,
                max_out_degree: 12,
                max_in_degree: 9,
            }],
            distinct_values: [((0u16, 0u16), 50u64)].into_iter().collect(),
        }
    }

    fn scan() -> PhysicalOp {
        PhysicalOp::Scan {
            label: V,
            predicate: None,
            index_lookup: None,
        }
    }

    fn expand() -> PhysicalOp {
        PhysicalOp::Expand {
            src_col: 0,
            src_label: V,
            elabel: E,
            dir: Direction::Out,
            predicate: None,
            out: ExpandOut::VertexFused { label: V },
        }
    }

    fn plan(ops: Vec<PhysicalOp>) -> PhysicalPlan {
        PhysicalPlan {
            ops,
            layout: Layout::new(),
        }
    }

    #[test]
    fn scan_is_exact_with_statistics() {
        let s = stats();
        let c = cost_physical(&plan(vec![scan()]), Some(&s), &CostBudget::default());
        assert_eq!(c.per_op[0].interval, CardInterval::exact(100.0));
        assert_eq!(c.output_est_rows, 100.0);
        assert!(c.report.is_clean(), "{}", c.report.render());
    }

    #[test]
    fn expansion_bounds_use_max_degree() {
        let s = stats();
        let c = cost_physical(
            &plan(vec![scan(), expand()]),
            Some(&s),
            &CostBudget::default(),
        );
        let e = &c.per_op[1];
        assert_eq!(e.interval.lo, 0.0);
        assert_eq!(e.interval.hi, 100.0 * 12.0);
        assert!((e.est_rows - 400.0).abs() < 1e-9);
    }

    #[test]
    fn c001_cross_product_without_connecting_predicate() {
        let s = stats();
        let c = cost_physical(
            &plan(vec![scan(), scan()]),
            Some(&s),
            &CostBudget::default(),
        );
        assert!(c.has_code(C_CROSS_PRODUCT), "{}", c.report.render());
        assert_eq!(c.report.error_count(), 1);
        // a connecting predicate downstream silences it
        let connected = plan(vec![
            scan(),
            scan(),
            PhysicalOp::Select {
                predicate: Expr::bin(
                    BinOp::Eq,
                    Expr::VertexId { col: 0, label: V },
                    Expr::VertexId { col: 1, label: V },
                ),
            },
        ]);
        let c = cost_physical(&connected, Some(&s), &CostBudget::default());
        assert!(!c.has_code(C_CROSS_PRODUCT), "{}", c.report.render());
    }

    #[test]
    fn c002_expansion_blowup_past_budget() {
        let s = stats();
        let budget = CostBudget {
            max_rows: 1_000.0,
            ..CostBudget::default()
        };
        let c = cost_physical(
            &plan(vec![scan(), expand(), expand(), expand()]),
            Some(&s),
            &budget,
        );
        assert!(c.has_code(C_EXPANSION_BLOWUP), "{}", c.report.render());
        // reported once, at the first op crossing the budget
        assert_eq!(
            c.report
                .diagnostics
                .iter()
                .filter(|d| d.code == C_EXPANSION_BLOWUP)
                .count(),
            1
        );
        let generous = cost_physical(
            &plan(vec![scan(), expand()]),
            Some(&s),
            &CostBudget::default(),
        );
        assert!(!generous.has_code(C_EXPANSION_BLOWUP));
    }

    #[test]
    fn c003_memory_budget() {
        let s = stats();
        let budget = CostBudget {
            max_memory_bytes: 1_000,
            ..CostBudget::default()
        };
        let c = cost_physical(&plan(vec![scan()]), Some(&s), &budget);
        assert!(c.has_code(C_MEMORY_BUDGET), "{}", c.report.render());
        assert!(c.peak_est_bytes > 1_000.0);
    }

    #[test]
    fn c301_without_statistics() {
        let c = cost_physical(&plan(vec![scan()]), None, &CostBudget::default());
        assert!(c.has_code(W_NO_STATISTICS), "{}", c.report.render());
        assert_eq!(c.report.error_count(), 0);
        // unbounded: hi is infinite but lo stays sound
        assert!(c.per_op[0].interval.hi.is_infinite());
    }

    #[test]
    fn c301_for_label_outside_statistics() {
        let s = stats();
        let p = plan(vec![PhysicalOp::Scan {
            label: LabelId(7),
            predicate: None,
            index_lookup: None,
        }]);
        let c = cost_physical(&p, Some(&s), &CostBudget::default());
        assert!(c.has_code(W_NO_STATISTICS), "{}", c.report.render());
    }

    #[test]
    fn c302_on_defaulted_selectivity() {
        let s = stats();
        let p = plan(vec![
            scan(),
            PhysicalOp::Select {
                // property not in distinct_values → defaulted distinct
                predicate: Expr::bin(
                    BinOp::Eq,
                    Expr::VertexProp {
                        col: 0,
                        label: V,
                        prop: PropId(3),
                    },
                    Expr::Const(Value::Int(1)),
                ),
            },
        ]);
        let c = cost_physical(&p, Some(&s), &CostBudget::default());
        assert!(c.has_code(W_LOW_CONFIDENCE), "{}", c.report.render());
    }

    #[test]
    fn limit_clamps_and_projection_aggregates() {
        let s = stats();
        let p = plan(vec![
            scan(),
            PhysicalOp::Limit { n: 7 },
            PhysicalOp::Project {
                items: vec![(
                    ProjectItem::Agg(crate::expr::AggFunc::Count, Expr::Column(0)),
                    "n".into(),
                )],
            },
        ]);
        let c = cost_physical(&p, Some(&s), &CostBudget::default());
        assert_eq!(c.per_op[1].interval, CardInterval { lo: 7.0, hi: 7.0 });
        // keyless aggregate: exactly one row, even over empty input
        assert_eq!(c.per_op[2].interval, CardInterval::exact(1.0));
    }

    #[test]
    fn c302_on_index_lookup_without_distinct_count() {
        // (V, prop 3) has no sampled distinct count: the lookup's estimate
        // is a default and must say so
        let s = stats();
        let key = Expr::bin(
            BinOp::Eq,
            Expr::VertexProp {
                col: 0,
                label: V,
                prop: PropId(3),
            },
            Expr::Const(Value::Int(1)),
        );
        let p = plan(vec![PhysicalOp::Scan {
            label: V,
            predicate: Some(key),
            index_lookup: Some((PropId(3), Expr::Const(Value::Int(1)))),
        }]);
        let c = cost_physical(&p, Some(&s), &CostBudget::default());
        assert!(c.has_code(W_LOW_CONFIDENCE), "{}", c.report.render());
        // a sampled property is estimated from its distinct count, cleanly
        let sampled = plan(vec![PhysicalOp::Scan {
            label: V,
            predicate: Some(Expr::bin(
                BinOp::Eq,
                Expr::VertexProp {
                    col: 0,
                    label: V,
                    prop: PropId(0),
                },
                Expr::Const(Value::Int(1)),
            )),
            index_lookup: Some((PropId(0), Expr::Const(Value::Int(1)))),
        }]);
        let c = cost_physical(&sampled, Some(&s), &CostBudget::default());
        assert!(c.report.is_clean(), "{}", c.report.render());
        assert!((c.output_est_rows - 100.0 / 50.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_rules() {
        let s = stats();
        let prop = |p: u16| Expr::VertexProp {
            col: 0,
            label: V,
            prop: PropId(p),
        };
        let one = || Expr::Const(Value::Int(1));
        let eq = Expr::bin(BinOp::Eq, prop(0), one());
        assert_eq!(s.selectivity(&eq), (1.0 / 50.0, false));
        // either side of an equality may name the property
        assert_eq!(
            s.selectivity(&Expr::bin(BinOp::Eq, one(), prop(0))),
            (1.0 / 50.0, false)
        );
        let id = Expr::bin(BinOp::Eq, Expr::VertexId { col: 0, label: V }, one());
        assert_eq!(s.selectivity(&id), (1.0 / 100.0, false));
        // IN is one equality per element
        let list = |n: i64| Expr::Const(Value::List((0..n).map(Value::Int).collect()));
        let in3 = Expr::In {
            expr: Box::new(prop(0)),
            list: Box::new(list(3)),
        };
        assert_eq!(s.selectivity(&in3), (3.0 / 50.0, false));
        let in99 = Expr::In {
            expr: Box::new(prop(0)),
            list: Box::new(list(99)),
        };
        assert_eq!(s.selectivity(&in99).0, 1.0);
        let not = Expr::Not(Box::new(eq.clone()));
        assert_eq!(s.selectivity(&not), (1.0 - 1.0 / 50.0, false));
        assert_eq!(
            s.selectivity(&Expr::Const(Value::Bool(false))),
            (0.0, false)
        );
        // a missing statistic falls back to its default and says so
        assert_eq!(
            s.selectivity(&Expr::bin(BinOp::Eq, prop(3), one())),
            (1.0 / DEFAULT_DISTINCT as f64, true)
        );
        let and = Expr::bin(BinOp::And, eq, Expr::bin(BinOp::Eq, prop(3), one()));
        assert_eq!(s.selectivity(&and), (1.0 / 50.0 / 10.0, true));
    }

    #[test]
    fn build_counts_degrees_and_is_deterministic() {
        use gs_grin::graph::mock::MockGraph;
        // star: vertex 0 points at every other vertex
        let edges: Vec<(u64, u64, f64)> = (1..100).map(|i| (0u64, i, 1.0)).collect();
        let mut g = MockGraph::new(100, &edges);
        for i in 0..100 {
            g.set_tag(gs_graph::VId(i), (i % 7) as i64);
        }
        let a = CostStats::build(&g, 50);
        assert_eq!(a.vertex_counts, vec![100]);
        assert_eq!(a.edge_stats[0].count, 99);
        assert!((a.edge_stats[0].avg_out_degree - 0.99).abs() < 1e-9);
        // the hub has out-degree 99, every spoke in-degree 1
        assert_eq!(a.edge_stats[0].max_out_degree, 99);
        assert_eq!(a.edge_stats[0].max_in_degree, 1);
        // same graph, two builds → equal statistics; a different seed may
        // differ only in the sampled distinct counts
        assert_eq!(a, CostStats::build(&g, 50));
        let c = CostStats::build_seeded(&g, 50, 1);
        assert_eq!(c, CostStats::build_seeded(&g, 50, 1));
        assert_eq!(a.vertex_counts, c.vertex_counts);
        assert_eq!(a.edge_stats, c.edge_stats);
    }

    #[test]
    fn over_budget_reflects_output_and_memory() {
        let s = stats();
        let c = cost_physical(&plan(vec![scan()]), Some(&s), &CostBudget::default());
        assert!(!c.over_budget(&CostBudget::default()));
        assert!(c.over_budget(&CostBudget {
            max_rows: 10.0,
            ..CostBudget::default()
        }));
        assert!(c.over_budget(&CostBudget {
            max_memory_bytes: 16,
            ..CostBudget::default()
        }));
    }
}
