//! # gs-optimizer — the IR-based query optimizer
//!
//! Implements §5.2 of the paper: rule-based optimization (EdgeVertexFusion,
//! FilterPushIntoMatch) and GLogue-style cost-based pattern ordering, then
//! lowers the logical DAG to a physical plan for either execution engine.
//! The CBO's statistics are `gs_ir::cost::CostStats`, the same catalog
//! and selectivity estimator the static cost analysis uses.
//!
//! Every optimization can be toggled through [`OptimizerConfig`], which is
//! how the Fig. 7(e) experiment isolates each rule's contribution.

pub mod glogue;
pub mod rbo;

pub use glogue::{cbo_order, order_cost};

use gs_graph::schema::GraphSchema;
use gs_ir::cost::CostStats;
use gs_ir::logical::LogicalPlan;
use gs_ir::physical::{declaration_order, lower_with, PhysicalPlan};
use gs_ir::{verify_logical, verify_physical, Result};

/// Which optimizations to apply.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// EdgeVertexFusion (RBO).
    pub fusion: bool,
    /// FilterPushIntoMatch (RBO) + predicate pushdown into scans/expands.
    pub filter_push: bool,
    /// GLogue cost-based pattern ordering (requires a catalog).
    pub cbo: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            fusion: true,
            filter_push: true,
            cbo: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything off — the Fig. 7(e) baseline.
    pub fn none() -> Self {
        Self {
            fusion: false,
            filter_push: false,
            cbo: false,
        }
    }
}

/// The IR-based optimizer.
pub struct Optimizer {
    pub config: OptimizerConfig,
    pub catalog: Option<CostStats>,
    /// When set, every rewrite rule's output is re-verified against this
    /// schema; a rule that produces an invalid plan fails `optimize` with
    /// the rule's name in the diagnostic (see [`verify_rewrite_logical`]).
    pub verify_schema: Option<GraphSchema>,
}

/// Re-verifies a logical plan after a rewrite rule ran, attributing any
/// error to `rule` by name. Warnings pass; errors fail.
pub fn verify_rewrite_logical(rule: &str, plan: &LogicalPlan, schema: &GraphSchema) -> Result<()> {
    verify_logical(plan, schema).with_rule(rule).check(rule)
}

/// Physical-plan counterpart of [`verify_rewrite_logical`].
pub fn verify_rewrite_physical(
    rule: &str,
    plan: &PhysicalPlan,
    schema: &GraphSchema,
) -> Result<()> {
    verify_physical(plan, schema).with_rule(rule).check(rule)
}

impl Optimizer {
    /// Full optimization with statistics.
    pub fn new(catalog: CostStats) -> Self {
        Self {
            config: OptimizerConfig::default(),
            catalog: Some(catalog),
            verify_schema: None,
        }
    }

    /// Rule-based only (no statistics available).
    pub fn rbo_only() -> Self {
        Self {
            config: OptimizerConfig {
                cbo: false,
                ..OptimizerConfig::default()
            },
            catalog: None,
            verify_schema: None,
        }
    }

    /// No optimization at all (naive lowering).
    pub fn disabled() -> Self {
        Self {
            config: OptimizerConfig::none(),
            catalog: None,
            verify_schema: None,
        }
    }

    /// With an explicit config (catalog used only when `config.cbo`).
    pub fn with_config(config: OptimizerConfig, catalog: Option<CostStats>) -> Self {
        Self {
            config,
            catalog,
            verify_schema: None,
        }
    }

    /// Enables post-rewrite verification: each rule's output is re-checked
    /// against `schema` and a rule that breaks the plan is named in the
    /// resulting error.
    pub fn with_verify(mut self, schema: GraphSchema) -> Self {
        self.verify_schema = Some(schema);
        self
    }

    /// Compiles a logical plan to an optimized physical plan: filter
    /// pushdown, lowering (in GLogue order when `cbo` has a catalog), then
    /// EdgeVertexFusion, each re-verified under [`with_verify`](Self::with_verify).
    pub fn optimize(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        let pushed;
        let logical = if self.config.filter_push {
            pushed = rbo::push_filters(plan)?;
            if let Some(s) = &self.verify_schema {
                verify_rewrite_logical("FilterPushIntoMatch", &pushed, s)?;
            }
            &pushed
        } else {
            plan
        };
        let catalog = self.catalog.as_ref().filter(|_| self.config.cbo);
        let physical = lower_with(
            logical,
            self.config.fusion,
            self.config.filter_push,
            |pattern| match catalog {
                Some(c) => cbo_order(pattern, c),
                None => declaration_order(pattern),
            },
        )?;
        if let Some(s) = &self.verify_schema {
            verify_rewrite_physical("Lowering", &physical, s)?;
        }
        if !self.config.fusion {
            return Ok(physical);
        }
        let fused = rbo::fuse_expand_get_vertex(&physical);
        if let Some(s) = &self.verify_schema {
            verify_rewrite_physical("EdgeVertexFusion", &fused, s)?;
        }
        Ok(fused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::schema::GraphSchema;
    use gs_graph::Value;
    use gs_grin::graph::mock::MockGraph;
    use gs_grin::GrinGraph;
    use gs_ir::cost::{cost_physical, CostBudget};
    use gs_ir::exec::execute;
    use gs_ir::expr::BinOp;
    use gs_ir::logical::ProjectItem;
    use gs_ir::{Expr, Pattern, PlanBuilder};

    fn mock() -> MockGraph {
        // two triangles sharing vertex 0, plus tags
        let mut g = MockGraph::new(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (0, 3, 1.0),
                (3, 4, 1.0),
                (0, 4, 1.0),
                (4, 5, 1.0),
            ],
        );
        for v in 0..6 {
            g.set_tag(gs_graph::VId(v), v as i64);
        }
        g
    }

    fn schema(g: &MockGraph) -> GraphSchema {
        g.schema().clone()
    }

    fn triangle_plan(s: &GraphSchema) -> gs_ir::LogicalPlan {
        let mut p = Pattern::new();
        let a = p.add_vertex("a", gs_graph::LabelId(0));
        let b = p.add_vertex("b", gs_graph::LabelId(0));
        let c = p.add_vertex("c", gs_graph::LabelId(0));
        p.add_edge(None, gs_graph::LabelId(0), a, b);
        p.add_edge(None, gs_graph::LabelId(0), b, c);
        p.add_edge(None, gs_graph::LabelId(0), a, c);
        let builder = PlanBuilder::new(s).match_pattern(p).unwrap();
        let pred = Expr::bin(
            BinOp::Gt,
            builder.prop("c", "tag").unwrap(),
            Expr::Const(Value::Int(1)),
        );
        builder
            .select(pred)
            .project(vec![
                (ProjectItem::Expr(Expr::Column(0)), "a"),
                (ProjectItem::Expr(Expr::Column(1)), "b"),
                (ProjectItem::Expr(Expr::Column(2)), "c"),
            ])
            .unwrap()
            .build()
    }

    /// Every optimizer configuration must produce the same result set.
    #[test]
    fn all_configs_agree_on_results() {
        let g = mock();
        let s = schema(&g);
        let plan = triangle_plan(&s);
        let catalog = CostStats::build(&g, 100);
        let canon = |mut v: Vec<gs_ir::Record>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        let baseline = canon(execute(&Optimizer::disabled().optimize(&plan).unwrap(), &g).unwrap());
        assert!(!baseline.is_empty());
        for config in [
            OptimizerConfig {
                fusion: true,
                filter_push: false,
                cbo: false,
            },
            OptimizerConfig {
                fusion: false,
                filter_push: true,
                cbo: false,
            },
            OptimizerConfig {
                fusion: false,
                filter_push: false,
                cbo: true,
            },
            OptimizerConfig::default(),
        ] {
            let opt = Optimizer::with_config(config.clone(), Some(catalog.clone()));
            let res = canon(execute(&opt.optimize(&plan).unwrap(), &g).unwrap());
            assert_eq!(res, baseline, "config {config:?} diverged");
        }
    }

    /// No rule may raise the estimated cost of the optimized triangle
    /// plan: the full config is compared with the same config minus each
    /// rule (minus `cbo` lowers the pattern in declaration order).
    #[test]
    fn no_rule_raises_estimated_cost() {
        let g = mock();
        let s = schema(&g);
        let plan = triangle_plan(&s);
        let catalog = CostStats::build(&g, 100);
        let cost = |config: OptimizerConfig| {
            let opt = Optimizer::with_config(config, Some(catalog.clone()));
            cost_physical(
                &opt.optimize(&plan).unwrap(),
                Some(&catalog),
                &CostBudget::default(),
            )
            .total_est_rows
        };
        let all = OptimizerConfig::default();
        let with_all = cost(all.clone());
        for (rule, without) in [
            (
                "filter_push",
                OptimizerConfig {
                    filter_push: false,
                    ..all.clone()
                },
            ),
            (
                "fusion",
                OptimizerConfig {
                    fusion: false,
                    ..all.clone()
                },
            ),
            (
                "cbo",
                OptimizerConfig {
                    cbo: false,
                    ..all.clone()
                },
            ),
        ] {
            let before = cost(without);
            assert!(
                with_all <= before,
                "{rule} raised the estimate: {before} -> {with_all}"
            );
        }
    }

    #[test]
    fn optimized_plan_is_shorter() {
        let g = mock();
        let s = schema(&g);
        let plan = triangle_plan(&s);
        let naive = Optimizer::disabled().optimize(&plan).unwrap();
        let optimized = Optimizer::new(CostStats::build(&g, 100))
            .optimize(&plan)
            .unwrap();
        assert!(
            optimized.ops.len() <= naive.ops.len(),
            "optimized {} vs naive {}",
            optimized.ops.len(),
            naive.ops.len()
        );
    }
}
