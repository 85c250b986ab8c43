//! The unified execution interface over GraphIR physical plans.
//!
//! The Flex stack has three ways to run a [`PhysicalPlan`] — the
//! single-threaded reference [`exec`](crate::exec)utor, Gaia's
//! data-parallel dataflow runtime, and HiActor's OLTP service.
//! [`QueryEngine`] is the one interface all three implement, so engine
//! choice becomes a value-level decision (`&dyn QueryEngine`) instead of
//! a call-site decision: differential tests iterate over a slice of
//! engines, and `gs-flex`'s builder hands back whichever engine the
//! deployment descriptor selected.
//!
//! Every engine's [`QueryEngine::prepare`] builds the same handle,
//! [`Prepared`]: check the engine's required capabilities, verify the plan
//! once against the graph's schema, then run the engine's plan runner on
//! the calling thread. Engines differ only in that runner.

use crate::physical::PhysicalPlan;
use crate::record::Record;
use crate::verify::{verify_on_submit, VerifyLevel};
use crate::{Result, Value};
use gs_grin::{Capabilities, GrinGraph};
use std::sync::atomic::{AtomicBool, Ordering};

/// A compiled, engine-resident query handle: the *execute-many* half of
/// the prepare/execute split.
///
/// Submit-time plan verification runs once, on the first execute (prepare
/// has no schema in scope); each later [`PreparedQuery::execute`] runs the
/// plan over a graph without repeating it. Handles are `Send + Sync` so a
/// serving layer can share one prepared statement across sessions.
///
/// A handle may be prepared from a statement *template*, whose plan holds
/// parameter slots ([`crate::Slot`]); each execution binds them to
/// constants first ([`PreparedQuery::execute_with`]), so the engine's plan
/// runner never sees a slot.
pub trait PreparedQuery: Send + Sync {
    /// Runs the prepared plan to completion over `graph`, with its
    /// parameter slots bound to `binds` (a slot-free plan ignores them).
    ///
    /// Same contract as [`QueryEngine::execute`]: the batch is fully
    /// materialised on return and no reference to `graph` is retained.
    fn execute_with(&self, graph: &dyn GrinGraph, binds: &[Value]) -> Result<Vec<Record>>;

    /// Runs a slot-free prepared plan: [`PreparedQuery::execute_with`]
    /// with no binds.
    fn execute(&self, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        self.execute_with(graph, &[])
    }

    /// The physical plan this handle was prepared from.
    fn plan(&self) -> &PhysicalPlan;

    /// Name of the engine that prepared this handle.
    fn engine_name(&self) -> &'static str;
}

/// A query-execution engine: runs a physical plan over a GRIN graph to a
/// materialised record batch.
///
/// All implementations must agree with the reference executor's operator
/// semantics ([`crate::exec::apply`]); they differ only in *how* the work
/// is scheduled (single thread or data-parallel workers).
///
/// Engines are `Send + Sync`: a deployment hands one engine to many
/// serving sessions, and prepared handles may outlive the call that
/// created them on another thread.
pub trait QueryEngine: Send + Sync {
    /// Runs `plan` to completion and returns every output record.
    ///
    /// Implementations may parallelise internally but must not return
    /// until the batch is fully materialised, and must not retain any
    /// reference to `graph` afterwards.
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>>;

    /// Short engine identifier for diagnostics and telemetry labels.
    fn name(&self) -> &'static str;

    /// Prepares `plan` for repeated execution: parse → lower → optimize →
    /// verify happen *once* upstream, and the returned handle executes
    /// many times without re-verifying. Implementations return a
    /// [`Prepared`] over their own plan runner.
    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn PreparedQuery>>;
}

/// The definitional engine: single-threaded, materialised intermediates,
/// delegating straight to [`crate::exec::execute`]. Every other engine is
/// differential-tested against this one.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReferenceEngine {
    /// Submit-time plan verification policy (defaults to
    /// [`VerifyLevel::Warn`]: verify and count, never reject).
    pub verify: VerifyLevel,
}

impl ReferenceEngine {
    /// Engine with an explicit submit-time verification level.
    pub fn with_verify(verify: VerifyLevel) -> Self {
        Self { verify }
    }
}

impl QueryEngine for ReferenceEngine {
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        verify_on_submit(plan, graph.schema(), self.verify, self.name())?;
        crate::exec::execute(plan, graph)
    }

    fn name(&self) -> &'static str {
        "reference"
    }

    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn PreparedQuery>> {
        Ok(Box::new(Prepared::new(
            "reference",
            plan,
            self.verify,
            Capabilities::empty(),
            crate::exec::execute,
        )))
    }
}

/// The one prepared handle: every engine's [`QueryEngine::prepare`]
/// builds it around that engine's plan runner `R`.
///
/// Each execute checks the graph against the engine's required
/// capabilities; the first execute also runs submit-time verification,
/// which later executes skip (verifying a template covers every binding:
/// a slot verifies as a constant of its type, and binding checks that
/// type); then `R` runs the plan on the calling thread. `R` is a type
/// parameter, so a handle over [`crate::exec::execute`] is a direct call,
/// and a slot-free plan runs with no per-execute clone or allocation.
pub struct Prepared<R> {
    plan: PhysicalPlan,
    /// Whether the plan holds parameter slots, which each execute binds
    /// on a copy of the plan.
    slotted: bool,
    engine: &'static str,
    requires: Capabilities,
    verify: VerifyLevel,
    verified: AtomicBool,
    run: R,
}

impl<R> Prepared<R>
where
    R: Fn(&PhysicalPlan, &dyn GrinGraph) -> Result<Vec<Record>> + Send + Sync,
{
    /// A handle for `engine` over a copy of `plan`, verifying at `verify`
    /// and requiring `requires` of every graph it runs on.
    pub fn new(
        engine: &'static str,
        plan: &PhysicalPlan,
        verify: VerifyLevel,
        requires: Capabilities,
        run: R,
    ) -> Self {
        Self {
            plan: plan.clone(),
            // binding with no values fails exactly when a slot is present
            slotted: plan.bind(&[]).is_err(),
            engine,
            requires,
            verify,
            verified: AtomicBool::new(false),
            run,
        }
    }
}

impl<R> PreparedQuery for Prepared<R>
where
    R: Fn(&PhysicalPlan, &dyn GrinGraph) -> Result<Vec<Record>> + Send + Sync,
{
    fn execute_with(&self, graph: &dyn GrinGraph, binds: &[Value]) -> Result<Vec<Record>> {
        graph.capabilities().require(self.requires)?;
        // a concurrent first call may verify twice — harmless, the
        // verifier is pure
        if !self.verified.load(Ordering::Acquire) {
            verify_on_submit(&self.plan, graph.schema(), self.verify, self.engine)?;
            self.verified.store(true, Ordering::Release);
        }
        if self.slotted {
            (self.run)(&self.plan.bind(binds)?, graph)
        } else {
            (self.run)(&self.plan, graph)
        }
    }

    fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    fn engine_name(&self) -> &'static str {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower_naive;
    use crate::PlanBuilder;
    use gs_grin::graph::mock::MockGraph;

    #[test]
    fn reference_engine_matches_exec() {
        let g = MockGraph::new(20, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let s = g.schema().clone();
        let plan = lower_naive(&PlanBuilder::new(&s).scan("a", "V").unwrap().build()).unwrap();
        let engine: &dyn QueryEngine = &ReferenceEngine::default();
        assert_eq!(engine.name(), "reference");
        let rows = engine.execute(&plan, &g).unwrap();
        assert_eq!(rows, crate::exec::execute(&plan, &g).unwrap());
        assert_eq!(rows.len(), 20);
    }

    #[test]
    fn prepared_handle_matches_direct_execution() {
        let g = MockGraph::new(12, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let s = g.schema().clone();
        let plan = lower_naive(&PlanBuilder::new(&s).scan("a", "V").unwrap().build()).unwrap();
        let engine: &dyn QueryEngine = &ReferenceEngine::default();
        let prepared = engine.prepare(&plan).unwrap();
        assert_eq!(prepared.engine_name(), "reference");
        assert_eq!(prepared.plan().ops.len(), plan.ops.len());
        // execute-many: repeated calls keep answering
        for _ in 0..3 {
            assert_eq!(
                prepared.execute(&g).unwrap(),
                engine.execute(&plan, &g).unwrap()
            );
        }
    }

    #[test]
    fn prepared_deny_handle_rejects_bad_plan() {
        use crate::physical::PhysicalOp;
        use crate::record::Layout;
        let g = MockGraph::new(4, &[(0, 1, 1.0)]);
        let bad = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                label: crate::LabelId(42),
                predicate: None,
                index_lookup: None,
            }],
            layout: Layout::new(),
        };
        let deny = ReferenceEngine::with_verify(VerifyLevel::Deny);
        let prepared = QueryEngine::prepare(&deny, &bad).unwrap();
        let err = prepared.execute(&g).unwrap_err();
        assert!(err.to_string().contains("E001"), "{err}");
    }

    #[test]
    fn deny_level_rejects_bad_plan_on_submit() {
        use crate::physical::PhysicalOp;
        use crate::record::Layout;
        use crate::verify::VerifyLevel;
        let g = MockGraph::new(4, &[(0, 1, 1.0)]);
        let bad = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                label: crate::LabelId(42),
                predicate: None,
                index_lookup: None,
            }],
            layout: Layout::new(),
        };
        let deny = ReferenceEngine::with_verify(VerifyLevel::Deny);
        let err = deny.execute(&bad, &g).unwrap_err();
        assert!(err.to_string().contains("E001"), "{err}");
        // Off never raises the verifier's diagnostic (whatever exec does).
        let off = ReferenceEngine::with_verify(VerifyLevel::Off);
        if let Err(e) = off.execute(&bad, &g) {
            assert!(!e.to_string().contains("E001"), "{e}");
        }
    }
}
