//! # gs-hiactor — HiActor, the high-concurrency OLTP engine
//!
//! HiActor (paper §5, after Alibaba's hiactor framework) targets the OLTP
//! side of graph querying: many small concurrent queries, each cheap, where
//! throughput and tail latency matter more than per-query parallelism.
//!
//! Plans — ad-hoc and prepared — run to completion on the calling thread,
//! after the capability check and submit-time verify: a point query costs
//! less than a thread hop, and the serving layer's admission already bounds
//! concurrency. That is the design contrast with Gaia: no coordination and
//! no data parallelism within one query.
//!
//! Stored procedures are served by `gs-serve` (`Server::register` /
//! `Session::call`): they run on the caller too, behind the same admission
//! ladder as statements (§8 real-time fraud detection runs exactly this
//! stack over GART).

use gs_grin::GrinGraph;
use gs_ir::exec::execute;
use gs_ir::physical::PhysicalPlan;
use gs_ir::record::Record;
use gs_ir::Result;

/// The GRIN capabilities HiActor requires from a store: iterator access
/// plus properties, and external-id lookup so parameterized procedures can
/// seed traversals from user-supplied ids. Validated at
/// [`gs_ir::QueryEngine::execute`], mirroring Gaia.
pub const REQUIRED_CAPABILITIES: gs_grin::Capabilities = gs_grin::Capabilities::VERTEX_LIST_ITER
    .union(gs_grin::Capabilities::ADJ_LIST_ITER)
    .union(gs_grin::Capabilities::PROPERTY)
    .union(gs_grin::Capabilities::INDEX_EXTERNAL_ID);

/// The OLTP query engine: a thread-free [`gs_ir::QueryEngine`] that runs
/// plans on the caller after its capability check and submit-time verify.
pub struct QueryService {
    verify: gs_ir::VerifyLevel,
}

impl QueryService {
    /// A query engine. The argument once sized a shard pool and is unused:
    /// no thread is started.
    pub fn new(_shards: usize) -> Self {
        Self {
            verify: gs_ir::VerifyLevel::default(),
        }
    }

    /// Sets the submit-time plan verification level for ad-hoc and
    /// prepared plans.
    pub fn with_verify(mut self, verify: gs_ir::VerifyLevel) -> Self {
        self.verify = verify;
        self
    }
}

impl gs_ir::QueryEngine for QueryService {
    /// Runs the plan to completion on the calling thread.
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        graph.capabilities().require(REQUIRED_CAPABILITIES)?;
        gs_ir::verify::verify_on_submit(plan, graph.schema(), self.verify, "hiactor")?;
        execute(plan, graph)
    }

    fn name(&self) -> &'static str {
        "hiactor"
    }

    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn gs_ir::PreparedQuery>> {
        Ok(Box::new(gs_ir::Prepared::new(
            "hiactor",
            plan,
            self.verify,
            REQUIRED_CAPABILITIES,
            execute,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;
    use gs_ir::physical::lower_naive;
    use gs_ir::{PlanBuilder, QueryEngine, ReferenceEngine};

    fn graph() -> MockGraph {
        MockGraph::new(
            100,
            &(0..300u64)
                .map(|i| (i % 100, (i * 13 + 1) % 100, 1.0))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn query_engine_runs_adhoc_plans() {
        let g = graph();
        let s = g.schema().clone();
        let plan = lower_naive(&PlanBuilder::new(&s).scan("a", "V").unwrap().build()).unwrap();
        let svc = QueryService::new(2);
        assert_eq!(QueryEngine::name(&svc), "hiactor");
        let rows = QueryEngine::execute(&svc, &plan, &g).unwrap();
        assert_eq!(rows.len(), 100);
    }

    /// Ad-hoc and prepared plans return the reference rows on the calling
    /// thread.
    #[test]
    fn plans_run_on_the_caller() {
        let g = graph();
        let s = g.schema().clone();
        let plan = lower_naive(
            &PlanBuilder::new(&s)
                .scan("a", "V")
                .unwrap()
                .expand_edge("a", "E", gs_grin::Direction::Out, "e")
                .unwrap()
                .get_vertex("e", "b")
                .unwrap()
                .build(),
        )
        .unwrap();
        let svc = QueryService::new(2);
        let want = ReferenceEngine::default().execute(&plan, &g).unwrap();
        assert_eq!(want.len(), 300);
        assert_eq!(QueryEngine::execute(&svc, &plan, &g).unwrap(), want);
        let prepared = svc.prepare(&plan).unwrap();
        assert_eq!(prepared.engine_name(), "hiactor");
        for _ in 0..3 {
            assert_eq!(prepared.execute(&g).unwrap(), want);
        }
    }
}
