//! # gs-ir — GraphIR, the unified intermediate representation for graph
//! queries
//!
//! The paper's interactive stack (§5) compiles *both* Gremlin and Cypher
//! into one IR so the parser/optimizer/codegen pipeline is built once. The
//! IR defines:
//!
//! * a data model `D` — [`record::Record`]s of [`Value`]s including the
//!   graph-associated types (vertex/edge/path), with a compile-time
//!   [`record::Layout`] mapping query aliases to record columns;
//! * an operator set `Ω` — **graph operators** (`ScanVertex`, `ExpandEdge`,
//!   `GetVertex`, pattern `Match`) and **relational operators** (`Select`,
//!   `Project`, `Order`, `GroupBy`, `Dedup`, `Limit`) over those records;
//! * [`logical`] and [`physical`] plan stages: the logical DAG captures
//!   query semantics; the physical plan concretises execution order (the
//!   optimizer in `gs-optimizer` produces it; [`physical::lower_naive`]
//!   gives the unoptimized lowering used as the Fig. 7(e) baseline).
//!   Lowering is the only code that interprets a logical op: [`verify`]
//!   and [`cost`] analyse physical plans, and a logical plan is verified
//!   through its naive lowering;
//! * a reference [`exec`]utor defining operator semantics; the Gaia and
//!   HiActor engines reuse these semantics with their own parallel/actor
//!   runtimes and are differential-tested against it.

pub mod builder;
pub mod cost;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod logical;
pub mod pattern;
pub mod physical;
pub mod record;
pub mod verify;

pub use builder::PlanBuilder;
pub use cost::{
    cost_physical, CardInterval, CostBudget, CostReport, CostStats, EdgeCostStats, OpCost,
};
pub use engine::{Prepared, PreparedQuery, QueryEngine, ReferenceEngine};
pub use expr::{AggFunc, BinOp, Expr, Slot};
pub use logical::{LogicalOp, LogicalPlan};
pub use pattern::{Pattern, PatternEdge, PatternVertex};
pub use physical::{PhysicalOp, PhysicalPlan};
pub use record::{Layout, Record};
pub use verify::{
    verify_logical, verify_physical, Diagnostic, Severity, VerifyLevel, VerifyReport,
};

pub use gs_graph::{GraphError, LabelId, PropId, Result, VId, Value};
