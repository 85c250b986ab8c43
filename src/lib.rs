//! # GraphScope Flex (Rust reproduction)
//!
//! A from-scratch Rust implementation of *GraphScope Flex: LEGO-like Graph
//! Computing Stack* (SIGMOD 2024): a modular graph computing stack whose
//! storage backends, query front-ends, execution engines, analytical
//! models, and learning pipeline compose like bricks.
//!
//! This crate is the umbrella: it re-exports every brick and provides a
//! [`prelude`] for examples and downstream users. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! | Layer | Crates |
//! |---|---|
//! | Storage | [`gs_vineyard`], [`gs_gart`], [`gs_graphar`] behind [`gs_grin`] |
//! | Query | [`gs_lang`] → [`gs_ir`] → [`gs_optimizer`] → [`gs_gaia`] / [`gs_hiactor`] |
//! | Analytics | [`gs_grape`] (Pregel / PIE / FLASH, CPU + simulated GPU) |
//! | Learning | [`gs_learn`] (sampler, pipeline, GraphSAGE, NCN) |
//! | Assembly | [`gs_flex`] (flexbuild, SNB workloads, §8 applications) |
//! | Comparators | [`gs_baselines`] |

pub use gs_baselines;
pub use gs_chaos;
pub use gs_datagen;
pub use gs_flex;
pub use gs_gaia;
pub use gs_gart;
pub use gs_grape;
pub use gs_graph;
pub use gs_graphar;
pub use gs_grin;
pub use gs_hiactor;
pub use gs_ir;
pub use gs_lang;
pub use gs_learn;
pub use gs_optimizer;
pub use gs_sanitizer;
pub use gs_serve;
pub use gs_telemetry;
pub use gs_vineyard;

/// Everything the examples need, one import away.
pub mod prelude {
    pub use gs_datagen::snb::{generate as generate_snb, SnbConfig};
    pub use gs_flex::{Component, DeployTarget, EngineChoice, FlexBuild};
    pub use gs_gaia::GaiaEngine;
    pub use gs_gart::GartStore;
    pub use gs_grape::algorithms as grape_algorithms;
    pub use gs_grape::GrapeEngine;
    pub use gs_graph::schema::GraphSchema;
    pub use gs_graph::{PropertyGraphData, VId, Value, ValueType};
    pub use gs_grin::{Capabilities, Direction, GrinGraph};
    pub use gs_hiactor::QueryService;
    pub use gs_ir::{CostStats, Expr, PlanBuilder, PreparedQuery, QueryEngine, ReferenceEngine};
    pub use gs_lang::{parse_cypher, parse_gremlin, CompiledQuery, Frontend};
    pub use gs_optimizer::Optimizer;
    pub use gs_serve::{
        GartServeStore, Priority, ServeConfig, ServeStore, Server, StaticServeStore,
    };
    pub use gs_vineyard::VineyardGraph;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let d = FlexBuild::compose(
            "t",
            &[Component::Grape, Component::Grin, Component::Vineyard],
            DeployTarget::SingleMachineBinary,
        )
        .unwrap();
        assert_eq!(d.name, "t");
    }
}
