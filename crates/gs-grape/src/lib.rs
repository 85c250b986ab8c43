//! # gs-grape — GRAPE, the high-performance analytical engine
//!
//! The analytics stack of GraphScope Flex (paper §6): a distributed
//! (thread-per-fragment, edge-cut) BSP engine with
//!
//! * [`fragment`]s and GRAPE's "highly optimized core operators for
//!   fragment management, local evaluations ... and their communication",
//! * a [`messages`] manager that aggregates small messages into compact
//!   varint-encoded buffers (trading latency for throughput, as §6
//!   describes),
//! * three programming models — the vertex-centric **Pregel** API
//!   ([`engine::PregelProgram`]), the subgraph-centric **PIE** model
//!   ([`pie::PieProgram`], auto-parallelizing sequential fragment code),
//!   and the vertex-subset **FLASH** model ([`flash`]) with non-neighbor
//!   communication,
//! * the built-in [`algorithms`] package (PageRank/BFS/SSSP/WCC/CDLP/
//!   k-core/LCC), and
//! * a simulated-[`gpu`] backend with load-balanced thread mapping and
//!   inter-device work stealing.

pub mod algorithms;
pub mod compat;
pub mod engine;
pub mod flash;
pub mod fragment;
pub mod gpu;
pub mod ingress;
pub mod loader;
pub mod messages;
pub mod pie;
pub mod recover;
pub mod traversal;

pub use engine::{
    run_pregel, ClusterAborted, CommHandle, GlobalSync, GrapeEngine, PregelContext, PregelProgram,
};
pub use flash::{run_flash, FlashContext, VertexSubset};
pub use fragment::Fragment;
pub use gpu::{bfs_gpu, pagerank_gpu, Device, GpuCluster};
pub use ingress::IncrementalPageRank;
pub use loader::{load_fragments, GrinProjection, VertexSpace, REQUIRED_CAPABILITIES};
pub use messages::{MessageBlock, OutBuffers, Payload};
pub use pie::{run_pie, PieContext, PieProgram};
pub use recover::{CheckpointStore, RecoveryConfig};
pub use traversal::{
    bfs_direction_optimizing, bfs_with_policy, sssp_direction_optimizing, sssp_with_policy,
    TraversalPolicy, TraversalReport,
};
