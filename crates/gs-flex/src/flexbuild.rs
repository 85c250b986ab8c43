//! flexbuild — LEGO-brick component selection and deployment composition
//! (paper §3).
//!
//! Users pick numbered components (the paper's ①–㉔); flexbuild validates
//! that the selection composes into a working stack (every engine has a
//! storage backend whose capabilities satisfy the engine's requirements,
//! every interface has an engine, …) and produces a [`Deployment`]
//! manifest. The §3 examples reproduce directly: the anti-fraud engineers'
//! `①⑤⑭⑯⑳㉒` and the BI data scientist's `②④⑧⑨⑩⑬⑳㉓`.

use gs_graph::json::Json;
use gs_graph::GraphError;
use gs_graph::LayoutKind;
use gs_grin::Capabilities;
use std::collections::BTreeSet;

/// Every selectable component, numbered as in the paper's Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// ① language SDKs
    Sdk = 1,
    /// ② WebSocket / RESTful APIs
    RestApi = 2,
    /// ③ Gremlin front-end
    Gremlin = 3,
    /// ④ Cypher front-end
    Cypher = 4,
    /// ⑤ built-in analytical algorithm library
    BuiltinAlgorithms = 5,
    /// ⑥ analytics SDK interfaces (Pregel/PIE/FLASH programming APIs)
    AnalyticsInterfaces = 6,
    /// ⑦ GNN model library
    GnnModels = 7,
    /// ⑧ GraphIR abstraction
    GraphIr = 8,
    /// ⑨ universal query optimizer
    Optimizer = 9,
    /// ⑩ OLAP code generator
    OlapCodegen = 10,
    /// ⑪ OLTP code generator
    OltpCodegen = 11,
    /// ⑫ HiActor engine (OLTP)
    HiActor = 12,
    /// ⑬ Gaia engine (OLAP)
    Gaia = 13,
    /// ⑭ PIE model
    Pie = 14,
    /// ⑮ FLASH model
    Flash = 15,
    /// ⑯ GRAPE analytical engine
    Grape = 16,
    /// ⑰ GraphLearn sampling
    GraphLearn = 17,
    /// ⑱ PyTorch-style training backend
    TorchBackend = 18,
    /// ⑲ TensorFlow-style training backend
    TfBackend = 19,
    /// ⑳ GRIN unified retrieval interface
    Grin = 20,
    /// ㉑ Vineyard immutable in-memory store
    Vineyard = 21,
    /// ㉒ GART dynamic MVCC store
    Gart = 22,
    /// ㉓ GraphAr archive store
    GraphAr = 23,
    /// ㉔ other/custom storage backends
    CustomStore = 24,
}

impl Component {
    /// Every component in paper numbering order (①–㉔).
    pub const ALL: [Component; 24] = [
        Component::Sdk,
        Component::RestApi,
        Component::Gremlin,
        Component::Cypher,
        Component::BuiltinAlgorithms,
        Component::AnalyticsInterfaces,
        Component::GnnModels,
        Component::GraphIr,
        Component::Optimizer,
        Component::OlapCodegen,
        Component::OltpCodegen,
        Component::HiActor,
        Component::Gaia,
        Component::Pie,
        Component::Flash,
        Component::Grape,
        Component::GraphLearn,
        Component::TorchBackend,
        Component::TfBackend,
        Component::Grin,
        Component::Vineyard,
        Component::Gart,
        Component::GraphAr,
        Component::CustomStore,
    ];

    /// The paper's component number (① = 1 … ㉔ = 24).
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Component::number`].
    pub fn from_number(n: u8) -> Option<Component> {
        Component::ALL.get(n.wrapping_sub(1) as usize).copied()
    }

    /// The capabilities a storage component offers through GRIN.
    pub fn storage_capabilities(self) -> Option<Capabilities> {
        match self {
            Component::Vineyard => Some(Capabilities::of(&[
                Capabilities::VERTEX_LIST_ARRAY,
                Capabilities::VERTEX_LIST_ITER,
                Capabilities::ADJ_LIST_ARRAY,
                Capabilities::ADJ_LIST_ITER,
                Capabilities::IN_ADJACENCY,
                Capabilities::PROPERTY,
                Capabilities::INDEX_EXTERNAL_ID,
                Capabilities::INDEX_PROPERTY,
                Capabilities::PREDICATE_PUSHDOWN,
            ])),
            Component::Gart => Some(gs_gart::CAPABILITIES),
            Component::GraphAr => Some(Capabilities::of(&[
                Capabilities::VERTEX_LIST_ITER,
                Capabilities::ADJ_LIST_ITER,
                Capabilities::IN_ADJACENCY,
                Capabilities::PROPERTY,
                Capabilities::INDEX_EXTERNAL_ID,
            ])),
            Component::CustomStore => Some(Capabilities::of(&[
                Capabilities::VERTEX_LIST_ITER,
                Capabilities::ADJ_LIST_ITER,
            ])),
            _ => None,
        }
    }

    /// The capabilities an engine component requires from storage.
    ///
    /// Each engine crate is the source of truth for its own contract
    /// (`REQUIRED_CAPABILITIES`, which the engine also re-validates at
    /// execution time); flexbuild only checks them earlier, at composition.
    pub fn engine_requirements(self) -> Option<Capabilities> {
        match self {
            Component::HiActor => Some(gs_hiactor::REQUIRED_CAPABILITIES),
            Component::Gaia => Some(gs_gaia::REQUIRED_CAPABILITIES),
            Component::Grape => Some(gs_grape::REQUIRED_CAPABILITIES),
            Component::GraphLearn => Some(Capabilities::of(&[
                Capabilities::VERTEX_LIST_ITER,
                Capabilities::ADJ_LIST_ITER,
            ])),
            _ => None,
        }
    }

    fn is_engine(self) -> bool {
        self.engine_requirements().is_some()
    }

    fn is_storage(self) -> bool {
        self.storage_capabilities().is_some()
    }

    /// Direct prerequisites between components (A requires B selected).
    pub fn prerequisites(self) -> &'static [Component] {
        use Component::*;
        match self {
            Gremlin | Cypher => &[GraphIr],
            GraphIr => &[Optimizer],
            OlapCodegen => &[GraphIr, Gaia],
            OltpCodegen => &[GraphIr, HiActor],
            HiActor | Gaia | Grape | GraphLearn => &[Grin],
            Pie | Flash | BuiltinAlgorithms | AnalyticsInterfaces => &[Grape],
            GnnModels => &[GraphLearn],
            TorchBackend | TfBackend => &[GraphLearn],
            Vineyard | Gart | GraphAr | CustomStore => &[Grin],
            _ => &[],
        }
    }
}

/// A validated deployment manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Deployment {
    pub name: String,
    pub components: BTreeSet<Component>,
    /// Deployment target hint (binary vs. image; single node vs. cluster).
    pub target: DeployTarget,
    /// Topology layout the deployment's stores and analytics engine
    /// materialise (`csr` by default; `sorted_csr` / `compressed_csr`
    /// trade build time or decode cost for faster intersections or a
    /// smaller footprint). Results are identical across layouts.
    pub layout: LayoutKind,
    /// Memory budget (bytes) for static plan costing (`gs_ir::cost`):
    /// plans whose estimated peak intermediate size exceeds it are
    /// flagged `C003` and shed by a serving configuration's cost gate.
    /// `None` (the default) means the stack-wide default budget.
    pub cost_budget: Option<u64>,
    /// WAL directory for the deployment's GART store. `None` (the
    /// legacy default) composes an in-memory, non-durable store;
    /// setting it makes [`Deployment::gart_store`] open a durable store
    /// with write-ahead logging and replay-on-open crash recovery.
    pub wal_dir: Option<String>,
    /// WAL sync policy for a durable GART store — `Sync` (default)
    /// fsyncs at every commit, `Buffered` trades a machine-crash suffix
    /// for throughput. Only meaningful when `wal_dir` is set.
    pub durability: gs_gart::Durability,
}

impl Deployment {
    /// Returns the deployment with the topology-layout knob set.
    pub fn with_layout(mut self, layout: LayoutKind) -> Self {
        self.layout = layout;
        self
    }

    /// Returns the deployment with the static-cost memory budget set.
    pub fn with_cost_budget(mut self, bytes: u64) -> Self {
        self.cost_budget = Some(bytes);
        self
    }

    /// Returns the deployment with the durable-GART WAL directory set.
    pub fn with_wal_dir(mut self, dir: impl Into<String>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Returns the deployment with the WAL sync policy set.
    pub fn with_durability(mut self, durability: gs_gart::Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The GART durability configuration this deployment's knobs imply,
    /// or `None` for the legacy in-memory composition.
    pub fn durability_config(&self) -> Option<gs_gart::DurabilityConfig> {
        self.wal_dir.as_ref().map(|dir| {
            let mut cfg = gs_gart::DurabilityConfig::new(dir);
            cfg.durability = self.durability;
            cfg
        })
    }

    /// Instantiates the deployment's GART store: durable (WAL +
    /// replay-on-open) when `wal_dir` is configured, in-memory otherwise.
    pub fn gart_store(
        &self,
        schema: gs_graph::schema::GraphSchema,
    ) -> gs_graph::Result<std::sync::Arc<gs_gart::GartStore>> {
        match self.durability_config() {
            Some(cfg) => gs_gart::GartStore::open(schema, cfg),
            None => Ok(gs_gart::GartStore::new(schema)),
        }
    }

    /// The capabilities `component` offers *under this deployment's
    /// knobs*: the static [`Component::storage_capabilities`], plus
    /// `DURABLE` for the GART store when a `wal_dir` is configured.
    pub fn storage_capabilities(&self, component: Component) -> Option<Capabilities> {
        let caps = component.storage_capabilities()?;
        if component == Component::Gart && self.wal_dir.is_some() {
            Some(caps.union(Capabilities::DURABLE))
        } else {
            Some(caps)
        }
    }

    /// The deployment's plan-cost budget for `gs_ir::cost` checks —
    /// defaults everywhere except the memory ceiling, which comes from
    /// the manifest's `cost_budget` knob when set.
    pub fn plan_cost_budget(&self) -> gs_ir::cost::CostBudget {
        match self.cost_budget {
            Some(bytes) => gs_ir::cost::CostBudget::with_memory(bytes),
            None => gs_ir::cost::CostBudget::default(),
        }
    }

    /// `ANALYZE` — builds the GLogue statistics catalog over any configured
    /// GRIN store, so serving and optimization can be fed real statistics
    /// (`Optimizer::new(deployment.analyze(&store, n))`) instead of
    /// ad-hoc catalogs built inside the optimizer.
    pub fn analyze(
        &self,
        store: &dyn gs_grin::GrinGraph,
        sample_per_label: usize,
    ) -> gs_ir::cost::CostStats {
        gs_ir::cost::CostStats::build(store, sample_per_label)
    }

    /// Encodes the manifest as JSON (components by paper number).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(&self.name)),
            (
                "components",
                Json::arr(self.components.iter().map(|c| Json::Int(c.number() as i64))),
            ),
            (
                "target",
                Json::str(match self.target {
                    DeployTarget::SingleMachineBinary => "single-machine-binary",
                    DeployTarget::ClusterImage => "cluster-image",
                }),
            ),
            ("layout", Json::str(self.layout.name())),
        ];
        if let Some(bytes) = self.cost_budget {
            fields.push(("cost_budget", Json::Int(bytes as i64)));
        }
        if let Some(dir) = &self.wal_dir {
            fields.push(("wal_dir", Json::str(dir)));
            fields.push((
                "durability",
                Json::str(match self.durability {
                    gs_gart::Durability::Sync => "sync",
                    gs_gart::Durability::Buffered => "buffered",
                }),
            ));
        }
        Json::obj(fields)
    }

    /// Instantiates the deployment's query engine behind the unified
    /// [`gs_ir::QueryEngine`] interface. Gaia wins when both interactive
    /// engines are selected (the OLAP engine subsumes ad-hoc plan
    /// execution); HiActor is next; a selection with neither falls back to
    /// the reference executor. `parallelism` sets Gaia's worker count;
    /// HiActor runs plans on the caller and ignores it.
    pub fn query_engine(&self, parallelism: usize) -> Box<dyn gs_ir::QueryEngine> {
        self.query_engine_with_verify(parallelism, gs_ir::VerifyLevel::Deny)
    }

    /// Like [`Deployment::query_engine`] with an explicit submit-time plan
    /// verification level. Deployed engines default to
    /// [`gs_ir::VerifyLevel::Deny`]: a composed stack refuses malformed
    /// plans at the boundary rather than executing them.
    pub fn query_engine_with_verify(
        &self,
        parallelism: usize,
        verify: gs_ir::VerifyLevel,
    ) -> Box<dyn gs_ir::QueryEngine> {
        if self.components.contains(&Component::Gaia) {
            Box::new(gs_gaia::GaiaEngine::new(parallelism).with_verify(verify))
        } else if self.components.contains(&Component::HiActor) {
            Box::new(gs_hiactor::QueryService::new(parallelism).with_verify(verify))
        } else {
            Box::new(gs_ir::ReferenceEngine::with_verify(verify))
        }
    }

    /// Engine selection for a *serving* configuration: honours an explicit
    /// engine request and fails structurally when this deployment cannot
    /// satisfy it, instead of silently falling back.
    ///
    /// The error is the same [`BuildError::EngineUnsatisfied`] shape
    /// composition uses: it names the requested engine component and
    /// carries the [`GraphError::UnsupportedCapability`] listing exactly
    /// what is missing — the storage capability gap, or the engine
    /// component itself when it was never selected.
    pub fn serving_engine(
        &self,
        requested: EngineChoice,
        parallelism: usize,
        verify: gs_ir::VerifyLevel,
    ) -> Result<Box<dyn gs_ir::QueryEngine>, BuildError> {
        let component = match requested {
            EngineChoice::Auto => {
                return Ok(self.query_engine_with_verify(parallelism, verify));
            }
            // the reference executor has no storage requirements — always
            // satisfiable
            EngineChoice::Reference => {
                return Ok(Box::new(gs_ir::ReferenceEngine::with_verify(verify)));
            }
            EngineChoice::Gaia => Component::Gaia,
            EngineChoice::HiActor => Component::HiActor,
        };
        let req = component.engine_requirements().unwrap();
        let storages: Vec<Component> = self
            .components
            .iter()
            .copied()
            .filter(|c| c.is_storage())
            .collect();
        // closest selected storage's capability gap, as in compose()
        let mut best_missing: Option<Vec<String>> =
            Some(Capabilities::default().missing_names(req));
        for s in &storages {
            let missing = s.storage_capabilities().unwrap().missing_names(req);
            if missing.is_empty() {
                best_missing = None;
                break;
            }
            if best_missing
                .as_ref()
                .is_none_or(|b| missing.len() < b.len())
            {
                best_missing = Some(missing);
            }
        }
        let missing = match best_missing {
            Some(gap) => gap,
            None if !self.components.contains(&component) => {
                vec![format!("{component:?} (engine component not selected)")]
            }
            None => {
                return Ok(match component {
                    Component::Gaia => {
                        Box::new(gs_gaia::GaiaEngine::new(parallelism).with_verify(verify))
                    }
                    _ => Box::new(gs_hiactor::QueryService::new(parallelism).with_verify(verify)),
                });
            }
        };
        Err(BuildError::EngineUnsatisfied {
            engine: component,
            error: GraphError::UnsupportedCapability { missing },
        })
    }

    /// Statically verifies a physical plan against this deployment's
    /// schema, folding verifier errors into a structured
    /// [`BuildError::PlanRejected`] (warnings do not reject).
    pub fn verify_plan(
        &self,
        plan: &gs_ir::PhysicalPlan,
        schema: &gs_graph::schema::GraphSchema,
    ) -> Result<gs_ir::VerifyReport, BuildError> {
        let report = gs_ir::verify_physical(plan, schema);
        if report
            .diagnostics
            .iter()
            .any(|d| d.severity == gs_ir::Severity::Error)
        {
            return Err(BuildError::PlanRejected {
                diagnostics: report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == gs_ir::Severity::Error)
                    .map(|d| d.to_string())
                    .collect(),
            });
        }
        Ok(report)
    }

    /// Instantiates the deployment's analytics engine — the GRAPE
    /// counterpart of [`Deployment::query_engine`]. `None` when GRAPE is
    /// not part of the selection. `parallelism` sets the fragment/worker
    /// count.
    pub fn analytics_engine(&self, parallelism: usize) -> Option<AnalyticsEngine> {
        self.components
            .contains(&Component::Grape)
            .then_some(AnalyticsEngine {
                fragments: parallelism.max(1),
                layout: self.layout,
            })
    }

    /// Decodes a manifest written by [`Deployment::to_json`].
    pub fn from_json(doc: &Json) -> gs_graph::Result<Self> {
        let components = doc
            .field("components")?
            .as_arr()
            .ok_or_else(|| GraphError::Corrupt("deployment: components not an array".into()))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .and_then(|n| Component::from_number(n as u8))
                    .ok_or_else(|| GraphError::Corrupt(format!("deployment: bad component {c:?}")))
            })
            .collect::<gs_graph::Result<BTreeSet<Component>>>()?;
        let target = match doc.field("target")?.as_str() {
            Some("single-machine-binary") => DeployTarget::SingleMachineBinary,
            Some("cluster-image") => DeployTarget::ClusterImage,
            other => {
                return Err(GraphError::Corrupt(format!(
                    "deployment: unknown target {other:?}"
                )))
            }
        };
        // manifests written before the layout knob existed default to csr
        let layout = match doc.field("layout") {
            Ok(j) => {
                let name = j
                    .as_str()
                    .ok_or_else(|| GraphError::Corrupt("deployment: layout not a string".into()))?;
                LayoutKind::from_name(name).ok_or_else(|| {
                    GraphError::Corrupt(format!("deployment: unknown layout {name:?}"))
                })?
            }
            Err(_) => LayoutKind::default(),
        };
        // manifests written before the cost knob existed have no budget
        let cost_budget = match doc.field("cost_budget") {
            Ok(j) => Some(j.as_u64().ok_or_else(|| {
                GraphError::Corrupt(format!("deployment: cost_budget not an integer: {j:?}"))
            })?),
            Err(_) => None,
        };
        // manifests written before the durability knobs existed compose
        // the legacy in-memory store
        let wal_dir = match doc.field("wal_dir") {
            Ok(j) => Some(
                j.as_str()
                    .ok_or_else(|| GraphError::Corrupt("deployment: wal_dir not a string".into()))?
                    .to_string(),
            ),
            Err(_) => None,
        };
        let durability = match doc.field("durability") {
            Ok(j) => match j.as_str() {
                Some("sync") => gs_gart::Durability::Sync,
                Some("buffered") => gs_gart::Durability::Buffered,
                other => {
                    return Err(GraphError::Corrupt(format!(
                        "deployment: unknown durability {other:?}"
                    )))
                }
            },
            Err(_) => gs_gart::Durability::Sync,
        };
        Ok(Deployment {
            name: doc
                .field("name")?
                .as_str()
                .ok_or_else(|| GraphError::Corrupt("deployment: name".into()))?
                .to_string(),
            components,
            target,
            layout,
            cost_budget,
            wal_dir,
            durability,
        })
    }
}

/// Deployment target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeployTarget {
    SingleMachineBinary,
    ClusterImage,
}

/// The deployment-selected analytical engine (GRAPE): loads fragments from
/// the deployment's GRIN store, so analytics presets actually exercise the
/// store they were composed with instead of a private edge list.
pub struct AnalyticsEngine {
    fragments: usize,
    layout: LayoutKind,
}

impl AnalyticsEngine {
    /// Engine name (matches [`gs_ir::QueryEngine::name`]'s convention).
    pub fn name(&self) -> &'static str {
        "grape"
    }

    /// Fragment (worker) count used when loading.
    pub fn fragments(&self) -> usize {
        self.fragments
    }

    /// Fragment topology layout inherited from the deployment manifest.
    pub fn layout(&self) -> LayoutKind {
        self.layout
    }

    /// Loads the projection out of `store` into a [`gs_grape::GrapeEngine`];
    /// capability validation happens inside the loader. The deployment's
    /// layout knob applies unless the projection sets its own non-default
    /// layout.
    pub fn load(
        &self,
        store: &dyn gs_grin::GrinGraph,
        proj: &gs_grape::GrinProjection,
    ) -> gs_graph::Result<(gs_grape::GrapeEngine, gs_grape::VertexSpace)> {
        let mut proj = proj.clone();
        if proj.layout == LayoutKind::default() {
            proj.layout = self.layout;
        }
        gs_grape::GrapeEngine::from_grin(store, &proj, self.fragments)
    }
}

/// An explicit engine request from a serving configuration, resolved by
/// [`Deployment::serving_engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Take whatever the deployment composed (Gaia > HiActor > reference).
    #[default]
    Auto,
    /// Require Gaia's data-parallel dataflow engine.
    Gaia,
    /// Require HiActor's OLTP engine.
    HiActor,
    /// Require the single-threaded reference executor.
    Reference,
}

impl EngineChoice {
    /// Parses a serving-config engine name (`auto`/`gaia`/`hiactor`/
    /// `reference`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(Self::Auto),
            "gaia" => Some(Self::Gaia),
            "hiactor" => Some(Self::HiActor),
            "reference" => Some(Self::Reference),
            _ => None,
        }
    }
}

/// Composition errors reported by flexbuild.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    MissingPrerequisite {
        component: Component,
        needs: Component,
    },
    EngineWithoutStorage(Component),
    /// No selected storage satisfies the engine; `error` is the structured
    /// [`GraphError::UnsupportedCapability`] (closest storage's gap) the
    /// engine itself would raise at execution time.
    EngineUnsatisfied {
        engine: Component,
        error: GraphError,
    },
    EmptySelection,
    /// A query plan failed static verification against the deployment's
    /// schema; one rendered [`gs_ir::Diagnostic`] per entry.
    PlanRejected {
        diagnostics: Vec<String>,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingPrerequisite { component, needs } => {
                write!(f, "{component:?} requires {needs:?} to be selected")
            }
            BuildError::EngineWithoutStorage(e) => {
                write!(f, "engine {e:?} has no storage backend selected")
            }
            BuildError::EngineUnsatisfied { engine, error } => {
                write!(f, "no selected storage satisfies {engine:?}: {error}")
            }
            BuildError::EmptySelection => write!(f, "no components selected"),
            BuildError::PlanRejected { diagnostics } => {
                write!(f, "plan rejected by verifier: {}", diagnostics.join("; "))
            }
        }
    }
}

/// The flexbuild composer.
pub struct FlexBuild;

impl FlexBuild {
    /// Validates a component selection and produces a deployment.
    pub fn compose(
        name: &str,
        components: &[Component],
        target: DeployTarget,
    ) -> Result<Deployment, BuildError> {
        if components.is_empty() {
            return Err(BuildError::EmptySelection);
        }
        let set: BTreeSet<Component> = components.iter().copied().collect();
        for &c in &set {
            for &need in c.prerequisites() {
                if !set.contains(&need) {
                    return Err(BuildError::MissingPrerequisite {
                        component: c,
                        needs: need,
                    });
                }
            }
        }
        // every engine must have at least one satisfying storage backend
        let storages: Vec<Component> = set.iter().copied().filter(|c| c.is_storage()).collect();
        for &c in &set {
            if c.is_engine() {
                if storages.is_empty() {
                    return Err(BuildError::EngineWithoutStorage(c));
                }
                let req = c.engine_requirements().unwrap();
                // keep the closest storage's capability gap for the error
                let mut best_missing: Option<Vec<String>> = None;
                for s in &storages {
                    let missing = s.storage_capabilities().unwrap().missing_names(req);
                    if missing.is_empty() {
                        best_missing = None;
                        break;
                    }
                    if best_missing
                        .as_ref()
                        .is_none_or(|b| missing.len() < b.len())
                    {
                        best_missing = Some(missing);
                    }
                }
                if let Some(missing) = best_missing {
                    return Err(BuildError::EngineUnsatisfied {
                        engine: c,
                        error: GraphError::UnsupportedCapability { missing },
                    });
                }
            }
        }
        Ok(Deployment {
            name: name.to_string(),
            components: set,
            target,
            layout: LayoutKind::default(),
            cost_budget: None,
            wal_dir: None,
            durability: gs_gart::Durability::Sync,
        })
    }

    /// The paper's Workload-2 (anti-fraud analytics) preset: ①⑤⑭⑯⑳㉒.
    pub fn antifraud_analytics_preset() -> Result<Deployment, BuildError> {
        use Component::*;
        Self::compose(
            "antifraud-analytics",
            &[Sdk, BuiltinAlgorithms, Pie, Grape, Grin, Gart],
            DeployTarget::ClusterImage,
        )
    }

    /// The paper's Workload-5 (single-machine BI) preset: ②④⑧⑨⑩⑬⑳㉓.
    pub fn bi_single_machine_preset() -> Result<Deployment, BuildError> {
        use Component::*;
        Self::compose(
            "bi-analysis",
            &[
                RestApi,
                Cypher,
                GraphIr,
                Optimizer,
                OlapCodegen,
                Gaia,
                Grin,
                GraphAr,
            ],
            DeployTarget::SingleMachineBinary,
        )
    }

    /// The §8 real-time fraud OLTP preset (HiActor + GART).
    pub fn fraud_oltp_preset() -> Result<Deployment, BuildError> {
        use Component::*;
        Self::compose(
            "fraud-oltp",
            &[
                Sdk,
                Cypher,
                GraphIr,
                Optimizer,
                OltpCodegen,
                HiActor,
                Grin,
                Gart,
            ],
            DeployTarget::ClusterImage,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::GrinGraph;
    use Component::*;

    #[test]
    fn paper_presets_compose() {
        for d in [
            FlexBuild::antifraud_analytics_preset(),
            FlexBuild::bi_single_machine_preset(),
            FlexBuild::fraud_oltp_preset(),
        ] {
            let d = d.expect("preset must compose");
            assert!(!d.components.is_empty());
        }
    }

    #[test]
    fn missing_prerequisite_is_rejected() {
        // Cypher without GraphIR
        let err = FlexBuild::compose(
            "broken",
            &[Cypher, Gaia, Grin, Vineyard],
            DeployTarget::SingleMachineBinary,
        )
        .unwrap_err();
        assert_eq!(
            err,
            BuildError::MissingPrerequisite {
                component: Cypher,
                needs: GraphIr
            }
        );
    }

    #[test]
    fn engine_without_storage_is_rejected() {
        let err =
            FlexBuild::compose("broken", &[Grape, Grin], DeployTarget::ClusterImage).unwrap_err();
        assert_eq!(err, BuildError::EngineWithoutStorage(Grape));
    }

    #[test]
    fn hiactor_needs_external_id_index() {
        // CustomStore lacks INDEX_EXTERNAL_ID → HiActor unsatisfied
        let err = FlexBuild::compose(
            "broken",
            &[HiActor, Grin, CustomStore],
            DeployTarget::ClusterImage,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            BuildError::EngineUnsatisfied {
                engine: HiActor,
                ..
            }
        ));
        // but GRAPE is fine on a minimal store
        FlexBuild::compose(
            "ok",
            &[Grape, Grin, CustomStore],
            DeployTarget::ClusterImage,
        )
        .unwrap();
    }

    #[test]
    fn unsatisfied_engine_error_names_missing_flags() {
        let err = FlexBuild::compose(
            "broken",
            &[HiActor, Grin, CustomStore],
            DeployTarget::ClusterImage,
        )
        .unwrap_err();
        let BuildError::EngineUnsatisfied { engine, error } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(*engine, HiActor);
        // same structured shape the engine raises at execution time
        assert_eq!(
            *error,
            GraphError::UnsupportedCapability {
                missing: vec!["PROPERTY".into(), "INDEX_EXTERNAL_ID".into()]
            }
        );
        assert!(err.to_string().contains("PROPERTY|INDEX_EXTERNAL_ID"));
    }

    #[test]
    fn analytics_engine_loads_from_the_deployment_store() {
        let d = FlexBuild::antifraud_analytics_preset().unwrap();
        let engine = d.analytics_engine(2).expect("preset selects GRAPE");
        assert_eq!(engine.name(), "grape");
        assert_eq!(engine.fragments(), 2);
        // deployments without GRAPE offer no analytics engine
        let oltp = FlexBuild::fraud_oltp_preset().unwrap();
        assert!(oltp.analytics_engine(2).is_none());

        let store = gs_grin::graph::mock::MockGraph::new(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let (grape, space) = engine
            .load(&store, &gs_grape::GrinProjection::all())
            .unwrap();
        assert_eq!(space.total(), 4);
        assert_eq!(grape.fragments.len(), 2);
    }

    #[test]
    fn deployments_select_engines_through_one_interface() {
        let bi = FlexBuild::bi_single_machine_preset().unwrap();
        assert_eq!(bi.query_engine(2).name(), "gaia");
        let fraud = FlexBuild::fraud_oltp_preset().unwrap();
        assert_eq!(fraud.query_engine(2).name(), "hiactor");
        let analytics = FlexBuild::antifraud_analytics_preset().unwrap();
        assert_eq!(analytics.query_engine(2).name(), "reference");

        // every selected engine answers a plan through the same interface
        let g = gs_grin::graph::mock::MockGraph::new(5, &[(0, 1, 1.0)]);
        let s = gs_grin::GrinGraph::schema(&g).clone();
        let plan = gs_ir::physical::lower_naive(
            &gs_ir::PlanBuilder::new(&s).scan("a", "V").unwrap().build(),
        )
        .unwrap();
        for d in [bi, fraud, analytics] {
            let engine = d.query_engine(2);
            assert_eq!(
                engine.execute(&plan, &g).unwrap().len(),
                5,
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn serving_engine_honours_requests_and_fails_structurally() {
        let fraud = FlexBuild::fraud_oltp_preset().unwrap();
        // explicit satisfiable requests
        let e = fraud
            .serving_engine(EngineChoice::HiActor, 2, gs_ir::VerifyLevel::Deny)
            .unwrap();
        assert_eq!(e.name(), "hiactor");
        let e = fraud
            .serving_engine(EngineChoice::Reference, 1, gs_ir::VerifyLevel::Warn)
            .unwrap();
        assert_eq!(e.name(), "reference");
        // Auto defers to the composed priority order
        let e = fraud
            .serving_engine(EngineChoice::Auto, 2, gs_ir::VerifyLevel::Deny)
            .unwrap();
        assert_eq!(e.name(), "hiactor");
        // requesting an engine the deployment never selected: structured
        // error naming the component, not a bare string
        let Err(err) = fraud.serving_engine(EngineChoice::Gaia, 2, gs_ir::VerifyLevel::Deny) else {
            panic!("expected error");
        };
        let BuildError::EngineUnsatisfied { engine, error } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(*engine, Gaia);
        let GraphError::UnsupportedCapability { missing } = error else {
            panic!("wrong inner error: {error:?}");
        };
        assert!(missing[0].contains("Gaia"), "{missing:?}");
    }

    #[test]
    fn serving_engine_names_storage_capability_gap() {
        // CustomStore lacks PROPERTY/INDEX_EXTERNAL_ID, so a serving
        // config demanding HiActor over it must name that exact gap
        let d = Deployment {
            name: "gap".into(),
            components: [Component::GraphIr, Component::HiActor, CustomStore]
                .into_iter()
                .collect(),
            target: DeployTarget::ClusterImage,
            layout: LayoutKind::default(),
            cost_budget: None,
            wal_dir: None,
            durability: gs_gart::Durability::Sync,
        };
        let Err(err) = d.serving_engine(EngineChoice::HiActor, 2, gs_ir::VerifyLevel::Deny) else {
            panic!("expected error");
        };
        let BuildError::EngineUnsatisfied { engine, error } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(*engine, HiActor);
        assert_eq!(
            *error,
            GraphError::UnsupportedCapability {
                missing: vec!["PROPERTY".into(), "INDEX_EXTERNAL_ID".into()]
            }
        );
    }

    #[test]
    fn deployment_serializes() {
        let d = FlexBuild::fraud_oltp_preset().unwrap();
        let json = d.to_json().render();
        let back = Deployment::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn layout_knob_round_trips_and_defaults() {
        let d = FlexBuild::antifraud_analytics_preset()
            .unwrap()
            .with_layout(LayoutKind::SortedCsr);
        let json = d.to_json().render();
        let back = Deployment::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.layout, LayoutKind::SortedCsr);
        assert_eq!(d, back);
        // manifests written before the knob existed still parse (csr)
        let legacy = json.replace(",\"layout\":\"sorted_csr\"", "");
        assert!(!legacy.contains("layout"), "{legacy}");
        let old = Deployment::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(old.layout, LayoutKind::Csr);
        // unknown layout names are corrupt, not silently csr
        let bad = json.replace("sorted_csr", "btree");
        assert!(Deployment::from_json(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn cost_budget_knob_round_trips_and_defaults() {
        let d = FlexBuild::fraud_oltp_preset()
            .unwrap()
            .with_cost_budget(512 << 20);
        let json = d.to_json().render();
        let back = Deployment::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.cost_budget, Some(512 << 20));
        assert_eq!(d, back);
        assert_eq!(back.plan_cost_budget().max_memory_bytes, 512 << 20);
        // manifests without the knob parse with no budget → defaults
        let legacy = json.replace(",\"cost_budget\":536870912", "");
        assert!(!legacy.contains("cost_budget"), "{legacy}");
        let old = Deployment::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(old.cost_budget, None);
        assert_eq!(old.plan_cost_budget(), gs_ir::cost::CostBudget::default());
        // non-integer budgets are corrupt, not silently defaulted
        let bad = json.replace("536870912", "\"lots\"");
        assert!(Deployment::from_json(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn durability_knobs_round_trip_and_default_to_in_memory() {
        let d = FlexBuild::fraud_oltp_preset()
            .unwrap()
            .with_wal_dir("/tmp/gart-wal")
            .with_durability(gs_gart::Durability::Buffered);
        let json = d.to_json().render();
        let back = Deployment::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.wal_dir.as_deref(), Some("/tmp/gart-wal"));
        assert_eq!(back.durability, gs_gart::Durability::Buffered);
        assert_eq!(d, back);
        let cfg = back.durability_config().unwrap();
        assert_eq!(cfg.dir, std::path::Path::new("/tmp/gart-wal"));
        assert_eq!(cfg.durability, gs_gart::Durability::Buffered);
        // manifests without the knobs compose the legacy in-memory store
        let legacy = json
            .replace(",\"wal_dir\":\"/tmp/gart-wal\"", "")
            .replace("\"durability\":\"buffered\",", "");
        assert!(
            !legacy.contains("wal_dir") && !legacy.contains("durability"),
            "{legacy}"
        );
        let old = Deployment::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(old.wal_dir, None);
        assert_eq!(old.durability, gs_gart::Durability::Sync);
        assert!(old.durability_config().is_none());
        // unknown durability modes are corrupt, not silently sync
        let bad = json.replace("\"buffered\"", "\"eventually\"");
        assert!(Deployment::from_json(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn durable_deployment_composes_a_store_that_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("gs-flex-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut schema = gs_graph::schema::GraphSchema::new();
        let vl = schema.add_vertex_label("V", &[("x", gs_graph::ValueType::Int)]);
        let d = FlexBuild::fraud_oltp_preset()
            .unwrap()
            .with_wal_dir(dir.to_str().unwrap());
        // durable GART advertises the transactional capabilities
        let caps = d.storage_capabilities(Gart).unwrap();
        assert!(caps.supports(Capabilities::of(&[
            Capabilities::TRANSACTIONS,
            Capabilities::DURABLE,
        ])));
        // the legacy in-memory composition is transactional but not durable
        let mem = FlexBuild::fraud_oltp_preset().unwrap();
        let mem_caps = mem.storage_capabilities(Gart).unwrap();
        assert!(mem_caps.supports(Capabilities::TRANSACTIONS));
        assert!(!mem_caps.supports(Capabilities::DURABLE));
        {
            let store = d.gart_store(schema.clone()).unwrap();
            store
                .add_vertex(vl, 7, vec![gs_grin::Value::Int(7)])
                .unwrap();
            store.commit();
        }
        let store = d.gart_store(schema).unwrap();
        let snap = store.snapshot();
        assert!(
            snap.internal_id(vl, 7).is_some(),
            "commit must survive reopen"
        );
        assert!(snap.capabilities().supports(Capabilities::DURABLE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gart_table_matches_what_a_built_snapshot_advertises() {
        let dir = std::env::temp_dir().join(format!("gs-flex-caps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut schema = gs_graph::schema::GraphSchema::new();
        schema.add_vertex_label("V", &[("x", gs_graph::ValueType::Int)]);
        let table = Gart.storage_capabilities().unwrap();
        assert!(table.supports(Capabilities::INDEX_PROPERTY | Capabilities::INDEX_INTERNAL_ID));
        let in_memory = FlexBuild::fraud_oltp_preset().unwrap();
        let durable = in_memory.clone().with_wal_dir(dir.to_str().unwrap());
        for d in [in_memory, durable] {
            let caps = d
                .gart_store(schema.clone())
                .unwrap()
                .snapshot()
                .capabilities();
            assert_eq!(caps.difference(Capabilities::DURABLE), table);
            assert_eq!(d.storage_capabilities(Gart), Some(caps));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_builds_a_catalog_over_any_store() {
        let d = FlexBuild::fraud_oltp_preset().unwrap();
        let store = gs_grin::graph::mock::MockGraph::new(
            5,
            &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (3, 4, 1.0)],
        );
        let catalog = d.analyze(&store, 10);
        assert_eq!(catalog.vertex_counts, vec![5]);
        assert_eq!(catalog.edge_stats[0].count, 4);
        assert_eq!(catalog.edge_stats[0].max_out_degree, 3);
        // deterministic: ANALYZE twice → identical catalogs
        assert_eq!(catalog, d.analyze(&store, 10));
    }

    #[test]
    fn analytics_engine_inherits_the_deployment_layout() {
        let d = FlexBuild::antifraud_analytics_preset()
            .unwrap()
            .with_layout(LayoutKind::CompressedCsr);
        let engine = d.analytics_engine(2).unwrap();
        assert_eq!(engine.layout(), LayoutKind::CompressedCsr);
        let store = gs_grin::graph::mock::MockGraph::new(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let (grape, _) = engine
            .load(&store, &gs_grape::GrinProjection::all())
            .unwrap();
        assert_eq!(grape.layout(), LayoutKind::CompressedCsr);
        // an explicit projection layout wins over the deployment knob
        let proj = gs_grape::GrinProjection::all().with_layout(LayoutKind::SortedCsr);
        let (grape, _) = engine.load(&store, &proj).unwrap();
        assert_eq!(grape.layout(), LayoutKind::SortedCsr);
    }

    #[test]
    fn component_numbers_round_trip() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.number() as usize, i + 1);
            assert_eq!(Component::from_number(c.number()), Some(*c));
        }
        assert_eq!(Component::from_number(0), None);
        assert_eq!(Component::from_number(25), None);
    }

    #[test]
    fn empty_selection_rejected() {
        assert_eq!(
            FlexBuild::compose("x", &[], DeployTarget::ClusterImage).unwrap_err(),
            BuildError::EmptySelection
        );
    }
}
