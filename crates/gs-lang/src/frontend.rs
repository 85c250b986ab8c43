//! The unified front-end compilation surface.
//!
//! Both query languages used to be driven through ad-hoc call chains —
//! `parse_cypher` / `parse_gremlin`, then a caller-chosen mix of
//! `lower_naive` / `Optimizer::optimize` / verifier invocations. Serving a
//! query should be one decision (*which language*) and one call:
//! [`Frontend::compile`] runs parse → lower → optimize → irlint-verify and
//! hands back a [`CompiledQuery`] carrying the verified logical and
//! physical plans plus a deterministic cache key, so a serving layer can
//! do this work once per statement and execute many times.

use std::collections::HashMap;

use gs_graph::schema::GraphSchema;
use gs_graph::{Result, Value};
use gs_ir::logical::LogicalPlan;
use gs_ir::physical::PhysicalPlan;
use gs_ir::verify_physical;
use gs_optimizer::Optimizer;

use crate::cypher::parse_cypher;
use crate::gremlin::parse_gremlin;

/// Which query language front-end compiles the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Frontend {
    /// Declarative pattern syntax (`MATCH ... RETURN`), with `$name`
    /// parameter substitution.
    Cypher,
    /// Imperative traversal syntax (`g.V().hasLabel(...)...`).
    Gremlin,
}

impl Frontend {
    /// Short identifier used in diagnostics and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            Frontend::Cypher => "cypher",
            Frontend::Gremlin => "gremlin",
        }
    }

    /// Compiles `source` with the default rule-based optimizer and no
    /// parameters. See [`Frontend::compile_with`].
    pub fn compile(&self, source: &str, schema: &GraphSchema) -> Result<CompiledQuery> {
        self.compile_with(source, schema, &HashMap::new(), &Optimizer::rbo_only())
    }

    /// The full pipeline: parse → lower → optimize → verify, exactly once.
    ///
    /// The front-end parser verifies the logical plan at its boundary
    /// (through its naive lowering); the optimizer, which only runs its
    /// rewrite rules, hands back a physical plan that is then
    /// irlint-verified against `schema` here, so
    /// a [`CompiledQuery`] is *known-good* — executors may skip submit-time
    /// verification for plans that came through this surface (that is what
    /// the prepared-statement path does).
    ///
    /// `params` feeds Cypher's `$name` substitution; Gremlin has no
    /// parameter syntax, but the parameters still contribute to the cache
    /// key so distinct bindings never alias.
    pub fn compile_with(
        &self,
        source: &str,
        schema: &GraphSchema,
        params: &HashMap<String, Value>,
        optimizer: &Optimizer,
    ) -> Result<CompiledQuery> {
        let logical = match self {
            Frontend::Cypher => parse_cypher(source, schema, params)?,
            Frontend::Gremlin => parse_gremlin(source, schema)?,
        };
        let physical = optimizer.optimize(&logical)?;
        verify_physical(&physical, schema).check(self.name())?;
        Ok(CompiledQuery {
            frontend: *self,
            source: source.to_string(),
            cache_key: statement_key(*self, source, params),
            logical,
            physical,
        })
    }
}

/// A query compiled through [`Frontend::compile`]: the verified plans plus
/// the identity under which a plan cache may store them.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The language the source was written in.
    pub frontend: Frontend,
    /// The original query text.
    pub source: String,
    /// The verified logical DAG (kept for re-optimization with better
    /// statistics later).
    pub logical: LogicalPlan,
    /// The verified physical plan, ready for any [`gs_ir::QueryEngine`].
    pub physical: PhysicalPlan,
    /// Deterministic key over (frontend, source, parameter bindings). A
    /// plan cache must combine this with the *schema epoch* — the plans
    /// were verified against one schema and must not outlive it.
    pub cache_key: u64,
}

/// FNV-1a over (frontend, source, sorted parameter bindings): stable
/// across runs and platforms, so cache keys are reproducible in
/// deterministic benchmarks.
pub fn statement_key(frontend: Frontend, source: &str, params: &HashMap<String, Value>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    };
    eat(frontend.name().as_bytes());
    eat(source.as_bytes());
    let mut keys: Vec<&String> = params.keys().collect();
    keys.sort();
    for k in keys {
        eat(k.as_bytes());
        eat(params[k].to_string().as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::value::ValueType;

    fn schema() -> GraphSchema {
        let mut s = GraphSchema::new();
        let v = s.add_vertex_label("V", &[("x", ValueType::Int)]);
        s.add_edge_label("E", v, v, &[]);
        s
    }

    #[test]
    fn both_frontends_compile_and_key_differs() {
        let s = schema();
        let c = Frontend::Cypher
            .compile("MATCH (a:V)-[:E]->(b:V) RETURN b", &s)
            .unwrap();
        let g = Frontend::Gremlin
            .compile("g.V().hasLabel('V').out('E')", &s)
            .unwrap();
        assert_eq!(c.frontend.name(), "cypher");
        assert!(!c.physical.ops.is_empty());
        assert!(!g.physical.ops.is_empty());
        assert_ne!(c.cache_key, g.cache_key);
    }

    #[test]
    fn cache_key_is_deterministic_and_param_sensitive() {
        let s = schema();
        let mut p1 = HashMap::new();
        p1.insert("id".to_string(), Value::Int(1));
        let mut p2 = HashMap::new();
        p2.insert("id".to_string(), Value::Int(2));
        let q = "MATCH (a:V {x: $id}) RETURN a";
        let a = Frontend::Cypher
            .compile_with(q, &s, &p1, &Optimizer::rbo_only())
            .unwrap();
        let b = Frontend::Cypher
            .compile_with(q, &s, &p1, &Optimizer::rbo_only())
            .unwrap();
        let c = Frontend::Cypher
            .compile_with(q, &s, &p2, &Optimizer::rbo_only())
            .unwrap();
        assert_eq!(a.cache_key, b.cache_key);
        assert_ne!(a.cache_key, c.cache_key);
    }

    #[test]
    fn compile_rejects_unknown_label() {
        let s = schema();
        assert!(Frontend::Cypher
            .compile("MATCH (a:Nope) RETURN a", &s)
            .is_err());
        assert!(Frontend::Gremlin
            .compile("g.V().hasLabel('Nope')", &s)
            .is_err());
    }
}
