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
//!
//! Two paths share that pipeline. The *literal path*
//! ([`Frontend::compile_with`]) compiles one statement with its values
//! inline. The *template path* ([`Frontend::compile_template`]) compiles
//! the statement's template: each Cypher value literal (number, string,
//! `true`/`false`/`null`, list) and each `$name` becomes a typed
//! parameter slot, so one plan serves every statement with the same
//! template key (see [`crate::template`]). Gremlin has no slots: its key
//! is per text.

use std::collections::HashMap;

use gs_graph::schema::GraphSchema;
use gs_graph::{Result, Value};
use gs_ir::logical::LogicalPlan;
use gs_ir::physical::PhysicalPlan;
use gs_ir::verify_physical;
use gs_optimizer::Optimizer;

use crate::cypher::{parse_cypher, parse_cypher_template};
use crate::gremlin::parse_gremlin;
use crate::template::{statement_key, StatementKey};

/// Which query language front-end compiles the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Frontend {
    /// Declarative pattern syntax (`MATCH ... RETURN`), with `$name`
    /// parameters.
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

    /// The full pipeline: parse → lower → optimize → verify, exactly once,
    /// with every value inline (Cypher's `$name` reads `params`): the
    /// plans hold no parameter slot.
    ///
    /// The front-end parser verifies the logical plan at its boundary
    /// (through its naive lowering); the optimizer, which only runs its
    /// rewrite rules, hands back a physical plan that is then
    /// irlint-verified against `schema` here, so
    /// a [`CompiledQuery`] is *known-good* — executors may skip submit-time
    /// verification for plans that came through this surface (that is what
    /// the prepared-statement path does).
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
        self.finish(source, schema, params, optimizer, logical)
    }

    /// The same pipeline over the statement's template: every Cypher
    /// value literal and `$name` is a parameter slot typed by its value
    /// (`params` type the `$name` slots), so the plans serve every
    /// statement with this one's [`StatementKey::template`]. Bind them
    /// with [`crate::bind_values`] before execution.
    pub fn compile_template(
        &self,
        source: &str,
        schema: &GraphSchema,
        params: &HashMap<String, Value>,
        optimizer: &Optimizer,
    ) -> Result<CompiledQuery> {
        let logical = match self {
            Frontend::Cypher => parse_cypher_template(source, schema, params)?,
            Frontend::Gremlin => parse_gremlin(source, schema)?,
        };
        self.finish(source, schema, params, optimizer, logical)
    }

    fn finish(
        &self,
        source: &str,
        schema: &GraphSchema,
        params: &HashMap<String, Value>,
        optimizer: &Optimizer,
        logical: LogicalPlan,
    ) -> Result<CompiledQuery> {
        let physical = optimizer.optimize(&logical)?;
        verify_physical(&physical, schema).check(self.name())?;
        Ok(CompiledQuery {
            frontend: *self,
            source: source.to_string(),
            key: statement_key(*self, source, params),
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
    /// The statement's template key and binds digest. A plan cache keys
    /// template plans by the template key and must combine it with the
    /// *schema epoch* — the plans were verified against one schema and
    /// must not outlive it.
    pub key: StatementKey,
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
        assert_ne!(c.key, g.key);
    }

    #[test]
    fn cache_key_is_deterministic_and_param_sensitive() {
        let s = schema();
        let compile = |q: &str, id: Value| {
            let params = HashMap::from([("id".to_string(), id)]);
            Frontend::Cypher
                .compile_with(q, &s, &params, &Optimizer::rbo_only())
                .unwrap()
                .key
        };
        let q = "MATCH (a:V {x: $id}) RETURN a";
        let a = compile(q, Value::Int(1));
        assert_eq!(a, compile(q, Value::Int(1)), "deterministic");
        // another value of the same type: same template, other binds
        let b = compile(q, Value::Int(2));
        assert_eq!(a.template, b.template);
        assert_ne!(a.binds, b.binds);
        // the same text bound to another type is another template
        for other in [
            Value::Str("1".into()),
            Value::Float(1.0),
            Value::Null,
            Value::List(vec![Value::Int(1)]),
        ] {
            assert_ne!(a.template, compile(q, other).template);
        }
        // inline literals key like `$name`: per value, per type
        let inline = |q: &str| statement_key(Frontend::Cypher, q, &HashMap::new());
        let one = inline("MATCH (a:V {x: 1}) RETURN a");
        let two = inline("MATCH (a:V {x: 2}) RETURN a");
        assert_eq!(one.template, two.template);
        assert_ne!(one.binds, two.binds);
        for other in ["'1'", "1.0", "null", "[1]", "true"] {
            let k = inline(&format!("MATCH (a:V {{x: {other}}}) RETURN a"));
            assert_ne!(one.template, k.template, "{other}");
        }
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
