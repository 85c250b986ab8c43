//! # gs-lang — query language front-ends
//!
//! Both Gremlin and Cypher lower to the same GraphIR logical plan (paper
//! §5.1), so the optimizer and both execution engines are shared. The
//! Figure 5 example — the same "purchased items' prices of friends" query in
//! both languages — compiles to the same logical DAG here (see the
//! `figure5_equivalence` integration test at the workspace root).
//!
//! Serving compiles one plan per statement *template* ([`template`]): a
//! Cypher statement's value literals (numbers, strings, `true`/`false`/
//! `null`, list literals) and `$name` references become typed parameter
//! slots, found by one allocation-free pass ([`statement_key`]) and bound
//! before execution ([`bind_values`]). `LIMIT n`, comments, identifiers
//! and property names stay template text. Gremlin has no slots; its key
//! is per text. The literal path — [`parse_cypher`] and
//! [`Frontend::compile_with`] — binds every slot while parsing, so its
//! plans hold none.

pub mod cypher;
pub mod frontend;
pub mod gremlin;
pub mod lexer;
pub mod template;

pub use cypher::parse_cypher;
pub use frontend::{CompiledQuery, Frontend};
pub use gremlin::parse_gremlin;
pub use template::{bind_values, statement_key, StatementKey};
