//! # gs-bench — the experiment harness
//!
//! One module per paper table/figure (see DESIGN.md's experiment index);
//! the `figures` binary drives them:
//!
//! ```text
//! cargo run --release -p gs-bench --bin figures -- all
//! cargo run --release -p gs-bench --bin figures -- fig7c [scale]
//! ```
//!
//! Each experiment prints paper-style rows plus the paper's reported
//! shape so EXPERIMENTS.md can record expectation vs measurement.
//!
//! The `gate` binary runs every CI check through one driver ([`gate`]),
//! e.g. `cargo run --release -p gs-bench --bin gate -- irlint --deny`.

pub mod analytics;
pub mod chaos;
pub mod corpus;
pub mod costcheck;
pub mod durability;
pub mod experiments;
pub mod gate;
pub mod irlint;
pub mod lint;
pub mod sanitize;
pub mod storm;
pub mod util;

pub use util::{time_it, Row, TablePrinter};
