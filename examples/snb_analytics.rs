//! Business-intelligence analytics over an LDBC SNB-lite social network:
//! the OLAP brick selection — Cypher-compatible GraphIR plans, the
//! GLogue-backed optimizer, and the Gaia data-parallel engine over
//! Vineyard.
//!
//! ```text
//! cargo run --release --example snb_analytics
//! ```

use graphscope_flex::prelude::*;
use gs_flex::snb::{bi_plan, BiParams};
use gs_ir::exec::execute;
use gs_ir::physical::lower_naive;
use std::time::Instant;

fn main() -> gs_graph::Result<()> {
    let social = generate_snb(&SnbConfig::lite(1_500));
    println!(
        "SNB-lite: {} persons, {} posts, {} comments, {} forums\n",
        social.persons, social.posts, social.comments, social.forums
    );
    let store = VineyardGraph::build(&social.data)?;
    let schema = social.data.schema.clone();

    let catalog = CostStats::build(&store, 500);
    let optimizer = Optimizer::new(catalog);
    let gaia = GaiaEngine::new(4);
    let params = BiParams::default();

    // run a few headline BI queries and show the engine/optimizer effect
    for (n, title) in [
        (2usize, "tag usage ranking"),
        (6, "authoritative users (likes received)"),
        (14, "dialog pairs (who replies to whom)"),
        (19, "tag co-occurrence"),
    ] {
        let plan = bi_plan(n, &schema, &social.labels, &params)?;
        let optimized = optimizer.optimize(&plan)?;
        let t0 = Instant::now();
        let rows = gaia.execute(&optimized, &store)?;
        let fast = t0.elapsed();
        let t1 = Instant::now();
        let baseline = execute(&lower_naive(&plan)?, &store)?;
        let slow = t1.elapsed();
        assert_eq!(rows.len(), baseline.len());
        println!("BI{n} — {title}");
        println!("  optimized+parallel {fast:?} vs naive single-thread {slow:?}");
        for r in rows.iter().take(3) {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            println!("    {}", cells.join(" | "));
        }
        println!();
    }
    Ok(())
}
