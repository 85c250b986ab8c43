//! Query-stack experiments: Figures 7(e)–7(g).

use crate::util::{fmt_duration, fmt_speedup, time_it, TablePrinter};
use gs_datagen::snb::{generate, SnbConfig, SnbGraph};
use gs_flex::snb::interactive::{self, UpdateIds};
use gs_flex::snb::SnbBackend;
use gs_flex::snb::{
    bi_plan, BiParams, FlexBackend, Params, TuBackend, COMPLEX_QUERIES, SHORT_QUERIES,
};
use gs_gaia::GaiaEngine;
use gs_graph::Value;
use gs_ir::cost::CostStats;
use gs_ir::exec::execute;
use gs_ir::expr::BinOp;
use gs_ir::logical::ProjectItem;
use gs_ir::physical::lower_naive;
use gs_ir::{Expr, LogicalPlan, Pattern, PlanBuilder};
use gs_optimizer::{Optimizer, OptimizerConfig};
use gs_vineyard::VineyardGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn snb(scale: f64, persons: usize) -> SnbGraph {
    generate(&SnbConfig::lite(((persons as f64) * scale) as usize))
}

/// Builds the Q1/Q2/Q3 optimization-probe query sets (paper's [24]): four
/// queries per set, each isolating one optimization.
fn probe_queries(g: &SnbGraph, set: usize, q: usize) -> LogicalPlan {
    let schema = &g.data.schema;
    let l = &g.labels;
    let b = PlanBuilder::new(schema);
    match set {
        // Q1: expand-heavy paths (EdgeVertexFusion targets) — chains of
        // expand+getvertex with varying length/labels.
        1 => {
            let hops: &[(&str, gs_grin::Direction)] = match q {
                0 => &[
                    ("KNOWS", gs_grin::Direction::Out),
                    ("KNOWS", gs_grin::Direction::Out),
                ],
                1 => &[
                    ("KNOWS", gs_grin::Direction::Out),
                    ("KNOWS", gs_grin::Direction::Out),
                    ("KNOWS", gs_grin::Direction::Out),
                ],
                2 => &[
                    ("KNOWS", gs_grin::Direction::Out),
                    ("LIKES", gs_grin::Direction::Out),
                ],
                _ => &[
                    ("KNOWS", gs_grin::Direction::Out),
                    ("KNOWS", gs_grin::Direction::Out),
                    ("LIKES", gs_grin::Direction::Out),
                ],
            };
            let mut builder = b.scan("a", "Person").unwrap();
            let mut prev = "a".to_string();
            for (i, (lbl, dir)) in hops.iter().enumerate() {
                let e = format!("e{i}");
                let v = format!("v{i}");
                builder = builder
                    .expand_edge(&prev, lbl, *dir, &e)
                    .unwrap()
                    .get_vertex(&e, &v)
                    .unwrap();
                prev = v;
            }
            let col = builder.col(&prev).unwrap();
            builder
                .project(vec![(ProjectItem::Expr(col), "out")])
                .unwrap()
                .build()
        }
        // Q2: selective point lookups (FilterPushIntoMatch targets) —
        // pattern plus a highly selective WHERE on one alias.
        2 => {
            let mut p = Pattern::new();
            let a = p.add_vertex("a", l.person);
            let f = p.add_vertex("f", l.person);
            p.add_edge(None, l.knows, a, f);
            if q >= 2 {
                let po = p.add_vertex("po", l.post);
                p.add_edge(None, l.has_creator_post, po, f);
            }
            let builder = b.match_pattern(p).unwrap();
            let pred = Expr::bin(
                BinOp::Eq,
                builder.prop("a", "id").unwrap(),
                Expr::Const(Value::Int((q as i64 + 1) * 3)),
            );
            builder
                .select(pred)
                .project(vec![(
                    ProjectItem::Agg(gs_ir::AggFunc::Count, Expr::Column(1)),
                    "n",
                )])
                .unwrap()
                .build()
        }
        // Q3: join-order-sensitive patterns (CBO targets) — patterns whose
        // written order anchors on huge labels while a selective vertex
        // exists elsewhere.
        _ => {
            let mut p = Pattern::new();
            // written order: comment → post → person (bad anchor first)
            let c = p.add_vertex("c", l.comment);
            let po = p.add_vertex("po", l.post);
            let a = p.add_vertex("a", l.person);
            p.add_edge(None, l.reply_of, c, po);
            p.add_edge(None, l.has_creator_post, po, a);
            if q % 2 == 1 {
                let t = p.add_vertex("t", l.tag);
                p.add_edge(None, l.has_tag_post, po, t);
            }
            // selective person
            p.and_vertex_predicate(
                p.vertex_index("a").unwrap(),
                Expr::bin(
                    BinOp::Eq,
                    Expr::VertexId {
                        col: 0,
                        label: l.person,
                    },
                    Expr::Const(Value::Int((q as i64 + 1) * 5)),
                ),
            );
            let builder = b.match_pattern(p).unwrap();
            let cnt = builder.col("c").unwrap();
            builder
                .project(vec![(ProjectItem::Agg(gs_ir::AggFunc::Count, cnt), "n")])
                .unwrap()
                .build()
        }
    }
}

/// Fig. 7(e): the contribution of each optimization rule.
pub fn fig7e(scale: f64) {
    println!("== Fig 7(e): query optimization — RBO (fusion, filter-push) and CBO ==");
    println!("paper shape: fusion ≈2.9×, filter-push ≈279×, CBO ≈11×\n");
    let g = snb(scale, 800);
    let store = VineyardGraph::build(&g.data).unwrap();
    let catalog = CostStats::build(&store, 500);
    let mut t = TablePrinter::new(&["set", "query", "unoptimized", "optimized", "speedup"]);
    for (set, rule) in [(1usize, "fusion"), (2, "filter-push"), (3, "CBO")] {
        // Each set isolates one rule: the baseline has it off, the
        // optimized side has it on; everything else is held equal. For CBO
        // (set 3) both sides keep filter pushdown — the paper's CBO isolates
        // *join ordering*, not predicate placement.
        let (base_config, opt_config) = match set {
            1 => (
                OptimizerConfig::none(),
                OptimizerConfig {
                    fusion: true,
                    filter_push: false,
                    cbo: false,
                },
            ),
            2 => (
                OptimizerConfig::none(),
                OptimizerConfig {
                    fusion: false,
                    filter_push: true,
                    cbo: false,
                },
            ),
            _ => (
                OptimizerConfig {
                    fusion: false,
                    filter_push: true,
                    cbo: false,
                },
                OptimizerConfig {
                    fusion: false,
                    filter_push: true,
                    cbo: true,
                },
            ),
        };
        for q in 0..4 {
            let plan = probe_queries(&g, set, q);
            let naive = Optimizer::with_config(base_config.clone(), Some(catalog.clone()))
                .optimize(&plan)
                .unwrap();
            let optimizer = Optimizer::with_config(opt_config.clone(), Some(catalog.clone()));
            let optimized = optimizer.optimize(&plan).unwrap();
            let (t_naive, base_rows) = time_it(3, || execute(&naive, &store).unwrap());
            let (t_opt, opt_rows) = time_it(3, || execute(&optimized, &store).unwrap());
            assert_eq!(base_rows.len(), opt_rows.len(), "Q{set}.{q} row count");
            t.row(vec![
                format!("Q{set} ({rule})"),
                format!("q{}", q + 1),
                fmt_duration(t_naive),
                fmt_duration(t_opt),
                fmt_speedup(t_naive, t_opt),
            ]);
        }
    }
    t.print();
}

/// Fig. 7(f): SNB Interactive — Flex (HiActor+GART) vs the TuGraph-like
/// baseline: per-query latency plus aggregate throughput.
pub fn fig7f(scale: f64) {
    println!("== Fig 7(f): SNB Interactive — Flex vs TuGraph-like ==");
    println!("paper shape: Flex faster on ~all queries (avg ≈8.9×), ≈2.45× throughput\n");
    let g = snb(scale, 500);
    let flex = Arc::new(FlexBackend::load(&g).unwrap());
    let tu = Arc::new(TuBackend::load(&g).unwrap());
    let mut t = TablePrinter::new(&["query", "Flex", "TuGraph-like", "speedup"]);
    let mk_params = |i: u64| Params {
        person: (i * 13) % g.persons as u64,
        person2: (i * 29 + 7) % g.persons as u64,
        date: 15200 + (i as i64 % 400),
        tag: i % g.tags as u64,
        forum: i % g.forums as u64,
        first_name: "Jan".to_string(),
        limit: 20,
    };
    let mut speedups = Vec::new();
    for (name, q) in COMPLEX_QUERIES.iter().chain(SHORT_QUERIES.iter()) {
        let (tf, _) = time_it(3, || {
            for i in 0..5u64 {
                q(flex.as_ref(), &mk_params(i));
            }
        });
        let (tt, _) = time_it(3, || {
            for i in 0..5u64 {
                q(tu.as_ref(), &mk_params(i));
            }
        });
        speedups.push(tt.as_secs_f64() / tf.as_secs_f64());
        t.row(vec![
            name.to_string(),
            fmt_duration(tf / 5),
            fmt_duration(tt / 5),
            fmt_speedup(tt, tf),
        ]);
    }
    // updates U1-U8 (fresh ids per system)
    for (ui, label) in (1..=8).zip([
        "U1 person",
        "U2 like",
        "U3 interest",
        "U4 forum",
        "U5 member",
        "U6 post",
        "U7 comment",
        "U8 knows",
    ]) {
        let run_updates = |b: &dyn SnbBackend, base: u64| {
            let mut ids = UpdateIds {
                next_person: 2_000_000 + base,
                next_post: 2_000_000 + base,
                next_comment: 2_000_000 + base,
                next_forum: 2_000_000 + base,
            };
            match ui {
                1 => {
                    interactive::iu1(b, &mut ids, 15500).unwrap();
                }
                2 => interactive::iu2(b, 1, 0, 15500).unwrap(),
                3 => interactive::iu3(b, 1, 1).unwrap(),
                4 => {
                    interactive::iu4(b, &mut ids, 15500).unwrap();
                }
                5 => interactive::iu5(b, 0, 2, 15500).unwrap(),
                6 => {
                    interactive::iu6(b, &mut ids, 1, 0, 15500).unwrap();
                }
                7 => {
                    interactive::iu7(b, &mut ids, 1, 0, 15500).unwrap();
                }
                _ => interactive::iu8(b, 3, 4, 15500).unwrap(),
            }
        };
        let counter = AtomicUsize::new(0);
        let (tf, _) = time_it(3, || {
            run_updates(
                flex.as_ref(),
                counter.fetch_add(1, Ordering::Relaxed) as u64 * 100,
            )
        });
        let (tt, _) = time_it(3, || {
            run_updates(
                tu.as_ref(),
                counter.fetch_add(1, Ordering::Relaxed) as u64 * 100,
            )
        });
        t.row(vec![
            label.to_string(),
            fmt_duration(tf),
            fmt_duration(tt),
            fmt_speedup(tt, tf),
        ]);
    }
    t.print();
    let geo: f64 = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!("read-query geomean speedup: {:.2}×", geo.exp());

    // throughput: mixed read workload on 4 client threads
    let ops = 400usize;
    let throughput = |run: &(dyn Fn(u64) + Sync)| {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let next = &next;
                s.spawn(move |_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ops {
                        break;
                    }
                    run(i as u64);
                });
            }
        })
        .unwrap();
        ops as f64 / t0.elapsed().as_secs_f64()
    };
    let flex2 = Arc::clone(&flex);
    let tp_flex = throughput(&move |i| {
        let q = SHORT_QUERIES[(i % 7) as usize].1;
        q(flex2.as_ref(), &mk_params(i));
    });
    let tu2 = Arc::clone(&tu);
    let tp_tu = throughput(&move |i| {
        let q = SHORT_QUERIES[(i % 7) as usize].1;
        q(tu2.as_ref(), &mk_params(i));
    });
    println!(
        "throughput (short-query mix, 4 clients): Flex {tp_flex:.0} ops/s vs TuGraph-like {tp_tu:.0} ops/s ({:.2}×)",
        tp_flex / tp_tu
    );
}

/// Fig. 7(g): SNB BI — Gaia (optimized, parallel) vs single-threaded naive
/// execution.
pub fn fig7g(scale: f64) {
    println!("== Fig 7(g): SNB BI — Flex/Gaia vs unoptimized single-threaded baseline ==");
    println!("paper shape: ≈10× average latency advantage\n");
    let g = snb(scale, 500);
    let store = VineyardGraph::build(&g.data).unwrap();
    let schema = g.data.schema.clone();
    let catalog = CostStats::build(&store, 300);
    let optimizer = Optimizer::new(catalog);
    let gaia = GaiaEngine::new(
        std::thread::available_parallelism()
            .map(|x| x.get())
            .unwrap_or(4),
    );
    let params = BiParams::default();
    let mut t = TablePrinter::new(&["query", "Flex (Gaia)", "baseline", "speedup"]);
    let mut speedups = Vec::new();
    for n in 1..=gs_flex::snb::BI_COUNT {
        let plan = bi_plan(n, &schema, &g.labels, &params).unwrap();
        let optimized = optimizer.optimize(&plan).unwrap();
        let naive = lower_naive(&plan).unwrap();
        let (t_fast, fast_rows) = time_it(3, || gaia.execute(&optimized, &store).unwrap());
        let (t_slow, slow_rows) = time_it(1, || execute(&naive, &store).unwrap());
        assert_eq!(fast_rows.len(), slow_rows.len(), "BI{n}");
        speedups.push(t_slow.as_secs_f64() / t_fast.as_secs_f64());
        t.row(vec![
            format!("BI{n}"),
            fmt_duration(t_fast),
            fmt_duration(t_slow),
            fmt_speedup(t_slow, t_fast),
        ]);
    }
    t.print();
    let geo: f64 = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    println!("BI geomean speedup: {:.2}×", geo.exp());
}
