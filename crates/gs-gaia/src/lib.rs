//! # gs-gaia — Gaia, the dataflow OLAP engine
//!
//! Gaia (paper §5, [NSDI'21]) executes physical plans as data-parallel
//! dataflows: the source scan is partitioned across workers, per-record
//! operators (expand / select / stateless project) run pipelined on each
//! worker's partition, and *stateful* operators (grouped aggregation,
//! order, dedup, limit) form exchange barriers — grouped aggregation uses
//! per-worker partial aggregation followed by a merge (the classic
//! two-phase reduction), the rest gather.
//!
//! Operator *semantics* are shared with the reference executor in
//! `gs_ir::exec`; this crate contributes the parallel runtime, which is
//! what makes Gaia suited to "fairly intricate queries on large graphs"
//! (OLAP) rather than high-QPS point queries (HiActor's domain).

use gs_graph::value::GroupKey;
use gs_grin::{Capabilities, GrinGraph};
use gs_ir::exec::{apply, AggState};
use gs_ir::logical::ProjectItem;
use gs_ir::physical::{PhysicalOp, PhysicalPlan};
use gs_ir::record::Record;
use gs_ir::{GraphError, Result, Value};
use gs_telemetry::{counter, observe, span};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Storage capabilities Gaia needs (mirrors flexbuild's requirements for
/// the Gaia component).
pub const REQUIRED_CAPABILITIES: Capabilities = Capabilities::VERTEX_LIST_ITER
    .union(Capabilities::ADJ_LIST_ITER)
    .union(Capabilities::PROPERTY);

/// The data-parallel dataflow engine.
#[derive(Clone)]
pub struct GaiaEngine {
    workers: usize,
    verify: gs_ir::VerifyLevel,
}

impl GaiaEngine {
    /// Engine over `workers` parallel workers (threads).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            verify: gs_ir::VerifyLevel::default(),
        }
    }

    /// Sets the submit-time plan verification level.
    pub fn with_verify(mut self, verify: gs_ir::VerifyLevel) -> Self {
        self.verify = verify;
        self
    }

    /// Number of configured workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes a physical plan with data parallelism.
    pub fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        graph.capabilities().require(REQUIRED_CAPABILITIES)?;
        gs_ir::verify::verify_on_submit(plan, graph.schema(), self.verify, "gaia")?;
        self.run(plan, graph)
    }

    /// The dataflow itself, after the submit-time checks.
    fn run(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        let _query_span = span!("gaia.query", workers = self.workers);
        // Split the plan into pipeline segments at stateful barriers.
        let mut segments: Vec<(Vec<PhysicalOp>, Option<PhysicalOp>)> = Vec::new();
        let mut current: Vec<PhysicalOp> = Vec::new();
        for op in &plan.ops {
            if is_stateful(op) {
                segments.push((std::mem::take(&mut current), Some(op.clone())));
            } else {
                current.push(op.clone());
            }
        }
        segments.push((current, None));

        // Partitioned record sets: one Vec<Record> per worker.
        let mut partitions: Vec<Vec<Record>> = vec![Vec::new(); self.workers];
        partitions[0].push(Record::new()); // the source record
        let mut first_scan_pending = true;

        for (seg, (pipeline, barrier)) in segments.into_iter().enumerate() {
            // run the stateless pipeline on each partition in parallel
            {
                let _seg_span = span!("gaia.segment", idx = seg);
                partitions = self.run_pipeline(&pipeline, partitions, graph, first_scan_pending)?;
            }
            if pipeline
                .iter()
                .any(|op| matches!(op, PhysicalOp::Scan { .. }))
            {
                first_scan_pending = false;
            }
            if let Some(op) = barrier {
                let _barrier_span = span!("gaia.barrier", op = op_name(&op));
                partitions = self.run_barrier(&op, partitions, graph)?;
            }
        }
        Ok(partitions.into_iter().flatten().collect())
    }

    /// Runs stateless ops over every partition concurrently. When the
    /// pipeline contains the plan's *first* scan, that scan is partitioned
    /// by striding the vertex set across workers.
    fn run_pipeline(
        &self,
        ops: &[PhysicalOp],
        partitions: Vec<Vec<Record>>,
        graph: &dyn GrinGraph,
        partition_first_scan: bool,
    ) -> Result<Vec<Vec<Record>>> {
        if ops.is_empty() {
            return Ok(partitions);
        }
        // find the first scan index if we must partition it
        let scan_idx = if partition_first_scan {
            ops.iter()
                .position(|op| matches!(op, PhysicalOp::Scan { .. }))
        } else {
            None
        };
        let n = self.workers;
        let wall_start = Instant::now();
        // total busy nanoseconds across workers; segment wall × n minus
        // this is the time workers spent stalled at the implicit exchange
        // barrier waiting for their slowest sibling
        let busy_ns = AtomicU64::new(0);
        let results: Vec<Result<Vec<Record>>> = crossbeam::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for (w, part) in partitions.into_iter().enumerate() {
                let ops = &ops;
                let busy_ns = &busy_ns;
                let handle = s.spawn(move |_| -> Result<Vec<Record>> {
                    let worker_start = Instant::now();
                    // seed: worker 0 holds the source record before the
                    // first scan; all workers run the partitioned scan
                    let mut records = if scan_idx.is_some() {
                        vec![Record::new()]
                    } else {
                        part
                    };
                    for (i, op) in ops.iter().enumerate() {
                        let op_start = gs_telemetry::enabled().then(Instant::now);
                        if Some(i) == scan_idx {
                            records = scan_partitioned(op, &records, graph, w, n)?;
                        } else {
                            records = apply(op, records, graph)?;
                        }
                        if let Some(t) = op_start {
                            observe!("gaia.op_ns", op = op_name(op); t.elapsed().as_nanos() as u64);
                            counter!("gaia.records", op = op_name(op); records.len() as u64);
                        }
                    }
                    busy_ns.fetch_add(worker_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    Ok(records)
                });
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("gaia worker panicked"))
                .collect()
        })
        .expect("gaia scope");
        let wall = wall_start.elapsed().as_nanos() as u64;
        let stall = (wall * n as u64).saturating_sub(busy_ns.load(Ordering::Relaxed));
        counter!("gaia.exchange_stall_ns"; stall);
        results.into_iter().collect()
    }

    /// Executes a stateful barrier op, producing fresh partitions.
    fn run_barrier(
        &self,
        op: &PhysicalOp,
        partitions: Vec<Vec<Record>>,
        graph: &dyn GrinGraph,
    ) -> Result<Vec<Vec<Record>>> {
        match op {
            PhysicalOp::Project { items }
                if items
                    .iter()
                    .any(|(it, _)| matches!(it, ProjectItem::Agg(..))) =>
            {
                self.parallel_group_by(items, partitions, graph)
            }
            // order / dedup / limit / plain stateful: gather then apply
            _ => {
                let gathered: Vec<Record> = partitions.into_iter().flatten().collect();
                let out = apply(op, gathered, graph)?;
                Ok(self.scatter(out))
            }
        }
    }

    /// Two-phase grouped aggregation: per-worker partials, then merge.
    fn parallel_group_by(
        &self,
        items: &[(ProjectItem, String)],
        partitions: Vec<Vec<Record>>,
        graph: &dyn GrinGraph,
    ) -> Result<Vec<Vec<Record>>> {
        type Partial = HashMap<Vec<GroupKey>, (Vec<Value>, Vec<AggState>)>;
        let partials: Vec<Result<Partial>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = partitions
                .into_iter()
                .map(|part| {
                    s.spawn(move |_| -> Result<Partial> {
                        let mut m: Partial = HashMap::new();
                        for rec in part {
                            let mut key = Vec::new();
                            let mut key_vals = Vec::new();
                            for (it, _) in items {
                                if let ProjectItem::Expr(e) = it {
                                    let v = e.eval(&rec, graph)?;
                                    key.push(GroupKey(v.clone()));
                                    key_vals.push(v);
                                }
                            }
                            let entry = m.entry(key).or_insert_with(|| {
                                (
                                    key_vals,
                                    items
                                        .iter()
                                        .filter_map(|(it, _)| match it {
                                            ProjectItem::Agg(f, _) => Some(AggState::new(f)),
                                            _ => None,
                                        })
                                        .collect(),
                                )
                            });
                            let mut ai = 0;
                            for (it, _) in items {
                                if let ProjectItem::Agg(_, e) = it {
                                    entry.1[ai].update(e.eval(&rec, graph)?);
                                    ai += 1;
                                }
                            }
                        }
                        Ok(m)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gaia agg worker panicked"))
                .collect()
        })
        .expect("gaia scope");

        // merge phase
        let mut merged: Partial = HashMap::new();
        for p in partials {
            for (k, (kv, states)) in p? {
                match merged.entry(k) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert((kv, states));
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        for (a, b) in o.get_mut().1.iter_mut().zip(states) {
                            a.merge(b);
                        }
                    }
                }
            }
        }
        // keyless aggregate over empty input → identity row
        if merged.is_empty()
            && items
                .iter()
                .all(|(it, _)| matches!(it, ProjectItem::Agg(..)))
        {
            let row: Record = items
                .iter()
                .map(|(it, _)| match it {
                    ProjectItem::Agg(f, _) => AggState::new(f).finish(),
                    _ => unreachable!(),
                })
                .collect();
            return Ok(self.scatter(vec![row]));
        }
        let mut out = Vec::with_capacity(merged.len());
        for (_, (key_vals, states)) in merged {
            let mut r = Record::with_capacity(items.len());
            let mut kv = key_vals.into_iter();
            let mut st = states.into_iter();
            for (it, _) in items {
                match it {
                    ProjectItem::Expr(_) => r.push(kv.next().expect("key")),
                    ProjectItem::Agg(..) => r.push(st.next().expect("state").finish()),
                }
            }
            out.push(r);
        }
        Ok(self.scatter(out))
    }

    fn scatter(&self, records: Vec<Record>) -> Vec<Vec<Record>> {
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); self.workers];
        for (i, r) in records.into_iter().enumerate() {
            parts[i % self.workers].push(r);
        }
        parts
    }
}

impl gs_ir::QueryEngine for GaiaEngine {
    fn execute(&self, plan: &PhysicalPlan, graph: &dyn GrinGraph) -> Result<Vec<Record>> {
        GaiaEngine::execute(self, plan, graph)
    }

    fn name(&self) -> &'static str {
        "gaia"
    }

    /// Prepared Gaia handle: the shared verify-once handle over the
    /// dataflow runner.
    fn prepare(&self, plan: &PhysicalPlan) -> Result<Box<dyn gs_ir::PreparedQuery>> {
        let engine = self.clone();
        Ok(Box::new(gs_ir::Prepared::new(
            "gaia",
            plan,
            self.verify,
            REQUIRED_CAPABILITIES,
            move |plan: &PhysicalPlan, graph: &dyn GrinGraph| engine.run(plan, graph),
        )))
    }
}

/// Short operator name for metric keys.
fn op_name(op: &PhysicalOp) -> &'static str {
    match op {
        PhysicalOp::Scan { .. } => "Scan",
        PhysicalOp::Expand { .. } => "Expand",
        PhysicalOp::GetVertex { .. } => "GetVertex",
        PhysicalOp::ExpandIntersect { .. } => "ExpandIntersect",
        PhysicalOp::Select { .. } => "Select",
        PhysicalOp::Project { .. } => "Project",
        PhysicalOp::Order { .. } => "Order",
        PhysicalOp::Dedup { .. } => "Dedup",
        PhysicalOp::Limit { .. } => "Limit",
    }
}

/// Is this op an exchange barrier?
fn is_stateful(op: &PhysicalOp) -> bool {
    match op {
        PhysicalOp::Order { .. } | PhysicalOp::Dedup { .. } | PhysicalOp::Limit { .. } => true,
        PhysicalOp::Project { items } => items
            .iter()
            .any(|(it, _)| matches!(it, ProjectItem::Agg(..))),
        _ => false,
    }
}

/// Strided parallel scan: worker `w` of `n` takes vertices at positions
/// `w, w+n, w+2n, ...` of the (index-ordered) vertex/lookup set.
fn scan_partitioned(
    op: &PhysicalOp,
    input: &[Record],
    graph: &dyn GrinGraph,
    w: usize,
    n: usize,
) -> Result<Vec<Record>> {
    let PhysicalOp::Scan {
        label,
        predicate,
        index_lookup,
    } = op
    else {
        return Err(GraphError::Query("scan_partitioned on non-scan".into()));
    };
    let mut vertices: Vec<Value> = Vec::new();
    if let Some((prop, key)) = index_lookup {
        for (i, v) in graph
            .vertices_by_property(*label, *prop, &key.eval(&[], graph)?)
            .into_iter()
            .enumerate()
        {
            if i % n == w {
                vertices.push(Value::Vertex(v, *label));
            }
        }
    } else {
        for (i, v) in graph.vertices(*label).enumerate() {
            if i % n == w {
                vertices.push(Value::Vertex(v, *label));
            }
        }
    }
    let mut out = Vec::new();
    for val in vertices {
        if let Some(p) = predicate {
            if !p.eval_bool(std::slice::from_ref(&val), graph)? {
                continue;
            }
        }
        for rec in input {
            let mut r = rec.clone();
            r.push(val.clone());
            out.push(r);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_grin::graph::mock::MockGraph;
    use gs_ir::exec::execute as ref_execute;
    use gs_ir::expr::{AggFunc, BinOp, Expr};
    use gs_ir::physical::lower_naive;
    use gs_ir::{PlanBuilder, Value};
    use rand::Rng;

    fn random_graph(n: usize, m: usize, seed: u64) -> MockGraph {
        let mut rng = rand_pcg::Pcg64Mcg::new(seed as u128);
        let edges: Vec<(u64, u64, f64)> = (0..m)
            .map(|_| {
                (
                    rng.gen_range(0..n as u64),
                    rng.gen_range(0..n as u64),
                    rng.gen::<f64>(),
                )
            })
            .collect();
        let mut g = MockGraph::new(n, &edges);
        for v in 0..n {
            g.set_tag(gs_graph::VId(v as u64), (v % 7) as i64);
        }
        g
    }

    fn canon(mut v: Vec<Record>) -> Vec<Record> {
        v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        v
    }

    /// Differential test: Gaia with 1..8 workers matches the reference
    /// executor on a two-hop + filter + group + order query.
    #[test]
    fn gaia_matches_reference_executor() {
        let g = random_graph(200, 800, 42);
        let s = g.schema().clone();
        let builder = PlanBuilder::new(&s)
            .scan("a", "V")
            .unwrap()
            .expand_edge("a", "E", gs_grin::Direction::Out, "e1")
            .unwrap()
            .get_vertex("e1", "b")
            .unwrap();
        let pred = Expr::bin(
            BinOp::Gt,
            builder.prop("b", "tag").unwrap(),
            Expr::Const(Value::Int(2)),
        );
        let plan = builder
            .select(pred)
            .project(vec![
                (gs_ir::logical::ProjectItem::Expr(Expr::Column(0)), "src"),
                (
                    gs_ir::logical::ProjectItem::Agg(AggFunc::Count, Expr::Column(2)),
                    "cnt",
                ),
            ])
            .unwrap()
            .order(
                vec![(Expr::Column(1), false), (Expr::Column(0), true)],
                Some(20),
            )
            .build();
        let phys = lower_naive(&plan).unwrap();
        let expected = ref_execute(&phys, &g).unwrap();
        for workers in [1, 2, 4, 8] {
            let got = GaiaEngine::new(workers).execute(&phys, &g).unwrap();
            // order may differ within equal keys; compare canonically
            assert_eq!(canon(got), canon(expected.clone()), "workers={workers}");
        }
    }

    #[test]
    fn keyless_count_on_empty_result() {
        let g = random_graph(50, 100, 7);
        let s = g.schema().clone();
        let builder = PlanBuilder::new(&s).scan("a", "V").unwrap();
        let pred = Expr::bin(
            BinOp::Gt,
            builder.prop("a", "tag").unwrap(),
            Expr::Const(Value::Int(99)),
        );
        let plan = builder
            .select(pred)
            .project(vec![(
                gs_ir::logical::ProjectItem::Agg(AggFunc::Count, Expr::Column(0)),
                "cnt",
            )])
            .unwrap()
            .build();
        let phys = lower_naive(&plan).unwrap();
        let got = GaiaEngine::new(4).execute(&phys, &g).unwrap();
        assert_eq!(got, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn dedup_and_limit_barriers() {
        let g = random_graph(100, 500, 9);
        let s = g.schema().clone();
        let plan = PlanBuilder::new(&s)
            .scan("a", "V")
            .unwrap()
            .expand_edge("a", "E", gs_grin::Direction::Out, "e")
            .unwrap()
            .get_vertex("e", "b")
            .unwrap()
            .project(vec![(
                gs_ir::logical::ProjectItem::Expr(Expr::Column(2)),
                "b",
            )])
            .unwrap()
            .dedup(&["b"])
            .unwrap()
            .build();
        let phys = lower_naive(&plan).unwrap();
        let expected = ref_execute(&phys, &g).unwrap();
        let got = GaiaEngine::new(4).execute(&phys, &g).unwrap();
        assert_eq!(canon(got), canon(expected));
    }

    #[test]
    fn single_worker_equals_multi_worker() {
        let g = random_graph(100, 400, 11);
        let s = g.schema().clone();
        let plan = PlanBuilder::new(&s)
            .scan("a", "V")
            .unwrap()
            .expand_edge("a", "E", gs_grin::Direction::Out, "e")
            .unwrap()
            .get_vertex("e", "b")
            .unwrap()
            .build();
        let phys = lower_naive(&plan).unwrap();
        let one = GaiaEngine::new(1).execute(&phys, &g).unwrap();
        let eight = GaiaEngine::new(8).execute(&phys, &g).unwrap();
        assert_eq!(canon(one), canon(eight));
    }
}
