//! `flexbench`: the end-to-end and per-layer benchmark of the Flex stack.
//!
//! ```text
//! flexbench --workload <serve_hot|serve_cold|ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload loads a seeded fraud graph into GART, serves the §8
//! Cypher mix over it through `gs_serve::Session::query` from one client
//! thread in a closed loop, and projects snapshots into GRAPE for
//! PageRank, WCC and BFS; `ingest` also commits an order as a GART
//! transaction before every four reads. The workloads differ in graph
//! size, account skew, durability and how the time is split (see
//! `NOTES.md`). Every output is checked.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` a traced replay of a
//! fixed-length schedule reports per-layer metrics instead and writes its
//! spans to `.flexbench/spans-<workload>.tsv`.

mod olap;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use olap::Olap;
use serve::{run_loop, Ledger, Limit, Mode, Ops, Replay, Rig, SetupClock, Tally};
use stats::{median, quantile};
use trace::Tracer;
use workload::{Inputs, Spec, FRAUD, HOP, POINT};

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        match k.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(k, v);
            }
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = workload::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Metrics by name: (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flexbench: {e}");
            eprintln!(
                "usage: flexbench --workload <serve_hot|serve_cold|ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // the mask to give back to threads that must not share the pinned CPU
    let unpinned = match pin_to_one_cpu() {
        Ok(mask) => mask,
        Err(e) => {
            eprintln!("flexbench: cannot pin to one CPU: {e}");
            return ExitCode::from(3);
        }
    };
    let work =
        PathBuf::from(".flexbench").join(format!("{}-{}", args.workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("flexbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &work, unpinned);
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, attempted, failed, correct) = outcome;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
fn affinity() -> Result<CpuMask, String> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, aligned buffer of exactly
    // `size_of_val(&mask)` bytes, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

/// Restricts the calling thread, and the threads it starts from now on,
/// to the CPUs in `mask`.
fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a live, aligned buffer of exactly
    // `size_of_val(mask)` bytes, which the call only reads, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Pins the process to the highest CPU it is allowed to run on and
/// returns the mask it had. Every thread the run starts then shares that
/// CPU: the worker a GRAPE call starts runs while its caller waits,
/// instead of waking the other, idle vCPU, whose wake-up latency on a
/// shared VM host changes from run to run (unpinned, 16-source BFS
/// batches moved by up to 5x between runs).
fn pin_to_one_cpu() -> Result<CpuMask, String> {
    let allowed = affinity()?;
    let (word, bits) = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &w)| w != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    set_affinity(&one)?;
    Ok(allowed)
}

fn run(args: &Args, work: &std::path::Path, unpinned: CpuMask) -> (Metrics, u64, u64, bool) {
    let spec = args.workload;
    let inputs = Inputs::generate(spec, args.seed);
    eprintln!(
        "flexbench {} seed={} schedule_digest={:#018x}",
        spec.name,
        args.seed,
        inputs.schedule_digest()
    );
    let rig = serve::setup(spec, &inputs, work);
    let mut run = Run {
        spec,
        inputs: &inputs,
        ledger: Ledger::default(),
        attempted: 0,
        failed: 0,
        unpinned,
    };
    let metrics = if args.trace {
        run.traced(rig, work)
    } else {
        run.timed(rig, work, Duration::from_secs(args.seconds))
    };
    (metrics, run.attempted, run.failed, run.failed == 0)
}

/// One run's shared state: the workload, its inputs, the orders taken and
/// acknowledged, and the operation counts.
struct Run<'a> {
    spec: &'static Spec,
    inputs: &'a Inputs,
    ledger: Ledger,
    attempted: u64,
    failed: u64,
    /// The CPUs the process had before it was pinned.
    unpinned: CpuMask,
}

impl Run<'_> {
    fn mode(&self) -> Mode {
        if self.spec.durable {
            Mode::Ingest
        } else {
            Mode::Reads
        }
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Runs `ops` until `limit` and counts its operations.
    fn ops(
        &mut self,
        rig: &Rig,
        ops: &mut Ops,
        limit: Limit,
        trace: Option<(&mut Tracer, &mut Replay)>,
    ) -> Tally {
        let mut t = Tally::default();
        run_loop(
            rig,
            self.inputs,
            ops,
            &mut self.ledger,
            limit,
            trace,
            &mut t,
        );
        self.count(t.attempted, t.failed);
        t
    }

    /// Untimed: caches fill and lazy set-up finishes.
    fn warm(&mut self, rig: &Rig, ops: &mut Ops, olap: &mut Olap) {
        self.ops(rig, ops, Limit::Ops(self.spec.warm_ops), None);
        olap.round(&self.ledger, None);
        let t = std::mem::take(&mut olap.tally);
        self.count(t.attempted, t.failed);
    }

    /// Drops a durable rig and checks that its store reopens from the
    /// WAL with exactly the acknowledged commits.
    fn finish(&mut self, rig: Rig) {
        if let Some(dir) = rig.wal_dir.clone() {
            drop(rig);
            let ok = serve::durability_check(&dir, self.inputs, &self.ledger);
            self.count(1, u64::from(!ok));
        }
    }

    fn timed(&mut self, rig: Rig, work: &std::path::Path, total: Duration) -> Metrics {
        let spec = self.spec;
        let mut ops = Ops::new(self.inputs, self.mode());
        let mut olap = Olap::new(&rig.store, self.inputs);
        self.warm(&rig, &mut ops, &mut olap);
        // before the timed part, whose latency samples are the benchmark's
        // own memory and grow with throughput
        let peak_rss_mb = stats::peak_rss_mb();
        let slice = Limit::For(Duration::from_millis(spec.slice_ms));
        let mut t = Tally::default();
        let mut setup = SetupClock::new(spec, self.inputs, work);
        let start = Instant::now();
        while start.elapsed() < total {
            // set-up samples spread evenly over the run, so that a stretch
            // of host noise falls on them as on the other metrics
            let due = spec.setup_reps as f64 * start.elapsed().as_secs_f64() / total.as_secs_f64();
            while (setup.samples() as f64) < due {
                setup.sample();
            }
            let s = self.ops(&rig, &mut ops, slice, None);
            t.absorb(s);
            for _ in 0..spec.rounds_per_slice {
                olap.round(&self.ledger, None);
            }
        }
        while setup.samples() < spec.setup_reps {
            setup.sample();
        }
        let mut o = std::mem::take(&mut olap.tally);
        self.count(o.attempted, o.failed);
        let server = rig.server.stats();
        eprintln!(
            "{} ops in {:.2}s of serving; plan hits/misses {}/{}, result hits/misses {}/{}; \
             {} analytics rounds; {} commits acknowledged",
            t.ops(),
            t.busy_s,
            server.plan_hits,
            server.plan_misses,
            server.result_hits,
            server.result_misses,
            o.project_s.len(),
            self.ledger.acked.len()
        );
        drop(olap);
        self.finish(rig);

        let ops_per_s = t.ops_per_s();
        let mut reads: Vec<f64> = t.read_us.iter().flatten().copied().collect();
        let [mut p, mut h, mut f] = t.read_us;
        let mut m = Metrics::new();
        m.insert("setup_s", (setup.median(), "s"));
        m.insert("peak_rss_mb", (peak_rss_mb, "MB"));
        m.insert("ops_per_s", (ops_per_s, "1/s"));
        m.insert("point_p50_us", (median(&mut p), "us"));
        m.insert("hop_p50_us", (median(&mut h), "us"));
        m.insert("fraud_p50_us", (median(&mut f), "us"));
        m.insert("read_p90_us", (quantile(&mut reads, 0.9), "us"));
        m.insert("project_s", (median(&mut o.project_s), "s"));
        m.insert("pagerank_s", (median(&mut o.pagerank_s), "s"));
        m.insert("wcc_s", (median(&mut o.wcc_s), "s"));
        m.insert("bfs_s", (median(&mut o.bfs_s), "s"));
        m
    }

    /// `hiactor.dispatch_us`, probed on a thread with the CPUs the process
    /// had before pinning, so the shard thread `QueryService` starts can
    /// run on another CPU than its client, as in a deployment.
    fn hiactor_dispatch_us(&mut self, rig: &Rig) -> f64 {
        let (store, inputs, unpinned) = (&rig.store, self.inputs, &self.unpinned);
        let probe = std::thread::scope(|s| {
            s.spawn(|| {
                set_affinity(unpinned)?;
                Ok(serve::hiactor_dispatch_us(
                    store,
                    inputs,
                    Duration::from_millis(600),
                ))
            })
            .join()
            .expect("the probe thread does not panic")
        });
        probe.unwrap_or_else(|e: String| {
            eprintln!("flexbench: hiactor probe: {e}");
            self.count(1, 1);
            0.0
        })
    }

    fn traced(&mut self, rig: Rig, work: &std::path::Path) -> Metrics {
        let spec = self.spec;
        let n = Limit::Ops(spec.trace_ops);
        // the same schedule untraced, on a second server over the same
        // store, gives the tracing overhead
        let untraced = {
            let (server, sessions) = serve::open_server(&rig.store);
            let plain = Rig {
                store: rig.store.clone(),
                server,
                sessions,
                wal_dir: rig.wal_dir.clone(),
            };
            let mut ops = Ops::new(self.inputs, self.mode());
            self.ops(&plain, &mut ops, Limit::Ops(spec.warm_ops), None);
            self.ops(&plain, &mut ops, n, None)
        };
        let mut tracer = Tracer::new();
        let mut replay = Replay::new(&rig.store);
        let mut ops = Ops::new(self.inputs, self.mode());
        let mut olap = Olap::new(&rig.store, self.inputs);
        self.warm(&rig, &mut ops, &mut olap);
        let t = self.ops(&rig, &mut ops, n, Some((&mut tracer, &mut replay)));
        // the read-only workloads' write phase, after their serving
        if !spec.durable {
            let mut commits = Ops::new(self.inputs, Mode::Commits);
            let limit = Limit::Ops(spec.trace_commits);
            self.ops(&rig, &mut commits, limit, Some((&mut tracer, &mut replay)));
        }
        for _ in 0..spec.trace_rounds {
            olap.round(&self.ledger, Some(&mut tracer));
        }
        let o = std::mem::take(&mut olap.tally);
        self.count(o.attempted, o.failed);
        drop(olap);
        let dispatch_us = self.hiactor_dispatch_us(&rig);

        let spans_path = work
            .parent()
            .expect("the work directory has a parent")
            .join(format!("spans-{}.tsv", spec.name));
        if let Err(e) = tracer.write(&spans_path) {
            eprintln!("flexbench: cannot write {}: {e}", spans_path.display());
        }
        for line in tracer.summary() {
            eprintln!("  {line}");
        }
        let (_, overcovered) = tracer.self_times();
        let mut durs = tracer.durations_us();
        let mut selfs = tracer.self_us();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let untraced_ops_per_s = untraced.ops_per_s();
        let traced_ops_per_s = t.ops_per_s();

        let mut m = Metrics::new();
        for (metric, span) in [
            ("lang.parse_us", "lang.parse"),
            ("optimizer.optimize_us", "optimizer.optimize"),
            ("ir.verify_us", "ir.verify"),
            ("ir.cost_us", "ir.cost"),
            ("engine.prepare_us", "engine.prepare"),
            ("gart.snapshot_us", "gart.snapshot"),
            ("ir.exec_us.point", "ir.exec.point"),
            ("ir.exec_us.hop", "ir.exec.hop"),
            ("ir.exec_us.fraud", "ir.exec.fraud"),
            ("gart.lookup_us", "gart.lookup"),
            ("gart.txn_stage_us", "gart.txn_stage"),
            ("gart.commit_us", "gart.commit"),
            ("grin.scan_us", "grin.scan"),
        ] {
            m.insert(
                metric,
                (durs.get_mut(span).map_or(0.0, |v| median(v)), "us"),
            );
        }
        let commit_p99 = durs
            .get_mut("gart.commit")
            .map_or(0.0, |v| quantile(v, 0.99));
        m.insert("gart.commit_p99_us", (commit_p99, "us"));
        for (metric, span) in [
            ("serve.self_us", "serve.query"),
            ("grape.build_us", "grape.project"),
        ] {
            m.insert(
                metric,
                (selfs.get_mut(span).map_or(0.0, |v| median(v)), "us"),
            );
        }
        let plan_miss = ratio(replay.plan_misses, replay.plan_lookups);
        m.insert("serve.plan_miss_ratio", (plan_miss, "ratio"));
        let result_hit = ratio(replay.result_hits, replay.result_lookups);
        m.insert("serve.result_hit_ratio", (result_hit, "ratio"));
        for (t, metric) in [
            (POINT, "ir.rows_out.point"),
            (HOP, "ir.rows_out.hop"),
            (FRAUD, "ir.rows_out.fraud"),
        ] {
            m.insert(
                metric,
                (ratio(replay.rows_out[t], replay.execs[t]), "count"),
            );
        }
        let writes = ratio(replay.wal_writes, replay.commits);
        m.insert("gart.wal_writes_per_commit", (writes, "count"));
        let bytes = ratio(replay.wal_bytes, replay.wal_bytes_commits);
        m.insert("gart.wal_bytes_per_commit", (bytes, "bytes"));
        m.insert("grape.bfs_push_steps", (o.push_steps as f64, "count"));
        m.insert("grape.bfs_pull_steps", (o.pull_steps as f64, "count"));
        m.insert("hiactor.dispatch_us", (dispatch_us, "us"));
        m.insert("trace.ops_per_s", (traced_ops_per_s, "1/s"));
        let overhead =
            100.0 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s.max(1e-9);
        m.insert("trace.overhead_pct", (overhead, "%"));
        m.insert("trace.overcovered_spans", (overcovered as f64, "count"));
        eprintln!(
            "trace: untraced {untraced_ops_per_s:.0} ops/s, traced {traced_ops_per_s:.0} ops/s; \
             {overcovered} spans whose children exceed them by more than a tenth; spans in {}",
            spans_path.display()
        );
        // the replay holds the store too: drop it so the durability check
        // reopens a store no one else has open
        drop(replay);
        self.finish(rig);
        m
    }
}
