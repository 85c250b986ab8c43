//! `gate durability` — seeded crash/restart equivalence corpus for
//! the transactional GART store.
//!
//! The core assertion is **kill-anywhere equivalence**: a reference run
//! records the WAL's write-seam coordinate after every commit, then the
//! same workload is re-run once per kill point (the process dies before
//! durable write *n*, or mid-write with a torn prefix), the store is
//! reopened with no faults installed, and its full scan must be
//! bit-identical to the committed prefix the coordinate implies —
//! committed transactions survive, in-flight ones vanish. A separate
//! workload pins a snapshot under a concurrent writer and asserts it
//! never observes torn adjacency.
//!
//! Mirrors the `chaos` corpus one storage layer down and reports through
//! its [`Verdict`] table; every violation is a gate error. Only
//! meaningful when built with `--features chaos`; without it the gate
//! driver prints a note and exits 0.

use crate::chaos::{verdict_report, Verdict};
use crate::gate::{GateArgs, GateReport};
use gs_chaos::{ChaosStats, FaultPlan};
use gs_gart::{DurabilityConfig, GartStore};
use gs_graph::schema::GraphSchema;
use gs_graph::ValueType;
use gs_grin::{GrinGraph, LabelId, PropId, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn schema() -> (GraphSchema, LabelId, LabelId) {
    let mut s = GraphSchema::new();
    let v = s.add_vertex_label("V", &[("x", ValueType::Int)]);
    let e = s.add_edge_label("E", v, v, &[("w", ValueType::Float)]);
    (s, v, e)
}

fn tmpdir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gs-bench-dur-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Deterministic full scan at a pinned version: every vertex with its
/// external id and property, every live edge with resolved endpoints,
/// and the property index's answer for every value.
fn digest_at(store: &Arc<GartStore>, vl: LabelId, el: LabelId, version: u64) -> String {
    let snap = store.snapshot_at(version);
    let mut out = String::new();
    for v in snap.vertices(vl) {
        out.push_str(&format!(
            "V {} {:?}\n",
            snap.external_id(vl, v).unwrap(),
            snap.vertex_property(vl, v, PropId(0))
        ));
    }
    let mut rows = Vec::new();
    store.scan_edges(el, version, &mut |s, d, e| rows.push((s, d, e)));
    for (s, d, e) in rows {
        out.push_str(&format!(
            "E {} {} {:?}\n",
            snap.external_id(vl, s).unwrap(),
            snap.external_id(vl, d).unwrap(),
            snap.edge_property(el, e, PropId(0))
        ));
    }
    // the property index: each visible value plus one absent value,
    // answered by `vertices_by_property` and named by external id
    let mut values: Vec<Value> = snap
        .vertices(vl)
        .map(|v| snap.vertex_property(vl, v, PropId(0)))
        .chain([Value::Int(i64::MIN)])
        .collect();
    values.sort_by(|a, b| a.total_cmp(b));
    values.dedup();
    for value in values {
        let ids: Vec<u64> = snap
            .vertices_by_property(vl, PropId(0), &value)
            .into_iter()
            .map(|v| snap.external_id(vl, v).unwrap())
            .collect();
        out.push_str(&format!("I {value:?} {ids:?}\n"));
    }
    out
}

fn digest(store: &Arc<GartStore>, vl: LabelId, el: LabelId) -> String {
    digest_at(store, vl, el, store.committed_version())
}

/// The crash workload: five commits exercising inserts, batch edges,
/// explicit transactions, an abort, and deletes of both kinds. Returns
/// the seam coordinate after each commit.
fn workload(dir: &Path, seed: u64, vl: LabelId, el: LabelId) -> Vec<u64> {
    let (s, _, _) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(dir)).unwrap();
    let mut seams = vec![store.wal_writes()];
    let commit = |store: &Arc<GartStore>, seams: &mut Vec<u64>| {
        store.commit();
        seams.push(store.wal_writes());
    };
    for i in 1..=6 {
        store
            .add_vertex(vl, i, vec![Value::Int((seed ^ i) as i64)])
            .unwrap();
    }
    commit(&store, &mut seams);
    let batch: Vec<(u64, u64, Vec<Value>)> = (1..=5u64)
        .map(|i| (i, i + 1, vec![Value::Float(i as f64 / 2.0)]))
        .collect();
    store.add_edges(el, &batch).unwrap();
    commit(&store, &mut seams);
    // an explicit transaction, plus an aborted one whose holes must
    // reproduce under replay
    let mut t = store.begin();
    t.add_vertex(vl, 7, vec![Value::Int(77)]).unwrap();
    t.add_edge(el, 7, 1, vec![Value::Float(7.1)]).unwrap();
    t.commit().unwrap();
    seams.push(store.wal_writes());
    let mut dead = store.begin();
    dead.add_vertex(vl, 8, vec![Value::Int(88)]).unwrap();
    dead.abort();
    store.add_vertex(vl, 8, vec![Value::Int(89)]).unwrap();
    commit(&store, &mut seams);
    assert!(store.delete_edge(el, 2, 3).unwrap());
    assert!(store.delete_vertex(vl, 5).unwrap());
    commit(&store, &mut seams);
    seams
}

/// Runs the workload uninterrupted and captures the per-commit prefix
/// digests (pinned snapshots of the finished store) plus the seams.
fn reference(seed: u64, vl: LabelId, el: LabelId) -> (Vec<String>, Vec<u64>) {
    let dir = tmpdir("ref");
    // the empty plan takes the exclusive chaos gate: reference WAL writes
    // can never race another corpus entry's installed plan
    let (seams, _) = gs_chaos::with_chaos(FaultPlan::new(seed), || workload(&dir, seed, vl, el));
    let (s, _, _) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    let commits = seams.len() - 1;
    let digests = (0..=commits as u64)
        .map(|v| digest_at(&store, vl, el, v))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (digests, seams)
}

/// The tentpole sweep: one crashed run per WAL write coordinate, clean
/// kills or torn writes depending on `torn`.
fn sweep(seed: u64, torn: bool) -> Verdict {
    let (_, vl, el) = schema();
    let (prefix_digests, seams) = reference(seed, vl, el);
    let total = *seams.last().unwrap();
    let mut stats = ChaosStats::default();
    let mut failures = Vec::new();
    for kill_at in 0..total {
        let dir = tmpdir(if torn { "torn" } else { "kill" });
        let mut plan = FaultPlan::new(seed ^ kill_at).wal_kill(kill_at);
        if torn {
            plan = plan.wal_torn_writes();
        }
        let (outcome, injected) = gs_chaos::with_chaos(plan, || {
            catch_unwind(AssertUnwindSafe(|| workload(&dir, seed, vl, el)))
        });
        stats.wal_kills += injected.wal_kills;
        stats.wal_torn_writes += injected.wal_torn_writes;
        match outcome {
            Err(e) if gs_chaos::is_chaos_unwind(e.as_ref()) => {}
            Err(_) => {
                failures.push(format!("write {kill_at}: non-chaos panic"));
                continue;
            }
            Ok(_) => {
                failures.push(format!("write {kill_at}: scheduled kill never fired"));
                continue;
            }
        }
        // recovery runs clean — no plan installed
        let (s, _, _) = schema();
        let store = match GartStore::open(s, DurabilityConfig::new(&dir)) {
            Ok(st) => st,
            Err(e) => {
                failures.push(format!("write {kill_at}: reopen failed: {e:?}"));
                continue;
            }
        };
        let commits = seams[1..].iter().filter(|&&s| s <= kill_at).count();
        if digest(&store, vl, el) != prefix_digests[commits] {
            failures.push(format!(
                "write {kill_at}: recovered state is not the {commits}-commit prefix"
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let outcome = if let Some(first) = failures.first() {
        Err(format!(
            "{} of {total} kill points broke equivalence ({first})",
            failures.len()
        ))
    } else {
        Ok(format!(
            "all {total} kill points recovered the exact committed prefix"
        ))
    };
    Verdict { stats, outcome }
}

/// Conflicting writers then a crash: the winner's commit must survive
/// the kill, the conflicted loser (and the killed trailing transaction)
/// must leave no trace.
fn conflict_abort_crash(seed: u64) -> Verdict {
    let (s, vl, el) = schema();
    // the run keeps writing after the winner commits so the crash run's
    // kill — scheduled at the winner's post-commit seam — lands mid-tail
    let run = |dir: &Path| -> (String, u64) {
        let store = GartStore::open(schema().0, DurabilityConfig::new(dir)).unwrap();
        for i in 1..=3 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
        }
        store.add_edge(el, 1, 2, vec![Value::Float(1.2)]).unwrap();
        store.commit();
        let mut winner = store.begin();
        let mut loser = store.begin();
        assert!(winner.delete_edge(el, 1, 2).unwrap());
        let conflict = loser.delete_edge(el, 1, 2);
        assert!(
            matches!(conflict, Err(gs_grin::GraphError::TxnConflict(_))),
            "first-writer-wins must yield a structured conflict"
        );
        loser.abort();
        winner.commit().unwrap();
        let out = (digest(&store, vl, el), store.wal_writes());
        store.add_vertex(vl, 99, vec![Value::Int(0)]).unwrap();
        store.commit();
        out
    };
    let dir = tmpdir("conflict-ref");
    let ((expect, seam), _) = gs_chaos::with_chaos(FaultPlan::new(seed), || run(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    let crash_dir = tmpdir("conflict-crash");
    // kill fires before write `seam`: everything up to the winner's
    // commit is durable, the trailing vertex-99 transaction is not
    let plan = FaultPlan::new(seed).wal_kill(seam);
    let (outcome, stats) =
        gs_chaos::with_chaos(plan, || catch_unwind(AssertUnwindSafe(|| run(&crash_dir))));
    let outcome = match outcome {
        Ok(_) => Err("the scheduled post-commit kill never fired".to_string()),
        Err(e) if !gs_chaos::is_chaos_unwind(e.as_ref()) => {
            Err("workload died on a non-chaos panic".to_string())
        }
        Err(_) => {
            let store = GartStore::open(s, DurabilityConfig::new(&crash_dir)).unwrap();
            if digest(&store, vl, el) != expect {
                Err("winner's committed delete did not survive the crash".to_string())
            } else if store.snapshot().internal_id(vl, 99).is_some() {
                Err("the killed trailing transaction leaked into recovery".to_string())
            } else {
                Ok("winner durable, conflicted loser left no trace".to_string())
            }
        }
    };
    let _ = std::fs::remove_dir_all(&crash_dir);
    Verdict { stats, outcome }
}

/// A snapshot pinned before concurrent commits must never observe torn
/// adjacency: its digest is re-scanned while a writer commits and
/// deletes under it.
fn pinned_snapshot_never_tears(seed: u64) -> Verdict {
    let (s, vl, el) = schema();
    let dir = tmpdir("pin");
    let ((), stats) = gs_chaos::with_chaos(FaultPlan::new(seed), || {});
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    for i in 1..=8 {
        store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
    }
    for i in 1..=7u64 {
        store
            .add_edge(el, i, i + 1, vec![Value::Float(i as f64)])
            .unwrap();
    }
    store.commit();
    let pinned = store.committed_version();
    let before = digest_at(&store, vl, el, pinned);
    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for i in 1..=6u64 {
                store.delete_edge(el, i, i + 1).unwrap();
                store.delete_vertex(vl, i).unwrap();
                store.add_vertex(vl, 100 + i, vec![Value::Int(0)]).unwrap();
                store.commit();
            }
        })
    };
    let mut tears = 0usize;
    let mut scans = 0usize;
    while !writer.is_finished() || scans == 0 {
        if digest_at(&store, vl, el, pinned) != before {
            tears += 1;
        }
        scans += 1;
    }
    writer.join().unwrap();
    // one final scan after every commit has landed
    if digest_at(&store, vl, el, pinned) != before {
        tears += 1;
    }
    let outcome = if tears > 0 {
        Err(format!("{tears}/{scans} scans observed torn adjacency"))
    } else {
        Ok(format!(
            "{scans} concurrent scans of the pinned snapshot, zero tears"
        ))
    };
    let _ = std::fs::remove_dir_all(&dir);
    Verdict { stats, outcome }
}

/// Runs the whole corpus; each entry installs its own exclusive plan.
pub fn run_corpus(seed: u64) -> Vec<(&'static str, Verdict)> {
    vec![
        ("kill-sweep", sweep(seed, false)),
        ("torn-write-sweep", sweep(seed, true)),
        ("conflict-abort-crash", conflict_abort_crash(seed)),
        ("pinned-snapshot-no-tear", pinned_snapshot_never_tears(seed)),
    ]
}

/// The `durability` gate.
pub fn gate(args: &GateArgs) -> Result<GateReport, String> {
    Ok(verdict_report(
        "durability",
        args.seed,
        &run_corpus(args.seed),
    ))
}

#[cfg(test)]
#[cfg(feature = "chaos")]
mod tests {
    use super::*;

    /// The acceptance gate: kill-anywhere equivalence holds across the
    /// whole corpus — the `gate durability --deny` CI bar.
    #[test]
    fn corpus_holds_crash_equivalence() {
        for (workload, r) in run_corpus(42) {
            assert!(
                r.outcome.is_ok(),
                "{workload} broke crash equivalence ({}): {}",
                r.stats.render(),
                r.outcome.unwrap_err()
            );
        }
    }
}
