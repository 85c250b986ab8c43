//! Kill-anywhere crash equivalence under seeded chaos: the process dies
//! at (or mid-) an arbitrary durable write, the store reopens, and the
//! recovered state must equal the committed prefix exactly.
//!
//! Lives in its own test binary (own process) because the chaos plan is
//! process-global: every fault-hooked step — workloads, replays and
//! recovery opens alike — runs inside `with_chaos`, whose gate serialises
//! these tests against each other, and no other gs-gart test shares the
//! process.
#![cfg(feature = "chaos")]

use gs_chaos::{is_chaos_unwind, with_chaos, FaultPlan};
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
        "gs-gart-chaos-{}-{}-{}",
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

/// The crash workload: three commits (vertices; edges; a delete each of
/// an edge and a vertex), run against `dir`. Returns the write-seam
/// coordinate after each commit, so a kill at write `n` is durable up to
/// the last commit whose coordinate is `<= n`.
fn workload(dir: &Path, vl: LabelId, el: LabelId) -> Vec<u64> {
    let (s, _, _) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(dir)).unwrap();
    let mut seams = vec![store.wal_writes()]; // zero commits done
    for i in 1..=4 {
        store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
    }
    store.commit();
    seams.push(store.wal_writes());
    for (a, b) in [(1u64, 2u64), (2, 3), (3, 4)] {
        store
            .add_edge(el, a, b, vec![Value::Float(a as f64)])
            .unwrap();
    }
    store.commit();
    seams.push(store.wal_writes());
    assert!(store.delete_edge(el, 2, 3).unwrap());
    assert!(store.delete_vertex(vl, 4).unwrap());
    store.commit();
    seams.push(store.wal_writes());
    seams
}

/// Reference digests after 0, 1, 2, 3 commits, plus the seam coordinates
/// recorded by an uninterrupted run.
fn reference(vl: LabelId, el: LabelId) -> (Vec<String>, Vec<u64>) {
    let dir = tmpdir("ref");
    // an empty plan still takes the exclusive chaos gate, so reference
    // runs cannot race another test's installed plan
    let (seams, _) = with_chaos(FaultPlan::new(1), || workload(&dir, vl, el));
    // replay the run version-by-version to capture each prefix digest;
    // the replaying open writes a checkpoint, so it takes the gate too
    let (digests, _) = with_chaos(FaultPlan::new(1), || prefix_digests(&dir, vl, el));
    let _ = std::fs::remove_dir_all(&dir);
    (digests, seams)
}

/// Digests of the run at `dir` after 0, 1, 2, 3 commits.
fn prefix_digests(dir: &Path, vl: LabelId, el: LabelId) -> Vec<String> {
    let (s, _, _) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(dir)).unwrap();
    // prefix digests come from pinned snapshots of the full run
    (0..=3)
        .map(|commits| digest_at(&store, vl, el, commits))
        .collect()
}

fn kill_sweep(torn: bool) {
    let (_, vl, el) = schema();
    let (prefix_digests, seams) = reference(vl, el);
    let total_writes = *seams.last().unwrap();
    assert!(total_writes > 4, "workload must span many durable writes");
    for kill_at in 0..total_writes {
        let dir = tmpdir(if torn { "torn" } else { "kill" });
        let mut plan = FaultPlan::new(0xC0FFEE + kill_at).wal_kill(kill_at);
        if torn {
            plan = plan.wal_torn_writes();
        }
        let (outcome, stats) = with_chaos(plan, || {
            catch_unwind(AssertUnwindSafe(|| workload(&dir, vl, el)))
        });
        let err = outcome.expect_err("the scheduled kill must fire");
        assert!(is_chaos_unwind(err.as_ref()), "only chaos unwinds expected");
        if torn {
            assert_eq!(stats.wal_torn_writes, 1);
        } else {
            assert_eq!(stats.wal_kills, 1);
        }
        // recovery runs under an empty plan — crashes never cascade — and
        // inside the gate, so its writes cannot trip another test's plan
        with_chaos(FaultPlan::new(0), || {
            let (s, _, _) = schema();
            let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
            // the kill fired *before* write `kill_at`, so exactly the
            // commits whose final write landed strictly earlier are durable
            let commits = seams[1..].iter().filter(|&&s| s <= kill_at).count();
            assert_eq!(
                digest(&store, vl, el),
                prefix_digests[commits],
                "kill at write {kill_at} (torn={torn}) must recover exactly \
                 the {commits}-commit prefix"
            );
            assert_eq!(store.committed_version(), commits as u64);
            // the recovered store accepts new work
            store.add_vertex(vl, 100, vec![Value::Int(100)]).unwrap();
            store.commit();
            assert!(store.snapshot().internal_id(vl, 100).is_some());
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_between_any_two_writes_recovers_the_committed_prefix() {
    kill_sweep(false);
}

#[test]
fn torn_write_at_any_point_recovers_the_committed_prefix() {
    kill_sweep(true);
}

#[test]
fn kill_during_checkpoint_falls_back_to_image_or_log() {
    // checkpoint chunks share the write seam: sweep kills across an
    // open() that folds a replayed log into a fresh checkpoint image
    let (s, vl, el) = schema();
    let seed_dir = tmpdir("ckpt-seed");
    let (expect, _) = with_chaos(FaultPlan::new(2), || {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&seed_dir)).unwrap();
        for i in 1..=3 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
            store.commit();
        }
        store.add_edge(el, 1, 2, vec![Value::Float(1.0)]).unwrap();
        store.commit();
        digest(&store, vl, el)
    });
    // reopening replays 4 commits and checkpoints; kill that checkpoint
    // at several write coordinates and verify a third open still lands
    // on the same state
    for kill_at in 0..6 {
        let dir = tmpdir("ckpt-kill");
        copy_dir(&seed_dir, &dir);
        let plan = FaultPlan::new(3).wal_kill(kill_at);
        let (outcome, _) = with_chaos(plan, || {
            catch_unwind(AssertUnwindSafe(|| {
                GartStore::open(s.clone(), DurabilityConfig::new(&dir))
                    .map(|st| digest(&st, vl, el))
            }))
        });
        match outcome {
            Ok(Ok(d)) => assert_eq!(d, expect, "undisturbed open at kill_at={kill_at}"),
            Ok(Err(e)) => panic!("open must not error under a kill plan: {e:?}"),
            Err(e) => assert!(is_chaos_unwind(e.as_ref())),
        }
        // whatever the checkpoint got to, a clean reopen (under an empty
        // plan, inside the gate) recovers
        let (recovered, _) = with_chaos(FaultPlan::new(3), || {
            let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
            digest(&store, vl, el)
        });
        assert_eq!(
            recovered, expect,
            "state after checkpoint crash at write {kill_at}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&seed_dir);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}
