//! WAL durability and crash recovery: reopen equivalence, uncommitted
//! discard, torn-tail truncation, and checkpoint/rotation round trips.
//! (Seeded kill-point sweeps live in `tests/chaos.rs` and the
//! `gs-bench durability` corpus.)

use gs_gart::{Durability, DurabilityConfig, GartStore};
use gs_graph::schema::GraphSchema;
use gs_graph::ValueType;
use gs_grin::{Direction, GrinGraph, LabelId, PropId, Value};
use std::path::PathBuf;
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
        "gs-gart-dur-{}-{}-{}",
        tag,
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A full deterministic scan of the committed state: vertices with
/// externals and properties, edges with resolved endpoints and weights,
/// and the property index's answer for every value.
fn digest(store: &Arc<GartStore>, vl: LabelId, el: LabelId) -> String {
    let snap = store.snapshot();
    let mut out = format!("v{}\n", store.committed_version());
    for v in snap.vertices(vl) {
        out.push_str(&format!(
            "V {} {:?}\n",
            snap.external_id(vl, v).unwrap(),
            snap.vertex_property(vl, v, PropId(0))
        ));
    }
    let mut rows = Vec::new();
    store.scan_edges(el, store.committed_version(), &mut |s, d, e| {
        rows.push((s, d, e));
    });
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

#[test]
fn reopen_restores_committed_state_bit_identically() {
    let dir = tmpdir("roundtrip");
    let (s, vl, el) = schema();
    let before = {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
        assert!(store.durable());
        for i in 1..=4 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
        }
        store.commit();
        store.add_edge(el, 1, 2, vec![Value::Float(1.2)]).unwrap();
        store.add_edge(el, 2, 3, vec![Value::Float(2.3)]).unwrap();
        store.commit();
        assert!(store.delete_edge(el, 1, 2).unwrap());
        assert!(store.delete_vertex(vl, 4).unwrap());
        store.commit();
        // explicit transactions persist too
        let mut t = store.begin();
        t.add_vertex(vl, 5, vec![Value::Int(55)]).unwrap();
        t.add_edge(el, 5, 1, vec![Value::Float(5.1)]).unwrap();
        t.commit().unwrap();
        digest(&store, vl, el)
    };
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), before);
    // and the reopened store keeps working: another commit, another reopen
    store.add_vertex(vl, 6, vec![Value::Int(6)]).unwrap();
    store.commit();
    let after = digest(&store, vl, el);
    drop(store);
    let store = GartStore::open(schema().0, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), after);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncommitted_writes_are_discarded_on_reopen() {
    let dir = tmpdir("discard");
    let (s, vl, el) = schema();
    let committed = {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
        store.add_vertex(vl, 1, vec![Value::Int(1)]).unwrap();
        store.add_vertex(vl, 2, vec![Value::Int(2)]).unwrap();
        store.commit();
        let d = digest(&store, vl, el);
        // implicit staged-but-uncommitted writes...
        store.add_vertex(vl, 3, vec![Value::Int(3)]).unwrap();
        // ...and an explicit transaction that never commits: leak it so
        // its Drop-abort cannot run, simulating a crash mid-transaction
        let mut t = store.begin();
        t.add_vertex(vl, 4, vec![Value::Int(4)]).unwrap();
        t.add_edge(el, 1, 4, vec![Value::Float(1.4)]).unwrap();
        std::mem::forget(t);
        d
    };
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), committed);
    assert_eq!(store.snapshot().internal_id(vl, 3), None);
    assert_eq!(store.snapshot().internal_id(vl, 4), None);
    // discarded ids are usable again
    store.add_vertex(vl, 3, vec![Value::Int(33)]).unwrap();
    store.commit();
    assert!(store.snapshot().internal_id(vl, 3).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aborted_txns_stay_aborted_across_reopen() {
    let dir = tmpdir("abort");
    let (s, vl, el) = schema();
    let expect = {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
        store.add_vertex(vl, 1, vec![Value::Int(1)]).unwrap();
        store.commit();
        let mut t = store.begin();
        t.add_vertex(vl, 2, vec![Value::Int(2)]).unwrap();
        t.abort();
        // work after the abort must replay on top of the same holes
        store.add_vertex(vl, 3, vec![Value::Int(3)]).unwrap();
        store.add_edge(el, 1, 3, vec![Value::Float(1.3)]).unwrap();
        store.commit();
        digest(&store, vl, el)
    };
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), expect);
    assert_eq!(store.snapshot().internal_id(vl, 2), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_to_the_committed_prefix() {
    let dir = tmpdir("torn");
    let (s, vl, el) = schema();
    let committed = {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
        store.add_vertex(vl, 1, vec![Value::Int(1)]).unwrap();
        store.add_vertex(vl, 2, vec![Value::Int(2)]).unwrap();
        store.add_edge(el, 1, 2, vec![Value::Float(1.2)]).unwrap();
        store.commit();
        digest(&store, vl, el)
    };
    // simulate a crash mid-write: a frame header promising more bytes
    // than the file holds
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&200u32.to_le_bytes()).unwrap();
        f.write_all(&0xdead_beefu32.to_le_bytes()).unwrap();
        f.write_all(&[7u8; 11]).unwrap();
    }
    let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), committed);
    // the tear was truncated and the log folded into a checkpoint, so a
    // second reopen is clean too
    drop(store);
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(digest(&store, vl, el), committed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_image_plus_log_tail_round_trips() {
    let dir = tmpdir("ckpt");
    let (s, vl, el) = schema();
    let cfg = || DurabilityConfig::new(&dir).checkpoint_every(2);
    let expect = {
        let store = GartStore::open(s.clone(), cfg()).unwrap();
        for i in 1..=6 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
            store.commit();
        }
        // the every-2-commits trigger must have produced an image
        assert!(dir.join("checkpoint.snap").exists());
        // leave a log tail past the image: deletions + a re-add
        assert!(store.delete_vertex(vl, 6).unwrap());
        store.add_edge(el, 1, 2, vec![Value::Float(1.2)]).unwrap();
        store.commit();
        digest(&store, vl, el)
    };
    let store = GartStore::open(s.clone(), cfg()).unwrap();
    assert_eq!(digest(&store, vl, el), expect);
    // shadowed slots and tombstones survived the image: old versions still
    // resolve and the deleted vertex stays gone
    assert_eq!(store.snapshot().internal_id(vl, 6), None);
    store.add_vertex(vl, 6, vec![Value::Int(66)]).unwrap();
    store.commit();
    let v6 = store.snapshot().internal_id(vl, 6).unwrap();
    assert_eq!(
        store.snapshot().vertex_property(vl, v6, PropId(0)),
        Value::Int(66)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_checkpoint_defers_while_a_txn_is_in_flight() {
    let dir = tmpdir("defer");
    let (s, vl, _el) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    store.add_vertex(vl, 1, vec![Value::Int(1)]).unwrap();
    store.commit();
    let mut t = store.begin();
    t.add_vertex(vl, 2, vec![Value::Int(2)]).unwrap();
    assert!(
        !store.checkpoint().unwrap(),
        "checkpoints are quiescent: an active txn defers them"
    );
    t.commit().unwrap();
    assert!(store.checkpoint().unwrap());
    assert!(dir.join("checkpoint.snap").exists());
    // an implicit (staged, uncommitted) write also defers
    store.add_vertex(vl, 3, vec![Value::Int(3)]).unwrap();
    assert!(!store.checkpoint().unwrap());
    store.commit();
    assert!(store.checkpoint().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buffered_durability_still_replays_after_clean_close() {
    let dir = tmpdir("buffered");
    let (s, vl, el) = schema();
    let cfg = || DurabilityConfig::new(&dir).buffered();
    let expect = {
        let store = GartStore::open(s.clone(), cfg()).unwrap();
        assert_eq!(store.wal_records(), 1, "fresh log holds exactly the header");
        store.add_vertex(vl, 1, vec![Value::Int(1)]).unwrap();
        store.add_vertex(vl, 2, vec![Value::Int(2)]).unwrap();
        store.add_edge(el, 1, 2, vec![Value::Float(1.2)]).unwrap();
        store.commit();
        assert!(store.wal_writes() > 1);
        digest(&store, vl, el)
    };
    let store = GartStore::open(s, cfg()).unwrap();
    assert_eq!(digest(&store, vl, el), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_snapshot_advertises_the_capability() {
    let dir = tmpdir("caps");
    let (s, _vl, _el) = schema();
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    let caps = store.snapshot().capabilities();
    assert!(caps.supports(gs_grin::Capabilities::DURABLE));
    assert!(caps.supports(gs_grin::Capabilities::TRANSACTIONS));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_and_buffered_modes_expose_their_durability() {
    let d1 = DurabilityConfig::new("x");
    assert_eq!(d1.durability, Durability::Sync);
    let d2 = DurabilityConfig::new("x").buffered();
    assert_eq!(d2.durability, Durability::Buffered);
}

#[test]
fn frozen_topology_survives_reopen() {
    // a freeze taken from a recovered store equals one taken before the
    // crash — snapshot isolation composes with recovery
    let dir = tmpdir("freeze");
    let (s, vl, el) = schema();
    let (before_rows, ver) = {
        let store = GartStore::open(s.clone(), DurabilityConfig::new(&dir)).unwrap();
        for i in 1..=4 {
            store.add_vertex(vl, i, vec![Value::Int(i as i64)]).unwrap();
        }
        for (a, b) in [(1u64, 2u64), (2, 3), (3, 4), (4, 1)] {
            store.add_edge(el, a, b, vec![Value::Float(0.5)]).unwrap();
        }
        store.commit();
        assert!(store.delete_vertex(vl, 4).unwrap());
        store.commit();
        let snap = store.snapshot();
        let frozen = snap.freeze(gs_graph::layout::LayoutKind::SortedCsr);
        let mut rows = Vec::new();
        for v in frozen.vertices(vl) {
            let adj: Vec<_> = frozen.adjacent(v, vl, el, Direction::Out).collect();
            rows.push((v, adj));
        }
        (rows, snap.version())
    };
    let store = GartStore::open(s, DurabilityConfig::new(&dir)).unwrap();
    let frozen = store
        .snapshot_at(ver)
        .freeze(gs_graph::layout::LayoutKind::SortedCsr);
    let mut rows = Vec::new();
    for v in frozen.vertices(vl) {
        let adj: Vec<_> = frozen.adjacent(v, vl, el, Direction::Out).collect();
        rows.push((v, adj));
    }
    assert_eq!(rows, before_rows);
    let _ = std::fs::remove_dir_all(&dir);
}
