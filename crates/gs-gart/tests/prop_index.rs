//! The property index under MVCC: seeded histories of inserts (duplicate
//! and distinct values, nulls), deletes, delete-then-re-add and aborted
//! transactions, with the first lookup issued midway so later inserts
//! must keep a built index current. At every committed version,
//! `vertices_by_property` must equal a scan oracle (`vertices()` +
//! `vertex_property`), absent and null values included.

use gs_gart::{GartSnapshot, GartStore};
use gs_graph::schema::GraphSchema;
use gs_graph::ValueType;
use gs_grin::{GrinGraph, LabelId, PropId, VId, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

const X: PropId = PropId(0);

fn schema() -> (GraphSchema, LabelId) {
    let mut s = GraphSchema::new();
    let v = s.add_vertex_label("V", &[("x", ValueType::Int)]);
    s.add_edge_label("E", v, v, &[]);
    (s, v)
}

/// GRIN's default answer: every visible vertex whose value equals
/// `value`, null never matching.
fn scan(snap: &GartSnapshot, vl: LabelId, value: &Value) -> Vec<VId> {
    snap.vertices(vl)
        .filter(|&v| {
            let x = snap.vertex_property(vl, v, X);
            !x.is_null() && x.total_cmp(value).is_eq()
        })
        .collect()
}

/// Every value a history can store, a float equal to one of them, an
/// absent value, and null.
fn probes() -> Vec<Value> {
    let mut values: Vec<Value> = (0..8).map(Value::Int).collect();
    values.extend([Value::Float(2.0), Value::Int(99), Value::Null]);
    values
}

/// Checks the index against the scan at every committed version.
fn check_every_version(store: &Arc<GartStore>, vl: LabelId) {
    for version in 0..=store.committed_version() {
        let snap = store.snapshot_at(version);
        for value in probes() {
            assert_eq!(
                snap.vertices_by_property(vl, X, &value),
                scan(&snap, vl, &value),
                "version {version}, value {value:?}"
            );
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Auto-commit layer insert; `None` stores a null.
    Add(u64, Option<i64>),
    Delete(u64),
    /// Delete, then re-add under a different value — in one commit or,
    /// with `split`, across two.
    Readd {
        ext: u64,
        split: bool,
    },
    /// An explicit transaction that inserts, then aborts.
    Aborted(u64, i64),
    Commit,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0u64..12,
        proptest::option::of(0i64..8),
        any::<bool>(),
    )
        .prop_map(|(kind, ext, x, split)| match kind {
            0..=3 => Op::Add(ext, x),
            4 => Op::Delete(ext),
            5 => Op::Readd { ext, split },
            6 => Op::Aborted(ext, x.unwrap_or(0)),
            _ => Op::Commit,
        })
}

fn history() -> impl Strategy<Value = (Vec<Op>, usize, bool)> {
    (1usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec(op(), n..n + 1),
            0..n,
            any::<bool>(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_equal_the_scan_at_every_committed_version(
        (ops, first_lookup, lazy) in history(),
    ) {
        let (s, vl) = schema();
        let store = GartStore::new(s);
        // lazy stamping leaves every mark to the status table
        store.set_lazy_stamping(lazy);
        // the value each external id was last inserted with
        let mut last: HashMap<u64, i64> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if i == first_lookup {
                // builds the index; everything after must maintain it
                check_every_version(&store, vl);
            }
            match *op {
                Op::Add(ext, x) => {
                    let value = x.map_or(Value::Null, Value::Int);
                    if store.add_vertex(vl, ext, vec![value]).is_ok() {
                        last.insert(ext, x.unwrap_or(0));
                    }
                }
                Op::Delete(ext) => {
                    store.delete_vertex(vl, ext).unwrap();
                }
                Op::Readd { ext, split } => {
                    if store.delete_vertex(vl, ext).unwrap() {
                        if split {
                            store.commit();
                        }
                        let x = (last[&ext] + 1) % 8;
                        store.add_vertex(vl, ext, vec![Value::Int(x)]).unwrap();
                        last.insert(ext, x);
                    }
                }
                Op::Aborted(ext, x) => {
                    let mut t = store.begin();
                    // a conflict with the staged auto-commit writes is
                    // as good an abort as any
                    let _ = t.add_vertex(vl, ext, vec![Value::Int(x)]);
                    t.abort();
                }
                Op::Commit => {
                    store.commit();
                }
            }
        }
        store.commit();
        check_every_version(&store, vl);
    }
}

/// Externals of a lookup's answer, for readable assertions.
fn externals(snap: &GartSnapshot, vl: LabelId, value: i64) -> Vec<u64> {
    snap.vertices_by_property(vl, X, &Value::Int(value))
        .into_iter()
        .map(|v| snap.external_id(vl, v).unwrap())
        .collect()
}

#[test]
fn a_transaction_sees_its_own_staged_vertex_and_nobody_else_does() {
    let (s, vl) = schema();
    let store = GartStore::new(s);
    for (ext, x) in [(1, 10), (2, 20), (3, 10)] {
        store.add_vertex(vl, ext, vec![Value::Int(x)]).unwrap();
    }
    store.commit();
    assert_eq!(externals(&store.snapshot(), vl, 10), vec![1, 3]);

    let mut t = store.begin();
    t.add_vertex(vl, 9, vec![Value::Int(10)]).unwrap();
    assert!(t.delete_vertex(vl, 1).unwrap());
    let own = |view: &gs_gart::GartView<'_>| -> Vec<u64> {
        view.vertices_by_property(vl, X, &Value::Int(10))
            .into_iter()
            .map(|v| view.external_id(vl, v).unwrap())
            .collect()
    };
    assert_eq!(t.with_view(own), vec![3, 9], "own insert and delete");
    let other = store.begin();
    assert_eq!(other.with_view(own), vec![1, 3]);
    let before = store.snapshot();
    assert_eq!(externals(&before, vl, 10), vec![1, 3]);

    t.commit().unwrap();
    assert_eq!(externals(&store.snapshot(), vl, 10), vec![3, 9]);
    // pinned readers keep their version
    assert_eq!(other.with_view(own), vec![1, 3]);
    assert_eq!(externals(&before, vl, 10), vec![1, 3]);
}

#[test]
fn a_first_lookup_racing_a_writer_returns_exactly_the_scan() {
    let (s, vl) = schema();
    let store = GartStore::new(s);
    for ext in 0..300u64 {
        store
            .add_vertex(vl, ext, vec![Value::Int((ext % 10) as i64)])
            .unwrap();
    }
    store.commit();
    let start = Arc::new(Barrier::new(2));
    let writer = {
        let (store, start) = (Arc::clone(&store), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for ext in 300..500u64 {
                store
                    .add_vertex(vl, ext, vec![Value::Int((ext % 10) as i64)])
                    .unwrap();
                if ext % 3 == 0 {
                    store.delete_vertex(vl, ext - 250).unwrap();
                }
                store.commit();
            }
        })
    };
    let reader = {
        let (store, start) = (Arc::clone(&store), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for round in 0..120i64 {
                let snap = store.snapshot();
                let value = Value::Int(round % 11);
                assert_eq!(
                    snap.vertices_by_property(vl, X, &value),
                    scan(&snap, vl, &value),
                    "version {}",
                    snap.version()
                );
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    check_every_version(&store, vl);
}
