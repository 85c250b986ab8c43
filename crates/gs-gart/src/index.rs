//! Lazy per-(vertex label, property) equality indexes.
//!
//! GRIN's index category lets an engine ask for "vertices of label L whose
//! property P equals v" ([`gs_grin::GrinGraph::vertices_by_property`]).
//! GART answers it from one [`PropIndex`] per vertex property column,
//! built on the first equality lookup of that column and kept current by
//! `txn::apply_add_vertex`, the function live commits and WAL replay both
//! run. A recovered or checkpoint-decoded store starts with every index
//! unbuilt and rebuilds each on demand, so indexes add nothing to the log
//! or the checkpoint image.
//!
//! Entries carry no version stamps: GART vertex properties are immutable,
//! so a slot's value never changes, and a lookup resolves each candidate
//! slot through the same `vertex_visible` check every other read uses.
//! Staged slots stay invisible to other readers, a deleted-then-re-added
//! id contributes one slot per incarnation (each snapshot sees the one
//! live at its version), and an aborted slot stays in its chain as a dead
//! entry, just as its property row stays in the table.

use gs_graph::props::PropertyTable;
use gs_grin::{PropId, Value};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

/// Closes a slot chain in [`PropIndex::older`].
const END: u32 = u32::MAX;

/// An equality index over one vertex property column. Each value bucket
/// names the newest slot whose value falls in it, and `older` links every
/// slot to the next-older slot of its bucket, so a bucket costs no heap
/// allocation of its own. Null values are never indexed.
#[derive(Debug, Default)]
pub(crate) struct PropIndex {
    /// Seeds the buckets per index, so stored values cannot be crafted
    /// to share one.
    seed: RandomState,
    newest: HashMap<u64, u32>,
    older: Vec<u32>,
}

impl PropIndex {
    /// Indexes every row of `prop` in `table`.
    pub(crate) fn build(table: &PropertyTable, prop: PropId) -> Self {
        let mut index = Self::default();
        for slot in 0..table.row_count() {
            index.insert(slot, &table.get(slot, prop));
        }
        index
    }

    /// Adds vertex slot `slot` holding `value`; slots arrive in ascending
    /// order.
    pub(crate) fn insert(&mut self, slot: usize, value: &Value) {
        if value.is_null() {
            return;
        }
        assert!(slot < END as usize, "vertex slots fit in u32");
        if self.older.len() <= slot {
            self.older.resize(slot + 1, END);
        }
        let prev = self.newest.insert(self.bucket(value), slot as u32);
        self.older[slot] = prev.unwrap_or(END);
    }

    /// Every slot whose value may equal `value`, newest first. Buckets
    /// can be shared by unequal values, so callers re-check each one.
    pub(crate) fn candidates(&self, value: &Value) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.newest.get(&self.bucket(value)).copied().unwrap_or(END);
        std::iter::from_fn(move || {
            (next != END).then(|| {
                let slot = next as usize;
                next = self.older[slot];
                slot
            })
        })
    }

    /// The bucket of a value. Values equal under [`Value::total_cmp`]
    /// share a bucket: numbers hash through their `f64` image, which
    /// `total_cmp` compares `Int`/`Date` against `Float` by. Property
    /// columns hold only scalars; any other value lands in some bucket
    /// and fails the re-check.
    fn bucket(&self, value: &Value) -> u64 {
        let mut h = self.seed.build_hasher();
        match value {
            Value::Int(i) | Value::Date(i) => (*i as f64).to_bits().hash(&mut h),
            Value::Float(f) => f.to_bits().hash(&mut h),
            Value::Str(s) => s.hash(&mut h),
            Value::Bool(b) => b.hash(&mut h),
            _ => {}
        }
        h.finish()
    }
}
