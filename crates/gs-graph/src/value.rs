//! The property value model shared by the LPG storage backends and GraphIR.
//!
//! The paper's IR data model `D` supports primitive types (integer, float,
//! string), composite types (list), and graph-associated types (vertex, edge,
//! path). [`Value`] covers all of them so that one record representation can
//! flow through parsers, optimizer, and both execution engines.

use crate::ids::{EId, LabelId, VId};
use std::cmp::Ordering;
use std::fmt;

/// Type tag for a [`Value`]; used by schema property definitions and by the
/// IR type checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    Null,
    Bool,
    Int,
    Float,
    Str,
    /// Days since the epoch; LDBC SNB date columns use this.
    Date,
    List,
    Vertex,
    Edge,
    Path,
}

/// A dynamically-typed property/record value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Days since the epoch.
    Date(i64),
    List(Vec<Value>),
    /// A graph vertex reference (internal id + label).
    Vertex(VId, LabelId),
    /// A graph edge reference: (edge id, label, src, dst).
    Edge(EId, LabelId, VId, VId),
    /// A path: alternating vertices, stored as the vertex sequence.
    Path(Vec<VId>),
}

impl Value {
    /// Returns this value's type tag.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Date(_) => ValueType::Date,
            Value::List(_) => ValueType::List,
            Value::Vertex(..) => ValueType::Vertex,
            Value::Edge(..) => ValueType::Edge,
            Value::Path(_) => ValueType::Path,
        }
    }

    /// True when the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view, coercing booleans; `None` for other types.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float view, coercing integers; `None` for other types.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// String view; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Vertex id view; `None` if this is not a vertex.
    pub fn as_vertex(&self) -> Option<VId> {
        match self {
            Value::Vertex(v, _) => Some(*v),
            _ => None,
        }
    }

    /// Edge view; `None` if this is not an edge.
    pub fn as_edge(&self) -> Option<(EId, LabelId, VId, VId)> {
        match self {
            Value::Edge(e, l, s, d) => Some((*e, *l, *s, *d)),
            _ => None,
        }
    }

    /// Total ordering used by ORDER BY and GROUP keys.
    ///
    /// Nulls sort first; numeric types compare by exact value across Int/
    /// Float/Date (an integer equals a float only when the float holds
    /// exactly that integer; floats keep `f64::total_cmp`'s placement of
    /// ±0.0 and NaNs, with integer zero at +0.0); distinct non-comparable
    /// types order by their type tag so the ordering is total (required
    /// for stable sorts over mixed columns).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Int(a), Date(b)) | (Date(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a) | Date(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b) | Date(b)) => int_float_cmp(*b, *a).reverse(),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Vertex(a, _), Vertex(b, _)) => a.cmp(b),
            (Edge(a, ..), Edge(b, ..)) => a.cmp(b),
            (Path(a), Path(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// A hashable key form for GROUP BY / dedup. Floats hash by bit pattern.
    pub fn group_key(&self) -> GroupKey {
        GroupKey(self.clone())
    }
}

/// Exact order of an integer against a float. The integer sits where
/// `f64::total_cmp` would put its exact value: above every negative NaN,
/// below every positive one, and zero at +0.0 (so above -0.0). Rounding
/// the integer to f64 instead would make `2^53 + 1` equal `2^53 as f64`
/// while `2^53` equals it too, breaking transitivity.
fn int_float_cmp(i: i64, f: f64) -> Ordering {
    // 2^63: the least float above every i64; -2^63 is i64::MIN exactly
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    // in range, so the integral part converts exactly
    let whole = f.trunc();
    match i.cmp(&(whole as i64)) {
        Ordering::Equal if f > whole => Ordering::Less,
        Ordering::Equal if f < whole || (f == 0.0 && f.is_sign_negative()) => Ordering::Greater,
        c => c,
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Date(_) => 5,
        Value::List(_) => 6,
        Value::Vertex(..) => 7,
        Value::Edge(..) => 8,
        Value::Path(_) => 9,
    }
}

/// Wrapper giving [`Value`] `Eq + Hash` semantics for grouping (floats by bit
/// pattern, which is what SQL-style GROUP BY implementations do).
#[derive(Clone, Debug)]
pub struct GroupKey(pub Value);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for GroupKey {}

impl std::hash::Hash for GroupKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        hash_value(&self.0, state);
    }
}

fn hash_value<H: std::hash::Hasher>(v: &Value, state: &mut H) {
    use std::hash::Hash;
    match v {
        Value::Null => 0u8.hash(state),
        Value::Bool(b) => b.hash(state),
        // Int/Date/Float that compare equal must hash equal: normalise
        // integral values through i64 and fractional floats through bits.
        Value::Int(i) | Value::Date(i) => i.hash(state),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                (*f as i64).hash(state)
            } else {
                f.to_bits().hash(state)
            }
        }
        Value::Str(s) => s.hash(state),
        Value::List(l) => {
            for x in l {
                hash_value(x, state);
            }
        }
        Value::Vertex(id, _) => id.0.hash(state),
        Value::Edge(id, ..) => id.0.hash(state),
        Value::Path(p) => p.hash(state),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Vertex(v, l) => write!(f, "({:?}:{:?})", v, l),
            Value::Edge(e, l, s, d) => write!(f, "[{:?}:{:?} {:?}->{:?}]", e, l, s, d),
            Value::Path(p) => write!(f, "path{p:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Float(2.5).as_int(), None);
    }

    #[test]
    fn total_order_nulls_first() {
        let mut vals = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn cross_numeric_order() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn group_key_int_float_consistency() {
        // 3 and 3.0 compare equal, so they must hash equal.
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            GroupKey(v.clone()).hash(&mut s);
            s.finish()
        };
        assert_eq!(
            GroupKey(Value::Int(3)),
            GroupKey(Value::Float(3.0)),
            "eq must hold"
        );
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn display_round_trip_smoke() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
    }
}
