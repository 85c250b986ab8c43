//! `Value::total_cmp` is a total order across Int, Float and Date, and
//! `GroupKey`'s hash agrees with its equality — checked on values where
//! rounding an integer to f64 loses bits (near ±2^53 and ±2^63), with NaNs
//! of both signs, ±0.0, infinities and fractions.

use gs_graph::value::GroupKey;
use gs_graph::Value;
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const TWO_53: i64 = 1 << 53;

/// Integer anchors: zero, ±2^53 (the last point every integer is a float)
/// and the i64 ends (±2^63, where floats saturate).
const ANCHORS: [i64; 5] = [0, TWO_53, -TWO_53, i64::MAX, i64::MIN];

/// Floats no anchor walk reaches.
const SPECIAL: [f64; 9] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.5,
    -0.5,
    9_223_372_036_854_775_808.0, // 2^63, just past i64::MAX
];

/// `f` moved `steps` representable floats up (or down when negative).
fn ulps(mut f: f64, steps: i64) -> f64 {
    for _ in 0..steps.unsigned_abs() {
        f = if steps > 0 {
            f.next_up()
        } else {
            f.next_down()
        };
    }
    f
}

/// One numeric value: an Int, Date or Float within a few units (ints) or
/// ulps (floats) of an anchor, or a special float.
fn numeric() -> impl Strategy<Value = Value> {
    (
        0u8..4,
        0usize..ANCHORS.len(),
        -3i64..4,
        0usize..SPECIAL.len(),
    )
        .prop_map(|(kind, anchor, offset, special)| {
            let a = ANCHORS[anchor];
            match kind {
                0 => Value::Int(a.saturating_add(offset)),
                1 => Value::Date(a.saturating_add(offset)),
                2 => Value::Float(ulps(a as f64, offset)),
                _ => Value::Float(SPECIAL[special]),
            }
        })
}

fn hash(v: &Value) -> u64 {
    let mut s = DefaultHasher::new();
    GroupKey(v.clone()).hash(&mut s);
    s.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn numeric_order_is_total_and_hash_consistent(
        a in numeric(),
        b in numeric(),
        c in numeric(),
    ) {
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal, "reflexive: {:?}", a);
        let ab = a.total_cmp(&b);
        prop_assert_eq!(ab, b.total_cmp(&a).reverse(), "antisymmetric: {:?} {:?}", a, b);
        let bc = b.total_cmp(&c);
        let ac = a.total_cmp(&c);
        if ab != Ordering::Greater && bc != Ordering::Greater {
            prop_assert!(ac != Ordering::Greater, "transitive: {:?} <= {:?} <= {:?}", a, b, c);
            if ab == Ordering::Equal && bc == Ordering::Equal {
                prop_assert_eq!(ac, Ordering::Equal, "equality transitive: {:?} {:?} {:?}", a, b, c);
            }
        }
        if ab == Ordering::Equal {
            prop_assert_eq!(hash(&a), hash(&b), "equal values hash equal: {:?} {:?}", a, b);
            prop_assert!(GroupKey(a.clone()) == GroupKey(b.clone()));
        }
    }
}

/// The rounding case: 2^53 + 1 is not a float, so no float equals it.
#[test]
fn integers_past_2_pow_53_are_not_equal_to_their_rounding() {
    let f = Value::Float(TWO_53 as f64);
    assert_eq!(Value::Int(TWO_53).total_cmp(&f), Ordering::Equal);
    assert_eq!(Value::Int(TWO_53 + 1).total_cmp(&f), Ordering::Greater);
    assert_eq!(f.total_cmp(&Value::Int(TWO_53 + 1)), Ordering::Less);
    assert_eq!(Value::Date(TWO_53 - 1).total_cmp(&f), Ordering::Less);
    // i64::MAX rounds up to 2^63, which no i64 reaches
    assert_eq!(
        Value::Int(i64::MAX).total_cmp(&Value::Float(i64::MAX as f64)),
        Ordering::Less
    );
    assert_eq!(
        Value::Int(i64::MIN).total_cmp(&Value::Float(i64::MIN as f64)),
        Ordering::Equal
    );
}

/// Zero and NaNs keep `f64::total_cmp`'s placement.
#[test]
fn zero_and_nan_keep_their_float_places() {
    let int0 = Value::Int(0);
    assert_eq!(int0.total_cmp(&Value::Float(0.0)), Ordering::Equal);
    assert_eq!(int0.total_cmp(&Value::Float(-0.0)), Ordering::Greater);
    assert_eq!(
        Value::Int(-1).total_cmp(&Value::Float(-0.0)),
        Ordering::Less
    );
    assert_eq!(int0.total_cmp(&Value::Float(f64::NAN)), Ordering::Less);
    assert_eq!(int0.total_cmp(&Value::Float(-f64::NAN)), Ordering::Greater);
    assert_eq!(
        Value::Int(i64::MAX).total_cmp(&Value::Float(f64::INFINITY)),
        Ordering::Less
    );
    assert_eq!(
        Value::Int(i64::MIN).total_cmp(&Value::Float(f64::NEG_INFINITY)),
        Ordering::Greater
    );
}
