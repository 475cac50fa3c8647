//! Scalar values and data types.
//!
//! A [`Value`] is one cell of a table: an integer, float, boolean, categorical
//! string, or null. Values are the currency of predicates ([`crate::Predicate`])
//! and of row access.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats.
    Float,
    /// Booleans.
    Bool,
    /// Dictionary-encoded categorical strings.
    Cat,
}

impl DataType {
    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Bool => "bool",
            DataType::Cat => "categorical",
        }
    }

    /// Whether the type is ordered numerically (ints and floats).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scalar cell.
///
/// `Value` implements a total order that is only meaningful within a type:
/// numeric values compare numerically across `Int`/`Float`, strings compare
/// lexicographically, and `Null` sorts first. Cross-type comparisons between
/// non-numeric kinds fall back to a stable arbitrary order so that values can
/// be used as BTreeMap keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Categorical string.
    Str(String),
}

impl Value {
    /// The type this value naturally belongs to; `None` for nulls.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Cat),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints and floats as `f64`, bools as 0/1, otherwise `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// String view for categorical values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different kinds stably.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind_rank().hash(state);
        match self {
            Value::Null => {}
            // Numbers hash by the bits of their value as an `f64`, which is
            // what `cmp` compares: `Int(1) == Float(1.0)` hash alike.
            Value::Int(v) => (*v as f64).to_bits().hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => f.write_str(s),
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
        Value::Str(v.to_owned())
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

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(-1.0) < Value::Int(0));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn string_order_is_lexicographic() {
        assert!(Value::from("apple") < Value::from("banana"));
        assert_eq!(Value::from("x"), Value::from("x"));
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(Value::Int(4).as_f64(), Some(4.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::from("hi").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn display_round_trip_readable() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("US").to_string(), "US");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn hash_consistent_with_eq_for_int_float() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        // Same-kind equal values hash equal.
        assert_eq!(h(&Value::from("a")), h(&Value::from("a")));
        assert_eq!(h(&Value::Int(5)), h(&Value::Int(5)));
        // So do equal numbers of different kinds.
        for (i, f) in [(1, 1.0), (0, 0.0), (-7, -7.0), (1 << 40, 2f64.powi(40))] {
            assert_eq!(Value::Int(i), Value::Float(f));
            assert_eq!(h(&Value::Int(i)), h(&Value::Float(f)), "{i} vs {f}");
        }
        // A map keyed by a predicate on `x = 1` finds `x = 1.0`.
        let key = |v| crate::Predicate::eq("x", v);
        let map: std::collections::HashMap<_, _> = [(key(Value::Int(1)), "one")].into();
        assert_eq!(map.get(&key(Value::Float(1.0))), Some(&"one"));
    }

    #[test]
    fn data_type_properties() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Cat.is_numeric());
        assert_eq!(DataType::Cat.name(), "categorical");
    }
}
