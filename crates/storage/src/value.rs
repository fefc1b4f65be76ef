//! Runtime values stored in tables and produced by queries.
//!
//! The paper's travel scenario needs integers, strings, dates (flight dates,
//! arrival days, `SET @StayLength = '2011-05-06' - @ArrivalDay` performs date
//! arithmetic) and booleans. All variants are totally ordered and hashable so
//! they can serve as join keys, index keys and unification constants in the
//! entangled-query engine.

use std::fmt;

/// A single column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Sorts before everything else; equal only to itself here
    /// (we use identity semantics, not three-valued logic, because the
    /// paper's dialect never compares NULLs).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Calendar date, stored as days since 1970-01-01.
    Date(i32),
    /// UTF-8 string.
    Str(String),
    /// Composite value: the key form of a multi-column index entry.
    /// Derived `Ord` compares element-wise, so a tuple sorts before every
    /// tuple it is a proper prefix of — which is exactly the property
    /// prefix range scans over composite btree keys rely on.
    Tuple(Vec<Value>),
}

impl Value {
    /// The type tag of this value, for schema checking.
    pub fn ty(&self) -> ValueType {
        match self {
            Value::Null => ValueType::Null,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Date(_) => ValueType::Date,
            Value::Str(_) => ValueType::Str,
            Value::Tuple(_) => ValueType::Tuple,
        }
    }

    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Parse an ISO `YYYY-MM-DD` date into a [`Value::Date`].
    ///
    /// Uses a proleptic-Gregorian day count; good for the full i32 range of
    /// years the workloads use.
    pub fn parse_date(s: &str) -> Option<Value> {
        let mut it = s.split('-');
        let y: i64 = it.next()?.parse().ok()?;
        let m: i64 = it.next()?.parse().ok()?;
        let d: i64 = it.next()?.parse().ok()?;
        if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return None;
        }
        Some(Value::Date(days_from_civil(y, m, d) as i32))
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date accessor (days since epoch).
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Subtraction as used by `SET @StayLength = date1 - date2`:
    /// date − date = int (days), int − int = int, date − int = date.
    pub fn sub(&self, rhs: &Value) -> Option<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a - b)),
            (Value::Date(a), Value::Date(b)) => Some(Value::Int((*a as i64) - (*b as i64))),
            (Value::Date(a), Value::Int(b)) => Some(Value::Date(a - *b as i32)),
            _ => None,
        }
    }

    /// Addition: int + int = int, date + int = date, int + date = date.
    pub fn add(&self, rhs: &Value) -> Option<Value> {
        match (self, rhs) {
            (Value::Int(a), Value::Int(b)) => Some(Value::Int(a + b)),
            (Value::Date(a), Value::Int(b)) => Some(Value::Date(a + *b as i32)),
            (Value::Int(a), Value::Date(b)) => Some(Value::Date(b + *a as i32)),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Date(d) => {
                let (y, m, dd) = civil_from_days(*d as i64);
                write!(f, "{y:04}-{m:02}-{dd:02}")
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
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
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Type tags for schema declarations and checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Null,
    Bool,
    Int,
    Date,
    Str,
    Tuple,
}

impl ValueType {
    /// Whether a value of type `v` may be stored in a column of this type.
    /// NULL is storable anywhere (columns are implicitly nullable).
    pub fn accepts(&self, v: ValueType) -> bool {
        v == ValueType::Null || *self == v
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Null => "NULL",
            ValueType::Bool => "BOOL",
            ValueType::Int => "INT",
            ValueType::Date => "DATE",
            ValueType::Str => "TEXT",
            ValueType::Tuple => "TUPLE",
        };
        f.write_str(s)
    }
}

/// Days since 1970-01-01 for a proleptic Gregorian civil date
/// (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrip() {
        for s in [
            "1970-01-01",
            "2011-05-06",
            "2011-05-03",
            "1999-12-31",
            "2400-02-29",
        ] {
            let v = Value::parse_date(s).unwrap();
            assert_eq!(v.to_string(), s, "roundtrip {s}");
        }
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(Value::parse_date("1970-01-01"), Some(Value::Date(0)));
        assert_eq!(Value::parse_date("1970-01-02"), Some(Value::Date(1)));
    }

    #[test]
    fn bad_dates_rejected() {
        assert_eq!(Value::parse_date("2011-13-01"), None);
        assert_eq!(Value::parse_date("2011-00-01"), None);
        assert_eq!(Value::parse_date("2011-01-32"), None);
        assert_eq!(Value::parse_date("not-a-date"), None);
        assert_eq!(Value::parse_date("2011-01"), None);
        assert_eq!(Value::parse_date("2011-01-01-01"), None);
    }

    #[test]
    fn date_arithmetic() {
        let a = Value::parse_date("2011-05-03").unwrap();
        let b = Value::parse_date("2011-05-06").unwrap();
        assert_eq!(b.sub(&a), Some(Value::Int(3)));
        assert_eq!(a.add(&Value::Int(3)), Some(b.clone()));
        assert_eq!(b.sub(&Value::Int(3)), Some(a));
        assert_eq!(Value::Int(10).sub(&Value::Int(4)), Some(Value::Int(6)));
        assert_eq!(Value::str("x").sub(&Value::Int(1)), None);
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vs = [
            Value::str("b"),
            Value::Int(2),
            Value::Null,
            Value::Bool(true),
            Value::Date(5),
            Value::Int(1),
            Value::str("a"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        let ints: Vec<_> = vs.iter().filter_map(|v| v.as_int()).collect();
        assert_eq!(ints, vec![1, 2]);
    }

    #[test]
    fn type_acceptance() {
        assert!(ValueType::Int.accepts(ValueType::Int));
        assert!(ValueType::Int.accepts(ValueType::Null));
        assert!(!ValueType::Int.accepts(ValueType::Str));
        assert!(ValueType::Str.accepts(Value::str("x").ty()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::str("LA").to_string(), "LA");
    }

    #[test]
    fn tuple_prefix_sorts_before_extensions() {
        // The composite-key invariant: `(a)` < `(a, x)` for every `x`, and
        // tuples order lexicographically by component.
        let prefix = Value::Tuple(vec![Value::Int(5)]);
        let low = Value::Tuple(vec![Value::Int(5), Value::Null]);
        let high = Value::Tuple(vec![Value::Int(5), Value::str("zz")]);
        let next = Value::Tuple(vec![Value::Int(6)]);
        assert!(prefix < low && low < high && high < next);
        assert_eq!(
            Value::Tuple(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "(1, 2)"
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(Value::Date(3).as_date(), Some(3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }
}
