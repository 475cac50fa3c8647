//! Typed columns.
//!
//! Columns are dense vectors with an optional validity mask. Categorical
//! columns are dictionary-encoded: the column stores `u32` codes into a
//! per-column dictionary of distinct strings, so predicate evaluation compares
//! integers rather than strings.

use crate::mask::Mask;
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// A dictionary-encoded categorical column.
#[derive(Debug, Clone, PartialEq)]
pub struct CatColumn {
    /// Per-row dictionary codes.
    codes: Vec<u32>,
    /// Distinct values; `codes[i]` indexes into this.
    dict: Vec<String>,
    /// Reverse lookup from value to code.
    index: HashMap<String, u32>,
}

impl CatColumn {
    /// Build from string-ish values, constructing the dictionary on the fly.
    pub fn from_values<S: AsRef<str>>(values: &[S]) -> Self {
        let mut col = CatColumn {
            codes: Vec::with_capacity(values.len()),
            dict: Vec::new(),
            index: HashMap::new(),
        };
        for v in values {
            let code = col.intern(v.as_ref());
            col.codes.push(code);
        }
        col
    }

    /// Intern `value` and return its code.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&c) = self.index.get(value) {
            return c;
        }
        let c = self.dict.len() as u32;
        self.dict.push(value.to_owned());
        self.index.insert(value.to_owned(), c);
        c
    }

    /// Code for `value`, if present in the dictionary.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Value for `code`.
    pub fn value_of(&self, code: u32) -> &str {
        &self.dict[code as usize]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values seen.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Raw code slice.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Dictionary slice.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Take the rows selected by `mask` into a new column (dictionary shared).
    fn take(&self, mask: &Mask) -> CatColumn {
        let codes: Vec<u32> = mask.iter_ones().map(|i| self.codes[i]).collect();
        CatColumn {
            codes,
            dict: self.dict.clone(),
            index: self.index.clone(),
        }
    }
}

/// A typed column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Dictionary-encoded categorical strings.
    Cat(CatColumn),
}

impl Column {
    /// Physical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Bool(_) => DataType::Bool,
            Column::Cat(_) => DataType::Cat,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Cat(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Categorical view of the column, or `None` for other types.
    ///
    /// Callers that know the column's name should prefer
    /// [`DataFrame::cat_column`](crate::dataframe::DataFrame::cat_column),
    /// whose error names the offending column.
    pub fn as_cat(&self) -> Option<&CatColumn> {
        match self {
            Column::Cat(c) => Some(c),
            _ => None,
        }
    }

    /// Value at row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Cat(c) => Value::Str(c.value_of(c.codes()[i]).to_owned()),
        }
    }

    /// Numeric view of row `i` (ints, floats, bools as 0/1).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        match self {
            Column::Int(v) => Some(v[i] as f64),
            Column::Float(v) => Some(v[i]),
            Column::Bool(v) => Some(if v[i] { 1.0 } else { 0.0 }),
            Column::Cat(_) => None,
        }
    }

    /// Distinct values: dictionary order (first appearance) for categorical
    /// columns, ascending order for numeric and boolean columns.
    pub fn unique(&self) -> Vec<Value> {
        match self {
            Column::Cat(c) => c.dict.iter().map(|s| Value::Str(s.clone())).collect(),
            _ => {
                // Numeric/bool uniques come back in ascending order, which is
                // what binning and deterministic iteration both want.
                let seen: std::collections::BTreeSet<Value> =
                    (0..self.len()).map(|i| self.get(i)).collect();
                seen.into_iter().collect()
            }
        }
    }

    /// Rows selected by `mask`, as a new column.
    ///
    /// # Panics
    /// Panics if `mask.len() != self.len()`.
    pub fn take(&self, mask: &Mask) -> Column {
        assert_eq!(mask.len(), self.len(), "mask/column length mismatch");
        match self {
            Column::Int(v) => Column::Int(mask.iter_ones().map(|i| v[i]).collect()),
            Column::Float(v) => Column::Float(mask.iter_ones().map(|i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(mask.iter_ones().map(|i| v[i]).collect()),
            Column::Cat(c) => Column::Cat(c.take(mask)),
        }
    }

    /// Mean of the selected rows; `None` for categorical columns or an empty
    /// selection.
    pub fn mean(&self, mask: &Mask) -> Option<f64> {
        let n = mask.count();
        if n == 0 {
            return None;
        }
        let sum: f64 = match self {
            Column::Int(v) => mask.iter_ones().map(|i| v[i] as f64).sum(),
            Column::Float(v) => mask.iter_ones().map(|i| v[i]).sum(),
            Column::Bool(v) => mask.iter_ones().filter(|&i| v[i]).count() as f64,
            Column::Cat(_) => return None,
        };
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_column_interns() {
        let c = CatColumn::from_values(&["a", "b", "a", "c", "b"]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.cardinality(), 3);
        assert_eq!(c.code_of("a"), Some(0));
        assert_eq!(c.code_of("c"), Some(2));
        assert_eq!(c.code_of("zzz"), None);
        assert_eq!(c.value_of(1), "b");
        assert_eq!(c.codes(), &[0, 1, 0, 2, 1]);
    }

    #[test]
    fn column_get_and_types() {
        let c = Column::Int(vec![1, 2, 3]);
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.get(1), Value::Int(2));
        let c = Column::Cat(CatColumn::from_values(&["x", "y"]));
        assert_eq!(c.get(0), Value::from("x"));
        assert_eq!(c.get_f64(0), None);
        let c = Column::Bool(vec![true, false]);
        assert_eq!(c.get_f64(0), Some(1.0));
    }

    #[test]
    fn take_selects_rows() {
        let c = Column::Float(vec![1.0, 2.0, 3.0, 4.0]);
        let m = Mask::from_indices(4, &[1, 3]);
        assert_eq!(c.take(&m), Column::Float(vec![2.0, 4.0]));
        let c = Column::Cat(CatColumn::from_values(&["a", "b", "c", "d"]));
        let cc = c.take(&m);
        let cc = cc.as_cat().expect("take preserves the categorical type");
        assert_eq!(cc.len(), 2);
        assert_eq!(cc.value_of(cc.codes()[0]), "b");
        assert_eq!(cc.value_of(cc.codes()[1]), "d");
    }

    #[test]
    fn as_cat_is_fallible_not_panicking() {
        assert!(Column::Int(vec![1]).as_cat().is_none());
        assert!(Column::Cat(CatColumn::from_values(&["x"]))
            .as_cat()
            .is_some());
    }

    #[test]
    fn mean_over_mask() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        let m = Mask::from_indices(4, &[0, 3]);
        assert_eq!(c.mean(&m), Some(25.0));
        assert_eq!(c.mean(&Mask::zeros(4)), None);
        let b = Column::Bool(vec![true, true, false, false]);
        assert_eq!(b.mean(&Mask::ones(4)), Some(0.5));
        let cat = Column::Cat(CatColumn::from_values(&["a"; 4]));
        assert_eq!(cat.mean(&Mask::ones(4)), None);
    }

    #[test]
    fn unique_first_appearance_order() {
        let c = Column::Cat(CatColumn::from_values(&["b", "a", "b", "c"]));
        assert_eq!(
            c.unique(),
            vec![Value::from("b"), Value::from("a"), Value::from("c")]
        );
        let c = Column::Int(vec![3, 1, 3, 2]);
        // numeric unique is sorted-set based; order is ascending by value
        assert_eq!(
            c.unique(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }
}
