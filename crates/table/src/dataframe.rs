//! The in-memory columnar frame.

use crate::column::{CatColumn, Column};
use crate::error::{Result, TableError};
use crate::mask::Mask;
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::fmt;

/// An immutable-after-build, column-oriented table.
///
/// Built either with [`DataFrame::builder`], from CSV via
/// [`crate::csv::read_csv`], or by filtering an existing frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
    n_rows: usize,
}

impl DataFrame {
    /// Start building a frame.
    pub fn builder() -> DataFrameBuilder {
        DataFrameBuilder { cols: Vec::new() }
    }

    /// An empty frame with zero rows and zero columns.
    pub fn empty() -> DataFrame {
        DataFrame {
            names: Vec::new(),
            columns: Vec::new(),
            by_name: HashMap::new(),
            n_rows: 0,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True if the named column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Fetch a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.by_name
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| TableError::UnknownColumn(name.to_owned()))
    }

    /// Fetch a column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Fetch a categorical column by name; a non-categorical column is a
    /// typed [`TableError::TypeMismatch`] naming the offending column, not
    /// a panic.
    pub fn cat_column(&self, name: &str) -> Result<&CatColumn> {
        let col = self.column(name)?;
        col.as_cat().ok_or_else(|| TableError::TypeMismatch {
            column: name.to_owned(),
            expected: "categorical",
            actual: col.data_type().name(),
        })
    }

    /// Data type of a column.
    pub fn dtype(&self, name: &str) -> Result<DataType> {
        Ok(self.column(name)?.data_type())
    }

    /// Value at `(row, column)`.
    pub fn get(&self, row: usize, name: &str) -> Result<Value> {
        Ok(self.column(name)?.get(row))
    }

    /// New frame containing only the rows selected by `mask`.
    pub fn filter(&self, mask: &Mask) -> Result<DataFrame> {
        if mask.len() != self.n_rows {
            return Err(TableError::MaskLength {
                mask: mask.len(),
                rows: self.n_rows,
            });
        }
        let columns: Vec<Column> = self.columns.iter().map(|c| c.take(mask)).collect();
        Ok(DataFrame {
            names: self.names.clone(),
            columns,
            by_name: self.by_name.clone(),
            n_rows: mask.count(),
        })
    }

    /// New frame with only the named columns, in the given order.
    pub fn select<S: AsRef<str>>(&self, names: &[S]) -> Result<DataFrame> {
        let mut b = DataFrame::builder();
        for n in names {
            let n = n.as_ref();
            b = b.column(n, self.column(n)?.clone());
        }
        b.build()
    }

    /// New frame with `column` appended (or replacing an existing column of
    /// the same name).
    pub fn with_column(&self, name: &str, column: Column) -> Result<DataFrame> {
        if column.len() != self.n_rows && self.n_cols() > 0 {
            return Err(TableError::LengthMismatch {
                column: name.to_owned(),
                expected: column.len(),
                actual: self.n_rows,
            });
        }
        let mut out = self.clone();
        if let Some(&i) = out.by_name.get(name) {
            out.columns[i] = column;
        } else {
            out.by_name.insert(name.to_owned(), out.columns.len());
            out.names.push(name.to_owned());
            if out.columns.is_empty() {
                out.n_rows = column.len();
            }
            out.columns.push(column);
        }
        Ok(out)
    }

    /// Mean of a numeric column over `mask`.
    pub fn mean(&self, name: &str, mask: &Mask) -> Result<Option<f64>> {
        let col = self.column(name)?;
        if col.data_type() == DataType::Cat {
            return Err(TableError::TypeMismatch {
                column: name.to_owned(),
                expected: "numeric",
                actual: "categorical",
            });
        }
        Ok(col.mean(mask))
    }

    /// Group rows by the distinct values of a categorical/int/bool column,
    /// restricted to `within`. Returns `(value, mask)` pairs with
    /// deterministic ordering (dictionary order for categorical, ascending
    /// otherwise). Masks are full-length (`n_rows`).
    pub fn group_masks(&self, name: &str, within: &Mask) -> Result<Vec<(Value, Mask)>> {
        let col = self.column(name)?;
        match col {
            Column::Cat(c) => {
                let mut masks: Vec<Mask> = vec![Mask::zeros(self.n_rows); c.cardinality()];
                for i in within.iter_ones() {
                    masks[c.codes()[i] as usize].set(i, true);
                }
                Ok(c.dict()
                    .iter()
                    .zip(masks)
                    .filter(|(_, m)| m.any())
                    .map(|(v, m)| (Value::Str(v.clone()), m))
                    .collect())
            }
            _ => {
                let mut groups: std::collections::BTreeMap<Value, Mask> =
                    std::collections::BTreeMap::new();
                for i in within.iter_ones() {
                    groups
                        .entry(col.get(i))
                        .or_insert_with(|| Mask::zeros(self.n_rows))
                        .set(i, true);
                }
                Ok(groups.into_iter().collect())
            }
        }
    }

    /// The first `k` rows rendered as an ASCII table (for examples/debugging).
    pub fn head(&self, k: usize) -> String {
        let k = k.min(self.n_rows);
        let mut widths: Vec<usize> = self.names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(k);
        for r in 0..k {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(r).to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        for (i, n) in self.names.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", n, width = widths[i]));
        }
        out.push('\n');
        for row in cells {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DataFrame[{} rows x {} cols]",
            self.n_rows,
            self.n_cols()
        )
    }
}

/// Builder for [`DataFrame`]; returned by [`DataFrame::builder`].
pub struct DataFrameBuilder {
    cols: Vec<(String, Column)>,
}

impl DataFrameBuilder {
    /// Append a column.
    pub fn column(mut self, name: &str, col: Column) -> Self {
        self.cols.push((name.to_owned(), col));
        self
    }

    /// Append an integer column.
    pub fn int(self, name: &str, values: Vec<i64>) -> Self {
        self.column(name, Column::Int(values))
    }

    /// Append a float column.
    pub fn float(self, name: &str, values: Vec<f64>) -> Self {
        self.column(name, Column::Float(values))
    }

    /// Append a boolean column.
    pub fn bool(self, name: &str, values: Vec<bool>) -> Self {
        self.column(name, Column::Bool(values))
    }

    /// Append a categorical column from string values.
    pub fn cat<S: AsRef<str>>(self, name: &str, values: &[S]) -> Self {
        self.column(name, Column::Cat(CatColumn::from_values(values)))
    }

    /// Finish, validating shape invariants.
    pub fn build(self) -> Result<DataFrame> {
        let n_rows = self.cols.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut by_name = HashMap::with_capacity(self.cols.len());
        let mut names = Vec::with_capacity(self.cols.len());
        let mut columns = Vec::with_capacity(self.cols.len());
        for (i, (name, col)) in self.cols.into_iter().enumerate() {
            if col.len() != n_rows {
                return Err(TableError::LengthMismatch {
                    column: name,
                    expected: col.len(),
                    actual: n_rows,
                });
            }
            if by_name.insert(name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(name));
            }
            names.push(name);
            columns.push(col);
        }
        Ok(DataFrame {
            names,
            columns,
            by_name,
            n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::builder()
            .cat("country", &["US", "IN", "US", "DE", "IN"])
            .int("age", vec![25, 31, 40, 29, 22])
            .float("salary", vec![120.0, 30.0, 150.0, 90.0, 25.0])
            .bool("student", vec![false, false, false, true, true])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_shape() {
        let df = sample();
        assert_eq!(df.n_rows(), 5);
        assert_eq!(df.n_cols(), 4);
        assert_eq!(df.names(), &["country", "age", "salary", "student"]);
        assert!(df.has_column("age"));
        assert!(!df.has_column("missing"));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let err = DataFrame::builder()
            .int("a", vec![1, 2])
            .int("b", vec![1])
            .build()
            .unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = DataFrame::builder()
            .int("a", vec![1])
            .float("a", vec![2.0])
            .build()
            .unwrap_err();
        assert!(matches!(err, TableError::DuplicateColumn(_)));
    }

    #[test]
    fn filter_selects_rows() {
        let df = sample();
        let m = Mask::from_indices(5, &[0, 2]);
        let f = df.filter(&m).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(0, "country").unwrap(), Value::from("US"));
        assert_eq!(f.get(1, "salary").unwrap(), Value::Float(150.0));
    }

    #[test]
    fn filter_wrong_mask_len() {
        let df = sample();
        assert!(matches!(
            df.filter(&Mask::zeros(3)),
            Err(TableError::MaskLength { .. })
        ));
    }

    #[test]
    fn mean_and_type_enforcement() {
        let df = sample();
        let all = Mask::ones(5);
        assert_eq!(df.mean("salary", &all).unwrap(), Some(83.0));
        assert!(df.mean("country", &all).is_err());
    }

    #[test]
    fn group_masks_categorical() {
        let df = sample();
        let groups = df.group_masks("country", &Mask::ones(5)).unwrap();
        assert_eq!(groups.len(), 3);
        let (v, m) = &groups[0];
        assert_eq!(v, &Value::from("US"));
        assert_eq!(m.to_indices(), vec![0, 2]);
    }

    #[test]
    fn group_masks_respects_within() {
        let df = sample();
        let within = Mask::from_indices(5, &[1, 4]);
        let groups = df.group_masks("country", &within).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, Value::from("IN"));
        assert_eq!(groups[0].1.to_indices(), vec![1, 4]);
    }

    #[test]
    fn select_and_with_column() {
        let df = sample();
        let s = df.select(&["salary", "age"]).unwrap();
        assert_eq!(s.names(), &["salary", "age"]);
        let w = df
            .with_column("bonus", Column::Float(vec![1.0; 5]))
            .unwrap();
        assert_eq!(w.n_cols(), 5);
        // replacement keeps position
        let r = w.with_column("age", Column::Int(vec![0; 5])).unwrap();
        assert_eq!(r.get(0, "age").unwrap(), Value::Int(0));
        assert_eq!(r.names()[1], "age");
    }

    #[test]
    fn head_renders() {
        let df = sample();
        let s = df.head(2);
        assert!(s.contains("country") && s.contains("US"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn cat_column_type_errors_name_the_column() {
        let df = sample();
        assert!(df.cat_column("country").is_ok());
        let err = df.cat_column("age").unwrap_err();
        assert!(matches!(
            err,
            TableError::TypeMismatch { ref column, expected: "categorical", .. } if column == "age"
        ));
        assert!(err.to_string().contains("age"));
        assert!(matches!(
            df.cat_column("ghost").unwrap_err(),
            TableError::UnknownColumn(_)
        ));
    }
}
