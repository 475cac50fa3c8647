//! # faircap-table
//!
//! Columnar in-memory table substrate for the FairCap reproduction.
//!
//! The paper's reference implementation sits on pandas; this crate provides
//! the equivalent layer from scratch:
//!
//! * [`DataFrame`] — dictionary-encoded columnar frames with typed columns
//!   ([`Column`]) and cheap row filtering through bitset [`Mask`]s.
//! * [`Predicate`] / [`Pattern`] — the paper's Definition 4.1 conjunctive
//!   patterns, with [`Pattern::coverage`] implementing Definition 4.2.
//! * [`csv`] — CSV I/O with type inference, used by examples and the
//!   benchmark harness to persist generated datasets.
//! * [`stats`] — special functions and hypothesis tests (Welch t, χ², G²)
//!   shared by the CATE estimators and the PC discovery algorithm.
//! * [`cache`] — the sharded, bounded LRU cache backing the CATE estimate
//!   cache (`faircap-causal`) and the grouping-pattern cache
//!   (`faircap-core`).
//!
//! ```
//! use faircap_table::{DataFrame, Pattern, Value};
//!
//! let df = DataFrame::builder()
//!     .cat("country", &["US", "IN", "US"])
//!     .int("age", vec![25, 31, 40])
//!     .build()
//!     .unwrap();
//! let p = Pattern::of_eq(&[("country", Value::from("US"))]);
//! assert_eq!(p.coverage(&df).unwrap().count(), 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod codes;
pub mod column;
pub mod csv;
pub mod dataframe;
pub mod error;
pub mod fnv;
pub mod mask;
pub mod pattern;
pub mod predicate;
pub mod stats;
pub mod value;

pub use cache::{CacheCounters, ShardedLruCache};
pub use codes::Codes;
pub use column::{CatColumn, Column};
pub use dataframe::{DataFrame, DataFrameBuilder, LevelMasks};
pub use error::{Result, TableError};
pub use fnv::{frame_fingerprint, FnvHasher};
pub use mask::{Mask, MaskView};
pub use pattern::Pattern;
pub use predicate::{CmpOp, Predicate};
pub use value::{DataType, Value};
