//! `rumble-core` — a Rust reproduction of **Rumble**, the JSONiq engine of
//! "Rumble: Data Independence for Large Messy Data Sets" (VLDB 2020).
//!
//! Rumble executes JSONiq queries over large, heterogeneous, nested JSON
//! collections on top of a Spark-like substrate ([`sparklite`]), hiding
//! RDDs and DataFrames entirely behind a clean data model (sequences of
//! items) and a declarative language. The two mappings at the heart of the
//! paper are both here:
//!
//! * **expressions → RDD transformations** (§4.1, §5.6): expression runtime
//!   iterators expose a local pull API *and* an RDD API, switching
//!   seamlessly;
//! * **FLWOR clauses → DataFrames** (§4.3–§4.10): tuple streams become
//!   DataFrames whose columns hold item sequences, with each
//!   grouping/sorting key one native column (its cells' variants are the
//!   type tags) so the kernels can work on them.
//!
//! # Quick start
//!
//! ```
//! use rumble_core::Rumble;
//!
//! let rumble = Rumble::default_local();
//! rumble.hdfs_put("/data/people.json",
//!     "{\"name\": \"ana\", \"age\": 34}\n{\"name\": \"bob\", \"age\": 28}\n").unwrap();
//! let out = rumble.run(
//!     "for $p in json-file(\"hdfs:///data/people.json\")
//!      where $p.age ge 30
//!      return $p.name").unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].as_str(), Some("ana"));
//! ```

pub mod api;
pub mod compiler;
pub mod dist;
pub mod error;
pub mod flwor;
pub mod item;
pub mod runtime;
pub mod semantics;
pub mod syntax;

pub use api::{analyze, ProfileReport, Rumble};
pub use error::{Result, RumbleError};
pub use item::{Item, Sequence};
