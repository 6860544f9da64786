//! # atlas-columnar
//!
//! A small, self-contained, in-memory columnar storage engine. It plays the role
//! that MonetDB plays in the original Atlas prototype ("Fast Cartography for Data
//! Explorers", Sellam & Kersten, VLDB 2013): it stores relations column-wise,
//! answers per-attribute scans restricted by a selection, counts covers, and
//! exposes per-column statistics.
//!
//! Storage is **segmented**: a [`Table`] is an ordered list of immutable
//! [`Segment`]s (contiguous row ranges, each with its own columns), shared
//! individually by `Arc`. Appending data creates a new table that reuses
//! every existing segment, so continuously ingesting workloads extend state
//! instead of invalidating it. All scan kernels ([`ColumnView`]) operate
//! per-segment in global row coordinates and are bit-for-bit independent of
//! the segment layout; the layout is controlled by `ATLAS_SEGMENT_ROWS`
//! ([`segment::default_segment_rows`]).
//!
//! ## One scan surface
//!
//! [`Column`] **stores** (`push`, `value`, `len`, `null_count`, …; nothing on
//! it takes a selection), [`kernels`] **scans one part** (one segment-local
//! column at a row offset of the selection), and [`ColumnView`] **is the
//! method set** — over a table's segments, or over one column as the one-part
//! case ([`ColumnView::of_column`]). A new column encoding is taught to
//! `kernels.rs` and [`ColumnSummary::accumulate`] only.
//!
//! ## Key types
//!
//! * [`Value`] / [`DataType`] — the scalar type system (64-bit integers, 64-bit
//!   floats, dictionary-encoded strings, booleans).
//! * [`Column`] — a typed segment-local column with a null mask. There is one
//!   dictionary-coded representation — a dictionary, the narrowest of `u8` /
//!   `u16` / `u32` code lanes and the null mask — which every string column
//!   holds ([`column::DictColumn`], first-appearance dictionary) and a sealed
//!   numeric column with few distinct values takes instead of 8-byte values
//!   (sorted dictionary) ([`Encoding`], [`mod@column`]).
//! * [`Segment`] — an immutable row range: one column per field; sealing one
//!   is where each column's representation is chosen.
//! * [`ColumnView`] — one schema column across every segment of a table; all
//!   selection / partition / statistics kernels live here.
//! * [`Bitmap`] — a packed selection vector over the table's global rows,
//!   used to represent query results and region extents.
//! * [`Schema`] / [`Field`] — relation schemas.
//! * [`Table`] — an immutable relation (schema + segments), built through a
//!   segment-sealing [`TableBuilder`] or streamed from CSV.
//! * [`ColumnStats`] — per-column summary statistics (min/max, nulls, exact
//!   distinct counts, per-value counts for low-cardinality numeric columns),
//!   with [`colstats::ColumnSummary`] as the exactly-mergeable form — the
//!   only way statistics of two row sets combine.
//!
//! The partition/selection hot path runs word-parallel kernels (64 rows per
//! step — see [`kernels`]); `ATLAS_FORCE_SCALAR=1` routes it through the
//! bit-identical one-row-at-a-time reference implementation instead.

#![warn(missing_docs)]

pub mod bitmap;
pub mod builder;
pub mod colstats;
pub mod column;
pub mod csv;
pub mod error;
pub mod kernels;
pub mod schema;
pub mod segment;
pub mod table;
pub mod value;
pub mod view;

pub use bitmap::{Bitmap, PoolBypass};
pub use builder::TableBuilder;
pub use colstats::{ColumnStats, ColumnSummary, DistinctValues, SummaryParts};
pub use column::{Column, Encoding, PrimitiveColumn};
pub use error::{ColumnarError, Result};
pub use kernels::{active_kernel_path, force_scalar, with_kernel_path, KernelPath};
pub use schema::{Field, Schema};
pub use segment::{default_segment_rows, Segment};
pub use table::Table;
pub use value::{DataType, Value};
pub use view::{merge_category_counts, rank_categories_by_frequency, ColumnView};
