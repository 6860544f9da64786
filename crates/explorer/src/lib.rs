//! # atlas-explorer
//!
//! The front-end layer of the Atlas reproduction: exploration sessions,
//! textual rendering of data maps, and map-quality metrics.
//!
//! The original prototype exposes Atlas through a Web GUI (Figure 6 of the
//! paper); every interaction that GUI supports is available here
//! programmatically:
//!
//! * [`session::Session`] — an exploration session over one table: submit a
//!   query, receive ranked maps, *drill down* into a region (its query becomes
//!   the next user query), go *back*, or ask for the next-best map. Its
//!   [`session::History`] — the steps and the answers they showed — also
//!   stands alone, for front-ends that answer steps elsewhere.
//! * [`render`] — plain-text rendering of maps and results, in
//!   the style of the paper's figures.
//! * [`metrics`] — readability and quality metrics used by the evaluation:
//!   region counts, predicates per query, balance, and cluster recovery
//!   against planted ground truth.
//! * [`explain`] — region explanations (Section 5.2): which attributes make a
//!   region differ from the rest of the working set.

#![warn(missing_docs)]

pub mod explain;
pub mod metrics;
pub mod render;
pub mod session;

pub use explain::{explain_region, explain_selection, AttributeInsight, InsightKind};
pub use metrics::{MapQuality, ReadabilityReport};
pub use render::{render_map, render_result};
pub use session::{ExplorationStep, History, Session};
