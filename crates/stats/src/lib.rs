//! # atlas-stats
//!
//! Statistics substrate for the Atlas data-cartography engine.
//!
//! The map-generation framework of "Fast Cartography for Data Explorers"
//! (Sellam & Kersten, VLDB 2013) leans on a handful of statistical tools:
//!
//! * **Information theory** — the distance between two candidate maps is the
//!   statistical dependency of their underlying variables, quantified with
//!   mutual information or the Variation of Information ([`entropy`],
//!   [`contingency`]).
//! * **Quantiles** — the `CUT` primitive splits an attribute at the median (or
//!   other quantiles). The paper proposes one-pass sketches to approximate
//!   them on large columns; here they are exact, selected in O(n) or read off
//!   counted values ([`quantile`]).
//! * **One-dimensional clustering** — the alternative cutting strategy that
//!   maximises within-partition homogeneity ([`kmeans1d`]).
//! * **Agreement scores** — the evaluation compares recovered partitions to
//!   planted ground truth (ARI, purity, NMI) ([`agreement`]).

#![warn(missing_docs)]

pub mod agreement;
pub mod contingency;
pub mod entropy;
pub mod kmeans1d;
pub mod quantile;

pub use agreement::{adjusted_rand_index, normalized_mutual_information, purity};
pub use contingency::ContingencyTable;
pub use entropy::{
    entropy_of_counts, joint_entropy, mutual_information, normalized_vi, variation_of_information,
};
pub use kmeans1d::{kmeans_1d, KMeans1dResult};
pub use quantile::{median, quantiles};
