//! Region explanations (Section 5.2, "Real life users").
//!
//! "One research direction would be to explain why a region is interesting,
//! by charting the attributes of the subset versus those of the whole
//! database." This module implements that comparison: for a region of a map,
//! every attribute of the table is scored by how much its distribution inside
//! the region diverges from its distribution over the whole working set.
//!
//! * numeric attributes — standardised mean shift and the share of the
//!   region's values falling below the working set's median (a robust
//!   location-shift indicator);
//! * categorical attributes — total variation distance between the category
//!   distributions, plus the most over-represented category.
//!
//! The result is a ranked list of [`AttributeInsight`]s: the attributes at the
//! top are the ones that make the region "special", whether or not they appear
//! in the region's defining query.

use atlas_columnar::{Bitmap, ColumnView, DataType, Table};
use atlas_core::Region;
use atlas_stats::quantile::quantile;
use std::collections::BTreeMap;
use std::fmt;

/// How one attribute differs between a region and the reference population.
#[derive(Debug, Clone, PartialEq)]
pub enum InsightKind {
    /// A numeric attribute shifted in location.
    NumericShift {
        /// Mean inside the region.
        region_mean: f64,
        /// Mean over the reference population.
        reference_mean: f64,
        /// `(region_mean − reference_mean) / reference_std_dev` (0 when the
        /// reference is constant).
        standardized_shift: f64,
        /// Fraction of the region's values at or below the reference median.
        fraction_below_reference_median: f64,
    },
    /// A categorical attribute changed its mix of values.
    CategoricalShift {
        /// Total variation distance between the two category distributions,
        /// in `[0, 1]`.
        total_variation: f64,
        /// The category whose share grew the most inside the region.
        most_over_represented: String,
        /// Its share inside the region.
        region_share: f64,
        /// Its share in the reference population.
        reference_share: f64,
    },
}

/// The explanation entry for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeInsight {
    /// The attribute name.
    pub attribute: String,
    /// A divergence score in `[0, 1]`-ish scale used for ranking (higher =
    /// more surprising). Numeric shifts are squashed through `|z| / (1 + |z|)`
    /// so the two kinds are comparable.
    pub score: f64,
    /// The detailed comparison.
    pub kind: InsightKind,
}

impl fmt::Display for AttributeInsight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            InsightKind::NumericShift {
                region_mean,
                reference_mean,
                standardized_shift,
                ..
            } => write!(
                f,
                "{}: mean {:.2} vs {:.2} overall ({:+.2}σ)",
                self.attribute, region_mean, reference_mean, standardized_shift
            ),
            InsightKind::CategoricalShift {
                most_over_represented,
                region_share,
                reference_share,
                ..
            } => write!(
                f,
                "{}: '{}' makes up {:.0}% of the region vs {:.0}% overall",
                self.attribute,
                most_over_represented,
                region_share * 100.0,
                reference_share * 100.0
            ),
        }
    }
}

/// Explain a region against a reference selection (normally the working set
/// the map was computed on).
///
/// Returns one insight per attribute that could be compared, ranked by
/// decreasing divergence. Attributes with no data in either selection are
/// skipped.
pub fn explain_region(table: &Table, region: &Region, reference: &Bitmap) -> Vec<AttributeInsight> {
    explain_selection(table, &region.selection, reference)
}

/// Explain an arbitrary selection against a reference selection.
pub fn explain_selection(
    table: &Table,
    selection: &Bitmap,
    reference: &Bitmap,
) -> Vec<AttributeInsight> {
    let mut insights = Vec::new();
    for field in table.schema().fields() {
        let column = match table.column(&field.name) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let insight = match field.dtype {
            DataType::Int | DataType::Float => {
                numeric_insight(&field.name, column, selection, reference)
            }
            DataType::Str | DataType::Bool => {
                categorical_insight(&field.name, column, selection, reference)
            }
        };
        if let Some(insight) = insight {
            insights.push(insight);
        }
    }
    insights.sort_by(|a, b| b.score.total_cmp(&a.score));
    insights
}

fn numeric_insight(
    name: &str,
    column: ColumnView<'_>,
    selection: &Bitmap,
    reference: &Bitmap,
) -> Option<AttributeInsight> {
    let region_values = column.numeric_values_where(selection);
    let reference_values = column.numeric_values_where(reference);
    if region_values.is_empty() || reference_values.is_empty() {
        return None;
    }
    let region_mean = mean(&region_values);
    let reference_mean = mean(&reference_values);
    let reference_std = std_dev(&reference_values);
    let standardized_shift = if reference_std > f64::EPSILON {
        (region_mean - reference_mean) / reference_std
    } else {
        0.0
    };
    let reference_median = quantile(&reference_values, 0.5).unwrap_or(reference_mean);
    let below = region_values
        .iter()
        .filter(|&&v| v <= reference_median)
        .count() as f64
        / region_values.len() as f64;
    let score = standardized_shift.abs() / (1.0 + standardized_shift.abs());
    Some(AttributeInsight {
        attribute: name.to_string(),
        score,
        kind: InsightKind::NumericShift {
            region_mean,
            reference_mean,
            standardized_shift,
            fraction_below_reference_median: below,
        },
    })
}

fn categorical_insight(
    name: &str,
    column: ColumnView<'_>,
    selection: &Bitmap,
    reference: &Bitmap,
) -> Option<AttributeInsight> {
    let region_counts = column.categories_by_frequency(selection);
    let reference_counts = column.categories_by_frequency(reference);
    if region_counts.is_empty() || reference_counts.is_empty() {
        return None;
    }
    let region_total: usize = region_counts.iter().map(|(_, n)| n).sum();
    let reference_total: usize = reference_counts.iter().map(|(_, n)| n).sum();
    let region_share: BTreeMap<&str, f64> = region_counts
        .iter()
        .map(|(v, n)| (v.as_str(), *n as f64 / region_total as f64))
        .collect();
    let reference_share: BTreeMap<&str, f64> = reference_counts
        .iter()
        .map(|(v, n)| (v.as_str(), *n as f64 / reference_total as f64))
        .collect();
    let mut total_variation = 0.0f64;
    let mut best: Option<(&str, f64, f64)> = None;
    for (value, &ref_share) in &reference_share {
        let reg_share = region_share.get(value).copied().unwrap_or(0.0);
        total_variation += (reg_share - ref_share).abs();
        let lift = reg_share - ref_share;
        if best.is_none_or(|(_, best_lift, _)| lift > best_lift) {
            best = Some((value, lift, ref_share));
        }
    }
    // Categories that appear only in the region also contribute.
    for (value, &reg_share) in &region_share {
        if !reference_share.contains_key(value) {
            total_variation += reg_share;
            if best.is_none_or(|(_, best_lift, _)| reg_share > best_lift) {
                best = Some((value, reg_share, 0.0));
            }
        }
    }
    let total_variation = (total_variation / 2.0).clamp(0.0, 1.0);
    let (winner, _, winner_ref_share) = best?;
    let winner_region_share = region_share.get(winner).copied().unwrap_or(0.0);
    Some(AttributeInsight {
        attribute: name.to_string(),
        score: total_variation,
        kind: InsightKind::CategoricalShift {
            total_variation,
            most_over_represented: winner.to_string(),
            region_share: winner_region_share,
            reference_share: winner_ref_share,
        },
    })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn std_dev(values: &[f64]) -> f64 {
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{Atlas, AtlasConfig};
    use atlas_datagen::CensusGenerator;
    use atlas_query::ConjunctiveQuery;
    use std::sync::Arc;

    fn census() -> Arc<atlas_columnar::Table> {
        Arc::new(CensusGenerator::with_rows(6_000, 31).generate())
    }

    #[test]
    fn explains_a_high_salary_region() {
        // Select the high-salary rows by hand and explain them: education
        // should surface as the most shifted categorical attribute even though
        // the selection was defined on salary alone.
        let table = census();
        let all = table.full_selection();
        let rich = table
            .column("salary")
            .unwrap()
            .select_in(&all, &[">50k".to_string()]);
        let insights = explain_selection(&table, &rich, &all);
        assert!(!insights.is_empty());
        let education = insights
            .iter()
            .find(|i| i.attribute == "education")
            .expect("education insight exists");
        match &education.kind {
            InsightKind::CategoricalShift {
                most_over_represented,
                region_share,
                reference_share,
                total_variation,
            } => {
                assert!(
                    most_over_represented == "MSc" || most_over_represented == "PhD",
                    "got {most_over_represented}"
                );
                assert!(region_share > reference_share);
                assert!(*total_variation > 0.1);
            }
            other => panic!("expected a categorical shift, got {other:?}"),
        }
        // Education must rank above the independent eye colour.
        let edu_pos = insights
            .iter()
            .position(|i| i.attribute == "education")
            .unwrap();
        let eye_pos = insights
            .iter()
            .position(|i| i.attribute == "eye_color")
            .unwrap();
        assert!(edu_pos < eye_pos);
        // The eye colour shift itself is small.
        assert!(insights[eye_pos].score < 0.1);
    }

    #[test]
    fn explains_numeric_shift_for_retirees() {
        let table = census();
        let all = table.full_selection();
        let retirees = table.column("age").unwrap().select_range(&all, 65.0, 200.0);
        let insights = explain_selection(&table, &retirees, &all);
        let hours = insights
            .iter()
            .find(|i| i.attribute == "hours_per_week")
            .expect("hours insight exists");
        match &hours.kind {
            InsightKind::NumericShift {
                region_mean,
                reference_mean,
                standardized_shift,
                fraction_below_reference_median,
            } => {
                assert!(region_mean < reference_mean);
                assert!(*standardized_shift < -0.5);
                assert!(*fraction_below_reference_median > 0.8);
            }
            other => panic!("expected a numeric shift, got {other:?}"),
        }
        assert!(hours.score > 0.3);
        // Display is human-readable.
        assert!(hours.to_string().contains("hours_per_week"));
    }

    #[test]
    fn explaining_regions_from_the_engine_works_end_to_end() {
        let table = census();
        let atlas = Atlas::new(Arc::clone(&table), AtlasConfig::default()).unwrap();
        let result = atlas.explore(&ConjunctiveQuery::all("census")).unwrap();
        let best = result.best().unwrap();
        for region in &best.map.regions {
            let insights = explain_region(&table, region, &result.working_set);
            assert!(!insights.is_empty());
            // Scores are sorted descending and all finite.
            for pair in insights.windows(2) {
                assert!(pair[0].score >= pair[1].score);
            }
            for insight in &insights {
                assert!(insight.score.is_finite());
                assert!((0.0..=1.0).contains(&insight.score));
            }
        }
    }

    #[test]
    fn empty_selection_produces_no_insights() {
        let table = census();
        let empty = Bitmap::new_empty(table.num_rows());
        let all = table.full_selection();
        assert!(explain_selection(&table, &empty, &all).is_empty());
    }

    #[test]
    fn identical_selection_scores_near_zero() {
        let table = census();
        let all = table.full_selection();
        let insights = explain_selection(&table, &all, &all);
        for insight in insights {
            assert!(insight.score < 1e-9, "{insight:?}");
        }
    }
}
