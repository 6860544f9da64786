//! Plain-text rendering of data maps.
//!
//! The renderings follow the style of the paper's figures: one block per
//! region, listing the region's predicates in `Attribute: set` form, plus the
//! cover so the user can see at a glance how the working set is distributed.

use atlas_core::{DataMap, MapResult};
use atlas_query::to_compact;
use std::fmt::Write as _;

/// Render one map as indented plain text.
pub fn render_map(map: &DataMap, working_set_size: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Map on [{}] — {} regions, entropy {:.3} bits",
        map.source_attributes.join(", "),
        map.num_regions(),
        map.entropy()
    );
    for (i, region) in map.regions.iter().enumerate() {
        let cover = region.cover(working_set_size);
        let _ = writeln!(
            out,
            "  region {i}: {} tuples ({:.1}% of the working set)",
            region.count(),
            cover * 100.0
        );
        for line in to_compact(&region.query).lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out
}

/// Render a whole exploration result (all ranked maps) as plain text.
pub fn render_result(result: &MapResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} map(s) over a working set of {} tuples (generated in {:.1} ms)",
        result.num_maps(),
        result.working_set_size,
        result.timings.total_ms
    );
    for (rank, ranked) in result.maps.iter().enumerate() {
        let _ = writeln!(out, "#{rank} (score {:.3}):", ranked.score);
        out.push_str(&render_map(&ranked.map, result.working_set_size));
    }
    if !result.skipped_attributes.is_empty() {
        let _ = writeln!(
            out,
            "skipped attributes: {}",
            result.skipped_attributes.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::{Atlas, AtlasConfig};
    use atlas_datagen::CensusGenerator;
    use atlas_query::ConjunctiveQuery;
    use std::sync::Arc;

    fn result() -> MapResult {
        let table = Arc::new(CensusGenerator::with_rows(1500, 9).generate());
        let atlas = Atlas::new(table, AtlasConfig::default()).unwrap();
        atlas.explore(&ConjunctiveQuery::all("census")).unwrap()
    }

    #[test]
    fn plain_text_rendering_mentions_regions_and_covers() {
        let r = result();
        let text = render_result(&r);
        assert!(text.contains("working set of 1500 tuples"));
        assert!(text.contains("region 0"));
        assert!(text.contains('%'));
        assert!(text.contains("Map on ["));
        // Every map of the result is rendered.
        for ranked in &r.maps {
            for attr in &ranked.map.source_attributes {
                assert!(text.contains(attr.as_str()));
            }
        }
    }

    #[test]
    fn best_map_rendering() {
        let r = result();
        let best = render_map(&r.best().unwrap().map, r.working_set_size);
        assert!(best.contains("regions"));
        // Rendering a single map agrees with rendering through the result.
        assert!(render_result(&r).contains(best.lines().next().unwrap()));
    }
}
