//! A multi-step exploration session over the census survey.
//!
//! Reproduces the interaction loop of Figure 1 / Figure 2 of the paper: the
//! analyst starts from the whole survey, receives several alternative maps of
//! the same data, drills into a region, and keeps going until the working set
//! is small enough to inspect directly. The session rides one prepared
//! engine, so every step after the first reuses the build-time column
//! statistics.
//!
//! Run with: `cargo run --release --example census_exploration`

use atlas::prelude::*;
use std::sync::Arc;

fn main() {
    let table = Arc::new(CensusGenerator::with_rows(50_000, 7).generate());
    let engine = Atlas::builder(Arc::clone(&table))
        .build()
        .expect("valid configuration");
    let mut session = Session::with_engine(engine);

    // Step 1: the analyst knows nothing — map everything.
    let step = session
        .submit(ConjunctiveQuery::all("census"))
        .expect("initial exploration succeeds");
    println!(
        "=== step 1: the whole survey ({} tuples) ===",
        step.working_set_size()
    );
    println!("{}", render_result(&step.result));

    // The top maps group statistically dependent attributes, exactly as in
    // Figure 2: one view of the data via (education, salary), another via
    // demographic attributes. Show what each map is "about".
    for (i, ranked) in step.result.maps.iter().enumerate() {
        println!(
            "map #{i} is about [{}] — {} regions, score {:.3}",
            ranked.map.source_attributes.join(", "),
            ranked.map.num_regions(),
            ranked.score
        );
    }

    // Step 2: drill into the first region of the best map.
    let step = session.drill_down(0, 0).expect("drill-down succeeds");
    println!(
        "\n=== step 2: drilled into region 0 of map 0 ({} tuples) ===",
        step.working_set_size()
    );
    println!("query now: {}", to_sql(&step.query));
    println!("{}", render_result(&step.result));

    // Step 3: drill once more, then report the exploration path.
    let step = session
        .drill_down(0, 0)
        .expect("second drill-down succeeds");
    println!(
        "\n=== step 3: drilled again ({} tuples) ===",
        step.working_set_size()
    );
    println!("query now: {}", to_sql(&step.query));

    println!("\nexploration path:");
    for (depth, visited) in session.history().steps().iter().enumerate() {
        println!(
            "  depth {depth}: {} tuples — {}",
            visited.working_set_size(),
            to_sql(&visited.query)
        );
    }

    // Going back is cheap: the session keeps the whole history.
    session.back();
    println!("\nafter back(): depth = {}", session.depth());

    let profile = session.engine().profile_stats();
    println!(
        "statistics profile over the whole session: {} hits, {} misses",
        profile.hits, profile.misses
    );
}
