//! `--selfcheck N`: does the instrument repeat? Every workload is run as two
//! alternating sets of `N` runs of the same code, each run with another
//! seed, and every end-to-end metric must agree between the two sets within
//! its own bound. The spread column is what the driver computes: the
//! distance between the quartiles as a share of the median.

use crate::deploy::Workload;
use crate::run::{self, Request};
use crate::spec::Spec;
use crate::stats;
use std::collections::BTreeMap;

pub fn run(spec: &Spec, runs: usize, seconds: u64) -> Result<bool, String> {
    if runs == 0 {
        return Err("--selfcheck needs at least one run per set".to_string());
    }
    println!(
        "| workload | metric | unit | set A | set B | B vs A | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut agree = true;
    for workload in Workload::ALL {
        // sets[s][metric] = one value per run
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for index in 0..2 * runs {
            let request = Request {
                workload,
                // Both sets see the same seeds, interleaved A B A B ...
                seed: (index / 2) as u64 + 1,
                seconds,
                traced: false,
            };
            let outcome = run::run(spec, &request)?;
            if !outcome.correct || outcome.failed > 0 {
                eprintln!(
                    "selfcheck: {} seed {}: correct {} failed {}",
                    workload.name(),
                    request.seed,
                    outcome.correct,
                    outcome.failed
                );
                agree = false;
            }
            for metric in &spec.end_to_end {
                let value = outcome
                    .values
                    .get(&metric.name)
                    .copied()
                    .ok_or_else(|| format!("no measurement for {}", metric.name))?;
                sets[index % 2].entry(&metric.name).or_default().push(value);
            }
        }
        for metric in &spec.end_to_end {
            let (a, b) = (
                &sets[0][metric.name.as_str()],
                &sets[1][metric.name.as_str()],
            );
            let (median_a, median_b) = (stats::median(a), stats::median(b));
            let worse = metric.worsening(median_a, median_b);
            let bound = metric.bound.unwrap_or(0.0);
            let within = worse.abs() <= bound;
            agree &= within;
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:+.1} % | {:.1} % | {:.1} % | {:.0} % | {} |",
                workload.name(),
                metric.name,
                metric.unit,
                median_a,
                median_b,
                worse * 100.0,
                stats::quartile_spread(a) * 100.0,
                stats::quartile_spread(b) * 100.0,
                bound * 100.0,
                if within { "ok" } else { "DIFFERS" },
            );
        }
    }
    Ok(agree)
}
