//! The ratchet baseline: legacy violations are committed to
//! `lint-baseline.txt` so the gate only ever tightens.
//!
//! Format: one `file<TAB>rule<TAB>count` line per (file, rule) pair, sorted.
//! Counts — not line numbers — are stored, so unrelated edits that shift
//! lines do not churn the baseline. Semantics:
//!
//! * current count **above** baseline → those diagnostics are *new*: fail;
//! * current count **at** baseline → legacy debt, tolerated;
//! * current count **below** baseline → the debt shrank; `--write-baseline`
//!   records the smaller number (CI prints a reminder so burn-down progress
//!   is captured, but a stale-high baseline never fails the build).
//!
//! The committed baseline holds **no findings**: every rule runs clean on
//! the workspace today. The machinery exists so a future rule (or a stricter
//! version of an existing one) can land with its legacy findings baselined
//! and burned down over time.
//!
//! What it does hold is the workspace's **waiver count**, as one
//! `*<TAB>waivers<TAB>count` line: a waiver silences a finding with a proof
//! in prose, so their number ratchets the same way — a run with more waivers
//! than the baseline records fails, fewer is a reminder to tighten.

use crate::diag::Diagnostic;
use std::collections::BTreeMap;

/// Per-(file, rule) allowance loaded from a baseline file, plus the
/// workspace-wide waiver allowance when the file records one.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    counts: BTreeMap<(String, String), usize>,
    waivers: Option<usize>,
}

/// The (file, rule) pair of the waiver-count line.
const WAIVERS_KEY: (&str, &str) = ("*", "waivers");

/// The result of applying a baseline to a run's diagnostics.
#[derive(Debug)]
pub struct Applied {
    /// Diagnostics exceeding the baselined allowance — these fail the run.
    pub fresh: Vec<Diagnostic>,
    /// Number of diagnostics absorbed by the baseline.
    pub absorbed: usize,
    /// (file, rule) pairs whose current count undershoots the baseline —
    /// the ratchet can be tightened.
    pub tightenable: Vec<(String, String)>,
}

impl Baseline {
    /// Parse baseline text; unparseable lines are ignored (a linter should
    /// not die on its own config).
    pub fn parse(text: &str) -> Baseline {
        let mut counts = BTreeMap::new();
        let mut waivers = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split('\t');
            if let (Some(file), Some(rule), Some(count)) =
                (parts.next(), parts.next(), parts.next())
            {
                match count.trim().parse::<usize>() {
                    Ok(count) if (file, rule) == WAIVERS_KEY => waivers = Some(count),
                    Ok(count) => {
                        counts.insert((file.to_string(), rule.to_string()), count);
                    }
                    Err(_) => {}
                }
            }
        }
        Baseline { counts, waivers }
    }

    /// Hold the workspace's current waiver count against the recorded one:
    /// `Err` (the message to fail with) when it rose, `Ok(true)` when it fell
    /// and the ratchet can be tightened. A baseline without a waiver line
    /// tolerates any count.
    pub fn check_waivers(&self, current: usize) -> Result<bool, String> {
        match self.waivers {
            Some(allowed) if current > allowed => Err(format!(
                "{current} `// lint:` waivers, the baseline allows {allowed}: put the proof in \
                 a type (checked access, an iterator, a newtype index) instead of a new waiver"
            )),
            Some(allowed) => Ok(current < allowed),
            None => Ok(false),
        }
    }

    /// Serialize diagnostics and the waiver count as a fresh baseline.
    pub fn render(diags: &[Diagnostic], waivers: usize) -> String {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *counts
                .entry((d.file.clone(), d.rule.to_string()))
                .or_default() += 1;
        }
        let mut out = String::from(
            "# atlas-lint ratchet baseline: file<TAB>rule<TAB>tolerated-count\n\
             # Regenerate with: cargo run -p atlas-lint -- --write-baseline\n",
        );
        for ((file, rule), count) in counts {
            out.push_str(&format!("{file}\t{rule}\t{count}\n"));
        }
        let (file, rule) = WAIVERS_KEY;
        out.push_str(&format!("{file}\t{rule}\t{waivers}\n"));
        out
    }

    /// Split `diags` into fresh (failing) and absorbed (legacy) findings.
    /// Within one (file, rule) group the *first* `allowance` findings in
    /// line order are absorbed — deterministic, and stable under appends.
    pub fn apply(&self, diags: &[Diagnostic]) -> Applied {
        let mut sorted: Vec<Diagnostic> = diags.to_vec();
        sorted.sort();
        let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut fresh = Vec::new();
        let mut absorbed = 0usize;
        for d in sorted {
            let key = (d.file.clone(), d.rule.to_string());
            let allowance = self.counts.get(&key).copied().unwrap_or(0);
            let used_here = used.entry(key).or_default();
            if *used_here < allowance {
                *used_here += 1;
                absorbed += 1;
            } else {
                fresh.push(d);
            }
        }
        let tightenable = self
            .counts
            .iter()
            .filter(|(key, &allowance)| used.get(*key).copied().unwrap_or(0) < allowance)
            .map(|(key, _)| key.clone())
            .collect();
        Applied {
            fresh,
            absorbed,
            tightenable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: "m".into(),
        }
    }

    #[test]
    fn baseline_absorbs_up_to_count_and_fails_beyond() {
        let base = Baseline::parse("crates/a.rs\tpanic-path\t2\n");
        let diags = vec![
            diag("crates/a.rs", 1, "panic-path"),
            diag("crates/a.rs", 5, "panic-path"),
            diag("crates/a.rs", 9, "panic-path"),
        ];
        let applied = base.apply(&diags);
        assert_eq!(applied.absorbed, 2);
        assert_eq!(applied.fresh.len(), 1);
        assert_eq!(applied.fresh[0].line, 9, "line order decides absorption");
    }

    #[test]
    fn undershoot_is_tightenable_not_failing() {
        let base = Baseline::parse("crates/a.rs\tpanic-path\t5\n");
        let applied = base.apply(&[diag("crates/a.rs", 1, "panic-path")]);
        assert!(applied.fresh.is_empty());
        assert_eq!(
            applied.tightenable,
            vec![("crates/a.rs".to_string(), "panic-path".to_string())]
        );
    }

    #[test]
    fn roundtrip_through_render_and_parse() {
        let diags = vec![
            diag("b.rs", 1, "slice-index"),
            diag("b.rs", 2, "slice-index"),
            diag("a.rs", 3, "panic-path"),
        ];
        let text = Baseline::render(&diags, 7);
        let base = Baseline::parse(&text);
        let applied = base.apply(&diags);
        assert!(applied.fresh.is_empty());
        assert_eq!(applied.absorbed, 3);
        assert!(
            applied.tightenable.is_empty(),
            "the waiver line is no finding"
        );
        assert_eq!(base.check_waivers(7), Ok(false));
    }

    #[test]
    fn the_waiver_count_only_ratchets_down() {
        let base = Baseline::parse("# header\n*\twaivers\t64\n");
        assert_eq!(base.check_waivers(64), Ok(false));
        assert_eq!(base.check_waivers(60), Ok(true), "fewer: tighten");
        let err = base.check_waivers(65).unwrap_err();
        assert!(err.contains("65") && err.contains("64"), "{err}");
        // No waiver line (an older baseline): nothing to hold the count to.
        assert_eq!(Baseline::parse("").check_waivers(1_000), Ok(false));
    }

    #[test]
    fn comments_and_junk_lines_are_ignored() {
        let base = Baseline::parse("# comment\n\nnot a baseline line\nx.rs\trule\tNaN\n");
        let applied = base.apply(&[diag("x.rs", 1, "panic-path")]);
        assert_eq!(applied.fresh.len(), 1);
    }
}
