//! `atlas-lint` — Atlas's project-specific static analysis.
//!
//! Generic lints (clippy) do not know Atlas's invariants: bit-identical
//! ranked maps across thread counts and shard layouts, floats that cross the
//! wire through shortest-round-trip codecs only, request paths that answer
//! typed errors instead of panicking. This crate is a hand-rolled Rust
//! tokenizer ([`lexer`]) plus a small rule engine ([`rules`]) that walks
//! every workspace `.rs` file and enforces those invariants with
//! rustc-style diagnostics, a mandatory-reason waiver grammar, and a
//! ratchet-only [`baseline`] so legacy findings can be absorbed but new
//! ones always fail.
//!
//! The crate has **zero dependencies** — it must lint the workspace without
//! being able to reach crates.io, and it must never be the thing that breaks
//! the build.

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use diag::Diagnostic;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Lint one file's text against every applicable rule. `path` is the
/// workspace-relative, `/`-separated path used for rule scoping and
/// diagnostics.
pub fn lint_source(path: &str, text: &str) -> Vec<Diagnostic> {
    lint_parsed(&SourceFile::parse(path, text))
}

fn lint_parsed(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules::all_rules() {
        if rule.applies_to(&file.path) {
            out.extend(rule.check(file));
        }
    }
    out.sort();
    out
}

/// Directories never descended into: build output, VCS metadata, and the
/// lint crate's own fixture files (which are violations *on purpose*).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Every `.rs` file under `root`, workspace-relative and sorted, skipping
/// `SKIP_DIRS` (build output, VCS metadata, and the fixture files).
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(
                path.strip_prefix(root)
                    .map(Path::to_path_buf)
                    .unwrap_or(path),
            );
        }
    }
    Ok(())
}

/// What one walk over the workspace `.rs` files under a root finds.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub diags: Vec<Diagnostic>,
    /// How many `// lint: <key> (reason)` waivers the files carry. Each one
    /// is a bounds or ordering proof kept in prose instead of in a type, so
    /// the count is baselined like the findings are: it may fall, never rise
    /// (see [`baseline::Baseline::check_waivers`]).
    pub waivers: usize,
}

/// Lint every workspace `.rs` file under `root` and count its waivers, each
/// file read and tokenized once.
pub fn survey_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for rel in collect_workspace_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let file = SourceFile::parse(&rel_str, &text);
        report.diags.extend(lint_parsed(&file));
        report.waivers += file.waiver_sites().len();
    }
    report.diags.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_only_scoped_rules() {
        // A HashMap iteration in a non-pipeline crate is out of scope.
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u32, u32> = HashMap::new(); for x in &m {} }\n";
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        let diags = lint_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "nondeterministic-iteration");
    }

    #[test]
    fn diagnostics_are_sorted_and_stable() {
        let src = "fn f(m: std::collections::HashMap<u32, u32>) {\n\
                       for x in &m {}\n\
                       let v = vec![1];\n\
                       let y = v.iter().next().unwrap();\n\
                   }\n";
        let a = lint_source("crates/serve/src/x.rs", src);
        let b = lint_source("crates/serve/src/x.rs", src);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().any(|d| d.rule == "nondeterministic-iteration"));
        assert!(a.iter().any(|d| d.rule == "panic-path"));
    }
}
