//! `atlas-lint` CLI.
//!
//! ```text
//! atlas-lint [ROOT] [--format text|json] [--baseline PATH] [--write-baseline]
//! ```
//!
//! Lints every `.rs` file under ROOT (default: the current directory),
//! applies the ratchet baseline (default: `ROOT/lint-baseline.txt` when it
//! exists), prints diagnostics, and exits non-zero when any non-baselined
//! finding remains or the workspace carries more `// lint:` waivers than the
//! baseline records. `--write-baseline` rewrites the baseline from the
//! current findings and waiver count instead of failing — the only
//! sanctioned way to absorb legacy debt; there is deliberately no `--fix`.

use atlas_lint::baseline::Baseline;
use atlas_lint::diag::to_json;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    format: Format,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn usage() -> ! {
    eprintln!("usage: atlas-lint [ROOT] [--format text|json] [--baseline PATH] [--write-baseline]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        root: PathBuf::from("."),
        format: Format::Text,
        baseline: None,
        write_baseline: false,
    };
    let mut root_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                _ => usage(),
            },
            "--baseline" => match args.next() {
                Some(path) => opts.baseline = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--write-baseline" => opts.write_baseline = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ if !root_set => {
                opts.root = PathBuf::from(arg);
                root_set = true;
            }
            _ => usage(),
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let (diags, waivers) = match atlas_lint::survey_workspace(&opts.root) {
        Ok(report) => (report.diags, report.waivers),
        Err(err) => {
            eprintln!("atlas-lint: cannot walk {}: {err}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("lint-baseline.txt"));

    if opts.write_baseline {
        let text = Baseline::render(&diags, waivers);
        if let Err(err) = std::fs::write(&baseline_path, &text) {
            eprintln!(
                "atlas-lint: cannot write {}: {err}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        eprintln!(
            "atlas-lint: wrote {} entries and {waivers} waiver(s) to {}",
            diags.len(),
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text),
        Err(_) => Baseline::default(), // no baseline file: everything is fresh
    };
    let applied = baseline.apply(&diags);

    match opts.format {
        Format::Json => print!("{}", to_json(&diags, applied.absorbed)),
        Format::Text => {
            for d in &applied.fresh {
                println!("{d}");
            }
            for (file, rule) in &applied.tightenable {
                eprintln!(
                    "atlas-lint: note: baseline for {file} / {rule} exceeds current count; \
                     run --write-baseline to tighten the ratchet"
                );
            }
            eprintln!(
                "atlas-lint: {} finding(s): {} new, {} baselined",
                diags.len(),
                applied.fresh.len(),
                applied.absorbed
            );
        }
    }

    let waivers_hold = match baseline.check_waivers(waivers) {
        Ok(tightenable) => {
            if tightenable {
                eprintln!(
                    "atlas-lint: note: {waivers} waiver(s), fewer than the baseline records; \
                     run --write-baseline to tighten the ratchet"
                );
            }
            true
        }
        Err(message) => {
            eprintln!("atlas-lint: {message}");
            false
        }
    };

    if applied.fresh.is_empty() && waivers_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
