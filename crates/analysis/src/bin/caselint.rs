//! `caselint` — lint assurance-case DSL files from the command line.
//!
//! ```text
//! caselint [--deny] [--allow CODE]... [--level CODE=LEVEL]... <FILE|DIR>...
//! ```
//!
//! Each `.case` file (or every `.case` file under a directory, sorted)
//! is parsed with the error-recovering core DSL frontend and linted
//! with the full pass set. Malformed files no longer stop at the first
//! error: every recovered syntax error is reported as a `CK2xx`
//! diagnostic, and whatever argument survived recovery is still linted.
//! Diagnostics print one per line as
//! `file:line:col: severity[code]: message` followed by a caret excerpt
//! of the offending source line. Exit status is 1 if any diagnostic of
//! error severity is emitted, 0 otherwise.
//!
//! `--deny` promotes every lint to deny level (any diagnostic is an
//! error) — the mode CI uses over the example corpus. `--allow` and
//! `--level` override single codes on top of it, in either order.
//! Directory walks do not follow symlinked directories. `--list` prints
//! the lint registry and exits.

#![forbid(unsafe_code)]

use casekit_analysis::{check_source, excerpt, Level, LintCode, LintConfig, Severity};
use casekit_logic::LineIndex;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: caselint [--deny] [--allow CODE]... [--level CODE=LEVEL]... <FILE|DIR>...\n\
     \x20      caselint --list"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("caselint: {message}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut deny = false;
    let mut overrides: Vec<(LintCode, Level)> = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for descriptor in LintCode::ALL.iter().map(|c| c.descriptor()) {
                    println!(
                        "{} {:30} {:5} {}",
                        descriptor.code.as_str(),
                        descriptor.name,
                        descriptor.default_level,
                        descriptor.summary
                    );
                }
                return Ok(true);
            }
            "--deny" => deny = true,
            "--allow" => {
                let code = iter.next().ok_or("--allow needs a lint code")?;
                let code = LintCode::parse(code).ok_or_else(|| format!("unknown lint `{code}`"))?;
                overrides.push((code, Level::Allow));
            }
            "--level" => {
                let spec = iter.next().ok_or("--level needs CODE=LEVEL")?;
                let (code, level) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --level spec `{spec}` (want CODE=LEVEL)"))?;
                let code = LintCode::parse(code).ok_or_else(|| format!("unknown lint `{code}`"))?;
                let level: Level = level.parse().map_err(|e: String| e)?;
                overrides.push((code, level));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() {
        return Err("no input files".into());
    }
    // Per-code overrides win over `--deny`, wherever they appear.
    let mut config = if deny {
        LintConfig::deny_all()
    } else {
        LintConfig::new()
    };
    for (code, level) in overrides {
        config.set(code, level);
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for path in &paths {
        collect_cases(path, &mut files)?;
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        return Err("no .case files found under the given paths".into());
    }

    let mut clean = true;
    let mut total = 0usize;
    for file in &files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let analysis = check_source(&source, &config);
        let index = LineIndex::new(&source);
        for diagnostic in &analysis.diagnostics {
            match diagnostic.span {
                Some(span) => {
                    let (line, col) = index.line_col(span.start);
                    println!("{}:{line}:{col}: {diagnostic}", file.display());
                    if let Some(lines) = excerpt(&source, &index, span) {
                        println!("{lines}");
                    }
                }
                None => println!("{}: {diagnostic}", file.display()),
            }
            total += 1;
            if diagnostic.severity == Severity::Error {
                clean = false;
            }
        }
    }
    eprintln!("caselint: {} file(s), {} diagnostic(s)", files.len(), total);
    Ok(clean)
}

/// Pushes `path` if it is a `.case` file, or every `.case` file under it
/// (recursively, sorted for determinism) if it is a directory. Symlinked
/// directories inside the walk are skipped, so a link cycle cannot
/// repeat files.
fn collect_cases(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_dir() {
        let mut entries: Vec<(PathBuf, bool)> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let real_dir = entry.file_type().ok()?.is_dir();
                Some((entry.path(), real_dir))
            })
            .collect();
        entries.sort();
        for (entry, real_dir) in entries {
            if real_dir || (!entry.is_dir() && entry.extension().is_some_and(|ext| ext == "case")) {
                collect_cases(&entry, out)?;
            }
        }
    } else {
        out.push(path.to_path_buf());
    }
    Ok(())
}
