//! CLI for the workspace static-analysis gate.
//!
//! ```text
//! routenet-analyzer --workspace [--root DIR] [--json FILE]
//! routenet-analyzer [--json FILE] FILE.rs [FILE.rs ...]
//! ```
//!
//! Exit codes: 0 clean, 1 any finding (every rule fails the gate), 2 usage
//! or I/O error, or no files found to analyze.

use routenet_analyzer::{analyze_paths, analyze_workspace, find_workspace_root, Report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        json: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--json" => {
                let v = it.next().ok_or("--json requires a file argument")?;
                args.json = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                return Err(String::new()); // triggers usage, exit 2
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.workspace == args.paths.is_empty() {
        Ok(args)
    } else if args.workspace {
        Err("--workspace and explicit paths are mutually exclusive".to_string())
    } else {
        Err("nothing to analyze: pass --workspace or explicit .rs files".to_string())
    }
}

fn usage() {
    eprintln!(
        "usage: routenet-analyzer --workspace [--root DIR] [--json FILE]\n       routenet-analyzer [--json FILE] FILE.rs [FILE.rs ...]"
    );
}

fn resolve_root(args: &Args) -> Result<PathBuf, String> {
    match &args.root {
        Some(r) => Ok(r.clone()),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cannot get cwd: {e}"))?;
            find_workspace_root(&cwd).ok_or_else(|| {
                "no workspace root (Cargo.toml with [workspace]) found above cwd".to_string()
            })
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if args.workspace {
        let root = resolve_root(args)?;
        analyze_workspace(&root).map_err(|e| e.to_string())
    } else {
        analyze_paths(&args.paths).map_err(|e| e.to_string())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // A gate that scanned nothing must not report green: a mistyped --root
    // would otherwise pass CI silently.
    if report.files_scanned == 0 {
        eprintln!("error: no .rs files found to analyze");
        return ExitCode::from(2);
    }
    if let Some(json_path) = &args.json {
        if let Err(e) = std::fs::write(json_path, report.json()) {
            eprintln!("error: cannot write {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
