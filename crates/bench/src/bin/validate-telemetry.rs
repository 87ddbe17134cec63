//! Validate a `.telemetry.jsonl` event log: every line must parse as a
//! [`routenet_obs::Record`], sequence numbers must be strictly increasing,
//! and (optionally) a required set of event kinds must be present.
//!
//! ```text
//! validate-telemetry --log <log.jsonl> [--require RunStart,Epoch,RunEnd]
//! ```
//!
//! Exits 0 and prints a one-line digest on success; exits 1 with a
//! diagnostic on the first violation. Used by `scripts/check.sh` as the
//! telemetry smoke gate.

use routenet_bench::{usage_exit, Args};
use routenet_obs::Record;
use std::collections::BTreeMap;

const USAGE: &str = "validate-telemetry --log <jsonl> [--require Kind1,Kind2]";

fn main() {
    let args = Args::from_env(USAGE);
    let Some(path) = args.get("log") else {
        usage_exit(USAGE, "--log is required");
    };
    let require: Vec<&str> = args
        .get("require")
        .map(|list| list.split(',').map(str::trim).collect())
        .unwrap_or_default();

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: cannot read: {e}");
        std::process::exit(1);
    });

    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut last_seq: Option<u64> = None;
    let mut n = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Record = serde_json::from_str(line).unwrap_or_else(|e| {
            eprintln!("{path}:{}: unparseable record: {e}", lineno + 1);
            std::process::exit(1);
        });
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                eprintln!(
                    "{path}:{}: seq {} not strictly increasing (prev {prev})",
                    lineno + 1,
                    rec.seq
                );
                std::process::exit(1);
            }
        }
        last_seq = Some(rec.seq);
        *kinds.entry(rec.event.kind().to_string()).or_insert(0) += 1;
        n += 1;
    }
    if n == 0 {
        eprintln!("{path}: no telemetry records");
        std::process::exit(1);
    }
    for k in &require {
        if !kinds.contains_key(*k) {
            eprintln!(
                "{path}: missing required event kind {k} (present: {})",
                kinds.keys().cloned().collect::<Vec<_>>().join(",")
            );
            std::process::exit(1);
        }
    }
    let digest: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!("ok: {path}: {n} records ({})", digest.join(" "));
}
