//! Ledgers of repeated runs, and the comparison of two ledgers.
//!
//! A ledger holds, per workload, every untraced run's end-to-end values
//! with their median and quartiles, the bound derived from that spread,
//! and one traced run's per-layer values. `compare` judges a new ledger
//! against an old one with the bounds fixed in `BENCHMARK.json`.

use crate::metrics::quartiles;
use crate::{doc_path, spec, RunDoc};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One end-to-end metric over a ledger's untraced runs.
#[derive(Debug, Serialize, Deserialize)]
pub struct Summary {
    pub unit: String,
    pub better: String,
    /// One value per run, in seed order.
    pub values: Vec<f64>,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(q3 - q1) / median`.
    pub spread: f64,
    /// `max(3 * spread, 0.03)`: the smallest bound these runs support.
    pub derived_bound: f64,
}

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct WorkloadLedger {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer values of the traced run.
    pub traced: BTreeMap<String, crate::metrics::Reading>,
    /// Each run's notes (digests, validity), by seed; the traced run's
    /// under `traced`.
    pub info: BTreeMap<String, BTreeMap<String, String>>,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Ledger {
    pub commit: String,
    pub cpus: usize,
    pub run_seconds: f64,
    pub seeds: Vec<u64>,
    pub workloads: BTreeMap<String, WorkloadLedger>,
    pub notes: Vec<String>,
}

/// Run one workload in a child process and read back its document.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Option<RunDoc> {
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .status();
    match status {
        Ok(s) if s.success() => {}
        other => {
            eprintln!("bench-ledger: {workload} seed {seed}: {other:?}");
            return None;
        }
    }
    let text = std::fs::read_to_string(doc_path(out, workload, seed, trace)).ok()?;
    serde_json::from_str(&text).ok()
}

fn summarize(values: Vec<f64>, unit: &str, better: &str) -> Summary {
    let (q1, median, q3) = quartiles(&values);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Summary {
        unit: unit.to_string(),
        better: better.to_string(),
        values,
        q1,
        median,
        q3,
        spread,
        derived_bound: (3.0 * spread).max(0.03),
    }
}

/// Re-indent compact JSON: objects nest one key per line down to
/// `max_depth`; arrays and deeper objects stay on one line.
fn pretty(compact: &str, max_depth: usize) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut stack: Vec<bool> = Vec::new();
    let (mut in_str, mut escaped) = (false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for c in compact.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                let expand = c == '{' && stack.len() < max_depth;
                stack.push(expand);
                out.push(c);
                if expand {
                    newline(&mut out, stack.len());
                }
            }
            '}' | ']' => {
                if stack.pop().unwrap_or(false) {
                    newline(&mut out, stack.len());
                }
                out.push(c);
            }
            ',' => {
                out.push(c);
                if stack.last() == Some(&true) {
                    newline(&mut out, stack.len());
                }
            }
            ':' => {
                out.push(c);
                if stack.last() == Some(&true) {
                    out.push(' ');
                }
            }
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// Where the 0.9x per-sample gap of the batched kernels sits, from the
/// traced `train-mix` run's kernel probes.
fn kernel_note(traced: &BTreeMap<String, crate::metrics::Reading>) -> Option<String> {
    let get = |k: &str| traced.get(k).map(|r| r.value);
    let ratio = |batched: &str, per_sample: &str| Some(get(batched)? / get(per_sample)?);
    let gru = ratio("kernel.gru_step_seg.fwd_ns", "kernel.gru_step.fwd_ns")?;
    let gru_b = ratio("kernel.gru_step_seg.bwd_ns", "kernel.gru_step.bwd_ns")?;
    let gather = ratio("kernel.gather_plan.fwd_ns", "kernel.gather_vec.fwd_ns")?;
    let gather_b = ratio("kernel.gather_plan.bwd_ns", "kernel.gather_vec.bwd_ns")?;
    Some(format!(
        "train-mix first batch, batched / per-sample time at equal rows: \
         gru_step_seg / gru_step = {gru:.2} fwd, {gru_b:.2} bwd; \
         gather_plan / gather_vec = {gather:.2} fwd, {gather_b:.2} bwd \
         (below 1 means the batched kernel is faster)"
    ))
}

/// `ledger --commit <tag> --out <file> [--runs 5] [--seed 1] [--seconds s]`:
/// `runs` untraced runs (seeds `seed..seed+runs`) and one
/// traced run (seed `seed`) of every workload, each in its own process.
pub fn cmd_ledger(args: &[String]) -> Result<ExitCode, String> {
    let f = crate::flags(args)?;
    let commit = f
        .get("commit")
        .ok_or("ledger needs --commit <tag>")?
        .clone();
    let file = PathBuf::from(f.get("out").ok_or("ledger needs --out <file>")?);
    let runs = crate::parse(&f, "runs", 5u64)?;
    let seed0 = crate::parse(&f, "seed", 1u64)?;
    let seconds = crate::parse(&f, "seconds", spec::def().run_seconds as f64)?;
    let scratch = PathBuf::from(".bench_out").join(format!("ledger-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    let seeds: Vec<u64> = (seed0..seed0 + runs).collect();
    let mut ledger = Ledger {
        commit,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        run_seconds: seconds,
        seeds: seeds.clone(),
        workloads: BTreeMap::new(),
        notes: Vec::new(),
    };
    let mut ok = true;
    for w in spec::def().workloads.iter().map(|w| w.name.as_str()) {
        let mut wl = WorkloadLedger::default();
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let e2e = spec::expected(false);
        for &seed in &seeds {
            let Some(doc) = run_child(w, seed, seconds, false, &scratch) else {
                ok = false;
                continue;
            };
            wl.attempted += doc.attempted;
            wl.failed += doc.failed;
            for m in e2e {
                if let Some(r) = doc.metrics.get(&m.name) {
                    values.entry(&m.name).or_default().push(r.value);
                }
            }
            wl.info.insert(seed.to_string(), doc.info);
        }
        for m in e2e {
            let v = values.remove(m.name.as_str()).unwrap_or_default();
            wl.end_to_end
                .insert(m.name.clone(), summarize(v, &m.unit, &m.better));
        }
        match run_child(w, seed0, seconds, true, &scratch) {
            Some(doc) => {
                wl.attempted += doc.attempted;
                wl.failed += doc.failed;
                wl.traced = doc.metrics;
                wl.info.insert("traced".to_string(), doc.info);
            }
            None => ok = false,
        }
        ok &= wl.failed == 0;
        ledger.workloads.insert(w.to_string(), wl);
    }
    if let Some(note) = ledger
        .workloads
        .get("train-mix")
        .and_then(|w| kernel_note(&w.traced))
    {
        ledger.notes.push(note);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let text = serde_json::to_string(&ledger).map_err(|e| e.to_string())?;
    std::fs::write(&file, pretty(&text, 4)).map_err(|e| format!("{}: {e}", file.display()))?;
    print_ledger(&ledger);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_ledger(l: &Ledger) {
    println!(
        "ledger {} ({} runs per workload, {} s each, {} cpu(s))",
        l.commit,
        l.seeds.len(),
        l.run_seconds,
        l.cpus
    );
    for (w, wl) in &l.workloads {
        println!("{w}: attempted {} failed {}", wl.attempted, wl.failed);
        for (m, s) in &wl.end_to_end {
            println!(
                "  {m:<14} median {:>12.4} {:<4} q1 {:>12.4} q3 {:>12.4} spread {:>6.2}% derived bound {:>5.1}%",
                s.median,
                s.unit,
                s.q1,
                s.q3,
                100.0 * s.spread,
                100.0 * s.derived_bound
            );
        }
    }
    println!("per-topology cost (traced label-mix run):");
    println!(
        "  {:<8} {:>12} {:>12} {:>10}",
        "topology", "simulate ms", "predict ms", "speed-up"
    );
    if let Some(t) = l.workloads.get("label-mix").map(|w| &w.traced) {
        for topo in ["nsfnet", "gbn", "geant2", "synth50"] {
            let get = |k: &str| {
                t.get(&format!("cost.{k}.{topo}"))
                    .map_or(f64::NAN, |r| r.value)
            };
            println!(
                "  {topo:<8} {:>12.1} {:>12.2} {:>10.2}",
                get("sim_ms"),
                get("predict_ms"),
                get("speedup")
            );
        }
    }
    for n in &l.notes {
        println!("note: {n}");
    }
}

fn load_ledger(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// How a metric moved between two ledgers.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    /// A side's run-to-run spread is wider than the bound, and the runs
    /// do not separate cleanly.
    Unresolved,
}

/// `worse` is the relative change in the bad direction (positive = worse).
fn judge(old: &Summary, new: &Summary, bound: f64) -> (f64, Verdict) {
    let rel = (new.median - old.median) / old.median.abs();
    let worse = if old.better == "lower" { rel } else { -rel };
    let better_all = |a: &[f64], b: &[f64]| {
        let lower = old.better == "lower";
        a.iter()
            .all(|x| b.iter().all(|y| if lower { x < y } else { x > y }))
    };
    let verdict = if old.spread.max(new.spread) > bound && !better_all(&new.values, &old.values) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `compare OLD NEW`: per-workload, per-metric median deltas against each
/// metric's bound; exits 1 on a regression beyond the bound or on failed
/// operations in NEW.
pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("usage: bench-ledger compare <old ledger> <new ledger>".to_string());
    };
    let (old, new) = (load_ledger(old)?, load_ledger(new)?);
    let mut regressions = 0;
    println!("{} -> {}", old.commit, new.commit);
    for (w, nw) in &new.workloads {
        let Some(ow) = old.workloads.get(w) else {
            println!("{w}: not in the old ledger");
            continue;
        };
        println!("{w}: failed {} -> {}", ow.failed, nw.failed);
        if nw.failed > 0 {
            regressions += 1;
        }
        for (m, ns) in &nw.end_to_end {
            let Some(os) = ow.end_to_end.get(m) else {
                continue;
            };
            let bound = spec::find(m).map_or(0.0, |d| d.bound);
            let (worse, verdict) = judge(os, ns, bound);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            println!(
                "  {m:<14} {:>12.4} -> {:>12.4} {:<4} worse by {:>+7.2}% (bound {:.1}%, spread {:.1}% / {:.1}%) {verdict:?}",
                os.median,
                ns.median,
                ns.unit,
                100.0 * worse,
                100.0 * bound,
                100.0 * os.spread,
                100.0 * ns.spread
            );
        }
        for (seed, info) in &nw.info {
            let (a, b) = (
                ow.info.get(seed).and_then(|i| i.get("label.digest")),
                info.get("label.digest"),
            );
            if let (Some(a), Some(b)) = (a, b) {
                if a != b {
                    println!("  label.digest of seed {seed} changed: {a} -> {b}");
                }
            }
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64], better: &str) -> Summary {
        summarize(values.to_vec(), "1/s", better)
    }

    #[test]
    fn judge_flags_regressions_beyond_the_bound_only() {
        let old = s(&[100.0, 101.0, 99.0, 100.0, 100.5], "higher");
        let same = s(&[99.0, 100.0, 101.0, 100.0, 99.5], "higher");
        let slower = s(&[90.0, 91.0, 89.0, 90.0, 90.5], "higher");
        assert_eq!(judge(&old, &same, 0.05).1, Verdict::Ok);
        assert_eq!(judge(&old, &slower, 0.05).1, Verdict::Regression);
        let noisy = s(&[60.0, 140.0, 80.0, 120.0, 100.0], "higher");
        assert_eq!(judge(&old, &noisy, 0.05).1, Verdict::Unresolved);
        let lat_old = s(&[10.0, 10.1, 9.9, 10.0, 10.0], "lower");
        let lat_new = s(&[12.0, 12.1, 11.9, 12.0, 12.0], "lower");
        let (worse, v) = judge(&lat_old, &lat_new, 0.05);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
    }

    #[test]
    fn pretty_keeps_the_json_and_nests_objects() {
        let compact = r#"{"a":{"b":[1,2],"c":"x,{y}"},"d":1.5}"#;
        let p = pretty(compact, 4);
        let squeezed: String = p.split_whitespace().collect::<Vec<_>>().join("");
        assert_eq!(squeezed, compact);
        assert!(p.contains("\n    \"b\": [1,2]"));
    }
}
