//! `bench-ledger`: the repository's benchmark.
//!
//! ```text
//! bench-ledger run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! bench-ledger run --all --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! bench-ledger ledger --commit <tag> --out <file> [--runs 5] [--seed 1] [--seconds <s>]
//! bench-ledger compare <old ledger> <new ledger>
//! ```
//!
//! `run` sets a workload up five times (reporting the median set-up
//! time), measures it for `--seconds`, checks every output, prints each
//! metric with its unit and sample count, writes a JSON document under
//! `--out`, and ends with a one-line JSON result. With `--trace 1` it also
//! replays the workload's layer calls under spans and reports per-layer
//! metrics instead of end-to-end ones. `run --all` runs each workload in a
//! process of its own, so peak memory is per workload. See
//! `bench/README.md`.

mod kernels;
mod label;
mod ledger;
mod metrics;
mod spec;
mod trace;
mod train;
mod whatif;

use metrics::{peak_rss_mb, quartiles, ProcTimes, Reading, Report};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Schema-test sizing: a handful of operations per phase, no timing.
    pub tiny: bool,
    /// Scratch directory, removed when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// Whether a time-boxed phase that started at `start` and owns `share`
    /// of the run's seconds should begin another round; the first round
    /// always runs.
    pub fn keep_going(&self, start: Instant, share: f64, rounds_done: u64) -> bool {
        if self.tiny {
            rounds_done < 1
        } else {
            rounds_done < 1 || start.elapsed().as_secs_f64() < self.seconds * share
        }
    }
}

/// The JSON document a run writes under `--out`.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunDoc {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Reading>,
    pub info: BTreeMap<String, String>,
}

#[derive(Serialize)]
struct ResultMetric {
    value: f64,
    unit: String,
}

/// The last line of a run's standard output.
#[derive(Serialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ResultMetric>,
}

type Phase<S> = fn(&Ctx, &S, &mut Report);
type TracePhase<S> = fn(&Ctx, &S, &mut Report) -> (Tracer, f64, f64);

/// Set up (five times, keeping the last), measure, and when tracing,
/// replay under spans.
fn drive<S>(
    ctx: &Ctx,
    rep: &mut Report,
    setup: impl Fn(&Ctx) -> S,
    measure: Phase<S>,
    replay: TracePhase<S>,
) -> Option<Tracer> {
    let reps = if ctx.tiny { 1 } else { 5 };
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(ctx));
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.expect("at least one set-up");
    rep.set("setup_s", quartiles(&times).1, reps as u64);

    let before = ProcTimes::now();
    measure(ctx, &state, rep);
    let cpu = ProcTimes::now().since(before);
    rep.set("peak_rss_mb", peak_rss_mb(), 1);
    rep.set("proc.user_cpu_s", cpu.user_s, 1);
    rep.set("proc.sys_cpu_s", cpu.sys_s, 1);
    rep.set("proc.minor_faults", cpu.minor_faults, 1);
    if !ctx.trace {
        return None;
    }
    let (tracer, wall_untraced, wall_traced) = replay(ctx, &state, rep);
    attribute(rep, &tracer, wall_untraced, wall_traced);
    Some(tracer)
}

/// Turn the traced replay's spans into the `trace.*`, `layer.*` and
/// per-call metrics; a span `<layer>.<call>` reports as `<layer>.<call>_s`.
fn attribute(rep: &mut Report, t: &Tracer, wall_untraced: f64, wall: f64) {
    let attributed: f64 = trace::LAYERS.iter().map(|l| t.layer_time(l)).sum();
    let n = t.spans().len() as u64;
    rep.set("trace.wall_s", wall, n);
    rep.set("trace.other_s", wall - attributed, n);
    rep.set("trace.attributed", attributed / wall, n);
    rep.set("trace.overhead", wall / wall_untraced, 2);
    for layer in trace::LAYERS {
        rep.set(&format!("layer.{layer}_s"), t.layer_time(layer), n);
    }
    for m in spec::expected(true) {
        let Some(call) = m.name.strip_suffix("_s") else {
            continue;
        };
        let is_layer_call = call
            .split_once('.')
            .is_some_and(|(l, _)| trace::LAYERS.contains(&l));
        if is_layer_call && !rep.metrics.contains_key(&m.name) {
            let calls = t.spans().iter().filter(|s| s.name == call).count() as u64;
            rep.set(&m.name, t.self_time_of(call), calls);
        }
    }
    if attributed / wall < 0.9 {
        rep.note(
            "trace",
            format!(
                "only {:.1}% of wall time attributed",
                100.0 * attributed / wall
            ),
        );
    }
}

/// Fix glibc's mmap and trim thresholds at the values its dynamic
/// threshold grows to (32 MiB, and twice that for trimming).
///
/// glibc starts the mmap threshold at 128 KiB and raises it each time the
/// process frees a larger mapped block, so it ends wherever the order of the
/// first large frees puts it. That order depends on thread timing, in
/// set-up as much as in the measured code. In about half of the
/// `train-mix` runs it stopped low, and every single-thread training step
/// then faulted its tape back in (about 675k minor faults per call of six
/// steps, against none) and ran about 30% slower, from the allocator's
/// history alone. With the thresholds fixed every run behaves like a
/// process whose threshold has grown all the way.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // `mallopt` parameters from glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two integers and only changes allocator
        // parameters, under the allocator's own lock; both values are in
        // the ranges glibc documents for these parameters.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1
        };
        if !ok {
            eprintln!("bench-ledger: mallopt refused the malloc thresholds");
        }
    }
}

/// Run one workload in this process.
pub fn run_workload(workload: &str, ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    std::fs::create_dir_all(&ctx.tmp).expect("create scratch dir");
    let tracer = match workload {
        "label-mix" => drive(ctx, &mut rep, label::setup, label::measure, label::trace),
        "train-mix" => drive(ctx, &mut rep, train::setup, train::measure, train::trace),
        "whatif-sweep" => drive(
            ctx,
            &mut rep,
            |c| whatif::setup(c, whatif::Kind::Sweep),
            whatif::measure,
            whatif::trace,
        ),
        "whatif-reroute" => drive(
            ctx,
            &mut rep,
            |c| whatif::setup(c, whatif::Kind::Reroute),
            whatif::measure,
            whatif::trace,
        ),
        other => panic!("unknown workload {other}"),
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    if let Some(t) = tracer {
        let path = ctx.tmp.with_file_name(format!("trace-{workload}.json"));
        if let Err(e) = t.write_json(&path) {
            eprintln!("bench-ledger: writing {}: {e}", path.display());
        }
    }
    // A layer this workload does not exercise did no work: report 0.
    for m in spec::expected(ctx.trace) {
        if !rep.metrics.contains_key(&m.name) {
            if ctx.trace {
                rep.set(&m.name, 0.0, 0);
            } else {
                rep.fail(1, format!("end-to-end metric {} was not measured", m.name));
            }
        }
    }
    rep
}

fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {}", args[i]))?;
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(v) => {
                out.insert(key.to_string(), v.clone());
                i += 2;
            }
            None => {
                out.insert(key.to_string(), "1".to_string());
                i += 1;
            }
        }
    }
    Ok(out)
}

fn parse<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match f.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v}")),
        None => Ok(default),
    }
}

fn print_run(workload: &str, ctx: &Ctx, rep: &Report) {
    println!(
        "bench-ledger {workload} seed {} ({} s, {}) on {} cpu(s)",
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if let Some(w) = spec::def().workloads.iter().find(|w| w.name == workload) {
        println!("  why: {}", w.why);
    }
    for m in spec::expected(ctx.trace) {
        let r = &rep.metrics[&m.name];
        let derived = if spec::DERIVED.contains(&m.name.as_str()) {
            " [derived]"
        } else {
            ""
        };
        println!(
            "  {:<28} {:>14.6} {:<6} (n={}){derived}",
            m.name, r.value, r.unit, r.n
        );
    }
    for (k, v) in &rep.info {
        println!("  {k}: {v}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        rep.attempted, rep.failed
    );
}

fn doc_path(out: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    let kind = if trace { "traced" } else { "untraced" };
    out.join(format!("run-{workload}-seed{seed}-{kind}.json"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed = parse(&f, "seed", 1u64)?;
    let seconds = parse(&f, "seconds", spec::def().run_seconds as f64)?;
    let trace = parse(&f, "trace", 0u8)? == 1;
    let out = PathBuf::from(f.get("out").map_or(".bench_out", String::as_str));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if f.contains_key("all") {
        let mut ok = true;
        for w in &spec::def().workloads {
            ok &= ledger::run_child(&w.name, seed, seconds, trace, &out).is_some();
        }
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let workload = f
        .get("workload")
        .ok_or("run needs --workload <name> or --all")?;
    if !spec::is_workload(workload) {
        return Err(format!("unknown workload {workload}; see BENCHMARK.json"));
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        tiny: false,
        tmp: out.join(format!("tmp-{workload}-{}", std::process::id())),
    };
    pin_malloc_thresholds();
    let rep = run_workload(workload, &ctx);
    print_run(workload, &ctx, &rep);

    let wanted = spec::expected(trace);
    let finite = wanted
        .iter()
        .all(|m| rep.metrics[&m.name].value.is_finite());
    let correct = rep.failed == 0 && finite;
    let metrics: BTreeMap<String, Reading> = wanted
        .iter()
        .map(|m| (m.name.clone(), rep.metrics[&m.name].clone()))
        .collect();
    let doc = RunDoc {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        correct,
        attempted: rep.attempted,
        failed: rep.failed,
        info: rep.info.clone(),
        metrics: metrics.clone(),
    };
    let path = doc_path(&out, workload, seed, trace);
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    let result = RunResult {
        correct,
        attempted: rep.attempted,
        failed: rep.failed,
        metrics: metrics
            .into_iter()
            .map(|(k, r)| {
                (
                    k,
                    ResultMetric {
                        value: r.value,
                        unit: r.unit,
                    },
                )
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("ledger") => ledger::cmd_ledger(rest),
        Some("compare") => ledger::cmd_compare(rest),
        _ => Err("usage: bench-ledger run|ledger|compare ... (see bench/README.md)".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("bench-ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at a tiny size, untraced and traced: each metric
    /// `BENCHMARK.json` names is emitted with its unit and a finite value,
    /// and nothing fails. `Report::set` refuses names `BENCHMARK.json` does
    /// not list, so the binary's names and the file's match exactly. Never
    /// checks timing.
    #[test]
    fn schema_smoke_every_workload_tiny() {
        let def = spec::def();
        let names: Vec<&str> = def.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            ["label-mix", "train-mix", "whatif-sweep", "whatif-reroute"]
        );
        assert!(def
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in def.end_to_end.iter().chain(&def.per_layer) {
            assert!(
                ["higher", "lower"].contains(&m.better.as_str()),
                "{}",
                m.name
            );
        }

        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-{}", std::process::id()));
        for w in &names {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    tiny: true,
                    tmp: out.join(format!("tmp-{w}")),
                };
                let rep = run_workload(w, &ctx);
                assert_eq!(rep.failed, 0, "{w} trace={trace}: failures");
                assert!(rep.attempted > 0, "{w} trace={trace}: nothing attempted");
                for m in spec::expected(trace) {
                    let r = &rep.metrics[&m.name];
                    assert_eq!(r.unit, m.unit, "{w}: {} unit", m.name);
                    assert!(r.value.is_finite(), "{w}: {} = {}", m.name, r.value);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
