//! # routenet-bench
//!
//! Shared harness behind the experiment binaries. Each binary regenerates
//! artifacts of the paper's evaluation:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `report` | Every published table from one trained model: Figs. 2–4 and Table 1 (`results/fig2.csv` predicted vs. true delay on a Geant2 sample, `fig3.csv` relative-error CDFs per topology, `fig4.csv` Top-10 paths with more delay, `table1.txt` RouteNet vs M/M/1 vs FNN per topology), error vs topology size on fresh 10..=50-node graphs (`varsize.csv`), error vs T iterations and state width (`ablation.csv`), the drop-probability head vs M/M/1/K blocking (`drops.csv`), and `summary.txt` |
//! | `cost`   | Inference vs packet-level simulation wall-clock, protocol and line-rate regimes (`results/cost.csv`) |
//! | `gen-dataset` / `train-model` / `predict` / `simulate` | File-based dataset and model tooling |
//! | `validate-telemetry` | Checks a `.telemetry.jsonl` log (`--log <jsonl>`) |
//! | `routenet-serve` / `serve-loadgen` | The what-if daemon (`--model <path> --listen <addr>`) and its load generator / offline reference |
//! | `probe` | Dev check of the M/M/1 baseline under other traffic processes |
//!
//! Each binary declares its flags in one usage line and parses them with
//! [`Args`], which rejects any other flag; `tests/cli.rs` pins that for
//! every binary. `report` takes `--scale <f>` (dataset-size multiplier),
//! `--epochs <n>` and `--seed <n>`.

#![warn(missing_docs)]

pub mod plot;

use routenet_core::prelude::*;
use routenet_dataset::split::ProtocolConfig;

/// Strict CLI flag parser: `--key value` pairs and bare `--switch`es. The
/// binary's usage line declares every key it reads, so a flag the binary
/// would ignore (a typo, `--help`, a removed option) stops the run instead
/// of silently running defaults.
#[derive(Debug, Clone)]
pub struct Args {
    usage: &'static str,
    pairs: Vec<(String, String)>,
}

/// The `--key`s a usage line declares, e.g. `reps` in `cost [--reps 5]`.
fn declared_keys(usage: &str) -> impl Iterator<Item = &str> {
    usage
        .split(|c: char| c.is_whitespace() || matches!(c, '[' | ']' | '(' | ')' | '|'))
        .filter_map(|word| word.strip_prefix("--"))
}

impl Args {
    /// Parse `std::env::args`. On a key `usage` does not declare, prints
    /// the error and `usage` to stderr and exits with status 2.
    pub fn from_env(usage: &'static str) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv, usage).unwrap_or_else(|e| usage_exit(usage, &e))
    }

    /// Parse an explicit argument list against the keys `usage` declares.
    fn parse(argv: &[String], usage: &'static str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while let Some(arg) = argv.get(i) {
            let key = arg
                .strip_prefix("--")
                .filter(|k| declared_keys(usage).any(|d| d == *k))
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    pairs.push((key.to_string(), value.clone()));
                    i += 2;
                }
                None => {
                    pairs.push((key.to_string(), "true".into()));
                    i += 1;
                }
            }
        }
        Ok(Args { usage, pairs })
    }

    /// Look up a flag value; the last occurrence wins.
    ///
    /// # Panics
    /// If the usage line does not declare `key`: every key a binary reads
    /// must be accepted by its parser.
    pub fn get(&self, key: &str) -> Option<&str> {
        assert!(
            declared_keys(self.usage).any(|d| d == key),
            "--{key} is read but missing from the usage line"
        );
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse a flag as `T`, or `default` when it is absent.
    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// [`Args::value`], exiting with status 2 and the usage line when the
    /// value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.value(key, default)
            .unwrap_or_else(|e| usage_exit(self.usage, &e))
    }

    /// [`Args::get_or`] for a count that must be at least `min`, exiting
    /// with status 2 and the usage line when it is smaller.
    pub fn get_at_least(&self, key: &str, default: usize, min: usize) -> usize {
        let v = self.get_or(key, default);
        if v < min {
            usage_exit(self.usage, &format!("--{key} must be >= {min}"));
        }
        v
    }
}

/// Print `error` and `usage` to stderr and exit with status 2.
pub fn usage_exit(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

/// Scaled paper protocol: `scale = 1.0` is the laptop default; the paper's
/// full scale corresponds to roughly `scale = 5000`. `scale` must be finite
/// and positive; every count rounds to at least 1.
pub fn scaled_protocol(scale: f64, seed: u64) -> ProtocolConfig {
    let base = ProtocolConfig::default();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "scale is a positive multiplier, so the rounded count is non-negative and far below usize::MAX"
    )]
    let mul = |n: usize| ((n as f64 * scale).round() as usize).max(1);
    ProtocolConfig {
        train_per_topology: mul(base.train_per_topology),
        val_per_topology: mul(base.val_per_topology),
        eval_per_topology: mul(base.eval_per_topology),
        eval_geant2: mul(base.eval_geant2),
        seed,
        ..base
    }
}

/// Cooperative Ctrl-C handling for long-running training binaries: the
/// first SIGINT sets the shared stop flag so the trainer checkpoints and
/// exits cleanly at the next batch boundary instead of losing the run. A
/// second SIGINT means the user wants out *now*: the handler exits
/// immediately with status 130 (128 + SIGINT), skipping the graceful path.
#[cfg_attr(
    unix,
    expect(
        unsafe_code,
        reason = "installing a signal handler and exiting from it need the libc FFI calls signal(2) and _exit(2)"
    )
)]
pub mod interrupt {
    use routenet_core::TrainControl;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    /// Conventional exit status for death-by-SIGINT (128 + signal 2).
    pub const SIGINT_EXIT_CODE: i32 = 130;

    #[cfg(unix)]
    extern "C" fn handle_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic swap on an already-initialized
        // flag (ctrl_c_control initializes it before installing the handler),
        // and on the escalation path `_exit` — which, unlike `std::process::
        // exit`, runs no atexit hooks or destructors and is on POSIX's
        // async-signal-safe list.
        if let Some(flag) = FLAG.get() {
            if flag.swap(true, std::sync::atomic::Ordering::SeqCst) {
                // Second Ctrl-C: the graceful shutdown is taking too long
                // (or is stuck in a retry loop) — bail out immediately.
                unsafe extern "C" {
                    fn _exit(status: i32) -> !;
                }
                unsafe { _exit(SIGINT_EXIT_CODE) }
            }
        }
    }

    /// A [`TrainControl`] whose stop flag is set by the first SIGINT
    /// (Ctrl-C); a second SIGINT exits immediately with
    /// [`SIGINT_EXIT_CODE`]. The handler is installed once; repeated calls
    /// share the same flag. On non-Unix platforms the control is returned
    /// without a handler.
    pub fn ctrl_c_control() -> TrainControl {
        let flag = FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
        #[cfg(unix)]
        {
            const SIGINT: i32 = 2;
            // glibc/musl signal(2); typed handler avoids any pointer casts.
            unsafe extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            unsafe {
                signal(SIGINT, handle_sigint);
            }
        }
        TrainControl::with_flag(Arc::clone(flag))
    }
}

/// Format an evaluation summary as one table row. Rows whose truth fell
/// below [`MIN_TRUTH`](routenet_core::metrics::MIN_TRUTH) are named by an
/// `excluded=` count (omitted when zero), and a set with no row left
/// (`None`) renders as an explicit "no data" row instead of panicking
/// upstream.
pub fn summary_row(label: &str, s: &Option<EvalSummary>) -> String {
    match s {
        Some(s) => {
            let mut row = format!(
                "{label:<22} n={:<7} MAE={:.4}s RMSE={:.4}s MRE={:.3} medRE={:.3} p95RE={:.3} r={:.3} R2={:.3}",
                s.n, s.mae, s.rmse, s.mre, s.median_re, s.p95_re, s.pearson_r, s.r2
            );
            if s.excluded > 0 {
                row.push_str(&format!(" excluded={}", s.excluded));
            }
            row
        }
        None => format!("{label:<22} (no data)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "demo [--scale f] [--epochs n] [--seed n] [--verbose] [--x n]";

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse(&argv, USAGE)
    }

    #[test]
    fn args_parse_flags_and_defaults() {
        let args = parse(&["--scale", "2.5", "--verbose", "--epochs", "7"]).unwrap();
        assert_eq!(args.get_or("scale", 1.0f64), 2.5);
        assert_eq!(args.get_or("epochs", 3usize), 7);
        assert_eq!(args.get("verbose"), Some("true"));
        assert_eq!(args.get_or("seed", 42u64), 42);
    }

    #[test]
    fn later_flags_win() {
        let args = parse(&["--x", "1", "--x", "2"]).unwrap();
        assert_eq!(args.get_or("x", 0i32), 2);
    }

    #[test]
    fn undeclared_keys_and_bad_values_are_rejected() {
        for argv in [&["--help"][..], &["--capacity-mult", "100"], &["stray"]] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with("unknown argument"), "{argv:?}: {err}");
        }
        let args = parse(&["--epochs", "seven", "--scale", "-0.5"]).unwrap();
        assert_eq!(
            args.value("epochs", 3usize).unwrap_err(),
            "invalid value \"seven\" for --epochs"
        );
        assert_eq!(args.value("scale", 1.0f64), Ok(-0.5));
    }

    #[test]
    #[should_panic(expected = "missing from the usage line")]
    fn reading_an_undeclared_key_is_a_bug() {
        let args = parse(&[]).unwrap();
        let _ = args.get("duration");
    }

    #[test]
    fn scaled_protocol_scales_counts() {
        let p = scaled_protocol(0.5, 9);
        let base = ProtocolConfig::default();
        assert_eq!(p.train_per_topology, base.train_per_topology / 2);
        assert_eq!(p.seed, 9);
        // never zero
        let tiny = scaled_protocol(0.0001, 1);
        assert!(tiny.train_per_topology >= 1);
    }
}
