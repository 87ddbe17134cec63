//! The strict-flag contract every binary in this package shares: a flag its
//! usage line does not declare, or a number that does not parse, stops the
//! run with exit status 2 and the usage line on stderr, before the binary
//! reads an input or writes a file.

use std::path::{Path, PathBuf};
use std::process::Command;

/// One binary: its executable, the arguments that get it past its
/// required-flag checks (pointing at inputs that do not exist, so a run
/// that gets past flag parsing fails with status 1), and every flag it
/// parses as a number.
struct Bin {
    name: &'static str,
    exe: &'static str,
    required: &'static [&'static str],
    numeric: &'static [&'static str],
}

const BINS: &[Bin] = &[
    Bin {
        name: "cost",
        exe: env!("CARGO_BIN_EXE_cost"),
        required: &[],
        numeric: &["reps"],
    },
    Bin {
        name: "gen-dataset",
        exe: env!("CARGO_BIN_EXE_gen-dataset"),
        required: &[],
        numeric: &[
            "samples",
            "seed",
            "intensity-min",
            "intensity-max",
            "duration",
            "synth-nodes",
        ],
    },
    Bin {
        name: "predict",
        exe: env!("CARGO_BIN_EXE_predict"),
        required: &["--model", "/nonexistent", "--data", "/nonexistent"],
        numeric: &[],
    },
    Bin {
        name: "probe",
        exe: env!("CARGO_BIN_EXE_probe"),
        required: &[],
        numeric: &[],
    },
    Bin {
        name: "report",
        exe: env!("CARGO_BIN_EXE_report"),
        required: &[],
        numeric: &["scale", "epochs", "seed"],
    },
    Bin {
        name: "routenet-serve",
        exe: env!("CARGO_BIN_EXE_routenet-serve"),
        required: &["--model", "/nonexistent", "--listen", "127.0.0.1:0"],
        numeric: &["queue-cap", "max-batch", "batch-window-us", "cache-cap"],
    },
    Bin {
        name: "serve-loadgen",
        exe: env!("CARGO_BIN_EXE_serve-loadgen"),
        required: &["--data", "/nonexistent", "--out", "out.jsonl"],
        numeric: &["repeat", "concurrency", "window"],
    },
    Bin {
        name: "simulate",
        exe: env!("CARGO_BIN_EXE_simulate"),
        required: &[],
        numeric: &["nodes", "seed", "duration", "warmup", "intensity"],
    },
    Bin {
        name: "train-model",
        exe: env!("CARGO_BIN_EXE_train-model"),
        required: &["--train", "/nonexistent"],
        numeric: &[
            "epochs",
            "lr",
            "batch",
            "threads",
            "t-iterations",
            "dim",
            "seed",
        ],
    },
    Bin {
        name: "validate-telemetry",
        exe: env!("CARGO_BIN_EXE_validate-telemetry"),
        required: &["--log", "/nonexistent"],
        numeric: &[],
    },
];

/// Run `bin` with its required arguments plus `extra` in a fresh, empty
/// working directory; require exit 2, the usage line on stderr, and an
/// empty directory afterwards.
fn assert_rejected(bin: &Bin, case: &str, extra: &[&str]) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{case}", bin.name));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin.exe)
        .args(bin.required)
        .args(extra)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{} {extra:?} must exit 2; stderr:\n{stderr}",
        bin.name
    );
    assert!(
        stderr.contains(&format!("usage: {}", bin.name)),
        "{} {extra:?} must print its usage line; stderr:\n{stderr}",
        bin.name
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(
        written.is_empty(),
        "{} {extra:?} wrote {written:?}",
        bin.name
    );
}

#[test]
fn the_table_lists_every_binary_in_the_package() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(bin_dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            path.file_stem().unwrap().to_string_lossy().into_owned()
        })
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = BINS.iter().map(|b| b.name).collect();
    assert_eq!(on_disk, listed);
}

#[test]
fn every_binary_rejects_an_undeclared_flag() {
    for bin in BINS {
        assert_rejected(bin, "undeclared", &["--no-such-flag"]);
    }
}

#[test]
fn every_binary_rejects_an_unparseable_number() {
    for bin in BINS {
        for key in bin.numeric {
            assert_rejected(bin, key, &[&format!("--{key}"), "not-a-number"]);
        }
    }
}

/// Flags that parse but name a value the run cannot use: each must be
/// rejected like an unparseable one, before a model loads or a sample is
/// generated, instead of panicking or spinning in a worker.
const OUT_OF_RANGE: &[(&str, &[&str])] = &[
    ("routenet-serve", &["--max-batch", "0"]),
    ("routenet-serve", &["--queue-cap", "0"]),
    ("routenet-serve", &["--cache-cap", "0"]),
    (
        "gen-dataset",
        &["--intensity-min", "0.9", "--intensity-max", "0.1"],
    ),
    ("gen-dataset", &["--intensity-min", "0"]),
    ("gen-dataset", &["--intensity-min", "NaN"]),
    ("gen-dataset", &["--intensity-max", "inf"]),
    ("gen-dataset", &["--duration", "0"]),
    ("gen-dataset", &["--duration", "-5"]),
    ("gen-dataset", &["--duration", "NaN"]),
    (
        "gen-dataset",
        &["--topology", "synth", "--synth-nodes", "2"],
    ),
    ("simulate", &["--intensity", "0"]),
    ("simulate", &["--intensity", "-1"]),
    ("simulate", &["--intensity", "NaN"]),
    ("simulate", &["--topology", "synth", "--nodes", "2"]),
    ("simulate", &["--duration", "0"]),
    ("simulate", &["--duration", "NaN"]),
    ("simulate", &["--warmup", "-1"]),
    ("simulate", &["--warmup", "500"]),
    ("train-model", &["--dim", "0"]),
    ("train-model", &["--t-iterations", "0"]),
    ("train-model", &["--epochs", "0"]),
    ("train-model", &["--batch", "0"]),
    ("train-model", &["--lr", "0"]),
    ("train-model", &["--lr", "NaN"]),
    ("report", &["--epochs", "0"]),
    ("report", &["--scale", "0"]),
    ("report", &["--scale", "-1"]),
    ("report", &["--scale", "NaN"]),
    ("report", &["--scale", "inf"]),
    ("cost", &["--reps", "0"]),
    ("serve-loadgen", &["--repeat", "0"]),
    ("serve-loadgen", &["--concurrency", "0"]),
    ("serve-loadgen", &["--window", "0"]),
];

#[test]
fn out_of_range_values_are_rejected() {
    for (i, (name, extra)) in OUT_OF_RANGE.iter().enumerate() {
        let bin = BINS.iter().find(|b| b.name == *name).unwrap();
        assert_rejected(bin, &format!("range{i}"), extra);
    }
}
