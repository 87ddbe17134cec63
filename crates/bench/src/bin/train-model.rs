//! Model tooling: train a RouteNet on JSONL datasets and save a checkpoint.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin train-model -- \
//!     --train train.jsonl [--val val.jsonl] --out model.json \
//!     [--epochs 30] [--lr 2e-3] [--batch 8] [--t-iterations 4] [--dim 16]
//! ```
//!
//! Pairs with `gen-dataset` and `predict` for a complete file-based
//! workflow without writing any Rust.

use routenet_bench::{interrupt, usage_exit, Args};
use routenet_core::prelude::*;
use routenet_dataset::io::{load_jsonl, load_jsonl_lenient};
use routenet_faults::{atomic_write_with, RealFs};
use routenet_obs::Telemetry;
use std::path::Path;

const USAGE: &str = "train-model --train <jsonl> [--val <jsonl>] [--out model.json] [--lenient] \
                     [--epochs 30] [--lr 2e-3] [--batch 8] [--threads 0] [--t-iterations 4] \
                     [--dim 16] [--seed 2019] [--checkpoint <ckpt>] [--resume-from <ckpt>] \
                     [--no-telemetry]";

fn main() {
    let args = Args::from_env(USAGE);
    let Some(train_path) = args.get("train") else {
        usage_exit(USAGE, "--train is required");
    };
    let lenient = args.get("lenient").is_some();
    let out = args.get("out").unwrap_or("model.json").to_string();
    // Every number parses and the training values validate before the
    // telemetry log is created, so a bad value exits 2 without writing a
    // file.
    let dim = args.get_at_least("dim", 16, 2);
    let t_iterations = args.get_at_least("t-iterations", 4, 1);
    let model_cfg = RouteNetConfig {
        link_state_dim: dim,
        path_state_dim: dim,
        readout_hidden: 2 * dim,
        t_iterations,
        predict_jitter: true,
        predict_drops: false,
        seed: args.get_or("seed", 2019u64),
    };
    let mut cfg = TrainConfig {
        epochs: args.get_or("epochs", 30usize),
        batch_size: args.get_or("batch", 8usize),
        lr: args.get_or("lr", 2e-3f64),
        threads: args.get_or("threads", 0usize),
        verbose: true,
        checkpoint_path: args.get("checkpoint").map(str::to_string),
        resume_from: args.get("resume-from").map(str::to_string),
        ..TrainConfig::default()
    };
    cfg.validate()
        .unwrap_or_else(|e| usage_exit(USAGE, &e.to_string()));
    // Telemetry log rides next to the model artifact; `--no-telemetry` opts
    // out (e.g. when the output directory is read-only).
    let tel = if args.get("no-telemetry").is_some() {
        Telemetry::disabled()
    } else {
        Telemetry::to_file("train-model", &out, format!("{out}.telemetry.jsonl"))
    };
    cfg.telemetry = tel.clone();
    let load = |path: &str| -> Vec<Sample> {
        if lenient {
            match load_jsonl_lenient(path) {
                Ok(r) => {
                    if r.skipped > 0 {
                        // skipped > 0 implies a recorded first error.
                        let first = r
                            .first_error
                            .as_ref()
                            .expect("skip list records its first error");
                        eprintln!(
                            "warning: {path}: quarantined {} bad line(s){}; first error: {first}",
                            r.skipped,
                            if r.torn_tail { " (torn tail)" } else { "" },
                        );
                    }
                    r.emit_telemetry(&tel, path);
                    r.samples
                }
                Err(e) => {
                    eprintln!("failed to load {path}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            load_jsonl(path).unwrap_or_else(|e| {
                eprintln!("failed to load {path}: {e}");
                std::process::exit(1);
            })
        }
    };

    let train_set = load(train_path);
    let val_set = match args.get("val") {
        Some(p) => load(p),
        None => Vec::new(),
    };
    eprintln!(
        "loaded {} training / {} validation samples",
        train_set.len(),
        val_set.len()
    );

    let mut model = RouteNet::new(model_cfg);
    // Ctrl-C checkpoints (when --checkpoint is set) and exits cleanly.
    let control = interrupt::ctrl_c_control();
    let report = train_with_control(&mut model, &train_set, &val_set, &cfg, &control)
        .unwrap_or_else(|e| {
            eprintln!("training failed: {e}");
            std::process::exit(1);
        });
    for r in &report.recoveries {
        eprintln!(
            "recovered from {} at epoch {} (lr {:.2e} -> {:.2e})",
            r.reason, r.epoch, r.lr_before, r.lr_after
        );
    }
    if report.interrupted {
        eprintln!(
            "interrupted; training state checkpointed — rerun with --resume-from to continue"
        );
        finish_telemetry(&tel, &out);
        return;
    }
    eprintln!(
        "best epoch {} (loss {:.5}); saving {out}",
        report.best_epoch, report.best_loss
    );
    atomic_write_with(&RealFs, Path::new(&out), model.to_json().as_bytes()).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    println!("model with {} parameters -> {out}", model.n_parameters());
    finish_telemetry(&tel, &out);
}

fn finish_telemetry(tel: &Telemetry, out: &str) {
    if !tel.enabled() {
        return;
    }
    if let Err(e) = tel.finish() {
        eprintln!("warning: telemetry log incomplete: {e}");
    } else {
        eprintln!("# telemetry -> {out}.telemetry.jsonl");
    }
}
