//! Model tooling: load a checkpoint, predict over a JSONL dataset, emit CSV
//! predictions and accuracy (when labels are present).
//!
//! ```text
//! cargo run -p routenet-bench --release --bin predict -- \
//!     --model model.json --data eval.jsonl [--out predictions.csv]
//! ```

use routenet_bench::{summary_row, usage_exit, Args};
use routenet_core::prelude::*;
use routenet_dataset::io::load_jsonl;
use routenet_faults::FsHandle;
use routenet_serve::load_model;
use std::fmt::Write as _;
use std::path::Path;

const USAGE: &str = "predict --model <model.json|train-state.ckpt> --data <jsonl> [--out <csv>]";

fn main() {
    let args = Args::from_env(USAGE);
    let (Some(model_path), Some(data_path)) = (args.get("model"), args.get("data")) else {
        usage_exit(USAGE, "--model and --data are required");
    };
    let model = load_model(&FsHandle::default(), Path::new(model_path)).unwrap_or_else(|e| {
        eprintln!("{model_path}: {e}");
        std::process::exit(1);
    });
    let data = load_jsonl(data_path).unwrap_or_else(|e| {
        eprintln!("failed to load {data_path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "model: {} params, T={}, predicting over {} samples",
        model.n_parameters(),
        model.config().t_iterations,
        data.len()
    );

    let mut csv = String::from(
        "sample,topology,src,dst,predicted_delay_s,predicted_jitter_s2,true_delay_s,true_jitter_s2\n",
    );
    for (i, s) in data.iter().enumerate() {
        let preds = model.predict_scenario(&s.scenario);
        for (((src, dst), p), t) in s.scenario.pairs().iter().zip(&preds).zip(&s.targets) {
            writeln!(
                csv,
                "{i},{},{},{},{:.6},{:.8},{:.6},{:.8}",
                s.topology, src.0, dst.0, p.delay_s, p.jitter_s2, t.delay_s, t.jitter_s2
            )
            .unwrap();
        }
    }
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &csv).unwrap_or_else(|e| {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {out}");
        }
        None => print!("{csv}"),
    }

    let ev = collect_predictions(&model, &data);
    if !ev.is_empty() {
        eprintln!("{}", summary_row("delay", &ev.delay_summary()));
        if let Some(j) = ev.jitter_summary() {
            eprintln!("{}", summary_row("jitter", &Some(j)));
        }
    }
}
