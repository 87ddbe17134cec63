//! Golden artifact hashes: a tiny fixed-seed training run must produce the
//! same model bytes and the same offline prediction bytes, at every thread
//! count, as when these constants were pinned. Any refactor of the training
//! or prediction kernels that perturbs a single bit of a weight or an answer
//! fails here, so execution-path changes are checked byte for byte.
//!
//! The constants are CRC-32s (`routenet_core::checkpoint::crc32`) of the
//! dataset's JSON lines, of `RouteNet::to_json()` and of the JSON-serialized
//! `predict_batch` answers on the held-out samples. They are never updated to
//! follow a code change: a change that moves them changes what the simulator
//! labels or what the model computes.

use routenet_core::checkpoint::crc32;
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset_with_threads, GenConfig, TopologySpec};

/// CRC-32 of the training data as `save_jsonl` writes it (one JSON line per
/// sample), so a simulator change that moves a single label bit fails here.
const DATASET_CRC: u32 = 0xe2e5_5cfe;
/// CRC-32 of the trained model's JSON serialization.
const MODEL_CRC: u32 = 0x69f1_eaae;
/// CRC-32 of the JSON-serialized held-out `predict_batch` answers.
const PREDICT_CRC: u32 = 0x7e18_7290;

fn tiny_dataset(n: usize, seed: u64) -> Vec<Sample> {
    let mut cfg = GenConfig::new(
        TopologySpec::Synthetic {
            n: 6,
            topo_seed: 13,
        },
        n,
        seed,
    );
    cfg.sim.duration_s = 60.0;
    cfg.sim.warmup_s = 6.0;
    generate_dataset_with_threads(&cfg, 1)
}

fn tiny_model() -> RouteNet {
    RouteNet::new(RouteNetConfig {
        link_state_dim: 8,
        path_state_dim: 8,
        readout_hidden: 16,
        t_iterations: 2,
        predict_jitter: true,
        predict_drops: false,
        seed: 5,
    })
}

/// Train at `threads` workers; return the model and held-out answer hashes.
fn artifacts(data: &[Sample], threads: usize) -> (u32, u32) {
    let (train_set, rest) = data.split_at(6);
    let (val_set, held_out) = rest.split_at(2);
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 4,
        lr: 3e-3,
        threads,
        ..TrainConfig::default()
    };
    let mut model = tiny_model();
    train(&mut model, train_set, val_set, &cfg).unwrap();
    let scenarios: Vec<&Scenario> = held_out.iter().map(|s| &s.scenario).collect();
    let answers = model.predict_batch(&scenarios);
    let answers_json = serde_json::to_string(&answers).unwrap();
    (
        crc32(model.to_json().as_bytes()),
        crc32(answers_json.as_bytes()),
    )
}

#[test]
fn dataset_lines_match_pinned_hash() {
    let mut lines = String::new();
    for sample in tiny_dataset(10, 33) {
        lines.push_str(&serde_json::to_string(&sample).unwrap());
        lines.push('\n');
    }
    let dataset_crc = crc32(lines.as_bytes());
    assert_eq!(
        dataset_crc, DATASET_CRC,
        "dataset bytes changed: {dataset_crc:#010x}"
    );
}

#[test]
fn trained_model_and_answers_match_pinned_hashes() {
    let data = tiny_dataset(10, 33);
    for threads in [1, 2] {
        let (model_crc, predict_crc) = artifacts(&data, threads);
        assert_eq!(
            model_crc, MODEL_CRC,
            "model bytes changed at {threads} thread(s): {model_crc:#010x}"
        );
        assert_eq!(
            predict_crc, PREDICT_CRC,
            "prediction bytes changed at {threads} thread(s): {predict_crc:#010x}"
        );
    }
}
