//! Two-run determinism: dataset generation must be byte-identical for the
//! same seed. This is the contract clippy's hash-iteration lints
//! (`iter_over_hash_type` and the `clippy.toml` disallowed methods) guard
//! statically — any hash-order dependence in topology generation,
//! routing, traffic sampling, simulation, or label assembly shows up here as
//! a serialized-sample mismatch.

use proptest::prelude::*;
use routenet_dataset::gen::{generate_sample, GenConfig, TopologySpec};

/// A small-but-real recipe: synthetic scale-free topology (exercises the
/// EdgeSet/BTreeSet generator paths), short simulation for test speed.
fn tiny_config(base_seed: u64) -> GenConfig {
    let mut cfg = GenConfig::new(
        TopologySpec::Synthetic {
            n: 10,
            topo_seed: base_seed ^ 0x5eed,
        },
        2,
        base_seed,
    );
    cfg.sim.duration_s = 4.0;
    cfg.sim.warmup_s = 0.5;
    cfg
}

/// Serialize every sample of a full generation run to one JSON string.
fn run_bytes(cfg: &GenConfig) -> String {
    let mut out = String::new();
    for i in 0..cfg.n_samples {
        let sample = generate_sample(cfg, i);
        out.push_str(&serde_json::to_string(&sample).expect("sample serializes"));
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn generation_is_byte_identical_across_runs(base_seed in 0u64..1_000) {
        let a = run_bytes(&tiny_config(base_seed));
        let b = run_bytes(&tiny_config(base_seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_datasets(base_seed in 0u64..1_000) {
        let a = run_bytes(&tiny_config(base_seed));
        let b = run_bytes(&tiny_config(base_seed + 1));
        prop_assert_ne!(a, b);
    }
}
