//! Chaos suite: deterministic fault schedules injected into the IO seam
//! while the gen → train → checkpoint → resume pipeline runs. The contract,
//! asserted under every schedule in the pinned corpus:
//!
//! 1. the run either completes, or fails with a *typed* error — never a
//!    panic;
//! 2. whatever checkpoint file is left on disk loads cleanly (the atomic
//!    write protocol guarantees old bytes or new bytes, never a torn
//!    prefix);
//! 3. resuming from that checkpoint on a healthy filesystem lands
//!    bit-for-bit on the uninterrupted reference run;
//! 4. transient faults are absorbed by the retry layer without changing
//!    any result;
//! 5. telemetry faults never perturb training (pure-observer property) and
//!    dataset write faults never corrupt the previous file.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;

use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset_with_threads, GenConfig, TopologySpec};
use routenet_dataset::io::{load_jsonl, load_jsonl_with, save_jsonl_with, IoError};
use routenet_faults::{
    FaultKind, FaultPlan, FaultRule, FsHandle, OpKind, RealFs, RecordingSleeper, RetryPolicy,
};
use routenet_obs::Telemetry;

fn tiny_dataset(n: usize, seed: u64) -> Vec<Sample> {
    let mut cfg = GenConfig::new(
        TopologySpec::Synthetic {
            n: 6,
            topo_seed: 11,
        },
        n,
        seed,
    );
    cfg.sim.duration_s = 50.0;
    cfg.sim.warmup_s = 5.0;
    generate_dataset_with_threads(&cfg, 1)
}

fn tiny_model() -> RouteNet {
    RouteNet::new(RouteNetConfig {
        link_state_dim: 6,
        path_state_dim: 6,
        readout_hidden: 12,
        t_iterations: 2,
        predict_jitter: true,
        predict_drops: false,
        seed: 7,
    })
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 2,
        lr: 3e-3,
        ..TrainConfig::default()
    }
}

fn tmp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rn-chaos-{tag}-{}.{ext}", std::process::id()))
}

/// The pinned corpus: named schedules covering every catalog fault on the
/// checkpoint write path, plus seeded schedules spraying faults over all
/// seam operations. Each schedule is fully deterministic — re-running the
/// suite replays exactly the same failures.
fn corpus() -> Vec<(String, FaultPlan)> {
    let mut c: Vec<(String, FaultPlan)> = vec![
        (
            "torn-ckpt-write".into(),
            FaultPlan::new().rule(
                FaultRule::nth(2, FaultKind::TornWrite { keep_bytes: 64 })
                    .on_op(OpKind::Write)
                    .on_path("ckpt"),
            ),
        ),
        (
            "enospc-ckpt-create".into(),
            FaultPlan::new().rule(
                FaultRule::nth(2, FaultKind::Enospc)
                    .on_op(OpKind::Create)
                    .on_path("ckpt"),
            ),
        ),
        (
            "fail-ckpt-rename".into(),
            FaultPlan::new().rule(
                FaultRule::nth(2, FaultKind::FailRename)
                    .on_op(OpKind::Rename)
                    .on_path("ckpt"),
            ),
        ),
        (
            "eio-ckpt-fsync".into(),
            FaultPlan::new().rule(
                FaultRule::nth(3, FaultKind::FailFsync)
                    .on_op(OpKind::Fsync)
                    .on_path("ckpt"),
            ),
        ),
        (
            "hard-interrupted-no-retry".into(),
            FaultPlan::new().rule(
                FaultRule::nth(2, FaultKind::Interrupted)
                    .on_op(OpKind::Write)
                    .on_path("ckpt"),
            ),
        ),
    ];
    for seed in [1u64, 2, 3, 5, 8] {
        c.push((format!("seeded-{seed}"), FaultPlan::seeded(seed, 3)));
    }
    c
}

#[test]
fn chaos_corpus_completes_or_fails_typed_with_loadable_checkpoint() {
    let data = tiny_dataset(6, 33);
    let (train_set, val_set) = data.split_at(5);
    let base = base_cfg();

    // Reference: the same run with a healthy filesystem and no checkpoints.
    let mut reference = tiny_model();
    let ref_report = train(&mut reference, train_set, val_set, &base).expect("reference run");

    for (name, plan) in corpus() {
        let ckpt = tmp_path(&name, "ckpt");
        std::fs::remove_file(&ckpt).ok();
        let (fs, plan) = FsHandle::faulty(plan);
        let schedule = plan.describe();
        let cfg = TrainConfig {
            checkpoint_path: Some(ckpt.to_string_lossy().into_owned()),
            fs,
            ..base.clone()
        };
        let mut model = tiny_model();

        // Contract 1: complete or typed error — never a panic.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            train(&mut model, train_set, val_set, &cfg)
        }));
        let outcome = match outcome {
            Ok(r) => r,
            Err(_) => panic!("schedule `{name}` {schedule} panicked"),
        };
        match outcome {
            Ok(report) => {
                // Faults that the run survived (or that never fired) must
                // not have changed the training computation.
                assert_eq!(
                    report.epochs, ref_report.epochs,
                    "schedule `{name}` {schedule} perturbed a completed run"
                );
            }
            Err(e) => {
                assert!(
                    matches!(e, TrainError::Checkpoint(_)),
                    "schedule `{name}` {schedule}: expected a typed checkpoint error, got: {e}"
                );
                assert!(
                    plan.fired_count() > 0,
                    "schedule `{name}` errored without any injected fault"
                );
            }
        }

        // Contract 2 + 3: any checkpoint left behind loads cleanly, and a
        // healthy-filesystem resume from it is bit-identical to the
        // reference run.
        if ckpt.exists() {
            TrainState::load(&ckpt).unwrap_or_else(|e| {
                panic!("schedule `{name}` {schedule} left a corrupt checkpoint: {e}")
            });
            let mut resumed = tiny_model();
            let cfg_resume = TrainConfig {
                resume_from: Some(ckpt.to_string_lossy().into_owned()),
                ..base.clone()
            };
            let resumed_report = train(&mut resumed, train_set, val_set, &cfg_resume)
                .unwrap_or_else(|e| {
                    panic!("schedule `{name}`: resume from surviving checkpoint failed: {e}")
                });
            assert_eq!(
                resumed_report.epochs, ref_report.epochs,
                "schedule `{name}`: resumed loss curve diverged from the reference"
            );
            assert_eq!(
                resumed.store(),
                reference.store(),
                "schedule `{name}`: resumed parameters diverged from the reference"
            );
        }
        std::fs::remove_file(&ckpt).ok();
    }
}

#[test]
fn transient_faults_are_absorbed_by_retry_without_changing_results() {
    let data = tiny_dataset(6, 33);
    let (train_set, val_set) = data.split_at(5);
    let base = base_cfg();

    let mut reference = tiny_model();
    let ref_report = train(&mut reference, train_set, val_set, &base).expect("reference run");

    // The first two write attempts of the first checkpoint save are
    // interrupted; the default policy (4 attempts) absorbs both.
    let plan = FaultPlan::new()
        .rule(
            FaultRule::nth(1, FaultKind::Interrupted)
                .on_op(OpKind::Write)
                .on_path("ckpt"),
        )
        .rule(
            FaultRule::nth(2, FaultKind::Interrupted)
                .on_op(OpKind::Write)
                .on_path("ckpt"),
        );
    let (faulty, plan) = FsHandle::faulty(plan);
    let sleeper = Arc::new(RecordingSleeper::new());
    let fs = faulty.with_retry(
        RetryPolicy::default(),
        Arc::clone(&sleeper) as Arc<dyn routenet_faults::Sleeper>,
    );

    let ckpt = tmp_path("retry", "ckpt");
    std::fs::remove_file(&ckpt).ok();
    let cfg = TrainConfig {
        checkpoint_path: Some(ckpt.to_string_lossy().into_owned()),
        fs,
        ..base.clone()
    };
    let mut model = tiny_model();
    let report = train(&mut model, train_set, val_set, &cfg)
        .expect("transient faults under retry must not fail the run");

    // Both injected faults fired and were retried on the pinned backoff
    // schedule (10ms, then 20ms) — and the results are unchanged.
    assert_eq!(plan.fired_count(), 2);
    assert_eq!(
        sleeper.slept(),
        vec![
            std::time::Duration::from_millis(10),
            std::time::Duration::from_millis(20)
        ]
    );
    assert_eq!(report.epochs, ref_report.epochs);
    assert_eq!(model.store(), reference.store());
    let state = TrainState::load(&ckpt).expect("checkpoint written through retry loads");
    assert!(state.opt.steps() > 0);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn dataset_write_faults_are_typed_and_leave_the_old_file_intact() {
    let data = tiny_dataset(3, 5);
    let path = tmp_path("dataset", "jsonl");
    std::fs::remove_file(&path).ok();

    // A healthy save first, so a later faulted save has old bytes to protect.
    save_jsonl_with(&RealFs, &path, &data).expect("healthy save");
    let before = std::fs::read(&path).expect("read saved dataset");

    let (fs, plan) = FsHandle::faulty(
        FaultPlan::new()
            .rule(FaultRule::nth(1, FaultKind::TornWrite { keep_bytes: 10 }).on_op(OpKind::Write)),
    );
    let err = save_jsonl_with(fs.fs(), &path, &data).expect_err("torn write must surface");
    assert!(
        matches!(err, IoError::Fs(_)),
        "expected a typed fs error, got: {err:?}"
    );
    assert_eq!(plan.fired_count(), 1);

    // Old bytes survived the torn write, and they still parse.
    assert_eq!(std::fs::read(&path).expect("read after fault"), before);
    assert_eq!(load_jsonl(&path).expect("old file still loads").len(), 3);

    // A short read surfaces as a typed parse error, never a panic.
    let (fs, _plan) = FsHandle::faulty(
        FaultPlan::new()
            .rule(FaultRule::nth(1, FaultKind::ShortRead { keep_bytes: 40 }).on_op(OpKind::Read)),
    );
    let err = load_jsonl_with(fs.fs(), &path).expect_err("short read must surface");
    assert!(
        matches!(
            err,
            IoError::Parse { .. }
                | IoError::Fs(_)
                | IoError::Invalid { .. }
                | IoError::TornTail { .. }
        ),
        "expected a typed error, got: {err:?}"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn telemetry_faults_never_perturb_training() {
    let data = tiny_dataset(6, 33);
    let (train_set, val_set) = data.split_at(5);
    let base = base_cfg();

    let mut reference = tiny_model();
    let ref_report = train(&mut reference, train_set, val_set, &base).expect("reference run");

    // Every telemetry log write fails. Training must not notice: the sink
    // degrades to counting drops and the run completes byte-identically.
    let log = tmp_path("telemetry", "jsonl");
    std::fs::remove_file(&log).ok();
    let (fs, plan) = FsHandle::faulty(
        FaultPlan::new().rule(FaultRule::every(1, FaultKind::Eio).on_op(OpKind::Create)),
    );
    let tel = Telemetry::to_file_with_fs("chaos", "telemetry-faults", &log, fs);
    let cfg = TrainConfig {
        telemetry: tel.clone(),
        ..base.clone()
    };
    let mut model = tiny_model();
    let report = train(&mut model, train_set, val_set, &cfg)
        .expect("telemetry faults must never fail training");

    // Pure-observer property: the report and the parameters are exactly
    // the no-telemetry reference, down to serialized bytes.
    let ref_bytes = serde_json::to_string(&ref_report).expect("serialize reference report");
    let got_bytes = serde_json::to_string(&report).expect("serialize chaos report");
    assert_eq!(got_bytes, ref_bytes);
    assert_eq!(model.store(), reference.store());

    // The failure is surfaced, not swallowed: finish() reports the write
    // errors and drop counts, and no partial log file was published.
    assert!(plan.fired_count() > 0, "no telemetry fault ever fired");
    let err = tel
        .finish()
        .expect_err("finish must report the degraded sink");
    let msg = err.to_string();
    assert!(
        msg.contains("telemetry write(s) failed"),
        "unclear finish error: {msg}"
    );
    assert!(tel.write_errors() > 0);
    assert!(tel.dropped_events() > 0);
    assert!(
        !log.exists(),
        "a faulted sink must not publish a partial log"
    );
    std::fs::remove_file(&log).ok();
}
