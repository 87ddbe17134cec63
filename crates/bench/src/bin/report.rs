//! One-shot evaluation report: generates the paper-protocol datasets, trains
//! RouteNet **once**, and writes every figure/table artifact into
//! `results/`.
//!
//! ```text
//! cargo run -p routenet-bench --release --bin report -- \
//!     [--scale 1.0] [--epochs 40] [--seed 1] [--out results]
//! ```
//!
//! Outputs:
//! - `results/fig2.csv` — Fig. 2: (true, predicted) scatter on an unseen
//!   Geant2 sample (slope, intercept, r and R² go to `summary.txt`)
//! - `results/fig3.csv` — Fig. 3: relative-error CDFs per topology and
//!   predictor, plus the paper's all-topology `RouteNet/all` series
//! - `results/fig4.csv` — Fig. 4: Top-10 paths with more delay, with routes
//!   (the overlap with the true top 10 goes to `summary.txt`)
//! - `results/table1.txt` — the §2.1 generalization table: RouteNet vs
//!   M/M/1 vs M/G/1 vs FNN per topology
//! - `results/training.csv` — loss curve
//! - `results/model.json` — the trained checkpoint
//! - `results/summary.txt` — headline numbers
//!
//! The Fig. 2 scatter and Fig. 3 CDFs are also drawn as terminal charts on
//! stderr.

use routenet_bench::{interrupt, run_experiment_with_control, scaled_protocol, summary_row, Args};
use routenet_core::prelude::*;
use routenet_faults::{atomic_write_with, RealFs};
use routenet_netgraph::NodeId;
use routenet_obs::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn write(path: &Path, content: &str) {
    atomic_write_with(&RealFs, path, content.as_bytes())
        .unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    eprintln!("# wrote {}", path.display());
}

const USAGE: &str =
    "report [--scale 1.0] [--epochs 40] [--seed 1] [--out results] [--resume] [--no-telemetry]";

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.get_or("scale", 1.0f64);
    let seed = args.get_or("seed", 1u64);
    let epochs = args.get_at_least("epochs", 40, 1);
    let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("results"));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let protocol = scaled_protocol(scale, seed);
    let tel_path = out_dir.join("report.telemetry.jsonl");
    let tel = if args.get("no-telemetry").is_some() {
        Telemetry::disabled()
    } else {
        Telemetry::to_file("report", &format!("scale={scale} seed={seed}"), &tel_path)
    };
    let ckpt_path = out_dir.join("train-state.ckpt");
    let train_cfg = TrainConfig {
        epochs,
        verbose: true,
        checkpoint_path: Some(ckpt_path.to_string_lossy().into_owned()),
        resume_from: args
            .get("resume")
            .map(|_| ckpt_path.to_string_lossy().into_owned()),
        telemetry: tel.clone(),
        ..TrainConfig::default()
    };
    // Ctrl-C checkpoints the last epoch boundary and exits cleanly; rerun
    // with --resume to continue the run from that checkpoint.
    let control = interrupt::ctrl_c_control();
    let exp = run_experiment_with_control(
        &protocol,
        RouteNetConfig::default(),
        &train_cfg,
        true,
        &control,
    )
    .unwrap_or_else(|e| panic!("training failed: {e}"));
    if exp.report.interrupted {
        eprintln!(
            "# interrupted; training state saved to {} — rerun with --resume to continue",
            ckpt_path.display()
        );
        if let Err(e) = tel.finish() {
            eprintln!("warning: telemetry log incomplete: {e}");
        }
        return;
    }
    let mm1 = Mm1Baseline::default();
    let mg1 = Mg1Baseline::default(); // knows the true (deterministic) size distribution

    // ---- training curve ------------------------------------------------
    let mut s = String::from("epoch,train_loss,val_loss,lr\n");
    for e in &exp.report.epochs {
        writeln!(
            s,
            "{},{:.6},{},{:.2e}",
            e.epoch,
            e.train_loss,
            e.val_loss.map_or("".into(), |v| format!("{v:.6}")),
            e.lr
        )
        .unwrap();
    }
    write(&out_dir.join("training.csv"), &s);

    // ---- model checkpoint ----------------------------------------------
    write(&out_dir.join("model.json"), &exp.model.to_json());

    // ---- fig2: regression scatter on unseen Geant2 ----------------------
    let sample = &exp.data.eval_geant2[0];
    let preds = exp.model.predict_scenario(&sample.scenario);
    let mut s = String::from("true_delay_s,predicted_delay_s\n");
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for (p, t) in preds.iter().zip(&sample.targets) {
        if t.delay_s > 0.0 {
            writeln!(s, "{:.6},{:.6}", t.delay_s, p.delay_s).unwrap();
            xs.push(t.delay_s);
            ys.push(p.delay_s);
        }
    }
    write(&out_dir.join("fig2.csv"), &s);
    let fig2_r2 = routenet_core::metrics::r_squared(&ys, &xs);
    let fig2_r = routenet_core::metrics::pearson(&ys, &xs);
    // Least-squares fit predicted = slope * true + intercept (ideal: 1, 0).
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let fig2_slope = sxy / sxx;
    let fig2_intercept = my - fig2_slope * mx;
    let pts: Vec<(f64, f64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
    eprintln!("# fig2: predicted (y) vs simulated (x) delay, seconds; '.' = ideal diagonal");
    eprint!("{}", routenet_bench::plot::scatter(&pts, 64, 20));

    // ---- fig3: CDFs ------------------------------------------------------
    let mut s = String::from("series,relative_error,cdf\n");
    let sets: [(&str, &Vec<Sample>); 3] = [
        ("NSFNET-14", &exp.data.eval_nsfnet),
        ("Synth-50", &exp.data.eval_synth),
        ("Geant2-24-unseen", &exp.data.eval_geant2),
    ];
    let mut summaries = String::new();
    let mut per_topology = BTreeMap::new();
    for (name, set) in sets {
        for (pname, ev) in [
            ("RouteNet", collect_predictions(&exp.model, set)),
            ("MM1", collect_predictions(&mm1, set)),
        ] {
            let re = relative_errors(&ev.delay_pred, &ev.delay_true);
            for (x, f) in cdf_points(&re, 50) {
                writeln!(s, "{pname}/{name},{x:.6},{f:.4}").unwrap();
            }
            writeln!(
                summaries,
                "{}",
                summary_row(&format!("{pname} {name}"), &ev.delay_summary())
            )
            .unwrap();
            if let Some(j) = ev.jitter_summary() {
                writeln!(
                    summaries,
                    "{}",
                    summary_row(&format!("{pname} {name} [jitter]"), &Some(j))
                )
                .unwrap();
            }
            per_topology.insert(format!("{pname}/{name}"), ev);
        }
    }
    emit_eval_telemetry(&tel, "", &per_topology);
    // The paper's figure aggregates all three topologies.
    let all = collect_predictions(&exp.model, &exp.data.eval_all());
    for (x, f) in cdf_points(&relative_errors(&all.delay_pred, &all.delay_true), 50) {
        writeln!(s, "RouteNet/all,{x:.6},{f:.4}").unwrap();
    }
    writeln!(
        summaries,
        "{}",
        summary_row("RouteNet ALL", &all.delay_summary())
    )
    .unwrap();
    write(&out_dir.join("fig3.csv"), &s);
    let geant2_cdf = |pname: &str| {
        let ev = &per_topology[&format!("{pname}/Geant2-24-unseen")];
        cdf_points(&relative_errors(&ev.delay_pred, &ev.delay_true), 50)
    };
    let (rn_cdf, mm1_cdf) = (geant2_cdf("RouteNet"), geant2_cdf("MM1"));
    eprintln!("# fig3: CDF of relative delay error on UNSEEN Geant2 (right = worse):");
    eprint!(
        "{}",
        routenet_bench::plot::cdf_chart(&[("RouteNet", &rn_cdf), ("M/M/1", &mm1_cdf)], 60, 16)
    );

    // ---- fig4: top-10 ----------------------------------------------------
    let top_n = 10;
    let top = top_n_paths_by_delay(&exp.model, sample, top_n);
    let mut s = String::from("rank,src,dst,predicted_delay_ms,simulated_delay_ms,hops,route\n");
    for (rank, &(src, dst, pred, truth)) in top.iter().enumerate() {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let route: Vec<String> = sample
            .scenario
            .routing
            .node_path(&sample.scenario.graph, src, dst)
            .expect("validated samples route every pair over existing links")
            .iter()
            .map(|n| n.to_string())
            .collect();
        writeln!(
            s,
            "{},{},{},{:.2},{:.2},{},{}",
            rank + 1,
            src.0,
            dst.0,
            pred * 1e3,
            truth * 1e3,
            sample.scenario.routing.hops(src, dst),
            route.join(">")
        )
        .unwrap();
    }
    write(&out_dir.join("fig4.csv"), &s);
    // Ranking quality: how many of the predicted top-N are in the true top-N?
    let mut by_truth: Vec<(usize, f64)> = sample
        .targets
        .iter()
        .map(|t| t.delay_s)
        .enumerate()
        .collect();
    by_truth.sort_by(|a, b| b.1.total_cmp(&a.1));
    let truth_top: Vec<usize> = by_truth.iter().take(top_n).map(|&(i, _)| i).collect();
    let pairs = sample.scenario.pairs();
    let fig4_hits = top
        .iter()
        .filter(|&&(src, dst, _, _)| {
            pairs
                .iter()
                .position(|&(a, b)| a.0 == src && b.0 == dst)
                .is_some_and(|i| truth_top.contains(&i))
        })
        .count();

    // ---- table1 ----------------------------------------------------------
    let nsf_train: Vec<Sample> = exp
        .data
        .train
        .iter()
        .filter(|x| x.topology == "NSFNET")
        .cloned()
        .collect();
    eprintln!("# training FNN baseline on NSFNET...");
    let fnn = FnnBaseline::train(&nsf_train, &FnnConfig::default());
    let mut s = String::new();
    writeln!(
        s,
        "{:<20} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "eval set", "predictor", "n", "MAE(s)", "medRE", "p95RE", "r", "jitMedRE", "jit r"
    )
    .unwrap();
    for (name, set) in [
        ("NSFNET-14 (seen)", &exp.data.eval_nsfnet),
        ("Synth-50 (seen)", &exp.data.eval_synth),
        ("Geant2-24 (UNSEEN)", &exp.data.eval_geant2),
    ] {
        let mut rows: Vec<(&str, Option<PairedEval>)> = vec![
            ("RouteNet", Some(collect_predictions(&exp.model, set))),
            ("M/M/1", Some(collect_predictions(&mm1, set))),
            ("M/G/1", Some(collect_predictions(&mg1, set))),
        ];
        if set.iter().all(|x| fnn.supports(&x.scenario)) {
            rows.push(("FNN", Some(collect_predictions(&fnn, set))));
        } else {
            rows.push(("FNN", None));
        }
        for (pname, ev) in rows {
            match ev {
                Some(ev) => {
                    let d = ev.delay_summary().expect("evaluation sets are non-empty");
                    let (jm, jr) = match ev.jitter_summary() {
                        Some(j) => (format!("{:.3}", j.median_re), format!("{:.3}", j.pearson_r)),
                        None => ("n/a".into(), "n/a".into()),
                    };
                    writeln!(
                        s,
                        "{:<20} {:<10} {:>8} {:>8.4} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>10}",
                        name, pname, d.n, d.mae, d.median_re, d.p95_re, d.pearson_r, jm, jr
                    )
                    .unwrap();
                }
                None => {
                    writeln!(
                        s,
                        "{:<20} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
                        name, pname, "-", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"
                    )
                    .unwrap();
                }
            }
        }
    }
    writeln!(
        s,
        "\nFNN n/a = fixed-input model cannot be applied to other topologies."
    )
    .unwrap();
    write(&out_dir.join("table1.txt"), &s);

    // ---- summary ---------------------------------------------------------
    let mut s = String::new();
    writeln!(s, "RouteNet generalization report").unwrap();
    writeln!(
        s,
        "scale={scale} epochs={epochs} seed={seed} train_samples={} (gen {:.1}s, train {:.1}s)",
        exp.data.train.len(),
        exp.gen_seconds,
        exp.train_seconds
    )
    .unwrap();
    writeln!(s, "model parameters: {}", exp.model.n_parameters()).unwrap();
    writeln!(
        s,
        "best epoch {} val loss {:.5}",
        exp.report.best_epoch, exp.report.best_loss
    )
    .unwrap();
    writeln!(
        s,
        "fig2 (unseen Geant2 sample, intensity={:.3}): n={} slope={fig2_slope:.3} \
         intercept={fig2_intercept:.4}s r={fig2_r:.4} R2={fig2_r2:.4}",
        sample.intensity,
        xs.len()
    )
    .unwrap();
    writeln!(
        s,
        "fig4 top-{top_n} overlap with ground truth: {fig4_hits}/{top_n}"
    )
    .unwrap();
    writeln!(s, "\nper-topology summaries:\n{summaries}").unwrap();
    write(&out_dir.join("summary.txt"), &s);
    println!("{s}");
    if tel.enabled() {
        eprint!("{}", tel.summary_table());
        match tel.finish() {
            Ok(()) => eprintln!("# telemetry -> {}", tel_path.display()),
            Err(e) => eprintln!("warning: telemetry log incomplete: {e}"),
        }
    }
}
