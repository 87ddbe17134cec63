//! Network planning with a learned model (the paper's §3 "network
//! visibility and planning" use case): run cheap what-if analyses that
//! would be too slow with a packet-level simulator in the loop.
//!
//! ```text
//! cargo run --release --example planning
//! ```
//!
//! Two what-ifs on NSFNET:
//! 1. traffic growth sweep — how does worst-path delay grow as demand
//!    scales up, and where is the knee?
//! 2. capacity upgrade — which single link upgrade buys the largest
//!    reduction in predicted mean delay?

use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};
use routenet_netgraph::LinkId;
use std::time::Instant;

fn mean_delay(preds: &[Prediction]) -> f64 {
    preds.iter().map(|p| p.delay_s).sum::<f64>() / preds.len() as f64
}

fn main() {
    println!("simulating 24 NSFNET training scenarios...");
    let mut cfg = GenConfig::new(TopologySpec::Nsfnet, 24, 31);
    cfg.sim.duration_s = 400.0;
    cfg.sim.warmup_s = 40.0;
    cfg.intensity_min = 0.1;
    cfg.intensity_max = 0.9; // cover the whole load range for what-ifs
    let data = generate_dataset(&cfg);

    let mut model = RouteNet::new(RouteNetConfig::default());
    println!("training (18 epochs)...");
    train(
        &mut model,
        &data,
        &[],
        &TrainConfig {
            epochs: 18,
            ..TrainConfig::default()
        },
    )
    .expect("training failed");

    // Baseline scenario: moderate load.
    let base = data[0].scenario.clone();

    // ---- What-if 1: traffic growth sweep -------------------------------
    println!("\n=== what-if: uniform traffic growth ===");
    println!(
        "{:>8} {:>16} {:>16}",
        "growth", "mean delay (ms)", "worst path (ms)"
    );
    let t0 = Instant::now();
    let mut evaluations = 0;
    for growth in [0.5, 0.75, 1.0, 1.25, 1.5, 1.75] {
        let mut what_if = base.clone();
        what_if.traffic.scale(growth);
        let preds = model.predict_scenario(&what_if);
        evaluations += 1;
        let worst = preds.iter().map(|p| p.delay_s).fold(f64::MIN, f64::max);
        println!(
            "{:>7.0}% {:>16.1} {:>16.1}",
            growth * 100.0,
            mean_delay(&preds) * 1e3,
            worst * 1e3
        );
    }

    // ---- What-if 2: which link should we upgrade? ----------------------
    println!("\n=== what-if: single-link capacity upgrade (x4) ===");
    let current = mean_delay(&model.predict_scenario(&base));
    let mut results: Vec<(LinkId, f64)> = Vec::new();
    for (lid, _) in base.graph.links() {
        let mut what_if = base.clone();
        what_if.graph.link_mut(lid).unwrap().capacity_bps *= 4.0;
        // capacity symmetric upgrade of the reverse direction too
        let rev = {
            let l = base.graph.link(lid).unwrap();
            base.graph.link_between(l.dst, l.src)
        };
        if let Some(rev) = rev {
            what_if.graph.link_mut(rev).unwrap().capacity_bps *= 4.0;
        }
        let preds = model.predict_scenario(&what_if);
        evaluations += 1;
        results.push((lid, mean_delay(&preds)));
    }
    results.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("current mean delay: {:.1} ms", current * 1e3);
    println!("top-5 upgrades by predicted mean delay after upgrade:");
    for (lid, d) in results.iter().take(5) {
        let l = base.graph.link(*lid).unwrap();
        println!(
            "  upgrade {}<->{} ({:.0} kbps): {:.1} ms  ({:+.1}%)",
            l.src,
            l.dst,
            l.capacity_bps / 1e3,
            d * 1e3,
            (d - current) / current * 100.0
        );
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "\n{} what-if evaluations in {:.2}s ({:.0} ms each) — the cost profile\n\
         that makes model-in-the-loop planning practical, vs seconds-to-minutes\n\
         per evaluation with a packet-level simulator.",
        evaluations,
        dt,
        dt / evaluations as f64 * 1e3
    );
}
