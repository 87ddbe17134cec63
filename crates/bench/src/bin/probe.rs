//! Dev probe: how far is the analytic M/M/1 baseline from simulator labels
//! under different traffic processes? (No training involved.)

use routenet_bench::{summary_row, Args};
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_dataset, GenConfig, TopologySpec};
use routenet_simnet::sim::{ArrivalProcess, SizeDistribution};

/// No flags: any argument, `--help` included, is a usage error.
const USAGE: &str = "probe";

fn main() {
    Args::from_env(USAGE);
    let mm1 = Mm1Baseline::default();
    let configs: Vec<(&str, ArrivalProcess, SizeDistribution)> = vec![
        (
            "poisson+exp (M/M/1 exact)",
            ArrivalProcess::Poisson,
            SizeDistribution::Exponential,
        ),
        (
            "poisson+det (M/D/1)",
            ArrivalProcess::Poisson,
            SizeDistribution::Deterministic,
        ),
        (
            "onoff(2,2)+exp",
            ArrivalProcess::OnOff {
                on_mean_s: 2.0,
                off_mean_s: 2.0,
            },
            SizeDistribution::Exponential,
        ),
        (
            "onoff(10,10)+exp",
            ArrivalProcess::OnOff {
                on_mean_s: 10.0,
                off_mean_s: 10.0,
            },
            SizeDistribution::Exponential,
        ),
        (
            "onoff(10,10)+det",
            ArrivalProcess::OnOff {
                on_mean_s: 10.0,
                off_mean_s: 10.0,
            },
            SizeDistribution::Deterministic,
        ),
        (
            "onoff(5,20)+det (peaky)",
            ArrivalProcess::OnOff {
                on_mean_s: 5.0,
                off_mean_s: 20.0,
            },
            SizeDistribution::Deterministic,
        ),
    ];
    for (name, arr, size) in configs {
        let mut cfg = GenConfig::new(TopologySpec::Nsfnet, 8, 77);
        cfg.sim.arrivals = arr;
        cfg.sim.size_dist = size;
        cfg.intensity_min = 0.4;
        cfg.intensity_max = 0.8;
        let ds = generate_dataset(&cfg);
        let ev = collect_predictions(&mm1, &ds);
        println!("{}", summary_row(name, &ev.delay_summary()));
        if let Some(j) = ev.jitter_summary() {
            println!("{}", summary_row(&format!("{name} [jitter]"), &Some(j)));
        }
    }
}
