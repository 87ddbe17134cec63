//! Criterion benches for the E5 cost experiment: RouteNet inference vs.
//! packet-level simulation vs. analytic M/M/1, per topology size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use routenet_core::prelude::*;
use routenet_dataset::gen::{generate_sample, GenConfig, TopologySpec};

fn scenarios() -> Vec<(String, Sample)> {
    [
        (TopologySpec::Nsfnet, "nsfnet14"),
        (TopologySpec::Geant2, "geant2_24"),
        (
            TopologySpec::Synthetic {
                n: 50,
                topo_seed: 2019,
            },
            "synth50",
        ),
    ]
    .into_iter()
    .map(|(spec, name)| {
        let mut cfg = GenConfig::new(spec, 1, 3);
        // Short labeling run: the bench re-simulates separately.
        cfg.sim.duration_s = 50.0;
        cfg.sim.warmup_s = 5.0;
        (name.to_string(), generate_sample(&cfg, 0))
    })
    .collect()
}

fn model() -> RouteNet {
    let mut m = RouteNet::new(RouteNetConfig::default());
    m.set_normalizer(Normalizer {
        capacity_scale: 40_000.0,
        traffic_scale: 500.0,
        ..Normalizer::default()
    });
    m
}

fn bench_inference(c: &mut Criterion) {
    let model = model();
    let mut group = c.benchmark_group("routenet_inference");
    group.sample_size(20);
    for (name, sample) in scenarios() {
        // Pre-compiled: the cost of the forward pass alone.
        let compiled = model.compile(&sample.scenario);
        group.bench_with_input(BenchmarkId::new("forward", &name), &compiled, |b, comp| {
            b.iter(|| model.predict_batch_compiled(&[comp]));
        });
        // End-to-end: compile + forward (what a fresh scenario costs).
        group.bench_with_input(BenchmarkId::new("end_to_end", &name), &sample, |b, s| {
            b.iter(|| model.predict_scenario(&s.scenario));
        });
    }
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_simulation");
    group.sample_size(10);
    for (name, sample) in scenarios() {
        let cfg = routenet_simnet::sim::SimConfig {
            duration_s: 100.0,
            warmup_s: 10.0,
            ..routenet_simnet::sim::SimConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("sim100s", &name), &sample, |b, s| {
            b.iter(|| {
                routenet_simnet::sim::simulate(
                    &s.scenario.graph,
                    &s.scenario.routing,
                    &s.scenario.traffic,
                    &cfg,
                )
                .unwrap()
            });
        });
        // Telemetry-enabled variant: the delta vs `sim100s` is the whole
        // cost of observability (one SimRun flush per run; the event loop
        // itself does no telemetry work). Eyeball that it stays in noise.
        let tel_cfg = routenet_simnet::sim::SimConfig {
            telemetry: routenet_obs::Telemetry::in_memory("bench", &name),
            ..cfg.clone()
        };
        group.bench_with_input(
            BenchmarkId::new("sim100s_telemetry", &name),
            &sample,
            |b, s| {
                b.iter(|| {
                    routenet_simnet::sim::simulate(
                        &s.scenario.graph,
                        &s.scenario.routing,
                        &s.scenario.traffic,
                        &tel_cfg,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_mm1(c: &mut Criterion) {
    let mm1 = Mm1Baseline::default();
    let mut group = c.benchmark_group("analytic_mm1");
    for (name, sample) in scenarios() {
        group.bench_with_input(BenchmarkId::new("predict", &name), &sample, |b, s| {
            b.iter(|| mm1.predict(&s.scenario));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference, bench_simulation, bench_mm1);
criterion_main!(benches);
