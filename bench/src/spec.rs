//! The benchmark's vocabulary, read from `BENCHMARK.json` at the
//! repository root: the workloads, and every metric with its unit and
//! direction. The binary emits exactly these names; `Report::set` refuses
//! any other, and the schema test checks that each one is emitted.

use serde::Deserialize;
use std::sync::OnceLock;

/// The benchmark definition at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Deserialize)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `higher` or `lower`: the direction of an improvement.
    pub better: String,
    /// End-to-end metrics only: the share of the old median by which the
    /// metric may worsen before a change counts as a regression.
    #[serde(default)]
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct Definition {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub fn def() -> &'static Definition {
    static DEF: OnceLock<Definition> = OnceLock::new();
    DEF.get_or_init(|| serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses"))
}

pub fn is_workload(name: &str) -> bool {
    def().workloads.iter().any(|w| w.name == name)
}

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    let d = def();
    d.end_to_end
        .iter()
        .chain(&d.per_layer)
        .find(|m| m.name == name)
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn expected(trace: bool) -> &'static [MetricDef] {
    if trace {
        &def().per_layer
    } else {
        &def().end_to_end
    }
}

/// Per-layer metrics that are derived from other measurements rather than
/// measured directly; the run output labels them.
pub const DERIVED: [&str; 3] = [
    "serve.queue_wait_ms",
    "serve.transport_ms",
    "train.core_efficiency",
];
