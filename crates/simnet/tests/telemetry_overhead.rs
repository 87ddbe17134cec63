//! Telemetry must be an observer, not a participant: attaching a handle to
//! [`SimConfig`] may not change a single simulated statistic, and the
//! disabled handle may not cost measurable time (the hot loop aggregates in
//! locals and flushes once at run end, so neither variant does per-event
//! telemetry work).
//!
//! The timing assertion is `#[ignore]`d from the default test run because
//! wall-clock comparisons are machine- and load-dependent; `scripts/check.sh`
//! runs it explicitly (release, generous tolerance) as the "disabled
//! telemetry is within noise" gate.

use routenet_netgraph::routing::shortest_path_routing;
use routenet_netgraph::{Graph, NodeId, RoutingScheme, TrafficMatrix};
use routenet_obs::Telemetry;
use routenet_simnet::sim::{simulate, SimConfig};
use routenet_simnet::SimResult;
use std::time::Instant;

fn one_link(cap_bps: f64) -> (Graph, RoutingScheme) {
    let mut g = Graph::new("1link", 2);
    g.add_duplex(NodeId(0), NodeId(1), cap_bps, 0.0).unwrap();
    let r = shortest_path_routing(&g).unwrap();
    (g, r)
}

/// A one-link simulation long enough (tens of thousands of events, a few
/// milliseconds in release) that one run's wall time is not scheduler noise.
fn run(telemetry: Telemetry) -> SimResult {
    let (g, r) = one_link(10_000.0);
    let mut tm = TrafficMatrix::zeros(2);
    tm.set_demand(NodeId(0), NodeId(1), 7_000.0);
    let cfg = SimConfig {
        duration_s: 10_000.0,
        warmup_s: 50.0,
        seed: 11,
        telemetry,
        ..SimConfig::default()
    };
    simulate(&g, &r, &tm, &cfg).unwrap()
}

/// Same seed, with and without a recording handle: every simulated statistic
/// must be bit-identical. Telemetry that perturbs the event stream would
/// silently invalidate the labels it is supposed to observe.
#[test]
fn telemetry_does_not_change_results() {
    let base = run(Telemetry::disabled());
    let tel = Telemetry::in_memory("simnet", "overhead-test");
    let observed = run(tel.clone());
    assert_eq!(base.events_processed, observed.events_processed);
    assert_eq!(base.total_packets, observed.total_packets);
    assert_eq!(base.link_utilization, observed.link_utilization);
    assert_eq!(base.flows.len(), observed.flows.len());
    for (a, b) in base.flows.iter().zip(&observed.flows) {
        assert_eq!(a.mean_delay_s, b.mean_delay_s);
        assert_eq!(a.jitter_s2, b.jitter_s2);
    }
    assert_eq!(tel.counter("sim.events"), base.events_processed);
}

/// Disabled telemetry must be within noise of an enabled in-memory handle.
/// Both variants do zero telemetry work inside the event loop, so their
/// medians differ only by one end-of-run flush; a regression here means
/// someone put per-event telemetry on the hot path. The variants run
/// interleaved after a warm-up of each, so a slow stretch of the host lands
/// on both rather than on one variant's early runs. Tolerance is generous
/// (35%) because wall-clock medians are noisy under CI load.
#[test]
#[ignore = "wall-clock comparison; run explicitly via scripts/check.sh"]
fn disabled_telemetry_within_noise_of_enabled() {
    let timed = |telemetry: Telemetry| -> f64 {
        let t0 = Instant::now();
        let res = run(telemetry);
        assert!(res.events_processed > 0);
        t0.elapsed().as_secs_f64()
    };
    let enabled = || Telemetry::in_memory("simnet", "overhead");
    // Warm both paths (page cache, lazy init, CPU frequency) before timing.
    for _ in 0..2 {
        timed(Telemetry::disabled());
        timed(enabled());
    }
    let (mut disabled_s, mut enabled_s) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        disabled_s.push(timed(Telemetry::disabled()));
        enabled_s.push(timed(enabled()));
    }
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let (disabled, enabled) = (median(disabled_s), median(enabled_s));
    assert!(
        disabled <= enabled * 1.35,
        "disabled-telemetry sim ({disabled:.4}s) slower than enabled ({enabled:.4}s) beyond noise"
    );
}
