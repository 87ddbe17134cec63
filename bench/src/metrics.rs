//! Collecting a run's results: metric readings, attempt and failure
//! counts, percentile helpers, process counters and the dataset digest.

use crate::spec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One metric value with its unit and the number of samples behind it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reading {
    pub value: f64,
    pub unit: String,
    pub n: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Reading>,
    pub attempted: u64,
    pub failed: u64,
    /// Facts that are not metrics: digests, percentile definitions,
    /// validity of the open-loop phase.
    pub info: BTreeMap<String, String>,
}

impl Report {
    /// Record metric `name`; its unit comes from the spec.
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        self.metrics.insert(
            name.to_string(),
            Reading {
                // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
                value: value + 0.0,
                unit: spec.unit.to_string(),
                n,
            },
        );
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` failed operations and say why on stderr.
    pub fn fail(&mut self, n: u64, why: impl std::fmt::Display) {
        self.failed += n;
        eprintln!("bench-ledger: {n} op(s) failed: {why}");
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.info.insert(key.to_string(), value.into());
    }
}

/// Report `latencies_ms` as `op_p50_ms` and `op_tail_ms`, the workload's
/// `tail` percentile, and say in the run's notes which percentile that is.
pub fn set_latencies(rep: &mut Report, latencies_ms: &[f64], tail: f64) {
    let lat = sorted(latencies_ms);
    let n = lat.len() as u64;
    rep.set("op_p50_ms", nearest_rank(&lat, 0.5), n);
    rep.set("op_tail_ms", nearest_rank(&lat, tail), n);
    rep.note("op_tail", format!("p{:.0} of {n}", 100.0 * tail));
}

/// Nearest-rank `q`-quantile of an ascending slice (0 on empty input).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so spreads
/// printed here match the ones computed from the run results elsewhere.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values);
    let ld = d.len();
    if ld == 0 {
        return (0.0, 0.0, 0.0);
    }
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time and minor page faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcTimes {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl ProcTimes {
    /// Read `/proc/self/stat` (clock ticks at the kernel's fixed 100 Hz).
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, starting at `state`.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0.0))
            .collect();
        let get = |i: usize| f.get(i).copied().unwrap_or(0.0);
        ProcTimes {
            minor_faults: get(7),
            user_s: get(11) / 100.0,
            sys_s: get(12) / 100.0,
        }
    }

    pub fn since(self, start: ProcTimes) -> ProcTimes {
        ProcTimes {
            user_s: self.user_s - start.user_s,
            sys_s: self.sys_s - start.sys_s,
            minor_faults: self.minor_faults - start.minor_faults,
        }
    }
}

/// CRC-32 (IEEE), continuing from `crc` (start with 0).
pub fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }
}
