//! Dataset persistence: JSON-lines files (one sample per line).
//!
//! Writes go through the canonical atomic writer in `routenet-faults`
//! (temp sibling + fsync + rename), so an interrupted generation run can
//! never leave a torn dataset file under the final name. Reads offer a
//! strict mode (default: any bad line aborts the load) and a lenient mode
//! that quarantines bad lines — both counted in the report *and* written
//! verbatim to a `<path>.quarantine` sidecar for inspection — useful for
//! salvaging datasets produced by older, non-atomic writers.
//!
//! Every function has a `_with` variant taking an explicit
//! [`FaultFs`] seam, so the chaos suite can inject torn writes, short
//! reads, and `ENOSPC` into dataset IO deterministically.

use routenet_core::sample::Sample;
use routenet_faults::{atomic_write_with, FaultFs, RealFs};
use std::path::{Path, PathBuf};

/// Errors while reading or writing datasets.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Fs(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        msg: String,
    },
    /// A sample failed structural validation after load.
    Invalid {
        /// 0-based sample index.
        index: usize,
        /// Validation message.
        msg: String,
    },
    /// The final line is not newline-terminated: the writer was interrupted
    /// mid-record, so the tail cannot be trusted.
    TornTail {
        /// 1-based line number of the unterminated line.
        line: usize,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IoError::Invalid { index, msg } => write!(f, "invalid sample {index}: {msg}"),
            IoError::TornTail { line } => write!(
                f,
                "torn tail at line {line}: final line is not newline-terminated"
            ),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

/// Outcome of a lenient load: the recovered samples plus an account of
/// everything that was quarantined.
#[derive(Debug)]
pub struct LenientLoad {
    /// Samples that parsed and validated.
    pub samples: Vec<Sample>,
    /// Number of quarantined lines (parse/validation failures + torn tail).
    pub skipped: usize,
    /// The first error encountered, for diagnostics.
    pub first_error: Option<IoError>,
    /// True if the final line was missing its newline (interrupted write).
    pub torn_tail: bool,
    /// Sidecar file the quarantined raw lines were written to (atomic;
    /// `<path>.quarantine`). `None` when nothing was quarantined or when
    /// writing the sidecar itself failed (the failure is folded into
    /// [`LenientLoad::first_error`]).
    pub quarantine_path: Option<PathBuf>,
}

impl LenientLoad {
    /// Record this load outcome on `tel`: one
    /// [`routenet_obs::Event::DatasetLoad`] event plus quarantine counters.
    pub fn emit_telemetry(&self, tel: &routenet_obs::Telemetry, path: &str) {
        if !tel.enabled() {
            return;
        }
        tel.counter_add("dataset.loads", 1);
        tel.counter_add("dataset.quarantined_lines", self.skipped as u64);
        tel.emit(routenet_obs::Event::DatasetLoad {
            path: path.to_string(),
            loaded: self.samples.len(),
            quarantined: self.skipped,
            torn_tail: self.torn_tail,
        });
    }
}

/// Write samples as JSONL (one JSON object per line) through the atomic
/// writer: the file appears under `path` fully written or not at all.
#[must_use = "an ignored save error means the dataset silently does not exist"]
pub fn save_jsonl(path: impl AsRef<Path>, samples: &[Sample]) -> Result<(), IoError> {
    save_jsonl_with(&RealFs, path.as_ref(), samples)
}

/// [`save_jsonl`] routed through an explicit IO seam.
#[must_use = "an ignored save error means the dataset silently does not exist"]
pub fn save_jsonl_with(fs: &dyn FaultFs, path: &Path, samples: &[Sample]) -> Result<(), IoError> {
    let mut buf = Vec::new();
    for s in samples {
        #[expect(
            clippy::expect_used,
            reason = "in-memory numeric data always serializes; f64 is emitted as a literal"
        )]
        let line = serde_json::to_string(s).expect("samples serialize");
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }
    atomic_write_with(fs, path, &buf)?;
    Ok(())
}

fn parse_line(line: &str, lineno: usize, index: usize) -> Result<Sample, IoError> {
    let mut s: Sample = serde_json::from_str(line).map_err(|e| IoError::Parse {
        line: lineno,
        msg: e.to_string(),
    })?;
    s.finalize();
    s.validate()
        .map_err(|msg| IoError::Invalid { index, msg })?;
    Ok(s)
}

/// Load samples from JSONL, rebuilding indices and validating each sample.
/// Strict: the first bad line (or a torn, newline-less tail) aborts the
/// load with an error. Use [`load_jsonl_lenient`] to salvage instead.
#[must_use = "dropping the result loses both the samples and any corruption diagnosis"]
pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Vec<Sample>, IoError> {
    load_jsonl_with(&RealFs, path.as_ref())
}

/// [`load_jsonl`] routed through an explicit IO seam.
#[must_use = "dropping the result loses both the samples and any corruption diagnosis"]
pub fn load_jsonl_with(fs: &dyn FaultFs, path: &Path) -> Result<Vec<Sample>, IoError> {
    let content = fs.read_to_string(path)?;
    let torn = torn_tail_line(&content);
    let mut out = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        if Some(lineno + 1) == torn {
            return Err(IoError::TornTail { line: lineno + 1 });
        }
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line, lineno + 1, out.len())?);
    }
    Ok(out)
}

/// Load samples from JSONL, quarantining bad lines instead of aborting.
/// Unparseable or invalid lines — and a torn (newline-less) final line —
/// are counted in [`LenientLoad::skipped`] with the first error retained
/// *and* written verbatim to an atomic `<path>.quarantine` sidecar so bad
/// data is inspectable, not just counted. Every salvageable sample is
/// returned. Filesystem errors reading the dataset itself still fail.
#[must_use = "dropping the result loses the salvaged samples and the skip report"]
pub fn load_jsonl_lenient(path: impl AsRef<Path>) -> Result<LenientLoad, IoError> {
    load_jsonl_lenient_with(&RealFs, path.as_ref())
}

/// Sidecar path for quarantined lines: `<path>.quarantine`.
pub fn quarantine_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// [`load_jsonl_lenient`] routed through an explicit IO seam (both the
/// dataset read and the quarantine sidecar write go through `fs`).
#[must_use = "dropping the result loses the salvaged samples and the skip report"]
pub fn load_jsonl_lenient_with(fs: &dyn FaultFs, path: &Path) -> Result<LenientLoad, IoError> {
    let content = fs.read_to_string(path)?;
    let torn = torn_tail_line(&content);
    let mut report = LenientLoad {
        samples: Vec::new(),
        skipped: 0,
        first_error: None,
        torn_tail: false,
        quarantine_path: None,
    };
    let mut quarantined: Vec<u8> = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        if Some(lineno + 1) == torn {
            // An unterminated final line means the writer died mid-record;
            // even if the fragment parses, it cannot be trusted.
            report.torn_tail = true;
            report.skipped += 1;
            report
                .first_error
                .get_or_insert(IoError::TornTail { line: lineno + 1 });
            quarantined.extend_from_slice(line.as_bytes());
            quarantined.push(b'\n');
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, lineno + 1, report.samples.len()) {
            Ok(s) => report.samples.push(s),
            Err(e) => {
                report.skipped += 1;
                report.first_error.get_or_insert(e);
                quarantined.extend_from_slice(line.as_bytes());
                quarantined.push(b'\n');
            }
        }
    }
    if !quarantined.is_empty() {
        let qpath = quarantine_path_for(path);
        match atomic_write_with(fs, &qpath, &quarantined) {
            Ok(()) => report.quarantine_path = Some(qpath),
            // Salvage must not fail because the *report* could not be
            // written; surface the failure through the report instead.
            Err(e) => {
                report.first_error.get_or_insert(IoError::Fs(e));
            }
        }
    }
    Ok(report)
}

/// 1-based line number of a non-empty final line missing its newline
/// terminator, if any.
fn torn_tail_line(content: &str) -> Option<usize> {
    if content.is_empty() || content.ends_with('\n') {
        return None;
    }
    Some(content.lines().count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_dataset_with_threads, GenConfig, TopologySpec};

    fn tiny_dataset() -> Vec<Sample> {
        let mut cfg = GenConfig::new(TopologySpec::Synthetic { n: 5, topo_seed: 9 }, 3, 7);
        cfg.sim.duration_s = 40.0;
        cfg.sim.warmup_s = 4.0;
        generate_dataset_with_threads(&cfg, 1)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.jsonl");
        save_jsonl(&path, &ds).unwrap();
        let back = load_jsonl(&path).unwrap();
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.iter().zip(&back) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.topology, b.topology);
            for (x, y) in a.targets.iter().zip(&b.targets) {
                assert_eq!(x.delay_s, y.delay_s);
                assert_eq!(x.jitter_s2, y.jitter_s2);
            }
            // routing survives (index rebuilt)
            for (s, d) in a.scenario.graph.node_pairs() {
                assert_eq!(a.scenario.routing.path(s, d), b.scenario.routing.path(s, d));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_existing_file_atomically() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.jsonl");
        save_jsonl(&path, &ds).unwrap();
        save_jsonl(&path, &ds[..1]).unwrap();
        assert_eq!(load_jsonl(&path).unwrap().len(), 1);
        // The temp sibling never survives a successful write.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("rn-io-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        std::fs::write(&path, "{not json}\n").unwrap();
        match load_jsonl(&path) {
            Err(IoError::Parse { line: 1, .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_skips_blank_lines() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-blank-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blank.jsonl");
        let mut content = serde_json::to_string(&ds[0]).unwrap();
        content.push_str("\n\n");
        content.push_str(&serde_json::to_string(&ds[1]).unwrap());
        content.push('\n');
        std::fs::write(&path, content).unwrap();
        let back = load_jsonl(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_fs_error() {
        match load_jsonl("/definitely/not/here.jsonl") {
            Err(IoError::Fs(_)) => {}
            other => panic!("expected fs error, got {other:?}"),
        }
    }

    #[test]
    fn strict_load_rejects_torn_tail() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let good = serde_json::to_string(&ds[0]).unwrap();
        // A second record cut off mid-write, with no trailing newline.
        let content = format!("{good}\n{}", &good[..good.len() / 2]);
        std::fs::write(&path, content).unwrap();
        match load_jsonl(&path) {
            Err(IoError::TornTail { line: 2 }) => {}
            other => panic!("expected torn tail, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_quarantines_bad_lines() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-lenient-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let good = serde_json::to_string(&ds[0]).unwrap();
        let content = format!("{good}\n{{corrupt}}\n{good}\n");
        std::fs::write(&path, content).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.skipped, 1);
        assert!(!report.torn_tail);
        match report.first_error {
            Some(IoError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error at line 2, got {other:?}"),
        }
        // The bad line is inspectable in the sidecar, verbatim.
        let qpath = report.quarantine_path.expect("sidecar written");
        assert_eq!(qpath, quarantine_path_for(&path));
        assert_eq!(std::fs::read_to_string(&qpath).unwrap(), "{corrupt}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn samples_routing_no_pairs_are_rejected_and_quarantined() {
        let g = routenet_netgraph::Graph::new("one", 1);
        let routing = routenet_netgraph::routing::shortest_path_routing(&g).unwrap();
        let empty = Sample {
            scenario: routenet_core::Scenario {
                graph: g,
                routing,
                traffic: routenet_netgraph::TrafficMatrix::zeros(1),
            },
            targets: Vec::new(),
            topology: "one".into(),
            intensity: 0.5,
            seed: 0,
        };
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-nopairs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nopairs.jsonl");
        save_jsonl(&path, &[ds[0].clone(), empty]).unwrap();
        match load_jsonl(&path) {
            Err(IoError::Invalid { index: 1, msg }) => assert!(msg.contains("no pairs"), "{msg}"),
            other => panic!("expected invalid sample 1, got {other:?}"),
        }
        let report = load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.samples.len(), 1);
        assert_eq!(report.skipped, 1);
        assert!(report.quarantine_path.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_sidecar_collects_all_bad_lines_and_torn_tail() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-qside-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let good = serde_json::to_string(&ds[0]).unwrap();
        let frag = &good[..good.len() / 2];
        // Two bad lines plus a torn tail fragment; all must land in the
        // sidecar in file order.
        let content = format!("{{bad1}}\n{good}\n{{bad2}}\n{frag}");
        std::fs::write(&path, content).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.samples.len(), 1);
        assert_eq!(report.skipped, 3);
        assert!(report.torn_tail);
        let qpath = report.quarantine_path.expect("sidecar written");
        let sidecar = std::fs::read_to_string(&qpath).unwrap();
        assert_eq!(sidecar, format!("{{bad1}}\n{{bad2}}\n{frag}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_lenient_load_writes_no_sidecar() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-noq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.jsonl");
        save_jsonl(&path, &ds).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        assert!(report.quarantine_path.is_none());
        assert!(!quarantine_path_for(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_quarantines_torn_tail() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-lt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let good = serde_json::to_string(&ds[0]).unwrap();
        // The torn fragment is quarantined even when it happens to parse:
        // here it is a full record missing only its newline.
        let content = format!("{good}\n{good}");
        std::fs::write(&path, content).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.samples.len(), 1);
        assert_eq!(report.skipped, 1);
        assert!(report.torn_tail);
        match report.first_error {
            Some(IoError::TornTail { line: 2 }) => {}
            other => panic!("expected torn tail at line 2, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_telemetry_reports_quarantine() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-tel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        let good = serde_json::to_string(&ds[0]).unwrap();
        let content = format!("{good}\n{{corrupt}}\n{good}\n");
        std::fs::write(&path, content).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        let tel = routenet_obs::Telemetry::in_memory("dataset", "test");
        report.emit_telemetry(&tel, &path.to_string_lossy());
        assert_eq!(tel.counter("dataset.quarantined_lines"), 1);
        let loads: Vec<_> = tel
            .records()
            .into_iter()
            .filter(|r| r.event.kind() == "DatasetLoad")
            .collect();
        assert_eq!(loads.len(), 1);
        match &loads[0].event {
            routenet_obs::Event::DatasetLoad {
                loaded,
                quarantined,
                torn_tail,
                ..
            } => {
                assert_eq!(*loaded, 2);
                assert_eq!(*quarantined, 1);
                assert!(!torn_tail);
            }
            other => panic!("expected DatasetLoad, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_load_of_clean_file_reports_nothing() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join(format!("rn-io-clean-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.jsonl");
        save_jsonl(&path, &ds).unwrap();
        let report = load_jsonl_lenient(&path).unwrap();
        assert_eq!(report.samples.len(), ds.len());
        assert_eq!(report.skipped, 0);
        assert!(report.first_error.is_none());
        assert!(!report.torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }
}
