//! Crash-safe persistence: atomic writes, checksummed containers, and the
//! serializable [`TrainState`] behind checkpoint/resume.
//!
//! Durability model:
//!
//! * **Atomic**: every file is written to a temporary sibling, flushed to
//!   disk, and renamed into place (`routenet_faults::atomic_write_with`). A
//!   crash mid-write can never leave a torn file under the final name —
//!   readers see either the old contents or the new contents, nothing in
//!   between.
//! * **Checksummed**: checkpoint files carry a header with a hand-rolled
//!   CRC32 over the payload ([`write_checksummed_with`] /
//!   [`read_checksummed_with`]), so silent corruption (bit rot, truncated
//!   copies) is detected at load time with a typed error instead of a
//!   garbage model.
//! * **Complete**: [`TrainState`] captures everything a training run needs
//!   to continue bit-identically — parameters, full Adam state (step count
//!   and both moment vectors), the fitted normalizer, the shuffle RNG
//!   state, the loss curve, the best-validation snapshot, and the
//!   divergence-recovery trackers.
//!
//! Every write takes an explicit `routenet_faults::FaultFs` seam, so the
//! fault-injection tests reach it. The dataset writer, the telemetry sink
//! and the binaries' output files call the same `atomic_write_with`, so
//! *all* persistence in the workspace goes through one rename-based path.

use crate::features::Normalizer;
use crate::model::{RouteNet, RouteNetConfig};
use crate::trainer::{EpochStats, RecoveryEvent, TrainConfig};
use routenet_faults::{atomic_write_with, FaultFs, RealFs};
use routenet_nn::optim::Adam;
use routenet_nn::ParamStore;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Magic string opening every checkpoint header line.
pub const MAGIC: &str = "ROUTENET-CKPT";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a checkpoint container (bad magic/header/version).
    Format(String),
    /// The payload is shorter or longer than the header declares.
    Truncated {
        /// Payload length declared by the header.
        expected: usize,
        /// Payload length actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// CRC32 declared by the header.
        expected: u32,
        /// CRC32 of the bytes on disk.
        actual: u32,
    },
    /// The payload failed to deserialize.
    Parse(String),
    /// The checkpoint does not match the model/config it is restored into.
    Incompatible(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(msg) => write!(f, "not a checkpoint file: {msg}"),
            CheckpointError::Truncated { expected, actual } => write!(
                f,
                "checkpoint truncated: header declares {expected} payload bytes, found {actual}"
            ),
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint corrupt: crc32 mismatch (header {expected:08x}, payload {actual:08x})"
            ),
            CheckpointError::Parse(msg) => write!(f, "checkpoint payload invalid: {msg}"),
            CheckpointError::Incompatible(msg) => write!(f, "checkpoint incompatible: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected) — hand-rolled, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(clippy::cast_possible_truncation, reason = "i < 256 fits u32 exactly")]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`. Matches zlib's `crc32` for cross-checking.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((c ^ u32::from(b)) & 0xFF) as usize;
        c = (c >> 8) ^ CRC_TABLE[idx];
    }
    !c
}

// ---------------------------------------------------------------------------
// Checksummed container
// ---------------------------------------------------------------------------

/// Atomically write `payload` through the IO seam `fs`, wrapped in a
/// checksummed container: one ASCII header line
/// (`ROUTENET-CKPT v1 crc32=<hex> len=<n>`) followed by the raw payload
/// bytes.
#[must_use = "an ignored write error means the checkpoint silently does not exist"]
pub fn write_checksummed_with(
    fs: &dyn FaultFs,
    path: &Path,
    payload: &[u8],
) -> Result<(), CheckpointError> {
    let header = format!(
        "{MAGIC} v{FORMAT_VERSION} crc32={:08x} len={}\n",
        crc32(payload),
        payload.len()
    );
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(payload);
    atomic_write_with(fs, path, &bytes)?;
    Ok(())
}

/// Read a container written by [`write_checksummed_with`] through the IO
/// seam `fs`, verifying the length and CRC32 before returning the payload.
#[must_use = "dropping the result loses both the payload and any corruption diagnosis"]
pub fn read_checksummed_with(fs: &dyn FaultFs, path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = fs.read(path)?;
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(CheckpointError::Format("missing header line".into()));
    };
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|e| CheckpointError::Format(format!("header is not ASCII: {e}")))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    let [magic, version, crc_field, len_field] = fields[..] else {
        return Err(CheckpointError::Format(format!(
            "malformed header: {header:?}"
        )));
    };
    if magic != MAGIC {
        return Err(CheckpointError::Format(format!(
            "bad magic {magic:?} (expected {MAGIC:?})"
        )));
    }
    let version_n: u32 = version
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad version field {version:?}")))?;
    if version_n != FORMAT_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported format version {version_n} (this build reads v{FORMAT_VERSION})"
        )));
    }
    let expected_crc = crc_field
        .strip_prefix("crc32=")
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad crc field {crc_field:?}")))?;
    let expected_len: usize = len_field
        .strip_prefix("len=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad len field {len_field:?}")))?;
    let payload = &bytes[nl + 1..];
    if payload.len() != expected_len {
        return Err(CheckpointError::Truncated {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload.to_vec())
}

// ---------------------------------------------------------------------------
// TrainState
// ---------------------------------------------------------------------------

/// A complete snapshot of a training run at an epoch boundary.
///
/// Saving and reloading a `TrainState` and continuing the run produces
/// bit-identical parameters and loss curve to an uninterrupted run (proved
/// by `tests/resume_determinism.rs`). The same struct doubles as the
/// in-memory rollback target for divergence recovery.
///
/// Selection losses that may legitimately be `+inf` (before any epoch has
/// completed) are stored as raw `f64` bits, because JSON cannot represent
/// non-finite floats.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainState {
    /// Container payload version (independent of the header version).
    pub version: u32,
    /// Architecture of the model the parameters belong to.
    pub model_config: RouteNetConfig,
    /// Trainer configuration of the original run (checked on resume).
    pub train_config: TrainConfig,
    /// Current weights.
    pub params: ParamStore,
    /// Normalizer fitted on the training set.
    pub norm: Normalizer,
    /// Full Adam state: current LR, betas, step count, both moment vectors.
    pub opt: Adam,
    /// Shuffle RNG state; restoring continues the stream bit-identically.
    pub rng: [u64; 4],
    /// Next epoch index to run (`epochs.len()` unless epochs were skipped).
    pub epoch_next: usize,
    /// Loss curve of the accepted (non-rolled-back) epochs so far.
    pub epochs: Vec<EpochStats>,
    /// Epoch index with the best selection loss so far.
    pub best_epoch: usize,
    /// Bits of the best selection loss (`f64::to_bits`; `+inf` initially).
    best_loss_bits: u64,
    /// Parameters of the best epoch (`None` before any epoch is accepted).
    pub best_params: Option<ParamStore>,
    /// Divergence-recovery events so far.
    pub recoveries: Vec<RecoveryEvent>,
    /// Rollbacks consumed from the divergence retry budget.
    pub rollbacks: usize,
}

impl TrainState {
    /// Fresh state at epoch 0 for a new training run.
    pub fn new(
        model_config: RouteNetConfig,
        train_config: TrainConfig,
        params: ParamStore,
        norm: Normalizer,
        opt: Adam,
        rng: [u64; 4],
    ) -> Self {
        TrainState {
            version: FORMAT_VERSION,
            model_config,
            train_config,
            params,
            norm,
            opt,
            rng,
            epoch_next: 0,
            epochs: Vec::new(),
            best_epoch: 0,
            best_loss_bits: f64::INFINITY.to_bits(),
            best_params: None,
            recoveries: Vec::new(),
            rollbacks: 0,
        }
    }

    /// Best selection loss so far (`+inf` before any epoch completes).
    pub fn best_loss(&self) -> f64 {
        f64::from_bits(self.best_loss_bits)
    }

    /// Record a new best selection loss.
    pub fn set_best_loss(&mut self, loss: f64) {
        self.best_loss_bits = loss.to_bits();
    }

    /// Atomically save to `path` inside a checksummed container.
    #[must_use = "an ignored save error means resume will restart from an older epoch"]
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_with(&RealFs, path.as_ref())
    }

    /// [`TrainState::save`] routed through an explicit IO seam.
    #[must_use = "an ignored save error means resume will restart from an older epoch"]
    pub fn save_with(&self, fs: &dyn FaultFs, path: &Path) -> Result<(), CheckpointError> {
        let json =
            serde_json::to_string(self).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        write_checksummed_with(fs, path, json.as_bytes())
    }

    /// Load a state saved by [`TrainState::save`], verifying the checksum.
    #[must_use = "dropping the result loses both the restored state and any corruption diagnosis"]
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::load_with(&RealFs, path.as_ref())
    }

    /// [`TrainState::load`] routed through an explicit IO seam.
    #[must_use = "dropping the result loses both the restored state and any corruption diagnosis"]
    pub fn load_with(fs: &dyn FaultFs, path: &Path) -> Result<Self, CheckpointError> {
        let payload = read_checksummed_with(fs, path)?;
        let json = String::from_utf8(payload)
            .map_err(|e| CheckpointError::Parse(format!("payload is not UTF-8: {e}")))?;
        serde_json::from_str(&json).map_err(|e| CheckpointError::Parse(e.to_string()))
    }

    /// Rebuild a usable model from this snapshot (best parameters when
    /// available, else the current ones) — lets `predict`-style tools load
    /// a training checkpoint directly.
    #[must_use = "consumes the snapshot; dropping the result loses the rebuilt model"]
    pub fn into_model(self) -> Result<RouteNet, CheckpointError> {
        let params = self.best_params.unwrap_or(self.params);
        RouteNet::from_parts(self.model_config, params, self.norm)
            .map_err(CheckpointError::Incompatible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values (same as zlib).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join(format!("rn-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        atomic_write_with(&RealFs, &path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_with(&RealFs, &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksummed_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("rn-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.ckpt");
        let payload = b"{\"hello\": [1, 2, 3]}";
        write_checksummed_with(&RealFs, &path, payload).unwrap();
        assert_eq!(read_checksummed_with(&RealFs, &path).unwrap(), payload);

        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match read_checksummed_with(&RealFs, &path) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }

        // Truncate the payload: caught by the length field first.
        write_checksummed_with(&RealFs, &path, payload).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match read_checksummed_with(&RealFs, &path) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }

        // Not a checkpoint at all.
        std::fs::write(&path, b"just some text\nmore text\n").unwrap();
        match read_checksummed_with(&RealFs, &path) {
            Err(CheckpointError::Format(_)) => {}
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
