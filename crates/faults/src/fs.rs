//! The filesystem IO seam: one trait covering every disk operation the
//! workspace performs, a zero-cost passthrough, a fault-injecting
//! implementation, a per-operation retry decorator, and the canonical
//! atomic-write protocol built on top of the seam.
//!
//! This module is the **only** library code in the workspace allowed to
//! touch `std::fs` directly; clippy's `disallowed_methods` and
//! `disallowed_types` lints (configured in `clippy.toml`) deny direct use
//! elsewhere.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "this module is the IO seam itself: the one place that wraps std::fs"
)]

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::plan::{FaultKind, FaultPlan, OpKind};
use crate::retry::{retry_io, RetryPolicy, Sleeper, ThreadSleeper};

/// The seam: every filesystem operation the RouteNet crates perform.
///
/// Files are handled by whole-buffer operations plus an opaque writer token
/// so the injecting impl can tear writes deterministically without holding
/// OS state of its own.
pub trait FaultFs: Send + Sync + std::fmt::Debug {
    /// Create (truncate) `path` for writing; returns a writer token for
    /// [`FaultFs::write_all`] / [`FaultFs::sync_all`].
    fn create(&self, path: &Path) -> std::io::Result<FsFile>;
    /// Write `bytes` to the open file.
    fn write_all(&self, file: &mut FsFile, bytes: &[u8]) -> std::io::Result<()>;
    /// Flush the open file's contents to stable storage.
    fn sync_all(&self, file: &mut FsFile) -> std::io::Result<()>;
    /// Rename `from` to `to` (atomic within a filesystem).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Read the whole file at `path`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Read the whole file at `path` as UTF-8.
    fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
        let bytes = self.read(path)?;
        String::from_utf8(bytes).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("not UTF-8: {e}"))
        })
    }
    /// Length in bytes of the file at `path`.
    fn metadata_len(&self, path: &Path) -> std::io::Result<u64>;
    /// Flush the directory entry at `dir` to stable storage (best-effort on
    /// platforms where directories cannot be opened).
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// An open file handle flowing through the seam. The path is retained so
/// injecting implementations can apply path predicates to writes and
/// fsyncs, not just to opens.
#[derive(Debug)]
pub struct FsFile {
    file: File,
    path: PathBuf,
}

impl FsFile {
    /// Path this handle was created for.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Zero-cost passthrough: every seam operation maps 1:1 to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl FaultFs for RealFs {
    fn create(&self, path: &Path) -> std::io::Result<FsFile> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FsFile {
            file,
            path: path.to_path_buf(),
        })
    }

    fn write_all(&self, file: &mut FsFile, bytes: &[u8]) -> std::io::Result<()> {
        file.file.write_all(bytes)
    }

    fn sync_all(&self, file: &mut FsFile) -> std::io::Result<()> {
        file.file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn metadata_len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // Directory fsync is a durability nicety; platforms that cannot
        // open directories simply skip it.
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

/// Fault-injecting seam: consults a [`FaultPlan`] before every operation
/// and applies the fired [`FaultKind`] (error out, tear the write, truncate
/// the read) before delegating the un-faulted remainder to [`RealFs`].
#[derive(Debug)]
pub struct InjectFs {
    plan: Arc<FaultPlan>,
    real: RealFs,
}

impl InjectFs {
    /// Wrap `plan` around the real filesystem.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        InjectFs { plan, real: RealFs }
    }

    /// The plan this seam consults (for fired-fault assertions).
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    fn gate(&self, op: OpKind, path: &Path) -> std::io::Result<Option<FaultKind>> {
        match self.plan.check(op, path) {
            None => Ok(None),
            // Shape-changing faults are returned for the caller to apply.
            Some(k @ (FaultKind::TornWrite { .. } | FaultKind::ShortRead { .. })) => Ok(Some(k)),
            Some(k) => Err(k.to_error()),
        }
    }
}

impl FaultFs for InjectFs {
    fn create(&self, path: &Path) -> std::io::Result<FsFile> {
        self.gate(OpKind::Create, path)?;
        self.real.create(path)
    }

    fn write_all(&self, file: &mut FsFile, bytes: &[u8]) -> std::io::Result<()> {
        let path = file.path.clone();
        match self.gate(OpKind::Write, &path)? {
            Some(FaultKind::TornWrite { keep_bytes }) => {
                let keep = keep_bytes.min(bytes.len());
                self.real.write_all(file, &bytes[..keep])?;
                // Make the torn prefix visible on disk the way a crash
                // would, then report the failure.
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "best-effort flush of a deliberately torn write; the injected error below is the outcome under test"
                )]
                let _ = self.real.sync_all(file);
                Err(FaultKind::TornWrite { keep_bytes }.to_error())
            }
            _ => self.real.write_all(file, bytes),
        }
    }

    fn sync_all(&self, file: &mut FsFile) -> std::io::Result<()> {
        let path = file.path.clone();
        self.gate(OpKind::Fsync, &path)?;
        self.real.sync_all(file)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.gate(OpKind::Rename, to)?;
        self.real.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.gate(OpKind::Remove, path)?;
        self.real.remove_file(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        match self.gate(OpKind::Read, path)? {
            Some(FaultKind::ShortRead { keep_bytes }) => {
                let mut bytes = self.real.read(path)?;
                bytes.truncate(keep_bytes);
                Ok(bytes)
            }
            _ => self.real.read(path),
        }
    }

    fn metadata_len(&self, path: &Path) -> std::io::Result<u64> {
        self.gate(OpKind::Metadata, path)?;
        self.real.metadata_len(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.gate(OpKind::SyncDir, dir)?;
        self.real.sync_dir(dir)
    }
}

/// Per-operation retry decorator: wraps an inner seam and retries each
/// operation under a [`RetryPolicy`]. Whole-buffer writes restart from a
/// re-created file, so a retried `create`+`write_all` sequence cannot
/// duplicate bytes; partial-write faults surface as non-transient errors
/// and are never retried.
#[derive(Debug)]
pub struct RetryFs {
    inner: Arc<dyn FaultFs>,
    policy: RetryPolicy,
    sleeper: Arc<dyn Sleeper>,
}

impl RetryFs {
    /// Wrap `inner` with `policy`, sleeping via `sleeper` between attempts.
    pub fn new(inner: Arc<dyn FaultFs>, policy: RetryPolicy, sleeper: Arc<dyn Sleeper>) -> Self {
        RetryFs {
            inner,
            policy,
            sleeper,
        }
    }
}

impl FaultFs for RetryFs {
    fn create(&self, path: &Path) -> std::io::Result<FsFile> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.create(path)
        })
    }

    fn write_all(&self, file: &mut FsFile, bytes: &[u8]) -> std::io::Result<()> {
        // Transient write errors (injected EINTR) fail before any bytes
        // land, so re-issuing the whole buffer is safe. Partial writes are
        // non-transient by construction and fall straight through.
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.write_all(file, bytes)
        })
    }

    fn sync_all(&self, file: &mut FsFile) -> std::io::Result<()> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.sync_all(file)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.rename(from, to)
        })
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.remove_file(path)
        })
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.read(path)
        })
    }

    fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.read_to_string(path)
        })
    }

    fn metadata_len(&self, path: &Path) -> std::io::Result<u64> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.metadata_len(path)
        })
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        retry_io(&self.policy, self.sleeper.as_ref(), || {
            self.inner.sync_dir(dir)
        })
    }
}

/// Cheap-clone handle to a seam implementation, designed to sit inside
/// configs the way the `Telemetry` handle does: `Default` is the real
/// filesystem with the default retry policy, and equality always holds so
/// a `#[serde(skip)]` handle never perturbs config comparison or resume
/// compatibility.
#[derive(Debug, Clone)]
pub struct FsHandle(Arc<dyn FaultFs>);

impl Default for FsHandle {
    fn default() -> Self {
        FsHandle(Arc::new(RetryFs::new(
            Arc::new(RealFs),
            RetryPolicy::default(),
            Arc::new(ThreadSleeper),
        )))
    }
}

impl PartialEq for FsHandle {
    fn eq(&self, _other: &Self) -> bool {
        // The seam is wiring, not data: two configs differing only in fs
        // handle are the same config.
        true
    }
}

impl FsHandle {
    /// The real filesystem, no retry.
    pub fn real() -> Self {
        FsHandle(Arc::new(RealFs))
    }

    /// A fault-injecting handle over `plan`; the returned plan handle is
    /// for post-run fired-fault assertions.
    pub fn faulty(plan: FaultPlan) -> (Self, Arc<FaultPlan>) {
        let plan = Arc::new(plan);
        (FsHandle(Arc::new(InjectFs::new(Arc::clone(&plan)))), plan)
    }

    /// Wrap any existing seam implementation.
    pub fn from_fs(fs: Arc<dyn FaultFs>) -> Self {
        FsHandle(fs)
    }

    /// Stack a retry decorator on this handle.
    pub fn with_retry(self, policy: RetryPolicy, sleeper: Arc<dyn Sleeper>) -> Self {
        FsHandle(Arc::new(RetryFs::new(self.0, policy, sleeper)))
    }

    /// The underlying seam implementation.
    pub fn fs(&self) -> &dyn FaultFs {
        self.0.as_ref()
    }
}

impl std::ops::Deref for FsHandle {
    type Target = dyn FaultFs;

    fn deref(&self) -> &Self::Target {
        self.0.as_ref()
    }
}

/// Monotonic per-process counter appended to atomic-write temp names so
/// concurrent writers targeting the same path never share a temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The canonical crash-safe write protocol, shared by `core::checkpoint`
/// and the `routenet-obs` file sink:
///
/// 1. write the full payload to a sibling temp file
///    (`.{name}.tmp.{pid}.{seq}` — pid *and* a per-process atomic counter,
///    so concurrent writers cannot clobber each other's temp),
/// 2. fsync the temp file,
/// 3. atomically rename it over the destination,
/// 4. best-effort fsync of the parent directory.
///
/// On any failure the temp file is removed (best-effort) and the
/// destination is untouched: readers see the old bytes or the new bytes,
/// never a prefix.
#[must_use = "an ignored error means the destination may still hold the old bytes"]
pub fn atomic_write_with(fs: &dyn FaultFs, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(".{name}.tmp.{}.{seq}", std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };

    let result = (|| -> std::io::Result<()> {
        let mut file = fs.create(&tmp)?;
        fs.write_all(&mut file, bytes)?;
        fs.sync_all(&mut file)?;
        drop(file);
        fs.rename(&tmp, path)?;
        if let Some(d) = dir {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "directory fsync is best-effort durability hardening; the data file itself is already synced"
            )]
            let _ = fs.sync_dir(d);
        }
        Ok(())
    })();

    if result.is_err() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup of the temp file on the failure path; the original error is what matters"
        )]
        let _ = fs.remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultRule, Trigger};
    use crate::retry::RecordingSleeper;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "routenet-faults-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn atomic_write_roundtrips_through_real_fs() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("out.bin");
        atomic_write_with(&RealFs, &path, b"hello").expect("atomic write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"hello");
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_write_leaves_destination_untouched() {
        let dir = tmp_dir("torn");
        let path = dir.join("out.bin");
        atomic_write_with(&RealFs, &path, b"original").expect("seed write");

        let plan = FaultPlan::new()
            .rule(FaultRule::nth(1, FaultKind::TornWrite { keep_bytes: 3 }).on_op(OpKind::Write));
        let (fs, plan) = FsHandle::faulty(plan);
        let err = atomic_write_with(fs.fs(), &path, b"replacement");
        assert!(err.is_err());
        assert_eq!(plan.fired_count(), 1);
        // Old contents survive; no torn prefix is visible at the real path.
        assert_eq!(std::fs::read(&path).expect("read back"), b"original");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn failed_rename_preserves_old_contents_and_cleans_temp() {
        let dir = tmp_dir("rename");
        let path = dir.join("out.bin");
        atomic_write_with(&RealFs, &path, b"v1").expect("seed write");

        let plan =
            FaultPlan::new().rule(FaultRule::nth(1, FaultKind::FailRename).on_op(OpKind::Rename));
        let (fs, _plan) = FsHandle::faulty(plan);
        assert!(atomic_write_with(fs.fs(), &path, b"v2").is_err());
        assert_eq!(std::fs::read(&path).expect("read back"), b"v1");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn short_read_truncates_bytes() {
        let dir = tmp_dir("shortread");
        let path = dir.join("data.txt");
        std::fs::write(&path, b"0123456789").expect("seed write");
        let plan = FaultPlan::new()
            .rule(FaultRule::nth(1, FaultKind::ShortRead { keep_bytes: 4 }).on_op(OpKind::Read));
        let (fs, _plan) = FsHandle::faulty(plan);
        assert_eq!(fs.read(&path).expect("short read"), b"0123");
        // Second read is clean.
        assert_eq!(fs.read(&path).expect("clean read"), b"0123456789");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn retry_handle_recovers_from_transient_create_failures() {
        let dir = tmp_dir("retry");
        let path = dir.join("out.bin");
        let plan = FaultPlan::new().rule(FaultRule {
            op: Some(OpKind::Create),
            path_contains: None,
            trigger: Trigger::Nth(1),
            kind: FaultKind::Interrupted,
        });
        let sleeper = Arc::new(RecordingSleeper::new());
        let (fs, plan) = FsHandle::faulty(plan);
        let fs = fs.with_retry(
            RetryPolicy::default(),
            Arc::clone(&sleeper) as Arc<dyn Sleeper>,
        );
        atomic_write_with(fs.fs(), &path, b"persisted").expect("retried write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"persisted");
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(sleeper.slept().len(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn hard_faults_pass_through_retry_unchanged() {
        let dir = tmp_dir("hard");
        let path = dir.join("out.bin");
        let plan = FaultPlan::new().rule(FaultRule {
            op: Some(OpKind::Create),
            path_contains: None,
            trigger: Trigger::Nth(1),
            kind: FaultKind::Enospc,
        });
        let sleeper = Arc::new(RecordingSleeper::new());
        let (fs, _plan) = FsHandle::faulty(plan);
        let fs = fs.with_retry(
            RetryPolicy::default(),
            Arc::clone(&sleeper) as Arc<dyn Sleeper>,
        );
        assert!(atomic_write_with(fs.fs(), &path, b"x").is_err());
        assert!(sleeper.slept().is_empty(), "hard fault must not be retried");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn concurrent_atomic_writes_to_same_path_do_not_collide() {
        let dir = tmp_dir("concurrent");
        let path = dir.join("shared.bin");
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let payload = vec![i; 4096];
                    atomic_write_with(&RealFs, &path, &payload).expect("atomic write");
                })
            })
            .collect();
        for t in threads {
            t.join().expect("writer thread");
        }
        // Whatever writer won, the file is one intact 4096-byte payload.
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes.len(), 4096);
        assert!(bytes.windows(2).all(|w| w[0] == w[1]), "mixed payloads");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fs_handle_equality_is_always_true() {
        let (faulty, _) = FsHandle::faulty(FaultPlan::new());
        assert_eq!(FsHandle::default(), FsHandle::real());
        assert_eq!(FsHandle::real(), faulty);
    }
}
