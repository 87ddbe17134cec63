//! Deterministic fault schedules: *which* operation fails, *when*, and *how*.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultRule`]s plus per-rule match
//! counters. Every seam operation is presented to the plan; each rule whose
//! predicate matches (operation kind, path substring, and a fault kind that
//! is meaningful for the operation) advances its counter, and the first rule
//! whose [`Trigger`] condition is met fires its [`FaultKind`]. Replaying the
//! same operation sequence against the same plan fires the same faults —
//! the property the chaos corpus is built on.

#![expect(
    clippy::disallowed_types,
    reason = "a plan's match counters are shared by every clone of the seam handle it is installed into"
)]

use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The seam operations a fault can target (see [`crate::FaultFs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Creating (truncating) a file for writing.
    Create,
    /// Writing a buffer to an open file.
    Write,
    /// Flushing file contents to stable storage (`fsync`).
    Fsync,
    /// Renaming a file (the atomic-write publish step).
    Rename,
    /// Removing a file (temp-file cleanup).
    Remove,
    /// Reading a whole file.
    Read,
    /// Querying a file's length.
    Metadata,
    /// Flushing a directory entry to stable storage.
    SyncDir,
}

impl OpKind {
    /// Lowercase name for logs and schedule descriptions.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
            OpKind::Read => "read",
            OpKind::Metadata => "metadata",
            OpKind::SyncDir => "sync_dir",
        }
    }
}

/// The fault catalog: what an injected failure looks like to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the disk is full. Hard failure, never retried.
    Enospc,
    /// `EIO`: the device misbehaved. Hard failure, never retried.
    Eio,
    /// `EINTR`-style transient failure; the retry policy may retry it.
    Interrupted,
    /// Write only the first `keep_bytes` bytes, then fail: the torn-write
    /// crash shape that atomic rename must make invisible to readers.
    TornWrite {
        /// Bytes actually written before the failure.
        keep_bytes: usize,
    },
    /// Return only the first `keep_bytes` bytes of the file, simulating a
    /// truncated read of a longer file.
    ShortRead {
        /// Bytes returned to the reader.
        keep_bytes: usize,
    },
    /// The rename publishing an atomic write fails.
    FailRename,
    /// `fsync` fails (contents may or may not be durable).
    FailFsync,
}

impl FaultKind {
    /// Whether this fault is meaningful for `op` (a torn write can only
    /// happen on a write, a short read only on a read, and so on). The
    /// plain error kinds apply to every operation.
    pub fn applies_to(&self, op: OpKind) -> bool {
        match self {
            FaultKind::TornWrite { .. } => op == OpKind::Write,
            FaultKind::ShortRead { .. } => op == OpKind::Read,
            FaultKind::FailRename => op == OpKind::Rename,
            FaultKind::FailFsync => matches!(op, OpKind::Fsync | OpKind::SyncDir),
            FaultKind::Enospc | FaultKind::Eio | FaultKind::Interrupted => true,
        }
    }

    /// The `io::Error` the seam surfaces for this fault. `ShortRead` never
    /// errors (it truncates the returned bytes instead), so it maps to a
    /// generic injected-fault error should a caller force it down the error
    /// path.
    pub fn to_error(&self) -> std::io::Error {
        match self {
            FaultKind::Enospc => err_no(28, "injected ENOSPC"),
            FaultKind::Eio => err_no(5, "injected EIO"),
            FaultKind::Interrupted => std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected EINTR (transient)",
            ),
            FaultKind::TornWrite { keep_bytes } => std::io::Error::other(format!(
                "injected torn write: failed after {keep_bytes} bytes"
            )),
            FaultKind::ShortRead { keep_bytes } => std::io::Error::other(format!(
                "injected short read: only {keep_bytes} bytes available"
            )),
            FaultKind::FailRename => std::io::Error::other("injected rename failure"),
            FaultKind::FailFsync => std::io::Error::other("injected fsync failure"),
        }
    }

    /// Short name for logs and schedule descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::Interrupted => "interrupted",
            FaultKind::TornWrite { .. } => "torn-write",
            FaultKind::ShortRead { .. } => "short-read",
            FaultKind::FailRename => "fail-rename",
            FaultKind::FailFsync => "fail-fsync",
        }
    }
}

/// OS-numbered error with an explanatory message; on non-Unix targets the
/// raw number is dropped and a plain error carries the message.
fn err_no(raw: i32, msg: &'static str) -> std::io::Error {
    #[cfg(unix)]
    {
        // Preserve the real errno so callers see the same ErrorKind they
        // would under a genuine disk-full / device error.
        let _ = msg;
        std::io::Error::from_raw_os_error(raw)
    }
    #[cfg(not(unix))]
    {
        let _ = raw;
        std::io::Error::other(msg)
    }
}

/// When a matching rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on the Nth matching operation only (1-based).
    Nth(u64),
    /// Fire on every Kth matching operation (the Kth, 2Kth, ...).
    EveryK(u64),
}

/// One schedule entry: a predicate over seam operations plus a trigger and
/// the fault to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Restrict to one operation kind (`None` = any operation the fault
    /// kind applies to).
    pub op: Option<OpKind>,
    /// Restrict to paths containing this substring (`None` = any path).
    pub path_contains: Option<String>,
    /// When the rule fires, counted over *matching* operations.
    pub trigger: Trigger,
    /// The fault injected when the trigger condition is met.
    pub kind: FaultKind,
}

impl FaultRule {
    /// Rule matching every operation `kind` applies to, firing on the Nth
    /// match (1-based). Narrow it with [`FaultRule::on_op`] /
    /// [`FaultRule::on_path`].
    pub fn nth(n: u64, kind: FaultKind) -> Self {
        FaultRule {
            op: None,
            path_contains: None,
            trigger: Trigger::Nth(n.max(1)),
            kind,
        }
    }

    /// Rule firing on every Kth match.
    pub fn every(k: u64, kind: FaultKind) -> Self {
        FaultRule {
            op: None,
            path_contains: None,
            trigger: Trigger::EveryK(k.max(1)),
            kind,
        }
    }

    /// Restrict the rule to one operation kind.
    pub fn on_op(mut self, op: OpKind) -> Self {
        self.op = Some(op);
        self
    }

    /// Restrict the rule to paths containing `substring`.
    pub fn on_path(mut self, substring: &str) -> Self {
        self.path_contains = Some(substring.to_string());
        self
    }

    fn matches(&self, op: OpKind, path: &str) -> bool {
        if !self.kind.applies_to(op) {
            return false;
        }
        if let Some(want) = self.op {
            if want != op {
                return false;
            }
        }
        if let Some(sub) = &self.path_contains {
            if !path.contains(sub.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Record of one injected fault, for post-run assertions and logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Index of the rule that fired.
    pub rule: usize,
    /// The operation the fault was injected into.
    pub op: OpKind,
    /// Path of the faulted operation.
    pub path: String,
    /// The injected fault.
    pub kind: FaultKind,
}

#[derive(Debug, Default)]
struct PlanState {
    /// Matching-operation count per rule (trigger arithmetic runs on this).
    matched: Vec<u64>,
    /// Every fault fired so far, in firing order.
    fired: Vec<FiredFault>,
}

/// A deterministic fault schedule with interior match counters, shared by
/// every clone of the [`crate::FsHandle`] it is installed into.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    state: Mutex<PlanState>,
}

fn lock(m: &Mutex<PlanState>) -> MutexGuard<'_, PlanState> {
    // Fault bookkeeping must never compound a failure: a poisoned lock
    // (impossible in this module, but cheap to defend) degrades to using
    // the state as-is.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultPlan {
    /// An empty plan: injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a rule (builder style).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// A pseudo-random schedule derived purely from `seed`: `n_rules` rules
    /// drawn from the fault catalog over the write-path operations, with
    /// small Nth/every-K triggers. The same seed always yields the same
    /// schedule (splitmix64, no global RNG), so seeds double as corpus IDs.
    pub fn seeded(seed: u64, n_rules: usize) -> Self {
        let mut s = seed;
        let mut next = move || splitmix64(&mut s);
        let mut plan = FaultPlan::new();
        for _ in 0..n_rules {
            let op = match next() % 6 {
                0 => OpKind::Create,
                1 | 2 => OpKind::Write,
                3 => OpKind::Fsync,
                4 => OpKind::Rename,
                _ => OpKind::Read,
            };
            let kind = match (next() % 7, op) {
                (0, _) => FaultKind::Enospc,
                (1, _) => FaultKind::Eio,
                (2, _) => FaultKind::Interrupted,
                (3, OpKind::Write) => FaultKind::TornWrite {
                    keep_bytes: (next() % 256) as usize,
                },
                (3 | 4, OpKind::Read) => FaultKind::ShortRead {
                    keep_bytes: (next() % 64) as usize,
                },
                (4 | 5, OpKind::Rename) => FaultKind::FailRename,
                (4 | 5, OpKind::Fsync) => FaultKind::FailFsync,
                _ => FaultKind::Eio,
            };
            let trigger = if next() % 2 == 0 {
                Trigger::Nth(1 + next() % 5)
            } else {
                Trigger::EveryK(2 + next() % 4)
            };
            plan.rules.push(FaultRule {
                op: Some(op),
                path_contains: None,
                trigger,
                kind,
            });
        }
        plan
    }

    /// Present one operation to the plan. Every matching rule's counter
    /// advances; the first rule whose trigger condition is met fires, and
    /// the fault is recorded. Returns the fault to inject, if any.
    pub fn check(&self, op: OpKind, path: &Path) -> Option<FaultKind> {
        let path_str = path.to_string_lossy();
        let mut st = lock(&self.state);
        if st.matched.len() < self.rules.len() {
            st.matched.resize(self.rules.len(), 0);
        }
        let mut fired: Option<(usize, FaultKind)> = None;
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.matches(op, &path_str) {
                continue;
            }
            st.matched[i] += 1;
            let hit = match rule.trigger {
                Trigger::Nth(n) => st.matched[i] == n,
                Trigger::EveryK(k) => st.matched[i].is_multiple_of(k),
            };
            if hit && fired.is_none() {
                fired = Some((i, rule.kind.clone()));
            }
        }
        let (rule, kind) = fired?;
        st.fired.push(FiredFault {
            rule,
            op,
            path: path_str.into_owned(),
            kind: kind.clone(),
        });
        Some(kind)
    }

    /// Every fault fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        lock(&self.state).fired.clone()
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> usize {
        lock(&self.state).fired.len()
    }

    /// One-line human description of the schedule, for chaos-test logs.
    pub fn describe(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                let op = r.op.map_or("any", OpKind::as_str);
                let path = r.path_contains.as_deref().unwrap_or("*");
                let trig = match r.trigger {
                    Trigger::Nth(n) => format!("nth={n}"),
                    Trigger::EveryK(k) => format!("every={k}"),
                };
                format!("{}@{op}[{path}]({trig})", r.kind.name())
            })
            .collect();
        format!("[{}]", rules.join(", "))
    }
}

/// splitmix64: tiny, dependency-free, deterministic PRNG for seeded
/// schedules. Not used anywhere numerics-critical.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new().rule(FaultRule::nth(2, FaultKind::Eio).on_op(OpKind::Write));
        let p = PathBuf::from("/tmp/x");
        assert_eq!(plan.check(OpKind::Write, &p), None);
        assert_eq!(plan.check(OpKind::Write, &p), Some(FaultKind::Eio));
        assert_eq!(plan.check(OpKind::Write, &p), None);
        assert_eq!(plan.fired_count(), 1);
        assert_eq!(plan.fired()[0].op, OpKind::Write);
    }

    #[test]
    fn every_k_trigger_repeats() {
        let plan = FaultPlan::new().rule(FaultRule::every(2, FaultKind::Enospc));
        let p = PathBuf::from("/tmp/x");
        let fires: Vec<bool> = (0..6)
            .map(|_| plan.check(OpKind::Create, &p).is_some())
            .collect();
        assert_eq!(fires, [false, true, false, true, false, true]);
    }

    #[test]
    fn path_and_op_predicates_filter() {
        let plan = FaultPlan::new().rule(
            FaultRule::nth(1, FaultKind::Eio)
                .on_op(OpKind::Rename)
                .on_path("ckpt"),
        );
        let other = PathBuf::from("/tmp/data.jsonl");
        let target = PathBuf::from("/tmp/model.ckpt");
        assert_eq!(plan.check(OpKind::Rename, &other), None);
        assert_eq!(plan.check(OpKind::Write, &target), None);
        assert_eq!(plan.check(OpKind::Rename, &target), Some(FaultKind::Eio));
    }

    #[test]
    fn fault_kinds_apply_to_their_ops_only() {
        let torn = FaultKind::TornWrite { keep_bytes: 3 };
        assert!(torn.applies_to(OpKind::Write));
        assert!(!torn.applies_to(OpKind::Read));
        let short = FaultKind::ShortRead { keep_bytes: 3 };
        assert!(short.applies_to(OpKind::Read));
        assert!(!short.applies_to(OpKind::Write));
        assert!(FaultKind::FailRename.applies_to(OpKind::Rename));
        assert!(!FaultKind::FailRename.applies_to(OpKind::Fsync));
        assert!(FaultKind::FailFsync.applies_to(OpKind::SyncDir));
        assert!(FaultKind::Enospc.applies_to(OpKind::Metadata));
    }

    #[test]
    fn interrupted_is_the_only_transient_catalog_error() {
        assert!(crate::retry::is_transient(
            &FaultKind::Interrupted.to_error()
        ));
        for hard in [
            FaultKind::Enospc,
            FaultKind::Eio,
            FaultKind::TornWrite { keep_bytes: 1 },
            FaultKind::FailRename,
            FaultKind::FailFsync,
        ] {
            assert!(
                !crate::retry::is_transient(&hard.to_error()),
                "{hard:?} must be a hard failure"
            );
        }
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_distinct() {
        let a = FaultPlan::seeded(7, 4);
        let b = FaultPlan::seeded(7, 4);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(a.rules, b.rules);
        let c = FaultPlan::seeded(8, 4);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn first_matching_rule_wins_but_all_counters_advance() {
        let plan = FaultPlan::new()
            .rule(FaultRule::nth(2, FaultKind::Eio))
            .rule(FaultRule::nth(2, FaultKind::Enospc));
        let p = PathBuf::from("/tmp/x");
        assert_eq!(plan.check(OpKind::Create, &p), None);
        // Both rules hit their Nth on the same op; the first wins.
        assert_eq!(plan.check(OpKind::Create, &p), Some(FaultKind::Eio));
        assert_eq!(plan.fired_count(), 1);
    }
}
