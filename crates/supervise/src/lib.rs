//! # mps-supervise — worker supervision for hostile experiment campaigns
//!
//! The journal (`mps-journal`) makes a campaign crash-safe against
//! whole-process death, but it cannot protect a run from itself: a single
//! panicking grid cell, an infinite loop, or a memory blow-up inside the
//! shared in-process worker pool aborts the entire campaign — and a
//! *deterministic* crasher makes every `--resume` re-crash at the same
//! cell. This crate is the supervision layer that turns poison cells
//! into typed, journaled records instead of lost runs:
//!
//! * **Supervision policy** ([`policy`]) — the pure decisions a run's
//!   worker slots share: respawn backoff under a restart budget,
//!   quarantine of a repeatedly failing cell, retirement, and stop.
//!   Property-testable without spawning a single process.
//! * **Crash reports** ([`report`]) — the structured record a quarantined
//!   cell leaves behind: per-attempt outcome (crash with exit status /
//!   signal and a captured stderr tail, timeout, in-process panic) and
//!   wall time per attempt.
//! * **Wire protocol** ([`proto`]) — length-prefixed JSON frames over
//!   stdin/stdout, the transport between a supervisor and its child
//!   worker processes.
//! * **Worker processes** ([`pool`]) — spawn/feed/kill/reap one child
//!   worker: frames are read on a dedicated thread so the parent can
//!   wait with timeouts, stderr is captured into a bounded tail buffer
//!   for crash reports, and every exit path reaps the child (no zombies,
//!   no orphans).
//!
//! The experiment harness (`mps-exp`) composes these into
//! process-isolated grid execution: `repro --isolation process`.

#![warn(missing_docs)]

pub mod policy;
pub mod pool;
pub mod proto;
pub mod report;

pub use policy::{Policy, Spawn, SupervisorConfig};
pub use pool::{WorkerDeath, WorkerProcess, WorkerRecv, WorkerSpec};
pub use proto::{
    read_frame, read_frame_bytes, write_frame, WorkerHello, MAX_FRAME_BYTES, WORKER_PROTO_VERSION,
};
pub use report::{Attempt, AttemptOutcome, CrashReport, FailureKind};

/// Everything that can go wrong in the supervision layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperviseError {
    /// An OS-level operation on a worker process failed.
    Io {
        /// Operation that failed (`spawn`, `write`, `read`, …).
        op: &'static str,
        /// Display form of the underlying error.
        err: String,
    },
    /// A wire frame was malformed (oversized, torn, or not valid JSON).
    Frame {
        /// What was wrong with it.
        reason: String,
    },
    /// The peer speaks a different protocol version — a supervisor from
    /// one build driving a worker from another. Deterministic: retrying
    /// or respawning cannot heal it, so it aborts the run.
    VersionMismatch {
        /// The version this side speaks.
        ours: String,
        /// The version the peer announced (empty: a pre-versioning peer).
        theirs: String,
    },
    /// The restart-intensity cap was reached with cells still unresolved:
    /// workers die faster than the supervisor is willing to respawn them
    /// (e.g. a broken worker binary), so the run aborts with a typed
    /// error instead of crash-looping.
    RestartBudgetExhausted {
        /// Respawns performed before giving up.
        restarts: u32,
        /// Cells that were still unresolved.
        unresolved: usize,
    },
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::Io { op, err } => write!(f, "worker {op} failed: {err}"),
            SuperviseError::Frame { reason } => write!(f, "bad worker frame: {reason}"),
            SuperviseError::VersionMismatch { ours, theirs } => {
                let theirs = if theirs.is_empty() {
                    "<unversioned>"
                } else {
                    theirs.as_str()
                };
                write!(
                    f,
                    "protocol version mismatch: we speak {ours}, peer announced \
                     {theirs} — the two binaries are from different builds"
                )
            }
            SuperviseError::RestartBudgetExhausted {
                restarts,
                unresolved,
            } => write!(
                f,
                "restart budget exhausted after {restarts} respawn(s) with \
                 {unresolved} cell(s) unresolved — workers are dying faster \
                 than the supervisor will restart them"
            ),
        }
    }
}

impl std::error::Error for SuperviseError {}

impl SuperviseError {
    /// Wraps an I/O error with the operation that failed.
    pub fn io(op: &'static str, err: std::io::Error) -> Self {
        SuperviseError::Io {
            op,
            err: err.to_string(),
        }
    }
}
