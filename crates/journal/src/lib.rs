//! # mps-journal — write-ahead result journal for long experiment campaigns
//!
//! The paper's verdict tables come from multi-hour measurement + simulation
//! sweeps. A campaign that only accumulates results in memory loses
//! everything on a crash, an OOM kill, or a Ctrl-C; this crate makes the
//! campaign itself durable:
//!
//! * **Append-only JSON-lines journal** — one line per completed result,
//!   each carrying a deterministic string key and an FNV-1a checksum over
//!   the record body ([`format`](mod@format)). A reader can verify every line in
//!   isolation.
//! * **Truncated-tail recovery** — [`recover`] salvages every intact
//!   record from a journal whose final write was torn by a crash;
//!   [`open_resume`] additionally truncates the torn tail so appends
//!   continue from a clean boundary.
//! * **Atomic manifest** — a small sidecar summary written via
//!   tmp-file + rename ([`write_manifest`]), so observers can read
//!   campaign status without scanning the journal.
//! * **Cooperative cancellation** — [`CancelToken`] / [`RunControl`]
//!   convert SIGINT/SIGTERM and wall-clock budgets into a graceful drain:
//!   in-flight work finishes, the journal flushes, and the process exits
//!   with a resumable checkpoint instead of losing the run.
//!
//! ## Crash-recovery invariants
//!
//! 1. [`JournalWriter::append_record`] hands each line to the OS in one
//!    `write(2)` plus a flush, so a killed process loses at most the line
//!    being written. A power loss can drop every record not yet covered
//!    by [`JournalWriter::sync`] (`fdatasync`), which a grid issues once,
//!    after its last cell and before its manifest.
//! 2. Recovery accepts a prefix of intact lines and stops at the first
//!    undecodable one; everything before the torn tail is salvaged, and
//!    nothing after it is trusted (a torn write never corrupts earlier
//!    records — the file is append-only).
//! 3. Resuming truncates the file to the salvaged prefix before
//!    appending, so a journal never contains garbage between records.
//! 4. The journal header pins the campaign configuration (seed, repeats,
//!    corpus, config digest); resuming under a different configuration is
//!    a typed error, never a silently mixed result set.

#![warn(missing_docs)]

pub mod cancel;
pub mod format;
pub mod store;

pub use cancel::{
    install_signal_handlers, signal_count, signal_received, CancelToken, RunControl, StopReason,
};
pub use format::{
    decode_line, encode_line, fnv64, fnv64_step, JournalHeader, FNV64_OFFSET, FORMAT_V1, HEADER_KEY,
};
pub use store::{
    manifest_path, open_resume, open_resume_in, read_manifest, read_manifest_in, recover,
    recover_in, write_manifest, write_manifest_in, JournalWriter, Manifest, RecoveredJournal,
    MANIFEST_FORMAT_V1,
};

// The I/O environment seam every store operation goes through; re-exported
// so durability callers can swap envs without a direct mps-faults dep.
pub use mps_faults::io::{IoEnv, IoFile, RealIo};

/// Everything that can go wrong while journaling a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An OS-level file operation failed.
    Io {
        /// Operation that failed (`create`, `append`, `rename`, …).
        op: &'static str,
        /// Path involved.
        path: String,
        /// Display form of the underlying error.
        err: String,
    },
    /// The journal exists but its content is not a usable journal.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// Resuming under a configuration that does not match the header.
    HeaderMismatch {
        /// Header field that differs.
        field: &'static str,
        /// Value the resuming campaign expects.
        expected: String,
        /// Value recorded in the journal.
        found: String,
    },
    /// A record key contains characters the line format cannot carry.
    BadKey {
        /// The offending key.
        key: String,
    },
    /// Creating a journal at a path that already exists (pass the resume
    /// flag or remove the file).
    AlreadyExists {
        /// The occupied path.
        path: String,
    },
    /// A record payload failed to (de)serialize.
    Serde {
        /// What was being encoded/decoded.
        what: &'static str,
        /// Display form of the serde error.
        err: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, path, err } => {
                write!(f, "journal {op} failed for {path}: {err}")
            }
            JournalError::Corrupt { line, reason } => {
                write!(f, "corrupt journal at line {line}: {reason}")
            }
            JournalError::HeaderMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "journal header mismatch on {field}: campaign expects {expected}, journal has {found}"
            ),
            JournalError::BadKey { key } => {
                write!(f, "record key {key:?} contains unsupported characters")
            }
            JournalError::AlreadyExists { path } => write!(
                f,
                "journal {path} already exists (resume it or remove it first)"
            ),
            JournalError::Serde { what, err } => write!(f, "cannot (de)serialize {what}: {err}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, err: std::io::Error) -> Self {
        JournalError::Io {
            op,
            path: path.display().to_string(),
            err: err.to_string(),
        }
    }
}
