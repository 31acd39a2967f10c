//! # mps-serve — scheduling-as-a-service
//!
//! Promotes the batch `repro` pipeline into a long-lived daemon: clients
//! connect over a Unix-domain socket (or stdin/stdout in tests), speak
//! the negotiated `mps-proto/v1` protocol ([`proto`]), and stream
//! per-cell results back as they complete. The paper's warm state — DAG
//! parse caches, memoized τ-tables, grown solver workspaces — amortizes
//! across thousands of what-if queries instead of being rebuilt per
//! process.
//!
//! Robustness is the substance, not an afterthought:
//!
//! * **Versioned handshake** — every connection opens with
//!   `Hello { proto }`; skew gets a typed `VersionMismatch` reply, never
//!   a garbled stream.
//! * **Admission control** ([`queue`]) — a bounded request queue; excess
//!   load is shed with a typed `Overloaded { retry_after_ms }` response
//!   while the connection stays open.
//! * **Deadlines and cancellation** — per-request deadlines propagate
//!   into the executors' [`RunControl`](mps_journal::RunControl); work in
//!   flight checkpoints at the next cell boundary.
//! * **Graceful drain** ([`server`]) — SIGINT/SIGTERM (or a client
//!   `Drain` frame) stops admissions, finishes admitted work, journals
//!   every completed cell, and exits with a documented code; a second
//!   signal aborts the drain.
//! * **Crash recovery** — the backend journals per-request; a restarted
//!   daemon finishes in-flight journals at startup and replays results
//!   byte-identically on resubmission.
//!
//! The crate is transport + protocol + lifecycle only: the actual
//! scheduling/simulation work lives behind the [`Backend`] trait
//! (implemented by `mps-exp`), so this layer stays testable with toy
//! backends.

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{Client, RequestOutcome};
pub use proto::{
    decode_envelope, recv_msg, send_msg, ClientFrame, ServerFrame, ServerStats, WorkRequest,
    WorkSummary, PROTO_VERSION,
};
pub use queue::{Admission, AdmissionQueue, QueueStats};
pub use server::{Backend, Server, ServerConfig, ServerExit};

/// Everything that can go wrong in the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An OS-level operation failed.
    Io {
        /// Operation that failed (`bind`, `accept`, `write`, …).
        op: &'static str,
        /// Display form of the underlying error.
        err: String,
    },
    /// A wire frame was malformed, torn, or failed its checksum.
    Frame {
        /// What was wrong with it.
        reason: String,
    },
    /// The peer speaks a different `mps-proto` version.
    VersionMismatch {
        /// The version this side speaks.
        ours: String,
        /// The version the peer announced.
        theirs: String,
    },
    /// The peer violated the protocol state machine (e.g. a frame before
    /// the handshake, or an unexpected reply type).
    Protocol {
        /// What was wrong.
        reason: String,
    },
    /// The backend failed to execute a request.
    Backend {
        /// Display form of the backend error.
        reason: String,
    },
    /// The peer stopped sending mid-protocol: no frame arrived within the
    /// connection's read deadline. The connection is reaped (a stalled —
    /// or half-closed — client must not pin a reader thread through a
    /// drain).
    ClientStalled {
        /// The read deadline that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// Another daemon still accepts connections on the socket path, so
    /// binding would take its address over.
    SocketInUse {
        /// The socket path.
        path: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { op, err } => write!(f, "serve {op} failed: {err}"),
            ServeError::Frame { reason } => write!(f, "bad serve frame: {reason}"),
            ServeError::VersionMismatch { ours, theirs } => {
                let theirs = if theirs.is_empty() {
                    "<unversioned>"
                } else {
                    theirs.as_str()
                };
                write!(
                    f,
                    "protocol version mismatch: we speak {ours}, peer announced {theirs}"
                )
            }
            ServeError::Protocol { reason } => write!(f, "protocol violation: {reason}"),
            ServeError::Backend { reason } => write!(f, "backend error: {reason}"),
            ServeError::ClientStalled { timeout_ms } => {
                write!(f, "client stalled: no frame within {timeout_ms}ms")
            }
            ServeError::SocketInUse { path } => {
                write!(f, "socket {path} is in use by a live daemon")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Wraps an I/O error with the operation that failed.
    pub fn io(op: &'static str, err: std::io::Error) -> Self {
        ServeError::Io {
            op,
            err: err.to_string(),
        }
    }
}
