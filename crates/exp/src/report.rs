//! Structured crash reports: what a cell that panicked or ran past its
//! wall-clock limit leaves behind in the journal instead of a
//! measurement. The serde form is part of the journal format: records
//! written while cells could also run in child worker processes (the
//! `Crashed` attempt, the `Quarantined` outcome) still decode.

use serde::{Deserialize, Serialize};

/// Coarse classification of a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The cell panicked, or its worker process died.
    Crashed,
    /// The cell ran past its wall-clock limit.
    TimedOut,
}

/// How one attempt at a cell ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttemptOutcome {
    /// A child worker process died mid-cell. Only journals written while
    /// cells could run in child processes hold this attempt.
    Crashed {
        /// Exit code, when the worker exited (e.g. 101 for a Rust panic).
        exit_code: Option<i32>,
        /// Terminating signal, when it was killed (e.g. 6 for SIGABRT).
        signal: Option<i32>,
        /// Tail of the worker's captured stderr (panic message, abort
        /// diagnostics); bounded, never the full stream.
        stderr_tail: String,
    },
    /// The cell ran past its wall-clock limit and its testbed run was
    /// stopped.
    TimedOut {
        /// The limit that was exceeded, in milliseconds.
        timeout_ms: u64,
    },
    /// The cell panicked and `catch_unwind` caught it; the grid goes on.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl AttemptOutcome {
    /// The coarse classification of this attempt.
    pub fn kind(&self) -> FailureKind {
        match self {
            AttemptOutcome::Crashed { .. } | AttemptOutcome::Panicked { .. } => {
                FailureKind::Crashed
            }
            AttemptOutcome::TimedOut { .. } => FailureKind::TimedOut,
        }
    }
}

/// One failed attempt at a cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attempt {
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Wall-clock time the attempt consumed, in milliseconds.
    pub wall_ms: u64,
}

/// The structured record of every failed attempt at one cell — journaled
/// alongside the typed outcome so `--resume` can skip the cell *and* a
/// human can see why it failed.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CrashReport {
    /// Failed attempts, in order.
    pub attempts: Vec<Attempt>,
}

impl CrashReport {
    /// A report over one attempt.
    pub fn single(outcome: AttemptOutcome, wall_ms: u64) -> Self {
        CrashReport {
            attempts: vec![Attempt { outcome, wall_ms }],
        }
    }

    /// Number of failed attempts recorded.
    pub fn attempt_count(&self) -> usize {
        self.attempts.len()
    }

    /// Classification of the final attempt, or `None` for an empty
    /// report.
    pub fn final_kind(&self) -> Option<FailureKind> {
        self.attempts.last().map(|a| a.outcome.kind())
    }

    /// One-line human summary (`2 attempt(s), last: crashed (exit 101)`).
    pub fn summary(&self) -> String {
        let last = match self.attempts.last() {
            None => return "no attempts recorded".to_string(),
            Some(a) => a,
        };
        let how = match &last.outcome {
            AttemptOutcome::Crashed {
                exit_code: Some(c), ..
            } => format!("crashed (exit {c})"),
            AttemptOutcome::Crashed {
                signal: Some(s), ..
            } => format!("crashed (signal {s})"),
            AttemptOutcome::Crashed { .. } => "crashed".to_string(),
            AttemptOutcome::TimedOut { timeout_ms } => {
                format!("timed out (> {timeout_ms} ms)")
            }
            AttemptOutcome::Panicked { message } => format!("panicked: {message}"),
        };
        format!("{} attempt(s), last: {how}", self.attempts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_serde() {
        let report = CrashReport {
            attempts: vec![
                Attempt {
                    outcome: AttemptOutcome::Crashed {
                        exit_code: Some(101),
                        signal: None,
                        stderr_tail: "thread 'main' panicked at poison".to_string(),
                    },
                    wall_ms: 12,
                },
                Attempt {
                    outcome: AttemptOutcome::TimedOut { timeout_ms: 2000 },
                    wall_ms: 2004,
                },
                Attempt {
                    outcome: AttemptOutcome::Panicked {
                        message: "poison".to_string(),
                    },
                    wall_ms: 1,
                },
            ],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: CrashReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert_eq!(report.attempt_count(), 3);
        assert_eq!(report.final_kind(), Some(FailureKind::Crashed));
    }

    #[test]
    fn summary_names_the_final_attempt() {
        assert_eq!(CrashReport::default().summary(), "no attempts recorded");
        let r = CrashReport::single(AttemptOutcome::TimedOut { timeout_ms: 500 }, 502);
        assert_eq!(r.summary(), "1 attempt(s), last: timed out (> 500 ms)");
        let r = CrashReport::single(
            AttemptOutcome::Crashed {
                exit_code: None,
                signal: Some(9),
                stderr_tail: String::new(),
            },
            3,
        );
        assert!(r.summary().contains("signal 9"));
    }

    #[test]
    fn attempt_kinds_classify_correctly() {
        let crash = AttemptOutcome::Crashed {
            exit_code: Some(1),
            signal: None,
            stderr_tail: String::new(),
        };
        assert_eq!(crash.kind(), FailureKind::Crashed);
        assert_eq!(
            AttemptOutcome::TimedOut { timeout_ms: 1 }.kind(),
            FailureKind::TimedOut
        );
        assert_eq!(
            AttemptOutcome::Panicked {
                message: String::new()
            }
            .kind(),
            FailureKind::Crashed
        );
    }
}
