//! Crash-safe, resumable grid campaigns.
//!
//! [`Harness::run_grid_journaled`] runs the grid through the one cell
//! driver (`driver.rs`) with a write-ahead journal (`mps-journal`) as its
//! sink: the calling thread appends one checksummed JSON line per
//! finished cell, keyed by [`cell_key`](crate::runner::cell_key), while
//! worker threads compute. Re-running against an existing journal skips
//! the cells already on disk, so a campaign killed by a crash, an OOM, a
//! Ctrl-C, or a wall-clock budget resumes from its last journaled cell —
//! and, because cell computation is deterministic and the merged grid is
//! canonically sorted, the resumed grid is identical to an uninterrupted
//! run with the same configuration.

use std::path::{Path, PathBuf};

use mps_core::journal::{JournalError, RunControl, StopReason};
use mps_core::MpsError;

use crate::driver::{Grid, JournalTarget, Runner};
use crate::runner::{CellResult, Harness, Hazards};

/// How a journaled campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridStatus {
    /// Every cell of the campaign is durable in the journal.
    Complete,
    /// Stopped early by cancellation (Ctrl-C, SIGTERM, or programmatic);
    /// in-flight cells were drained to the journal first.
    Interrupted,
    /// Stopped early because the wall-clock budget expired; the journal
    /// holds a clean checkpoint.
    DeadlineExpired,
}

impl GridStatus {
    /// The status string recorded in the journal manifest.
    pub fn label(self) -> &'static str {
        match self {
            GridStatus::Complete => "complete",
            GridStatus::Interrupted => "interrupted",
            GridStatus::DeadlineExpired => "deadline",
        }
    }
}

impl From<StopReason> for GridStatus {
    fn from(reason: StopReason) -> Self {
        match reason {
            StopReason::Cancelled => GridStatus::Interrupted,
            StopReason::DeadlineExpired => GridStatus::DeadlineExpired,
        }
    }
}

/// Outcome of a journaled grid run: the merged (resumed + newly computed)
/// cells plus provenance counters.
#[derive(Debug)]
pub struct JournaledGrid {
    /// All cells durable in the journal, canonically sorted.
    pub cells: Vec<CellResult>,
    /// How the run ended.
    pub status: GridStatus,
    /// Cells loaded from the journal instead of recomputed.
    pub resumed: usize,
    /// Cells computed (and journaled) by this run.
    pub computed: usize,
    /// Cells still missing (0 iff `status == Complete`).
    pub pending: usize,
    /// Cells (resumed + computed) that crashed, timed out, or were
    /// quarantined as poison — present in the journal as crash reports,
    /// not measurements.
    pub quarantined: usize,
    /// Torn-tail bytes discarded during recovery (0 on a clean journal).
    pub salvage_dropped_bytes: u64,
    /// The journal path.
    pub journal: PathBuf,
}

impl Harness {
    /// Runs the full paper grid with write-ahead journaling: every
    /// completed cell is flushed to the OS as it arrives (it survives a
    /// process kill; a power loss only after the one `fdatasync` that
    /// follows the last cell), cells already in the journal are skipped,
    /// and `ctrl` converts signals/deadlines into a graceful drain
    /// (in-flight cells finish, the journal syncs, the manifest records
    /// the checkpoint).
    ///
    /// Pass `resume = true` to continue an existing journal; creating a
    /// fresh journal over an existing file is a typed error.
    pub fn run_grid_journaled(
        &self,
        path: &Path,
        repeats: u64,
        workers: usize,
        resume: bool,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let journal = Some((path, resume));
        self.run_in_process(self.hazards(), None, repeats, workers, journal, ctrl)
    }

    /// [`Harness::run_grid_journaled`] over the first `take` corpus DAGs
    /// (smoke tests, CI kill-and-resume jobs).
    pub fn run_subset_journaled(
        &self,
        take: usize,
        path: &Path,
        repeats: u64,
        workers: usize,
        resume: bool,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let journal = Some((path, resume));
        self.run_in_process(self.hazards(), Some(take), repeats, workers, journal, ctrl)
    }

    /// The grid over the first `take` corpus DAGs (`None`: all) under
    /// `hazards` on `workers` threads, appending to the journal
    /// `Some((path, resume))` when there is one. Only the journal can fail.
    pub(crate) fn run_in_process(
        &self,
        hazards: Hazards,
        take: Option<usize>,
        repeats: u64,
        workers: usize,
        journal: Option<(&Path, bool)>,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let journal = journal.map(|(path, resume)| JournalTarget {
            path,
            resume,
            request: None,
        });
        let grid = Grid {
            take,
            repeats,
            hazards,
            runner: Runner::Threads(workers),
            journal,
            ctrl,
        };
        self.drive(grid, None).map_err(|e| match e {
            MpsError::Journal(e) => e,
            other => unreachable!("an in-process grid fails only in its journal: {other}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::journal;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mps-journaled-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("grid.jl")
    }

    /// Every sink of the driver — none, a fresh journal, a resumed
    /// journal, a daemon client with and without a state dir — yields the
    /// same cells, byte for byte, at any worker count. Cells reach the
    /// journal in dispatch order, so its bytes do not depend on the worker
    /// count either.
    #[test]
    fn journaled_grid_equals_in_memory_grid_and_resumes_to_noop() {
        use crate::ServeBackend;
        use mps_core::serve::{Backend, WorkRequest};

        let h = Harness::new(7);
        let plain = h.run_subset(2, 1);
        let json = |cells: &Vec<CellResult>| serde_json::to_string(cells).unwrap();
        let want = json(&plain);
        let mut journals = Vec::new();
        for workers in [1, 3] {
            let in_memory = h.run_subset_with_workers(2, 1, workers);
            assert_eq!(
                json(&in_memory),
                want,
                "in-memory grid, {workers} worker(s)"
            );

            let path = scratch(&format!("equal-{workers}"));
            let first = h
                .run_subset_journaled(2, &path, 1, workers, false, &RunControl::unlimited())
                .unwrap();
            assert_eq!(first.status, GridStatus::Complete);
            assert_eq!(first.resumed, 0);
            assert_eq!(first.computed, plain.len());
            assert_eq!(first.pending, 0);
            assert_eq!(
                json(&first.cells),
                want,
                "journaled grid, {workers} worker(s)"
            );
            journals.push(std::fs::read(&path).unwrap());

            // Resuming a complete journal recomputes nothing.
            let again = h
                .run_subset_journaled(2, &path, 1, workers, true, &RunControl::unlimited())
                .unwrap();
            assert_eq!(again.status, GridStatus::Complete);
            assert_eq!(again.computed, 0);
            assert_eq!(again.resumed, plain.len());
            assert_eq!(json(&again.cells), want, "resume round-trips bitwise");

            let m = journal::read_manifest(&path).unwrap().unwrap();
            assert!(m.is_complete());
            assert_eq!(m.records, plain.len() as u64);

            // A journal cut after its header and 5 records resumes to the
            // same grid, computing only the rest.
            let cut = path.with_file_name("cut.jl");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&cut, text.split_inclusive('\n').take(6).collect::<String>()).unwrap();
            let resumed = h
                .run_subset_journaled(2, &cut, 1, workers, true, &RunControl::unlimited())
                .unwrap();
            assert_eq!((resumed.resumed, resumed.computed), (5, plain.len() - 5));
            assert_eq!(
                json(&resumed.cells),
                want,
                "cut journal, {workers} worker(s)"
            );
        }
        assert!(
            journals[0] == journals[1],
            "the journal's bytes depend on the worker count"
        );

        // The daemon emits exactly the in-memory grid's payloads, fresh
        // or replayed from its state dir.
        let mut want_payloads: Vec<(String, String)> = plain
            .iter()
            .map(|c| (c.key(1), serde_json::to_string(c).unwrap()))
            .collect();
        want_payloads.sort();
        let work = WorkRequest::SubsetGrid {
            take: 2,
            repeats: 1,
            disturb: None,
        };
        let emitted = |backend: &ServeBackend| {
            let mut got = Vec::new();
            let summary = backend
                .execute(&work, &RunControl::unlimited(), &mut |k, p| {
                    got.push((k.to_string(), p.to_string()));
                    true
                })
                .unwrap();
            got.sort();
            (summary, got)
        };
        let (summary, got) = emitted(&ServeBackend::new(Harness::new(7)));
        assert_eq!(
            (summary.computed, summary.status.as_str()),
            (12, "complete")
        );
        assert_eq!(got, want_payloads, "daemon grid without a state dir");
        let state = scratch("serve").with_file_name("state");
        let journaled = ServeBackend::new(Harness::new(7)).with_state_dir(state);
        for resumed in [0, 12] {
            let (summary, got) = emitted(&journaled);
            assert_eq!((summary.resumed, summary.cells), (resumed, 12));
            assert_eq!(
                got, want_payloads,
                "daemon grid, {resumed} cell(s) replayed"
            );
        }
    }

    #[test]
    fn refusing_to_clobber_an_existing_journal() {
        let h = Harness::new(7);
        let path = scratch("clobber");
        h.run_subset_journaled(1, &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert!(matches!(
            h.run_subset_journaled(1, &path, 1, 2, false, &RunControl::unlimited()),
            Err(JournalError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn expired_deadline_checkpoints_and_resume_completes() {
        let h = Harness::new(7);
        let path = scratch("deadline");
        // A deadline in the past: no new cell starts, the journal is a
        // clean (empty) checkpoint.
        let ctrl = RunControl::unlimited().with_deadline_in(Duration::ZERO);
        let stopped = h
            .run_subset_journaled(2, &path, 1, 3, false, &ctrl)
            .unwrap();
        assert_eq!(stopped.status, GridStatus::DeadlineExpired);
        assert_eq!(stopped.computed, 0);
        assert_eq!(stopped.pending, 12);
        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert_eq!(m.status, "deadline");

        let finished = h
            .run_subset_journaled(2, &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(finished.status, GridStatus::Complete);
        assert_eq!(finished.cells, h.run_subset(2, 1));
    }

    #[test]
    fn cancellation_drains_and_resume_completes_identically() {
        let h = Harness::new(7);
        let path = scratch("cancel");
        let token = mps_core::journal::CancelToken::new();
        token.cancel(); // latched before the run: drains immediately
        let ctrl = RunControl::unlimited().with_cancel(token);
        let stopped = h
            .run_subset_journaled(2, &path, 1, 3, false, &ctrl)
            .unwrap();
        assert_eq!(stopped.status, GridStatus::Interrupted);
        assert_eq!(
            journal::read_manifest(&path).unwrap().unwrap().status,
            "interrupted"
        );

        let finished = h
            .run_subset_journaled(2, &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(finished.status, GridStatus::Complete);
        assert_eq!(finished.cells, h.run_subset(2, 1));
    }

    #[test]
    fn resume_under_a_different_config_is_rejected() {
        let h = Harness::new(7);
        let path = scratch("mismatch");
        h.run_subset_journaled(1, &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();

        // Different base seed.
        let other = Harness::new(8);
        assert!(matches!(
            other.run_subset_journaled(1, &path, 1, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch { field: "seed", .. })
        ));
        // Different repeat block.
        assert!(matches!(
            h.run_subset_journaled(1, &path, 2, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch {
                field: "repeats",
                ..
            })
        ));
        // Different fault configuration (digest).
        let faulty = Harness::new(7).with_fault_plan(
            mps_core::faults::FaultPlan::builder(3)
                .task_failure(0.01)
                .build(),
        );
        assert!(matches!(
            faulty.run_subset_journaled(1, &path, 1, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch {
                field: "config_digest",
                ..
            })
        ));
    }

    /// A journal that fails mid-grid under three worker threads: the
    /// sink's error stops the workers and comes back typed (no hang), and
    /// a real-disk resume finishes the grid byte-identically.
    #[test]
    fn a_journal_failing_mid_grid_stops_the_workers_and_resumes() {
        use mps_core::faults::io::{ChaosIo, IoEnv, IoFaultPlan, IoFile, RealIo};
        use std::sync::{Arc, Mutex};

        /// A disk whose physics the test swaps between runs: every call
        /// goes to the env it currently holds.
        struct SwitchIo(Mutex<Arc<dyn IoEnv>>);
        impl SwitchIo {
            fn set(&self, env: Arc<dyn IoEnv>) {
                *self.0.lock().unwrap() = env;
            }
            fn current(&self) -> Arc<dyn IoEnv> {
                Arc::clone(&self.0.lock().unwrap())
            }
        }
        impl IoEnv for SwitchIo {
            fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
                self.current().create(path)
            }
            fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
                self.current().open_write(path)
            }
            fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
                self.current().read(path)
            }
            fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
                self.current().rename(from, to)
            }
            fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
                self.current().sync_dir(dir)
            }
        }

        let disk = Arc::new(SwitchIo(Mutex::new(Arc::new(RealIo))));
        let h = Harness::new(7).with_io_env(disk.clone());
        let plain = h.run_subset(2, 1);
        let plan = IoFaultPlan {
            enospc: 0.2,
            ..IoFaultPlan::default()
        };
        let mut mid_grid = 0;
        for seed in 0..16 {
            let path = scratch(&format!("fail-{seed}"));
            disk.set(Arc::new(ChaosIo::new(seed, plan.clone())));
            let run = h.run_subset_journaled(2, &path, 1, 3, false, &RunControl::unlimited());
            let lines =
                std::fs::read(&path).map_or(0, |b| b.iter().filter(|&&c| c == b'\n').count());
            if run.is_err() && (2..=plain.len()).contains(&lines) {
                mid_grid += 1;
            }
            disk.set(Arc::new(RealIo));
            let resumed = h
                .run_subset_journaled(2, &path, 1, 3, path.exists(), &RunControl::unlimited())
                .unwrap();
            assert_eq!(resumed.status, GridStatus::Complete);
            assert_eq!(resumed.cells, plain, "seed {seed}: resume must be bitwise");
        }
        assert!(mid_grid > 0, "no seed failed the journal mid-grid");
    }

    /// The `io:` clause of a fault plan reaches the durability path: a
    /// journaled subset whose every write fails with ENOSPC fails typed
    /// instead of completing.
    #[test]
    fn an_io_clause_in_the_fault_plan_fails_the_journal_typed() {
        let plan = mps_core::faults::FaultPlan::parse("io:enospc@1", 32, 120.0).unwrap();
        let h = Harness::new(7).with_fault_plan(plan);
        let path = scratch("io-clause");
        let run = h.run_subset_journaled(1, &path, 1, 1, false, &RunControl::unlimited());
        assert!(
            matches!(run, Err(JournalError::Io { .. })),
            "expected a typed I/O error, got {:?}",
            run.map(|r| r.status)
        );
    }

    #[test]
    fn tampered_tail_is_dropped_and_recomputed() {
        let h = Harness::new(7);
        let path = scratch("tamper");
        let full = h
            .run_subset_journaled(1, &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(full.status, GridStatus::Complete);

        // Flip one byte inside the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let target = last_line_start + 40;
        bytes[target] = if bytes[target] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, &bytes).unwrap();

        let resumed = h
            .run_subset_journaled(1, &path, 1, 2, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(resumed.status, GridStatus::Complete);
        assert!(resumed.salvage_dropped_bytes > 0, "tail must be dropped");
        assert_eq!(resumed.computed, 1, "exactly the damaged cell re-runs");
        assert_eq!(resumed.cells, full.cells, "recomputation is bitwise");
    }

    /// Regression for the in-process safety net end to end: a poisoned
    /// (panicking) cell becomes a durable `crashed` journal record, the
    /// campaign still completes, the manifest counts the quarantine, and
    /// a resume skips the poison cell instead of re-panicking on it.
    #[test]
    fn poisoned_cell_is_journaled_and_resume_skips_it() {
        use crate::runner::{PoisonAction, PoisonRule};
        let h = Harness::new(7).with_poison(vec![PoisonRule {
            needle: "analytic/HCPA".to_string(),
            action: PoisonAction::Panic,
        }]);
        let path = scratch("poison");
        let first = h
            .run_subset_journaled(1, &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(first.status, GridStatus::Complete);
        assert_eq!(first.computed, 6, "poison cell still gets a record");
        assert_eq!(first.quarantined, 1);
        let poisoned: Vec<_> = first
            .cells
            .iter()
            .filter(|c| c.outcome.crash_report().is_some())
            .collect();
        assert_eq!(poisoned.len(), 1);
        assert!(matches!(
            poisoned[0].outcome,
            crate::runner::CellOutcome::Crashed { .. }
        ));

        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert!(m.is_complete());
        assert_eq!(m.quarantined, 1);

        // Resume recomputes nothing — in particular it does NOT retry the
        // poison cell (which would panic again).
        let again = h
            .run_subset_journaled(1, &path, 1, 2, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(again.computed, 0);
        assert_eq!(again.resumed, 6);
        assert_eq!(again.quarantined, 1);
        assert_eq!(again.cells, first.cells, "resume round-trips bitwise");
    }
}
