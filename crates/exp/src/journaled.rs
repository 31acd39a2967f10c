//! Crash-safe, resumable grid campaigns.
//!
//! [`Harness::run_grid_journaled`] streams every completed [`CellResult`]
//! through a dedicated writer thread into a write-ahead journal
//! (`mps-journal`): one checksummed JSON line per cell, keyed by
//! [`cell_key`](crate::runner::cell_key). Re-running against an existing
//! journal skips the cells already on disk, so a campaign killed by a
//! crash, an OOM, a Ctrl-C, or a wall-clock budget resumes from its last
//! durable cell — and, because cell computation is deterministic and the
//! merged grid is canonically sorted, the resumed grid is identical to an
//! uninterrupted run with the same configuration.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::io::IoEnv;
use mps_core::journal::{
    self as journal, JournalError, JournalHeader, JournalWriter, Manifest, RunControl, StopReason,
    FORMAT_V1, MANIFEST_FORMAT_V1,
};
use mps_core::sched::{Hcpa, Mcpa, Scheduler};

use crate::runner::{cell_key, sort_cells_canonical, CellResult, Harness, SimVariant};

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

pub(crate) struct CellSpec {
    pub(crate) dag: usize,
    pub(crate) variant: SimVariant,
    pub(crate) algo: usize,
}

pub(crate) fn algo_of(i: usize) -> &'static dyn Scheduler {
    match i {
        0 => &Hcpa,
        _ => &Mcpa,
    }
}

/// What [`open_grid_journal`] recovers: the salvaged `(key, cell)`
/// records, the writer positioned for appends, and how many torn-tail
/// bytes were dropped.
pub(crate) type OpenedJournal = (Vec<(String, CellResult)>, JournalWriter, u64);

/// Recovers an existing journal (salvaging every intact cell and
/// truncating any torn tail) or starts a fresh one. Shared between the
/// in-process and process-isolated grid drivers.
pub(crate) fn open_grid_journal(
    env: &dyn IoEnv,
    path: &Path,
    header: &JournalHeader,
    resume: bool,
) -> Result<OpenedJournal, JournalError> {
    if resume && path.exists() {
        let (rec, w) = journal::open_resume_in(env, path)?;
        match &rec.header {
            Some(h) => {
                h.check_matches(header)?;
                let mut cells = Vec::with_capacity(rec.records.len());
                for (i, (key, payload)) in rec.records.iter().enumerate() {
                    let cell: CellResult =
                        serde_json::from_str(payload).map_err(|e| JournalError::Corrupt {
                            line: i + 2,
                            reason: format!("record {key}: {e}"),
                        })?;
                    cells.push((key.clone(), cell));
                }
                Ok((cells, w, rec.dropped_bytes))
            }
            // Even the header was torn: the journal is equivalent to
            // empty — start over in place.
            None => {
                drop(w);
                let w = JournalWriter::create_overwrite_in(env, path, header)?;
                Ok((Vec::new(), w, rec.dropped_bytes))
            }
        }
    } else {
        // `create` refuses to clobber an existing journal.
        Ok((Vec::new(), JournalWriter::create_in(env, path, header)?, 0))
    }
}

/// The (dag, variant, algo) triples whose keys are not yet in `done`.
pub(crate) fn pending_specs(
    corpus: &[GeneratedDag],
    done: &HashSet<&str>,
    repeats: u64,
) -> Vec<CellSpec> {
    let mut pending = Vec::new();
    for (di, g) in corpus.iter().enumerate() {
        for variant in SimVariant::ALL {
            for ai in 0..2 {
                let key = cell_key(
                    &g.name(),
                    g.params.matrix_size,
                    variant,
                    algo_of(ai).name(),
                    repeats,
                );
                if !done.contains(key.as_str()) {
                    pending.push(CellSpec {
                        dag: di,
                        variant,
                        algo: ai,
                    });
                }
            }
        }
    }
    pending
}

/// Writes the manifest and assembles the merged, canonically sorted grid.
/// Shared final step of both grid drivers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finalize_grid(
    env: &dyn IoEnv,
    path: &Path,
    campaign: &str,
    expected: u64,
    resumed_cells: Vec<(String, CellResult)>,
    new_cells: Vec<(String, CellResult)>,
    salvage_dropped_bytes: u64,
    ctrl: &RunControl,
) -> Result<JournaledGrid, JournalError> {
    let resumed = resumed_cells.len();
    let computed = new_cells.len();
    let total_done = resumed + computed;
    let status = if total_done as u64 == expected {
        GridStatus::Complete
    } else {
        match ctrl.should_stop() {
            Some(StopReason::DeadlineExpired) => GridStatus::DeadlineExpired,
            _ => GridStatus::Interrupted,
        }
    };
    let mut cells: Vec<CellResult> = resumed_cells
        .into_iter()
        .chain(new_cells)
        .map(|(_, c)| c)
        .collect();
    sort_cells_canonical(&mut cells);
    let quarantined = cells
        .iter()
        .filter(|c| c.outcome.crash_report().is_some())
        .count();
    journal::write_manifest_in(
        env,
        path,
        &Manifest {
            format: MANIFEST_FORMAT_V1.to_string(),
            campaign: campaign.to_string(),
            records: total_done as u64,
            expected,
            status: status.label().to_string(),
            quarantined: quarantined as u64,
        },
    )?;
    Ok(JournaledGrid {
        cells,
        status,
        resumed,
        computed,
        pending: expected as usize - total_done,
        quarantined,
        salvage_dropped_bytes,
        journal: path.to_path_buf(),
    })
}

struct JournalOpts<'a> {
    path: &'a Path,
    repeats: u64,
    workers: usize,
    resume: bool,
}

impl Harness {
    /// Runs the full paper grid with write-ahead journaling: every
    /// completed cell is durable before the next one is dispatched, cells
    /// already present in the journal are skipped, and `ctrl` converts
    /// signals/deadlines into a graceful drain (in-flight cells finish,
    /// the journal syncs, the manifest records the checkpoint).
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
        let corpus = self.corpus();
        self.run_cells_journaled(
            &corpus,
            "paper-grid",
            &JournalOpts {
                path,
                repeats,
                workers,
                resume,
            },
            ctrl,
        )
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
        let corpus: Vec<GeneratedDag> = self.corpus().iter().take(take).cloned().collect();
        let campaign = format!("paper-grid[..{}]", corpus.len());
        self.run_cells_journaled(
            &corpus,
            &campaign,
            &JournalOpts {
                path,
                repeats,
                workers,
                resume,
            },
            ctrl,
        )
    }

    fn run_cells_journaled(
        &self,
        corpus: &[GeneratedDag],
        campaign: &str,
        opts: &JournalOpts<'_>,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let expected = (corpus.len() * SimVariant::ALL.len() * 2) as u64;
        let header = JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: campaign.to_string(),
            seed: self.testbed.base_seed,
            repeats: opts.repeats,
            cells_expected: expected,
            config_digest: self.config_digest(),
            isolation: "inproc".to_string(),
            request: String::new(),
        };

        let env = self.io_env().clone();
        let (resumed_cells, mut writer, salvage_dropped_bytes) =
            open_grid_journal(&*env, opts.path, &header, opts.resume)?;

        let done: HashSet<&str> = resumed_cells.iter().map(|(k, _)| k.as_str()).collect();
        let pending = pending_specs(corpus, &done, opts.repeats);

        // Workers pull cells from a shared cursor and stream completions
        // to the dedicated writer thread; the journal is the only place
        // results accumulate, so a kill at any instant loses at most the
        // cells in flight.
        let workers = opts.workers.max(1).min(pending.len().max(1));
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(String, CellResult)>();

        let written: Result<Vec<(String, CellResult)>, JournalError> =
            crossbeam::thread::scope(|scope| {
                let writer = &mut writer;
                let writer_handle = scope.spawn(move |_| -> Result<_, JournalError> {
                    let mut new_cells = Vec::new();
                    for (key, cell) in rx.iter() {
                        let payload =
                            serde_json::to_string(&cell).map_err(|e| JournalError::Serde {
                                what: "cell result",
                                err: e.to_string(),
                            })?;
                        writer.append_record(&key, &payload)?;
                        new_cells.push((key, cell));
                    }
                    Ok(new_cells)
                });

                let next = &next;
                let pending = &pending[..];
                let mut worker_handles = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let tx = tx.clone();
                    worker_handles.push(scope.spawn(move |_| loop {
                        if ctrl.should_stop().is_some() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= pending.len() {
                            break;
                        }
                        let spec = &pending[i];
                        let g = &corpus[spec.dag];
                        let algo = algo_of(spec.algo);
                        // `run_cell_caught`: a panicking cell becomes a
                        // journaled Crashed record, not a dead campaign.
                        let cell = self.run_cell_caught(
                            g,
                            spec.variant,
                            algo,
                            opts.repeats,
                            self.disturb.as_ref(),
                        );
                        let key = cell_key(
                            &g.name(),
                            g.params.matrix_size,
                            spec.variant,
                            algo.name(),
                            opts.repeats,
                        );
                        // The writer only disappears on a journal error;
                        // stop producing in that case.
                        if tx.send((key, cell)).is_err() {
                            break;
                        }
                        ctrl.pace();
                    }));
                }
                drop(tx);
                for h in worker_handles {
                    h.join().expect("grid worker panicked");
                }
                writer_handle.join().expect("journal writer panicked")
            })
            .expect("worker scope panicked");

        let new_cells = written?;
        writer.sync()?;

        finalize_grid(
            &*env,
            opts.path,
            campaign,
            expected,
            resumed_cells,
            new_cells,
            salvage_dropped_bytes,
            ctrl,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mps-journaled-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("grid.jl")
    }

    #[test]
    fn journaled_grid_equals_in_memory_grid_and_resumes_to_noop() {
        let h = Harness::new(7);
        let path = scratch("equal");
        let plain = h.run_subset(2, 1);

        let first = h
            .run_subset_journaled(2, &path, 1, 3, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(first.status, GridStatus::Complete);
        assert_eq!(first.resumed, 0);
        assert_eq!(first.computed, plain.len());
        assert_eq!(first.pending, 0);
        assert_eq!(first.cells, plain, "journaled grid must match run_subset");

        // Resuming a complete journal recomputes nothing.
        let again = h
            .run_subset_journaled(2, &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(again.status, GridStatus::Complete);
        assert_eq!(again.computed, 0);
        assert_eq!(again.resumed, plain.len());
        assert_eq!(again.cells, plain, "resume round-trips bitwise");

        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert!(m.is_complete());
        assert_eq!(m.records, plain.len() as u64);
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
