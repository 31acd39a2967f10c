//! The one cell driver behind every grid: in-memory, journaled and daemon
//! grids are the same source → runner → sink loop.
//!
//! * **Source.** The corpus slice minus the cells whose keys the journal
//!   already holds, in dispatch order (corpus order × [`SimVariant::ALL`]
//!   × {HCPA, MCPA}), handed out in per-DAG runs from one cursor so a
//!   DAG's HCPA and MCPA cells share one worker's warm τ-table.
//! * **Runner.** Threads pulling runs from the cursor; with one worker
//!   the cells run on the calling thread and no thread is spawned, so its
//!   slab stays warm across grids. Each thread checks the stop before a
//!   cell and paces after it, and computes the cell with
//!   `run_cell_caught`, which bounds it: a panic becomes a `Crashed`
//!   record, a cell past its wall deadline a `TimedOut` one.
//! * **Sink.** Runs only on the calling thread, in dispatch order at any
//!   worker count: it collects each finished cell, appends it to the
//!   journal when there is one, and emits `(key, payload)` to a daemon
//!   client when there is one.
//!
//! The driver owns the steps every mode shares: the journal header,
//! recovery of an existing journal (replaying its records verbatim to the
//! client), the per-cell stop and pace checks, the final sync, and the
//! manifest. A grid carries one [`Hazards`] value, built by its caller
//! from the harness, a sweep point or a daemon request: every cell runs
//! under it, and the header's `config_digest` is its digest. Cell
//! computation is deterministic and cells reach the sink in dispatch
//! order, so a journal's bytes and the merged grid are the same for any
//! worker count or resume history.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::io::IoEnv;
use mps_core::journal::{
    self as journal, JournalError, JournalHeader, JournalWriter, Manifest, RunControl, FORMAT_V1,
    MANIFEST_FORMAT_V1,
};
use mps_core::sched::{Hcpa, Mcpa, Scheduler};

use crate::journaled::{GridStatus, JournaledGrid};
use crate::runner::{
    cell_key, sort_cells_canonical, CellResult, Harness, Hazards, SimVariant, CELLS_PER_DAG,
};

/// One pending cell: corpus index, simulator version, algorithm index.
pub(crate) struct CellSpec {
    pub(crate) dag: usize,
    pub(crate) variant: SimVariant,
    pub(crate) algo: usize,
}

/// The algorithm behind index `i` (0 = HCPA, 1 = MCPA).
pub(crate) fn algo_of(i: usize) -> &'static dyn Scheduler {
    match i {
        0 => &Hcpa,
        _ => &Mcpa,
    }
}

/// The write-ahead journal a grid appends to.
pub(crate) struct JournalTarget<'a> {
    pub(crate) path: &'a Path,
    /// Continue an existing journal; otherwise creating over one fails.
    pub(crate) resume: bool,
    /// The daemon request this grid serves, stored verbatim in the header
    /// so a restarted daemon can redo the work; `None` for a campaign.
    pub(crate) request: Option<&'a str>,
}

/// One grid run.
pub(crate) struct Grid<'a> {
    /// The first `take` corpus DAGs; `None` is the whole corpus.
    pub(crate) take: Option<usize>,
    pub(crate) repeats: u64,
    /// What every cell runs under.
    pub(crate) hazards: Hazards,
    /// Runner threads (at most one per pending DAG).
    pub(crate) workers: usize,
    pub(crate) journal: Option<JournalTarget<'a>>,
    pub(crate) ctrl: &'a RunControl,
}

/// Receives finished cells on the calling thread.
pub(crate) type Sink<'a> = dyn FnMut(CellResult) -> Result<(), JournalError> + 'a;

/// A daemon client's `(key, payload)` observer.
type Emit<'a> = dyn FnMut(&str, &str) -> bool + 'a;

impl Harness {
    /// Runs `grid`: recovers its journal, computes the missing cells on
    /// its runner threads, sinks each one, and returns the merged grid. `emit`
    /// observes every cell as `(key, payload)`, resumed ones included.
    pub(crate) fn drive(
        &self,
        grid: Grid<'_>,
        mut emit: Option<&mut Emit<'_>>,
    ) -> Result<JournaledGrid, JournalError> {
        let corpus = self.corpus();
        let corpus = &corpus[..grid.take.map_or(corpus.len(), |t| t.min(corpus.len()))];
        let n = corpus.len();
        let expected = (n * CELLS_PER_DAG) as u64;
        let env = &**self.io_env();
        let request = grid.journal.as_ref().and_then(|t| t.request);
        let campaign = match (request, grid.take) {
            (Some(_), _) => format!("serve[..{n}]"),
            (None, None) => "paper-grid".to_string(),
            (None, Some(_)) => format!("paper-grid[..{n}]"),
        };

        let (cells, mut writer, dropped_bytes) = match &grid.journal {
            Some(target) => {
                let isolation = if request.is_some() { "serve" } else { "inproc" };
                let header = JournalHeader {
                    format: FORMAT_V1.to_string(),
                    campaign: campaign.clone(),
                    seed: self.testbed.base_seed,
                    repeats: grid.repeats,
                    cells_expected: expected,
                    config_digest: grid.hazards.digest(),
                    isolation: isolation.to_string(),
                    request: request.unwrap_or_default().to_string(),
                };
                let (records, writer, dropped) =
                    open_grid_journal(env, target.path, &header, target.resume)?;
                let mut cells = Vec::with_capacity(records.len());
                for (key, payload, cell) in records {
                    if let Some(emit) = emit.as_mut() {
                        emit(&key, &payload);
                    }
                    cells.push((key, cell));
                }
                (cells, Some(writer), dropped)
            }
            None => (Vec::new(), None, 0),
        };
        let resumed = cells.len();
        let done: HashSet<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        let pending = pending_specs(corpus, &done, grid.repeats);

        let mut new_cells = Vec::new();
        let ran = {
            let mut sink = |cell: CellResult| -> Result<(), JournalError> {
                if writer.is_some() || emit.is_some() {
                    let key = cell.key(grid.repeats);
                    let payload =
                        serde_json::to_string(&cell).map_err(|e| JournalError::Serde {
                            what: "cell result",
                            err: e.to_string(),
                        })?;
                    if let Some(w) = writer.as_mut() {
                        w.append_record(&key, &payload)?;
                    }
                    if let Some(emit) = emit.as_mut() {
                        emit(&key, &payload);
                    }
                }
                new_cells.push(cell);
                Ok(())
            };
            self.run_cells(corpus, &pending, &grid, &mut sink)
        };
        // Whatever the sink reported, what reached the journal is made
        // durable before the error (if any) is.
        let synced = writer.as_mut().map_or(Ok(()), JournalWriter::sync);
        ran?;
        synced?;

        let computed = new_cells.len();
        let total_done = resumed + computed;
        let status = if total_done as u64 == expected {
            GridStatus::Complete
        } else {
            grid.ctrl
                .should_stop()
                .map_or(GridStatus::Interrupted, GridStatus::from)
        };
        let mut cells: Vec<CellResult> =
            cells.into_iter().map(|(_, c)| c).chain(new_cells).collect();
        sort_cells_canonical(&mut cells);
        let quarantined = cells
            .iter()
            .filter(|c| c.outcome.crash_report().is_some())
            .count();
        let path = grid.journal.as_ref().map(|t| t.path.to_path_buf());
        if let Some(path) = &path {
            journal::write_manifest_in(
                env,
                path,
                &Manifest {
                    format: MANIFEST_FORMAT_V1.to_string(),
                    campaign,
                    records: total_done as u64,
                    expected,
                    status: status.label().to_string(),
                    quarantined: quarantined as u64,
                },
            )?;
        }
        Ok(JournaledGrid {
            cells,
            status,
            resumed,
            computed,
            pending: expected as usize - total_done,
            quarantined,
            salvage_dropped_bytes: dropped_bytes,
            journal: path.unwrap_or_default(),
        })
    }

    /// Computes `pending` on `grid`'s runner threads, handing each cell to
    /// `sink` on the calling thread in dispatch order. This is the one
    /// cell loop.
    pub(crate) fn run_cells(
        &self,
        corpus: &[GeneratedDag],
        pending: &[CellSpec],
        grid: &Grid<'_>,
        sink: &mut Sink<'_>,
    ) -> Result<(), JournalError> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for run in pending.chunk_by(|a, b| a.dag == b.dag) {
            let start = runs.last().map_or(0, |r| r.end);
            runs.push(start..start + run.len());
        }
        let workers = grid.workers.clamp(1, runs.len().max(1));
        let src = Source {
            corpus,
            pending,
            runs,
            next: AtomicUsize::new(0),
        };
        // One runner thread, from its first cell to leaving the run.
        let run = |out: &mut dyn FnMut(usize, CellResult) -> bool| self.work(&src, grid, out);

        let mut sunk = Ok(());
        let mut to_sink = |cell: CellResult| match sink(cell) {
            Ok(()) => true,
            Err(e) => {
                sunk = Err(e);
                false
            }
        };
        if workers == 1 {
            // One thread computes the cells in dispatch order.
            run(&mut |_, cell| to_sink(cell));
            return sunk;
        }
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (tx, run) = (tx.clone(), &run);
                    scope.spawn(move || run(&mut |i, cell| tx.send((i, cell)).is_ok()))
                })
                .collect();
            drop(tx);
            // Cells reach the sink in dispatch order: one that lands early
            // waits for those dispatched before it. A stop leaves gaps, and
            // the cells that did land still go.
            let mut landed = BTreeMap::new();
            let mut due = 0;
            'recv: for msg in rx.iter().map(Some).chain([None]) {
                let last = msg.is_none();
                landed.extend(msg);
                while let Some(cell) = landed.first_entry().filter(|e| last || *e.key() == due) {
                    due += 1;
                    if !to_sink(cell.remove()) {
                        break 'recv;
                    }
                }
            }
            // A failed sink stops the workers: at their next send, now the
            // receiver is gone, or at their next stop check.
            drop(rx);
            // Join each thread explicitly: the scope's own wait returns
            // before a worker has dropped its thread-local slab, so the
            // next grid's workers could start while the old ones still
            // free theirs, and the allocator would then hand them fresh
            // arenas (≈ 2 MiB more peak memory) instead of reusing one.
            for h in handles {
                h.join().expect("grid worker panicked");
            }
        });
        sunk
    }

    /// One runner thread's loop: takes per-DAG runs from `src`, checks the
    /// stop before each cell and paces after it, and hands each cell to
    /// `out` with its index in `pending`.
    fn work(
        &self,
        src: &Source<'_>,
        grid: &Grid<'_>,
        out: &mut dyn FnMut(usize, CellResult) -> bool,
    ) {
        let ctrl = grid.ctrl;
        while let Some(run) = src.next() {
            for i in run {
                if ctrl.should_stop().is_some() {
                    return;
                }
                let spec = &src.pending[i];
                // A panicking cell becomes a Crashed record, not a dead
                // grid; a cell past its wall deadline a TimedOut one.
                let cell = self.run_cell_caught(
                    &src.corpus[spec.dag],
                    spec.variant,
                    algo_of(spec.algo),
                    grid.repeats,
                    &grid.hazards,
                );
                if !out(i, cell) {
                    return;
                }
                ctrl.pace();
            }
        }
    }
}

/// The one source of work: per-DAG runs of `pending` from one cursor.
struct Source<'a> {
    corpus: &'a [GeneratedDag],
    pending: &'a [CellSpec],
    runs: Vec<Range<usize>>,
    next: AtomicUsize,
}

impl Source<'_> {
    fn next(&self) -> Option<Range<usize>> {
        let run = self.runs.get(self.next.fetch_add(1, Ordering::Relaxed))?;
        Some(run.clone())
    }
}

/// What [`open_grid_journal`] recovers: the salvaged records as `(key,
/// verbatim payload, cell)`, the writer positioned for appends, and how
/// many torn-tail bytes were dropped.
type OpenedJournal = (Vec<(String, String, CellResult)>, JournalWriter, u64);

/// Recovers an existing journal (salvaging every intact cell and
/// truncating any torn tail) or starts a fresh one.
fn open_grid_journal(
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
                let mut records = Vec::with_capacity(rec.records.len());
                for (i, (key, payload)) in rec.records.into_iter().enumerate() {
                    let cell: CellResult =
                        serde_json::from_str(&payload).map_err(|e| JournalError::Corrupt {
                            line: i + 2,
                            reason: format!("record {key}: {e}"),
                        })?;
                    records.push((key, payload, cell));
                }
                Ok((records, w, rec.dropped_bytes))
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
fn pending_specs(corpus: &[GeneratedDag], done: &HashSet<&str>, repeats: u64) -> Vec<CellSpec> {
    let mut pending = Vec::with_capacity(corpus.len() * CELLS_PER_DAG);
    for (dag, g) in corpus.iter().enumerate() {
        for variant in SimVariant::ALL {
            for algo in 0..2 {
                let key = || {
                    cell_key(
                        &g.name(),
                        g.params.matrix_size,
                        variant,
                        algo_of(algo).name(),
                        repeats,
                    )
                };
                if done.is_empty() || !done.contains(key().as_str()) {
                    pending.push(CellSpec { dag, variant, algo });
                }
            }
        }
    }
    pending
}
