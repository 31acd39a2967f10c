//! Process-isolated grid campaigns: `repro --isolation process`.
//!
//! In process, one poison cell — an abort or stack overflow the
//! `catch_unwind` net cannot contain, an infinite loop, a memory blow-up —
//! takes the whole campaign down, and a *deterministic* crasher re-kills
//! every `--resume`. Under process isolation each runner thread of the one
//! cell loop (`driver.rs`) computes its cells in its own child worker
//! (`Child`) instead: this process owns the journal and the decisions,
//! the workers own the blast radius.
//!
//! * Workers are the `repro` binary re-executed in a hidden
//!   `--cell-worker` mode whose argv carries only the harness seed and a
//!   tag, speaking length-prefixed JSON frames over stdin/stdout
//!   ([`mps_core::supervise::proto`]). Each cell request carries the
//!   grid's [`Hazards`], so a worker runs a cell exactly as this process
//!   would, and journals exactly the bytes an in-process run would write.
//! * A cell attempt that blows its wall-clock deadline is SIGKILLed and
//!   recorded as a timeout. A dead worker is respawned under the run's
//!   [`Policy`]; a cell that kills its worker `max_cell_attempts` times is
//!   **quarantined**: its journal record is a [`CellOutcome::Quarantined`]
//!   carrying the full [`CrashReport`], and `--resume` skips it like any
//!   other durable cell.

use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mps_core::dag::gen::GeneratedDag;
use mps_core::journal::RunControl;
use mps_core::supervise::proto::decode_frame;
use mps_core::supervise::{
    read_frame, write_frame, Attempt, AttemptOutcome, CrashReport, Policy, Spawn, SuperviseError,
    SupervisorConfig, WorkerHello, WorkerProcess, WorkerRecv, WorkerSpec,
};
use mps_core::MpsError;

use crate::driver::{algo_of, CellSpec, Grid, JournalTarget, Runner, Work};
use crate::journaled::JournaledGrid;
use crate::runner::{blank_cell, CellOutcome, CellResult, Harness, Hazards, SimVariant};

/// Parent → worker: run this cell. Indices refer to the deterministic
/// paper corpus and the fixed `{HCPA, MCPA}` algorithm order, which both
/// sides reconstruct independently — the worker cannot be handed a DAG
/// the parent didn't mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRequest {
    /// Index into the paper corpus.
    pub dag: usize,
    /// Simulator version to run.
    pub variant: SimVariant,
    /// Algorithm index (0 = HCPA, 1 = MCPA).
    pub algo: usize,
    /// Testbed repeats for this cell.
    pub repeats: u64,
    /// The grid's hazards.
    pub hazards: Hazards,
}

/// Worker → parent: the completed cell, keyed for the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResponse {
    /// The cell's journal key.
    pub key: String,
    /// The measured cell.
    pub cell: CellResult,
}

/// How to launch a worker process (the `repro` binary in `--cell-worker`
/// mode with the supervisor's harness seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// Worker executable (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Full argument list, `--cell-worker` included.
    pub args: Vec<String>,
}

/// Process policy of a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseOpts {
    /// Worker processes.
    pub workers: usize,
    /// Wall-clock budget per cell attempt; a worker exceeding it is
    /// SIGKILLed and the attempt counts as a timeout.
    pub cell_timeout: Duration,
    /// Restart/backoff/quarantine policy.
    pub config: SupervisorConfig,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            workers: 2,
            cell_timeout: Duration::from_secs(120),
            config: SupervisorConfig::default(),
        }
    }
}

/// Budget for the spawn → [`WorkerHello`] handshake.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs the worker side of the protocol over this process's stdin/stdout
/// until the supervisor closes the pipe. Returns the process exit code:
/// 0 on a clean EOF, 1 on a protocol violation.
///
/// Deliberately **no** `catch_unwind` here: a panicking cell kills this
/// process, and that death — with its exit status and stderr tail — *is*
/// the crash report. Process isolation means never pretending a poisoned
/// address space is still trustworthy.
pub fn serve_cells(harness: &Harness) -> i32 {
    let corpus = harness.corpus();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    // The handshake carries the worker protocol version; a supervisor
    // from a different build answers by killing us, never by misparsing
    // our frames.
    if write_frame(&mut output, &WorkerHello::current()).is_err() {
        return 1;
    }
    loop {
        match read_frame::<_, CellRequest>(&mut input) {
            Ok(Some(req)) => {
                let Some(g) = corpus.get(req.dag) else {
                    eprintln!("cell-worker: dag index {} out of range", req.dag);
                    return 1;
                };
                let algo = algo_of(req.algo);
                let cell = harness.run_cell(g, req.variant, algo, req.repeats, &req.hazards);
                let key = cell.key(req.repeats);
                if write_frame(&mut output, &CellResponse { key, cell }).is_err() {
                    return 1;
                }
            }
            Ok(None) => return 0,
            Err(e) => {
                eprintln!("cell-worker: {e}");
                return 1;
            }
        }
    }
}

impl Harness {
    /// [`Harness::run_grid_journaled`](crate::journaled) with process
    /// isolation, over the first `take` corpus DAGs (`None`: all of
    /// them): cells run in supervised child workers, poison cells are
    /// quarantined into the journal, and the merged grid comes back with
    /// the same contract (canonical order, resume provenance). Campaign
    /// names match the in-process runner's, so a journal started under
    /// one isolation mode resumes under the other. The workers run every
    /// cell under the harness's own hazards.
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised(
        &self,
        take: Option<usize>,
        path: &Path,
        repeats: u64,
        resume: bool,
        worker: &WorkerCommand,
        opts: &SuperviseOpts,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, MpsError> {
        let grid = Grid {
            take,
            repeats,
            hazards: self.hazards(),
            runner: Runner::Processes(worker, opts),
            journal: Some(JournalTarget {
                path,
                resume,
                request: None,
            }),
            ctrl,
        };
        self.drive(grid, None)
    }
}

/// The longest a wait on a worker blocks before it checks for a stop.
const STOP_SLICE: Duration = Duration::from_millis(50);

/// What the runner threads of a process-isolated run share: the worker
/// command, the supervision [`Policy`] and the work retired worker slots
/// hand back, behind one lock.
pub(crate) struct Pool<'a> {
    spec: WorkerSpec,
    opts: &'a SuperviseOpts,
    ctrl: &'a RunControl,
    state: Mutex<Shared>,
    /// Wakes threads waiting for handed-back work or out a backoff.
    wake: Condvar,
}

struct Shared {
    policy: Policy,
    handed_back: Vec<Work>,
    /// Threads out of work, waiting in [`Pool::next`].
    idle: usize,
}

impl<'a> Pool<'a> {
    pub(crate) fn new(
        worker: &WorkerCommand,
        opts: &'a SuperviseOpts,
        ctrl: &'a RunControl,
        slots: usize,
    ) -> Self {
        let state = Shared {
            policy: Policy::new(opts.config, slots),
            handed_back: Vec::new(),
            idle: 0,
        };
        Pool {
            spec: WorkerSpec::new(worker.program.clone(), worker.args.clone()),
            opts,
            ctrl,
            state: Mutex::new(state),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Work for a thread: handed-back cells first, then `fresh` ones. With
    /// neither, it waits until a retiring slot hands cells back or every
    /// other live slot is idle too.
    pub(crate) fn next(&self, fresh: impl Fn() -> Option<Work>) -> Option<Work> {
        let mut s = self.lock();
        loop {
            let work = s.handed_back.pop().or_else(&fresh);
            if work.is_some() || s.policy.stopped() || s.idle + 1 >= s.policy.live() {
                return work;
            }
            s.idle += 1;
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.idle -= 1;
        }
    }

    /// A runner thread leaves the run as its loop `ended`. A retired slot
    /// hands its work back to the live slots; with none left the restart
    /// budget is exhausted, `untaken` cells besides. An error stops the run.
    pub(crate) fn leave(
        &self,
        ended: Result<Option<Work>, MpsError>,
        untaken: usize,
    ) -> Result<(), MpsError> {
        let mut s = self.lock();
        let left = match ended {
            Ok(Some(work)) => {
                s.handed_back.push(work);
                let unresolved = untaken + s.handed_back.iter().map(|w| w.0.len()).sum::<usize>();
                let restarts = s.policy.restarts_used();
                let exhausted = SuperviseError::RestartBudgetExhausted {
                    restarts,
                    unresolved,
                };
                let live = s.policy.retire();
                live.then_some(()).ok_or(MpsError::Supervise(exhausted))
            }
            ended => {
                s.policy.leave();
                ended.map(drop)
            }
        };
        if left.is_err() {
            s.policy.stop();
        }
        self.wake.notify_all();
        left
    }

    /// Stops the run: every thread leaves at its next check.
    pub(crate) fn stop(&self) {
        self.lock().policy.stop();
        self.wake.notify_all();
    }

    /// Whether the run is stopping: a stop of its control stops the policy.
    fn stopping(&self) -> bool {
        if self.ctrl.should_stop().is_some() {
            self.stop();
        }
        self.lock().policy.stopped()
    }

    /// Waits out a respawn backoff on the condvar in bounded slices;
    /// `false` when the run stops first.
    fn back_off(&self, delay: Duration) -> bool {
        let until = Instant::now() + delay;
        while !self.stopping() {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            drop(self.wake.wait_timeout(self.lock(), left.min(STOP_SLICE)));
        }
        false
    }

    /// Waits for `proc`'s next frame until `deadline`, blocking on its
    /// frame channel in bounded slices and checking for a stop between
    /// them. `None` when the run stops; [`WorkerRecv::Timeout`] when the
    /// deadline passes.
    fn recv(&self, proc: &WorkerProcess, deadline: Instant) -> Option<WorkerRecv> {
        while !self.stopping() {
            let left = deadline.saturating_duration_since(Instant::now());
            match proc.recv_timeout(left.min(STOP_SLICE)) {
                WorkerRecv::Timeout if !left.is_zero() => {}
                got => return Some(got),
            }
        }
        None
    }
}

/// How [`Child::run`] left a cell.
pub(crate) enum Step {
    /// The measured cell, or its quarantine record.
    Cell(CellResult),
    /// The run is stopping; the cell was not charged.
    Stopped,
    /// The budget cannot cover a respawn: the slot retires with the
    /// cell's failed attempts so far.
    Retired(CrashReport),
}

/// A runner thread's own child worker: under `--isolation process`, what
/// the thread calls instead of `run_cell_caught`. Dropping it kills and
/// reaps the worker, so no child outlives its thread.
pub(crate) struct Child<'a> {
    pool: &'a Pool<'a>,
    request: CellRequest,
    proc: Option<WorkerProcess>,
    /// Consecutive deaths of this slot's worker: the backoff exponent.
    /// A quarantine restarts it at 1.
    deaths: u32,
}

impl<'a> Child<'a> {
    pub(crate) fn new(pool: &'a Pool<'a>, grid: &Grid<'_>) -> Self {
        Child {
            pool,
            request: CellRequest {
                dag: 0,
                variant: SimVariant::Analytic,
                algo: 0,
                repeats: grid.repeats,
                hazards: grid.hazards.clone(),
            },
            proc: None,
            deaths: 0,
        }
    }

    /// Runs one cell in this slot's worker, respawning the worker after
    /// each death until the cell lands or is quarantined. `report` holds
    /// the cell's failed attempts so far.
    pub(crate) fn run(
        &mut self,
        g: &GeneratedDag,
        spec: &CellSpec,
        mut report: CrashReport,
    ) -> Result<Step, MpsError> {
        let req = &mut self.request;
        (req.dag, req.variant, req.algo) = (spec.dag, spec.variant, spec.algo);
        let blank = blank_cell(g, spec.variant, algo_of(spec.algo));
        let key = blank.key(req.repeats);
        let pool = self.pool;
        loop {
            if self.proc.is_none() {
                if let Some(step) = self.up(&mut report)? {
                    return Ok(step);
                }
            }
            let proc = self.proc.as_mut().expect("the worker is up");
            if pool.stopping() {
                return Ok(Step::Stopped);
            }
            let started = Instant::now();
            // A failed send is a broken pipe: the worker died under us.
            let recv = match proc.send(&self.request) {
                Ok(()) => pool.recv(proc, started + pool.opts.cell_timeout),
                Err(_) => Some(WorkerRecv::Disconnected),
            };
            let outcome = match recv {
                Some(WorkerRecv::Frame(bytes)) => match decode_frame::<CellResponse>(&bytes) {
                    Ok(resp) if resp.key == key => {
                        self.deaths = 0;
                        return Ok(Step::Cell(resp.cell));
                    }
                    // A torn frame or another cell's answer.
                    _ => None,
                },
                Some(WorkerRecv::Disconnected) => None,
                Some(WorkerRecv::Timeout) => Some(AttemptOutcome::TimedOut {
                    timeout_ms: pool.opts.cell_timeout.as_millis() as u64,
                }),
                None => {
                    self.proc = None;
                    return Ok(Step::Stopped);
                }
            };
            let wall_ms = started.elapsed().as_millis() as u64;
            let death = self.proc.take().expect("the worker is up").kill_and_reap();
            self.deaths += 1;
            let outcome = outcome.unwrap_or(AttemptOutcome::Crashed {
                exit_code: death.exit_code,
                signal: death.signal,
                stderr_tail: death.stderr_tail,
            });
            report.attempts.push(Attempt { outcome, wall_ms });
            if pool.lock().policy.quarantines(report.attempt_count()) {
                // The poison cell's deaths are its own: the next cell's
                // respawn is still charged, but backs off from the base.
                self.deaths = 1;
                let outcome = CellOutcome::from_report(report);
                return Ok(Step::Cell(CellResult { outcome, ..blank }));
            }
        }
    }

    /// Brings this slot's worker up: a respawn waits out its backoff, and
    /// the worker must say hello within [`SPAWN_TIMEOUT`]. A worker that
    /// dies before it is up charges no cell. `Some(step)` when the slot
    /// stops or retires instead.
    fn up(&mut self, report: &mut CrashReport) -> Result<Option<Step>, MpsError> {
        let pool = self.pool;
        loop {
            let delay = match pool.lock().policy.spawn(self.deaths) {
                Spawn::After(delay) => delay,
                Spawn::Retire => return Ok(Some(Step::Retired(std::mem::take(report)))),
                Spawn::Stop => return Ok(Some(Step::Stopped)),
            };
            if !pool.back_off(delay) {
                return Ok(Some(Step::Stopped));
            }
            // A worker that is not kept is killed and reaped as it drops.
            if let Ok(proc) = WorkerProcess::spawn(&pool.spec) {
                match pool.recv(&proc, Instant::now() + SPAWN_TIMEOUT) {
                    Some(WorkerRecv::Frame(bytes)) => match decode_frame::<WorkerHello>(&bytes) {
                        Ok(hello) if hello.ready => {
                            // Version skew is a configuration error, not a
                            // flaky worker: respawning the same binary can
                            // never fix it, so the run fails typed.
                            hello.check_version()?;
                            self.proc = Some(proc);
                            return Ok(None);
                        }
                        _ => {}
                    },
                    None => return Ok(Some(Step::Stopped)),
                    Some(_) => {}
                }
            }
            self.deaths += 1;
        }
    }
}
