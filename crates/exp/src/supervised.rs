//! Process-isolated grid campaigns: `repro --isolation process`.
//!
//! The journaled in-process runner ([`crate::journaled`]) shares one
//! address space between every cell, so one poison cell — a panic the
//! `catch_unwind` net cannot contain (abort, stack overflow), an infinite
//! loop, a memory blow-up — takes the whole campaign down, and a
//! *deterministic* crasher re-kills every `--resume`. This module runs
//! cells in child worker processes instead: the supervisor (this process)
//! owns the journal and the decisions, workers own the blast radius.
//!
//! * Workers are the `repro` binary re-executed in a hidden
//!   `--cell-worker` mode whose argv carries only the harness seed and a
//!   tag, speaking length-prefixed JSON frames over stdin/stdout
//!   ([`mps_core::supervise::proto`]). Each cell request carries the
//!   grid's [`Hazards`], so a worker runs a cell exactly as this process
//!   would.
//! * Every dispatched cell gets a wall-clock deadline; a worker that
//!   blows it is SIGKILLed and the attempt is recorded as a timeout.
//! * A dead worker is respawned with exponential backoff under a
//!   restart-intensity cap ([`mps_core::supervise::Supervisor`]); a cell
//!   that kills its worker `max_cell_attempts` times is **quarantined**:
//!   the journal gets a [`CellOutcome::Quarantined`] record carrying the
//!   full [`CrashReport`] (exit status / signal, stderr tail, wall time
//!   per attempt), and `--resume` skips it like any other durable cell.
//! * Successful cells journal exactly the bytes an in-process run would
//!   have written, so healthy results are indistinguishable across
//!   isolation modes and a campaign can switch modes between resumes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use mps_core::dag::gen::GeneratedDag;
use mps_core::journal::RunControl;
use mps_core::supervise::{
    read_frame, write_frame, Action, Attempt, AttemptOutcome, CrashReport, Disposition,
    SuperviseError, Supervisor, SupervisorConfig, WorkerDeath, WorkerHello, WorkerProcess,
    WorkerRecv, WorkerSpec,
};
use mps_core::MpsError;

use crate::driver::{algo_of, CellSpec, Grid, JournalTarget, Runner, Sink};
use crate::journaled::JournaledGrid;
use crate::runner::{blank_cell, CellOutcome, CellResult, Harness, Hazards, SimVariant};

/// Supervisor → worker: run this cell. Indices refer to the deterministic
/// paper corpus and the fixed `{HCPA, MCPA}` algorithm order, which both
/// sides reconstruct independently — the worker cannot be handed a DAG
/// the supervisor didn't mean.
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

/// Worker → supervisor: the completed cell, keyed for the journal.
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

/// Driver-side state of one worker slot.
struct Slot {
    proc: Option<WorkerProcess>,
    /// Earliest instant the issued spawn may execute (backoff).
    spawn_due: Option<Instant>,
    /// Deadline for the [`WorkerHello`] handshake.
    ready_deadline: Option<Instant>,
    /// Deadline and start instant of the dispatched cell.
    cell_deadline: Option<Instant>,
    cell_started: Option<Instant>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            proc: None,
            spawn_due: None,
            ready_deadline: None,
            cell_deadline: None,
            cell_started: None,
        }
    }

    /// Wall time the in-flight cell has consumed, in milliseconds.
    fn cell_wall_ms(&self) -> u64 {
        self.cell_started
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }

    fn clear_cell(&mut self) {
        self.cell_deadline = None;
        self.cell_started = None;
    }

    /// SIGKILLs and reaps the slot's worker, if it has one.
    fn kill(&mut self) -> Option<WorkerDeath> {
        self.ready_deadline = None;
        self.clear_cell();
        self.proc.take().map(WorkerProcess::kill_and_reap)
    }
}

/// Everything the event loop threads through its helpers: the immutable
/// run description plus the crash reports and the driver's sink.
struct Run<'a> {
    corpus: &'a [GeneratedDag],
    pending: &'a [CellSpec],
    /// The next cell request: dispatch fills in the cell.
    request: CellRequest,
    opts: &'a SuperviseOpts,
    reports: Vec<CrashReport>,
    /// Takes each cell (measurement or quarantine record) as it lands.
    sink: &'a mut Sink<'a>,
}

impl Run<'_> {
    /// Pending cell `cell_idx` with no measurement yet.
    fn blank_of(&self, cell_idx: usize) -> CellResult {
        let cs = &self.pending[cell_idx];
        blank_cell(&self.corpus[cs.dag], cs.variant, algo_of(cs.algo))
    }

    /// Records a failed attempt against worker `w`'s cell; when the
    /// machine quarantines the cell, sinks its poison record.
    fn note_failure(
        &mut self,
        machine: &mut Supervisor,
        w: usize,
        attempt: Attempt,
    ) -> Result<(), MpsError> {
        let (cell_idx, disposition) = machine.cell_failed(w);
        self.reports[cell_idx].attempts.push(attempt);
        if disposition == Disposition::Quarantined {
            let report = std::mem::take(&mut self.reports[cell_idx]);
            let cell = CellResult {
                outcome: CellOutcome::from_report(report),
                ..self.blank_of(cell_idx)
            };
            (self.sink)(cell)?;
        }
        Ok(())
    }
}

fn attempt_from_death(death: Option<WorkerDeath>, wall_ms: u64) -> Attempt {
    let (exit_code, signal, stderr_tail) = match death {
        Some(d) => (d.exit_code, d.signal, d.stderr_tail),
        None => (None, None, String::new()),
    };
    Attempt {
        outcome: AttemptOutcome::Crashed {
            exit_code,
            signal,
            stderr_tail,
        },
        wall_ms,
    }
}

fn is_busy(machine: &Supervisor, w: usize) -> bool {
    machine.busy_workers().iter().any(|&(bw, _)| bw == w)
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

/// The process runner: computes `pending` in supervised child workers,
/// handing each cell to `sink` as it lands. No child outlives the call.
pub(crate) fn run_processes(
    corpus: &[GeneratedDag],
    pending: &[CellSpec],
    grid: &Grid<'_>,
    worker: &WorkerCommand,
    opts: &SuperviseOpts,
    sink: &mut Sink<'_>,
) -> Result<(), MpsError> {
    let n_workers = opts.workers.max(1).min(pending.len().max(1));
    let mut machine = Supervisor::new(opts.config, n_workers, pending.len());
    let mut slots: Vec<Slot> = (0..n_workers).map(|_| Slot::new()).collect();
    let mut run = Run {
        corpus,
        pending,
        request: CellRequest {
            dag: 0,
            variant: SimVariant::Analytic,
            algo: 0,
            repeats: grid.repeats,
            hazards: grid.hazards.clone(),
        },
        opts,
        reports: vec![CrashReport::default(); pending.len()],
        sink,
    };
    let spec = WorkerSpec::new(worker.program.clone(), worker.args.clone());

    let outcome = supervise_loop(&mut run, &mut machine, &mut slots, &spec, grid.ctrl);
    // Whatever happened, close every worker down (cleanly where
    // possible) and reap it.
    for slot in &mut slots {
        if let Some(p) = slot.proc.take() {
            p.shutdown(Duration::from_secs(2));
        }
    }
    outcome
}

/// The supervision event loop. Single-threaded: executes the state
/// machine's decisions, polls workers without blocking, enforces
/// handshake and per-cell deadlines, and journals completions and
/// quarantines inline.
fn supervise_loop(
    run: &mut Run<'_>,
    machine: &mut Supervisor,
    slots: &mut [Slot],
    spec: &WorkerSpec,
    ctrl: &RunControl,
) -> Result<(), MpsError> {
    loop {
        // Cancellation (SIGINT, deadline): drain the machine, abort
        // in-flight cells without charging them, and kill + reap every
        // worker before leaving — no orphan survives a Ctrl-C.
        if !machine.is_draining() && ctrl.should_stop().is_some() {
            machine.drain();
            for (w, _cell) in machine.busy_workers() {
                machine.cell_aborted(w);
            }
            for slot in slots.iter_mut() {
                slot.kill();
            }
        }

        // Execute machine decisions until it wants to wait or stop.
        let mut progressed = false;
        let finished = loop {
            match machine.next_action() {
                Action::Spawn { worker, delay } => {
                    slots[worker].spawn_due = Some(Instant::now() + delay);
                }
                Action::Dispatch { worker, cell } => {
                    progressed = true;
                    let cs = &run.pending[cell];
                    let req = &mut run.request;
                    (req.dag, req.variant, req.algo) = (cs.dag, cs.variant, cs.algo);
                    let now = Instant::now();
                    let sent = slots[worker]
                        .proc
                        .as_mut()
                        .expect("dispatch target must be live")
                        .send(&*req);
                    match sent {
                        Ok(()) => {
                            slots[worker].cell_started = Some(now);
                            slots[worker].cell_deadline = Some(now + run.opts.cell_timeout);
                        }
                        Err(_) => {
                            // Broken pipe: the worker died under us.
                            let death = slots[worker].kill();
                            run.note_failure(machine, worker, attempt_from_death(death, 0))?;
                        }
                    }
                }
                Action::Wait => break false,
                Action::Finished => break true,
                Action::Exhausted => {
                    return Err(MpsError::Supervise(
                        SuperviseError::RestartBudgetExhausted {
                            restarts: machine.restarts_used(),
                            unresolved: machine.unresolved(),
                        },
                    ));
                }
            }
        };
        if finished {
            return Ok(());
        }

        // Execute due spawns (never while draining).
        if !machine.is_draining() {
            for (w, slot) in slots.iter_mut().enumerate() {
                let due = matches!(slot.spawn_due, Some(t) if t <= Instant::now());
                if due && slot.proc.is_none() {
                    slot.spawn_due = None;
                    match WorkerProcess::spawn(spec) {
                        Ok(p) => {
                            slot.proc = Some(p);
                            slot.ready_deadline = Some(Instant::now() + SPAWN_TIMEOUT);
                        }
                        Err(_) => machine.worker_died(w),
                    }
                    progressed = true;
                }
            }
        }

        // Poll every live worker: frames, deaths, deadlines.
        for w in 0..slots.len() {
            let Some(proc) = slots[w].proc.as_ref() else {
                continue;
            };
            match proc.recv_timeout(Duration::ZERO) {
                WorkerRecv::Frame(bytes) => {
                    progressed = true;
                    on_frame(run, machine, slots, w, &bytes)?;
                }
                WorkerRecv::Disconnected => {
                    progressed = true;
                    let busy = is_busy(machine, w);
                    let wall = slots[w].cell_wall_ms();
                    let death = slots[w].kill();
                    if busy {
                        run.note_failure(machine, w, attempt_from_death(death, wall))?;
                    } else {
                        machine.worker_died(w);
                    }
                }
                WorkerRecv::Timeout => {
                    let now = Instant::now();
                    if matches!(slots[w].cell_deadline, Some(d) if now > d) {
                        // The cell blew its wall-clock budget: SIGKILL.
                        progressed = true;
                        let wall = slots[w].cell_wall_ms();
                        let timeout_ms = run.opts.cell_timeout.as_millis() as u64;
                        slots[w].kill();
                        run.note_failure(
                            machine,
                            w,
                            Attempt {
                                outcome: AttemptOutcome::TimedOut { timeout_ms },
                                wall_ms: wall,
                            },
                        )?;
                    } else if matches!(slots[w].ready_deadline, Some(d) if now > d) {
                        // Never completed its handshake.
                        progressed = true;
                        slots[w].kill();
                        machine.worker_died(w);
                    }
                }
            }
        }

        if !progressed {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Handles one frame from worker `w`: the ready handshake or a completed
/// cell. A malformed or unexpected frame kills the worker (and, when a
/// cell was in flight, counts as a crash against it).
fn on_frame(
    run: &mut Run<'_>,
    machine: &mut Supervisor,
    slots: &mut [Slot],
    w: usize,
    bytes: &[u8],
) -> Result<(), MpsError> {
    use mps_core::supervise::proto::decode_frame;

    if slots[w].ready_deadline.is_some() {
        match decode_frame::<WorkerHello>(bytes) {
            Ok(hello) if hello.ready => {
                if let Err(e) = hello.check_version() {
                    // Version skew is a configuration error, not a flaky
                    // worker: respawning the same binary can never fix
                    // it, so fail the campaign with the typed error.
                    slots[w].kill();
                    return Err(MpsError::Supervise(e));
                }
                slots[w].ready_deadline = None;
                machine.worker_up(w);
            }
            _ => {
                slots[w].kill();
                machine.worker_died(w);
            }
        }
        return Ok(());
    }
    if !is_busy(machine, w) {
        // A frame from an idle worker violates the protocol.
        slots[w].kill();
        machine.worker_died(w);
        return Ok(());
    }
    match decode_frame::<CellResponse>(bytes) {
        Ok(resp) => {
            let cell_idx = machine.cell_succeeded(w);
            slots[w].clear_cell();
            debug_assert_eq!(
                resp.key,
                run.blank_of(cell_idx).key(run.request.repeats),
                "worker answered a different cell than dispatched"
            );
            (run.sink)(resp.cell)
        }
        Err(_) => {
            let wall = slots[w].cell_wall_ms();
            let death = slots[w].kill();
            run.note_failure(machine, w, attempt_from_death(death, wall))
        }
    }
}
