//! The production [`Backend`] behind `repro serve`: executes
//! `mps-proto/v1` work requests against a [`Harness`].
//!
//! Three durability tiers, picked by configuration:
//!
//! * **Ephemeral** (no state dir): cells are computed and streamed,
//!   nothing touches disk. A killed daemon loses in-flight work.
//! * **Journaled** (state dir): every `SubsetGrid` request gets a
//!   write-ahead journal named by the FNV-64 of its request JSON + the
//!   harness config digest. A resubmitted request *replays* the
//!   journaled prefix byte-for-byte and computes only the remainder; a
//!   restarted daemon finishes interrupted journals at startup
//!   ([`ServeBackend::recover`]) because the journal header carries the
//!   verbatim request.
//! * **Process-isolated** (state dir + worker command): cells run in
//!   supervised child processes — a poison request is quarantined cell
//!   by cell instead of taking the daemon down.
//!
//! Cell payloads are exactly the bytes the journal stores, so a client
//! cannot tell a replayed cell from a freshly computed one.

use std::collections::HashSet;
use std::path::PathBuf;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::{DisturbancePlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::{self, fnv64, JournalHeader, RunControl, StopReason, FORMAT_V1};
use mps_core::online::{OnlineAlgo, OnlineConfig, OnlineEngine};
use mps_core::sched::Scheduler;
use mps_core::serve::{Backend, ServeError, WorkRequest, WorkSummary};

use crate::journaled::{algo_of, finalize_grid, open_grid_journal, pending_specs, JournaledGrid};
use crate::runner::{cell_key, CellOutcome, CellResult, DisturbConfig, Harness, SimVariant};
use crate::supervised::{SuperviseOpts, WorkerCommand};

/// Hard cap on the event horizon a client can request from the daemon
/// (~20 s of single-core work): streaming runs share the executor pool
/// with grid work, so one request must not pin an executor indefinitely.
const MAX_SERVED_HORIZON: u64 = 20_000_000;

/// Folds one cell's disturbance outcome into a request summary.
fn tally_disturb(summary: &mut WorkSummary, cell: &CellResult) {
    if let CellOutcome::Disturbed { report, .. } = &cell.outcome {
        summary.disturbed += 1;
        summary.rescues += report.rescues;
    }
}

/// A [`Harness`]-backed executor for daemon work requests.
pub struct ServeBackend {
    harness: Harness,
    corpus: std::sync::Arc<Vec<GeneratedDag>>,
    state_dir: Option<PathBuf>,
    worker: Option<(WorkerCommand, SuperviseOpts)>,
}

impl ServeBackend {
    /// An ephemeral backend: no journals, no recovery.
    pub fn new(harness: Harness) -> Self {
        let corpus = harness.corpus();
        ServeBackend {
            harness,
            corpus,
            state_dir: None,
            worker: None,
        }
    }

    /// Journals every `SubsetGrid` request under `dir` (created if
    /// missing), enabling resume-on-resubmit and startup recovery.
    pub fn with_state_dir(mut self, dir: PathBuf) -> Self {
        self.state_dir = Some(dir);
        self
    }

    /// Runs grid cells in supervised worker processes (requires a state
    /// dir for the journal the supervisor owns).
    pub fn with_worker(mut self, cmd: WorkerCommand, opts: SuperviseOpts) -> Self {
        self.worker = Some((cmd, opts));
        self
    }

    /// The journal path for a `SubsetGrid` request: content-addressed by
    /// request JSON + harness config digest, so an identical resubmission
    /// resumes its own journal and a different config never collides.
    fn journal_path(&self, dir: &std::path::Path, work_json: &str) -> PathBuf {
        let id = fnv64(format!("{}|{}", work_json, self.harness.config_digest()).as_bytes());
        dir.join(format!("req-{id:016x}.jl"))
    }

    /// Parses a work request's optional disturbance-plan field against
    /// the harness's cluster. Requests carry the plan as the CLI grammar
    /// string; crashes get the rescue reaction (the daemon's contract is
    /// "serve a measurement if the surviving platform permits one"). An
    /// empty plan is `None`, keeping the byte-identical undisturbed path.
    fn parse_disturb(&self, desc: Option<&String>) -> Result<Option<DisturbConfig>, ServeError> {
        let Some(desc) = desc else { return Ok(None) };
        let hosts = self.harness.nominal_cluster().node_count();
        let plan = DisturbancePlan::parse(desc, hosts, DISTURB_HORIZON).map_err(|e| {
            ServeError::Backend {
                reason: format!("bad disturbance plan: {e}"),
            }
        })?;
        Ok((!plan.is_empty()).then(|| DisturbConfig::new(plan, RecoveryPolicy::Rescue)))
    }

    fn resolve(&self, dag: usize, variant: &str, algo: &str) -> Result<Resolved<'_>, ServeError> {
        let g = self.corpus.get(dag).ok_or_else(|| ServeError::Backend {
            reason: format!(
                "dag index {dag} out of range (corpus has {})",
                self.corpus.len()
            ),
        })?;
        let variant = SimVariant::ALL
            .into_iter()
            .find(|v| v.name() == variant)
            .ok_or_else(|| ServeError::Backend {
                reason: format!("unknown variant {variant:?} (analytic|profile|empirical)"),
            })?;
        let algo: &dyn Scheduler = match algo {
            "HCPA" => algo_of(0),
            "MCPA" => algo_of(1),
            other => {
                return Err(ServeError::Backend {
                    reason: format!("unknown algorithm {other:?} (HCPA|MCPA)"),
                })
            }
        };
        Ok(Resolved { g, variant, algo })
    }

    /// One-cell requests: compute, stream, summarize.
    fn run_single(
        &self,
        work: &WorkRequest,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let mut summary = WorkSummary {
            status: "complete".to_string(),
            ..WorkSummary::default()
        };
        match work {
            WorkRequest::Schedule { dag, variant, algo } => {
                let r = self.resolve(*dag, variant, algo)?;
                let schedule = self
                    .harness
                    .schedule_only(r.g, r.variant, r.algo)
                    .map_err(|reason| ServeError::Backend { reason })?;
                let key = format!(
                    "schedule/{}/n{}/{}/{}",
                    r.g.name(),
                    r.g.params.matrix_size,
                    r.variant.name(),
                    r.algo.name()
                );
                let payload = encode(&schedule)?;
                emit(&key, &payload);
            }
            WorkRequest::Simulate {
                dag,
                variant,
                algo,
                repeats,
                disturb,
            } => {
                let r = self.resolve(*dag, variant, algo)?;
                let cfg = self.parse_disturb(disturb.as_ref())?;
                let cell = self.harness.run_cell_caught(
                    r.g,
                    r.variant,
                    r.algo,
                    *repeats,
                    cfg.as_ref().or(self.harness.disturb.as_ref()),
                );
                let key = cell_key(
                    &r.g.name(),
                    r.g.params.matrix_size,
                    r.variant,
                    r.algo.name(),
                    *repeats,
                );
                if cell.outcome.crash_report().is_some() {
                    summary.quarantined = 1;
                }
                tally_disturb(&mut summary, &cell);
                let payload = encode(&cell)?;
                emit(&key, &payload);
            }
            WorkRequest::Online {
                arrival,
                horizon_events,
                seed,
                admission,
                algo,
            } => {
                let spec =
                    crate::online::parse_arrival(arrival).map_err(|e| ServeError::Backend {
                        reason: format!("bad arrival spec: {e}"),
                    })?;
                let algo = OnlineAlgo::parse(algo).map_err(backend_err)?;
                // A streaming run is one admitted request, so its horizon
                // is capped: a million-event run takes around a second,
                // and nothing a client says should pin an executor for
                // minutes.
                let horizon = (*horizon_events).clamp(1, MAX_SERVED_HORIZON);
                let mut cfg = OnlineConfig::new(spec, algo);
                cfg.seed = *seed;
                cfg.horizon_events = horizon;
                cfg.admission_cap = *admission as usize;
                cfg.max_width = 8;
                let dags: Vec<mps_core::dag::Dag> =
                    self.corpus.iter().map(|g| g.dag.clone()).collect();
                let mut engine = OnlineEngine::new(&dags).map_err(backend_err)?;
                let outcome = engine.run(&cfg).map_err(backend_err)?;
                let key = format!(
                    "online/{}/{}/seed{}/h{}",
                    cfg.arrival,
                    algo.name(),
                    cfg.seed,
                    horizon
                );
                let payload = encode(&outcome.run)?;
                emit(&key, &payload);
            }
            WorkRequest::SubsetGrid { .. } => unreachable!("grid handled by caller"),
        }
        summary.cells = 1;
        summary.computed = 1;
        Ok(summary)
    }

    /// Ephemeral grid: compute and stream, nothing durable.
    fn run_grid_ephemeral(
        &self,
        take: usize,
        repeats: u64,
        disturb: Option<&DisturbConfig>,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let corpus: Vec<GeneratedDag> = self.corpus.iter().take(take).cloned().collect();
        let pending = pending_specs(&corpus, &HashSet::new(), repeats);
        let mut summary = WorkSummary {
            status: "complete".to_string(),
            ..WorkSummary::default()
        };
        for cs in &pending {
            if let Some(reason) = ctrl.should_stop() {
                summary.status = status_of(reason).to_string();
                break;
            }
            ctrl.pace();
            let g = &corpus[cs.dag];
            let algo = algo_of(cs.algo);
            let cell = self
                .harness
                .run_cell_caught(g, cs.variant, algo, repeats, disturb);
            let key = cell_key(
                &g.name(),
                g.params.matrix_size,
                cs.variant,
                algo.name(),
                repeats,
            );
            if cell.outcome.crash_report().is_some() {
                summary.quarantined += 1;
            }
            tally_disturb(&mut summary, &cell);
            let payload = encode(&cell)?;
            emit(&key, &payload);
            summary.cells += 1;
            summary.computed += 1;
        }
        Ok(summary)
    }

    /// Journaled in-process grid: replay the journal's prefix verbatim,
    /// compute and journal the remainder, write the manifest.
    #[allow(clippy::too_many_arguments)]
    fn run_grid_journaled(
        &self,
        take: usize,
        repeats: u64,
        disturb: Option<&DisturbConfig>,
        work_json: &str,
        path: &std::path::Path,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let corpus: Vec<GeneratedDag> = self.corpus.iter().take(take).cloned().collect();
        let expected = (corpus.len() * SimVariant::ALL.len() * 2) as u64;
        let header = JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: format!("serve[..{}]", corpus.len()),
            seed: self.harness.testbed.base_seed,
            repeats,
            cells_expected: expected,
            config_digest: self.harness.config_digest(),
            isolation: "serve".to_string(),
            request: work_json.to_string(),
        };
        let env = self.harness.io_env().clone();
        let (resumed_cells, mut writer, dropped) =
            open_grid_journal(&*env, path, &header, path.exists()).map_err(backend_err)?;
        // Replay: re-serializing a parsed `CellResult` reproduces the
        // journaled bytes exactly (same serializer, same field order),
        // so a resumed stream is byte-identical to the original.
        for (key, cell) in &resumed_cells {
            emit(key, &encode(cell)?);
        }
        let done: HashSet<&str> = resumed_cells.iter().map(|(k, _)| k.as_str()).collect();
        let pending = pending_specs(&corpus, &done, repeats);
        let mut new_cells = Vec::new();
        for cs in &pending {
            if ctrl.should_stop().is_some() {
                break;
            }
            ctrl.pace();
            let g = &corpus[cs.dag];
            let algo = algo_of(cs.algo);
            let cell = self
                .harness
                .run_cell_caught(g, cs.variant, algo, repeats, disturb);
            let key = cell_key(
                &g.name(),
                g.params.matrix_size,
                cs.variant,
                algo.name(),
                repeats,
            );
            let payload = encode(&cell)?;
            writer.append_record(&key, &payload).map_err(backend_err)?;
            emit(&key, &payload);
            new_cells.push((key, cell));
        }
        writer.sync().map_err(backend_err)?;
        let campaign = format!("serve[..{}]", corpus.len());
        let grid = finalize_grid(
            &*env,
            path,
            &campaign,
            expected,
            resumed_cells,
            new_cells,
            dropped,
            ctrl,
        )
        .map_err(backend_err)?;
        Ok(summarize(&grid))
    }

    /// Process-isolated grid: replay the journal, then hand the
    /// remainder to the supervised driver, streaming as cells land.
    #[allow(clippy::too_many_arguments)]
    fn run_grid_supervised(
        &self,
        take: usize,
        repeats: u64,
        work_json: &str,
        path: &std::path::Path,
        cmd: &WorkerCommand,
        opts: &SuperviseOpts,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let resume = path.exists();
        if resume {
            // Replay the raw journaled records (verbatim bytes) before
            // the supervised run re-opens the journal for appends.
            let rec = journal::recover_in(&**self.harness.io_env(), path).map_err(backend_err)?;
            for (key, payload) in &rec.records {
                emit(key, payload);
            }
        }
        let mut opts = *opts;
        opts.repeats = repeats;
        opts.resume = resume;
        let grid = self
            .harness
            .run_subset_supervised_streaming(
                take,
                work_json,
                path,
                cmd,
                &opts,
                ctrl,
                &mut |k, p| {
                    emit(k, p);
                },
            )
            .map_err(|e| ServeError::Backend {
                reason: e.to_string(),
            })?;
        Ok(summarize(&grid))
    }
}

struct Resolved<'a> {
    g: &'a GeneratedDag,
    variant: SimVariant,
    algo: &'a dyn Scheduler,
}

fn status_of(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Cancelled => "interrupted",
        StopReason::DeadlineExpired => "deadline",
    }
}

fn encode<T: serde::Serialize>(value: &T) -> Result<String, ServeError> {
    serde_json::to_string(value).map_err(|e| ServeError::Backend {
        reason: format!("encode payload: {e}"),
    })
}

fn backend_err<E: std::fmt::Display>(e: E) -> ServeError {
    ServeError::Backend {
        reason: e.to_string(),
    }
}

fn summarize(grid: &JournaledGrid) -> WorkSummary {
    let mut summary = WorkSummary {
        cells: (grid.resumed + grid.computed) as u64,
        resumed: grid.resumed as u64,
        computed: grid.computed as u64,
        quarantined: grid.quarantined as u64,
        status: grid.status.label().to_string(),
        ..WorkSummary::default()
    };
    for cell in &grid.cells {
        tally_disturb(&mut summary, cell);
    }
    summary
}

impl Backend for ServeBackend {
    fn execute(
        &self,
        work: &WorkRequest,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        match work {
            WorkRequest::Schedule { .. }
            | WorkRequest::Simulate { .. }
            | WorkRequest::Online { .. } => self.run_single(work, emit),
            WorkRequest::SubsetGrid {
                take,
                repeats,
                disturb,
            } => {
                let work_json = encode(work)?;
                let cfg = self.parse_disturb(disturb.as_ref())?;
                let eff = cfg.as_ref().or(self.harness.disturb.as_ref());
                match &self.state_dir {
                    None => self.run_grid_ephemeral(*take, *repeats, eff, ctrl, emit),
                    Some(dir) => {
                        std::fs::create_dir_all(dir).map_err(backend_err)?;
                        let path = self.journal_path(dir, &work_json);
                        match &self.worker {
                            Some((cmd, opts)) => {
                                if cfg.is_some() {
                                    // Worker processes get their plan via
                                    // startup flags; a per-request plan
                                    // cannot reach them.
                                    return Err(ServeError::Backend {
                                        reason: "per-request disturbance plans require \
                                                 in-process cell execution (this daemon \
                                                 runs --isolation process; pass --disturb \
                                                 at daemon startup instead)"
                                            .to_string(),
                                    });
                                }
                                self.run_grid_supervised(
                                    *take, *repeats, &work_json, &path, cmd, opts, ctrl, emit,
                                )
                            }
                            None => self.run_grid_journaled(
                                *take, *repeats, eff, &work_json, &path, ctrl, emit,
                            ),
                        }
                    }
                }
            }
        }
    }

    /// Startup crash recovery: finish every journal in the state dir
    /// whose manifest is missing or not `complete`, reconstructing the
    /// work from the request JSON in the journal header. Returns how
    /// many journals were completed.
    fn recover(&self) -> Result<u64, ServeError> {
        let Some(dir) = &self.state_dir else {
            return Ok(0);
        };
        if !dir.exists() {
            return Ok(0);
        }
        let mut finished = 0u64;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(backend_err)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jl"))
            .collect();
        paths.sort();
        for path in paths {
            let env = &**self.harness.io_env();
            if let Some(m) = journal::read_manifest_in(env, &path).map_err(backend_err)? {
                if m.status == "complete" {
                    continue;
                }
            }
            let rec = journal::recover_in(env, &path).map_err(backend_err)?;
            let Some(header) = rec.header else { continue };
            if header.request.is_empty() {
                continue;
            }
            let work: WorkRequest =
                serde_json::from_str(&header.request).map_err(|e| ServeError::Backend {
                    reason: format!("{}: unparseable request in header: {e}", path.display()),
                })?;
            self.execute(&work, &RunControl::unlimited(), &mut |_, _| true)?;
            finished += 1;
        }
        Ok(finished)
    }
}
