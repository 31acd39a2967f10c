//! The production [`Backend`] behind `repro serve`: executes
//! `mps-proto/v1` work requests against a [`Harness`].
//!
//! Two durability tiers, picked by configuration:
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
//!
//! In both tiers a cell runs on its executor thread under the grid
//! runner's bounds: a panicking cell streams as a `Crashed` cell and a
//! cell past its wall deadline
//! ([`CELL_WALL_LIMIT`](crate::runner::CELL_WALL_LIMIT)) as a `TimedOut`
//! one, so no request can wedge an executor; an `Online` request's horizon
//! is capped instead.
//!
//! Cell payloads are exactly the bytes the journal stores, so a client
//! cannot tell a replayed cell from a freshly computed one.

use std::path::PathBuf;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::{DisturbancePlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::{self, fnv64, RunControl};
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine};
use mps_core::serve::{Backend, ServeError, WorkRequest, WorkSummary};

use crate::driver::{algo_of, CellSpec, Grid, JournalTarget};
use crate::journaled::JournaledGrid;
use crate::runner::{CellOutcome, CellResult, DisturbConfig, Harness, Hazards, SimVariant};

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

/// Parses the variant and algorithm names of a one-cell request (the
/// `VARIANT:ALGO` of `repro client --schedule/--simulate DAG:VARIANT:ALGO`)
/// into the variant and the algorithm index (0 = HCPA, 1 = MCPA); `Err`
/// is the reason.
pub fn parse_cell_names(variant: &str, algo: &str) -> Result<(SimVariant, usize), String> {
    let variant = SimVariant::ALL
        .into_iter()
        .find(|v| v.name() == variant)
        .ok_or_else(|| format!("unknown variant {variant:?} (analytic|profile|empirical)"))?;
    let algo = match algo {
        "HCPA" => 0,
        "MCPA" => 1,
        other => return Err(format!("unknown algorithm {other:?} (HCPA|MCPA)")),
    };
    Ok((variant, algo))
}

/// A [`Harness`]-backed executor for daemon work requests.
pub struct ServeBackend {
    harness: Harness,
    corpus: std::sync::Arc<Vec<GeneratedDag>>,
    state_dir: Option<PathBuf>,
}

impl ServeBackend {
    /// An ephemeral backend: no journals, no recovery.
    pub fn new(harness: Harness) -> Self {
        let corpus = harness.corpus();
        ServeBackend {
            harness,
            corpus,
            state_dir: None,
        }
    }

    /// Journals every `SubsetGrid` request under `dir` (created if
    /// missing), enabling resume-on-resubmit and startup recovery.
    pub fn with_state_dir(mut self, dir: PathBuf) -> Self {
        self.state_dir = Some(dir);
        self
    }

    /// The journal path for a `SubsetGrid` request: content-addressed by
    /// request JSON + the digest of its hazards, so an identical
    /// resubmission resumes its own journal and a different config never
    /// collides.
    fn journal_path(dir: &std::path::Path, work_json: &str, hazards: &Hazards) -> PathBuf {
        let id = fnv64(format!("{}|{}", work_json, hazards.digest()).as_bytes());
        dir.join(format!("req-{id:016x}.jl"))
    }

    /// The hazards a request runs under: the harness's own, with the
    /// request's disturbance plan in place of the harness's when it
    /// carries a non-empty one. Requests carry the plan as the CLI
    /// grammar string, parsed against the harness's cluster; crashes get
    /// the rescue reaction (the daemon's contract is "serve a measurement
    /// if the surviving platform permits one").
    fn hazards(&self, desc: Option<&String>) -> Result<Hazards, ServeError> {
        let mut hazards = self.harness.hazards();
        if let Some(desc) = desc {
            let hosts = self.harness.nominal_cluster().node_count();
            let plan = DisturbancePlan::parse(desc, hosts, DISTURB_HORIZON).map_err(|e| {
                ServeError::Backend {
                    reason: format!("bad disturbance plan: {e}"),
                }
            })?;
            if !plan.is_empty() {
                hazards.disturb = Some(DisturbConfig::new(plan, RecoveryPolicy::Rescue));
            }
        }
        Ok(hazards)
    }

    fn resolve(&self, dag: usize, variant: &str, algo: &str) -> Result<CellSpec, ServeError> {
        if dag >= self.corpus.len() {
            return Err(ServeError::Backend {
                reason: format!(
                    "dag index {dag} out of range (corpus has {})",
                    self.corpus.len()
                ),
            });
        }
        let (variant, algo) =
            parse_cell_names(variant, algo).map_err(|reason| ServeError::Backend { reason })?;
        Ok(CellSpec { dag, variant, algo })
    }

    /// Computes one cell with the grid runner on this executor thread.
    fn run_one_cell(
        &self,
        spec: CellSpec,
        repeats: u64,
        hazards: Hazards,
        ctrl: &RunControl,
    ) -> Result<CellResult, ServeError> {
        let grid = Grid {
            take: None,
            repeats,
            hazards,
            workers: 1,
            journal: None,
            ctrl,
        };
        let mut cell = None;
        let mut sink = |c| {
            cell = Some(c);
            Ok(())
        };
        let ran = self
            .harness
            .run_cells(&self.corpus, &[spec], &grid, &mut sink);
        ran.map_err(backend_err)?;
        cell.ok_or_else(|| ServeError::Backend {
            reason: "stopped before the cell finished".to_string(),
        })
    }

    /// One-cell requests: compute, stream, summarize.
    fn run_single(
        &self,
        work: &WorkRequest,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let mut summary = WorkSummary {
            status: "complete".to_string(),
            ..WorkSummary::default()
        };
        match work {
            WorkRequest::Schedule { dag, variant, algo } => {
                let spec = self.resolve(*dag, variant, algo)?;
                let (g, algo) = (&self.corpus[spec.dag], algo_of(spec.algo));
                let schedule = self
                    .harness
                    .schedule_only(g, spec.variant, algo)
                    .map_err(|reason| ServeError::Backend { reason })?;
                let key = format!(
                    "schedule/{}/n{}/{}/{}",
                    g.name(),
                    g.params.matrix_size,
                    spec.variant.name(),
                    algo.name()
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
                let spec = self.resolve(*dag, variant, algo)?;
                let hazards = self.hazards(disturb.as_ref())?;
                let cell = self.run_one_cell(spec, *repeats, hazards, ctrl)?;
                let key = cell.key(*repeats);
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
                let spec = ArrivalSpec::parse(arrival).map_err(|e| ServeError::Backend {
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
            | WorkRequest::Online { .. } => self.run_single(work, ctrl, emit),
            WorkRequest::SubsetGrid {
                take,
                repeats,
                disturb,
            } => {
                let work_json = encode(work)?;
                let hazards = self.hazards(disturb.as_ref())?;
                let path = match &self.state_dir {
                    Some(dir) => {
                        std::fs::create_dir_all(dir).map_err(backend_err)?;
                        Some(Self::journal_path(dir, &work_json, &hazards))
                    }
                    None => None,
                };
                let grid = Grid {
                    take: Some(*take),
                    repeats: *repeats,
                    hazards,
                    // A request runs on its executor thread, whose slab
                    // stays warm across requests.
                    workers: 1,
                    // A resubmitted request resumes its own journal,
                    // replaying the journaled prefix byte for byte.
                    journal: path.as_deref().map(|path| JournalTarget {
                        path,
                        resume: path.exists(),
                        request: Some(&work_json),
                    }),
                    ctrl,
                };
                let grid = self.harness.drive(grid, Some(emit)).map_err(backend_err)?;
                Ok(summarize(&grid))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(backend: &ServeBackend, work: &WorkRequest) -> Vec<(String, String)> {
        let mut got = Vec::new();
        backend
            .execute(work, &RunControl::unlimited(), &mut |k, p| {
                got.push((k.to_string(), p.to_string()));
                true
            })
            .unwrap();
        got
    }

    /// A grid request stopped mid-grid checkpoints its journal; the
    /// resubmission replays the checkpointed cells verbatim, computes only
    /// the rest, and streams what an uninterrupted request streams.
    #[test]
    fn a_stopped_request_resumes_from_its_journal() {
        let state = std::env::temp_dir().join(format!("mps-serve-backend-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let backend = ServeBackend::new(Harness::new(7)).with_state_dir(state.clone());
        let work = WorkRequest::SubsetGrid {
            take: 2,
            repeats: 1,
            disturb: None,
        };
        let token = journal::CancelToken::new();
        let ctrl = RunControl::unlimited().with_cancel(token.clone());
        let mut first = Vec::new();
        let stopped = backend
            .execute(&work, &ctrl, &mut |k, p| {
                first.push((k.to_string(), p.to_string()));
                if first.len() == 3 {
                    token.cancel();
                }
                true
            })
            .unwrap();
        assert_eq!(
            (stopped.status.as_str(), stopped.computed),
            ("interrupted", 3)
        );

        let mut again = payloads(&backend, &work);
        assert_eq!(again.len(), 12);
        assert_eq!(again[..3], first[..], "the checkpoint replays verbatim");
        again.sort();
        let mut clean = payloads(&ServeBackend::new(Harness::new(7)), &work);
        clean.sort();
        assert_eq!(
            again, clean,
            "a resumed request streams the uninterrupted cells"
        );
        let _ = std::fs::remove_dir_all(&state);
    }
}
