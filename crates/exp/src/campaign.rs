//! Large-campaign driver: many grid *points*, each the paper grid under
//! a distinct fault plan drawn from a deterministic intensity sweep, one
//! write-ahead journal per point.
//!
//! A campaign directory holds `point-0000.jl`, `point-0001.jl`, … — each
//! an ordinary grid journal (`mps-journal/v1`, resumable, torn-tail
//! tolerant) — plus a `campaign.json` summary rewritten after every
//! point. Resume is re-invocation: points whose journals are complete
//! load back without recomputing a cell, the first incomplete point
//! resumes mid-grid, and untouched points run fresh. Killing the driver
//! at any instant (including SIGKILL) therefore loses at most the cells
//! in flight, and the finished campaign is byte-identical to an
//! uninterrupted one (`crates/exp/tests/campaign_resume.rs`).
//!
//! The default shape — 309 points × 324 cells — crosses 100 000 cells
//! while exercising every fault intensity from pristine to harsh; the
//! batched grid path (DESIGN.md §5.13) pushes it through the journals
//! in well under a minute on one core.

use std::io::Write;
use std::path::{Path, PathBuf};

use mps_core::faults::io::IoEnv;
use mps_core::faults::FaultPlan;
use mps_core::journal::RunControl;

use crate::journaled::GridStatus;
use crate::runner::Harness;
use mps_core::journal::JournalError;

/// Default number of sweep points: the smallest count that pushes the
/// full 54-DAG grid (324 cells/point) past 100 000 cells.
pub const DEFAULT_POINTS: usize = 309;

/// Fault-sweep ceiling: the harshest point runs at this intensity (see
/// [`FaultPlan::random`]; 1.0 is already "several crashes and slowdowns").
const MAX_INTENSITY: f64 = 1.0;

/// Event horizon (seconds) for generated fault plans; matches the CLI's
/// `--faults` horizon so presets and sweep points live on the same scale.
const CAMPAIGN_HORIZON: f64 = 120.0;

/// The fault plan of sweep point `point` of `points`: intensity ramps
/// linearly from 0 (pristine grid) to `MAX_INTENSITY`, and the plan
/// seed folds the point index into `base_seed` so equal-intensity points
/// still draw distinct event schedules. Deterministic — resuming a
/// campaign rebuilds bit-identical plans, which the per-journal config
/// digest then verifies.
pub fn point_fault_plan(base_seed: u64, point: usize, points: usize, hosts: usize) -> FaultPlan {
    let intensity = if points <= 1 {
        0.0
    } else {
        MAX_INTENSITY * point as f64 / (points - 1) as f64
    };
    let seed = base_seed ^ (point as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    FaultPlan::random(seed, intensity, hosts, CAMPAIGN_HORIZON)
}

/// Journal path of sweep point `point` inside `dir`.
pub fn point_journal(dir: &Path, point: usize) -> PathBuf {
    dir.join(format!("point-{point:04}.jl"))
}

/// Schema tag of `campaign.json`.
pub const CAMPAIGN_MANIFEST_V1: &str = "mps-campaign/v1";

/// The `campaign.json` summary: progress an observer (or a resumed
/// invocation's operator) can read without scanning journals.
///
/// The manifest is *advisory*: resume logic never consults it — resume
/// state lives in the per-point journals — so a corrupted or missing
/// `campaign.json` can never reset campaign progress
/// (`crates/exp/tests/campaign_manifest_corruption.rs`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignManifest {
    /// Schema tag ([`CAMPAIGN_MANIFEST_V1`]).
    pub schema: String,
    /// Testbed base seed.
    pub seed: u64,
    /// Total sweep points requested.
    pub points_total: u64,
    /// Points whose journals are complete.
    pub points_done: u64,
    /// Testbed repeats per cell.
    pub repeats: u64,
    /// `Some(take)`: subset campaign over the first `take` corpus DAGs.
    pub subset: Option<u64>,
    /// Durable cells across all touched points.
    pub cells: u64,
    /// Cells loaded from journals instead of recomputed.
    pub resumed: u64,
    /// Cells computed by the writing invocation.
    pub computed: u64,
    /// Crash-family cells across the campaign.
    pub quarantined: u64,
    /// Status label of the writing invocation ([`GridStatus::label`]).
    pub status: String,
}

/// Atomically publishes `campaign.json` in `dir` through `env`:
/// tmp-file write + fdatasync + rename + directory sync, every step a
/// typed [`JournalError`] on failure.
pub fn write_campaign_manifest_in(
    env: &dyn IoEnv,
    dir: &Path,
    m: &CampaignManifest,
) -> Result<(), JournalError> {
    let json = serde_json::to_string(m).map_err(|e| JournalError::Serde {
        what: "campaign manifest",
        err: e.to_string(),
    })?;
    let path = dir.join("campaign.json");
    let tmp = dir.join("campaign.json.tmp");
    let io_err = |op: &'static str, p: &Path, e: std::io::Error| JournalError::Io {
        op,
        path: p.display().to_string(),
        err: e.to_string(),
    };
    let mut f = env.create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    f.write_all(json.as_bytes())
        .and_then(|()| f.write_all(b"\n"))
        .map_err(|e| io_err("append", &tmp, e))?;
    f.sync_data().map_err(|e| io_err("sync", &tmp, e))?;
    drop(f);
    env.rename(&tmp, &path)
        .map_err(|e| io_err("rename", &path, e))?;
    env.sync_dir(dir).map_err(|e| io_err("sync-dir", dir, e))
}

/// Reads `campaign.json` from `dir`. `Ok(None)` if absent; a manifest
/// that exists but does not parse (or carries the wrong schema tag) is a
/// typed [`JournalError::Serde`] — never a panic, and never grounds for
/// resetting campaign progress (resume state lives in the journals).
pub fn read_campaign_manifest(dir: &Path) -> Result<Option<CampaignManifest>, JournalError> {
    read_campaign_manifest_in(&mps_core::faults::io::RealIo, dir)
}

/// [`read_campaign_manifest`] against an explicit environment.
pub fn read_campaign_manifest_in(
    env: &dyn IoEnv,
    dir: &Path,
) -> Result<Option<CampaignManifest>, JournalError> {
    let path = dir.join("campaign.json");
    let bytes = match env.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(JournalError::Io {
                op: "read",
                path: path.display().to_string(),
                err: e.to_string(),
            })
        }
    };
    let text = String::from_utf8(bytes).map_err(|e| JournalError::Serde {
        what: "campaign manifest",
        err: e.to_string(),
    })?;
    let m: CampaignManifest = serde_json::from_str(&text).map_err(|e| JournalError::Serde {
        what: "campaign manifest",
        err: e.to_string(),
    })?;
    if m.schema != CAMPAIGN_MANIFEST_V1 {
        return Err(JournalError::Serde {
            what: "campaign manifest",
            err: format!("unknown schema {:?}", m.schema),
        });
    }
    Ok(Some(m))
}

/// Campaign shape and pacing.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Campaign directory (created if missing); one journal per point.
    pub dir: PathBuf,
    /// Number of sweep points.
    pub points: usize,
    /// Testbed repeats per cell.
    pub repeats: u64,
    /// Worker threads per grid point.
    pub workers: usize,
    /// `Some(take)`: first `take` corpus DAGs per point (tests, smokes);
    /// `None`: the full 54-DAG grid.
    pub subset: Option<usize>,
}

/// One finished (or checkpointed) sweep point.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// Sweep index.
    pub point: usize,
    /// Cells loaded from the point's journal instead of recomputed.
    pub resumed: usize,
    /// Cells computed by this invocation.
    pub computed: usize,
    /// Crash-family cells (quarantined/crashed/timed out).
    pub quarantined: usize,
}

/// Outcome of a campaign invocation.
#[derive(Debug)]
pub struct CampaignReport {
    /// Points whose journals are complete.
    pub points_done: usize,
    /// Total sweep points requested.
    pub points_total: usize,
    /// Durable cells across all touched points (resumed + computed).
    pub cells: usize,
    /// Cells loaded from journals instead of recomputed.
    pub resumed: usize,
    /// Cells computed by this invocation.
    pub computed: usize,
    /// Crash-family cells across the campaign.
    pub quarantined: usize,
    /// How the invocation ended ([`GridStatus::Complete`] iff every
    /// point's journal is complete).
    pub status: GridStatus,
    /// Per-point provenance for the points this invocation touched.
    pub points: Vec<PointSummary>,
}

impl Harness {
    /// Runs (or resumes) a fault-sweep campaign: `opts.points` grid
    /// points, each under [`point_fault_plan`], journaled at
    /// [`point_journal`]. The harness's own fault plan is replaced per
    /// point and restored afterwards. `ctrl` is honoured between cells
    /// (inside each point, by the journaled grid) and between points, so
    /// SIGINT/deadline produce a clean checkpoint that re-invocation
    /// continues.
    pub fn run_campaign(
        &mut self,
        opts: &CampaignOpts,
        ctrl: &RunControl,
        mut progress: impl FnMut(&PointSummary, GridStatus),
    ) -> Result<CampaignReport, JournalError> {
        std::fs::create_dir_all(&opts.dir).map_err(|e| JournalError::Io {
            op: "create campaign dir",
            path: opts.dir.display().to_string(),
            err: e.to_string(),
        })?;
        let hosts = self.nominal_cluster().node_count();
        let base_seed = self.testbed.base_seed;
        let saved_plan = self.fault_plan.take();

        let mut report = CampaignReport {
            points_done: 0,
            points_total: opts.points,
            cells: 0,
            resumed: 0,
            computed: 0,
            quarantined: 0,
            status: GridStatus::Complete,
            points: Vec::new(),
        };
        for point in 0..opts.points {
            if let Some(reason) = ctrl.should_stop() {
                report.status = match reason {
                    mps_core::journal::StopReason::Cancelled => GridStatus::Interrupted,
                    mps_core::journal::StopReason::DeadlineExpired => GridStatus::DeadlineExpired,
                };
                break;
            }
            let path = point_journal(&opts.dir, point);
            let resume = path.exists();
            self.fault_plan = Some(point_fault_plan(base_seed, point, opts.points, hosts));
            let grid =
                self.run_journaled(opts.subset, &path, opts.repeats, opts.workers, resume, ctrl);
            let grid = match grid {
                Ok(g) => g,
                Err(e) => {
                    self.fault_plan = saved_plan;
                    return Err(e);
                }
            };
            let summary = PointSummary {
                point,
                resumed: grid.resumed,
                computed: grid.computed,
                quarantined: grid.quarantined,
            };
            report.cells += grid.resumed + grid.computed;
            report.resumed += grid.resumed;
            report.computed += grid.computed;
            report.quarantined += grid.quarantined;
            progress(&summary, grid.status);
            report.points.push(summary);
            if grid.status != GridStatus::Complete {
                report.status = grid.status;
                break;
            }
            report.points_done += 1;
            self.write_campaign_manifest(opts, &report)?;
        }
        self.fault_plan = saved_plan;
        self.write_campaign_manifest(opts, &report)?;
        Ok(report)
    }

    /// Rewrites `campaign.json` (atomic rename via the harness's I/O
    /// environment) so an observer — or a resumed invocation's operator —
    /// can see campaign progress without scanning journals.
    fn write_campaign_manifest(
        &self,
        opts: &CampaignOpts,
        report: &CampaignReport,
    ) -> Result<(), JournalError> {
        let m = CampaignManifest {
            schema: CAMPAIGN_MANIFEST_V1.to_string(),
            seed: self.testbed.base_seed,
            points_total: report.points_total as u64,
            points_done: report.points_done as u64,
            repeats: opts.repeats,
            subset: opts.subset.map(|s| s as u64),
            cells: report.cells as u64,
            resumed: report.resumed as u64,
            computed: report.computed as u64,
            quarantined: report.quarantined as u64,
            status: report.status.label().to_string(),
        };
        write_campaign_manifest_in(&**self.io_env(), &opts.dir, &m)
    }
}
