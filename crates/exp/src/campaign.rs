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
//! uninterrupted one (`crates/exp/tests/campaign_resume.rs`). The
//! campaign itself is a plan generator and a fold on the sweep's one
//! point loop, which owns the journals and the stop checks.
//!
//! The default shape — 309 points × 324 cells — crosses 100 000 cells
//! while exercising every fault intensity from pristine to harsh; the
//! batched grid path (DESIGN.md §5.13) pushes it through the journals
//! in well under a minute on one core.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mps_core::faults::io::{IoEnv, RealIo};
use mps_core::faults::{FaultPlan, DISTURB_HORIZON};
use mps_core::journal::{publish_line_in, read_if_present_in, JournalError, RunControl};

use crate::journaled::GridStatus;
use crate::runner::{CellResult, Harness, Hazards};
use crate::sweep::{self, fold_seed, SweepGrid};

/// Default number of sweep points: the smallest count that pushes the
/// full 54-DAG grid (324 cells/point) past 100 000 cells.
pub const DEFAULT_POINTS: usize = 309;

/// Fault-sweep ceiling: the harshest point runs at this intensity (see
/// [`FaultPlan::random`]; 1.0 is already "several crashes and slowdowns").
const MAX_INTENSITY: f64 = 1.0;

/// The fault plan of sweep point `point` of `points`: intensity ramps
/// linearly from 0 (pristine grid) to `MAX_INTENSITY`, and the plan
/// seed is the point's [`fold_seed`] of `base_seed`, so equal-intensity
/// points still draw distinct event schedules. Deterministic — resuming
/// a campaign rebuilds bit-identical plans, which the per-journal config
/// digest then verifies.
pub fn point_fault_plan(base_seed: u64, point: usize, points: usize, hosts: usize) -> FaultPlan {
    let intensity = if points <= 1 {
        0.0
    } else {
        MAX_INTENSITY * point as f64 / (points - 1) as f64
    };
    let seed = fold_seed(base_seed, point as u64);
    FaultPlan::random(seed, intensity, hosts, DISTURB_HORIZON)
}

/// Journal path of sweep point `point` inside `dir`.
pub fn point_journal(dir: &Path, point: usize) -> PathBuf {
    dir.join(format!("point-{point:04}.jl"))
}

/// Schema tag of `campaign.json`.
pub const CAMPAIGN_MANIFEST_V1: &str = "mps-campaign/v1";

/// `campaign.json` status while the writing invocation still has points
/// to run, so a campaign killed between points never reads as complete.
const RUNNING: &str = "running";

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
    /// Status of the writing invocation: `running` while it still has
    /// points to run, then how it ended ([`GridStatus::label`]).
    pub status: String,
}

/// Reads `campaign.json` from `dir`. `Ok(None)` if absent; a manifest
/// that exists but does not parse (or carries the wrong schema tag) is a
/// typed [`JournalError::Serde`] — never a panic, and never grounds for
/// resetting campaign progress (resume state lives in the journals).
pub fn read_campaign_manifest(dir: &Path) -> Result<Option<CampaignManifest>, JournalError> {
    let Some(bytes) = read_if_present_in(&RealIo, &dir.join("campaign.json"))? else {
        return Ok(None);
    };
    let text = String::from_utf8(bytes).map_err(|e| manifest_err(e.to_string()))?;
    let m: CampaignManifest =
        serde_json::from_str(&text).map_err(|e| manifest_err(e.to_string()))?;
    if m.schema != CAMPAIGN_MANIFEST_V1 {
        return Err(manifest_err(format!("unknown schema {:?}", m.schema)));
    }
    Ok(Some(m))
}

fn manifest_err(err: String) -> JournalError {
    JournalError::Serde {
        what: "campaign manifest",
        err,
    }
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
    /// The campaign's tallies, as last published to `campaign.json`.
    pub manifest: CampaignManifest,
    /// How the invocation ended ([`GridStatus::Complete`] iff every
    /// point's journal is complete).
    pub status: GridStatus,
    /// Per-point provenance for the points this invocation touched.
    pub points: Vec<PointSummary>,
}

impl Harness {
    /// Runs (or resumes) a fault-sweep campaign: `opts.points` grid
    /// points, each under [`point_fault_plan`], journaled at
    /// [`point_journal`]. The campaign is a plan generator and a fold on
    /// the one sweep loop: point `k` runs under the harness's hazards
    /// with its fault plan replaced by point `k`'s, kept even when empty
    /// (as every campaign journal's config digest records it). `ctrl` is
    /// honoured between cells (inside each point, by the journaled grid)
    /// and between points, so SIGINT/deadline produce a clean checkpoint
    /// that re-invocation continues.
    pub fn run_campaign(
        &self,
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
        let seed = self.testbed.base_seed;
        let env = Arc::clone(self.io_env());
        let caller = self.hazards();
        let plan = |k| Hazards {
            fault_plan: Some(point_fault_plan(seed, k, opts.points, hosts)),
            ..caller.clone()
        };
        let mut report = CampaignReport {
            manifest: CampaignManifest {
                schema: CAMPAIGN_MANIFEST_V1.to_string(),
                seed,
                points_total: opts.points as u64,
                points_done: 0,
                repeats: opts.repeats,
                subset: opts.subset.map(|s| s as u64),
                cells: 0,
                resumed: 0,
                computed: 0,
                quarantined: 0,
                status: RUNNING.to_string(),
            },
            status: GridStatus::Complete,
            points: Vec::new(),
        };
        if opts.points > 0 {
            let grid = SweepGrid {
                take: opts.subset,
                repeats: opts.repeats,
                workers: opts.workers,
                journals: Some(&opts.dir),
                ctrl,
            };
            let plans = |_: &[CellResult]| (1..opts.points).map(plan).collect();
            report.status = sweep::run(self, &grid, plan(0), plans, |point, p| {
                let g = p.grid;
                let summary = PointSummary {
                    point,
                    resumed: g.resumed,
                    computed: g.computed,
                    quarantined: g.quarantined,
                };
                let m = &mut report.manifest;
                m.cells += (g.resumed + g.computed) as u64;
                m.resumed += g.resumed as u64;
                m.computed += g.computed as u64;
                m.quarantined += g.quarantined as u64;
                progress(&summary, g.status);
                report.points.push(summary);
                if g.status != GridStatus::Complete {
                    return Ok(());
                }
                m.points_done += 1;
                m.publish(&*env, &opts.dir, RUNNING)
            })?;
        }
        let status = report.status.label();
        report.manifest.publish(&*env, &opts.dir, status)?;
        Ok(report)
    }
}

impl CampaignManifest {
    /// Rewrites `dir/campaign.json` under `status` through `env`
    /// ([`publish_line_in`]: tmp file, rename, directory sync) so an
    /// observer — or a resumed invocation's operator — can see progress
    /// without scanning journals.
    fn publish(&mut self, env: &dyn IoEnv, dir: &Path, status: &str) -> Result<(), JournalError> {
        self.status = status.to_string();
        let json = serde_json::to_string(self).map_err(|e| manifest_err(e.to_string()))?;
        publish_line_in(env, &dir.join("campaign.json"), json.as_bytes())
    }
}
