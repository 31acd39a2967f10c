//! The one point loop behind `repro faultsweep`, `repro disturb` and
//! `repro campaign`.
//!
//! Point 0 is the baseline, the caller's hazards with the swept one
//! cleared; the later points' plans derive from its cells. Each point is
//! a [`Hazards`] value: per point the loop checks the run control, runs
//! the grid under the point's hazards through the cell driver (journaled
//! when the sweep has a journal directory) and hands it to the caller's
//! fold. It stops at the first point that does not complete. The harness
//! is only read, so it leaves every sweep as it came in. Each (variant,
//! DAG) pair is classed HCPA, MCPA or tie by the paper figures' sign test
//! ([`stats::winner`], no tie band), and a pair is stable only when
//! baseline and point class it alike.

use std::collections::HashMap;
use std::path::Path;

use mps_core::dag::gen::MATRIX_SIZES;
use mps_core::journal::{JournalError, RunControl};
use mps_core::stats::{self, Winner};

use crate::campaign::point_journal;
use crate::journaled::{GridStatus, JournaledGrid};
use crate::runner::{paired_relative_makespans, CellResult, Harness, Hazards, SimVariant};

/// The seed of sweep point `k` under base seed `seed` (point 0 keeps it):
/// a golden-ratio multiply decorrelates the points without a shared
/// stream. Campaign, disturbance-sweep and chaos-soak seeds come from it.
pub fn fold_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The subset grid every point of a sweep runs.
pub(crate) struct SweepGrid<'a> {
    /// The first `take` corpus DAGs per point; `None` is the whole corpus.
    pub take: Option<usize>,
    /// Testbed runs per cell.
    pub repeats: u64,
    /// Worker threads per grid.
    pub workers: usize,
    /// `Some(dir)`: point `k` journals at `point_journal(dir, k)`.
    pub journals: Option<&'a Path>,
    /// Checked before each point and between the cells of a point.
    pub ctrl: &'a RunControl,
}

/// One finished point, as the sweep hands it to the caller's fold.
pub(crate) struct Point<'a> {
    /// The point's grid: cells in canonical order, status, provenance.
    pub grid: &'a JournaledGrid,
    /// The baseline grid's cells.
    pub baseline: &'a [CellResult],
}

impl Point<'_> {
    /// `(stable, compared)`: of the pairs measured at both the baseline
    /// and this point, those whose winner class did not change.
    pub fn stability(&self) -> (usize, usize) {
        stability(&classes(self.baseline), &classes(&self.grid.cells))
    }
}

/// Runs point 0 under `baseline`, then one point per hazards value that
/// `plans` derives from its cells, handing point `k` to `fold(k, point)`.
/// Without journals, a point with the baseline's digest reuses its grid.
/// Returns `Complete`, or the status of the stop or point that ended the
/// sweep.
pub(crate) fn run(
    harness: &Harness,
    shape: &SweepGrid<'_>,
    baseline: Hazards,
    plans: impl FnOnce(&[CellResult]) -> Vec<Hazards>,
    mut fold: impl FnMut(usize, Point<'_>) -> Result<(), JournalError>,
) -> Result<GridStatus, JournalError> {
    let run_point = |hazards, k| {
        let path = shape.journals.map(|dir| point_journal(dir, k));
        let journal = path.as_deref().map(|path| (path, path.exists()));
        let (take, repeats, workers) = (shape.take, shape.repeats, shape.workers);
        harness.run_in_process(hazards, take, repeats, workers, journal, shape.ctrl)
    };
    if let Some(stop) = shape.ctrl.should_stop() {
        return Ok(stop.into());
    }
    let base_digest = baseline.digest();
    let base = run_point(baseline, 0)?;
    let (grid, baseline) = (&base, &base.cells[..]);
    fold(0, Point { grid, baseline })?;
    if base.status != GridStatus::Complete {
        return Ok(base.status);
    }
    for (k, hazards) in (1..).zip(plans(baseline)) {
        if let Some(stop) = shape.ctrl.should_stop() {
            return Ok(stop.into());
        }
        let fresh;
        let grid = if shape.journals.is_none() && hazards.digest() == base_digest {
            &base
        } else {
            fresh = run_point(hazards, k)?;
            &fresh
        };
        fold(k, Point { grid, baseline })?;
        if grid.status != GridStatus::Complete {
            return Ok(grid.status);
        }
    }
    Ok(GridStatus::Complete)
}

/// [`run`] without journals or stops, which cannot fail (`faultsweep`,
/// `disturb`): `fold(j, point)` sees the point of plan `j`, the baseline
/// only as `point.baseline`.
pub(crate) fn run_in_memory(
    harness: &Harness,
    take: usize,
    repeats: u64,
    workers: usize,
    baseline: Hazards,
    plans: impl FnOnce(&[CellResult]) -> Vec<Hazards>,
    mut fold: impl FnMut(usize, Point<'_>),
) {
    let grid = SweepGrid {
        take: Some(take),
        repeats,
        workers,
        journals: None,
        ctrl: &RunControl::unlimited(),
    };
    let plan_points = |k: usize, p: Point<'_>| {
        if k > 0 {
            fold(k - 1, p);
        }
        Ok(())
    };
    run(harness, &grid, baseline, plans, plan_points)
        .expect("a sweep without journals cannot fail");
}

/// The testbed winner class of each (variant, DAG) pair.
type Classes = HashMap<(SimVariant, String), Winner>;

/// The classes of every pair with both an HCPA and an MCPA measurement.
fn classes(cells: &[CellResult]) -> Classes {
    let mut out = HashMap::new();
    for variant in SimVariant::ALL {
        for n in MATRIX_SIZES {
            for (dag, _, rel_real) in paired_relative_makespans(cells, variant, n) {
                out.insert((variant, dag), stats::winner(rel_real, 0.0));
            }
        }
    }
    out
}

/// `(stable, compared)`: of the pairs classed at both points, those whose
/// class is the same.
fn stability(base: &Classes, now: &Classes) -> (usize, usize) {
    now.iter()
        .filter_map(|(pair, class)| base.get(pair).map(|b| b == class))
        .fold((0, 0), |(stable, compared), same| {
            (stable + usize::from(same), compared + 1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CellOutcome;

    /// A measured cell of DAG `dag` (n = 2000) with testbed makespan
    /// `real`.
    fn cell(dag: &str, algo: &str, real: f64) -> CellResult {
        CellResult {
            dag: dag.to_string(),
            n: 2000,
            variant: SimVariant::Analytic,
            algo: algo.to_string(),
            sim_makespan: 10.0,
            real_makespan: real,
            real_runs: vec![real],
            outcome: CellOutcome::Full,
        }
    }

    fn pair(h: f64, m: f64) -> Classes {
        classes(&[cell("d", "HCPA", h), cell("d", "MCPA", m)])
    }

    /// Both sweeps judge stability through `stability(classes(…))`: a pair
    /// that ties at the baseline and splits later is unstable whichever
    /// way it splits (the tie used to count as an MCPA win in
    /// `faultsweep` and as an HCPA win in `disturb`).
    #[test]
    fn a_tie_is_stable_only_against_a_tie() {
        let tie = pair(20.0, 20.0);
        assert_eq!(tie.values().next(), Some(&Winner::Tie));
        assert_eq!(stability(&tie, &pair(19.0, 20.0)), (0, 1), "tie → HCPA");
        assert_eq!(stability(&tie, &pair(21.0, 20.0)), (0, 1), "tie → MCPA");
        assert_eq!(stability(&pair(19.0, 20.0), &tie), (0, 1), "HCPA → tie");
        assert_eq!(stability(&tie, &pair(30.0, 30.0)), (1, 1), "tie → tie");
        assert_eq!(stability(&pair(19.0, 20.0), &pair(5.0, 9.0)), (1, 1));
        assert_eq!(stability(&pair(21.0, 20.0), &pair(5.0, 9.0)), (0, 1));
    }

    #[test]
    fn pairs_missing_a_side_are_not_compared() {
        let lost = CellResult {
            outcome: CellOutcome::Failed {
                error: "lost".to_string(),
            },
            ..cell("d", "MCPA", 0.0)
        };
        let now = classes(&[cell("d", "HCPA", 20.0), lost]);
        assert!(now.is_empty());
        assert_eq!(stability(&pair(19.0, 20.0), &now), (0, 0));
    }

    /// A sweep point replaces only the swept hazard: each campaign point
    /// journals the digest of the caller's disturbance config and policy
    /// under the point's own fault plan, kept even when empty (point 0).
    #[test]
    fn sweep_points_keep_the_callers_other_hazards() {
        use crate::campaign::point_fault_plan;
        use crate::runner::DisturbConfig;
        use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy};

        let hosts = 32;
        let disturb = DisturbConfig::new(
            DisturbancePlan::parse("crash@4:3", hosts, 60.0).unwrap(),
            RecoveryPolicy::Rescue,
        );
        let h = Harness::new(7)
            .with_fault_plan(FaultPlan::parse("seed=3;fail=0.01", hosts, 60.0).unwrap())
            .with_disturbance(disturb);
        let dir = std::env::temp_dir().join(format!("mps-sweep-points-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = crate::CampaignOpts {
            dir: dir.clone(),
            points: 2,
            repeats: 1,
            workers: 1,
            subset: Some(1),
        };
        let report = h
            .run_campaign(&opts, &RunControl::unlimited(), |_, _| {})
            .unwrap();
        assert_eq!(report.status, GridStatus::Complete);
        for k in 0..2 {
            let rec = mps_core::journal::recover(&point_journal(&dir, k)).unwrap();
            let want = Hazards {
                fault_plan: Some(point_fault_plan(7, k, 2, hosts)),
                ..h.hazards()
            };
            assert_eq!(
                rec.header.unwrap().config_digest,
                want.digest(),
                "point {k}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Campaign point `p` keeps the plan seed it has always drawn,
    /// `base ^ p·G`, so existing point journals still resume (the
    /// disturbance sweep's seeds are pinned by `sweep_golden.txt`).
    #[test]
    fn campaign_points_keep_their_plan_seeds() {
        let seed = |p| crate::campaign::point_fault_plan(7, p, 9, 32).seed;
        assert_eq!(seed(0), 7);
        assert_eq!(seed(5), 7 ^ 5u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}
