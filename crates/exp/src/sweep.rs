//! The verdict-stability sweep behind `repro faultsweep` and
//! `repro disturb`: one point loop and one stability rule.
//!
//! A sweep runs its baseline grid (the caller's harness with the swept
//! hazard cleared), then per point installs the point's plan with the
//! builders' empty-plan rule, runs the subset grid and hands the cells to
//! the report's fold; at the end the caller's hazards are put back. Each
//! (variant, DAG) pair is classed HCPA, MCPA or tie by the paper figures'
//! sign test ([`stats::winner`], no tie band), and a pair is stable only
//! when baseline and point give it the same class.

use std::collections::HashMap;

use mps_core::dag::gen::MATRIX_SIZES;
use mps_core::faults::FaultPlan;
use mps_core::stats::{self, Winner};

use crate::runner::{paired_relative_makespans, CellResult, DisturbConfig, Harness, SimVariant};

/// The hazard one sweep point installs.
pub(crate) enum Hazard {
    /// A fault plan, installed as [`Harness::with_fault_plan`] would.
    Faults(FaultPlan),
    /// A disturbance config, installed as [`Harness::with_disturbance`]
    /// would.
    Disturb(DisturbConfig),
}

impl Hazard {
    fn install(self, harness: &mut Harness) {
        match self {
            Hazard::Faults(plan) => harness.set_fault_plan(plan),
            Hazard::Disturb(cfg) => harness.set_disturbance(cfg),
        }
    }
}

/// The subset grid every point of a sweep runs.
pub(crate) struct SweepGrid {
    /// Corpus DAGs per point.
    pub take: usize,
    /// Testbed runs per cell.
    pub repeats: u64,
    /// Worker threads per grid.
    pub workers: usize,
}

/// One finished point, as the sweep hands it to the report's fold.
pub(crate) struct Point<'a> {
    /// The point's cells, in canonical grid order.
    pub cells: &'a [CellResult],
    /// The baseline grid's cells.
    pub baseline: &'a [CellResult],
    /// Pairs measured at both the baseline and this point.
    pub compared: usize,
    /// Of those, the pairs whose winner class did not change.
    pub stable: usize,
}

/// Runs the baseline grid under `baseline`, then one grid per hazard
/// that `plans` derives from the baseline's cells, each handed to
/// `fold(k, point)`. A point whose config digest equals the baseline's
/// reuses the baseline's cells (the grid is deterministic). Generated
/// plans carry no `io:` clause, so restoring the caller's fault plan and
/// disturbance config restores every hazard.
pub(crate) fn run(
    harness: &mut Harness,
    grid: &SweepGrid,
    baseline: Hazard,
    plans: impl FnOnce(&[CellResult]) -> Vec<Hazard>,
    mut fold: impl FnMut(usize, Point<'_>),
) {
    let caller = (harness.fault_plan.clone(), harness.disturb.clone());
    let run_grid = |h: &Harness| h.run_subset_with_workers(grid.take, grid.repeats, grid.workers);
    baseline.install(harness);
    let base_digest = harness.config_digest();
    let base_cells = run_grid(harness);
    let base = classes(&base_cells);
    for (k, hazard) in plans(&base_cells).into_iter().enumerate() {
        debug_assert!(!matches!(&hazard, Hazard::Faults(p) if !p.io.is_empty()));
        hazard.install(harness);
        let fresh;
        let cells = if harness.config_digest() == base_digest {
            &base_cells[..]
        } else {
            fresh = run_grid(harness);
            &fresh[..]
        };
        let (stable, compared) = stability(&base, &classes(cells));
        fold(
            k,
            Point {
                cells,
                baseline: &base_cells,
                compared,
                stable,
            },
        );
    }
    (harness.fault_plan, harness.disturb) = caller;
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
    use mps_core::faults::{DisturbancePlan, RecoveryPolicy};

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

    /// Every sweep hands the harness back with the caller's hazards: a
    /// fault-sweep used to leave no fault plan behind and a disturbance
    /// sweep no disturbance config.
    #[test]
    fn sweeps_restore_the_callers_hazards() {
        let hosts = 32;
        let faults = FaultPlan::parse("seed=3;fail=0.01", hosts, 60.0).unwrap();
        let disturb = DisturbConfig::new(
            DisturbancePlan::parse("crash@4:3", hosts, 60.0).unwrap(),
            RecoveryPolicy::Rescue,
        );
        let mut h = Harness::new(7)
            .with_fault_plan(faults)
            .with_disturbance(disturb);
        let before = (h.fault_plan.clone(), h.disturb.clone(), h.config_digest());
        let after = |h: &Harness| (h.fault_plan.clone(), h.disturb.clone(), h.config_digest());

        crate::figures::fault_sweep(&mut h, &[0.0, 1.0], &[11], 1, 1);
        assert_eq!(after(&h), before, "faultsweep");

        let opts = crate::DisturbSweepOpts {
            intensities: vec![0.0, 1.0],
            subset: 1,
            repeats: 1,
            recovery: RecoveryPolicy::Rescue,
            workers: 1,
        };
        crate::run_disturb_sweep(&mut h, 7, &opts, |_| {});
        assert_eq!(after(&h), before, "disturb");
    }
}
