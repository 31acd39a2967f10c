//! The `repro disturb` experiment: how much platform disturbance can the
//! paper's methodology absorb?
//!
//! Sweeps disturbance intensity 0 → 1 (each point a seeded
//! [`DisturbancePlan`] of host crashes, slow windows, and link-degrade
//! windows injected into every testbed execution) and reports, per
//! intensity point:
//!
//! * **makespan degradation** — mean measured makespan relative to the
//!   undisturbed baseline grid;
//! * **rescue success rate** — among cells where a host actually crashed,
//!   the fraction the recovery ladder still carried to a measurement;
//! * **verdict stability** — how often the HCPA-vs-MCPA winner on the
//!   disturbed testbed agrees with the undisturbed verdict. The paper's
//!   point is that simulators must predict the *verdict*; this experiment
//!   asks how long the verdict itself survives a degrading platform.
//!
//! The point loop, the baseline and the stability rule are the shared
//! verdict-stability sweep's (`crate::sweep`); this module generates the
//! plans and folds each point into a [`DisturbPoint`]. An intensity-0
//! plan is empty and dropped by [`Harness::with_disturbance`], so that
//! point is the baseline grid itself.

use serde::{Deserialize, Serialize};

use mps_core::faults::{DisturbancePlan, RecoveryPolicy};

use crate::runner::{grid_health, CellOutcome, CellResult, DisturbConfig, Harness};
use crate::sweep::{self, fold_seed, Hazard, Point};

/// Options for one disturbance sweep.
#[derive(Debug, Clone)]
pub struct DisturbSweepOpts {
    /// Intensity points to sweep, each in `[0, 1]`.
    pub intensities: Vec<f64>,
    /// Corpus DAGs per point.
    pub subset: usize,
    /// Testbed runs per cell.
    pub repeats: u64,
    /// Crash reaction for every point.
    pub recovery: RecoveryPolicy,
    /// Worker threads for the per-point grid.
    pub workers: usize,
}

impl Default for DisturbSweepOpts {
    fn default() -> Self {
        DisturbSweepOpts {
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            subset: 6,
            repeats: 1,
            recovery: RecoveryPolicy::Rescue,
            workers: Harness::default_workers(),
        }
    }
}

/// One intensity point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbPoint {
    /// Disturbance intensity in `[0, 1]`.
    pub intensity: f64,
    /// Cells in the point's grid.
    pub cells: usize,
    /// Cells that produced a measurement.
    pub measured: usize,
    /// Cells where at least one disturbance fired.
    pub disturbed: usize,
    /// Cells with no surviving measurement.
    pub failed: usize,
    /// Host crashes fired across the point.
    pub crashes: u64,
    /// Rescue re-plans triggered across the point.
    pub rescues: u64,
    /// Tasks adopted by rescue re-plans across the point.
    pub rescued_tasks: u64,
    /// Mean measured makespan over measured cells (seconds).
    pub mean_real_makespan: f64,
    /// Mean makespan relative to the undisturbed baseline grid, in
    /// percent (`+12.0` = 12 % slower than the undisturbed platform).
    pub degradation_pct: f64,
    /// Among cells where a crash fired, the percentage that still
    /// measured (100 when no crash fired anywhere).
    pub rescue_success_pct: f64,
    /// Percentage of (DAG, variant) pairs whose HCPA-vs-MCPA testbed
    /// winner (or tie) agrees with the undisturbed verdict.
    pub verdict_agreement_pct: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbSweepReport {
    /// Harness seed the sweep ran under.
    pub seed: u64,
    /// Crash reaction used for every point.
    pub recovery: RecoveryPolicy,
    /// Corpus DAGs per point.
    pub subset: usize,
    /// Testbed runs per cell.
    pub repeats: u64,
    /// One entry per intensity, in sweep order.
    pub points: Vec<DisturbPoint>,
}

/// Runs the sweep; the caller's hazards are restored afterwards.
/// `progress` is called once per finished point with a human-readable
/// line.
pub fn run_disturb_sweep(
    harness: &mut Harness,
    seed: u64,
    opts: &DisturbSweepOpts,
    mut progress: impl FnMut(&str),
) -> DisturbSweepReport {
    let disturbance = |plan| Hazard::Disturb(DisturbConfig::new(plan, opts.recovery));
    // Intensity `j` is sweep point `j + 1`, and draws that point's seed.
    let plans = |_: &[CellResult]| {
        let at = |(k, &i)| disturbance(DisturbancePlan::with_intensity(fold_seed(seed, k), i));
        (1..).zip(&opts.intensities).map(at).collect()
    };
    let (take, repeats, workers) = (opts.subset, opts.repeats, opts.workers);
    let mut points = Vec::new();
    let baseline = disturbance(DisturbancePlan::none());
    sweep::run_in_memory(harness, take, repeats, workers, baseline, plans, |j, p| {
        let point = DisturbPoint::of(opts.intensities[j], &p);
        progress(&format!(
            "intensity {:.2}: {}/{} measured, {} crash(es), {} rescue(s), degradation {:+.1} %",
            point.intensity,
            point.measured,
            point.cells,
            point.crashes,
            point.rescues,
            point.degradation_pct
        ));
        points.push(point);
    });
    DisturbSweepReport {
        seed,
        recovery: opts.recovery,
        subset: opts.subset,
        repeats: opts.repeats,
        points,
    }
}

/// Mean measured makespan over the cells that measured (0 when none did),
/// and how many did.
fn measured_mean(cells: &[CellResult]) -> (f64, usize) {
    let measured: Vec<f64> = cells
        .iter()
        .filter(|c| c.succeeded() && c.real_makespan > 0.0)
        .map(|c| c.real_makespan)
        .collect();
    let mean = if measured.is_empty() {
        0.0
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    (mean, measured.len())
}

impl DisturbPoint {
    /// The report row of one swept point.
    fn of(intensity: f64, p: &Point<'_>) -> Self {
        let cells = &p.grid.cells;
        let health = grid_health(cells);
        let (mean_real_makespan, measured) = measured_mean(cells);
        let (baseline_makespan, _) = measured_mean(p.baseline);
        let degradation_pct = if baseline_makespan > 0.0 {
            100.0 * (mean_real_makespan / baseline_makespan - 1.0)
        } else {
            0.0
        };
        // Rescue success: cells where a crash fired and a measurement
        // still came out, over all cells a crash touched (survivors +
        // cells lost entirely).
        let crash_survivors = cells
            .iter()
            .filter(|c| {
                matches!(&c.outcome, CellOutcome::Disturbed { report, .. } if report.crashes > 0)
            })
            .count();
        let crash_cells = crash_survivors + health.failed;
        let rescue_success_pct = if crash_cells > 0 {
            100.0 * crash_survivors as f64 / crash_cells as f64
        } else {
            100.0
        };
        let (stable, compared) = p.stability();
        let verdict_agreement_pct = if compared > 0 {
            100.0 * stable as f64 / compared as f64
        } else {
            0.0
        };
        DisturbPoint {
            intensity,
            cells: cells.len(),
            measured,
            disturbed: health.disturbed,
            failed: health.failed,
            crashes: health.crashes,
            rescues: health.rescues,
            rescued_tasks: health.rescued_tasks,
            mean_real_makespan,
            degradation_pct,
            rescue_success_pct,
            verdict_agreement_pct,
        }
    }
}

impl DisturbSweepReport {
    /// Text rendering for the `repro disturb` target.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Disturbance sweep — recovery {}, seed {}, {} DAG(s) x 6 cells, {} repeat(s)",
            self.recovery, self.seed, self.subset, self.repeats
        );
        let _ = writeln!(
            out,
            "{:>9}  {:>9}  {:>11}  {:>8}  {:>7}  {:>7}  {:>7}  {:>9}  {:>8}",
            "intensity",
            "measured",
            "degradation",
            "crashes",
            "rescues",
            "rescued",
            "failed",
            "rescue-ok",
            "verdicts"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>9.2}  {:>5}/{:<3}  {:>+10.1}%  {:>8}  {:>7}  {:>7}  {:>7}  {:>8.0}%  {:>7.0}%",
                p.intensity,
                p.measured,
                p.cells,
                p.degradation_pct,
                p.crashes,
                p.rescues,
                p.rescued_tasks,
                p.failed,
                p.rescue_success_pct,
                p.verdict_agreement_pct
            );
        }
        let _ = writeln!(
            out,
            "(degradation: mean measured makespan vs the intensity-0 grid; rescue-ok:\n\
             crash-hit cells that still measured; verdicts: HCPA-vs-MCPA winners\n\
             agreeing with the undisturbed verdict)"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_every_point_and_stays_deterministic() {
        let opts = DisturbSweepOpts {
            intensities: vec![0.0, 1.0],
            subset: 2,
            repeats: 1,
            recovery: RecoveryPolicy::Rescue,
            workers: 2,
        };
        let mut h = Harness::new(7);
        let a = run_disturb_sweep(&mut h, 7, &opts, |_| {});
        assert_eq!(a.points.len(), 2);
        assert!(h.disturb.is_none(), "sweep must restore the harness");
        // Point 0 is the undisturbed baseline.
        let p0 = &a.points[0];
        assert_eq!(p0.intensity, 0.0);
        assert_eq!(p0.crashes, 0);
        assert_eq!(p0.degradation_pct, 0.0);
        assert_eq!(p0.verdict_agreement_pct, 100.0);
        assert_eq!(p0.measured, p0.cells);
        // Full intensity must visibly fire.
        let p1 = &a.points[1];
        assert!(
            p1.crashes + p1.rescues > 0 || p1.disturbed > 0,
            "heavy disturbance fired nothing: {p1:?}"
        );
        // Deterministic in (harness seed, sweep seed).
        let mut h2 = Harness::new(7);
        let b = run_disturb_sweep(&mut h2, 7, &opts, |_| {});
        assert_eq!(a, b);
        // And renders without panicking.
        assert!(a.render().contains("intensity"));
    }
}
