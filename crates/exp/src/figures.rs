//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN`/`tableN` function computes the figure's *data* and returns a
//! plain-text report (numbers plus an ASCII rendering). The `repro` binary
//! prints them; EXPERIMENTS.md records paper-vs-measured values.

use std::fmt::Write as _;

use mps_core::dag::gen::{MATRIX_SIZES, RATIOS, SAMPLES, TASKS_PER_DAG, WIDTHS};
use mps_core::kernels::Kernel;
use mps_core::model::{AnalyticModel, EmpiricalModel, PerfModel, MM_HIGH_POINTS, MM_LOW_POINTS};
use mps_core::regress::{fit_affine, Basis};
use mps_core::stats;
use mps_core::testbed::{CrayPdgemmEnv, Testbed};

use crate::journaled::GridStatus;
use crate::runner::{grid_health, paired_relative_makespans, CellResult, Harness, SimVariant};

/// Table I: the DAG-generator parameter grid.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — parameters for generating random DAGs");
    let _ = writeln!(out, "{:<42} values", "parameter");
    let _ = writeln!(out, "{:<42} {}", "number of tasks", TASKS_PER_DAG);
    let _ = writeln!(
        out,
        "{:<42} {:?}",
        "number of input matrices (DAG width)", WIDTHS
    );
    let _ = writeln!(
        out,
        "{:<42} {:?}",
        "ratio addition / multiplication tasks", RATIOS
    );
    let _ = writeln!(
        out,
        "{:<42} {:?}",
        "matrix size (# elements per dimension)", MATRIX_SIZES
    );
    let _ = writeln!(out, "{:<42} {}", "number of samples", SAMPLES);
    let _ = writeln!(
        out,
        "{:<42} {}",
        "total DAG instances",
        WIDTHS.len() * RATIOS.len() * MATRIX_SIZES.len() * SAMPLES
    );
    out
}

/// Renders one HCPA-vs-MCPA comparison figure (the Figures 1/5/7 format)
/// and reports the sign-agreement counts.
fn comparison_figure(title: &str, cells: &[CellResult], variant: SimVariant, n: usize) -> String {
    let pairs = paired_relative_makespans(cells, variant, n);
    let labels: Vec<String> = pairs.iter().map(|p| p.0.clone()).collect();
    let sim: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let exp: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let mut out = stats::paired_bars(title, &labels, &sim, &exp, 40);
    let agreement = stats::count_agreement(&sim, &exp, 0.0);
    let _ = writeln!(
        out,
        "verdict: agree {} / disagree {} / ties {} of {} DAGs ({:.0}% wrong)",
        agreement.agree,
        agreement.disagree,
        agreement.ties,
        agreement.total(),
        agreement.disagree_fraction() * 100.0
    );
    out
}

/// Figure 1: analytic simulation vs experiment, n = 2000.
pub fn fig1(cells: &[CellResult]) -> String {
    comparison_figure(
        "Figure 1 — HCPA makespan relative to MCPA, analytic models (n = 2000)\n\
         paper: simulation verdict wrong for 16/27 DAGs (60%)",
        cells,
        SimVariant::Analytic,
        2000,
    )
}

/// Figure 1's companion mentioned in §V-B prose: analytic, n = 3000
/// (paper: 7/27 wrong).
pub fn fig1_n3000(cells: &[CellResult]) -> String {
    comparison_figure(
        "§V-B companion — analytic models, n = 3000 (paper: 7/27 wrong)",
        cells,
        SimVariant::Analytic,
        3000,
    )
}

/// Figure 2: relative error of the analytic task-time model against
/// measurements — Java 1-D MM (left) and PDGEMM on the Cray (right).
pub fn fig2(testbed: &Testbed) -> String {
    let mut out = String::new();
    let analytic = AnalyticModel::paper_jvm();
    let _ = writeln!(
        out,
        "Figure 2 — relative runtime prediction errors of the analytic model"
    );
    for n in [2000usize, 3000] {
        let k = Kernel::MatMul { n };
        let ps: Vec<f64> = (1..=32).map(|p| p as f64).collect();
        let errs: Vec<f64> = (1..=32)
            .map(|p| {
                // Average a few measured trials, as a profiling pass would.
                let meas: f64 = (0..5).map(|t| testbed.time_task_once(k, p, t)).sum::<f64>() / 5.0;
                ((analytic.task_time(k, p) - meas) / meas).abs()
            })
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().copied().fold(0.0, f64::max);
        out.push_str(&stats::profile(
            &format!("1D MM/Java (emulated), n = {n}: rel. error vs p (mean {mean:.2}, max {max:.2}; paper: up to 0.6)"),
            &ps,
            &errs,
            40,
        ));
    }
    let cray = CrayPdgemmEnv::default();
    for n in [1024usize, 2048, 4096] {
        let ps: Vec<f64> = (1..=32).map(|p| p as f64).collect();
        let errs: Vec<f64> = (1..=32)
            .map(|p| {
                let pred = cray.analytic_time(n, p);
                let meas = cray.measured_time(n, p);
                ((pred - meas) / meas).abs()
            })
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        out.push_str(&stats::profile(
            &format!("PDGEMM/C (emulated Cray XT4), n = {n}: rel. error vs p (mean {mean:.2}; paper: ~0.10, up to 0.20)"),
            &ps,
            &errs,
            40,
        ));
    }
    out
}

/// Figure 3: task startup overhead vs allocation size (20 trials).
pub fn fig3(testbed: &Testbed) -> String {
    let cfg = mps_core::testbed::ProfilingConfig::default();
    let curve = mps_core::testbed::measure_startup_curve(testbed, &cfg);
    let ps: Vec<f64> = (1..=curve.len()).map(|p| p as f64).collect();
    let mut out = stats::profile(
        "Figure 3 — task startup overhead [s] for p = 1..32 (avg of 20 trials)\n\
         paper: ~0.8–1.6 s, not monotonically increasing",
        &ps,
        &curve,
        40,
    );
    let non_monotone = curve.windows(2).filter(|w| w[1] < w[0]).count();
    let _ = writeln!(
        out,
        "non-monotonic decreases: {non_monotone} (paper observes the curve is not monotonic)"
    );
    out
}

/// Figure 4: data-redistribution overhead surface (3 trials).
pub fn fig4(testbed: &Testbed) -> String {
    let cfg = mps_core::testbed::ProfilingConfig::default();
    let surface = mps_core::testbed::measure_redist_surface(testbed, &cfg);
    // Print a decimated view (every 4th p) in milliseconds.
    let picks: Vec<usize> = vec![1, 4, 8, 12, 16, 20, 24, 28, 32];
    let row_labels: Vec<String> = picks.iter().map(|p| format!("src{p}")).collect();
    let col_labels: Vec<String> = picks.iter().map(|p| format!("dst{p}")).collect();
    let values: Vec<Vec<f64>> = picks
        .iter()
        .map(|&s| picks.iter().map(|&d| surface[s - 1][d - 1] * 1e3).collect())
        .collect();
    let mut out = stats::surface(
        "Figure 4 — redistribution overhead [ms] vs (p_src, p_dst), avg of 3 trials\n\
         paper: grows with both, dominated by p_dst",
        &row_labels,
        &col_labels,
        &values,
    );
    // Quantify the dominance.
    let by_dst = mps_core::testbed::redist_by_dst(&surface);
    let (dp, dy): (Vec<f64>, Vec<f64>) = by_dst
        .iter()
        .enumerate()
        .map(|(i, &v)| ((i + 1) as f64, v * 1e3))
        .unzip();
    let fit = fit_affine(Basis::Identity, &dp, &dy).expect("fit over 32 points");
    let _ = writeln!(
        out,
        "averaged over p_src: overhead ≈ {:.2}·p_dst + {:.1} ms (paper Table II: 7.88·p + 108.58)",
        fit.a, fit.b
    );
    out
}

/// Figure 5: profile-based simulation vs experiment, both sizes.
pub fn fig5(cells: &[CellResult]) -> String {
    let mut out = comparison_figure(
        "Figure 5 (left) — HCPA vs MCPA, full profiles (n = 2000)\n\
         paper: wrong verdict in only 2 cases",
        cells,
        SimVariant::Profile,
        2000,
    );
    out.push('\n');
    out.push_str(&comparison_figure(
        "Figure 5 (right) — HCPA vs MCPA, full profiles (n = 3000)\n\
         paper: wrong verdict in only 3 cases",
        cells,
        SimVariant::Profile,
        3000,
    ));
    out
}

/// Figure 6: regression fits with and without the outliers at p = 8, 16.
pub fn fig6(testbed: &Testbed) -> String {
    let mut out = String::new();
    let k = Kernel::MatMul { n: 3000 };
    let measure =
        |p: usize| -> f64 { (0..5).map(|t| testbed.time_task_once(k, p, t)).sum::<f64>() / 5.0 };

    // Left: naive powers-of-two sample points, outliers included.
    let naive_points = [2usize, 4, 8, 16];
    let (np, ny): (Vec<f64>, Vec<f64>) =
        naive_points.iter().map(|&p| (p as f64, measure(p))).unzip();
    let naive = fit_affine(Basis::Recip, &np, &ny).expect("naive fit");
    let naive_stats = naive.stats(&np, &ny);
    let _ = writeln!(
        out,
        "Figure 6 (left) — regression over p = {{2,4,8,16}} (outliers at 8, 16), n = 3000"
    );
    for (&p, &y) in np.iter().zip(&ny) {
        let _ = writeln!(
            out,
            "  p = {p:>2}: measured {y:>8.2} s, fit {:>8.2} s, residual {:+.2}",
            naive.predict(p),
            y - naive.predict(p)
        );
    }
    let _ = writeln!(
        out,
        "  fit: {naive} (rmse {:.2} — poor, as in the paper)",
        naive_stats.rmse
    );

    // Right: the paper's substituted points 7 and 15.
    let _ = writeln!(
        out,
        "\nFigure 6 (right) — final regression without outliers (points 8,16 → 7,15)"
    );
    for n in [2000usize, 3000] {
        let kk = Kernel::MatMul { n };
        let m = |p: usize| -> f64 {
            (0..5)
                .map(|t| testbed.time_task_once(kk, p, t))
                .sum::<f64>()
                / 5.0
        };
        let (lp, ly): (Vec<f64>, Vec<f64>) =
            MM_LOW_POINTS.iter().map(|&p| (p as f64, m(p))).unzip();
        let low = fit_affine(Basis::Recip, &lp, &ly).expect("low fit");
        let low_stats = low.stats(&lp, &ly);
        let (hp, hy): (Vec<f64>, Vec<f64>) =
            MM_HIGH_POINTS.iter().map(|&p| (p as f64, m(p))).unzip();
        let high = fit_affine(Basis::Identity, &hp, &hy).expect("high fit");
        let _ = writeln!(
            out,
            "  n = {n}: p ≤ 16: {low} (rmse {:.2});  p > 16: {high}",
            low_stats.rmse
        );
    }
    let _ = writeln!(
        out,
        "  paper Table II: n=2000 (239.44 on a/(2p), 3.43), n=3000 (537.91, −25.55)"
    );
    out
}

/// Figure 7: empirical-model simulation vs experiment, both sizes.
pub fn fig7(cells: &[CellResult]) -> String {
    let mut out = comparison_figure(
        "Figure 7 (left) — HCPA vs MCPA, empirical models (n = 2000)\n\
         paper: wrong verdict in 1 case",
        cells,
        SimVariant::Empirical,
        2000,
    );
    out.push('\n');
    out.push_str(&comparison_figure(
        "Figure 7 (right) — HCPA vs MCPA, empirical models (n = 3000)\n\
         paper: wrong verdict in 6 cases",
        cells,
        SimVariant::Empirical,
        3000,
    ));
    out
}

/// Figure 8: box-and-whisker of the makespan simulation error per
/// simulator version and algorithm.
pub fn fig8(cells: &[CellResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8 — makespan simulation error [%] per simulator version\n\
         paper: analytic errors larger by orders of magnitude; empirical ≈ profile"
    );
    for algo in ["HCPA", "MCPA"] {
        let mut labels = Vec::new();
        let mut boxes = Vec::new();
        for variant in SimVariant::ALL {
            let errs: Vec<f64> = cells
                .iter()
                .filter(|c| c.algo == algo && c.variant == variant)
                .filter_map(CellResult::error_pct_checked)
                .collect();
            if let Some(b) = stats::boxplot(&errs) {
                labels.push(format!("{algo}/{}", variant.name()));
                boxes.push(b);
            }
        }
        out.push_str(&stats::boxplots(
            &format!("{algo} results"),
            &labels,
            &boxes,
            50,
        ));
    }
    // Numeric medians for EXPERIMENTS.md, plus rank fidelity: does the
    // simulator *order* the scenarios the way the testbed does?
    for variant in SimVariant::ALL {
        // Degenerate cells (failed, zero makespan) drop out of the error
        // distribution and the rank correlation alike.
        let filtered: Vec<&CellResult> = cells
            .iter()
            .filter(|c| c.variant == variant && c.error_pct_checked().is_some())
            .collect();
        let errs: Vec<f64> = filtered
            .iter()
            .filter_map(|c| c.error_pct_checked())
            .collect();
        let sims: Vec<f64> = filtered.iter().map(|c| c.sim_makespan).collect();
        let reals: Vec<f64> = filtered.iter().map(|c| c.real_makespan).collect();
        if let Some(med) = stats::median(&errs) {
            let rho = stats::spearman(&sims, &reals)
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".to_string());
            let _ = writeln!(
                out,
                "median error {}: {med:.1}% over {} cells (Spearman rank corr. {rho})",
                variant.name(),
                errs.len()
            );
        }
    }
    out
}

/// Table II: the empirical regression models — our fit vs the paper's.
pub fn table2(harness: &Harness) -> String {
    let mut out = String::new();
    let fitted = &harness.empirical_model;
    let paper = EmpiricalModel::table_ii();
    let _ = writeln!(
        out,
        "Table II — regression models (fitted on the emulated testbed vs paper)"
    );
    for n in [2000usize, 3000] {
        for (label, kernel) in [
            ("execution time (multiplication)", Kernel::MatMul { n }),
            ("execution time (addition)", Kernel::MatAdd { n }),
        ] {
            let f = fitted.curve(kernel).expect("fitted curve exists");
            let p = paper.curve(kernel).expect("paper curve exists");
            let _ = writeln!(out, "{label}, n = {n}:");
            let _ = writeln!(out, "  fitted: {}", curve_str(f));
            let _ = writeln!(out, "  paper : {}", curve_str(p));
        }
    }
    let _ = writeln!(
        out,
        "redistribution startup:\n  fitted: a·p+b with (a, b) = ({:.2}, {:.2}) ms\n  paper : (7.88, 108.58) ms",
        fitted.redist.a * 1e3,
        fitted.redist.b * 1e3
    );
    let _ = writeln!(
        out,
        "task startup time:\n  fitted: a·p+b with (a, b) = ({:.3}, {:.3}) s\n  paper : (0.03, 0.65) s",
        fitted.startup.a, fitted.startup.b
    );
    out
}

fn curve_str(c: &mps_core::model::TaskCurve) -> String {
    match c {
        mps_core::model::TaskCurve::Single(m) => m.to_string(),
        mps_core::model::TaskCurve::Piecewise(m) => m.to_string(),
    }
}

/// Fault sweep — Fig. 8-style verdict stability under increasing fault
/// intensity.
///
/// Reruns the first `take` corpus DAGs on `workers` threads under random
/// [`FaultPlan`]s of growing intensity (several plan seeds per intensity)
/// and reports, per intensity: how many cells survive, the
/// simulation-error distribution of the survivors, and whether the
/// HCPA-vs-MCPA verdict each surviving DAG yields still matches the
/// fault-free baseline. It runs on the point loop and stability rule it
/// shares with [`run_disturb_sweep`], and leaves the caller's hazards as
/// it found them.
///
/// [`run_disturb_sweep`]: crate::run_disturb_sweep
/// [`FaultPlan`]: mps_core::faults::FaultPlan
pub fn fault_sweep(
    harness: &mut Harness,
    intensities: &[f64],
    plan_seeds: &[u64],
    take: usize,
    repeats: u64,
    workers: usize,
) -> String {
    use crate::sweep::{self, Hazard};
    use mps_core::faults::FaultPlan;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault sweep — verdict stability vs fault intensity\n\
         {} random plan(s) per intensity over {} DAGs, {} testbed run(s) per cell",
        plan_seeds.len(),
        take,
        repeats
    );
    let hosts = harness.testbed.cluster().node_count();
    // Plans scale with the fault-free baseline's median makespan.
    let plans = |baseline: &[CellResult]| {
        let surviving: Vec<f64> = baseline
            .iter()
            .filter(|c| c.succeeded())
            .map(|c| c.real_makespan)
            .collect();
        let horizon = stats::median(&surviving).unwrap_or(60.0).max(1.0);
        intensities
            .iter()
            .flat_map(|&i| plan_seeds.iter().map(move |&s| (i, s)))
            .map(|(i, s)| Hazard::Faults(FaultPlan::random(s, i, hosts, horizon)))
            .collect()
    };
    // One row per intensity, summed over its plan seeds.
    #[derive(Default)]
    struct Row {
        survived: usize,
        total: usize,
        degraded: usize,
        failed: usize,
        retries: u32,
        stable: usize,
        verdicts: usize,
        errs: Vec<f64>,
    }
    let mut rows: Vec<Row> = intensities.iter().map(|_| Row::default()).collect();
    let baseline = Hazard::Faults(FaultPlan::none());
    sweep::run_in_memory(harness, take, repeats, workers, baseline, plans, |j, p| {
        let row = &mut rows[j / plan_seeds.len()];
        let cells = &p.grid.cells;
        let health = grid_health(cells);
        row.total += cells.len();
        row.survived += cells.len() - health.failed;
        row.degraded += health.degraded;
        row.failed += health.failed;
        row.retries += health.retries;
        let (stable, compared) = p.stability();
        row.stable += stable;
        row.verdicts += compared;
        row.errs
            .extend(cells.iter().filter_map(CellResult::error_pct_checked));
    });
    for (intensity, r) in intensities.iter().zip(&rows) {
        let stability = if r.verdicts == 0 {
            0.0
        } else {
            100.0 * r.stable as f64 / r.verdicts as f64
        };
        let med_err = stats::median(&r.errs).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "intensity {intensity:>4.2}: cells {}/{} survived ({} degraded, {} failed, {} \
             retries), median sim error {med_err:6.1} %, verdict stability {}/{} \
             ({stability:.0} %)",
            r.survived, r.total, r.degraded, r.failed, r.retries, r.stable, r.verdicts
        );
    }
    let _ = writeln!(
        out,
        "\nreading: verdicts from surviving cells stay aligned with the\n\
         fault-free baseline at low intensity and erode as faults dominate."
    );
    out
}

/// Campaign summary of a (possibly journaled) grid: health, crash reports,
/// median simulation error, and how to continue a partial run. The `grid`
/// target and partial checkpoints print it.
pub fn grid_summary(cells: &[CellResult], status: GridStatus, journal: Option<&str>) -> String {
    let health = grid_health(cells);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Grid campaign — {} cell(s) durable, status: {}",
        cells.len(),
        status.label()
    );
    let _ = writeln!(
        out,
        "health: {} full, {} disturbed, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined",
        health.full,
        health.disturbed,
        health.degraded,
        health.retries,
        health.lost_runs,
        health.failed,
        health.quarantined
    );
    for c in cells {
        if let Some(report) = c.outcome.crash_report() {
            let _ = writeln!(
                out,
                "  {}: {}/{}/{} — {}",
                c.outcome.label(),
                c.dag,
                c.variant.name(),
                c.algo,
                report.summary()
            );
        }
    }
    let errs: Vec<f64> = cells
        .iter()
        .filter_map(CellResult::error_pct_checked)
        .collect();
    if let Some(med) = stats::median(&errs) {
        let _ = writeln!(
            out,
            "median simulation error over {} measured cell(s): {med:.2}%",
            errs.len()
        );
    }
    if let Some(j) = journal {
        match status {
            GridStatus::Complete => {
                let _ = writeln!(out, "journal {j} is complete");
            }
            _ => {
                let _ = writeln!(
                    out,
                    "checkpoint saved — continue with: repro --journal {j} --resume"
                );
            }
        }
    }
    out
}

/// Gantt charts: one n = 2000 DAG's testbed timeline under the HCPA
/// schedule of each simulator.
pub fn gantt(harness: &Harness) -> String {
    let corpus = harness.corpus();
    let g = corpus
        .iter()
        .find(|g| g.params.matrix_size == 2000)
        .expect("corpus has n = 2000 DAGs");
    let mut out = format!("Gantt charts for {} on the emulated testbed\n\n", g.name());
    for variant in SimVariant::ALL {
        let cluster = harness.nominal_cluster();
        let schedule = match variant {
            SimVariant::Analytic => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &AnalyticModel::paper_jvm(),
            ),
            SimVariant::Profile => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.profile_model,
            ),
            SimVariant::Empirical => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.empirical_model,
            ),
        };
        out.push_str(&format!(
            "--- HCPA schedule under the {} model ---\n",
            variant.name()
        ));
        match harness.testbed.execute(&g.dag, &schedule, 0) {
            Ok(real) => out.push_str(&mps_core::sim::render_gantt(&schedule, &real, 70)),
            Err(e) => out.push_str(&format!("(testbed execution failed: {e})\n")),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_harness() -> Harness {
        Harness::new(2011)
    }

    #[test]
    fn table1_lists_the_grid() {
        let t = table1();
        assert!(t.contains("54"));
        assert!(t.contains("[2, 4, 8]"));
        assert!(t.contains("[0.5, 0.75, 1.0]"));
    }

    #[test]
    fn measurement_figures_render() {
        let h = quick_harness();
        let f2 = fig2(&h.testbed);
        assert!(f2.contains("1D MM/Java"));
        assert!(f2.contains("PDGEMM"));
        let f3 = fig3(&h.testbed);
        assert!(f3.contains("startup overhead"));
        let f4 = fig4(&h.testbed);
        assert!(f4.contains("p_dst"));
        let f6 = fig6(&h.testbed);
        assert!(f6.contains("Figure 6 (left)"));
        assert!(f6.contains("Table II"));
    }

    #[test]
    fn comparison_figures_render_from_cells() {
        let h = quick_harness();
        let cells = h.run_subset(6, 1);
        for report in [fig1(&cells), fig5(&cells), fig7(&cells), fig8(&cells)] {
            assert!(report.contains("verdict") || report.contains("median"));
        }
    }

    #[test]
    fn table2_compares_fit_with_paper() {
        let h = quick_harness();
        let t = table2(&h);
        assert!(t.contains("fitted"));
        assert!(t.contains("paper"));
        assert!(t.contains("7.88"));
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use crate::runner::Harness;

    /// Locks the calibration of the measurement-backed figures: if someone
    /// perturbs the ground truth, these shape assertions catch it before
    /// EXPERIMENTS.md silently drifts.
    #[test]
    fn fig2_error_bands_match_the_paper() {
        let h = Harness::new(2011);
        let analytic = AnalyticModel::paper_jvm();
        for n in [2000usize, 3000] {
            let k = Kernel::MatMul { n };
            let errs: Vec<f64> = (1..=32)
                .map(|p| {
                    let meas: f64 = (0..5)
                        .map(|t| h.testbed.time_task_once(k, p, t))
                        .sum::<f64>()
                        / 5.0;
                    ((analytic.task_time(k, p) - meas) / meas).abs()
                })
                .collect();
            let max = errs.iter().copied().fold(0.0, f64::max);
            assert!(
                (0.3..=0.95).contains(&max),
                "n={n}: max Java error {max} (paper: up to ~0.6)"
            );
        }
        let cray = CrayPdgemmEnv::default();
        let errs: Vec<f64> = (1..=32)
            .map(|p| {
                let pred = cray.analytic_time(2048, p);
                let meas = cray.measured_time(2048, p);
                ((pred - meas) / meas).abs()
            })
            .collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!((0.05..=0.15).contains(&mean), "Cray mean error {mean}");
    }

    #[test]
    fn fig3_startup_band_and_non_monotonicity() {
        let h = Harness::new(2011);
        let cfg = mps_core::testbed::ProfilingConfig::default();
        let curve = mps_core::testbed::measure_startup_curve(&h.testbed, &cfg);
        assert!(curve.iter().all(|&v| (0.3..=2.2).contains(&v)));
        assert!(curve.windows(2).any(|w| w[1] < w[0]), "non-monotonic");
        assert!(curve[31] > curve[0], "increasing overall");
    }

    #[test]
    fn fig4_p_dst_dominance_band() {
        let h = Harness::new(2011);
        let cfg = mps_core::testbed::ProfilingConfig::default();
        let surface = mps_core::testbed::measure_redist_surface(&h.testbed, &cfg);
        let by_dst = mps_core::testbed::redist_by_dst(&surface);
        let (dp, dy): (Vec<f64>, Vec<f64>) = by_dst
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i + 1) as f64, v * 1e3))
            .unzip();
        let fit = fit_affine(Basis::Identity, &dp, &dy).unwrap();
        // Slope within ±50 % of the paper's 7.88 ms/proc, intercept within
        // ±50 % of 108.58 ms.
        assert!((fit.a - 7.88).abs() < 3.9, "slope {}", fit.a);
        assert!((fit.b - 108.58).abs() < 54.0, "intercept {}", fit.b);
    }

    #[test]
    fn table2_fit_tracks_paper_coefficients() {
        let h = Harness::new(2011);
        let fitted = &h.empirical_model;
        let paper = EmpiricalModel::table_ii();
        // Startup: tight band.
        assert!((fitted.startup.a - paper.startup.a).abs() < 0.01);
        assert!((fitted.startup.b - paper.startup.b).abs() < 0.2);
        // Redistribution: same order of magnitude, within 50 %.
        assert!((fitted.redist.a / paper.redist.a - 1.0).abs() < 0.5);
        assert!((fitted.redist.b / paper.redist.b - 1.0).abs() < 0.5);
    }
}
