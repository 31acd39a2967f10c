//! The cold per-cell reference path of the experiment grid.

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::DisturbReport;
use mps_core::platform::{ClusterSpec, HostId};
use mps_core::sched::{AllocationEngine, Schedule, Scheduler};
use mps_core::sim::{DisturbSetup, ExecSlab, Simulator};
use mps_exp::{CellOutcome, CellResult, Harness, SimVariant};

/// One grid cell on the pre-batch path: a fresh allocation engine, fresh
/// simulator and executor state, and full schedule validation on both the
/// simulator and the testbed side. The grid drivers' warm-slab cells must
/// match it bit for bit, with or without a fault plan or a disturbance
/// config on `h`.
pub fn reference_cell(
    h: &Harness,
    g: &GeneratedDag,
    variant: SimVariant,
    algo: &dyn Scheduler,
    repeats: u64,
) -> CellResult {
    let mut cell = CellResult {
        dag: g.name(),
        n: g.params.matrix_size,
        variant,
        algo: algo.name().to_string(),
        sim_makespan: 0.0,
        real_makespan: 0.0,
        real_runs: Vec::new(),
        outcome: CellOutcome::Full,
    };
    let model = h.model_of(variant);
    let sim = Simulator::new(h.testbed.nominal_cluster(), model.as_ref());
    let schedule = match sim.schedule_and_simulate(&g.dag, algo) {
        Ok(out) => {
            cell.sim_makespan = out.result.makespan;
            out.schedule
        }
        Err(e) => {
            cell.outcome = CellOutcome::Failed {
                error: format!("simulation: {e}"),
            };
            return cell;
        }
    };

    // A disturbed cell runs on one fresh executor slab and allocation
    // engine; the rescue re-planner schedules the whole DAG onto an
    // m-node sub-cluster and maps host `j` back to survivor `j`.
    let mut slab = ExecSlab::new();
    let mut engine = AllocationEngine::default();
    let mut report = DisturbReport::default();
    let mut failed_runs = 0usize;
    let mut retries = 0u32;
    let mut first_error = None;
    for r in 0..repeats.max(1) {
        let run_seed = g.seed.wrapping_add(r);
        let run = match (&h.disturb, &h.fault_plan) {
            (Some(cfg), faults) => {
                let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
                    let mut spec = ClusterSpec::bayreuth();
                    spec.nodes = survivors.len();
                    let sub = spec.build().ok()?;
                    let mut s =
                        algo.schedule_with_engine(&g.dag, &sub, model.as_ref(), &mut engine);
                    for st in &mut s.tasks {
                        for host in &mut st.hosts {
                            *host = survivors[host.index()];
                        }
                    }
                    Some(s)
                };
                h.testbed.execute_disturbed_prevalidated_with_slab(
                    &mut slab,
                    &g.dag,
                    &schedule,
                    run_seed,
                    faults.as_ref(),
                    &h.policy,
                    DisturbSetup {
                        plan: &cfg.plan,
                        recovery: cfg.recovery,
                        rescue_overhead: cfg.rescue_overhead,
                        replan: Some(&mut replan),
                    },
                    &mut report,
                )
            }
            (None, Some(plan)) => h
                .testbed
                .execute_with_faults(&g.dag, &schedule, run_seed, plan, &h.policy),
            (None, None) => h.testbed.execute(&g.dag, &schedule, run_seed),
        };
        match run {
            Ok(res) => {
                retries += res.total_retries();
                cell.real_runs.push(res.makespan);
            }
            Err(e) => {
                failed_runs += 1;
                first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    if cell.real_runs.is_empty() {
        cell.outcome = CellOutcome::Failed {
            error: first_error.unwrap_or_else(|| "no runs".into()),
        };
        return cell;
    }
    cell.real_makespan = cell.real_runs.iter().sum::<f64>() / cell.real_runs.len() as f64;
    if report.fired() > 0 || report.rescues > 0 {
        cell.outcome = CellOutcome::Disturbed {
            failed_runs,
            retries,
            report,
        };
    } else if failed_runs > 0 || retries > 0 {
        cell.outcome = CellOutcome::Degraded {
            failed_runs,
            retries,
        };
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::faults::{DisturbancePlan, RecoveryPolicy};
    use mps_core::sched::Hcpa;
    use mps_exp::{grid_health, DisturbConfig};

    #[test]
    fn disturbed_grid_rescues_and_stays_deterministic() {
        let cfg = || {
            DisturbConfig::new(
                DisturbancePlan::builder(5)
                    .crash(HostId(0), 2.0)
                    .slow(HostId(1), 0.0, 60.0, 2.0)
                    .build(),
                RecoveryPolicy::Rescue,
            )
        };
        let h = Harness::new(7).with_disturbance(cfg());
        let cells = h.run_subset(2, 1);
        assert_eq!(cells.len(), 2 * 3 * 2);
        let disturbed: Vec<_> = cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Disturbed { .. }))
            .collect();
        assert!(
            !disturbed.is_empty(),
            "a crash at t=2 must perturb some cells: {:?}",
            cells.iter().map(|c| c.outcome.label()).collect::<Vec<_>>()
        );
        for c in &cells {
            assert!(c.succeeded(), "rescue must keep cells measurable: {c:?}");
            assert!(c.real_makespan > 0.0);
        }
        let health = grid_health(&cells);
        assert!(health.disturbed > 0);
        assert!(health.crashes > 0);
        assert!(
            health.rescues > 0 && health.rescued_tasks > 0,
            "rescue counters must surface in grid health: {health:?}"
        );
        // Deterministic: a second harness with the same config reproduces
        // the grid bit for bit, at any worker count.
        let h2 = Harness::new(7).with_disturbance(cfg());
        assert_eq!(cells, h2.run_subset(2, 1));
        assert_eq!(cells, h2.run_subset_with_workers(2, 1, 4));
        // And the warm-slab grid cell matches the fresh-state reference path.
        let corpus = h.corpus();
        let g = &corpus[0];
        let reference = reference_cell(&h, g, SimVariant::Analytic, &Hcpa, 1);
        let slabbed = cells
            .iter()
            .find(|c| c.dag == g.name() && c.variant == SimVariant::Analytic && c.algo == "HCPA")
            .expect("the subset holds the first DAG's analytic HCPA cell");
        assert_eq!(&reference, slabbed);
        // An empty plan is dropped entirely: the digest and results match
        // a disturbance-free harness.
        let plain = Harness::new(7);
        let zero = Harness::new(7).with_disturbance(DisturbConfig::new(
            DisturbancePlan::none(),
            RecoveryPolicy::Rescue,
        ));
        assert!(zero.disturb.is_none());
        assert_eq!(plain.config_digest(), zero.config_digest());
        // A present config changes the digest (journal mixing guard).
        assert_ne!(plain.config_digest(), h.config_digest());
    }
}
