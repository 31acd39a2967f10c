//! The frozen pre-rework CPA/HCPA/MCPA allocator.

use mps_dag::{Dag, TaskId};
use mps_sched::{AllocationConfig, LevelBudget, SelectionRule, StopRule};

/// The pre-rework allocator, frozen verbatim for differential testing:
/// it re-derives the critical path, its length, and the area sums from
/// scratch on every step, calling `tau` afresh each time. The incremental
/// engine behind [`mps_sched::allocate`] must produce bit-identical allocations.
pub fn allocate_ref(
    dag: &Dag,
    cluster_size: usize,
    config: &AllocationConfig,
    tau: impl Fn(TaskId, usize) -> f64,
) -> Vec<usize> {
    assert!(cluster_size >= 1);
    assert!(config.max_procs >= 1);
    let n_tasks = dag.len();
    let mut np = vec![1usize; n_tasks];
    if n_tasks == 0 {
        return np;
    }

    let levels = dag.precedence_levels();
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut level_usage = vec![0usize; max_level + 1];
    for t in 0..n_tasks {
        level_usage[levels[t]] += 1;
    }

    // Iteration bound: each step adds one processor to one task.
    let max_steps = n_tasks * config.max_procs;
    for _ in 0..max_steps {
        let time = |t: TaskId| tau(t, np[t.index()]);
        let t_cp = dag.critical_path_length(time);
        let t_a = match config.stop {
            StopRule::GlobalArea => {
                (0..n_tasks)
                    .map(|t| np[t] as f64 * tau(TaskId(t), np[t]))
                    .sum::<f64>()
                    / cluster_size as f64
            }
            StopRule::PerLevelArea => {
                let mut per_level = vec![0.0_f64; max_level + 1];
                for t in 0..n_tasks {
                    per_level[levels[t]] += np[t] as f64 * tau(TaskId(t), np[t]);
                }
                per_level.into_iter().fold(0.0, f64::max) / cluster_size as f64
            }
        };
        if t_cp <= t_a {
            break;
        }

        // Candidate tasks: on the critical path, can still grow, and
        // (for MCPA) within the level budget. Measured profiles are not
        // monotone (outliers, cache effects), so a candidate's growth
        // target is the next *strictly better* allocation — a plain `+1`
        // step would stall the whole loop at a locally-bad point such as
        // the paper's `p = 8` outlier.
        let cp = dag.critical_path(time);
        let mut best: Option<(TaskId, usize, f64)> = None;
        for &t in &cp {
            let cur = np[t.index()];
            // Next strictly-improving allocation for this task.
            let target = (cur + 1..=config.max_procs).find(|&q| tau(t, q) < tau(t, cur));
            let Some(q) = target else { continue };
            if let LevelBudget::BoundedByCluster = config.budget {
                if level_usage[levels[t.index()]] + (q - cur) > cluster_size {
                    continue;
                }
            }
            let gain = tau(t, cur) - tau(t, q);
            let added = (q - cur) as f64;
            let score = match config.rule {
                SelectionRule::AbsoluteGain => gain,
                // Gain per additional processor, damped by the target
                // size — reduces to gain/(np+1) for single steps.
                SelectionRule::GainPerProcessor => gain / (added * q as f64),
            };
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((t, q, score)),
            }
        }

        match best {
            Some((t, q, _)) => {
                let added = q - np[t.index()];
                np[t.index()] = q;
                level_usage[levels[t.index()]] += added;
            }
            // No critical task can be improved: stop.
            None => break,
        }
    }
    np
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_kernels::Kernel;
    use mps_sched::{allocate, AllocKey, AllocationEngine};

    fn chain(n: usize) -> Dag {
        let kernels = vec![Kernel::MatMul { n: 100 }; n];
        let edges: Vec<(TaskId, TaskId)> = (1..n).map(|i| (TaskId(i - 1), TaskId(i))).collect();
        Dag::new(kernels, &edges).unwrap()
    }

    fn fork(n_branches: usize) -> Dag {
        // t0 -> t1..tn -> t_{n+1}
        let total = n_branches + 2;
        let kernels = vec![Kernel::MatMul { n: 100 }; total];
        let mut edges = Vec::new();
        for b in 1..=n_branches {
            edges.push((TaskId(0), TaskId(b)));
            edges.push((TaskId(b), TaskId(n_branches + 1)));
        }
        Dag::new(kernels, &edges).unwrap()
    }

    const CPA_CFG: AllocationConfig = AllocationConfig {
        rule: SelectionRule::AbsoluteGain,
        budget: LevelBudget::Unbounded,
        stop: StopRule::GlobalArea,
        max_procs: 8,
    };

    /// All three configuration shapes, shared by the differential tests.
    fn all_configs(max_procs: usize) -> [AllocationConfig; 3] {
        [
            AllocationConfig {
                rule: SelectionRule::AbsoluteGain,
                budget: LevelBudget::Unbounded,
                stop: StopRule::GlobalArea,
                max_procs,
            },
            AllocationConfig {
                rule: SelectionRule::GainPerProcessor,
                budget: LevelBudget::Unbounded,
                stop: StopRule::GlobalArea,
                max_procs,
            },
            AllocationConfig {
                rule: SelectionRule::AbsoluteGain,
                budget: LevelBudget::BoundedByCluster,
                stop: StopRule::PerLevelArea,
                max_procs,
            },
        ]
    }

    #[test]
    fn engine_matches_reference_on_shapes_and_taus() {
        // Chains, forks, an edge-free and an empty DAG under several τ
        // regimes:
        // ideal scaling, overhead-dominated, and a non-monotone profile
        // with a deliberate outlier (exercises the strictly-improving
        // target search and its cache).
        let dags = vec![
            chain(1),
            chain(4),
            chain(7),
            fork(3),
            fork(8),
            Dag::new(vec![Kernel::MatMul { n: 100 }; 5], &[]).unwrap(),
            Dag::new(vec![], &[]).unwrap(),
        ];
        let taus: Vec<Box<dyn Fn(TaskId, usize) -> f64>> = vec![
            Box::new(|_t, p| 8.0 / p as f64),
            Box::new(|_t, p| 1.0 + p as f64),
            Box::new(|t, p| {
                let w = 16.0 * (1.0 + t.index() as f64);
                let outlier = if p == 3 { 5.0 } else { 0.0 };
                w / p as f64 + 0.4 * p as f64 + outlier
            }),
            // Uniform τ: every bottom level ties, stressing the critical
            // path extraction's tie-break fidelity.
            Box::new(|_t, _p| 2.0),
        ];
        let mut engine = AllocationEngine::new();
        for dag in &dags {
            for tau in &taus {
                for cluster in [1usize, 4, 8] {
                    for config in all_configs(8) {
                        let want = allocate_ref(dag, cluster, &config, tau);
                        let got = engine.allocate(dag, cluster, &config, tau);
                        assert_eq!(got, want, "cluster {cluster} config {config:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn memoization_reduces_model_calls_vs_reference() {
        use std::cell::Cell;
        let dag = fork(6);
        let count_ref = Cell::new(0usize);
        let np_ref = allocate_ref(&dag, 8, &CPA_CFG, |_t, p| {
            count_ref.set(count_ref.get() + 1);
            64.0 / p as f64 + 0.1 * p as f64
        });
        let count_inc = Cell::new(0usize);
        let np_inc = allocate(&dag, 8, &CPA_CFG, |_t, p| {
            count_inc.set(count_inc.get() + 1);
            64.0 / p as f64 + 0.1 * p as f64
        });
        assert_eq!(np_ref, np_inc);
        assert!(
            count_inc.get() * 4 < count_ref.get(),
            "memoized engine made {} model calls vs reference {}",
            count_inc.get(),
            count_ref.get()
        );
    }

    #[test]
    fn keyed_allocation_is_bit_identical_and_reuses_the_tau_table() {
        use std::cell::Cell;
        let dag = fork(6);
        let tau_fn = |_t: TaskId, p: usize| 64.0 / p as f64 + 0.1 * p as f64;
        let calls = Cell::new(0usize);
        let counted = |t: TaskId, p: usize| {
            calls.set(calls.get() + 1);
            tau_fn(t, p)
        };
        let [hcpa_cfg, _, mcpa_cfg] = {
            let c = all_configs(8);
            [c[1], c[0], c[2]]
        };
        let mut engine = AllocationEngine::new();
        let key = AllocKey { dag: 1, model: 7 };

        let cold = engine.allocate_keyed(key, &dag, 8, &hcpa_cfg, counted);
        let cold_calls = calls.get();
        let warm = engine.allocate_keyed(key, &dag, 8, &mcpa_cfg, counted);
        let warm_calls = calls.get() - cold_calls;
        assert_eq!(cold, allocate_ref(&dag, 8, &hcpa_cfg, tau_fn));
        assert_eq!(warm, allocate_ref(&dag, 8, &mcpa_cfg, tau_fn));
        assert!(
            warm_calls < cold_calls,
            "warm keyed pass made {warm_calls} model calls vs cold {cold_calls}"
        );

        // A different key must invalidate the carried τ-table.
        let other_key = AllocKey { dag: 2, model: 7 };
        let tau2 = |_t: TaskId, p: usize| 32.0 / p as f64;
        let fresh = engine.allocate_keyed(other_key, &dag, 8, &hcpa_cfg, tau2);
        assert_eq!(fresh, allocate_ref(&dag, 8, &hcpa_cfg, tau2));

        // An unkeyed call parks the keyed table instead of discarding it: a
        // later keyed call with the same identity comes back warm (strictly
        // fewer τ evaluations than the cold pass) and stays bit-identical.
        engine.allocate(&dag, 8, &hcpa_cfg, tau_fn);
        let before = calls.get();
        let again = engine.allocate_keyed(key, &dag, 8, &hcpa_cfg, counted);
        let again_calls = calls.get() - before;
        assert_eq!(again, cold);
        assert!(
            again_calls < cold_calls,
            "parked τ-table should make the re-keyed pass warm: {again_calls} vs cold {cold_calls}"
        );
    }
}
