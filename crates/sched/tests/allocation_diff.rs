//! Differential tests: the incremental [`mps_sched::AllocationEngine`]
//! against the frozen pre-rework [`mps_oracle::allocate_ref`], over random
//! DAGs × all three `AllocationConfig`s × several τ families.
//!
//! The engine's contract is *bit-identical allocations* — not "close":
//! the paper's Tables III–IV verdicts sit downstream of these vectors.

use proptest::prelude::*;

use mps_dag::{generate, DagGenParams, TaskId};
use mps_model::{AnalyticModel, EmpiricalModel, PerfModel};
use mps_oracle::allocate_ref;
use mps_sched::{AllocationConfig, AllocationEngine, LevelBudget, SelectionRule, StopRule};

/// The three paper configuration shapes (CPA, HCPA, MCPA) at `max_procs`.
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

/// A deterministic, non-monotone synthetic τ: scaling plus overhead plus
/// hash-seeded outliers. Dyadic-friendly values maximize exact ties, the
/// hardest regime for tie-break fidelity.
fn synthetic_tau(salt: u64) -> impl Fn(TaskId, usize) -> f64 {
    move |t: TaskId, p: usize| {
        let h = (t.index() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(p as u64)
            .wrapping_mul(salt | 1);
        let w = 8.0 + (h % 64) as f64 / 4.0;
        let outlier = if h.is_multiple_of(7) { 4.0 } else { 0.0 };
        w / p as f64 + 0.25 * p as f64 + outlier
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random DAGs under the paper's analytic and empirical models: the
    /// engine reproduces the reference bit-for-bit for every config.
    #[test]
    fn engine_matches_reference_under_paper_models(
        tasks in 1usize..24,
        width_exp in 1u32..4,
        ratio in 0.0f64..1.0,
        n in prop::sample::select(vec![2000usize, 3000]),
        seed in 0u64..10_000,
        cluster in prop::sample::select(vec![2usize, 8, 32]),
    ) {
        let params = DagGenParams {
            tasks,
            input_matrices: 2usize.pow(width_exp),
            add_ratio: ratio,
            matrix_size: n,
        };
        let dag = generate(&params, seed);
        let analytic = AnalyticModel::paper_jvm();
        let empirical = EmpiricalModel::table_ii();
        let models: [&dyn PerfModel; 2] = [&analytic, &empirical];
        let mut engine = AllocationEngine::new();
        for model in models {
            let tau = |t: TaskId, p: usize| {
                let kernel = dag.task(t).kernel;
                model.task_time(kernel, p) + model.startup_overhead(p)
            };
            for config in all_configs(cluster) {
                let want = allocate_ref(&dag, cluster, &config, tau);
                let got = engine.allocate(&dag, cluster, &config, tau);
                prop_assert_eq!(
                    &got, &want,
                    "model {} config {:?}", model.name(), config
                );
            }
        }
    }

    /// Random DAGs under a hash-seeded non-monotone τ with heavy exact
    /// ties: stresses the strictly-improving target cache and the
    /// critical-path tie-breaks.
    #[test]
    fn engine_matches_reference_under_synthetic_taus(
        tasks in 1usize..32,
        width_exp in 1u32..4,
        seed in 0u64..10_000,
        salt in 0u64..1_000,
        cluster in prop::sample::select(vec![1usize, 4, 8, 16]),
        max_procs in prop::sample::select(vec![1usize, 8, 16]),
    ) {
        let params = DagGenParams {
            tasks,
            input_matrices: 2usize.pow(width_exp),
            add_ratio: 0.5,
            matrix_size: 2000,
        };
        let dag = generate(&params, seed);
        let tau = synthetic_tau(salt);
        let mut engine = AllocationEngine::new();
        for config in all_configs(max_procs) {
            let want = allocate_ref(&dag, cluster, &config, &tau);
            let got = engine.allocate(&dag, cluster, &config, &tau);
            prop_assert_eq!(&got, &want, "config {:?}", config);
        }
    }
}
