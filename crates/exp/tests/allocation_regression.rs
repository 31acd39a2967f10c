//! Pinned allocation regression: over the full 54-DAG paper corpus × all
//! three instantiated models (analytic, profile, empirical) × {CPA, HCPA,
//! MCPA}, the incremental engine's allocations must be **byte-identical**
//! to the frozen pre-rework reference. The paper's Tables III–IV verdicts
//! are a pure function of these vectors, so equality here pins them
//! bit-for-bit.
//!
//! CI runs this file by name and fails if the corpus is skipped (see the
//! `test` job), so a rename or accidental `#[ignore]` cannot
//! silently drop the coverage.

use mps_core::dag::TaskId;
use mps_core::model::PerfModel;
use mps_core::sched::{allocate_ref, AllocationEngine, Cpa, Hcpa, Mcpa, Scheduler};
use mps_exp::Harness;

#[test]
fn corpus_allocations_bit_identical_across_models_and_algorithms() {
    let harness = Harness::new(2011);
    let cluster = harness.testbed.nominal_cluster();
    let analytic = mps_core::model::AnalyticModel::paper_jvm();
    let models: [(&str, &dyn PerfModel); 3] = [
        ("analytic", &analytic),
        ("profile", &harness.profile_model),
        ("empirical", &harness.empirical_model),
    ];
    let algos: [&dyn Scheduler; 3] = [&Cpa, &Hcpa, &Mcpa];

    let corpus = harness.corpus();
    assert_eq!(corpus.len(), 54, "the paper corpus must not shrink");

    let mut engine = AllocationEngine::new();
    let mut checked = 0usize;
    for g in corpus.iter() {
        for (model_name, model) in models {
            let tau = |t: TaskId, p: usize| {
                let kernel = g.dag.task(t).kernel;
                model.task_time(kernel, p) + model.startup_overhead(p)
            };
            for algo in algos {
                let config = algo.allocation_config(&cluster);
                let want = allocate_ref(&g.dag, cluster.node_count(), &config, tau);
                let got = engine.allocate(&g.dag, cluster.node_count(), &config, tau);
                assert_eq!(got, want, "{} under {model_name}/{}", g.name(), algo.name());
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 54 * 3 * 3, "full corpus × models × algorithms");
}

#[test]
fn corpus_schedules_unchanged_through_the_engine() {
    // One level up: the full two-phase schedules (allocation + mapping)
    // computed through the engine-backed `Scheduler::schedule` must carry
    // the reference allocations, so the downstream simulated/measured
    // makespans — and with them the Tables III–IV verdicts — cannot move.
    let harness = Harness::new(2011);
    let cluster = harness.testbed.nominal_cluster();
    for g in harness.corpus().iter().take(12) {
        for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
            let tau = |t: TaskId, p: usize| {
                let kernel = g.dag.task(t).kernel;
                harness.profile_model.task_time(kernel, p)
                    + harness.profile_model.startup_overhead(p)
            };
            let config = algo.allocation_config(&cluster);
            let want = allocate_ref(&g.dag, cluster.node_count(), &config, tau);
            let schedule = algo.schedule(&g.dag, &cluster, &harness.profile_model);
            schedule.validate(&g.dag, &cluster).unwrap();
            let got = schedule.allocations(&g.dag);
            // Mapping clamps to the cluster size; the corpus allocations
            // never exceed it, so the vectors must match exactly.
            assert_eq!(got, want, "{} {}", g.name(), algo.name());
        }
    }
}
