//! Determinism regression: the batched slab-reusing grid path must stay
//! byte-identical to the pre-batch per-cell reference path.
//!
//! `mps_oracle::reference_cell` keeps the original cold semantics: fresh
//! allocation engine, fresh simulator/executor state per cell. The grid
//! drivers instead run `Harness::run_cell` on the thread's warm
//! `WorkerSlab` (memoized τ-tables, reused solver arenas, parked
//! cross-cell caches).
//! These tests pin the batching contract: for any worker count, with or
//! without a fault plan, the batched grid's `Debug` rendering — which
//! round-trips every f64 bit — equals the reference rendering, and poison
//! cells are quarantined without disturbing their neighbours. A daemon
//! request that carries its own disturbance plan streams the cells of the
//! grid run under that plan.

use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::RunControl;
use mps_core::platform::HostId;
use mps_core::sched::{Hcpa, Mcpa, Scheduler};
use mps_core::serve::{Backend, WorkRequest};
use mps_core::sim::ExecPolicy;
use mps_exp::{
    CellOutcome, CellResult, DisturbConfig, Harness, PoisonAction, PoisonRule, ServeBackend,
    SimVariant,
};
use mps_oracle::reference_cell;

const TAKE: usize = 10;
const REPEATS: u64 = 2;

/// Reference grid over the first `take` corpus DAGs: every cell through
/// the cold per-cell path, sorted into the canonical (dag, variant, algo)
/// order the grid drivers promise.
fn reference_cells(h: &Harness, take: usize, repeats: u64) -> Vec<CellResult> {
    let corpus = h.corpus();
    let mut cells = Vec::new();
    for g in corpus.iter().take(take) {
        for variant in SimVariant::ALL {
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                cells.push(reference_cell(h, g, variant, algo, repeats));
            }
        }
    }
    sort_canonical(&mut cells);
    cells
}

/// Sorts cells into the canonical (dag, variant, algo) order.
fn sort_canonical(cells: &mut [CellResult]) {
    cells.sort_by(|a, b| {
        a.dag
            .cmp(&b.dag)
            .then_with(|| a.variant.name().cmp(b.variant.name()))
            .then_with(|| a.algo.cmp(&b.algo))
    });
}

/// `Debug` output of f64 round-trips (shortest representation that parses
/// back to the same bits), so string equality here is bit equality of
/// every makespan, run list, and outcome.
fn render(cells: &[CellResult]) -> String {
    format!("{cells:?}")
}

#[test]
fn batched_grid_is_byte_identical_to_reference_for_any_worker_count() {
    let h = Harness::new(2011);
    let reference = render(&reference_cells(&h, TAKE, REPEATS));
    for workers in [1, 2, Harness::default_workers()] {
        let batched = render(&h.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "batched grid diverged from per-cell reference at workers={workers}"
        );
    }
}

#[test]
fn batched_grid_matches_reference_under_a_fault_plan() {
    let plan = FaultPlan::builder(3)
        .node_crash(HostId(0), 0.0, 50.0)
        .task_failure(0.02)
        .node_slowdown(HostId(2), 10.0, 1.5)
        .build();
    let h = Harness::new(7)
        .with_fault_plan(plan)
        .with_exec_policy(ExecPolicy {
            max_retries: 4,
            ..ExecPolicy::default()
        });
    let reference = render(&reference_cells(&h, TAKE, REPEATS));
    for workers in [1, 2] {
        let batched = render(&h.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "faulty batched grid diverged from reference at workers={workers}"
        );
    }
}

#[test]
fn disturbed_grid_matches_reference_after_crash_repair() {
    // The grid reuses one executor slab across cells, so every run after
    // a crash repair (a rescue re-plan or a RetryElsewhere patch) starts
    // from buffers that repair rewrote; the reference starts each cell
    // from a fresh slab.
    let hosts = Harness::new(2011).nominal_cluster().node_count();
    let plan = DisturbancePlan::parse("seed=2011;moderate", hosts, DISTURB_HORIZON).unwrap();
    for recovery in [RecoveryPolicy::Rescue, RecoveryPolicy::RetryElsewhere] {
        let h = Harness::new(2011).with_disturbance(DisturbConfig::new(plan.clone(), recovery));
        let cells = reference_cells(&h, TAKE, REPEATS);
        let repairs: u64 = cells
            .iter()
            .map(|c| match &c.outcome {
                CellOutcome::Disturbed { report, .. } => report.rescues + report.retried_tasks,
                _ => 0,
            })
            .sum();
        assert!(
            repairs > 0,
            "{recovery:?}: the plan must strand and repair work"
        );
        let reference = render(&cells);
        for workers in [1, 4] {
            let batched = render(&h.run_subset_with_workers(TAKE, REPEATS, workers));
            assert_eq!(
                batched, reference,
                "{recovery:?} grid diverged from the reference at workers={workers}"
            );
        }
    }
}

/// A `SubsetGrid` request's own disturbance plan reaches the cells the
/// daemon runs: it streams the cells of the grid run under that plan with
/// the rescue reaction, and not the undisturbed ones.
#[test]
fn a_per_request_disturbance_plan_reaches_the_daemon_cells() {
    const PLAN: &str = "seed=42;moderate";
    let work = WorkRequest::SubsetGrid {
        take: 1,
        repeats: 1,
        disturb: Some(PLAN.to_string()),
    };
    let mut served = Vec::new();
    let summary = ServeBackend::new(Harness::new(7))
        .execute(&work, &RunControl::unlimited(), &mut |_, payload| {
            served.push(serde_json::from_str::<CellResult>(payload).expect("a cell payload"));
            true
        })
        .expect("the daemon serves the request");
    assert_eq!((summary.cells, summary.quarantined), (6, 0));
    assert!(summary.disturbed > 0, "the request's plan must fire");
    // The daemon streams in dispatch order; the grid returns canonical order.
    sort_canonical(&mut served);

    let hosts = Harness::new(7).nominal_cluster().node_count();
    let plan = DisturbancePlan::parse(PLAN, hosts, DISTURB_HORIZON).unwrap();
    let disturbed = Harness::new(7)
        .with_disturbance(DisturbConfig::new(plan, RecoveryPolicy::Rescue))
        .run_subset_with_workers(1, 1, 1);
    assert_eq!(render(&served), render(&disturbed));
    let plain = Harness::new(7).run_subset_with_workers(1, 1, 1);
    assert_ne!(render(&served), render(&plain));
}

#[test]
fn zero_intensity_disturbance_is_byte_identical_to_the_plain_grid() {
    // The determinism guard for the disturbance subsystem: an intensity-0
    // plan generates no events, `with_disturbance` drops it entirely, and
    // the grid takes the exact pre-disturbance code path — byte-identical
    // to a harness that never heard of disturbances, at any worker count.
    let plain = Harness::new(2011);
    let reference = render(&reference_cells(&plain, TAKE, REPEATS));
    let zero = Harness::new(2011).with_disturbance(DisturbConfig::new(
        DisturbancePlan::with_intensity(2011, 0.0),
        RecoveryPolicy::Rescue,
    ));
    assert!(
        zero.disturb.is_none(),
        "an empty disturbance plan must be dropped, not carried"
    );
    for workers in [1, 2, Harness::default_workers()] {
        let batched = render(&zero.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "zero-intensity grid diverged from the plain grid at workers={workers}"
        );
    }
}

#[test]
fn poison_cells_are_quarantined_without_disturbing_neighbours() {
    // The reference harness has no poison; the batched harness poisons one
    // cell. Every other cell must still be byte-identical, and the
    // poisoned cell must surface as a crash-family outcome under its
    // canonical key (its crash report embeds wall time, so only the
    // key/label is comparable).
    let clean = Harness::new(2011);
    let reference = reference_cells(&clean, TAKE, REPEATS);
    let needle = format!("{}/n{}/analytic/HCPA", reference[0].dag, reference[0].n);
    let poisoned_h = Harness::new(2011).with_poison(vec![PoisonRule {
        needle: needle.clone(),
        action: PoisonAction::Panic,
    }]);
    for workers in [1, 2] {
        let cells = poisoned_h.run_subset_with_workers(TAKE, REPEATS, workers);
        assert_eq!(cells.len(), reference.len());
        let mut crashed = 0usize;
        for (got, want) in cells.iter().zip(&reference) {
            let key = got.key(REPEATS);
            if key.contains(&needle) {
                crashed += 1;
                assert!(
                    !got.succeeded(),
                    "poisoned cell {key} reported success at workers={workers}"
                );
                assert_eq!(key, want.key(REPEATS));
            } else {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "non-poisoned cell {key} diverged at workers={workers}"
                );
            }
        }
        assert_eq!(crashed, 1, "exactly one cell should match the poison rule");
    }
}
