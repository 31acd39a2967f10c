//! Pins the heap allocations of one warm testbed execution.
//!
//! A counting global allocator wraps the system allocator. After a warm-up
//! run sizes the slab (simulator, engine, executor buffers, memoized
//! redistribution plans), the same run again may allocate only its two
//! result vectors (`task_spans`, `task_retries`) plus one weight vector per
//! engine activity. Testbed tasks have fixed durations, so their activities
//! carry no weights; only redistributions that cross the network do — at
//! most one per DAG edge. The disturbed entry point, given an empty plan,
//! is held to the same bound.
//!
//! Single test on purpose: the allocation counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mps_dag::{paper_corpus, PAPER_CORPUS_SEED};
use mps_faults::{DisturbReport, DisturbancePlan, RecoveryPolicy};
use mps_model::AnalyticModel;
use mps_sched::{Hcpa, Mcpa, Scheduler};
use mps_sim::{DisturbSetup, ExecPolicy, ExecSlab};
use mps_testbed::Testbed;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_run_allocates_only_its_results_and_redistribution_weights() {
    let testbed = Testbed::bayreuth(7);
    let cluster = testbed.nominal_cluster();
    let model = AnalyticModel::paper_jvm();
    let mut slab = ExecSlab::new();
    let mut measured = 0;
    // Every ninth DAG of the corpus: all three widths and both kernel
    // mixes, with edges that cross the network and edges that stay local.
    for g in paper_corpus(PAPER_CORPUS_SEED).iter().step_by(9) {
        for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
            let schedule = algo.schedule(&g.dag, &cluster, &model);
            schedule.validate(&g.dag, &cluster).expect("valid schedule");
            let warm = testbed
                .execute_prevalidated_with_slab(&mut slab, &g.dag, &schedule, 3)
                .expect("warm-up run");

            let before = ALLOCS.load(Ordering::Relaxed);
            let run = testbed.execute_prevalidated_with_slab(&mut slab, &g.dag, &schedule, 3);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;

            assert_eq!(
                run.expect("measured run"),
                warm,
                "a warm slab changes nothing"
            );
            let bound = 2 + g.dag.edge_count() as u64;
            assert!(
                allocs <= bound,
                "{} on DAG {}: {allocs} allocations, bound {bound}",
                algo.name(),
                g.seed
            );
            measured += 1;

            let empty = DisturbancePlan::none();
            let policy = ExecPolicy::default();
            let disturbed = |slab: &mut ExecSlab| {
                let mut report = DisturbReport::default();
                let setup = DisturbSetup {
                    plan: &empty,
                    recovery: RecoveryPolicy::Rescue,
                    rescue_overhead: 0.0,
                    replan: None,
                };
                testbed.execute_disturbed_prevalidated_with_slab(
                    slab,
                    &g.dag,
                    &schedule,
                    3,
                    None,
                    &policy,
                    setup,
                    &mut report,
                )
            };
            disturbed(&mut slab).expect("disturbed warm-up run");
            let before = ALLOCS.load(Ordering::Relaxed);
            let run = disturbed(&mut slab);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert_eq!(
                run.expect("measured disturbed run"),
                warm,
                "an empty plan changes nothing"
            );
            assert!(
                allocs <= bound,
                "{} on DAG {} (disturbed entry, empty plan): {allocs} allocations, bound {bound}",
                algo.name(),
                g.seed
            );
            measured += 1;
        }
    }
    assert_eq!(measured, 24);
}
