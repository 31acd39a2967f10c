//! Proves the engine's steady-state hot path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! cycle that sizes every internal buffer (solver workspace, event heaps,
//! scratch vectors), an identical workload of completion steps and
//! timer-only steps must neither allocate nor free: any `alloc`, `realloc`
//! or `dealloc` during `step_into` is a regression.
//!
//! Single test on purpose: the allocation counters are process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mps_des::{ActivitySpec, Completion, Engine};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RESOURCES: usize = 16;
const ACTIVITIES: usize = 32;
const TIMERS: usize = 32;

/// One workload cycle: contended activities with distinct finish times plus
/// interleaved timers. `Engine::start` and `Engine::schedule_timer` may
/// allocate (they grow engine state); the measured region is stepping only.
fn submit_cycle(e: &mut Engine, res: &[mps_des::ResourceId]) {
    for i in 0..ACTIVITIES {
        e.start(
            &ActivitySpec::new(1.0e6 * (i + 1) as f64)
                .on(res[i % RESOURCES], 1.0e4)
                .on(res[(i * 7 + 3) % RESOURCES], 2.0e4),
        )
        .expect("start");
    }
    for i in 0..TIMERS {
        e.schedule_timer(0.3 * (i + 1) as f64).expect("timer");
    }
}

fn drain(e: &mut Engine, completed: &mut Vec<Completion>) -> (usize, usize) {
    let (mut acts, mut timers) = (0, 0);
    while e.step_into(completed).expect("step").is_some() {
        for c in completed.iter() {
            match c {
                Completion::Activity(_) => acts += 1,
                Completion::Timer(_) => timers += 1,
            }
        }
    }
    (acts, timers)
}

#[test]
fn steady_state_stepping_does_not_allocate() {
    let mut e = Engine::new();
    let res: Vec<_> = (0..RESOURCES).map(|_| e.add_resource(125.0e6)).collect();
    let mut completed = Vec::new();

    // Warm-up: a full cycle sizes the workspace, heaps, and scratch
    // buffers at this workload's high-water mark.
    submit_cycle(&mut e, &res);
    let (acts, timers) = drain(&mut e, &mut completed);
    assert_eq!((acts, timers), (ACTIVITIES, TIMERS));
    assert!(e.is_idle());

    // Identical second cycle; submission happens before the measurement
    // snapshot, so only `step_into` runs inside the counted region.
    submit_cycle(&mut e, &res);
    let before = ALLOCS.load(Ordering::Relaxed);
    let frees_before = DEALLOCS.load(Ordering::Relaxed);
    let (acts, timers) = drain(&mut e, &mut completed);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    let frees = DEALLOCS.load(Ordering::Relaxed) - frees_before;

    assert_eq!((acts, timers), (ACTIVITIES, TIMERS));
    assert_eq!(
        delta, 0,
        "warmed step_into allocated {delta} times over a full cycle"
    );
    assert_eq!(
        frees, 0,
        "warmed step_into freed {frees} times over a full cycle"
    );
}
