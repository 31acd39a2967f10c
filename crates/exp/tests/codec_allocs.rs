//! Counts the allocations of the JSON codec on the daemon's hot path.
//!
//! - `serde_json::to_string` of a `Schedule` allocates only to grow its
//!   output buffer, so the count follows the logarithm of the output
//!   length, not the number of keys written.
//! - `decode_envelope` of a `Cell` frame allocates the unescaped body and
//!   the owned `key` and `payload` strings, and nothing else.
//!
//! Single test on purpose: the allocation counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mps_core::dag::TaskId;
use mps_core::platform::HostId;
use mps_core::sched::{Schedule, ScheduledTask};
use mps_core::serve::{decode_envelope, send_msg, ServerFrame};

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

/// Allocations made while running `f`, and its result.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    (ALLOCS.load(Ordering::SeqCst) - before, r)
}

/// A schedule shaped like an HCPA one: `tasks` tasks on 1 to 8 hosts of
/// a 32-host cluster, with fractional time estimates.
fn schedule(tasks: usize) -> Schedule {
    Schedule {
        algorithm: "HCPA".to_string(),
        tasks: (0..tasks)
            .map(|t| ScheduledTask {
                task: TaskId(t),
                hosts: (0..1 + t % 8).map(|h| HostId((t * 7 + h) % 32)).collect(),
                est_start: t as f64 * 1.25,
                est_finish: t as f64 * 1.25 + 1.0 / 3.0,
            })
            .collect(),
        est_makespan: tasks as f64 * 1.25 + 1.0 / 3.0,
    }
}

#[test]
fn the_codec_allocates_only_its_buffers() {
    for tasks in [10, 100, 1000] {
        let s = schedule(tasks);
        let (allocs, json) = allocs_during(|| serde_json::to_string(&s).unwrap());
        let keys = json.matches("\":").count() as u64;
        // A buffer that doubles from empty to `len` bytes grows at most
        // once per bit of `len`.
        let growths = u64::from(usize::BITS - json.len().leading_zeros());
        assert!(
            allocs <= growths,
            "{tasks} tasks: {allocs} allocations for {} bytes and {keys} keys",
            json.len()
        );
        assert!(keys > 3 * tasks as u64);
    }

    let cell = ServerFrame::Cell {
        id: 3,
        key: "dag-7/analytic/HCPA".to_string(),
        payload: serde_json::to_string(&schedule(50)).unwrap(),
    };
    let mut frame = Vec::new();
    send_msg(&mut frame, &cell).unwrap();
    let envelope = &frame[4..];
    let (allocs, decoded) = allocs_during(|| decode_envelope::<ServerFrame>(envelope).unwrap());
    assert_eq!(decoded, cell);
    assert_eq!(allocs, 3, "the unescaped body, `key` and `payload`");
}
