//! Every cell is bounded in process: a cell that cannot end on its own is
//! stopped at its wall deadline and recorded as `CellOutcome::TimedOut`,
//! in a grid and in every daemon request, and the next cell or request
//! runs.
//!
//! The spin is a real product input, not a test hook: a fault plan that
//! fails every task attempt (`seed=1;fail=1`) under an unbounded retry
//! budget keeps a testbed run retrying forever. The tests shorten the
//! deadline from `CELL_WALL_LIMIT` (120 s) to 2 s through the grid's own
//! watchdog, which a cell obeys when it is earlier than its limit.

use std::time::{Duration, Instant};

use mps_core::des::Watchdog;
use mps_core::faults::{FaultPlan, DISTURB_HORIZON};
use mps_core::journal::RunControl;
use mps_core::platform::ClusterSpec;
use mps_core::serve::{Backend, WorkRequest, WorkSummary};
use mps_core::sim::ExecPolicy;
use mps_exp::{grid_health, CellOutcome, CellResult, GridStatus, Harness, ServeBackend};

/// The deadline the tests give each grid or request.
const DEADLINE: Duration = Duration::from_secs(2);
/// Slack past the deadline: the DES polls the wall clock every 4096
/// steps, and the cells after the first stop within one poll each.
const SLACK: Duration = Duration::from_secs(5);

/// A harness whose every testbed run retries forever, under a grid wall
/// deadline `DEADLINE` from now, and that instant.
fn spinning_harness() -> (Harness, Instant) {
    let hosts = ClusterSpec::bayreuth().nodes;
    let plan = FaultPlan::parse("seed=1;fail=1", hosts, DISTURB_HORIZON).unwrap();
    let harness = Harness::new(7).with_fault_plan(plan);
    let start = Instant::now();
    let policy = ExecPolicy {
        max_retries: u32::MAX,
        watchdog: Some(Watchdog::wall(start + DEADLINE)),
        ..ExecPolicy::default()
    };
    (harness.with_exec_policy(policy), start)
}

/// Asserts that `took` lies in `[DEADLINE, DEADLINE + SLACK]`.
fn assert_bounded(took: Duration, what: &str) {
    assert!(
        (DEADLINE..=DEADLINE + SLACK).contains(&took),
        "{what} returned after {took:?}, want {DEADLINE:?}..={:?}",
        DEADLINE + SLACK
    );
}

fn assert_timed_out(cell: &CellResult) {
    let CellOutcome::TimedOut { report } = &cell.outcome else {
        panic!("want a TimedOut cell, got {cell:?}");
    };
    assert_eq!(report.attempt_count(), 1, "{report:?}");
    assert!(
        report.summary().contains("timed out"),
        "{}",
        report.summary()
    );
    assert!(!cell.succeeded());
}

/// Runs `work` on `backend` and collects the cells it streams.
fn served(backend: &ServeBackend, work: &WorkRequest) -> (WorkSummary, Vec<CellResult>) {
    let mut cells = Vec::new();
    let summary = backend
        .execute(work, &RunControl::unlimited(), &mut |_, payload| {
            cells.push(serde_json::from_str(payload).expect("a cell payload"));
            true
        })
        .expect("the request is served, not failed");
    (summary, cells)
}

#[test]
fn a_spinning_journaled_grid_times_out_every_cell() {
    let dir = std::env::temp_dir().join(format!("mps-cell-deadline-{}-grid", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.jl");
    let (harness, start) = spinning_harness();
    let grid = harness
        .run_subset_journaled(1, &path, 1, 1, false, &RunControl::unlimited())
        .expect("the journal holds");
    assert_bounded(start.elapsed(), "the grid");
    assert_eq!(grid.status, GridStatus::Complete);
    assert_eq!(grid.cells.len(), 6);
    grid.cells.iter().for_each(assert_timed_out);
    assert_eq!(grid_health(&grid.cells).quarantined, 6);
    assert_eq!(grid.quarantined, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_spinning_simulate_request_times_out_and_the_next_is_served() {
    let (harness, start) = spinning_harness();
    let backend = ServeBackend::new(harness);
    let simulate = |algo: &str| WorkRequest::Simulate {
        dag: 0,
        variant: "analytic".to_string(),
        algo: algo.to_string(),
        repeats: 1,
        disturb: None,
    };
    let (summary, cells) = served(&backend, &simulate("HCPA"));
    assert_bounded(start.elapsed(), "the Simulate request");
    assert_eq!((summary.cells, summary.quarantined), (1, 1));
    assert_timed_out(&cells[0]);

    // The deadline has passed, so the next cell stops at its first poll.
    let next = Instant::now();
    let (summary, cells) = served(&backend, &simulate("MCPA"));
    assert!(
        next.elapsed() < SLACK,
        "the next request took {:?}",
        next.elapsed()
    );
    assert_eq!((summary.cells, summary.quarantined), (1, 1));
    assert_timed_out(&cells[0]);
}

#[test]
fn a_spinning_subset_grid_request_times_out_and_the_next_is_served() {
    let state =
        std::env::temp_dir().join(format!("mps-cell-deadline-{}-serve", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let (harness, start) = spinning_harness();
    let backend = ServeBackend::new(harness).with_state_dir(state.clone());
    let work = WorkRequest::SubsetGrid {
        take: 1,
        repeats: 1,
        disturb: None,
    };
    let (summary, cells) = served(&backend, &work);
    assert_bounded(start.elapsed(), "the SubsetGrid request");
    assert_eq!(summary.status, "complete");
    assert_eq!((summary.cells, summary.quarantined), (6, 6));
    cells.iter().for_each(assert_timed_out);

    // The resubmission replays the journaled TimedOut cells.
    let next = Instant::now();
    let (summary, replayed) = served(&backend, &work);
    assert!(
        next.elapsed() < SLACK,
        "the next request took {:?}",
        next.elapsed()
    );
    assert_eq!((summary.resumed, summary.computed), (6, 0));
    assert_eq!(replayed, cells);
    let _ = std::fs::remove_dir_all(&state);
}
