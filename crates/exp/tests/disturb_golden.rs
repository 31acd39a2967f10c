//! Golden regression: the disturbed grid.
//!
//! Pins the FNV-1a digest of the `Debug` rendering (which round-trips
//! every f64 bit) of the full paper grid at seed 2011, three testbed
//! repeats, one worker, under the `seed=2011;moderate` disturbance plan —
//! for each recovery policy, with and without a stacked [`FaultPlan`].
//!
//! The FailFast and Rescue digests were recorded before the healthy and
//! disturbed executor loops were merged into one, so they prove the merge
//! changed no bit of a disturbed cell. The RetryElsewhere digests were
//! recorded after the fix that keeps running tasks at their hosts' queue
//! heads when a crash rebuilds the queues (before it, a retried task could
//! overlap a running one on its new host).

use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::fnv64;
use mps_core::platform::HostId;
use mps_core::sim::ExecPolicy;
use mps_exp::{grid_health, DisturbConfig, Harness};

/// The same stacked launch-failure / straggler plan the fault-accounting
/// golden pins.
fn fault_plan() -> FaultPlan {
    FaultPlan::builder(3)
        .node_crash(HostId(0), 0.0, 50.0)
        .task_failure(0.02)
        .node_slowdown(HostId(2), 10.0, 1.5)
        .build()
}

fn digest(recovery: RecoveryPolicy, faults: bool) -> String {
    let h = Harness::new(2011);
    let hosts = h.nominal_cluster().node_count();
    let plan = DisturbancePlan::parse("seed=2011;moderate", hosts, DISTURB_HORIZON).unwrap();
    let mut h = h.with_disturbance(DisturbConfig::new(plan, recovery));
    if faults {
        h = h
            .with_fault_plan(fault_plan())
            .with_exec_policy(ExecPolicy {
                max_retries: 4,
                ..ExecPolicy::default()
            });
    }
    let cells = h.run_grid_with_workers(3, 1);
    assert_eq!(cells.len(), 324);
    // No cell may have panicked: the digest must not depend on whether
    // debug assertions are compiled in.
    assert_eq!(grid_health(&cells).quarantined, 0);
    format!("{:016x}", fnv64(format!("{cells:?}").as_bytes()))
}

#[test]
fn rescue_grid_digest_is_pinned() {
    assert_eq!(digest(RecoveryPolicy::Rescue, false), "0c8812216ede0203");
}

#[test]
fn rescue_grid_with_stacked_faults_digest_is_pinned() {
    assert_eq!(digest(RecoveryPolicy::Rescue, true), "26fe525a63f27041");
}

#[test]
fn fail_fast_grid_digest_is_pinned() {
    assert_eq!(digest(RecoveryPolicy::FailFast, false), "918fcc1839db53fa");
}

#[test]
fn fail_fast_grid_with_stacked_faults_digest_is_pinned() {
    assert_eq!(digest(RecoveryPolicy::FailFast, true), "32dc8bef954de49e");
}

#[test]
fn retry_elsewhere_grid_digest_is_pinned() {
    assert_eq!(
        digest(RecoveryPolicy::RetryElsewhere, false),
        "e56d07122c25a461"
    );
}

#[test]
fn retry_elsewhere_grid_with_stacked_faults_digest_is_pinned() {
    assert_eq!(
        digest(RecoveryPolicy::RetryElsewhere, true),
        "6e40b51a6d894f3c"
    );
}
