//! Campaign crash-recovery: a fault-sweep campaign SIGKILLed mid-flight
//! must resume by re-invocation to a cell set byte-identical to an
//! uninterrupted campaign, resuming a complete campaign must be a pure
//! no-op (every cell loaded, none recomputed), and the `campaign.json`
//! a killed campaign leaves behind must not claim completion.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mps_core::journal::RunControl;
use mps_exp::campaign::{point_fault_plan, point_journal, read_campaign_manifest};
use mps_exp::{CampaignOpts, Harness};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Tiny campaign: 3 sweep points over a 2-DAG subset (12 cells each).
const SEED: u64 = 7;
const POINTS: usize = 3;
const SUBSET: usize = 2;
const REPEATS: u64 = 1;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mps-campaign-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn campaign_args(dir: &Path) -> Vec<String> {
    [
        "--seed",
        &SEED.to_string(),
        "--repeats",
        &REPEATS.to_string(),
        "--subset",
        &SUBSET.to_string(),
        "--points",
        &POINTS.to_string(),
        "--campaign-dir",
        dir.to_str().unwrap(),
        "campaign",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Loads the durable cells of one sweep point back out of its journal
/// (a resume under the point's fault plan that recomputes nothing) and
/// returns their canonical `Debug` rendering — f64 `Debug` round-trips,
/// so equal strings mean bit-equal cells.
fn point_cells(dir: &Path, point: usize) -> String {
    let mut h = Harness::new(SEED);
    let hosts = h.nominal_cluster().node_count();
    h.fault_plan = Some(point_fault_plan(SEED, point, POINTS, hosts));
    let path = point_journal(dir, point);
    let grid = h
        .run_subset_journaled(SUBSET, &path, REPEATS, 1, true, &RunControl::unlimited())
        .unwrap_or_else(|e| panic!("load {}: {e}", path.display()));
    assert_eq!(
        grid.computed, 0,
        "loading a complete point journal must not recompute cells"
    );
    format!("{:?}", grid.cells)
}

#[test]
fn campaign_killed_mid_flight_resumes_byte_identical_to_clean_run() {
    let clean_dir = scratch_dir("clean");
    let victim_dir = scratch_dir("kill9");

    // Reference: one uninterrupted campaign.
    let clean = Command::new(REPRO)
        .args(campaign_args(&clean_dir))
        .output()
        .expect("spawn clean campaign");
    assert!(clean.status.success(), "clean campaign failed: {clean:?}");

    // Victim: throttled so the kill lands mid-campaign, then SIGKILLed —
    // no drain, no manifest update, a possibly torn journal tail.
    let mut args = campaign_args(&victim_dir);
    args.splice(
        args.len() - 1..args.len() - 1,
        ["--throttle-ms".to_string(), "150".to_string()],
    );
    let mut child = Command::new(REPRO)
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let first = point_journal(&victim_dir, 0);
    let start = Instant::now();
    loop {
        let lines = std::fs::read(&first)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0);
        if lines >= 4 || start.elapsed() > Duration::from_secs(60) {
            assert!(lines >= 4, "victim never journaled enough cells");
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // `Child::kill` is SIGKILL on Unix: the hardest crash.
    child.kill().expect("kill victim");
    let _ = child.wait();

    // Resume = re-invocation with the same arguments (no throttle).
    let resumed = Command::new(REPRO)
        .args(campaign_args(&victim_dir))
        .output()
        .expect("spawn resumed campaign");
    assert!(
        resumed.status.success(),
        "resumed campaign failed: {resumed:?}"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed"),
        "resume should report resumed cells: {stderr}"
    );

    // Every point of the killed-and-resumed campaign is byte-identical
    // to the uninterrupted one.
    for point in 0..POINTS {
        assert_eq!(
            point_cells(&victim_dir, point),
            point_cells(&clean_dir, point),
            "point {point} diverged after SIGKILL + resume"
        );
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&victim_dir);
}

#[test]
fn resuming_a_complete_campaign_is_a_noop() {
    let dir = scratch_dir("noop");
    let opts = CampaignOpts {
        dir: dir.clone(),
        points: POINTS,
        repeats: REPEATS,
        workers: 1,
        subset: Some(SUBSET),
    };
    let h = Harness::new(SEED);
    let first = h
        .run_campaign(&opts, &RunControl::unlimited(), |_, _| {})
        .expect("first campaign run");
    let cells = (POINTS * SUBSET * 6) as u64;
    assert_eq!(first.manifest.points_done, POINTS as u64);
    assert_eq!(first.manifest.computed, cells);
    assert_eq!(first.manifest.resumed, 0);

    let again = h
        .run_campaign(&opts, &RunControl::unlimited(), |_, _| {})
        .expect("second campaign run");
    assert_eq!(again.manifest.points_done, POINTS as u64);
    assert_eq!(
        again.manifest.computed, 0,
        "complete points must not recompute"
    );
    assert_eq!(again.manifest.resumed, cells);
    // The harness's own fault plan is restored after the sweep.
    assert!(h.fault_plan.is_none());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_json_says_running_until_the_campaign_ends() {
    let dir = scratch_dir("in-flight");
    let opts = CampaignOpts {
        dir: dir.clone(),
        points: POINTS,
        repeats: REPEATS,
        workers: 1,
        subset: Some(SUBSET),
    };
    // Point 1's progress callback runs after point 0 was published and
    // before point 1 is: the manifest a kill here would leave behind.
    let mut in_flight = None;
    let report = Harness::new(SEED)
        .run_campaign(&opts, &RunControl::unlimited(), |p, _| {
            if p.point == 1 {
                in_flight = read_campaign_manifest(&dir).expect("readable manifest");
            }
        })
        .expect("campaign run");
    let in_flight = in_flight.expect("point 0 published campaign.json");
    assert_eq!(in_flight.status, "running");
    assert_eq!(in_flight.points_done, 1);
    assert_eq!(in_flight.points_total, POINTS as u64);

    // The final publish says how the invocation ended, and the report
    // holds exactly what was published.
    assert_eq!(report.manifest.status, "complete");
    assert_eq!(
        read_campaign_manifest(&dir).unwrap(),
        Some(report.manifest),
        "the report is the published manifest"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
