//! Golden for the two verdict-stability sweeps.
//!
//! `sweep_golden.txt` pins, byte for byte, the `faultsweep` report over
//! fault intensities `[0, 0.5, 1]` with plan seed 11 on a 2-DAG subset
//! and 2 workers, followed by the `serde_json` of the `disturb` sweep at
//! seed 42 on the same subset (default intensities, Rescue recovery, 2
//! workers). Both
//! reports carry verdict-stability figures, so the file also pins how each
//! sweep counts an HCPA-vs-MCPA pair as stable. On a mismatch the test
//! prints the full transcript it computed.

use mps_core::faults::RecoveryPolicy;
use mps_exp::{figures, run_disturb_sweep, DisturbSweepOpts, Harness};

const GOLDEN: &str = include_str!("sweep_golden.txt");

fn transcript() -> String {
    let h = Harness::new(42);
    let faults = figures::fault_sweep(&h, &[0.0, 0.5, 1.0], &[11], 2, 1, 2);
    let opts = DisturbSweepOpts {
        subset: 2,
        repeats: 1,
        recovery: RecoveryPolicy::Rescue,
        workers: 2,
        ..DisturbSweepOpts::default()
    };
    let disturb = run_disturb_sweep(&h, 42, &opts, |_| {});
    let json = serde_json::to_string(&disturb).expect("the report serializes");
    format!("{faults}{json}\n")
}

#[test]
fn both_sweeps_report_as_pinned() {
    let got = transcript();
    if got != GOLDEN {
        println!("{got}");
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(g, w)| g != w)
            .map_or("a trailing line".to_string(), |i| format!("line {}", i + 1));
        panic!("sweep transcript differs from sweep_golden.txt at {line}");
    }
}
