//! Golden for the four text grammars: fault plans, disturbance plans, the
//! `io:` chaos plan and arrival specs.
//!
//! Every plan string the README, DESIGN, the tests and CI use is parsed
//! here, and `grammar_golden.txt` pins the result, one line per input:
//! `ok` with the `Debug` of the parsed value, or `err` with the message.
//! Accepted lines pin the grammar itself; a rejected line pins only that
//! the input is refused and the words that say why. On a mismatch the
//! test prints the full transcript it computed.

use mps_core::faults::{DisturbancePlan, FaultPlan, IoFaultPlan};
use mps_core::online::ArrivalSpec;

const GOLDEN: &str = include_str!("grammar_golden.txt");

/// Hosts and horizon `repro` parses `--faults` and `--disturb` against.
const HOSTS: usize = 32;
const HORIZON: f64 = 120.0;

#[rustfmt::skip]
const FAULTS: &[&str] = &[
    "", "light", "moderate", "heavy",
    "seed=7;crash@3:10+5;fail=0.05",
    "seed=7; crash@0:0+30; fail=0.01",
    "slow@1:0*1.5; link@2:3+4*2.5; straggle@6*3; moderate",
    "seed=3;io:enospc@0.01,shortwrite@0.05;fail=0.1",
    "seed=7;crash@3:10+5;fail=0.05;io:enospc@0.01,shortwrite@0.05",
    "io:eio@0.02",
    "crash@3", "crash@x:1+2", "fail=1.5", "fail=-1", "slow@1:0", "wibble", "seed=abc",
    "straggle@1*NaN", "io:wibble@0.1", "bogus", "bogus-clause",
];

#[rustfmt::skip]
const DISTURB: &[&str] = &[
    "", "light", "moderate", "heavy",
    "seed=7;crash@4:3;slow@2-10:5:1.5;degrade@0-8:1:2",
    "seed=2011;moderate", "seed=42;heavy", "crash@1:0", "crash@4:3",
    "crash@4:3;slow@2-10:5:1.5",
    "crash@3", "crash@x:1", "slow@1:0", "slow@5-2:0:1.5", "slow@0-5:0:0.5",
    "degrade@0-5:0:NaN", "wibble", "seed=abc",
];

#[rustfmt::skip]
const IO: &[&str] = &[
    "", "light", "moderate", "heavy",
    "enospc@0.01,shortwrite@0.05,latency@5", "enospc@0.01,shortwrite@0.05", "eio@0.02",
    "shortwrite@1.0", "fsync@1.0", "rename@0.5",
    "enospc@1.5", "wibble@0.1", "enospc", "latency@x", "eio@-1",
];

#[rustfmt::skip]
const ARRIVAL: &[&str] = &[
    "0.01", "0.02", "0.04", "0.05", "0.1", "0.16",
    "poisson@0.04", "poisson@0.05", "poisson@0.5", "poisson@2.5", "poisson@50",
    "mmpp@8:0.5:10:40", "mmpp@0:3:1.5:2", "mmpp@20:0.2:5:20", "mmpp@0.3:0.02:10:40",
    "mmpp@1:0.05:10:40", "mmpp@0.02:0.16:50:10",
    "poisson", "poisson@", "poisson@0", "poisson@-1", "poisson@nan", "mmpp@1:2:3",
    "mmpp@0:0:1:1", "mmpp@1:1:0:1", "uniform@3", "uniform@2", "-1", "0", "nan", "bogus",
];

fn line<T: std::fmt::Debug, E: std::fmt::Display>(
    grammar: &str,
    input: &str,
    parsed: Result<T, E>,
) -> String {
    match parsed {
        Ok(v) => format!("{grammar} {input:?} => ok {v:?}"),
        Err(e) => format!("{grammar} {input:?} => err {e}"),
    }
}

fn transcript() -> Vec<String> {
    let mut out = Vec::new();
    for s in FAULTS {
        out.push(line("faults", s, FaultPlan::parse(s, HOSTS, HORIZON)));
    }
    for s in DISTURB {
        out.push(line(
            "disturb",
            s,
            DisturbancePlan::parse(s, HOSTS, HORIZON),
        ));
    }
    for s in IO {
        out.push(line("io", s, IoFaultPlan::parse(s)));
    }
    for s in ARRIVAL {
        out.push(line("arrival", s, ArrivalSpec::parse(s)));
    }
    out
}

#[test]
fn every_documented_plan_parses_as_pinned() {
    let got = transcript();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let diffs: Vec<String> = got
        .iter()
        .zip(want.iter().chain(std::iter::repeat(&"<missing>")))
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    if !diffs.is_empty() || got.len() != want.len() {
        println!("{}", got.join("\n"));
        panic!(
            "{} of {} line(s) differ ({} pinned):\n{}",
            diffs.len(),
            got.len(),
            want.len(),
            diffs.join("\n")
        );
    }
}
