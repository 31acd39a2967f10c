//! The pinned outputs, checked against one table: `tests/pins.tsv` at
//! the repository root. Every digest row there has exactly one check
//! here, and every check has a row, so a re-pin is one edit of the table
//! (DESIGN.md, "Pinned outputs"). perfbench pins the grid and online
//! digests a second time as `PINNED_2011`; this target reads those two
//! literals as text and fails if they differ from the table.
//!
//! The disturbed-grid FailFast and Rescue digests were recorded before
//! the healthy and disturbed executor loops were merged into one, so they
//! prove the merge changed no bit of a disturbed cell. The RetryElsewhere
//! digests were recorded after the fix that keeps running tasks at their
//! hosts' queue heads when a crash rebuilds the queues.

use mps_core::dag::Dag;
use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::{fnv64, RunControl};
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine};
use mps_core::platform::HostId;
use mps_core::prelude::{paper_corpus, PAPER_CORPUS_SEED};
use mps_core::sched::{Hcpa, Mcpa, Scheduler};
use mps_core::serve::{send_msg, Backend, ClientFrame, ServerFrame, WorkRequest};
use mps_core::sim::ExecPolicy;
use mps_exp::{grid_health, DisturbConfig, Harness, ServeBackend, SimVariant};

const TABLE: &str = include_str!("../../../tests/pins.tsv");

/// One `digest` row of the table.
struct Pin {
    name: &'static str,
    seed: u64,
    digest: u64,
}

/// Every `digest` row, in table order. Panics on a malformed row of
/// either kind.
fn digest_rows() -> Vec<Pin> {
    let mut pins = Vec::new();
    for line in TABLE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&'static str> = line.split('\t').collect();
        assert_eq!(
            fields.len(),
            5,
            "pins.tsv: want 5 tab-separated fields in {line:?}"
        );
        match fields[0] {
            "digest" => {
                let hex = fields[3];
                assert!(
                    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()),
                    "pins.tsv row {:?}: digest {hex:?} is not 16 hex digits",
                    fields[1]
                );
                pins.push(Pin {
                    name: fields[1],
                    seed: fields[2].parse().expect("pins.tsv: digest seed"),
                    digest: u64::from_str_radix(hex, 16).unwrap(),
                });
            }
            "suite" => {
                fields[3]
                    .parse::<u32>()
                    .expect("pins.tsv: suite test count");
            }
            other => panic!("pins.tsv: unknown row kind {other:?} in {line:?}"),
        }
    }
    pins
}

fn pin(name: &str) -> Pin {
    digest_rows()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("pins.tsv has no digest row {name:?}"))
}

/// Computes the digests of `rows`, in order, from their shared seed and
/// names every row whose digest differs from the table.
fn verify(rows: &[&str], check: impl FnOnce(u64) -> Vec<u64>) {
    let pins: Vec<Pin> = rows.iter().map(|r| pin(r)).collect();
    let seed = pins[0].seed;
    assert!(
        pins.iter().all(|p| p.seed == seed),
        "pins.tsv rows {rows:?} are computed together and must share a seed"
    );
    let got = check(seed);
    assert_eq!(got.len(), pins.len());
    let bad: Vec<String> = pins
        .iter()
        .zip(got)
        .filter(|(p, got)| p.digest != *got)
        .map(|(p, got)| {
            format!(
                "pins.tsv row {:?} (seed {}): pinned {:016x}, computed {got:016x}",
                p.name, p.seed, p.digest
            )
        })
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// One test per check: `test: [rows] => check`, where `check` maps the
/// rows' seed to their digests in row order. `CHECKED` lists every row
/// a check covers.
macro_rules! pinned {
    ($($test:ident: [$($row:literal),+] => $check:expr;)+) => {
        const CHECKED: &[&str] = &[$($($row),+),+];
        $(
            #[test]
            fn $test() {
                verify(&[$($row),+], $check);
            }
        )+
    };
}

pinned! {
    paper_grid_digest_is_pinned: ["grid"] => |seed| vec![grid_digest(seed)];
    online_trace_digest_is_pinned: ["online"] => |seed| vec![online_digest(seed)];
    rescue_grid_digest_is_pinned: ["disturb_rescue"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::Rescue, false)];
    rescue_grid_with_stacked_faults_digest_is_pinned: ["disturb_rescue_faults"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::Rescue, true)];
    fail_fast_grid_digest_is_pinned: ["disturb_fail_fast"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::FailFast, false)];
    fail_fast_grid_with_stacked_faults_digest_is_pinned: ["disturb_fail_fast_faults"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::FailFast, true)];
    retry_elsewhere_grid_digest_is_pinned: ["disturb_retry_elsewhere"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::RetryElsewhere, false)];
    retry_elsewhere_grid_with_stacked_faults_digest_is_pinned: ["disturb_retry_elsewhere_faults"] =>
        |seed| vec![disturbed_digest(seed, RecoveryPolicy::RetryElsewhere, true)];
    schedule_traffic_matches_the_golden_digests: ["serve_payloads", "serve_wire"] =>
        schedule_traffic_digests;
}

#[test]
fn every_digest_row_has_one_check_and_every_check_a_row() {
    let rows: Vec<&str> = digest_rows().iter().map(|p| p.name).collect();
    let mut problems = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if rows[..i].contains(row) {
            problems.push(format!("row {row:?} appears twice"));
        }
        if !CHECKED.contains(row) {
            problems.push(format!("row {row:?} has no check"));
        }
    }
    for (i, checked) in CHECKED.iter().enumerate() {
        if CHECKED[..i].contains(checked) {
            problems.push(format!("two checks compute {checked:?}"));
        }
        if !rows.contains(checked) {
            problems.push(format!("check {checked:?} has no row"));
        }
    }
    assert!(problems.is_empty(), "pins.tsv: {}", problems.join("; "));
}

#[test]
fn perfbench_pins_match_the_table() {
    let sources = [
        (
            "grid",
            include_str!("../../../perfbench/src/workloads/grid.rs"),
        ),
        (
            "online",
            include_str!("../../../perfbench/src/workloads/online.rs"),
        ),
    ];
    for (row, source) in sources {
        let pin = pin(row);
        assert_eq!(
            pin.seed, 2011,
            "pins.tsv row {row:?}: perfbench pins seed 2011"
        );
        let literal = source
            .lines()
            .find_map(|l| l.trim().strip_prefix("const PINNED_2011: u64 = 0x"))
            .and_then(|l| l.strip_suffix(';'))
            .unwrap_or_else(|| panic!("perfbench/src/workloads/{row}.rs: no PINNED_2011"));
        let value = u64::from_str_radix(&literal.replace('_', ""), 16).unwrap();
        assert_eq!(
            format!("{value:016x}"),
            format!("{:016x}", pin.digest),
            "perfbench/src/workloads/{row}.rs PINNED_2011 differs from pins.tsv row {row:?}"
        );
    }
}

/// The paper grid at three testbed repeats on one worker, hashed like
/// perfbench's `grid_hash`: FNV-64 over the cells' `Debug` rendering,
/// which round-trips every f64 bit.
fn grid_digest(seed: u64) -> u64 {
    let cells = Harness::new(seed).run_grid_with_workers(3, 1);
    fnv64(format!("{cells:?}").as_bytes())
}

/// The trace digest of one run of the streaming engine, configured as
/// perfbench's `online` workload configures it.
fn online_digest(seed: u64) -> u64 {
    let corpus: Vec<Dag> = paper_corpus(PAPER_CORPUS_SEED)
        .into_iter()
        .map(|g| g.dag)
        .collect();
    let mut engine = OnlineEngine::new(&corpus).expect("online engine");
    let mut cfg = OnlineConfig::new(ArrivalSpec::Poisson { rate: 0.04 }, OnlineAlgo::Hcpa);
    cfg.seed = seed;
    cfg.horizon_events = 1_000_000;
    cfg.max_width = 8;
    engine.run(&cfg).expect("online run").run.trace_digest
}

/// The paper grid at three repeats on one worker under the
/// `seed=<seed>;moderate` disturbance plan and `recovery`, with or
/// without the stacked launch-failure / straggler plan that
/// `fault_accounting_golden.rs` pins.
fn disturbed_digest(seed: u64, recovery: RecoveryPolicy, faults: bool) -> u64 {
    let h = Harness::new(seed);
    let hosts = h.nominal_cluster().node_count();
    let spec = format!("seed={seed};moderate");
    let plan = DisturbancePlan::parse(&spec, hosts, DISTURB_HORIZON).unwrap();
    let mut h = h.with_disturbance(DisturbConfig::new(plan, recovery));
    if faults {
        let faults = FaultPlan::builder(3)
            .node_crash(HostId(0), 0.0, 50.0)
            .task_failure(0.02)
            .node_slowdown(HostId(2), 10.0, 1.5)
            .build();
        h = h.with_fault_plan(faults).with_exec_policy(ExecPolicy {
            max_retries: 4,
            ..ExecPolicy::default()
        });
    }
    let cells = h.run_grid_with_workers(3, 1);
    assert_eq!(cells.len(), 324);
    // No cell may have panicked: the digest must not depend on whether
    // debug assertions are compiled in.
    assert_eq!(grid_health(&cells).quarantined, 0);
    fnv64(format!("{cells:?}").as_bytes())
}

/// The daemon's `Schedule` traffic: for each of the 324 (dag, variant,
/// algorithm) requests, the `Submit` frame and the `Accepted`, `Cell` and
/// `Done` replies as `send_msg` encodes them. One digest covers the
/// schedule payloads alone and one every frame's bytes, so a change to
/// the schedule JSON and a change to the framing fail separately.
fn schedule_traffic_digests(seed: u64) -> Vec<u64> {
    let h = Harness::new(seed);
    let dags = h.corpus().len();
    let backend = ServeBackend::new(h);
    let (mut payloads, mut wire) = (Vec::new(), Vec::new());
    let mut requests = 0u64;
    for dag in 0..dags {
        for variant in SimVariant::ALL {
            for algo in [Hcpa.name(), Mcpa.name()] {
                let id = requests;
                requests += 1;
                let work = WorkRequest::Schedule {
                    dag,
                    variant: variant.name().to_string(),
                    algo: algo.to_string(),
                };
                let mut cell = None;
                let summary = backend
                    .execute(&work, &RunControl::unlimited(), &mut |k, p| {
                        cell = Some((k.to_string(), p.to_string()));
                        true
                    })
                    .unwrap();
                let (key, payload) = cell.expect("one cell per Schedule request");
                payloads.extend_from_slice(payload.as_bytes());
                let submit = ClientFrame::Submit {
                    id,
                    work,
                    deadline_ms: None,
                };
                send_msg(&mut wire, &submit).unwrap();
                for reply in [
                    ServerFrame::Accepted { id },
                    ServerFrame::Cell { id, key, payload },
                    ServerFrame::Done { id, summary },
                ] {
                    send_msg(&mut wire, &reply).unwrap();
                }
            }
        }
    }
    assert_eq!(requests, 324);
    vec![fnv64(&payloads), fnv64(&wire)]
}
