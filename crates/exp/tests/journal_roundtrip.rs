//! Property tests for the journal line codec over arbitrary [`CellResult`]s:
//! encode → decode → deserialize must reproduce the record exactly (floats
//! bit-for-bit), and any single-byte corruption of an encoded line must be
//! caught by the checksum rather than decode to different data.

use mps_core::journal::{decode_line, encode_line};
use mps_exp::{CellOutcome, CellResult, SimVariant};
use proptest::prelude::*;

fn variant_of(ix: usize) -> SimVariant {
    match ix % 3 {
        0 => SimVariant::Analytic,
        1 => SimVariant::Profile,
        _ => SimVariant::Empirical,
    }
}

fn outcome_of(ix: usize, failed_runs: usize, retries: u32) -> CellOutcome {
    match ix % 3 {
        0 => CellOutcome::Full,
        1 => CellOutcome::Degraded {
            failed_runs,
            retries,
        },
        _ => CellOutcome::Failed {
            error: format!("host {failed_runs} crashed at t={retries}"),
        },
    }
}

proptest! {
    /// Arbitrary records survive encode → decode → parse bit-exactly.
    #[test]
    fn cell_results_round_trip_through_the_journal_codec(
        dag in prop::sample::select(vec!["w4-r0.75-n2000-s1", "strassen-n4096", "lu-n1024"]),
        n in 64usize..10_000,
        variant_ix in 0usize..3,
        algo in prop::sample::select(vec!["HCPA", "MCPA"]),
        sim_makespan in 0.0f64..1e6,
        real_makespan in 0.0f64..1e6,
        real_runs in prop::collection::vec(1e-3f64..1e6, 0..6),
        outcome_ix in 0usize..3,
        failed_runs in 0usize..8,
        retries in 0u32..50,
    ) {
        let cell = CellResult {
            dag: dag.to_string(),
            n,
            variant: variant_of(variant_ix),
            algo: algo.to_string(),
            sim_makespan,
            real_makespan,
            real_runs,
            outcome: outcome_of(outcome_ix, failed_runs, retries),
        };
        let key = cell.key(3);
        let payload = serde_json::to_string(&cell).expect("serialize");
        let line = encode_line(&key, &payload).expect("encode");

        let (got_key, got_payload) = decode_line(&line).expect("decode");
        prop_assert_eq!(&got_key, &key);
        prop_assert_eq!(&got_payload, &payload);

        let back: CellResult = serde_json::from_str(&got_payload).expect("parse");
        prop_assert_eq!(&back.dag, &cell.dag);
        prop_assert_eq!(back.n, cell.n);
        prop_assert_eq!(back.variant, cell.variant);
        prop_assert_eq!(&back.algo, &cell.algo);
        // Floats must come back bit-for-bit, not merely approximately:
        // byte-identical resumed grids depend on it.
        prop_assert_eq!(back.sim_makespan.to_bits(), cell.sim_makespan.to_bits());
        prop_assert_eq!(back.real_makespan.to_bits(), cell.real_makespan.to_bits());
        prop_assert_eq!(back.real_runs.len(), cell.real_runs.len());
        for (a, b) in back.real_runs.iter().zip(&cell.real_runs) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(&back.outcome, &cell.outcome);
    }

    /// Flipping any single byte of an encoded line can never decode to a
    /// *different* record: either decoding fails (checksum/layout) or the
    /// flip produced the identical line back.
    #[test]
    fn single_byte_corruption_cannot_silently_alter_a_record(
        sim_makespan in 0.0f64..1e6,
        real_runs in prop::collection::vec(1e-3f64..1e6, 0..4),
        pos_salt in 0usize..1000,
        flip in 1u8..=255,
    ) {
        let cell = CellResult {
            dag: "w4-r0.75-n2000-s1".to_string(),
            n: 2000,
            variant: SimVariant::Analytic,
            algo: "HCPA".to_string(),
            sim_makespan,
            real_makespan: sim_makespan * 1.25,
            real_runs,
            outcome: CellOutcome::Full,
        };
        let payload = serde_json::to_string(&cell).expect("serialize");
        let line = encode_line(&cell.key(3), &payload).expect("encode");

        let mut bytes = line.clone().into_bytes();
        let pos = pos_salt % bytes.len();
        bytes[pos] ^= flip;
        if bytes == line.as_bytes() {
            // XOR with 0 is excluded by the range, so this cannot happen —
            // but keep the guard self-documenting.
            return Ok(());
        }
        // Non-UTF-8 or a failed decode means the corruption was caught;
        // a *successful* decode must have recovered the original payload.
        if let Ok(Ok((_, got_payload))) = String::from_utf8(bytes).map(|s| decode_line(&s)) {
            prop_assert_eq!(&got_payload, &payload);
        }
    }
}

/// Journal lines written when cells could also run in child worker
/// processes, one per crash-family outcome: a panic caught in process, a
/// cell its worker was killed for at a 1 s timeout, and a cell quarantined
/// after its worker died twice. Each still decodes to its `CellResult`, so
/// such journals resume.
#[test]
fn crash_records_from_process_isolation_still_decode() {
    use mps_exp::{Attempt, AttemptOutcome, CrashReport};

    const CRASHED: &str = r#"{"sum":"3405ffdd59d981bb","key":"w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1","rec":{"dag":"w2-r0.5-n2000-s0","n":2000,"variant":"Analytic","algo":"HCPA","sim_makespan":0.0,"real_makespan":0.0,"real_runs":[],"outcome":{"Crashed":{"report":{"attempts":[{"outcome":{"Panicked":{"message":"poison cell w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1: forced panic"}},"wall_ms":12}]}}}}}"#;
    const TIMED_OUT: &str = r#"{"sum":"abd43cc3217ba68a","key":"w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1","rec":{"dag":"w2-r0.5-n2000-s0","n":2000,"variant":"Analytic","algo":"HCPA","sim_makespan":0.0,"real_makespan":0.0,"real_runs":[],"outcome":{"TimedOut":{"report":{"attempts":[{"outcome":{"TimedOut":{"timeout_ms":1000}},"wall_ms":1000}]}}}}}"#;
    const QUARANTINED: &str = r#"{"sum":"0d18e0e1c4bdd524","key":"w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1","rec":{"dag":"w2-r0.5-n2000-s0","n":2000,"variant":"Analytic","algo":"HCPA","sim_makespan":0.0,"real_makespan":0.0,"real_runs":[],"outcome":{"Quarantined":{"report":{"attempts":[{"outcome":{"Crashed":{"exit_code":101,"signal":null,"stderr_tail":"\nthread 'main' (23484) panicked at crates/exp/src/runner.rs:684:44:\npoison cell w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1: forced panic\nnote: run with `RUST_BACKTRACE=1` environment variable to display a backtrace\n"}},"wall_ms":0},{"outcome":{"Crashed":{"exit_code":101,"signal":null,"stderr_tail":"\nthread 'main' (23487) panicked at crates/exp/src/runner.rs:684:44:\npoison cell w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1: forced panic\nnote: run with `RUST_BACKTRACE=1` environment variable to display a backtrace\n"}},"wall_ms":0}]}}}}}"#;

    let lost = |outcome| CellResult {
        dag: "w2-r0.5-n2000-s0".to_string(),
        n: 2000,
        variant: SimVariant::Analytic,
        algo: "HCPA".to_string(),
        sim_makespan: 0.0,
        real_makespan: 0.0,
        real_runs: Vec::new(),
        outcome,
    };
    let key = "w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1";
    let panic = "poison cell w2-r0.5-n2000-s0/n2000/analytic/HCPA/r1: forced panic";
    let died = |pid: u32, wall_ms| Attempt {
        outcome: AttemptOutcome::Crashed {
            exit_code: Some(101),
            signal: None,
            stderr_tail: format!(
                "\nthread 'main' ({pid}) panicked at crates/exp/src/runner.rs:684:44:\n{panic}\n\
                 note: run with `RUST_BACKTRACE=1` environment variable to display a backtrace\n"
            ),
        },
        wall_ms,
    };
    let cases = [
        (
            CRASHED,
            lost(CellOutcome::Crashed {
                report: CrashReport::single(
                    AttemptOutcome::Panicked {
                        message: panic.to_string(),
                    },
                    12,
                ),
            }),
        ),
        (
            TIMED_OUT,
            lost(CellOutcome::TimedOut {
                report: CrashReport::single(AttemptOutcome::TimedOut { timeout_ms: 1000 }, 1000),
            }),
        ),
        (
            QUARANTINED,
            lost(CellOutcome::Quarantined {
                report: CrashReport {
                    attempts: vec![died(23484, 0), died(23487, 0)],
                },
            }),
        ),
    ];
    for (line, want) in cases {
        let (got_key, payload) = decode_line(line).expect("an intact journal line");
        assert_eq!(got_key, key);
        let got: CellResult = serde_json::from_str(&payload).expect("a CellResult");
        assert_eq!(got, want);
        assert!(!got.succeeded());
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            payload,
            "same bytes back"
        );
    }
}
