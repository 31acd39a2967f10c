//! The `repro` command-line contract: every invocation in the rule tables
//! breaks exactly one rule, so it must exit 2 with a pinned first stderr
//! line and before the harness profiles the testbed (no `# building
//! harness` line). Covers each flag-scope rule, each cross-flag rule,
//! each value or range error and each plan grammar. A well-formed run
//! that fails at run time exits 1 instead, without the usage line.

use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Runs `repro` with `args` (space-separated) and returns a description of
/// every way the run differs from "exit 2, first stderr line `want`, no
/// harness built"; empty when it matches.
fn violations(args: &str, want: &str) -> Vec<String> {
    let out = Command::new(REPRO)
        .args(args.split_whitespace())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or("");
    let want = format!("repro: {want}");
    let mut bad = Vec::new();
    if out.status.code() != Some(2) {
        bad.push(format!("`{args}`: exit {:?}, want 2", out.status.code()));
    }
    if first != want {
        bad.push(format!(
            "`{args}`: first stderr line {first:?}, want {want:?}"
        ));
    }
    if stderr.contains("# building harness") {
        bad.push(format!("`{args}`: built the harness before rejecting"));
    }
    bad
}

fn check(cases: &[(&str, &str)]) {
    let bad: Vec<String> = cases
        .iter()
        .flat_map(|(args, want)| violations(args, want))
        .collect();
    assert!(
        bad.is_empty(),
        "{} mismatch(es):\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// A flag given with a target that does not accept it.
#[rustfmt::skip]
const SCOPE_RULES: &[(&str, &str)] = &[
    // The online target builds no testbed harness.
    ("online --faults light", "--faults cannot be used with the online target"),
    ("online --disturb light", "--disturb cannot be used with the online target"),
    ("online --recovery rescue", "--recovery cannot be used with the online target"),
    ("online --journal j.jl", "--journal cannot be used with the online target"),
    ("online --resume", "--resume cannot be used with the online target"),
    ("online --subset 2", "--subset cannot be used with the online target"),
    ("online --isolation process", "--isolation process cannot be used with the online target"),
    ("online --max-wall-secs 5", "--max-wall-secs cannot be used with the online target"),
    ("online --throttle-ms 5", "--throttle-ms cannot be used with the online target"),
    ("--arrival-rate 0.1 fig8", "--arrival-rate requires the online target"),
    ("--max-width 4 fig8", "--max-width requires the online target"),
    ("--batch 4 fig8", "--batch requires the online target"),
    ("--trace-out t.txt fig8", "--trace-out requires the online target"),
    ("--horizon-events 10 fig8", "--horizon-events requires the online target or a client --online request"),
    ("--admission 4 fig8", "--admission requires the online target or a client --online request"),
    // Campaign points own their plans and journals.
    ("campaign --campaign-dir d --faults light", "--faults cannot be used with the campaign target"),
    ("campaign --campaign-dir d --journal j.jl", "--journal cannot be used with the campaign target"),
    ("campaign --campaign-dir d --resume", "--resume cannot be used with the campaign target"),
    ("campaign --campaign-dir d --json out", "--json cannot be used with the campaign target"),
    ("campaign --campaign-dir d --isolation process", "--isolation process cannot be used with the campaign target"),
    ("--campaign-dir d fig8", "--campaign-dir requires the campaign target"),
    ("--points 3 fig8", "--points requires the campaign target"),
    // Daemon flags.
    ("--socket s fig8", "--socket requires the serve or client target"),
    ("--state d fig8", "--state requires the serve or client target"),
    ("--queue-cap 4 fig8", "--queue-cap requires the serve or client target"),
    ("--serve-workers 2 fig8", "--serve-workers requires the serve or client target"),
    ("--stdio fig8", "--stdio requires the serve or client target"),
    ("--schedule 0:analytic:HCPA fig8", "--schedule requires the serve or client target"),
    ("--simulate 0:analytic:HCPA fig8", "--simulate requires the serve or client target"),
    ("--subset-grid 1 fig8", "--subset-grid requires the serve or client target"),
    ("--online HCPA:0.05 fig8", "--online requires the serve or client target"),
    ("--health fig8", "--health requires the serve or client target"),
    ("--drain fig8", "--drain requires the serve or client target"),
    ("--deadline-ms 5 fig8", "--deadline-ms requires the serve or client target"),
];

/// A flag without the flag or target it needs, or targets that must run
/// alone.
#[rustfmt::skip]
const CROSS_FLAG_RULES: &[(&str, &str)] = &[
    ("--resume fig8", "--resume requires --journal PATH"),
    ("--max-wall-secs 5 fig8", "--max-wall-secs requires --journal PATH"),
    ("--throttle-ms 5 fig8", "--throttle-ms requires --journal PATH"),
    ("--isolation process fig8", "--isolation process requires --journal PATH"),
    ("--cell-timeout-secs 5 fig8", "--cell-timeout-secs requires --isolation process"),
    ("--max-cell-attempts 2 fig8", "--max-cell-attempts requires --isolation process"),
    ("--stderr-tail-bytes 64 fig8", "--stderr-tail-bytes requires --isolation process"),
    ("--spawn-timeout-secs 5 fig8", "--spawn-timeout-secs requires --isolation process"),
    ("--journal j.jl --cell-timeout-secs 5 grid", "--cell-timeout-secs requires --isolation process"),
    ("--recovery rescue fig8", "--recovery requires --disturb or the disturb target"),
    ("disturb --disturb light", "--disturb cannot be used with the disturb target (it sweeps its own seeded plans)"),
    ("serve", "serve needs --socket PATH (or --stdio)"),
    ("serve --socket s --isolation process", "serve --isolation process requires --state DIR (the supervisor owns journals)"),
    ("serve --socket s --resume", "--resume is implicit for serve (journals under --state resume themselves)"),
    ("client", "client needs --socket PATH"),
    ("client --socket s --horizon-events 10", "--horizon-events requires the online target or a client --online request"),
    ("client --socket s --admission 4", "--admission requires the online target or a client --online request"),
    ("campaign", "campaign needs --campaign-dir DIR"),
    ("online fig8", "online cannot be combined with other targets"),
    ("campaign fig8 --campaign-dir d", "campaign cannot be combined with other targets"),
    ("serve fig8 --socket s", "serve/client cannot be combined with other targets"),
    ("client fig8 --socket s", "serve/client cannot be combined with other targets"),
    ("serve client --socket s", "serve and client are mutually exclusive targets"),
];

/// A missing, malformed or out-of-range value.
#[rustfmt::skip]
const VALUE_ERRORS: &[(&str, &str)] = &[
    ("--seed x", "--seed needs an integer"),
    ("--seed -1", "--seed needs an integer"),
    ("--seed", "--seed needs an integer"),
    ("--json", "--json needs a directory"),
    ("--faults", "--faults needs a plan description"),
    ("--disturb", "--disturb needs a plan description"),
    ("--recovery", "--recovery needs a mode (failfast|retry|rescue)"),
    ("--disturb light --recovery bogus fig8", "--recovery needs failfast, retry, or rescue"),
    ("--max-retries x", "--max-retries needs an integer"),
    ("--max-retries 4294967296", "--max-retries needs an integer"),
    ("--journal", "--journal needs a path"),
    ("--max-wall-secs x", "--max-wall-secs needs an integer"),
    ("--subset x", "--subset needs an integer"),
    ("--workers x", "--workers needs an integer"),
    ("--throttle-ms x", "--throttle-ms needs an integer"),
    ("--isolation", "--isolation needs a mode (inproc|process)"),
    ("--isolation thread", "--isolation \"thread\" is not inproc|process"),
    ("--cell-timeout-secs 0", "--cell-timeout-secs needs an integer >= 1"),
    ("--max-cell-attempts 0", "--max-cell-attempts needs an integer >= 1"),
    ("--max-cell-attempts 4294967296", "--max-cell-attempts needs an integer >= 1"),
    ("--poison", "--poison needs a spec (needle=panic|hang,...)"),
    ("--stderr-tail-bytes 1048577", "--stderr-tail-bytes needs an integer in 0..=1048576"),
    ("--spawn-timeout-secs 0", "--spawn-timeout-secs needs an integer in 1..=600"),
    ("--spawn-timeout-secs 601", "--spawn-timeout-secs needs an integer in 1..=600"),
    ("--socket", "--socket needs a path"),
    ("--state", "--state needs a directory"),
    ("--queue-cap 0", "--queue-cap needs an integer in 1..=4096"),
    ("--queue-cap 4097", "--queue-cap needs an integer in 1..=4096"),
    ("--serve-workers 0", "--serve-workers needs an integer in 1..=64"),
    ("--serve-workers 65", "--serve-workers needs an integer in 1..=64"),
    ("--schedule", "--schedule needs DAG:VARIANT:ALGO"),
    ("--simulate", "--simulate needs DAG:VARIANT:ALGO"),
    ("--subset-grid 0", "--subset-grid needs an integer >= 1"),
    ("--online", "--online needs ALGO:ARRIVAL"),
    ("--deadline-ms x", "--deadline-ms needs an integer"),
    ("--campaign-dir", "--campaign-dir needs a directory"),
    ("--points 0", "--points needs an integer >= 1"),
    ("--arrival-rate", "--arrival-rate needs a comma-separated list"),
    ("--horizon-events 0", "--horizon-events needs an integer >= 1"),
    ("--admission x", "--admission needs an integer (0 sheds everything)"),
    ("--max-width 0", "--max-width needs an integer >= 1"),
    ("--batch 0", "--batch needs an integer >= 1"),
    ("--trace-out", "--trace-out needs a path"),
    // Plans are parsed with the flags, before any banner.
    ("--faults bogus table1", "bad --faults plan: clause `bogus`: unknown clause"),
    ("--disturb crash@x:1 fig8", "bad --disturb plan: clause `crash@x:1`: time `x` is not a non-negative number"),
    ("--poison x=boom fig8", "bad --poison spec: clause `x=boom`: unknown action `boom` (panic|hang)"),
    ("online --arrival-rate bogus", "bad --arrival-rate entry: clause `bogus`: expected `poisson@R`, `mmpp@R0:R1:S0:S1` or a rate"),
    ("online --arrival-rate ,", "--arrival-rate needs a comma-separated list"),
    // Client request specs are parsed with the flags, before connecting.
    ("client --socket s --schedule 0:analytic", "bad --schedule spec \"0:analytic\": want DAG:VARIANT:ALGO"),
    ("client --socket s --simulate x:analytic:HCPA", "bad --simulate spec \"x:analytic:HCPA\": bad DAG index \"x\""),
    ("client --socket s --schedule 0:bogus:HCPA", "bad --schedule spec \"0:bogus:HCPA\": unknown variant \"bogus\" (analytic|profile|empirical)"),
    ("client --socket s --simulate 0:analytic:XYZ", "bad --simulate spec \"0:analytic:XYZ\": unknown algorithm \"XYZ\" (HCPA|MCPA)"),
    ("client --socket s --online HCPA", "bad --online spec \"HCPA\": want ALGO:ARRIVAL, e.g. HCPA:0.05"),
    ("client --socket s --online XYZ:0.05", "bad --online spec \"XYZ:0.05\": online config error: unknown algorithm \"XYZ\" (want CPA, HCPA, or MCPA)"),
    ("client --socket s --online HCPA:bogus", "bad --online spec \"HCPA:bogus\": clause `bogus`: expected `poisson@R`, `mmpp@R0:R1:S0:S1` or a rate"),
];

#[test]
fn flags_outside_their_targets_are_rejected() {
    check(SCOPE_RULES);
}

#[test]
fn cross_flag_rules_are_enforced() {
    check(CROSS_FLAG_RULES);
}

#[test]
fn bad_values_are_rejected() {
    check(VALUE_ERRORS);
}

/// `--repeats 0` used to run one testbed run per cell but label the cell
/// `r0` in the journal, so a later `--repeats 1 --resume` recomputed it.
#[test]
fn repeats_must_be_at_least_one() {
    check(&[
        ("--repeats 0 table1", "--repeats needs an integer >= 1"),
        ("--repeats x", "--repeats needs an integer >= 1"),
    ]);
}

/// A misspelt flag or target is rejected before any work runs, not after
/// the whole grid has been computed.
#[test]
fn unknown_flags_and_targets_are_rejected_before_any_work() {
    check(&[
        (
            "--seed 7 --repeats 1 --subset 1 grid --jsno out",
            "unknown flag `--jsno`",
        ),
        ("--seed 7 fig9", "unknown target `fig9`"),
        // The chaos soak is a test target, not a product one.
        ("chaos", "unknown target `chaos`"),
    ]);
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    let out = Command::new(REPRO)
        .arg("--help")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: repro"), "{stdout}");
}

/// Runs `repro` with `args` (space-separated) in a scratch directory of
/// its own.
fn run_in_scratch(tag: &str, args: &str) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("mps-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(REPRO)
        .args(args.split_whitespace())
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Well-formed runs that fail at run time (tag, arguments, the `repro:`
/// prefix of their one error line): a journal that cannot be written, a
/// daemon socket that cannot be bound, a daemon that is not there.
#[rustfmt::skip]
const RUNTIME_FAILURES: &[(&str, &str, &str)] = &[
    ("journal", "--seed 7 --repeats 1 --subset 1 --faults io:enospc@1,eio@1 --journal j.jl grid", "journal: "),
    ("bind", "--seed 7 --repeats 1 serve --socket no-such-dir/s.sock", "serve: "),
    ("connect", "client --socket no-such.sock --health", "client: "),
];

/// A runtime failure is not a bad command line: exit 1 and one
/// `repro: …` line, no usage line.
#[test]
fn runtime_failures_exit_1_without_the_usage_line() {
    // The client retries its connect for ten seconds, so the cases run
    // side by side.
    let outs: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = RUNTIME_FAILURES
            .iter()
            .map(|&(tag, args, _)| s.spawn(move || run_in_scratch(tag, args)))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for (&(_, args, prefix), out) in RUNTIME_FAILURES.iter().zip(outs) {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{args}`: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("repro:")).collect();
        assert_eq!(errors.len(), 1, "`{args}`: {stderr}");
        assert!(
            errors[0].starts_with(&format!("repro: {prefix}")),
            "`{args}`: {stderr}"
        );
        assert!(!stderr.contains("usage:"), "`{args}`: {stderr}");
    }
}

/// `--subset` and `--workers` reach the faultsweep target.
#[test]
fn faultsweep_honours_subset_and_workers() {
    let out = run_in_scratch(
        "faultsweep",
        "--seed 7 --repeats 1 --subset 1 --workers 1 faultsweep",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("over 1 DAGs"), "{stdout}");
}
