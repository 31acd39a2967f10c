//! `mps-perf`: runs one named workload of the mps pipeline for a fixed
//! time, checks its outputs, and prints its end-to-end metrics — or, with
//! `--trace 1`, its per-layer metrics from a separate traced run — as the
//! last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid --seed 2011 --seconds 25 --trace 0
//! ```
//!
//! Exit code 0 with a result line, or 1 with a reason on standard error
//! and no result line when a run fails or an output is wrong.

mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mps_perf::{chrome_trace, median, num, result_line, Machine, Metric, Profile, Summary, Tracer};
use workloads::{Workload, NAMES};

/// Cold set-ups timed per run, at least; `setup_s` is their median.
const SETUP_PROBES: usize = 10;

/// Length of a measurement round, seconds.
const ROUND_S: f64 = 1.0;

/// A round whose median latency is within this factor of the fastest
/// round so far counts as quiet.
const QUIET: f64 = 1.1;

/// Where runs keep their files, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Layers the traced run attributes time to (`module.call`).
const LAYERS: [&str; 17] = [
    "exp.cell",
    "sched.allocate",
    "sched.map",
    "sched.validate",
    "sim.simulate",
    "testbed.execute",
    "testbed.execute_disturbed",
    "faults.rescue_replan",
    "stats.summarize",
    "journal.write",
    "journal.resume",
    "serve.request",
    "serve.encode",
    "serve.decode",
    "serve.work",
    "online.plan",
    "online.run",
];

/// Layers whose median self time per call is reported: the ones every
/// workload calls.
const TIMED_LAYERS: [&str; 2] = ["sched.allocate", "sched.map"];

/// Counts the traced run reports; a workload without the layer reads 0.
const COUNTS: [&str; 12] = [
    "online.events",
    "online.arrivals",
    "online.admitted",
    "online.shed",
    "online.completed",
    "online.plan_cache_entries",
    "online.des_high_water",
    "faults.disturb.fired",
    "faults.rescues",
    "journal.bytes",
    "serve.overloaded",
    "serve.failed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once, print the time to warm-ready, exit.
    probe: bool,
}

const USAGE: &str = "usage: mps-perf --workload grid|recovery|schedule|online \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2011,
        seconds: 25.0,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            args.probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("not a duration in (0, 3600]"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mps-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))
        .and_then(|()| {
            if args.probe {
                probe(&args, &scratch, start)
            } else if args.trace {
                traced_run(&args, &scratch)
            } else {
                timed_run(&args, &scratch)
            }
        });
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mps-perf: {} (seed {}): {e}", args.workload, args.seed);
            ExitCode::FAILURE
        }
    }
}

/// Child side of a set-up probe: time from `main` to warm-ready.
fn probe(args: &Args, scratch: &Path, start: Instant) -> Result<(), String> {
    let w = workloads::setup(&args.workload, args.seed, scratch)?;
    let ready_s = start.elapsed().as_secs_f64();
    w.finish()?;
    println!("setup_s {ready_s}");
    Ok(())
}

/// One cold set-up in a fresh process, so it pays every first-touch
/// cost a user's first run pays; seconds from `main` to warm-ready.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--probe-setup")
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse::<f64>().ok());
    match value {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs `step` until `seconds` have passed, at least once.
fn for_seconds(seconds: f64, mut step: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        step()?;
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

fn report(args: &Args, machine: &Machine, sections: &[(&str, String)]) {
    let body: Vec<String> = sections
        .iter()
        .map(|(k, v)| format!("{}: {v}", mps_perf::str(k)))
        .collect();
    println!(
        r#"report {{"workload": {}, "seed": {}, "seconds": {}, "machine": {}, {}}}"#,
        mps_perf::str(&args.workload),
        args.seed,
        mps_perf::num(args.seconds),
        machine.to_json(),
        body.join(", ")
    );
}

/// The end-to-end run: warm passes through the workload's public entry
/// point for `--seconds`, in rounds of about `ROUND_S`, with
/// `SETUP_PROBES` cold set-ups between rounds.
///
/// On a shared 2-vCPU VM, passes slowed by up to 1.8× for tens of
/// seconds at a time, so the run reports the fastest round's median, and
/// takes a set-up probe only after a round that ran within `QUIET` of the
/// fastest so far — or when the rounds left are needed to reach
/// `SETUP_PROBES`.
fn timed_run(args: &Args, scratch: &Path) -> Result<(), String> {
    let rounds = ((args.seconds / ROUND_S).round() as usize).max(1);
    let mut setup = Vec::new();
    let mut w = workloads::setup(&args.workload, args.seed, scratch)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut pass_ms, mut round_throughput, mut round_ops) = (Vec::new(), Vec::new(), Vec::new());
    // Only one round's samples are kept, so the benchmark's own memory
    // does not grow with the system's speed.
    let (mut rates, mut ops) = (Vec::new(), Vec::new());
    let (mut fastest, mut last) = (f64::INFINITY, f64::INFINITY);
    // Peak memory after set-up and the first round: over whole 25 s runs
    // the grid's peak read 6.4 MiB in most runs and 8.8 MiB in a few,
    // too bimodal to bound.
    let mut rss = 0.0;
    for r in 0..rounds {
        let (need, left) = (SETUP_PROBES.saturating_sub(setup.len()), rounds - r);
        if need > 0 && (last <= QUIET * fastest || need >= left) {
            for _ in 0..need.saturating_sub(left) + 1 {
                setup.push(setup_probe(args)?);
            }
        }
        rates.clear();
        ops.clear();
        for_seconds(args.seconds / rounds as f64, || {
            let p = w.pass()?;
            attempted += p.items;
            failed += p.failed;
            rates.push((p.items - p.failed) as f64 / p.wall_s);
            pass_ms.push(p.wall_s * 1e3);
            if p.op_ms.is_empty() {
                ops.push(p.wall_s * 1e3);
            }
            ops.extend(p.op_ms);
            Ok(())
        })?;
        if r == 0 {
            rss = peak_rss_mib()?;
        }
        let round = Summary::of(&ops);
        round_throughput.push(Summary::of(&rates).median);
        last = round.median;
        fastest = fastest.min(last);
        round_ops.push(round);
    }
    w.finish()?;
    let list = |v: Vec<String>| format!("[{}]", v.join(", "));
    let setup_sum = Summary::of(&setup);
    report(
        args,
        &Machine::probe(),
        &[
            ("setup_s", setup_sum.to_json()),
            (
                "setup_probes_s",
                list(setup.iter().map(|x| num(*x)).collect()),
            ),
            ("pass_ms", Summary::of(&pass_ms).to_json()),
            (
                "round_throughput",
                list(round_throughput.iter().map(|x| num(*x)).collect()),
            ),
            (
                "round_op_ms",
                list(round_ops.iter().map(Summary::to_json).collect()),
            ),
        ],
    );
    let metrics = [
        Metric::new("setup_s", setup_sum.median, "s"),
        Metric::new(
            "throughput",
            round_throughput.iter().copied().fold(0.0, f64::max),
            "1/s",
        ),
        Metric::new("latency_p50_ms", fastest, "ms"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ];
    println!("{}", result_line(true, attempted, failed, &metrics));
    Ok(())
}

/// The traced run: rounds of one entry-point pass (checked, counted),
/// one untraced composed pass and one traced composed pass, for
/// `--seconds`. Spans of the first traced pass go to a Chrome trace file.
fn traced_run(args: &Args, scratch: &Path) -> Result<(), String> {
    let mut w: Box<dyn Workload> = workloads::setup(&args.workload, args.seed, scratch)?;
    let (mut on, mut off) = (Tracer::new(true), Tracer::new(false));
    let mut profile = Profile::default();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first = None;
    for_seconds(args.seconds, || {
        let p = w.pass()?;
        attempted += p.items;
        failed += p.failed;
        untraced_s.push(w.composed(&mut off)?);
        on.clear();
        let s = w.composed(&mut on)?;
        traced_s.push(s);
        profile.absorb(on.spans(), (s * 1e9) as u64);
        first.get_or_insert_with(|| on.spans().to_vec());
        Ok(())
    })?;
    traced_s.sort_by(f64::total_cmp);
    untraced_s.sort_by(f64::total_cmp);
    let (traced, untraced) = (median(&traced_s), median(&untraced_s));
    let counts = w.counts();
    let wait = w.wait_share_pct(untraced);
    w.finish()?;

    let machine = Machine::probe();
    let trace_path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-s{}.json", args.workload, args.seed));
    let mut meta = machine.fields();
    meta.extend([
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
    ]);
    std::fs::write(
        &trace_path,
        chrome_trace(first.as_deref().unwrap_or(&[]), &meta),
    )
    .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "{}: trace of one pass in {}",
        args.workload,
        trace_path.display()
    );

    let mut metrics = Vec::new();
    for l in LAYERS {
        metrics.push(Metric::new(
            format!("{l}.calls"),
            profile.calls_per_pass(l),
            "count",
        ));
        metrics.push(Metric::new(
            format!("{l}.share_pct"),
            profile.share_pct(l),
            "%",
        ));
    }
    for l in TIMED_LAYERS {
        let us = profile
            .self_us_p50(l)
            .ok_or_else(|| format!("the traced run never called {l}"))?;
        metrics.push(Metric::new(format!("{l}.self_us_p50"), us, "us"));
    }
    metrics.push(Metric::new("serve.wait.share_pct", wait, "%"));
    metrics.push(Metric::new("trace.pass_ms", traced * 1e3, "ms"));
    metrics.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced / untraced - 1.0),
        "%",
    ));
    metrics.push(Metric::new(
        "trace.coverage_pct",
        profile.coverage_pct(),
        "%",
    ));
    for c in COUNTS {
        let v = counts
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0.0, |(_, v)| *v);
        metrics.push(Metric::new(c, v, "count"));
    }
    report(
        args,
        &machine,
        &[
            ("traced_passes", profile.passes.to_string()),
            (
                "traced_pass_ms",
                Summary::of(&traced_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()).to_json(),
            ),
            (
                "untraced_pass_ms",
                Summary::of(&untraced_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()).to_json(),
            ),
            (
                "trace_file",
                mps_perf::str(&trace_path.display().to_string()),
            ),
        ],
    );
    println!("{}", result_line(true, attempted, failed, &metrics));
    Ok(())
}
