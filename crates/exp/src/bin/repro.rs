//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--seed S] [--repeats R] [--json DIR] \
//!       [--faults PLAN] [--max-retries N] \
//!       [--disturb PLAN] [--recovery failfast|retry|rescue] \
//!       [--journal PATH] [--resume] [--max-wall-secs S] \
//!       [--subset N] [--workers N] [--throttle-ms N] \
//!       [--isolation inproc|process] [--cell-timeout-secs S] \
//!       [--max-cell-attempts N] [--poison SPEC] <target>...
//! targets: table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table2
//!          gantt ablations faultsweep disturb grid all
//! ```
//!
//! `--faults` takes a fault-plan description (see `mps_faults::FaultPlan::
//! parse`): semicolon-separated clauses such as `seed=7; crash@0:0+30;
//! slow@1:0*1.5; fail=0.02`, or a preset (`light`, `moderate`, `heavy`).
//! Affected grid cells are reported as degraded or failed — with typed
//! errors — while the rest of the grid completes normally.
//!
//! `--disturb` injects *timed platform disturbances* into every testbed
//! run (see `mps_faults::DisturbancePlan::parse`): `crash@T:HOST`
//! permanently kills a host mid-execution, `slow@T1-T2:HOST:F` multiplies
//! its compute time by `F` inside the window, `degrade@T1-T2:HOST:F` does
//! the same to its network links; presets `light`/`moderate`/`heavy` are
//! seeded plans at intensity 0.25/0.5/1. `--recovery` picks the reaction
//! when a crash strands scheduled work: `failfast` (typed error),
//! `retry` (move stranded tasks to surviving hosts, keep the order), or
//! `rescue` (default — re-invoke the scheduler over the surviving
//! platform and adopt the repaired schedule, charging the re-planning
//! time to the makespan). The `disturb` target sweeps intensity 0..1 and
//! reports degradation, rescue success, and verdict stability.
//!
//! `--journal PATH` makes the grid campaign crash-safe: every completed
//! cell is appended durably to a write-ahead journal before the next one
//! is dispatched. A run killed at any point — crash, OOM, Ctrl-C — is
//! continued with `--resume`, recomputing only the missing cells; the
//! resumed grid is identical to an uninterrupted run. SIGINT/SIGTERM
//! trigger a graceful drain (in-flight cells finish, the journal syncs, a
//! partial summary prints), and `--max-wall-secs` converts an exhausted
//! wall-clock budget into the same clean checkpoint.
//!
//! `--isolation process` additionally runs every cell in a supervised
//! child worker process (the binary re-executes itself in a hidden
//! `--cell-worker` mode): a cell that panics, aborts, or hangs kills only
//! its worker. The worker is respawned with exponential backoff, the cell
//! retried, and after `--max-cell-attempts` strikes (default 2) the cell
//! is **quarantined** — journaled as a typed crash report that `--resume`
//! skips. `--cell-timeout-secs` (default 120) bounds each attempt's wall
//! clock. `--poison SPEC` (`needle=panic,needle=hang`, matched against
//! cell keys) deliberately poisons matching cells — test instrumentation
//! for the supervision machinery itself.
//!
//! Exit codes: 0 on success (including a clean wall-clock checkpoint),
//! 2 on usage or runtime errors, 3 when the campaign completed but
//! quarantined at least one poison cell, 130 when interrupted.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy};
use mps_core::journal::{install_signal_handlers, CancelToken, RunControl};
use mps_core::sim::ExecPolicy;
use mps_core::supervise::SupervisorConfig;
use mps_exp::supervised::{serve_cells, SuperviseOpts, WorkerCommand};
use mps_exp::{
    ablation, figures, grid_health, parse_poison_spec, DisturbConfig, GridStatus, Harness,
    JournaledGrid, ServeBackend,
};

/// Exit code for a campaign that completed but quarantined poison cells:
/// the journal is whole (every cell has a durable record), yet some
/// records are crash reports rather than measurements.
const EXIT_QUARANTINED: i32 = 3;

/// Event horizon (seconds) used when parsing `--faults` clauses with
/// preset intensities; generous enough to cover every grid makespan.
const FAULT_HORIZON: f64 = 120.0;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 2011u64;
    let mut repeats = 3u64;
    let mut json_dir: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut disturb: Option<String> = None;
    let mut recovery: Option<String> = None;
    let mut max_retries = ExecPolicy::default().max_retries;
    let mut journal_path: Option<String> = None;
    let mut resume = false;
    let mut max_wall_secs: Option<u64> = None;
    let mut subset: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut throttle_ms: Option<u64> = None;
    let mut isolation = String::from("inproc");
    let mut cell_timeout_secs: Option<u64> = None;
    let mut max_cell_attempts: Option<u32> = None;
    let mut poison_spec: Option<String> = None;
    let mut cell_worker = false;
    let mut stderr_tail_bytes: Option<usize> = None;
    let mut spawn_timeout_secs: Option<u64> = None;
    let mut socket: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut queue_cap: Option<usize> = None;
    let mut serve_workers: Option<usize> = None;
    let mut stdio = false;
    let mut cli_schedule: Option<String> = None;
    let mut cli_simulate: Option<String> = None;
    let mut cli_subset_grid: Option<usize> = None;
    let mut cli_online: Option<String> = None;
    let mut cli_health = false;
    let mut cli_drain = false;
    let mut deadline_ms: Option<u64> = None;
    let mut campaign_dir: Option<String> = None;
    let mut points: Option<usize> = None;
    let mut episodes: Option<usize> = None;
    let mut chaos_dir: Option<String> = None;
    let mut arrival_rates: Option<String> = None;
    let mut horizon_events: Option<u64> = None;
    let mut admission: Option<usize> = None;
    let mut max_width: Option<usize> = None;
    let mut batch: Option<usize> = None;
    let mut trace_out: Option<String> = None;

    let mut targets = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--repeats needs an integer"));
            }
            "--json" => {
                i += 1;
                json_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--json needs a directory")),
                );
            }
            "--faults" => {
                i += 1;
                faults = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--faults needs a plan description")),
                );
            }
            "--disturb" => {
                i += 1;
                disturb = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--disturb needs a plan description")),
                );
            }
            "--recovery" => {
                i += 1;
                recovery = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--recovery needs a mode (failfast|retry|rescue)")),
                );
            }
            "--max-retries" => {
                i += 1;
                max_retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--max-retries needs an integer"));
            }
            "--journal" => {
                i += 1;
                journal_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--journal needs a path")),
                );
            }
            "--resume" => resume = true,
            "--max-wall-secs" => {
                i += 1;
                max_wall_secs = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--max-wall-secs needs an integer")),
                );
            }
            "--subset" => {
                i += 1;
                subset = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--subset needs an integer")),
                );
            }
            "--workers" => {
                i += 1;
                workers = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--workers needs an integer")),
                );
            }
            "--throttle-ms" => {
                i += 1;
                throttle_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--throttle-ms needs an integer")),
                );
            }
            "--isolation" => {
                i += 1;
                isolation = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--isolation needs a mode (inproc|process)"));
                if isolation != "inproc" && isolation != "process" {
                    die(&format!("--isolation {isolation:?} is not inproc|process"));
                }
            }
            "--cell-timeout-secs" => {
                i += 1;
                cell_timeout_secs = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--cell-timeout-secs needs an integer >= 1")),
                );
            }
            "--max-cell-attempts" => {
                i += 1;
                max_cell_attempts = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u32>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--max-cell-attempts needs an integer >= 1")),
                );
            }
            "--poison" => {
                i += 1;
                poison_spec = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--poison needs a spec (needle=panic|hang,...)")),
                );
            }
            "--stderr-tail-bytes" => {
                i += 1;
                stderr_tail_bytes = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n <= 1024 * 1024)
                        .unwrap_or_else(|| {
                            die("--stderr-tail-bytes needs an integer in 0..=1048576")
                        }),
                );
            }
            "--spawn-timeout-secs" => {
                i += 1;
                spawn_timeout_secs = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .filter(|&n| (1..=600).contains(&n))
                        .unwrap_or_else(|| die("--spawn-timeout-secs needs an integer in 1..=600")),
                );
            }
            "--socket" => {
                i += 1;
                socket = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--socket needs a path")),
                );
            }
            "--state" => {
                i += 1;
                state_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--state needs a directory")),
                );
            }
            "--queue-cap" => {
                i += 1;
                queue_cap = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| (1..=4096).contains(&n))
                        .unwrap_or_else(|| die("--queue-cap needs an integer in 1..=4096")),
                );
            }
            "--serve-workers" => {
                i += 1;
                serve_workers = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| (1..=64).contains(&n))
                        .unwrap_or_else(|| die("--serve-workers needs an integer in 1..=64")),
                );
            }
            "--stdio" => stdio = true,
            "--schedule" => {
                i += 1;
                cli_schedule = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--schedule needs DAG:VARIANT:ALGO")),
                );
            }
            "--simulate" => {
                i += 1;
                cli_simulate = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--simulate needs DAG:VARIANT:ALGO")),
                );
            }
            "--subset-grid" => {
                i += 1;
                cli_subset_grid = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--subset-grid needs an integer >= 1")),
                );
            }
            "--online" => {
                i += 1;
                cli_online = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--online needs ALGO:ARRIVAL")),
                );
            }
            "--health" => cli_health = true,
            "--drain" => cli_drain = true,
            "--deadline-ms" => {
                i += 1;
                deadline_ms = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| die("--deadline-ms needs an integer")),
                );
            }
            "--campaign-dir" => {
                i += 1;
                campaign_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--campaign-dir needs a directory")),
                );
            }
            "--points" => {
                i += 1;
                points = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--points needs an integer >= 1")),
                );
            }
            "--episodes" => {
                i += 1;
                episodes = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--episodes needs an integer >= 1")),
                );
            }
            "--chaos-dir" => {
                i += 1;
                chaos_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--chaos-dir needs a directory")),
                );
            }
            "--arrival-rate" => {
                i += 1;
                arrival_rates = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--arrival-rate needs a comma-separated list")),
                );
            }
            "--horizon-events" => {
                i += 1;
                horizon_events = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--horizon-events needs an integer >= 1")),
                );
            }
            "--admission" => {
                i += 1;
                admission = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| {
                            die("--admission needs an integer (0 sheds everything)")
                        }),
                );
            }
            "--max-width" => {
                i += 1;
                max_width = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--max-width needs an integer >= 1")),
                );
            }
            "--batch" => {
                i += 1;
                batch = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--batch needs an integer >= 1")),
                );
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace-out needs a path")),
                );
            }
            "--help" | "-h" => {
                print!("{}", help_text());
                std::process::exit(0);
            }
            // Hidden: run as a supervised cell worker over stdin/stdout.
            "--cell-worker" => cell_worker = true,
            // Hidden: inert marker so tests can find worker processes by
            // scanning /proc/*/cmdline.
            "--worker-tag" => i += 1,
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    args.clear();
    let serving = targets.iter().any(|t| t == "serve");
    let clienting = targets.iter().any(|t| t == "client");
    let campaigning = targets.iter().any(|t| t == "campaign");
    let chaosing = targets.iter().any(|t| t == "chaos");
    let disturbing = targets.iter().any(|t| t == "disturb");
    let onlining = targets.iter().any(|t| t == "online");
    if onlining {
        if targets.len() > 1 {
            die("online cannot be combined with other targets");
        }
        // The streaming sweep builds no testbed harness; grid knobs
        // would be inert lies.
        for (set, flag) in [
            (faults.is_some(), "--faults"),
            (disturb.is_some(), "--disturb"),
            (recovery.is_some(), "--recovery"),
            (journal_path.is_some(), "--journal"),
            (resume, "--resume"),
            (subset.is_some(), "--subset"),
            (isolation == "process", "--isolation process"),
            (max_wall_secs.is_some(), "--max-wall-secs"),
            (throttle_ms.is_some(), "--throttle-ms"),
        ] {
            if set {
                die(&format!("{flag} cannot be used with the online target"));
            }
        }
    } else {
        for (set, flag) in [
            (arrival_rates.is_some(), "--arrival-rate"),
            (max_width.is_some(), "--max-width"),
            (batch.is_some(), "--batch"),
            (trace_out.is_some(), "--trace-out"),
        ] {
            if set {
                die(&format!("{flag} requires the online target"));
            }
        }
        // These two also parameterize a client `--online` request.
        if !(clienting && cli_online.is_some()) {
            for (set, flag) in [
                (horizon_events.is_some(), "--horizon-events"),
                (admission.is_some(), "--admission"),
            ] {
                if set {
                    die(&format!(
                        "{flag} requires the online target or a client --online request"
                    ));
                }
            }
        }
    }
    if onlining {
        let defaults = mps_exp::OnlineOpts::default();
        let opts = mps_exp::OnlineOpts {
            arrivals: match &arrival_rates {
                Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
                None => defaults.arrivals,
            },
            horizon_events: horizon_events.unwrap_or(defaults.horizon_events),
            seed,
            admission_cap: admission.unwrap_or(defaults.admission_cap),
            max_width: max_width.unwrap_or(defaults.max_width),
            batch: batch.unwrap_or(defaults.batch),
            workers: workers.unwrap_or_else(Harness::default_workers),
        };
        std::process::exit(run_online(&opts, trace_out.as_deref(), json_dir.as_deref()));
    }
    if disturbing && disturb.is_some() {
        die("--disturb cannot be used with the disturb target (it sweeps its own seeded plans)");
    }
    if recovery.is_some() && disturb.is_none() && !disturbing {
        die("--recovery requires --disturb or the disturb target");
    }
    let recovery_policy: RecoveryPolicy = match &recovery {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| die("--recovery needs failfast, retry, or rescue")),
        None => RecoveryPolicy::Rescue,
    };
    if serving && clienting {
        die("serve and client are mutually exclusive targets");
    }
    if chaosing {
        if targets.len() > 1 {
            die("chaos cannot be combined with other targets");
        }
        // Chaos episodes build their own harnesses, fault plans, and
        // scratch journals; the grid/campaign knobs would be inert lies.
        for (set, flag) in [
            (faults.is_some(), "--faults"),
            (disturb.is_some(), "--disturb"),
            (recovery.is_some(), "--recovery"),
            (journal_path.is_some(), "--journal"),
            (resume, "--resume"),
            (json_dir.is_some(), "--json"),
            (subset.is_some(), "--subset"),
            (workers.is_some(), "--workers"),
            (isolation == "process", "--isolation process"),
            (max_wall_secs.is_some(), "--max-wall-secs"),
            (throttle_ms.is_some(), "--throttle-ms"),
        ] {
            if set {
                die(&format!("{flag} cannot be used with the chaos target"));
            }
        }
    } else {
        for (set, flag) in [
            (episodes.is_some(), "--episodes"),
            (chaos_dir.is_some(), "--chaos-dir"),
        ] {
            if set {
                die(&format!("{flag} requires the chaos target"));
            }
        }
    }
    if campaigning {
        if targets.len() > 1 {
            die("campaign cannot be combined with other targets");
        }
        if campaign_dir.is_none() {
            die("campaign needs --campaign-dir DIR");
        }
        // Campaign points build their own fault-sweep plans, own one
        // journal each, and resume by re-invocation.
        for (set, flag) in [
            (faults.is_some(), "--faults"),
            (journal_path.is_some(), "--journal"),
            (resume, "--resume"),
            (json_dir.is_some(), "--json"),
            (isolation == "process", "--isolation process"),
        ] {
            if set {
                die(&format!("{flag} cannot be used with the campaign target"));
            }
        }
    } else {
        for (set, flag) in [
            (campaign_dir.is_some(), "--campaign-dir"),
            (points.is_some(), "--points"),
        ] {
            if set {
                die(&format!("{flag} requires the campaign target"));
            }
        }
    }
    if (serving || clienting) && targets.len() > 1 {
        die("serve/client cannot be combined with other targets");
    }
    if serving {
        if socket.is_none() && !stdio {
            die("serve needs --socket PATH (or --stdio)");
        }
        if isolation == "process" && state_dir.is_none() {
            die("serve --isolation process requires --state DIR (the supervisor owns journals)");
        }
        if resume {
            die("--resume is implicit for serve (journals under --state resume themselves)");
        }
    }
    if clienting && socket.is_none() {
        die("client needs --socket PATH");
    }
    if !serving && !clienting {
        for (set, flag) in [
            (socket.is_some(), "--socket"),
            (state_dir.is_some(), "--state"),
            (queue_cap.is_some(), "--queue-cap"),
            (serve_workers.is_some(), "--serve-workers"),
            (stdio, "--stdio"),
            (cli_schedule.is_some(), "--schedule"),
            (cli_simulate.is_some(), "--simulate"),
            (cli_subset_grid.is_some(), "--subset-grid"),
            (cli_online.is_some(), "--online"),
            (cli_health, "--health"),
            (cli_drain, "--drain"),
            (deadline_ms.is_some(), "--deadline-ms"),
        ] {
            if set {
                die(&format!("{flag} requires the serve or client target"));
            }
        }
    }
    if chaosing {
        let dir = chaos_dir.map(PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("mps-chaos-{}", std::process::id()))
        });
        let opts = mps_exp::ChaosOpts {
            episodes: episodes.unwrap_or(50),
            seed,
            dir,
        };
        std::process::exit(run_chaos(&opts));
    }
    if clienting {
        std::process::exit(run_client(
            socket.as_deref().unwrap(),
            repeats,
            deadline_ms,
            cli_health,
            cli_schedule.as_deref(),
            cli_simulate.as_deref(),
            cli_subset_grid,
            cli_online.as_deref(),
            horizon_events,
            admission,
            seed,
            disturb.clone(),
            cli_drain,
        ));
    }
    if journal_path.is_none() && !cell_worker && !serving && !campaigning {
        // These flags only make sense for a journaled campaign; silently
        // ignoring them would mislead (e.g. `--resume` quietly recomputing
        // a full grid from scratch).
        for (set, flag) in [
            (resume, "--resume"),
            (max_wall_secs.is_some(), "--max-wall-secs"),
            (throttle_ms.is_some(), "--throttle-ms"),
            (isolation == "process", "--isolation process"),
        ] {
            if set {
                die(&format!("{flag} requires --journal PATH"));
            }
        }
    }
    if isolation != "process" && !cell_worker {
        // Supervision knobs without supervision would be silently inert.
        for (set, flag) in [
            (cell_timeout_secs.is_some(), "--cell-timeout-secs"),
            (max_cell_attempts.is_some(), "--max-cell-attempts"),
            (stderr_tail_bytes.is_some(), "--stderr-tail-bytes"),
            (spawn_timeout_secs.is_some(), "--spawn-timeout-secs"),
        ] {
            if set {
                die(&format!("{flag} requires --isolation process"));
            }
        }
    }

    let needs_grid = targets.iter().any(|t| {
        matches!(
            t.as_str(),
            "all" | "fig1" | "fig5" | "fig7" | "fig8" | "grid"
        )
    });

    if !cell_worker {
        eprintln!("# building harness (seed {seed}): profiling the emulated testbed…");
    }
    let mut harness = Harness::new(seed);
    // Plans name hosts by index, so they are checked against the cluster
    // the harness runs on.
    let hosts = harness.nominal_cluster().node_count();
    if let Some(desc) = &faults {
        let plan = FaultPlan::parse(desc, hosts, FAULT_HORIZON)
            .unwrap_or_else(|e| die(&format!("bad --faults plan: {e}")));
        if !cell_worker {
            eprintln!(
                "# injecting fault plan (seed {}, {} event(s), max {} retries/task)",
                plan.seed,
                plan.events.len(),
                max_retries
            );
        }
        harness = harness.with_fault_plan(plan);
    }
    harness = harness.with_exec_policy(ExecPolicy {
        max_retries,
        ..ExecPolicy::default()
    });
    if let Some(spec) = &poison_spec {
        let rules =
            parse_poison_spec(spec).unwrap_or_else(|e| die(&format!("bad --poison spec: {e}")));
        harness = harness.with_poison(rules);
    }
    if let Some(desc) = &disturb {
        let plan = DisturbancePlan::parse(desc, hosts, FAULT_HORIZON)
            .unwrap_or_else(|e| die(&format!("bad --disturb plan: {e}")));
        if !cell_worker {
            eprintln!(
                "# injecting disturbance plan (seed {}, {} event(s), recovery {})",
                plan.seed,
                plan.events.len(),
                recovery_policy
            );
        }
        harness = harness.with_disturbance(DisturbConfig::new(plan, recovery_policy));
    }

    if cell_worker {
        // Supervised worker mode: serve cells over stdin/stdout until the
        // supervisor closes the pipe. No catch_unwind — a poisoned cell
        // kills this process and that death is the crash report.
        std::process::exit(serve_cells(&harness, repeats));
    }
    if serving {
        let opts = ServeCliOpts {
            socket,
            state_dir,
            queue_cap,
            serve_workers,
            stdio,
            max_wall_secs,
            throttle_ms,
            isolation: isolation.clone(),
            seed,
            repeats,
            max_retries,
            faults: faults.clone(),
            poison_spec: poison_spec.clone(),
            disturb: disturb.clone(),
            recovery: recovery_policy,
            workers,
            cell_timeout_secs,
            max_cell_attempts,
            spawn_timeout_secs,
            stderr_tail_bytes,
        };
        std::process::exit(run_serve(harness, opts));
    }
    if campaigning {
        let opts = mps_exp::CampaignOpts {
            dir: PathBuf::from(campaign_dir.unwrap()),
            points: points.unwrap_or(mps_exp::campaign::DEFAULT_POINTS),
            repeats,
            workers: workers.unwrap_or_else(Harness::default_workers),
            subset,
        };
        std::process::exit(run_campaign(&mut harness, opts, max_wall_secs, throttle_ms));
    }
    let mut grid_status = GridStatus::Complete;
    let cells = if needs_grid {
        let scope = match subset {
            Some(take) => format!("{take}-DAG subset"),
            None => "54-DAG".to_string(),
        };
        eprintln!("# running the {scope} × 3-simulator × 2-algorithm grid ({repeats} testbed runs per cell)…");
        let cells = match &journal_path {
            Some(jpath) => {
                // Journaled campaign: SIGINT/SIGTERM become a graceful
                // drain, a wall-clock budget becomes a clean checkpoint.
                install_signal_handlers();
                let mut ctrl =
                    RunControl::unlimited().with_cancel(CancelToken::following_signals());
                if let Some(secs) = max_wall_secs {
                    ctrl = ctrl.with_deadline_in(Duration::from_secs(secs));
                }
                if let Some(ms) = throttle_ms {
                    ctrl = ctrl.with_throttle(Duration::from_millis(ms));
                }
                let workers = workers.unwrap_or_else(Harness::default_workers);
                let path = Path::new(jpath);
                let report: JournaledGrid = if isolation == "process" {
                    // Process-isolated campaign: cells run in supervised
                    // child workers (this binary, re-executed in hidden
                    // `--cell-worker` mode); poison cells are quarantined.
                    let program: PathBuf = std::env::current_exe()
                        .unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}")));
                    let mut wargs = vec![
                        "--cell-worker".to_string(),
                        "--seed".to_string(),
                        seed.to_string(),
                        "--repeats".to_string(),
                        repeats.to_string(),
                        "--max-retries".to_string(),
                        max_retries.to_string(),
                    ];
                    if let Some(desc) = &faults {
                        wargs.push("--faults".to_string());
                        wargs.push(desc.clone());
                    }
                    if let Some(spec) = &poison_spec {
                        wargs.push("--poison".to_string());
                        wargs.push(spec.clone());
                    }
                    if let Some(desc) = &disturb {
                        wargs.push("--disturb".to_string());
                        wargs.push(desc.clone());
                        wargs.push("--recovery".to_string());
                        wargs.push(recovery_policy.to_string());
                    }
                    // Inert marker so tests (and humans) can attribute
                    // workers to their campaign in `ps`/procfs output.
                    wargs.push("--worker-tag".to_string());
                    wargs.push(jpath.clone());
                    let worker_cmd = WorkerCommand {
                        program,
                        args: wargs,
                    };
                    let opts = SuperviseOpts {
                        repeats,
                        workers,
                        resume,
                        cell_timeout: Duration::from_secs(cell_timeout_secs.unwrap_or(120)),
                        spawn_timeout: Duration::from_secs(spawn_timeout_secs.unwrap_or(30)),
                        stderr_tail_bytes: stderr_tail_bytes.unwrap_or(8 * 1024),
                        config: SupervisorConfig {
                            max_cell_attempts: max_cell_attempts.unwrap_or(2),
                            ..SupervisorConfig::default()
                        },
                    };
                    match subset {
                        Some(take) => {
                            harness.run_subset_supervised(take, path, &worker_cmd, &opts, &ctrl)
                        }
                        None => harness.run_grid_supervised(path, &worker_cmd, &opts, &ctrl),
                    }
                    .unwrap_or_else(|e| die(&format!("supervised campaign: {e}")))
                } else {
                    match subset {
                        Some(take) => harness
                            .run_subset_journaled(take, path, repeats, workers, resume, &ctrl),
                        None => harness.run_grid_journaled(path, repeats, workers, resume, &ctrl),
                    }
                    .unwrap_or_else(|e| die(&format!("journal: {e}")))
                };
                if report.salvage_dropped_bytes > 0 {
                    eprintln!(
                        "# journal recovery: dropped a torn tail of {} byte(s)",
                        report.salvage_dropped_bytes
                    );
                }
                eprintln!(
                    "# journal {}: {} cell(s) resumed, {} computed, {} pending, {} quarantined — {}",
                    jpath,
                    report.resumed,
                    report.computed,
                    report.pending,
                    report.quarantined,
                    report.status.label()
                );
                grid_status = report.status;
                report.cells
            }
            None => match subset {
                Some(take) => harness.run_subset(take, repeats),
                None => harness.run_grid(repeats),
            },
        };
        let health = grid_health(&cells);
        if disturb.is_some() || health.disturbed > 0 {
            eprintln!(
                "# disturbances: {} disturbed cell(s), {} crash(es), {} rescue(s), {} task(s) rescued",
                health.disturbed, health.crashes, health.rescues, health.rescued_tasks
            );
        }
        if health.degraded + health.failed + health.quarantined > 0 || faults.is_some() {
            eprintln!(
                "# grid health: {} full, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined cells",
                health.full,
                health.degraded,
                health.retries,
                health.lost_runs,
                health.failed,
                health.quarantined
            );
            for c in cells.iter().filter(|c| !c.succeeded()) {
                if let mps_exp::CellOutcome::Failed { error } = &c.outcome {
                    eprintln!(
                        "#   failed: {}/{}/{}: {error}",
                        c.dag,
                        c.variant.name(),
                        c.algo
                    );
                } else if let Some(report) = c.outcome.crash_report() {
                    eprintln!(
                        "#   {}: {}/{}/{}: {}",
                        c.outcome.label(),
                        c.dag,
                        c.variant.name(),
                        c.algo,
                        report.summary()
                    );
                }
            }
        }
        cells
    } else {
        Vec::new()
    };

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create --json dir {dir}: {e}")));
        let path = format!("{dir}/grid.json");
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        serde_json::to_writer_pretty(&mut f, &cells)
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        f.flush()
            .unwrap_or_else(|e| die(&format!("cannot flush {path}: {e}")));
        eprintln!("# wrote {path}");
        // CSV companion for spreadsheet/R users.
        let csv_path = format!("{dir}/grid.csv");
        let mut csv =
            String::from("dag,n,variant,algo,sim_makespan,real_makespan,error_pct,outcome\n");
        for c in &cells {
            csv.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.3},{}\n",
                c.dag,
                c.n,
                c.variant.name(),
                c.algo,
                c.sim_makespan,
                c.real_makespan,
                c.error_pct(),
                c.outcome.label()
            ));
        }
        std::fs::write(&csv_path, csv)
            .unwrap_or_else(|e| die(&format!("cannot write {csv_path}: {e}")));
        eprintln!("# wrote {csv_path}");
    }

    if grid_status != GridStatus::Complete {
        // Partial campaign: print the checkpoint summary instead of
        // rendering figures from an incomplete grid. An interrupt exits
        // 130 (like an uncaught SIGINT); a spent wall-clock budget is a
        // *successful* checkpoint and exits 0.
        println!(
            "{}",
            grid_report(&cells, grid_status, journal_path.as_deref())
        );
        let code = match grid_status {
            GridStatus::Interrupted => 130,
            _ => 0,
        };
        std::process::exit(code);
    }

    for t in &targets {
        let report = match t.as_str() {
            "table1" => figures::table1(),
            "fig1" => {
                let mut s = figures::fig1(&cells);
                s.push('\n');
                s.push_str(&figures::fig1_n3000(&cells));
                s
            }
            "fig2" => figures::fig2(&harness.testbed),
            "fig3" => figures::fig3(&harness.testbed),
            "fig4" => figures::fig4(&harness.testbed),
            "fig5" => figures::fig5(&cells),
            "fig6" => figures::fig6(&harness.testbed),
            "fig7" => figures::fig7(&cells),
            "fig8" => figures::fig8(&cells),
            "table2" => figures::table2(&harness),
            "grid" => grid_report(&cells, grid_status, journal_path.as_deref()),
            "gantt" => gantt_report(&harness),
            "faultsweep" => figures::fault_sweep(
                &mut harness,
                &[0.0, 0.25, 0.5, 1.0],
                &[11, 12, 13],
                10,
                repeats,
            ),
            "disturb" => {
                let opts = mps_exp::DisturbSweepOpts {
                    subset: subset.unwrap_or(6),
                    repeats,
                    recovery: recovery_policy,
                    workers: workers.unwrap_or_else(Harness::default_workers),
                    ..mps_exp::DisturbSweepOpts::default()
                };
                eprintln!(
                    "# disturbance sweep: {} intensity point(s), {} DAG(s)/point, recovery {}",
                    opts.intensities.len(),
                    opts.subset,
                    opts.recovery
                );
                let report = mps_exp::run_disturb_sweep(&mut harness, seed, &opts, |line| {
                    eprintln!("# {line}")
                });
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/disturb.json");
                    let payload = serde_json::to_string_pretty(&report)
                        .unwrap_or_else(|e| die(&format!("cannot encode {path}: {e}")));
                    std::fs::write(&path, payload)
                        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                    eprintln!("# wrote {path}");
                }
                report.render()
            }
            "ablations" => {
                let mut s = String::new();
                s.push_str(&ablation::root_cause_ablation(seed, 12, repeats));
                s.push('\n');
                s.push_str(&ablation::machine_robustness(&[0, 1, 2, 3, 4], 10, repeats));
                s.push('\n');
                s.push_str(&ablation::wiggle_sensitivity(
                    &[0.0, 0.06, 0.12, 0.24],
                    10,
                    repeats,
                ));
                s.push('\n');
                s.push_str(&ablation::algorithm_quality(seed, 12));
                s
            }
            "all" => {
                let mut s = String::new();
                s.push_str(&figures::table1());
                s.push('\n');
                s.push_str(&figures::fig1(&cells));
                s.push('\n');
                s.push_str(&figures::fig1_n3000(&cells));
                s.push('\n');
                s.push_str(&figures::fig2(&harness.testbed));
                s.push('\n');
                s.push_str(&figures::fig3(&harness.testbed));
                s.push('\n');
                s.push_str(&figures::fig4(&harness.testbed));
                s.push('\n');
                s.push_str(&figures::fig5(&cells));
                s.push('\n');
                s.push_str(&figures::fig6(&harness.testbed));
                s.push('\n');
                s.push_str(&figures::fig7(&cells));
                s.push('\n');
                s.push_str(&figures::fig8(&cells));
                s.push('\n');
                s.push_str(&figures::table2(&harness));
                s
            }
            other => die(&format!("unknown target `{other}`")),
        };
        println!("{report}");
        println!("{}", "=".repeat(78));
    }

    let quarantined = cells
        .iter()
        .filter(|c| c.outcome.crash_report().is_some())
        .count();
    if quarantined > 0 {
        // The campaign *completed* — every cell has a durable journal
        // record — but some records are crash reports. Distinguishable
        // from both success (0) and usage errors (2) for CI assertions.
        eprintln!("# {quarantined} cell(s) quarantined — exiting {EXIT_QUARANTINED}");
        std::process::exit(EXIT_QUARANTINED);
    }
}

/// Campaign summary for the `grid` target and for partial checkpoints.
fn grid_report(cells: &[mps_exp::CellResult], status: GridStatus, journal: Option<&str>) -> String {
    use std::fmt::Write as _;
    let health = grid_health(cells);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Grid campaign — {} cell(s) durable, status: {}",
        cells.len(),
        status.label()
    );
    let _ = writeln!(
        out,
        "health: {} full, {} disturbed, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined",
        health.full,
        health.disturbed,
        health.degraded,
        health.retries,
        health.lost_runs,
        health.failed,
        health.quarantined
    );
    for c in cells {
        if let Some(report) = c.outcome.crash_report() {
            let _ = writeln!(
                out,
                "  {}: {}/{}/{} — {}",
                c.outcome.label(),
                c.dag,
                c.variant.name(),
                c.algo,
                report.summary()
            );
        }
    }
    let errs: Vec<f64> = cells
        .iter()
        .filter_map(mps_exp::CellResult::error_pct_checked)
        .collect();
    if let Some(med) = mps_core::stats::median(&errs) {
        let _ = writeln!(
            out,
            "median simulation error over {} measured cell(s): {med:.2}%",
            errs.len()
        );
    }
    if let Some(j) = journal {
        match status {
            GridStatus::Complete => {
                let _ = writeln!(out, "journal {j} is complete");
            }
            _ => {
                let _ = writeln!(
                    out,
                    "checkpoint saved — continue with: repro --journal {j} --resume"
                );
            }
        }
    }
    out
}

/// Renders one DAG's execution timeline under each simulator's schedule.
fn gantt_report(harness: &Harness) -> String {
    use mps_exp::SimVariant;
    let corpus = harness.corpus();
    let g = corpus
        .iter()
        .find(|g| g.params.matrix_size == 2000)
        .expect("corpus has n = 2000 DAGs");
    let mut out = format!("Gantt charts for {} on the emulated testbed\n\n", g.name());
    for variant in SimVariant::ALL {
        let cluster = harness.nominal_cluster();
        let schedule = match variant {
            SimVariant::Analytic => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &mps_core::model::AnalyticModel::paper_jvm(),
            ),
            SimVariant::Profile => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.profile_model,
            ),
            SimVariant::Empirical => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.empirical_model,
            ),
        };
        out.push_str(&format!(
            "--- HCPA schedule under the {} model ---\n",
            variant.name()
        ));
        match harness.testbed.execute(&g.dag, &schedule, 0) {
            Ok(real) => out.push_str(&mps_core::sim::render_gantt(&schedule, &real, 70)),
            Err(e) => out.push_str(&format!("(testbed execution failed: {e})\n")),
        }
        out.push('\n');
    }
    out
}

/// Everything `repro serve` needs from the flag soup.
/// The `campaign` target: a fault-sweep campaign of `opts.points` grid
/// points under `opts.dir`, one write-ahead journal per point. Resume is
/// re-invocation with the same arguments — complete points load back
/// without recomputing a cell. Exit codes mirror the journaled grid: 0
/// for a complete campaign *or* a clean wall-clock checkpoint, 130 for
/// an interrupt, [`EXIT_QUARANTINED`] when complete with crash-family
/// cells in some journal.
fn run_campaign(
    harness: &mut Harness,
    opts: mps_exp::CampaignOpts,
    max_wall_secs: Option<u64>,
    throttle_ms: Option<u64>,
) -> i32 {
    install_signal_handlers();
    let mut ctrl = RunControl::unlimited().with_cancel(CancelToken::following_signals());
    if let Some(secs) = max_wall_secs {
        ctrl = ctrl.with_deadline_in(Duration::from_secs(secs));
    }
    if let Some(ms) = throttle_ms {
        ctrl = ctrl.with_throttle(Duration::from_millis(ms));
    }
    let cells_per_point = opts.subset.unwrap_or(54) * 6;
    eprintln!(
        "# campaign {}: {} point(s) x {} cell(s), fault intensity 0..1",
        opts.dir.display(),
        opts.points,
        cells_per_point,
    );
    let t = std::time::Instant::now();
    let report = harness
        .run_campaign(&opts, &ctrl, |p, status| {
            eprintln!(
                "# point {:04}: {} resumed, {} computed, {} quarantined — {}",
                p.point,
                p.resumed,
                p.computed,
                p.quarantined,
                status.label()
            );
        })
        .unwrap_or_else(|e| die(&format!("campaign: {e}")));
    println!(
        "campaign {}: {}/{} point(s) done, {} cell(s) durable ({} resumed, {} computed, {} quarantined) in {:.1} s — {}",
        opts.dir.display(),
        report.points_done,
        report.points_total,
        report.cells,
        report.resumed,
        report.computed,
        report.quarantined,
        t.elapsed().as_secs_f64(),
        report.status.label(),
    );
    match report.status {
        GridStatus::Interrupted => 130,
        GridStatus::DeadlineExpired => {
            eprintln!("# checkpoint saved — continue by re-running the same campaign invocation");
            0
        }
        GridStatus::Complete if report.quarantined > 0 => EXIT_QUARANTINED,
        GridStatus::Complete => 0,
    }
}

fn run_chaos(opts: &mps_exp::ChaosOpts) -> i32 {
    eprintln!(
        "# chaos soak: {} episode(s), seed {}, scratch {}",
        opts.episodes,
        opts.seed,
        opts.dir.display()
    );
    let t = std::time::Instant::now();
    let report = mps_exp::chaos::run_chaos(opts, |line| eprintln!("# {line}"))
        .unwrap_or_else(|e| die(&format!("chaos: {e}")));
    println!(
        "chaos soak (seed {}): {} episode(s), {} typed failure(s) in {:.1} s",
        opts.seed,
        report.episodes,
        report.failed_typed,
        t.elapsed().as_secs_f64()
    );
    println!(
        "  io faults injected  : {} (enospc {}, eio {}, short-write {}, fsync {}, torn-rename {})",
        report.io.total(),
        report.io.enospc,
        report.io.eio,
        report.io.short_write,
        report.io.fsync_fail,
        report.io.torn_rename
    );
    println!(
        "  wire faults injected: {} (corrupt {}, stall {}, close {})",
        report.wire.total(),
        report.wire.corrupt,
        report.wire.stall,
        report.wire.close
    );
    println!(
        "  disturbances fired  : {} (crash {}, slow {}, degrade {}; {} rescue(s), {} task(s) rescued)",
        report.disturb.fired(),
        report.disturb.crashes,
        report.disturb.slows,
        report.disturb.degrades,
        report.disturb.rescues,
        report.disturb.rescued_tasks
    );
    if report.passed() {
        println!("  verdict: PASS — every fault absorbed or typed, every class exercised");
        0
    } else {
        println!(
            "  verdict: FAIL — {} invariant violation(s):",
            report.violations.len()
        );
        for v in &report.violations {
            println!("    - {v}");
        }
        2
    }
}

/// The `online` target: a streaming-workload sweep across load levels.
/// `--trace-out` writes the deterministic event/SLO trace (byte-identical
/// across repeats, batch sizes, and worker counts); `--json` additionally
/// dumps the full report as `online.json`.
fn run_online(opts: &mps_exp::OnlineOpts, trace_out: Option<&str>, json_dir: Option<&str>) -> i32 {
    eprintln!(
        "# streaming sweep: {} load level(s) x {{HCPA, MCPA}}, {} events/run, seed {}, {} worker(s)",
        opts.arrivals.len(),
        opts.horizon_events,
        opts.seed,
        opts.workers
    );
    let t = std::time::Instant::now();
    let report = match mps_exp::run_online_sweep(opts, |line| eprintln!("# {line}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: online: {e}");
            return 2;
        }
    };
    eprintln!("# sweep finished in {:.1} s", t.elapsed().as_secs_f64());
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, report.trace()) {
            eprintln!("repro: online: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("# wrote {path}");
    }
    if let Some(dir) = json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: online: cannot create --json dir {dir}: {e}");
            return 2;
        }
        let path = format!("{dir}/online.json");
        let payload = match serde_json::to_string_pretty(&report) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("repro: online: cannot encode {path}: {e}");
                return 2;
            }
        };
        if let Err(e) = std::fs::write(&path, payload) {
            eprintln!("repro: online: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("# wrote {path}");
    }
    println!("{}", report.render());
    0
}

struct ServeCliOpts {
    socket: Option<String>,
    state_dir: Option<String>,
    queue_cap: Option<usize>,
    serve_workers: Option<usize>,
    stdio: bool,
    max_wall_secs: Option<u64>,
    throttle_ms: Option<u64>,
    isolation: String,
    seed: u64,
    repeats: u64,
    max_retries: u32,
    faults: Option<String>,
    poison_spec: Option<String>,
    disturb: Option<String>,
    recovery: RecoveryPolicy,
    workers: Option<usize>,
    cell_timeout_secs: Option<u64>,
    max_cell_attempts: Option<u32>,
    spawn_timeout_secs: Option<u64>,
    stderr_tail_bytes: Option<usize>,
}

/// The `serve` target: run the scheduling daemon until it drains.
/// Exit codes: 0 clean drain, 3 drained with quarantined cells,
/// 130 aborted drain (second signal), 2 startup error.
fn run_serve(harness: Harness, o: ServeCliOpts) -> i32 {
    install_signal_handlers();
    let mut ctrl = RunControl::unlimited().with_cancel(CancelToken::following_signals());
    if let Some(secs) = o.max_wall_secs {
        ctrl = ctrl.with_deadline_in(Duration::from_secs(secs));
    }
    if let Some(ms) = o.throttle_ms {
        ctrl = ctrl.with_throttle(Duration::from_millis(ms));
    }
    let mut backend = ServeBackend::new(harness);
    if let Some(dir) = &o.state_dir {
        backend = backend.with_state_dir(PathBuf::from(dir));
    }
    if o.isolation == "process" {
        let program: PathBuf = std::env::current_exe()
            .unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}")));
        let mut wargs = vec![
            "--cell-worker".to_string(),
            "--seed".to_string(),
            o.seed.to_string(),
            "--repeats".to_string(),
            o.repeats.to_string(),
            "--max-retries".to_string(),
            o.max_retries.to_string(),
        ];
        if let Some(desc) = &o.faults {
            wargs.push("--faults".to_string());
            wargs.push(desc.clone());
        }
        if let Some(spec) = &o.poison_spec {
            wargs.push("--poison".to_string());
            wargs.push(spec.clone());
        }
        if let Some(desc) = &o.disturb {
            wargs.push("--disturb".to_string());
            wargs.push(desc.clone());
            wargs.push("--recovery".to_string());
            wargs.push(o.recovery.to_string());
        }
        wargs.push("--worker-tag".to_string());
        wargs.push("serve".to_string());
        let opts = SuperviseOpts {
            repeats: o.repeats,
            workers: o.workers.unwrap_or(2),
            resume: false,
            cell_timeout: Duration::from_secs(o.cell_timeout_secs.unwrap_or(120)),
            spawn_timeout: Duration::from_secs(o.spawn_timeout_secs.unwrap_or(30)),
            stderr_tail_bytes: o.stderr_tail_bytes.unwrap_or(8 * 1024),
            config: SupervisorConfig {
                max_cell_attempts: o.max_cell_attempts.unwrap_or(2),
                ..SupervisorConfig::default()
            },
        };
        backend = backend.with_worker(
            WorkerCommand {
                program,
                args: wargs,
            },
            opts,
        );
    }
    let cfg = mps_core::serve::ServerConfig {
        server: "mps-serve".to_string(),
        queue_capacity: o.queue_cap.unwrap_or(16),
        executors: o.serve_workers.unwrap_or(2),
        ctrl,
        ..mps_core::serve::ServerConfig::default()
    };
    let server = mps_core::serve::Server::new(std::sync::Arc::new(backend), cfg);
    let result = if o.stdio {
        eprintln!(
            "# serving mps-proto/v1 on stdio ({} isolation)",
            o.isolation
        );
        server.run_stdio()
    } else {
        #[cfg(unix)]
        {
            let path = o.socket.as_deref().expect("validated: --socket or --stdio");
            eprintln!(
                "# serving mps-proto/v1 on {path} ({} isolation, queue {})",
                o.isolation,
                o.queue_cap.unwrap_or(16)
            );
            server.run_unix(Path::new(path))
        }
        #[cfg(not(unix))]
        {
            die("serve over a socket requires a Unix platform (use --stdio)")
        }
    };
    match result {
        Err(e) => {
            eprintln!("repro: serve: {e}");
            2
        }
        Ok(x) => {
            eprintln!(
                "# serve exit: {} served, {} shed, {} quarantined, {} recovered — {}",
                x.served,
                x.shed,
                x.quarantined,
                x.recovered,
                if x.interrupted {
                    "drain aborted"
                } else {
                    "drained clean"
                }
            );
            if x.interrupted {
                130
            } else if x.quarantined > 0 {
                EXIT_QUARANTINED
            } else {
                0
            }
        }
    }
}

/// Parses a `DAG:VARIANT:ALGO` request spec.
fn parse_cell_spec(spec: &str) -> (usize, String, String) {
    let parts: Vec<&str> = spec.split(':').collect();
    let [dag, variant, algo] = parts[..] else {
        die(&format!("bad spec {spec:?} (want DAG:VARIANT:ALGO)"));
    };
    let dag = dag
        .parse()
        .unwrap_or_else(|_| die(&format!("bad DAG index in {spec:?}")));
    (dag, variant.to_string(), algo.to_string())
}

/// The `client` target: submit work to a running daemon, stream cells
/// to stdout as `<key>\t<payload>` lines. Exit codes: 0 done, 2
/// connect/protocol error, 4 request failed, 5 overloaded, 6 draining.
#[allow(clippy::too_many_arguments)]
#[cfg(unix)]
fn run_client(
    socket: &str,
    repeats: u64,
    deadline_ms: Option<u64>,
    health: bool,
    schedule: Option<&str>,
    simulate: Option<&str>,
    subset_grid: Option<usize>,
    online: Option<&str>,
    horizon_events: Option<u64>,
    admission: Option<usize>,
    seed: u64,
    disturb: Option<String>,
    drain: bool,
) -> i32 {
    use mps_core::serve::client::connect_unix;
    use mps_core::serve::{RequestOutcome, WorkRequest};

    let (mut client, _cap) =
        match connect_unix(Path::new(socket), "repro-client", Duration::from_secs(10)) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("repro: client: {e}");
                return 2;
            }
        };
    let mut id = 0u64;
    let mut code = 0i32;

    if health {
        id += 1;
        match client.health(id) {
            Ok(stats) => match serde_json::to_string_pretty(&stats) {
                Ok(j) => println!("{j}"),
                Err(e) => {
                    eprintln!("repro: client: encode stats: {e}");
                    code = 2;
                }
            },
            Err(e) => {
                eprintln!("repro: client: health: {e}");
                return 2;
            }
        }
    }

    let mut work_items: Vec<WorkRequest> = Vec::new();
    if let Some(spec) = schedule {
        let (dag, variant, algo) = parse_cell_spec(spec);
        work_items.push(WorkRequest::Schedule { dag, variant, algo });
    }
    if let Some(spec) = simulate {
        let (dag, variant, algo) = parse_cell_spec(spec);
        work_items.push(WorkRequest::Simulate {
            dag,
            variant,
            algo,
            repeats,
            disturb: disturb.clone(),
        });
    }
    if let Some(take) = subset_grid {
        work_items.push(WorkRequest::SubsetGrid {
            take,
            repeats,
            disturb: disturb.clone(),
        });
    }
    if let Some(spec) = online {
        let (algo, arrival) = spec
            .split_once(':')
            .unwrap_or_else(|| die("bad --online spec (want ALGO:ARRIVAL, e.g. HCPA:0.05)"));
        work_items.push(WorkRequest::Online {
            arrival: arrival.to_string(),
            horizon_events: horizon_events.unwrap_or(1_000_000),
            seed,
            admission: admission.unwrap_or(64) as u64,
            algo: algo.to_string(),
        });
    }
    for work in &work_items {
        id += 1;
        let outcome = client.request(id, work, deadline_ms, &mut |key, payload| {
            println!("{key}\t{payload}");
        });
        match outcome {
            Ok(RequestOutcome::Done(summary)) => {
                eprintln!(
                    "# request {id}: {} cell(s) ({} resumed, {} computed, {} quarantined) — {}",
                    summary.cells,
                    summary.resumed,
                    summary.computed,
                    summary.quarantined,
                    summary.status
                );
            }
            Ok(RequestOutcome::Failed { error }) => {
                eprintln!("repro: client: request {id} failed: {error}");
                code = code.max(4);
            }
            Ok(RequestOutcome::Overloaded { retry_after_ms }) => {
                eprintln!("repro: client: overloaded — retry after {retry_after_ms} ms");
                code = code.max(5);
            }
            Ok(RequestOutcome::Draining) => {
                eprintln!("repro: client: server is draining");
                code = code.max(6);
            }
            Err(e) => {
                eprintln!("repro: client: {e}");
                return 2;
            }
        }
    }
    if drain {
        id += 1;
        if let Err(e) = client.drain(id) {
            eprintln!("repro: client: drain: {e}");
            return 2;
        }
        eprintln!("# drain acknowledged");
    }
    code
}

#[cfg(not(unix))]
#[allow(clippy::too_many_arguments)]
fn run_client(
    _socket: &str,
    _repeats: u64,
    _deadline_ms: Option<u64>,
    _health: bool,
    _schedule: Option<&str>,
    _simulate: Option<&str>,
    _subset_grid: Option<usize>,
    _online: Option<&str>,
    _horizon_events: Option<u64>,
    _admission: Option<usize>,
    _seed: u64,
    _disturb: Option<String>,
    _drain: bool,
) -> i32 {
    die("the client target requires a Unix platform")
}

/// `--help` text, to stdout (exit 0) — `die`'s short usage goes to
/// stderr with exit 2.
fn help_text() -> String {
    "repro — regenerate the paper's tables and figures, or run/query the
scheduling daemon.

usage: repro [FLAGS] [TARGET]...

targets:
  table1 fig1..fig8 table2 gantt ablations faultsweep grid all
  disturb  sweep platform-disturbance intensity 0..1: per point, a seeded
           plan of host crashes / slow windows / link degradations hits
           every testbed run; reports makespan degradation, rescue
           success rate, and HCPA-vs-MCPA verdict stability
  serve    run the mps-serve scheduling daemon (mps-proto/v1)
  client   submit work to a running daemon
  campaign fault-sweep campaign: many grid points, one journal each
  chaos    seeded I/O + wire fault-injection soak over every durability
           path (journal, campaign, daemon), with invariant checks
  online   streaming workload: a seeded arrival process (Poisson or
           bursty MMPP) feeds DAG jobs from the corpus through admission
           control into moldable HCPA/MCPA allocation on the incremental
           DES; reports throughput, utilization, P2-sketched latency
           quantiles, and verdict stability across load levels

grid flags:
  --seed S             harness seed (default 2011)
  --repeats R          testbed runs per cell (default 3)
  --json DIR           also write grid.json / grid.csv
  --faults PLAN        inject a fault plan (preset or clause list)
  --max-retries N      per-task retry budget under faults
  --disturb PLAN       inject a timed platform-disturbance plan into every
                       testbed run: `crash@T:HOST`, `slow@T1-T2:HOST:F`,
                       `degrade@T1-T2:HOST:F` clauses (`;`-separated, with
                       an optional `seed=S`), or a preset light|moderate|
                       heavy (a seeded plan at intensity .25/.5/1)
  --recovery MODE      reaction to a host crash stranding scheduled work:
                       failfast | retry | rescue (default; re-plans the
                       unfinished suffix on the surviving hosts)
  --subset N           only the first N corpus DAGs
  --workers N          worker threads / processes
  --journal PATH       crash-safe write-ahead journal for the grid
  --resume             continue an existing journal
  --max-wall-secs S    graceful checkpoint after S seconds
  --throttle-ms N      sleep N ms between cells (test kill windows)
  --isolation MODE     inproc (default) or process

supervision flags (require --isolation process):
  --cell-timeout-secs S    per-attempt wall budget, >= 1 (default 120)
  --max-cell-attempts N    strikes before quarantine, >= 1 (default 2)
  --spawn-timeout-secs S   worker spawn->handshake budget, 1..=600
                           (default 30)
  --stderr-tail-bytes N    worker stderr retained per crash report,
                           0..=1048576 (default 8192)
  --poison SPEC            poison matching cells (needle=panic|hang,...)

campaign flags (target: campaign):
  --campaign-dir DIR   campaign directory: point-NNNN.jl journals plus
                       a campaign.json progress manifest
  --points N           sweep points, fault intensity 0..1 (default 309:
                       309 x 324 cells crosses 100k on the full grid)
  (resume = re-invoke with the same arguments; complete points are
   no-ops, the first incomplete point resumes mid-grid. --subset,
   --repeats, --workers, --max-wall-secs, --throttle-ms apply.)

chaos flags (target: chaos):
  --episodes N         seeded episodes per soak (default 50); each cycles
                       journal/campaign/daemon under escalating fault
                       intensity, then targeted single-class episodes
  --chaos-dir DIR      scratch directory for episode journals (default:
                       a per-pid directory under the system temp dir)
  (--seed seeds the whole soak; a fixed seed reproduces the exact fault
   sequence. Exit 0 = every injected fault was absorbed or surfaced
   typed AND every fault class actually fired; exit 2 otherwise.)

online flags (target: online):
  --arrival-rate LIST  comma-separated load levels; each entry is a bare
                       Poisson rate (jobs/sim-second) or a full arrival
                       grammar string `poisson@R` / `mmpp@R0:R1:S0:S1`
                       (default 0.01,0.04,0.16: light, busy, overload)
  --horizon-events N   DES events per run before draining (default 1000000)
  --admission N        backlog+inflight cap; beyond it arrivals are shed
                       with EMA retry hints (default 64; 0 sheds all)
  --max-width N        widest host subset one job may claim (default 8)
  --batch N            steps between memory samples; flush granularity
                       only, the event trace is invariant to it
  --trace-out PATH     write the deterministic event/SLO trace (byte-
                       identical across repeats, batch sizes, --workers)
  (--seed seeds the arrival stream; --workers parallelizes across the
   level x algorithm run matrix; --json writes online.json)

serve flags (target: serve):
  --socket PATH        Unix socket to listen on
  --stdio              serve one connection over stdin/stdout instead
  --state DIR          journal every grid request under DIR: identical
                       resubmissions replay byte-identically, and a
                       restarted daemon finishes interrupted requests
  --queue-cap N        admission queue capacity, 1..=4096 (default 16)
  --serve-workers N    concurrent request executors, 1..=64 (default 2)
  --isolation process  run cells in supervised workers (needs --state);
                       poison requests are quarantined, not fatal
  --max-wall-secs S    drain and exit after S seconds

client flags (target: client):
  --socket PATH              daemon socket
  --schedule DAG:VAR:ALGO    one schedule (no testbed runs)
  --simulate DAG:VAR:ALGO    one full cell (--repeats testbed runs)
  --subset-grid N            first N DAGs x 3 variants x 2 algorithms
  --online ALGO:ARRIVAL      one streaming run (e.g. HCPA:0.05 or
                             MCPA:mmpp@8:0.5:10:40); --horizon-events
                             and --admission parameterize it, --seed
                             seeds the arrival stream; the daemon caps
                             the horizon at 20M events
  --deadline-ms N            per-request deadline
  --health                   print server statistics
  --drain                    ask the daemon to drain and exit
  (VAR: analytic|profile|empirical; ALGO: HCPA|MCPA; cells stream to
   stdout as <key><TAB><payload-json> lines)

exit codes:
  0 success / clean drain      2 usage or runtime error
  3 completed with quarantined cells
  4 client request failed      5 overloaded (retry hinted)
  6 server draining            130 interrupted
"
    .to_string()
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("usage: repro [--seed S] [--repeats R] [--json DIR] \\");
    eprintln!("             [--faults PLAN] [--max-retries N] \\");
    eprintln!("             [--disturb PLAN] [--recovery failfast|retry|rescue] \\");
    eprintln!("             [--journal PATH] [--resume] [--max-wall-secs S] \\");
    eprintln!("             [--subset N] [--workers N] [--throttle-ms N] \\");
    eprintln!("             [--isolation inproc|process] [--cell-timeout-secs S] \\");
    eprintln!("             [--max-cell-attempts N] [--poison SPEC] \\");
    eprintln!("             [table1 fig1 … fig8 table2 gantt ablations faultsweep");
    eprintln!("              disturb grid all]");
    eprintln!("  --faults PLAN: `seed=7; crash@0:0+30; slow@1:0*1.5; fail=0.02` or a");
    eprintln!("        preset: light | moderate | heavy");
    eprintln!("  --disturb PLAN: `crash@4:3; slow@2-10:5:1.5; degrade@0-8:1:2` or a");
    eprintln!("        preset: light | moderate | heavy (timed platform damage;");
    eprintln!("        --recovery picks the crash reaction, default rescue)");
    eprintln!("  --journal makes the grid crash-safe (write-ahead journal);");
    eprintln!("  --resume continues it, recomputing only missing cells.");
    eprintln!("  --isolation process runs cells in supervised child workers;");
    eprintln!("  poison cells are quarantined after --max-cell-attempts strikes.");
    eprintln!("  `repro serve|client` runs/queries the scheduling daemon —");
    eprintln!("  see `repro --help` for the full flag reference.");
    std::process::exit(2);
}
