//! Keystone supervision test: a grid campaign with one deterministic
//! panicker and one infinite-looper, run under `--isolation process`,
//! must complete with both poison cells quarantined (exit 3), leave every
//! healthy cell's journal record byte-identical to a clean in-process
//! run, and resume to a no-op. Also verifies that SIGINT during a
//! process-isolated run reaps every child worker before exiting 130 — no
//! orphans left holding the grid — and that hazards travel with the
//! work: a worker runs a cell under the grid's or the daemon request's
//! fault and disturbance plans exactly as the supervisor's process would.
//! The process runner is the one cell loop: its journal takes cells in
//! dispatch order, `--throttle-ms` paces it, a retired worker slot's cells
//! are finished by the live one, a quarantine does not lengthen the next
//! cell's respawn backoff, and a worker that cannot come up exhausts the
//! restart budget instead of crash-looping.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mps_core::journal::RunControl;
use mps_core::serve::{Backend, ServeError, WorkRequest, WorkSummary};
use mps_core::supervise::{SuperviseError, SupervisorConfig};
use mps_core::MpsError;
use mps_exp::{
    parse_poison_spec, CellOutcome, CellResult, GridStatus, Harness, ServeBackend, SuperviseOpts,
    WorkerCommand,
};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// A tiny 2-DAG subset (12 cells) with a fixed seed.
const GRID_ARGS: &[&str] = &["--seed", "7", "--repeats", "1", "--subset", "2"];

/// Exactly two poisoned cells, both on the first DAG (`…-s0`): its
/// analytic/HCPA cell panics deterministically, its analytic/MCPA cell
/// hangs forever.
const POISON: &str = "s0/n2000/analytic/HCPA=panic,s0/n2000/analytic/MCPA=hang";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-supervised-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_repro(extra: &[&str]) -> std::process::Output {
    Command::new(REPRO)
        .args(GRID_ARGS)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro")
}

/// Journal records (every line after the header) keyed by their cell key.
fn records_by_key(path: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).expect("read journal");
    text.lines()
        .skip(1)
        .map(|line| {
            let start = line.find("\"key\":\"").expect("record has a key") + 7;
            let end = start + line[start..].find('"').expect("key terminates");
            (line[start..end].to_string(), line.to_string())
        })
        .collect()
}

#[test]
fn poison_cells_quarantine_and_healthy_records_match_clean_run_bytewise() {
    let dir = scratch_dir("keystone");
    let clean_journal = dir.join("clean.jsonl");
    let poison_journal = dir.join("poison.jsonl");

    // Reference: a clean, in-process journaled run of the same campaign.
    let clean = run_repro(&["--journal", clean_journal.to_str().unwrap(), "grid"]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");

    // Hostile campaign under process isolation: the hanger is bounded by a
    // short per-cell timeout, the panicker by its own crash; both must be
    // retried once (default --max-cell-attempts 2) and then quarantined.
    let hostile = run_repro(&[
        "--journal",
        poison_journal.to_str().unwrap(),
        "--isolation",
        "process",
        "--cell-timeout-secs",
        "2",
        "--workers",
        "2",
        "--poison",
        POISON,
        "grid",
    ]);
    assert_eq!(
        hostile.status.code(),
        Some(3),
        "completed-with-quarantine must exit 3: {hostile:?}"
    );
    let stderr = String::from_utf8_lossy(&hostile.stderr);
    assert!(stderr.contains("2 quarantined"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&hostile.stdout);
    assert!(
        stdout.contains("crashed (exit 101)"),
        "panicker's exit status must be reported: {stdout}"
    );
    assert!(
        stdout.contains("timed out"),
        "hanger's timeout must be reported: {stdout}"
    );

    let manifest =
        std::fs::read_to_string(dir.join("poison.jsonl.manifest.json")).expect("manifest");
    assert!(manifest.contains("\"status\": \"complete\""), "{manifest}");
    assert!(manifest.contains("\"quarantined\": 2"), "{manifest}");

    // Every cell — poison included — has a durable record.
    let clean_records = records_by_key(&clean_journal);
    let poison_records = records_by_key(&poison_journal);
    assert_eq!(clean_records.len(), 12);
    assert_eq!(poison_records.len(), 12);

    // Healthy cells relayed through worker processes must serialize to
    // exactly the bytes the in-process runner wrote: same keys, same
    // record lines (f64s round-trip shortest-repr through the protocol).
    let poisoned_keys: Vec<&str> = poison_records
        .iter()
        .filter(|(_, line)| line.contains("Quarantined"))
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        poisoned_keys.len(),
        2,
        "exactly the two poison cells quarantine: {poisoned_keys:?}"
    );
    for (key, line) in &clean_records {
        if poisoned_keys.contains(&key.as_str()) {
            continue;
        }
        let twin = poison_records
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("healthy cell {key} missing from poison journal"));
        assert_eq!(
            line, &twin.1,
            "healthy cell {key} differs between inproc and process isolation"
        );
    }

    // Resume is a no-op: the quarantine records are honored, the poison
    // cells are NOT re-attempted (which would burn 2 more timeouts), and
    // the exit code still reports the quarantine.
    let t0 = Instant::now();
    let resume = run_repro(&[
        "--journal",
        poison_journal.to_str().unwrap(),
        "--isolation",
        "process",
        "--resume",
        "--cell-timeout-secs",
        "2",
        "--poison",
        POISON,
        "grid",
    ]);
    assert_eq!(resume.status.code(), Some(3), "resume: {resume:?}");
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(
        stderr.contains("12 cell(s) resumed, 0 computed"),
        "resume must recompute nothing: {stderr}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "no-op resume took {:?} — did it re-attempt the poison cells?",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PIDs of live `repro` cell workers tagged with `tag` (scanned from
/// /proc/\*/cmdline, where argv is NUL-separated).
#[cfg(unix)]
fn tagged_workers(tag: &str) -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let args: Vec<&[u8]> = cmdline.split(|&b| b == 0).collect();
        let has = |needle: &str| args.contains(&needle.as_bytes());
        if has("--cell-worker") && has(tag) {
            pids.push(pid);
        }
    }
    pids
}

#[cfg(unix)]
#[test]
fn sigint_reaps_every_child_worker_before_exiting_130() {
    let dir = scratch_dir("sigint-reap");
    let journal = dir.join("grid.jsonl");
    let jpath = journal.to_str().unwrap().to_string();

    // Every analytic cell hangs and the per-cell timeout is generous:
    // both workers wedge on poison cells and stay wedged until killed.
    let mut child = Command::new(REPRO)
        .args(GRID_ARGS)
        .args([
            "--journal",
            &jpath,
            "--isolation",
            "process",
            "--cell-timeout-secs",
            "300",
            "--workers",
            "2",
            "--poison",
            "analytic=hang",
            "grid",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn supervisor");

    // Wait until both child workers are alive and visible in /proc.
    let start = Instant::now();
    let workers = loop {
        let w = tagged_workers(&jpath);
        if w.len() >= 2 {
            break w;
        }
        if start.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            panic!("workers never appeared (saw {w:?})");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(workers.len() >= 2, "expected 2 workers, saw {workers:?}");

    let int = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(int.success(), "kill -INT failed");
    let status = child.wait().expect("wait supervisor");
    assert_eq!(
        status.code(),
        Some(130),
        "expected exit 130, got {status:?}"
    );

    // By the time the supervisor has exited, every worker it spawned must
    // be dead and reaped — give the kernel a beat to recycle the PIDs.
    let start = Instant::now();
    let orphans = loop {
        let left = tagged_workers(&jpath);
        if left.is_empty() || start.elapsed() > Duration::from_secs(10) {
            break left;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        orphans.is_empty(),
        "supervisor exited but left orphan workers: {orphans:?}"
    );

    let manifest = std::fs::read_to_string(dir.join("grid.jsonl.manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"status\": \"interrupted\""),
        "{manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `config_digest` field of a journal's header line.
fn header_digest(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read journal");
    let header = text.lines().next().expect("journal has a header");
    let start = header
        .find("\"config_digest\":\"")
        .expect("header has a digest")
        + 17;
    header[start..start + 16].to_string()
}

/// A fault plan and a disturbance plan reach the worker processes: the
/// process-isolated journaled grid writes the in-process journaled grid's
/// records, byte for byte and in the same order, under the same config
/// digest. Cells reach the journal in dispatch order, whichever worker
/// finishes first, so a second two-worker run writes the same bytes.
#[test]
fn hazards_reach_the_workers_and_records_match_the_inproc_run_bytewise() {
    let dir = scratch_dir("hazards");
    let hazards = ["--disturb", "seed=42;moderate", "--faults", "light"];
    let run = |journal: &Path, isolation: &[&str]| {
        let journal = journal.to_str().unwrap();
        let out = run_repro(&[&hazards[..], isolation, &["--journal", journal, "grid"]].concat());
        assert!(out.status.success(), "{isolation:?}: {out:?}");
    };
    let inproc = dir.join("inproc.jsonl");
    let process = [dir.join("process-1.jsonl"), dir.join("process-2.jsonl")];
    run(&inproc, &[]);
    for journal in &process {
        run(journal, &["--isolation", "process", "--workers", "2"]);
    }

    let want = records_by_key(&inproc);
    let got = records_by_key(&process[0]);
    assert_eq!(want.len(), 12);
    assert!(
        want.iter().any(|(_, line)| line.contains("Disturbed")),
        "the disturbance plan must fire"
    );
    assert_eq!(got, want, "worker cells differ from in-process cells");
    assert_eq!(header_digest(&process[0]), header_digest(&inproc));
    let bytes = |path: &Path| std::fs::read(path).expect("read journal");
    assert!(
        bytes(&process[0]) == bytes(&process[1]),
        "two identical runs wrote different journals"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--throttle-ms` paces a process-isolated grid as it paces an
/// in-process one: one pause after each of the DAG's six cells.
#[test]
fn the_throttle_paces_process_isolated_cells() {
    const THROTTLE_MS: u64 = 500;
    let dir = scratch_dir("throttle");
    let journal = dir.join("grid.jsonl");
    let start = Instant::now();
    let args = format!(
        "--seed 7 --repeats 1 --subset 1 --workers 1 --isolation process --throttle-ms {THROTTLE_MS}"
    );
    let out = Command::new(REPRO)
        .args(args.split(' '))
        .args(["--journal", journal.to_str().unwrap(), "grid"])
        .output()
        .expect("spawn repro");
    let took = start.elapsed();
    assert!(out.status.success(), "{out:?}");
    assert!(
        took >= Duration::from_millis(6 * THROTTLE_MS),
        "six throttled cells took {took:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker slot whose respawn the restart budget cannot cover retires,
/// and the live slot finishes its cells. The poisoned cell spends the one
/// respawn and quarantines; its slot then retires after a 2 s backoff,
/// by when the other slot has usually run out of work and waits for the
/// handed-back cells instead of leaving.
#[test]
fn a_retired_slots_cells_are_finished_by_the_live_slot() {
    let dir = scratch_dir("retire");
    let worker = WorkerCommand {
        program: REPRO.into(),
        args: ["--cell-worker", "--seed", "7", "--worker-tag", "retire"]
            .map(String::from)
            .to_vec(),
    };
    let backoff = Duration::from_secs(2);
    let opts = SuperviseOpts {
        workers: 2,
        cell_timeout: Duration::from_secs(120),
        config: SupervisorConfig {
            max_cell_attempts: 2,
            restart_budget: 1,
            backoff_base: backoff,
            backoff_cap: backoff,
        },
    };
    let poison = parse_poison_spec("s0/n2000/analytic/HCPA=panic").unwrap();
    let harness = Harness::new(7).with_poison(poison);
    let ctrl = RunControl::unlimited();
    let grid = harness
        .run_supervised(
            Some(2),
            &dir.join("grid.jsonl"),
            1,
            false,
            &worker,
            &opts,
            &ctrl,
        )
        .expect("the live slot finishes the retired slot's cells");
    assert_eq!(grid.status, GridStatus::Complete);
    assert_eq!((grid.computed, grid.quarantined), (12, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantined cell's deaths are its own: the slot's next respawn is
/// still charged to the restart budget, but it backs off from the base
/// again. One worker runs the first DAG, whose two analytic cells panic,
/// so its four respawns wait 1 + 1 + 2 + 1 = 5 s at a 1 s base; a death
/// count carried across cells would wait 1 + 2 + 4 + 8 = 15 s.
#[test]
fn a_quarantined_cells_deaths_do_not_lengthen_the_next_backoff() {
    let dir = scratch_dir("backoff");
    let worker = WorkerCommand {
        program: REPRO.into(),
        args: ["--cell-worker", "--seed", "7", "--worker-tag", "backoff"]
            .map(String::from)
            .to_vec(),
    };
    let opts = SuperviseOpts {
        workers: 1,
        cell_timeout: Duration::from_secs(120),
        config: SupervisorConfig {
            max_cell_attempts: 2,
            restart_budget: 16,
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(60),
        },
    };
    let poison =
        parse_poison_spec("s0/n2000/analytic/HCPA=panic,s0/n2000/analytic/MCPA=panic").unwrap();
    let harness = Harness::new(7).with_poison(poison);
    let ctrl = RunControl::unlimited();
    let start = Instant::now();
    let grid = harness
        .run_supervised(
            Some(1),
            &dir.join("grid.jsonl"),
            1,
            false,
            &worker,
            &opts,
            &ctrl,
        )
        .expect("both poison cells quarantine");
    let took = start.elapsed();
    assert_eq!(grid.status, GridStatus::Complete);
    assert_eq!((grid.computed, grid.quarantined), (6, 2));
    assert!(
        (Duration::from_secs(5)..Duration::from_secs(11)).contains(&took),
        "four respawns took {took:?}: 5 s of backoff expected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// PIDs of this process's children whose command name is `comm`, zombies
/// included (from /proc/\*/stat: `pid (comm) state ppid …`).
#[cfg(unix)]
fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id();
    let mut pids = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        let Some((head, rest)) = stat.rsplit_once(") ") else {
            continue;
        };
        let ppid = rest.split(' ').nth(1).and_then(|p| p.parse::<u32>().ok());
        if head.split_once(" (").map(|(_, name)| name) == Some(comm) && ppid == Some(me) {
            pids.push(pid);
        }
    }
    pids
}

/// A worker that exits at once never says hello: every respawn is charged
/// to the restart budget and no cell is, and once the budget is spent the
/// run fails typed, promptly, with every child reaped.
#[cfg(unix)]
#[test]
fn a_worker_that_exits_at_once_exhausts_the_restart_budget() {
    let dir = scratch_dir("exhausted");
    let worker = WorkerCommand {
        program: "/bin/sh".into(),
        args: vec!["-c".to_string(), "exit 3".to_string()],
    };
    let opts = SuperviseOpts {
        workers: 1,
        cell_timeout: Duration::from_secs(30),
        config: SupervisorConfig {
            restart_budget: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(1),
            ..SupervisorConfig::default()
        },
    };
    let harness = Harness::new(7);
    let ctrl = RunControl::unlimited();
    let start = Instant::now();
    let ran = harness.run_supervised(
        Some(1),
        &dir.join("grid.jsonl"),
        1,
        false,
        &worker,
        &opts,
        &ctrl,
    );
    let took = start.elapsed();
    assert!(
        matches!(
            ran,
            Err(MpsError::Supervise(
                SuperviseError::RestartBudgetExhausted { restarts: 3, .. }
            ))
        ),
        "{ran:?}"
    );
    assert!(took < Duration::from_secs(30), "gave up after {took:?}");
    let left = children_named("sh");
    assert!(left.is_empty(), "children left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon backend whose cells run in `repro` cell workers, one at a
/// time, each attempt bounded by `cell_timeout`, quarantined on the
/// first strike.
fn isolated_backend(harness: Harness, tag: &str, cell_timeout: Duration) -> ServeBackend {
    let worker = WorkerCommand {
        program: REPRO.into(),
        args: ["--cell-worker", "--seed", "7", "--worker-tag", tag]
            .map(String::from)
            .to_vec(),
    };
    let opts = SuperviseOpts {
        workers: 1,
        cell_timeout,
        config: SupervisorConfig {
            max_cell_attempts: 1,
            ..SupervisorConfig::default()
        },
    };
    ServeBackend::new(harness)
        .with_state_dir(scratch_dir(tag))
        .with_worker(worker, opts)
}

/// Runs `work` and collects its streamed `(key, payload)` cells.
fn served(
    backend: &ServeBackend,
    work: &WorkRequest,
) -> Result<(WorkSummary, Vec<(String, String)>), ServeError> {
    let mut cells = Vec::new();
    let summary = backend.execute(work, &RunControl::unlimited(), &mut |k, p| {
        cells.push((k.to_string(), p.to_string()));
        true
    })?;
    Ok((summary, cells))
}

/// A `Simulate` request on a process-isolated daemon runs in a worker:
/// a hanging cell comes back as a quarantined `TimedOut` cell at its
/// timeout instead of wedging the executor, and the next request is
/// served.
#[test]
fn a_hanging_simulate_request_times_out_in_a_worker_and_the_next_is_served() {
    let poison = parse_poison_spec("analytic/HCPA=hang").unwrap();
    let harness = Harness::new(7).with_poison(poison);
    let timeout = Duration::from_secs(2);
    let backend = Arc::new(isolated_backend(harness, "simulate-hang", timeout));
    let simulate = |algo: &str| WorkRequest::Simulate {
        dag: 0,
        variant: "analytic".to_string(),
        algo: algo.to_string(),
        repeats: 1,
        disturb: None,
    };
    let (tx, rx) = mpsc::channel();
    let requests = [simulate("HCPA"), simulate("MCPA")];
    let client = Arc::clone(&backend);
    // Run on a thread of its own: a cell that hangs in this process never
    // returns, and the bounded waits below fail the test instead.
    std::thread::spawn(move || {
        for work in &requests {
            let start = Instant::now();
            let _ = tx.send((served(&client, work), start.elapsed()));
        }
    });
    // A worker spawn (profiling the testbed) plus the cell timeout.
    let bound = Duration::from_secs(120);
    let (hung, took) = rx
        .recv_timeout(bound)
        .expect("the hanging cell wedged the executor");
    let (summary, cells) = hung.expect("the hanging request fails typed, not in-band");
    assert_eq!((summary.cells, summary.quarantined), (1, 1));
    let cell: CellResult = serde_json::from_str(&cells[0].1).unwrap();
    assert!(
        matches!(cell.outcome, CellOutcome::TimedOut { .. }),
        "{:?}",
        cell.outcome
    );
    assert!(
        took >= timeout,
        "quarantined after {took:?}, before the timeout"
    );

    let (next, _) = rx
        .recv_timeout(bound)
        .expect("the next request was not served");
    let (summary, cells) = next.expect("the next request is served");
    assert_eq!((summary.cells, summary.quarantined), (1, 0));
    let cell: CellResult = serde_json::from_str(&cells[0].1).unwrap();
    assert!(cell.succeeded() && cell.real_makespan > 0.0, "{cell:?}");
}

/// A grid request's own disturbance plan reaches the workers of a
/// process-isolated daemon: it streams the in-process daemon's payloads.
#[test]
fn a_per_request_disturbance_plan_reaches_the_daemon_workers() {
    let work = WorkRequest::SubsetGrid {
        take: 1,
        repeats: 1,
        disturb: Some("seed=42;moderate".to_string()),
    };
    let (_, mut want) = served(&ServeBackend::new(Harness::new(7)), &work).unwrap();
    let backend = isolated_backend(Harness::new(7), "subset-disturb", Duration::from_secs(120));
    let (summary, mut got) = served(&backend, &work).expect("the isolated daemon serves it");
    assert_eq!((summary.cells, summary.quarantined), (6, 0));
    assert!(summary.disturbed > 0, "the request's plan must fire");
    want.sort();
    got.sort();
    assert_eq!(got, want);
}
