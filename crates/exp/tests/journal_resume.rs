//! Keystone crash-recovery test: a journaled grid run killed mid-flight
//! (SIGKILL — no chance to clean up) must resume to a grid that is
//! byte-for-byte identical to an uninterrupted run. Also exercises the
//! graceful SIGINT drain path end-to-end through the `repro` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// Common flags: a tiny 3-DAG subset (18 cells) with a fixed seed.
const GRID_ARGS: &[&str] = &["--seed", "7", "--repeats", "1", "--subset", "3"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-journal-resume-{}-{tag}", std::process::id()));
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

/// Count full (newline-terminated) journal lines, tolerating the file not
/// existing yet.
fn journal_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|b| b.iter().filter(|&&c| c == b'\n').count())
        .unwrap_or(0)
}

/// Poll until the journal holds at least `want` full lines (header + records)
/// or the timeout elapses. Returns the observed count.
fn wait_for_lines(path: &Path, want: usize, timeout: Duration) -> usize {
    let start = Instant::now();
    loop {
        let n = journal_lines(path);
        if n >= want || start.elapsed() > timeout {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killed_mid_flight_then_resumed_grid_is_byte_identical_to_clean_run() {
    let dir = scratch_dir("kill9");
    let clean_out = dir.join("clean");
    let resumed_out = dir.join("resumed");
    let journal = dir.join("grid.jsonl");

    // Reference: one uninterrupted, unjournaled run, on its own worker
    // count (the grid is the same for any).
    let clean = run_repro(&[
        "--workers",
        "3",
        "--json",
        clean_out.to_str().unwrap(),
        "grid",
    ]);
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    assert!(
        String::from_utf8_lossy(&clean.stderr).contains("3 worker(s)"),
        "the in-memory grid must run on --workers: {clean:?}"
    );

    // Victim: journaled run, throttled so the kill lands mid-grid, then
    // SIGKILLed — the hardest crash, no drain, no manifest update.
    let mut child = Command::new(REPRO)
        .args(GRID_ARGS)
        .args([
            "--journal",
            journal.to_str().unwrap(),
            "--throttle-ms",
            "150",
            "--workers",
            "2",
            "grid",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let seen = wait_for_lines(&journal, 4, Duration::from_secs(60));
    child.kill().expect("kill");
    let _ = child.wait();
    assert!(seen >= 4, "victim never wrote 4 journal lines (saw {seen})");
    let after_kill = journal_lines(&journal);
    assert!(
        after_kill < 19, // header + 18 cells ⇒ it really died mid-flight
        "victim finished before the kill ({after_kill} lines) — widen throttle"
    );

    // Make the crash worse: append a torn half-record to the tail, as if the
    // kill had landed mid-`write`.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("open journal for tearing");
        f.write_all(b"{\"sum\":\"dead\",\"key\":\"torn/half")
            .expect("tear");
    }

    // Resume: salvages the intact prefix, recomputes only missing cells.
    let resume = run_repro(&[
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        "--json",
        resumed_out.to_str().unwrap(),
        "grid",
    ]);
    assert!(resume.status.success(), "resume failed: {resume:?}");
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert!(stderr.contains("resumed"), "no resume report in: {stderr}");
    assert!(stderr.contains("torn tail"), "tear not reported: {stderr}");

    // The merged grid must match the uninterrupted run byte for byte.
    let clean_grid = std::fs::read(clean_out.join("grid.json")).expect("clean grid.json");
    let resumed_grid = std::fs::read(resumed_out.join("grid.json")).expect("resumed grid.json");
    assert_eq!(
        clean_grid, resumed_grid,
        "resumed grid differs from clean run"
    );

    let manifest = std::fs::read_to_string(dir.join("grid.jsonl.manifest.json")).expect("manifest");
    assert!(manifest.contains("\"status\": \"complete\""), "{manifest}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disturbed_grid_killed_mid_flight_resumes_byte_identically() {
    // The keystone acceptance path for rescue rescheduling: a grid whose
    // platform loses host 0 one second into every testbed run, under
    // `--recovery rescue`, still completes every cell — and a SIGKILLed
    // journaled run of the same grid resumes to a byte-identical result,
    // disturbance report included.
    let dir = scratch_dir("disturb");
    let clean_out = dir.join("clean");
    let resumed_out = dir.join("resumed");
    let journal = dir.join("grid.jsonl");
    const DISTURB: &[&str] = &["--disturb", "crash@1:0", "--recovery", "rescue"];

    // Reference: an uninterrupted, unjournaled disturbed run.
    let clean = run_repro(&[DISTURB, &["--json", clean_out.to_str().unwrap(), "grid"]].concat());
    assert!(
        clean.status.success(),
        "clean disturbed run failed: {clean:?}"
    );
    let stderr = String::from_utf8_lossy(&clean.stderr);
    assert!(
        stderr.contains("rescue(s)"),
        "no rescue accounting in: {stderr}"
    );
    let clean_grid = std::fs::read(clean_out.join("grid.json")).expect("clean grid.json");
    assert!(
        String::from_utf8_lossy(&clean_grid).contains("Disturbed"),
        "clean disturbed grid records no disturbance"
    );

    // Victim: the same grid journaled and throttled, SIGKILLed mid-flight.
    let mut child = Command::new(REPRO)
        .args(GRID_ARGS)
        .args(DISTURB)
        .args([
            "--journal",
            journal.to_str().unwrap(),
            "--throttle-ms",
            "150",
            "--workers",
            "2",
            "grid",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let seen = wait_for_lines(&journal, 4, Duration::from_secs(60));
    child.kill().expect("kill");
    let _ = child.wait();
    assert!(seen >= 4, "victim never wrote 4 journal lines (saw {seen})");
    assert!(
        journal_lines(&journal) < 19,
        "victim finished before the kill — widen throttle"
    );

    // Resume with the same plan: salvage the prefix, finish the rest.
    let resume = run_repro(
        &[
            DISTURB,
            &[
                "--journal",
                journal.to_str().unwrap(),
                "--resume",
                "--json",
                resumed_out.to_str().unwrap(),
                "grid",
            ],
        ]
        .concat(),
    );
    assert!(resume.status.success(), "resume failed: {resume:?}");
    let resumed_grid = std::fs::read(resumed_out.join("grid.json")).expect("resumed grid.json");
    assert_eq!(
        clean_grid, resumed_grid,
        "resumed disturbed grid differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigint_drains_in_flight_cells_and_checkpoints() {
    let dir = scratch_dir("sigint");
    let journal = dir.join("grid.jsonl");

    let mut child = Command::new(REPRO)
        .args(GRID_ARGS)
        .args([
            "--journal",
            journal.to_str().unwrap(),
            "--throttle-ms",
            "200",
            "--workers",
            "1",
            "grid",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let seen = wait_for_lines(&journal, 3, Duration::from_secs(60));
    assert!(seen >= 3, "victim never wrote 3 journal lines (saw {seen})");
    let int = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    assert!(int.success(), "kill -INT failed");
    let status = child.wait().expect("wait victim");
    // The drain is graceful: in-flight cells finish, the journal flushes,
    // and the process exits 130 with an "interrupted" manifest.
    assert_eq!(
        status.code(),
        Some(130),
        "expected exit 130, got {status:?}"
    );
    let manifest = std::fs::read_to_string(dir.join("grid.jsonl.manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"status\": \"interrupted\""),
        "{manifest}"
    );
    let records = journal_lines(&journal);
    assert!(
        (2..19).contains(&records),
        "checkpoint should be partial, saw {records} lines"
    );

    // And the checkpoint is usable: resume completes the campaign.
    let resume = run_repro(&["--journal", journal.to_str().unwrap(), "--resume", "grid"]);
    assert!(resume.status.success(), "resume failed: {resume:?}");
    let manifest = std::fs::read_to_string(dir.join("grid.jsonl.manifest.json")).expect("manifest");
    assert!(manifest.contains("\"status\": \"complete\""), "{manifest}");
    assert_eq!(journal_lines(&journal), 19, "header + 18 cells");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written under the retired `--isolation process` mode (its
/// header says `"isolation":"process"`) resumes in process: every cell is
/// a durable record, so nothing is recomputed and no byte changes.
#[test]
fn a_process_isolated_journal_resumes_in_process_unchanged() {
    const FIXTURE: &[u8] = include_bytes!("process_isolation.jl");
    let dir = scratch_dir("process-fixture");
    let journal = dir.join("grid.jl");
    std::fs::write(&journal, FIXTURE).expect("write fixture");
    let out = Command::new(REPRO)
        .args([
            "--seed",
            "7",
            "--repeats",
            "1",
            "--subset",
            "1",
            "--journal",
        ])
        .arg(&journal)
        .args(["--resume", "grid"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed: {stderr}");
    assert!(
        stderr.contains("6 cell(s) resumed, 0 computed"),
        "expected a pure resume: {stderr}"
    );
    assert_eq!(
        std::fs::read(&journal).expect("read journal"),
        FIXTURE,
        "resuming rewrote the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
