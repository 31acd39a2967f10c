//! Keystone resilience tests for the `repro serve` daemon, end-to-end
//! through the real binary and a real Unix socket:
//!
//! * a daemon SIGKILLed mid-request finishes the journaled work at next
//!   startup, and a resubmission of the same request streams a
//!   byte-identical result;
//! * SIGTERM mid-request is a *graceful* drain: admitted work finishes,
//!   the journal completes, and the exit code says clean.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-serve-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_serve(socket: &Path, state: &Path, extra: &[&str]) -> Child {
    Command::new(REPRO)
        .args(["--seed", "7", "serve", "--socket"])
        .arg(socket)
        .arg("--state")
        .arg(state)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve")
}

/// Waits until the daemon's socket file exists. The daemon binds and
/// listens in one call, so from then on it accepts; the client connects
/// once and fails at once if the file is missing.
fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn client(socket: &Path, extra: &[&str]) -> std::process::Output {
    wait_for_socket(socket);
    Command::new(REPRO)
        .args(["--repeats", "1", "client", "--socket"])
        .arg(socket)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("run client")
}

/// The request journal the daemon created under `state` (one request ⇒
/// one `req-*.jl`), or `None` until it exists.
fn request_journal(state: &Path) -> Option<PathBuf> {
    std::fs::read_dir(state)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "jl"))
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|b| b.iter().filter(|&&c| c == b'\n').count())
        .unwrap_or(0)
}

#[test]
fn daemon_sigkilled_mid_request_recovers_and_replays_byte_identically() {
    let dir = scratch_dir("kill9");
    let socket = dir.join("mps.sock");

    // Baseline: an uninterrupted daemon serving the same request.
    let state_a = dir.join("state-a");
    let mut daemon = spawn_serve(&socket, &state_a, &[]);
    let baseline = client(&socket, &["--subset-grid", "1"]);
    assert!(
        baseline.status.success(),
        "baseline request failed: {baseline:?}"
    );
    assert!(client(&socket, &["--drain"]).status.success());
    assert!(daemon.wait().expect("baseline daemon").success());
    let baseline_cells = baseline.stdout;
    assert_eq!(
        baseline_cells.iter().filter(|&&c| c == b'\n').count(),
        6,
        "1-DAG subset grid streams 6 cells"
    );

    // Victim: same request against a throttled daemon, SIGKILLed once the
    // journal shows the request is genuinely mid-flight.
    let state_b = dir.join("state-b");
    let mut victim = spawn_serve(&socket, &state_b, &["--throttle-ms", "150"]);
    wait_for_socket(&socket);
    let mut inflight = Command::new(REPRO)
        .args(["--repeats", "1", "client", "--socket"])
        .arg(&socket)
        .args(["--subset-grid", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn in-flight client");
    let deadline = Instant::now() + Duration::from_secs(120);
    let journal = loop {
        if let Some(j) = request_journal(&state_b) {
            // Header + at least 2 records: mid-flight, not just created.
            if journal_lines(&j) >= 3 {
                break j;
            }
        }
        assert!(Instant::now() < deadline, "victim never got mid-flight");
        std::thread::sleep(Duration::from_millis(10));
    };
    victim.kill().expect("SIGKILL daemon");
    let _ = victim.wait();
    let _ = inflight.wait();
    // A killed daemon leaves its socket file behind; the revived one
    // replaces it, but only after its startup recovery, so the stale file
    // goes first and the next client waits for the new one.
    std::fs::remove_file(&socket).expect("stale socket");
    let lines_after_kill = journal_lines(&journal);
    assert!(
        lines_after_kill < 7, // header + 6 cells ⇒ it really died early
        "victim finished before the kill ({lines_after_kill} lines)"
    );

    // Restart on the same state dir: startup recovery must finish the
    // journaled request before the daemon accepts connections.
    let mut revived = spawn_serve(&socket, &state_b, &[]);
    let health = client(&socket, &["--health"]);
    assert!(health.status.success(), "health failed: {health:?}");
    let stats = String::from_utf8_lossy(&health.stdout).to_string();
    assert!(
        stats.contains("\"recovered\": 1"),
        "startup recovery not reported: {stats}"
    );
    let manifest =
        std::fs::read_to_string(journal.with_extension("jl.manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"status\": \"complete\""),
        "recovery left the journal incomplete: {manifest}"
    );

    // Resubmission: all six cells replay from the journal, and the
    // stream is byte-identical to the uninterrupted baseline.
    let replay = client(&socket, &["--subset-grid", "1"]);
    assert!(replay.status.success(), "replay failed: {replay:?}");
    let summary = String::from_utf8_lossy(&replay.stderr).to_string();
    assert!(
        summary.contains("(6 resumed, 0 computed"),
        "expected a pure replay: {summary}"
    );
    assert_eq!(
        replay.stdout, baseline_cells,
        "replayed stream differs from the uninterrupted baseline"
    );

    assert!(client(&socket, &["--drain"]).status.success());
    assert!(revived.wait().expect("revived daemon").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disturbed_request_rescues_streams_and_replays_byte_identically() {
    let dir = scratch_dir("disturb");
    let socket = dir.join("mps.sock");
    let state = dir.join("state");
    let mut daemon = spawn_serve(&socket, &state, &[]);

    // A request carrying its own disturbance plan: host 0 dies 1 s into
    // every testbed run; rescue rescheduling must still measure all six
    // cells, and the stream must say so.
    let disturbed = client(&socket, &["--subset-grid", "1", "--disturb", "crash@1:0"]);
    assert!(
        disturbed.status.success(),
        "disturbed request failed: {disturbed:?}"
    );
    assert_eq!(
        disturbed.stdout.iter().filter(|&&c| c == b'\n').count(),
        6,
        "disturbed 1-DAG subset grid still streams 6 cells"
    );
    let cells = String::from_utf8_lossy(&disturbed.stdout).to_string();
    assert!(
        cells.contains("Disturbed"),
        "no cell recorded the disturbance: {cells}"
    );

    // The daemon's health must expose the disturbance counters.
    let health = client(&socket, &["--health"]);
    assert!(health.status.success(), "health failed: {health:?}");
    let stats = String::from_utf8_lossy(&health.stdout).to_string();
    assert!(
        stats.contains("\"disturbed\": 6"),
        "health does not count disturbed cells: {stats}"
    );
    assert!(
        !stats.contains("\"rescues\": 0"),
        "health does not count rescues: {stats}"
    );

    // Identical resubmission: a pure journal replay, byte for byte.
    let replay = client(&socket, &["--subset-grid", "1", "--disturb", "crash@1:0"]);
    assert!(replay.status.success(), "replay failed: {replay:?}");
    let summary = String::from_utf8_lossy(&replay.stderr).to_string();
    assert!(
        summary.contains("(6 resumed, 0 computed"),
        "expected a pure replay: {summary}"
    );
    assert_eq!(
        replay.stdout, disturbed.stdout,
        "replayed disturbed stream differs"
    );

    // The undisturbed request keys a different journal and never sees
    // the plan.
    let plain = client(&socket, &["--subset-grid", "1"]);
    assert!(plain.status.success(), "plain request failed: {plain:?}");
    assert!(
        !String::from_utf8_lossy(&plain.stdout).contains("Disturbed"),
        "undisturbed request picked up the disturbance plan"
    );
    assert_ne!(
        plain.stdout, disturbed.stdout,
        "disturbed and undisturbed requests cannot share a journal"
    );

    assert!(client(&socket, &["--drain"]).status.success());
    assert!(daemon.wait().expect("daemon").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_online_request_streams_one_deterministic_cell_and_updates_latency_stats() {
    let dir = scratch_dir("online");
    let socket = dir.join("mps.sock");
    let state = dir.join("state");
    let mut daemon = spawn_serve(&socket, &state, &[]);

    let run = |seed: &str| {
        wait_for_socket(&socket);
        Command::new(REPRO)
            .args(["--seed", seed, "client", "--socket"])
            .arg(&socket)
            .args(["--online", "HCPA:0.05", "--horizon-events", "20000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .output()
            .expect("run online client")
    };
    let first = run("11");
    assert!(first.status.success(), "online request failed: {first:?}");
    let cells = String::from_utf8_lossy(&first.stdout).to_string();
    assert_eq!(
        first.stdout.iter().filter(|&&c| c == b'\n').count(),
        1,
        "an online request streams exactly one cell: {cells}"
    );
    assert!(
        cells.starts_with("online/poisson@0.05/HCPA/seed11/h20000\t"),
        "unexpected cell key: {cells}"
    );
    assert!(
        cells.contains("\"completed\"") && cells.contains("\"latency_p99_ms\""),
        "payload is not an OnlineRun: {cells}"
    );

    // Same seed + spec ⇒ byte-identical payload, daemon-side too.
    let second = run("11");
    assert_eq!(
        second.stdout, first.stdout,
        "online request is not deterministic across submissions"
    );
    // A different seed keys a different cell.
    let other = run("12");
    assert_ne!(other.stdout, first.stdout);

    // Served requests must surface per-request latency quantiles.
    let health = client(&socket, &["--health"]);
    assert!(health.status.success(), "health failed: {health:?}");
    let stats = String::from_utf8_lossy(&health.stdout).to_string();
    assert!(
        stats.contains("\"p50_service_ms\"") && stats.contains("\"p99_service_ms\""),
        "health lacks service-latency quantiles: {stats}"
    );

    assert!(client(&socket, &["--drain"]).status.success());
    assert!(daemon.wait().expect("daemon").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_mid_request_drains_gracefully_and_completes_the_journal() {
    let dir = scratch_dir("sigterm");
    let socket = dir.join("mps.sock");
    let state = dir.join("state");

    let mut daemon = spawn_serve(&socket, &state, &["--throttle-ms", "100"]);
    wait_for_socket(&socket);
    let inflight = Command::new(REPRO)
        .args(["--repeats", "1", "client", "--socket"])
        .arg(&socket)
        .args(["--subset-grid", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn in-flight client");

    // Wait until the request is mid-flight, then SIGTERM the daemon.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(j) = request_journal(&state) {
            if journal_lines(&j) >= 3 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "request never got mid-flight");
        std::thread::sleep(Duration::from_millis(10));
    }
    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // Graceful drain: the admitted request finishes (the client sees all
    // six cells and a complete summary), the journal completes, and the
    // daemon exits clean.
    let inflight = inflight.wait_with_output().expect("in-flight client");
    assert!(
        inflight.status.success(),
        "in-flight client failed: {inflight:?}"
    );
    assert_eq!(
        inflight.stdout.iter().filter(|&&c| c == b'\n').count(),
        6,
        "drain must let the admitted request finish"
    );
    let status = daemon.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
    let journal = request_journal(&state).expect("request journal exists");
    let manifest =
        std::fs::read_to_string(journal.with_extension("jl.manifest.json")).expect("manifest");
    assert!(
        manifest.contains("\"status\": \"complete\""),
        "drain left the journal incomplete: {manifest}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
