//! The chaos soak: seeded episodes of {journal grid, campaign, serve
//! session} under escalating injected fault intensity, then one
//! targeted episode per fault class, with an invariant checker per
//! episode. Tier-1 runs it: `cargo test -p mps-exp --test chaos_soak`.
//!
//! Invariants (violations are collected, the driver never panics):
//!
//! 1. **Typed failure or clean completion** — every episode either
//!    completes with the exact uninterrupted-run result or fails with a
//!    typed error *while having injected at least one fault*.
//! 2. **Byte-identical resume** — after any injected failure, a real-disk
//!    resume salvages the longest intact journal prefix and finishes to a
//!    grid byte-identical to a run the faults never touched.
//! 3. **No partial manifest** — journal and campaign manifests read back
//!    wholly old, wholly new, or absent; never a misparse, never a panic.
//! 4. **The daemon neither deadlocks nor exits untyped** — every serve
//!    episode's daemon drains within a hard bound and returns a typed
//!    exit, whatever the wire did.
//! 5. **Disturbed cells measure or fail typed** — every disturbance
//!    episode runs a grid on a platform scripted to misbehave (hosts
//!    crash, slow down, links degrade) under rescue recovery; each cell
//!    either records a measurement whose outcome tallies what fired, or
//!    fails typed — and never claims a disturbance it did not apply.
//!
//! Everything derives from `(seed, episode index)` — two runs with the
//! same arguments produce the same faults, the same counts, the same
//! verdict. The per-class injection tallies are the coverage proof: a
//! class that never fired is itself a violation, so "the suite passed"
//! can never mean "the suite injected nothing".

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use mps_core::faults::io::{
    ChaosIo, ChaosStream, InjectedIo, InjectedWire, IoFaultPlan, WireFaultPlan,
};
use mps_core::faults::{DisturbReport, DisturbancePlan, RecoveryPolicy};
use mps_core::journal::{self as journal, RunControl};
use mps_core::platform::HostId;
use mps_core::serve::{
    recv_msg, send_msg, ClientFrame, Server, ServerConfig, ServerFrame, WorkRequest, PROTO_VERSION,
};
use mps_exp::campaign::{point_journal, read_campaign_manifest, CampaignOpts};
use mps_exp::{fold_seed, CellOutcome, DisturbConfig, GridStatus, Harness, ServeBackend};

/// The seed of episode `i`: sweep point `i + 1` of the soak's seed.
fn fold(seed: u64, i: u64) -> u64 {
    fold_seed(seed, i + 1)
}

/// Chaos soak shape.
struct ChaosOpts {
    /// Episodes in the escalating-intensity ramp (targeted coverage
    /// episodes run in addition).
    episodes: usize,
    /// Base seed; every episode's faults derive from it.
    seed: u64,
    /// Scratch directory (created if missing, reused per episode).
    dir: PathBuf,
}

/// What a chaos soak did and whether the invariants held.
struct ChaosReport {
    /// Episodes executed (ramp + targeted).
    episodes: usize,
    /// Episodes whose primary run failed typed (and then resumed clean).
    failed_typed: usize,
    /// Per-class I/O injections across all episodes.
    io: InjectedIo,
    /// Per-class wire injections across all episodes.
    wire: InjectedWire,
    /// Per-class platform disturbances fired (and rescues performed)
    /// across all disturbance episodes.
    disturb: DisturbReport,
    /// Invariant violations; empty means the soak passed.
    violations: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held in every episode.
    fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The grid every journal episode is measured against: the subset grid
/// no fault ever touched, serialized canonically.
fn baseline_json() -> String {
    let cells = Harness::new(7).run_subset(1, 1);
    serde_json::to_string(&cells).expect("baseline grid serializes")
}

/// The campaign every campaign episode is measured against: the same
/// 2-point sweep on a pristine disk, captured as each point journal's
/// recovered `(key, payload)` records. Campaign points run under
/// per-point *simulation* fault plans, so their cells are not the plain
/// grid — the truth is the fault-free campaign itself.
fn campaign_baseline(dir: &Path) -> Vec<Vec<(String, String)>> {
    let bdir = dir.join("baseline-campaign");
    let _ = std::fs::remove_dir_all(&bdir);
    let opts = CampaignOpts {
        dir: bdir.clone(),
        points: 2,
        repeats: 1,
        workers: 1,
        subset: Some(1),
    };
    let h = Harness::new(7);
    h.run_campaign(&opts, &RunControl::unlimited(), |_, _| {})
        .expect("pristine baseline campaign runs");
    (0..2)
        .map(|p| {
            journal::recover(&point_journal(&bdir, p))
                .expect("baseline point journal recovers")
                .records
        })
        .collect()
}

/// One journal-grid episode: run under chaos, then prove the real-disk
/// resume reconstructs the baseline byte-for-byte.
fn episode_journal(
    tag: &str,
    dir: &Path,
    seed: u64,
    plan: IoFaultPlan,
    baseline: &str,
    report: &mut ChaosReport,
) {
    let path = dir.join(format!("{tag}.jl"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(journal::manifest_path(&path));
    let chaos = ChaosIo::new(seed, plan);
    let h = Harness::new(7).with_io_env(Arc::new(chaos.clone()));
    match h.run_subset_journaled(1, &path, 1, 1, false, &RunControl::unlimited()) {
        Ok(grid) => {
            let got = serde_json::to_string(&grid.cells).unwrap_or_default();
            if grid.status != GridStatus::Complete || got != baseline {
                report
                    .violations
                    .push(format!("{tag}: chaos run 'completed' off-baseline"));
            }
        }
        Err(err) => {
            report.failed_typed += 1;
            if chaos.injected().total() == 0 {
                report.violations.push(format!(
                    "{tag}: failed ({err}) without a single injected fault"
                ));
            }
        }
    }
    report.io.absorb(&chaos.injected());

    // Invariant 3: whatever the chaos run left behind, the manifest reads
    // typed — present and parseable, or absent. Never a misparse.
    if journal::read_manifest(&path).is_err() {
        report
            .violations
            .push(format!("{tag}: partial/corrupt manifest observed"));
    }
    // Invariant 2: the real-disk resume finishes byte-identically.
    let real = Harness::new(7);
    match real.run_subset_journaled(1, &path, 1, 1, path.exists(), &RunControl::unlimited()) {
        Ok(grid) => {
            let got = serde_json::to_string(&grid.cells).unwrap_or_default();
            if grid.status != GridStatus::Complete || got != baseline {
                report
                    .violations
                    .push(format!("{tag}: resume is not byte-identical to baseline"));
            }
        }
        Err(err) => report
            .violations
            .push(format!("{tag}: real-disk resume failed: {err}")),
    }
}

/// One campaign episode: a 2-point subset campaign under chaos, resumed
/// on the real disk; each point journal must replay to the baseline and
/// `campaign.json` must read typed throughout.
fn episode_campaign(
    tag: &str,
    dir: &Path,
    seed: u64,
    plan: IoFaultPlan,
    baseline: &[Vec<(String, String)>],
    report: &mut ChaosReport,
) {
    let cdir = dir.join(tag);
    let _ = std::fs::remove_dir_all(&cdir);
    let opts = CampaignOpts {
        dir: cdir.clone(),
        points: 2,
        repeats: 1,
        workers: 1,
        subset: Some(1),
    };
    let chaos = ChaosIo::new(seed, plan);
    let h = Harness::new(7).with_io_env(Arc::new(chaos.clone()));
    match h.run_campaign(&opts, &RunControl::unlimited(), |_, _| {}) {
        Ok(_) => {}
        Err(err) => {
            report.failed_typed += 1;
            if chaos.injected().total() == 0 {
                report.violations.push(format!(
                    "{tag}: failed ({err}) without a single injected fault"
                ));
            }
        }
    }
    report.io.absorb(&chaos.injected());

    // Invariant 3 for the campaign manifest.
    match read_campaign_manifest(&cdir) {
        Ok(_) => {}
        Err(mps_core::journal::JournalError::Serde { .. }) => {
            // A torn rename never leaves a partial manifest; Serde here
            // means the *whole* old/new file failed to parse — that
            // would be a real partial-write leak.
            report
                .violations
                .push(format!("{tag}: partial campaign manifest observed"));
        }
        Err(_) => {}
    }
    // Invariant 2: real-disk resume completes both points, byte-identical
    // per point journal.
    let real = Harness::new(7);
    match real.run_campaign(&opts, &RunControl::unlimited(), |_, _| {}) {
        Ok(rep) => {
            if rep.manifest.points_done != 2 || rep.status != GridStatus::Complete {
                report
                    .violations
                    .push(format!("{tag}: resume left the campaign incomplete"));
                return;
            }
            for (point, want) in baseline.iter().enumerate() {
                let path = point_journal(&cdir, point);
                match journal::recover(&path) {
                    Ok(rec) => {
                        if &rec.records != want {
                            report.violations.push(format!(
                                "{tag}: point {point} records differ from pristine campaign"
                            ));
                        }
                    }
                    Err(err) => report.violations.push(format!(
                        "{tag}: point {point} unreadable after resume: {err}"
                    )),
                }
            }
        }
        Err(err) => report
            .violations
            .push(format!("{tag}: real-disk campaign resume failed: {err}")),
    }
}

/// One serve episode: a real daemon on a Unix socket, a client whose
/// transport injects the wire plan. Whatever the wire does, the daemon
/// must drain within a hard bound and exit typed.
fn episode_serve(tag: &str, dir: &Path, seed: u64, plan: WireFaultPlan, report: &mut ChaosReport) {
    // Inside the soak's own directory: two soaks running at once (one
    // process, different directories) must never share a socket.
    let socket = dir.join(format!("{tag}.sock"));
    let _ = std::fs::remove_file(&socket);
    let server = Server::new(
        Arc::new(ServeBackend::new(Harness::new(7))),
        ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    );
    let (tx, rx) = mpsc::channel();
    {
        let server = Arc::clone(&server);
        let socket = socket.clone();
        std::thread::spawn(move || {
            let _ = tx.send(server.run_unix(&socket));
        });
    }
    let connect = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match std::os::unix::net::UnixStream::connect(&socket) {
                Ok(s) => return Some(s),
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => return None,
            }
        }
    };

    // The chaotic session: handshake + one subset-grid request over an
    // adversarial transport. Any typed end (EOF, frame error, broken
    // pipe, timeout) is acceptable; only hangs and panics are not.
    if let Some(stream) = connect() {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut chaos = ChaosStream::new(stream, seed, plan);
        let session = (|| -> Result<(), mps_core::serve::ServeError> {
            send_msg(
                &mut chaos,
                &ClientFrame::Hello {
                    proto: PROTO_VERSION.to_string(),
                    client: "chaos".to_string(),
                },
            )?;
            match recv_msg::<_, ServerFrame>(&mut chaos)? {
                Some(ServerFrame::HelloAck { .. }) => {}
                _ => return Ok(()),
            }
            send_msg(
                &mut chaos,
                &ClientFrame::Submit {
                    id: 1,
                    work: WorkRequest::SubsetGrid {
                        take: 1,
                        repeats: 1,
                        disturb: None,
                    },
                    deadline_ms: Some(5_000),
                },
            )?;
            loop {
                match recv_msg::<_, ServerFrame>(&mut chaos)? {
                    Some(ServerFrame::Done { .. }) | Some(ServerFrame::Failed { .. }) | None => {
                        return Ok(())
                    }
                    Some(_) => {}
                }
            }
        })();
        if session.is_err() {
            report.failed_typed += 1;
        }
        report.wire.absorb(&chaos.injected());
    } else {
        report
            .violations
            .push(format!("{tag}: daemon never bound its socket"));
    }

    // Clean control connection: ask the daemon to drain.
    match mps_core::serve::client::connect_unix(&socket, "chaos-ctl", Duration::from_secs(5)) {
        Ok((mut ctl, _)) => {
            if let Err(e) = ctl.drain(99) {
                report
                    .violations
                    .push(format!("{tag}: drain request failed: {e}"));
            }
        }
        Err(e) => report.violations.push(format!(
            "{tag}: daemon unreachable after chaotic session: {e}"
        )),
    }
    // Invariant 4: the daemon exits typed within a hard bound.
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(_exit)) => {}
        Ok(Err(e)) => report
            .violations
            .push(format!("{tag}: daemon exited with transport error: {e}")),
        Err(_) => report
            .violations
            .push(format!("{tag}: daemon deadlocked (no exit within 30s)")),
    }
}

/// One disturbance episode: a 1-DAG subset grid on a platform scripted
/// to misbehave, under rescue recovery. Invariant 5: every cell either
/// measures — `Full`, or `Disturbed`/`Degraded` with the outcome
/// tallying at least one fired event — or fails typed; and when the
/// plan is empty nothing may fire or fail at all.
fn episode_disturb(tag: &str, plan: DisturbancePlan, report: &mut ChaosReport) {
    let scripted = !plan.is_empty();
    let h = Harness::new(7).with_disturbance(DisturbConfig::new(plan, RecoveryPolicy::Rescue));
    for cell in h.run_subset_with_workers(1, 1, 1) {
        match &cell.outcome {
            CellOutcome::Full => {}
            CellOutcome::Disturbed { report: fired, .. } => {
                if fired.fired() == 0 {
                    report.violations.push(format!(
                        "{tag}: cell {} claims a disturbance that never fired",
                        cell.dag
                    ));
                }
                if !scripted {
                    report.violations.push(format!(
                        "{tag}: cell {} disturbed under an empty plan",
                        cell.dag
                    ));
                }
                report.disturb.absorb(fired);
            }
            CellOutcome::Degraded { .. } => {
                if !scripted {
                    report.violations.push(format!(
                        "{tag}: cell {} degraded under an empty plan",
                        cell.dag
                    ));
                }
            }
            _ => {
                report.failed_typed += 1;
                if !scripted {
                    report.violations.push(format!(
                        "{tag}: cell {} failed without a scripted disturbance",
                        cell.dag
                    ));
                }
            }
        }
    }
}

/// Runs the chaos soak: `opts.episodes` ramp episodes cycling through
/// {journal, campaign, serve} with intensity escalating from gentle to
/// hostile, then one targeted episode per fault class so coverage is
/// guaranteed rather than probabilistic.
fn run_chaos(opts: &ChaosOpts) -> std::io::Result<ChaosReport> {
    std::fs::create_dir_all(&opts.dir)?;
    let mut report = ChaosReport {
        episodes: 0,
        failed_typed: 0,
        io: InjectedIo::default(),
        wire: InjectedWire::default(),
        disturb: DisturbReport::default(),
        violations: Vec::new(),
    };
    let baseline = baseline_json();
    let camp_baseline = campaign_baseline(&opts.dir);

    for i in 0..opts.episodes {
        let seed = fold(opts.seed, i as u64);
        let span = opts.episodes.saturating_sub(1).max(1) as f64;
        let intensity = 0.1 + 0.9 * i as f64 / span;
        let tag = format!("ep-{i:04}");
        match i % 3 {
            0 => episode_journal(
                &tag,
                &opts.dir,
                seed,
                IoFaultPlan::with_intensity(intensity),
                &baseline,
                &mut report,
            ),
            1 => episode_campaign(
                &tag,
                &opts.dir,
                seed,
                IoFaultPlan::with_intensity(intensity),
                &camp_baseline,
                &mut report,
            ),
            _ => episode_serve(
                &tag,
                &opts.dir,
                seed,
                WireFaultPlan::with_intensity(intensity),
                &mut report,
            ),
        }
        report.episodes += 1;
    }

    // Targeted episodes: one per fault class, high probability, so every
    // class provably fires whatever the ramp happened to draw.
    let io_targets: [(&str, IoFaultPlan); 5] = [
        (
            "t-enospc",
            IoFaultPlan {
                enospc: 0.5,
                ..IoFaultPlan::default()
            },
        ),
        (
            "t-eio",
            IoFaultPlan {
                eio: 0.5,
                ..IoFaultPlan::default()
            },
        ),
        (
            "t-shortwrite",
            IoFaultPlan {
                short_write: 0.5,
                ..IoFaultPlan::default()
            },
        ),
        (
            "t-fsync",
            IoFaultPlan {
                fsync_fail: 1.0,
                ..IoFaultPlan::default()
            },
        ),
        (
            "t-rename",
            IoFaultPlan {
                torn_rename: 1.0,
                ..IoFaultPlan::default()
            },
        ),
    ];
    for (k, (tag, plan)) in io_targets.into_iter().enumerate() {
        let seed = fold(opts.seed, 10_000 + k as u64);
        episode_journal(tag, &opts.dir, seed, plan.clone(), &baseline, &mut report);
        let ctag = format!("{tag}-campaign");
        episode_campaign(&ctag, &opts.dir, seed, plan, &camp_baseline, &mut report);
        report.episodes += 2;
    }
    let wire_targets: [(&str, WireFaultPlan); 3] = [
        (
            "t-corrupt",
            WireFaultPlan {
                corrupt: 1.0,
                ..WireFaultPlan::default()
            },
        ),
        (
            "t-stall",
            WireFaultPlan {
                stall: 1.0,
                stall_ms: 20,
                ..WireFaultPlan::default()
            },
        ),
        (
            "t-close",
            WireFaultPlan {
                close: 1.0,
                ..WireFaultPlan::default()
            },
        ),
    ];
    for (k, (tag, plan)) in wire_targets.into_iter().enumerate() {
        episode_serve(
            tag,
            &opts.dir,
            fold(opts.seed, 20_000 + k as u64),
            plan,
            &mut report,
        );
        report.episodes += 1;
    }
    // Targeted disturbance episodes: the *platform* misbehaves on a
    // script — one episode per disturbance class so crash, slow, and
    // degrade each provably fire, plus one drawn from the seeded
    // generator at full intensity to exercise mixed plans.
    let disturb_targets: [(&str, DisturbancePlan); 4] = [
        (
            "t-crash",
            DisturbancePlan::builder(0).crash(HostId(0), 1.0).build(),
        ),
        (
            "t-slow",
            DisturbancePlan::builder(0)
                .slow(HostId(1), 0.0, 60.0, 2.0)
                .build(),
        ),
        (
            "t-degrade",
            DisturbancePlan::builder(0)
                .degrade(HostId(1), 0.0, 60.0, 4.0)
                .build(),
        ),
        (
            "t-disturb-rand",
            DisturbancePlan::with_intensity(fold(opts.seed, 30_000), 1.0),
        ),
    ];
    for (tag, plan) in disturb_targets {
        episode_disturb(tag, plan, &mut report);
        report.episodes += 1;
    }

    // Coverage proof: a class that never fired anywhere is a violation —
    // a passing suite that injected nothing proves nothing.
    let io = report.io;
    for (class, n) in [
        ("enospc", io.enospc),
        ("eio", io.eio),
        ("short_write", io.short_write),
        ("fsync_fail", io.fsync_fail),
        ("torn_rename", io.torn_rename),
    ] {
        if n == 0 {
            report
                .violations
                .push(format!("coverage: io class {class} never fired"));
        }
    }
    let wire = report.wire;
    for (class, n) in [
        ("corrupt", wire.corrupt),
        ("stall", wire.stall),
        ("close", wire.close),
    ] {
        if n == 0 {
            report
                .violations
                .push(format!("coverage: wire class {class} never fired"));
        }
    }
    let disturb = report.disturb;
    for (class, n) in [
        ("crash", disturb.crashes),
        ("slow", disturb.slows),
        ("degrade", disturb.degrades),
        ("rescue", disturb.rescues),
    ] {
        if n == 0 {
            report
                .violations
                .push(format!("coverage: disturbance class {class} never fired"));
        }
    }
    Ok(report)
}

/// The soak the CI gate has always run: 12 ramp episodes at seed 42, in
/// a scratch directory of its own.
fn soak(tag: &str) -> ChaosReport {
    let dir = std::env::temp_dir().join(format!("mps-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ChaosOpts {
        episodes: 12,
        seed: 42,
        dir: dir.clone(),
    };
    let report = run_chaos(&opts).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The soak passes every invariant and covers every class: a class that
/// never fired is a violation, so a pass proves each one fired.
#[test]
fn a_short_soak_passes_and_covers_every_class() {
    let report = soak("smoke");
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.io.total() >= 5, "io coverage: {:?}", report.io);
    assert!(report.wire.total() >= 3, "wire coverage: {:?}", report.wire);
    assert!(
        report.disturb.crashes >= 1
            && report.disturb.slows >= 1
            && report.disturb.degrades >= 1
            && report.disturb.rescues >= 1,
        "disturbance coverage: {:?}",
        report.disturb
    );
    assert!(
        report.failed_typed >= 1,
        "nothing ever failed — soak too tame"
    );
}

/// Same seed, same episodes → same per-class fault counts: the soak is
/// replayable evidence, not a flaky stress test.
#[test]
fn the_soak_is_deterministic_in_its_io_faults() {
    let (a, b) = (soak("det-a"), soak("det-b"));
    assert_eq!(a.io, b.io, "I/O fault counts must replay exactly");
    assert_eq!(a.wire, b.wire, "wire fault counts must replay exactly");
    assert_eq!(
        a.disturb, b.disturb,
        "disturbance counts must replay exactly"
    );
    assert_eq!(a.passed(), b.passed());
    assert_eq!(a.episodes, b.episodes);
}
