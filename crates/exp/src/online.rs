//! The `repro online` driver: a streaming-workload sweep over load
//! levels, running HCPA and MCPA side by side at each level and checking
//! whether the *verdict* (which algorithm serves the stream better)
//! stays stable as load grows.
//!
//! Each `(level, algorithm)` run is an independent, deterministic
//! [`OnlineEngine`] execution; `--workers` only parallelizes across
//! those runs, so the deterministic reports are structurally identical
//! for any worker count. Wall-clock throughput is measured per run and
//! reported *next to* the deterministic results, never inside them.

use std::sync::Mutex;
use std::time::Instant;

use mps_core::dag::gen::{paper_corpus, PAPER_CORPUS_SEED};
use mps_core::dag::Dag;
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine, OnlineOutcome};

/// Shape of an online sweep.
#[derive(Debug, Clone)]
pub struct OnlineOpts {
    /// One arrival process per load level.
    pub arrivals: Vec<ArrivalSpec>,
    /// Per-run event horizon.
    pub horizon_events: u64,
    /// Seed shared by every run: both algorithms draw the same arrival
    /// stream at each level (each truncates it at its own horizon).
    pub seed: u64,
    /// Admission cap (backlog + inflight).
    pub admission_cap: usize,
    /// Widest host subset a job may claim.
    pub max_width: usize,
    /// Memory-sampling granularity (events traces are invariant to it).
    pub batch: usize,
    /// Worker threads across the `(level, algo)` run matrix.
    pub workers: usize,
}

impl Default for OnlineOpts {
    fn default() -> Self {
        OnlineOpts {
            arrivals: [0.01, 0.04, 0.16]
                .map(|rate| ArrivalSpec::Poisson { rate })
                .to_vec(),
            horizon_events: 1_000_000,
            seed: 2011,
            admission_cap: 64,
            max_width: 8,
            batch: 256,
            workers: 1,
        }
    }
}

/// The two algorithms every level compares.
const ALGOS: [OnlineAlgo; 2] = [OnlineAlgo::Hcpa, OnlineAlgo::Mcpa];

/// One load level's paired results.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OnlineLevel {
    /// Arrival spec in grammar form.
    pub arrival: String,
    /// Long-run mean arrival rate, jobs per simulated second.
    pub mean_rate: f64,
    /// HCPA's outcome on this stream.
    pub hcpa: OnlineOutcome,
    /// MCPA's outcome on the identical stream.
    pub mcpa: OnlineOutcome,
    /// Which algorithm served the stream better (see [`winner`]).
    pub winner: &'static str,
    /// Whether this level's winner matches the lowest-load level's.
    pub agrees_with_baseline: bool,
}

/// Wall-clock measurements for one `(level, algo)` run. Kept apart from
/// the deterministic report: two machines produce different numbers here
/// while their [`OnlineLevel`]s stay byte-identical.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OnlineWall {
    /// Arrival spec of the run.
    pub arrival: String,
    /// Algorithm name.
    pub algo: &'static str,
    /// Run wall time, seconds.
    pub wall_seconds: f64,
    /// DES events per wall second.
    pub events_per_sec: f64,
    /// Completed jobs per wall second.
    pub jobs_per_sec: f64,
}

/// A full sweep's results.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OnlineSweepReport {
    /// Seed every run used.
    pub seed: u64,
    /// Per-run event horizon.
    pub horizon_events: u64,
    /// One entry per load level, in the order given.
    pub levels: Vec<OnlineLevel>,
    /// True when every level's winner matches the lowest-load baseline.
    pub stable: bool,
    /// Wall-clock throughput per run (machine-dependent).
    pub wall: Vec<OnlineWall>,
}

/// Decides which algorithm served a stream better: most completed jobs,
/// then lowest p99 sojourn, then lowest mean sojourn, then HCPA (a
/// deterministic tie-break so the verdict is total).
pub fn winner(hcpa: &OnlineOutcome, mcpa: &OnlineOutcome) -> &'static str {
    let h = &hcpa.run;
    let m = &mcpa.run;
    if h.completed != m.completed {
        return if h.completed > m.completed {
            "HCPA"
        } else {
            "MCPA"
        };
    }
    if h.latency_p99_ms != m.latency_p99_ms {
        return if h.latency_p99_ms < m.latency_p99_ms {
            "HCPA"
        } else {
            "MCPA"
        };
    }
    if h.latency_mean_ms < m.latency_mean_ms {
        "HCPA"
    } else {
        "MCPA"
    }
}

/// Runs the sweep: every `(level, algo)` pair once, `opts.workers` runs
/// in flight at a time, each on its own warm engine. `progress` receives
/// one line per finished run.
pub fn run_online_sweep(
    opts: &OnlineOpts,
    progress: impl Fn(&str) + Sync,
) -> Result<OnlineSweepReport, String> {
    if opts.arrivals.is_empty() {
        return Err("online sweep needs at least one arrival level".into());
    }
    let corpus: Vec<Dag> = paper_corpus(PAPER_CORPUS_SEED)
        .into_iter()
        .map(|g| g.dag)
        .collect();

    // The run matrix, in deterministic order: level-major, HCPA first.
    let tasks: Vec<(usize, ArrivalSpec, OnlineAlgo)> = opts
        .arrivals
        .iter()
        .enumerate()
        .flat_map(|(i, &spec)| ALGOS.iter().map(move |&a| (i, spec, a)))
        .collect();
    let n_tasks = tasks.len();
    let workers = opts.workers.clamp(1, n_tasks);
    let results: Mutex<Vec<Option<(OnlineOutcome, OnlineWall)>>> =
        Mutex::new((0..n_tasks).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failure: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One warm engine per worker; runs on it are
                // bit-identical to cold-engine runs.
                let mut engine = match OnlineEngine::new(&corpus) {
                    Ok(e) => e,
                    Err(e) => {
                        *failure.lock().unwrap() = Some(e.to_string());
                        return;
                    }
                };
                loop {
                    let t = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if t >= n_tasks {
                        return;
                    }
                    let (_, spec, algo) = tasks[t];
                    let cfg = OnlineConfig {
                        arrival: spec,
                        seed: opts.seed,
                        horizon_events: opts.horizon_events,
                        admission_cap: opts.admission_cap,
                        max_width: opts.max_width,
                        batch: opts.batch,
                        algo,
                    };
                    let started = Instant::now();
                    match engine.run(&cfg) {
                        Ok(outcome) => {
                            let wall_seconds = started.elapsed().as_secs_f64().max(1e-9);
                            let wall = OnlineWall {
                                arrival: spec.to_string(),
                                algo: algo.name(),
                                wall_seconds,
                                events_per_sec: outcome.run.events as f64 / wall_seconds,
                                jobs_per_sec: outcome.run.completed as f64 / wall_seconds,
                            };
                            progress(&format!(
                                "{} @ {}: {} events ({:.2}M ev/s), {} jobs, {} shed, p99 {:.0} ms",
                                algo.name(),
                                spec,
                                outcome.run.events,
                                wall.events_per_sec / 1e6,
                                outcome.run.completed,
                                outcome.run.shed,
                                outcome.run.latency_p99_ms
                            ));
                            results.lock().unwrap()[t] = Some((outcome, wall));
                        }
                        Err(e) => {
                            *failure.lock().unwrap() = Some(e.to_string());
                            return;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    let mut results = results.into_inner().unwrap();
    let mut levels = Vec::with_capacity(opts.arrivals.len());
    let mut wall = Vec::with_capacity(n_tasks);
    for (i, spec) in opts.arrivals.iter().enumerate() {
        let (hcpa, hw) = results[2 * i].take().expect("every task completed");
        let (mcpa, mw) = results[2 * i + 1].take().expect("every task completed");
        wall.push(hw);
        wall.push(mw);
        let w = winner(&hcpa, &mcpa);
        levels.push(OnlineLevel {
            arrival: spec.to_string(),
            mean_rate: spec.mean_rate(),
            hcpa,
            mcpa,
            winner: w,
            agrees_with_baseline: true, // fixed up below against level 0
        });
    }
    let baseline = levels[0].winner;
    for level in &mut levels {
        level.agrees_with_baseline = level.winner == baseline;
    }
    let stable = levels.iter().all(|l| l.agrees_with_baseline);
    Ok(OnlineSweepReport {
        seed: opts.seed,
        horizon_events: opts.horizon_events,
        levels,
        stable,
        wall,
    })
}

impl OnlineSweepReport {
    /// The deterministic slice of the report, rendered via `Debug` so
    /// f64 bits round-trip: byte-equal traces ⇔ bit-equal runs. This is
    /// what `--trace-out` writes and what the determinism CI job diffs.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for level in &self.levels {
            out.push_str(&format!(
                "{:#?}\n{:#?}\nwinner: {} (agrees: {})\n",
                level.hcpa.run, level.mcpa.run, level.winner, level.agrees_with_baseline
            ));
        }
        out.push_str(&format!("stable: {}\n", self.stable));
        out
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Streaming workload sweep — seed {}, horizon {} events/run",
            self.seed, self.horizon_events
        );
        let _ = writeln!(
            out,
            "{:<22} {:>5} {:>9} {:>7} {:>6} {:>7} {:>10} {:>10} {:>7}",
            "arrival", "algo", "jobs", "shed", "util", "p50 ms", "p99 ms", "p999 ms", "backlog"
        );
        for level in &self.levels {
            for (name, o) in [("HCPA", &level.hcpa), ("MCPA", &level.mcpa)] {
                let r = &o.run;
                let _ = writeln!(
                    out,
                    "{:<22} {:>5} {:>9} {:>7} {:>5.1}% {:>7.0} {:>10.0} {:>10.0} {:>7}",
                    level.arrival,
                    name,
                    r.completed,
                    r.shed,
                    r.utilization * 100.0,
                    r.latency_p50_ms,
                    r.latency_p99_ms,
                    r.latency_p999_ms,
                    r.max_backlog
                );
            }
            let _ = writeln!(
                out,
                "  -> winner {} ({})",
                level.winner,
                if level.agrees_with_baseline {
                    "agrees with baseline"
                } else {
                    "DISAGREES with baseline"
                }
            );
        }
        let peak = self
            .wall
            .iter()
            .map(|w| w.events_per_sec)
            .fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "throughput: peak {:.2}M events/s ({} runs); verdict {} across {} load level(s)",
            peak / 1e6,
            self.wall.len(),
            if self.stable { "STABLE" } else { "UNSTABLE" },
            self.levels.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> OnlineOpts {
        OnlineOpts {
            arrivals: ArrivalSpec::parse_list("0.05,mmpp@1:0.05:10:40").unwrap(),
            horizon_events: 10_000,
            seed: 5,
            admission_cap: 16,
            max_width: 4,
            batch: 64,
            workers: 2,
        }
    }

    #[test]
    fn sweep_runs_and_pairs_levels() {
        let report = run_online_sweep(&tiny_opts(), |_| {}).unwrap();
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.wall.len(), 4);
        assert!(report.levels[0].agrees_with_baseline);
        for level in &report.levels {
            // Both algorithms drew from the same seeded stream (they
            // truncate it at different simulated times, so counts may
            // differ, but both must have made progress).
            assert!(level.hcpa.run.arrivals > 0);
            assert!(level.mcpa.run.arrivals > 0);
            assert_eq!(level.hcpa.run.seed, level.mcpa.run.seed);
        }
        assert!(!report.render().is_empty());
    }

    #[test]
    fn trace_is_worker_invariant() {
        let mut opts = tiny_opts();
        let a = run_online_sweep(&opts, |_| {}).unwrap();
        opts.workers = 1;
        let b = run_online_sweep(&opts, |_| {}).unwrap();
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn bad_arrival_entries_are_rejected() {
        for bad in ["-1", "0", "nan", "uniform@2"] {
            assert!(ArrivalSpec::parse_list(bad).is_err(), "{bad:?}");
        }
        let mut opts = tiny_opts();
        opts.arrivals.clear();
        assert!(run_online_sweep(&opts, |_| {}).is_err());
    }
}
