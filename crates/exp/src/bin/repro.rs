//! `repro` — regenerate the paper's tables and figures, or run and query
//! the scheduling daemon. `repro --help` lists the targets, the flags and
//! the exit codes; [`FLAGS`] is the one place a flag is declared.

use std::path::{Path, PathBuf};
use std::time::Duration;

use mps_core::faults::{
    DisturbancePlan, FaultPlan, PlanParseError, RecoveryPolicy, DISTURB_HORIZON,
};
use mps_core::journal::{install_signal_handlers, CancelToken, RunControl};
use mps_core::online::{ArrivalSpec, OnlineAlgo};
use mps_core::platform::ClusterSpec;
use mps_core::serve::WorkRequest;
use mps_core::sim::ExecPolicy;
use mps_exp::supervised::{serve_cells, SuperviseOpts, WorkerCommand};
use mps_exp::{
    ablation, figures, parse_cell_names, parse_poison_spec, CellResult, DisturbConfig, GridStatus,
    Harness, PoisonRule, ServeBackend,
};

use Kind::{Int, Mode, Policy, Switch, Tag, Text};
use Requires::{Journal, Nothing, Process};
use Scope::{Any, Not, OnlineRequest, Only};

/// Exit code for a campaign that completed but quarantined poison cells:
/// the journal is whole (every cell has a durable record), yet some
/// records are crash reports rather than measurements.
const EXIT_QUARANTINED: i32 = 3;

/// Every target, with its `--help` description; the paper's figures and
/// tables are listed without one.
#[rustfmt::skip]
const TARGETS: &[(&str, &str)] = &[
    ("table1", ""), ("fig1", ""), ("fig2", ""), ("fig3", ""), ("fig4", ""), ("fig5", ""),
    ("fig6", ""), ("fig7", ""), ("fig8", ""), ("table2", ""), ("gantt", ""), ("ablations", ""),
    ("faultsweep", ""), ("grid", ""), ("all", ""),
    ("disturb", "sweep platform-disturbance intensity 0..1: per point, a seeded plan of host \
        crashes / slow windows / link degradations hits every testbed run; reports makespan \
        degradation, rescue success rate, and HCPA-vs-MCPA verdict stability"),
    ("serve", "run the mps-serve scheduling daemon (mps-proto/v1)"),
    ("client", "submit work to a running daemon"),
    ("campaign", "fault-sweep campaign: many grid points, one journal each"),
    ("online", "streaming workload: a seeded arrival process (Poisson or bursty MMPP) feeds \
        DAG jobs from the corpus through admission control into moldable HCPA/MCPA \
        allocation on the incremental DES; reports throughput, utilization, P2-sketched \
        latency quantiles, and verdict stability across load levels"),
];

/// How a flag's value is read.
#[derive(Clone, Copy)]
enum Kind {
    /// No value.
    Switch,
    /// Any string.
    Text,
    /// An unsigned integer in `lo..=hi`.
    Int(u64, u64),
    /// One of the words, else `--flag "x" is not a|b`. The first word is
    /// the default: only another word puts the flag in force, and scope
    /// errors then name it `--flag word`.
    Mode(&'static [&'static str]),
    /// A [`RecoveryPolicy`], else `--flag needs failfast, retry, or rescue`.
    Policy,
    /// Consumes its value, if any, and ignores it.
    Tag,
}

/// Which targets accept a flag.
#[derive(Clone, Copy)]
enum Scope {
    Any,
    /// Every target but these.
    Not(&'static [&'static str]),
    /// Only these targets.
    Only(&'static [&'static str]),
    /// The online target, or the client target with `--online`.
    OnlineRequest,
}

/// A flag that only takes effect next to another one.
#[derive(Clone, Copy, PartialEq)]
enum Requires {
    Nothing,
    /// `--journal`, unless serve, campaign or a cell worker owns journals.
    Journal,
    /// `--isolation process` (a cell worker is supervised by definition).
    Process,
}

/// One `repro` flag: how it parses, where it is accepted, how `--help`
/// shows it and which [`Cli`] field it fills.
struct Flag {
    name: &'static str,
    /// Value placeholder in `--help`.
    arg: &'static str,
    kind: Kind,
    /// What a missing or malformed value should be: `--seed needs <this>`.
    needs: &'static str,
    scope: Scope,
    requires: Requires,
    /// `--help` section heading and the note printed after its flags; an
    /// empty heading hides the flag.
    section: (&'static str, &'static str),
    help: &'static str,
    set: fn(&mut Cli, Val),
}

/// Row defaults per `--help` section: a switch with no value, no
/// companion flag, and the targets the section is for.
#[rustfmt::skip]
mod row {
    use super::*;
    pub const GRID: Flag = Flag { name: "", arg: "", kind: Switch, needs: "", scope: Any,
        requires: Nothing, section: ("grid flags:", ""), help: "", set: |_, _| {} };
    pub const SUPERVISION: Flag = Flag { requires: Process,
        section: ("supervision flags (require --isolation process):", ""), ..GRID };
    pub const CAMPAIGN: Flag = Flag { scope: Only(&["campaign"]),
        section: ("campaign flags (target: campaign):",
            "resume = re-invoke with the same arguments; complete points are no-ops, the first \
             incomplete point resumes mid-grid. --subset, --repeats, --workers, \
             --max-wall-secs, --throttle-ms apply."), ..GRID };
    pub const ONLINE: Flag = Flag { scope: Only(&["online"]),
        section: ("online flags (target: online):",
            "--seed seeds the arrival stream; --workers parallelizes across the level x \
             algorithm run matrix; --json writes online.json"), ..GRID };
    pub const SERVE: Flag = Flag { scope: Only(&["serve", "client"]),
        section: ("serve flags (targets: serve, client):", ""), ..GRID };
    pub const CLIENT: Flag = Flag {
        section: ("client flags (target: client):",
            "VAR: analytic|profile|empirical; ALGO: HCPA|MCPA; cells stream to stdout as \
             <key><TAB><payload-json> lines"), ..SERVE };
    pub const HIDDEN: Flag = Flag { section: ("", ""), ..GRID };
}

const U64: u64 = u64::MAX;
const U32: u64 = u32::MAX as u64;
const USIZE: u64 = usize::MAX as u64;
/// Targets that build their own workloads, so grid knobs would be inert.
const NOT_GRID: &[&str] = &["online"];
/// Targets that own their fault plans and journals as well.
const NOT_JOURNALED: &[&str] = &["online", "campaign"];

/// Every flag. A flag is declared here and nowhere else: parsing, scope
/// checks and `--help` all read this table.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--seed", arg: "S", kind: Int(0, U64), needs: "an integer",
        set: |c, v| c.seed = v.int, help: "harness seed (default 2011)", ..row::GRID },
    Flag { name: "--repeats", arg: "R", kind: Int(1, U64), needs: "an integer >= 1",
        set: |c, v| c.repeats = v.int, help: "testbed runs per cell (default 3)", ..row::GRID },
    Flag { name: "--json", arg: "DIR", kind: Text, needs: "a directory",
        scope: Not(&["campaign"]), set: |c, v| c.json = Some(v.text),
        help: "also write grid.json / grid.csv (disturb.json, online.json for those targets)",
        ..row::GRID },
    Flag { name: "--faults", arg: "PLAN", kind: Text, needs: "a plan description",
        scope: Not(NOT_JOURNALED), set: |c, v| c.faults = Some(v.text),
        help: "inject a fault plan: `seed=7; crash@0:0+30; slow@1:0*1.5; fail=0.02` or a \
               preset light|moderate|heavy", ..row::GRID },
    Flag { name: "--max-retries", arg: "N", kind: Int(0, U32), needs: "an integer",
        set: |c, v| c.max_retries = v.int as u32, help: "per-task retry budget under faults",
        ..row::GRID },
    Flag { name: "--disturb", arg: "PLAN", kind: Text, needs: "a plan description",
        scope: Not(NOT_GRID), set: |c, v| c.disturb = Some(v.text),
        help: "inject timed platform damage into every testbed run: `crash@T:HOST`, \
               `slow@T1-T2:HOST:F`, `degrade@T1-T2:HOST:F` clauses (`;`-separated, optional \
               `seed=S`), or a preset light|moderate|heavy (intensity .25/.5/1)", ..row::GRID },
    Flag { name: "--recovery", arg: "MODE", kind: Policy, needs: "a mode (failfast|retry|rescue)",
        scope: Not(NOT_GRID), set: |c, v| c.recovery = v.text.parse().ok(),
        help: "reaction to a host crash under --disturb: failfast | retry | rescue (default; \
               re-plans the unfinished suffix on the surviving hosts)", ..row::GRID },
    Flag { name: "--subset", arg: "N", kind: Int(0, USIZE), needs: "an integer",
        scope: Not(NOT_GRID), set: |c, v| c.subset = Some(v.int as usize),
        help: "only the first N corpus DAGs", ..row::GRID },
    Flag { name: "--workers", arg: "N", kind: Int(0, USIZE), needs: "an integer",
        set: |c, v| c.workers = Some(v.int as usize),
        help: "worker threads / processes", ..row::GRID },
    Flag { name: "--journal", arg: "PATH", kind: Text, needs: "a path", scope: Not(NOT_JOURNALED),
        set: |c, v| c.journal = Some(v.text), help: "crash-safe write-ahead journal for the grid",
        ..row::GRID },
    Flag { name: "--resume", scope: Not(NOT_JOURNALED), requires: Journal,
        set: |c, _| c.resume = true, help: "continue the journal, computing only missing cells",
        ..row::GRID },
    Flag { name: "--max-wall-secs", arg: "S", kind: Int(0, U64), needs: "an integer",
        scope: Not(NOT_GRID), requires: Journal, set: |c, v| c.max_wall_secs = Some(v.int),
        help: "graceful checkpoint after S seconds (serve: drain and exit)", ..row::GRID },
    Flag { name: "--throttle-ms", arg: "N", kind: Int(0, U64), needs: "an integer",
        scope: Not(NOT_GRID), requires: Journal, set: |c, v| c.throttle_ms = Some(v.int),
        help: "sleep N ms between cells (test kill windows)", ..row::GRID },
    Flag { name: "--isolation", arg: "MODE", kind: Mode(&["inproc", "process"]),
        needs: "a mode (inproc|process)", scope: Not(NOT_JOURNALED), requires: Journal,
        set: |c, v| c.isolation = v.text,
        help: "inproc (default) or process: run cells in supervised child workers that \
               quarantine poison cells (serve: needs --state)", ..row::GRID },

    Flag { name: "--cell-timeout-secs", arg: "S", kind: Int(1, U64), needs: "an integer >= 1",
        set: |c, v| c.cell_timeout_secs = Some(v.int),
        help: "per-attempt wall budget, >= 1 (default 120)", ..row::SUPERVISION },
    Flag { name: "--max-cell-attempts", arg: "N", kind: Int(1, U32), needs: "an integer >= 1",
        set: |c, v| c.max_cell_attempts = Some(v.int as u32),
        help: "strikes before quarantine, >= 1 (default 2)", ..row::SUPERVISION },
    Flag { name: "--spawn-timeout-secs", arg: "S", kind: Int(1, 600),
        needs: "an integer in 1..=600", set: |c, v| c.spawn_timeout_secs = Some(v.int),
        help: "worker spawn->handshake budget, 1..=600 (default 30)", ..row::SUPERVISION },
    Flag { name: "--stderr-tail-bytes", arg: "N", kind: Int(0, 1024 * 1024),
        needs: "an integer in 0..=1048576", set: |c, v| c.stderr_tail_bytes = Some(v.int as usize),
        help: "worker stderr kept per crash report, 0..=1048576 (default 8192)",
        ..row::SUPERVISION },
    Flag { name: "--poison", arg: "SPEC", kind: Text, needs: "a spec (needle=panic|hang,...)",
        requires: Nothing, set: |c, v| c.poison = Some(v.text),
        help: "poison matching cells (needle=panic|hang,...)", ..row::SUPERVISION },

    Flag { name: "--campaign-dir", arg: "DIR", kind: Text, needs: "a directory",
        set: |c, v| c.campaign_dir = Some(v.text),
        help: "campaign directory: point-NNNN.jl journals plus a campaign.json manifest",
        ..row::CAMPAIGN },
    Flag { name: "--points", arg: "N", kind: Int(1, USIZE), needs: "an integer >= 1",
        set: |c, v| c.points = Some(v.int as usize),
        help: "sweep points, fault intensity 0..1 (default 309: 309 x 324 cells crosses 100k \
               on the full grid)", ..row::CAMPAIGN },

    Flag { name: "--arrival-rate", arg: "LIST", kind: Text, needs: "a comma-separated list",
        set: |c, v| c.arrival_rate = Some(v.text),
        help: "comma-separated load levels: bare Poisson rates (jobs/sim-second) or arrival \
               grammar strings `poisson@R` / `mmpp@R0:R1:S0:S1` (default 0.01,0.04,0.16: \
               light, busy, overload)", ..row::ONLINE },
    Flag { name: "--horizon-events", arg: "N", kind: Int(1, U64), needs: "an integer >= 1",
        scope: OnlineRequest, set: |c, v| c.horizon_events = Some(v.int),
        help: "DES events per run before draining (default 1000000); also shapes a client \
               --online request", ..row::ONLINE },
    Flag { name: "--admission", arg: "N", kind: Int(0, USIZE),
        needs: "an integer (0 sheds everything)", scope: OnlineRequest,
        set: |c, v| c.admission = Some(v.int as usize),
        help: "backlog+inflight cap; beyond it arrivals are shed with EMA retry hints \
               (default 64; 0 sheds all); also shapes a client --online request", ..row::ONLINE },
    Flag { name: "--max-width", arg: "N", kind: Int(1, USIZE), needs: "an integer >= 1",
        set: |c, v| c.max_width = Some(v.int as usize),
        help: "widest host subset one job may claim (default 8)", ..row::ONLINE },
    Flag { name: "--batch", arg: "N", kind: Int(1, USIZE), needs: "an integer >= 1",
        set: |c, v| c.batch = Some(v.int as usize),
        help: "steps between memory samples (the event trace is invariant to it)", ..row::ONLINE },
    Flag { name: "--trace-out", arg: "PATH", kind: Text, needs: "a path",
        set: |c, v| c.trace_out = Some(v.text),
        help: "write the deterministic event/SLO trace (byte-identical across repeats, batch \
               sizes, --workers)", ..row::ONLINE },

    Flag { name: "--socket", arg: "PATH", kind: Text, needs: "a path",
        set: |c, v| c.socket = Some(v.text),
        help: "Unix socket the daemon listens on, or the client connects to", ..row::SERVE },
    Flag { name: "--stdio", set: |c, _| c.stdio = true,
        help: "serve one connection over stdin/stdout instead", ..row::SERVE },
    Flag { name: "--state", arg: "DIR", kind: Text, needs: "a directory",
        set: |c, v| c.state = Some(v.text),
        help: "journal every grid request under DIR: resubmissions replay byte-identically, a \
               restarted daemon finishes interrupted requests", ..row::SERVE },
    Flag { name: "--queue-cap", arg: "N", kind: Int(1, 4096), needs: "an integer in 1..=4096",
        set: |c, v| c.queue_cap = Some(v.int as usize),
        help: "admission queue capacity, 1..=4096 (default 16)", ..row::SERVE },
    Flag { name: "--serve-workers", arg: "N", kind: Int(1, 64), needs: "an integer in 1..=64",
        set: |c, v| c.serve_workers = Some(v.int as usize),
        help: "concurrent request executors, 1..=64 (default 2)", ..row::SERVE },

    Flag { name: "--schedule", arg: "DAG:VAR:ALGO", kind: Text, needs: "DAG:VARIANT:ALGO",
        set: |c, v| c.schedule = Some(v.text), help: "one schedule (no testbed runs)",
        ..row::CLIENT },
    Flag { name: "--simulate", arg: "DAG:VAR:ALGO", kind: Text, needs: "DAG:VARIANT:ALGO",
        set: |c, v| c.simulate = Some(v.text), help: "one full cell (--repeats testbed runs)",
        ..row::CLIENT },
    Flag { name: "--subset-grid", arg: "N", kind: Int(1, USIZE), needs: "an integer >= 1",
        set: |c, v| c.subset_grid = Some(v.int as usize),
        help: "first N DAGs x 3 variants x 2 algorithms", ..row::CLIENT },
    Flag { name: "--online", arg: "ALGO:ARRIVAL", kind: Text, needs: "ALGO:ARRIVAL",
        set: |c, v| c.online = Some(v.text),
        help: "one streaming run (e.g. HCPA:0.05 or MCPA:mmpp@8:0.5:10:40), shaped by \
               --horizon-events, --admission and --seed; the daemon caps the horizon at 20M \
               events", ..row::CLIENT },
    Flag { name: "--deadline-ms", arg: "N", kind: Int(0, U64), needs: "an integer",
        set: |c, v| c.deadline_ms = Some(v.int), help: "per-request deadline", ..row::CLIENT },
    Flag { name: "--health", set: |c, _| c.health = true, help: "print server statistics",
        ..row::CLIENT },
    Flag { name: "--drain", set: |c, _| c.drain = true, help: "ask the daemon to drain and exit",
        ..row::CLIENT },

    // Run as a supervised cell worker over stdin/stdout.
    Flag { name: "--cell-worker", set: |c, _| c.cell_worker = true, ..row::HIDDEN },
    // Inert marker so tests and humans can attribute worker processes.
    Flag { name: "--worker-tag", kind: Tag, ..row::HIDDEN },
];

/// A flag's value, as handed to its setter: the text after the flag, and
/// the number it holds for an [`Int`] flag.
struct Val {
    text: String,
    int: u64,
}

/// One checked `repro` invocation.
#[derive(Debug, Default)]
struct Cli {
    targets: Vec<String>,
    help: bool,
    seed: u64,
    repeats: u64,
    json: Option<String>,
    faults: Option<String>,
    max_retries: u32,
    disturb: Option<String>,
    /// The plan flags, parsed by [`Cli::parse_plans`].
    fault_plan: Option<FaultPlan>,
    disturb_plan: Option<DisturbancePlan>,
    poison_rules: Vec<PoisonRule>,
    arrivals: Option<Vec<ArrivalSpec>>,
    recovery: Option<RecoveryPolicy>,
    subset: Option<usize>,
    workers: Option<usize>,
    journal: Option<String>,
    resume: bool,
    max_wall_secs: Option<u64>,
    throttle_ms: Option<u64>,
    isolation: String,
    cell_timeout_secs: Option<u64>,
    max_cell_attempts: Option<u32>,
    spawn_timeout_secs: Option<u64>,
    stderr_tail_bytes: Option<usize>,
    poison: Option<String>,
    campaign_dir: Option<String>,
    points: Option<usize>,
    arrival_rate: Option<String>,
    horizon_events: Option<u64>,
    admission: Option<usize>,
    max_width: Option<usize>,
    batch: Option<usize>,
    trace_out: Option<String>,
    socket: Option<String>,
    stdio: bool,
    state: Option<String>,
    queue_cap: Option<usize>,
    serve_workers: Option<usize>,
    schedule: Option<String>,
    simulate: Option<String>,
    subset_grid: Option<usize>,
    online: Option<String>,
    /// The client's requests, built by [`Cli::parse_requests`].
    work: Vec<WorkRequest>,
    deadline_ms: Option<u64>,
    health: bool,
    drain: bool,
    cell_worker: bool,
}

impl Cli {
    /// Parses and checks `args` (without the program name). `Err` is the
    /// one-line reason for exit 2. `--help` stops parsing.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut c = Cli {
            seed: 2011,
            repeats: 3,
            max_retries: ExecPolicy::default().max_retries,
            isolation: "inproc".to_string(),
            ..Cli::default()
        };
        // Per row: how a flag in force is named in errors.
        let mut in_force: Vec<Option<String>> = vec![None; FLAGS.len()];
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                c.help = true;
                return Ok(c);
            }
            let Some(row) = FLAGS.iter().position(|f| f.name == arg) else {
                if arg.starts_with('-') {
                    return Err(format!("unknown flag `{arg}`"));
                }
                c.targets.push(arg.clone());
                continue;
            };
            let f = &FLAGS[row];
            let needs = || format!("{} needs {}", f.name, f.needs);
            let mut label = Some(f.name.to_string());
            let text = match f.kind {
                Switch => "",
                Tag => {
                    args.next();
                    continue;
                }
                _ => args.next().ok_or_else(needs)?,
            };
            let mut int = 0;
            match f.kind {
                Int(lo, hi) => {
                    int = text
                        .parse()
                        .ok()
                        .filter(|n| (lo..=hi).contains(n))
                        .ok_or_else(needs)?;
                }
                Mode(words) if !words.contains(&text) => {
                    return Err(format!("{} {text:?} is not {}", f.name, words.join("|")));
                }
                Mode(words) => label = (text != words[0]).then(|| format!("{} {text}", f.name)),
                Policy if text.parse::<RecoveryPolicy>().is_err() => {
                    return Err(format!("{} needs failfast, retry, or rescue", f.name));
                }
                _ => {}
            }
            (f.set)(
                &mut c,
                Val {
                    text: text.to_string(),
                    int,
                },
            );
            in_force[row] = label;
        }
        if c.targets.is_empty() {
            c.targets.push("all".to_string());
        }
        if let Some(t) = c
            .targets
            .iter()
            .find(|t| TARGETS.iter().all(|(name, _)| name != t))
        {
            return Err(format!("unknown target `{t}`"));
        }

        let journaled = c.journal.is_some() || c.cell_worker || c.is("serve") || c.is("campaign");
        let supervised = c.isolation == "process" || c.cell_worker;
        for (f, label) in FLAGS.iter().zip(&in_force) {
            let Some(label) = label else { continue };
            f.scope.check(label, &c)?;
            rule(
                f.requires == Journal && !journaled,
                format!("{label} requires --journal PATH"),
            )?;
            rule(
                f.requires == Process && !supervised,
                format!("{label} requires --isolation process"),
            )?;
        }

        for (broken, msg) in c.cross_rules() {
            rule(broken, msg)?;
        }
        c.parse_plans()?;
        c.parse_requests()?;
        Ok(c)
    }

    /// Parses the plan flags, so a bad plan is a usage error like any
    /// other bad value. Plans name hosts of the paper cluster.
    fn parse_plans(&mut self) -> Result<(), String> {
        let hosts = ClusterSpec::bayreuth().nodes;
        let bad = |what: &'static str| move |e: PlanParseError| format!("bad {what}: {e}");
        if let Some(desc) = &self.faults {
            let plan =
                FaultPlan::parse(desc, hosts, DISTURB_HORIZON).map_err(bad("--faults plan"))?;
            self.fault_plan = Some(plan);
        }
        if let Some(desc) = &self.disturb {
            let plan = DisturbancePlan::parse(desc, hosts, DISTURB_HORIZON)
                .map_err(bad("--disturb plan"))?;
            self.disturb_plan = Some(plan);
        }
        if let Some(spec) = &self.poison {
            self.poison_rules = parse_poison_spec(spec).map_err(bad("--poison spec"))?;
        }
        if let Some(list) = &self.arrival_rate {
            let arrivals = ArrivalSpec::parse_list(list).map_err(bad("--arrival-rate entry"))?;
            rule(
                arrivals.is_empty(),
                "--arrival-rate needs a comma-separated list",
            )?;
            self.arrivals = Some(arrivals);
        }
        Ok(())
    }

    /// Builds the client's requests from `--schedule`, `--simulate`,
    /// `--subset-grid` and `--online`, in that order, so a bad spec is a
    /// usage error before any connection is made. The request carries each
    /// spec's text unchanged.
    fn parse_requests(&mut self) -> Result<(), String> {
        let cell = |flag: &str, spec: &str| {
            let bad = |why: String| format!("bad {flag} spec {spec:?}: {why}");
            let [dag, variant, algo] = spec.split(':').collect::<Vec<_>>()[..] else {
                return Err(bad("want DAG:VARIANT:ALGO".into()));
            };
            let dag = dag
                .parse()
                .map_err(|_| bad(format!("bad DAG index {dag:?}")))?;
            parse_cell_names(variant, algo).map_err(bad)?;
            Ok((dag, variant.to_string(), algo.to_string()))
        };
        if let Some(spec) = &self.schedule {
            let (dag, variant, algo) = cell("--schedule", spec)?;
            self.work.push(WorkRequest::Schedule { dag, variant, algo });
        }
        if let Some(spec) = &self.simulate {
            let (dag, variant, algo) = cell("--simulate", spec)?;
            self.work.push(WorkRequest::Simulate {
                dag,
                variant,
                algo,
                repeats: self.repeats,
                disturb: self.disturb.clone(),
            });
        }
        if let Some(take) = self.subset_grid {
            self.work.push(WorkRequest::SubsetGrid {
                take,
                repeats: self.repeats,
                disturb: self.disturb.clone(),
            });
        }
        if let Some(spec) = &self.online {
            let bad = |why: String| format!("bad --online spec {spec:?}: {why}");
            let (algo, arrival) = spec
                .split_once(':')
                .ok_or_else(|| bad("want ALGO:ARRIVAL, e.g. HCPA:0.05".into()))?;
            OnlineAlgo::parse(algo).map_err(|e| bad(e.to_string()))?;
            ArrivalSpec::parse(arrival).map_err(|e| bad(e.to_string()))?;
            let d = mps_exp::OnlineOpts::default();
            self.work.push(WorkRequest::Online {
                arrival: arrival.to_string(),
                horizon_events: self.horizon_events.unwrap_or(d.horizon_events),
                seed: self.seed,
                admission: self.admission.unwrap_or(d.admission_cap) as u64,
                algo: algo.to_string(),
            });
        }
        Ok(())
    }

    /// The rules that tie flags and targets to each other, in the order
    /// they are checked; a broken rule is a usage error.
    #[rustfmt::skip]
    fn cross_rules(&self) -> [(bool, &'static str); 11] {
        let c = self;
        let alone = |t| c.is(t) && c.targets.len() > 1;
        let (serve, client) = (c.is("serve"), c.is("client"));
        [
            (alone("online"), "online cannot be combined with other targets"),
            (alone("campaign"), "campaign cannot be combined with other targets"),
            (serve && client, "serve and client are mutually exclusive targets"),
            (alone("serve") || alone("client"), "serve/client cannot be combined with other targets"),
            (c.is("disturb") && c.disturb.is_some(),
                "--disturb cannot be used with the disturb target (it sweeps its own seeded plans)"),
            (c.recovery.is_some() && c.disturb.is_none() && !c.is("disturb"),
                "--recovery requires --disturb or the disturb target"),
            (c.is("campaign") && c.campaign_dir.is_none(), "campaign needs --campaign-dir DIR"),
            (serve && c.socket.is_none() && !c.stdio, "serve needs --socket PATH (or --stdio)"),
            (serve && c.isolation == "process" && c.state.is_none(),
                "serve --isolation process requires --state DIR (the supervisor owns journals)"),
            (serve && c.resume,
                "--resume is implicit for serve (journals under --state resume themselves)"),
            (client && c.socket.is_none(), "client needs --socket PATH"),
        ]
    }

    fn is(&self, target: &str) -> bool {
        self.targets.iter().any(|t| t == target)
    }

    /// `--recovery`, defaulting to rescue (the library default is failfast).
    fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery.unwrap_or(RecoveryPolicy::Rescue)
    }
}

/// `Err(msg)` when the rule is `broken`.
fn rule(broken: bool, msg: impl Into<String>) -> Result<(), String> {
    if broken {
        Err(msg.into())
    } else {
        Ok(())
    }
}

impl Scope {
    fn allows(self, target: &str) -> bool {
        match self {
            Any => true,
            Not(ts) => !ts.contains(&target),
            Only(ts) => ts.contains(&target),
            OnlineRequest => target == "online" || target == "client",
        }
    }

    /// Checks the flag named `label` against `c`'s targets.
    fn check(self, label: &str, c: &Cli) -> Result<(), String> {
        match self {
            Any => Ok(()),
            Not(_) => match c.targets.iter().find(|t| !self.allows(t)) {
                Some(t) => Err(format!("{label} cannot be used with the {t} target")),
                None => Ok(()),
            },
            Only(ts) => rule(
                !c.targets.iter().any(|t| self.allows(t)),
                format!("{label} requires the {} target", ts.join(" or ")),
            ),
            OnlineRequest => rule(
                !(c.is("online") || c.is("client") && c.online.is_some()),
                format!("{label} requires the online target or a client --online request"),
            ),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| usage_error(&e));
    if cli.help {
        print!("{}", help_text());
        return;
    }
    if cli.is("online") {
        std::process::exit(run_online(&cli));
    }
    if cli.is("client") {
        std::process::exit(run_client(&cli));
    }
    if !cli.cell_worker {
        eprintln!(
            "# building harness (seed {}): profiling the emulated testbed…",
            cli.seed
        );
    }
    let mut harness = build_harness(&cli);
    if cli.cell_worker {
        // Supervised worker mode: serve cells over stdin/stdout until the
        // supervisor closes the pipe. No catch_unwind — a poisoned cell
        // kills this process and that death is the crash report.
        std::process::exit(serve_cells(&harness, cli.repeats));
    }
    if cli.is("serve") {
        std::process::exit(run_serve(harness, &cli));
    }
    if cli.is("campaign") {
        std::process::exit(run_campaign(&mut harness, &cli));
    }
    let grid_figures = ["all", "fig1", "fig5", "fig7", "fig8", "grid"];
    let needs_grid = cli
        .targets
        .iter()
        .any(|t| grid_figures.contains(&t.as_str()));
    let (cells, grid_status) = if needs_grid {
        run_grid(&harness, &cli)
    } else {
        (Vec::new(), GridStatus::Complete)
    };
    if let Some(dir) = &cli.json {
        create_json_dir(dir);
        write_file(
            &format!("{dir}/grid.json"),
            serde_json::to_string_pretty(&cells),
        );
        write_file(&format!("{dir}/grid.csv"), Ok(mps_exp::grid_csv(&cells)));
    }

    if grid_status != GridStatus::Complete {
        // Partial campaign: print the checkpoint summary instead of
        // rendering figures from an incomplete grid. An interrupt exits
        // 130 (like an uncaught SIGINT); a spent wall-clock budget is a
        // *successful* checkpoint and exits 0.
        println!(
            "{}",
            figures::grid_summary(&cells, grid_status, cli.journal.as_deref())
        );
        let code = match grid_status {
            GridStatus::Interrupted => 130,
            _ => 0,
        };
        std::process::exit(code);
    }

    for t in &cli.targets {
        println!("{}", render(t, &cells, grid_status, &mut harness, &cli));
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

/// The report of one figure or table target (`all` is every paper figure
/// and table in order).
fn render(
    target: &str,
    cells: &[CellResult],
    status: GridStatus,
    harness: &mut Harness,
    cli: &Cli,
) -> String {
    let (seed, repeats) = (cli.seed, cli.repeats);
    match target {
        "table1" => figures::table1(),
        "fig1" => format!("{}\n{}", figures::fig1(cells), figures::fig1_n3000(cells)),
        "fig2" => figures::fig2(&harness.testbed),
        "fig3" => figures::fig3(&harness.testbed),
        "fig4" => figures::fig4(&harness.testbed),
        "fig5" => figures::fig5(cells),
        "fig6" => figures::fig6(&harness.testbed),
        "fig7" => figures::fig7(cells),
        "fig8" => figures::fig8(cells),
        "table2" => figures::table2(harness),
        "grid" => figures::grid_summary(cells, status, cli.journal.as_deref()),
        "gantt" => figures::gantt(harness),
        "faultsweep" => figures::fault_sweep(
            harness,
            &[0.0, 0.25, 0.5, 1.0],
            &[11, 12, 13],
            cli.subset.unwrap_or(10),
            repeats,
            cli.workers.unwrap_or_else(Harness::default_workers),
        ),
        "disturb" => run_disturb(harness, cli),
        "ablations" => [
            ablation::root_cause_ablation(seed, 12, repeats),
            ablation::machine_robustness(&[0, 1, 2, 3, 4], 10, repeats),
            ablation::wiggle_sensitivity(&[0.0, 0.06, 0.12, 0.24], 10, repeats),
            ablation::algorithm_quality(seed, 12),
        ]
        .join("\n"),
        "all" => [
            "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2",
        ]
        .iter()
        .map(|t| render(t, cells, status, harness, cli))
        .collect::<Vec<_>>()
        .join("\n"),
        other => unreachable!("target `{other}` passed Cli::parse"),
    }
}

/// The testbed harness with the `--faults`, `--max-retries`, `--poison`
/// and `--disturb` injections applied.
fn build_harness(cli: &Cli) -> Harness {
    let mut harness = Harness::new(cli.seed);
    if let Some(plan) = &cli.fault_plan {
        if !cli.cell_worker {
            let io = if plan.io.is_empty() {
                ""
            } else {
                ", I/O faults under every durable write"
            };
            eprintln!(
                "# injecting fault plan (seed {}, {} event(s){io}, max {} retries/task)",
                plan.seed,
                plan.events.len(),
                cli.max_retries
            );
        }
        harness = harness.with_fault_plan(plan.clone());
    }
    harness = harness
        .with_exec_policy(ExecPolicy {
            max_retries: cli.max_retries,
            ..ExecPolicy::default()
        })
        .with_poison(cli.poison_rules.clone());
    if let Some(plan) = &cli.disturb_plan {
        if !cli.cell_worker {
            eprintln!(
                "# injecting disturbance plan (seed {}, {} event(s), recovery {})",
                plan.seed,
                plan.events.len(),
                cli.recovery_policy()
            );
        }
        let disturb = DisturbConfig::new(plan.clone(), cli.recovery_policy());
        harness = harness.with_disturbance(disturb);
    }
    harness
}

/// Creates the `--json` directory, or dies.
fn create_json_dir(dir: &str) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| die(&format!("cannot create --json dir {dir}: {e}")));
}

/// Writes `contents` to `path` and says so, or dies on either error.
fn write_file(path: &str, contents: Result<String, serde_json::Error>) {
    let contents = contents.unwrap_or_else(|e| die(&format!("cannot encode {path}: {e}")));
    std::fs::write(path, contents).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("# wrote {path}");
}

/// Run control for a durable run: SIGINT/SIGTERM become a graceful drain,
/// `--max-wall-secs` a clean checkpoint, `--throttle-ms` a pause per cell.
fn run_control(cli: &Cli) -> RunControl {
    install_signal_handlers();
    let mut ctrl = RunControl::unlimited().with_cancel(CancelToken::following_signals());
    if let Some(secs) = cli.max_wall_secs {
        ctrl = ctrl.with_deadline_in(Duration::from_secs(secs));
    }
    if let Some(ms) = cli.throttle_ms {
        ctrl = ctrl.with_throttle(Duration::from_millis(ms));
    }
    ctrl
}

/// A supervised cell worker: this binary, re-executed in hidden
/// `--cell-worker` mode with the flags that shape a cell. `tag` is an
/// inert marker that attributes the worker in `ps`/procfs output.
fn worker_command(cli: &Cli, tag: &str) -> WorkerCommand {
    let program =
        std::env::current_exe().unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}")));
    let mut args = vec![
        "--cell-worker".to_string(),
        "--seed".to_string(),
        cli.seed.to_string(),
        "--repeats".to_string(),
        cli.repeats.to_string(),
        "--max-retries".to_string(),
        cli.max_retries.to_string(),
    ];
    if let Some(desc) = &cli.faults {
        args.extend(["--faults".to_string(), desc.clone()]);
    }
    if let Some(spec) = &cli.poison {
        args.extend(["--poison".to_string(), spec.clone()]);
    }
    if let Some(desc) = &cli.disturb {
        args.extend(["--disturb".to_string(), desc.clone()]);
        args.extend(["--recovery".to_string(), cli.recovery_policy().to_string()]);
    }
    args.extend(["--worker-tag".to_string(), tag.to_string()]);
    WorkerCommand { program, args }
}

/// Supervision settings: the flags over [`SuperviseOpts::default`];
/// `workers` falls back to the default too when `None`.
fn supervise_opts(cli: &Cli, workers: Option<usize>) -> SuperviseOpts {
    let d = SuperviseOpts::default();
    SuperviseOpts {
        workers: workers.unwrap_or(d.workers),
        cell_timeout: cli
            .cell_timeout_secs
            .map_or(d.cell_timeout, Duration::from_secs),
        spawn_timeout: cli
            .spawn_timeout_secs
            .map_or(d.spawn_timeout, Duration::from_secs),
        stderr_tail_bytes: cli.stderr_tail_bytes.unwrap_or(d.stderr_tail_bytes),
        config: mps_core::supervise::SupervisorConfig {
            max_cell_attempts: cli.max_cell_attempts.unwrap_or(d.config.max_cell_attempts),
            ..d.config
        },
    }
}

/// Runs the grid (or its `--subset`) on `--workers` threads or processes,
/// journaled and supervised when asked, and reports its health on stderr.
fn run_grid(harness: &Harness, cli: &Cli) -> (Vec<CellResult>, GridStatus) {
    let scope = match cli.subset {
        Some(take) => format!("{take}-DAG subset"),
        None => "54-DAG".to_string(),
    };
    let workers = cli.workers.unwrap_or_else(Harness::default_workers).max(1);
    eprintln!(
        "# running the {scope} × 3-simulator × 2-algorithm grid ({} testbed runs per cell, \
         {workers} worker(s))…",
        cli.repeats
    );
    let (cells, status) = match (&cli.journal, cli.subset) {
        (Some(jpath), _) => run_journaled(harness, cli, jpath, workers),
        (None, Some(take)) => (
            harness.run_subset_with_workers(take, cli.repeats, workers),
            GridStatus::Complete,
        ),
        (None, None) => (
            harness.run_grid_with_workers(cli.repeats, workers),
            GridStatus::Complete,
        ),
    };
    eprint!(
        "{}",
        mps_exp::health_notes(&cells, cli.faults.is_some(), cli.disturb.is_some())
    );
    (cells, status)
}

/// The journaled grid: every completed cell is durable before the next
/// is dispatched, and `--isolation process` runs cells in supervised
/// child workers that quarantine poison cells.
fn run_journaled(
    harness: &Harness,
    cli: &Cli,
    jpath: &str,
    workers: usize,
) -> (Vec<CellResult>, GridStatus) {
    let ctrl = run_control(cli);
    let path = Path::new(jpath);
    let (repeats, resume) = (cli.repeats, cli.resume);
    let report = if cli.isolation == "process" {
        let worker = worker_command(cli, jpath);
        let opts = supervise_opts(cli, Some(workers));
        harness
            .run_supervised(cli.subset, path, repeats, resume, &worker, &opts, &ctrl)
            .unwrap_or_else(|e| die(&format!("supervised campaign: {e}")))
    } else {
        match cli.subset {
            Some(take) => harness.run_subset_journaled(take, path, repeats, workers, resume, &ctrl),
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
    (report.cells, report.status)
}

/// The `disturb` target: sweep disturbance intensity 0..1.
fn run_disturb(harness: &mut Harness, cli: &Cli) -> String {
    let d = mps_exp::DisturbSweepOpts::default();
    let opts = mps_exp::DisturbSweepOpts {
        subset: cli.subset.unwrap_or(d.subset),
        repeats: cli.repeats,
        recovery: cli.recovery_policy(),
        workers: cli.workers.unwrap_or(d.workers),
        ..d
    };
    eprintln!(
        "# disturbance sweep: {} intensity point(s), {} DAG(s)/point, recovery {}",
        opts.intensities.len(),
        opts.subset,
        opts.recovery
    );
    let report = mps_exp::run_disturb_sweep(harness, cli.seed, &opts, |line| eprintln!("# {line}"));
    if let Some(dir) = &cli.json {
        write_file(
            &format!("{dir}/disturb.json"),
            serde_json::to_string_pretty(&report),
        );
    }
    report.render()
}
/// The `campaign` target: a fault-sweep campaign of `--points` grid
/// points under `--campaign-dir`, one write-ahead journal per point.
/// Resume is re-invocation with the same arguments — complete points load
/// back without recomputing a cell. Exit codes mirror the journaled grid:
/// 0 for a complete campaign *or* a clean wall-clock checkpoint, 130 for
/// an interrupt, [`EXIT_QUARANTINED`] when complete with crash-family
/// cells in some journal.
fn run_campaign(harness: &mut Harness, cli: &Cli) -> i32 {
    let opts = mps_exp::CampaignOpts {
        dir: PathBuf::from(cli.campaign_dir.as_deref().expect("checked by Cli::parse")),
        points: cli.points.unwrap_or(mps_exp::campaign::DEFAULT_POINTS),
        repeats: cli.repeats,
        workers: cli.workers.unwrap_or_else(Harness::default_workers),
        subset: cli.subset,
    };
    let ctrl = run_control(cli);
    eprintln!(
        "# campaign {}: {} point(s) x {} cell(s), fault intensity 0..1",
        opts.dir.display(),
        opts.points,
        opts.subset.unwrap_or(54) * 6,
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
    let m = &report.manifest;
    println!(
        "campaign {}: {}/{} point(s) done, {} cell(s) durable ({} resumed, {} computed, {} quarantined) in {:.1} s — {}",
        opts.dir.display(),
        m.points_done,
        m.points_total,
        m.cells,
        m.resumed,
        m.computed,
        m.quarantined,
        t.elapsed().as_secs_f64(),
        m.status,
    );
    match report.status {
        GridStatus::Interrupted => 130,
        GridStatus::DeadlineExpired => {
            eprintln!("# checkpoint saved — continue by re-running the same campaign invocation");
            0
        }
        GridStatus::Complete if m.quarantined > 0 => EXIT_QUARANTINED,
        GridStatus::Complete => 0,
    }
}

/// The `online` target: a streaming-workload sweep across load levels.
/// `--trace-out` writes the deterministic event/SLO trace (byte-identical
/// across repeats, batch sizes, and worker counts); `--json` additionally
/// dumps the full report as `online.json`.
fn run_online(cli: &Cli) -> i32 {
    let d = mps_exp::OnlineOpts::default();
    let opts = &mps_exp::OnlineOpts {
        arrivals: cli.arrivals.clone().unwrap_or(d.arrivals),
        horizon_events: cli.horizon_events.unwrap_or(d.horizon_events),
        seed: cli.seed,
        admission_cap: cli.admission.unwrap_or(d.admission_cap),
        max_width: cli.max_width.unwrap_or(d.max_width),
        batch: cli.batch.unwrap_or(d.batch),
        workers: cli.workers.unwrap_or_else(Harness::default_workers),
    };
    eprintln!(
        "# streaming sweep: {} load level(s) x {{HCPA, MCPA}}, {} events/run, seed {}, {} worker(s)",
        opts.arrivals.len(),
        opts.horizon_events,
        opts.seed,
        opts.workers
    );
    let t = std::time::Instant::now();
    let report = mps_exp::run_online_sweep(opts, |line| eprintln!("# {line}"))
        .unwrap_or_else(|e| usage_error(&format!("online: {e}")));
    eprintln!("# sweep finished in {:.1} s", t.elapsed().as_secs_f64());
    if let Some(path) = &cli.trace_out {
        write_file(path, Ok(report.trace()));
    }
    if let Some(dir) = &cli.json {
        create_json_dir(dir);
        write_file(
            &format!("{dir}/online.json"),
            serde_json::to_string_pretty(&report),
        );
    }
    println!("{}", report.render());
    0
}

/// The `serve` target: run the scheduling daemon until it drains.
/// Exit codes: 0 clean drain, 3 drained with quarantined cells,
/// 130 aborted drain (second signal), 1 bind or transport error.
fn run_serve(harness: Harness, cli: &Cli) -> i32 {
    let ctrl = run_control(cli);
    let mut backend = ServeBackend::new(harness);
    if let Some(dir) = &cli.state {
        backend = backend.with_state_dir(PathBuf::from(dir));
    }
    if cli.isolation == "process" {
        backend = backend.with_worker(
            worker_command(cli, "serve"),
            supervise_opts(cli, cli.workers),
        );
    }
    let d = mps_core::serve::ServerConfig::default();
    let cfg = mps_core::serve::ServerConfig {
        queue_capacity: cli.queue_cap.unwrap_or(d.queue_capacity),
        executors: cli.serve_workers.unwrap_or(d.executors),
        ctrl,
        ..d
    };
    let queue = cfg.queue_capacity;
    let server = mps_core::serve::Server::new(std::sync::Arc::new(backend), cfg);
    let result = if cli.stdio {
        eprintln!(
            "# serving mps-proto/v1 on stdio ({} isolation)",
            cli.isolation
        );
        server.run_stdio()
    } else {
        #[cfg(unix)]
        {
            let path = cli.socket.as_deref().expect("checked by Cli::parse");
            eprintln!(
                "# serving mps-proto/v1 on {path} ({} isolation, queue {queue})",
                cli.isolation
            );
            server.run_unix(Path::new(path))
        }
        #[cfg(not(unix))]
        {
            die("serve over a socket requires a Unix platform (use --stdio)")
        }
    };
    let x = result.unwrap_or_else(|e| die(&format!("serve: {e}")));
    let ending = if x.interrupted {
        "drain aborted"
    } else {
        "drained clean"
    };
    eprintln!(
        "# serve exit: {} served, {} shed, {} quarantined, {} recovered — {ending}",
        x.served, x.shed, x.quarantined, x.recovered
    );
    match (x.interrupted, x.quarantined) {
        (true, _) => 130,
        (false, 0) => 0,
        _ => EXIT_QUARANTINED,
    }
}

/// The `client` target: submit work to a running daemon, stream cells
/// to stdout as `<key>\t<payload>` lines. Exit codes: 0 done, 1
/// connect/protocol error, 4 request failed, 5 overloaded, 6 draining.
#[cfg(unix)]
fn run_client(cli: &Cli) -> i32 {
    use mps_core::serve::client::connect_unix;
    use mps_core::serve::RequestOutcome;

    let socket = cli.socket.as_deref().expect("checked by Cli::parse");
    let (mut client, _cap) =
        connect_unix(Path::new(socket), "repro-client", Duration::from_secs(10))
            .unwrap_or_else(|e| die(&format!("client: {e}")));
    let mut id = 0u64;
    let mut code = 0i32;

    if cli.health {
        id += 1;
        let stats = client
            .health(id)
            .unwrap_or_else(|e| die(&format!("client: health: {e}")));
        let json = serde_json::to_string_pretty(&stats)
            .unwrap_or_else(|e| die(&format!("client: encode stats: {e}")));
        println!("{json}");
    }

    for work in &cli.work {
        id += 1;
        let outcome = client.request(id, work, cli.deadline_ms, &mut |key, payload| {
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
            Err(e) => die(&format!("client: {e}")),
        }
    }
    if cli.drain {
        id += 1;
        if let Err(e) = client.drain(id) {
            die(&format!("client: drain: {e}"));
        }
        eprintln!("# drain acknowledged");
    }
    code
}

#[cfg(not(unix))]
fn run_client(_cli: &Cli) -> i32 {
    die("the client target requires a Unix platform")
}

/// Appends `text` to `out` word-wrapped at 79 columns, continuing at
/// column `indent`, and ends the line.
fn wrap(out: &mut String, text: &str, indent: usize) {
    let mut col = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
    for (i, word) in text.split_whitespace().enumerate() {
        let width = word.chars().count();
        if i > 0 && col + 1 + width > 79 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else if i > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += width;
    }
    out.push('\n');
}

/// `--help` text, to stdout (exit 0); usage errors go to stderr (exit 2).
fn help_text() -> String {
    let mut out = String::from(
        "repro — regenerate the paper's tables and figures, or run/query the
scheduling daemon.

usage: repro [FLAGS] [TARGET]...

targets:
",
    );
    let figures: Vec<&str> = TARGETS
        .iter()
        .filter(|t| t.1.is_empty())
        .map(|t| t.0)
        .collect();
    out.push_str("  ");
    wrap(&mut out, &figures.join(" "), 2);
    for (name, help) in TARGETS.iter().filter(|t| !t.1.is_empty()) {
        out.push_str(&format!("  {name:<9}"));
        wrap(&mut out, help, 11);
    }
    // FLAGS lists each section's rows together.
    let mut sections: Vec<_> = FLAGS.iter().map(|f| f.section).collect();
    sections.dedup();
    for (heading, note) in sections.into_iter().filter(|s| !s.0.is_empty()) {
        out.push('\n');
        wrap(&mut out, heading, 2);
        for f in FLAGS.iter().filter(|f| f.section.0 == heading) {
            let head = format!("{} {}", f.name, f.arg);
            out.push_str(&format!("  {:<23}  ", head.trim_end()));
            wrap(&mut out, f.help, 27);
        }
        if !note.is_empty() {
            out.push_str("  (");
            wrap(&mut out, &format!("{note})"), 3);
        }
    }
    out.push_str(
        "
exit codes:
  0 success / clean drain      1 runtime error (journal, disk, socket)
  2 usage error
  3 completed with quarantined cells
  4 client request failed      5 overloaded (retry hinted)
  6 server draining            130 interrupted
",
    );
    out
}

/// A bad command line: the reason and the usage line, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("usage: repro [FLAGS] [TARGET]...  (`repro --help` lists them)");
    std::process::exit(2);
}

/// A well-formed run that failed (a journal, a disk, a campaign, a
/// socket or protocol error): the reason alone, exit 1.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        Cli::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn every_listed_flag_is_in_help_once() {
        let help = help_text();
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(
                FLAGS[i + 1..].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            let head = format!("\n  {} {}", f.name, f.arg);
            assert_eq!(
                help.contains(head.trim_end()),
                !f.section.0.is_empty(),
                "{}",
                f.name
            );
        }
        assert!(help.lines().all(|l| l.chars().count() <= 79));
    }

    /// Each row parses with each target its scope allows, in the context
    /// the cross-flag rules ask for.
    #[test]
    fn every_flag_parses_with_every_target_it_allows() {
        for f in FLAGS {
            for &(target, _) in TARGETS.iter().filter(|t| f.scope.allows(t.0)) {
                // Cross-flag rules, not the table, forbid these two.
                if [("--disturb", "disturb"), ("--resume", "serve")].contains(&(f.name, target)) {
                    continue;
                }
                let context = match target {
                    "serve" => "--socket s --state d",
                    "client" => "--socket s --online HCPA:0.05",
                    "campaign" => "--campaign-dir d",
                    _ => "",
                };
                let disturb = if f.name == "--recovery" && target != "disturb" {
                    "--disturb light"
                } else {
                    ""
                };
                let value = match f.kind {
                    Switch => String::new(),
                    Int(lo, _) => lo.to_string(),
                    Mode(words) => words[1].to_string(),
                    Policy => "retry".to_string(),
                    Text | Tag => match f.name {
                        "--faults" | "--disturb" => "light",
                        "--poison" => "x=panic",
                        "--arrival-rate" => "0.1",
                        "--schedule" | "--simulate" => "0:analytic:HCPA",
                        "--online" => "HCPA:0.05",
                        _ => "x",
                    }
                    .to_string(),
                };
                // A cell worker needs neither --journal nor --isolation.
                let line = format!(
                    "{target} {context} --cell-worker {disturb} {} {value}",
                    f.name
                );
                if let Err(e) = parse(&line) {
                    panic!("`{line}` rejected: {e}");
                }
            }
        }
    }

    #[test]
    fn parse_fills_the_fields_and_checks_every_rule() {
        let c = parse("--seed 7 --isolation process --journal j grid").unwrap();
        assert_eq!((c.seed, c.repeats, c.isolation.as_str()), (7, 3, "process"));
        assert_eq!(
            (c.journal.as_deref(), c.targets.as_slice()),
            (Some("j"), &["grid".into()][..])
        );
        assert_eq!(parse("").unwrap().targets, ["all"]);
        assert!(parse("--help --bogus").unwrap().help);
        let policy = parse("disturb").unwrap().recovery_policy();
        assert_eq!(policy, RecoveryPolicy::Rescue);
        // Online rejects --disturb, so --recovery with online always
        // breaks two rules; the scope rule is the one reported.
        let e = parse("online --recovery rescue").unwrap_err();
        assert_eq!(e, "--recovery cannot be used with the online target");
    }

    #[test]
    fn worker_argv_round_trips_through_the_parser() {
        let c = parse(
            "--seed 7 --repeats 2 --faults light --poison a=panic --disturb heavy \
             --recovery retry --journal j --isolation process grid",
        )
        .unwrap();
        let w = Cli::parse(&worker_command(&c, "j").args).unwrap();
        assert!(w.cell_worker);
        assert_eq!((w.seed, w.repeats, w.max_retries), (7, 2, c.max_retries));
        assert_eq!((w.faults, w.poison), (c.faults, c.poison));
        assert_eq!((w.disturb, w.recovery), (c.disturb, c.recovery));
    }
}
