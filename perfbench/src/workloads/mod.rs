//! The four workloads. Each sets itself up to warm-ready (cold pass
//! included), then runs warm passes two ways: through the public entry
//! point a user calls ([`Workload::pass`]), and rebuilt from the layers'
//! public calls with a span around each ([`Workload::composed`]). Both
//! check their outputs; any mismatch is an `Err` and fails the run.

use std::path::Path;

use mps_core::dag::gen::GeneratedDag;
use mps_core::dag::{Dag, TaskId};
use mps_core::faults::DisturbReport;
use mps_core::journal::fnv64;
use mps_core::model::PerfModel;
use mps_core::platform::{Cluster, ClusterSpec, HostId};
use mps_core::sched::{
    default_redist_estimate, map_tasks, AllocKey, AllocationEngine, Hcpa, MappingCosts, Mcpa,
    Schedule, Scheduler,
};
use mps_core::sim::{DisturbSetup, ExecSlab, Simulator};
use mps_exp::{CellOutcome, CellResult, Harness, SimVariant};
use mps_perf::Tracer;

pub mod grid;
pub mod online;
pub mod recovery;
pub mod schedule;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["grid", "recovery", "schedule", "online"];

/// Testbed repeats per grid cell, as in the paper's evaluation.
pub const REPEATS: u64 = 3;

/// One timed warm pass.
pub struct Pass {
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Items the pass attempted: cells, requests, or jobs.
    pub items: u64,
    /// Items that failed: failed cells, refused or failed requests, shed
    /// jobs.
    pub failed: u64,
    /// Latency of each operation, milliseconds, when an operation is
    /// smaller than a pass (requests); empty when the pass is the
    /// operation.
    pub op_ms: Vec<f64>,
}

/// A set-up workload, ready for warm passes.
pub trait Workload {
    /// One warm pass through the public entry point, timed and checked.
    fn pass(&mut self) -> Result<Pass, String>;

    /// One warm pass rebuilt from the layers' public calls, with a span
    /// around each call in `tr`, checked against the entry point's
    /// output; returns its wall time in seconds, checks excluded. A
    /// disabled tracer gives the untraced twin of the pass.
    fn composed(&mut self, tr: &mut Tracer) -> Result<f64, String>;

    /// Per-layer counts observed so far (`name`, value).
    fn counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Share (%) of an entry-point pass spent outside the layers' calls,
    /// given the median untraced composed pass (seconds): the socket,
    /// queue and wake-ups of a daemon round trip; 0 without a daemon.
    fn wait_share_pct(&self, _untraced_composed_s: f64) -> f64 {
        0.0
    }

    /// Stops what the workload started.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// Sets up workload `name` for `seed`, using `scratch` (an existing,
/// empty directory) for its files.
pub fn setup(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "grid" => Box::new(grid::Grid::setup(seed)?),
        "recovery" => Box::new(recovery::Recovery::setup(seed, scratch)?),
        "schedule" => Box::new(schedule::ScheduleLoad::setup(seed, scratch)?),
        "online" => Box::new(online::Online::setup(seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (want one of {NAMES:?})"
            ))
        }
    })
}

/// FNV-1a over the `Debug` rendering of a cell set. `Debug` prints f64
/// values so they round-trip, so equal hashes mean bit-equal grids (the
/// hash the repository pins for the paper grid).
pub fn grid_hash(cells: &[CellResult]) -> u64 {
    fnv64(format!("{cells:?}").as_bytes())
}

/// Canonical grid order (dag, variant name, algorithm), as every grid
/// entry point returns it.
pub fn sort_canonical(cells: &mut [CellResult]) {
    cells.sort_by(|a, b| {
        (a.dag.as_str(), a.variant.name(), a.algo.as_str()).cmp(&(
            b.dag.as_str(),
            b.variant.name(),
            b.algo.as_str(),
        ))
    });
}

/// Cells of a grid that produced no measurement.
pub fn failed_cells(cells: &[CellResult]) -> u64 {
    cells.iter().filter(|c| !c.succeeded()).count() as u64
}

/// One schedule through the allocation and mapping calls, exactly as
/// `Scheduler::schedule_with_engine` (`key = None`) or
/// `schedule_with_keyed_engine` compose them.
#[allow(clippy::too_many_arguments)]
pub fn schedule(
    tr: &mut Tracer,
    id: u64,
    engine: &mut AllocationEngine,
    key: Option<AllocKey>,
    algo: &dyn Scheduler,
    dag: &Dag,
    cluster: &Cluster,
    model: &dyn PerfModel,
) -> Schedule {
    let config = algo.allocation_config(cluster);
    let tau = |t: TaskId, p: usize| {
        let kernel = dag.task(t).kernel;
        model.task_time(kernel, p) + model.startup_overhead(p)
    };
    let s = tr.begin("sched.allocate", id);
    let allocations = match key {
        Some(k) => engine.allocate_keyed(k, dag, cluster.node_count(), &config, tau),
        None => engine.allocate(dag, cluster.node_count(), &config, tau),
    };
    tr.end(s);
    tr.leaf("sched.map", id, || {
        let exec: Vec<f64> = dag
            .task_ids()
            .map(|t| {
                engine
                    .tau_table()
                    .cached(t, allocations[t.index()])
                    .unwrap_or_else(|| tau(t, allocations[t.index()]))
            })
            .collect();
        let redist = |pred: TaskId, succ: TaskId| {
            let bytes = dag.task(pred).kernel.matrix_bytes();
            let overhead =
                model.redist_overhead(allocations[pred.index()], allocations[succ.index()]);
            default_redist_estimate(cluster, bytes, overhead)
        };
        let costs = MappingCosts {
            exec: &exec,
            redist: &redist,
        };
        map_tasks(dag, cluster, &allocations, &costs, algo.name())
    })
}

/// The warm state one grid worker carries from cell to cell.
#[derive(Default)]
pub struct Slab {
    engine: AllocationEngine,
    sim: ExecSlab,
    testbed: ExecSlab,
}

/// One grid cell rebuilt from the layers' calls, exactly as the grid
/// runner computes it (allocation keyed per DAG and model, simulation on
/// the nominal cluster, `REPEATS` testbed runs, disturbed ones with
/// rescue re-planning when the harness carries a disturbance config).
/// Disturbance counters are added to `fired`.
#[allow(clippy::too_many_arguments)]
pub fn compose_cell(
    tr: &mut Tracer,
    id: u64,
    h: &Harness,
    slab: &mut Slab,
    g: &GeneratedDag,
    variant: SimVariant,
    algo: &dyn Scheduler,
    fired: &mut DisturbReport,
) -> CellResult {
    let cell_span = tr.begin("exp.cell", id);
    let model = h.model_of(variant);
    let key = AllocKey {
        dag: fnv64(g.name().as_bytes()),
        model: SimVariant::ALL
            .iter()
            .position(|&v| v == variant)
            .unwrap_or(0) as u64,
    };
    let mut cell = CellResult {
        dag: g.name(),
        n: g.params.matrix_size,
        variant,
        algo: algo.name().to_string(),
        sim_makespan: 0.0,
        real_makespan: 0.0,
        real_runs: Vec::new(),
        outcome: CellOutcome::Full,
    };
    let nominal = h.nominal_cluster();
    let plan = schedule(
        tr,
        id,
        &mut slab.engine,
        Some(key),
        algo,
        &g.dag,
        nominal,
        model.as_ref(),
    );
    let sim = tr.leaf("sim.simulate", id, || {
        Simulator::new(nominal.clone(), model.as_ref()).simulate_with_slab(
            &mut slab.sim,
            &g.dag,
            &plan,
        )
    });
    match sim {
        Ok(r) => cell.sim_makespan = r.makespan,
        Err(e) => {
            cell.outcome = CellOutcome::Failed {
                error: format!("simulation: {e}"),
            };
            tr.end(cell_span);
            return cell;
        }
    }

    let (mut failed_runs, mut retries) = (0usize, 0u32);
    let mut first_error: Option<String> = None;
    let mut report = DisturbReport::default();
    for r in 0..REPEATS {
        let run_seed = g.seed.wrapping_add(r);
        let run = match &h.disturb {
            None => tr.leaf("testbed.execute", id, || {
                h.testbed
                    .execute_prevalidated_with_slab(&mut slab.testbed, &g.dag, &plan, run_seed)
            }),
            Some(cfg) => {
                let span = tr.begin("testbed.execute_disturbed", id);
                let mut run_report = DisturbReport::default();
                let engine = &mut slab.engine;
                let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
                    let s = tr.begin("faults.rescue_replan", id);
                    let mut spec = ClusterSpec::bayreuth();
                    spec.nodes = survivors.len();
                    let rescue = spec.build().ok().map(|sub| {
                        let mut s =
                            schedule(tr, id, engine, None, algo, &g.dag, &sub, model.as_ref());
                        for st in &mut s.tasks {
                            for host in &mut st.hosts {
                                *host = survivors[host.index()];
                            }
                        }
                        s
                    });
                    tr.end(s);
                    rescue
                };
                let run = h.testbed.execute_disturbed_prevalidated_with_slab(
                    &mut slab.testbed,
                    &g.dag,
                    &plan,
                    run_seed,
                    h.fault_plan.as_ref(),
                    &h.policy,
                    DisturbSetup {
                        plan: &cfg.plan,
                        recovery: cfg.recovery,
                        rescue_overhead: cfg.rescue_overhead,
                        replan: Some(&mut replan),
                    },
                    &mut run_report,
                );
                tr.end(span);
                report.absorb(&run_report);
                run
            }
        };
        match run {
            Ok(res) => {
                retries += res.total_retries();
                cell.real_runs.push(res.makespan);
            }
            Err(e) => {
                failed_runs += 1;
                first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    fired.absorb(&report);

    // The runner's outcome ladder.
    if cell.real_runs.is_empty() {
        cell.outcome = CellOutcome::Failed {
            error: first_error.unwrap_or_else(|| "no runs".into()),
        };
    } else {
        cell.real_makespan = cell.real_runs.iter().sum::<f64>() / cell.real_runs.len() as f64;
        if report.fired() > 0 || report.rescues > 0 {
            cell.outcome = CellOutcome::Disturbed {
                failed_runs,
                retries,
                report,
            };
        } else if failed_runs > 0 || retries > 0 {
            cell.outcome = CellOutcome::Degraded {
                failed_runs,
                retries,
            };
        }
    }
    tr.end(cell_span);
    cell
}

/// Every cell of the paper grid rebuilt from the layers' calls, in
/// canonical order. A grid worker is a fresh thread on every grid call,
/// so its slab starts cold on every pass; so does this one.
pub fn compose_grid(tr: &mut Tracer, h: &Harness, fired: &mut DisturbReport) -> Vec<CellResult> {
    let mut slab = Slab::default();
    let mut cells = Vec::new();
    for g in h.corpus().iter() {
        for variant in SimVariant::ALL {
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                let id = cells.len() as u64;
                cells.push(compose_cell(tr, id, h, &mut slab, g, variant, algo, fired));
            }
        }
    }
    sort_canonical(&mut cells);
    cells
}

/// A seeded splitmix64 stream (the request order of `schedule`).
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled copy of `items` (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Times `f`, in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
