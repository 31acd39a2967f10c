//! `online`: the streaming engine under Poisson arrivals at rate 0.04,
//! HCPA plans of width at most 8, a 1M-event horizon per pass.

use mps_core::dag::Dag;
use mps_core::model::AnalyticModel;
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine, OnlineOutcome};
use mps_core::platform::{Cluster, ClusterSpec};
use mps_core::prelude::{paper_corpus, PAPER_CORPUS_SEED};
use mps_core::sched::{AllocKey, AllocationEngine, Hcpa};
use mps_perf::Tracer;

use super::{schedule, timed, Pass, Workload};

/// The repository's pinned trace digest at seed 2011.
const PINNED_2011: u64 = 0x0d91_dd50_ef35_2c1e;

pub struct Online {
    engine: OnlineEngine<'static>,
    cfg: OnlineConfig,
    last: OnlineOutcome,
    corpus: &'static [Dag],
    /// Width-`m` platforms, `[m - 1]`, for the composed planning step.
    subclusters: Vec<Cluster>,
    plans: AllocationEngine,
}

impl Online {
    pub fn setup(seed: u64) -> Result<Self, String> {
        // The engine borrows its corpus for its whole life, which here is
        // the process's.
        let corpus: &'static [Dag] = Box::leak(
            paper_corpus(PAPER_CORPUS_SEED)
                .into_iter()
                .map(|g| g.dag)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );
        let mut engine = OnlineEngine::new(corpus).map_err(|e| format!("online engine: {e}"))?;
        let mut cfg = OnlineConfig::new(ArrivalSpec::Poisson { rate: 0.04 }, OnlineAlgo::Hcpa);
        cfg.seed = seed;
        cfg.horizon_events = 1_000_000;
        cfg.max_width = 8;
        let last = engine.run(&cfg).map_err(|e| format!("cold run: {e}"))?;
        let digest = last.run.trace_digest;
        if seed == 2011 && digest != PINNED_2011 {
            return Err(format!(
                "online digest {digest:016x} at seed 2011, pinned {PINNED_2011:016x}"
            ));
        }
        let mut subclusters = Vec::new();
        for m in 1..=cfg.max_width.min(engine.hosts()) {
            let mut spec = ClusterSpec::bayreuth();
            spec.nodes = m;
            subclusters.push(spec.build().map_err(|e| format!("sub-cluster: {e}"))?);
        }
        eprintln!(
            "online: {} events, {} jobs completed, {} shed, digest {digest:016x}",
            last.run.events, last.run.completed, last.run.shed
        );
        Ok(Online {
            engine,
            cfg,
            last,
            corpus,
            subclusters,
            plans: AllocationEngine::new(),
        })
    }

    fn run(&mut self) -> Result<OnlineOutcome, String> {
        self.engine
            .run(&self.cfg)
            .map_err(|e| format!("online run: {e}"))
    }

    fn check(&mut self, out: OnlineOutcome) -> Result<(), String> {
        if out.run != self.last.run {
            return Err(format!(
                "online run diverged: digest {:016x}, first {:016x}",
                out.run.trace_digest, self.last.run.trace_digest
            ));
        }
        self.last = out;
        Ok(())
    }
}

impl Workload for Online {
    fn pass(&mut self) -> Result<Pass, String> {
        let (out, wall_s) = timed(|| self.run());
        let out = out?;
        let (items, completed) = (out.run.arrivals, out.run.completed);
        self.check(out)?;
        Ok(Pass {
            wall_s,
            items,
            failed: items.saturating_sub(completed),
            op_ms: Vec::new(),
        })
    }

    /// Every plan the engine can cache — each DAG at each width up to
    /// the cap — then one warm run.
    fn composed(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let model = AnalyticModel::paper_jvm();
        let (out, wall_s) = timed(|| {
            for (i, dag) in self.corpus.iter().enumerate() {
                let key = AllocKey {
                    dag: i as u64,
                    model: 0,
                };
                for cluster in &self.subclusters {
                    let s = tr.begin("online.plan", i as u64);
                    let plan = schedule(
                        tr,
                        i as u64,
                        &mut self.plans,
                        Some(key),
                        &Hcpa,
                        dag,
                        cluster,
                        &model,
                    );
                    tr.end(s);
                    std::hint::black_box(plan);
                }
            }
            let s = tr.begin("online.run", 0);
            let out = self.run();
            tr.end(s);
            out
        });
        self.check(out?)?;
        Ok(wall_s)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let (r, hw) = (&self.last.run, &self.last.high_water);
        vec![
            ("online.events", r.events as f64),
            ("online.arrivals", r.arrivals as f64),
            ("online.admitted", r.admitted as f64),
            ("online.shed", r.shed as f64),
            ("online.completed", r.completed as f64),
            ("online.plan_cache_entries", hw.plan_cache_entries as f64),
            ("online.des_high_water", hw.des_high_water as f64),
        ]
    }
}
