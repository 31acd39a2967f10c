//! Component microbenchmarks: the building blocks every experiment run
//! exercises thousands of times — the fair-share solver, the L07 engine,
//! the DAG generator, the schedulers, the redistribution planner and the
//! regression fitter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mps_core::dag::gen::{generate, paper_corpus, DagGenParams, PAPER_CORPUS_SEED};
use mps_core::des::{max_min_fair_rates, Demand};
use mps_core::kernels::vanilla_plan;
use mps_core::l07::{L07Sim, PTaskSpec};
use mps_core::model::AnalyticModel;
use mps_core::platform::{Cluster, HostId};
use mps_core::regress::{fit_affine, Basis};
use mps_core::sched::{Cpa, Hcpa, Mcpa, Scheduler};

fn bench_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    for &(activities, resources) in &[(10usize, 8usize), (100, 65), (1000, 65)] {
        let caps = vec![125.0e6; resources];
        let demands: Vec<Demand> = (0..activities)
            .map(|i| Demand {
                weights: vec![
                    (i % resources, 1.0e6),
                    ((i * 7 + 3) % resources, 2.0e6),
                    ((i * 13 + 1) % resources, 0.5e6),
                ],
                bound: f64::INFINITY,
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("max_min_fair", format!("{activities}a_{resources}r")),
            &(caps, demands),
            |b, (caps, demands)| {
                b.iter(|| max_min_fair_rates(caps, demands).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_l07_transfers(c: &mut Criterion) {
    let mut g = c.benchmark_group("l07");
    for &flows in &[4usize, 16, 64] {
        g.bench_with_input(
            BenchmarkId::new("concurrent_transfers", flows),
            &flows,
            |b, &flows| {
                b.iter(|| {
                    let mut sim = L07Sim::new(Cluster::bayreuth());
                    for i in 0..flows {
                        sim.submit(&PTaskSpec::p2p(
                            HostId(i % 32),
                            HostId((i + 7) % 32),
                            32.0e6,
                        ))
                        .unwrap();
                    }
                    sim.run_to_idle().unwrap()
                });
            },
        );
    }
    g.finish();
}

fn bench_dag_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("dag");
    g.bench_function("generate_one", |b| {
        let params = DagGenParams {
            tasks: 10,
            input_matrices: 8,
            add_ratio: 0.5,
            matrix_size: 2000,
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            generate(&params, seed)
        });
    });
    g.bench_function("generate_corpus_54", |b| {
        b.iter(|| paper_corpus(PAPER_CORPUS_SEED));
    });
    g.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let corpus = paper_corpus(PAPER_CORPUS_SEED);
    let dag = &corpus[0].dag;
    let cluster = Cluster::bayreuth();
    let model = AnalyticModel::paper_jvm();
    let mut g = c.benchmark_group("sched");
    for algo in [&Cpa as &dyn Scheduler, &Hcpa, &Mcpa] {
        g.bench_function(algo.name(), |b| {
            b.iter(|| algo.schedule(dag, &cluster, &model));
        });
    }
    g.finish();
}

fn bench_redist_planning(c: &mut Criterion) {
    let mut g = c.benchmark_group("redist");
    for &(ps, pd) in &[(4usize, 8usize), (16, 32), (32, 32)] {
        g.bench_with_input(
            BenchmarkId::new("plan", format!("{ps}to{pd}")),
            &(ps, pd),
            |b, &(ps, pd)| {
                b.iter(|| vanilla_plan(3000, ps, pd));
            },
        );
    }
    g.finish();
}

fn bench_regression(c: &mut Criterion) {
    let ps: Vec<f64> = (1..=32).map(|p| p as f64).collect();
    let ys: Vec<f64> = ps.iter().map(|&p| 500.0 / p + 3.0).collect();
    c.bench_function("regress/fit_affine_32pts", |b| {
        b.iter(|| fit_affine(Basis::Recip, &ps, &ys).unwrap());
    });
}

fn fast_criterion() -> Criterion {
    // Keep the full suite runnable in a couple of minutes: these benches
    // guard against order-of-magnitude regressions, not microsecond drift.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(
    name = component_benches;
    config = fast_criterion();
    targets =
        bench_solver,
    bench_l07_transfers,
    bench_dag_generation,
    bench_schedulers,
    bench_redist_planning,
    bench_regression,
);
criterion_main!(component_benches);
