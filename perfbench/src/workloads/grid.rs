//! `grid`: the paper's full evaluation, 54 DAGs × {analytic, profile,
//! empirical} × {HCPA, MCPA} × 3 testbed repeats = 324 cells per pass,
//! closed loop on one worker.

use mps_core::faults::DisturbReport;
use mps_core::stats::{count_agreement, summary};
use mps_exp::{paired_relative_makespans, CellResult, Harness, SimVariant};
use mps_perf::Tracer;

use super::{compose_grid, failed_cells, grid_hash, timed, Pass, Workload, REPEATS};

/// The repository's pinned grid hash at seed 2011.
const PINNED_2011: u64 = 0xb0ec_1012_ae9a_fe8c;

pub struct Grid {
    h: Harness,
    hash: u64,
}

impl Grid {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let h = Harness::new(seed);
        let cold = h.run_grid_with_workers(REPEATS, 1);
        let hash = grid_hash(&cold);
        if seed == 2011 && hash != PINNED_2011 {
            return Err(format!(
                "grid hash {hash:016x} at seed 2011, pinned {PINNED_2011:016x}"
            ));
        }
        eprintln!("grid: {} cells, hash {hash:016x}", cold.len());
        for variant in SimVariant::ALL {
            let mut pairs = Vec::new();
            for n in distinct_sizes(&cold) {
                pairs.extend(paired_relative_makespans(&cold, variant, n));
            }
            let sim: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let real: Vec<f64> = pairs.iter().map(|p| p.2).collect();
            let a = count_agreement(&sim, &real, 0.0);
            eprintln!(
                "grid: {:<9} HCPA-vs-MCPA verdicts disagree on {} of {} DAGs",
                variant.name(),
                a.disagree,
                a.total()
            );
        }
        Ok(Grid { h, hash })
    }
}

fn distinct_sizes(cells: &[CellResult]) -> Vec<usize> {
    let mut n: Vec<usize> = cells.iter().map(|c| c.n).collect();
    n.sort_unstable();
    n.dedup();
    n
}

/// What the paper's figures compute from a grid: per variant, the
/// HCPA-vs-MCPA relative makespans, their verdict agreement, and the
/// simulation-error summary.
fn summarize(cells: &[CellResult]) -> usize {
    let mut pairs_seen = 0;
    for variant in SimVariant::ALL {
        for n in distinct_sizes(cells) {
            let pairs = paired_relative_makespans(cells, variant, n);
            let sim: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let real: Vec<f64> = pairs.iter().map(|p| p.2).collect();
            pairs_seen += count_agreement(&sim, &real, 0.0).total();
        }
        let errors: Vec<f64> = cells
            .iter()
            .filter(|c| c.variant == variant)
            .filter_map(CellResult::error_pct_checked)
            .collect();
        pairs_seen += summary(&errors).map_or(0, |s| s.n);
    }
    pairs_seen
}

impl Workload for Grid {
    fn pass(&mut self) -> Result<Pass, String> {
        let (cells, wall_s) = timed(|| self.h.run_grid_with_workers(REPEATS, 1));
        let hash = grid_hash(&cells);
        if hash != self.hash {
            return Err(format!(
                "warm grid hash {hash:016x} differs from the cold {:016x}",
                self.hash
            ));
        }
        Ok(Pass {
            wall_s,
            items: cells.len() as u64,
            failed: failed_cells(&cells),
            op_ms: Vec::new(),
        })
    }

    fn composed(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let (cells, wall_s) = timed(|| {
            let cells = compose_grid(tr, &self.h, &mut DisturbReport::default());
            let seen = tr.leaf("stats.summarize", 0, || summarize(&cells));
            std::hint::black_box(seen);
            cells
        });
        let hash = grid_hash(&cells);
        if hash != self.hash {
            return Err(format!(
                "composed grid hash {hash:016x} differs from run_grid_with_workers {:016x}",
                self.hash
            ));
        }
        Ok(wall_s)
    }
}
