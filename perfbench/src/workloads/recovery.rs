//! `recovery`: the paper grid journaled to disk under the `moderate`
//! disturbance preset with rescue re-planning, then resumed from its
//! complete journal. A pass is the journaled run plus the resume.

use std::path::{Path, PathBuf};

use mps_core::faults::{DisturbReport, DisturbancePlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::{
    manifest_path, write_manifest, JournalHeader, JournalWriter, Manifest, RunControl, FORMAT_V1,
    MANIFEST_FORMAT_V1,
};
use mps_exp::{grid_health, CellResult, DisturbConfig, GridStatus, Harness, JournaledGrid};
use mps_perf::Tracer;

use super::{compose_grid, failed_cells, grid_hash, timed, Pass, Workload, REPEATS};

pub struct Recovery {
    h: Harness,
    dir: PathBuf,
    /// Journal JSON of the in-memory cold grid: every pass must match it.
    reference: String,
    hash: u64,
    passes: u64,
    fired: DisturbReport,
    journal_bytes: u64,
}

/// The cells as the journal stores them, one JSON line each.
fn to_json(cells: &[CellResult]) -> Result<String, String> {
    let lines: Result<Vec<String>, _> = cells.iter().map(serde_json::to_string).collect();
    Ok(lines.map_err(|e| format!("encode cells: {e}"))?.join("\n"))
}

fn remove_journal(path: &Path) -> Result<(), String> {
    for p in [path.to_path_buf(), manifest_path(path)] {
        std::fs::remove_file(&p).map_err(|e| format!("remove {}: {e}", p.display()))?;
    }
    Ok(())
}

impl Recovery {
    pub fn setup(seed: u64, scratch: &Path) -> Result<Self, String> {
        let h = Harness::new(seed);
        let hosts = h.nominal_cluster().node_count();
        let plan = DisturbancePlan::parse("seed=2011;moderate", hosts, DISTURB_HORIZON)
            .map_err(|e| format!("disturbance plan: {e}"))?;
        let h = h.with_disturbance(DisturbConfig::new(plan, RecoveryPolicy::Rescue));
        // Warm-ready is the cold grid in memory; journal I/O (its syncs
        // vary by tens of milliseconds) stays out of the set-up time.
        let cold = h.run_grid_with_workers(REPEATS, 1);
        let health = grid_health(&cold);
        eprintln!(
            "recovery: {} cells, {} disturbed, {} failed, {} rescues, {} crashes",
            cold.len(),
            health.disturbed,
            health.failed,
            health.rescues,
            health.crashes
        );
        Ok(Recovery {
            reference: to_json(&cold)?,
            hash: grid_hash(&cold),
            h,
            dir: scratch.to_path_buf(),
            passes: 0,
            fired: DisturbReport::default(),
            journal_bytes: 0,
        })
    }

    fn next_path(&mut self) -> PathBuf {
        self.passes += 1;
        self.dir.join(format!("grid-{}.jl", self.passes))
    }

    fn journaled_and_resumed(
        &mut self,
        path: &Path,
    ) -> Result<(JournaledGrid, JournaledGrid), String> {
        let ctrl = RunControl::unlimited();
        let written = self
            .h
            .run_grid_journaled(path, REPEATS, 1, false, &ctrl)
            .map_err(|e| format!("journaled grid: {e}"))?;
        self.journal_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        let resumed = self
            .h
            .run_grid_journaled(path, REPEATS, 1, true, &ctrl)
            .map_err(|e| format!("resumed grid: {e}"))?;
        Ok((written, resumed))
    }

    /// The journaled run computed every cell, the resume computed none,
    /// the written cells are byte-identical to the in-memory grid's, and
    /// the resumed cells to the written ones.
    fn check(&self, written: &JournaledGrid, resumed: &JournaledGrid) -> Result<(), String> {
        let n = written.cells.len();
        if written.status != GridStatus::Complete || written.computed != n || n == 0 {
            return Err(format!(
                "journaled grid ended {:?} with {} of {n} cells computed",
                written.status, written.computed
            ));
        }
        if resumed.status != GridStatus::Complete || resumed.resumed != n || resumed.computed != 0 {
            return Err(format!(
                "resume ended {:?}: {} resumed, {} recomputed of {n}",
                resumed.status, resumed.resumed, resumed.computed
            ));
        }
        let written_json = to_json(&written.cells)?;
        if written_json != self.reference {
            return Err("journaled cells differ from run_grid_with_workers".into());
        }
        if to_json(&resumed.cells)? != written_json {
            return Err("resumed cells differ from the written cells".into());
        }
        Ok(())
    }

    /// Writes `cells` as the grid runner journals them: header, one
    /// checksummed record per cell, sync, then the manifest.
    fn write_journal(&self, path: &Path, cells: &[CellResult]) -> Result<(), String> {
        let header = JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: "paper-grid".to_string(),
            seed: self.h.testbed.base_seed,
            repeats: REPEATS,
            cells_expected: cells.len() as u64,
            config_digest: self.h.config_digest(),
            isolation: "inproc".to_string(),
            request: String::new(),
        };
        let err = |e: mps_core::journal::JournalError| format!("journal write: {e}");
        let mut w = JournalWriter::create(path, &header).map_err(err)?;
        for c in cells {
            let payload = serde_json::to_string(c).map_err(|e| format!("encode cell: {e}"))?;
            w.append_record(&c.key(REPEATS), &payload).map_err(err)?;
        }
        w.sync().map_err(err)?;
        write_manifest(
            path,
            &Manifest {
                format: MANIFEST_FORMAT_V1.to_string(),
                campaign: "paper-grid".to_string(),
                records: cells.len() as u64,
                expected: cells.len() as u64,
                status: "complete".to_string(),
                quarantined: 0,
            },
        )
        .map_err(err)
    }
}

impl Workload for Recovery {
    fn pass(&mut self) -> Result<Pass, String> {
        let path = self.next_path();
        let ((written, resumed), wall_s) = {
            let (r, s) = timed(|| self.journaled_and_resumed(&path));
            (r?, s)
        };
        self.check(&written, &resumed)?;
        remove_journal(&path)?;
        Ok(Pass {
            wall_s,
            items: written.cells.len() as u64,
            failed: failed_cells(&written.cells),
            op_ms: Vec::new(),
        })
    }

    fn composed(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let path = self.next_path();
        let mut fired = DisturbReport::default();
        let ((cells, wrote, resumed), wall_s) = timed(|| {
            let cells = compose_grid(tr, &self.h, &mut fired);
            let s = tr.begin("journal.write", 0);
            let wrote = self.write_journal(&path, &cells);
            tr.end(s);
            let s = tr.begin("journal.resume", 0);
            let resumed =
                self.h
                    .run_grid_journaled(&path, REPEATS, 1, true, &RunControl::unlimited());
            tr.end(s);
            (cells, wrote, resumed)
        });
        if grid_hash(&cells) != self.hash {
            return Err("composed disturbed cells differ from run_grid_journaled".into());
        }
        wrote?;
        let resumed = resumed.map_err(|e| format!("resume of the composed journal: {e}"))?;
        if resumed.computed != 0 || resumed.resumed != cells.len() {
            return Err(format!(
                "resume of the composed journal recomputed {} cells",
                resumed.computed
            ));
        }
        if to_json(&resumed.cells)? != self.reference {
            return Err("cells resumed from the composed journal differ".into());
        }
        self.journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        self.fired = fired;
        remove_journal(&path)?;
        Ok(wall_s)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("faults.disturb.fired", self.fired.fired() as f64),
            ("faults.rescues", self.fired.rescues as f64),
            ("journal.bytes", self.journal_bytes as f64),
        ]
    }
}
