//! Parallel-task specifications (the `Ptask_L07` input format).
//!
//! A parallel task is described by a *computation vector* `a` (flops per
//! participating host) and a *communication pattern* (bytes exchanged
//! between host pairs) — §IV of the paper. Setting `a ≠ 0, B = 0` gives a
//! fully parallel compute task; `a = 0, B ≠ 0` a data-redistribution task;
//! both non-zero a parallel task with internal communication.

use mps_platform::HostId;

/// Specification of one parallel task for the L07 simulator.
#[derive(Debug, Clone, Default)]
pub struct PTaskSpec {
    /// Per-host computation amounts (flops). A host may appear once only.
    pub comp: Vec<(HostId, f64)>,
    /// Point-to-point flows `(src, dst, bytes)`. Flows between identical
    /// hosts are local copies and consume no network resources (they are
    /// accepted and ignored).
    pub flows: Vec<(HostId, HostId, f64)>,
    /// Additional fixed latency charged before the task progresses
    /// (models protocol overheads injected by refined simulators).
    pub extra_latency: f64,
    /// Optional rate cap on the whole task's progress (1/s of task
    /// fraction).
    pub rate_bound: f64,
}

impl PTaskSpec {
    /// Empty task (completes immediately if submitted as-is).
    pub fn new() -> Self {
        PTaskSpec {
            rate_bound: f64::INFINITY,
            ..Default::default()
        }
    }

    /// Empties the spec back to [`PTaskSpec::new`], keeping the capacity
    /// of its vectors so one spec can be refilled for every submission.
    pub fn clear(&mut self) {
        self.comp.clear();
        self.flows.clear();
        self.extra_latency = 0.0;
        self.rate_bound = f64::INFINITY;
    }

    /// A pure computation task: `flops[i]` on `hosts[i]`.
    pub fn compute(hosts: &[HostId], flops: &[f64]) -> Self {
        assert_eq!(hosts.len(), flops.len(), "hosts/flops length mismatch");
        let mut s = Self::new();
        s.comp = hosts.iter().copied().zip(flops.iter().copied()).collect();
        s
    }

    /// A pure computation task with a uniform per-host amount.
    pub fn compute_uniform(hosts: &[HostId], flops_per_host: f64) -> Self {
        let v = vec![flops_per_host; hosts.len()];
        Self::compute(hosts, &v)
    }

    /// A communication-only task from explicit flows.
    pub fn transfers(flows: Vec<(HostId, HostId, f64)>) -> Self {
        let mut s = Self::new();
        s.flows = flows;
        s
    }

    /// A single point-to-point transfer.
    pub fn p2p(src: HostId, dst: HostId, bytes: f64) -> Self {
        Self::transfers(vec![(src, dst, bytes)])
    }

    /// Adds an intra-task communication matrix over the given rank→host
    /// mapping: `comm[i][j]` bytes from rank `i`'s host to rank `j`'s host.
    #[must_use]
    pub fn with_comm_matrix(mut self, hosts: &[HostId], comm: &[Vec<f64>]) -> Self {
        assert_eq!(hosts.len(), comm.len(), "comm matrix row count");
        for (i, row) in comm.iter().enumerate() {
            assert_eq!(hosts.len(), row.len(), "comm matrix column count");
            for (j, &bytes) in row.iter().enumerate() {
                if bytes > 0.0 {
                    self.flows.push((hosts[i], hosts[j], bytes));
                }
            }
        }
        self
    }

    /// Adds a cross-allocation communication matrix (redistribution):
    /// `comm[i][j]` bytes from `src_hosts[i]` to `dst_hosts[j]`.
    #[must_use]
    pub fn with_redist_matrix(
        mut self,
        src_hosts: &[HostId],
        dst_hosts: &[HostId],
        comm: &[Vec<f64>],
    ) -> Self {
        assert_eq!(src_hosts.len(), comm.len(), "redist matrix row count");
        for (i, row) in comm.iter().enumerate() {
            assert_eq!(dst_hosts.len(), row.len(), "redist matrix column count");
            for (j, &bytes) in row.iter().enumerate() {
                if bytes > 0.0 {
                    self.flows.push((src_hosts[i], dst_hosts[j], bytes));
                }
            }
        }
        self
    }

    /// Builder: extra fixed latency.
    #[must_use]
    pub fn with_extra_latency(mut self, latency: f64) -> Self {
        self.extra_latency = latency;
        self
    }

    /// Builder: rate bound.
    #[must_use]
    pub fn with_rate_bound(mut self, bound: f64) -> Self {
        self.rate_bound = bound;
        self
    }

    /// Total flops across hosts.
    pub fn total_flops(&self) -> f64 {
        self.comp.iter().map(|&(_, f)| f).sum()
    }

    /// Total bytes across flows (including local ones).
    pub fn total_bytes(&self) -> f64 {
        self.flows.iter().map(|&(_, _, b)| b).sum()
    }

    /// True when the task has neither computation nor flows.
    pub fn is_empty(&self) -> bool {
        self.comp.iter().all(|&(_, f)| f <= 0.0) && self.flows.iter().all(|&(_, _, b)| b <= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_builder() {
        let hosts = [HostId(0), HostId(1)];
        let t = PTaskSpec::compute(&hosts, &[10.0, 20.0]);
        assert_eq!(t.total_flops(), 30.0);
        assert_eq!(t.total_bytes(), 0.0);
        assert!(!t.is_empty());
    }

    #[test]
    fn uniform_compute_builder() {
        let hosts = [HostId(0), HostId(1), HostId(2)];
        let t = PTaskSpec::compute_uniform(&hosts, 5.0);
        assert_eq!(t.total_flops(), 15.0);
    }

    #[test]
    fn comm_matrix_skips_zeros() {
        let hosts = [HostId(0), HostId(1)];
        let comm = vec![vec![0.0, 8.0], vec![0.0, 0.0]];
        let t = PTaskSpec::new().with_comm_matrix(&hosts, &comm);
        assert_eq!(t.flows, vec![(HostId(0), HostId(1), 8.0)]);
    }

    #[test]
    fn redist_matrix_maps_rank_pairs() {
        let src = [HostId(0), HostId(1)];
        let dst = [HostId(2)];
        let comm = vec![vec![4.0], vec![6.0]];
        let t = PTaskSpec::new().with_redist_matrix(&src, &dst, &comm);
        assert_eq!(t.total_bytes(), 10.0);
        assert_eq!(t.flows.len(), 2);
    }

    #[test]
    fn empty_detection() {
        assert!(PTaskSpec::new().is_empty());
        let zero = PTaskSpec::compute(&[HostId(0)], &[0.0]);
        assert!(zero.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn compute_builder_validates_lengths() {
        PTaskSpec::compute(&[HostId(0)], &[1.0, 2.0]);
    }
}
