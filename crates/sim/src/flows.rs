//! Redistribution flows built in reused buffers.
//!
//! The executor loop turns a finished task's output into point-to-point
//! flows toward each successor. [`RedistFlows`] does it without
//! allocating once warm: redistribution plans are memoized per
//! `(n, p_src, p_dst)`, and host pairs are aggregated through a dense
//! `n_hosts²` index table instead of a linear search of the output.

use std::collections::HashMap;

use mps_kernels::{vanilla_plan, RedistPlan};
use mps_platform::HostId;

/// Reusable state for building redistribution flows.
#[derive(Debug, Default)]
pub(crate) struct RedistFlows {
    /// Plans are a pure function of `(n, p_src, p_dst)`: both sides always
    /// use vanilla block distributions.
    plans: HashMap<(usize, usize, usize), RedistPlan>,
    /// `src * n_hosts + dst` → one past the pair's position in the output;
    /// zero when the pair has no flow yet. All-zero between builds.
    pair_slot: Vec<u32>,
    n_hosts: usize,
}

impl RedistFlows {
    /// Writes into `out` (cleared first) the flows that move an `n × n`
    /// matrix from source rank `i` on `map_src(src_hosts[i])` to
    /// destination rank `j` on `dst_hosts[j]`, on a platform of `n_hosts`
    /// hosts.
    ///
    /// Equal to `RedistPlan::network_transfers` over the mapped host
    /// indices: co-located rank pairs are skipped, each host pair appears
    /// once, in order of its first transfer, and its bytes are summed in
    /// transfer order — so the output is bit-identical.
    pub(crate) fn build(
        &mut self,
        n: usize,
        src_hosts: &[HostId],
        map_src: impl Fn(HostId) -> HostId,
        dst_hosts: &[HostId],
        n_hosts: usize,
        out: &mut Vec<(HostId, HostId, f64)>,
    ) {
        if self.n_hosts != n_hosts {
            self.n_hosts = n_hosts;
            self.pair_slot.clear();
            self.pair_slot.resize(n_hosts * n_hosts, 0);
        }
        let plan = self
            .plans
            .entry((n, src_hosts.len(), dst_hosts.len()))
            .or_insert_with(|| vanilla_plan(n, src_hosts.len(), dst_hosts.len()));
        out.clear();
        for t in plan.transfers() {
            let s = map_src(src_hosts[t.src_rank]);
            let d = dst_hosts[t.dst_rank];
            if s == d {
                continue;
            }
            let slot = &mut self.pair_slot[s.index() * n_hosts + d.index()];
            match *slot {
                0 => {
                    out.push((s, d, t.bytes));
                    *slot = out.len() as u32;
                }
                k => out[k as usize - 1].2 += t.bytes,
            }
        }
        for &(s, d, _) in out.iter() {
            self.pair_slot[s.index() * n_hosts + d.index()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N_HOSTS: usize = 32;

    fn hosts(raw: &[usize], p: usize) -> Vec<HostId> {
        raw.iter().take(p).map(|&h| HostId(h % N_HOSTS)).collect()
    }

    fn reference(n: usize, src: &[HostId], dst: &[HostId]) -> Vec<(HostId, HostId, f64)> {
        let src: Vec<usize> = src.iter().map(|h| h.index()).collect();
        let dst: Vec<usize> = dst.iter().map(|h| h.index()).collect();
        vanilla_plan(n, src.len(), dst.len())
            .network_transfers(&src, &dst)
            .into_iter()
            .map(|(s, d, b)| (HostId(s), HostId(d), b))
            .collect()
    }

    fn assert_bit_equal(
        got: &[(HostId, HostId, f64)],
        want: &[(HostId, HostId, f64)],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            prop_assert_eq!((g.0, g.1), (w.0, w.1));
            prop_assert_eq!(g.2.to_bits(), w.2.to_bits());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `(n, p_src, p_dst)` and random host maps — repeated
        /// hosts included, so maps need not be injective — give exactly
        /// `network_transfers`' output, on a builder reused across cases
        /// and across a crashed-source substitution like the disturbed
        /// executor's.
        #[test]
        fn flows_equal_network_transfers(
            n in 1usize..4000,
            p_src in 1usize..=32,
            p_dst in 1usize..=32,
            src_raw in prop::collection::vec(0usize..N_HOSTS, 32),
            dst_raw in prop::collection::vec(0usize..N_HOSTS, 32),
            crashed_host in 0usize..N_HOSTS,
            spread in 1usize..=N_HOSTS,
        ) {
            // `spread` narrows the host range so collisions are common.
            let narrow = |raw: &[usize]| -> Vec<usize> { raw.iter().map(|h| h % spread).collect() };
            let src = hosts(&narrow(&src_raw), p_src);
            let dst = hosts(&narrow(&dst_raw), p_dst);
            let mut builder = RedistFlows::default();
            let mut out = Vec::new();
            for _ in 0..2 {
                builder.build(n, &src, |h| h, &dst, N_HOSTS, &mut out);
                assert_bit_equal(&out, &reference(n, &src, &dst))?;
            }

            // Crashed sources re-served from the first surviving one.
            let crashed = HostId(crashed_host % spread);
            if let Some(&survivor) = src.iter().find(|&&h| h != crashed) {
                let substitute = |h: HostId| if h == crashed { survivor } else { h };
                builder.build(n, &src, substitute, &dst, N_HOSTS, &mut out);
                let mapped: Vec<HostId> = src.iter().map(|&h| substitute(h)).collect();
                assert_bit_equal(&out, &reference(n, &mapped, &dst))?;
            }
            prop_assert!(builder.pair_slot.iter().all(|&s| s == 0));
        }
    }
}
