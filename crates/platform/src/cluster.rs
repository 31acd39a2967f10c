//! Homogeneous cluster platform model.
//!
//! The paper's target platform is a 32-node cluster with a dedicated Gigabit
//! Ethernet switch: every node has a private full-duplex link to the switch,
//! and the switch itself is modelled as a shared *backbone* link (this is how
//! the paper instantiates SimGrid: "the bandwidths and latencies of the
//! cluster's switch and those of the private links connecting each node to
//! the switch").
//!
//! A message from host `i` to host `j ≠ i` traverses three links: `i`'s
//! uplink, the backbone, and `j`'s downlink. Transfers between co-located
//! processes (`i == j`) traverse no links.

use serde::{Deserialize, Serialize};

use crate::units::{GBPS, MFLOPS, MICROSECOND};

/// Identifier of a host (0-based, dense).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct HostId(pub usize);

impl HostId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// One direction of a network link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkId {
    /// Host → switch direction of a private link.
    Up(usize),
    /// Switch → host direction of a private link.
    Down(usize),
    /// The shared switch backbone.
    Backbone,
}

/// A link's physical characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProps {
    /// Bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Latency in seconds.
    pub latency: f64,
}

/// Declarative description of a cluster. Serializable so experiment
/// configs can pin the platform. Homogeneous by default; per-node speed
/// factors model heterogeneous clusters (the setting HCPA was designed
/// for).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Per-node compute speed in flops/s.
    pub flops_per_node: f64,
    /// Private link bandwidth in bytes/s.
    pub link_bandwidth: f64,
    /// Private link latency in seconds.
    pub link_latency: f64,
    /// Backbone (switch) bandwidth in bytes/s.
    pub backbone_bandwidth: f64,
    /// Backbone latency in seconds.
    pub backbone_latency: f64,
    /// Optional per-node speed multipliers (length must equal `nodes`);
    /// `None` means homogeneous. Host `i`'s speed is
    /// `flops_per_node · speed_factors[i]`.
    #[serde(default)]
    pub speed_factors: Option<Vec<f64>>,
}

impl ClusterSpec {
    /// The paper's platform: 32 nodes at 250 MFlop/s (the JVM-benchmarked
    /// rate), Gigabit Ethernet, 100 µs latencies on private links and switch.
    pub fn bayreuth() -> Self {
        ClusterSpec {
            nodes: 32,
            flops_per_node: 250.0 * MFLOPS,
            link_bandwidth: GBPS,
            link_latency: 100.0 * MICROSECOND,
            backbone_bandwidth: GBPS,
            backbone_latency: 100.0 * MICROSECOND,
            speed_factors: None,
        }
    }

    /// Builder: heterogeneous per-node speed multipliers.
    #[must_use]
    pub fn with_speed_factors(mut self, factors: Vec<f64>) -> Self {
        self.speed_factors = Some(factors);
        self
    }

    /// Validates and builds the platform.
    pub fn build(&self) -> Result<Cluster, PlatformError> {
        Cluster::new(self.clone())
    }
}

/// Validation errors for platform descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The cluster must have at least one node.
    NoNodes,
    /// A physical quantity was non-positive, infinite, or NaN.
    InvalidQuantity {
        /// Which field was invalid.
        field: &'static str,
    },
    /// `speed_factors` length does not match the node count.
    SpeedFactorCount {
        /// Node count.
        expected: usize,
        /// Factor count supplied.
        got: usize,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::NoNodes => write!(f, "cluster must have at least one node"),
            PlatformError::InvalidQuantity { field } => {
                write!(f, "invalid (non-positive or non-finite) value for {field}")
            }
            PlatformError::SpeedFactorCount { expected, got } => {
                write!(f, "speed_factors has {got} entries for {expected} nodes")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// A validated homogeneous cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    spec: ClusterSpec,
}

impl Cluster {
    /// Validates a spec into a platform. Rates and bandwidths must be
    /// finite and strictly positive, latencies finite and non-negative —
    /// an infinite bandwidth or NaN flop rate would propagate silently
    /// through every simulated duration, so all of them are rejected here,
    /// at the boundary.
    pub fn new(spec: ClusterSpec) -> Result<Self, PlatformError> {
        if spec.nodes == 0 {
            return Err(PlatformError::NoNodes);
        }
        for (value, field) in [
            (spec.flops_per_node, "flops_per_node"),
            (spec.link_bandwidth, "link_bandwidth"),
            (spec.backbone_bandwidth, "backbone_bandwidth"),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(PlatformError::InvalidQuantity { field });
            }
        }
        for (value, field) in [
            (spec.link_latency, "link_latency"),
            (spec.backbone_latency, "backbone_latency"),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(PlatformError::InvalidQuantity { field });
            }
        }
        if let Some(factors) = &spec.speed_factors {
            if factors.len() != spec.nodes {
                return Err(PlatformError::SpeedFactorCount {
                    expected: spec.nodes,
                    got: factors.len(),
                });
            }
            if factors.iter().any(|&f| !f.is_finite() || f <= 0.0) {
                return Err(PlatformError::InvalidQuantity {
                    field: "speed_factors",
                });
            }
        }
        Ok(Cluster { spec })
    }

    /// The paper's 32-node Bayreuth cluster.
    pub fn bayreuth() -> Self {
        ClusterSpec::bayreuth()
            .build()
            .expect("built-in spec is valid")
    }

    /// The defining spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of compute nodes.
    pub fn node_count(&self) -> usize {
        self.spec.nodes
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.spec.nodes).map(HostId)
    }

    /// Per-node compute speed in flops/s (applies the heterogeneous speed
    /// factor if configured).
    pub fn host_speed(&self, host: HostId) -> f64 {
        assert!(host.0 < self.spec.nodes, "host out of range");
        match &self.spec.speed_factors {
            Some(factors) => self.spec.flops_per_node * factors[host.0],
            None => self.spec.flops_per_node,
        }
    }

    /// Properties of one link.
    pub fn link_props(&self, link: LinkId) -> LinkProps {
        match link {
            LinkId::Up(_) | LinkId::Down(_) => LinkProps {
                bandwidth: self.spec.link_bandwidth,
                latency: self.spec.link_latency,
            },
            LinkId::Backbone => LinkProps {
                bandwidth: self.spec.backbone_bandwidth,
                latency: self.spec.backbone_latency,
            },
        }
    }

    /// All links of the platform: `nodes` uplinks, `nodes` downlinks, and the
    /// backbone, in a deterministic order.
    pub fn links(&self) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(2 * self.spec.nodes + 1);
        for i in 0..self.spec.nodes {
            out.push(LinkId::Up(i));
        }
        for i in 0..self.spec.nodes {
            out.push(LinkId::Down(i));
        }
        out.push(LinkId::Backbone);
        out
    }

    /// The ordered list of links a `src → dst` message traverses. Empty when
    /// `src == dst` (intra-node communication does not touch the network).
    pub fn route(&self, src: HostId, dst: HostId) -> Vec<LinkId> {
        assert!(src.0 < self.spec.nodes, "src host out of range");
        assert!(dst.0 < self.spec.nodes, "dst host out of range");
        if src == dst {
            return Vec::new();
        }
        vec![LinkId::Up(src.0), LinkId::Backbone, LinkId::Down(dst.0)]
    }

    /// Allocation-free variant of [`Cluster::route`]: yields the same links
    /// in the same order without building a `Vec`. Hot-path callers (the L07
    /// simulator accumulates link weights per flow) use this.
    pub fn route_links(
        &self,
        src: HostId,
        dst: HostId,
    ) -> std::iter::Take<std::array::IntoIter<LinkId, 3>> {
        assert!(src.0 < self.spec.nodes, "src host out of range");
        assert!(dst.0 < self.spec.nodes, "dst host out of range");
        let len = if src == dst { 0 } else { 3 };
        [LinkId::Up(src.0), LinkId::Backbone, LinkId::Down(dst.0)]
            .into_iter()
            .take(len)
    }

    /// Total latency along the route from `src` to `dst`.
    pub fn route_latency(&self, src: HostId, dst: HostId) -> f64 {
        self.route_links(src, dst)
            .map(|l| self.link_props(l).latency)
            .sum()
    }

    /// Uncontended point-to-point transfer time for `bytes` from `src` to
    /// `dst`: route latency plus bytes over the bottleneck bandwidth.
    pub fn p2p_transfer_time(&self, src: HostId, dst: HostId, bytes: f64) -> f64 {
        let route = self.route(src, dst);
        if route.is_empty() {
            return 0.0;
        }
        let bottleneck = route
            .iter()
            .map(|&l| self.link_props(l).bandwidth)
            .fold(f64::INFINITY, f64::min);
        self.route_latency(src, dst) + bytes / bottleneck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bayreuth_matches_the_paper() {
        let c = Cluster::bayreuth();
        assert_eq!(c.node_count(), 32);
        assert!((c.host_speed(HostId(0)) - 250.0e6).abs() < 1.0);
        let up = c.link_props(LinkId::Up(0));
        assert!((up.bandwidth - 125.0e6).abs() < 1.0);
        assert!((up.latency - 1.0e-4).abs() < 1e-12);
    }

    #[test]
    fn route_is_up_backbone_down() {
        let c = Cluster::bayreuth();
        let r = c.route(HostId(3), HostId(7));
        assert_eq!(r, vec![LinkId::Up(3), LinkId::Backbone, LinkId::Down(7)]);
    }

    #[test]
    fn route_links_matches_route() {
        let c = Cluster::bayreuth();
        for (s, d) in [(3usize, 7usize), (5, 5), (0, 31), (31, 0)] {
            let iterated: Vec<LinkId> = c.route_links(HostId(s), HostId(d)).collect();
            assert_eq!(iterated, c.route(HostId(s), HostId(d)));
        }
    }

    #[test]
    fn same_host_route_is_empty() {
        let c = Cluster::bayreuth();
        assert!(c.route(HostId(5), HostId(5)).is_empty());
        assert_eq!(c.p2p_transfer_time(HostId(5), HostId(5), 1e9), 0.0);
    }

    #[test]
    fn route_latency_sums_three_links() {
        let c = Cluster::bayreuth();
        assert!((c.route_latency(HostId(0), HostId(1)) - 3.0e-4).abs() < 1e-12);
    }

    #[test]
    fn p2p_transfer_time_uses_bottleneck() {
        let mut spec = ClusterSpec::bayreuth();
        spec.backbone_bandwidth = 62.5e6; // half the private links
        let c = spec.build().unwrap();
        let t = c.p2p_transfer_time(HostId(0), HostId(1), 62.5e6);
        assert!((t - (3.0e-4 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn links_enumerates_all() {
        let c = Cluster::bayreuth();
        let links = c.links();
        assert_eq!(links.len(), 65);
        assert_eq!(links[64], LinkId::Backbone);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = ClusterSpec::bayreuth();
        s.nodes = 0;
        assert_eq!(s.build().unwrap_err(), PlatformError::NoNodes);

        let mut s = ClusterSpec::bayreuth();
        s.flops_per_node = 0.0;
        assert!(matches!(
            s.build().unwrap_err(),
            PlatformError::InvalidQuantity {
                field: "flops_per_node"
            }
        ));

        let mut s = ClusterSpec::bayreuth();
        s.link_latency = -1.0;
        assert!(s.build().is_err());

        let mut s = ClusterSpec::bayreuth();
        s.link_bandwidth = f64::NAN;
        assert!(s.build().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_quantities() {
        // +inf passes a plain `> 0.0` check but is just as corrosive as
        // NaN: every field must be finite.
        for patch in [
            |s: &mut ClusterSpec| s.flops_per_node = f64::INFINITY,
            |s: &mut ClusterSpec| s.link_bandwidth = f64::INFINITY,
            |s: &mut ClusterSpec| s.backbone_bandwidth = f64::INFINITY,
            |s: &mut ClusterSpec| s.link_latency = f64::INFINITY,
            |s: &mut ClusterSpec| s.backbone_latency = f64::INFINITY,
            |s: &mut ClusterSpec| s.link_latency = f64::NAN,
            |s: &mut ClusterSpec| s.flops_per_node = f64::NEG_INFINITY,
        ] {
            let mut s = ClusterSpec::bayreuth();
            patch(&mut s);
            assert!(
                matches!(s.build(), Err(PlatformError::InvalidQuantity { .. })),
                "accepted a non-finite quantity: {s:?}"
            );
        }
    }

    #[test]
    fn zero_latency_is_allowed() {
        let mut s = ClusterSpec::bayreuth();
        s.link_latency = 0.0;
        s.backbone_latency = 0.0;
        assert!(s.build().is_ok());
    }

    #[test]
    #[should_panic(expected = "src host out of range")]
    fn out_of_range_route_panics() {
        let c = Cluster::bayreuth();
        c.route(HostId(99), HostId(0));
    }

    #[test]
    fn spec_serde_roundtrip() {
        let s = ClusterSpec::bayreuth();
        let json = serde_json::to_string(&s).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        // JSON prints shortest-roundtrip decimals, which can differ from the
        // computed value in the last ULP — compare with a tight tolerance.
        assert_eq!(s.nodes, back.nodes);
        for (a, b) in [
            (s.flops_per_node, back.flops_per_node),
            (s.link_bandwidth, back.link_bandwidth),
            (s.link_latency, back.link_latency),
            (s.backbone_bandwidth, back.backbone_bandwidth),
            (s.backbone_latency, back.backbone_latency),
        ] {
            assert!((a - b).abs() <= a.abs() * 1e-12);
        }
    }

    #[test]
    fn hosts_iterator_is_dense() {
        let c = Cluster::bayreuth();
        let hosts: Vec<HostId> = c.hosts().collect();
        assert_eq!(hosts.len(), 32);
        assert_eq!(hosts[0], HostId(0));
        assert_eq!(hosts[31], HostId(31));
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostId(4).to_string(), "h4");
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    #[test]
    fn speed_factors_scale_host_speeds() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 3;
        let c = spec
            .with_speed_factors(vec![1.0, 2.0, 0.5])
            .build()
            .unwrap();
        assert!((c.host_speed(HostId(0)) - 250.0e6).abs() < 1.0);
        assert!((c.host_speed(HostId(1)) - 500.0e6).abs() < 1.0);
        assert!((c.host_speed(HostId(2)) - 125.0e6).abs() < 1.0);
    }

    #[test]
    fn homogeneous_by_default() {
        let c = Cluster::bayreuth();
        assert!(c.hosts().all(|h| (c.host_speed(h) - 250.0e6).abs() < 1.0));
    }

    #[test]
    fn uniform_factors_are_still_homogeneous() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 2;
        let c = spec.with_speed_factors(vec![2.0, 2.0]).build().unwrap();
        assert_eq!(c.host_speed(HostId(0)), c.host_speed(HostId(1)));
    }

    #[test]
    fn wrong_factor_count_is_rejected() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 4;
        let err = spec.with_speed_factors(vec![1.0, 2.0]).build().unwrap_err();
        assert_eq!(
            err,
            PlatformError::SpeedFactorCount {
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn non_positive_factor_is_rejected() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 2;
        let err = spec.with_speed_factors(vec![1.0, 0.0]).build().unwrap_err();
        assert!(matches!(err, PlatformError::InvalidQuantity { .. }));
    }

    #[test]
    fn non_finite_factor_is_rejected() {
        for bad in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            let mut spec = ClusterSpec::bayreuth();
            spec.nodes = 2;
            let err = spec.with_speed_factors(vec![1.0, bad]).build().unwrap_err();
            assert!(matches!(
                err,
                PlatformError::InvalidQuantity {
                    field: "speed_factors"
                }
            ));
        }
    }

    #[test]
    fn serde_roundtrip_with_factors() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 2;
        let spec = spec.with_speed_factors(vec![1.0, 3.0]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.speed_factors, Some(vec![1.0, 3.0]));
        // Old configs without the field still parse (serde default).
        let legacy = r#"{"nodes":2,"flops_per_node":1e8,"link_bandwidth":1e8,
            "link_latency":0.0001,"backbone_bandwidth":1e8,"backbone_latency":0.0001}"#;
        let parsed: ClusterSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.speed_factors, None);
    }
}
