//! Cluster extension: scaling the evaluation beyond one server.
//!
//! The paper confines itself to single multi-core servers ("This paper
//! mainly focuses on single multi-core servers"); its obvious next step
//! — and the regime the Green500 actually ranks — is a cluster of such
//! servers. This module extends the simulated substrate with an
//! interconnect and a switch power budget, and applies both evaluation
//! methods at cluster scale.
//!
//! The headline behaviours the tests pin down:
//!
//! * HPL efficiency decays with node count (panel broadcasts traverse
//!   the network), so the Green500-style PPW **falls** as the cluster
//!   grows;
//! * EP scales embarrassingly, so the five-state score (which averages
//!   EP states in) degrades **more slowly** than the peak-HPL score —
//!   the methodology's averaging is more scale-robust than the metric
//!   it criticizes.

use serde::{Deserialize, Serialize};

use hpceval_kernels::hpl::HplConfig;
use hpceval_kernels::npb::{ep::Ep, Class};
use hpceval_kernels::suite::Benchmark;
use hpceval_machine::roofline::PerfModel;
use hpceval_machine::spec::ServerSpec;
use hpceval_machine::workload::WorkloadSignature;
use hpceval_power::model::PowerModel;

use crate::evaluation::{MF_FRACTION, MH_FRACTION};

/// Interconnect description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Per-link bandwidth, GB/s.
    pub bw_gbs: f64,
    /// Extra serial fraction HPL pays per doubling of the node count
    /// (panel broadcast tree depth).
    pub broadcast_penalty: f64,
    /// Switch base power, W.
    pub switch_base_w: f64,
    /// Switch per-port power, W.
    pub switch_port_w: f64,
}

impl Interconnect {
    /// Gigabit Ethernet of the paper's era (Table I lists 1000 Mbit
    /// NICs).
    pub fn gigabit_ethernet() -> Self {
        Self { bw_gbs: 0.125, broadcast_penalty: 0.055, switch_base_w: 60.0, switch_port_w: 2.5 }
    }

    /// A contemporary InfiniBand-class fabric.
    pub fn infiniband() -> Self {
        Self { bw_gbs: 4.0, broadcast_penalty: 0.015, switch_base_w: 120.0, switch_port_w: 6.0 }
    }
}

/// A homogeneous cluster of the paper's servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// The node type.
    pub node: ServerSpec,
    /// Number of nodes.
    pub nodes: u32,
    /// The fabric between them.
    pub interconnect: Interconnect,
}

/// One cluster-level score pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterScore {
    /// Nodes in the configuration.
    pub nodes: u32,
    /// Aggregate HPL performance, GFLOPS.
    pub hpl_gflops: f64,
    /// Total cluster power during HPL, W.
    pub hpl_power_w: f64,
    /// Green500-style PPW at cluster scale.
    pub green500_ppw: f64,
    /// Five-state-style mean PPW at cluster scale.
    pub five_state_ppw: f64,
}

impl ClusterSpec {
    /// HPL parallel efficiency across nodes: each doubling of the tree
    /// depth adds the broadcast penalty.
    pub fn hpl_network_eff(&self) -> f64 {
        let doublings = (f64::from(self.nodes.max(1))).log2();
        (1.0 - self.interconnect.broadcast_penalty * doublings).max(0.2)
    }

    /// Switch power for this port count.
    pub fn switch_power_w(&self) -> f64 {
        if self.nodes <= 1 {
            0.0
        } else {
            self.interconnect.switch_base_w
                + self.interconnect.switch_port_w * f64::from(self.nodes)
        }
    }

    /// Evaluate one workload at full cores on every node; returns
    /// (aggregate GFLOPS, total watts).
    fn run_all_nodes(&self, sig: &WorkloadSignature, network_eff: f64) -> (f64, f64) {
        let p = self.node.total_cores();
        let perf = PerfModel::new(self.node.clone());
        let power = PowerModel::new(self.node.clone());
        let est = perf.execute(sig, p);
        let node_w = power.power_w(sig, &est);
        let gflops = est.gflops * f64::from(self.nodes) * network_eff;
        let watts = node_w * f64::from(self.nodes) + self.switch_power_w();
        (gflops, watts)
    }

    /// Score the cluster under both methods.
    pub fn score(&self) -> ClusterScore {
        let p = self.node.total_cores();
        let net = self.hpl_network_eff();

        // Green500: full-memory HPL across the whole cluster.
        let hpl = HplConfig::for_memory_fraction(&self.node, MF_FRACTION, p).signature();
        let (hpl_gflops, hpl_power_w) = self.run_all_nodes(&hpl, net);

        // Five-state, cluster flavour: idle + EP (perfect scaling) +
        // HPL at Mh/Mf (network-limited), full cores on every node.
        let power = PowerModel::new(self.node.clone());
        let idle_w = power.idle_w() * f64::from(self.nodes) + self.switch_power_w();
        let ep = Ep::new(Class::C).signature();
        let (ep_gflops, ep_w) = self.run_all_nodes(&ep, 1.0);
        let mh = HplConfig::for_memory_fraction(&self.node, MH_FRACTION, p).signature();
        let (mh_gflops, mh_w) = self.run_all_nodes(&mh, net);
        let rows = [(0.0, idle_w), (ep_gflops, ep_w), (mh_gflops, mh_w), (hpl_gflops, hpl_power_w)];
        let five_state_ppw = rows.iter().map(|(g, w)| g / w).sum::<f64>() / rows.len() as f64;

        ClusterScore {
            nodes: self.nodes,
            hpl_gflops,
            hpl_power_w,
            green500_ppw: hpl_gflops / hpl_power_w,
            five_state_ppw,
        }
    }
}

/// Score a node type across a sweep of cluster sizes.
pub fn score_cluster_sizes(
    node: &ServerSpec,
    interconnect: Interconnect,
    node_counts: &[u32],
) -> Vec<ClusterScore> {
    node_counts
        .iter()
        .map(|&nodes| ClusterSpec { node: node.clone(), nodes, interconnect }.score())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpceval_machine::presets;

    fn sweep(ic: Interconnect) -> Vec<ClusterScore> {
        score_cluster_sizes(&presets::xeon_4870(), ic, &[1, 2, 4, 8, 16, 32])
    }

    #[test]
    fn single_node_matches_standalone_green500() {
        let scores = sweep(Interconnect::gigabit_ethernet());
        let one = &scores[0];
        let standalone = crate::rankings::green500_score(&presets::xeon_4870());
        assert!(
            (one.green500_ppw - standalone).abs() / standalone < 0.05,
            "cluster-of-1 {:.4} vs standalone {:.4}",
            one.green500_ppw,
            standalone
        );
    }

    #[test]
    fn green500_ppw_decays_with_cluster_size() {
        let scores = sweep(Interconnect::gigabit_ethernet());
        for w in scores.windows(2) {
            assert!(
                w[1].green500_ppw < w[0].green500_ppw,
                "PPW must fall: {} nodes {:.4} -> {} nodes {:.4}",
                w[0].nodes,
                w[0].green500_ppw,
                w[1].nodes,
                w[1].green500_ppw
            );
        }
    }

    #[test]
    fn aggregate_performance_still_grows() {
        // Efficiency falls but capability rises — the usual trade.
        let scores = sweep(Interconnect::gigabit_ethernet());
        for w in scores.windows(2) {
            assert!(w[1].hpl_gflops > w[0].hpl_gflops);
        }
    }

    #[test]
    fn five_state_score_degrades_more_slowly_than_green500() {
        let scores = sweep(Interconnect::gigabit_ethernet());
        let first = &scores[0];
        let last = scores.last().expect("nonempty sweep");
        let g_loss = 1.0 - last.green500_ppw / first.green500_ppw;
        let f_loss = 1.0 - last.five_state_ppw / first.five_state_ppw;
        assert!(f_loss < g_loss, "five-state loss {f_loss:.3} !< Green500 loss {g_loss:.3}");
    }

    #[test]
    fn better_fabric_preserves_more_ppw() {
        let eth = sweep(Interconnect::gigabit_ethernet());
        let ib = sweep(Interconnect::infiniband());
        let at = |s: &[ClusterScore], n: u32| {
            s.iter().find(|c| c.nodes == n).expect("size present").green500_ppw
        };
        assert!(at(&ib, 32) > at(&eth, 32));
    }

    #[test]
    fn switch_power_is_zero_for_one_node() {
        let c = ClusterSpec {
            node: presets::xeon_e5462(),
            nodes: 1,
            interconnect: Interconnect::gigabit_ethernet(),
        };
        assert_eq!(c.switch_power_w(), 0.0);
        let c2 = ClusterSpec { nodes: 8, ..c };
        assert!(c2.switch_power_w() > 60.0);
    }
}
