//! Extension study: cluster-scale evaluation (beyond the paper's
//! single-server scope) — PPW vs node count under two fabrics.

use hpceval_bench::{heading, json_requested};
use hpceval_core::cluster::{score_cluster_sizes, Interconnect};
use hpceval_machine::presets;

fn main() {
    heading("Cluster", "PPW vs node count (Xeon-4870 nodes)");
    let sizes = [1u32, 2, 4, 8, 16, 32, 64];
    let node = presets::xeon_4870();
    let fabrics = [
        ("gigabit ethernet", Interconnect::gigabit_ethernet()),
        ("infiniband-class", Interconnect::infiniband()),
    ];
    if json_requested() {
        let all: std::collections::BTreeMap<String, _> = fabrics
            .iter()
            .map(|(name, ic)| (name.to_string(), score_cluster_sizes(&node, *ic, &sizes)))
            .collect();
        println!("{}", serde_json::to_string_pretty(&all).expect("serializable"));
        return;
    }
    for (name, ic) in fabrics {
        let scores = score_cluster_sizes(&node, ic, &sizes);
        println!("\n--- {name} ---");
        println!(
            "{:>6} {:>14} {:>12} {:>12} {:>13}",
            "Nodes", "HPL(GFLOPS)", "Power(kW)", "G500 PPW", "5-state PPW"
        );
        for s in &scores {
            println!(
                "{:>6} {:>14.0} {:>12.2} {:>12.4} {:>13.4}",
                s.nodes,
                s.hpl_gflops,
                s.hpl_power_w / 1000.0,
                s.green500_ppw,
                s.five_state_ppw
            );
        }
    }
    println!("\nfinding: the five-state score (which averages EP in) degrades more");
    println!("slowly with scale than the peak-HPL Green500 score.");
}
