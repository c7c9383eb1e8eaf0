//! The strict-JSON sweep report and the `BENCH_tune.json` drift gate.
//!
//! The report is the artifact `hpceval tune sweep` writes and CI
//! re-derives: per server, the paper's §V score (mean PPW at the
//! nominal clock) next to what the DVFS sweep found — every kernel's
//! energy-delay Pareto frontier and its energy-/EDP-optimal picks.
//! The whole pipeline is deterministic, so the committed baseline is
//! compared **two-sided**: a tuned metric that drifts in *either*
//! direction beyond `--tolerance` means the model changed and the
//! baseline must be regenerated deliberately. Unlike a timing, nothing
//! here depends on the host, so CI checks it at zero tolerance.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

use hpceval_core::evaluation::Evaluator;
use hpceval_machine::presets;

use crate::frontier::{kernel_frontiers, CellResult, KernelFrontier};

/// Everything one sweep produced, JSON-shaped for `BENCH_tune.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TuneReport {
    /// Meter seed the cells ran with.
    pub seed: u64,
    /// Measured cells the report reduces.
    pub cells: usize,
    /// What the drift check means for this artifact.
    pub note: String,
    /// Per-server §V score + frontiers, sorted by server name.
    pub servers: Vec<ServerReport>,
    /// The gated metrics (see [`build_report`] for the key scheme);
    /// every one is deterministic, so the gate is two-sided.
    pub metrics: BTreeMap<String, f64>,
}

/// One server's slice of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// Server preset name.
    pub server: String,
    /// The paper's §V score (mean PPW) at the nominal clock.
    pub section_v_score: f64,
    /// Per-kernel frontiers, sorted by kernel id.
    pub frontiers: Vec<KernelFrontier>,
}

/// Reduce measured cells to the report: group by server, compute every
/// kernel's Pareto frontier, and derive the gated metrics —
/// `<server>.section_v_score` (the paper's headline, pinned so DVFS
/// work can never move it), `<server>.frontier_points` (total frontier
/// size), `<server>.energy_opt_j` (Σ over kernels of the
/// energy-optimal cell's energy) and `<server>.edp_opt_js` (Σ of the
/// EDP-optimal cell's EDP).
pub fn build_report(results: &[CellResult], seed: u64) -> TuneReport {
    let mut by_server: BTreeMap<&str, Vec<CellResult>> = BTreeMap::new();
    for r in results {
        by_server.entry(&r.cell.server).or_default().push(r.clone());
    }
    let mut servers = Vec::new();
    let mut metrics = BTreeMap::new();
    for (name, cells) in by_server {
        let frontiers = kernel_frontiers(&cells);
        let section_v_score = presets::by_name(name)
            .map(|spec| Evaluator::new(spec).run().final_score())
            .unwrap_or(f64::NAN);
        let points: usize = frontiers.iter().map(|f| f.frontier.len()).sum();
        let energy_opt: f64 = frontiers.iter().map(|f| f.energy_optimal.measure.energy_j).sum();
        let edp_opt: f64 = frontiers.iter().map(|f| f.edp_optimal.measure.edp).sum();
        metrics.insert(format!("{name}.section_v_score"), section_v_score);
        metrics.insert(format!("{name}.frontier_points"), points as f64);
        metrics.insert(format!("{name}.energy_opt_j"), energy_opt);
        metrics.insert(format!("{name}.edp_opt_js"), edp_opt);
        servers.push(ServerReport { server: name.to_string(), section_v_score, frontiers });
    }
    TuneReport {
        seed,
        cells: results.len(),
        note: "energy-delay Pareto frontiers per kernel from the DVFS sweep; every metric is \
               deterministic, so the drift check is two-sided: regenerate the baseline when the \
               model changes deliberately"
            .to_string(),
        servers,
        metrics,
    }
}

/// Parse a `BENCH_tune.json` file body down to its metrics map.
pub fn parse_baseline(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
    baseline_metrics(&v)
}

/// Extract the `metrics` map from a parsed `BENCH_tune.json`.
pub fn baseline_metrics(v: &Value) -> Result<BTreeMap<String, f64>, String> {
    let metrics = v.get("metrics").ok_or("baseline has no `metrics` object")?;
    let Value::Map(pairs) = metrics else {
        return Err("baseline `metrics` is not an object".to_string());
    };
    pairs
        .iter()
        .map(|(name, val)| {
            val.as_f64()
                .map(|m| (name.clone(), m))
                .ok_or_else(|| format!("baseline metric {name:?} is not numeric"))
        })
        .collect()
}

/// Compare `current` against baseline metrics; one message per
/// violation. The sweep is deterministic, so *any* drift beyond
/// `base·(1±tolerance)` fails — in both directions — and so does
/// metric-set drift.
pub fn check(
    baseline: &BTreeMap<String, f64>,
    current: &TuneReport,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, &base) in baseline {
        let Some(&cur) = current.metrics.get(name) else {
            failures.push(format!("{name}: in baseline but no longer measured"));
            continue;
        };
        let limit = base.abs() * (1.0 + tolerance);
        let floor = base.abs() / (1.0 + tolerance);
        let exact_zero = base == 0.0 && cur == 0.0;
        let within = cur.abs() <= limit && cur.abs() >= floor && cur.signum() == base.signum();
        if !(within || exact_zero) {
            failures.push(format!(
                "{name}: {cur} vs baseline {base} (two-sided tolerance {tolerance})"
            ));
        }
    }
    for name in current.metrics.keys() {
        if !baseline.contains_key(name) {
            failures.push(format!("{name}: measured but missing from baseline — regenerate it"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cell;
    use crate::plan::{plan_sweep, SweepOptions};

    fn tiny_results() -> Vec<CellResult> {
        let opts = SweepOptions {
            servers: vec!["Xeon-E5462".to_string()],
            kernels: vec!["ep".to_string(), "stream".to_string()],
            max_states: 2,
            ..SweepOptions::default()
        };
        plan_sweep(&opts)
            .unwrap()
            .into_iter()
            .map(|cell| {
                let measure = run_cell(&cell).unwrap();
                CellResult { cell, measure }
            })
            .collect()
    }

    fn report(metrics: &[(&str, f64)]) -> TuneReport {
        TuneReport {
            seed: 42,
            cells: 0,
            note: String::new(),
            servers: Vec::new(),
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    fn metrics(list: &[(&str, f64)]) -> BTreeMap<String, f64> {
        list.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn report_pins_the_section_v_score_and_counts_frontiers() {
        let rep = build_report(&tiny_results(), 42);
        assert_eq!(rep.servers.len(), 1);
        let srv = &rep.servers[0];
        assert_eq!(srv.server, "Xeon-E5462");
        // The paper's Table IV headline, untouched by the sweep.
        assert!((srv.section_v_score - 0.0639).abs() < 0.002, "{}", srv.section_v_score);
        assert_eq!(srv.frontiers.len(), 2);
        assert!(rep.metrics["Xeon-E5462.frontier_points"] >= 2.0);
        assert!(rep.metrics["Xeon-E5462.energy_opt_j"] > 0.0);
        assert!(rep.metrics["Xeon-E5462.edp_opt_js"] > 0.0);
    }

    #[test]
    fn report_is_deterministic_and_permutation_invariant() {
        let results = tiny_results();
        let a = serde_json::to_string_pretty(&build_report(&results, 42)).unwrap();
        let mut shuffled = results.clone();
        shuffled.reverse();
        let b = serde_json::to_string_pretty(&build_report(&shuffled, 42)).unwrap();
        assert_eq!(a, b, "replay order must not change the report");
    }

    #[test]
    fn check_is_two_sided() {
        let base = metrics(&[("X.energy_opt_j", 100.0)]);
        assert!(check(&base, &report(&[("X.energy_opt_j", 100.0)]), 0.01).is_empty());
        assert!(check(&base, &report(&[("X.energy_opt_j", 100.5)]), 0.01).is_empty());
        // Drift *down* fails too: deterministic metrics have no good
        // direction.
        assert_eq!(check(&base, &report(&[("X.energy_opt_j", 90.0)]), 0.01).len(), 1);
        assert_eq!(check(&base, &report(&[("X.energy_opt_j", 110.0)]), 0.01).len(), 1);
    }

    #[test]
    fn check_flags_metric_set_drift_both_ways() {
        let base = metrics(&[("X.energy_opt_j", 100.0), ("gone", 1.0)]);
        let failures = check(&base, &report(&[("X.energy_opt_j", 100.0), ("new", 1.0)]), 0.1);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }

    #[test]
    fn baseline_round_trips_through_the_report_format() {
        let rep = build_report(&tiny_results(), 42);
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed, rep.metrics);
        assert!(check(&parsed, &rep, 0.0).is_empty(), "self-check at zero tolerance");
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        for bad in ["{}", "{\"metrics\": 3}", "{\"metrics\": {\"x\": \"fast\"}}"] {
            assert!(parse_baseline(bad).is_err(), "{bad}");
        }
    }
}
