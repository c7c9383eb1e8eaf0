//! The deterministic sweep planner.
//!
//! A sweep is the cross product **server × DVFS state × kernel ×
//! core-level**, feasibility-filtered and emitted in one canonical
//! order. The planner never measures anything — it only asks the
//! *nominal* machine what fits (memory and core counts are
//! DVFS-invariant, so feasibility at the nominal clock is feasibility
//! at every clock) — which is what lets a crashed sweep re-plan the
//! identical cell list and replay into the identical frontier.

use hpceval_core::evaluation::Evaluator;
use hpceval_core::server::SimulatedServer;
use hpceval_machine::presets;

use crate::cell::{all_kernel_ids, benchmark_by_id, TuneCell};

/// What to sweep. [`Default`] is the full paper sweep: the three
/// preset servers, every NPB + HPCC kernel, every DVFS state.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Server preset names (case-insensitive, as `presets::by_name`).
    pub servers: Vec<String>,
    /// Kernel ids from the NPB/HPCC catalogs.
    pub kernels: Vec<String>,
    /// Meter seed stamped into every cell.
    pub seed: u64,
    /// Cap on DVFS states per server: `0` sweeps the whole ladder;
    /// `k > 0` keeps the `k` states ending at the nominal one (the
    /// smoke sweep uses `2` — nominal plus one downclock).
    pub max_states: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            servers: presets::all_servers().into_iter().map(|s| s.name).collect(),
            kernels: all_kernel_ids().iter().map(|&k| k.to_string()).collect(),
            seed: 42,
            max_states: 0,
        }
    }
}

/// Enumerate the sweep cells, in canonical order: servers as given,
/// then DVFS state index ascending, then kernels as given, then core
/// level ascending. Core levels are the §V ladder (1, half, full)
/// snapped *down* to each kernel's process constraint and
/// de-duplicated; cells whose problem does not fit the machine's
/// memory are dropped (e.g. `cg.C.2` on the 8 GiB Xeon-E5462).
///
/// Errors on an unknown server or kernel id rather than silently
/// shrinking the sweep.
pub fn plan_sweep(opts: &SweepOptions) -> Result<Vec<TuneCell>, String> {
    let mut cells = Vec::new();
    for server in &opts.servers {
        let nominal =
            presets::by_name(server).ok_or_else(|| format!("unknown server {server:?}"))?;
        // One probe server per preset: feasibility only, never measured.
        // Feasibility is DVFS-invariant, so each kernel's core levels are
        // planned once and repeated for every state.
        let probe = SimulatedServer::new(nominal.clone());
        let total = nominal.total_cores();
        let kernels = opts
            .kernels
            .iter()
            .map(|kernel| {
                let bench = benchmark_by_id(kernel, &nominal)
                    .ok_or_else(|| format!("unknown kernel {kernel:?}"))?;
                let sig = bench.signature();
                let mut levels: Vec<u32> = Evaluator::core_states(total)
                    .into_iter()
                    .filter_map(|c| bench.constraint().largest_up_to(c))
                    .collect();
                levels.sort_unstable();
                levels.dedup();
                levels.retain(|&p| probe.can_run(&sig, p));
                Ok((kernel, levels))
            })
            .collect::<Result<Vec<_>, String>>()?;
        for state in state_indices(nominal.dvfs.len(), nominal.dvfs.nominal, opts.max_states) {
            for (kernel, levels) in &kernels {
                cells.extend(levels.iter().map(|&p| TuneCell {
                    server: nominal.name.clone(),
                    kernel: (*kernel).clone(),
                    freq_state: state as u32,
                    processes: p,
                    seed: opts.seed,
                }));
            }
        }
    }
    Ok(cells)
}

/// The DVFS state indices a sweep visits: the whole ladder when
/// `max_states == 0` (or covers it), otherwise the `max_states`
/// indices ending at `nominal` — so the nominal state, the anchor
/// every existing experiment runs at, is always swept.
fn state_indices(len: usize, nominal: usize, max_states: usize) -> Vec<usize> {
    if max_states == 0 || max_states > nominal {
        (0..len).collect()
    } else {
        (nominal + 1 - max_states..=nominal).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cell;

    #[test]
    fn default_sweep_covers_servers_states_and_kernels() {
        let cells = plan_sweep(&SweepOptions::default()).unwrap();
        for name in ["Xeon-E5462", "Opteron-8347", "Xeon-4870"] {
            let spec = presets::by_name(name).unwrap();
            let mine: Vec<&TuneCell> = cells.iter().filter(|c| c.server == name).collect();
            let states: std::collections::BTreeSet<u32> =
                mine.iter().map(|c| c.freq_state).collect();
            assert_eq!(states.len(), spec.dvfs.len(), "{name} sweeps the whole ladder");
            let kernels: std::collections::BTreeSet<&str> =
                mine.iter().map(|c| c.kernel.as_str()).collect();
            assert_eq!(kernels.len(), 15, "{name} sweeps every kernel");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let opts = SweepOptions::default();
        assert_eq!(plan_sweep(&opts).unwrap(), plan_sweep(&opts).unwrap());
    }

    #[test]
    fn every_planned_cell_measures() {
        // The planner's feasibility filter must agree with run_cell —
        // spot-check one server end to end.
        let opts = SweepOptions {
            servers: vec!["Xeon-E5462".to_string()],
            max_states: 2,
            ..SweepOptions::default()
        };
        for cell in plan_sweep(&opts).unwrap() {
            run_cell(&cell).unwrap_or_else(|e| panic!("{cell:?}: {e}"));
        }
    }

    #[test]
    fn core_levels_respect_constraints() {
        let opts = SweepOptions {
            servers: vec!["Xeon-4870".to_string()], // 40 cores
            kernels: vec!["bt".to_string(), "cg".to_string(), "ep".to_string()],
            ..SweepOptions::default()
        };
        let cells = plan_sweep(&opts).unwrap();
        let levels = |k: &str| -> Vec<u32> {
            let mut v: Vec<u32> = cells
                .iter()
                .filter(|c| c.kernel == k && c.freq_state == 0)
                .map(|c| c.processes)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(levels("ep"), vec![1, 20, 40], "Any keeps the §V ladder");
        assert_eq!(levels("cg"), vec![1, 16, 32], "PowerOfTwo snaps down");
        assert_eq!(levels("bt"), vec![1, 16, 36], "Square snaps down");
    }

    #[test]
    fn memory_infeasible_cells_are_dropped() {
        let opts = SweepOptions {
            servers: vec!["Xeon-E5462".to_string()],
            kernels: vec!["cg".to_string()],
            ..SweepOptions::default()
        };
        let cells = plan_sweep(&opts).unwrap();
        // cg.C is 6.5 + 1·p GiB, so only p=1 fits the E5462's 8 GiB
        // (paper Fig 3) — one cell per DVFS state survives.
        assert_eq!(cells.len(), presets::xeon_e5462().dvfs.len());
        for c in &cells {
            assert_eq!(c.processes, 1, "{c:?} should have been filtered");
        }
    }

    #[test]
    fn max_states_keeps_the_top_of_the_ladder() {
        assert_eq!(state_indices(5, 4, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(state_indices(5, 4, 2), vec![3, 4]);
        assert_eq!(state_indices(3, 2, 2), vec![1, 2]);
        assert_eq!(state_indices(3, 2, 9), vec![0, 1, 2]);
        let opts = SweepOptions {
            servers: vec!["Opteron-8347".to_string()],
            kernels: vec!["ep".to_string()],
            max_states: 2,
            ..SweepOptions::default()
        };
        let spec = presets::opteron_8347();
        let cells = plan_sweep(&opts).unwrap();
        let states: std::collections::BTreeSet<u32> = cells.iter().map(|c| c.freq_state).collect();
        let nominal = spec.dvfs.nominal as u32;
        assert_eq!(states.into_iter().collect::<Vec<_>>(), vec![nominal - 1, nominal]);
    }

    #[test]
    fn unknown_ids_error_instead_of_shrinking() {
        let bad_server =
            SweepOptions { servers: vec!["cray-1".to_string()], ..SweepOptions::default() };
        assert!(plan_sweep(&bad_server).is_err());
        let bad_kernel =
            SweepOptions { kernels: vec!["warp-drive".to_string()], ..SweepOptions::default() };
        assert!(plan_sweep(&bad_kernel).is_err());
    }
}
