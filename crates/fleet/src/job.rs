//! Job model: what the fleet schedules and what it records about it.
//!
//! A [`JobKind`] names one evaluation entry point plus its inputs; a
//! [`JobRecord`] is the daemon's durable view of one submitted job —
//! state machine, attempt counter, per-state checkpoint, and the final
//! [`JobResult`]. Degradation is explicit: a result is either clean or
//! carries the reasons it is not, and a degraded score is computed over
//! the clean rows only (never silently averaged across flagged ones).

use serde::{Serialize, Value};

use hpceval_core::evaluation::PpwRow;
use hpceval_core::jobs::OneShotKind;

/// Fleet-wide job identifier (assigned at submit, monotonically).
pub type JobId = u64;

/// One schedulable evaluation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum JobKind {
    /// The five-state HPL+EP evaluation (checkpointable per state).
    Evaluate {
        /// Target server (preset name, case-insensitive).
        server: String,
        /// Meter seed.
        seed: u64,
    },
    /// Peak-HPL PPW (Green500 method).
    Green500 {
        /// Target server.
        server: String,
    },
    /// Graduated-load ssj_ops/W (SPECpower method).
    Specpower {
        /// Target server.
        server: String,
    },
    /// The §VI stepwise-regression training run.
    Train {
        /// Target server.
        server: String,
        /// Sampling seed.
        seed: u64,
    },
    /// The per-server markdown report.
    Report {
        /// Target server.
        server: String,
    },
    /// One DVFS-autotuner sweep cell (`hpceval-tune`): measure one
    /// kernel at one frequency state and core count.
    Tune {
        /// Target server.
        server: String,
        /// Kernel id from the NPB/HPCC catalogs.
        kernel: String,
        /// Index into the server's DVFS ladder.
        freq_state: u32,
        /// Process count.
        processes: u32,
        /// Meter seed.
        seed: u64,
    },
}

impl JobKind {
    /// Short verb naming the kind ("evaluate", "train", ...).
    pub fn verb(&self) -> &'static str {
        match self {
            JobKind::Evaluate { .. } => "evaluate",
            JobKind::Green500 { .. } => "green500",
            JobKind::Specpower { .. } => "specpower",
            JobKind::Train { .. } => "train",
            JobKind::Report { .. } => "report",
            JobKind::Tune { .. } => "tune",
        }
    }

    /// The server this job targets.
    pub fn server(&self) -> &str {
        match self {
            JobKind::Evaluate { server, .. }
            | JobKind::Green500 { server }
            | JobKind::Specpower { server }
            | JobKind::Train { server, .. }
            | JobKind::Report { server }
            | JobKind::Tune { server, .. } => server,
        }
    }

    /// The seed the job carries (one-shot kinds without one: 0).
    pub fn seed(&self) -> u64 {
        match *self {
            JobKind::Evaluate { seed, .. }
            | JobKind::Train { seed, .. }
            | JobKind::Tune { seed, .. } => seed,
            _ => 0,
        }
    }

    /// The single-shot wrapper kind, or `None` for `Evaluate` and
    /// `Tune` (tune cells are single-step but run through the tuner's
    /// own measurement path, not `hpceval_core::jobs`).
    pub fn one_shot(&self) -> Option<OneShotKind> {
        match self {
            JobKind::Evaluate { .. } | JobKind::Tune { .. } => None,
            JobKind::Green500 { .. } => Some(OneShotKind::Green500),
            JobKind::Specpower { .. } => Some(OneShotKind::Specpower),
            JobKind::Train { .. } => Some(OneShotKind::Train),
            JobKind::Report { .. } => Some(OneShotKind::Report),
        }
    }

    /// Parse a kind from its wire/WAL `Value` form.
    pub fn from_value(v: &Value) -> Option<JobKind> {
        let server = |inner: &Value| inner.get("server")?.as_str().map(str::to_string);
        if let Some(inner) = v.get("Evaluate") {
            return Some(JobKind::Evaluate {
                server: server(inner)?,
                seed: inner.get("seed")?.as_u64()?,
            });
        }
        if let Some(inner) = v.get("Green500") {
            return Some(JobKind::Green500 { server: server(inner)? });
        }
        if let Some(inner) = v.get("Specpower") {
            return Some(JobKind::Specpower { server: server(inner)? });
        }
        if let Some(inner) = v.get("Train") {
            return Some(JobKind::Train {
                server: server(inner)?,
                seed: inner.get("seed")?.as_u64()?,
            });
        }
        if let Some(inner) = v.get("Report") {
            return Some(JobKind::Report { server: server(inner)? });
        }
        if let Some(inner) = v.get("Tune") {
            return Some(JobKind::Tune {
                server: server(inner)?,
                kernel: inner.get("kernel")?.as_str()?.to_string(),
                freq_state: inner.get("freq_state")?.as_u64()? as u32,
                processes: inner.get("processes")?.as_u64()? as u32,
                seed: inner.get("seed")?.as_u64()?,
            });
        }
        None
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Waiting in the queue (or backing off before a retry).
    Queued,
    /// An attempt is executing on a node.
    Running,
    /// Finished with a clean result.
    Done,
    /// Finished, but the result is partial or flagged — see the
    /// result's notes. Degraded results are ranked only over their
    /// clean rows and are never silently averaged into fleet scores.
    Degraded,
    /// Rejected or unrecoverable (no result).
    Failed,
}

impl JobState {
    /// True once the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Degraded | JobState::Failed)
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "Queued",
            JobState::Running => "Running",
            JobState::Done => "Done",
            JobState::Degraded => "Degraded",
            JobState::Failed => "Failed",
        };
        f.write_str(s)
    }
}

/// The finished output of a job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobResult {
    /// Headline score, when the kind has one and at least one clean
    /// row produced it (evaluate: mean PPW over clean rows; green500/
    /// specpower: the score; train: R²). `None` for report jobs and
    /// for degraded results with nothing clean to score.
    pub score: Option<f64>,
    /// True when the result is partial or any row is flagged.
    pub degraded: bool,
    /// Human-readable degradation reasons (empty when clean).
    pub notes: Vec<String>,
    /// Completed state rows (evaluate jobs; empty for one-shots).
    pub rows: Vec<PpwRow>,
    /// Indices into `rows` whose measurement is suspect (meter
    /// dropout fired mid-state) — excluded from `score`.
    pub suspect_rows: Vec<usize>,
    /// The kind-specific output as a serialized tree (one-shot
    /// outputs; `None` for evaluate jobs, whose rows carry the data).
    pub output: Option<Value>,
}

impl JobResult {
    /// Mean PPW over the clean (non-suspect) rows, if any.
    pub fn clean_score(rows: &[PpwRow], suspect: &[usize]) -> Option<f64> {
        let clean: Vec<f64> = rows
            .iter()
            .enumerate()
            .filter(|(k, _)| !suspect.contains(k))
            .map(|(_, r)| r.ppw)
            .collect();
        if clean.is_empty() {
            None
        } else {
            Some(clean.iter().sum::<f64>() / clean.len() as f64)
        }
    }
}

/// The daemon's full record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// What to run.
    pub kind: JobKind,
    /// Lifecycle state.
    pub state: JobState,
    /// Crashed attempts so far (preemptions don't count).
    pub attempts: u32,
    /// Durable per-state checkpoint (evaluate jobs).
    pub checkpoint: Vec<PpwRow>,
    /// Suspect row indices accumulated so far.
    pub suspect_rows: Vec<usize>,
    /// Total states the job will run (1 for one-shots).
    pub total_steps: usize,
    /// Final result once terminal.
    pub result: Option<JobResult>,
    /// Node index the job is pinned to.
    pub node: usize,
    /// Earliest instant the next attempt may start (backoff).
    pub next_due: std::time::Instant,
}

/// A wire-friendly snapshot of one job, served by `status`. The daemon
/// encodes it with the derived `Serialize`, and the router and the
/// client decode it with [`JobStatus::from_value`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Kind verb.
    pub kind: String,
    /// Target server.
    pub server: String,
    /// State name.
    pub state: String,
    /// Crashed attempts.
    pub attempts: u32,
    /// Completed state rows.
    pub rows_done: usize,
    /// Total states.
    pub total_steps: usize,
    /// Headline score (see [`JobResult::score`]).
    pub score: Option<f64>,
    /// True when the result is flagged.
    pub degraded: bool,
    /// Degradation notes.
    pub notes: Vec<String>,
}

impl JobStatus {
    /// Parse a snapshot from its wire `Value` form.
    pub fn from_value(v: &Value) -> Option<JobStatus> {
        Some(JobStatus {
            id: v.get("id")?.as_u64()?,
            kind: v.get("kind")?.as_str()?.to_string(),
            server: v.get("server")?.as_str()?.to_string(),
            state: v.get("state")?.as_str()?.to_string(),
            attempts: v.get("attempts")?.as_u64()? as u32,
            rows_done: v.get("rows_done")?.as_u64()? as usize,
            total_steps: v.get("total_steps")?.as_u64()? as usize,
            score: v.get("score").and_then(Value::as_f64),
            degraded: v.get("degraded")?.as_bool()?,
            notes: v
                .get("notes")?
                .as_seq()?
                .iter()
                .map(|n| n.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// One row of the §V ranking: a server's mean clean PPW from one
/// finished Evaluate job.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankedServer {
    /// Server name.
    pub server: String,
    /// Mean clean performance-per-watt score.
    pub ppw: f64,
    /// True when the score came from a degraded (partial) evaluation.
    pub degraded: bool,
}

impl RankedServer {
    /// Parse a row from its wire `Value` form.
    pub fn from_value(v: &Value) -> Option<RankedServer> {
        Some(RankedServer {
            server: v.get("server")?.as_str()?.to_string(),
            ppw: v.get("ppw")?.as_f64()?,
            degraded: v.get("degraded")?.as_bool()?,
        })
    }
}

/// Order ranking rows best first: PPW descending, ties by server name.
/// The daemon and the router both rank through this one comparator, so
/// a merged ranking is the order one daemon owning every job reports.
pub fn rank(rows: &mut [RankedServer]) {
    rows.sort_by(|a, b| b.ppw.total_cmp(&a.ppw).then_with(|| a.server.cmp(&b.server)));
}

impl JobRecord {
    /// Snapshot for the wire.
    pub fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            kind: self.kind.verb().to_string(),
            server: self.kind.server().to_string(),
            state: self.state.to_string(),
            attempts: self.attempts,
            rows_done: self
                .result
                .as_ref()
                .map_or(self.checkpoint.len(), |r| r.rows.len().max(self.checkpoint.len())),
            total_steps: self.total_steps,
            score: self.result.as_ref().and_then(|r| r.score),
            degraded: self.result.as_ref().is_some_and(|r| r.degraded),
            notes: self.result.as_ref().map_or_else(Vec::new, |r| r.notes.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_value() {
        let kinds = [
            JobKind::Evaluate { server: "xeon-e5462".into(), seed: 7 },
            JobKind::Green500 { server: "opteron-8347".into() },
            JobKind::Specpower { server: "xeon-4870".into() },
            JobKind::Train { server: "xeon-4870".into(), seed: 42 },
            JobKind::Report { server: "xeon-e5462".into() },
            JobKind::Tune {
                server: "xeon-e5462".into(),
                kernel: "ep".into(),
                freq_state: 1,
                processes: 4,
                seed: 42,
            },
        ];
        for k in kinds {
            let v = k.to_value();
            assert_eq!(JobKind::from_value(&v), Some(k.clone()), "{k:?}");
        }
    }

    /// Equal PPW falls back to the server name, ascending; the PPW order
    /// itself is best first.
    #[test]
    fn rank_orders_by_ppw_then_name() {
        let row =
            |server: &str, ppw: f64| RankedServer { server: server.into(), ppw, degraded: false };
        let mut rows =
            vec![row("b", 0.5), row("c", 0.5), row("z", 0.1), row("a", 0.5), row("y", 0.9)];
        rank(&mut rows);
        let order: Vec<&str> = rows.iter().map(|r| r.server.as_str()).collect();
        assert_eq!(order, ["y", "a", "b", "c", "z"]);
    }

    #[test]
    fn clean_score_excludes_suspect_rows() {
        let row = |ppw: f64| PpwRow { program: "x".into(), gflops: 1.0, power_w: 1.0, ppw };
        let rows = vec![row(1.0), row(100.0), row(3.0)];
        assert_eq!(JobResult::clean_score(&rows, &[1]), Some(2.0));
        assert_eq!(JobResult::clean_score(&rows, &[0, 1, 2]), None);
        assert_eq!(JobResult::clean_score(&[], &[]), None);
    }
}
