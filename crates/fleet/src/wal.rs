//! The write-ahead log that makes the job queue durable.
//!
//! Every state transition is appended as one strict-JSON line *before*
//! the in-memory queue reflects it, and the file is flushed and synced
//! per group: [`WalWriter::append_all`] writes a batch of lines with one
//! `write_all`, one flush and one `sync_data`, and [`WalWriter::append`]
//! is the one-line group. Replaying the log therefore reconstructs the
//! queue a killed daemon held at the moment of death: accepted-but-
//! unfinished jobs come back `Queued` with their checkpointed rows
//! intact, so a restart re-runs at most the rows that were in flight.
//! A kill mid-group leaves a prefix of the group on disk, ending in at
//! most one torn line; the torn final line is tolerated and dropped.
//!
//! The writer is fail-stop. The first failed write, flush or sync
//! poisons it: part of the failed group may already be on disk, so a
//! later line appended after it could be acked on top of bytes nobody
//! was told about. Every later append returns
//! [`FleetError::WalPoisoned`] naming the original failure and writes
//! nothing.
//!
//! Entry grammar (one JSON object per line, `"e"` selects the kind):
//!
//! ```text
//! {"e":"submit","job":N,"kind":{<JobKind>}}
//! {"e":"claim","job":N,"attempt":A,"node":K}
//! {"e":"ckpt","job":N,"row":R,"suspect":B,"data":{<PpwRow>}}
//! {"e":"retry","job":N,"attempt":A,"reason":"..."}
//! {"e":"done","job":N,"state":"Done"|"Degraded"|"Failed","result":{<JobResult>}}
//! ```

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use hpceval_core::evaluation::PpwRow;

use crate::codec;
use crate::error::FleetError;
use crate::job::{JobId, JobKind, JobResult, JobState};

/// One replayed WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A job was accepted.
    Submit {
        /// Job id.
        job: JobId,
        /// What it runs.
        kind: JobKind,
    },
    /// An attempt was claimed by a node.
    Claim {
        /// Job id.
        job: JobId,
        /// Attempt number.
        attempt: u32,
        /// Node index.
        node: usize,
    },
    /// A state row became durable.
    Checkpoint {
        /// Job id.
        job: JobId,
        /// Row index.
        row: usize,
        /// True when the row's meter dropped out.
        suspect: bool,
        /// The measured row.
        data: PpwRow,
    },
    /// The job was requeued after a crash.
    Retry {
        /// Job id.
        job: JobId,
        /// Next attempt number.
        attempt: u32,
        /// Why.
        reason: String,
    },
    /// The job reached a terminal state.
    Done {
        /// Job id.
        job: JobId,
        /// Terminal state (`Done`, `Degraded` or `Failed`).
        state: JobState,
        /// Final result (absent for `Failed`).
        result: Option<JobResult>,
    },
}

/// Append-only writer over the log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    syncs: u64,
    /// The failure that poisoned the writer, once one has.
    poison: Option<String>,
}

impl WalWriter {
    /// Open (creating or appending to) the log at `path`.
    pub fn open(path: &Path) -> Result<Self, FleetError> {
        repair_tail(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self { file, path: path.to_path_buf(), syncs: 0, poison: None })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Groups synced since [`WalWriter::open`].
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// `Ok` while the writer is healthy; once a write has failed, the
    /// [`FleetError::WalPoisoned`] every append now returns.
    pub fn check(&self) -> Result<(), FleetError> {
        match &self.poison {
            Some(cause) => Err(FleetError::WalPoisoned(cause.clone())),
            None => Ok(()),
        }
    }

    /// Append one entry: a group of one.
    pub fn append(&mut self, entry: &WalEntry) -> Result<(), FleetError> {
        self.append_all(std::slice::from_ref(entry))
    }

    /// Append `entries` as one group: strict-encode every line, then
    /// one write, one flush and one sync. An entry that does not encode
    /// fails the group before anything is written; an empty group
    /// writes and syncs nothing. A failed write, flush or sync poisons
    /// the writer.
    pub fn append_all(&mut self, entries: &[WalEntry]) -> Result<(), FleetError> {
        self.check()?;
        if entries.is_empty() {
            return Ok(());
        }
        let mut group = String::new();
        for entry in entries {
            group.push_str(&encode_entry(entry)?);
            group.push('\n');
        }
        let file = &mut self.file;
        let written = file
            .write_all(group.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data());
        if let Err(e) = written {
            self.poison = Some(e.to_string());
            return Err(e.into());
        }
        self.syncs += 1;
        Ok(())
    }

    /// Swap the underlying handle, returning the old one: lets a test
    /// make the next write fail (a read-only handle) and then hand the
    /// healthy handle back.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }
}

/// Make the log appendable after a mid-append kill. A file that does
/// not end in a newline carries a torn tail; what to do with it must
/// agree with what [`replay`] already decided. If the tail parses as an
/// entry (the kill fell between the line and its newline, so replay
/// keeps it) seal it with the missing newline; otherwise (replay drops
/// it) truncate it — either way the next append starts on a fresh line
/// instead of gluing onto the fragment, which would turn a harmless
/// torn tail into a corrupt *interior* line for every later replay.
fn repair_tail(path: &Path) -> Result<(), FleetError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    let start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let tail = String::from_utf8_lossy(&bytes[start..]);
    if codec::parse(&tail).ok().as_ref().and_then(decode_entry).is_some() {
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.write_all(b"\n")?;
        file.sync_data()?;
    } else {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(start as u64)?;
        file.sync_data()?;
    }
    Ok(())
}

fn encode_entry(entry: &WalEntry) -> Result<String, FleetError> {
    let mut pairs: Vec<(String, Value)> = Vec::new();
    let mut push = |k: &str, v: Value| pairs.push((k.to_string(), v));
    match entry {
        WalEntry::Submit { job, kind } => {
            push("e", Value::Str("submit".into()));
            push("job", Value::UInt(*job));
            push("kind", kind.to_value());
        }
        WalEntry::Claim { job, attempt, node } => {
            push("e", Value::Str("claim".into()));
            push("job", Value::UInt(*job));
            push("attempt", Value::UInt(u64::from(*attempt)));
            push("node", Value::UInt(*node as u64));
        }
        WalEntry::Checkpoint { job, row, suspect, data } => {
            push("e", Value::Str("ckpt".into()));
            push("job", Value::UInt(*job));
            push("row", Value::UInt(*row as u64));
            push("suspect", Value::Bool(*suspect));
            push("data", data.to_value());
        }
        WalEntry::Retry { job, attempt, reason } => {
            push("e", Value::Str("retry".into()));
            push("job", Value::UInt(*job));
            push("attempt", Value::UInt(u64::from(*attempt)));
            push("reason", Value::Str(reason.clone()));
        }
        WalEntry::Done { job, state, result } => {
            push("e", Value::Str("done".into()));
            push("job", Value::UInt(*job));
            push("state", Value::Str(state.to_string()));
            push(
                "result",
                match result {
                    Some(r) => r.to_value(),
                    None => Value::Null,
                },
            );
        }
    }
    codec::encode_strict(&Value::Map(pairs))
}

fn decode_entry(v: &Value) -> Option<WalEntry> {
    let job = v.get("job")?.as_u64()?;
    match v.get("e")?.as_str()? {
        "submit" => Some(WalEntry::Submit { job, kind: JobKind::from_value(v.get("kind")?)? }),
        "claim" => Some(WalEntry::Claim {
            job,
            attempt: v.get("attempt")?.as_u64()? as u32,
            node: v.get("node")?.as_u64()? as usize,
        }),
        "ckpt" => Some(WalEntry::Checkpoint {
            job,
            row: v.get("row")?.as_u64()? as usize,
            suspect: v.get("suspect")?.as_bool()?,
            data: codec::ppw_row_from_value(v.get("data")?)?,
        }),
        "retry" => Some(WalEntry::Retry {
            job,
            attempt: v.get("attempt")?.as_u64()? as u32,
            reason: v.get("reason")?.as_str()?.to_string(),
        }),
        "done" => {
            let state = match v.get("state")?.as_str()? {
                "Done" => JobState::Done,
                "Degraded" => JobState::Degraded,
                "Failed" => JobState::Failed,
                _ => return None,
            };
            let result = v.get("result").filter(|r| !r.is_null()).and_then(result_from_value);
            Some(WalEntry::Done { job, state, result })
        }
        _ => None,
    }
}

fn result_from_value(v: &Value) -> Option<JobResult> {
    Some(JobResult {
        score: v.get("score").and_then(Value::as_f64),
        degraded: v.get("degraded")?.as_bool()?,
        notes: v
            .get("notes")?
            .as_seq()?
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?,
        rows: v
            .get("rows")?
            .as_seq()?
            .iter()
            .map(codec::ppw_row_from_value)
            .collect::<Option<Vec<_>>>()?,
        suspect_rows: codec::usize_seq_from_value(v.get("suspect_rows")?)?,
        output: v.get("output").filter(|o| !o.is_null()).cloned(),
    })
}

/// Replay the log at `path`.
///
/// Returns the decoded entries in order. A missing file replays as
/// empty; a torn (unparseable) *final* line is dropped; a corrupt line
/// anywhere else is a [`FleetError::Protocol`] — the log is damaged,
/// not merely truncated.
pub fn replay(path: &Path) -> Result<Vec<WalEntry>, FleetError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let reader = BufReader::new(File::open(path)?);
    let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
    let mut entries = Vec::with_capacity(lines.len());
    let last = lines.len().saturating_sub(1);
    for (k, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match codec::parse(line).ok().as_ref().and_then(decode_entry) {
            Some(entry) => entries.push(entry),
            None if k == last => break, // torn tail from a mid-append kill
            None => {
                return Err(FleetError::Protocol(format!("corrupt WAL line {}", k + 1)));
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpceval-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn sample_entries() -> Vec<WalEntry> {
        let row = PpwRow { program: "Idle".into(), gflops: 0.0, power_w: 150.0, ppw: 0.0 };
        vec![
            WalEntry::Submit {
                job: 1,
                kind: JobKind::Evaluate { server: "Xeon-E5462".into(), seed: 7 },
            },
            WalEntry::Claim { job: 1, attempt: 1, node: 0 },
            WalEntry::Checkpoint { job: 1, row: 0, suspect: false, data: row.clone() },
            WalEntry::Retry { job: 1, attempt: 2, reason: "node crashed".into() },
            WalEntry::Done {
                job: 1,
                state: JobState::Degraded,
                result: Some(JobResult {
                    score: Some(0.1),
                    degraded: true,
                    notes: vec!["partial".into()],
                    rows: vec![row],
                    suspect_rows: vec![0],
                    output: None,
                }),
            },
        ]
    }

    #[test]
    fn entries_round_trip_through_the_file() {
        let path = tmp("roundtrip");
        {
            let mut w = WalWriter::open(&path).unwrap();
            for e in sample_entries() {
                w.append(&e).unwrap();
            }
        }
        assert_eq!(replay(&path).unwrap(), sample_entries());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = tmp("torn");
        {
            let mut w = WalWriter::open(&path).unwrap();
            for e in sample_entries() {
                w.append(&e).unwrap();
            }
        }
        // Simulate a kill mid-append: a truncated JSON tail.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"e\":\"claim\",\"jo").unwrap();
        drop(f);
        assert_eq!(replay(&path).unwrap(), sample_entries());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_after_a_torn_tail_appends_on_a_fresh_line() {
        let path = tmp("torn-reopen");
        {
            let mut w = WalWriter::open(&path).unwrap();
            for e in sample_entries() {
                w.append(&e).unwrap();
            }
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"e\":\"claim\",\"jo").unwrap();
        drop(f);
        // A replacement daemon re-opens the log and keeps appending;
        // the fragment must not merge with the new entry.
        let extra = WalEntry::Claim { job: 2, attempt: 1, node: 0 };
        WalWriter::open(&path).unwrap().append(&extra).unwrap();
        let mut want = sample_entries();
        want.push(extra);
        assert_eq!(replay(&path).unwrap(), want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopening_seals_an_unsealed_final_line() {
        let path = tmp("unsealed");
        {
            let mut w = WalWriter::open(&path).unwrap();
            for e in sample_entries() {
                w.append(&e).unwrap();
            }
        }
        // Kill between the line and its newline: the entry is complete
        // (replay keeps it), only the newline is missing.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        f.set_len(len - 1).unwrap();
        drop(f);
        let extra = WalEntry::Claim { job: 3, attempt: 1, node: 1 };
        WalWriter::open(&path).unwrap().append(&extra).unwrap();
        let mut want = sample_entries();
        want.push(extra);
        assert_eq!(replay(&path).unwrap(), want, "the sealed entry must survive");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_group_writes_the_bytes_of_its_entries_appended_one_at_a_time() {
        let (single, grouped) = (tmp("single"), tmp("grouped"));
        let mut w = WalWriter::open(&single).unwrap();
        for e in sample_entries() {
            w.append(&e).unwrap();
        }
        assert_eq!(w.syncs(), sample_entries().len() as u64);
        let mut g = WalWriter::open(&grouped).unwrap();
        g.append_all(&sample_entries()).unwrap();
        g.append_all(&[]).unwrap();
        assert_eq!(g.syncs(), 1, "one sync per group; none for an empty one");
        assert_eq!(std::fs::read(&grouped).unwrap(), std::fs::read(&single).unwrap());
        std::fs::remove_file(&single).unwrap();
        std::fs::remove_file(&grouped).unwrap();
    }

    /// A kill mid-group leaves any prefix of the group's bytes on disk.
    /// Cut at every byte of the last group: replay keeps a prefix of the
    /// entries (never less than the earlier, synced group), and a
    /// reopened writer appends after exactly that prefix.
    #[test]
    fn every_cut_inside_the_last_group_replays_a_prefix() {
        let (full, cut) = (tmp("group-full"), tmp("group-cut"));
        let entries = sample_entries();
        let mut w = WalWriter::open(&full).unwrap();
        w.append_all(&entries[..2]).unwrap();
        let synced = std::fs::metadata(&full).unwrap().len() as usize;
        w.append_all(&entries[2..]).unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let extra = WalEntry::Claim { job: 9, attempt: 1, node: 1 };
        for len in synced..=bytes.len() {
            std::fs::write(&cut, &bytes[..len]).unwrap();
            let kept = replay(&cut).unwrap();
            assert!(kept.len() >= 2, "cut at {len} lost a synced group");
            assert_eq!(kept[..], entries[..kept.len()], "cut at {len}");
            WalWriter::open(&cut).unwrap().append(&extra).unwrap();
            let mut want = kept;
            want.push(extra.clone());
            assert_eq!(replay(&cut).unwrap(), want, "cut at {len}, reopened");
        }
        std::fs::remove_file(&full).unwrap();
        std::fs::remove_file(&cut).unwrap();
    }

    /// Fail-stop: after one failed write, appends are refused even once
    /// the handle is healthy again, naming the original failure, and
    /// nothing more reaches the file.
    #[test]
    fn a_failed_write_poisons_the_writer() {
        let path = tmp("poison");
        let mut w = WalWriter::open(&path).unwrap();
        let entries = sample_entries();
        w.append(&entries[0]).unwrap();
        let healthy = w.swap_file(File::open(&path).unwrap());
        let cause = w.append_all(&entries[1..]).unwrap_err();
        assert!(matches!(cause, FleetError::Io(_)), "{cause}");
        w.swap_file(healthy);
        for _ in 0..2 {
            match w.append(&entries[1]) {
                Err(FleetError::WalPoisoned(msg)) => {
                    assert!(cause.to_string().contains(&msg), "{msg} vs {cause}")
                }
                other => panic!("a poisoned writer appended: {other:?}"),
            }
        }
        assert!(w.check().is_err());
        assert_eq!(w.syncs(), 1);
        assert_eq!(replay(&path).unwrap(), entries[..1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "garbage\n{\"e\":\"claim\",\"job\":1,\"attempt\":1,\"node\":0}\n")
            .unwrap();
        assert!(matches!(replay(&path), Err(FleetError::Protocol(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_replays_empty() {
        assert_eq!(replay(Path::new("/nonexistent/hpceval.wal")).unwrap(), Vec::new());
    }
}
