//! Multi-server ingestion: a deterministic merge on the calling thread.
//!
//! [`collect`] pulls from every [`SampleSource`] itself: at each step
//! it takes the source whose next sample has the earliest timestamp
//! (ties go to the lower source index), appends it into the
//! [`SeriesStore`], converts the append outcome into a
//! [`TelemetryEvent`], and hands the ingested sample to a sink closure
//! — the monitor's aggregation/learning hook. The order depends only on
//! the sources' samples, so one input always yields one output.

use crate::drift::TelemetryEvent;
use crate::ring::{AppendOutcome, SeriesStore};
use crate::source::{SampleSource, TelemetrySample};

/// One ingested sample plus what the store did with it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ingest {
    /// The sample as produced.
    pub sample: TelemetrySample,
    /// The store's append decision.
    pub outcome: AppendOutcome,
    /// The anomaly this append surfaced, if any.
    pub event: Option<TelemetryEvent>,
}

/// Ingestion totals across all sources of one collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CollectorStats {
    /// Samples pulled from the sources.
    pub received: u64,
    /// Samples stored.
    pub accepted: u64,
    /// Samples rejected for clock skew.
    pub rejected: u64,
    /// Dropout gaps detected.
    pub dropouts: u64,
}

/// Run a collection to completion: merge every source's samples in
/// timestamp order into `store`, and call `sink` with each ingested
/// sample and the store it landed in. Returns when every source is
/// exhausted.
pub fn collect<F: FnMut(&Ingest, &SeriesStore)>(
    mut sources: Vec<Box<dyn SampleSource>>,
    store: &mut SeriesStore,
    mut sink: F,
) -> CollectorStats {
    let mut heads: Vec<Option<TelemetrySample>> =
        sources.iter_mut().map(|src| src.next_sample()).collect();
    let mut stats = CollectorStats::default();
    // `min_by` keeps the first of equal minima: the lower index wins.
    while let Some(k) = heads
        .iter()
        .enumerate()
        .filter_map(|(k, head)| head.map(|s| (k, s.t_s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(k, _)| k)
    {
        let sample = std::mem::replace(&mut heads[k], sources[k].next_sample())
            .expect("the merge picks a live head");
        stats.received += 1;
        let outcome = store.append(sample.server, sample.t_s, sample.watts);
        let event = match outcome {
            AppendOutcome::Accepted { missed } => {
                stats.accepted += 1;
                (missed > 0).then(|| {
                    stats.dropouts += 1;
                    TelemetryEvent::MeterDropout { server: sample.server, t_s: sample.t_s, missed }
                })
            }
            AppendOutcome::ClockSkew { last_t_s } => {
                stats.rejected += 1;
                Some(TelemetryEvent::ClockSkew { server: sample.server, t_s: sample.t_s, last_t_s })
            }
        };
        sink(&Ingest { sample, outcome, event }, store);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceReplay;
    use hpceval_power::meter::{PowerTrace, Wt210};

    fn trace(seed: u64, len_s: f64, watts: f64) -> PowerTrace {
        Wt210::new(seed).with_noise(1.0).record(0.0, len_s, move |_| watts)
    }

    #[test]
    fn fans_in_all_sources() {
        let traces: Vec<PowerTrace> = (0..4).map(|k| trace(k, 120.0, 150.0)).collect();
        let lens: Vec<usize> = traces.iter().map(PowerTrace::len).collect();
        let mut store = SeriesStore::new(["a", "b", "c", "d"], 1024, 1.0);
        let sources: Vec<Box<dyn SampleSource>> = traces
            .into_iter()
            .enumerate()
            .map(|(k, t)| {
                Box::new(TraceReplay::new(k, format!("s{k}"), t)) as Box<dyn SampleSource>
            })
            .collect();
        let stats = collect(sources, &mut store, |_, _| {});
        assert_eq!(stats.received, lens.iter().sum::<usize>() as u64);
        assert_eq!(stats.rejected, 0);
        for (k, len) in lens.iter().enumerate() {
            assert_eq!(store.series(k).len(), *len, "server {k} sample count");
        }
    }

    #[test]
    fn per_server_order_is_preserved() {
        let mut store = SeriesStore::new(["a", "b"], 4096, 1.0);
        let sources: Vec<Box<dyn SampleSource>> = (0..2)
            .map(|k| {
                Box::new(TraceReplay::new(k, format!("s{k}"), trace(k as u64, 600.0, 100.0)))
                    as Box<dyn SampleSource>
            })
            .collect();
        let stats = collect(sources, &mut store, |_, _| {});
        // Each source is already time-ordered, so nothing is skew-rejected.
        assert_eq!(stats.rejected, 0);
        for k in 0..2 {
            let w = store.series(k).window(0.0, 1e9);
            assert!(w.windows(2).all(|p| p[0].t_s < p[1].t_s));
        }
    }

    #[test]
    fn skewed_replay_is_rejected_not_averaged() {
        // A merged-out-of-order trace: the second half restarts at t=0.
        let mut samples = trace(1, 50.0, 100.0);
        let restart = trace(2, 20.0, 500.0);
        samples.samples.extend(restart.samples);
        let mut store = SeriesStore::new(["a"], 1024, 1.0);
        let mut events = Vec::new();
        let stats = collect(
            vec![Box::new(TraceReplay::new(0, "skewed", samples))],
            &mut store,
            |ingest, _| events.extend(ingest.event),
        );
        assert_eq!(stats.rejected, 21);
        assert!(events.iter().all(|e| matches!(e, TelemetryEvent::ClockSkew { .. })));
        // The 500 W restart samples never reached the store.
        let stored = store.series(0).window(0.0, 1e9);
        assert!(stored.iter().all(|s| s.watts < 200.0));
    }

    #[test]
    fn merge_takes_the_earliest_head_and_breaks_ties_by_index() {
        let half = |server: usize, offset: f64| {
            let mut t = PowerTrace::new();
            for k in 0..5 {
                t.push(offset + k as f64, 100.0);
            }
            Box::new(TraceReplay::new(server, format!("s{server}"), t)) as Box<dyn SampleSource>
        };
        let mut store = SeriesStore::new(["a", "b", "c"], 64, 1.0);
        let mut order = Vec::new();
        // Source 2 runs half a second ahead of 0 and 1, which tie.
        collect(vec![half(0, 0.5), half(1, 0.5), half(2, 0.0)], &mut store, |ingest, _| {
            order.push(ingest.sample.server)
        });
        assert_eq!(order, [2, 0, 1].repeat(5));
    }
}
