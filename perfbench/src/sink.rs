//! The benchmark's trace sink: per-layer counts and engine self time from
//! the records the simulator already emits.
//!
//! Self time: an engine record is emitted just before its event handler
//! runs, so the host time from one engine record to the next is the handler
//! of the first event plus the queue pop of the second. Everything the
//! handler triggers (network sends, coherence misses, runtime records and
//! this sink's own bookkeeping) lands in that interval.

use std::time::Instant;

use proteus::trace::{TraceEvent, TraceSink};

/// Event labels the runtime's engine records carry, in report order.
pub const ENGINE_KINDS: [&str; 8] = [
    "arrive",
    "arrive_seq",
    "poll",
    "wake",
    "timeout",
    "heartbeat_tick",
    "disrupt",
    "kill",
];

/// Runtime error codes, each with a phrase of its trace record's text. The
/// records carry only the error's display text, so the code is recovered by
/// phrase; text matching none of them counts as `other`.
pub const ERROR_CODES: [(&str, &str); 9] = [
    ("empty_migration", "carries no frames"),
    ("unknown_detached_group", "no detached frame group"),
    ("detached_frame_slept", "tried to sleep"),
    ("network_rejected", "network rejected"),
    ("migration_timeout", "exhausted retries"),
    ("duplicate_delivery", "duplicate delivery"),
    ("frame_reclaimed", "orphaned frame"),
    ("unroutable_to_dead", "could not be rerouted"),
    ("other", ""),
];

/// Counts and times gathered from one cell's trace.
#[derive(Clone, Debug, Default)]
pub struct LayerSink {
    /// Engine dispatches per [`ENGINE_KINDS`] entry.
    pub events: [u64; ENGINE_KINDS.len()],
    /// Host nanoseconds attributed to each [`ENGINE_KINDS`] entry.
    pub self_ns: [u64; ENGINE_KINDS.len()],
    /// Coherence miss records.
    pub coherence_misses: u64,
    /// Runtime error records per [`ERROR_CODES`] entry (uncapped, unlike
    /// the runtime's own error list).
    pub errors: [u64; ERROR_CODES.len()],
    open: Option<(usize, Instant)>,
}

impl LayerSink {
    /// Attribute the time since the last engine record to its event. Call
    /// once the run returns.
    pub fn finish(&mut self) {
        self.close(Instant::now());
    }

    fn close(&mut self, now: Instant) {
        if let Some((kind, since)) = self.open.take() {
            self.self_ns[kind] += now.duration_since(since).as_nanos() as u64;
        }
    }
}

fn error_index(detail: &str) -> usize {
    ERROR_CODES
        .iter()
        .position(|(_, phrase)| detail.contains(phrase))
        .expect("the last entry matches any text")
}

impl TraceSink for LayerSink {
    fn record(&mut self, event: TraceEvent) {
        match (event.source, event.kind) {
            ("engine", kind) => {
                let now = Instant::now();
                self.close(now);
                let i = ENGINE_KINDS
                    .iter()
                    .position(|&k| k == kind)
                    .unwrap_or_else(|| panic!("unknown engine event label {kind:?}"));
                self.events[i] += 1;
                self.open = Some((i, now));
            }
            ("coherence", "miss") => self.coherence_misses += 1,
            ("runtime", "error") => self.errors[error_index(&event.detail)] += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_phrases_pick_distinct_codes() {
        assert_eq!(
            ERROR_CODES[error_index("duplicate delivery of envelope #3 suppressed at ProcId(1)")].0,
            "duplicate_delivery"
        );
        assert_eq!(ERROR_CODES[error_index("something new")].0, "other");
    }
}
