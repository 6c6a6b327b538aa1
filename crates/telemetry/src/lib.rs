//! `dl2fence-telemetry`: structured observability on std plus the in-tree
//! `serde_json` codec.
//!
//! The crate is split along the hot/cold boundary:
//!
//! - [`Telemetry`] is the cheap, `Send + Sync` handle that instrumented code
//!   stores. Disabled (the default) it is a single `None` — instrumented
//!   paths pay one branch and read no clocks.
//! - [`Recorder`] is the per-thread front end: spans (scoped timers with
//!   parent context), counters and fixed-bucket latency [`Histogram`]s,
//!   batched locally and flushed to the shared [`TelemetrySink`].
//! - [`Event`] is the wire format: flat, integer-only JSON, one event per
//!   line, written so a crashed process tears at most the final line —
//!   the same torn-tail contract as the campaign run log.
//!
//! # Examples
//!
//! ```
//! use dl2fence_telemetry::{MemorySink, Telemetry};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tel = Telemetry::with_sink(sink.clone());
//! let rec = tel.recorder();
//! {
//!     let _span = rec.span("request");
//!     rec.record_us("db.query", 120);
//!     rec.add("requests", 1);
//! }
//! rec.flush();
//! assert_eq!(sink.snapshot().len(), 3); // span + hist + counter
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
mod recorder;
pub mod schema;
mod sink;

pub use event::{Event, EventData, ParseError};
pub use hist::{Histogram, BUCKET_COUNT};
pub use recorder::{Recorder, SpanGuard};
pub use sink::{AggregateSink, JsonlSink, MemorySink, TelemetrySink};

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared state behind an enabled [`Telemetry`] handle.
pub(crate) struct Shared {
    sink: Arc<dyn TelemetrySink>,
    epoch: Instant,
    next_seq: AtomicU64,
    next_recorder: AtomicU64,
}

impl Shared {
    /// Microseconds from the telemetry epoch to `at`.
    pub(crate) fn now_us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Allocates the next recorder ordinal.
    pub(crate) fn next_recorder(&self) -> u64 {
        self.next_recorder.fetch_add(1, Ordering::Relaxed)
    }

    /// Stamps unique sequence numbers onto `batch` and hands it to the sink.
    pub(crate) fn submit(&self, batch: &mut Vec<Event>) {
        let base = self
            .next_seq
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        for (i, e) in batch.iter_mut().enumerate() {
            e.seq = base + i as u64;
        }
        self.sink.append(batch);
    }
}

/// The telemetry handle instrumented code stores and clones freely.
///
/// `Telemetry::default()` is disabled: every operation is a no-op and no
/// clock is ever read, which is what keeps campaign reports byte-identical
/// with telemetry on or off. An enabled handle routes recorder batches to
/// its [`TelemetrySink`].
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
}

impl Telemetry {
    /// The disabled (no-op) handle; same as `Telemetry::default()`.
    pub fn disabled() -> Self {
        Telemetry { shared: None }
    }

    /// An enabled handle flushing to `sink`.
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry {
            shared: Some(Arc::new(Shared {
                sink,
                epoch: Instant::now(),
                next_seq: AtomicU64::new(0),
                next_recorder: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled handle writing JSONL events to a fresh file at `path`
    /// (truncating anything already there).
    pub fn to_jsonl_file(path: &Path) -> std::io::Result<Self> {
        Ok(Self::with_sink(Arc::new(JsonlSink::create(path)?)))
    }

    /// An enabled handle appending to an existing JSONL event log.
    ///
    /// Sequence numbers continue after the largest one already in the file,
    /// so a resumed campaign keeps `seq` unique across the whole log. The
    /// log is first healed to its longest valid prefix: a torn final line
    /// (the shape of a crash mid-append, with or without its newline) is
    /// truncated away — appending after it would weld the next event onto
    /// the garbage and lose both.
    pub fn append_jsonl_file(path: &Path) -> std::io::Result<Self> {
        let mut next_seq = 0u64;
        let mut valid_bytes = 0u64;
        if let Ok(bytes) = std::fs::read(path) {
            let mut offset = 0usize;
            while offset < bytes.len() {
                // A final line without its newline is torn even when it
                // parses: the newline write may still be in flight. A torn
                // tail can also split a multi-byte character, so decode
                // per line rather than whole-file.
                let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
                    break;
                };
                let end = offset + nl + 1;
                let Ok(line) = std::str::from_utf8(&bytes[offset..end - 1]) else {
                    break;
                };
                let Ok(e) = Event::parse(line) else {
                    break;
                };
                next_seq = next_seq.max(e.seq + 1);
                valid_bytes = end as u64;
                offset = end;
            }
            if valid_bytes < bytes.len() as u64 {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(valid_bytes)?;
            }
        }
        let tel = Self::with_sink(Arc::new(JsonlSink::append_to(path)?));
        if let Some(shared) = &tel.shared {
            shared.next_seq.store(next_seq, Ordering::Relaxed);
        }
        Ok(tel)
    }

    /// `true` if events are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Creates a per-thread [`Recorder`]. Disabled handles return a
    /// disabled (free) recorder.
    pub fn recorder(&self) -> Recorder {
        match &self.shared {
            Some(shared) => Recorder::new(Arc::clone(shared)),
            None => Recorder::default(),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_produces_disabled_recorders() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(!tel.recorder().is_enabled());
    }

    #[test]
    fn seq_is_unique_across_recorders() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        for _ in 0..4 {
            let rec = tel.recorder();
            rec.add("c", 1);
            rec.flush();
        }
        let mut seqs: Vec<u64> = sink.take().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 4);
    }

    #[test]
    fn jsonl_file_round_trip_and_append_resume() {
        let dir = std::env::temp_dir().join(format!(
            "dl2fence_telemetry_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");

        let tel = Telemetry::to_jsonl_file(&path).unwrap();
        let rec = tel.recorder();
        rec.record_us("lat", 42);
        rec.add("runs", 1);
        rec.flush();
        drop(rec);
        drop(tel);

        let first: Vec<Event> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| Event::parse(l).unwrap())
            .collect();
        assert_eq!(first.len(), 2);
        let max_seq = first.iter().map(|e| e.seq).max().unwrap();

        // Appending continues the sequence numbering.
        let tel = Telemetry::append_jsonl_file(&path).unwrap();
        let rec = tel.recorder();
        rec.add("runs", 1);
        rec.flush();
        drop(rec);
        drop(tel);

        let all: Vec<Event> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|l| Event::parse(l).unwrap())
            .collect();
        assert_eq!(all.len(), 3);
        assert!(all.iter().any(|e| e.seq > max_seq));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The disabled fast path must stay allocation- and clock-free: this is
    /// the design budget behind the "< 1% overhead with a no-op sink"
    /// guarantee. 10M disabled span+counter round trips in well under a
    /// second leaves the smoke campaign's handful of thousands invisible.
    #[test]
    fn disabled_path_is_effectively_free() {
        let rec = Recorder::default();
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            let _s = rec.span("hot");
            rec.add("c", i & 1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_millis() < 2_000,
            "disabled telemetry too slow: {elapsed:?} for 10M ops"
        );
    }
}
