//! The telemetry event model and its JSONL wire format.
//!
//! Events are serialized one per line as flat JSON objects with a fixed
//! field order, written by [`crate::JsonlSink`] and read back by
//! [`Event::parse`]. Both go through the workspace's one JSON codec
//! (`serde_json`): an event is built as, and read back from, a
//! [`serde::Value`] object. The format is restricted to what events need:
//! string values, `u64` numbers and arrays of `u64`. Every number is an
//! integer count or a microsecond duration — no floats, so
//! emit→parse→emit is byte-identical.

use crate::hist::Histogram;
use serde::Value;

/// One telemetry event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number, unique per event log.
    pub seq: u64,
    /// Microseconds since the telemetry epoch (process start of recording).
    pub t_us: u64,
    /// Ordinal of the recorder (≈ thread) that produced the event.
    pub worker: u64,
    /// The payload.
    pub data: EventData,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventData {
    /// A completed scoped timer. `t_us` is the span's start time.
    Span {
        /// Span name, e.g. `"run"` or `"eval.train"`.
        name: String,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
        /// Name of the enclosing span on the same recorder, if any.
        parent: Option<String>,
        /// Optional association index (run index, mesh size, ...).
        index: Option<u64>,
    },
    /// A monotonic counter increment (a delta, not an absolute value).
    Counter {
        /// Counter name, e.g. `"executor.worker_panics"`.
        name: String,
        /// Increment since the counter's previous event.
        delta: u64,
        /// Optional association index (worker ordinal, run index, ...).
        index: Option<u64>,
    },
    /// A latency histogram delta: the observations recorded under `name`
    /// since the recorder's previous flush. Readers merge all `Hist` events
    /// with the same name to recover the full distribution.
    Hist {
        /// Histogram name, e.g. `"stage.detect"`.
        name: String,
        /// Observations in this delta.
        count: u64,
        /// Sum of observations in microseconds.
        sum_us: u64,
        /// Maximum observation in microseconds.
        max_us: u64,
        /// Power-of-two bucket counts (see [`crate::hist::BUCKET_COUNT`]).
        buckets: Vec<u64>,
    },
}

impl Event {
    /// The payload's name (span, counter or histogram name).
    pub fn name(&self) -> &str {
        match &self.data {
            EventData::Span { name, .. }
            | EventData::Counter { name, .. }
            | EventData::Hist { name, .. } => name,
        }
    }

    /// Serializes the event as one JSON line (no trailing newline).
    pub fn emit(&self) -> String {
        let num = Value::UInt;
        let (kind, name) = match &self.data {
            EventData::Span { name, .. } => ("span", name),
            EventData::Counter { name, .. } => ("counter", name),
            EventData::Hist { name, .. } => ("hist", name),
        };
        let mut fields = vec![
            ("seq", num(self.seq)),
            ("t_us", num(self.t_us)),
            ("worker", num(self.worker)),
            ("kind", Value::Str(kind.to_string())),
            ("name", Value::Str(name.clone())),
        ];
        match &self.data {
            EventData::Span {
                dur_us,
                parent,
                index,
                ..
            } => {
                fields.push(("dur_us", num(*dur_us)));
                if let Some(p) = parent {
                    fields.push(("parent", Value::Str(p.clone())));
                }
                if let Some(i) = index {
                    fields.push(("index", num(*i)));
                }
            }
            EventData::Counter { delta, index, .. } => {
                fields.push(("delta", num(*delta)));
                if let Some(i) = index {
                    fields.push(("index", num(*i)));
                }
            }
            EventData::Hist {
                count,
                sum_us,
                max_us,
                buckets,
                ..
            } => fields.extend([
                ("count", num(*count)),
                ("sum_us", num(*sum_us)),
                ("max_us", num(*max_us)),
                (
                    "buckets",
                    Value::Array(buckets.iter().map(|&b| num(b)).collect()),
                ),
            ]),
        }
        let object = Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        serde_json::to_string(&object).expect("event serialization cannot fail")
    }

    /// Parses one JSON event line produced by [`Event::emit`].
    ///
    /// Field order is not significant on input; unknown fields are rejected
    /// so schema drift is caught loudly rather than silently dropped, and
    /// every number must be a `u64`.
    pub fn parse(line: &str) -> Result<Event, ParseError> {
        let value = serde_json::parse_value(line).map_err(|e| ParseError(e.to_string()))?;
        let Value::Object(fields) = value else {
            return Err(ParseError("expected an object".into()));
        };
        let mut seq = None;
        let mut t_us = None;
        let mut worker = None;
        let mut kind = None;
        let mut name = None;
        let mut dur_us = None;
        let mut parent = None;
        let mut index = None;
        let mut delta = None;
        let mut count = None;
        let mut sum_us = None;
        let mut max_us = None;
        let mut buckets = None;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("seq", Value::UInt(n)) => seq = Some(n),
                ("t_us", Value::UInt(n)) => t_us = Some(n),
                ("worker", Value::UInt(n)) => worker = Some(n),
                ("kind", Value::Str(s)) => kind = Some(s),
                ("name", Value::Str(s)) => name = Some(s),
                ("dur_us", Value::UInt(n)) => dur_us = Some(n),
                ("parent", Value::Str(s)) => parent = Some(s),
                ("index", Value::UInt(n)) => index = Some(n),
                ("delta", Value::UInt(n)) => delta = Some(n),
                ("count", Value::UInt(n)) => count = Some(n),
                ("sum_us", Value::UInt(n)) => sum_us = Some(n),
                ("max_us", Value::UInt(n)) => max_us = Some(n),
                ("buckets", Value::Array(items)) => {
                    let counts = items.into_iter().map(|item| match item {
                        Value::UInt(n) => Ok(n),
                        _ => Err(ParseError("`buckets` holds a non-u64 value".into())),
                    });
                    buckets = Some(counts.collect::<Result<Vec<u64>, _>>()?);
                }
                (k, _) => return Err(ParseError(format!("unexpected field `{k}`"))),
            }
        }
        let seq = seq.ok_or_else(|| ParseError("missing `seq`".into()))?;
        let t_us = t_us.ok_or_else(|| ParseError("missing `t_us`".into()))?;
        let worker = worker.ok_or_else(|| ParseError("missing `worker`".into()))?;
        let kind = kind.ok_or_else(|| ParseError("missing `kind`".into()))?;
        let name = name.ok_or_else(|| ParseError("missing `name`".into()))?;
        let data = match kind.as_str() {
            "span" => EventData::Span {
                name,
                dur_us: dur_us.ok_or_else(|| ParseError("span missing `dur_us`".into()))?,
                parent,
                index,
            },
            "counter" => EventData::Counter {
                name,
                delta: delta.ok_or_else(|| ParseError("counter missing `delta`".into()))?,
                index,
            },
            "hist" => EventData::Hist {
                name,
                count: count.ok_or_else(|| ParseError("hist missing `count`".into()))?,
                sum_us: sum_us.ok_or_else(|| ParseError("hist missing `sum_us`".into()))?,
                max_us: max_us.ok_or_else(|| ParseError("hist missing `max_us`".into()))?,
                buckets: buckets.ok_or_else(|| ParseError("hist missing `buckets`".into()))?,
            },
            other => return Err(ParseError(format!("unknown kind `{other}`"))),
        };
        Ok(Event {
            seq,
            t_us,
            worker,
            data,
        })
    }

    /// Builds a [`Histogram`] from a `Hist` payload; `None` for other kinds.
    pub fn as_histogram(&self) -> Option<Histogram> {
        match &self.data {
            EventData::Hist {
                count,
                sum_us,
                max_us,
                buckets,
                ..
            } => Some(Histogram::from_parts(*count, *sum_us, *max_us, buckets)),
            _ => None,
        }
    }
}

/// An event line that is not valid event JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid event line: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &Event) {
        let line = e.emit();
        let back = Event::parse(&line).expect("parse");
        assert_eq!(&back, e);
        assert_eq!(back.emit(), line, "emit→parse→emit must be byte-stable");
    }

    #[test]
    fn span_round_trip() {
        round_trip(&Event {
            seq: 7,
            t_us: 123,
            worker: 2,
            data: EventData::Span {
                name: "run".into(),
                dur_us: 456,
                parent: Some("campaign.execute".into()),
                index: Some(9),
            },
        });
        round_trip(&Event {
            seq: 0,
            t_us: 0,
            worker: 0,
            data: EventData::Span {
                name: "stage.detect".into(),
                dur_us: 0,
                parent: None,
                index: None,
            },
        });
    }

    #[test]
    fn counter_and_hist_round_trip() {
        round_trip(&Event {
            seq: 1,
            t_us: 2,
            worker: 3,
            data: EventData::Counter {
                name: "executor.worker_panics".into(),
                delta: 1,
                index: Some(4),
            },
        });
        round_trip(&Event {
            seq: 99,
            t_us: u64::MAX,
            worker: 1,
            data: EventData::Hist {
                name: "worker.queue_wait".into(),
                count: 3,
                sum_us: 300,
                max_us: 200,
                buckets: vec![0, 1, 2],
            },
        });
    }

    #[test]
    fn tricky_names_round_trip() {
        for name in [
            "a\"b",
            "back\\slash",
            "tab\there",
            "nl\nthere",
            "emoji🦀",
            "nul\u{0000}",
        ] {
            round_trip(&Event {
                seq: 1,
                t_us: 1,
                worker: 1,
                data: EventData::Counter {
                    name: name.to_string(),
                    delta: 1,
                    index: None,
                },
            });
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Event::parse("").is_err());
        assert!(Event::parse("{}").is_err());
        assert!(Event::parse("{\"seq\":1").is_err());
        assert!(Event::parse("{\"seq\":1,\"bogus\":2}").is_err());
        assert!(Event::parse("not json at all").is_err());
    }

    /// The `events.jsonl` line format, pinned byte for byte: one span, one
    /// counter and two hist lines whose names cover every string-escape
    /// branch (quote, backslash, `\n`, `\r`, `\t`, other control bytes as
    /// `\u00xx`, and verbatim `/`, DEL and non-ASCII).
    #[test]
    fn emitted_lines_are_pinned() {
        let cases = [
            (
                Event {
                    seq: 7,
                    t_us: 123,
                    worker: 2,
                    data: EventData::Span {
                        name: "run \"q\" \\ /".into(),
                        dur_us: 456,
                        parent: Some("p\n\r\t".into()),
                        index: Some(9),
                    },
                },
                r#"{"seq":7,"t_us":123,"worker":2,"kind":"span","name":"run \"q\" \\ /","dur_us":456,"parent":"p\n\r\t","index":9}"#,
            ),
            (
                Event {
                    seq: 1,
                    t_us: 2,
                    worker: 3,
                    data: EventData::Counter {
                        name: "ctl\u{1}\u{1f}\u{7f}é🦀".into(),
                        delta: 5,
                        index: None,
                    },
                },
                "{\"seq\":1,\"t_us\":2,\"worker\":3,\"kind\":\"counter\",\"name\":\
                 \"ctl\\u0001\\u001f\u{7f}é🦀\",\"delta\":5}",
            ),
            (
                Event {
                    seq: u64::MAX,
                    t_us: 0,
                    worker: 0,
                    data: EventData::Hist {
                        name: "stage.detect".into(),
                        count: 3,
                        sum_us: 300,
                        max_us: 200,
                        buckets: vec![0, 1, 2],
                    },
                },
                r#"{"seq":18446744073709551615,"t_us":0,"worker":0,"kind":"hist","name":"stage.detect","count":3,"sum_us":300,"max_us":200,"buckets":[0,1,2]}"#,
            ),
            (
                Event {
                    seq: 4,
                    t_us: 5,
                    worker: 6,
                    data: EventData::Hist {
                        name: String::new(),
                        count: 0,
                        sum_us: 0,
                        max_us: 0,
                        buckets: Vec::new(),
                    },
                },
                r#"{"seq":4,"t_us":5,"worker":6,"kind":"hist","name":"","count":0,"sum_us":0,"max_us":0,"buckets":[]}"#,
            ),
        ];
        for (event, line) in cases {
            assert_eq!(event.emit(), line);
            assert_eq!(Event::parse(line).unwrap(), event);
        }
    }

    /// Lines outside the event format stay rejected: unknown fields,
    /// trailing bytes, numbers that are not `u64`, wrongly typed values and
    /// malformed surrogate escapes.
    #[test]
    fn rejects_lines_outside_the_event_format() {
        let ok = r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#;
        assert!(Event::parse(ok).is_ok());
        for bad in [
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4,"x":1}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4} x"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}{}"#,
            r#"{"seq":-1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#,
            r#"{"seq":1.5,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#,
            r#"{"seq":1e3,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#,
            r#"{"seq":18446744073709551616,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#,
            r#"{"seq":"1","t_us":2,"worker":3,"kind":"counter","name":"c","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":null,"delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"c","delta":true}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"gauge","name":"c","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"hist","name":"h","count":1,"sum_us":1,"max_us":1,"buckets":[1,-1]}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"hist","name":"h","count":1,"sum_us":1,"max_us":1,"buckets":[0.5]}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"\uD800\uE000","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"\uD800\u0041","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"\uD800A","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"\uD800","delta":4}"#,
            r#"{"seq":1,"t_us":2,"worker":3,"kind":"counter","name":"\uDC00","delta":4}"#,
        ] {
            assert!(Event::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn as_histogram_reconstructs() {
        let e = Event {
            seq: 1,
            t_us: 1,
            worker: 1,
            data: EventData::Hist {
                name: "h".into(),
                count: 2,
                sum_us: 6,
                max_us: 4,
                buckets: vec![0, 0, 1, 1],
            },
        };
        let h = e.as_histogram().unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_us(), 4);
    }
}
