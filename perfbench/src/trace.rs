//! In-memory spans, written at exit as Chrome Trace Event JSON (Perfetto
//! and `chrome://tracing` open it).

use crate::clock;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within a run.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// What ran, e.g. `train_round` or `vfl.send_all`.
    pub name: String,
    /// The layer it belongs to: `core`, `vfl`, `serve`, `loadgen`.
    pub layer: &'static str,
    /// Track the span is drawn on.
    pub track: u32,
    /// Start and end.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        clock::ms_between(self.start, self.end)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    next_id: u64,
}

/// A shared, append-only span log. Cloning shares the log.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Inner>>,
}

impl Recorder {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update leaves the log valid, so a poisoned lock is usable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a finished span and returns its identifier.
    pub fn record(
        &self,
        parent: u64,
        name: impl Into<String>,
        layer: &'static str,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut inner = self.locked();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.spans.push(Span { id, parent, name: name.into(), layer, track, start, end });
        id
    }

    /// Appends a span that becomes the parent of every parentless span
    /// from index `from` on, and returns copies of those children.
    pub fn record_parent(
        &self,
        from: usize,
        name: impl Into<String>,
        layer: &'static str,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> Vec<Span> {
        let mut inner = self.locked();
        inner.next_id += 1;
        let id = inner.next_id;
        let mut children = Vec::new();
        if let Some(spans) = inner.spans.get_mut(from..) {
            for s in spans.iter_mut().filter(|s| s.parent == 0) {
                s.parent = id;
                children.push(s.clone());
            }
        }
        inner.spans.push(Span { id, parent: 0, name: name.into(), layer, track, start, end });
        children
    }

    /// Number of spans so far.
    pub fn len(&self) -> usize {
        self.locked().spans.len()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.locked().spans.iter().filter(|s| s.name == name).count()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `max_spans` spans as Chrome Trace Event JSON; the count
    /// left out is recorded in the process metadata.
    pub fn chrome_json(&self, process_name: &str, max_spans: usize) -> String {
        let inner = self.locked();
        let kept = &inner.spans[..inner.spans.len().min(max_spans)];
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{},\"spans_omitted\":{}}}}}",
            json_str(process_name),
            inner.spans.len() - kept.len()
        );
        for s in kept {
            let _ = write!(
                out,
                ",\n{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                json_str(&s.name),
                s.layer,
                s.track,
                clock::us_from_epoch(s.start),
                clock::ms_between(s.start, s.end) * 1e3,
                s.id,
                s.parent
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
