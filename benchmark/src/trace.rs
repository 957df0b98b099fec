//! Spans the benchmark records around its own calls into each layer.
//!
//! Only a deterministic 1-in-[`SAMPLE_EVERY`] sample of requests is traced.
//! Spans stay in memory while the workload runs and are written as JSON
//! lines when it ends, so tracing adds no I/O to the measured path. A
//! layer's *self time* is its span's duration minus the part covered by
//! its child spans.

use hmd_codec::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One request in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// A log stops taking requests after this many, so a fast workload's trace
/// stays small and cheap.
pub const MAX_TRACED: usize = 2048;

/// Whether request `request` belongs to the traced sample. Hashed, so the
/// sample does not line up with bursts or batch cycles.
pub fn sampled(request: u64) -> bool {
    let mut state = request;
    crate::model::splitmix(&mut state).is_multiple_of(SAMPLE_EVERY)
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id: the request id shifted left by 6 bits, plus the span's
    /// position within that request.
    pub id: u64,
    /// The causing span's id, `None` for a request's root.
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub request: u64,
    /// Layer-qualified name, `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// An in-memory span log. Each thread owns one; logs merge at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    requests: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            requests: 0,
            spans: Vec::new(),
        }
    }

    /// Whether request `request` is sampled and the log still takes it.
    pub fn wants(&self, request: u64) -> bool {
        self.requests < MAX_TRACED && sampled(request)
    }

    /// Starts recording the spans of one sampled request.
    pub fn request(&mut self, request: u64) -> RequestSpans<'_> {
        self.requests += 1;
        RequestSpans {
            tracer: self,
            request,
            next: 1,
        }
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let json = Json::object(vec![
                ("name", Json::Str(span.name.to_string())),
                ("id", int(span.id)),
                ("parent", span.parent.map_or(Json::Null, int)),
                ("request", int(span.request)),
                ("start_ns", int(span.start_ns)),
                ("end_ns", int(span.end_ns)),
            ]);
            writeln!(out, "{json}")?;
        }
        out.flush()
    }

    /// Self time per layer (the name before the first `.`), in microseconds
    /// per traced request, plus the number of traced requests.
    pub fn self_time_us(&self) -> (BTreeMap<String, f64>, usize) {
        let mut by_request: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for span in &self.spans {
            by_request.entry(span.request).or_default().push(*span);
        }
        let mut totals: BTreeMap<String, f64> = BTreeMap::new();
        for spans in by_request.values() {
            for span in spans {
                let mut children: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(span.id))
                    .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                    .filter(|(start, end)| start < end)
                    .collect();
                children.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in children {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                let own = span
                    .end_ns
                    .saturating_sub(span.start_ns)
                    .saturating_sub(covered);
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *totals.entry(layer.to_string()).or_default() += own as f64 / 1e3;
            }
        }
        let requests = by_request.len();
        for total in totals.values_mut() {
            *total /= requests.max(1) as f64;
        }
        (totals, requests)
    }
}

fn int(value: u64) -> Json {
    Json::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

/// The spans of one traced request.
pub struct RequestSpans<'a> {
    tracer: &'a mut Tracer,
    request: u64,
    next: u64,
}

impl RequestSpans<'_> {
    /// The id the request's root span gets, usable as a parent before the
    /// root itself is recorded (roots end last).
    pub fn root_id(&self) -> u64 {
        self.request << 6
    }

    /// Records the request's root span.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.push(self.root_id(), name, None, start, end)
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.request << 6) | self.next;
        self.next = (self.next % 63) + 1;
        self.push(id, name, parent, start, end)
    }

    fn push(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span = Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        };
        self.tracer.spans.push(span);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut tracer = Tracer::new(origin);
        let mut spans = tracer.request(64);
        let root = spans.root("client.request", at(0), at(100));
        let detect = spans.span("core.detect", Some(root), at(10), at(60));
        spans.span("data.scale", Some(detect), at(10), at(20));
        spans.span("ml.votes", Some(detect), at(20), at(50));
        let (self_us, requests) = tracer.self_time_us();
        assert_eq!(requests, 1);
        assert!((self_us["client"] - 50.0).abs() < 1e-9);
        assert!((self_us["core"] - 10.0).abs() < 1e-9);
        assert!((self_us["data"] - 10.0).abs() < 1e-9);
        assert!((self_us["ml"] - 30.0).abs() < 1e-9);
        let hits = (0..64_000).filter(|&r| sampled(r)).count();
        assert!((800..1200).contains(&hits), "{hits} of 64000 sampled");
    }
}
