//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! (no tracing runs inside the program) and written out when the run ends.
//! Three kinds exist:
//!
//! * **call** — a service call as issued (`request`, `recompile`,
//!   `invalidate_device`);
//! * **probe** — a replay of a lower layer's public entry point with the
//!   same inputs right after the call (`cache_key`, `stable_key`,
//!   `warm_clone`, `Device::distances` / `weighted_distances` on an
//!   un-warmed copy of the snapshot).  A probe is the child, by
//!   attribution, of the call whose work it stands for, although its
//!   interval lies after that call;
//! * **reported** — a wall clock the program itself returns
//!   (`ServiceResponse::compile_ms`, `PipelineReport::passes`), laid out
//!   inside its parent.
//!
//! A span's self time is its duration minus the durations of its
//! children, floored at zero.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// How a span's duration was obtained (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Around a service call the benchmark issued.
    Call,
    /// Around a replay of a lower layer's entry point.
    Probe,
    /// A wall clock the program returned.
    Reported,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::Probe => "probe",
            Kind::Reported => "reported",
        }
    }
}

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.cache_key`.
    pub name: &'static str,
    /// The span this one is attributed to, if any.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// How the duration was obtained.
    pub kind: Kind,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Number of spans.
    pub count: usize,
    /// Sum of durations (ns).
    pub dur_ns: u64,
    /// Sum of self times (ns).
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per span, in the given unit (ns per unit).
    pub fn mean_dur(&self, ns_per_unit: f64) -> f64 {
        self.dur_ns as f64 / self.count.max(1) as f64 / ns_per_unit
    }

    /// Mean self time per span, in the given unit (ns per unit).
    pub fn mean_self(&self, ns_per_unit: f64) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / ns_per_unit
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Offset of `at` from the recorder's origin, in nanoseconds.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        dur_ns: u64,
        kind: Kind,
    ) -> SpanId {
        if let Some(p) = parent {
            assert!(p < self.spans.len(), "parent span recorded first");
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            dur_ns,
            kind,
        });
        self.spans.len() - 1
    }

    /// Runs `f` as a probe attributed to `parent` and records its span.
    pub fn probe<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let dur = start.elapsed().as_nanos() as u64;
        let id = self.record(
            name,
            request,
            parent,
            self.offset_ns(start),
            dur,
            Kind::Probe,
        );
        (out, id)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Totals per span name, over the spans `keep` accepts.
    pub fn totals(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
        let mut map: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if keep(s) {
                let t = map.entry(s.name).or_default();
                t.count += 1;
                t.dur_ns += s.dur_ns;
                t.self_ns += own;
            }
        }
        map
    }

    /// Writes every span to `path` as one JSON object per line, creating
    /// the parent directory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_jsonl_file(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out)?;
        out.flush()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"kind\": \"{}\"}}",
                s.request,
                json::string(s.name),
                s.start_ns,
                s.start_ns + s.dur_ns,
                s.kind.name()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let mut t = Tracer::new();
        let root = t.record("service.miss", 1, None, 0, 1000, Kind::Call);
        let compile = t.record("core.compile", 1, Some(root), 100, 800, Kind::Reported);
        t.record(
            "core.qap_mapping",
            1,
            Some(compile),
            100,
            500,
            Kind::Reported,
        );
        t.record("core.routing", 1, Some(compile), 600, 200, Kind::Reported);
        t.record("service.cache_key", 1, Some(root), 2000, 150, Kind::Probe);
        let hit = t.record("service.hit", 2, None, 3000, 100, Kind::Call);
        t.record("service.cache_key", 2, Some(hit), 3200, 120, Kind::Probe);
        assert_eq!(t.self_ns(), vec![50, 100, 500, 200, 150, 0, 120]);

        let totals = t.totals(|_| true);
        assert_eq!(
            totals["service.cache_key"],
            Totals {
                count: 2,
                dur_ns: 270,
                self_ns: 270
            }
        );
        assert_eq!(totals["core.compile"].self_ns, 100);
        assert_eq!(totals["service.cache_key"].mean_dur(1e3), 0.135);
        let requests_only = t.totals(|s| s.request == 2);
        assert_eq!(requests_only.len(), 2);
    }

    #[test]
    fn probes_record_their_duration_and_spans_write_as_json_lines() {
        let mut t = Tracer::new();
        let root = t.record("service.hit", 7, None, 0, 10, Kind::Call);
        let (v, id) = t.probe("service.cache_key", 7, Some(root), || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[id].parent, Some(root));
        assert_eq!(t.spans()[id].kind, Kind::Probe);

        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"id\": 0, \"parent\": null, \"request\": 7, \"name\": \"service.hit\", \
             \"start_ns\": 0, \"end_ns\": 10, \"kind\": \"call\"}"
        );
        assert!(lines[1].starts_with(
            "{\"id\": 1, \"parent\": 0, \"request\": 7, \"name\": \"service.cache_key\""
        ));
        assert!(lines[1].ends_with("\"kind\": \"probe\"}"));
    }
}
