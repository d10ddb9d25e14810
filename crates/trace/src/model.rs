//! The typed trace model and the **single** strict JSONL parser for
//! `diam-obs` traces.
//!
//! [`Trace::parse`] validates line-level JSON validity, required keys, a
//! leading manifest line, open/close pairing with parent links and a
//! trailing metrics line, and builds a typed model in one pass: a
//! [`TraceManifest`], the [`Span`] map with parent/child links + per-span
//! SAT attribution, the point events, and the final metrics. Diagnostics
//! are stable strings (`diam-trace check` prints them verbatim).

use diam_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt;

/// A validation/parse failure, pinned to a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line (or the last line for
    /// end-of-file checks such as unclosed spans).
    pub line: usize,
    /// Stable human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// The manifest line: what was run, with which options, by which build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceManifest {
    /// Tool name (e.g. `table1`).
    pub tool: String,
    /// Raw command-line arguments.
    pub args: Vec<String>,
    /// Primary input description, if any.
    pub input: Option<String>,
    /// Key/value options (normalized to sorted order).
    pub options: BTreeMap<String, String>,
    /// Build fingerprint string.
    pub build: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total wall time in nanoseconds.
    pub wall_ns: u64,
    /// Peak RSS in KiB; `None` when the key was absent (or `null`).
    pub peak_rss_kb: Option<u64>,
}

/// SAT work attributed to one span (extracted from the automatic `sat_*`
/// close fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatAttr {
    /// SAT `solve` calls.
    pub solves: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Decisions.
    pub decisions: u64,
    /// Propagations.
    pub propagations: u64,
    /// Clause-arena garbage collections (absent in pre-PR5 traces → 0).
    pub gc_runs: u64,
    /// Bytes reclaimed by arena GC (absent in pre-PR5 traces → 0).
    pub gc_freed_bytes: u64,
    /// Learnt clauses imported from sibling cube workers (absent in
    /// pre-PR6 traces → 0).
    pub shared_in: u64,
    /// Learnt clauses exported to sibling cube workers (absent in
    /// pre-PR6 traces → 0).
    pub shared_out: u64,
}

impl SatAttr {
    /// Element-wise sum.
    pub fn add(&mut self, other: &SatAttr) {
        self.solves += other.solves;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.gc_runs += other.gc_runs;
        self.gc_freed_bytes += other.gc_freed_bytes;
        self.shared_in += other.shared_in;
        self.shared_out += other.shared_out;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SatAttr::default()
    }
}

/// Allocator work attributed to one span (extracted from the `alloc_*`
/// close fields written when the counting allocator is enabled via
/// `--mem on`; absent fields → 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemAttr {
    /// Heap allocations performed under this span (on its thread).
    pub allocs: u64,
    /// Heap deallocations.
    pub frees: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
}

impl MemAttr {
    /// Element-wise sum.
    pub fn add(&mut self, other: &MemAttr) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.alloc_bytes += other.alloc_bytes;
        self.freed_bytes += other.freed_bytes;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == MemAttr::default()
    }
}

/// One span, with open/close data joined.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (dotted-path convention).
    pub name: String,
    /// Worker tag of the recording thread.
    pub worker: u64,
    /// Open timestamp (ns since session start).
    pub open_ts: u64,
    /// Global sequence number of the open event.
    pub open_seq: u64,
    /// Open→close duration in nanoseconds.
    pub dur_ns: u64,
    /// Fields recorded at open.
    pub open_fields: BTreeMap<String, JsonValue>,
    /// Fields recorded at close (includes the `sat_*` attribution keys).
    pub close_fields: BTreeMap<String, JsonValue>,
    /// SAT work charged to this span (parsed out of `close_fields`).
    pub sat: SatAttr,
    /// Allocator work charged to this span (parsed out of `close_fields`;
    /// all-zero unless the trace was recorded with `--mem on`).
    pub mem: MemAttr,
    /// Child span ids, in open order.
    pub children: Vec<u64>,
}

impl Span {
    /// Self time: duration minus the summed duration of direct children.
    /// Can saturate to 0 when children overlap the parent on other workers.
    pub fn self_ns(&self, trace: &Trace) -> u64 {
        let child_ns: u64 = self
            .children
            .iter()
            .filter_map(|c| trace.spans.get(c))
            .map(|c| c.dur_ns)
            .fold(0, u64::saturating_add);
        self.dur_ns.saturating_sub(child_ns)
    }

    /// A short human label from the open fields (`target`, `design`,
    /// `engine`, `column`, or `index`), empty when none applies.
    pub fn detail(&self) -> String {
        for key in ["target", "design", "engine", "column", "index"] {
            if let Some(v) = self.open_fields.get(key) {
                return match v {
                    JsonValue::Str(s) => s.clone(),
                    JsonValue::Int(i) => i.to_string(),
                    JsonValue::Float(f) => format!("{f}"),
                    JsonValue::Bool(b) => b.to_string(),
                    _ => String::new(),
                };
            }
        }
        String::new()
    }
}

/// A point event.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Timestamp (ns since session start).
    pub ts: u64,
    /// Global sequence number.
    pub seq: u64,
    /// Worker tag.
    pub worker: u64,
    /// Enclosing span id (0 = none).
    pub span: u64,
    /// Event name.
    pub name: String,
    /// Fields.
    pub fields: BTreeMap<String, JsonValue>,
}

/// A final-metrics value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter or gauge (JSONL does not distinguish them).
    Scalar(i128),
    /// A histogram summary: count, sum, the exact observed range (absent in
    /// pre-min/max traces), and the power-of-two-bucket quantile estimates
    /// (absent in pre-quantile traces).
    Histogram {
        /// Number of recorded values.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// Exact smallest recorded value.
        min: Option<u64>,
        /// Exact largest recorded value.
        max: Option<u64>,
        /// Estimated median (inclusive bucket upper bound).
        p50: Option<u64>,
        /// Estimated 90th percentile.
        p90: Option<u64>,
        /// Estimated 99th percentile.
        p99: Option<u64>,
    },
}

/// One raw event line, preserved in file order so a parsed trace can be
/// re-serialized losslessly (modulo key-order normalization).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span opened.
    Open {
        /// ns since session start.
        ts: u64,
        /// Global sequence number.
        seq: u64,
        /// Worker tag.
        worker: u64,
        /// Span id.
        span: u64,
        /// Parent span id.
        parent: u64,
        /// Span name.
        name: String,
        /// Open fields.
        fields: BTreeMap<String, JsonValue>,
    },
    /// A span closed.
    Close {
        /// ns since session start.
        ts: u64,
        /// Global sequence number.
        seq: u64,
        /// Worker tag.
        worker: u64,
        /// Span id.
        span: u64,
        /// Open→close duration.
        dur_ns: u64,
        /// Span name.
        name: String,
        /// Close fields.
        fields: BTreeMap<String, JsonValue>,
    },
    /// A point event.
    Point {
        /// ns since session start.
        ts: u64,
        /// Global sequence number.
        seq: u64,
        /// Worker tag.
        worker: u64,
        /// Enclosing span id.
        span: u64,
        /// Event name.
        name: String,
        /// Fields.
        fields: BTreeMap<String, JsonValue>,
    },
}

/// A fully parsed and validated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The manifest (first line).
    pub manifest: TraceManifest,
    /// All event lines, in file order.
    pub events: Vec<TraceEvent>,
    /// Joined spans, keyed by id.
    pub spans: BTreeMap<u64, Span>,
    /// Span ids in open order.
    pub open_order: Vec<u64>,
    /// Point events, in file order.
    pub points: Vec<Point>,
    /// Final metrics (last line), name → value.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Timestamp of the metrics line.
    pub metrics_ts: u64,
    /// Total line count of the source file.
    pub lines: usize,
}

fn as_u64(v: &JsonValue) -> Option<u64> {
    v.as_u64()
}

fn fields_of(v: &JsonValue) -> BTreeMap<String, JsonValue> {
    match v.get_object() {
        Some(m) => m.clone(),
        None => BTreeMap::new(),
    }
}

/// Small extension used by the parser (kept local to avoid widening the
/// `diam-obs` JSON surface).
trait JsonExt {
    fn get_object(&self) -> Option<&BTreeMap<String, JsonValue>>;
}

impl JsonExt for JsonValue {
    fn get_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }
}

fn mem_from(fields: &BTreeMap<String, JsonValue>) -> MemAttr {
    let pick = |k: &str| fields.get(k).and_then(as_u64).unwrap_or(0);
    MemAttr {
        allocs: pick("alloc_allocs"),
        frees: pick("alloc_frees"),
        alloc_bytes: pick("alloc_bytes"),
        freed_bytes: pick("alloc_freed_bytes"),
    }
}

fn sat_from(fields: &BTreeMap<String, JsonValue>) -> SatAttr {
    let pick = |k: &str| fields.get(k).and_then(as_u64).unwrap_or(0);
    SatAttr {
        solves: pick("sat_solves"),
        conflicts: pick("sat_conflicts"),
        decisions: pick("sat_decisions"),
        propagations: pick("sat_propagations"),
        gc_runs: pick("sat_gc_runs"),
        gc_freed_bytes: pick("sat_gc_freed_bytes"),
        shared_in: pick("sat_shared_in"),
        shared_out: pick("sat_shared_out"),
    }
}

impl Trace {
    /// Parses and strictly validates a JSONL trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] carrying the offending line and a stable
    /// diagnostic string (`diam-trace check` prints it verbatim).
    pub fn parse(text: &str) -> Result<Trace, TraceError> {
        let fail = |line: usize, message: String| -> TraceError { TraceError { line, message } };

        let mut trace = Trace {
            manifest: TraceManifest::default(),
            events: Vec::new(),
            spans: BTreeMap::new(),
            open_order: Vec::new(),
            points: Vec::new(),
            metrics: BTreeMap::new(),
            metrics_ts: 0,
            lines: 0,
        };
        // open-span id → name (for pairing); `ever_opened` includes closed.
        let mut open: BTreeMap<u64, String> = BTreeMap::new();
        let mut saw_manifest = false;
        let mut saw_metrics = false;
        let mut lines = 0usize;

        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            lines += 1;
            let v = match json::parse(line) {
                Ok(v) => v,
                Err(e) => return Err(fail(line_no, format!("not valid JSON ({e}): {line}"))),
            };
            if !v.is_object() {
                return Err(fail(line_no, "not a JSON object".into()));
            }
            for key in ["ts", "span", "ev", "fields"] {
                if v.get(key).is_none() {
                    return Err(fail(line_no, format!("missing required key `{key}`")));
                }
            }
            let ts = v.get("ts").and_then(as_u64).unwrap_or(0);
            let seq = v.get("seq").and_then(as_u64).unwrap_or(0);
            let worker = v.get("worker").and_then(as_u64).unwrap_or(0);
            let ev = v.get("ev").and_then(JsonValue::as_str).unwrap_or_default();
            match ev {
                "manifest" => {
                    if line_no != 1 {
                        return Err(fail(line_no, "manifest must be the first line".into()));
                    }
                    let f = v.get("fields").unwrap();
                    for key in ["tool", "args", "build", "wall_ns"] {
                        if f.get(key).is_none() {
                            return Err(fail(line_no, format!("manifest missing `{key}`")));
                        }
                    }
                    trace.manifest = parse_manifest(f);
                    saw_manifest = true;
                }
                "open" => {
                    let span = v.get("span").and_then(as_u64).unwrap_or(0);
                    let parent = v.get("parent").and_then(as_u64);
                    let name = v.get("name").and_then(JsonValue::as_str);
                    if span == 0 {
                        return Err(fail(line_no, "open with span id 0".into()));
                    }
                    let Some(parent) = parent else {
                        return Err(fail(line_no, "open without parent".into()));
                    };
                    let Some(name) = name else {
                        return Err(fail(line_no, "open without name".into()));
                    };
                    if v.get("worker").is_none() {
                        return Err(fail(line_no, "open without worker".into()));
                    }
                    if parent != 0 && !trace.spans.contains_key(&parent) {
                        return Err(fail(line_no, format!("parent span {parent} never opened")));
                    }
                    if trace.spans.contains_key(&span) {
                        return Err(fail(line_no, format!("span {span} opened twice")));
                    }
                    let fields = fields_of(v.get("fields").unwrap());
                    open.insert(span, name.to_string());
                    trace.open_order.push(span);
                    trace.spans.insert(
                        span,
                        Span {
                            id: span,
                            parent,
                            name: name.to_string(),
                            worker,
                            open_ts: ts,
                            open_seq: seq,
                            dur_ns: 0,
                            open_fields: fields.clone(),
                            close_fields: BTreeMap::new(),
                            sat: SatAttr::default(),
                            mem: MemAttr::default(),
                            children: Vec::new(),
                        },
                    );
                    trace.events.push(TraceEvent::Open {
                        ts,
                        seq,
                        worker,
                        span,
                        parent,
                        name: name.to_string(),
                        fields,
                    });
                }
                "close" => {
                    let span = v.get("span").and_then(as_u64).unwrap_or(0);
                    let name = v.get("name").and_then(JsonValue::as_str).unwrap_or("");
                    let Some(dur_ns) = v.get("dur_ns").and_then(as_u64) else {
                        return Err(fail(line_no, "close without dur_ns".into()));
                    };
                    match open.remove(&span) {
                        None => {
                            return Err(fail(line_no, format!("close of span {span} never opened")))
                        }
                        Some(opened_as) if opened_as != name => {
                            return Err(fail(
                                line_no,
                                format!("span {span} opened as `{opened_as}` closed as `{name}`"),
                            ))
                        }
                        Some(_) => {}
                    }
                    let fields = fields_of(v.get("fields").unwrap());
                    let sp = trace.spans.get_mut(&span).expect("span opened");
                    sp.dur_ns = dur_ns;
                    sp.sat = sat_from(&fields);
                    sp.mem = mem_from(&fields);
                    sp.close_fields = fields.clone();
                    trace.events.push(TraceEvent::Close {
                        ts,
                        seq,
                        worker,
                        span,
                        dur_ns,
                        name: name.to_string(),
                        fields,
                    });
                }
                "point" => {
                    let span = v.get("span").and_then(as_u64).unwrap_or(0);
                    let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
                        return Err(fail(line_no, "point without name".into()));
                    };
                    let fields = fields_of(v.get("fields").unwrap());
                    trace.points.push(Point {
                        ts,
                        seq,
                        worker,
                        span,
                        name: name.to_string(),
                        fields: fields.clone(),
                    });
                    trace.events.push(TraceEvent::Point {
                        ts,
                        seq,
                        worker,
                        span,
                        name: name.to_string(),
                        fields,
                    });
                }
                "metrics" => {
                    trace.metrics_ts = ts;
                    trace.metrics = parse_metrics(v.get("fields").unwrap());
                    saw_metrics = true;
                }
                other => return Err(fail(line_no, format!("unknown ev kind `{other}`"))),
            }
            if saw_metrics && ev != "metrics" {
                return Err(fail(line_no, "event after the metrics line".into()));
            }
        }

        if !saw_manifest {
            return Err(fail(lines.max(1), "no manifest line".into()));
        }
        if !saw_metrics {
            return Err(fail(lines.max(1), "no metrics line".into()));
        }
        if !open.is_empty() {
            let mut dangling: Vec<String> = open
                .iter()
                .map(|(id, name)| format!("{name}#{id}"))
                .collect();
            dangling.sort();
            return Err(fail(
                lines,
                format!("unclosed spans: {}", dangling.join(", ")),
            ));
        }
        trace.lines = lines;

        // Child links, in open order.
        for &id in &trace.open_order {
            let parent = trace.spans[&id].parent;
            if parent != 0 {
                if let Some(p) = trace.spans.get_mut(&parent) {
                    p.children.push(id);
                }
            }
        }
        Ok(trace)
    }

    /// Root span ids (parent 0), in open order.
    pub fn roots(&self) -> Vec<u64> {
        self.open_order
            .iter()
            .copied()
            .filter(|id| self.spans[id].parent == 0)
            .collect()
    }

    /// Sorted, de-duplicated span names (as the `diam-trace check` OK line
    /// lists).
    pub fn span_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.spans.values().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Number of spans (open events).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Re-serializes the model to JSONL in the exact `diam-obs` framing.
    ///
    /// Field/option key order is normalized (sorted); otherwise the output
    /// is lossless: `parse(to_jsonl(parse(x))) == parse(x)` for any valid
    /// input `x` (the round-trip property test).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        // Manifest line.
        out.push_str("{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{");
        out.push_str("\"tool\":");
        json::write_escaped(&mut out, &self.manifest.tool);
        out.push_str(",\"args\":[");
        for (i, a) in self.manifest.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, a);
        }
        out.push_str("],\"input\":");
        match &self.manifest.input {
            Some(s) => json::write_escaped(&mut out, s),
            None => out.push_str("null"),
        }
        out.push_str(",\"options\":{");
        for (i, (k, v)) in self.manifest.options.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, k);
            out.push(':');
            json::write_escaped(&mut out, v);
        }
        out.push_str("},\"build\":");
        json::write_escaped(&mut out, &self.manifest.build);
        out.push_str(&format!(
            ",\"started_unix_ms\":{},\"wall_ns\":{}",
            self.manifest.started_unix_ms, self.manifest.wall_ns
        ));
        if let Some(kb) = self.manifest.peak_rss_kb {
            out.push_str(&format!(",\"peak_rss_kb\":{kb}"));
        }
        out.push_str("}}\n");

        for e in &self.events {
            match e {
                TraceEvent::Open {
                    ts,
                    seq,
                    worker,
                    span,
                    parent,
                    name,
                    fields,
                } => {
                    out.push_str(&format!(
                        "{{\"ts\":{ts},\"seq\":{seq},\"worker\":{worker},\"ev\":\"open\",\"span\":{span},\"parent\":{parent},\"name\":"
                    ));
                    json::write_escaped(&mut out, name);
                    out.push_str(",\"fields\":");
                    write_fields(&mut out, fields);
                    out.push_str("}\n");
                }
                TraceEvent::Close {
                    ts,
                    seq,
                    worker,
                    span,
                    dur_ns,
                    name,
                    fields,
                } => {
                    out.push_str(&format!(
                        "{{\"ts\":{ts},\"seq\":{seq},\"worker\":{worker},\"ev\":\"close\",\"span\":{span},\"dur_ns\":{dur_ns},\"name\":"
                    ));
                    json::write_escaped(&mut out, name);
                    out.push_str(",\"fields\":");
                    write_fields(&mut out, fields);
                    out.push_str("}\n");
                }
                TraceEvent::Point {
                    ts,
                    seq,
                    worker,
                    span,
                    name,
                    fields,
                } => {
                    out.push_str(&format!(
                        "{{\"ts\":{ts},\"seq\":{seq},\"worker\":{worker},\"ev\":\"point\",\"span\":{span},\"name\":"
                    ));
                    json::write_escaped(&mut out, name);
                    out.push_str(",\"fields\":");
                    write_fields(&mut out, fields);
                    out.push_str("}\n");
                }
            }
        }

        out.push_str(&format!(
            "{{\"ts\":{},\"span\":0,\"ev\":\"metrics\",\"fields\":{{",
            self.metrics_ts
        ));
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(&mut out, name);
            out.push(':');
            match m {
                MetricValue::Scalar(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram {
                    count,
                    sum,
                    min,
                    max,
                    p50,
                    p90,
                    p99,
                } => {
                    out.push_str(&format!("{{\"count\":{count},\"sum\":{sum}"));
                    if let (Some(min), Some(max)) = (min, max) {
                        out.push_str(&format!(",\"min\":{min},\"max\":{max}"));
                    }
                    if let (Some(p50), Some(p90), Some(p99)) = (p50, p90, p99) {
                        out.push_str(&format!(",\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}"));
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("}}\n");
        out
    }
}

fn parse_manifest(f: &JsonValue) -> TraceManifest {
    let s = |k: &str| {
        f.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let args = match f.get("args") {
        Some(JsonValue::Array(a)) => a
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    };
    let options = match f.get("options") {
        Some(JsonValue::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    };
    let input = f
        .get("input")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    TraceManifest {
        tool: s("tool"),
        args,
        input,
        options,
        build: s("build"),
        started_unix_ms: f.get("started_unix_ms").and_then(as_u64).unwrap_or(0),
        wall_ns: f.get("wall_ns").and_then(as_u64).unwrap_or(0),
        peak_rss_kb: f.get("peak_rss_kb").and_then(as_u64),
    }
}

fn parse_metrics(f: &JsonValue) -> BTreeMap<String, MetricValue> {
    let mut out = BTreeMap::new();
    if let JsonValue::Object(m) = f {
        for (k, v) in m {
            let value = match v {
                JsonValue::Int(i) => MetricValue::Scalar(*i),
                JsonValue::Object(_) => MetricValue::Histogram {
                    count: v.get("count").and_then(as_u64).unwrap_or(0),
                    sum: v.get("sum").and_then(as_u64).unwrap_or(0),
                    min: v.get("min").and_then(as_u64),
                    max: v.get("max").and_then(as_u64),
                    p50: v.get("p50").and_then(as_u64),
                    p90: v.get("p90").and_then(as_u64),
                    p99: v.get("p99").and_then(as_u64),
                },
                _ => MetricValue::Scalar(0),
            };
            out.insert(k.clone(), value);
        }
    }
    out
}

pub(crate) fn write_json_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Float(f) if f.is_finite() => out.push_str(&format!("{f}")),
        JsonValue::Float(_) => out.push_str("null"),
        JsonValue::Str(s) => json::write_escaped(out, s),
        JsonValue::Array(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_value(out, x);
            }
            out.push(']');
        }
        JsonValue::Object(m) => {
            out.push('{');
            for (i, (k, x)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_escaped(out, k);
                out.push(':');
                write_json_value(out, x);
            }
            out.push('}');
        }
    }
}

fn write_fields(out: &mut String, fields: &BTreeMap<String, JsonValue>) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, k);
        out.push(':');
        write_json_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"t\",\"args\":[],\"input\":null,\"options\":{},\"build\":\"b\",\"started_unix_ms\":1,\"wall_ns\":100}}";
    const METRICS: &str = "{\"ts\":100,\"span\":0,\"ev\":\"metrics\",\"fields\":{}}";

    fn lines(extra: &[&str]) -> String {
        let mut all = vec![MANIFEST];
        all.extend_from_slice(extra);
        all.push(METRICS);
        let mut s = all.join("\n");
        s.push('\n');
        s
    }

    #[test]
    fn parses_a_minimal_trace() {
        let text = lines(&[
            "{\"ts\":1,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"a\",\"fields\":{\"target\":\"t0\"}}",
            "{\"ts\":2,\"seq\":1,\"worker\":0,\"ev\":\"open\",\"span\":2,\"parent\":1,\"name\":\"b\",\"fields\":{}}",
            "{\"ts\":3,\"seq\":2,\"worker\":0,\"ev\":\"point\",\"span\":2,\"name\":\"p\",\"fields\":{\"n\":1}}",
            "{\"ts\":4,\"seq\":3,\"worker\":0,\"ev\":\"close\",\"span\":2,\"dur_ns\":2,\"name\":\"b\",\"fields\":{\"sat_solves\":2,\"sat_conflicts\":7,\"sat_decisions\":9,\"sat_propagations\":11}}",
            "{\"ts\":5,\"seq\":4,\"worker\":0,\"ev\":\"close\",\"span\":1,\"dur_ns\":4,\"name\":\"a\",\"fields\":{}}",
        ]);
        let t = Trace::parse(&text).expect("valid");
        assert_eq!(t.manifest.tool, "t");
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.roots(), vec![1]);
        assert_eq!(t.spans[&1].children, vec![2]);
        assert_eq!(t.spans[&1].detail(), "t0");
        assert_eq!(t.spans[&2].sat.conflicts, 7);
        assert_eq!(t.spans[&2].sat.solves, 2);
        assert_eq!(t.spans[&1].self_ns(&t), 2);
        assert_eq!(t.span_names(), ["a", "b"]);
        assert_eq!(t.lines, 7);
    }

    #[test]
    fn diagnostics_match_tracecheck_strings() {
        let cases: [(&str, usize, &str); 7] = [
            ("not json\n", 1, "not valid JSON"),
            ("{\"ts\":0,\"span\":0,\"ev\":\"manifest\"}\n", 1, "missing required key `fields`"),
            (
                &lines(&["{\"ts\":1,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":0,\"parent\":0,\"name\":\"a\",\"fields\":{}}"]),
                2,
                "open with span id 0",
            ),
            (
                &lines(&["{\"ts\":1,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":9,\"name\":\"a\",\"fields\":{}}"]),
                2,
                "parent span 9 never opened",
            ),
            (
                &lines(&["{\"ts\":1,\"seq\":0,\"worker\":0,\"ev\":\"close\",\"span\":7,\"dur_ns\":1,\"name\":\"a\",\"fields\":{}}"]),
                2,
                "close of span 7 never opened",
            ),
            (
                &lines(&["{\"ts\":1,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"a\",\"fields\":{}}"]),
                3,
                "unclosed spans: a#1",
            ),
            (&format!("{MANIFEST}\n"), 1, "no metrics line"),
        ];
        for (text, line, needle) in cases {
            let err = Trace::parse(text).expect_err("must fail");
            assert_eq!(err.line, line, "{needle}");
            assert!(err.message.contains(needle), "{}", err.message);
        }
    }

    #[test]
    fn manifest_without_peak_rss_parses_as_none() {
        let t = Trace::parse(&lines(&[])).expect("valid");
        assert_eq!(t.manifest.peak_rss_kb, None);
        assert!(!t.to_jsonl().contains("peak_rss_kb"));
    }

    #[test]
    fn serialization_round_trips() {
        let text = lines(&[
            "{\"ts\":1,\"seq\":0,\"worker\":2,\"ev\":\"open\",\"span\":1,\"parent\":0,\"name\":\"a\",\"fields\":{\"s\":\"x\\\"y\",\"f\":1.5,\"b\":true,\"n\":-3}}",
            "{\"ts\":4,\"seq\":1,\"worker\":2,\"ev\":\"close\",\"span\":1,\"dur_ns\":3,\"name\":\"a\",\"fields\":{}}",
        ]);
        let t1 = Trace::parse(&text).expect("valid");
        let t2 = Trace::parse(&t1.to_jsonl()).expect("re-parses");
        assert_eq!(t1, t2);
    }
}
