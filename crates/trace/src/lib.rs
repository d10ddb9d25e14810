//! # diam-trace — trace analytics for diam-obs JSONL traces
//!
//! `diam-obs` (see `crates/obs`) records structured runs as JSONL: one
//! manifest line, a stream of span open/close and point events, and a final
//! metrics line. This crate is the *analytics* layer on top of that format:
//!
//! * [`model`] — a typed span-tree parser ([`Trace::parse`]) with strict
//!   validation. `diam-trace check` prints its diagnostics verbatim.
//! * [`analyze`] — per-phase attribution rollups, critical-path extraction
//!   (heaviest-child chains that respect `diam-par` worker overlap), top-K
//!   hotspots, and per-depth SAT work tables.
//! * [`diff`] — noise-aware comparison of two traces: a phase regresses
//!   only when it exceeds both a relative threshold and an absolute floor,
//!   so micro-jitter on fast phases never trips the gate.
//! * [`export`] — Chrome trace-event JSON (Perfetto / `chrome://tracing`)
//!   and collapsed-stack flamegraph exporters, each with a round-trip
//!   verifier that checks the export against the span model.
//! * [`postmortem`] — strict parser and human renderer for the crash dumps
//!   written by `diam_obs::crash` (process panic hook and `diam-par` worker
//!   panics): which worker died where, open-span stacks, the flight
//!   recorder's last events, and allocator state at death.
//! * [`timeline`] — per-worker busy/idle lane rendering from merged span
//!   intervals.
//!
//! Everything is std-only; the only dependency is `diam-obs` itself (for the
//! vendored JSON parser and histogram machinery).
//!
//! ## Quick tour
//!
//! ```
//! use diam_trace::{Trace, analyze};
//!
//! let jsonl = concat!(
//!     "{\"ts\":0,\"span\":0,\"ev\":\"manifest\",\"fields\":{\"tool\":\"demo\",",
//!     "\"args\":[],\"input\":null,\"options\":{},\"build\":\"dev\",",
//!     "\"started_unix_ms\":0,\"wall_ns\":10}}\n",
//!     "{\"ts\":0,\"seq\":0,\"worker\":0,\"ev\":\"open\",\"span\":1,",
//!     "\"parent\":0,\"name\":\"pipeline.run\",\"fields\":{}}\n",
//!     "{\"ts\":9,\"seq\":1,\"worker\":0,\"ev\":\"close\",\"span\":1,",
//!     "\"dur_ns\":9,\"name\":\"pipeline.run\",\"fields\":{}}\n",
//!     "{\"ts\":10,\"span\":0,\"ev\":\"metrics\",\"fields\":{}}\n",
//! );
//! let trace = Trace::parse(jsonl).unwrap();
//! assert_eq!(trace.span_count(), 1);
//! let path = analyze::critical_path(&trace);
//! assert_eq!(path[0].name, "pipeline.run");
//! ```

pub mod analyze;
pub mod diff;
pub mod export;
pub mod model;
pub mod postmortem;
pub mod timeline;

pub use analyze::{
    critical_path, critical_path_from, hotspots, render_report, report_to_json, rollup, DepthRow,
    PathStep, PhaseRollup,
};
pub use diff::{diff_traces, has_regressions, render_diff, DiffOptions, PhaseDiff, Verdict};
pub use export::{
    chrome_trace, flamegraph, per_worker_dur_ns, total_self_ns, verify_chrome_trace,
    verify_flamegraph,
};
pub use model::{
    MemAttr, MetricValue, Point, SatAttr, Span, Trace, TraceError, TraceEvent, TraceManifest,
};
pub use postmortem::{render_postmortem, CrashDump};
pub use timeline::{per_worker_busy_ns, render_timeline};
