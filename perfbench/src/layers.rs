//! Per-layer metrics, read off a recorded trace.
//!
//! Every number here comes from the spans [`crate::shadow`] opens, from
//! the `pass.apply` spans the program emits, and from the session's `sat.*`
//! counters, so what the benchmark reports is what the JSONL trace holds.

use diam_obs::{EventKind, Metric, Report, Value};
use std::collections::HashMap;

/// The spans whose time is the traced `verdict_s`: each wraps one layer call
/// made directly by the shadow portfolio.
const LAYER_SPANS: [&str; 9] = [
    "transform.sweep",
    "transform.pipeline",
    "core.bound",
    "bmc.random",
    "transform.swept_check",
    "bmc.diameter",
    "core.symbolic_cone",
    "core.symbolic",
    "bmc.induction",
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them, as
/// `(name, value, unit)`.
pub type LayerMetrics = Vec<(&'static str, f64, &'static str)>;

#[derive(Default)]
struct Totals {
    secs: f64,
    calls: u64,
    /// Closes whose `decided` (or `hit`) field is true.
    yes: u64,
    sat_conflicts: u64,
    depth: u64,
    regs_out: u64,
    ands_out: u64,
    regs_before: u64,
    regs_after: u64,
}

fn field_u64(fields: &[(&'static str, Value)], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(x) => Some(*x),
            _ => None,
        })
}

fn field_bool(fields: &[(&'static str, Value)], key: &str) -> bool {
    fields
        .iter()
        .any(|(k, v)| *k == key && *v == Value::Bool(true))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from `report`. `verdict_s` is the median
/// untraced time of the same workload, for the tracing overhead.
pub fn from_report(report: &Report, verdict_s: f64) -> LayerMetrics {
    // Span id -> (name, parent, `pass` field) from the open events.
    let mut opened: HashMap<u64, (&'static str, u64, Option<String>)> = HashMap::new();
    let mut totals: HashMap<String, Totals> = HashMap::new();
    let (mut bound_checks, mut bound_useful) = (0u64, 0u64);
    let (mut traced_s, mut layer_s) = (0.0, 0.0);
    for ev in &report.events {
        match &ev.kind {
            EventKind::Open {
                span,
                parent,
                name,
                fields,
            } => {
                let pass = fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"pass", Value::Str(s)) => Some(s.clone()),
                    _ => None,
                });
                opened.insert(*span, (name, *parent, pass));
            }
            EventKind::Close {
                span,
                name,
                dur_ns,
                fields,
            } => {
                let secs = *dur_ns as f64 * 1e-9;
                let (_, parent, pass) = &opened[span];
                let key = match pass {
                    Some(p) => format!("pass.{p}"),
                    None => name.to_string(),
                };
                let t = totals.entry(key).or_default();
                t.secs += secs;
                t.calls += 1;
                t.yes += u64::from(field_bool(fields, "decided") || field_bool(fields, "hit"));
                t.sat_conflicts += field_u64(fields, "sat_conflicts").unwrap_or(0);
                t.depth += field_u64(fields, "depth").unwrap_or(0);
                t.regs_out += field_u64(fields, "regs_out").unwrap_or(0);
                t.ands_out += field_u64(fields, "ands_out").unwrap_or(0);
                t.regs_before += field_u64(fields, "regs_before").unwrap_or(0);
                t.regs_after += field_u64(fields, "regs_after").unwrap_or(0);
                if *name == "bench.solve_all" {
                    traced_s += secs;
                }
                let under_design = opened.get(parent).map(|o| o.0) == Some("bench.design");
                if under_design && LAYER_SPANS.contains(name) {
                    layer_s += secs;
                }
            }
            EventKind::Point { name, fields, .. } if *name == "core.bound_check" => {
                bound_checks += 1;
                bound_useful += u64::from(field_bool(fields, "useful"));
            }
            EventKind::Point { .. } => {}
        }
    }
    let empty = Totals::default();
    let get = |k: &str| totals.get(k).unwrap_or(&empty);
    let counter = |k: &str| match report.metrics.get(k) {
        Some(Metric::Counter(c)) => *c as f64,
        _ => 0.0,
    };
    let ret = get("pass.ret");
    vec![
        ("netlist.parse_s", get("netlist.parse").secs, "s"),
        ("transform.sweep_s", get("transform.sweep").secs, "s"),
        (
            "transform.sweep_sat_conflicts",
            get("transform.sweep").sat_conflicts as f64,
            "count",
        ),
        ("transform.pipeline_s", get("transform.pipeline").secs, "s"),
        ("transform.pass_coi_s", get("pass.coi").secs, "s"),
        ("transform.pass_com_s", get("pass.com").secs, "s"),
        ("transform.pass_ret_s", ret.secs, "s"),
        (
            "transform.regs_out",
            get("transform.pipeline").regs_out as f64,
            "count",
        ),
        (
            "transform.ands_out",
            get("transform.pipeline").ands_out as f64,
            "count",
        ),
        (
            "transform.ret_yield",
            ratio(
                ret.regs_before.saturating_sub(ret.regs_after) as f64,
                ret.regs_before as f64,
            ),
            "ratio",
        ),
        ("core.bound_s", get("core.bound").secs, "s"),
        (
            "core.bound_useful_frac",
            ratio(bound_useful as f64, bound_checks as f64),
            "ratio",
        ),
        ("core.symbolic_s", get("core.symbolic").secs, "s"),
        (
            "core.symbolic_calls",
            get("core.symbolic").calls as f64,
            "count",
        ),
        (
            "core.symbolic_decided",
            get("core.symbolic").yes as f64,
            "count",
        ),
        ("bmc.random_s", get("bmc.random").secs, "s"),
        (
            "bmc.random_hit_frac",
            ratio(get("bmc.random").yes as f64, get("bmc.random").calls as f64),
            "ratio",
        ),
        ("bmc.diameter_s", get("bmc.diameter").secs, "s"),
        (
            "bmc.diameter_calls",
            get("bmc.diameter").calls as f64,
            "count",
        ),
        (
            "bmc.diameter_depth",
            get("bmc.diameter").depth as f64,
            "count",
        ),
        (
            "bmc.diameter_sat_conflicts",
            get("bmc.diameter").sat_conflicts as f64,
            "count",
        ),
        ("bmc.induction_s", get("bmc.induction").secs, "s"),
        (
            "bmc.induction_calls",
            get("bmc.induction").calls as f64,
            "count",
        ),
        (
            "bmc.induction_decided",
            get("bmc.induction").yes as f64,
            "count",
        ),
        (
            "bmc.induction_sat_conflicts",
            get("bmc.induction").sat_conflicts as f64,
            "count",
        ),
        ("sat.solves", counter("sat.solves"), "count"),
        ("sat.conflicts", counter("sat.conflicts"), "count"),
        ("sat.propagations", counter("sat.propagations"), "count"),
        ("obs.traced_verdict_s", traced_s, "s"),
        (
            "obs.trace_overhead_frac",
            ratio(traced_s - verdict_s, verdict_s),
            "ratio",
        ),
        ("obs.span_coverage_frac", ratio(layer_s, traced_s), "ratio"),
    ]
}
