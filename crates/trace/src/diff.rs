//! Noise-aware trace diffing.
//!
//! Comparing two profiling runs naively produces noise: a 40 µs phase that
//! doubles to 80 µs is not a regression anyone should act on, while a 2 s
//! phase growing by 30% is. The gate here therefore requires **both**:
//!
//! * a relative excess — `new > base * rel_threshold`, and
//! * an absolute excess — `new - base > abs_floor_ns`.
//!
//! Phases present on only one side are reported as [`Verdict::Added`] /
//! [`Verdict::Removed`] and never gate (new phases are expected as the
//! pipeline grows). Improvements are flagged symmetrically (relative only,
//! plus the same absolute floor) so reports read usefully in both
//! directions, but only [`Verdict::Regress`] affects [`has_regressions`].

use crate::analyze::{rollup, PhaseRollup};
use crate::model::Trace;

/// Thresholds for the noise gate.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// A phase regresses only if `new > base * rel_threshold`.
    pub rel_threshold: f64,
    /// ... and only if `new - base > abs_floor_ns`. Default 20 ms: phases
    /// cheaper than that are dominated by scheduler and allocator jitter.
    pub abs_floor_ns: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_threshold: 1.30,
            abs_floor_ns: 20_000_000,
        }
    }
}

/// Per-phase comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds (or too small to matter).
    Pass,
    /// Slower by more than both the relative and absolute thresholds.
    Regress,
    /// Faster by more than both thresholds (informational).
    Improve,
    /// Present only in the new run.
    Added,
    /// Present only in the base run.
    Removed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Improve => "improve",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of a diff: a span name compared across the two runs.
#[derive(Debug, Clone)]
pub struct PhaseDiff {
    pub name: String,
    /// Total ns in the base run (0 when `Added`).
    pub base_ns: u64,
    /// Total ns in the new run (0 when `Removed`).
    pub new_ns: u64,
    /// `new / base`, or `None` when base is 0 / the phase is one-sided.
    pub ratio: Option<f64>,
    pub verdict: Verdict,
}

fn classify(base_ns: u64, new_ns: u64, opts: &DiffOptions) -> Verdict {
    if base_ns == 0 {
        return Verdict::Added;
    }
    let delta_up = new_ns.saturating_sub(base_ns);
    if new_ns as f64 > base_ns as f64 * opts.rel_threshold && delta_up > opts.abs_floor_ns {
        return Verdict::Regress;
    }
    let delta_down = base_ns.saturating_sub(new_ns);
    if (new_ns as f64) * opts.rel_threshold < base_ns as f64 && delta_down > opts.abs_floor_ns {
        return Verdict::Improve;
    }
    Verdict::Pass
}

/// Compare two lists of per-phase rollups by span name.
///
/// Rows are ordered: shared and removed phases in base-total-descending
/// order, then added phases in new-total-descending order.
fn diff_rollups(base: &[PhaseRollup], new: &[PhaseRollup], opts: &DiffOptions) -> Vec<PhaseDiff> {
    let mut rows = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for b in base {
        seen.insert(b.name.clone());
        match new.iter().find(|n| n.name == b.name) {
            Some(n) => {
                let verdict = classify(b.total_ns, n.total_ns, opts);
                let ratio = if b.total_ns > 0 {
                    Some(n.total_ns as f64 / b.total_ns as f64)
                } else {
                    None
                };
                rows.push(PhaseDiff {
                    name: b.name.clone(),
                    base_ns: b.total_ns,
                    new_ns: n.total_ns,
                    ratio,
                    verdict,
                });
            }
            None => rows.push(PhaseDiff {
                name: b.name.clone(),
                base_ns: b.total_ns,
                new_ns: 0,
                ratio: None,
                verdict: Verdict::Removed,
            }),
        }
    }
    for n in new {
        if !seen.contains(&n.name) {
            rows.push(PhaseDiff {
                name: n.name.clone(),
                base_ns: 0,
                new_ns: n.total_ns,
                ratio: None,
                verdict: Verdict::Added,
            });
        }
    }
    rows
}

/// Diff two parsed traces phase-by-phase.
pub fn diff_traces(base: &Trace, new: &Trace, opts: &DiffOptions) -> Vec<PhaseDiff> {
    diff_rollups(&rollup(base), &rollup(new), opts)
}

/// True when any row carries [`Verdict::Regress`].
pub fn has_regressions(rows: &[PhaseDiff]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regress)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Render a diff as an aligned text table plus a one-line verdict.
pub fn render_diff(rows: &[PhaseDiff], opts: &DiffOptions) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace diff (regress iff > {:.2}x and > {} ms slower)\n",
        opts.rel_threshold,
        opts.abs_floor_ns / 1_000_000
    ));
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    out.push_str(&format!(
        "  {:<name_w$}  {:>12}  {:>12}  {:>7}  verdict\n",
        "phase", "base ms", "new ms", "ratio"
    ));
    for r in rows {
        let ratio = match r.ratio {
            Some(x) => format!("{x:.2}x"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "  {:<name_w$}  {:>12}  {:>12}  {:>7}  {}\n",
            r.name,
            if r.verdict == Verdict::Added {
                "-".to_string()
            } else {
                fmt_ms(r.base_ns)
            },
            if r.verdict == Verdict::Removed {
                "-".to_string()
            } else {
                fmt_ms(r.new_ns)
            },
            ratio,
            r.verdict.label()
        ));
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regress)
        .count();
    if regressions == 0 {
        out.push_str("verdict: PASS — no regressions\n");
    } else {
        out.push_str(&format!("verdict: FAIL — {regressions} regression(s)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PhaseRollup;

    fn phase(name: &str, total_ns: u64) -> PhaseRollup {
        PhaseRollup {
            name: name.to_string(),
            count: 1,
            total_ns,
            self_ns: total_ns,
            sat: Default::default(),
            mem: Default::default(),
        }
    }

    #[test]
    fn identical_rollups_produce_zero_regressions() {
        let base = vec![
            phase("bmc.check", 2_000_000_000),
            phase("com.sweep", 50_000_000),
        ];
        let rows = diff_rollups(&base, &base, &DiffOptions::default());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Pass));
        assert!(!has_regressions(&rows));
        let text = render_diff(&rows, &DiffOptions::default());
        assert!(text.contains("verdict: PASS"), "{text}");
    }

    #[test]
    fn doubling_a_large_phase_regresses() {
        let base = vec![phase("bmc.check", 2_000_000_000)];
        let new = vec![phase("bmc.check", 4_000_000_000)];
        let rows = diff_rollups(&base, &new, &DiffOptions::default());
        assert_eq!(rows[0].verdict, Verdict::Regress);
        assert!(has_regressions(&rows));
        let text = render_diff(&rows, &DiffOptions::default());
        assert!(text.contains("REGRESS"), "{text}");
        assert!(text.contains("verdict: FAIL — 1 regression(s)"), "{text}");
    }

    #[test]
    fn small_phases_never_trip_the_absolute_floor() {
        // 3x slower, but only 3 ms in absolute terms: noise.
        let base = vec![phase("com.fold", 1_500_000)];
        let new = vec![phase("com.fold", 4_500_000)];
        let rows = diff_rollups(&base, &new, &DiffOptions::default());
        assert_eq!(rows[0].verdict, Verdict::Pass);
    }

    #[test]
    fn relative_threshold_gates_large_but_proportionally_small_deltas() {
        // +25 ms on a 10 s phase: above the floor, below the ratio.
        let base = vec![phase("prove.target", 10_000_000_000)];
        let new = vec![phase("prove.target", 10_025_000_000)];
        let rows = diff_rollups(&base, &new, &DiffOptions::default());
        assert_eq!(rows[0].verdict, Verdict::Pass);
    }

    #[test]
    fn one_sided_phases_are_added_or_removed_and_do_not_gate() {
        let base = vec![phase("old.phase", 500_000_000)];
        let new = vec![phase("new.phase", 500_000_000)];
        let rows = diff_rollups(&base, &new, &DiffOptions::default());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Removed);
        assert_eq!(rows[1].verdict, Verdict::Added);
        assert!(!has_regressions(&rows));
    }

    #[test]
    fn improvements_are_reported_symmetrically() {
        let base = vec![phase("bmc.check", 4_000_000_000)];
        let new = vec![phase("bmc.check", 2_000_000_000)];
        let rows = diff_rollups(&base, &new, &DiffOptions::default());
        assert_eq!(rows[0].verdict, Verdict::Improve);
        assert!(!has_regressions(&rows));
    }
}
