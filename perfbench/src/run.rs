//! One benchmark run: generate a workload in a child process, measure
//! cold repetitions of parse + `solve_all`, check every verdict, and, when
//! traced, record the per-layer split with the shadow portfolio.

use crate::layers::{self, LayerMetrics};
use crate::oracle::{self, Audit};
use crate::shadow::solve_all_traced;
use crate::workload::{self, Design, Workload};
use diam_bmc::strategy::{solve_all, StrategyOptions, TargetStatus};
use diam_core::{EccOptions, Parallelism, StructuralOptions};
use diam_netlist::{aiger, Netlist};
use diam_obs::{span, ObsConfig, ObsMode, RunManifest, Session};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Parses per repetition: the last one's netlists are solved, and every
/// parse is a `setup_s` sample, so set-up is sampled across the whole run.
const PARSES_PER_REPETITION: usize = 5;

/// The options `diam solve` uses by default, on one thread.
pub fn strategy() -> StrategyOptions {
    StrategyOptions {
        depth_cap: 10_000,
        structural: StructuralOptions {
            parallelism: Parallelism::Sequential,
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        },
        ..StrategyOptions::default()
    }
}

/// Generates `w` at `seed` in a child process (this executable, `--emit`),
/// so the measuring process only ever holds the serialized designs and its
/// peak memory is that of parsing and solving.
pub fn generate_in_child(w: Workload, seed: u64) -> Result<Vec<Design>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--emit", w.name(), &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start the generator: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "generator failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    workload::decode(&out.stdout)
}

/// Parses every design's AIGER bytes.
pub fn parse_all(designs: &[Design]) -> Result<Vec<Netlist>, String> {
    designs
        .iter()
        .map(|d| aiger::read(&d.aiger[..]).map_err(|e| format!("{}: {e}", d.name)))
        .collect()
}

/// Median of `xs` (which must be non-empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The timed, cold repetitions of one workload.
pub struct Measured {
    /// Parse time of the whole workload, one sample per parse.
    pub setup: Vec<f64>,
    /// `solve_all` time over every design, one sample per repetition.
    pub verdict: Vec<f64>,
    /// The first repetition's verdicts, per design.
    pub verdicts: Vec<Vec<TargetStatus>>,
    /// Whether every repetition gave the first one's verdicts, witnesses
    /// included.
    pub repeatable: bool,
    /// Peak resident memory after the first repetition, in MiB: the peak of
    /// one cold repetition, however many follow.
    pub peak_rss_mb: f64,
}

/// Repeats parse + `solve_all` over `designs` for at most `budget`: a new
/// repetition starts only while the last one would still fit (there is
/// always at least one). Each repetition starts cold: fresh netlists (empty
/// CSR caches) and an empty eccentricity memo.
pub fn measure(
    designs: &[Design],
    budget: Duration,
    opts: &StrategyOptions,
) -> Result<Measured, String> {
    let mut m = Measured {
        setup: Vec::new(),
        verdict: Vec::new(),
        verdicts: Vec::new(),
        repeatable: true,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    loop {
        diam_core::eccentricity::cache_clear();
        let mut nets = Vec::new();
        for _ in 0..PARSES_PER_REPETITION {
            drop(nets);
            let t = Instant::now();
            nets = parse_all(designs)?;
            m.setup.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let verdicts: Vec<Vec<TargetStatus>> = nets.iter().map(|n| solve_all(n, opts)).collect();
        let rep = t.elapsed();
        m.verdict.push(rep.as_secs_f64());
        if m.verdicts.is_empty() {
            m.verdicts = verdicts;
            m.peak_rss_mb = diam_obs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        } else if m.verdicts != verdicts {
            m.repeatable = false;
        }
        if start.elapsed() + rep > budget {
            return Ok(m);
        }
    }
}

/// The traced repetition: a cold parse + shadow portfolio under a JSON
/// session whose trace is written to `trace_out`.
pub struct Traced {
    /// The shadow portfolio's verdicts, per design.
    pub verdicts: Vec<Vec<TargetStatus>>,
    /// The finished session.
    pub report: diam_obs::Report,
}

/// Runs one traced repetition of `designs`.
pub fn traced(
    designs: &[Design],
    opts: &StrategyOptions,
    manifest: RunManifest,
    trace_out: Option<PathBuf>,
) -> Result<Traced, String> {
    diam_core::eccentricity::cache_clear();
    let session = Session::install(
        ObsConfig {
            mode: ObsMode::Json,
            trace_out,
            ..ObsConfig::default()
        },
        manifest,
    );
    let nets = designs
        .iter()
        .map(|d| {
            let _sp = span!("netlist.parse", design = d.name.as_str());
            aiger::read(&d.aiger[..]).map_err(|e| format!("{}: {e}", d.name))
        })
        .collect::<Result<Vec<Netlist>, String>>()?;
    let verdicts = {
        let _root = span!("bench.solve_all", designs = nets.len());
        nets.iter()
            .zip(designs)
            .map(|(n, d)| {
                let _sp = span!("bench.design", design = d.name.as_str());
                solve_all_traced(n, opts)
            })
            .collect()
    };
    Ok(Traced {
        verdicts,
        report: session.finish(),
    })
}

/// Everything one run reports.
pub struct Outcome {
    /// Workload fingerprint (see [`workload::fingerprint`]).
    pub fingerprint: u64,
    /// Per-design netlist fingerprints.
    pub design_fingerprints: Vec<(String, u64)>,
    /// Targets in the workload.
    pub targets: usize,
    /// The timed repetitions.
    pub measured: Measured,
    /// The first repetition's audit, summed over designs.
    pub audit: Audit,
    /// Targets the explicit-state explorer settled, and its disagreements
    /// with the generator.
    pub explored: (usize, usize),
    /// Verdict tallies as `(label, count)`, e.g. `("Proved/DiameterBmc", 48)`.
    pub tally: Vec<(String, usize)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<LayerMetrics>,
    /// Whether the traced verdicts equal the timed ones (traced runs only).
    pub shadow_equal: Option<bool>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.audit.wrong == 0
            && self.audit.non_replaying == 0
            && self.explored.1 == 0
            && self.measured.repeatable
            && self.shadow_equal != Some(false)
    }

    /// Median set-up time, in seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.measured.setup)
    }

    /// Median `solve_all` time, in seconds.
    pub fn verdict_s(&self) -> f64 {
        median(&self.measured.verdict)
    }

    /// Proved + Failed over all targets.
    pub fn decided_frac(&self) -> f64 {
        self.audit.decided as f64 / self.targets.max(1) as f64
    }
}

/// Runs `w` at `seed`: generation, `seconds` of timed repetitions, the
/// verdict audit and, with `trace`, one traced repetition whose trace is written under
/// `trace_dir`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let opts = strategy();
    let designs = generate_in_child(w, seed)?;
    let nets = parse_all(&designs)?;
    let design_fingerprints = designs
        .iter()
        .zip(&nets)
        .map(|(d, n)| (d.name.clone(), diam_netlist::stats::fingerprint(n)))
        .collect();
    let fingerprint = workload::fingerprint(&nets);
    let targets = nets.iter().map(|n| n.targets().len()).sum();
    drop(nets);

    let measured = measure(&designs, Duration::from_secs(seconds), &opts)?;

    let nets = parse_all(&designs)?;
    let mut audit = Audit::default();
    let mut explored = (0, 0);
    let mut tally = std::collections::BTreeMap::<String, usize>::new();
    for ((n, d), v) in nets.iter().zip(&designs).zip(&measured.verdicts) {
        let o = oracle::build(n, &d.expect);
        explored = (explored.0 + o.explored, explored.1 + o.disagreements);
        audit.add(oracle::audit(n, &o, v));
        for s in v {
            *tally.entry(label(s)).or_default() += 1;
        }
    }
    drop(nets);

    let (layers, shadow_equal) = if trace {
        std::fs::create_dir_all(trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
        let path = trace_dir.join(format!("{}-seed{seed}.jsonl", w.name()));
        let manifest = RunManifest::capture("perfbench")
            .option("workload", w.name())
            .option("seed", seed.to_string())
            .option("fingerprint", format!("{fingerprint:016x}"));
        let t = traced(&designs, &opts, manifest, Some(path))?;
        let verdict_s = median(&measured.verdict);
        (
            Some(layers::from_report(&t.report, verdict_s)),
            Some(t.verdicts == measured.verdicts),
        )
    } else {
        (None, None)
    };

    Ok(Outcome {
        fingerprint,
        design_fingerprints,
        targets,
        measured,
        audit,
        explored,
        tally: tally.into_iter().collect(),
        layers,
        shadow_equal,
    })
}

/// `Proved/<engine>`, `Failed/<engine>` or `Open`.
pub fn label(s: &TargetStatus) -> String {
    match s {
        TargetStatus::Proved { by } => format!("Proved/{by:?}"),
        TargetStatus::Failed { by, .. } => format!("Failed/{by:?}"),
        TargetStatus::Open { .. } => "Open".to_string(),
    }
}
