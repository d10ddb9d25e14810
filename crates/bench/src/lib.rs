//! # diam-bench
//!
//! The experiment harness: regenerates the paper's Table 1 and Table 2 and
//! hosts the Criterion micro/macro benchmarks.
//!
//! Binaries:
//!
//! * `table1` — Table 1 (ISCAS89-profile suite) over the three columns
//!   *Original*, *COM*, *COM,RET,COM*;
//! * `table2` — Table 2 (GP-profile suite), same columns;
//! * `ablation` — the paper's §3/§4 side observations: recurrence diameter
//!   vs structural bound, Theorem 2 slack (bounds that *increase* slightly
//!   after retiming), and the state-folding factor.
//!
//! The row computation lives here in the library so the workspace
//! integration tests can assert the reproduced Σ shape.

use diam_core::classify::{classify, ClassCounts, ClassifyOptions};
use diam_core::{Bound, EccOptions, Pipeline, StructuralOptions, USEFUL_THRESHOLD};
use diam_gen::profile::DesignProfile;
use diam_netlist::Netlist;
use diam_obs::{ObsConfig, ObsMode, RunManifest, Session};
use diam_par::Parallelism;
use std::time::Instant;

/// Parsed command line shared by the table/ablation binaries.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Suite generator seed (positional, default 1).
    pub seed: u64,
    /// `--jobs <N|seq|auto>` — per-target fan-out.
    pub jobs: Parallelism,
    /// `--obs <off|summary|json|live|live-json>` + `--trace-out <path.jsonl>`
    /// + `--live-out <path.jsonl>`.
    pub obs: ObsConfig,
    /// `--limit <N>` — truncate the suite to its first `N` designs (CI and
    /// smoke runs).
    pub limit: Option<usize>,
    /// `--mem <on|off>` — allocation accounting via the counting global
    /// allocator (off by default; the binary must declare
    /// `diam_obs::alloc::CountingAlloc` as its `#[global_allocator]` for
    /// `on` to measure anything).
    pub mem: bool,
    /// `--ecc <on|off|k=N>` — eccentricity-certified GC bounds. Off by
    /// default so the tables reproduce the paper's blanket-bound Σ; `on`
    /// demonstrates (and CI cross-checks) the tightened bounds.
    pub ecc: EccOptions,
}

impl BenchCli {
    /// Installs the observability session for this run: captures a
    /// [`RunManifest`] (argv, build info, options) and hands it to
    /// [`Session::install`]. With `--obs off` (the default) the session
    /// records nothing and prints nothing — output stays byte-identical to
    /// an uninstrumented binary.
    pub fn session(&self, tool: &str) -> Session {
        // Crash forensics are always armed: a panic anywhere in the run
        // writes a `.diam/crash/<id>.json` dump (manifest, open spans,
        // flight-recorder tail, allocator state) whatever the `--obs` mode.
        diam_obs::crash::install_panic_hook();
        diam_obs::alloc::set_mem_enabled(self.mem);
        let mut manifest = RunManifest::capture(tool)
            .option("seed", self.seed.to_string())
            .option("jobs", self.jobs.to_string())
            .option("obs", self.obs.mode.to_string());
        if let Some(limit) = self.limit {
            manifest = manifest.option("limit", limit.to_string());
        }
        if self.mem {
            manifest = manifest.option("mem", "on".to_string());
        }
        if self.ecc.enabled {
            manifest = manifest.option("ecc", self.ecc.render());
        }
        Session::install(self.obs.clone(), manifest)
    }

    /// Finishes `session`; in `summary` / `json` modes prints the per-phase
    /// breakdown tree (and the trace file has already been written when
    /// `--trace-out` was given).
    pub fn finish(&self, session: Session) {
        let report = session.finish();
        if !self.obs.mode.is_off() {
            println!("\n{}", report.render_summary());
        }
    }

    /// Applies `--limit` to a generated suite.
    pub fn clamp<T>(&self, mut suite: Vec<T>) -> Vec<T> {
        if let Some(limit) = self.limit {
            suite.truncate(limit);
        }
        suite
    }
}

/// Shared CLI parsing for the table/ablation binaries: a positional seed
/// (default 1) plus `--jobs <N|seq|auto>` (per-target fan-out),
/// `--obs <off|summary|json|live|live-json>`, `--trace-out <path.jsonl>`,
/// `--live-out <path.jsonl>` (machine-readable live stream; implies
/// `--obs live` when no mode was chosen), `--mem <on|off>` (allocation
/// accounting), and `--limit <N>`. Unrecognized arguments abort with a
/// usage message.
pub fn parse_cli(usage: &str) -> BenchCli {
    let mut cli = BenchCli {
        seed: 1,
        jobs: Parallelism::Sequential,
        obs: ObsConfig::default(),
        limit: None,
        mem: false,
        ecc: EccOptions::default(),
    };
    let fail = |what: &str| -> ! {
        eprintln!("{what}\nusage: {usage}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // `--flag value` and `--flag=value` both work.
        let mut flag_value = |name: &str, short: Option<&str>| -> Option<String> {
            if arg == name || short.is_some_and(|s| arg == s) {
                return Some(
                    args.next()
                        .unwrap_or_else(|| fail(&format!("{name} expects a value"))),
                );
            }
            arg.strip_prefix(&format!("{name}=")).map(str::to_string)
        };
        if let Some(v) = flag_value("--jobs", Some("-j")) {
            cli.jobs =
                Parallelism::parse(&v).unwrap_or_else(|_| fail("--jobs expects <N|seq|auto>"));
        } else if let Some(v) = flag_value("--obs", None) {
            cli.obs.mode = ObsMode::parse(&v)
                .unwrap_or_else(|_| fail("--obs expects off|summary|json|live|live-json"));
        } else if let Some(v) = flag_value("--trace-out", None) {
            cli.obs.trace_out = Some(v.into());
        } else if let Some(v) = flag_value("--live-out", None) {
            cli.obs.live_out = Some(v.into());
        } else if let Some(v) = flag_value("--mem", None) {
            cli.mem = match v.as_str() {
                "on" => true,
                "off" => false,
                _ => fail("--mem expects on|off"),
            };
        } else if let Some(v) = flag_value("--ecc", None) {
            cli.ecc = EccOptions::parse(&v).unwrap_or_else(|_| fail("--ecc expects on|off|k=<N>"));
        } else if let Some(v) = flag_value("--limit", None) {
            cli.limit = Some(
                v.parse()
                    .unwrap_or_else(|_| fail("--limit expects a design count")),
            );
        } else if let Ok(s) = arg.parse() {
            cli.seed = s;
        } else {
            fail(&format!("unrecognized argument `{arg}`"));
        }
    }
    cli.obs.promote_mode_from_outputs();
    cli
}

/// One table column for one design.
#[derive(Debug, Clone)]
pub struct ColumnResult {
    /// Register class counts over the (transformed) netlist.
    pub counts: ClassCounts,
    /// Targets with a back-translated bound `< 50`.
    pub useful: usize,
    /// Average back-translated bound over those targets.
    pub avg: f64,
    /// Wall-clock seconds spent on transformation + bounding.
    pub seconds: f64,
}

/// One design row: the three columns of the paper's tables.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The design's profile (paper ground truth included).
    pub profile: DesignProfile,
    /// `[Original, COM, COM+RET+COM]`.
    pub columns: [ColumnResult; 3],
}

/// Runs the three columns on one design.
pub fn run_design(profile: &DesignProfile, netlist: &Netlist) -> DesignResult {
    run_design_with(profile, netlist, diam_par::Parallelism::Sequential)
}

/// [`run_design`] with an explicit parallelism setting for the per-target
/// bounding fan-out. Results are bit-identical across settings.
pub fn run_design_with(
    profile: &DesignProfile,
    netlist: &Netlist,
    par: diam_par::Parallelism,
) -> DesignResult {
    run_design_opts(profile, netlist, par, &EccOptions::default())
}

/// [`run_design_with`] with eccentricity-engine options (`--ecc` on the
/// table binaries). The default-off variants reproduce the paper's blanket
/// bounds.
pub fn run_design_opts(
    profile: &DesignProfile,
    netlist: &Netlist,
    par: diam_par::Parallelism,
    ecc: &EccOptions,
) -> DesignResult {
    let mut design_sp = diam_obs::span!(
        "suite.design",
        design = profile.name,
        targets = profile.targets
    );
    let pipelines = [Pipeline::new(), Pipeline::com(), Pipeline::com_ret_com()];
    let names = ["original", "com", "com_ret_com"];
    let opts = StructuralOptions {
        parallelism: par,
        ecc: *ecc,
        ..StructuralOptions::default()
    };
    let mut k = 0usize;
    let columns = pipelines.map(|pipe| {
        let mut col_sp = diam_obs::span!("suite.column", column = names[k]);
        k += 1;
        let start = Instant::now();
        let result = pipe.run(netlist);
        let regs: Vec<_> = result.netlist.regs().to_vec();
        let counts = classify(&result.netlist, &regs, &ClassifyOptions::default()).counts();
        let bounds = result.bound_targets(&opts);
        let useful: Vec<u64> = bounds
            .iter()
            .filter_map(|b| match b.original {
                Bound::Finite(v) if v < USEFUL_THRESHOLD => Some(v),
                _ => None,
            })
            .collect();
        let avg = if useful.is_empty() {
            0.0
        } else {
            useful.iter().sum::<u64>() as f64 / useful.len() as f64
        };
        if diam_obs::enabled() {
            col_sp.record("useful", useful.len() as u64);
            col_sp.record("regs", regs.len() as u64);
        }
        drop(col_sp);
        ColumnResult {
            counts,
            useful: useful.len(),
            avg,
            seconds: start.elapsed().as_secs_f64(),
        }
    });
    if diam_obs::enabled() {
        let useful: usize = columns.iter().map(|c| c.useful).sum();
        design_sp.record("useful_total", useful as u64);
    }
    DesignResult {
        profile: profile.clone(),
        columns,
    }
}

/// Accumulated Σ row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigma {
    /// Summed class counts per column.
    pub counts: [ClassCountsSum; 3],
    /// Summed useful-target counts per column.
    pub useful: [usize; 3],
    /// Total targets.
    pub targets: usize,
}

/// Plain-integer class count sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassCountsSum {
    /// Constant registers.
    pub constant: usize,
    /// Acyclic registers.
    pub acyclic: usize,
    /// Table cells.
    pub table: usize,
    /// General registers.
    pub general: usize,
}

impl Sigma {
    /// Adds a design row.
    pub fn add(&mut self, r: &DesignResult) {
        for (k, c) in r.columns.iter().enumerate() {
            self.counts[k].constant += c.counts.constant;
            self.counts[k].acyclic += c.counts.acyclic;
            self.counts[k].table += c.counts.table;
            self.counts[k].general += c.counts.general;
            self.useful[k] += c.useful;
        }
        self.targets += r.profile.targets;
    }
}

/// Formats a design row like the paper's tables.
pub fn format_row(r: &DesignResult) -> String {
    let col = |c: &ColumnResult| {
        format!(
            "{:>4};{:>5};{:>5};{:>5} | {:>4}/{:>4}; {:>6.1}",
            c.counts.constant,
            c.counts.acyclic,
            c.counts.table,
            c.counts.general,
            c.useful,
            r.profile.targets,
            c.avg
        )
    };
    format!(
        "{:<10} || {} || {} || {}",
        r.profile.name,
        col(&r.columns[0]),
        col(&r.columns[1]),
        col(&r.columns[2])
    )
}

/// Prints the table header matching [`format_row`].
pub fn header() -> String {
    let col = |name: &str| format!("{name:<14} CC;   AC;MC+QC;   GC | |T'|/ |T|; avg d̂");
    format!(
        "{:<10} || {} || {} || {}",
        "Design",
        col("ORIGINAL"),
        col("COM"),
        col("COM,RET,COM")
    )
}

/// Runs a whole suite, printing rows as they complete; returns the Σ.
pub fn run_suite(suite: &[(DesignProfile, Netlist)], print: bool) -> Sigma {
    run_suite_with(suite, print, diam_par::Parallelism::Sequential)
}

/// [`run_suite`] with an explicit parallelism setting (see `--jobs` on the
/// `table1` / `table2` binaries).
pub fn run_suite_with(
    suite: &[(DesignProfile, Netlist)],
    print: bool,
    par: diam_par::Parallelism,
) -> Sigma {
    run_suite_opts(suite, print, par, &EccOptions::default())
}

/// [`run_suite_with`] with eccentricity-engine options.
pub fn run_suite_opts(
    suite: &[(DesignProfile, Netlist)],
    print: bool,
    par: diam_par::Parallelism,
    ecc: &EccOptions,
) -> Sigma {
    if print {
        println!("{}", header());
    }
    let mut sigma = Sigma::default();
    for (profile, netlist) in suite {
        let r = run_design_opts(profile, netlist, par, ecc);
        if print {
            println!("{}", format_row(&r));
        }
        sigma.add(&r);
    }
    sigma
}

/// Formats the Σ row plus the paper's Σ for comparison.
pub fn format_sigma(
    sigma: &Sigma,
    paper: (usize, usize, usize, usize, usize, usize, usize, usize),
) -> String {
    let (pcc, pac, pmc, pgc, p0, p1, p2, pt) = paper;
    let mut s = String::new();
    s.push_str(&format!(
        "Σ measured || {:>4};{:>5};{:>5};{:>5} | {:>4}/{:>4} || -;-;-;- | {:>4}/{:>4} || -;-;-;- | {:>4}/{:>4}\n",
        sigma.counts[0].constant,
        sigma.counts[0].acyclic,
        sigma.counts[0].table,
        sigma.counts[0].general,
        sigma.useful[0],
        sigma.targets,
        sigma.useful[1],
        sigma.targets,
        sigma.useful[2],
        sigma.targets,
    ));
    s.push_str(&format!(
        "Σ paper    || {pcc:>4};{pac:>5};{pmc:>5};{pgc:>5} | {p0:>4}/{pt:>4} || {p1:>4}/{pt:>4} || {p2:>4}/{pt:>4}\n"
    ));
    s.push_str(&format!(
        "useful-target fractions measured: {:.0}% -> {:.0}% -> {:.0}%   (paper: {:.0}% -> {:.0}% -> {:.0}%)",
        100.0 * sigma.useful[0] as f64 / sigma.targets as f64,
        100.0 * sigma.useful[1] as f64 / sigma.targets as f64,
        100.0 * sigma.useful[2] as f64 / sigma.targets as f64,
        100.0 * p0 as f64 / pt as f64,
        100.0 * p1 as f64 / pt as f64,
        100.0 * p2 as f64 / pt as f64,
    ));
    s
}
