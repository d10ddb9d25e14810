//! `diam` — command-line front end: read an AIGER netlist, compute
//! transformation-enhanced diameter bounds, and optionally discharge targets
//! with a complete bounded model check.
//!
//! ```text
//! USAGE:
//!   diam bound  [OPTIONS] <FILE.aag>     per-target diameter bounds
//!   diam prove  [OPTIONS] <FILE.aag>     bounds + complete BMC per target
//!   diam stats  <FILE.aag>               netlist + classification statistics
//!   diam sweep  <FILE.aag> <OUT.aag>     redundancy removal, write result
//!   diam retime <FILE.aag>               retime and report reductions
//!   diam solve  [OPTIONS] <FILE.aag>     full portfolio: random sim, COM,
//!                                        diameter-complete BMC, induction
//!
//! OPTIONS:
//!   --pipeline <P>   none | com | com-ret-com | a comma list of
//!                    coi, com, ret, fold[:c], enl[:k], param — each
//!                    optionally starred into a fixpoint group, e.g.
//!                    com* or (com,ret)*:2       (default com-ret-com)
//!   --threshold <N>  for `bound`: usefulness threshold (default 50)
//!   --depth-cap <N>  for `prove` and `solve`: refuse BMC when the bound
//!                    exceeds N (default 10000; 0 = no cap)
//!   --ecc <V>        on | off | k=<N>[,mf=<N>,ms=<N>] — eccentricity
//!                    engine: replace the blanket 2^|regs| factor of
//!                    general components with a certified state-graph
//!                    diameter, for components up to k registers (default
//!                    on, cutoff 16; mf caps free signals, ms the sweep
//!                    budget). Sound either way; `off` reproduces the
//!                    paper's blanket bounds
//!   --cube <M>       for `prove`: off | repro | fast — cube-and-conquer
//!                    splitting of deep BMC obligations (default off).
//!                    `repro` keeps output bit-identical at any worker
//!                    count; `fast` adds clause sharing + sibling
//!                    cancellation. `solve` accepts only `off`
//!   --portfolio <S>  nonzero seed: restart/phase jitter for the SAT
//!                    solvers behind `prove` and `sweep`; under `solve` it
//!                    reaches only the COM sweep (default 0 = off)
//!   --explain        for `bound`: print the dominant component chain of
//!                    every target that stays over the threshold
//!   --obs <M>        off | summary | json | live | live-json — structured
//!                    observability for this run (default off; see diam-obs)
//!   --trace-out <F>  write the JSONL trace to F (implies --obs json)
//!   --live-out <F>   stream machine-readable live progress JSONL to F
//!                    (implies --obs live)
//!   --mem <on|off>   allocator accounting: live/peak bytes, per-span
//!                    attribution, `mem.live_bytes` gauge (default off;
//!                    off costs one relaxed atomic load per allocation)
//! ```

use diam::bmc::{prove_all, CubeMode, CubeOptions, ProveOptions, ProveOutcome, DEFAULT_DEPTH_CAP};
use diam::core::classify::{classify, ClassifyOptions};
use diam::core::{EccOptions, Pipeline, StructuralOptions, USEFUL_THRESHOLD};
use diam::netlist::{aiger, Netlist};
use diam::transform::com::{sweep, SweepOptions};
use diam::transform::retime::retime;
use diam_obs::{ObsConfig, ObsMode, RunManifest, Session};
use std::io::{BufReader, Write};
use std::process::ExitCode;

/// Counting allocator so `--mem on` can attribute heap traffic to spans.
/// With accounting disabled (the default) each allocation pays only one
/// relaxed atomic load over the system allocator.
#[global_allocator]
static ALLOC: diam_obs::alloc::CountingAlloc = diam_obs::alloc::CountingAlloc::new();

/// Why a command stopped before finishing.
enum CliError {
    /// A reportable failure: printed as `error: …`, exit status 1.
    Msg(String),
    /// The reader closed stdout (`diam bound … | head -1`). Nobody wants
    /// the rest of the output, so the run ends quietly with exit status 0.
    BrokenPipe,
}

impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Msg(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> CliError {
        CliError::Msg(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::BrokenPipe,
            _ => CliError::Msg(format!("stdout: {e}")),
        }
    }
}

/// `println!` that returns a failed write to the caller as a [`CliError`]
/// instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)?
    };
}

struct Options {
    pipeline: Pipeline,
    pipeline_name: String,
    threshold: u64,
    depth_cap: u64,
    cube: CubeMode,
    portfolio: u64,
    explain: bool,
    ecc: EccOptions,
    obs: ObsConfig,
    mem: bool,
    files: Vec<String>,
}

impl Options {
    fn cube_options(&self) -> CubeOptions {
        CubeOptions {
            mode: self.cube,
            ..CubeOptions::default()
        }
    }

    fn structural(&self) -> StructuralOptions {
        StructuralOptions {
            ecc: self.ecc,
            ..StructuralOptions::default()
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut pipeline_name = Pipeline::DEFAULT_SPEC.to_string();
    let mut threshold = USEFUL_THRESHOLD;
    let mut depth_cap = DEFAULT_DEPTH_CAP;
    let mut cube = CubeMode::Off;
    let mut portfolio = 0u64;
    let mut explain = false;
    let mut ecc = EccOptions::on();
    let mut obs = ObsConfig::default();
    let mut mem = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--obs" => {
                obs.mode = ObsMode::parse(it.next().ok_or("--obs needs a value")?)?;
            }
            "--trace-out" => {
                obs.trace_out = Some(it.next().ok_or("--trace-out needs a value")?.into());
            }
            "--live-out" => {
                obs.live_out = Some(it.next().ok_or("--live-out needs a value")?.into());
            }
            "--pipeline" => {
                pipeline_name = it.next().ok_or("--pipeline needs a value")?.clone();
            }
            "--threshold" => {
                threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|_| "bad --threshold value")?;
            }
            "--depth-cap" => {
                depth_cap = it
                    .next()
                    .ok_or("--depth-cap needs a value")?
                    .parse()
                    .map_err(|_| "bad --depth-cap value")?;
            }
            "--cube" => {
                cube = CubeMode::parse(it.next().ok_or("--cube needs a value")?)?;
            }
            "--ecc" => {
                ecc = EccOptions::parse(it.next().ok_or("--ecc needs a value")?)?;
            }
            "--portfolio" => {
                portfolio = it
                    .next()
                    .ok_or("--portfolio needs a value")?
                    .parse()
                    .map_err(|_| "bad --portfolio value")?;
            }
            "--mem" => {
                mem = match it.next().ok_or("--mem needs a value")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--mem expects on|off, got {other}")),
                };
            }
            "--explain" => explain = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            file => files.push(file.to_string()),
        }
    }
    // `Pipeline::parse` owns the full grammar, including the canned
    // whole-spec aliases (`com`, `com-ret-com`).
    let pipeline = Pipeline::parse(&pipeline_name)?;
    obs.promote_mode_from_outputs();
    Ok(Options {
        pipeline,
        pipeline_name,
        threshold,
        depth_cap,
        cube,
        portfolio,
        explain,
        ecc,
        obs,
        mem,
        files,
    })
}

fn load(path: &str) -> Result<Netlist, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let n = aiger::read(BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    n.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(n)
}

fn cmd_bound(opts: &Options) -> Result<(), CliError> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    outln!(
        "{path}: {} inputs, {} registers, {} ANDs, {} targets; pipeline {}",
        n.num_inputs(),
        n.num_regs(),
        n.num_ands(),
        n.targets().len(),
        opts.pipeline_name
    );
    let bounds = opts.pipeline.bound_targets(&n, &opts.structural());
    let mut useful = 0;
    for b in &bounds {
        let mark = if b.original.is_useful(opts.threshold) {
            useful += 1;
            "useful"
        } else {
            "too large"
        };
        outln!(
            "  {:<32} d̂(transformed) = {:<10} d̂(original) = {:<10} [{mark}]",
            b.name,
            b.transformed.to_string(),
            b.original.to_string()
        );
    }
    outln!(
        "{useful}/{} targets below the threshold {}",
        bounds.len(),
        opts.threshold
    );
    if opts.explain {
        // Explain the dominant composition chain of every over-threshold
        // target, on the transformed netlist (where the bound was computed).
        let transformed = opts.pipeline.run(&n);
        for (i, b) in bounds.iter().enumerate() {
            if !b.original.is_useful(opts.threshold) {
                let t = transformed.netlist.targets()[i].lit;
                let e =
                    diam::core::structural::explain(&transformed.netlist, t, &opts.structural());
                outln!("\nwhy {} is unboundable:\n{e}", b.name);
            }
        }
    }
    Ok(())
}

fn cmd_prove(opts: &Options) -> Result<(), CliError> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    let prove_opts = ProveOptions {
        depth_cap: opts.depth_cap,
        cube: opts.cube_options(),
        portfolio: opts.portfolio,
        structural: opts.structural(),
        ..Default::default()
    };
    let mut proved = 0;
    let mut failed = 0;
    let mut open = 0;
    // One pipeline run and bounding pass for every target.
    let outcomes = prove_all(&n, &opts.pipeline, &prove_opts);
    for (target, outcome) in n.targets().iter().zip(outcomes) {
        let name = &target.name;
        match outcome {
            ProveOutcome::Proved { bound } => {
                proved += 1;
                outln!("  PROVED     {name} (complete BMC to depth {})", bound - 1);
            }
            ProveOutcome::Counterexample { depth, .. } => {
                failed += 1;
                outln!("  FAILS      {name} at time {depth}");
            }
            ProveOutcome::BoundTooLarge { bound } => {
                open += 1;
                match bound {
                    Some(b) => outln!("  OPEN       {name} (bound {b} over the cap)"),
                    None => outln!("  OPEN       {name} (bound exponential)"),
                }
            }
            ProveOutcome::Unknown => {
                open += 1;
                outln!("  OPEN       {name} (SAT budget exhausted)");
            }
        }
    }
    outln!("\n{proved} proved, {failed} failed, {open} open");
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), CliError> {
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    outln!("{path}:");
    outln!("{}", diam::netlist::stats::stats(&n));
    let regs: Vec<_> = n.regs().to_vec();
    let cl = classify(&n, &regs, &ClassifyOptions::default());
    let counts = cl.counts();
    outln!("register classes (whole netlist): CC;AC;MC+QC;GC = {counts}");
    outln!(
        "components: {} ({} memory clusters)",
        cl.cond.comps.len(),
        cl.clusters.len()
    );
    for (k, cluster) in cl.clusters.iter().enumerate() {
        outln!(
            "  memory {k}: {} cells in {} rows",
            cluster.comps.len(),
            cluster.rows
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), CliError> {
    let path = opts.files.first().ok_or("missing input file")?;
    let out_path = opts.files.get(1).ok_or("missing output file")?;
    let n = load(path)?;
    let result = sweep(
        &n,
        &SweepOptions {
            portfolio: opts.portfolio,
            ..SweepOptions::default()
        },
    );
    outln!(
        "{path}: {} -> {} registers, {} -> {} ANDs ({} merges, {} refinement rounds)",
        n.num_regs(),
        result.netlist.num_regs(),
        n.num_ands(),
        result.netlist.num_ands(),
        result.merges,
        result.refinements
    );
    let f = std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?;
    aiger::write_ascii(&result.netlist, f).map_err(|e| format!("{out_path}: {e}"))?;
    outln!("wrote {out_path}");
    Ok(())
}

fn cmd_retime(opts: &Options) -> Result<(), CliError> {
    let path = opts.files.first().ok_or("missing input file")?;
    let mut n = load(path)?;
    diam::netlist::rebuild::explicit_nondet_init(&mut n);
    let ret = retime(&n).map_err(|e| e.to_string())?;
    outln!(
        "{path}: {} -> {} registers; {} stump inputs created",
        ret.regs_before,
        ret.regs_after,
        ret.stump_inputs.len()
    );
    for t in n.targets() {
        outln!(
            "  target {:<28} lag {} (bounds back-translate as d̂ + {})",
            t.name,
            -(ret.lag[t.lit.gate().index()]),
            ret.skew(t.lit.gate())
        );
    }
    outln!(
        "(the retimed netlist uses functional initial values and therefore \
         cannot be written to AIGER; use the library API to analyze it)"
    );
    Ok(())
}

fn cmd_solve(opts: &Options) -> Result<(), CliError> {
    use diam::bmc::strategy::{solve_all, StrategyOptions, TargetStatus};
    // The portfolio has no cube layer; accepting the flag would ignore it.
    if opts.cube != CubeMode::Off {
        return Err(CliError::Msg(format!(
            "--cube {} has no effect on `diam solve`; cube-and-conquer runs under `diam prove`",
            opts.cube
        )));
    }
    let path = opts.files.first().ok_or("missing input file")?;
    let n = load(path)?;
    let strategy = StrategyOptions {
        pipeline: opts.pipeline.clone(),
        depth_cap: opts.depth_cap,
        sweep: diam::transform::com::SweepOptions {
            portfolio: opts.portfolio,
            ..Default::default()
        },
        structural: opts.structural(),
        ..Default::default()
    };
    let statuses = solve_all(&n, &strategy);
    let (mut proved, mut failed, mut open) = (0, 0, 0);
    for (t, status) in n.targets().iter().zip(&statuses) {
        match status {
            TargetStatus::Proved { by } => {
                proved += 1;
                outln!("  PROVED {:<32} by {by}", t.name);
            }
            TargetStatus::Failed { depth, by, .. } => {
                failed += 1;
                outln!("  FAILS  {:<32} at time {depth} (found by {by})", t.name);
            }
            TargetStatus::Open { bound } => {
                open += 1;
                match bound {
                    Some(b) => outln!("  OPEN   {:<32} (diameter bound {b})", t.name),
                    None => outln!("  OPEN   {:<32} (diameter bound exponential)", t.name),
                }
            }
        }
    }
    outln!("\n{proved} proved, {failed} failed, {open} open");
    Ok(())
}

/// Installs the observability session for one CLI invocation. With the
/// default `--obs off` this records nothing and prints nothing — output
/// stays byte-identical to an uninstrumented binary.
fn install_session(cmd: &str, opts: &Options) -> Session {
    // Crash forensics are always armed (zero output unless the process
    // panics); allocator accounting only when asked for.
    diam_obs::crash::install_panic_hook();
    diam_obs::alloc::set_mem_enabled(opts.mem);
    let mut manifest = RunManifest::capture(&format!("diam-{cmd}"))
        .option("pipeline", &opts.pipeline_name)
        .option("threshold", opts.threshold.to_string())
        .option("depth_cap", opts.depth_cap.to_string())
        .option("cube", format!("{:?}", opts.cube).to_lowercase())
        .option("ecc", opts.ecc.render())
        .option("portfolio", opts.portfolio.to_string())
        .option("obs", opts.obs.mode.to_string());
    if opts.mem {
        manifest = manifest.option("mem", "on".to_string());
    }
    if let Some(file) = opts.files.first() {
        manifest = manifest.input(file.clone());
    }
    Session::install(opts.obs.clone(), manifest)
}

/// Finishes the session: prints the summary tree in recording modes.
fn finish_session(opts: &Options, session: Session) -> Result<(), CliError> {
    let report = session.finish();
    if !opts.obs.mode.is_off() {
        outln!("\n{}", report.render_summary());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: diam <bound|prove|solve|stats|sweep|retime> [options] <file.aag> ...");
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let session = install_session(cmd, &opts);
    let result = match cmd.as_str() {
        "bound" => cmd_bound(&opts),
        "prove" => cmd_prove(&opts),
        "stats" => cmd_stats(&opts),
        "sweep" => cmd_sweep(&opts),
        "retime" => cmd_retime(&opts),
        "solve" => cmd_solve(&opts),
        other => Err(CliError::Msg(format!("unknown command {other}"))),
    };
    let finished = finish_session(&opts, session);
    match result.and(finished) {
        Ok(()) | Err(CliError::BrokenPipe) => ExitCode::SUCCESS,
        Err(CliError::Msg(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
