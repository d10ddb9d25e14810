//! `diam-perfbench` — the time-to-verdict benchmark.
//!
//! ```text
//! diam-perfbench --workload <iscas-suite|gp-suite|proof-mix|all>
//!                [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload from the seed (in a child process), then repeats
//! cold parse + `strategy::solve_all` for `S` seconds and checks every
//! verdict. Human-readable lines go first; the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! separate traced repetition (whose JSONL trace lands in `perfbench/out/`).
//! `all` runs each workload in turn, each in a process of its own, so every
//! workload's peak memory and allocator state are its own.

use diam_perfbench::run::{self, Outcome};
use diam_perfbench::workload::{self, Workload};
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};

struct Args {
    /// `None` (`--workload all`) runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = if v == "all" {
                    None
                } else {
                    Some(Workload::parse(v)?)
                };
                workload = Some(v);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Writes the generated workload to standard output (the child side of
/// `run::generate_in_child`).
fn emit(args: &[String]) -> Result<(), String> {
    let [name, seed] = args else {
        return Err("usage: --emit <workload> <seed>".to_string());
    };
    let w = Workload::parse(name)?;
    let seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let bytes = workload::encode(&workload::generate(w, seed));
    std::io::stdout()
        .lock()
        .write_all(&bytes)
        .map_err(|e| e.to_string())
}

fn report(w: Workload, seed: u64, o: &Outcome) {
    let name = w.name();
    println!(
        "{name}: seed {seed}, fingerprint {:016x}, {} designs, {} targets",
        o.fingerprint,
        o.design_fingerprints.len(),
        o.targets
    );
    let fps: Vec<String> = o
        .design_fingerprints
        .iter()
        .map(|(d, fp)| format!("{d}={fp:016x}"))
        .collect();
    println!("{name}: design fingerprints {}", fps.join(" "));
    let m = &o.measured;
    println!(
        "{name}: setup_s {:.6} s (median of {} parses)",
        o.setup_s(),
        m.setup.len()
    );
    println!(
        "{name}: verdict_s {:.6} s (median of {} repetitions)",
        o.verdict_s(),
        m.verdict.len()
    );
    let samples: Vec<String> = m.verdict.iter().map(|x| format!("{x:.4}")).collect();
    println!("{name}: verdict_s samples {}", samples.join(" "));
    println!("{name}: peak_rss_mb {:.1} MB", o.measured.peak_rss_mb);
    println!(
        "{name}: decided_frac {:.6} ({} of {} targets)",
        o.decided_frac(),
        o.audit.decided,
        o.targets
    );
    let tally: Vec<String> = o.tally.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!("{name}: verdicts {}", tally.join(", "));
    println!(
        "{name}: checks: {} wrong verdicts, {} non-replaying witnesses, {} unexpected open, \
         {} targets explored exactly ({} disagreements), repetitions {}",
        o.audit.wrong,
        o.audit.non_replaying,
        o.audit.unexpected_open,
        o.explored.0,
        o.explored.1,
        if m.repeatable { "identical" } else { "DIFFER" },
    );
    if let Some(eq) = o.shadow_equal {
        println!(
            "{name}: traced verdicts {}",
            if eq {
                "equal solve_all's"
            } else {
                "DIFFER from solve_all's"
            }
        );
    }
    if let Some(layers) = &o.layers {
        for (metric, value, unit) in layers {
            println!("{name}: {metric} {value} {unit}");
        }
    }
}

fn metric(out: &mut Vec<String>, key: &str, value: f64, unit: &str) {
    out.push(format!(
        "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit") {
        return match emit(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("diam-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diam-perfbench: {e}");
            eprintln!("usage: diam-perfbench --workload <iscas-suite|gp-suite|proof-mix|all> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_each_workload(&argv);
    };
    let o = match run::run(
        w,
        args.seed,
        args.seconds,
        args.trace,
        Path::new("perfbench/out"),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diam-perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    report(w, args.seed, &o);
    let reps = o.measured.verdict.len();
    let mut metrics = Vec::new();
    match &o.layers {
        Some(layers) => {
            for (m, value, unit) in layers {
                metric(&mut metrics, m, *value, unit);
            }
        }
        None => {
            metric(&mut metrics, "setup_s", o.setup_s(), "s");
            metric(&mut metrics, "verdict_s", o.verdict_s(), "s");
            metric(&mut metrics, "peak_rss_mb", o.measured.peak_rss_mb, "MB");
            metric(&mut metrics, "decided_frac", o.decided_frac(), "ratio");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.targets * reps,
        o.audit.failed() * reps,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// `--workload all`: re-runs this executable once per workload with the
/// same arguments, each printing its own report and JSON line.
fn run_each_workload(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("diam-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for w in Workload::ALL {
        let args = argv
            .iter()
            .map(|a| if a == "all" { w.name() } else { a.as_str() });
        match Command::new(&exe).args(args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("diam-perfbench: {}: {status}", w.name());
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("diam-perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
