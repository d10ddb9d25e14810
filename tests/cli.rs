//! Smoke tests for the `diam` command-line tool, driven through the real
//! binary (`CARGO_BIN_EXE_diam`).

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn fixture(dir: &std::path::Path, name: &str, text: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("fixture");
    f.write_all(text.as_bytes()).expect("fixture");
    path
}

/// A 2-register lockstep design: one failing target, one provable.
const LOCKSTEP: &str = "aag 7 2 2 2 3\n2\n4\n6 14 0\n8 12 0\n6\n8\n10 2 4\n12 10 0\n14 4 4\ni0 a\ni1 b\nl0 r\nl1 s\no0 t_r\no1 t_s\n";

fn run(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
        out.status.success(),
    )
}

#[test]
fn stats_reports_classes() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_stats.aag", LOCKSTEP);
    let (out, ok) = run(&["stats", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("registers 2"), "{out}");
    assert!(out.contains("CC;AC;MC+QC;GC"), "{out}");
}

#[test]
fn bound_lists_targets() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_bound.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("t_r"), "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
}

#[test]
fn prove_separates_failing_and_proved() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_prove.aag", LOCKSTEP);
    let (out, ok) = run(&["prove", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("FAILS      t_r"), "{out}");
    assert!(out.contains("PROVED     t_s"), "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

#[test]
fn solve_credits_engines() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_solve.aag", LOCKSTEP);
    let (out, ok) = run(&["solve", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

#[test]
fn sweep_writes_reduced_aiger() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_sweep.aag", LOCKSTEP);
    let out_path = dir.join("diam_cli_sweep_out.aag");
    let (out, ok) = run(&["sweep", f.to_str().unwrap(), out_path.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("2 -> 1 registers"), "{out}");
    let written = std::fs::read_to_string(&out_path).expect("output written");
    assert!(written.starts_with("aag "), "{written}");
}

#[test]
fn custom_pipeline_spec_is_accepted() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_pipe.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "coi,enl:1,com", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("_enl1"), "{out}");
}

/// Regression: the whole-spec `com` alias must mean the canned COI+COM
/// pipeline (as the usage text promises), not the bare sweep engine — the
/// parser used to silently drop the COI step on this path.
#[test]
fn pipeline_com_alias_is_the_canned_pipeline() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_com_alias.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "com", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("pipeline com"), "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
    // The canned alias and its expansion agree bound-for-bound.
    let (expanded, ok) = run(&["bound", "--pipeline", "coi,com", f.to_str().unwrap()]);
    assert!(ok, "{expanded}");
    let tail = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
    assert_eq!(tail(&out), tail(&expanded));
}

/// Fixpoint groups parse end-to-end through the CLI.
#[test]
fn star_pipeline_spec_is_accepted() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_star.aag", LOCKSTEP);
    let (out, ok) = run(&["bound", "--pipeline", "coi,com*", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("2/2 targets below the threshold"), "{out}");
    let (out, ok) = run(&["solve", "--pipeline", "(com,ret)*:2", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

/// `solve` has no cube layer: `--cube repro|fast` is an error that points
/// to `prove`, not a flag silently ignored; `--cube off` stays accepted.
#[test]
fn solve_rejects_cube_modes_but_accepts_off() {
    let dir = std::env::temp_dir();
    let f = fixture(&dir, "diam_cli_solve_cube.aag", LOCKSTEP);
    for mode in ["repro", "fast"] {
        let (out, ok) = run(&["solve", "--cube", mode, f.to_str().unwrap()]);
        assert!(!ok, "--cube {mode}: {out}");
        assert!(out.contains("error: --cube"), "{out}");
        assert!(out.contains("diam prove"), "{out}");
    }
    let (out, ok) = run(&["solve", "--cube", "off", f.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("1 proved, 1 failed, 0 open"), "{out}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (_, ok) = run(&["frobnicate"]);
    assert!(!ok);
    let (out, ok) = run(&["bound", "--pipeline", "bogus", "/nonexistent.aag"]);
    assert!(!ok);
    assert!(out.contains("error"), "{out}");
    let (_, ok) = run(&["bound", "/nonexistent.aag"]);
    assert!(!ok);
}

/// Writes the generated suite design `name` (generator seed 101) to a temp
/// `.aag` file. Several tests share a design, so the file is written under a
/// per-thread name and renamed into place: a reader never sees it half
/// written.
fn suite_design(profiles: Vec<diam::gen::profile::DesignProfile>, name: &str) -> PathBuf {
    let profile = profiles
        .into_iter()
        .find(|p| p.name == name)
        .expect("suite design");
    let n = diam::gen::profile::build(&profile, 101);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("diam_cli_suite_{name}.aag"));
    let tmp = dir.join(format!(
        "diam_cli_suite_{name}.{}.{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    let f = std::fs::File::create(&tmp).expect("fixture");
    diam::netlist::aiger::write_ascii(&n, f).expect("fixture");
    std::fs::rename(&tmp, &path).expect("fixture");
    path
}

/// The full `diam solve` stdout of one iscas and one gp suite design, byte
/// for byte. The goldens were captured with the per-target random search
/// that preceded the shared simulation, so they pin every verdict, depth and
/// engine credit across that change.
#[test]
fn solve_output_matches_golden_on_suite_designs() {
    for (path, golden) in [
        (
            suite_design(diam::gen::iscas::profiles(), "S953"),
            include_str!("fixtures/solve_s953.txt"),
        ),
        (
            suite_design(diam::gen::gp::profiles(), "W_SFA"),
            include_str!("fixtures/solve_w_sfa.txt"),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(["solve", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "{}",
            path.display()
        );
    }
}

/// The full `diam prove` stdout of two iscas and one gp suite design, byte
/// for byte. The goldens were captured when `diam prove` still ran one
/// `prove` (and one bounding pass) per target; the CLI now bounds once
/// through `prove_all`, and every verdict and depth must stay the same.
#[test]
fn prove_output_matches_golden_on_suite_designs() {
    for (path, golden) in [
        (
            suite_design(diam::gen::iscas::profiles(), "S953"),
            include_str!("fixtures/prove_s953.txt"),
        ),
        (
            suite_design(diam::gen::iscas::profiles(), "PROLOG"),
            include_str!("fixtures/prove_prolog.txt"),
        ),
        (
            suite_design(diam::gen::gp::profiles(), "W_SFA"),
            include_str!("fixtures/prove_w_sfa.txt"),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_diam"))
            .args(["prove", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden,
            "{}",
            path.display()
        );
    }
}

/// A reader that stops after one line (`diam bound many.aag | head -1`)
/// ends the run quietly: exit status 0, no panic text, no crash dump.
#[test]
fn closed_stdout_exits_quietly() {
    let dir = std::env::temp_dir();
    let mut aag = String::from("aag 2 1 1 3000 0\n2\n4 2\n");
    for k in 0..3000 {
        aag.push_str(if k % 2 == 0 { "2\n" } else { "4\n" });
    }
    let f = fixture(&dir, "diam_cli_many_targets.aag", &aag);
    let crash_dir = dir.join(format!("diam_cli_epipe_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&crash_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(["bound", f.to_str().unwrap()])
        .env("DIAM_CRASH_DIR", &crash_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .expect("one line");
    assert!(first.contains("3000 targets"), "{first}");
    // Dropping the reader closed the pipe; the rest of the output (far more
    // than a pipe buffer) now fails to write.
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
    assert!(
        !crash_dir.exists(),
        "crash dump written to {}",
        crash_dir.display()
    );
}

#[test]
fn out_of_range_and_is_a_parse_error() {
    let dir = std::env::temp_dir();
    let f = fixture(
        &dir,
        "diam_cli_and_out_of_range.aag",
        "aag 1 0 0 0 1\n10 0 0\n",
    );
    let crash_dir = dir.join(format!("diam_cli_parse_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&crash_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_diam"))
        .args(["bound", f.to_str().unwrap()])
        .env("DIAM_CRASH_DIR", &crash_dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("and var out of range"), "{stderr}");
    assert!(
        !crash_dir.exists(),
        "crash dump written to {}",
        crash_dir.display()
    );
}
