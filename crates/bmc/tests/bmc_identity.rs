//! BMC output identity against golden fixtures.
//!
//! Every BMC entry point — `check`, `check_all`, `check_all_transformed`,
//! `prove`, `prove_all`, `k_induction` and `k_induction_with_invariants` —
//! runs through one depth loop. This test pins what each of them returns,
//! per target: the outcome kind, its depth (or bound / induction depth) and
//! an FNV-1a hash of the witness bits. Any change to the order of encode,
//! solve and inprocess calls that alters a single witness bit shows up here.
//!
//! The debug tier covers the 24 seeded multi-target designs of
//! `tests/parallel.rs` and 8 deeper ones. The suite tier runs `prove_all` with the `diam`
//! CLI's options on every iscas and gp suite target at generator seed 101,
//! and only runs optimized:
//!
//! ```text
//! cargo test -p diam-bmc --release --test bmc_identity
//! ```

use diam_bmc::{
    check, check_all, check_all_transformed, k_induction, k_induction_with_invariants, prove,
    prove_all, BmcOptions, BmcOutcome, InductionOutcome, ProveOptions, ProveOutcome,
};
use diam_core::{EccOptions, Pipeline, StructuralOptions};
use diam_gen::random::{random_netlist, RandomDesignOptions};
use diam_netlist::sim::Witness;
use diam_netlist::Netlist;
use diam_par::Parallelism;
use diam_transform::com::{sweep, SweepOptions};

/// FNV-1a over the witness bits: input rows in time order, then the
/// nondeterministic initial values.
fn witness_hash(w: &Witness) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bit in w.inputs.iter().flatten().chain(&w.nondet_init) {
        h ^= u64::from(*bit);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn bmc_line(o: &BmcOutcome) -> String {
    match o {
        BmcOutcome::Counterexample { depth, witness } => {
            format!("cex {depth} {}", witness_hash(witness))
        }
        BmcOutcome::NoHitUpTo(d) => format!("clean {d} -"),
        BmcOutcome::Unknown { depth } => format!("unknown {depth} -"),
    }
}

fn prove_line(o: &ProveOutcome) -> String {
    match o {
        ProveOutcome::Counterexample { depth, witness } => {
            format!("cex {depth} {}", witness_hash(witness))
        }
        ProveOutcome::Proved { bound } => format!("proved {bound} -"),
        ProveOutcome::BoundTooLarge { bound: Some(b) } => format!("too_large {b} -"),
        ProveOutcome::BoundTooLarge { bound: None } => "too_large exp -".to_string(),
        ProveOutcome::Unknown => "unknown - -".to_string(),
    }
}

fn induction_line(o: &InductionOutcome) -> String {
    match o {
        InductionOutcome::Proved { k } => format!("proved {k} -"),
        InductionOutcome::Counterexample { depth, witness } => {
            format!("cex {depth} {}", witness_hash(witness))
        }
        InductionOutcome::Unknown => "unknown - -".to_string(),
    }
}

/// The 24 seeded multi-target designs of `tests/parallel.rs`, plus 8
/// deeper single-input designs whose targets are more often unreachable.
fn designs() -> Vec<Netlist> {
    let opts = RandomDesignOptions {
        inputs: 3,
        regs: 5,
        gates: 14,
        targets: 4,
        allow_nondet: true,
    };
    let deep = RandomDesignOptions {
        inputs: 1,
        regs: 8,
        gates: 24,
        targets: 4,
        allow_nondet: false,
    };
    (0..24u64)
        .map(|seed| random_netlist(&opts, 0xD1A0 + seed))
        .chain((0..8u64).map(|seed| random_netlist(&deep, 0xBEE0 + seed)))
        .collect()
}

/// Compares `actual` with `golden` line by line.
fn assert_matches(golden: &str, actual: &str) {
    for (k, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "line count differs from the fixture"
    );
}

/// One fixture line per (entry point, design, target).
fn seeded_lines() -> String {
    let bmc = BmcOptions {
        max_depth: 12,
        ..Default::default()
    };
    let prove_opts = ProveOptions {
        depth_cap: 64,
        ..Default::default()
    };
    let pipeline = Pipeline::com_ret_com();
    let mut out = String::new();
    let mut push = |api: &str, d: usize, i: usize, line: String| {
        out.push_str(&format!("{api} {d} {i} {line}\n"));
    };
    for (d, n) in designs().iter().enumerate() {
        let targets = 0..n.targets().len();
        for i in targets.clone() {
            push("check", d, i, bmc_line(&check(n, i, &bmc)));
        }
        // Every parallelism setting must return the same vector.
        let all = check_all(
            n,
            &BmcOptions {
                parallelism: Parallelism::Threads(2),
                ..bmc.clone()
            },
        );
        for par in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let got = check_all(
                n,
                &BmcOptions {
                    parallelism: par,
                    ..bmc.clone()
                },
            );
            assert_eq!(all, got, "design {d}: check_all at {par}");
        }
        for (i, o) in all.iter().enumerate() {
            push("check_all", d, i, bmc_line(o));
        }
        for (i, o) in check_all_transformed(n, &pipeline, &bmc).iter().enumerate() {
            push("check_all_transformed", d, i, bmc_line(o));
        }
        for i in targets.clone() {
            push(
                "prove",
                d,
                i,
                prove_line(&prove(n, i, &pipeline, &prove_opts)),
            );
        }
        for (i, o) in prove_all(n, &pipeline, &prove_opts).iter().enumerate() {
            push("prove_all", d, i, prove_line(o));
        }
        let proven = sweep(n, &SweepOptions::default()).proven;
        for i in targets {
            push("k_induction", d, i, induction_line(&k_induction(n, i, 3)));
            push(
                "k_induction_with_invariants",
                d,
                i,
                induction_line(&k_induction_with_invariants(n, i, 3, &proven)),
            );
        }
    }
    out
}

#[test]
fn seeded_designs_match_the_golden_fixture() {
    assert_matches(include_str!("fixtures/bmc_identity.txt"), &seeded_lines());
}

/// `prove_all` with the `diam prove` defaults: pipeline `com-ret-com`,
/// depth cap 10000, eccentricity engine on.
fn suite_lines() -> String {
    let opts = ProveOptions {
        depth_cap: 10_000,
        structural: StructuralOptions {
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        },
        ..Default::default()
    };
    let pipeline = Pipeline::com_ret_com();
    let mut out = String::new();
    for (suite, designs) in [
        ("iscas", diam_gen::iscas::suite(101)),
        ("gp", diam_gen::gp::suite(101)),
    ] {
        for (p, n) in designs {
            for (i, o) in prove_all(&n, &pipeline, &opts).iter().enumerate() {
                out.push_str(&format!("{suite} {} {i} {}\n", p.name, prove_line(o)));
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suites; run with --release")]
fn suite_prove_all_matches_the_golden_fixture() {
    assert_matches(
        include_str!("fixtures/bmc_identity_suites.txt"),
        &suite_lines(),
    );
}
