//! `solve_all` output identity against a golden fixture.
//!
//! One line per target: design, target index, verdict (`Proved/<engine>`,
//! `Failed/<engine>` or `Open`), hit depth, Open bound and an FNV-1a hash of
//! the witness bits. The fixture pins the portfolio's engine order: moving
//! an engine, or building the shared sweep / pipeline / bounds at another
//! point, must not change a single line.
//!
//! It covers every iscas and gp suite design at generator seed 101, where
//! random simulation closes every target, and hand-built archetype designs
//! that mix random-hittable targets with targets only the later engines
//! decide (COM, diameter-complete BMC, symbolic reachability, k-induction)
//! or leave Open. Those partial-hit designs run under the default options
//! and under a narrow portfolio (no sweep refinement, no pipeline, tiny
//! depth cap, no symbolic engine) that hands the leftovers to induction.
//!
//! Suite-sized, so it only runs optimized:
//!
//! ```text
//! cargo test -p diam-bmc --release --test solve_identity
//! ```

use diam_bmc::strategy::{solve_all, StrategyOptions, TargetStatus};
use diam_core::Pipeline;
use diam_gen::archetypes::{
    counter, duplicate_counter, johnson_counter, pipeline, pipeline_from, token_ring,
};
use diam_netlist::sim::{SplitMix64, Witness};
use diam_netlist::{Gate, Init, Lit, Netlist};
use diam_transform::com::SweepOptions;

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

fn status_line(s: &TargetStatus) -> String {
    match s {
        TargetStatus::Proved { by } => format!("Proved/{by:?} - - -"),
        TargetStatus::Failed { depth, witness, by } => {
            format!("Failed/{by:?} {depth} - {}", witness_hash(witness))
        }
        TargetStatus::Open { bound: Some(b) } => format!("Open - {b} -"),
        TargetStatus::Open { bound: None } => "Open - exp -".to_string(),
    }
}

/// A fresh input delayed by `depth` registers.
fn delayed_input(n: &mut Netlist, name: &str, depth: usize) -> Lit {
    let input = n.input(format!("{name}_in")).lit();
    pipeline_from(n, &format!("{name}_p"), input, depth)
        .last()
        .map_or(input, |r| r.lit())
}

/// A Johnson pattern no reachable state shows: both ends high with a low
/// stage between them.
fn invalid_johnson(n: &mut Netlist, regs: &[Gate]) -> Lit {
    let ends = n.and(regs[0].lit(), regs[regs.len() - 1].lit());
    n.and(ends, !regs[regs.len() / 2].lit())
}

/// Shallow hits and proof obligations side by side: random simulation
/// closes the pipeline and low-counter targets, the rest reach COM,
/// complete BMC (a proof and a counterexample past the simulation horizon),
/// symbolic reachability, or stay Open.
fn partial_hits() -> Netlist {
    let mut n = Netlist::new();
    let shallow = pipeline(&mut n, "pipe", 3);
    n.add_target(shallow.tail, "pipe_tail");

    let step = delayed_input(&mut n, "ring", 2);
    let ring = token_ring(&mut n, "ring", 6, step);
    let two = n.and(ring[1].lit(), ring[4].lit());
    n.add_target(two, "ring_two_tokens");

    let en = delayed_input(&mut n, "dup", 1);
    let (c0, c1) = duplicate_counter(&mut n, "dup", 5, en);
    let differ = n.xor(c0.bits[2], c1.bits[2]);
    n.add_target(differ, "dup_disagree");
    let low = n.and(c0.bits[0], c0.bits[1]);
    n.add_target(low, "dup_low_three");

    let en = delayed_input(&mut n, "wrap", 2);
    let wrap = counter(&mut n, "wrap", 7, en);
    n.add_target(wrap.all_ones, "wrap_all_ones");

    let step = delayed_input(&mut n, "wide", 1);
    let wide = johnson_counter(&mut n, "wide", 18, step);
    let bad = invalid_johnson(&mut n, &wide);
    n.add_target(bad, "wide_invalid");
    n.add_target(wide[0].lit(), "wide_first_stage");

    let step = delayed_input(&mut n, "big", 1);
    let big = token_ring(&mut n, "big", 42, step);
    let two = n.and(big[3].lit(), big[17].lit());
    n.add_target(two, "big_two_tokens");
    n
}

/// Lock-step registers next to an easy hit: COM proves the disagreement
/// unreachable; without sweep refinement, induction does.
fn lockstep() -> Netlist {
    let mut n = Netlist::new();
    let i = n.input("i").lit();
    let e = n.input("e").lit();
    let r = n.reg("easy", Init::Zero);
    n.set_next(r, i);
    n.add_target(r.lit(), "easy_hit");
    let a = n.reg("a", Init::Zero);
    let b = n.reg("b", Init::Zero);
    let na = n.and(i, e);
    let nb = n.mux(e, i, Lit::FALSE);
    n.set_next(a, na);
    n.set_next(b, nb);
    let differ = n.xor(a.lit(), b.lit());
    n.add_target(differ, "lockstep");
    let both = n.and(r.lit(), a.lit());
    n.add_target(both, "easy_and_a");
    n
}

/// A stirred 24-register ring whose all-ones state needs 24 steps of
/// stirring: beyond random simulation's odds, exponential to bound, found
/// by symbolic reachability; one ring bit is an easy hit beside it.
fn stirred_ring() -> Netlist {
    let mut n = Netlist::new();
    let mut rng = SplitMix64::new(9);
    let stir = n.input("stir");
    let regs: Vec<Gate> = (0..24)
        .map(|k| n.reg(format!("r{k}"), Init::Zero))
        .collect();
    for k in 0..24 {
        let prev = regs[(k + 23) % 24].lit();
        let nx = if k == 0 {
            n.xor(prev, stir.lit())
        } else if rng.below(4) == 0 {
            n.xor(prev, regs[(k + 12) % 24].lit())
        } else {
            prev
        };
        n.set_next(regs[k], nx);
    }
    let lits: Vec<Lit> = regs.iter().map(|r| r.lit()).collect();
    let all = n.and_many(lits);
    n.add_target(all, "all_ones");
    n.add_target(regs[5].lit(), "bit5");
    n
}

/// A portfolio that hands every leftover target to induction: no sweep
/// refinement, no transformation pipeline, complete BMC only for bounds up
/// to 1, no symbolic engine.
fn narrow() -> StrategyOptions {
    StrategyOptions {
        sweep: SweepOptions {
            max_refinements: 0,
            ..SweepOptions::default()
        },
        pipeline: Pipeline::new(),
        depth_cap: 1,
        symbolic_reg_cap: 0,
        ..StrategyOptions::default()
    }
}

fn identity_lines() -> String {
    let mut out = String::new();
    let mut push = |design: &str, n: &Netlist, opts: &StrategyOptions| {
        for (i, s) in solve_all(n, opts).iter().enumerate() {
            out.push_str(&format!("{design} {i} {}\n", status_line(s)));
        }
    };
    for (suite, designs) in [
        ("iscas", diam_gen::iscas::suite(101)),
        ("gp", diam_gen::gp::suite(101)),
    ] {
        for (p, n) in designs {
            push(
                &format!("{suite}/{}", p.name),
                &n,
                &StrategyOptions::default(),
            );
        }
    }
    for (name, n) in [
        ("partial_hits", partial_hits()),
        ("lockstep", lockstep()),
        ("stirred_ring", stirred_ring()),
    ] {
        push(&format!("{name}/default"), &n, &StrategyOptions::default());
        push(&format!("{name}/narrow"), &n, &narrow());
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suites; run with --release")]
fn solve_all_matches_the_golden_fixture() {
    let golden = include_str!("fixtures/solve_identity.txt");
    let actual = identity_lines();
    for (k, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "line count differs from the fixture"
    );
}
