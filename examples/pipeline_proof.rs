//! Transformations turning useless diameter bounds into working proofs.
//!
//! The design: a transaction allocator whose issue signal crawls down a
//! 10-deep pipeline before enabling a wrap-around (mod-6) in-flight counter
//! and its structurally-different *shadow* copy.
//!
//! * `shadow_mismatch` — an (unreachable) equivalence-style target: plain
//!   structural bounding gives (1+10)·2^3·2^3-ish bounds, far past the
//!   useful threshold; **COM** (Theorem 1) proves the shadow equal to the
//!   main counter, the cone collapses, and BMC instantly completes a proof.
//! * `count_hits_5` — a *reachable* target: here the bound's job is to make
//!   the search **complete**. The untransformed bound `(1+10)·2^3 = 88`
//!   wildly overshoots; after **COM,RET,COM** (Theorem 2) the pipeline is
//!   absorbed into the retiming stump and the back-translated bound drops
//!   to `2^3 + 10 = 18` — and the depth-17 complete BMC finds the hit at
//!   its true depth of 15.
//!
//! Run with: `cargo run --release --example pipeline_proof`

use diam::bmc::{prove, ProveOptions, ProveOutcome};
use diam::core::{Pipeline, StructuralOptions, USEFUL_THRESHOLD};
use diam::netlist::{Gate, Init, Lit, Netlist};

fn build(depth: usize) -> Netlist {
    let mut n = Netlist::new();
    let issue = n.input("issue");

    // Deep issue pipeline.
    let mut en = issue.lit();
    for k in 0..depth {
        let r = n.reg(format!("issue_p{k}"), Init::Zero);
        n.set_next(r, en);
        en = r.lit();
    }

    // Mod-6 wrap-around counter, in two structural flavours.
    let wrap_counter = |n: &mut Netlist, tag: &str, en: Lit, mux_form: bool| -> Vec<Gate> {
        let bits: Vec<_> = (0..3)
            .map(|k| n.reg(format!("{tag}{k}"), Init::Zero))
            .collect();
        let at_five = {
            let hi = n.and(bits[2].lit(), !bits[1].lit());
            n.and(hi, bits[0].lit())
        };
        let clear = n.and(en, at_five);
        let en_inc = n.and(en, !at_five);
        let mut carry = en_inc;
        for b in &bits {
            let inc = if mux_form {
                n.mux(carry, !b.lit(), b.lit())
            } else {
                n.xor(b.lit(), carry)
            };
            carry = if mux_form {
                n.mux(carry, b.lit(), Lit::FALSE)
            } else {
                n.and(b.lit(), carry)
            };
            let nx = n.and(inc, !clear);
            n.set_next(*b, nx);
        }
        bits
    };
    let bits = wrap_counter(&mut n, "cnt", en, false);
    let shadow = wrap_counter(&mut n, "shd", en, true);

    // Target 0: main and shadow counters disagree (never — needs COM).
    let diffs: Vec<_> = bits
        .iter()
        .zip(&shadow)
        .map(|(b, s)| n.xor(b.lit(), s.lit()))
        .collect();
    let mismatch = n.or_many(diffs);
    n.add_target(mismatch, "shadow_mismatch");

    // Target 1: the counter reaches 5 (reachable at depth pipeline + 5).
    let is_five = {
        let hi = n.and(bits[2].lit(), !bits[1].lit());
        n.and(hi, bits[0].lit())
    };
    n.add_target(is_five, "count_hits_5");
    n
}

fn main() {
    let depth = 10;
    let n = build(depth);
    let opts = StructuralOptions::default();

    println!("issue pipeline depth {depth}, mod-6 counter + structural shadow\n");
    println!(
        "{:<14} {:>22} {:>22}",
        "", "shadow_mismatch", "count_hits_5"
    );
    for (name, pipe) in [
        ("original", Pipeline::new()),
        ("COM", Pipeline::com()),
        ("COM,RET,COM", Pipeline::com_ret_com()),
    ] {
        let b = pipe.bound_targets(&n, &opts);
        let fmt = |i: usize| {
            format!(
                "{} [{}]",
                b[i].original,
                if b[i].original.is_useful(USEFUL_THRESHOLD) {
                    "ok"
                } else {
                    "too big"
                }
            )
        };
        println!("{name:<14} {:>22} {:>22}", fmt(0), fmt(1));
    }

    println!();
    for (i, name) in [(0usize, "shadow_mismatch"), (1, "count_hits_5")] {
        match prove(&n, i, &Pipeline::com_ret_com(), &ProveOptions::default()) {
            ProveOutcome::Proved { bound } => {
                println!("PROVED {name}: complete BMC to depth {}", bound - 1);
            }
            ProveOutcome::Counterexample { depth, witness } => {
                // A complete check that *fails* yields the earliest witness.
                assert!(witness.replays_to(&n, n.targets()[i].lit));
                println!(
                    "HIT {name} at depth {depth} (witness replays on the simulator) — \
                     the search was complete, so this is the earliest hit"
                );
            }
            other => println!("{name}: unexpected outcome {other:?}"),
        }
    }
}
