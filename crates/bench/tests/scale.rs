//! Release-mode scale smokes whose asserts double as soundness checks.
//!
//! * The netlist smoke generates the deterministic 1M-gate `large`
//!   archetype, round-trips it through binary AIGER, and runs cone of
//!   influence and classification on the full-netlist `parity` target.
//! * The eccentricity smoke enumerates and SumSweeps 2^12- and 2^16-state
//!   counters, then checks that the 12-register token ring's unreachable
//!   two-token target proves only at its certified depth: under the same
//!   depth cap the blanket bound is refused and a raw capped sweep settles
//!   nothing.
//!
//! Both take seconds in release and minutes in debug, so debug builds skip
//! them. CI runs them in release:
//! `cargo test -p diam-bench --release --test scale`.

use diam_bmc::{check, prove, BmcOptions, BmcOutcome, ProveOptions, ProveOutcome};
use diam_core::classify::{classify, ClassifyOptions};
use diam_core::eccentricity::{sum_sweep, EccOptions};
use diam_core::state_graph::{StateGraph, StateGraphLimits};
use diam_core::{Pipeline, StructuralOptions};
use diam_gen::archetypes;
use diam_gen::large::{large, LargeOptions};
use diam_netlist::{aiger, analysis, Netlist};
use diam_par::Parallelism;

#[test]
#[cfg_attr(debug_assertions, ignore = "1M-gate workload; run with --release")]
fn million_gate_netlist_round_trips_and_classifies() {
    let n = large(&LargeOptions {
        min_gates: 1_000_000,
        seed: 1,
    });
    assert!(n.num_gates() >= 1_000_000, "{} gates", n.num_gates());
    let mut buf = Vec::new();
    aiger::write_binary(&n, &mut buf).expect("large archetype is AIGER-expressible");
    let parsed = aiger::read(std::io::Cursor::new(buf.as_slice())).expect("round-trip parses");
    parsed.validate().expect("round-trip validates");
    assert_eq!(parsed.num_inputs(), n.num_inputs());
    assert_eq!(parsed.num_regs(), n.num_regs());
    assert_eq!(parsed.num_ands(), n.num_ands());
    assert_eq!(parsed.targets().len(), n.targets().len());
    let mut again = Vec::new();
    aiger::write_binary(&parsed, &mut again).expect("parsed netlist writes back");
    assert!(again == buf, "re-serialization is byte-identical");

    let parity = parsed.targets()[0].lit;
    let cone = analysis::coi(&parsed, [parity]);
    assert_eq!(
        cone.regs.len(),
        parsed.num_regs(),
        "parity sees every register"
    );
    assert_eq!(
        cone.inputs.len(),
        parsed.num_inputs(),
        "parity sees every input"
    );
    let classes = classify(&parsed, &cone.regs, &ClassifyOptions::default());
    assert_eq!(classes.counts().total(), cone.regs.len());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "2^16-state enumeration; run with --release"
)]
fn counters_enumerate_every_state_below_the_blanket() {
    for bits in [12usize, 16] {
        let mut n = Netlist::new();
        let en = n.input("en").lit();
        let c = archetypes::counter(&mut n, "c", bits, en);
        n.add_target(c.all_ones, "wrap");
        let g = StateGraph::build(&n, &c.regs, &StateGraphLimits::default())
            .expect("counter fits the default limits");
        assert_eq!(g.num_states() as u64, 1 << bits, "{bits}-bit counter");
        let summary = sum_sweep(&g, 16, Parallelism::Sequential);
        assert!(summary.diameter < 1 << bits, "{bits}-bit counter");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "capped BMC sweep; run with --release")]
fn token_ring_proves_only_at_its_certified_depth() {
    const CAP: u64 = 128;
    let mut n = Netlist::new();
    let step = n.input("step").lit();
    let ring = archetypes::token_ring(&mut n, "ring", 12, step);
    let two = n.and(ring[0].lit(), ring[1].lit());
    n.add_target(two, "two_tokens");
    let pipeline = Pipeline::new();

    // Blanket d̂ is 2^12 − 1: over the cap, so `prove` refuses it.
    let blanket = prove(
        &n,
        0,
        &pipeline,
        &ProveOptions {
            depth_cap: CAP,
            ..ProveOptions::default()
        },
    );
    assert!(
        matches!(blanket, ProveOutcome::BoundTooLarge { bound: Some(_) }),
        "blanket bound must exceed the cap, got {blanket:?}"
    );
    let swept = check(
        &n,
        0,
        &BmcOptions {
            max_depth: CAP,
            ..BmcOptions::default()
        },
    );
    assert_eq!(swept, BmcOutcome::NoHitUpTo(CAP), "capped sweep stays open");

    // The certified d̂ fits under the same cap and the proof completes.
    let tight = prove(
        &n,
        0,
        &pipeline,
        &ProveOptions {
            structural: StructuralOptions {
                ecc: EccOptions::on(),
                ..StructuralOptions::default()
            },
            depth_cap: CAP,
            ..ProveOptions::default()
        },
    );
    assert!(
        matches!(tight, ProveOutcome::Proved { .. }),
        "two-token ring target must prove under the cap, got {tight:?}"
    );
}
