//! Differential soundness harness for the SumSweep eccentricity engine.
//!
//! The oracle is `exact.rs`: explicit exploration of the full state space.
//! For any netlist small enough to explore, a certificate over *all* its
//! registers bounds the same graph the oracle walks, so `factor` must
//! dominate the exact `pairwise` diameter — with equality whenever the
//! sweeps converged (`exact`), since both sides enumerate identical
//! reachable sets under exhaustive free inputs. On top of that, the
//! end-to-end `d̂` with `--ecc on` must stay sound (hittable targets hit
//! within `d̂ − 1`) and never exceed the blanket `d̂` with `--ecc off`.

use diam_core::eccentricity::{cache_stats_for, component_cert, sum_sweep, EccOptions};
use diam_core::exact::{explore, state_diameter, ExploreLimits};
use diam_core::state_graph::{StateGraph, StateGraphLimits};
use diam_core::structural::{diameter_bound, StructuralOptions};
use diam_core::Bound;
use diam_netlist::sim::SplitMix64;
use diam_netlist::{Gate, Init, Lit, Netlist};
use diam_par::Parallelism;
use proptest::prelude::*;

/// Random sequential netlist with free inputs, mixed inits (no `Init::Fn`,
/// so the state-graph init set matches `explore`'s exactly), and random
/// next-state cones over a shared literal pool.
fn build_netlist(seed: u64, ni: usize, nr: usize, na: usize) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let mut n = Netlist::new();
    let inputs: Vec<Lit> = (0..ni).map(|k| n.input(format!("i{k}")).lit()).collect();
    let mut regs: Vec<Gate> = Vec::with_capacity(nr);
    for k in 0..nr {
        let init = match rng.below(3) {
            0 => Init::Zero,
            1 => Init::One,
            _ => Init::Nondet,
        };
        regs.push(n.reg(format!("r{k}"), init));
    }
    let mut pool: Vec<Lit> = vec![Lit::FALSE];
    pool.extend(&inputs);
    pool.extend(regs.iter().map(|r| r.lit()));
    for _ in 0..na {
        let a = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        let b = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        pool.push(n.and(a, b));
    }
    for &r in &regs {
        let nx = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        n.set_next(r, nx);
    }
    n.add_target(*pool.last().expect("nonempty pool"), "t");
    n.validate().expect("generated netlist is well-formed");
    n
}

/// An explicit state graph compiled to a netlist. State `s` is coded in
/// binary over zero-initialised registers, so state 0 is the one initial
/// state; the other states get their codes through a seeded shuffle. Free
/// choice inputs pick the successor `succ[s][choice mod |succ[s]|]`, so
/// every listed edge is taken under some input. Codes no state owns step to
/// code 0; nothing reachable leads there. Target 0 observes state `target`.
/// Every generator reaches all of its states from state 0.
fn graph_netlist(succ: &[Vec<usize>], target: usize, rng: &mut SplitMix64) -> Netlist {
    let states = succ.len();
    let bits = |count: usize| (usize::BITS - count.saturating_sub(1).leading_zeros()) as usize;
    let mut code: Vec<usize> = (0..states).collect();
    for k in (2..states).rev() {
        code.swap(k, 1 + rng.below(k as u64) as usize);
    }
    let mut n = Netlist::new();
    let nr = bits(states).max(1);
    let ni = bits(succ.iter().map(Vec::len).max().unwrap_or(1));
    let regs: Vec<Gate> = (0..nr)
        .map(|k| n.reg(format!("s{k}"), Init::Zero))
        .collect();
    let inputs: Vec<Lit> = (0..ni).map(|k| n.input(format!("c{k}")).lit()).collect();
    let decode = |n: &mut Netlist, lits: &[Lit], value: usize| {
        let terms: Vec<Lit> = lits
            .iter()
            .enumerate()
            .map(|(k, &l)| l.xor_complement(value >> k & 1 == 0))
            .collect();
        n.and_many(terms)
    };
    let reg_lits: Vec<Lit> = regs.iter().map(|r| r.lit()).collect();
    let mut next_terms: Vec<Vec<Lit>> = vec![Vec::new(); nr];
    for (s, out) in succ.iter().enumerate() {
        let at = decode(&mut n, &reg_lits, code[s]);
        for choice in 0..1usize << ni {
            let to = code[out[choice % out.len()]];
            let picked = decode(&mut n, &inputs, choice);
            let edge = n.and(at, picked);
            for (k, terms) in next_terms.iter_mut().enumerate() {
                if to >> k & 1 == 1 {
                    terms.push(edge);
                }
            }
        }
    }
    for (r, terms) in regs.iter().zip(next_terms) {
        let nx = n.or_many(terms);
        n.set_next(*r, nx);
    }
    let t = decode(&mut n, &reg_lits, code[target]);
    n.add_target(t, "state");
    n.validate().expect("compiled graph is well-formed");
    let reached = explore(&n, &ExploreLimits::default())
        .expect("compiled graph stays under the explore limits")
        .reachable_states;
    assert_eq!(reached, states as u64, "every listed state, and no other");
    n
}

/// The initial state branches into a clique (every member steps to every
/// member, itself included) and into a chain that ends in a self-loop or
/// steps back to the initial state.
fn branch_clique_chain(seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let clique = 1 + rng.below(6) as usize;
    let chain = 1 + rng.below(12) as usize;
    let members: Vec<usize> = (1..=clique).collect();
    let mut succ = vec![vec![1, clique + 1]];
    succ.extend((0..clique).map(|_| members.clone()));
    for k in 1..chain {
        succ.push(vec![clique + 1 + k]);
    }
    let last = clique + chain;
    succ.push(vec![if rng.below(2) == 0 { last } else { 0 }]);
    let target = rng.below(succ.len() as u64) as usize;
    graph_netlist(&succ, target, &mut rng)
}

/// A ladder of SCC rungs: each rung is a cycle with an inner chord back to
/// its entry (a cycle nested in a cycle), and its exit steps forward to the
/// next rung. Some rungs also step back to the previous rung's entry, which
/// merges the two into one larger SCC around the smaller ones.
fn nested_scc_ladder(seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let rungs = 1 + rng.below(5) as usize;
    let mut succ: Vec<Vec<usize>> = Vec::new();
    let mut prev_entry = None;
    for r in 0..rungs {
        let entry = succ.len();
        let len = 1 + rng.below(5) as usize;
        for k in 0..len {
            let mut out = vec![if k + 1 < len { entry + k + 1 } else { entry }];
            if k > 0 && rng.below(3) == 0 {
                out.push(entry);
            }
            succ.push(out);
        }
        let exit = entry + len - 1;
        if r + 1 < rungs {
            succ[exit].push(entry + len);
        }
        if let Some(back) = prev_entry.filter(|_| rng.below(3) == 0) {
            succ[exit].push(back);
        }
        prev_entry = Some(entry);
    }
    let target = rng.below(succ.len() as u64) as usize;
    graph_netlist(&succ, target, &mut rng)
}

/// A random tree grown from the initial state whose leaves are self-loop
/// sinks at different depths, with some forward cross edges between
/// branches. Half the trees also give the initial state shortcuts to
/// random states, so the largest eccentricity can sit at an inner state
/// instead of the root.
fn self_loop_sinks(seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let total = 2 + rng.below(30) as usize;
    let mut succ: Vec<Vec<usize>> = vec![Vec::new()];
    let mut open = 0;
    while succ.len() < total && open < succ.len() {
        let children = 1 + rng.below(3) as usize;
        for _ in 0..children.min(total - succ.len()) {
            let child = succ.len();
            succ[open].push(child);
            succ.push(Vec::new());
        }
        open += 1 + rng.below(2) as usize;
    }
    let states = succ.len();
    for (s, out) in succ.iter_mut().enumerate() {
        if out.is_empty() {
            out.push(s);
        } else if s + 1 < states && rng.below(4) == 0 {
            out.push(s + 1 + rng.below((states - s - 1) as u64) as usize);
        }
    }
    if rng.below(2) == 0 {
        for _ in 0..1 + rng.below(4) {
            let to = rng.below(states as u64) as usize;
            if !succ[0].contains(&to) {
                succ[0].push(to);
            }
        }
    }
    let target = rng.below(states as u64) as usize;
    graph_netlist(&succ, target, &mut rng)
}

/// `a ≤ b` in the bound order (`Exponential` is the top element).
fn bound_le(a: Bound, b: Bound) -> bool {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => x <= y,
        (_, Bound::Exponential) => true,
        (Bound::Exponential, Bound::Finite(_)) => false,
    }
}

/// A certificate over all registers bounds the graph the oracle walks: its
/// factor dominates the exact `pairwise` diameter, with equality whenever
/// the sweeps converged.
fn assert_certificate_dominates_exact_diameter(n: &Netlist) {
    let opts = EccOptions {
        cutoff: 8,
        ..EccOptions::on()
    };
    let cert =
        component_cert(n, n.regs(), &opts).expect("whole-register component fits the limits");
    let oracle = state_diameter(n, &ExploreLimits::default())
        .expect("generator stays under the explore limits");
    prop_assert!(
        cert.factor >= oracle.pairwise,
        "certified factor {} below exact pairwise diameter {}",
        cert.factor,
        oracle.pairwise
    );
    prop_assert_eq!(cert.states, oracle.reachable_states);
    if cert.exact {
        prop_assert_eq!(cert.factor, oracle.pairwise);
    }
}

/// Target 0's `d̂` with `--ecc on` never exceeds the blanket bound, and
/// both stay above the earliest exact hit.
fn assert_tightened_bound_is_monotone_and_sound(n: &Netlist) {
    let target = n.targets()[0].lit;
    let off = diameter_bound(n, target, &StructuralOptions::default());
    let on = diameter_bound(
        n,
        target,
        &StructuralOptions {
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        },
    );
    prop_assert!(
        bound_le(on.bound, off.bound),
        "--ecc on loosened d̂: {:?} vs {:?}",
        on.bound,
        off.bound
    );
    if let Some(hit) = explore(n, &ExploreLimits::default())
        .expect("generator stays under the explore limits")
        .earliest_hit[0]
    {
        for (label, tb) in [("off", &off), ("on", &on)] {
            let Bound::Finite(b) = tb.bound else { continue };
            prop_assert!(
                hit < b,
                "--ecc {label} bound {b} misses a hit at step {hit}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Certificate over all registers vs. the explicit-search diameter.
    #[test]
    fn certificate_dominates_exact_diameter(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        assert_certificate_dominates_exact_diameter(&build_netlist(seed, ni, nr, na));
    }

    /// End-to-end `d̂`: `--ecc on` is monotone below the blanket bound and
    /// still sound against the earliest exact hit.
    #[test]
    fn tightened_bound_is_monotone_and_sound(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        assert_tightened_bound_is_monotone_and_sound(&build_netlist(seed, ni, nr, na));
    }

    /// Branch → clique + chain graphs against the oracle.
    #[test]
    fn branch_clique_chain_matches_the_oracle(seed in proptest::arbitrary::any::<u64>()) {
        let n = branch_clique_chain(seed);
        assert_certificate_dominates_exact_diameter(&n);
        assert_tightened_bound_is_monotone_and_sound(&n);
    }

    /// Nested SCC ladders against the oracle.
    #[test]
    fn nested_scc_ladder_matches_the_oracle(seed in proptest::arbitrary::any::<u64>()) {
        let n = nested_scc_ladder(seed);
        assert_certificate_dominates_exact_diameter(&n);
        assert_tightened_bound_is_monotone_and_sound(&n);
    }

    /// Trees of self-loop sinks against the oracle.
    #[test]
    fn self_loop_sinks_match_the_oracle(seed in proptest::arbitrary::any::<u64>()) {
        let n = self_loop_sinks(seed);
        assert_certificate_dominates_exact_diameter(&n);
        assert_tightened_bound_is_monotone_and_sound(&n);
    }

    /// SumSweep results are bit-identical at every parallelism setting.
    #[test]
    fn sweep_results_identical_across_parallelism(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let g = StateGraph::build(&n, n.regs(), &StateGraphLimits::default())
            .expect("whole-register component fits the limits");
        let seq = sum_sweep(&g, 16, Parallelism::Sequential);
        let two = sum_sweep(&g, 16, Parallelism::Threads(2));
        let eight = sum_sweep(&g, 16, Parallelism::Threads(8));
        prop_assert_eq!(seq, two);
        prop_assert_eq!(seq, eight);
    }
}

/// One component probed by several targets costs one enumeration: the
/// second `diameter_bound` call recalls the memoized certificate.
#[test]
fn certificates_are_memoized_across_targets() {
    let mut n = Netlist::new();
    let regs: Vec<Gate> = (0..9)
        .map(|k| n.reg(format!("m{k}"), if k == 0 { Init::One } else { Init::Zero }))
        .collect();
    for k in 0..9 {
        n.set_next(regs[k], regs[(k + 8) % 9].lit());
    }
    n.add_target(regs[2].lit(), "head");
    n.add_target(regs[7].lit(), "tail");
    n.validate().expect("ring is well-formed");

    let opts = StructuralOptions {
        ecc: EccOptions::on(),
        ..StructuralOptions::default()
    };
    let fp = n.csr().fingerprint();
    let before = cache_stats_for(fp);
    let head = diameter_bound(&n, n.targets()[0].lit, &opts);
    let tail = diameter_bound(&n, n.targets()[1].lit, &opts);
    let after = cache_stats_for(fp);
    assert_eq!(
        after.0 - before.0,
        1,
        "one shared component, one cache entry"
    );
    assert!(after.1 > before.1, "second target recalls the certificate");
    // Both targets see the same tightened factor: 9 reachable states on a
    // cycle, certified diameter 8, factor 9 ≪ 2^9.
    assert_eq!(head.bound, tail.bound);
    let Bound::Finite(b) = head.bound else {
        panic!("ring bound is finite");
    };
    assert!(b <= 2 * 9, "factor 9 (not 512) dominates d̂ = {b}");
}
