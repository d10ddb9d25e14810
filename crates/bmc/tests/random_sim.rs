//! The shared random simulation (`random_search_many`, and `solve_all`'s
//! engine 1 built on it) against an independent oracle: the per-target
//! search loop `random_search` used before the engine existed, kept here
//! verbatim and never shared with the code it checks.
//!
//! The debug tier covers small suite designs and hand-built edge cases. The
//! full-suite tier compares every target of the iscas and gp suites at two
//! generator seeds and only runs optimized:
//!
//! ```text
//! cargo test -p diam-bmc --release --test random_sim
//! ```

use diam_bmc::strategy::{solve_all, Engine, StrategyOptions, TargetStatus};
use diam_bmc::{random_search, random_search_many, RandomSearchOptions};
use diam_gen::profile::{build, DesignProfile};
use diam_netlist::sim::{simulate, SplitMix64, Stimulus, Witness};
use diam_netlist::{Init, Lit, Netlist};

/// The reference: one full simulation budget per target, keeping the first
/// strictly-earliest hit over the batches.
fn oracle(n: &Netlist, index: usize, opts: &RandomSearchOptions) -> Option<(u64, Witness)> {
    let target = n.targets()[index].lit;
    let mut rng = SplitMix64::new(opts.seed);
    let mut best: Option<(u64, Witness)> = None;
    for _ in 0..opts.batches {
        let stim = Stimulus::random(n, opts.steps, &mut rng);
        let trace = simulate(n, &stim);
        'time: for t in 0..opts.steps {
            if best.as_ref().is_some_and(|(bt, _)| *bt <= t as u64) {
                break 'time;
            }
            let w = trace.word(target, t);
            if w != 0 {
                let lane = w.trailing_zeros();
                let witness = Witness {
                    inputs: (0..=t)
                        .map(|tt| {
                            (0..n.num_inputs())
                                .map(|k| (stim.inputs[tt][k] >> lane) & 1 == 1)
                                .collect()
                        })
                        .collect(),
                    nondet_init: (0..n.num_regs())
                        .map(|j| (stim.nondet_init[j] >> lane) & 1 == 1)
                        .collect(),
                };
                assert!(witness.replays_to(n, target));
                best = Some((t as u64, witness));
                break 'time;
            }
        }
    }
    best
}

/// Asserts the engine, over all targets at once and one target at a time,
/// returns exactly the oracle's `(depth, witness)` for every target.
/// Returns the number of hits.
fn assert_matches_oracle(n: &Netlist, opts: &RandomSearchOptions, what: &str) -> usize {
    let all: Vec<usize> = (0..n.targets().len()).collect();
    let many = random_search_many(n, &all, opts);
    assert_eq!(many.len(), all.len(), "{what}: one result per target");
    for (i, got) in many.iter().enumerate() {
        let want = oracle(n, i, opts);
        assert_eq!(got, &want, "{what}: target {i} (shared simulation)");
        assert_eq!(
            random_search(n, i, opts),
            want,
            "{what}: target {i} (single)"
        );
    }
    many.iter().flatten().count()
}

#[test]
fn small_iscas_designs_match_the_oracle() {
    let small: Vec<DesignProfile> = diam_gen::iscas::profiles()
        .into_iter()
        .filter(|p| p.cc + p.ac + p.mc + p.gc <= 40)
        .collect();
    assert!(small.len() >= 10, "{} small designs", small.len());
    let mut hits = 0;
    for p in &small {
        let n = build(p, 1);
        hits += assert_matches_oracle(&n, &RandomSearchOptions::default(), p.name);
    }
    assert!(hits > 0, "the comparison must not be vacuous");
}

/// One nondeterministic and one functionally-initialized register feed
/// targets at several depths, so the witnesses carry `nondet_init` bits and
/// input bits of the init cone.
#[test]
fn nondet_and_fn_inits_match_the_oracle() {
    let mut n = Netlist::new();
    let a = n.input("a");
    let b = n.input("b");
    let x = n.reg("x", Init::Nondet);
    let y = n.reg("y", Init::Fn(a.lit()));
    let z = n.reg("z", Init::Zero);
    n.set_next(x, b.lit());
    let y_next = n.xor(y.lit(), x.lit());
    n.set_next(y, y_next);
    let z_next = n.and(x.lit(), y.lit());
    n.set_next(z, z_next);
    let both = n.and(x.lit(), y.lit());
    n.add_target(both, "x_and_y");
    let late = n.and(z.lit(), !b.lit());
    n.add_target(late, "z_late");
    let never = n.and(z.lit(), !z.lit());
    n.add_target(never, "never");
    let opts = RandomSearchOptions::default();
    assert_eq!(assert_matches_oracle(&n, &opts, "inits"), 2);
    // A subset in any order: entry k answers indices[k].
    let got = random_search_many(&n, &[2, 0], &opts);
    assert_eq!(got, vec![None, oracle(&n, 0, &opts)]);
}

/// No inputs: every lane runs the same deterministic counter, so the hit
/// is lane 0 of batch 0 with empty input rows.
#[test]
fn zero_inputs_match_the_oracle() {
    let mut n = Netlist::new();
    let r0 = n.reg("r0", Init::Zero);
    let r1 = n.reg("r1", Init::Zero);
    n.set_next(r0, !r0.lit());
    let carry = n.xor(r1.lit(), r0.lit());
    n.set_next(r1, carry);
    let three = n.and(r0.lit(), r1.lit());
    n.add_target(three, "three");
    assert_eq!(
        assert_matches_oracle(&n, &RandomSearchOptions::default(), "zero inputs"),
        1
    );
    let (depth, w) = random_search(&n, 0, &RandomSearchOptions::default()).expect("hit");
    assert_eq!(depth, 3);
    assert!(w.inputs.iter().all(|row| row.is_empty()));
}

#[test]
fn zero_targets_give_no_results() {
    let mut n = Netlist::new();
    let i = n.input("i");
    let r = n.reg("r", Init::Zero);
    n.set_next(r, i.lit());
    assert!(random_search_many(&n, &[], &RandomSearchOptions::default()).is_empty());
    assert!(solve_all(&n, &StrategyOptions::default()).is_empty());
}

/// A constant-true target is hit at step 0 in lane 0 of the first batch —
/// alone, the case where every later batch is skipped. Next to a rare
/// target (eight inputs high, then one step) it must not stop the batches
/// the rare target still needs.
#[test]
fn constant_true_target_matches_the_oracle() {
    let mut n = Netlist::new();
    let ins: Vec<Lit> = (0..8).map(|k| n.input(format!("i{k}")).lit()).collect();
    n.add_target(Lit::TRUE, "always");
    let opts = RandomSearchOptions::default();
    assert_eq!(assert_matches_oracle(&n, &opts, "alone"), 1);
    let (depth, w) = random_search(&n, 0, &opts).expect("hit");
    assert_eq!(depth, 0);
    assert_eq!(w.inputs.len(), 1);
    let r = n.reg("r", Init::Zero);
    let all_high = n.and_many(ins);
    n.set_next(r, all_high);
    n.add_target(r.lit(), "rare");
    assert_eq!(assert_matches_oracle(&n, &opts, "with a rare target"), 2);
}

/// A target reachable only at step 3, with probability 2^-6 per lane: it is
/// hit at that same step in several batches, and the earliest batch must
/// win.
#[test]
fn same_step_hits_keep_the_earliest_batch() {
    let mut n = Netlist::new();
    let ins: Vec<Lit> = (0..6).map(|k| n.input(format!("i{k}")).lit()).collect();
    let r0 = n.reg("r0", Init::Zero);
    let r1 = n.reg("r1", Init::Zero);
    n.set_next(r0, !r0.lit());
    let carry = n.xor(r1.lit(), r0.lit());
    n.set_next(r1, carry);
    let step3 = n.and(r0.lit(), r1.lit());
    let all_high = n.and_many(ins);
    let t = n.and(step3, all_high);
    n.add_target(t, "step3");
    let opts = RandomSearchOptions::default();

    // Which batches hit at step 3, straight from the stimulus stream.
    let mut rng = SplitMix64::new(opts.seed);
    let hitting: Vec<(usize, u64)> = (0..opts.batches)
        .filter_map(|b| {
            let stim = Stimulus::random(&n, opts.steps, &mut rng);
            let w = simulate(&n, &stim).word(t, 3);
            (w != 0).then_some((b, w))
        })
        .collect();
    assert!(hitting.len() >= 2, "need two hitting batches: {hitting:?}");

    let (depth, w) = random_search(&n, 0, &opts).expect("hit");
    assert_eq!(depth, 3);
    let mut rng = SplitMix64::new(opts.seed);
    let first = (0..=hitting[0].0)
        .map(|_| Stimulus::random(&n, opts.steps, &mut rng))
        .last()
        .unwrap();
    let lane = hitting[0].1.trailing_zeros();
    let expected: Vec<Vec<bool>> = first.inputs[..=3]
        .iter()
        .map(|row| row.iter().map(|&v| (v >> lane) & 1 == 1).collect())
        .collect();
    assert_eq!(w.inputs, expected, "the earliest hitting batch wins");
    assert_matches_oracle(&n, &opts, "same step");
}

#[test]
fn empty_budgets_find_nothing() {
    let mut n = Netlist::new();
    let i = n.input("i");
    n.add_target(i.lit(), "i");
    n.add_target(Lit::TRUE, "always");
    for opts in [
        RandomSearchOptions {
            batches: 0,
            ..RandomSearchOptions::default()
        },
        RandomSearchOptions {
            steps: 0,
            ..RandomSearchOptions::default()
        },
    ] {
        assert_eq!(assert_matches_oracle(&n, &opts, "empty budget"), 0);
    }
}

/// Every target of a suite: `solve_all`'s random-simulation verdicts must
/// be exactly the oracle's hits, witnesses included.
fn assert_suite_matches(suite: Vec<(DesignProfile, Netlist)>, seed: u64) -> usize {
    let opts = StrategyOptions::default();
    let mut hits = 0;
    for (p, n) in &suite {
        let statuses = solve_all(n, &opts);
        assert_eq!(statuses.len(), n.targets().len());
        for (i, status) in statuses.into_iter().enumerate() {
            let what = format!("seed {seed}, {} target {i}", p.name);
            match oracle(n, i, &opts.random) {
                Some((depth, witness)) => {
                    hits += 1;
                    assert_eq!(
                        status,
                        TargetStatus::Failed {
                            depth,
                            witness,
                            by: Engine::RandomSim
                        },
                        "{what}"
                    );
                }
                None => assert!(
                    !matches!(
                        status,
                        TargetStatus::Failed {
                            by: Engine::RandomSim,
                            ..
                        }
                    ),
                    "{what}: random simulation cannot have hit"
                ),
            }
        }
    }
    hits
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suite; run with --release")]
fn iscas_suite_verdicts_match_the_oracle() {
    for seed in [1, 101] {
        let hits = assert_suite_matches(diam_gen::iscas::suite(seed), seed);
        assert!(hits > 0, "seed {seed}: no random-simulation hits");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suite; run with --release")]
fn gp_suite_verdicts_match_the_oracle() {
    for seed in [1, 101] {
        let hits = assert_suite_matches(diam_gen::gp::suite(seed), seed);
        assert!(hits > 0, "seed {seed}: no random-simulation hits");
    }
}
