//! Determinism and cancellation tests for the parallel orchestration layers.
//!
//! The contract under test (see `DESIGN.md`, "Threading model"): every
//! per-target fan-out — `prove_all`, `Pipeline::bound_targets`,
//! `classify_targets`, and the cone-sliced `check_all` — produces output
//! that is **bit-identical across all `Parallelism` settings**, because jobs
//! are pure functions of the immutable netlist merged in original target
//! order; and cancellation scopes (`CancelToken` hierarchies) never change
//! a merged result.

use diam::bmc::{check_all, prove_all, BmcOptions, BmcOutcome, ProveOptions};
use diam::core::{classify_targets, ClassifyOptions, Pipeline, StructuralOptions};
use diam::gen::random::{random_netlist, RandomDesignOptions};
use diam::netlist::{Gate, Init, Lit, Netlist};
use diam::par::Parallelism;

/// 24 seeded multi-target designs (deterministic per seed).
fn designs() -> Vec<Netlist> {
    let opts = RandomDesignOptions {
        inputs: 3,
        regs: 5,
        gates: 14,
        targets: 4,
        allow_nondet: true,
    };
    (0..24u64)
        .map(|seed| random_netlist(&opts, 0xD1A0 + seed))
        .collect()
}

#[test]
fn prove_all_is_bit_identical_across_thread_counts() {
    let pipeline = Pipeline::com_ret_com();
    for (k, n) in designs().iter().enumerate() {
        let base = ProveOptions {
            depth_cap: 64,
            ..Default::default()
        };
        let seq = prove_all(n, &pipeline, &base);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let opts = ProveOptions {
                parallelism: par,
                ..base.clone()
            };
            let got = prove_all(n, &pipeline, &opts);
            // ProveOutcome derives PartialEq including the witness trace:
            // this compares counterexamples bit-for-bit.
            assert_eq!(seq, got, "design {k}, parallelism {par}");
        }
    }
}

#[test]
fn bound_targets_is_identical_across_thread_counts() {
    let pipeline = Pipeline::com();
    for (k, n) in designs().iter().enumerate() {
        let seq = pipeline.bound_targets(n, &StructuralOptions::default());
        for workers in [2usize, 4] {
            let opts = StructuralOptions {
                parallelism: Parallelism::Threads(workers),
                ..Default::default()
            };
            let got = pipeline.bound_targets(n, &opts);
            assert_eq!(seq.len(), got.len());
            for (a, b) in seq.iter().zip(&got) {
                assert_eq!(a.name, b.name, "design {k}");
                assert_eq!(a.transformed, b.transformed, "design {k}");
                assert_eq!(a.original, b.original, "design {k}");
                assert_eq!(a.counts, b.counts, "design {k}");
            }
        }
    }
}

#[test]
fn classify_targets_matches_across_thread_counts() {
    for n in designs().into_iter().take(8) {
        let seq = classify_targets(&n, &ClassifyOptions::default(), Parallelism::Sequential);
        let par = classify_targets(&n, &ClassifyOptions::default(), Parallelism::Threads(3));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.counts(), b.counts());
        }
    }
}

#[test]
fn sliced_check_all_agrees_with_the_shared_sweep() {
    for (k, n) in designs().iter().enumerate() {
        let shared = check_all(
            n,
            &BmcOptions {
                max_depth: 12,
                ..Default::default()
            },
        );
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            let sliced = check_all(
                n,
                &BmcOptions {
                    max_depth: 12,
                    parallelism: par,
                    ..Default::default()
                },
            );
            assert_eq!(shared.len(), sliced.len());
            for (i, (a, b)) in shared.iter().zip(&sliced).enumerate() {
                match (a, b) {
                    (
                        BmcOutcome::Counterexample { depth: x, .. },
                        BmcOutcome::Counterexample { depth: y, witness },
                    ) => {
                        assert_eq!(x, y, "design {k} target {i} ({par})");
                        // The sliced path lifts witnesses back to the
                        // original netlist; they must replay there.
                        assert!(
                            witness.replays_to(n, n.targets()[i].lit),
                            "design {k} target {i}: lifted witness does not replay"
                        );
                    }
                    (BmcOutcome::NoHitUpTo(x), BmcOutcome::NoHitUpTo(y)) => {
                        assert_eq!(x, y, "design {k} target {i}")
                    }
                    other => panic!("design {k} target {i}: outcome mismatch {other:?}"),
                }
            }
        }
    }
}

#[test]
fn child_tokens_scope_cancellation_hierarchically() {
    use diam::par::CancelToken;

    // Regression for the cube layer's cancellation contract: a parent's
    // cancel reaches every descendant group, while a child's cancel (a SAT
    // cube stopping its siblings) stays inside that group — the parent and
    // unrelated groups keep running.
    let parent = CancelToken::new();
    let group_a = parent.child();
    let group_b = parent.child();
    let grandchild = group_a.child();

    group_a.cancel();
    assert!(group_a.is_cancelled(), "cancelled group observes itself");
    assert!(grandchild.is_cancelled(), "descendants observe the group");
    assert!(!parent.is_cancelled(), "cancellation never flows upward");
    assert!(!group_b.is_cancelled(), "sibling groups are unaffected");

    parent.cancel();
    assert!(group_b.is_cancelled(), "parent cancel reaches every child");

    // Clones share the same flag chain (the token is a handle, not a node).
    let parent2 = CancelToken::new();
    let child = parent2.child();
    let child_clone = child.clone();
    child_clone.cancel();
    assert!(child.is_cancelled());
    assert!(!parent2.is_cancelled());
}

#[test]
fn cancellation_never_changes_merged_results() {
    // Several targets hitting at different depths, one job each: every
    // worker count merges to the same outcome vector.
    let mut n = Netlist::new();
    let b: Vec<Gate> = (0..4).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
    let mut carry = Lit::TRUE;
    for &bk in &b {
        let nk = n.xor(bk.lit(), carry);
        carry = n.and(bk.lit(), carry);
        n.set_next(bk, nk);
    }
    for v in [3u64, 9, 14] {
        let lits: Vec<Lit> = (0..4)
            .map(|k| b[k].lit().xor_complement(v >> k & 1 == 0))
            .collect();
        let t = n.and_many(lits);
        n.add_target(t, format!("is_{v}"));
    }
    let reference = check_all(
        &n,
        &BmcOptions {
            max_depth: 20,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        },
    );
    for trial in 0..4 {
        let got = check_all(
            &n,
            &BmcOptions {
                max_depth: 20,
                parallelism: Parallelism::Threads(2 + trial % 3),
                ..Default::default()
            },
        );
        assert_eq!(reference, got, "trial {trial}");
    }
}
