//! A portfolio strategy tying the whole system together, in the spirit of
//! the transformation-based verification framework this paper's engines
//! belong to: cheap engines run first, each either discharges a target or
//! simplifies the problem for the next.
//!
//! For every target, in order:
//!
//! 1. **random simulation** — finds shallow counterexamples for free. One
//!    shared simulation serves every target of the design
//!    ([`random_search_many`]), so the budget is spent once per design;
//!    each target's witness is the one a per-target
//!    [`random_search`](crate::random_search) would return, replayed once
//!    on the netlist;
//! 2. **redundancy removal** (COM) — may collapse the target outright and
//!    yields proven equivalences reused later as induction invariants;
//! 3. **diameter-complete BMC** through a transformation pipeline
//!    (Theorems 1–4) — the paper's contribution: a finite back-translated
//!    bound makes the bounded check a proof either way;
//! 4. **symbolic reachability** — when the bound is too large but the cone
//!    is small enough for BDDs, an exact fixpoint settles the target;
//! 5. **k-induction strengthened with the sweep's invariants** — catches
//!    properties whose diameter stays unboundable but whose inductive core
//!    is shallow;
//! 6. otherwise the target is reported open, with its bound as diagnosis.
//!
//! Engine 1 runs first, on the original netlist, and nothing else is built
//! before it. The shared work of the later engines — the sweep (engines 2
//! and 5) and the pipeline run with its bounding pass (engine 3) — is built
//! once, on the whole netlist, the first time a target survives to the
//! engine that reads it. Because each is built on the whole netlist, no
//! verdict depends on which target asked first; a design whose targets
//! random simulation all hits never builds them at all.

use crate::{
    bmc_bound, check, check_one_transformed, k_induction_with_invariants, random_search_many,
    BmcOptions, BmcOutcome, InductionOutcome, RandomSearchOptions, DEFAULT_DEPTH_CAP,
};
use diam_core::{Pipeline, StructuralOptions};
use diam_netlist::sim::Witness;
use diam_netlist::Netlist;
use diam_transform::com::{sweep, SweepOptions};
use std::cell::OnceCell;

/// Per-target verdict of [`solve_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetStatus {
    /// The target is unreachable; `by` names the engine that proved it.
    Proved {
        /// Engine that closed the proof.
        by: Engine,
    },
    /// The target is reachable at `depth` (witness replays on the original
    /// netlist).
    Failed {
        /// Earliest-found hit depth (earliest overall when found by the
        /// complete bounded check).
        depth: u64,
        /// Replayable witness.
        witness: Witness,
        /// Engine that found it.
        by: Engine,
    },
    /// Everything inconclusive; the diameter bound is attached as the
    /// diagnosis.
    Open {
        /// The back-translated diameter bound (`None` = exponential).
        bound: Option<u64>,
    },
}

/// The engines a [`TargetStatus`] can credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Random simulation.
    RandomSim,
    /// Redundancy removal collapsed the target to a constant.
    Com,
    /// Diameter-complete BMC.
    DiameterBmc,
    /// Symbolic (BDD) reachability fixpoint.
    Symbolic,
    /// Invariant-strengthened k-induction.
    Induction,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::RandomSim => write!(f, "random simulation"),
            Engine::Com => write!(f, "redundancy removal"),
            Engine::DiameterBmc => write!(f, "diameter-complete BMC"),
            Engine::Symbolic => write!(f, "symbolic reachability"),
            Engine::Induction => write!(f, "strengthened k-induction"),
        }
    }
}

/// Options for [`solve_all`].
#[derive(Debug, Clone)]
pub struct StrategyOptions {
    /// Random-simulation budget, spent once per design: [`solve_all`] runs
    /// one [`random_search_many`] over all targets, which returns the same
    /// witnesses as one [`random_search`](crate::random_search) per target.
    /// It runs before any shared work: the sweep, pipeline and bounds are
    /// built only if some target has no hit.
    pub random: RandomSearchOptions,
    /// Sweep options (engine 2; its invariants feed engine 5).
    pub sweep: SweepOptions,
    /// The transformation pipeline for diameter bounding (engine 3).
    pub pipeline: Pipeline,
    /// Refuse complete BMC when the finite diameter bound exceeds this depth
    /// (0 = no cap; default [`DEFAULT_DEPTH_CAP`]), as
    /// [`ProveOptions::depth_cap`](crate::ProveOptions::depth_cap) does.
    pub depth_cap: u64,
    /// Run symbolic reachability when the target's cone has at most this
    /// many registers (0 disables the engine).
    pub symbolic_reg_cap: usize,
    /// Maximum induction depth.
    pub max_induction: u64,
    /// Structural bounding options for engine 3. The portfolio default
    /// enables the eccentricity engine: tighter certified GC bounds pull
    /// more targets under `depth_cap`, closing verdicts the blanket bound
    /// leaves `Unknown`.
    pub structural: StructuralOptions,
}

impl Default for StrategyOptions {
    fn default() -> StrategyOptions {
        StrategyOptions {
            random: RandomSearchOptions::default(),
            sweep: SweepOptions::default(),
            pipeline: Pipeline::parse(Pipeline::DEFAULT_SPEC).expect("default spec parses"),
            depth_cap: DEFAULT_DEPTH_CAP,
            symbolic_reg_cap: 40,
            max_induction: 3,
            structural: StructuralOptions {
                ecc: diam_core::EccOptions::on(),
                ..StructuralOptions::default()
            },
        }
    }
}

/// Runs the portfolio on every target of `n`.
pub fn solve_all(n: &Netlist, opts: &StrategyOptions) -> Vec<TargetStatus> {
    // Engine 1 for every target at once: one shared random simulation of
    // the original netlist, before anything else is built.
    let all: Vec<usize> = (0..n.targets().len()).collect();
    let hits = random_search_many(n, &all, &opts.random);
    // Shared work for the targets engine 1 leaves open, built on the whole
    // netlist the first time a target reaches the engine that reads it: one
    // sweep (engine 2 evidence + engine 5 invariants), one pipeline run +
    // bounding pass (engine 3). Keeping the pipeline result around gives
    // engine 3 both halves of the certificate chain: the bound map (how deep
    // to search) and the witness lifters (how to carry a transformed-netlist
    // counterexample home).
    let swept = OnceCell::new();
    let pipelined = OnceCell::new();

    hits.into_iter()
        .enumerate()
        .map(|(i, hit)| {
            // 1. Random simulation.
            if let Some((depth, witness)) = hit {
                return TargetStatus::Failed {
                    depth,
                    witness,
                    by: Engine::RandomSim,
                };
            }
            // 2. Did the sweep collapse the target to constant false?
            let swept = swept.get_or_init(|| sweep(n, &opts.sweep));
            let t = n.targets()[i].lit;
            if swept.lit(t) == Some(diam_netlist::Lit::FALSE) {
                return TargetStatus::Proved { by: Engine::Com };
            }
            let (pipelined, bounds) = pipelined.get_or_init(|| {
                let pipelined = opts.pipeline.run(n);
                let bounds = pipelined.bound_targets(&opts.structural);
                (pipelined, bounds)
            });
            // 3. Diameter-complete BMC through the transformation pipeline:
            // a clean prefix (original netlist, depths `0..p`) plus a clean
            // transformed check (depths `0..=b − 1 − p`) covers original
            // depths `0..=b − 1`; counterexamples come home through the
            // certificate chain. Falls back to the original netlist for
            // multiplicative chains or failed lifts.
            let bound = bounds[i].original;
            if let Some(b) = bmc_bound(bound, opts.depth_cap) {
                let bmc = BmcOptions {
                    max_depth: b.saturating_sub(1),
                    ..BmcOptions::default()
                };
                match check_one_transformed(n, pipelined, i, &bmc) {
                    BmcOutcome::Counterexample { depth, witness } => {
                        return TargetStatus::Failed {
                            depth,
                            witness,
                            by: Engine::DiameterBmc,
                        };
                    }
                    BmcOutcome::NoHitUpTo(_) => {
                        return TargetStatus::Proved {
                            by: Engine::DiameterBmc,
                        };
                    }
                    BmcOutcome::Unknown { .. } => {}
                }
            }
            // 4. Symbolic reachability on small-enough cones. The fixpoint
            // is exact: unreachable proves, reachable gives the earliest
            // depth (re-run through BMC for a replayable witness).
            let cone_regs = diam_netlist::analysis::coi(n, [t]).regs.len();
            if opts.symbolic_reg_cap > 0 && cone_regs <= opts.symbolic_reg_cap {
                if let Ok(r) = diam_core::symbolic::reach(
                    n,
                    i,
                    &diam_core::symbolic::SymbolicLimits::default(),
                ) {
                    match r.earliest_hit {
                        None => {
                            return TargetStatus::Proved {
                                by: Engine::Symbolic,
                            };
                        }
                        Some(depth) => {
                            if let BmcOutcome::Counterexample { depth, witness } = check(
                                n,
                                i,
                                &BmcOptions {
                                    max_depth: depth,
                                    ..BmcOptions::default()
                                },
                            ) {
                                return TargetStatus::Failed {
                                    depth,
                                    witness,
                                    by: Engine::Symbolic,
                                };
                            }
                        }
                    }
                }
            }
            // 5. Invariant-strengthened induction.
            match k_induction_with_invariants(n, i, opts.max_induction, &swept.proven) {
                InductionOutcome::Proved { .. } => TargetStatus::Proved {
                    by: Engine::Induction,
                },
                InductionOutcome::Counterexample { depth, witness } => TargetStatus::Failed {
                    depth,
                    witness,
                    by: Engine::Induction,
                },
                InductionOutcome::Unknown => TargetStatus::Open {
                    bound: bound.finite(),
                },
            }
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use diam_netlist::{Gate, Init, Lit};

    /// A design exercising every portfolio layer at once.
    fn mixed_design() -> Netlist {
        let mut n = Netlist::new();
        let i = n.input("i").lit();

        // Target 0 — easy hit for random simulation.
        let r = n.reg("easy", Init::Zero);
        n.set_next(r, i);
        n.add_target(r.lit(), "easy_hit");

        // Target 1 — lock-step registers through different structure: COM.
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        let e = n.input("e").lit();
        let na = n.and(i, e);
        let nb = n.mux(e, i, Lit::FALSE);
        n.set_next(a, na);
        n.set_next(b, nb);
        let differ = n.xor(a.lit(), b.lit());
        n.add_target(differ, "lockstep");

        // Target 2 — mod-6 counter overflow behind a pipeline: needs the
        // diameter-complete check (reassociated so COM cannot collapse it).
        let mut en = i;
        for k in 0..4 {
            let p = n.reg(format!("p{k}"), Init::Zero);
            n.set_next(p, en);
            en = p.lit();
        }
        let bits: Vec<Gate> = (0..3).map(|k| n.reg(format!("c{k}"), Init::Zero)).collect();
        let at_five = {
            let hi = n.and(bits[2].lit(), !bits[1].lit());
            n.and(hi, bits[0].lit())
        };
        let clear = n.and(en, at_five);
        let en_inc = n.and(en, !at_five);
        let mut carry = en_inc;
        for r in &bits {
            let inc = n.xor(r.lit(), carry);
            carry = n.and(r.lit(), carry);
            let nx = n.and(inc, !clear);
            n.set_next(*r, nx);
        }
        let overflow = {
            let lo_hi = n.and(bits[0].lit(), bits[2].lit());
            n.and(lo_hi, bits[1].lit())
        };
        n.add_target(overflow, "overflow");
        n
    }

    #[test]
    fn portfolio_credits_the_right_engines() {
        let n = mixed_design();
        let statuses = solve_all(&n, &StrategyOptions::default());
        assert_eq!(statuses.len(), 3);
        match &statuses[0] {
            TargetStatus::Failed { by, witness, .. } => {
                assert_eq!(*by, Engine::RandomSim);
                assert!(witness.replays_to(&n, n.targets()[0].lit));
            }
            other => panic!("target 0: {other:?}"),
        }
        match &statuses[1] {
            TargetStatus::Proved { by } => {
                assert_eq!(*by, Engine::Com);
            }
            other => panic!("target 1: {other:?}"),
        }
        // Target 2's overflow is sometimes within reach of the sweep's
        // invariant vocabulary; the portfolio may close it via COM or the
        // diameter check — either way it must be proved.
        match &statuses[2] {
            TargetStatus::Proved { .. } => {}
            other => panic!("target 2: {other:?}"),
        }

        // With the sweep crippled, the diameter-complete check must pick up
        // the overflow target — exercising the fallback order.
        let crippled = StrategyOptions {
            sweep: SweepOptions {
                max_refinements: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let statuses = solve_all(&n, &crippled);
        match &statuses[2] {
            TargetStatus::Proved { by } => assert_eq!(*by, Engine::DiameterBmc),
            other => panic!("crippled target 2: {other:?}"),
        }
    }

    #[test]
    fn unboundable_targets_are_reported_open() {
        use diam_netlist::sim::SplitMix64;
        let mut n = Netlist::new();
        let mut rng = SplitMix64::new(9);
        // A large stirred ring with an unreachable target: over every
        // engine's head (bounded by our caps).
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
        // Unreachable but not inductively obvious: all 24 ring bits high
        // while the stir input was never high… just use a conjunction of
        // many bits (random sim will fail to hit it, bounds explode).
        let lits: Vec<Lit> = regs.iter().map(|r| r.lit()).collect();
        let t = n.and_many(lits);
        n.add_target(t, "all_ones");
        // With the symbolic engine disabled, nothing can touch a 2^24
        // bound: reported open with the bound attached as the diagnosis.
        let limited = StrategyOptions {
            max_induction: 1,
            symbolic_reg_cap: 0,
            ..Default::default()
        };
        let statuses = solve_all(&n, &limited);
        match &statuses[0] {
            TargetStatus::Open { bound } => assert_eq!(*bound, Some(1 << 24)),
            other => panic!("expected open, got {other:?}"),
        }
        // The default portfolio includes symbolic reachability, whose exact
        // fixpoint resolves the target (all-ones is reachable at depth 24 by
        // stirring ones around the ring) — with a replayable witness.
        let statuses = solve_all(
            &n,
            &StrategyOptions {
                max_induction: 1,
                ..Default::default()
            },
        );
        match &statuses[0] {
            TargetStatus::Failed { by, witness, depth } => {
                assert_eq!(*by, Engine::Symbolic);
                assert_eq!(*depth, 24);
                assert!(witness.replays_to(&n, n.targets()[0].lit));
            }
            other => panic!("expected symbolic hit, got {other:?}"),
        }
    }
}
