//! The traced shadow of `strategy::solve_all`: the same engine order per
//! target, rebuilt from public calls only, with a span around each call into
//! a layer. The program itself is not changed; the spans live here.
//!
//! Span names are the per-layer metric prefixes (`transform.sweep`,
//! `bmc.random`, …), so [`crate::layers`] can read the metrics straight
//! off the recorded trace. SAT work reaches the spans through the
//! program's existing `charge_sat` attribution.

use diam_bmc::strategy::{Engine, StrategyOptions, TargetStatus};
use diam_bmc::{
    check, k_induction_with_invariants, random_search, BmcOptions, BmcOutcome, InductionOutcome,
};
use diam_core::symbolic::{reach, SymbolicLimits};
use diam_core::{Bound, PipelineResult};
use diam_netlist::{Lit, Netlist};
use diam_obs::{event, span};
use diam_transform::com::sweep;

/// Runs the portfolio on every target of `n`, like `solve_all`, recording
/// one span per layer call.
pub fn solve_all_traced(n: &Netlist, opts: &StrategyOptions) -> Vec<TargetStatus> {
    let swept = {
        let _sp = span!("transform.sweep");
        sweep(n, &opts.sweep)
    };
    let pipelined = {
        let mut sp = span!("transform.pipeline");
        let r = opts.pipeline.run(n);
        sp.record("regs_out", r.netlist.num_regs());
        sp.record("ands_out", r.netlist.num_ands());
        r
    };
    let bounds = {
        let _sp = span!("core.bound");
        pipelined.bound_targets(&opts.structural)
    };
    (0..n.targets().len())
        .map(|i| solve_target(n, i, opts, &swept, &pipelined, bounds[i].original))
        .collect()
}

fn solve_target(
    n: &Netlist,
    i: usize,
    opts: &StrategyOptions,
    swept: &diam_transform::com::SweepResult,
    pipelined: &PipelineResult,
    bound: Bound,
) -> TargetStatus {
    // 1. Random simulation.
    let hit = {
        let mut sp = span!("bmc.random", index = i);
        let hit = random_search(n, i, &opts.random);
        sp.record("hit", hit.is_some());
        hit
    };
    if let Some((depth, witness)) = hit {
        return TargetStatus::Failed {
            depth,
            witness,
            by: Engine::RandomSim,
        };
    }
    // 2. The swept-literal check.
    let t = n.targets()[i].lit;
    let collapsed = {
        let _sp = span!("transform.swept_check", index = i);
        swept.lit(t) == Some(Lit::FALSE)
    };
    if collapsed {
        return TargetStatus::Proved { by: Engine::Com };
    }
    // 3. Diameter-complete BMC, when the back-translated bound is in reach.
    let useful = match bound {
        Bound::Finite(b) => opts.depth_cap == 0 || b <= opts.depth_cap,
        _ => false,
    };
    event!("core.bound_check", index = i, useful = useful);
    if let (true, Bound::Finite(b)) = (useful, bound) {
        match diameter_complete_check(n, pipelined, i, b) {
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
    // 4. Symbolic reachability on small-enough cones.
    let cone_regs = {
        let _sp = span!("core.symbolic_cone", index = i);
        diam_netlist::analysis::coi(n, [t]).regs.len()
    };
    if opts.symbolic_reg_cap > 0 && cone_regs <= opts.symbolic_reg_cap {
        let mut sp = span!("core.symbolic", index = i);
        if let Ok(r) = reach(n, i, &SymbolicLimits::default()) {
            match r.earliest_hit {
                None => {
                    sp.record("decided", true);
                    return TargetStatus::Proved {
                        by: Engine::Symbolic,
                    };
                }
                Some(depth) => {
                    let replay = BmcOptions {
                        max_depth: depth,
                        ..BmcOptions::default()
                    };
                    if let BmcOutcome::Counterexample { depth, witness } = check(n, i, &replay) {
                        sp.record("decided", true);
                        return TargetStatus::Failed {
                            depth,
                            witness,
                            by: Engine::Symbolic,
                        };
                    }
                }
            }
        }
        sp.record("decided", false);
    }
    // 5. Invariant-strengthened induction.
    let mut sp = span!("bmc.induction", index = i);
    let outcome = k_induction_with_invariants(n, i, opts.max_induction, &swept.proven);
    sp.record("decided", outcome != InductionOutcome::Unknown);
    match outcome {
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
}

/// Engine 3 from public calls: the proof-prefix obligation, a bounded check
/// of the prefix on the original netlist, the rest on the transformed
/// netlist, and a lift of any transformed counterexample back home. Records
/// the depths unrolled, summed over every `check` it makes.
fn diameter_complete_check(
    n: &Netlist,
    pipelined: &PipelineResult,
    i: usize,
    b: u64,
) -> BmcOutcome {
    let mut sp = span!("bmc.diameter", index = i, bound = b);
    let opts = BmcOptions {
        max_depth: b.saturating_sub(1),
        ..BmcOptions::default()
    };
    let mut unrolled = 0u64;
    let outcome = 'check: {
        let prefix = {
            let _sp = span!("bmc.diameter.prefix_obligation", index = i);
            pipelined.prefix_obligation(i)
        };
        let Some(p) = prefix else {
            // A multiplicative step is in the chain: search the original.
            break 'check traced_check(n, i, &opts, &mut unrolled);
        };
        if p > 0 {
            let prefix = BmcOptions {
                max_depth: (p - 1).min(opts.max_depth),
                ..opts.clone()
            };
            match traced_check(n, i, &prefix, &mut unrolled) {
                BmcOutcome::NoHitUpTo(_) => {}
                decided => break 'check decided,
            }
            if p > opts.max_depth {
                break 'check BmcOutcome::NoHitUpTo(opts.max_depth);
            }
        }
        let suffix = BmcOptions {
            max_depth: opts.max_depth - p,
            ..opts.clone()
        };
        let transformed = {
            let _sp = span!("bmc.diameter.transformed", index = i);
            check(&pipelined.netlist, i, &suffix)
        };
        unrolled += depths_unrolled(&transformed);
        match transformed {
            BmcOutcome::Counterexample { witness, .. } => {
                let lifted = {
                    let _sp = span!("bmc.diameter.lift", index = i);
                    pipelined.lift_witness(i, &witness)
                };
                match lifted {
                    Some(lifted) => BmcOutcome::Counterexample {
                        depth: lifted.inputs.len() as u64 - 1,
                        witness: lifted,
                    },
                    // The enlargement corner case: search the original.
                    None => traced_check(n, i, &opts, &mut unrolled),
                }
            }
            BmcOutcome::NoHitUpTo(_) => BmcOutcome::NoHitUpTo(opts.max_depth),
            BmcOutcome::Unknown { depth } => BmcOutcome::Unknown { depth: depth + p },
        }
    };
    sp.record("depth", unrolled);
    outcome
}

/// A bounded check on the original netlist, under its own span.
fn traced_check(n: &Netlist, i: usize, opts: &BmcOptions, unrolled: &mut u64) -> BmcOutcome {
    let _sp = span!(
        "bmc.diameter.original",
        index = i,
        max_depth = opts.max_depth
    );
    let outcome = check(n, i, opts);
    *unrolled += depths_unrolled(&outcome);
    outcome
}

/// Depths a `check` unrolled before it returned `outcome`.
fn depths_unrolled(outcome: &BmcOutcome) -> u64 {
    match outcome {
        BmcOutcome::NoHitUpTo(d) => d + 1,
        BmcOutcome::Counterexample { depth, .. } | BmcOutcome::Unknown { depth } => depth + 1,
    }
}
