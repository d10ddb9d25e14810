//! Profile-matched synthetic benchmark designs.
//!
//! The paper evaluates on ISCAS89 and proprietary IBM Gigahertz Processor
//! netlists; neither ships with this repository (see DESIGN.md §3). What the
//! experiment actually consumes, per design, is a *structural profile*: how
//! many registers fall into each class (CC / AC / MC+QC / GC), how many
//! targets exist, and how many become boundable (`d̂ < 50`) under each
//! transformation column. [`DesignProfile`] captures exactly those numbers
//! — copied from the paper's tables — and [`build`] synthesizes a netlist
//! exercising the identical code paths:
//!
//! * `useful_orig` targets observe shallow pipelines, small memories and
//!   tiny counters — boundable as-is;
//! * `useful_com − useful_orig` targets additionally observe the XOR
//!   difference of a **duplicated counter pair**: a large GC cone that only
//!   *sequential redundancy removal* collapses (Theorem 1 gain);
//! * `useful_ret − useful_com` targets observe a small counter **fed
//!   through a deep pipeline**: the multiplicative structural composition
//!   `(1 + depth) · 2^k` exceeds the threshold until retiming absorbs the
//!   pipeline into the stump, turning the factor into the additive lag of
//!   Theorem 2;
//! * the remaining targets observe large register rings whose exponential
//!   GC bound no transformation can rescue.
//!
//! Register budgets are drawn from the profile's class counts so the
//! reported classification columns track the paper's.

use crate::archetypes::{big_ring, constants, counter, duplicate_counter, pipeline, register_file};
use diam_netlist::sim::SplitMix64;
use diam_netlist::{Lit, Netlist};

/// A design row from the paper's tables.
#[derive(Debug, Clone)]
pub struct DesignProfile {
    /// Design name (as in Table 1 / Table 2).
    pub name: &'static str,
    /// Constant registers (CC) in the original netlist.
    pub cc: usize,
    /// Acyclic registers (AC).
    pub ac: usize,
    /// Memory/queue cells (MC+QC).
    pub mc: usize,
    /// General registers (GC).
    pub gc: usize,
    /// Total targets |T|.
    pub targets: usize,
    /// |T′| with `d̂ < 50` on the original netlist.
    pub useful_orig: usize,
    /// |T′| after COM.
    pub useful_com: usize,
    /// |T′| after COM,RET,COM.
    pub useful_ret: usize,
    /// Paper-reported average `d̂(t′)` per column (for EXPERIMENTS.md).
    pub avg: [f32; 3],
}

impl DesignProfile {
    /// Target-category counts `(useful-now, com-gain, ret-gain, dead)`,
    /// clamped to the target total.
    pub fn categories(&self) -> (usize, usize, usize, usize) {
        let u0 = self.useful_orig.min(self.targets);
        let u1 = self
            .useful_com
            .saturating_sub(self.useful_orig)
            .min(self.targets - u0);
        let u2 = self
            .useful_ret
            .saturating_sub(self.useful_com.max(self.useful_orig))
            .min(self.targets - u0 - u1);
        let dead = self.targets - u0 - u1 - u2;
        (u0, u1, u2, dead)
    }
}

/// Builds the synthetic netlist for a profile. Deterministic per
/// `(profile.name, seed)`.
pub fn build(profile: &DesignProfile, seed: u64) -> Netlist {
    let mut rng = SplitMix64::new(seed ^ name_hash(profile.name));
    let mut n = Netlist::new();
    let (u0, u1, u2, dead) = profile.categories();

    // Budgets (consumed greedily; every register ends up inside some
    // target's cone so the table's classification columns track the
    // profile). The serialized structural composition multiplies component
    // factors, so each *useful* target observes exactly one bounded
    // structure: a pipeline chain (+L), one memory (×rows+1), or one small
    // counter (×2^k).
    let mut ac_left = profile.ac;
    let mut mc_left = profile.mc;
    let mut gc_left = profile.gc;

    // --- shared structures ------------------------------------------------
    // RET-gain structure: deep pipeline gating a small counter. Before
    // retiming the serialized bound is (1 + depth) · 2^3 ≥ the threshold;
    // after retiming the pipeline lives in the stump and the bound is
    // 2^3 + depth.
    let ret_struct = if u2 > 0 {
        let depth = (ac_left / 2).clamp(6, 12);
        ac_left = ac_left.saturating_sub(depth);
        let k = 3usize;
        gc_left = gc_left.saturating_sub(k);
        let p = pipeline(&mut n, "retp", depth);
        let c = counter(&mut n, "retc", k, p.tail);
        Some((p, c))
    } else {
        None
    };
    // COM-gain structure: duplicated counter pair. Only sequential
    // redundancy removal can merge the copies; until then the pair's
    // 2^k · 2^k factor keeps its observers unboundable.
    let com_struct = if u1 > 0 {
        let k = if gc_left >= 14 {
            7
        } else {
            6.min(gc_left / 2).max(3)
        };
        gc_left = gc_left.saturating_sub(2 * k);
        let en = n.input("dup_en");
        let (a, b) = duplicate_counter(&mut n, "dup", k, en.lit());
        let diffs: Vec<Lit> = a
            .bits
            .iter()
            .zip(&b.bits)
            .map(|(&x, &y)| n.xor(x, y))
            .collect();
        let any_diff = n.or_many(diffs);
        let top = *a.bits.last().expect("counter has bits");
        Some((any_diff, top))
    } else {
        None
    };
    // Useful-now pool pipeline (the tap source for u0 and u1 targets).
    let u0_pipe = {
        let depth = (ac_left / 3).clamp(2, 5).min(ac_left.max(1));
        let p = pipeline(&mut n, "u0p", depth);
        ac_left = ac_left.saturating_sub(depth);
        p
    };
    // Small counter for counter-variant useful targets.
    let u0_counter = {
        let bits = if dead == 0 {
            gc_left.min(5)
        } else if gc_left >= 10 {
            2
        } else {
            0
        };
        if bits >= 2 && u0 > 0 {
            gc_left -= bits;
            let en = n.input("u0_en");
            Some(counter(&mut n, "u0c", bits, en.lit()))
        } else {
            None
        }
    };
    // Constants.
    let consts = constants(&mut n, "cc", profile.cc);

    // --- u0 variants --------------------------------------------------------
    // Decide which variants this design supports, then assign targets
    // round-robin. Memory-variant targets each own one 2-row memory
    // (×3 ≤ threshold); their widths absorb the MC budget when there are no
    // dead targets to host filler memories.
    #[derive(Clone, Copy, PartialEq)]
    enum Variant {
        Tap,
        Mem,
        Counter,
    }
    let mut variants = Vec::new();
    // With no dead targets the whole MC budget must live in useful cones:
    // memory-variant targets get priority.
    if mc_left >= 4 && u0 > 0 && dead == 0 {
        variants.push(Variant::Mem);
    }
    if !u0_pipe.regs.is_empty() {
        variants.push(Variant::Tap);
    }
    if mc_left >= 4 && u0 > 0 && dead > 0 {
        variants.push(Variant::Mem);
    }
    if u0_counter.is_some() {
        variants.push(Variant::Counter);
    }
    if variants.is_empty() {
        variants.push(Variant::Tap); // degenerate: tap of an empty pipe = input
    }
    let assigned: Vec<Variant> = (0..u0).map(|i| variants[i % variants.len()]).collect();
    let mem_hosts = assigned.iter().filter(|&&v| v == Variant::Mem).count();

    // u0 memories: one per mem host. With dead targets available, keep them
    // small (the dead side hosts the rest of the budget); otherwise size the
    // widths to consume the whole MC budget.
    let mut u0_mems = Vec::new();
    if mem_hosts > 0 {
        let per_host_cells = if dead == 0 {
            mc_left.checked_div(mem_hosts).unwrap_or(0).max(2)
        } else {
            4
        };
        for h in 0..mem_hosts {
            if mc_left < 2 {
                break;
            }
            let width = (per_host_cells / 2).clamp(1, mc_left / 2);
            let m = register_file(&mut n, &format!("u0m{h}"), 2, width);
            mc_left = mc_left.saturating_sub(2 * width);
            u0_mems.push(m);
        }
    }

    // Leftover memories with no dead targets and no (or insufficient) u0
    // mem hosts are hosted by the u1/u2 targets: one extra ×(2+1) factor
    // keeps them comfortably below the threshold after their unlocking
    // transformation.
    let mut aux_mems = Vec::new();
    if mc_left >= 4 && dead == 0 {
        let hosts = (u1 + u2).max(1);
        let per_host_cells = (mc_left / hosts).max(2);
        for h in 0..hosts {
            if mc_left < 2 {
                break;
            }
            let width = (per_host_cells / 2).clamp(1, mc_left / 2);
            let m = register_file(&mut n, &format!("am{h}"), 2, width);
            mc_left = mc_left.saturating_sub(2 * width);
            aux_mems.push(m);
        }
    }

    // --- dead-side structures ------------------------------------------------
    // Rings from the remaining GC budget; remainders below 8 registers are
    // absorbed so no accidentally-boundable small GC exists.
    let mut rings: Vec<Vec<diam_netlist::Gate>> = Vec::new();
    {
        let mut left = gc_left;
        let mut idx = 0;
        while left >= 8 {
            let mut size = left.min(24 + (rng.below(16) as usize));
            if left - size < 8 {
                size = left;
            }
            rings.push(big_ring(&mut n, &format!("ring{idx}"), size, &mut rng));
            left -= size;
            idx += 1;
        }
        if left >= 2 && dead == 0 {
            rings.push(big_ring(&mut n, &format!("ring{idx}"), left, &mut rng));
        }
    }
    // Filler memories (hosted by dead targets): few, wide, 4 rows.
    let filler_mems: Vec<_> = {
        let mut v = Vec::new();
        let mut idx = 0;
        while mc_left >= 4 && dead > 0 {
            let rows = 4.min(mc_left / 2).max(2);
            let width = (mc_left / rows).clamp(1, 16);
            let m = register_file(&mut n, &format!("fm{idx}"), rows, width);
            mc_left = mc_left.saturating_sub(rows * width);
            v.push(m);
            idx += 1;
        }
        v
    };
    // Filler pipelines: or-folded into tap-variant u0 targets (L = max
    // depth, so any number of parallel pipes is still cheap) and into dead
    // targets.
    let filler_pipes: Vec<_> = {
        let mut v = Vec::new();
        let mut idx = 0;
        while ac_left > 0 {
            let depth = ac_left.min(4 + rng.below(5) as usize).max(1);
            v.push(pipeline(&mut n, &format!("fp{idx}"), depth));
            ac_left -= depth;
            idx += 1;
        }
        v
    };

    // --- targets ------------------------------------------------------------
    let tap_hosts: Vec<usize> = assigned
        .iter()
        .enumerate()
        .filter_map(|(i, &v)| (v == Variant::Tap).then_some(i))
        .collect();
    let pipe_share = |i: usize| -> Vec<Lit> {
        // Filler pipes split between tap-variant u0 targets and dead ones.
        let hosts = match tap_hosts.len() + dead {
            0 => return Vec::new(),
            h => h,
        };
        filler_pipes
            .iter()
            .enumerate()
            .filter(|(j, _)| j % hosts == i % hosts)
            .map(|(_, p)| p.tail)
            .collect()
    };
    let mut target_idx = 0usize;
    let mut add_target = |n: &mut Netlist, lit: Lit, tag: &str| {
        n.add_target(lit, format!("{}_{tag}{target_idx}", profile.name));
        target_idx += 1;
    };

    let mut mem_cursor = 0usize;
    let mut tap_cursor = 0usize;
    for (i, &variant) in assigned.iter().enumerate() {
        let mut lit = match variant {
            Variant::Tap => {
                let tap = if u0_pipe.regs.is_empty() {
                    u0_pipe.tail
                } else {
                    u0_pipe.regs[i % u0_pipe.regs.len()].lit()
                };
                let host = tap_cursor;
                tap_cursor += 1;
                let mut l = tap;
                for f in pipe_share(host) {
                    l = n.or(l, f);
                }
                l
            }
            Variant::Mem => {
                let m = &u0_mems[mem_cursor % u0_mems.len().max(1)];
                mem_cursor += 1;
                let row = &m.cells[i % m.cells.len()];
                let bits: Vec<Lit> = row.iter().map(|r| r.lit()).collect();
                n.or_many(bits)
            }
            Variant::Counter => {
                let c = u0_counter
                    .as_ref()
                    .expect("counter variant implies counter");
                c.bits[i % c.bits.len()]
            }
        };
        if !consts.is_empty() && i % 3 == 0 {
            let one = consts[1.min(consts.len() - 1)];
            lit = n.and(lit, one.lit());
        }
        add_target(&mut n, lit, "u0_");
    }
    // COM-gain targets: shallow tap ∨ duplicate-pair difference (∨ an aux
    // memory row when this design has nowhere else to put its MC budget).
    for i in 0..u1 {
        let base = u0_pipe
            .regs
            .first()
            .map(|r| r.lit())
            .unwrap_or(u0_pipe.tail);
        let (diff, _) = com_struct.expect("u1 > 0 implies the structure exists");
        let varied = base.xor_complement(i % 2 == 1);
        let mut lit = n.or(varied, diff);
        if !aux_mems.is_empty() {
            let m = &aux_mems[i % aux_mems.len()];
            let row = &m.cells[i % m.cells.len()];
            let bits: Vec<Lit> = row.iter().map(|r| r.lit()).collect();
            let row_or = n.or_many(bits);
            lit = n.or(lit, row_or);
        }
        add_target(&mut n, lit, "u1_");
    }
    // RET-gain targets: functions of the gated counter including its top
    // bit, so every one carries the full (1 + depth) · 2^3 factor.
    for i in 0..u2 {
        let (_, c) = ret_struct.as_ref().expect("u2 > 0 implies the structure");
        let top = *c.bits.last().expect("counter has bits");
        let other = c.bits[i % (c.bits.len() - 1).max(1)];
        let mut lit = if i % 2 == 0 {
            n.and(top, other)
        } else {
            n.and(top, !other)
        };
        if !aux_mems.is_empty() && u1 == 0 {
            let m = &aux_mems[i % aux_mems.len()];
            let row = &m.cells[i % m.cells.len()];
            let bits: Vec<Lit> = row.iter().map(|r| r.lit()).collect();
            let row_or = n.or_many(bits);
            lit = n.or(lit, row_or);
        }
        add_target(&mut n, lit, "u2_");
    }
    // Dead targets: rings (largest first) plus the filler share.
    for i in 0..dead {
        let mut lit = match rings.first() {
            Some(big) => {
                let mut l = big[i % big.len()].lit();
                if rings.len() > 1 {
                    let other = &rings[i % rings.len()];
                    l = n.or(l, other[i % other.len()].lit());
                }
                l
            }
            None => match com_struct {
                Some((_, top)) => top,
                None => Lit::FALSE,
            },
        };
        if !filler_mems.is_empty() {
            let m = &filler_mems[i % filler_mems.len()];
            let row = &m.cells[i % m.cells.len()];
            let bits: Vec<Lit> = row.iter().map(|r| r.lit()).collect();
            let row_or = n.or_many(bits);
            lit = n.or(lit, row_or);
        }
        for f in pipe_share(tap_hosts.len() + i) {
            lit = n.or(lit, f);
        }
        if !consts.is_empty() {
            lit = n.or(lit, consts[0].lit());
        }
        add_target(&mut n, lit, "dead_");
    }
    n
}

fn name_hash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_core::{Bound, Pipeline, StructuralOptions, USEFUL_THRESHOLD};

    fn sample_profile() -> DesignProfile {
        DesignProfile {
            name: "SAMPLE",
            cc: 2,
            ac: 40,
            mc: 16,
            gc: 60,
            targets: 10,
            useful_orig: 3,
            useful_com: 5,
            useful_ret: 7,
            avg: [3.0, 4.0, 5.0],
        }
    }

    #[test]
    fn build_is_deterministic() {
        let p = sample_profile();
        let a = build(&p, 1);
        let b = build(&p, 1);
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.num_regs(), b.num_regs());
        assert_eq!(a.targets().len(), p.targets);
        a.validate().unwrap();
    }

    #[test]
    fn register_budget_is_respected() {
        let p = sample_profile();
        let n = build(&p, 1);
        let total = p.cc + p.ac + p.mc + p.gc;
        // Some slack is inevitable (duplicate pairs, queue tokens), but the
        // register count must track the profile.
        let regs = n.num_regs();
        assert!(
            regs as f64 >= total as f64 * 0.7 && regs as f64 <= total as f64 * 1.3,
            "built {regs} registers for a profile of {total}"
        );
    }

    #[test]
    fn transformation_columns_improve_useful_counts() {
        let p = sample_profile();
        let n = build(&p, 1);
        let opts = StructuralOptions::default();
        let count_useful = |pipe: &Pipeline| {
            pipe.bound_targets(&n, &opts)
                .iter()
                .filter(|b| b.original.is_useful(USEFUL_THRESHOLD))
                .count()
        };
        let orig = count_useful(&Pipeline::new());
        let com = count_useful(&Pipeline::com());
        let ret = count_useful(&Pipeline::com_ret_com());
        assert_eq!(orig, 3, "useful-now targets");
        assert!(com >= 5, "COM unlocks the duplicate-pair targets: {com}");
        assert!(ret >= 7, "RET unlocks the gated-counter targets: {ret}");
    }

    #[test]
    fn dead_targets_stay_dead() {
        let p = sample_profile();
        let n = build(&p, 1);
        let opts = StructuralOptions::default();
        let bounds = Pipeline::com_ret_com().bound_targets(&n, &opts);
        let dead: Vec<_> = bounds.iter().filter(|b| b.name.contains("dead")).collect();
        assert!(!dead.is_empty());
        assert!(
            dead.iter().all(|b| !b.original.is_useful(USEFUL_THRESHOLD)),
            "ring-observing targets must stay unboundable"
        );
    }

    #[test]
    fn ret_targets_need_retiming() {
        let p = sample_profile();
        let n = build(&p, 1);
        let opts = StructuralOptions::default();
        let com = Pipeline::com().bound_targets(&n, &opts);
        let ret = Pipeline::com_ret_com().bound_targets(&n, &opts);
        for (c, r) in com.iter().zip(&ret) {
            if c.name.contains("u2_") {
                assert!(
                    !c.original.is_useful(USEFUL_THRESHOLD),
                    "{}: useful before RET",
                    c.name
                );
                assert!(
                    r.original.is_useful(USEFUL_THRESHOLD),
                    "{}: still useless after RET",
                    r.name
                );
                assert!(matches!(r.original, Bound::Finite(_)));
            }
        }
    }
}
