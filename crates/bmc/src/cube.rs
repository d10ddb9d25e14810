//! Cube-and-conquer splitting of deep BMC obligations.
//!
//! A depth-`d` obligation ("is the target hittable at exactly depth `d`?")
//! is split into `2^k` **cubes**: conjunctions of `k` assumption literals
//! over high-fanout state variables of the target's cone, encoded at the
//! middle frame `⌊d/2⌋`. The split is exhaustive by construction — every
//! assignment falls into exactly one cube — so:
//!
//! * every cube UNSAT ⇒ the depth is clean (same verdict as the monolithic
//!   solve);
//! * any cube SAT ⇒ a counterexample (its model extends to a full witness);
//! * any cube `Unknown` (conflict budget) without a SAT ⇒ `Unknown`.
//!
//! Cubes are farmed as [`diam_par`] jobs. Each worker **clones** the base
//! incremental solver — clones share the variable numbering, which is what
//! makes learnt-clause exchange sound: a clause learnt by one cube worker
//! is implied by the shared formula (assumptions enter conflict analysis as
//! decisions, never as axioms), so any sibling may
//! [`import_clause`](Solver::import_clause) it.
//!
//! ## Determinism contract
//!
//! * [`CubeMode::Reproducible`] — cube order is fixed, jobs are pure
//!   (no clause exchange, no sibling cancellation, no portfolio seeds), and
//!   the merge takes the first event in cube-index order: output is
//!   **bit-identical** across every `Parallelism` setting.
//! * [`CubeMode::Fast`] — glue clauses (LBD ≤ 2, the arena's core tier)
//!   travel through a lock-free [`Exchange`]; a SAT cube cancels its
//!   outstanding siblings through a hierarchical
//!   [`CancelToken::child`]; workers get per-cube restart jitter. Verdicts
//!   (SAT/UNSAT/Unknown and hit depths) are unchanged — only which valid
//!   witness is returned may vary.

use crate::{extract_witness, solve_traced, BmcOptions};
use diam_netlist::sim::Witness;
use diam_netlist::{GateKind, Lit, Netlist};
use diam_par::{CancelToken, Exchange};
use diam_sat::{Lit as SatLit, SolveResult, Solver};
use diam_transform::unroll::Unroller;

/// How cube-and-conquer treats determinism; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CubeMode {
    /// No cube splitting: every depth is one monolithic solve.
    #[default]
    Off,
    /// Fixed cube order, pure jobs, deterministic merge: bit-identical
    /// output across all `Parallelism` settings.
    Reproducible,
    /// Clause sharing + sibling cancellation + portfolio restart jitter:
    /// same verdicts, possibly different (always valid) witnesses.
    Fast,
}

impl CubeMode {
    /// Parses a `--cube` flag value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unparsable value.
    pub fn parse(s: &str) -> Result<CubeMode, String> {
        match s {
            "off" => Ok(CubeMode::Off),
            "repro" | "reproducible" => Ok(CubeMode::Reproducible),
            "fast" => Ok(CubeMode::Fast),
            _ => Err(format!(
                "bad --cube value {s:?} (expected `off`, `repro`, or `fast`)"
            )),
        }
    }
}

impl std::fmt::Display for CubeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeMode::Off => write!(f, "off"),
            CubeMode::Reproducible => write!(f, "repro"),
            CubeMode::Fast => write!(f, "fast"),
        }
    }
}

/// Options for the cube layer (a field of [`BmcOptions`]).
#[derive(Debug, Clone)]
pub struct CubeOptions {
    /// Splitting / determinism mode.
    pub mode: CubeMode,
    /// Cube variables per depth: `2^vars` cubes (clamped to the state
    /// variables actually available in the cone).
    pub vars: u32,
    /// Only depths at or above this are split; shallow obligations are
    /// cheaper monolithic.
    pub min_depth: u64,
}

impl Default for CubeOptions {
    fn default() -> CubeOptions {
        CubeOptions {
            mode: CubeMode::Off,
            vars: 3,
            min_depth: 4,
        }
    }
}

/// Glue tier that travels between cube workers (the arena's core tier).
const SHARE_LBD: u32 = 2;

/// Per-cube job result, merged in cube-index order.
enum CubeJob {
    Sat(Box<Solver>),
    Unsat,
    Unknown,
    /// The cube never ran: a sibling's SAT (or the parent token) cancelled
    /// it. Only observed when an earlier-merged cube is SAT or the parent
    /// was cancelled.
    Cancelled,
}

/// Whether this depth should be cube-split at all.
pub(crate) fn applicable(opts: &BmcOptions, depth: u64) -> bool {
    opts.cube.mode != CubeMode::Off && depth >= opts.cube.min_depth && opts.cube.vars > 0
}

/// Picks up to `k` cube literals: registers of the target's cone of
/// influence, scored by static fanout (descending; gate index ascending as
/// the tie-break — a deterministic "most constrained first" lookahead),
/// encoded at the middle frame `⌊depth/2⌋` of the unrolling. Encoding may
/// create frames/variables, which is why the base solver is mutated here —
/// *before* it is cloned for the cube workers.
fn select_cube_lits(
    n: &Netlist,
    solver: &mut Solver,
    unroller: &mut Unroller<'_>,
    target: Lit,
    depth: u64,
    k: u32,
) -> Vec<SatLit> {
    let cone = diam_netlist::analysis::coi(n, [target]);
    if cone.regs.is_empty() {
        return Vec::new();
    }
    // Static fanout per gate: references as an AND fanin or a register's
    // next-state function.
    let mut fanout = vec![0u32; n.num_gates()];
    for g in n.gates() {
        match n.kind(g) {
            GateKind::And(a, b) => {
                fanout[a.gate().index()] += 1;
                fanout[b.gate().index()] += 1;
            }
            GateKind::Reg => fanout[n.reg_next(g).gate().index()] += 1,
            _ => {}
        }
    }
    let mut scored: Vec<(u32, diam_netlist::Gate)> =
        cone.regs.iter().map(|&r| (fanout[r.index()], r)).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));

    let frame = (depth / 2) as usize;
    let mut lits: Vec<SatLit> = Vec::new();
    for (_, r) in scored {
        let l = unroller.lit_at(solver, r.lit(), frame);
        // Distinct SAT variables only: equivalent registers would produce
        // trivially empty cubes.
        if lits.iter().all(|p| p.var() != l.var()) {
            lits.push(l);
        }
        if lits.len() >= k as usize {
            break;
        }
    }
    lits
}

/// Solves the depth-`depth` obligation of `target` by cube-and-conquer:
/// every cube UNSAT is `Unsat`, a SAT cube is `Sat` with the witness from
/// the winning worker's model, and otherwise the depth is `Unknown`.
/// Returns `None` when the cone has no state variables to split on; the
/// caller then solves the depth monolithically.
///
/// The base incremental `solver`/`unroller` pair is mutated only by
/// encoding (the obligation literal and the cube frame); the search runs on
/// per-cube clones, so the
/// base solver's clause database is untouched and the caller's depth loop
/// continues as if a monolithic solve had returned. `parent` chains the
/// cube group under the caller's cancellation scope: cancelling the parent
/// cancels every outstanding cube.
pub(crate) fn solve_depth_cubes(
    n: &Netlist,
    solver: &mut Solver,
    unroller: &mut Unroller<'_>,
    target: Lit,
    depth: u64,
    parent: Option<&CancelToken>,
    opts: &BmcOptions,
) -> Option<(SolveResult, Option<Witness>)> {
    let obligation = unroller.lit_at(solver, target, depth as usize);
    let cube_lits = select_cube_lits(n, solver, unroller, target, depth, opts.cube.vars);
    if cube_lits.is_empty() {
        return None;
    }
    let k = cube_lits.len() as u32;
    let ncubes = 1usize << k;
    let fast = opts.cube.mode == CubeMode::Fast;
    let mut sp = diam_obs::span!(
        "cube.split",
        depth = depth,
        cubes = ncubes,
        mode = if fast { "fast" } else { "repro" }
    );

    // The cube group hangs off the caller's token: a parent cancellation
    // reaches every cube, while a SAT cube cancels only its siblings.
    let root;
    let group = match parent {
        Some(t) => t.child(),
        None => {
            root = CancelToken::new();
            root.child()
        }
    };
    // Clause mailbox: one slot budget generous enough that glue overflow is
    // rare; overflow only drops sharing, never soundness.
    let exchange: Exchange<(usize, Vec<SatLit>)> = Exchange::new(ncubes * 256);

    let base = &*solver;
    let results = diam_par::run_with_token(
        opts.parallelism,
        &group,
        (0..ncubes).collect::<Vec<usize>>(),
        |_| 1,
        |_, m, token| {
            if token.is_cancelled() {
                return CubeJob::Cancelled;
            }
            let mut sp = diam_obs::span!("cube.solve", depth = depth, cube = m);
            let mut s = base.clone();
            let mut assumptions = vec![obligation];
            for (bit, &l) in cube_lits.iter().enumerate() {
                assumptions.push(if m >> bit & 1 == 1 { l } else { !l });
            }
            if fast {
                s.set_share_lbd_max(SHARE_LBD);
                // Portfolio jitter: a distinct nonzero restart seed per cube
                // (mixed with the caller's portfolio seed when one is set).
                s.set_restart_seed(0x9E37_79B9 ^ opts.portfolio ^ ((depth << 16) + m as u64 + 1));
                let imported_before = s.stats_ref().shared_in;
                let mut cursor = 0usize;
                for (from, clause) in exchange.drain_from(&mut cursor) {
                    if *from != m && !s.import_clause(clause) {
                        // Import proved the shared encoding root-UNSAT
                        // under no assumptions — every cube is UNSAT.
                        break;
                    }
                }
                // Imports land before `solve_traced`'s stats window opens;
                // attribute them to this cube's span explicitly.
                diam_obs::charge_sat_shared(s.stats_ref().shared_in - imported_before, 0);
            }
            let r = solve_traced(&mut s, &assumptions, depth);
            if fast {
                for clause in s.take_shared() {
                    exchange.publish((m, clause));
                }
            }
            match r {
                SolveResult::Sat => {
                    if fast {
                        // Siblings cannot contribute anything further.
                        token.cancel();
                    }
                    sp.record("outcome", "sat");
                    CubeJob::Sat(Box::new(s))
                }
                SolveResult::Unsat => {
                    s.mark_cube_refuted();
                    diam_obs::counter_add("cube.refuted", 1);
                    sp.record("outcome", "unsat");
                    CubeJob::Unsat
                }
                SolveResult::Unknown => {
                    sp.record("outcome", "unknown");
                    CubeJob::Unknown
                }
            }
        },
    );

    if exchange.dropped() > 0 {
        diam_obs::counter_add("cube.share_dropped", exchange.dropped() as u64);
    }

    // Merge in cube-index order; the first decisive event wins. In
    // reproducible mode no job is ever cancelled, so this scan is a pure
    // function of the job results — thread-count independent.
    let mut unknown = false;
    let mut refuted = 0u64;
    let mut sat: Option<Box<Solver>> = None;
    for job in results {
        match job {
            CubeJob::Sat(s) if sat.is_none() => sat = Some(s),
            CubeJob::Sat(_) => {}
            CubeJob::Unsat => refuted += 1,
            CubeJob::Unknown => unknown = true,
            // Cancelled cubes are unobserved verdicts: sound only because
            // either a SAT sibling decides the depth or the parent was
            // cancelled (the caller then discards this depth entirely).
            CubeJob::Cancelled => unknown = true,
        }
    }
    // Book-keep refuted cubes on the long-lived base solver so the counter
    // survives this depth (and shows up in end-of-run stats).
    for _ in 0..refuted {
        solver.mark_cube_refuted();
    }
    sp.record("refuted", refuted);
    Some(if let Some(winner) = sat {
        sp.record("outcome", "sat");
        let witness = extract_witness(n, unroller, &winner, depth as usize);
        (SolveResult::Sat, Some(witness))
    } else if unknown {
        sp.record("outcome", "unknown");
        (SolveResult::Unknown, None)
    } else {
        sp.record("outcome", "unsat");
        (SolveResult::Unsat, None)
    })
}
