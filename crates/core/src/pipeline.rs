//! The transformation pipeline — the paper's contribution, as an API.
//!
//! A [`Pipeline`] is a schedule of certificate-carrying passes (the
//! [`diam_transform::pass`] framework). Running it applies each engine and
//! accumulates a [`CertificateChain`] carrying, per target, *both*
//! directions of the per-theorem correspondence:
//!
//! | Engine | Theorem | Bound map | Trace map |
//! |---|---|---|---|
//! | cone-of-influence reduction | 1 | identity | gate-map read-back |
//! | redundancy removal (COM) | 1 | identity | gate-map read-back |
//! | parametric re-encoding | 1 | identity | per-frame cut inversion |
//! | retiming (RET) | 2 | `d̂ ↦ d̂ + (−lag(t))` | lag-shifted prefix |
//! | phase / c-slow abstraction | 3 | `d̂ ↦ c · d̂` | c-slow frame expansion |
//! | target enlargement | 4 | `d̂ ↦ d̂ + k` | k-suffix extension |
//!
//! After the pipeline runs, a diameter bound computed on the *final* netlist
//! (with any technique — the structural engine of [`crate::structural`],
//! the recurrence diameter, or anything else) is mapped back to a bound for
//! the *original* netlist in constant time by replaying the recorded steps
//! in reverse ([`PipelineResult::back_translate`]); a counterexample found
//! on the final netlist is mapped back to a replay-valid counterexample of
//! the original by [`PipelineResult::lift_witness`].
//!
//! # Scheduling
//!
//! Pipelines are sequences of [`Element`]s: single engines or *fixpoint
//! groups* (`com*`, `(com,ret)*:3`) that repeat until the netlist's
//! structural [`fingerprint`] stops changing (or a repeat bound / the
//! global iteration cap is reached). Passes that do not change the
//! fingerprint are treated as no-ops: their certificate and log entry are
//! dropped, so chains stay minimal.
//!
//! Over- and under-approximate engines (localization, case splitting)
//! intentionally have **no** [`Engine`] variant: Sections 3.5–3.6 of the
//! paper show their bounds do not transfer, and this module makes that
//! unrepresentable. (See `diam_transform::approx` for the engines
//! themselves and the workspace tests for concrete netlists where their
//! bounds are wrong in both directions.)

use crate::bound::Bound;
use crate::structural::{diameter_bound, StructuralOptions, TargetBound};
use diam_netlist::sim::Witness;
use diam_netlist::stats::fingerprint;
use diam_netlist::{Lit, Netlist};
use diam_transform::com::SweepOptions;
use diam_transform::enlarge::EnlargeOptions;
use diam_transform::pass::{
    apply_traced, BoundStep, CertificateChain, CoiPass, ComPass, EnlargePass, FoldPass,
    ParametricPass, Pass, RetimePass,
};
use std::fmt;

/// Iteration cap for unbounded fixpoint groups (`com*`): a safety valve
/// against engines that oscillate instead of converging.
const MAX_STAR_ITERS: u32 = 64;

/// One transformation engine of a pipeline.
#[derive(Debug, Clone)]
pub enum Engine {
    /// Cone-of-influence reduction (Theorem 1).
    Coi,
    /// Redundancy removal (Theorem 1).
    Com(SweepOptions),
    /// Normalized min-register retiming (Theorem 2).
    Retime,
    /// Phase / c-slow abstraction with the given preferred factor for
    /// acyclic register graphs (Theorem 3). Skipped silently when no factor
    /// ≥ 2 exists.
    Fold {
        /// Folding factor used when the register graph is acyclic
        /// (two-phase designs use 2).
        preferred: u32,
    },
    /// k-step enlargement of every target (Theorem 4).
    Enlarge(EnlargeOptions),
    /// Parametric re-encoding of automatically selected input-fed cuts
    /// (Theorem 1). Skipped silently when no usable cut exists.
    Parametric,
}

impl Engine {
    /// The certificate-carrying pass implementing this engine.
    fn pass(&self) -> Box<dyn Pass> {
        match self {
            Engine::Coi => Box::new(CoiPass),
            Engine::Com(opts) => Box::new(ComPass(opts.clone())),
            Engine::Retime => Box::new(RetimePass),
            Engine::Fold { preferred } => Box::new(FoldPass {
                preferred: *preferred,
            }),
            Engine::Enlarge(opts) => Box::new(EnlargePass(opts.clone())),
            Engine::Parametric => Box::new(ParametricPass),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Coi => write!(f, "COI"),
            Engine::Com(_) => write!(f, "COM"),
            Engine::Retime => write!(f, "RET"),
            Engine::Fold { preferred } => write!(f, "FOLD({preferred})"),
            Engine::Enlarge(o) => write!(f, "ENL({})", o.k),
            Engine::Parametric => write!(f, "PARAM"),
        }
    }
}

/// One scheduling element of a pipeline.
#[derive(Debug, Clone)]
pub enum Element {
    /// Apply the engine once.
    Single(Engine),
    /// Apply the engine group repeatedly until the netlist fingerprint
    /// stabilizes, up to the given repeat bound (`None` = the global cap).
    Star(Vec<Engine>, Option<u32>),
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Element::Single(e) => write!(f, "{e}"),
            Element::Star(engines, bound) => {
                if engines.len() == 1 {
                    write!(f, "{}*", engines[0])?;
                } else {
                    write!(f, "(")?;
                    for (i, e) in engines.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")*")?;
                }
                if let Some(n) = bound {
                    write!(f, ":{n}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.elements.is_empty() {
            return write!(f, "none");
        }
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

/// A recorded back-translation step for one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackStep {
    /// Theorem 2 / Theorem 4: add a constant.
    Add(u64),
    /// Theorem 3: multiply by the folding factor.
    Mul(u64),
}

impl From<BoundStep> for BackStep {
    fn from(s: BoundStep) -> BackStep {
        match s {
            BoundStep::Add(k) => BackStep::Add(k),
            BoundStep::Mul(c) => BackStep::Mul(c),
        }
    }
}

/// A schedule of engines.
///
/// Renders as a comma-separated element list (`COI,COM,RET,COM`,
/// `COI,COM*,(COM,RET)*:3`), mirroring the (lowercase) grammar
/// [`Pipeline::parse`] accepts.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    elements: Vec<Element>,
}

impl Pipeline {
    /// The spec of the default verdict pipeline, the paper's `COM,RET,COM`
    /// column ([`Pipeline::com_ret_com`]). `diam` prints it in its `bound`
    /// header and the portfolio strategy parses it.
    pub const DEFAULT_SPEC: &'static str = "com-ret-com";

    /// An empty pipeline (bounds and witnesses transfer unchanged).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Appends an engine, applied once.
    #[must_use]
    pub fn then(mut self, e: Engine) -> Pipeline {
        self.elements.push(Element::Single(e));
        self
    }

    /// Appends a fixpoint group: the engines repeat (in order) until the
    /// netlist fingerprint stabilizes or `bound` iterations have run
    /// (`None` = the global cap).
    #[must_use]
    pub fn then_star(mut self, engines: Vec<Engine>, bound: Option<u32>) -> Pipeline {
        self.elements.push(Element::Star(engines, bound));
        self
    }

    /// Parses a comma-separated element list. Elements are engines —
    /// `coi`, `com`, `ret`, `fold[:c]`, `enl[:k]`, `param` — optionally
    /// starred into fixpoint groups: `com*` (repeat until no structural
    /// change), `com*:3` (at most 3 repeats), `(com,ret)*:2` (repeat the
    /// group). Examples: `"coi,com,ret,com"`, `"coi,com*"`,
    /// `"coi,(com,ret)*:2,enl:1"`.
    ///
    /// Also accepts the aliases `none` (empty) and the canned `com` /
    /// `com-ret-com` pipelines when used as the whole string.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending element.
    pub fn parse(spec: &str) -> Result<Pipeline, String> {
        match spec.trim() {
            "none" | "" => return Ok(Pipeline::new()),
            "com" => return Ok(Pipeline::com()),
            "com-ret-com" => return Ok(Pipeline::com_ret_com()),
            _ => {}
        }
        let mut p = Pipeline::new();
        for token in split_elements(spec)? {
            p.elements.push(parse_element(token.trim())?);
        }
        Ok(p)
    }

    /// The paper's `COM` column: cone-of-influence + redundancy removal.
    pub fn com() -> Pipeline {
        Pipeline::new()
            .then(Engine::Coi)
            .then(Engine::Com(SweepOptions::default()))
    }

    /// The paper's `COM,RET,COM` column.
    pub fn com_ret_com() -> Pipeline {
        Pipeline::new()
            .then(Engine::Coi)
            .then(Engine::Com(SweepOptions::default()))
            .then(Engine::Retime)
            .then(Engine::Com(SweepOptions::default()))
    }

    /// Runs the pipeline on `n`.
    ///
    /// Each applied pass runs under the unified `pass.apply` observability
    /// span (see [`diam_transform::pass::apply_traced`]); passes that leave
    /// the netlist structurally unchanged contribute neither a certificate
    /// nor a log entry.
    pub fn run(&self, n: &Netlist) -> PipelineResult {
        let _sp = diam_obs::span!(
            "pipeline.run",
            elements = self.elements.len(),
            targets = n.targets().len()
        );
        let mut state = RunState {
            netlist: n.clone(),
            fp: fingerprint(n),
            chain: CertificateChain::new(),
            log: Vec::new(),
        };
        for el in &self.elements {
            match el {
                Element::Single(e) => {
                    state.apply(e);
                }
                Element::Star(engines, bound) => {
                    let cap = bound.unwrap_or(MAX_STAR_ITERS).min(MAX_STAR_ITERS);
                    for _ in 0..cap {
                        let mut changed = false;
                        for e in engines {
                            changed |= state.apply(e);
                        }
                        if !changed {
                            break;
                        }
                    }
                }
            }
        }
        let steps = (0..n.targets().len())
            .map(|i| {
                state
                    .chain
                    .bound_steps(i)
                    .into_iter()
                    .map(BackStep::from)
                    .collect()
            })
            .collect();
        PipelineResult {
            original_targets: n.targets().len(),
            netlist: state.netlist,
            steps,
            chain: state.chain,
            log: state.log,
        }
    }

    /// Convenience: runs the pipeline and computes structural diameter
    /// bounds for every target, back-translated to the original netlist.
    pub fn bound_targets(&self, n: &Netlist, opts: &StructuralOptions) -> Vec<PipelinedBound> {
        let result = self.run(n);
        result.bound_targets(opts)
    }
}

/// The pass manager's mutable state while a pipeline runs.
struct RunState {
    netlist: Netlist,
    fp: u64,
    chain: CertificateChain,
    log: Vec<StepLog>,
}

impl RunState {
    /// Applies one engine; returns whether the netlist changed. Passes that
    /// do not apply, or apply without changing the structural fingerprint,
    /// are no-ops: nothing is recorded.
    fn apply(&mut self, e: &Engine) -> bool {
        let pass = e.pass();
        let Some(out) = apply_traced(pass.as_ref(), &self.netlist) else {
            return false;
        };
        let fp = fingerprint(&out.netlist);
        if fp == self.fp {
            return false;
        }
        self.log.push(StepLog {
            engine: e.clone(),
            regs_before: out.stats_before.regs,
            regs_after: out.stats_after.regs,
            ands_before: out.stats_before.ands,
            ands_after: out.stats_after.ands,
            level_before: out.stats_before.max_level,
            level_after: out.stats_after.max_level,
        });
        self.chain.push(out.cert);
        self.netlist = out.netlist;
        self.fp = fp;
        true
    }
}

pub(crate) fn enlarge_options(k: u32) -> EnlargeOptions {
    EnlargeOptions {
        k,
        ..Default::default()
    }
}

/// Splits a pipeline spec on commas at parenthesis depth 0.
fn split_elements(spec: &str) -> Result<Vec<&str>, String> {
    let mut tokens = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in spec.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| format!("unbalanced ')' in {spec:?}"))?;
            }
            ',' if depth == 0 => {
                tokens.push(&spec[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("unbalanced '(' in {spec:?}"));
    }
    tokens.push(&spec[start..]);
    Ok(tokens)
}

/// Parses one element: `engine`, `engine*[:n]`, or `(e1,e2,…)*[:n]`.
fn parse_element(token: &str) -> Result<Element, String> {
    if let Some(rest) = token.strip_prefix('(') {
        let close = rest
            .find(')')
            .ok_or_else(|| format!("unbalanced '(' in {token:?}"))?;
        let engines = rest[..close]
            .split(',')
            .map(|e| parse_engine(e.trim()))
            .collect::<Result<Vec<_>, _>>()?;
        if engines.is_empty() {
            return Err(format!("empty group in {token:?}"));
        }
        let bound = parse_star_tail(&rest[close + 1..], token)?;
        Ok(Element::Star(engines, bound))
    } else if let Some(star) = token.find('*') {
        let engine = parse_engine(token[..star].trim())?;
        let bound = parse_star_tail(&token[star..], token)?;
        Ok(Element::Star(vec![engine], bound))
    } else {
        Ok(Element::Single(parse_engine(token)?))
    }
}

/// Parses the `*` / `*:n` suffix of a star element.
fn parse_star_tail(tail: &str, token: &str) -> Result<Option<u32>, String> {
    match tail.strip_prefix('*') {
        Some("") => Ok(None),
        Some(rest) => match rest.strip_prefix(':') {
            Some(num) => num
                .parse()
                .map(Some)
                .map_err(|_| format!("bad repeat bound in {token:?}")),
            None => Err(format!("malformed star element {token:?}")),
        },
        None => Err(format!("malformed star element {token:?}")),
    }
}

/// Parses one engine name with its optional `:arg`.
fn parse_engine(element: &str) -> Result<Engine, String> {
    let (name, arg) = match element.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (element, None),
    };
    match (name, arg) {
        ("coi", None) => Ok(Engine::Coi),
        ("com", None) => Ok(Engine::Com(SweepOptions::default())),
        ("ret" | "retime", None) => Ok(Engine::Retime),
        ("fold" | "phase", arg) => {
            let preferred = match arg {
                Some(a) => a.parse().map_err(|_| format!("bad fold factor {a:?}"))?,
                None => 2,
            };
            Ok(Engine::Fold { preferred })
        }
        ("param" | "parametric", None) => Ok(Engine::Parametric),
        ("enl" | "enlarge", arg) => {
            let k = match arg {
                Some(a) => a.parse().map_err(|_| format!("bad enlargement {a:?}"))?,
                None => 1,
            };
            Ok(Engine::Enlarge(enlarge_options(k)))
        }
        _ => Err(format!("unknown pipeline element {element:?}")),
    }
}

/// Per-applied-pass log entry (no-op passes are not logged).
#[derive(Debug, Clone)]
pub struct StepLog {
    /// The engine that ran.
    pub engine: Engine,
    /// Registers before the step.
    pub regs_before: usize,
    /// Registers after the step.
    pub regs_after: usize,
    /// AND gates before the step.
    pub ands_before: usize,
    /// AND gates after the step.
    pub ands_after: usize,
    /// Maximum combinational depth before the step.
    pub level_before: u32,
    /// Maximum combinational depth after the step.
    pub level_after: u32,
}

/// The outcome of running a pipeline.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    original_targets: usize,
    /// The transformed netlist.
    pub netlist: Netlist,
    /// Back-translation steps per original target, in application order —
    /// the bound-map half of [`PipelineResult::chain`], kept as a plain
    /// vector for constant-time replay.
    pub steps: Vec<Vec<BackStep>>,
    /// The composed certificate chain: bound maps *and* witness lifters for
    /// every applied pass, in application order.
    pub chain: CertificateChain,
    /// Per-applied-pass log.
    pub log: Vec<StepLog>,
}

impl PipelineResult {
    /// Back-translates a bound computed for target `index` of the
    /// *transformed* netlist into a bound for the *original* netlist
    /// (Theorems 1–4, applied in reverse order).
    pub fn back_translate(&self, index: usize, bound: Bound) -> Bound {
        let mut b = bound;
        for step in self.steps[index].iter().rev() {
            b = match *step {
                BackStep::Add(k) => b.add_const(k),
                BackStep::Mul(c) => b.mul_const(c),
            };
        }
        b
    }

    /// Lifts a counterexample found for target `index` of the *transformed*
    /// netlist into a counterexample for the *original* netlist, replaying
    /// the certificate chain's trace maps in reverse.
    ///
    /// Returns `None` when a lift step fails (empty witness, or the
    /// enlargement corner case documented in [`diam_transform::pass`]) —
    /// callers fall back to searching the original netlist directly.
    pub fn lift_witness(&self, index: usize, w: &Witness) -> Option<Witness> {
        self.chain.lift(index, w)
    }

    /// The proof-prefix obligation for target `index`: `Some(p)` when the
    /// chain's bound map is purely additive (`d̂ ↦ d̂ + p`), in which case
    /// "transformed netlist clean to depth D" plus "original netlist clean
    /// to depth p − 1" proves the original clean to `D + p`. `None` when a
    /// multiplicative (FOLD) step is present.
    pub fn prefix_obligation(&self, index: usize) -> Option<u64> {
        self.chain.prefix_obligation(index)
    }

    /// Structural bounds for all targets, back-translated to the original.
    ///
    /// Each target is an independent bounding job, fanned out across
    /// [`StructuralOptions::parallelism`] workers (largest cone first) and
    /// merged back in original target order — the output is identical for
    /// every parallelism setting, because [`diameter_bound`] is a pure
    /// function of the (immutable) transformed netlist.
    pub fn bound_targets(&self, opts: &StructuralOptions) -> Vec<PipelinedBound> {
        let jobs: Vec<usize> = (0..self.original_targets).collect();
        diam_par::run(
            opts.parallelism,
            jobs,
            |&i| {
                let t = &self.netlist.targets()[i];
                diam_netlist::analysis::coi(&self.netlist, [t.lit])
                    .regs
                    .len() as u64
                    + 1
            },
            |_, i, _| {
                let t = &self.netlist.targets()[i];
                let mut sp = diam_obs::span!("bound.target", index = i, target = t.name.as_str());
                let tb: TargetBound = diameter_bound(&self.netlist, t.lit, opts);
                let pb = PipelinedBound {
                    name: t.name.clone(),
                    transformed: tb.bound,
                    original: self.back_translate(i, tb.bound),
                    counts: tb.classification.counts(),
                };
                if diam_obs::enabled() {
                    // Back-translation totals = the per-target transform
                    // delta (Theorems 2–4 contributions for this target).
                    let (mut bt_add, mut bt_mul) = (0u64, 1u64);
                    for step in &self.steps[i] {
                        match *step {
                            BackStep::Add(k) => bt_add += k,
                            BackStep::Mul(c) => bt_mul *= c,
                        }
                    }
                    sp.record("bt_add", bt_add);
                    sp.record("bt_mul", bt_mul);
                    sp.record("transformed", pb.transformed.to_string());
                    sp.record("original", pb.original.to_string());
                }
                pb
            },
        )
    }

    /// The transformed literal of original target `index`.
    pub fn target_lit(&self, index: usize) -> Lit {
        self.netlist.targets()[index].lit
    }
}

/// A back-translated bound for one target.
#[derive(Debug, Clone)]
pub struct PipelinedBound {
    /// Target name.
    pub name: String,
    /// Bound on the transformed netlist.
    pub transformed: Bound,
    /// Bound back-translated to the original netlist.
    pub original: Bound,
    /// Register classification counts in the transformed target cone.
    pub counts: crate::classify::ClassCounts,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use crate::exact::{explore, ExploreLimits};
    use diam_netlist::Init;

    /// The headline soundness check: for every hittable target, the
    /// back-translated bound satisfies `earliest_hit ≤ bound − 1`.
    fn check_sound(n: &Netlist, pipeline: &Pipeline) {
        let bounds = pipeline.bound_targets(n, &StructuralOptions::default());
        let ex = explore(n, &ExploreLimits::default()).expect("small netlist");
        for (i, pb) in bounds.iter().enumerate() {
            if let Some(hit) = ex.earliest_hit[i] {
                match pb.original {
                    Bound::Finite(b) => {
                        assert!(hit < b, "target {}: hit at {hit} but bound {b}", pb.name);
                    }
                    Bound::Exponential => {}
                }
            }
        }
    }

    fn deep_pipeline() -> Netlist {
        let mut n = Netlist::new();
        let i = n.input("i");
        let mut prev = i.lit();
        for k in 0..5 {
            let r = n.reg(format!("s{k}"), Init::Zero);
            n.set_next(r, prev);
            prev = r.lit();
        }
        n.add_target(prev, "deep");
        n
    }

    #[test]
    fn retiming_preserves_bound_usefulness() {
        let n = deep_pipeline();
        let pipe = Pipeline::com_ret_com();
        let bounds = pipe.bound_targets(&n, &StructuralOptions::default());
        // Retiming eliminates the pipeline; the retimed bound is 1 and the
        // back-translated bound is 1 + 5.
        assert_eq!(bounds[0].transformed, Bound::Finite(1));
        assert_eq!(bounds[0].original, Bound::Finite(6));
        check_sound(&n, &pipe);
    }

    #[test]
    fn parse_round_trips_the_canned_pipelines() {
        let n = deep_pipeline();
        let opts = StructuralOptions::default();
        for (spec, reference) in [
            ("none", Pipeline::new()),
            ("coi,com", Pipeline::com()),
            ("coi,com,ret,com", Pipeline::com_ret_com()),
            ("com-ret-com", Pipeline::com_ret_com()),
        ] {
            let parsed = Pipeline::parse(spec).unwrap();
            let a = parsed.bound_targets(&n, &opts);
            let b = reference.bound_targets(&n, &opts);
            assert_eq!(a[0].original, b[0].original, "spec {spec}");
        }
    }

    /// The docstring has always promised the canned `com` alias; the parser
    /// used to silently treat it as the bare sweep engine, dropping the COI
    /// step the alias includes.
    #[test]
    fn whole_spec_com_is_the_canned_pipeline() {
        let parsed = Pipeline::parse("com").unwrap();
        assert_eq!(parsed.to_string(), Pipeline::com().to_string());
        assert_eq!(parsed.to_string(), "COI,COM");
        // As an *element* of a longer spec, `com` is still the bare engine.
        let element = Pipeline::parse("com,ret").unwrap();
        assert_eq!(element.to_string(), "COM,RET");
    }

    #[test]
    fn pipeline_display_lists_engines() {
        assert_eq!(Pipeline::new().to_string(), "none");
        assert_eq!(Pipeline::com().to_string(), "COI,COM");
        assert_eq!(Pipeline::com_ret_com().to_string(), "COI,COM,RET,COM");
        let p = Pipeline::parse("coi,enl:2,fold:3,param").unwrap();
        assert_eq!(p.to_string(), "COI,ENL(2),FOLD(3),PARAM");
    }

    #[test]
    fn star_elements_parse_and_display() {
        let p = Pipeline::parse("coi,com*").unwrap();
        assert_eq!(p.to_string(), "COI,COM*");
        let p = Pipeline::parse("com*:3").unwrap();
        assert_eq!(p.to_string(), "COM*:3");
        let p = Pipeline::parse("(com,ret)*:2,enl:1").unwrap();
        assert_eq!(p.to_string(), "(COM,RET)*:2,ENL(1)");
        let p = Pipeline::parse("( com , ret )*").unwrap();
        assert_eq!(p.to_string(), "(COM,RET)*");
    }

    #[test]
    fn parse_handles_arguments_and_rejects_garbage() {
        assert!(Pipeline::parse("coi,enl:2,fold:3").is_ok());
        assert!(Pipeline::parse("frobnicate").is_err());
        assert!(Pipeline::parse("enl:x").is_err());
        assert!(Pipeline::parse("fold:").is_err());
        assert!(Pipeline::parse("com*x").is_err());
        assert!(Pipeline::parse("com*:y").is_err());
        assert!(Pipeline::parse("(com,ret").is_err());
        assert!(Pipeline::parse("com,ret)*").is_err());
        assert!(Pipeline::parse("()*").is_err());
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let n = deep_pipeline();
        let result = Pipeline::new().run(&n);
        assert_eq!(result.back_translate(0, Bound::Finite(7)), Bound::Finite(7));
        assert!(result.chain.is_empty());
        assert_eq!(result.prefix_obligation(0), Some(0));
    }

    /// `com*` reaches the sweep's fixpoint: re-running the pipeline's final
    /// netlist through another sweep changes nothing, and no-op iterations
    /// contribute neither log entries nor certificates.
    #[test]
    fn star_runs_to_fixpoint() {
        let n = deep_pipeline();
        let star = Pipeline::parse("coi,com*").unwrap().run(&n);
        use diam_transform::com::sweep;
        let again = sweep(&star.netlist, &SweepOptions::default());
        assert_eq!(
            fingerprint(&again.netlist),
            fingerprint(&star.netlist),
            "com* must have converged"
        );
        assert_eq!(star.log.len(), star.chain.len(), "log mirrors the chain");
        // Each logged COM step changed the netlist; the terminating no-op
        // iteration is absent.
        for step in &star.log {
            assert!(
                step.ands_before != step.ands_after
                    || step.regs_before != step.regs_after
                    || step.level_before != step.level_after
                    || matches!(step.engine, Engine::Coi),
                "no-op steps must be skipped: {step:?}"
            );
        }
    }

    #[test]
    fn fold_multiplies() {
        // A 2-slowed toggle register.
        let mut n = Netlist::new();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, !b.lit());
        n.set_next(b, a.lit());
        n.add_target(a.lit(), "t");
        let pipe = Pipeline::new().then(Engine::Fold { preferred: 2 });
        let result = pipe.run(&n);
        assert_eq!(result.netlist.num_regs(), 1);
        assert_eq!(result.steps[0], vec![BackStep::Mul(2)]);
        assert_eq!(result.prefix_obligation(0), None, "Mul blocks the prefix");
        check_sound(&n, &pipe);
    }

    #[test]
    fn enlargement_adds_k() {
        let mut n = Netlist::new();
        let b: Vec<_> = (0..3).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let mut carry = Lit::TRUE;
        for k in 0..3 {
            let nk = n.xor(b[k].lit(), carry);
            carry = n.and(b[k].lit(), carry);
            n.set_next(b[k], nk);
        }
        let t = n.and_many(b.iter().map(|r| r.lit()).collect::<Vec<_>>());
        n.add_target(t, "all_ones");
        let pipe = Pipeline::new().then(Engine::Enlarge(EnlargeOptions {
            k: 2,
            ..Default::default()
        }));
        let result = pipe.run(&n);
        assert_eq!(result.steps[0], vec![BackStep::Add(2)]);
        assert_eq!(result.prefix_obligation(0), Some(2));
        check_sound(&n, &pipe);
    }

    #[test]
    fn composed_back_translation_order() {
        // Steps are recorded in application order and replayed in reverse.
        let result = PipelineResult {
            original_targets: 1,
            netlist: Netlist::new(),
            steps: vec![vec![BackStep::Mul(3), BackStep::Add(2)]],
            chain: CertificateChain::new(),
            log: Vec::new(),
        };
        // Applied order: fold(×3) then enlarge(+2). A bound b on the final
        // netlist is first undone through the enlargement (b + 2), then
        // through the folding (×3): (b + 2) · 3.
        assert_eq!(
            result.back_translate(0, Bound::Finite(4)),
            Bound::Finite(18)
        );
    }

    /// End-to-end witness lifting through a full pipeline: a counterexample
    /// found on the `coi,com,ret,com` netlist replays on the original.
    #[test]
    fn pipeline_lifts_witnesses_through_the_chain() {
        let n = deep_pipeline();
        let result = Pipeline::com_ret_com().run(&n);
        // The retimed pipeline is combinational: the single input hits the
        // target immediately.
        let w = Witness {
            inputs: vec![vec![true; result.netlist.num_inputs()]],
            nondet_init: vec![false; result.netlist.num_regs()],
        };
        assert!(w.replays_to(&result.netlist, result.target_lit(0)));
        let lifted = result.lift_witness(0, &w).expect("chain lifts");
        assert_eq!(lifted.inputs.len(), 6, "depth 0 + skew 5 → 6 frames");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
        assert_eq!(result.prefix_obligation(0), Some(5));
    }

    #[test]
    fn com_pipeline_is_sound_on_random_netlists() {
        use diam_netlist::sim::SplitMix64;
        let mut rng = SplitMix64::new(0xc0de);
        for round in 0..15 {
            let mut n = Netlist::new();
            let mut pool: Vec<Lit> = (0..2).map(|k| n.input(format!("i{k}")).lit()).collect();
            let mut regs = Vec::new();
            for k in 0..4 {
                let init = match rng.below(3) {
                    0 => Init::Zero,
                    1 => Init::One,
                    _ => Init::Nondet,
                };
                let r = n.reg(format!("r{k}"), init);
                regs.push(r);
                pool.push(r.lit());
            }
            for _ in 0..10 {
                let a = pool[rng.below(pool.len() as u64) as usize];
                let b = pool[rng.below(pool.len() as u64) as usize];
                pool.push(match rng.below(3) {
                    0 => n.and(a, b),
                    1 => n.or(a, b),
                    _ => n.xor(a, b),
                });
            }
            for &r in &regs {
                let nx = pool[rng.below(pool.len() as u64) as usize];
                n.set_next(r, nx);
            }
            n.add_target(*pool.last().unwrap(), format!("t{round}"));
            check_sound(&n, &Pipeline::com());
            check_sound(&n, &Pipeline::com_ret_com());
        }
    }
}
