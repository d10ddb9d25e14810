//! The verdict oracle: what each target's answer must be, and the check of
//! every verdict against it.
//!
//! Answers come from two independent places: the generator's knowledge
//! ([`Expect`]) and, on every target whose cone is small enough, the
//! explicit-state explorer `diam_core::exact`. The two must agree before a
//! single verdict is checked. Every `Failed` witness is replayed on the
//! original netlist here, in release builds too.

use crate::workload::Expect;
use diam_bmc::strategy::TargetStatus;
use diam_core::exact::{explore, ExploreLimits};
use diam_netlist::rebuild::slice_target;
use diam_netlist::Netlist;

/// The answer a target's verdict is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Nothing is known; only witness replay is checked.
    Unknown,
    /// Reachable, earliest at this depth.
    ReachableAt(u64),
    /// Unreachable, and some engine is expected to prove it.
    Unreachable,
    /// Unreachable and built to stay open.
    Open,
}

/// The oracle for one design.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Per-target answers.
    pub answers: Vec<Answer>,
    /// Targets the explicit-state explorer settled.
    pub explored: usize,
    /// Targets where the explorer contradicts the generator.
    pub disagreements: usize,
}

/// Builds the oracle of `n`, cross-checking `expect` against exhaustive
/// exploration of every target cone within the explorer's limits.
pub fn build(n: &Netlist, expect: &[Expect]) -> Oracle {
    let limits = ExploreLimits::default();
    let mut oracle = Oracle {
        answers: Vec::with_capacity(expect.len()),
        explored: 0,
        disagreements: 0,
    };
    for (i, e) in expect.iter().enumerate() {
        let cone = diam_netlist::analysis::coi(n, [n.targets()[i].lit]);
        let small = cone.regs.len() <= limits.max_regs;
        let exact = if small {
            let slice = slice_target(n, i).netlist;
            explore(&slice, &limits).ok().map(|x| x.earliest_hit[0])
        } else {
            None
        };
        let generated = match e {
            Expect::Any => None,
            Expect::Reachable(d) => Some(Some(*d)),
            Expect::Unreachable | Expect::Open => Some(None),
        };
        if let Some(hit) = exact {
            oracle.explored += 1;
            if generated.is_some_and(|g| g != hit) {
                oracle.disagreements += 1;
            }
        }
        let answer = match (e, exact.or(generated)) {
            (Expect::Open, _) => Answer::Open,
            (_, Some(Some(d))) => Answer::ReachableAt(d),
            (_, Some(None)) => Answer::Unreachable,
            (_, None) => Answer::Unknown,
        };
        oracle.answers.push(answer);
    }
    oracle
}

/// How a design's verdicts fared against its oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// Targets proved or refuted.
    pub decided: usize,
    /// Verdicts that contradict the answer.
    pub wrong: usize,
    /// `Failed` verdicts whose witness does not replay to the target.
    pub non_replaying: usize,
    /// `Open` verdicts on targets not built to be open.
    pub unexpected_open: usize,
}

impl Audit {
    /// Operations that failed: wrong or unreplayable verdicts, and targets
    /// left open that should have been decided.
    pub fn failed(&self) -> usize {
        self.wrong + self.non_replaying + self.unexpected_open
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Audit) {
        self.decided += other.decided;
        self.wrong += other.wrong;
        self.non_replaying += other.non_replaying;
        self.unexpected_open += other.unexpected_open;
    }
}

/// Checks every verdict of `n` against `oracle`.
pub fn audit(n: &Netlist, oracle: &Oracle, verdicts: &[TargetStatus]) -> Audit {
    let mut a = Audit::default();
    for ((status, answer), t) in verdicts.iter().zip(&oracle.answers).zip(n.targets()) {
        match status {
            TargetStatus::Proved { .. } => {
                a.decided += 1;
                a.wrong += usize::from(matches!(answer, Answer::ReachableAt(_)));
            }
            TargetStatus::Failed { depth, witness, .. } => {
                a.decided += 1;
                let replays =
                    witness.inputs.len() as u64 == depth + 1 && witness.replays_to(n, t.lit);
                a.non_replaying += usize::from(!replays);
                a.wrong += usize::from(match answer {
                    Answer::ReachableAt(d) => depth < d,
                    Answer::Unreachable | Answer::Open => true,
                    Answer::Unknown => false,
                });
            }
            TargetStatus::Open { .. } => {
                a.unexpected_open += usize::from(*answer != Answer::Open);
            }
        }
    }
    a
}
