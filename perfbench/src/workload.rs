//! The benchmark's workloads: seeded generators whose output is plain
//! AIGER bytes plus, per target, the answer the generator knows.
//!
//! * `iscas-suite` — `diam_gen::iscas::suite(seed)`, the Table 1 designs;
//! * `gp-suite` — `diam_gen::gp::suite(seed)`, the Table 2 designs;
//! * `proof-mix` — built here from `diam_gen::archetypes`: targets that are
//!   unreachable by construction (so they need a proof engine) beside deep
//!   counter-wrap targets that only a complete bounded check reaches.

use diam_gen::archetypes::{
    counter, duplicate_counter, johnson_counter, pipeline_from, round_robin_arbiter, token_ring,
};
use diam_netlist::sim::SplitMix64;
use diam_netlist::{aiger, Gate, Lit, Netlist};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 1 (ISCAS89-profile) suite.
    IscasSuite,
    /// The Table 2 (GP-profile) suite.
    GpSuite,
    /// Safe-by-construction archetype designs plus deep reachable targets.
    ProofMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::IscasSuite, Workload::GpSuite, Workload::ProofMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IscasSuite => "iscas-suite",
            Workload::GpSuite => "gp-suite",
            Workload::ProofMix => "proof-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (iscas-suite|gp-suite|proof-mix)"))
    }
}

/// What the generator knows about one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Nothing beyond the netlist itself (the profile suites): any verdict
    /// is accepted as long as a `Failed` witness replays.
    Any,
    /// Reachable; the earliest hit is at exactly this depth.
    Reachable(u64),
    /// Unreachable; the portfolio must prove it.
    Unreachable,
    /// Unreachable, and built to stay out of every engine's reach: `Open`
    /// (or a proof) is the right answer, never a counterexample.
    Open,
}

/// One generated design, as the program sees it.
#[derive(Debug, Clone)]
pub struct Design {
    /// Design name.
    pub name: String,
    /// Binary AIGER bytes.
    pub aiger: Vec<u8>,
    /// Per-target knowledge, in target order.
    pub expect: Vec<Expect>,
}

/// Generates `w` from `seed`. The same seed gives the same bytes.
pub fn generate(w: Workload, seed: u64) -> Vec<Design> {
    match w {
        Workload::IscasSuite => from_suite(diam_gen::iscas::suite(seed)),
        Workload::GpSuite => from_suite(diam_gen::gp::suite(seed)),
        Workload::ProofMix => proof_mix(seed),
    }
}

fn from_suite(suite: Vec<(diam_gen::profile::DesignProfile, Netlist)>) -> Vec<Design> {
    suite
        .into_iter()
        .map(|(p, n)| Design {
            name: p.name.to_string(),
            aiger: to_aiger(&n),
            expect: vec![Expect::Any; n.targets().len()],
        })
        .collect()
}

fn to_aiger(n: &Netlist) -> Vec<u8> {
    let mut bytes = Vec::new();
    aiger::write_binary(n, &mut bytes).expect("generated designs use AIGER-expressible resets");
    bytes
}

/// Designs in `proof-mix`.
const PROOF_MIX_DESIGNS: usize = 12;

/// Width of the deep counter-wrap counters: a hit sits at depth
/// `2^7 − 1` plus the enable pipeline, beyond random simulation's 64 steps.
/// The width is fixed, not drawn, so that every seed does the same amount
/// of bounded checking (one more bit doubles the depth and quintuples the
/// time).
const WRAP_BITS: usize = 7;

/// Johnson-counter widths past the eccentricity cutoff (16 registers), one
/// per design: their blanket `2^bits` bound is over the depth cap, so the
/// symbolic engine must prove them. The seed permutes the list, so the
/// total width is the same for every seed.
const WIDE_JOHNSON_BITS: [usize; PROOF_MIX_DESIGNS] =
    [18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29];

/// Builds `proof-mix`: [`PROOF_MIX_DESIGNS`] designs of eight targets each.
fn proof_mix(seed: u64) -> Vec<Design> {
    let mut rng = SplitMix64::new(seed ^ 0x5AFE_5EED);
    let wide = shuffled(&WIDE_JOHNSON_BITS, &mut rng);
    (0..PROOF_MIX_DESIGNS)
        .map(|k| {
            let mut r = SplitMix64::new(rng.next_u64());
            let (n, expect) = proof_mix_design(&mut r, wide[k]);
            Design {
                name: format!("PM{k:02}"),
                aiger: to_aiger(&n),
                expect,
            }
        })
        .collect()
}

fn shuffled<T: Copy>(items: &[T], rng: &mut SplitMix64) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// A fresh input delayed by `depth` registers.
fn delayed_input(n: &mut Netlist, name: &str, depth: usize) -> Lit {
    let input = n.input(format!("{name}_in")).lit();
    pipeline_from(n, &format!("{name}_p"), input, depth)
        .last()
        .map_or(input, |r| r.lit())
}

/// Two distinct positions in `0..len`.
fn two_of(len: usize, rng: &mut SplitMix64) -> (usize, usize) {
    let a = rng.below(len as u64) as usize;
    let b = (a + 1 + rng.below(len as u64 - 1) as usize) % len;
    (a, b)
}

/// A Johnson pattern no reachable state shows: the first and last stages
/// high with a low stage between them (reachable states are `1^a 0^b` or
/// `0^a 1^b`).
fn invalid_johnson(n: &mut Netlist, regs: &[Gate], rng: &mut SplitMix64) -> Lit {
    let mid = 1 + rng.below(regs.len() as u64 - 2) as usize;
    let ends = n.and(regs[0].lit(), regs[regs.len() - 1].lit());
    n.and(ends, !regs[mid].lit())
}

fn proof_mix_design(rng: &mut SplitMix64, wide_bits: usize) -> (Netlist, Vec<Expect>) {
    let mut n = Netlist::new();
    let mut expect = Vec::new();
    let depth = |rng: &mut SplitMix64| 1 + rng.below(4) as usize;

    // Two tokens on a one-hot ring: the eccentricity engine certifies the
    // ring's diameter, so the bounded check up to it is a proof.
    let len = 4 + rng.below(9) as usize;
    let step = delayed_input(&mut n, "ring", depth(rng));
    let ring = token_ring(&mut n, "ring", len, step);
    for k in 0..2 {
        let (a, b) = two_of(len, rng);
        let both = n.and(ring[a].lit(), ring[b].lit());
        n.add_target(both, format!("ring_two_tokens{k}"));
        expect.push(Expect::Unreachable);
    }

    // Two arbiter grants at once.
    let clients = 3 + rng.below(4) as usize;
    let (_, grants) = round_robin_arbiter(&mut n, "arb", clients);
    let (a, b) = two_of(clients, rng);
    let both = n.and(grants[a], grants[b]);
    n.add_target(both, "arb_two_grants");
    expect.push(Expect::Unreachable);

    // An invalid Johnson pattern, inside the eccentricity cutoff.
    let bits = 5 + rng.below(6) as usize;
    let step = delayed_input(&mut n, "jc", depth(rng));
    let jc = johnson_counter(&mut n, "jc", bits, step);
    let bad = invalid_johnson(&mut n, &jc, rng);
    n.add_target(bad, "jc_invalid");
    expect.push(Expect::Unreachable);

    // Disagreeing duplicate counters: only redundancy removal sees that the
    // two structurally different counters move in lock-step.
    let bits = 4 + rng.below(5) as usize;
    let en = delayed_input(&mut n, "dup", depth(rng));
    let (c0, c1) = duplicate_counter(&mut n, "dup", bits, en);
    let bit = rng.below(bits as u64) as usize;
    let differ = n.xor(c0.bits[bit], c1.bits[bit]);
    n.add_target(differ, "dup_disagree");
    expect.push(Expect::Unreachable);

    // A deep counter wrap: reachable, but only at depth p + 2^k − 1.
    let p = depth(rng);
    let en = delayed_input(&mut n, "wrap", p);
    let wrap = counter(&mut n, "wrap", WRAP_BITS, en);
    n.add_target(wrap.all_ones, "wrap_all_ones");
    expect.push(Expect::Reachable(p as u64 + (1u64 << WRAP_BITS) - 1));

    // An invalid pattern on a Johnson counter past the eccentricity cutoff.
    let step = delayed_input(&mut n, "wide", depth(rng));
    let wide = johnson_counter(&mut n, "wide", wide_bits, step);
    let bad = invalid_johnson(&mut n, &wide, rng);
    n.add_target(bad, "wide_invalid");
    expect.push(Expect::Unreachable);

    // Two tokens on a ring too large for every engine: open by design.
    let len = 42 + rng.below(7) as usize;
    let step = delayed_input(&mut n, "big", depth(rng));
    let big = token_ring(&mut n, "big", len, step);
    let (a, b) = two_of(len, rng);
    let both = n.and(big[a].lit(), big[b].lit());
    n.add_target(both, "big_two_tokens");
    expect.push(Expect::Open);

    (n, expect)
}

/// The workload fingerprint: an FNV-1a hash over every design's netlist
/// fingerprint, in design order.
pub fn fingerprint(netlists: &[Netlist]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in netlists {
        for byte in diam_netlist::stats::fingerprint(n).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Serializes `designs` for the hand-off from the generator process to the
/// measuring one: per design its name, its per-target knowledge and its
/// AIGER bytes, each length-prefixed (little-endian).
pub fn encode(designs: &[Design]) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out, designs.len() as u64);
    for d in designs {
        put(&mut out, d.name.len() as u64);
        out.extend_from_slice(d.name.as_bytes());
        put(&mut out, d.expect.len() as u64);
        for e in &d.expect {
            let (tag, depth) = match *e {
                Expect::Any => (0, 0),
                Expect::Reachable(depth) => (1, depth),
                Expect::Unreachable => (2, 0),
                Expect::Open => (3, 0),
            };
            put(&mut out, tag);
            put(&mut out, depth);
        }
        put(&mut out, d.aiger.len() as u64);
        out.extend_from_slice(&d.aiger);
    }
    out
}

/// Inverse of [`encode`].
pub fn decode(mut bytes: &[u8]) -> Result<Vec<Design>, String> {
    let count = take(&mut bytes)?;
    (0..count)
        .map(|_| {
            let len = take(&mut bytes)? as usize;
            let name = String::from_utf8(take_bytes(&mut bytes, len)?.to_vec())
                .map_err(|e| e.to_string())?;
            let targets = take(&mut bytes)?;
            let expect = (0..targets)
                .map(|_| {
                    let (tag, depth) = (take(&mut bytes)?, take(&mut bytes)?);
                    Ok(match tag {
                        0 => Expect::Any,
                        1 => Expect::Reachable(depth),
                        2 => Expect::Unreachable,
                        3 => Expect::Open,
                        _ => return Err(format!("bad expectation tag {tag}")),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let len = take(&mut bytes)? as usize;
            let aiger = take_bytes(&mut bytes, len)?.to_vec();
            Ok(Design {
                name,
                aiger,
                expect,
            })
        })
        .collect()
}

fn put(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn take(bytes: &mut &[u8]) -> Result<u64, String> {
    let b = take_bytes(bytes, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
}

fn take_bytes<'a>(bytes: &mut &'a [u8], len: usize) -> Result<&'a [u8], String> {
    if bytes.len() < len {
        return Err("truncated workload stream".to_string());
    }
    let (head, rest) = bytes.split_at(len);
    *bytes = rest;
    Ok(head)
}
