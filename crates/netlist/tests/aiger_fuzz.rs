//! Hostile-input fuzzing of the AIGER readers.
//!
//! Small random `diam_gen` designs are written in both the ascii and the
//! binary encoding and then damaged: truncated, bit-flipped, given a wrong
//! digit or a huge count in the header, or (ascii) given an AND whose
//! variable lies beyond `M` or whose definitions form a cycle. Every damaged
//! file must come back from `aiger::read` as `Ok` or `Err`, never as a
//! panic, an abort or an allocation sized by an untrusted count.
//!
//! Binary headers with huge *input* counts are not generated: inputs are
//! implicit in the binary format and take no bytes, so bounding them is a
//! resource-budget question rather than a parsing one.

use diam_gen::random::{random_netlist, RandomDesignOptions};
use diam_netlist::aiger;
use diam_netlist::sim::SplitMix64;
use diam_netlist::Netlist;
use proptest::prelude::*;

fn design(rng: &mut SplitMix64) -> Netlist {
    let opts = RandomDesignOptions {
        inputs: 1 + rng.below(4) as usize,
        regs: rng.below(6) as usize,
        gates: 1 + rng.below(24) as usize,
        targets: 1 + rng.below(3) as usize,
        allow_nondet: true,
    };
    random_netlist(&opts, rng.next_u64())
}

fn encode(n: &Netlist, binary: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    if binary {
        aiger::write_binary(n, &mut bytes).unwrap();
    } else {
        aiger::write_ascii(n, &mut bytes).unwrap();
    }
    bytes
}

/// The header line's numbers `M I L O A` and its length with the newline.
fn header(bytes: &[u8]) -> (Vec<u64>, usize) {
    let end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let text = std::str::from_utf8(&bytes[..end]).unwrap();
    let nums = text
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap())
        .collect();
    (nums, end)
}

/// The ascii file as lines, and the index range of its AND lines.
fn and_lines(bytes: &[u8]) -> (Vec<String>, std::ops::Range<usize>) {
    let (h, _) = header(bytes);
    let first = 1 + (h[1] + h[2] + h[3]) as usize;
    let lines: Vec<String> = String::from_utf8(bytes.to_vec())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    (lines, first..first + h[4] as usize)
}

fn join(lines: &[String]) -> Vec<u8> {
    let mut out = lines.join("\n");
    out.push('\n');
    out.into_bytes()
}

const HUGE: [u64; 5] = [
    u32::MAX as u64,
    1 << 31,
    (1 << 31) - 1,
    2_000_000_000,
    999_999_999,
];

/// Applies one seeded mutation to a valid encoding.
fn mutate(bytes: &mut Vec<u8>, binary: bool, rng: &mut SplitMix64) {
    let kinds = if binary { 4 } else { 6 };
    match rng.below(kinds) {
        0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        1 => {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        2 => {
            let (_, end) = header(bytes);
            let digits: Vec<usize> = (0..end).filter(|&k| bytes[k].is_ascii_digit()).collect();
            let at = digits[rng.below(digits.len() as u64) as usize];
            bytes[at] = b'0' + rng.below(10) as u8;
        }
        3 => {
            // A huge count, sometimes with an `M` large enough to pass the
            // `M ≥ I+L+A` check. Binary inputs are left alone (see above).
            let (mut h, end) = header(bytes);
            let field = if binary {
                [0, 2, 3, 4][rng.below(4) as usize]
            } else {
                rng.below(5) as usize
            };
            h[field] = HUGE[rng.below(HUGE.len() as u64) as usize];
            if rng.bool() {
                h[0] = (1 << 31) - 1;
            }
            let tag = if binary { "aig" } else { "aag" };
            let nums: Vec<String> = h.iter().map(u64::to_string).collect();
            let line = format!("{tag} {}\n", nums.join(" "));
            bytes.splice(..end, line.into_bytes());
        }
        4 => {
            // An AND defining a variable beyond `M`.
            let (mut lines, ands) = and_lines(bytes);
            if !ands.is_empty() {
                let (h, _) = header(bytes);
                let k = ands.start + rng.below(ands.len() as u64) as usize;
                let rest: Vec<&str> = lines[k].split(' ').skip(1).collect();
                let lhs = 2 * (h[0] + 1 + rng.below(1 << 20));
                lines[k] = format!("{lhs} {}", rest.join(" "));
                *bytes = join(&lines);
            }
        }
        _ => {
            // Cyclic definitions: one AND reads itself, or two ANDs read
            // each other.
            let (mut lines, ands) = and_lines(bytes);
            if !ands.is_empty() {
                let pick =
                    |rng: &mut SplitMix64| ands.start + rng.below(ands.len() as u64) as usize;
                let (a, b) = (pick(rng), pick(rng));
                let lhs = |l: &str| l.split(' ').next().unwrap().to_string();
                let (la, lb) = (lhs(&lines[a]), lhs(&lines[b]));
                lines[a] = format!("{la} {lb} {}", lines[a].split(' ').nth(2).unwrap());
                lines[b] = format!("{lb} {la} {}", lines[b].split(' ').nth(2).unwrap());
                *bytes = join(&lines);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// A damaged ascii or binary file is an `Ok` or an `Err`, never a panic.
    #[test]
    fn damaged_files_never_panic(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let binary = rng.bool();
        let mut bytes = encode(&design(&mut rng), binary);
        mutate(&mut bytes, binary, &mut rng);
        let _ = aiger::read(bytes.as_slice());
    }
}

/// The undamaged encodings read back, so the mutations start from valid
/// files.
#[test]
fn undamaged_files_read_back() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..64 {
        let n = design(&mut rng);
        for binary in [false, true] {
            let m = aiger::read(encode(&n, binary).as_slice()).unwrap();
            assert_eq!(m.num_regs(), n.num_regs());
            assert_eq!(m.targets().len(), n.targets().len());
        }
    }
}
