//! COM sweep output identity against a golden fixture.
//!
//! Every design of the iscas and gp suites, at generator seeds 1 and 101,
//! goes through `sweep` twice: once on the generated netlist and once on its
//! `reduce_coi` slice. For each run the test records the merge and
//! refinement counts, a hash of the proven equivalences, a hash of the
//! old-gate → new-literal map and the reduced netlist's structural
//! fingerprint, and compares them with `fixtures/com_identity.txt`. Any
//! change to candidate classes, SAT queries, counterexample refinement or
//! the merge shows up here.
//!
//! The suites take a while unoptimized, so the test only runs in release:
//!
//! ```text
//! cargo test -p diam-transform --release --test com_identity
//! ```

use diam_netlist::rebuild::reduce_coi;
use diam_netlist::stats::fingerprint;
use diam_netlist::{Lit, Netlist};
use diam_transform::com::{sweep, SweepOptions};

/// FNV-1a over a stream of `u32` words, little-endian.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `u32::MAX` stands for an unmapped gate; no literal code reaches it.
fn map_hash(map: &[Option<Lit>]) -> u64 {
    fnv(map.iter().map(|l| l.map_or(u32::MAX, Lit::code)))
}

fn proven_hash(proven: &[(Lit, Lit)]) -> u64 {
    fnv(proven.iter().flat_map(|&(a, b)| [a.code(), b.code()]))
}

/// One fixture line:
/// `suite seed design view merges refinements proven_hash map_hash fingerprint`.
fn sweep_line(suite: &str, seed: u64, name: &str, view: &str, n: &Netlist) -> String {
    let res = sweep(n, &SweepOptions::default());
    format!(
        "{suite} {seed} {name} {view} {} {} {:016x} {:016x} {:016x}",
        res.merges,
        res.refinements,
        proven_hash(&res.proven),
        map_hash(&res.map),
        fingerprint(&res.netlist)
    )
}

fn design_lines(out: &mut String, suite: &str, seed: u64, name: &str, n: &Netlist) {
    let coi = reduce_coi(n).netlist;
    for (view, net) in [("orig", n), ("coi", &coi)] {
        out.push_str(&sweep_line(suite, seed, name, view, net));
        out.push('\n');
    }
}

fn all_lines() -> String {
    let mut out = String::new();
    for seed in [1, 101] {
        for (p, n) in diam_gen::iscas::suite(seed) {
            design_lines(&mut out, "iscas", seed, p.name, &n);
        }
        for (p, n) in diam_gen::gp::suite(seed) {
            design_lines(&mut out, "gp", seed, p.name, &n);
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suites; run with --release")]
fn swept_suites_match_the_golden_fixture() {
    let golden = include_str!("fixtures/com_identity.txt");
    let actual = all_lines();
    for (k, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "design count differs from the fixture"
    );
}
