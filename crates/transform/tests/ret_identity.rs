//! Retiming output identity against a golden fixture.
//!
//! Every design of the iscas and gp suites, at generator seeds 1 and 101,
//! goes through COI → COM → `explicit_nondet_init` → `retime`. For each
//! design the test records a hash of the lag vector, the retimed netlist's
//! structural fingerprint and its register count, and compares them with
//! `fixtures/ret_identity.txt`. The fixture pins the lags of the exact LP
//! solution, so any change to the flow solver or the retimed-netlist
//! construction that alters a single lag or gate shows up here.
//!
//! The suites take a while unoptimized, so the test only runs in release:
//!
//! ```text
//! cargo test -p diam-transform --release --test ret_identity
//! ```

use diam_netlist::rebuild::{explicit_nondet_init, reduce_coi};
use diam_netlist::stats::fingerprint;
use diam_netlist::Netlist;
use diam_transform::com::{sweep, SweepOptions};
use diam_transform::retime::retime;

/// FNV-1a over the little-endian bytes of the lags.
fn lag_hash(lag: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in lag {
        for byte in l.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One fixture line: `suite seed design lag_hash fingerprint regs_after`.
fn retime_line(suite: &str, seed: u64, name: &str, n: &Netlist) -> String {
    let coi = reduce_coi(n).netlist;
    let mut pre = sweep(&coi, &SweepOptions::default()).netlist;
    explicit_nondet_init(&mut pre);
    match retime(&pre) {
        Ok(ret) => format!(
            "{suite} {seed} {name} {:016x} {:016x} {}",
            lag_hash(&ret.lag),
            fingerprint(&ret.netlist),
            ret.regs_after
        ),
        Err(e) => format!("{suite} {seed} {name} error: {e}"),
    }
}

fn all_lines() -> String {
    let mut out = String::new();
    for seed in [1, 101] {
        for (p, n) in diam_gen::iscas::suite(seed) {
            out.push_str(&retime_line("iscas", seed, p.name, &n));
            out.push('\n');
        }
        for (p, n) in diam_gen::gp::suite(seed) {
            out.push_str(&retime_line("gp", seed, p.name, &n));
            out.push('\n');
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full suites; run with --release")]
fn retimed_suites_match_the_golden_fixture() {
    let golden = include_str!("fixtures/ret_identity.txt");
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
