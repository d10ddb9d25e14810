//! Checks on the benchmark itself: seeded generation, the verdict oracle,
//! the engines `proof-mix` reaches, and the traced shadow portfolio, which
//! must give `solve_all`'s verdicts and repeat its per-layer counts exactly
//! from one cold repetition to the next.
//!
//! The package's dev profile is optimized, so
//! `cargo test --manifest-path perfbench/Cargo.toml` runs the whole-workload
//! tests at close to release speed (about two minutes on two cores).

use diam_bmc::strategy::{solve_all, TargetStatus};
use diam_obs::RunManifest;
use diam_perfbench::workload::{self, Expect, Workload};
use diam_perfbench::{layers, oracle, run};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The seed the benchmark was built and tuned at.
const PINNED_SEED: u64 = 1;

/// A seed not used while building the benchmark.
const FRESH_SEED: u64 = 20_261_017;

/// A traced session records every thread's spans and SAT work, so no two
/// tests may run the program at once.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn generation_is_seeded_and_round_trips() {
    let _g = serial();
    for w in Workload::ALL {
        let a = workload::generate(w, 7);
        let bytes = workload::encode(&a);
        assert_eq!(
            bytes,
            workload::encode(&workload::generate(w, 7)),
            "{}",
            w.name()
        );
        let decoded = workload::decode(&bytes).unwrap();
        assert_eq!(workload::encode(&decoded), bytes, "{}", w.name());
        let other = workload::generate(w, 8);
        let fp = |ds: &[workload::Design]| workload::fingerprint(&run::parse_all(ds).unwrap());
        assert_ne!(
            fp(&a),
            fp(&other),
            "{}: seeds 7 and 8 give one workload",
            w.name()
        );
    }
}

#[test]
fn proof_mix_answers_agree_with_exact_exploration() {
    let _g = serial();
    for seed in [PINNED_SEED, FRESH_SEED] {
        let designs = workload::generate(Workload::ProofMix, seed);
        let nets = run::parse_all(&designs).unwrap();
        let mut explored = 0;
        for (d, n) in designs.iter().zip(&nets) {
            let o = oracle::build(n, &d.expect);
            assert_eq!(o.disagreements, 0, "seed {seed}, {}", d.name);
            explored += o.explored;
        }
        // The rings, arbiters, small Johnson counters, duplicate counters
        // and counter wraps all have cones within the explorer's limits.
        assert!(
            explored >= 5 * designs.len(),
            "seed {seed}: {explored} explored"
        );
    }
}

#[test]
fn proof_mix_reaches_every_engine_and_stays_open_only_by_design() {
    let _g = serial();
    for seed in [PINNED_SEED, FRESH_SEED] {
        let designs = workload::generate(Workload::ProofMix, seed);
        let nets = run::parse_all(&designs).unwrap();
        let mut labels = BTreeSet::new();
        for (d, n) in designs.iter().zip(&nets) {
            let verdicts = solve_all(n, &run::strategy());
            for ((v, e), t) in verdicts.iter().zip(&d.expect).zip(n.targets()) {
                labels.insert(run::label(v));
                let open = matches!(v, TargetStatus::Open { .. });
                assert_eq!(
                    open,
                    *e == Expect::Open,
                    "seed {seed}, {} {}",
                    d.name,
                    t.name
                );
            }
            let a = oracle::audit(n, &oracle::build(n, &d.expect), &verdicts);
            assert_eq!(
                (a.wrong, a.non_replaying),
                (0, 0),
                "seed {seed}, {}",
                d.name
            );
        }
        for engine in [
            "Proved/Com",
            "Proved/DiameterBmc",
            "Failed/DiameterBmc",
            "Proved/Symbolic",
        ] {
            assert!(
                labels.contains(engine),
                "seed {seed}: no {engine} verdict in {labels:?}"
            );
        }
    }
}

/// The count-valued per-layer metrics of one traced repetition (times and
/// the `obs.*` overhead figures vary from run to run; everything else must
/// repeat exactly), plus its span coverage.
fn traced_counts(
    designs: &[workload::Design],
    expected: &[Vec<TargetStatus>],
    what: &str,
) -> (Vec<(&'static str, f64)>, f64) {
    let t = run::traced(
        designs,
        &run::strategy(),
        RunManifest::capture("perfbench-test"),
        None,
    )
    .unwrap();
    assert!(
        t.verdicts == expected,
        "{what}: traced verdicts differ from solve_all's"
    );
    let metrics = layers::from_report(&t.report, 1.0);
    let coverage = metrics
        .iter()
        .find(|m| m.0 == "obs.span_coverage_frac")
        .unwrap()
        .1;
    let counts = metrics
        .iter()
        .filter(|(name, _, unit)| *unit != "s" && !name.starts_with("obs."))
        .map(|(name, value, _)| (*name, *value))
        .collect();
    (counts, coverage)
}

#[test]
fn traced_portfolio_matches_solve_all_and_repeats_its_counts() {
    let _g = serial();
    for w in Workload::ALL {
        for seed in [PINNED_SEED, FRESH_SEED] {
            let what = format!("{} seed {seed}", w.name());
            let designs = workload::generate(w, seed);
            let nets = run::parse_all(&designs).unwrap();
            diam_core::eccentricity::cache_clear();
            let expected: Vec<Vec<TargetStatus>> = nets
                .iter()
                .map(|n| solve_all(n, &run::strategy()))
                .collect();
            let (first, coverage) = traced_counts(&designs, &expected, &what);
            assert!(coverage > 0.95, "{what}: layer spans cover {coverage}");
            if w == Workload::ProofMix {
                let induction = first.iter().find(|m| m.0 == "bmc.induction_calls").unwrap();
                assert!(induction.1 > 0.0, "{what}: no induction attempt");
            }
            if seed == PINNED_SEED {
                let (second, _) = traced_counts(&designs, &expected, &what);
                assert_eq!(first, second, "{what}: repetitions 1 and 2 differ");
            }
        }
    }
}
