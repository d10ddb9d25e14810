//! Benchmarks for the SumSweep eccentricity engine: explicit state-graph
//! enumeration and the alternating sweep phase, at 2^12 and 2^16 reachable
//! states (an enabled binary counter visits every state, making the sizes
//! exact). The end-to-end certified-depth proof runs as the release-only
//! `tests/scale.rs` smoke.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_core::state_graph::{StateGraph, StateGraphLimits};
use diam_core::{eccentricity, Pipeline, StructuralOptions};
use diam_gen::archetypes;
use diam_netlist::Netlist;
use diam_par::Parallelism;

const BITS: [usize; 2] = [12, 16];

fn counter(bits: usize) -> Netlist {
    let mut n = Netlist::new();
    let en = n.input("en").lit();
    let c = archetypes::counter(&mut n, "c", bits, en);
    n.add_target(c.all_ones, "wrap");
    n
}

fn bench_enumerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc/enumerate");
    group.sample_size(10);
    for bits in BITS {
        let n = counter(bits);
        let regs = n.regs().to_vec();
        // Warm the CSR cache so the bench isolates enumeration, not build.
        let _ = n.csr();
        group.bench_with_input(BenchmarkId::new("states", 1u64 << bits), &n, |b, n| {
            b.iter(|| {
                StateGraph::build(n, &regs, &StateGraphLimits::default())
                    .expect("counter fits the default limits")
            })
        });
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc/sweep");
    group.sample_size(10);
    for bits in BITS {
        let n = counter(bits);
        let g = StateGraph::build(&n, n.regs(), &StateGraphLimits::default())
            .expect("counter fits the default limits");
        group.bench_with_input(BenchmarkId::new("states", 1u64 << bits), &g, |b, g| {
            b.iter(|| eccentricity::sum_sweep(g, 16, Parallelism::Sequential))
        });
    }
    group.finish();
}

fn bench_certified_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc/bound_targets");
    group.sample_size(10);
    for bits in BITS {
        // The counter's carry chain condenses into singleton SCCs, so the
        // end-to-end path is measured on an LFSR instead: one
        // `bits`-register SCC whose certificate costs a full enumeration.
        let mut n = Netlist::new();
        let stir = n.input("stir").lit();
        let regs = archetypes::lfsr(&mut n, "x", bits, stir);
        n.add_target(regs[0].lit(), "x0");
        let pipeline = Pipeline::new();
        let opts = StructuralOptions {
            ecc: diam_core::EccOptions::on(),
            ..StructuralOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("cold", 1u64 << bits), &n, |b, n| {
            b.iter(|| {
                // Cold every iteration: the point is the full certificate
                // cost, not the memo hit.
                eccentricity::cache_clear();
                pipeline.bound_targets(n, &opts)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_enumerate, bench_sweep, bench_certified_bound);
criterion_main!(benches);
