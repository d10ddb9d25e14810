//! Cube-and-conquer BMC benchmarks: deep unrolls solved monolithically vs.
//! split into cubes, sequential vs. fanned out over the `diam-par` pool.
//!
//! The headline comparison is `cube/bmc_unroll`: the same counter hit — a
//! deep obligation per depth — under (a) the monolithic solver, (b)
//! reproducible cubes on one worker (split overhead, no parallelism), and
//! (c) fast cubes at 4 workers (sharing + sibling cancellation). On a
//! multi-core host (c) is the ≥1.5× target tracked in EXPERIMENTS.md; on a
//! single-core runner it degenerates to (b) plus scheduling noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_bmc::{check, BmcOptions, BmcOutcome, CubeMode, CubeOptions};
use diam_gen::archetypes::counter;
use diam_netlist::{Lit, Netlist};
use diam_par::Parallelism;

fn deep_counter(bits: usize) -> (Netlist, u64) {
    let mut n = Netlist::new();
    let cnt = counter(&mut n, "c", bits, Lit::TRUE);
    n.add_target(cnt.all_ones, "max");
    (n, (1u64 << bits) - 1)
}

fn opts(depth: u64, mode: CubeMode, par: Parallelism) -> BmcOptions {
    BmcOptions {
        max_depth: depth,
        parallelism: par,
        cube: CubeOptions {
            mode,
            vars: 3,
            // Split only the deepest frame — the one hard obligation. The
            // shallow frames' solves are trivially cheap, so splitting them
            // would pay 2^vars solver clones per depth for nothing.
            min_depth: depth,
        },
        ..BmcOptions::default()
    }
}

fn bench_cube_unroll(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube/bmc_unroll");
    group.sample_size(10);
    for bits in [6usize, 8] {
        let (n, depth) = deep_counter(bits);
        let configs: [(&str, BmcOptions); 3] = [
            (
                "mono",
                BmcOptions {
                    max_depth: depth,
                    ..BmcOptions::default()
                },
            ),
            (
                "repro_seq",
                opts(depth, CubeMode::Reproducible, Parallelism::Sequential),
            ),
            (
                "fast_j4",
                opts(depth, CubeMode::Fast, Parallelism::Threads(4)),
            ),
        ];
        for (name, o) in &configs {
            group.bench_with_input(BenchmarkId::new(*name, bits), &(&n, o), |b, (n, o)| {
                b.iter(|| {
                    let r = check(n, 0, o);
                    assert!(matches!(r, BmcOutcome::Counterexample { .. }));
                })
            });
        }
    }
    group.finish();
}

fn bench_portfolio_sweep(c: &mut Criterion) {
    use diam_gen::archetypes::register_file;
    use diam_transform::com::{sweep, SweepOptions};
    let mut group = c.benchmark_group("cube/portfolio_sweep");
    group.sample_size(10);
    // The COM sweep's many small solves: portfolio seeds shuffle restart
    // pacing and phases without changing any verdict.
    let mut n = Netlist::new();
    let m = register_file(&mut n, "m", 3, 3);
    let cells: Vec<Lit> = m.all_cells().iter().map(|r| r.lit()).collect();
    let t = n.and_many(cells);
    n.add_target(t, "t");
    for portfolio in [0u64, 0xFACE] {
        group.bench_with_input(
            BenchmarkId::new("seed", portfolio),
            &portfolio,
            |b, &portfolio| {
                b.iter(|| {
                    sweep(
                        &n,
                        &SweepOptions {
                            portfolio,
                            ..SweepOptions::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cube_unroll, bench_portfolio_sweep);
criterion_main!(benches);
