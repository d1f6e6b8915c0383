//! End-to-end engine benchmarks: the paper's scenario at small scale,
//! per algorithm — the microscale version of Table I.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sde_bench::{paper_scenario, symbolic_grid};
use sde_core::{run, Algorithm, Engine, Scenario};
use sde_net::Topology;
use sde_os::apps::hello::{self, HelloConfig};

fn bench_paper_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/grid_collect");
    group.sample_size(10);
    for side in [3u16, 4] {
        let scenario = paper_scenario(side).with_sample_every(10_000);
        for alg in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), side * side),
                &(scenario.clone(), alg),
                |b, (scenario, alg)| {
                    b.iter(|| {
                        let r = run(scenario, *alg);
                        black_box(r.total_states)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_failure_free(c: &mut Criterion) {
    // No symbolic input at all: pure simulation cost (the mapping
    // algorithms should all be cheap and equal here).
    let mut group = c.benchmark_group("engine/hello_ring");
    let topology = Topology::ring(16);
    let programs = hello::programs(&topology, &HelloConfig::default());
    let scenario = Scenario::new(topology, programs).with_sample_every(10_000);
    for alg in Algorithm::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(alg.name()),
            &(scenario.clone(), alg),
            |b, (scenario, alg)| b.iter(|| black_box(run(scenario, *alg).packets)),
        );
    }
    group.finish();
}

fn bench_parallel_workers(c: &mut Criterion) {
    // The workers axis, on the solver-bound sense workload (symbolic
    // readings classified per hop). `seq` is the sequential baseline;
    // `w<N>` runs `Engine::run_sharded(N)`. Wall-clock gains need spare
    // cores — on a single-core host this axis measures the sharding
    // overhead bound instead.
    let mut group = c.benchmark_group("engine/parallel_workers");
    group.sample_size(10);
    let scenario = symbolic_grid(3).with_sample_every(10_000);
    for alg in [Algorithm::Cow, Algorithm::Sds] {
        group.bench_with_input(
            BenchmarkId::new(alg.name(), "seq"),
            &(scenario.clone(), alg),
            |b, (scenario, alg)| b.iter(|| black_box(run(scenario, *alg).total_states)),
        );
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(alg.name(), format!("w{workers}")),
                &(scenario.clone(), alg, workers),
                |b, (scenario, alg, workers)| {
                    b.iter(|| {
                        let r = Engine::new(scenario.clone(), *alg).run_sharded(*workers);
                        black_box(r.total_states)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_grid,
    bench_failure_free,
    bench_parallel_workers
);
criterion_main!(benches);
