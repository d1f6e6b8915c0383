//! Differential tests for the parallel engine's function-style entry
//! points: `sde_core::parallel::run_sharded` and the in-place
//! `Engine::run_sharded_in_place` + `Engine::into_report` path must be
//! *bit-identical* to the sequential `Engine::run` — same state ids,
//! packet ids, instruction counts, series rows, and final-state digest —
//! at every worker count, for every algorithm, topology, and symbolic
//! failure model. Parallel execution may only change wall-clock times
//! and solver counters (workers query worker-local caches), both of
//! which `RunReport::equivalence_key` deliberately excludes.
//!
//! `tests/shard_equivalence.rs` runs the same matrix through the
//! consuming `Engine::run_sharded` and also checks the shard counters,
//! traces and interrupt/resume.

#[path = "common/faults.rs"]
mod faults;

use sde::prelude::*;
use sde_core::{parallel, Engine};
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::sense::{self, SenseConfig};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The three topologies of the matrix: line(4), grid(3×3), ring(5).
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("line4", Topology::line(4)),
        ("grid3x3", Topology::grid(3, 3)),
        ("ring5", Topology::ring(5)),
    ]
}

/// Collect workload with one symbolic failure model injected on two
/// middle nodes (budget 1 each).
fn scenario(topology: &Topology, failure: &str) -> Scenario {
    let k = topology.len() as u16;
    let cfg = CollectConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 1,
        strict_sink: false,
    };
    let failures = faults::failure_model(failure, &[NodeId(1), NodeId(k / 2)]);
    let programs = collect::programs(topology, &cfg);
    Scenario::new(topology.clone(), programs)
        .with_failures(failures)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// Runs the full worker-count sweep for one failure model and compares
/// every parallel report against the sequential baseline.
fn check_failure_model(failure: &str) {
    for (topo_name, topology) in topologies() {
        let scenario = scenario(&topology, failure);
        for alg in Algorithm::ALL {
            let seq = Engine::new(scenario.clone(), alg).run();
            let seq_key = seq.equivalence_key();
            assert!(
                seq.parallel.is_none(),
                "sequential runs carry no ParallelStats"
            );
            for workers in WORKER_COUNTS {
                let par = parallel::run_sharded(&scenario, alg, workers);
                assert_eq!(
                    par.equivalence_key(),
                    seq_key,
                    "{alg} on {topo_name} with {failure} diverged at {workers} workers"
                );
                let pstats = par
                    .parallel
                    .as_ref()
                    .expect("parallel runs report ParallelStats");
                assert_eq!(pstats.workers, workers);
                assert!(
                    pstats.batches >= 1 && pstats.batches <= par.events,
                    "batches ({}) must count distinct timestamps, bounded by \
                     processed events ({})",
                    pstats.batches,
                    par.events
                );
            }
        }
    }
}

#[test]
fn drops_are_bit_identical_across_worker_counts() {
    check_failure_model("drop");
}

#[test]
fn duplicates_are_bit_identical_across_worker_counts() {
    check_failure_model("duplicate");
}

#[test]
fn reboots_are_bit_identical_across_worker_counts() {
    check_failure_model("reboot");
}

/// Solver-bound workload: symbolic sensor readings classified at every
/// route hop (see `sde_os::apps::sense`).
fn sense_scenario(topology: &Topology) -> Scenario {
    let k = topology.len() as u16;
    let cfg = SenseConfig {
        source: NodeId(k - 1),
        sink: NodeId(0),
        interval_ms: 1000,
        packet_count: 2,
        max_reading: 63,
        levels: 1,
        parity_guard: true,
    };
    let programs = sense::programs(topology, &cfg);
    Scenario::new(topology.clone(), programs)
        .with_duration_ms(4000)
        .with_history_tracking(true)
        .with_state_cap(60_000)
}

/// The data-forking sense workload must also be bit-identical — its
/// branch outcomes, fork order, and state ids all flow through solver
/// queries that workers answer from their own caches.
#[test]
fn sense_workload_is_bit_identical_across_worker_counts() {
    let topology = Topology::line(4);
    let scenario = sense_scenario(&topology);
    for alg in Algorithm::ALL {
        let seq = Engine::new(scenario.clone(), alg).run();
        let seq_key = seq.equivalence_key();
        assert!(seq.solver.queries > 0, "sense must exercise the solver");
        for workers in WORKER_COUNTS {
            let par = parallel::run_sharded(&scenario, alg, workers);
            assert_eq!(
                par.equivalence_key(),
                seq_key,
                "{alg} sense diverged at {workers} workers"
            );
        }
    }
}

/// Replay presets skip offloading but still go through the parallel
/// loop: in-place parallel replays must match the sequential replay
/// exactly.
#[test]
fn preset_replays_match_under_parallel_execution() {
    let topology = Topology::line(4);
    let scenario = scenario(&topology, "drop");
    let mut engine = Engine::new(scenario.clone(), Algorithm::Sds);
    engine.run_in_place();
    let cases = sde_core::testgen::generate(&engine, 4);
    assert!(!cases.cases.is_empty());
    for case in cases.cases.iter().take(2) {
        let preset = sde::vm::Preset::from_model(&case.model, engine.symbols());
        let seq = Engine::new(scenario.clone(), Algorithm::Sds)
            .with_preset(preset.clone())
            .run();
        let mut par_engine = Engine::new(scenario.clone(), Algorithm::Sds).with_preset(preset);
        par_engine.run_sharded_in_place(4);
        let par = par_engine.into_report();
        assert_eq!(
            par.equivalence_key(),
            seq.equivalence_key(),
            "case {}",
            case.id
        );
        let pstats = par.parallel.as_ref().expect("parallel stats");
        assert_eq!(
            pstats.speculated_batches, 0,
            "preset runs must not offload batches"
        );
    }
}
