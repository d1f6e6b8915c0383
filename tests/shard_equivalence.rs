//! Differential tests for the *sharded* parallel engine:
//! `Engine::run_sharded` partitions the frontier into disjoint subtrees
//! by root-fork lineage and lets workers execute them authoritatively
//! (worker-local solvers, recorded dispatch effects), yet the
//! deterministic merge must keep every observable bit-identical to the
//! sequential `Engine::run` — same state ids, packet ids, instruction
//! counts, series rows, bugs, and final-state digest — at every worker
//! count, for every algorithm, topology, and symbolic failure model.
//!
//! Traced and preset runs deliberately degenerate to pure serial
//! execution inside the shard loop (DESIGN.md §5), which is what makes
//! their JSONL byte-equality trivial — asserted here anyway, because it
//! is the contract CI's shard-smoke job compares with `cmp`.

#[path = "common/faults.rs"]
mod faults;

use sde::prelude::*;
use sde::trace::{to_jsonl, RingSink, TraceSink};
use sde_core::Engine;
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::sense::{self, SenseConfig};
use std::sync::Arc;

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
/// middle nodes (budget 1 each) — same matrix as
/// `parallel_equivalence.rs`, so the method and function-style entry
/// points are pinned against the identical baseline.
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
/// every sharded report against the sequential baseline.
fn check_failure_model(failure: &str) {
    for (topo_name, topology) in topologies() {
        let scenario = scenario(&topology, failure);
        for alg in Algorithm::ALL {
            let seq = Engine::new(scenario.clone(), alg).run();
            let seq_key = seq.equivalence_key();
            for workers in WORKER_COUNTS {
                let shard = Engine::new(scenario.clone(), alg).run_sharded(workers);
                assert_eq!(
                    shard.equivalence_key(),
                    seq_key,
                    "{alg} on {topo_name} with {failure} diverged at {workers} workers"
                );
                let pstats = shard
                    .parallel
                    .as_ref()
                    .expect("sharded runs report ParallelStats");
                assert_eq!(pstats.workers, workers);
                assert!(
                    pstats.batches >= 1 && pstats.batches <= shard.events,
                    "batches ({}) must count distinct timestamps, bounded by \
                     processed events ({})",
                    pstats.batches,
                    shard.events
                );
                // One recording can be applied to *several* congruent
                // families in a batch, so `shard_applied` may exceed
                // `shard_recorded` — but never appear out of thin air.
                assert!(
                    pstats.shard_applied == 0 || pstats.shard_recorded > 0,
                    "applications require recordings: {}",
                    pstats.summary()
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
/// route hop. Receive-side dispatches mint no fresh symbols, so this is
/// the scenario where shard workers produce recordings the merge can
/// actually apply.
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

#[test]
fn sense_workload_is_bit_identical_across_worker_counts() {
    let topology = Topology::line(4);
    let scenario = sense_scenario(&topology);
    for alg in Algorithm::ALL {
        let seq = Engine::new(scenario.clone(), alg).run();
        let seq_key = seq.equivalence_key();
        assert!(seq.solver.queries > 0, "sense must exercise the solver");
        for workers in WORKER_COUNTS {
            let shard = Engine::new(scenario.clone(), alg).run_sharded(workers);
            assert_eq!(
                shard.equivalence_key(),
                seq_key,
                "{alg} sense diverged at {workers} workers"
            );
        }
    }
}

/// Oversubscription stress: with twice as many workers as cores the
/// threads really interleave, and the merge must stay deterministic on
/// every repetition, not only when one core serializes the workers.
#[test]
fn sense_grid_stays_bit_identical_under_oversubscription() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = (2 * cores).max(4);
    let scenario = sense_scenario(&Topology::grid(3, 3));
    for alg in [Algorithm::Cow, Algorithm::Sds] {
        let seq_key = Engine::new(scenario.clone(), alg).run().equivalence_key();
        for round in 0..5 {
            let shard = Engine::new(scenario.clone(), alg).run_sharded(workers);
            assert_eq!(
                shard.equivalence_key(),
                seq_key,
                "{alg} sense grid diverged at {workers} workers (round {round})"
            );
        }
    }
}

/// The tentpole's payoff counters: on a mint-free workload the workers
/// must record real dispatch effects and the merge must adopt them
/// instead of re-executing.
#[test]
fn shard_workers_do_authoritative_work() {
    let topology = Topology::line(4);
    let scenario = sense_scenario(&topology);
    let seq = Engine::new(scenario.clone(), Algorithm::Sds).run();
    let shard = Engine::new(scenario.clone(), Algorithm::Sds).run_sharded(4);
    assert_eq!(shard.equivalence_key(), seq.equivalence_key());
    let pstats = shard.parallel.as_ref().expect("shard stats");
    assert!(
        pstats.worker_jobs > 0,
        "a 4-node batch must fan out at least one shard group"
    );
    assert!(
        pstats.shard_recorded > 0,
        "workers must record mint-free dispatches: {}",
        pstats.summary()
    );
    assert!(
        pstats.shard_applied > 0,
        "the merge must adopt worker recordings: {}",
        pstats.summary()
    );
    assert_eq!(
        pstats.worker_capped, 0,
        "no sense group approaches SHARD_INSTRUCTION_CAP"
    );
    assert!(
        pstats.worker_instructions > 0,
        "worker-side execution must bank instructions"
    );
}

/// Runs `scenario` with a recorder attached and returns the
/// deterministic JSONL rendering; `workers == None` is the serial
/// baseline.
fn traced_jsonl(scenario: &Scenario, algorithm: Algorithm, workers: Option<usize>) -> String {
    let sink = Arc::new(RingSink::default());
    let engine = Engine::new(scenario.clone(), algorithm)
        .with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
    match workers {
        None => engine.run(),
        Some(w) => engine.run_sharded(w),
    };
    assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
    to_jsonl(&sink.take(), true)
}

/// Traced shard runs degenerate to serial execution inside the shard
/// loop, so their JSONL must be byte-identical to the sequential trace —
/// not merely equivalent — at every worker count.
#[test]
fn traced_shard_runs_emit_byte_identical_serial_jsonl() {
    for (topo_name, topology) in topologies() {
        let scenario = scenario(&topology, "drop");
        for alg in Algorithm::ALL {
            let baseline = traced_jsonl(&scenario, alg, None);
            assert!(
                !baseline.is_empty(),
                "[{topo_name}] {alg} produced an empty trace"
            );
            for workers in [1usize, 2, 4] {
                assert_eq!(
                    traced_jsonl(&scenario, alg, Some(workers)),
                    baseline,
                    "[{topo_name}] {alg} shard trace diverged at {workers} workers"
                );
            }
        }
    }
}

/// Replay presets skip offloading but still go through the sharded
/// loop: reports must match the sequential replay exactly, and no batch
/// may be offloaded.
#[test]
fn preset_replays_match_under_sharded_execution() {
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
        let shard = Engine::new(scenario.clone(), Algorithm::Sds)
            .with_preset(preset)
            .run_sharded(4);
        assert_eq!(
            shard.equivalence_key(),
            seq.equivalence_key(),
            "case {}",
            case.id
        );
        let pstats = shard.parallel.as_ref().expect("shard stats");
        assert_eq!(
            pstats.offloaded_batches, 0,
            "preset runs must not offload batches"
        );
    }
}

/// Sharded segments interrupted by full snapshot→bytes→resume round
/// trips must still land on the sequential baseline — the snapshot
/// carries the per-state shard-lineage fields.
#[test]
fn interrupted_sharded_runs_match_straight_serial_runs() {
    for (topo_name, topology) in topologies() {
        let scenario = scenario(&topology, "drop");
        for alg in Algorithm::ALL {
            let straight = Engine::new(scenario.clone(), alg).run();
            for workers in [2usize, 4] {
                let mut engine = Engine::new(scenario.clone(), alg);
                let mut pauses = 0usize;
                while engine.run_until_sharded(workers, Budget::events(7)) != RunOutcome::Complete {
                    let snap = if pauses < 3 {
                        let bytes = engine.snapshot().to_bytes();
                        EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode")
                    } else {
                        engine.snapshot()
                    };
                    engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
                    pauses += 1;
                }
                assert!(
                    pauses > 0,
                    "[{topo_name}] {alg} w={workers}: run too small to pause"
                );
                assert_eq!(
                    engine.into_report().equivalence_key(),
                    straight.equivalence_key(),
                    "[{topo_name}] {alg} w={workers} diverged across {pauses} pauses"
                );
            }
        }
    }
}
