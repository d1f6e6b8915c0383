//! Interrupted-vs-straight differential tests for the checkpoint/resume
//! engine: a run that is paused every K events, snapshotted, serialized
//! to bytes, deserialized, and resumed — possibly many times — must be
//! indistinguishable from a run that was never interrupted. "Indistinguishable"
//! means the [`RunReport::equivalence_key`] matches *and* the
//! deterministic trace JSONL is byte-identical, for every algorithm,
//! worker count, and pause cadence.
//!
//! The sharded engine only pauses at the serial-merge barrier between
//! virtual-timestamp batches, so `K = 1` there means "pause after every
//! batch", not after every event.

#[path = "common/grid.rs"]
mod grid;
#[path = "common/line.rs"]
mod line;
#[path = "common/ring.rs"]
mod ring;

use grid::grid_collect;
use line::line_collect;
use ring::ring_hello;
use sde::prelude::*;
use sde::trace::{to_jsonl, RingSink, TraceSink};
use std::sync::Arc;

/// Pause cadences: after every event, every few events, and a budget
/// large enough that most segments span a big chunk of the run.
const CADENCES: [u64; 3] = [1, 7, 997];

/// The three seed topologies of the matrix: a line with two symbolic
/// drops, the paper's grid with drops on the route, and a failure-free
/// ring (pure communication, no forking at delivery).
fn topologies() -> Vec<(&'static str, Scenario)> {
    vec![
        ("line4", line_collect(4, &[1, 2], 2, false)),
        ("grid3x3", grid_collect(3, 3, 3000, false)),
        ("ring5", ring_hello(5)),
    ]
}

/// Drives `engine` to completion under `budget`-sized segments,
/// performing a full snapshot→serialize→deserialize→resume round trip at
/// every pause (direct snapshot→resume after the first few, to keep the
/// quadratic-in-pauses byte shuffling bounded). Returns the number of
/// pauses taken and the finished engine.
fn run_interrupted(
    scenario: &Scenario,
    algorithm: Algorithm,
    workers: Option<usize>,
    every: u64,
    sink: Option<&Arc<RingSink>>,
) -> (usize, Engine) {
    let mut engine = Engine::new(scenario.clone(), algorithm);
    if let Some(sink) = sink {
        engine = engine.with_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
    }
    let mut pauses = 0usize;
    loop {
        let outcome = match workers {
            None => engine.run_until(Budget::events(every)),
            Some(w) => engine.run_until_sharded(w, Budget::events(every)),
        };
        if outcome == RunOutcome::Complete {
            return (pauses, engine);
        }
        let snap = if pauses < 3 {
            let bytes = engine.snapshot().to_bytes();
            EngineSnapshot::from_bytes(&bytes).expect("snapshot bytes must decode")
        } else {
            engine.snapshot()
        };
        engine = Engine::resume(scenario.clone(), &snap).expect("snapshot must resume");
        if let Some(sink) = sink {
            engine = engine.with_trace_sink(Arc::clone(sink) as Arc<dyn TraceSink>);
        }
        pauses += 1;
    }
}

#[test]
fn interrupted_serial_runs_match_straight_runs() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            let straight = Engine::new(scenario.clone(), algorithm).run();
            for every in CADENCES {
                let (pauses, engine) = run_interrupted(&scenario, algorithm, None, every, None);
                if every == 1 {
                    assert!(pauses > 0, "[{name}] {algorithm}: run too small to pause");
                }
                assert_eq!(
                    engine.into_report().equivalence_key(),
                    straight.equivalence_key(),
                    "[{name}] {algorithm} serial run diverged when interrupted every {every}"
                );
            }
        }
    }
}

#[test]
fn interrupted_parallel_matrix_matches_straight_runs() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            // The sequential, uninterrupted run is the baseline for the
            // whole worker matrix: sharded equivalence is already pinned
            // by `shard_equivalence.rs`, so comparing against the serial
            // key makes this a strictly stronger statement.
            let straight = Engine::new(scenario.clone(), algorithm).run();
            for workers in [1usize, 2, 4] {
                for every in CADENCES {
                    let (pauses, engine) =
                        run_interrupted(&scenario, algorithm, Some(workers), every, None);
                    if every == 1 {
                        assert!(
                            pauses > 0,
                            "[{name}] {algorithm} w={workers}: run too small to pause"
                        );
                    }
                    assert_eq!(
                        engine.into_report().equivalence_key(),
                        straight.equivalence_key(),
                        "[{name}] {algorithm} w={workers} diverged when interrupted every {every}"
                    );
                }
            }
        }
    }
}

/// Straight-run trace baseline, no interruption. Each path is compared
/// against its own kind; worker count does not matter (pinned by
/// `trace_determinism.rs`).
fn straight_jsonl(scenario: &Scenario, algorithm: Algorithm, workers: Option<usize>) -> String {
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

#[test]
fn interrupted_traces_are_byte_identical_to_straight_traces() {
    for (name, scenario) in topologies() {
        for algorithm in Algorithm::ALL {
            let baseline = straight_jsonl(&scenario, algorithm, None);
            assert!(
                !baseline.is_empty(),
                "[{name}] {algorithm} produced an empty trace"
            );

            // Serial, paused after every event and every 7 events: the
            // same shared sink stays attached across all segments, so the
            // concatenated stream must equal the uninterrupted one.
            for every in [1u64, 7] {
                let sink = Arc::new(RingSink::default());
                let (pauses, _) = run_interrupted(&scenario, algorithm, None, every, Some(&sink));
                assert!(pauses > 0, "[{name}] {algorithm}: run too small to pause");
                assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
                assert_eq!(
                    to_jsonl(&sink.take(), true),
                    baseline,
                    "[{name}] {algorithm} serial trace diverged when interrupted every {every}"
                );
            }

            // Sharded at every worker count, paused at batch barriers.
            let parallel_baseline = straight_jsonl(&scenario, algorithm, Some(1));
            for workers in [1usize, 2, 4] {
                let sink = Arc::new(RingSink::default());
                run_interrupted(&scenario, algorithm, Some(workers), 7, Some(&sink));
                assert_eq!(sink.dropped(), 0, "trace ring must not evict in tests");
                assert_eq!(
                    to_jsonl(&sink.take(), true),
                    parallel_baseline,
                    "[{name}] {algorithm} w={workers} trace diverged across interruption"
                );
            }
        }
    }
}
