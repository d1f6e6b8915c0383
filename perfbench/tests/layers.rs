//! The benchmark's instruments must not change what the engine explores,
//! its seeds must pick equal-sized inputs, its statistics helpers must
//! give the expected numbers on fixed inputs, and its clock must rescale
//! by the reference loops it timed.

use sde_core::{Algorithm, Budget, Engine, Scenario};
use sde_perfbench::clock::{reference_work, thread_cpu_s, Clock, NOMINAL_REFERENCE_S};
use sde_perfbench::layers::{step_to_end, CountingSink, MapperTimes, TimingMapper};
use sde_perfbench::stats::{median, percentile, status_field_mib};
use sde_perfbench::workload::{collect_grid, diagonal_corners, sense_grid, token_line};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Tiny scenarios covering drops, symbolic data and fault axes.
fn tiny_scenarios() -> Vec<(&'static str, Scenario)> {
    let (source, sink) = diagonal_corners(2, 0);
    vec![
        ("collect 2x2", collect_grid(2, source, sink)),
        ("sense 2x2", sense_grid(2, 1000)),
        ("token line 3", token_line(3, false)),
    ]
}

fn plain_key(scenario: &Scenario, algorithm: Algorithm, dedup: bool) -> String {
    Engine::new(scenario.clone(), algorithm)
        .with_dedup(dedup)
        .run()
        .equivalence_key()
}

#[test]
fn instrumented_stepping_matches_a_plain_run() {
    for (name, scenario) in tiny_scenarios() {
        for algorithm in Algorithm::ALL {
            for dedup in [false, true] {
                let expected = plain_key(&scenario, algorithm, dedup);
                let times = Rc::new(RefCell::new(MapperTimes::default()));
                let sink = Arc::new(CountingSink::default());
                let mut engine = Engine::new(scenario.clone(), algorithm)
                    .with_dedup(dedup)
                    .with_mapper(Box::new(TimingMapper::new(
                        algorithm.new_mapper(),
                        Rc::clone(&times),
                    )))
                    .with_trace_sink(Arc::clone(&sink) as Arc<dyn sde_core::TraceSink>);
                engine.run_until(Budget::events(0));
                let steps = step_to_end(&mut engine, &sink);
                let solver_queries = engine.solver().stats().queries;
                let report = engine.into_report();
                let label = format!("{name} {algorithm} dedup={dedup}");
                assert_eq!(report.equivalence_key(), expected, "{label}");
                assert_eq!(steps.step_ns.len() as u64, report.events, "{label}");
                assert_eq!(
                    times.borrow().map_send_ns.len() as u64,
                    report.mapper.sends_mapped,
                    "{label}"
                );
                assert_eq!(sink.counts().queries, solver_queries, "{label}");
            }
        }
    }
}

#[test]
fn timing_decorator_alone_matches_a_plain_run() {
    for (name, scenario) in tiny_scenarios() {
        for algorithm in Algorithm::ALL {
            let times = Rc::new(RefCell::new(MapperTimes::default()));
            let report = Engine::new(scenario.clone(), algorithm)
                .with_mapper(Box::new(TimingMapper::new(
                    algorithm.new_mapper(),
                    Rc::clone(&times),
                )))
                .run();
            assert_eq!(
                report.equivalence_key(),
                plain_key(&scenario, algorithm, false),
                "{name} {algorithm}"
            );
            assert_eq!(
                times.borrow().on_branch_calls,
                report.mapper.branches_seen,
                "{name} {algorithm}"
            );
        }
    }
}

#[test]
fn variant_zero_is_the_repository_scenario() {
    let (source, sink) = diagonal_corners(3, 0);
    assert_eq!(
        plain_key(&collect_grid(3, source, sink), Algorithm::Sds, false),
        plain_key(&sde_bench::paper_scenario(3), Algorithm::Sds, false)
    );
    assert_eq!(
        plain_key(&sense_grid(2, 1000), Algorithm::Sds, false),
        plain_key(&sde_bench::symbolic_grid(2), Algorithm::Sds, false)
    );
}

#[test]
fn variants_do_equal_work() {
    let work = |s: &Scenario| {
        let r = Engine::new(s.clone(), Algorithm::Sds).run();
        (r.total_states, r.events, r.instructions)
    };
    let collect: Vec<_> = (0..4)
        .map(|v| {
            let (source, sink) = diagonal_corners(3, v);
            work(&collect_grid(3, source, sink))
        })
        .collect();
    assert!(collect.windows(2).all(|w| w[0] == w[1]), "{collect:?}");
    let sense: Vec<_> = (0..4)
        .map(|v| work(&sense_grid(2, 1000 + 100 * v)))
        .collect();
    assert!(sense.windows(2).all(|w| w[0] == w[1]), "{sense:?}");
    assert_eq!(work(&token_line(4, false)), work(&token_line(4, true)));
}

#[test]
fn diagonal_corners_are_opposite_corners() {
    let corners: Vec<_> = (0..4).map(|v| diagonal_corners(7, v)).collect();
    let ids: Vec<_> = corners.iter().map(|(a, b)| (a.0, b.0)).collect();
    assert_eq!(ids, vec![(48, 0), (0, 48), (6, 42), (42, 6)]);
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), Some(50.0));
    assert_eq!(percentile(&values, 99.0), Some(99.0));
    assert_eq!(percentile(&values, 100.0), Some(100.0));
    assert_eq!(percentile(&values, 0.0), Some(1.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
}

#[test]
fn medians_average_the_middle_pair() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn status_fields_parse_to_mib() {
    let status = "Name:\tsde-perfbench\nVmPeak:\t 3000000 kB\nVmHWM:\t 1861120 kB\n\
                  VmRSS:\t   62464 kB\nThreads:\t1\n";
    assert_eq!(status_field_mib(status, "VmHWM"), Some(1817.5));
    assert_eq!(status_field_mib(status, "VmRSS"), Some(61.0));
    assert_eq!(status_field_mib(status, "VmSwap"), None);
    assert_eq!(status_field_mib("VmHWM:\t12 MB\n", "VmHWM"), None);
    assert_eq!(status_field_mib("VmHWMX:\t12 kB\n", "VmHWM"), None);
    assert!(sde_perfbench::stats::self_status_mib("VmHWM").is_some_and(|m| m > 0.0));
}

#[test]
fn reference_work_is_deterministic_and_uses_cpu_time() {
    let mut table = HashMap::new();
    let start = thread_cpu_s();
    let first = reference_work(&mut table, 20_000);
    assert!(thread_cpu_s() > start);
    assert_eq!(reference_work(&mut table, 20_000), first);
    assert_eq!(reference_work(&mut HashMap::new(), 20_000), first);
}

#[test]
fn clock_rescales_by_the_median_reference_loop() {
    let mut clock = Clock::new();
    assert_eq!(clock.scale(), 1.0);
    for _ in 0..3 {
        clock.tick();
    }
    assert_eq!(clock.references_s.len(), 3);
    let m = median(&clock.references_s).unwrap();
    assert!(m > 0.0);
    assert!((clock.scale() - NOMINAL_REFERENCE_S / m).abs() < 1e-12);
}
