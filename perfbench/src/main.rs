//! `sde-perfbench`: runs one workload for a fixed time and prints its
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload collect-sds-6x6 --seed 0 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` drives only the public API and prints the end-to-end
//! metrics; `--trace 1` instruments the layers from outside the engine
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, and a record with host, commit and toolchain is appended
//! to `history.jsonl` beside this package's manifest.

use sde_core::oracle::Assignment;
use sde_core::testgen::{self, TestGenReport};
use sde_core::{Algorithm, Budget, Engine, Minimizer, RunReport};
use sde_perfbench::clock::{cpu_timed, Clock};
use sde_perfbench::layers::{step_to_end, CountingSink, MapperTimes, TimingMapper};
use sde_perfbench::stats::{fnv1a, median, percentile, self_status_mib};
use sde_perfbench::workload::{Digest, Expected, ReproExpected, Workload, TESTGEN_LIMIT};
use sde_vm::Preset;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed before each exploration, on top of the one the
/// exploration pays: `setup_s` is the median of all of them. Spreading
/// them over the run keeps a burst of load on the host from moving it.
const SETUPS_PER_PASS: usize = 8;

/// The most repro pipelines run on one explored engine; see
/// [`run_untraced`].
const REPROS_PER_ENGINE: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Human-readable context: sample count and range.
    note: String,
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Sample count per timing, for the history record.
    samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    /// Counts one operation, failing it when `problems` is not empty.
    fn operation(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: {what} failed: {p}");
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Pushes the median of the CPU seconds `values`, rescaled by
    /// `scale` (see [`Clock::scale`]), with its sample count and range.
    fn timing(&mut self, name: &'static str, values: &[f64], scale: f64) {
        let cpu = median(values).unwrap_or(0.0);
        let lo = percentile(values, 0.0).unwrap_or(0.0);
        let hi = percentile(values, 100.0).unwrap_or(0.0);
        self.samples.push((name, values.len()));
        eprintln!("perfbench: {name} CPU samples {values:.4?}");
        self.push(
            name,
            cpu * scale,
            "s",
            format!(
                "median of {} CPU times {cpu:.6} (min {lo:.4}, max {hi:.4}) x {scale:.4}",
                values.len()
            ),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: sde-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let expected = args.workload.expected(args.seed);
    eprintln!(
        "perfbench: {} seed {} (variant {}), {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seed % args.workload.variants(),
        args.seconds,
        u8::from(args.trace)
    );
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        run_traced(&args, &expected, deadline)
    } else {
        run_untraced(&args, &expected, deadline)
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if let Err(e) = append_history(&args, &outcome, &result) {
        eprintln!("perfbench: cannot append to the history file: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics through the public API only
// ---------------------------------------------------------------------------

/// Builds the scenario, creates the engine and boots it.
fn setup(args: &Args) -> Engine {
    let w = args.workload;
    let mut engine = Engine::new(w.scenario(args.seed), w.algorithm()).with_dedup(w.dedup());
    engine.run_until(Budget::events(0));
    engine
}

/// Runs `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

fn run_untraced(args: &Args, expected: &Expected, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut clock = Clock::new();
    let mut setup_s = Vec::new();
    let mut explore_s = Vec::new();
    let mut testgen_s = Vec::new();
    let mut repro_s = Vec::new();
    // Wall seconds of each exploration with its set-ups, each repro and
    // each test generation, reference loops included: what the loop
    // predicts the end of the next one from.
    let mut explore_wall = Vec::new();
    let mut repro_wall = Vec::new();
    let mut testgen_wall = Vec::new();
    let fits = |walls: &[f64]| {
        let typical = Duration::from_secs_f64(median(walls).unwrap_or(0.0));
        Instant::now() + typical <= deadline
    };

    loop {
        let started = Instant::now();
        let mut setups = Vec::new();
        for _ in 0..SETUPS_PER_PASS {
            match guarded(|| cpu_timed(|| setup(args))) {
                Ok((_, s)) => setups.push(s),
                Err(e) => out.operation("setup", vec![e]),
            }
        }
        setup_s.extend(setups);
        clock.tick();
        let explored = guarded(|| {
            let (mut engine, s) = cpu_timed(|| setup(args));
            let ((), e) = cpu_timed(|| {
                engine.run_until(Budget::unlimited());
            });
            (engine, s, e)
        });
        let (engine, s, e) = match explored {
            Ok(v) => v,
            Err(e) => {
                out.operation("exploration", vec![e]);
                break;
            }
        };
        setup_s.push(s);
        explore_s.push(e);
        clock.tick();
        explore_wall.push(started.elapsed().as_secs_f64());
        let unknown = engine.solver().stats().unknown;

        // The repro pipeline, then test generation. A pass that asks the
        // solver something leaves its cache warm for the next, so the
        // pipeline repeats on one explored engine only while it asks
        // nothing, and test generation runs once. Each is skipped once it
        // no longer fits before the deadline, and the run goes on
        // exploring.
        let started = Instant::now();
        let mut repros = 0;
        while repros < REPROS_PER_ENGINE && (repro_wall.is_empty() || fits(&repro_wall)) {
            repros += 1;
            let before = engine.solver().stats();
            let repro = guarded(|| cpu_timed(|| run_repro(args, &engine, None)));
            let after = engine.solver().stats();
            let ok = repro.is_ok();
            out.operation(
                "repro",
                match repro {
                    Ok((r, s)) => {
                        repro_s.push(s);
                        check_repro(expected, &r, after.unknown - before.unknown)
                    }
                    Err(e) => vec![e],
                },
            );
            if !ok || after.queries != before.queries {
                break;
            }
        }
        if repros > 0 {
            clock.tick();
            repro_wall.push(started.elapsed().as_secs_f64());
        }
        if testgen_wall.is_empty() || fits(&testgen_wall) {
            let started = Instant::now();
            let before = engine.solver().stats().unknown;
            let testgen = guarded(|| cpu_timed(|| testgen::generate(&engine, TESTGEN_LIMIT)));
            let after = engine.solver().stats().unknown;
            clock.tick();
            testgen_wall.push(started.elapsed().as_secs_f64());
            out.operation(
                "testgen",
                match testgen {
                    Ok((report, s)) => {
                        testgen_s.push(s);
                        check_testgen(expected, &report, after - before)
                    }
                    Err(e) => vec![e],
                },
            );
        }

        let report = engine.into_report();
        out.operation(
            "exploration",
            check_exploration(args, expected, &report, unknown),
        );
        drop(report);
        if !fits(&explore_wall) {
            break;
        }
    }

    let refs = &clock.references_s;
    let scale = clock.scale();
    eprintln!(
        "perfbench: reference loop median {:.6} s (min {:.6}, max {:.6}) over {}: scale {scale:.4}",
        median(refs).unwrap_or(0.0),
        percentile(refs, 0.0).unwrap_or(0.0),
        percentile(refs, 100.0).unwrap_or(0.0),
        refs.len()
    );
    out.timing("setup_s", &setup_s, scale);
    out.timing("explore_s", &explore_s, scale);
    out.timing("testgen_s", &testgen_s, scale);
    out.timing("repro_s", &repro_s, scale);
    let rss = self_status_mib("VmHWM").unwrap_or(0.0);
    out.push("peak_rss_mib", rss, "MiB", "VmHWM of this process".into());
    let passed = out.attempted - out.failed;
    let ok = passed as f64 / out.attempted.max(1) as f64;
    out.push(
        "ok_ratio",
        ok,
        "share",
        format!(
            "{passed} of {} operations passed their output checks",
            out.attempted
        ),
    );
    out
}

/// Runs `f` and returns its result with the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// What the repro pipeline produced.
#[derive(Debug, Default)]
struct ReproOutput {
    violations: usize,
    first_digest: Option<Digest>,
    minimal_digest: Option<Digest>,
    final_size: usize,
    probes: u64,
    replayed_digest: Option<Digest>,
    replay_unknown: u64,
    check_s: f64,
    minimize_s: f64,
    replay_s: f64,
}

/// The sinks a traced repro pipeline records its check and its
/// minimization through.
struct ReproSinks {
    check: Arc<CountingSink>,
    minimize: Arc<CountingSink>,
}

fn installed(sink: Option<&Arc<CountingSink>>) -> Option<sde_trace::SinkGuard> {
    sink.map(|s| sde_trace::install(Arc::clone(s) as Arc<dyn sde_trace::TraceSink>))
}

/// Checks the workload's invariants on the explored `engine`, minimizes
/// the violation with the smallest digest and replays the minimal
/// witness strictly.
fn run_repro(args: &Args, engine: &Engine, sinks: Option<&ReproSinks>) -> ReproOutput {
    let mut out = ReproOutput::default();
    let w = args.workload;

    let (violations, check_s) = timed(|| {
        let _guard = installed(sinks.map(|s| &s.check));
        w.checker(args.seed).check(engine)
    });
    out.check_s = check_s;
    out.violations = violations.len();
    // The checker visits states in hash-map order; the smallest digest
    // picks the same violation on every run.
    let Some(first) = violations.into_iter().min_by_key(|v| v.digest()) else {
        return out;
    };
    out.first_digest = Some(Digest(first.digest()));

    let (minimized, minimize_s) = timed(|| {
        let seed: Assignment = first
            .preset
            .iter()
            .map(|(node, name, occurrence, value)| ((node, name.to_string(), occurrence), value))
            .collect();
        let minimizer = Minimizer::new(
            w.scenario(args.seed),
            w.algorithm(),
            w.checker(args.seed),
            &first.invariant,
        );
        let _guard = installed(sinks.map(|s| &s.minimize));
        minimizer.minimize(&seed)
    });
    out.minimize_s = minimize_s;
    let Some(minimized) = minimized else {
        return out;
    };
    out.minimal_digest = Some(Digest(minimized.violation.digest()));
    out.final_size = minimized.final_size();
    out.probes = minimized.shrink_steps;

    let ((replayed, unknown), replay_s) = timed(|| {
        let mut preset = Preset::new();
        for ((node, name, occurrence), value) in &minimized.assignment {
            preset.insert(*node, name, *occurrence, *value);
        }
        let mut replay = Engine::new(minimized.scenario.clone(), w.algorithm())
            .with_preset(preset.with_strict());
        replay.run_until(Budget::unlimited());
        let digest = w
            .checker(args.seed)
            .check(&replay)
            .into_iter()
            .find(|v| v.invariant == first.invariant)
            .map(|v| Digest(v.digest()));
        (digest, replay.solver().stats().unknown)
    });
    out.replayed_digest = replayed;
    out.replay_unknown = unknown;
    out.replay_s = replay_s;
    out
}

/// Output checks of one exploration.
fn check_exploration(
    args: &Args,
    expected: &Expected,
    report: &RunReport,
    unknown: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let key_hash = fnv1a(report.equivalence_key().as_bytes());
    eprintln!(
        "perfbench: exploration {} states, {} events, key {key_hash:#018x}",
        report.total_states, report.events
    );
    if key_hash != expected.key_hash {
        problems.push(format!(
            "equivalence key hash {key_hash:#018x}, expected {:#018x}",
            expected.key_hash
        ));
    }
    if args.workload.algorithm() == Algorithm::Sds && report.duplicate_states != 0 {
        problems.push(format!(
            "SDS produced {} duplicate states",
            report.duplicate_states
        ));
    }
    if report.aborted {
        problems.push("the state cap aborted the run".into());
    }
    if unknown > 0 {
        problems.push(format!("{unknown} solver Unknown verdicts"));
    }
    problems
}

/// Compares `got` with `want`, noting a mismatch in `problems`.
fn expect<T: PartialEq + std::fmt::Debug>(problems: &mut Vec<String>, what: &str, got: T, want: T) {
    if got != want {
        problems.push(format!("{what} {got:?}, expected {want:?}"));
    }
}

/// Output checks of one test generation.
fn check_testgen(expected: &Expected, r: &TestGenReport, unknown: u64) -> Vec<String> {
    let got = (r.dscenarios_seen, r.cases.len(), r.unsolvable);
    eprintln!("perfbench: testgen (dscenarios, cases, unsolvable) = {got:?}");
    let mut problems = Vec::new();
    expect(
        &mut problems,
        "testgen (dscenarios, cases, unsolvable)",
        got,
        expected.testgen,
    );
    expect(&mut problems, "solver Unknown verdicts", unknown, 0);
    problems
}

/// Output checks of one repro pipeline.
fn check_repro(expected: &Expected, r: &ReproOutput, unknown: u64) -> Vec<String> {
    let got = ReproExpected {
        violations: r.violations,
        first_digest: r.first_digest,
        minimal_digest: r.minimal_digest,
        final_size: r.final_size,
        probes: r.probes,
    };
    eprintln!("perfbench: repro {got:?}, replayed {:?}", r.replayed_digest);
    let mut problems = Vec::new();
    expect(&mut problems, "repro", got, expected.repro);
    expect(
        &mut problems,
        "replayed digest",
        r.replayed_digest,
        r.minimal_digest,
    );
    expect(
        &mut problems,
        "solver Unknown verdicts",
        unknown + r.replay_unknown,
        0,
    );
    problems
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics, timed from the benchmark's own code
// ---------------------------------------------------------------------------

/// The rise of `VmHWM` across test generation.
const RSS_GROWTH: &str = "testgen.rss_growth_mib";

/// Per-layer values of one traced iteration, in print order.
type LayerValues = Vec<(&'static str, f64, &'static str)>;

fn run_traced(args: &Args, expected: &Expected, deadline: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut iterations: Vec<LayerValues> = Vec::new();
    let mut iteration_s: Vec<f64> = Vec::new();
    loop {
        let started = Instant::now();
        match guarded(|| traced_iteration(args, expected)) {
            Ok((values, problems)) => {
                out.operation("traced iteration", problems);
                iterations.push(values);
            }
            Err(e) => {
                out.operation("traced iteration", vec![e]);
                break;
            }
        }
        iteration_s.push(started.elapsed().as_secs_f64());
        let typical = Duration::from_secs_f64(median(&iteration_s).unwrap_or(0.0));
        if Instant::now() + typical > deadline {
            break;
        }
    }
    let Some(first) = iterations.first() else {
        return out;
    };
    for (i, (name, _, unit)) in first.iter().enumerate() {
        let values: Vec<f64> = iterations.iter().map(|it| it[i].1).collect();
        if *name == RSS_GROWTH {
            // Only the first test generation can raise the process's
            // peak; later ones find it raised already.
            out.push(name, values[0], unit, "first iteration".into());
        } else {
            out.push(
                name,
                median(&values).unwrap_or(0.0),
                unit,
                format!("median of {}", values.len()),
            );
        }
    }
    out.samples.push(("traced_iterations", iterations.len()));
    out
}

/// One untraced exploration (the overhead baseline), then one
/// instrumented exploration, test generation and repro pipeline.
fn traced_iteration(args: &Args, expected: &Expected) -> (LayerValues, Vec<String>) {
    let w = args.workload;
    let mut problems = Vec::new();
    let ns_to_s = |ns: u64| ns as f64 * 1e-9;
    let us_to_s = |us: u64| us as f64 * 1e-6;

    let mut plain = setup(args);
    let ((), plain_explore_s) = timed(|| {
        plain.run_until(Budget::unlimited());
    });
    let plain_key = fnv1a(plain.into_report().equivalence_key().as_bytes());

    // Exploration: timing mapper, counting sink, one event per step.
    let times = Rc::new(RefCell::new(MapperTimes::default()));
    let sink = Arc::new(CountingSink::default());
    let mapper = TimingMapper::new(w.algorithm().new_mapper(), Rc::clone(&times));
    let scenario = w.scenario(args.seed);
    let sample_every = scenario.sample_every as usize;
    let mut engine = Engine::new(scenario, w.algorithm())
        .with_dedup(w.dedup())
        .with_mapper(Box::new(mapper))
        .with_trace_sink(Arc::clone(&sink) as Arc<dyn sde_trace::TraceSink>);
    engine.run_until(Budget::events(0));
    let steps = step_to_end(&mut engine, &sink);
    let explore_s = steps.total_s();
    let solver = engine.solver().stats();
    let counts = sink.counts();
    if solver.unknown > 0 {
        problems.push(format!("{} solver Unknown verdicts", solver.unknown));
    }

    // The repro pipeline, then test generation, each under its own sink.
    let sinks = ReproSinks {
        check: Arc::new(CountingSink::default()),
        minimize: Arc::new(CountingSink::default()),
    };
    let repro = run_repro(args, &engine, Some(&sinks));
    let check_counts = sinks.check.counts();
    let minimize_counts = sinks.minimize.counts();
    problems.extend(check_repro(
        expected,
        &repro,
        check_counts.unknown + minimize_counts.unknown,
    ));
    if minimize_counts.shrink_steps != repro.probes {
        problems.push(format!(
            "{} ShrinkStep events for {} probes",
            minimize_counts.shrink_steps, repro.probes
        ));
    }
    let testgen_sink = Arc::new(CountingSink::default());
    let hwm_before = self_status_mib("VmHWM").unwrap_or(0.0);
    let testgen = {
        let _guard = installed(Some(&testgen_sink));
        testgen::generate(&engine, TESTGEN_LIMIT)
    };
    let rss_growth = self_status_mib("VmHWM").unwrap_or(0.0) - hwm_before;
    let tg_counts = testgen_sink.counts();
    problems.extend(check_testgen(expected, &testgen, tg_counts.unknown));

    let groups = engine.mapper().group_count();
    let report = engine.into_report();
    problems.extend(check_exploration(args, expected, &report, 0));
    let key = fnv1a(report.equivalence_key().as_bytes());
    if key != plain_key {
        problems.push(format!(
            "traced key {key:#018x} differs from untraced key {plain_key:#018x}"
        ));
    }

    let step_us: Vec<f64> = steps.step_ns.iter().map(|ns| *ns as f64 * 1e-3).collect();
    let p50_us = percentile(&step_us, 50.0).unwrap_or(0.0);
    let sample_s = steps
        .step_ns
        .iter()
        .enumerate()
        .filter(|(i, _)| (i + 1) % sample_every == 0)
        .map(|(_, ns)| ns_to_s(*ns) - p50_us * 1e-6)
        .sum::<f64>()
        .max(0.0);
    let t = times.borrow();
    let map_send_s = ns_to_s(t.map_send_ns.iter().sum());
    let map_send_us: Vec<f64> = t.map_send_ns.iter().map(|ns| *ns as f64 * 1e-3).collect();
    let on_branch_s = ns_to_s(t.on_branch_ns);
    let query_s = us_to_s(counts.query_us);
    let other_s = explore_s - map_send_s - on_branch_s - query_s - sample_s;
    eprintln!(
        "perfbench: traced explore {explore_s:.3} s (untraced {plain_explore_s:.3} s); \
         dedup.executed_ratio base: {} of {} states executed",
        report.states_executed, report.total_states
    );

    let v: LayerValues = vec![
        ("engine.events", steps.step_ns.len() as f64, "count"),
        ("engine.step_p50_us", p50_us, "us"),
        (
            "engine.step_p99_us",
            percentile(&step_us, 99.0).unwrap_or(0.0),
            "us",
        ),
        (
            "engine.step_max_ms",
            percentile(&step_us, 100.0).unwrap_or(0.0) * 1e-3,
            "ms",
        ),
        ("engine.sample_s", sample_s, "s"),
        ("engine.other_s", other_s.max(0.0), "s"),
        (
            "mapping.map_send_calls",
            t.map_send_ns.len() as f64,
            "count",
        ),
        ("mapping.map_send_s", map_send_s, "s"),
        (
            "mapping.map_send_p99_us",
            percentile(&map_send_us, 99.0).unwrap_or(0.0),
            "us",
        ),
        ("mapping.on_branch_calls", t.on_branch_calls as f64, "count"),
        ("mapping.on_branch_s", on_branch_s, "s"),
        ("mapping.fork_calls", t.fork_calls as f64, "count"),
        ("mapping.fork_s", ns_to_s(t.fork_ns), "s"),
        ("mapping.groups", groups as f64, "count"),
        ("solver.queries", solver.queries as f64, "count"),
        ("solver.query_s", query_s, "s"),
        ("solver.exact_hits", solver.cache_hits as f64, "count"),
        ("solver.group_hits", solver.group_cache_hits as f64, "count"),
        ("solver.reuse_hits", solver.model_reuse_hits as f64, "count"),
        ("solver.ucore_hits", solver.ucore_hits as f64, "count"),
        ("solver.full_solves", counts.full_solves as f64, "count"),
        ("solver.nodes_visited", solver.nodes_visited as f64, "count"),
        ("solver.unknown", solver.unknown as f64, "count"),
        ("vm.instructions", report.instructions as f64, "count"),
        ("vm.states_executed", report.states_executed as f64, "count"),
        ("dedup.candidates", report.dedup.candidates as f64, "count"),
        ("dedup.confirmed", report.dedup.confirmed as f64, "count"),
        ("dedup.collisions", report.dedup.collisions as f64, "count"),
        (
            "dedup.saved_instructions",
            report.dedup.saved_instructions as f64,
            "count",
        ),
        (
            "dedup.executed_ratio",
            report.states_executed as f64 / report.total_states.max(1) as f64,
            "ratio",
        ),
        ("dedup.replay_s", ns_to_s(steps.pruned_ns), "s"),
        ("queue.pushes", counts.queue_pushes as f64, "count"),
        (
            "testgen.dscenarios_seen",
            testgen.dscenarios_seen as f64,
            "count",
        ),
        ("testgen.cases", testgen.cases.len() as f64, "count"),
        ("testgen.unsolvable", testgen.unsolvable as f64, "count"),
        ("testgen.solver_s", us_to_s(tg_counts.query_us), "s"),
        (RSS_GROWTH, rss_growth, "MiB"),
        ("check.s", repro.check_s, "s"),
        ("check.violations", repro.violations as f64, "count"),
        ("check.solver_s", us_to_s(check_counts.query_us), "s"),
        ("minimize.s", repro.minimize_s, "s"),
        ("minimize.probes", repro.probes as f64, "count"),
        ("minimize.final_size", repro.final_size as f64, "count"),
        ("replay.s", repro.replay_s, "s"),
        ("trace.overhead_ratio", explore_s / plain_explore_s, "ratio"),
    ];
    (v, problems)
}

// ---------------------------------------------------------------------------
// History
// ---------------------------------------------------------------------------

/// Appends one record of this run to `history.jsonl` in the benchmark's
/// directory: the result line plus host, commit, toolchain, seed and
/// sample counts. Records are only ever appended.
fn append_history(args: &Args, outcome: &Outcome, result: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut samples = String::new();
    for (i, (name, n)) in outcome.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(samples, "{sep}\"{name}\": {n}");
    }
    let record = format!(
        "{{\"unix_s\": {unix_s}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"seconds\": {}, \"host_cores\": {cores}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"samples\": {{{samples}}}, \"result\": {result}}}\n",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        git_commit(dir),
        rustc_version(),
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    file.write_all(record.as_bytes())?;
    file.flush()
}

/// Output of a command, first line, JSON-safe; `"unknown"` on failure.
fn command_line(cmd: &mut std::process::Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|s| s.replace(['"', '\\'], ""))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark was built in. Git may not
/// look above the checkout, which need not be a repository at all.
fn git_commit(dir: &std::path::Path) -> String {
    let root = dir.parent().unwrap_or(dir);
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(above) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", above);
    }
    command_line(&mut cmd)
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    command_line(std::process::Command::new(rustc).arg("--version"))
}
