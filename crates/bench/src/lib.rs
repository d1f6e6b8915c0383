//! Shared harness for regenerating the paper's tables and figures.
//!
//! Experiment index (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! * **Table I** — `cargo run -p sde-bench --release --bin table1`
//! * **Figure 10 (a–f)** — `cargo run -p sde-bench --release --bin fig10`
//! * microbenchmarks & ablations — `cargo bench -p sde-bench`
//!
//! The harness reproduces the *shape* of the paper's results (who wins,
//! by what rough factor, where COB must be aborted), not the absolute
//! numbers of the authors' 2011 Xeon testbed; see DESIGN.md for the
//! substitutions.

use sde_core::check::Checker;
use sde_core::minimize::MinimizeReport;
use sde_core::oracle::ConformanceReport;
use sde_core::testgen::TestGenReport;
use sde_core::{Algorithm, Budget, Engine, EngineSnapshot, RunReport, Scenario};
use sde_net::{FailureConfig, FaultPlan, NodeId, Topology};
use sde_os::apps::collect::{self, CollectConfig};
use sde_os::apps::persist::{self, PersistConfig};
use sde_os::apps::sense::{self, SenseConfig};
use sde_os::apps::token::{self, TokenConfig};
use sde_os::layout;
use sde_symbolic::{Expr, ExprRef, Solver, Width};
use std::path::{Path, PathBuf};

/// The paper's §IV-A scenario for a `side × side` grid: corner-to-corner
/// static route, one packet per second for ten seconds, symbolic drop of
/// one packet at every route node and route neighbor.
pub fn paper_scenario(side: u16) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = CollectConfig::paper_grid(side, side);
    let failures =
        FailureConfig::new().drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
    let programs = collect::programs(&topology, &cfg);
    Scenario::new(topology, programs)
        .with_failures(failures)
        .with_duration_ms(10_000)
}

/// The solver-bound companion scenario for a `side × side` grid: the
/// [`sense`] workload (symbolic sensor readings classified at every route
/// hop), no failure model. Execution forks on *data* and nearly all wall
/// time goes to constraint solving — the `workers` axis of the engine
/// bench runs [`Engine::run_sharded`](sde_core::Engine::run_sharded) on
/// this scenario.
pub fn symbolic_grid(side: u16) -> Scenario {
    let topology = Topology::grid(side, side);
    let cfg = SenseConfig::paper_grid(side, side);
    let duration = cfg.interval_ms * (u64::from(cfg.packet_count) + 2);
    let programs = sense::programs(&topology, &cfg);
    Scenario::new(topology, programs).with_duration_ms(duration)
}

/// Named scenarios for the `oracle` conformance bin — deliberately tiny,
/// so the exhaustive ground-truth enumeration finishes in (at most)
/// thousands of concrete replays.
///
/// # Panics
///
/// Panics on an unknown preset name — a typo must not silently run the
/// wrong experiment.
pub fn oracle_scenario(preset: &str) -> Scenario {
    let line = |k: u16, drop_nodes: &[u16], packets: u16| {
        let topology = Topology::line(k);
        let cfg = CollectConfig {
            source: NodeId(k - 1),
            sink: NodeId(0),
            interval_ms: 1000,
            packet_count: packets,
            strict_sink: false,
        };
        let failures = FailureConfig::new().with_drops(drop_nodes.iter().map(|n| NodeId(*n)), 1);
        let programs = collect::programs(&topology, &cfg);
        Scenario::new(topology, programs)
            .with_failures(failures)
            .with_duration_ms(1000 * u64::from(packets) + 2000)
            .with_history_tracking(true)
    };
    // Drop budgets sit on *receiving* nodes (the failure decision is made
    // at delivery time), so the source node never spends one.
    match preset {
        "tiny" => line(2, &[0], 1),
        "line3" => line(3, &[0, 1], 2),
        "grid" => {
            let topology = Topology::grid(2, 2);
            let cfg = CollectConfig {
                source: NodeId(3),
                sink: NodeId(0),
                interval_ms: 1000,
                packet_count: 2,
                strict_sink: false,
            };
            let failures = FailureConfig::new()
                .drops_on_route_and_neighbors(&topology, cfg.source, cfg.sink, 1);
            let programs = collect::programs(&topology, &cfg);
            Scenario::new(topology, programs)
                .with_failures(failures)
                .with_duration_ms(4000)
                .with_history_tracking(true)
        }
        other => panic!("unknown oracle preset {other:?} (expected tiny|line3|grid)"),
    }
}

/// Named demo workloads for the `repro` bin and `table1 --check`
/// (DESIGN.md §12):
///
/// * `token` — the token-passing app on a 2×2 grid, route `0→1→3→2`.
///   With the seeded bug (`fixed == false`) a hand-off leaks the
///   persistent ownership flag, so a crash-recovery of node 0 under
///   `--faults crashrec` (or `all`) resurrects stale ownership and
///   violates `unique-token-owner`.
/// * `persist` — the crash-persistence app on a 3-node line. Its
///   invariants *hold*: this is the negative control that must exit 0.
///
/// # Panics
///
/// Panics on an unknown demo name.
pub fn demo_scenario(name: &str, fixed: bool) -> Scenario {
    match name {
        "token" => {
            let topology = Topology::grid(2, 2);
            let cfg = TokenConfig {
                route: vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)],
                leak_persistent_flag: !fixed,
                ..TokenConfig::default()
            };
            let programs = token::programs(&topology, &cfg);
            Scenario::new(topology, programs).with_duration_ms(2000)
        }
        "persist" => {
            let topology = Topology::line(3);
            let cfg = PersistConfig::default();
            let programs = persist::programs(&topology, &cfg);
            Scenario::new(topology, programs).with_duration_ms(1000)
        }
        other => panic!("unknown demo {other:?} (expected token|persist)"),
    }
}

/// The invariants checked against [`demo_scenario`]'s workloads.
///
/// # Panics
///
/// Panics on an unknown demo name.
pub fn demo_checker(name: &str) -> Checker {
    match name {
        "token" => Checker::new().cross_node("unique-token-owner", |views| {
            // Violated when any two nodes of one consistent global
            // snapshot both believe they hold the token.
            let owns: Vec<ExprRef> = views
                .iter()
                .map(|v| Expr::ne(v.memory_u16(layout::TOKEN_OWN), Expr::const_(0, Width::W16)))
                .collect();
            let mut violated: Option<ExprRef> = None;
            for i in 0..owns.len() {
                for j in i + 1..owns.len() {
                    let both = Expr::and_bool(owns[i].clone(), owns[j].clone());
                    violated = Some(match violated {
                        Some(v) => Expr::or_bool(v, both),
                        None => both,
                    });
                }
            }
            violated
        }),
        "persist" => Checker::new()
            .node_local("boot-count-positive", |view| {
                // Every booted node has incremented its persistent boot
                // counter at least once — zero means the persistent
                // window was lost.
                Some(Expr::eq(
                    view.memory_u16(layout::BOOT_COUNT),
                    Expr::const_(0, Width::W16),
                ))
            })
            .cross_node("seq-high-water-bounded", |views| {
                // No receiver's persisted high-water mark may exceed
                // what the source actually transmitted.
                let source = views.iter().find(|v| v.node == NodeId(0))?;
                let sent = source.memory_u16(layout::PERSIST_SEQ);
                let mut violated: Option<ExprRef> = None;
                for v in views.iter().filter(|v| v.node != NodeId(0)) {
                    let above = Expr::ugt(v.memory_u16(layout::PERSIST_SEQ), sent.clone());
                    violated = Some(match violated {
                        Some(prev) => Expr::or_bool(prev, above),
                        None => above,
                    });
                }
                violated
            }),
        other => panic!("unknown demo {other:?} (expected token|persist)"),
    }
}

/// The invariant `table1 --check` evaluates on the collect/sense
/// workloads: the sink can never have accepted more packets than the
/// source transmitted (drops only lose packets; the table workloads run
/// no duplication axis). Holds on every dscenario of a correct engine —
/// the check exercises the invariant layer at benchmark scale rather
/// than hunting a seeded bug.
pub fn workload_checker(source: NodeId, sink: NodeId) -> Checker {
    Checker::new().cross_node("sink-within-source", move |views| {
        let sink_view = views.iter().find(|v| v.node == sink)?;
        let source_view = views.iter().find(|v| v.node == source)?;
        Some(Expr::ugt(
            sink_view.memory_u16(layout::RECEIVED),
            source_view.memory_u16(layout::SEQ),
        ))
    })
}

/// One axis of the extended fault model (DESIGN.md §11) — the unit the
/// bench bins' `--faults` flag and the oracle's per-axis sweep work in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAxis {
    /// Symbolic partition of every link into the sink (node 0), healing
    /// at one of two symbolic candidate times.
    Partition,
    /// Symbolic extra delivery delay on the sink.
    Latency,
    /// Symbolic payload-byte corruption on the sink.
    Corrupt,
    /// Symbolic crash-with-recovery on the sink (persistent window
    /// survives, volatile state resets).
    CrashRec,
}

impl FaultAxis {
    /// Every axis, in `--faults all` order.
    pub const ALL: [FaultAxis; 4] = [
        FaultAxis::Partition,
        FaultAxis::Latency,
        FaultAxis::Corrupt,
        FaultAxis::CrashRec,
    ];

    /// Stable name for CLI values, labels and filenames.
    pub fn name(self) -> &'static str {
        match self {
            FaultAxis::Partition => "partition",
            FaultAxis::Latency => "latency",
            FaultAxis::Corrupt => "corrupt",
            FaultAxis::CrashRec => "crashrec",
        }
    }

    /// Parses a `--faults` value: `all`, or a comma-separated subset of
    /// `partition,latency,corrupt,crashrec`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown axis name — a typo'd axis must not silently
    /// run a faultless experiment.
    pub fn parse_list(s: &str) -> Vec<FaultAxis> {
        if s == "all" {
            return FaultAxis::ALL.to_vec();
        }
        s.split(',')
            .map(|axis| match axis.trim() {
                "partition" => FaultAxis::Partition,
                "latency" => FaultAxis::Latency,
                "corrupt" => FaultAxis::Corrupt,
                "crashrec" => FaultAxis::CrashRec,
                other => panic!(
                    "unknown fault axis {other:?} \
                     (expected partition|latency|corrupt|crashrec|all)"
                ),
            })
            .collect()
    }

    /// Joins axis names for labels: `partition+latency`.
    pub fn join(axes: &[FaultAxis]) -> String {
        axes.iter().map(|a| a.name()).collect::<Vec<_>>().join("+")
    }
}

/// Applies `axes` of the extended fault model to `scenario`, composing
/// one [`FaultPlan`] sized from the scenario itself:
///
/// * **partition** cuts every link into node 0 (the sink of every bench
///   workload — all traffic terminates there, so the cut is guaranteed
///   to be exercised), healing at `duration/4` or `duration/2` — two
///   candidates, so the heal time is itself one symbolic choice.
/// * **latency** delays deliveries into node 0 by `3 × link_latency_ms`
///   (budget 1).
/// * **corrupt** flips one symbolic byte of node 0's deliveries
///   (budget 1).
/// * **crashrec** lets node 0 crash-and-recover once; the persistent
///   window is the `sde-os` flash layout
///   ([`sde_os::layout::PERSIST_BASE`]).
pub fn with_fault_axes(scenario: Scenario, axes: &[FaultAxis]) -> Scenario {
    if axes.is_empty() {
        return scenario;
    }
    let sink = NodeId(0);
    let mut plan = FaultPlan::new();
    for axis in axes {
        plan = match axis {
            FaultAxis::Partition => {
                let cut: Vec<(NodeId, NodeId)> = scenario
                    .topology
                    .neighbors(sink)
                    .map(|n| (sink, n))
                    .collect();
                let d = scenario.duration_ms;
                plan.with_partition(cut, [d / 4, d / 2])
            }
            FaultAxis::Latency => plan.with_latency([sink], scenario.link_latency_ms * 3, 1),
            FaultAxis::Corrupt => plan.with_corruption([sink], 1),
            FaultAxis::CrashRec => plan.with_crash_recovery(
                [sink],
                1,
                sde_os::layout::PERSIST_BASE,
                sde_os::layout::PERSIST_SIZE,
            ),
        };
    }
    scenario.with_faults(plan)
}

/// Renders a self-contained repro artifact for a minimized violation
/// (DESIGN.md §12): a JSON array of flat objects — a header carrying
/// enough to rebuild the scenario (demo name, fault axes, both durations,
/// fault-plan fingerprint) and diff the outcome (`bug_digest`), then one
/// object per witness entry. Rendering is a pure function of the
/// [`MinimizeReport`], and minimization replays are serial, so the bytes
/// are identical no matter how many workers found the violation.
pub fn render_artifact(
    demo: &str,
    fixed: bool,
    algorithm: &str,
    base_duration_ms: u64,
    report: &MinimizeReport,
    digest: u64,
) -> String {
    let axes = report.scenario.faults.active_axes().join(",");
    let mut lines = vec![format!(
        "  {{\"version\": 1, \"demo\": \"{demo}\", \"fixed\": {fixed}, \
         \"algorithm\": \"{algorithm}\", \"invariant\": \"{}\", \"faults\": \"{axes}\", \
         \"base_duration_ms\": {base_duration_ms}, \"duration_ms\": {}, \
         \"fault_fingerprint\": \"{:#018x}\", \"bug_digest\": \"{digest:#018x}\", \
         \"entries\": {}}}",
        report.violation.invariant,
        report.final_duration_ms,
        report.scenario.faults.fingerprint(),
        report.assignment.len(),
    )];
    for ((node, name, occurrence), value) in &report.assignment {
        lines.push(format!(
            "  {{\"node\": {node}, \"name\": \"{name}\", \
             \"occurrence\": {occurrence}, \"value\": {value}}}"
        ));
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Writes a run's canonical equivalence key (wall times and solver
/// counters excluded — exactly [`RunReport::equivalence_key`]) to
/// `path`. The bytes are identical for any worker count, so CI can
/// `cmp` the files across a sweep.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_equivalence_report(path: &Path, report: &RunReport) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, report.equivalence_key())
}

/// Per-algorithm run parameters for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Abort cap on total created states (the paper's 40 GB analogue).
    pub state_cap: usize,
    /// Sampling period in processed events.
    pub sample_every: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            state_cap: 120_000,
            sample_every: 256,
        }
    }
}

/// Which layers of the incremental solver stack (DESIGN.md §6) a bench run
/// enables — the on/off axis of the cache-ablation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverLayers {
    /// Per-group exact caching plus the counterexample cache (default).
    Full,
    /// Whole-query exact matching only: independence-partitioned group
    /// caching and counterexample reuse both disabled. This is the
    /// pre-incremental baseline the acceptance criteria compare against.
    ExactOnly,
    /// Every cache layer disabled; each query is solved from scratch.
    Off,
}

impl SolverLayers {
    /// Parses a `--layers` value.
    ///
    /// # Panics
    ///
    /// Panics on anything but `full`, `exact`, or `off`.
    pub fn parse(s: &str) -> SolverLayers {
        match s {
            "full" => SolverLayers::Full,
            "exact" => SolverLayers::ExactOnly,
            "off" => SolverLayers::Off,
            other => panic!("invalid --layers {other:?} (expected full, exact, or off)"),
        }
    }

    /// Stable name for filenames and JSON labels.
    pub fn name(self) -> &'static str {
        match self {
            SolverLayers::Full => "full",
            SolverLayers::ExactOnly => "exact",
            SolverLayers::Off => "off",
        }
    }

    /// Applies this configuration to a solver's ablation toggles.
    pub fn apply(self, solver: &Solver) {
        match self {
            SolverLayers::Full => {}
            SolverLayers::ExactOnly => {
                solver.set_group_caching(false);
                solver.set_cex_caching(false);
            }
            SolverLayers::Off => {
                solver.set_caching(false);
                solver.set_cex_caching(false);
            }
        }
    }
}

/// The fully-configurable run entry point: runs `scenario` under
/// `algorithm` with the given limits, optionally through the sharded
/// engine (`Some(w)` runs [`Engine::run_sharded`] with `w` workers; the
/// report is bit-identical, plus [`RunReport::parallel`]
/// (sde_core::RunReport::parallel) counters), with an explicit
/// solver-layer configuration applied before the run starts, and the
/// `--dedup` axis — online duplicate-dispatch pruning
/// ([`Engine::set_dedup`], DESIGN.md §10). Canonical outputs are
/// dedup-invariant (pinned by `tests/dedup_equivalence.rs`); the payoff
/// shows up in [`RunReport::states_executed`](sde_core::RunReport) and
/// [`RunReport::dedup`](sde_core::RunReport).
pub fn run_with_limits_dedup(
    scenario: &Scenario,
    algorithm: Algorithm,
    limits: RunLimits,
    workers: Option<usize>,
    layers: SolverLayers,
    dedup: bool,
) -> RunReport {
    let s = scenario
        .clone()
        .with_state_cap(limits.state_cap)
        .with_sample_every(limits.sample_every);
    let engine = Engine::new(s, algorithm).with_dedup(dedup);
    layers.apply(engine.solver());
    match workers {
        None => engine.run(),
        Some(w) => engine.run_sharded(w),
    }
}

/// Checkpoint/resume options shared by the bench bins (DESIGN.md §8):
/// `--checkpoint-every N` (snapshot every N dispatched events),
/// `--snapshot-dir D` (where `<label>.snap` files land),
/// `--resume PATH` (a snapshot file, or a directory holding per-label
/// snapshots), `--stop-after S` (exit after S snapshots — the CI
/// "interrupted run" stand-in for a kill).
#[derive(Debug, Clone)]
pub struct Checkpointing {
    /// Snapshot cadence in dispatched events; 0 = never (resume-only).
    pub every: u64,
    /// Directory snapshot files are written to.
    pub dir: PathBuf,
    /// Snapshot file — or directory of `<label>.snap` files — to resume
    /// from.
    pub resume: Option<PathBuf>,
    /// Stop the run after writing this many snapshots.
    pub stop_after: Option<u64>,
}

impl Checkpointing {
    /// Parses the checkpoint flags; `None` when neither
    /// `--checkpoint-every` nor `--resume` was passed.
    pub fn from_args(args: &Args) -> Option<Checkpointing> {
        let every: Option<u64> = args.get("checkpoint-every");
        let resume: Option<String> = args.get("resume");
        if every.is_none() && resume.is_none() {
            return None;
        }
        Some(Checkpointing {
            every: every.unwrap_or(0),
            dir: PathBuf::from(
                args.get::<String>("snapshot-dir")
                    .unwrap_or_else(|| "bench_out/snapshots".to_string()),
            ),
            resume: resume.map(PathBuf::from),
            stop_after: args.get("stop-after"),
        })
    }

    /// Where this run's snapshot lands: `<dir>/<label>.snap`.
    pub fn snapshot_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{label}.snap"))
    }

    /// The snapshot to resume `label` from, when one applies: `--resume`
    /// pointed at a file uses it directly; pointed at a directory, the
    /// per-label file is used when present.
    pub fn resume_path(&self, label: &str) -> Option<PathBuf> {
        let p = self.resume.as_ref()?;
        if p.is_dir() {
            let candidate = p.join(format!("{label}.snap"));
            candidate.is_file().then_some(candidate)
        } else {
            Some(p.clone())
        }
    }
}

fn io_invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Loads and decodes a snapshot file with bin-friendly error messages.
///
/// # Errors
///
/// I/O errors reading the file; [`std::io::ErrorKind::InvalidData`] when
/// the bytes are not a valid snapshot (corruption, wrong version).
pub fn load_snapshot(path: &Path) -> std::io::Result<EngineSnapshot> {
    let bytes = std::fs::read(path)?;
    EngineSnapshot::from_bytes(&bytes).map_err(|e| io_invalid(format!("{}: {e}", path.display())))
}

/// [`run_with_limits_dedup`] with checkpoint/resume: optionally resumes
/// from `ckpt.resume`, then drives the run in `ckpt.every`-event
/// segments, writing a snapshot to `<dir>/<label>.snap` at every pause.
/// Returns `Ok(None)` when `--stop-after` ended the run early (the
/// snapshot on disk carries the progress); `Ok(Some(report))` on
/// completion. The completed report is equivalence-key-identical to an
/// uninterrupted [`run_with_limits_dedup`] run.
///
/// The dedup flag travels inside the snapshot, so a *resumed* run keeps
/// pruning regardless of the `dedup` argument here (which only
/// configures fresh runs); the memo index itself restarts cold after
/// every resume — same canonical results, possibly more states executed
/// (DESIGN.md §10).
///
/// # Errors
///
/// I/O errors reading/writing snapshot files; `InvalidData` when the
/// resume snapshot is malformed, is for a different algorithm, or does
/// not match the scenario.
#[allow(clippy::too_many_arguments)]
pub fn run_checkpointed_dedup(
    scenario: &Scenario,
    algorithm: Algorithm,
    limits: RunLimits,
    workers: Option<usize>,
    layers: SolverLayers,
    dedup: bool,
    ckpt: &Checkpointing,
    label: &str,
) -> std::io::Result<Option<RunReport>> {
    let s = scenario
        .clone()
        .with_state_cap(limits.state_cap)
        .with_sample_every(limits.sample_every);
    let mut engine = match ckpt.resume_path(label) {
        Some(path) => {
            let snap = load_snapshot(&path)?;
            if snap.algorithm() != algorithm {
                return Err(io_invalid(format!(
                    "{}: snapshot is a {} run, expected {algorithm}",
                    path.display(),
                    snap.algorithm()
                )));
            }
            let engine = Engine::resume(s, &snap)
                .map_err(|e| io_invalid(format!("{}: {e}", path.display())))?;
            println!(
                "     | resumed from {} ({} events, {} states in)",
                path.display(),
                snap.events_processed(),
                snap.total_states()
            );
            engine
        }
        None => Engine::new(s, algorithm).with_dedup(dedup),
    };
    layers.apply(engine.solver());
    let budget = if ckpt.every > 0 {
        Budget::events(ckpt.every)
    } else {
        Budget::unlimited()
    };
    let mut written = 0u64;
    loop {
        let outcome = match workers {
            None => engine.run_until(budget),
            Some(w) => engine.run_until_sharded(w, budget),
        };
        if outcome.is_complete() {
            return Ok(Some(engine.into_report()));
        }
        let path = ckpt.snapshot_path(label);
        std::fs::create_dir_all(&ckpt.dir)?;
        std::fs::write(&path, engine.snapshot().to_bytes())?;
        written += 1;
        if ckpt.stop_after.is_some_and(|n| written >= n) {
            println!(
                "     | stopped after {written} snapshot(s): {}",
                path.display()
            );
            return Ok(None);
        }
    }
}

/// Like [`run_with_limits_dedup`], with a [`sde_trace::RingSink`]
/// recorder attached: returns the report plus every captured trace event.
/// Eviction is never silent — a warning is printed if the ring filled up.
/// Pruned dispatches appear in the trace as `StatePruned` events pointing
/// at the memoized survivor.
pub fn run_with_limits_traced_dedup(
    scenario: &Scenario,
    algorithm: Algorithm,
    limits: RunLimits,
    workers: Option<usize>,
    layers: SolverLayers,
    dedup: bool,
) -> (RunReport, Vec<sde_trace::TimedEvent>) {
    let s = scenario
        .clone()
        .with_state_cap(limits.state_cap)
        .with_sample_every(limits.sample_every);
    let sink = std::sync::Arc::new(sde_trace::RingSink::default());
    let engine = Engine::new(s, algorithm)
        .with_dedup(dedup)
        .with_trace_sink(sink.clone() as std::sync::Arc<dyn sde_trace::TraceSink>);
    layers.apply(engine.solver());
    let report = match workers {
        None => engine.run(),
        Some(w) => engine.run_sharded(w),
    };
    if sink.dropped() > 0 {
        eprintln!(
            "warning: trace ring evicted {} events (capacity {}); the file is truncated",
            sink.dropped(),
            sde_trace::DEFAULT_RING_CAPACITY
        );
    }
    (report, sink.take())
}

/// Derives a per-run trace filename from the `--trace` base path:
/// `out.jsonl` + `cob` → `out_cob.jsonl`.
pub fn trace_file_for(base: &std::path::Path, label: &str) -> std::path::PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    let ext = base.extension().and_then(|s| s.to_str()).unwrap_or("jsonl");
    base.with_file_name(format!("{stem}_{label}.{ext}"))
}

/// Writes one recorded run to disk: deterministic JSONL at `path` plus a
/// Chrome `trace_event` twin at `<path stem>.chrome.json` (load it in
/// `chrome://tracing` or Perfetto).
///
/// # Errors
///
/// Propagates I/O errors from writing either file.
pub fn write_trace(
    path: &std::path::Path,
    events: &[sde_trace::TimedEvent],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    sde_trace::write_jsonl(path, events, true)?;
    sde_trace::write_chrome_trace(&path.with_extension("chrome.json"), events)
}

/// Formats the Table I header.
pub fn table_header() -> String {
    format!(
        "{:<4} | {:>12} | {:>10} | {:>12} |",
        "alg", "runtime", "states", "RAM (est.)"
    )
}

/// Writes a report's Fig. 10 series as CSV to `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_series_csv(report: &RunReport, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, report.series.to_csv())
}

/// Serializes one run report as a JSON object — the machine-readable
/// record behind `BENCH_table1.json` / `BENCH_fig10.json`. Hand-rolled:
/// the workspace is dependency-free, and the schema is flat enough that a
/// serializer would buy nothing.
///
/// `history_digest` is emitted as a hex *string*: u64 digests routinely
/// exceed JSON's 2^53 exact-integer range.
pub fn report_json(label: &str, report: &RunReport) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let s = &report.solver;
    let mut out = format!(
        concat!(
            "  {{\n",
            "    \"label\": \"{}\",\n",
            "    \"algorithm\": \"{}\",\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"virtual_ms\": {},\n",
            "    \"total_states\": {},\n",
            "    \"live_states\": {},\n",
            "    \"final_bytes\": {},\n",
            "    \"peak_bytes\": {},\n",
            "    \"instructions\": {},\n",
            "    \"events\": {},\n",
            "    \"packets\": {},\n",
            "    \"aborted\": {},\n",
            "    \"groups\": {},\n",
            "    \"duplicate_states\": {},\n",
            "    \"duplicate_terminated\": {},\n",
            "    \"states_executed\": {},\n",
            "    \"history_digest\": \"{:#018x}\",\n",
            "    \"solver\": {{\n",
            "      \"queries\": {},\n",
            "      \"cache_hits\": {},\n",
            "      \"group_cache_hits\": {},\n",
            "      \"model_reuse_hits\": {},\n",
            "      \"ucore_hits\": {},\n",
            "      \"sat\": {},\n",
            "      \"unsat\": {},\n",
            "      \"unknown\": {},\n",
            "      \"nodes_visited\": {}\n",
            "    }}",
        ),
        escape(label),
        escape(report.algorithm),
        report.wall.as_secs_f64() * 1000.0,
        report.virtual_ms,
        report.total_states,
        report.live_states,
        report.final_bytes,
        report.peak_bytes,
        report.instructions,
        report.events,
        report.packets,
        report.aborted,
        report.groups,
        report.duplicate_states,
        report.duplicate_terminated,
        report.states_executed,
        report.history_digest,
        s.queries,
        s.cache_hits,
        s.group_cache_hits,
        s.model_reuse_hits,
        s.ucore_hits,
        s.sat,
        s.unsat,
        s.unknown,
        s.nodes_visited,
    );
    // The dedup block is emitted only when the detector did anything —
    // all-zero stats mean dedup was off (or preset-gated) and the block
    // would be noise.
    let d = &report.dedup;
    if *d != sde_core::DedupStats::default() {
        out.push_str(&format!(
            concat!(
                ",\n    \"dedup\": {{\n",
                "      \"candidates\": {},\n",
                "      \"confirmed\": {},\n",
                "      \"collisions\": {},\n",
                "      \"pruned_states\": {},\n",
                "      \"saved_instructions\": {}\n",
                "    }}",
            ),
            d.candidates, d.confirmed, d.collisions, d.pruned_states, d.saved_instructions,
        ));
    }
    if let Some(p) = &report.parallel {
        out.push_str(&format!(
            concat!(
                ",\n    \"parallel\": {{\n",
                "      \"workers\": {},\n",
                "      \"batches\": {},\n",
                "      \"offloaded_batches\": {},\n",
                "      \"worker_jobs\": {},\n",
                "      \"worker_events\": {},\n",
                "      \"worker_instructions\": {},\n",
                "      \"worker_capped\": {},\n",
                "      \"shard_recorded\": {},\n",
                "      \"shard_applied\": {},\n",
                "      \"shard_fallback\": {},\n",
                "      \"shard_skips\": {},\n",
                "      \"shard_tainted\": {},\n",
                "      \"utilization\": {:.4}\n",
                "    }}",
            ),
            p.workers,
            p.batches,
            p.offloaded_batches,
            p.worker_jobs,
            p.worker_events,
            p.worker_instructions,
            p.worker_capped,
            p.shard_recorded,
            p.shard_applied,
            p.shard_fallback,
            p.shard_skips,
            p.shard_tainted,
            p.utilization(),
        ));
    }
    out.push_str("\n  }");
    out
}

fn json_string_array(items: &[String]) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let rendered: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", rendered.join(", "))
}

/// Serializes one [`ConformanceReport`] as a JSON object for
/// `BENCH_oracle.json`. Every truncation flag the oracle tracks is a
/// first-class field — a truncated verdict must be machine-detectable,
/// not buried in a prose summary.
pub fn conformance_json(label: &str, report: &ConformanceReport) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        concat!(
            "  {{\n",
            "    \"label\": \"{}\",\n",
            "    \"algorithm\": \"{}\",\n",
            "    \"clean\": {},\n",
            "    \"exhaustive\": {},\n",
            "    \"truth_outcomes\": {},\n",
            "    \"truth_assignments\": {},\n",
            "    \"truth_infeasible\": {},\n",
            "    \"truth_replays\": {},\n",
            "    \"truth_truncated\": {},\n",
            "    \"domain_truncated\": {},\n",
            "    \"input_space\": {},\n",
            "    \"cases\": {},\n",
            "    \"dscenarios_seen\": {},\n",
            "    \"unsolvable\": {},\n",
            "    \"testgen_truncated\": {},\n",
            "    \"matched\": {},\n",
            "    \"missing_count\": {},\n",
            "    \"phantom_count\": {},\n",
            "    \"duplicates\": {},\n",
            "    \"missing\": {},\n",
            "    \"phantom\": {}\n",
            "  }}",
        ),
        escape(label),
        escape(report.algorithm),
        report.is_clean(),
        report.exhaustive(),
        report.truth_outcomes,
        report.truth_assignments,
        report.truth_infeasible,
        report.truth_replays,
        report.truth_truncated,
        json_string_array(&report.domain_truncated),
        report.input_space,
        report.cases,
        report.dscenarios_seen,
        report.unsolvable,
        report.testgen_truncated,
        report.matched,
        report.missing.len(),
        report.phantom.len(),
        report.duplicates,
        json_string_array(&report.missing),
        json_string_array(&report.phantom),
    )
}

/// Serializes one [`TestGenReport`] as a JSON object — the `--testgen`
/// companion record in `BENCH_table1.json`. `truncated` is the point:
/// a capped generation pass must say so in the machine-readable output.
pub fn testgen_json(label: &str, report: &TestGenReport) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        concat!(
            "  {{\n",
            "    \"label\": \"{}\",\n",
            "    \"cases\": {},\n",
            "    \"dscenarios_seen\": {},\n",
            "    \"unsolvable\": {},\n",
            "    \"truncated\": {}\n",
            "  }}",
        ),
        escape(label),
        report.cases.len(),
        report.dscenarios_seen,
        report.unsolvable,
        report.truncated,
    )
}

/// Writes pre-rendered [`report_json`] objects as a JSON array to `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_bench_json(path: &std::path::Path, objects: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", objects.join(",\n")))
}

/// Parses `--key value`-style arguments (tiny, dependency-free).
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Args {
        let mut args = Args::default();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        args.pairs
                            .push((key.to_string(), iter.next().expect("peeked")));
                    }
                    _ => args.flags.push(key.to_string()),
                }
            }
        }
        args
    }

    /// The value of `--key`, parsed. `None` when the flag is absent.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when the flag is present but its value
    /// does not parse — a typo'd `--side banana` must not silently fall
    /// back to a default and launch the wrong (possibly much heavier)
    /// experiment.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| {
                v.parse()
                    .unwrap_or_else(|_| panic!("invalid value {v:?} for --{key}"))
            })
    }

    /// Whether the bare flag `--key` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shape() {
        let s = paper_scenario(5);
        assert_eq!(s.node_count(), 25);
        assert_eq!(s.duration_ms, 10_000);
        assert!(!s.failures.is_empty());
    }

    #[test]
    fn limits_apply() {
        let s = paper_scenario(3);
        let r = run_with_limits_dedup(
            &s,
            Algorithm::Cob,
            RunLimits {
                state_cap: 50,
                sample_every: 8,
            },
            None,
            SolverLayers::Full,
            false,
        );
        assert!(r.aborted, "a 50-state cap must abort COB");
        assert!(r.total_states >= 50);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let s = paper_scenario(3);
        let r = run_with_limits_dedup(
            &s,
            Algorithm::Sds,
            RunLimits {
                state_cap: 10_000,
                sample_every: 64,
            },
            None,
            SolverLayers::Full,
            false,
        );
        let obj = report_json("sds_full", &r);
        for key in [
            "\"label\"",
            "\"wall_ms\"",
            "\"packets\"",
            "\"group_cache_hits\"",
            "\"model_reuse_hits\"",
            "\"ucore_hits\"",
        ] {
            assert!(obj.contains(key), "missing {key} in {obj}");
        }
        let dir = std::env::temp_dir().join("sde-bench-json-test");
        let path = dir.join("BENCH_test.json");
        write_bench_json(&path, &[obj.clone(), obj]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("[\n"));
        assert!(content.trim_end().ends_with(']'));
        // Braces must balance and never go negative — the cheap
        // well-formedness proxy short of carrying a JSON parser.
        let mut depth = 0i64;
        for c in content.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced brackets in {content}");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced brackets in {content}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn layer_toggles_are_answer_preserving_and_observable() {
        let s = symbolic_grid(2);
        let limits = RunLimits::default();
        let run = |layers| run_with_limits_dedup(&s, Algorithm::Sds, limits, None, layers, false);
        let full = run(SolverLayers::Full);
        let exact = run(SolverLayers::ExactOnly);
        let off = run(SolverLayers::Off);
        // Cache layers may only change solver counters, never the run.
        assert_eq!(full.equivalence_key(), exact.equivalence_key());
        assert_eq!(full.equivalence_key(), off.equivalence_key());
        assert!(full.solver.group_cache_hits > 0, "{:?}", full.solver);
        assert_eq!(exact.solver.group_cache_hits, 0, "{:?}", exact.solver);
        assert_eq!(off.solver.cache_hits, 0, "{:?}", off.solver);
        assert_eq!(off.solver.group_cache_hits, 0, "{:?}", off.solver);
        assert_eq!(off.solver.model_reuse_hits, 0, "{:?}", off.solver);
        assert_eq!(off.solver.ucore_hits, 0, "{:?}", off.solver);
    }

    #[test]
    fn fault_axes_parse_and_apply() {
        assert_eq!(FaultAxis::parse_list("all"), FaultAxis::ALL.to_vec());
        assert_eq!(
            FaultAxis::parse_list("partition,crashrec"),
            vec![FaultAxis::Partition, FaultAxis::CrashRec]
        );
        assert_eq!(
            FaultAxis::join(&FaultAxis::ALL),
            "partition+latency+corrupt+crashrec"
        );
        let base = oracle_scenario("tiny");
        assert!(with_fault_axes(base.clone(), &[]).faults.is_empty());
        let all = with_fault_axes(base, &FaultAxis::ALL);
        assert!(all.faults.cut_contains(NodeId(0), NodeId(1)));
        assert_eq!(all.faults.heal_choices().len(), 2, "heal time is symbolic");
        assert_eq!(all.faults.latency_budget(NodeId(0)), 1);
        assert_eq!(all.faults.corrupt_budget(NodeId(0)), 1);
        assert_eq!(all.faults.crash_budget(NodeId(0)), 1);
        assert_eq!(all.faults.persist_base(), sde_os::layout::PERSIST_BASE);
    }

    #[test]
    #[should_panic(expected = "unknown fault axis")]
    fn fault_axis_typo_is_loud() {
        FaultAxis::parse_list("partition,latncy");
    }

    #[test]
    fn oracle_presets_resolve() {
        assert_eq!(oracle_scenario("tiny").node_count(), 2);
        assert_eq!(oracle_scenario("line3").node_count(), 3);
        assert_eq!(oracle_scenario("grid").node_count(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown oracle preset")]
    fn oracle_preset_typo_is_loud() {
        oracle_scenario("tinny");
    }

    #[test]
    fn conformance_json_surfaces_truncation() {
        use sde_core::oracle::{conformance_against, ground_truth, OracleConfig};
        let scenario = oracle_scenario("tiny");
        let cfg = OracleConfig::default();
        let truth = ground_truth(&scenario, &cfg);
        let clean = conformance_against(&truth, &scenario, Algorithm::Sds, None, &cfg);
        let obj = conformance_json("tiny_sds", &clean);
        assert!(obj.contains("\"truth_truncated\": false"), "{obj}");
        assert!(obj.contains("\"testgen_truncated\": false"), "{obj}");
        assert!(obj.contains("\"clean\": true"), "{obj}");

        // A capped enumeration must be loud in both renderings.
        let tight = OracleConfig {
            max_assignments: 1,
            ..OracleConfig::default()
        };
        let capped_truth = ground_truth(&scenario, &tight);
        let capped = conformance_against(&capped_truth, &scenario, Algorithm::Sds, None, &tight);
        let obj = conformance_json("tiny_capped", &capped);
        assert!(obj.contains("\"truth_truncated\": true"), "{obj}");
        assert!(obj.contains("\"exhaustive\": false"), "{obj}");
        assert!(
            capped.summary().contains("TRUNCATED"),
            "{}",
            capped.summary()
        );
    }

    #[test]
    fn testgen_json_surfaces_truncation() {
        use sde_core::testgen;
        let scenario = oracle_scenario("line3");
        let mut engine = Engine::new(scenario, Algorithm::Sds);
        engine.run_in_place();
        let full = testgen::generate(&engine, 4096);
        assert!(!full.truncated);
        let obj = testgen_json("line3_sds", &full);
        assert!(obj.contains("\"truncated\": false"), "{obj}");

        let capped = testgen::generate(&engine, 1);
        assert!(capped.truncated, "a 1-case cap must truncate line3");
        let obj = testgen_json("line3_capped", &capped);
        assert!(obj.contains("\"truncated\": true"), "{obj}");
    }

    #[test]
    fn csv_roundtrip() {
        let s = paper_scenario(3);
        let r = run_with_limits_dedup(
            &s,
            Algorithm::Sds,
            RunLimits::default(),
            None,
            SolverLayers::Full,
            false,
        );
        let dir = std::env::temp_dir().join("sde-bench-test");
        let path = dir.join("series.csv");
        write_series_csv(&r, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("wall_ms,"));
        assert!(content.lines().count() > 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}
