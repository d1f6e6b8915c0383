//! Instruments that time calls into the engine's layers from outside the
//! engine: a timing [`StateMapper`] decorator, a counting [`TraceSink`]
//! and a one-event-at-a-time stepping loop. None of them changes what the
//! engine explores; `tests/layers.rs` pins that.

use sde_core::{Budget, Delivery, Engine, MapperSnapshot, MapperStats, StateId, StateMapper};
use sde_core::{StateStore, TraceEvent, TraceSink};
use sde_net::NodeId;
use sde_trace::{GroupLayer, Verdict};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Time spent in the state mapper, filled by [`TimingMapper`].
#[derive(Debug, Default, Clone)]
pub struct MapperTimes {
    /// Duration of every `map_send` call, in ns (forks included).
    pub map_send_ns: Vec<u64>,
    /// `on_branch` calls and their total duration (forks included).
    pub on_branch_calls: u64,
    /// See [`MapperTimes::on_branch_calls`].
    pub on_branch_ns: u64,
    /// Forks the mapper requested through the store, and their total
    /// duration.
    pub fork_calls: u64,
    /// See [`MapperTimes::fork_calls`].
    pub fork_ns: u64,
}

/// A [`StateMapper`] decorator that times `map_send` and `on_branch`,
/// and hands the inner mapper a [`StateStore`] that times its forks.
/// Everything else is delegated unchanged, including the name.
#[derive(Debug)]
pub struct TimingMapper {
    inner: Box<dyn StateMapper>,
    times: Rc<RefCell<MapperTimes>>,
}

impl TimingMapper {
    /// Wraps `inner`; the timings accumulate in `times`.
    pub fn new(inner: Box<dyn StateMapper>, times: Rc<RefCell<MapperTimes>>) -> TimingMapper {
        TimingMapper { inner, times }
    }
}

/// The store the inner mapper forks through: times each fork.
struct TimingStore<'a> {
    inner: &'a mut dyn StateStore,
    times: &'a RefCell<MapperTimes>,
}

impl StateStore for TimingStore<'_> {
    fn fork(&mut self, original: StateId) -> StateId {
        let start = Instant::now();
        let child = self.inner.fork(original);
        let ns = elapsed_ns(start);
        let mut times = self.times.borrow_mut();
        times.fork_calls += 1;
        times.fork_ns += ns;
        child
    }

    fn node_of(&self, state: StateId) -> NodeId {
        self.inner.node_of(state)
    }
}

impl StateMapper for TimingMapper {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_boot(&mut self, states: &[(StateId, NodeId)]) {
        self.inner.on_boot(states);
    }

    fn on_branch(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        store: &mut dyn StateStore,
    ) {
        let start = Instant::now();
        let mut timed = TimingStore {
            inner: store,
            times: &self.times,
        };
        self.inner.on_branch(parent, child, node, &mut timed);
        let ns = elapsed_ns(start);
        let mut times = self.times.borrow_mut();
        times.on_branch_calls += 1;
        times.on_branch_ns += ns;
    }

    fn map_send(
        &mut self,
        sender: StateId,
        sender_node: NodeId,
        dest: NodeId,
        store: &mut dyn StateStore,
    ) -> Delivery {
        let start = Instant::now();
        let mut timed = TimingStore {
            inner: store,
            times: &self.times,
        };
        let delivery = self.inner.map_send(sender, sender_node, dest, &mut timed);
        let ns = elapsed_ns(start);
        self.times.borrow_mut().map_send_ns.push(ns);
        delivery
    }

    fn group_count(&self) -> usize {
        self.inner.group_count()
    }

    fn stats(&self) -> MapperStats {
        self.inner.stats()
    }

    fn dscenarios(&self) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        self.inner.dscenarios()
    }

    fn dscenarios_containing(&self, state: StateId) -> Box<dyn Iterator<Item = Vec<StateId>> + '_> {
        self.inner.dscenarios_containing(state)
    }

    fn check_invariants(&self) -> Option<String> {
        self.inner.check_invariants()
    }

    fn export_snapshot(&self) -> MapperSnapshot {
        self.inner.export_snapshot()
    }

    fn import_snapshot(&mut self, snapshot: MapperSnapshot) -> Result<(), String> {
        self.inner.import_snapshot(snapshot)
    }
}

/// A [`TraceSink`] that keeps counters instead of events: solver query
/// time, full solves, queue pushes, pruned states and shrink steps.
#[derive(Debug, Default)]
pub struct CountingSink {
    queries: AtomicU64,
    query_us: AtomicU64,
    unknown: AtomicU64,
    full_solves: AtomicU64,
    queue_pushes: AtomicU64,
    pruned: AtomicU64,
    shrink_steps: AtomicU64,
}

/// A snapshot of a [`CountingSink`]'s counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SinkCounts {
    /// `Query` events.
    pub queries: u64,
    /// Sum of `Query.dur_us`, in whole µs.
    pub query_us: u64,
    /// `Query` events with verdict `Unknown`.
    pub unknown: u64,
    /// `QueryGroup` events answered by a full solve.
    pub full_solves: u64,
    /// `QueuePush` events.
    pub queue_pushes: u64,
    /// `ShrinkStep` events.
    pub shrink_steps: u64,
}

impl CountingSink {
    /// The counters so far.
    pub fn counts(&self) -> SinkCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        SinkCounts {
            queries: get(&self.queries),
            query_us: get(&self.query_us),
            unknown: get(&self.unknown),
            full_solves: get(&self.full_solves),
            queue_pushes: get(&self.queue_pushes),
            shrink_steps: get(&self.shrink_steps),
        }
    }

    /// `StatePruned` events so far.
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }
}

impl TraceSink for CountingSink {
    fn record(&self, ev: TraceEvent) {
        let bump = |a: &AtomicU64, n: u64| {
            a.fetch_add(n, Ordering::Relaxed);
        };
        match ev {
            TraceEvent::Query {
                verdict, dur_us, ..
            } => {
                bump(&self.queries, 1);
                bump(&self.query_us, dur_us);
                if verdict == Verdict::Unknown {
                    bump(&self.unknown, 1);
                }
            }
            TraceEvent::QueryGroup {
                layer: GroupLayer::Solve,
            } => bump(&self.full_solves, 1),
            TraceEvent::QueuePush { .. } => bump(&self.queue_pushes, 1),
            TraceEvent::StatePruned { .. } => bump(&self.pruned, 1),
            TraceEvent::ShrinkStep { .. } => bump(&self.shrink_steps, 1),
            _ => {}
        }
    }
}

/// Per-step timings of [`step_to_end`].
#[derive(Debug, Default, Clone)]
pub struct StepTimes {
    /// Duration of each step that dispatched one event, in ns, in
    /// dispatch order.
    pub step_ns: Vec<u64>,
    /// Duration of the closing call that found the queue drained (it
    /// takes the final sample).
    pub closing_ns: u64,
    /// Total duration of the steps during which `sink` counted a
    /// `StatePruned` event, in ns.
    pub pruned_ns: u64,
}

impl StepTimes {
    /// Wall time of the whole stepped exploration, in seconds.
    pub fn total_s(&self) -> f64 {
        (self.step_ns.iter().sum::<u64>() + self.closing_ns) as f64 * 1e-9
    }
}

/// Drives a booted `engine` to completion one event at a time with
/// [`Engine::run_until`]`(Budget::events(1))`, timing every step.
pub fn step_to_end(engine: &mut Engine, sink: &CountingSink) -> StepTimes {
    let mut times = StepTimes::default();
    loop {
        let pruned = sink.pruned();
        let start = Instant::now();
        let outcome = engine.run_until(Budget::events(1));
        let ns = elapsed_ns(start);
        if outcome.is_complete() {
            times.closing_ns = ns;
            return times;
        }
        times.step_ns.push(ns);
        if sink.pruned() != pruned {
            times.pruned_ns += ns;
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
