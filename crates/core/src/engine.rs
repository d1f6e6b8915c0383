//! The SDE engine: KleeNet's execution model.
//!
//! "KleeNet simulates a complete distributed system in a single process.
//! It starts with k states representing the nodes in the network. As in
//! any simulation, in each step KleeNet executes an event of a node and
//! advances the time to the next event in the queue. If the symbolic
//! execution of an event handler produces new states, they're simply
//! added to the state set." (§IV)
//!
//! The engine owns the states, the virtual-time event queue, the solver
//! and the symbol table; the pluggable [`StateMapper`] decides packet
//! receivers and the forking they require. Symbolic failures (packet
//! drop / duplication / node reboot) are injected at delivery time as
//! local forks — the network itself is ideal (paper footnote 2).
//!
//! Event execution — handler stepping, the fault-decision sequence of a
//! delivery, failure forks — is written once, in the provided methods of
//! the private [`Exec`] trait. The serial engine (symbolic inputs or a
//! replay preset) and the shard workers of [`Engine::run_sharded`] are
//! its two implementors; they differ only in the hooks the trait asks
//! for.

use crate::checkpoint::{Budget, EngineSnapshot, RunOutcome, SnapshotError};
use crate::dedup::{memo_key, DigestIndex, DispatchRecorder, LogOp, MemoEntry};
use crate::history::HistoryEvent;
use crate::mapping::{Algorithm, StateMapper, StateStore};
use crate::scenario::Scenario;
use crate::state::{SdeState, StateId};
use crate::stats::{BugFound, DedupStats, ParallelStats, RunReport, Sample, TimeSeries};
use sde_net::{Event, EventQueue, NodeId, Packet, PacketId};
use sde_os::handlers;
use sde_symbolic::{Expr, ExprRef, Solver, SymbolTable, Width};
use sde_vm::{step, BugKind, BugReport, FuncId, Loc, Status, StepResult, Syscall, VmCtx, VmState};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// An event a node state reacts to.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// Network boot: run `on_boot`.
    Boot,
    /// A timer armed by `SetTimer` fired: run `on_timer(id)`.
    Timer(u16),
    /// A packet mapped to this state arrives: run `on_recv(src, ...)`.
    Deliver(Packet),
}

/// The execution state every [`Exec`] implementor owns: the state table,
/// the event queue, the clock and the counters event execution updates.
/// It is also the [`StateStore`] the mappers fork through.
#[derive(Debug)]
struct Store {
    states: HashMap<StateId, SdeState>,
    events: EventQueue<(StateId, NodeEvent)>,
    /// Virtual time of the event being dispatched, in ms.
    now: u64,
    next_state: u64,
    total_states: usize,
    /// VM instructions executed.
    instructions: u64,
    bugs: Vec<BugFound>,
    /// States that entered [`Exec::run_handler`] at least once —
    /// replayed duplicates never do, so `executed.len()` is the
    /// states-actually-executed metric the dedup ablation reports.
    executed: HashSet<StateId>,
    /// The dispatch currently being recorded (dedup on and the key
    /// missed, or a shard worker's dispatch).
    recorder: Option<DispatchRecorder>,
    /// Trace sink ([`NoopSink`](sde_trace::NoopSink) unless a recorder
    /// was attached); `traced` caches `enabled()` so untraced sites pay
    /// one branch.
    sink: Arc<dyn sde_trace::TraceSink>,
    traced: bool,
    /// Always-on counter digest surfaced through [`RunReport::trace`].
    trace: sde_trace::TraceSummary,
    /// Attribution for the next [`StateStore::fork`] call. Mapper-driven
    /// forks are the default; the failure models set their own reason
    /// around their store fork.
    fork_reason: sde_trace::ForkReason,
    /// Fork counts indexed by [`sde_trace::ForkReason::ALL`] — always on,
    /// they feed [`sde_trace::TraceSummary`].
    forks: [u64; 10],
    /// Children forked since the engine last cleared it; drained into
    /// `MapBranch`/`MapSend` decision events (populated only when traced).
    fork_scratch: Vec<u64>,
}

fn reason_index(reason: sde_trace::ForkReason) -> usize {
    use sde_trace::ForkReason::*;
    match reason {
        Branch => 0,
        Mapping => 1,
        Drop => 2,
        Duplicate => 3,
        Reboot => 4,
        Latency => 5,
        Corrupt => 6,
        Crash => 7,
        Partition => 8,
        Heal => 9,
    }
}

/// The [`sde_trace::ForkReason`] of a failure/fault-model fork `kind`
/// (the `record_external_branch` numbering: 1 = drop, 2 = duplicate,
/// 3 = reboot, 4 = latency, 5 = corruption, 6 = crash, 7 = partition,
/// 8 = heal-choice).
fn failure_fork_reason(kind: u32) -> sde_trace::ForkReason {
    match kind {
        1 => sde_trace::ForkReason::Drop,
        2 => sde_trace::ForkReason::Duplicate,
        3 => sde_trace::ForkReason::Reboot,
        4 => sde_trace::ForkReason::Latency,
        5 => sde_trace::ForkReason::Corrupt,
        6 => sde_trace::ForkReason::Crash,
        7 => sde_trace::ForkReason::Partition,
        _ => sde_trace::ForkReason::Heal,
    }
}

impl Store {
    /// An empty store whose state ids start at `next_state`.
    fn new(next_state: u64) -> Store {
        Store {
            states: HashMap::new(),
            events: EventQueue::new(),
            now: 0,
            next_state,
            total_states: 0,
            instructions: 0,
            bugs: Vec::new(),
            executed: HashSet::new(),
            recorder: None,
            sink: Arc::new(sde_trace::NoopSink),
            traced: false,
            trace: sde_trace::TraceSummary::default(),
            fork_reason: sde_trace::ForkReason::Mapping,
            forks: [0; 10],
            fork_scratch: Vec::new(),
        }
    }

    fn state(&self, id: StateId) -> &SdeState {
        &self.states[&id]
    }

    fn state_mut(&mut self, id: StateId) -> &mut SdeState {
        self.states.get_mut(&id).expect("resident")
    }

    fn allocate_id(&mut self) -> StateId {
        let id = StateId(self.next_state);
        self.next_state += 1;
        self.total_states += 1;
        id
    }

    /// Spends one unit of the budget `field` selects on `id`; `false`
    /// (and nothing spent) when it is exhausted.
    fn spend(&mut self, id: StateId, field: impl FnOnce(&mut SdeState) -> &mut u32) -> bool {
        let budget = field(self.state_mut(id));
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        true
    }

    /// Count (and, when traced, record) one fork edge.
    fn note_fork(
        &mut self,
        parent: StateId,
        child: StateId,
        node: NodeId,
        reason: sde_trace::ForkReason,
    ) {
        self.forks[reason_index(reason)] += 1;
        if self.traced {
            self.fork_scratch.push(child.0);
            self.sink.record(sde_trace::TraceEvent::Fork {
                parent: parent.0,
                child: child.0,
                node: node.0,
                reason,
            });
        }
    }

    /// Copies every pending event of `from` for `to` (same times).
    fn duplicate_events(&mut self, from: StateId, to: StateId) {
        let pending: Vec<(u64, NodeEvent)> = self
            .events
            .iter()
            .filter(|e| e.payload.0 == from)
            .map(|e| (e.time, e.payload.1.clone()))
            .collect();
        for (time, kind) in pending {
            self.events.push(time, (to, kind));
        }
    }

    /// Clears every pending event of `state` (used on reboot and crash).
    fn clear_events(&mut self, state: StateId) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_clear_events(state);
        }
        self.events.retain(|e| e.payload.0 != state);
    }

    /// A failure-model fork (`kind`, see [`failure_fork_reason`]) of
    /// `parent`: the copy inherits the parent's pending events.
    fn fork_failure(&mut self, parent: StateId, kind: u32) -> StateId {
        self.fork_reason = failure_fork_reason(kind);
        let child = self.fork(parent);
        self.fork_reason = sde_trace::ForkReason::Mapping;
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_failure_fork(parent, child, kind);
        }
        child
    }

    /// Makes `child`, a VM branch sibling of `parent`, resident: it
    /// inherits the parent's pending events and the fork is counted.
    fn adopt_branch(&mut self, parent: StateId, child: SdeState) {
        let (id, node) = (child.id, child.node);
        self.duplicate_events(parent, id);
        self.note_fork(parent, id, node, sde_trace::ForkReason::Branch);
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_branch_fork(parent, id);
        }
        self.states.insert(id, child);
    }

    fn set_timer(&mut self, state: StateId, delay: u64, timer: u16) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_timer(state, delay, timer);
        }
        self.events
            .push(self.now + delay, (state, NodeEvent::Timer(timer)));
    }

    /// Re-enqueues `packet`'s delivery to `state` `extra` ms from now —
    /// the delayed branch of a symbolic-latency fork. The receiver's
    /// history already holds the `Received` record from schedule time
    /// (deferral changes *when* the handler runs, not whether the packet
    /// arrived), so only the event moves.
    fn defer_delivery(&mut self, state: StateId, packet: &Packet, extra: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_defer_deliver(state, extra);
        }
        self.events.push(
            self.now + extra,
            (state, NodeEvent::Deliver(packet.clone())),
        );
    }

    /// Records a found bug: appends it to the run's bug list and, when a
    /// sink is attached, emits a [`BugFound`](sde_trace::TraceEvent)
    /// trace event. Dedup-replayed bug copies bypass this (the
    /// `StatePruned` event stands in for the whole replayed dispatch).
    fn note_bug(&mut self, bug: BugFound) {
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::BugFound {
                state: bug.state.0,
                node: bug.node.0,
                time: self.now,
                kind: bug.report.kind.to_string(),
            });
        }
        self.bugs.push(bug);
    }

    /// Counts (and, when traced, records) a failure-model packet drop.
    fn note_drop(&mut self, state: StateId, node: NodeId, packet: PacketId) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_packet_dropped(state);
        }
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::Drop {
                state: state.0,
                node: node.0,
                packet: packet.0,
            });
        }
    }

    /// Counts (and, when traced, records) a packet lost to a partition
    /// cut active until `until`.
    fn note_partition_drop(&mut self, state: StateId, node: NodeId, packet: PacketId, until: u64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_partition_drop(state, until);
        }
        self.trace.packets_dropped += 1;
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::PartitionDrop {
                state: state.0,
                node: node.0,
                packet: packet.0,
                until,
            });
        }
    }

    /// Counts (and, when traced, records) one handler-bound delivery.
    fn note_delivered(&mut self, state: StateId, node: NodeId, packet: PacketId, duplicate: bool) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_packet_delivered(state, duplicate);
        }
        self.trace.packets_delivered += 1;
        if self.traced {
            self.sink.record(sde_trace::TraceEvent::Deliver {
                state: state.0,
                node: node.0,
                packet: packet.0,
                duplicate,
            });
        }
    }

    fn note_executed(&mut self, state: StateId) {
        self.executed.insert(state);
        if let Some(rec) = self.recorder.as_mut() {
            rec.note_executed(state);
        }
    }

    /// Starts recording the effects of the dispatch of `event` to
    /// `state_id` under memo `key`.
    fn begin_record(&mut self, key: u64, state_id: StateId, event: NodeEvent) {
        debug_assert!(self.recorder.is_none(), "dispatch is not reentrant");
        let s = &self.states[&state_id];
        self.recorder = Some(DispatchRecorder::new(
            key,
            s.node,
            self.now,
            s.budgets(),
            s.vm.clone(),
            event,
            state_id,
            self.bugs.len(),
            self.instructions,
        ));
    }

    /// Seals the active recording: captures the final `(vm, budgets)` of
    /// every family member and the bugs the dispatch discovered. Returns
    /// the memo key, the entry and the executed family variants.
    fn finish_record(&mut self) -> Option<(u64, MemoEntry, Vec<u32>)> {
        let rec = self.recorder.take()?;
        let finals = rec
            .family
            .iter()
            .map(|id| {
                let s = self
                    .states
                    .get(id)
                    .expect("family member resident at dispatch end");
                (s.vm.clone(), s.budgets())
            })
            .collect();
        let bugs = self.bugs[rec.bugs_start..]
            .iter()
            .map(|b| (rec.variant(b.state), b.report.clone()))
            .collect();
        let entry = MemoEntry {
            node: rec.node,
            now: rec.now,
            budgets: rec.budgets,
            pre_vm: rec.pre_vm,
            event: rec.event,
            ops: rec.ops,
            finals,
            bugs,
            instructions: self.instructions - rec.instr_start,
            survivor: rec.family[0],
        };
        Some((rec.key, entry, rec.executed))
    }
}

impl StateStore for Store {
    fn fork(&mut self, original: StateId) -> StateId {
        let id = self.allocate_id();
        let copy = self
            .states
            .get(&original)
            .unwrap_or_else(|| panic!("fork of non-resident state {original}"))
            .fork_as(id);
        let node = copy.node;
        self.states.insert(id, copy);
        self.duplicate_events(original, id);
        self.note_fork(original, id, node, self.fork_reason);
        id
    }

    fn node_of(&self, state: StateId) -> NodeId {
        self.states[&state].node
    }
}

/// A symbolic input as an [`Exec`] implementor supplies it.
enum Input {
    /// A fresh symbolic variable: both outcomes are explored.
    Symbolic(ExprRef),
    /// A replay preset's value: one outcome is followed.
    Concrete(u64),
    /// No value can be supplied here (a strict preset missed the key and
    /// bugged the state, or a shard worker must leave minting to the
    /// merge thread): the delivery stops.
    Unavailable,
}

/// The outcome of one failure decision on a receiving state.
enum Branch {
    /// Both outcomes: the fork child takes the failure, the receiving
    /// state continues without it.
    Fork(StateId),
    /// The receiving state itself takes the failure.
    Taken,
    /// The receiving state continues without the failure.
    NotTaken,
    /// The delivery stops ([`Input::Unavailable`]).
    Stop,
}

impl Branch {
    /// The state that takes the failure, if any, and whether `state`
    /// continues with the rest of the delivery.
    fn split(self, state: StateId) -> (Option<StateId>, bool) {
        match self {
            Branch::Fork(child) => (Some(child), true),
            Branch::Taken => (Some(state), false),
            Branch::NotTaken => (None, true),
            Branch::Stop => (None, false),
        }
    }
}

/// The execution core shared by every dispatch path: the provided
/// methods run an event — handler stepping, VM branch forks, the
/// fault-decision sequence of a delivery — against the implementor's
/// [`Store`]; the required methods are the points where the serial
/// engine and a shard worker differ.
trait Exec {
    fn store(&mut self) -> &mut Store;

    fn scenario(&self) -> &Scenario;

    /// One VM step of `st`; `None` abandons the dispatch.
    fn step(&mut self, st: &mut SdeState) -> Option<StepResult>;

    /// Supplies the engine-minted input `name` (occurrence `occurrence`,
    /// fault `kind` for bug locations) of `state`.
    fn mint(
        &mut self,
        state: StateId,
        name: &'static str,
        width: Width,
        kind: u32,
        occurrence: u32,
    ) -> Input;

    /// A fork of `parent` into `child` happened on `node`: tell the
    /// mapper.
    fn register_branch(&mut self, parent: StateId, child: StateId, node: NodeId);

    /// `sender`, off the store mid-handler, transmits `payload` to its
    /// neighbour `dest`.
    fn transmit(&mut self, sender: &mut SdeState, dest: NodeId, payload: Vec<ExprRef>);

    /// `node`'s program has no `handler` of this arity.
    fn missing_handler(&mut self, node: NodeId, handler: &str, arity: usize);

    fn execute_event(&mut self, state_id: StateId, kind: NodeEvent) {
        match kind {
            NodeEvent::Boot => self.run_handler(state_id, handlers::ON_BOOT, &[]),
            NodeEvent::Timer(t) => {
                let args = [Expr::const_(u64::from(t), Width::W16)];
                self.run_handler(state_id, handlers::ON_TIMER, &args);
            }
            NodeEvent::Deliver(packet) => self.deliver(state_id, packet),
        }
    }

    /// Packet delivery: apply the symbolic failure and fault models (each
    /// a local fork registered with the mapper), then run `on_recv` on
    /// every branch that keeps the packet. Decision order is fixed —
    /// active partition, partition onset, latency, drop, duplicate,
    /// reboot, crash, corruption — so symbol minting (and with it dedup
    /// replay and the sharded merge) is deterministic.
    fn deliver(&mut self, state_id: StateId, packet: Packet) {
        let now = self.store().now;
        let node = self.store().state(state_id).node;
        let cut = self.scenario().faults.cut_contains(packet.src, node);

        // --- active partition ----------------------------------------------
        // A delivery crossing a cut this lineage holds active is lost
        // silently: no fork, no symbol, no handler — the network edge
        // simply does not exist until the heal deadline.
        let until = self.store().state(state_id).partition_until;
        if cut && now < until {
            self.store()
                .note_partition_drop(state_id, node, packet.id, until);
            return;
        }

        // --- symbolic partition onset --------------------------------------
        // The first delivery crossing a declared cut edge asks "did the
        // network partition just now?": the partitioned branch loses this
        // packet and every cut-crossing delivery until the (symbolically
        // chosen) heal time; the connected branch proceeds.
        if cut && self.store().spend(state_id, |s| &mut s.part_budget) {
            let heal = self.scenario().faults.heal_choices().to_vec();
            let (taken, go_on) = self.decide(state_id, "part", 7).split(state_id);
            if let Some(part) = taken {
                // A forked partitioned branch drops the packet at once; the
                // receiving state itself only knows its deadline after the
                // heal choice below.
                let mut until = now + heal[0];
                if go_on {
                    self.store().state_mut(part).partition_until = until;
                    self.store()
                        .note_partition_drop(part, node, packet.id, until);
                }
                if heal.len() == 2 {
                    let late = now + heal[1];
                    match self.decide(part, "heal", 8) {
                        Branch::Stop => return,
                        Branch::NotTaken => {}
                        Branch::Taken => until = late,
                        Branch::Fork(healed) => {
                            self.store().state_mut(healed).partition_until = late;
                            self.store()
                                .note_partition_drop(healed, node, packet.id, late);
                        }
                    }
                }
                if !go_on {
                    self.store().state_mut(part).partition_until = until;
                    self.store()
                        .note_partition_drop(part, node, packet.id, until);
                }
            }
            if !go_on {
                return;
            }
        }

        // --- symbolic delivery latency -------------------------------------
        // "Did this packet take a slow link?": the delayed branch
        // re-enqueues the delivery [`sde_net::FaultPlan::latency_extra_ms`]
        // later — reordering it against everything else in the virtual-time
        // queue — and processes nothing now.
        if self.store().spend(state_id, |s| &mut s.lat_budget) {
            let extra = self.scenario().faults.latency_extra_ms();
            let (taken, go_on) = self.decide(state_id, "lat", 4).split(state_id);
            if let Some(late) = taken {
                self.store().defer_delivery(late, &packet, extra);
            }
            if !go_on {
                return;
            }
        }

        // --- symbolic packet drop ------------------------------------------
        if self.store().spend(state_id, |s| &mut s.drop_budget) {
            let (taken, go_on) = self.decide(state_id, "drop", 1).split(state_id);
            if let Some(dropped) = taken {
                self.store().note_drop(dropped, node, packet.id);
            }
            if !go_on {
                return;
            }
        }

        // --- symbolic packet duplication ------------------------------------
        // The one axis whose failure branch still faces the later models
        // under a preset: a replayed duplicate keeps both deliveries for
        // the final `on_recv`.
        let mut deliveries = 1u32;
        if self.store().spend(state_id, |s| &mut s.dup_budget) {
            match self.decide(state_id, "dup", 2) {
                Branch::Stop => return,
                Branch::NotTaken => {}
                Branch::Taken => deliveries = 2,
                Branch::Fork(dup) => self.run_recv(dup, &packet, 2),
            }
        }

        // --- symbolic node reboot and crash-recovery -----------------------
        // The failing branch restarts through `on_boot` and misses the
        // packet. A crash keeps the persistent window
        // ([`VmState::crash_rebooted`]); a reboot resets everything.
        let (pbase, psize) = {
            let faults = &self.scenario().faults;
            (faults.persist_base(), faults.persist_size())
        };
        type BudgetField = fn(&mut SdeState) -> &mut u32;
        for (name, kind, budget) in [
            ("reboot", 3, (|s| &mut s.reboot_budget) as BudgetField),
            ("crash", 6, |s| &mut s.crash_budget),
        ] {
            if !self.store().spend(state_id, budget) {
                continue;
            }
            let (taken, go_on) = self.decide(state_id, name, kind).split(state_id);
            if let Some(down) = taken {
                let store = self.store();
                let s = store.state_mut(down);
                s.vm = if kind == 3 {
                    s.vm.rebooted()
                } else {
                    s.vm.crash_rebooted(pbase, psize)
                };
                store.clear_events(down);
                self.run_handler(down, handlers::ON_BOOT, &[]);
            }
            if !go_on {
                return;
            }
        }

        // --- symbolic payload corruption -----------------------------------
        // The corrupted branch receives the packet with its first payload
        // word XOR-flipped by a fresh symbolic byte (`corb` —
        // unconstrained, so the identity flip 0 is a legitimate value and
        // the branch condition alone distinguishes the lineages).
        if packet
            .payload
            .first()
            .is_some_and(|w| w.width().bits() >= 8)
            && self.store().spend(state_id, |s| &mut s.cor_budget)
        {
            let (taken, go_on) = self.decide(state_id, "cor", 5).split(state_id);
            if let Some(cor) = taken {
                let occurrence = self.store().state_mut(cor).vm.next_input_occurrence("corb");
                let byte = match self.mint(cor, "corb", Width::W8, 5, occurrence) {
                    Input::Symbolic(byte) => byte,
                    Input::Concrete(value) => Expr::const_(value, Width::W8),
                    Input::Unavailable => return,
                };
                let word = &packet.payload[0];
                let mut corrupted = packet.clone();
                corrupted.payload[0] = Expr::xor(word.clone(), Expr::zext(byte, word.width()));
                self.run_recv(cor, &corrupted, deliveries);
            }
            if !go_on {
                return;
            }
        }

        self.run_recv(state_id, &packet, deliveries);
    }

    /// One failure decision (`kind`, see [`failure_fork_reason`]) on
    /// `state`, recorded in the path digest of every branch that results:
    /// a symbolic input forks, a preset value picks one side.
    fn decide(&mut self, state: StateId, name: &'static str, kind: u32) -> Branch {
        let occurrence = self.store().state_mut(state).vm.next_input_occurrence(name);
        match self.mint(state, name, Width::BOOL, kind, occurrence) {
            Input::Unavailable => Branch::Stop,
            Input::Concrete(value) => {
                let taken = value == 1;
                let s = self.store().state_mut(state);
                s.vm.record_external_branch(kind, occurrence, taken);
                if taken {
                    Branch::Taken
                } else {
                    Branch::NotTaken
                }
            }
            Input::Symbolic(cond) => {
                let child = self.fork_local(state, &cond, kind, occurrence);
                self.store().state_mut(state).vm.constrain(Expr::not(cond));
                Branch::Fork(child)
            }
        }
    }

    /// Forks `parent` into a sibling constrained with `cond`, records the
    /// environment-level branch in both path digests, registers the
    /// branch with the mapper, and returns the sibling's id.
    fn fork_local(
        &mut self,
        parent: StateId,
        cond: &ExprRef,
        kind: u32,
        occurrence: u32,
    ) -> StateId {
        let store = self.store();
        let node = store.state(parent).node;
        let child = store.fork_failure(parent, kind);
        let c = store.state_mut(child);
        c.vm.constrain(cond.clone());
        c.vm.record_external_branch(kind, occurrence, true);
        let p = store.state_mut(parent);
        p.vm.record_external_branch(kind, occurrence, false);
        self.register_branch(parent, child, node);
        child
    }

    /// Runs `on_recv` on `state` `times` times in a row. Each handler
    /// invocation is one delivery (a duplicated packet counts twice).
    fn run_recv(&mut self, state: StateId, packet: &Packet, times: u32) {
        let node = self.store().state(state).node;
        let mut args: Vec<ExprRef> = Vec::with_capacity(1 + packet.payload.len());
        args.push(Expr::const_(u64::from(packet.src.0), Width::W16));
        args.extend(packet.payload.iter().cloned());
        for _ in 0..times {
            self.store()
                .note_delivered(state, node, packet.id, times > 1);
            self.run_handler(state, handlers::ON_RECV, &args);
        }
    }

    /// Runs one handler on `state_id` to completion, including every
    /// state forked along the way; transmissions trigger state mapping
    /// mid-flight.
    fn run_handler(&mut self, state_id: StateId, handler: &str, args: &[ExprRef]) {
        let Some(resident) = self.store().states.remove(&state_id) else {
            return;
        };
        if !resident.is_idle() {
            self.store().states.insert(state_id, resident);
            return;
        }
        let node = resident.node;
        let Some(prepared_vm) = resident
            .vm
            .prepared(self.scenario().program(node), handler, args)
        else {
            self.missing_handler(node, handler, args.len());
            return;
        };
        let mut first = resident;
        first.vm = prepared_vm;

        let mut running: Vec<SdeState> = vec![first];
        while let Some(mut st) = running.pop() {
            self.store().note_executed(st.id);
            loop {
                self.store().instructions += 1;
                let Some(result) = self.step(&mut st) else {
                    return;
                };
                match result {
                    StepResult::Continue => {}
                    StepResult::Forked(sibling_vm) => {
                        let store = self.store();
                        let sib_id = store.allocate_id();
                        let sibling = st.fork_with_vm(sib_id, sibling_vm);
                        let bug = match sibling.vm.status() {
                            Status::Bugged(report) => Some(report.clone()),
                            _ => None,
                        };
                        store.adopt_branch(st.id, sibling);
                        let bugged = bug.is_some();
                        if let Some(report) = bug {
                            store.note_bug(BugFound {
                                node,
                                state: sib_id,
                                report,
                            });
                        }
                        self.register_branch(st.id, sib_id, node);
                        if !bugged {
                            let sibling = self
                                .store()
                                .states
                                .remove(&sib_id)
                                .expect("sibling just inserted");
                            running.push(sibling);
                        }
                    }
                    StepResult::Syscall(Syscall::Send { dest, payload }) => {
                        let dest = NodeId(dest);
                        assert!(
                            self.scenario().topology.are_neighbors(node, dest),
                            "{node} sent to non-neighbor {dest}"
                        );
                        if let Some(rec) = self.store().recorder.as_mut() {
                            rec.note_send(st.id, dest, &payload);
                        }
                        self.transmit(&mut st, dest, payload);
                    }
                    StepResult::Syscall(Syscall::SetTimer { delay, timer }) => {
                        self.store().set_timer(st.id, delay, timer);
                    }
                    StepResult::HandlerDone(_) | StepResult::Halted | StepResult::Infeasible => {
                        self.store().states.insert(st.id, st);
                        break;
                    }
                    StepResult::Bug(report) => {
                        let store = self.store();
                        store.note_bug(BugFound {
                            node,
                            state: st.id,
                            report,
                        });
                        store.states.insert(st.id, st);
                        break;
                    }
                }
            }
        }
    }
}

/// The per-batch hook of [`Engine::drive`] (the sharded fan-out).
type BatchHook<'a> = &'a mut dyn FnMut(&mut Engine, u64);

/// The symbolic distributed execution engine. Construct with
/// [`Engine::new`], drive with [`Engine::run`] — or use the [`run`]
/// convenience function.
#[derive(Debug)]
pub struct Engine {
    scenario: Scenario,
    algorithm: Algorithm,
    mapper: Box<dyn StateMapper>,
    solver: Solver,
    symbols: SymbolTable,
    store: Store,
    next_packet: u64,
    events_processed: u64,
    packets_sent: u64,
    series: TimeSeries,
    aborted: bool,
    started: Instant,
    preset: Option<sde_vm::Preset>,
    parallel: Option<ParallelStats>,
    /// Online duplicate-dispatch pruning (DESIGN.md §10). Off by
    /// default; forced off under a replay preset.
    dedup: bool,
    /// Memoized dispatches keyed by incremental configuration digest.
    /// Never serialized: a resumed engine starts cold and re-records.
    dedup_index: DigestIndex,
    /// Candidate / confirmed / collision / pruning counters.
    dedup_stats: DedupStats,
    /// Worker recordings for the batch the merge thread is currently
    /// committing ([`Engine::run_until_sharded`]); `None` outside
    /// sharded commits, so the sequential paths pay one `is_some`.
    shard_entries: Option<HashMap<u64, Vec<ShardEntry>>>,
}

impl Engine {
    /// Creates an engine for `scenario` using `algorithm` for state
    /// mapping.
    pub fn new(scenario: Scenario, algorithm: Algorithm) -> Engine {
        Engine {
            scenario,
            algorithm,
            mapper: algorithm.new_mapper(),
            solver: Solver::new(),
            symbols: SymbolTable::new(),
            store: Store::new(0),
            next_packet: 0,
            events_processed: 0,
            packets_sent: 0,
            series: TimeSeries::new(),
            aborted: false,
            started: Instant::now(),
            preset: None,
            parallel: None,
            dedup: false,
            dedup_index: DigestIndex::default(),
            dedup_stats: DedupStats::default(),
            shard_entries: None,
        }
    }

    /// Enables (or disables) online duplicate-dispatch detection and
    /// pruning (DESIGN.md §10): dispatches whose configuration digest
    /// matches an already-executed one — confirmed by exact structural
    /// comparison, so hash collisions can never merge distinct states —
    /// replay the recorded effects instead of re-executing the VM and
    /// re-querying the solver. The explored state set, bug set and
    /// generated test cases are unchanged; only the work to produce them
    /// shrinks (see [`RunReport::dedup`] and
    /// [`RunReport::states_executed`]).
    ///
    /// Ignored under a replay preset ([`Engine::with_preset`]): a strict
    /// replay follows a single concrete dscenario and must execute every
    /// step itself.
    pub fn set_dedup(&mut self, enabled: bool) {
        self.dedup = enabled;
    }

    /// Builder-style [`Engine::set_dedup`].
    #[must_use]
    pub fn with_dedup(mut self, enabled: bool) -> Engine {
        self.dedup = enabled;
        self
    }

    /// Whether duplicate-dispatch pruning is enabled.
    pub fn dedup_enabled(&self) -> bool {
        self.dedup
    }

    /// Duplicate-detection counters accumulated so far.
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup_stats
    }

    /// Attaches a trace sink (e.g. an [`sde_trace::RingSink`]): every
    /// dispatch, fork, mapping decision, packet event and solver query of
    /// the run is recorded through it. The sink is installed thread-locally
    /// for the run so the solver and the event queue — which sit below the
    /// engine in the crate graph — reach it too.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn sde_trace::TraceSink>) -> Engine {
        self.store.traced = sink.enabled();
        self.store.sink = sink;
        self
    }

    /// Runs the scenario to completion (event queue drained, virtual
    /// duration reached, or state cap hit) and reports.
    pub fn run(mut self) -> RunReport {
        self.run_in_place();
        self.into_report()
    }

    /// Like [`Engine::run`] but keeps the engine alive so the final state
    /// set can be inspected (test-case generation, invariant checks).
    pub fn run_in_place(&mut self) {
        self.run_until(Budget::unlimited());
    }

    /// Runs until the scenario completes or `budget` is exhausted
    /// (DESIGN.md §8). Budget axes are checked *between* events, so a
    /// pause always lands at an event boundary where the engine can be
    /// [snapshotted](Engine::snapshot). A fresh engine boots on the first
    /// call; a paused or [resumed](Engine::resume) engine continues where
    /// it stopped. Driving a run through any sequence of budgets produces
    /// exactly the state set, report and trace stream of a single
    /// unbounded [`Engine::run_in_place`].
    pub fn run_until(&mut self, budget: Budget) -> RunOutcome {
        self.drive(budget, None)
    }

    /// The one event loop behind [`Engine::run_until`] and
    /// [`Engine::run_until_sharded`]. With `on_batch` (the sharded path)
    /// the hook runs before the first event of every virtual-time batch
    /// and the budget is checked only between batches, so a batch is
    /// never split; without it the budget is checked between events.
    fn drive(&mut self, budget: Budget, mut on_batch: Option<BatchHook<'_>>) -> RunOutcome {
        let _trace_guard = self
            .store
            .traced
            .then(|| sde_trace::install(Arc::clone(&self.store.sink)));
        self.started = Instant::now();
        if self.store.next_state == 0 {
            self.boot();
            self.store.trace.boot_wall_us = self.started.elapsed().as_micros() as u64;
            self.sample();
        }
        let events_start = self.events_processed;
        let instr_start = self.store.instructions;
        let mut batch = None;

        let outcome = loop {
            let next = self.store.events.peek_time();
            let boundary = on_batch.is_none() || next != batch;
            if boundary && self.budget_exhausted(budget, events_start, instr_start) {
                break RunOutcome::Paused;
            }
            if self.store.total_states > self.scenario.state_cap {
                self.aborted = true;
                break RunOutcome::Complete;
            }
            let Some(time) = next else {
                break RunOutcome::Complete;
            };
            if time > self.scenario.duration_ms {
                self.store.events.pop();
                break RunOutcome::Complete;
            }
            if let Some(hook) = on_batch.as_mut().filter(|_| next != batch) {
                batch = next;
                hook(self, time);
            }
            let event = self.store.events.pop().expect("peeked event");
            self.store.now = event.time;
            let (state_id, kind) = event.payload;
            self.dispatch(state_id, kind);
            self.events_processed += 1;
            if self
                .events_processed
                .is_multiple_of(self.scenario.sample_every)
            {
                self.sample();
            }
        };

        // The final sample belongs to the *run*, not the segment: a paused
        // segment must leave the time series exactly as the uninterrupted
        // run would have it at this point.
        if outcome.is_complete() {
            self.sample();
        }
        self.shard_entries = None;
        self.store.trace.run_wall_us += self.started.elapsed().as_micros() as u64;
        outcome
    }

    /// `true` once any axis of `budget` is spent. Event and instruction
    /// axes are relative to the start of the current
    /// [`Engine::run_until`] call; the live-state axis is absolute.
    fn budget_exhausted(&self, budget: Budget, events_start: u64, instr_start: u64) -> bool {
        if let Some(n) = budget.max_events {
            if self.events_processed - events_start >= n {
                return true;
            }
        }
        if let Some(n) = budget.max_instructions {
            if self.store.instructions - instr_start >= n {
                return true;
            }
        }
        if let Some(n) = budget.max_live_states {
            if self.store.states.values().filter(|s| s.is_live()).count() >= n {
                return true;
            }
        }
        false
    }

    /// Runs the scenario with `workers` *authoritative* shard workers and
    /// reports. The report is bit-identical to [`Engine::run`]'s (see
    /// [`RunReport::equivalence_key`]) at every worker count.
    pub fn run_sharded(mut self, workers: usize) -> RunReport {
        self.run_sharded_in_place(workers);
        self.into_report()
    }

    /// Like [`Engine::run_in_place`] but with true parallel execution
    /// (DESIGN.md §5): the frontier is partitioned into disjoint
    /// subtrees by root-fork lineage ([`SdeState::shard_root`]) and each
    /// worker *authoritatively* executes the groups of its subtrees —
    /// VM stepping, solver queries against a worker-local cache, forks —
    /// recording the dispatch effects exactly as the dedup layer does
    /// (`MemoEntry` recordings). The merge thread then replays the
    /// event queue in serial order, *applying* each recorded entry
    /// (after an exact congruence check) instead of re-executing it, so
    /// state ids, packet ids, histories and the report are identical to
    /// [`Engine::run_in_place`] by construction.
    ///
    /// Work a worker cannot execute authoritatively falls back to the
    /// merge thread, trading speedup — never correctness — away:
    ///
    /// - **Symbol-minting dispatches.** Fresh symbolic variables must be
    ///   minted in serial dispatch order to keep ids and solver queries
    ///   canonical, so a worker abandons a dispatch at its first mint and
    ///   ends that group's chain (`shard_tainted`).
    /// - **Sends.** Packet ids (and with them the sender's comm-history
    ///   digest) are minted at merge time, so a recorded send completes
    ///   its entry but stops the worker's chain.
    /// - **Cross-worker duplicates.** Workers publish dispatch keys into
    ///   a shared key set and skip chains another worker already
    ///   recorded (`shard_skips`); congruence is always
    ///   re-confirmed on the merge thread before an entry is applied, so
    ///   a key collision degrades to serial execution, never to a wrong
    ///   merge.
    ///
    /// Traced and preset runs skip offloading entirely and degenerate to
    /// the serial algorithm on the merge thread (trivially byte-identical
    /// traces); dedup composes — applied shard entries feed the same
    /// memo index the serial run would have populated.
    pub fn run_sharded_in_place(&mut self, workers: usize) {
        self.run_until_sharded(workers, Budget::unlimited());
    }

    /// [`Engine::run_until`] on the sharded path: the budget is checked
    /// only *between* virtual-time batches (a batch is never split), so a
    /// pause point here is also a valid pause point of the sequential run
    /// and checkpoint/resume composes with sharding (DESIGN.md §8).
    pub fn run_until_sharded(&mut self, workers: usize, budget: Budget) -> RunOutcome {
        let workers = workers.max(1);
        self.parallel_stats().workers = workers;
        // Authoritative offloading needs canonical symbol ids and packet
        // ids, which only the merge thread can mint — and a recording
        // sink serializes everything anyway — so traced/preset segments
        // run the plain serial algorithm with idle workers.
        let offload = !self.store.traced && self.preset.is_none();
        let scenario = self.scenario.clone();
        let keys = Mutex::new(HashSet::new());
        let (done_tx, done_rx) = mpsc::channel::<ShardOutcome>();

        let outcome = std::thread::scope(|scope| {
            // One inbox per worker; dropping them (when this closure
            // returns) ends the workers.
            let inboxes: Vec<mpsc::Sender<Vec<ShardJob>>> = (0..workers)
                .map(|_| {
                    let (inbox, jobs) = mpsc::channel::<Vec<ShardJob>>();
                    let (keys, scenario, done_tx) = (&keys, &scenario, done_tx.clone());
                    scope.spawn(move || {
                        // Worker-local solver cache, kept warm across
                        // batches by subtree affinity; the merge thread
                        // still sees deterministic witness models because
                        // the exact solver derives them from the query
                        // alone.
                        let solver = Solver::new();
                        for job in jobs.iter().flatten() {
                            let outcome = ShardWorker::new(job, scenario, &solver, keys).run();
                            if done_tx.send(outcome).is_err() {
                                break;
                            }
                        }
                    });
                    inbox
                })
                .collect();
            drop(done_tx);
            self.drive(
                budget,
                Some(&mut |engine: &mut Engine, batch_time| {
                    engine.parallel_stats().batches += 1;
                    engine.shard_entries = if offload {
                        engine.offload_batch(batch_time, &inboxes, &keys, &done_rx)
                    } else {
                        None
                    };
                }),
            )
        });

        let run_wall = self.started.elapsed();
        let p = self.parallel_stats();
        p.run_wall += run_wall;
        p.serial_wall = p.run_wall.saturating_sub(p.dispatch_wall + p.barrier_wall);
        outcome
    }

    /// The run's [`ParallelStats`], created by the first sharded segment;
    /// every later segment accumulates into the same totals.
    fn parallel_stats(&mut self) -> &mut ParallelStats {
        self.parallel.get_or_insert_with(ParallelStats::default)
    }

    /// Fans the `batch_time` batch out to the shard workers — one job per
    /// state's event group, sent to the inbox of its subtree's owner
    /// (`shard_root % workers`) — and collects every recording at the
    /// barrier, keyed for the merge. There is no stealing: affinity keeps
    /// each worker's solver cache warm on its own subtrees.
    fn offload_batch(
        &mut self,
        batch_time: u64,
        inboxes: &[mpsc::Sender<Vec<ShardJob>>],
        keys: &Mutex<HashSet<u64>>,
        done_rx: &mpsc::Receiver<ShardOutcome>,
    ) -> Option<HashMap<u64, Vec<ShardEntry>>> {
        let dispatch_started = Instant::now();
        let mut batch: Vec<(u64, StateId, NodeEvent)> = self
            .store
            .events
            .iter()
            .filter(|e| e.time == batch_time)
            .map(|e| (e.seq, e.payload.0, e.payload.1.clone()))
            .collect();
        batch.sort_unstable_by_key(|(seq, _, _)| *seq);
        let mut groups: Vec<(StateId, Vec<NodeEvent>)> = Vec::new();
        for (_, sid, ev) in batch {
            match groups.iter_mut().find(|(g, _)| *g == sid) {
                Some((_, evs)) => evs.push(ev),
                None => groups.push((sid, vec![ev])),
            }
        }
        let offloaded = groups.len() >= 2;
        let mut jobs_sent = 0u64;
        if offloaded {
            keys.lock().expect("key set").clear();
            let mut routed: Vec<Vec<ShardJob>> = inboxes.iter().map(|_| Vec::new()).collect();
            for (sid, events) in groups {
                let Some(state) = self.store.states.get(&sid).filter(|s| s.is_idle()) else {
                    continue;
                };
                routed[(state.shard_root % inboxes.len() as u64) as usize].push(ShardJob {
                    now: batch_time,
                    state: state.clone(),
                    events,
                    symbols: self.symbols.forked(),
                });
            }
            for (inbox, jobs) in inboxes.iter().zip(routed) {
                let n = jobs.len() as u64;
                if n > 0 && inbox.send(jobs).is_ok() {
                    jobs_sent += n;
                }
            }
        }
        let p = self.parallel_stats();
        p.offloaded_batches += u64::from(offloaded);
        p.worker_jobs += jobs_sent;
        p.dispatch_wall += dispatch_started.elapsed();

        // Full barrier: every recording of the batch is in before any of
        // it is committed.
        let barrier_started = Instant::now();
        let mut entries: HashMap<u64, Vec<ShardEntry>> = HashMap::new();
        for _ in 0..jobs_sent {
            let Ok(o) = done_rx.recv() else { break };
            p.worker_events += o.events;
            p.worker_instructions = p.worker_instructions.saturating_add(o.instructions);
            p.worker_busy += o.busy;
            p.worker_capped += o.aborts;
            p.shard_skips += o.skips;
            p.shard_tainted += o.tainted;
            p.shard_recorded += o.records.len() as u64;
            for r in o.records {
                entries.entry(r.key).or_default().push(ShardEntry {
                    entry: Arc::new(r.entry),
                    executed: r.executed,
                });
            }
        }
        p.barrier_wall += barrier_started.elapsed();
        (!entries.is_empty()).then_some(entries)
    }

    /// Captures the engine's complete configuration as an
    /// [`EngineSnapshot`] — states, event queue, mapper bookkeeping,
    /// solver caches and all counters. Valid at any event boundary:
    /// before the run, after [`Engine::run_until`] returns
    /// [`RunOutcome::Paused`], or after completion. Serialize with
    /// [`EngineSnapshot::to_bytes`]; reconstruct a continuation with
    /// [`Engine::resume`].
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut states: Vec<SdeState> = self.store.states.values().cloned().collect();
        states.sort_unstable_by_key(|s| s.id.0);
        let mut queue: Vec<(u64, u64, StateId, NodeEvent)> = self
            .store
            .events
            .iter()
            .map(|e| (e.time, e.seq, e.payload.0, e.payload.1.clone()))
            .collect();
        queue.sort_unstable_by_key(|(_, seq, _, _)| *seq);
        let symbols = self
            .symbols
            .iter()
            .map(|v| (v.name().to_string(), v.width(), v.node(), v.occurrence()))
            .collect();
        EngineSnapshot {
            algorithm: self.algorithm,
            node_count: self.scenario.node_count(),
            duration_ms: self.scenario.duration_ms,
            link_latency_ms: self.scenario.link_latency_ms,
            state_cap: self.scenario.state_cap,
            sample_every: self.scenario.sample_every,
            track_history: self.scenario.track_history,
            faults_fingerprint: self.scenario.faults.fingerprint(),
            symbols,
            states,
            queue_next_seq: self.store.events.next_seq(),
            queue,
            mapper: self.mapper.export_snapshot(),
            solver: self.solver.export_state(),
            now: self.store.now,
            next_packet: self.next_packet,
            events_processed: self.events_processed,
            packets_sent: self.packets_sent,
            instructions: self.store.instructions,
            aborted: self.aborted,
            total_states: self.store.total_states,
            next_state: self.store.next_state,
            forks: self.store.forks,
            samples: self.series.samples().to_vec(),
            bugs: self.store.bugs.clone(),
            trace: self.store.trace,
            dedup: self.dedup,
            dedup_stats: self.dedup_stats,
            executed: {
                // Sorted so the snapshot bytes are a pure function of the
                // engine state (HashSet order is not).
                let mut ids: Vec<u64> = self.store.executed.iter().map(|s| s.0).collect();
                ids.sort_unstable();
                ids
            },
        }
    }

    /// Reconstructs a paused engine from `snapshot` so that driving it
    /// (`run_until`, `run`, `run_until_sharded`) continues exactly where
    /// the snapshotted run stopped: same state ids, same event order,
    /// same [`RunReport::equivalence_key`] and — with a sink re-attached
    /// via [`Engine::with_trace_sink`] — the same trace events as the
    /// uninterrupted run.
    ///
    /// `scenario` must be the scenario of the original run; snapshots
    /// carry programs and failure configs by *reference to the caller*
    /// (they are not serialized), so the caller re-supplies them. The
    /// scalar scenario fingerprint is cross-checked.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ScenarioMismatch`] when a fingerprint field
    /// differs, [`SnapshotError::MapperState`] when the mapper
    /// bookkeeping is inconsistent, [`SnapshotError::Codec`] when the
    /// snapshot references impossible state ids.
    pub fn resume(scenario: Scenario, snapshot: &EngineSnapshot) -> Result<Engine, SnapshotError> {
        if scenario.node_count() != snapshot.node_count {
            return Err(SnapshotError::ScenarioMismatch("node count"));
        }
        if scenario.duration_ms != snapshot.duration_ms {
            return Err(SnapshotError::ScenarioMismatch("duration_ms"));
        }
        if scenario.link_latency_ms != snapshot.link_latency_ms {
            return Err(SnapshotError::ScenarioMismatch("link_latency_ms"));
        }
        if scenario.state_cap != snapshot.state_cap {
            return Err(SnapshotError::ScenarioMismatch("state_cap"));
        }
        if scenario.sample_every != snapshot.sample_every {
            return Err(SnapshotError::ScenarioMismatch("sample_every"));
        }
        if scenario.track_history != snapshot.track_history {
            return Err(SnapshotError::ScenarioMismatch("track_history"));
        }
        if scenario.faults.fingerprint() != snapshot.faults_fingerprint {
            return Err(SnapshotError::ScenarioMismatch("fault_plan"));
        }
        let mut engine = Engine::new(scenario, snapshot.algorithm);
        // Re-mint the symbol table in allocation order so ids line up
        // with every serialized expression.
        for (name, width, node, occurrence) in &snapshot.symbols {
            engine.symbols.fresh_keyed(name, *width, *node, *occurrence);
        }
        engine
            .mapper
            .import_snapshot(snapshot.mapper.clone())
            .map_err(SnapshotError::MapperState)?;
        engine.solver.import_state(&snapshot.solver);
        for s in &snapshot.states {
            if s.id.0 >= snapshot.next_state {
                return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                    "state id beyond allocator",
                )));
            }
            if engine.store.states.insert(s.id, s.clone()).is_some() {
                return Err(SnapshotError::Codec(sde_symbolic::CodecError::Malformed(
                    "duplicate state id",
                )));
            }
        }
        engine.store.next_state = snapshot.next_state;
        engine.store.total_states = snapshot.total_states;
        engine.store.forks = snapshot.forks;
        // Rebuild the queue silently (no QueuePush trace events): these
        // pushes already happened — and were already traced — in the
        // original run.
        engine.store.events = EventQueue::from_parts(
            snapshot.queue_next_seq,
            snapshot.queue.iter().map(|(time, seq, sid, ev)| Event {
                time: *time,
                seq: *seq,
                payload: (*sid, ev.clone()),
            }),
        );
        engine.store.now = snapshot.now;
        engine.next_packet = snapshot.next_packet;
        engine.events_processed = snapshot.events_processed;
        engine.packets_sent = snapshot.packets_sent;
        engine.store.instructions = snapshot.instructions;
        engine.aborted = snapshot.aborted;
        engine.store.bugs = snapshot.bugs.clone();
        for sample in &snapshot.samples {
            engine.series.push(*sample);
        }
        engine.store.trace = snapshot.trace;
        engine.dedup = snapshot.dedup;
        engine.dedup_stats = snapshot.dedup_stats;
        engine.store.executed = snapshot.executed.iter().map(|id| StateId(*id)).collect();
        // The memo index is deliberately not serialized (entries hold
        // full VM states; DESIGN.md §10): a resumed dedup run starts
        // cold and re-records, so it may execute more states than the
        // uninterrupted run — never different ones.
        Ok(engine)
    }

    /// Access to the mapper (for invariant checks and test generation).
    pub fn mapper(&self) -> &dyn StateMapper {
        self.mapper.as_ref()
    }

    /// The states currently resident, in unspecified order.
    pub fn states(&self) -> impl Iterator<Item = &SdeState> {
        self.store.states.values()
    }

    /// Looks up one resident state.
    pub fn state(&self, id: StateId) -> Option<&SdeState> {
        self.store.states.get(&id)
    }

    /// The engine's solver (shared query cache).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The symbol table naming every symbolic input minted so far.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Virtual time reached so far, in ms (the dispatch clock). Used by
    /// the invariant checker to evaluate vtime-barrier predicates
    /// between [`Engine::run_until`] segments.
    pub fn now(&self) -> u64 {
        self.store.now
    }

    /// The bugs found so far (final list in `RunReport::bugs`).
    pub fn bugs(&self) -> &[BugFound] {
        &self.store.bugs
    }

    /// Replays with every symbolic input pinned to the values in
    /// `preset` (keyed run-independently by `(node, name, occurrence)`):
    /// branches stop forking and the run follows the single concrete
    /// dscenario the preset describes. Build presets with
    /// [`sde_vm::Preset::from_model`] or
    /// [`testgen::preset_for`](crate::testgen::preset_for).
    #[must_use]
    pub fn with_preset(mut self, preset: sde_vm::Preset) -> Engine {
        self.preset = Some(preset);
        self
    }

    /// Replaces the state mapper with a caller-supplied implementation.
    ///
    /// The conformance oracle's mutation self-test uses this to inject a
    /// deliberately corrupted mapper (see
    /// [`oracle::MutantMapper`](crate::oracle::MutantMapper)) and assert
    /// the oracle notices the divergence. The mapper must be installed
    /// before anything boots; [`RunReport::algorithm`] reports the
    /// installed mapper's name.
    ///
    /// # Panics
    ///
    /// Panics when the engine has already booted states.
    #[must_use]
    pub fn with_mapper(mut self, mapper: Box<dyn StateMapper>) -> Engine {
        assert!(
            self.store.states.is_empty(),
            "with_mapper must precede boot"
        );
        self.mapper = mapper;
        self
    }

    /// Runs only the boot phase (for tests that then inspect the engine).
    pub fn boot(&mut self) {
        assert!(self.store.states.is_empty(), "boot runs once");
        let mut registry = Vec::new();
        for node in self.scenario.topology.nodes() {
            let id = self.store.allocate_id();
            let vm = VmState::fresh(self.scenario.program(node));
            let state = SdeState::boot(
                id,
                node,
                vm,
                &self.scenario.failures,
                &self.scenario.faults,
                self.scenario.track_history,
            );
            self.store.states.insert(id, state);
            registry.push((id, node));
            self.store.trace.boots += 1;
            if self.store.traced {
                self.store.sink.record(sde_trace::TraceEvent::Boot {
                    state: id.0,
                    node: node.0,
                });
            }
            self.store.events.push(0, (id, NodeEvent::Boot));
        }
        self.mapper.on_boot(&registry);
    }

    // ----- event dispatch ---------------------------------------------------

    fn dispatch(&mut self, state_id: StateId, kind: NodeEvent) {
        // Terminated or mid-handler states silently drop events.
        if !self
            .store
            .states
            .get(&state_id)
            .is_some_and(SdeState::is_idle)
        {
            return;
        }
        let dispatch_kind = match kind {
            NodeEvent::Boot => sde_trace::DispatchKind::Boot,
            NodeEvent::Timer(_) => sde_trace::DispatchKind::Timer,
            NodeEvent::Deliver(_) => sde_trace::DispatchKind::Deliver,
        };
        match dispatch_kind {
            sde_trace::DispatchKind::Boot => self.store.trace.dispatch_boot += 1,
            sde_trace::DispatchKind::Timer => self.store.trace.dispatch_timer += 1,
            sde_trace::DispatchKind::Deliver => self.store.trace.dispatch_deliver += 1,
        }
        if self.store.traced {
            self.store.sink.record(sde_trace::TraceEvent::Dispatch {
                state: state_id.0,
                node: self.store.states[&state_id].node.0,
                kind: dispatch_kind,
                time: self.store.now,
            });
        }
        // A replay preset follows one concrete dscenario and executes
        // every step itself: no memo tier applies.
        let memo = self.preset.is_none() && (self.dedup || self.shard_entries.is_some());
        if !memo {
            self.execute_event(state_id, kind);
            return;
        }
        let key = {
            let s = &self.store.states[&state_id];
            memo_key(
                s.node,
                s.vm.config_digest(),
                s.budgets(),
                self.store.now,
                &kind,
            )
        };
        if self.dedup && self.try_replay(key, state_id, &kind) {
            return;
        }
        if self.try_shard_apply(key, state_id, &kind) {
            return;
        }
        if self.shard_entries.is_some() {
            if let Some(p) = self.parallel.as_mut() {
                p.shard_fallback += 1;
            }
        }
        if self.dedup {
            self.store.begin_record(key, state_id, kind.clone());
            self.execute_event(state_id, kind);
            if let Some((key, entry, _)) = self.store.finish_record() {
                self.dedup_index.insert(key, entry);
            }
        } else {
            self.execute_event(state_id, kind);
        }
    }

    /// Sharded-merge tier ([`Engine::run_until_sharded`]): when the
    /// batch's worker recordings hold an entry congruent with this
    /// dispatch, apply it — the worker already executed the dispatch
    /// authoritatively — instead of executing. Returns `true` on apply.
    fn try_shard_apply(&mut self, key: u64, state_id: StateId, kind: &NodeEvent) -> bool {
        let found = {
            let Some(map) = self.shard_entries.as_ref() else {
                return false;
            };
            let Some(candidates) = map.get(&key) else {
                return false;
            };
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            // Confirmation-on-owner: the key lookup is advisory, the exact
            // structural comparison decides. A collision means serial
            // fallback, never a wrong merge.
            candidates
                .iter()
                .find(|c| {
                    c.entry
                        .congruent(s.node, self.store.now, budgets, &s.vm, kind)
                })
                .cloned()
        };
        let Some(hit) = found else {
            return false;
        };
        let family = self.apply_entry(state_id, &hit.entry, kind);
        // Bank the worker's execution as if the merge thread had run it:
        // instruction count and executed-state marks transfer, so
        // `states_executed` and the instruction totals match the serial
        // run.
        self.store.instructions = self
            .store
            .instructions
            .saturating_add(hit.entry.instructions);
        for v in &hit.executed {
            self.store.executed.insert(family[*v as usize]);
        }
        if self.dedup {
            // Feed the same memo index the serial run would have
            // populated at this dispatch, so later congruent dispatches
            // prune through the ordinary dedup tier.
            self.dedup_index.insert_arc(key, Arc::clone(&hit.entry));
        }
        if let Some(p) = self.parallel.as_mut() {
            p.shard_applied += 1;
        }
        true
    }

    // ----- duplicate-dispatch detection and pruning (DESIGN.md §10) ---------

    /// Looks `key` up in the memo index and, when an entry passes the
    /// exact structural confirmation, replays its recorded effects
    /// instead of executing the dispatch. Returns `true` when replayed.
    fn try_replay(&mut self, key: u64, state_id: StateId, kind: &NodeEvent) -> bool {
        let entry = {
            let s = &self.store.states[&state_id];
            let budgets = s.budgets();
            let Some(candidates) = self.dedup_index.lookup(key) else {
                return false;
            };
            self.dedup_stats.candidates += 1;
            let confirmed = candidates
                .iter()
                .find(|e| e.congruent(s.node, self.store.now, budgets, &s.vm, kind))
                .cloned();
            match confirmed {
                Some(e) => e,
                None => {
                    // A digest collision: two structurally different
                    // configurations under one key. Execute normally —
                    // correctness never rides on the hash.
                    self.dedup_stats.collisions += 1;
                    return false;
                }
            }
        };
        self.dedup_stats.confirmed += 1;
        let family = self.apply_entry(state_id, &entry, kind);
        self.dedup_stats.pruned_states += family.len() as u64;
        self.dedup_stats.saved_instructions = self
            .dedup_stats
            .saved_instructions
            .saturating_add(entry.instructions);
        if self.store.traced {
            self.store.sink.record(sde_trace::TraceEvent::StatePruned {
                state: state_id.0,
                node: entry.node.0,
                survivor: entry.survivor.0,
                time: self.store.now,
            });
        }
        true
    }

    /// Reproduces a recorded dispatch on `root` — the effect-application
    /// core shared by dedup replay ([`Engine::try_replay`]) and the
    /// sharded merge ([`Engine::try_shard_apply`]): every recorded
    /// engine-level effect (forks with live mapper registration,
    /// transmissions with fresh packet ids and real receiver mapping,
    /// timers, event clearing, delivery bookkeeping) goes through the
    /// helpers execution uses, then each family member is overwritten
    /// with its recorded final configuration and the recorded bugs are
    /// re-reported. The VM never steps and the solver is never queried;
    /// the resulting engine state is exactly what executing the dispatch
    /// would have produced, modulo SymId numbering inside shared
    /// expressions (DESIGN.md §10 gives the argument). Returns the family
    /// in variant order.
    fn apply_entry(&mut self, root: StateId, entry: &MemoEntry, kind: &NodeEvent) -> Vec<StateId> {
        let node = entry.node;
        let packet = match kind {
            NodeEvent::Deliver(p) => Some(p),
            _ => None,
        };
        let recorded = "only recorded for Deliver dispatches";
        let mut family: Vec<StateId> = Vec::with_capacity(entry.finals.len());
        family.push(root);
        for op in &entry.ops {
            match op {
                LogOp::FailureFork {
                    parent,
                    kind: fkind,
                } => {
                    let parent_id = family[*parent];
                    let child = self.store.fork_failure(parent_id, *fkind);
                    self.register_branch(parent_id, child, node);
                    family.push(child);
                }
                LogOp::BranchFork { parent } => {
                    let parent_id = family[*parent];
                    let sib_id = self.store.allocate_id();
                    let sibling = self.store.state(parent_id).fork_as(sib_id);
                    self.store.adopt_branch(parent_id, sibling);
                    self.register_branch(parent_id, sib_id, node);
                    family.push(sib_id);
                }
                LogOp::Send {
                    sender,
                    dest,
                    payload,
                } => {
                    let sender_id = family[*sender];
                    let pid = self.send_packet(sender_id, node, *dest, payload.clone());
                    self.store
                        .state_mut(sender_id)
                        .history
                        .record(HistoryEvent::Sent {
                            id: pid,
                            peer: *dest,
                        });
                }
                LogOp::Timer {
                    state,
                    delay,
                    timer,
                } => self.store.set_timer(family[*state], *delay, *timer),
                LogOp::ClearEvents { state } => self.store.clear_events(family[*state]),
                LogOp::PacketDropped { state } => {
                    let packet = packet.expect(recorded);
                    self.store.note_drop(family[*state], node, packet.id);
                }
                LogOp::PartitionDrop { state, until } => {
                    let packet = packet.expect(recorded);
                    self.store
                        .note_partition_drop(family[*state], node, packet.id, *until);
                }
                LogOp::DeferDeliver { state, delay } => {
                    let packet = packet.expect(recorded);
                    self.store.defer_delivery(family[*state], packet, *delay);
                }
                LogOp::PacketDelivered { state, duplicate } => {
                    let packet = packet.expect(recorded);
                    self.store
                        .note_delivered(family[*state], node, packet.id, *duplicate);
                }
            }
        }
        debug_assert_eq!(family.len(), entry.finals.len(), "op log vs finals");
        for (id, (vm, budgets)) in family.iter().zip(&entry.finals) {
            let s = self.store.state_mut(*id);
            s.vm = vm.clone();
            (
                s.drop_budget,
                s.dup_budget,
                s.reboot_budget,
                s.part_budget,
                s.lat_budget,
                s.cor_budget,
                s.crash_budget,
                s.partition_until,
            ) = *budgets;
        }
        for (variant, report) in &entry.bugs {
            self.store.bugs.push(BugFound {
                node,
                state: family[*variant],
                report: report.clone(),
            });
        }
        family
    }

    /// One transmission by `sender` on `node`: mint a packet id, run the
    /// state mapping and schedule one delivery event per mapped receiver.
    /// The caller records the `Sent` history event on the sender, which
    /// is off the store while its handler runs.
    ///
    /// The symbolic-latency decision is NOT made here: receiver-side
    /// forks at transmission time are incompatible with eager mappers
    /// (COB would have to copy the sender mid-handler, while it is off
    /// the store being executed), so latency forks at *delivery* time in
    /// [`Exec::deliver`], where every state is resident.
    fn send_packet(
        &mut self,
        sender: StateId,
        node: NodeId,
        dest: NodeId,
        payload: Vec<ExprRef>,
    ) -> PacketId {
        let pid = PacketId(self.next_packet);
        self.next_packet += 1;
        self.packets_sent += 1;
        if self.store.traced {
            self.store.sink.record(sde_trace::TraceEvent::Send {
                state: sender.0,
                node: node.0,
                dest: dest.0,
                packet: pid.0,
            });
        }
        self.store.fork_scratch.clear();
        let delivery = self.mapper.map_send(sender, node, dest, &mut self.store);
        if self.store.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.store.sink.record(sde_trace::TraceEvent::MapSend {
                state: sender.0,
                node: node.0,
                dest: dest.0,
                packet: pid.0,
                targets: delivery.receivers.iter().map(|r| r.0).collect(),
                forked,
                groups: self.mapper.group_count() as u64,
            });
        }
        let packet = Packet {
            id: pid,
            src: node,
            dest,
            payload,
        };
        let at = self.store.now + self.scenario.link_latency_ms;
        for sid in delivery.receivers {
            let r = self
                .store
                .states
                .get_mut(&sid)
                .unwrap_or_else(|| panic!("receiver {sid} not resident"));
            r.history.record(HistoryEvent::Received {
                id: pid,
                peer: node,
            });
            self.store
                .events
                .push(at, (sid, NodeEvent::Deliver(packet.clone())));
        }
        pid
    }

    // ----- reporting ----------------------------------------------------------

    fn sample(&mut self) {
        let bytes: usize = self.store.states.values().map(SdeState::approx_bytes).sum();
        let live = self.store.states.values().filter(|s| s.is_live()).count();
        self.series.push(Sample {
            wall_ms: self.started.elapsed().as_millis() as u64,
            virtual_ms: self.store.now,
            live_states: live,
            total_states: self.store.total_states,
            bytes,
            groups: self.mapper.group_count(),
        });
    }

    /// Consumes the engine into its final report.
    pub fn into_report(self) -> RunReport {
        let live = self.store.states.values().filter(|s| s.is_live()).count();
        let final_bytes: usize = self.store.states.values().map(SdeState::approx_bytes).sum();
        // Duplicate detection over resident states, scanned in state-id
        // order so "which of an equal pair counts as the duplicate" — and
        // with it the per-node attribution — is deterministic.
        let mut ordered: Vec<&SdeState> = self.store.states.values().collect();
        ordered.sort_unstable_by_key(|s| s.id.0);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut seen_terminated: HashSet<u64> = HashSet::new();
        let mut duplicates = 0usize;
        let mut duplicate_terminated = 0usize;
        let mut by_node: std::collections::BTreeMap<u16, usize> = std::collections::BTreeMap::new();
        for s in &ordered {
            if !seen.insert(s.config_digest()) {
                duplicates += 1;
                *by_node.entry(s.node.0).or_default() += 1;
            }
            if !s.is_live() && !seen_terminated.insert(s.config_digest()) {
                duplicate_terminated += 1;
            }
        }
        let duplicates_by_node: Vec<(u16, usize)> = by_node.into_iter().collect();
        // Order-independent digest of the final state set: every resident
        // state's configuration digest, combined in state-id order.
        let mut digests: Vec<(u64, u64)> = self
            .store
            .states
            .values()
            .map(|s| (s.id.0, s.config_digest()))
            .collect();
        digests.sort_unstable();
        let mut hasher = DefaultHasher::new();
        digests.hash(&mut hasher);
        let history_digest = hasher.finish();
        let solver = self.solver.stats();
        let trace = sde_trace::TraceSummary {
            forks_branch: self.store.forks[0],
            forks_mapping: self.store.forks[1],
            forks_drop: self.store.forks[2],
            forks_duplicate: self.store.forks[3],
            forks_reboot: self.store.forks[4],
            forks_latency: self.store.forks[5],
            forks_corrupt: self.store.forks[6],
            forks_crash: self.store.forks[7],
            forks_partition: self.store.forks[8],
            forks_heal: self.store.forks[9],
            packets_sent: self.packets_sent,
            solver_queries: solver.queries,
            solver_exact_hits: solver.cache_hits,
            solver_group_hits: solver.group_cache_hits,
            solver_reuse_hits: solver.model_reuse_hits,
            solver_ucore_hits: solver.ucore_hits,
            bugs_found: self.store.bugs.len() as u64,
            ..self.store.trace
        };
        RunReport {
            algorithm: self.mapper.name(),
            wall: self.started.elapsed(),
            virtual_ms: self.store.now,
            total_states: self.store.total_states,
            live_states: live,
            final_bytes,
            peak_bytes: self.series.peak_bytes().max(final_bytes),
            instructions: self.store.instructions,
            events: self.events_processed,
            packets: self.packets_sent,
            aborted: self.aborted,
            groups: self.mapper.group_count(),
            mapper: self.mapper.stats(),
            solver,
            duplicate_states: duplicates,
            duplicate_terminated,
            duplicates_by_node,
            states_executed: self.store.executed.len(),
            dedup: self.dedup_stats,
            bugs: self.store.bugs,
            history_digest,
            series: self.series,
            parallel: self.parallel,
            trace,
        }
    }
}

/// The serial engine — symbolic exploration, or a replay under
/// [`Engine::with_preset`].
impl Exec for Engine {
    fn store(&mut self) -> &mut Store {
        &mut self.store
    }

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn step(&mut self, st: &mut SdeState) -> Option<StepResult> {
        let mut ctx = VmCtx {
            solver: &self.solver,
            symbols: &mut self.symbols,
            now: self.store.now,
            node_id: st.node.0,
            preset: self.preset.as_ref(),
        };
        Some(step(self.scenario.program(st.node), &mut st.vm, &mut ctx))
    }

    /// Mints the input's symbol — also under a preset, so later inputs
    /// keep their ids — and yields it, or the preset's value. A strict
    /// preset without a value marks the state
    /// [`BugKind::UnkeyedInput`].
    fn mint(
        &mut self,
        state: StateId,
        name: &'static str,
        width: Width,
        kind: u32,
        occurrence: u32,
    ) -> Input {
        let node = self.store.state(state).node;
        let var = self.symbols.fresh_keyed(name, width, node.0, occurrence);
        let Some(preset) = self.preset.as_ref() else {
            return Input::Symbolic(Expr::sym(var));
        };
        let resolved = preset.resolve(node.0, name, occurrence, width);
        if resolved.is_some() || !preset.is_strict() {
            return Input::Concrete(resolved.unwrap_or(0));
        }
        let what = if width == Width::BOOL {
            "failure decision"
        } else {
            "fault input"
        };
        let report = BugReport {
            kind: BugKind::UnkeyedInput,
            message: Arc::from(format!(
                "strict replay has no value for {what} `{name}` (occurrence {occurrence}) on node {node}"
            )),
            // The synthetic location scheme of record_external_branch.
            loc: Loc {
                func: FuncId(0xffff_0000 | kind),
                index: occurrence,
            },
            model: None,
        };
        self.store.note_bug(BugFound {
            node,
            state,
            report: report.clone(),
        });
        self.store.state_mut(state).vm.set_bugged(report);
        Input::Unavailable
    }

    fn register_branch(&mut self, parent: StateId, child: StateId, node: NodeId) {
        self.store.fork_scratch.clear();
        self.mapper.on_branch(parent, child, node, &mut self.store);
        if self.store.traced {
            let forked = std::mem::take(&mut self.store.fork_scratch);
            self.store.sink.record(sde_trace::TraceEvent::MapBranch {
                parent: parent.0,
                child: child.0,
                node: node.0,
                forked,
            });
        }
    }

    fn transmit(&mut self, sender: &mut SdeState, dest: NodeId, payload: Vec<ExprRef>) {
        let pid = self.send_packet(sender.id, sender.node, dest, payload);
        sender.history.record(HistoryEvent::Sent {
            id: pid,
            peer: dest,
        });
    }

    fn missing_handler(&mut self, node: NodeId, handler: &str, arity: usize) {
        panic!("node {node} program has no handler `{handler}` with arity {arity}");
    }
}

// ----- sharded execution (the run_sharded worker side) --------------------

/// Safety valve: a shard worker abandons its group past this many VM
/// steps; the merge thread executes the rest itself.
const SHARD_INSTRUCTION_CAP: u64 = 4_000_000;

/// One shard work unit: all events of one state at one timestamp.
#[derive(Debug)]
struct ShardJob {
    now: u64,
    state: SdeState,
    events: Vec<NodeEvent>,
    /// Allocator window continuing the engine's symbol-id sequence
    /// ([`SymbolTable::forked`]); a dispatch that mints from it is
    /// abandoned, since ids must follow the serial mint order.
    symbols: SymbolTable,
}

/// One worker-recorded dispatch handed to the merge thread at the batch
/// barrier.
#[derive(Debug)]
struct ShardRecord {
    /// The worker-computed memo key; the merge thread computes the same
    /// key at pop time along sendless chains, so a plain map lookup
    /// finds the entry.
    key: u64,
    entry: MemoEntry,
    /// Family variants that entered handler execution (the worker-side
    /// image of the merge thread's `executed` marks).
    executed: Vec<u32>,
}

/// [`ShardRecord`] as the merge thread holds it — the entry shared so a
/// dedup-index adoption is a pointer copy.
#[derive(Debug, Clone)]
struct ShardEntry {
    entry: Arc<MemoEntry>,
    executed: Vec<u32>,
}

/// What a shard worker reports back at the batch barrier.
#[derive(Debug)]
struct ShardOutcome {
    events: u64,
    instructions: u64,
    busy: Duration,
    records: Vec<ShardRecord>,
    skips: u64,
    tainted: u64,
    aborts: u64,
}

/// A shard worker: executes one state's same-time events through the
/// shared [`Exec`] core against a private [`Store`] (no mapper, local
/// state ids), recording each dispatch as a [`MemoEntry`] the merge
/// thread applies in serial order (see [`Engine::run_sharded_in_place`]
/// for the fallback rules).
struct ShardWorker<'a> {
    scenario: &'a Scenario,
    solver: &'a Solver,
    symbols: SymbolTable,
    store: Store,
    /// The batch's cross-worker duplicate filter: dispatch keys already
    /// recorded. Strictly advisory — the merge thread re-confirms
    /// congruence structurally before applying anything, so a key
    /// collision costs a serial fallback, never correctness.
    keys: &'a Mutex<HashSet<u64>>,
    /// Completed recordings awaiting the batch barrier.
    records: Vec<ShardRecord>,
    events: u64,
    /// The in-flight dispatch transmitted a packet: its recording stays
    /// valid, but the chain must stop (packet ids — and with them the
    /// sender's history digest — are minted at merge time).
    sent: bool,
    /// The in-flight dispatch blew [`SHARD_INSTRUCTION_CAP`].
    capped: bool,
    /// The in-flight recording is unusable: it needed a fault input
    /// minted, or hit a missing handler the merge thread must reach
    /// itself.
    discard: bool,
    skips: u64,
    tainted: u64,
    aborts: u64,
}

impl<'a> ShardWorker<'a> {
    fn new(
        job: ShardJob,
        scenario: &'a Scenario,
        solver: &'a Solver,
        keys: &'a Mutex<HashSet<u64>>,
    ) -> ShardWorker<'a> {
        // Local ids far above any real StateId.
        let mut store = Store::new(1 << 63);
        store.now = job.now;
        let root = job.state.id;
        store.states.insert(root, job.state);
        for event in job.events {
            store.events.push(job.now, (root, event));
        }
        ShardWorker {
            scenario,
            solver,
            symbols: job.symbols,
            store,
            keys,
            records: Vec::new(),
            events: 0,
            sent: false,
            capped: false,
            discard: false,
            skips: 0,
            tainted: 0,
            aborts: 0,
        }
    }

    /// Runs the group's chain — the same-time events, including those
    /// forks and zero-delay timers add — until it ends or a dispatch
    /// stops it.
    fn run(mut self) -> ShardOutcome {
        let started = Instant::now();
        while self.store.events.peek_time() == Some(self.store.now) {
            let event = self.store.events.pop().expect("peeked event");
            self.events += 1;
            let (state_id, kind) = event.payload;
            if !self.dispatch(state_id, kind) {
                break;
            }
        }
        ShardOutcome {
            events: self.events,
            instructions: self.store.instructions,
            busy: started.elapsed(),
            records: self.records,
            skips: self.skips,
            tainted: self.tainted,
            aborts: self.aborts,
        }
    }

    /// Executes and records one dispatch; `false` ends the chain: another
    /// worker covers it, the recording was abandoned, or it sent.
    fn dispatch(&mut self, state_id: StateId, kind: NodeEvent) -> bool {
        if !self
            .store
            .states
            .get(&state_id)
            .is_some_and(SdeState::is_idle)
        {
            return true;
        }
        let key = {
            let s = &self.store.states[&state_id];
            memo_key(
                s.node,
                s.vm.config_digest(),
                s.budgets(),
                self.store.now,
                &kind,
            )
        };
        if self.keys.lock().expect("key set").contains(&key) {
            // Another worker already recorded a congruent chain; the
            // merge thread will confirm and apply its entries.
            self.skips += 1;
            return false;
        }
        let sym_start = self.symbols.len();
        self.sent = false;
        self.discard = false;
        self.store.begin_record(key, state_id, kind.clone());
        self.execute_event(state_id, kind);
        if self.capped || self.discard || self.symbols.len() != sym_start {
            // Abandoned: the merge thread executes this dispatch — and the
            // rest of the chain — itself.
            self.store.recorder = None;
            self.tainted += 1;
            if self.capped {
                self.aborts = 1;
            }
            return false;
        }
        let (key, entry, executed) = self.store.finish_record().expect("recording");
        self.keys.lock().expect("key set").insert(key);
        self.records.push(ShardRecord {
            key,
            entry,
            executed,
        });
        !self.sent
    }
}

impl Exec for ShardWorker<'_> {
    fn store(&mut self) -> &mut Store {
        &mut self.store
    }

    fn scenario(&self) -> &Scenario {
        self.scenario
    }

    fn step(&mut self, st: &mut SdeState) -> Option<StepResult> {
        if self.store.instructions > SHARD_INSTRUCTION_CAP {
            self.capped = true;
            return None;
        }
        let mut ctx = VmCtx {
            solver: self.solver,
            symbols: &mut self.symbols,
            now: self.store.now,
            node_id: st.node.0,
            preset: None,
        };
        Some(step(self.scenario.program(st.node), &mut st.vm, &mut ctx))
    }

    /// Fault inputs must be minted in serial dispatch order: leave the
    /// dispatch to the merge thread.
    fn mint(&mut self, _: StateId, _: &'static str, _: Width, _: u32, _: u32) -> Input {
        self.discard = true;
        Input::Unavailable
    }

    /// The mapper belongs to the merge thread, which re-issues the
    /// registration when it applies the recording.
    fn register_branch(&mut self, _: StateId, _: StateId, _: NodeId) {}

    fn transmit(&mut self, _: &mut SdeState, _: NodeId, _: Vec<ExprRef>) {
        self.sent = true;
    }

    fn missing_handler(&mut self, _: NodeId, _: &str, _: usize) {
        self.discard = true;
    }
}

/// Runs `scenario` under `algorithm` and reports.
///
/// # Examples
///
/// ```
/// use sde_core::{run, Algorithm, Scenario};
/// use sde_net::Topology;
/// use sde_os::apps::hello::{self, HelloConfig};
///
/// let topology = Topology::line(3);
/// let programs = hello::programs(&topology, &HelloConfig::default());
/// let report = run(&Scenario::new(topology, programs), Algorithm::Sds);
/// assert_eq!(report.algorithm, "SDS");
/// assert!(report.packets > 0);
/// ```
pub fn run(scenario: &Scenario, algorithm: Algorithm) -> RunReport {
    Engine::new(scenario.clone(), algorithm).run()
}
