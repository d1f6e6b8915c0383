//! Checkpoint & resume (DESIGN.md §8): bounded stepping budgets and
//! versioned engine snapshots.
//!
//! A long KleeNet-style exploration is one deterministic event loop, so
//! the complete engine configuration at an event boundary — states,
//! event queue, mapper bookkeeping, solver caches, counters — is a
//! serializable value. [`EngineSnapshot`] captures it;
//! [`Engine::run_until`](crate::Engine::run_until) pauses a run at such
//! a boundary; [`Engine::resume`](crate::Engine::resume) reconstructs an
//! engine that continues the run as if it had never stopped (same
//! [`RunReport::equivalence_key`](crate::RunReport::equivalence_key),
//! byte-identical trace stream).
//!
//! The on-disk format is versioned and digest-checked:
//!
//! ```text
//! magic "SDESNAP1" | version u32 LE | digest u64 LE (FNV-1a)
//! | prelude_len u32 LE | prelude segment | main segment
//! ```
//!
//! The digest covers everything after itself. The prelude holds the
//! scenario fingerprint and the symbol table (cheap to decode); the main
//! segment holds states, queue, mapper, solver and counters through the
//! shared expression codec ([`SnapWriter`]/[`SnapReader`]), which
//! preserves expression-DAG sharing so a decoded snapshot re-encodes to
//! the identical bytes.

use crate::engine::NodeEvent;
use crate::history::{CommHistory, HistoryEvent};
use crate::mapping::{Algorithm, MapperSnapshot, MapperStats};
use crate::state::{SdeState, StateId};
use crate::stats::{BugFound, Sample};
use sde_net::{NodeId, Packet, PacketId};
use sde_symbolic::{CodecError, SnapReader, SnapWriter, SolverSnapshot, Width};
use sde_vm::{BugReport, VmState};
use std::fmt;

/// File magic of a serialized [`EngineSnapshot`].
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"SDESNAP1";

/// Current snapshot format version; bumped on any codec change.
/// Version 2 added the dedup fields (flag, counters, executed-state
/// ids); version 3 added the fault subsystem (fault-plan fingerprint in
/// the prelude, four per-state fault budgets plus the partition
/// deadline, and five more fork counters); version 4 added the
/// `bugs_found`/`shrink_steps` trace counters of the checking layer;
/// version 5 added the shard-lineage fields (`root`/`shard_root`) per
/// state and the engine's `sharded` mode flag; version 6 writes the
/// solver's exact cache as one key-sorted list (no per-shard framing)
/// and drops the `sharded` flag again.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Size of the fixed file header (magic + version + digest + prelude
/// length).
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

// ---------------------------------------------------------------------------
// Budgets and run outcomes
// ---------------------------------------------------------------------------

/// A bound on how much work [`Engine::run_until`](crate::Engine::run_until)
/// may perform before pausing. Unset axes are unlimited; the run pauses
/// as soon as *any* set axis is reached (checked between events on the
/// serial path, between virtual-time batches on the parallel path).
///
/// # Examples
///
/// ```
/// use sde_core::Budget;
///
/// let b = Budget::events(10).with_max_instructions(1_000_000);
/// assert_eq!(b.max_events, Some(10));
/// assert!(!b.is_unlimited());
/// assert!(Budget::unlimited().is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Pause after dispatching this many events (this call).
    pub max_events: Option<u64>,
    /// Pause once this many VM instructions executed (this call).
    pub max_instructions: Option<u64>,
    /// Pause once the live-state count reaches this bound.
    pub max_live_states: Option<usize>,
}

impl Budget {
    /// No bound: run to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Bound on dispatched events.
    pub fn events(n: u64) -> Budget {
        Budget {
            max_events: Some(n),
            ..Budget::default()
        }
    }

    /// Bound on executed VM instructions.
    pub fn instructions(n: u64) -> Budget {
        Budget {
            max_instructions: Some(n),
            ..Budget::default()
        }
    }

    /// Bound on live execution states.
    pub fn live_states(n: usize) -> Budget {
        Budget {
            max_live_states: Some(n),
            ..Budget::default()
        }
    }

    /// Adds an event bound.
    #[must_use]
    pub fn with_max_events(mut self, n: u64) -> Budget {
        self.max_events = Some(n);
        self
    }

    /// Adds an instruction bound.
    #[must_use]
    pub fn with_max_instructions(mut self, n: u64) -> Budget {
        self.max_instructions = Some(n);
        self
    }

    /// Adds a live-state bound.
    #[must_use]
    pub fn with_max_live_states(mut self, n: usize) -> Budget {
        self.max_live_states = Some(n);
        self
    }

    /// `true` when no axis is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.max_events.is_none()
            && self.max_instructions.is_none()
            && self.max_live_states.is_none()
    }
}

/// How a bounded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A [`Budget`] axis was reached; the engine paused at an event
    /// boundary and can be snapshotted or driven further.
    Paused,
    /// The run finished (queue drained, duration reached, or state cap
    /// hit) — identical to what an unbounded run would have produced.
    Complete,
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be decoded or resumed. Malformed input is
/// always reported through this type — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with the `SDESNAP1` magic.
    BadMagic,
    /// The header's format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The content digest does not match — the file is corrupted.
    DigestMismatch,
    /// A segment failed to decode (truncated or malformed).
    Codec(CodecError),
    /// The scenario handed to [`Engine::resume`](crate::Engine::resume)
    /// differs from the snapshotted one; names the mismatching field.
    ScenarioMismatch(&'static str),
    /// The mapper bookkeeping was internally inconsistent.
    MapperState(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an SDE snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::DigestMismatch => write!(f, "snapshot digest mismatch (corrupted file)"),
            SnapshotError::Codec(e) => write!(f, "snapshot codec error: {e}"),
            SnapshotError::ScenarioMismatch(field) => {
                write!(f, "resume scenario differs from snapshot: {field}")
            }
            SnapshotError::MapperState(msg) => write!(f, "inconsistent mapper bookkeeping: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// The snapshot value
// ---------------------------------------------------------------------------

/// One pending event as stored in a snapshot:
/// `(virtual time, queue sequence, state, event)`.
pub(crate) type QueuedEvent = (u64, u64, StateId, NodeEvent);

/// One symbol-table entry: `(name, width, node, occurrence)` — the id is
/// implicit (entries are stored in allocation order).
pub(crate) type SymbolEntry = (String, Width, u16, u32);

/// A complete, self-contained image of a paused [`Engine`](crate::Engine)
/// at an event boundary.
///
/// Produced by [`Engine::snapshot`](crate::Engine::snapshot); consumed by
/// [`Engine::resume`](crate::Engine::resume). Serialize with
/// [`EngineSnapshot::to_bytes`]; the binary form is deterministic (equal
/// snapshots encode to equal bytes) and decoding then re-encoding is a
/// byte-level fixed point.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The mapping algorithm the run uses.
    pub(crate) algorithm: Algorithm,
    /// Scenario fingerprint: node count.
    pub(crate) node_count: usize,
    /// Scenario fingerprint: virtual duration.
    pub(crate) duration_ms: u64,
    /// Scenario fingerprint: link latency.
    pub(crate) link_latency_ms: u64,
    /// Scenario fingerprint: state cap.
    pub(crate) state_cap: usize,
    /// Scenario fingerprint: sampling cadence.
    pub(crate) sample_every: u64,
    /// Scenario fingerprint: whether histories keep full logs.
    pub(crate) track_history: bool,
    /// Scenario fingerprint: [`sde_net::FaultPlan::fingerprint`] of the
    /// fault plan (the plan itself lives in the caller's scenario, like
    /// programs and failure configs).
    pub(crate) faults_fingerprint: u64,
    /// Symbol table in allocation order.
    pub(crate) symbols: Vec<SymbolEntry>,
    /// Resident states, sorted by id.
    pub(crate) states: Vec<SdeState>,
    /// The queue's next insertion sequence number.
    pub(crate) queue_next_seq: u64,
    /// Pending events, sorted by sequence number.
    pub(crate) queue: Vec<QueuedEvent>,
    /// Mapper bookkeeping.
    pub(crate) mapper: MapperSnapshot,
    /// Solver caches, counters and toggles.
    pub(crate) solver: SolverSnapshot,
    /// Current virtual time.
    pub(crate) now: u64,
    /// Next packet id to mint.
    pub(crate) next_packet: u64,
    /// Events dispatched so far.
    pub(crate) events_processed: u64,
    /// Packets transmitted so far.
    pub(crate) packets_sent: u64,
    /// VM instructions executed so far.
    pub(crate) instructions: u64,
    /// Whether the state cap was hit.
    pub(crate) aborted: bool,
    /// States ever created.
    pub(crate) total_states: usize,
    /// Next state id to allocate.
    pub(crate) next_state: u64,
    /// Fork counts indexed by [`sde_trace::ForkReason::ALL`].
    pub(crate) forks: [u64; 10],
    /// The time series collected so far.
    pub(crate) samples: Vec<Sample>,
    /// Bugs found so far.
    pub(crate) bugs: Vec<BugFound>,
    /// The always-on trace counter digest.
    pub(crate) trace: sde_trace::TraceSummary,
    /// Whether duplicate-dispatch pruning was enabled (DESIGN.md §10).
    /// The memo index itself is not serialized — a resumed dedup run
    /// starts cold and re-records.
    pub(crate) dedup: bool,
    /// Dedup counters accumulated before the pause.
    pub(crate) dedup_stats: crate::stats::DedupStats,
    /// Ids of states that entered handler execution, sorted ascending.
    pub(crate) executed: Vec<u64>,
}

impl EngineSnapshot {
    /// The algorithm the snapshotted run uses.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Number of network nodes in the snapshotted scenario.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Virtual time at the pause point.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events dispatched before the pause.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// VM instructions executed before the pause.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Execution states ever created.
    pub fn total_states(&self) -> usize {
        self.total_states
    }

    /// Execution states resident in the snapshot.
    pub fn resident_states(&self) -> usize {
        self.states.len()
    }

    /// Pending events in the snapshot.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bugs recorded before the pause.
    pub fn bug_count(&self) -> usize {
        self.bugs.len()
    }

    /// Whether the run had already hit its state cap.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    // ----- binary codec ---------------------------------------------------

    /// Serializes the snapshot into the versioned, digest-checked binary
    /// form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut pw = SnapWriter::new();
        self.write_prelude(&mut pw);
        let prelude = pw.finish();
        let mut mw = SnapWriter::new();
        self.write_main(&mut mw);
        let main = mw.finish();

        let mut body = Vec::with_capacity(4 + prelude.len() + main.len());
        body.extend_from_slice(
            &u32::try_from(prelude.len())
                .expect("prelude exceeds 4 GiB")
                .to_le_bytes(),
        );
        body.extend_from_slice(&prelude);
        body.extend_from_slice(&main);

        let mut out = Vec::with_capacity(HEADER_LEN + body.len() - 4);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a snapshot serialized by [`EngineSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on any malformed input — wrong
    /// magic, unsupported version, digest mismatch, truncation — and
    /// never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() >= 8 && bytes[..8] != SNAPSHOT_MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Codec(CodecError::Truncated));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let digest = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let body = &bytes[20..];
        if fnv1a(body) != digest {
            return Err(SnapshotError::DigestMismatch);
        }
        let prelude_len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
        let rest = &body[4..];
        if prelude_len > rest.len() {
            return Err(SnapshotError::Codec(CodecError::Truncated));
        }
        let (prelude, main) = rest.split_at(prelude_len);

        let mut pr = SnapReader::new(prelude)?;
        let fingerprint = read_prelude(&mut pr)?;
        let mut mr = SnapReader::new(main)?;
        let snapshot = read_main(&mut mr, fingerprint)?;
        Ok(snapshot)
    }

    fn write_prelude(&self, w: &mut SnapWriter) {
        w.u8(algorithm_tag(self.algorithm));
        w.varint(self.node_count as u64);
        w.varint(self.duration_ms);
        w.varint(self.link_latency_ms);
        w.varint(self.state_cap as u64);
        w.varint(self.sample_every);
        w.bool(self.track_history);
        w.varint(self.faults_fingerprint);
        w.varint(self.symbols.len() as u64);
        for (name, width, node, occurrence) in &self.symbols {
            w.str(name);
            w.width(*width);
            w.varint(u64::from(*node));
            w.varint(u64::from(*occurrence));
        }
    }

    fn write_main(&self, w: &mut SnapWriter) {
        // States (sorted by id at snapshot time).
        w.varint(self.states.len() as u64);
        for s in &self.states {
            w.varint(s.id.0);
            w.varint(u64::from(s.node.0));
            s.vm.write_snapshot(w);
            let (digest, len, log) = s.history.export_parts();
            w.varint(digest);
            w.varint(u64::from(len));
            match log {
                Some(events) => {
                    w.bool(true);
                    w.varint(events.len() as u64);
                    for e in events {
                        let (tag, id, peer) = match e {
                            HistoryEvent::Sent { id, peer } => (1u8, id, peer),
                            HistoryEvent::Received { id, peer } => (2u8, id, peer),
                        };
                        w.u8(tag);
                        w.varint(id.0);
                        w.varint(u64::from(peer.0));
                    }
                }
                None => w.bool(false),
            }
            w.varint(u64::from(s.drop_budget));
            w.varint(u64::from(s.dup_budget));
            w.varint(u64::from(s.reboot_budget));
            w.varint(u64::from(s.part_budget));
            w.varint(u64::from(s.lat_budget));
            w.varint(u64::from(s.cor_budget));
            w.varint(u64::from(s.crash_budget));
            w.varint(s.partition_until);
            w.bool(s.root);
            w.varint(s.shard_root);
        }
        // Event queue (sorted by sequence number at snapshot time).
        w.varint(self.queue_next_seq);
        w.varint(self.queue.len() as u64);
        for (time, seq, sid, event) in &self.queue {
            w.varint(*time);
            w.varint(*seq);
            w.varint(sid.0);
            write_node_event(w, event);
        }
        write_mapper(w, &self.mapper);
        self.solver.write_into(w);
        w.varint(self.now);
        w.varint(self.next_packet);
        w.varint(self.events_processed);
        w.varint(self.packets_sent);
        w.varint(self.instructions);
        w.bool(self.aborted);
        w.varint(self.total_states as u64);
        w.varint(self.next_state);
        for f in self.forks {
            w.varint(f);
        }
        w.varint(self.samples.len() as u64);
        for s in &self.samples {
            w.varint(s.wall_ms);
            w.varint(s.virtual_ms);
            w.varint(s.live_states as u64);
            w.varint(s.total_states as u64);
            w.varint(s.bytes as u64);
            w.varint(s.groups as u64);
        }
        w.varint(self.bugs.len() as u64);
        for b in &self.bugs {
            w.varint(u64::from(b.node.0));
            w.varint(b.state.0);
            b.report.write_snapshot(w);
        }
        write_trace_summary(w, &self.trace);
        w.bool(self.dedup);
        w.varint(self.dedup_stats.candidates);
        w.varint(self.dedup_stats.confirmed);
        w.varint(self.dedup_stats.collisions);
        w.varint(self.dedup_stats.pruned_states);
        w.varint(self.dedup_stats.saved_instructions);
        w.varint(self.executed.len() as u64);
        for id in &self.executed {
            w.varint(*id);
        }
    }

    // ----- debug form -----------------------------------------------------

    /// Renders the snapshot as a deterministic JSON document for
    /// inspection and diffing (`--bin snapshot`). This is a debug view,
    /// not a round-trippable encoding — use
    /// [`EngineSnapshot::to_bytes`] for storage.
    pub fn to_debug_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {SNAPSHOT_VERSION},");
        let _ = writeln!(out, "  \"algorithm\": \"{}\",", self.algorithm);
        let _ = writeln!(
            out,
            "  \"scenario\": {{\"nodes\": {}, \"duration_ms\": {}, \"link_latency_ms\": {}, \
             \"state_cap\": {}, \"sample_every\": {}, \"track_history\": {}}},",
            self.node_count,
            self.duration_ms,
            self.link_latency_ms,
            self.state_cap,
            self.sample_every,
            self.track_history
        );
        let _ = writeln!(
            out,
            "  \"progress\": {{\"now\": {}, \"events\": {}, \"instructions\": {}, \
             \"packets_sent\": {}, \"next_packet\": {}, \"aborted\": {}}},",
            self.now,
            self.events_processed,
            self.instructions,
            self.packets_sent,
            self.next_packet,
            self.aborted
        );
        let _ = writeln!(
            out,
            "  \"states\": {{\"resident\": {}, \"total\": {}, \"next_id\": {}}},",
            self.states.len(),
            self.total_states,
            self.next_state
        );
        let _ = writeln!(
            out,
            "  \"forks\": {{\"branch\": {}, \"mapping\": {}, \"drop\": {}, \"duplicate\": {}, \
             \"reboot\": {}, \"latency\": {}, \"corrupt\": {}, \"crash\": {}, \
             \"partition\": {}, \"heal\": {}}},",
            self.forks[0],
            self.forks[1],
            self.forks[2],
            self.forks[3],
            self.forks[4],
            self.forks[5],
            self.forks[6],
            self.forks[7],
            self.forks[8],
            self.forks[9]
        );
        let stats = mapper_stats(&self.mapper);
        let _ = writeln!(
            out,
            "  \"mapper\": {{\"algorithm\": \"{}\", \"groups\": {}, \"branches_seen\": {}, \
             \"sends_mapped\": {}, \"mapper_forks\": {}, \"virtual_forks\": {}}},",
            self.mapper.algorithm(),
            mapper_group_count(&self.mapper),
            stats.branches_seen,
            stats.sends_mapped,
            stats.mapper_forks,
            stats.virtual_forks
        );
        let (cex_models, cex_cores) = self.solver.cex_entries();
        let _ = writeln!(
            out,
            "  \"solver\": {{\"queries\": {}, \"exact_entries\": {}, \"cex_models\": {}, \
             \"cex_cores\": {}}},",
            self.solver.stats().queries,
            self.solver.exact_entries(),
            cex_models,
            cex_cores
        );
        let _ = writeln!(out, "  \"symbols\": {},", self.symbols.len());
        let _ = writeln!(out, "  \"samples\": {},", self.samples.len());
        let _ = writeln!(out, "  \"queue_next_seq\": {},", self.queue_next_seq);
        out.push_str("  \"state_table\": [\n");
        for (i, s) in self.states.iter().enumerate() {
            let comma = if i + 1 == self.states.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"node\": {}, \"config_digest\": {}, \"bytes\": {}, \
                 \"history_len\": {}, \"drop_budget\": {}, \"dup_budget\": {}, \
                 \"reboot_budget\": {}}}{comma}",
                s.id.0,
                s.node.0,
                s.config_digest(),
                s.approx_bytes(),
                s.history.len(),
                s.drop_budget,
                s.dup_budget,
                s.reboot_budget
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"queue\": [\n");
        for (i, (time, seq, sid, event)) in self.queue.iter().enumerate() {
            let comma = if i + 1 == self.queue.len() { "" } else { "," };
            let kind = match event {
                NodeEvent::Boot => "boot".to_string(),
                NodeEvent::Timer(t) => format!("timer:{t}"),
                NodeEvent::Deliver(p) => format!("deliver:{}", p.id.0),
            };
            let _ = writeln!(
                out,
                "    {{\"time\": {time}, \"seq\": {seq}, \"state\": {}, \"kind\": \"{kind}\"}}{comma}",
                sid.0
            );
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"bugs\": {},", self.bugs.len());
        let _ = writeln!(
            out,
            "  \"dedup\": {{\"enabled\": {}, \"candidates\": {}, \"confirmed\": {}, \
             \"collisions\": {}, \"pruned_states\": {}, \"saved_instructions\": {}, \
             \"states_executed\": {}}},",
            self.dedup,
            self.dedup_stats.candidates,
            self.dedup_stats.confirmed,
            self.dedup_stats.collisions,
            self.dedup_stats.pruned_states,
            self.dedup_stats.saved_instructions,
            self.executed.len()
        );
        let _ = writeln!(
            out,
            "  \"trace_key\": \"{}\"",
            self.trace.deterministic_key()
        );
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Codec helpers
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice — the snapshot content digest.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn algorithm_tag(a: Algorithm) -> u8 {
    match a {
        Algorithm::Cob => 0,
        Algorithm::Cow => 1,
        Algorithm::Sds => 2,
    }
}

fn algorithm_from_tag(tag: u8) -> Result<Algorithm, CodecError> {
    match tag {
        0 => Ok(Algorithm::Cob),
        1 => Ok(Algorithm::Cow),
        2 => Ok(Algorithm::Sds),
        _ => Err(CodecError::Malformed("algorithm tag")),
    }
}

fn write_node_event(w: &mut SnapWriter, event: &NodeEvent) {
    match event {
        NodeEvent::Boot => w.u8(0),
        NodeEvent::Timer(t) => {
            w.u8(1);
            w.varint(u64::from(*t));
        }
        NodeEvent::Deliver(p) => {
            w.u8(2);
            w.varint(p.id.0);
            w.varint(u64::from(p.src.0));
            w.varint(u64::from(p.dest.0));
            w.varint(p.payload.len() as u64);
            for e in &p.payload {
                w.expr(e);
            }
        }
    }
}

fn read_node_event(r: &mut SnapReader<'_>) -> Result<NodeEvent, CodecError> {
    Ok(match r.u8()? {
        0 => NodeEvent::Boot,
        1 => NodeEvent::Timer(read_u16(r, "timer id")?),
        2 => {
            let id = PacketId(r.varint()?);
            let src = NodeId(read_u16(r, "packet source")?);
            let dest = NodeId(read_u16(r, "packet destination")?);
            let n = checked_len(r, "packet payload length")?;
            let mut payload = Vec::with_capacity(n);
            for _ in 0..n {
                payload.push(r.expr()?);
            }
            NodeEvent::Deliver(Packet {
                id,
                src,
                dest,
                payload,
            })
        }
        _ => return Err(CodecError::Malformed("node event tag")),
    })
}

fn write_mapper_stats(w: &mut SnapWriter, s: &MapperStats) {
    w.varint(s.branches_seen);
    w.varint(s.sends_mapped);
    w.varint(s.mapper_forks);
    w.varint(s.virtual_forks);
}

fn read_mapper_stats(r: &mut SnapReader<'_>) -> Result<MapperStats, CodecError> {
    Ok(MapperStats {
        branches_seen: r.varint()?,
        sends_mapped: r.varint()?,
        mapper_forks: r.varint()?,
        virtual_forks: r.varint()?,
    })
}

fn write_mapper(w: &mut SnapWriter, m: &MapperSnapshot) {
    w.u8(algorithm_tag(m.algorithm()));
    match m {
        MapperSnapshot::Cob {
            groups,
            next_group,
            stats,
        } => {
            w.varint(groups.len() as u64);
            for (g, members) in groups {
                w.varint(*g);
                w.varint(members.len() as u64);
                for (n, s) in members {
                    w.varint(u64::from(*n));
                    w.varint(*s);
                }
            }
            w.varint(*next_group);
            write_mapper_stats(w, stats);
        }
        MapperSnapshot::Cow {
            dstates,
            next_group,
            stats,
        } => {
            w.varint(dstates.len() as u64);
            for (g, per_node) in dstates {
                w.varint(*g);
                w.varint(per_node.len() as u64);
                for (n, states) in per_node {
                    w.varint(u64::from(*n));
                    w.varint(states.len() as u64);
                    for s in states {
                        w.varint(*s);
                    }
                }
            }
            w.varint(*next_group);
            write_mapper_stats(w, stats);
        }
        MapperSnapshot::Sds {
            vstates,
            groups,
            next_group,
            next_v,
            stats,
        } => {
            w.varint(vstates.len() as u64);
            for (v, owner, node, dstate) in vstates {
                w.varint(*v);
                w.varint(*owner);
                w.varint(u64::from(*node));
                w.varint(*dstate);
            }
            w.varint(groups.len() as u64);
            for g in groups {
                w.varint(*g);
            }
            w.varint(*next_group);
            w.varint(*next_v);
            write_mapper_stats(w, stats);
        }
    }
}

fn read_mapper(r: &mut SnapReader<'_>) -> Result<MapperSnapshot, CodecError> {
    Ok(match algorithm_from_tag(r.u8()?)? {
        Algorithm::Cob => {
            let ngroups = checked_len(r, "dscenario count")?;
            let mut groups = Vec::with_capacity(ngroups);
            for _ in 0..ngroups {
                let g = r.varint()?;
                let nmembers = checked_len(r, "dscenario member count")?;
                let mut members = Vec::with_capacity(nmembers);
                for _ in 0..nmembers {
                    let n = read_u16(r, "member node")?;
                    members.push((n, r.varint()?));
                }
                groups.push((g, members));
            }
            MapperSnapshot::Cob {
                groups,
                next_group: r.varint()?,
                stats: read_mapper_stats(r)?,
            }
        }
        Algorithm::Cow => {
            let ndstates = checked_len(r, "dstate count")?;
            let mut dstates = Vec::with_capacity(ndstates);
            for _ in 0..ndstates {
                let g = r.varint()?;
                let nnodes = checked_len(r, "dstate node count")?;
                let mut per_node = Vec::with_capacity(nnodes);
                for _ in 0..nnodes {
                    let n = read_u16(r, "dstate node")?;
                    let nstates = checked_len(r, "dstate member count")?;
                    let mut states = Vec::with_capacity(nstates);
                    for _ in 0..nstates {
                        states.push(r.varint()?);
                    }
                    per_node.push((n, states));
                }
                dstates.push((g, per_node));
            }
            MapperSnapshot::Cow {
                dstates,
                next_group: r.varint()?,
                stats: read_mapper_stats(r)?,
            }
        }
        Algorithm::Sds => {
            let nvstates = checked_len(r, "vstate count")?;
            let mut vstates = Vec::with_capacity(nvstates);
            for _ in 0..nvstates {
                let v = r.varint()?;
                let owner = r.varint()?;
                let node = read_u16(r, "vstate node")?;
                vstates.push((v, owner, node, r.varint()?));
            }
            let ngroups = checked_len(r, "dstate id count")?;
            let mut groups = Vec::with_capacity(ngroups);
            for _ in 0..ngroups {
                groups.push(r.varint()?);
            }
            MapperSnapshot::Sds {
                vstates,
                groups,
                next_group: r.varint()?,
                next_v: r.varint()?,
                stats: read_mapper_stats(r)?,
            }
        }
    })
}

fn write_trace_summary(w: &mut SnapWriter, t: &sde_trace::TraceSummary) {
    for v in [
        t.boots,
        t.dispatch_boot,
        t.dispatch_timer,
        t.dispatch_deliver,
        t.forks_branch,
        t.forks_mapping,
        t.forks_drop,
        t.forks_duplicate,
        t.forks_reboot,
        t.forks_latency,
        t.forks_corrupt,
        t.forks_crash,
        t.forks_partition,
        t.forks_heal,
        t.packets_sent,
        t.packets_delivered,
        t.packets_dropped,
        t.solver_queries,
        t.solver_exact_hits,
        t.solver_group_hits,
        t.solver_reuse_hits,
        t.solver_ucore_hits,
        t.bugs_found,
        t.shrink_steps,
        t.boot_wall_us,
        t.run_wall_us,
    ] {
        w.varint(v);
    }
}

fn read_trace_summary(r: &mut SnapReader<'_>) -> Result<sde_trace::TraceSummary, CodecError> {
    Ok(sde_trace::TraceSummary {
        boots: r.varint()?,
        dispatch_boot: r.varint()?,
        dispatch_timer: r.varint()?,
        dispatch_deliver: r.varint()?,
        forks_branch: r.varint()?,
        forks_mapping: r.varint()?,
        forks_drop: r.varint()?,
        forks_duplicate: r.varint()?,
        forks_reboot: r.varint()?,
        forks_latency: r.varint()?,
        forks_corrupt: r.varint()?,
        forks_crash: r.varint()?,
        forks_partition: r.varint()?,
        forks_heal: r.varint()?,
        packets_sent: r.varint()?,
        packets_delivered: r.varint()?,
        packets_dropped: r.varint()?,
        solver_queries: r.varint()?,
        solver_exact_hits: r.varint()?,
        solver_group_hits: r.varint()?,
        solver_reuse_hits: r.varint()?,
        solver_ucore_hits: r.varint()?,
        bugs_found: r.varint()?,
        shrink_steps: r.varint()?,
        boot_wall_us: r.varint()?,
        run_wall_us: r.varint()?,
    })
}

/// The scenario fingerprint and symbol table decoded from the prelude.
struct Prelude {
    algorithm: Algorithm,
    node_count: usize,
    duration_ms: u64,
    link_latency_ms: u64,
    state_cap: usize,
    sample_every: u64,
    track_history: bool,
    faults_fingerprint: u64,
    symbols: Vec<SymbolEntry>,
}

fn read_prelude(r: &mut SnapReader<'_>) -> Result<Prelude, CodecError> {
    let algorithm = algorithm_from_tag(r.u8()?)?;
    let node_count = read_usize(r, "node count")?;
    let duration_ms = r.varint()?;
    let link_latency_ms = r.varint()?;
    let state_cap = read_usize(r, "state cap")?;
    let sample_every = r.varint()?;
    let track_history = r.bool()?;
    let faults_fingerprint = r.varint()?;
    let nsymbols = checked_len(r, "symbol count")?;
    let mut symbols = Vec::with_capacity(nsymbols);
    for _ in 0..nsymbols {
        let name = r.str()?;
        let width = r.width()?;
        let node = read_u16(r, "symbol node")?;
        let occurrence =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("symbol occurrence"))?;
        symbols.push((name, width, node, occurrence));
    }
    Ok(Prelude {
        algorithm,
        node_count,
        duration_ms,
        link_latency_ms,
        state_cap,
        sample_every,
        track_history,
        faults_fingerprint,
        symbols,
    })
}

fn read_main(r: &mut SnapReader<'_>, p: Prelude) -> Result<EngineSnapshot, CodecError> {
    let nstates = checked_len(r, "state count")?;
    let mut states = Vec::with_capacity(nstates);
    for _ in 0..nstates {
        let id = StateId(r.varint()?);
        let node = NodeId(read_u16(r, "state node")?);
        let vm = VmState::read_snapshot(r)?;
        let digest = r.varint()?;
        let len =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("history length"))?;
        let log = if r.bool()? {
            let nevents = checked_len(r, "history log length")?;
            let mut events = Vec::with_capacity(nevents);
            for _ in 0..nevents {
                let tag = r.u8()?;
                let pid = PacketId(r.varint()?);
                let peer = NodeId(read_u16(r, "history peer")?);
                events.push(match tag {
                    1 => HistoryEvent::Sent { id: pid, peer },
                    2 => HistoryEvent::Received { id: pid, peer },
                    _ => return Err(CodecError::Malformed("history event tag")),
                });
            }
            Some(events)
        } else {
            None
        };
        let history = CommHistory::from_parts(digest, len, log);
        let drop_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("drop budget"))?;
        let dup_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("dup budget"))?;
        let reboot_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("reboot budget"))?;
        let part_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("partition budget"))?;
        let lat_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("latency budget"))?;
        let cor_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("corruption budget"))?;
        let crash_budget =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("crash budget"))?;
        let partition_until = r.varint()?;
        let root = r.bool()?;
        let shard_root = r.varint()?;
        states.push(SdeState {
            id,
            node,
            vm,
            history,
            drop_budget,
            dup_budget,
            reboot_budget,
            part_budget,
            lat_budget,
            cor_budget,
            crash_budget,
            partition_until,
            root,
            shard_root,
        });
    }
    let queue_next_seq = r.varint()?;
    let nqueue = checked_len(r, "queue length")?;
    let mut queue = Vec::with_capacity(nqueue);
    for _ in 0..nqueue {
        let time = r.varint()?;
        let seq = r.varint()?;
        let sid = StateId(r.varint()?);
        queue.push((time, seq, sid, read_node_event(r)?));
    }
    let mapper = read_mapper(r)?;
    if mapper.algorithm() != p.algorithm {
        return Err(CodecError::Malformed("mapper/prelude algorithm mismatch"));
    }
    let solver = SolverSnapshot::read_from(r)?;
    let now = r.varint()?;
    let next_packet = r.varint()?;
    let events_processed = r.varint()?;
    let packets_sent = r.varint()?;
    let instructions = r.varint()?;
    let aborted = r.bool()?;
    let total_states = read_usize(r, "total state count")?;
    let next_state = r.varint()?;
    let mut forks = [0u64; 10];
    for f in &mut forks {
        *f = r.varint()?;
    }
    let nsamples = checked_len(r, "sample count")?;
    let mut samples = Vec::with_capacity(nsamples);
    for _ in 0..nsamples {
        samples.push(Sample {
            wall_ms: r.varint()?,
            virtual_ms: r.varint()?,
            live_states: read_usize(r, "sample live states")?,
            total_states: read_usize(r, "sample total states")?,
            bytes: read_usize(r, "sample bytes")?,
            groups: read_usize(r, "sample groups")?,
        });
    }
    let nbugs = checked_len(r, "bug count")?;
    let mut bugs = Vec::with_capacity(nbugs);
    for _ in 0..nbugs {
        let node = NodeId(read_u16(r, "bug node")?);
        let state = StateId(r.varint()?);
        let report = BugReport::read_snapshot(r)?;
        bugs.push(BugFound {
            node,
            state,
            report,
        });
    }
    let trace = read_trace_summary(r)?;
    let dedup = r.bool()?;
    let dedup_stats = crate::stats::DedupStats {
        candidates: r.varint()?,
        confirmed: r.varint()?,
        collisions: r.varint()?,
        pruned_states: r.varint()?,
        saved_instructions: r.varint()?,
    };
    let nexecuted = checked_len(r, "executed state count")?;
    let mut executed = Vec::with_capacity(nexecuted);
    for _ in 0..nexecuted {
        executed.push(r.varint()?);
    }
    Ok(EngineSnapshot {
        algorithm: p.algorithm,
        node_count: p.node_count,
        duration_ms: p.duration_ms,
        link_latency_ms: p.link_latency_ms,
        state_cap: p.state_cap,
        sample_every: p.sample_every,
        track_history: p.track_history,
        faults_fingerprint: p.faults_fingerprint,
        symbols: p.symbols,
        states,
        queue_next_seq,
        queue,
        mapper,
        solver,
        now,
        next_packet,
        events_processed,
        packets_sent,
        instructions,
        aborted,
        total_states,
        next_state,
        forks,
        samples,
        bugs,
        trace,
        dedup,
        dedup_stats,
        executed,
    })
}

fn mapper_stats(m: &MapperSnapshot) -> MapperStats {
    match m {
        MapperSnapshot::Cob { stats, .. }
        | MapperSnapshot::Cow { stats, .. }
        | MapperSnapshot::Sds { stats, .. } => *stats,
    }
}

fn mapper_group_count(m: &MapperSnapshot) -> usize {
    match m {
        MapperSnapshot::Cob { groups, .. } => groups.len(),
        MapperSnapshot::Cow { dstates, .. } => dstates.len(),
        MapperSnapshot::Sds { groups, .. } => groups.len(),
    }
}

/// Reads a length prefix that cannot plausibly exceed the remaining
/// input (every element costs at least one byte), rejecting absurd
/// counts before any allocation.
fn checked_len(r: &mut SnapReader<'_>, what: &'static str) -> Result<usize, CodecError> {
    let n = r.varint()?;
    if n > r.remaining() as u64 {
        return Err(CodecError::Malformed(what));
    }
    Ok(n as usize)
}

fn read_u16(r: &mut SnapReader<'_>, what: &'static str) -> Result<u16, CodecError> {
    u16::try_from(r.varint()?).map_err(|_| CodecError::Malformed(what))
}

fn read_usize(r: &mut SnapReader<'_>, what: &'static str) -> Result<usize, CodecError> {
    usize::try_from(r.varint()?).map_err(|_| CodecError::Malformed(what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::Scenario;
    use sde_net::{FailureConfig, Topology};
    use sde_os::apps::pingpong::{self, PingPongConfig};

    fn scenario() -> Scenario {
        let topology = Topology::line(2);
        let cfg = PingPongConfig {
            client: NodeId(0),
            server: NodeId(1),
            requests: 2,
            timeout_ms: 40,
        };
        let failures = FailureConfig::new().with_drops([NodeId(1)], 1);
        Scenario::new(topology.clone(), pingpong::programs(&topology, &cfg))
            .with_failures(failures)
            .with_duration_ms(300)
    }

    #[test]
    fn budget_constructors_and_axes() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::events(3)
            .with_max_instructions(10)
            .with_max_live_states(5);
        assert_eq!(b.max_events, Some(3));
        assert_eq!(b.max_instructions, Some(10));
        assert_eq!(b.max_live_states, Some(5));
        assert!(!b.is_unlimited());
        assert!(!Budget::instructions(7).is_unlimited());
        assert!(!Budget::live_states(7).is_unlimited());
    }

    #[test]
    fn snapshot_bytes_roundtrip_is_fixed_point() {
        let mut engine = Engine::new(scenario(), Algorithm::Sds);
        assert_eq!(engine.run_until(Budget::events(5)), RunOutcome::Paused);
        let snap = engine.snapshot();
        let bytes = snap.to_bytes();
        let decoded = EngineSnapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(decoded.to_bytes(), bytes, "decode→encode is a fixed point");
        assert_eq!(decoded.events_processed(), snap.events_processed());
        assert_eq!(decoded.resident_states(), snap.resident_states());
        assert_eq!(decoded.queue_len(), snap.queue_len());
        assert_eq!(decoded.algorithm(), snap.algorithm());
    }

    #[test]
    fn interrupted_run_matches_straight_run() {
        for algorithm in Algorithm::ALL {
            let straight = Engine::new(scenario(), algorithm).run();

            let mut engine = Engine::new(scenario(), algorithm);
            let mut interruptions = 0usize;
            while engine.run_until(Budget::events(3)) == RunOutcome::Paused {
                // Full serialize→deserialize→resume round trip at every
                // pause point.
                let bytes = engine.snapshot().to_bytes();
                let snap = EngineSnapshot::from_bytes(&bytes).expect("decode");
                engine = Engine::resume(scenario(), &snap).expect("resume");
                interruptions += 1;
            }
            assert!(
                interruptions > 0,
                "{algorithm}: scenario too small to pause"
            );
            let resumed = engine.into_report();
            assert_eq!(
                resumed.equivalence_key(),
                straight.equivalence_key(),
                "{algorithm}: interrupted run diverged"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_malformed_input_without_panicking() {
        let mut engine = Engine::new(scenario(), Algorithm::Cow);
        engine.run_until(Budget::events(4));
        let bytes = engine.snapshot().to_bytes();

        assert!(matches!(
            EngineSnapshot::from_bytes(b"not a snapshot at all"),
            Err(SnapshotError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xFF;
        assert!(matches!(
            EngineSnapshot::from_bytes(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let mut corrupted = bytes.clone();
        let last = corrupted.len() - 1;
        corrupted[last] ^= 0x5A;
        assert_eq!(
            EngineSnapshot::from_bytes(&corrupted).unwrap_err(),
            SnapshotError::DigestMismatch
        );
        for cut in [0, 7, 12, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                EngineSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn resume_rejects_mismatched_scenario() {
        let mut engine = Engine::new(scenario(), Algorithm::Cob);
        engine.run_until(Budget::events(2));
        let snap = engine.snapshot();
        let err = Engine::resume(scenario().with_duration_ms(999), &snap).unwrap_err();
        assert_eq!(err, SnapshotError::ScenarioMismatch("duration_ms"));
        assert!(err.to_string().contains("duration_ms"));
    }

    #[test]
    fn debug_json_mentions_key_fields() {
        let mut engine = Engine::new(scenario(), Algorithm::Sds);
        engine.run_until(Budget::events(4));
        let json = engine.snapshot().to_debug_json();
        for needle in [
            "\"algorithm\": \"SDS\"",
            "\"version\": 6",
            "state_table",
            "trace_key",
            "\"dedup\": {\"enabled\": false",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
