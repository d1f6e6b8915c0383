//! A bounded, complete-over-small-domains bit-vector model finder.
//!
//! Pipeline per query (mirroring KLEE's solver stack in miniature):
//!
//! 1. **Simplification** — constraints are already simplified on entry to
//!    the path condition; trivially false sets short-circuit, and concrete
//!    constraints are folded away before any cache is consulted.
//! 2. **Independence partitioning** — constraints are grouped by shared
//!    variables (union–find over the memoized [`Expr::vars`] sets, no DAG
//!    walks); each group is solved separately and models are merged. A
//!    branch condition usually touches one or two variables, so this is
//!    the main cost saver — and it is what makes the caches below
//!    effective, because group-sized keys recur far more often than whole
//!    path conditions do.
//! 3. **Exact caching** — an exact-match cache over each (order-normalized)
//!    constraint group. Sibling states share every group of their common
//!    path-condition prefix, so extending a path by one branch costs one
//!    new group solve, not a re-solve of the whole condition. With
//!    [`Solver::set_group_caching`]`(false)` the cache falls back to
//!    whole-query granularity (one key per full constraint set).
//! 4. **Counterexample caching** — satisfying models and UNSAT cores from
//!    earlier group solves answer *related* (not identical) groups:
//!    a cached UNSAT core that is a subset of the query proves UNSAT; a
//!    cached model that evaluates every query constraint to true proves
//!    SAT. See "Determinism" below for when this layer is consulted.
//! 5. **Interval refinement** — per-variable unsigned bounds are tightened
//!    from comparison constraints, shrinking enumeration domains. The
//!    refinement tracks which constraints touched each variable's bounds,
//!    so an emptied interval yields an UNSAT core for layer 4.
//! 6. **Backtracking enumeration** — variables ordered by domain size;
//!    candidate values are tried likely-first (bounds, 0, 1) and partial
//!    evaluation prunes violated constraints early. A node budget caps the
//!    search; exhaustion yields [`SolverResult::Unknown`].
//!
//! # Determinism
//!
//! Queries come in two grades. *Verdict-grade* queries ([`Solver::check`],
//! [`Solver::may_be_true`], [`Solver::must_be_true`], [`Solver::is_sat`])
//! only need a correct SAT/UNSAT answer, so they may be answered by any
//! cache layer. *Witness-grade* queries ([`Solver::model`],
//! [`Solver::check_constraints`]) return models that become externally
//! visible test cases and bug witnesses, which must not depend on cache
//! fill order; they therefore skip counterexample **model reuse** (a
//! reused model is whichever related model happened to be cached first)
//! but still use UNSAT-core probing, whose observable outcome (no model)
//! is the same as a fresh solve. The exact cache stores only
//! solver-computed answers — never counterexample-derived ones — so its
//! contents are reproducible regardless of query order.
//!
//! Each cache layer is individually switchable for ablation measurements:
//! [`Solver::set_caching`] (exact cache master switch),
//! [`Solver::set_group_caching`] (per-group vs whole-query granularity),
//! and [`Solver::set_cex_caching`] (counterexample layer).
//!
//! [`Expr::vars`]: crate::Expr::vars

use crate::expr::{BinOp, CastOp, Expr, ExprKind, ExprRef};
use crate::interval::Interval;
use crate::model::Model;
use crate::path::PathCondition;
use crate::snapshot::{CodecError, SnapReader, SnapWriter};
use crate::table::SymId;
use crate::vars::VarSet;
use crate::width::Width;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Resource limits for a single satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum number of search nodes (variable assignments tried) per
    /// independent constraint group.
    pub max_nodes: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            max_nodes: 2_000_000,
        }
    }
}

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverResult {
    /// Satisfiable, with a witness assigning every constrained variable.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before a decision was reached.
    Unknown,
}

impl SolverResult {
    /// Returns `true` for [`SolverResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }

    /// Returns `true` for [`SolverResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }
}

/// Counters describing solver work done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total queries received (including cache hits).
    pub queries: u64,
    /// Queries answered *entirely* from the exact cache (every independent
    /// group examined was a cache hit; no solving or counterexample
    /// reasoning was needed).
    pub cache_hits: u64,
    /// Independent constraint groups answered from the exact group cache.
    pub group_cache_hits: u64,
    /// Groups answered SAT by re-evaluating a cached model from a related
    /// earlier query (counterexample cache, verdict-grade queries only).
    pub model_reuse_hits: u64,
    /// Groups answered UNSAT because a cached UNSAT core is a subset of
    /// the group (counterexample cache).
    pub ucore_hits: u64,
    /// Queries decided satisfiable.
    pub sat: u64,
    /// Queries decided unsatisfiable.
    pub unsat: u64,
    /// Queries abandoned on budget exhaustion.
    pub unknown: u64,
    /// Search nodes visited across all queries.
    pub nodes_visited: u64,
}

#[derive(Debug, Clone)]
enum CacheEntry {
    Sat(Model),
    Unsat,
}

impl CacheEntry {
    fn to_result(&self) -> SolverResult {
        match self {
            CacheEntry::Sat(m) => SolverResult::Sat(m.clone()),
            CacheEntry::Unsat => SolverResult::Unsat,
        }
    }
}

/// One hash bucket of the exact cache: (normalized constraint set, answer).
type CacheBucket = Vec<(Vec<ExprRef>, CacheEntry)>;

/// One exported exact-cache entry: the normalized constraint set plus
/// `Some(model)` for SAT / `None` for UNSAT (the serializable form of
/// [`CacheEntry`]).
type ExportedEntry = (Vec<ExprRef>, Option<Model>);

/// Number of counterexample buckets: a per-variable index (variable id
/// modulo the count), not a lock stripe. The layout decides probe order
/// and FIFO eviction, and with them which cache layer answers a query,
/// so it is part of the snapshot format.
const CEX_BUCKETS: usize = 16;

/// Per-bucket capacity of each counterexample side (models / cores); FIFO
/// eviction. The caps bound probe cost: a counterexample lookup scans at
/// most `buckets(vars) × cap` entries.
const CEX_CAP: usize = 64;

/// One bucket of the counterexample cache. Entries are indexed by the
/// variables they mention: an entry is inserted into the bucket of every
/// variable in its var-set, and a query probes the buckets of its own
/// variables — any related entry must share a variable with the query, so
/// no probe can miss an applicable entry.
#[derive(Debug, Default)]
struct CexShard {
    /// Satisfying models from earlier group solves, with the var-set of
    /// the group they solved. Newest are probed first.
    models: VecDeque<(VarSet, Model)>,
    /// UNSAT cores from earlier group solves.
    cores: VecDeque<CoreEntry>,
}

/// An UNSAT core: a hash-sorted subset of some earlier group's constraints
/// that is unsatisfiable on its own. Any superset is unsatisfiable too.
#[derive(Debug, Clone)]
struct CoreEntry {
    hashes: Vec<u64>,
    constraints: Vec<ExprRef>,
}

/// One independent constraint group: hash-sorted constraints, their
/// individual hashes (aligned), the exact-cache key derived from them, and
/// the union of their memoized var-sets.
#[derive(Debug)]
struct Group {
    constraints: Vec<ExprRef>,
    hashes: Vec<u64>,
    key: u64,
    vars: VarSet,
}

/// The constraint solver. See the module documentation for the pipeline.
///
/// A solver has one owner: caches and counters sit behind `Cell`/`RefCell`
/// (queries take `&self`), so it is `Send` but not `Sync`. Threads that
/// solve in parallel each build their own.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Expr, PathCondition, Solver, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let pc = PathCondition::new().with(Expr::eq(x.clone(), Expr::const_(7, Width::W8)));
/// let solver = Solver::new();
/// let model = solver.model(&pc).expect("x = 7 is satisfiable");
/// assert_eq!(model.iter().next().map(|(_, v)| v), Some(7));
/// // x == 7 ∧ x == 9 is unsatisfiable:
/// assert!(!solver.is_sat(&pc.with(Expr::eq(x, Expr::const_(9, Width::W8)))));
/// ```
#[derive(Debug)]
pub struct Solver {
    budget: SolverBudget,
    stats: Cell<SolverStats>,
    cache: RefCell<HashMap<u64, CacheBucket>>,
    cex: RefCell<Vec<CexShard>>,
    caching: Cell<bool>,
    group_caching: Cell<bool>,
    cex_caching: Cell<bool>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            budget: SolverBudget::default(),
            stats: Cell::default(),
            cache: RefCell::default(),
            cex: RefCell::new((0..CEX_BUCKETS).map(|_| CexShard::default()).collect()),
            caching: Cell::new(true),
            group_caching: Cell::new(true),
            cex_caching: Cell::new(true),
        }
    }
}

impl Solver {
    /// Creates a solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit budget.
    pub fn with_budget(budget: SolverBudget) -> Self {
        Solver {
            budget,
            ..Self::default()
        }
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> SolverStats {
        self.stats.get()
    }

    fn bump(&self, count: impl FnOnce(&mut SolverStats)) {
        let mut stats = self.stats.get();
        count(&mut stats);
        self.stats.set(stats);
    }

    /// Clears the exact and counterexample caches (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
        self.clear_cex();
    }

    fn clear_cex(&self) {
        for bucket in self.cex.borrow_mut().iter_mut() {
            bucket.models.clear();
            bucket.cores.clear();
        }
    }

    /// Enables or disables the exact query cache (for ablation
    /// measurements). Disabling also clears it.
    pub fn set_caching(&self, enabled: bool) {
        self.caching.set(enabled);
        if !enabled {
            self.cache.borrow_mut().clear();
        }
    }

    /// Chooses the exact cache's granularity: per independent group
    /// (default) or whole-query (the pre-incremental behavior, kept as an
    /// ablation point). No effect while caching is disabled entirely.
    ///
    /// Both granularities key on order-normalized constraint sets, so the
    /// cache stays consistent across switches and no clear is needed.
    pub fn set_group_caching(&self, enabled: bool) {
        self.group_caching.set(enabled);
    }

    /// Enables or disables the counterexample cache (model reuse and
    /// UNSAT-core probing). Disabling also clears it.
    pub fn set_cex_caching(&self, enabled: bool) {
        self.cex_caching.set(enabled);
        if !enabled {
            self.clear_cex();
        }
    }

    /// Exports the solver's entire mutable state — counters, ablation
    /// toggles, the exact cache and the counterexample cache — as a
    /// [`SolverSnapshot`].
    ///
    /// Cache contents are captured verbatim (bucket and FIFO order
    /// preserved) with the exact cache sorted by key, so exporting the
    /// same state twice yields identical snapshots.
    pub fn export_state(&self) -> SolverSnapshot {
        let mut exact: Vec<(u64, Vec<ExportedEntry>)> = self
            .cache
            .borrow()
            .iter()
            .map(|(key, bucket)| {
                let bucket = bucket
                    .iter()
                    .map(|(set, entry)| {
                        let model = match entry {
                            CacheEntry::Sat(m) => Some(m.clone()),
                            CacheEntry::Unsat => None,
                        };
                        (set.clone(), model)
                    })
                    .collect();
                (*key, bucket)
            })
            .collect();
        exact.sort_by_key(|(key, _)| *key);
        let cex = self.cex.borrow();
        SolverSnapshot {
            stats: self.stats(),
            caching: self.caching.get(),
            group_caching: self.group_caching.get(),
            cex_caching: self.cex_caching.get(),
            exact,
            cex_models: cex
                .iter()
                .map(|bucket| bucket.models.iter().cloned().collect())
                .collect(),
            cex_cores: cex
                .iter()
                .map(|bucket| {
                    bucket
                        .cores
                        .iter()
                        .map(|core| (core.hashes.clone(), core.constraints.clone()))
                        .collect()
                })
                .collect(),
        }
    }

    /// Restores state exported by [`Solver::export_state`], replacing
    /// all current counters, toggles and cache contents.
    ///
    /// After an import, cache lookups behave exactly as they did on the
    /// exporting solver: entry order within buckets and counterexample
    /// FIFOs is preserved, so query answers (and their trace-layer
    /// attribution) replay identically.
    pub fn import_state(&self, snap: &SolverSnapshot) {
        self.stats.set(snap.stats);
        self.caching.set(snap.caching);
        self.group_caching.set(snap.group_caching);
        self.cex_caching.set(snap.cex_caching);
        *self.cache.borrow_mut() = snap
            .exact
            .iter()
            .map(|(key, bucket)| {
                let restored: CacheBucket = bucket
                    .iter()
                    .map(|(set, model)| {
                        let entry = match model {
                            Some(m) => CacheEntry::Sat(m.clone()),
                            None => CacheEntry::Unsat,
                        };
                        (set.clone(), entry)
                    })
                    .collect();
                (*key, restored)
            })
            .collect();
        for (i, bucket) in self.cex.borrow_mut().iter_mut().enumerate() {
            bucket.models = snap.cex_models[i].iter().cloned().collect();
            bucket.cores = snap.cex_cores[i]
                .iter()
                .map(|(hashes, constraints)| CoreEntry {
                    hashes: hashes.clone(),
                    constraints: constraints.clone(),
                })
                .collect();
        }
    }

    /// Decides satisfiability of a path condition.
    pub fn check(&self, pc: &PathCondition) -> SolverResult {
        if pc.is_trivially_false() {
            self.bump(|s| {
                s.queries += 1;
                s.unsat += 1;
            });
            record_fold_unsat();
            return SolverResult::Unsat;
        }
        let constraints: Vec<ExprRef> = pc.iter().cloned().collect();
        self.solve_query(&constraints, false)
    }

    /// Decides satisfiability of an explicit constraint list (conjunction).
    ///
    /// This is a *witness-grade* query (see the module docs): any returned
    /// model is independent of counterexample-cache contents, so callers
    /// may surface it as a test case.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when a constraint is not of width 1.
    pub fn check_constraints(&self, constraints: &[ExprRef]) -> SolverResult {
        self.solve_query(constraints, true)
    }

    /// Returns `true` when `pc ∧ cond` may be satisfiable.
    ///
    /// `Unknown` counts as *may*, so exploration over-approximates rather
    /// than silently dropping feasible paths.
    pub fn may_be_true(&self, pc: &PathCondition, cond: &ExprRef) -> bool {
        if cond.is_true() {
            return !matches!(self.check(pc), SolverResult::Unsat);
        }
        if cond.is_false() {
            return false;
        }
        !matches!(self.check(&pc.with(cond.clone())), SolverResult::Unsat)
    }

    /// Returns `true` when `cond` holds in every model of `pc`
    /// (i.e. `pc ∧ ¬cond` is unsatisfiable).
    pub fn must_be_true(&self, pc: &PathCondition, cond: &ExprRef) -> bool {
        matches!(
            self.check(&pc.with(Expr::not(cond.clone()))),
            SolverResult::Unsat
        )
    }

    /// Convenience: `check(pc)` is satisfiable (Unknown counts as `false`).
    pub fn is_sat(&self, pc: &PathCondition) -> bool {
        self.check(pc).is_sat()
    }

    /// Returns a witness model of `pc`, or `None` when unsatisfiable or
    /// unknown.
    ///
    /// Witness-grade: the model does not depend on counterexample-cache
    /// contents (module docs).
    pub fn model(&self, pc: &PathCondition) -> Option<Model> {
        if pc.is_trivially_false() {
            self.bump(|s| {
                s.queries += 1;
                s.unsat += 1;
            });
            record_fold_unsat();
            return None;
        }
        let constraints: Vec<ExprRef> = pc.iter().cloned().collect();
        match self.solve_query(&constraints, true) {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    // ----- internals ------------------------------------------------------

    /// Full pipeline for one query, plus trace instrumentation.
    ///
    /// When the calling thread has an enabled `sde-trace` sink installed
    /// (the engine installs one per traced run), a `Query` event is
    /// recorded with the answering layer, the verdict, the independence
    /// group count and the wall-clock duration; untraced runs pay one
    /// thread-local check.
    fn solve_query(&self, constraints: &[ExprRef], witness: bool) -> SolverResult {
        let trace = sde_trace::thread_sink();
        let Some(sink) = trace else {
            return self.solve_query_traced(constraints, witness, None).0;
        };
        let start = std::time::Instant::now();
        let (result, layer, groups) = self.solve_query_traced(constraints, witness, Some(&*sink));
        let verdict = match &result {
            SolverResult::Sat(_) => sde_trace::Verdict::Sat,
            SolverResult::Unsat => sde_trace::Verdict::Unsat,
            SolverResult::Unknown => sde_trace::Verdict::Unknown,
        };
        sink.record(sde_trace::TraceEvent::Query {
            layer,
            verdict,
            groups,
            dur_us: start.elapsed().as_micros() as u64,
        });
        result
    }

    /// The query pipeline. Returns the verdict plus, for the trace layer,
    /// which layer answered the whole query and how many independence
    /// groups it split into (0 when answered before partitioning).
    fn solve_query_traced(
        &self,
        constraints: &[ExprRef],
        witness: bool,
        trace: Option<&dyn sde_trace::TraceSink>,
    ) -> (SolverResult, sde_trace::QueryLayer, u64) {
        use sde_trace::QueryLayer;
        self.bump(|s| s.queries += 1);

        // Layer 1: fold out concrete constraints; bail on a false one.
        let mut work: Vec<ExprRef> = Vec::with_capacity(constraints.len());
        for c in constraints {
            debug_assert_eq!(c.width(), Width::BOOL);
            if c.is_concrete() {
                if c.eval(&Model::new()) == Some(1) {
                    continue;
                }
                self.bump(|s| s.unsat += 1);
                return (SolverResult::Unsat, QueryLayer::Fold, 0);
            }
            work.push(c.clone());
        }
        if work.is_empty() {
            self.bump(|s| s.sat += 1);
            return (SolverResult::Sat(Model::new()), QueryLayer::Fold, 0);
        }

        // Canonical order + per-constraint hashes (shared by both cache
        // granularities and the partitioner).
        let (hashes, query_key) = canonicalize(&mut work);

        let caching = self.caching.get();
        let group_caching = caching && self.group_caching.get();
        let cex = self.cex_caching.get();

        // Whole-query granularity (ablation fallback): one exact-cache key
        // for the entire normalized constraint set.
        if caching && !group_caching {
            if let Some(entry) = self.exact_lookup(query_key, &work) {
                self.bump(|s| s.cache_hits += 1);
                let result = entry.to_result();
                self.tally(&result);
                // Group counts must stay deterministic in traces even on
                // this pre-partition hit path, so partition when traced.
                let n = if trace.is_some() {
                    partition(&work, &hashes).len() as u64
                } else {
                    0
                };
                return (result, QueryLayer::Exact, n);
            }
        }

        // Layer 2: partition, then solve each group through the remaining
        // layers independently.
        let groups = partition(&work, &hashes);
        let mut combined = Model::new();
        let mut all_groups_cached = true;
        let mut outcome = None;
        for group in &groups {
            let (result, from_exact) =
                self.solve_one_group(group, group_caching, cex, witness, trace);
            all_groups_cached &= from_exact;
            match result {
                SolverResult::Sat(m) => combined.extend(&m),
                SolverResult::Unsat => {
                    outcome = Some(SolverResult::Unsat);
                    break;
                }
                SolverResult::Unknown => {
                    all_groups_cached = false;
                    outcome = Some(SolverResult::Unknown);
                    break;
                }
            }
        }
        let result = outcome.unwrap_or(SolverResult::Sat(combined));

        // `cache_hits` keeps its historical meaning: the query was answered
        // without any solving — here, every group examined hit the exact
        // group cache (an early UNSAT group counts; later groups were not
        // needed).
        if group_caching && all_groups_cached {
            self.bump(|s| s.cache_hits += 1);
        }

        if caching && !group_caching {
            match &result {
                SolverResult::Sat(m) => {
                    self.exact_store(query_key, &work, CacheEntry::Sat(m.clone()));
                }
                SolverResult::Unsat => {
                    self.exact_store(query_key, &work, CacheEntry::Unsat);
                }
                SolverResult::Unknown => {}
            }
        }

        self.tally(&result);
        let layer = if group_caching && all_groups_cached {
            QueryLayer::Exact
        } else {
            QueryLayer::Solve
        };
        (result, layer, groups.len() as u64)
    }

    fn tally(&self, result: &SolverResult) {
        self.bump(|s| match result {
            SolverResult::Sat(_) => s.sat += 1,
            SolverResult::Unsat => s.unsat += 1,
            SolverResult::Unknown => s.unknown += 1,
        });
    }

    /// Layers 3–6 for one independent group. Returns the verdict and
    /// whether it came from the exact group cache.
    fn solve_one_group(
        &self,
        group: &Group,
        group_caching: bool,
        cex: bool,
        witness: bool,
        trace: Option<&dyn sde_trace::TraceSink>,
    ) -> (SolverResult, bool) {
        use sde_trace::{GroupLayer, TraceEvent};
        let group_hit = |layer: GroupLayer| {
            if let Some(sink) = trace {
                sink.record(TraceEvent::QueryGroup { layer });
            }
        };

        // Layer 3: exact group cache.
        if group_caching {
            if let Some(entry) = self.exact_lookup(group.key, &group.constraints) {
                self.bump(|s| s.group_cache_hits += 1);
                group_hit(GroupLayer::Exact);
                return (entry.to_result(), true);
            }
        }

        // Layer 4: counterexample cache. UNSAT-core probing is sound for
        // both query grades (a "no" answer carries no witness); model
        // reuse is verdict-grade only (module docs: Determinism).
        if cex {
            if self.ucore_implies_unsat(group) {
                self.bump(|s| s.ucore_hits += 1);
                group_hit(GroupLayer::Ucore);
                return (SolverResult::Unsat, false);
            }
            if !witness {
                if let Some(m) = self.reuse_model(group) {
                    self.bump(|s| s.model_reuse_hits += 1);
                    group_hit(GroupLayer::Reuse);
                    return (SolverResult::Sat(m), false);
                }
            }
        }
        group_hit(GroupLayer::Solve);

        // Layers 5–6: solve for real.
        let (result, core) = self.solve_group(&group.constraints);

        // The exact cache stores only solver-computed answers (never
        // counterexample-derived ones), keeping its contents independent of
        // query order.
        if group_caching {
            match &result {
                SolverResult::Sat(m) => {
                    self.exact_store(group.key, &group.constraints, CacheEntry::Sat(m.clone()));
                }
                SolverResult::Unsat => {
                    self.exact_store(group.key, &group.constraints, CacheEntry::Unsat);
                }
                SolverResult::Unknown => {}
            }
        }
        if cex {
            match &result {
                SolverResult::Sat(m) => self.cex_store_model(&group.vars, m),
                SolverResult::Unsat => {
                    let indices: Vec<usize> =
                        core.unwrap_or_else(|| (0..group.constraints.len()).collect());
                    self.cex_store_core(group, &indices);
                }
                SolverResult::Unknown => {}
            }
        }
        (result, false)
    }

    fn exact_lookup(&self, key: u64, set: &[ExprRef]) -> Option<CacheEntry> {
        self.cache
            .borrow()
            .get(&key)?
            .iter()
            .find(|(stored, _)| stored.as_slice() == set)
            .map(|(_, entry)| entry.clone())
    }

    /// Only called after [`Solver::exact_lookup`] missed on the same set,
    /// so the bucket stays duplicate-free.
    fn exact_store(&self, key: u64, set: &[ExprRef], entry: CacheEntry) {
        self.cache
            .borrow_mut()
            .entry(key)
            .or_default()
            .push((set.to_vec(), entry));
    }

    // ----- counterexample cache -------------------------------------------

    /// Returns `true` when some cached UNSAT core is a subset of the
    /// group's constraints (then the group is UNSAT by monotonicity of
    /// conjunction).
    fn ucore_implies_unsat(&self, group: &Group) -> bool {
        let cex = self.cex.borrow();
        for s in cex_shards_of(&group.vars) {
            for core in cex[s].cores.iter().rev() {
                if core_is_subset(core, group) {
                    return true;
                }
            }
        }
        false
    }

    /// Tries to satisfy the group by re-evaluating cached models of
    /// variable-related groups (KLEE's counterexample-cache "superset
    /// model still works" trick). Returns the model restricted to the
    /// group's variables, so unrelated assignments cannot leak.
    fn reuse_model(&self, group: &Group) -> Option<Model> {
        let cex = self.cex.borrow();
        for s in cex_shards_of(&group.vars) {
            for (vars, model) in cex[s].models.iter().rev() {
                if !vars.intersects(&group.vars) {
                    continue;
                }
                let restricted = model.restrict(&group.vars);
                if group
                    .constraints
                    .iter()
                    .all(|c| c.eval(&restricted) == Some(1))
                {
                    return Some(restricted);
                }
            }
        }
        None
    }

    fn cex_store_model(&self, vars: &VarSet, model: &Model) {
        let mut cex = self.cex.borrow_mut();
        for s in cex_shards_of(vars) {
            let bucket = &mut cex[s];
            bucket.models.push_back((vars.clone(), model.clone()));
            while bucket.models.len() > CEX_CAP {
                bucket.models.pop_front();
            }
        }
    }

    fn cex_store_core(&self, group: &Group, indices: &[usize]) {
        // Group constraints are hash-sorted and `indices` ascend, so the
        // core inherits the sorted order required by `core_is_subset`.
        let entry = CoreEntry {
            hashes: indices.iter().map(|&i| group.hashes[i]).collect(),
            constraints: indices
                .iter()
                .map(|&i| group.constraints[i].clone())
                .collect(),
        };
        let vars = indices.iter().fold(VarSet::empty(), |acc, &i| {
            acc.union(group.constraints[i].vars())
        });
        let mut cex = self.cex.borrow_mut();
        for s in cex_shards_of(&vars) {
            let bucket = &mut cex[s];
            bucket.cores.push_back(entry.clone());
            while bucket.cores.len() > CEX_CAP {
                bucket.cores.pop_front();
            }
        }
    }

    // ----- ground solving -------------------------------------------------

    /// Interval refinement plus backtracking enumeration for one group.
    /// On UNSAT additionally returns the indices of an unsatisfiable core
    /// (when one smaller than the whole group could be derived from the
    /// refinement's provenance tracking).
    fn solve_group(&self, constraints: &[ExprRef]) -> (SolverResult, Option<Vec<usize>>) {
        // Variable inventory with widths, read off the memoized var-sets.
        let mut var_widths: BTreeMap<SymId, Width> = BTreeMap::new();
        for c in constraints {
            for (id, w) in c.vars().iter() {
                var_widths.insert(id, w);
            }
        }

        // Interval refinement from direct comparisons, with per-variable
        // provenance (a bitmask of contributing constraint indices) when
        // the group is small enough to index into a u64.
        let mut env: BTreeMap<SymId, Interval> = var_widths
            .iter()
            .map(|(id, w)| (*id, Interval::full(*w)))
            .collect();
        let mut deps: Option<BTreeMap<SymId, u64>> = if constraints.len() <= 64 {
            Some(BTreeMap::new())
        } else {
            None
        };
        for _ in 0..4 {
            let mut changed = false;
            for (i, c) in constraints.iter().enumerate() {
                changed |= refine(i, c, &mut env, &mut deps);
            }
            let emptied = env.iter().find(|(_, iv)| iv.is_empty()).map(|(id, _)| *id);
            if let Some(id) = emptied {
                let core = deps
                    .as_ref()
                    .and_then(|d| d.get(&id).copied())
                    .filter(|mask| *mask != 0)
                    .map(|mask| {
                        (0..constraints.len())
                            .filter(|i| mask & (1u64 << i) != 0)
                            .collect()
                    });
                return (SolverResult::Unsat, core);
            }
            if !changed {
                break;
            }
        }

        // Order variables by refined domain size (fail-first).
        let mut order: Vec<SymId> = var_widths.keys().copied().collect();
        order.sort_by_key(|id| env[id].size());

        let mut model = Model::new();
        let mut nodes = 0u64;
        let verdict = self.dfs(constraints, &order, 0, &env, &mut model, &mut nodes);
        self.bump(|s| s.nodes_visited += nodes);
        match verdict {
            Verdict::Sat => (SolverResult::Sat(model), None),
            // An exhaustive refutation uses every constraint; the whole
            // group is the (trivial) core.
            Verdict::Unsat => (SolverResult::Unsat, None),
            Verdict::Budget => (SolverResult::Unknown, None),
        }
    }

    fn dfs(
        &self,
        constraints: &[ExprRef],
        order: &[SymId],
        depth: usize,
        env: &BTreeMap<SymId, Interval>,
        model: &mut Model,
        nodes: &mut u64,
    ) -> Verdict {
        // Evaluate constraints under the partial assignment.
        let mut all_true = true;
        for c in constraints {
            match c.eval(model) {
                Some(1) => {}
                Some(_) => return Verdict::Unsat,
                None => {
                    all_true = false;
                }
            }
        }
        if all_true {
            return Verdict::Sat;
        }
        if depth == order.len() {
            // All variables assigned yet some constraint undecided: cannot
            // happen (full assignment decides every constraint).
            unreachable!("full assignment left a constraint undecided");
        }

        // Interval-level prune: with current singletons folded in, every
        // constraint must still be able to reach 1.
        let mut pruned_env = env.clone();
        for (id, v) in model.iter() {
            pruned_env.insert(id, Interval::singleton(v));
        }
        for c in constraints {
            if !Interval::of_expr(c, &pruned_env).contains(1) {
                return Verdict::Unsat;
            }
        }

        let var = order[depth];
        let dom = env[&var];
        let mut budget_hit = false;
        for value in candidate_values(dom) {
            *nodes += 1;
            if *nodes > self.budget.max_nodes {
                return Verdict::Budget;
            }
            model.assign(var, value);
            match self.dfs(constraints, order, depth + 1, env, model, nodes) {
                Verdict::Sat => return Verdict::Sat,
                Verdict::Unsat => {}
                Verdict::Budget => {
                    budget_hit = true;
                    break;
                }
            }
        }
        model.unassign(var);
        if budget_hit {
            Verdict::Budget
        } else {
            Verdict::Unsat
        }
    }
}

/// A serializable image of a [`Solver`]'s mutable state, produced by
/// [`Solver::export_state`] and consumed by [`Solver::import_state`].
///
/// Checkpoint/resume needs the caches bit-for-bit: the trace stream of a
/// resumed run attributes every query to the cache layer that answered
/// it, so a resumed solver must hit and miss exactly where an
/// uninterrupted one would. The snapshot therefore keeps bucket
/// insertion order and the counterexample bucket layout and FIFO order —
/// not just the logical cache contents.
#[derive(Debug, Clone)]
pub struct SolverSnapshot {
    stats: SolverStats,
    caching: bool,
    group_caching: bool,
    cex_caching: bool,
    /// The exact cache's buckets sorted by key, each entry
    /// `(normalized constraint set, Some(model) | None=UNSAT)`.
    exact: Vec<(u64, Vec<ExportedEntry>)>,
    /// Per counterexample bucket, FIFO front-to-back: cached models with
    /// the var-set of the group they solved.
    cex_models: Vec<Vec<(VarSet, Model)>>,
    /// Per counterexample bucket, FIFO front-to-back: UNSAT cores as
    /// `(hash list, constraint list)`, both hash-sorted and aligned.
    cex_cores: Vec<Vec<(Vec<u64>, Vec<ExprRef>)>>,
}

impl SolverSnapshot {
    /// The exported work counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Total entries in the exact cache.
    pub fn exact_entries(&self) -> usize {
        self.exact.iter().map(|(_, bucket)| bucket.len()).sum()
    }

    /// Total counterexample entries across all buckets as
    /// `(models, cores)` — bucket-level duplicates included, exactly as
    /// stored.
    pub fn cex_entries(&self) -> (usize, usize) {
        (
            self.cex_models.iter().map(Vec::len).sum(),
            self.cex_cores.iter().map(Vec::len).sum(),
        )
    }

    /// Serializes the snapshot into `w`.
    pub fn write_into(&self, w: &mut SnapWriter) {
        let s = &self.stats;
        for v in [
            s.queries,
            s.cache_hits,
            s.group_cache_hits,
            s.model_reuse_hits,
            s.ucore_hits,
            s.sat,
            s.unsat,
            s.unknown,
            s.nodes_visited,
        ] {
            w.varint(v);
        }
        w.bool(self.caching);
        w.bool(self.group_caching);
        w.bool(self.cex_caching);
        w.varint(self.exact.len() as u64);
        for (key, bucket) in &self.exact {
            w.varint(*key);
            w.varint(bucket.len() as u64);
            for (set, model) in bucket {
                w.varint(set.len() as u64);
                for c in set {
                    w.expr(c);
                }
                match model {
                    Some(m) => {
                        w.u8(1);
                        w.model(m);
                    }
                    None => w.u8(0),
                }
            }
        }
        w.varint(self.cex_models.len() as u64);
        for bucket in &self.cex_models {
            w.varint(bucket.len() as u64);
            for (vars, model) in bucket {
                w.varint(vars.len() as u64);
                for (id, width) in vars.iter() {
                    w.varint(u64::from(id.index()));
                    w.width(width);
                }
                w.model(model);
            }
        }
        w.varint(self.cex_cores.len() as u64);
        for bucket in &self.cex_cores {
            w.varint(bucket.len() as u64);
            for (hashes, constraints) in bucket {
                w.varint(hashes.len() as u64);
                for h in hashes {
                    w.varint(*h);
                }
                w.varint(constraints.len() as u64);
                for c in constraints {
                    w.expr(c);
                }
            }
        }
    }

    /// Deserializes a snapshot written by [`SolverSnapshot::write_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input (including
    /// a counterexample bucket count that does not match this build's
    /// layout, or an exact cache whose keys are not strictly ascending).
    pub fn read_from(r: &mut SnapReader<'_>) -> Result<SolverSnapshot, CodecError> {
        let mut counters = [0u64; 9];
        for c in &mut counters {
            *c = r.varint()?;
        }
        let stats = SolverStats {
            queries: counters[0],
            cache_hits: counters[1],
            group_cache_hits: counters[2],
            model_reuse_hits: counters[3],
            ucore_hits: counters[4],
            sat: counters[5],
            unsat: counters[6],
            unknown: counters[7],
            nodes_visited: counters[8],
        };
        let caching = r.bool()?;
        let group_caching = r.bool()?;
        let cex_caching = r.bool()?;
        let checked_len = |r: &mut SnapReader<'_>, what| {
            let n = r.varint()?;
            if n > r.remaining() as u64 {
                return Err(CodecError::Malformed(what));
            }
            Ok(n as usize)
        };
        let keys = checked_len(r, "exact cache key count")?;
        let mut exact: Vec<(u64, Vec<ExportedEntry>)> = Vec::with_capacity(keys);
        for _ in 0..keys {
            let key = r.varint()?;
            if exact.last().is_some_and(|(prev, _)| *prev >= key) {
                return Err(CodecError::Malformed("exact cache key order"));
            }
            let entries = checked_len(r, "exact cache bucket size")?;
            let mut bucket = Vec::with_capacity(entries);
            for _ in 0..entries {
                let n = checked_len(r, "exact cache set size")?;
                let mut set = Vec::with_capacity(n);
                for _ in 0..n {
                    set.push(r.expr()?);
                }
                let model = match r.u8()? {
                    0 => None,
                    1 => Some(r.model()?),
                    _ => return Err(CodecError::Malformed("cache entry tag")),
                };
                bucket.push((set, model));
            }
            exact.push((key, bucket));
        }
        let model_buckets = checked_len(r, "cex model bucket count")?;
        if model_buckets != CEX_BUCKETS {
            return Err(CodecError::Malformed("cex model bucket count"));
        }
        let mut cex_models = Vec::with_capacity(model_buckets);
        for _ in 0..model_buckets {
            let n = checked_len(r, "cex model count")?;
            let mut bucket = Vec::with_capacity(n);
            for _ in 0..n {
                let vars = checked_len(r, "cex var-set size")?;
                let mut entries = Vec::with_capacity(vars);
                for _ in 0..vars {
                    let id = u32::try_from(r.varint()?)
                        .map_err(|_| CodecError::Malformed("cex var id"))?;
                    let width = r.width()?;
                    entries.push((SymId(id), width));
                }
                if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(CodecError::Malformed("cex var-set order"));
                }
                bucket.push((VarSet::from_sorted_entries(entries), r.model()?));
            }
            cex_models.push(bucket);
        }
        let core_buckets = checked_len(r, "cex core bucket count")?;
        if core_buckets != CEX_BUCKETS {
            return Err(CodecError::Malformed("cex core bucket count"));
        }
        let mut cex_cores = Vec::with_capacity(core_buckets);
        for _ in 0..core_buckets {
            let n = checked_len(r, "cex core count")?;
            let mut bucket = Vec::with_capacity(n);
            for _ in 0..n {
                let hn = checked_len(r, "cex core hash count")?;
                let mut hashes = Vec::with_capacity(hn);
                for _ in 0..hn {
                    hashes.push(r.varint()?);
                }
                let cn = checked_len(r, "cex core constraint count")?;
                let mut constraints = Vec::with_capacity(cn);
                for _ in 0..cn {
                    constraints.push(r.expr()?);
                }
                bucket.push((hashes, constraints));
            }
            cex_cores.push(bucket);
        }
        Ok(SolverSnapshot {
            stats,
            caching,
            group_caching,
            cex_caching,
            exact,
            cex_models,
            cex_cores,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Sat,
    Unsat,
    Budget,
}

/// Likely-first enumeration of an interval: bounds and small values first,
/// then a full sweep.
fn candidate_values(dom: Interval) -> impl Iterator<Item = u64> {
    let (lo, hi) = (dom.lo(), dom.hi());
    let prefix: Vec<u64> = [lo, hi, 0, 1]
        .into_iter()
        .filter(|v| dom.contains(*v))
        .collect();
    let mut seen: Vec<u64> = prefix.clone();
    seen.sort_unstable();
    seen.dedup();
    let prefix_set = seen;
    let mut first = prefix.clone();
    first.dedup();
    first
        .into_iter()
        .chain((lo..=hi).filter(move |v| prefix_set.binary_search(v).is_err()))
}

/// Tightens a variable's interval from a top-level comparison of the shape
/// `var ⋈ e` or `e ⋈ var` (through zext casts). Returns `true` when a bound
/// changed. `idx` is the constraint's index within its group; a successful
/// tightening records it (plus the other side's transitive contributors)
/// in the provenance masks.
fn refine(
    idx: usize,
    c: &Expr,
    env: &mut BTreeMap<SymId, Interval>,
    deps: &mut Option<BTreeMap<SymId, u64>>,
) -> bool {
    let ExprKind::Binary { op, lhs, rhs } = c.kind() else {
        return false;
    };
    let mut changed = false;
    if let Some(id) = as_var(lhs) {
        let other = Interval::of_expr(rhs, env);
        if refine_var(id, *op, other, false, env) {
            record_dep(deps, id, idx, rhs);
            changed = true;
        }
    }
    if let Some(id) = as_var(rhs) {
        let other = Interval::of_expr(lhs, env);
        if refine_var(id, *op, other, true, env) {
            record_dep(deps, id, idx, lhs);
            changed = true;
        }
    }
    changed
}

/// Marks constraint `idx` (and everything that shaped the other side's
/// bounds) as a contributor to `id`'s interval. The mask over-approximates:
/// replaying refinement on just the masked constraints reproduces `id`'s
/// bounds, so an emptied interval yields a sound UNSAT core.
fn record_dep(deps: &mut Option<BTreeMap<SymId, u64>>, id: SymId, idx: usize, other: &Expr) {
    let Some(deps) = deps else { return };
    let mut mask = deps.get(&id).copied().unwrap_or(0) | (1u64 << idx);
    for v in other.vars().ids() {
        mask |= deps.get(&v).copied().unwrap_or(0);
    }
    deps.insert(id, mask);
}

/// Unwraps `Sym` and `Zext(Sym)` (zero extension preserves unsigned
/// ordering, so bounds transfer directly).
fn as_var(e: &Expr) -> Option<SymId> {
    match e.kind() {
        ExprKind::Sym(v) => Some(v.id()),
        ExprKind::Cast {
            op: CastOp::Zext,
            arg,
            ..
        } => match arg.kind() {
            ExprKind::Sym(v) => Some(v.id()),
            _ => None,
        },
        _ => None,
    }
}

/// Applies `var ⋈ other` (or `other ⋈ var` when `flipped`).
fn refine_var(
    id: SymId,
    op: BinOp,
    other: Interval,
    flipped: bool,
    env: &mut BTreeMap<SymId, Interval>,
) -> bool {
    if other.is_empty() {
        return false;
    }
    let current = match env.get(&id) {
        Some(i) => *i,
        None => return false,
    };
    let refined = match (op, flipped) {
        (BinOp::Eq, _) => current.intersect(&other),
        (BinOp::Ne, _) => {
            if other.is_singleton() {
                let v = other.lo();
                if current.is_singleton() && current.lo() == v {
                    Interval::empty()
                } else if current.lo() == v {
                    Interval::new(v + 1, current.hi())
                } else if current.hi() == v {
                    Interval::new(current.lo(), v - 1)
                } else {
                    current
                }
            } else {
                current
            }
        }
        // var < other  ⇒  var ≤ other.hi − 1
        (BinOp::Ult, false) => {
            if other.hi() == 0 {
                Interval::empty()
            } else {
                current.intersect(&Interval::new(0, other.hi() - 1))
            }
        }
        // other < var  ⇒  var ≥ other.lo + 1
        (BinOp::Ult, true) => {
            current.intersect(&Interval::new(other.lo().saturating_add(1), u64::MAX))
        }
        (BinOp::Ule, false) => current.intersect(&Interval::new(0, other.hi())),
        (BinOp::Ule, true) => current.intersect(&Interval::new(other.lo(), u64::MAX)),
        _ => current,
    };
    if refined != current {
        env.insert(id, refined);
        true
    } else {
        false
    }
}

/// Sorts `work` into the canonical (per-constraint-hash) order used for
/// all exact-cache comparisons and returns the aligned hash list plus the
/// whole-query key (hash of the sorted hashes).
/// Trace hook for the trivially-false shortcut paths of `check`/`model`:
/// they answer at the fold layer without entering `solve_query`, but must
/// still appear as queries so traces reconcile with `SolverStats`.
fn record_fold_unsat() {
    sde_trace::record(|| sde_trace::TraceEvent::Query {
        layer: sde_trace::QueryLayer::Fold,
        verdict: sde_trace::Verdict::Unsat,
        groups: 0,
        dur_us: 0,
    });
}

fn canonicalize(work: &mut Vec<ExprRef>) -> (Vec<u64>, u64) {
    let mut pairs: Vec<(u64, ExprRef)> = work
        .drain(..)
        .map(|c| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            (h.finish(), c)
        })
        .collect();
    pairs.sort_by_key(|(h, _)| *h);
    let mut h = DefaultHasher::new();
    let mut hashes = Vec::with_capacity(pairs.len());
    for (hh, c) in pairs {
        hh.hash(&mut h);
        hashes.push(hh);
        work.push(c);
    }
    (hashes, h.finish())
}

/// Groups the (canonically ordered) constraints into independent clusters
/// by shared variables: union–find over [`SymId`]s, read straight off the
/// memoized var-sets. Groups are ordered by first constituent constraint;
/// constraints within a group keep the canonical order, so each group's
/// key is itself order-normalized.
fn partition(work: &[ExprRef], hashes: &[u64]) -> Vec<Group> {
    fn find(parent: &mut HashMap<SymId, SymId>, mut x: SymId) -> SymId {
        loop {
            let p = *parent.get(&x).unwrap_or(&x);
            if p == x {
                return x;
            }
            // Path halving.
            let gp = *parent.get(&p).unwrap_or(&p);
            parent.insert(x, gp);
            x = gp;
        }
    }

    let mut parent: HashMap<SymId, SymId> = HashMap::new();
    for c in work {
        let mut ids = c.vars().ids();
        let first = ids.next().expect("concrete constraints were folded out");
        for v in ids {
            let (rf, rv) = (find(&mut parent, first), find(&mut parent, v));
            if rf != rv {
                parent.insert(rv, rf);
            }
        }
    }

    let mut root_index: HashMap<SymId, usize> = HashMap::new();
    let mut groups: Vec<Group> = Vec::new();
    for (i, c) in work.iter().enumerate() {
        let first = c
            .vars()
            .min_var()
            .expect("concrete constraints were folded out");
        let root = find(&mut parent, first);
        let gi = *root_index.entry(root).or_insert_with(|| {
            groups.push(Group {
                constraints: Vec::new(),
                hashes: Vec::new(),
                key: 0,
                vars: VarSet::empty(),
            });
            groups.len() - 1
        });
        let group = &mut groups[gi];
        group.constraints.push(c.clone());
        group.hashes.push(hashes[i]);
        let merged = group.vars.union(c.vars());
        group.vars = merged;
    }
    for group in &mut groups {
        let mut h = DefaultHasher::new();
        for hh in &group.hashes {
            hh.hash(&mut h);
        }
        group.key = h.finish();
    }
    groups
}

/// The bucket indices a var-set maps to in the counterexample cache
/// (deduplicated via a bitmask — `CEX_BUCKETS` is 16, so a `u16` covers
/// every bucket).
fn cex_shards_of(vars: &VarSet) -> impl Iterator<Item = usize> {
    let mask: u16 = vars
        .ids()
        .fold(0, |m, v| m | 1 << (v.index() as usize % CEX_BUCKETS));
    (0..CEX_BUCKETS).filter(move |s| mask & (1 << s) != 0)
}

/// Subset test over hash-sorted constraint lists: every core constraint
/// must occur in the group. Equal-hash runs are scanned for true equality,
/// so hash collisions cannot cause a false "subset".
fn core_is_subset(core: &CoreEntry, group: &Group) -> bool {
    if core.hashes.len() > group.hashes.len() {
        return false;
    }
    let mut j = 0;
    'outer: for (i, h) in core.hashes.iter().enumerate() {
        while j < group.hashes.len() && group.hashes[j] < *h {
            j += 1;
        }
        let mut k = j;
        while k < group.hashes.len() && group.hashes[k] == *h {
            if group.constraints[k] == core.constraints[i] {
                continue 'outer;
            }
            k += 1;
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn c8(v: u64) -> ExprRef {
        Expr::const_(v, Width::W8)
    }

    #[test]
    fn empty_pc_is_sat() {
        let s = Solver::new();
        assert!(s.is_sat(&PathCondition::new()));
    }

    #[test]
    fn simple_equalities() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::eq(x.clone(), c8(7)));
        let m = s.model(&pc).unwrap();
        assert_eq!(m.value_of(xv.id()), Some(7));
        assert!(s.check(&pc.with(Expr::eq(x, c8(9)))).is_unsat());
    }

    #[test]
    fn figure_one_paths() {
        // The paper's Fig. 1 program: x == 0 | 10 < x < 50 | x != 0 ∧ x <= 10 | 50 <= x.
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let eq0 = Expr::eq(x.clone(), c8(0));
        let lt50 = Expr::ult(x.clone(), c8(50));
        let gt10 = Expr::ugt(x.clone(), c8(10));

        let paths = [
            PathCondition::new().with(eq0.clone()),
            PathCondition::new()
                .with(Expr::not(eq0.clone()))
                .with(lt50.clone())
                .with(gt10.clone()),
            PathCondition::new()
                .with(Expr::not(eq0.clone()))
                .with(lt50.clone())
                .with(Expr::not(gt10.clone())),
            PathCondition::new()
                .with(Expr::not(eq0))
                .with(Expr::not(lt50)),
        ];
        let expectations: [&dyn Fn(u64) -> bool; 4] = [
            &|v| v == 0,
            &|v| v > 10 && v < 50,
            &|v| v != 0 && v <= 10,
            &|v| v >= 50,
        ];
        for (pc, ok) in paths.iter().zip(expectations) {
            let m = s
                .model(pc)
                .unwrap_or_else(|| panic!("path {pc} should be sat"));
            let v = m.value_of(xv.id()).expect("x constrained on every path");
            assert!(ok(v), "model {v} violates {pc}");
        }
    }

    #[test]
    fn unsat_via_intervals() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new()
            .with(Expr::ult(x.clone(), c8(10)))
            .with(Expr::ugt(x.clone(), c8(20)));
        assert!(s.check(&pc).is_unsat());
    }

    #[test]
    fn independent_groups_are_combined() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let s = Solver::new();
        let pc = PathCondition::new()
            .with(Expr::eq(Expr::sym(xv.clone()), c8(3)))
            .with(Expr::eq(Expr::sym(yv.clone()), c8(5)));
        let m = s.model(&pc).unwrap();
        assert_eq!(m.value_of(xv.id()), Some(3));
        assert_eq!(m.value_of(yv.id()), Some(5));
    }

    #[test]
    fn linked_constraints() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let (x, y) = (Expr::sym(xv.clone()), Expr::sym(yv.clone()));
        let s = Solver::new();
        // x + y == 10 ∧ x == 2·y → y=.., exhaustive over 8-bit.
        let pc = PathCondition::new()
            .with(Expr::eq(Expr::add(x.clone(), y.clone()), c8(10)))
            .with(Expr::eq(x, Expr::mul(y, c8(2))));
        let m = s.model(&pc).unwrap();
        let (xv_, yv_) = (m.value_of(xv.id()).unwrap(), m.value_of(yv.id()).unwrap());
        assert_eq!(Width::W8.truncate(xv_ + yv_), 10);
        assert_eq!(Width::W8.truncate(2 * yv_), xv_);
    }

    #[test]
    fn must_be_true_works() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::ult(x.clone(), c8(5)));
        assert!(s.must_be_true(&pc, &Expr::ult(x.clone(), c8(10))));
        assert!(!s.must_be_true(&pc, &Expr::ult(x.clone(), c8(3))));
        assert!(s.may_be_true(&pc, &Expr::ult(x.clone(), c8(3))));
        assert!(!s.may_be_true(&pc, &Expr::ugt(x, c8(5))));
    }

    #[test]
    fn wide_variables_with_sparse_constraints() {
        // 32-bit variable: enumeration is hopeless, but the likely-first
        // candidates decide x != 0 instantly.
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W32);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::ne(x.clone(), Expr::const_(0, Width::W32)));
        let m = s.model(&pc).unwrap();
        assert_ne!(m.value_of(xv.id()), Some(0));
        // And an upper-bounded one.
        let pc2 = PathCondition::new()
            .with(Expr::ult(x.clone(), Expr::const_(1000, Width::W32)))
            .with(Expr::ugt(x, Expr::const_(997, Width::W32)));
        let m2 = s.model(&pc2).unwrap();
        let v = m2.value_of(xv.id()).unwrap();
        assert!(v > 997 && v < 1000);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::eq(x, c8(1)));
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        let stats = s.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        s.clear_cache();
        assert!(s.is_sat(&pc));
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn group_cache_answers_shared_prefixes() {
        // Two queries share the {x == 1} group; only the disjoint part of
        // the second query needs solving.
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let y = Expr::sym(t.fresh("y", Width::W8));
        let z = Expr::sym(t.fresh("z", Width::W8));
        let s = Solver::new();
        let base = PathCondition::new().with(Expr::eq(x, c8(1)));
        assert!(s.is_sat(&base.with(Expr::eq(y.clone(), c8(2)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 0);

        // Shares group {x == 1}; group {z == 3} is new, so the query is
        // not a whole-query cache hit.
        assert!(s.is_sat(&base.with(Expr::eq(z, c8(3)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 1);

        // Both groups now cached → counts as a full cache hit.
        assert!(s.is_sat(&base.with(Expr::eq(y, c8(2)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.group_cache_hits, 3);
    }

    #[test]
    fn cached_model_answers_related_query() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        // Solving x > 3 ∧ x < 10 caches a model with 3 < x < 10 …
        let pc = PathCondition::new()
            .with(Expr::ugt(x.clone(), c8(3)))
            .with(Expr::ult(x.clone(), c8(10)));
        assert!(s.is_sat(&pc));
        assert_eq!(s.stats().model_reuse_hits, 0);
        // … which also satisfies the looser x < 10 (a different group, so
        // the exact cache misses but the counterexample cache answers).
        assert!(s.is_sat(&PathCondition::new().with(Expr::ult(x.clone(), c8(10)))));
        let stats = s.stats();
        assert_eq!(stats.model_reuse_hits, 1);
        assert_eq!(stats.group_cache_hits, 0);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn cached_core_answers_superset_query() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let (x, y) = (Expr::sym(xv), Expr::sym(yv));
        let s = Solver::new();
        // x < 10 ∧ x > 20 is UNSAT; the interval provenance yields its
        // two constraints as a core.
        let contradiction = PathCondition::new()
            .with(Expr::ult(x.clone(), c8(10)))
            .with(Expr::ugt(x.clone(), c8(20)));
        assert!(s.check(&contradiction).is_unsat());
        assert_eq!(s.stats().ucore_hits, 0);
        // Adding y == x links y into the same group, so the exact cache
        // misses — but the cached core is a subset, proving UNSAT.
        assert!(s.check(&contradiction.with(Expr::eq(y, x))).is_unsat());
        let stats = s.stats();
        assert_eq!(stats.ucore_hits, 1);
        assert_eq!(stats.group_cache_hits, 0);
    }

    #[test]
    fn witness_queries_bypass_model_reuse() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        // Warm the counterexample cache with a model of x > 3 ∧ x < 10.
        let pc = PathCondition::new()
            .with(Expr::ugt(x.clone(), c8(3)))
            .with(Expr::ult(x.clone(), c8(10)));
        assert!(s.is_sat(&pc));
        // A witness-grade query over the related x < 10 must solve fresh:
        // its model may become an externally visible test case and must
        // not depend on what happened to be cached.
        let result = s.check_constraints(&[Expr::ult(x.clone(), c8(10))]);
        assert!(result.is_sat());
        let stats = s.stats();
        assert_eq!(stats.model_reuse_hits, 0);
        // UNSAT-core probing is allowed for witness-grade queries: the
        // observable answer (no model) is identical either way.
        assert!(s
            .check(
                &PathCondition::new()
                    .with(Expr::ult(x.clone(), c8(3)))
                    .with(Expr::ugt(x.clone(), c8(20)))
            )
            .is_unsat());
        let unsat_again = s.check_constraints(&[
            Expr::ult(x.clone(), c8(3)),
            Expr::ugt(x.clone(), c8(20)),
            Expr::ne(x, c8(99)),
        ]);
        assert!(unsat_again.is_unsat());
        assert_eq!(s.stats().ucore_hits, 1);
    }

    #[test]
    fn ablation_toggles_disable_each_layer() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let pc = PathCondition::new()
            .with(Expr::ugt(x.clone(), c8(3)))
            .with(Expr::ult(x.clone(), c8(10)));
        let related = PathCondition::new().with(Expr::ult(x.clone(), c8(10)));

        // Whole-query granularity: repeats hit, but group stats stay zero.
        let s = Solver::new();
        s.set_group_caching(false);
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.group_cache_hits, 0);

        // Counterexample layer off: related queries solve fresh.
        let s = Solver::new();
        s.set_cex_caching(false);
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&related));
        let stats = s.stats();
        assert_eq!(stats.model_reuse_hits, 0);
        assert_eq!(stats.ucore_hits, 0);

        // Everything off: no layer answers anything.
        let s = Solver::new();
        s.set_caching(false);
        s.set_cex_caching(false);
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&related));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 0);
        assert_eq!(stats.model_reuse_hits, 0);
        assert_eq!(stats.ucore_hits, 0);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.sat, 3);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut t = SymbolTable::new();
        // Force a large search: 4 unconstrained-ish 16-bit vars with a
        // constraint only a deep sweep can decide unsat.
        let vars: Vec<_> = (0..3)
            .map(|i| t.fresh(&format!("v{i}"), Width::W16))
            .collect();
        let sum = vars
            .iter()
            .map(|v| Expr::sym(v.clone()))
            .reduce(Expr::add)
            .unwrap();
        // sum*0 + 1 == 0 is unsat but the rewrite folds it; instead use
        // xor-chain != itself ^ 1 pattern that resists the simplifier:
        let lhs = Expr::xor(sum.clone(), Expr::const_(1, Width::W16));
        let pc = PathCondition::new().with(Expr::eq(lhs, sum));
        let s = Solver::with_budget(SolverBudget { max_nodes: 50 });
        assert_eq!(s.check(&pc), SolverResult::Unknown);
        assert_eq!(s.stats().unknown, 1);
    }

    #[test]
    fn boolean_drop_variables() {
        // The SDE workload shape: many independent width-1 drop decisions.
        let mut t = SymbolTable::new();
        let drops: Vec<_> = (0..20)
            .map(|i| t.fresh(&format!("drop{i}"), Width::BOOL))
            .collect();
        let s = Solver::new();
        let mut pc = PathCondition::new();
        for (i, d) in drops.iter().enumerate() {
            let lit = Expr::sym(d.clone());
            pc = pc.with(if i % 2 == 0 { lit } else { Expr::not(lit) });
        }
        let m = s.model(&pc).unwrap();
        for (i, d) in drops.iter().enumerate() {
            assert_eq!(m.value_of(d.id()), Some(u64::from(i % 2 == 0)));
        }
    }
}
