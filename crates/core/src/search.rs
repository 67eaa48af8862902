//! The Karp–Miller search over partial symbolic instances (Algorithm 1)
//! with ω-acceleration (Section 3.3), monotone pruning (Section 3.4, after
//! Reynier–Servais) and the ≼-based aggressive pruning (Section 3.5),
//! optionally filtered through the inverted-list index (Section 3.6).
//!
//! The search explores the product of the symbolic transition system with
//! the violation automaton.  It stops immediately when a *finite* violating
//! local run is found (the task closes in a padding-accepting automaton
//! state); otherwise it computes a coverability-style set of active states
//! which the repeated-reachability analysis ([`crate::repeated`]) then uses
//! to look for *infinite* violations.
//!
//! # State storage
//!
//! The tree lives in an arena-backed structure-of-arrays layout
//! ([`crate::arena::StateArena`]): nodes are dense `u32`-indexed rows over
//! deduplicating type and counter arenas, compared through borrowed
//! [`StateView`]s.  Coverage and prune candidates come from one
//! [`CoverageIndex`] over the tree's arena ids, whose [`CandidateSource`]
//! is chosen once, at construction: signature posting lists (the DSS
//! optimisation), the state's discrete group, or the pre-overhaul full
//! linear scan (the differential oracle and the denominator of the
//! `state_layout` benchmark).  Every source yields a sound superset of the
//! exact coverers in ascending id order, so the search finds the same
//! first covering state and the same prune set under each: the tree, the
//! statistics and the verdict are bit-identical, only the work differs.
//!
//! # Parallel execution
//!
//! With [`KarpMillerSearch::threads`] > 1 the search runs as a sequence of
//! *rounds* over the frontier:
//!
//! 1. **Plan phase (parallel).**  A pool of workers claims chunks of the
//!    frontier from a shared cursor (work-stealing style) and, against a
//!    frozen snapshot of the tree, computes for every frontier node its
//!    product successors, speculative ω-accelerations against the node's
//!    active ancestors, a speculative covered-by-active test and the list
//!    of active states the successor would prune.  Workers intern unknown
//!    stored types into per-worker [`WorkerInterner`] caches under
//!    provisional ids.
//! 2. **Apply phase (sequential, deterministic).**  The coordinating
//!    thread replays the plans in frontier order: it publishes each node's
//!    new stored types to the shared interner (in first-intern order, so
//!    the final numbering matches a sequential run exactly), publishes the
//!    surviving successor states into the shared arena, validates the
//!    speculations against what earlier applications of this round changed
//!    (an ancestor deactivated → the acceleration is recomputed; a
//!    covering state deactivated → the coverage test is recomputed; states
//!    added this round are always re-checked), and mutates the tree.
//!
//! Because every speculation is either proven still-valid or recomputed
//! from the live tree, a parallel run produces *bit-identical* results to
//! a sequential one: the same tree, the same statistics, the same verdict
//! and the same witness.  Only wall-clock timing and the per-worker
//! [`WorkerStats`] depend on scheduling.
//!
//! Since a round is bit-identical for *every* worker count, the pool may
//! also be resized **between** rounds without changing the result: when a
//! [`crate::schedule::ThreadBudget`] is installed on the run's
//! [`SearchControl`], the search re-polls it at each round boundary, which
//! is how the batch [`crate::schedule::Scheduler`] hands cores freed by
//! finished properties to still-running searches mid-flight.

use crate::arena::StateArena;
use crate::coverage::{accelerate, covers, CoverageKind};
use crate::index::{CandidateSource, CoverageIndex};
use crate::observer::{ProgressEvent, SearchControl};
use crate::pit::Pit;
use crate::product::{ProductState, ProductSystem, StateView};
use crate::psi::{
    is_provisional, provisional_parts, CounterVec, StoredTypeId, StoredTypeInterner, TypeTable,
    WorkerInterner,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use verifas_model::{ArtRelId, ServiceRef};

/// Resource limits of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of tree nodes created before giving up.
    pub max_states: usize,
    /// Wall-clock budget in milliseconds.
    pub max_millis: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_states: 100_000,
            max_millis: 60_000,
        }
    }
}

/// Statistics of one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes created in the Karp–Miller tree.
    pub states_created: usize,
    /// Nodes still active (the coverability set candidates) at the end.
    pub states_active: usize,
    /// New states discarded because an active state already covered them.
    pub states_skipped: usize,
    /// Active states deactivated by the monotone pruning.
    pub states_pruned: usize,
    /// Number of ω-accelerations applied.
    pub accelerations: usize,
    /// Stored tuple types interned.
    pub stored_types: usize,
    /// Elapsed wall-clock time in milliseconds.
    pub elapsed_ms: u64,
    /// Number of search workers this run was configured with (1 for a
    /// sequential run).
    pub threads: usize,
    /// `true` when a resource limit stopped the search.
    pub limit_reached: bool,
    /// `true` when the search was stopped by a cancellation token or a
    /// deadline (a subset of `limit_reached`).
    pub cancelled: bool,
}

/// Per-worker statistics of one parallel search run (scheduling-dependent
/// observability data; the search result itself is deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Frontier nodes this worker planned.
    pub nodes_planned: usize,
    /// Successor states this worker computed.
    pub successors_planned: usize,
    /// Time this worker spent planning, in microseconds.
    pub busy_micros: u64,
}

impl WorkerStats {
    /// Merge another worker's counters into this one (used when folding
    /// per-round pools — and the two search phases — into one per-worker
    /// summary).
    pub(crate) fn absorb(&mut self, other: &WorkerStats) {
        self.nodes_planned += other.nodes_planned;
        self.successors_planned += other.successors_planned;
        self.busy_micros += other.busy_micros;
    }
}

/// Grow a per-worker statistics vector (indexed by worker) to cover
/// `workers` entries — a dynamic [`crate::schedule::ThreadBudget`] can
/// raise the worker count mid-run, and the stats must keep one slot per
/// worker index ever used.
pub(crate) fn ensure_worker_slots(stats: &mut Vec<WorkerStats>, workers: usize) {
    for worker in stats.len()..workers {
        stats.push(WorkerStats {
            worker,
            ..WorkerStats::default()
        });
    }
}

/// Fold one pool's per-worker statistics into another, matching entries by
/// worker index (used to combine the reachability search, the auxiliary
/// repeated-reachability search and its edge-construction pool into one
/// per-worker summary).
pub fn merge_worker_stats(into: &mut Vec<WorkerStats>, from: &[WorkerStats]) {
    for stats in from {
        match into.iter_mut().find(|w| w.worker == stats.worker) {
            Some(w) => w.absorb(stats),
            None => into.push(*stats),
        }
    }
}

/// Outcome of the search phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A finite violating local run was found; the payload is the index of
    /// the violating tree node.
    FiniteViolation(usize),
    /// The reachable symbolic state space was exhausted.
    Exhausted,
    /// A resource limit was hit before exhaustion.
    LimitReached,
}

/// One speculatively planned successor of a frontier node.
struct SuccessorPlan {
    /// The observable service that produced it.
    service: ServiceRef,
    /// `true` iff the transition closes the task in a padding-accepting
    /// automaton state (a finite violation).
    finite_violation: bool,
    /// The successor state with the speculative acceleration applied
    /// (counters may hold provisional type ids).
    state: ProductState,
    /// The successor's counters *before* acceleration, kept so the
    /// acceleration can be replayed against the live tree when the
    /// speculation is invalidated.
    raw_counters: CounterVec,
    /// ω-applications in the speculative acceleration.
    accelerations: usize,
    /// First snapshot-active node covering the successor, if any.
    covered_by: Option<u32>,
    /// Snapshot-active nodes the successor covers (prune candidates).
    prunes: Vec<u32>,
}

/// The plan of one frontier node: the stored types it introduces (in
/// first-intern order) and its successor plans.
struct NodePlan {
    new_types: Vec<StoredTypeId>,
    succs: Vec<SuccessorPlan>,
}

/// One entry of the compact successor log: the raw (pre-acceleration)
/// product successor of `parent` under `service`, with its type and
/// counters interned into the search arena — ~40 bytes per entry instead
/// of an owned [`ProductState`].
pub(crate) struct LoggedSuccessor {
    /// The expanded tree node.
    pub(crate) parent: u32,
    /// The observable service of the transition.
    pub(crate) service: ServiceRef,
    pit: u32,
    counters: u32,
    child_active: u64,
    buchi: u32,
    closed: bool,
}

/// The Karp–Miller search engine.
pub struct KarpMillerSearch<'a> {
    product: &'a ProductSystem,
    /// The coverage order used for pruning.
    pub coverage: CoverageKind,
    /// Resource limits.
    pub limits: SearchLimits,
    /// Number of worker threads expanding the frontier (0 = one per
    /// available core, 1 = sequential).
    pub threads: usize,
    /// The tree, in arena-backed structure-of-arrays storage.
    pub arena: StateArena,
    /// Stored-tuple type interner shared by the whole search.
    pub interner: StoredTypeInterner,
    /// Statistics.
    pub stats: SearchStats,
    /// Per-worker statistics of the last run (empty before `run`).
    pub worker_stats: Vec<WorkerStats>,
    /// When set, the apply phase logs every product successor it replays —
    /// the parent node, the observable service and the successor state
    /// *before* ω-acceleration — so the repeated-reachability post-pass
    /// can build its abstract transition graph without re-enumerating
    /// successors (enumeration is the dominant cost of that pass).
    pub(crate) record_successors: bool,
    /// The log filled when [`KarpMillerSearch::record_successors`] is set,
    /// in deterministic apply order (grouped by parent, parents ascending).
    pub(crate) successor_log: Vec<LoggedSuccessor>,
    /// Compact the successor log (dropping entries of pruned parents) once
    /// it reaches this size; doubles after every compaction.
    log_compact_at: usize,
    /// Set when a plan-phase worker thread panicked.  The round's plans
    /// are then discarded unapplied (the tree stays consistent — the
    /// apply phase never saw them), the search stops at that boundary
    /// like a resource limit, and the owning engine request surfaces the
    /// message as a typed [`crate::error::VerifasError::Internal`]
    /// instead of aborting the process.  Sticky for the run.
    pub failure: Option<String>,
    /// Coverage and prune candidates among the active nodes.
    index: CoverageIndex,
}

impl<'a> KarpMillerSearch<'a> {
    /// Create a (sequential) search over a product system that finds
    /// coverage candidates through `source`; set
    /// [`KarpMillerSearch::threads`] to parallelise it.
    pub fn new(
        product: &'a ProductSystem,
        coverage: CoverageKind,
        source: CandidateSource,
        limits: SearchLimits,
    ) -> Self {
        KarpMillerSearch {
            product,
            coverage,
            limits,
            threads: 1,
            arena: StateArena::new(),
            interner: StoredTypeInterner::new(),
            stats: SearchStats::default(),
            worker_stats: Vec::new(),
            record_successors: false,
            successor_log: Vec::new(),
            log_compact_at: 1024,
            failure: None,
            index: CoverageIndex::new(source),
        }
    }

    /// How this search finds coverage candidates.
    pub fn candidate_source(&self) -> CandidateSource {
        self.index.source()
    }

    /// Deterministic estimate of this search's resident bytes, re-based on
    /// the actual occupancy of the state arenas (rows, distinct types and
    /// their edges, counter slab entries) plus fixed per-element costs for
    /// the interner and the compact successor log — never an allocator
    /// probe, so a memory-budgeted run takes the same rounds on every
    /// host.
    pub fn estimated_bytes(&self) -> usize {
        const TYPE_BYTES: usize = 192;
        const LOG_BYTES: usize = 40;
        self.arena.estimated_bytes()
            + self.interner.len() * TYPE_BYTES
            + self.successor_log.len() * LOG_BYTES
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` before any node has been created.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Is the node active (not pruned)?
    pub fn is_active(&self, node: usize) -> bool {
        self.arena.is_active(node as u32)
    }

    /// Has the apply phase replayed this node's successors?  (An exhausted
    /// search expands every node; only a limit-stopped one leaves active
    /// frontier nodes unexpanded.)
    pub fn is_expanded(&self, node: usize) -> bool {
        self.arena.is_expanded(node as u32)
    }

    /// The node's parent, if any.
    pub fn parent_of(&self, node: usize) -> Option<usize> {
        self.arena.parent(node as u32).map(|p| p as usize)
    }

    /// The observable service that produced the node.
    pub fn service_of(&self, node: usize) -> ServiceRef {
        self.arena.service(node as u32)
    }

    /// A borrowed view of the node's state.
    pub fn state_view(&self, node: usize) -> StateView<'_> {
        self.arena.view(node as u32)
    }

    /// Materialise an owned copy of the node's state.
    pub fn materialize_state(&self, node: usize) -> ProductState {
        self.arena.materialize(node as u32)
    }

    /// A borrowed view of a compact successor-log entry.
    pub(crate) fn logged_view(&self, entry: &LoggedSuccessor) -> StateView<'_> {
        self.arena.raw_view(
            entry.pit,
            entry.counters,
            entry.child_active,
            entry.buchi,
            entry.closed,
        )
    }

    /// The worker count after resolving the automatic setting.
    fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Run the search to completion (or until a limit / finite violation),
    /// without observation or cancellation.
    pub fn run(&mut self) -> SearchOutcome {
        self.run_with(&mut SearchControl::default())
    }

    /// Run the search under a [`SearchControl`]: progress events are
    /// emitted to its observer every [`SearchControl::progress_every`]
    /// state expansions, and the search stops (reporting
    /// [`SearchOutcome::LimitReached`] with
    /// [`SearchStats::cancelled`] set) when its token is cancelled or its
    /// deadline passes.  Cancellation is polled by every worker thread, so
    /// a parallel run stops at the next state expansion of each worker.
    pub fn run_with(&mut self, control: &mut SearchControl<'_>) -> SearchOutcome {
        let start = Instant::now();
        let phase = control.current_phase();
        let granularity = control.granularity();
        let configured = self.effective_threads();
        let mut workers = control.workers_for_round(configured);
        // `threads` reports the widest pool this run ever used (equal to
        // the configured count when no dynamic budget is installed).
        self.stats.threads = workers;
        self.worker_stats = Vec::new();
        ensure_worker_slots(&mut self.worker_stats, workers);
        let mut expanded_since_event = 0usize;
        control.emit(ProgressEvent::PhaseStarted { phase });
        let mut frontier: Vec<u32> = Vec::new();
        for state in self.product.initial_states() {
            let id = self.add_node(&state, None, self.product.task.opening_service());
            frontier.push(id);
        }
        let outcome = 'search: loop {
            if frontier.is_empty() {
                break SearchOutcome::Exhausted;
            }
            // Round boundary: report the live frontier width (the
            // scheduler weights straggler budgets by it) and re-poll the
            // dynamic thread budget, if one is installed.  A round is
            // bit-identical for every worker count, so resizing the pool
            // here cannot change the tree, the statistics, the verdict or
            // the witness.
            control.report_frontier(frontier.len());
            workers = control.workers_for_round(configured);
            self.stats.threads = self.stats.threads.max(workers);
            ensure_worker_slots(&mut self.worker_stats, workers);
            // Memory boundary: re-account the arenas against the installed
            // byte budget.  A refused grow stops the run here — like a
            // state limit, never an OOM abort; the lease's sticky flag
            // tells the owner why.
            if !control.charge_memory(self.estimated_bytes()) {
                self.stats.limit_reached = true;
                break 'search SearchOutcome::LimitReached;
            }
            // Plan phase: speculate on every frontier node in parallel
            // against the frozen tree.  Workers honour the run's own
            // wall-clock budget, so a large frontier cannot overshoot
            // `limits.max_millis` by a whole round of planning.
            let time_budget = start + Duration::from_millis(self.limits.max_millis);
            let (mut plans, scratch) = self.plan_round(&frontier, workers, time_budget, control);
            // A panicked plan worker leaves its chunk's plans incomplete;
            // applying the rest would diverge from a sequential run.  Drop
            // the whole round and stop at this boundary — the tree holds
            // only fully applied rounds, and the failure message reaches
            // the caller through `self.failure`.
            if self.failure.is_some() {
                self.stats.limit_reached = true;
                break 'search SearchOutcome::LimitReached;
            }
            // Apply phase: replay the plans in deterministic order.
            let round_base = self.arena.len() as u32;
            let mut remap: HashMap<StoredTypeId, StoredTypeId> = HashMap::new();
            let mut deactivated_this_round: HashSet<u32> = HashSet::new();
            let mut next: Vec<u32> = Vec::new();
            for (pos, &id) in frontier.iter().enumerate() {
                if !self.arena.is_active(id) {
                    continue;
                }
                if control.should_stop() {
                    self.stats.limit_reached = true;
                    self.stats.cancelled = true;
                    break 'search SearchOutcome::LimitReached;
                }
                if self.arena.len() >= self.limits.max_states
                    || start.elapsed().as_millis() as u64 >= self.limits.max_millis
                {
                    self.stats.limit_reached = true;
                    break 'search SearchOutcome::LimitReached;
                }
                expanded_since_event += 1;
                if expanded_since_event >= granularity {
                    expanded_since_event = 0;
                    control.emit(ProgressEvent::Progress {
                        phase,
                        states_created: self.stats.states_created,
                        frontier: frontier.len() - pos - 1 + next.len(),
                        accelerations: self.stats.accelerations,
                    });
                }
                let plan = plans[pos].take().expect(
                    "a plan can only be missing after cancellation or the time budget, \
                     which the checks above turn into LimitReached",
                );
                if let Some(violation) = self.apply_plan(
                    id,
                    plan,
                    &scratch,
                    &mut remap,
                    round_base,
                    &mut deactivated_this_round,
                    &mut next,
                ) {
                    break 'search SearchOutcome::FiniteViolation(violation as usize);
                }
            }
            frontier = next;
            // The successor log only serves finally-active parents; drop
            // entries of pruned nodes once the log doubles past the last
            // compaction (amortized O(total log) over the whole search).
            if self.record_successors && self.successor_log.len() >= self.log_compact_at {
                let arena = &self.arena;
                self.successor_log.retain(|e| arena.is_active(e.parent));
                self.log_compact_at = (self.successor_log.len() * 2).max(1024);
            }
        };
        self.stats.states_active = self.arena.active_count();
        self.stats.stored_types = self.interner.len();
        self.stats.elapsed_ms = start.elapsed().as_millis() as u64;
        control.emit(ProgressEvent::PhaseFinished {
            phase,
            stats: self.stats,
        });
        outcome
    }

    /// Speculatively plan every frontier node.  Returns one optional plan
    /// per frontier position plus the per-worker scratch type tables
    /// needed to resolve provisional ids.
    ///
    /// A plan may be missing only for a node that was already inactive,
    /// after cancellation / the `time_budget` deadline, or after a worker
    /// panic (recorded in [`KarpMillerSearch::failure`]) — conditions
    /// that are sticky, so the apply loop's own checks always break
    /// before reaching an unplanned position.
    #[allow(clippy::type_complexity)]
    fn plan_round(
        &mut self,
        frontier: &[u32],
        workers: usize,
        time_budget: Instant,
        control: &SearchControl<'_>,
    ) -> (Vec<Option<NodePlan>>, Vec<Vec<(ArtRelId, Pit)>>) {
        let out_of_time = move || control.should_stop() || Instant::now() >= time_budget;
        // Small rounds are planned inline: a thread pool would cost more
        // than it saves and the plan/apply split alone preserves
        // determinism.
        if workers <= 1 || frontier.len() < 2 * workers {
            let mut interner = WorkerInterner::new(&self.interner, 0);
            let mut stats = WorkerStats::default();
            let t0 = Instant::now();
            let mut plans = Vec::with_capacity(frontier.len());
            for &id in frontier {
                if !self.arena.is_active(id) || out_of_time() {
                    plans.push(None);
                    continue;
                }
                plans.push(Some(self.plan_node(id, &mut interner, &mut stats)));
            }
            stats.busy_micros = t0.elapsed().as_micros() as u64;
            self.worker_stats[0].absorb(&stats);
            return (plans, vec![interner.into_types()]);
        }
        let slots: Vec<Mutex<Option<NodePlan>>> =
            frontier.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let chunk = (frontier.len() / (workers * 4)).max(1);
        let mut scratch: Vec<Vec<(ArtRelId, Pit)>> = vec![Vec::new(); workers];
        let mut round_stats: Vec<WorkerStats> = vec![WorkerStats::default(); workers];
        let mut failure: Option<String> = None;
        let this = &*self;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let slots = &slots;
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut interner = WorkerInterner::new(&this.interner, worker);
                        let mut stats = WorkerStats::default();
                        let t0 = Instant::now();
                        'steal: loop {
                            let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if begin >= frontier.len() {
                                break;
                            }
                            let end = (begin + chunk).min(frontier.len());
                            for pos in begin..end {
                                if out_of_time() {
                                    break 'steal;
                                }
                                let id = frontier[pos];
                                if !this.arena.is_active(id) {
                                    continue;
                                }
                                let plan = this.plan_node(id, &mut interner, &mut stats);
                                // Recover a poisoned slot instead of
                                // propagating the panic: slots only ever
                                // hold fully constructed plans, so the
                                // contents stay consistent even when a
                                // sibling worker panicked mid-round.
                                *slots[pos]
                                    .lock()
                                    .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(plan);
                            }
                        }
                        stats.busy_micros = t0.elapsed().as_micros() as u64;
                        (interner.into_types(), stats)
                    })
                })
                .collect();
            for (worker, handle) in handles.into_iter().enumerate() {
                // A panicked worker must degrade to a typed error, not
                // abort the process: record the first panic message (the
                // run stops at this round boundary) and keep joining the
                // rest of the pool so no thread leaks.
                match handle.join() {
                    Ok((types, stats)) => {
                        scratch[worker] = types;
                        round_stats[worker] = stats;
                    }
                    Err(panic) => {
                        let _ = failure.get_or_insert_with(|| {
                            format!(
                                "search worker panicked: {}",
                                crate::error::panic_message(panic.as_ref())
                            )
                        });
                    }
                }
            }
        });
        if let Some(reason) = failure {
            self.failure.get_or_insert(reason);
        }
        for (worker, stats) in round_stats.iter().enumerate() {
            self.worker_stats[worker].absorb(stats);
        }
        (
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                })
                .collect(),
            scratch,
        )
    }

    /// Plan one frontier node against the frozen tree snapshot.
    fn plan_node(
        &self,
        id: u32,
        interner: &mut WorkerInterner<'_>,
        stats: &mut WorkerStats,
    ) -> NodePlan {
        interner.begin_node();
        let current = self.arena.materialize(id);
        let successors = self.product.successors(&current, interner);
        stats.nodes_planned += 1;
        stats.successors_planned += successors.len();
        let mut succs = Vec::with_capacity(successors.len());
        for succ in successors {
            let mut state = succ.state;
            let raw_counters = state.psi.counters.clone();
            // Speculative ω-acceleration against the snapshot-active
            // ancestors (walking up from the expanded node, like the
            // sequential search).
            let mut accelerations = 0usize;
            let mut ancestor = Some(id);
            while let Some(a) = ancestor {
                if self.arena.is_active(a) {
                    if let Some(counters) =
                        accelerate(self.coverage, self.arena.view(a), state.view(), &*interner)
                    {
                        state.psi.counters = counters;
                        accelerations += 1;
                    }
                }
                ancestor = self.arena.parent(a);
            }
            let finite_violation = succ.finite_violation;
            let (covered_by, prunes) = if finite_violation {
                (None, Vec::new())
            } else {
                (
                    self.covering_node(state.view(), &*interner, 0),
                    self.covered_nodes(state.view(), &*interner, 0, &HashSet::new()),
                )
            };
            succs.push(SuccessorPlan {
                service: succ.service,
                finite_violation,
                state,
                raw_counters,
                accelerations,
                covered_by,
                prunes,
            });
            // The apply phase stops at a finite violation, so nothing
            // after it can be needed.
            if finite_violation {
                break;
            }
        }
        NodePlan {
            new_types: interner.take_node_new(),
            succs,
        }
    }

    /// First active node with id ≥ `from` that covers `state`.  During
    /// the plan phase "active" means active in the frozen snapshot.
    fn covering_node(&self, state: StateView<'_>, table: &dyn TypeTable, from: u32) -> Option<u32> {
        // A full scan also yields pruned nodes; the other sources only
        // live ones, for which the activity test is a cheap no-op.
        self.index
            .covering(state, from, usize::MAX)
            .iter()
            .copied()
            .find(|&j| {
                self.arena.is_active(j) && covers(self.coverage, state, self.arena.view(j), table)
            })
    }

    /// Active nodes with id ≥ `from`, outside `protected`, that `state`
    /// covers, ascending.
    fn covered_nodes(
        &self,
        state: StateView<'_>,
        table: &dyn TypeTable,
        from: u32,
        protected: &HashSet<u32>,
    ) -> Vec<u32> {
        self.index
            .covered_by(state, from)
            .iter()
            .copied()
            .filter(|&j| {
                self.arena.is_active(j)
                    && !protected.contains(&j)
                    && covers(self.coverage, self.arena.view(j), state, table)
            })
            .collect()
    }

    /// Replay one node's plan against the live tree.  Returns the id of a
    /// finite-violation node when one is reached.
    #[allow(clippy::too_many_arguments)]
    fn apply_plan(
        &mut self,
        id: u32,
        plan: NodePlan,
        scratch: &[Vec<(ArtRelId, Pit)>],
        remap: &mut HashMap<StoredTypeId, StoredTypeId>,
        round_base: u32,
        deactivated_this_round: &mut HashSet<u32>,
        next: &mut Vec<u32>,
    ) -> Option<u32> {
        self.arena.mark_expanded(id);
        // Publish the node's new stored types in first-intern order; this
        // is what makes the final type numbering (and hence successor
        // enumeration in later rounds) independent of worker scheduling.
        for &pid in &plan.new_types {
            let (worker, local) = provisional_parts(pid);
            let (rel, pit) = &scratch[worker][local];
            let gid = self.interner.intern(*rel, pit.clone());
            remap.insert(pid, gid);
        }
        let publish = |counters: &CounterVec| {
            counters.map_ids(|t| if is_provisional(t) { remap[&t] } else { t })
        };
        // Did anything this round touch the ancestors the speculation was
        // computed against?
        let mut ancestors: HashSet<u32> = HashSet::new();
        let mut a = Some(id);
        while let Some(x) = a {
            ancestors.insert(x);
            a = self.arena.parent(x);
        }
        let speculation_valid = deactivated_this_round.is_disjoint(&ancestors);
        for succ in plan.succs {
            let mut state = succ.state;
            if self.record_successors {
                // Log the *raw* successor (pre-acceleration counters): the
                // repeated-reachability edge tests run on the successors
                // the product defines, exactly as a re-enumeration would
                // produce them.  The entry is published compactly — type
                // and counters interned into the shared arena.
                let raw = publish(&succ.raw_counters);
                let entry = LoggedSuccessor {
                    parent: id,
                    service: succ.service,
                    pit: self.arena.intern_pit(&state.psi.pit),
                    counters: self.arena.intern_counters(raw.as_slice()),
                    child_active: state.psi.child_active,
                    buchi: state.buchi as u32,
                    closed: state.closed,
                };
                self.successor_log.push(entry);
            }
            let accelerations;
            if speculation_valid {
                state.psi.counters = publish(&state.psi.counters);
                accelerations = succ.accelerations;
            } else {
                // An ancestor was deactivated after the plan was made:
                // replay the acceleration against the live tree.
                state.psi.counters = publish(&succ.raw_counters);
                let mut count = 0usize;
                let mut ancestor = Some(id);
                while let Some(a) = ancestor {
                    if self.arena.is_active(a) {
                        if let Some(counters) = accelerate(
                            self.coverage,
                            self.arena.view(a),
                            state.view(),
                            &self.interner,
                        ) {
                            state.psi.counters = counters;
                            count += 1;
                        }
                    }
                    ancestor = self.arena.parent(a);
                }
                accelerations = count;
            }
            self.stats.accelerations += accelerations;
            if succ.finite_violation {
                let vid = self.add_node(&state, Some(id), succ.service);
                return Some(vid);
            }
            // Skip if an active state already covers the new one.  The
            // speculative answer is reused when it still holds; states
            // added earlier in this round are always re-checked live.
            let view = state.view();
            let table = &self.interner;
            let covered = match succ.covered_by {
                Some(j) if speculation_valid && !deactivated_this_round.contains(&j) => true,
                None if speculation_valid => self.covering_node(view, table, round_base).is_some(),
                _ => self.covering_node(view, table, 0).is_some(),
            };
            if covered {
                self.stats.states_skipped += 1;
                continue;
            }
            // Monotone pruning: deactivate active states (and their
            // descendants) covered by the new one, except ancestors of
            // the node being extended (conservative variant of the
            // Reynier–Servais rule).
            let to_prune: Vec<u32> = if speculation_valid {
                // States added this round were invisible to the plan.
                succ.prunes
                    .iter()
                    .copied()
                    .filter(|j| self.arena.is_active(*j) && !ancestors.contains(j))
                    .chain(self.covered_nodes(view, table, round_base, &ancestors))
                    .collect()
            } else {
                self.covered_nodes(view, table, 0, &ancestors)
            };
            for j in to_prune {
                self.deactivate_subtree(j, &ancestors, deactivated_this_round);
            }
            let new_id = self.add_node(&state, Some(id), succ.service);
            next.push(new_id);
        }
        None
    }

    fn add_node(&mut self, state: &ProductState, parent: Option<u32>, service: ServiceRef) -> u32 {
        let id = self.arena.push(state, parent, service);
        self.index.insert(id, self.arena.view(id));
        self.stats.states_created += 1;
        id
    }

    fn deactivate_subtree(
        &mut self,
        root: u32,
        protected: &HashSet<u32>,
        deactivated: &mut HashSet<u32>,
    ) {
        let mut stack = vec![root];
        while let Some(j) = stack.pop() {
            if protected.contains(&j) || !self.arena.is_active(j) {
                continue;
            }
            self.arena.set_active(j, false);
            deactivated.insert(j);
            self.stats.states_pruned += 1;
            self.index.remove(j, self.arena.view(j));
            stack.extend(self.arena.children(j));
        }
    }

    /// Indices of the nodes still active at the end of the search (the
    /// coverability-set candidates).
    pub fn active_nodes(&self) -> Vec<usize> {
        (0..self.arena.len() as u32)
            .filter(|&i| self.arena.is_active(i))
            .map(|i| i as usize)
            .collect()
    }

    /// The path of services and states from an initial node to `node`
    /// (inclusive), oldest first — used to build counterexample traces.
    pub fn trace(&self, node: usize) -> Vec<(ServiceRef, ProductState)> {
        let mut out = Vec::new();
        let mut current = Some(node as u32);
        while let Some(i) = current {
            out.push((self.arena.service(i), self.arena.materialize(i)));
            current = self.arena.parent(i);
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_ltl::{Ltl, LtlFoProperty};
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, TaskId, Term, Update,
    };

    /// The unbounded-pool workflow: statuses cycle and every cycle inserts
    /// a tuple, so the counter grows without bound and acceleration must
    /// kick in for the search to terminate.
    fn unbounded_pool() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        let pool = root.art_relation_like("POOL", &[status]);
        root.service_parts(
            "produce",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Made")),
            vec![],
            None,
        );
        root.service_parts(
            "stash",
            Condition::eq(Term::var(status), Term::str("Made")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            Some(Update::Insert {
                rel: pool,
                vars: vec![status],
            }),
        );
        let mut b = SpecBuilder::new("unbounded", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    fn trivial_property() -> LtlFoProperty {
        LtlFoProperty::new("false-baseline", TaskId::new(0), vec![], Ltl::False, vec![])
    }

    #[test]
    fn search_terminates_on_unbounded_counters_via_acceleration() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Subsumption,
            CandidateSource::Postings,
            SearchLimits {
                max_states: 5_000,
                max_millis: 30_000,
            },
        );
        let outcome = search.run();
        assert_eq!(outcome, SearchOutcome::Exhausted);
        assert!(search.stats.accelerations > 0, "acceleration must fire");
        assert!(search.stats.states_created < 100);
    }

    #[test]
    fn standard_coverage_also_terminates_here() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Standard,
            CandidateSource::Group,
            SearchLimits::default(),
        );
        assert_eq!(search.run(), SearchOutcome::Exhausted);
    }

    #[test]
    fn trace_walks_back_to_an_initial_state() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Subsumption,
            CandidateSource::Group,
            SearchLimits::default(),
        );
        search.run();
        let last = search.len() - 1;
        let trace = search.trace(last);
        assert!(!trace.is_empty());
        assert_eq!(trace[0].0, product.task.opening_service());
    }

    #[test]
    fn limits_stop_the_search() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            // Equality pruning cannot cope with unbounded counters, so the
            // node limit must trigger.
            CoverageKind::Equality,
            CandidateSource::Group,
            SearchLimits {
                max_states: 50,
                max_millis: 10_000,
            },
        );
        assert_eq!(search.run(), SearchOutcome::LimitReached);
        assert!(search.stats.limit_reached);
    }

    /// A parallel run is bit-identical to a sequential one: same tree
    /// size, same active set, same statistics (up to timing and thread
    /// configuration).
    #[test]
    fn parallel_run_matches_sequential_exactly() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        for (coverage, source) in [
            (CoverageKind::Subsumption, CandidateSource::Postings),
            (CoverageKind::Subsumption, CandidateSource::Group),
            (CoverageKind::Standard, CandidateSource::Group),
        ] {
            let limits = SearchLimits {
                max_states: 5_000,
                max_millis: 60_000,
            };
            let mut sequential = KarpMillerSearch::new(&product, coverage, source, limits);
            let seq_outcome = sequential.run();
            let mut parallel = KarpMillerSearch::new(&product, coverage, source, limits);
            parallel.threads = 4;
            let par_outcome = parallel.run();
            assert_eq!(seq_outcome, par_outcome);
            assert_eq!(sequential.len(), parallel.len());
            assert_eq!(sequential.active_nodes(), parallel.active_nodes());
            assert_eq!(sequential.interner.len(), parallel.interner.len());
            let mut seq_stats = sequential.stats;
            let mut par_stats = parallel.stats;
            seq_stats.elapsed_ms = 0;
            par_stats.elapsed_ms = 0;
            seq_stats.threads = 0;
            par_stats.threads = 0;
            assert_eq!(seq_stats, par_stats);
            assert_eq!(parallel.worker_stats.len(), 4);
            let planned: usize = parallel.worker_stats.iter().map(|w| w.nodes_planned).sum();
            assert!(planned > 0, "workers must have planned some nodes");
        }
    }

    /// Group candidates must be a bit-identical replacement for the
    /// pre-overhaul full linear scans (the `FullScan` oracle): same tree,
    /// same active set, same statistics.
    #[test]
    fn grouped_layout_matches_reference_scans_exactly() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        for coverage in [
            CoverageKind::Subsumption,
            CoverageKind::Standard,
            CoverageKind::Equality,
        ] {
            let limits = SearchLimits {
                max_states: 300,
                max_millis: 60_000,
            };
            let mut grouped =
                KarpMillerSearch::new(&product, coverage, CandidateSource::Group, limits);
            let grouped_outcome = grouped.run();
            let mut reference =
                KarpMillerSearch::new(&product, coverage, CandidateSource::FullScan, limits);
            let reference_outcome = reference.run();
            assert_eq!(grouped_outcome, reference_outcome);
            assert_eq!(grouped.len(), reference.len());
            assert_eq!(grouped.active_nodes(), reference.active_nodes());
            let mut g = grouped.stats;
            let mut r = reference.stats;
            g.elapsed_ms = 0;
            r.elapsed_ms = 0;
            assert_eq!(g, r);
        }
    }
}
