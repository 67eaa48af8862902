//! Determinism of the parallel Karp–Miller search and of the
//! repeated-reachability post-pass: for every workload (real and
//! synthetic) and every seed, a 4-worker run must return the same verdict,
//! an identical witness and bit-identical search/cycle statistics as a
//! sequential run — with the candidate index on or off — and a
//! cancellation fired mid-search must stop every worker.
//!
//! The runs are bounded by `max_states` (deterministic) rather than wall
//! clock, so thread scheduling cannot change where a limited run stops.

use verifas::prelude::*;
use verifas::workloads::{
    counter_cycle, cycle_grid, cycle_grid_liveness, generate, generate_properties,
    lattice_false_property, lattice_liveness, open_close_lattice, real_workflows, SyntheticParams,
};
use verifas_core::{CandidateSource, CoverageKind, KarpMillerSearch, ProductSystem};

const SEEDS: std::ops::Range<u64> = 0..8;

fn limits() -> SearchLimits {
    SearchLimits {
        // Small enough to keep the full workload × seed sweep fast in
        // debug builds; limit-stopped runs are themselves an interesting
        // determinism case (the stop point is a deterministic state
        // count, never wall clock).
        max_states: 150,
        // Effectively unbounded: determinism requires that only the
        // deterministic state budget can stop a run.
        max_millis: 600_000,
    }
}

fn options(search_threads: usize, use_index: bool) -> VerifierOptions {
    VerifierOptions {
        search_threads,
        data_structure_support: use_index,
        limits: limits(),
        ..VerifierOptions::default()
    }
}

/// A report's scheduling- and configuration-independent core: verdict,
/// witness, search stats and repeated-reachability stats (search + cycle
/// detection), with the timing and configuration-echo fields zeroed.
fn comparable(
    report: &VerificationReport,
) -> (
    VerificationOutcome,
    Option<Witness>,
    SearchStats,
    Option<SearchStats>,
    Option<CycleStats>,
) {
    let strip = |mut stats: SearchStats| {
        stats.elapsed_ms = 0;
        stats.threads = 0;
        stats
    };
    let cycle = report.repeated_cycle.map(|mut cycle| {
        cycle.edge_micros = 0;
        cycle.scc_micros = 0;
        cycle.threads = 0;
        // `candidates` measures the filter itself (how many exact tests
        // ran after it), so it legitimately differs between index on and
        // off; everything else in the block must not.
        cycle.candidates = 0;
        cycle.used_index = false;
        cycle
    });
    (
        report.outcome,
        report.witness.clone(),
        strip(report.stats),
        report.repeated_stats.map(strip),
        cycle,
    )
}

/// Check one property across 1 vs 4 search threads and candidate index on
/// vs off on a shared engine (the engine's preprocessing cache serves all
/// seeds of one workload): all four runs must agree bit for bit on the
/// verdict, the witness and every deterministic statistic — including the
/// repeated-reachability verdicts, witnesses and edge/SCC stats when the
/// post-pass runs.
fn assert_deterministic(engine: &Engine, property: &LtlFoProperty, context: &str) {
    let run = |threads: usize, use_index: bool| {
        engine
            .verification()
            .property(property)
            .options(options(threads, use_index))
            .run()
            .unwrap_or_else(|e| panic!("run ({threads} threads, index {use_index}): {e}"))
    };
    let baseline = comparable(&run(1, true));
    for (threads, use_index) in [(4, true), (1, false), (4, false)] {
        let this = comparable(&run(threads, use_index));
        assert_eq!(
            baseline.0, this.0,
            "verdict diverged for {context} ({threads} threads, index {use_index})"
        );
        assert_eq!(
            baseline.1, this.1,
            "witness diverged for {context} ({threads} threads, index {use_index})"
        );
        assert_eq!(
            baseline, this,
            "stats diverged for {context} ({threads} threads, index {use_index})"
        );
    }
}

#[test]
fn real_workloads_are_deterministic_across_thread_counts() {
    for spec in real_workflows() {
        let engine = Engine::load(spec.clone()).expect("workload specs are valid");
        for seed in SEEDS {
            let properties = generate_properties(&spec, seed);
            // One property per seed keeps the suite fast while still
            // cycling through the whole template set over the seeds.
            let Some(property) = properties.get(seed as usize % properties.len().max(1)) else {
                continue;
            };
            assert_deterministic(
                &engine,
                property,
                &format!("{}/{} (seed {seed})", spec.name, property.name),
            );
        }
    }
}

#[test]
fn synthetic_workloads_are_deterministic_across_thread_counts() {
    for seed in SEEDS {
        let Some(spec) = generate(SyntheticParams::small(), seed) else {
            continue;
        };
        let engine = Engine::load(spec.clone()).expect("workload specs are valid");
        for property in generate_properties(&spec, seed).iter().take(2) {
            assert_deterministic(
                &engine,
                property,
                &format!("{}/{} (seed {seed})", spec.name, property.name),
            );
        }
    }
}

/// A `CancelToken` fired mid-search stops all workers: the run returns
/// (rather than hanging in the pool), reports `cancelled = true`, and did
/// not exhaust its state budget.
#[test]
fn cancellation_mid_search_stops_all_workers() {
    let spec = real_workflows()
        .into_iter()
        .next()
        .expect("at least one real workload");
    let engine = Engine::load(spec.clone()).unwrap();
    // Pick a property whose search is big enough to emit progress events
    // before finishing (so the cancellation actually lands mid-search).
    let probe = Engine::load_with_options(
        spec.clone(),
        VerifierOptions {
            limits: SearchLimits {
                max_states: 3_000,
                max_millis: 60_000,
            },
            ..VerifierOptions::default()
        },
    )
    .unwrap();
    let properties = generate_properties(&spec, 0);
    let property = properties
        .iter()
        .find(|p| {
            probe
                .check(p)
                .map(|r| r.stats.states_created > 200)
                .unwrap_or(false)
        })
        .expect("some generated property has a sizeable search");
    let token = CancelToken::new();
    let trigger = token.clone();
    let mut observer = move |event: &ProgressEvent| {
        if matches!(event, ProgressEvent::Progress { .. }) {
            trigger.cancel();
        }
    };
    let report = engine
        .verification()
        .property(property)
        .options(VerifierOptions {
            search_threads: 4,
            limits: SearchLimits {
                max_states: 1_000_000,
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        })
        .observer(&mut observer)
        .progress_every(8)
        .cancel_token(token)
        .run()
        .unwrap();
    assert!(report.cancelled, "the report must record the cancellation");
    assert!(
        report.stats.states_created < 1_000_000,
        "cancellation must stop the search before the state budget"
    );
}

/// The cycle-heavy exhausted-search workload runs the whole
/// repeated-reachability pipeline (large active set, full abstract graph,
/// SCC pass, infinite-violation witness) and must be deterministic across
/// thread counts and index settings like everything else — with the
/// verdict actually coming from the cycle detection.
#[test]
fn cycle_heavy_post_pass_is_deterministic() {
    let spec = cycle_grid(6);
    let engine = Engine::load(spec.clone()).expect("cycle grid is valid");
    let property = cycle_grid_liveness(&spec);
    assert_deterministic(&engine, &property, "cycle-grid/eventually-goal");
    let report = engine
        .verification()
        .property(&property)
        .options(VerifierOptions {
            limits: SearchLimits {
                max_states: 10_000,
                max_millis: 600_000,
            },
            ..VerifierOptions::default()
        })
        .run()
        .unwrap();
    assert_eq!(report.outcome, VerificationOutcome::Violated);
    let witness = report.witness.expect("infinite violation has a witness");
    assert!(!witness.finite);
    assert!(witness.description.contains("cycle:"));
    let cycle = report.repeated_cycle.expect("the post-pass ran");
    assert!(cycle.completed);
    assert!(cycle.states > 30);
    assert!(cycle.edges >= cycle.states, "the torus is cycle-heavy");
    assert!(cycle.cyclic_states > 0);
}

/// The million-state open/close lattice — the workload the arena state
/// layout exists for — must be deterministic like everything else.  The
/// parameter sweep stands in for seeds (the lattice is a closed-form
/// construction): each pair changes the discrete-group population and the
/// frontier shape, and every run is capped by a deterministic state
/// budget, so the 1-vs-4-thread × index-on/off sweep of
/// `assert_deterministic` exercises limit-stopped million-state searches
/// without exhausting one in a debug build.
#[test]
fn lattice_scenario_is_deterministic_across_threads_and_index() {
    for (ticks, children) in [(4usize, 4usize), (5, 3), (3, 6)] {
        let spec = open_close_lattice(ticks, children);
        let engine = Engine::load(spec.clone()).expect("lattice is valid");
        let property = lattice_liveness(&spec);
        assert_deterministic(
            &engine,
            &property,
            &format!("open-close-lattice-{ticks}x{children}/eventually-goal"),
        );
    }
}

/// At the search layer, the three candidate sources — signature posting
/// lists, per-group vectors and the pre-overhaul full linear scans — must
/// produce bit-identical trees on a capped lattice run, sequentially and
/// with 4 workers.
#[test]
fn lattice_candidate_paths_are_bit_identical() {
    let spec = open_close_lattice(8, 8);
    let property = lattice_false_property(&spec);
    let product = ProductSystem::new(&spec, &property, true).unwrap();
    let limits = SearchLimits {
        max_states: 3_000,
        max_millis: 600_000,
    };
    let run = |source: CandidateSource, threads: usize| {
        let mut search = KarpMillerSearch::new(&product, CoverageKind::Subsumption, source, limits);
        search.threads = threads;
        let outcome = search.run();
        let mut stats = search.stats;
        stats.elapsed_ms = 0;
        stats.threads = 0;
        (outcome, search.len(), search.active_nodes(), stats)
    };
    let baseline = run(CandidateSource::Group, 1);
    for source in [
        CandidateSource::Postings,
        CandidateSource::Group,
        CandidateSource::FullScan,
    ] {
        for threads in [1, 4] {
            assert_eq!(
                baseline,
                run(source, threads),
                "candidate source {source:?} diverged with {threads} threads"
            );
        }
    }
}

/// A panic escaping a verification worker must come back as a typed
/// `VerifasError::Internal` naming the panic — and must not leak state
/// into the engine: the same engine instance serves the same property
/// cleanly right after.
#[test]
fn worker_panic_is_a_typed_error_and_leaks_no_state() {
    let spec = open_close_lattice(4, 4);
    let engine = Engine::load(spec.clone()).expect("lattice is valid");
    let property = lattice_liveness(&spec);
    let on_event = |_index: usize, _event: &ProgressEvent| {
        panic!("injected fault: die mid-search");
    };
    let reports = engine
        .batch()
        .batch_threads(1)
        .on_event(&on_event)
        .run(std::slice::from_ref(&property));
    assert_eq!(reports.len(), 1);
    match &reports[0] {
        Err(VerifasError::Internal { reason }) => {
            assert!(
                reason.contains("worker panicked"),
                "panic containment must name the worker, got: {reason}"
            );
            assert!(
                reason.contains("die mid-search"),
                "the panic message must survive into the typed error, got: {reason}"
            );
        }
        other => panic!("expected a typed internal error, got {other:?}"),
    }
    // No leaked state: the poisoned run must not have cached a bogus
    // report or wedged a lock — a clean run on the same engine succeeds,
    // exhausts the (tiny) lattice and reaches the definite verdict (the
    // goal is never reached, so the infinite cycling runs violate F goal).
    let clean = engine.check(&property).expect("the engine must recover");
    assert_eq!(clean.outcome, VerificationOutcome::Violated);
    assert!(clean.stats.states_created > 0);
}

/// Regression test for the `CoverageIndex` signature soundness (ROADMAP
/// niche left by PR 3): on a *counter-heavy* workload — active states
/// carrying bounded counters of many distinct stored tuple types, i.e.
/// exactly the stored-type/`≠` pit edges the pit-`=`-only signature must
/// ignore — the repeated-reachability post-pass must stay bit-identical
/// with the index on and off (a signature admitting those edges could
/// filter out true coverers, and index on/off would diverge here first).
#[test]
fn counter_heavy_post_pass_is_index_invariant() {
    let spec = counter_cycle(6);
    let engine = Engine::load(spec.clone()).expect("counter cycle is valid");
    let property = cycle_grid_liveness(&spec);
    // The full sweep: 1 vs 4 threads × index on vs off, bit for bit.
    assert_deterministic(&engine, &property, "counter-cycle/eventually-goal");
    // And at a budget that exhausts the space, pin the workload shape:
    // the verdict must come from the cycle-detection post-pass over
    // states that really carry stored-type counters (no ω shortcut).
    let run = |use_index: bool| {
        engine
            .verification()
            .property(&property)
            .options(VerifierOptions {
                data_structure_support: use_index,
                limits: SearchLimits {
                    max_states: 10_000,
                    max_millis: 600_000,
                },
                ..VerifierOptions::default()
            })
            .run()
            .unwrap()
    };
    let indexed = run(true);
    assert_eq!(indexed.outcome, VerificationOutcome::Violated);
    let witness = indexed.witness.clone().expect("infinite violation");
    assert!(!witness.finite);
    let repeated = indexed.repeated_stats.expect("the repeated phase ran");
    assert!(
        repeated.stored_types > 1,
        "the workload must intern distinct stored tuple types"
    );
    let cycle = indexed.repeated_cycle.expect("the post-pass ran");
    assert!(cycle.completed);
    assert!(
        cycle.cyclic_states > 0,
        "the verdict comes from the SCC pass"
    );
    assert_eq!(
        comparable(&indexed),
        comparable(&run(false)),
        "index on/off diverged on the counter-heavy post-pass"
    );
}
