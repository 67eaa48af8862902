//! The verification pipeline behind `verifas::Engine`.
//!
//! [`run_verification`] runs the Karp–Miller search and the
//! repeated-reachability analysis over a product system the engine has
//! prepared (product construction plus static analysis).  Every
//! optimisation of Section 3 can be toggled through
//! [`VerifierOptions`] so the ablation experiments of Table 3 can be
//! reproduced:
//!
//! * `state_pruning` (SP) — use the ≼ subsumption order instead of the
//!   classic ≤ order,
//! * `static_analysis` (SA) — drop non-violating constraints,
//! * `data_structure_support` (DSS) — filter coverage candidates through
//!   the inverted-list index ([`crate::index::CandidateSource::Postings`]),
//! * `handle_artifact_relations` — `false` gives the `VERIFAS-NoSet`
//!   configuration,
//! * `check_repeated` — run the repeated-reachability module (needed for
//!   full LTL-FO; without it only finite violations are detected).

use crate::coverage::CoverageKind;
use crate::error::VerifasError;
use crate::index::CandidateSource;
use crate::observer::SearchControl;
use crate::product::ProductSystem;
use crate::repeated::{find_infinite_violation_with, CycleStats};
use crate::search::{KarpMillerSearch, SearchLimits, SearchOutcome, SearchStats, WorkerStats};
use verifas_model::ServiceRef;

/// Options controlling the verifier (all optimisations enabled by
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierOptions {
    /// SP — the ≼-based aggressive pruning of Section 3.5.
    pub state_pruning: bool,
    /// SA — the static analysis of Section 3.7.
    pub static_analysis: bool,
    /// DSS — the data-structure support of Section 3.6.
    pub data_structure_support: bool,
    /// Handle updatable artifact relations (`false` = `VERIFAS-NoSet`).
    pub handle_artifact_relations: bool,
    /// Run the repeated-reachability analysis (Section 3.8).
    pub check_repeated: bool,
    /// Worker threads of a single verification: they expand the frontier
    /// of each search phase and build the edges of the
    /// repeated-reachability cycle detection (1 = sequential, 0 = one per
    /// available core).  The verdict and the witness are deterministic
    /// regardless of this setting; see the "Parallel execution" notes on
    /// [`crate::search`] and the cycle-detection notes on
    /// [`crate::repeated`].
    pub search_threads: usize,
    /// Resource limits of each search phase.
    pub limits: SearchLimits,
    /// Run phase 1 on the retained pre-arena full linear candidate scans
    /// ([`CandidateSource::FullScan`]) instead of the per-group ones (an
    /// oracle arm for differential testing; verdicts, witnesses and stats
    /// must be bit-identical).  Only takes effect with
    /// `data_structure_support` off: the index wins
    /// ([`CandidateSource::resolve`]).
    pub reference_layout: bool,
    /// Run phase 2 through [`crate::repeated::find_infinite_violation_reference`]
    /// (the retained O(active²) oracle) instead of the indexed
    /// implementation.  The reference arm produces no [`CycleStats`], so
    /// differential comparisons against it cover verdict + witness +
    /// phase-1 stats only.
    pub reference_repeated: bool,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            state_pruning: true,
            static_analysis: true,
            data_structure_support: true,
            handle_artifact_relations: true,
            check_repeated: true,
            search_threads: 1,
            limits: SearchLimits::default(),
            reference_layout: false,
            reference_repeated: false,
        }
    }
}

impl VerifierOptions {
    /// The `VERIFAS-NoSet` configuration of the paper: artifact relations
    /// are ignored.
    pub fn no_set() -> Self {
        VerifierOptions {
            handle_artifact_relations: false,
            ..VerifierOptions::default()
        }
    }

    /// Disable one named optimisation (used by the Table 3 ablation):
    /// `"SP"`, `"SA"` or `"DSS"`.
    ///
    /// # Panics
    /// On an unknown name, with a message listing the valid ones — a typo
    /// must not silently run the ablation with every optimisation still
    /// enabled.  Use [`VerifierOptions::try_without`] to handle the error
    /// instead.
    pub fn without(self, optimization: &str) -> Self {
        match self.try_without(optimization) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Disable one named optimisation (`"SP"`, `"SA"` or `"DSS"`),
    /// reporting unknown names as
    /// [`VerifasError::UnknownOptimization`] (whose message lists
    /// [`crate::error::VALID_OPTIMIZATIONS`]).
    pub fn try_without(self, optimization: &str) -> Result<Self, VerifasError> {
        let mut out = self;
        match optimization {
            "SP" => out.state_pruning = false,
            "SA" => out.static_analysis = false,
            "DSS" => out.data_structure_support = false,
            other => {
                return Err(VerifasError::UnknownOptimization {
                    given: other.to_owned(),
                })
            }
        }
        Ok(out)
    }

    fn coverage(&self) -> CoverageKind {
        if self.state_pruning {
            CoverageKind::Subsumption
        } else {
            CoverageKind::Standard
        }
    }

    fn repeated_coverage(&self) -> CoverageKind {
        if self.state_pruning {
            CoverageKind::StrictSubsumption
        } else {
            CoverageKind::Standard
        }
    }
}

/// The verdict of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationOutcome {
    /// Every local run of the task satisfies the property.
    Satisfied,
    /// Some local run violates the property (see the counterexample).
    Violated,
    /// A resource limit was reached before an answer could be established.
    Inconclusive,
}

/// A violating symbolic local run.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The sequence of observable services of the violating run (for an
    /// infinite violation, the prefix leading to the repeated state).
    pub services: Vec<ServiceRef>,
    /// The same sequence rendered with task/service names.
    pub description: String,
    /// `true` for a finite violating run (the task closes), `false` for an
    /// infinite one.
    pub finite: bool,
}

/// Result of a verification run.
#[derive(Debug, Clone)]
pub struct VerificationResult {
    /// The verdict.
    pub outcome: VerificationOutcome,
    /// A counterexample when the property is violated.
    pub counterexample: Option<Counterexample>,
    /// Statistics of the main search phase.
    pub stats: SearchStats,
    /// Statistics of the repeated-reachability phase (when it ran).
    pub repeated_stats: Option<SearchStats>,
    /// Statistics of the repeated-reachability cycle-detection pass (when
    /// it ran; see [`CycleStats`]).
    pub repeated_cycle: Option<CycleStats>,
    /// Per-worker statistics across both phases (empty for runs made by
    /// engines predating the parallel search).
    pub worker_stats: Vec<WorkerStats>,
    /// Set when a worker thread of either phase panicked: the run
    /// degraded to a limit-stopped one (any violation already in hand is
    /// still sound) and the owning engine request surfaces the message
    /// as a typed [`VerifasError::Internal`] instead of a report.
    pub failure: Option<String>,
}

impl VerificationResult {
    /// Total elapsed time across phases, in milliseconds.
    pub fn elapsed_ms(&self) -> u64 {
        self.stats.elapsed_ms + self.repeated_stats.map_or(0, |s| s.elapsed_ms)
    }
}

/// Run the two verification phases over a prepared product system under a
/// [`SearchControl`] (observer + cancellation).  This is the
/// implementation behind `verifas::Engine`.
pub fn run_verification(
    product: &ProductSystem,
    options: VerifierOptions,
    control: &mut SearchControl<'_>,
) -> VerificationResult {
    // Phase 1: reachability search (finds finite violations).
    control.phase = Some(crate::observer::Phase::Reachability);
    let source = CandidateSource::resolve(options.data_structure_support, options.reference_layout);
    let mut search = KarpMillerSearch::new(product, options.coverage(), source, options.limits);
    search.threads = options.search_threads;
    let outcome = search.run_with(control);
    let stats = search.stats;
    let worker_stats = std::mem::take(&mut search.worker_stats);
    let failure = std::mem::take(&mut search.failure);
    match outcome {
        SearchOutcome::FiniteViolation(node) => {
            let services: Vec<ServiceRef> =
                search.trace(node).into_iter().map(|(s, _)| s).collect();
            let description = describe(product, &services);
            VerificationResult {
                outcome: VerificationOutcome::Violated,
                counterexample: Some(Counterexample {
                    services,
                    description,
                    finite: true,
                }),
                stats,
                repeated_stats: None,
                repeated_cycle: None,
                worker_stats,
                failure,
            }
        }
        SearchOutcome::LimitReached => VerificationResult {
            outcome: VerificationOutcome::Inconclusive,
            counterexample: None,
            stats,
            repeated_stats: None,
            repeated_cycle: None,
            worker_stats,
            failure,
        },
        SearchOutcome::Exhausted => {
            if !options.check_repeated {
                return VerificationResult {
                    outcome: VerificationOutcome::Satisfied,
                    counterexample: None,
                    stats,
                    repeated_stats: None,
                    repeated_cycle: None,
                    worker_stats,
                    failure,
                };
            }
            // Phase 2: repeated reachability for infinite violations.
            let repeated = if options.reference_repeated {
                crate::repeated::find_infinite_violation_reference(
                    product,
                    options.repeated_coverage(),
                    options.data_structure_support,
                    options.limits,
                )
            } else {
                find_infinite_violation_with(
                    product,
                    options.repeated_coverage(),
                    options.data_structure_support,
                    options.limits,
                    options.search_threads,
                    control,
                )
            };
            let repeated_stats = Some(repeated.stats);
            let repeated_cycle = repeated.cycle;
            let failure = failure.or(repeated.failure);
            // Merge the repeated phase's pools (auxiliary search + edge
            // construction) into the per-worker totals.
            let mut worker_stats = worker_stats;
            crate::search::merge_worker_stats(&mut worker_stats, &repeated.worker_stats);
            if let Some(finite) = repeated.finite_violation {
                let description = describe(product, &finite);
                return VerificationResult {
                    outcome: VerificationOutcome::Violated,
                    counterexample: Some(Counterexample {
                        services: finite,
                        description,
                        finite: true,
                    }),
                    stats,
                    repeated_stats,
                    repeated_cycle,
                    worker_stats,
                    failure,
                };
            }
            match repeated.violation {
                Some(v) => {
                    let description = format!(
                        "{} (infinite run: {})",
                        describe(product, &v.prefix),
                        v.reason
                    );
                    VerificationResult {
                        outcome: VerificationOutcome::Violated,
                        counterexample: Some(Counterexample {
                            services: v.prefix,
                            description,
                            finite: false,
                        }),
                        stats,
                        repeated_stats,
                        repeated_cycle,
                        worker_stats,
                        failure,
                    }
                }
                None if repeated.limit_reached => VerificationResult {
                    outcome: VerificationOutcome::Inconclusive,
                    counterexample: None,
                    stats,
                    repeated_stats,
                    repeated_cycle,
                    worker_stats,
                    failure,
                },
                None => VerificationResult {
                    outcome: VerificationOutcome::Satisfied,
                    counterexample: None,
                    stats,
                    repeated_stats,
                    repeated_cycle,
                    worker_stats,
                    failure,
                },
            }
        }
    }
}

fn describe(product: &ProductSystem, services: &[ServiceRef]) -> String {
    services
        .iter()
        .map(|s| product.task.spec.service_name(*s))
        .collect::<Vec<_>>()
        .join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_analysis::ConstraintGraph;
    use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, TaskId, Term,
    };

    /// Root task with a child whose closing requires approval; the root
    /// then archives the result.
    fn approval_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Main");
        let decision = root.data_var("decision");
        root.service_parts(
            "archive",
            Condition::neq(Term::var(decision), Term::Null),
            Condition::eq(Term::var(decision), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("approval", db, root.build());
        let mut review = TaskBuilder::new("Review");
        let d = review.data_var("decision");
        review.outputs([d]);
        review.opening_pre(Condition::eq(Term::var(decision), Term::Null));
        review.closing_pre(Condition::or([
            Condition::eq(Term::var(d), Term::str("Approve")),
            Condition::eq(Term::var(d), Term::str("Deny")),
        ]));
        review.service_parts(
            "decide",
            Condition::True,
            Condition::or([
                Condition::eq(Term::var(d), Term::str("Approve")),
                Condition::eq(Term::var(d), Term::str("Deny")),
            ]),
            vec![],
            None,
        );
        b.add_child("Main", review.build()).unwrap();
        b.global_pre(Condition::eq(Term::var(decision), Term::Null));
        b.build().unwrap()
    }

    fn decision_is(v: &str) -> Condition {
        Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str(v))
    }

    /// Prepare the product the way the engine does (static analysis under
    /// SA, artifact relations unless NoSet) and run both phases.
    fn verify(
        spec: &HasSpec,
        property: &LtlFoProperty,
        options: VerifierOptions,
    ) -> VerificationResult {
        spec.validate().unwrap();
        let mut product =
            ProductSystem::new(spec, property, options.handle_artifact_relations).unwrap();
        if options.static_analysis {
            let graph =
                ConstraintGraph::build(spec, property.task, property, &product.task.universe);
            product.set_static_removed(graph.non_violating_edges(&product.task.universe));
        }
        run_verification(&product, options, &mut SearchControl::default())
    }

    #[test]
    fn satisfied_safety_property_on_root_task() {
        // G ¬(decision = "Garbage"): the review child can only return
        // Approve or Deny... but the closing drops constraints lazily, so
        // the verifier conservatively allows any returned value — the
        // property is therefore *violated* symbolically only if "Garbage"
        // is producible; it is not mentioned anywhere, yet the child's
        // output is unconstrained, so the verifier must report a violation.
        // This documents the over-approximation of child returns.
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "no-garbage",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Garbage"))],
        );
        let result = verify(&spec, &property, VerifierOptions::default());
        assert_eq!(result.outcome, VerificationOutcome::Violated);
        assert!(result.counterexample.is_some());
    }

    #[test]
    fn violated_property_on_child_task_is_found_with_counterexample() {
        // On the Review task itself: G ¬(decision = "Deny") is violated by
        // a finite local run that decides Deny and closes.
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "never-deny",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Deny"))],
        );
        let result = verify(&spec, &property, VerifierOptions::default());
        assert_eq!(result.outcome, VerificationOutcome::Violated);
        let cex = result.counterexample.unwrap();
        assert!(!cex.services.is_empty());
        assert!(cex.description.contains("Review"));
    }

    #[test]
    fn satisfied_property_on_child_task() {
        // On the Review task: G (close(Review) -> decision ≠ null): the
        // closing condition forces a decision, so this holds.
        let spec = approval_spec();
        let close = verifas_model::ServiceRef::Closing(TaskId::new(1));
        let property = LtlFoProperty::new(
            "closed-means-decided",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::implies(Ltl::prop(0), Ltl::prop(1))),
            vec![
                PropAtom::Service(close),
                PropAtom::Condition(Condition::neq(
                    Term::var(verifas_model::VarId::new(0)),
                    Term::Null,
                )),
            ],
        );
        let result = verify(&spec, &property, VerifierOptions::default());
        assert_eq!(result.outcome, VerificationOutcome::Satisfied);
        assert!(result.counterexample.is_none());
    }

    #[test]
    fn ablation_options_produce_the_same_verdicts() {
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "never-deny",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Deny"))],
        );
        let mut verdicts = Vec::new();
        for options in [
            VerifierOptions::default(),
            VerifierOptions::default().without("SP"),
            VerifierOptions::default().without("SA"),
            VerifierOptions::default().without("DSS"),
            VerifierOptions::no_set(),
        ] {
            verdicts.push(verify(&spec, &property, options).outcome);
        }
        assert!(verdicts.iter().all(|v| *v == VerificationOutcome::Violated));
    }

    #[test]
    fn elapsed_time_accumulates_phases() {
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "closed-means-decided",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::prop(0)),
            vec![PropAtom::Condition(Condition::True)],
        );
        let result = verify(&spec, &property, VerifierOptions::default());
        assert!(result.elapsed_ms() >= result.stats.elapsed_ms);
    }
}
