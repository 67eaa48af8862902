//! The direct-API workloads, `paper-real` and `lattice-deep`.
//!
//! One caller runs a closed loop over *requests*.  A request is what
//! `verifas check --json` does for one specification: a fresh
//! `Engine::load_with_options`, then `Engine::check` and
//! `VerificationReport::to_json` for each of its properties in turn, so
//! the first property of each spec pays the preprocessing.  A *pass* is a
//! list of requests and a *round* a fixed list of passes; the loop runs
//! whole rounds until the time is up, so every run checks the same
//! multiset of properties and the state-budgeted counts (decided share,
//! states) repeat exactly.

use crate::measure::{fingerprint, ms, peak_rss_mb, quantile, ratio, RunResult};
use crate::pin::{comparable, Pins};
use crate::trace::Tracer;
use crate::{layer_metrics, shuffle, Layers, Options};
use std::time::{Duration, Instant};
use verifas::core::counters;
use verifas::ltl::LtlFoProperty;
use verifas::model::HasSpec;
use verifas::prelude::*;
use verifas::workloads::{
    generate_properties, lattice_liveness, open_close_lattice, real_workflows,
};

/// What a check's report must match.
enum Expect {
    /// The committed pin under this key.
    Pin(String),
    /// The lattice's analytic answer: `Violated` by an infinite run, with
    /// the main search creating exactly this many states.
    Lattice { states: usize },
}

struct Check {
    property: LtlFoProperty,
    expect: Expect,
}

struct Request {
    spec: HasSpec,
    checks: Vec<Check>,
}

pub struct Workload {
    options: VerifierOptions,
    round: Vec<Vec<Request>>,
    /// An untimed request run during set-up, the same for every seed.
    warm_up: Request,
    pins: Option<Pins>,
}

/// Property seeds of the `paper-real` population: every round checks
/// `generate_properties(spec, s)` for each of them, split over the
/// round's passes by the run seed.
const PAPER_PROPERTY_SEEDS: [u64; 2] = [2017, 2018];
/// Per-phase state budget of `paper-real` (the deterministic stop).
const PAPER_MAX_STATES: usize = 500;
/// Wall-clock backstop; no check comes near it, so it never decides.
const MAX_MILLIS: u64 = 120_000;

fn paper_options() -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states: PAPER_MAX_STATES,
            max_millis: MAX_MILLIS,
        },
        ..VerifierOptions::default()
    }
}

/// One spec's properties under each property seed, as (pin key,
/// property).
type Variants = Vec<Vec<(String, LtlFoProperty)>>;

/// The `paper-real` population: each spec's properties under every
/// property seed, keyed `<property name>@<property seed>`.
fn paper_population(tiny: bool) -> Vec<(HasSpec, Variants)> {
    let mut specs = real_workflows();
    if tiny {
        specs.truncate(3);
    }
    specs
        .into_iter()
        .map(|spec| {
            let variants = PAPER_PROPERTY_SEEDS
                .iter()
                .map(|&seed| {
                    generate_properties(&spec, seed)
                        .into_iter()
                        .map(|p| (format!("{}@{seed}", p.name), p))
                        .collect()
                })
                .collect();
            (spec, variants)
        })
        .collect()
}

/// `paper-real`: the 32 real workflows × 12 Table-4 properties under both
/// property seeds, one round of two passes.  The run seed decides, for
/// each spec, which property seed's instances go into which pass, and the
/// order of specs and properties within each pass.  Every spec's two
/// requests run in every round, so the seed changes the draw and never
/// the multiset of requests or checks.
pub fn paper_real(seed: u64, tiny: bool, pins: Pins) -> Workload {
    let mut rng = verifas::fuzzgen::Lcg::from_seed(seed);
    let population = paper_population(tiny);
    let passes = PAPER_PROPERTY_SEEDS.len();
    let mut round: Vec<Vec<Request>> = (0..passes).map(|_| Vec::new()).collect();
    let warm_up = Request {
        spec: population[0].0.clone(),
        checks: population[0].1[0]
            .iter()
            .map(|(key, property)| Check {
                property: property.clone(),
                expect: Expect::Pin(key.clone()),
            })
            .collect(),
    };
    for (spec, variants) in population {
        let first = rng.below(passes);
        for (pass, requests) in round.iter_mut().enumerate() {
            let mut checks: Vec<Check> = variants[(first + pass) % passes]
                .iter()
                .map(|(key, property)| Check {
                    property: property.clone(),
                    expect: Expect::Pin(key.clone()),
                })
                .collect();
            shuffle(&mut rng, &mut checks);
            requests.push(Request {
                spec: spec.clone(),
                checks,
            });
        }
    }
    for pass in &mut round {
        shuffle(&mut rng, pass);
    }
    Workload {
        options: paper_options(),
        round,
        warm_up,
        pins: Some(pins),
    }
}

/// Regenerate the `paper-real` pin: every check of the population.
pub fn paper_expected(tiny: bool) -> Result<Vec<(String, String)>, String> {
    let mut entries = Vec::new();
    for (spec, variants) in paper_population(tiny) {
        let engine = Engine::load_with_options(spec, paper_options()).map_err(|e| e.to_string())?;
        for (key, property) in variants.iter().flatten() {
            let report = engine.check(property).map_err(|e| format!("{key}: {e}"))?;
            entries.push((key.clone(), comparable(&report)));
        }
    }
    Ok(entries)
}

/// `lattice-deep`: `open_close_lattice(ticks, children)` with
/// `lattice_liveness` for each tick count of the range, once per pass, in
/// a seeded order.
pub fn lattice_deep(seed: u64, tiny: bool) -> Workload {
    let (ticks, children) = if tiny { (3..=6, 2) } else { (12..=19, 6) };
    let request = |t: usize| {
        let spec = open_close_lattice(t, children);
        let property = lattice_liveness(&spec);
        Request {
            spec,
            checks: vec![Check {
                property,
                expect: Expect::Lattice {
                    states: (t + 1) << children,
                },
            }],
        }
    };
    let warm_up = request(*ticks.start());
    let mut requests: Vec<Request> = ticks.map(request).collect();
    shuffle(&mut verifas::fuzzgen::Lcg::from_seed(seed), &mut requests);
    Workload {
        options: VerifierOptions {
            limits: SearchLimits {
                max_states: 1_000_000,
                max_millis: MAX_MILLIS,
            },
            ..VerifierOptions::default()
        },
        round: vec![requests],
        warm_up,
        pins: None,
    }
}

/// One finished check.
struct CheckSample {
    ms: f64,
    report: Result<VerificationReport, VerifasError>,
}

/// One finished request.
struct RequestSample {
    ms: f64,
    checks: Vec<CheckSample>,
    /// Bytes of the encoded reports.
    bytes: usize,
}

/// Run one request; with a tracer, record spans around every layer call
/// (request id `id`).
fn run_request(
    request: &Request,
    options: VerifierOptions,
    mut tracer: Option<&mut Tracer>,
    id: u64,
) -> RequestSample {
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.record("request", start, start, None, id));
    let engine = Engine::load_with_options(request.spec.clone(), options);
    if let Some(t) = tracer.as_deref_mut() {
        t.record("engine.load", start, Instant::now(), root, id);
    }
    let engine = match engine {
        Ok(engine) => engine,
        Err(e) => {
            let checks = request
                .checks
                .iter()
                .map(|_| CheckSample {
                    ms: 0.0,
                    report: Err(e.clone()),
                })
                .collect();
            return RequestSample {
                ms: ms(start.elapsed()),
                checks,
                bytes: 0,
            };
        }
    };
    let mut checks = Vec::with_capacity(request.checks.len());
    let mut bytes = 0;
    for check in &request.checks {
        let check_start = Instant::now();
        let report = match tracer.as_deref_mut() {
            None => engine.check(&check.property),
            Some(t) => traced_check(&engine, &check.property, t, root, id),
        };
        let check_ms = ms(check_start.elapsed());
        if let Ok(report) = &report {
            let encode_start = Instant::now();
            let json = std::hint::black_box(report.to_json());
            if let Some(t) = tracer.as_deref_mut() {
                t.record("report.encode", encode_start, Instant::now(), root, id);
            }
            bytes += json.len();
        }
        checks.push(CheckSample {
            ms: check_ms,
            report,
        });
    }
    let end = Instant::now();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.set_end(root, end);
    }
    RequestSample {
        ms: ms(end - start),
        checks,
        bytes,
    }
}

/// `Engine::warm` then `Engine::verification().run()` with a
/// `ProgressObserver` turning phase events into spans.
fn traced_check(
    engine: &Engine,
    property: &LtlFoProperty,
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
) -> Result<VerificationReport, VerifasError> {
    let start = Instant::now();
    let check = tracer.record("check", start, start, parent, id);
    let warmed = engine.warm(property);
    tracer.record("preproc.warm", start, Instant::now(), Some(check), id);
    warmed?;
    let mut events: Vec<(Instant, Phase, bool)> = Vec::new();
    let mut observer = |event: &ProgressEvent| match event {
        ProgressEvent::PhaseStarted { phase } => events.push((Instant::now(), *phase, false)),
        ProgressEvent::PhaseFinished { phase, .. } => events.push((Instant::now(), *phase, true)),
        _ => {}
    };
    let report = engine
        .verification()
        .property(property)
        .observer(&mut observer)
        .run();
    let end = Instant::now();
    tracer.set_end(check, end);
    let at = |phase: Phase, finished: bool| {
        events
            .iter()
            .find(|(_, p, f)| *p == phase && *f == finished)
            .map(|(t, _, _)| *t)
    };
    if let (Some(s), Some(f)) = (
        at(Phase::Reachability, false),
        at(Phase::Reachability, true),
    ) {
        tracer.record("search", s, f, Some(check), id);
    }
    if let Some(s) = at(Phase::RepeatedReachability, false) {
        let f = at(Phase::RepeatedReachability, true).unwrap_or(end);
        tracer.record("repeated.aux", s, f, Some(check), id);
        tracer.record("repeated.cycle", f, end, Some(check), id);
    }
    report
}

impl Workload {
    /// Compare one report with what its check expects.
    fn validate(&self, check: &Check, report: &VerificationReport) -> Result<(), String> {
        match &check.expect {
            Expect::Pin(key) => self
                .pins
                .as_ref()
                .expect("pinned workloads load their pins")
                .check(key, &comparable(report)),
            Expect::Lattice { states } => {
                let infinite_witness = report.witness.as_ref().is_some_and(|w| !w.finite);
                if report.outcome == VerificationOutcome::Violated
                    && infinite_witness
                    && report.stats.states_created == *states
                    && !report.stats.limit_reached
                {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: expected Violated by an infinite run after {states} states, got {:?} after {} states (limit reached: {})",
                        report.property,
                        report.outcome,
                        report.stats.states_created,
                        report.stats.limit_reached
                    ))
                }
            }
        }
    }

    /// Fingerprint of the round: every request's spec and check, in order.
    fn draw(&self) -> u64 {
        let keys: Vec<String> = self
            .round
            .iter()
            .flatten()
            .flat_map(|request| {
                request.checks.iter().map(|check| match &check.expect {
                    Expect::Pin(key) => key.clone(),
                    Expect::Lattice { .. } => request.spec.name.clone(),
                })
            })
            .collect();
        fingerprint(keys.iter().map(String::as_str))
    }

    /// One untimed request: lets lazy process set-up (allocator pools,
    /// page faults) finish before timing.
    pub fn warm_up(&self) {
        std::hint::black_box(run_request(&self.warm_up, self.options, None, 0));
    }

    /// The untraced run: whole rounds until at least `opts.seconds` have
    /// passed, then every report checked against its expectation.
    pub fn run(&self, opts: &Options) -> RunResult {
        let start = Instant::now();
        let budget = Duration::from_secs(opts.seconds);
        let mut samples: Vec<(&Check, CheckSample)> = Vec::new();
        let mut requests = Vec::new();
        while start.elapsed() < budget {
            for pass in &self.round {
                for request in pass {
                    let sample = run_request(request, self.options, None, 0);
                    requests.push(sample.ms);
                    samples.extend(request.checks.iter().zip(sample.checks));
                }
            }
        }
        let window_s = start.elapsed().as_secs_f64();

        let mut result = RunResult {
            attempted: samples.len(),
            draw: self.draw(),
            ..RunResult::default()
        };
        let mut check_ms = Vec::new();
        let (mut decided, mut states, mut check_s) = (0usize, 0usize, 0.0);
        for (check, sample) in &samples {
            check_ms.push(sample.ms);
            check_s += sample.ms / 1e3;
            match &sample.report {
                Err(e) => result.fail(format!("{}: {e}", check.property.name)),
                Ok(report) => {
                    decided += (report.outcome != VerificationOutcome::Inconclusive) as usize;
                    states += report.stats.states_created
                        + report.repeated_stats.map_or(0, |s| s.states_created);
                    if let Err(why) = self.validate(check, report) {
                        result.fail(why);
                    }
                }
            }
        }
        let n = check_ms.len();
        result.push("peak_rss_mb", peak_rss_mb(), "MiB", 0);
        result.push("decided_frac", ratio(decided as f64, n as f64), "ratio", n);
        result.push("checks_per_s", n as f64 / window_s, "1/s", n);
        result.push("check_ms_p50", quantile(&check_ms, 0.5), "ms", n);
        result.push("check_ms_p90", quantile(&check_ms, 0.9), "ms", n);
        result.push("states_per_s", ratio(states as f64, check_s), "1/s", n);
        result.push(
            "req_per_s",
            requests.len() as f64 / window_s,
            "1/s",
            requests.len(),
        );
        result.push(
            "done_ms_p50",
            quantile(&requests, 0.5),
            "ms",
            requests.len(),
        );
        result.push(
            "done_ms_p90",
            quantile(&requests, 0.9),
            "ms",
            requests.len(),
        );
        result
    }

    /// The traced run: pass after pass of the round, each run untraced
    /// and then traced, until at least `opts.seconds` have passed.  The per-layer metrics come from the traced passes; the
    /// overhead is traced time over untraced time on the same passes.
    pub fn run_traced(&self, opts: &Options) -> (RunResult, Tracer) {
        let mut tracer = Tracer::new();
        let start = Instant::now();
        let budget = Duration::from_secs(opts.seconds);
        let before = (counters::universe_builds(), counters::spec_graph_builds());
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        let mut reports: Vec<(&Check, Result<VerificationReport, VerifasError>)> = Vec::new();
        let (mut loads, mut bytes, mut id) = (0usize, 0usize, 0u64);
        for pass in self.round.iter().cycle() {
            let t0 = Instant::now();
            for request in pass {
                std::hint::black_box(run_request(request, self.options, None, 0));
            }
            let t1 = Instant::now();
            for request in pass {
                id += 1;
                loads += 1;
                let sample = run_request(request, self.options, Some(&mut tracer), id);
                bytes += sample.bytes;
                for (check, sample) in request.checks.iter().zip(sample.checks) {
                    reports.push((check, sample.report));
                }
            }
            untraced_s += (t1 - t0).as_secs_f64();
            traced_s += t1.elapsed().as_secs_f64();
            if start.elapsed() >= budget {
                break;
            }
        }
        // Every traced check warmed its property; untraced passes of the
        // same requests built the same preprocessing, so halve the count.
        let builds = (
            (counters::universe_builds() - before.0) as f64 / 2.0,
            (counters::spec_graph_builds() - before.1) as f64 / 2.0,
        );

        let mut result = RunResult {
            attempted: reports.len(),
            draw: self.draw(),
            ..RunResult::default()
        };
        let mut layers = Layers::default();
        let ok: Vec<&VerificationReport> = reports
            .iter()
            .filter_map(|(check, report)| match report {
                Ok(report) => {
                    if let Err(why) = self.validate(check, report) {
                        result.fail(why);
                    }
                    Some(report)
                }
                Err(e) => {
                    result.fail(format!("{}: {e}", check.property.name));
                    None
                }
            })
            .collect();
        let n = reports.len() as f64;
        let own = tracer.self_times();
        let per_check = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
        layers.set("engine.load_us", per_check("engine.load"));
        layers.set("engine.loads", loads as f64 / n);
        layers.set("preproc.warm_us", per_check("preproc.warm"));
        layers.set("preproc.universe_builds", builds.0 / n);
        layers.set("preproc.spec_graph_builds", builds.1 / n);
        layers.set("search.us", per_check("search"));
        layers.set("repeated.aux_us", per_check("repeated.aux"));
        layers.set("repeated.cycle_us", per_check("repeated.cycle"));
        layers.set("check.other_us", per_check("check"));
        layers.set(
            "check.us",
            tracer.durations().get("check").copied().unwrap_or(0.0) / n,
        );
        layers.set("report.encode_us", per_check("report.encode"));
        layers.set("report.bytes", bytes as f64 / n);
        layers.add_report_counts(&ok, n);
        layers.add_report_timers(&ok, n);
        layers.set(
            "trace.overhead_frac",
            ratio(traced_s - untraced_s, untraced_s),
        );
        result.metrics = layer_metrics(&layers);
        (result, tracer)
    }
}
