//! The served workload, `serve-edit-loop`.
//!
//! An in-process `verifas_serve::Server` on loopback is driven by one
//! closed-loop client thread that alternates two request streams, one
//! request at a time, each request on its own connection:
//!
//! * an interactive "editor" sends single-property requests from a seeded
//!   edit script over the documents (the `examples/specs/*.has` corpus
//!   plus generated specs): exact resubmits (session hits and report
//!   reuse), edits (delta upgrades of a cached session) and switches to
//!   another document (cold loads unless still cached);
//! * a batch stream sends whole-spec `batch`-class requests over the
//!   generated specs.
//!
//! The whole process runs on one CPU ([`pin_to_one_cpu`]) and the server
//! gets a one-core budget, so every hand-off between the client, the
//! connection workers and the search stays on that CPU.  Because requests
//! never overlap, the seed alone decides every session hit, eviction and
//! delta upgrade; the host's timing decides none of them.
//!
//! Every request carries the same `max_states` budget, so every served
//! report is deterministic.  After the timed window each distinct served
//! report is checked against a direct `Engine::check` of the same spec
//! and property and against the committed pin.

use crate::http::{self, frame_kind};
use crate::measure::{fingerprint, mean, ms, peak_rss_mb, quantile, ratio, RunResult};
use crate::pin::{comparable, Pins};
use crate::trace::Tracer;
use crate::{layer_metrics, shuffle, Layers, Options};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verifas::core::{counters, spec_hash_hex, Json};
use verifas::prelude::*;
use verifas::serve::{ServeConfig, Server};
use verifas::spec::ast::{CondExpr, SpecFile};
use verifas::spec::{format_spec, parse, resolve};

/// Generator seeds of the generated documents: the first 32 seeds whose
/// every property decides within 300 states (main + auxiliary search) at
/// the request budget below, so every served search stays small.
const FUZZ_SEEDS: [u64; 32] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 26, 27,
    28, 30, 31, 32, 33, 34,
];
/// A generated spec outside the population, used only to warm up.
const WARM_UP_SEED: u64 = 1_000;
/// Tiny-size population: the first few generated documents, no corpus.
const TINY_FUZZ_DOCS: usize = 4;
/// Edit variants per document (variant 0 is the document as written).
const VARIANTS: usize = 3;
/// Per-phase state budget of every request.
const MAX_STATES: usize = 2_000;
/// Wall-clock backstop of every request; no search comes near it.
const MAX_MILLIS: u64 = 120_000;
/// The server's core budget (the one CPU the process runs on) and
/// connection workers.
const CORES: usize = 1;
const SERVER_WORKERS: usize = 4;

/// One submittable source: a document in one edit variant.
struct Source {
    text: String,
    /// Canonical hash of the lowered spec (the pin key prefix).
    hash: String,
    properties: Vec<String>,
}

struct Doc {
    variants: Vec<Source>,
    /// Generated documents also feed the batch client.
    generated: bool,
}

/// Variant `v` of a document: the pre-conditions of its first `v`
/// services (cycling when there are fewer) wrapped as `(c) && (c)` — a
/// real structural edit confined to one task slice per step, so each
/// step is a delta against the previous variant.
fn edit(file: &SpecFile, v: usize) -> SpecFile {
    let mut out = file.clone();
    let count: usize = out.tasks.iter().map(|t| t.services.len()).sum();
    if count == 0 {
        return out;
    }
    for step in 0..v {
        let mut index = step % count;
        for task in &mut out.tasks {
            if index < task.services.len() {
                let pre = task.services[index].pre.clone();
                task.services[index].pre = CondExpr::And(vec![pre.clone(), pre]);
                break;
            }
            index -= task.services.len();
        }
    }
    out
}

fn source(text: String) -> Result<Source, String> {
    let file = parse(&text).map_err(|e| e.to_string())?;
    let compiled = resolve(&file).map_err(|e| e.to_string())?;
    Ok(Source {
        hash: spec_hash_hex(&compiled.spec),
        properties: compiled.properties.iter().map(|p| p.name.clone()).collect(),
        text,
    })
}

fn doc(text: String, generated: bool) -> Result<Doc, String> {
    let file = parse(&text).map_err(|e| e.to_string())?;
    let mut variants = vec![source(text)?];
    for v in 1..VARIANTS {
        variants.push(source(format_spec(&edit(&file, v)))?);
    }
    Ok(Doc {
        variants,
        generated,
    })
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/specs")
}

/// The document population: the `.has` corpus (sorted by file name) and
/// the generated specs.
fn documents(tiny: bool) -> Result<Vec<Doc>, String> {
    let mut docs = Vec::new();
    if !tiny {
        let dir = corpus_dir();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "has"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            docs.push(doc(text, false).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    let seeds = if tiny {
        &FUZZ_SEEDS[..TINY_FUZZ_DOCS]
    } else {
        &FUZZ_SEEDS[..]
    };
    for &seed in seeds {
        let text = format_spec(&verifas::fuzzgen::gen_spec_file(seed));
        docs.push(doc(text, true).map_err(|e| format!("generated spec {seed}: {e}"))?);
    }
    Ok(docs)
}

fn limits() -> VerifierOptions {
    VerifierOptions {
        limits: SearchLimits {
            max_states: MAX_STATES,
            max_millis: MAX_MILLIS,
        },
        ..VerifierOptions::default()
    }
}

/// A `/v1/verify` body.
fn request_body(text: &str, class: &str, property: Option<&str>) -> String {
    let mut members = vec![
        ("spec".to_owned(), Json::Str(text.to_owned())),
        ("class".to_owned(), Json::Str(class.to_owned())),
        ("max_states".to_owned(), Json::Num(MAX_STATES as f64)),
        ("max_millis".to_owned(), Json::Num(MAX_MILLIS as f64)),
    ];
    if let Some(property) = property {
        members.push((
            "properties".to_owned(),
            Json::Arr(vec![Json::Str(property.to_owned())]),
        ));
    }
    Json::Obj(members).to_string()
}

fn start_server() -> Result<Server, String> {
    let config = ServeConfig {
        cores: CORES,
        ..ServeConfig::default()
    };
    Server::start("127.0.0.1:0", config, SERVER_WORKERS)
        .map_err(|e| format!("cannot start the server: {e}"))
}

/// Everything built before the first timed request.
pub struct Setup {
    docs: Vec<Doc>,
    pins: Pins,
    server: Server,
    seed: u64,
}

impl Setup {
    /// Read and compile the documents, load the pins, start the server
    /// and send it one warm-up request.
    pub fn new(opts: &Options, pins_path: &Path) -> Result<Setup, String> {
        let docs = documents(opts.tiny)?;
        let pins = Pins::load(pins_path)?;
        let server = start_server()?;
        let warm_up = format_spec(&verifas::fuzzgen::gen_spec_file(WARM_UP_SEED));
        let response = http::request(
            server.local_addr(),
            "POST",
            "/v1/verify",
            &request_body(&warm_up, "interactive", None),
        )
        .map_err(|e| format!("warm-up request: {e}"))?;
        if response.status != 200 {
            return Err(format!("warm-up request answered {}", response.status));
        }
        Ok(Setup {
            docs,
            pins,
            server,
            seed: opts.seed,
        })
    }

    /// Fingerprint of the draw: the sources and properties of the first
    /// requests of both clients' scripts.
    fn draw(&self) -> u64 {
        let (mut script, mut laps) = self.scripts();
        let mut steps = Vec::new();
        for _ in 0..64 {
            let (doc, variant, property) = script.next(&self.docs);
            let source = &self.docs[doc].variants[variant];
            steps.push(format!("{}|{}", source.hash, source.properties[property]));
            steps.push(self.docs[laps.next()].variants[0].hash.clone());
        }
        fingerprint(steps.iter().map(String::as_str))
    }

    /// The seeded scripts of the interactive and the batch client.
    fn scripts(&self) -> (Script, Laps) {
        let generated = (0..self.docs.len())
            .filter(|&d| self.docs[d].generated)
            .collect();
        (
            Script::new(self.seed, self.docs.len()),
            Laps::new(self.seed.wrapping_mul(2) + 2, generated),
        )
    }

    /// Drive a server for `seconds`, alternating one batch and one
    /// interactive request; returns the request records in send order,
    /// the distinct served reports and the window length.
    fn window(&self, addr: SocketAddr, seconds: u64) -> (Vec<Record>, Served, f64) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs(seconds);
        let mut served = Served::default();
        let mut records = Vec::new();
        let (mut script, mut laps) = self.scripts();
        while Instant::now() < deadline {
            let doc = laps.next();
            let body = request_body(&self.docs[doc].variants[0].text, "batch", None);
            let batch = Record::send(addr, &body, Class::Batch, (doc, 0), None, &mut served);
            records.push(batch);
            let (doc, variant, property) = script.next(&self.docs);
            let src = &self.docs[doc].variants[variant];
            let body = request_body(&src.text, "interactive", Some(&src.properties[property]));
            let source = (doc, variant);
            let interactive = Record::send(
                addr,
                &body,
                Class::Interactive,
                source,
                Some(property),
                &mut served,
            );
            records.push(interactive);
        }
        (records, served, start.elapsed().as_secs_f64())
    }

    /// The untraced run.
    pub fn run(&self, opts: &Options) -> Result<RunResult, String> {
        let (records, served, window_s) = self.window(self.server.local_addr(), opts.seconds);
        let mut result = RunResult {
            draw: self.draw(),
            ..RunResult::default()
        };
        self.verify(&records, &served, &mut result);
        let interactive: Vec<&Record> = records
            .iter()
            .filter(|r| r.class == Class::Interactive)
            .collect();
        let first_report: Vec<f64> = interactive
            .iter()
            .filter_map(|r| r.first_report_ms())
            .collect();
        let done: Vec<f64> = interactive.iter().filter_map(|r| r.done_ms()).collect();
        let completed = records.iter().filter(|r| r.done.is_some()).count();
        let reports: Vec<&VerificationReport> = served.of(&records).collect();
        let decided = reports
            .iter()
            .filter(|r| r.outcome != VerificationOutcome::Inconclusive)
            .count();
        let states: usize = reports
            .iter()
            .map(|r| r.stats.states_created + r.repeated_stats.map_or(0, |s| s.states_created))
            .sum();
        let n = reports.len();
        result.push("peak_rss_mb", peak_rss_mb(), "MiB", 0);
        result.push("decided_frac", ratio(decided as f64, n as f64), "ratio", n);
        result.push("checks_per_s", n as f64 / window_s, "1/s", n);
        result.push(
            "check_ms_p50",
            quantile(&first_report, 0.5),
            "ms",
            first_report.len(),
        );
        result.push(
            "check_ms_p90",
            quantile(&first_report, 0.9),
            "ms",
            first_report.len(),
        );
        result.push("states_per_s", states as f64 / window_s, "1/s", n);
        result.push("req_per_s", completed as f64 / window_s, "1/s", completed);
        result.push("done_ms_p50", quantile(&done, 0.5), "ms", done.len());
        result.push("done_ms_p90", quantile(&done, 0.9), "ms", done.len());
        Ok(result)
    }

    /// The traced run: an untraced window and a traced window on fresh
    /// servers with the same script (their latency ratio is the tracing
    /// overhead), `/metrics` and counter deltas around the traced window,
    /// then a replay of the traced window's layer calls — parse, resolve,
    /// load or delta load, warm, report encode — on the same sources.
    pub fn run_traced(&self, opts: &Options) -> Result<(RunResult, Tracer), String> {
        let untraced = {
            let server = start_server()?;
            self.window(server.local_addr(), opts.seconds).0
        };
        let server = start_server()?;
        let addr = server.local_addr();
        let scrape = || -> Result<HashMap<String, f64>, String> {
            let response = http::request(addr, "GET", "/metrics", "")
                .map_err(|e| format!("GET /metrics: {e}"))?;
            Ok(parse_metrics(&response.lines))
        };
        let before_metrics = scrape()?;
        let before_counters = (counters::universe_builds(), counters::spec_graph_builds());
        let (records, served, _) = self.window(addr, opts.seconds);
        let after_counters = (counters::universe_builds(), counters::spec_graph_builds());
        let after_metrics = scrape()?;
        drop(server);
        let delta = |name: &str| {
            after_metrics.get(name).copied().unwrap_or(0.0)
                - before_metrics.get(name).copied().unwrap_or(0.0)
        };

        let mut result = RunResult {
            draw: self.draw(),
            ..RunResult::default()
        };
        self.verify(&records, &served, &mut result);
        let n = records.len() as f64;
        let mut tracer = Tracer::new();
        self.replay(&records, &served, &mut tracer);
        let own = tracer.self_times();
        let mut layers = Layers::default();
        for (metric, span) in [
            ("spec.parse_us", "spec.parse"),
            ("spec.resolve_us", "spec.resolve"),
            ("engine.load_us", "engine.load"),
            ("engine.load_delta_us", "engine.load_delta"),
            ("preproc.warm_us", "preproc.warm"),
            ("report.encode_us", "report.encode"),
        ] {
            layers.set(metric, own.get(span).copied().unwrap_or(0.0) / n);
        }
        let source_bytes: usize = records.iter().map(|r| self.source(r).text.len()).sum();
        layers.set("spec.source_bytes", source_bytes as f64 / n);
        let hits = delta("verifas_session_cache_lookups_total{result=\"hit\"}");
        let misses = delta("verifas_session_cache_lookups_total{result=\"miss\"}");
        let upgrades = delta("verifas_session_cache_upgrades_total");
        layers.set("engine.loads", (misses - upgrades) / n);
        layers.set("engine.delta_loads", upgrades / n);
        layers.set("serve.session_hit_ratio", ratio(hits, hits + misses));
        layers.set("serve.upgrades", upgrades / n);
        layers.set(
            "serve.reports_reused",
            delta("verifas_delta_reports_reused_total") / n,
        );
        layers.set(
            "serve.memo_hits",
            delta("verifas_delta_memo_enumerations_total{result=\"hit\"}") / n,
        );
        layers.set(
            "preproc.universe_builds",
            (after_counters.0 - before_counters.0) as f64 / n,
        );
        layers.set(
            "preproc.spec_graph_builds",
            (after_counters.1 - before_counters.1) as f64 / n,
        );
        // Search times happen inside the server and are not traced here;
        // the counts are those of the served reports (a report answered
        // from the session cache repeats its original counts).
        let reports: Vec<&VerificationReport> = served.of(&records).collect();
        layers.add_report_counts(&reports, n);
        let report_bytes: usize = records.iter().map(|r| r.report_bytes).sum();
        layers.set(
            "report.bytes",
            ratio(report_bytes as f64, reports.len() as f64),
        );

        let p50 = |f: &dyn Fn(&Record) -> Option<f64>| {
            quantile(&records.iter().filter_map(f).collect::<Vec<_>>(), 0.5)
        };
        let since_sent = |r: &Record, at: Option<Instant>| at.map(|t| ms(t - r.sent));
        layers.set("serve.admitted_ms_p50", p50(&|r| since_sent(r, r.admitted)));
        layers.set(
            "serve.queue_wait_ms_p50",
            p50(&|r| r.admitted.map(|a| r.queued.map_or(0.0, |q| ms(a - q)))),
        );
        let queued = records.iter().filter(|r| r.queued.is_some()).count();
        layers.set("serve.queued_frac", ratio(queued as f64, n));
        layers.set(
            "serve.stream_ms_p50",
            p50(&|r| Some(ms(r.done? - r.admitted?))),
        );
        layers.set("serve.ttfb_ms_p50", p50(&|r| since_sent(r, r.first_byte)));
        layers.set(
            "serve.batch_done_ms_p50",
            p50(&|r| (r.class == Class::Batch).then(|| r.done_ms())?),
        );
        let frame_bytes: usize = records.iter().map(|r| r.frame_bytes).sum();
        layers.set("serve.frame_bytes", frame_bytes as f64 / n);
        let error_frames: usize = records.iter().map(|r| r.error_frames).sum();
        layers.set("serve.error_frames", error_frames as f64);
        let latency = |records: &[Record]| {
            mean(
                &records
                    .iter()
                    .filter_map(Record::done_ms)
                    .collect::<Vec<_>>(),
            )
        };
        let (traced_ms, untraced_ms) = (latency(&records), latency(&untraced));
        layers.set(
            "trace.overhead_frac",
            ratio(traced_ms - untraced_ms, untraced_ms),
        );
        result.metrics = layer_metrics(&layers);
        Ok((result, tracer))
    }

    fn source(&self, record: &Record) -> &Source {
        &self.docs[record.source.0].variants[record.source.1]
    }

    /// Check every record: a 200 response ending in a complete `done`
    /// frame with no error frame, and every served report equal to both
    /// a direct `Engine::check` and the pin.
    fn verify(&self, records: &[Record], served: &Served, result: &mut RunResult) {
        result.attempted = records.len();
        let mut direct = DirectOracle::default();
        // Each distinct (source, served report) pair is checked once.
        let mut checked: HashMap<(&str, usize), Result<(), String>> = HashMap::new();
        for record in records {
            let source = self.source(record);
            let mut problems = record.problems.clone();
            for report in &record.reports {
                let id = match report {
                    Ok(id) => *id,
                    Err(e) => {
                        problems.push(e.clone());
                        continue;
                    }
                };
                let verdict = checked.entry((source.hash.as_str(), id)).or_insert_with(|| {
                    let ServedReport { report, comparable } = &served.reports[id];
                    let key = format!("{}|{}", source.hash, report.property);
                    let reference = direct.check(source, &report.property)?;
                    if &reference != comparable {
                        return Err(format!(
                            "{key}: served report differs from a direct check\n  direct {reference}\n  served {comparable}"
                        ));
                    }
                    self.pins.check(&key, comparable)
                });
                if let Err(why) = verdict {
                    problems.push(why.clone());
                }
            }
            if let Some(first) = problems.into_iter().next() {
                result.fail(format!("request for document {:?}: {first}", record.source));
            }
        }
    }

    /// Re-run, from the benchmark, the layer calls the server made for
    /// each recorded request — parse, resolve, a cold load or a delta
    /// load (as the `admitted` frame reported), warm, and report encode —
    /// with one span each.
    fn replay(&self, records: &[Record], served: &Served, tracer: &mut Tracer) {
        // The replay's sessions, by spec hash, and the latest engine of
        // each document (the prior of its next delta load).
        let mut sessions: HashMap<&str, Arc<Engine>> = HashMap::new();
        let mut latest: HashMap<usize, Arc<Engine>> = HashMap::new();
        for (id, record) in records.iter().enumerate() {
            let id = id as u64 + 1;
            let src = self.source(record);
            let t0 = Instant::now();
            let root = tracer.record("request", t0, t0, None, id);
            let file = parse(&src.text);
            let t1 = Instant::now();
            tracer.record("spec.parse", t0, t1, Some(root), id);
            let Ok(compiled) = file.and_then(|f| resolve(&f)) else {
                continue;
            };
            let t2 = Instant::now();
            tracer.record("spec.resolve", t1, t2, Some(root), id);
            let cached = sessions.get(src.hash.as_str()).cloned();
            let engine = match (record.reuse.as_deref(), cached) {
                (Some("session"), Some(engine)) => engine,
                (reuse, _) => {
                    let prior = latest
                        .get(&record.source.0)
                        .filter(|_| matches!(reuse, Some("preproc" | "replay")));
                    let (engine, span) = match prior {
                        Some(prior) => (
                            Engine::load_delta(prior, compiled.spec, ReuseMode::Preproc)
                                .map(|(engine, _)| engine),
                            "engine.load_delta",
                        ),
                        None => (
                            Engine::load_with_options(compiled.spec, limits()),
                            "engine.load",
                        ),
                    };
                    tracer.record(span, t2, Instant::now(), Some(root), id);
                    let Ok(engine) = engine else { continue };
                    Arc::new(engine)
                }
            };
            sessions.insert(src.hash.as_str(), Arc::clone(&engine));
            latest.insert(record.source.0, Arc::clone(&engine));
            let wanted = record.property.map(|i| src.properties[i].as_str());
            for property in &compiled.properties {
                if wanted.is_some_and(|name| name != property.name) {
                    continue;
                }
                let w0 = Instant::now();
                let _ = engine.warm(property);
                tracer.record("preproc.warm", w0, Instant::now(), Some(root), id);
            }
            for id_report in record.reports.iter().flatten() {
                let e0 = Instant::now();
                std::hint::black_box(served.reports[*id_report].report.to_json());
                tracer.record("report.encode", e0, Instant::now(), Some(root), id);
            }
            tracer.set_end(root, Instant::now());
        }
    }
}

/// Direct `Engine::check` results of served (source, property) pairs.
#[derive(Default)]
struct DirectOracle {
    engines: HashMap<String, (Engine, Vec<verifas::ltl::LtlFoProperty>)>,
}

impl DirectOracle {
    fn check(&mut self, source: &Source, property: &str) -> Result<String, String> {
        if !self.engines.contains_key(&source.hash) {
            let compiled = verifas::spec::compile(&source.text).map_err(|e| e.to_string())?;
            let engine =
                Engine::load_with_options(compiled.spec, limits()).map_err(|e| e.to_string())?;
            self.engines
                .insert(source.hash.clone(), (engine, compiled.properties));
        }
        let (engine, properties) = &self.engines[&source.hash];
        let property = properties
            .iter()
            .find(|p| p.name == property)
            .ok_or_else(|| format!("{}: no property {property}", source.hash))?;
        engine
            .check(property)
            .map(|r| comparable(&r))
            .map_err(|e| e.to_string())
    }
}

/// Regenerate the `serve-edit-loop` pin: a direct check of every
/// property of every variant of every document.
pub fn expected(opts: &Options) -> Result<Vec<(String, String)>, String> {
    let mut oracle = DirectOracle::default();
    let mut entries = Vec::new();
    for doc in documents(opts.tiny)? {
        for source in &doc.variants {
            for property in &source.properties {
                entries.push((
                    format!("{}|{property}", source.hash),
                    oracle.check(source, property)?,
                ));
            }
        }
    }
    Ok(entries)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Interactive,
    Batch,
}

/// Endless laps over a fixed list, each lap in a fresh seeded order: the
/// seed changes the order, never the mix.
struct Laps {
    rng: verifas::fuzzgen::Lcg,
    items: Vec<usize>,
    pos: usize,
}

impl Laps {
    fn new(seed: u64, items: Vec<usize>) -> Laps {
        Laps {
            rng: verifas::fuzzgen::Lcg::from_seed(seed),
            pos: items.len(),
            items,
        }
    }

    fn next(&mut self) -> usize {
        if self.pos == self.items.len() {
            shuffle(&mut self.rng, &mut self.items);
            self.pos = 0;
        }
        self.pos += 1;
        self.items[self.pos - 1]
    }
}

/// One editing episode on a document, as (variant, property slot): open
/// it and ask for property P, resubmit exactly (a session hit answered
/// from the report cache), ask for property Q (a hit with a fresh
/// search), edit and ask for P (a delta upgrade), edit again and ask for
/// Q, and resubmit that exactly.
const EPISODE: [(usize, bool); 6] = [
    (0, false),
    (0, false),
    (0, true),
    (1, false),
    (2, true),
    (2, true),
];

/// The interactive client's seeded edit script: episodes over every
/// document in laps.
struct Script {
    docs: Laps,
    rng: verifas::fuzzgen::Lcg,
    step: usize,
    doc: usize,
    /// Property indices of slots P and Q.
    slots: (usize, usize),
}

impl Script {
    fn new(seed: u64, docs: usize) -> Script {
        Script {
            docs: Laps::new(seed.wrapping_mul(2) + 1, (0..docs).collect()),
            rng: verifas::fuzzgen::Lcg::from_seed(seed.wrapping_mul(2) + 3),
            step: 0,
            doc: 0,
            slots: (0, 0),
        }
    }

    /// The next (document, variant, property index).
    fn next(&mut self, docs: &[Doc]) -> (usize, usize, usize) {
        if self.step == 0 {
            self.doc = self.docs.next();
            let count = docs[self.doc].variants[0].properties.len();
            let p = self.rng.below(count);
            let q = if count > 1 {
                (p + 1 + self.rng.below(count - 1)) % count
            } else {
                p
            };
            self.slots = (p, q);
        }
        let (variant, q) = EPISODE[self.step];
        self.step = (self.step + 1) % EPISODE.len();
        let property = if q { self.slots.1 } else { self.slots.0 };
        (self.doc, variant, property)
    }
}

/// One distinct served report.
struct ServedReport {
    report: VerificationReport,
    comparable: String,
}

/// The distinct reports served in a window, to both streams (a
/// report answered from the session cache is the same report again).
#[derive(Default)]
struct Served {
    index: HashMap<String, usize>,
    reports: Vec<ServedReport>,
}

impl Served {
    /// Intern the report of one `report` frame.
    fn intern(&mut self, frame: &str) -> Result<usize, String> {
        let frame = Json::parse(frame).map_err(|e| format!("bad report frame: {e}"))?;
        let Some(report) = frame.get("report") else {
            return Err(format!(
                "error report frame: {}",
                frame.get("error").and_then(Json::as_str).unwrap_or("?")
            ));
        };
        let report = VerificationReport::from_json(&report.to_string())
            .map_err(|e| format!("unparsable report: {e}"))?;
        let comparable = comparable(&report);
        let next = self.reports.len();
        let id = *self.index.entry(comparable.clone()).or_insert(next);
        if id == next {
            self.reports.push(ServedReport { report, comparable });
        }
        Ok(id)
    }

    /// Every report the records received, in order.
    fn of<'a>(&'a self, records: &'a [Record]) -> impl Iterator<Item = &'a VerificationReport> {
        records
            .iter()
            .flat_map(|r| r.reports.iter().flatten())
            .map(|&id| &self.reports[id].report)
    }
}

/// One sent request and what came back.
struct Record {
    class: Class,
    /// (document, variant).
    source: (usize, usize),
    /// Requested property index (interactive requests only).
    property: Option<usize>,
    sent: Instant,
    first_byte: Option<Instant>,
    queued: Option<Instant>,
    admitted: Option<Instant>,
    /// The `reuse` member of the `admitted` frame.
    reuse: Option<String>,
    first_report: Option<Instant>,
    done: Option<Instant>,
    /// Served report ids (an `Err` for a report frame carrying an error).
    reports: Vec<Result<usize, String>>,
    frame_bytes: usize,
    report_bytes: usize,
    error_frames: usize,
    /// Transport and protocol problems (report contents are checked
    /// after the window).
    problems: Vec<String>,
}

impl Record {
    /// Send one request and read its response; the report frames are
    /// interned after the response has ended, outside its timings.
    fn send(
        addr: SocketAddr,
        body: &str,
        class: Class,
        source: (usize, usize),
        property: Option<usize>,
        served: &mut Served,
    ) -> Record {
        let sent = Instant::now();
        let mut record = Record {
            class,
            source,
            property,
            sent,
            first_byte: None,
            queued: None,
            admitted: None,
            reuse: None,
            first_report: None,
            done: None,
            reports: Vec::new(),
            frame_bytes: 0,
            report_bytes: 0,
            error_frames: 0,
            problems: Vec::new(),
        };
        let response = match http::request(addr, "POST", "/v1/verify", body) {
            Ok(response) => response,
            Err(e) => {
                record.problems.push(format!("transport error: {e}"));
                return record;
            }
        };
        if response.status != 200 {
            record
                .problems
                .push(format!("HTTP status {}", response.status));
        }
        record.first_byte = Some(response.first_byte);
        let mut last = "";
        for (at, line) in &response.lines {
            record.frame_bytes += line.len() + 1;
            last = line;
            match frame_kind(line) {
                "queued" => record.queued = record.queued.or(Some(*at)),
                "admitted" => {
                    record.admitted = Some(*at);
                    record.reuse = Json::parse(line).ok().and_then(|frame| {
                        frame.get("reuse").and_then(Json::as_str).map(str::to_owned)
                    });
                }
                "report" => {
                    record.first_report = record.first_report.or(Some(*at));
                    record.report_bytes += line.len();
                    let id = served.intern(line);
                    record.error_frames += id.is_err() as usize;
                    record.reports.push(id);
                }
                "done" => record.done = Some(*at),
                "error" => {
                    record.error_frames += 1;
                    record.problems.push(format!("error frame: {line}"));
                }
                _ => {}
            }
        }
        record.check_done(last);
        record
    }

    /// The stream must end in a `done` frame for a complete batch.
    fn check_done(&mut self, last: &str) {
        if frame_kind(last) != "done" {
            self.problems
                .push("stream did not end with a done frame".to_owned());
            return;
        }
        let frame = Json::parse(last).ok();
        let summary = frame.as_ref().and_then(|f| f.get("summary"));
        let field = |name: &str| summary.and_then(|s| s.get(name));
        let count = |name: &str| field(name).and_then(Json::as_u64);
        if count("completed") != count("properties")
            || count("errors") != Some(0)
            || field("aborted").and_then(Json::as_bool) != Some(false)
        {
            self.problems.push(format!("incomplete batch: {last}"));
        }
    }

    fn first_report_ms(&self) -> Option<f64> {
        self.first_report.map(|t| ms(t - self.sent))
    }

    fn done_ms(&self) -> Option<f64> {
        self.done.map(|t| ms(t - self.sent))
    }
}

/// Parse a Prometheus text exposition into `name{labels}` → value.
fn parse_metrics(lines: &[(Instant, String)]) -> HashMap<String, f64> {
    lines
        .iter()
        .filter(|(_, l)| !l.starts_with('#'))
        .filter_map(|(_, l)| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on.  Every request hands work from the client
/// to a connection worker to the search and back.  Across two CPUs each
/// hand-off can wait for the host to wake an idle virtual CPU, and on a
/// shared 2-vCPU VM that wait, not the program, set the latency: over
/// five seeds of 30 s, run in turn, the latency percentiles spread
/// (IQR/median) 0.66–1.05 unpinned and 0.08–0.11 pinned.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: each call reads or writes at most `size` bytes of its mask.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", io::Error::last_os_error()));
    }
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or("sched_getaffinity returned no CPU")?;
    let mut one = [0u64; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", io::Error::last_os_error()));
    }
    Ok(())
}
