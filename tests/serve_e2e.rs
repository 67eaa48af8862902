//! End-to-end tests of the `verifas serve` service layer.
//!
//! The server's whole value proposition is that putting a multi-tenant
//! gateway, a session cache and a core arbiter between the client and
//! the engine changes *nothing* about the answers: every report that
//! comes out of a served request must be bit-identical (modulo timing
//! and machine-sharing fields) to a direct `Engine::check_all` of the
//! same properties — including when an interactive request lands
//! mid-batch and steals cores from the running searches.  These tests
//! pin exactly that, plus the cache-reuse guarantee (a re-submitted
//! spec builds zero new preprocessing, observed through
//! `verifas::core::counters`), admission queueing with typed overflow
//! refusals, server-side cancellation, shutdown and client-disconnect
//! resource reclamation, and the HTTP front end.

use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use verifas::core::{counters, Json};
use verifas::prelude::*;
use verifas::serve::{AdmissionLimits, Gateway, PriorityClass, ServeConfig, Server, VerifyRequest};
use verifas::ReuseMode;

/// The preprocessing counters are process-wide, so a test that reads them
/// across a window must not overlap another test's engine loads.  Every
/// test holds this lock: shared by default, exclusively around a window.
static COUNTERS: RwLock<()> = RwLock::new(());

fn shared_counters() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

fn example(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/specs")
        .join(name);
    std::fs::read_to_string(&path).expect("example spec exists")
}

/// A report's scheduling-independent core (same idiom as the
/// `batch_scheduling` suite): verdict, witness and search statistics
/// with timing and machine-sharing fields stripped.
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

fn request(spec: &str, class: PriorityClass) -> VerifyRequest {
    VerifyRequest {
        spec: spec.to_owned(),
        class,
        properties: None,
        deadline_ms: None,
        max_states: None,
        max_millis: None,
    }
}

/// Submit synchronously, collecting every frame.
fn collect(gateway: &Gateway, request: &VerifyRequest) -> Vec<Json> {
    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| frames.lock().unwrap().push(Json::parse(line).unwrap());
    gateway
        .submit(request, &sink)
        .expect("request should be served");
    frames.into_inner().unwrap()
}

fn frame_kind(frame: &Json) -> &str {
    frame.get("frame").and_then(Json::as_str).unwrap()
}

/// Extract the streamed per-property reports, keyed by property index.
fn streamed_reports(frames: &[Json]) -> Vec<(usize, VerificationReport)> {
    frames
        .iter()
        .filter(|frame| frame_kind(frame) == "report")
        .map(|frame| {
            let index = frame.get("index").and_then(Json::as_u64).unwrap() as usize;
            let report = frame.get("report").expect("no error reports in this test");
            (
                index,
                VerificationReport::from_json(&report.to_string()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn resubmitted_spec_reuses_cached_session_and_matches_direct_check_all() {
    let _counters = COUNTERS.write().unwrap_or_else(PoisonError::into_inner);
    let source = example("conference_review.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let direct = Engine::load(compiled.spec.clone())
        .unwrap()
        .check_all(&compiled.properties);

    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    });
    let frames = collect(&gateway, &request(&source, PriorityClass::Interactive));

    // Frame shape: `admitted` first, `done` last, one `report` per
    // property in between, streamed in completion order.
    assert_eq!(frame_kind(&frames[0]), "admitted");
    assert_eq!(
        frames[0].get("session").and_then(Json::as_str),
        Some("miss")
    );
    assert_eq!(frame_kind(frames.last().unwrap()), "done");
    let reports = streamed_reports(&frames);
    assert_eq!(reports.len(), compiled.properties.len());

    // Served reports are bit-identical to the direct engine run.
    for (index, report) in &reports {
        assert_eq!(
            comparable(report),
            comparable(direct[*index].as_ref().unwrap()),
            "property #{index} must not change behind the server"
        );
    }

    // Re-submitting the same spec — reformatted, so the *text* differs —
    // lands on the cached session and builds no new preprocessing.
    let universe_before = counters::universe_builds();
    let graph_before = counters::spec_graph_builds();
    let reformatted = format!("// resubmission with different formatting\n{source}\n\n");
    let frames = collect(&gateway, &request(&reformatted, PriorityClass::Interactive));
    assert_eq!(
        frames[0].get("session").and_then(Json::as_str),
        Some("hit"),
        "format-equivalent spec must share the session"
    );
    assert_eq!(
        (counters::universe_builds(), counters::spec_graph_builds()),
        (universe_before, graph_before),
        "a cached session must serve the batch with zero new preprocessing"
    );
    for (index, report) in &streamed_reports(&frames) {
        assert_eq!(
            comparable(report),
            comparable(direct[*index].as_ref().unwrap())
        );
    }
    let stats = gateway.sessions().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

/// A long batch request is running; an interactive request arrives,
/// which makes the arbiter squeeze the batch to its one-core floor
/// mid-search (through the scheduler handle, picked up at the next
/// round boundary).  Scheduling rounds are bit-identical for any worker
/// count, so the batch's verdicts, witnesses and search statistics must
/// come out exactly as a direct `Engine::check_all` — that is the whole
/// safety argument for preemption-by-rebalance.
#[test]
fn interactive_arrival_mid_batch_never_changes_batch_results() {
    let _counters = shared_counters();
    let batch_source = example("conference_review.has");
    let compiled = verifas::spec::compile(&batch_source).unwrap();
    // Stretch the batch by requesting each property several times: 12
    // searches keep the batch in flight long after the interactive
    // request lands.
    let names: Vec<String> = compiled.properties.iter().map(|p| p.name.clone()).collect();
    let repeated: Vec<String> = std::iter::repeat_n(names.clone(), 6).flatten().collect();
    let selected: Vec<LtlFoProperty> = repeated
        .iter()
        .map(|name| {
            compiled
                .properties
                .iter()
                .find(|p| &p.name == name)
                .unwrap()
                .clone()
        })
        .collect();
    let direct = Engine::load(compiled.spec.clone())
        .unwrap()
        .check_all(&selected);

    let gateway = Arc::new(Gateway::new(ServeConfig {
        cores: 4,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    }));

    let mut batch_request = request(&batch_source, PriorityClass::Batch);
    batch_request.properties = Some(repeated.clone());
    let (frame_tx, frame_rx) = mpsc::channel::<String>();
    let batch_thread = {
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            let sink = move |line: &str| frame_tx.send(line.to_owned()).unwrap();
            gateway.submit(&batch_request, &sink).unwrap()
        })
    };

    // Wait for the batch to be admitted (it holds its arbiter slot from
    // this moment until its `done` frame), then hit the server with an
    // interactive request.
    let admitted = Json::parse(&frame_rx.recv().unwrap()).unwrap();
    assert_eq!(frame_kind(&admitted), "admitted");
    assert_eq!(admitted.get("cores").and_then(Json::as_u64), Some(4));

    let interactive_frames = collect(
        &gateway,
        &request(&example("loan_approval.has"), PriorityClass::Interactive),
    );
    // The interactive request was allocated the reclaimed cores: with
    // the batch squeezed to its one-core floor, 4 - 1 = 3 are left.
    assert_eq!(
        interactive_frames[0].get("cores").and_then(Json::as_u64),
        Some(3),
        "interactive admission must reclaim cores from the running batch"
    );
    assert_eq!(frame_kind(interactive_frames.last().unwrap()), "done");

    let summary = batch_thread.join().unwrap();
    assert_eq!(summary.properties, repeated.len());
    assert_eq!(summary.completed, repeated.len());
    assert!(!summary.aborted);

    let frames: Vec<Json> = frame_rx
        .iter()
        .map(|line| Json::parse(&line).unwrap())
        .collect();
    let reports = streamed_reports(&frames);
    assert_eq!(reports.len(), repeated.len());
    for (index, report) in &reports {
        assert_eq!(
            comparable(report),
            comparable(direct[*index].as_ref().unwrap()),
            "property #{index}: a mid-run core rebalance must never change the result"
        );
    }
}

#[test]
fn over_limit_batch_queues_and_only_queue_overflow_is_refused() {
    let _counters = shared_counters();
    let gateway = Arc::new(Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits {
            max_interactive: 2,
            max_batch: 1,
            queue_depth: 1,
        },
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    }));
    let source = example("conference_review.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let names: Vec<String> = compiled.properties.iter().map(|p| p.name.clone()).collect();

    let mut long_batch = request(&source, PriorityClass::Batch);
    long_batch.properties = Some(std::iter::repeat_n(names, 6).flatten().collect::<Vec<_>>());
    let (frame_tx, frame_rx) = mpsc::channel::<String>();
    let first_batch = {
        let gateway = Arc::clone(&gateway);
        std::thread::spawn(move || {
            let sink = move |line: &str| frame_tx.send(line.to_owned()).unwrap();
            gateway.submit(&long_batch, &sink).unwrap()
        })
    };
    let admitted = Json::parse(&frame_rx.recv().unwrap()).unwrap();
    assert_eq!(frame_kind(&admitted), "admitted");

    // A second batch-class request is over the in-flight limit: it is
    // *queued*, not refused — the client gets an immediate `queued`
    // frame with its position and a retry hint, and the request runs
    // once the first batch releases its slot.
    let (second_tx, second_rx) = mpsc::channel::<String>();
    let second_batch = {
        let gateway = Arc::clone(&gateway);
        let queued_request = request(&source, PriorityClass::Batch);
        std::thread::spawn(move || {
            let sink = move |line: &str| second_tx.send(line.to_owned()).unwrap();
            gateway.submit(&queued_request, &sink).unwrap()
        })
    };
    let queued = Json::parse(&second_rx.recv().unwrap()).unwrap();
    assert_eq!(frame_kind(&queued), "queued");
    assert_eq!(queued.get("class").and_then(Json::as_str), Some("batch"));
    assert_eq!(queued.get("position").and_then(Json::as_u64), Some(1));
    assert!(
        queued.get("retry_ms").and_then(Json::as_u64).unwrap() >= 50,
        "a queued frame must carry a usable retry hint"
    );

    // With one request running and one waiting (queue_depth 1), a third
    // batch arrival overflows the lane: the only refusal left, typed.
    let refused = gateway
        .submit(&request(&source, PriorityClass::Batch), &|_| {
            panic!("refused requests must not emit frames")
        })
        .unwrap_err();
    assert_eq!(
        refused,
        verifas::serve::ServeError::Overloaded {
            class: PriorityClass::Batch,
            limit: 1
        }
    );
    assert_eq!(refused.kind(), "overloaded");

    // The batch lane being full does not gate the interactive class.
    let frames = collect(
        &gateway,
        &request(&example("loan_approval.has"), PriorityClass::Interactive),
    );
    assert_eq!(frame_kind(frames.last().unwrap()), "done");

    let first_summary = first_batch.join().unwrap();
    assert!(!first_summary.aborted);
    let second_summary = second_batch.join().unwrap();
    assert!(
        !second_summary.aborted,
        "the queued request must run to completion once a slot frees"
    );
    let second_frames: Vec<Json> = second_rx
        .iter()
        .map(|line| Json::parse(&line).unwrap())
        .collect();
    assert!(
        second_frames.iter().any(|f| frame_kind(f) == "admitted"),
        "a queued request must still get its admitted frame"
    );
    // Both the queueing and the overflow refusal are visible on /metrics,
    // and the lane drained completely.
    let text = gateway.metrics_text();
    assert!(text.contains("verifas_requests_queued_total{class=\"batch\"} 1"));
    assert!(text.contains("verifas_requests_rejected_total{class=\"batch\"} 1"));
    assert_eq!(gateway.queue().queued_len(PriorityClass::Batch), 0);
    assert_eq!(gateway.queue().in_flight(PriorityClass::Batch), 0);
}

#[test]
fn server_side_cancel_stops_every_search_of_a_batch() {
    let _counters = shared_counters();
    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    });
    let source = example("parcel_returns.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let names: Vec<String> = compiled.properties.iter().map(|p| p.name.clone()).collect();
    let mut req = request(&source, PriorityClass::Batch);
    let repeated: Vec<String> = std::iter::repeat_n(names, 4).flatten().collect();
    req.properties = Some(repeated.clone());

    // Cancel through the *server's* cancel path the moment the request
    // is admitted: the one batch-wide token must stop every search.
    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| {
        let frame = Json::parse(line).unwrap();
        if frame_kind(&frame) == "admitted" {
            let id = frame.get("request").and_then(Json::as_u64).unwrap();
            assert!(gateway.cancel(id), "admitted request must be cancellable");
        }
        frames.lock().unwrap().push(frame);
    };
    let summary = gateway.submit(&req, &sink).unwrap();

    assert!(summary.aborted, "a cancelled batch must report aborted");
    assert_eq!(summary.cancelled, repeated.len());
    assert_eq!(summary.completed, 0);
    let frames = frames.into_inner().unwrap();
    let done = frames.last().unwrap();
    assert_eq!(frame_kind(done), "done");
    assert_eq!(
        done.get("summary")
            .and_then(|s| s.get("aborted"))
            .and_then(Json::as_bool),
        Some(true),
        "the terminal frame must distinguish an aborted stream from a finished one"
    );
    // The cancelled request released its slot: the server is not wedged.
    assert_eq!(gateway.arbiter().in_flight(PriorityClass::Batch), 0);
}

#[test]
fn per_request_deadline_rides_the_cancel_plumbing() {
    let _counters = shared_counters();
    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    });
    let mut req = request(
        &example("conference_review.has"),
        PriorityClass::Interactive,
    );
    req.deadline_ms = Some(0);
    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| frames.lock().unwrap().push(Json::parse(line).unwrap());
    let summary = gateway.submit(&req, &sink).unwrap();
    assert!(summary.aborted, "an expired deadline must abort the stream");
    assert_eq!(summary.completed, 0);
}

#[test]
fn http_round_trip_streams_reports_and_reuses_sessions() {
    use std::io::{Read, Write};
    let _counters = shared_counters();

    let mut server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            cores: 2,
            sessions: 4,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        },
        2,
    )
    .unwrap();
    let addr = server.local_addr();
    let source = example("order_fulfillment.has");
    let verify = |body: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let request = format!(
            "POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        body.lines()
            .map(|line| Json::parse(line).unwrap())
            .collect::<Vec<_>>()
    };
    let body = Json::Obj(vec![("spec".to_owned(), Json::Str(source.clone()))]).to_string();

    let first = verify(&body);
    assert_eq!(frame_kind(&first[0]), "admitted");
    assert_eq!(first[0].get("session").and_then(Json::as_str), Some("miss"));
    assert_eq!(frame_kind(first.last().unwrap()), "done");
    assert!(first.len() >= 3);

    let second = verify(&body);
    assert_eq!(
        second[0].get("session").and_then(Json::as_str),
        Some("hit"),
        "second HTTP submission must reuse the cached session"
    );

    let text = server.gateway().metrics_text();
    assert!(text.contains("verifas_session_cache_lookups_total{result=\"hit\"} 1"));
    assert!(text.contains("verifas_requests_admitted_total{class=\"interactive\"} 2"));
    server.shutdown();
}

/// Cancelling a request whose stream already finished is a clean no-op:
/// the id has left the active table, so `cancel` reports not-found
/// instead of poking a dead token (the completion/cancel race is
/// inherent, so not-found is an answer, not an error).
#[test]
fn cancel_after_done_is_a_not_found_no_op() {
    let _counters = shared_counters();
    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    });
    let frames = collect(
        &gateway,
        &request(&example("loan_approval.has"), PriorityClass::Interactive),
    );
    assert_eq!(frame_kind(frames.last().unwrap()), "done");
    let id = frames[0].get("request").and_then(Json::as_u64).unwrap();
    assert!(
        !gateway.cancel(id),
        "a finished request must no longer be cancellable"
    );
    assert!(
        !gateway.cancel(id + 1000),
        "an unknown id is the same no-op"
    );
    assert_eq!(gateway.arbiter().in_flight(PriorityClass::Interactive), 0);
}

/// Cancelling the same in-flight request twice is idempotent: both
/// calls find the request, the second re-fires an already-fired token,
/// and the stream still ends in exactly one aborted `done` frame with
/// every slot released.
#[test]
fn double_cancel_is_idempotent() {
    let _counters = shared_counters();
    let gateway = Gateway::new(ServeConfig {
        cores: 2,
        sessions: 4,
        limits: AdmissionLimits::default(),
        reuse: ReuseMode::Preproc,
        memory_bytes: 0,
    });
    let source = example("parcel_returns.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let names: Vec<String> = compiled.properties.iter().map(|p| p.name.clone()).collect();
    let mut req = request(&source, PriorityClass::Batch);
    req.properties = Some(std::iter::repeat_n(names, 4).flatten().collect::<Vec<_>>());

    let frames = Mutex::new(Vec::new());
    let sink = |line: &str| {
        let frame = Json::parse(line).unwrap();
        if frame_kind(&frame) == "admitted" {
            let id = frame.get("request").and_then(Json::as_u64).unwrap();
            assert!(gateway.cancel(id), "first cancel must find the request");
            assert!(
                gateway.cancel(id),
                "second cancel must be an idempotent hit"
            );
        }
        frames.lock().unwrap().push(frame);
    };
    let summary = gateway.submit(&req, &sink).unwrap();
    assert!(summary.aborted);
    assert_eq!(summary.completed, 0);
    let frames = frames.into_inner().unwrap();
    assert_eq!(
        frames
            .iter()
            .filter(|frame| frame_kind(frame) == "done")
            .count(),
        1,
        "a double-cancelled stream still ends in exactly one done frame"
    );
    assert_eq!(gateway.arbiter().in_flight(PriorityClass::Batch), 0);
    assert_eq!(gateway.queue().in_flight(PriorityClass::Batch), 0);
}

/// `Server::shutdown` with a request mid-stream: the in-flight batch is
/// cancelled (not leaked, not wedged), its client sees a well-formed
/// aborted `done` frame, and every thread joins.
#[test]
fn shutdown_with_inflight_requests_aborts_the_stream_and_joins() {
    use std::io::{BufRead, BufReader, Read, Write};
    let _counters = shared_counters();

    let mut server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            cores: 2,
            sessions: 4,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        },
        2,
    )
    .unwrap();
    let addr = server.local_addr();
    let source = example("conference_review.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let names: Vec<Json> = std::iter::repeat_n(&compiled.properties, 8)
        .flatten()
        .map(|p| Json::Str(p.name.clone()))
        .collect();
    let body = Json::Obj(vec![
        ("spec".to_owned(), Json::Str(source)),
        ("class".to_owned(), Json::Str("batch".to_owned())),
        ("properties".to_owned(), Json::Arr(names)),
    ])
    .to_string();

    let (admitted_tx, admitted_rx) = mpsc::channel::<()>();
    let client = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let http = format!(
            "POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        (&stream).write_all(http.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed before the body");
            if line == "\r\n" {
                break;
            }
        }
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        admitted_tx.send(()).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        let mut frames = vec![Json::parse(first.trim()).unwrap()];
        frames.extend(rest.lines().map(|l| Json::parse(l).unwrap()));
        frames
    });

    admitted_rx.recv().unwrap();
    server.shutdown();
    let frames = client.join().unwrap();
    assert_eq!(frame_kind(&frames[0]), "admitted");
    let done = frames.last().unwrap();
    assert_eq!(frame_kind(done), "done");
    assert_eq!(
        done.get("summary")
            .and_then(|s| s.get("aborted"))
            .and_then(Json::as_bool),
        Some(true),
        "shutdown must abort the in-flight stream, not truncate it"
    );
    let text = server.gateway().metrics_text();
    assert!(text.contains("verifas_requests_in_flight{class=\"batch\"} 0"));
    assert!(text.contains("verifas_queue_depth{class=\"batch\"} 0"));
}

/// A client that hangs up mid-stream costs the server at most the rest
/// of that batch: the searches run their course with writes swallowed,
/// after which the request guard reclaims the cores, the admission
/// slot, and the in-flight gauges — and the server keeps serving.
#[test]
fn client_disconnect_mid_stream_reclaims_cores_and_gauges() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};
    let _counters = shared_counters();

    let mut server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            cores: 2,
            sessions: 4,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        },
        2,
    )
    .unwrap();
    let addr = server.local_addr();
    let source = example("conference_review.has");
    let compiled = verifas::spec::compile(&source).unwrap();
    let names: Vec<Json> = std::iter::repeat_n(&compiled.properties, 2)
        .flatten()
        .map(|p| Json::Str(p.name.clone()))
        .collect();
    let body = Json::Obj(vec![
        ("spec".to_owned(), Json::Str(source)),
        ("class".to_owned(), Json::Str("batch".to_owned())),
        ("properties".to_owned(), Json::Arr(names)),
    ])
    .to_string();

    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let http = format!(
            "POST /v1/verify HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        (&stream).write_all(http.as_bytes()).unwrap();
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed before the body");
            if line == "\r\n" {
                break;
            }
        }
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            frame_kind(&Json::parse(line.trim()).unwrap()),
            "admitted",
            "the stream must be live before we hang up on it"
        );
        // Scope end: the connection drops mid-stream.
    }

    // The batch finishes server-side (writes silently swallowed), after
    // which every gauge must return to zero.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if server.gateway().arbiter().in_flight(PriorityClass::Batch) == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnected client's request never released its slot"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let text = server.gateway().metrics_text();
    assert!(text.contains("verifas_requests_in_flight{class=\"batch\"} 0"));
    assert!(text.contains("verifas_requests_in_flight{class=\"interactive\"} 0"));
    assert!(text.contains("verifas_queue_depth{class=\"batch\"} 0"));

    // The server is still healthy and still answers.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    (&stream)
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    server.shutdown();
}
