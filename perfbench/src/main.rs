//! `perfbench` — the repository benchmark: three workloads against the
//! public API, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced run.  See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <paper-real|lattice-deep|serve-edit-loop> --seed N
//!           --seconds S --trace <0|1> [--size full|tiny] [--expected FILE]
//! perfbench --write-expected <paper-real|serve-edit-loop> [--size full|tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
//! only when every operation produced the expected output.

mod direct;
mod http;
mod measure;
mod pin;
mod serve;
mod trace;

use measure::{median, repeated_setup, Metric, RunResult};
use std::collections::BTreeMap;
use std::path::PathBuf;
use verifas::VerificationReport;

/// How many times set-up runs before the timed window, and again after
/// it in an untraced run.  `setup_s` is the median of all of them, so it
/// samples the host at both ends of the run: the host's speed can shift
/// by half within a run, and a burst of set-ups at the start sees only
/// one side of such a shift.
const SETUP_REPEATS: usize = 3;

/// Every per-layer metric with its unit, in output order.  Each traced
/// run reports all of them; a layer a workload never enters reads 0.
/// Times and counts are means per check (`paper-real`, `lattice-deep`)
/// or per request (`serve-edit-loop`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_us", "us"),
    ("spec.resolve_us", "us"),
    ("spec.source_bytes", "bytes"),
    ("engine.load_us", "us"),
    ("engine.load_delta_us", "us"),
    ("engine.loads", "count"),
    ("engine.delta_loads", "count"),
    ("preproc.warm_us", "us"),
    ("preproc.universe_builds", "count"),
    ("preproc.spec_graph_builds", "count"),
    ("search.us", "us"),
    ("search.plan_busy_us", "us"),
    ("search.apply_us", "us"),
    ("search.states", "count"),
    ("search.skipped", "count"),
    ("search.pruned", "count"),
    ("search.accelerations", "count"),
    ("search.stored_types", "count"),
    ("search.kept_ratio", "ratio"),
    ("repeated.aux_us", "us"),
    ("repeated.aux_states", "count"),
    ("repeated.cycle_us", "us"),
    ("repeated.edge_us", "us"),
    ("repeated.scc_us", "us"),
    ("repeated.successors", "count"),
    ("repeated.candidates", "count"),
    ("repeated.candidate_hit_rate", "ratio"),
    ("repeated.edges", "count"),
    ("repeated.sccs", "count"),
    ("check.other_us", "us"),
    ("check.us", "us"),
    ("report.encode_us", "us"),
    ("report.bytes", "bytes"),
    ("serve.admitted_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queued_frac", "ratio"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.ttfb_ms_p50", "ms"),
    ("serve.batch_done_ms_p50", "ms"),
    ("serve.session_hit_ratio", "ratio"),
    ("serve.upgrades", "count"),
    ("serve.reports_reused", "count"),
    ("serve.memo_hits", "count"),
    ("serve.frame_bytes", "bytes"),
    ("serve.error_frames", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Command-line options of one run.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tiny: bool,
    pub expected: Option<PathBuf>,
    pub write_expected: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
        expected: None,
        write_expected: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--write-expected" => {
                opts.workload = value()?;
                opts.write_expected = true;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                opts.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--expected" => opts.expected = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

/// Fisher–Yates shuffle driven by the run seed's generator.
pub fn shuffle<T>(rng: &mut verifas::fuzzgen::Lcg, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Per-layer values of one traced run, by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The deterministic search and cycle counts of `reports`, as means
    /// over `ops` operations.
    pub fn add_report_counts(&mut self, reports: &[&VerificationReport], ops: f64) {
        let per_op = |f: &dyn Fn(&VerificationReport) -> usize| {
            measure::ratio(reports.iter().map(|r| f(r) as f64).sum(), ops)
        };
        let cycle = |f: &dyn Fn(&verifas::CycleStats) -> usize| {
            per_op(&|r| r.repeated_cycle.as_ref().map_or(0, f))
        };
        let states = per_op(&|r| r.stats.states_created);
        let skipped = per_op(&|r| r.stats.states_skipped);
        self.set("search.states", states);
        self.set("search.skipped", skipped);
        self.set("search.pruned", per_op(&|r| r.stats.states_pruned));
        self.set("search.accelerations", per_op(&|r| r.stats.accelerations));
        self.set("search.stored_types", per_op(&|r| r.stats.stored_types));
        self.set(
            "search.kept_ratio",
            measure::ratio(states, states + skipped),
        );
        self.set(
            "repeated.aux_states",
            per_op(&|r| r.repeated_stats.map_or(0, |s| s.states_created)),
        );
        let (candidates, edges) = (cycle(&|c| c.candidates), cycle(&|c| c.edges));
        self.set("repeated.successors", cycle(&|c| c.successors));
        self.set("repeated.candidates", candidates);
        self.set("repeated.edges", edges);
        self.set("repeated.sccs", cycle(&|c| c.sccs));
        self.set(
            "repeated.candidate_hit_rate",
            measure::ratio(edges, candidates),
        );
    }

    /// The in-engine timers of `reports` (planning busy time, cycle edge
    /// construction and SCC pass), as means over `ops` operations.
    pub fn add_report_timers(&mut self, reports: &[&VerificationReport], ops: f64) {
        let per_op = |f: &dyn Fn(&VerificationReport) -> u64| {
            measure::ratio(reports.iter().map(|r| f(r) as f64).sum(), ops)
        };
        self.set(
            "search.plan_busy_us",
            per_op(&|r| r.workers.iter().map(|w| w.busy_micros).sum()),
        );
        self.set(
            "repeated.edge_us",
            per_op(&|r| r.repeated_cycle.map_or(0, |c| c.edge_micros)),
        );
        self.set(
            "repeated.scc_us",
            per_op(&|r| r.repeated_cycle.map_or(0, |c| c.scc_micros)),
        );
    }
}

/// The traced run's metrics in [`PER_LAYER`] order.  `search.apply_us`
/// is derived here: the time of both Karp–Miller searches (main and
/// auxiliary) not spent planning.
pub fn layer_metrics(layers: &Layers) -> Vec<Metric> {
    let apply = (layers.get("search.us") + layers.get("repeated.aux_us")
        - layers.get("search.plan_busy_us"))
    .max(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: if name == "search.apply_us" {
                apply
            } else {
                layers.get(name)
            },
            unit,
            samples: 0,
        })
        .collect()
}

fn trace_path(opts: &Options) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", opts.workload, opts.seed))
}

fn run(opts: &Options) -> Result<RunResult, String> {
    let pins_path = || {
        opts.expected
            .clone()
            .unwrap_or_else(|| pin::default_path(&opts.workload))
    };
    let (result, tracer) = match opts.workload.as_str() {
        "paper-real" | "lattice-deep" => {
            let setup = || {
                let workload = if opts.workload == "paper-real" {
                    let pins = pin::Pins::load(&pins_path())?;
                    direct::paper_real(opts.seed, opts.tiny, pins)
                } else {
                    direct::lattice_deep(opts.seed, opts.tiny)
                };
                workload.warm_up();
                Ok::<_, String>(workload)
            };
            let (workload, mut setup_s) = repeated_setup(SETUP_REPEATS, setup);
            let workload = workload?;
            if opts.trace {
                let (result, tracer) = workload.run_traced(opts);
                (result, Some(tracer))
            } else {
                let result = workload.run(opts);
                setup_s.extend(repeated_setup(SETUP_REPEATS, setup).1);
                (with_setup(result, &setup_s), None)
            }
        }
        "serve-edit-loop" => {
            serve::pin_to_one_cpu()?;
            let new_setup = || serve::Setup::new(opts, &pins_path());
            let (setup, mut setup_s) = repeated_setup(SETUP_REPEATS, new_setup);
            let setup = setup?;
            if opts.trace {
                let (result, tracer) = setup.run_traced(opts)?;
                (result, Some(tracer))
            } else {
                let result = setup.run(opts)?;
                drop(setup);
                setup_s.extend(repeated_setup(SETUP_REPEATS, new_setup).1);
                (with_setup(result, &setup_s), None)
            }
        }
        other => return Err(format!("unknown workload {other}")),
    };
    if let Some(tracer) = tracer {
        let path = trace_path(opts);
        tracer
            .write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(result)
}

/// Put `setup_s`, the median of the timed set-ups, first in an untraced
/// result.
fn with_setup(mut result: RunResult, seconds: &[f64]) -> RunResult {
    let setup_s = Metric {
        name: "setup_s",
        value: median(seconds),
        unit: "s",
        samples: seconds.len(),
    };
    result.metrics.insert(0, setup_s);
    result
}

fn write_expected(opts: &Options) -> Result<(), String> {
    let path = opts
        .expected
        .clone()
        .unwrap_or_else(|| pin::default_path(&opts.workload));
    let (entries, header) = match opts.workload.as_str() {
        "paper-real" => (
            direct::paper_expected(opts.tiny)?,
            "paper-real regression pin: comparable report per <property>@<property seed>.",
        ),
        "serve-edit-loop" => (
            serve::expected(opts)?,
            "serve-edit-loop regression pin: comparable direct-check report per <spec hash>|<property>.",
        ),
        other => return Err(format!("{other} has no expected file")),
    };
    let header = format!(
        "{header}\nGenerated by `perfbench --write-expected {}`; a regression pin, not an independent oracle.",
        opts.workload
    );
    let count = entries.len();
    pin::write(&path, &header, entries).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {count} pins to {}", path.display());
    Ok(())
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if opts.write_expected {
        if let Err(e) = write_expected(&opts) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&opts) {
        Ok(result) => {
            result.print(&opts.workload, opts.seed, opts.trace);
            if result.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
