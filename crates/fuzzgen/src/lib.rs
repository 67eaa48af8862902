//! # verifas-fuzzgen — seeded spec generation + differential oracles
//!
//! The trust story of the optimised verifier rests on the reference
//! implementations the codebase deliberately retains: the pre-arena
//! state layout, the O(active²) repeated-reachability oracle, the
//! sequential search, the cold (non-incremental) load, the direct
//! in-process `check_all`.  This crate turns those retained oracles
//! into an automated differential harness:
//!
//! * [`gen`] — a seeded generator of random *valid-by-construction*
//!   specifications (schema → task hierarchy → services → LTL-FO
//!   properties, including Table-4 template instantiations), emitted as
//!   ASTs that print to canonical `.has` text,
//! * [`oracle`] — the matrix: every generated spec runs through each
//!   retained oracle arm and must agree bit for bit with the plain
//!   engine on verdicts, witnesses and deterministic statistics,
//! * [`shrink`](mod@shrink) — a greedy structural shrinker that minimizes any
//!   divergence to a small `.has` repro a human can read,
//! * [`sweep`] — the seed-range driver behind `verifas fuzz` and the CI
//!   `fuzz-smoke` job.
//!
//! Everything is deterministic: a seed plus a matrix selection fully
//! determines every byte the harness produces, so any failure line from
//! CI replays locally with `verifas fuzz --seeds N..N+1`.

pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod sweep;

pub use gen::gen_spec_file;
pub use oracle::{check_spec_file, run_seed, Divergence, FuzzConfig, OracleArm};
pub use rng::Lcg;
pub use shrink::{shrink, shrink_divergence};
pub use sweep::{run_sweep, SweepOutcome};
