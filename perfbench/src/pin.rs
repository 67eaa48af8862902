//! Expected-output pins.
//!
//! A pin file maps an input key to the deterministic part of its report:
//! verdict, witness, and both phases' search and cycle statistics, with
//! the wall-clock and scheduling fields scrubbed.  The files under
//! `perfbench/expected/` are *regression pins* generated by this program
//! (`--write-expected`) from the seed code: they catch any change in what
//! the verifier answers, but they are not an independent oracle of
//! whether those answers are right.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use verifas::VerificationReport;

/// The deterministic part of a report, as one JSON line.
pub fn comparable(report: &VerificationReport) -> String {
    let mut report = report.clone();
    for stats in std::iter::once(&mut report.stats).chain(report.repeated_stats.as_mut()) {
        stats.elapsed_ms = 0;
        stats.threads = 0;
    }
    if let Some(cycle) = report.repeated_cycle.as_mut() {
        cycle.edge_micros = 0;
        cycle.scc_micros = 0;
        cycle.threads = 0;
    }
    report.workers.clear();
    report.schedule = None;
    report.options.search_threads = 0;
    report.to_json()
}

/// Where a workload's committed pin lives.
pub fn default_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.tsv"))
}

/// A loaded pin file: key → comparable report.
pub struct Pins(HashMap<String, String>);

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read expected file {}: {e}", path.display()))?;
        let mut pins = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let (key, report) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed line in {}: {line}", path.display()))?;
            pins.insert(key.to_owned(), report.to_owned());
        }
        Ok(Pins(pins))
    }

    /// Compare a report against its pin; `Err` describes the mismatch.
    pub fn check(&self, key: &str, comparable: &str) -> Result<(), String> {
        match self.0.get(key) {
            None => Err(format!("{key}: no expected report pinned")),
            Some(expected) if expected == comparable => Ok(()),
            Some(expected) => Err(format!(
                "{key}: report differs from the pin\n  expected {expected}\n  got      {comparable}"
            )),
        }
    }
}

/// Write a pin file (sorted by key, so regenerating is diff-stable).
pub fn write(path: &Path, header: &str, mut entries: Vec<(String, String)>) -> std::io::Result<()> {
    entries.sort();
    entries.dedup();
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for (key, report) in entries {
        out.push_str(&key);
        out.push('\t');
        out.push_str(&report);
        out.push('\n');
    }
    std::fs::write(path, out)
}
