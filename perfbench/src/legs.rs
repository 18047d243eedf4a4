//! The threaded and simulator legs: one timed `run()` each, certified by
//! the oracle outside the timed region.

use crate::workloads::Workload;
use mvc_core::ViewId;
use mvc_whips::{Oracle, SimBuilder, SimError, SimReport, ThreadedBuilder};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Outcome of one leg run.
#[derive(Debug, Clone, Default)]
pub struct LegRun {
    /// Wall time of `run()`, seconds.
    pub wall_s: f64,
    /// Process user+system CPU during `run()`, seconds.
    pub cpu_s: f64,
    /// Updates offered.
    pub updates: u64,
    /// Updates of this run counted as failed (all of them when the run
    /// errored or a verdict failed).
    pub failed_updates: u64,
    /// Reader observations, and how many of them failed certification.
    pub reads: u64,
    pub failed_reads: u64,
    /// Why the run failed, if it did.
    pub failure: Option<String>,
    /// Final content fingerprint of every view.
    pub fingerprints: BTreeMap<ViewId, u64>,
    pub commits: u64,
    pub wal_fsyncs: u64,
    /// Time spent certifying the run (outside the timed region), seconds.
    pub check_s: f64,
    /// Simulator only: per-update latency in virtual steps.
    pub steps_mean: f64,
    pub steps_max: u64,
}

impl LegRun {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    fn failed(updates: u64, wall_s: f64, cpu_s: f64, why: String) -> Self {
        LegRun {
            wall_s,
            cpu_s,
            updates,
            failed_updates: updates,
            failure: Some(why),
            ..LegRun::default()
        }
    }
}

/// User+system CPU time of this process (every thread, live or joined),
/// seconds, from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn final_fingerprints(report: &SimReport) -> BTreeMap<ViewId, u64> {
    report
        .warehouse
        .view_ids()
        .filter_map(|v| report.warehouse.view(v).map(|r| (v, r.fingerprint())))
        .collect()
}

/// Oracle verdicts over one report: every merge group against the level
/// it guarantees and, with readers, every observed cut. Returns the
/// failure (if any) and the number of failed reads.
fn certify(report: &SimReport, readers: bool) -> (Option<String>, u64) {
    let oracle = match Oracle::new(report) {
        Ok(o) => o,
        Err(e) => return (Some(format!("oracle setup: {e}")), 0),
    };
    let mut failure = None;
    for (g, level, verdict) in oracle.check_report() {
        if !verdict.is_satisfied() {
            failure = Some(format!("group {g} failed {level}: {verdict}"));
        }
    }
    let mut failed_reads = 0;
    if readers {
        if let Err(v) = oracle.check_reads() {
            // The check stops at the first bad cut; count every read of
            // the run as failed.
            failed_reads = report.read_observations.len() as u64;
            failure.get_or_insert(format!("reader cut: {v}"));
        }
    }
    (failure, failed_reads)
}

fn outcome(
    w: &Workload,
    result: Result<SimReport, SimError>,
    wall_s: f64,
    cpu_s: f64,
    check: impl FnOnce(&SimReport) -> (Option<String>, u64),
) -> LegRun {
    let updates = w.updates as u64;
    let report = match result {
        Ok(r) => r,
        Err(e) => return LegRun::failed(updates, wall_s, cpu_s, e.to_string()),
    };
    let t0 = Instant::now();
    let (failure, failed_reads) = check(&report);
    let check_s = t0.elapsed().as_secs_f64();
    let m = &report.metrics;
    LegRun {
        wall_s,
        cpu_s,
        updates,
        failed_updates: if failure.is_some() { updates } else { 0 },
        reads: report.read_observations.len() as u64,
        failed_reads,
        failure,
        fingerprints: final_fingerprints(&report),
        commits: m.commits,
        check_s,
        wal_fsyncs: m.wal_fsyncs,
        steps_mean: m.update_latency_steps.mean(),
        steps_max: m.update_latency_steps.max,
    }
}

/// Time `ThreadedBuilder::run()` and certify its report.
pub fn threaded(w: &Workload, b: ThreadedBuilder, wal_path: &Path) -> LegRun {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let result = b.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let _ = std::fs::remove_file(wal_path);
    outcome(w, result.map(|(r, _)| r), wall_s, cpu_s, |r| {
        certify(r, w.readers > 0)
    })
}

/// Commit-by-commit record of a simulator run, which fixes its whole
/// history: equal signatures mean equal runs.
pub type SimSignature = Vec<BTreeMap<ViewId, u64>>;

/// Time `SimBuilder::run()`. The simulator is deterministic per seed: the
/// first run of a seed is certified by the oracle (`reference` is `None`)
/// and every later run must reproduce its commit history exactly.
pub fn sim(
    w: &Workload,
    b: SimBuilder,
    wal_path: &Path,
    reference: &mut Option<SimSignature>,
) -> LegRun {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let result = b.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let _ = std::fs::remove_file(wal_path);
    outcome(w, result, wall_s, cpu_s, |r| {
        let signature: SimSignature = r
            .warehouse
            .history()
            .iter()
            .map(|c| c.fingerprints.clone())
            .collect();
        match reference {
            Some(want) if *want == signature => (None, 0),
            Some(_) => (
                Some("simulator run diverged from the certified run of its seed".into()),
                0,
            ),
            None => {
                let verdict = certify(r, w.readers > 0);
                if verdict.0.is_none() {
                    *reference = Some(signature);
                }
                verdict
            }
        }
    })
}
