//! The benchmark's workloads: one generated update stream and one
//! deployment per workload, shared by all three legs.

use mvc_durability::DurabilityConfig;
use mvc_whips::workload::{generate, install_relations, install_views_mixed, relations_needed};
use mvc_whips::{
    Deployment, ManagerKind, SimBuilder, SimConfig, ThreadedBuilder, ThreadedConfig, ViewSuite,
    WorkloadSpec, WorkloadTxn,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How updates are offered to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Open loop at full speed: the runtime's driver thread injects the
    /// whole stream without waiting for the warehouse.
    Flood,
    /// Closed loop with one update open: the next update is injected only
    /// once the previous one is committed and the pipeline is idle.
    OneOpen,
}

/// Group-commit WAL settings (write-ahead log on).
#[derive(Debug, Clone, Copy)]
pub struct Wal {
    /// Records per forced write+fsync when no commit forces one earlier.
    pub fsync_every: u64,
    /// Group-commit window of the threaded committer.
    pub fsync_deadline: Duration,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub suite: ViewSuite,
    /// Manager kinds, assigned to the views round-robin.
    pub kinds: &'static [ManagerKind],
    /// Updates per generated stream.
    pub updates: usize,
    /// Streams per run, each generated from its own seed derived from the
    /// run's seed; the end-to-end metrics aggregate over all of them, which
    /// averages out how much work one random stream happens to carry.
    pub streams: usize,
    pub key_domain: i64,
    pub load: Load,
    pub wal: Option<Wal>,
    /// MVCC reader threads beside the writers (0 or 1).
    pub readers: usize,
    pub reader_think_time: Duration,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    const COMPLETE: &[ManagerKind] = &[ManagerKind::Complete];
    const COMPLETE_STROBE: &[ManagerKind] = &[ManagerKind::Complete, ManagerKind::Strobe];
    let base = Workload {
        name: "",
        suite: ViewSuite::OverlappingChain { count: 3 },
        kinds: COMPLETE,
        updates: 0,
        streams: 8,
        key_domain: 16,
        load: Load::Flood,
        wal: None,
        readers: 0,
        reader_think_time: Duration::ZERO,
    };
    vec![
        Workload {
            name: "dense_chain",
            updates: 1_000,
            ..base.clone()
        },
        Workload {
            name: "agg_flood",
            suite: ViewSuite::Aggregates { count: 3 },
            updates: 3_000,
            streams: 4,
            ..base.clone()
        },
        Workload {
            name: "reads_durable",
            updates: 1_000,
            key_domain: 1_000,
            wal: Some(Wal {
                fsync_every: 1_024,
                fsync_deadline: Duration::from_micros(500),
            }),
            readers: 1,
            reader_think_time: Duration::from_micros(100),
            ..base.clone()
        },
        Workload {
            name: "fresh_w1",
            kinds: COMPLETE_STROBE,
            updates: 1_000,
            key_domain: 64,
            load: Load::OneOpen,
            ..base
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            relations: relations_needed(self.suite),
            updates: self.updates,
            key_domain: self.key_domain,
            ..WorkloadSpec::default()
        }
    }

    /// Seed of the `k`-th stream of a run with seed `seed`.
    pub fn stream_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(1 << 16).wrapping_add(k as u64)
    }

    /// The generated update stream for `seed`.
    pub fn stream(&self, seed: u64) -> Vec<WorkloadTxn> {
        generate(&self.spec(seed)).txns
    }

    /// Install the workload's relations and views into any deployment.
    pub fn install<D: Deployment>(&self, d: D) -> D {
        let d = install_relations(d, relations_needed(self.suite));
        install_views_mixed(d, self.suite, self.kinds).0
    }

    fn durability(&self, wal_path: &Path) -> Option<DurabilityConfig> {
        self.wal.map(|w| {
            DurabilityConfig::new(wal_path)
                .with_fsync_every(w.fsync_every)
                .with_fsync_deadline(w.fsync_deadline)
        })
    }

    pub fn threaded(&self, txns: Vec<WorkloadTxn>, wal_path: &Path) -> ThreadedBuilder {
        let config = ThreadedConfig {
            sequential: self.load == Load::OneOpen,
            readers: self.readers,
            reader_think_time: self.reader_think_time,
            durability: self.durability(wal_path),
            drain_timeout: Duration::from_secs(60),
            // The queue-depth sampler is observability, not pipeline
            // work: the timed leg runs with it off.
            depth_sample_interval: Duration::ZERO,
            ..ThreadedConfig::default()
        };
        self.install(ThreadedBuilder::new(config)).workload(txns)
    }

    pub fn sim(&self, seed: u64, txns: Vec<WorkloadTxn>, wal_path: &Path) -> SimBuilder {
        let one_open = self.load == Load::OneOpen;
        let config = SimConfig {
            seed,
            sequential: one_open,
            max_open_updates: one_open.then_some(1),
            // The oracle certifies from per-commit fingerprints; full
            // snapshots are off here as in the threaded runtime.
            record_snapshots: false,
            readers: self.readers,
            durability: self.durability(wal_path),
            ..SimConfig::default()
        };
        self.install(SimBuilder::new(config)).workload(txns)
    }

    /// Update injection batch of the traced driver: the threaded
    /// runtime's source batch ceiling under flood, one update otherwise.
    pub fn traced_batch(&self) -> usize {
        match self.load {
            Load::Flood => ThreadedConfig::default().batch_max,
            Load::OneOpen => 1,
        }
    }

    /// Where this workload's WAL lives for one leg.
    pub fn wal_path(&self, out_dir: &Path, leg: &str) -> PathBuf {
        out_dir.join(format!("{}-{leg}.wal", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn a_seed_fixes_the_stream_and_another_seed_changes_it() {
        for w in all() {
            let a = w.stream(w.stream_seed(1, 0));
            let again = w.stream(w.stream_seed(1, 0));
            let b = w.stream(w.stream_seed(2, 0));
            assert_eq!(a.len(), w.updates, "{}", w.name);
            assert!(a.iter().zip(&again).all(|(x, y)| x.writes == y.writes));
            assert!(
                a.iter().zip(&b).any(|(x, y)| x.writes != y.writes),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn sub_stream_seeds_never_collide() {
        let w = &all()[0];
        let seeds: BTreeSet<u64> = (1..=100)
            .flat_map(|s| (0..w.streams).map(move |k| w.stream_seed(s, k)))
            .collect();
        assert_eq!(seeds.len(), 100 * w.streams);
    }
}
