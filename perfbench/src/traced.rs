//! The traced leg: a single-threaded driver that runs a workload through
//! each layer's public functions in pipeline order, with a span around
//! every call into a layer.
//!
//! The topology is the runtimes' (Figure 1 of the paper): sources →
//! integrator → view managers ⇄ query server → merge process → warehouse
//! → merge process (acks), with per-channel FIFO queues. One round
//! injects a batch of updates and then serves every queue once, in that
//! order; a round is one `driver.round` span whose children are the layer
//! calls. Query answers ride the source → integrator queue, as in both
//! runtimes, so Strobe's compensation sees them after every earlier
//! update.

use crate::trace::Tracer;
use crate::workloads::{Load, Workload};
use mvc_core::{MergeProcess, UpdateId, ViewId};
use mvc_durability::{DurabilityConfig, WalRecord, WalWriter};
use mvc_readpath::{ReadSession, VersionedCuts};
use mvc_relational::{Catalog, Delta, Relation, Schema, ViewDef};
use mvc_source::{GlobalSeq, SourceCluster, SourceId, SourceUpdate};
use mvc_viewmgr::{
    answer_query, ActionListDelta, NumberedUpdate, QueryAnswer, QueryRequest, QueryToken,
    ViewManager, VmEvent, VmOutput,
};
use mvc_warehouse::{StoreTxn, Warehouse};
use mvc_whips::{Deployment, Integrator, ManagerKind, ViewRegistry, WorkloadTxn};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Collects the deployment the way the runtimes' builders do, so the
/// workload generators install into it unchanged.
struct Setup {
    cluster: SourceCluster,
    registry: ViewRegistry,
}

impl Deployment for Setup {
    fn add_relation(mut self, source: SourceId, name: String, schema: Schema) -> Self {
        self.cluster
            .create_relation(source, name, schema)
            .expect("fresh relation");
        self
    }
    fn add_view(mut self, id: ViewId, def: ViewDef, kind: ManagerKind) -> Self {
        self.registry.add(id, def, kind);
        self
    }
    fn view_catalog(&self) -> &Catalog {
        self.cluster.catalog()
    }
}

/// source → integrator messages.
enum SrcMsg {
    Update(Arc<SourceUpdate>),
    Answer(ViewId, QueryToken, QueryAnswer),
}

/// integrator → view manager messages.
enum VmMsg {
    Update(NumberedUpdate),
    Answer(QueryToken, QueryAnswer),
    Flush,
}

/// integrator / view manager → merge process messages (one FIFO per
/// group, as in the threaded runtime).
enum MpMsg {
    Rel(UpdateId, BTreeSet<ViewId>),
    Action(ActionListDelta),
}

/// Work counts of one traced run; identical for one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub injected: u64,
    pub routed: u64,
    pub vm_updates: u64,
    pub als: u64,
    pub answers: u64,
    pub txns: u64,
    pub commits: u64,
    pub vut_peak_rows: u64,
    pub retained_versions_peak: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    pub view_tuples: u64,
}

/// Result of one traced (or untraced) run.
pub struct TracedRun {
    pub wall_ns: u64,
    pub counts: Counts,
    pub fingerprints: BTreeMap<ViewId, u64>,
    pub tracer: Tracer,
}

struct Driver {
    t: Tracer,
    cluster: SourceCluster,
    integrator: Integrator,
    vms: BTreeMap<ViewId, Box<dyn ViewManager>>,
    mps: Vec<MergeProcess<Delta>>,
    group_of: BTreeMap<ViewId, usize>,
    warehouse: Warehouse,
    cuts: VersionedCuts,
    reader: Option<ReadSession>,
    views: Vec<ViewId>,
    wal: Option<WalWriter>,
    src: VecDeque<SrcMsg>,
    to_vm: BTreeMap<ViewId, VecDeque<VmMsg>>,
    to_qs: VecDeque<(ViewId, QueryToken, QueryRequest)>,
    to_mp: Vec<VecDeque<MpMsg>>,
    ready: Vec<VecDeque<StoreTxn>>,
    /// Per group: row id → source seq, for rows not yet committed.
    uncovered: Vec<BTreeMap<UpdateId, GlobalSeq>>,
    /// Injected updates not yet fully committed → groups still owing.
    open: BTreeMap<GlobalSeq, usize>,
    counts: Counts,
}

/// Run `w` on the stream `txns` through the traced driver. With `traced`
/// off the same calls run without spans.
pub fn run(
    w: &Workload,
    txns: &[WorkloadTxn],
    traced: bool,
    wal_path: &Path,
) -> Result<TracedRun, String> {
    let mut t = Tracer::new(traced);
    let setup = w.install(Setup {
        cluster: SourceCluster::new(32),
        registry: ViewRegistry::new(),
    });
    let registry = setup.registry;
    let partitioning = registry.partitioning(false);
    let groups = partitioning.group_count().max(1);
    let mut group_of = BTreeMap::new();
    let mut group_views: Vec<Vec<ViewId>> = vec![Vec::new(); groups];
    for id in registry.ids() {
        let g = partitioning.group_of_view(id).unwrap_or(0);
        group_of.insert(id, g);
        group_views[g].push(id);
    }
    let levels = registry.levels();
    let mut mps: Vec<MergeProcess<Delta>> = group_views
        .iter()
        .map(|views| {
            MergeProcess::for_managers(
                levels.iter().copied().filter(|(v, _)| views.contains(v)),
                mvc_core::CommitPolicy::DependencyAware,
            )
        })
        .collect();
    let start = Instant::now();
    let mut vms = BTreeMap::new();
    let mut warehouse = Warehouse::new(false);
    for e in registry.iter() {
        t.enter("viewmgr.build", 0);
        let vm = e
            .kind
            .build(e.id, e.def.clone())
            .map_err(|e| e.to_string())?;
        t.exit();
        vms.insert(e.id, vm);
        warehouse
            .register_view(
                e.id,
                e.def.name.clone(),
                Relation::shared(e.def.schema.clone()),
            )
            .map_err(|e| e.to_string())?;
    }
    let views: Vec<ViewId> = warehouse.view_ids().collect();
    let cuts = VersionedCuts::new();
    cuts.seed(0, warehouse.read(&views));
    let reader = (w.readers > 0).then(|| cuts.open_session());
    let wal = match w.wal {
        Some(cfg) => {
            for mp in &mut mps {
                mp.enable_paint_events();
            }
            let d = DurabilityConfig::new(wal_path).with_fsync_every(cfg.fsync_every);
            Some(WalWriter::create(&d).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let mut d = Driver {
        t,
        cluster: setup.cluster,
        integrator: Integrator::new(registry, partitioning, true),
        to_vm: vms.keys().map(|&v| (v, VecDeque::new())).collect(),
        vms,
        mps,
        group_of,
        warehouse,
        cuts,
        reader,
        views,
        wal,
        src: VecDeque::new(),
        to_qs: VecDeque::new(),
        to_mp: (0..groups).map(|_| VecDeque::new()).collect(),
        ready: (0..groups).map(|_| VecDeque::new()).collect(),
        uncovered: vec![BTreeMap::new(); groups],
        open: BTreeMap::new(),
        counts: Counts::default(),
    };
    d.drive(w, txns)?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (counts, fingerprints, tracer) = d.finish(wal_path)?;
    Ok(TracedRun {
        wall_ns,
        counts,
        fingerprints,
        tracer,
    })
}

impl Driver {
    fn drive(&mut self, w: &Workload, txns: &[WorkloadTxn]) -> Result<(), String> {
        let batch = w.traced_batch();
        let one_open = w.load == Load::OneOpen;
        let mut next = 0;
        while next < txns.len() {
            self.t.enter("driver.round", 0);
            let can_inject = !one_open || (self.open.is_empty() && self.quiescent());
            if can_inject {
                for txn in &txns[next..(next + batch).min(txns.len())] {
                    self.inject(txn)?;
                }
                next = (next + batch).min(txns.len());
            }
            let moved = self.serve_queues()?;
            if !can_inject && !moved {
                // A batching component holds the open update back: nudge
                // it, as both runtimes do when the pipeline stalls.
                self.nudge(false)?;
                if self.queues_empty() && self.ready_empty() {
                    return Err("one-open driver stalled with unfinishable work".into());
                }
            }
            self.t.exit();
        }
        // Drain: serve until idle, flushing every manager at least once.
        let mut flushed_all = false;
        for _ in 0..10_000 {
            self.t.enter("driver.round", 0);
            while self.serve_queues()? {}
            let done = self.quiescent() && flushed_all;
            if !done {
                self.nudge(!flushed_all)?;
                flushed_all = true;
            }
            self.t.exit();
            if done {
                return Ok(());
            }
        }
        Err("drain did not reach quiescence".into())
    }

    fn queues_empty(&self) -> bool {
        self.src.is_empty()
            && self.to_qs.is_empty()
            && self.to_vm.values().all(VecDeque::is_empty)
            && self.to_mp.iter().all(VecDeque::is_empty)
    }

    fn ready_empty(&self) -> bool {
        self.ready.iter().all(VecDeque::is_empty)
    }

    fn quiescent(&self) -> bool {
        self.queues_empty()
            && self.ready_empty()
            && self.vms.values().all(|v| v.is_idle())
            && self.mps.iter().all(MergeProcess::is_quiescent)
    }

    fn log(&mut self, rec: &WalRecord) -> Result<(), String> {
        if let Some(wal) = self.wal.as_mut() {
            self.t.enter("durability.append", 0);
            let r = wal.append(rec);
            self.t.exit();
            r.map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn inject(&mut self, txn: &WorkloadTxn) -> Result<(), String> {
        let next_seq = self.cluster.latest_seq().0 + 1;
        self.t.enter("source.execute", next_seq);
        let r = if txn.global {
            self.cluster.execute_global(txn.source, txn.writes.clone())
        } else {
            self.cluster.execute(txn.source, txn.writes.clone())
        };
        self.t.exit();
        let update = Arc::new(r.map_err(|e| e.to_string())?);
        self.counts.injected += 1;
        self.log(&WalRecord::SourceUpdate(Arc::clone(&update)))?;
        self.open.insert(update.seq, 0);
        self.src.push_back(SrcMsg::Update(update));
        Ok(())
    }

    /// Serve every queue once in pipeline order; true if anything moved.
    fn serve_queues(&mut self) -> Result<bool, String> {
        let mut moved = false;
        while let Some(msg) = self.src.pop_front() {
            moved = true;
            match msg {
                SrcMsg::Update(u) => self.route(u),
                SrcMsg::Answer(v, token, answer) => {
                    self.push_vm(v, VmMsg::Answer(token, answer));
                }
            }
        }
        let views: Vec<ViewId> = self.to_vm.keys().copied().collect();
        for v in views {
            while let Some(msg) = self.to_vm.get_mut(&v).and_then(VecDeque::pop_front) {
                moved = true;
                self.deliver_vm(v, msg)?;
            }
        }
        while let Some((v, token, request)) = self.to_qs.pop_front() {
            moved = true;
            self.t.enter("source.answer", 0);
            let r = answer_query(&self.cluster, &request);
            self.t.exit();
            self.counts.answers += 1;
            let answer = r.map_err(|e| e.to_string())?;
            self.src.push_back(SrcMsg::Answer(v, token, answer));
        }
        for g in 0..self.mps.len() {
            while let Some(msg) = self.to_mp[g].pop_front() {
                moved = true;
                self.deliver_mp(g, msg)?;
            }
        }
        for g in 0..self.mps.len() {
            moved |= self.commit_ready(g)?;
        }
        Ok(moved)
    }

    fn push_vm(&mut self, v: ViewId, msg: VmMsg) {
        self.to_vm.get_mut(&v).expect("known view").push_back(msg);
    }

    fn route(&mut self, u: Arc<SourceUpdate>) {
        let seq = u.seq;
        self.t.enter("whips.route", seq.0);
        let routings = self.integrator.route(u);
        self.t.exit();
        if routings.is_empty() {
            self.open.remove(&seq);
            return;
        }
        self.counts.routed += 1;
        self.open.insert(seq, routings.len());
        for r in routings {
            self.uncovered[r.group].insert(r.numbered.id, seq);
            for &v in &r.rel {
                self.push_vm(v, VmMsg::Update(r.numbered.clone()));
            }
            self.to_mp[r.group].push_back(MpMsg::Rel(r.numbered.id, r.rel));
        }
    }

    fn deliver_vm(&mut self, v: ViewId, msg: VmMsg) -> Result<(), String> {
        let (event, update) = match msg {
            VmMsg::Update(u) => {
                self.counts.vm_updates += 1;
                let seq = u.seq().0;
                (VmEvent::Update(u), seq)
            }
            VmMsg::Answer(token, answer) => (VmEvent::Answer { token, answer }, 0),
            VmMsg::Flush => (VmEvent::Flush, 0),
        };
        let vm = self.vms.get_mut(&v).expect("known view");
        self.t.enter("viewmgr.handle", update);
        let r = vm.handle(event);
        self.t.exit();
        for out in r.map_err(|e| e.to_string())? {
            match out {
                VmOutput::Action(al) => {
                    self.counts.als += 1;
                    let g = self.group_of[&v];
                    self.to_mp[g].push_back(MpMsg::Action(al));
                }
                VmOutput::Query { token, request } => self.to_qs.push_back((v, token, request)),
            }
        }
        Ok(())
    }

    fn deliver_mp(&mut self, g: usize, msg: MpMsg) -> Result<(), String> {
        let r = match msg {
            MpMsg::Rel(id, rel) => {
                self.log(&WalRecord::RelInstalled {
                    group: g as u64,
                    id,
                    rel: rel.clone(),
                })?;
                let seq = self.uncovered[g].get(&id).map_or(0, |s| s.0);
                self.t.enter("core.merge.on_rel", seq);
                let r = self.mps[g].on_rel(id, rel);
                self.t.exit();
                r
            }
            MpMsg::Action(al) => {
                self.log(&WalRecord::ActionInstalled {
                    group: g as u64,
                    al: al.clone(),
                })?;
                let seq = self.uncovered[g].get(&al.last).map_or(0, |s| s.0);
                self.t.enter("core.merge.on_action", seq);
                let r = self.mps[g].on_action(al);
                self.t.exit();
                r
            }
        };
        let released = r.map_err(|e| e.to_string())?;
        self.released(g, released)
    }

    /// Log paint transitions and queue released transactions.
    fn released(&mut self, g: usize, released: Vec<StoreTxn>) -> Result<(), String> {
        self.counts.vut_peak_rows = self
            .counts
            .vut_peak_rows
            .max(self.mps[g].live_rows() as u64);
        if self.wal.is_some() {
            for e in self.mps[g].take_paint_events() {
                self.log(&WalRecord::Paint {
                    group: g as u64,
                    update: e.update,
                    view: e.view,
                    color: e.color,
                    state: e.state,
                })?;
            }
        }
        for txn in released {
            self.counts.txns += 1;
            self.log(&WalRecord::GroupReleased {
                group: g as u64,
                txn: txn.clone(),
            })?;
            self.ready[g].push_back(txn);
        }
        Ok(())
    }

    /// Group commit: apply every ready transaction of group `g` in one
    /// `apply_batch`, publish each commit's cut, make the run durable
    /// with one fsync, then ack each transaction to the merge process
    /// (acks may release more, which commit in the next pass).
    fn commit_ready(&mut self, g: usize) -> Result<bool, String> {
        let mut any = false;
        while !self.ready[g].is_empty() {
            any = true;
            let run: Vec<StoreTxn> = self.ready[g].drain(..).collect();
            for txn in &run {
                self.log(&WalRecord::TxnCommitted {
                    group: g as u64,
                    seq: txn.seq,
                })?;
            }
            let base = self.warehouse.commit_count();
            self.t.enter("warehouse.apply", 0);
            let r = self.warehouse.apply_batch(run.iter());
            self.t.exit();
            r.map_err(|(_, e)| e.to_string())?;
            for (i, txn) in run.iter().enumerate() {
                let changed: Vec<ViewId> = txn.views.iter().copied().collect();
                let cut = self.warehouse.read(&changed);
                self.t.enter("readpath.publish", 0);
                self.cuts.publish(base + i as u64 + 1, cut);
                self.t.exit();
                self.counts.retained_versions_peak = self
                    .counts
                    .retained_versions_peak
                    .max(self.cuts.retained_versions() as u64);
            }
            self.counts.commits += run.len() as u64;
            if let Some(wal) = self.wal.as_mut() {
                self.t.enter("durability.fsync", 0);
                let r = wal.flush();
                self.t.exit();
                r.map_err(|e| e.to_string())?;
            }
            if self.reader.is_some() {
                self.read_head()?;
            }
            for txn in run {
                self.ack(g, txn)?;
            }
        }
        Ok(any)
    }

    fn ack(&mut self, g: usize, txn: StoreTxn) -> Result<(), String> {
        for row in &txn.rows {
            if let Some(seq) = self.uncovered[g].remove(row) {
                if let Some(owing) = self.open.get_mut(&seq) {
                    *owing -= 1;
                    if *owing == 0 {
                        self.open.remove(&seq);
                    }
                }
            }
        }
        self.log(&WalRecord::CommitAcked {
            group: g as u64,
            seq: txn.seq,
        })?;
        self.t.enter("core.merge.on_committed", 0);
        let released = self.mps[g].on_committed(txn.seq);
        self.t.exit();
        self.released(g, released)
    }

    /// One snapshot read of every view at the published head.
    fn read_head(&mut self) -> Result<BTreeMap<ViewId, u64>, String> {
        let head = self.cuts.head();
        let session = self.reader.get_or_insert_with(|| self.cuts.open_session());
        self.t.enter("readpath.read", 0);
        let r = session.read_at(head, &self.views);
        self.t.exit();
        let out = r.map_err(|e| e.to_string())?;
        Ok(out
            .observation
            .cut
            .views
            .iter()
            .map(|(&v, rel)| (v, rel.fingerprint()))
            .collect())
    }

    /// Flush lagging view managers (every manager when `all`) and every
    /// merge process's batched remainder.
    fn nudge(&mut self, all: bool) -> Result<(), String> {
        let lagging: Vec<ViewId> = self
            .vms
            .iter()
            .filter(|(_, vm)| all || !vm.is_idle())
            .map(|(&v, _)| v)
            .collect();
        for v in lagging {
            self.push_vm(v, VmMsg::Flush);
        }
        for g in 0..self.mps.len() {
            self.t.enter("core.merge.flush", 0);
            let released = self.mps[g].flush();
            self.t.exit();
            self.released(g, released)?;
        }
        Ok(())
    }

    /// Final fingerprints through the read path, WAL totals, and the
    /// warehouse size.
    fn finish(
        mut self,
        wal_path: &Path,
    ) -> Result<(Counts, BTreeMap<ViewId, u64>, Tracer), String> {
        let fingerprints = self.read_head()?;
        if let Some(mut wal) = self.wal.take() {
            wal.finalize().map_err(|e| e.to_string())?;
            self.counts.wal_fsyncs = wal.fsyncs();
            self.counts.wal_bytes = std::fs::metadata(wal_path)
                .map_err(|e| e.to_string())?
                .len();
        }
        self.counts.view_tuples = self
            .views
            .iter()
            .filter_map(|&v| self.warehouse.view(v))
            .map(Relation::len)
            .sum();
        Ok((self.counts, fingerprints, self.t))
    }
}
