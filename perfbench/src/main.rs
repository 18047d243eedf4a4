//! Repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's update stream from the seed, then for the
//! given number of seconds alternates a timed `ThreadedBuilder::run()`
//! (threaded leg) with a timed `SimBuilder::run()` (single-threaded
//! simulator leg) over the same stream and deployment, certifying every
//! run with the oracle outside the timed region. With `--trace 1` it also
//! runs the traced per-layer driver and reports per-layer metrics instead
//! of the end-to-end ones. Progress and tables go to stderr; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod calib;
mod legs;
mod metrics;
mod trace;
mod traced;
mod workloads;

use legs::{LegRun, SimSignature};
use metrics::{median, ratio, Metric, END_TO_END, PER_LAYER};
use mvc_core::ViewId;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// Traced-driver repetitions per mode (untraced and traced alternate).
const TRACED_REPS: usize = 3;

/// Set-ups timed before the timed loop (which times one more per
/// repetition); `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        kv.insert(key.to_owned(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let out = PathBuf::from(kv.get("out").map_or(".bench_out", String::as_str));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Failure accounting across every run of the process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn leg(&mut self, leg: &str, run: &LegRun) {
        self.attempted += run.updates + run.reads;
        self.failed += run.failed_updates + run.failed_reads;
        if let Some(why) = &run.failure {
            self.failures.push(format!("{leg}: {why}"));
        }
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }
}

/// The timed repetitions of one sub-stream.
struct Stream {
    seed: u64,
    threaded: Vec<LegRun>,
    sims: Vec<LegRun>,
    /// Commit history of the oracle-certified simulator run.
    reference: Option<SimSignature>,
    /// Final contents of the first successful threaded run.
    fingerprints: Option<BTreeMap<ViewId, u64>>,
}

/// Everything the timed loop measured.
struct Measured {
    streams: Vec<Stream>,
    setup_s: Vec<f64>,
    probe_s: Vec<f64>,
}

impl Measured {
    /// Median of `f` over every run of one leg, all sub-streams pooled
    /// (each sub-stream has the same number of runs).
    fn pooled_median(&self, leg: impl Fn(&Stream) -> &[LegRun], f: impl Fn(&LegRun) -> f64) -> f64 {
        let xs: Vec<f64> = self
            .streams
            .iter()
            .flat_map(|s| leg(s).iter().map(&f))
            .collect();
        median(&xs)
    }
}

fn measure(a: &Args, tally: &mut Tally) -> Measured {
    let w = &a.workload;
    let wal_t = w.wal_path(&a.out, "threaded");
    let wal_s = w.wal_path(&a.out, "sim");
    let mut m = Measured {
        streams: (0..w.streams)
            .map(|k| Stream {
                seed: w.stream_seed(a.seed, k),
                threaded: Vec::new(),
                sims: Vec::new(),
                reference: None,
                fingerprints: None,
            })
            .collect(),
        setup_s: Vec::new(),
        probe_s: Vec::new(),
    };
    // Set-up: generate a stream and install relations and views into a
    // runtime's builder.
    let threaded_b = |seed: u64| w.threaded(w.stream(seed), &wal_t);
    let sim_b = |seed: u64| w.sim(seed, w.stream(seed), &wal_s);
    // Untimed warm-up: one run of each leg on the first sub-stream,
    // certified like the rest.
    let first = &mut m.streams[0];
    let warm_t = legs::threaded(w, threaded_b(first.seed), &wal_t);
    tally.leg("threaded warm-up", &warm_t);
    let warm_s = legs::sim(w, sim_b(first.seed), &wal_s, &mut first.reference);
    tally.leg("sim warm-up", &warm_s);
    eprintln!(
        "  warm-up: threaded {:.3} s (check {:.3} s), sim {:.3} s (check {:.3} s)",
        warm_t.wall_s, warm_t.check_s, warm_s.wall_s, warm_s.check_s
    );
    if warm_t.ok() {
        tally.check(
            !warm_s.ok() || warm_s.fingerprints == warm_t.fingerprints,
            "threaded and sim final contents differ",
        );
        first.fingerprints = Some(warm_t.fingerprints);
    }

    // `setup_s`: the set-up of every sub-stream of the run, timed whole,
    // SETUP_REPS times here and once per repetition below, so the samples
    // spread over the whole run.
    let time_setup = |m: &mut Measured| {
        let t0 = Instant::now();
        for s in &m.streams {
            std::hint::black_box((threaded_b(s.seed), sim_b(s.seed)));
        }
        m.setup_s.push(t0.elapsed().as_secs_f64());
    };
    for _ in 0..SETUP_REPS {
        time_setup(&mut m);
    }

    // Timed loop: whole cycles over the sub-streams, so every stream gets
    // the same number of threaded runs. The simulator, often much faster,
    // repeats until it has run as long as the threaded leg did.
    let start = Instant::now();
    let mut rep = 0;
    // The host-speed probe runs once per repetition, beside the legs.
    while start.elapsed().as_secs_f64() < a.seconds || rep % w.streams != 0 {
        time_setup(&mut m);
        m.probe_s.push(calib::probe());
        let stream = &mut m.streams[rep % w.streams];
        let t = legs::threaded(w, threaded_b(stream.seed), &wal_t);
        tally.leg("threaded", &t);
        let threaded_s = t.wall_s;
        let threaded_check_s = t.check_s;
        if t.ok() {
            let want = stream
                .fingerprints
                .get_or_insert_with(|| t.fingerprints.clone());
            tally.check(
                *want == t.fingerprints,
                "threaded final contents differ between runs of one stream",
            );
            stream.threaded.push(t);
        }
        let mut sim_s = 0.0;
        let mut sims = 0;
        while sims == 0 || sim_s < threaded_s {
            let s = legs::sim(w, sim_b(stream.seed), &wal_s, &mut stream.reference);
            tally.leg("sim", &s);
            sim_s += s.wall_s;
            sims += 1;
            if s.ok() {
                if let Some(want) = &stream.fingerprints {
                    tally.check(
                        *want == s.fingerprints,
                        "threaded and sim final contents differ",
                    );
                }
                stream.sims.push(s);
            }
        }
        eprintln!(
            "  rep {rep:>3} stream {}: threaded {:.3} s (check {:.3} s), sim {sims} x {:.3} s",
            rep % w.streams,
            threaded_s,
            threaded_check_s,
            sim_s / sims as f64,
        );
        rep += 1;
    }
    m
}

fn end_to_end(w: &Workload, m: &Measured) -> BTreeMap<&'static str, f64> {
    let updates = w.updates as f64;
    let wall = m.pooled_median(|s| &s.threaded, |r| r.wall_s);
    // CPU time comes in 10 ms ticks: total over all runs, not a median.
    let threaded = || m.streams.iter().flat_map(|s| &s.threaded);
    let cpu = ratio(threaded().map(|r| r.cpu_s).sum(), threaded().count() as f64);
    let sim_wall = m.pooled_median(|s| &s.sims, |r| r.wall_s);
    // Latency in virtual steps is a pure function of the sub-stream.
    let certified: Vec<&LegRun> = m.streams.iter().filter_map(|s| s.sims.first()).collect();
    let steps_mean =
        certified.iter().map(|r| r.steps_mean).sum::<f64>() / certified.len().max(1) as f64;
    let steps_max = certified.iter().map(|r| r.steps_max).max().unwrap_or(0);
    let setup = median(&m.setup_s);
    // How much slower than the reference the host ran during this run.
    let slow = median(&m.probe_s) / calib::REFERENCE_S;
    // Only the part of a threaded run that keeps the CPUs busy stretches
    // with a slow host; time spent waiting (for fsync, say) does not.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let busy = ratio(cpu, wall * cpus).min(1.0);
    let scaled_wall = wall * ((1.0 - busy) + busy / slow);
    eprintln!(
        "host {slow:.4}x the reference probe time, threaded runs {:.0}% CPU-busy; \
         unscaled: ingest_ups {:.4}, cpu_ms_per_kupd {:.4}, fresh_us {:.4}, sim_ups {:.4}, \
         setup_s {:.6}",
        100.0 * busy,
        ratio(updates, wall),
        ratio(cpu * 1e3, updates / 1e3),
        ratio(wall * 1e6, updates),
        ratio(updates, sim_wall),
        setup
    );
    BTreeMap::from([
        ("ingest_ups", ratio(updates, scaled_wall)),
        ("cpu_ms_per_kupd", ratio(cpu * 1e3, updates / 1e3) / slow),
        ("fresh_us", ratio(scaled_wall * 1e6, updates)),
        ("sim_ups", ratio(updates, sim_wall) * slow),
        ("fresh_steps_mean", steps_mean),
        ("fresh_steps_max", steps_max as f64),
        ("setup_s", setup / slow),
    ])
}

/// Run the traced driver `TRACED_REPS` times untraced and traced,
/// alternating; returns the per-layer metrics.
fn per_layer(
    a: &Args,
    m: &Measured,
    e2e: &BTreeMap<&'static str, f64>,
    tally: &mut Tally,
) -> BTreeMap<&'static str, f64> {
    let w = &a.workload;
    let first = &m.streams[0];
    let txns = w.stream(first.seed);
    let wal = w.wal_path(&a.out, "traced");
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut last: Option<traced::TracedRun> = None;
    for _ in 0..TRACED_REPS {
        for traced in [false, true] {
            let run = match traced::run(w, &txns, traced, &wal) {
                Ok(r) => r,
                Err(e) => {
                    tally.failed += w.updates as u64;
                    tally.attempted += w.updates as u64;
                    tally.failures.push(format!("traced driver: {e}"));
                    continue;
                }
            };
            tally.attempted += w.updates as u64;
            tally.check(
                first.fingerprints.as_ref() == Some(&run.fingerprints),
                "traced driver's final contents differ from the threaded run's",
            );
            if let Some(prev) = &last {
                tally.check(
                    prev.counts == run.counts,
                    "traced work counts differ between runs of one seed",
                );
            }
            if traced {
                traced_ns.push(run.wall_ns as f64);
            } else {
                plain_ns.push(run.wall_ns as f64);
            }
            if traced || last.is_none() {
                last = Some(run);
            }
        }
    }
    let _ = std::fs::remove_file(&wal);
    let Some(run) = last.filter(|r| !r.tracer.spans().is_empty()) else {
        tally.failures.push("no traced run completed".into());
        return BTreeMap::new();
    };

    let spans_path = a.out.join(format!("{}-seed{}.spans.jsonl", w.name, a.seed));
    match File::create(&spans_path).map(BufWriter::new) {
        Ok(f) => {
            if let Err(e) = run.tracer.write_jsonl(f) {
                tally.failures.push(format!("writing spans: {e}"));
            }
        }
        Err(e) => tally.failures.push(format!("creating spans file: {e}")),
    }
    let stats = trace::call_stats(run.tracer.spans());
    let layer_self: u64 = trace::layer_self_ns(&stats).values().sum();
    tally.check(
        layer_self <= run.wall_ns,
        format!(
            "layer self times ({layer_self} ns) exceed the traced driver's wall time ({} ns)",
            run.wall_ns
        ),
    );
    eprintln!(
        "traced driver: {:.1} ms wall, spans in {}",
        run.wall_ns as f64 / 1e6,
        spans_path.display()
    );
    eprint!("{}", trace::layer_table(&stats, run.wall_ns));
    eprintln!(
        "{:<28} {:>9} {:>12} {:>10}",
        "call", "calls", "busy_ms", "p99_us"
    );
    for (name, s) in &stats {
        eprintln!(
            "{name:<28} {:>9} {:>12.3} {:>10.1}",
            s.calls,
            s.total_ns as f64 / 1e6,
            s.percentile(99.0) as f64 / 1e3
        );
    }

    let c = &run.counts;
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let ms = |s: &trace::CallStats| s.total_ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let merge: Vec<trace::CallStats> = [
        "core.merge.on_rel",
        "core.merge.on_action",
        "core.merge.on_committed",
        "core.merge.flush",
    ]
    .iter()
    .map(|n| get(n))
    .collect();
    let (apply, publish, read, handle) = (
        get("warehouse.apply"),
        get("readpath.publish"),
        get("readpath.read"),
        get("viewmgr.handle"),
    );
    let (execute, answer, route) = (
        get("source.execute"),
        get("source.answer"),
        get("whips.route"),
    );
    let runs = || m.streams.iter().flat_map(|s| &s.threaded);
    let threaded_reads: f64 = runs().map(|r| r.reads as f64).sum();
    let threaded_secs: f64 = runs().map(|r| r.wall_s).sum();
    let threaded_commits: u64 = runs().map(|r| r.commits).sum();
    let threaded_fsyncs: u64 = runs().map(|r| r.wal_fsyncs).sum();
    let plain = median(&plain_ns);
    BTreeMap::from([
        ("warehouse.apply.calls", apply.calls as f64),
        ("warehouse.apply.busy_ms", ms(&apply)),
        ("warehouse.apply.p50_us", us(apply.percentile(50.0))),
        ("warehouse.apply.p99_us", us(apply.percentile(99.0))),
        ("warehouse.view_tuples", c.view_tuples as f64),
        ("readpath.publish.busy_ms", ms(&publish)),
        ("readpath.read.calls", read.calls as f64),
        ("readpath.read.p50_us", us(read.percentile(50.0))),
        ("readpath.read.p99_us", us(read.percentile(99.0))),
        (
            "readpath.retained_versions_peak",
            c.retained_versions_peak as f64,
        ),
        ("readpath.reader_ops", ratio(threaded_reads, threaded_secs)),
        ("viewmgr.handle.calls", handle.calls as f64),
        ("viewmgr.handle.busy_ms", ms(&handle)),
        ("viewmgr.handle.p99_us", us(handle.percentile(99.0))),
        (
            "viewmgr.als_per_update",
            ratio(c.als as f64, c.vm_updates as f64),
        ),
        (
            "core.merge.calls",
            merge.iter().map(|s| s.calls as f64).sum(),
        ),
        ("core.merge.busy_ms", merge.iter().map(ms).sum()),
        ("core.merge.vut_peak_rows", c.vut_peak_rows as f64),
        ("core.merge.txns_per_al", ratio(c.txns as f64, c.als as f64)),
        ("source.execute.calls", execute.calls as f64),
        ("source.execute.busy_ms", ms(&execute)),
        ("source.answer.calls", answer.calls as f64),
        ("source.answer.busy_ms", ms(&answer)),
        ("source.answer.p99_us", us(answer.percentile(99.0))),
        (
            "source.answer.per_update",
            ratio(c.answers as f64, c.injected as f64),
        ),
        ("whips.route.calls", route.calls as f64),
        ("whips.route.busy_ms", ms(&route)),
        (
            "whips.route.routed_ratio",
            ratio(c.routed as f64, route.calls as f64),
        ),
        (
            "whips.speedup_vs_sim",
            ratio(e2e["ingest_ups"], e2e["sim_ups"]),
        ),
        (
            "durability.append.calls",
            get("durability.append").calls as f64,
        ),
        (
            "durability.bytes_per_commit",
            ratio(c.wal_bytes as f64, c.commits as f64),
        ),
        (
            "durability.fsync.calls",
            get("durability.fsync").calls as f64,
        ),
        (
            "durability.fsyncs_per_commit",
            ratio(c.wal_fsyncs as f64, c.commits as f64),
        ),
        (
            "durability.threaded_fsyncs_per_commit",
            ratio(threaded_fsyncs as f64, threaded_commits as f64),
        ),
        (
            "trace.overhead_pct",
            100.0 * ratio(median(&traced_ns) - plain, plain),
        ),
    ])
}

fn metrics_json(catalog: &[Metric], values: &BTreeMap<&'static str, f64>) -> String {
    let entries: Vec<String> = catalog
        .iter()
        .filter_map(|m| {
            values.get(m.name).map(|v| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(*v),
                    m.unit
                )
            })
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// A finite JSON number with every digit Rust prints (non-finite → 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// File-system type of the mount holding `dir` (where the WAL lives), from
/// `/proc/mounts`; "unknown" when it cannot be read.
fn filesystem_of(dir: &std::path::Path) -> String {
    let (Ok(dir), Ok(mounts)) = (dir.canonicalize(), std::fs::read_to_string("/proc/mounts"))
    else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("perfbench: cannot create {}: {e}", a.out.display());
        return ExitCode::from(2);
    }
    let w = &a.workload;
    eprintln!(
        "perfbench: workload {} seed {}: {} x {} updates, key_domain {}, {:?}, wal {:?} on {}, \
         readers {}; {} CPUs; {} s, trace {}",
        w.name,
        a.seed,
        w.streams,
        w.updates,
        w.key_domain,
        w.load,
        w.wal,
        filesystem_of(&a.out),
        w.readers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        a.seconds,
        a.trace
    );
    let mut tally = Tally::default();
    let m = measure(&a, &mut tally);
    let e2e = end_to_end(w, &m);
    for metric in END_TO_END {
        eprintln!(
            "{:<20} {:>16.4} {:<6} ({} is better)",
            metric.name, e2e[metric.name], metric.unit, metric.better
        );
    }
    let (catalog, values) = if a.trace {
        (PER_LAYER, per_layer(&a, &m, &e2e, &mut tally))
    } else {
        (END_TO_END, e2e)
    };
    let complete = catalog.iter().all(|m| values.contains_key(m.name));
    tally.check(complete, "some metrics could not be measured");
    tally.check(
        m.streams
            .iter()
            .all(|s| !s.threaded.is_empty() && !s.sims.is_empty()),
        "a sub-stream has no successful timed run",
    );
    eprintln!(
        "fail_ratio {} ({} of {} operations)",
        ratio(tally.failed as f64, tally.attempted.max(1) as f64),
        tally.failed,
        tally.attempted
    );
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failures.is_empty() && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics_json(catalog, &values)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scratch() -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/selftest");
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }

    /// Every workload, shrunk so a debug build runs it quickly.
    fn small_workloads() -> Vec<Workload> {
        workloads::all()
            .into_iter()
            .map(|w| Workload { updates: 150, ..w })
            .collect()
    }

    fn calls(run: &traced::TracedRun) -> BTreeMap<&'static str, u64> {
        trace::call_stats(run.tracer.spans())
            .into_iter()
            .map(|(name, s)| (name, s.calls))
            .collect()
    }

    #[test]
    fn counts_and_virtual_latency_repeat_exactly_for_one_seed() {
        let dir = scratch();
        for w in small_workloads() {
            let txns = w.stream(w.stream_seed(7, 0));
            let wal = dir.join(format!("{}.wal", w.name));
            let a = traced::run(&w, &txns, true, &wal).expect("traced run");
            let b = traced::run(&w, &txns, true, &wal).expect("traced run");
            assert_eq!(a.counts, b.counts, "{}", w.name);
            assert_eq!(calls(&a), calls(&b), "{}", w.name);
            assert_eq!(a.counts.wal_fsyncs > 0, w.wal.is_some(), "{}", w.name);

            let (mut r1, mut r2) = (None, None);
            let s1 = legs::sim(&w, w.sim(7, txns.clone(), &wal), &wal, &mut r1);
            let s2 = legs::sim(&w, w.sim(7, txns.clone(), &wal), &wal, &mut r2);
            assert!(
                s1.ok() && s2.ok(),
                "{}: {:?} {:?}",
                w.name,
                s1.failure,
                s2.failure
            );
            assert_eq!(s1.steps_mean, s2.steps_mean, "{}", w.name);
            assert_eq!(s1.steps_max, s2.steps_max, "{}", w.name);
            // The traced driver computes the same final views.
            assert_eq!(a.fingerprints, s1.fingerprints, "{}", w.name);
            let _ = std::fs::remove_file(&wal);
        }
    }

    #[test]
    fn layer_self_times_fit_in_the_driver_wall_time() {
        let w = small_workloads().remove(0);
        let run = traced::run(&w, &w.stream(3), true, &scratch().join("fit.wal")).expect("run");
        let stats = trace::call_stats(run.tracer.spans());
        assert!(trace::layer_self_ns(&stats).values().sum::<u64>() <= run.wall_ns);
        for layer in [
            "source",
            "whips",
            "viewmgr",
            "core",
            "warehouse",
            "readpath",
        ] {
            assert!(
                stats.keys().any(|n| trace::layer_of(n) == layer),
                "no span in layer {layer}"
            );
        }
    }

    #[test]
    fn result_line_is_json_with_value_and_unit() {
        let values = BTreeMap::from([("setup_s", 0.25), ("ingest_ups", f64::NAN)]);
        let json = serde_json::from_str(&metrics_json(END_TO_END, &values)).expect("valid JSON");
        assert_eq!(json["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(json["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(json["ingest_ups"]["value"].as_f64(), Some(0.0));
    }
}
