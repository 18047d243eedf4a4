//! In-memory span recorder for the traced driver, per-layer self times,
//! and JSONL export.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the recorder's span list.
    pub parent: Option<usize>,
    /// Source commit sequence number of the update the call serves
    /// (0 when the call serves no single update).
    pub update: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans around calls when enabled; a disabled recorder only runs
/// the calls, which is the untraced baseline of `trace.overhead_pct`.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, update: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            update,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"update\":{}}}",
                s.name, s.start, s.end, parent, s.update
            )?;
        }
        out.flush()
    }
}

/// Per-name call statistics over a span list.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    pub calls: u64,
    /// Sum of span durations (children included), ns.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover, ns.
    pub self_ns: u64,
    /// Every span duration, ns, ascending.
    pub durations: Vec<u64>,
}

impl CallStats {
    /// Nearest-rank percentile of the call durations, ns (0 without calls).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.durations.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.durations.len() as f64).ceil() as usize;
        self.durations[rank.clamp(1, self.durations.len()) - 1]
    }
}

/// Call statistics per span name.
pub fn call_stats(spans: &[Span]) -> BTreeMap<&'static str, CallStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration();
        }
    }
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.duration();
        e.self_ns += s.duration().saturating_sub(child_ns[i]);
        e.durations.push(s.duration());
    }
    for e in out.values_mut() {
        e.durations.sort_unstable();
    }
    out
}

/// The layer a span name belongs to: the crate name before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer, ns.
pub fn layer_self_ns(stats: &BTreeMap<&'static str, CallStats>) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, s) in stats {
        *out.entry(layer_of(name).to_owned()).or_default() += s.self_ns;
    }
    out
}

/// Render the per-layer self-time table.
pub fn layer_table(stats: &BTreeMap<&'static str, CallStats>, wall_ns: u64) -> String {
    let layers = layer_self_ns(stats);
    let total: u64 = layers.values().sum();
    let mut out = format!(
        "{:<12} {:>12} {:>8} {:>8}\n",
        "layer", "self_ms", "%busy", "%wall"
    );
    for (layer, ns) in &layers {
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>8.1} {:>8.1}\n",
            layer,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64,
            100.0 * *ns as f64 / wall_ns.max(1) as f64,
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>12.3} {:>8} {:>8.1}\n",
        "sum",
        total as f64 / 1e6,
        "",
        100.0 * total as f64 / wall_ns.max(1) as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            update: 0,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            span("driver.round", 0, 100, None),
            span("core.merge.on_rel", 10, 30, Some(0)),
            span("warehouse.apply", 40, 90, Some(0)),
        ];
        let stats = call_stats(&spans);
        assert_eq!(stats["driver.round"].self_ns, 30);
        assert_eq!(stats["warehouse.apply"].self_ns, 50);
        let layers = layer_self_ns(&stats);
        assert_eq!(layers.values().sum::<u64>(), 100);
        assert_eq!(layers["core"], 20);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = call_stats(&(1..=100).map(|i| span("x", 0, i, None)).collect::<Vec<_>>());
        assert_eq!(stats["x"].percentile(50.0), 50);
        assert_eq!(stats["x"].percentile(99.0), 99);
        assert_eq!(CallStats::default().percentile(50.0), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 1);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
