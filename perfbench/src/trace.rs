//! In-memory span recorder for the traced run, and the self-time
//! accounting that splits a traced interval across layers.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer, plus spans imported from the query traces the engine
//! and service already keep. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use csj_obs::{escape_json, AttrValue, QueryTrace, Span};

pub type SpanId = usize;

/// Layers, in report order. `idle` is open-loop time with no request
/// in flight; `bench` is the harness itself: time inside a traced
/// interval that no layer span covers.
pub const LAYERS: [&str; 9] = [
    "data",
    "core",
    "kernel",
    "matching",
    "engine",
    "service",
    "durability",
    "idle",
    "bench",
];

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next_request: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_request: AtomicU64::new(1),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A fresh request id: spans of one request share it.
    pub fn request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("span recorder poisoned")
    }

    /// Run `f` inside a span; `f` gets the span's id (`None` when
    /// tracing is off) to parent its own spans.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.is_on() {
            return f(None);
        }
        let start = self.ns(Instant::now());
        let id = self.push(SpanRec {
            layer,
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent,
            request,
            attrs: Vec::new(),
        });
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.lock()[id].end_ns = end;
        out
    }

    /// Record a span whose interval was measured elsewhere.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.is_on() {
            return None;
        }
        Some(self.push(SpanRec {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
            attrs: Vec::new(),
        }))
    }

    pub fn attr(&self, id: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.lock()[id].attrs.push((key, value));
        }
    }

    fn push(&self, span: SpanRec) -> SpanId {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Import an engine query trace under `parent`. `anchor` is when
    /// the call that produced it started; the engine's offsets are
    /// relative to its own recorder, which starts inside that call.
    /// Returns the ids given to the root's children, in order.
    pub fn import(
        &self,
        parent: Option<SpanId>,
        request: u64,
        anchor: Instant,
        trace: &QueryTrace,
    ) -> Vec<Option<SpanId>> {
        if !self.is_on() {
            return Vec::new();
        }
        let base = self.ns(anchor);
        let name = format!("engine.{}", trace.kind);
        let root = self.import_span(parent, request, base, &trace.root, &name, "");
        root.1
    }

    /// Record `span` and its subtree; returns its id and its children's.
    fn import_span(
        &self,
        parent: Option<SpanId>,
        request: u64,
        base: u64,
        span: &Span,
        name: &str,
        method: &str,
    ) -> (Option<SpanId>, Vec<Option<SpanId>>) {
        let (layer, method) = match span.name {
            "join" => (
                "kernel",
                span.get_attr("method")
                    .map(|m| m.to_string())
                    .unwrap_or_default(),
            ),
            "setup" | "pairing" => ("kernel", method.to_string()),
            "matching" => ("matching", method.to_string()),
            _ => ("engine", method.to_string()),
        };
        let start = base + span.start_us * 1_000;
        let id = self.record(
            parent,
            layer,
            name,
            request,
            start,
            start + span.elapsed_us * 1_000,
        );
        // Carry the counts the engine attached (telemetry roll-ups,
        // sizes, join counts) onto the imported span.
        for (key, value) in &span.attrs {
            match value {
                AttrValue::U64(v) => self.attr(id, key, *v as f64),
                AttrValue::F64(v) => self.attr(id, key, *v),
                AttrValue::Str(_) => {}
            }
        }
        let children = span
            .children
            .iter()
            .map(|child| {
                let child_name = match child.name {
                    "join" => format!(
                        "join {}",
                        child
                            .get_attr("method")
                            .map(|m| m.to_string())
                            .unwrap_or_default()
                    ),
                    "setup" | "pairing" | "matching" => format!("{method} {}", child.name),
                    other => format!("engine.{other}"),
                };
                self.import_span(id, request, base, child, &child_name, &method)
                    .0
            })
            .collect();
        (id, children)
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.lock())
    }
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Total duration (ms) of the spans named `name` that descend from root
/// spans named `root`, per root span (one root span is one repetition).
pub fn per_rep_ms(spans: &[SpanRec], root: &str, name: &str) -> f64 {
    let mut under = vec![false; spans.len()];
    let (mut total, mut reps) = (0.0, 0);
    for (i, s) in spans.iter().enumerate() {
        under[i] = s.parent.map_or(s.name == root, |p| under[p]);
        reps += usize::from(s.parent.is_none() && s.name == root);
        if under[i] && s.name == name {
            total += s.ms();
        }
    }
    total / reps.max(1) as f64
}

/// Self time per layer over a set of spans, by partitioning the
/// timeline: at every instant the time goes to the innermost active
/// spans, split evenly when concurrent requests overlap. The layer
/// totals therefore add up exactly to the covered wall time.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    pub wall_ns: f64,
    pub by_layer: BTreeMap<&'static str, f64>,
}

pub fn account(spans: &[SpanRec]) -> Accounting {
    let n = spans.len();
    // Clip every span into its parent (parents always have the lower id).
    let mut lo = vec![0u64; n];
    let mut hi = vec![0u64; n];
    for (i, s) in spans.iter().enumerate() {
        let (mut a, mut b) = (s.start_ns, s.end_ns.max(s.start_ns));
        if let Some(p) = s.parent {
            a = a.clamp(lo[p], hi[p]);
            b = b.clamp(a, hi[p]);
        }
        lo[i] = a;
        hi[i] = b;
    }
    // Events: ends before starts at equal times; parents start first
    // and end last.
    let mut events: Vec<(u64, u8, i64)> = Vec::with_capacity(2 * n);
    for i in 0..n {
        if hi[i] > lo[i] {
            events.push((lo[i], 1, i as i64));
            events.push((hi[i], 0, -(i as i64)));
        }
    }
    events.sort_unstable();
    let mut active = vec![false; n];
    let mut active_children = vec![0u32; n];
    let mut leaves: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut total_leaves = 0i64;
    let mut out = Accounting::default();
    let mut now = events.first().map_or(0, |e| e.0);
    for (t, kind, key) in events {
        if t > now && total_leaves > 0 {
            let dt = (t - now) as f64;
            out.wall_ns += dt;
            for (layer, &count) in &leaves {
                if count > 0 {
                    *out.by_layer.entry(layer).or_default() +=
                        dt * count as f64 / total_leaves as f64;
                }
            }
        }
        now = t;
        let i = key.unsigned_abs() as usize;
        let layer = spans[i].layer;
        let parent = spans[i].parent.filter(|&p| active[p]);
        if kind == 1 {
            active[i] = true;
            if let Some(p) = parent {
                active_children[p] += 1;
                if active_children[p] == 1 {
                    *leaves.entry(spans[p].layer).or_default() -= 1;
                    total_leaves -= 1;
                }
            }
            *leaves.entry(layer).or_default() += 1;
            total_leaves += 1;
        } else {
            if active_children[i] == 0 {
                *leaves.entry(layer).or_default() -= 1;
                total_leaves -= 1;
            }
            active[i] = false;
            if let Some(p) = parent {
                active_children[p] -= 1;
                if active_children[p] == 0 {
                    *leaves.entry(spans[p].layer).or_default() += 1;
                    total_leaves += 1;
                }
            }
        }
    }
    out
}

/// The spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{i},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"",
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.layer
        );
        escape_json(&s.name, &mut out);
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{}",
            s.start_ns, s.end_ns
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec {
            layer,
            name: layer.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn nested_self_times_add_up_to_wall() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("engine", 10, 90, Some(0)),
            span("kernel", 20, 50, Some(1)),
            span("matching", 40, 60, Some(2)),
        ];
        let acc = account(&spans);
        assert_eq!(acc.wall_ns, 100.0);
        // matching is clipped to its parent: 40..50.
        assert_eq!(acc.by_layer["matching"], 10.0);
        assert_eq!(acc.by_layer["kernel"], 20.0);
        assert_eq!(acc.by_layer["engine"], 50.0);
        assert_eq!(acc.by_layer["bench"], 20.0);
    }

    #[test]
    fn concurrent_children_split_the_overlap() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("service", 0, 60, Some(0)),
            span("engine", 40, 100, Some(0)),
        ];
        let acc = account(&spans);
        assert_eq!(acc.wall_ns, 100.0);
        assert_eq!(acc.by_layer["service"], 50.0);
        assert_eq!(acc.by_layer["engine"], 50.0);
        assert_eq!(acc.by_layer.get("bench").copied().unwrap_or(0.0), 0.0);
    }
}
