//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own files, around its calls into each layer's public
//! functions; spans inside the program are a later change. Everything
//! stays in memory until the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a request root; all spans of
/// one client-observed request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off every call is a plain passthrough,
/// so one op implementation serves the untraced and the traced run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as a new client-observed request (a root span on the
    /// harness's own `client` layer).
    pub fn request<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if self.on {
            self.request += 1;
        }
        self.span("client", name, f)
    }

    /// Runs `f` inside a span of `layer`, a child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Attaches an *explaining* span to an already closed span: the
    /// same work the server did inside a round trip, re-executed
    /// in-process right after the reply (the server's threads cannot be
    /// traced from outside). It counts as a child of `parent` for
    /// self-time although it ran after it.
    pub fn explain<R>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let saved = std::mem::replace(&mut self.stack, vec![parent]);
        let r = self.span(layer, name, f);
        self.stack = saved;
        r
    }

    /// Id of the most recently opened span (0 when none or off).
    pub fn last_id(&self) -> u32 {
        self.spans.len() as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its children's durations
/// (clamped at zero), indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_sum[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// Share of total self time per layer.
pub fn layer_shares(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *by.entry(s.layer).or_default() += t;
    }
    let total: u64 = by.values().sum();
    by.into_iter()
        .map(|(k, v)| {
            (
                k,
                if total == 0 {
                    0.0
                } else {
                    v as f64 / total as f64
                },
            )
        })
        .collect()
}

/// Median duration in µs of the spans called `name` (0 when none ran).
pub fn median_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    stats::median(&d)
}

/// The trace as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.request, s.layer, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(1, 0, "client", 0, 100),
            span(2, 1, "server", 10, 70),
            span(3, 2, "xpath", 20, 50),
            // An explaining span runs after its parent closed but still
            // counts against it.
            span(4, 2, "txn", 120, 140),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 30, 20]);
        let shares = layer_shares(&spans);
        assert!((shares["client"] - 0.4).abs() < 1e-12);
        assert!((shares["server"] - 0.1).abs() < 1e-12);
        assert!((shares["xpath"] - 0.3).abs() < 1e-12);
        assert!((shares["txn"] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let spans = [span(1, 0, "client", 0, 10), span(2, 1, "server", 20, 50)];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn recorder_nests_and_off_is_a_passthrough() {
        let mut t = Tracer::new(true);
        let v = t.request("op", |t| t.span("txn", "commit", |_| 7));
        assert_eq!(v, 7);
        let root = t.last_id() - 1;
        t.explain(root, "xpath", "select", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 1));
        assert!(s.iter().all(|x| x.request == 1 && x.end_ns >= x.start_ns));
        assert!(to_json(s).contains("\"layer\": \"txn\""));

        let mut off = Tracer::new(false);
        assert_eq!(off.request("op", |t| t.span("txn", "commit", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
