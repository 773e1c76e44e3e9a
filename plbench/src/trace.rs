//! Spans for the traced run (`--trace 1`).
//!
//! The benchmark times each public call it makes with `Instant` in every
//! run; a traced run also records those intervals as spans: name, the call
//! timed, op id, parent, start and end. Recording happens after the op has
//! finished, so it never lands inside a timed interval. Spans stay in memory
//! and are written out when the run ends.
//!
//! Some layers run only inside a larger call (subset construction inside
//! `TokenSet::build`, analysis inside `Parser::new`, the scan inside
//! `parse_tree`). For those the traced op also calls the layer's own public
//! function on the same input, after the op; that span is a *replica* whose
//! parent is the larger call. A span's self time is its duration minus its
//! children's durations, so the larger call keeps what remains, and the self
//! times of an op's spans add up to the op's duration exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

/// Name of the root span of one op; its self time is the op's residual.
pub const OP: &str = "op";
/// Name of the root span of one set-up; its self time is the set-up residual.
pub const SETUP: &str = "setup";

pub struct Span {
    pub name: &'static str,
    pub call: &'static str,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start: Instant,
    pub end: Instant,
    pub replica: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span of a call the op made.
    pub fn span(
        &mut self,
        name: &'static str,
        call: &'static str,
        op: u64,
        parent: Option<SpanId>,
        (start, end): (Instant, Instant),
    ) -> SpanId {
        self.push(Span {
            name,
            call,
            op,
            parent,
            start,
            end,
            replica: false,
        })
    }

    /// Record a replica: a layer's own function, called again after the op
    /// on the same input, charged to `parent`.
    pub fn replica(
        &mut self,
        name: &'static str,
        call: &'static str,
        parent: SpanId,
        (start, end): (Instant, Instant),
    ) -> SpanId {
        let op = self.op_of(parent);
        self.push(Span {
            name,
            call,
            op,
            parent: Some(parent),
            start,
            end,
            replica: true,
        })
    }

    /// The op a recorded span belongs to.
    pub fn op_of(&self, id: SpanId) -> u64 {
        self.spans[id].op
    }

    fn push(&mut self, s: Span) -> SpanId {
        self.spans.push(s);
        self.spans.len() - 1
    }

    /// Self time and span count per name over the spans whose root is named
    /// `root`. The root's own self time is the residual.
    pub fn table(&self, roots: &[&str]) -> Table {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let root_of = |mut i: SpanId| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        let mut t = Table::default();
        for (i, s) in self.spans.iter().enumerate() {
            let r = root_of(i);
            if !roots.contains(&self.spans[r].name) {
                continue;
            }
            let own = s.seconds() - child[i];
            if s.parent.is_none() {
                t.total += s.seconds();
                t.roots += 1;
            }
            if s.name == OP || s.name == SETUP {
                t.residual += own;
            } else {
                let e = t.layers.entry(s.name).or_insert((0.0, 0));
                e.0 += own;
                e.1 += 1;
            }
        }
        t
    }

    /// Write every span as one JSON object per line, times in µs from the
    /// start of the run.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"call\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"replica\":{}}}",
                s.name,
                s.call,
                s.op,
                us(s.start),
                us(s.end),
                s.replica
            )?;
        }
        out.flush()
    }
}

/// Aggregated self times of one group of root spans.
#[derive(Default)]
pub struct Table {
    /// Layer name → (self seconds, spans).
    pub layers: BTreeMap<&'static str, (f64, u64)>,
    /// Self seconds of the root spans.
    pub residual: f64,
    /// Summed duration of the root spans.
    pub total: f64,
    pub roots: u64,
}

impl Table {
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |e| e.0)
    }

    /// Mean self time of `name` per span of that name, in seconds.
    pub fn per_span(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |&(s, n)| if n == 0 { 0.0 } else { s / n as f64 })
    }

    /// Render the table: per layer, self ms in total and per op, and share.
    pub fn render(&self, title: &str, per: &str, ops: u64) -> Vec<String> {
        let n = ops.max(1) as f64;
        let mut lines = vec![format!(
            "{title}: {ops} {per}s, {:.3} ms in total",
            self.total * 1e3
        )];
        lines.push(format!(
            "  {:<28} {:>12} {:>14} {:>7}",
            "layer (self time)",
            "ms total",
            format!("ms per {per}"),
            "share"
        ));
        let mut sum = 0.0;
        let rows = self
            .layers
            .iter()
            .map(|(k, v)| (*k, v.0))
            .chain([("residual", self.residual)]);
        for (name, s) in rows {
            sum += s;
            lines.push(format!(
                "  {:<28} {:>12.3} {:>14.4} {:>6.1}%",
                name,
                s * 1e3,
                s * 1e3 / n,
                100.0 * s / self.total.max(f64::MIN_POSITIVE)
            ));
        }
        lines.push(format!(
            "  {:<28} {:>12.3} {:>14.4}  (layers + residual = {:.3} ms)",
            "total",
            self.total * 1e3,
            self.total * 1e3 / n,
            sum * 1e3
        ));
        lines
    }
}
