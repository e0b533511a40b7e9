//! In-memory spans for the traced run.
//!
//! Each span records its layer name, the request it belongs to, its
//! parent span and its start and end. Spans nest on one thread; a
//! layer's self time is its duration minus its children's. Root spans
//! are whole operations (a query, a read, a commit): a root's own self
//! time is the part no layer claims, reported as `unattributed_frac`.
//! With tracing off nothing is recorded and the closures run bare.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (or operation) name.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer began.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer began.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed self time (duration minus children), nanoseconds.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations (no span open).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. A span opened with no span open starts a new
    /// request.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        if self.open.is_empty() {
            self.req += 1;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, self time net of direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += s.dur_ns().saturating_sub(kids);
        }
        out
    }

    /// Share of root-span time that no child span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let (mut root, mut covered) = (0u64, 0u64);
        for s in &self.spans {
            match s.parent {
                None => root += s.dur_ns(),
                Some(p) if self.spans[p].parent.is_none() => covered += s.dur_ns(),
                Some(_) => {}
            }
        }
        if root == 0 {
            return 0.0;
        }
        root.saturating_sub(covered) as f64 / root as f64
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_time_excludes_children_and_roots_carry_remainder() {
        let mut t = Tracer::new(true);
        t.begin("op");
        t.time("a", || spin(2000));
        t.begin("b");
        t.time("c", || spin(1000));
        spin(500);
        t.end();
        spin(300);
        t.end();
        let b_total = t.spans()[2].dur_ns();
        let b_self = t.totals()["b"].self_ns;
        assert!(b_total >= 1_500_000);
        assert!(b_self >= 500_000 && b_self < b_total - 900_000);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        let u = t.unattributed_frac();
        assert!(u > 0.0 && u < 0.3, "{u}");
        assert!(t.spans().iter().all(|s| s.req == 1));
        t.time("op", || ());
        assert_eq!(t.spans().last().unwrap().req, 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("op");
        assert_eq!(t.time("a", || 5), 5);
        t.end();
        assert!(t.spans().is_empty());
        assert_eq!(t.unattributed_frac(), 0.0);
    }
}
