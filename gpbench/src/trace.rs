//! In-memory span recorder for the traced run. The benchmark opens a span
//! around every call it makes into a layer; spans are written out as JSON
//! when the run ends.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// `t` on this tracer's clock.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// The innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in reverse order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span measured elsewhere, with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span { name, parent, start_ns, end_ns: end_ns.max(start_ns) });
    }

    /// Total seconds of spans named `name` under root span `root`.
    pub fn total_under(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.root_of(*i) == root)
            .map(|(_, s)| s.secs())
            .sum()
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Layer coverage of root spans named `root`: the summed self time of
    /// their descendants divided by their summed duration. A span's self
    /// time is its duration minus that of its children.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let (mut covered, mut total) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(i)].name != root {
                continue;
            }
            if s.parent.is_none() {
                total += s.secs();
            } else {
                covered += s.secs() - child_secs[i];
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
