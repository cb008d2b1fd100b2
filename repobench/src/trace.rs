//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the library crates' public
//! functions, kept in memory, and written out once when the run ends
//! (Chrome trace-event JSON, loadable in Perfetto or `chrome://tracing`).
//! Nothing inside the library is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.first_pass`.
    pub name: &'static str,
    /// The round (request) this span belongs to; spans of one round
    /// share it.
    pub round: u32,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }
}

impl Tracer {
    /// Tag every span opened from now on with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its duration
    /// in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
        span.dur_ns as f64 * 1e-9
    }

    /// Close span `id` under a name known only once its work is done
    /// (e.g. a finder step, classified by what it returned).
    pub fn exit_as(&mut self, id: usize, name: &'static str) -> f64 {
        self.spans[id].name = name;
        self.exit(id)
    }

    /// Run `f` inside a span; returns its value and the span's seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f(self);
        let secs = self.exit(id);
        (out, secs)
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the time its direct children cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns.saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Wall time covered by the root spans, in seconds.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns as f64 * 1e-9)
            .sum()
    }

    /// Chrome trace-event JSON of every span, with `meta` (a JSON
    /// object) stored under `otherData`.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"otherData\": ");
        out.push_str(meta);
        out.push_str(", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"round\": {}, \"id\": {}, \"parent\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.round,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let selfs = t.self_secs();
        assert!(selfs["inner"] >= 0.005);
        assert!(selfs["outer"] < outer - 0.004);
        assert!((selfs.values().sum::<f64>() - t.root_secs()).abs() < 1e-6);
        let json = t.to_chrome_json("{}");
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}
