//! The bench's own span recorder. Spans are recorded around the calls
//! the bench makes into each layer's public functions — never inside the
//! program — kept in memory, and written to `trace_<workload>.json`
//! when the run ends.

use std::path::Path;
use std::time::Instant;

/// One recorded span. `request` ties the spans of one request together;
/// `parent` is the span that caused it.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store of the traced pass (the timed window never
/// touches it).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

impl Recorder {
    pub fn start() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(SpanRecord {
            id,
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Time `f` under a span and hand back its result with the measured
    /// nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, parent, request);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.close(id);
        (out, ns)
    }

    /// A span's self time: its duration minus the part its children
    /// cover (children of one bench span never overlap).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(SpanRecord::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Write every span (with its self time) as one JSON document.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id,
                    "parent": s.parent,
                    "request": s.request,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "self_ns": self.self_ns(s.id),
                })
            })
            .collect();
        let doc = serde_json::json!({"workload": workload, "seed": seed, "spans": spans});
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&doc).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::start();
        let root = r.open("request", None, 0);
        let child = r.open("stage", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(child);
        r.close(root);
        let child_ns = r.spans[child].duration_ns();
        assert!(child_ns >= 2_000_000);
        assert_eq!(r.self_ns(root), r.spans[root].duration_ns() - child_ns);
    }

    #[test]
    fn time_records_one_span_and_returns_the_result() {
        let mut r = Recorder::start();
        let (v, ns) = r.time("x", None, 3, || 7);
        assert_eq!(v, 7);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].request, 3);
        assert!(r.spans[0].duration_ns() >= ns);
    }
}
