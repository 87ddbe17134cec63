//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is named `<layer>.<call>` after the crate whose public function
//! it wraps; `op` spans group one operation's calls and belong to the
//! benchmark itself. Spans stay in memory and are written out when the run
//! ends. The traced replays are single-threaded, so a span's children never
//! overlap and its self time is its duration minus theirs.

use serde::Serialize;
use std::time::Instant;

/// The runtime layers, by crate name.
pub const LAYERS: [&str; 7] = [
    "netgraph", "simnet", "dataset", "nn", "core", "serve", "obs",
];

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Operation (sample, step or query) the span belongs to.
    pub req: u64,
}

/// Span recorder; when disabled every call is a single branch.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Tag the spans that follow with operation id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans end in LIFO order");
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, seconds, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
        let mut out: Vec<f64> = self.spans.iter().map(dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p as usize] -= dur(s);
            }
        }
        out
    }

    /// Summed self time of the spans named `name`, seconds.
    pub fn self_time_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Summed self time of every span of `layer`, seconds.
    pub fn layer_time(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name.split('.').next() == Some(layer))
            .map(|(_, t)| t)
            .sum()
    }

    /// Write every span as a JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.spans).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.span("core.pack", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(op);
        let st = t.self_times();
        let spans = t.spans();
        let child = (spans[1].end_ns - spans[1].start_ns) as f64 * 1e-9;
        let parent = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        assert_eq!(spans[1].parent, Some(0));
        assert!((st[0] - (parent - child)).abs() < 1e-12);
        assert!(t.layer_time("core") >= 0.005);
        assert_eq!(t.layer_time("serve"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("core.pack", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
