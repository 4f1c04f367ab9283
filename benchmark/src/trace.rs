//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the repository's public functions; nothing inside the program is
//! instrumented. Recording is off unless [`enable`] was called, so the
//! untraced run pays one thread-local flag check per span.
//!
//! A span's *self time* is its duration minus the durations of its
//! direct children; a layer's self time is the sum over its spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `rissp.cpu.run`.
    pub name: &'static str,
    /// Seconds since the recorder was enabled.
    pub start_s: f64,
    /// Seconds since the recorder was enabled.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        counts: BTreeMap::new(),
    });
}

/// Starts recording on this thread (spans and counters start empty).
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = true;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.counts.clear();
    });
}

/// Whether recording is on.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().enabled)
}

/// Runs `f` inside a span named `name` (just runs it when disabled).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start_s = r.epoch.elapsed().as_secs_f64();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
        });
        let index = r.spans.len() - 1;
        r.open.push(index);
        Some(index)
    });
    // Closes the span on return and on unwind alike.
    let _close = Close(index);
    f()
}

struct Close(Option<usize>);

impl Drop for Close {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[index].end_s = r.epoch.elapsed().as_secs_f64();
                r.open.pop();
            });
        }
    }
}

/// Adds `value` to the counter `name` (no-op when disabled).
pub fn count(name: &'static str, value: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.enabled {
            *r.counts.entry(name).or_insert(0.0) += value;
        }
    });
}

/// Stops recording and returns what was recorded.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        r.open.clear();
        (std::mem::take(&mut r.spans), std::mem::take(&mut r.counts))
    })
}

/// Self time per span name, in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_s - s.start_s;
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Writes one JSON object per span to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent}}}",
            s.name, s.start_s, s.end_s
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                start_s: 0.0,
                end_s: 1.0,
                parent: None,
            },
            Span {
                name: "b",
                start_s: 0.25,
                end_s: 0.5,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_s: 0.5,
                end_s: 0.75,
                parent: Some(0),
            },
        ];
        let t = self_times(&spans);
        assert!((t["a"] - 0.5).abs() < 1e-12);
        assert!((t["b"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        assert_eq!(span("x", || 7), 7);
        count("c", 1.0);
        let (spans, counts) = take();
        assert!(spans.is_empty() && counts.is_empty());
    }
}
