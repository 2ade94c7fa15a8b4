//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions (spans inside the program are a
//! later change). They are kept in memory and written out when the run
//! ends. A span's self time is its duration minus the part its child
//! spans cover.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `netsim.run_until`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a rep's root span.
    pub parent: Option<usize>,
    /// Traced rep this span belongs to (spans of one rep share it).
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

/// Records nested spans; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only forwards calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                rep: 0,
            }),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Label subsequent spans with traced-rep number `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.inner.borrow_mut().rep = rep;
    }

    /// Run `f` inside a span called `name`, nested in whichever span is
    /// open on this tracer.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len();
            let (parent, rep) = (inner.open.last().copied(), inner.rep);
            inner.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                rep,
            });
            inner.open.push(idx);
            idx
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Self time of every span in seconds: its duration minus its direct
/// children's durations (children never overlap: one thread, strict
/// nesting).
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Durations in seconds of the spans of `rep` called `name`, in order.
pub fn each_secs(spans: &[Span], rep: u32, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.rep == rep && s.name == name)
        .map(Span::secs)
        .collect()
}

/// Share of rep `rep`'s root span that its direct children cover — the
/// part of the traced wall time attributed to a named layer call.
pub fn covered_share(spans: &[Span], rep: u32) -> f64 {
    let Some(root) = spans
        .iter()
        .position(|s| s.rep == rep && s.parent.is_none())
    else {
        return 0.0;
    };
    let total = spans[root].secs();
    if total <= 0.0 {
        return 0.0;
    }
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::secs)
        .sum();
    children / total
}

/// Write the spans as JSON lines (`name,start_ns,end_ns,self_ns,parent,
/// workload,rep`), one object per span.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let own = self_secs(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
\"parent\":{parent},\"workload\":\"{workload}\",\"rep\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            (own[i] * 1e9).round() as i64,
            s.rep
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // rep [0, 100 ms) ⊃ build [0, 20) and run [30, 90) ⊃ window [40, 60).
        let ms = 1_000_000;
        let spans = vec![
            span("rep", 0, 100 * ms, None),
            span("build", 0, 20 * ms, Some(0)),
            span("run", 30 * ms, 90 * ms, Some(0)),
            span("window", 40 * ms, 60 * ms, Some(2)),
        ];
        let own = self_secs(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(own[0], 0.020), "rep keeps only its uncovered gap");
        assert!(close(own[1], 0.020));
        assert!(
            close(own[2], 0.040),
            "grandchildren are not subtracted twice"
        );
        assert!(close(own[3], 0.020));
        assert!(close(own.iter().sum::<f64>(), spans[0].secs()));
        assert!(close(covered_share(&spans, 0), 0.8));
        assert!(close(each_secs(&spans, 0, "run").iter().sum(), 0.060));
    }

    #[test]
    fn tracer_nests_and_labels_reps() {
        let t = Tracer::new(true);
        t.set_rep(3);
        let v = t.span("rep", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("rep", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("rep", || 1 + 1), 2);
        assert!(t.spans().is_empty());
    }
}
