//! Telemetry output shared by the figure binaries.
//!
//! The two flags behind it (declared once in [`crate::cli`], read back
//! with [`crate::cli::Matches::telemetry`]):
//!
//! * `--telemetry PATH` — write the run's full metric snapshot as a
//!   versioned `themis-telemetry` JSON document (schema in the
//!   [`telemetry::report`] module docs and DESIGN.md "Observability").
//! * `--trace-last N` — on abnormal exit (a run that did not complete
//!   before the horizon), dump the last `N` retained structured events
//!   to stderr before the process exits.

use telemetry::{Report, RunReport};

/// Parsed telemetry CLI flags.
#[derive(Debug, Clone, Default)]
pub struct TelemetryArgs {
    /// `--telemetry PATH`: where to write the JSON report (None = off).
    pub out: Option<String>,
    /// `--trace-last N`: events to dump on abnormal exit (None = off).
    pub trace_last: Option<usize>,
}

impl TelemetryArgs {
    /// Whether any telemetry output was requested.
    pub fn active(&self) -> bool {
        self.out.is_some() || self.trace_last.is_some()
    }

    /// Write `report` to the configured path, if one was given.
    /// Prints a confirmation line; exits with status 1 on I/O failure.
    pub fn write(&self, report: &Report) {
        let Some(path) = &self.out else { return };
        if let Err(e) = report.write(path.as_ref()) {
            eprintln!("error: failed to write telemetry to {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry written to {path}");
    }

    /// Dump the tail of `run`'s event ring to stderr if `--trace-last`
    /// was given. Call only on abnormal exit (incomplete run).
    pub fn dump_trace(&self, label: &str, run: &RunReport) {
        let Some(n) = self.trace_last else { return };
        dump_trace_last(label, run, n);
    }
}

/// Write the last `n` retained events of `run` to stderr, oldest first,
/// one line per event. Used by the binaries' abnormal-exit path.
pub fn dump_trace_last(label: &str, run: &RunReport, n: usize) {
    let ring = &run.events.ring;
    let shown = ring.len().min(n);
    eprintln!(
        "--- trace [{label}]: last {shown} of {} retained events ({} seen) ---",
        ring.len(),
        run.events.total
    );
    for ev in &ring[ring.len() - shown..] {
        eprintln!(
            "  t={}ns kind={} qp={} arg={}",
            ev.at_ns, ev.kind, ev.qp, ev.arg
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_trace_noop_without_flag() {
        // Must not panic on an empty run report.
        TelemetryArgs::default().dump_trace("x", &RunReport::new());
    }
}
