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
    /// Emit what the flags ask for, for one binary's runs, each given as
    /// `(label, snapshot, completed)`: with `--telemetry PATH`, all of
    /// them go into one report written to the path (confirmation line on
    /// stdout; exit status 1 on I/O failure); with `--trace-last N`,
    /// every run that did not complete has the tail of its event ring
    /// dumped to stderr. Without either flag the runs are not looked at.
    pub fn emit<'a, L: AsRef<str>>(
        &self,
        runs: impl IntoIterator<Item = (L, &'a RunReport, bool)>,
    ) {
        if self.out.is_none() && self.trace_last.is_none() {
            return;
        }
        let mut report = Report::new();
        for (label, run, completed) in runs {
            report.add_run(label.as_ref(), run.clone());
            if let (false, Some(n)) = (completed, self.trace_last) {
                dump_trace_last(label.as_ref(), run, n);
            }
        }
        let Some(path) = &self.out else { return };
        if let Err(e) = report.write(path.as_ref()) {
            eprintln!("error: failed to write telemetry to {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry written to {path}");
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
    fn emit_is_a_noop_without_flags() {
        // Must not panic on an empty, incomplete run report.
        TelemetryArgs::default().emit([("x", &RunReport::new(), false)]);
    }
}
