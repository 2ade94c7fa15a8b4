//! The metric registry: counters and time-bucketed histograms keyed by
//! small integer ids.
//!
//! Registration (by name) happens once at assembly time and may
//! allocate; every recording operation afterwards is an indexed store
//! into pre-allocated vectors — **zero allocation on the hot path**.
//!
//! Id-allocation rules:
//!
//! * ids are dense `u16` indices, allocated in registration order;
//! * registration is idempotent: registering an existing name returns
//!   the id it already has (so every switch/NIC of a fabric can call
//!   the same `register` helper and share one set of fabric-wide ids);
//! * ids are only meaningful within the [`Registry`] that issued them —
//!   never mix ids across sinks;
//! * counters saturate at `u64::MAX` instead of wrapping, so a
//!   corrupted-looking zero can never be produced by overflow.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u16);

/// Handle to a registered time-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u16);

/// Per-time-bin value statistics of a [`TimeHist`].
#[derive(Debug, Clone, Copy)]
pub struct BinStat {
    /// Values recorded in this bin.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
}

impl BinStat {
    const EMPTY: BinStat = BinStat {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    #[inline]
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A histogram whose buckets are **simulated-time bins**: each
/// observation lands in the bin of the time it was recorded at, and the
/// bin accumulates count/sum/min/max of the observed values.
///
/// All bins are pre-allocated; observations past the last bin are
/// clamped into it (recorded in `clamped` so reports can flag
/// truncation), keeping the record path allocation-free.
#[derive(Debug, Clone)]
pub struct TimeHist {
    bin_width_ns: u64,
    bins: Vec<BinStat>,
    count: u64,
    sum: u64,
    clamped: u64,
}

impl TimeHist {
    /// A histogram covering `bins * bin_width_ns` nanoseconds of
    /// simulated time.
    pub fn new(bin_width_ns: u64, bins: usize) -> TimeHist {
        assert!(bin_width_ns > 0, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        TimeHist {
            bin_width_ns,
            bins: vec![BinStat::EMPTY; bins],
            count: 0,
            sum: 0,
            clamped: 0,
        }
    }

    /// Record `value` at simulated time `at_ns`.
    #[inline]
    pub fn record(&mut self, at_ns: u64, value: u64) {
        let bin = (at_ns / self.bin_width_ns) as usize;
        let last = self.bins.len() - 1;
        if bin > last {
            self.clamped += 1;
        }
        self.bins[bin.min(last)].record(value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Bin width in nanoseconds.
    pub fn bin_width_ns(&self) -> u64 {
        self.bin_width_ns
    }

    /// All bins (including empty ones).
    pub fn bins(&self) -> &[BinStat] {
        &self.bins
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations that fell past the last bin and were clamped into it.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }
}

/// The id-keyed metric store. See the module docs for the allocation
/// rules.
#[derive(Debug, Default)]
pub struct Registry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    hist_names: Vec<String>,
    hists: Vec<TimeHist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i as u16);
        }
        assert!(
            self.counters.len() < u16::MAX as usize,
            "counter space full"
        );
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId((self.counters.len() - 1) as u16)
    }

    /// Register (or look up) a time-bucketed histogram by name. The
    /// shape (`bin_width_ns`, `bins`) is fixed by the first
    /// registration; later registrations of the same name return the
    /// existing histogram unchanged.
    pub fn time_hist(&mut self, name: &str, bin_width_ns: u64, bins: usize) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| n == name) {
            return HistId(i as u16);
        }
        assert!(self.hists.len() < u16::MAX as usize, "histogram space full");
        self.hist_names.push(name.to_string());
        self.hists.push(TimeHist::new(bin_width_ns, bins));
        HistId((self.hists.len() - 1) as u16)
    }

    /// Add `n` to a counter (saturating).
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        let c = &mut self.counters[id.0 as usize];
        *c = c.saturating_add(n);
    }

    /// Increment a counter by one (saturating).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Record `value` at simulated time `at_ns` in a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, at_ns: u64, value: u64) {
        self.hists[id.0 as usize].record(at_ns, value);
    }

    /// `(name, value)` for every registered counter, registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|n| n.as_str())
            .zip(self.counters.iter().copied())
    }

    /// `(name, hist)` for every registered histogram, registration order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &TimeHist)> {
        self.hist_names
            .iter()
            .map(|n| n.as_str())
            .zip(self.hists.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter's value, read the way snapshots read it.
    fn value(r: &Registry, name: &str) -> u64 {
        r.counters().find(|&(n, _)| n == name).map_or(0, |(_, v)| v)
    }

    #[test]
    fn counter_register_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("y");
        let a2 = r.counter("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        r.inc(a);
        r.add(a2, 4);
        assert_eq!(value(&r, "x"), 5);
        assert_eq!(value(&r, "y"), 0);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut r = Registry::new();
        let c = r.counter("sat");
        r.add(c, u64::MAX - 1);
        r.add(c, 10);
        assert_eq!(value(&r, "sat"), u64::MAX);
        r.inc(c);
        assert_eq!(value(&r, "sat"), u64::MAX);
    }

    #[test]
    fn time_hist_bins_by_time_and_clamps_overflow() {
        let mut h = TimeHist::new(100, 4); // covers [0, 400) ns
        h.record(0, 10);
        h.record(150, 20);
        h.record(399, 30);
        h.record(1_000_000, 40); // beyond last bin -> clamped into bin 3
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 100);
        assert_eq!(h.clamped(), 1);
        assert_eq!(h.bins()[0].count, 1);
        assert_eq!(h.bins()[1].count, 1);
        assert_eq!(h.bins()[2].count, 0);
        assert_eq!(h.bins()[3].count, 2);
        assert_eq!(h.bins()[3].min, 30);
        assert_eq!(h.bins()[3].max, 40);
    }

    #[test]
    fn time_hist_sum_saturates() {
        let mut h = TimeHist::new(1, 1);
        h.record(0, u64::MAX);
        h.record(0, u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.bins()[0].sum, u64::MAX);
    }

    #[test]
    fn empty_registry_iterates_nothing() {
        let r = Registry::new();
        assert_eq!(r.counters().count(), 0);
        assert_eq!(r.hists().count(), 0);
    }
}
