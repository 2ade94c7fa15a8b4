//! DCQCN reaction-point state machine (sender side).
//!
//! Implements the rate-control algorithm of Zhu et al. (SIGCOMM'15) as
//! deployed on commodity RNICs, with the two knobs the paper sweeps in
//! Fig 5:
//!
//! * **T_D** (`td`): the *rate-decrease interval* — a cut (whether from a
//!   CNP or a NACK) is applied at most once per T_D.
//! * **T_I** (`ti`): the *rate-increase timer* — every T_I without a cut,
//!   the sender runs one recovery iteration (fast recovery → additive
//!   increase → hyper increase).
//!
//! A **byte counter** provides a second stream of increase events, and an
//! **alpha timer** decays the congestion estimate `alpha` when no CNPs
//! arrive. On commodity NIC-SR, *NACKs also cut the rate* — the paper's
//! "unnecessary slow start" (§2.2) — modeled by [`Dcqcn::on_nack`].
//!
//! Everything but T_I, T_D and the on/off switch is fixed at the values
//! of HPCC/DCQCN deployments (the constants below). The rate-scaled ones
//! are divisors of the QP's line rate, always applied as
//! `line_rate / DIVISOR`: a reciprocal multiply can differ in the last
//! bit, and every rate trajectory would drift with it.

use crate::config::CcConfig;
use simcore::time::{Nanos, TimeDelta};

/// EWMA gain `g` for the congestion-extent estimate alpha.
pub const G: f64 = 1.0 / 256.0;
/// Alpha-update timer period (55 µs in the DCQCN paper).
pub const ALPHA_TIMER: TimeDelta = TimeDelta::from_micros(55);
/// Additive-increase step: line rate / 2000.
pub const RAI_DIVISOR: f64 = 2000.0;
/// Hyper-increase step: line rate / 200.
pub const RHAI_DIVISOR: f64 = 200.0;
/// Rate floor: line rate / 1000.
pub const MIN_RATE_DIVISOR: f64 = 1000.0;
/// Recovery iterations of one event stream before additive increase.
pub const FAST_RECOVERY_THRESHOLD: u32 = 5;
/// Byte counter: every this many transmitted bytes is also an increase
/// event.
pub const BYTE_COUNTER: u64 = 10 * 1024 * 1024;
/// Notification-point minimum CNP spacing per receiver QP.
pub const CNP_INTERVAL: TimeDelta = TimeDelta::from_micros(50);
/// Factor applied to the current rate by a NACK cut.
pub const NACK_CUT_FACTOR: f64 = 0.5;

/// Per-QP DCQCN reaction-point state.
///
/// ```
/// use rnic::{CcConfig, Dcqcn};
/// use simcore::time::Nanos;
/// const LINE: u64 = 100_000_000_000;
/// let mut cc = Dcqcn::new(CcConfig::recommended(LINE), LINE);
/// assert_eq!(cc.rate_bps(), LINE as f64);
/// cc.on_cnp(Nanos::from_micros(10));       // congestion -> cut
/// assert!(cc.rate_bps() < LINE as f64);
/// for _ in 0..10 {
///     cc.on_increase_timer();              // T_I-paced recovery
/// }
/// assert!(cc.rate_bps() > 0.9 * LINE as f64);
/// ```
#[derive(Debug, Clone)]
pub struct Dcqcn {
    cfg: CcConfig,
    line_rate: f64,
    /// Current sending rate (bits/s).
    rc: f64,
    /// Target rate for recovery (bits/s).
    rt: f64,
    /// Congestion-extent estimate in [0, 1].
    alpha: f64,
    /// Increase events seen from the timer since the last cut.
    timer_events: u32,
    /// Increase events seen from the byte counter since the last cut.
    byte_events: u32,
    /// Bytes transmitted since the last byte-counter event.
    bytes_accum: u64,
    /// Time of the last applied rate cut.
    last_cut: Option<Nanos>,
    /// Whether a CNP arrived since the last alpha-timer tick.
    cnp_since_alpha_tick: bool,
}

impl Dcqcn {
    /// Fresh state at line rate.
    pub fn new(cfg: CcConfig, line_rate_bps: u64) -> Dcqcn {
        let line = line_rate_bps as f64;
        Dcqcn {
            cfg,
            line_rate: line,
            rc: line,
            rt: line,
            alpha: 1.0,
            timer_events: 0,
            byte_events: 0,
            bytes_accum: 0,
            last_cut: None,
            cnp_since_alpha_tick: false,
        }
    }

    /// Current sending rate in bits/s.
    #[inline]
    pub fn rate_bps(&self) -> f64 {
        if self.cfg.enabled {
            self.rc
        } else {
            self.line_rate
        }
    }

    /// Current alpha (tests / tracing).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether a cut is permitted at `now` (T_D gate).
    fn cut_allowed(&self, now: Nanos) -> bool {
        match self.last_cut {
            None => true,
            Some(t) => now.since(t) >= self.cfg.td,
        }
    }

    /// Rate floor in bits/s.
    fn min_rate(&self) -> f64 {
        self.line_rate / MIN_RATE_DIVISOR
    }

    fn after_cut(&mut self, now: Nanos) {
        self.rc = self.rc.max(self.min_rate());
        self.rt = self.rt.max(self.min_rate());
        self.timer_events = 0;
        self.byte_events = 0;
        self.bytes_accum = 0;
        self.last_cut = Some(now);
    }

    /// A CNP arrived. Returns true if a cut was applied.
    pub fn on_cnp(&mut self, now: Nanos) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.cnp_since_alpha_tick = true;
        // Alpha rises on every CNP regardless of the T_D gate.
        self.alpha = (1.0 - G) * self.alpha + G;
        if !self.cut_allowed(now) {
            return false;
        }
        self.rt = self.rc;
        self.rc *= 1.0 - self.alpha / 2.0;
        self.after_cut(now);
        true
    }

    /// A NACK arrived — commodity NIC-SR treats this as congestion and
    /// slows down (§2.2). Returns true if a cut was applied.
    pub fn on_nack(&mut self, now: Nanos) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        if !self.cut_allowed(now) {
            return false;
        }
        self.rt = self.rc;
        self.rc *= NACK_CUT_FACTOR;
        self.after_cut(now);
        true
    }

    /// Alpha-update timer tick: decay alpha if no CNP arrived since the
    /// previous tick.
    pub fn on_alpha_timer(&mut self) {
        if !self.cfg.enabled {
            return;
        }
        if !self.cnp_since_alpha_tick {
            self.alpha *= 1.0 - G;
        }
        self.cnp_since_alpha_tick = false;
    }

    /// Rate-increase timer (T_I) tick.
    pub fn on_increase_timer(&mut self) {
        if !self.cfg.enabled {
            return;
        }
        self.timer_events += 1;
        self.increase();
    }

    /// Account `bytes` of transmitted data; may trigger byte-counter
    /// increase events.
    pub fn on_bytes_sent(&mut self, bytes: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.bytes_accum += bytes;
        while self.bytes_accum >= BYTE_COUNTER {
            self.bytes_accum -= BYTE_COUNTER;
            self.byte_events += 1;
            self.increase();
        }
    }

    /// One recovery iteration: fast recovery until either event counter
    /// passes the threshold, then additive increase, then hyper increase
    /// when both counters pass it.
    fn increase(&mut self) {
        let timer_past = self.timer_events > FAST_RECOVERY_THRESHOLD;
        let byte_past = self.byte_events > FAST_RECOVERY_THRESHOLD;
        if timer_past && byte_past {
            self.rt += self.line_rate / RHAI_DIVISOR;
        } else if timer_past || byte_past {
            self.rt += self.line_rate / RAI_DIVISOR;
        }
        // Fast recovery (and every phase): close half the gap to target.
        self.rt = self.rt.min(self.line_rate);
        self.rc = (self.rt + self.rc) / 2.0;
        self.rc = self.rc.clamp(self.min_rate(), self.line_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 100_000_000_000;

    fn mk() -> Dcqcn {
        Dcqcn::new(CcConfig::recommended(LINE), LINE)
    }

    #[test]
    fn starts_at_line_rate() {
        let d = mk();
        assert_eq!(d.rate_bps(), LINE as f64);
    }

    #[test]
    fn cnp_cuts_by_half_alpha() {
        let mut d = mk();
        // alpha starts at 1.0, rises slightly on the CNP itself, so the
        // first cut is close to halving.
        assert!(d.on_cnp(Nanos::from_micros(100)));
        let r = d.rate_bps();
        assert!(r < 0.51 * LINE as f64 && r > 0.45 * LINE as f64, "r={r}");
        assert!((r - 0.5 * LINE as f64).abs() < 1.0, "one cut halves it");
    }

    #[test]
    fn td_gates_cut_frequency() {
        let mut d = mk(); // td = 4us
        assert!(d.on_cnp(Nanos::from_micros(100)));
        let r1 = d.rate_bps();
        // 1us later: inside T_D, no cut.
        assert!(!d.on_cnp(Nanos::from_micros(101)));
        assert_eq!(d.rate_bps(), r1);
        // 4us later: allowed again.
        assert!(d.on_cnp(Nanos::from_micros(104)));
        assert!(d.rate_bps() < r1);
    }

    #[test]
    fn nack_cut_respects_td_and_factor() {
        let mut d = mk();
        assert!(d.on_nack(Nanos::from_micros(10)));
        assert!((d.rate_bps() - 0.5 * LINE as f64).abs() < 1.0);
        assert!(!d.on_nack(Nanos::from_micros(11)));
        assert!(
            (d.rate_bps() - 0.5 * LINE as f64).abs() < 1.0,
            "one cut: the rate fell once"
        );
    }

    #[test]
    fn disabled_cc_never_moves() {
        let mut d = Dcqcn::new(CcConfig::disabled(), LINE);
        d.on_cnp(Nanos::from_micros(5));
        d.on_nack(Nanos::from_micros(50));
        d.on_increase_timer();
        d.on_bytes_sent(1 << 30);
        assert_eq!(d.rate_bps(), LINE as f64);
    }

    #[test]
    fn fast_recovery_halves_gap_to_target() {
        let mut d = mk();
        d.on_cnp(Nanos::from_micros(10));
        let target = d.rt;
        let r0 = d.rc;
        d.on_increase_timer();
        let r1 = d.rc;
        assert!((r1 - (target + r0) / 2.0).abs() < 1.0);
        // Five iterations converge most of the way to target.
        for _ in 0..4 {
            d.on_increase_timer();
        }
        assert!((d.rc - target).abs() / target < 0.05);
    }

    #[test]
    fn additive_then_hyper_increase_raises_target() {
        let mut d = mk();
        // Two spaced cuts bring the target rate well below line rate so
        // increases are observable (rt is clamped at line rate otherwise).
        d.on_cnp(Nanos::from_micros(10));
        d.on_cnp(Nanos::from_micros(20));
        let t0 = d.rt;
        assert!(t0 < LINE as f64);
        // Exceed fast-recovery threshold on the timer path only.
        for _ in 0..6 {
            d.on_increase_timer();
        }
        assert!(d.rt > t0, "additive increase raises rt");
        let before_hyper = d.rt;
        // Now push the byte counter past the threshold too -> hyper.
        d.on_bytes_sent(BYTE_COUNTER * 7);
        assert!(d.rt >= before_hyper);
        assert!(d.rc <= LINE as f64 + 1.0);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = mk();
        d.on_cnp(Nanos::from_micros(10));
        let a0 = d.alpha();
        d.on_alpha_timer(); // CNP seen since tick -> no decay, flag cleared
        assert_eq!(d.alpha(), a0);
        d.on_alpha_timer(); // no CNP since -> decay
        assert!(d.alpha() < a0);
    }

    #[test]
    fn rate_never_below_floor_nor_above_line() {
        let mut d = mk();
        let mut t = 0u64;
        for _ in 0..200 {
            t += 10;
            d.on_cnp(Nanos::from_micros(t));
        }
        assert!(d.rate_bps() >= d.min_rate());
        for _ in 0..100_000 {
            d.on_increase_timer();
        }
        assert!(d.rate_bps() <= LINE as f64);
    }

    #[test]
    fn recovery_time_scales_with_ti() {
        // With T_I = 900us, recovering most of a halved rate takes about
        // 5 * 900us of fast recovery; with T_I = 10us it takes ~50us.
        // Here we only verify event-count equivalence: the same number of
        // timer events produces the same rate trajectory regardless of
        // wall spacing (the NIC schedules them at T_I intervals).
        let mut a = mk();
        let mut b = Dcqcn::new(CcConfig::with_ti_td(10, 4), LINE);
        a.on_nack(Nanos::from_micros(10));
        b.on_nack(Nanos::from_micros(10));
        for _ in 0..5 {
            a.on_increase_timer();
            b.on_increase_timer();
        }
        assert!((a.rate_bps() - b.rate_bps()).abs() < 1.0);
    }

    /// Bit patterns of the current and target rate (`rate_bps()`, `rt`)
    /// after each phase, in order: a CNP cut; alpha after an alpha-timer
    /// decay, then a second CNP cut that reads it; five fast-recovery
    /// ticks; additive increase; the byte counter one byte short of and
    /// then exactly at an event; hyper increase through the byte counter;
    /// the floor after repeated cuts past T_D; six recovery ticks and a
    /// hyper increase from the floor; a NACK cut.
    fn phase_bits(line: u64) -> Vec<u64> {
        let us = Nanos::from_micros;
        let mut d = Dcqcn::new(CcConfig::recommended(line), line);
        let mut out = Vec::new();
        let rec =
            |d: &Dcqcn, out: &mut Vec<u64>| out.extend([d.rate_bps().to_bits(), d.rt.to_bits()]);
        d.on_cnp(us(10));
        assert_eq!(d.rate_bps(), line as f64 / 2.0, "first cut");
        rec(&d, &mut out);
        d.on_alpha_timer();
        d.on_alpha_timer();
        out.push(d.alpha().to_bits());
        d.on_cnp(us(20));
        rec(&d, &mut out);
        for _ in 0..6 {
            d.on_increase_timer();
            rec(&d, &mut out);
        }
        const MIB10: u64 = 10 * 1024 * 1024;
        for bytes in [MIB10 - 1, 1, 5 * MIB10] {
            d.on_bytes_sent(bytes);
            rec(&d, &mut out);
        }
        let mut t = 30;
        for _ in 0..200 {
            t += 10;
            d.on_cnp(us(t));
        }
        assert_eq!(d.rate_bps(), line as f64 / 1000.0, "rate floor");
        rec(&d, &mut out);
        for _ in 0..6 {
            d.on_increase_timer();
            rec(&d, &mut out);
        }
        d.on_bytes_sent(6 * MIB10);
        rec(&d, &mut out);
        d.on_nack(us(t + 10));
        rec(&d, &mut out);
        out
    }

    /// Pins every fixed parameter bit for bit at 100 G, 400 G and an odd
    /// 12.000000074 G. A drifted constant changes the trace, and so does
    /// a divide by the line rate turned into a reciprocal multiply: at
    /// round rates `x / d == x * (1.0 / d)` for all three divisors, but
    /// at the odd rate each of the three changes a rounding in this
    /// trace. The fingerprints were taken from the configuration that
    /// stored each parameter as a field.
    #[test]
    fn fixed_parameters_are_pinned_bit_for_bit() {
        use std::hash::{Hash, Hasher};
        for (line, want) in [
            (LINE, 0x323c_5fd8_cbc5_8480_u64),
            (4 * LINE, 0x9eb4_0a00_c58c_1d24),
            (12_000_000_074, 0x643e_2d87_ab16_f4cf),
        ] {
            let bits = phase_bits(line);
            let mut h = simcore::fx::FxHasher::default();
            bits.hash(&mut h);
            assert_eq!(h.finish(), want, "{line} b/s: {bits:#x?}");
        }
    }
}
