//! The one run substrate under the batch runners, `themis_load` and
//! `themis_serve`: provision → step → drain.
//!
//! A [`Session`] owns a built [`Cluster`] whose [`Driver`] is already
//! installed, the run's [`QpAllocator`], the window width with the count
//! of windows done, and the [`DropTally`] those windows drained. It is
//! the only place that knows
//!
//! * the install order and the driver's timer-token protocol: work is
//!   posted [`Start::WithRun`] (waits for [`Session::kick_off`]'s
//!   `START_TOKEN`) or [`Start::At`] a simulated time (a deferred
//!   instance plus its own `JOB_TOKEN_BASE + index` timer, seeded in
//!   post order);
//! * window arithmetic: [`window_end`] is checked, so a boundary past
//!   the end of `u64` nanoseconds is `None`, never a wrapped clock;
//! * what a step is: [`Session::step`] is **one** engine run to the new
//!   boundary followed by a drain of every switch's drop log, so a
//!   windowed run's memory follows its busiest window, not its length.
//!   [`Session::run_to`] is the batch case: one run to the horizon that
//!   leaves the drop logs in the switches, because batch callers hand
//!   the cluster to `oracle::check`, which audits them in place.

use crate::cluster::Cluster;
use crate::experiment::{MSG_LATENCY_BINS, MSG_LATENCY_BIN_NS};
use crate::oracle::DropTally;
use collectives::driver::{
    provision_qp, setup_collective, Driver, InstanceSpec, QpAllocator, JOB_TOKEN_BASE, START_TOKEN,
};
use collectives::schedule::Schedule;
use netsim::event::Event;
use netsim::types::{HostId, QpId};
use simcore::time::{Nanos, TimeDelta};

/// When posted work begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// With the run: at [`Session::kick_off`]'s `START_TOKEN` (t = 0).
    WithRun,
    /// At this simulated time, on the instance's own timer.
    At(Nanos),
}

/// End of window `index` (1-based; 0 is t = 0) for windows `width` wide,
/// or `None` when it lies past the end of simulated time.
pub(crate) fn window_end(width: TimeDelta, index: u64) -> Option<Nanos> {
    width.as_nanos().checked_mul(index).map(Nanos)
}

/// The cluster's merged telemetry snapshot plus the run-level `run.*`
/// counters every final document carries (unsorted: callers append their
/// own exports, then sort).
pub(crate) fn snapshot_with_run_counters(cluster: &Cluster) -> telemetry::RunReport {
    let mut t = cluster.snapshot_merged();
    t.push_counter("run.events", cluster.world.engine.dispatched());
    t.push_counter("run.shards", cluster.sinks.len() as u64);
    t.push_counter("run.sim_end_ns", cluster.world.now().as_nanos());
    t
}

/// One provision → step → drain run over one cluster (see the module
/// docs).
pub(crate) struct Session {
    /// The cluster, its driver installed.
    pub(crate) cluster: Cluster,
    alloc: QpAllocator,
    window: TimeDelta,
    windows_done: u64,
    drops: DropTally,
}

impl Session {
    /// Install an empty driver into `cluster`'s reserved slot. QP ids
    /// and flow entropy come from an allocator seeded with `qp_seed`;
    /// [`Session::step`] advances in windows of `window`.
    pub(crate) fn new(mut cluster: Cluster, qp_seed: u64, window: TimeDelta) -> Session {
        let node = cluster.driver;
        cluster.world.install(node, Box::new(Driver::new()));
        Session {
            cluster,
            alloc: QpAllocator::new(qp_seed),
            window,
            windows_done: 0,
            drops: DropTally::default(),
        }
    }

    /// Record every transfer's post → delivery latency in the
    /// `collective.msg_latency` histogram. It is registered on **every**
    /// shard sink so sharded and serial registries carry identical name
    /// sets; the driver itself reports into shard 0's sink (its owner
    /// shard).
    pub(crate) fn with_msg_latency(mut self) -> Session {
        let mut hist = None;
        for sink in &self.cluster.sinks {
            let id = sink.time_hist(
                "collective.msg_latency",
                MSG_LATENCY_BIN_NS,
                MSG_LATENCY_BINS,
            );
            hist.get_or_insert(id);
        }
        let sink = self.cluster.telemetry.clone();
        self.driver_mut()
            .set_telemetry(sink, hist.expect("cluster has at least one sink"));
        self
    }

    fn driver_mut(&mut self) -> &mut Driver {
        self.cluster
            .world
            .get_mut(self.cluster.driver)
            .expect("driver installed by Session::new")
    }

    /// Create the QPs `schedule` needs over `hosts` (one per ordered
    /// rank pair) and post it; returns the driver instance index.
    pub(crate) fn post(&mut self, hosts: &[HostId], schedule: Schedule, start: Start) -> usize {
        let spec = setup_collective(
            &mut self.cluster.world,
            self.cluster.driver,
            hosts,
            schedule,
            &mut self.alloc,
        );
        self.post_spec(spec, start)
    }

    /// Post an already-wired instance (its QPs exist); returns the
    /// driver instance index.
    pub(crate) fn post_spec(&mut self, spec: InstanceSpec, start: Start) -> usize {
        match start {
            Start::WithRun => self.driver_mut().add_instance(spec),
            Start::At(at) => {
                let idx = self.driver_mut().add_instance_deferred(spec);
                let token = JOB_TOKEN_BASE + idx as u64;
                self.cluster
                    .world
                    .seed_event(at, self.cluster.driver, Event::Timer { token });
                idx
            }
        }
    }

    /// Create one reliable connection; returns its id and forward
    /// entropy (UDP source port).
    pub(crate) fn create_qp(&mut self, src: HostId, dst: HostId) -> (QpId, u16) {
        provision_qp(
            &mut self.cluster.world,
            self.cluster.driver,
            src,
            dst,
            &mut self.alloc,
        )
    }

    /// Seed the run's `START_TOKEN` at t = 0: every [`Start::WithRun`]
    /// instance begins there. Call after the posts and before installing
    /// a `FaultPlan`, so seeded events keep their order.
    pub(crate) fn kick_off(&mut self) {
        self.cluster.world.seed_event(
            Nanos::ZERO,
            self.cluster.driver,
            Event::Timer { token: START_TOKEN },
        );
    }

    /// QPs provisioned so far.
    pub(crate) fn qps(&self) -> u32 {
        self.alloc.allocated()
    }

    /// Windows completed by [`Session::step`].
    pub(crate) fn windows_done(&self) -> u64 {
        self.windows_done
    }

    /// What the completed windows drained from the switch drop logs.
    pub(crate) fn drops(&self) -> &DropTally {
        &self.drops
    }

    /// End of the last completed window; simulated time never exceeds it.
    pub(crate) fn boundary(&self) -> Nanos {
        window_end(self.window, self.windows_done).expect("step checked this boundary")
    }

    /// Advance the engine to `horizon`, leaving window count and drop
    /// logs alone (the batch case).
    pub(crate) fn run_to(&mut self, horizon: Nanos) {
        self.cluster.world.run_until(horizon);
    }

    /// Advance `n` windows in one engine run, then drain the drop logs.
    /// Returns the new boundary, or `None` — with nothing changed — when
    /// it would lie past the end of simulated time.
    pub(crate) fn step(&mut self, n: u64) -> Option<Nanos> {
        let boundary = window_end(self.window, self.windows_done.checked_add(n)?)?;
        self.run_to(boundary);
        self.drops.drain_window(&mut self.cluster);
        self.windows_done += n;
        Some(boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_cluster_sharded;
    use crate::experiment::driver_of;
    use crate::faults::{Fault, FaultEvent, FaultPlan};
    use crate::scheme::Scheme;
    use collectives::groups::all_groups;
    use collectives::ring::ring_once;
    use netsim::switch::Switch;
    use netsim::topology::LeafSpineConfig;
    use rnic::NicConfig;

    const WINDOW: TimeDelta = TimeDelta::from_micros(50);

    /// The 8-host motivation fabric under Themis with both cross-rack
    /// ring groups posted to begin at `start` (not kicked off).
    fn session(shards: usize, start: Start) -> Session {
        let fabric = LeafSpineConfig::motivation();
        let nic = NicConfig::nic_sr(fabric.host_link.bandwidth_bps);
        let cluster = build_cluster_sharded(&fabric, nic, Scheme::Themis, shards);
        let mut s = Session::new(cluster, 7, WINDOW).with_msg_latency();
        for hosts in all_groups(fabric.n_leaves, fabric.hosts_per_leaf) {
            s.post(&hosts, ring_once(hosts.len(), 256 << 10), start);
        }
        s
    }

    /// 2 % random loss on every leaf uplink from t = 0.
    fn lossy(s: &mut Session) {
        let fabric = LeafSpineConfig::motivation();
        let mut plan = FaultPlan::none();
        for leaf in 0..fabric.n_leaves as u16 {
            for uplink in 0..fabric.n_spines as u16 {
                plan.events.push(FaultEvent {
                    at: Nanos::ZERO,
                    fault: Fault::UplinkLoss {
                        leaf,
                        uplink,
                        rate_ppm: 20_000,
                    },
                });
            }
        }
        s.kick_off();
        plan.install(&mut s.cluster);
    }

    fn drop_logs(cluster: &Cluster) -> Vec<netsim::trace::DropRecord> {
        let mut all = Vec::new();
        for id in cluster.all_switches() {
            all.extend_from_slice(cluster.world.get::<Switch>(id).unwrap().drop_log());
        }
        all
    }

    fn telemetry_doc(s: &Session) -> String {
        let mut report = telemetry::Report::new();
        report.add_run("run", s.cluster.snapshot_merged());
        report.to_json()
    }

    #[test]
    fn step_drains_every_drop_log_and_run_to_leaves_them() {
        let mut windowed = session(1, Start::WithRun);
        lossy(&mut windowed);
        for _ in 0..8 {
            windowed.step(1).unwrap();
            assert!(drop_logs(&windowed.cluster).is_empty());
        }
        let mut batch = session(1, Start::WithRun);
        lossy(&mut batch);
        batch.run_to(windowed.boundary());
        let resident = drop_logs(&batch.cluster);
        let data = resident.iter().filter(|d| d.data).count() as u64;
        assert!(data > 0, "2 % loss must drop data packets");
        assert_eq!(windowed.drops().data_dropped, data);
        assert_eq!(batch.drops().data_dropped, 0, "run_to drains nothing");
        assert_eq!(batch.windows_done(), 0);
    }

    #[test]
    fn with_run_work_waits_for_kick_off_and_timed_work_does_not() {
        let mut idle = session(1, Start::WithRun);
        idle.step(2).unwrap();
        assert_eq!(driver_of(&idle.cluster).num_started(), 0);
        assert_eq!(idle.cluster.world.engine.dispatched(), 0);

        let mut kicked = session(1, Start::WithRun);
        kicked.kick_off();
        kicked.step(1).unwrap();
        assert_eq!(driver_of(&kicked.cluster).start_of(1), Some(Nanos::ZERO));

        let at = Nanos::from_micros(75);
        let mut timed = session(1, Start::At(at));
        timed.step(1).unwrap();
        assert_eq!(driver_of(&timed.cluster).num_started(), 0, "75 us > 50 us");
        timed.step(1).unwrap();
        assert_eq!(driver_of(&timed.cluster).start_of(0), Some(at));
        assert_eq!(driver_of(&timed.cluster).start_of(1), Some(at));
    }

    #[test]
    fn one_step_of_n_windows_equals_n_steps_of_one_serial_and_sharded() {
        let mut docs = Vec::new();
        for shards in [1, 2] {
            let mut once = session(shards, Start::WithRun);
            lossy(&mut once);
            let mut thrice = session(shards, Start::WithRun);
            lossy(&mut thrice);
            let end = once.step(3).unwrap();
            for _ in 0..3 {
                thrice.step(1).unwrap();
            }
            assert_eq!(end, Nanos::from_micros(150));
            assert_eq!(thrice.boundary(), end);
            assert_eq!(once.windows_done(), 3);
            assert_eq!(once.cluster.world.now(), thrice.cluster.world.now());
            assert_eq!(once.drops().data_dropped, thrice.drops().data_dropped);
            assert_eq!(telemetry_doc(&once), telemetry_doc(&thrice));
            docs.push(telemetry_doc(&once));
        }
        assert_eq!(docs[0], docs[1], "serial and 2-shard sessions agree");
    }

    #[test]
    fn a_boundary_past_the_end_of_time_is_none_and_changes_nothing() {
        assert_eq!(window_end(WINDOW, 3), Some(Nanos::from_micros(150)));
        assert_eq!(window_end(WINDOW, u64::MAX), None);
        let mut s = session(1, Start::WithRun);
        s.kick_off();
        s.step(2).unwrap();
        let before = (s.windows_done(), s.cluster.world.engine.dispatched());
        assert_eq!(s.step(u64::MAX), None, "count overflows");
        assert_eq!(s.step(u64::MAX / 2), None, "product overflows");
        assert_eq!(
            (s.windows_done(), s.cluster.world.engine.dispatched()),
            before
        );
        assert_eq!(s.boundary(), Nanos::from_micros(100));
    }
}
