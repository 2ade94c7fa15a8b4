//! The in-simulation workload driver.
//!
//! One [`Driver`] entity owns every collective *instance* (group) of an
//! experiment. At start (a seed timer event) it posts all dependency-free
//! transfers; as [`ControlMsg::MessageDelivered`] notifications arrive it
//! releases dependent transfers and records per-instance completion
//! times. The §5 metric — the slowest group's completion time — is
//! [`Driver::tail_completion`].

use crate::schedule::Schedule;
use netsim::event::{ControlMsg, Event};
use netsim::types::{HostId, NodeId, QpId};
use netsim::world::{Ctx, Entity, World};
use rnic::Nic;
use simcore::rng::Xoshiro256;
use simcore::stats::LogHistogram;
use simcore::time::Nanos;
use std::collections::HashMap;

/// Allocates globally unique QP ids and flow entropy values.
#[derive(Debug)]
pub struct QpAllocator {
    next: u32,
    rng: Xoshiro256,
}

impl QpAllocator {
    /// A fresh allocator.
    pub fn new(seed: u64) -> QpAllocator {
        QpAllocator {
            next: 0,
            rng: Xoshiro256::seeded(seed),
        }
    }

    /// Allocate a QP id plus a random ephemeral UDP source port.
    pub fn alloc(&mut self) -> (QpId, u16) {
        let qp = QpId(self.next);
        self.next += 1;
        // Ephemeral port range 49152..65535.
        let sport = 49152 + self.rng.next_below(16_384) as u16;
        (qp, sport)
    }

    /// Number of QPs allocated so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }
}

/// A collective instance wired to concrete hosts and QPs.
#[derive(Debug)]
pub struct InstanceSpec {
    /// Rank → host mapping.
    pub hosts: Vec<HostId>,
    /// The schedule.
    pub schedule: Schedule,
    /// Transfer index → QP carrying it.
    pub qp_of_transfer: Vec<QpId>,
}

/// Create one reliable connection between two hosts, registering the
/// driver on both NICs. Returns the QP id and its forward-direction
/// entropy (UDP source port).
///
/// This is the same provisioning path [`setup_collective`] uses
/// internally; it is public so external frontends (the sim-as-a-service
/// layer) can create QPs one at a time between engine windows and later
/// post work on them via [`single_transfer_spec`] +
/// [`Driver::add_instance_deferred`].
pub fn provision_qp(
    world: &mut World,
    driver_node: NodeId,
    src_host: HostId,
    dst_host: HostId,
    alloc: &mut QpAllocator,
) -> (QpId, u16) {
    let (qp, sport) = alloc.alloc();
    // Reverse-direction entropy differs from forward so ACK streams do
    // not necessarily share the forward path.
    let reverse_sport = sport ^ 0x4000;
    {
        let nic: &mut Nic = world
            .get_mut(NodeId(src_host.0))
            .expect("sender NIC installed at NodeId(host)");
        nic.create_send_qp(qp, dst_host, sport);
        nic.set_driver(driver_node);
    }
    {
        let nic: &mut Nic = world
            .get_mut(NodeId(dst_host.0))
            .expect("receiver NIC installed at NodeId(host)");
        nic.create_recv_qp(qp, src_host, reverse_sport);
        nic.set_driver(driver_node);
    }
    (qp, sport)
}

/// An [`InstanceSpec`] carrying exactly one transfer of `bytes` from
/// `src_host` to `dst_host` over the already-provisioned `qp` — the
/// shape of an externally-posted verbs `post_send`: one work request,
/// one completion, reusing a connection created by [`provision_qp`].
pub fn single_transfer_spec(
    src_host: HostId,
    dst_host: HostId,
    qp: QpId,
    bytes: u64,
) -> InstanceSpec {
    InstanceSpec {
        hosts: vec![src_host, dst_host],
        schedule: Schedule {
            name: "post-send",
            n_ranks: 2,
            transfers: vec![crate::schedule::Transfer {
                src: 0,
                dst: 1,
                bytes: bytes.max(1),
                deps: vec![],
            }],
        },
        qp_of_transfer: vec![qp],
    }
}

/// Create the QPs for `schedule` over `hosts` and register the driver on
/// every participating NIC. One QP per ordered rank pair per instance,
/// matching how NCCL-style libraries reuse connections across steps.
pub fn setup_collective(
    world: &mut World,
    driver_node: NodeId,
    hosts: &[HostId],
    schedule: Schedule,
    alloc: &mut QpAllocator,
) -> InstanceSpec {
    assert_eq!(
        hosts.len(),
        schedule.n_ranks,
        "host list must cover every rank"
    );
    let mut pair_qp: HashMap<(usize, usize), QpId> = HashMap::new();
    let mut qp_of_transfer = Vec::with_capacity(schedule.transfers.len());
    for t in &schedule.transfers {
        let qp = *pair_qp.entry((t.src, t.dst)).or_insert_with(|| {
            provision_qp(world, driver_node, hosts[t.src], hosts[t.dst], alloc).0
        });
        qp_of_transfer.push(qp);
    }
    InstanceSpec {
        hosts: hosts.to_vec(),
        schedule,
        qp_of_transfer,
    }
}

/// Like [`setup_collective`], but striping every transfer across
/// `stripes` parallel QPs per rank pair, the way NCCL-style libraries
/// spread one logical channel over several connections (the paper's §4
/// sizing assumes up to 100 cross-rack QPs per NIC for Alltoall-heavy
/// workloads).
///
/// Each transfer of B bytes is split into `stripes` sub-messages of
/// ~B/stripes bytes, one per QP of the pair; the sub-transfers inherit
/// the original dependencies, and every dependant waits for *all*
/// stripes of its dependency (the driver's delivery bookkeeping treats
/// each stripe as its own transfer).
pub fn setup_collective_striped(
    world: &mut World,
    driver_node: NodeId,
    hosts: &[HostId],
    schedule: Schedule,
    stripes: usize,
    alloc: &mut QpAllocator,
) -> InstanceSpec {
    assert!(stripes >= 1, "need at least one stripe");
    assert_eq!(
        hosts.len(),
        schedule.n_ranks,
        "host list must cover every rank"
    );
    if stripes == 1 {
        return setup_collective(world, driver_node, hosts, schedule, alloc);
    }
    let mut pair_qps: HashMap<(usize, usize), Vec<QpId>> = HashMap::new();
    let mut transfers = Vec::with_capacity(schedule.transfers.len() * stripes);
    let mut qp_of_transfer = Vec::with_capacity(schedule.transfers.len() * stripes);
    // Original transfer i becomes striped transfers i*stripes..(i+1)*stripes.
    for t in &schedule.transfers {
        let qps = pair_qps
            .entry((t.src, t.dst))
            .or_insert_with(|| {
                (0..stripes)
                    .map(|_| provision_qp(world, driver_node, hosts[t.src], hosts[t.dst], alloc).0)
                    .collect()
            })
            .clone();
        let base = t.bytes / stripes as u64;
        let remainder = t.bytes - base * stripes as u64;
        for (s, &qp) in qps.iter().enumerate() {
            let bytes = if s == 0 { base + remainder } else { base };
            let deps = t
                .deps
                .iter()
                .flat_map(|&d| (0..stripes).map(move |k| d * stripes + k))
                .collect();
            transfers.push(crate::schedule::Transfer {
                src: t.src,
                dst: t.dst,
                bytes: bytes.max(1),
                deps,
            });
            qp_of_transfer.push(qp);
        }
    }
    InstanceSpec {
        hosts: hosts.to_vec(),
        schedule: Schedule {
            name: schedule.name,
            n_ranks: schedule.n_ranks,
            transfers,
        },
        qp_of_transfer,
    }
}

/// Runtime state of one transfer of an instance.
#[derive(Debug, Clone, Default)]
struct TransferState {
    /// Dependencies not yet delivered.
    remaining_deps: usize,
    /// Transfers that list this one among their dependencies.
    dependents: Vec<usize>,
    post_time: Option<Nanos>,
    /// `Some` once delivered; a second delivery is a stray.
    delivery_time: Option<Nanos>,
}

#[derive(Debug)]
struct InstanceState {
    spec: InstanceSpec,
    /// One entry per transfer of `spec.schedule`: a single allocation
    /// per instance, which matters to callers that add an instance per
    /// message (the service's `post_send`).
    transfers: Vec<TransferState>,
    undelivered: usize,
    completion: Option<Nanos>,
    /// Deferred instances wait for their own `Timer { token: JOB_TOKEN_BASE + i }`
    /// instead of the global [`START_TOKEN`] kick-off (open-loop arrivals).
    deferred: bool,
    started: Option<Nanos>,
}

impl InstanceState {
    fn new(spec: InstanceSpec) -> InstanceState {
        let n = spec.schedule.transfers.len();
        let mut transfers = vec![TransferState::default(); n];
        for (i, t) in spec.schedule.transfers.iter().enumerate() {
            transfers[i].remaining_deps = t.deps.len();
            for &d in &t.deps {
                transfers[d].dependents.push(i);
            }
        }
        InstanceState {
            spec,
            transfers,
            undelivered: n,
            completion: None,
            deferred: false,
            started: None,
        }
    }
}

/// Timer token that kicks the workload off.
pub const START_TOKEN: u64 = 0;

/// Timer tokens `JOB_TOKEN_BASE + i` start *deferred* instance `i`
/// individually — the open-loop arrival mechanism. Seed one such timer
/// per job at its sampled arrival time.
pub const JOB_TOKEN_BASE: u64 = 1;

/// The workload-driver entity.
#[derive(Debug, Default)]
pub struct Driver {
    instances: Vec<InstanceState>,
    started_at: Option<Nanos>,
    telem: Option<(telemetry::Sink, telemetry::HistId)>,
    /// Deliveries received for unknown tags (accounting bug canary).
    pub stray_deliveries: u64,
}

impl Driver {
    /// An empty driver; add instances before the run starts.
    pub fn new() -> Driver {
        Driver::default()
    }

    /// Register an instance; returns its index.
    pub fn add_instance(&mut self, spec: InstanceSpec) -> usize {
        spec.schedule.validate();
        assert_eq!(spec.qp_of_transfer.len(), spec.schedule.transfers.len());
        self.instances.push(InstanceState::new(spec));
        self.instances.len() - 1
    }

    /// Register a *deferred* instance: it ignores [`START_TOKEN`] and
    /// starts only when its own `Timer { token: JOB_TOKEN_BASE + index }`
    /// fires. Returns the index (also the token offset to seed).
    pub fn add_instance_deferred(&mut self, spec: InstanceSpec) -> usize {
        let i = self.add_instance(spec);
        self.instances[i].deferred = true;
        i
    }

    /// Install a telemetry handle; each transfer's post → in-order
    /// delivery latency is observed into `hist` at delivery time (the
    /// live, time-bucketed counterpart of [`Self::latency_histogram`]).
    pub fn set_telemetry(&mut self, sink: telemetry::Sink, hist: telemetry::HistId) {
        self.telem = Some((sink, hist));
    }

    /// When the workload was kicked off.
    pub fn started_at(&self) -> Option<Nanos> {
        self.started_at
    }

    /// When instance `i` actually started (its roots were posted).
    /// `None` until its start timer fires.
    pub fn start_of(&self, i: usize) -> Option<Nanos> {
        self.instances.get(i).and_then(|s| s.started)
    }

    /// Flow/job completion time of instance `i`: completion − start.
    /// `None` until the instance both started and completed.
    pub fn fct_of(&self, i: usize) -> Option<simcore::time::TimeDelta> {
        let st = self.instances.get(i)?;
        Some(st.completion?.since(st.started?))
    }

    /// Number of instances that have started.
    pub fn num_started(&self) -> usize {
        self.instances
            .iter()
            .filter(|s| s.started.is_some())
            .count()
    }

    /// Number of instances that have completed.
    pub fn num_completed(&self) -> usize {
        self.instances
            .iter()
            .filter(|s| s.completion.is_some())
            .count()
    }

    /// The slowest instance's completion time — the paper's §5 metric.
    /// `None` until every instance has completed, **and** `None` for a
    /// driver with no instances at all: a run that completed zero jobs
    /// has no tail, and reporting `Some(0)` would let degenerate
    /// zero-job configurations masquerade as instant completions (the
    /// callers' `unwrap()`s then crash much later, far from the cause).
    pub fn tail_completion(&self) -> Option<Nanos> {
        if self.instances.is_empty() {
            return None;
        }
        self.instances
            .iter()
            .map(|s| s.completion)
            .collect::<Option<Vec<_>>>()
            .and_then(|v| v.into_iter().max())
    }

    /// All per-instance completion times.
    pub fn completions(&self) -> Vec<Option<Nanos>> {
        self.instances.iter().map(|s| s.completion).collect()
    }

    /// Whether every instance completed.
    pub fn all_complete(&self) -> bool {
        self.instances.iter().all(|s| s.completion.is_some())
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Per-transfer delivery timestamps of instance `i` (per-flow
    /// throughput extraction, Fig 1d).
    pub fn delivery_times(&self, i: usize) -> impl Iterator<Item = Option<Nanos>> + '_ {
        self.instances[i].transfers.iter().map(|t| t.delivery_time)
    }

    /// The wired spec of instance `i` (QP ids for trace enablement).
    pub fn instance_spec(&self, i: usize) -> &InstanceSpec {
        &self.instances[i].spec
    }

    /// Histogram of per-transfer latencies (post → in-order delivery) in
    /// nanoseconds, across every completed transfer of every instance.
    pub fn latency_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for st in &self.instances {
            for t in &st.transfers {
                if let (Some(p), Some(d)) = (t.post_time, t.delivery_time) {
                    h.record(d.since(p).as_nanos());
                }
            }
        }
        h
    }

    fn encode_tag(instance: usize, transfer: usize) -> u64 {
        ((instance as u64) << 32) | transfer as u64
    }

    fn decode_tag(tag: u64) -> (usize, usize) {
        ((tag >> 32) as usize, (tag & 0xFFFF_FFFF) as usize)
    }

    fn post(&mut self, inst: usize, transfer: usize, ctx: &mut Ctx<'_>) {
        let st = &mut self.instances[inst];
        st.transfers[transfer].post_time = Some(ctx.now());
        let t = &st.spec.schedule.transfers[transfer];
        let src_host = st.spec.hosts[t.src];
        ctx.control(
            NodeId(src_host.0),
            ControlMsg::PostSend {
                qp: st.spec.qp_of_transfer[transfer],
                bytes: t.bytes,
                msg_tag: Self::encode_tag(inst, transfer),
            },
        );
    }

    fn start(&mut self, ctx: &mut Ctx<'_>) {
        if self.started_at.is_some() {
            return;
        }
        self.started_at = Some(ctx.now());
        for inst in 0..self.instances.len() {
            if self.instances[inst].deferred {
                continue;
            }
            self.start_instance(inst, ctx);
        }
    }

    fn start_instance(&mut self, inst: usize, ctx: &mut Ctx<'_>) {
        let Some(st) = self.instances.get_mut(inst) else {
            debug_assert!(false, "start timer for unknown instance {inst}");
            return;
        };
        if st.started.is_some() {
            return;
        }
        st.started = Some(ctx.now());
        if self.started_at.is_none() {
            self.started_at = Some(ctx.now());
        }
        let roots: Vec<usize> = self.instances[inst].spec.schedule.roots().collect();
        for r in roots {
            self.post(inst, r, ctx);
        }
    }

    fn on_delivered(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let (inst, transfer) = Self::decode_tag(tag);
        let Some(st) = self.instances.get_mut(inst) else {
            self.stray_deliveries += 1;
            return;
        };
        let Some(t) = st
            .transfers
            .get_mut(transfer)
            .filter(|t| t.delivery_time.is_none())
        else {
            self.stray_deliveries += 1;
            return;
        };
        t.delivery_time = Some(ctx.now());
        if let Some((sink, hist)) = &self.telem {
            if let Some(posted) = t.post_time {
                sink.observe(*hist, ctx.now().since(posted).as_nanos());
            }
        }
        let dependents = std::mem::take(&mut t.dependents);
        st.undelivered -= 1;
        if st.undelivered == 0 {
            st.completion = Some(ctx.now());
        }
        let mut ready = Vec::new();
        for &d in &dependents {
            st.transfers[d].remaining_deps -= 1;
            if st.transfers[d].remaining_deps == 0 {
                ready.push(d);
            }
        }
        st.transfers[transfer].dependents = dependents;
        for d in ready {
            self.post(inst, d, ctx);
        }
    }
}

impl Entity for Driver {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Timer { token: START_TOKEN } => self.start(ctx),
            Event::Timer { token } => {
                self.start_instance((token - JOB_TOKEN_BASE) as usize, ctx);
            }
            Event::Control(ControlMsg::MessageDelivered { msg_tag, .. }) => {
                self.on_delivered(msg_tag, ctx);
            }
            Event::Control(ControlMsg::MessageAcked { .. }) => {
                // Sender-side completions are informational only.
            }
            _ => debug_assert!(false, "unexpected event at driver: {ev:?}"),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ring_allreduce, ring_once};
    use netsim::port::{EgressPort, LinkSpec};
    use netsim::types::PortId;
    use rnic::NicConfig;

    const GBPS100: u64 = 100_000_000_000;

    /// Two hosts wired back-to-back plus a driver.
    fn two_host_world() -> (World, NodeId) {
        let mut world = World::new();
        let a = world.reserve();
        let b = world.reserve();
        let link = LinkSpec::gbps(100, 1);
        world.install(
            a,
            Box::new(Nic::new(
                HostId(0),
                NicConfig::nic_sr(GBPS100),
                EgressPort::new(b, PortId(0), link),
            )),
        );
        world.install(
            b,
            Box::new(Nic::new(
                HostId(1),
                NicConfig::nic_sr(GBPS100),
                EgressPort::new(a, PortId(0), link),
            )),
        );
        let driver = world.reserve();
        (world, driver)
    }

    #[test]
    fn qp_allocator_is_unique_and_in_range() {
        let mut a = QpAllocator::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (qp, sport) = a.alloc();
            assert!(seen.insert(qp));
            assert!(sport >= 49152);
        }
        assert_eq!(a.allocated(), 100);
    }

    #[test]
    fn ring_once_two_ranks_completes() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective(
            &mut world,
            driver_node,
            &hosts,
            ring_once(2, 500_000),
            &mut alloc,
        );
        let mut driver = Driver::new();
        driver.add_instance(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::ZERO,
            driver_node,
            Event::Timer { token: START_TOKEN },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        assert!(d.all_complete());
        assert_eq!(d.stray_deliveries, 0);
        let ct = d.tail_completion().expect("all_complete checked above");
        // 500 KB at 100 Gbps ≈ 40 µs minimum.
        assert!(ct > Nanos::from_micros(40));
        assert!(ct < Nanos::from_millis(1));
    }

    #[test]
    fn dependency_chain_serializes_steps() {
        // 2-rank ring allreduce: 2 steps, step 1 waits for step 0.
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let bytes_total = 1_000_000u64;
        let spec = setup_collective(
            &mut world,
            driver_node,
            &hosts,
            ring_allreduce(2, bytes_total),
            &mut alloc,
        );
        let mut driver = Driver::new();
        driver.add_instance(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::ZERO,
            driver_node,
            Event::Timer { token: START_TOKEN },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        assert!(d.all_complete());
        let ct = d
            .tail_completion()
            .expect("all_complete checked above")
            .as_secs_f64();
        // Two dependent steps of total/2 bytes each: at least
        // 2 × (500 KB / 100 Gbps) = 80 µs.
        assert!(ct >= 80e-6, "dependent steps cannot overlap: {ct}");
    }

    #[test]
    fn empty_driver_has_no_tail_completion() {
        // A run that completed zero jobs reports "no completions", not
        // an instant tail at t=0 (regression: zero-job runs used to
        // claim completion and crash callers downstream).
        let d = Driver::new();
        assert!(d.all_complete(), "vacuously true on zero instances");
        assert_eq!(d.tail_completion(), None);
        assert_eq!(d.num_completed(), 0);
    }

    #[test]
    fn single_transfer_spec_posts_and_completes_deferred() {
        // The externally-posted-work path: provision a QP directly, wrap
        // one send in a deferred instance, kick it via its own timer.
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(9);
        let (qp, _sport) = provision_qp(&mut world, driver_node, HostId(0), HostId(1), &mut alloc);
        let spec = single_transfer_spec(HostId(0), HostId(1), qp, 500_000);
        let mut driver = Driver::new();
        let idx = driver.add_instance_deferred(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::from_micros(5),
            driver_node,
            Event::Timer {
                token: JOB_TOKEN_BASE + idx as u64,
            },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        assert!(d.all_complete());
        assert_eq!(d.start_of(idx), Some(Nanos::from_micros(5)));
        assert!(d.fct_of(idx).is_some());
    }

    #[test]
    fn qps_are_shared_per_pair() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        // 2-rank allreduce: 2 transfers, both 0->1 ... plus 1->0:
        // pairs (0,1) and (1,0) across both steps -> exactly 2 QPs.
        let spec = setup_collective(
            &mut world,
            driver_node,
            &hosts,
            ring_allreduce(2, 1_000_000),
            &mut alloc,
        );
        assert_eq!(alloc.allocated(), 2);
        let unique: std::collections::HashSet<QpId> = spec.qp_of_transfer.iter().copied().collect();
        assert_eq!(unique.len(), 2);
    }

    #[test]
    fn striped_setup_creates_stripes_qps_per_pair() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective_striped(
            &mut world,
            driver_node,
            &hosts,
            ring_once(2, 1_000_000),
            4,
            &mut alloc,
        );
        // 2 ordered pairs x 4 stripes.
        assert_eq!(alloc.allocated(), 8);
        assert_eq!(spec.schedule.transfers.len(), 8);
        spec.schedule.validate();
        // Byte split: each original 1 MB transfer becomes 4 x 250 KB.
        let total: u64 = spec.schedule.transfers.iter().map(|t| t.bytes).sum();
        assert_eq!(total, 2_000_000);
    }

    #[test]
    fn striped_ring_completes_and_balances_qps() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective_striped(
            &mut world,
            driver_node,
            &hosts,
            crate::ring::ring_allreduce(2, 800_000),
            4,
            &mut alloc,
        );
        let mut driver = Driver::new();
        driver.add_instance(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::ZERO,
            driver_node,
            Event::Timer { token: START_TOKEN },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        assert!(d.all_complete(), "striped allreduce completes");
        assert_eq!(d.stray_deliveries, 0);
        // Every stripe QP carried data.
        let nic: &Nic = world.get(NodeId(0)).unwrap();
        for qp in nic.send_qps() {
            assert!(qp.stats.data_packets > 0, "idle stripe QP");
        }
    }

    #[test]
    fn one_stripe_degenerates_to_plain_setup() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective_striped(
            &mut world,
            driver_node,
            &hosts,
            ring_once(2, 500_000),
            1,
            &mut alloc,
        );
        assert_eq!(alloc.allocated(), 2);
        assert_eq!(spec.schedule.transfers.len(), 2);
    }

    #[test]
    fn latency_histogram_covers_all_transfers() {
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective(
            &mut world,
            driver_node,
            &hosts,
            crate::ring::ring_allreduce(2, 400_000),
            &mut alloc,
        );
        let n_transfers = spec.schedule.transfers.len();
        let mut driver = Driver::new();
        driver.add_instance(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::ZERO,
            driver_node,
            Event::Timer { token: START_TOKEN },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        let h = d.latency_histogram();
        assert_eq!(h.count() as usize, n_transfers);
        // Each 200 KB step takes at least its serialization time (~16 us).
        assert!(h.min().unwrap() > 10_000, "min {}ns", h.min().unwrap());
        assert!(h.quantile(0.99).unwrap() >= h.quantile(0.5).unwrap());
    }

    #[test]
    fn fan_in_then_fan_out_posts_each_transfer_once_its_deps_are_delivered() {
        // Transfers 0 and 1 feed 2; 2 feeds 3 and 4.
        let (mut world, driver_node) = two_host_world();
        let mut alloc = QpAllocator::new(7);
        let transfer = |src, dst, deps: &[usize]| crate::schedule::Transfer {
            src,
            dst,
            bytes: 100_000,
            deps: deps.to_vec(),
        };
        let schedule = Schedule {
            name: "fan-in-fan-out",
            n_ranks: 2,
            transfers: vec![
                transfer(0, 1, &[]),
                transfer(1, 0, &[]),
                transfer(0, 1, &[0, 1]),
                transfer(0, 1, &[2]),
                transfer(1, 0, &[2]),
            ],
        };
        let hosts = [HostId(0), HostId(1)];
        let spec = setup_collective(&mut world, driver_node, &hosts, schedule, &mut alloc);
        let mut driver = Driver::new();
        driver.add_instance(spec);
        world.install(driver_node, Box::new(driver));
        world.seed_event(
            Nanos::ZERO,
            driver_node,
            Event::Timer { token: START_TOKEN },
        );
        world.run_until(Nanos::from_millis(100));
        let d: &Driver = world.get(driver_node).unwrap();
        assert!(d.all_complete());
        assert_eq!(d.stray_deliveries, 0);

        let delivered: Vec<Option<Nanos>> = d.delivery_times(0).collect();
        assert_eq!(delivered.len(), 5);
        let at: Vec<Nanos> = delivered.into_iter().map(Option::unwrap).collect();
        let posted: Vec<Nanos> = d.instances[0]
            .transfers
            .iter()
            .map(|t| t.post_time.unwrap())
            .collect();
        assert_eq!(posted[0], Nanos::ZERO);
        assert_eq!(posted[1], Nanos::ZERO);
        // 2 waits for the later of its two dependencies.
        assert_eq!(posted[2], at[0].max(at[1]));
        // 3 and 4 are released together by 2's delivery.
        assert_eq!(posted[3], at[2]);
        assert_eq!(posted[4], at[2]);
        for i in 0..5 {
            assert!(at[i] > posted[i], "transfer {i} delivered after it posted");
        }
        assert_eq!(d.latency_histogram().count(), 5);
    }

    #[test]
    fn tail_completion_none_until_all_done() {
        let mut d = Driver::new();
        assert!(
            d.tail_completion().is_none(),
            "an empty driver has no tail completion to report"
        );
        let spec = InstanceSpec {
            hosts: vec![HostId(0), HostId(1)],
            schedule: ring_once(2, 100),
            qp_of_transfer: vec![QpId(0), QpId(1)],
        };
        d.add_instance(spec);
        assert!(d.tail_completion().is_none());
        assert!(!d.all_complete());
    }
}
