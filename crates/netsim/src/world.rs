//! Entity registry and event dispatch.
//!
//! A [`World`] owns every simulated component (switches, NICs, workload
//! drivers) behind the [`Entity`] trait and a [`simcore::Engine`] that
//! orders their events. Entities never hold references to each other —
//! all interaction flows through scheduled events — which keeps ownership
//! simple and the simulation deterministic.
//!
//! ## Node-id convention
//!
//! Host NICs occupy entity slots `0..n_hosts`, so `HostId(h)` lives at
//! `NodeId(h)`. Topology builders rely on this to route packets and oracle
//! notifications to hosts without a lookup table; [`World::reserve`] hands
//! out ids in order, and the builders assert the convention holds.
//!
//! ## Canonical event order
//!
//! Every event carries a `(time, seq, lane)` key: `lane` is the entity
//! that scheduled it and `seq` a per-lane Lamport counter bumped past the
//! key of the event being handled. Dispatch strictly follows this key
//! order, which is *independent of which engine an event was pushed
//! into* — the property that lets `World::run_sharded` partition the
//! world across threads ([`ShardPlan`]) and still replay the exact serial
//! schedule, bit for bit.

use crate::event::{ControlMsg, Event, Routed};
use crate::packet::Packet;
use crate::types::{NodeId, PortId};
use simcore::engine::{Engine, StopReason};
use simcore::event::Scheduled;
use simcore::time::{Nanos, TimeDelta};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Delivery latency of the "control plane" edges ([`Ctx::control`]):
/// workload-driver commands to NICs, NIC completion notifications back to
/// the driver, and oracle loss notifications. A real control plane (PCIe
/// doorbells, driver queues) is never literally instantaneous; modelling
/// it as a small fixed latency also gives every cross-entity edge a
/// nonzero delay, which is exactly the lookahead a conservative parallel
/// engine needs (see [`ShardPlan::new`]).
pub const CONTROL_PLANE_LATENCY: TimeDelta = TimeDelta(500);

/// The `lane` used for events seeded from outside the dispatch loop
/// ([`World::seed_event`]); distinct from every entity lane so seed keys
/// can never collide with entity-scheduled keys.
pub const SEED_LANE: u32 = u32::MAX;

/// A simulated component: switch, NIC, or workload driver.
pub trait Entity: Any {
    /// Handle one event. `ctx` allows scheduling follow-up events.
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>);

    /// Downcast support (stats collection, test inspection).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Where a [`Ctx`] routes the events an entity schedules.
enum SchedHandle<'a> {
    /// Serial run: everything lands in the one engine.
    Serial(&'a mut Engine<Routed>),
    /// Sharded run: local events land in this shard's engine, events for
    /// entities owned by another shard are staged in a worker-local
    /// per-destination buffer (`stage[dst]`), flushed into the shared
    /// outboxes once per window so the hot path never takes a lock.
    Shard {
        engine: &'a mut Engine<Routed>,
        owner: &'a [u16],
        me: u16,
        stage: &'a mut [Vec<Scheduled<Routed>>],
    },
}

/// Scheduling context handed to an entity while it processes an event.
pub struct Ctx<'a> {
    /// Id of the entity currently handling the event.
    pub self_id: NodeId,
    now: Nanos,
    /// Per-lane Lamport counter: seeded from
    /// `max(lane_seq[self], handled.seq + 1)` so every key scheduled here
    /// strictly exceeds the key being handled; written back by the
    /// dispatch loop afterwards.
    lane_seq: u64,
    sched: SchedHandle<'a>,
}

impl<'a> Ctx<'a> {
    /// A context for driving components directly in unit tests, outside
    /// the [`World`] dispatch loop.
    pub fn for_tests(self_id: NodeId, now: Nanos, engine: &'a mut Engine<Routed>) -> Ctx<'a> {
        Ctx {
            self_id,
            now,
            lane_seq: 0,
            sched: SchedHandle::Serial(engine),
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedule `ev` for `to` after `delay`, keyed with this lane's next
    /// Lamport sequence number. In a sharded run, events for entities on
    /// another shard divert to that shard's inbox.
    #[inline]
    fn schedule(&mut self, delay: TimeDelta, to: NodeId, ev: Event) {
        let at = self.now + delay;
        let seq = self.lane_seq;
        self.lane_seq += 1;
        let lane = self.self_id.0;
        let payload = Routed { node: to, ev };
        match &mut self.sched {
            SchedHandle::Serial(engine) => engine.schedule_keyed(at, seq, lane, payload),
            SchedHandle::Shard {
                engine,
                owner,
                me,
                stage,
            } => {
                let dest = owner[to.index()];
                if dest == *me {
                    engine.schedule_keyed(at, seq, lane, payload);
                } else {
                    stage[dest as usize].push(Scheduled {
                        at,
                        seq,
                        lane,
                        payload,
                    });
                }
            }
        }
    }

    /// Deliver `pkt` to `to` (arriving on `in_port`) after `delay`.
    #[inline]
    pub fn send_packet(&mut self, to: NodeId, in_port: PortId, pkt: Packet, delay: TimeDelta) {
        self.schedule(delay, to, Event::Packet { pkt, in_port });
    }

    /// Schedule a TxDone for one of the caller's own ports after `delay`.
    #[inline]
    pub fn tx_done_in(&mut self, delay: TimeDelta, port: PortId) {
        let node = self.self_id;
        self.schedule(delay, node, Event::TxDone { port });
    }

    /// Arm a timer on the caller itself.
    #[inline]
    pub fn timer_in(&mut self, delay: TimeDelta, token: u64) {
        let node = self.self_id;
        self.schedule(delay, node, Event::Timer { token });
    }

    /// Deliver a PFC pause/resume frame to `to` (arriving for its port
    /// `in_port`) after the link latency `delay`.
    #[inline]
    pub fn send_pfc(&mut self, to: NodeId, in_port: PortId, pause: bool, delay: TimeDelta) {
        self.schedule(delay, to, Event::Pfc { in_port, pause });
    }

    /// Deliver a control message to `to` after `delay`.
    #[inline]
    pub fn control_in(&mut self, delay: TimeDelta, to: NodeId, msg: ControlMsg) {
        self.schedule(delay, to, Event::Control(msg));
    }

    /// Deliver a control message to `to` over the control plane, i.e.
    /// after [`CONTROL_PLANE_LATENCY`].
    #[inline]
    pub fn control(&mut self, to: NodeId, msg: ControlMsg) {
        self.control_in(CONTROL_PLANE_LATENCY, to, msg);
    }
}

/// One lookahead-safety violation observed by the sharded engine: a
/// cross-shard event arrived with a timestamp below the window barrier
/// its receiver had already dispatched through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadViolation {
    /// Timestamp of the late event.
    pub at_ns: u64,
    /// The receiver's window barrier it should have cleared
    /// (`min_k(next_k + reach[k][receiver])`).
    pub window_end_ns: u64,
    /// Shard that sent the event.
    pub from_shard: u16,
    /// Shard that should have received it earlier.
    pub to_shard: u16,
}

/// Partition description for `World::run_sharded`.
///
/// `owner[i]` names the shard that owns entity slot `i`; each shard runs
/// on its own thread with its own engine, synchronized by conservative
/// time windows bounded by the per-pair lookahead matrix.
pub struct ShardPlan {
    /// Shard owning each entity slot (`owner.len() == world.len()`).
    pub owner: Vec<u16>,
    /// Number of shards (threads).
    pub n_shards: usize,
    /// Per-pair direct lookahead matrix, row-major `n_shards × n_shards`:
    /// `λ[i * n + j]` lower-bounds the latency of every edge crossing
    /// shard `i` → shard `j` (`u64::MAX` when no such edge exists).
    /// Partition builders derive it from link latencies and
    /// `CONTROL_PLANE_LATENCY` over cut edges; declaring an entry larger
    /// than the true minimum is unsound and is caught by the always-on
    /// lookahead-safety check.
    lookahead_matrix: Vec<u64>,
    /// Per-shard telemetry attachments `(clock, stamp)`, mirrored into
    /// each shard engine so per-shard sinks stamp records correctly.
    pub telem: Vec<(telemetry::SharedClock, telemetry::SharedStamp)>,
    /// When set, lookahead violations are recorded here and the run
    /// aborts cleanly instead of panicking (used by the property tests to
    /// observe the invariant checker itself).
    pub violations: Option<Arc<Mutex<Vec<LookaheadViolation>>>>,
}

impl ShardPlan {
    /// A plan assigning each entity slot to `owner[slot]`, with the
    /// per-pair direct lookahead `matrix` (row-major `n_shards × n_shards`
    /// nanoseconds; `u64::MAX` for pairs with no crossing edge) and no
    /// telemetry attachments. Each shard's window extends to
    /// `min_k(next_k + reach[k][me])` where `reach` is the min-plus
    /// closure of the matrix.
    ///
    /// # Panics
    /// Panics if an owner is out of range, or the matrix is not
    /// `n_shards²` entries or contains a zero (a zero-latency cross-shard
    /// edge admits no conservative window).
    pub fn new(owner: Vec<u16>, n_shards: usize, matrix: Vec<u64>) -> ShardPlan {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(
            owner.iter().all(|&o| (o as usize) < n_shards),
            "shard owner out of range"
        );
        assert_eq!(
            matrix.len(),
            n_shards * n_shards,
            "lookahead matrix must be n_shards x n_shards"
        );
        assert!(
            matrix.iter().all(|&l| l > 0),
            "cross-shard lookahead entries must be positive"
        );
        ShardPlan {
            owner,
            n_shards,
            lookahead_matrix: matrix,
            telem: Vec::new(),
            violations: None,
        }
    }

    /// The per-pair direct lookahead matrix.
    pub fn lookahead_matrix(&self) -> &[u64] {
        &self.lookahead_matrix
    }

    /// The min-plus closure of the lookahead matrix: `B[k][i]`
    /// is the smallest total latency of any ≥1-edge path of cross-shard
    /// hops from shard `k` to shard `i` (diagonal = shortest cycle). The
    /// window bound must use this closure rather than the direct matrix:
    /// an idle shard can be woken by a neighbor next round and relay a
    /// low-latency event the round after, so shard `i` may only dispatch
    /// below `min_k(next_k + B[k][i])`.
    fn reachability(&self) -> Vec<u64> {
        let n = self.n_shards;
        let mut b = self.lookahead_matrix.clone();
        // Floyd–Warshall in the (min, +) semiring without zeroing the
        // diagonal, which yields min-weight non-empty walks (all entries
        // are positive, so these equal simple paths / simple cycles).
        for via in 0..n {
            for src in 0..n {
                let through = b[src * n + via];
                if through == u64::MAX {
                    continue;
                }
                for dst in 0..n {
                    let cand = through.saturating_add(b[via * n + dst]);
                    if cand < b[src * n + dst] {
                        b[src * n + dst] = cand;
                    }
                }
            }
        }
        b
    }
}

/// One shard's private state while a partitioned run is in flight.
struct ShardState {
    engine: Engine<Routed>,
    slots: Vec<Option<Box<dyn Entity>>>,
    lane_seq: Vec<u64>,
    /// Worker-local cross-shard staging, one buffer per destination
    /// shard; flushed into the shared outboxes once per window.
    stage: Vec<Vec<Scheduled<Routed>>>,
}

/// Wrapper that moves a [`ShardState`] onto a worker thread.
///
/// SAFETY: `ShardState` is not `Send` because entities and the engine's
/// telemetry attachments hold `Rc`/`Cell` handles. Every such handle
/// reachable from one shard's state points either (a) into that same
/// shard — the partition builder gives each shard its own sink, shared
/// only by that shard's entities and engine — or (b) at main-thread
/// clones (e.g. the harness keeps a `Sink` per shard) which are never
/// touched while the workers run: the spawning thread blocks in
/// `thread::scope` until every worker has been joined, and spawn/join
/// establish happens-before edges around each worker's accesses. So no
/// `Rc` count or `Cell` content is ever accessed from two threads
/// without synchronization.
struct ShardCell(ShardState);
unsafe impl Send for ShardCell {}

impl ShardCell {
    /// Unwrap on the worker thread. A method (rather than destructuring
    /// at the capture site) so the closure captures the whole `ShardCell`
    /// — edition-2021 precise capture would otherwise capture the inner,
    /// non-`Send` `ShardState` field directly.
    fn into_inner(self) -> ShardState {
        self.0
    }
}

/// Everything a shard worker shares with its peers.
struct ShardCtx<'a> {
    me: usize,
    n: usize,
    horizon: Nanos,
    /// Min-plus closure of the lookahead matrix
    /// ([`ShardPlan::reachability`]), row-major `n × n`.
    reach: &'a [u64],
    /// Each shard's next-event time (u64::MAX = idle), published before
    /// the window barrier.
    mins: &'a [AtomicU64],
    /// `outboxes[src][dst]`: events scheduled by `src` for entities owned
    /// by `dst`, drained by `dst` at the window boundary.
    outboxes: &'a [Vec<Mutex<Vec<Scheduled<Routed>>>>],
    barrier: &'a Barrier,
    owner: &'a [u16],
    /// Cooperative shutdown flag: set on entity panic or lookahead
    /// violation so every worker leaves the barrier protocol together
    /// (a unilateral panic would deadlock the others at the barrier).
    abort: &'a AtomicBool,
    violations: &'a Mutex<Vec<LookaheadViolation>>,
    panics: &'a Mutex<Vec<Box<dyn Any + Send>>>,
}

/// The simulation world: all entities plus the event engine.
pub struct World {
    /// The discrete-event engine. Exposed for horizon tuning.
    pub engine: Engine<Routed>,
    slots: Vec<Option<Box<dyn Entity>>>,
    /// Per-entity Lamport counters for canonical event keys.
    lane_seq: Vec<u64>,
    /// Insertion counter for [`Self::seed_event`] keys (lane [`SEED_LANE`]).
    seed_seq: u64,
    shard_plan: Option<ShardPlan>,
}

impl Default for World {
    fn default() -> Self {
        Self::new()
    }
}

impl World {
    /// An empty world at time zero.
    pub fn new() -> World {
        World {
            engine: Engine::new(),
            slots: Vec::new(),
            lane_seq: Vec::new(),
            seed_seq: 0,
            shard_plan: None,
        }
    }

    /// Install a partition: subsequent [`Self::run`] / [`Self::run_until`]
    /// calls execute sharded when the plan has more than one shard.
    ///
    /// # Panics
    /// Panics if the plan does not cover every entity slot.
    pub fn set_shard_plan(&mut self, plan: ShardPlan) {
        assert_eq!(
            plan.owner.len(),
            self.slots.len(),
            "shard plan covers {} slots but world has {}",
            plan.owner.len(),
            self.slots.len()
        );
        self.shard_plan = Some(plan);
    }

    /// The installed shard plan, if any (partition inspection / tests).
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.shard_plan.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.engine.now()
    }

    /// Number of entity slots (reserved or installed).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the world has no entities.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Add an entity, returning its id.
    pub fn add(&mut self, e: Box<dyn Entity>) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Some(e));
        self.lane_seq.push(0);
        id
    }

    /// Reserve an empty slot (e.g. for a host NIC built later).
    pub fn reserve(&mut self) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(None);
        self.lane_seq.push(0);
        id
    }

    /// Install an entity into a previously reserved slot.
    ///
    /// # Panics
    /// Panics if the slot is already occupied — that is a wiring bug.
    pub fn install(&mut self, id: NodeId, e: Box<dyn Entity>) {
        let slot = &mut self.slots[id.index()];
        assert!(slot.is_none(), "slot {id} already occupied");
        *slot = Some(e);
    }

    /// Immutable typed access to an entity.
    pub fn get<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.slots
            .get(id.index())?
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable typed access to an entity.
    pub fn get_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots
            .get_mut(id.index())?
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Iterate over installed entities.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &dyn Entity)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|e| (NodeId(i as u32), e)))
    }

    /// Schedule an initial event before running, keyed on [`SEED_LANE`]
    /// in installation order so seeds dispatch identically in serial and
    /// sharded runs.
    pub fn seed_event(&mut self, at: Nanos, node: NodeId, ev: Event) {
        let seq = self.seed_seq;
        self.seed_seq += 1;
        self.engine
            .schedule_keyed(at, seq, SEED_LANE, Routed { node, ev });
    }

    /// Run until the event queue drains or the horizon passes.
    ///
    /// Executes sharded when a multi-shard [`ShardPlan`] is installed;
    /// the result is bit-identical either way.
    pub fn run(&mut self) -> StopReason {
        if self.shard_plan.as_ref().is_some_and(|p| p.n_shards > 1) {
            return self.run_sharded();
        }
        loop {
            let Some(scheduled) = self.engine.step() else {
                return if self.engine.pending() == 0 {
                    StopReason::QueueEmpty
                } else {
                    StopReason::HorizonReached
                };
            };
            let Routed { node, ev } = scheduled.payload;
            let idx = node.index();
            let entity = self.slots[idx]
                .as_deref_mut()
                .unwrap_or_else(|| panic!("event for missing entity {node}"));
            let mut ctx = Ctx {
                self_id: node,
                now: self.engine.now(),
                lane_seq: self.lane_seq[idx].max(scheduled.seq + 1),
                sched: SchedHandle::Serial(&mut self.engine),
            };
            entity.handle(ev, &mut ctx);
            self.lane_seq[idx] = ctx.lane_seq;
        }
    }

    /// Run with a time horizon.
    pub fn run_until(&mut self, horizon: Nanos) -> StopReason {
        self.engine.horizon = horizon;
        self.run()
    }

    /// Execute the run partitioned across threads per the installed
    /// [`ShardPlan`], using conservative time windows.
    ///
    /// Protocol, per round: every shard publishes its next event time and
    /// meets at a barrier; shard `i` then dispatches its local events
    /// strictly below its own window barrier
    /// `min_k(next_k + reach[k][i])`, where `reach` is the min-plus
    /// closure of the per-pair lookahead matrix. Cross-shard
    /// sends stage in worker-local buffers, flush to per-destination
    /// outboxes at a second barrier, and are drained by their receiver
    /// (such events provably land at or beyond the receiver's window
    /// barrier; the always-on check here is the lookahead-safety
    /// invariant). Because every event carries its canonical
    /// `(time, seq, lane)` key, the union of all shard dispatches replays
    /// the serial order exactly, independent of window shapes.
    fn run_sharded(&mut self) -> StopReason {
        let plan = self.shard_plan.take().expect("caller checked plan");
        let n = plan.n_shards;
        let horizon = self.engine.horizon;
        let n_slots = self.slots.len();
        assert_eq!(plan.owner.len(), n_slots, "shard plan out of date");

        // Split: each entity, its Lamport counter, and every pending
        // event move to the owning shard's private engine.
        let mut shards: Vec<ShardState> = (0..n)
            .map(|i| {
                let mut engine = self.engine.fork();
                if let Some((clock, stamp)) = plan.telem.get(i) {
                    engine.attach_clock(clock.clone());
                    engine.attach_stamp(stamp.clone());
                }
                ShardState {
                    engine,
                    slots: (0..n_slots).map(|_| None).collect(),
                    lane_seq: self.lane_seq.clone(),
                    stage: (0..n).map(|_| Vec::new()).collect(),
                }
            })
            .collect();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(e) = slot.take() {
                shards[plan.owner[i] as usize].slots[i] = Some(e);
            }
        }
        for ev in self.engine.take_pending() {
            let dest = plan.owner[ev.payload.node.index()] as usize;
            shards[dest].engine.restore(ev);
        }

        let mins: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let outboxes: Vec<Vec<Mutex<Vec<Scheduled<Routed>>>>> = (0..n)
            .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = Barrier::new(n);
        let abort = AtomicBool::new(false);
        let violation_log: Mutex<Vec<LookaheadViolation>> = Mutex::new(Vec::new());
        let panic_log: Mutex<Vec<Box<dyn Any + Send>>> = Mutex::new(Vec::new());
        let owner: &[u16] = &plan.owner;
        let reach = plan.reachability();

        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .drain(..)
                .enumerate()
                .map(|(me, state)| {
                    let cell = ShardCell(state);
                    let sc = ShardCtx {
                        me,
                        n,
                        horizon,
                        reach: &reach,
                        mins: &mins,
                        outboxes: &outboxes,
                        barrier: &barrier,
                        owner,
                        abort: &abort,
                        violations: &violation_log,
                        panics: &panic_log,
                    };
                    scope.spawn(move || {
                        let mut state = cell.into_inner();
                        shard_worker(&mut state, &sc);
                        ShardCell(state)
                    })
                })
                .collect();
            shards = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(ShardCell(state)) => state,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect();
        });

        // Merge: entities and Lamport counters return to their slots,
        // shard engines fold into the main one (clock to the max,
        // dispatch counts add, leftover events keep their keys).
        for (me, shard) in shards.into_iter().enumerate() {
            for (i, slot) in shard.slots.into_iter().enumerate() {
                if let Some(e) = slot {
                    self.slots[i] = Some(e);
                }
            }
            for (i, seq) in shard.lane_seq.into_iter().enumerate() {
                if plan.owner[i] as usize == me {
                    self.lane_seq[i] = seq;
                }
            }
            self.engine.absorb(shard.engine);
        }

        if let Some(payload) = panic_log
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
        {
            std::panic::resume_unwind(payload);
        }
        let found = violation_log
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let recording = plan.violations.clone();
        self.shard_plan = Some(plan);
        if !found.is_empty() {
            match recording {
                Some(sink) => sink.lock().expect("violation sink poisoned").extend(found),
                None => {
                    let v = found[0];
                    panic!(
                        "lookahead violation: cross-shard event at {} ns delivered below \
                         window barrier {} ns (shard {} -> shard {})",
                        v.at_ns, v.window_end_ns, v.from_shard, v.to_shard
                    );
                }
            }
        }
        if self.engine.pending() == 0 {
            StopReason::QueueEmpty
        } else {
            StopReason::HorizonReached
        }
    }
}

/// Idle marker in the published-minimum slots.
const IDLE: u64 = u64::MAX;

/// One shard's thread: the conservative window loop described on
/// `World::run_sharded`.
fn shard_worker(state: &mut ShardState, sc: &ShardCtx<'_>) {
    let mut nexts = vec![0u64; sc.n];
    loop {
        let next = state
            .engine
            .next_event_time()
            .map_or(IDLE, |t| t.as_nanos());
        sc.mins[sc.me].store(next, Ordering::SeqCst);
        sc.barrier.wait();
        if sc.abort.load(Ordering::SeqCst) {
            return;
        }
        for (slot, a) in nexts.iter_mut().zip(sc.mins) {
            *slot = a.load(Ordering::SeqCst);
        }
        let m = *nexts.iter().min().expect("at least one shard");
        if m == IDLE || m > sc.horizon.as_nanos() {
            return;
        }
        // This shard's conservative window: any event that can still
        // reach it originates from some shard k's current queue (time
        // >= next_k) and crosses >= 1 cut edges totalling >= reach[k][me]
        // — including k == me via the shortest cycle, covering replies
        // provoked by our own sends. Always > m since reach > 0, so the
        // globally-minimal shard makes progress every round.
        let window_end = nexts
            .iter()
            .enumerate()
            .map(|(k, &t)| t.saturating_add(sc.reach[k * sc.n + sc.me]))
            .min()
            .expect("at least one shard");
        state.engine.horizon = Nanos(window_end - 1).min(sc.horizon);
        let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dispatch_window(state, sc);
        }));
        if let Err(payload) = dispatched {
            sc.panics.lock().expect("panic log poisoned").push(payload);
            sc.abort.store(true, Ordering::SeqCst);
        }
        state.engine.horizon = sc.horizon;
        // Flush the window's staged cross-shard sends: one lock per
        // destination instead of one per event.
        for (dst, staged) in state.stage.iter_mut().enumerate() {
            if !staged.is_empty() {
                sc.outboxes[sc.me][dst]
                    .lock()
                    .expect("shard outbox poisoned")
                    .append(staged);
            }
        }
        sc.barrier.wait();
        for src in 0..sc.n {
            let mut inbox = sc.outboxes[src][sc.me]
                .lock()
                .expect("shard inbox poisoned");
            for ev in inbox.drain(..) {
                if ev.at.as_nanos() < window_end {
                    // Lookahead-safety invariant: a conservative window
                    // only dispatches up to `window_end` because no
                    // cross-shard event can land before it. Seeing one
                    // means the declared lookahead exceeded the true
                    // minimum cross-shard latency.
                    sc.violations.lock().expect("violation log poisoned").push(
                        LookaheadViolation {
                            at_ns: ev.at.as_nanos(),
                            window_end_ns: window_end,
                            from_shard: src as u16,
                            to_shard: sc.me as u16,
                        },
                    );
                    sc.abort.store(true, Ordering::SeqCst);
                    continue;
                }
                state.engine.restore(ev);
            }
        }
    }
}

/// Dispatch every local event inside the current window.
fn dispatch_window(state: &mut ShardState, sc: &ShardCtx<'_>) {
    let ShardState {
        engine,
        slots,
        lane_seq,
        stage,
    } = state;
    while let Some(scheduled) = engine.step() {
        let Routed { node, ev } = scheduled.payload;
        let idx = node.index();
        let entity = slots[idx]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("event for entity {node} missing from shard {}", sc.me));
        let mut ctx = Ctx {
            self_id: node,
            now: engine.now(),
            lane_seq: lane_seq[idx].max(scheduled.seq + 1),
            sched: SchedHandle::Shard {
                engine: &mut *engine,
                owner: sc.owner,
                me: sc.me as u16,
                stage: &mut *stage,
            },
        };
        entity.handle(ev, &mut ctx);
        lane_seq[idx] = ctx.lane_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::{HostId, QpId};

    /// A test entity that counts events and ping-pongs a packet `n` times.
    struct PingPong {
        peer: NodeId,
        remaining: u32,
        received: u32,
    }

    impl Entity for PingPong {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            if let Event::Packet { pkt, .. } = ev {
                self.received += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send_packet(self.peer, PortId(0), pkt, TimeDelta::from_micros(1));
                }
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut w = World::new();
        let a = w.reserve();
        let b = w.reserve();
        w.install(
            a,
            Box::new(PingPong {
                peer: b,
                remaining: 5,
                received: 0,
            }),
        );
        w.install(
            b,
            Box::new(PingPong {
                peer: a,
                remaining: 5,
                received: 0,
            }),
        );
        let pkt = Packet::cnp(QpId(0), HostId(0), HostId(1), 1);
        w.seed_event(
            Nanos::ZERO,
            a,
            Event::Packet {
                pkt,
                in_port: PortId(0),
            },
        );
        let reason = w.run();
        assert_eq!(reason, StopReason::QueueEmpty);
        let ea: &PingPong = w.get(a).unwrap();
        let eb: &PingPong = w.get(b).unwrap();
        // a receives the seed + 5 returns from b minus... total exchanges:
        // a(seed) -> b -> a -> b ... each side forwards up to 5 times.
        assert_eq!(ea.received + eb.received, 11);
        // 10 forwards at 1us each.
        assert_eq!(w.now(), Nanos::from_micros(10));
    }

    #[test]
    fn timers_address_self() {
        struct T {
            fired: Vec<u64>,
        }
        impl Entity for T {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Timer { token } => {
                        self.fired.push(token);
                        if token < 3 {
                            ctx.timer_in(TimeDelta::from_micros(1), token + 1);
                        }
                    }
                    _ => panic!("unexpected event"),
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut w = World::new();
        let id = w.add(Box::new(T { fired: vec![] }));
        w.seed_event(Nanos::ZERO, id, Event::Timer { token: 0 });
        w.run();
        let t: &T = w.get(id).unwrap();
        assert_eq!(t.fired, vec![0, 1, 2, 3]);
    }

    #[test]
    fn horizon_stops_the_world() {
        struct Forever;
        impl Entity for Forever {
            fn handle(&mut self, _ev: Event, ctx: &mut Ctx<'_>) {
                ctx.timer_in(TimeDelta::from_micros(10), 0);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut w = World::new();
        let id = w.add(Box::new(Forever));
        w.seed_event(Nanos::ZERO, id, Event::Timer { token: 0 });
        let reason = w.run_until(Nanos::from_micros(100));
        assert_eq!(reason, StopReason::HorizonReached);
        assert!(w.now() <= Nanos::from_micros(100));
    }

    fn ping_pong_world(rounds: u32) -> (World, NodeId, NodeId) {
        let mut w = World::new();
        let a = w.reserve();
        let b = w.reserve();
        w.install(
            a,
            Box::new(PingPong {
                peer: b,
                remaining: rounds,
                received: 0,
            }),
        );
        w.install(
            b,
            Box::new(PingPong {
                peer: a,
                remaining: rounds,
                received: 0,
            }),
        );
        let pkt = Packet::cnp(QpId(0), HostId(0), HostId(1), 1);
        w.seed_event(
            Nanos::ZERO,
            a,
            Event::Packet {
                pkt,
                in_port: PortId(0),
            },
        );
        (w, a, b)
    }

    #[test]
    fn sharded_run_matches_serial() {
        let (mut serial, a, b) = ping_pong_world(50);
        serial.run();

        let (mut sharded, _, _) = ping_pong_world(50);
        // Uniform 1 us, the diagonal included.
        sharded.set_shard_plan(ShardPlan::new(vec![0, 1], 2, vec![1_000; 4]));
        let reason = sharded.run();
        assert_eq!(reason, StopReason::QueueEmpty);

        assert_eq!(sharded.now(), serial.now());
        assert_eq!(sharded.engine.dispatched(), serial.engine.dispatched());
        for id in [a, b] {
            let s: &PingPong = serial.get(id).unwrap();
            let p: &PingPong = sharded.get(id).unwrap();
            assert_eq!(s.received, p.received);
        }
    }

    #[test]
    fn per_pair_matrix_matches_serial() {
        let (mut serial, a, b) = ping_pong_world(50);
        serial.run();

        let (mut sharded, _, _) = ping_pong_world(50);
        // Honest direct matrix: 1 us each way, no self-edges.
        let plan = ShardPlan::new(vec![0, 1], 2, vec![u64::MAX, 1_000, 1_000, u64::MAX]);
        sharded.set_shard_plan(plan);
        let reason = sharded.run();
        assert_eq!(reason, StopReason::QueueEmpty);

        assert_eq!(sharded.now(), serial.now());
        assert_eq!(sharded.engine.dispatched(), serial.engine.dispatched());
        for id in [a, b] {
            let s: &PingPong = serial.get(id).unwrap();
            let p: &PingPong = sharded.get(id).unwrap();
            assert_eq!(s.received, p.received);
        }
    }

    #[test]
    fn reachability_closes_over_multi_hop_paths() {
        // 3 shards: 0->1 is 5 ns, 1->2 is 5 ns, 0->2 direct is 1000 ns.
        // The closure must discover the 10 ns relay path 0->1->2, and the
        // diagonal must become the shortest cycle through each shard.
        let x = u64::MAX;
        let matrix = vec![
            x, 5, 1000, //
            x, x, 5, //
            7, x, x,
        ];
        let plan = ShardPlan::new(vec![0, 1, 2], 3, matrix);
        let b = plan.reachability();
        assert_eq!(b[2], 10, "0->2 must relay through 1");
        assert_eq!(b[0], 17, "cycle 0->1->2->0");
        assert_eq!(b[4], 17, "cycle 1->2->0->1");
        assert_eq!(b[3 + 2], 5, "direct 1->2 survives");
    }

    #[test]
    fn lying_matrix_is_caught() {
        let (mut w, _, _) = ping_pong_world(5);
        // True cross-shard latency is 1 us; declare 5 us pairwise.
        let mut plan = ShardPlan::new(vec![0, 1], 2, vec![u64::MAX, 5_000, 5_000, u64::MAX]);
        let log = Arc::new(Mutex::new(Vec::new()));
        plan.violations = Some(log.clone());
        w.set_shard_plan(plan);
        w.run();
        let found = log.lock().unwrap();
        assert!(!found.is_empty(), "expected a lookahead violation");
        assert!(found.iter().all(|v| v.at_ns < v.window_end_ns));
    }

    #[test]
    fn lying_lookahead_is_caught() {
        let (mut w, _, _) = ping_pong_world(5);
        // True cross-shard latency is 1 us; declare 5 us. The first
        // cross-shard send (at 1 us, window barrier 5 us) must trip the
        // lookahead-safety check.
        let mut plan = ShardPlan::new(vec![0, 1], 2, vec![5_000; 4]);
        let log = Arc::new(Mutex::new(Vec::new()));
        plan.violations = Some(log.clone());
        w.set_shard_plan(plan);
        w.run();
        let found = log.lock().unwrap();
        assert!(!found.is_empty(), "expected a lookahead violation");
        assert!(found.iter().all(|v| v.at_ns < v.window_end_ns));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_install_panics() {
        let mut w = World::new();
        let id = w.add(Box::new(PingPong {
            peer: NodeId(0),
            remaining: 0,
            received: 0,
        }));
        w.install(
            id,
            Box::new(PingPong {
                peer: NodeId(0),
                remaining: 0,
                received: 0,
            }),
        );
    }

    #[test]
    fn typed_access_checks_type() {
        let mut w = World::new();
        let id = w.add(Box::new(PingPong {
            peer: NodeId(0),
            remaining: 0,
            received: 0,
        }));
        assert!(w.get::<PingPong>(id).is_some());
        struct Other;
        impl Entity for Other {
            fn handle(&mut self, _: Event, _: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        assert!(w.get::<Other>(id).is_none());
    }
}
