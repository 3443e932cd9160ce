//! The simulator workloads: `sim-passive-ckpt` and `sim-failover`.
//!
//! Every figure a client sees — latency, throughput, bytes, service gaps,
//! recovery — is read on the simulator's virtual clock, so it repeats
//! exactly for a given seed. Only `setup_s` and `cpu_us_per_req` are read
//! on the host clock. One run simulates [`SUBSEEDS`] worlds derived from
//! its seed and pools their virtual figures, then repeats the same worlds
//! until its time is spent; every repetition must reproduce its world's
//! first run exactly. `cpu_us_per_req` is the cheapest repetition, and
//! `setup_s` the cheapest of the set-up passes run between repetitions
//! (see [`least`] and [`setup_pass`]).
//!
//! The bed has the layout of `vd_bench::testbed::build_replicated`
//! (replicas on nodes `0..r`, then clients, managers and spare nodes, all
//! on `gc_link`), built here so that the traced run can wrap each actor
//! in a [`Timed`] shim before it is spawned.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vd_bench::testbed::{gc_topology, TestbedConfig};
use vd_bench::workload::{OpenLoopClientActor, PaddedApp, RateProfile};
use vd_core::client::{ReplicatedClientActor, ReplicatedClientConfig};
use vd_core::knobs::LowLevelKnobs;
use vd_core::recovery::{RecoveryConfig, RecoveryManager};
use vd_core::replica::{ReplicaActor, ReplicaCommand, ReplicaConfig};
use vd_core::style::ReplicationStyle;
use vd_obs::{Ctr, Hist, Obs, ObsHandle};
use vd_orb::object::ObjectKey;
use vd_orb::sim::{DriverConfig, RequestDriver};
use vd_orb::wire::OrbMessage;
use vd_simnet::actor::{payload_ref, Actor, Context, Payload, TimerToken};
use vd_simnet::metrics::Histogram;
use vd_simnet::prelude::*;

use crate::procfs;
use crate::report::{median, quantile, ratio, Outcome, Values, UNAVAIL_QUANTILE};

/// The two simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Warm passive, 64 KiB state, delta checkpoints every 10 ms.
    PassiveCkpt,
    /// Warm passive with repeated switch + primary-crash episodes.
    Failover,
}

/// Virtual time before the measured phase starts.
const WARMUP: SimDuration = SimDuration::from_millis(300);
/// Virtual time after the measured phase in which requests issued before
/// its end may still be answered.
const DRAIN: SimDuration = SimDuration::from_millis(500);
/// Virtual time, after the clients stop, for the last checkpoint to reach
/// every backup before replica states are compared.
const SETTLE: SimDuration = SimDuration::from_millis(200);
/// Rate of the failover workload's open-loop client (requests/s).
const OPEN_LOOP_RATE: f64 = 500.0;
/// Fault episodes of the failover workload: (switch to active, switch
/// back to warm passive, crash the primary's node), virtual ms from start.
const EPISODES: [(u64, u64, u64); 2] = [(1_000, 1_150, 1_300), (3_000, 3_150, 3_300)];

impl SimWorkload {
    fn config(self, seed: u64) -> TestbedConfig {
        match self {
            SimWorkload::PassiveCkpt => TestbedConfig {
                replicas: 3,
                clients: 2,
                style: ReplicationStyle::WarmPassive,
                state_bytes: 64 * 1024,
                checkpoint_interval: SimDuration::from_millis(10),
                checkpoint_full_every: 8,
                seed,
                ..TestbedConfig::default()
            },
            SimWorkload::Failover => TestbedConfig {
                replicas: 3,
                clients: 1,
                style: ReplicationStyle::WarmPassive,
                state_bytes: 4 * 1024,
                min_view: 2,
                managers: 1,
                spare_nodes: EPISODES.len(),
                seed,
                ..TestbedConfig::default()
            },
        }
    }

    /// End of the measured phase (virtual).
    fn measure_end(self) -> SimTime {
        match self {
            SimWorkload::PassiveCkpt => SimTime::from_secs(4),
            SimWorkload::Failover => SimTime::from_secs(5),
        }
    }
}

// ----- timing shims ---------------------------------------------------------

/// Which kind of actor a [`Timed`] shim wraps.
#[derive(Debug, Clone, Copy)]
enum Role {
    Replica,
    Client,
    Manager,
}

/// Handler wall time accumulated by the [`Timed`] shims of one world.
#[derive(Debug, Default, Clone)]
struct HandlerTimes {
    /// Replica handler time on inbound group traffic (GroupMsg,
    /// heartbeats, recovery and command payloads).
    replica_group_ns: u64,
    /// Replica handler time on inbound ORB messages.
    replica_orb_ns: u64,
    /// Replica timer handler time.
    replica_timer_ns: u64,
    /// Client handler time (messages and timers).
    client_ns: u64,
    /// Handler time inside the step being timed (reset per step).
    step_handler_ns: u64,
    /// Whether a shimmed handler ran in the step being timed.
    step_dispatched: bool,
    /// Σ step wall time minus handler time, over steps that dispatched to
    /// a shimmed actor.
    simnet_self_ns: u64,
    /// Steps counted in `simnet_self_ns`.
    simnet_self_events: u64,
}

/// A benchmark-side wrapper that times an actor's handlers on the host
/// clock. It changes nothing the actor sees: the traced run must
/// reproduce the untraced run's event count and virtual figures exactly.
struct Timed<A> {
    inner: A,
    role: Role,
    times: Rc<RefCell<HandlerTimes>>,
}

enum Class {
    Group,
    Orb,
    Timer,
}

impl<A: Actor> Timed<A> {
    fn record(&self, class: Class, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        let mut t = self.times.borrow_mut();
        t.step_handler_ns += ns;
        t.step_dispatched = true;
        match (self.role, class) {
            (Role::Replica, Class::Group) => t.replica_group_ns += ns,
            (Role::Replica, Class::Orb) => t.replica_orb_ns += ns,
            (Role::Replica, Class::Timer) => t.replica_timer_ns += ns,
            (Role::Client, _) => t.client_ns += ns,
            (Role::Manager, _) => {}
        }
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let started = Instant::now();
        self.inner.on_start(ctx);
        self.record(Class::Timer, started);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        let class = if payload_ref::<OrbMessage>(payload.as_ref()).is_some() {
            Class::Orb
        } else {
            Class::Group
        };
        let started = Instant::now();
        self.inner.on_message(ctx, from, payload);
        self.record(class, started);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        let started = Instant::now();
        self.inner.on_timer(ctx, timer);
        self.record(Class::Timer, started);
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// A client whose accepted replies can be counted from outside.
trait Served: Actor {
    fn served(&self) -> u64;
}

impl Served for ReplicatedClientActor {
    fn served(&self) -> u64 {
        self.driver().completed()
    }
}

impl Served for OpenLoopClientActor {
    fn served(&self) -> u64 {
        self.served
    }
}

/// Records the virtual instant of every accepted reply a client gets —
/// the client-side view the service-gap figure is read from. Present in
/// the traced and the untraced run alike.
struct ReplyProbe<A> {
    inner: A,
    replies: Rc<RefCell<Vec<SimTime>>>,
}

impl<A: Served> Actor for ReplyProbe<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Box<dyn Payload>) {
        let before = self.inner.served();
        self.inner.on_message(ctx, from, payload);
        for _ in before..self.inner.served() {
            self.replies.borrow_mut().push(ctx.now());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        self.inner.on_timer(ctx, timer);
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// The actor behind `pid`, whether or not a [`Timed`] shim wraps it.
fn actor<A: Actor>(world: &World, pid: ProcessId) -> Option<&A> {
    world
        .actor_ref::<A>(pid)
        .or_else(|| world.actor_ref::<Timed<A>>(pid).map(|t| &t.inner))
}

fn client<A: Served>(world: &World, pid: ProcessId) -> Option<&A> {
    actor::<ReplyProbe<A>>(world, pid).map(|p| &p.inner)
}

// ----- the bed --------------------------------------------------------------

struct Bed {
    world: World,
    config: TestbedConfig,
    replicas: Vec<ProcessId>,
    clients: Vec<ProcessId>,
    open_loop: Option<ProcessId>,
    manager: Option<ProcessId>,
    /// Registries of the original replicas and of every manager-spawned
    /// replacement (they share one handle).
    replica_obs: Vec<ObsHandle>,
    manager_obs: Option<ObsHandle>,
    /// Accepted-reply instants of the closed-loop clients.
    replies: Rc<RefCell<Vec<SimTime>>>,
    /// Accepted-reply instants of the open-loop client.
    open_replies: Rc<RefCell<Vec<SimTime>>>,
    times: Option<Rc<RefCell<HandlerTimes>>>,
}

impl Bed {
    fn spawn<A: Actor>(&mut self, node: u32, actor: A, role: Role) -> ProcessId {
        let boxed: Box<dyn Actor> = match &self.times {
            Some(times) => Box::new(Timed {
                inner: actor,
                role,
                times: Rc::clone(times),
            }),
            None => Box::new(actor),
        };
        self.world.spawn(NodeId(node), boxed)
    }

    fn probe<A: Served>(inner: A, replies: &Rc<RefCell<Vec<SimTime>>>) -> ReplyProbe<A> {
        ReplyProbe {
            inner,
            replies: Rc::clone(replies),
        }
    }

    /// Builds the bed; `traced` wraps every spawned actor in a [`Timed`]
    /// shim.
    fn build(workload: SimWorkload, seed: u64, traced: bool) -> Bed {
        let config = workload.config(seed);
        let open_loop_nodes = usize::from(workload == SimWorkload::Failover);
        let total_nodes = config.replicas
            + config.clients
            + config.managers
            + config.spare_nodes
            + open_loop_nodes;
        let mut world = World::new(gc_topology(total_nodes as u32), seed);
        world.set_obs(Obs::disabled());
        let mut bed = Bed {
            world,
            config: config.clone(),
            replicas: Vec::new(),
            clients: Vec::new(),
            open_loop: None,
            manager: None,
            replica_obs: Vec::new(),
            manager_obs: None,
            replies: Rc::default(),
            open_replies: Rc::default(),
            times: traced.then(Rc::default),
        };
        let members: Vec<ProcessId> = (0..config.replicas as u64).map(ProcessId).collect();
        let manager_pids: Vec<ProcessId> = (0..config.managers as u64)
            .map(|m| ProcessId((config.replicas + config.clients) as u64 + m))
            .collect();
        let mut knobs = LowLevelKnobs::default()
            .style(config.style)
            .num_replicas(config.replicas)
            .checkpoint_interval(config.checkpoint_interval)
            .checkpoint_full_every(config.checkpoint_full_every)
            .batch_max_messages(config.batch_max_messages.max(1));
        knobs.fault_monitoring_timeout = config.failure_timeout;
        let replica_config = |prefix: String, obs: ObsHandle| ReplicaConfig {
            knobs,
            group_config: vd_group::config::GroupConfig::default()
                .failure_timeout(config.failure_timeout)
                .min_view(config.min_view.max(1)),
            metrics_prefix: prefix,
            obs,
            managers: manager_pids.clone(),
            ..ReplicaConfig::for_group(config.group)
        };
        for i in 0..config.replicas {
            let obs = Obs::disabled();
            bed.replica_obs.push(obs.clone());
            let app = PaddedApp::new(config.state_bytes, config.response_bytes, 15);
            let replica = ReplicaActor::bootstrap(
                ProcessId(i as u64),
                members.clone(),
                Box::new(app),
                replica_config(format!("replica{i}"), obs),
            );
            let pid = bed.spawn(i as u32, replica, Role::Replica);
            bed.replicas.push(pid);
        }
        for c in 0..config.clients {
            let driver = RequestDriver::new(DriverConfig {
                object: ObjectKey::new("bench"),
                operation: "cycle".into(),
                request_bytes: config.request_bytes,
                total: None,
                think: SimDuration::ZERO,
            });
            let client_config = ReplicatedClientConfig {
                replicas: bed.replicas.clone(),
                rtt_metric: format!("client{c}.rtt"),
                initial_gateway: c % config.replicas,
                ..ReplicatedClientConfig::default()
            };
            let client = ReplicatedClientActor::new(driver, client_config);
            let probe = Bed::probe(client, &bed.replies);
            let pid = bed.spawn((config.replicas + c) as u32, probe, Role::Client);
            bed.clients.push(pid);
        }
        let spare_nodes: Vec<NodeId> = (0..config.spare_nodes)
            .map(|s| NodeId((config.replicas + config.clients + config.managers + s) as u32))
            .collect();
        for m in 0..config.managers {
            let replacement_obs = Obs::disabled();
            bed.replica_obs.push(replacement_obs.clone());
            let manager_obs = Obs::disabled();
            let recovery = RecoveryConfig {
                target_replicas: config.replicas,
                max_replicas: config.replicas + 2,
                spawn_nodes: spare_nodes.clone(),
                replica_config: replica_config("replacement".into(), replacement_obs),
                probe_interval: SimDuration::from_millis(5),
                attempt_deadline: SimDuration::from_millis(250),
                backoff_base: SimDuration::from_millis(20),
                backoff_cap: SimDuration::from_millis(200),
                max_attempts: 8,
                peers: manager_pids.clone(),
                takeover_silence: SimDuration::from_millis(50),
                obs: manager_obs.clone(),
            };
            let (state_bytes, response_bytes) = (config.state_bytes, config.response_bytes);
            let manager = RecoveryManager::new(
                recovery,
                Box::new(move || Box::new(PaddedApp::new(state_bytes, response_bytes, 15))),
            );
            let node = (config.replicas + config.clients + m) as u32;
            let pid = bed.spawn(node, manager, Role::Manager);
            assert_eq!(pid, manager_pids[m], "manager pid prediction");
            bed.manager = Some(pid);
            bed.manager_obs = Some(manager_obs);
        }
        if open_loop_nodes > 0 {
            // Aimed at the last replica: the episodes crash the first two
            // primaries, never it, so requests due during an outage are
            // sent and counted.
            let gateway = *bed.replicas.last().expect("replicas");
            let open = OpenLoopClientActor::new(
                gateway,
                RateProfile::constant(OPEN_LOOP_RATE),
                config.request_bytes,
                "openloop.rtt",
                workload.measure_end(),
            );
            let node = (total_nodes - 1) as u32;
            let probe = Bed::probe(open, &bed.open_replies);
            bed.open_loop = Some(bed.spawn(node, probe, Role::Client));
        }
        bed
    }

    /// Processes one event, timing the step when traced.
    fn step(&mut self) {
        let Some(times) = &self.times else {
            self.world.step();
            return;
        };
        let started = Instant::now();
        self.world.step();
        let step_ns = started.elapsed().as_nanos() as u64;
        let mut t = times.borrow_mut();
        if t.step_dispatched {
            t.simnet_self_ns += step_ns.saturating_sub(t.step_handler_ns);
            t.simnet_self_events += 1;
        }
        t.step_handler_ns = 0;
        t.step_dispatched = false;
    }

    /// Steps until virtual time reaches `until`.
    fn run_until(&mut self, until: SimTime) {
        while self.world.now() < until {
            self.step();
        }
    }

    /// Every replica pid the run has had: the originals, then the
    /// manager's replacements.
    fn all_replicas(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let spawned = self
            .manager
            .and_then(|m| actor::<RecoveryManager>(&self.world, m))
            .map_or(&[][..], |m| &m.spawned[..]);
        self.replicas.iter().chain(spawned).copied()
    }

    /// The live replicas that are members of a view.
    fn live_members(&self) -> impl Iterator<Item = &ReplicaActor> + '_ {
        self.all_replicas().filter_map(|p| {
            actor::<ReplicaActor>(&self.world, p)
                .filter(|r| self.world.is_alive(p) && r.endpoint().is_member())
        })
    }

    fn counter(&self, c: Ctr) -> u64 {
        self.replica_obs.iter().map(|o| o.metrics.counter(c)).sum()
    }

    fn executed(&self) -> u64 {
        self.all_replicas()
            .filter_map(|p| actor::<ReplicaActor>(&self.world, p))
            .map(ReplicaActor::executed_requests)
            .sum()
    }

    fn closed_loop(&self) -> impl Iterator<Item = &ReplicatedClientActor> {
        self.clients
            .iter()
            .filter_map(|&p| client::<ReplicatedClientActor>(&self.world, p))
    }

    fn open(&self) -> Option<&OpenLoopClientActor> {
        self.open_loop
            .and_then(|p| client::<OpenLoopClientActor>(&self.world, p))
    }

    /// Accepted replies across every client.
    fn completed(&self) -> u64 {
        self.closed_loop().map(|c| c.served()).sum::<u64>() + self.open().map_or(0, |o| o.served)
    }

    fn rtt_names(&self) -> Vec<String> {
        let mut names: Vec<String> = (0..self.clients.len())
            .map(|c| format!("client{c}.rtt"))
            .collect();
        if self.open_loop.is_some() {
            names.push("openloop.rtt".into());
        }
        names
    }

    fn net_bytes(&self) -> u64 {
        self.world
            .metrics()
            .bandwidth_ref(NET_BANDWIDTH)
            .map_or(0, |m| m.total_bytes())
    }

    fn primary(&self) -> Option<ProcessId> {
        self.live_members().find_map(|r| r.engine().primary())
    }
}

/// Counters read at the start and at the end of the measured phase.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    events: u64,
    completed: u64,
    net_bytes: u64,
    sim_deliveries: u64,
    ctr: Vec<u64>,
    executed: u64,
    retries: u64,
    batch: (u64, u64),
    times: HandlerTimes,
}

const COUNTERS: [Ctr; 12] = [
    Ctr::OrbMarshalBytes,
    Ctr::GroupSends,
    Ctr::GroupFrameCopies,
    Ctr::GroupWireBytes,
    Ctr::GroupDeliveries,
    Ctr::GroupRetransmits,
    Ctr::GroupHeartbeatsSent,
    Ctr::CkptBytesSent,
    Ctr::CkptFullSent,
    Ctr::CkptDeltaSent,
    Ctr::CkptRejected,
    Ctr::Failovers,
];

fn ctr_index(c: Ctr) -> usize {
    COUNTERS
        .iter()
        .position(|&k| k == c)
        .expect("counter is snapshotted")
}

impl Snapshot {
    fn take(bed: &Bed) -> Snapshot {
        let batch = bed
            .replica_obs
            .iter()
            .map(|o| o.metrics.hist(Hist::BatchOccupancy))
            .fold((0, 0), |(s, c), h| (s + h.sum, c + h.count));
        Snapshot {
            events: bed.world.events_processed(),
            completed: bed.completed(),
            net_bytes: bed.net_bytes(),
            sim_deliveries: bed.world.obs().metrics.counter(Ctr::SimDeliveries),
            ctr: COUNTERS.iter().map(|&c| bed.counter(c)).collect(),
            executed: bed.executed(),
            retries: bed.closed_loop().map(|c| c.retries).sum(),
            batch,
            times: bed
                .times
                .as_ref()
                .map(|t| t.borrow().clone())
                .unwrap_or_default(),
        }
    }
}

/// The figures read on the virtual clock. Every repetition of a seed, and
/// the traced run, must reproduce them exactly.
#[derive(Debug, Clone, PartialEq)]
struct Virtual {
    events: u64,
    completed: u64,
    span_us: u64,
    latency_count: usize,
    latency_p50_us: u64,
    latency_p99_us: u64,
    net_bytes: u64,
    attempted: u64,
    failed: u64,
    /// Crash-free: the wait before each reply since the previous one.
    /// Failover: the open-loop client's gap spanning each crash.
    gaps_us: Vec<u64>,
    /// Crash-free: start until the group is fully protected.
    /// Failover: each crash until a survivor's view is back at the target
    /// degree.
    recovery_us: Vec<u64>,
    switch_us: u64,
    detect_us: u64,
    respawn_us: u64,
    state_agrees: bool,
}

/// One repetition's result.
struct Rep {
    cpu_s: f64,
    virt: Virtual,
    latency: Histogram,
    layers: Values,
}

/// Recovery timeline of one crash episode, read after every step.
#[derive(Debug, Clone, Copy)]
struct Episode {
    crashed: ProcessId,
    at: SimTime,
    spawned_before: usize,
    detected: Option<SimTime>,
    respawned: Option<SimTime>,
    restored: Option<SimTime>,
}

impl Episode {
    /// How long the episode is watched at most.
    fn horizon(&self) -> SimTime {
        self.at + SimDuration::from_millis(1_500)
    }

    fn watch(&mut self, bed: &Bed) {
        let now = bed.world.now();
        if self.detected.is_none()
            && bed
                .live_members()
                .any(|r| !r.engine().members().contains(&self.crashed))
        {
            self.detected = Some(now);
        }
        if self.respawned.is_none() && bed.spawned() > self.spawned_before {
            self.respawned = Some(now);
        }
        if self.restored.is_none()
            && bed.live_members().any(|r| {
                let m = r.engine().members();
                !m.contains(&self.crashed) && m.len() >= bed.config.replicas
            })
        {
            self.restored = Some(now);
        }
    }

    fn done(&self) -> bool {
        self.restored.is_some() && self.respawned.is_some()
    }
}

impl Bed {
    /// Replacements the manager has spawned so far.
    fn spawned(&self) -> usize {
        self.manager
            .and_then(|m| actor::<RecoveryManager>(&self.world, m))
            .map_or(0, |m| m.spawned.len())
    }
}

/// The latest first adoption of `style` at or after `since`, over every
/// live replica: when the last replica finished the switch.
fn switch_done(bed: &Bed, style: ReplicationStyle, since: SimTime) -> Option<SimTime> {
    bed.live_members()
        .map(|r| {
            r.style_history()
                .iter()
                .find(|(t, s)| *t >= since && *s == style)
                .map(|(t, _)| *t)
        })
        .try_fold(since, |latest, t| t.map(|t| latest.max(t)))
}

/// Whether every live, synchronized member of the final view holds the
/// same application state.
fn states_agree(bed: &Bed) -> bool {
    let states: Vec<_> = bed
        .live_members()
        .filter(|r| r.engine().is_synced())
        .map(|r| r.app().capture_state())
        .collect();
    states.len() >= 2 && states.windows(2).all(|w| w[0] == w[1])
}

fn us(d: SimDuration) -> u64 {
    d.as_micros()
}

/// Runs the failover workload's fault episodes; returns them with the
/// worst style-switch time.
fn run_episodes(bed: &mut Bed) -> (Vec<Episode>, u64) {
    let mut episodes = Vec::new();
    let mut switch_us = 0;
    let target = *bed.replicas.last().expect("replicas");
    let group = bed.config.group;
    for &(to_active, to_passive, crash) in &EPISODES {
        for (at, style) in [
            (to_active, ReplicationStyle::Active),
            (to_passive, ReplicationStyle::WarmPassive),
        ] {
            bed.run_until(SimTime::from_millis(at));
            let injected = bed.world.now();
            bed.world
                .inject(target, ReplicaCommand::Switch { group, style });
            bed.run_until(injected + SimDuration::from_millis(100));
            let done = switch_done(bed, style, injected).unwrap_or(bed.world.now());
            switch_us = switch_us.max(us(done - injected));
        }
        bed.run_until(SimTime::from_millis(crash));
        let primary = bed.primary().expect("a primary before the crash");
        let node = bed.world.node_of(primary).expect("primary has a node");
        bed.world.crash_node_at(node, bed.world.now());
        let mut ep = Episode {
            crashed: primary,
            at: bed.world.now(),
            spawned_before: bed.spawned(),
            detected: None,
            respawned: None,
            restored: None,
        };
        while !ep.done() && bed.world.now() < ep.horizon() {
            bed.step();
            ep.watch(bed);
        }
        episodes.push(ep);
    }
    (episodes, switch_us)
}

/// One client's requests: `issued` before the measured phase ended,
/// `served` and `gave_up` after the drain.
#[derive(Debug, Clone, Copy)]
struct Tally {
    issued: u64,
    served: u64,
    gave_up: u64,
}

/// Requests given up, plus requests issued before the end that no reply
/// answered. Each client is settled on its own: a closed loop keeps
/// issuing through the drain, so its extra replies would hide another
/// client's losses in a pooled count. A closed loop has at most one
/// request outstanding, and an open loop stops issuing at the end, so the
/// count is exact.
fn failed_requests(tallies: &[Tally]) -> u64 {
    tallies
        .iter()
        .map(|t| t.gave_up + t.issued.saturating_sub(t.served + t.gave_up))
        .sum()
}

/// Builds a bed and steps it to its first accepted reply.
fn build_to_first_reply(workload: SimWorkload, seed: u64, traced: bool) -> Bed {
    let mut bed = Bed::build(workload, seed, traced);
    while bed.replies.borrow().is_empty() && bed.open_replies.borrow().is_empty() {
        bed.step();
    }
    bed
}

/// Host time to set up one world: every world of the run is built and
/// taken to its first accepted reply in one pass, and the pass's set-up
/// time is shared out over its worlds. (One world takes well under a
/// millisecond, too short a span to read alone.) Each bed is dropped
/// outside the timed spans, so the pass holds one bed at a time.
fn setup_pass(workload: SimWorkload, seed: u64) -> f64 {
    let mut total = Duration::ZERO;
    for k in 0..SUBSEEDS {
        let started = Instant::now();
        let bed = build_to_first_reply(workload, world_seed(seed, k), false);
        total += started.elapsed();
        drop(bed);
    }
    total.as_secs_f64() / SUBSEEDS as f64
}

/// Runs one repetition of `workload` on world seed `seed`.
fn run_rep(workload: SimWorkload, seed: u64, traced: bool) -> Rep {
    let mut bed = build_to_first_reply(workload, seed, traced);

    // Start-up: the group is fully protected once every backup has
    // applied a checkpoint and every replica has heard a heartbeat from
    // every peer, so that its failure detector covers the whole group.
    let mut protected_at = None;
    let n = bed.config.replicas;
    let originals: Vec<ObsHandle> = bed.replica_obs[..n].to_vec();
    while bed.world.now() < SimTime::ZERO + WARMUP {
        bed.step();
        let protected = || {
            originals.iter().enumerate().all(|(i, o)| {
                (i == 0 || o.metrics.counter(Ctr::CkptApplied) > 0)
                    && o.metrics.counter(Ctr::GroupHeartbeatsRecv) >= n as u64 - 1
            })
        };
        if protected_at.is_none() && protected() {
            protected_at = Some(bed.world.now());
        }
    }
    for name in bed.rtt_names() {
        *bed.world.metrics_mut().histogram(&name) = Histogram::new();
    }
    let replies_before = bed.replies.borrow().len();
    let start = Snapshot::take(&bed);
    let cpu0 = procfs::process_cpu();
    let t0 = bed.world.now();

    let (episodes, switch_us) = if workload == SimWorkload::Failover {
        run_episodes(&mut bed)
    } else {
        (Vec::new(), 0)
    };
    let end = workload.measure_end();
    bed.run_until(end);
    let cpu_s = (procfs::process_cpu() - cpu0).as_secs_f64();
    let stop = Snapshot::take(&bed);
    let span = bed.world.now() - t0;

    let mut latency = Histogram::new();
    for name in bed.rtt_names() {
        if let Some(h) = bed.world.metrics().histogram_ref(&name) {
            latency.merge(h);
        }
    }
    let (gaps_us, recovery_us) = if episodes.is_empty() {
        let replies = &bed.replies.borrow()[replies_before..];
        let gaps = replies.windows(2).map(|w| us(w[1] - w[0])).collect();
        let protected = protected_at.map_or(us(WARMUP), |t| us(t - SimTime::ZERO));
        (gaps, vec![protected])
    } else {
        let open = bed.open_replies.borrow();
        let gaps = episodes
            .iter()
            .map(|ep| {
                let before = open.iter().rev().find(|&&t| t <= ep.at);
                let after = open.iter().find(|&&t| t > ep.at);
                match (before, after) {
                    (Some(&b), Some(&a)) => us(a - b),
                    _ => us(end - ep.at),
                }
            })
            .collect();
        let recovery = episodes
            .iter()
            .map(|ep| us(ep.restored.unwrap_or(ep.horizon()) - ep.at))
            .collect();
        (gaps, recovery)
    };
    let worst = |f: fn(&Episode) -> Option<SimTime>| {
        episodes
            .iter()
            .map(|ep| f(ep).map_or(0, |t| us(t - ep.at)))
            .max()
            .unwrap_or(0)
    };

    // Requests issued before the end may still be answered in the drain;
    // whatever is unanswered after it counts as failed. The closed loops
    // go on issuing through the drain; the open loop stops by itself at
    // the end, so its final count is the one to settle.
    let issued_at_end: Vec<u64> = bed.closed_loop().map(|c| c.driver().issued()).collect();
    bed.run_until(end + DRAIN);
    let mut tallies: Vec<Tally> = bed
        .closed_loop()
        .zip(&issued_at_end)
        .map(|(c, &issued)| Tally {
            issued,
            served: c.served(),
            gave_up: c.gave_up,
        })
        .collect();
    tallies.extend(bed.open().map(|o| Tally {
        issued: o.issued,
        served: o.served,
        gave_up: 0,
    }));
    let failed = failed_requests(&tallies);
    // Stop the load, then let checkpoints carry the primary's last state
    // to every backup before comparing replica states.
    let client_nodes: Vec<NodeId> = bed
        .clients
        .iter()
        .chain(&bed.open_loop)
        .filter_map(|&p| bed.world.node_of(p))
        .collect();
    for node in client_nodes {
        bed.world.crash_node_at(node, bed.world.now());
    }
    bed.run_until(end + DRAIN + SETTLE);

    let virt = Virtual {
        events: stop.events - start.events,
        completed: stop.completed - start.completed,
        span_us: us(span),
        latency_count: latency.count(),
        latency_p50_us: latency.quantile(0.50).as_micros(),
        latency_p99_us: latency.quantile(0.99).as_micros(),
        net_bytes: stop.net_bytes - start.net_bytes,
        attempted: tallies.iter().map(|t| t.issued).sum(),
        failed,
        gaps_us,
        recovery_us,
        switch_us,
        detect_us: worst(|ep| ep.detected),
        respawn_us: worst(|ep| ep.respawned),
        state_agrees: states_agree(&bed),
    };
    let layers = per_layer(&bed, &start, &stop, &virt);
    Rep {
        cpu_s,
        virt,
        latency,
        layers,
    }
}

/// Per-layer figures of one repetition (counts are exact; handler times
/// exist only in the traced run).
fn per_layer(bed: &Bed, a: &Snapshot, b: &Snapshot, virt: &Virtual) -> Values {
    let req = virt.completed as f64;
    let d = |c: Ctr| (b.ctr[ctr_index(c)] - a.ctr[ctr_index(c)]) as f64;
    let per_req = |v: f64| ratio(v, req);
    let kb = |v: f64| v / 1024.0;
    let ns_to_us = |ns: u64| ns as f64 / 1_000.0;
    let (ta, tb) = (&a.times, &b.times);
    let full = d(Ctr::CkptFullSent);
    let delta = d(Ctr::CkptDeltaSent);
    let fault_detection = bed
        .replica_obs
        .iter()
        .map(|o| o.metrics.hist(Hist::FaultDetectionUs).max)
        .max()
        .unwrap_or(0);
    let mgr = bed.manager_obs.as_ref();
    let mttr = bed
        .manager
        .and_then(|m| actor::<RecoveryManager>(&bed.world, m))
        .and_then(|m| m.mttr_log.iter().max().copied())
        .map_or(0, us);
    let mut v = Values::new();
    v.insert(
        "simnet.events_per_req",
        per_req((b.events - a.events) as f64),
    );
    v.insert(
        "simnet.msgs_per_req",
        per_req((b.sim_deliveries - a.sim_deliveries) as f64),
    );
    v.insert(
        "simnet.self_ns_per_event",
        ratio(
            (tb.simnet_self_ns - ta.simnet_self_ns) as f64,
            (tb.simnet_self_events - ta.simnet_self_events) as f64,
        ),
    );
    v.insert(
        "orb.client_us_per_req",
        per_req(ns_to_us(tb.client_ns - ta.client_ns)),
    );
    v.insert(
        "orb.marshal_kb_per_req",
        per_req(kb(d(Ctr::OrbMarshalBytes))),
    );
    v.insert(
        "orb.retries_per_req",
        per_req((b.retries - a.retries) as f64),
    );
    v.insert("group.sends_per_req", per_req(d(Ctr::GroupSends)));
    v.insert(
        "group.frame_copies_per_req",
        per_req(d(Ctr::GroupFrameCopies)),
    );
    v.insert("group.wire_kb_per_req", per_req(kb(d(Ctr::GroupWireBytes))));
    v.insert("group.deliveries_per_req", per_req(d(Ctr::GroupDeliveries)));
    v.insert(
        "group.batch_occupancy_mean",
        ratio(
            (b.batch.0 - a.batch.0) as f64,
            (b.batch.1 - a.batch.1) as f64,
        ),
    );
    v.insert(
        "group.retransmits_per_req",
        per_req(d(Ctr::GroupRetransmits)),
    );
    v.insert("group.suspicions", bed.counter(Ctr::GroupSuspicions) as f64);
    v.insert("group.fault_detection_ms", fault_detection as f64 / 1_000.0);
    v.insert(
        "group.heartbeats_per_s",
        ratio(d(Ctr::GroupHeartbeatsSent), virt.span_us as f64 / 1e6),
    );
    v.insert(
        "replica.group_us_per_req",
        per_req(ns_to_us(tb.replica_group_ns - ta.replica_group_ns)),
    );
    v.insert(
        "replica.orb_us_per_req",
        per_req(ns_to_us(tb.replica_orb_ns - ta.replica_orb_ns)),
    );
    v.insert(
        "replica.timer_us_per_req",
        per_req(ns_to_us(tb.replica_timer_ns - ta.replica_timer_ns)),
    );
    v.insert(
        "core.executions_per_req",
        per_req(b.executed.saturating_sub(a.executed) as f64),
    );
    v.insert("core.ckpt_kb_per_req", per_req(kb(d(Ctr::CkptBytesSent))));
    v.insert("core.ckpt_delta_frac", ratio(delta, full + delta));
    v.insert("core.ckpt_rejected", d(Ctr::CkptRejected));
    v.insert("core.switch_ms", virt.switch_us as f64 / 1_000.0);
    v.insert("core.failovers", d(Ctr::Failovers));
    v.insert("recovery.detect_ms", virt.detect_us as f64 / 1_000.0);
    v.insert("recovery.respawn_ms", virt.respawn_us as f64 / 1_000.0);
    v.insert(
        "recovery.attempts",
        mgr.map_or(0, |o| o.metrics.counter(Ctr::RecoveryAttempts)) as f64,
    );
    v.insert("recovery.mttr_ms", mttr as f64 / 1_000.0);
    v
}

/// The least-disturbed sample of a host-clock figure. Interference from
/// the rest of the machine only ever adds time: across runs the median
/// repetition's CPU per request moved by up to 40 % with the neighbours'
/// load, the cheapest one by a few percent.
fn least(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// World seeds per run: one run simulates `SUBSEEDS` different worlds
/// derived from its `--seed`, and pools their virtual figures.
const SUBSEEDS: u64 = 32;

/// The seed of world `k` of a run.
fn world_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUBSEEDS).wrapping_add(k)
}

/// Runs `workload` for about `seconds` of host time and reports its
/// end-to-end figures (untraced) or its per-layer figures (traced).
pub fn run(workload: SimWorkload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut outcome = Outcome::default();
    // The first untraced repetition of each world; later repetitions are
    // checked against it and keep only their host-clock figures, so the
    // process's memory does not grow with the number of repetitions.
    let mut firsts: Vec<Rep> = Vec::new();
    let mut setups = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut timed_cpu = Vec::new();
    let mut timed_layers: Vec<Values> = Vec::new();
    // Cycle through the world seeds until every one has run and the time
    // is spent. The traced run alternates untraced and traced repetitions
    // so the overhead figure compares like with like.
    let kinds: &[bool] = if traced { &[false, true] } else { &[false] };
    let mut i = 0;
    while i < SUBSEEDS || started.elapsed() < budget {
        let k = (i % SUBSEEDS) as usize;
        for &timed in kinds {
            let rep = run_rep(workload, world_seed(seed, k as u64), timed);
            let cpu_per_req = rep.cpu_s * 1e6 / rep.virt.completed as f64;
            if timed {
                timed_cpu.push(cpu_per_req);
            } else {
                plain_cpu.push(cpu_per_req);
            }
            match firsts.get(k) {
                Some(first) => {
                    outcome.check(rep.virt == first.virt, || {
                        format!(
                            "a {} repetition of world seed {k} did not reproduce its first run",
                            if timed { "traced" } else { "untraced" }
                        )
                    });
                    // One traced repetition per world, so the per-layer
                    // counts repeat exactly for a seed.
                    if timed && timed_layers.len() < SUBSEEDS as usize {
                        timed_layers.push(rep.layers);
                    }
                }
                None => firsts.push(rep),
            }
        }
        if !traced {
            setups.push(setup_pass(workload, seed));
        }
        i += 1;
    }
    let sum = |f: fn(&Virtual) -> u64| firsts.iter().map(|r| f(&r.virt)).sum::<u64>();
    let (attempted, failed, completed) = (
        sum(|v| v.attempted),
        sum(|v| v.failed),
        sum(|v| v.completed),
    );
    outcome.check(firsts.iter().all(|r| r.virt.state_agrees), || {
        "surviving replicas ended with different application state".into()
    });
    if workload == SimWorkload::PassiveCkpt {
        outcome.check(failed == 0, || {
            format!("crash-free run left {failed} of {attempted} requests unanswered")
        });
    }
    outcome.check(firsts.iter().all(|r| r.virt.completed > 0), || {
        "a world completed no request".into()
    });
    outcome.attempted = attempted;
    outcome.failed = failed;

    let mut latency = Histogram::new();
    for rep in &firsts {
        latency.merge(&rep.latency);
    }
    outcome.notes.push(format!(
        "{} repetitions (+{} traced) over {SUBSEEDS} world seeds, {} latency samples, \
         {} events per world (mean)",
        plain_cpu.len(),
        timed_cpu.len(),
        latency.count(),
        sum(|v| v.events) / SUBSEEDS
    ));
    outcome.notes.push(format!(
        "failed_frac {} ({failed} of {attempted} attempted)",
        ratio(failed as f64, attempted as f64),
    ));
    if traced {
        let mut v = Values::new();
        for (name, _) in crate::report::PER_LAYER {
            let samples: Vec<f64> = timed_layers
                .iter()
                .filter_map(|l| l.get(name).copied())
                .collect();
            if !samples.is_empty() {
                v.insert(name, median(&samples));
            }
        }
        v.insert(
            "obs.trace_overhead_pct",
            (ratio(least(&timed_cpu), least(&plain_cpu)) - 1.0) * 100.0,
        );
        outcome.values = v;
        return outcome;
    }
    let pooled = |f: fn(&Virtual) -> &Vec<u64>| -> Vec<f64> {
        firsts
            .iter()
            .flat_map(|r| f(&r.virt).iter().map(|&x| x as f64))
            .collect()
    };
    let gaps = pooled(|v| &v.gaps_us);
    let unavail_us = if workload == SimWorkload::Failover {
        gaps.iter().copied().fold(0.0, f64::max)
    } else {
        quantile(&gaps, UNAVAIL_QUANTILE)
    };
    let recovery_us = pooled(|v| &v.recovery_us).into_iter().fold(0.0, f64::max);
    let mut v = Values::new();
    v.insert("setup_s", least(&setups));
    v.insert(
        "throughput_rps",
        completed as f64 / (sum(|v| v.span_us) as f64 / 1e6),
    );
    v.insert(
        "latency_p50_ms",
        latency.quantile(0.50).as_micros() as f64 / 1e3,
    );
    v.insert(
        "latency_p99_ms",
        latency.quantile(0.99).as_micros() as f64 / 1e3,
    );
    v.insert("cpu_us_per_req", least(&plain_cpu));
    v.insert(
        "net_kb_per_req",
        sum(|v| v.net_bytes) as f64 / 1024.0 / completed as f64,
    );
    v.insert(
        "peak_rss_mb",
        procfs::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    v.insert(
        "answered_frac",
        1.0 - ratio(failed as f64, attempted as f64),
    );
    v.insert("unavail_ms", unavail_us / 1e3);
    v.insert("recovery_ms", recovery_us / 1e3);
    outcome.values = v;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lost_request_is_not_hidden_by_another_clients_drain_replies() {
        // Client 0 kept issuing and being answered through the drain;
        // client 1 stalled on a request no reply answered.
        let tallies = [
            Tally {
                issued: 100,
                served: 190,
                gave_up: 0,
            },
            Tally {
                issued: 100,
                served: 99,
                gave_up: 0,
            },
        ];
        assert_eq!(failed_requests(&tallies), 1);
    }

    #[test]
    fn given_up_and_unanswered_requests_both_count() {
        let tallies = [
            // An open loop that lost three requests in an outage.
            Tally {
                issued: 50,
                served: 47,
                gave_up: 0,
            },
            // A closed loop that gave one up and waits on another.
            Tally {
                issued: 10,
                served: 8,
                gave_up: 1,
            },
        ];
        assert_eq!(failed_requests(&tallies), 3 + 2);
        let answered = Tally {
            issued: 10,
            served: 10,
            gave_up: 0,
        };
        assert_eq!(failed_requests(&[answered]), 0);
    }
}
