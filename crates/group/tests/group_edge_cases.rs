//! Edge-case tests for the group-communication protocol: joins under
//! message loss, cascading crashes, concurrent join+crash, shrink to a
//! singleton and regrow, and fault-monitoring knob behavior.

use bytes::Bytes;

use vd_group::prelude::*;
use vd_simnet::prelude::*;

const GROUP: GroupId = GroupId(3);

fn lan(n: u32) -> Topology {
    let mut topo = Topology::full_mesh(n);
    topo.set_default_link(LinkConfig::with_latency(LatencyModel::uniform(
        SimDuration::from_micros(50),
        SimDuration::from_micros(10),
    )));
    topo
}

fn spawn_bootstrap(world: &mut World, n: u32, config: GroupConfig) -> Vec<ProcessId> {
    let members: Vec<ProcessId> = (0..n as u64).map(ProcessId).collect();
    (0..n)
        .map(|i| {
            let ep = Endpoint::bootstrap(ProcessId(i as u64), GROUP, config, members.clone());
            world.spawn(NodeId(i), Box::new(GroupMemberActor::new(ep)))
        })
        .collect()
}

fn multicast(world: &mut World, from: ProcessId, payload: &[u8]) {
    world.inject(
        from,
        vd_group::sim::Command::Multicast {
            order: DeliveryOrder::Agreed,
            payload: Bytes::copy_from_slice(payload),
        },
    );
}

#[test]
fn join_succeeds_under_message_loss() {
    let mut world = World::new(lan(4), 31);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    world.set_drop_probability(0.15);
    let joiner_ep = Endpoint::joining(
        ProcessId(3),
        GROUP,
        GroupConfig::default(),
        vec![pids[0], pids[1]],
    );
    let joiner = world.spawn(NodeId(3), Box::new(GroupMemberActor::new(joiner_ep)));
    world.run_for(SimDuration::from_secs(3));
    world.set_drop_probability(0.0);
    world.run_for(SimDuration::from_secs(1));
    let j = world.actor_ref::<GroupMemberActor>(joiner).unwrap();
    assert!(j.endpoint().is_member(), "join never completed under loss");
    assert_eq!(j.endpoint().view().len(), 4);
}

#[test]
fn cascading_crashes_shrink_to_a_working_singleton() {
    let mut world = World::new(lan(4), 32);
    let pids = spawn_bootstrap(&mut world, 4, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, pids[0], b"before");
    // Crash three members in a cascade, each before the previous view
    // change fully settles everywhere.
    world.crash_process_at(pids[0], SimTime::from_millis(20));
    world.crash_process_at(pids[1], SimTime::from_millis(90));
    world.crash_process_at(pids[2], SimTime::from_millis(160));
    world.run_for(SimDuration::from_secs(3));
    let survivor = world.actor_ref::<GroupMemberActor>(pids[3]).unwrap();
    assert_eq!(
        survivor.endpoint().view().members(),
        &[pids[3]],
        "survivor view: {}",
        survivor.endpoint().view()
    );
    assert!(
        !survivor.endpoint().is_blocked(),
        "survivor stuck in a flush"
    );
    // A singleton group still self-delivers.
    multicast(&mut world, pids[3], b"alone");
    world.run_for(SimDuration::from_millis(50));
    let survivor = world.actor_ref::<GroupMemberActor>(pids[3]).unwrap();
    assert!(survivor
        .deliveries
        .iter()
        .any(|d| d.payload.as_ref() == b"alone"));
}

#[test]
fn singleton_group_accepts_a_joiner_and_regrows() {
    let mut world = World::new(lan(2), 33);
    let solo_ep = Endpoint::bootstrap(
        ProcessId(0),
        GROUP,
        GroupConfig::default(),
        vec![ProcessId(0)],
    );
    let solo = world.spawn(NodeId(0), Box::new(GroupMemberActor::new(solo_ep)));
    world.run_for(SimDuration::from_millis(5));
    multicast(&mut world, solo, b"solo");
    world.run_for(SimDuration::from_millis(10));

    let joiner_ep = Endpoint::joining(ProcessId(1), GROUP, GroupConfig::default(), vec![solo]);
    let joiner = world.spawn(NodeId(1), Box::new(GroupMemberActor::new(joiner_ep)));
    world.run_for(SimDuration::from_secs(1));
    for pid in [solo, joiner] {
        let m = world.actor_ref::<GroupMemberActor>(pid).unwrap();
        assert_eq!(m.endpoint().view().len(), 2, "member {pid}");
    }
    // Two-way traffic in the regrown group.
    multicast(&mut world, joiner, b"hello-from-joiner");
    world.run_for(SimDuration::from_millis(50));
    let m = world.actor_ref::<GroupMemberActor>(solo).unwrap();
    assert!(m
        .deliveries
        .iter()
        .any(|d| d.payload.as_ref() == b"hello-from-joiner"));
}

#[test]
fn join_concurrent_with_crash_converges() {
    let mut world = World::new(lan(4), 34);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    // A member crashes at the same moment a joiner shows up.
    world.crash_process_at(pids[2], SimTime::from_millis(10));
    let joiner_ep = Endpoint::joining(ProcessId(3), GROUP, GroupConfig::default(), vec![pids[0]]);
    let joiner = world.spawn(NodeId(3), Box::new(GroupMemberActor::new(joiner_ep)));
    world.run_for(SimDuration::from_secs(3));
    // Everyone alive converges on {0, 1, joiner}.
    for pid in [pids[0], pids[1], joiner] {
        let m = world.actor_ref::<GroupMemberActor>(pid).unwrap();
        assert_eq!(
            m.endpoint().view().members(),
            &[pids[0], pids[1], joiner],
            "member {pid}: {}",
            m.endpoint().view()
        );
    }
}

#[test]
fn shorter_failure_timeout_detects_faster() {
    let failover_time = |timeout_ms: u64| -> u64 {
        let config = GroupConfig::default()
            .heartbeat_interval(SimDuration::from_millis(5))
            .failure_timeout(SimDuration::from_millis(timeout_ms));
        let mut world = World::new(lan(3), 35);
        let pids = spawn_bootstrap(&mut world, 3, config);
        world.run_for(SimDuration::from_millis(5));
        let crash_at = SimTime::from_millis(10);
        world.crash_process_at(pids[2], crash_at);
        // Time until a survivor installs the shrunk view.
        let deadline = SimTime::from_secs(5);
        loop {
            world.run_for(SimDuration::from_millis(1));
            let m = world.actor_ref::<GroupMemberActor>(pids[0]).unwrap();
            if m.endpoint().view().len() == 2 {
                return world.now().duration_since(crash_at).as_micros() / 1000;
            }
            assert!(world.now() < deadline, "view never shrank");
        }
    };
    let fast = failover_time(20);
    let slow = failover_time(120);
    assert!(
        fast < slow,
        "detection with a 20 ms timeout ({fast} ms) should beat 120 ms ({slow} ms)"
    );
    assert!(fast >= 20, "cannot detect before the timeout ({fast} ms)");
}

#[test]
fn fifo_and_agreed_coexist_in_one_group() {
    // Production mixes FIFO checkpoints and agreed traffic from one sender
    // in one sequence: every member must deliver everything, agree on the
    // agreed sub-transcript, and see each sender's FIFO messages in the
    // order they were sent.
    let mut world = World::new(lan(3), 36);
    let pids = spawn_bootstrap(&mut world, 3, GroupConfig::default());
    world.run_for(SimDuration::from_millis(5));
    let n = 12u32;
    let order_of = |i: u32| {
        if i.is_multiple_of(2) {
            DeliveryOrder::Agreed
        } else {
            DeliveryOrder::Fifo
        }
    };
    for i in 0..n {
        world.inject(
            pids[(i % 3) as usize],
            vd_group::sim::Command::Multicast {
                order: order_of(i),
                payload: Bytes::copy_from_slice(&i.to_be_bytes()),
            },
        );
        world.run_for(SimDuration::from_micros(300));
    }
    world.run_for(SimDuration::from_millis(200));
    let deliveries = |pid: ProcessId, order: DeliveryOrder| -> Vec<(ProcessId, Vec<u8>)> {
        world
            .actor_ref::<GroupMemberActor>(pid)
            .unwrap()
            .deliveries
            .iter()
            .filter(|d| d.order == order)
            .map(|d| (d.sender, d.payload.to_vec()))
            .collect()
    };
    for &pid in &pids {
        let m = world.actor_ref::<GroupMemberActor>(pid).unwrap();
        assert_eq!(m.deliveries.len(), n as usize, "member {pid} lost messages");
        let fifo = deliveries(pid, DeliveryOrder::Fifo);
        for (s, &sender) in pids.iter().enumerate() {
            let got: Vec<Vec<u8>> = fifo
                .iter()
                .filter(|(from, _)| *from == sender)
                .map(|(_, p)| p.clone())
                .collect();
            let sent: Vec<Vec<u8>> = (0..n)
                .filter(|&i| i % 3 == s as u32 && order_of(i) == DeliveryOrder::Fifo)
                .map(|i| i.to_be_bytes().to_vec())
                .collect();
            assert!(!sent.is_empty());
            assert_eq!(
                got, sent,
                "member {pid}: {sender}'s FIFO stream out of order"
            );
        }
    }
    let agreed = |pid: ProcessId| deliveries(pid, DeliveryOrder::Agreed);
    assert_eq!(agreed(pids[0]), agreed(pids[1]));
    assert_eq!(agreed(pids[0]), agreed(pids[2]));
}
