//! Seeded property tests for the batched data plane: whatever mix of
//! payloads a sender coalesces into `DataBatch` frames, a receiver must
//! deliver exactly the same payload sequence, in the same order, as it
//! would have without batching.

use bytes::Bytes;

use vd_group::api::{GroupTimer, Output};
use vd_group::message::GroupMsg;
use vd_group::prelude::*;
use vd_simnet::rng::DeterministicRng;
use vd_simnet::time::SimTime;
use vd_simnet::topology::ProcessId;

const GROUP: GroupId = GroupId(7);

fn p(n: u64) -> ProcessId {
    ProcessId(n)
}

fn pair(config: GroupConfig) -> (Endpoint, Endpoint) {
    let members = vec![p(1), p(2)];
    let mut a = Endpoint::bootstrap(p(1), GROUP, config, members.clone());
    let mut b = Endpoint::bootstrap(p(2), GROUP, config, members);
    let _ = a.start(SimTime::ZERO);
    let _ = b.start(SimTime::ZERO);
    (a, b)
}

/// Collects the frames `a` sends to `p(2)` out of `outputs`.
fn frames_to_peer(outputs: Vec<Output>) -> Vec<GroupMsg> {
    outputs
        .into_iter()
        .filter_map(|o| match o {
            Output::Send { to, msg } if to == p(2) => Some(msg),
            _ => None,
        })
        .collect()
}

/// Feeds `frames` into `b` and returns every payload it delivers.
fn deliver_all(b: &mut Endpoint, frames: Vec<GroupMsg>) -> Vec<Vec<u8>> {
    let mut delivered = Vec::new();
    for frame in frames {
        let outputs = b.handle_message(SimTime::ZERO, p(1), frame);
        delivered.extend(
            outputs
                .iter()
                .filter_map(|o| o.as_delivery())
                .map(|d| d.payload.to_vec()),
        );
    }
    delivered
}

fn random_payload(rng: &mut DeterministicRng) -> Bytes {
    let len = rng.gen_range_u64(0..=512) as usize;
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(rng.next_u64() as u8);
    }
    Bytes::from(bytes)
}

#[test]
fn batched_delivery_equals_unbatched_delivery() {
    let mut rng = DeterministicRng::new(0xBA7C4);
    for round in 0..50 {
        let batch_limit = rng.gen_range_u64(2..=10) as usize;
        let n_msgs = rng.gen_range_u64(1..=25) as usize;
        let payloads: Vec<Bytes> = (0..n_msgs).map(|_| random_payload(&mut rng)).collect();

        let (mut batched_a, mut batched_b) =
            pair(GroupConfig::default().batch_max_messages(batch_limit));
        let (mut plain_a, mut plain_b) = pair(GroupConfig::default());

        let mut batched_frames = Vec::new();
        let mut plain_frames = Vec::new();
        for payload in &payloads {
            batched_frames.extend(frames_to_peer(
                batched_a
                    .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                    .unwrap(),
            ));
            plain_frames.extend(frames_to_peer(
                plain_a
                    .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                    .unwrap(),
            ));
        }
        // Flush whatever is still coalescing, as the one-shot timer would.
        batched_frames.extend(frames_to_peer(
            batched_a.handle_timer(SimTime::ZERO, GroupTimer::BatchFlush),
        ));

        let sent: Vec<Vec<u8>> = payloads.iter().map(|b| b.to_vec()).collect();
        let via_batches = deliver_all(&mut batched_b, batched_frames.clone());
        let via_singles = deliver_all(&mut plain_b, plain_frames);
        assert_eq!(via_batches, sent, "round {round}: batched path lost data");
        assert_eq!(via_singles, sent, "round {round}: unbatched path lost data");

        // Batching must actually amortize: fewer frames than messages
        // whenever more than one message was coalesced.
        if n_msgs > 1 {
            assert!(
                batched_frames.len() < n_msgs,
                "round {round}: {n_msgs} messages produced {} frames",
                batched_frames.len()
            );
        }
    }
}

#[test]
fn batch_frames_are_cheaper_on_the_wire_than_singles() {
    let mut rng = DeterministicRng::new(0x5EED);
    for _ in 0..20 {
        let n_msgs = rng.gen_range_u64(2..=16) as usize;
        let payloads: Vec<Bytes> = (0..n_msgs).map(|_| random_payload(&mut rng)).collect();

        let (mut batched_a, _) = pair(GroupConfig::default().batch_max_messages(n_msgs));
        let (mut plain_a, _) = pair(GroupConfig::default());
        let mut batched_bytes = 0usize;
        let mut plain_bytes = 0usize;
        for payload in &payloads {
            for frame in frames_to_peer(
                batched_a
                    .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                    .unwrap(),
            ) {
                batched_bytes += vd_simnet::actor::Payload::wire_size(&frame);
            }
            for frame in frames_to_peer(
                plain_a
                    .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                    .unwrap(),
            ) {
                plain_bytes += vd_simnet::actor::Payload::wire_size(&frame);
            }
        }
        assert!(
            batched_bytes < plain_bytes,
            "batched {batched_bytes} B should undercut unbatched {plain_bytes} B"
        );
    }
}

#[test]
fn a_mixed_fifo_and_agreed_batch_preserves_send_order() {
    // The replicator interleaves FIFO checkpoints with agreed traffic from
    // one sender; batching must carry both classes in one frame without
    // reordering them. `p(1)` is the sequencer, so its agreed sends are
    // ordered as they are multicast.
    let (mut a, mut b) = pair(GroupConfig::default().batch_max_messages(4));
    let orders = [
        DeliveryOrder::Fifo,
        DeliveryOrder::Agreed,
        DeliveryOrder::Fifo,
        DeliveryOrder::Agreed,
    ];
    let mut frames = Vec::new();
    for (i, &order) in orders.iter().enumerate() {
        frames.extend(frames_to_peer(
            a.multicast(SimTime::ZERO, order, Bytes::from(vec![i as u8; 8]))
                .unwrap(),
        ));
    }
    let batches: Vec<&GroupMsg> = frames
        .iter()
        .filter(|f| matches!(f, GroupMsg::DataBatch { .. } | GroupMsg::Data(_)))
        .collect();
    assert_eq!(
        batches.len(),
        1,
        "four mixed sends coalesced into one frame"
    );
    let GroupMsg::DataBatch { msgs, .. } = batches[0] else {
        panic!("expected a batch frame, got {:?}", batches[0]);
    };
    let batched: Vec<DeliveryOrder> = msgs.iter().map(|m| m.order).collect();
    assert_eq!(batched, orders, "classes kept in send order");
    let delivered = deliver_all(&mut b, frames);
    assert_eq!(delivered.len(), 4);
    for (i, payload) in delivered.iter().enumerate() {
        assert_eq!(payload, &vec![i as u8; 8]);
    }
}
