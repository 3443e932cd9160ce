//! Allocation regression tests for the zero-copy data plane.
//!
//! The encode-once contract (DESIGN.md, "Data-plane allocation and
//! batching contract"): a multicast's payload is materialized once and
//! every per-member copy, the retransmit buffer and the batch frame share
//! it through reference counting. These tests enforce the contract with a
//! counting global allocator — fanning a message out to N members must
//! perform O(1) payload-sized allocations, not O(N).
//!
//! The count is kept per thread, so a test reads only the allocations its
//! own thread made and the suite holds at any `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;

use vd_group::api::{GroupTimer, Output};
use vd_group::message::GroupMsg;
use vd_group::prelude::*;
use vd_simnet::time::SimTime;
use vd_simnet::topology::ProcessId;

/// Payload size used by the tests. Chosen to dwarf the endpoint's
/// bookkeeping allocations (output vectors, batch queues), so every
/// allocation above [`THRESHOLD`] can only be a payload copy.
const PAYLOAD: usize = 64 * 1024;

/// Allocations at least this large count as payload-sized (half a payload:
/// even a partial copy would be caught).
const THRESHOLD: usize = PAYLOAD / 2;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator below can use it.
    static PAYLOAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts a payload-sized allocation against the calling thread.
/// `try_with` skips allocations made while the thread's locals are being
/// torn down.
fn count_alloc(size: usize) {
    if size >= THRESHOLD {
        let _ = PAYLOAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

fn thread_payload_allocs() -> u64 {
    PAYLOAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const GROUP: GroupId = GroupId(9);

fn member_endpoint(n: u64, config: GroupConfig) -> Endpoint {
    let members: Vec<ProcessId> = (1..=n).map(ProcessId).collect();
    let mut e = Endpoint::bootstrap(ProcessId(1), GROUP, config, members);
    let _ = e.start(SimTime::ZERO);
    e
}

fn send_count(outputs: &[Output]) -> usize {
    outputs
        .iter()
        .filter(|o| matches!(o, Output::Send { .. }))
        .count()
}

#[test]
fn fan_out_payload_allocations_are_independent_of_group_size() {
    let mut payload_allocs = Vec::new();
    for n in [4u64, 64] {
        let mut e = member_endpoint(n, GroupConfig::default());
        let payload = Bytes::from(vec![0xABu8; PAYLOAD]);
        let before = thread_payload_allocs();
        let outputs = e
            .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload)
            .unwrap();
        let grew = thread_payload_allocs() - before;
        assert_eq!(send_count(&outputs), n as usize - 1, "one frame per peer");
        payload_allocs.push(grew);
    }
    assert_eq!(
        payload_allocs[0], payload_allocs[1],
        "payload-sized allocations must not scale with the member count"
    );
    assert_eq!(
        payload_allocs[1], 0,
        "fan-out shares the already-materialized payload; it never copies it"
    );
}

#[test]
fn batched_fan_out_builds_one_shared_frame() {
    let config = GroupConfig::default().batch_max_messages(8);
    let mut e = member_endpoint(64, config);
    let payload = Bytes::from(vec![0xCDu8; PAYLOAD]);
    let before = thread_payload_allocs();
    let mut outputs = Vec::new();
    for _ in 0..8 {
        outputs.extend(
            e.multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
                .unwrap(),
        );
    }
    let grew = thread_payload_allocs() - before;
    assert_eq!(
        grew, 0,
        "batching coalesces shared payloads; no payload-sized copies"
    );
    // The eighth multicast hit the batch limit and flushed one DataBatch
    // frame per peer, every copy sharing the same message vector.
    let batch_frames: Vec<&GroupMsg> = outputs
        .iter()
        .filter_map(|o| match o {
            Output::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    assert_eq!(batch_frames.len(), 63, "one flush to each of 63 peers");
    for frame in batch_frames {
        match frame {
            GroupMsg::DataBatch { msgs, .. } => assert_eq!(msgs.len(), 8),
            other => panic!("expected a DataBatch frame, got {other:?}"),
        }
    }
}

#[test]
fn partial_batches_flush_on_the_timer_without_copies() {
    let config = GroupConfig::default().batch_max_messages(16);
    let mut e = member_endpoint(8, config);
    let payload = Bytes::from(vec![0xEFu8; PAYLOAD]);
    let before = thread_payload_allocs();
    for _ in 0..3 {
        let outputs = e
            .multicast(SimTime::ZERO, DeliveryOrder::Fifo, payload.clone())
            .unwrap();
        assert_eq!(send_count(&outputs), 0, "held for the batch");
    }
    let outputs = e.handle_timer(SimTime::ZERO, GroupTimer::BatchFlush);
    assert_eq!(
        thread_payload_allocs() - before,
        0,
        "flushing a partial batch copies no payloads"
    );
    assert_eq!(send_count(&outputs), 7, "the timer flushed to every peer");
}
