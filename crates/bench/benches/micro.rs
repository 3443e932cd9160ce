//! Micro-benchmarks of the substrate hot paths: marshaling, the event queue, the group endpoint's multicast/delivery path, the
//! replication engine, checkpoint capture, delta and apply, and the scalability planner.

use bytes::Bytes;

use vd_bench::harness::Bench;
use vd_core::engine::Engine;
use vd_core::policy::{plan_scalability, ConfigMeasurement, ScalabilityRequirements};
use vd_core::state::{apply_delta, diff_state, ReplicatedApplication};
use vd_core::style::ReplicationStyle;
use vd_group::config::GroupConfig;
use vd_group::endpoint::Endpoint;
use vd_group::message::GroupId;
use vd_group::order::DeliveryOrder;
use vd_orb::cdr::{Decoder, Encoder};
use vd_orb::object::ObjectKey;
use vd_orb::wire::{OrbMessage, Request};
use vd_simnet::metrics::Histogram;
use vd_simnet::time::{SimDuration, SimTime};
use vd_simnet::topology::ProcessId;

fn bench_cdr(bench: &Bench) {
    let payload = vec![0xAB_u8; 1024];
    bench.run("cdr_encode_1k", || {
        let mut enc = Encoder::with_capacity(1100);
        enc.put_u64(42);
        enc.put_str("operation-name");
        enc.put_bytes(&payload);
        enc.finish()
    });
    let mut enc = Encoder::new();
    enc.put_u64(42);
    enc.put_str("operation-name");
    enc.put_bytes(&payload);
    let bytes = enc.finish();
    bench.run("cdr_decode_1k", || {
        let mut dec = Decoder::new(bytes.clone());
        let a = dec.get_u64().unwrap();
        let s = dec.get_string().unwrap();
        let p = dec.get_bytes().unwrap();
        (a, s, p)
    });
}

fn bench_wire(bench: &Bench) {
    let msg = OrbMessage::Request(Request {
        request_id: 7,
        object_key: ObjectKey::new("bench"),
        operation: "cycle".into(),
        args: Bytes::from(vec![0u8; 256]),
        response_expected: true,
    });
    bench.run("giop_encode_request", || msg.encode());
    let bytes = msg.encode();
    bench.run("giop_decode_request", || {
        OrbMessage::decode(bytes.clone()).unwrap()
    });
}

fn bench_histogram(bench: &Bench) {
    bench.run("histogram_record_10k", || {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(SimDuration::from_micros(i % 5000));
        }
        h.mean()
    });
}

fn bench_group_multicast(bench: &Bench) {
    // The sans-IO fast path: A multicasts, B receives and delivers.
    bench.run_batched(
        "group_agreed_multicast_pair",
        || {
            let members = vec![ProcessId(1), ProcessId(2)];
            let mut a = Endpoint::bootstrap(
                ProcessId(1),
                GroupId(0),
                GroupConfig::default(),
                members.clone(),
            );
            let mut bep =
                Endpoint::bootstrap(ProcessId(2), GroupId(0), GroupConfig::default(), members);
            let _ = a.start(SimTime::ZERO);
            let _ = bep.start(SimTime::ZERO);
            (a, bep)
        },
        |(mut a, mut bep)| {
            let mut delivered = 0usize;
            for i in 0..64u64 {
                let now = SimTime::from_micros(i * 10);
                let outs = a
                    .multicast(now, DeliveryOrder::Agreed, Bytes::from_static(b"payload"))
                    .unwrap();
                for out in outs {
                    if let vd_group::api::Output::Send { to, msg } = out {
                        if to == ProcessId(2) {
                            let outs2 = bep.handle_message(now, ProcessId(1), msg);
                            delivered += outs2.iter().filter(|o| o.as_delivery().is_some()).count();
                        }
                    }
                }
            }
            delivered
        },
    );
}

fn bench_engine(bench: &Bench) {
    bench.run_batched(
        "engine_active_invoke_1k",
        || {
            Engine::new(
                ProcessId(1),
                ReplicationStyle::Active,
                vec![ProcessId(1), ProcessId(2), ProcessId(3)],
                true,
            )
            .0
        },
        |mut engine| {
            for i in 1..=1000u64 {
                let ops = engine.on_invoke(ProcessId(9), i, "op".into(), Bytes::new());
                assert_eq!(ops.len(), 1);
            }
            engine
        },
    );
}

fn bench_checkpoint(bench: &Bench) {
    let mut app = vd_bench::workload::PaddedApp::new(64 * 1024, 64, 15);
    let _ = app.invoke("x", &Bytes::new());
    bench.run("checkpoint_capture_64k", || app.capture_state());
    let snapshot = app.capture_state();
    bench.run("checkpoint_restore_64k", || {
        let mut fresh = vd_bench::workload::PaddedApp::new(64 * 1024, 64, 15);
        fresh.restore_state(&snapshot);
        fresh
    });
    // Two snapshots a few invocations apart, as one checkpoint interval
    // of the warm-passive testbed leaves them.
    for _ in 0..4 {
        let _ = app.invoke("x", &Bytes::new());
    }
    let next = app.capture_state();
    bench.run("checkpoint_diff_64k", || diff_state(&snapshot, &next));
    let delta = diff_state(&snapshot, &next);
    bench.run("checkpoint_apply_delta_64k", || {
        apply_delta(&snapshot, &delta).expect("delta applies to its base")
    });
}

fn bench_planner(bench: &Bench) {
    let mut measurements = Vec::new();
    for style in [ReplicationStyle::Active, ReplicationStyle::WarmPassive] {
        for replicas in 1..=3usize {
            for clients in 1..=50usize {
                measurements.push(ConfigMeasurement {
                    style,
                    replicas,
                    clients,
                    latency_micros: 1000.0 + 800.0 * clients as f64,
                    bandwidth_mbps: 0.4 * clients as f64,
                });
            }
        }
    }
    let reqs = ScalabilityRequirements::paper();
    bench.run("scalability_planner_300_points", || {
        plan_scalability(&measurements, &reqs)
    });
}

fn main() {
    let bench = Bench::new(20);
    bench_cdr(&bench);
    bench_wire(&bench);
    bench_histogram(&bench);
    bench_group_multicast(&bench);
    bench_engine(&bench);
    bench_checkpoint(&bench);
    bench_planner(&bench);
}
