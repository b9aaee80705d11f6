//! Regression test for the `Stats` ↔ ingest lock-order inversion.
//!
//! The `Stats` handler used to acquire metrics → engine → store while the
//! shard workers acquired store → engine → metrics — a classic ABBA
//! deadlock that only needed one stats poll to land mid-ingest. The fix
//! pins the canonical order store → engine → metrics everywhere (see the
//! `Shared` docs in `server.rs`). This test hammers `Stats` and
//! `FlowHistory` from several connections while another streams ingest,
//! under a watchdog that turns a deadlock into a test failure instead of
//! a hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hawkeye_serve::{spawn, Endpoint, ServeClient, ServeConfig, StoreConfig};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

const EPOCH_LEN: u64 = 1 << 17;
const STEPS: u64 = 24;
const STATS_THREADS: usize = 3;
const WATCHDOG: Duration = Duration::from_secs(120);

static DONE: AtomicBool = AtomicBool::new(false);

fn victim() -> FlowKey {
    FlowKey::roce(NodeId(0), NodeId(1), 7)
}

fn synth_snap(sw: NodeId, nports: usize, step: u64) -> TelemetrySnapshot {
    let out_port = (step % nports.max(1) as u64) as u8;
    let epoch = EpochSnapshot {
        slot: (step % 4) as usize,
        id: step as u8,
        start: Nanos(step * EPOCH_LEN),
        len: Nanos(EPOCH_LEN),
        flows: vec![(
            victim(),
            FlowRecord {
                pkt_count: 40 + (step % 7) as u32,
                paused_count: 2,
                qdepth_sum: 700,
                out_port,
            },
        )],
        ports: vec![(
            out_port,
            PortRecord {
                pkt_count: 55,
                paused_count: 3,
                qdepth_sum: 1100,
            },
        )],
        meter: if nports >= 2 {
            vec![(0, 1, 2048)]
        } else {
            vec![]
        },
    };
    TelemetrySnapshot {
        switch: sw,
        taken_at: Nanos((step + 1) * EPOCH_LEN),
        nports,
        max_flows: 32,
        epochs: vec![epoch],
        evicted: vec![],
    }
}

/// `Stats` polled concurrently with sustained ingest (and `FlowHistory`
/// sprinkled in) completes without deadlocking, and the final counters
/// account for every snapshot sent.
#[test]
fn stats_under_concurrent_ingest_does_not_deadlock() {
    let (done_tx, done_rx) = mpsc::channel();
    let body = thread::spawn(move || {
        run_hammer();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => body.join().expect("hammer body panicked"),
        Err(_) => panic!(
            "lock-order hammer did not finish within {WATCHDOG:?} — \
             probable store/engine/metrics deadlock"
        ),
    }
}

fn run_hammer() {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let switches: Vec<NodeId> = sc.topo.switches().collect();
    let cfg = ServeConfig {
        store: StoreConfig {
            epoch_budget: 4,
            compact_budget: 8,
            compact_chunk: 4,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle =
        spawn(sc.topo.clone(), cfg, Endpoint::Tcp("127.0.0.1:0".into())).expect("bind daemon");
    let addr = handle
        .local_addr
        .expect("tcp daemon has an address")
        .to_string();

    // Stats hammers: poll as fast as the round trips allow until the
    // ingester finishes. Each poll walks store → engine → metrics; with
    // the old metrics-first order this reliably wedged against a shard
    // worker holding its store.
    let mut hammers = Vec::new();
    for i in 0..STATS_THREADS {
        let addr = addr.clone();
        hammers.push(thread::spawn(move || {
            let mut client = ServeClient::connect_tcp(&addr).expect("connect stats");
            let mut polls = 0u64;
            while !DONE.load(Ordering::Relaxed) {
                let stats = client.stats().expect("stats");
                assert!(stats.as_object().is_some(), "stats must be an object");
                if i == 0 {
                    // One hammer also exercises the cross-shard gather
                    // path, which takes the stores one at a time.
                    client.flow_history(victim()).expect("flow history");
                }
                polls += 1;
            }
            polls
        }));
    }

    // Ingester: streams STEPS epochs per switch, interleaved across
    // switches so every shard worker stays busy the whole run.
    let mut client = ServeClient::connect_tcp(&addr).expect("connect ingest");
    let mut sent = 0u64;
    for step in 0..STEPS {
        for &sw in &switches {
            let nports = sc.topo.ports(sw).len();
            let ack = client
                .ingest_batch(&[synth_snap(sw, nports, step)])
                .expect("ingest");
            sent += ack.accepted;
        }
    }
    sent += client.finish_ingest().expect("settle ingest").accepted;
    DONE.store(true, Ordering::Relaxed);

    let polls: u64 = hammers
        .into_iter()
        .map(|h| h.join().expect("stats hammer panicked"))
        .sum();
    assert!(polls > 0, "stats hammers never completed a poll");
    // Bounded queues may shed under hammer-induced contention; what must
    // hold is that everything *accepted* is accounted for below.
    assert!(sent > 0, "every snapshot was shed");

    // Post-quiesce: the counters reconcile with what was sent.
    client.flow_history(victim()).expect("flush barrier");
    let stats = client.stats().expect("final stats");
    let ingested = stats
        .get("epochs_ingested")
        .and_then(|v| v.as_u64())
        .expect("epochs_ingested");
    assert_eq!(ingested, sent, "ingested != sent after quiesce: {stats:?}");

    client.shutdown().expect("shutdown");
    handle.wait();
}
