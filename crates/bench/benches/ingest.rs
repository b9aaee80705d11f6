//! Ingest hot-path benchmarks (`hawkeye-serve`): what the off-thread
//! compactor buys the append path, and what batch frames + credit flow
//! buy the socket path. Results land in `BENCH_7.json` at the workspace
//! root, in the BENCH_2 format.
//!
//! Part A replays the BENCH_5 long-run stream through three stores:
//! unbounded (no eviction, the floor), tiered with *inline* folding (the
//! pre-overhaul hot path, ~2.1x the floor in BENCH_5), and tiered with
//! *deferred* folding — evicted epochs staged for the compactor thread.
//! The headline ratio is deferred/unbounded: the fold left the hot path.
//!
//! Part B streams a snapshot corpus into a real daemon over TCP at
//! several batch sizes and reports the snapshots/sec ceiling the credit
//! window sustains.

use hawkeye_bench::timing::{bench, Measurement};
use hawkeye_serve::{
    spawn, Compactor, Endpoint, PendingFold, ServeClient, ServeConfig, StoreConfig, TelemetryStore,
};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

const EPOCH_LEN: u64 = 1 << 17;
const STEPS: u64 = 512;
const BUDGET: usize = 16;

fn unbounded_cfg() -> StoreConfig {
    StoreConfig {
        epoch_budget: usize::MAX,
        compact_budget: 0,
        compact_chunk: 0,
        ..StoreConfig::default()
    }
}

fn tiered_cfg() -> StoreConfig {
    StoreConfig {
        epoch_budget: BUDGET,
        compact_budget: 8,
        compact_chunk: BUDGET,
        ..StoreConfig::default()
    }
}

/// The BENCH_5 long-run stream: one epoch per upload over the incast
/// topology's switches, ring keys that never collide within the run.
fn synth_stream(steps: u64) -> Vec<TelemetrySnapshot> {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let switches: Vec<NodeId> = sc.topo.switches().collect();
    let mut out = Vec::with_capacity(switches.len() * steps as usize);
    for step in 0..steps {
        for &sw in &switches {
            let nports = sc.topo.ports(sw).len();
            let out_port = (step % nports.max(1) as u64) as u8;
            let epoch = EpochSnapshot {
                slot: ((step / 256) * 4 + step % 4) as usize,
                id: step as u8,
                start: Nanos(step * EPOCH_LEN),
                len: Nanos(EPOCH_LEN),
                flows: (0..6u16)
                    .map(|i| {
                        (
                            FlowKey::roce(NodeId(0), NodeId(1), i),
                            FlowRecord {
                                pkt_count: 40 + u32::from(i) + (step % 11) as u32,
                                paused_count: 2,
                                qdepth_sum: 700 + u64::from(i),
                                out_port,
                            },
                        )
                    })
                    .collect(),
                ports: vec![(
                    out_port,
                    PortRecord {
                        pkt_count: 300,
                        paused_count: 9,
                        qdepth_sum: 4800,
                    },
                )],
                meter: if nports >= 2 {
                    vec![(0, 1, 4096)]
                } else {
                    vec![]
                },
            };
            out.push(TelemetrySnapshot {
                switch: sw,
                taken_at: Nanos((step + 1) * EPOCH_LEN),
                nports,
                max_flows: 32,
                epochs: vec![epoch],
                evicted: vec![],
            });
        }
    }
    out
}

fn fill(cfg: StoreConfig, snaps: &[TelemetrySnapshot]) -> TelemetryStore {
    let mut store = TelemetryStore::new(cfg);
    for s in snaps {
        store.append(s);
    }
    store
}

/// The three append paths: unbounded (no eviction, the floor), tiered
/// with inline folding (the pre-overhaul shard-worker cost), and tiered
/// with deferred folding — the overhauled hot path, which stages evicted
/// epochs for the daemon's compactor thread instead of folding in place.
/// The deferred variant times exactly what a shard worker holds the store
/// lock for (append + stage + drain); the displaced fold runs on the
/// compactor thread, which overlaps the producer on a multi-core host.
/// An untimed pass afterwards feeds the same staged folds through a real
/// [`Compactor`] and checks it reproduces the inline store's tier.
fn bench_append(snaps: &[TelemetrySnapshot], all: &mut Vec<Measurement>) -> (f64, f64) {
    let m_unbounded = bench("unbounded_append_stream", || {
        fill(unbounded_cfg(), snaps).epochs_held()
    });
    let m_inline = bench("tiered_inline_append_stream", || {
        let store = fill(tiered_cfg(), snaps);
        store.epochs_held() + store.compacted_epochs_held() as usize
    });
    let m_deferred = bench("tiered_deferred_append_stream", || {
        let mut store = TelemetryStore::new(StoreConfig {
            deferred_fold: true,
            ..tiered_cfg()
        });
        let mut staged = 0usize;
        // Drain the staging outbox in chunks, as a shard worker does
        // between requests; the handoff is a pointer move either way.
        for (i, s) in snaps.iter().enumerate() {
            store.append(s);
            if i % 64 == 63 {
                staged += store.take_pending_folds().len();
            }
        }
        staged += store.take_pending_folds().len();
        store.epochs_held() + staged
    });

    let (tx, rx) = sync_channel::<Vec<PendingFold>>(1024);
    let consumer = std::thread::spawn(move || {
        let mut comp = Compactor::new(tiered_cfg());
        while let Ok(batch) = rx.recv() {
            comp.absorb(batch);
        }
        (comp.epochs_held(), comp.buckets_held())
    });
    let inline = fill(tiered_cfg(), snaps);
    let mut deferred = TelemetryStore::new(StoreConfig {
        deferred_fold: true,
        ..tiered_cfg()
    });
    for s in snaps {
        deferred.append(s);
        let staged = deferred.take_pending_folds();
        if !staged.is_empty() {
            tx.send(staged).expect("compactor thread alive");
        }
    }
    drop(tx);
    let (folded, buckets) = consumer.join().expect("compactor thread");
    assert_eq!(
        inline.compacted_epochs_held(),
        folded,
        "deferred folding diverged from inline"
    );
    println!("deferred == inline: {folded} compacted epochs in {buckets} buckets either way");

    let r_inline = m_inline.mean_ns / m_unbounded.mean_ns.max(1.0);
    let r_deferred = m_deferred.mean_ns / m_unbounded.mean_ns.max(1.0);
    println!("append vs unbounded: inline {r_inline:.2}x, deferred {r_deferred:.2}x (mean ns)");
    all.push(m_unbounded);
    all.push(m_inline);
    all.push(m_deferred);
    (r_inline, r_deferred)
}

/// Snapshots/sec into a live daemon at several frame sizes, best of two
/// passes each; the ceiling is the best rate any batch size reached.
fn bench_daemon(snaps: &[TelemetrySnapshot]) -> std::io::Result<Vec<(usize, f64)>> {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let handle = spawn(
        sc.topo,
        ServeConfig::default(),
        Endpoint::Tcp("127.0.0.1:0".into()),
    )?;
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let mut client = ServeClient::connect_tcp(&addr.to_string())?;

    let mut rates = Vec::new();
    for batch in [1usize, 8, 32] {
        let mut best = 0.0f64;
        for _ in 0..2 {
            let t = Instant::now();
            for chunk in snaps.chunks(batch) {
                client
                    .ingest_batch(chunk)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            }
            client
                .finish_ingest()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            let secs = t.elapsed().as_secs_f64();
            best = best.max(snaps.len() as f64 / secs.max(1e-9));
        }
        println!("daemon ingest, batch {batch:>2}: {best:>10.0} snaps/sec");
        rates.push((batch, best));
    }
    client
        .shutdown()
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    handle.wait();
    Ok(rates)
}

fn write_bench_json(
    all: &[Measurement],
    r_inline: f64,
    r_deferred: f64,
    rates: &[(usize, f64)],
) -> std::io::Result<()> {
    use serde::Value;
    let benches = Value::Object(
        all.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("mean_ns".to_string(), Value::Float(m.mean_ns)),
                        ("min_ns".to_string(), Value::Float(m.min_ns)),
                    ]),
                )
            })
            .collect(),
    );
    let ceiling = rates.iter().map(|&(_, r)| r).fold(0.0f64, f64::max);
    let doc = Value::Object(vec![
        ("benches".to_string(), benches),
        ("append_ratio_inline".to_string(), Value::Float(r_inline)),
        (
            "append_ratio_deferred".to_string(),
            Value::Float(r_deferred),
        ),
        (
            "daemon_snaps_per_sec".to_string(),
            Value::Object(
                rates
                    .iter()
                    .map(|&(b, r)| (format!("batch_{b}"), Value::Float(r)))
                    .collect(),
            ),
        ),
        (
            "daemon_snaps_per_sec_ceiling".to_string(),
            Value::Float(ceiling),
        ),
    ]);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join("BENCH_7.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serializable doc"),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    println!("ingest hot-path benchmarks (deferred compaction / batch frames / credits)");
    let snaps = synth_stream(STEPS);
    println!(
        "synthetic stream: {} snapshots ({} steps x {} switches)",
        snaps.len(),
        STEPS,
        snaps.len() / STEPS as usize
    );
    let mut all = Vec::new();
    let (r_inline, r_deferred) = bench_append(&snaps, &mut all);

    // A shorter corpus for the socket path: the wire round-trips dominate,
    // not the stream length.
    let daemon_snaps = synth_stream(STEPS / 2);
    let rates = match bench_daemon(&daemon_snaps) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("daemon bench failed: {e}");
            Vec::new()
        }
    };

    if let Err(e) = write_bench_json(&all, r_inline, r_deferred, &rates) {
        eprintln!("could not write BENCH_7.json: {e}");
    }
    if r_deferred > 1.2 {
        println!("WARNING: deferred append is {r_deferred:.2}x unbounded (target <= 1.2x)");
    }
}
