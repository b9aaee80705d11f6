//! The daemon workloads: `served-ft8`, `ingest-flood-ft8` and `fleet-ft8`.
//!
//! Set-up simulates each scenario kind once on the fabric through
//! `hawkeye_serve::replay_streaming` into a `VecSink` (the collected
//! stream plus the one-shot reference verdict) and spawns one backend per
//! kind — deadlock kinds carry their own routing,
//! so one daemon cannot serve every kind. The timed phase replays each
//! kind's stream as time-shifted replicas ([`crate::replica`]) into its
//! backend, one kind after the other, sharing the run's seconds evenly.
//! The simulator does nothing in the timed phase.

use crate::mem::{peak_mb, reset_peak};
use crate::metrics::{List, Values};
use crate::record::{median, percentile, Outcome};
use crate::replica::ReplicaPlan;
use crate::trace::Tracer;
use crate::{fingerprint, kinds_for, Params, Workload};
use hawkeye_cluster::{
    spawn_front, BackendEndpoint, FrontConfig, FrontHandle, ShardEntry, ShardMap,
};
use hawkeye_core::{
    assemble_from_fragments, build_graph, diagnose, merge_fragment_sets, AggTelemetry,
    AnalyzerConfig, DiagnosisReport, Window,
};
use hawkeye_eval::corpus::cell_params;
use hawkeye_eval::{judge, optimal_run_config, ScoreConfig, Verdict};
use hawkeye_obs::{names, MetricsSnapshot, Stage};
use hawkeye_serve::{
    replay_streaming, spawn, spawn_durable, DaemonHandle, Endpoint, FsyncPolicy, ReplayOutcome,
    ServeClient, ServeConfig, VecSink, WalConfig,
};
use hawkeye_sim::{NodeId, Topology};
use hawkeye_telemetry::{encode_batch, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario_on, GroundTruth, ScenarioKind, TopologySpec};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Snapshots per ingest frame.
pub const BATCH: usize = 16;
/// Open-loop ingest rate of `served-ft8` and `fleet-ft8`, snapshots per
/// second. The scenarios upload about 20k snapshots per simulated
/// second, but next to a closed-loop Diagnose client a 2-core host falls
/// behind at 10k/s and above (the generator runs tens of milliseconds
/// late and shard queues fill), and at 5k/s Diagnose tails still swing
/// with host load; at this rate queues stay short, so lag measures
/// service rather than a growing backlog.
pub const OPEN_LOOP_RATE: f64 = 2_500.0;
/// Shard daemons behind the `fleet-ft8` front-end (no more than `nproc`
/// on the reference host; no scaling claim is made).
pub const FLEET_SHARDS: usize = 2;
/// Corpus seed of the simulated scenarios. The benchmark seed orders the
/// kinds; the telemetry itself is the pinned corpus cell's.
pub const SCENARIO_SEED: u64 = 1;
/// Replicas `ingest-flood-ft8` diagnoses after its flood, per kind, and
/// how many times each.
const SWEEP_REPLICAS: u64 = 4;
const SWEEP_REPEATS: usize = 25;

/// One kind's simulated telemetry and its one-shot reference.
pub struct KindInput {
    pub kind: ScenarioKind,
    pub topo: Topology,
    pub truth: GroundTruth,
    pub stream: Vec<TelemetrySnapshot>,
    pub window: Window,
    pub missing: Vec<NodeId>,
    /// The one-shot verdict every served verdict must be at parity with.
    pub reference: ReplayOutcome,
    pub plan: ReplicaPlan,
    /// Fingerprint of the encoded stream: equal set-ups must agree.
    pub fingerprint: u64,
}

/// Wall time of one kind's set-up simulation.
#[derive(Debug, Clone, Copy)]
pub struct SetupTrial {
    /// `build_scenario_on`.
    pub build_s: f64,
    /// Build plus the whole `replay_streaming` call.
    pub total_s: f64,
}

impl KindInput {
    /// Simulate `kind` on `spec` through the program's streaming replay
    /// and keep what the daemon workloads need.
    pub fn prepare(
        spec: &TopologySpec,
        kind: ScenarioKind,
        tracer: &mut Tracer,
        trace_id: u64,
    ) -> Result<(KindInput, SetupTrial), String> {
        let root = tracer.open("trial", trace_id, None);
        let span = tracer.open("workloads.build", trace_id, root);
        let t = Instant::now();
        let scenario = build_scenario_on(spec, kind, cell_params(spec, SCENARIO_SEED))
            .map_err(|e| format!("{}: build rejected: {e:?}", kind.name()))?;
        let build_s = t.elapsed().as_secs_f64();
        tracer.close(span);
        let span = tracer.open("serve.replay_streaming", trace_id, root);
        let cfg = optimal_run_config(SCENARIO_SEED);
        let (reference, sink) = replay_streaming(&scenario, &cfg, VecSink::default());
        let total_s = t.elapsed().as_secs_f64();
        tracer.close(span);
        tracer.close(root);
        let window = reference
            .window
            .ok_or_else(|| format!("{}: the victim was never detected", kind.name()))?;
        let stream = sink.snaps;
        let input = KindInput {
            kind,
            fingerprint: fingerprint(&encode_batch(&stream)),
            plan: ReplicaPlan::new(cfg.epoch, scenario.params.duration),
            window,
            missing: reference.missing.clone(),
            reference,
            stream,
            topo: scenario.topo,
            truth: scenario.truth,
        };
        Ok((input, SetupTrial { build_s, total_s }))
    }
}

fn analyzer() -> AnalyzerConfig {
    AnalyzerConfig::for_epoch_len(optimal_run_config(SCENARIO_SEED).epoch.epoch_len())
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        analyzer: analyzer(),
        ..ServeConfig::default()
    }
}

fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A running backend for one kind.
pub enum Backend {
    Mono {
        daemon: DaemonHandle,
        wal_dir: Option<PathBuf>,
    },
    Fleet {
        shards: Vec<DaemonHandle>,
        front: FrontHandle,
    },
}

impl Backend {
    fn spawn(w: Workload, input: &KindInput, out_dir: &Path) -> Result<Backend, String> {
        match w {
            Workload::IngestFloodFt8 => {
                // fsync=never: the flood measures the log's CPU cost, not
                // the disk's.
                let dir = out_dir.join(format!("wal-{}-{}", std::process::id(), input.kind.name()));
                let _ = std::fs::remove_dir_all(&dir);
                let wal = WalConfig {
                    fsync: FsyncPolicy::Never,
                    ..WalConfig::new(&dir)
                };
                let daemon = spawn_durable(input.topo.clone(), serve_cfg(), tcp(), Some(wal))
                    .map_err(text)?;
                Ok(Backend::Mono {
                    daemon,
                    wal_dir: Some(dir),
                })
            }
            Workload::FleetFt8 => {
                let n = input.topo.switches().map(|s| s.0).max().unwrap_or(0) + 1;
                let unused = vec![BackendEndpoint::Tcp("unused:0".into()); FLEET_SHARDS];
                let mut shards = Vec::new();
                let mut entries = Vec::new();
                for e in ShardMap::even_split(n, unused, 1).shards {
                    let cfg = ServeConfig {
                        shard_range: Some(e.range),
                        ..serve_cfg()
                    };
                    let h = spawn(input.topo.clone(), cfg, tcp()).map_err(text)?;
                    let addr = h.local_addr.ok_or("shard daemon has no address")?;
                    entries.push(ShardEntry {
                        range: e.range,
                        endpoint: BackendEndpoint::Tcp(addr.to_string()),
                    });
                    shards.push(h);
                }
                let map = ShardMap {
                    epoch: 1,
                    shards: entries,
                };
                let fcfg = FrontConfig {
                    analyzer: analyzer(),
                    ..FrontConfig::default()
                };
                let front = spawn_front(input.topo.clone(), map, fcfg, tcp()).map_err(text)?;
                Ok(Backend::Fleet { shards, front })
            }
            _ => Ok(Backend::Mono {
                daemon: spawn(input.topo.clone(), serve_cfg(), tcp()).map_err(text)?,
                wal_dir: None,
            }),
        }
    }

    /// The address clients talk to.
    fn addr(&self) -> String {
        match self {
            Backend::Mono { daemon, .. } => daemon.local_addr,
            Backend::Fleet { front, .. } => front.local_addr,
        }
        .map(|a| a.to_string())
        .unwrap_or_default()
    }

    /// The daemons that hold the evidence.
    fn daemons(&self) -> Vec<&DaemonHandle> {
        match self {
            Backend::Mono { daemon, .. } => vec![daemon],
            Backend::Fleet { shards, .. } => shards.iter().collect(),
        }
    }

    fn front(&self) -> Option<&FrontHandle> {
        match self {
            Backend::Fleet { front, .. } => Some(front),
            Backend::Mono { .. } => None,
        }
    }

    fn shutdown(self) {
        match self {
            Backend::Mono { daemon, wal_dir } => {
                daemon.shutdown();
                if let Some(d) = wal_dir {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
            Backend::Fleet { shards, front } => {
                front.shutdown();
                for d in shards {
                    d.shutdown();
                }
            }
        }
    }
}

/// The monolith's verdict JSON for one replica, which the fleet's must
/// equal byte for byte. Verdicts carry no timestamps, so replica 0 stands
/// for every replica.
fn monolith_verdict_json(input: &KindInput) -> Result<String, String> {
    let daemon = spawn(input.topo.clone(), serve_cfg(), tcp()).map_err(text)?;
    let addr = daemon.local_addr.map(|a| a.to_string()).unwrap_or_default();
    let result = (|| {
        let mut c = ServeClient::connect_tcp(&addr).map_err(text)?;
        for chunk in input.stream.chunks(BATCH) {
            c.ingest_batch(chunk).map_err(text)?;
        }
        c.finish_ingest().map_err(text)?;
        let w = input.window;
        let r = c
            .diagnose(input.truth.victim, w.from, w.to, input.missing.clone())
            .map_err(text)?;
        serde_json::to_string(&r).map_err(|e| format!("{e:?}"))
    })();
    daemon.shutdown();
    result
}

/// One kind being served.
struct Served {
    input: KindInput,
    backend: Backend,
    /// Fleet only: the monolith's verdict JSON for this kind.
    monolith_json: Option<String>,
}

/// What one kind's ingest loop produced.
#[derive(Default)]
struct IngestRun {
    snaps: u64,
    shed: u64,
    secs: f64,
    errors: Vec<String>,
    lag_ms: Vec<f64>,
    /// Open loop: each batch's snapshots over its due-to-ack time.
    ack_rate: Vec<f64>,
    late_ms: Vec<f64>,
    batch_us: Vec<f64>,
    in_flight: Vec<f64>,
    retries: u64,
    encode_us: Vec<f64>,
    wire_bytes: u64,
    last_replica: Option<u64>,
}

/// What one kind's Diagnose loop produced.
#[derive(Default)]
struct DiagRun {
    ms: Vec<f64>,
    correct: u64,
    judged: u64,
    failures: Vec<String>,
    explain_us: [Vec<f64>; 3],
    frag_reuse: Vec<f64>,
    last_window: Option<Window>,
}

/// Everything one timed pass measured, over every kind.
#[derive(Default)]
struct Pass {
    diag_ms: Vec<f64>,
    /// Share of verdicts judged correct, per kind.
    accuracy: Vec<f64>,
    snaps: u64,
    ingest_s: f64,
    lag_ms: Vec<f64>,
    ack_rate: Vec<f64>,
    late_ms: Vec<f64>,
    batch_us: Vec<f64>,
    in_flight: Vec<f64>,
    retries: u64,
    encode_us: Vec<f64>,
    wire_bytes: u64,
    explain_us: [Vec<f64>; 3],
    frag_reuse: Vec<f64>,
    depth_max: (f64, f64),
    /// Per-kind daemon read-backs and run-record notes.
    daemon: Vec<KindReadback>,
    kinds: Vec<Value>,
}

impl Pass {
    fn absorb(&mut self, ing: IngestRun, diag: DiagRun, out: &mut Outcome) {
        out.attempted += ing.snaps + ing.errors.len() as u64;
        for _ in 0..ing.shed {
            out.fail("ingest: snapshot shed");
        }
        for e in ing.errors {
            out.fail(format!("ingest: {e}"));
        }
        out.attempted += diag.ms.len() as u64 + diag.failures.len() as u64;
        for f in diag.failures {
            out.fail(f);
        }
        self.snaps += ing.snaps.saturating_sub(ing.shed);
        self.ingest_s += ing.secs;
        self.lag_ms.extend(ing.lag_ms);
        self.ack_rate.extend(ing.ack_rate);
        self.late_ms.extend(ing.late_ms);
        self.batch_us.extend(ing.batch_us);
        self.in_flight.extend(ing.in_flight);
        self.retries += ing.retries;
        self.encode_us.extend(ing.encode_us);
        self.wire_bytes += ing.wire_bytes;
        self.diag_ms.extend(diag.ms);
        if diag.judged > 0 {
            self.accuracy.push(diag.correct as f64 / diag.judged as f64);
        }
        for (all, mine) in self.explain_us.iter_mut().zip(diag.explain_us) {
            all.extend(mine);
        }
        self.frag_reuse.extend(diag.frag_reuse);
    }
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let spec = p.size.daemon_topo;
    let kinds = kinds_for(p.seed);
    let mut tracer = Tracer::new(p.trace);
    let _ = std::fs::create_dir_all(&p.out_dir);

    // Set-up, repeated; the last one is kept. Equal set-ups must produce
    // byte-identical inputs.
    let mut setup_s = Vec::new();
    let mut trial_rates = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut trials: Vec<SetupTrial> = Vec::new();
    let mut prints: Option<Vec<u64>> = None;
    for rep in 0..p.size.setups.max(1) {
        for s in served.drain(..) {
            s.backend.shutdown();
        }
        trials.clear();
        let t = Instant::now();
        match set_up(p, &spec, &kinds, rep, &mut tracer) {
            Ok((s, tr)) => {
                served = s;
                trials = tr;
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                break;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        let trial_s: f64 = trials.iter().map(|t| t.total_s).sum();
        trial_rates.push(trials.len() as f64 / trial_s.max(1e-9));
        let fp: Vec<u64> = served.iter().map(|s| s.input.fingerprint).collect();
        match &prints {
            Some(prev) if *prev != fp => {
                out.attempted += 1;
                out.fail(format!(
                    "set-up {rep} generated different inputs than set-up 0"
                ));
            }
            _ => prints = Some(fp),
        }
    }

    let mode = reset_peak();
    let mut pass = Pass::default();
    let mut overhead = None;
    if !served.is_empty() {
        if p.trace {
            // The untraced baseline of the tracing overhead, on its own
            // backends so the traced pass reads clean daemon counters.
            let base = timed_pass(p, &served, &mut Tracer::new(false), &mut Outcome::default());
            for s in &mut served {
                match Backend::spawn(p.workload, &s.input, &p.out_dir) {
                    Ok(b) => std::mem::replace(&mut s.backend, b).shutdown(),
                    Err(e) => {
                        out.attempted += 1;
                        out.fail(format!("respawn: {e}"));
                    }
                }
            }
            pass = timed_pass(p, &served, &mut tracer, &mut out);
            // Cost of the workload's headline operation: a Diagnose, or
            // for the flood the time per ingested snapshot.
            let cost = |x: &Pass| match p.workload {
                Workload::IngestFloodFt8 => x.ingest_s / x.snaps.max(1) as f64,
                _ => median(&x.diag_ms),
            };
            overhead = Some(100.0 * (cost(&pass) / cost(&base).max(1e-12) - 1.0));
        } else {
            pass = timed_pass(p, &served, &mut tracer, &mut out);
        }
    }
    let peak = peak_mb();
    for s in served {
        s.backend.shutdown();
    }
    out.note("rss_mode", Value::Str(mode.label().into()));
    out.note(
        "diagnose_tail_ms",
        Value::Object(
            [0.9, 0.95, 0.99]
                .iter()
                .map(|&q| {
                    (
                        format!("p{}", (q * 100.0) as u32),
                        Value::Float(percentile(&pass.diag_ms, q)),
                    )
                })
                .collect(),
        ),
    );
    out.note("kinds", Value::Array(std::mem::take(&mut pass.kinds)));
    out.note(
        "setup_s",
        Value::Array(setup_s.iter().map(|&v| Value::Float(v)).collect()),
    );

    let mut v = Values::default();
    if p.trace {
        // The simulator layers run inside `replay_streaming` here, off the
        // timed path; `oneshot-ft16` splits them.
        v.set_median(
            "workloads.build_ms",
            trials.iter().map(|t| t.build_s * 1e3).collect(),
        );
        layer_values(&pass, &tracer, &mut v);
        v.set("trace.overhead_pct", overhead.unwrap_or(0.0));
        v.emit(List::PerLayer, &mut out);
    } else {
        v.set_median("trials_per_s", trial_rates);
        v.set("peak_rss_mb", peak);
        v.set_samples(
            "diagnosis_accuracy",
            pass.accuracy.iter().sum::<f64>() / pass.accuracy.len().max(1) as f64,
            pass.accuracy.clone(),
        );
        v.set_samples(
            "diagnose_p50_ms",
            percentile(&pass.diag_ms, 0.5),
            pass.diag_ms.clone(),
        );
        v.set("diagnose_p90_ms", percentile(&pass.diag_ms, 0.9));
        // The flood's saturating rate; open loop, the median batch's
        // snapshots per second from when it was due to its ack, which
        // falls as the daemon's service slows or a backlog builds.
        let ingest = match p.workload {
            Workload::IngestFloodFt8 => pass.snaps as f64 / pass.ingest_s.max(1e-9),
            _ => median(&pass.ack_rate),
        };
        v.set_samples("ingest_snaps_per_s", ingest, pass.ack_rate.clone());
        v.set_median("setup_s", setup_s);
        v.emit(List::EndToEnd, &mut out);
    }
    crate::write_trace(p, &tracer);
    out
}

/// Simulate every kind and spawn its backend.
fn set_up(
    p: &Params,
    spec: &TopologySpec,
    kinds: &[ScenarioKind],
    rep: usize,
    tracer: &mut Tracer,
) -> Result<(Vec<Served>, Vec<SetupTrial>), String> {
    let root = tracer.open("setup", rep as u64, None);
    let mut inputs = Vec::new();
    let mut trials = Vec::new();
    // Every trial first, then every backend, so no daemon sits beside a
    // simulation.
    for (i, &kind) in kinds.iter().enumerate() {
        let (input, trial) =
            KindInput::prepare(spec, kind, tracer, (rep * kinds.len() + i) as u64)?;
        inputs.push(input);
        trials.push(trial);
    }
    let span = tracer.open("serve.spawn", rep as u64, root);
    let mut served: Vec<Served> = Vec::new();
    for input in inputs {
        let kind = input.kind.name();
        let spawned = Backend::spawn(p.workload, &input, &p.out_dir).and_then(|backend| {
            if p.workload != Workload::FleetFt8 {
                return Ok((backend, None));
            }
            match monolith_verdict_json(&input) {
                Ok(j) => Ok((backend, Some(j))),
                Err(e) => {
                    backend.shutdown();
                    Err(format!("monolith reference: {e}"))
                }
            }
        });
        match spawned {
            Ok((backend, monolith_json)) => served.push(Served {
                input,
                backend,
                monolith_json,
            }),
            Err(e) => {
                for s in served {
                    s.backend.shutdown();
                }
                return Err(format!("{kind}: spawn: {e}"));
            }
        }
    }
    tracer.close(span);
    tracer.close(root);
    Ok((served, trials))
}

/// Serve every kind for its share of the run's seconds.
fn timed_pass(p: &Params, served: &[Served], tracer: &mut Tracer, out: &mut Outcome) -> Pass {
    let slice = Duration::from_secs_f64(p.seconds / served.len().max(1) as f64);
    let mut pass = Pass::default();
    for s in served {
        let traced = tracer.enabled();
        let stop = AtomicBool::new(false);
        let daemons = s.backend.daemons();
        let (ing, diag, depths) = std::thread::scope(|sc| {
            let sampler = sc.spawn(|| sample_depths(traced, &daemons, &stop));
            let (ing, diag) = match p.workload {
                Workload::IngestFloodFt8 => flood(s, slice, tracer),
                _ => open_and_closed_loop(s, slice, tracer),
            };
            stop.store(true, Ordering::SeqCst);
            (ing, diag, sampler.join().expect("sampler thread"))
        });
        pass.depth_max.0 = pass.depth_max.0.max(depths.0);
        pass.depth_max.1 = pass.depth_max.1.max(depths.1);
        let replicas = ing.last_replica.map_or(0, |r| r + 1);
        let window = diag.last_window;
        let kind_ms = diag.ms.clone();
        pass.absorb(ing, diag, out);
        let rb = read_back(s, window, traced);
        pass.kinds.push(Value::Object(vec![
            ("kind".into(), Value::Str(s.input.kind.name().into())),
            (
                "stream_snapshots".into(),
                Value::UInt(s.input.stream.len() as u64),
            ),
            ("replicas".into(), Value::UInt(replicas)),
            ("diagnoses".into(), Value::UInt(kind_ms.len() as u64)),
            (
                "diagnose_p50_ms".into(),
                Value::Float(percentile(&kind_ms, 0.5)),
            ),
            (
                "diagnose_p99_ms".into(),
                Value::Float(percentile(&kind_ms, 0.99)),
            ),
            ("store_epochs_held".into(), Value::UInt(rb.epochs_held)),
            (
                "store_epochs_compacted_held".into(),
                Value::UInt(rb.compacted_held),
            ),
            ("retained_bytes".into(), Value::UInt(rb.retained_bytes)),
        ]));
        pass.daemon.push(rb);
    }
    pass
}

/// Open-loop ingest on one connection, closed-loop Diagnose on another.
fn open_and_closed_loop(s: &Served, slice: Duration, tracer: &mut Tracer) -> (IngestRun, DiagRun) {
    let addr = s.backend.addr();
    let latest = AtomicI64::new(-1);
    let done = AtomicBool::new(false);
    let mut ingest_tr = tracer.lane(2);
    let mut diag_tr = tracer.lane(3);
    let out = std::thread::scope(|sc| {
        let diag = sc.spawn(|| closed_loop_diagnose(&addr, s, &latest, &done, &mut diag_tr));
        let ing = open_loop_ingest(&addr, &s.input, slice, &latest, &mut ingest_tr);
        done.store(true, Ordering::SeqCst);
        (ing, diag.join().expect("diagnose thread"))
    });
    tracer.merge(ingest_tr);
    tracer.merge(diag_tr);
    out
}

/// Time one more encode of a batch: the wire layer's cost per frame,
/// measured beside the client call that encodes it for sending.
fn time_encode(chunk: &[TelemetrySnapshot], run: &mut IngestRun, tracer: &mut Tracer, id: u64) {
    let span = tracer.open("wire.encode_batch", id, None);
    let t = Instant::now();
    let bytes = encode_batch(chunk);
    run.encode_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    tracer.close(span);
    run.wire_bytes += bytes.len() as u64;
}

/// Send replicas at [`OPEN_LOOP_RATE`], each batch acknowledged before
/// the next is due; lag runs from when a batch was due to its ack, so a
/// stall counts against every batch it delays.
fn open_loop_ingest(
    addr: &str,
    input: &KindInput,
    slice: Duration,
    latest: &AtomicI64,
    tracer: &mut Tracer,
) -> IngestRun {
    let mut run = IngestRun::default();
    let mut client = match ServeClient::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            run.errors.push(e.to_string());
            return run;
        }
    };
    let t0 = Instant::now();
    let mut replica = 0u64;
    'outer: loop {
        let snaps = input.plan.replica(&input.stream, replica);
        for chunk in snaps.chunks(BATCH) {
            // A batch is due once the rate has produced its snapshots.
            let produced = (run.snaps + chunk.len() as u64) as f64;
            let offset = Duration::from_secs_f64(produced / OPEN_LOOP_RATE);
            if offset > slice {
                break 'outer;
            }
            let due = t0 + offset;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let span = tracer.open("client.ingest_batch", replica, None);
            let res = client.ingest_batch(chunk).and_then(|a| {
                let b = client.finish_ingest()?;
                Ok(a.shed + b.shed)
            });
            tracer.close(span);
            let acked = Instant::now();
            match res {
                Ok(shed) => {
                    run.snaps += chunk.len() as u64;
                    run.shed += shed;
                }
                Err(e) => {
                    run.errors.push(e.to_string());
                    break 'outer;
                }
            }
            run.late_ms.push((sent - due).as_secs_f64() * 1e3);
            let lag = (acked - due).as_secs_f64();
            run.lag_ms.push(lag * 1e3);
            run.ack_rate.push(chunk.len() as f64 / lag.max(1e-9));
            run.batch_us.push((acked - sent).as_secs_f64() * 1e6);
            if tracer.enabled() {
                run.in_flight.push(f64::from(client.in_flight()));
                time_encode(chunk, &mut run, tracer, replica);
            }
        }
        latest.store(replica as i64, Ordering::SeqCst);
        run.last_replica = Some(replica);
        replica += 1;
    }
    run.secs = t0.elapsed().as_secs_f64();
    run.retries = client.retries();
    run
}

/// Closed-loop Diagnose of the latest fully acknowledged replica until
/// ingest ends.
fn closed_loop_diagnose(
    addr: &str,
    s: &Served,
    latest: &AtomicI64,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> DiagRun {
    let mut run = DiagRun::default();
    let mut client = match ServeClient::connect_tcp(addr) {
        Ok(c) => c,
        Err(e) => {
            run.failures.push(e.to_string());
            return run;
        }
    };
    while !done.load(Ordering::SeqCst) {
        let r = latest.load(Ordering::SeqCst);
        if r < 0 {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        diagnose_once(&mut client, s, r as u64, tracer, &mut run);
    }
    run
}

/// Diagnose one replica's window and check the verdict.
fn diagnose_once(
    client: &mut ServeClient,
    s: &Served,
    replica: u64,
    tracer: &mut Tracer,
    run: &mut DiagRun,
) {
    let input = &s.input;
    let w = input.plan.window(input.window, replica);
    let span = tracer.open("client.diagnose", replica, None);
    let start = tracer.now();
    let t = Instant::now();
    let res = client.diagnose(input.truth.victim, w.from, w.to, input.missing.clone());
    let el = t.elapsed();
    tracer.close(span);
    run.last_window = Some(w);
    let report = match res {
        Ok(r) => r,
        Err(e) => {
            run.failures
                .push(format!("{}: diagnose: {e}", input.kind.name()));
            return;
        }
    };
    run.ms.push(el.as_secs_f64() * 1e3);
    check_verdict(s, &report, run);
    if !tracer.enabled() {
        return;
    }
    // The daemon's own stage timings, placed inside the client's span;
    // what they leave uncovered is wire, queueing and the flush barrier.
    // A front-end refuses Explain (it keeps no audit trail).
    if s.backend.front().is_some() {
        return;
    }
    if let Ok(rec) = client.explain(None) {
        let stages = [rec.stage_collect_ns, rec.stage_graph_ns, rec.stage_match_ns];
        let dur = el.as_nanos() as u64;
        let mut at = start + dur.saturating_sub(stages.iter().sum()) / 2;
        let named = [
            Stage::TelemetryCollection,
            Stage::GraphBuild,
            Stage::SignatureMatch,
        ];
        for (i, (stage, d)) in named.into_iter().zip(stages).enumerate() {
            tracer.add(stage.name(), replica, span, at, at + d);
            at += d;
            run.explain_us[i].push(d as f64 / 1e3);
        }
        let frags = rec.frags_reused + rec.frags_recomputed;
        if frags > 0 {
            run.frag_reuse.push(rec.frags_reused as f64 / frags as f64);
        }
    }
}

/// Parity with the one-shot verdict (and, for a fleet, byte identity
/// with the monolith's), then judged against ground truth.
fn check_verdict(s: &Served, report: &DiagnosisReport, run: &mut DiagRun) {
    let kind = s.input.kind.name();
    if !s.input.reference.parity_with(report) {
        run.failures.push(format!(
            "{kind}: served verdict not at parity with one-shot"
        ));
        return;
    }
    if let Some(mono) = &s.monolith_json {
        if serde_json::to_string(report).ok().as_ref() != Some(mono) {
            run.failures.push(format!(
                "{kind}: fleet verdict JSON differs from the monolith's"
            ));
            return;
        }
    }
    run.judged += 1;
    if judge(&s.input.truth, report, &ScoreConfig::default()) == Verdict::Correct {
        run.correct += 1;
    }
}

/// Closed-loop ingest as fast as the credit window allows, then a sweep
/// of Diagnose over the last replicas for parity.
fn flood(s: &Served, slice: Duration, tracer: &mut Tracer) -> (IngestRun, DiagRun) {
    let addr = s.backend.addr();
    let mut run = IngestRun::default();
    let mut diag = DiagRun::default();
    let mut client = match ServeClient::connect_tcp(&addr) {
        Ok(c) => c,
        Err(e) => {
            run.errors.push(e.to_string());
            return (run, diag);
        }
    };
    let t0 = Instant::now();
    let mut replica = 0u64;
    'outer: while t0.elapsed() < slice {
        // Replicas are shifted as they are sent; that client-side cost
        // (about one snapshot clone each) is part of the loop.
        let snaps = s.input.plan.replica(&s.input.stream, replica);
        for chunk in snaps.chunks(BATCH) {
            let span = tracer.open("client.ingest_batch", replica, None);
            let t = Instant::now();
            let res = client.ingest_batch(chunk);
            run.batch_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.close(span);
            match res {
                Ok(a) => run.shed += a.shed,
                Err(e) => {
                    run.errors.push(e.to_string());
                    break 'outer;
                }
            }
            run.snaps += chunk.len() as u64;
            if tracer.enabled() {
                run.in_flight.push(f64::from(client.in_flight()));
                time_encode(chunk, &mut run, tracer, replica);
            }
        }
        run.last_replica = Some(replica);
        replica += 1;
    }
    match client.finish_ingest() {
        Ok(a) => run.shed += a.shed,
        Err(e) => run.errors.push(e.to_string()),
    }
    run.secs = t0.elapsed().as_secs_f64();
    run.retries = client.retries();
    if let Some(last) = run.last_replica {
        let first = last.saturating_sub(SWEEP_REPLICAS - 1);
        for _ in 0..SWEEP_REPEATS {
            for r in first..=last {
                diagnose_once(&mut client, s, r, tracer, &mut diag);
            }
        }
    }
    (run, diag)
}

/// Poll the daemons' queue-depth gauges until `stop` (traced run only).
fn sample_depths(traced: bool, daemons: &[&DaemonHandle], stop: &AtomicBool) -> (f64, f64) {
    let (mut shard, mut comp) = (0.0f64, 0.0f64);
    while traced && !stop.load(Ordering::SeqCst) {
        for d in daemons {
            for g in &d.metrics().gauges {
                if g.key.starts_with(names::SHARD_QUEUE_DEPTH) {
                    shard = shard.max(g.value);
                } else if g.key.starts_with(names::COMPACTOR_QUEUE_DEPTH) {
                    comp = comp.max(g.value);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    (shard, comp)
}

/// What the daemons of one kind hold and report after its slice.
#[derive(Default)]
struct KindReadback {
    epochs_held: u64,
    compacted_held: u64,
    retained_bytes: u64,
    metrics: Vec<MetricsSnapshot>,
    front: Option<MetricsSnapshot>,
    /// Timed public calls on the fragment set of the last diagnosed
    /// window (traced only): merge+assemble, aggregate, graph, diagnose.
    merge_us: f64,
    aggregate_us: f64,
    graph_us: f64,
    diagnose_us: f64,
    graph_nodes: f64,
}

/// Read retention from `Stats`, the evidence from `Fragments` and the
/// counters from each daemon's metrics.
fn read_back(s: &Served, window: Option<Window>, traced: bool) -> KindReadback {
    let mut rb = KindReadback::default();
    let mut fragments = Vec::new();
    for d in s.backend.daemons() {
        let addr = d.local_addr.map(|a| a.to_string()).unwrap_or_default();
        let Ok(mut c) = ServeClient::connect_tcp(&addr) else {
            continue;
        };
        if let Ok(st) = c.stats() {
            let get = |k: &str| st.get(k).and_then(Value::as_u64).unwrap_or(0);
            rb.epochs_held += get("store_epochs_held");
            rb.compacted_held += get("store_epochs_compacted_held");
        }
        if let Ok(f) = c.fragments() {
            rb.retained_bytes += encode_batch(&f).len() as u64;
            fragments.push(f);
        }
        rb.metrics.push(d.metrics());
    }
    rb.front = s.backend.front().map(FrontHandle::metrics);
    if let (true, Some(w)) = (traced, window) {
        time_analysis(s, fragments, w, &mut rb);
    }
    rb
}

/// Time, from outside, the public calls a fleet front-end makes on the
/// per-shard fragments and the analysis a daemon runs on them.
fn time_analysis(
    s: &Served,
    shards: Vec<Vec<TelemetrySnapshot>>,
    w: Window,
    rb: &mut KindReadback,
) {
    let cfg = analyzer();
    let topo = &s.input.topo;
    let t = Instant::now();
    let merged = merge_fragment_sets(shards.clone());
    let (_, graph) = assemble_from_fragments(shards, w, topo, cfg.replay);
    rb.merge_us = t.elapsed().as_nanos() as f64 / 1e3;
    rb.graph_nodes = (graph.ports.len() + graph.flows.len()) as f64;
    let t = Instant::now();
    let agg = AggTelemetry::build(&merged, w);
    rb.aggregate_us = t.elapsed().as_nanos() as f64 / 1e3;
    let t = Instant::now();
    let g = build_graph(&agg, topo, cfg.replay);
    rb.graph_us = t.elapsed().as_nanos() as f64 / 1e3;
    let t = Instant::now();
    std::hint::black_box(diagnose(
        &g,
        topo,
        &agg,
        &s.input.truth.victim,
        cfg.diagnosis,
    ));
    rb.diagnose_us = t.elapsed().as_nanos() as f64 / 1e3;
}

fn hist_pct(m: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    m.histogram(name)
        .and_then(|h| h.percentile(q))
        .map_or(0.0, |ns| ns as f64 / 1e3)
}

/// The client, wire, serve and cluster layers of a traced pass.
fn layer_values(pass: &Pass, tracer: &Tracer, v: &mut Values) {
    let per_kind =
        |f: &dyn Fn(&KindReadback) -> f64| -> Vec<f64> { pass.daemon.iter().map(f).collect() };
    let max = |xs: Vec<f64>| xs.into_iter().fold(0.0f64, f64::max);
    let daemons_max = |name: &str, q: f64| -> Vec<f64> {
        per_kind(&|rb| {
            rb.metrics
                .iter()
                .map(|m| hist_pct(m, name, q))
                .fold(0.0, f64::max)
        })
    };
    let counter_sum = |name: &str| -> f64 {
        pass.daemon
            .iter()
            .flat_map(|rb| rb.metrics.iter())
            .map(|m| m.counter_total(name) as f64)
            .sum()
    };
    let snaps = pass.snaps.max(1) as f64;

    v.set_median("aggregate.build_us", per_kind(&|rb| rb.aggregate_us));
    v.set_median("provenance.build_graph_us", per_kind(&|rb| rb.graph_us));
    v.set(
        "provenance.graph_nodes",
        median(&per_kind(&|rb| rb.graph_nodes)),
    );
    v.set_median("diagnosis.diagnose_us", per_kind(&|rb| rb.diagnose_us));

    v.set_median("client.ingest_batch_us", pass.batch_us.clone());
    v.set(
        "client.in_flight",
        pass.in_flight.iter().sum::<f64>() / pass.in_flight.len().max(1) as f64,
    );
    v.set("client.retries", pass.retries as f64);
    v.set("client.ingest_lag_p50_ms", percentile(&pass.lag_ms, 0.5));
    v.set("client.ingest_lag_p99_ms", percentile(&pass.lag_ms, 0.99));
    v.set(
        "client.generator_late_p99_ms",
        percentile(&pass.late_ms, 0.99),
    );
    v.set_median("wire.encode_us", pass.encode_us.clone());
    v.set("wire.bytes_per_snap", pass.wire_bytes as f64 / snaps);

    let p50 = daemons_max(names::OP_INGEST_BATCH_NS, 0.5);
    v.set_median("serve.op_ingest_batch_p50_us", p50);
    v.set(
        "serve.op_ingest_batch_p99_us",
        max(daemons_max(names::OP_INGEST_BATCH_NS, 0.99)),
    );
    let p50 = daemons_max(names::OP_DIAGNOSE_NS, 0.5);
    v.set_median("serve.op_diagnose_p50_us", p50);
    v.set(
        "serve.op_diagnose_p99_us",
        max(daemons_max(names::OP_DIAGNOSE_NS, 0.99)),
    );
    v.set(
        "serve.stage_append_ns",
        counter_sum(names::STAGE_APPEND_NS) / snaps,
    );
    v.set(
        "serve.stage_fold_ns",
        counter_sum(names::STAGE_FOLD_NS) / snaps,
    );
    v.set(
        "serve.stage_engine_apply_ns",
        counter_sum(names::STAGE_ENGINE_APPLY_NS) / snaps,
    );
    v.set(
        "serve.stage_retire_ns",
        counter_sum(names::STAGE_RETIRE_NS) / snaps,
    );
    v.set("serve.shard_queue_depth_max", pass.depth_max.0);
    v.set("serve.compactor_queue_depth_max", pass.depth_max.1);
    v.set("serve.ingest_shed", counter_sum(names::INGEST_SHED));
    v.set("serve.explain_collect_us", median(&pass.explain_us[0]));
    v.set("serve.explain_graph_us", median(&pass.explain_us[1]));
    v.set("serve.explain_match_us", median(&pass.explain_us[2]));
    v.set(
        "serve.frag_reuse_ratio",
        pass.frag_reuse.iter().sum::<f64>() / pass.frag_reuse.len().max(1) as f64,
    );
    let kinds = pass.daemon.len().max(1) as f64;
    v.set(
        "serve.store_epochs_held",
        per_kind(&|rb| rb.epochs_held as f64).iter().sum::<f64>() / kinds,
    );
    v.set(
        "serve.store_epochs_compacted_held",
        per_kind(&|rb| rb.compacted_held as f64).iter().sum::<f64>() / kinds,
    );
    v.set(
        "serve.engine_epochs_retired",
        counter_sum(names::ENGINE_EPOCHS_RETIRED),
    );
    v.set(
        "serve.wal_records_appended",
        counter_sum(names::WAL_RECORDS_APPENDED),
    );
    v.set("serve.wal_bytes", counter_sum(names::WAL_BYTES));

    let fronts: Vec<&MetricsSnapshot> = pass
        .daemon
        .iter()
        .filter_map(|rb| rb.front.as_ref())
        .collect();
    let front_p50 = |name: &str| {
        median(
            &fronts
                .iter()
                .map(|m| hist_pct(m, name, 0.5))
                .collect::<Vec<_>>(),
        )
    };
    v.set(
        "cluster.front_op_diagnose_p50_us",
        front_p50(names::OP_DIAGNOSE_NS),
    );
    v.set(
        "cluster.front_op_ingest_batch_p50_us",
        front_p50(names::OP_INGEST_BATCH_NS),
    );
    v.set(
        "cluster.front_shed_down",
        fronts
            .iter()
            .map(|m| m.counter_total(names::FRONT_SHED_DOWN) as f64)
            .sum(),
    );
    v.set_median("cluster.merge_us", per_kind(&|rb| rb.merge_us));

    v.set(
        "trace.unattributed_pct",
        tracer.unattributed_pct("client.diagnose"),
    );
    v.set("trace.spans", tracer.spans().len() as f64);
}
