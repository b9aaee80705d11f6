//! The `hawkeye serve` daemon: a multi-threaded diagnosis service.
//!
//! Threading model:
//!
//! - The shared [`FrameServer`] runs the **accept loop** and one
//!   **session thread** per connection; this module supplies the daemon's
//!   request handler (whose `Drop` is the teardown) and its per-tick
//!   checkpoint hook.
//! - Sessions route each `IngestBatch` snapshot by `switch id % shards`
//!   into bounded per-shard queues. A full queue **backpressures** by
//!   default — the session blocks, the client's credit window (granted
//!   on `Hello`, replenished by every `BatchAck`) empties, and the
//!   producer slows to the slowest shard's pace with zero loss. Shedding
//!   (counted in the `BatchAck` and the `ingest_shed` counter) is the
//!   explicit [`OverloadPolicy::Shed`] escape hatch.
//! - Each **shard worker** owns a [`TelemetryStore`] partition and feeds
//!   the shared [`IncrementalProvenance`] engine, so graph maintenance
//!   happens on the ingest path, not the query path. After every ingest
//!   the worker publishes its store's retention horizon and retires the
//!   engine behind the fleet-wide minimum — store and engine age out
//!   telemetry in lockstep, so neither grows without bound (see
//!   `tests/retention.rs`).
//! - A single **compactor thread** owns the folded tier: shard stores run
//!   in deferred-fold mode and only *stage* ring-evicted epochs, which the
//!   workers hand over as `CompactMsg::Fold` batches after releasing the
//!   store lock — the fold loop (≈46% of pre-PR-7 store+engine ingest
//!   wall) leaves the hot path entirely, with no new locks. Queries that
//!   read the folded tier (`FlowHistory`, `Stats`) barrier on the
//!   compactor channel first.
//! - `Diagnose` flushes every shard queue (barrier), gathers the shards'
//!   canonical snapshots on the PR-2 work-stealing pool
//!   ([`par_map`]), and runs the batch analyzer over them — the store's
//!   canonical form makes this verdict-identical to the one-shot path on
//!   the same telemetry (see `tests/serve_e2e.rs`). Diagnosis reads the
//!   raw ring only, so it needs no compactor barrier.
//!
//! Counters (`epochs_ingested`, `ingest_shed`, `incremental_updates`,
//! `serve_sessions`, …) live in a shared [`MetricsRegistry`] and are
//! reported over the `Stats` request; the full observability surface —
//! per-op latency histograms, pipeline-stage timings, health gauges and the
//! flight-recorder ring — rides the `Metrics` request, and every `Diagnose`
//! journals an [`ExplainRecord`] queryable over `Explain`. All of it is
//! gated on [`ServeConfig::obs`] so the instrumented hot path stays within
//! a few percent of the bare one (see `benches/serve_obs.rs`).

use crate::audit::{AuditTrail, ExplainRecord};
use crate::compactor::{Compactor, PendingFold};
use crate::frame_server::{
    counter_fields, seeded_registry, Endpoint, FrameServer, Handler, Listener, SessionPolicy,
};
use crate::recovery::{recover_and_open, RecoveryReport};
use crate::store::{FlowObservation, StoreConfig, TelemetryStore};
use crate::wal::{
    encode_audit_checkpoint, encode_switch_checkpoint, AuditCheckpoint, SwitchCheckpoint, Wal,
    WalConfig, WalStats, REC_BATCH, REC_CKPT_AUDIT, REC_CKPT_BEGIN, REC_CKPT_END, REC_CKPT_SWITCH,
    REC_SNAPSHOT, REC_VERDICT,
};
use hawkeye_client::proto::WRONG_SHARD_PREFIX;
use hawkeye_client::{DiagnoseParams, Request, Response, ShardRange};
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, AnomalyType, Confidence, DiagnosisReport,
    IncrementalProvenance, ReplayConfig, RootCause, Window,
};
use hawkeye_eval::par_map;
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    COMPACTOR_QUEUE_DEPTH, CREDITS_OUTSTANDING, INGEST_BATCHES, INGEST_WRONG_SHARD,
    RECOVERY_TRUNCATED, RETENTION_LAG_NS, SHARD_QUEUE_DEPTH, SHARD_WATERMARK_LAG_NS,
    STAGE_APPEND_NS, STAGE_ENGINE_APPLY_NS, STAGE_FOLD_NS, STAGE_RETIRE_NS, WAL_BYTES,
    WAL_RECORDS_APPENDED, WAL_SEGMENTS_RETIRED, WATERMARK_LAG_WARNS,
};
use hawkeye_obs::{
    FlightRecorder, MetricKey, MetricsRegistry, MetricsSnapshot, ObsConfig, Recorder, Stage,
};
use hawkeye_sim::{FlowKey, Nanos, Topology};
use hawkeye_telemetry::{encode_batch, encode_snapshot, TelemetrySnapshot};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

pub use hawkeye_obs::names::{
    ENGINE_EPOCHS_RETIRED, EPOCHS_INGESTED, INCREMENTAL_UPDATES, INGEST_SHED, SERVE_SESSIONS,
};

/// What a session does when a shard's ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the session until the shard drains (the default). Combined
    /// with the credit window this propagates a slow shard back to the
    /// client as reduced send rate — zero sheds, bounded memory.
    #[default]
    Backpressure,
    /// Shed the snapshot (counted as shed in the `BatchAck` and in the
    /// `ingest_shed` counter) — an explicit escape hatch for deployments
    /// that prefer fresh-data latency over completeness under overload.
    Shed,
}

/// Daemon tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub store: StoreConfig,
    pub replay: ReplayConfig,
    pub analyzer: AnalyzerConfig,
    /// Ingest shards (worker threads + store partitions).
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue. A full queue blocks the
    /// session under [`OverloadPolicy::Backpressure`] (the default) and
    /// sheds under [`OverloadPolicy::Shed`].
    pub queue_depth: usize,
    /// Threads for the diagnose-time gather on the work-stealing pool.
    pub gather_jobs: usize,
    /// Master switch for serve-plane observability: per-op latency
    /// histograms, stage timings, health gauges, the flight ring and the
    /// verdict audit trail. Off = the bare hot path (benchmark baseline).
    pub obs: bool,
    /// Requests slower than this (wall-clock ns) count as `slow_ops` and
    /// land in the flight ring.
    pub slow_op_ns: u64,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
    /// Audit-trail ring capacity (explain records).
    pub audit_capacity: usize,
    /// A shard lagging more than this (sim-time ns) behind the fleet-max
    /// watermark records a WARNING flight event. Generous by default so
    /// fault-free replays stay warning-free.
    pub lag_warn_ns: u64,
    /// Full-queue behaviour on the ingest path.
    pub overload: OverloadPolicy,
    /// Credit window granted per session on `Hello`: the maximum
    /// un-acknowledged snapshots a pipelining client may have in flight.
    pub session_credits: u32,
    /// Artificial per-snapshot delay (wall ns) in every shard worker — the
    /// "deliberately slow shard" knob for backpressure tests and benches;
    /// 0 in production.
    pub ingest_delay_ns: u64,
    /// The contiguous switch-id range this daemon owns when it serves one
    /// shard of a fleet (`hawkeye serve --shard LO..HI`). Ingest for a
    /// switch outside the range is refused with a typed `wrong_shard`
    /// error — never silently stored against stale ownership — and a
    /// Hello announcing a different shard-map epoch is refused the same
    /// way. `None` (the default) is the monolithic daemon: every switch
    /// is owned and Hello epochs are not checked.
    pub shard_range: Option<ShardRange>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: StoreConfig::default(),
            replay: ReplayConfig::default(),
            analyzer: AnalyzerConfig::for_epoch_len(Nanos::from_micros(100)),
            shards: 4,
            queue_depth: 256,
            gather_jobs: 2,
            obs: true,
            slow_op_ns: 10_000_000,
            flight_capacity: 256,
            audit_capacity: 64,
            lag_warn_ns: 1_000_000_000,
            overload: OverloadPolicy::Backpressure,
            session_credits: 64,
            ingest_delay_ns: 0,
            shard_range: None,
        }
    }
}

/// An evidence-log record riding the ingest path: kind + canonical
/// payload bytes (the received frame body — never a re-encode).
type JournalRecord = (u8, Vec<u8>);

enum ShardMsg {
    /// A routed snapshot, plus (on a `--durable` daemon) the journal
    /// record it settles. The record rides the shard queue and the shard
    /// worker's existing fold send instead of a dedicated compactor
    /// message: on a busy box the extra cross-thread wake per frame costs
    /// several times the append itself, and piggybacking makes durable
    /// ingest wake exactly the threads durability-off ingest does. The
    /// shard/compactor flush barrier still orders after it ("flushed"
    /// still means "journaled").
    Ingest(TelemetrySnapshot, Option<JournalRecord>),
    /// Barrier: reply once every prior message on this queue is applied.
    Flush(SyncSender<()>),
}

/// Messages to the compactor thread, which owns the daemon's folded tier
/// (the stores run with [`StoreConfig::deferred_fold`] and only *stage*
/// ring-evicted epochs). One thread, one FIFO channel: per-switch fold
/// order matches arrival order, so bucket boundaries are identical to the
/// inline path's, and queries serialize after every fold already sent.
enum CompactMsg {
    /// A batch of ring-evicted epochs staged by one shard-worker append,
    /// plus the journal record that rode the same shard message (if any).
    Fold(Vec<PendingFold>, Option<JournalRecord>),
    /// Barrier: reply once every prior fold on this channel is absorbed —
    /// and, on a `--durable` daemon, every prior journal record is synced
    /// per the fsync policy ("flushed" also means "journaled").
    Flush(SyncSender<()>),
    /// Append one record (kind + canonical payload bytes) to the evidence
    /// log directly — the off-ingest-path journal writes (verdicts).
    Journal(u8, Vec<u8>),
    /// Step 1 of the checkpoint protocol: reply with the WAL's next seq —
    /// the checkpoint barrier. Every record below it was journaled before
    /// this message, hence routed to its shard before the accept loop's
    /// subsequent shard flush, hence applied before step 3 runs.
    CheckpointMark(SyncSender<u64>),
    /// Step 3: write a durable checkpoint (per-switch ring images +
    /// compacted buckets + the audit trail) at the marked barrier, then
    /// retire raw segments the checkpoint covers — disk stays bounded in
    /// lockstep with the compaction tiers.
    Checkpoint { boundary: u64 },
    /// Compacted-tier rows for one flow (unsorted; the caller merges).
    FlowHistory(FlowKey, SyncSender<Vec<FlowObservation>>),
    /// Tier occupancy: (raw epochs summed in buckets, bucket count).
    Tier(SyncSender<(u64, usize)>),
    /// Exit the thread (sent by the accept loop after the shard workers
    /// have been joined, so no fold can arrive after it). Syncs the WAL
    /// before exiting.
    Shutdown,
}

/// The shard workers' and sessions' handle to the compactor thread.
#[derive(Clone)]
struct CompactorHandle {
    tx: SyncSender<CompactMsg>,
    /// Fold batches sent but not yet absorbed (drives the
    /// `compactor_queue_depth` gauge).
    depth: Arc<AtomicU64>,
}

/// Depth of the compactor thread's channel. Bounded on purpose: if the
/// compactor falls this far behind, shard workers block on the send and
/// the slowdown propagates up the ingest path (and, under the credit
/// window, back to the client) instead of growing an unbounded fold queue.
const COMPACT_QUEUE_DEPTH: usize = 1024;

/// The compactor thread: single owner of the folded tier — and, on a
/// `--durable` daemon, of the evidence log (journal appends, fsync policy,
/// checkpoints, segment retirement all happen here, off the ingest hot
/// path). Takes only the metrics lock on the fold path (a leaf in the
/// canonical store → engine → metrics → flight → audit order) and the
/// store/audit locks while writing a checkpoint — legal because no lock is
/// ever held by a thread blocking on this channel.
fn compactor_thread(
    shared: Arc<Shared>,
    rx: Receiver<CompactMsg>,
    depth: Arc<AtomicU64>,
    mut comp: Compactor,
    mut wal: Option<Wal>,
) {
    // Counter deltas published since the last look at `Wal::stats`.
    // Publishing takes the metrics lock, and on the append path that lock
    // handoff — not the append itself — is the dominant journaling cost
    // (each one is a cross-thread wake on a busy box). So appends publish
    // at a stride and barriers (flush, checkpoint, shutdown) force the
    // counters exact: after a `stats` flush the numbers are precise.
    const PUBLISH_STRIDE: u64 = 64;
    let mut published = WalStats::default();
    let mut publish = |wal: &Wal, force: bool| {
        if !shared.cfg.obs {
            return;
        }
        let now = *wal.stats();
        if !force && now.records_appended - published.records_appended < PUBLISH_STRIDE {
            return;
        }
        let mut m = shared.metrics.lock().expect("metrics lock");
        m.add(
            MetricKey::global(WAL_RECORDS_APPENDED),
            now.records_appended - published.records_appended,
        );
        m.add(
            MetricKey::global(WAL_BYTES),
            now.bytes_appended - published.bytes_appended,
        );
        m.add(
            MetricKey::global(WAL_SEGMENTS_RETIRED),
            now.segments_retired - published.segments_retired,
        );
        drop(m);
        published = now;
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            CompactMsg::Fold(batch, journal) => {
                let queued = depth.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                let ns = comp.absorb(batch);
                if shared.cfg.obs {
                    let mut m = shared.metrics.lock().expect("metrics lock");
                    m.add(MetricKey::global(STAGE_FOLD_NS), ns);
                    m.set(MetricKey::global(COMPACTOR_QUEUE_DEPTH), queued as f64);
                }
                if let (Some(w), Some((kind, payload))) = (wal.as_mut(), journal) {
                    match w.append(kind, &payload) {
                        Ok(_) => publish(w, false),
                        Err(e) => shared.wal_fault("wal_append", &e),
                    }
                    if w.wants_checkpoint() {
                        shared.ckpt_wanted.store(true, Ordering::SeqCst);
                    }
                }
            }
            CompactMsg::Journal(kind, payload) => {
                if let Some(w) = wal.as_mut() {
                    match w.append(kind, &payload) {
                        Ok(_) => publish(w, false),
                        Err(e) => shared.wal_fault("wal_append", &e),
                    }
                    if w.wants_checkpoint() {
                        shared.ckpt_wanted.store(true, Ordering::SeqCst);
                    }
                }
            }
            CompactMsg::Flush(ack) => {
                if let Some(w) = wal.as_mut() {
                    if let Err(e) = w.sync() {
                        shared.wal_fault("wal_sync", &e);
                    }
                    publish(w, true);
                }
                let _ = ack.send(());
            }
            CompactMsg::CheckpointMark(reply) => {
                let _ = reply.send(wal.as_ref().map_or(0, Wal::next_seq));
            }
            CompactMsg::Checkpoint { boundary } => {
                if let Some(w) = wal.as_mut() {
                    match write_checkpoint(&shared, &comp, w, boundary) {
                        Ok(()) => publish(w, true),
                        Err(e) => shared.wal_fault("wal_checkpoint", &e),
                    }
                    if w.wants_checkpoint() {
                        shared.ckpt_wanted.store(true, Ordering::SeqCst);
                    }
                }
            }
            CompactMsg::FlowHistory(key, reply) => {
                let _ = reply.send(comp.flow_history(&key));
            }
            CompactMsg::Tier(reply) => {
                let _ = reply.send((comp.epochs_held(), comp.buckets_held()));
            }
            CompactMsg::Shutdown => {
                if let Some(w) = wal.as_mut() {
                    if let Err(e) = w.sync() {
                        shared.wal_fault("wal_sync", &e);
                    }
                    publish(w, true);
                }
                break;
            }
        }
    }
}

/// Write one complete checkpoint at `boundary` and retire the raw
/// segments it covers. Caller (the compactor thread) guarantees every
/// record below `boundary` has been applied: the accept loop flushed the
/// shards between the mark and this message, and this channel is FIFO, so
/// the folds those appends staged all precede it too.
///
/// Records at/above `boundary` may or may not be inside the images
/// (sessions keep journaling while the checkpoint is marked); recovery
/// re-applies them all, which the store's dedup rules make idempotent.
fn write_checkpoint(
    shared: &Shared,
    comp: &Compactor,
    wal: &mut Wal,
    boundary: u64,
) -> io::Result<()> {
    wal.append(REC_CKPT_BEGIN, &boundary.to_le_bytes())?;
    // Lock order: stores (one at a time) → audit; the WAL is owned by
    // this thread, so appends under a store lock take no further lock.
    for store in &shared.stores {
        let mut images = Vec::new();
        {
            let store = store.lock().expect("store lock");
            for sw in store.switches() {
                if let Some(restore) = store.export_switch(sw) {
                    images.push(encode_switch_checkpoint(&SwitchCheckpoint {
                        restore,
                        buckets: comp.buckets_of(sw).into_iter().cloned().collect(),
                    }));
                }
            }
        }
        for payload in images {
            wal.append(REC_CKPT_SWITCH, &payload)?;
        }
    }
    let audit = {
        let audit = shared.audit.lock().expect("audit lock");
        AuditCheckpoint {
            next_seq: audit.total(),
            records: audit.records().cloned().collect(),
        }
    };
    wal.append(REC_CKPT_AUDIT, &encode_audit_checkpoint(&audit))?;
    wal.append(REC_CKPT_END, &[])?;
    // The checkpoint must be durable *before* the raw segments it replaces
    // are deleted — a torn checkpoint (no END on disk) must still find the
    // previous one's segments intact.
    wal.sync()?;
    wal.retire_below(boundary)?;
    Ok(())
}

/// State shared between sessions, shard workers and the daemon handle.
///
/// **Lock order invariant: store → engine → metrics → flight → audit.**
/// Any thread that holds one of these mutexes may only acquire mutexes
/// *later* in that order (stores count as one class; a thread never holds
/// two shard stores at once — `gather_snapshots` takes them one at a time
/// on the pool). The `Stats` handler used to acquire metrics → engine →
/// stores, the exact inversion of the ingest path — every accessor here
/// now takes each lock in canonical order and drops it before the next,
/// and `tests/lock_order.rs` hammers `Stats` against concurrent ingest to
/// keep it that way. The two observability rings sit at the end of the
/// order because they are leaf state: nothing is ever acquired while one
/// is held.
struct Shared {
    topo: Topology,
    cfg: ServeConfig,
    stores: Vec<Mutex<TelemetryStore>>,
    engine: Mutex<IncrementalProvenance>,
    metrics: Mutex<MetricsRegistry>,
    flight: Mutex<FlightRecorder>,
    audit: Mutex<AuditTrail>,
    /// Per-shard retention horizons as published by the shard workers
    /// after each ingest ([`TelemetryStore::retention_horizon`]);
    /// `u64::MAX` = the shard has no reporting switches yet and places no
    /// constraint on the fleet horizon.
    horizons: Vec<AtomicU64>,
    /// Per-shard freshest-data watermarks ([`TelemetryStore::min_watermark`],
    /// sim-time ns), published like `horizons`; `u64::MAX` = none yet.
    watermarks: Vec<AtomicU64>,
    /// Per-shard ingest-queue occupancy: incremented on enqueue
    /// (`route_ingest`), decremented when the shard worker dequeues.
    queue_depths: Vec<AtomicU64>,
    /// Handle to the compactor thread; `None` in unit-test `Shared`s built
    /// without daemon threads (their stores then fold inline).
    compactor: Option<CompactorHandle>,
    /// True when the daemon journals to a durable evidence log. Gates
    /// every journaling call site so a durability-off daemon's behaviour
    /// (and byte output) is identical to pre-WAL builds.
    durable: bool,
    /// Set by the compactor thread when enough segments have completed to
    /// warrant a checkpoint; the accept loop polls it and runs the
    /// mark → flush → checkpoint protocol.
    ckpt_wanted: AtomicBool,
}

/// The daemon's registry: the counters every serving role seeds, its own
/// engine and lag counters, and — only on a durable daemon, so a
/// durability-off `Stats` response stays byte-identical to pre-WAL
/// builds — the WAL counters.
fn daemon_registry(durable: bool) -> MetricsRegistry {
    let own = [
        INCREMENTAL_UPDATES,
        ENGINE_EPOCHS_RETIRED,
        WATERMARK_LAG_WARNS,
    ];
    let wal = [
        WAL_RECORDS_APPENDED,
        WAL_BYTES,
        WAL_SEGMENTS_RETIRED,
        RECOVERY_TRUNCATED,
    ];
    if durable {
        seeded_registry(&[own.as_slice(), wal.as_slice()].concat())
    } else {
        seeded_registry(&own)
    }
}

impl Shared {
    fn shard_of(&self, snap: &TelemetrySnapshot) -> usize {
        snap.switch.0 as usize % self.stores.len()
    }

    /// Hand one evidence record to the compactor thread for appending.
    /// Callers gate on [`Shared::durable`]; a full channel blocks (the
    /// same backpressure as a fold), and a gone compactor drops the
    /// record — matching what a dead daemon would lose anyway.
    fn journal(&self, kind: u8, payload: Vec<u8>) {
        if let Some(h) = &self.compactor {
            let _ = h.tx.send(CompactMsg::Journal(kind, payload));
        }
    }

    /// A WAL write failed (disk full, dir deleted, …). The daemon keeps
    /// serving — durability is degraded, not availability — and the fault
    /// lands in the flight ring where operators look first.
    fn wal_fault(&self, what: &'static str, e: &io::Error) {
        if self.cfg.obs {
            self.flight
                .lock()
                .expect("flight lock")
                .note(flight_kind::ERROR, what, e.to_string());
        }
    }

    /// The fleet retention horizon: the minimum of every reporting
    /// shard's published store horizon. [`Nanos::ZERO`] (retire nothing)
    /// until at least one shard has reported one.
    fn fleet_horizon(&self) -> Nanos {
        let min = self
            .horizons
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        if min == u64::MAX {
            Nanos::ZERO
        } else {
            Nanos(min)
        }
    }

    /// The freshest published shard watermark (sim-time ns); `None` until
    /// some shard has reported data.
    fn fleet_max_watermark(&self) -> Option<u64> {
        self.watermarks
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .filter(|&w| w != u64::MAX)
            .max()
    }

    /// How far (sim-time ns) `shard`'s data lags behind the freshest
    /// shard's. 0 until both ends have reported.
    fn watermark_lag(&self, shard: usize) -> u64 {
        let own = self.watermarks[shard].load(Ordering::Relaxed);
        if own == u64::MAX {
            return 0;
        }
        self.fleet_max_watermark()
            .map_or(0, |max| max.saturating_sub(own))
    }

    /// Raw-history span the daemon currently holds: fleet-max watermark
    /// minus the fleet retention horizon (sim-time ns).
    fn retention_lag(&self) -> u64 {
        self.fleet_max_watermark()
            .map_or(0, |max| max.saturating_sub(self.fleet_horizon().0))
    }

    /// All shards' canonical snapshots, gathered on the work-stealing pool
    /// and merged in switch-id order (each switch lives in exactly one
    /// shard, so this is a disjoint union).
    fn gather_snapshots(&self) -> Vec<TelemetrySnapshot> {
        let idx: Vec<usize> = (0..self.stores.len()).collect();
        let mut per_shard = par_map(self.cfg.gather_jobs, &idx, |&i| {
            self.stores[i].lock().expect("store lock").snapshots()
        });
        let mut all: Vec<TelemetrySnapshot> = per_shard.drain(..).flatten().collect();
        all.sort_unstable_by_key(|s| s.switch);
        all
    }

    fn diagnose(&self, p: &DiagnoseParams) -> Response {
        let snapshots = self.gather_snapshots();
        if snapshots.is_empty() {
            return Response::Error("no telemetry ingested".into());
        }
        let window = Window {
            from: p.from,
            to: p.to,
        };
        // Stage timing rides the analyzer's own recorder hooks; capacity 0
        // keeps the tracer empty (we only want the wall-clock profile).
        let mut rec = Recorder::new(ObsConfig {
            enabled: self.cfg.obs,
            capacity: 0,
            mask: 0,
        });
        let (mut report, _graph, _agg) = analyze_victim_window_obs(
            &p.victim,
            window,
            &snapshots,
            &self.topo,
            &self.cfg.analyzer,
            &mut rec,
        );
        report.note_missing(&p.missing);
        if self.cfg.obs {
            self.journal_verdict(p, &snapshots, &report, &rec);
        }
        Response::Diagnosis(report)
    }

    /// Deposit the verdict's provenance in the audit trail — which evidence
    /// was consulted, what engine state was pending, which signature row
    /// matched and where the wall-clock went. Lock order: engine → audit
    /// (gather already released the stores).
    fn journal_verdict(
        &self,
        p: &DiagnoseParams,
        snapshots: &[TelemetrySnapshot],
        report: &DiagnosisReport,
        rec: &Recorder,
    ) {
        let mut contributing_switches = Vec::new();
        let mut contributing_epochs = 0u64;
        for s in snapshots {
            let overlapping = s
                .epochs
                .iter()
                .filter(|e| e.start < p.to && e.end() > p.from)
                .count() as u64;
            if overlapping > 0 {
                contributing_switches.push(s.switch.0);
                contributing_epochs += overlapping;
            }
        }
        let (dirty_switches, frags_reused, frags_recomputed) = {
            let engine = self.engine.lock().expect("engine lock");
            let st = engine.stats();
            let dirty = engine
                .dirty_switches()
                .iter()
                .map(|n| n.0)
                .collect::<Vec<_>>();
            (dirty, st.frags_reused, st.frags_recomputed)
        };
        let mut root_causes: Vec<u32> = report
            .root_causes
            .iter()
            .map(|rc| match rc {
                RootCause::FlowContention { port, .. } => port.node.0,
                RootCause::HostPfcInjection { port, .. } => port.node.0,
            })
            .collect();
        root_causes.sort_unstable();
        root_causes.dedup();
        let mut record = ExplainRecord {
            seq: 0, // assigned by the trail
            victim: render_flow(&p.victim),
            window_from_ns: p.from.0,
            window_to_ns: p.to.0,
            anomaly: format!("{:?}", report.anomaly),
            signature_row: signature_row(report.anomaly).to_string(),
            confidence: confidence_label(&report.confidence).to_string(),
            root_causes,
            contributing_switches,
            contributing_epochs,
            dirty_switches,
            frags_reused,
            frags_recomputed,
            stage_collect_ns: rec.profile.wall_total_ns(Stage::TelemetryCollection),
            stage_graph_ns: rec.profile.wall_total_ns(Stage::GraphBuild),
            stage_match_ns: rec.profile.wall_total_ns(Stage::SignatureMatch),
        };
        // A durable daemon journals the verdict under its assigned seq so
        // recovery can rebuild the audit trail (its ring *and* counter).
        if self.durable {
            let seq = self.audit.lock().expect("audit lock").push(record.clone());
            record.seq = seq;
            if let Ok(js) = serde_json::to_string(&record) {
                self.journal(REC_VERDICT, js.into_bytes());
            }
        } else {
            self.audit.lock().expect("audit lock").push(record);
        }
    }

    /// The `Explain` request: a journaled verdict by seq, or the latest.
    fn explain(&self, seq: Option<u64>) -> Response {
        let audit = self.audit.lock().expect("audit lock");
        let rec = match seq {
            Some(s) => audit.get(s),
            None => audit.latest(),
        };
        match rec {
            Some(r) => Response::Explain(r.clone()),
            None => Response::Error(match seq {
                Some(s) => format!(
                    "verdict {s} is not in the audit ring ({} journaled, capacity {})",
                    audit.total(),
                    audit.capacity()
                ),
                None => "no verdicts journaled yet".into(),
            }),
        }
    }

    /// Barrier on the compactor thread: returns once every fold staged
    /// before this call is absorbed. No-op without a compactor thread.
    fn flush_compactor(&self) {
        if let Some(h) = &self.compactor {
            let (ack_tx, ack_rx) = sync_channel(1);
            if h.tx.send(CompactMsg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Where was this flow seen, across every shard and both retention
    /// tiers, in the store's canonical row order. Callers that need the
    /// folded tier up to date run `flush_compactor` first (the session
    /// does, after the shard barrier).
    fn flow_history(&self, key: &FlowKey) -> Response {
        let mut rows: Vec<FlowObservation> = Vec::new();
        for s in &self.stores {
            rows.extend(s.lock().expect("store lock").flow_history(key));
        }
        // Deferred mode: the stores' embedded tiers are empty and the
        // compactor thread owns the buckets.
        if let Some(h) = &self.compactor {
            let (reply_tx, reply_rx) = sync_channel(1);
            if h.tx.send(CompactMsg::FlowHistory(*key, reply_tx)).is_ok() {
                if let Ok(compacted) = reply_rx.recv() {
                    rows.extend(compacted);
                }
            }
        }
        rows.sort_unstable_by_key(|o| (o.from, o.to, o.switch, o.fidelity, o.out_port));
        Response::History(rows)
    }

    /// Compacted-tier occupancy: (epochs summed in buckets, bucket count),
    /// from the compactor thread in deferred mode, from the stores' own
    /// tiers otherwise.
    fn compacted_tier(&self) -> (u64, usize) {
        if let Some(h) = &self.compactor {
            let (reply_tx, reply_rx) = sync_channel(1);
            if h.tx.send(CompactMsg::Tier(reply_tx)).is_ok() {
                if let Ok(t) = reply_rx.recv() {
                    return t;
                }
            }
            return (0, 0);
        }
        let mut epochs = 0u64;
        let mut buckets = 0usize;
        for s in &self.stores {
            let s = s.lock().expect("store lock");
            epochs += s.compacted_epochs_held();
            buckets += s.compacted_buckets_held();
        }
        (epochs, buckets)
    }

    fn stats(&self) -> Response {
        // Lock order: store → engine → metrics (see the `Shared` docs);
        // each lock is released before the next class is taken.
        let mut store_snapshots = 0u64;
        let mut store_epochs = 0usize;
        let mut store_switches = 0usize;
        for s in &self.stores {
            let s = s.lock().expect("store lock");
            store_snapshots += s.stats().snapshots_appended;
            store_epochs += s.epochs_held();
            store_switches += s.switches().len();
        }
        // Settle the folded tier before reading it, so Stats reflects
        // every fold staged by appends that happened before this request.
        self.flush_compactor();
        let (store_compacted_epochs, store_compacted_buckets) = self.compacted_tier();
        let (estats, engine_epochs, engine_horizon, engine_fragments, engine_nodes) = {
            let mut engine = self.engine.lock().expect("engine lock");
            // Refresh so node/fragment counts reflect retirement, not the
            // last diagnosis — Stats is the bounded-memory observability
            // surface.
            engine.refresh(&self.topo);
            (
                *engine.stats(),
                engine.epochs_held(),
                engine.horizon(),
                engine.fragments_held(),
                engine.node_count(),
            )
        };
        let mut fields = counter_fields(&self.metrics);
        fields.push((
            "store_snapshots_appended".into(),
            serde::Value::UInt(store_snapshots),
        ));
        fields.push((
            "store_epochs_held".into(),
            serde::Value::UInt(store_epochs as u64),
        ));
        fields.push((
            "store_switches".into(),
            serde::Value::UInt(store_switches as u64),
        ));
        fields.push((
            "store_epochs_compacted_held".into(),
            serde::Value::UInt(store_compacted_epochs),
        ));
        fields.push((
            "store_compacted_buckets".into(),
            serde::Value::UInt(store_compacted_buckets as u64),
        ));
        fields.push((
            "store_retention_horizon".into(),
            serde::Value::UInt(self.fleet_horizon().0),
        ));
        fields.push((
            "engine_snapshots_applied".into(),
            serde::Value::UInt(estats.snapshots_applied),
        ));
        fields.push((
            "engine_frags_recomputed".into(),
            serde::Value::UInt(estats.frags_recomputed),
        ));
        fields.push((
            "engine_frags_reused".into(),
            serde::Value::UInt(estats.frags_reused),
        ));
        fields.push((
            "engine_epochs_held".into(),
            serde::Value::UInt(engine_epochs as u64),
        ));
        fields.push((
            // Horizon-driven + ring-budget retirement combined; the
            // `engine_epochs_retired` counter above is horizon-driven only.
            "engine_epochs_retired_total".into(),
            serde::Value::UInt(estats.epochs_retired),
        ));
        fields.push((
            "engine_horizon".into(),
            serde::Value::UInt(engine_horizon.0),
        ));
        fields.push((
            "engine_fragments".into(),
            serde::Value::UInt(engine_fragments as u64),
        ));
        fields.push((
            "engine_nodes".into(),
            serde::Value::UInt(engine_nodes as u64),
        ));
        Response::Stats(serde::Value::Object(fields))
    }
}

/// `src:sport->dst`, the audit trail's victim rendering.
fn render_flow(key: &FlowKey) -> String {
    format!("{}:{}->{}", key.src.0, key.src_port, key.dst.0)
}

/// Stable slug for the Table-2 signature row a verdict matched.
fn signature_row(a: AnomalyType) -> &'static str {
    match a {
        AnomalyType::MicroBurstIncast => "microburst_incast",
        AnomalyType::PfcStorm => "pfc_storm",
        AnomalyType::InLoopDeadlock => "in_loop_deadlock",
        AnomalyType::OutOfLoopDeadlockContention => "out_of_loop_deadlock_contention",
        AnomalyType::OutOfLoopDeadlockInjection => "out_of_loop_deadlock_injection",
        AnomalyType::NormalContention => "normal_contention",
        AnomalyType::NoAnomaly => "none",
    }
}

fn confidence_label(c: &Confidence) -> &'static str {
    match c {
        Confidence::Complete => "complete",
        Confidence::Degraded { .. } => "degraded",
        Confidence::Inconclusive { .. } => "inconclusive",
    }
}

fn shard_worker(shared: Arc<Shared>, shard: usize, rx: Receiver<ShardMsg>) {
    // Fleet horizon this worker last pushed into the engine. The engine's
    // `retire_before` early-exits on a stale horizon anyway, but comparing
    // here keeps the no-op case out of the engine critical section — most
    // snapshots don't move the fleet-min horizon at all.
    let mut last_fleet = Nanos::ZERO;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Ingest(snap, journal) => {
                // Lock order: store → engine → metrics → flight (see
                // `Shared`), each dropped before the next is taken.
                let obs = shared.cfg.obs;
                if shared.cfg.ingest_delay_ns > 0 {
                    // The deliberately-slow-shard knob: backpressure tests
                    // and the frames/sec bench throttle the consumer here.
                    thread::sleep(Duration::from_nanos(shared.cfg.ingest_delay_ns));
                }
                let depth = shared.queue_depths[shard]
                    .fetch_sub(1, Ordering::Relaxed)
                    .saturating_sub(1);
                let epochs = snap.epochs.len() as u64;
                let (horizon, watermark, d_append, d_fold, staged) = {
                    let mut store = shared.stores[shard].lock().expect("store lock");
                    let before = {
                        let st = store.stats();
                        (st.append_ns, st.fold_ns)
                    };
                    store.append(&snap);
                    let st = store.stats();
                    (
                        store.retention_horizon(),
                        store.min_watermark(),
                        st.append_ns - before.0,
                        st.fold_ns - before.1,
                        store.take_pending_folds(),
                    )
                };
                // Hand ring-evicted epochs — and the piggybacked journal
                // record, if the snapshot carried one — to the compactor
                // thread after the store lock is released: the fold and
                // the append leave the ingest hot path entirely. A full
                // compactor channel blocks here, which is the intended
                // backpressure, not a failure.
                if !staged.is_empty() || journal.is_some() {
                    if let Some(h) = &shared.compactor {
                        h.depth.fetch_add(1, Ordering::Relaxed);
                        if h.tx.send(CompactMsg::Fold(staged, journal)).is_err() {
                            h.depth.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
                shared.horizons[shard].store(horizon.map_or(u64::MAX, |h| h.0), Ordering::Relaxed);
                shared.watermarks[shard]
                    .store(watermark.map_or(u64::MAX, |w| w.0), Ordering::Relaxed);
                let fleet = shared.fleet_horizon();
                let advance = fleet > last_fleet;
                let (changed, retired, apply_ns, retire_ns) = {
                    let mut engine = shared.engine.lock().expect("engine lock");
                    let t = obs.then(Instant::now);
                    let changed = engine.apply(&snap);
                    let apply_ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    let t = obs.then(Instant::now);
                    // Retire engine state the stores no longer back with
                    // raw epochs — the fix that keeps a long-running
                    // daemon's wait-for graph bounded. Skipped whenever
                    // this worker already published `fleet` (another
                    // worker may beat us to it; the engine's own horizon
                    // check makes that race a cheap no-op).
                    let retired = if advance {
                        engine.retire_before(fleet)
                    } else {
                        0
                    };
                    let retire_ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    (changed, retired, apply_ns, retire_ns)
                };
                if advance {
                    last_fleet = fleet;
                }
                let lag = if obs { shared.watermark_lag(shard) } else { 0 };
                let mut m = shared.metrics.lock().expect("metrics lock");
                m.add(MetricKey::global(EPOCHS_INGESTED), epochs);
                if changed {
                    m.inc(MetricKey::global(INCREMENTAL_UPDATES));
                }
                if retired > 0 {
                    m.add(MetricKey::global(ENGINE_EPOCHS_RETIRED), retired);
                }
                if obs {
                    // Stage split: where does the ingest path spend its
                    // wall-clock — ring admission, compaction fold, engine
                    // apply, or horizon retirement.
                    m.add(MetricKey::global(STAGE_APPEND_NS), d_append);
                    m.add(MetricKey::global(STAGE_FOLD_NS), d_fold);
                    m.add(MetricKey::global(STAGE_ENGINE_APPLY_NS), apply_ns);
                    m.add(MetricKey::global(STAGE_RETIRE_NS), retire_ns);
                    m.set(
                        MetricKey::at_switch(SHARD_QUEUE_DEPTH, shard as u32),
                        depth as f64,
                    );
                    m.set(
                        MetricKey::at_switch(SHARD_WATERMARK_LAG_NS, shard as u32),
                        lag as f64,
                    );
                    m.set(
                        MetricKey::global(RETENTION_LAG_NS),
                        shared.retention_lag() as f64,
                    );
                    let warn = lag >= shared.cfg.lag_warn_ns;
                    if warn {
                        m.inc(MetricKey::global(WATERMARK_LAG_WARNS));
                    }
                    drop(m);
                    if warn {
                        shared.flight.lock().expect("flight lock").warn(
                            "watermark_lag",
                            format!("shard {shard} is {lag}ns behind the fleet watermark"),
                        );
                    }
                }
            }
            ShardMsg::Flush(ack) => {
                // Queue order means everything before the barrier is done.
                let _ = ack.send(());
            }
        }
    }
}

/// Route one snapshot to its shard's bounded queue: `Ok(true)` queued,
/// `Ok(false)` shed, `Err` a request error.
///
/// Under [`OverloadPolicy::Backpressure`] (the default) a full queue
/// *blocks* until the shard drains — the session slows down, the client's
/// credit window empties, and the slow shard's pace propagates all the way
/// back to the producer with zero loss. Under [`OverloadPolicy::Shed`] a
/// full queue sheds the snapshot — counted, never unboundedly buffered;
/// the client's own collector still holds the telemetry, so a shed shows
/// up as degraded confidence, not lost correctness.
///
/// Either way, a *disconnected* shard (worker thread gone) is a request
/// error — a dead consumer is a fault, never accounted as backpressure
/// shedding.
fn route_ingest(
    shared: &Shared,
    txs: &[SyncSender<ShardMsg>],
    snap: TelemetrySnapshot,
    journal: Option<JournalRecord>,
) -> Result<bool, String> {
    // Shard-ownership gate, ahead of everything: an out-of-range switch is
    // a routing fault (stale or mis-cut shard map at the sender), answered
    // with the typed `wrong_shard:` error. The early return means the
    // journal record is dropped with the snapshot — a sharded durable
    // daemon's evidence log never holds epochs it refused.
    if let Some(range) = shared.cfg.shard_range {
        if !range.contains(snap.switch) {
            shared
                .metrics
                .lock()
                .expect("metrics lock")
                .inc(MetricKey::global(INGEST_WRONG_SHARD));
            if shared.cfg.obs {
                shared.flight.lock().expect("flight lock").warn(
                    "ingest_wrong_shard",
                    format!("switch {} outside owned range {range}", snap.switch.0),
                );
            }
            return Err(format!(
                "{WRONG_SHARD_PREFIX} switch {} outside owned range {range}",
                snap.switch.0
            ));
        }
    }
    let shard = shared.shard_of(&snap);
    // The journal record rides the shard message, so a shed drops it with
    // the snapshot and the log never holds evidence the daemon shed.
    let msg = ShardMsg::Ingest(snap, journal);
    let queued = match shared.cfg.overload {
        OverloadPolicy::Backpressure => txs[shard]
            .send(msg)
            .map_err(|e| TrySendError::Disconnected(e.0)),
        OverloadPolicy::Shed => txs[shard].try_send(msg),
    };
    match queued {
        Ok(()) => {
            shared.queue_depths[shard].fetch_add(1, Ordering::Relaxed);
            Ok(true)
        }
        Err(TrySendError::Full(_)) => {
            shared
                .metrics
                .lock()
                .expect("metrics lock")
                .inc(MetricKey::global(INGEST_SHED));
            if shared.cfg.obs {
                shared
                    .flight
                    .lock()
                    .expect("flight lock")
                    .warn("ingest_shed", format!("shard {shard} queue full"));
            }
            Ok(false)
        }
        Err(TrySendError::Disconnected(_)) => Err("shard worker gone".into()),
    }
}

/// Route one `IngestBatch` frame: every snapshot goes through
/// [`route_ingest`] individually (per-switch sharding still applies), and
/// one `BatchAck` settles the whole frame, returning its credits. A dead
/// shard fails the batch with an error — partial delivery is reported
/// only for sheds, which the client can count, not for faults.
fn route_batch(
    shared: &Shared,
    txs: &[SyncSender<ShardMsg>],
    snaps: Vec<TelemetrySnapshot>,
    wire: Option<Vec<u8>>,
) -> Response {
    let n = snaps.len() as u32;
    let mut accepted = 0u32;
    let mut shed = 0u32;
    // A durable daemon journals canonical byte forms. Under Backpressure
    // nothing sheds, so the whole frame journals as one batch record — the
    // received frame body, never a re-encode (the codec is deterministic,
    // so the frame bytes ARE the canonical form; checked in debug builds)
    // — attached to the frame's last snapshot. Under Shed each snapshot
    // carries its own record, so a shed drops the record with the
    // snapshot and the log holds exactly what the daemon kept, no more.
    debug_assert!(
        wire.as_ref().is_none_or(|w| *w == encode_batch(&snaps)),
        "journaled wire bytes diverge from the canonical batch encoding"
    );
    let per_snapshot = shared.cfg.overload == OverloadPolicy::Shed;
    let mut batch_payload = wire;
    let last = snaps.len().saturating_sub(1);
    for (i, snap) in snaps.into_iter().enumerate() {
        let journal = if per_snapshot {
            batch_payload
                .is_some()
                .then(|| (REC_SNAPSHOT, encode_snapshot(&snap)))
        } else if i == last {
            batch_payload.take().map(|w| (REC_BATCH, w))
        } else {
            None
        };
        match route_ingest(shared, txs, snap, journal) {
            Ok(true) => accepted += 1,
            Ok(false) => shed += 1,
            Err(msg) => return Response::Error(msg),
        }
    }
    if shared.cfg.obs {
        let mut m = shared.metrics.lock().expect("metrics lock");
        m.inc(MetricKey::global(INGEST_BATCHES));
        m.set(MetricKey::global(CREDITS_OUTSTANDING), f64::from(n));
    }
    Response::BatchAck {
        accepted,
        shed,
        granted: n,
    }
}

/// Barrier: drain every shard queue so the caller's next read sees all
/// telemetry acknowledged before this point.
fn flush_shards(txs: &[SyncSender<ShardMsg>]) {
    let (ack_tx, ack_rx) = sync_channel(txs.len());
    let mut pending = 0;
    for tx in txs {
        if tx.send(ShardMsg::Flush(ack_tx.clone())).is_ok() {
            pending += 1;
        }
    }
    for _ in 0..pending {
        let _ = ack_rx.recv();
    }
}

/// The daemon's request handler: the shared state, the shard queue
/// senders and the threads behind them. Dropping it tears the daemon
/// down.
struct Daemon {
    shared: Arc<Shared>,
    txs: Vec<SyncSender<ShardMsg>>,
    workers: Vec<thread::JoinHandle<()>>,
    compactor_join: Option<thread::JoinHandle<()>>,
}

impl Drop for Daemon {
    /// Close the shard queues so every worker's `recv()` fails and the
    /// workers exit. Only after every worker is gone (no fold can still
    /// be sent) is the compactor told to exit; FIFO ordering means it
    /// absorbs everything staged before the shutdown message.
    fn drop(&mut self) {
        self.txs.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(h) = &self.shared.compactor {
            let _ = h.tx.send(CompactMsg::Shutdown);
        }
        if let Some(j) = self.compactor_join.take() {
            let _ = j.join();
        }
    }
}

impl Handler for Daemon {
    fn handle(&self, req: Request, body: &mut Vec<u8>) -> Response {
        let (shared, txs) = (&*self.shared, self.txs.as_slice());
        match req {
            Request::IngestBatch(snaps) => {
                // A durable daemon journals the frame body verbatim; take
                // it now that decoding is done with the borrow.
                let wire = shared.durable.then(|| std::mem::take(body));
                route_batch(shared, txs, snaps, wire)
            }
            Request::Fragments => {
                // The cross-shard gather primitive: flush so the fragment
                // set covers everything acknowledged before this point,
                // then ship the canonical per-switch snapshots — the same
                // store state a local Diagnose would analyze.
                flush_shards(txs);
                Response::Fragments(shared.gather_snapshots())
            }
            Request::Diagnose(p) => {
                flush_shards(txs);
                shared.diagnose(&p)
            }
            Request::FlowHistory(key) => {
                // Two barriers: shards first (their appends stage the
                // folds), then the compactor (absorb what they staged) —
                // the query then sees a consistent dual-tier view.
                flush_shards(txs);
                shared.flush_compactor();
                shared.flow_history(&key)
            }
            Request::Stats => shared.stats(),
            Request::Explain(seq) => shared.explain(seq),
            other => Response::Error(format!("unexpected request {other:?}")),
        }
    }

    /// Durable checkpoint protocol, driven from the accept thread because
    /// only it may run the shard-flush barrier while the compactor is
    /// busy: (1) mark — the compactor replies with its next seq; (2) flush
    /// the shards, so everything journaled below the mark is applied; (3)
    /// tell the compactor to write the checkpoint and retire segments.
    fn tick(&self) {
        if !self.shared.ckpt_wanted.swap(false, Ordering::SeqCst) {
            return;
        }
        if let Some(h) = &self.shared.compactor {
            let (mark_tx, mark_rx) = sync_channel(1);
            if h.tx.send(CompactMsg::CheckpointMark(mark_tx)).is_ok() {
                if let Ok(boundary) = mark_rx.recv() {
                    flush_shards(&self.txs);
                    let _ = h.tx.send(CompactMsg::Checkpoint { boundary });
                }
            }
        }
    }

    fn metrics(&self) -> &Mutex<MetricsRegistry> {
        &self.shared.metrics
    }

    fn flight(&self) -> &Mutex<FlightRecorder> {
        &self.shared.flight
    }
}

/// A running daemon; dropping the handle does NOT stop it — call
/// [`DaemonHandle::shutdown`].
pub struct DaemonHandle {
    shared: Arc<Shared>,
    server: FrameServer,
    /// Bound TCP address when listening on TCP (for port-0 binds).
    pub local_addr: Option<std::net::SocketAddr>,
    /// What startup recovery found in the durable directory; `None` on a
    /// durability-off daemon.
    pub recovery: Option<RecoveryReport>,
}

impl DaemonHandle {
    /// Signal stop and join every daemon thread.
    pub fn shutdown(mut self) {
        self.server.stop();
        self.server.join();
    }

    /// Block until a `Shutdown` request stops the daemon, then join every
    /// thread — the foreground `hawkeye serve` mode.
    pub fn wait(mut self) {
        self.server.join();
    }

    /// True once a `Shutdown` request (or `shutdown()`) stopped the daemon.
    pub fn is_stopped(&self) -> bool {
        self.server.is_stopped()
    }

    /// Point-in-time copy of the daemon's metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.lock().expect("metrics lock").snapshot()
    }

    /// Point-in-time dump of the flight-recorder ring (the `Metrics`
    /// request's `flight` field).
    pub fn flight(&self) -> serde::Value {
        self.shared.flight.lock().expect("flight lock").to_value()
    }

    /// The most recent verdict's audit-trail record, if any.
    pub fn latest_explain(&self) -> Option<ExplainRecord> {
        self.shared
            .audit
            .lock()
            .expect("audit lock")
            .latest()
            .cloned()
    }
}

/// Start the daemon on `endpoint`. Returns once the listener is bound and
/// accepting; serving continues on background threads until a `Shutdown`
/// request arrives or [`DaemonHandle::shutdown`] is called.
pub fn spawn(topo: Topology, cfg: ServeConfig, endpoint: Endpoint) -> io::Result<DaemonHandle> {
    spawn_durable(topo, cfg, endpoint, None)
}

/// [`spawn`], with an optional durable evidence log. With `Some(wal_cfg)`
/// the daemon first recovers whatever a previous incarnation journaled
/// into that directory — scan, CRC-verify, truncate the torn suffix,
/// restore the last complete checkpoint, replay the tail — and only then
/// binds the listener, so a client that can connect always sees the
/// recovered state. Every accepted epoch and emitted verdict is journaled
/// from the compactor thread; the ingest hot path is untouched.
pub fn spawn_durable(
    topo: Topology,
    cfg: ServeConfig,
    endpoint: Endpoint,
    wal_cfg: Option<WalConfig>,
) -> io::Result<DaemonHandle> {
    let shards = cfg.shards.max(1);
    // The daemon always folds off-thread: shard stores stage ring-evicted
    // epochs and the compactor thread owns the folded tier. Inline mode
    // remains the standalone-store default only.
    let mut cfg = cfg;
    cfg.store.deferred_fold = true;

    // Recover before binding: replay the evidence log into the shard
    // stores, the folded tier and the audit trail.
    let mut stores: Vec<TelemetryStore> = (0..shards)
        .map(|_| TelemetryStore::new(cfg.store))
        .collect();
    let mut comp = Compactor::new(cfg.store);
    let mut audit = AuditTrail::new(cfg.audit_capacity);
    let (wal, recovery) = match &wal_cfg {
        Some(wcfg) => {
            let (wal, report) = recover_and_open(wcfg, &mut stores, &mut comp, &mut audit)?;
            (Some(wal), Some(report))
        }
        None => (None, None),
    };
    let durable = wal.is_some();

    // The engine's own ring budget is a per-switch safety backstop at
    // 2x the store's; primary retention is the store-driven horizon
    // (`retire_before` after each ingest), so give it the headroom to
    // actually be the thing that fires.
    let mut engine =
        IncrementalProvenance::new(cfg.replay, cfg.store.epoch_budget.saturating_mul(2));
    if recovery.is_some() {
        // Rebuild the wait-for graph from the recovered canonical rings —
        // the engine is derived state, so it is never checkpointed — and
        // retire it behind the recovered fleet horizon, exactly as the
        // ingest path would have.
        for store in &stores {
            for snap in store.snapshots() {
                engine.apply(&snap);
            }
        }
        if let Some(fleet) = stores.iter().filter_map(|s| s.retention_horizon()).min() {
            engine.retire_before(fleet);
        }
    }
    let mut metrics = daemon_registry(durable);
    if let Some(rep) = &recovery {
        metrics.add(MetricKey::global(RECOVERY_TRUNCATED), rep.truncated_records);
    }
    let horizons_init: Vec<u64> = stores
        .iter()
        .map(|s| s.retention_horizon().map_or(u64::MAX, |h| h.0))
        .collect();
    let watermarks_init: Vec<u64> = stores
        .iter()
        .map(|s| s.min_watermark().map_or(u64::MAX, |w| w.0))
        .collect();

    let listener = Listener::bind(&endpoint)?;
    let local_addr = listener.local_addr()?;

    let (compact_tx, compact_rx) = sync_channel(COMPACT_QUEUE_DEPTH);
    let compact_depth = Arc::new(AtomicU64::new(0));
    let shared = Arc::new(Shared {
        topo,
        cfg,
        stores: stores.into_iter().map(Mutex::new).collect(),
        engine: Mutex::new(engine),
        metrics: Mutex::new(metrics),
        flight: Mutex::new(FlightRecorder::new(cfg.flight_capacity)),
        audit: Mutex::new(audit),
        horizons: horizons_init.into_iter().map(AtomicU64::new).collect(),
        watermarks: watermarks_init.into_iter().map(AtomicU64::new).collect(),
        queue_depths: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        compactor: Some(CompactorHandle {
            tx: compact_tx,
            depth: Arc::clone(&compact_depth),
        }),
        durable,
        ckpt_wanted: AtomicBool::new(false),
    });

    let compactor_join = {
        let sh = Arc::clone(&shared);
        thread::Builder::new()
            .name("hawkeye-compactor".into())
            .spawn(move || compactor_thread(sh, compact_rx, compact_depth, comp, wal))
            .expect("spawn compactor thread")
    };

    let mut txs = Vec::with_capacity(shards);
    let mut workers = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
        txs.push(tx);
        let sh = Arc::clone(&shared);
        workers.push(
            thread::Builder::new()
                .name(format!("hawkeye-shard-{shard}"))
                .spawn(move || shard_worker(sh, shard, rx))
                .expect("spawn shard worker"),
        );
    }

    let policy = SessionPolicy {
        name: "hawkeye",
        credits: cfg.session_credits,
        map_epoch: cfg.shard_range.map(|r| r.epoch),
        obs: cfg.obs,
        slow_op_ns: cfg.slow_op_ns,
    };
    let handler = Arc::new(Daemon {
        shared: Arc::clone(&shared),
        txs,
        workers,
        compactor_join: Some(compactor_join),
    });
    let server = FrameServer::start(listener, policy, handler);

    Ok(DaemonHandle {
        shared,
        server,
        local_addr,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_obs::names::SLOW_OPS;
    use hawkeye_sim::{chain, NodeId, EVAL_BANDWIDTH, EVAL_DELAY};

    fn test_shared(shards: usize) -> Shared {
        // The shed tests exercise the try_send path, so the unit-test
        // Shared opts into the explicit Shed escape hatch (the daemon
        // default is Backpressure, which never sheds — it blocks).
        test_shared_with(shards, OverloadPolicy::Shed)
    }

    fn test_shared_with(shards: usize, overload: OverloadPolicy) -> Shared {
        let topo = chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let cfg = ServeConfig {
            shards,
            overload,
            ..ServeConfig::default()
        };
        Shared {
            topo,
            cfg,
            stores: (0..shards)
                .map(|_| Mutex::new(TelemetryStore::new(cfg.store)))
                .collect(),
            engine: Mutex::new(IncrementalProvenance::new(
                cfg.replay,
                cfg.store.epoch_budget.saturating_mul(2),
            )),
            metrics: Mutex::new(daemon_registry(false)),
            flight: Mutex::new(FlightRecorder::new(cfg.flight_capacity)),
            audit: Mutex::new(AuditTrail::new(cfg.audit_capacity)),
            horizons: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            watermarks: (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            queue_depths: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            compactor: None,
            durable: false,
            ckpt_wanted: AtomicBool::new(false),
        }
    }

    fn snap(switch: u32) -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(switch),
            taken_at: Nanos(1),
            nports: 2,
            max_flows: 8,
            epochs: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// A dead shard (worker gone) fails a whole batch with an error —
    /// never a panic, never a BatchAck that silently lost snapshots — and
    /// never counts as an `ingest_shed`: a dead consumer is a fault, not
    /// backpressure.
    #[test]
    fn disconnected_shard_fails_batch() {
        for overload in [OverloadPolicy::Shed, OverloadPolicy::Backpressure] {
            let shared = test_shared_with(1, overload);
            let (tx, rx) = sync_channel(4);
            drop(rx);
            let resp = route_batch(&shared, &[tx], vec![snap(0), snap(0)], None);
            assert!(matches!(resp, Response::Error(_)), "{overload:?}: {resp:?}");
            let shed = shared.metrics.lock().unwrap().counter_total(INGEST_SHED);
            assert_eq!(shed, 0, "{overload:?}: dead shard counted as ingest_shed");
        }
    }

    /// Under the Shed policy a full shard queue sheds (counted) instead of
    /// blocking or buffering unboundedly; the batch reports per-snapshot
    /// outcomes and returns all of its credits, shed ones included, so
    /// the client's window never leaks.
    #[test]
    fn batch_reports_accepted_and_shed() {
        let shared = test_shared(1);
        // Room for 2 of the 3 snapshots; no worker drains.
        let (tx, _rx) = sync_channel(2);
        let resp = route_batch(&shared, &[tx], vec![snap(0), snap(0), snap(0)], None);
        assert_eq!(
            resp,
            Response::BatchAck {
                accepted: 2,
                shed: 1,
                granted: 3
            }
        );
        assert_eq!(shared.metrics.lock().unwrap().counter_total(INGEST_SHED), 1);
    }

    /// Regression for the hardcoded counter list `Stats` used to carry:
    /// every counter registered in the metrics registry — well-known or
    /// not — must appear in the Stats response.
    #[test]
    fn stats_reports_every_registered_counter() {
        let shared = test_shared(1);
        shared
            .metrics
            .lock()
            .unwrap()
            .add(MetricKey::global("custom_counter"), 7);
        let resp = shared.stats();
        let Response::Stats(v) = resp else {
            panic!("stats returned {resp:?}");
        };
        let names = shared.metrics.lock().unwrap().counter_names();
        for name in names {
            assert!(
                v.get(name).is_some(),
                "registered counter {name} missing from Stats"
            );
        }
        // The seeded well-known set is present even though nothing fired.
        assert_eq!(v.get(INGEST_SHED).unwrap().as_u64(), Some(0));
        assert_eq!(v.get(SLOW_OPS).unwrap().as_u64(), Some(0));
        assert_eq!(v.get("custom_counter").unwrap().as_u64(), Some(7));
    }

    /// A shed ingest leaves a WARNING in the flight ring (and nothing else
    /// does on the fault-free path).
    #[test]
    fn shed_records_flight_warning() {
        let shared = test_shared(1);
        let (tx, _rx) = sync_channel(1);
        let txs = vec![tx];
        assert_eq!(route_ingest(&shared, &txs, snap(0), None), Ok(true));
        assert!(shared.flight.lock().unwrap().is_empty());
        assert_eq!(route_ingest(&shared, &txs, snap(0), None), Ok(false));
        let flight = shared.flight.lock().unwrap();
        assert_eq!(flight.warnings(), 1);
        let ev = flight.events().next().unwrap();
        assert_eq!(ev.what, "ingest_shed");
    }

    /// Explain on an empty audit trail is an error, not a panic; a pushed
    /// record is served both as latest and by seq.
    #[test]
    fn explain_empty_then_by_seq() {
        let shared = test_shared(1);
        assert!(matches!(shared.explain(None), Response::Error(_)));
        assert!(matches!(shared.explain(Some(0)), Response::Error(_)));
        let rec = ExplainRecord {
            seq: 0,
            victim: "0:7->5".into(),
            window_from_ns: 0,
            window_to_ns: 100,
            anomaly: "NoAnomaly".into(),
            signature_row: "none".into(),
            confidence: "complete".into(),
            root_causes: vec![],
            contributing_switches: vec![],
            contributing_epochs: 0,
            dirty_switches: vec![],
            frags_reused: 0,
            frags_recomputed: 0,
            stage_collect_ns: 0,
            stage_graph_ns: 0,
            stage_match_ns: 0,
        };
        shared.audit.lock().unwrap().push(rec.clone());
        let Response::Explain(latest) = shared.explain(None) else {
            panic!("explain(None) failed after push");
        };
        assert_eq!(latest, rec);
        assert!(matches!(shared.explain(Some(0)), Response::Explain(_)));
        assert!(matches!(shared.explain(Some(1)), Response::Error(_)));
    }

    /// A snapshot for a switch outside the daemon's range is refused with
    /// the typed `wrong_shard:` error before it is queued (or journaled)
    /// — never stored, never counted as a shed — and fails its batch,
    /// while in-range ingest is untouched.
    #[test]
    fn out_of_range_snapshot_fails_batch_typed() {
        for overload in [OverloadPolicy::Shed, OverloadPolicy::Backpressure] {
            let mut shared = test_shared_with(1, overload);
            shared.cfg.shard_range = Some(ShardRange {
                lo: 0,
                hi: 2,
                epoch: 1,
            });
            let (tx, _rx) = sync_channel(8);
            let txs = vec![tx];
            let resp = route_batch(&shared, &txs, vec![snap(1)], None);
            assert!(matches!(resp, Response::BatchAck { accepted: 1, .. }));
            let resp = route_batch(&shared, &txs, vec![snap(1), snap(2)], None);
            let Response::Error(msg) = resp else {
                panic!("{overload:?}: out-of-range ingest answered {resp:?}");
            };
            assert!(
                msg.starts_with(WRONG_SHARD_PREFIX),
                "{overload:?}: rejection '{msg}' not typed wrong_shard"
            );
            let m = shared.metrics.lock().unwrap();
            assert_eq!(m.counter_total(INGEST_WRONG_SHARD), 1);
            assert_eq!(m.counter_total(INGEST_SHED), 0, "rejection is not a shed");
        }
    }

    /// Sharding is stable per switch and spreads across the store set.
    #[test]
    fn shard_of_is_switch_stable() {
        let shared = test_shared(4);
        for sw in 0..16u32 {
            let a = shared.shard_of(&snap(sw));
            let b = shared.shard_of(&snap(sw));
            assert_eq!(a, b);
            assert!(a < 4);
        }
        assert_ne!(shared.shard_of(&snap(0)), shared.shard_of(&snap(1)));
    }
}
