//! `hawkeye front` — the stateless routing front-end of a sharded fleet.
//!
//! A front-end runs the same [`FrameServer`] as a shard daemon, with its
//! own request handler, so every existing client (the CLI's replay modes,
//! `serve-stats`, the streaming sink) points at it unchanged. It holds no
//! telemetry itself:
//!
//! * **Ingest** (`IngestBatch`) is split by switch id through the
//!   [`ShardMap`] and forwarded to the owning daemons, over one long-lived
//!   ingest [`ServeClient`] per backend — each backend's credit window
//!   applies independently, so one slow shard backpressures only its own
//!   traffic. The front acks a frame once its owners have, so the ack
//!   carries their exact accepted/shed counts, and every query after the
//!   ack (on a second, query connection per backend) sees the frame.
//! * **Diagnose** fans a `Fragments` gather out to every shard, merges the
//!   per-switch snapshot sets with [`merge_fragment_sets`] (positionally
//!   identical to a monolithic daemon's gather), and runs the same
//!   analyzer the daemon runs — the merged graph, and therefore the
//!   verdict, is byte-for-byte what one big daemon would have produced.
//! * **A dead shard degrades, never fails**: its owned switches are
//!   reported as missing telemetry, so the verdict comes back with
//!   `Confidence::Degraded` naming exactly what wasn't consulted.
//!
//! A front-end routing under a stale map generation is refused by the
//! daemons themselves (typed `wrong_shard` on `Hello` — see the client
//! crate), and the front passes that typed error through to its own
//! caller rather than laundering it into a generic failure.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use hawkeye_client::proto::WRONG_SHARD_PREFIX;
use hawkeye_client::{DiagnoseParams, ProtoError, Request, Response, RetryConfig, ServeClient};
use hawkeye_core::{analyze_victim_window, merge_fragment_sets, AnalyzerConfig, Window};
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    EPOCHS_INGESTED, FRONT_BACKENDS_DOWN, FRONT_SHED_DOWN, INGEST_BATCHES, INGEST_SHED,
    INGEST_WRONG_SHARD,
};
use hawkeye_obs::{FlightRecorder, MetricKey, MetricsRegistry, MetricsSnapshot};
use hawkeye_serve::frame_server::{
    counter_fields, seeded_registry, FrameServer, Handler, Listener, SessionPolicy,
};
use hawkeye_serve::Endpoint;
use hawkeye_sim::{FlowKey, Nanos, NodeId, Topology};
use hawkeye_telemetry::TelemetrySnapshot;

use crate::shard_map::{BackendEndpoint, ShardMap};

/// Front-end tuning. The analyzer config must match what a monolithic
/// daemon would use for the same traffic — verdict parity depends on it.
#[derive(Debug, Clone, Copy)]
pub struct FrontConfig {
    pub analyzer: AnalyzerConfig,
    /// Credit window granted to each of the front's own sessions.
    pub session_credits: u32,
    /// Reconnect schedule for the backend clients. `None` = one attempt.
    pub retry: Option<RetryConfig>,
    /// Per-op latency histograms, flight ring, health gauges.
    pub obs: bool,
    /// Requests slower than this (wall ns) count as `slow_ops`.
    pub slow_op_ns: u64,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            analyzer: AnalyzerConfig::for_epoch_len(Nanos::from_micros(100)),
            session_credits: 64,
            retry: Some(RetryConfig::default()),
            obs: true,
            slow_op_ns: 10_000_000,
            flight_capacity: 256,
        }
    }
}

/// A lazily connected client of one backend.
type Conn = Mutex<Option<ServeClient>>;

/// One backend: the map entry plus two connections. Ingest forwards and
/// queries (gathers, history, stats) each hold their own, so a forward
/// never waits behind a fragment gather on a shared socket.
struct Backend {
    range: hawkeye_client::ShardRange,
    endpoint: BackendEndpoint,
    ingest: Conn,
    query: Conn,
    /// Set when the last contact failed; a down backend gets exactly one
    /// fast reconnect probe per operation instead of the full backoff
    /// ladder, so a dead shard costs microseconds per routed op, not the
    /// retry deadline.
    down: AtomicBool,
}

impl Backend {
    fn connect<'a>(
        &self,
        conn: &'a mut Option<ServeClient>,
        epoch: u64,
        retry: Option<RetryConfig>,
    ) -> io::Result<&'a mut ServeClient> {
        if conn.is_none() {
            let retry = retry.filter(|_| !self.down.load(Ordering::SeqCst));
            let c = match &self.endpoint {
                BackendEndpoint::Unix(p) => ServeClient::connect_unix_with(p, retry),
                BackendEndpoint::Tcp(a) => ServeClient::connect_tcp_with(a, retry),
            }?;
            *conn = Some(c.with_map_epoch(epoch));
        }
        Ok(conn.as_mut().expect("just connected"))
    }
}

struct FrontShared {
    topo: Topology,
    map: ShardMap,
    cfg: FrontConfig,
    backends: Vec<Backend>,
    metrics: Mutex<MetricsRegistry>,
    flight: Mutex<FlightRecorder>,
}

/// Re-emit a backend failure to the front's own caller without losing the
/// type: a `wrong_shard` stays a `wrong_shard` across the hop.
fn error_response(e: &ProtoError) -> Response {
    match e {
        ProtoError::WrongShard(m) => Response::Error(format!("{WRONG_SHARD_PREFIX} {m}")),
        other => Response::Error(other.to_string()),
    }
}

impl FrontShared {
    fn inc(&self, name: &'static str) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .inc(MetricKey::global(name));
    }

    fn add(&self, name: &'static str, by: u64) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .add(MetricKey::global(name), by);
    }

    /// Run one query against backend `i`, connecting lazily. An I/O
    /// failure (after the client's own retry ladder) marks the backend down,
    /// drops the connection and lands in the flight ring; the next call
    /// probes for a recovered daemon with a single fast attempt.
    fn with_backend<R>(
        &self,
        i: usize,
        op: impl FnOnce(&mut ServeClient) -> Result<R, ProtoError>,
    ) -> Result<R, ProtoError> {
        let mut conn = self.backends[i].query.lock().expect("backend lock");
        self.on_conn(i, &mut conn, op)
    }

    /// [`FrontShared::with_backend`] on a connection the caller has
    /// locked.
    fn on_conn<R>(
        &self,
        i: usize,
        conn: &mut Option<ServeClient>,
        op: impl FnOnce(&mut ServeClient) -> Result<R, ProtoError>,
    ) -> Result<R, ProtoError> {
        let backend = &self.backends[i];
        let result = match backend.connect(conn, self.map.epoch, self.cfg.retry) {
            Ok(client) => op(client),
            Err(e) => Err(ProtoError::Io(e)),
        };
        let failed = matches!(result, Err(ProtoError::Io(_)));
        backend.down.store(failed, Ordering::SeqCst);
        if let (true, Err(e)) = (failed, &result) {
            *conn = None;
            if self.cfg.obs {
                self.flight.lock().expect("flight lock").note(
                    flight_kind::ERROR,
                    "backend_down",
                    format!("shard {i} ({}): {e}", backend.range),
                );
            }
        }
        result
    }

    /// Publish how many backends are currently marked down (gauge).
    fn publish_down_gauge(&self) {
        let down = self
            .backends
            .iter()
            .filter(|b| b.down.load(Ordering::SeqCst))
            .count();
        self.metrics
            .lock()
            .expect("metrics lock")
            .set(MetricKey::global(FRONT_BACKENDS_DOWN), down as f64);
    }

    /// Split one batch frame into per-backend sub-batches (routing every
    /// snapshot by owner), forward each under that backend's own credit
    /// window, and settle every owner's window before acking: the ack
    /// reports exactly what the owning daemons accepted and shed, and an
    /// unreachable owner's sub-batch is counted as shed, never as
    /// accepted into a dead pipeline.
    fn route_batch(&self, snaps: Vec<TelemetrySnapshot>) -> Response {
        let total = snaps.len() as u32;
        let mut groups: Vec<Vec<TelemetrySnapshot>> = Vec::new();
        groups.resize_with(self.backends.len(), Vec::new);
        for snap in snaps {
            let Some(owner) = self.map.owner_of(snap.switch) else {
                self.inc(INGEST_WRONG_SHARD);
                return Response::Error(format!(
                    "{WRONG_SHARD_PREFIX} switch {} in batch is not in the shard map (epoch {})",
                    snap.switch.0, self.map.epoch
                ));
            };
            groups[owner].push(snap);
        }
        // Lock every owner's ingest connection, in index order (the only
        // place that holds more than one; ascending order keeps it
        // deadlock-free), write every sub-batch, then settle every
        // window: the owners work on their sub-batches concurrently.
        let owners: Vec<usize> = (0..groups.len())
            .filter(|&i| !groups[i].is_empty())
            .collect();
        let mut conns: Vec<_> = owners
            .iter()
            .map(|&i| self.backends[i].ingest.lock().expect("backend lock"))
            .collect();
        let sent: Vec<_> = owners
            .iter()
            .zip(&mut conns)
            .map(|(&i, conn)| self.on_conn(i, conn, |c| c.ingest_batch(&groups[i])))
            .collect();
        let settled: Vec<_> = owners
            .iter()
            .zip(&mut conns)
            .zip(sent)
            .map(|((&i, conn), sent)| {
                let sent = sent?;
                let rest = self.on_conn(i, conn, |c| c.finish_ingest())?;
                Ok((sent.accepted + rest.accepted, sent.shed + rest.shed))
            })
            .collect();
        drop(conns);
        let mut accepted = 0u64;
        let mut shed = 0u64;
        let mut epochs = 0u64;
        for (&i, r) in owners.iter().zip(settled) {
            let n = groups[i].len() as u64;
            match r {
                Ok((acc, sh)) => {
                    accepted += acc;
                    shed += sh;
                    // The daemon's unit: ring epochs, not snapshots. A
                    // partly shed sub-batch counts its accepted share at
                    // its mean epochs per snapshot (see DESIGN §13.2).
                    let carried: u64 = groups[i].iter().map(|s| s.epochs.len() as u64).sum();
                    epochs += carried * acc / n;
                }
                Err(ProtoError::Io(_)) => {
                    shed += n;
                    self.add(FRONT_SHED_DOWN, n);
                }
                Err(e) => return error_response(&e),
            }
        }
        self.add(EPOCHS_INGESTED, epochs);
        if shed > 0 {
            self.add(INGEST_SHED, shed);
        }
        self.inc(INGEST_BATCHES);
        Response::BatchAck {
            accepted: accepted as u32,
            shed: shed as u32,
            granted: total,
        }
    }

    /// Run `op` against every backend in parallel (one scoped thread
    /// each); results come back in backend order.
    fn fan_out<R: Send>(
        &self,
        op: impl Fn(&mut ServeClient) -> Result<R, ProtoError> + Sync,
    ) -> Vec<Result<R, ProtoError>> {
        let op = &op;
        let results = thread::scope(|s| {
            let handles: Vec<_> = (0..self.backends.len())
                .map(|i| s.spawn(move || self.with_backend(i, op)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fan-out thread"))
                .collect()
        });
        self.publish_down_gauge();
        results
    }

    /// The cross-shard gather: every backend's fragment set (its
    /// `Fragments` op flushes its own ingest queues first). Returns the
    /// live shards' fragments and the indices of shards that could not
    /// be reached. A *typed* backend refusal (e.g. stale shard map) is a
    /// routing fault, not an outage, and propagates as the error it is.
    #[allow(clippy::type_complexity)]
    fn gather_fragments(&self) -> Result<(Vec<Vec<TelemetrySnapshot>>, Vec<usize>), ProtoError> {
        let mut shards = Vec::new();
        let mut dead = Vec::new();
        for (i, r) in self.fan_out(|c| c.fragments()).into_iter().enumerate() {
            match r {
                Ok(frags) => shards.push(frags),
                Err(ProtoError::Io(_)) => dead.push(i),
                Err(e) => return Err(e),
            }
        }
        Ok((shards, dead))
    }

    /// The scatter/gather diagnosis: merge every live shard's fragments
    /// and analyze centrally — the same `assemble_graph` path a monolithic
    /// daemon runs, so with every shard alive the verdict is positionally
    /// identical to the single-daemon one. Dead shards' owned switches are
    /// appended to the missing set, downgrading confidence instead of
    /// failing the query.
    fn diagnose(&self, p: &DiagnoseParams) -> Response {
        let (shards, dead) = match self.gather_fragments() {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        };
        let merged = merge_fragment_sets(shards);
        if merged.is_empty() {
            return Response::Error("no telemetry ingested".into());
        }
        let window = Window {
            from: p.from,
            to: p.to,
        };
        let (mut report, _graph, _agg) =
            analyze_victim_window(&p.victim, window, &merged, &self.topo, &self.cfg.analyzer);
        report.note_missing(&p.missing);
        if !dead.is_empty() {
            let mut lost: Vec<NodeId> = Vec::new();
            for &i in &dead {
                let range = self.backends[i].range;
                lost.extend(self.topo.switches().filter(|sw| range.contains(*sw)));
            }
            lost.sort_unstable();
            lost.dedup();
            report.note_missing(&lost);
        }
        Response::Diagnosis(report)
    }

    /// The merged cross-shard gather itself, as a wire op: a front-end
    /// can sit behind another front-end (or any `Fragments` caller) and
    /// look like one big daemon.
    fn fragments(&self) -> Response {
        match self.gather_fragments() {
            Ok((shards, _dead)) => Response::Fragments(merge_fragment_sets(shards)),
            Err(e) => error_response(&e),
        }
    }

    fn flow_history(&self, key: FlowKey) -> Response {
        let results = self.fan_out(|c| c.flow_history(key));
        let mut rows: Vec<hawkeye_client::FlowObservation> = Vec::new();
        for r in results {
            match r {
                Ok(part) => rows.extend(part),
                Err(ProtoError::Io(_)) => {} // dead shard: degraded history
                Err(e) => return error_response(&e),
            }
        }
        // The daemon's canonical row order, restored across the merge.
        rows.sort_unstable_by_key(|o| (o.from, o.to, o.switch, o.fidelity, o.out_port));
        Response::History(rows)
    }

    /// Front `Stats`: the front's own counters plus each live backend's
    /// full stats object (null for unreachable shards). Every frame the
    /// front has acked was acked by its backends first, so each backend's
    /// stats cover what they would for a client talking to it directly.
    fn stats(&self) -> Response {
        let per_backend: Vec<serde::Value> = self
            .fan_out(|c| c.stats())
            .into_iter()
            .map(|r| r.unwrap_or(serde::Value::Null))
            .collect();
        let mut fields = counter_fields(&self.metrics);
        fields.push(("front_map_epoch".into(), serde::Value::UInt(self.map.epoch)));
        fields.push((
            "front_shards".into(),
            serde::Value::UInt(self.backends.len() as u64),
        ));
        fields.push(("backends".into(), serde::Value::Array(per_backend)));
        Response::Stats(serde::Value::Object(fields))
    }
}

impl Handler for FrontShared {
    fn handle(&self, req: Request, _body: &mut Vec<u8>) -> Response {
        match req {
            Request::IngestBatch(snaps) => self.route_batch(snaps),
            Request::Diagnose(p) => self.diagnose(&p),
            Request::Fragments => self.fragments(),
            Request::FlowHistory(key) => self.flow_history(key),
            Request::Stats => self.stats(),
            // The audit trail lives where verdicts are journaled — on the
            // shard daemons. A front-end verdict is assembled from
            // fragments and journaled nowhere (the front is stateless),
            // so Explain is honestly a miss, not a proxy call: which
            // shard's trail would it even mean?
            Request::Explain(_) => Response::Error(
                "no verdicts journaled: the front-end is stateless; ask a shard daemon".into(),
            ),
            other => Response::Error(format!("unexpected request {other:?}")),
        }
    }

    fn metrics(&self) -> &Mutex<MetricsRegistry> {
        &self.metrics
    }

    fn flight(&self) -> &Mutex<FlightRecorder> {
        &self.flight
    }
}

/// A running front-end; dropping the handle does NOT stop it — call
/// [`FrontHandle::shutdown`]. A `Shutdown` request stops the *front only*:
/// the shard daemons are owned by whoever spawned them and keep serving.
pub struct FrontHandle {
    shared: Arc<FrontShared>,
    server: FrameServer,
    /// Bound TCP address when listening on TCP (for port-0 binds).
    pub local_addr: Option<std::net::SocketAddr>,
}

impl FrontHandle {
    /// Signal stop and join every front thread. Backend daemons keep
    /// running.
    pub fn shutdown(mut self) {
        self.server.stop();
        self.server.join();
    }

    /// Block until a `Shutdown` request stops the front — the foreground
    /// `hawkeye front` mode.
    pub fn wait(mut self) {
        self.server.join();
    }

    /// Point-in-time copy of the front's metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.lock().expect("metrics lock").snapshot()
    }
}

/// Start the front-end on `endpoint`, routing by `map` over `topo`.
/// Returns once the listener is bound; serving continues on background
/// threads until a `Shutdown` request arrives or
/// [`FrontHandle::shutdown`] is called. Backend daemons are dialed
/// lazily, on the first operation that needs each one — a fleet can be
/// brought up in any order.
pub fn spawn_front(
    topo: Topology,
    map: ShardMap,
    cfg: FrontConfig,
    endpoint: Endpoint,
) -> io::Result<FrontHandle> {
    let listener = Listener::bind(&endpoint)?;
    let local_addr = listener.local_addr()?;
    let backends = map
        .shards
        .iter()
        .map(|e| Backend {
            range: e.range,
            endpoint: e.endpoint.clone(),
            ingest: Mutex::new(None),
            query: Mutex::new(None),
            down: AtomicBool::new(false),
        })
        .collect();
    let mut metrics = seeded_registry(&[INGEST_WRONG_SHARD, FRONT_SHED_DOWN]);
    metrics.set(MetricKey::global(FRONT_BACKENDS_DOWN), 0.0);
    let policy = SessionPolicy {
        name: "hawkeye-front",
        credits: cfg.session_credits,
        map_epoch: Some(map.epoch),
        obs: cfg.obs,
        slow_op_ns: cfg.slow_op_ns,
    };
    let shared = Arc::new(FrontShared {
        topo,
        map,
        cfg,
        backends,
        metrics: Mutex::new(metrics),
        flight: Mutex::new(FlightRecorder::new(cfg.flight_capacity)),
    });
    let server = FrameServer::start(listener, policy, Arc::clone(&shared));
    Ok(FrontHandle {
        shared,
        server,
        local_addr,
    })
}
