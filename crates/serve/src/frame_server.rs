//! The frame server both serving roles run: the diagnosis daemon
//! ([`crate::server`]) and the fleet front-end (`hawkeye-cluster`).
//!
//! It owns everything that does not depend on the role:
//!
//! - binding a unix or TCP [`Listener`] (stale-socket removal, nodelay on
//!   accepted TCP streams);
//! - the accept loop, one session thread per connection, and the join of
//!   every session on stop;
//! - the session read loop, with an idle poll against the stop flag;
//! - the `Hello` fence: protocol version, shard-map epoch, credit grant;
//! - per-op latency histograms, `slow_ops`, and `request_error` notes in
//!   the flight ring;
//! - the `Metrics` op, and `Shutdown` → `Bye`;
//! - the process-wide SIGINT/SIGTERM stop flag.
//!
//! A role supplies a [`Handler`] that answers every other request, plus
//! an optional per-tick hook; the handler's own `Drop` is the role's
//! teardown, run once the last session has ended.

use hawkeye_client::proto::WRONG_SHARD_PREFIX;
use hawkeye_client::{
    decode_request, read_frame, write_response, AnyStream, PeerInfo, ProtoError, Request, Response,
    PROTO_VERSION,
};
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    EPOCHS_INGESTED, INGEST_BATCHES, INGEST_SHED, OP_DIAGNOSE_NS, OP_EXPLAIN_NS,
    OP_FLOW_HISTORY_NS, OP_FRAGMENTS_NS, OP_INGEST_BATCH_NS, OP_METRICS_NS, OP_STATS_NS,
    SERVE_SESSIONS, SLOW_OPS,
};
use hawkeye_obs::{FlightRecorder, MetricKey, MetricsRegistry};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Where a server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    Unix(PathBuf),
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
}

/// A bound, nonblocking listener.
pub enum Listener {
    /// The socket path is removed again when the server stops.
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    pub fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        Ok(match endpoint {
            Endpoint::Unix(path) => {
                // A previous unclean exit (kill -9) leaves the socket file
                // behind; a graceful stop removes it, but bind defensively.
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l, path.clone())
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
        })
    }

    /// The bound TCP address (for port-0 binds); `None` on unix.
    pub fn local_addr(&self) -> io::Result<Option<SocketAddr>> {
        match self {
            Listener::Unix(..) => Ok(None),
            Listener::Tcp(l) => l.local_addr().map(Some),
        }
    }

    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Acks are 12–16 byte frames; leaving Nagle on lets
                // delayed-ACK stall the client's credit window.
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
        }
    }
}

/// One serving role: answers every request the frame server does not
/// answer itself (`Hello`, `Metrics` and `Shutdown`).
pub trait Handler: Send + Sync + 'static {
    /// Answer one request. `body` is the frame body it was decoded from;
    /// a role that journals the wire bytes may take it.
    fn handle(&self, req: Request, body: &mut Vec<u8>) -> Response;

    /// Runs on the accept thread between accepts.
    fn tick(&self) {}

    /// The role's metrics registry: session count, op latencies and
    /// slow ops land here.
    fn metrics(&self) -> &Mutex<MetricsRegistry>;

    /// The role's flight ring: slow ops and request errors land here.
    fn flight(&self) -> &Mutex<FlightRecorder>;
}

/// What the session fence and its bookkeeping need from a role's config.
#[derive(Debug, Clone, Copy)]
pub struct SessionPolicy {
    /// Thread-name prefix of the accept loop and its sessions.
    pub name: &'static str,
    /// Credit window granted on `Hello`.
    pub credits: u32,
    /// Shard-map epoch enforced on `Hello`; `None` checks none.
    pub map_epoch: Option<u64>,
    /// Per-op latency histograms, slow ops and request-error notes.
    pub obs: bool,
    /// Requests at least this slow (wall ns) count as `slow_ops`.
    pub slow_op_ns: u64,
}

impl SessionPolicy {
    /// The `Hello` answer: refuse another protocol version, and refuse a
    /// peer routing under a different shard-map generation — accepting
    /// its session would make every ingest it routes suspect. A peer or
    /// server without an epoch has nothing to be stale about.
    fn hello(&self, version: u32, map_epoch: Option<u64>) -> Response {
        if version != PROTO_VERSION {
            return Response::Error(format!(
                "protocol version {version} is not supported: this server speaks version \
                 {PROTO_VERSION}"
            ));
        }
        match (map_epoch, self.map_epoch) {
            (Some(theirs), Some(ours)) if theirs != ours => Response::Error(format!(
                "{WRONG_SHARD_PREFIX} shard-map epoch {theirs} does not match this server's \
                 epoch {ours}"
            )),
            _ => Response::Ack {
                granted: self.credits,
                info: PeerInfo {
                    version: PROTO_VERSION,
                    map_epoch: self.map_epoch,
                },
            },
        }
    }
}

/// A registry pre-seeded at zero with the counters every serving role
/// reports, plus the role's `extra` ones, so `Stats` (which iterates
/// registered names) shows them before the first event — a server that
/// never shed still shows `ingest_shed: 0`.
pub fn seeded_registry(extra: &[&'static str]) -> MetricsRegistry {
    let mut m = MetricsRegistry::default();
    for &name in [
        EPOCHS_INGESTED,
        INGEST_SHED,
        SERVE_SESSIONS,
        INGEST_BATCHES,
        SLOW_OPS,
    ]
    .iter()
    .chain(extra)
    {
        m.add(MetricKey::global(name), 0);
    }
    m
}

/// Every registered counter as a `Stats` field, in name order — not a
/// hand-kept list, so a counter added anywhere shows up without the
/// `Stats` handler knowing about it (the well-known ones are seeded, so
/// they appear even at zero).
pub fn counter_fields(metrics: &Mutex<MetricsRegistry>) -> Vec<(String, serde::Value)> {
    let m = metrics.lock().expect("metrics lock");
    m.counter_names()
        .into_iter()
        .map(|name| (name.to_string(), serde::Value::UInt(m.counter_total(name))))
        .collect()
}

/// Latency-histogram name of a request's op (`None` for the session
/// control ops, which are not timed).
fn op_name(req: &Request) -> Option<&'static str> {
    match req {
        Request::IngestBatch(_) => Some(OP_INGEST_BATCH_NS),
        Request::Diagnose(_) => Some(OP_DIAGNOSE_NS),
        Request::Fragments => Some(OP_FRAGMENTS_NS),
        Request::FlowHistory(_) => Some(OP_FLOW_HISTORY_NS),
        Request::Stats => Some(OP_STATS_NS),
        Request::Metrics => Some(OP_METRICS_NS),
        Request::Explain(_) => Some(OP_EXPLAIN_NS),
        Request::Hello { .. } | Request::Shutdown => None,
    }
}

/// The `Metrics` op: the full metrics snapshot plus the flight ring.
fn metrics_response(h: &impl Handler) -> Response {
    let snap = h.metrics().lock().expect("metrics lock").snapshot();
    let flight = h.flight().lock().expect("flight lock").to_value();
    Response::Metrics(serde::Value::Object(vec![
        ("metrics".into(), hawkeye_obs::emit::metrics_value(&snap)),
        ("flight".into(), flight),
    ]))
}

/// How long a session blocks in a read before re-checking the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

fn session<H: Handler>(
    handler: Arc<H>,
    policy: SessionPolicy,
    stop: Arc<AtomicBool>,
    mut stream: AnyStream,
) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    handler
        .metrics()
        .lock()
        .expect("metrics lock")
        .inc(MetricKey::global(SERVE_SESSIONS));
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let (opcode, mut body) = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean disconnect
            Err(ProtoError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // idle poll; re-check the stop flag
            }
            Err(e) => {
                let _ = write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        let t0 = policy.obs.then(Instant::now);
        let req = decode_request(opcode, &body);
        let op = req.as_ref().ok().and_then(op_name);
        let resp = match req {
            Ok(Request::Hello { version, map_epoch }) => policy.hello(version, map_epoch),
            Ok(Request::Metrics) => metrics_response(&*handler),
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                let _ = write_response(&mut stream, &Response::Bye);
                return;
            }
            Ok(req) => handler.handle(req, &mut body),
            Err(e) => Response::Error(e.to_string()),
        };
        if let (Some(t0), Some(op)) = (t0, op) {
            // Lock order: metrics → flight.
            let ns = t0.elapsed().as_nanos() as u64;
            let slow = ns >= policy.slow_op_ns;
            let mut m = handler.metrics().lock().expect("metrics lock");
            m.observe(MetricKey::global(op), ns);
            if slow {
                m.inc(MetricKey::global(SLOW_OPS));
            }
            drop(m);
            if slow {
                handler.flight().lock().expect("flight lock").note(
                    flight_kind::SLOW,
                    op,
                    format!("{ns} ns"),
                );
            }
        }
        // An Explain miss is an expected query outcome (clients poll for
        // the latest verdict opportunistically); logging it would bury
        // real errors in the ring.
        if policy.obs && op != Some(OP_EXPLAIN_NS) {
            if let Response::Error(msg) = &resp {
                handler.flight().lock().expect("flight lock").note(
                    flight_kind::ERROR,
                    "request_error",
                    msg.clone(),
                );
            }
        }
        if write_response(&mut stream, &resp).is_err() {
            return;
        }
    }
}

/// Set by the process signal handler, polled by every accept loop — the
/// graceful-shutdown path of a foreground daemon or front-end.
static SIG_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic store, nothing else.
    SIG_STOP.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a graceful stop of every
/// server in this process: the accept loop notices the flag within its
/// poll interval and runs the same teardown a `Shutdown` request does
/// (sessions joined, the handler dropped, the unix socket removed),
/// so `kill -TERM` never leaves a stale socket behind. `std` already
/// links libc, so `signal(2)` is declared directly instead of pulling in
/// a binding crate.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is libc's, declared with its C signature, and the
    // handler it installs only performs an atomic store, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// A running frame server: its stop flag and accept thread.
pub struct FrameServer {
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Serve `listener` on background threads until a `Shutdown` request,
    /// a signal or [`FrameServer::stop`]. On stop the accept loop joins
    /// every session, drops its `handler` and removes the unix socket.
    pub fn start<H: Handler>(
        listener: Listener,
        policy: SessionPolicy,
        handler: Arc<H>,
    ) -> FrameServer {
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name(format!("{}-accept", policy.name))
            .spawn(move || {
                let mut sessions: Vec<JoinHandle<()>> = Vec::new();
                while !accept_stop.load(Ordering::SeqCst) {
                    if SIG_STOP.load(Ordering::SeqCst) {
                        accept_stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    handler.tick();
                    match listener.accept() {
                        Ok(stream) => {
                            let (h, s) = (Arc::clone(&handler), Arc::clone(&accept_stop));
                            sessions.push(
                                thread::Builder::new()
                                    .name(format!("{}-session", policy.name))
                                    .spawn(move || session(h, policy, s, stream))
                                    .expect("spawn session"),
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for s in sessions {
                    let _ = s.join();
                }
                drop(handler);
                if let Listener::Unix(_, path) = &listener {
                    let _ = std::fs::remove_file(path);
                }
            })
            .expect("spawn accept loop");
        FrameServer {
            stop,
            accept_thread: Some(accept_thread),
        }
    }

    /// Ask the accept loop to stop (returns at once).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once a `Shutdown` request, a signal or `stop()` stopped it.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Block until the server has stopped and torn down.
    pub fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}
