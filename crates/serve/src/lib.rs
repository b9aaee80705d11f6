//! `hawkeye-serve`: the online diagnosis service.
//!
//! Turns the one-shot pipeline (simulate → collect → diagnose → exit) into
//! a long-running monitoring plane, the deployment shape §3.4's
//! controller-assisted collection implies:
//!
//! - [`store`] — epoch-indexed telemetry store with per-switch ring
//!   retention and watermark tracking; the daemon's source of truth.
//! - [`frame_server`] — the frame server both serving roles (this daemon
//!   and the `hawkeye-cluster` front-end) run: listener, accept loop,
//!   session read loop, the `Hello` fence, per-op latency bookkeeping,
//!   `Shutdown` and the signal stop flag. A role supplies its handler.
//! - [`server`] — the multi-threaded daemon: switch-sharded bounded
//!   ingest queues with backpressure (or explicit shedding), and the
//!   shared [`IncrementalProvenance`](hawkeye_core::IncrementalProvenance)
//!   engine maintained on the ingest path. With a
//!   [`ShardRange`](hawkeye_client::ShardRange) the daemon serves one
//!   shard of a fleet and enforces switch ownership on ingest.
//! - [`stream`] — [`StreamingHook`], the simulator decorator that pushes
//!   each collection epoch to a sink as it happens.
//! - [`replay`] — end-to-end online diagnosis: stream a scenario into a
//!   live daemon and check served-vs-one-shot verdict parity.
//! - [`wal`] / [`recovery`] — disk-backed segmented evidence log (CRC32
//!   framing, size-based rotation, checkpoint-coupled retirement) and the
//!   startup replay that lets a `--durable` daemon survive `kill -9`.
//!
//! The frame protocol and its synchronous client live in the standalone
//! [`hawkeye_client`] crate (every frame speaker — CLI, daemon, cluster
//! front-end, external collectors — shares that one implementation); the
//! client types a daemon user needs are re-exported flat here.

pub mod audit;
pub mod compactor;
pub mod frame_server;
pub mod recovery;
pub mod replay;
pub mod server;
pub mod store;
pub mod stream;
pub mod wal;

pub use audit::AuditTrail;
pub use compactor::{Compactor, CompactorStats, PendingFold};
pub use frame_server::{install_signal_handlers, Endpoint};
pub use hawkeye_client::{
    observation_to_value, DiagnoseParams, ExplainRecord, Fidelity, FlowObservation, PeerInfo,
    ProtoError, Request, Response, RetryConfig, ServeClient, ShardRange, VecSink, MAX_FRAME,
    PROTO_VERSION,
};
pub use recovery::{recover_and_open, scan, RecoveryReport, Scan, ScannedRecord, WalEntry};
pub use replay::{replay_streaming, ReplayOutcome};
pub use server::{spawn, spawn_durable, DaemonHandle, OverloadPolicy, ServeConfig};
pub use store::{StoreConfig, StoreStats, SwitchRestore, TelemetryStore};
pub use stream::{StreamStats, StreamingHook};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalStats};
