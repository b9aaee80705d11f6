//! The session contract both serving roles share: one table of cases run
//! against a shard daemon and against a front-end routing to it. Both
//! roles run the same frame server, so every case must hold for each.

use hawkeye_client::{read_frame, write_frame, write_request};
use hawkeye_cluster::{spawn_front, BackendEndpoint, FrontConfig, ShardEntry, ShardMap};
use hawkeye_obs::flight;
use hawkeye_obs::names::{OP_STATS_NS, SLOW_OPS};
use hawkeye_serve::{
    spawn, Endpoint, ProtoError, Request, Response, ServeClient, ServeConfig, ShardRange,
    PROTO_VERSION,
};
use hawkeye_sim::Nanos;
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// The shard-map generation both servers are cut from.
const EPOCH: u64 = 5;
/// The `Hello` opcode on the wire.
const OP_HELLO: u8 = 9;

/// Send one raw frame and decode the server's answer.
fn raw_exchange(sock: &Path, send: impl FnOnce(&mut UnixStream)) -> Response {
    let mut s = UnixStream::connect(sock).expect("connect");
    send(&mut s);
    let (op, body) = read_frame(&mut s)
        .expect("answer frame")
        .expect("server answered before closing");
    hawkeye_client::decode_response(op, &body).expect("answer decodes")
}

fn flight_has(events: &serde::Value, kind: &str, what: &str) -> bool {
    events.as_array().expect("flight dump").iter().any(|e| {
        e.get("kind").and_then(|v| v.as_str()) == Some(kind)
            && e.get("what").and_then(|v| v.as_str()) == Some(what)
    })
}

fn stale_map_epoch_is_typed_wrong_shard(role: &str, sock: &Path) {
    let mut c = ServeClient::connect_unix(sock)
        .expect("connect")
        .with_map_epoch(EPOCH + 1);
    match c.stats() {
        Err(ProtoError::WrongShard(msg)) => assert!(
            msg.contains(&format!("epoch {}", EPOCH + 1)),
            "{role}: refusal names the stale epoch: {msg}"
        ),
        other => panic!("{role}: expected WrongShard, got {other:?}"),
    }
}

fn wrong_version_hello_is_refused(role: &str, sock: &Path) {
    let old = PROTO_VERSION - 1;
    let resp = raw_exchange(sock, |s| {
        write_request(
            s,
            &Request::Hello {
                version: old,
                map_epoch: None,
            },
        )
        .expect("send hello")
    });
    let Response::Error(msg) = resp else {
        panic!("{role}: version-{old} hello answered {resp:?}");
    };
    assert!(
        msg.contains(&format!("version {old}"))
            && msg.contains(&format!("version {PROTO_VERSION}")),
        "{role}: refusal must name both versions: {msg}"
    );
}

fn empty_hello_body_is_malformed(role: &str, sock: &Path) {
    let resp = raw_exchange(sock, |s| write_frame(s, OP_HELLO, &[]).expect("send hello"));
    let Response::Error(msg) = resp else {
        panic!("{role}: empty hello answered {resp:?}");
    };
    assert!(
        msg.starts_with("malformed body"),
        "{role}: empty hello refused as '{msg}'"
    );
}

fn slow_op_lands_in_counter_and_flight_ring(role: &str, sock: &Path) {
    let mut c = ServeClient::connect_unix(sock).expect("connect");
    c.stats().expect("stats");
    let (snap, events) = c.metrics().expect("metrics");
    assert!(snap.counter_total(SLOW_OPS) > 0, "{role}: {snap:?}");
    assert!(
        flight_has(&events, flight::SLOW, OP_STATS_NS),
        "{role}: no slow Stats in the flight ring: {events:?}"
    );
}

fn request_error_is_noted_in_flight_ring(role: &str, sock: &Path) {
    let mut c = ServeClient::connect_unix(sock).expect("connect");
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let err = c.diagnose(sc.truth.victim, Nanos::ZERO, Nanos(1_000_000), Vec::new());
    assert!(
        matches!(err, Err(ProtoError::Remote(_))),
        "{role}: diagnose without telemetry answered {err:?}"
    );
    let (_, events) = c.metrics().expect("metrics");
    assert!(
        flight_has(&events, flight::ERROR, "request_error"),
        "{role}: request error missing from the flight ring: {events:?}"
    );
}

/// `Shutdown` answers `Bye`, and the server removes its unix socket.
fn shutdown_says_bye(role: &str, sock: &Path) {
    let mut c = ServeClient::connect_unix(sock).expect("connect");
    c.shutdown()
        .unwrap_or_else(|e| panic!("{role}: Shutdown was not answered with Bye: {e}"));
}

/// One contract case, given the role's name and its socket.
type Case = fn(&str, &Path);

const CASES: &[(&str, Case)] = &[
    ("stale map epoch", stale_map_epoch_is_typed_wrong_shard),
    ("wrong version", wrong_version_hello_is_refused),
    ("empty hello", empty_hello_body_is_malformed),
    ("slow op", slow_op_lands_in_counter_and_flight_ring),
    ("request error", request_error_is_noted_in_flight_ring),
];

#[test]
fn daemon_and_front_honour_one_session_contract() {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let n = sc.topo.switches().map(|s| s.0).max().expect("switches") + 1;
    let range = ShardRange {
        lo: 0,
        hi: n,
        epoch: EPOCH,
    };
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hawkeye-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let daemon_sock = dir.join("daemon.sock");
    let front_sock = dir.join("front.sock");

    let daemon = spawn(
        sc.topo.clone(),
        ServeConfig {
            shard_range: Some(range),
            slow_op_ns: 0,
            ..ServeConfig::default()
        },
        Endpoint::Unix(daemon_sock.clone()),
    )
    .expect("bind daemon");
    let map = ShardMap {
        epoch: EPOCH,
        shards: vec![ShardEntry {
            range,
            endpoint: BackendEndpoint::Unix(daemon_sock.clone()),
        }],
    };
    let front = spawn_front(
        sc.topo.clone(),
        map,
        FrontConfig {
            slow_op_ns: 0,
            retry: None,
            ..FrontConfig::default()
        },
        Endpoint::Unix(front_sock.clone()),
    )
    .expect("bind front");

    for (role, sock) in [("daemon", &daemon_sock), ("front", &front_sock)] {
        for (case, run) in CASES {
            eprintln!("{role}: {case}");
            run(role, sock);
        }
    }

    // The front journals no verdicts, so Explain there stays an error.
    let mut c = ServeClient::connect_unix(&front_sock).expect("connect");
    match c.explain(None) {
        Err(ProtoError::Remote(msg)) => assert!(msg.contains("stateless"), "{msg}"),
        other => panic!("front Explain answered {other:?}"),
    }

    // Front first: its Shutdown must not stop the daemon behind it.
    for (role, sock) in [("front", &front_sock), ("daemon", &daemon_sock)] {
        shutdown_says_bye(role, sock);
    }
    front.wait();
    daemon.wait();
    for sock in [&front_sock, &daemon_sock] {
        assert!(!sock.exists(), "{} left behind", sock.display());
    }
    let _ = std::fs::remove_dir(&dir);
}
