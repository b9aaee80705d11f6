//! The benchmark's own tests, on the K=4 fat-tree so they run in seconds.

use hawkeye_perfbench::daemon::{KindInput, BATCH};
use hawkeye_perfbench::metrics::{declared, List};
use hawkeye_perfbench::oneshot::pinned_cells;
use hawkeye_perfbench::trace::Tracer;
use hawkeye_perfbench::{kinds_for, run, Params, Size, Workload};
use hawkeye_serve::{spawn, Endpoint, ServeClient, ServeConfig};
use hawkeye_telemetry::encode_batch;
use hawkeye_workloads::{ScenarioKind, TopologySpec};
use std::path::PathBuf;

const TINY: TopologySpec = TopologySpec::FatTree { k: 4 };

fn tiny(workload: Workload, trace: bool) -> Params {
    Params {
        size: Size::TINY,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
        ..Params::new(workload, 7, 0.6, trace)
    }
}

/// Every workload, untraced and traced, emits exactly the metrics
/// `BENCHMARK.json` declares, each with its unit, and fails nothing; every
/// value lies within the samples its run record summarizes, so the
/// record's median and quartiles are in the value's unit.
#[test]
fn tiny_smoke_emits_every_declared_metric() {
    let end_to_end = declared(List::EndToEnd);
    let per_layer = declared(List::PerLayer);
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace));
            assert!(
                out.correct(),
                "{} trace={trace}: {} of {} failed: {:?}",
                w.name(),
                out.failed,
                out.attempted,
                out.failures
            );
            let want = if trace { &per_layer } else { &end_to_end };
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{} trace={trace}", w.name());
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            for m in out.metrics.iter().filter(|m| !m.samples.is_empty()) {
                let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let slack = 1e-9 * hi.abs().max(1.0);
                assert!(
                    lo - slack <= m.value && m.value <= hi + slack,
                    "{} trace={trace}: {} = {} outside its samples [{lo}, {hi}]",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            let line = serde_json::parse(&out.result_line()).expect("result line is JSON");
            let keys: Vec<&str> = line
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

/// A time-shifted replica keeps every epoch's ring slot and wrap-around
/// id consistent with its shifted start, and a daemon fed replicas still
/// diagnoses the last one at parity with the one-shot verdict.
#[test]
fn shifted_replica_is_consistent_and_diagnoses_at_parity() {
    let (input, _) = KindInput::prepare(&TINY, ScenarioKind::PfcStorm, &mut Tracer::new(false), 0)
        .expect("pfc-storm on ft4 is detected");
    let cfg = input.plan.epochs;
    let last = 3;
    let shifted = input.plan.replica(&input.stream, last);
    assert_eq!(shifted.len(), input.stream.len());
    for (orig, s) in input.stream.iter().zip(&shifted) {
        assert_eq!(s.taken_at, orig.taken_at + input.plan.offset(last));
        for (oe, e) in orig.epochs.iter().zip(&s.epochs) {
            assert_eq!(e.start, oe.start + input.plan.offset(last));
            assert_eq!(e.slot, cfg.slot(e.start), "slot of a shifted epoch");
            assert_eq!(e.id, cfg.epoch_id(e.start), "id of a shifted epoch");
            assert_eq!(e.slot, oe.slot, "whole-ring shifts keep the slot");
        }
    }
    assert_eq!(
        input.plan.shift().as_nanos() % cfg.ring_span().as_nanos(),
        0
    );

    let daemon = spawn(
        input.topo.clone(),
        ServeConfig {
            analyzer: hawkeye_core::AnalyzerConfig::for_epoch_len(cfg.epoch_len()),
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("daemon spawns");
    let addr = daemon.local_addr.expect("tcp address").to_string();
    let mut c = ServeClient::connect_tcp(&addr).expect("connect");
    for r in 0..=last {
        for chunk in input.plan.replica(&input.stream, r).chunks(BATCH) {
            c.ingest_batch(chunk).expect("ingest");
        }
    }
    c.finish_ingest().expect("settle");
    let w = input.plan.window(input.window, last);
    let served = c
        .diagnose(input.truth.victim, w.from, w.to, input.missing.clone())
        .expect("diagnose");
    assert!(input.reference.parity_with(&served), "served {served:?}");
    drop(c);
    daemon.shutdown();
}

/// The same seed generates byte-identical inputs; another seed reorders
/// them.
#[test]
fn same_seed_generates_identical_inputs() {
    assert_eq!(kinds_for(11), kinds_for(11));
    assert!((0..8).any(|s| kinds_for(s) != kinds_for(11)));
    let order = |seed| -> Vec<String> {
        pinned_cells(&TINY, seed)
            .expect("ft4 pins")
            .iter()
            .map(|c| c.pin.key.to_string())
            .collect()
    };
    assert_eq!(order(5), order(5));
    assert_eq!(order(5).len(), 18);

    let prepare = || {
        KindInput::prepare(
            &TINY,
            ScenarioKind::MicroBurstIncast,
            &mut Tracer::new(false),
            0,
        )
        .expect("incast on ft4")
        .0
    };
    let (a, b) = (prepare(), prepare());
    assert_eq!(a.fingerprint, b.fingerprint);
    for r in [0, 1, 9] {
        let fa = encode_batch(&a.plan.replica(&a.stream, r));
        let fb = encode_batch(&b.plan.replica(&b.stream, r));
        assert!(fa == fb, "replica {r} differs");
    }
}
