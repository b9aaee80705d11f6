//! One one-shot trial, split at its layer boundaries, for the traced run.
//!
//! Untraced runs call `hawkeye_eval::run_hawkeye` whole. The traced run
//! needs each layer timed from outside and the telemetry hook wrapped, so
//! it issues the same public calls `run_cell` makes — `build_scenario_on`
//! with the corpus cell parameters, the optimal run configuration,
//! `instantiate_faulted`, `run_until`, `victim_window`,
//! `analyze_victim_window_obs`, `judge` and `outcome_to_verdict` — one by
//! one. Its verdicts are diffed against the same golden pins, so the
//! split is checked to change nothing; its time against the untraced
//! `run_hawkeye` pass is the tracing overhead.

use crate::hook::{HookCounts, LayerHook};
use crate::trace::Tracer;
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, DiagnosisError, HawkeyeConfig, HawkeyeHook,
};
use hawkeye_eval::corpus::{cell_params, outcome_to_verdict};
use hawkeye_eval::{
    judge, optimal_run_config, victim_window, CellVerdict, RunOutcome, ScoreConfig,
};
use hawkeye_obs::{kind, ObsConfig, Recorder, Stage};
use hawkeye_sim::{Nanos, NodeId};
use hawkeye_telemetry::TelemetryConfig;
use hawkeye_workloads::{build_scenario_on, Scenario, ScenarioKind, TopologySpec};
use std::time::Instant;

/// Wall ns per layer of one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialTimes {
    pub build_ns: u64,
    pub instantiate_ns: u64,
    pub run_ns: u64,
    /// The three analysis stages, from the analysis' own stage profile.
    pub aggregate_ns: u64,
    pub graph_ns: u64,
    pub match_ns: u64,
    pub total_ns: u64,
}

/// The per-layer counts and times of one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialStats {
    /// Simulator events processed.
    pub events: u64,
    pub hook: HookCounts,
    /// Snapshots the collector accepted, and their filtered wire bytes.
    pub snapshots: usize,
    pub bytes: usize,
    /// Provenance graph nodes (ports + flows).
    pub graph_nodes: usize,
    pub times: TrialTimes,
}

/// What one split trial produced.
pub struct Trial {
    /// The reduced verdict the corpus golden file pins.
    pub cell: CellVerdict,
    pub stats: TrialStats,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run one corpus cell; its spans land in `tracer` under `trace_id`.
pub fn run_trial(
    spec: &TopologySpec,
    kind: ScenarioKind,
    seed: u64,
    tracer: &mut Tracer,
    trace_id: u64,
) -> Result<Trial, String> {
    let score = ScoreConfig::default();
    let t_all = Instant::now();
    let root = tracer.open("trial", trace_id, None);
    let mut times = TrialTimes::default();

    let span = tracer.open("workloads.build", trace_id, root);
    let t = Instant::now();
    let scenario = build_scenario_on(spec, kind, cell_params(spec, seed)).map_err(|e| {
        format!(
            "{}/{}/s{seed}: build rejected: {e:?}",
            spec.slug(),
            kind.name()
        )
    })?;
    times.build_ns = ns(t);
    tracer.close(span);

    let cfg = optimal_run_config(seed);
    let hcfg = HawkeyeConfig {
        telemetry: TelemetryConfig {
            epochs: cfg.epoch,
            ..Default::default()
        },
        policy: cfg.policy,
        faults: cfg.faults,
        ..Default::default()
    };
    let span = tracer.open("sim.instantiate", trace_id, root);
    let t = Instant::now();
    let hook = LayerHook::new(HawkeyeHook::new(&scenario.topo, hcfg));
    let mut agent = Scenario::agent(cfg.threshold_factor);
    agent.dedup_interval = Nanos::from_micros(400);
    agent.retry = cfg.agent_retry;
    let mut sim = scenario.instantiate_faulted(cfg.sim_seed, agent, hook, cfg.faults);
    times.instantiate_ns = ns(t);
    tracer.close(span);

    let run_span = tracer.open("sim.run", trace_id, root);
    let run_start = tracer.now();
    let t = Instant::now();
    sim.run_until(scenario.params.duration);
    times.run_ns = ns(t);
    tracer.close(run_span);
    let counts = sim.hook.counts;
    // The hook callbacks are timed in aggregate, not one span per call;
    // they are drawn back to back from the start of `sim.run` so its self
    // time is the event loop alone.
    let enq_end = run_start + counts.enqueue_ns;
    tracer.add(
        "telemetry.on_enqueue",
        trace_id,
        run_span,
        run_start,
        enq_end,
    );
    tracer.add(
        "collector.on_probe",
        trace_id,
        run_span,
        enq_end,
        enq_end + counts.probe_ns,
    );

    let analyzer = AnalyzerConfig::for_epoch_len(cfg.epoch.epoch_len());
    let dets = sim.detections();
    let collector = &sim.hook.inner().collector;
    let snapshots = collector.snapshots();
    let topo = sim.topo();
    let truth = &scenario.truth;
    let window = victim_window(
        &dets,
        &truth.victim,
        truth.anomaly_at,
        cfg.epoch.epoch_len(),
        analyzer.lookback_epochs,
    );
    let missing: Vec<NodeId> = window
        .map(|w| collector.missing_switches(w.from, w.to))
        .unwrap_or_default();
    let error = if window.is_none() {
        Some(DiagnosisError::NoDetection {
            victim: truth.victim,
        })
    } else if snapshots.is_empty() {
        Some(DiagnosisError::NoTelemetry {
            victim: truth.victim,
            missing: missing.clone(),
        })
    } else {
        None
    };

    let span = tracer.open("analyze", trace_id, root);
    let analyze_start = tracer.now();
    let mut graph_nodes = 0;
    let report = window.map(|w| {
        let mut obs = Recorder::new(ObsConfig {
            enabled: true,
            capacity: 8,
            mask: kind::STAGE,
        });
        let (mut r, g, _) =
            analyze_victim_window_obs(&truth.victim, w, &snapshots, topo, &analyzer, &mut obs);
        times.aggregate_ns = obs.profile.wall_total_ns(Stage::TelemetryCollection);
        times.graph_ns = obs.profile.wall_total_ns(Stage::GraphBuild);
        times.match_ns = obs.profile.wall_total_ns(Stage::SignatureMatch);
        graph_nodes = g.ports.len() + g.flows.len();
        r.note_missing(&missing);
        r
    });
    tracer.close(span);
    let mut at = analyze_start;
    for (stage, d) in [
        (Stage::TelemetryCollection, times.aggregate_ns),
        (Stage::GraphBuild, times.graph_ns),
        (Stage::SignatureMatch, times.match_ns),
    ] {
        tracer.add(stage.name(), trace_id, span, at, at + d);
        at += d;
    }

    let span = tracer.open("eval.judge", trace_id, root);
    let verdict = report.as_ref().map(|r| judge(truth, r, &score));
    let outcome = RunOutcome {
        detection: None,
        report,
        verdict,
        collected_switches: Vec::new(),
        causal_covered: 0,
        causal_total: 0,
        collected_bytes: 0,
        collected_bytes_full_dump: 0,
        report_packets: 0,
        polling_packets: 0,
        data_packets: 0,
        all_detections: dets.len(),
        error,
        metrics: Default::default(),
    };
    let cell = outcome_to_verdict(&outcome, &score);
    tracer.close(span);

    let snapshots_n = collector.events.len();
    let bytes = collector.total_bytes();
    let events = sim.events_processed();
    drop(sim);
    times.total_ns = ns(t_all);
    tracer.close(root);
    Ok(Trial {
        cell,
        stats: TrialStats {
            events,
            hook: counts,
            snapshots: snapshots_n,
            bytes,
            graph_nodes,
            times,
        },
    })
}
