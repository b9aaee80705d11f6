//! The metric vocabulary: every run prints every end-to-end metric
//! (untraced) or every per-layer metric (traced), by the name and unit
//! `BENCHMARK.json` declares, in the order it lists them.

use crate::record::median;
use crate::record::{Metric, Outcome};
use crate::trial::TrialStats;
use std::collections::BTreeMap;

/// `BENCHMARK.json` at the repository root: the one declaration of every
/// metric's name and unit.
const DECLARED: &str = include_str!("../../BENCHMARK.json");

/// The two metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum List {
    /// What a user of the pipeline sees (untraced runs).
    EndToEnd,
    /// Single layers (the traced run).
    PerLayer,
}

impl List {
    fn key(self) -> &'static str {
        match self {
            List::EndToEnd => "end_to_end",
            List::PerLayer => "per_layer",
        }
    }
}

/// `(name, unit)` of every metric of `list`, in `BENCHMARK.json` order.
pub fn declared(list: List) -> Vec<(String, String)> {
    let doc = serde_json::parse(DECLARED).expect("BENCHMARK.json parses");
    doc.get(list.key())
        .and_then(|v| v.as_array())
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metric values gathered by name before they are emitted in list order.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, (f64, Vec<f64>)>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, Vec::new()));
    }

    pub fn set_samples(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        self.values.insert(name, (value, samples));
    }

    /// The median of `samples`, keeping the samples for the run record.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set_samples(name, median(&samples), samples);
    }

    /// Push every metric of `list` into `out`. A layer not on this
    /// workload's path did no work: it reads 0.
    pub fn emit(mut self, list: List, out: &mut Outcome) {
        for (name, unit) in declared(list) {
            let (v, samples) = self
                .values
                .remove(name.as_str())
                .unwrap_or((0.0, Vec::new()));
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            out.push(Metric::new(name, unit, v + 0.0).with_samples(samples));
        }
        let undeclared: Vec<&str> = self.values.keys().copied().collect();
        assert!(
            undeclared.is_empty(),
            "metrics set but not declared in BENCHMARK.json: {undeclared:?}"
        );
    }

    /// The simulator, telemetry-hook, collector and one-shot analysis
    /// layers of a set of trials (medians per trial).
    pub fn set_trial_layers(&mut self, trials: &[TrialStats]) {
        let mut put = |name: &'static str, f: &dyn Fn(&TrialStats) -> f64| {
            self.set_median(name, trials.iter().map(f).collect());
        };
        put("workloads.build_ms", &|t| t.times.build_ns as f64 / 1e6);
        put("sim.instantiate_ms", &|t| {
            t.times.instantiate_ns as f64 / 1e6
        });
        put("sim.run_ms", &|t| t.times.run_ns as f64 / 1e6);
        put("sim.events", &|t| t.events as f64);
        put("sim.events_per_s", &|t| {
            t.events as f64 / (t.times.run_ns as f64 / 1e9).max(1e-12)
        });
        put("telemetry.enqueue_calls", &|t| t.hook.enqueue_calls as f64);
        put("telemetry.pfc_calls", &|t| t.hook.pfc_calls as f64);
        put("telemetry.enqueue_ns", &|t| {
            t.hook.enqueue_ns as f64 / t.hook.enqueue_calls.max(1) as f64
        });
        put("collector.probe_calls", &|t| t.hook.probe_calls as f64);
        put("collector.probe_ms", &|t| t.hook.probe_ns as f64 / 1e6);
        put("collector.snapshots", &|t| t.snapshots as f64);
        put("collector.bytes", &|t| t.bytes as f64);
    }
}
