//! `oneshot-ft16`: sequential (one job) one-shot trials of every pinned
//! corpus cell of the fabric, in an order drawn from the seed, each
//! through the program's `build_scenario_on` + `run_hawkeye` path.
//!
//! The simulator's event loop and topology/scenario construction carry
//! almost all of a trial; diagnosis is a sliver. Every trial's reduced
//! verdict is compared with its pin in `tests/corpus_golden.json`, and
//! any drift is a failed operation. The run covers every pinned cell at
//! least once, then keeps cycling until its seconds are spent.

use crate::mem::{peak_mb, reset_peak, PeakMode};
use crate::metrics::{List, Values};
use crate::record::{median, percentile, Outcome};
use crate::trace::Tracer;
use crate::trial::{run_trial, TrialStats};
use crate::{golden_path, shuffle, Params};
use hawkeye_eval::corpus::{cell_params, outcome_to_verdict};
use hawkeye_eval::{
    diff_cells, golden_from_json, optimal_run_config, run_hawkeye, CellVerdict, CorpusCell,
    ScoreConfig, Verdict,
};
use hawkeye_workloads::{build_scenario_on, ScenarioKind, TopologySpec};
use serde::Value;
use std::time::Instant;

/// One pinned cell to run.
#[derive(Debug, Clone)]
pub struct Cell {
    pub kind: ScenarioKind,
    pub seed: u64,
    pub pin: CorpusCell,
}

/// The golden file's pins for `spec`, in an order drawn from `seed`.
pub fn pinned_cells(spec: &TopologySpec, seed: u64) -> Result<Vec<Cell>, String> {
    let path = golden_path();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let slug = spec.slug();
    let mut cells: Vec<Cell> = golden_from_json(&text)?
        .into_iter()
        .filter(|c| c.key.topo == slug)
        .map(|pin| {
            let kind = ScenarioKind::from_name(&pin.key.scenario)
                .ok_or_else(|| format!("unknown scenario {:?} in golden file", pin.key.scenario))?;
            Ok(Cell {
                kind,
                seed: pin.key.seed,
                pin,
            })
        })
        .collect::<Result<_, String>>()?;
    if cells.is_empty() {
        return Err(format!("no pinned cells for {slug}"));
    }
    shuffle(&mut cells, seed);
    Ok(cells)
}

/// One cell's trials over a pass.
#[derive(Debug, Clone, Copy, Default)]
struct CellTotals {
    secs: f64,
    runs: u32,
    report_packets: u64,
}

impl CellTotals {
    fn mean_secs(&self) -> f64 {
        self.secs / f64::from(self.runs.max(1))
    }
}

/// Per-trial figures of one pass.
#[derive(Default)]
struct Pass {
    trial_s: Vec<f64>,
    peak_mb: Vec<f64>,
    /// Per-cell totals: rates and percentiles weigh every cell once
    /// however often it ran, so which cells the last partial pass reached
    /// does not move them.
    cells: Vec<CellTotals>,
    /// Verdict of each distinct cell (first run of it).
    correct: Vec<Option<bool>>,
    /// Per-layer figures of each trial (traced pass only).
    stats: Vec<TrialStats>,
}

/// What one trial of a cell produced.
struct TrialResult {
    cell: CellVerdict,
    correct: bool,
    secs: f64,
    report_packets: u64,
    stats: Option<TrialStats>,
}

/// One trial through the program's own path, timed whole: exactly what
/// `hawkeye_eval::run_cell` does — `build_scenario_on`, `run_hawkeye`,
/// `outcome_to_verdict` — keeping the outcome it reduces away.
fn program_trial(spec: &TopologySpec, cell: &Cell) -> Result<TrialResult, String> {
    let score = ScoreConfig::default();
    let t = Instant::now();
    let scenario = build_scenario_on(spec, cell.kind, cell_params(spec, cell.seed))
        .map_err(|e| format!("{}: build rejected: {e:?}", cell.pin.key))?;
    let outcome = run_hawkeye(&scenario, &optimal_run_config(cell.seed), &score);
    let verdict = outcome_to_verdict(&outcome, &score);
    let secs = t.elapsed().as_secs_f64();
    Ok(TrialResult {
        cell: verdict,
        correct: outcome.verdict == Some(Verdict::Correct),
        secs,
        report_packets: outcome.report_packets as u64,
        stats: None,
    })
}

/// One trial split at its layer boundaries, traced.
fn traced_trial(
    spec: &TopologySpec,
    cell: &Cell,
    tracer: &mut Tracer,
    id: u64,
) -> Result<TrialResult, String> {
    let trial = run_trial(spec, cell.kind, cell.seed, tracer, id)?;
    Ok(TrialResult {
        correct: trial.cell.verdict == "correct",
        cell: trial.cell,
        secs: trial.stats.times.total_ns as f64 / 1e9,
        report_packets: 0,
        stats: Some(trial.stats),
    })
}

/// Run cells from the start of `cells`, wrapping around, until every cell
/// ran once and `min_s` seconds have passed. Trials go through the
/// program's path, or through the traced split when `tracer` is on.
fn run_pass(
    spec: &TopologySpec,
    cells: &[Cell],
    min_s: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mode: &mut PeakMode,
) -> Pass {
    let mut pass = Pass {
        correct: vec![None; cells.len()],
        cells: vec![CellTotals::default(); cells.len()],
        ..Pass::default()
    };
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < cells.len() || t0.elapsed().as_secs_f64() < min_s {
        let idx = i % cells.len();
        let cell = &cells[idx];
        i += 1;
        out.attempted += 1;
        if reset_peak() == PeakMode::ProcessMax {
            *mode = PeakMode::ProcessMax;
        }
        let trial = if tracer.enabled() {
            traced_trial(spec, cell, tracer, i as u64)
        } else {
            program_trial(spec, cell)
        };
        let trial = match trial {
            Ok(t) => t,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        pass.peak_mb.push(peak_mb());
        let actual = CorpusCell {
            key: cell.pin.key.clone(),
            verdict: trial.cell,
        };
        let diffs = diff_cells(
            std::slice::from_ref(&cell.pin),
            std::slice::from_ref(&actual),
            true,
        );
        if let Some(d) = diffs.first() {
            out.fail(format!("pinned cell drifted: {d}"));
        }
        pass.correct[idx].get_or_insert(trial.correct);
        pass.trial_s.push(trial.secs);
        let c = &mut pass.cells[idx];
        c.secs += trial.secs;
        c.runs += 1;
        c.report_packets += trial.report_packets;
        pass.stats.extend(trial.stats);
    }
    pass
}

impl Pass {
    /// Trials and collected report packets per second of trial time,
    /// each cell counted once at its mean over its runs.
    fn rates(&self) -> (f64, f64) {
        let secs: f64 = self.cells.iter().map(CellTotals::mean_secs).sum();
        let packets: f64 = self
            .cells
            .iter()
            .map(|c| c.report_packets as f64 / f64::from(c.runs.max(1)))
            .sum();
        let secs = secs.max(1e-9);
        (self.cells.len() as f64 / secs, packets / secs)
    }

    /// Percentile `q` of the cells' mean trial times, in ms.
    fn cell_ms(&self, q: f64) -> f64 {
        let ms: Vec<f64> = self.cells.iter().map(|c| c.mean_secs() * 1e3).collect();
        percentile(&ms, q)
    }
}

pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let spec = p.size.oneshot_topo;
    let mut v = Values::default();

    // Set-up: read the pins and build the fabric's topology, repeated.
    let mut setup_s = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..p.size.setups.max(1) {
        let t = Instant::now();
        match pinned_cells(&spec, p.seed).and_then(|c| {
            spec.build()
                .map_err(|e| format!("{}: {e:?}", spec.slug()))?;
            Ok(c)
        }) {
            Ok(c) => cells = c,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("set-up: {e}"));
                break;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut mode = PeakMode::Reset;
    let mut tracer = Tracer::new(p.trace);
    if !cells.is_empty() {
        if p.trace {
            // One pass through the program's path and one traced pass
            // over the same cells; their difference per cell is the
            // tracing overhead.
            let base = run_pass(
                &spec,
                &cells,
                0.0,
                &mut Tracer::new(false),
                &mut Outcome::default(),
                &mut mode,
            );
            let pass = run_pass(&spec, &cells, 0.0, &mut tracer, &mut out, &mut mode);
            let ratio: Vec<f64> = pass
                .trial_s
                .iter()
                .zip(&base.trial_s)
                .map(|(t, u)| 100.0 * (t / u.max(1e-12) - 1.0))
                .collect();
            v.set_trial_layers(&pass.stats);
            let per =
                |f: &dyn Fn(&TrialStats) -> f64| -> Vec<f64> { pass.stats.iter().map(f).collect() };
            let agg = per(&|t| t.times.aggregate_ns as f64 / 1e3);
            v.set_median("aggregate.build_us", agg);
            let g = per(&|t| t.times.graph_ns as f64 / 1e3);
            v.set_median("provenance.build_graph_us", g);
            v.set(
                "provenance.graph_nodes",
                median(&per(&|t| t.graph_nodes as f64)),
            );
            let m = per(&|t| t.times.match_ns as f64 / 1e3);
            v.set_median("diagnosis.diagnose_us", m);
            v.set("trace.unattributed_pct", tracer.unattributed_pct("trial"));
            v.set_median("trace.overhead_pct", ratio);
            v.set("trace.spans", tracer.spans().len() as f64);
        } else {
            let pass = run_pass(&spec, &cells, p.seconds, &mut tracer, &mut out, &mut mode);
            let judged: Vec<bool> = pass.correct.iter().flatten().copied().collect();
            let accuracy =
                judged.iter().filter(|&&c| c).count() as f64 / judged.len().max(1) as f64;
            let (trials_per_s, packets_per_s) = pass.rates();
            let trial_ms: Vec<f64> = pass.trial_s.iter().map(|s| s * 1e3).collect();
            let rates: Vec<f64> = pass.trial_s.iter().map(|s| 1.0 / s.max(1e-12)).collect();
            v.set_samples("trials_per_s", trials_per_s, rates);
            v.set_samples(
                "peak_rss_mb",
                pass.peak_mb.iter().copied().fold(0.0, f64::max),
                pass.peak_mb.clone(),
            );
            v.set("diagnosis_accuracy", accuracy);
            v.set_samples("diagnose_p50_ms", pass.cell_ms(0.5), trial_ms.clone());
            v.set_samples("diagnose_p90_ms", pass.cell_ms(0.9), trial_ms);
            v.set("ingest_snaps_per_s", packets_per_s);
            v.set_median("setup_s", setup_s.clone());
        }
    }
    v.emit(
        if p.trace {
            List::PerLayer
        } else {
            List::EndToEnd
        },
        &mut out,
    );
    out.note("rss_mode", Value::Str(mode.label().into()));
    out.note("cells", Value::UInt(cells.len() as u64));
    crate::write_trace(p, &tracer);
    out
}
