//! The Hawkeye pipeline benchmark: one command, four workloads, one
//! result line. See `README.md` in this directory for why each workload
//! exists, how its streams are driven, and how to read a traced run.

pub mod daemon;
pub mod hook;
pub mod mem;
pub mod metrics;
pub mod oneshot;
pub mod record;
pub mod replica;
pub mod trace;
pub mod trial;

pub use record::{Metric, Outcome};

use hawkeye_workloads::{ScenarioKind, TopologySpec};
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential one-shot trials of every scenario kind on the K=16
    /// fat-tree, against the corpus golden pins.
    OneshotFt16,
    /// One monolith daemon per kind: open-loop replica ingest plus
    /// closed-loop Diagnose.
    ServedFt8,
    /// Closed-loop replica ingest as fast as the credit window allows
    /// into a durable daemon.
    IngestFloodFt8,
    /// `ServedFt8`'s traffic through a front-end and two shard daemons.
    FleetFt8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OneshotFt16,
        Workload::ServedFt8,
        Workload::IngestFloodFt8,
        Workload::FleetFt8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotFt16 => "oneshot-ft16",
            Workload::ServedFt8 => "served-ft8",
            Workload::IngestFloodFt8 => "ingest-flood-ft8",
            Workload::FleetFt8 => "fleet-ft8",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The fabric sizes and repetition counts of a run. [`Size::FULL`] is
/// the benchmark; [`Size::TINY`] runs the same code on the K=4 fat-tree
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub oneshot_topo: TopologySpec,
    pub daemon_topo: TopologySpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    pub const FULL: Size = Size {
        oneshot_topo: TopologySpec::FatTree { k: 16 },
        daemon_topo: TopologySpec::FatTree { k: 8 },
        setups: 3,
    };
    pub const TINY: Size = Size {
        oneshot_topo: TopologySpec::FatTree { k: 4 },
        daemon_topo: TopologySpec::FatTree { k: 4 },
        setups: 2,
    };
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where run records and traces are written.
    pub out_dir: PathBuf,
}

impl Params {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            size: Size::FULL,
            out_dir: default_out_dir(),
        }
    }
}

/// `out/` next to this package's manifest (ignored by git).
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The golden verdict file the corpus pins, read at run time so a
/// deliberate re-pin is picked up without touching the benchmark.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("tests")
        .join("corpus_golden.json")
}

/// Run one workload.
pub fn run(p: &Params) -> Outcome {
    match p.workload {
        Workload::OneshotFt16 => oneshot::run(p),
        Workload::ServedFt8 | Workload::IngestFloodFt8 | Workload::FleetFt8 => daemon::run(p),
    }
}

/// Every scenario kind, in an order drawn from `seed`.
pub fn kinds_for(seed: u64) -> Vec<ScenarioKind> {
    let mut kinds = ScenarioKind::ALL.to_vec();
    shuffle(&mut kinds, seed);
    kinds
}

/// Seeded Fisher–Yates shuffle (splitmix64 stream).
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// FNV-1a over bytes: a cheap fingerprint for "same inputs" checks.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Write a traced run's spans: Chrome trace-event JSON (load it in
/// Perfetto or `chrome://tracing`) and one JSON object per span.
pub fn write_trace(p: &Params, tracer: &trace::Tracer) {
    if !p.trace {
        return;
    }
    let stem = format!("trace-{}-s{}", p.workload.name(), p.seed);
    let _ = std::fs::create_dir_all(&p.out_dir);
    let _ = std::fs::write(p.out_dir.join(format!("{stem}.json")), tracer.chrome());
    let _ = std::fs::write(
        p.out_dir.join(format!("{stem}.spans.jsonl")),
        tracer.jsonl(),
    );
}
