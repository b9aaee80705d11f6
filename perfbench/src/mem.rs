//! Peak resident memory, read from `/proc/self/status`.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the kernel's `VmHWM`
//! high-water mark, so a peak read after one trial belongs to that trial
//! alone. Where the reset is refused, `VmHWM` is the process-lifetime peak
//! and the run record says so.

/// How a peak was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakMode {
    /// `VmHWM` was reset before the measured span.
    Reset,
    /// The reset was refused: the figure is the process maximum so far.
    ProcessMax,
}

impl PeakMode {
    pub fn label(self) -> &'static str {
        match self {
            PeakMode::Reset => "vmhwm-reset-per-span",
            PeakMode::ProcessMax => "process-max-rss (clear_refs refused)",
        }
    }
}

/// Start a new peak-measurement span.
pub fn reset_peak() -> PeakMode {
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => PeakMode::Reset,
        Err(_) => PeakMode::ProcessMax,
    }
}

/// Peak resident set since the last reset, in MiB.
pub fn peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}
