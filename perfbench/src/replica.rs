//! Time-shifted replicas of one trial's telemetry stream.
//!
//! A daemon fed the same scenario again and again must see a fabric that
//! keeps running, not the same three milliseconds re-sent: replica `r` is
//! the trial's stream moved `r` shifts later, where a shift is a whole
//! number of telemetry rings (`EpochConfig::ring_span`) longer than the
//! trial. Every timestamp moves by the shift and each epoch's ring `slot`
//! and wrap-around `id` are recomputed from its shifted start, exactly as
//! the switch would have stamped it, so the store and engine see
//! consistent epochs and retention engages as history grows.

use hawkeye_core::Window;
use hawkeye_sim::Nanos;
use hawkeye_telemetry::{EpochConfig, TelemetrySnapshot, EPOCH_ID_BITS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPlan {
    pub epochs: EpochConfig,
    /// Rings per shift.
    rings: u64,
}

impl ReplicaPlan {
    /// Shifts of at least one ring beyond the trial's `duration`, so no
    /// two replicas' epochs overlap and a diagnosis window of one replica
    /// holds none of the next one's evidence.
    pub fn new(epochs: EpochConfig, duration: Nanos) -> ReplicaPlan {
        let span = epochs.ring_span().as_nanos();
        ReplicaPlan {
            epochs,
            rings: duration.as_nanos().div_ceil(span) + 1,
        }
    }

    pub fn shift(&self) -> Nanos {
        Nanos(self.rings * self.epochs.ring_span().as_nanos())
    }

    pub fn offset(&self, replica: u64) -> Nanos {
        Nanos(self.shift().as_nanos() * replica)
    }

    /// Replica `replica` of one snapshot.
    pub fn shift_snapshot(&self, s: &TelemetrySnapshot, replica: u64) -> TelemetrySnapshot {
        let off = self.offset(replica);
        // Rings advanced, modulo the wrap-around id's width: evicted
        // entries carry only (slot, id), and a whole-ring shift keeps the
        // slot and advances the id by exactly this much.
        let id_step = ((self.rings * replica) % (1 << EPOCH_ID_BITS)) as u8;
        let mut out = s.clone();
        out.taken_at = s.taken_at + off;
        for e in &mut out.epochs {
            e.start += off;
            e.slot = self.epochs.slot(e.start);
            e.id = self.epochs.epoch_id(e.start);
        }
        for ev in &mut out.evicted {
            ev.epoch_id = ev.epoch_id.wrapping_add(id_step);
        }
        out
    }

    /// Replica `replica` of a whole stream.
    pub fn replica(&self, stream: &[TelemetrySnapshot], replica: u64) -> Vec<TelemetrySnapshot> {
        stream
            .iter()
            .map(|s| self.shift_snapshot(s, replica))
            .collect()
    }

    pub fn window(&self, w: Window, replica: u64) -> Window {
        let off = self.offset(replica);
        Window {
            from: w.from + off,
            to: w.to + off,
        }
    }
}
