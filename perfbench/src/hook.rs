//! A [`SwitchHook`] wrapper around [`HawkeyeHook`] that counts and times
//! every callback the simulator makes into the telemetry layer (traced
//! run only). It delegates unchanged, so the simulated trajectory
//! is the one the bare hook produces.

use hawkeye_core::HawkeyeHook;
use hawkeye_sim::{
    EnqueueRecord, Nanos, NodeId, PfcEvent, Probe, ProbeDecision, SwitchHook, SwitchView,
};
use std::time::Instant;

/// Calls into the hook, and the time spent in them when timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookCounts {
    pub enqueue_calls: u64,
    pub pfc_calls: u64,
    pub probe_calls: u64,
    /// Wall ns inside `on_data_enqueue` (register updates).
    pub enqueue_ns: u64,
    /// Wall ns inside `on_probe` (probe forwarding plus collection).
    pub probe_ns: u64,
}

pub struct LayerHook {
    inner: HawkeyeHook,
    pub counts: HookCounts,
}

impl LayerHook {
    pub fn new(inner: HawkeyeHook) -> LayerHook {
        LayerHook {
            inner,
            counts: HookCounts::default(),
        }
    }

    pub fn inner(&self) -> &HawkeyeHook {
        &self.inner
    }
}

impl SwitchHook for LayerHook {
    #[inline]
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        self.counts.enqueue_calls += 1;
        let t = Instant::now();
        self.inner.on_data_enqueue(rec);
        self.counts.enqueue_ns += t.elapsed().as_nanos() as u64;
    }

    #[inline]
    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        self.counts.pfc_calls += 1;
        self.inner.on_pfc_frame(ev);
    }

    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        self.counts.probe_calls += 1;
        let t = Instant::now();
        let d = self.inner.on_probe(switch, in_port, probe, view, now);
        self.counts.probe_ns += t.elapsed().as_nanos() as u64;
        d
    }
}
