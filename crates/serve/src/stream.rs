//! Streaming telemetry out of a running simulation.
//!
//! [`StreamingHook`] decorates the concrete [`HawkeyeHook`] (the same
//! decorator shape as [`ObservedHook`](hawkeye_sim::ObservedHook)): every
//! simulator callback is delegated unchanged — probe decisions, telemetry
//! registers and the local collector behave bit-for-bit as in a one-shot
//! run — and after each `on_probe` any collection events the hook's
//! collector just accepted are *additionally* buffered and pushed into an
//! [`EpochSink`], [`EpochSink::frame_len`] snapshots per frame. Replays through the daemon therefore produce the exact
//! simulation trajectory of the one-shot path, which is what makes
//! served-vs-one-shot verdict parity a meaningful check.

use hawkeye_client::{EpochSink, SinkAck};
use hawkeye_core::HawkeyeHook;
use hawkeye_sim::{
    EnqueueRecord, Nanos, NodeId, PfcEvent, Probe, ProbeDecision, SwitchHook, SwitchView,
};
use hawkeye_telemetry::TelemetrySnapshot;

/// Delivery counters for one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub pushed: u64,
    /// Sink accepted the write but shed the snapshot (daemon backpressure).
    pub shed: u64,
    /// Sink I/O failures (daemon unreachable); streaming degrades to a
    /// local-only run rather than aborting the simulation.
    pub errors: u64,
}

/// See module docs.
pub struct StreamingHook<S: EpochSink> {
    inner: HawkeyeHook,
    sink: S,
    /// Collector events already forwarded (`inner.collector.events` is
    /// append-only).
    forwarded: usize,
    /// Buffered snapshots awaiting a full frame.
    buf: Vec<TelemetrySnapshot>,
    pub stats: StreamStats,
}

impl<S: EpochSink> StreamingHook<S> {
    pub fn new(inner: HawkeyeHook, sink: S) -> Self {
        StreamingHook {
            inner,
            sink,
            forwarded: 0,
            buf: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    pub fn inner(&self) -> &HawkeyeHook {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut HawkeyeHook {
        &mut self.inner
    }

    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwrap into the inner hook, the sink, and the delivery counters.
    /// Flushes any buffered partial batch and settles pipelined acks
    /// first, so the counters cover everything the run produced.
    pub fn into_parts(mut self) -> (HawkeyeHook, S, StreamStats) {
        self.finish();
        (self.inner, self.sink, self.stats)
    }

    /// Flush the partial frame and settle everything in flight. Idempotent.
    pub fn finish(&mut self) {
        if !self.buf.is_empty() {
            self.send();
        }
        match self.sink.finish() {
            Ok(ack) => self.note(ack),
            Err(_) => self.stats.errors += 1,
        }
    }

    fn note(&mut self, ack: SinkAck) {
        self.stats.pushed += ack.accepted;
        self.stats.shed += ack.shed;
    }

    /// Send the buffered snapshots as one frame.
    fn send(&mut self) {
        match self.sink.push_batch(&self.buf) {
            Ok(ack) => self.note(ack),
            Err(_) => self.stats.errors += self.buf.len() as u64,
        }
        self.buf.clear();
    }

    /// Forward collector events accepted since the last drain.
    fn drain(&mut self) {
        while self.forwarded < self.inner.collector.events.len() {
            let snap = self.inner.collector.events[self.forwarded].snapshot.clone();
            self.forwarded += 1;
            self.buf.push(snap);
            if self.buf.len() >= self.sink.frame_len() {
                self.send();
            }
        }
    }
}

impl<S: EpochSink> SwitchHook for StreamingHook<S> {
    #[inline]
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        self.inner.on_data_enqueue(rec);
    }

    #[inline]
    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
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
        // Collections happen inside this call (CPU mirror → collector).
        let decision = self.inner.on_probe(switch, in_port, probe, view, now);
        self.drain();
        decision
    }
}
