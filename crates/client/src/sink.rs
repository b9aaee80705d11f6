//! Where streamed collection epochs go.

use hawkeye_telemetry::TelemetrySnapshot;
use std::io;

/// Delivery outcome settled by a batched/pipelined sink operation. A
/// pipelining sink (the credit-window [`ServeClient`](crate::ServeClient))
/// may settle acknowledgements for *earlier* pushes during any call, so
/// counts are cumulative deltas, not per-call verdicts; after
/// [`EpochSink::finish`] everything pushed has been settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkAck {
    /// Snapshots acknowledged as ingested.
    pub accepted: u64,
    /// Snapshots acknowledged as shed (Shed overload policy only).
    pub shed: u64,
}

/// Where streamed snapshots go: frames of up to [`EpochSink::frame_len`]
/// snapshots. `Err` means the sink is gone; a shed (the daemon's `Shed`
/// overload policy) is a count in the returned [`SinkAck`], not an error.
pub trait EpochSink {
    /// Snapshots per frame: a streaming producer buffers this many before
    /// each [`EpochSink::push_batch`]. The default, 1, sends every
    /// snapshot as a batch of one.
    fn frame_len(&self) -> usize {
        1
    }

    /// Send one frame of snapshots. A pipelining sink (the credit-window
    /// [`ServeClient`](crate::ServeClient)) may settle acks lazily — see
    /// [`SinkAck`].
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck>;

    /// Settle everything still in flight (pipelined sends awaiting
    /// acknowledgement). The default is a no-op for synchronous sinks.
    fn finish(&mut self) -> io::Result<SinkAck> {
        Ok(SinkAck::default())
    }
}

/// A sink that buffers everything — unit tests and local captures.
#[derive(Debug, Default)]
pub struct VecSink {
    pub snaps: Vec<TelemetrySnapshot>,
}

impl EpochSink for VecSink {
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck> {
        self.snaps.extend_from_slice(snaps);
        Ok(SinkAck {
            accepted: snaps.len() as u64,
            shed: 0,
        })
    }
}
