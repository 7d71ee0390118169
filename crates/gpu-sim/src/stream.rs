//! Stream timelines: overlap accounting for multi-resource pipelines.
//!
//! [`pipelined_makespan`](crate::xfer::pipelined_makespan) models the fixed
//! copy→compute pattern of one cleaning round. Batched query execution
//! needs something more general: the host refines query *i* while the
//! device runs query *i+1*, so simulated time must be tracked per resource
//! ("stream") with cross-stream dependencies. [`StreamTimeline`] is that
//! scheduler: each stream serialises its own operations, an operation may
//! additionally wait on a `ready` time produced by another stream, and the
//! makespan is when the last stream drains.

use crate::time::SimNanos;

/// A set of serially-executing streams sharing one simulated clock.
#[derive(Clone, Debug)]
pub struct StreamTimeline {
    ends: Vec<SimNanos>,
}

impl StreamTimeline {
    /// Create `streams` empty streams, all at time zero.
    pub fn new(streams: usize) -> Self {
        assert!(streams >= 1, "need at least one stream");
        Self {
            ends: vec![SimNanos::ZERO; streams],
        }
    }

    pub fn num_streams(&self) -> usize {
        self.ends.len()
    }

    /// Schedule an operation of length `dur` on `stream`. It starts at the
    /// later of `ready` (its cross-stream dependency) and the stream's own
    /// previous operation finishing, and runs without preemption. Returns
    /// the operation's end time, usable as `ready` for dependents.
    ///
    /// An operation of zero duration issues nothing: it still returns
    /// `max(ready, end)` for its dependents, but it leaves the stream's end
    /// (and so the makespan) where it was, so it cannot hold the stream for
    /// whatever comes next.
    pub fn push(&mut self, stream: usize, ready: SimNanos, dur: SimNanos) -> SimNanos {
        let end = self.ends[stream].max(ready) + dur;
        if dur > SimNanos::ZERO {
            self.ends[stream] = end;
        }
        end
    }

    /// Current end time of one stream.
    pub fn end(&self, stream: usize) -> SimNanos {
        self.ends[stream]
    }

    /// Time when every stream has drained.
    pub fn makespan(&self) -> SimNanos {
        self.ends.iter().copied().max().unwrap_or(SimNanos::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_serialises() {
        let mut tl = StreamTimeline::new(1);
        let a = tl.push(0, SimNanos::ZERO, SimNanos(10));
        let b = tl.push(0, SimNanos::ZERO, SimNanos(5));
        assert_eq!(a, SimNanos(10));
        assert_eq!(b, SimNanos(15));
        assert_eq!(tl.makespan(), SimNanos(15));
    }

    #[test]
    fn ready_delays_start() {
        let mut tl = StreamTimeline::new(2);
        let d = tl.push(0, SimNanos::ZERO, SimNanos(10));
        // Host op depends on the device op; stream 1 is idle until then.
        let h = tl.push(1, d, SimNanos(7));
        assert_eq!(h, SimNanos(17));
    }

    #[test]
    fn overlap_beats_serial_sum() {
        // Two queries: device 10, host 10 each. Serial = 40; pipelined:
        // device 0..10, 10..20; host 10..20, 20..30.
        let mut tl = StreamTimeline::new(2);
        let mut serial = SimNanos::ZERO;
        for _ in 0..2 {
            let d = tl.push(0, SimNanos::ZERO, SimNanos(10));
            tl.push(1, d, SimNanos(10));
            serial += SimNanos(20);
        }
        assert_eq!(tl.makespan(), SimNanos(30));
        assert!(tl.makespan() < serial);
    }

    #[test]
    fn makespan_never_exceeds_serial_sum() {
        // Any schedule's makespan is bounded by executing everything
        // back-to-back on one stream.
        let durs = [3u64, 8, 1, 12, 5, 9];
        let mut tl = StreamTimeline::new(3);
        let mut serial = SimNanos::ZERO;
        let mut ready = SimNanos::ZERO;
        for (i, &d) in durs.iter().enumerate() {
            ready = tl.push(i % 3, ready, SimNanos(d));
            serial += SimNanos(d);
        }
        assert!(tl.makespan() <= serial);
    }

    #[test]
    fn empty_operation_holds_no_stream() {
        let mut tl = StreamTimeline::new(2);
        tl.push(0, SimNanos::ZERO, SimNanos(10));
        // Ready after the stream's end: dependents see `ready`, but the
        // stream's end and the makespan stay where they were.
        assert_eq!(tl.push(0, SimNanos(40), SimNanos::ZERO), SimNanos(40));
        assert_eq!(tl.end(0), SimNanos(10));
        assert_eq!(tl.makespan(), SimNanos(10));
        // Ready before the stream's end: dependents see the end.
        assert_eq!(tl.push(0, SimNanos(3), SimNanos::ZERO), SimNanos(10));
        assert_eq!(tl.end(0), SimNanos(10));
        // A real operation after it starts at the old end.
        assert_eq!(tl.push(0, SimNanos::ZERO, SimNanos(5)), SimNanos(15));
        assert_eq!(tl.end(1), SimNanos::ZERO);
    }

    #[test]
    fn three_stage_round_trip() {
        // device → host → device dependency chain for one item keeps the
        // device stream's order while respecting the host hop.
        let mut tl = StreamTimeline::new(2);
        let d1 = tl.push(0, SimNanos::ZERO, SimNanos(10)); // device phase q1
        let d2 = tl.push(0, SimNanos::ZERO, SimNanos(10)); // device phase q2
        let r1 = tl.push(1, d1, SimNanos(4)); // host refine q1 (overlaps d2)
        let f1 = tl.push(0, r1, SimNanos(2)); // device finalise q1
        assert_eq!(d2, SimNanos(20));
        assert_eq!(r1, SimNanos(14));
        assert_eq!(f1, SimNanos(22));
    }
}
