//! Per-query spans: wall time split into queue/plan/io/join/emit.
//!
//! The stage boundaries, and what each honestly measures:
//!
//! ```text
//! ──┤ queue ├──┤ plan ├──┤───────────── drive ─────────────├──┤ emit ├──
//!               handle +      ┌───────────┬───────────┐       response
//!   admission   cursor        │   join    │    io     │       assembly +
//!   wait        construction  │ (compute) │ (blocked) │       recording
//!                             └───────────┴───────────┘
//! ```
//!
//! * **queue** — time parked in the admission wait queue;
//! * **plan** — opening the query's cache handle and building the
//!   cursor (schedule materialization included);
//! * **io** — wall time the driver was *blocked on reads*: what the
//!   cursor measured around its own two blocking calls, the park and the
//!   final drain ([`rsj_core::JoinCursor::blocked`]). Submission itself
//!   is asynchronous and costs nanoseconds; what hurts a query is
//!   waiting, and that is exactly what this stage counts;
//! * **join** — drive-loop time minus io: comparisons, sweeps, scratch
//!   work, and the per-pair sink;
//! * **emit** — response assembly and telemetry recording after the
//!   last pair.
//!
//! With the [`Disabled`](rsj_telemetry::Disabled) recorder every clock
//! read of the service compiles out and the span reports zeros; the
//! cursor's two clock reads per park are its own and stay.

use std::time::{Duration, Instant};

use rsj_telemetry::Recorder;

/// One query's stage split, all in microseconds. `total_us` is
/// measured end to end (admission through emit) and can exceed the
/// stage sum by the unattributed gaps between clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanReport {
    pub queue_us: u64,
    pub plan_us: u64,
    pub io_us: u64,
    pub join_us: u64,
    pub emit_us: u64,
    pub total_us: u64,
}

/// `Instant::now()` only when the recorder is live.
#[inline]
pub(crate) fn now_if<R: Recorder>() -> Option<Instant> {
    if R::ENABLED {
        Some(Instant::now())
    } else {
        None
    }
}

/// `d` in whole microseconds, saturating.
#[inline]
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Microseconds since `start` (0 when recording is off).
#[inline]
pub(crate) fn us_since(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| micros(t.elapsed()))
}
