//! What every workload shares: the seeded inputs, the record kept per
//! operation, and the sender-side counters read around each send.

use adoc::TransferStats;
use adoc_data::{generate, DataKind};
use std::time::Instant;

/// Buffer size of the default pipeline: the codec works on (and the
/// level controller decides per) buffers of this many bytes.
pub const BUFFER_BYTES: usize = 200 * 1024;

/// The three data kinds, in rotation order, with their metric labels.
pub const KINDS: [(DataKind, &str); 3] = [
    (DataKind::Ascii, "ascii"),
    (DataKind::Binary, "binary"),
    (DataKind::Incompressible, "incomp"),
];

/// One large and one small payload per kind, all derived from the seed.
pub struct Inputs {
    pub large: [Vec<u8>; 3],
    pub small: [Vec<u8>; 3],
}

impl Inputs {
    pub fn generate(large_bytes: usize, small_bytes: usize, seed: u64) -> Inputs {
        let base = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let make = |k: usize, n: usize, salt: u64| generate(KINDS[k].0, n, base ^ salt ^ k as u64);
        Inputs {
            large: std::array::from_fn(|k| make(k, large_bytes, 0x4C41_5247)),
            small: std::array::from_fn(|k| make(k, small_bytes, 0x534D_414C)),
        }
    }

    pub fn payload(&self, kind: usize, large: bool) -> &[u8] {
        if large {
            &self.large[kind]
        } else {
            &self.small[kind]
        }
    }
}

/// The sender-side counters one send moved.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendDelta {
    pub raw: u64,
    pub wire: u64,
    pub buffers: [u64; 11],
    pub level_changes: u64,
    pub probes: u64,
    pub fast_path_hits: u64,
    pub direct_msgs: u64,
    pub ratio_trips: u64,
    pub divergence_reverts: u64,
}

/// Counters of a [`TransferStats`] at one instant.
#[derive(Debug, Clone, Copy)]
pub struct StatsMark {
    buffers: [u64; 11],
    timeline_len: usize,
    probes: u64,
    fast_path_hits: u64,
    direct_msgs: u64,
    ratio_trips: u64,
    divergence_reverts: u64,
}

impl StatsMark {
    pub fn of(s: &TransferStats) -> StatsMark {
        StatsMark {
            buffers: s.buffers_at_level,
            timeline_len: s.level_timeline.len(),
            probes: s.probes,
            fast_path_hits: s.fast_path_hits,
            direct_msgs: s.direct_messages,
            ratio_trips: s.ratio_trips,
            divergence_reverts: s.divergence_reverts,
        }
    }

    /// What changed between this mark and `now`, for a send that put
    /// `raw` payload bytes and `wire` bytes on the wire.
    pub fn delta(&self, now: &TransferStats, raw: u64, wire: u64) -> SendDelta {
        let after = StatsMark::of(now);
        let timeline = &now.level_timeline[self.timeline_len.min(after.timeline_len)..];
        SendDelta {
            raw,
            wire,
            buffers: std::array::from_fn(|l| after.buffers[l] - self.buffers[l]),
            level_changes: crate::stats::level_changes(timeline.iter().map(|e| e.level)),
            probes: after.probes - self.probes,
            fast_path_hits: after.fast_path_hits - self.fast_path_hits,
            direct_msgs: after.direct_msgs - self.direct_msgs,
            ratio_trips: after.ratio_trips - self.ratio_trips,
            divergence_reverts: after.divergence_reverts - self.divergence_reverts,
        }
    }
}

/// One completed operation: a one-way message on the sim links, an echo
/// round trip on the daemon.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub kind: usize,
    pub large: bool,
    /// Payload bytes the receiving application verified.
    pub bytes: u64,
    /// Seconds inside the sender's write call.
    pub write_s: f64,
    /// Seconds from the write call's return until the receiving
    /// application held every byte.
    pub read_s: f64,
    /// The delivered bytes equal the sent ones.
    pub ok: bool,
    pub send: SendDelta,
}

impl OpRecord {
    /// Seconds from the write call until the receiver held every byte.
    pub fn latency_s(&self) -> f64 {
        self.write_s + self.read_s
    }
}

/// The operations of one measured phase and the wall time they took.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: Vec<OpRecord>,
    pub wall_s: f64,
}

/// Root span names of a workload: one per kind for large messages,
/// then one for small messages.
pub type SpanNames = [&'static str; 4];

/// When one operation's steps began and ended.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub start: Instant,
    pub written: Instant,
    pub read_start: Instant,
    pub done: Instant,
}

/// Spans an operation's write, its read and the whole operation under
/// one message id.
pub fn trace_op(
    tracer: &crate::trace::Tracer,
    names: &SpanNames,
    op: (usize, bool),
    msg: u64,
    t: OpTimes,
) {
    let name = names[if op.1 { op.0 } else { 3 }];
    let root = tracer.id();
    tracer.record("socket.write", msg, Some(root), t.start, t.written);
    tracer.record("socket.read", msg, Some(root), t.read_start, t.done);
    tracer.record_as(root, name, msg, None, t.start, t.done);
}
