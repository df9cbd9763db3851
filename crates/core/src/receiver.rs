//! The reception side of AdOC (paper Fig. 1, "symmetric but does not
//! monitor the queue size"), mirroring [`crate::sender`] for any stream
//! count, fresh or resumed: one reception loop per stream reads frames off
//! its socket into a shared, bounded `ReorderBuffer`, and the calling
//! thread decompresses frames in global sequence order into the
//! application sink — so the application sees bytes **in order** no matter
//! how the streams interleaved.
//!
//! [`receive_message`] derives the framing like the sender does: v1
//! frames carry no sequence numbers, so a v1 reception loop numbers them
//! locally and stops once the message's raw length has arrived; v2 loops
//! read the sequence numbers off the wire and stop at their stream's FIN.
//! Payloads live in pooled buffers from the shared
//! [`BufferPool`](crate::pool::BufferPool); the reorder window is capped
//! at a few frames per stream, so a slow decompressor or a stalled stream
//! backpressures the network promptly — the signal the sender's
//! divergence guard reacts to — instead of buffering unboundedly.

use crate::config::AdocConfig;
use crate::pool::PooledBuf;
use crate::sender::Framing;
use crate::wire::{self, FrameHeader, FrameHeaderV2, MsgKind};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Reorder-window frames buffered per stream (at least 4 in total).
const REORDER_FRAMES_PER_STREAM: usize = 2;

/// Live progress of a receive, exposed so a session-serving caller can
/// park a partially-delivered message when the connection dies and
/// continue it on the next one (by passing the parked progress back as
/// the `resume` of [`receive_message`]). Only v2-framed adaptive messages
/// are resumable: direct bodies and v1 framing have no global sequence
/// numbers, so an interrupted message there restarts from its beginning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvProgress {
    /// A resumable (v2 adaptive) message is in flight. Cleared once the
    /// message completes — a partial exists only while this is set.
    pub active: bool,
    /// Raw length of the in-flight message.
    pub total_raw: u64,
    /// Raw bytes delivered contiguously to the sink so far (probe bytes
    /// plus in-order frames).
    pub delivered_raw: u64,
    /// The next global frame sequence number the reorder window expects.
    pub next_seq: u64,
}

impl RecvProgress {
    /// Clears all progress (called at each message boundary).
    pub fn reset(&mut self) {
        *self = RecvProgress::default();
    }
}

/// Receives one message from a group of streams (`readers[0]` is the
/// primary), streaming its decoded bytes into `sink` and reporting
/// delivery through `progress` — on error, `progress` (plus the bytes
/// already in the sink) defines the resume point a session server parks.
///
/// With `resume` (a previously parked progress), this continues that
/// message instead of reading a new one: the peer ships frames
/// `resume.next_seq..` of a `resume.total_raw`-byte message whose first
/// `resume.delivered_raw` bytes the caller already holds. No message
/// header and no probe are read and the framing is v2 at any width
/// (mirroring [`crate::sender::send_message`]); frames numbered below
/// `next_seq` — replays — are rejected as duplicates.
///
/// Returns `Ok(None)` on clean end-of-stream, `Ok(Some(raw_len))` after a
/// full message.
pub fn receive_message<R, K>(
    readers: &mut [R],
    sink: &mut K,
    resume: Option<RecvProgress>,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
) -> io::Result<Option<u64>>
where
    R: Read + Send,
    K: Write + Send,
{
    assert!(
        !readers.is_empty(),
        "a stream group needs at least 1 stream"
    );
    let framing = Framing::of(readers.len(), resume.is_some());
    progress.reset();
    let remaining = match resume {
        Some(at) => {
            let remaining = at.total_raw.checked_sub(at.delivered_raw).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "resume point beyond message length",
                )
            })?;
            *progress = RecvProgress { active: true, ..at };
            remaining
        }
        None => {
            let Some((kind, raw_len)) = wire::read_msg_header(&mut readers[0])? else {
                return Ok(None);
            };
            if raw_len > cfg.max_message {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("message of {raw_len} bytes exceeds configured maximum"),
                ));
            }
            if kind == MsgKind::Direct {
                copy_exact(&mut readers[0], sink, raw_len, cfg.buffer_size, cfg)?;
                return Ok(Some(raw_len));
            }
            progress.active = framing == Framing::V2;
            progress.total_raw = raw_len;
            let probe_len = read_probe_prefix(&mut readers[0], sink, raw_len, cfg)?;
            progress.delivered_raw = probe_len;
            raw_len - probe_len
        }
    };
    // A fresh message fully covered by its probe has no frames and no
    // FINs; a resumed one always ends with the peer's per-stream FINs,
    // which must be consumed here or they would corrupt the next
    // message's parse.
    if remaining > 0 || resume.is_some() {
        receive_frames(readers, sink, remaining, framing, cfg, progress)?;
    }
    progress.active = false;
    Ok(Some(progress.total_raw))
}

/// Reads and validates the probe-length prefix, copying the probe bytes
/// straight to the sink. Returns the probe length.
fn read_probe_prefix<R: Read, K: Write>(
    reader: &mut R,
    sink: &mut K,
    raw_len: u64,
    cfg: &AdocConfig,
) -> io::Result<u64> {
    let probe_len = u64::from(wire::read_u32(reader)?);
    if probe_len > raw_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "probe longer than message",
        ));
    }
    copy_exact(reader, sink, probe_len, cfg.packet_size, cfg)?;
    Ok(probe_len)
}

/// Sanity bound shared by both framings: a frame payload can exceed its
/// raw size only by small codec overhead; anything larger is corruption.
fn check_payload_bound(raw_len: u32, payload_len: u32, cfg: &AdocConfig) -> io::Result<()> {
    if u64::from(payload_len) > 2 * u64::from(raw_len).max(cfg.buffer_size as u64) + 1024 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame payload too large",
        ));
    }
    Ok(())
}

/// Reads exactly `payload_len` bytes into a pooled buffer (filled through
/// `Take`, so the reserved capacity is never zeroed first), acquiring
/// wire budget first — inbound pacing: a throttled reader drains the
/// socket at its share, and TCP backpressure slows the greedy sender.
fn read_payload<R: Read>(
    reader: &mut R,
    payload_len: u32,
    cfg: &AdocConfig,
) -> io::Result<PooledBuf> {
    cfg.throttle.acquire_wire(payload_len as usize);
    let mut payload = cfg.pool.get(payload_len as usize);
    match reader
        .by_ref()
        .take(u64::from(payload_len))
        .read_to_end(&mut payload)
    {
        Ok(n) if n == payload_len as usize => Ok(payload),
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame payload truncated",
        )),
        Err(e) => Err(e),
    }
}

/// Why a [`ReorderBuffer::push`] was refused.
enum ReorderPushError {
    /// Some side of the pipeline already died; stop quietly, the root
    /// cause is reported elsewhere.
    Stopped,
    /// Two frames claimed the same sequence number (wire corruption).
    Duplicate,
}

/// One v2 frame parked in the reorder window.
struct RecvFrame {
    level: u8,
    raw_len: u32,
    payload: PooledBuf,
}

struct ReorderInner {
    frames: HashMap<u64, RecvFrame>,
    /// Next sequence number the consumer will deliver.
    next: u64,
    /// Streams that have delivered their FIN for this message.
    streams_done: usize,
    total_streams: usize,
    /// Input side died (socket error / corrupt header on some stream).
    aborted: bool,
    /// Consumer side died (decode or sink failure).
    failed: bool,
}

/// The shared reassembly window of a receive: reception loops
/// [`push`](ReorderBuffer::push) frames keyed by global sequence number,
/// the decompression stage [`pop_next`](ReorderBuffer::pop_next)s them
/// in order. Bounded: a push beyond the window blocks — **except** for
/// the frame the consumer is waiting on (`seq == next`), which is always
/// admitted so a full window can never deadlock the pipeline.
struct ReorderBuffer {
    inner: Mutex<ReorderInner>,
    can_push: Condvar,
    can_pop: Condvar,
    cap: usize,
}

impl ReorderBuffer {
    /// `start_seq` is the first global sequence number the window
    /// expects — 0 for a fresh message, the parked `next_seq` when
    /// resuming one; anything below it is a replay and is rejected as a
    /// duplicate.
    fn new(total_streams: usize, start_seq: u64) -> ReorderBuffer {
        ReorderBuffer {
            inner: Mutex::new(ReorderInner {
                frames: HashMap::new(),
                next: start_seq,
                streams_done: 0,
                total_streams,
                aborted: false,
                failed: false,
            }),
            can_push: Condvar::new(),
            can_pop: Condvar::new(),
            cap: (REORDER_FRAMES_PER_STREAM * total_streams).max(4),
        }
    }

    /// Parks `frame` under `seq`. Blocks while the window is full (unless
    /// this is the very frame the consumer needs). Fails once either side
    /// of the pipeline has died, or on a duplicate sequence number —
    /// the two cases are distinct because a duplicate is *corruption the
    /// pusher must report*, while a stopped pipeline already has a more
    /// authoritative error elsewhere.
    fn push(&self, seq: u64, frame: RecvFrame) -> Result<(), ReorderPushError> {
        let mut g = self.inner.lock();
        loop {
            if g.failed || g.aborted {
                return Err(ReorderPushError::Stopped);
            }
            if seq < g.next || g.frames.contains_key(&seq) {
                return Err(ReorderPushError::Duplicate);
            }
            if seq == g.next || g.frames.len() < self.cap {
                g.frames.insert(seq, frame);
                drop(g);
                self.can_pop.notify_all();
                return Ok(());
            }
            self.can_push.wait(&mut g);
        }
    }

    /// Marks one stream's FIN as seen; once every stream is done the
    /// consumer can observe end-of-message.
    fn stream_done(&self) {
        let mut g = self.inner.lock();
        g.streams_done += 1;
        drop(g);
        self.can_pop.notify_all();
    }

    /// Next frame in sequence order; `None` once every stream finished
    /// (or the pipeline died) and the frame is not coming.
    fn pop_next(&self) -> Option<RecvFrame> {
        let mut g = self.inner.lock();
        loop {
            if g.failed || g.aborted {
                return None;
            }
            let next = g.next;
            if let Some(f) = g.frames.remove(&next) {
                g.next += 1;
                drop(g);
                self.can_push.notify_all();
                return Some(f);
            }
            if g.streams_done == g.total_streams {
                return None;
            }
            self.can_pop.wait(&mut g);
        }
    }

    /// Input side signals death: wakes everyone; the consumer sees an
    /// early end and reports the byte shortfall.
    fn abort(&self) {
        let mut g = self.inner.lock();
        g.aborted = true;
        g.frames.clear();
        drop(g);
        self.can_push.notify_all();
        self.can_pop.notify_all();
    }

    /// Consumer signals death: wakes reception loops blocked in `push`.
    fn fail(&self) {
        let mut g = self.inner.lock();
        g.failed = true;
        g.frames.clear();
        drop(g);
        self.can_push.notify_all();
        self.can_pop.notify_all();
    }
}

/// Fires [`ReorderBuffer::abort`] on drop unless disarmed — the
/// reception-thread counterpart of the queue guards: an error or panic
/// must never strand the decompression stage waiting on a frame that
/// will never come.
struct AbortOnDrop<'a> {
    rb: &'a ReorderBuffer,
    armed: bool,
}

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.rb.abort();
        }
    }
}

/// Fires [`ReorderBuffer::fail`] on drop — held by the decompression
/// stage; a no-op for reception loops that already finished.
struct FailOnDrop<'a> {
    rb: &'a ReorderBuffer,
}

impl Drop for FailOnDrop<'_> {
    fn drop(&mut self) {
        self.rb.fail();
    }
}

/// The frame stage of a receive: per-stream reception loops feed a reorder
/// window drained in global-sequence order on the calling thread, from
/// `progress.next_seq` on (0 for a fresh message, the parked cursor for a
/// resumed one).
fn receive_frames<R, K>(
    readers: &mut [R],
    sink: &mut K,
    remaining: u64,
    framing: Framing,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
) -> io::Result<()>
where
    R: Read + Send,
    K: Write + Send,
{
    let n = readers.len();
    let start_seq = progress.next_seq;
    let reorder = ReorderBuffer::new(n, start_seq);
    let (recv_res, decomp_res) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (i, r) in readers.iter_mut().enumerate() {
            let rb = &reorder;
            handles.push(
                s.spawn(move || reception_loop(i as u8, framing, r, remaining, start_seq, rb, cfg)),
            );
        }
        // Decompression runs on the calling thread; panics are contained
        // so a dying codec/throttle/sink surfaces as io::Error (the fail
        // guard has already released the reception loops by the time the
        // unwind is caught).
        let decomp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            decompress_in_order(sink, remaining, &reorder, cfg, progress)
        }))
        .unwrap_or_else(|_| Err(io::Error::other("decompression stage panicked")));
        (
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>(),
            decomp,
        )
    });

    // A reception (socket) error is the root cause when present — the
    // consumer's "truncated" error is its downstream symptom. Decode and
    // sink failures surface from the consumer, whose reception loops
    // then end quietly.
    let mut recv_err: Option<io::Error> = None;
    for res in recv_res {
        match res.map_err(|_| io::Error::other("reception thread panicked")) {
            Ok(Ok(())) => {}
            Ok(Err(e)) | Err(e) => recv_err = recv_err.or(Some(e)),
        }
    }
    if let Some(e) = recv_err {
        return Err(e);
    }
    decomp_res
}

/// One stream's reception loop: reads frame headers and payloads off
/// `reader` and parks them in the reorder window until the stream ends —
/// at its FIN (v2), or once `total_raw` bytes have arrived (v1, which has
/// no FIN and no sequence numbers: frames are numbered locally from
/// `start_seq`).
fn reception_loop<R: Read>(
    stream_id: u8,
    framing: Framing,
    reader: &mut R,
    total_raw: u64,
    start_seq: u64,
    reorder: &ReorderBuffer,
    cfg: &AdocConfig,
) -> io::Result<()> {
    let mut guard = AbortOnDrop {
        rb: reorder,
        armed: true,
    };
    let mut frames_seen = 0u64;
    let mut collected = 0u64;
    loop {
        let fh = match framing {
            Framing::V2 => FrameHeaderV2::read(reader, adoc_codec::ADOC_MAX_LEVEL)?,
            Framing::V1 if collected == total_raw => FrameHeaderV2::fin(stream_id, frames_seen),
            Framing::V1 => {
                let h = FrameHeader::read(reader, adoc_codec::ADOC_MAX_LEVEL)?;
                if u64::from(h.raw_len) + collected > total_raw {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "frames exceed message length",
                    ));
                }
                collected += u64::from(h.raw_len);
                let seq = start_seq + frames_seen;
                FrameHeaderV2::data(h.level, stream_id, seq, h.raw_len, h.payload_len)
            }
        };
        if fh.stream != stream_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame for stream {} arrived on stream {stream_id}",
                    fh.stream
                ),
            ));
        }
        if fh.is_fin() {
            if fh.seq != frames_seen {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "stream {stream_id} FIN declares {} frames, saw {frames_seen}",
                        fh.seq
                    ),
                ));
            }
            reorder.stream_done();
            guard.armed = false;
            return Ok(());
        }
        check_payload_bound(fh.raw_len, fh.payload_len, cfg)?;
        let payload = read_payload(reader, fh.payload_len, cfg)?;
        // Timestamped frame → the remote leg of the delay-signal loop:
        // departure is the sender's stamp, arrival is now. Both
        // estimators only consume deltas, so the two clocks never need
        // to agree on an epoch.
        if let (Some(ts), Some(hub)) = (fh.ts_us, cfg.signal_hub()) {
            hub.record_remote(ts, hub.now_us(), fh.payload_len as usize);
        }
        frames_seen += 1;
        let frame = RecvFrame {
            level: fh.level,
            raw_len: fh.raw_len,
            payload,
        };
        match reorder.push(fh.seq, frame) {
            Ok(()) => {}
            Err(ReorderPushError::Stopped) => {
                // The consumer (or a sibling stream) failed; that error
                // wins.
                guard.armed = false;
                return Ok(());
            }
            Err(ReorderPushError::Duplicate) => {
                // Corruption detected here: report it (the drop guard
                // aborts the pipeline for everyone else).
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("duplicate frame sequence {} on stream {stream_id}", fh.seq),
                ));
            }
        }
    }
}

/// The decompression stage: drains the reorder window in sequence order,
/// decoding each frame into a pooled scratch buffer reused across the
/// whole message, and advances `progress` frame by frame.
fn decompress_in_order<K: Write>(
    sink: &mut K,
    total_raw: u64,
    reorder: &ReorderBuffer,
    cfg: &AdocConfig,
    progress: &mut RecvProgress,
) -> io::Result<()> {
    let _fail = FailOnDrop { rb: reorder };
    let mut produced = 0u64;
    let mut scratch = cfg.pool.get(cfg.buffer_size);
    while let Some(frame) = reorder.pop_next() {
        if u64::from(frame.raw_len) + produced > total_raw {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frames exceed message length",
            ));
        }
        scratch.clear();
        let t0 = Instant::now();
        if let Err(e) = adoc_codec::decompress_at(
            frame.level,
            &frame.payload,
            frame.raw_len as usize,
            &mut scratch,
        ) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
        cfg.throttle.charge(t0.elapsed());
        sink.write_all(&scratch)?;
        produced += u64::from(frame.raw_len);
        progress.delivered_raw += u64::from(frame.raw_len);
        progress.next_seq += 1;
    }
    if produced != total_raw {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("message truncated: {produced} of {total_raw} bytes"),
        ));
    }
    Ok(())
}

fn copy_exact<R: Read, W: Write>(
    reader: &mut R,
    sink: &mut W,
    len: u64,
    chunk: usize,
    cfg: &AdocConfig,
) -> io::Result<()> {
    if len == 0 {
        return Ok(());
    }
    let size = chunk.max(1).min(len.try_into().unwrap_or(usize::MAX));
    let mut buf = cfg.pool.get(size);
    buf.resize(size, 0);
    let mut left = len;
    while left > 0 {
        let want = (buf.len() as u64).min(left) as usize;
        cfg.throttle.acquire_wire(want);
        reader.read_exact(&mut buf[..want])?;
        sink.write_all(&buf[..want])?;
        left -= want as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::{send_message, ResumePoint};
    use std::io::Cursor;

    /// One fresh message off `readers`, progress discarded.
    fn recv<R: Read + Send, K: Write + Send>(
        readers: &mut [R],
        sink: &mut K,
        cfg: &AdocConfig,
    ) -> io::Result<Option<u64>> {
        receive_message(readers, sink, None, cfg, &mut RecvProgress::default())
    }

    /// Continues a parked `total_raw`-byte message from the given point.
    fn receive_resumed<R: Read + Send, K: Write + Send>(
        readers: &mut [R],
        sink: &mut K,
        total_raw: u64,
        delivered_raw: u64,
        next_seq: u64,
        cfg: &AdocConfig,
        progress: &mut RecvProgress,
    ) -> io::Result<u64> {
        let at = RecvProgress {
            active: true,
            total_raw,
            delivered_raw,
            next_seq,
        };
        receive_message(readers, sink, Some(at), cfg, progress)
            .map(|n| n.expect("a resumed receive always ends a message"))
    }

    fn roundtrip_with(cfg_tx: &AdocConfig, cfg_rx: &AdocConfig, data: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut src = data;
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            cfg_tx,
        )
        .unwrap();
        let mut c = Cursor::new(wire);
        let mut out = Vec::new();
        let got = recv(std::slice::from_mut(&mut c), &mut out, cfg_rx).unwrap();
        assert_eq!(got, Some(data.len() as u64));
        out
    }

    /// Striped send into captured per-stream byte vectors, then striped
    /// receive from cursors over them.
    fn roundtrip_striped(
        streams: usize,
        cfg_tx: &AdocConfig,
        cfg_rx: &AdocConfig,
        data: &[u8],
    ) -> Vec<u8> {
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
        let mut src = data;
        send_message(&mut sinks, &mut src, data.len() as u64, None, cfg_tx).unwrap();
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let got = recv(&mut cursors, &mut out, cfg_rx).unwrap();
        assert_eq!(got, Some(data.len() as u64));
        out
    }

    fn compressible(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 99u64;
        while v.len() < n {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            if !x.is_multiple_of(4) {
                v.extend_from_slice(b"some structured text content ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }

    #[test]
    fn direct_roundtrip() {
        let cfg = AdocConfig::default();
        let data = compressible(10_000);
        assert_eq!(roundtrip_with(&cfg, &cfg, &data), data);
    }

    #[test]
    fn empty_message_roundtrip() {
        let cfg = AdocConfig::default();
        assert_eq!(roundtrip_with(&cfg, &cfg, b""), b"");
    }

    #[test]
    fn adaptive_fast_path_roundtrip() {
        // Vec sink probe → fast path → raw frames.
        let cfg = AdocConfig::default();
        let data = compressible(3 << 20);
        assert_eq!(roundtrip_with(&cfg, &cfg, &data), data);
    }

    #[test]
    fn forced_compression_roundtrip() {
        let tx = AdocConfig::default().with_levels(1, 10);
        let rx = AdocConfig::default();
        let data = compressible(2 << 20);
        assert_eq!(roundtrip_with(&tx, &rx, &data), data);
    }

    #[test]
    fn forced_single_level_roundtrips_each_level() {
        for level in 1..=10u8 {
            let tx = AdocConfig::default().with_levels(level, level);
            let rx = AdocConfig::default();
            let data = compressible(600_000);
            assert_eq!(roundtrip_with(&tx, &rx, &data), data, "level {level}");
        }
    }

    #[test]
    fn striped_roundtrips_across_stream_counts() {
        for streams in [2usize, 3, 4] {
            let tx = AdocConfig::default().with_levels(1, 10);
            let rx = AdocConfig::default();
            let data = compressible(2 << 20);
            assert_eq!(
                roundtrip_striped(streams, &tx, &rx, &data),
                data,
                "streams = {streams}"
            );
            assert_eq!(tx.pool.stats().outstanding, 0);
            assert_eq!(rx.pool.stats().outstanding, 0);
        }
    }

    #[test]
    fn striped_roundtrip_feeds_the_remote_estimator() {
        // With hubs installed on both ends, striped frames carry the
        // 0x40-flagged timestamp and the receiver's hub must come back
        // with a Remote snapshot; the sender's hub sees local emission
        // samples regardless.
        use crate::signals::{SignalHub, SignalSource};
        let tx_hub = std::sync::Arc::new(SignalHub::new());
        let rx_hub = std::sync::Arc::new(SignalHub::new());
        let tx = AdocConfig::default()
            .with_levels(1, 10)
            .with_signals(tx_hub.clone());
        let rx = AdocConfig::default().with_signals(rx_hub.clone());
        let data = compressible(2 << 20);
        assert_eq!(roundtrip_striped(3, &tx, &rx, &data), data);
        let snap = rx_hub
            .snapshot()
            .expect("timestamped frames must feed the receiver's estimator");
        assert_eq!(snap.source, SignalSource::Remote);
        assert!(tx_hub.snapshot().is_some(), "sender-side local samples");
    }

    #[test]
    fn signal_hub_on_tx_only_still_roundtrips() {
        // A timestamp-stamping sender against a hub-less receiver: the
        // flag bit must parse cleanly and the bytes must survive.
        use crate::signals::SignalHub;
        let tx = AdocConfig::default()
            .with_levels(1, 10)
            .with_signals(std::sync::Arc::new(SignalHub::new()));
        let rx = AdocConfig::default();
        let data = compressible(1 << 20);
        assert_eq!(roundtrip_striped(2, &tx, &rx, &data), data);
    }

    #[test]
    fn striped_fast_path_roundtrip() {
        // Vec sinks measure an instant probe → raw v2 frames on the
        // primary stream + FINs everywhere.
        let cfg = AdocConfig::default();
        let data = compressible(3 << 20);
        assert_eq!(roundtrip_striped(4, &cfg, &cfg, &data), data);
    }

    #[test]
    fn striped_empty_and_probe_only_messages() {
        let forced = AdocConfig::default().with_levels(1, 10);
        assert_eq!(roundtrip_striped(2, &forced, &forced, b""), b"");
        // Message fully covered by the probe: adaptive framing with zero
        // frames — no FINs are exchanged and no threads spawn.
        let cfg = AdocConfig {
            probe_threshold: 1024,
            probe_size: 1024,
            ..AdocConfig::default()
        };
        let data = compressible(1024);
        assert_eq!(roundtrip_striped(3, &cfg, &cfg, &data), data);
    }

    #[test]
    fn striped_stream_truncation_errors_without_hanging() {
        let tx = AdocConfig::default().with_levels(2, 10);
        let data = compressible(2 << 20);
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        send_message(&mut sinks, &mut src, data.len() as u64, None, &tx).unwrap();
        // Cut one secondary stream mid-frame.
        let cut = sinks[1].len() / 2;
        sinks[1].truncate(cut);
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let err = recv(&mut cursors, &mut out, &AdocConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn striped_duplicate_sequence_detected() {
        // Corrupt a secondary stream by rewriting its first frame's
        // sequence number to collide with a later frame of the same
        // stream: the reorder buffer must reject the duplicate instead
        // of silently dropping or reordering data. (A 700 KB message
        // keeps the frame count below the reorder window, so the
        // duplicate is actually pushed rather than the pipeline stalling
        // on the missing renamed sequence — a stall that, on a real
        // socket, is indistinguishable from a slow peer.)
        let tx = AdocConfig::default().with_levels(3, 3);
        let data = compressible(700_000); // 4 frames: stream 1 carries 1, 3
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut src = &data[..];
        send_message(&mut sinks, &mut src, data.len() as u64, None, &tx).unwrap();
        // Stream 1's first frame header starts at byte 0 of sinks[1];
        // its seq field sits at bytes 2..10. Rewrite seq 1 → 3 so two
        // frames claim seq 3.
        sinks[1][2..10].copy_from_slice(&3u64.to_le_bytes());
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let res = recv(&mut cursors, &mut out, &AdocConfig::default());
        assert!(res.is_err(), "duplicate sequence must be rejected");
    }

    #[test]
    fn resumed_tail_roundtrips_at_any_width() {
        // A message interrupted at 123 456 delivered bytes / 7 frames is
        // continued on groups of width 1, 2 and 4 — the resumed width
        // need not match the original, and chunk boundaries of the
        // continuation are independent of the first attempt's.
        let data = compressible(2 << 20);
        let delivered = 123_456u64;
        let next_seq = 7u64;
        for streams in [1usize, 2, 4] {
            let tx = AdocConfig::default().with_levels(1, 10);
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[delivered as usize..];
            let at = ResumePoint {
                next_seq,
                delivered_raw: delivered,
            };
            send_message(&mut sinks, &mut src, data.len() as u64, Some(at), &tx).unwrap();
            let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
            let mut out = data[..delivered as usize].to_vec();
            let mut progress = RecvProgress::default();
            let n = receive_resumed(
                &mut cursors,
                &mut out,
                data.len() as u64,
                delivered,
                next_seq,
                &AdocConfig::default(),
                &mut progress,
            )
            .unwrap();
            assert_eq!(n, data.len() as u64, "streams = {streams}");
            assert_eq!(out, data, "streams = {streams}");
            assert!(!progress.active, "completed resume clears the partial");
            assert_eq!(progress.delivered_raw, data.len() as u64);
            assert_eq!(tx.pool.stats().outstanding, 0);
        }
    }

    #[test]
    fn resumed_with_nothing_left_exchanges_only_fins() {
        // The kill landed after the last data frame: the continuation is
        // pure FINs, which the receiver must still consume so the next
        // message parses cleanly.
        let tx = AdocConfig::default();
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut src: &[u8] = b"";
        let at = ResumePoint {
            next_seq: 5,
            delivered_raw: 0,
        };
        send_message(&mut sinks, &mut src, 0, Some(at), &tx).unwrap();
        for s in &sinks {
            assert_eq!(s.len(), wire::FRAME_HEADER_V2_LEN, "FIN only");
        }
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let mut progress = RecvProgress::default();
        let n = receive_resumed(
            &mut cursors,
            &mut out,
            100,
            100,
            5,
            &AdocConfig::default(),
            &mut progress,
        )
        .unwrap();
        assert_eq!(n, 100);
        assert!(out.is_empty());
    }

    #[test]
    fn replayed_sequences_on_resume_are_rejected() {
        // A peer that replays the message from seq 0 although the
        // receiver already delivered 4 frames: every replayed frame sits
        // below the reorder window's start and must be refused as a
        // duplicate rather than re-delivered.
        let data = compressible(1 << 20);
        let tx = AdocConfig::default().with_levels(1, 10);
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut src = &data[..];
        let at = Some(ResumePoint::default());
        send_message(&mut sinks, &mut src, data.len() as u64, at, &tx).unwrap();
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut out = Vec::new();
        let mut progress = RecvProgress::default();
        let err = receive_resumed(
            &mut cursors,
            &mut out,
            2 * data.len() as u64,
            data.len() as u64,
            4,
            &AdocConfig::default(),
            &mut progress,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn resume_point_beyond_message_is_invalid() {
        let mut cursors: Vec<Cursor<Vec<u8>>> = vec![Cursor::new(Vec::new())];
        let mut out = Vec::new();
        let mut progress = RecvProgress::default();
        let err = receive_resumed(
            &mut cursors,
            &mut out,
            10,
            11,
            0,
            &AdocConfig::default(),
            &mut progress,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_returns_none() {
        let cfg = AdocConfig::default();
        let mut c = Cursor::new(Vec::<u8>::new());
        let mut out = Vec::new();
        assert!(recv(std::slice::from_mut(&mut c), &mut out, &cfg)
            .unwrap()
            .is_none());
        // Same through the striped entry point.
        let mut cursors = vec![Cursor::new(Vec::<u8>::new()), Cursor::new(Vec::<u8>::new())];
        assert!(recv(&mut cursors, &mut out, &cfg).unwrap().is_none());
    }

    #[test]
    fn only_v2_framed_messages_are_resumable() {
        // Cut both captures mid-message: the one-stream (v1) receive has
        // no sequence numbers to resume from and must not report a
        // partial; the two-stream (v2) receive must.
        let tx = AdocConfig::default().with_levels(1, 10);
        let data = compressible(2 << 20);
        for streams in [1usize, 2] {
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[..];
            send_message(&mut sinks, &mut src, data.len() as u64, None, &tx).unwrap();
            let mut cursors: Vec<Cursor<Vec<u8>>> = sinks
                .into_iter()
                .map(|mut s| {
                    s.truncate(s.len() * 2 / 3);
                    Cursor::new(s)
                })
                .collect();
            let mut out = Vec::new();
            let mut progress = RecvProgress::default();
            let cfg = AdocConfig::default();
            assert!(receive_message(&mut cursors, &mut out, None, &cfg, &mut progress).is_err());
            assert_eq!(progress.active, streams > 1, "streams = {streams}");
            assert_eq!(progress.total_raw, data.len() as u64);
            assert_eq!(progress.delivered_raw, out.len() as u64);
        }
    }

    #[test]
    fn truncated_adaptive_stream_errors() {
        let tx = AdocConfig::default().with_levels(1, 10);
        let data = compressible(1 << 20);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
        )
        .unwrap();
        for frac in [wire.len() / 4, wire.len() / 2, wire.len() - 3] {
            let mut c = Cursor::new(wire[..frac].to_vec());
            let mut out = Vec::new();
            assert!(
                recv(
                    std::slice::from_mut(&mut c),
                    &mut out,
                    &AdocConfig::default()
                )
                .is_err(),
                "cut at {frac} did not error"
            );
        }
    }

    #[test]
    fn oversized_message_header_rejected() {
        let cfg = AdocConfig {
            max_message: 1000,
            ..AdocConfig::default()
        };
        let hdr = wire::encode_msg_header(MsgKind::Direct, 10_000);
        let mut c = Cursor::new(hdr.to_vec());
        let mut out = Vec::new();
        assert!(recv(std::slice::from_mut(&mut c), &mut out, &cfg).is_err());
        let mut cursors = vec![Cursor::new(hdr.to_vec()), Cursor::new(Vec::new())];
        assert!(recv(&mut cursors, &mut out, &cfg).is_err());
    }

    #[test]
    fn corrupted_frame_payload_detected() {
        let tx = AdocConfig::default().with_levels(5, 5);
        let data = compressible(700_000);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
        )
        .unwrap();
        // Flip a byte inside the first frame payload (after headers).
        let idx = wire::MSG_HEADER_LEN + 4 + wire::FRAME_HEADER_LEN + 100;
        wire[idx] ^= 0xFF;
        let mut c = Cursor::new(wire);
        let mut out = Vec::new();
        let res = recv(
            std::slice::from_mut(&mut c),
            &mut out,
            &AdocConfig::default(),
        );
        assert!(
            res.is_err(),
            "corruption must be detected by decode or length checks"
        );
    }

    #[test]
    fn sink_failure_propagates() {
        struct TinySink(usize);
        impl Write for TinySink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 < buf.len() {
                    return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let tx = AdocConfig::default().with_levels(1, 10);
        let data = compressible(2 << 20);
        let mut wire = Vec::new();
        let mut src = &data[..];
        send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            &tx,
        )
        .unwrap();
        let mut c = Cursor::new(wire);
        let mut sink = TinySink(100_000);
        let err = recv(
            std::slice::from_mut(&mut c),
            &mut sink,
            &AdocConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // Same failure through the striped path.
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        send_message(&mut sinks, &mut src, data.len() as u64, None, &tx).unwrap();
        let mut cursors: Vec<Cursor<Vec<u8>>> = sinks.into_iter().map(Cursor::new).collect();
        let mut sink = TinySink(100_000);
        let err = recv(&mut cursors, &mut sink, &AdocConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}
