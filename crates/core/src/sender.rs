//! The emission side of AdOC (paper Fig. 1): a compression thread feeding
//! the FIFO queue, an emission thread draining it onto the socket, plus
//! the §5 heuristics — direct path, 256 KB probe, fast-network bypass,
//! divergence and ratio guards.
//!
//! [`send_message`] is the one pipeline, for any stream count `N`, fresh
//! or resumed: a dispatcher on the calling thread reads 200 KB buffers in
//! order and hands frame `s` to stream `s % N`, where each stream runs its
//! **own** compression thread, emission queue, [`LevelController`] and
//! [`BandwidthMonitor`] — so both the compression CPU and the congestion
//! windows scale with the stream count. The framing is derived from the
//! inputs, never configured (`Framing`): a fresh message over one stream
//! is the paper's v1 format; several streams or a resumed message use v2
//! headers (stream id + global sequence number) and end every stream
//! with a FIN marker, from which the receiver reassembles by sequence
//! number. All pipelines draw their buffers from the one shared
//! [`BufferPool`](crate::pool::BufferPool) in the config.

use crate::adapt::{LevelController, LevelReason};
use crate::bw::BandwidthMonitor;
use crate::config::AdocConfig;
use crate::error::AdocError;
use crate::pool::PooledBuf;
use crate::queue::{BoundedQueue, Packet, PacketQueue};
use crate::signals::SignalHub;
use crate::stats::{StreamSendStats, TransferStats};
use crate::wire::{self, FrameHeader, FrameHeaderV2, MsgKind};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Raw frames buffered between the dispatcher and each stream's
/// compression thread. Small: the dispatcher reads ahead just enough to
/// keep every compression thread busy.
const RAW_QUEUE_FRAMES: usize = 2;

/// Where to continue an interrupted transfer, as reported by the server
/// in its resume accept: the sender skips the first `delivered_raw`
/// bytes of the in-flight message and numbers its frames from
/// `next_seq`. `(0, 0)` means no partial message survived — the client
/// re-sends from the message boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumePoint {
    /// Next global frame sequence number the receiver expects.
    pub next_seq: u64,
    /// Raw bytes of the interrupted message already delivered.
    pub delivered_raw: u64,
}

impl ResumePoint {
    /// True when a partially-delivered message is waiting to be
    /// continued (rather than restarted from its boundary).
    pub fn mid_message(&self) -> bool {
        self.next_seq != 0 || self.delivered_raw != 0
    }
}

/// How data frames are laid out on the wire. Derived from the inputs of a
/// transfer, never configured: see [`Framing::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// The paper's format: level + lengths, no stream id, no sequence
    /// number, no FIN — the message's raw length ends it.
    V1,
    /// Stream id + global sequence number per frame (plus an optional
    /// departure stamp), and a FIN per stream.
    V2,
}

impl Framing {
    /// v1 for a fresh message over one stream; v2 whenever there are
    /// several streams or the message continues a resumed one (the
    /// receiver's reorder window needs the original sequence numbers).
    pub(crate) fn of(streams: usize, resumed: bool) -> Framing {
        if streams == 1 && !resumed {
            Framing::V1
        } else {
            Framing::V2
        }
    }

    /// Header bytes reserved in front of every compressed data frame: the
    /// wide (timestamped) v2 header when this connection feeds the
    /// delay-signal layer. The dispatcher and each compression thread
    /// must agree, so both derive it from here.
    fn header_len(self, cfg: &AdocConfig) -> usize {
        match self {
            Framing::V1 => wire::FRAME_HEADER_LEN,
            Framing::V2 if cfg.signal_hub().is_some() => wire::FRAME_HEADER_V2_TS_LEN,
            Framing::V2 => wire::FRAME_HEADER_V2_LEN,
        }
    }

    /// Writes `fh` into the reserved prefix `dst` in this framing (v1
    /// keeps only the level and lengths).
    fn put_header(self, dst: &mut [u8], fh: &FrameHeaderV2) {
        match self {
            Framing::V1 => dst.copy_from_slice(
                &FrameHeader {
                    level: fh.level,
                    raw_len: fh.raw_len,
                    payload_len: fh.payload_len,
                }
                .encode(),
            ),
            Framing::V2 => dst.copy_from_slice(&fh.encode()),
        }
    }
}

/// What one message send did (merged into [`TransferStats`]).
#[derive(Debug, Clone, Default)]
pub struct SendOutcome {
    /// Bytes put on the socket, headers included.
    pub wire_bytes: u64,
    /// Measured probe speed, if a probe ran.
    pub probe_bps: Option<f64>,
    /// True if the probe classified the link as too fast to compress.
    pub fast_path: bool,
    /// True if the message used the direct (no-thread) path.
    pub direct: bool,
    /// Buffers encoded per level during this message.
    pub buffers_at_level: [u64; 11],
    /// `(when, level, reason)` per compression buffer, in order.
    pub level_events: Vec<(Instant, u8, LevelReason)>,
    /// Divergence-guard reverts during this message.
    pub divergence_reverts: u64,
    /// Ratio-guard trips during this message.
    pub ratio_trips: u64,
    /// Raw bytes whose emission the [`BandwidthMonitor`]s observed
    /// (summed over streams). For a forced-compression message (no probe,
    /// no fast path) this equals the message's raw length exactly — the
    /// invariant the divergence guard depends on.
    pub bw_raw_bytes: u64,
    /// Per-stream accounting for v2-framed sends; empty for v1 messages
    /// (stream 0 then carries everything).
    pub per_stream: Vec<StreamSendStats>,
    /// Visible bandwidth per level at the end of this message, in raw
    /// bits/s (0.0 = level unobserved; striped sends report the sum over
    /// streams). Feeds [`TransferStats::level_bps`].
    pub level_bps: [f64; 11],
}

impl SendOutcome {
    /// Folds this outcome into cumulative connection stats.
    pub fn merge_into(&self, stats: &mut TransferStats, raw_len: u64) {
        stats.messages += 1;
        stats.raw_bytes += raw_len;
        stats.wire_bytes += self.wire_bytes;
        if self.direct {
            stats.direct_messages += 1;
        }
        if self.probe_bps.is_some() {
            stats.probes += 1;
        }
        if self.fast_path {
            stats.fast_path_hits += 1;
        }
        for &(t, level, reason) in &self.level_events {
            stats.record_buffer_reason(t, level, reason);
        }
        debug_assert_eq!(
            self.buffers_at_level.iter().sum::<u64>(),
            self.level_events.len() as u64,
            "level counters and events must agree"
        );
        stats.divergence_reverts += self.divergence_reverts;
        stats.ratio_trips += self.ratio_trips;
        stats.merge_per_stream(&self.per_stream);
        stats.merge_level_bps(&self.level_bps);
    }
}

/// Sends one message of exactly `raw_len` bytes over a group of streams
/// (`writers[0]` is the primary; see the module docs). Blocking: returns
/// once every byte has been handed to the writers.
///
/// With `resume`, this continues a message whose first
/// `resume.delivered_raw` bytes the receiver already holds: `source`
/// yields only the remaining bytes, no message header and no probe go on
/// the wire (both sides agreed on the resume point during the session
/// handshake), and frames are numbered from `resume.next_seq` so the
/// receiver's reorder window slots them behind the bytes it kept.
pub fn send_message<W, S>(
    writers: &mut [W],
    source: &mut S,
    raw_len: u64,
    resume: Option<ResumePoint>,
    cfg: &AdocConfig,
) -> io::Result<SendOutcome>
where
    W: Write + Send,
    S: Read + Send,
{
    assert!(
        !writers.is_empty(),
        "a stream group needs at least 1 stream"
    );
    assert!(writers.len() <= 255, "stream ids are u8");
    let framing = Framing::of(writers.len(), resume.is_some());
    let mut out = SendOutcome::default();
    let (remaining, start_seq) = match resume {
        Some(at) => {
            let remaining = raw_len.checked_sub(at.delivered_raw).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "resume point {} beyond message length {raw_len}",
                        at.delivered_raw
                    ),
                )
            })?;
            (remaining, at.next_seq)
        }
        None => {
            // Small and disabled-compression messages take the direct
            // path on the primary stream alone: striping tiny messages
            // buys nothing.
            if cfg.compression_disabled()
                || (!cfg.compression_forced() && raw_len < cfg.probe_threshold as u64)
            {
                return send_direct(&mut writers[0], source, raw_len, cfg);
            }
            writers[0].write_all(&wire::encode_msg_header(MsgKind::Adaptive, raw_len))?;
            out.wire_bytes += wire::MSG_HEADER_LEN as u64;
            let probe_len = write_probe(&mut writers[0], source, raw_len, cfg, &mut out)?;
            let remaining = raw_len - probe_len;
            if remaining == 0 {
                // Probe-only (or empty) message: no frames, no FINs.
                writers[0].flush()?;
                return Ok(out);
            }
            if out.fast_path {
                send_raw_frames(writers, source, remaining, framing, cfg, &mut out)?;
                return Ok(out);
            }
            (remaining, 0)
        }
    };
    run_pipelines(
        writers, source, remaining, start_seq, framing, cfg, &mut out,
    )?;
    Ok(out)
}

/// §5 "Small messages": header + raw bytes, no threads, latency identical
/// to plain write.
fn send_direct<W: Write, S: Read>(
    writer: &mut W,
    source: &mut S,
    raw_len: u64,
    cfg: &AdocConfig,
) -> io::Result<SendOutcome> {
    writer.write_all(&wire::encode_msg_header(MsgKind::Direct, raw_len))?;
    let copied = copy_exact(source, writer, raw_len, cfg.buffer_size, cfg)?;
    debug_assert_eq!(copied, raw_len);
    writer.flush()?;
    Ok(SendOutcome {
        wire_bytes: wire::MSG_HEADER_LEN as u64 + raw_len,
        direct: true,
        ..SendOutcome::default()
    })
}

/// Next frame's raw size, checked against the u32 wire limit (a silent
/// `as u32` truncation here used to corrupt ≥ 4 GiB buffers).
fn next_frame_size(buffer_size: usize, remaining: u64) -> io::Result<usize> {
    let want = (buffer_size as u64).min(remaining);
    if want > wire::MAX_FRAME_LEN {
        return Err(AdocError::FrameTooLarge { len: want }.into());
    }
    Ok(want as usize)
}

/// Writes the probe prefix (primary stream), measuring link speed and
/// setting `out.fast_path` when the link outruns `cfg.fast_bps`. Returns
/// the probe length.
fn write_probe<W: Write, S: Read>(
    writer: &mut W,
    source: &mut S,
    raw_len: u64,
    cfg: &AdocConfig,
    out: &mut SendOutcome,
) -> io::Result<u64> {
    let probe_len = if cfg.compression_forced() {
        0u64
    } else {
        (cfg.probe_size as u64).min(raw_len)
    };
    wire::write_u32(writer, probe_len as u32)?;
    out.wire_bytes += 4;
    if probe_len > 0 {
        let t0 = Instant::now();
        copy_exact(source, writer, probe_len, cfg.packet_size, cfg)?;
        writer.flush()?;
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let bps = probe_len as f64 * 8.0 / secs;
        out.probe_bps = Some(bps);
        out.wire_bytes += probe_len;
        out.fast_path = bps > cfg.fast_bps;
    }
    Ok(probe_len)
}

/// The fast path: the link outran the probe, so compression is not the
/// bottleneck and striping buys nothing. The rest of the message goes out
/// as raw frames on the primary stream, each assembled (header in place,
/// payload read straight in behind it) in one pooled buffer and put on
/// the wire with a single write; the buffer is reused for every frame, so
/// a multi-buffer send touches the allocator at most once. v2 ends every
/// stream with a FIN so the receiver's per-stream readers unblock.
fn send_raw_frames<W: Write, S: Read>(
    writers: &mut [W],
    source: &mut S,
    remaining: u64,
    framing: Framing,
    cfg: &AdocConfig,
    out: &mut SendOutcome,
) -> io::Result<()> {
    // Fast-path frames skip the timestamp: the link already outran
    // compression, so there is no adaptation to feed.
    let hdr = match framing {
        Framing::V1 => wire::FRAME_HEADER_LEN,
        Framing::V2 => wire::FRAME_HEADER_V2_LEN,
    };
    let mut frame = cfg
        .pool
        .get(hdr + cfg.buffer_size.min(wire::MAX_FRAME_LEN as usize));
    let mut left = remaining;
    let mut seq = 0u64;
    while left > 0 {
        let want = next_frame_size(cfg.buffer_size, left)?;
        // Same-size resize is a no-op, so the zero-fill happens once per
        // message, not once per frame.
        frame.resize(hdr + want, 0);
        source.read_exact(&mut frame[hdr..])?;
        let fh = FrameHeaderV2::data(0, 0, seq, want as u32, want as u32);
        framing.put_header(&mut frame[..hdr], &fh);
        cfg.throttle.acquire_wire(frame.len());
        writers[0].write_all(&frame)?;
        out.wire_bytes += frame.len() as u64;
        out.buffers_at_level[0] += 1;
        out.level_events
            .push((Instant::now(), 0, LevelReason::default()));
        seq += 1;
        left -= want as u64;
    }
    if framing == Framing::V2 {
        for (i, w) in writers.iter_mut().enumerate() {
            let (frames, raw_bytes) = if i == 0 { (seq, remaining) } else { (0, 0) };
            w.write_all(&FrameHeaderV2::fin(i as u8, frames).encode())?;
            let wire_bytes = raw_bytes + (frames + 1) * wire::FRAME_HEADER_V2_LEN as u64;
            out.wire_bytes += wire::FRAME_HEADER_V2_LEN as u64;
            out.per_stream.push(StreamSendStats {
                stream: i as u8,
                wire_bytes,
                raw_bytes,
                frames,
            });
        }
    }
    for w in writers.iter_mut() {
        w.flush()?;
    }
    Ok(())
}

/// One raw compression buffer travelling from the dispatcher to a
/// stream's compression thread.
struct RawFrame {
    /// Global in-message frame sequence number.
    seq: u64,
    /// Raw payload bytes in `buf` (after the reserved header prefix).
    want: usize,
    /// Pooled buffer: [`Framing::header_len`] reserved bytes, then
    /// payload.
    buf: PooledBuf,
}

/// The adaptive heart of a send: per-stream pipelines around the shared
/// pool — dispatcher (this thread) → raw queue → compression thread →
/// packet queue → emission thread → writer i. Frames are numbered
/// globally from `start_seq` (0 for a fresh message, the negotiated
/// resume point for a continued one).
fn run_pipelines<W, S>(
    writers: &mut [W],
    source: &mut S,
    remaining: u64,
    start_seq: u64,
    framing: Framing,
    cfg: &AdocConfig,
    out: &mut SendOutcome,
) -> io::Result<()>
where
    W: Write + Send,
    S: Read + Send,
{
    let n = writers.len();
    let raw_queues: Vec<BoundedQueue<RawFrame>> = (0..n)
        .map(|_| BoundedQueue::new(RAW_QUEUE_FRAMES))
        .collect();
    let pkt_queues: Vec<PacketQueue> = (0..n).map(|_| PacketQueue::new(cfg.queue_cap)).collect();
    let monitors: Vec<BandwidthMonitor> = (0..n).map(|_| BandwidthMonitor::new()).collect();

    let (disp_res, comp_res, emit_res) = std::thread::scope(|s| {
        let mut comp_handles = Vec::with_capacity(n);
        let mut emit_handles = Vec::with_capacity(n);
        for (i, w) in writers.iter_mut().enumerate() {
            let (rq, pq, bw) = (&raw_queues[i], &pkt_queues[i], &monitors[i]);
            comp_handles
                .push(s.spawn(move || compression_thread(i as u8, framing, rq, pq, bw, cfg)));
            emit_handles.push(
                s.spawn(move || emission_thread(w, pq, bw, &*cfg.throttle, cfg.signal_hub())),
            );
        }

        // Dispatcher: read buffers in order, stripe frame s onto stream
        // s % n. The guards close every raw queue on *any* exit — error,
        // panic or success — so no compression thread is ever stranded,
        // and a panicking source surfaces as io::Error like every other
        // pipeline stage.
        let _closers: Vec<_> = raw_queues.iter().map(|q| q.close_on_drop()).collect();
        let disp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> io::Result<()> {
            let mut left = remaining;
            let mut seq = start_seq;
            let hdr = framing.header_len(cfg);
            while left > 0 {
                let want = next_frame_size(cfg.buffer_size, left)?;
                // The raw bytes are read straight into frame position —
                // header space first, payload appended behind it via
                // `Take`, which fills the reserved spare capacity without
                // a zeroing pass — so a level-0 buffer is already a
                // complete frame with no copy.
                let mut buf = cfg.pool.get(hdr + want);
                buf.resize(hdr, 0);
                match source.by_ref().take(want as u64).read_to_end(&mut buf) {
                    Ok(got) if got == want => {}
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "source ended before the promised message length",
                        ));
                    }
                    Err(e) => return Err(e),
                }
                let target = (seq % n as u64) as usize;
                if raw_queues[target]
                    .push(RawFrame { seq, want, buf })
                    .is_err()
                {
                    // That stream's pipeline failed; its error is
                    // authoritative.
                    return Ok(());
                }
                seq += 1;
                left -= want as u64;
            }
            Ok(())
        }))
        .unwrap_or_else(|_| Err(io::Error::other("dispatcher stage panicked")));
        drop(_closers);
        (
            disp,
            comp_handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Vec<_>>(),
            emit_handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Vec<_>>(),
        )
    });

    // Error priority: emission (socket) errors first — they poison the
    // queues, which the compression threads see as Closed — then
    // compression, then the dispatcher's read error.
    let mut stream_wire = vec![0u64; n];
    let mut first_err: Option<io::Error> = None;
    for (i, res) in emit_res.into_iter().enumerate() {
        match res.map_err(|_| io::Error::other("emission thread panicked")) {
            Ok(Ok(bytes)) => stream_wire[i] = bytes,
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    let mut comps = Vec::with_capacity(n);
    for res in comp_res {
        match res.map_err(|_| io::Error::other("compression thread panicked")) {
            Ok(Ok(c)) => comps.push(c),
            Ok(Err(e)) | Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    disp_res?;
    for w in writers.iter_mut() {
        w.flush()?;
    }

    out.bw_raw_bytes = BandwidthMonitor::aggregate_total_raw_bytes(&monitors);
    for level in 0..=10u8 {
        if let Some(bps) = BandwidthMonitor::aggregate_visible(&monitors, level) {
            out.level_bps[level as usize] = bps;
        }
    }
    for (i, comp) in comps.into_iter().enumerate() {
        out.wire_bytes += stream_wire[i];
        out.buffers_at_level
            .iter_mut()
            .zip(comp.buffers_at_level)
            .for_each(|(d, s)| *d += s);
        out.level_events.extend(comp.level_events);
        out.divergence_reverts += comp.divergence_reverts;
        out.ratio_trips += comp.ratio_trips;
        if framing == Framing::V2 {
            out.per_stream.push(StreamSendStats {
                stream: i as u8,
                wire_bytes: stream_wire[i],
                raw_bytes: monitors[i].total_raw_bytes(),
                frames: comp.frames,
            });
        }
    }
    // Interleaved pipelines report out of order; the connection timeline
    // must stay chronological.
    out.level_events.sort_by_key(|&(t, _, _)| t);
    Ok(())
}

/// Per-message results a compression thread reports back.
struct CompOutcome {
    buffers_at_level: [u64; 11],
    level_events: Vec<(Instant, u8, LevelReason)>,
    divergence_reverts: u64,
    ratio_trips: u64,
    /// Data frames fully handed to the emission queue.
    frames: u64,
}

impl CompOutcome {
    fn new() -> Self {
        CompOutcome {
            buffers_at_level: [0u64; 11],
            level_events: Vec::new(),
            divergence_reverts: 0,
            ratio_trips: 0,
            frames: 0,
        }
    }

    fn finish(mut self, ctrl: &LevelController) -> Self {
        self.divergence_reverts = ctrl.divergence_reverts;
        self.ratio_trips = ctrl.ratio_trips;
        self
    }
}

/// The §5 ratio-guard stage: picks the level for a raw buffer (suspicious
/// pre-check + full compression + ratio report) and returns the
/// wire-ready frame body with `header_len` reserved bytes at the front,
/// plus the level it ended up encoded at.
fn encode_frame_payload(
    raw: PooledBuf,
    want: usize,
    header_len: usize,
    mut level: u8,
    ctrl: &mut LevelController,
    codec: &mut adoc_codec::Codec,
    cfg: &AdocConfig,
) -> io::Result<(PooledBuf, u8)> {
    // §5 "Compressed and random data", early abort: while the stream
    // looks incompressible, test a small prefix before paying for a
    // full-buffer compression.
    if level > 0 && ctrl.is_suspicious() {
        let check = (4 * cfg.packet_size).min(want);
        let t0 = Instant::now();
        let mut probe = cfg.pool.get(check + 64);
        codec.compress_at(level, &raw[header_len..header_len + check], &mut probe);
        cfg.throttle.charge(t0.elapsed());
        let check_ratio = check as f64 / probe.len() as f64;
        ctrl.report_ratio(check_ratio, cfg);
        if cfg.ratio_guard > 0.0 && check_ratio < cfg.ratio_guard {
            level = 0; // still incompressible: ship the buffer raw
        }
    }

    // `frame` ends up holding header + payload; at level 0 that is the
    // raw buffer itself (zero copies), otherwise a second pooled buffer
    // the codec encoded into (the only data movement is the compression
    // itself).
    let mut frame = raw;
    if level > 0 {
        let t0 = Instant::now();
        let mut enc = cfg.pool.get(header_len + want / 2 + 64);
        enc.resize(header_len, 0);
        codec.compress_at(level, &frame[header_len..], &mut enc);
        cfg.throttle.charge(t0.elapsed());

        let ratio = want as f64 / (enc.len() - header_len) as f64;
        ctrl.report_ratio(ratio, cfg);
        if cfg.ratio_guard > 0.0 && ratio < cfg.ratio_guard {
            // Abandon the compressed form; the raw frame goes out and
            // `enc` returns to the pool.
            level = 0;
        } else {
            frame = enc; // the raw buffer returns to the pool
        }
    }
    let payload_len = (frame.len() - header_len) as u64;
    if payload_len > wire::MAX_FRAME_LEN {
        return Err(AdocError::FrameTooLarge { len: payload_len }.into());
    }
    Ok((frame, level))
}

/// Splits a wire-ready frame into shared `(offset, len)` packet views and
/// pushes them — no per-packet copy; the buffer returns to the pool when
/// the emission thread drops the last view. Returns the packets pushed,
/// or `Err(())` when the consumer went away.
fn push_frame_packets(
    queue: &PacketQueue,
    frame: PooledBuf,
    want: usize,
    level: u8,
    packet_size: usize,
) -> Result<u32, ()> {
    let total = frame.len();
    let frame = Arc::new(frame);
    let mut pushed = 0u32;
    let mut offset = 0usize;
    let queued_at = Instant::now();
    while offset < total {
        let end = (offset + packet_size).min(total);
        let share = raw_share(want, offset, end, total);
        let mut pkt = Packet::view(Arc::clone(&frame), offset, end - offset, level, share);
        pkt.queued_at = Some(queued_at);
        if queue.push(pkt).is_err() {
            return Err(());
        }
        pushed += 1;
        offset = end;
    }
    Ok(pushed)
}

/// One stream's compression thread: the paper's adaptation loop, fed
/// pre-read buffers by the dispatcher. §3.2: the level is updated before
/// each new buffer — with the freshest delay verdict alongside the queue
/// length, when this connection runs the signal layer. v2 streams end
/// with a FIN recording how many data frames the receiver must have seen.
fn compression_thread(
    stream_id: u8,
    framing: Framing,
    raw_queue: &BoundedQueue<RawFrame>,
    queue: &PacketQueue,
    bw: &BandwidthMonitor,
    cfg: &AdocConfig,
) -> io::Result<CompOutcome> {
    // Panic-safe shutdown on both sides: a dying compression thread must
    // release the dispatcher (blocked pushing raw frames) *and* the
    // emission thread (blocked popping packets).
    let _poison_raw = raw_queue.poison_on_drop();
    let _close = queue.close_on_drop();
    let mut ctrl = LevelController::new(cfg);
    let mut codec = adoc_codec::Codec::new();
    let mut out = CompOutcome::new();
    let hub = cfg.signal_hub();
    let hdr = framing.header_len(cfg);

    while let Some(RawFrame { seq, want, buf }) = raw_queue.pop() {
        let delay = hub.and_then(|h| h.snapshot());
        let level = ctrl.next_level_with(queue.len(), bw, delay, cfg);
        let (mut frame, level) =
            encode_frame_payload(buf, want, hdr, level, &mut ctrl, &mut codec, cfg)?;
        out.buffers_at_level[level as usize] += 1;
        out.level_events
            .push((Instant::now(), level, ctrl.last_reason()));

        let mut fh = FrameHeaderV2::data(
            level,
            stream_id,
            seq,
            want as u32,
            (frame.len() - hdr) as u32,
        );
        // Departure stamp for the receiver's remote estimator (v2 only):
        // taken at enqueue, so emission-queue wait shows up as delay —
        // exactly the backlog the gradient is meant to see.
        fh.ts_us = hub.map(|h| h.now_us());
        framing.put_header(&mut frame[..hdr], &fh);

        match push_frame_packets(queue, frame, want, level, cfg.packet_size) {
            Ok(pushed) => ctrl.packets_pushed(pushed),
            // Consumer failed; its error is authoritative.
            Err(()) => return Ok(out.finish(&ctrl)),
        }
        out.frames += 1;
    }

    if framing == Framing::V2 {
        let fin = FrameHeaderV2::fin(stream_id, out.frames);
        let mut fbuf = cfg.pool.get(wire::FRAME_HEADER_V2_LEN);
        fbuf.extend_from_slice(&fin.encode());
        let len = fbuf.len();
        let _ = queue.push(Packet::view(Arc::new(fbuf), 0, len, 0, 0));
    }
    Ok(out.finish(&ctrl))
}

/// Raw-size share of the packet covering `offset..end` of a `total`-byte
/// frame that carries `want` raw bytes.
///
/// Cumulative proportional rounding: each packet gets the difference of
/// two running floor divisions, so per-frame shares always sum to exactly
/// `want` — the last packet absorbs the remainder that plain
/// `want * len / total` truncation used to drop, which systematically
/// understated the visible bandwidth the divergence guard compares.
fn raw_share(want: usize, offset: usize, end: usize, total: usize) -> u32 {
    let w = want as u64;
    let t = total as u64;
    (w * end as u64 / t - w * offset as u64 / t) as u32
}

fn emission_thread<W: Write>(
    writer: &mut W,
    queue: &PacketQueue,
    bw: &BandwidthMonitor,
    throttle: &dyn crate::throttle::Throttle,
    signals: Option<&SignalHub>,
) -> io::Result<u64> {
    // Any exit — socket error, panic — must unblock a producer waiting
    // for queue space; poisoning after a clean drain is a no-op for the
    // already-finished producer.
    let _poison = queue.poison_on_drop();
    let mut wire_bytes = 0u64;
    while let Some(pkt) = queue.pop() {
        // Admission is timed *inside* the bandwidth window on purpose: a
        // scheduler-paced connection must see its share as its visible
        // bandwidth, so the level adapts to the share like it would to a
        // congested link.
        let t0 = Instant::now();
        throttle.acquire_wire(pkt.len());
        writer.write_all(pkt.bytes())?;
        if pkt.raw_share > 0 {
            bw.record(pkt.level, u64::from(pkt.raw_share), t0.elapsed());
        }
        // Local estimator: enqueue → wire is the sender-side leg of the
        // delay a receiver would echo back, available even on v1 framing.
        if let (Some(hub), Some(q)) = (signals, pkt.queued_at) {
            hub.record_local(q, Instant::now(), pkt.len());
        }
        wire_bytes += pkt.len() as u64;
    }
    Ok(wire_bytes)
}

/// Copies exactly `len` bytes from `source` to `writer` in bounded chunks
/// drawn from the pool, acquiring wire budget per chunk.
fn copy_exact<S: Read, W: Write>(
    source: &mut S,
    writer: &mut W,
    len: u64,
    chunk: usize,
    cfg: &AdocConfig,
) -> io::Result<u64> {
    let size = chunk.min(len.try_into().unwrap_or(usize::MAX)).max(1);
    let mut buf = cfg.pool.get(size);
    buf.resize(size, 0);
    let mut left = len;
    while left > 0 {
        let want = (buf.len() as u64).min(left) as usize;
        source.read_exact(&mut buf[..want])?;
        cfg.throttle.acquire_wire(want);
        writer.write_all(&buf[..want])?;
        left -= want as u64;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_msg_header;
    use std::io::Cursor;

    fn send_to_vec(data: &[u8], cfg: &AdocConfig) -> (Vec<u8>, SendOutcome) {
        let mut wire = Vec::new();
        let mut src = data;
        let out = send_message(
            std::slice::from_mut(&mut wire),
            &mut src,
            data.len() as u64,
            None,
            cfg,
        )
        .unwrap();
        (wire, out)
    }

    #[test]
    fn small_message_takes_direct_path() {
        let cfg = AdocConfig::default();
        let data = vec![1u8; 100_000]; // < 512 KB
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert!(out.probe_bps.is_none());
        assert_eq!(wire.len(), wire::MSG_HEADER_LEN + data.len());
        let mut c = Cursor::new(wire);
        let (kind, len) = read_msg_header(&mut c).unwrap().unwrap();
        assert_eq!(kind, MsgKind::Direct);
        assert_eq!(len, data.len() as u64);
    }

    #[test]
    fn large_message_probes_and_fast_path_on_instant_sink() {
        // A Vec sink is infinitely fast: the probe must measure a huge
        // speed and disable compression (the paper's Gbit behaviour).
        let cfg = AdocConfig::default();
        let data = vec![7u8; 1 << 20];
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(!out.direct);
        assert!(out.probe_bps.expect("probe ran") > cfg.fast_bps);
        assert!(out.fast_path);
        // Wire = header + probe_len field + probe + raw frames: no
        // compression means wire ≥ raw.
        assert!(wire.len() as u64 >= data.len() as u64);
    }

    #[test]
    fn forced_compression_skips_probe_and_compresses() {
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = b"compress me please ".repeat(60_000); // ~1.1 MB
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.probe_bps.is_none());
        assert!(!out.fast_path);
        assert!(
            wire.len() < data.len(),
            "forced compression must shrink text"
        );
        let compressed_buffers: u64 = out.buffers_at_level[1..].iter().sum();
        assert!(compressed_buffers > 0);
    }

    #[test]
    fn forced_compression_of_zero_bytes_works() {
        // Table 2's "AdOC with forced compression" row does 0-byte
        // ping-pongs through the full machinery.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let (wire, out) = send_to_vec(b"", &cfg);
        assert!(!out.direct);
        assert_eq!(out.wire_bytes, wire.len() as u64);
        let mut c = Cursor::new(wire);
        let (kind, len) = read_msg_header(&mut c).unwrap().unwrap();
        assert_eq!(kind, MsgKind::Adaptive);
        assert_eq!(len, 0);
    }

    #[test]
    fn disabled_compression_is_direct_even_when_large() {
        let cfg = AdocConfig::default().with_levels(0, 0);
        let data = vec![3u8; 2 << 20];
        let (wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert_eq!(wire.len(), wire::MSG_HEADER_LEN + data.len());
    }

    #[test]
    fn short_source_is_an_error() {
        let cfg = AdocConfig::default();
        let mut wire = Vec::new();
        let mut src: &[u8] = b"only ten b";
        let err =
            send_message(std::slice::from_mut(&mut wire), &mut src, 100, None, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_is_a_typed_error_not_a_truncation() {
        // A 5 GiB buffer_size would truncate `raw_len as u32` on the
        // wire; the sender must refuse with FrameTooLarge *before*
        // reading or allocating anything frame-sized.
        struct EndlessZeros;
        impl Read for EndlessZeros {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(0);
                Ok(buf.len())
            }
        }
        let mut cfg = AdocConfig::default().with_levels(1, 10); // no probe
        cfg.buffer_size = 5 << 30;
        cfg.packet_size = 8 << 10;
        let raw_len = 5u64 << 30;
        let mut wire = Vec::new();
        let err = send_message(
            std::slice::from_mut(&mut wire),
            &mut EndlessZeros,
            raw_len,
            None,
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        match AdocError::from_io(&err) {
            Some(AdocError::FrameTooLarge { len }) => assert_eq!(*len, raw_len),
            other => panic!("expected FrameTooLarge, got {other:?} ({err})"),
        }
        // Nothing frame-sized was buffered before the refusal.
        assert!(wire.len() < 64, "wire got {} bytes", wire.len());
    }

    #[test]
    fn emission_failure_surfaces_as_error() {
        struct FailAfter {
            n: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.n < buf.len() {
                    return Err(io::Error::new(io::ErrorKind::ConnectionReset, "peer gone"));
                }
                self.n -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = AdocConfig::default().with_levels(1, 10); // skip probe

        // Incompressible payload so the wire size exceeds the allowance.
        let data: Vec<u8> = {
            let mut x = 1u64;
            (0..4 << 20)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 40) as u8
                })
                .collect()
        };
        let mut sink = FailAfter { n: 300_000 };
        let mut src = &data[..];
        let err = send_message(
            std::slice::from_mut(&mut sink),
            &mut src,
            data.len() as u64,
            None,
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn panicking_throttle_does_not_hang_the_send() {
        // Regression for the shutdown path: a panic inside the
        // compression thread used to leave the emission thread blocked in
        // `pop` forever (thread::scope then never unwinds). The queue
        // guards must close the stream and the send must return an error.
        struct PanicThrottle;
        impl crate::throttle::Throttle for PanicThrottle {
            fn charge(&self, _elapsed: std::time::Duration) {
                panic!("simulated codec-thread death");
            }
        }
        let cfg = AdocConfig::default()
            .with_levels(1, 10)
            .with_throttle(std::sync::Arc::new(PanicThrottle));
        let data = b"compressible text ".repeat(60_000);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut wire = Vec::new();
            let mut src = &data[..];
            let res = send_message(
                std::slice::from_mut(&mut wire),
                &mut src,
                data.len() as u64,
                None,
                &cfg,
            );
            let _ = done_tx.send(res.is_err());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(errored) => assert!(errored, "a panicked pipeline must report an error"),
            Err(_) => panic!("send_message deadlocked after a compression-thread panic"),
        }
    }

    #[test]
    fn raw_shares_sum_exactly_to_frame_raw_size() {
        // The old `want * chunk / total` truncation dropped up to one
        // byte per packet; cumulative rounding must never lose any.
        for (want, total, packet) in [
            (204_800usize, 204_809usize, 8_192usize), // raw frame, header remainder
            (204_800, 31_337, 8_192),                 // compressed frame
            (204_800, 204_809, 8_191),                // packet not dividing total
            (1, 10, 8_192),                           // tiny frame, single packet
            (65_536, 9 + 65_536, 7),                  // pathological small packets
            (3, 12, 5),
        ] {
            let mut sum = 0u64;
            let mut offset = 0usize;
            while offset < total {
                let end = (offset + packet).min(total);
                sum += u64::from(raw_share(want, offset, end, total));
                offset = end;
            }
            assert_eq!(
                sum, want as u64,
                "shares must sum to want for ({want}, {total}, {packet})"
            );
        }
    }

    #[test]
    fn bandwidth_monitor_total_matches_stats_raw_bytes() {
        // Forced compression: no probe, no fast path — every raw byte of
        // the message flows through the queue, so the monitor's total
        // must reconcile exactly with TransferStats.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(1_500_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        let mut stats = TransferStats::new();
        out.merge_into(&mut stats, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, stats.raw_bytes);
    }

    #[test]
    fn striped_send_accounts_every_stream() {
        // 4 sinks, forced compression: every stream must carry frames,
        // the per-stream raw bytes must sum to the message, and frame
        // counts must match the round-robin striping.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20); // 11 buffers at 200 KB
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let mut src = &data[..];
        let out = send_message(&mut sinks, &mut src, data.len() as u64, None, &cfg).unwrap();
        assert_eq!(out.per_stream.len(), 4);
        let frames: u64 = out.per_stream.iter().map(|s| s.frames).sum();
        assert_eq!(frames, data.len().div_ceil(cfg.buffer_size) as u64);
        let raw: u64 = out.per_stream.iter().map(|s| s.raw_bytes).sum();
        assert_eq!(raw, data.len() as u64);
        assert_eq!(out.bw_raw_bytes, data.len() as u64);
        // Round-robin: stream frame counts differ by at most one.
        let min = out.per_stream.iter().map(|s| s.frames).min().unwrap();
        let max = out.per_stream.iter().map(|s| s.frames).max().unwrap();
        assert!(max - min <= 1, "striping must be balanced: {out:?}");
        let wire_sum: u64 = out.per_stream.iter().map(|s| s.wire_bytes).sum();
        // Header + probe-length field live on stream 0 but are counted
        // message-wide.
        assert_eq!(out.wire_bytes, wire_sum + wire::MSG_HEADER_LEN as u64 + 4);
        assert_eq!(cfg.pool.stats().outstanding, 0, "leaked pooled buffers");
    }

    #[test]
    fn striped_fast_path_populates_per_stream() {
        // Vec sinks → instant probe → fast path on the primary stream;
        // accounting must still cover every stream (FIN-only secondaries).
        let cfg = AdocConfig::default();
        let data = vec![7u8; 2 << 20];
        let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); 3];
        let mut src = &data[..];
        let out = send_message(&mut sinks, &mut src, data.len() as u64, None, &cfg).unwrap();
        assert!(out.fast_path);
        assert_eq!(out.per_stream.len(), 3);
        let probe = cfg.probe_size as u64;
        assert_eq!(out.per_stream[0].raw_bytes, data.len() as u64 - probe);
        assert_eq!(out.per_stream[1].frames, 0);
        assert_eq!(out.per_stream[2].frames, 0);
        let wire_sum: u64 = out.per_stream.iter().map(|s| s.wire_bytes).sum();
        assert_eq!(
            out.wire_bytes,
            wire_sum + wire::MSG_HEADER_LEN as u64 + 4 + probe,
            "per-stream wire bytes + message-wide header/probe must reconcile"
        );
        for (i, s) in out.per_stream.iter().enumerate() {
            assert_eq!(
                s.wire_bytes,
                sinks[i].len() as u64
                    - if i == 0 {
                        wire::MSG_HEADER_LEN as u64 + 4 + probe
                    } else {
                        0
                    }
            );
        }
    }

    #[test]
    fn forced_single_level_wire_is_golden_v1() {
        // A pinned level (min == max) makes the adaptive frame stream
        // deterministic: no probe (forced compression), then one v1
        // frame per `buffer_size` chunk — level, raw_len, payload_len,
        // and the codec's output for that chunk at that level.
        let data = b"the quick brown fox jumps over the lazy dog; ".repeat(14_000);
        assert!(data.len() >= 600_000);
        for level in [1u8, 4, 10] {
            let mut sock = crate::AdocSocket::new(io::empty(), Vec::new());
            sock.write_levels(&data, level, level).unwrap();
            let (_, wire) = sock.into_inner();

            let cfg = AdocConfig::default();
            let mut golden = vec![wire::MAGIC, 0x01];
            golden.extend_from_slice(&(data.len() as u64).to_le_bytes());
            golden.extend_from_slice(&0u32.to_le_bytes());
            for chunk in data.chunks(cfg.buffer_size) {
                let mut enc = Vec::new();
                adoc_codec::compress_at(level, chunk, &mut enc);
                golden.push(level);
                golden.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                golden.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                golden.extend_from_slice(&enc);
            }
            assert_eq!(wire, golden, "v1 adaptive framing drifted at level {level}");
        }
    }

    #[test]
    fn steady_state_send_hits_the_pool() {
        // First message warms the pool; the second must perform zero
        // allocations (every checkout is a hit) and no buffer may remain
        // outstanding once both sends complete.
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20);
        let (_w, _o) = send_to_vec(&data, &cfg);
        let after_first = cfg.pool.stats();
        assert_eq!(after_first.outstanding, 0, "buffers leaked from send");
        let (_w, _o) = send_to_vec(&data, &cfg);
        let after_second = cfg.pool.stats();
        // Zero new allocations in the common schedule; tolerate at most
        // two if the second send happens to keep more frames in flight
        // at once than the first ever did (the bound is the concurrent
        // buffer population, never the packet or frame count).
        assert!(
            after_second.misses <= after_first.misses + 2,
            "steady-state send allocated: {} -> {} misses",
            after_first.misses,
            after_second.misses
        );
        assert!(after_second.hits > after_first.hits);
        assert_eq!(after_second.outstanding, 0);
    }

    #[test]
    fn fast_path_reuses_one_pooled_buffer() {
        // Vec sink → probe classifies the link fast → raw frames. The
        // frame buffer must cycle through the pool, not the allocator.
        let cfg = AdocConfig::default();
        let data = vec![7u8; 4 << 20]; // ~19 fast-path frames
        let (_wire, out) = send_to_vec(&data, &cfg);
        assert!(out.fast_path);
        let s = cfg.pool.stats();
        assert_eq!(s.outstanding, 0);
        assert!(
            s.misses <= 2,
            "fast path allocated {} buffers for {} frames",
            s.misses,
            out.buffers_at_level[0]
        );
        assert!(out.buffers_at_level[0] >= 15);
    }

    #[test]
    fn every_payload_byte_passes_wire_admission() {
        // The fair-share scheduler's contract: everything except the
        // fixed message header (and the probe-length field) flows
        // through Throttle::acquire_wire. A recording throttle must see
        // exactly wire_bytes minus those fixed fields.
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Recorder(AtomicU64);
        impl crate::throttle::Throttle for Recorder {
            fn charge(&self, _e: std::time::Duration) {}
            fn acquire_wire(&self, bytes: usize) {
                self.0.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        // Direct path: admission covers wire minus the 10-byte header.
        let rec = std::sync::Arc::new(Recorder::default());
        let cfg = AdocConfig::default().with_throttle(rec.clone());
        let data = adoc_data_stub(100_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        assert!(out.direct);
        assert_eq!(
            rec.0.load(Ordering::Relaxed),
            out.wire_bytes - wire::MSG_HEADER_LEN as u64
        );
        // Adaptive forced path: every emitted packet is admitted.
        let rec = std::sync::Arc::new(Recorder::default());
        let cfg = AdocConfig::default()
            .with_levels(1, 10)
            .with_throttle(rec.clone());
        let data = adoc_data_stub(1_200_000);
        let (_wire, out) = send_to_vec(&data, &cfg);
        assert!(!out.direct && !out.fast_path);
        assert_eq!(
            rec.0.load(Ordering::Relaxed),
            out.wire_bytes - wire::MSG_HEADER_LEN as u64 - 4
        );
    }

    #[test]
    fn adaptive_send_snapshots_per_level_bandwidth() {
        // A paced sink: an instant Vec sink can finish so fast (release
        // builds) that no level accumulates the monitor's minimum
        // observation time, making the snapshot legitimately empty.
        struct PacedSink(Vec<u8>);
        impl Write for PacedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_micros(20));
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = AdocConfig::default().with_levels(1, 10);
        let data = adoc_data_stub(2 << 20);
        let mut sink = PacedSink(Vec::new());
        let mut src = &data[..];
        let out = send_message(
            std::slice::from_mut(&mut sink),
            &mut src,
            data.len() as u64,
            None,
            &cfg,
        )
        .unwrap();
        let observed: Vec<u8> = (0..11u8)
            .filter(|&l| out.level_bps[l as usize] > 0.0)
            .collect();
        assert!(
            !observed.is_empty(),
            "an adaptive message must observe at least one level's bandwidth"
        );
        for &l in &observed {
            assert!(
                out.buffers_at_level[l as usize] > 0 || out.level_bps[l as usize] > 0.0,
                "level {l} reported without traffic"
            );
        }
        let mut stats = TransferStats::new();
        out.merge_into(&mut stats, data.len() as u64);
        for l in 0..11 {
            assert_eq!(stats.level_bps[l], out.level_bps[l]);
        }
    }

    #[test]
    fn wire_byte_accounting_is_exact() {
        for cfg in [
            AdocConfig::default(),
            AdocConfig::default().with_levels(1, 10),
            AdocConfig::default().with_levels(0, 0),
        ] {
            let data = adoc_data_stub(700_000);
            let (wire, out) = send_to_vec(&data, &cfg);
            assert_eq!(out.wire_bytes, wire.len() as u64, "cfg {cfg:?}");
        }
    }

    #[test]
    fn striped_wire_byte_accounting_is_exact() {
        for streams in [2usize, 3, 4] {
            let cfg = AdocConfig::default().with_levels(1, 10);
            let data = adoc_data_stub(1_300_000);
            let mut sinks: Vec<Vec<u8>> = vec![Vec::new(); streams];
            let mut src = &data[..];
            let out = send_message(&mut sinks, &mut src, data.len() as u64, None, &cfg).unwrap();
            let on_wire: u64 = sinks.iter().map(|s| s.len() as u64).sum();
            assert_eq!(out.wire_bytes, on_wire, "streams = {streams}");
        }
    }

    /// Mildly compressible deterministic payload without pulling in
    /// adoc-data (dev-dependency cycle avoidance in unit tests).
    fn adoc_data_stub(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = 7u64;
        while v.len() < n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if x.is_multiple_of(3) {
                v.extend_from_slice(b"repetitive segment ");
            } else {
                v.extend_from_slice(&x.to_le_bytes());
            }
        }
        v.truncate(n);
        v
    }
}
