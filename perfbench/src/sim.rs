//! `lan_mixed` and `wan_mixed`: one `AdocSocket` pair over a simulated
//! link, streaming messages one way in a closed loop. Each cycle sends
//! one large message, then [`SMALL_PER_LARGE`] small ones; the kind
//! rotates ASCII → binary → incompressible from message to message.

use crate::cpu::Metered;
use crate::fatal;
use crate::trace::Tracer;
use crate::workload::{trace_op, Inputs, OpRecord, OpTimes, Phase, SpanNames, StatsMark};
use crate::{LayerMark, Rig};
use adoc::{AdocConfig, AdocSocket, BufferPool};
use adoc_sim::link::{duplex, LinkReader, LinkWriter};
use adoc_sim::netprofiles::NetProfile;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Small messages sent after each large one.
pub const SMALL_PER_LARGE: usize = 16;

/// Payload of a small message. On the LAN its wire time, 82 µs of
/// serialization plus 90 µs of propagation, stays under the link's
/// 200 µs spin threshold, so the waiting reader spins instead of
/// sleeping on a timer. A 4 KB message (418 µs) made the reader sleep,
/// and the wake-up of an idle virtual CPU, not the program, then set
/// the tail.
pub const SMALL_BYTES: usize = 1024;

/// Wire time of the message that ends each set-up. The message is a
/// prefix of the ASCII payload, well below the 512 KB probe threshold,
/// so it is sent raw on the direct path: 62.5 KB on the LAN, 7.5 KB on
/// the WAN. Its wire time dominates the set-up, so that the host's
/// wake-up jitter (0.1 to 1 ms on a loaded two-core VM) does not.
const SETUP_WIRE_S: f64 = 0.005;

/// Warm-up messages are capped at this size: enough to run the probe
/// and the full pipeline once per kind without a long wait on the WAN.
const WARMUP_BYTES: usize = 1 << 20;

const SPANS: SpanNames = ["msg.ascii", "msg.binary", "msg.incomp", "msg.small"];

type SimSocket = AdocSocket<Metered<LinkReader>, Metered<LinkWriter>>;

pub struct SimRig {
    profile: NetProfile,
    inputs: Arc<Inputs>,
    tx: SimSocket,
    rx: SimSocket,
    pools: [BufferPool; 2],
    /// Σ `SendReport::wire` over every send, checked at teardown
    /// against the bytes the link itself carried.
    wire_sent: u64,
    next_msg: u64,
    /// CPU nanoseconds spent inside the link's read and write calls.
    link_cpu_ns: Arc<AtomicU64>,
}

/// Operation `i` of the rotation: (kind index, large?).
pub fn schedule(i: usize) -> (usize, bool) {
    let cycle = i / (1 + SMALL_PER_LARGE);
    let pos = i % (1 + SMALL_PER_LARGE);
    ((cycle + pos) % 3, pos == 0)
}

impl SimRig {
    pub fn setup(profile: NetProfile, inputs: Arc<Inputs>) -> io::Result<SimRig> {
        let link_cpu_ns = Arc::new(AtomicU64::new(0));
        let (a, b) = duplex(profile.link_cfg());
        let (ar, aw) = a.split();
        let (br, bw) = b.split();
        let ns = || link_cpu_ns.clone();
        let (ar, aw) = (Metered::new(ar, ns()), Metered::new(aw, ns()));
        let (br, bw) = (Metered::new(br, ns()), Metered::new(bw, ns()));
        let (ctx, crx) = (AdocConfig::default(), AdocConfig::default());
        let pools = [ctx.pool.clone(), crx.pool.clone()];
        let mut rig = SimRig {
            profile,
            inputs,
            tx: AdocSocket::with_config(ar, aw, ctx)?,
            rx: AdocSocket::with_config(br, bw, crx)?,
            pools,
            wire_sent: 0,
            next_msg: 1,
            link_cpu_ns,
        };
        // One message proves the link carries bytes end to end.
        let setup_bytes = (profile.bandwidth_bps() / 8.0 * SETUP_WIRE_S) as usize;
        let first = rig.send(&|i| (i == 0).then_some((0, true)), None, setup_bytes);
        if !first.ops.iter().all(|o| o.ok) {
            return Err(io::Error::other("first message was not delivered intact"));
        }
        Ok(rig)
    }

    /// Sends operations from `plan` until it returns `None`, each one
    /// only after the previous one was fully received and verified.
    /// Large payloads are cut to `large_cap` bytes.
    fn send(
        &mut self,
        plan: &(dyn Fn(usize) -> Option<(usize, bool)> + Sync),
        tracer: Option<&Tracer>,
        large_cap: usize,
    ) -> Phase {
        let SimRig {
            inputs,
            tx,
            rx,
            wire_sent,
            next_msg,
            ..
        } = self;
        let inputs = &**inputs;
        let payload = |kind: usize, large: bool| {
            let p = inputs.payload(kind, large);
            &p[..p.len().min(large_cap)]
        };
        let (op_tx, op_rx) = mpsc::channel::<(usize, bool)>();
        let (ack_tx, ack_rx) = mpsc::channel::<(Instant, Instant, bool)>();
        let start = Instant::now();
        let ops = std::thread::scope(|s| {
            s.spawn(move || {
                let mut buf = vec![0u8; inputs.large[0].len()];
                for (kind, large) in op_rx {
                    let want = payload(kind, large);
                    let got = &mut buf[..want.len()];
                    let read_start = Instant::now();
                    if let Err(e) = rx.read_exact(got) {
                        fatal("receive", e);
                    }
                    let done = Instant::now();
                    if ack_tx.send((read_start, done, got == want)).is_err() {
                        break;
                    }
                }
            });
            let mut ops = Vec::new();
            let mut i = 0;
            while let Some((kind, large)) = plan(i) {
                i += 1;
                let msg = *next_msg;
                *next_msg += 1;
                let data = payload(kind, large);
                op_tx
                    .send((kind, large))
                    .expect("the receiver outlives the sender");
                let mark = StatsMark::of(tx.stats());
                let t0 = Instant::now();
                let report = tx.write(data).unwrap_or_else(|e| fatal("send", e));
                let written = Instant::now();
                let send = mark.delta(tx.stats(), report.raw, report.wire);
                *wire_sent += report.wire;
                let (read_start, done, ok) = ack_rx
                    .recv()
                    .unwrap_or_else(|e| fatal("receiver acknowledgement", e));
                if let Some(t) = tracer {
                    let times = OpTimes {
                        start: t0,
                        written,
                        read_start,
                        done,
                    };
                    trace_op(t, &SPANS, (kind, large), msg, times);
                }
                ops.push(OpRecord {
                    kind,
                    large,
                    bytes: if ok { data.len() as u64 } else { 0 },
                    write_s: (written - t0).as_secs_f64(),
                    read_s: done.saturating_duration_since(written).as_secs_f64(),
                    ok,
                    send,
                });
            }
            drop(op_tx);
            ops
        });
        Phase {
            ops,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

impl Rig for SimRig {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn warmup(&mut self) -> Result<(), String> {
        let phase = self.send(&|i| (i < 3).then_some((i, true)), None, WARMUP_BYTES);
        match phase.ops.iter().all(|o| o.ok) {
            true => Ok(()),
            false => Err("a warm-up message was not delivered intact".into()),
        }
    }

    fn run(&mut self, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        // At least one full rotation, so every kind has a sample.
        let min_ops = 3 * (1 + SMALL_PER_LARGE);
        self.send(
            &|i| (i < min_ops || Instant::now() < deadline).then(|| schedule(i)),
            tracer,
            usize::MAX,
        )
    }

    fn mark(&self) -> LayerMark {
        LayerMark {
            pools: self.pools.iter().map(BufferPool::stats).collect(),
            server: None,
        }
    }

    fn link_cpu_s(&self) -> f64 {
        self.link_cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn link_util(&self, phase: &Phase, _before: &LayerMark, _after: &LayerMark) -> f64 {
        let wire: u64 = phase.ops.iter().map(|o| o.send.wire).sum();
        wire as f64 / (self.profile.bandwidth_bps() / 8.0 * phase.wall_s)
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let (_, link) = self.tx.into_inner();
        let carried = link.inner.tx_bytes();
        if carried != self.wire_sent {
            return Err(format!(
                "the link carried {carried} bytes but the sends reported {} wire bytes",
                self.wire_sent
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_rotates_kinds_and_interleaves_small_messages() {
        let ops: Vec<_> = (0..3 * (1 + SMALL_PER_LARGE)).map(schedule).collect();
        let large: Vec<usize> = ops.iter().filter(|o| o.1).map(|o| o.0).collect();
        assert_eq!(large, vec![0, 1, 2]);
        assert_eq!(ops.iter().filter(|o| !o.1).count(), 3 * SMALL_PER_LARGE);
        assert_eq!(ops[0], (0, true));
        assert_eq!(ops[1 + SMALL_PER_LARGE], (1, true));
    }
}
