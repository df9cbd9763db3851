//! `daemon_echo`: an in-process `adoc-server` daemon on loopback TCP and
//! [`CLIENTS`] client connections, each in a closed loop. A client's
//! cycle is one 1 MiB echo, sent with levels fixed at
//! [`BULK_LEVEL`], then [`SMALL_PER_BULK`] echoes of 4 KB on the
//! default direct path; the kind rotates from echo to echo.

use crate::fatal;
use crate::trace::Tracer;
use crate::workload::{trace_op, Inputs, OpRecord, OpTimes, Phase, SpanNames, StatsMark};
use crate::{LayerMark, Rig, ServerMark};
use adoc::{AdocConfig, AdocSocket, BufferPool};
use adoc_server::{daemon, DaemonHandle, Server, ServerConfig};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections; the machine the benchmark targets has two cores.
pub const CLIENTS: usize = 2;
/// Size of the bulk echo.
pub const BULK_BYTES: usize = 1 << 20;
/// Small echoes per bulk echo.
pub const SMALL_PER_BULK: usize = 64;
/// Size of a small echo.
pub const SMALL_BYTES: usize = 4096;
/// Level the daemon and the bulk sends are pinned to (deflate-1), so
/// the codec runs on the daemon's workers without adaptation.
pub const BULK_LEVEL: u8 = 2;
/// A scheduler budget the workload never reaches: the scheduler
/// admits every byte and parks none.
pub const BUDGET_MBIT: f64 = 4000.0;

/// How long the clients wait after starting the daemon before they
/// dial. The daemon's accept loop polls a non-blocking listener and
/// sleeps 10 ms whenever no connection is pending. A dial that races
/// the loop's first poll is picked up at once or 10 ms later, so set-up
/// times fall into two clusters and their median flips between them.
/// Dialling after the first poll has surely happened makes set-up
/// always include one poll period.
const DIAL_DELAY: Duration = Duration::from_millis(2);

const SPANS: SpanNames = ["echo.ascii", "echo.binary", "echo.incomp", "echo.small"];

type Client = AdocSocket<TcpStream, TcpStream>;

pub struct EchoRig {
    inputs: Arc<Inputs>,
    daemon: Option<DaemonHandle>,
    clients: Vec<Client>,
    pools: Vec<BufferPool>,
    next_msg: AtomicU64,
}

/// Operation `i` of client `c`: (kind index, bulk?). The clients start
/// the rotation at different kinds.
pub fn schedule(c: usize, i: usize) -> (usize, bool) {
    let cycle = i / (1 + SMALL_PER_BULK);
    let pos = i % (1 + SMALL_PER_BULK);
    ((cycle + pos + c) % 3, pos == 0)
}

impl EchoRig {
    pub fn setup(inputs: Arc<Inputs>) -> io::Result<EchoRig> {
        let cfg = ServerConfig::builder()
            .adoc(AdocConfig::default().with_levels(BULK_LEVEL, BULK_LEVEL))
            .budget(Some(BUDGET_MBIT * 1e6 / 8.0))
            .build()
            .map_err(io::Error::other)?;
        let handle = daemon::spawn(Server::new(cfg)?, "127.0.0.1:0")?;
        std::thread::sleep(DIAL_DELAY);
        let mut clients = Vec::new();
        let mut pools = Vec::new();
        for _ in 0..CLIENTS {
            let sock = TcpStream::connect(handle.addr())?;
            sock.set_nodelay(true)?;
            let cfg = AdocConfig::default();
            pools.push(cfg.pool.clone());
            clients.push(AdocSocket::with_config(sock.try_clone()?, sock, cfg)?);
        }
        let mut rig = EchoRig {
            inputs,
            daemon: Some(handle),
            clients,
            pools,
            next_msg: AtomicU64::new(1),
        };
        // One small echo per client: the daemon has admitted both
        // connections before set-up ends.
        let first = rig.echo(&|_, i| (i == 0).then_some((0, false)), None);
        if first.ops.len() != CLIENTS || !first.ops.iter().all(|o| o.ok) {
            return Err(io::Error::other("first echo was not returned intact"));
        }
        Ok(rig)
    }

    fn server(&self) -> &Server {
        self.daemon
            .as_ref()
            .expect("the daemon runs until teardown")
            .server()
    }

    /// Runs every client's plan on its own thread until the plan returns
    /// `None`.
    fn echo(
        &mut self,
        plan: &(dyn Fn(usize, usize) -> Option<(usize, bool)> + Sync),
        tracer: Option<&Tracer>,
    ) -> Phase {
        let inputs = &*self.inputs;
        let next_msg = &self.next_msg;
        let start = Instant::now();
        let ops = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut back = vec![0u8; BULK_BYTES];
                        let mut ops = Vec::new();
                        let mut i = 0;
                        while let Some((kind, bulk)) = plan(c, i) {
                            i += 1;
                            let msg = next_msg.fetch_add(1, Ordering::Relaxed);
                            let data = inputs.payload(kind, bulk);
                            let got = &mut back[..data.len()];
                            let mark = StatsMark::of(client.stats());
                            let t0 = Instant::now();
                            let report = if bulk {
                                client.write_levels(data, BULK_LEVEL, BULK_LEVEL)
                            } else {
                                client.write(data)
                            }
                            .unwrap_or_else(|e| fatal("echo send", e));
                            let written = Instant::now();
                            client
                                .read_exact(got)
                                .unwrap_or_else(|e| fatal("echo reply", e));
                            let done = Instant::now();
                            let send = mark.delta(client.stats(), report.raw, report.wire);
                            let ok = got == data;
                            if let Some(t) = tracer {
                                let times = OpTimes {
                                    start: t0,
                                    written,
                                    read_start: written,
                                    done,
                                };
                                trace_op(t, &SPANS, (kind, bulk), msg, times);
                            }
                            ops.push(OpRecord {
                                kind,
                                large: bulk,
                                bytes: if ok { data.len() as u64 } else { 0 },
                                write_s: (written - t0).as_secs_f64(),
                                read_s: (done - written).as_secs_f64(),
                                ok,
                                send,
                            });
                        }
                        ops
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("an echo client panicked"))
                .collect()
        });
        Phase {
            ops,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

impl Rig for EchoRig {
    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn warmup(&mut self) -> Result<(), String> {
        let phase = self.echo(&|c, i| (i < 3).then_some(((i + c) % 3, true)), None);
        match phase.ops.iter().all(|o| o.ok) {
            true => Ok(()),
            false => Err("a warm-up echo was not returned intact".into()),
        }
    }

    fn run(&mut self, deadline: Instant, tracer: Option<&Tracer>) -> Phase {
        // At least one full rotation per client, so every kind has a
        // sample.
        let min_ops = 3 * (1 + SMALL_PER_BULK);
        self.echo(
            &|c, i| (i < min_ops || Instant::now() < deadline).then(|| schedule(c, i)),
            tracer,
        )
    }

    fn mark(&self) -> LayerMark {
        let server = self.server();
        let mut pools: Vec<_> = self.pools.iter().map(BufferPool::stats).collect();
        pools.push(server.pool().stats());
        LayerMark {
            pools,
            server: Some(ServerMark {
                events: server.event_counts(),
                workers: server.worker_stats(),
                admitted: server.scheduler().total_admitted(),
                utilization: server.scheduler().utilization().unwrap_or(0.0),
                registry: server.registry().totals(),
                stages: server.tracer().global().summaries(),
            }),
        }
    }

    /// The loopback "link" is the scheduler's budget: bytes it admitted
    /// over what the budget allows in the phase's wall time.
    fn link_util(&self, phase: &Phase, before: &LayerMark, after: &LayerMark) -> f64 {
        let admitted = match (&before.server, &after.server) {
            (Some(b), Some(a)) => a.admitted - b.admitted,
            _ => 0,
        };
        admitted as f64 / (BUDGET_MBIT * 1e6 / 8.0 * phase.wall_s)
    }

    fn teardown(mut self: Box<Self>) -> Result<(), String> {
        // Close the clients first so the drain finds no open message.
        self.clients.clear();
        let handle = self.daemon.take().expect("teardown runs once");
        handle
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_offsets_the_clients() {
        assert_eq!(schedule(0, 0), (0, true));
        assert_eq!(schedule(1, 0), (1, true));
        assert_eq!(schedule(0, 1 + SMALL_PER_BULK), (1, true));
        let bulk = (0..3 * (1 + SMALL_PER_BULK))
            .filter(|&i| schedule(0, i).1)
            .count();
        assert_eq!(bulk, 3);
    }
}
