//! The repository benchmark.
//!
//! ```text
//! adoc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's inputs from the seed, sets it up several times
//! (timing each set-up), warms it up, then runs it in a closed loop for
//! `S` seconds, verifying every delivered byte. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics.
//! * `--trace 1` runs `S/2` seconds untraced and `S/2` seconds with spans
//!   recorded, times the codec on the workload's inputs, writes the
//!   spans to `.bench_traces/` and reports the per-layer metrics.
//!
//! Workloads: `lan_mixed`, `wan_mixed`, `daemon_echo` (see README.md).

mod codec;
mod compute;
mod cpu;
mod echo;
mod report;
mod sim;
mod stats;
mod trace;
mod workload;

use adoc::PoolStats;
use adoc_server::{EventCounts, RegistryTotals, StageSummaries, WorkerStats};
use adoc_sim::netprofiles::NetProfile;
use report::Report;
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Inputs, Phase};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_traces";

/// Prints `what` failed and exits non-zero without a result line. Used
/// where an I/O error leaves a closed loop unable to continue.
pub fn fatal(what: &str, err: impl Display) -> ! {
    eprintln!("adoc-perfbench: {what}: {err}");
    std::process::exit(1);
}

/// Counters of one layer snapshot, read before and after a phase.
pub struct LayerMark {
    pub pools: Vec<PoolStats>,
    pub server: Option<ServerMark>,
}

/// The daemon's counters at one instant.
pub struct ServerMark {
    pub events: EventCounts,
    pub workers: WorkerStats,
    pub admitted: u64,
    pub utilization: f64,
    pub registry: RegistryTotals,
    pub stages: StageSummaries,
}

/// A set-up workload.
pub trait Rig {
    fn inputs(&self) -> &Inputs;
    /// Sends each kind once through the full pipeline, untimed.
    fn warmup(&mut self) -> Result<(), String>;
    /// Runs the closed loop until `deadline`, and at least until every
    /// kind was sent once.
    fn run(&mut self, deadline: Instant, tracer: Option<&Tracer>) -> Phase;
    fn mark(&self) -> LayerMark;
    /// CPU seconds spent so far inside a simulated link's calls; 0
    /// where the transport is real.
    fn link_cpu_s(&self) -> f64 {
        0.0
    }
    /// Wire bytes over what the link allows in the phase's wall time.
    fn link_util(&self, phase: &Phase, before: &LayerMark, after: &LayerMark) -> f64;
    /// Closes everything and checks the final accounting.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

#[derive(Clone, Copy)]
enum Workload {
    LanMixed,
    WanMixed,
    DaemonEcho,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("lan_mixed", Workload::LanMixed),
        ("wan_mixed", Workload::WanMixed),
        ("daemon_echo", Workload::DaemonEcho),
    ];

    fn inputs(self, seed: u64) -> Inputs {
        let (large, small) = match self {
            Workload::LanMixed => (4 << 20, sim::SMALL_BYTES),
            Workload::WanMixed => (2 << 20, sim::SMALL_BYTES),
            Workload::DaemonEcho => (echo::BULK_BYTES, echo::SMALL_BYTES),
        };
        Inputs::generate(large, small, seed)
    }

    fn setup(self, inputs: Arc<Inputs>) -> std::io::Result<Box<dyn Rig>> {
        Ok(match self {
            Workload::LanMixed => Box::new(sim::SimRig::setup(NetProfile::Lan100, inputs)?),
            Workload::WanMixed => Box::new(sim::SimRig::setup(NetProfile::Renater, inputs)?),
            Workload::DaemonEcho => Box::new(echo::EchoRig::setup(inputs)?),
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn deadline(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

/// Builds the inputs from the seed, then sets the workload up `reps`
/// times, tearing down all but the last, and returns it with the
/// median set-up time. The inputs are the benchmark's own work, so they
/// are built once and outside the timed set-ups.
fn set_up(args: &Args, reps: usize) -> Result<(Box<dyn Rig>, f64), String> {
    let inputs = Arc::new(args.workload.inputs(args.seed));
    let mut times = Vec::with_capacity(reps);
    let mut rig: Option<Box<dyn Rig>> = None;
    for _ in 0..reps {
        if let Some(old) = rig.take() {
            old.teardown()?;
        }
        let t = Instant::now();
        rig = Some(
            args.workload
                .setup(inputs.clone())
                .map_err(|e| format!("set-up: {e}"))?,
        );
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&times).expect("at least one set-up");
    Ok((rig.expect("at least one set-up"), setup_s))
}

/// Prints the result line; `teardown` failing marks the run incorrect.
fn finish(rig: Box<dyn Rig>, attempted: u64, failed: u64, metrics: &str) {
    let torn = rig.teardown();
    if let Err(e) = &torn {
        eprintln!("adoc-perfbench: {e}");
    }
    let correct = failed == 0 && torn.is_ok();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
}

fn run_untraced(args: &Args) -> Result<(), String> {
    let (mut rig, setup_s) = set_up(args, SETUPS)?;
    rig.warmup()?;
    let (cpu0, link0) = (cpu::process_s(), rig.link_cpu_s());
    let phase = rig.run(deadline(args.seconds), None);
    let cpu_s = cpu::process_s() - cpu0;
    // The part of `cpu_s` the simulated link's calls took, spin-waits
    // included; printed so that a reader can tell it from the program's.
    let link_cpu_s = rig.link_cpu_s() - link0;
    let mut r = Report::end_to_end();
    compute::end_to_end(&mut r, &phase, setup_s, cpu_s, peak_rss_mib()?)?;
    let metrics = r.metrics_json()?;
    let mut diag = compute::diagnostics(&phase);
    diag.insert(
        "diag.link_cpu_s_per_gib".into(),
        stats::cpu_s_per_gib(link_cpu_s, compute::verified_bytes(&phase)),
    );
    println!("{}", report::flat_json("diag", &diag));
    let failed = compute::failed(&phase);
    finish(rig, phase.ops.len() as u64, failed, &metrics);
    Ok(())
}

fn run_traced(args: &Args) -> Result<(), String> {
    let (mut rig, _) = set_up(args, 1)?;
    rig.warmup()?;
    let untraced = rig.run(deadline(args.seconds / 2.0), None);
    let tracer = Tracer::new();
    let before = rig.mark();
    let traced = rig.run(deadline(args.seconds / 2.0), Some(&tracer));
    let after = rig.mark();
    let codec = codec::measure(rig.inputs(), &compute::codec_levels(&traced))?;
    let mut r = Report::per_layer();
    let inputs = compute::LayerInputs {
        before: &before,
        after: &after,
        link_util: rig.link_util(&traced, &before, &after),
        codec: &codec,
        untraced_goodput: stats::goodput_mib_s(compute::verified_bytes(&untraced), untraced.wall_s),
    };
    compute::per_layer(&mut r, &traced, &inputs)?;
    let metrics = r.metrics_json()?;

    let path = PathBuf::from(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.name, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("adoc-perfbench: spans written to {}", path.display());
    let spans = trace::self_times(&tracer.spans());
    println!(
        "{}",
        report::flat_json("layers", &compute::layer_details(&before, &after, &spans))
    );
    let attempted = (untraced.ops.len() + traced.ops.len()) as u64;
    let failed = compute::failed(&untraced) + compute::failed(&traced);
    finish(rig, attempted, failed, &metrics);
    Ok(())
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "adoc-perfbench: {e}\nusage: adoc-perfbench --workload lan_mixed|wan_mixed|daemon_echo \
             --seed N --seconds S [--trace 0|1]"
        );
        std::process::exit(2);
    });
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    if let Err(e) = outcome {
        fatal(&args.name, e);
    }
}
