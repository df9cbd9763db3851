//! Turns the records of a phase into the reported metrics.

use crate::codec::{CodecFigures, REPORTED_LEVELS};
use crate::report::Report;
use crate::stats::{self, quantile};
use crate::trace::NameTotals;
use crate::workload::{OpRecord, Phase, BUFFER_BYTES, KINDS};
use crate::LayerMark;
use std::collections::BTreeMap;

fn samples(
    phase: &Phase,
    keep: impl Fn(&OpRecord) -> bool,
    f: impl Fn(&OpRecord) -> f64,
) -> Vec<f64> {
    phase.ops.iter().filter(|o| keep(o)).map(f).collect()
}

/// Quantile `q` of `v`, failing when there are no samples.
fn q(v: &[f64], q_: f64, what: &str) -> Result<f64, String> {
    quantile(v, q_).ok_or_else(|| format!("no samples for {what}"))
}

pub fn verified_bytes(phase: &Phase) -> u64 {
    phase.ops.iter().map(|o| o.bytes).sum()
}

pub fn failed(phase: &Phase) -> u64 {
    phase.ops.iter().filter(|o| !o.ok).count() as u64
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(
    r: &mut Report,
    phase: &Phase,
    setup_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
) -> Result<(), String> {
    let verified = verified_bytes(phase);
    r.set("setup_s", setup_s);
    r.set(
        "goodput_mib_s",
        stats::goodput_mib_s(verified, phase.wall_s),
    );
    for (k, (_, kind)) in KINDS.iter().enumerate() {
        let v = samples(phase, |o| o.large && o.kind == k, |o| o.latency_s() * 1e3);
        r.set(&format!("{kind}_p50_ms"), q(&v, 0.5, kind)?);
    }
    let bulk = samples(phase, |o| o.large, |o| o.latency_s() * 1e3);
    r.set("bulk_p50_ms", q(&bulk, 0.5, "bulk")?);
    r.set("bulk_p90_ms", q(&bulk, 0.9, "bulk")?);
    let small = samples(phase, |o| !o.large, |o| o.latency_s() * 1e6);
    r.set("small_p50_us", q(&small, 0.5, "small")?);
    r.set("small_p90_us", q(&small, 0.9, "small")?);
    r.set("cpu_s_per_gib", stats::cpu_s_per_gib(cpu_s, verified));
    r.set("peak_rss_mib", peak_rss_mib);
    Ok(())
}

/// Sample counts, the tail rule's verdicts, the small-message p99 and
/// the failure share, for the line printed before the result.
pub fn diagnostics(phase: &Phase) -> BTreeMap<String, f64> {
    let mut d = BTreeMap::new();
    for (k, (_, kind)) in KINDS.iter().enumerate() {
        let n = phase.ops.iter().filter(|o| o.large && o.kind == k).count();
        d.insert(format!("n.{kind}"), n as f64);
    }
    let bulk = phase.ops.iter().filter(|o| o.large).count();
    let small = samples(phase, |o| !o.large, |o| o.latency_s() * 1e6);
    d.insert("n.bulk".into(), bulk as f64);
    d.insert("n.small".into(), small.len() as f64);
    let flag = |ok: bool| if ok { 1.0 } else { 0.0 };
    d.insert(
        "tail_ok.bulk_p90".into(),
        flag(stats::tail_supported(bulk, 0.9)),
    );
    d.insert(
        "tail_ok.small_p90".into(),
        flag(stats::tail_supported(small.len(), 0.9)),
    );
    d.insert(
        "tail_ok.small_p99".into(),
        flag(stats::tail_supported(small.len(), 0.99)),
    );
    d.insert(
        "diag.small_p99_us".into(),
        quantile(&small, 0.99).unwrap_or(f64::NAN),
    );
    d.insert(
        "fail_frac".into(),
        stats::fail_frac(failed(phase), phase.ops.len() as u64),
    );
    d
}

/// Compression buffers per kind and level, summed over a phase.
pub fn buffers_by_kind(phase: &Phase) -> [[u64; 11]; 3] {
    let mut b = [[0u64; 11]; 3];
    for o in &phase.ops {
        for (l, n) in o.send.buffers.iter().enumerate() {
            b[o.kind][l] += n;
        }
    }
    b
}

/// Levels the codec must be timed at: the reported ones and every
/// level the phase used.
pub fn codec_levels(phase: &Phase) -> Vec<u8> {
    let used = buffers_by_kind(phase);
    (1..=10u8)
        .filter(|&l| REPORTED_LEVELS.contains(&l) || used.iter().any(|b| b[usize::from(l)] > 0))
        .collect()
}

/// What the traced run measured besides the phase itself.
pub struct LayerInputs<'a> {
    pub before: &'a LayerMark,
    pub after: &'a LayerMark,
    pub link_util: f64,
    pub codec: &'a CodecFigures,
    pub untraced_goodput: f64,
}

/// The per-layer metrics of a traced phase.
pub fn per_layer(r: &mut Report, phase: &Phase, x: &LayerInputs) -> Result<(), String> {
    let large: Vec<&OpRecord> = phase.ops.iter().filter(|o| o.large).collect();
    let buffers = buffers_by_kind(phase);

    for level in REPORTED_LEVELS {
        let l = usize::from(level);
        for (k, (_, kind)) in KINDS.iter().enumerate() {
            r.set(
                &format!("codec.compress_mib_s.l{level}.{kind}"),
                x.codec.compress_mib_s[k][l],
            );
            r.set(
                &format!("codec.decompress_mib_s.l{level}.{kind}"),
                x.codec.decompress_mib_s[k][l],
            );
            r.set(&format!("codec.ratio.l{level}.{kind}"), x.codec.ratio[k][l]);
        }
    }
    r.set("codec.crc32_mib_s", x.codec.crc32_mib_s);
    r.set("codec.adler32_mib_s", x.codec.adler32_mib_s);
    let busy = stats::est_busy_frac(
        &buffers,
        &x.codec.compress_mib_s,
        BUFFER_BYTES,
        phase.wall_s,
    )
    .ok_or("a level the phase used has no codec speed")?;
    r.set("codec.est_busy_frac", busy);

    for (k, (_, kind)) in KINDS.iter().enumerate() {
        r.set(
            &format!("adapt.mean_level.{kind}"),
            stats::mean_level(&buffers[k]),
        );
        let (raw, wire) = large
            .iter()
            .filter(|o| o.kind == k)
            .fold((0u64, 0u64), |(r, w), o| (r + o.send.raw, w + o.send.wire));
        r.set(
            &format!("adapt.wire_ratio.{kind}"),
            stats::ratio(raw as f64, wire as f64),
        );
    }
    let all: u64 = buffers.iter().flatten().sum();
    let high: u64 = buffers.iter().map(|b| b[8..].iter().sum::<u64>()).sum();
    r.set(
        "adapt.high_level_frac",
        stats::ratio(high as f64, all as f64),
    );
    let changes: u64 = large.iter().map(|o| o.send.level_changes).sum();
    r.set(
        "adapt.level_changes_per_msg",
        stats::ratio(changes as f64, large.len() as f64),
    );
    let incomp = &buffers[2];
    let incomp_all: u64 = incomp.iter().sum();
    r.set(
        "adapt.wasted_frac.incomp",
        stats::ratio((incomp_all - incomp[0]) as f64, incomp_all as f64),
    );
    let count = |f: fn(&OpRecord) -> u64| phase.ops.iter().map(f).sum::<u64>() as f64;
    r.set("adapt.ratio_trips", count(|o| o.send.ratio_trips));
    r.set(
        "adapt.divergence_reverts",
        count(|o| o.send.divergence_reverts),
    );
    r.set("adapt.probes", count(|o| o.send.probes));
    r.set("adapt.fast_path_hits", count(|o| o.send.fast_path_hits));
    r.set("adapt.direct_msgs", count(|o| o.send.direct_msgs));

    for (side, pick) in [
        ("write", (|o: &OpRecord| o.write_s) as fn(&OpRecord) -> f64),
        ("read", |o: &OpRecord| o.read_s),
    ] {
        for (k, (_, kind)) in KINDS.iter().enumerate() {
            let v = samples(phase, |o| o.large && o.kind == k, |o| pick(o) * 1e3);
            r.set(&format!("socket.{side}_ms.{kind}"), q(&v, 0.5, kind)?);
        }
        let v = samples(phase, |o| !o.large, |o| pick(o) * 1e6);
        r.set(&format!("socket.{side}_us.small"), q(&v, 0.5, "small")?);
        let v = samples(phase, |o| o.large, |o| pick(o) * 1e3);
        r.set(&format!("socket.{side}_ms.bulk"), q(&v, 0.5, "bulk")?);
    }

    let (mut hits, mut misses, mut evicted, mut peak) = (0u64, 0u64, 0u64, 0i64);
    for (b, a) in x.before.pools.iter().zip(&x.after.pools) {
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
        evicted += a.evicted - b.evicted;
        peak += a.peak_outstanding;
    }
    r.set(
        "pool.hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    r.set("pool.peak_outstanding", peak as f64);
    r.set("pool.evicted", evicted as f64);
    r.set("link.util", x.link_util);

    // The daemon's counters; 0 where no daemon runs.
    const SERVER: [&str; 7] = [
        "workers.jobs_per_msg",
        "workers.queue_peak",
        "workers.panics",
        "sched.waits",
        "sched.utilization",
        "reactor.ticks_per_msg",
        "registry.failed",
    ];
    let server = match (&x.before.server, &x.after.server) {
        (Some(b), Some(a)) => {
            let served = (a.registry.messages - b.registry.messages) as f64;
            let delta = |after: u64, before: u64| (after - before) as f64;
            [
                stats::ratio(delta(a.workers.completed, b.workers.completed), served),
                a.workers.queue_peak as f64,
                delta(a.workers.panics, b.workers.panics),
                delta(a.events.sched_waits, b.events.sched_waits),
                a.utilization,
                stats::ratio(
                    delta(a.events.reactor_ticks, b.events.reactor_ticks),
                    served,
                ),
                delta(a.registry.failed, b.registry.failed),
            ]
        }
        _ => [0.0; 7],
    };
    for (name, v) in SERVER.iter().zip(server) {
        r.set(name, v);
    }

    let traced_goodput = stats::goodput_mib_s(verified_bytes(phase), phase.wall_s);
    r.set("trace_overhead", 1.0 - traced_goodput / x.untraced_goodput);
    Ok(())
}

/// Layer figures that exist only on some workloads (the daemon's stage
/// latencies and scheduler wait) and the self time per span name.
pub fn layer_details(
    before: &LayerMark,
    after: &LayerMark,
    spans: &BTreeMap<&'static str, NameTotals>,
) -> BTreeMap<String, f64> {
    let mut d = BTreeMap::new();
    if let (Some(b), Some(a)) = (&before.server, &after.server) {
        for (stage, s) in a.stages.stages() {
            d.insert(format!("server.{stage}_us.p50"), s.p50 as f64);
            d.insert(format!("server.{stage}_us.p90"), s.p90 as f64);
        }
        d.insert(
            "sched.wait_s".into(),
            a.events.sched_wait_secs - b.events.sched_wait_secs,
        );
    }
    for (name, t) in spans {
        d.insert(format!("span.{name}.count"), t.count as f64);
        d.insert(format!("span.{name}.total_ms"), t.total_us / 1e3);
        d.insert(format!("span.{name}.self_ms"), t.self_us / 1e3);
    }
    d
}
