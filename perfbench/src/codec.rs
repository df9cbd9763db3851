//! Codec layer figures, measured by timing `adoc_codec`'s public entry
//! points on the workload's own inputs, cut into pipeline-sized
//! buffers.

use crate::workload::{Inputs, BUFFER_BYTES};
use adoc_codec::checksum::{Adler32, Crc32};
use adoc_codec::{compress_at, decompress_at};
use std::hint::black_box;
use std::time::Instant;

/// Buffers per kind the codec is timed on.
const BUFFERS_PER_KIND: usize = 2;

/// Each figure repeats its work until at least this long has passed.
const MIN_TIMED_S: f64 = 0.03;

/// Levels whose figures are reported by name.
pub const REPORTED_LEVELS: [u8; 4] = [1, 2, 7, 10];

/// Speeds in MiB/s of raw data and the compression ratio, indexed
/// `[kind][level]`; levels not measured read 0.
#[derive(Debug, Default)]
pub struct CodecFigures {
    pub compress_mib_s: [[f64; 11]; 3],
    pub decompress_mib_s: [[f64; 11]; 3],
    pub ratio: [[f64; 11]; 3],
    pub crc32_mib_s: f64,
    pub adler32_mib_s: f64,
}

/// Runs `work` over and over until [`MIN_TIMED_S`] has passed, and
/// returns MiB/s for `bytes_per_run` bytes per call.
fn mib_s(bytes_per_run: usize, mut work: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut runs = 0u64;
    loop {
        work();
        runs += 1;
        let secs = start.elapsed().as_secs_f64();
        if secs >= MIN_TIMED_S {
            return runs as f64 * bytes_per_run as f64 / crate::stats::MIB / secs;
        }
    }
}

/// Times compression and decompression at every level in `levels` and
/// both checksums. Fails if a buffer does not decompress to itself.
pub fn measure(inputs: &Inputs, levels: &[u8]) -> Result<CodecFigures, String> {
    let mut fig = CodecFigures::default();
    let buffers: Vec<Vec<&[u8]>> = inputs
        .large
        .iter()
        .map(|data| data.chunks(BUFFER_BYTES).take(BUFFERS_PER_KIND).collect())
        .collect();
    for (k, bufs) in buffers.iter().enumerate() {
        let raw: usize = bufs.iter().map(|b| b.len()).sum();
        for &level in levels {
            let mut packed: Vec<Vec<u8>> = vec![Vec::new(); bufs.len()];
            let l = usize::from(level);
            fig.compress_mib_s[k][l] = mib_s(raw, || {
                for (b, out) in bufs.iter().zip(packed.iter_mut()) {
                    out.clear();
                    compress_at(level, black_box(b), out);
                }
                black_box(&packed);
            });
            let wire: usize = packed.iter().map(Vec::len).sum();
            fig.ratio[k][l] = raw as f64 / wire as f64;
            let mut unpacked: Vec<Vec<u8>> = vec![Vec::new(); bufs.len()];
            let mut failed = None;
            fig.decompress_mib_s[k][l] = mib_s(raw, || {
                for ((p, b), out) in packed.iter().zip(bufs).zip(unpacked.iter_mut()) {
                    out.clear();
                    if let Err(e) = decompress_at(level, black_box(p), b.len(), out) {
                        failed = Some(e);
                    }
                }
                black_box(&unpacked);
            });
            if let Some(e) = failed {
                return Err(format!("level {level} did not decompress: {e}"));
            }
            if unpacked.iter().zip(bufs).any(|(u, b)| u.as_slice() != *b) {
                return Err(format!("level {level} did not round-trip"));
            }
        }
    }
    let all: Vec<&[u8]> = buffers.concat();
    let raw: usize = all.iter().map(|b| b.len()).sum();
    fig.crc32_mib_s = mib_s(raw, || {
        for b in &all {
            black_box(Crc32::oneshot(black_box(b)));
        }
    });
    fig.adler32_mib_s = mib_s(raw, || {
        for b in &all {
            black_box(Adler32::oneshot(black_box(b)));
        }
    });
    Ok(fig)
}
