//! CPU time: the whole process, and the part spent inside a transport's
//! calls, so that a simulated link's own work can be told apart from
//! the program's.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock ids are the
    // Linux constants, which every kernel the benchmark runs on knows.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU seconds of this process, all threads included.
pub fn process_s() -> f64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 / 1e9
}

/// A reader or writer that adds the CPU time its calls take on the
/// calling thread to a shared counter.
pub struct Metered<T> {
    pub inner: T,
    ns: Arc<AtomicU64>,
}

impl<T> Metered<T> {
    pub fn new(inner: T, ns: Arc<AtomicU64>) -> Metered<T> {
        Metered { inner, ns }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let t0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        let out = f(&mut self.inner);
        let spent = clock_ns(CLOCK_THREAD_CPUTIME_ID) - t0;
        self.ns.fetch_add(spent, Ordering::Relaxed);
        out
    }
}

impl<T: Read> Read for Metered<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.timed(|r| r.read(buf))
    }
}

impl<T: Write> Write for Metered<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.timed(|w| w.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed(|w| w.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metered_calls_count_their_cpu_time() {
        let ns = Arc::new(AtomicU64::new(0));
        let mut w = Metered::new(Vec::new(), ns.clone());
        let p0 = process_s();
        for _ in 0..2000 {
            w.write_all(&[7u8; 4096]).unwrap();
        }
        assert_eq!(w.inner.len(), 2000 * 4096);
        let spent = ns.load(Ordering::Relaxed) as f64 / 1e9;
        assert!(spent > 0.0);
        assert!(spent <= process_s() - p0 + 1e-3);
    }
}
