//! CPU-time clocks.
//!
//! The benchmark runs on small shared virtual machines, where the
//! hypervisor takes the CPU away from a busy guest for stretches of tens
//! of percent. Wall time then swings between identical runs; the CPU
//! clocks do not count the stolen time. CPU-bound work is therefore timed
//! with [`CpuTimer`]: on the process clock, which counts every thread of
//! the process, for whole operations, so work moved to another thread is
//! still paid for; on the thread clock for one call of a layer on the
//! calling thread.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_time(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // (two 64-bit fields on 64-bit Linux), and the clock id is one of two
    // constants every Linux kernel accepts; the call writes only through
    // `tp`.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch over a CPU clock.
pub struct CpuTimer {
    clock_id: i32,
    start: Duration,
}

impl CpuTimer {
    /// CPU time of the whole process, every thread together.
    pub fn process() -> CpuTimer {
        CpuTimer {
            clock_id: CLOCK_PROCESS_CPUTIME_ID,
            start: cpu_time(CLOCK_PROCESS_CPUTIME_ID),
        }
    }

    /// CPU time of the calling thread only.
    pub fn thread() -> CpuTimer {
        CpuTimer {
            clock_id: CLOCK_THREAD_CPUTIME_ID,
            start: cpu_time(CLOCK_THREAD_CPUTIME_ID),
        }
    }

    pub fn elapsed(&self) -> Duration {
        cpu_time(self.clock_id).saturating_sub(self.start)
    }

    pub fn ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_but_not_with_sleep() {
        for timer in [CpuTimer::thread, CpuTimer::process] {
            let t = timer();
            std::thread::sleep(Duration::from_millis(50));
            assert!(t.elapsed() < Duration::from_millis(25));
            let t = timer();
            let mut x = 0u64;
            while t.elapsed() < Duration::from_millis(5) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            assert!(x > 0);
        }
    }

    #[test]
    fn the_process_clock_counts_other_threads() {
        let process = CpuTimer::process();
        let thread = CpuTimer::thread();
        std::thread::spawn(|| {
            let t = CpuTimer::thread();
            while t.elapsed() < Duration::from_millis(20) {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .expect("spinning thread");
        assert!(process.elapsed() >= Duration::from_millis(20));
        assert!(thread.elapsed() < Duration::from_millis(10));
    }
}
