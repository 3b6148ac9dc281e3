//! The benchmark's clock: CPU time of the calling thread.
//!
//! Every host time the benchmark reports is read from this clock rather than
//! from the wall clock. On a shared virtual machine a thread is often off its
//! processor: preempted by another process of the guest, or its vCPU
//! descheduled by the host. Wall time counts those gaps, and their length
//! has nothing to do with the program; thread CPU time leaves them out.

/// CPU seconds the calling thread has run so far (Linux).
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Run `f` and return its result with the CPU seconds it took on this
/// thread.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_s();
    let value = f();
    (value, thread_cpu_s() - start)
}
