//! Process CPU time, the clock the gated timings are read from.
//!
//! On a host whose cores are shared, the wall time of a pass drifts with
//! the neighbours' load: the same `cold` pass ran at 1,500–4,900 requests
//! per second minutes apart on a 2-vCPU x86_64 guest. The CPU time the
//! process itself used leaves out the time the hypervisor gave to others.
//! With one `pas_par` thread no worker is spawned, and over those minutes
//! that pass used 200–216 µs of CPU per request; with two threads on the
//! two shared vCPUs it used 204–304 µs.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used so far, on all its threads (ended ones
/// included), in seconds.
pub fn now_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` on one `pas_par` thread; returns its result and the process
/// CPU seconds it used.
pub fn one_thread<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now_s();
    let out = pas_par::with_threads(1, f);
    (out, now_s() - start)
}
