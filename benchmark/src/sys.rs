//! Raw Linux bindings the harness measures with, kept in one corner (the
//! same pattern as `dne-graph`'s mmap shim and `dne-runtime`'s poll shim):
//! CPU affinity and the process CPU clock.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark pins CPUs and reads /proc: it is defined for Linux only");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Words of the affinity mask: 1024 CPUs, the kernel's default `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPU seconds this process (all threads) has consumed so far. Unlike wall
/// time it does not advance while the host steals the vCPU.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes long.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Pin this process (and every thread and child it starts afterwards) to
/// the highest-numbered allowed CPU. Returns the CPU, or `None` when the
/// kernel refused — the run then proceeds unpinned and says so in its
/// configuration record.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly `size_of_val(&mask)` bytes long.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Run `f` and return its result with the process CPU seconds and the wall
/// seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let wall = std::time::Instant::now();
    let cpu = process_cpu_seconds();
    let out = f();
    let cpu = process_cpu_seconds() - cpu;
    (out, cpu, wall.elapsed().as_secs_f64())
}
