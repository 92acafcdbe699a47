//! The benchmark's host clock: on-CPU time of the calling thread, and a
//! reference workload that reads how fast the host runs right now.
//!
//! The benchmark is single-threaded, so on an idle machine its thread's
//! CPU time equals the wall-clock time of the same work. On a shared host
//! it does not count the time other processes, or the hypervisor (steal
//! time), held the CPU while the benchmark waited for it. It still counts
//! the slowdown a co-tenant on the same physical core or memory causes,
//! which moved the same work by 40% between runs minutes apart; the VM
//! has no performance counters to count work instead of time. So a fixed
//! reference workload runs just before every cell and every set-up, and
//! the end-to-end times are reported in seconds at the speed the
//! reference runs at on a quiet host ([`at_quiet_speed`]). The reference slows less
//! than the simulator under the same contention, so this narrows the
//! spread between runs without removing it.

use std::cell::RefCell;
use std::hint::black_box;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// On-CPU seconds of the calling thread since it started: user and
/// kernel time, as `CLOCK_THREAD_CPUTIME_ID` reads it.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
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
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` of the 64-bit
    // Linux layout, and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of one [`reference_s`] on a quiet host: a round figure
/// just under the fastest runs seen on a 2-core x86-64 VM (Xeon, 105 MiB
/// L3). It fixes the unit [`at_quiet_speed`] converts to, not the
/// steadiness.
pub const REFERENCE_QUIET_S: f64 = 0.025;

/// Steps of the reference's cache-missing walk.
const WALK_STEPS: usize = 150_000;
/// Entries of the walk's permutation: 32 MiB of `u32`, past the L2 and a
/// good share of the L3.
const WALK_LEN: usize = 1 << 23;
/// Updates of the reference's L2-sized table.
const TABLE_OPS: u64 = 1_000_000;
/// Entries of that table: 512 KiB of `u64`.
const TABLE_LEN: usize = 1 << 16;

/// Bytes the reference workload keeps resident once built; the benchmark
/// takes them off the process's peak resident set to report the
/// simulator's.
pub const REFERENCE_BYTES: usize = WALK_LEN * 4 + TABLE_LEN * 8;

/// The reference workload: it shares no code with the simulator, so a
/// change to the simulator leaves it alone. It mixes the two kinds of
/// work the simulator does — dependent loads that miss the caches, and
/// arithmetic on cache-resident tables.
struct Reference {
    /// A single-cycle permutation (Sattolo's algorithm), so the walk
    /// visits every entry before it repeats one.
    next: Vec<u32>,
    table: Vec<u64>,
    at: u32,
}

impl Reference {
    fn new() -> Reference {
        let mut next: Vec<u32> = (0..WALK_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..WALK_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Reference {
            next,
            table: vec![0; TABLE_LEN],
            at: 0,
        }
    }

    fn run(&mut self) {
        let mut at = self.at;
        for _ in 0..WALK_STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let mut h = u64::from(at) | 1;
        for i in 0..TABLE_OPS {
            h = (h ^ (h << 7) ^ (h >> 9)).wrapping_mul(0x2545_F491_4F6C_DD1D);
            self.table[(h >> 48) as usize] ^= i;
        }
        black_box(&self.table);
    }
}

thread_local! {
    static REFERENCE: RefCell<Option<Reference>> = const { RefCell::new(None) };
}

/// CPU seconds of one run of the reference workload on this thread. The
/// first call also builds the workload's tables, untimed.
pub fn reference_s() -> f64 {
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.get_or_insert_with(Reference::new);
        let start = thread_cpu_s();
        r.run();
        thread_cpu_s() - start
    })
}

/// `cpu_s` of work done while a reference run took `reference_s`,
/// converted to seconds at the quiet host's speed: the work's cost in
/// reference runs, times [`REFERENCE_QUIET_S`].
pub fn at_quiet_speed(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s / reference_s * REFERENCE_QUIET_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_runs_take_time_and_scale_work() {
        let r = reference_s();
        assert!(r > 0.0 && reference_s() > 0.0);
        assert_eq!(at_quiet_speed(2.0 * r, r), 2.0 * REFERENCE_QUIET_S);
    }

    #[test]
    fn counts_work_and_not_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t0;
        let t1 = thread_cpu_s();
        let mut x = 0u64;
        while thread_cpu_s() - t1 < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 0.01, "sleeping cost {slept} s of CPU");
        assert!(thread_cpu_s() - t1 >= 0.02);
    }
}
