//! The host's speed, measured during the run.
//!
//! The reference host is a shared virtual machine whose CPU speed moves
//! between runs (clock frequency and contention from other tenants), so
//! the same compile pass can take 30–50% longer in one run than in the
//! next. The benchmark therefore times a fixed calibration loop —
//! integer arithmetic and data-dependent branches, no memory traffic,
//! nothing from the program under test — next to the work it measures,
//! and reports the timed metrics in *reference seconds*: the measured
//! CPU seconds times [`REFERENCE_S`] over the loop's CPU seconds in the
//! same stretch of the run. A change to the program moves the measured
//! work and leaves the loop alone, so it shows in full; a slower host
//! slows both and cancels out.

use crate::stats::median;

/// CPU seconds one [`calibrate`] loop takes on the reference host (a
/// 2-vCPU virtual machine, "Intel(R) Xeon(R) Processor", release
/// build): the unit the timed metrics are reported in.
pub const REFERENCE_S: f64 = 0.018;

/// Loops per calibration point; the point is their median.
const LOOPS_PER_POINT: usize = 3;

/// CPU seconds this process has used so far, every thread included
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution). Time the
/// process waits — for the CPU, for another thread, for the host — is
/// not in it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if rc == 0 {
        now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// One calibration loop: its CPU seconds.
fn calibrate() -> f64 {
    let start = process_cpu_s();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x >> 5) & 1 == 0 {
            acc = acc.wrapping_add(x >> 3);
        } else {
            acc ^= x.rotate_left((i & 31) as u32);
        }
        acc = acc.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(acc);
    process_cpu_s() - start
}

/// A calibration point: the median CPU seconds of
/// [`LOOPS_PER_POINT`] loops run back to back.
pub fn point() -> f64 {
    let loops: Vec<f64> = (0..LOOPS_PER_POINT).map(|_| calibrate()).collect();
    median(&loops)
}

/// `cpu_s` measured while the calibration loop took `loop_s`, in
/// reference seconds.
pub fn scale(cpu_s: f64, loop_s: f64) -> f64 {
    cpu_s * REFERENCE_S / loop_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_leaves_times_alone() {
        assert!((scale(2.5, REFERENCE_S) - 2.5).abs() < 1e-12);
        // A host half as fast doubles the loop and the work alike.
        assert!((scale(5.0, 2.0 * REFERENCE_S) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn a_point_is_a_positive_cpu_time() {
        let p = point();
        assert!(p > 0.0 && p < 10.0, "{p}");
    }
}
