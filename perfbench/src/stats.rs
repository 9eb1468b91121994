//! Order statistics and process resource readings.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that still has at least ten samples
/// above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// The percentile, 0–100.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// [`Tail`] of `values`. With ten or fewer samples no percentile has ten
/// beyond it, and the maximum is reported as the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return Tail { value: v[n - 1], pct: 100.0, n };
    }
    let i = n - 11;
    Tail { value: v[i], pct: 100.0 * (i + 1) as f64 / n as f64, n }
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage with the 64-bit Linux struct layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// glibc's `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet([u64; 16]);

fn rusage() -> RUsage {
    let mut u = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the layout of `struct rusage` on 64-bit Linux
    // (checked by the `compile_error!` above), `u` is a valid, writable
    // instance for the whole call, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User + system CPU time of the whole process so far (all threads,
/// finished ones included), seconds.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `CpuSet` has the size and layout of glibc's `cpu_set_t`, the
    // size passed is its size, `set` is writable for the whole call, and pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024).filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict this thread (and the threads it spawns from now on) to `cpus`.
/// Returns false if the host refuses.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut set = CpuSet([0; 16]);
    for &c in cpus {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: as in `allowed_cpus`; `set` is only read by the call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.pct, t.n), (90.0, 90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn pinning_keeps_the_thread_on_the_chosen_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        if pin_to(&cpus[..1]) {
            assert_eq!(allowed_cpus(), cpus[..1]);
            assert!(pin_to(&cpus));
        }
        assert_eq!(allowed_cpus(), cpus);
    }

    #[test]
    fn cpu_and_rss_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > 0.0 && peak_rss_mib() > 0.0, "{x}");
    }
}
