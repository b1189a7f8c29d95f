//! Order statistics and process memory readings shared by the workloads.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest ranks (the "type 7" estimator). Sorts
/// `values` in place. Returns 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median and 90th percentile of one sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Spread {
    pub fn of(mut values: Vec<f64>) -> Self {
        Spread {
            n: values.len(),
            p50: quantile(&mut values, 0.5),
            p90: quantile(&mut values, 0.9),
        }
    }
}

/// The median of a few repeated measurements.
pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: every thread of this process, exited ones
/// included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has consumed so far, in seconds.
///
/// The CPU-bound workloads time themselves in CPU time. On a shared
/// virtual machine the CPU a run receives swings by tens of percent as
/// the hypervisor hands vCPU time to other tenants; with paravirtual
/// steal accounting (as on the KVM guests this was built on) that
/// stolen time is not charged to the process, so CPU time measures the
/// program's work and not its neighbours'.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`, the only memory
    // `clock_gettime` writes, and the clock id is the Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB, or `None`
/// when `/proc` has no such process.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of the benchmark process itself, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    peak_rss_mb("self").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 4.6);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(vec![7.0]), 7.0);
    }
}
