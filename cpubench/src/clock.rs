//! Time bases and host probes. Everything the benchmark reports as a
//! duration is read from a CPU clock: the hypervisor's steal (time the
//! vCPU was runnable but not running) never lands on the serving thread's
//! CPU clock, while it inflates the wall clock by whatever the neighbours
//! take. Wall time and steal are kept only as host diagnostics.

use std::time::Instant;

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

fn read_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86-64 Linux) that lives for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in nanoseconds. Used for
/// single calls (one tick, one `serve_frame`, one span).
pub fn thread_ns() -> u64 {
    read_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process since it started, in
/// nanoseconds. Used for whole phases (each setup, the measured phase).
pub fn process_ns() -> u64 {
    read_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
fn stat_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        text.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so only the first eight add up.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Wall clock, process CPU clock and host steal, sampled together so a
/// phase can report how much of its wall time the host gave away.
pub struct HostProbe {
    wall: Instant,
    cpu_ns: u64,
    jiffies: Option<(u64, u64)>,
}

/// Host diagnostics over one probe interval.
pub struct HostReport {
    /// Share of all host CPU time that was stolen by the hypervisor, in %.
    pub steal_pct: f64,
    /// Wall seconds elapsed per process CPU-second.
    pub wall_per_cpu: f64,
}

impl HostProbe {
    pub fn start() -> Self {
        HostProbe { wall: Instant::now(), cpu_ns: process_ns(), jiffies: stat_jiffies() }
    }

    pub fn finish(&self) -> HostReport {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = (process_ns() - self.cpu_ns) as f64 * 1e-9;
        let steal_pct = match (self.jiffies, stat_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        HostReport { steal_pct, wall_per_cpu: wall / cpu.max(1e-9) }
    }
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free heap to the system, then resets `VmHWM`
/// to the current resident set (`5` to `/proc/self/clear_refs`), so a
/// later read covers live memory plus what came after. Without the trim,
/// the heap an earlier token update freed would stay resident and lift
/// every later reading. Where the kernel refuses the reset, `VmHWM` keeps
/// the process's lifetime peak.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free heap pages; no pointer the
    // program holds is affected.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_ns(), process_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_ns() > t0 && process_ns() > p0, "{x}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
