//! The reference kernels that scale serving CPU time to a fixed host speed.
//!
//! On a shared host the CPU clock leaves out steal, but not contention:
//! other tenants switch the core between speed regimes that last seconds
//! to minutes, and in the slow one the same work takes up to 1.7× the CPU
//! time. So after every timed serving call the benchmark runs two fixed
//! single-threaded kernels that are compiled into the benchmark, never into
//! the code under test: an FMA matrix product that fits in L1, and a scalar
//! integer loop with branches and divisions. Neither kernel alone slows by
//! the same factor as the serving code in every regime; the geometric mean
//! of their slowdowns tracked it best across four workloads.
//!
//! A call's CPU time is divided by the median slowdown over the
//! neighbouring calls. A change to the serving code moves the call times
//! but not the kernels'; a change of host regime moves both.
//!
//! The kernels run outside the timed calls. Their cache footprint is about
//! 10 KB, a fifth of the serving core's L1 data cache.

use crate::clock::thread_ns;

/// Nominal CPU ns of one run of each kernel: its median in the fast regime
/// of the host the benchmark was sized on (2-vCPU Xeon, Sapphire Rapids,
/// KVM). Scaled figures read as CPU time at that speed.
pub const FMA_NS: f64 = 8_500.0;
pub const INT_NS: f64 = 6_400.0;

/// Kernel samples on each side of a call that its scale is taken from.
pub const NEIGHBOURS: usize = 8;

const M: usize = 4;
const K: usize = 32;
const N: usize = 64;
/// Products per FMA run, so that one run is far above clock resolution.
const REPS: usize = 24;
/// Steps of the integer loop.
const INT_STEPS: u64 = 1500;

/// One 64-byte cache line of `f32`: aligned storage keeps vector loads from
/// straddling lines, which would make the kernel's speed depend on where
/// the allocator put it in each process.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line([f32; 16]);

struct Aligned(Vec<Line>);

impl Aligned {
    fn new(len: usize, f: impl Fn(usize) -> f32) -> Self {
        let mut lines = vec![Line([0.0; 16]); len.div_ceil(16)];
        for (i, x) in lines.iter_mut().flat_map(|l| l.0.iter_mut()).enumerate() {
            *x = f(i);
        }
        Aligned(lines)
    }

    fn as_slice(&self) -> &[f32] {
        // SAFETY: `Line` is `repr(C)` around 16 contiguous `f32`, so the
        // lines form one contiguous, initialised `f32` array.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast(), self.0.len() * 16) }
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.0.as_mut_ptr().cast(), self.0.len() * 16) }
    }
}

pub struct Reference {
    a: Aligned,
    b: Aligned,
    c: Aligned,
    fma: bool,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            a: Aligned::new(M * K, |i| ((i * 7 % 13) as f32 - 6.0) * 0.01),
            b: Aligned::new(K * N, |i| ((i * 5 % 11) as f32 - 5.0) * 0.01),
            c: Aligned::new(M * N, |_| 0.0),
            fma: fma_available(),
        }
    }

    /// Runs both kernels once and returns the host's slowdown against the
    /// nominal speed: the geometric mean of each kernel's CPU time over its
    /// nominal time.
    pub fn sample(&mut self) -> f64 {
        let fma = self.fma_ns() as f64 / FMA_NS;
        let int = int_ns() as f64 / INT_NS;
        (fma * int).sqrt()
    }

    fn fma_ns(&mut self) -> u64 {
        let t0 = thread_ns();
        for _ in 0..REPS {
            let (a, b, c) = (self.a.as_slice(), self.b.as_slice(), self.c.as_mut_slice());
            if self.fma {
                // SAFETY: `fma` is set only when AVX2 and FMA were detected.
                unsafe { gemm_fma(a, b, c) };
            } else {
                gemm(a, b, c);
            }
            std::hint::black_box(&mut self.c);
        }
        thread_ns() - t0
    }
}

/// A xorshift chain with a data-dependent branch and a 64-bit division per
/// step: scalar, branchy work, where the FMA product is vector work.
fn int_ns() -> u64 {
    let t0 = thread_ns();
    let mut h = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for i in 0..INT_STEPS {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        if h & 3 == 0 {
            acc = acc.wrapping_add(h / (i | 1));
        } else {
            acc ^= h.rotate_left((i & 31) as u32);
        }
    }
    std::hint::black_box(acc);
    thread_ns() - t0
}

fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

#[inline(always)]
fn gemm(a: &[f32], b: &[f32], c: &mut [f32]) {
    c[..M * N].fill(0.0);
    for i in 0..M {
        let row = &mut c[i * N..(i + 1) * N];
        for k in 0..K {
            let x = a[i * K + k];
            for (out, y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *out = x.mul_add(*y, *out);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemm_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(a, b, c);
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn gemm_fma(a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(a, b, c);
}

/// Scales each call's CPU ns to the reference speed: `ns[i] / s`, with `s`
/// the median of the slowdown samples within [`NEIGHBOURS`] calls of call
/// `i` (`slowdowns[i]` was taken right after call `i`).
pub fn scale(ns: &[u64], slowdowns: &[f64]) -> Vec<f64> {
    assert_eq!(ns.len(), slowdowns.len(), "one slowdown sample per call");
    let mut window = Vec::with_capacity(2 * NEIGHBOURS + 1);
    (0..ns.len())
        .map(|i| {
            window.clear();
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(slowdowns.len());
            window.extend_from_slice(&slowdowns[lo..hi]);
            ns[i] as f64 / crate::stats::median(&window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_paths_agree_and_take_time() {
        let mut r = Reference::new();
        assert!(r.sample() > 0.0);
        let with = r.c.as_slice().to_vec();
        r.fma = false;
        r.sample();
        // Both paths fuse each multiply-add, so they agree exactly.
        assert_eq!(r.c.as_slice(), &with[..]);
        assert!(with.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn scale_divides_by_the_local_median() {
        // At the nominal speed a call keeps its time.
        let ns = [1000, 2000, 3000];
        assert_eq!(scale(&ns, &[1.0; 3]), vec![1000.0, 2000.0, 3000.0]);
        // Twice as slow: every call counts half.
        assert_eq!(scale(&ns, &[2.0; 3]), vec![500.0, 1000.0, 1500.0]);
        // One outlying sample among its neighbours does not move the scale.
        let mut bumpy = vec![1.0; 20];
        bumpy[10] = 50.0;
        let scaled = scale(&[100; 20], &bumpy);
        assert!(scaled.iter().all(|&v| v == 100.0), "{scaled:?}");
    }

    #[test]
    fn scale_follows_a_regime_change() {
        let slowdowns: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 2.0 }).collect();
        let scaled = scale(&[1000; 40], &slowdowns);
        assert_eq!(scaled[0], 1000.0);
        assert_eq!(scaled[39], 500.0);
    }
}
