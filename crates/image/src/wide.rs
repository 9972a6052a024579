//! Run-time dispatch of the data-parallel `f32` kernels onto the host's
//! 512-bit vector unit.
//!
//! The build targets the x86-64 baseline, whose vectors are SSE2's 128
//! bits. A [`Kernel`] is compiled twice: once as written, and once inside
//! [`run`]'s AVX-512 function, which [`run`] calls when the CPU has the
//! features. Both copies are the same source, and a vector lane performs
//! the same IEEE-754 operations in the same order as a scalar one: rustc
//! never marks a float operation contractible or reassociable, so
//! `a * b + c` rounds twice in either copy. The output bits are the same.
//!
//! A kernel's `run`, and every function its loops call, must be
//! `#[inline(always)]`: a function that is not inlined into the AVX-512
//! copy is compiled once, for the baseline.

/// A data-parallel computation [`run`] may execute on the wide unit.
pub trait Kernel {
    /// What the kernel returns.
    type Output;
    /// The portable copy; [`run`] picks between it and the wide one.
    fn run(self) -> Self::Output;
}

/// Runs `k` on the host's 512-bit vector unit when it has one, as
/// written otherwise.
pub fn run<K: Kernel>(k: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
    {
        // SAFETY: `run_avx512` only requires the four features, and the
        // CPU reported each of them just above.
        return unsafe { run_avx512(k) };
    }
    k.run()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn run_avx512<K: Kernel>(k: K) -> K::Output {
    k.run()
}
