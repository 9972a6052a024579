//! Live heap of the device run, counted exactly.
//!
//! A global allocator belongs to its binary, so this test file is a
//! binary of its own: every allocation of the process goes through
//! [`Counting`], which tracks live bytes, their peak, and the live
//! count of 96×96 RGB images (110,592 B each: the eye buffers the
//! application renders and the compositor reprojects, distorts and
//! publishes). The run is the `device_pipeline` benchmark's: Desktop ×
//! Platformer, extended components, seed 11, 1 s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use illixr_platform::spec::Platform;
use illixr_render::apps::Application;
use illixr_system::experiment::{ExperimentConfig, IntegratedExperiment};

/// Bytes of one 96×96 image of three `f32` channels.
const EYE_BUFFER_BYTES: usize = 96 * 96 * 3 * 4;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static EYE_LIVE: AtomicUsize = AtomicUsize::new(0);
static EYE_PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if size == EYE_BUFFER_BYTES {
        let eyes = EYE_LIVE.fetch_add(1, Ordering::Relaxed) + 1;
        EYE_PEAK.fetch_max(eyes, Ordering::Relaxed);
    }
}

fn note_free(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
    if size == EYE_BUFFER_BYTES {
        EYE_LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A moving realloc holds both blocks while it copies.
            note_alloc(new_size);
            note_free(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap stays under 12 MiB, and at no point are more 96×96
/// images alive than one display period's warped frames and the frames
/// in flight account for. The peak, 10,941,072 B, falls in the surfel
/// prediction of the run's last reconstruction frames: the two QVGA model
/// maps (2,457,600 B each), the surfel list (2,359,296 B at 32,768
/// surfels), the filtered depth frame (307,200 B), and ≈ 3.4 MB for the
/// rest of the run. Growing the surfel list to 65,536 holds both lists
/// while it copies, 10,820,592 B live: a near tie. While reconstruction
/// built the live vertex and normal maps and a full-frame association
/// map, the peak was 16,883,312 B; while the run kept every warped frame
/// to its end, 46,368,968 B with 245 such images alive.
#[test]
fn device_run_keeps_only_what_it_reads() {
    let mut config = ExperimentConfig::paper(Application::Platformer, Platform::Desktop)
        .with_extended_components()
        .with_seed(11);
    config.duration = Duration::from_secs(1);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    EYE_PEAK.store(EYE_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let result = IntegratedExperiment::run(&config);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let eye_peak = EYE_PEAK.load(Ordering::Relaxed);
    println!(
        "device run: {} frames, peak live heap {peak} B ({:.2} MiB), \
         peak live 96x96 images {eye_peak}",
        result.mtp.len(),
        peak as f64 / (1 << 20) as f64
    );
    assert!(result.mtp.len() > 100, "the run displayed {} frames", result.mtp.len());
    assert!(peak < 12 << 20, "peak live heap {peak} B");
    assert!(eye_peak <= 16, "{eye_peak} 96x96 images alive at once");
}
