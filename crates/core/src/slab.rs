//! `Arc`-slab frame pooling: zero-copy payloads that recycle their
//! backing storage.
//!
//! Nothing in the runtime ships through the pool: the multi-session
//! server's IMU windows are exact-size `Arc<[ImuSample]>` payloads of
//! their [`VioJob`]s, because a pool keeps every session's largest
//! window alive until the run ends. The benchmark harness still times
//! the pool's take-and-return round trip.
//!
//! [`SlabPool::take`] hands out a [`SlabFrame`] backed by a recycled
//! allocation when one is free; the frame is filled while still unique,
//! then shared by cheap `Arc` clone (zero-copy), and when the *last*
//! clone drops the storage is [`Recycle`]d (capacity kept, contents
//! cleared) back into the pool.
//!
//! Lifetime rules:
//!
//! 1. a frame is filled through [`SlabFrame::make_mut`] only while
//!    unique (before the first clone);
//! 2. clones are immutable views; there is no copy-on-write;
//! 3. recycling happens on last drop, from whatever thread that is —
//!    the pool's free list is thread-safe;
//! 4. pooling never changes observable values, only allocation reuse,
//!    so determinism is unaffected.
//!
//! [`VioJob`]: ../../illixr_server/session/struct.VioJob.html

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, Weak};

/// Storage that can be wiped for reuse while keeping its allocation.
pub trait Recycle {
    /// Clears contents; must leave the value indistinguishable from
    /// fresh for subsequent fills (capacity may — should — survive).
    fn recycle(&mut self);
}

impl<T> Recycle for Vec<T> {
    fn recycle(&mut self) {
        self.clear();
    }
}

impl Recycle for String {
    fn recycle(&mut self) {
        self.clear();
    }
}

struct PoolInner<T> {
    free: Mutex<Vec<T>>,
    /// Free-list bound: drops (instead of hoarding) returns beyond it.
    max_free: usize,
}

/// A bounded pool of recyclable allocations. Cheap to clone (handles
/// share the free list).
pub struct SlabPool<T: Recycle + Default> {
    inner: Arc<PoolInner<T>>,
}

impl<T: Recycle + Default> Clone for SlabPool<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Recycle + Default> fmt::Debug for SlabPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabPool").field("free", &self.free_count()).finish()
    }
}

impl<T: Recycle + Default> SlabPool<T> {
    /// A pool keeping at most `max_free` recycled allocations around.
    pub fn new(max_free: usize) -> Self {
        Self { inner: Arc::new(PoolInner { free: Mutex::new(Vec::new()), max_free }) }
    }

    /// Takes a frame from the pool: a recycled allocation when one is
    /// free, a `T::default()` otherwise. The frame is unique — fill it
    /// via [`SlabFrame::make_mut`] before cloning.
    pub fn take(&self) -> SlabFrame<T> {
        let value = self.inner.free.lock().unwrap().pop().unwrap_or_default();
        SlabFrame { value: Some(Arc::new(value)), pool: Arc::downgrade(&self.inner) }
    }

    /// Recycled allocations currently waiting for reuse.
    pub(crate) fn free_count(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }
}

/// A pooled, shareable payload. Clones share the same allocation
/// (zero-copy); the last drop recycles it into the originating pool.
pub struct SlabFrame<T: Recycle + Default> {
    /// `Some` until dropped. Option so `Drop` can move the Arc out.
    value: Option<Arc<T>>,
    pool: Weak<PoolInner<T>>,
}

impl<T: Recycle + Default> SlabFrame<T> {
    /// A frame not backed by any pool (drops its storage normally).
    /// Lets payload types default-construct outside pooled contexts.
    pub(crate) fn detached(value: T) -> Self {
        Self { value: Some(Arc::new(value)), pool: Weak::new() }
    }

    /// Mutable access while the frame is still unique.
    ///
    /// # Panics
    /// If the frame has been cloned — slab frames are fill-then-share,
    /// never copy-on-write (a silent copy would defeat the pooling).
    pub fn make_mut(&mut self) -> &mut T {
        Arc::get_mut(self.value.as_mut().expect("live frame"))
            .expect("SlabFrame::make_mut on a shared frame; fill before cloning")
    }
}

impl<T: Recycle + Default> Clone for SlabFrame<T> {
    fn clone(&self) -> Self {
        Self { value: self.value.clone(), pool: self.pool.clone() }
    }
}

impl<T: Recycle + Default> Deref for SlabFrame<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("live frame")
    }
}

impl<T: Recycle + Default> Default for SlabFrame<T> {
    fn default() -> Self {
        Self::detached(T::default())
    }
}

impl<T: Recycle + Default + fmt::Debug> fmt::Debug for SlabFrame<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: Recycle + Default> Drop for SlabFrame<T> {
    fn drop(&mut self) {
        let Some(arc) = self.value.take() else { return };
        // Only the last clone recovers the allocation.
        let Ok(mut value) = Arc::try_unwrap(arc) else { return };
        let Some(pool) = self.pool.upgrade() else { return };
        let mut free = pool.free.lock().unwrap();
        if free.len() < pool.max_free {
            value.recycle();
            free.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_drop_recycles_keeping_capacity() {
        let pool: SlabPool<Vec<u64>> = SlabPool::new(8);
        let mut frame = pool.take();
        frame.make_mut().extend(0..100);
        let ptr = frame.as_ptr();
        let shared = frame.clone();
        drop(frame);
        assert_eq!(pool.free_count(), 0, "shared frame must not recycle early");
        assert_eq!(shared.len(), 100);
        drop(shared);
        assert_eq!(pool.free_count(), 1);
        let reused = pool.take();
        assert!(reused.is_empty(), "recycled storage must be cleared");
        assert!(reused.capacity() >= 100, "capacity should survive recycling");
        assert_eq!(reused.as_ptr(), ptr, "allocation should be reused");
    }

    #[test]
    fn free_list_is_bounded() {
        let pool: SlabPool<Vec<u8>> = SlabPool::new(2);
        let frames: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(frames);
        assert_eq!(pool.free_count(), 2, "returns beyond the bound are dropped");
    }

    #[test]
    #[should_panic(expected = "shared frame")]
    fn make_mut_after_clone_panics() {
        let pool: SlabPool<Vec<u8>> = SlabPool::new(1);
        let mut frame = pool.take();
        let _shared = frame.clone();
        frame.make_mut().push(1);
    }

    #[test]
    fn detached_frames_drop_without_a_pool() {
        let mut frame: SlabFrame<Vec<u8>> = SlabFrame::detached(Vec::new());
        frame.make_mut().push(9);
        assert_eq!(*frame, vec![9]);
        drop(frame); // must not panic or leak
    }

    #[test]
    fn recycling_works_across_threads() {
        let pool: SlabPool<Vec<u64>> = SlabPool::new(64);
        let mut frame = pool.take();
        frame.make_mut().push(1);
        let handle = {
            let shared = frame.clone();
            std::thread::spawn(move || drop(shared))
        };
        drop(frame);
        handle.join().unwrap();
        assert_eq!(pool.free_count(), 1, "last drop on either thread recycles");
    }

    /// Two threads take, fill, clone across to each other and drop 10⁵
    /// frames in all, so takes and last drops race on the free list from
    /// both sides. Each frame is filled with a tag unique to it, and every
    /// holder checks the tag when it receives the frame and again before
    /// it lets go: an allocation recycled while still shared would show
    /// the next owner's tag. A channel forces each cross-thread hand-off,
    /// xorshift-seeded yields vary the interleaving, and the watchdog
    /// fails a stuck run before any join.
    #[test]
    fn frames_are_never_shared_after_recycling_under_contention() {
        use std::sync::mpsc::{self, RecvTimeoutError};
        use std::time::Duration;

        const FRAMES: u64 = 50_000; // a thread
        const LEN: usize = 8;
        // One slot: every round returns more frames than the list holds.
        const MAX_FREE: usize = 1;
        fn check(frame: &SlabFrame<Vec<u64>>, tag: u64) {
            assert!(
                frame.len() == LEN && frame.iter().all(|&v| v == tag),
                "frame {tag:#x} seen with another holder's contents: {:?}",
                &frame[..]
            );
        }

        let pool: SlabPool<Vec<u64>> = SlabPool::new(MAX_FREE);
        let (to_b, from_a) = mpsc::sync_channel(4);
        let (to_a, from_b) = mpsc::sync_channel(4);
        let (done_tx, done_rx) = mpsc::channel();
        let workers: Vec<_> = [(0u64, to_b, from_b), (1, to_a, from_a)]
            .into_iter()
            .map(|(id, tx, rx)| {
                let (pool, done) = (pool.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15_u64 ^ (id + 1);
                    let mut held: Option<(u64, SlabFrame<Vec<u64>>)> = None;
                    let mut recycled = 0u64;
                    for i in 0..FRAMES {
                        let tag = (id << 32) | i;
                        let mut frame = pool.take();
                        assert!(frame.is_empty(), "a recycled allocation came back uncleared");
                        recycled += u64::from(frame.capacity() > 0);
                        frame.make_mut().extend(std::iter::repeat_n(tag, LEN));
                        tx.send(frame.clone()).unwrap();
                        // Keep our clone one more round, so a frame's last
                        // drop lands on either thread.
                        if let Some((old_tag, old)) = held.replace((tag, frame)) {
                            check(&old, old_tag);
                        }
                        let theirs = rx.recv().unwrap();
                        let their_tag = ((1 - id) << 32) | i;
                        check(&theirs, their_tag);
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        if rng & 1 == 0 {
                            std::thread::yield_now();
                        }
                        check(&theirs, their_tag);
                        drop(theirs);
                        assert!(pool.free_count() <= MAX_FREE, "free list above its bound");
                    }
                    done.send(recycled).unwrap();
                })
            })
            .collect();
        drop(done_tx);
        let mut recycled = 0;
        for _ in 0..2 {
            match done_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(n) => recycled += n,
                Err(RecvTimeoutError::Timeout) => panic!("a worker made no progress in 30 s"),
                // A worker panicked; its join below reports it.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for worker in workers {
            worker.join().expect("worker panicked");
        }
        assert!(pool.free_count() <= MAX_FREE);
        assert!(recycled > FRAMES, "only {recycled} of {} takes reused storage", 2 * FRAMES);
    }
}
