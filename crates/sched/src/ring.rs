//! Bounded lock-free SPSC rings.
//!
//! A mutex-protected queue puts every message through one lock; a
//! classic Lamport ring needs only one atomic load and one atomic store
//! per side, and its bounded capacity gives natural backpressure: a
//! full ring hands the value back to the producer, it never drops or
//! reorders.
//!
//! Not an engine building block: the multi-session server's engine
//! shipped shard emissions back to its coordinator over these rings
//! until it ran wide batches as scoped fork-joins, whose join hands the
//! emissions back. Only `perf/`'s `sched.ring.push_pop_ns` row still
//! reaches it.
//!
//! Invariants (checked by the unit tests):
//!
//! * **no loss** — every pushed value is popped exactly once, even when
//!   the producer overruns capacity and has to retry;
//! * **no reorder** — values arrive in push order (the ring is FIFO);
//! * **no leak** — values still in flight when both endpoints drop are
//!   dropped exactly once.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of one SPSC ring. `slots.len() == capacity + 1`: one
/// slot is kept empty so `head == tail` unambiguously means "empty".
struct RingShared<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read. Written by the consumer only.
    head: AtomicUsize,
    /// Next slot the producer will write. Written by the producer only.
    tail: AtomicUsize,
}

// SAFETY: the producer side only writes slots the consumer has not yet
// claimed and vice versa; the head/tail release/acquire pair orders the
// slot accesses. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Sync for RingShared<T> {}
unsafe impl<T: Send> Send for RingShared<T> {}

impl<T> RingShared<T> {
    fn advance(&self, idx: usize) -> usize {
        let next = idx + 1;
        if next == self.slots.len() {
            0
        } else {
            next
        }
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop whatever is still in flight.
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            // SAFETY: slots in [head, tail) hold initialized values
            // that were never popped.
            unsafe { (*self.slots[head].get()).assume_init_drop() };
            head = self.advance(head);
        }
    }
}

/// Producer endpoint of a bounded SPSC ring. Not cloneable: exactly one
/// producer.
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
}

/// Consumer endpoint of a bounded SPSC ring. Not cloneable: exactly one
/// consumer.
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
}

/// Creates a bounded SPSC ring holding at most `capacity` values.
pub fn spsc_ring<T: Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let capacity = capacity.max(1);
    let slots = (0..capacity + 1).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared =
        Arc::new(RingShared { slots, head: AtomicUsize::new(0), tail: AtomicUsize::new(0) });
    (RingProducer { shared: Arc::clone(&shared) }, RingConsumer { shared })
}

impl<T: Send> RingProducer<T> {
    /// Attempts to enqueue `value`; on a full ring returns it back to
    /// the caller unchanged. Never blocks, never drops.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        let next = self.shared.advance(tail);
        if next == self.shared.head.load(Ordering::Acquire) {
            return Err(value); // full
        }
        // SAFETY: slot `tail` is empty (not in [head, tail)) and only
        // this producer writes it.
        unsafe { (*self.shared.slots[tail].get()).write(value) };
        self.shared.tail.store(next, Ordering::Release);
        Ok(())
    }
}

impl<T: Send> RingConsumer<T> {
    /// Dequeues the oldest value, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.shared.head.load(Ordering::Relaxed);
        if head == self.shared.tail.load(Ordering::Acquire) {
            return None; // empty
        }
        // SAFETY: slot `head` was initialized by the producer's write
        // before the Release store we just Acquired.
        let value = unsafe { (*self.shared.slots[head].get()).assume_init_read() };
        self.shared.head.store(self.shared.advance(head), Ordering::Release);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enqueues `value`, spinning (with yields) while the ring is full.
    fn push_spinning<T: Send>(tx: &mut RingProducer<T>, mut value: T) {
        let mut spins = 0u32;
        while let Err(v) = tx.push(value) {
            value = v;
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = spsc_ring(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!((0..4).all(|i| rx.pop() == Some(i)));
        assert!(rx.pop().is_none());
    }

    #[test]
    fn full_ring_returns_the_value_instead_of_dropping_it() {
        let (mut tx, mut rx) = spsc_ring(2);
        tx.push(10).unwrap();
        tx.push(11).unwrap();
        assert_eq!(tx.push(12), Err(12), "full ring must hand the value back");
        assert_eq!(rx.pop(), Some(10));
        tx.push(12).unwrap();
        assert_eq!((rx.pop(), rx.pop(), rx.pop()), (Some(11), Some(12), None));
    }

    /// The satellite's backpressure claim: a producer overrunning a
    /// tiny ring from another thread loses nothing and reorders
    /// nothing.
    #[test]
    fn no_loss_or_reorder_at_queue_full_backpressure() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = spsc_ring(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                push_spinning(&mut tx, i);
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected, "reordered under backpressure");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn in_flight_values_drop_exactly_once() {
        let strong = Arc::new(());
        let (mut tx, rx) = spsc_ring(8);
        for _ in 0..5 {
            tx.push(Arc::clone(&strong)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&strong), 1, "ring leaked or double-dropped values");
    }
}
