//! The process-wide pool of data buffers: what a frame's head or body of
//! 4 KiB or more is received into and what the client copies a chunk into,
//! recycled across threads. A block travels as its frame's body, so the
//! buffer a worker stores a replica in is one of these, of exactly the
//! block's length.
//!
//! Such a buffer is taken by whichever thread receives the frame (one of
//! dozens of connection readers) and released by whichever thread drops the
//! last [`Bytes`] view of it (a store delete, a consumed response, a
//! finished transfer). Left to `malloc`, that traffic strands every freed
//! buffer in the arena of the thread that allocated it, where only that
//! arena's threads can reuse it: resident memory grows with the number of
//! arenas and with loop speed, and every miss faults fresh pages
//! (DESIGN.md §8, "Where the buffers live"). A 16 KiB block strands the
//! same way a 1 MiB one does, only in more pieces. Here a released buffer
//! goes to one free list per size class and the next [`BufPool::take`] on
//! *any* thread gets it back.
//!
//! One rule bounds the pool, with no cap to tune: **`pooled ≤ lent`** —
//! the bytes parked in free lists never exceed the bytes currently lent
//! out. A release that would break the rule frees the buffer instead, and
//! as `lent` falls the free lists are trimmed to it. So a process holds at
//! most twice its live data buffers, and one that drops every block holds
//! none.
//!
//! No recycled byte is ever visible: [`BufPool::take`] hands out a
//! [`PooledBuf`] of exactly the requested length, and its two callers
//! ([`super::frame::read_mux_frame`] and [`copy_from_slice`]) publish it
//! as [`Bytes`] through [`PooledBuf::freeze`] only after `read_exact` /
//! `copy_from_slice` overwrote all of it. A buffer dropped before that (a
//! read error) goes back unexposed.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use bytes::Bytes;

/// The shortest buffer the data path takes from the pool, and the class
/// granule below [`GRANULE`]: anything shorter (a metadata request, a
/// heartbeat, a reply carrying no data) takes the plain allocator.
pub(crate) const SMALLEST: usize = 4 * 1024;

/// The class granule from 64 KiB up. Classes are whole multiples of their
/// granule, so a block of a whole number of granules — 1 MiB — or, below
/// 64 KiB, of 4 KiB pieces — 16 KiB — is exactly its class, and the
/// coarser granule keeps the free lists few where lengths are large.
const GRANULE: usize = 64 * 1024;

fn class_of(len: usize) -> usize {
    let granule = if len < GRANULE { SMALLEST } else { GRANULE };
    len.div_ceil(granule) * granule
}

#[derive(Default)]
struct State {
    /// Class bytes of every buffer out on loan.
    lent: usize,
    /// Class bytes of every buffer in `free`; never above `lent`.
    pooled: usize,
    /// Released buffers by class, each with its class's capacity.
    free: BTreeMap<usize, Vec<Vec<u8>>>,
}

impl State {
    /// Unparks buffers, largest class first, until `pooled ≤ lent` again;
    /// the caller frees them once it has let go of the lock.
    fn trim(&mut self) -> Vec<Vec<u8>> {
        let mut surplus = Vec::new();
        while self.pooled > self.lent {
            // Pooled bytes sit in some class; this runs inside a `Drop`,
            // so it stops rather than panics should that ever not hold.
            let Some(mut largest) = self.free.last_entry() else { break };
            match largest.get_mut().pop() {
                Some(buf) => {
                    self.pooled -= *largest.key();
                    surplus.push(buf);
                }
                // A class `take` emptied: nothing of it is counted.
                None => drop(largest.remove()),
            }
        }
        surplus
    }
}

/// A pool of data buffers. The data path shares [`BufPool::global`];
/// tests build their own.
#[derive(Default)]
pub(crate) struct BufPool {
    state: Mutex<State>,
}

/// A buffer on loan from a [`BufPool`], returned to it on drop.
pub(crate) struct PooledBuf {
    /// Exactly the requested length; capacity is the class.
    buf: Vec<u8>,
    pool: &'static BufPool,
}

impl BufPool {
    /// The state, poisoned or not: it is two counters and lists of spare
    /// buffers, usable after a panic elsewhere — and `put` runs in `Drop`,
    /// which must not panic in turn.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The pool every connection reader and client write shares.
    pub(crate) fn global() -> &'static BufPool {
        static GLOBAL: BufPool =
            BufPool { state: Mutex::new(State { lent: 0, pooled: 0, free: BTreeMap::new() }) };
        &GLOBAL
    }

    /// Lends a buffer of exactly `len` bytes: a parked one of `len`'s class
    /// if there is one, else a fresh allocation. Its contents are
    /// unspecified until the caller has written all of it.
    pub(crate) fn take(&'static self, len: usize) -> PooledBuf {
        let class = class_of(len);
        let parked = {
            let mut st = self.state();
            st.lent += class;
            let parked = st.free.get_mut(&class).and_then(Vec::pop);
            if parked.is_some() {
                st.pooled -= class;
            }
            parked
        };
        // Fresh buffers come zeroed from the allocator (`calloc`: untouched
        // pages, no memset); a parked one keeps the length it was lent at
        // last, within one granule of this one (the same, for blocks of one
        // size), so `resize` writes less than a granule and never
        // reallocates.
        let mut buf = parked.unwrap_or_else(|| vec![0u8; class]);
        buf.resize(len, 0);
        PooledBuf { buf, pool: self }
    }

    /// Takes a released buffer back: parked if the rule allows, freed if
    /// not; either way the free lists are trimmed to the lower `lent`.
    fn put(&self, buf: Vec<u8>) {
        let class = class_of(buf.len());
        let surplus = {
            let mut st = self.state();
            st.lent -= class;
            let keep = st.pooled + class <= st.lent;
            if keep {
                st.pooled += class;
                st.free.entry(class).or_default().push(buf);
            }
            st.trim()
        };
        // Whatever is not parked (`buf` itself, when it moved nowhere) is
        // freed here, outside the lock.
        drop(surplus);
    }

    /// `(lent, pooled)` class bytes, at one instant.
    #[cfg(test)]
    fn counts(&self) -> (usize, usize) {
        let st = self.state();
        (st.lent, st.pooled)
    }
}

impl PooledBuf {
    /// The buffer, to be overwritten whole.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// Publishes the buffer as shared, immutable bytes. It returns to its
    /// pool when the last clone or slice of them is dropped, on whichever
    /// thread that happens.
    pub(crate) fn freeze(self) -> Bytes {
        Bytes::from_owner(self)
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

/// `Bytes::copy_from_slice`, into a pooled buffer when `data` is at least
/// [`SMALLEST`]: the client's one copy of a chunk it is about to send.
pub(crate) fn copy_from_slice(data: &[u8]) -> Bytes {
    if data.len() < SMALLEST {
        return Bytes::copy_from_slice(data);
    }
    let mut buf = BufPool::global().take(data.len());
    buf.as_mut_slice().copy_from_slice(data);
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::rng::splitmix64 as next;

    fn pool() -> &'static BufPool {
        Box::leak(Box::default())
    }

    #[test]
    fn pooled_never_exceeds_lent_and_an_emptied_pool_holds_nothing() {
        let pool = pool();
        let check = |at: &str| {
            let (lent, pooled) = pool.counts();
            assert!(pooled <= lent, "{at}: pooled {pooled} > lent {lent}");
        };
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    let mut z = 0xB0F_F00D ^ (t << 32);
                    let mut held: Vec<Bytes> = Vec::new();
                    for step in 0..400 {
                        let r = next(&mut z);
                        if held.is_empty() || r % 5 < 3 {
                            // Three large classes and fifteen small ones,
                            // lengths scattered inside them.
                            let (granule, classes) =
                                if (r >> 40) & 1 == 0 { (GRANULE, 3) } else { (SMALLEST, 15) };
                            let len = granule * (1 + (r >> 8) as usize % classes)
                                - (r >> 16) as usize % 999;
                            let mut buf = pool.take(len);
                            buf.as_mut_slice().fill(t as u8);
                            let b = buf.freeze();
                            // A second view keeps the buffer lent until
                            // both are gone.
                            if r.is_multiple_of(7) {
                                held.push(b.slice(1..len / 2));
                            }
                            held.push(b);
                        } else {
                            held.swap_remove((r >> 8) as usize % held.len());
                        }
                        check(&format!("thread {t} step {step}"));
                    }
                    assert!(held.iter().all(|b| b.iter().all(|&x| x == t as u8)));
                    // The rest go one at a time, `lent` falling under the
                    // pool each time.
                    while held.pop().is_some() {
                        check(&format!("thread {t} draining"));
                    }
                });
            }
        });
        assert_eq!(pool.counts(), (0, 0), "everything dropped: nothing lent, nothing kept");
    }

    #[test]
    fn a_recycled_buffer_is_handed_out_at_exactly_the_asked_length() {
        let pool = pool();
        // Something else on loan, so the released buffer may be parked.
        let _other = pool.take(2 * GRANULE);
        let mut first = pool.take(2 * GRANULE - 100);
        first.as_mut_slice().fill(0xAA);
        let at = first.as_ref().as_ptr();
        drop(first.freeze());
        assert_eq!(pool.counts().1, 2 * GRANULE, "the released buffer is parked");

        // A shorter frame of the same class gets that very buffer…
        let frame: Vec<u8> = (0..2 * GRANULE - 5_000).map(|i| (i % 251) as u8).collect();
        let mut again = pool.take(frame.len());
        assert!(std::ptr::eq(again.as_ref().as_ptr(), at), "same class: the parked buffer");
        assert_eq!(again.as_mut_slice().len(), frame.len(), "exactly the asked length");
        again.as_mut_slice().copy_from_slice(&frame);
        let bytes = again.freeze();
        // …and nothing of its last use shows: the bytes are the frame.
        assert_eq!(bytes, frame);
        assert_eq!(pool.counts().1, 0);

        // A longer one of the same class, too (the stretch is zero-filled,
        // then overwritten like the rest).
        drop(bytes);
        let mut longer = pool.take(2 * GRANULE - 7);
        assert!(std::ptr::eq(longer.as_ref().as_ptr(), at));
        assert_eq!(longer.as_mut_slice().len(), 2 * GRANULE - 7);
        assert!(longer.as_ref()[frame.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn a_buffer_dropped_unfrozen_goes_back_and_a_lone_one_is_freed() {
        let pool = pool();
        let held = pool.take(GRANULE);
        // A read that failed half way: the buffer was never published.
        drop(pool.take(3 * GRANULE));
        // `lent` is one granule, so a three-granule buffer may not park.
        assert_eq!(pool.counts(), (GRANULE, 0));
        drop(pool.take(GRANULE));
        assert_eq!(pool.counts(), (GRANULE, GRANULE), "as much parked as lent, no more");
        drop(held);
        assert_eq!(pool.counts(), (0, 0), "falling `lent` trims the pool");
    }

    #[test]
    fn a_class_below_64_kib_is_recycled_under_the_same_rule() {
        const KIB: usize = 1024;
        let pool = pool();
        // A length just past 16 KiB is the 20 KiB class — not the 64 KiB
        // one — and 16 KiB itself is exactly its own.
        assert_eq!(class_of(16 * KIB), 16 * KIB);
        let held = pool.take(16 * KIB + 61);
        assert_eq!(pool.counts(), (20 * KIB, 0));

        let mut first = pool.take(16 * KIB + 40);
        first.as_mut_slice().fill(0xAA);
        let at = first.as_ref().as_ptr();
        drop(first.freeze());
        assert_eq!(pool.counts(), (20 * KIB, 20 * KIB), "parked: as much as is lent, no more");

        // The next frame of that class, from any length inside it, gets the
        // very buffer back.
        let mut again = pool.take(17 * KIB);
        assert!(std::ptr::eq(again.as_ref().as_ptr(), at), "same class: the parked buffer");
        assert_eq!(again.as_mut_slice().len(), 17 * KIB, "exactly the asked length");
        assert_eq!(pool.counts(), (40 * KIB, 0));
        drop(again);

        // A smaller class does not take it, and may not park beside it:
        // that would put 24 KiB in the pool against 20 KiB lent.
        let small = pool.take(SMALLEST);
        assert_eq!(pool.counts(), (24 * KIB, 20 * KIB));
        drop(small);
        assert_eq!(pool.counts(), (20 * KIB, 20 * KIB), "the 4 KiB buffer was freed");
        drop(held);
        assert_eq!(pool.counts(), (0, 0), "falling `lent` trims the pool");
    }
}
