//! Lock contention statistics: instrumented `RwLock`/`Mutex` wrappers
//! whose RAII guards stamp **wait time** (how long an acquirer blocked)
//! and **hold time** (how long the guard lived) into per-lock latency
//! histograms, split by acquisition mode (shared vs. exclusive).
//!
//! The master serializes metadata behind a handful of named locks
//! (`master.namespace`, `master.blocks`, and the `master.heat` and
//! `master.audit` leaves — DESIGN.md §11); any change to that structure has to start from *where* master
//! time goes — queueing on a lock, working under it, or appending to the
//! edit log. This module provides the lock-side half of that breakdown
//! (the op-side half lives in the master's per-operation histograms).
//!
//! Design:
//!
//! - [`LockStats`] is a bundle of registry-backed handles
//!   (`lock_wait_us`/`lock_hold_us` micro-layout histograms and
//!   `lock_acquire_total`/`lock_contended_total` counters, labelled
//!   `op=<lock name>, mode=sh|ex`), so lock telemetry flows through the
//!   existing snapshot/merge/render machinery with no new wire types.
//! - [`StatRwLock`]/[`StatMutex`] wrap the `parking_lot` primitives with
//!   source-compatible `read()`/`write()`/`lock()`. Acquisition first
//!   tries the non-blocking path: an uncontended acquire records a wait
//!   of 0 without reading the clock twice; only a contended acquire pays
//!   for wait timing (and bumps `lock_contended_total`).
//!
//! Guards expose [`StatReadGuard::wait_us`] (and friends) so callers that
//! already time whole operations can fold the measured lock wait into
//! their own segment accounting without a second clock read.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::metrics::{BucketLayout, Counter, Histogram, Labels, MetricsRegistry};

/// Shared-mode metric handles for one lock class.
#[derive(Clone)]
struct ModeStats {
    wait: Histogram,
    hold: Histogram,
    acquired: Counter,
    contended: Counter,
}

impl ModeStats {
    fn register(reg: &MetricsRegistry, lock: &'static str, mode: &'static str) -> Self {
        let labels = Labels::op(lock).with_mode(mode);
        ModeStats {
            wait: reg.histogram_with("lock_wait_us", labels, BucketLayout::Micro),
            hold: reg.histogram_with("lock_hold_us", labels, BucketLayout::Micro),
            acquired: reg.counter("lock_acquire_total", labels),
            contended: reg.counter("lock_contended_total", labels),
        }
    }
}

/// Per-lock statistics: wait/hold histograms and acquire/contention
/// counters for the shared and exclusive modes, registered in a
/// [`MetricsRegistry`] under the lock's name (`op` label).
pub struct LockStats {
    name: &'static str,
    sh: ModeStats,
    ex: ModeStats,
}

impl LockStats {
    /// Registers the metric series for a lock named `lock` (by convention
    /// `<component>.<field>`, e.g. `master.namespace`).
    pub fn register(reg: &MetricsRegistry, lock: &'static str) -> Arc<Self> {
        Arc::new(LockStats {
            name: lock,
            sh: ModeStats::register(reg, lock, "sh"),
            ex: ModeStats::register(reg, lock, "ex"),
        })
    }

    /// The lock's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn mode(&self, exclusive: bool) -> &ModeStats {
        if exclusive {
            &self.ex
        } else {
            &self.sh
        }
    }
}

/// Outcome of a timed acquisition: the wait in µs plus the hold-timing
/// state the guard carries to its drop.
struct Acquired<'a> {
    stats: Option<(&'a ModeStats, Instant)>,
    wait_us: u64,
}

fn record_acquire<'a, G>(
    stats: Option<&'a LockStats>,
    exclusive: bool,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> (G, Acquired<'a>) {
    let Some(stats) = stats else {
        let g = try_acquire().unwrap_or_else(acquire);
        return (g, Acquired { stats: None, wait_us: 0 });
    };
    let mode = stats.mode(exclusive);
    let (guard, wait_us) = match try_acquire() {
        Some(g) => (g, 0),
        None => {
            mode.contended.inc();
            let queued = Instant::now();
            let g = acquire();
            (g, queued.elapsed().as_micros() as u64)
        }
    };
    mode.acquired.inc();
    mode.wait.observe_us(wait_us);
    (guard, Acquired { stats: Some((mode, Instant::now())), wait_us })
}

impl<'a> Acquired<'a> {
    fn record_hold(&self) {
        if let Some((mode, since)) = self.stats {
            mode.hold.observe_since(since);
        }
    }
}

/// A `parking_lot::RwLock` with lockstat instrumentation.
pub struct StatRwLock<T> {
    lock: RwLock<T>,
    stats: Option<Arc<LockStats>>,
}

impl<T> StatRwLock<T> {
    /// An uninstrumented wrapper (plain lock semantics).
    pub fn new(value: T) -> Self {
        StatRwLock { lock: RwLock::new(value), stats: None }
    }

    /// A wrapper recording wait/hold into `stats`.
    pub fn instrumented(value: T, stats: Arc<LockStats>) -> Self {
        StatRwLock { lock: RwLock::new(value), stats: Some(stats) }
    }

    /// Acquires a shared guard, recording wait (and, at drop, hold) time.
    pub fn read(&self) -> StatReadGuard<'_, T> {
        let (guard, acq) = record_acquire(
            self.stats.as_deref(),
            false,
            || self.lock.try_read(),
            || self.lock.read(),
        );
        StatReadGuard { guard, acq }
    }

    /// Acquires an exclusive guard, recording wait (and, at drop, hold)
    /// time.
    pub fn write(&self) -> StatWriteGuard<'_, T> {
        let (guard, acq) = record_acquire(
            self.stats.as_deref(),
            true,
            || self.lock.try_write(),
            || self.lock.write(),
        );
        StatWriteGuard { guard, acq }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut()
    }
}

/// Shared guard from [`StatRwLock::read`].
pub struct StatReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    acq: Acquired<'a>,
}

/// Exclusive guard from [`StatRwLock::write`].
pub struct StatWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    acq: Acquired<'a>,
}

/// Guard from [`StatMutex::lock`].
pub struct StatMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    acq: Acquired<'a>,
}

macro_rules! stat_guard {
    ($name:ident) => {
        impl<'a, T> $name<'a, T> {
            /// Microseconds this acquisition blocked (0 when uncontended
            /// or the lock is uninstrumented).
            pub fn wait_us(&self) -> u64 {
                self.acq.wait_us
            }
        }

        impl<'a, T> Deref for $name<'a, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.guard
            }
        }

        impl<'a, T> Drop for $name<'a, T> {
            fn drop(&mut self) {
                self.acq.record_hold();
            }
        }
    };
}

stat_guard!(StatReadGuard);
stat_guard!(StatWriteGuard);
stat_guard!(StatMutexGuard);

impl<'a, T> DerefMut for StatWriteGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<'a, T> DerefMut for StatMutexGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A `parking_lot::Mutex` with lockstat instrumentation. All
/// acquisitions count as exclusive.
pub struct StatMutex<T> {
    lock: Mutex<T>,
    stats: Option<Arc<LockStats>>,
}

impl<T> StatMutex<T> {
    /// An uninstrumented wrapper (plain lock semantics).
    pub fn new(value: T) -> Self {
        StatMutex { lock: Mutex::new(value), stats: None }
    }

    /// A wrapper recording wait/hold into `stats`.
    pub fn instrumented(value: T, stats: Arc<LockStats>) -> Self {
        StatMutex { lock: Mutex::new(value), stats: Some(stats) }
    }

    /// Acquires the lock, recording wait (and, at drop, hold) time.
    pub fn lock(&self) -> StatMutexGuard<'_, T> {
        let (guard, acq) = record_acquire(
            self.stats.as_deref(),
            true,
            || self.lock.try_lock(),
            || self.lock.lock(),
        );
        StatMutexGuard { guard, acq }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn stats() -> (MetricsRegistry, Arc<LockStats>) {
        let reg = MetricsRegistry::new();
        let stats = LockStats::register(&reg, "test.lock");
        (reg, stats)
    }

    #[test]
    fn uncontended_access_records_zero_wait() {
        let (reg, stats) = stats();
        let lock = StatRwLock::instrumented(7u64, Arc::clone(&stats));
        for _ in 0..4 {
            assert_eq!(*lock.read(), 7);
        }
        *lock.write() += 1;
        assert_eq!(*lock.read(), 8);
        let waited = stats.sh.wait.sum_us() + stats.ex.wait.sum_us();
        assert_eq!(waited, 0, "uncontended waits must be exactly zero");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_where("lock_acquire_total", |l| l.mode.as_deref() == Some("sh")),
            5
        );
        assert_eq!(
            snap.counter_where("lock_acquire_total", |l| l.mode.as_deref() == Some("ex")),
            1
        );
        assert_eq!(snap.counter("lock_contended_total"), 0);
    }

    #[test]
    fn contended_readers_and_writers_record_waits() {
        // One writer holds the lock while N readers and M writers queue:
        // the queued classes must show non-zero wait time and contended
        // counts, and every hold must be recorded.
        let (_reg, s) = stats();
        let lock = Arc::new(StatRwLock::instrumented(0u64, Arc::clone(&s)));
        let spins = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let first = lock.write();
            let mut handles = Vec::new();
            for i in 0..6 {
                let lock = Arc::clone(&lock);
                let spins = Arc::clone(&spins);
                handles.push(scope.spawn(move || {
                    spins.fetch_add(1, Ordering::SeqCst);
                    if i % 2 == 0 {
                        let g = lock.read();
                        assert!(*g >= 1);
                    } else {
                        let mut g = lock.write();
                        *g += 1;
                    }
                }));
            }
            // Hold until every thread is queued behind the write guard,
            // then a little longer so their waits are measurably non-zero.
            while spins.load(Ordering::SeqCst) < 6 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            drop({
                let mut first = first;
                *first += 1;
                first
            });
            for h in handles {
                h.join().unwrap();
            }
        });
        let contended = s.sh.contended.get() + s.ex.contended.get();
        assert!(contended >= 1, "queued acquirers must count as contended");
        let waited = s.sh.wait.sum_us() + s.ex.wait.sum_us();
        assert!(waited >= 1_000, "threads blocked ~20ms, wait sum was {waited}µs");
        assert_eq!(s.sh.acquired.get(), 3);
        assert_eq!(s.ex.acquired.get(), 4);
        assert_eq!(s.sh.hold.count() + s.ex.hold.count(), 7, "every hold recorded");
        let held = s.sh.hold.sum_us() + s.ex.hold.sum_us();
        assert!(held >= 1_000, "the 20ms write hold must be visible");
    }

    #[test]
    fn mutex_records_exclusive_holds() {
        let (_reg, s) = stats();
        let m = StatMutex::instrumented(vec![1, 2], Arc::clone(&s));
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
        assert_eq!(s.ex.acquired.get(), 2);
        assert_eq!(s.sh.acquired.get(), 0);
        assert_eq!(s.ex.hold.count(), 2);
    }

    #[test]
    fn uninstrumented_wrappers_still_lock() {
        let lock = StatRwLock::new(5u8);
        assert_eq!(*lock.read(), 5);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 6);
        let m = StatMutex::new(1u8);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }
}
