//! Per-worker media bookkeeping.
//!
//! A [`Media`] couples a [`BlockStore`] with its identity (tier, id), its
//! nominal throughput, and a live count of active I/O connections — the
//! `NrConn[m]` statistic the placement and retrieval policies consume
//! (paper §3.2, §4.2). The worker that owns a medium reports these in its
//! heartbeats.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use octopus_common::{MediaId, TierId};

use crate::store::BlockStore;

/// One storage medium of a worker.
pub struct Media {
    /// Cluster-wide medium id.
    pub id: MediaId,
    /// Tier the medium belongs to.
    pub tier: TierId,
    /// The block store.
    pub store: Arc<dyn BlockStore>,
    nr_conn: Arc<AtomicU32>,
    write_bps: f64,
    read_bps: f64,
}

impl Media {
    /// Creates a medium with its nominal throughputs (bytes/s).
    pub fn new(
        id: MediaId,
        tier: TierId,
        store: Arc<dyn BlockStore>,
        write_bps: f64,
        read_bps: f64,
    ) -> Self {
        Self { id, tier, store, nr_conn: Arc::new(AtomicU32::new(0)), write_bps, read_bps }
    }

    /// Current number of active I/O connections.
    pub fn nr_conn(&self) -> u32 {
        self.nr_conn.load(Ordering::Relaxed)
    }

    /// Opens a connection; the returned guard decrements the count on drop.
    pub fn connect(&self) -> ConnGuard {
        self.nr_conn.fetch_add(1, Ordering::Relaxed);
        ConnGuard { counter: Arc::clone(&self.nr_conn) }
    }

    /// `(write_bps, read_bps)`.
    pub fn throughput(&self) -> (f64, f64) {
        (self.write_bps, self.read_bps)
    }
}

/// RAII guard for one active I/O connection to a medium or worker.
pub struct ConnGuard {
    counter: Arc<AtomicU32>,
}

impl ConnGuard {
    /// Wraps an external counter (used for per-worker NIC connections).
    pub fn acquire(counter: &Arc<AtomicU32>) -> ConnGuard {
        counter.fetch_add(1, Ordering::Relaxed);
        ConnGuard { counter: Arc::clone(counter) }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;

    #[test]
    fn conn_guard_counts() {
        let m = Media::new(MediaId(0), TierId(0), Arc::new(MemoryStore::new(1000)), 100.0, 200.0);
        assert_eq!(m.nr_conn(), 0);
        let g1 = m.connect();
        let g2 = m.connect();
        assert_eq!(m.nr_conn(), 2);
        drop(g1);
        assert_eq!(m.nr_conn(), 1);
        drop(g2);
        assert_eq!(m.nr_conn(), 0);
    }
}
