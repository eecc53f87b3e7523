//! Write leases: single-writer semantics for open files.
//!
//! The master "regulates access to files" (paper §2.1); as in HDFS this
//! means a client must hold the file's lease to append blocks or close
//! it. Leases expire when a client disappears, after which the master
//! recovers the file (finalizes it at its current length) so other
//! clients are not blocked forever.

use std::collections::HashMap;

use octopus_common::{FsError, Result};

/// Identifies a lease holder. Every holder, whatever its id, obeys the one
/// single-writer rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub u64);

#[derive(Debug, Clone)]
struct Lease {
    holder: ClientId,
    expires_ms: u64,
}

/// Tracks one lease per open file path.
#[derive(Debug)]
pub struct LeaseManager {
    leases: HashMap<String, Lease>,
    duration_ms: u64,
}

impl LeaseManager {
    /// Creates a manager with the given lease duration.
    pub fn new(duration_ms: u64) -> Self {
        Self { leases: HashMap::new(), duration_ms }
    }

    /// Grants (or refreshes) the lease on `path` to `holder`. Fails if a
    /// different, unexpired holder owns it.
    pub fn acquire(&mut self, path: &str, holder: ClientId, now_ms: u64) -> Result<()> {
        if let Some(l) = self.leases.get(path) {
            if l.expires_ms > now_ms && l.holder != holder {
                return Err(FsError::LeaseConflict(format!(
                    "{path} is held by client {} until t={}ms",
                    l.holder.0, l.expires_ms
                )));
            }
        }
        self.leases
            .insert(path.to_string(), Lease { holder, expires_ms: now_ms + self.duration_ms });
        Ok(())
    }

    /// Verifies `holder` may mutate `path` and renews the lease. Absent
    /// leases are granted implicitly (e.g. after a master failover the
    /// in-flight writer re-establishes its lease on first use).
    pub fn check(&mut self, path: &str, holder: ClientId, now_ms: u64) -> Result<()> {
        self.acquire(path, holder, now_ms)
    }

    /// Releases the lease (file closed or deleted).
    pub fn release(&mut self, path: &str) {
        self.leases.remove(path);
    }

    /// Transfers a lease across a rename.
    pub fn rename(&mut self, src: &str, dst: &str) {
        if let Some(l) = self.leases.remove(src) {
            self.leases.insert(dst.to_string(), l);
        }
    }

    /// Paths whose leases have expired (candidates for lease recovery).
    pub fn expired(&self, now_ms: u64) -> Vec<String> {
        self.leases.iter().filter(|(_, l)| l.expires_ms <= now_ms).map(|(p, _)| p.clone()).collect()
    }

    /// Number of outstanding leases.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether no leases are outstanding.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_while_live() {
        let mut lm = LeaseManager::new(1000);
        lm.acquire("/f", ClientId(1), 0).unwrap();
        assert!(matches!(lm.acquire("/f", ClientId(2), 500), Err(FsError::LeaseConflict(_))));
        // Same holder renews.
        lm.acquire("/f", ClientId(1), 500).unwrap();
        // After expiry another client can take it.
        lm.acquire("/f", ClientId(2), 1600).unwrap();
    }

    #[test]
    fn holder_zero_is_an_ordinary_holder() {
        let mut lm = LeaseManager::new(1000);
        lm.acquire("/f", ClientId(1), 0).unwrap();
        assert!(matches!(lm.check("/f", ClientId(0), 10), Err(FsError::LeaseConflict(_))));
        // ... and its own lease blocks another client like any other.
        lm.acquire("/g", ClientId(0), 0).unwrap();
        assert!(matches!(lm.acquire("/g", ClientId(3), 10), Err(FsError::LeaseConflict(_))));
    }

    #[test]
    fn release_and_rename() {
        let mut lm = LeaseManager::new(1000);
        lm.acquire("/a", ClientId(1), 0).unwrap();
        lm.rename("/a", "/b");
        assert!(matches!(lm.acquire("/b", ClientId(2), 10), Err(FsError::LeaseConflict(_))));
        lm.release("/b");
        lm.acquire("/b", ClientId(2), 10).unwrap();
        assert_eq!(lm.len(), 1);
    }

    #[test]
    fn expiry_listing() {
        let mut lm = LeaseManager::new(100);
        lm.acquire("/x", ClientId(1), 0).unwrap();
        lm.acquire("/y", ClientId(2), 50).unwrap();
        assert!(lm.expired(99).is_empty());
        let mut e = lm.expired(120);
        e.sort();
        assert_eq!(e, vec!["/x"]);
        assert_eq!(lm.expired(200).len(), 2);
    }
}
