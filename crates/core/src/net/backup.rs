//! A networked backup master (paper §2.1): tails the primary's edit log
//! over RPC on a background thread, maintains an up-to-date namespace
//! image, and can produce checkpoints or take over as primary.

use std::net::SocketAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use octopus_common::{ClusterConfig, FsError, Result};
use octopus_master::{BackupMaster, Master};

use super::node::Periodic;
use super::proto::{MasterRequest, MasterResponse};
use super::worker_server::call_master;

/// A backup master tailing a remote primary.
pub struct NetBackup {
    inner: Arc<Mutex<BackupMaster>>,
    _tail: Periodic,
}

impl NetBackup {
    /// Catches up with `primary`, then tails it every `interval_ms`
    /// milliseconds until dropped.
    pub fn start(primary: SocketAddr, interval_ms: u64) -> Result<Self> {
        let inner = Arc::new(Mutex::new(BackupMaster::new()));
        let _ = Self::sync_once(&inner, primary);
        let tailed = Arc::clone(&inner);
        let tail = Periodic::spawn("octopus-backup-tail".into(), interval_ms, move || {
            let _ = Self::sync_once(&tailed, primary);
        })?;
        Ok(Self { inner, _tail: tail })
    }

    /// Pulls and applies the primary's edit-log tail, one capped reply at
    /// a time until none is left. Returns the number of ops applied.
    pub fn sync_once(inner: &Mutex<BackupMaster>, primary: SocketAddr) -> Result<usize> {
        let mut guard = inner.lock();
        let before = guard.applied();
        loop {
            let from = guard.applied() as u64;
            match call_master(primary, &MasterRequest::EditsSince(from))? {
                MasterResponse::Edits(framed) => {
                    if guard.apply_edits(&framed)? == 0 {
                        return Ok(guard.applied() - before);
                    }
                }
                r => return Err(FsError::Io(format!("unexpected response {r:?}"))),
            }
        }
    }

    /// Forces a synchronous catch-up (tests, pre-checkpoint).
    pub fn sync_now(&self, primary: SocketAddr) -> Result<usize> {
        Self::sync_once(&self.inner, primary)
    }

    /// Number of ops applied so far.
    pub fn applied(&self) -> usize {
        self.inner.lock().applied()
    }

    /// Creates a checkpoint of the mirrored namespace.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.inner.lock().create_checkpoint()
    }

    /// Fails over: builds a new primary [`Master`] from the current image
    /// (block locations repopulate from block reports, and the new master
    /// starts in safe mode when blocks exist).
    pub fn take_over(&self, config: ClusterConfig) -> Result<Master> {
        self.inner.lock().take_over(config)
    }
}
