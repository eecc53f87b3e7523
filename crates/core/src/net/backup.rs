//! A networked backup master (paper §2.1): tails the primary's edit log
//! over RPC on a background thread, maintains an up-to-date namespace
//! image, and can produce checkpoints or take over as primary.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use octopus_common::{ClusterConfig, FsError, Result};
use octopus_master::{BackupMaster, Master};

use super::proto::{MasterRequest, MasterResponse};
use super::worker_server::call_master;

/// A backup master tailing a remote primary.
pub struct NetBackup {
    inner: Arc<Mutex<BackupMaster>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl NetBackup {
    /// Starts tailing `primary` every `interval_ms` milliseconds.
    pub fn start(primary: SocketAddr, interval_ms: u64) -> Result<Self> {
        let inner = Arc::new(Mutex::new(BackupMaster::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let tail_inner = Arc::clone(&inner);
        let tail_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("octopus-backup-tail".into())
            .spawn(move || {
                while !tail_stop.load(Ordering::Relaxed) {
                    let _ = Self::sync_once(&tail_inner, primary);
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
            })
            .map_err(|e| FsError::Io(e.to_string()))?;
        Ok(Self { inner, stop, handle: Some(handle) })
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

    /// Stops the tailing thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetBackup {
    fn drop(&mut self) {
        self.stop();
    }
}
