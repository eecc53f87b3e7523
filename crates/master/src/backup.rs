//! The backup master (paper §2.1): tails the primary's edit log, maintains
//! an up-to-date in-memory namespace image, and periodically persists
//! checkpoints so the system can restart from the most recent one after a
//! primary failure.

use octopus_common::Result;

use crate::editlog::{encode_image, replay_stream, EditLog};
use crate::master::Master;
use crate::namespace::{Cursor, Namespace};

/// A backup master instance.
pub struct BackupMaster {
    ns: Namespace,
    /// Where the last applied op landed; `ns` changes through it alone.
    cursor: Cursor,
    applied: usize,
    checkpoint: Option<Vec<u8>>,
}

impl Default for BackupMaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BackupMaster {
    /// A fresh backup with an empty namespace image.
    pub fn new() -> Self {
        Self { ns: Namespace::new(), cursor: Cursor::default(), applied: 0, checkpoint: None }
    }

    /// Pulls and applies the primary's edit-log tail, one capped reply at
    /// a time until none is left. Returns the number of ops applied.
    pub fn sync_from(&mut self, primary: &Master) -> Result<usize> {
        let before = self.applied;
        while self.apply_edits(&primary.edits_since(self.applied)?)? > 0 {}
        Ok(self.applied - before)
    }

    /// Applies a run of framed edit records as shipped by the primary
    /// (CRC-checked, decoded and applied one at a time). Returns how many
    /// it held.
    pub fn apply_edits(&mut self, framed: &[u8]) -> Result<usize> {
        let before = self.applied;
        replay_stream(framed, |op| {
            op.apply(&mut self.ns, &mut self.cursor)?;
            self.applied += 1;
            Ok(())
        })?;
        Ok(self.applied - before)
    }

    /// Number of ops applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Creates a checkpoint of the current image and retains it as the
    /// latest.
    pub fn create_checkpoint(&mut self) -> Vec<u8> {
        let image = encode_image(&self.ns);
        self.checkpoint = Some(image.clone());
        image
    }

    /// The most recent checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// Read access to the mirrored namespace (for takeover and tests).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Fails over: constructs a new primary master from the backup's
    /// current image. Block locations repopulate from block reports, as in
    /// HDFS.
    pub fn take_over(&self, config: octopus_common::ClusterConfig) -> Result<Master> {
        Master::with_log(config, EditLog::from_bytes(encode_image(&self.ns))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::editlog::EditOp;
    use crate::lease::ClientId;
    use octopus_common::MediaId;
    use octopus_common::{
        ClientLocation, ClusterConfig, MediaStats, RackId, ReplicationVector, TierId, WorkerId,
    };

    fn boot_master(n: u32) -> Master {
        let config = ClusterConfig::test_cluster(n, 10 << 20, 1 << 20);
        let master = Master::new(config).unwrap();
        for w in 0..n {
            let rack = RackId((w % 2) as u16);
            master.register_worker(WorkerId(w), rack, 1e9);
            let media: Vec<MediaStats> = (0..3u8)
                .map(|t| MediaStats {
                    media: MediaId(w * 3 + t as u32),
                    worker: WorkerId(w),
                    rack,
                    tier: TierId(t),
                    capacity: 10 << 20,
                    remaining: 10 << 20,
                    nr_conn: 0,
                    write_thru: 1e8,
                    read_thru: 1e8,
                })
                .collect();
            master.heartbeat(WorkerId(w), media, 0, &[]).unwrap();
        }
        master
    }

    #[test]
    fn backup_mirrors_primary() {
        let primary = boot_master(3);
        let mut backup = BackupMaster::new();
        primary.mkdir("/a").unwrap();
        primary
            .create_file_as(
                "/a/f",
                ReplicationVector::from_replication_factor(2),
                None,
                ClientId(1),
            )
            .unwrap();
        let n = backup.sync_from(&primary).unwrap();
        assert_eq!(n, 2);
        assert!(backup.namespace().resolve("/a/f").is_ok());

        // Incremental sync applies only new ops.
        primary.mkdir("/b").unwrap();
        assert_eq!(backup.sync_from(&primary).unwrap(), 1);
        assert_eq!(backup.applied(), primary.edit_count());
    }

    #[test]
    fn checkpoint_and_takeover() {
        let primary = boot_master(3);
        primary.mkdir("/x").unwrap();
        primary
            .create_file_as(
                "/x/f",
                ReplicationVector::from_replication_factor(1),
                None,
                ClientId(1),
            )
            .unwrap();
        let (block, locs) = primary
            .add_block_excluding("/x/f", 1 << 20, ClientLocation::OffCluster, ClientId(1), &[])
            .unwrap();
        for l in &locs {
            primary.commit_replica(block, *l).unwrap();
        }
        primary.complete_file_as("/x/f", ClientId(1)).unwrap();

        let mut backup = BackupMaster::new();
        backup.sync_from(&primary).unwrap();
        let image = backup.create_checkpoint();
        assert_eq!(backup.latest_checkpoint().unwrap(), image.as_slice());

        // Primary "fails"; the backup takes over.
        let new_primary = backup.take_over(primary.config().clone()).unwrap();
        let st = new_primary.status("/x/f").unwrap();
        assert_eq!(st.len, 1 << 20);
        assert!(st.complete);
    }

    #[test]
    fn restart_from_checkpoint_plus_edits() {
        // The paper's recovery model: most recent checkpoint + log tail.
        let primary = boot_master(3);
        primary.mkdir("/a").unwrap();
        let mut backup = BackupMaster::new();
        backup.sync_from(&primary).unwrap();
        let checkpoint = backup.create_checkpoint();
        let cp_ops = primary.edit_count();

        primary.mkdir("/a/late").unwrap();
        let tail = primary.edit_ops_since(cp_ops).unwrap();

        let log = EditLog::from_bytes(checkpoint).unwrap();
        let recovered = Master::with_log(primary.config().clone(), log).unwrap();
        for op in tail {
            // Re-apply the tail through the public surface.
            match op {
                EditOp::Mkdir { path } => recovered.mkdir(&path).unwrap(),
                other => panic!("unexpected tail op {other:?}"),
            }
        }
        assert!(recovered.status("/a/late").is_ok());
    }

    /// A log several reply caps long is caught up from 0 one capped reply
    /// at a time — whole records each — to the primary's own image, while
    /// the primary keeps committing.
    #[test]
    fn a_long_log_is_tailed_in_capped_replies_while_commits_continue() {
        use crate::editlog::{decode_stream, TAIL_CAP};

        let dir = std::env::temp_dir().join(format!("octopus_backup_tail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("edits.log");
        // ~3.5 caps of history: 60k directories with ~230-byte names.
        let name = "n".repeat(220);
        let history: Vec<EditOp> =
            (0..60_000).map(|i| EditOp::Mkdir { path: format!("/{name}{i:06}") }).collect();
        EditLog::open(&log_path).unwrap().append_batch(history).unwrap();
        let log_len = std::fs::metadata(&log_path).unwrap().len() as usize;
        assert!(log_len > 3 * TAIL_CAP);
        let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
        let primary = Master::with_log(config, EditLog::open(&log_path).unwrap()).unwrap();

        let first = primary.edits_since(0).unwrap();
        assert!(first.len() <= TAIL_CAP && first.len() > TAIL_CAP / 2);
        let whole = decode_stream(&first).unwrap();
        assert_eq!(first.len(), whole.len() * (log_len / 60_000), "a reply is whole records");

        let mut backup = BackupMaster::new();
        std::thread::scope(|s| {
            let committer = s.spawn(|| {
                for i in 0..200 {
                    primary.mkdir(&format!("/live{i}")).unwrap();
                }
            });
            let mut replies = 0;
            while backup.applied() < 60_000 {
                let reply = primary.edits_since(backup.applied()).unwrap();
                assert!(reply.len() <= TAIL_CAP);
                assert!(backup.apply_edits(&reply).unwrap() > 0);
                replies += 1;
            }
            assert!(replies >= 4, "60k records in {replies} replies");
            committer.join().unwrap();
        });
        backup.sync_from(&primary).unwrap();
        assert_eq!(backup.applied(), 60_200);
        assert_eq!(backup.create_checkpoint(), primary.checkpoint());
        std::fs::remove_dir_all(&dir).ok();
    }
}
