//! Namespace operations (Table 1 plus the standard file-system calls)
//! and quotas.

use octopus_common::{
    BlockId, ClientLocation, DecisionKind, DecisionRound, FsError, INodeId, LocatedBlock, Location,
    ReplicationVector, Result, MAX_TIERS,
};

use super::{Master, MetaOp, OpCtx};
use crate::editlog::EditOp;
use crate::lease::ClientId;
use crate::namespace::{normalize, DirEntry, FileStatus, TierQuota};

impl Master {
    /// Creates a directory (and parents).
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let ctx = self.op(MetaOp::Mkdir);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            g.ns.mkdir(path, true)?;
            let seq = self.log.stage(EditOp::Mkdir { path: path.to_string() });
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// Creates a file open for writing on behalf of `holder`, which takes
    /// the file's write lease. `block_size = None` uses the cluster
    /// default. The replication vector is validated against the configured
    /// tiers and the maximum replication.
    pub fn create_file_as(
        &self,
        path: &str,
        rv: ReplicationVector,
        block_size: Option<u64>,
        holder: ClientId,
    ) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Create);
        ctx.finish_with(|| {
            rv.validate(self.config.tiers.len())?;
            if rv.total() == 0 {
                return Err(FsError::InvalidReplicationVector(
                    "a file needs at least one replica".into(),
                ));
            }
            self.check_writable()?;
            let bs = block_size.unwrap_or(self.config.block_size);
            let npath = normalize(path)?;
            let edit = EditOp::CreateFile { path: path.to_string(), rv, block_size: bs };
            let mut g = ctx.write(&self.namespace);
            g.leases.acquire(&npath, holder, self.now_ms())?;
            let id = g.ns.create_file(path, rv, bs).inspect_err(|_| g.leases.release(&npath))?;
            let seq = self.log.stage(edit);
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(FileStatus {
                id,
                path: npath,
                is_dir: false,
                len: 0,
                rv,
                block_size: bs,
                complete: false,
            })
        })
    }

    /// Reopens a complete file for append (new blocks only; the existing
    /// last block is not reopened — appends start a fresh block). The
    /// caller takes the file's write lease.
    pub fn append_file_as(&self, path: &str, holder: ClientId) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Append);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            g.leases.acquire(&npath, holder, self.now_ms())?;
            let reopened = g.ns.resolve(path).and_then(|file| g.ns.reopen_file(file));
            reopened.inspect_err(|_| g.leases.release(&npath))?;
            let seq = self.log.stage(EditOp::AppendFile { path: path.to_string() });
            let st = g.ns.status(path)?;
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(st)
        })
    }

    /// Closes a file on behalf of `holder`, releasing its lease.
    pub fn complete_file_as(&self, path: &str, holder: ClientId) -> Result<()> {
        let ctx = self.op(MetaOp::Complete);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let (file, npath) = self.leased(&mut g, path, holder)?;
            g.ns.finalize_file(file)?;
            g.leases.release(&npath);
            let seq = self.log.stage(EditOp::CloseFile { path: path.to_string() });
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// `getFileBlockLocations` (Table 1): blocks overlapping the byte range
    /// with replica locations ordered by the retrieval policy (§4).
    pub fn get_file_block_locations(
        &self,
        path: &str,
        start: u64,
        len: u64,
        client: ClientLocation,
    ) -> Result<Vec<LocatedBlock>> {
        let ctx = self.op(MetaOp::Locations);
        ctx.finish_with(|| {
            // Both read guards span the walk, so a concurrent delete cannot
            // pull a block out from under a file that is being located.
            let g = ctx.read(&self.namespace);
            let file = g.ns.resolve(path)?;
            let meta = g.ns.file_meta(file)?;
            let bs = ctx.read(&self.blocks);
            let snap = bs.snapshot();
            let mut out = Vec::new();
            let mut offset = 0u64;
            for &(bid, _) in &meta.blocks {
                let info = bs.map.get(bid).ok_or_else(|| {
                    FsError::Internal(format!("file block {bid} missing from map"))
                })?;
                let (ordered, candidates) =
                    self.retrieval.order_with_audit(&snap, client, &info.locations);
                let lb = LocatedBlock { block: info.block, offset, locations: ordered };
                offset = lb.end();
                if lb.overlaps(start, len) {
                    // Retrieval decisions are audited only for blocks actually
                    // handed to the client (the requested range). The ring is
                    // a leaf lock, fine under the read guards.
                    let round = DecisionRound {
                        replica_index: 0,
                        tier_pin: None,
                        chosen_media: lb.locations.first().map(|l| l.media),
                        candidates,
                    };
                    let (policy, chosen) = (self.retrieval.name(), &lb.locations);
                    self.record(DecisionKind::Retrieval, bid, file, policy, chosen, &[round]);
                    out.push(lb);
                }
            }
            Ok(out)
        })
    }

    /// `setReplication` (Table 1): validates and records the new vector.
    /// The actual data movement is asynchronous — the next replication
    /// scan schedules the copies/deletions (§5).
    pub fn set_replication(&self, path: &str, rv: ReplicationVector) -> Result<ReplicationVector> {
        let ctx = self.op(MetaOp::SetReplication);
        ctx.finish_with(|| {
            rv.validate(self.config.tiers.len())?;
            if rv.total() == 0 {
                return Err(FsError::InvalidReplicationVector(
                    "use delete() to drop a file entirely".into(),
                ));
            }
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let old = g.ns.set_replication(path, rv)?;
            let seq = self.log.stage(EditOp::SetReplication { path: path.to_string(), rv });
            drop(g);
            ctx.wait_durable(&self.log, seq)?;
            Ok(old)
        })
    }

    /// Status of a path.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let ctx = self.op(MetaOp::Stat);
        ctx.finish_with(|| ctx.read(&self.namespace).ns.status(path))
    }

    /// Lists a directory: one atomic snapshot of its entries.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        let ctx = self.op(MetaOp::List);
        ctx.finish_with(|| ctx.read(&self.namespace).ns.list(path))
    }

    /// Renames a file or directory. The renamed subtree's heat is reset:
    /// the common write-then-rename-into-place pattern would otherwise
    /// carry a staging file's write heat onto the published path and
    /// wrongly promote it, so a renamed file starts cold and earns its
    /// temperature from post-rename accesses.
    pub fn rename(&self, src: &str, dst: &str) -> Result<()> {
        let ctx = self.op(MetaOp::Rename);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            let src_id = g.ns.resolve(src)?;
            g.ns.rename(src, dst)?;
            let moved = g.ns.subtree_files(src_id); // a rename keeps inode ids
            g.leases.rename(&normalize(src)?, &normalize(dst)?);
            let seq = self.log.stage(EditOp::rename(src.to_string(), dst.to_string()));
            drop(g);
            self.forget_heat(&ctx, moved);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// Deletes a path; block replicas are dropped from the block map and
    /// returned as `(block, location)` pairs for invalidation at the
    /// workers, and the writes still pending on them end with them. Heat
    /// entries of the deleted files are forgotten — without this the
    /// tracker leaks one EWMA per deleted file forever.
    pub fn delete(&self, path: &str, recursive: bool) -> Result<Vec<(BlockId, Location)>> {
        let ctx = self.op(MetaOp::Delete);
        ctx.finish_with(|| {
            self.check_writable()?;
            let npath = normalize(path)?;
            let mut g = ctx.write(&self.namespace);
            let (doomed, blocks) = g.ns.delete(path, recursive)?;
            g.leases.release(&npath);
            let seq = self.log.stage(EditOp::Delete { path: path.to_string() });
            // Blocks leave the map under the namespace guard, so a reader
            // never finds a file whose blocks are already gone.
            let mut dropped = Vec::new();
            if !blocks.is_empty() {
                let mut bs = ctx.write(&self.blocks);
                for info in blocks.into_iter().filter_map(|id| bs.map.remove_block(id)) {
                    dropped.extend(info.locations.into_iter().map(|l| (info.block.id, l)));
                }
            }
            drop(g);
            self.forget_heat(&ctx, doomed);
            ctx.wait_durable(&self.log, seq)?;
            Ok(dropped)
        })
    }

    fn forget_heat(&self, ctx: &OpCtx, files: Vec<INodeId>) {
        let mut heat = ctx.lock(&self.heat);
        for f in files {
            heat.forget(f);
        }
    }

    /// Sets a per-tier quota on a directory.
    pub fn set_quota(&self, path: &str, quota: TierQuota) -> Result<()> {
        let ctx = self.op(MetaOp::SetQuota);
        ctx.finish_with(|| {
            self.check_writable()?;
            let mut g = ctx.write(&self.namespace);
            g.ns.set_quota(path, quota)?;
            let seq = self.log.stage(EditOp::set_quota(path.to_string(), quota));
            drop(g);
            ctx.wait_durable(&self.log, seq)
        })
    }

    /// A directory's quota and usage.
    pub fn quota_usage(&self, path: &str) -> Result<(TierQuota, [u64; MAX_TIERS])> {
        self.namespace.read().ns.quota_usage(path)
    }

    /// `(files, directories)` counts (directories include `/`).
    pub fn counts(&self) -> (usize, usize) {
        self.namespace.read().ns.counts()
    }
}
