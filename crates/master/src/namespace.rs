//! The directory namespace: a hierarchical inode tree with files,
//! directories, per-file replication vectors, and per-tier directory quotas
//! (paper §2.1; quotas per storage medium are the multi-tenancy mechanism
//! mentioned in §1).

use std::collections::BTreeMap;

use octopus_common::{
    BlockId, FsError, INodeId, IdGenerator, ReplicationVector, Result, MAX_TIERS,
};

/// Per-tier byte quotas attachable to a directory. `None` means unlimited.
/// Usage charged against a quota is *logical replicated bytes pinned to the
/// tier*: file length × the tier's replica count in the file's replication
/// vector (unspecified replicas are not charged to any tier — the system,
/// not the tenant, chooses where they land).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierQuota {
    /// Quota per tier slot; `None` = unlimited.
    pub per_tier: [Option<u64>; MAX_TIERS],
}

impl TierQuota {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Limits one tier, leaving the rest unlimited.
    pub fn limit_tier(tier: u8, bytes: u64) -> Self {
        let mut q = Self::default();
        q.per_tier[tier as usize] = Some(bytes);
        q
    }
}

/// Metadata of a regular file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's replication vector.
    pub rv: ReplicationVector,
    /// Block size used when writing the file.
    pub block_size: u64,
    /// Ordered block ids.
    pub blocks: Vec<BlockId>,
    /// Total length in bytes.
    pub len: u64,
    /// Whether the file has been closed (complete) or is still being
    /// written.
    pub complete: bool,
}

#[derive(Debug, Clone)]
enum INodeKind {
    /// Quota and usage are boxed because the enum is as large as its
    /// largest variant and files outnumber directories by orders of
    /// magnitude: inline they made every inode 240 bytes, boxed 104.
    Dir {
        children: BTreeMap<String, INodeId>,
        quota: Box<TierQuota>,
        usage: Box<[u64; MAX_TIERS]>,
    },
    File(FileMeta),
}

#[derive(Debug, Clone)]
struct INode {
    #[allow(dead_code)]
    id: INodeId,
    name: String,
    parent: Option<INodeId>,
    kind: INodeKind,
}

pub use octopus_common::{DirEntry, FileStatus};

/// Splits and validates an absolute path into components.
pub fn parse_path(path: &str) -> Result<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(format!("{path:?} is not absolute")));
    }
    let mut out = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" => continue,
            "." | ".." => {
                return Err(FsError::InvalidPath(format!(
                    "{path:?} contains relative component {comp:?}"
                )))
            }
            c => out.push(c),
        }
    }
    Ok(out)
}

/// The inode tree.
#[derive(Debug)]
pub struct Namespace {
    nodes: BTreeMap<INodeId, INode>,
    root: INodeId,
    ids: IdGenerator,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// A namespace containing only `/`.
    pub fn new() -> Self {
        let ids = IdGenerator::new(1);
        let root = INodeId(ids.next());
        let mut nodes = BTreeMap::new();
        nodes.insert(
            root,
            INode {
                id: root,
                name: String::new(),
                parent: None,
                kind: INodeKind::Dir {
                    children: BTreeMap::new(),
                    quota: Box::new(TierQuota::unlimited()),
                    usage: Box::new([0; MAX_TIERS]),
                },
            },
        );
        Self { nodes, root, ids }
    }

    /// The root inode.
    pub fn root(&self) -> INodeId {
        self.root
    }

    fn node(&self, id: INodeId) -> Result<&INode> {
        self.nodes.get(&id).ok_or_else(|| FsError::Internal(format!("dangling inode {id}")))
    }

    fn node_mut(&mut self, id: INodeId) -> Result<&mut INode> {
        self.nodes.get_mut(&id).ok_or_else(|| FsError::Internal(format!("dangling inode {id}")))
    }

    /// Walks parsed `comps` down from the root. `path` is the caller's
    /// spelling, quoted in `NotFound`.
    fn walk(&self, comps: &[&str], path: &str) -> Result<INodeId> {
        let mut cur = self.root;
        for comp in comps {
            let node = self.node(cur)?;
            match &node.kind {
                INodeKind::Dir { children, .. } => {
                    cur =
                        *children.get(*comp).ok_or_else(|| FsError::NotFound(path.to_string()))?;
                }
                INodeKind::File(_) => return Err(FsError::NotADirectory(self.path_of(node.id))),
            }
        }
        Ok(cur)
    }

    /// Resolves a path to its inode.
    pub fn resolve(&self, path: &str) -> Result<INodeId> {
        self.walk(&parse_path(path)?, path)
    }

    /// The absolute path of an inode.
    pub fn path_of(&self, id: INodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let Ok(node) = self.node(c) else { break };
            if node.parent.is_some() {
                parts.push(node.name.clone());
            }
            cur = node.parent;
        }
        if parts.is_empty() {
            "/".to_string()
        } else {
            parts.reverse();
            format!("/{}", parts.join("/"))
        }
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(INodeId, &'p str)> {
        let comps = parse_path(path)?;
        let Some((&name, parents)) = comps.split_last() else {
            return Err(FsError::InvalidPath("operation on root".into()));
        };
        Ok((self.walk(parents, path)?, name))
    }

    /// Creates a directory. With `parents`, creates missing ancestors
    /// (like `mkdir -p`) and is idempotent on existing directories.
    pub fn mkdir(&mut self, path: &str, parents: bool) -> Result<INodeId> {
        let comps = parse_path(path)?;
        if comps.is_empty() {
            return if parents { Ok(self.root) } else { Err(FsError::AlreadyExists("/".into())) };
        }
        let mut cur = self.root;
        for (i, comp) in comps.iter().enumerate() {
            let last = i == comps.len() - 1;
            let existing = {
                let node = self.node(cur)?;
                match &node.kind {
                    INodeKind::Dir { children, .. } => children.get(*comp).copied(),
                    INodeKind::File(_) => {
                        return Err(FsError::NotADirectory(self.path_of(node.id)))
                    }
                }
            };
            match existing {
                Some(id) => {
                    if last {
                        return match &self.node(id)?.kind {
                            INodeKind::Dir { .. } if parents => Ok(id),
                            INodeKind::Dir { .. } => Err(FsError::AlreadyExists(path.to_string())),
                            INodeKind::File(_) => Err(FsError::AlreadyExists(path.to_string())),
                        };
                    }
                    cur = id;
                }
                None => {
                    if !last && !parents {
                        return Err(FsError::NotFound(path.to_string()));
                    }
                    let id = INodeId(self.ids.next());
                    self.nodes.insert(
                        id,
                        INode {
                            id,
                            name: comp.to_string(),
                            parent: Some(cur),
                            kind: INodeKind::Dir {
                                children: BTreeMap::new(),
                                quota: Box::new(TierQuota::unlimited()),
                                usage: Box::new([0; MAX_TIERS]),
                            },
                        },
                    );
                    if let INodeKind::Dir { children, .. } = &mut self.node_mut(cur)?.kind {
                        children.insert(comp.to_string(), id);
                    }
                    cur = id;
                }
            }
        }
        Ok(cur)
    }

    /// Creates an empty file open for writing. Parent directories must
    /// exist.
    pub fn create_file(
        &mut self,
        path: &str,
        rv: ReplicationVector,
        block_size: u64,
    ) -> Result<INodeId> {
        if block_size == 0 {
            return Err(FsError::InvalidArgument("block size must be positive".into()));
        }
        let (parent, name) = self.resolve_parent(path)?;
        {
            let node = self.node(parent)?;
            let INodeKind::Dir { children, .. } = &node.kind else {
                return Err(FsError::NotADirectory(self.path_of(parent)));
            };
            if children.contains_key(name) {
                return Err(FsError::AlreadyExists(path.to_string()));
            }
        }
        let id = INodeId(self.ids.next());
        self.nodes.insert(
            id,
            INode {
                id,
                name: name.to_string(),
                parent: Some(parent),
                kind: INodeKind::File(FileMeta {
                    rv,
                    block_size,
                    blocks: Vec::new(),
                    len: 0,
                    complete: false,
                }),
            },
        );
        if let INodeKind::Dir { children, .. } = &mut self.node_mut(parent)?.kind {
            children.insert(name.to_string(), id);
        }
        Ok(id)
    }

    /// Read access to a file's metadata.
    pub fn file_meta(&self, id: INodeId) -> Result<&FileMeta> {
        match &self.node(id)?.kind {
            INodeKind::File(meta) => Ok(meta),
            INodeKind::Dir { .. } => Err(FsError::IsADirectory(self.path_of(id))),
        }
    }

    fn file_meta_mut(&mut self, id: INodeId) -> Result<&mut FileMeta> {
        let is_dir = matches!(self.node(id)?.kind, INodeKind::Dir { .. });
        if is_dir {
            return Err(FsError::IsADirectory(self.path_of(id)));
        }
        match &mut self.node_mut(id)?.kind {
            INodeKind::File(meta) => Ok(meta),
            INodeKind::Dir { .. } => unreachable!(),
        }
    }

    /// The per-tier quota charge of growing/shrinking a file by
    /// `len_delta` bytes with vector `rv` (pinned tiers only).
    pub(crate) fn charge_of(rv: ReplicationVector, len: u64) -> [u64; MAX_TIERS] {
        let mut c = [0u64; MAX_TIERS];
        for (tier, count) in rv.iter_tiers() {
            c[tier.0 as usize] = len * count as u64;
        }
        c
    }

    /// Walks ancestors of `id` checking that adding `charge` stays within
    /// every quota, then applies it. `sign` is +1 or -1.
    fn apply_charge(&mut self, id: INodeId, charge: &[u64; MAX_TIERS], sign: i64) -> Result<()> {
        if charge.iter().all(|&c| c == 0) {
            return Ok(()); // empty or unpinned file: no ancestor walk
        }
        // First pass: verify (only needed when increasing).
        if sign > 0 {
            let mut cur = self.node(id)?.parent;
            while let Some(d) = cur {
                let node = self.node(d)?;
                if let INodeKind::Dir { quota, usage, .. } = &node.kind {
                    for t in 0..MAX_TIERS {
                        if let Some(limit) = quota.per_tier[t] {
                            if usage[t] + charge[t] > limit {
                                return Err(FsError::QuotaExceeded(format!(
                                    "directory {} tier slot {t}: {} + {} > {limit}",
                                    self.path_of(d),
                                    usage[t],
                                    charge[t]
                                )));
                            }
                        }
                    }
                }
                cur = node.parent;
            }
        }
        // Second pass: apply.
        let mut cur = self.node(id)?.parent;
        while let Some(d) = cur {
            let parent = self.node(d)?.parent;
            if let INodeKind::Dir { usage, .. } = &mut self.node_mut(d)?.kind {
                for t in 0..MAX_TIERS {
                    if sign > 0 {
                        usage[t] += charge[t];
                    } else {
                        usage[t] = usage[t].saturating_sub(charge[t]);
                    }
                }
            }
            cur = parent;
        }
        Ok(())
    }

    /// Appends a block to an open file, charging tier quotas.
    pub fn add_block(&mut self, file: INodeId, block: BlockId, len: u64) -> Result<()> {
        let (rv, complete) = {
            let meta = self.file_meta(file)?;
            (meta.rv, meta.complete)
        };
        if complete {
            return Err(FsError::InvalidArgument(format!(
                "file {} is complete; cannot append blocks",
                self.path_of(file)
            )));
        }
        let charge = Self::charge_of(rv, len);
        self.apply_charge(file, &charge, 1)?;
        let meta = self.file_meta_mut(file)?;
        meta.blocks.push(block);
        meta.len += len;
        Ok(())
    }

    /// Reverses the most recent [`Namespace::add_block`] of an open file,
    /// refunding the quota charge and length. Only the *last* block may be
    /// abandoned — pipeline recovery gives up on a block whose write
    /// failed before requesting a fresh placement, and nothing can have
    /// been appended after it while the client holds the lease.
    pub fn remove_last_block(&mut self, file: INodeId, block: BlockId, len: u64) -> Result<()> {
        let (rv, complete, last) = {
            let meta = self.file_meta(file)?;
            (meta.rv, meta.complete, meta.blocks.last().copied())
        };
        if complete {
            return Err(FsError::InvalidArgument(format!(
                "file {} is complete; cannot abandon blocks",
                self.path_of(file)
            )));
        }
        if last != Some(block) {
            return Err(FsError::InvalidArgument(format!(
                "{block} is not the last block of {}",
                self.path_of(file)
            )));
        }
        let charge = Self::charge_of(rv, len);
        self.apply_charge(file, &charge, -1)?;
        let meta = self.file_meta_mut(file)?;
        meta.blocks.pop();
        meta.len = meta.len.saturating_sub(len);
        Ok(())
    }

    /// Marks a file complete (closed).
    pub fn finalize_file(&mut self, file: INodeId) -> Result<()> {
        let meta = self.file_meta_mut(file)?;
        meta.complete = true;
        Ok(())
    }

    /// Reopens a complete file for appending.
    pub fn reopen_file(&mut self, file: INodeId) -> Result<()> {
        let meta = self.file_meta_mut(file)?;
        if !meta.complete {
            return Err(FsError::LeaseConflict(format!("{} is already open for writing", file)));
        }
        meta.complete = false;
        Ok(())
    }

    /// Replaces a file's replication vector, adjusting quota usage.
    /// Returns the previous vector.
    pub fn set_replication(
        &mut self,
        path: &str,
        rv: ReplicationVector,
    ) -> Result<ReplicationVector> {
        let id = self.resolve(path)?;
        let (old, len) = {
            let meta = self.file_meta(id)?;
            (meta.rv, meta.len)
        };
        // Refund the old pinned charge, apply the new one.
        let old_charge = Self::charge_of(old, len);
        let new_charge = Self::charge_of(rv, len);
        self.apply_charge(id, &old_charge, -1)?;
        if let Err(e) = self.apply_charge(id, &new_charge, 1) {
            // Roll back.
            self.apply_charge(id, &old_charge, 1)?;
            return Err(e);
        }
        self.file_meta_mut(id)?.rv = rv;
        Ok(old)
    }

    /// Status of a path.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let comps = parse_path(path)?;
        let id = self.walk(&comps, path)?;
        // The canonical path is the parsed components re-joined — no walk
        // back up the tree.
        let path = format!("/{}", comps.join("/"));
        Ok(match &self.node(id)?.kind {
            INodeKind::Dir { .. } => FileStatus {
                id,
                path,
                is_dir: true,
                len: 0,
                rv: ReplicationVector::EMPTY,
                block_size: 0,
                complete: true,
            },
            INodeKind::File(meta) => FileStatus {
                id,
                path,
                is_dir: false,
                len: meta.len,
                rv: meta.rv,
                block_size: meta.block_size,
                complete: meta.complete,
            },
        })
    }

    /// Lists a directory.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        let id = self.resolve(path)?;
        let node = self.node(id)?;
        let INodeKind::Dir { children, .. } = &node.kind else {
            return Err(FsError::NotADirectory(path.to_string()));
        };
        children
            .iter()
            .map(|(name, &cid)| {
                let child = self.node(cid)?;
                Ok(match &child.kind {
                    INodeKind::Dir { .. } => DirEntry {
                        name: name.clone(),
                        is_dir: true,
                        len: 0,
                        rv: ReplicationVector::EMPTY,
                    },
                    INodeKind::File(meta) => {
                        DirEntry { name: name.clone(), is_dir: false, len: meta.len, rv: meta.rv }
                    }
                })
            })
            .collect()
    }

    /// Per-tier usage of the subtree rooted at `id` (files only).
    fn subtree_charge(&self, id: INodeId) -> Result<[u64; MAX_TIERS]> {
        let node = self.node(id)?;
        Ok(match &node.kind {
            INodeKind::File(meta) => Self::charge_of(meta.rv, meta.len),
            INodeKind::Dir { usage, .. } => **usage,
        })
    }

    /// Renames `src` to `dst`. `dst` must not exist and its parent must be
    /// an existing directory. Moving a directory into its own subtree is
    /// rejected. Quota usage transfers from the old ancestors to the new.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<()> {
        let src_id = self.resolve(src)?;
        if src_id == self.root {
            return Err(FsError::InvalidPath("cannot rename /".into()));
        }
        let (dst_parent, dst_name) = self.resolve_parent(dst)?;
        {
            let node = self.node(dst_parent)?;
            let INodeKind::Dir { children, .. } = &node.kind else {
                return Err(FsError::NotADirectory(self.path_of(dst_parent)));
            };
            if children.contains_key(dst_name) {
                return Err(FsError::AlreadyExists(dst.to_string()));
            }
        }
        // Reject moving a directory under itself.
        let mut cur = Some(dst_parent);
        while let Some(c) = cur {
            if c == src_id {
                return Err(FsError::InvalidPath(format!(
                    "cannot move {src} into its own subtree {dst}"
                )));
            }
            cur = self.node(c)?.parent;
        }

        let charge = self.subtree_charge(src_id)?;
        let old_parent = self.node(src_id)?.parent.expect("non-root has parent");
        let old_name = self.node(src_id)?.name.clone();

        // Refund from the old ancestor chain, charge the new one (with
        // quota verification); roll back on failure.
        self.apply_charge(src_id, &charge, -1)?;

        // Temporarily link under the new parent for the charge walk: we
        // verify against the *new* ancestors by walking from dst_parent.
        let verify = (|| -> Result<()> {
            let mut cur = Some(dst_parent);
            while let Some(d) = cur {
                let node = self.node(d)?;
                if let INodeKind::Dir { quota, usage, .. } = &node.kind {
                    for t in 0..MAX_TIERS {
                        if let Some(limit) = quota.per_tier[t] {
                            if usage[t] + charge[t] > limit {
                                return Err(FsError::QuotaExceeded(format!(
                                    "directory {} tier slot {t}",
                                    self.path_of(d)
                                )));
                            }
                        }
                    }
                }
                cur = node.parent;
            }
            Ok(())
        })();
        if let Err(e) = verify {
            self.apply_charge(src_id, &charge, 1)?;
            return Err(e);
        }

        // Unlink from the old parent.
        if let INodeKind::Dir { children, .. } = &mut self.node_mut(old_parent)?.kind {
            children.remove(&old_name);
        }
        // Link under the new parent.
        if let INodeKind::Dir { children, .. } = &mut self.node_mut(dst_parent)?.kind {
            children.insert(dst_name.to_string(), src_id);
        }
        {
            let node = self.node_mut(src_id)?;
            node.parent = Some(dst_parent);
            node.name = dst_name.to_string();
        }
        // Apply the charge along the new chain.
        let mut cur = Some(dst_parent);
        while let Some(d) = cur {
            let parent = self.node(d)?.parent;
            if let INodeKind::Dir { usage, .. } = &mut self.node_mut(d)?.kind {
                for (u, c) in usage.iter_mut().zip(charge.iter()) {
                    *u += c;
                }
            }
            cur = parent;
        }
        Ok(())
    }

    /// Deletes a path. Directories require `recursive` unless empty.
    /// Returns the inode ids of every deleted file and their block ids
    /// (for invalidation at the workers).
    pub fn delete(&mut self, path: &str, recursive: bool) -> Result<(Vec<INodeId>, Vec<BlockId>)> {
        let id = self.resolve(path)?;
        if id == self.root {
            return Err(FsError::InvalidPath("cannot delete /".into()));
        }
        if let INodeKind::Dir { children, .. } = &self.node(id)?.kind {
            if !children.is_empty() && !recursive {
                return Err(FsError::DirectoryNotEmpty(path.to_string()));
            }
        }
        let charge = self.subtree_charge(id)?;
        self.apply_charge(id, &charge, -1)?;

        // Collect the subtree.
        let mut stack = vec![id];
        let mut files = Vec::new();
        let mut blocks = Vec::new();
        let mut to_remove = Vec::new();
        while let Some(n) = stack.pop() {
            to_remove.push(n);
            match &self.node(n)?.kind {
                INodeKind::Dir { children, .. } => stack.extend(children.values().copied()),
                INodeKind::File(meta) => {
                    files.push(n);
                    blocks.extend(meta.blocks.iter().copied());
                }
            }
        }
        let parent = self.node(id)?.parent.expect("non-root");
        let name = self.node(id)?.name.clone();
        if let INodeKind::Dir { children, .. } = &mut self.node_mut(parent)?.kind {
            children.remove(&name);
        }
        for n in to_remove {
            self.nodes.remove(&n);
        }
        Ok((files, blocks))
    }

    /// The inode ids of every file at or under `id`.
    pub fn subtree_files(&self, id: INodeId) -> Vec<INodeId> {
        let mut stack = vec![id];
        let mut files = Vec::new();
        while let Some(n) = stack.pop() {
            match self.nodes.get(&n).map(|node| &node.kind) {
                Some(INodeKind::Dir { children, .. }) => stack.extend(children.values().copied()),
                Some(INodeKind::File(_)) => files.push(n),
                None => {}
            }
        }
        files
    }

    /// Sets a directory's per-tier quota. Fails if current usage already
    /// exceeds the new limit.
    pub fn set_quota(&mut self, path: &str, quota: TierQuota) -> Result<()> {
        let id = self.resolve(path)?;
        let is_root = id == self.root;
        let node = self.node_mut(id)?;
        match &mut node.kind {
            INodeKind::Dir { quota: q, usage, .. } => {
                for (u, limit) in usage.iter().zip(quota.per_tier.iter()) {
                    if let Some(limit) = limit {
                        if u > limit {
                            return Err(FsError::QuotaExceeded(format!(
                                "current usage {u} exceeds new quota {limit}"
                            )));
                        }
                    }
                }
                **q = quota;
                let _ = is_root;
                Ok(())
            }
            INodeKind::File(_) => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// A directory's quota and current per-tier usage.
    pub fn quota_usage(&self, path: &str) -> Result<(TierQuota, [u64; MAX_TIERS])> {
        let id = self.resolve(path)?;
        match &self.node(id)?.kind {
            INodeKind::Dir { quota, usage, .. } => Ok((**quota, **usage)),
            INodeKind::File(_) => Err(FsError::NotADirectory(path.to_string())),
        }
    }

    /// `(files, directories)` counts (directories include `/`).
    pub fn counts(&self) -> (usize, usize) {
        let mut files = 0;
        let mut dirs = 0;
        for n in self.nodes.values() {
            match n.kind {
                INodeKind::Dir { .. } => dirs += 1,
                INodeKind::File(_) => files += 1,
            }
        }
        (files, dirs)
    }

    /// All directories as `(path, quota)`, parents before children (sorted
    /// by path). Used by checkpointing.
    pub fn iter_dirs(&self) -> Vec<(String, TierQuota)> {
        let mut dirs: Vec<(String, TierQuota)> = self
            .nodes
            .iter()
            .filter_map(|(&id, n)| match &n.kind {
                INodeKind::Dir { quota, .. } => Some((self.path_of(id), **quota)),
                INodeKind::File(_) => None,
            })
            .collect();
        dirs.sort_by(|a, b| a.0.cmp(&b.0));
        dirs
    }

    /// Iterates all files as `(id, meta)`. Scans that never need a path
    /// (replay's block-map rebuild, the replication monitor) use this and
    /// skip building one string per file.
    pub fn files(&self) -> impl Iterator<Item = (INodeId, &FileMeta)> {
        self.nodes.iter().filter_map(|(&id, n)| match &n.kind {
            INodeKind::File(meta) => Some((id, meta)),
            INodeKind::Dir { .. } => None,
        })
    }

    /// All files as `(id, path, meta)`.
    pub fn iter_files(&self) -> Vec<(INodeId, String, &FileMeta)> {
        self.files().map(|(id, meta)| (id, self.path_of(id), meta)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv3() -> ReplicationVector {
        ReplicationVector::from_replication_factor(3)
    }

    #[test]
    fn mkdir_and_resolve() {
        let mut ns = Namespace::new();
        let d = ns.mkdir("/a/b/c", true).unwrap();
        assert_eq!(ns.resolve("/a/b/c").unwrap(), d);
        assert_eq!(ns.path_of(d), "/a/b/c");
        assert!(ns.mkdir("/a/b/c", false).is_err());
        assert_eq!(ns.mkdir("/a/b/c", true).unwrap(), d); // idempotent with -p
        assert!(matches!(ns.mkdir("/x/y", false), Err(FsError::NotFound(_))));
        ns.mkdir("/x", false).unwrap();
        ns.mkdir("/x/y", false).unwrap();
    }

    #[test]
    fn path_validation() {
        let mut ns = Namespace::new();
        assert!(matches!(ns.mkdir("relative", true), Err(FsError::InvalidPath(_))));
        assert!(matches!(ns.mkdir("/a/../b", true), Err(FsError::InvalidPath(_))));
        assert!(ns.mkdir("//a///b", true).is_ok()); // empty components collapse
        assert_eq!(ns.resolve("/a/b").unwrap(), ns.resolve("//a///b/").unwrap());
    }

    #[test]
    fn create_file_and_blocks() {
        let mut ns = Namespace::new();
        ns.mkdir("/data", true).unwrap();
        let f = ns.create_file("/data/f1", rv3(), 128).unwrap();
        ns.add_block(f, BlockId(1), 128).unwrap();
        ns.add_block(f, BlockId(2), 64).unwrap();
        ns.finalize_file(f).unwrap();
        let st = ns.status("/data/f1").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.len, 192);
        assert!(st.complete);
        assert_eq!(ns.file_meta(f).unwrap().blocks, vec![BlockId(1), BlockId(2)]);
        // Cannot append after close.
        assert!(ns.add_block(f, BlockId(3), 10).is_err());
        // Duplicate create fails.
        assert!(matches!(ns.create_file("/data/f1", rv3(), 128), Err(FsError::AlreadyExists(_))));
        // Create under a file fails.
        assert!(matches!(ns.create_file("/data/f1/x", rv3(), 128), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn list_is_sorted_and_typed() {
        let mut ns = Namespace::new();
        ns.mkdir("/d/sub", true).unwrap();
        let f = ns.create_file("/d/bfile", rv3(), 128).unwrap();
        ns.add_block(f, BlockId(1), 100).unwrap();
        let entries = ns.list("/d").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "bfile");
        assert!(!entries[0].is_dir);
        assert_eq!(entries[0].len, 100);
        assert_eq!(entries[1].name, "sub");
        assert!(entries[1].is_dir);
        assert!(matches!(ns.list("/d/bfile"), Err(FsError::NotADirectory(_))));
    }

    #[test]
    fn rename_file_and_directory() {
        let mut ns = Namespace::new();
        ns.mkdir("/a", true).unwrap();
        ns.mkdir("/b", true).unwrap();
        let f = ns.create_file("/a/f", rv3(), 128).unwrap();
        ns.rename("/a/f", "/b/g").unwrap();
        assert!(ns.resolve("/a/f").is_err());
        assert_eq!(ns.resolve("/b/g").unwrap(), f);
        assert_eq!(ns.path_of(f), "/b/g");

        ns.rename("/a", "/b/a-moved").unwrap();
        assert!(ns.resolve("/b/a-moved").is_ok());
        // Destination exists → error.
        ns.mkdir("/c", true).unwrap();
        assert!(matches!(ns.rename("/b", "/c"), Err(FsError::AlreadyExists(_))));
        // Cycle rejected.
        assert!(matches!(ns.rename("/b", "/b/a-moved/x"), Err(FsError::InvalidPath(_))));
    }

    #[test]
    fn delete_semantics() {
        let mut ns = Namespace::new();
        ns.mkdir("/d/s", true).unwrap();
        let f1 = ns.create_file("/d/f1", rv3(), 128).unwrap();
        ns.add_block(f1, BlockId(10), 128).unwrap();
        let f2 = ns.create_file("/d/s/f2", rv3(), 128).unwrap();
        ns.add_block(f2, BlockId(20), 128).unwrap();
        ns.add_block(f2, BlockId(21), 128).unwrap();

        assert!(matches!(ns.delete("/d", false), Err(FsError::DirectoryNotEmpty(_))));
        let (mut files, mut blocks) = ns.delete("/d", true).unwrap();
        files.sort_unstable();
        assert_eq!(files, vec![f1, f2]);
        blocks.sort_unstable();
        assert_eq!(blocks, vec![BlockId(10), BlockId(20), BlockId(21)]);
        assert!(ns.resolve("/d").is_err());
        let (files, dirs) = ns.counts();
        assert_eq!(files, 0);
        assert_eq!(dirs, 1); // only root
    }

    #[test]
    fn delete_empty_dir_without_recursive() {
        let mut ns = Namespace::new();
        ns.mkdir("/empty", true).unwrap();
        assert_eq!(ns.delete("/empty", false).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn quota_enforced_on_pinned_tiers() {
        let mut ns = Namespace::new();
        ns.mkdir("/tenant", true).unwrap();
        // Limit tier 0 (memory) to 100 bytes.
        ns.set_quota("/tenant", TierQuota::limit_tier(0, 100)).unwrap();
        let rv = ReplicationVector::msh(1, 0, 2);
        let f = ns.create_file("/tenant/f", rv, 128).unwrap();
        ns.add_block(f, BlockId(1), 80).unwrap(); // memory charge 80
        let err = ns.add_block(f, BlockId(2), 80); // would be 160 > 100
        assert!(matches!(err, Err(FsError::QuotaExceeded(_))));
        let (_, usage) = ns.quota_usage("/tenant").unwrap();
        assert_eq!(usage[0], 80);
        assert_eq!(usage[2], 160); // HDD×2, unlimited

        // Unspecified replicas are not charged.
        let f2 = ns
            .create_file("/tenant/g", ReplicationVector::from_replication_factor(3), 128)
            .unwrap();
        ns.add_block(f2, BlockId(3), 1000).unwrap();
        let (_, usage) = ns.quota_usage("/tenant").unwrap();
        assert_eq!(usage[0], 80);
    }

    #[test]
    fn quota_adjusts_on_set_replication_and_delete() {
        let mut ns = Namespace::new();
        ns.mkdir("/t", true).unwrap();
        ns.set_quota("/t", TierQuota::limit_tier(1, 1000)).unwrap();
        let f = ns.create_file("/t/f", ReplicationVector::msh(0, 1, 0), 128).unwrap();
        ns.add_block(f, BlockId(1), 600).unwrap();
        // Doubling the SSD count would need 1200 > 1000.
        assert!(matches!(
            ns.set_replication("/t/f", ReplicationVector::msh(0, 2, 0)),
            Err(FsError::QuotaExceeded(_))
        ));
        // The failed attempt must not corrupt usage.
        let (_, usage) = ns.quota_usage("/t").unwrap();
        assert_eq!(usage[1], 600);
        // Dropping the pin refunds.
        ns.set_replication("/t/f", ReplicationVector::msh(0, 0, 2)).unwrap();
        let (_, usage) = ns.quota_usage("/t").unwrap();
        assert_eq!(usage[1], 0);
        assert_eq!(usage[2], 1200);
        ns.delete("/t/f", false).unwrap();
        let (_, usage) = ns.quota_usage("/t").unwrap();
        assert_eq!(usage[2], 0);
    }

    #[test]
    fn quota_transfers_on_rename() {
        let mut ns = Namespace::new();
        ns.mkdir("/a", true).unwrap();
        ns.mkdir("/b", true).unwrap();
        ns.set_quota("/b", TierQuota::limit_tier(2, 100)).unwrap();
        let f = ns.create_file("/a/f", ReplicationVector::msh(0, 0, 1), 128).unwrap();
        ns.add_block(f, BlockId(1), 500).unwrap();
        // Moving into /b would exceed its HDD quota.
        assert!(matches!(ns.rename("/a/f", "/b/f"), Err(FsError::QuotaExceeded(_))));
        // Usage stays on /a after the failed move.
        let (_, usage_a) = ns.quota_usage("/a").unwrap();
        assert_eq!(usage_a[2], 500);
        // A small file moves fine and carries its usage.
        let g = ns.create_file("/a/g", ReplicationVector::msh(0, 0, 1), 128).unwrap();
        ns.add_block(g, BlockId(2), 50).unwrap();
        ns.rename("/a/g", "/b/g").unwrap();
        let (_, usage_b) = ns.quota_usage("/b").unwrap();
        assert_eq!(usage_b[2], 50);
        let (_, usage_a) = ns.quota_usage("/a").unwrap();
        assert_eq!(usage_a[2], 500);
    }

    /// A pinned-memory file of `len` bytes at `path` (one block).
    fn mem_file(ns: &mut Namespace, path: &str, len: u64) -> Result<INodeId> {
        let f = ns.create_file(path, ReplicationVector::msh(1, 0, 0), 128)?;
        ns.add_block(f, BlockId(f.0), len)?;
        Ok(f)
    }

    fn usage(ns: &Namespace, dir: &str) -> u64 {
        ns.quota_usage(dir).unwrap().1[0]
    }

    #[test]
    fn quota_checks_every_ancestor_and_aggregates_usage() {
        let mut ns = Namespace::new();
        ns.mkdir("/a/b", true).unwrap();
        ns.set_quota("/a", TierQuota::limit_tier(0, 100)).unwrap();
        mem_file(&mut ns, "/a/b/f", 80).unwrap();
        // The limit sits on the grandparent, not the parent.
        assert!(matches!(mem_file(&mut ns, "/a/b/g", 30), Err(FsError::QuotaExceeded(_))));
        for dir in ["/", "/a", "/a/b"] {
            assert_eq!(usage(&ns, dir), 80, "usage aggregates on {dir}");
        }
        ns.delete("/a/b/f", false).unwrap();
        assert_eq!(usage(&ns, "/a"), 0);
    }

    #[test]
    fn rename_within_one_quota_dir_never_trips_its_limit() {
        let mut ns = Namespace::new();
        ns.mkdir("/q/x", true).unwrap();
        ns.mkdir("/q/y", true).unwrap();
        ns.set_quota("/q", TierQuota::limit_tier(0, 100)).unwrap();
        mem_file(&mut ns, "/q/x/f", 100).unwrap();
        // /q stays at its limit through the move; only directories that
        // gain usage are checked.
        ns.rename("/q/x/f", "/q/y/f").unwrap();
        assert_eq!(usage(&ns, "/q"), 100);
        assert_eq!(usage(&ns, "/q/x"), 0);
        assert_eq!(usage(&ns, "/q/y"), 100);
    }

    #[test]
    fn directory_rename_and_delete_carry_subtree_usage() {
        let mut ns = Namespace::new();
        ns.mkdir("/src/deep", true).unwrap();
        ns.mkdir("/tight", true).unwrap();
        ns.set_quota("/src/deep", TierQuota::limit_tier(0, 1000)).unwrap();
        ns.set_quota("/tight", TierQuota::limit_tier(0, 5)).unwrap();
        mem_file(&mut ns, "/src/deep/f", 7).unwrap();
        // The subtree's aggregate is admitted against the gaining chain.
        assert!(matches!(ns.rename("/src", "/tight/src"), Err(FsError::QuotaExceeded(_))));
        assert_eq!(usage(&ns, "/src"), 7, "a refused move leaves usage in place");
        ns.rename("/src", "/moved").unwrap();
        assert_eq!(usage(&ns, "/moved"), 7);
        assert_eq!(usage(&ns, "/moved/deep"), 7);
        assert_eq!(ns.quota_usage("/moved/deep").unwrap().0, TierQuota::limit_tier(0, 1000));
        assert_eq!(usage(&ns, "/"), 7);
        assert!(ns.quota_usage("/src").is_err());
        // Deleting the subtree refunds every ancestor.
        ns.delete("/moved/deep", true).unwrap();
        assert_eq!(usage(&ns, "/moved"), 0);
        assert_eq!(usage(&ns, "/"), 0);
    }

    #[test]
    fn set_replication_checks_net_growth() {
        let mut ns = Namespace::new();
        ns.mkdir("/t", true).unwrap();
        ns.set_quota("/t", TierQuota::limit_tier(0, 100)).unwrap();
        mem_file(&mut ns, "/t/f", 50).unwrap();
        // 50 → 100 fits exactly: the old charge is refunded first.
        ns.set_replication("/t/f", ReplicationVector::msh(2, 0, 0)).unwrap();
        assert!(ns.set_replication("/t/f", ReplicationVector::msh(3, 0, 0)).is_err());
        assert_eq!(usage(&ns, "/t"), 100);
    }

    #[test]
    fn set_quota_rejects_limit_below_usage() {
        let mut ns = Namespace::new();
        ns.mkdir("/d", true).unwrap();
        mem_file(&mut ns, "/d/f", 50).unwrap();
        assert!(matches!(
            ns.set_quota("/d", TierQuota::limit_tier(0, 10)),
            Err(FsError::QuotaExceeded(_))
        ));
        ns.set_quota("/d", TierQuota::limit_tier(0, 50)).unwrap();
    }

    #[test]
    fn set_replication_returns_old_vector() {
        let mut ns = Namespace::new();
        let f = ns.create_file("/f", ReplicationVector::msh(1, 0, 2), 128).unwrap();
        ns.add_block(f, BlockId(1), 10).unwrap();
        let old = ns.set_replication("/f", ReplicationVector::msh(1, 1, 1)).unwrap();
        assert_eq!(old, ReplicationVector::msh(1, 0, 2));
        assert_eq!(ns.file_meta(f).unwrap().rv, ReplicationVector::msh(1, 1, 1));
    }

    #[test]
    fn iter_files_and_counts() {
        let mut ns = Namespace::new();
        ns.mkdir("/a/b", true).unwrap();
        ns.create_file("/a/f1", rv3(), 128).unwrap();
        ns.create_file("/a/b/f2", rv3(), 128).unwrap();
        let files = ns.iter_files();
        assert_eq!(files.len(), 2);
        let paths: Vec<&str> = files.iter().map(|(_, p, _)| p.as_str()).collect();
        assert!(paths.contains(&"/a/f1"));
        assert!(paths.contains(&"/a/b/f2"));
        assert_eq!(ns.counts(), (2, 3));
    }

    #[test]
    fn status_of_root() {
        let ns = Namespace::new();
        let st = ns.status("/").unwrap();
        assert!(st.is_dir);
        assert_eq!(st.path, "/");
    }
}
