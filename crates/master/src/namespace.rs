//! The directory namespace: a hierarchical inode tree with files,
//! directories, per-file replication vectors, and per-tier directory quotas
//! (paper §2.1; quotas per storage medium are the multi-tenancy mechanism
//! mentioned in §1).
//!
//! # Layout (DESIGN.md §11, "What a file costs")
//!
//! Inodes live in one slab of fixed-size chunks, addressed by *slot*. An
//! [`INodeId`] is a slot plus the slot's generation: deleting an inode
//! bumps the generation and puts the slot on a free list, so the next
//! create reuses it — the heap is a function of the live namespace — while
//! an id that outlived its file never resolves to the newcomer. Each name
//! is stored once, in its inode; a directory's children are slots kept
//! sorted by name and binary-searched (HDFS's `INodeDirectory` does the
//! same); quota and usage are boxed together and exist only for
//! directories that have either.

use octopus_common::wire::{Wire, WireReader};
use octopus_common::{BlockId, FsError, INodeId, ReplicationVector, Result, MAX_TIERS};

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

/// On the wire (the `SetQuota` / `QuotaUsage` RPCs): one `Option<u64>` per
/// tier slot, in slot order.
impl Wire for TierQuota {
    fn put(&self, buf: &mut Vec<u8>) {
        self.per_tier.iter().for_each(|limit| limit.put(buf));
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let mut quota = Self::default();
        for limit in &mut quota.per_tier {
            *limit = Wire::get(r)?;
        }
        Ok(quota)
    }
}

/// Metadata of a regular file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's replication vector.
    pub rv: ReplicationVector,
    /// Block size used when writing the file.
    pub block_size: u64,
    /// Ordered blocks, each with the length it was added with: any block
    /// may be short, since every append starts a fresh one.
    pub blocks: Vec<(BlockId, u64)>,
    /// Total length in bytes.
    pub len: u64,
    /// Whether the file has been closed (complete) or is still being
    /// written.
    pub complete: bool,
}

/// Per-tier bytes, indexed by tier slot.
type Charge = [u64; MAX_TIERS];

/// A directory's quota and the usage charged against it: 168 bytes that
/// most directories never need.
#[derive(Debug, Default)]
struct Account {
    quota: TierQuota,
    usage: Charge,
}

#[derive(Debug, Default)]
struct Dir {
    /// Child slots, sorted by the children's names.
    children: Vec<u32>,
    /// Present iff the quota is limited somewhere or some usage is not 0.
    account: Option<Box<Account>>,
}

impl Dir {
    fn quota_usage(&self) -> (TierQuota, Charge) {
        self.account.as_ref().map_or_else(Default::default, |a| (a.quota, a.usage))
    }

    /// Drops an account that says nothing.
    fn settle(&mut self) {
        if self.quota_usage() == Default::default() {
            self.account = None;
        }
    }
}

#[derive(Debug)]
enum Kind {
    /// On the free list (or retired); `INode::parent` links to the next
    /// free slot.
    Free,
    Dir(Dir),
    File(FileMeta),
}

/// One slot of the slab: 80 bytes.
#[derive(Debug)]
struct INode {
    name: Box<str>,
    /// The parent directory's slot; [`NO_SLOT`] for the root.
    parent: u32,
    /// How many inodes have lived in this slot before this one.
    generation: u32,
    kind: Kind,
}

/// A file's fixed cost; its name and its entry in the parent come on top.
const _: () = assert!(std::mem::size_of::<INode>() <= 80);

pub use octopus_common::{DirEntry, FileStatus};

/// Slot 0 holds no inode, so "no parent", "end of the free list" and the
/// external-mount marker `INodeId(0)` never name one.
const NO_SLOT: u32 = 0;
const ROOT: u32 = 1;

/// Slots per full chunk of the slab (320 KB). Only the last chunk grows
/// (doubling, to exactly this), so growth never copies more than one
/// chunk and a file's cost does not depend on how full one big doubling
/// vector happens to be.
const CHUNK: usize = 1 << 12;

/// The non-empty components of an absolute path, checked for `.` and `..`
/// before the first is handed out.
fn components(path: &str) -> Result<impl DoubleEndedIterator<Item = &str> + Clone> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(format!("{path:?} is not absolute")));
    }
    let comps = path.split('/').filter(|c| !c.is_empty());
    if let Some(comp) = comps.clone().find(|c| matches!(*c, "." | "..")) {
        return Err(FsError::InvalidPath(format!("{path:?} contains relative component {comp:?}")));
    }
    Ok(comps)
}

/// Validates an absolute path and returns its canonical form: `/` + the
/// components joined by `/` (so `//a///b/` becomes `/a/b`).
pub fn normalize(path: &str) -> Result<String> {
    let mut out = String::with_capacity(path.len());
    for comp in components(path)? {
        out.push('/');
        out.push_str(comp);
    }
    if out.is_empty() {
        out.push('/');
    }
    Ok(out)
}

fn dangling(id: INodeId) -> FsError {
    FsError::Internal(format!("dangling inode {id}"))
}

/// How [`Namespace::vacancy`] found a new entry's place.
enum Found {
    /// At the index it was handed.
    Finger,
    /// Past the last child.
    Push,
    /// By binary search.
    Search,
}

/// What replay carries from op to op: the last path one named, as spelled,
/// and the inode it resolved to (DESIGN.md §11, "Boot"). A log is runs of
/// ops on one path inside runs on one directory, so the next op mostly needs
/// no walk from `/`, and a create mostly links next to the one before it.
/// Whatever unlinks or moves an inode must `clear` it.
#[derive(Debug, Default)]
pub struct Cursor {
    /// Empty when nothing is remembered; never ends in `/`, so up to its
    /// last `/` it spells the parent directory.
    path: String,
    id: INodeId,
    /// Where the last create linked: the parent's slot and the index just
    /// after the new child. A hint, checked against names before use.
    finger: Option<(u32, usize)>,
    /// Ops that named the remembered path itself.
    pub path_hits: u64,
    /// Ops that named another entry of the remembered path's directory.
    pub parent_hits: u64,
    /// Ops that walked from `/`.
    pub walks: u64,
    /// Creates that linked at the finger: no search.
    pub finger_hits: u64,
    /// Creates that went past the directory's last child: no search.
    pub pushes: u64,
    /// Creates that binary-searched their directory.
    pub searches: u64,
}

impl Cursor {
    /// Forgets the path and the finger; the counts stay.
    pub fn clear(&mut self) {
        self.path.clear();
        self.finger = None;
    }

    /// The finger's index, if the last create linked into `parent`.
    fn finger_in(&self, parent: u32) -> Option<usize> {
        self.finger.filter(|&(slot, _)| slot == parent).map(|(_, index)| index)
    }

    /// A create linked its child at `index` of `parent`, found as `found`
    /// says.
    fn linked(&mut self, parent: u32, index: usize, found: Found) {
        self.finger = Some((parent, index + 1));
        *match found {
            Found::Finger => &mut self.finger_hits,
            Found::Push => &mut self.pushes,
            Found::Search => &mut self.searches,
        } += 1;
    }

    fn remember(&mut self, path: &str, id: INodeId) -> INodeId {
        self.path.clear();
        // `/a/f/` would make the file's own spelling the parent's.
        if !path.ends_with('/') {
            self.path.push_str(path);
            self.id = id;
        }
        id
    }

    /// The parent directory's slot and the last component of `path`, if it
    /// is the remembered path (then its own slot too) or names a sibling,
    /// and the remembered inode still lives. Counts which.
    fn recall<'p>(&mut self, ns: &Namespace, path: &'p str) -> Option<(u32, &'p str, Option<u32>)> {
        let cut = self.path.rfind('/').map_or(0, |at| at + 1);
        let slot = ns.slot_of(self.id).ok().filter(|_| cut > 0);
        let known = slot.zip(path.split_at_checked(cut)).and_then(|(slot, (dir, name))| {
            let valid = !name.contains('/') && !matches!(name, "" | "." | "..");
            let hit = (name == &self.path[cut..]).then_some(slot);
            (valid && dir == &self.path[..cut]).then(|| (ns.at(slot).parent, name, hit))
        });
        match known {
            Some((.., Some(_))) => self.path_hits += 1,
            Some(_) => self.parent_hits += 1,
            None => self.walks += 1,
        }
        known
    }
}

/// The inode tree.
#[derive(Debug)]
pub struct Namespace {
    /// The slab: every chunk but the last holds [`CHUNK`] slots.
    chunks: Vec<Vec<INode>>,
    /// Head of the free list ([`NO_SLOT`] when empty).
    free: u32,
    files: usize,
    dirs: usize,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    /// A namespace containing only `/`.
    pub fn new() -> Self {
        let mut ns = Self { chunks: Vec::new(), free: NO_SLOT, files: 0, dirs: 1 };
        for kind in [Kind::Free, Kind::Dir(Dir::default())] {
            ns.occupy("", NO_SLOT, kind).expect("an empty slab has room");
        }
        ns
    }

    /// The root inode.
    pub fn root(&self) -> INodeId {
        self.id_of(ROOT)
    }

    fn at(&self, slot: u32) -> &INode {
        &self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    fn at_mut(&mut self, slot: u32) -> &mut INode {
        &mut self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }

    fn id_of(&self, slot: u32) -> INodeId {
        INodeId::new(slot, self.at(slot).generation)
    }

    /// The slot `id` names, if the inode it was issued for still lives
    /// there.
    fn slot_of(&self, id: INodeId) -> Result<u32> {
        let slot = id.slot();
        let node =
            self.chunks.get(slot as usize / CHUNK).and_then(|c| c.get(slot as usize % CHUNK));
        match node {
            Some(n) if n.generation == id.generation() && !matches!(n.kind, Kind::Free) => Ok(slot),
            _ => Err(dangling(id)),
        }
    }

    /// Puts an inode in a free slot, or in a new one at the end of the
    /// slab.
    fn occupy(&mut self, name: &str, parent: u32, kind: Kind) -> Result<u32> {
        let name = Box::from(name);
        if self.free != NO_SLOT {
            let slot = self.free;
            let node = self.at_mut(slot);
            let next = std::mem::replace(&mut node.parent, parent);
            node.name = name;
            node.kind = kind;
            self.free = next;
            return Ok(slot);
        }
        let len = self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len());
        let slot =
            u32::try_from(len).map_err(|_| FsError::Internal("the inode table is full".into()))?;
        if len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::new());
        }
        let last = self.chunks.last_mut().expect("just ensured");
        last.push(INode { name, parent, generation: 0, kind });
        Ok(slot)
    }

    /// Frees a slot for reuse under the next generation. A slot that has
    /// run out of generations is retired instead: an id never comes round
    /// again.
    fn vacate(&mut self, slot: u32) {
        let head = self.free;
        let node = self.at_mut(slot);
        node.name = Box::default();
        node.kind = Kind::Free;
        node.parent = NO_SLOT;
        if let Some(next) = node.generation.checked_add(1) {
            node.generation = next;
            node.parent = head;
            self.free = slot;
        }
    }

    /// Where `name` is (`Ok`) or belongs (`Err`) among sorted `children`.
    fn position(&self, children: &[u32], name: &str) -> std::result::Result<usize, usize> {
        children.binary_search_by(|&c| (*self.at(c).name).cmp(name))
    }

    fn dir_at(&self, slot: u32) -> Option<&Dir> {
        match &self.at(slot).kind {
            Kind::Dir(dir) => Some(dir),
            _ => None,
        }
    }

    fn dir_mut(&mut self, slot: u32) -> &mut Dir {
        match &mut self.at_mut(slot).kind {
            Kind::Dir(dir) => dir,
            _ => unreachable!("slot {slot} was checked to hold a directory"),
        }
    }

    /// Creates an inode and links it at `index` of `parent`'s children.
    fn link_new(&mut self, parent: u32, index: usize, name: &str, kind: Kind) -> Result<u32> {
        let slot = self.occupy(name, parent, kind)?;
        self.dir_mut(parent).children.insert(index, slot);
        Ok(slot)
    }

    /// Unlinks `slot` from its parent's children. A directory that has
    /// emptied to a quarter of its capacity gives half of it back.
    fn unlink(&mut self, slot: u32) {
        let node = self.at(slot);
        let parent = node.parent;
        let siblings = &self.dir_at(parent).expect("a parent is a directory").children;
        let index = self.position(siblings, &node.name).expect("a child is linked");
        let children = &mut self.dir_mut(parent).children;
        children.remove(index);
        if children.len() <= children.capacity() / 4 {
            children.shrink_to(children.capacity() / 2);
        }
    }

    /// One step of a walk: the child `name` of `dir`. `path` is the
    /// caller's spelling, quoted in `NotFound`.
    fn step(&self, dir: u32, name: &str, path: &str) -> Result<u32> {
        let Some(children) = self.dir_at(dir).map(|dir| &dir.children) else {
            return Err(FsError::NotADirectory(self.path_at(dir)));
        };
        let index =
            self.position(children, name).map_err(|_| FsError::NotFound(path.to_string()))?;
        Ok(children[index])
    }

    /// Walks `comps` down from the root.
    fn walk<'p>(&self, mut comps: impl Iterator<Item = &'p str>, path: &str) -> Result<u32> {
        comps.try_fold(ROOT, |cur, comp| self.step(cur, comp, path))
    }

    fn lookup(&self, path: &str) -> Result<u32> {
        self.walk(components(path)?, path)
    }

    /// Resolves a path to its inode.
    pub fn resolve(&self, path: &str) -> Result<INodeId> {
        Ok(self.id_of(self.lookup(path)?))
    }

    /// [`Namespace::resolve`] for one op of a stream: no walk if `cursor`
    /// remembers `path`, one step if it remembers a sibling, and what it
    /// resolves to is remembered next.
    pub fn resolve_from(&self, cursor: &mut Cursor, path: &str) -> Result<INodeId> {
        let slot = match cursor.recall(self, path) {
            Some((.., Some(slot))) => return Ok(self.id_of(slot)),
            Some((parent, name, None)) => self.step(parent, name, path)?,
            None => self.lookup(path)?,
        };
        Ok(cursor.remember(path, self.id_of(slot)))
    }

    fn path_at(&self, slot: u32) -> String {
        let mut names = Vec::new();
        let mut cur = slot;
        while cur != ROOT {
            let node = self.at(cur);
            names.push(&*node.name);
            cur = node.parent;
        }
        if names.is_empty() {
            return "/".to_string();
        }
        let mut path = String::new();
        for name in names.iter().rev() {
            path.push('/');
            path.push_str(name);
        }
        path
    }

    /// The absolute path of an inode.
    pub fn path_of(&self, id: INodeId) -> Result<String> {
        Ok(self.path_at(self.slot_of(id)?))
    }

    /// The parent directory's slot and the last component of `path`.
    fn lookup_parent<'p>(&self, path: &'p str) -> Result<(u32, &'p str)> {
        let mut comps = components(path)?;
        let Some(name) = comps.next_back() else {
            return Err(FsError::InvalidPath("operation on root".into()));
        };
        Ok((self.walk(comps, path)?, name))
    }

    /// Where a new entry `name` goes in directory `parent`, and how that was
    /// found; `path` is the caller's spelling of the entry. `finger` is an
    /// index to try first: taken only if `name` sorts strictly between the
    /// children on either side of it, so a stale one costs a miss, never a
    /// wrong link, and every answer is the search's.
    fn vacancy(
        &self,
        parent: u32,
        name: &str,
        path: &str,
        finger: Option<usize>,
    ) -> Result<(usize, Found)> {
        let Some(dir) = self.dir_at(parent) else {
            return Err(FsError::NotADirectory(self.path_at(parent)));
        };
        let children = &dir.children;
        let name_at = |index: usize| &*self.at(children[index]).name;
        if let Some(at) = finger.filter(|&at| at <= children.len()) {
            if (at == 0 || name_at(at - 1) < name) && (at == children.len() || name < name_at(at)) {
                return Ok((at, Found::Finger));
            }
        }
        // Past the last child (a sorted image, rising names): no search.
        if children.last().is_some_and(|&last| *self.at(last).name < *name) {
            return Ok((children.len(), Found::Push));
        }
        match self.position(children, name) {
            Ok(_) => Err(FsError::AlreadyExists(path.to_string())),
            Err(index) => Ok((index, Found::Search)),
        }
    }

    /// Creates a directory. With `parents`, creates missing ancestors
    /// (like `mkdir -p`) and is idempotent on existing directories.
    pub fn mkdir(&mut self, path: &str, parents: bool) -> Result<INodeId> {
        let mut comps = components(path)?.peekable();
        if comps.peek().is_none() {
            return if parents { Ok(self.root()) } else { Err(FsError::AlreadyExists("/".into())) };
        }
        let mut cur = ROOT;
        while let Some(comp) = comps.next() {
            let last = comps.peek().is_none();
            let Some(dir) = self.dir_at(cur) else {
                return Err(FsError::NotADirectory(self.path_at(cur)));
            };
            match self.position(&dir.children, comp) {
                Ok(index) => {
                    cur = dir.children[index];
                    if last && !(parents && self.dir_at(cur).is_some()) {
                        return Err(FsError::AlreadyExists(path.to_string()));
                    }
                }
                Err(_) if !last && !parents => return Err(FsError::NotFound(path.to_string())),
                Err(index) => {
                    cur = self.link_new(cur, index, comp, Kind::Dir(Dir::default()))?;
                    self.dirs += 1;
                }
            }
        }
        Ok(self.id_of(cur))
    }

    /// Creates an empty file open for writing. Parent directories must
    /// exist.
    pub fn create_file(
        &mut self,
        path: &str,
        rv: ReplicationVector,
        block_size: u64,
    ) -> Result<INodeId> {
        self.create_file_from(None, path, rv, block_size)
    }

    /// [`Namespace::create_file`] for one op of a stream: the parent comes
    /// from `cursor` if it remembers a sibling, the new file is tried at
    /// the cursor's finger first, and it is remembered next. Without one, a
    /// walk and nothing remembered.
    pub fn create_file_from(
        &mut self,
        mut cursor: Option<&mut Cursor>,
        path: &str,
        rv: ReplicationVector,
        block_size: u64,
    ) -> Result<INodeId> {
        if block_size == 0 {
            return Err(FsError::InvalidArgument("block size must be positive".into()));
        }
        let (parent, name) = match cursor.as_deref_mut().and_then(|c| c.recall(self, path)) {
            Some((parent, name, _)) => (parent, name),
            None => self.lookup_parent(path)?,
        };
        let finger = cursor.as_deref().and_then(|c| c.finger_in(parent));
        let (index, found) = self.vacancy(parent, name, path, finger)?;
        let meta = FileMeta { rv, block_size, blocks: Vec::new(), len: 0, complete: false };
        let slot = self.link_new(parent, index, name, Kind::File(meta))?;
        self.files += 1;
        let id = self.id_of(slot);
        Ok(match cursor {
            Some(c) => {
                c.linked(parent, index, found);
                c.remember(path, id)
            }
            None => id,
        })
    }

    fn file_at(&self, slot: u32) -> Result<&FileMeta> {
        match &self.at(slot).kind {
            Kind::File(meta) => Ok(meta),
            _ => Err(FsError::IsADirectory(self.path_at(slot))),
        }
    }

    /// Read access to a file's metadata.
    pub fn file_meta(&self, id: INodeId) -> Result<&FileMeta> {
        self.file_at(self.slot_of(id)?)
    }

    fn file_at_mut(&mut self, slot: u32) -> Result<&mut FileMeta> {
        self.file_at(slot)?;
        match &mut self.at_mut(slot).kind {
            Kind::File(meta) => Ok(meta),
            _ => unreachable!("checked by file_at"),
        }
    }

    /// The per-tier quota charge of `len` bytes stored under vector `rv`
    /// (pinned tiers only).
    pub(crate) fn charge_of(rv: ReplicationVector, len: u64) -> Charge {
        let mut c = [0u64; MAX_TIERS];
        for (tier, count) in rv.iter_tiers() {
            c[tier.0 as usize] = len * count as u64;
        }
        c
    }

    /// The first directory from `dir` up to the root, and the tier slot in
    /// it, whose quota cannot take `charge` more.
    fn refusing(&self, mut dir: u32, charge: &Charge) -> Option<(u32, usize)> {
        while dir != NO_SLOT {
            let node = self.at(dir);
            if let Kind::Dir(Dir { account: Some(a), .. }) = &node.kind {
                let over = (0..MAX_TIERS).find(|&t| {
                    a.quota.per_tier[t].is_some_and(|limit| a.usage[t] + charge[t] > limit)
                });
                if let Some(t) = over {
                    return Some((dir, t));
                }
            }
            dir = node.parent;
        }
        None
    }

    /// Adds `charge` to (or takes it from) the usage of every directory
    /// from `dir` up to the root.
    fn charge(&mut self, mut dir: u32, charge: &Charge, add: bool) {
        if charge.iter().all(|&c| c == 0) {
            return; // empty or unpinned file: no ancestor walk
        }
        while dir != NO_SLOT {
            let node = self.at_mut(dir);
            if let Kind::Dir(d) = &mut node.kind {
                if add {
                    let usage = &mut d.account.get_or_insert_default().usage;
                    usage.iter_mut().zip(charge).for_each(|(u, c)| *u += c);
                } else if let Some(a) = &mut d.account {
                    a.usage.iter_mut().zip(charge).for_each(|(u, c)| *u = u.saturating_sub(*c));
                    d.settle();
                }
            }
            dir = node.parent;
        }
    }

    /// Charges the ancestors of `slot` with `charge` more, if every quota
    /// on the way up admits it.
    fn charge_ancestors(&mut self, slot: u32, charge: &Charge) -> Result<()> {
        let parent = self.at(slot).parent;
        if let Some((dir, t)) = self.refusing(parent, charge) {
            let (quota, usage) = self.dir_at(dir).expect("only a directory refuses").quota_usage();
            return Err(FsError::QuotaExceeded(format!(
                "directory {} tier slot {t}: {} + {} > {}",
                self.path_at(dir),
                usage[t],
                charge[t],
                quota.per_tier[t].expect("a refusing tier is limited"),
            )));
        }
        self.charge(parent, charge, true);
        Ok(())
    }

    fn refund_ancestors(&mut self, slot: u32, charge: &Charge) {
        self.charge(self.at(slot).parent, charge, false);
    }

    /// Appends a block to an open file, charging tier quotas.
    pub fn add_block(&mut self, file: INodeId, block: BlockId, len: u64) -> Result<()> {
        let slot = self.slot_of(file)?;
        let meta = self.file_at(slot)?;
        if meta.complete {
            return Err(FsError::InvalidArgument(format!(
                "file {} is complete; cannot append blocks",
                self.path_at(slot)
            )));
        }
        let charge = Self::charge_of(meta.rv, len);
        self.charge_ancestors(slot, &charge)?;
        let meta = self.file_at_mut(slot)?;
        meta.blocks.push((block, len));
        meta.len += len;
        Ok(())
    }

    /// Reverses the most recent [`Namespace::add_block`] of an open file,
    /// refunding the quota charge and length. Only the *last* block may be
    /// abandoned — pipeline recovery gives up on a block whose write
    /// failed before requesting a fresh placement, and nothing can have
    /// been appended after it while the client holds the lease.
    pub fn remove_last_block(&mut self, file: INodeId, block: BlockId, len: u64) -> Result<()> {
        let slot = self.slot_of(file)?;
        let meta = self.file_at(slot)?;
        if meta.complete {
            return Err(FsError::InvalidArgument(format!(
                "file {} is complete; cannot abandon blocks",
                self.path_at(slot)
            )));
        }
        if meta.blocks.last().map(|&(id, _)| id) != Some(block) {
            return Err(FsError::InvalidArgument(format!(
                "{block} is not the last block of {}",
                self.path_at(slot)
            )));
        }
        let charge = Self::charge_of(meta.rv, len);
        self.refund_ancestors(slot, &charge);
        let meta = self.file_at_mut(slot)?;
        meta.blocks.pop();
        meta.len = meta.len.saturating_sub(len);
        Ok(())
    }

    /// Marks a file complete (closed).
    pub fn finalize_file(&mut self, file: INodeId) -> Result<()> {
        let meta = self.file_at_mut(self.slot_of(file)?)?;
        meta.complete = true;
        Ok(())
    }

    /// Reopens a complete file for appending.
    pub fn reopen_file(&mut self, file: INodeId) -> Result<()> {
        let meta = self.file_at_mut(self.slot_of(file)?)?;
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
        let slot = self.lookup(path)?;
        let meta = self.file_at(slot)?;
        let old = meta.rv;
        // Refund the old pinned charge, apply the new one.
        let old_charge = Self::charge_of(old, meta.len);
        let new_charge = Self::charge_of(rv, meta.len);
        self.refund_ancestors(slot, &old_charge);
        if let Err(e) = self.charge_ancestors(slot, &new_charge) {
            // Roll back.
            self.charge_ancestors(slot, &old_charge)?;
            return Err(e);
        }
        self.file_at_mut(slot)?.rv = rv;
        Ok(old)
    }

    /// Status of a path.
    pub fn status(&self, path: &str) -> Result<FileStatus> {
        let slot = self.lookup(path)?;
        let dir = FileStatus {
            id: self.id_of(slot),
            path: normalize(path)?,
            is_dir: true,
            len: 0,
            rv: ReplicationVector::EMPTY,
            block_size: 0,
            complete: true,
        };
        Ok(match &self.at(slot).kind {
            Kind::File(meta) => FileStatus {
                is_dir: false,
                len: meta.len,
                rv: meta.rv,
                block_size: meta.block_size,
                complete: meta.complete,
                ..dir
            },
            _ => dir,
        })
    }

    /// Lists a directory, in name order.
    pub fn list(&self, path: &str) -> Result<Vec<DirEntry>> {
        let Some(dir) = self.dir_at(self.lookup(path)?) else {
            return Err(FsError::NotADirectory(path.to_string()));
        };
        let entries = dir.children.iter().map(|&c| {
            let child = self.at(c);
            let dir = DirEntry {
                name: child.name.to_string(),
                is_dir: true,
                len: 0,
                rv: ReplicationVector::EMPTY,
            };
            match &child.kind {
                Kind::File(meta) => DirEntry { is_dir: false, len: meta.len, rv: meta.rv, ..dir },
                _ => dir,
            }
        });
        Ok(entries.collect())
    }

    /// Per-tier usage of the subtree rooted at `slot` (files only).
    fn subtree_charge(&self, slot: u32) -> Charge {
        match &self.at(slot).kind {
            Kind::File(meta) => Self::charge_of(meta.rv, meta.len),
            Kind::Dir(dir) => dir.quota_usage().1,
            Kind::Free => unreachable!("slot {slot} is linked in the tree"),
        }
    }

    /// Renames `src` to `dst`. `dst` must not exist and its parent must be
    /// an existing directory. Moving a directory into its own subtree is
    /// rejected. Quota usage transfers from the old ancestors to the new.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<()> {
        let moved = self.lookup(src)?;
        if moved == ROOT {
            return Err(FsError::InvalidPath("cannot rename /".into()));
        }
        let (dst_parent, dst_name) = self.lookup_parent(dst)?;
        self.vacancy(dst_parent, dst_name, dst, None)?;
        // Reject moving a directory under itself.
        let mut cur = dst_parent;
        while cur != NO_SLOT {
            if cur == moved {
                return Err(FsError::InvalidPath(format!(
                    "cannot move {src} into its own subtree {dst}"
                )));
            }
            cur = self.at(cur).parent;
        }

        // Refund the old ancestor chain first, so a directory on both
        // chains is checked against what it will hold, not double.
        let charge = self.subtree_charge(moved);
        self.refund_ancestors(moved, &charge);
        if let Some((dir, t)) = self.refusing(dst_parent, &charge) {
            self.charge(self.at(moved).parent, &charge, true);
            return Err(FsError::QuotaExceeded(format!(
                "directory {} tier slot {t}",
                self.path_at(dir)
            )));
        }

        self.unlink(moved);
        let node = self.at_mut(moved);
        node.parent = dst_parent;
        node.name = Box::from(dst_name);
        // Searched only now: unlinking may have shifted the position.
        let siblings = &self.dir_at(dst_parent).expect("checked by vacancy above").children;
        let index = self.position(siblings, dst_name).expect_err("checked vacant above");
        self.dir_mut(dst_parent).children.insert(index, moved);
        self.charge(dst_parent, &charge, true);
        Ok(())
    }

    /// Deletes a path. Directories require `recursive` unless empty.
    /// Returns the inode ids of every deleted file and their block ids
    /// (for invalidation at the workers).
    pub fn delete(&mut self, path: &str, recursive: bool) -> Result<(Vec<INodeId>, Vec<BlockId>)> {
        let doomed = self.lookup(path)?;
        if doomed == ROOT {
            return Err(FsError::InvalidPath("cannot delete /".into()));
        }
        if !recursive && self.dir_at(doomed).is_some_and(|dir| !dir.children.is_empty()) {
            return Err(FsError::DirectoryNotEmpty(path.to_string()));
        }
        let charge = self.subtree_charge(doomed);
        self.refund_ancestors(doomed, &charge);
        self.unlink(doomed);

        let mut stack = vec![doomed];
        let mut files = Vec::new();
        let mut blocks = Vec::new();
        while let Some(slot) = stack.pop() {
            match std::mem::replace(&mut self.at_mut(slot).kind, Kind::Free) {
                Kind::Dir(dir) => {
                    stack.extend(dir.children);
                    self.dirs -= 1;
                }
                Kind::File(meta) => {
                    files.push(self.id_of(slot));
                    blocks.extend(meta.blocks.into_iter().map(|(id, _)| id));
                    self.files -= 1;
                }
                Kind::Free => unreachable!("slot {slot} was linked in the tree"),
            }
            self.vacate(slot);
        }
        Ok((files, blocks))
    }

    /// The inode ids of every file at or under `id` (none if `id` is
    /// stale).
    pub fn subtree_files(&self, id: INodeId) -> Vec<INodeId> {
        let mut stack = Vec::from_iter(self.slot_of(id).ok());
        let mut files = Vec::new();
        while let Some(slot) = stack.pop() {
            match &self.at(slot).kind {
                Kind::Dir(dir) => stack.extend(&dir.children),
                Kind::File(_) => files.push(self.id_of(slot)),
                Kind::Free => unreachable!("slot {slot} is linked in the tree"),
            }
        }
        files
    }

    /// Sets a directory's per-tier quota. Fails if current usage already
    /// exceeds the new limit.
    pub fn set_quota(&mut self, path: &str, quota: TierQuota) -> Result<()> {
        let slot = self.lookup(path)?;
        let Kind::Dir(dir) = &mut self.at_mut(slot).kind else {
            return Err(FsError::NotADirectory(path.to_string()));
        };
        let (_, usage) = dir.quota_usage();
        for (u, limit) in usage.iter().zip(quota.per_tier) {
            if limit.is_some_and(|limit| *u > limit) {
                return Err(FsError::QuotaExceeded(format!(
                    "current usage {u} exceeds new quota {}",
                    limit.expect("checked")
                )));
            }
        }
        dir.account.get_or_insert_default().quota = quota;
        dir.settle();
        Ok(())
    }

    /// A directory's quota and current per-tier usage.
    pub fn quota_usage(&self, path: &str) -> Result<(TierQuota, [u64; MAX_TIERS])> {
        let dir = self.dir_at(self.lookup(path)?);
        dir.map(Dir::quota_usage).ok_or_else(|| FsError::NotADirectory(path.to_string()))
    }

    /// `(files, directories)` counts (directories include `/`), kept as
    /// create, mkdir and delete go — not a walk.
    pub fn counts(&self) -> (usize, usize) {
        (self.files, self.dirs)
    }

    /// Every live inode with its slot, in slot order.
    fn inodes(&self) -> impl Iterator<Item = (u32, &INode)> {
        (0u32..).zip(self.chunks.iter().flatten()).filter(|(_, n)| !matches!(n.kind, Kind::Free))
    }

    /// All directories as `(path, quota)`, sorted by path (so parents come
    /// before children). Used by checkpointing.
    pub fn iter_dirs(&self) -> Vec<(String, TierQuota)> {
        let mut dirs: Vec<(String, TierQuota)> = self
            .inodes()
            .filter_map(|(slot, n)| match &n.kind {
                Kind::Dir(dir) => Some((self.path_at(slot), dir.quota_usage().0)),
                _ => None,
            })
            .collect();
        dirs.sort_by(|a, b| a.0.cmp(&b.0));
        dirs
    }

    /// Iterates all files as `(id, meta)`, without building a path per
    /// file. The order is the slab's: creation order until a slot has been
    /// reused, nothing a caller can lean on after — a scan whose outcome
    /// depends on order sorts by what it means.
    pub fn files(&self) -> impl Iterator<Item = (INodeId, &FileMeta)> {
        self.inodes().filter_map(|(slot, n)| match &n.kind {
            Kind::File(meta) => Some((INodeId::new(slot, n.generation), meta)),
            _ => None,
        })
    }

    /// All files as `(id, path, meta)`, in the order of
    /// [`Namespace::files`].
    pub fn iter_files(&self) -> Vec<(INodeId, String, &FileMeta)> {
        self.files().map(|(id, meta)| (id, self.path_at(id.slot()), meta)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_common::rng::splitmix64 as next;

    fn rv3() -> ReplicationVector {
        ReplicationVector::from_replication_factor(3)
    }

    #[test]
    fn mkdir_and_resolve() {
        let mut ns = Namespace::new();
        let d = ns.mkdir("/a/b/c", true).unwrap();
        assert_eq!(ns.resolve("/a/b/c").unwrap(), d);
        assert_eq!(ns.path_of(d).unwrap(), "/a/b/c");
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
        assert_eq!(ns.file_meta(f).unwrap().blocks, [(BlockId(1), 128), (BlockId(2), 64)]);
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
        assert_eq!(ns.path_of(f).unwrap(), "/b/g");

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
    fn an_id_that_outlived_its_inode_never_names_the_slots_next_tenant() {
        let mut ns = Namespace::new();
        ns.mkdir("/d", true).unwrap();
        let old = ns.create_file("/d/old", rv3(), 128).unwrap();
        ns.add_block(old, BlockId(1), 10).unwrap();
        ns.delete("/d/old", false).unwrap();
        // Create until something moves into the old slot (the first create
        // does, today; the loop does not depend on the free list's policy).
        let tenant = (0..1_000)
            .map(|i| ns.create_file(&format!("/d/new{i}"), rv3(), 128).unwrap())
            .find(|id| id.slot() == old.slot())
            .expect("a freed slot is reused");
        assert_eq!(tenant.generation(), old.generation() + 1);
        assert_ne!(tenant, old);

        let dangling = |r: Result<()>| match r {
            Err(FsError::Internal(m)) => assert!(m.contains("dangling inode"), "{m}"),
            other => panic!("a stale id answered {other:?}"),
        };
        dangling(ns.file_meta(old).map(drop));
        dangling(ns.path_of(old).map(drop));
        dangling(ns.add_block(old, BlockId(2), 10));
        dangling(ns.remove_last_block(old, BlockId(1), 10));
        dangling(ns.finalize_file(old));
        dangling(ns.reopen_file(old));
        assert!(ns.subtree_files(old).is_empty());
        // The tenant is untouched by any of it.
        let meta = ns.file_meta(tenant).unwrap();
        assert_eq!((meta.len, meta.blocks.len(), meta.complete), (0, 0, false));
        // Ids nobody was ever given: beyond the slab, slot 0, a future
        // generation.
        dangling(ns.path_of(INodeId::new(1 << 20, 0)).map(drop));
        dangling(ns.path_of(INodeId(0)).map(drop));
        dangling(ns.path_of(INodeId::new(tenant.slot(), tenant.generation() + 1)).map(drop));
    }

    #[test]
    fn a_slot_out_of_generations_is_retired_not_reused() {
        let mut ns = Namespace::new();
        let f = ns.create_file("/f", rv3(), 128).unwrap();
        ns.at_mut(f.slot()).generation = u32::MAX;
        let last = ns.resolve("/f").unwrap();
        ns.delete("/f", false).unwrap();
        let next = ns.create_file("/g", rv3(), 128).unwrap();
        assert_ne!(next.slot(), last.slot(), "generation u32::MAX + 1 would repeat an id");
        assert!(ns.path_of(last).is_err());
        assert_eq!(ns.counts(), (1, 1));
    }

    #[test]
    fn list_stays_sorted_through_random_inserts_renames_and_deletes() {
        let mut ns = Namespace::new();
        ns.mkdir("/d", true).unwrap();
        ns.mkdir("/e", true).unwrap();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = 7u64;
        for _ in 0..10_000 {
            let name = format!("n{}", next(&mut rng) % 600);
            let path = format!("/d/{name}");
            match next(&mut rng) % 4 {
                0 | 1 => {
                    let made = if next(&mut rng).is_multiple_of(5) {
                        ns.mkdir(&path, false).is_ok()
                    } else {
                        ns.create_file(&path, rv3(), 128).is_ok()
                    };
                    assert_eq!(made, model.insert(name));
                }
                2 => {
                    // Within the directory, or out to /e and back in under
                    // another name (or, having left, its own).
                    let to = format!("n{}", next(&mut rng) % 600);
                    let via_e = next(&mut rng).is_multiple_of(2);
                    let moved = if via_e {
                        ns.rename(&path, "/e/tmp")
                            .and_then(|()| ns.rename("/e/tmp", &format!("/d/{to}")))
                            .or_else(|e| ns.rename("/e/tmp", &path).and(Err(e)))
                            .is_ok()
                    } else {
                        ns.rename(&path, &format!("/d/{to}")).is_ok()
                    };
                    let free = !model.contains(&to) || (via_e && to == name);
                    assert_eq!(moved, model.contains(&name) && free);
                    if moved {
                        model.remove(&name);
                        model.insert(to);
                    }
                }
                _ => assert_eq!(ns.delete(&path, true).is_ok(), model.remove(&name)),
            }
            if next(&mut rng).is_multiple_of(64) {
                let listed: Vec<String> =
                    ns.list("/d").unwrap().into_iter().map(|e| e.name).collect();
                assert!(listed.iter().eq(model.iter()), "listing is the model, in order");
            }
        }
        assert!(model.len() > 100, "the directory stayed populated: {}", model.len());
        let listed: Vec<String> = ns.list("/d").unwrap().into_iter().map(|e| e.name).collect();
        assert!(listed.iter().eq(model.iter()));
    }

    #[test]
    fn status_of_root() {
        let ns = Namespace::new();
        let st = ns.status("/").unwrap();
        assert!(st.is_dir);
        assert_eq!(st.path, "/");
    }
}
