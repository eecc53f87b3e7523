//! Disk-backed block store (the SSD/HDD tiers in a real deployment).
//!
//! Each block is one file `blk_<id>.dat` in the store's directory, with a
//! small self-describing header (magic, kind, generation stamp, length,
//! CRC-32, seed). The index is rebuilt by scanning the directory on open,
//! so a restarted worker re-reports its blocks — the mechanism behind block
//! reports after failures (paper §5).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use octopus_common::{Block, BlockData, BlockId, FsError, GenStamp, Result};

use crate::store::{BlockStore, StoredBlockInfo};

const MAGIC: [u8; 4] = *b"OCTB";
const KIND_REAL: u8 = 0;
const KIND_SYNTHETIC: u8 = 1;
const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8 + 4 + 8; // 34 bytes

struct Inner {
    index: HashMap<BlockId, StoredBlockInfo>,
    used: u64,
}

/// A block store persisting each block as a file under `dir`.
pub struct FileStore {
    dir: PathBuf,
    capacity: u64,
    inner: RwLock<Inner>,
    /// Numbers the temporary file of each `put` attempt, so racing writers
    /// of one block id never share one.
    next_tmp: AtomicU64,
}

fn encode_header(block: &Block, kind: u8, checksum: u32, seed: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4] = 1; // version
    h[5] = kind;
    h[6..14].copy_from_slice(&block.gen.0.to_le_bytes());
    h[14..22].copy_from_slice(&block.len.to_le_bytes());
    h[22..26].copy_from_slice(&checksum.to_le_bytes());
    h[26..34].copy_from_slice(&seed.to_le_bytes());
    h
}

struct Header {
    kind: u8,
    gen: u64,
    len: u64,
    checksum: u32,
    seed: u64,
}

fn decode_header(h: &[u8]) -> Result<Header> {
    if h.len() < HEADER_LEN || h[0..4] != MAGIC {
        return Err(FsError::Io("bad block file header".into()));
    }
    if h[4] != 1 {
        return Err(FsError::Io(format!("unsupported block file version {}", h[4])));
    }
    Ok(Header {
        kind: h[5],
        gen: u64::from_le_bytes(h[6..14].try_into().unwrap()),
        len: u64::from_le_bytes(h[14..22].try_into().unwrap()),
        checksum: u32::from_le_bytes(h[22..26].try_into().unwrap()),
        seed: u64::from_le_bytes(h[26..34].try_into().unwrap()),
    })
}

impl FileStore {
    /// Opens (or creates) a store rooted at `dir` with the given logical
    /// capacity, scanning existing block files to rebuild the index.
    pub fn open(dir: impl AsRef<Path>, capacity: u64) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut index = HashMap::new();
        let mut used = 0u64;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_prefix("blk_") else { continue };
            if stem.ends_with(".tmp") {
                // A put that died between create and rename: never
                // indexed, so nothing else would ever delete it.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(id) = stem.strip_suffix(".dat").and_then(|s| s.parse::<u64>().ok()) else {
                continue;
            };
            let mut f = fs::File::open(entry.path())?;
            let mut h = [0u8; HEADER_LEN];
            if f.read_exact(&mut h).is_err() {
                continue; // truncated file: skip; scrubber will re-replicate
            }
            let Ok(hdr) = decode_header(&h) else { continue };
            // A real block cut short is not reported either, so §5
            // re-replicates it rather than a read's CRC finding it.
            if hdr.kind == KIND_REAL && f.metadata()?.len() < HEADER_LEN as u64 + hdr.len {
                continue;
            }
            let block = Block { id: BlockId(id), gen: GenStamp(hdr.gen), len: hdr.len };
            used += hdr.len;
            index.insert(block.id, StoredBlockInfo { block, checksum: hdr.checksum });
        }
        Ok(Self {
            dir,
            capacity,
            inner: RwLock::new(Inner { index, used }),
            next_tmp: AtomicU64::new(0),
        })
    }

    fn path_of(&self, id: BlockId) -> PathBuf {
        self.dir.join(format!("blk_{}.dat", id.0))
    }

    /// Reads a block file: the header, then the payload straight into the
    /// buffer that becomes the block's [`Bytes`].
    fn read_file(&self, id: BlockId) -> Result<(Header, Vec<u8>)> {
        let mut f =
            fs::File::open(self.path_of(id)).map_err(|_| FsError::NotFound(id.to_string()))?;
        let mut h = [0u8; HEADER_LEN];
        f.read_exact(&mut h)?;
        let hdr = decode_header(&h)?;
        // `File::read_to_end` reserves the rest of the file up front.
        let mut payload = Vec::new();
        f.read_to_end(&mut payload)?;
        Ok((hdr, payload))
    }

    /// Whether `block` may be added to `inner`: not there yet, and within
    /// capacity.
    fn admit(&self, inner: &Inner, block: &Block) -> Result<()> {
        if inner.index.contains_key(&block.id) {
            return Err(FsError::AlreadyExists(block.id.to_string()));
        }
        if inner.used + block.len > self.capacity {
            return Err(FsError::OutOfCapacity(format!(
                "file store {}: {} + {} > {}",
                self.dir.display(),
                inner.used,
                block.len,
                self.capacity
            )));
        }
        Ok(())
    }
}

fn write_block_file(path: &Path, block: &Block, data: &BlockData, checksum: u32) -> Result<()> {
    let mut f = fs::File::create(path)?;
    match data {
        BlockData::Real(b) => {
            f.write_all(&encode_header(block, KIND_REAL, checksum, 0))?;
            f.write_all(b)?;
        }
        BlockData::Synthetic { seed, .. } => {
            f.write_all(&encode_header(block, KIND_SYNTHETIC, checksum, *seed))?;
        }
    }
    f.sync_all()?;
    Ok(())
}

impl BlockStore for FileStore {
    fn put(&self, block: Block, data: &BlockData) -> Result<()> {
        if data.len() != block.len {
            return Err(FsError::InvalidArgument(format!(
                "block {} declares {} bytes but payload has {}",
                block.id,
                block.len,
                data.len()
            )));
        }
        // Fail fast before the (slow, unlocked) file write; the verdict
        // that counts is the one under the write lock below.
        self.admit(&self.inner.read(), &block)?;
        let checksum = data.checksum();
        let attempt = self.next_tmp.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("blk_{}.{attempt}.tmp", block.id.0));
        let stored = write_block_file(&tmp, &block, data, checksum).and_then(|()| {
            let mut g = self.inner.write();
            // A racing put (a §3.1 re-send against the original) may have
            // landed this id, or others taken the space, since the check.
            self.admit(&g, &block)?;
            fs::rename(&tmp, self.path_of(block.id))?;
            g.used += block.len;
            g.index.insert(block.id, StoredBlockInfo { block, checksum });
            Ok(())
        });
        if stored.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        stored
    }

    fn read(&self, id: BlockId) -> Result<(BlockData, u32)> {
        let recorded = self.checksum(id)?;
        let (hdr, payload) = self.read_file(id)?;
        let data = match hdr.kind {
            KIND_REAL => BlockData::Real(Bytes::from(payload)),
            KIND_SYNTHETIC => BlockData::Synthetic { len: hdr.len, seed: hdr.seed },
            k => return Err(FsError::Io(format!("unknown block kind {k}"))),
        };
        Ok((data, recorded))
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        let mut g = self.inner.write();
        let info = g.index.remove(&id).ok_or_else(|| FsError::NotFound(id.to_string()))?;
        g.used -= info.block.len;
        // Still under the lock a `put` renames under: a re-put of this id
        // cannot land its file between the index removal and the unlink.
        fs::remove_file(self.path_of(id))?;
        Ok(())
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.read().index.contains_key(&id)
    }

    fn blocks(&self) -> Vec<StoredBlockInfo> {
        self.inner.read().index.values().copied().collect()
    }

    fn used(&self) -> u64 {
        self.inner.read().used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn checksum(&self, id: BlockId) -> Result<u32> {
        let g = self.inner.read();
        g.index.get(&id).map(|i| i.checksum).ok_or_else(|| FsError::NotFound(id.to_string()))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "octopus_filestore_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn blk(id: u64, len: u64) -> Block {
        Block { id: BlockId(id), gen: GenStamp(2), len }
    }

    #[test]
    fn round_trip_real_payload() {
        let dir = tmpdir("rt");
        let s = FileStore::open(&dir, 10_000).unwrap();
        let d = BlockData::generate_real(500, 3);
        s.put(blk(1, 500), &d).unwrap();
        assert_eq!(s.get(BlockId(1)).unwrap(), d);
        assert_eq!(s.used(), 500);
        s.delete(BlockId(1)).unwrap();
        assert!(!s.contains(BlockId(1)));
        assert!(!s.path_of(BlockId(1)).exists());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn index_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let s = FileStore::open(&dir, 10_000).unwrap();
            s.put(blk(7, 100), &BlockData::generate_real(100, 7)).unwrap();
            s.put(blk(8, 200), &BlockData::Synthetic { len: 200, seed: 5 }).unwrap();
        }
        let s2 = FileStore::open(&dir, 10_000).unwrap();
        assert_eq!(s2.used(), 300);
        assert!(s2.contains(BlockId(7)));
        let d = s2.get(BlockId(8)).unwrap();
        assert_eq!(d, BlockData::Synthetic { len: 200, seed: 5 });
        let info: Vec<_> = s2.blocks();
        assert_eq!(info.len(), 2);
        let b7 = info.iter().find(|b| b.block.id == BlockId(7)).unwrap();
        assert_eq!(b7.block.gen, GenStamp(2));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn detects_on_disk_corruption() {
        let dir = tmpdir("corrupt");
        let s = FileStore::open(&dir, 10_000).unwrap();
        s.put(blk(1, 100), &BlockData::generate_real(100, 1)).unwrap();
        // Flip a payload byte behind the store's back.
        let p = dir.join("blk_1.dat");
        let mut raw = fs::read(&p).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        fs::write(&p, raw).unwrap();
        assert!(matches!(s.get(BlockId(1)), Err(FsError::ChecksumMismatch { .. })));
        assert!(s.verify(BlockId(1)).is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checksum_is_the_recorded_one_and_never_reads_the_file() {
        let dir = tmpdir("recorded");
        let s = FileStore::open(&dir, 10_000).unwrap();
        let data = BlockData::generate_real(100, 1);
        s.put(blk(1, 100), &data).unwrap();
        assert_eq!(s.checksum(BlockId(1)).unwrap(), data.checksum());
        // Flip a payload byte behind the store's back: the recorded CRC is
        // still served as written, while the paths that read the file
        // report the mismatch.
        let p = dir.join("blk_1.dat");
        let mut raw = fs::read(&p).unwrap();
        raw[HEADER_LEN] ^= 0xFF;
        fs::write(&p, raw).unwrap();
        assert_eq!(s.checksum(BlockId(1)).unwrap(), data.checksum());
        // `read` hands out what is on disk with that recorded CRC and no
        // verdict: its receiver verifies.
        let (rotten, recorded) = s.read(BlockId(1)).unwrap();
        assert_eq!(recorded, data.checksum());
        assert_ne!(rotten.checksum(), recorded);
        assert!(matches!(s.get(BlockId(1)), Err(FsError::ChecksumMismatch { .. })));
        assert!(matches!(s.verify(BlockId(1)), Err(FsError::ChecksumMismatch { .. })));
        assert!(matches!(s.checksum(BlockId(2)), Err(FsError::NotFound(_))));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn capacity_enforced() {
        let dir = tmpdir("cap");
        let s = FileStore::open(&dir, 150).unwrap();
        s.put(blk(1, 100), &BlockData::generate_real(100, 1)).unwrap();
        let err = s.put(blk(2, 100), &BlockData::generate_real(100, 2));
        assert!(matches!(err, Err(FsError::OutOfCapacity(_))));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn synthetic_files_are_tiny_on_disk() {
        let dir = tmpdir("synth");
        let s = FileStore::open(&dir, u64::MAX).unwrap();
        s.put(blk(1, 1 << 30), &BlockData::Synthetic { len: 1 << 30, seed: 1 }).unwrap();
        let on_disk = fs::metadata(dir.join("blk_1.dat")).unwrap().len();
        assert!(on_disk < 100, "synthetic block file is {on_disk} bytes");
        assert_eq!(s.used(), 1 << 30); // logical accounting
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_block_file_cut_inside_its_header_reads_as_an_io_error() {
        let dir = tmpdir("cut");
        let s = FileStore::open(&dir, 10_000).unwrap();
        s.put(blk(1, 100), &BlockData::generate_real(100, 1)).unwrap();
        // The file loses its end behind the store's back, down into the
        // header: a cut file, not a network fault.
        let p = dir.join("blk_1.dat");
        let raw = fs::read(&p).unwrap();
        fs::write(&p, &raw[..HEADER_LEN / 2]).unwrap();
        assert!(matches!(s.read(BlockId(1)), Err(FsError::Io(_))), "{:?}", s.read(BlockId(1)));
        assert!(matches!(s.get(BlockId(1)), Err(FsError::Io(_))));
        fs::remove_dir_all(dir).ok();
    }

    /// What a put killed between create and rename leaves, `blk_N.K.tmp`,
    /// is deleted at open; the blocks beside it are indexed as before.
    #[test]
    fn open_deletes_the_temp_files_of_unfinished_puts() {
        let dir = tmpdir("tmp");
        FileStore::open(&dir, 10_000)
            .unwrap()
            .put(blk(1, 100), &BlockData::generate_real(100, 1))
            .unwrap();
        let data = BlockData::generate_real(100, 2);
        write_block_file(&dir.join("blk_2.0.tmp"), &blk(2, 100), &data, data.checksum()).unwrap();
        fs::write(dir.join("blk_3.7.tmp"), b"a put cut mid-write").unwrap();
        let s = FileStore::open(&dir, 10_000).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["blk_1.dat"], "open leaves no *.tmp file");
        assert_eq!((s.blocks().len(), s.used()), (1, 100));
        fs::remove_dir_all(dir).ok();
    }

    /// A real block file shorter than its header says is left out of the
    /// index and of `used`, so the worker does not report it; a synthetic
    /// block's file is its header alone and still counts.
    #[test]
    fn open_skips_a_real_block_file_cut_short() {
        let dir = tmpdir("short");
        {
            let s = FileStore::open(&dir, 10_000).unwrap();
            s.put(blk(1, 500), &BlockData::generate_real(500, 1)).unwrap();
            s.put(blk(2, 300), &BlockData::generate_real(300, 2)).unwrap();
            s.put(blk(3, 200), &BlockData::Synthetic { len: 200, seed: 3 }).unwrap();
        }
        let f = fs::OpenOptions::new().write(true).open(dir.join("blk_1.dat")).unwrap();
        f.set_len((HEADER_LEN + 499) as u64).unwrap();
        let s = FileStore::open(&dir, 10_000).unwrap();
        let mut ids: Vec<u64> = s.blocks().iter().map(|b| b.block.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, [2, 3], "the cut block is not indexed");
        assert!(!s.contains(BlockId(1)));
        assert_eq!(s.used(), 300 + 200);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_block_errors() {
        let dir = tmpdir("missing");
        let s = FileStore::open(&dir, 100).unwrap();
        assert!(matches!(s.get(BlockId(9)), Err(FsError::NotFound(_))));
        assert!(matches!(s.delete(BlockId(9)), Err(FsError::NotFound(_))));
        fs::remove_dir_all(dir).ok();
    }
}
