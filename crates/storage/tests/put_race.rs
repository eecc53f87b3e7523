//! Concurrent `put`s against one store: a §3.1 re-send racing the original
//! write of a block, and writers racing for the last of the capacity. Both
//! stores must decide existence and capacity under the lock that inserts.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use octopus_common::{Block, BlockData, BlockId, FsError, GenStamp};
use octopus_storage::{BlockStore, FileStore, MemoryStore};

const THREADS: usize = 8;
const LEN: u64 = 64 * 1024;

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("octopus_put_race_{tag}_{}", std::process::id()))
}

/// Each store kind over `capacity` bytes, with the directory to clean up.
fn stores(tag: &str, capacity: u64) -> Vec<(Arc<dyn BlockStore>, Option<PathBuf>)> {
    let dir = tmpdir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        (Arc::new(MemoryStore::new(capacity)), None),
        (Arc::new(FileStore::open(&dir, capacity).unwrap()), Some(dir)),
    ]
}

/// Runs `put(block(i), data)` on `THREADS` threads released together.
fn race(
    store: &Arc<dyn BlockStore>,
    block: impl Fn(usize) -> Block + Sync,
    data: &BlockData,
) -> Vec<Result<(), FsError>> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let (barrier, block) = (&barrier, &block);
                scope.spawn(move || {
                    barrier.wait();
                    let out = store.put(block(i), data);
                    // No writer, winner or loser, may leave the store over
                    // its capacity at any point.
                    assert!(store.used() <= store.capacity());
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn leftover_tmp_files(dir: &PathBuf) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect()
}

#[test]
fn racing_puts_of_one_block_id_store_it_exactly_once() {
    let data = BlockData::generate_real(LEN as usize, 11);
    for (store, dir) in stores("same_id", 16 * LEN) {
        let outcomes =
            race(&store, |_| Block { id: BlockId(7), gen: GenStamp(1), len: LEN }, &data);
        let stored = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(stored, 1, "exactly one put wins: {outcomes:?}");
        for o in outcomes.iter().filter(|o| o.is_err()) {
            assert!(matches!(o, Err(FsError::AlreadyExists(_))), "loser got {o:?}");
        }
        assert_eq!(store.used(), LEN, "the block is accounted once");
        assert_eq!(store.get(BlockId(7)).unwrap(), data);
        if let Some(dir) = dir {
            assert_eq!(leftover_tmp_files(&dir), Vec::<String>::new());
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

#[test]
fn racing_puts_of_distinct_blocks_never_exceed_capacity() {
    let data = BlockData::generate_real(LEN as usize, 12);
    // Room for three of the eight.
    for (store, dir) in stores("capacity", 3 * LEN + LEN / 2) {
        let outcomes =
            race(&store, |i| Block { id: BlockId(i as u64), gen: GenStamp(1), len: LEN }, &data);
        let stored = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(stored, 3, "capacity admits exactly three: {outcomes:?}");
        for o in outcomes.iter().filter(|o| o.is_err()) {
            assert!(matches!(o, Err(FsError::OutOfCapacity(_))), "loser got {o:?}");
        }
        assert_eq!(store.used(), 3 * LEN);
        assert_eq!(store.blocks().len(), 3);
        if let Some(dir) = dir {
            assert_eq!(leftover_tmp_files(&dir), Vec::<String>::new());
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
