//! Concurrency and edge-case tests for the parallel multi-block data path
//! (client I/O window): windowed writes recovering around faulted workers,
//! windowed reads failing over per block, concurrent clients with distinct
//! windows, the block-ordering invariant, size edge cases, and the
//! media I/O connection accounting the placement policy consumes (§3.2).
//!
//! Everything is deterministic: faults are injected at server response
//! boundaries keyed by address, worker death is synchronous, and no test
//! uses sleeps for synchronization.

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, RpcConfig, MB};
use octopus_core::NetCluster;

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::test_cluster(4, 64 * MB, MB);
    c.heartbeat_ms = 20;
    c
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

fn rf(n: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(n)
}

/// A windowed write with a worker faulted before the window opens must
/// recover every pipeline client-side (ReassignBlock / re-placement) and
/// commit all blocks off the dead node.
#[test]
fn parallel_write_commits_all_blocks_around_dead_worker() {
    let mut cluster = NetCluster::start(config()).unwrap();
    let client = cluster
        .client(ClientLocation::OffCluster)
        .with_rpc_config(RpcConfig::fast_test())
        .with_io_window(4);
    cluster.kill_worker(0);
    let dead = cluster.workers()[0].id();

    let data = payload(5 * MB as usize + MB as usize / 2, 7); // six blocks
    client.write_file("/pdead", &data, rf(3)).unwrap();
    assert_eq!(client.read_file("/pdead").unwrap(), data);

    let blocks = client.get_file_block_locations("/pdead", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 6, "every block must commit");
    for lb in &blocks {
        assert!(!lb.locations.is_empty(), "block {} has no replicas", lb.block.id);
        assert!(
            lb.locations.iter().all(|l| l.worker != dead),
            "block {} committed on the dead worker",
            lb.block.id
        );
    }
    assert_eq!(cluster.workers()[0].used(), 0, "dead worker {dead} cannot have stored anything");
}

/// Windowed reads verify checksums per block and fail over to the next
/// replica independently: silently corrupt the first-choice *stored*
/// replica of every block (a damaged replica fails its checksum on every
/// read, unlike a one-shot response fault, so the check is independent
/// of how the parallel reads interleave) and the read must still return
/// the exact bytes.
#[test]
fn parallel_read_fails_over_per_block_on_corruption() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_io_window(4);
    let data = payload(4 * MB as usize + 4321, 13); // five blocks, ragged tail
    client.write_file("/pcrc", &data, rf(3)).unwrap();

    let blocks = client.get_file_block_locations("/pcrc", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 5);
    for lb in &blocks {
        let victim = lb.locations[0];
        let worker = cluster.workers().iter().find(|w| w.id() == victim.worker).unwrap();
        worker
            .medium(victim.media)
            .unwrap()
            .store
            .as_any()
            .downcast_ref::<octopus_storage::MemoryStore>()
            .unwrap()
            .corrupt(lb.block.id)
            .unwrap();
    }
    assert_eq!(
        client.read_file("/pcrc").unwrap(),
        data,
        "each block must fail over past its corrupted first replica"
    );
}

/// Two clients with different windows writing concurrently must not
/// interleave: each file reads back bit-exact and its blocks cover the
/// file contiguously.
#[test]
fn concurrent_clients_with_distinct_windows_do_not_interleave() {
    let cluster = NetCluster::start(config()).unwrap();
    let serial = cluster.client(ClientLocation::OffCluster).with_io_window(1);
    let windowed = cluster.client(ClientLocation::OffCluster).with_io_window(4);
    let data_a = payload(4 * MB as usize, 101);
    let data_b = payload(4 * MB as usize, 202);

    std::thread::scope(|s| {
        let a = s.spawn(|| serial.write_file("/ca", &data_a, rf(2)));
        let b = s.spawn(|| windowed.write_file("/cb", &data_b, rf(2)));
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
    });

    assert_eq!(serial.read_file("/cb").unwrap(), data_b, "cross-read must agree");
    assert_eq!(windowed.read_file("/ca").unwrap(), data_a, "cross-read must agree");
    for path in ["/ca", "/cb"] {
        let blocks = cluster
            .client(ClientLocation::OffCluster)
            .get_file_block_locations(path, 0, u64::MAX)
            .unwrap();
        assert_eq!(blocks.len(), 4);
        for (i, lb) in blocks.iter().enumerate() {
            assert_eq!(lb.offset, i as u64 * MB, "{path} block {i} misplaced");
            assert_eq!(lb.block.len, MB);
        }
    }
}

/// The block-ordering invariant (see `Master::reassign_block_as` docs):
/// blocks appear in the namespace in AddBlock call order, so a windowed
/// write must yield offsets 0, bs, 2bs, … exactly — the turnstile
/// serializes AddBlock even though transfers overlap.
#[test]
fn windowed_write_preserves_block_offset_order() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_io_window(4);
    let data = payload(8 * MB as usize, 29);
    client.write_file("/order", &data, rf(2)).unwrap();

    let blocks = client.get_file_block_locations("/order", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 8);
    let mut ids = std::collections::HashSet::new();
    for (i, lb) in blocks.iter().enumerate() {
        assert_eq!(lb.offset, i as u64 * MB, "block {i} out of offset order");
        assert_eq!(lb.block.len, MB);
        assert!(ids.insert(lb.block.id), "duplicate block id {}", lb.block.id);
    }
    assert_eq!(client.read_file("/order").unwrap(), data);
}

/// Size matrix: lengths around every boundary the chunker and the window
/// logic care about round-trip bit-exact at windows 1 and 4.
#[test]
fn size_matrix_round_trips_bit_exact() {
    let mut c = ClusterConfig::test_cluster(4, 64 * MB, MB / 4);
    c.heartbeat_ms = 20;
    let cluster = NetCluster::start(c).unwrap();
    let bs = (MB / 4) as usize;
    let sizes = [0, 1, bs - 1, bs, bs + 1, 4 * bs - 1, 4 * bs, 4 * bs + 1];
    for window in [1u32, 4] {
        let client = cluster.client(ClientLocation::OffCluster).with_io_window(window);
        for (i, &len) in sizes.iter().enumerate() {
            let path = format!("/sz-w{window}-{i}");
            let data = payload(len, 1000 + i as u64);
            client.write_file(&path, &data, rf(2)).unwrap();
            let st = client.status(&path).unwrap();
            assert_eq!(st.len, len as u64, "{path} length");
            assert!(st.complete, "{path} must close");
            assert_eq!(client.read_file(&path).unwrap(), data, "{path} bytes");
            // Ranges through the same read engine, clipped to the file.
            for (start, n) in [(0, len), (bs - 1, 2), (bs, bs), (len.saturating_sub(1), 10)] {
                let want = &data[start.min(len)..(start + n).min(len)];
                let mut got = vec![0u8; n];
                let read = client.read_at(&path, start as u64, &mut got).unwrap();
                assert_eq!(&got[..read], want, "{path} range ({start}, {n})");
            }
            client.delete(&path, false).unwrap();

            // The same bytes through a `FileWriter`, in uneven pieces.
            let mut w = client.create(&path, rf(2), None).unwrap();
            let mut rest = &data[..];
            for &piece in [7, bs - 3, 1, bs + 5, 2 * bs].iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(piece.min(rest.len()));
                w.write(head).unwrap();
                rest = tail;
            }
            w.close().unwrap();
            assert_eq!(client.status(&path).unwrap().len, len as u64, "{path} writer length");
            assert_eq!(client.read_file(&path).unwrap(), data, "{path} writer bytes");
            client.delete(&path, false).unwrap();
        }
    }
}

/// `media_io` spans are the `NrConn` the heartbeat reports (§3.2): N
/// simultaneous transfer spans against one medium count N, and zero after
/// they drop — the accounting behind the data server's concurrent accept
/// path.
#[test]
fn media_io_spans_count_simultaneous_transfers() {
    let cluster = NetCluster::start(config()).unwrap();
    let w = &cluster.workers()[1];
    let media = w.media()[0].id;
    let conns_of = |w: &octopus_core::Worker| {
        let (stats, _) = w.heartbeat_stats();
        stats.iter().find(|m| m.media == media).unwrap().nr_conn
    };

    assert_eq!(conns_of(w), 0);
    let spans: Vec<_> = (0..3).map(|_| w.media_io(media).unwrap()).collect();
    assert_eq!(conns_of(w), 3, "three in-flight transfers must count three");
    drop(spans);
    assert_eq!(conns_of(w), 0, "dropped spans must release their connections");
}

/// Device-throughput pacing is off by default and, when enabled, derives
/// the transfer duration from the medium's configured rates.
#[test]
fn transfer_pacing_gated_by_emulation_flag() {
    let cluster = NetCluster::start(config()).unwrap();
    let w = &cluster.workers()[0];
    let media = w.media()[0].id;
    assert_eq!(w.transfer_pacing(media, MB, true), None, "emulation must default off");

    w.set_emulate_media_bps(true);
    let (write_bps, read_bps) = w.media()[0].throughput();
    let wr = w.transfer_pacing(media, MB, true).unwrap();
    let rd = w.transfer_pacing(media, MB, false).unwrap();
    assert!((wr.as_secs_f64() - MB as f64 / write_bps).abs() < 1e-9);
    assert!((rd.as_secs_f64() - MB as f64 / read_bps).abs() < 1e-9);
    w.set_emulate_media_bps(false);
    assert_eq!(w.transfer_pacing(media, MB, false), None);

    // A §5 copy onto HDD stores through the same step as a pipeline
    // stage, so under emulation it pays the target's write time, not
    // only the (memory) source's read time.
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/copy", &payload(MB as usize, 17), ReplicationVector::msh(1, 0, 0)).unwrap();
    client.set_replication("/copy", ReplicationVector::msh(1, 0, 1)).unwrap();
    for w in cluster.workers() {
        w.set_emulate_media_bps(true);
    }
    let started = std::time::Instant::now();
    let outcome = cluster.run_replication_round().unwrap();
    let took = started.elapsed().as_secs_f64();
    assert_eq!(outcome.copies_ok, 1, "{outcome:?}");
    let hdd_write_bps = w.media()[2].throughput().0;
    assert!(took >= MB as f64 / hdd_write_bps, "the copy took {took} s");
}
