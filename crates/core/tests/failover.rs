//! Fault-injection tests for the networked deployment: RPC deadlines,
//! retry/failover behavior, pipeline recovery (§3.1), checksummed reads
//! (§4.1), and missed-invalidation reconciliation via block reports (§5).
//!
//! Faults are injected deterministically at the servers' response
//! boundary (`octopus_core::net::faults`), keyed by server address, so
//! concurrently-running tests never interfere.

use std::time::{Duration, Instant};

use octopus_common::{
    ClientLocation, ClusterConfig, FsError, ReplicationVector, RpcConfig, WorkerId, MB,
};
use octopus_core::net::{faults, FaultAction, Transport, WorkerServer};
use octopus_core::{build_single_worker, NetCluster, StorageMode};

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

#[test]
fn empty_file_roundtrip() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/empty", &[], rf(2)).unwrap();
    let st = client.status("/empty").unwrap();
    assert_eq!(st.len, 0);
    assert!(st.complete, "zero-length file must close cleanly");
    assert!(client.get_file_block_locations("/empty", 0, u64::MAX).unwrap().is_empty());
    assert_eq!(client.read_file("/empty").unwrap(), Vec::<u8>::new());
}

#[test]
fn exactly_one_block_file_roundtrip() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11); // exactly one block, no remainder
    client.write_file("/one", &data, rf(2)).unwrap();
    let blocks = client.get_file_block_locations("/one", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 1, "block-aligned file must produce exactly one block");
    assert_eq!(blocks[0].block.len, MB);
    assert_eq!(client.read_file("/one").unwrap(), data);
}

#[test]
fn delayed_response_times_out_within_deadline() {
    // The delay goes to the master's next response: no worker heartbeat
    // may arrive in between and take it.
    let mut config = config();
    config.heartbeat_ms = 60_000;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig {
        connect_timeout_ms: 250,
        read_timeout_ms: 250,
        write_timeout_ms: 250,
        max_retries: 0,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        conns_per_peer: 2,
        max_inflight_per_peer: 64,
    });
    // The master stalls for far longer than the client's read deadline.
    faults::inject(cluster.master_addr(), FaultAction::Delay(Duration::from_millis(2_000)));
    let start = Instant::now();
    let res = client.status("/");
    let elapsed = start.elapsed();
    faults::clear(cluster.master_addr());
    assert!(matches!(res, Err(FsError::Timeout(_))), "expected timeout, got {res:?}");
    assert!(
        elapsed < Duration::from_millis(1_500),
        "call must fail by its deadline, not wait out the stall ({elapsed:?})"
    );
}

#[test]
fn dropped_connection_is_retried_for_idempotent_calls() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::fast_test());
    // The master severs the connection instead of answering — twice.
    faults::inject(cluster.master_addr(), FaultAction::DropConnection);
    faults::inject(cluster.master_addr(), FaultAction::DropConnection);
    let st = client.status("/").expect("idempotent call retries through dropped connections");
    assert!(st.is_dir);
    assert_eq!(faults::pending(cluster.master_addr()), 0, "both faults consumed");
}

#[test]
fn truncated_response_is_retried_for_idempotent_calls() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::fast_test());
    faults::inject(cluster.master_addr(), FaultAction::TruncateFrame);
    let st = client.status("/").expect("half-written response must not poison the client");
    assert!(st.is_dir);
}

#[test]
fn corrupt_read_fails_over_to_healthy_replica() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize + 333, 5);
    client.write_file("/crc", &data, rf(3)).unwrap();

    // Corrupt the response from whichever worker the client would read
    // first — every block read from it returns damaged bytes once.
    let blocks = client.get_file_block_locations("/crc", 0, u64::MAX).unwrap();
    for lb in &blocks {
        let victim = lb.locations[0].worker;
        let addr = cluster.worker_addr(victim).unwrap();
        faults::inject(addr, FaultAction::CorruptPayload);
    }
    assert_eq!(
        client.read_file("/crc").unwrap(),
        data,
        "checksum mismatch must fail over to the next replica"
    );
    for lb in &blocks {
        faults::clear(cluster.worker_addr(lb.locations[0].worker).unwrap());
    }
}

#[test]
fn pipeline_write_heals_around_a_dead_worker() {
    let mut cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::fast_test());
    client.mkdir("/heal").unwrap();

    // Take a worker down hard: data server gone, heartbeats stopped. The
    // master still hands out placements including it, so pipelines must
    // recover client-side by excluding it and re-requesting placement.
    cluster.kill_worker(0);
    let dead = cluster.workers()[0].id();

    for i in 0..6u64 {
        let path = format!("/heal/{i}");
        let data = payload(MB as usize / 2 + i as usize, 100 + i);
        client.write_file(&path, &data, rf(3)).unwrap();
        assert_eq!(client.read_file(&path).unwrap(), data);
    }
    assert_eq!(cluster.workers()[0].used(), 0, "dead worker {dead} cannot have stored anything");
    // Every surviving block location must be readable and off the dead
    // worker.
    for i in 0..6u64 {
        let blocks = client.get_file_block_locations(&format!("/heal/{i}"), 0, u64::MAX).unwrap();
        for lb in &blocks {
            assert!(!lb.locations.is_empty());
            assert!(lb.locations.iter().all(|l| l.worker != dead));
        }
    }

    // Once the master's own failure detector declares the worker dead,
    // the replication monitor must top every block back up to 3 replicas
    // (§5). Blocks that lost a downstream pipeline stage committed with
    // fewer.
    for _ in 0..40 {
        cluster.run_replication_round().unwrap();
        let healed = (0..6u64).all(|i| {
            client
                .get_file_block_locations(&format!("/heal/{i}"), 0, u64::MAX)
                .unwrap()
                .iter()
                .all(|lb| lb.locations.len() >= 3)
        });
        if healed {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    for i in 0..6u64 {
        let blocks = client.get_file_block_locations(&format!("/heal/{i}"), 0, u64::MAX).unwrap();
        for lb in &blocks {
            assert!(lb.locations.len() >= 3, "block {} not healed to 3 replicas", lb.block.id);
            assert!(lb.locations.iter().all(|l| l.worker != dead));
        }
    }
}

/// Media ids are cluster-global, so a pipeline head answering
/// `UnknownMedia` is another worker serving at a dead worker's address:
/// the write re-places the block around it, once, instead of failing.
#[test]
fn a_stale_worker_address_costs_a_pipeline_recovery() {
    let mut config = config();
    // No heartbeat gap long enough for the master to declare worker 0
    // dead: it keeps placing on it, at its old address.
    config.heartbeat_ms = 60_000;
    let mut cluster = NetCluster::start(config.clone()).unwrap();
    let stale = cluster.worker_addr(WorkerId(0)).unwrap();
    cluster.kill_worker(0);
    let impostor = build_single_worker(&config, WorkerId(3), &StorageMode::InMemory).unwrap();
    // The freed port is ephemeral: another test's socket may hold it for a
    // while, so the bind is retried until it is free again.
    let deadline = Instant::now() + Duration::from_secs(30);
    let _server = loop {
        let master = cluster.master_addr();
        match WorkerServer::spawn_on(impostor.clone(), master, Default::default(), stale) {
            Err(FsError::Io(e)) if e.contains("in use") && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            server => break server.unwrap(),
        }
    };

    // A co-located writer: the master puts the pipeline's head on worker 0.
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(0)));
    let data = payload(MB as usize / 2, 7);
    client.write_file("/stale", &data, rf(3)).unwrap();
    let snap = cluster.transport().metrics().snapshot();
    assert_eq!(snap.counter("client_pipeline_recoveries_total"), 1);
    assert_eq!(client.read_file("/stale").unwrap(), data);
    for lb in client.get_file_block_locations("/stale", 0, u64::MAX).unwrap() {
        assert!(lb.locations.iter().all(|l| l.worker != WorkerId(0)), "{:?}", lb.locations);
    }
    assert_eq!(impostor.used(), 0, "the impostor stored a replica of a medium it lacks");
}

#[test]
fn missed_delete_reconciles_when_worker_rejoins() {
    let mut cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::fast_test());
    let data = payload(MB as usize, 9);
    client.write_file("/leak", &data, rf(3)).unwrap();

    // Pick a worker that holds a replica and take it offline.
    let blocks = client.get_file_block_locations("/leak", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0].worker;
    let idx = cluster.workers().iter().position(|w| w.id() == victim).unwrap();
    cluster.kill_worker(idx);

    // Delete while the worker is down: its invalidation is missed.
    client.delete("/leak", false).unwrap();
    assert!(matches!(client.read_file("/leak"), Err(FsError::NotFound(_))));
    assert!(cluster.workers()[idx].used() > 0, "offline worker must still hold the leaked replica");

    // On rejoin the worker block-reports; the master no longer knows the
    // block and orders it invalidated.
    cluster.restart_worker(idx).unwrap();
    assert_eq!(cluster.workers()[idx].used(), 0, "leaked replica purged after rejoin");
    let total: u64 = cluster.workers().iter().map(|w| w.used()).sum();
    assert_eq!(total, 0, "no replica of the deleted file survives anywhere");
}

#[test]
fn block_report_round_purges_stale_replicas() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 21);
    client.write_file("/stale", &data, rf(2)).unwrap();

    // Plant a replica the master has never heard of.
    let w = &cluster.workers()[0];
    let orphan = octopus_common::Block {
        id: octopus_common::BlockId(u64::MAX - 7),
        gen: octopus_common::GenStamp(1),
        len: 64,
    };
    let media = w.media()[0].id;
    w.write_block(media, orphan, &octopus_common::BlockData::generate_real(64, 3)).unwrap();
    assert!(w.contains(orphan.id));

    let dropped = cluster.run_block_report_round().unwrap();
    assert!(dropped >= 1, "reconciliation must purge the orphan replica");
    assert!(!cluster.workers()[0].contains(orphan.id));
    // The legitimate file is untouched.
    assert_eq!(client.read_file("/stale").unwrap(), data);
}
