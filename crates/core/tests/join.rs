//! Who knows what: a master learns its workers from their joins, and a
//! worker learns its heartbeat interval from the master. A master is
//! configured with no workers at all; only a harness that builds workers
//! needs a recipe with any.

use std::collections::BTreeSet;
use std::sync::Arc;

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, WorkerId, MB};
use octopus_core::net::{worker_server, LocalTransport, MasterNode, WorkerNode};
use octopus_core::{build_single_worker, Cluster, NetCluster, RemoteFs, SimCluster, StorageMode};
use octopus_master::Master;

/// Worker 0 of the test layout, in memory.
fn worker() -> Arc<octopus_core::Worker> {
    let recipe = ClusterConfig::test_cluster(1, 64 * MB, MB);
    build_single_worker(&recipe, WorkerId(0), &StorageMode::InMemory).unwrap()
}

#[test]
fn every_harness_refuses_an_empty_recipe() {
    let empty = || ClusterConfig::test_cluster(0, 64 * MB, MB);
    assert!(matches!(Cluster::start(empty()), Err(FsError::Config(_))));
    assert!(matches!(SimCluster::new(empty()), Err(FsError::Config(_))));
    assert!(matches!(NetCluster::start(empty()), Err(FsError::Config(_))));
}

#[test]
fn a_master_with_no_workers_places_a_block_once_one_joins() {
    let master = Arc::new(Master::new(ClusterConfig::test_cluster(0, 0, MB)).unwrap());
    let worker = worker();
    let net = Arc::new(LocalTransport::new(master, vec![Arc::clone(&worker)]));
    worker_server::join(&worker, &*net, String::new()).unwrap();

    let fs = RemoteFs::over(net, ClientLocation::OffCluster);
    let data = vec![7u8; (MB + 10) as usize];
    fs.write_file("/joined", &data, ReplicationVector::from_replication_factor(1)).unwrap();
    assert_eq!(fs.read_file("/joined").unwrap(), data);
    for lb in fs.get_file_block_locations("/joined", 0, u64::MAX).unwrap() {
        assert_eq!(lb.locations.len(), 1);
        assert_eq!(lb.locations[0].worker, WorkerId(0));
    }
}

/// A client that connected before any worker joined still writes to and
/// reads from the workers that joined later: an id its address map lacks
/// sends it back to the master's registry once. Its cluster scrape covers
/// every worker the master knows now, not the ones it knew when it
/// connected.
#[test]
fn a_connected_client_reaches_workers_that_joined_after_it() {
    let master = Arc::new(Master::new(ClusterConfig::test_cluster(0, 0, MB)).unwrap());
    let node = MasterNode::start(master, "127.0.0.1:0").unwrap();
    let fs = RemoteFs::connect(node.addr(), ClientLocation::OffCluster).unwrap();
    let recipe = ClusterConfig::test_cluster(3, 64 * MB, MB);
    let _workers: Vec<WorkerNode> = (0..3)
        .map(|id| {
            let worker = build_single_worker(&recipe, WorkerId(id), &StorageMode::InMemory);
            WorkerNode::start(worker.unwrap(), node.addr(), "127.0.0.1:0", None).unwrap()
        })
        .collect();

    let snap = fs.cluster_metrics_snapshot().unwrap();
    let scraped: BTreeSet<WorkerId> = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("worker_"))
        .filter_map(|c| c.labels.worker)
        .collect();
    assert_eq!(scraped, (0..3).map(WorkerId).collect(), "worker_* series per worker");

    let data = vec![9u8; (MB + 10) as usize];
    fs.write_file("/late", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    assert_eq!(fs.read_file("/late").unwrap(), data);
}

#[test]
fn a_join_returns_the_masters_heartbeat_interval() {
    let mut config = ClusterConfig::test_cluster(0, 0, MB);
    config.heartbeat_ms = 40;
    let master = Arc::new(Master::new(config).unwrap());
    let worker = worker();
    let net = LocalTransport::new(master, vec![Arc::clone(&worker)]);
    assert_eq!(worker_server::join(&worker, &net, String::new()).unwrap(), 40);
}
