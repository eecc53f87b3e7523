//! End-to-end tests of write leases (single-writer semantics, expiry
//! recovery) and master safe mode after restart.

use std::sync::Arc;

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, MB};
use octopus_core::net::proto::MasterRequest;
use octopus_core::net::{worker_server, LocalTransport, Transport};
use octopus_core::{Cluster, RemoteFs};
use octopus_master::{ClientId, EditLog, Master};

fn config() -> ClusterConfig {
    ClusterConfig::test_cluster(4, 64 * MB, MB)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

#[test]
fn second_client_cannot_write_an_open_file() {
    let cluster = Cluster::start(config()).unwrap();
    let alice = cluster.client(ClientLocation::OffCluster);
    let bob = cluster.client(ClientLocation::OffCluster);

    let mut w =
        alice.create("/shared", ReplicationVector::from_replication_factor(2), None).unwrap();
    w.write(&payload(1024, 1)).unwrap();

    // Bob cannot recreate, append to, or close Alice's open file.
    let err = bob.create("/shared", ReplicationVector::from_replication_factor(2), None);
    assert!(matches!(err, Err(FsError::AlreadyExists(_)) | Err(FsError::LeaseConflict(_))));
    let err = cluster.master().add_block_excluding(
        "/shared",
        1024,
        ClientLocation::OffCluster,
        bob.id(),
        &[],
    );
    assert!(matches!(err, Err(FsError::LeaseConflict(_))), "got {err:?}");

    // Alice closes; the lease is released and the file is readable.
    w.close().unwrap();
    assert_eq!(bob.read_file("/shared").unwrap().len(), 1024);
}

/// The holder is taken off the wire, so no id skips the lease: a raw
/// `AddBlock` or `CompleteFile` sent with holder 0 to a file another
/// client writes is refused like any other holder's.
#[test]
fn holder_zero_off_the_wire_cannot_write_another_clients_file() {
    let cluster = Cluster::start(config()).unwrap();
    let alice = cluster.client(ClientLocation::OffCluster);
    let mut w = alice.create("/held", ReplicationVector::from_replication_factor(2), None).unwrap();
    w.write(&payload(1024, 3)).unwrap();

    let net = cluster.transport();
    let off = ClientLocation::OffCluster;
    let add = net.call_master(MasterRequest::AddBlock("/held".into(), 1024, off, 0, Vec::new()));
    assert!(matches!(add, Err(FsError::LeaseConflict(_))), "got {add:?}");
    let close = net.call_master(MasterRequest::CompleteFile("/held".into(), 0));
    assert!(matches!(close, Err(FsError::LeaseConflict(_))), "got {close:?}");

    // The holder's write is untouched by the refused requests.
    w.close().unwrap();
    assert_eq!(alice.read_file("/held").unwrap(), payload(1024, 3));
}

#[test]
fn lease_expiry_recovers_abandoned_file() {
    let cluster = Cluster::start(config()).unwrap();
    let alice = cluster.client(ClientLocation::OffCluster);
    let mut w =
        alice.create("/abandoned", ReplicationVector::from_replication_factor(2), None).unwrap();
    w.write(&payload(MB as usize, 2)).unwrap();
    // Alice vanishes without closing. (Leak the writer so Drop's
    // auto-close does not run.)
    std::mem::forget(w);

    assert!(!cluster.master().status("/abandoned").unwrap().complete);
    // Lease duration is 20 heartbeats (100 ms each) = 2 s of cluster time;
    // advance well past it without marking workers dead.
    for _ in 0..25 {
        cluster.pump_heartbeats();
    }

    let st = cluster.master().status("/abandoned").unwrap();
    assert!(st.complete, "lease recovery finalized the file");
    assert_eq!(st.len, MB);
    // Another client can now take over the path's data.
    let bob = cluster.client(ClientLocation::OffCluster);
    assert_eq!(bob.read_file("/abandoned").unwrap().len(), MB as usize);
}

#[test]
fn restored_master_starts_in_safe_mode_until_reports_arrive() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client
        .write_file("/sm", &payload(MB as usize, 3), ReplicationVector::from_replication_factor(2))
        .unwrap();

    let image = cluster.master().checkpoint();
    let log = EditLog::from_bytes(image).unwrap();
    let restored = Master::with_log(cluster.master().config().clone(), log).unwrap();
    assert!(restored.in_safe_mode());

    // Mutations are rejected in safe mode; reads of metadata still work.
    assert!(matches!(restored.mkdir("/new"), Err(FsError::NotReady(_))));
    assert!(matches!(
        restored.create_file_as(
            "/new2",
            ReplicationVector::from_replication_factor(1),
            None,
            ClientId(1)
        ),
        Err(FsError::NotReady(_))
    ));
    assert!(matches!(
        restored.set_replication("/sm", ReplicationVector::from_replication_factor(3)),
        Err(FsError::NotReady(_))
    ));
    assert!(matches!(restored.delete("/sm", false), Err(FsError::NotReady(_))));
    assert!(restored.status("/sm").is_ok());
    assert!(restored.replication_scan().is_empty(), "no repair storms in safe mode");

    // Workers report their blocks: safe mode exits automatically.
    for w in cluster.workers() {
        restored.register_worker(w.id(), w.rack(), w.net_bps());
        let (stats, conns) = w.heartbeat_stats();
        restored.heartbeat(w.id(), stats, conns, &[]).unwrap();
        restored.block_report(w.id(), &w.block_report()).unwrap();
    }
    assert!(!restored.in_safe_mode());
    restored.mkdir("/new").unwrap();
}

/// A restarted master has forgotten every worker and answers their
/// heartbeats `UnknownWorker`: one beat joins each worker again, and its
/// block report alone takes the master out of safe mode.
#[test]
fn one_beat_rejoins_a_master_that_forgot_the_worker() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(3 * MB as usize, 5);
    client.write_file("/rejoin", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let blocks = client.get_file_block_locations("/rejoin", 0, u64::MAX).unwrap();

    let log = EditLog::from_bytes(cluster.master().checkpoint()).unwrap();
    let restored = Arc::new(Master::with_log(cluster.master().config().clone(), log).unwrap());
    let net = LocalTransport::new(Arc::clone(&restored), cluster.workers().to_vec());
    assert!(restored.cluster_status(0).workers.is_empty());
    for w in cluster.workers() {
        // Beat 1 of the liveness loop carries no block report of its own.
        worker_server::beat(w, &net, 1, "");
    }

    assert_eq!(restored.cluster_status(0).workers.len(), cluster.workers().len());
    assert!(!restored.in_safe_mode(), "the rejoined workers' reports confirm every block");
    for lb in &blocks {
        let mut known = restored.block_locations(lb.block.id);
        known.sort_by_key(|l| (l.worker, l.media));
        let mut before = lb.locations.clone();
        before.sort_by_key(|l| (l.worker, l.media));
        assert_eq!(known, before, "block {}", lb.block.id);
    }
    let rejoined = RemoteFs::over(Arc::new(net), ClientLocation::OffCluster);
    assert_eq!(rejoined.read_file("/rejoin").unwrap(), data);
}

/// A put killed between `AddBlock` and its first stored replica leaves a
/// block no worker holds. Safe mode does not wait for it: one beat per
/// worker takes the replayed master out, and it takes writes again.
#[test]
fn a_block_a_killed_put_never_stored_does_not_hold_safe_mode() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(3 * MB as usize, 6);
    client.write_file("/stored", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let master = cluster.master();
    let rv = ReplicationVector::from_replication_factor(2);
    master.create_file_as("/torn", rv, None, client.id()).unwrap();
    master.add_block_excluding("/torn", MB, ClientLocation::OffCluster, client.id(), &[]).unwrap();

    let mut log = EditLog::in_memory();
    log.append_batch(master.edit_ops_since(0).unwrap()).unwrap();
    let restored = Arc::new(Master::with_log(master.config().clone(), log).unwrap());
    assert!(restored.in_safe_mode(), "three stored blocks are awaited");
    let net = LocalTransport::new(Arc::clone(&restored), cluster.workers().to_vec());
    for w in cluster.workers() {
        worker_server::beat(w, &net, 1, "");
    }

    assert!(!restored.in_safe_mode(), "the never-stored block held safe mode");
    restored.mkdir("/after").unwrap();
    let rejoined = RemoteFs::over(Arc::new(net), ClientLocation::OffCluster);
    assert_eq!(rejoined.read_file("/stored").unwrap(), data);
}

#[test]
fn manual_safe_mode_exit() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client
        .write_file("/x", &payload(1024, 4), ReplicationVector::from_replication_factor(2))
        .unwrap();
    let restored = Master::with_log(
        cluster.master().config().clone(),
        EditLog::from_bytes(cluster.master().checkpoint()).unwrap(),
    )
    .unwrap();
    assert!(restored.in_safe_mode());
    restored.leave_safe_mode();
    assert!(!restored.in_safe_mode());
}

#[test]
fn fresh_master_never_enters_safe_mode() {
    let cluster = Cluster::start(config()).unwrap();
    assert!(!cluster.master().in_safe_mode());
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/ok").unwrap();
}

#[test]
fn same_client_can_reopen_after_close_and_delete() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client
        .write_file("/re", &payload(512, 5), ReplicationVector::from_replication_factor(2))
        .unwrap();
    client.delete("/re", false).unwrap();
    client
        .write_file("/re", &payload(512, 6), ReplicationVector::from_replication_factor(2))
        .unwrap();
    assert_eq!(client.read_file("/re").unwrap(), payload(512, 6));
}

#[test]
fn rename_transfers_lease() {
    let cluster = Cluster::start(config()).unwrap();
    let alice = cluster.client(ClientLocation::OffCluster);
    let bob = cluster.client(ClientLocation::OffCluster);
    let mut w =
        alice.create("/moving", ReplicationVector::from_replication_factor(2), None).unwrap();
    w.write(&payload(100, 7)).unwrap();
    cluster.master().rename("/moving", "/moved").unwrap();
    // Bob still cannot touch it under the new name.
    let err = cluster.master().add_block_excluding(
        "/moved",
        100,
        ClientLocation::OffCluster,
        bob.id(),
        &[],
    );
    assert!(matches!(err, Err(FsError::LeaseConflict(_))));
    // NOTE: Alice's writer still targets the old path; closing it now
    // fails cleanly (path gone), which is the HDFS behaviour too.
    std::mem::forget(w);
}
