//! Transport parity: one client, one worker dispatch and one §5 monitor
//! run over two transports, so one seeded scenario must hold — with the
//! same assertions — over both: a windowed multi-block write and read, a
//! quota set, tripped and lifted through the client, §3.1 pipeline recovery around a crashed entry worker, §4.1 checksum
//! failover past corrupt replicas, and a replication round that leaves the
//! master nothing to repair.

use std::sync::Arc;

use octopus_common::{
    ClientLocation, ClusterConfig, FsError, ReplicationVector, RpcConfig, WorkerId, MB,
};
use octopus_core::{Cluster, NetCluster, RemoteFs, Worker};
use octopus_master::{Master, TierQuota};
use octopus_storage::MemoryStore;

/// What the scenario needs from a cluster, whatever carries its requests.
trait Rig {
    fn client(&self, at: ClientLocation) -> RemoteFs;
    fn master(&self) -> Arc<Master>;
    fn workers(&self) -> Vec<Arc<Worker>>;
    /// Takes the worker's data server down without telling the master.
    fn crash(&mut self, w: WorkerId);
    fn replication_round(&self);
}

impl Rig for Cluster {
    fn client(&self, at: ClientLocation) -> RemoteFs {
        Cluster::client(self, at)
    }
    fn master(&self) -> Arc<Master> {
        Arc::clone(Cluster::master(self))
    }
    fn workers(&self) -> Vec<Arc<Worker>> {
        Cluster::workers(self).to_vec()
    }
    fn crash(&mut self, w: WorkerId) {
        self.transport().set_down(w, true);
    }
    fn replication_round(&self) {
        self.run_replication_round().unwrap();
    }
}

impl Rig for NetCluster {
    fn client(&self, at: ClientLocation) -> RemoteFs {
        // A dedicated RPC client: its own registry, fast failure detection.
        NetCluster::client(self, at).with_rpc_config(RpcConfig::fast_test())
    }
    fn master(&self) -> Arc<Master> {
        Arc::clone(NetCluster::master(self))
    }
    fn workers(&self) -> Vec<Arc<Worker>> {
        NetCluster::workers(self).to_vec()
    }
    fn crash(&mut self, w: WorkerId) {
        self.kill_worker(w.0 as usize);
    }
    fn replication_round(&self) {
        self.run_replication_round().unwrap();
    }
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

fn scenario(rig: &mut dyn Rig) {
    let rf3 = ReplicationVector::from_replication_factor(3);
    let client = rig.client(ClientLocation::OffCluster).with_io_window(4);

    // Five blocks, three replicas, four in flight: back byte for byte.
    let data = payload(4 * MB as usize + 4321, 42);
    client.write_file("/five", &data, rf3).unwrap();
    assert_eq!(client.read_file("/five").unwrap(), data);
    let blocks = client.get_file_block_locations("/five", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 5);
    assert!(blocks.iter().all(|lb| lb.locations.len() == 3));

    // A quota set through the client refuses the second memory-pinned
    // block, variant intact across the wire, and is lifted the same way.
    let pinned = ReplicationVector::msh(1, 0, 1);
    client.mkdir("/tenant").unwrap();
    client.set_quota("/tenant", TierQuota::limit_tier(0, MB)).unwrap();
    let refused = client.write_file("/tenant/big", &data[..2 * MB as usize], pinned);
    assert!(matches!(refused, Err(FsError::QuotaExceeded(_))), "{refused:?}");
    client.delete("/tenant/big", false).unwrap();
    let (quota, usage) = client.quota_usage("/tenant").unwrap();
    assert_eq!((quota, usage.iter().sum::<u64>()), (TierQuota::limit_tier(0, MB), 0));
    client.set_quota("/tenant", TierQuota::unlimited()).unwrap();
    client.write_file("/tenant/big", &data[..2 * MB as usize], pinned).unwrap();
    assert_eq!(client.quota_usage("/tenant").unwrap().1[..3], [2 * MB, 0, 2 * MB]);

    // A writer co-located with a crashed worker: the master still places
    // the first replica there, so every pipeline's entry stage is down and
    // the client re-places each block (§3.1).
    let victim = WorkerId(1);
    rig.crash(victim);
    let local = rig.client(ClientLocation::OnWorker(victim)).with_io_window(4);
    let second = payload(2 * MB as usize + 99, 43);
    local.write_file("/recovered", &second, rf3).unwrap();
    assert!(local.metrics_snapshot().counter("client_pipeline_recoveries_total") >= 1);
    assert!(local.status("/recovered").unwrap().complete);
    assert_eq!(local.read_file("/recovered").unwrap(), second);
    let recovered = local.get_file_block_locations("/recovered", 0, u64::MAX).unwrap();
    assert_eq!(recovered.len(), 3);
    for lb in &recovered {
        assert!(!lb.locations.is_empty() && lb.locations.iter().all(|l| l.worker != victim));
    }

    // Silent corruption of all holders but one of a block: the retrieval
    // order is tie-broken randomly per request, so re-read until a bad
    // replica was tried first (each round hits with probability ≥ 1/2) —
    // every read returns the right bytes regardless (§4.1).
    let workers = rig.workers();
    let holders = &recovered[0].locations;
    for bad in &holders[..holders.len() - 1] {
        workers[bad.worker.0 as usize]
            .medium(bad.media)
            .unwrap()
            .store
            .as_any()
            .downcast_ref::<MemoryStore>()
            .expect("in-memory media")
            .corrupt(recovered[0].block.id)
            .unwrap();
    }
    let mut failed_over = false;
    for _ in 0..20 {
        assert_eq!(local.read_file("/recovered").unwrap(), second);
        if local.metrics_snapshot().counter("client_checksum_failovers_total") >= 1 {
            failed_over = true;
            break;
        }
    }
    assert!(failed_over, "a corrupt replica read first must count a checksum failover");

    // The master learns of the death; the monitor re-replicates what the
    // victim held until the scan has nothing left to schedule (§5).
    let master = rig.master();
    master.kill_worker(victim);
    for _ in 0..4 {
        rig.replication_round();
    }
    assert!(master.replication_scan().is_empty(), "replication must converge");
    assert_eq!(client.read_file("/five").unwrap(), data);
    for lb in client.get_file_block_locations("/five", 0, u64::MAX).unwrap() {
        assert_eq!(lb.locations.len(), 3);
        assert!(lb.locations.iter().all(|l| l.worker != victim));
    }
}

fn config() -> ClusterConfig {
    ClusterConfig::test_cluster(5, 64 * MB, MB)
}

#[test]
fn scenario_holds_over_the_local_transport() {
    scenario(&mut Cluster::start(config()).unwrap());
}

#[test]
fn scenario_holds_over_tcp() {
    scenario(&mut NetCluster::start(config()).unwrap());
}
