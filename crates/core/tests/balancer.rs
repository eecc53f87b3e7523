//! Tests of the MOOP-driven data balancer.

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, StorageTier, WorkerId, MB};
use octopus_core::Cluster;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

/// Per-HDD-media used fraction, sorted descending.
fn hdd_fracs(cluster: &Cluster) -> Vec<f64> {
    let snap = cluster.master().snapshot();
    let mut fracs: Vec<f64> = snap
        .media
        .iter()
        .filter(|m| m.tier == StorageTier::Hdd.id())
        .map(|m| (m.capacity - m.remaining) as f64 / m.capacity as f64)
        .collect();
    fracs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    fracs
}

fn spread(fracs: &[f64]) -> f64 {
    fracs.first().unwrap() - fracs.last().unwrap()
}

/// A cluster skewed by twelve single-replica files written from worker 0:
/// they all land on worker 0's HDD (writer-local first replica).
fn skewed_cluster() -> Cluster {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(0)));
    for i in 0..12 {
        client
            .write_file(
                &format!("/skew{i}"),
                &payload(MB as usize, i),
                ReplicationVector::msh(0, 0, 1),
            )
            .unwrap();
    }
    cluster.pump_heartbeats();
    cluster
}

#[test]
fn balancer_reduces_skew() {
    let cluster = skewed_cluster();
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(0)));
    let before = hdd_fracs(&cluster);
    assert!(spread(&before) > 0.10, "setup must be skewed, spread {:.3}", spread(&before));

    // Balance until converged.
    for _ in 0..20 {
        if cluster.run_balancer_round(0.05, 4).unwrap() == 0 {
            break;
        }
    }
    cluster.pump_heartbeats();
    let after = hdd_fracs(&cluster);
    assert!(
        spread(&after) < spread(&before) / 2.0,
        "spread {:.3} -> {:.3}",
        spread(&before),
        spread(&after)
    );

    // Every file still reads correctly with exactly one replica.
    for i in 0..12 {
        let path = format!("/skew{i}");
        assert_eq!(client.read_file(&path).unwrap(), payload(MB as usize, i));
        let blocks = cluster
            .master()
            .get_file_block_locations(&path, 0, u64::MAX, ClientLocation::OffCluster)
            .unwrap();
        assert_eq!(blocks[0].locations.len(), 1);
    }
}

/// Two masters with the same history plan the same moves: the balancer
/// takes the lowest eligible block id, not the block map's hash order.
/// A planned move stays pending, so each round moves on to the next block.
#[test]
fn identical_masters_plan_identical_moves() {
    let plans: Vec<Vec<_>> = (0..2)
        .map(|_| {
            let cluster = skewed_cluster();
            (0..4).flat_map(|_| cluster.master().balancer_scan(0.05, 4)).collect()
        })
        .collect();
    assert!(plans[0].len() >= 4, "{:?}", plans[0]);
    assert_eq!(plans[0], plans[1]);
}

#[test]
fn balanced_cluster_is_a_noop() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    for i in 0..6 {
        client
            .write_file(
                &format!("/even{i}"),
                &payload(MB as usize, i),
                ReplicationVector::from_replication_factor(3),
            )
            .unwrap();
    }
    cluster.pump_heartbeats();
    assert_eq!(cluster.run_balancer_round(0.20, 8).unwrap(), 0);
}
