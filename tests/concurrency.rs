//! Concurrency stress tests: many threads driving one in-process cluster.
//! The master serializes metadata behind its namespace lock (as the HDFS
//! NameNode does); workers serve data-path operations concurrently.

use std::thread;

use octopusfs::{ClientLocation, Cluster, ClusterConfig, ReplicationVector, WorkerId};

const MB: u64 = 1 << 20;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopusfs::common::BlockData::Real(b) =
        octopusfs::common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

#[test]
fn parallel_writers_on_distinct_files() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 128 * MB, MB)).unwrap();
    thread::scope(|s| {
        for t in 0..8u64 {
            let client = cluster.client(ClientLocation::OnWorker(WorkerId((t % 6) as u32)));
            s.spawn(move || {
                for i in 0..4 {
                    let path = format!("/w{t}/f{i}");
                    client.mkdir(&format!("/w{t}")).unwrap();
                    let data = payload((MB / 2) as usize, t * 100 + i);
                    client
                        .write_file(&path, &data, ReplicationVector::from_replication_factor(2))
                        .unwrap();
                    assert_eq!(client.read_file(&path).unwrap(), data);
                }
            });
        }
    });
    let (files, _) = cluster.master().counts();
    assert_eq!(files, 32);
}

#[test]
fn parallel_readers_on_one_file() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 128 * MB, MB)).unwrap();
    let writer = cluster.client(ClientLocation::OffCluster);
    let data = payload(3 * MB as usize, 7);
    writer.write_file("/shared", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    thread::scope(|s| {
        for t in 0..12u32 {
            let client = cluster.client(ClientLocation::OnWorker(WorkerId(t % 6)));
            let expect = data.clone();
            s.spawn(move || {
                for _ in 0..3 {
                    assert_eq!(client.read_file("/shared").unwrap(), expect);
                }
            });
        }
    });
}

#[test]
fn exactly_one_creator_wins_a_contended_path() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(4, 64 * MB, MB)).unwrap();
    let successes = std::sync::atomic::AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..8 {
            let client = cluster.client(ClientLocation::OffCluster);
            let successes = &successes;
            s.spawn(move || {
                if client
                    .write_file(
                        "/contended",
                        &payload(1024, 1),
                        ReplicationVector::from_replication_factor(2),
                    )
                    .is_ok()
                {
                    successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(successes.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(
        cluster.client(ClientLocation::OffCluster).read_file("/contended").unwrap().len(),
        1024
    );
}

#[test]
fn reads_race_with_replication_repair() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 128 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(2 * MB as usize, 9);
    client.write_file("/race", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let victim = client.get_file_block_locations("/race", 0, u64::MAX).unwrap()[0].locations[0];
    cluster.kill_worker(victim.worker);

    thread::scope(|s| {
        // Readers hammer while the monitor repairs.
        for t in 0..6u32 {
            let c = cluster.client(ClientLocation::OnWorker(WorkerId(t % 6)));
            let expect = data.clone();
            s.spawn(move || {
                for _ in 0..5 {
                    assert_eq!(c.read_file("/race").unwrap(), expect);
                }
            });
        }
        s.spawn(|| {
            for _ in 0..3 {
                cluster.run_replication_round().unwrap();
            }
        });
    });

    let blocks = client.get_file_block_locations("/race", 0, u64::MAX).unwrap();
    for b in &blocks {
        assert_eq!(b.locations.len(), 3, "repair completed under read load");
    }
}

#[test]
fn concurrent_namespace_churn_stays_consistent() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(4, 128 * MB, MB)).unwrap();
    thread::scope(|s| {
        for t in 0..6u64 {
            let client = cluster.client(ClientLocation::OffCluster);
            s.spawn(move || {
                let dir = format!("/churn{t}");
                client.mkdir(&dir).unwrap();
                for i in 0..10 {
                    let path = format!("{dir}/f{i}");
                    client
                        .write_file(
                            &path,
                            &payload(4096, i),
                            ReplicationVector::from_replication_factor(1),
                        )
                        .unwrap();
                    if i % 2 == 0 {
                        client.rename(&path, &format!("{dir}/g{i}")).unwrap();
                    }
                    if i % 3 == 0 {
                        client
                            .delete(
                                &format!(
                                    "{dir}/{}",
                                    if i % 2 == 0 { format!("g{i}") } else { format!("f{i}") }
                                ),
                                false,
                            )
                            .unwrap();
                    }
                }
            });
        }
    });
    // The namespace is consistent: every listed file reads fully.
    let client = cluster.client(ClientLocation::OffCluster);
    for t in 0..6 {
        for e in client.list(&format!("/churn{t}")).unwrap() {
            let data = client.read_file(&format!("/churn{t}/{}", e.name)).unwrap();
            assert_eq!(data.len() as u64, e.len);
        }
    }
}
