//! End-to-end concurrency test of the master over real RPC (DESIGN.md
//! §11): multiple client connections drive colliding metadata traffic —
//! including data writes, renames between directories, and deletes racing
//! listings — against a live [`NetCluster`], then the final namespace is
//! audited for consistency and data integrity through the same public
//! surface.

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, MB};
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

#[test]
fn concurrent_metadata_over_rpc() {
    let cluster = NetCluster::start(config()).unwrap();
    let setup = cluster.client(ClientLocation::OffCluster);
    for d in ["/a", "/b", "/c"] {
        setup.mkdir(d).unwrap();
    }

    let threads = 4usize;
    let files_per_thread = 6usize;
    std::thread::scope(|s| {
        for t in 0..threads {
            let client = cluster.client(ClientLocation::OffCluster);
            s.spawn(move || {
                let data = payload(MB as usize / 4, t as u64);
                for i in 0..files_per_thread {
                    // Write under /a, bounce a→b→c via renames,
                    // interleaved with list/stat/delete races against
                    // the other threads' traffic.
                    let name = format!("t{t}f{i}");
                    client.write_file(&format!("/a/{name}"), &data, rf(2)).unwrap();
                    client.rename(&format!("/a/{name}"), &format!("/b/{name}")).unwrap();
                    let _ = client.list("/b");
                    client.rename(&format!("/b/{name}"), &format!("/c/{name}")).unwrap();
                    let st = client.status(&format!("/c/{name}")).unwrap();
                    assert_eq!(st.len, MB / 4, "length changed across renames");
                    if i % 2 == 0 {
                        client.delete(&format!("/c/{name}"), false).unwrap();
                    }
                    let _ = client.list("/a");
                }
            });
        }
    });

    // Survivors: odd-indexed files per thread, all at /c, readable with
    // intact contents; /a and /b drained back to empty.
    let client = cluster.client(ClientLocation::OffCluster);
    assert!(client.list("/a").unwrap().is_empty(), "/a not drained");
    assert!(client.list("/b").unwrap().is_empty(), "/b not drained");
    let listed = client.list("/c").unwrap();
    assert_eq!(listed.len(), threads * files_per_thread / 2, "survivor count wrong");
    for t in 0..threads {
        let expect = payload(MB as usize / 4, t as u64);
        for i in (1..files_per_thread).step_by(2) {
            let got = client.read_file(&format!("/c/t{t}f{i}")).unwrap();
            assert_eq!(got, expect, "data corrupted across renames (t{t}f{i})");
        }
    }

    // The master's own accounting agrees with the walk.
    let status = client.cluster_status().unwrap();
    assert_eq!(status.files, (threads * files_per_thread / 2) as u64, "file count diverged");
}
