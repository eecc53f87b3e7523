//! Tests of positional reads ([`octopus_core::RemoteFs::read_at`]) and append.

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, MB};
use octopus_core::Cluster;

fn setup(len: usize) -> (Cluster, octopus_core::RemoteFs, Vec<u8>) {
    let cluster = Cluster::start(ClusterConfig::test_cluster(5, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, 42)
    else {
        unreachable!()
    };
    let data = b.to_vec();
    client.write_file("/f", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    (cluster, client, data)
}

/// A file read front to back in small pieces, each its own `read_at`:
/// the pieces straddle block boundaries, and the read after the last byte
/// returns 0.
#[test]
fn sequential_small_reads() {
    let (_c, client, data) = setup(2 * MB as usize + 500);
    let mut out = Vec::new();
    let mut buf = vec![0u8; 64 * 1024 + 7];
    loop {
        let n = client.read_at("/f", out.len() as u64, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    assert_eq!(out, data);
}

#[test]
fn read_at_spans_blocks_and_stops_at_the_end() {
    let (_c, client, data) = setup(3 * MB as usize);
    let len = data.len() as u64;

    // Mid-file, spanning a block boundary.
    let pos = MB - 100;
    let mut buf = vec![0u8; 300];
    assert_eq!(client.read_at("/f", pos, &mut buf).unwrap(), 300);
    assert_eq!(buf, &data[pos as usize..pos as usize + 300]);

    // An earlier offset re-reads earlier data.
    let mut buf = vec![0u8; 50];
    assert_eq!(client.read_at("/f", 10, &mut buf).unwrap(), 50);
    assert_eq!(buf, &data[10..60]);

    // A read that runs past the end returns the bytes up to it.
    let mut big = vec![0u8; 100];
    assert_eq!(client.read_at("/f", len - 10, &mut big).unwrap(), 10);
    assert_eq!(&big[..10], &data[data.len() - 10..]);

    // At the end, past it and at the largest offset: 0, the buffer untouched.
    for offset in [len, len + 1, len + MB, u64::MAX] {
        let mut buf = vec![7u8; 50];
        assert_eq!(client.read_at("/f", offset, &mut buf).unwrap(), 0, "offset {offset}");
        assert_eq!(buf, vec![7u8; 50]);
    }
    // An empty buffer reads nothing, wherever it points.
    assert_eq!(client.read_at("/f", MB + 3, &mut []).unwrap(), 0);
}

#[test]
fn read_at_refuses_a_directory_and_a_missing_path() {
    let (_c, client, _) = setup(1024);
    client.mkdir("/dir").unwrap();
    // Neither read sends a `Status`: `GetBlockLocations` refuses for both.
    let mut buf = [0u8; 16];
    assert!(matches!(client.read_at("/dir", 0, &mut buf), Err(FsError::IsADirectory(_))));
    assert!(matches!(client.read_at("/missing", 0, &mut buf), Err(FsError::NotFound(_))));
    assert!(matches!(client.read_file("/dir"), Err(FsError::IsADirectory(_))));
    assert!(matches!(client.read_file("/missing"), Err(FsError::NotFound(_))));
}

#[test]
fn append_extends_file() {
    let (_c, client, data) = setup(MB as usize + 123);
    let extra: Vec<u8> = (0..5000u32).map(|i| (i % 97) as u8).collect();
    let mut w = client.append("/f").unwrap();
    w.write(&extra).unwrap();
    w.close().unwrap();

    let mut expected = data.clone();
    expected.extend_from_slice(&extra);
    assert_eq!(client.read_file("/f").unwrap(), expected);
    let st = client.status("/f").unwrap();
    assert!(st.complete);
    assert_eq!(st.len, expected.len() as u64);
    // The append started a new block (the old final block is immutable).
    let blocks = client.get_file_block_locations("/f", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 3); // 1 MB + 123 B + 5000 B
}

#[test]
fn append_respects_leases() {
    let (cluster, alice, _) = setup(1024);
    let bob = cluster.client(ClientLocation::OffCluster);
    let _w = alice.append("/f").unwrap();
    // While Alice holds the append lease, Bob cannot also append.
    assert!(matches!(bob.append("/f"), Err(FsError::LeaseConflict(_))));
    // Nor can anyone append to a file that is already open.
    assert!(matches!(alice.append("/f"), Err(FsError::LeaseConflict(_))));
}

#[test]
fn append_to_open_file_rejected() {
    let cluster = Cluster::start(ClusterConfig::test_cluster(3, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let _w = client.create("/open", ReplicationVector::from_replication_factor(2), None).unwrap();
    assert!(client.append("/open").is_err());
}
