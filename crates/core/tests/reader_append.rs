//! Tests of positional reads ([`octopus_core::FileReader`]) and append.

use std::sync::{Arc, Mutex};

use octopus_common::metrics::MetricsRegistry;
use octopus_common::trace::TraceCollector;
use octopus_common::{
    ClientLocation, ClusterConfig, FsError, ReplicationVector, Result, WorkerId, MB,
};
use octopus_core::net::proto::{MasterRequest, MasterResponse, WorkerRequest, WorkerResponse};
use octopus_core::net::Transport;
use octopus_core::{Cluster, RemoteFs};

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

#[test]
fn sequential_small_reads() {
    let (_c, client, data) = setup(2 * MB as usize + 500);
    let mut r = client.open("/f").unwrap();
    assert_eq!(r.len(), data.len() as u64);
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = r.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    assert_eq!(out, data);
    assert_eq!(r.position(), data.len() as u64);
}

#[test]
fn seek_and_read_exact() {
    let (_c, client, data) = setup(3 * MB as usize);
    let mut r = client.open("/f").unwrap();

    // Mid-file, spanning a block boundary.
    let pos = MB - 100;
    r.seek(pos);
    let mut buf = vec![0u8; 300];
    r.read_exact(&mut buf).unwrap();
    assert_eq!(buf, &data[pos as usize..pos as usize + 300]);

    // Backwards seek re-reads earlier data.
    r.seek(10);
    let mut buf = vec![0u8; 50];
    r.read_exact(&mut buf).unwrap();
    assert_eq!(buf, &data[10..60]);

    // Seeking past EOF clamps; read returns 0.
    r.seek(u64::MAX);
    assert_eq!(r.position(), data.len() as u64);
    assert_eq!(r.read(&mut buf).unwrap(), 0);

    // read_exact past EOF errors.
    r.seek(data.len() as u64 - 10);
    let mut big = vec![0u8; 100];
    assert!(r.read_exact(&mut big).is_err());
}

#[test]
fn open_directory_rejected() {
    let (_c, client, _) = setup(1024);
    client.mkdir("/dir").unwrap();
    assert!(matches!(client.open("/dir"), Err(FsError::IsADirectory(_))));
    // `read_file` sends no `Status`: `GetBlockLocations` refuses for it.
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

/// A transport that runs `after_status` once, right after the first
/// `Status` reply: what another client does between the two RPCs of a
/// `read_range` (`Status`, then `GetBlockLocations`).
struct ChangeAfterStatus {
    inner: Arc<dyn Transport>,
    after_status: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Transport for ChangeAfterStatus {
    fn call_master(&self, req: MasterRequest) -> Result<MasterResponse> {
        let is_status = matches!(req, MasterRequest::Status(_));
        let reply = self.inner.call_master(req);
        if is_status {
            if let Some(change) = self.after_status.lock().unwrap().take() {
                change();
            }
        }
        reply
    }
    fn call_worker(&self, to: WorkerId, req: WorkerRequest) -> Result<WorkerResponse> {
        self.inner.call_worker(to, req)
    }
    fn workers(&self) -> Vec<WorkerId> {
        self.inner.workers()
    }
    fn metrics(&self) -> &MetricsRegistry {
        self.inner.metrics()
    }
    fn trace(&self) -> &TraceCollector {
        self.inner.trace()
    }
}

/// `read_range` of all of `/f` with `change` applied between its two RPCs.
fn read_with_change_after_status(
    cluster: &Cluster,
    change: impl FnOnce(RemoteFs) + Send + 'static,
) -> Result<Vec<u8>> {
    let other = cluster.client(ClientLocation::OffCluster);
    let net = Arc::new(ChangeAfterStatus {
        inner: cluster.transport().clone(),
        after_status: Mutex::new(Some(Box::new(move || change(other)))),
    });
    RemoteFs::over(net, ClientLocation::OffCluster).with_io_window(4).read_range("/f", 0, u64::MAX)
}

/// A range read is clipped at the length its `Status` reported, and laid
/// out from the located blocks: a file that grew in between reads up to
/// that length, one that shrank reads at its own length — never a panic,
/// never an error, never zero padding.
#[test]
fn read_range_lays_out_from_the_located_blocks_not_the_earlier_status() {
    let (cluster, _client, data) = setup(2 * MB as usize + 100);

    let extra: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8 + 1).collect();
    let grown = read_with_change_after_status(&cluster, move |other| {
        let mut w = other.append("/f").unwrap();
        w.write(&extra).unwrap();
        w.close().unwrap();
    })
    .unwrap();
    assert_eq!(grown, data, "the range ends at the length Status reported");

    let short: Vec<u8> = data[..MB as usize + 7].to_vec();
    let rewritten = short.clone();
    let shrunk = read_with_change_after_status(&cluster, move |other| {
        other.delete("/f", false).unwrap();
        other.write_file("/f", &rewritten, ReplicationVector::from_replication_factor(2)).unwrap();
    })
    .unwrap();
    assert_eq!(shrunk, short, "the re-created file is read at its own length, no zero tail");
}
