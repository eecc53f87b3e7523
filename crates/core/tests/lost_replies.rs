//! Lost replies on the in-process cluster. `LocalTransport` runs the
//! retry loop TCP runs, and can lose a reply after its callee applied the
//! request, so the lost-ack paths of §3.1 pipeline recovery and the §5
//! monitor run here on a logical clock: an idempotent request is resent
//! once, a `WriteBlock` is not and the client re-places its block. Every
//! test also checks the block map's two oracles: the bytes reserved are
//! the walk of its pending replicas, and no replica sits on a dead worker.

use std::collections::HashMap;

use octopus_common::metrics::Labels;
use octopus_common::rng::splitmix64;
use octopus_common::{
    BlockData, ClientLocation, ClusterConfig, MediaId, ReplicationVector, WorkerId, MB,
};
use octopus_core::net::{monitor, FaultAction, Transport};
use octopus_core::{Cluster, RemoteFs};
use octopus_master::Master;

fn config(workers: u32, block_size: u64) -> ClusterConfig {
    ClusterConfig::test_cluster(workers, 64 * MB, block_size)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let BlockData::Real(b) = BlockData::generate_real(len, seed) else { unreachable!() };
    b.to_vec()
}

fn rf(n: u8) -> ReplicationVector {
    ReplicationVector::from_replication_factor(n)
}

/// Loses the reply to the next `request` that reaches `to` (the master
/// for `None`).
fn lose(cluster: &Cluster, to: Option<WorkerId>, request: &'static str) {
    cluster.transport().inject(to, request, FaultAction::DropConnection);
}

/// Resends counted by the transport for one request type.
fn retries(cluster: &Cluster, request: &'static str) -> u64 {
    cluster.transport().metrics().counter("rpc_client_retries_total", Labels::req(request)).get()
}

/// Each live medium's free bytes as the master counts them: its last
/// heartbeat's `remaining` less what confirms charged since, with the
/// bytes pending there added back.
fn free(master: &Master) -> HashMap<MediaId, u64> {
    let snap = master.snapshot();
    snap.media.iter().map(|m| (m.media, m.remaining + master.scheduled_bytes(m.media))).collect()
}

/// Since `before` was read, each live medium was charged exactly `path`'s
/// confirmed replicas there: once each, whatever was resent or re-placed.
fn check_charged(master: &Master, before: &HashMap<MediaId, u64>, path: &str) {
    let mut charged = HashMap::new();
    let located = master.get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster);
    for lb in located.unwrap() {
        for l in &lb.locations {
            *charged.entry(l.media).or_default() += lb.block.len;
        }
    }
    for (media, left) in free(master) {
        let want = charged.get(&media).map_or(0, |b| *b);
        assert_eq!(before[&media] - left, want, "{path}: {media} charged");
    }
}

/// The block map's oracles: the bytes the master reports reserved are the
/// sum of `block.len` over every pending location, and every location,
/// confirmed or pending, is on a worker the master holds live. Block
/// lengths come from the namespace, which must own every mapped block.
fn check_map(master: &Master) {
    let mut lens = HashMap::new();
    for entry in master.list("/").unwrap() {
        let path = format!("/{}", entry.name);
        let located =
            master.get_file_block_locations(&path, 0, u64::MAX, ClientLocation::OffCluster);
        for lb in located.unwrap() {
            lens.insert(lb.block.id, lb.block.len);
        }
    }
    let status = master.cluster_status(0);
    let live: Vec<WorkerId> = status.workers.iter().filter(|w| w.live).map(|w| w.worker).collect();
    let mut walk = 0;
    for (id, _) in master.block_inventory() {
        let pending = master.pending_locations(id);
        let len = lens.get(&id).unwrap_or_else(|| panic!("block {id} has no file"));
        walk += len * pending.len() as u64;
        for l in master.block_locations(id).iter().chain(&pending) {
            assert!(live.contains(&l.worker), "block {id} has a replica on dead {}", l.worker);
        }
    }
    assert_eq!(status.scheduled_bytes, walk, "reserved bytes vs the pending walk");
}

fn only_block(client: &RemoteFs, path: &str) -> octopus_common::LocatedBlock {
    let mut blocks = client.get_file_block_locations(path, 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 1);
    blocks.remove(0)
}

/// A head's `CommitReplica` is idempotent: its lost reply costs one
/// resend, and the resend charges no medium a second time.
#[test]
fn a_lost_commit_reply_is_resent_once_and_charges_each_medium_once() {
    let cluster = Cluster::start(config(4, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let before = free(cluster.master());
    lose(&cluster, None, "CommitReplica");
    let data = payload(MB as usize, 1);
    client.write_file("/commit", &data, rf(3)).unwrap();
    assert_eq!(retries(&cluster, "CommitReplica"), 1);

    let lb = only_block(&client, "/commit");
    assert_eq!(lb.locations.len(), 3, "confirmed on its three stages");
    assert!(cluster.master().pending_locations(lb.block.id).is_empty());
    check_charged(cluster.master(), &before, "/commit");
    assert_eq!(client.read_file("/commit").unwrap(), data);
    check_map(cluster.master());
}

/// A §5 `Replicate` is idempotent: its lost reply is resent, the target
/// finds the same bytes already stored, and the copy counts as landed —
/// the block reaches its new vector in one round.
#[test]
fn a_lost_copy_reply_is_resent_and_the_copy_counts_as_landed() {
    let cluster = Cluster::start(config(3, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 2);
    client.write_file("/copy", &data, rf(2)).unwrap();
    let holders: Vec<WorkerId> =
        only_block(&client, "/copy").locations.iter().map(|l| l.worker).collect();
    let target = (0..3).map(WorkerId).find(|w| !holders.contains(w)).unwrap();
    client.set_replication("/copy", rf(3)).unwrap();

    lose(&cluster, Some(target), "Replicate");
    let outcome = monitor::run_replication_round(cluster.master(), &**cluster.transport()).unwrap();
    assert_eq!((outcome.copies_ok, outcome.copies_failed), (1, 0), "{outcome:?}");
    assert_eq!(retries(&cluster, "Replicate"), 1);

    let lb = only_block(&client, "/copy");
    assert_eq!(lb.locations.len(), 3, "the new vector in one round");
    let copy = lb.locations.iter().find(|l| l.worker == target).expect("the copy is confirmed");
    assert_eq!(cluster.master().scheduled_bytes(copy.media), 0);
    assert!(cluster.master().pending_locations(lb.block.id).is_empty());
    assert_eq!(client.read_file("/copy").unwrap(), data);
    check_map(cluster.master());
}

/// A `WriteBlock` is not idempotent: its lost reply is not resent. The
/// client re-places the block (§3.1 `ReassignBlock`) and the file reads
/// back; the first pipeline's replicas stay confirmed and charged once, as
/// surplus, and one block-report round and one replication round leave
/// exactly the vector's replicas.
#[test]
fn a_lost_write_reply_is_not_resent_and_the_block_is_placed_again() {
    let cluster = Cluster::start(config(4, MB)).unwrap();
    // A co-located writer: the master puts the first replica, the
    // pipeline's head, on the writer's worker.
    let head = WorkerId(0);
    let client = cluster.client(ClientLocation::OnWorker(head));
    let before = free(cluster.master());
    lose(&cluster, Some(head), "WriteBlock");
    let data = payload(MB as usize, 3);
    client.write_file("/write", &data, rf(3)).unwrap();
    assert_eq!(retries(&cluster, "WriteBlock"), 0);
    check_charged(cluster.master(), &before, "/write");
    let snap = cluster.transport().metrics().snapshot();
    assert_eq!(snap.counter("client_pipeline_recoveries_total"), 1);
    let applied = cluster
        .worker(head)
        .unwrap()
        .metrics()
        .snapshot()
        .counter_where("worker_requests_total", |l| {
            l.request_type.as_deref() == Some("WriteBlock")
        });
    assert_eq!(applied, 1, "the head applied the write once");
    assert_eq!(client.read_file("/write").unwrap(), data);
    check_map(cluster.master());

    cluster.send_block_reports().unwrap();
    cluster.run_replication_round().unwrap();
    let lb = only_block(&client, "/write");
    assert_eq!(lb.locations.len(), 3, "{:?}", lb.locations);
    let stored = cluster.workers().iter().filter(|w| w.contains(lb.block.id)).count();
    assert_eq!(stored, 3, "exactly the vector's replicas are stored");
    assert_eq!(client.read_file("/write").unwrap(), data);
    check_map(cluster.master());
}

/// A delete sends one `DeleteBlock` per dropped replica, best effort: a
/// worker that is down, though the master has not declared it dead yet,
/// spends one retry budget and is sent nothing more. Its next block report
/// purges the replicas it missed.
#[test]
fn a_down_worker_costs_a_delete_one_retry_budget() {
    let cluster = Cluster::start(config(4, 64 * 1024)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(8 * 64 * 1024, 4);
    client.write_file("/del", &data, rf(3)).unwrap();
    let blocks: Vec<_> = client.get_file_block_locations("/del", 0, u64::MAX).unwrap();
    let held =
        |w: WorkerId| blocks.iter().filter(|lb| lb.locations.iter().any(|l| l.worker == w)).count();
    let down = (0..4).map(WorkerId).max_by_key(|&w| held(w)).unwrap();
    assert!(held(down) >= 2, "{down} holds {} replicas", held(down));

    cluster.transport().set_down(down, true);
    client.delete("/del", false).unwrap();
    let budget = u64::from(octopus_common::RpcConfig::default().max_retries);
    assert_eq!(retries(&cluster, "DeleteBlock"), budget);
    for w in cluster.workers().iter().filter(|w| w.id() != down) {
        for lb in &blocks {
            assert!(!w.contains(lb.block.id), "{} still holds {}", w.id(), lb.block.id);
        }
    }

    cluster.transport().set_down(down, false);
    cluster.send_block_reports().unwrap();
    let worker = cluster.worker(down).unwrap();
    assert!(blocks.iter().all(|lb| !worker.contains(lb.block.id)), "purged by its report");
    check_map(cluster.master());
}

/// A splitmix64 walk: the sweep's only source of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }
}

/// Requests a seed may lose the reply of, at the master and at a worker.
const MASTER_REQUESTS: &[&str] = &[
    "CreateFile",
    "AddBlock",
    "CommitReplica",
    "CompleteFile",
    "ReassignBlock",
    "AbandonBlock",
    "GetBlockLocations",
    "Status",
    "SetReplication",
    "Delete",
    "Heartbeat",
    "BlockReport",
];
const WORKER_REQUESTS: &[&str] = &["WriteBlock", "ReadBlock", "Replicate", "DeleteBlock"];

const WORKERS: u32 = 4;
const BLOCK: u64 = 64 * 1024;

/// One seeded run: writes, reads, deletes, `setrep`, block reports,
/// replication rounds and a worker killed and revived, with lost replies
/// drawn from the seed. At most three are ever registered for one request
/// at one callee, so an idempotent request always gets through within its
/// budget of four attempts. Besides the map's oracles and read-back, an
/// acknowledged write charges each medium exactly its confirmed replicas
/// there, and a replication round with every worker up fails no copy.
fn one_seed(seed: u64) {
    let mut rng = Rng(seed);
    let cluster = Cluster::start(config(WORKERS, BLOCK)).unwrap();
    // One lane, so each seed's faults meet its requests in one order.
    let client = cluster.client(ClientLocation::OffCluster).with_io_window(1);
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut registered: HashMap<(Option<WorkerId>, &'static str), u32> = HashMap::new();
    let mut dead = None;
    for step in 0..40u64 {
        if rng.below(3) == 0 {
            let to = match rng.below(2) {
                0 => (None, MASTER_REQUESTS[rng.below(MASTER_REQUESTS.len() as u64) as usize]),
                _ => {
                    let w = WorkerId(rng.below(WORKERS.into()) as u32);
                    (Some(w), WORKER_REQUESTS[rng.below(WORKER_REQUESTS.len() as u64) as usize])
                }
            };
            let n = registered.entry(to).or_default();
            if *n < 3 {
                *n += 1;
                lose(&cluster, to.0, to.1);
            }
        }
        let pick = |rng: &mut Rng, n: usize| rng.below(n as u64) as usize;
        match rng.below(12) {
            0..=3 => {
                let path = format!("/f{step}");
                let data = payload(rng.below(3 * BLOCK + 1) as usize, seed ^ step);
                let rv = rf(1 + rng.below(3) as u8);
                // Fresh heartbeats: every medium's free bytes are its own.
                cluster.pump_heartbeats();
                let before = free(cluster.master());
                // A write whose error is a lost reply may have happened in
                // part; only an acknowledged one must read back.
                if client.write_file(&path, &data, rv).is_ok() {
                    check_charged(cluster.master(), &before, &path);
                    files.push((path, data));
                }
            }
            // Every replica of a file may sit on the dead worker.
            4 | 5 if !files.is_empty() && dead.is_none() => {
                let (path, data) = &files[pick(&mut rng, files.len())];
                assert_eq!(&client.read_file(path).unwrap(), data, "{path}");
            }
            6 if !files.is_empty() => {
                // A lost `Delete` reply is an error after the delete ran.
                let (path, _) = files.swap_remove(pick(&mut rng, files.len()));
                let _ = client.delete(&path, false);
            }
            7 if !files.is_empty() => {
                let (path, _) = &files[pick(&mut rng, files.len())];
                client.set_replication(path, rf(1 + rng.below(3) as u8)).unwrap();
            }
            8 => cluster.send_block_reports().unwrap(),
            9 => match dead.take() {
                Some(w) => cluster.revive_worker(w).unwrap(),
                None => {
                    let w = WorkerId(rng.below(WORKERS.into()) as u32);
                    cluster.kill_worker(w);
                    dead = Some(w);
                }
            },
            _ => {
                let net = &**cluster.transport();
                let outcome = monitor::run_replication_round(cluster.master(), net).unwrap();
                cluster.pump_heartbeats();
                if dead.is_none() {
                    assert_eq!(outcome.copies_failed, 0, "{outcome:?}");
                }
            }
        }
        check_map(cluster.master());
    }
    if let Some(w) = dead {
        cluster.revive_worker(w).unwrap();
    }
    cluster.run_replication_round().unwrap();
    check_map(cluster.master());
    for (path, data) in &files {
        assert_eq!(&client.read_file(path).unwrap(), data, "{path}");
    }
}

/// `one_seed` over 1,000 seeds (`ci.sh` runs it), on the logical clock:
/// nothing waits on the wall clock. A failing seed names itself.
#[test]
#[ignore]
fn lost_replies_over_many_seeds() {
    // Every lost reply logs a warning; 1,000 seeds would print thousands.
    octopus_common::log::set_level(Some(octopus_common::Level::Error));
    for seed in 0..1_000 {
        if std::panic::catch_unwind(|| one_seed(seed)).is_err() {
            panic!("lost_replies_over_many_seeds: seed {seed} failed");
        }
    }
}

/// A few seeds of the sweep on every test run.
#[test]
fn lost_replies_over_a_few_seeds() {
    for seed in 1000..1004 {
        one_seed(seed);
    }
}
