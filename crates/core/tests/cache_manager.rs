//! Tests of the §6 multi-level cache manager: LRU promotion/eviction of
//! memory-tier replicas through the public `setReplication` API.

use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, StorageTier, MB};
use octopus_core::{CacheAction, CacheManager, Cluster};

fn setup(files: &[(&str, usize)]) -> (Cluster, octopus_core::RemoteFs) {
    let cluster = Cluster::start(ClusterConfig::test_cluster(6, 64 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    for (path, len) in files {
        let octopus_common::BlockData::Real(b) =
            octopus_common::BlockData::generate_real(*len, path.len() as u64)
        else {
            unreachable!()
        };
        client.write_file(path, &b, ReplicationVector::msh(0, 0, 2)).unwrap();
    }
    (cluster, client)
}

/// Memory replicas of the file's first block (each block carries the same
/// per-tier counts).
fn memory_replicas(cluster: &Cluster, path: &str) -> usize {
    cluster
        .master()
        .get_file_block_locations(path, 0, 1, ClientLocation::OffCluster)
        .unwrap()
        .first()
        .map(|b| b.locations.iter().filter(|l| l.tier == StorageTier::Memory.id()).count())
        .unwrap_or(0)
}

#[test]
fn second_access_promotes_to_memory() {
    let (cluster, client) = setup(&[("/t1", MB as usize)]);
    let mut cache = CacheManager::new(client.clone(), 8 * MB, 2);

    assert!(cache.on_access("/t1").unwrap().is_empty(), "first access: no promotion");
    let actions = cache.on_access("/t1").unwrap();
    assert_eq!(actions, vec![CacheAction::Promoted("/t1".into())]);
    assert_eq!(cache.cached(), vec!["/t1".to_string()]);

    // The replication monitor realizes the promotion.
    cluster.run_replication_round().unwrap();
    assert_eq!(memory_replicas(&cluster, "/t1"), 1);
    // The original HDD replicas are untouched (cache adds, not moves).
    let st = client.status("/t1").unwrap();
    assert_eq!(st.rv, ReplicationVector::msh(1, 0, 2));
}

#[test]
fn lru_eviction_when_budget_full() {
    let (cluster, client) =
        setup(&[("/a", 2 * MB as usize), ("/b", 2 * MB as usize), ("/c", 2 * MB as usize)]);
    // Budget fits two files; promote on first access for brevity.
    let mut cache = CacheManager::new(client.clone(), 4 * MB, 1);

    cache.on_access("/a").unwrap();
    cache.on_access("/b").unwrap();
    assert_eq!(cache.used(), 4 * MB);

    // Touch /a so /b becomes the LRU, then bring in /c.
    cache.on_access("/a").unwrap();
    let actions = cache.on_access("/c").unwrap();
    assert_eq!(
        actions,
        vec![CacheAction::Evicted("/b".into()), CacheAction::Promoted("/c".into())]
    );
    let mut cached = cache.cached();
    cached.sort();
    assert_eq!(cached, vec!["/a".to_string(), "/c".to_string()]);

    // Realize: /b's memory pin is gone, /a and /c have one each.
    cluster.run_replication_round().unwrap();
    cluster.run_replication_round().unwrap();
    assert_eq!(memory_replicas(&cluster, "/a"), 1);
    assert_eq!(memory_replicas(&cluster, "/b"), 0);
    assert_eq!(memory_replicas(&cluster, "/c"), 1);
}

#[test]
fn oversized_files_are_never_cached() {
    let (_cluster, client) = setup(&[("/huge", 3 * MB as usize)]);
    let mut cache = CacheManager::new(client, 2 * MB, 1);
    assert!(cache.on_access("/huge").unwrap().is_empty());
    assert!(cache.cached().is_empty());
}

#[test]
fn clear_demotes_everything() {
    let (cluster, client) = setup(&[("/x", MB as usize), ("/y", MB as usize)]);
    let mut cache = CacheManager::new(client, 8 * MB, 1);
    cache.on_access("/x").unwrap();
    cache.on_access("/y").unwrap();
    let actions = cache.clear().unwrap();
    assert_eq!(actions.len(), 2);
    assert_eq!(cache.used(), 0);
    cluster.run_replication_round().unwrap();
    assert_eq!(memory_replicas(&cluster, "/x"), 0);
    assert_eq!(memory_replicas(&cluster, "/y"), 0);
}

#[test]
fn eviction_releases_what_promotion_charged() {
    // Regression: promotion charged the file's length at promote time,
    // but every later access refreshed the entry's length — so evicting
    // a file that grew while cached released the *new* length. With two
    // cached files, growing and evicting one saturating-subtracted the
    // other file's charge away, and `used` drifted to 0 while a replica
    // still sat in memory.
    let (_cluster, client) = setup(&[("/grow", MB as usize), ("/stay", MB as usize)]);
    let mut cache = CacheManager::new(client.clone(), 8 * MB, 1);
    cache.on_access("/grow").unwrap();
    cache.on_access("/stay").unwrap();
    assert_eq!(cache.used(), 2 * MB);

    // /grow triples in size while cached.
    let mut w = client.append("/grow").unwrap();
    w.write(&vec![3u8; 2 * MB as usize]).unwrap();
    w.close().unwrap();

    // The next access reconciles the charge to the current size…
    cache.on_access("/grow").unwrap();
    assert_eq!(cache.used(), 4 * MB, "charge follows the file's current size");

    // …and a full clear returns the budget to exactly zero.
    let evicted = cache.clear().unwrap();
    assert_eq!(evicted.len(), 2);
    assert_eq!(cache.used(), 0, "eviction must release exactly what was charged");
}

#[test]
fn eviction_of_grown_file_keeps_other_charges_intact() {
    // The sharpest form of the bug: a cached file grows, a later access
    // refreshes the entry's recorded length, and eviction then released
    // that new length instead of the charge — the saturating subtraction
    // silently wiped the *other* cached file's budget share too.
    let (_cluster, client) = setup(&[("/grow", MB as usize), ("/stay", MB as usize)]);
    let mut cache = CacheManager::new(client.clone(), 2 * MB, 1);
    cache.on_access("/grow").unwrap();
    cache.on_access("/stay").unwrap();
    assert_eq!(cache.used(), 2 * MB);

    // /grow triples in size while cached.
    let mut w = client.append("/grow").unwrap();
    w.write(&vec![3u8; 2 * MB as usize]).unwrap();
    w.close().unwrap();

    // Refresh /grow's entry, then make /stay most-recent so /grow is the
    // LRU victim when a third file needs the space.
    cache.on_access("/grow").unwrap();
    cache.on_access("/stay").unwrap();
    client.write_file("/third", &[1u8; MB as usize], ReplicationVector::msh(0, 0, 2)).unwrap();
    let actions = cache.on_access("/third").unwrap();
    assert!(actions.contains(&CacheAction::Evicted("/grow".into())), "actions: {actions:?}");
    assert!(actions.contains(&CacheAction::Promoted("/third".into())), "actions: {actions:?}");

    // /stay's 1 MB and /third's 1 MB remain charged.
    assert_eq!(cache.used(), 2 * MB, "evicting /grow must not release more than its charge");
    let mut cached = cache.cached();
    cached.sort();
    assert_eq!(cached, vec!["/stay".to_string(), "/third".to_string()]);
}

#[test]
fn deleted_file_eviction_is_graceful() {
    let (_cluster, client) = setup(&[("/gone", MB as usize), ("/stay", MB as usize)]);
    let mut cache = CacheManager::new(client.clone(), MB, 1);
    cache.on_access("/gone").unwrap();
    client.delete("/gone", false).unwrap();
    // Promoting /stay evicts the deleted file without error.
    let actions = cache.on_access("/stay").unwrap();
    assert!(actions.contains(&CacheAction::Promoted("/stay".into())));
}
