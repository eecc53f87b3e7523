//! Multi-level cache management (paper §6, "Multi-level cache management"):
//! an application promotes its hot working set into the Memory tier, pins
//! it there while serving interactive queries, then demotes it — all
//! through the public `setReplication` API, with per-tenant memory quotas
//! keeping the tier fair. Then the master's auto-tierer makes the same
//! edits from access heat: one promotion, and one LRU eviction to make
//! room for it in a full Memory tier.
//!
//! Run with: `cargo run --release --example tier_cache`

use octopusfs::master::AutoTierConfig;
use octopusfs::policies::EwmaThresholdClassifier;
use octopusfs::{
    ClientLocation, Cluster, ClusterConfig, FsError, RemoteFs, ReplicationVector, StorageTier,
    TierQuota,
};

/// The tiers every replica of `path` sits on.
fn tiers_of(client: &RemoteFs, path: &str) -> octopusfs::Result<Vec<String>> {
    Ok(client
        .get_file_block_locations(path, 0, u64::MAX)?
        .iter()
        .flat_map(|lb| lb.locations.iter().map(|l| l.tier.to_string()))
        .collect())
}

fn main() -> octopusfs::Result<()> {
    let config = ClusterConfig::test_cluster(6, 64 << 20, 1 << 20);
    let cluster = Cluster::start(config)?;
    let client = cluster.client(ClientLocation::OffCluster);

    // Two tenants, each with a 4 MB memory-tier quota.
    for tenant in ["/tenants/alice", "/tenants/bob"] {
        client.mkdir(tenant)?;
        client.set_quota(tenant, TierQuota::limit_tier(StorageTier::Memory.id().0, 4 << 20))?;
    }

    // Alice lands three 2 MB tables on disk.
    let table: Vec<u8> = (0..2_000_000u32).map(|i| (i % 239) as u8).collect();
    for t in ["t1", "t2", "t3"] {
        client.write_file(
            &format!("/tenants/alice/{t}"),
            &table,
            ReplicationVector::msh(0, 0, 2),
        )?;
    }
    println!("ingested 3 tables on the HDD tier");

    // Interactive phase: promote the hot table into memory (cache fill).
    client.set_replication("/tenants/alice/t1", ReplicationVector::msh(1, 0, 2))?;
    cluster.run_replication_round()?;
    println!("t1 replicas now on tiers: {:?}", tiers_of(&client, "/tenants/alice/t1")?);

    // Promoting a second 2 MB table would exceed Alice's 4 MB memory
    // quota (t1 already pins 2 MB): the system refuses, protecting Bob.
    let err = client.set_replication("/tenants/alice/t2", ReplicationVector::msh(2, 0, 1));
    match err {
        Err(FsError::QuotaExceeded(msg)) => {
            println!("promotion of t2 with 2 memory replicas rejected: {msg}")
        }
        other => panic!("expected quota rejection, got {other:?}"),
    }
    // One memory replica (2 MB) still fits exactly.
    client.set_replication("/tenants/alice/t2", ReplicationVector::msh(1, 0, 1))?;
    cluster.run_replication_round()?;
    println!("t2 promoted with one memory replica");

    // Query phase: memory-resident reads.
    let hot = client.read_file("/tenants/alice/t1")?;
    assert_eq!(hot, table);
    println!("served hot read of t1 from the cache tiers");

    // Eviction: demote t1 back to disk-only, freeing memory quota.
    client.set_replication("/tenants/alice/t1", ReplicationVector::msh(0, 0, 2))?;
    cluster.run_replication_round()?;
    let (_, usage) = cluster.master().quota_usage("/tenants/alice")?;
    println!(
        "t1 evicted; alice's memory-tier usage is now {} bytes",
        usage[StorageTier::Memory.id().0 as usize]
    );

    // --- Or let the master's auto-tierer do all of the above (§6) ---------
    // The master makes the same edits from the heat workers report: a hot
    // file gains a memory replica, and when the Memory tier is full the
    // least recently touched memory-pinned file makes room for it. Bob's
    // cluster has a 4 MB Memory tier (1 MB per worker) and beats once per
    // heat epoch.
    println!(
        "
automated tiering for bob:"
    );
    let mut config = ClusterConfig::test_cluster(4, 64 << 20, 1 << 20);
    config.heartbeat_ms = octopusfs::common::heat::DEFAULT_HEAT_EPOCH_MS;
    for w in &mut config.workers {
        w.media[0].capacity = 1 << 20;
    }
    let cluster = Cluster::start(config)?;
    let client = cluster.client(ClientLocation::OffCluster);
    // `old` and `recent` fill the Memory tier; `new` lands on disk.
    client.mkdir("/bob")?;
    for (t, memory) in [("old", 1), ("recent", 1), ("new", 0)] {
        let rv = ReplicationVector::msh(memory, 0, 1);
        client.write_file(&format!("/bob/{t}"), &table, rv)?;
    }
    for _ in 0..10 {
        cluster.pump_heartbeats(); // one heat epoch each: the ingest's write heat cools
    }
    client.read_file("/bob/old")?;
    cluster.pump_heartbeats();
    client.read_file("/bob/recent")?;
    cluster.pump_heartbeats();
    for _ in 0..3 {
        client.read_file("/bob/new")?; // a burst: `new` turns hot
    }
    cluster.pump_heartbeats();
    let classifier = EwmaThresholdClassifier::default();
    let decisions = cluster.run_autotier_round(&classifier, &AutoTierConfig::default())?;
    for d in &decisions {
        println!("  {} {} {} -> {}", d.direction.label(), d.path, d.from, d.to);
    }
    assert_eq!(decisions.len(), 2, "one promotion and one eviction");
    for e in cluster.master().recent_migrations(2) {
        println!("  audit: {}", e.policy);
    }
    cluster.run_replication_round()?; // realize the promotion in the freed memory
    println!("  new's replicas now on tiers: {:?}", tiers_of(&client, "/bob/new")?);
    Ok(())
}
