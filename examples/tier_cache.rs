//! Multi-level cache management (paper §6, "Multi-level cache management"):
//! an application promotes its hot working set into the Memory tier, pins
//! it there while serving interactive queries, then demotes it — all
//! through the public `setReplication` API, with per-tenant memory quotas
//! keeping the tier fair.
//!
//! Run with: `cargo run --release --example tier_cache`

use octopusfs::core::{CacheAction, CacheManager};
use octopusfs::{
    ClientLocation, Cluster, ClusterConfig, FsError, ReplicationVector, StorageTier, TierQuota,
};

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
    let tiers_of = |path: &str| -> octopusfs::Result<Vec<String>> {
        Ok(client
            .get_file_block_locations(path, 0, u64::MAX)?
            .iter()
            .flat_map(|lb| lb.locations.iter().map(|l| l.tier.to_string()))
            .collect())
    };
    println!("t1 replicas now on tiers: {:?}", tiers_of("/tenants/alice/t1")?);

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

    // --- Or let the CacheManager automate all of the above (§6) -----------
    // Bob ingests tables and just *reads*; the manager watches accesses,
    // promotes the hot set into memory, and LRU-evicts under pressure.
    println!(
        "
automated cache management for bob:"
    );
    client.set_replication("/tenants/alice/t2", ReplicationVector::msh(0, 0, 1))?;
    cluster.run_replication_round()?; // free alice's memory for clarity
    for t in ["hot", "warm", "cold"] {
        client.write_file(&format!("/tenants/bob/{t}"), &table, ReplicationVector::msh(0, 0, 2))?;
    }
    // Budget fits two tables; promote on the 2nd access (scan-resistant).
    let mut cache = CacheManager::new(client.clone(), 4 << 20, 2);
    for _ in 0..2 {
        cache.on_access("/tenants/bob/hot")?;
        cache.on_access("/tenants/bob/warm")?;
    }
    cache.on_access("/tenants/bob/cold")?; // single scan: not promoted
    println!("  cached after the access pattern: {:?}", cache.cached());
    // A burst on `cold` promotes it and evicts the LRU entry.
    let actions = [cache.on_access("/tenants/bob/cold")?].concat();
    for a in &actions {
        match a {
            CacheAction::Promoted(p) => println!("  promoted {p}"),
            CacheAction::Evicted(p) => println!("  evicted  {p} (LRU)"),
        }
    }
    cluster.run_replication_round()?;
    cluster.run_replication_round()?;
    Ok(())
}
