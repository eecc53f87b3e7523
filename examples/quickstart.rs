//! Quickstart: boot an in-process OctopusFS cluster, write a file with an
//! explicit replication vector, inspect where its replicas landed, move it
//! between tiers, and read it back.
//!
//! Run with: `cargo run --release --example quickstart`

use octopusfs::{ClientLocation, Cluster, ClusterConfig, ReplicationVector};

fn main() -> octopusfs::Result<()> {
    // A small cluster: 6 workers across 2 racks, one Memory/SSD/HDD medium
    // each, 64 MB per medium, 1 MB blocks.
    let config = ClusterConfig::test_cluster(6, 64 << 20, 1 << 20);
    let cluster = Cluster::start(config)?;
    let client = cluster.client(ClientLocation::OffCluster);

    // --- Namespace basics -------------------------------------------------
    client.mkdir("/demo")?;

    // --- Controllability: explicit replication vectors (paper §2.3) -------
    // ⟨M,S,H⟩ = ⟨1,0,2⟩: one replica in memory, two on HDDs.
    let rv = ReplicationVector::msh(1, 0, 2);
    let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
    client.write_file("/demo/dataset", &data, rv)?;

    println!("wrote /demo/dataset ({} bytes) with vector {rv}", data.len());
    for lb in client.get_file_block_locations("/demo/dataset", 0, u64::MAX)? {
        let tiers: Vec<String> =
            lb.locations.iter().map(|l| format!("{}@{}", l.tier, l.worker)).collect();
        println!("  block {} -> {}", lb.block.id, tiers.join(", "));
    }

    // --- Tier reports (Table 1: getStorageTierReports) ---------------------
    println!("\nstorage tiers:");
    for r in client.get_storage_tier_reports()? {
        println!(
            "  {:<6} media={} remaining={:.1}% avg_read={:.0} MB/s",
            r.name,
            r.stats.num_media,
            r.stats.remaining_fraction() * 100.0,
            r.stats.avg_read_thru / (1 << 20) as f64,
        );
    }

    // --- Move between tiers via setReplication (paper §2.3) ----------------
    // ⟨1,0,2⟩ → ⟨0,1,2⟩: drop the memory replica, add an SSD one.
    client.set_replication("/demo/dataset", ReplicationVector::msh(0, 1, 2))?;
    // The change is asynchronous (§5): the replication monitor realizes it.
    cluster.run_replication_round()?;
    cluster.run_replication_round()?;

    println!("\nafter setReplication ⟨0,1,2⟩:");
    for lb in client.get_file_block_locations("/demo/dataset", 0, u64::MAX)? {
        let tiers: Vec<String> = lb.locations.iter().map(|l| l.tier.to_string()).collect();
        println!("  block {} -> tiers {}", lb.block.id, tiers.join(", "));
    }

    // --- Read back (retrieval-policy ordered, checksum verified) -----------
    let read = client.read_file("/demo/dataset")?;
    assert_eq!(read, data);
    println!("\nread back {} bytes, checksums verified ✓", read.len());
    Ok(())
}
