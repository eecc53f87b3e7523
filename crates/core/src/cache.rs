//! Multi-level cache management over OctopusFS (paper §6).
//!
//! The paper's point: because replication vectors expose tier placement,
//! "an entity that sits on top of OctopusFS can control the number and
//! placement of replicas in the various storage tiers" — i.e. a cache
//! manager needs no file-system changes at all. [`CacheManager`] is that
//! entity: it watches file accesses, promotes hot files into the Memory
//! tier by *adding* a memory replica (`setReplication`), and demotes the
//! least-recently-used files when its memory budget fills.
//!
//! Promotion is scan-resistant: a file must be accessed
//! `promote_after` times before it is cached, so one-off scans do not
//! evict the working set.

use std::collections::HashMap;

use octopus_common::metrics::{Labels, MetricsRegistry};
use octopus_common::trace::TraceCollector;
use octopus_common::{FsError, ReplicationVector, Result, StorageTier};

use crate::net::RemoteFs;

/// What the manager did in response to an access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheAction {
    /// A memory replica was requested for the path.
    Promoted(String),
    /// The path's memory replica was dropped to free budget.
    Evicted(String),
}

struct Entry {
    accesses: u64,
    last_access: u64,
    bytes: u64,
    /// Bytes this entry currently holds of the budget (0 when not
    /// cached). Tracked separately from `bytes`, which is refreshed to
    /// the file's current length on every access: eviction must release
    /// exactly what promotion charged, or a file that grew while cached
    /// would release more than it took and corrupt `used`.
    charged: u64,
    cached: bool,
}

/// An LRU cache manager for the Memory tier.
///
/// ```
/// use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector};
/// use octopus_core::{CacheAction, CacheManager, Cluster};
///
/// let cluster = Cluster::start(ClusterConfig::test_cluster(4, 32 << 20, 1 << 20)).unwrap();
/// let client = cluster.client(ClientLocation::OffCluster);
/// client.write_file("/hot", &[7u8; 4096], ReplicationVector::msh(0, 0, 2)).unwrap();
///
/// let mut cache = CacheManager::new(client, 1 << 20, 2);
/// assert!(cache.on_access("/hot").unwrap().is_empty());       // 1st touch
/// let actions = cache.on_access("/hot").unwrap();             // 2nd: promote
/// assert_eq!(actions, vec![CacheAction::Promoted("/hot".into())]);
/// cluster.run_replication_round().unwrap();                   // realize (§5)
/// ```
pub struct CacheManager {
    client: RemoteFs,
    budget: u64,
    promote_after: u64,
    used: u64,
    tick: u64,
    entries: HashMap<String, Entry>,
    metrics: MetricsRegistry,
    trace: TraceCollector,
}

impl CacheManager {
    /// Creates a manager with a memory budget in bytes. Files are promoted
    /// after `promote_after` accesses (≥1).
    pub fn new(client: RemoteFs, budget: u64, promote_after: u64) -> Self {
        Self {
            client,
            budget,
            promote_after: promote_after.max(1),
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            metrics: MetricsRegistry::new(),
            trace: TraceCollector::new("cache"),
        }
    }

    /// This manager's trace collector (`cache.promote` / `cache.evict`
    /// spans, stitched under the triggering access when one is traced).
    pub fn trace(&self) -> &TraceCollector {
        &self.trace
    }

    /// This manager's metrics (`cache_promotions_total`,
    /// `cache_evictions_total`, `cache_used_bytes`).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Bytes of memory-tier budget currently committed.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Paths currently cached (unordered).
    pub fn cached(&self) -> Vec<String> {
        self.entries.iter().filter(|(_, e)| e.cached).map(|(p, _)| p.clone()).collect()
    }

    /// Records an access to `path`, promoting/evicting as needed. The
    /// returned actions have been *requested* through `setReplication`;
    /// the replication monitor realizes them asynchronously (§5).
    pub fn on_access(&mut self, path: &str) -> Result<Vec<CacheAction>> {
        self.tick += 1;
        let status = self.client.status(path)?;
        if status.is_dir {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        let tick = self.tick;
        let e = self.entries.entry(path.to_string()).or_insert(Entry {
            accesses: 0,
            last_access: 0,
            bytes: status.len,
            charged: 0,
            cached: false,
        });
        e.accesses += 1;
        e.last_access = tick;
        e.bytes = status.len;
        if e.cached && e.charged != e.bytes {
            // The file changed size while cached (e.g. an append): move
            // the charge to the current length so the budget stays honest.
            self.used = self.used.saturating_sub(e.charged).saturating_add(e.bytes);
            e.charged = e.bytes;
            self.metrics.gauge("cache_used_bytes", Labels::NONE).set(self.used as i64);
        }
        let wants_promotion = !e.cached && e.accesses >= self.promote_after;
        if !wants_promotion {
            return Ok(Vec::new());
        }
        if status.len > self.budget {
            return Ok(Vec::new()); // larger than the whole cache
        }

        let mut actions = Vec::new();
        // Evict LRU entries until the file fits.
        while self.used + status.len > self.budget {
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(_, e)| e.cached)
                .min_by_key(|(_, e)| e.last_access)
                .map(|(p, _)| p.clone())
            else {
                break;
            };
            self.evict(&victim)?;
            actions.push(CacheAction::Evicted(victim));
        }
        if self.used + status.len <= self.budget {
            self.promote(path)?;
            actions.push(CacheAction::Promoted(path.to_string()));
        }
        Ok(actions)
    }

    /// Drops everything from the cache.
    pub fn clear(&mut self) -> Result<Vec<CacheAction>> {
        let cached = self.cached();
        let mut actions = Vec::new();
        for p in cached {
            self.evict(&p)?;
            actions.push(CacheAction::Evicted(p));
        }
        Ok(actions)
    }

    fn promote(&mut self, path: &str) -> Result<()> {
        let mut span = self.trace.root_or_child("cache.promote");
        span.annotate("path", path);
        let mem = StorageTier::Memory.id();
        let status = self.client.status(path)?;
        span.annotate("bytes", status.len);
        let rv = status.rv;
        if rv.tier(mem) == 0 {
            self.client.set_replication(path, rv.with_tier(mem, 1))?;
        }
        if let Some(e) = self.entries.get_mut(path) {
            e.cached = true;
            e.charged = e.bytes;
            self.used += e.charged;
        }
        self.metrics.inc("cache_promotions_total", Labels::NONE);
        self.metrics.gauge("cache_used_bytes", Labels::NONE).set(self.used as i64);
        Ok(())
    }

    fn evict(&mut self, path: &str) -> Result<()> {
        let mut span = self.trace.root_or_child("cache.evict");
        span.annotate("path", path);
        let mem = StorageTier::Memory.id();
        match self.client.status(path) {
            Ok(status) if status.rv.tier(mem) > 0 => {
                // Drop the memory pin; keep everything else. Ensure the
                // file retains at least one replica elsewhere.
                let mut rv = status.rv.with_tier(mem, 0);
                if rv.total() == 0 {
                    rv = ReplicationVector::from_replication_factor(1);
                }
                self.client.set_replication(path, rv)?;
            }
            _ => {} // deleted or already demoted: just release budget
        }
        if let Some(e) = self.entries.get_mut(path) {
            if e.cached {
                e.cached = false;
                self.used = self.used.saturating_sub(e.charged);
                e.charged = 0;
            }
        }
        self.metrics.inc("cache_evictions_total", Labels::NONE);
        self.metrics.gauge("cache_used_bytes", Labels::NONE).set(self.used as i64);
        Ok(())
    }
}
