//! Storage tiers.
//!
//! A *storage tier* logically groups the same type of storage media across all
//! workers (paper §2.2): the "SSD" tier encompasses every SSD in the cluster.
//! Tiers are identified by a small integer [`TierId`] that doubles as the
//! slot index inside a [`crate::ReplicationVector`]. Tiers are defined by
//! *performance*, not device type, so a cluster may configure e.g. "SSD-1"
//! (PCIe) and "SSD-2" (SATA) as distinct tiers; the [`TierRegistry`] supports
//! up to seven tiers, with slot 7 reserved for the vector's "Unspecified"
//! entry.

use std::fmt;

use crate::error::{FsError, Result};

/// Maximum number of distinct tiers a cluster may configure.
pub const MAX_TIERS: usize = 7;

/// Maximum total replication of any file: the most replicas a vector may
/// ask for, and so the deepest write pipeline.
pub const MAX_REPLICATION: u32 = 16;

/// The replication-vector slot that holds the "Unspecified" count (paper
/// §2.3: replicas whose tier the system chooses).
pub const UNSPECIFIED_SLOT: u8 = 7;

/// Identifier of a storage tier; also its replication-vector slot (0..=6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub u8);

impl TierId {
    /// The tier's slot in a replication vector.
    pub fn slot(self) -> u8 {
        self.0
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier_{}", self.0)
    }
}

/// The four canonical tiers of the paper's running example
/// ⟨Memory, SSD, HDD, Remote⟩. Custom clusters may define others via
/// [`TierRegistry`]; these constants are conveniences for the common case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageTier {
    /// Volatile DRAM tier — fastest, smallest, data lost on restart.
    Memory,
    /// Flash tier.
    Ssd,
    /// Spinning-disk tier.
    Hdd,
    /// Network-attached or cloud storage integrated as a tier (§2.4,
    /// integrated mode).
    Remote,
}

impl StorageTier {
    /// The canonical [`TierId`] (replication-vector slot) of this tier.
    pub const fn id(self) -> TierId {
        match self {
            StorageTier::Memory => TierId(0),
            StorageTier::Ssd => TierId(1),
            StorageTier::Hdd => TierId(2),
            StorageTier::Remote => TierId(3),
        }
    }

    /// Canonical display name.
    pub const fn name(self) -> &'static str {
        match self {
            StorageTier::Memory => "Memory",
            StorageTier::Ssd => "SSD",
            StorageTier::Hdd => "HDD",
            StorageTier::Remote => "Remote",
        }
    }

    /// Whether data on this tier is lost on power failure.
    pub const fn volatile(self) -> bool {
        matches!(self, StorageTier::Memory)
    }

    /// All four canonical tiers, in slot order.
    pub const ALL: [StorageTier; 4] =
        [StorageTier::Memory, StorageTier::Ssd, StorageTier::Hdd, StorageTier::Remote];
}

impl fmt::Display for StorageTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata describing one configured tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierInfo {
    /// Slot / identifier.
    pub id: TierId,
    /// Human-readable name ("Memory", "SSD-1", ...).
    pub name: String,
    /// Whether the tier's media are volatile (affects placement defaults:
    /// the MOOP policy only places on volatile tiers when explicitly
    /// enabled, and caps them at one third of the replicas — §3.3).
    pub volatile: bool,
}

/// The set of tiers configured for a cluster.
///
/// Tier ids must be dense starting at 0 so they map directly onto
/// replication-vector slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierRegistry {
    tiers: Vec<TierInfo>,
}

impl TierRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical ⟨Memory, SSD, HDD⟩ registry used by most tests and by
    /// the paper's evaluation cluster (which has no remote tier attached).
    pub fn standard_three() -> Self {
        let mut r = Self::new();
        for t in [StorageTier::Memory, StorageTier::Ssd, StorageTier::Hdd] {
            r.register(t.name(), t.volatile()).unwrap();
        }
        r
    }

    /// The canonical four-tier registry ⟨Memory, SSD, HDD, Remote⟩ from the
    /// paper's Figure 1.
    pub fn standard_four() -> Self {
        let mut r = Self::new();
        for t in StorageTier::ALL {
            r.register(t.name(), t.volatile()).unwrap();
        }
        r
    }

    /// Registers a new tier and returns its id. Fails after [`MAX_TIERS`]
    /// tiers or on a duplicate name.
    pub fn register(&mut self, name: &str, volatile: bool) -> Result<TierId> {
        if self.tiers.len() >= MAX_TIERS {
            return Err(FsError::Config(format!(
                "cannot register tier {name:?}: at most {MAX_TIERS} tiers supported"
            )));
        }
        if self.tiers.iter().any(|t| t.name == name) {
            return Err(FsError::Config(format!("duplicate tier name {name:?}")));
        }
        let id = TierId(self.tiers.len() as u8);
        self.tiers.push(TierInfo { id, name: name.to_string(), volatile });
        Ok(id)
    }

    /// Number of configured tiers (the paper's `k`).
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether no tiers are configured.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Looks up a tier by id.
    pub fn get(&self, id: TierId) -> Result<&TierInfo> {
        self.tiers.get(id.0 as usize).ok_or_else(|| FsError::UnknownTier(id.to_string()))
    }

    /// Looks up a tier by name.
    pub fn by_name(&self, name: &str) -> Result<&TierInfo> {
        self.tiers
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| FsError::UnknownTier(name.to_string()))
    }

    /// Iterates tiers in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &TierInfo> {
        self.tiers.iter()
    }

    /// Ids of all configured tiers, in slot order.
    pub fn ids(&self) -> impl Iterator<Item = TierId> + '_ {
        self.tiers.iter().map(|t| t.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_tiers_have_expected_slots() {
        assert_eq!(StorageTier::Memory.id(), TierId(0));
        assert_eq!(StorageTier::Ssd.id(), TierId(1));
        assert_eq!(StorageTier::Hdd.id(), TierId(2));
        assert_eq!(StorageTier::Remote.id(), TierId(3));
        assert!(StorageTier::Memory.volatile());
        assert!(!StorageTier::Hdd.volatile());
    }

    #[test]
    fn registry_registers_dense_ids() {
        let mut r = TierRegistry::new();
        assert_eq!(r.register("Memory", true).unwrap(), TierId(0));
        assert_eq!(r.register("SSD-1", false).unwrap(), TierId(1));
        assert_eq!(r.register("SSD-2", false).unwrap(), TierId(2));
        assert_eq!(r.len(), 3);
        assert_eq!(r.by_name("SSD-2").unwrap().id, TierId(2));
        assert!(r.get(TierId(3)).is_err());
    }

    #[test]
    fn registry_rejects_duplicates_and_overflow() {
        let mut r = TierRegistry::new();
        r.register("A", false).unwrap();
        assert!(r.register("A", false).is_err());
        for i in 1..MAX_TIERS {
            r.register(&format!("T{i}"), false).unwrap();
        }
        assert!(r.register("overflow", false).is_err());
    }

    #[test]
    fn standard_registries() {
        let r3 = TierRegistry::standard_three();
        assert_eq!(r3.len(), 3);
        assert!(r3.get(TierId(0)).unwrap().volatile);
        let r4 = TierRegistry::standard_four();
        assert_eq!(r4.len(), 4);
        assert_eq!(r4.by_name("Remote").unwrap().id, TierId(3));
    }
}
