//! The replication vector (paper §2.3).
//!
//! A [`ReplicationVector`] specifies, per storage tier, how many replicas of
//! a file's blocks should live on that tier, plus an *Unspecified* count `U`
//! of replicas whose tier the system's placement policy chooses. The paper
//! encodes the vector in 64 bits; we use eight 8-bit slots — slots 0..=6 for
//! tiers, slot 7 for `U` — so a single `u64` round-trips through the
//! namespace, the edit log, and the wire format.
//!
//! Changing a file's vector expresses the four §2.3 operations (move, copy,
//! re-replicate within a tier, delete from a tier) uniformly; [`VectorDiff`]
//! computes which replicas must be added and removed.

use std::fmt;
use std::str::FromStr;

use crate::error::{FsError, Result};
use crate::tier::{StorageTier, TierId, MAX_REPLICATION, MAX_TIERS, UNSPECIFIED_SLOT};

/// Per-tier replica counts plus an unspecified count, packed into a `u64`.
///
/// ```
/// use octopus_common::{ReplicationVector, StorageTier};
///
/// // The paper's ⟨M,S,H⟩ = ⟨1,0,2⟩: one memory replica, two on HDDs.
/// let v = ReplicationVector::msh(1, 0, 2);
/// assert_eq!(v.total(), 3);
/// assert_eq!(v.storage_tier(StorageTier::Memory), 1);
///
/// // Moving a replica HDD → SSD is just a vector diff (§2.3).
/// let target = ReplicationVector::msh(1, 1, 1);
/// let diff = v.diff(target);
/// assert_eq!(diff.additions().next(), Some((StorageTier::Ssd.id(), 1)));
/// assert_eq!(diff.removals().next(), Some((StorageTier::Hdd.id(), 1)));
///
/// // 64-bit codec and HDFS backwards compatibility.
/// assert_eq!(ReplicationVector::from_bits(v.to_bits()), v);
/// assert_eq!(ReplicationVector::from_replication_factor(3).unspecified(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ReplicationVector(u64);

impl ReplicationVector {
    /// The all-zero vector (no replicas anywhere).
    pub const EMPTY: ReplicationVector = ReplicationVector(0);

    /// Creates a vector from explicit per-slot counts. `counts[i]` is the
    /// count for tier slot `i`; missing slots are zero.
    pub fn from_counts(counts: &[u8], unspecified: u8) -> Self {
        debug_assert!(counts.len() <= MAX_TIERS);
        let mut v = ReplicationVector(0);
        for (i, &c) in counts.iter().enumerate() {
            v = v.with_tier(TierId(i as u8), c);
        }
        v.with_unspecified(unspecified)
    }

    /// HDFS backwards compatibility (paper §2.3): the old single replication
    /// factor `r` becomes a vector with `U = r`.
    pub fn from_replication_factor(r: u8) -> Self {
        ReplicationVector(0).with_unspecified(r)
    }

    /// Convenience for the paper's ⟨M, S, H⟩ notation over the canonical
    /// Memory/SSD/HDD tiers.
    pub fn msh(memory: u8, ssd: u8, hdd: u8) -> Self {
        Self::from_counts(&[memory, ssd, hdd], 0)
    }

    /// Convenience for the paper's ⟨M, S, H, R, U⟩ notation.
    pub fn mshru(memory: u8, ssd: u8, hdd: u8, remote: u8, unspecified: u8) -> Self {
        Self::from_counts(&[memory, ssd, hdd, remote], unspecified)
    }

    /// The raw 64-bit encoding.
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// Reconstructs a vector from its 64-bit encoding.
    pub fn from_bits(bits: u64) -> Self {
        ReplicationVector(bits)
    }

    fn slot(self, slot: u8) -> u8 {
        debug_assert!(slot < 8);
        ((self.0 >> (slot * 8)) & 0xff) as u8
    }

    fn with_slot(self, slot: u8, count: u8) -> Self {
        debug_assert!(slot < 8);
        let shift = slot * 8;
        ReplicationVector((self.0 & !(0xffu64 << shift)) | ((count as u64) << shift))
    }

    /// Replica count pinned to tier `t`.
    pub fn tier(self, t: TierId) -> u8 {
        self.slot(t.0)
    }

    /// Replica count pinned to a canonical tier.
    pub fn storage_tier(self, t: StorageTier) -> u8 {
        self.tier(t.id())
    }

    /// Returns a copy with tier `t`'s count replaced.
    pub fn with_tier(self, t: TierId, count: u8) -> Self {
        self.with_slot(t.0, count)
    }

    /// The unspecified count `U`.
    pub fn unspecified(self) -> u8 {
        self.slot(UNSPECIFIED_SLOT)
    }

    /// Returns a copy with the unspecified count replaced.
    pub fn with_unspecified(self, count: u8) -> Self {
        self.with_slot(UNSPECIFIED_SLOT, count)
    }

    /// Total number of replicas (all tiers plus unspecified).
    pub fn total(self) -> u32 {
        (0..8).map(|s| self.slot(s) as u32).sum()
    }

    /// Whether the vector requests no replicas at all.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates `(TierId, count)` over tier slots with a non-zero count.
    pub fn iter_tiers(self) -> impl Iterator<Item = (TierId, u8)> {
        (0..MAX_TIERS as u8).map(move |s| (TierId(s), self.slot(s))).filter(|&(_, c)| c > 0)
    }

    /// Validates the vector against a cluster with `num_tiers` configured
    /// tiers: counts outside configured tiers must be zero and the total
    /// must not exceed [`MAX_REPLICATION`].
    pub fn validate(self, num_tiers: usize) -> Result<()> {
        for s in num_tiers as u8..MAX_TIERS as u8 {
            if self.slot(s) != 0 {
                return Err(FsError::InvalidReplicationVector(format!(
                    "tier slot {s} has {} replicas but only {num_tiers} tiers are configured",
                    self.slot(s)
                )));
            }
        }
        if self.total() > MAX_REPLICATION {
            return Err(FsError::InvalidReplicationVector(format!(
                "total replication {} exceeds maximum {MAX_REPLICATION}",
                self.total()
            )));
        }
        Ok(())
    }

    /// Computes the change from `self` to `target` (paper §2.3's
    /// move/copy/add/delete semantics fall out of this diff).
    pub fn diff(self, target: ReplicationVector) -> VectorDiff {
        let mut per_tier = [0i16; MAX_TIERS];
        for (i, d) in per_tier.iter_mut().enumerate() {
            *d = target.slot(i as u8) as i16 - self.slot(i as u8) as i16;
        }
        VectorDiff {
            per_tier,
            unspecified: target.unspecified() as i16 - self.unspecified() as i16,
        }
    }
}

impl fmt::Debug for ReplicationVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReplicationVector({self})")
    }
}

/// Formats as `<c0,c1,...,c6;U>`, e.g. `<1,0,2,0,0,0,0;0>`. The paper's
/// shorthand ⟨M,S,H,R,U⟩ corresponds to the first four slots plus `U`.
impl fmt::Display for ReplicationVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for s in 0..MAX_TIERS as u8 {
            if s > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.slot(s))?;
        }
        write!(f, ";{}>", self.unspecified())
    }
}

/// Parses the [`fmt::Display`] format, tolerating fewer than seven tier
/// counts (missing slots are zero): `"<1,0,2;0>"`, `"<0,3,0>"`.
impl FromStr for ReplicationVector {
    type Err = FsError;

    fn from_str(s: &str) -> Result<Self> {
        let inner = s
            .trim()
            .strip_prefix('<')
            .and_then(|t| t.strip_suffix('>'))
            .ok_or_else(|| FsError::InvalidReplicationVector(format!("bad format: {s:?}")))?;
        let (tiers_part, unspec_part) = match inner.split_once(';') {
            Some((a, b)) => (a, Some(b)),
            None => (inner, None),
        };
        let mut v = ReplicationVector(0);
        let parse = |tok: &str| {
            tok.trim()
                .parse::<u8>()
                .map_err(|e| FsError::InvalidReplicationVector(format!("{tok:?}: {e}")))
        };
        for (i, tok) in tiers_part.split(',').enumerate() {
            if i >= MAX_TIERS {
                return Err(FsError::InvalidReplicationVector(format!(
                    "too many tier counts in {s:?}"
                )));
            }
            v = v.with_tier(TierId(i as u8), parse(tok)?);
        }
        if let Some(u) = unspec_part {
            v = v.with_unspecified(parse(u)?);
        }
        Ok(v)
    }
}

/// The delta between two replication vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorDiff {
    /// Signed per-tier replica-count changes, indexed by tier slot.
    pub per_tier: [i16; MAX_TIERS],
    /// Signed change of the unspecified count.
    pub unspecified: i16,
}

impl VectorDiff {
    /// Tiers that gain replicas, with the number gained.
    pub fn additions(&self) -> impl Iterator<Item = (TierId, u8)> + '_ {
        self.per_tier
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(i, &d)| (TierId(i as u8), d as u8))
    }

    /// Tiers that lose replicas, with the number lost.
    pub fn removals(&self) -> impl Iterator<Item = (TierId, u8)> + '_ {
        self.per_tier
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d < 0)
            .map(|(i, &d)| (TierId(i as u8), (-d) as u8))
    }

    /// Net change in total replica count.
    pub fn net_total(&self) -> i32 {
        self.per_tier.iter().map(|&d| d as i32).sum::<i32>() + self.unspecified as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips() {
        let v = ReplicationVector::mshru(1, 0, 2, 0, 3);
        let bits = v.to_bits();
        assert_eq!(ReplicationVector::from_bits(bits), v);
        assert_eq!(v.storage_tier(StorageTier::Memory), 1);
        assert_eq!(v.storage_tier(StorageTier::Hdd), 2);
        assert_eq!(v.unspecified(), 3);
        assert_eq!(v.total(), 6);
    }

    #[test]
    fn from_replication_factor_is_backwards_compatible() {
        let v = ReplicationVector::from_replication_factor(3);
        assert_eq!(v.total(), 3);
        assert_eq!(v.unspecified(), 3);
    }

    #[test]
    fn display_and_parse() {
        let v = ReplicationVector::msh(1, 0, 2);
        assert_eq!(v.to_string(), "<1,0,2,0,0,0,0;0>");
        assert_eq!("<1,0,2,0,0,0,0;0>".parse::<ReplicationVector>().unwrap(), v);
        assert_eq!("<1,0,2>".parse::<ReplicationVector>().unwrap(), v);
        assert_eq!(
            "<0,1,0;2>".parse::<ReplicationVector>().unwrap(),
            ReplicationVector::msh(0, 1, 0).with_unspecified(2)
        );
        assert!("1,0,2".parse::<ReplicationVector>().is_err());
        assert!("<1,0,2,0,0,0,0,0,0>".parse::<ReplicationVector>().is_err());
        assert!("<a>".parse::<ReplicationVector>().is_err());
    }

    #[test]
    fn paper_move_example() {
        // ⟨1,0,2⟩ → ⟨1,1,1⟩ moves one replica from HDD to SSD.
        let d = ReplicationVector::msh(1, 0, 2).diff(ReplicationVector::msh(1, 1, 1));
        let adds: Vec<_> = d.additions().collect();
        let rems: Vec<_> = d.removals().collect();
        assert_eq!(adds, vec![(StorageTier::Ssd.id(), 1)]);
        assert_eq!(rems, vec![(StorageTier::Hdd.id(), 1)]);
        assert_eq!(d.net_total(), 0);
    }

    #[test]
    fn paper_copy_example() {
        // ⟨1,0,2⟩ → ⟨1,1,2⟩ copies one replica to SSD (total 3 → 4).
        let d = ReplicationVector::msh(1, 0, 2).diff(ReplicationVector::msh(1, 1, 2));
        assert_eq!(d.additions().collect::<Vec<_>>(), vec![(StorageTier::Ssd.id(), 1)]);
        assert_eq!(d.removals().count(), 0);
        assert_eq!(d.net_total(), 1);
    }

    #[test]
    fn paper_delete_example() {
        // ⟨1,0,2⟩ → ⟨0,0,2⟩ deletes the in-memory replica (total 3 → 2).
        let d = ReplicationVector::msh(1, 0, 2).diff(ReplicationVector::msh(0, 0, 2));
        assert_eq!(d.removals().collect::<Vec<_>>(), vec![(StorageTier::Memory.id(), 1)]);
        assert_eq!(d.net_total(), -1);
    }

    #[test]
    fn validate_rejects_unconfigured_tier_and_excess_total() {
        let v = ReplicationVector::mshru(0, 0, 0, 2, 0);
        assert!(v.validate(3).is_err()); // remote tier not configured
        assert!(v.validate(4).is_ok());
        let big = ReplicationVector::from_replication_factor(200);
        assert!(big.validate(3).is_err());
        assert!(ReplicationVector::from_replication_factor(16).validate(3).is_ok());
        assert!(ReplicationVector::from_replication_factor(17).validate(3).is_err());
    }

    #[test]
    fn iter_tiers_skips_zeroes() {
        let v = ReplicationVector::msh(1, 0, 2);
        let got: Vec<_> = v.iter_tiers().collect();
        assert_eq!(got, vec![(TierId(0), 1), (TierId(2), 2)]);
    }
}
