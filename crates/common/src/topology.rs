//! Hierarchical network topology (paper §3.2).
//!
//! Workers live in racks; the placement and retrieval policies use the
//! topology both for fault tolerance (spread replicas across racks, but over
//! no more than two — Eq. 5) and for locality (prefer node-local, then
//! rack-local transfers).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{FsError, Result};
use crate::ids::WorkerId;

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub u16);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack_{}", self.0)
    }
}

/// Where a client runs relative to the cluster. Collocated clients enable
/// node-local reads/writes; off-cluster clients always pay a network hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientLocation {
    /// The client shares a node with this worker.
    OnWorker(WorkerId),
    /// The client runs outside the cluster.
    OffCluster,
}

/// HDFS-style network distance between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetDistance {
    /// Same node — no network traversal.
    Local,
    /// Different nodes in the same rack — one switch hop.
    SameRack,
    /// Different racks — core switch traversal.
    OffRack,
}

impl NetDistance {
    /// A numeric weight compatible with HDFS's 0/2/4 convention.
    pub fn weight(self) -> u32 {
        match self {
            NetDistance::Local => 0,
            NetDistance::SameRack => 2,
            NetDistance::OffRack => 4,
        }
    }
}

/// The cluster's worker→rack map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    racks: BTreeMap<WorkerId, RackId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a topology with `workers_per_rack` consecutive workers in each
    /// of `num_racks` racks; worker ids are `0..num_racks*workers_per_rack`.
    pub fn uniform(num_racks: u16, workers_per_rack: u32) -> Self {
        let mut t = Self::new();
        let mut next = 0u32;
        for rack in 0..num_racks {
            for _ in 0..workers_per_rack {
                t.add_worker(WorkerId(next), RackId(rack));
                next += 1;
            }
        }
        t
    }

    /// Registers (or re-registers) a worker in a rack.
    pub fn add_worker(&mut self, worker: WorkerId, rack: RackId) {
        self.racks.insert(worker, rack);
    }

    /// Removes a worker (e.g. decommissioned).
    pub fn remove_worker(&mut self, worker: WorkerId) {
        self.racks.remove(&worker);
    }

    /// The rack of a worker.
    pub fn rack_of(&self, worker: WorkerId) -> Result<RackId> {
        self.racks.get(&worker).copied().ok_or_else(|| FsError::UnknownWorker(worker.to_string()))
    }

    /// Number of registered workers (the paper's `n`).
    pub fn num_workers(&self) -> usize {
        self.racks.len()
    }

    /// Number of distinct racks (the paper's `t`).
    pub fn num_racks(&self) -> usize {
        let mut racks: Vec<RackId> = self.racks.values().copied().collect();
        racks.sort_unstable();
        racks.dedup();
        racks.len()
    }

    /// All workers, in id order.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.racks.keys().copied()
    }

    /// All workers in a given rack, in id order.
    pub fn workers_in_rack(&self, rack: RackId) -> impl Iterator<Item = WorkerId> + '_ {
        self.racks.iter().filter(move |&(_, &r)| r == rack).map(|(&w, _)| w)
    }

    /// Network distance between two workers.
    pub fn distance(&self, a: WorkerId, b: WorkerId) -> Result<NetDistance> {
        if a == b {
            return Ok(NetDistance::Local);
        }
        let (ra, rb) = (self.rack_of(a)?, self.rack_of(b)?);
        Ok(if ra == rb { NetDistance::SameRack } else { NetDistance::OffRack })
    }

    /// Network distance from a client to a worker.
    pub fn client_distance(&self, client: ClientLocation, worker: WorkerId) -> Result<NetDistance> {
        match client {
            ClientLocation::OnWorker(w) => self.distance(w, worker),
            ClientLocation::OffCluster => Ok(NetDistance::OffRack),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_expected_layout() {
        let t = Topology::uniform(3, 3);
        assert_eq!(t.num_workers(), 9);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.rack_of(WorkerId(0)).unwrap(), RackId(0));
        assert_eq!(t.rack_of(WorkerId(8)).unwrap(), RackId(2));
        assert_eq!(t.workers_in_rack(RackId(1)).count(), 3);
    }

    #[test]
    fn distances() {
        let t = Topology::uniform(2, 2);
        assert_eq!(t.distance(WorkerId(0), WorkerId(0)).unwrap(), NetDistance::Local);
        assert_eq!(t.distance(WorkerId(0), WorkerId(1)).unwrap(), NetDistance::SameRack);
        assert_eq!(t.distance(WorkerId(0), WorkerId(2)).unwrap(), NetDistance::OffRack);
        assert!(t.distance(WorkerId(0), WorkerId(99)).is_err());
    }

    #[test]
    fn client_distances() {
        let t = Topology::uniform(2, 2);
        assert_eq!(
            t.client_distance(ClientLocation::OnWorker(WorkerId(1)), WorkerId(1)).unwrap(),
            NetDistance::Local
        );
        assert_eq!(
            t.client_distance(ClientLocation::OffCluster, WorkerId(1)).unwrap(),
            NetDistance::OffRack
        );
    }

    #[test]
    fn distance_ordering_matches_weights() {
        assert!(NetDistance::Local < NetDistance::SameRack);
        assert!(NetDistance::SameRack < NetDistance::OffRack);
        assert_eq!(NetDistance::Local.weight(), 0);
        assert_eq!(NetDistance::SameRack.weight(), 2);
        assert_eq!(NetDistance::OffRack.weight(), 4);
    }

    #[test]
    fn remove_worker() {
        let mut t = Topology::uniform(1, 2);
        t.remove_worker(WorkerId(0));
        assert_eq!(t.num_workers(), 1);
        assert!(t.rack_of(WorkerId(0)).is_err());
    }
}
