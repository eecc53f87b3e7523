//! Where things sit in the hierarchical network (paper §3.2): workers live
//! in racks, and a client runs on a worker or outside the cluster. The
//! node-local / rack-local / off-rack distance the baselines order by is
//! computed where it is used (`HdfsLocalityPolicy`), from the racks the
//! workers report in their heartbeats.

use std::fmt;

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
