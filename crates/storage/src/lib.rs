//! Worker-side storage for OctopusFS.
//!
//! Each worker manages several *storage media* (paper §2.2) — e.g. one
//! memory device, one SSD, three HDDs — grouped cluster-wide into tiers.
//! This crate provides:
//!
//! - [`BlockStore`]: the interface one medium exposes (put/get/delete blocks
//!   with checksum verification),
//! - three implementations: [`MemoryStore`] (heap-backed, the Memory tier),
//!   [`FileStore`] (real files on local disk, persistent tiers), and
//!   [`SimStore`] (metadata-only, used by the simulation-scale experiments),
//! - [`Media`]: one medium's store, tier, nominal throughputs and
//!   active-connection count, which heartbeats report,
//! - [`probe`]: the startup I/O test that measures each medium's sustained
//!   write/read throughput (paper §3.2, "Throughput maximization").

#![forbid(unsafe_code)]

mod file;
mod media;
mod memory;
mod probe;
mod sim;
mod store;

pub use file::FileStore;
pub use media::{ConnGuard, Media};
pub use memory::MemoryStore;
pub use probe::{probe, ProbeResult};
pub use sim::SimStore;
pub use store::{BlockStore, StoredBlockInfo};
