//! Worker-side storage for OctopusFS.
//!
//! Each worker manages several *storage media* (paper §2.2) — e.g. one
//! memory device, one SSD, three HDDs — grouped cluster-wide into tiers.
//! This crate provides:
//!
//! - [`BlockStore`]: the interface one medium exposes (put/get/delete blocks
//!   with checksum verification),
//! - two implementations: [`MemoryStore`] (heap-backed: the Memory tier,
//!   every tier of an in-memory cluster, and the simulator's media, which
//!   hold synthetic descriptors) and [`FileStore`] (real files on local
//!   disk, persistent tiers),
//! - [`Media`]: one medium's store, tier, nominal throughputs and
//!   active-connection count, which heartbeats report.

#![forbid(unsafe_code)]

mod file;
mod media;
mod memory;
mod store;

pub use file::FileStore;
pub use media::{ConnGuard, Media};
pub use memory::MemoryStore;
pub use store::{BlockStore, StoredBlockInfo};
