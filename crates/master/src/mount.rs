//! Stand-alone remote storage (paper §2.4): an external storage system
//! mounted as a virtual extension of the namespace at a directory.
//!
//! "The directory namespace is appended with information from the remote
//! storage and provides a unified view and access methods to all data."
//! The mounted subtree is read-only through OctopusFS; applications
//! typically *import* hot external files into the cluster tiers (the
//! MixApart-style caching the paper references) and then operate on the
//! imported copies.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use octopus_common::{FsError, ReplicationVector, Result};

use crate::namespace::DirEntry;

/// Status of an external entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalStatus {
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// File length in bytes (0 for directories).
    pub len: u64,
}

/// A read-only external storage system (another DFS, cloud object store,
/// NAS export, ...).
pub trait ExternalCatalog: Send + Sync {
    /// Human-readable identifier (shown in errors and reports).
    fn name(&self) -> &str;

    /// Lists a directory. `rel` is relative to the catalog root; `""` is
    /// the root itself.
    fn list(&self, rel: &str) -> Result<Vec<DirEntry>>;

    /// Status of an entry.
    fn status(&self, rel: &str) -> Result<ExternalStatus>;

    /// Reads a whole file.
    fn read(&self, rel: &str) -> Result<Vec<u8>>;
}

/// Mount points and their catalogs.
#[derive(Default)]
pub struct MountTable {
    mounts: Vec<(String, Arc<dyn ExternalCatalog>)>,
}

fn normalize(path: &str) -> String {
    let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    format!("/{}", comps.join("/"))
}

impl MountTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a catalog at `mount_point`. Rejects duplicate or nested
    /// mount points.
    pub fn add(&mut self, mount_point: &str, catalog: Arc<dyn ExternalCatalog>) -> Result<()> {
        let mp = normalize(mount_point);
        if mp == "/" {
            return Err(FsError::InvalidPath("cannot mount at /".into()));
        }
        for (existing, _) in &self.mounts {
            let nested = mp.starts_with(&format!("{existing}/"))
                || existing.starts_with(&format!("{mp}/"))
                || *existing == mp;
            if nested {
                return Err(FsError::AlreadyExists(format!(
                    "mount {mp} conflicts with existing mount {existing}"
                )));
            }
        }
        self.mounts.push((mp, catalog));
        Ok(())
    }

    /// Resolves a path to `(catalog, relative path)` when it falls under a
    /// mount point. The catalog handle is cloned out so the caller can
    /// release whatever lock guards the table before doing catalog I/O.
    pub fn resolve(&self, path: &str) -> Option<(Arc<dyn ExternalCatalog>, String)> {
        if self.mounts.is_empty() {
            return None; // every stat/list asks; most clusters mount nothing
        }
        let p = normalize(path);
        for (mp, cat) in &self.mounts {
            if p == *mp {
                return Some((Arc::clone(cat), String::new()));
            }
            if let Some(rel) = p.strip_prefix(&format!("{mp}/")) {
                return Some((Arc::clone(cat), rel.to_string()));
            }
        }
        None
    }

    /// All mount points.
    pub fn mount_points(&self) -> Vec<&str> {
        self.mounts.iter().map(|(m, _)| m.as_str()).collect()
    }

    /// Whether any mounts exist.
    pub fn is_empty(&self) -> bool {
        self.mounts.is_empty()
    }
}

/// A catalog backed by an in-memory map — used in tests and as the
/// reference implementation.
#[derive(Default)]
pub struct InMemoryCatalog {
    name: String,
    files: HashMap<String, Vec<u8>>,
}

impl InMemoryCatalog {
    /// Creates a named catalog.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), files: HashMap::new() }
    }

    /// Adds a file at a `/`-separated relative path.
    pub fn insert(&mut self, rel: &str, data: Vec<u8>) {
        self.files.insert(rel.trim_matches('/').to_string(), data);
    }
}

impl ExternalCatalog for InMemoryCatalog {
    fn name(&self) -> &str {
        &self.name
    }

    fn list(&self, rel: &str) -> Result<Vec<DirEntry>> {
        let prefix = if rel.is_empty() { String::new() } else { format!("{rel}/") };
        let mut seen = std::collections::BTreeMap::new();
        for (path, data) in &self.files {
            let Some(rest) = path.strip_prefix(&prefix) else { continue };
            match rest.split_once('/') {
                Some((dir, _)) => {
                    seen.entry(dir.to_string()).or_insert((true, 0));
                }
                None => {
                    seen.insert(rest.to_string(), (false, data.len() as u64));
                }
            }
        }
        if seen.is_empty() && !rel.is_empty() && !self.files.contains_key(rel) {
            return Err(FsError::NotFound(rel.to_string()));
        }
        Ok(seen
            .into_iter()
            .map(|(name, (is_dir, len))| DirEntry {
                name,
                is_dir,
                len,
                rv: ReplicationVector::EMPTY,
            })
            .collect())
    }

    fn status(&self, rel: &str) -> Result<ExternalStatus> {
        if rel.is_empty() {
            return Ok(ExternalStatus { is_dir: true, len: 0 });
        }
        if let Some(d) = self.files.get(rel) {
            return Ok(ExternalStatus { is_dir: false, len: d.len() as u64 });
        }
        let prefix = format!("{rel}/");
        if self.files.keys().any(|k| k.starts_with(&prefix)) {
            return Ok(ExternalStatus { is_dir: true, len: 0 });
        }
        Err(FsError::NotFound(rel.to_string()))
    }

    fn read(&self, rel: &str) -> Result<Vec<u8>> {
        self.files.get(rel).cloned().ok_or_else(|| FsError::NotFound(rel.to_string()))
    }
}

/// A catalog exposing a host directory read-only (mounting a NAS export
/// or staging area into the namespace).
pub struct LocalDirCatalog {
    name: String,
    root: PathBuf,
}

impl LocalDirCatalog {
    /// Creates a catalog rooted at an existing directory.
    pub fn new(name: &str, root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(FsError::NotFound(root.display().to_string()));
        }
        Ok(Self { name: name.to_string(), root })
    }

    fn safe_join(&self, rel: &str) -> Result<PathBuf> {
        let mut p = self.root.clone();
        for comp in rel.split('/').filter(|c| !c.is_empty()) {
            if comp == "." || comp == ".." {
                return Err(FsError::InvalidPath(format!("{rel:?} escapes the mount")));
            }
            p.push(comp);
        }
        Ok(p)
    }
}

impl ExternalCatalog for LocalDirCatalog {
    fn name(&self) -> &str {
        &self.name
    }

    fn list(&self, rel: &str) -> Result<Vec<DirEntry>> {
        let dir = self.safe_join(rel)?;
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            out.push(DirEntry {
                name: entry.file_name().to_string_lossy().into_owned(),
                is_dir: meta.is_dir(),
                len: if meta.is_dir() { 0 } else { meta.len() },
                rv: ReplicationVector::EMPTY,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn status(&self, rel: &str) -> Result<ExternalStatus> {
        let p = self.safe_join(rel)?;
        let meta = std::fs::metadata(&p).map_err(|_| FsError::NotFound(p.display().to_string()))?;
        Ok(ExternalStatus {
            is_dir: meta.is_dir(),
            len: if meta.is_dir() { 0 } else { meta.len() },
        })
    }

    fn read(&self, rel: &str) -> Result<Vec<u8>> {
        let p = self.safe_join(rel)?;
        std::fs::read(&p).map_err(|_| FsError::NotFound(p.display().to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Arc<dyn ExternalCatalog> {
        let mut c = InMemoryCatalog::new("warehouse");
        c.insert("sales/2026/q1.csv", vec![1; 100]);
        c.insert("sales/2026/q2.csv", vec![2; 200]);
        c.insert("readme.txt", vec![3; 10]);
        Arc::new(c)
    }

    #[test]
    fn mount_table_resolution() {
        let mut mt = MountTable::new();
        mt.add("/remote/wh", catalog()).unwrap();
        assert!(mt.resolve("/remote/wh").is_some());
        let (cat, rel) = mt.resolve("/remote/wh/sales/2026/q1.csv").unwrap();
        assert_eq!(cat.name(), "warehouse");
        assert_eq!(rel, "sales/2026/q1.csv");
        assert!(mt.resolve("/remote/other").is_none());
        assert!(mt.resolve("/local/file").is_none());
        assert_eq!(mt.mount_points(), vec!["/remote/wh"]);
    }

    #[test]
    fn mount_conflicts_rejected() {
        let mut mt = MountTable::new();
        mt.add("/m", catalog()).unwrap();
        assert!(mt.add("/m", catalog()).is_err());
        assert!(mt.add("/m/nested", catalog()).is_err());
        assert!(mt.add("/", catalog()).is_err());
        mt.add("/other", catalog()).unwrap();
    }

    #[test]
    fn in_memory_catalog_listing_and_reads() {
        let c = catalog();
        let root = c.list("").unwrap();
        let names: Vec<&str> = root.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["readme.txt", "sales"]);
        assert!(root[1].is_dir);
        let q = c.list("sales/2026").unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].len, 100);
        assert_eq!(c.read("sales/2026/q2.csv").unwrap().len(), 200);
        assert!(c.read("nope").is_err());
        assert!(c.status("sales").unwrap().is_dir);
        assert!(!c.status("readme.txt").unwrap().is_dir);
        assert!(c.status("missing").is_err());
    }

    #[test]
    fn local_dir_catalog() {
        let dir = std::env::temp_dir().join(format!(
            "octopus_mount_{}_{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a.bin"), vec![9u8; 50]).unwrap();
        std::fs::write(dir.join("sub/b.bin"), vec![8u8; 60]).unwrap();

        let c = LocalDirCatalog::new("nas", &dir).unwrap();
        let entries = c.list("").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(c.read("sub/b.bin").unwrap(), vec![8u8; 60]);
        assert_eq!(c.status("a.bin").unwrap().len, 50);
        assert!(c.safe_join("../escape").is_err());
        assert!(LocalDirCatalog::new("missing", dir.join("nope")).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
