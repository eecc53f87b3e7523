//! Integration tests of the `octofs` CLI: a persistent single-process
//! OctopusFS instance driven across separate invocations.

use std::path::PathBuf;
use std::process::Command;

struct Cli {
    root: PathBuf,
}

impl Cli {
    fn new(tag: &str) -> Cli {
        let root = std::env::temp_dir().join(format!(
            "octofs_cli_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        Cli { root }
    }

    fn run(&self, args: &[&str]) -> (bool, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_octofs"))
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("spawn octofs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    fn ok(&self, args: &[&str]) -> String {
        let (success, stdout, stderr) = self.run(args);
        assert!(success, "octofs {args:?} failed: {stderr}");
        stdout
    }
}

impl Drop for Cli {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

#[test]
fn full_lifecycle_across_invocations() {
    let cli = Cli::new("lifecycle");
    cli.ok(&["init", "--workers", "4", "--block-size", "65536"]);

    // Stage a local file.
    let local = cli.root.join("input.bin");
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 127) as u8).collect();
    std::fs::write(&local, &data).unwrap();

    cli.ok(&["mkdir", "/data"]);
    cli.ok(&["put", local.to_str().unwrap(), "/data/file", "--rv", "<0,1,1>"]);

    // Separate invocation: list and read back.
    let ls = cli.ok(&["ls", "/data"]);
    assert!(ls.contains("file"), "{ls}");
    let cat = cli.ok(&["cat", "/data/file"]);
    assert_eq!(cat.as_bytes(), &data[..]);

    // Download.
    let out = cli.root.join("out.bin");
    cli.ok(&["get", "/data/file", out.to_str().unwrap()]);
    assert_eq!(std::fs::read(&out).unwrap(), data);

    // Rename and re-read in yet another invocation.
    cli.ok(&["mv", "/data/file", "/data/renamed"]);
    let cat = cli.ok(&["cat", "/data/renamed"]);
    assert_eq!(cat.len(), data.len());

    // Change the replication vector (realized before exit).
    let out = cli.ok(&["setrep", "/data/renamed", "<0,2,0>"]);
    assert!(out.contains("->"), "{out}");

    // Report shows tiers and counts.
    let report = cli.ok(&["report"]);
    assert!(report.contains("files"), "{report}");
    assert!(report.contains("SSD"), "{report}");

    // fsck is clean.
    let fsck = cli.ok(&["fsck"]);
    assert!(fsck.contains("0 corrupt"), "{fsck}");

    // Delete.
    cli.ok(&["rm", "/data/renamed"]);
    let (success, _, stderr) = cli.run(&["cat", "/data/renamed"]);
    assert!(!success);
    assert!(stderr.contains("not found"), "{stderr}");
}

/// `get` streams a file of many blocks a window of blocks at a time: 17
/// full 64 KiB blocks and an odd tail arrive byte for byte. A directory or
/// a missing path fails before any local file is made, and a read that
/// fails (every replica corrupt) leaves no partial copy.
#[test]
fn get_streams_a_file_of_many_blocks() {
    let cli = Cli::new("get");
    cli.ok(&["init", "--workers", "3", "--block-size", "65536"]);
    let local = cli.root.join("big.bin");
    let data: Vec<u8> =
        (0..17 * 65_536 + 4_321u32).map(|i| (i % 251) as u8 ^ (i >> 16) as u8).collect();
    std::fs::write(&local, &data).unwrap();
    cli.ok(&["put", local.to_str().unwrap(), "/big"]);

    let out = cli.root.join("big.out");
    let printed = cli.ok(&["get", "/big", out.to_str().unwrap()]);
    assert!(printed.starts_with("copied /big -> "), "{printed}");
    assert!(std::fs::read(&out).unwrap() == data, "get must copy every byte");

    cli.ok(&["mkdir", "/dir"]);
    for (path, error) in [("/dir", "is a directory"), ("/missing", "not found")] {
        let refused = cli.root.join("refused.out");
        let (success, _, stderr) = cli.run(&["get", path, refused.to_str().unwrap()]);
        assert!(!success && stderr.contains(error), "get {path}: {stderr}");
        assert!(!refused.exists(), "get {path} made a local file");
    }

    for replica in block_files(&cli.root) {
        let mut bytes = std::fs::read(&replica).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&replica, bytes).unwrap();
    }
    let failed = cli.root.join("failed.out");
    let (success, _, stderr) = cli.run(&["get", "/big", failed.to_str().unwrap()]);
    assert!(!success, "a get of corrupt replicas must fail");
    assert!(!failed.exists(), "a failed get left a partial copy: {stderr}");
}

/// Every `blk_*.dat` under `dir`.
fn block_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            found.extend(block_files(&path));
        } else if name.starts_with("blk_") && name.ends_with(".dat") {
            found.push(path);
        }
    }
    found
}

#[test]
fn init_is_guarded() {
    let cli = Cli::new("guard");
    // Commands before init fail with guidance.
    let (success, _, stderr) = cli.run(&["ls", "/"]);
    assert!(!success);
    assert!(stderr.contains("init"), "{stderr}");

    cli.ok(&["init"]);
    let (success, _, stderr) = cli.run(&["init"]);
    assert!(!success, "double init must fail: {stderr}");
}

#[test]
fn bare_replication_factor_accepted() {
    let cli = Cli::new("repfactor");
    cli.ok(&["init", "--workers", "3"]);
    let local = cli.root.join("f.bin");
    std::fs::write(&local, vec![7u8; 1000]).unwrap();
    cli.ok(&["put", local.to_str().unwrap(), "/f", "--rv", "3"]);
    let ls = cli.ok(&["ls", "/"]);
    assert!(ls.contains(";3>"), "vector with U=3 expected: {ls}");
}

#[test]
fn memory_pinned_replicas_recreated_after_restart() {
    // A file pinned ⟨1,0,1⟩ loses its memory replica when the process
    // exits (volatile tier); the next invocation's fsck restores it from
    // the persistent copy.
    let cli = Cli::new("volatile");
    cli.ok(&["init", "--workers", "4", "--block-size", "65536"]);
    let local = cli.root.join("hot.bin");
    std::fs::write(&local, vec![5u8; 100_000]).unwrap();
    cli.ok(&["put", local.to_str().unwrap(), "/hot", "--rv", "<1,0,1>"]);

    // New invocation: the data is still fully readable (HDD copy), and
    // fsck schedules the memory replica's re-creation.
    let cat = cli.ok(&["cat", "/hot"]);
    assert_eq!(cat.len(), 100_000);
    let fsck = cli.ok(&["fsck"]);
    assert!(fsck.contains("repair tasks run"), "{fsck}");
}

#[test]
fn balance_command_runs() {
    let cli = Cli::new("balance");
    cli.ok(&["init", "--workers", "4", "--block-size", "65536"]);
    let local = cli.root.join("f.bin");
    std::fs::write(&local, vec![3u8; 200_000]).unwrap();
    for i in 0..4 {
        cli.ok(&["put", local.to_str().unwrap(), &format!("/f{i}"), "--rv", "1"]);
    }
    let out = cli.ok(&["balance"]);
    assert!(out.contains("replica move(s)"), "{out}");
    // Data still intact afterwards.
    let cat = cli.ok(&["cat", "/f0"]);
    assert_eq!(cat.len(), 200_000);
}

#[test]
fn append_command_extends_file() {
    let cli = Cli::new("append");
    cli.ok(&["init", "--workers", "3", "--block-size", "65536"]);
    let a = cli.root.join("a.bin");
    let b = cli.root.join("b.bin");
    std::fs::write(&a, vec![b'A'; 10_000]).unwrap();
    std::fs::write(&b, vec![b'B'; 5_000]).unwrap();
    cli.ok(&["put", a.to_str().unwrap(), "/log", "--rv", "2"]);
    cli.ok(&["append", b.to_str().unwrap(), "/log"]);
    let cat = cli.ok(&["cat", "/log"]);
    assert_eq!(cat.len(), 15_000);
    assert!(cat.starts_with("AAAA"));
    assert!(cat.ends_with("BBBB"));
}

/// Every invocation is a master restart, so a crash mid-append (a torn
/// record at the end of `edits.log`) is followed by many recoveries: the
/// first must cut the tear off, or the op the next one logs lands behind it
/// and the instance never boots again.
#[test]
fn torn_edit_log_tail_survives_later_invocations() {
    let cli = Cli::new("torn");
    cli.ok(&["init", "--workers", "3", "--block-size", "65536"]);
    cli.ok(&["mkdir", "/before"]);
    let log = cli.root.join("edits.log");
    let mut bytes = std::fs::read(&log).unwrap();
    // Eleven bytes of a record that claimed a 40-byte body.
    bytes.extend_from_slice(&[40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3]);
    std::fs::write(&log, &bytes).unwrap();

    cli.ok(&["mkdir", "/after"]);
    let ls = cli.ok(&["ls", "/"]);
    assert!(ls.contains("before") && ls.contains("after"), "{ls}");
}

/// A flag with no value, and an argument nobody asked for, are usage
/// errors — not an out-of-bounds panic, and not a silent default (`put …
/// --rv` used to write at rf = 2).
#[test]
fn a_flag_without_its_value_prints_usage() {
    let cli = Cli::new("usage");
    let (success, _, stderr) = cli.run(&["init", "--workers"]);
    assert!(!success && stderr.contains("usage: init") && !stderr.contains("panicked"), "{stderr}");
    assert!(!cli.root.join("octofs.conf").exists(), "a refused init must not initialize");

    cli.ok(&["init"]);
    let local = cli.root.join("f.bin");
    std::fs::write(&local, b"x").unwrap();
    for bad in [
        &["put", local.to_str().unwrap(), "/f", "--rv"][..],
        &["put", local.to_str().unwrap(), "/f", "3"],
        &["ls", "/", "--bogus"],
        // A byte count that does not parse once meant 1 MiB.
        &["trace", "write", "/f", "12x"],
    ] {
        let (success, _, stderr) = cli.run(bad);
        assert!(!success && stderr.contains("usage: ") && !stderr.contains("panicked"), "{stderr}");
    }
    assert_eq!(cli.ok(&["ls", "/"]), "", "a refused put or trace must not write");
}

/// A shape boot would refuse is refused before `init` writes anything, so
/// the root is not left half-initialized: the next `init` succeeds and
/// serves commands.
#[test]
fn a_refused_shape_leaves_nothing_behind() {
    let cli = Cli::new("refused");
    for bad in [&["init", "--workers", "0"][..], &["init", "--block-size", "0"]] {
        let (success, _, stderr) = cli.run(bad);
        assert!(!success && !stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(!cli.root.exists(), "{bad:?} left {} behind", cli.root.display());
    }
    cli.ok(&["init", "--workers", "3"]);
    cli.ok(&["mkdir", "/d"]);
    assert!(cli.ok(&["ls", "/"]).contains('d'));
}

/// A zero capacity is a shape no put could use (every medium full from
/// the start), so `init` refuses it by name and writes nothing.
#[test]
fn init_refuses_a_zero_capacity_and_writes_no_config() {
    let cli = Cli::new("zero_capacity");
    let (success, _, stderr) = cli.run(&["init", "--capacity", "0"]);
    assert!(!success && stderr.contains("--capacity"), "{stderr}");
    assert!(!cli.root.join("octofs.conf").exists(), "a refused init wrote octofs.conf");
}
