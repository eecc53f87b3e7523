//! Full multi-process deployment test: one `octofs-master` daemon, three
//! `octofs-worker` daemons (separate OS processes), driven through
//! `octofs-remote` — the closest this repository gets to the paper's real
//! cluster deployment.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns a daemon and extracts the "listening/serving on ADDR" line.
fn spawn_with_addr(bin: &str, args: &[String]) -> (Daemon, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("daemon banner");
    let addr = line.rsplit(' ').next().expect("address in banner").trim().to_string();
    // Keep draining stdout in the background so the daemon never blocks.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while let Ok(n) = reader.read_line(&mut sink) {
            if n == 0 {
                break;
            }
            sink.clear();
        }
    });
    (Daemon(child), addr)
}

fn remote(master: &str, args: &[&str]) -> (bool, String, String) {
    remote_in(Path::new("."), master, args)
}

/// [`remote`], run with `dir` as its working directory.
fn remote_in(dir: &Path, master: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_octofs-remote"))
        .current_dir(dir)
        .arg("--master")
        .arg(master)
        .args(args)
        .output()
        .expect("run octofs-remote");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Polls `report` until every tier shows `workers` media, i.e. all the
/// workers have registered, then waits one more heartbeat round so every
/// worker has the full peer map (pipeline forwarding needs it).
fn wait_for_workers(master: &str, workers: u32) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (ok, out, _) = remote(master, &["report"]);
        if ok && out.contains(&format!("media={workers}")) {
            break;
        }
        assert!(Instant::now() < deadline, "workers never registered");
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(150));
}

#[test]
fn multiprocess_deployment_end_to_end() {
    // Master process.
    let mut margs = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    margs.extend(["--block-size".to_string(), "65536".to_string()]);
    margs.extend(["--heartbeat-ms".to_string(), "50".to_string()]);
    let (_master, master_addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);

    // Three worker processes.
    let mut daemons = Vec::new();
    for id in 0..3 {
        let mut wargs =
            vec!["--master".to_string(), master_addr.clone(), "--id".to_string(), id.to_string()];
        wargs.extend(["--capacity".to_string(), "67108864".to_string()]);
        let (d, _) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs);
        daemons.push(d);
    }

    wait_for_workers(&master_addr, 3);

    // How the master's last recovery went is a scrape away — here, from an
    // empty log.
    let (ok, out, err) = remote(&master_addr, &["metrics"]);
    assert!(ok, "{err}");
    for series in
        ["ops_total 0", "us ", "path_hits_total 0", "parent_hits_total 0", "walks_total 0"]
    {
        let line = format!("master_replay_{series}");
        assert!(out.lines().any(|l| l.starts_with(&line)), "no `{line}` in:\n{out}");
    }

    // Drive a full lifecycle through separate octofs-remote invocations.
    let tmp = std::env::temp_dir().join(format!(
        "octofs_daemon_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&tmp).unwrap();
    let local = tmp.join("in.bin");
    let data: Vec<u8> = (0..300_000u32).map(|i| (i % 113) as u8).collect();
    std::fs::write(&local, &data).unwrap();

    let (ok, _, err) = remote(&master_addr, &["mkdir", "/data"]);
    assert!(ok, "{err}");
    let (ok, _, err) =
        remote(&master_addr, &["put", local.to_str().unwrap(), "/data/f", "--rv", "<0,1,2>"]);
    assert!(ok, "{err}");

    let (ok, out, err) = remote(&master_addr, &["ls", "/data"]);
    assert!(ok, "{err}");
    assert!(out.contains('f'), "{out}");

    let (ok, out, err) = remote(&master_addr, &["cat", "/data/f"]);
    assert!(ok, "{err}");
    assert_eq!(out.as_bytes(), &data[..], "content survives three processes and TCP");

    let fetched = tmp.join("out.bin");
    let (ok, _, err) = remote(&master_addr, &["get", "/data/f", fetched.to_str().unwrap()]);
    assert!(ok, "{err}");
    assert_eq!(std::fs::read(&fetched).unwrap(), data);

    let (ok, out, err) = remote(&master_addr, &["setrep", "/data/f", "<0,2,1>"]);
    assert!(ok, "{err}");
    assert!(out.contains("->"), "{out}");

    // `trace` opens a root of its own around the operation (the client
    // traces nothing unasked) and prints the critical path stitched across
    // the three kinds of process. It dumps the span tree under
    // `results/traces/` of its working directory: here, `tmp`.
    for step in [&["trace", "write", "/traced", "200000"][..], &["trace", "read", "/traced"]] {
        let (ok, out, err) = remote_in(&tmp, &master_addr, step);
        assert!(ok, "{step:?}: {err}");
        for node in ["[client]", "[master]", "[worker-"] {
            assert!(out.contains(node), "{step:?}: no {node} segment in:\n{out}");
        }
    }
    assert_eq!(std::fs::read_dir(tmp.join("results/traces")).unwrap().count(), 2, "two dumps");

    let (ok, _, err) = remote(&master_addr, &["rm", "/data/f"]);
    assert!(ok, "{err}");
    let (ok, _, _) = remote(&master_addr, &["cat", "/data/f"]);
    assert!(!ok, "deleted file must not be readable");

    // A quota set by one invocation refuses the write of the next: 300,000
    // bytes pinned to SSD do not fit under 100,000, and do once it is lifted.
    let put_ssd = ["put", local.to_str().unwrap(), "/data/q", "--rv", "<0,1,0>"];
    let (ok, out, err) =
        remote(&master_addr, &["quota", "/data", "--tier", "1", "--bytes", "100000"]);
    assert!(ok, "{err}");
    assert!(out.contains("/data tier 1: 0 of 100000 bytes"), "{out}");
    let (ok, _, err) = remote(&master_addr, &put_ssd);
    assert!(!ok && err.contains("quota exceeded"), "a write over the quota went through: {err}");
    let (ok, _, err) = remote(&master_addr, &["rm", "/data/q"]);
    assert!(ok, "{err}");
    let (ok, out, err) = remote(&master_addr, &["quota", "/data", "--clear"]);
    assert!(ok, "{err}");
    assert_eq!(out, "", "no limit and no usage: nothing to print");
    let (ok, _, err) = remote(&master_addr, &put_ssd);
    assert!(ok, "{err}");
    let (ok, out, err) = remote(&master_addr, &["quota", "/data"]);
    assert!(ok, "{err}");
    assert_eq!(out, "/data tier 1: 300000 bytes, unlimited\n");

    std::fs::remove_dir_all(tmp).ok();
    drop(daemons);
}

#[test]
fn daemon_deployment_self_heals_after_worker_crash() {
    let mut margs = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    margs.extend(["--block-size".to_string(), "65536".to_string()]);
    margs.extend(["--heartbeat-ms".to_string(), "40".to_string()]);
    let (_master, master_addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);

    let mut daemons = Vec::new();
    for id in 0..4 {
        let mut wargs =
            vec!["--master".to_string(), master_addr.clone(), "--id".to_string(), id.to_string()];
        wargs.extend(["--capacity".to_string(), "67108864".to_string()]);
        let (d, _) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs);
        daemons.push(d);
    }

    wait_for_workers(&master_addr, 4);

    let tmp = std::env::temp_dir().join(format!(
        "octofs_heal_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&tmp).unwrap();
    let local = tmp.join("in.bin");
    let data: Vec<u8> = (0..150_000u32).map(|i| (i % 101) as u8).collect();
    std::fs::write(&local, &data).unwrap();
    let (ok, _, err) =
        remote(&master_addr, &["put", local.to_str().unwrap(), "/hafile", "--rv", "2"]);
    assert!(ok, "{err}");

    // Crash one worker process outright.
    let victim = daemons.remove(0);
    drop(victim); // kills the child

    // The master declares it dead after ~10 missed heartbeats (40 ms each)
    // and the daemon's monitor thread re-replicates. Poll until the file
    // is fully replicated on the survivors and still byte-identical.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (ok, out, _) = remote(&master_addr, &["cat", "/hafile"]);
        if ok && out.as_bytes() == &data[..] {
            break;
        }
        assert!(Instant::now() < deadline, "file unreadable after worker crash (ok={ok})");
        std::thread::sleep(Duration::from_millis(100));
    }
    std::fs::remove_dir_all(tmp).ok();
}

#[test]
fn worker_daemon_restart_recovers_on_disk_blocks() {
    // A worker daemon with --dir persists its block files; after a crash
    // and restart, its block report re-registers the replicas.
    let tmp = std::env::temp_dir().join(format!(
        "octofs_persist_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&tmp).unwrap();

    let mut margs = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    margs.extend(["--block-size".to_string(), "65536".to_string()]);
    margs.extend(["--heartbeat-ms".to_string(), "40".to_string()]);
    let (_master, master_addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);

    let spawn_worker = |id: u32| {
        let mut wargs = vec![
            "--master".to_string(),
            master_addr.clone(),
            "--id".to_string(),
            id.to_string(),
            "--dir".to_string(),
            tmp.join(format!("w{id}")).to_string_lossy().into_owned(),
        ];
        wargs.extend(["--capacity".to_string(), "67108864".to_string()]);
        spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs)
    };
    let (w0, _) = spawn_worker(0);
    let (_w1, _) = spawn_worker(1);

    wait_for_workers(&master_addr, 2);

    // Write to persistent tiers only (memory is volatile by design).
    let local = tmp.join("in.bin");
    let data: Vec<u8> = (0..120_000u32).map(|i| (i % 89) as u8).collect();
    std::fs::write(&local, &data).unwrap();
    let (ok, _, err) =
        remote(&master_addr, &["put", local.to_str().unwrap(), "/p", "--rv", "<0,1,1>"]);
    assert!(ok, "{err}");

    // Crash worker 0, restart it with the same --dir and --id.
    drop(w0);
    std::thread::sleep(Duration::from_millis(200));
    let (_w0b, _) = spawn_worker(0);

    // After re-registration + block report, the file is fully readable
    // again with both replicas present.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (ok, out, _) = remote(&master_addr, &["cat", "/p"]);
        if ok && out.as_bytes() == &data[..] {
            break;
        }
        assert!(Instant::now() < deadline, "restarted worker never served its blocks");
        std::thread::sleep(Duration::from_millis(100));
    }
    std::fs::remove_dir_all(tmp).ok();
}

#[test]
fn a_worker_started_late_stays_live_under_the_earlier_workers_heartbeats() {
    // Regression: worker daemons stamped heartbeats from their own process
    // epoch, and the master's failure detector runs on every heartbeat
    // with *that* worker's stamp — so once worker 0 had been up longer
    // than the dead-worker horizon (50 ms × 10), each of its heartbeats
    // declared the freshly started worker 1 dead and stripped its replica
    // locations, until worker 1's own next heartbeat revived it.
    let mut margs = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    margs.extend(["--block-size".to_string(), "65536".to_string()]);
    margs.extend(["--heartbeat-ms".to_string(), "50".to_string()]);
    let (_master, master_addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);

    let spawn_worker = |id: u32| {
        let mut wargs =
            vec!["--master".to_string(), master_addr.clone(), "--id".to_string(), id.to_string()];
        wargs.extend(["--capacity".to_string(), "67108864".to_string()]);
        spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0
    };
    let _w0 = spawn_worker(0);
    std::thread::sleep(Duration::from_millis(1200));
    let _w1 = spawn_worker(1);

    wait_for_workers(&master_addr, 2);

    let fs = octopusfs::RemoteFs::connect(
        master_addr.parse().unwrap(),
        octopusfs::ClientLocation::OffCluster,
    )
    .unwrap();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 97) as u8).collect();
    fs.write_file("/late", &data, octopusfs::ReplicationVector::from_replication_factor(2))
        .unwrap();

    // Thirty heartbeat intervals: both workers live and both replicas of
    // every block located at every single poll.
    for poll in 0..30 {
        let status = fs.cluster_status().unwrap();
        assert_eq!(status.workers.len(), 2);
        for w in &status.workers {
            assert!(w.live, "poll {poll}: worker {:?} declared dead: {status:?}", w.worker);
        }
        for lb in fs.get_file_block_locations("/late", 0, u64::MAX).unwrap() {
            assert_eq!(lb.locations.len(), 2, "poll {poll}: replica location lost: {lb:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(fs.read_file("/late").unwrap(), data);
}

/// A flag with no value used to index past the argument list and panic;
/// it is a usage error in every binary (`octofs` has its case in
/// `tests/cli.rs`). So is a flag a daemon does not take — among them the
/// shape flags, which only `octofs init` takes, and the master's removed
/// `--autotier-ms` (`--autotier-bps` alone turns tiering on) — and a worker
/// id past a `u16`. A zero heartbeat interval, which would spin the
/// master's rounds and kill every worker, is refused before the master
/// serves.
#[test]
fn a_flag_without_its_value_prints_usage_in_every_daemon_binary() {
    let (master, worker) =
        (env!("CARGO_BIN_EXE_octofs-master"), env!("CARGO_BIN_EXE_octofs-worker"));
    let usage = "usage: octofs-";
    let mut cases = vec![
        (master, vec!["--listen"], usage),
        (worker, vec!["--master", "127.0.0.1:1", "--id"], usage),
        (env!("CARGO_BIN_EXE_octofs-remote"), vec!["ls", "/", "--master"], usage),
        (master, vec!["--bogus", "1"], usage),
        (master, vec!["--heartbeat-ms", "0"], "heartbeat interval must be positive"),
        (worker, vec!["--master", "127.0.0.1:1", "--id", "65536"], "bad value \"65536\""),
    ];
    for flag in ["--workers", "--capacity", "--autotier-ms"] {
        cases.push((master, vec![flag, "3"], "unknown flag"));
    }
    for flag in ["--workers", "--block-size", "--heartbeat-ms"] {
        cases.push((
            worker,
            vec!["--master", "127.0.0.1:1", "--id", "0", flag, "3"],
            "unknown flag",
        ));
    }
    for (bin, args, want) in cases {
        let out = Command::new(bin).args(&args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} succeeded");
        assert!(stderr.contains(want), "{bin} {args:?}: no {want:?} in: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

/// The CLI counterpart of `transport_parity.rs`: `octofs --root` and
/// `octofs-remote --master` run one command table over one client, so one
/// script prints the same lines and fails with the same errors through
/// both — the single-process shell over function calls, the remote one
/// over three daemon processes and TCP.
#[test]
fn one_script_prints_the_same_through_both_shells() {
    let tmp = std::env::temp_dir().join(format!(
        "octofs_parity_{}_{}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&tmp).unwrap();
    let (a, b) = (tmp.join("a.bin"), tmp.join("b.bin"));
    std::fs::write(&a, (0..150_000u32).map(|i| (i % 83) as u8).collect::<Vec<u8>>()).unwrap();
    std::fs::write(&b, vec![b'B'; 70_000]).unwrap();
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

    let shape = ["--workers", "3", "--block-size", "65536", "--capacity", "67108864"];
    let shape: Vec<String> = shape.iter().map(|s| s.to_string()).collect();
    // The master takes the block size, each worker the capacity.
    let mut margs = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    margs.extend(shape[2..4].iter().cloned());
    margs.extend(["--heartbeat-ms".to_string(), "50".to_string()]);
    let (_master, master_addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let mut daemons = Vec::new();
    for id in 0..3 {
        let mut wargs = vec!["--master".to_string(), master_addr.clone(), "--id".to_string()];
        wargs.push(id.to_string());
        wargs.extend(shape[4..].iter().cloned());
        daemons.push(spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0);
    }
    wait_for_workers(&master_addr, 3);

    let root = tmp.join("root");
    let local = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_octofs"))
            .arg("--root")
            .arg(&root)
            .args(args)
            .output()
            .expect("run octofs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let mut init = vec!["init"];
    init.extend(shape.iter().map(String::as_str));
    assert!(local(&init).0);

    // What a failed command says: the logged error, without the log
    // line's timestamp and target (the binary's own name).
    let error = |stderr: &str| stderr.split_once("err=").map(|(_, e)| e.trim().to_string());

    let script: &[(bool, &[&str])] = &[
        (true, &["mkdir", "/d"]),
        (true, &["mkdir", "/d/sub"]),
        (true, &["put", a, "/d/f", "--rv", "<0,1,1>"]),
        (true, &["ls", "/d"]),
        (true, &["cat", "/d/f"]),
        (true, &["append", b, "/d/f"]),
        (true, &["cat", "/d/f"]),
        (true, &["setrep", "/d/f", "<0,2,0>"]),
        (true, &["ls", "/d"]),
        (true, &["quota", "/d", "--tier", "1", "--bytes", "500000"]),
        (true, &["quota", "/d"]),
        (false, &["put", a, "/d/over", "--rv", "<0,1,0>"]),
        (false, &["put", a, "/d/f"]),
        (false, &["put", a, "/d/g", "--rv"]),
        (false, &["mv", "/d/missing", "/d/x"]),
        (false, &["rm", "/d"]),
        (true, &["rm", "-r", "/d"]),
        (false, &["cat", "/d/f"]),
        (false, &["ls", "/d"]),
        (true, &["ls", "/"]),
    ];
    for (ok, step) in script {
        let (l_ok, l_out, l_err) = local(step);
        let (r_ok, r_out, r_err) = remote(&master_addr, step);
        assert_eq!((l_ok, r_ok), (*ok, *ok), "{step:?}: octofs {l_err:?}, octofs-remote {r_err:?}");
        assert_eq!(l_out, r_out, "{step:?}: stdout differs");
        if !ok {
            assert!(error(&l_err).is_some(), "{step:?}: nothing logged: {l_err}");
            assert_eq!(error(&l_err), error(&r_err), "{step:?}: errors differ");
        }
    }

    std::fs::remove_dir_all(tmp).ok();
    drop(daemons);
}

/// The cluster shape of the durability tests, as `octofs init` takes it:
/// three workers, 64 KiB blocks (the master's flag, `SHAPE[2..4]`), 64 MiB
/// media (each worker's, `SHAPE[4..]`).
const SHAPE: [&str; 6] = ["--workers", "3", "--block-size", "65536", "--capacity", "67108864"];

/// A fresh directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("octofs_{tag}_{}_{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts an `octofs-master` and three `octofs-worker`s of [`SHAPE`], every
/// one of them on `--dir root` and on a fresh port, and waits until the
/// workers have joined. Returns the master's address and the daemons,
/// master first.
fn start_on(root: &Path) -> (String, Vec<Daemon>) {
    start_sized(root, SHAPE[5])
}

/// [`start_on`], with `capacity` bytes on each worker medium.
fn start_sized(root: &Path, capacity: &str) -> (String, Vec<Daemon>) {
    let root = root.to_str().unwrap();
    let mut margs = owned(&["--listen", "127.0.0.1:0", "--dir", root, "--heartbeat-ms", "50"]);
    margs.extend(owned(&SHAPE[2..4]));
    let (master, addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let mut daemons = vec![master];
    for id in ["0", "1", "2"] {
        daemons.push(start_worker(&addr, id, root, capacity));
    }
    wait_for_workers(&addr, 3);
    (addr, daemons)
}

/// An `octofs-worker` `id` of the master at `addr`, on `--dir root`.
fn start_worker(addr: &str, id: &str, root: &str, capacity: &str) -> Daemon {
    let wargs = owned(&["--master", addr, "--id", id, "--dir", root, "--capacity", capacity]);
    spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0
}

fn owned(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// The bytes of the `i`-th put: four blocks, different for every `i`, and
/// ASCII, so they survive [`remote`]'s text capture.
fn put_payload(i: usize) -> Vec<u8> {
    (0..200_000usize).map(|j| ((j * 7 + i * 13) % 127) as u8).collect()
}

/// A master daemon that survives `kill -9`: the master and every worker
/// are SIGKILLed in the middle of a put loop and restarted on the same
/// `--dir` (on fresh ports). Every put that exited 0 — its replicas on the
/// persistent tiers only, so none is volatile — reads back byte for byte.
#[test]
fn every_acknowledged_put_survives_sigkill_of_every_daemon() {
    let tmp = fresh_dir("sigkill");
    let root = tmp.join("root");
    let (addr, daemons) = start_on(&root);

    let acked = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0.. {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let local = tmp.join(format!("in{i}.bin"));
                std::fs::write(&local, put_payload(i)).unwrap();
                let path = format!("/f{i}");
                let put = ["put", local.to_str().unwrap(), &path, "--rv", "<0,1,1>"];
                if remote(&addr, &put).0 {
                    acked.lock().unwrap().push(i);
                }
            }
        });
        // Kill mid-loop, once a few puts are acknowledged (Child::kill is
        // SIGKILL), master first.
        let deadline = Instant::now() + Duration::from_secs(30);
        while acked.lock().unwrap().len() < 4 {
            assert!(Instant::now() < deadline, "no put was acknowledged");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(daemons);
        stop.store(true, Ordering::Release);
    });

    let (addr, _daemons) = start_on(&root);
    let acked = acked.into_inner().unwrap();
    for &i in &acked {
        let (ok, out, err) = remote(&addr, &["cat", &format!("/f{i}")]);
        assert!(ok, "/f{i}, acknowledged before the kill: {err}");
        assert!(out.as_bytes() == put_payload(i), "/f{i} reads back other bytes");
    }
    std::fs::remove_dir_all(tmp).ok();
}

/// One layout: a root written by `octofs --root` is served by the daemons
/// started on it (`octofs-master --dir ROOT`, `octofs-worker --dir ROOT
/// --id i`, each with its share of the shape flags).
#[test]
fn the_daemons_serve_a_root_that_octofs_wrote() {
    let tmp = fresh_dir("shared_root");
    let root = tmp.join("root");
    let octofs = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_octofs"))
            .arg("--root")
            .arg(&root)
            .args(args)
            .output()
            .expect("run octofs");
        assert!(out.status.success(), "octofs {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    let mut init = vec!["init"];
    init.extend(SHAPE);
    octofs(&init);
    let local = tmp.join("in.bin");
    std::fs::write(&local, put_payload(7)).unwrap();
    octofs(&["put", local.to_str().unwrap(), "/shared", "--rv", "<0,1,1>"]);

    let (addr, _daemons) = start_on(&root);
    let (ok, out, err) = remote(&addr, &["cat", "/shared"]);
    assert!(ok, "{err}");
    assert!(out.as_bytes() == put_payload(7), "the daemons read back other bytes");
    std::fs::remove_dir_all(tmp).ok();
}

/// Every per-node fact comes from the node and every cluster-wide one from
/// the master: workers started with only the master's address and their
/// ids — 0, 1 and 7, so no worker count is implied — join a master that
/// was given no worker count, beat at the master's 40 ms interval (the
/// default 1 s would miss its 400 ms failure deadline), and serve an rf = 3
/// put.
#[test]
fn workers_given_only_their_ids_join_and_beat_at_the_masters_interval() {
    let tmp = fresh_dir("own_facts");
    let margs = ["--listen", "127.0.0.1:0", "--heartbeat-ms", "40"].map(String::from);
    let (_master, addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let _workers: Vec<Daemon> = ["0", "1", "7"]
        .into_iter()
        .map(|id| {
            let wargs = ["--master", &addr, "--id", id].map(String::from);
            spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0
        })
        .collect();
    wait_for_workers(&addr, 3);

    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        let (ok, out, err) = remote(&addr, &["status"]);
        assert!(ok, "{err}");
        let workers: Vec<&str> = out.lines().filter(|l| l.starts_with("worker ")).collect();
        let ids: Vec<&str> = workers.iter().filter_map(|l| l.split_whitespace().nth(1)).collect();
        assert_eq!(ids, ["0", "1", "7"], "{out}");
        for line in workers {
            // Live, and last heard from within the 10 × 40 ms deadline.
            let hb = line.rsplit("hb=").next().and_then(|v| v.strip_suffix("ms"));
            let hb: u64 = hb.and_then(|v| v.parse().ok()).expect("hb=…ms");
            assert!(line.contains(" live ") && hb <= 400, "past the deadline: {line}\n{out}");
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let local = tmp.join("in.bin");
    std::fs::write(&local, put_payload(3)).unwrap();
    let (ok, _, err) = remote(&addr, &["put", local.to_str().unwrap(), "/p", "--rv", "3"]);
    assert!(ok, "{err}");
    let (ok, out, err) = remote(&addr, &["cat", "/p"]);
    assert!(ok, "{err}");
    assert!(out.as_bytes() == put_payload(3), "/p reads back other bytes");
    std::fs::remove_dir_all(tmp).ok();
}

/// `balance`, `fsck` and `setrep`'s wait are rounds the master daemon runs
/// on request, so `octofs-remote` drives them against running daemons. Each
/// worker medium holds 1 MiB and the puts fill the three workers' SSDs and
/// HDDs to about half, so a fourth, empty worker leaves them past the
/// balancer's 5 % over their tier's mean.
#[test]
fn balance_fsck_and_setrep_act_on_running_daemons() {
    let tmp = fresh_dir("rounds");
    let root = tmp.join("root");
    let (addr, mut daemons) = start_sized(&root, "1048576");
    let rv = "<0,1,1>";
    for i in 0..8 {
        let local = tmp.join(format!("in{i}.bin"));
        std::fs::write(&local, put_payload(i)).unwrap();
        let (ok, _, err) =
            remote(&addr, &["put", local.to_str().unwrap(), &format!("/f{i}"), "--rv", rv]);
        assert!(ok, "{err}");
    }
    let fs =
        octopusfs::RemoteFs::connect(addr.parse().unwrap(), octopusfs::ClientLocation::OffCluster)
            .unwrap();
    // Every block of `path` on the tiers `rv` names: `[memory, SSD, HDD]`.
    let on_tiers = |path: &str, want: [usize; 3]| {
        for lb in fs.get_file_block_locations(path, 0, u64::MAX).unwrap() {
            let mut have = [0; 3];
            for l in &lb.locations {
                have[l.tier.0 as usize] += 1;
            }
            assert_eq!(have, want, "{path} block {}: {:?}", lb.block.id, lb.locations);
        }
    };
    let reads_back = |i: usize| {
        let (ok, out, err) = remote(&addr, &["cat", &format!("/f{i}")]);
        assert!(ok && out.as_bytes() == put_payload(i), "/f{i} reads back other bytes: {err}");
    };

    // One byte flipped past the header of one on-disk replica.
    let mut replicas = Vec::new();
    let mut dirs = vec![root.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            match path.file_name().and_then(|n| n.to_str()) {
                _ if path.is_dir() => dirs.push(path),
                Some(name) if name.starts_with("blk_") => replicas.push(path),
                _ => {}
            }
        }
    }
    replicas.sort();
    let mut bytes = std::fs::read(&replicas[0]).unwrap();
    bytes[40] ^= 0xff;
    std::fs::write(&replicas[0], bytes).unwrap();
    let (ok, out, err) = remote(&addr, &["fsck"]);
    assert!(ok, "{err}");
    assert!(out.starts_with("fsck: 1 corrupt replicas dropped, "), "{out}");
    for i in 0..8 {
        on_tiers(&format!("/f{i}"), [0, 1, 1]);
        reads_back(i);
    }

    daemons.push(start_worker(&addr, "3", root.to_str().unwrap(), "1048576"));
    wait_for_workers(&addr, 4);
    let (ok, out, err) = remote(&addr, &["balance"]);
    assert!(ok, "{err}");
    let moves: u64 = out
        .strip_prefix("balance: ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no move count in {out:?}"));
    assert!(moves >= 1, "{out}");
    for i in 0..8 {
        reads_back(i);
    }

    let (ok, out, err) = remote(&addr, &["setrep", "/f0", "<0,2,0>"]);
    assert!(ok, "{err}");
    assert!(out.starts_with("replication of /f0: "), "{out}");
    on_tiers("/f0", [0, 2, 0]);
    reads_back(0);
    std::fs::remove_dir_all(tmp).ok();
}

/// The master keeps its own time, so it declares a worker dead whether or
/// not another still beats. With a 100 ms interval (a 1 s deadline), each
/// of two SIGKILLed workers — the last live one too — shows `DEAD` within
/// the deadline and two intervals of its kill.
#[test]
fn the_last_live_worker_is_declared_dead_within_the_deadline() {
    let margs = ["--listen", "127.0.0.1:0", "--heartbeat-ms", "100"].map(String::from);
    let (_master, addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let mut workers: Vec<Daemon> = ["0", "1"]
        .into_iter()
        .map(|id| {
            let wargs = ["--master", &addr, "--id", id].map(String::from);
            spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0
        })
        .collect();
    wait_for_workers(&addr, 2);
    let fs =
        octopusfs::RemoteFs::connect(addr.parse().unwrap(), octopusfs::ClientLocation::OffCluster)
            .unwrap();
    for killed in 1..=2 {
        let at = Instant::now();
        drop(workers.remove(0)); // SIGKILL
        loop {
            let asked = at.elapsed();
            let status = fs.cluster_status().unwrap();
            if status.workers.iter().filter(|w| !w.live).count() == killed {
                break;
            }
            assert!(
                asked <= Duration::from_millis(1200),
                "kill {killed}, {asked:?} on: {status:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let (ok, out, err) = remote(&addr, &["status"]);
    assert!(ok, "{err}");
    let dead = out.lines().filter(|l| l.starts_with("worker ") && l.contains(" DEAD ")).count();
    assert_eq!(dead, 2, "{out}");
}

/// A reader that closes the pipe early (`octofs-remote ls | head -1`) ends
/// the shell's output, not the shell: no panic, and a successful exit.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let margs = ["--listen", "127.0.0.1:0"].map(String::from);
    let (_master, addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let fs =
        octopusfs::RemoteFs::connect(addr.parse().unwrap(), octopusfs::ClientLocation::OffCluster)
            .unwrap();
    for i in 0..3000 {
        fs.mkdir(&format!("/many/directory-{i:05}")).unwrap();
    }
    let mut ls = Command::new(env!("CARGO_BIN_EXE_octofs-remote"))
        .args(["--master", &addr, "ls", "/many"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run octofs-remote");
    drop(ls.stdout.take()); // the reader goes before the first line
    let out = ls.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success() && !stderr.contains("panicked"), "{:?}: {stderr}", out.status);
}

/// `octofs-master --autotier-bps` makes the daemon's background round an
/// auto-tiering round whose copies it caps: a `<0,0,1>` file read over and
/// over turns hot, `migrations` lists its promotion, every block gains a
/// memory replica, and `heat` shows when it was last touched.
#[test]
fn the_master_daemon_promotes_a_file_read_over_and_over() {
    let tmp = fresh_dir("autotier");
    let mut margs = owned(&["--listen", "127.0.0.1:0", "--heartbeat-ms", "25"]);
    margs.extend(owned(&SHAPE[2..4]));
    margs.extend(owned(&["--autotier-bps", "8388608"]));
    let (_master, addr) = spawn_with_addr(env!("CARGO_BIN_EXE_octofs-master"), &margs);
    let _workers: Vec<Daemon> = ["0", "1", "2"]
        .into_iter()
        .map(|id| {
            let wargs = ["--master", &addr, "--id", id].map(String::from);
            spawn_with_addr(env!("CARGO_BIN_EXE_octofs-worker"), &wargs).0
        })
        .collect();
    wait_for_workers(&addr, 3);
    let local = tmp.join("in.bin");
    std::fs::write(&local, put_payload(5)).unwrap();
    let (ok, _, err) = remote(&addr, &["put", local.to_str().unwrap(), "/hot", "--rv", "<0,0,1>"]);
    assert!(ok, "{err}");
    let fs =
        octopusfs::RemoteFs::connect(addr.parse().unwrap(), octopusfs::ClientLocation::OffCluster)
            .unwrap();
    let in_memory = || {
        let blocks = fs.get_file_block_locations("/hot", 0, u64::MAX).unwrap();
        blocks.iter().all(|lb| lb.locations.iter().any(|l| l.tier.0 == 0))
    };

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (ok, out, err) = remote(&addr, &["cat", "/hot"]);
        assert!(ok && out.as_bytes() == put_payload(5), "/hot reads back other bytes: {err}");
        let (ok, migrations, err) = remote(&addr, &["migrations"]);
        assert!(ok, "{err}");
        if migrations.contains(": promote ") && in_memory() {
            break;
        }
        assert!(Instant::now() < deadline, "never promoted: {migrations}");
    }
    let (ok, out, err) = remote(&addr, &["heat", "/hot"]);
    assert!(ok, "{err}");
    let last_touch = out.rsplit("last_touch=").next().and_then(|v| v.trim().strip_suffix("ms"));
    assert!(last_touch.is_some_and(|ms| ms.parse::<u64>().is_ok()), "{out}");
    std::fs::remove_dir_all(tmp).ok();
}
