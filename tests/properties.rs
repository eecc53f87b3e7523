//! Property-based tests on the core invariants: the replication-vector
//! codec, replication-state accounting, MOOP placement constraints,
//! namespace quota bookkeeping, and simulator conservation. Each property
//! runs over seeded cases drawn from `octopus_common::rng`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use octopusfs::common::config::PolicyConfig;
use octopusfs::common::rng::Rng;
use octopusfs::common::{ClientLocation, Location, MediaId, TierId, WorkerId};
use octopusfs::master::blockmap::replication_state;
use octopusfs::master::ClientId;
use octopusfs::policies::{ClusterSnapshot, GreedyPolicy, PlacementPolicy, PlacementRequest};
use octopusfs::simnet::{EventKind, SimNet};
use octopusfs::{ClusterConfig, ReplicationVector};

/// Runs `property` once per seed in `0..cases`, each time on a generator
/// seeded with it; a failing case names its seed.
fn for_each_seed(cases: u64, property: impl Fn(&mut Rng)) {
    for seed in 0..cases {
        if catch_unwind(AssertUnwindSafe(|| property(&mut Rng::seed_from_u64(seed)))).is_err() {
            panic!("the case with seed {seed} failed");
        }
    }
}

/// A value in `lo..hi`.
fn range(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// A float in `lo..hi`, from 53 uniform bits.
fn range_f64(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
}

/// Three per-tier replica counts, each in `0..4`.
fn counts(rng: &mut Rng) -> Vec<u8> {
    (0..3).map(|_| rng.below(4) as u8).collect()
}

/// Any 64-bit pattern decodes into a vector that re-encodes to itself,
/// and the display form parses back to the same vector.
#[test]
fn repvector_codec_round_trips() {
    for_each_seed(64, |rng| {
        let bits = rng.next_u64();
        let v = ReplicationVector::from_bits(bits);
        assert_eq!(ReplicationVector::from_bits(v.to_bits()), v);
        let shown = v.to_string();
        let parsed: ReplicationVector = shown.parse().unwrap();
        assert_eq!(parsed, v);
        // Total is the sum of all slots.
        let slot_sum: u32 =
            (0..7u8).map(|t| v.tier(TierId(t)) as u32).sum::<u32>() + v.unspecified() as u32;
        assert_eq!(v.total(), slot_sum);
    });
}

/// diff(a→b) additions/removals reconstruct b from a.
#[test]
fn repvector_diff_is_consistent() {
    for_each_seed(64, |rng| {
        let (a, b) = (counts(rng), counts(rng));
        let (ua, ub) = (rng.below(4) as u8, rng.below(4) as u8);
        let va = ReplicationVector::from_counts(&a, ua);
        let vb = ReplicationVector::from_counts(&b, ub);
        let d = va.diff(vb);
        let mut rebuilt = va;
        for (t, c) in d.additions() {
            rebuilt = rebuilt.with_tier(t, rebuilt.tier(t) + c);
        }
        for (t, c) in d.removals() {
            rebuilt = rebuilt.with_tier(t, rebuilt.tier(t) - c);
        }
        rebuilt = rebuilt.with_unspecified(vb.unspecified());
        assert_eq!(rebuilt, vb);
        assert_eq!(d.net_total(), vb.total() as i32 - va.total() as i32);
    });
}

/// Replication-state accounting: total deficit minus total surplus
/// equals requested minus present.
#[test]
fn replication_state_balances() {
    for_each_seed(64, |rng| {
        let (rv_counts, u) = (counts(rng), rng.below(4) as u8);
        let locs: Vec<(u32, u8)> =
            (0..rng.below(8)).map(|_| (rng.below(9) as u32, rng.below(3) as u8)).collect();
        let rv = ReplicationVector::from_counts(&rv_counts, u);
        let locations: Vec<Location> = locs
            .iter()
            .enumerate()
            .map(|(i, &(w, t))| Location {
                worker: WorkerId(w),
                media: MediaId(i as u32),
                tier: TierId(t),
            })
            .collect();
        let st = replication_state(rv, &locations);
        let over: i64 = st.over.iter().map(|&(_, c)| c as i64).sum();
        let under: i64 = st.total_under() as i64;
        assert_eq!(
            under - over,
            rv.total() as i64 - locations.len() as i64,
            "under {} / over {} vs rv {} locs {}",
            under,
            over,
            rv.total(),
            locations.len()
        );
        if st.is_satisfied() {
            assert_eq!(rv.total() as usize, locations.len());
        }
    });
}

/// MOOP placement invariants: unique media, capacity respected, tier
/// pins honored, never more media than requested.
#[test]
fn moop_placement_invariants() {
    for_each_seed(64, |rng| {
        let workers = range(rng, 3, 12) as u32;
        let racks = range(rng, 1, 4) as u16;
        let r = range(rng, 1, 6) as usize;
        // A pin three times in four.
        let pin_tier = (rng.below(4) != 0).then(|| rng.below(3) as u8);
        let mem_enabled = rng.below(2) == 1;
        let snap = ClusterSnapshot::synthetic(workers, racks, 2);
        let cfg = PolicyConfig { memory_placement_enabled: mem_enabled, ..PolicyConfig::default() };
        let policy = GreedyPolicy::moop(cfg);
        let mut req = PlacementRequest::unspecified(r, 128 << 20, ClientLocation::OffCluster);
        if let Some(t) = pin_tier {
            req.tier_pins[0] = Some(TierId(t));
        }
        let placed = policy.place(&snap, &req).unwrap();
        assert!(placed.len() <= r);
        // Uniqueness.
        let mut dedup = placed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), placed.len());
        for (i, m) in placed.iter().enumerate() {
            let stats = snap.media_stats(*m).unwrap();
            assert!(stats.remaining >= 128 << 20);
            if i == 0 {
                if let Some(t) = pin_tier {
                    assert_eq!(stats.tier, TierId(t));
                }
            }
            if !mem_enabled && req.tier_pins[i].is_none() {
                assert_ne!(stats.tier, TierId(0), "volatile tier without opt-in");
            }
        }
    });
}

/// Simulator conservation: every flow completes, completion times are
/// non-decreasing, and each flow takes at least bytes/total-capacity.
#[test]
fn simnet_flows_all_complete() {
    for_each_seed(64, |rng| {
        let flows: Vec<(u64, usize, usize)> = (0..range(rng, 1, 30))
            .map(|_| (range(rng, 1, 100_000), rng.below(4) as usize, rng.below(4) as usize))
            .collect();
        let mut net = SimNet::new();
        let res: Vec<_> = (0..4).map(|i| net.add_resource(&format!("r{i}"), 1e6)).collect();
        let mut sizes = std::collections::HashMap::new();
        for &(bytes, a, b) in &flows {
            let id = net.start_flow(bytes as f64, vec![res[a], res[b]]);
            sizes.insert(id, bytes);
        }
        let mut done = 0;
        let mut last = 0.0f64;
        while let Some(e) = net.next_event() {
            let t = e.time.as_secs_f64();
            assert!(t >= last - 1e-12);
            last = t;
            if let EventKind::FlowDone(f) = e.kind {
                done += 1;
                // A flow through a 1 MB/s resource needs at least
                // bytes/1e6 seconds.
                assert!(t + 1e-6 >= sizes[&f] as f64 / 1e6);
            }
        }
        assert_eq!(done, flows.len());
    });
}

/// Namespace quota accounting stays consistent under random
/// create/delete/set_replication sequences: directory usage equals the
/// sum over surviving files of len × pinned replicas.
#[test]
fn namespace_quota_accounting_consistent() {
    use octopusfs::master::Namespace;

    for_each_seed(32, |rng| {
        let ops: Vec<(u8, usize, u8, u64)> = (0..range(rng, 1, 40))
            .map(|_| {
                (rng.below(3) as u8, rng.below(8) as usize, rng.below(3) as u8, range(rng, 1, 5))
            })
            .collect();
        let mut ns = Namespace::new();
        ns.mkdir("/d", true).unwrap();
        let mut live: std::collections::HashMap<usize, (ReplicationVector, u64)> =
            std::collections::HashMap::new();
        let mut next_block = 1u64;
        for (op, slot, tier, len_units) in ops {
            let path = format!("/d/f{slot}");
            let len = len_units * 100;
            match op {
                0 => {
                    // create (if absent) with 1 replica pinned to `tier`.
                    live.entry(slot).or_insert_with(|| {
                        let rv = ReplicationVector::EMPTY.with_tier(TierId(tier), 1);
                        let f = ns.create_file(&path, rv, 1000).unwrap();
                        ns.add_block(f, octopusfs::common::BlockId(next_block), len).unwrap();
                        next_block += 1;
                        (rv, len)
                    });
                }
                1 => {
                    if live.remove(&slot).is_some() {
                        ns.delete(&path, false).unwrap();
                    }
                }
                _ => {
                    if let Some((_, len)) = live.get(&slot).copied() {
                        let rv = ReplicationVector::EMPTY.with_tier(TierId(tier), 2);
                        ns.set_replication(&path, rv).unwrap();
                        live.insert(slot, (rv, len));
                    }
                }
            }
        }
        let (_, usage) = ns.quota_usage("/d").unwrap();
        let mut expected = [0u64; 7];
        for (rv, len) in live.values() {
            for (t, c) in rv.iter_tiers() {
                expected[t.0 as usize] += len * c as u64;
            }
        }
        assert_eq!(&usage[..], &expected[..]);
    });
}

/// The windowed data path round-trips bit-exactly for arbitrary
/// (length, block size, window) triples on a real TCP cluster, and
/// injected mid-write connection drops (pipeline recovery via
/// re-placement) leave the blockmap clean: unique block ids, offsets
/// covering the file contiguously, every block with at least one
/// committed replica, and nothing dangling after a block-report round.
#[test]
fn windowed_data_path_round_trips_and_keeps_blockmap_clean() {
    use octopusfs::common::{ClientLocation, ClusterConfig, RpcConfig};
    use octopusfs::core::net::{faults, FaultAction};
    use octopusfs::core::NetCluster;

    for_each_seed(6, |rng| {
        let (len_kb, bs_64kb) = (rng.below(1200), range(rng, 1, 5));
        let (window, drops) = (range(rng, 1, 6) as u32, rng.below(3) as usize);
        let seed = rng.next_u64();
        let block_size = bs_64kb * 64 * 1024;
        let mut config = ClusterConfig::test_cluster(4, 64 << 20, block_size);
        config.heartbeat_ms = 20;
        config.io_window = window;
        let cluster = NetCluster::start(config).unwrap();
        let client =
            cluster.client(ClientLocation::OffCluster).with_rpc_config(RpcConfig::fast_test());
        assert_eq!(client.io_window(), window.max(1));

        let octopusfs::common::BlockData::Real(bytes) =
            octopusfs::common::BlockData::generate_real((len_kb * 1024) as usize, seed)
        else {
            unreachable!()
        };
        let data = bytes.to_vec();

        // Drop some data-server responses mid-write: the client must
        // recover each affected pipeline and still commit every block.
        let victim = cluster.worker_addr(cluster.workers()[1].id()).unwrap();
        for _ in 0..drops {
            faults::inject(victim, FaultAction::DropConnection);
        }
        let rv = ReplicationVector::from_replication_factor(2);
        client.write_file("/p", &data, rv).unwrap();
        faults::clear(victim);

        assert_eq!(client.read_file("/p").unwrap(), data.clone());

        let blocks = client.get_file_block_locations("/p", 0, u64::MAX).unwrap();
        let expected = data.len().div_ceil(block_size as usize);
        assert_eq!(blocks.len(), expected);
        let mut ids = std::collections::HashSet::new();
        let mut next_offset = 0u64;
        for lb in &blocks {
            assert!(ids.insert(lb.block.id), "duplicate block id {}", lb.block.id);
            assert_eq!(lb.offset, next_offset, "offsets must be contiguous");
            assert!(!lb.locations.is_empty(), "dangling block {}", lb.block.id);
            next_offset += lb.block.len;
        }
        assert_eq!(next_offset, data.len() as u64);

        // Reconcile replicas abandoned by recovery, then re-verify: the
        // purge must not touch any live block.
        cluster.run_block_report_round().unwrap();
        assert_eq!(client.read_file("/p").unwrap(), data);
    });
}

/// Multiplexed transport under concurrency and faults: 32+ callers
/// share a couple of connections to one server while responses are
/// randomly delayed and connections randomly dropped. Every caller
/// must either receive exactly its own payload back or a clean
/// transport error — never someone else's response.
#[test]
fn multiplexed_callers_get_their_own_responses_under_faults() {
    use octopusfs::common::{FsError, RpcConfig};
    use octopusfs::core::net::frame::read_mux_frame;
    use octopusfs::core::net::proto::FramePayload;
    use octopusfs::core::net::rpc::RpcClient;
    use octopusfs::core::net::{faults, FaultAction};
    use std::sync::Arc;
    use std::time::Duration;

    for_each_seed(4, |rng| {
        let seed = rng.next_u64();
        let (drops, delays) = (rng.below(4) as usize, rng.below(4) as usize);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Echo server that routes every response through the fault layer,
        // so injected drops/delays hit real in-flight multiplexed calls.
        // Detached: the accept loop lives until process exit.
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                std::thread::spawn(move || {
                    while let Ok(Some((id, frame))) = read_mux_frame(&mut s) {
                        let payload = FramePayload::small(frame.head.to_vec());
                        match faults::write_response(addr, &mut s, id, &payload) {
                            Ok(true) => {}
                            _ => break,
                        }
                    }
                });
            }
        });

        for _ in 0..drops {
            faults::inject(addr, FaultAction::DropConnection);
        }
        for i in 0..delays {
            let ms = 5 + (seed.wrapping_add(i as u64) % 40);
            faults::inject(addr, FaultAction::Delay(Duration::from_millis(ms)));
        }

        let client = Arc::new(RpcClient::new(RpcConfig {
            conns_per_peer: 2,
            read_timeout_ms: 2_000,
            max_retries: 3,
            ..RpcConfig::fast_test()
        }));
        let mut callers = Vec::new();
        for i in 0..36u64 {
            let client = Arc::clone(&client);
            callers.push(std::thread::spawn(move || {
                let payload = format!("caller-{i}-seed-{seed}").into_bytes();
                (payload.clone(), client.call_raw(addr, &payload, true))
            }));
        }
        let mut ok = 0usize;
        for c in callers {
            let (sent, got) = c.join().unwrap();
            match got {
                Ok(echoed) => {
                    assert_eq!(&echoed, &sent, "response routed to the wrong caller");
                    ok += 1;
                }
                // A dropped connection may fail the calls multiplexed on
                // it faster than the retry budget recovers; that must
                // surface as a clean transport error, never a mix-up.
                Err(FsError::Unreachable(_) | FsError::Timeout(_)) => {}
                Err(other) => panic!("unexpected error class: {other:?}"),
            }
        }
        faults::clear(addr);
        client.evict(addr);
        // Delays never kill connections, so at least the non-dropped
        // majority must have succeeded.
        assert!(ok >= 36 - (drops + 1) * 8, "only {ok}/36 calls succeeded");
    });
}

/// Pipeline flows never exceed the capacity of any traversed resource,
/// and the completion time is at least bytes / min-capacity.
#[test]
fn simnet_pipeline_bounded_by_slowest_stage() {
    for_each_seed(64, |rng| {
        let caps: Vec<f64> = (0..range(rng, 1, 5)).map(|_| range_f64(rng, 1.0, 1000.0)).collect();
        let bytes = range_f64(rng, 1.0, 1e6);
        let mut net = SimNet::new();
        let res: Vec<_> =
            caps.iter().enumerate().map(|(i, &c)| net.add_resource(&format!("r{i}"), c)).collect();
        let f = net.start_flow(bytes, res.clone());
        let min_cap = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((net.flow_rate(f) - min_cap).abs() < 1e-6);
        let e = net.next_event().unwrap();
        let expected = bytes / min_cap;
        assert!((e.time.as_secs_f64() - expected).abs() < 1e-6 + expected * 1e-9);
    });
}

/// The MOOP policy is deterministic given identical snapshots and
/// fresh policies (seeded tie-breaking), and insensitive to request
/// clones.
#[test]
fn moop_placement_is_deterministic() {
    for_each_seed(64, |rng| {
        let (workers, r) = (range(rng, 3, 10) as u32, range(rng, 1, 4) as usize);
        let snap = ClusterSnapshot::synthetic(workers, 2, 2);
        let req = PlacementRequest::unspecified(r, 1 << 20, ClientLocation::OffCluster);
        let a = GreedyPolicy::moop(PolicyConfig::default()).place(&snap, &req).unwrap();
        let b = GreedyPolicy::moop(PolicyConfig::default()).place(&snap, &req.clone()).unwrap();
        assert_eq!(a, b);
    });
}

/// Wire codec: every MediaStats vector round-trips bit-exactly.
#[test]
fn wire_media_stats_round_trip() {
    use octopusfs::common::wire::{decode, encode};
    use octopusfs::common::MediaStats;

    for_each_seed(64, |rng| {
        let stats: Vec<(u32, u32, u16, u8, u64, u32)> = (0..rng.below(20))
            .map(|_| {
                let (m, w, rack) =
                    (rng.below(100) as u32, rng.below(10) as u32, rng.below(4) as u16);
                (m, w, rack, rng.below(3) as u8, rng.below(1 << 40), rng.below(50) as u32)
            })
            .collect();
        let v: Vec<MediaStats> = stats
            .into_iter()
            .map(|(m, w, rk, t, cap, conn)| MediaStats {
                media: MediaId(m),
                worker: WorkerId(w),
                rack: octopusfs::common::RackId(rk),
                tier: TierId(t),
                capacity: cap,
                remaining: cap / 2,
                nr_conn: conn,
                write_thru: 1.5e8,
                read_thru: 2.5e8,
            })
            .collect();
        let enc = encode(&v);
        let dec: Vec<MediaStats> = decode(&enc).unwrap();
        assert_eq!(dec, v);
    });
}

// ---------------------------------------------------------------------------
// Group-commit crash replay (DESIGN.md §11: the master's edit log).
//
// Concurrent clients hammer a file-backed master; every mutation is acked
// only after its group-commit batch fsyncs. The property: truncating the
// on-disk log at *any* byte leaves a file that recovers (`EditLog::open`
// cuts the torn record off, so every cut lands on a record boundary — a
// batch-prefix state) and replays cleanly into a fresh master. Staged
// order is the linearization order, so every durable prefix is a state
// reachable by some serial execution: no partial multi-op transactions, no
// op that depends on an unlogged predecessor. Each recovered master then
// acknowledges one more op, crashes, and recovers *again* — the torn bytes
// must not have come between the old records and the new one. The full log
// must additionally contain every acked op: thread-private creates/deletes
// are tracked exactly and checked against the replayed image.

#[test]
fn group_commit_crash_replay_is_serially_reachable() {
    use octopusfs::master::{EditLog, Master};

    for_each_seed(6, |rng| {
        let (seed, threads) = (rng.below(1_000), range(rng, 2, 5) as usize);
        let dir = std::env::temp_dir()
            .join(format!("octofs_prop_gc_{}_{seed}_{threads}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("edits.log");

        let config = ClusterConfig::test_cluster(3, 10 << 20, 1 << 20);
        let master = Master::with_log(config.clone(), EditLog::open(&log_path).unwrap()).unwrap();
        master.mkdir("/shared").unwrap();
        for t in 0..threads {
            master.mkdir(&format!("/t{t}")).unwrap();
        }

        // Each thread: private creates/deletes (conflict-free, every ack
        // tracked) interleaved with racy ops on /shared (acks ignored —
        // they only stress batching and interleavings).
        let rv = ReplicationVector::from_replication_factor(1);
        let expected: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let master = &master;
                    let mut rng = Rng::seed_from_u64(rng.next_u64());
                    s.spawn(move || {
                        let mut alive = Vec::new();
                        for i in 0..24 {
                            let private = format!("/t{t}/f{i}");
                            master.create_file_as(&private, rv, None, ClientId::SYSTEM).unwrap();
                            master.complete_file_as(&private, ClientId::SYSTEM).unwrap();
                            if rng.below(3) == 0 {
                                master.delete(&private, false).unwrap();
                            } else {
                                alive.push(private);
                            }
                            let shared = format!("/shared/f{}", rng.below(6));
                            match rng.below(3) {
                                0 => {
                                    let _ =
                                        master.create_file_as(&shared, rv, None, ClientId::SYSTEM);
                                }
                                1 => {
                                    let _ = master.delete(&shared, false);
                                }
                                _ => {
                                    let _ = master
                                        .rename(&shared, &format!("/shared/g{}", rng.below(6)));
                                }
                            }
                        }
                        alive
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(master); // "crash": only the on-disk bytes survive

        let bytes = std::fs::read(&log_path).unwrap();
        assert!(!bytes.is_empty());

        // Any byte-level truncation recovers and replays cleanly (16 cuts
        // + the end), twice, with an acked op in between.
        let step = (bytes.len() / 16).max(1);
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(step).collect();
        cuts.push(bytes.len());
        let cut_path = dir.join("cut.log");
        for cut in cuts {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let replayed = Master::with_log(config.clone(), EditLog::open(&cut_path).unwrap());
            assert!(
                replayed.is_ok(),
                "durable prefix (cut={cut}) not serially reachable: {:?}",
                replayed.err()
            );
            let replayed = replayed.unwrap();
            let durable = replayed.edit_count();
            replayed.mkdir("/acked_after_the_cut").unwrap();
            drop(replayed);
            let again =
                EditLog::open(&cut_path).and_then(|log| Master::with_log(config.clone(), log));
            assert!(again.is_ok(), "second recovery (cut={cut}): {:?}", again.err());
            let again = again.unwrap();
            assert_eq!(again.edit_count(), durable + 1, "cut={}", cut);
            assert!(again.status("/acked_after_the_cut").is_ok(), "cut={}", cut);
        }

        // The full log holds every acked private op exactly.
        let full = Master::with_log(config, EditLog::open(&log_path).unwrap()).unwrap();
        for (t, alive) in expected.iter().enumerate() {
            let listed: Vec<String> = full
                .list(&format!("/t{t}"))
                .unwrap()
                .into_iter()
                .map(|e| format!("/t{t}/{}", e.name))
                .collect();
            let mut want = alive.clone();
            want.sort();
            let mut got = listed;
            got.sort();
            assert_eq!(got, want, "acked ops missing after replay (thread {t})");
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}
