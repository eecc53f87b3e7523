//! Tests of the multiplexed transport: response demultiplexing, per-peer
//! in-flight caps, the server-side idle horizon, admission by pipeline
//! depth under load, who owns the served state after `shutdown`, and the
//! pipeline-failure semantics the mux servers rely on (the head commits
//! the stages that acked; unreached stages return their write
//! reservations; scrub handling survives unmapped media).

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_common::{
    BlockData, ClientLocation, ClusterConfig, FsError, Location, MediaId, ReplicationVector,
    RpcConfig, ServerConfig, WorkerId, MB,
};
use octopus_core::net::frame::{read_mux_frame, write_mux_frame};
use octopus_core::net::proto::{MasterRequest, WorkerRequest, WorkerResponse};
use octopus_core::net::worker_server::{call_master, heartbeat, scrub_and_report};
use octopus_core::net::{MasterServer, NetCluster, Round, RpcClient, WorkerServer};
use octopus_core::{build_single_worker, StorageMode};
use octopus_master::{ClientId, Master};

fn config() -> ClusterConfig {
    let mut c = ClusterConfig::test_cluster(4, 64 * MB, MB);
    c.heartbeat_ms = 20;
    c
}

/// One RPC round trip to a worker data server, over the process-wide
/// shared client (what the servers' own nested calls use).
fn call_worker(addr: std::net::SocketAddr, req: &WorkerRequest) -> Result<WorkerResponse, FsError> {
    octopus_core::net::rpc::shared().call_worker(addr, req)
}

fn client_cfg() -> RpcConfig {
    RpcConfig::fast_test()
}

#[test]
fn interleaved_responses_reach_their_own_callers() {
    // A server that reads TWO requests off one connection before answering
    // either, then replies in REVERSE order. With one connection per peer
    // both calls share the socket, so only correct request-id demux (not
    // arrival order) can route each response to its caller.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut s = listener.accept().unwrap().0;
        let (id_w, warm) = read_mux_frame(&mut s).unwrap().unwrap();
        write_mux_frame(&mut s, id_w, &[&warm.head[..]], None).unwrap();
        let (id_a, frame_a) = read_mux_frame(&mut s).unwrap().unwrap();
        let (id_b, frame_b) = read_mux_frame(&mut s).unwrap().unwrap();
        write_mux_frame(&mut s, id_b, &[&frame_b.head[..]], None).unwrap();
        write_mux_frame(&mut s, id_a, &[&frame_a.head[..]], None).unwrap();
    });

    let client = Arc::new(RpcClient::new(RpcConfig { conns_per_peer: 1, ..client_cfg() }));
    // Open the one connection first: two callers racing to *connect* would
    // each open a socket and the loser's is closed as surplus — which may
    // be the only one this server accepts.
    assert_eq!(client.call_raw(addr, b"warm", true).unwrap(), b"warm");
    let mut callers = Vec::new();
    for i in 0..2u8 {
        let client = Arc::clone(&client);
        callers.push(std::thread::spawn(move || {
            let payload = vec![i; 64 + i as usize];
            let echoed = client.call_raw(addr, &payload, true).unwrap();
            assert_eq!(echoed, payload, "caller {i} got someone else's response");
        }));
    }
    for c in callers {
        c.join().unwrap();
    }
    server.join().unwrap();
}

#[test]
fn inflight_cap_blocks_the_next_caller_instead_of_erroring() {
    // Cap of 2 in-flight calls per peer. The server holds the first two
    // responses; a third call must WAIT for a slot (not fail), then
    // complete once a response frees one.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let served = Arc::new(AtomicUsize::new(0));
    let served_srv = Arc::clone(&served);
    // Detached: the accept loop blocks in `incoming()` until process exit.
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { break };
            let served = Arc::clone(&served_srv);
            std::thread::spawn(move || {
                while let Ok(Some((id, frame))) = read_mux_frame(&mut s) {
                    let n = served.fetch_add(1, Ordering::SeqCst);
                    if n < 2 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    if write_mux_frame(&mut s, id, &[&frame.head[..]], None).is_err() {
                        break;
                    }
                    if n >= 2 {
                        break;
                    }
                }
            });
        }
    });

    let client = Arc::new(RpcClient::new(RpcConfig {
        conns_per_peer: 2,
        max_inflight_per_peer: 2,
        read_timeout_ms: 5_000,
        max_retries: 0,
        ..client_cfg()
    }));
    let mut held = Vec::new();
    for i in 0..2u8 {
        let client = Arc::clone(&client);
        held.push(std::thread::spawn(move || client.call_raw(addr, &[i; 8], true).unwrap()));
    }
    // Let the first two occupy both in-flight slots.
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    let third = client.call_raw(addr, b"third", true).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(third, b"third");
    assert!(
        elapsed >= Duration::from_millis(200),
        "third call should have waited for a slot, finished in {elapsed:?}"
    );
    for h in held {
        h.join().unwrap();
    }
    assert!(served.load(Ordering::SeqCst) >= 3);
    client.evict(addr);
}

#[test]
fn idle_reaper_severs_silent_connections_but_not_active_ones() {
    let master = Arc::new(Master::new(config()).unwrap());
    let mut server =
        MasterServer::spawn_with(master, "127.0.0.1:0", ServerConfig { idle_conn_ms: 150 })
            .unwrap();
    let addr = server.addr();

    let mut silent = TcpStream::connect(addr).unwrap();
    silent.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut active = TcpStream::connect(addr).unwrap();
    active.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let mut trickling = TcpStream::connect(addr).unwrap();
    trickling.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    trickling.set_nodelay(true).unwrap();
    // A frame header promising 64 payload bytes that never all arrive.
    let mut promised = (72u32).to_le_bytes().to_vec();
    promised.extend_from_slice(&7u64.to_le_bytes());

    // Keep the active connection talking (any payload earns a response
    // frame — a decode error is still an answer) while the silent one
    // crosses the idle horizon and the trickling one feeds its frame a
    // byte per 100 ms: bytes keep arriving inside every socket timeout,
    // but the frame outlives the horizon.
    for id in 0..8u64 {
        write_mux_frame(&mut active, id, &[b"ping"], None).unwrap();
        let (rid, _) = read_mux_frame(&mut active).unwrap().expect("active conn must stay served");
        assert_eq!(rid, id);
        if id % 2 == 0 {
            // Once severed these writes fail; the read below is the check.
            let _ = trickling.write_all(&promised[id as usize / 2..][..1]);
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // The server severed the silent connection: its read sees EOF.
    let mut buf = [0u8; 1];
    let got = silent.read(&mut buf).expect("severed socket reads EOF, not a timeout");
    assert_eq!(got, 0, "silent connection should have been severed");
    // And the trickling one: EOF, or a reset if a byte crossed the sever.
    match trickling.read(&mut buf) {
        Ok(0) => {}
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
        other => panic!("trickling connection should have been severed, read gave {other:?}"),
    }

    // The active connection still works after the reaping.
    write_mux_frame(&mut active, 99, &[b"still-here"], None).unwrap();
    assert!(read_mux_frame(&mut active).unwrap().is_some());
    server.shutdown();
}

#[test]
fn deep_pipelines_under_load_complete_without_a_stall() {
    // 64 concurrent rf=5 block writes on six workers: every data server
    // holds heads of depth 4 while the same pool must serve the depth-3,
    // -2, -1 and leaf stages those heads wait on. Admission by depth keeps
    // a thread for every shallower level, so all of them finish inside the
    // fast-test RPC deadlines without a single forward failure or a
    // client-side pipeline recovery.
    let mut config = ClusterConfig::test_cluster(6, 64 * MB, MB);
    config.heartbeat_ms = 20;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(client_cfg());
    let data = vec![0xA5u8; 4096];
    let writers = 64;
    let start = std::sync::Barrier::new(writers);
    std::thread::scope(|s| {
        for i in 0..writers {
            let (client, data, start) = (&client, &data, &start);
            s.spawn(move || {
                start.wait();
                client
                    .write_file(
                        &format!("/deep{i}"),
                        data,
                        ReplicationVector::from_replication_factor(5),
                    )
                    .unwrap_or_else(|e| panic!("write {i} failed: {e}"));
            });
        }
    });

    let snap = client.cluster_metrics_snapshot().unwrap();
    assert_eq!(snap.counter("worker_pipeline_forward_failures_total"), 0);
    assert_eq!(snap.counter("client_pipeline_recoveries_total"), 0);
    for i in 0..writers {
        let blocks = client.get_file_block_locations(&format!("/deep{i}"), 0, u64::MAX).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].locations.len(), 5, "/deep{i}: {:?}", blocks[0].locations);
    }
}

/// `shutdown` takes the handler — and with it the server's hold on the
/// `Master` — out of the state its detached threads share. With no
/// request in flight, nothing of the server owns the master once
/// `shutdown` has returned: the caller's drop is the last one, and runs
/// on the caller's thread. (It used to be whichever pool or reader thread
/// exited last: a 200,000-file namespace was then freed on a dying thread
/// while the caller was already booting the next cluster — `meta`'s
/// slow-mode set-up.) No sleep: the pool threads are still exiting when
/// the check runs.
#[test]
fn after_shutdown_the_callers_handle_to_the_master_is_the_last() {
    for round in 0..100 {
        let master = Arc::new(Master::new(config()).unwrap());
        let weak = Arc::downgrade(&master);
        let mut server = MasterServer::spawn(Arc::clone(&master)).unwrap();
        // A served request: the pool thread that ran it cloned the handler.
        let client = RpcClient::new(client_cfg());
        client.call_master(server.addr(), &MasterRequest::Mkdir(format!("/d{round}"))).unwrap();
        server.shutdown();
        drop(server);
        drop(master);
        assert!(weak.upgrade().is_none(), "round {round}: a server thread still owns the master");
    }
}

/// The same for a data server and the `Worker` (and every block) behind it.
#[test]
fn after_shutdown_the_callers_handle_to_the_worker_is_the_last() {
    // Nothing listens here: `Metrics` is answered without calling the master.
    let no_master = "127.0.0.1:1".parse().unwrap();
    for round in 0..100 {
        let worker = build_single_worker(&config(), WorkerId(0), &StorageMode::InMemory).unwrap();
        let weak = Arc::downgrade(&worker);
        let mut server =
            WorkerServer::spawn(Arc::clone(&worker), no_master, Default::default()).unwrap();
        let client = RpcClient::new(client_cfg());
        client.call_worker(server.addr(), &WorkerRequest::Metrics).unwrap();
        server.shutdown();
        drop(server);
        drop(worker);
        assert!(weak.upgrade().is_none(), "round {round}: a server thread still owns the worker");
    }
}

#[test]
fn scrub_skips_corrupt_replicas_on_unmapped_media() {
    // Regression: the scrub handler used `?` on tier_of(media), so one
    // unmapped medium aborted the whole response AFTER deletions had
    // already happened — the master never heard about them. Unmapped
    // media must be skipped; mapped ones must still be deleted+reported.
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(client_cfg());
    let data = {
        let BlockData::Real(b) = BlockData::generate_real(MB as usize, 7) else { unreachable!() };
        b.to_vec()
    };
    client.write_file("/f", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let blocks = client.get_file_block_locations("/f", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0];
    let block = blocks[0].block;
    let worker = cluster.workers().iter().find(|w| w.id() == victim.worker).cloned().unwrap();

    // One corrupt replica on a medium this worker no longer maps, one on a
    // real medium: only the real one is handled, and the bogus entry does
    // not abort it.
    let handled = scrub_and_report(
        &worker,
        cluster.transport(),
        vec![(block.id, MediaId(9_999)), (block.id, victim.media)],
    );
    assert_eq!(handled, 1, "the mapped replica must be handled despite the unmapped one");
    assert!(
        !cluster.master().block_locations(block.id).contains(&victim),
        "the deletion must have been reported to the master"
    );
    // The data survives via the other replica.
    assert_eq!(client.read_file("/f").unwrap(), data);
}

#[test]
fn dead_pipeline_tail_leaves_two_live_replicas_and_no_reservation_leak() {
    // Kill the tail of a 3-stage pipeline before the write: stages 1 and 2
    // store, the forward to the tail fails, and the head's one commit must
    // (a) confirm the two stored replicas and (b) drop the tail's pending
    // replica, returning its reservation.
    let mut cluster = NetCluster::start(config()).unwrap();
    let master = Arc::clone(cluster.master());
    master
        .create_file_as("/p", ReplicationVector::from_replication_factor(3), None, ClientId(1))
        .unwrap();
    let (block, pipeline) =
        master.add_block_excluding("/p", MB, ClientLocation::OffCluster, ClientId(1), &[]).unwrap();
    assert_eq!(pipeline.len(), 3);
    let tail = pipeline[2];

    let tail_idx = (0..cluster.workers().len())
        .find(|&i| cluster.workers()[i].id() == tail.worker)
        .expect("tail worker exists");
    // The dead tail serves at a listener this test holds through the
    // write, closing every connection unanswered: re-registered there
    // before the kill, the tail's freed port is never dialled, so a worker
    // another test binds to it cannot take the forward (a forward calls no
    // master).
    let squatter = TcpListener::bind("127.0.0.1:0").unwrap();
    squatter.set_nonblocking(true).unwrap();
    let w = &cluster.workers()[tail_idx];
    let at = squatter.local_addr().unwrap().to_string();
    let rejoin = MasterRequest::RegisterWorker(tail.worker, w.rack(), w.net_bps(), 0, at);
    call_master(cluster.master_addr(), &rejoin).unwrap();
    assert_eq!(cluster.worker_addr(tail.worker), squatter.local_addr().ok());
    cluster.kill_worker(tail_idx);
    let written = AtomicBool::new(false);

    let data = BlockData::generate_real(MB as usize, 3);
    let first = cluster.worker_addr(pipeline[0].worker).unwrap();
    let res = std::thread::scope(|s| {
        s.spawn(|| {
            while !written.load(Ordering::Acquire) {
                drop(squatter.accept());
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let res = call_worker(
            first,
            &WorkerRequest::WriteBlock(block, pipeline[0].media, pipeline[1..].to_vec(), data),
        );
        written.store(true, Ordering::Release);
        res
    })
    .unwrap();
    let WorkerResponse::Stored(stored) = res else { panic!("expected Stored, got {res:?}") };
    assert_eq!(stored.len(), 2, "only the two live stages stored");

    let live = master.block_locations(block.id);
    assert_eq!(live.len(), 2, "blockmap must keep the two committed replicas, got {live:?}");
    assert!(live.contains(&pipeline[0]) && live.contains(&pipeline[1]));
    assert!(
        master.pending_locations(block.id).is_empty(),
        "the dead tail's pending entry must be cleared"
    );
    // Regression: dropping a stage used to release 0 of the reserved
    // bytes, leaking the tail's scheduled-write reservation forever.
    assert_eq!(
        master.scheduled_bytes(tail.media),
        0,
        "dropping the unreachable tail must return its reservation"
    );
}

#[test]
fn a_tail_whose_ack_was_lost_is_confirmed_by_its_next_block_report() {
    // The tail stores but its response is lost (connection dropped): the
    // stage before it sees the failure, so the head commits two stages and
    // drops the tail's pending entry. The tail's replica is real, and its
    // worker's next block report confirms it — the one this test sends, as
    // no heartbeat runs meanwhile.
    let cluster = NetCluster::start(ClusterConfig { heartbeat_ms: 60_000, ..config() }).unwrap();
    let master = Arc::clone(cluster.master());
    master
        .create_file_as("/q", ReplicationVector::from_replication_factor(3), None, ClientId(1))
        .unwrap();
    let (block, pipeline) =
        master.add_block_excluding("/q", MB, ClientLocation::OffCluster, ClientId(1), &[]).unwrap();
    let tail = pipeline[2];
    let tail_addr = cluster.worker_addr(tail.worker).unwrap();
    octopus_core::net::faults::inject(tail_addr, octopus_core::net::FaultAction::DropConnection);

    let data = BlockData::generate_real(MB as usize, 4);
    let first = cluster.worker_addr(pipeline[0].worker).unwrap();
    call_worker(
        first,
        &WorkerRequest::WriteBlock(block, pipeline[0].media, pipeline[1..].to_vec(), data),
    )
    .unwrap();
    octopus_core::net::faults::clear(tail_addr);

    let live = master.block_locations(block.id);
    assert_eq!(live, pipeline[..2], "the head commits the stages that acked");
    assert!(master.pending_locations(block.id).is_empty(), "the tail's entry is dropped");
    assert_eq!(master.scheduled_bytes(tail.media), 0, "the tail's reservation is released");

    cluster.run_block_report_round().unwrap();
    let live = master.block_locations(block.id);
    assert_eq!(live.len(), 3, "the tail's report confirms its replica ({live:?})");
}

#[test]
fn resending_a_stored_block_is_idempotent_when_the_bytes_match() {
    // Pipeline recovery re-sends a block to a worker that already holds it
    // when the original store succeeded but its response was lost (one
    // severed mux connection fails every call in flight on it). The
    // re-store of identical bytes must succeed as a no-op; different bytes
    // under the same block id must still be refused.
    let cluster = NetCluster::start(config()).unwrap();
    let master = Arc::clone(cluster.master());
    master
        .create_file_as("/r", ReplicationVector::from_replication_factor(1), None, ClientId(1))
        .unwrap();
    let (block, pipeline) =
        master.add_block_excluding("/r", MB, ClientLocation::OffCluster, ClientId(1), &[]).unwrap();
    let head = cluster.worker_addr(pipeline[0].worker).unwrap();

    let data = BlockData::generate_real(MB as usize, 5);
    let req = WorkerRequest::WriteBlock(block, pipeline[0].media, Vec::new(), data.clone());
    let WorkerResponse::Stored(first) = call_worker(head, &req).unwrap() else {
        panic!("expected Stored")
    };
    let WorkerResponse::Stored(again) = call_worker(head, &req).unwrap() else {
        panic!("expected the identical re-send to succeed idempotently")
    };
    assert_eq!(first, again);
    assert_eq!(master.block_locations(block.id).len(), 1, "still exactly one replica");

    let other = BlockData::generate_real(MB as usize, 6);
    let clash =
        call_worker(head, &WorkerRequest::WriteBlock(block, pipeline[0].media, Vec::new(), other));
    assert!(clash.is_err(), "different bytes under a stored block id must be refused: {clash:?}");
}

/// A §5 round on the master waits on workers that call back into it: a
/// scrub's `ReportCorrupt`, the heartbeats the round waits for. Sixteen
/// rounds at once, as many as the master's dispatch threads, must leave a
/// thread for those calls: every round returns, and heartbeats, commits
/// and corruption reports sent meanwhile are answered without waiting for
/// a round to end.
#[test]
fn sixteen_concurrent_rounds_leave_the_master_a_thread_for_their_callbacks() {
    let mut config = ClusterConfig::test_cluster(3, 64 * MB, MB);
    config.heartbeat_ms = 400;
    let cluster = NetCluster::start(config).unwrap();
    let client = cluster.client(ClientLocation::OffCluster).with_rpc_config(client_cfg());
    let data = {
        let BlockData::Real(b) = BlockData::generate_real(2 * MB as usize, 11) else {
            unreachable!()
        };
        b.to_vec()
    };
    client.write_file("/f", &data, ReplicationVector::from_replication_factor(2)).unwrap();
    let blocks = client.get_file_block_locations("/f", 0, u64::MAX).unwrap();
    for lb in &blocks {
        let victim = lb.locations[0];
        let worker = cluster.workers().iter().find(|w| w.id() == victim.worker).unwrap();
        let store = &worker.medium(victim.media).unwrap().store;
        let mem = store.as_any().downcast_ref::<octopus_storage::MemoryStore>().unwrap();
        mem.corrupt(lb.block.id).unwrap();
    }

    let master = cluster.master_addr();
    let kinds = [Round::Balance, Round::Scrub, Round::Repair];
    let done = AtomicUsize::new(0);
    let slowest = std::thread::scope(|s| {
        let rounds: Vec<_> = (0..16)
            .map(|i| {
                let done = &done;
                s.spawn(move || {
                    let out = call_master(master, &MasterRequest::RunRound(kinds[i % 3]));
                    done.fetch_add(1, Ordering::AcqRel);
                    out
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        // Probe the master with the calls the rounds wait on, until every
        // round has returned.
        let (block, loc) = (blocks[0].block, blocks[0].locations[1]);
        let mut slowest = Duration::ZERO;
        while done.load(Ordering::Acquire) < rounds.len() {
            for w in cluster.workers() {
                let t = Instant::now();
                heartbeat(w, cluster.transport()).unwrap();
                slowest = slowest.max(t.elapsed());
            }
            for req in [
                MasterRequest::CommitReplica(block, vec![], vec![]),
                MasterRequest::ReportCorrupt(block.id, Location { media: MediaId(9_999), ..loc }),
            ] {
                let t = Instant::now();
                call_master(master, &req).unwrap();
                slowest = slowest.max(t.elapsed());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for (i, round) in rounds.into_iter().enumerate() {
            round.join().unwrap().unwrap_or_else(|e| panic!("round {i} failed: {e}"));
        }
        slowest
    });
    // A probe that waited for a round to end took at least the round's wait.
    assert!(slowest < Duration::from_millis(200), "a probe took {slowest:?}");
    assert_eq!(client.read_file("/f").unwrap(), data);
}
