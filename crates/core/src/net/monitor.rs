//! The networked replication monitor: executes the master's §5 tasks by
//! RPC — copies via the target worker's `Replicate` handler, deletions via
//! `DeleteBlock` — and drives scrub rounds across the fleet. The master
//! node runs these rounds on its timers and, one per `RunRound` request,
//! on an operator's (`balance`, `fsck`, `setrep`'s wait): [`run_round`].
//!
//! Failure handling (the silent-swallowing bugs this module used to have):
//!
//! - A copy is settled here, in-process: a `Copy` whose `Replicate`
//!   succeeded is committed at the master, and one that failed (or whose
//!   commit failed) drops its pending replica, so the next scan
//!   re-schedules it.
//! - A failed `Delete` **reinstates** the replica in the master's block
//!   map ([`octopus_master::Master::reinstate_replica`]): the scan removed
//!   the location before the RPC ran, so dropping the error would leave
//!   the master believing the excess replica was gone while the bytes
//!   still sit on the worker until its next block report. Reinstating
//!   keeps the block visibly over-replicated and the next round re-issues
//!   the delete.
//! - Scrub distinguishes a *clean* worker from an *unreachable* one
//!   ([`ScrubStatus`]); an unreachable worker no longer masquerades as "0
//!   corrupt replicas".
//!
//! Tasks are grouped by the worker that executes them and the per-worker
//! batches run concurrently on scoped threads, so one dead worker costs
//! its own RPC deadline budget — not a serial stall of every other
//! worker's tasks.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use octopus_common::log_warn;
use octopus_common::metrics::Labels;
use octopus_common::trace::TraceContext;
use octopus_common::{Location, Result, WorkerId};
use octopus_master::{
    AutoTierConfig, Master, MigrationDecision, MigrationDirection, ReplicationTask,
};
use octopus_policies::TierClassifier;

use super::proto::{WorkerRequest, WorkerResponse};
use super::transport::Transport;

/// Tally of one replication round's task executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationOutcome {
    /// Tasks the scan produced.
    pub attempted: usize,
    /// Copies that reached the target worker and committed.
    pub copies_ok: usize,
    /// Copies that failed (dropped at the master; rescheduled next scan).
    pub copies_failed: usize,
    /// Deletes acknowledged by the hosting worker.
    pub deletes_ok: usize,
    /// Deletes that failed (replica reinstated; re-issued next scan).
    pub deletes_failed: usize,
}

impl ReplicationOutcome {
    /// Whether every task executed successfully.
    pub fn all_ok(&self) -> bool {
        self.copies_failed == 0 && self.deletes_failed == 0
    }
}

/// One worker's scrub outcome in a [`ScrubRound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubStatus {
    /// The worker scrubbed and found nothing.
    Clean,
    /// The worker scrubbed and dropped this many corrupt replicas.
    Corrupt(u32),
    /// The worker could not be reached (or errored) — its replicas are
    /// *unverified*, which is not the same as healthy.
    Unreachable,
}

/// Fleet-wide scrub results, per worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubRound {
    /// Outcome per scrubbed worker.
    pub workers: Vec<(WorkerId, ScrubStatus)>,
}

impl ScrubRound {
    /// Total corrupt replicas dropped by reachable workers.
    pub fn corrupt_total(&self) -> u32 {
        self.workers
            .iter()
            .map(|(_, s)| match s {
                ScrubStatus::Corrupt(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Workers that could not be scrubbed this round.
    pub fn unreachable(&self) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|(_, s)| matches!(s, ScrubStatus::Unreachable))
            .map(|(w, _)| *w)
            .collect()
    }
}

/// Executes one task against its worker, compensating at the master on
/// failure. Returns whether the task succeeded; the caller tallies into a
/// [`ReplicationOutcome`].
fn run_one_task(
    master: &Master,
    net: &dyn Transport,
    task: &ReplicationTask,
    ctx: Option<TraceContext>,
) -> bool {
    match task {
        ReplicationTask::Copy { block, sources, target } => {
            // Scoped threads don't inherit the round's thread-local
            // span stack, so the parent context travels explicitly.
            let mut span = ctx.map(|c| master.trace().child_of("monitor.copy", c));
            if let Some(s) = span.as_mut() {
                s.annotate("block", block.id);
                s.annotate("target", target.worker);
                s.annotate("tier", target.tier);
            }
            let copy = WorkerRequest::Replicate(*block, sources.clone(), target.media);
            let ok = net.call_worker(target.worker, copy).is_ok()
                && master.commit_replica(*block, *target).is_ok();
            if !ok {
                log_warn!(
                    target: "net::monitor",
                    "msg=\"replication copy failed\" block={} target={}",
                    block.id,
                    target.worker
                );
                let _ = master.commit_replicas(*block, &[], &[*target]);
            }
            ok
        }
        ReplicationTask::Delete { block, location } => {
            let mut span = ctx.map(|c| master.trace().child_of("monitor.delete", c));
            if let Some(s) = span.as_mut() {
                s.annotate("block", block.id);
                s.annotate("target", location.worker);
            }
            // `NotFound` counts as done: a retried delete whose first
            // reply was lost has already removed the replica.
            let ok = matches!(
                net.call_worker(
                    location.worker,
                    WorkerRequest::DeleteBlock(location.media, block.id),
                ),
                Ok(_) | Err(octopus_common::FsError::NotFound(_))
            );
            if !ok {
                log_warn!(
                    target: "net::monitor",
                    "msg=\"replication delete failed, reinstating\" block={} worker={}",
                    block.id,
                    location.worker
                );
                // The scan already dropped the location; a failed (or
                // unaddressable) delete means the bytes still exist —
                // put the replica back so the next scan retries.
                master.reinstate_replica(*block, *location);
            }
            ok
        }
    }
}

/// Folds one task's result into an outcome tally.
fn tally(out: &mut ReplicationOutcome, task: &ReplicationTask, ok: bool) {
    match (task, ok) {
        (ReplicationTask::Copy { .. }, true) => out.copies_ok += 1,
        (ReplicationTask::Copy { .. }, false) => out.copies_failed += 1,
        (ReplicationTask::Delete { .. }, true) => out.deletes_ok += 1,
        (ReplicationTask::Delete { .. }, false) => out.deletes_failed += 1,
    }
}

/// Executes one task batch against its worker, sequentially (tasks for
/// one worker share its data server; concurrency lives across workers).
fn run_worker_batch(
    master: &Master,
    net: &dyn Transport,
    tasks: Vec<ReplicationTask>,
    ctx: Option<TraceContext>,
) -> ReplicationOutcome {
    let mut out = ReplicationOutcome::default();
    for task in tasks {
        let ok = run_one_task(master, net, &task, ctx);
        tally(&mut out, &task, ok);
    }
    out
}

/// The worker whose data server executes a task.
fn executing_worker(task: &ReplicationTask) -> WorkerId {
    match task {
        ReplicationTask::Copy { target: Location { worker, .. }, .. } => *worker,
        ReplicationTask::Delete { location: Location { worker, .. }, .. } => *worker,
    }
}

/// Executes `tasks` through `net`, one concurrent batch per executing
/// worker (a dead worker's connect timeout bounds only its own batch).
/// Failures are counted — and compensated at the master — rather than
/// swallowed.
pub fn run_tasks(
    master: &Master,
    net: &dyn Transport,
    tasks: Vec<ReplicationTask>,
    ctx: Option<TraceContext>,
) -> ReplicationOutcome {
    let mut total = ReplicationOutcome { attempted: tasks.len(), ..Default::default() };
    let mut by_worker: HashMap<WorkerId, Vec<ReplicationTask>> = HashMap::new();
    for task in tasks {
        by_worker.entry(executing_worker(&task)).or_default().push(task);
    }
    let outcomes: Vec<ReplicationOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = by_worker
            .into_values()
            .map(|batch| s.spawn(move || run_worker_batch(master, net, batch, ctx)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    for o in outcomes {
        total.copies_ok += o.copies_ok;
        total.copies_failed += o.copies_failed;
        total.deletes_ok += o.deletes_ok;
        total.deletes_failed += o.deletes_failed;
    }

    let m = master.metrics();
    m.add("master_replication_copy_failures_total", Labels::NONE, total.copies_failed as u64);
    m.add("master_replication_delete_failures_total", Labels::NONE, total.deletes_failed as u64);
    total
}

/// Runs one replication scan (§5) and executes its tasks — see
/// [`run_tasks`].
pub fn run_replication_round(master: &Master, net: &dyn Transport) -> Result<ReplicationOutcome> {
    let mut round_span = master.trace().root_or_child("monitor.replication_round");
    let tasks = master.replication_scan();
    round_span.annotate("tasks", tasks.len());
    Ok(run_tasks(master, net, tasks, Some(round_span.context())))
}

/// A §5 round an operator asks the master to run
/// ([`super::proto::MasterRequest::RunRound`], [`run_round`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// A balancer round; it counts the replicas it moved.
    Balance,
    /// A scrub round; it counts the corrupt replicas dropped.
    Scrub,
    /// A replication round; it counts the tasks it ran.
    Repair,
}

/// A medium this far above its tier's mean utilization is overloaded.
const BALANCE_THRESHOLD: f64 = 0.05;

/// Copies one balancer round makes at most.
const BALANCE_MOVES: usize = 8;

/// Runs one round of `round` on the master's node, through the transport
/// its timers use, and returns the round's count. A balance round, and a
/// repair round that ran tasks, ends by waiting for a heartbeat from every
/// worker (a balance also after its copies), so the next round's scan sees
/// the media stats this one left.
pub fn run_round(master: &Master, net: &dyn Transport, round: Round) -> Result<u64> {
    let beat = || await_beats(master);
    let n = match round {
        Round::Balance => run_balancer_round(master, net, BALANCE_THRESHOLD, BALANCE_MOVES, beat)?,
        Round::Scrub => run_scrub_round(master, net)?.corrupt_total() as usize,
        Round::Repair => {
            let attempted = run_replication_round(master, net)?.attempted;
            if attempted > 0 {
                beat();
            }
            attempted
        }
    };
    Ok(n as u64)
}

/// Waits until every worker live now has heartbeated again, two heartbeat
/// intervals at most.
pub fn await_beats(master: &Master) {
    let before = master.live_heartbeats();
    let interval = Duration::from_millis(master.config().heartbeat_ms);
    let poll = (interval / 16).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let deadline = Instant::now() + 2 * interval;
    while Instant::now() < deadline {
        let now = master.live_heartbeats();
        // A worker gone from the live set has nothing left to report.
        if before.iter().all(|(w, at)| now.iter().all(|(v, t)| v != w || t > at)) {
            return;
        }
        std::thread::sleep(poll);
    }
}

/// Runs one balancer round ([`Master::balancer_scan`]): executes the
/// proposed copies, then a replication round that trims the
/// now-over-replicated (overloaded) sources. `beat` heartbeats every
/// worker once, after the copies and after the trim, so the next scan
/// sees fresh media stats. Returns the number of moves made.
pub fn run_balancer_round(
    master: &Master,
    net: &dyn Transport,
    threshold: f64,
    max_moves: usize,
    beat: impl Fn(),
) -> Result<usize> {
    let tasks = master.balancer_scan(threshold, max_moves);
    let moves = run_tasks(master, net, tasks, None).attempted;
    beat();
    run_replication_round(master, net)?;
    beat();
    Ok(moves)
}

/// Asks every registered worker to scrub its replicas, reporting each
/// worker's outcome individually — an unreachable worker surfaces as
/// [`ScrubStatus::Unreachable`] instead of being counted as clean.
pub fn run_scrub_round(master: &Master, net: &dyn Transport) -> Result<ScrubRound> {
    let round_span = master.trace().root_or_child("monitor.scrub_round");
    let ctx = round_span.context();
    let mut round = ScrubRound::default();
    let results: Vec<(WorkerId, ScrubStatus)> = std::thread::scope(|s| {
        let handles: Vec<_> = net
            .workers()
            .into_iter()
            .map(|w| {
                s.spawn(move || {
                    let mut span = master.trace().child_of("monitor.scrub", ctx);
                    span.annotate("worker", w);
                    let status = match net.call_worker(w, WorkerRequest::Scrub) {
                        Ok(WorkerResponse::Scrubbed(0)) => ScrubStatus::Clean,
                        Ok(WorkerResponse::Scrubbed(n)) => ScrubStatus::Corrupt(n),
                        Ok(_) | Err(_) => ScrubStatus::Unreachable,
                    };
                    if matches!(status, ScrubStatus::Unreachable) {
                        log_warn!(
                            target: "net::monitor",
                            "msg=\"scrub unreachable\" worker={w}"
                        );
                        span.annotate("error", "unreachable");
                    }
                    (w, status)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    round.workers = results;
    round.workers.sort_by_key(|(w, _)| *w);

    let m = master.metrics();
    m.inc("master_scrub_rounds_total", Labels::NONE);
    for (w, status) in &round.workers {
        if matches!(status, ScrubStatus::Unreachable) {
            m.inc("master_scrub_unreachable_total", Labels::worker(*w));
        }
    }
    Ok(round)
}

/// What one auto-tiering round planned and executed.
#[derive(Debug, Clone, Default)]
pub struct MigrationRound {
    /// The planner's decisions (vector edits installed this round).
    pub planned: Vec<MigrationDecision>,
    /// How many of them promote toward Memory.
    pub promoted: usize,
    /// How many demote away from it.
    pub demoted: usize,
    /// Execution tally for the round's copy/delete tasks.
    pub outcome: ReplicationOutcome,
    /// Bytes moved by successful copies.
    pub bytes_copied: u64,
    /// Total time this round slept to honour the bandwidth cap.
    pub paced: Duration,
}

/// Runs one auto-tiering round over RPC: plans migrations
/// ([`Master::autotier_scan`]), then executes the resulting replication
/// tasks **sequentially with paced copies** so the round's aggregate copy
/// throughput stays at or below `cfg.max_copy_bps`. Pacing is the
/// execution-side half of the bandwidth bound (the planner's per-round
/// caps are the other): after each copy the round sleeps until the
/// cumulative bytes-per-elapsed ratio is back under the cap, so a
/// migration burst cannot starve foreground traffic. On the workers the
/// copies additionally ride the `Replicate` handler's per-medium
/// `media_io` guard, serializing against foreground I/O per device.
///
/// Any replication repair work pending at the same moment executes inside
/// the same paced loop — it is all background §5 traffic, and the cap is
/// deliberately shared.
///
/// The master sees the memory a delete freed only at the worker's next
/// heartbeat, so a promotion an eviction made room for finds no space in
/// the pass that ran the eviction. When that pass deleted a replica, the
/// round takes a `beat` (as [`run_balancer_round`] does) and runs one more
/// pass under the same cap, so the promotion lands in this round.
pub fn run_migration_round(
    master: &Master,
    net: &dyn Transport,
    classifier: &dyn TierClassifier,
    cfg: &AutoTierConfig,
    beat: impl Fn(),
) -> Result<MigrationRound> {
    let mut round_span = master.trace().root_or_child("monitor.migration_round");
    let ctx = Some(round_span.context());

    let planned = master.autotier_scan(classifier, cfg);
    let promoted = planned.iter().filter(|d| d.direction == MigrationDirection::Promote).count();
    let demoted = planned.len() - promoted;
    round_span.annotate("planned", planned.len());

    let mut round = MigrationRound { promoted, demoted, planned, ..Default::default() };
    let started = Instant::now();
    run_paced_pass(master, net, cfg, ctx, started, &mut round);
    if round.outcome.deletes_ok > 0 {
        beat();
        run_paced_pass(master, net, cfg, ctx, started, &mut round);
    }

    let elapsed = started.elapsed().as_secs_f64();
    let m = master.metrics();
    m.add("master_migration_bytes_total", Labels::NONE, round.bytes_copied);
    m.add("master_migration_paced_ms_total", Labels::NONE, round.paced.as_millis() as u64);
    if round.bytes_copied > 0 && elapsed > 0.0 {
        m.gauge("master_migration_round_bps", Labels::NONE)
            .set((round.bytes_copied as f64 / elapsed) as i64);
    }
    round_span.annotate("bytes", round.bytes_copied);
    Ok(round)
}

/// One pass of a migration round: a replication scan whose tasks run one at
/// a time, each successful copy followed by a sleep until the round's bytes
/// since `started` are back under `cfg.max_copy_bps`.
fn run_paced_pass(
    master: &Master,
    net: &dyn Transport,
    cfg: &AutoTierConfig,
    ctx: Option<TraceContext>,
    started: Instant,
    round: &mut MigrationRound,
) {
    let tasks = master.replication_scan();
    round.outcome.attempted += tasks.len();
    for task in tasks {
        let ok = run_one_task(master, net, &task, ctx);
        tally(&mut round.outcome, &task, ok);
        if let (ReplicationTask::Copy { block, .. }, true) = (&task, ok) {
            round.bytes_copied += block.len;
            if cfg.max_copy_bps > 0 {
                // Sleep until cumulative-bytes / elapsed ≤ max_copy_bps.
                let target =
                    Duration::from_secs_f64(round.bytes_copied as f64 / cfg.max_copy_bps as f64);
                let elapsed = started.elapsed();
                if elapsed < target {
                    std::thread::sleep(target - elapsed);
                    round.paced += target - elapsed;
                }
            }
        }
    }
}
