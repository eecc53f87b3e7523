//! The simulated cluster: a virtual clock over the system, not a second
//! copy of it.
//!
//! [`SimCluster`] owns what only a *rate* model needs — the
//! [`octopus_simnet`] flow simulator, the connection guards held while a
//! flow is in flight, and the job table. Everything that changes state is
//! the deployment's own code, reached through the same [`LocalTransport`]
//! seam [`crate::Cluster`] runs on, at the virtual instant the flow model
//! says it happens: workers join and heartbeat through
//! [`worker_server`], every job is a [`RemoteFs`] client (create, allocate,
//! locate, close — under its own lease), a finished write flow is one
//! `WriteBlock` to the pipeline head (store → commit → forward is the
//! worker dispatch's), and §5 tasks run through [`monitor::run_tasks`].
//!
//! Every block write becomes one flow through the pipeline's resources
//! (client/worker NIC directions and media write devices); every block read
//! becomes a flow from the chosen replica's media read device through the
//! source NIC to the reader, and moves no state. Max-min fair sharing
//! reproduces the contention behaviour the paper's evaluation measures:
//! device bandwidth splits among `NrConn` connections, pipelines run at
//! their slowest stage, and network congestion grows with the degree of
//! parallelism.
//!
//! Connection counts are tracked with the same RAII guards the real worker
//! uses and fed back to the master through heartbeats after every event, so
//! the placement (§3) and retrieval (§4) policies observe live load exactly
//! as they would in deployment.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use octopus_common::{
    Block, ClientLocation, ClusterConfig, FsError, Location, MediaId, ReplicationVector, Result,
    WorkerId,
};
use octopus_master::{Master, ReplicationTask};
use octopus_simnet::{EventKind, FlowId, ResourceId, SimNet, SimTime};
use octopus_storage::ConnGuard;

use crate::net::proto::BlockRef;
use crate::net::transport::LocalTransport;
use crate::net::{monitor, worker_server, RemoteFs};
use crate::worker::Worker;

/// Identifier of a submitted I/O job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub usize);

/// Outcome of a finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Logical bytes transferred (not multiplied by replication).
    pub bytes: u64,
    /// Submission time.
    pub start: SimTime,
    /// Completion time (equal to `start` for failed jobs).
    pub end: SimTime,
    /// Failure reason, if the job could not finish.
    pub failed: Option<String>,
}

impl JobReport {
    /// Mean throughput in bytes/s.
    pub fn throughput_bps(&self) -> f64 {
        let secs = self.end.secs_since(self.start);
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Mean throughput in MB/s (binary MB, as the paper reports).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / (1 << 20) as f64
    }
}

/// Events surfaced to drivers (benchmarks, the compute framework).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A submitted job finished (successfully or not — check its report).
    JobDone(JobId),
    /// A timer scheduled with [`SimCluster::schedule_timer`] fired.
    Timer(u64),
}

enum JobKind {
    Write {
        client: RemoteFs,
        path: String,
        remaining: u64,
        block_size: u64,
        current: Option<(Block, Vec<Location>)>,
    },
    Read {
        client: RemoteFs,
        path: String,
        offset: u64,
        len: u64,
        in_flight: u64,
    },
    /// A raw network transfer (shuffle traffic) or a pure delay (CPU).
    Opaque,
}

/// Timer tokens at or above this value are reserved for internal use
/// (delay jobs); user tokens passed to [`SimCluster::schedule_timer`] must
/// stay below it.
const DELAY_TOKEN_BASE: u64 = 1 << 62;

struct Job {
    kind: JobKind,
    bytes_total: u64,
    start: SimTime,
    end: Option<SimTime>,
    failed: Option<String>,
}

/// The worker a client shares a node with, if any.
fn node_of(client: ClientLocation) -> Option<WorkerId> {
    match client {
        ClientLocation::OnWorker(w) => Some(w),
        ClientLocation::OffCluster => None,
    }
}

/// What a flow crosses, and the connection guards held while it runs.
#[derive(Default)]
struct FlowPath {
    res: Vec<ResourceId>,
    guards: Vec<ConnGuard>,
}

/// The simulated cluster.
///
/// ```
/// use octopus_common::{ClientLocation, ClusterConfig, ReplicationVector, MB};
/// use octopus_core::SimCluster;
///
/// let mut config = ClusterConfig::paper_cluster_scaled(0.01);
/// config.block_size = MB;
/// let mut sim = SimCluster::new(config).unwrap();
/// sim.submit_write("/f", 10 * MB, ReplicationVector::msh(0, 0, 3),
///                  ClientLocation::OffCluster).unwrap();
/// let report = &sim.run_to_completion()[0];
/// // A 3-replica HDD pipeline runs at one HDD's write rate (~126 MB/s).
/// assert!((report.throughput_mbps() - 126.3).abs() < 5.0);
/// ```
pub struct SimCluster {
    /// The system under the clock: master and workers behind the seam.
    net: Arc<LocalTransport>,
    sim: SimNet,
    nic_in: Vec<ResourceId>,
    nic_out: Vec<ResourceId>,
    /// Per-medium `(write device, read device)` resources.
    media: HashMap<MediaId, (ResourceId, ResourceId)>,
    jobs: Vec<Job>,
    /// Finished jobs whose `JobDone` has not been surfaced yet.
    done: VecDeque<JobId>,
    flow_jobs: HashMap<FlowId, JobId>,
    flow_guards: HashMap<FlowId, Vec<ConnGuard>>,
    /// In-flight §5 copies: executed when their flow completes.
    repl_flows: HashMap<FlowId, ReplicationTask>,
    bytes_written: u64,
    bytes_read: u64,
}

impl SimCluster {
    /// Builds a simulated cluster from configuration. Workers keep their
    /// replicas in heap stores as synthetic `(len, seed)` descriptors;
    /// device/NIC rates come from the config.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        let net = crate::cluster::boot(config)?;
        let mut sim = SimNet::new();
        let mut nic_in = Vec::new();
        let mut nic_out = Vec::new();
        let mut media = HashMap::new();
        for w in net.all_workers() {
            nic_in.push(sim.add_resource(&format!("{}_in", w.id()), w.net_bps()));
            nic_out.push(sim.add_resource(&format!("{}_out", w.id()), w.net_bps()));
            for m in w.media() {
                let (wr, rd) = m.throughput();
                let write = sim.add_resource(&format!("{}_w", m.id), wr);
                media.insert(m.id, (write, sim.add_resource(&format!("{}_r", m.id), rd)));
            }
        }
        Ok(Self {
            net,
            sim,
            nic_in,
            nic_out,
            media,
            jobs: Vec::new(),
            done: VecDeque::new(),
            flow_jobs: HashMap::new(),
            flow_guards: HashMap::new(),
            repl_flows: HashMap::new(),
            bytes_written: 0,
            bytes_read: 0,
        })
    }

    /// The master (for namespace operations and tier reports).
    pub fn master(&self) -> &Arc<Master> {
        self.net.master()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Finished-job report.
    pub fn report(&self, job: JobId) -> Option<JobReport> {
        let j = self.jobs.get(job.0)?;
        Some(JobReport {
            job,
            bytes: j.bytes_total,
            start: j.start,
            end: j.end.unwrap_or(j.start),
            failed: j.failed.clone(),
        })
    }

    /// Reports for all jobs, submission order.
    pub fn reports(&self) -> Vec<JobReport> {
        (0..self.jobs.len()).filter_map(|i| self.report(JobId(i))).collect()
    }

    /// Whether every submitted job has finished.
    pub fn all_jobs_done(&self) -> bool {
        self.jobs.iter().all(|j| j.end.is_some())
    }

    /// Delivers every worker's heartbeat at the current virtual time, after
    /// every change of load — the model's one idealisation of the liveness
    /// loop: the master sees load the instant it changes.
    fn push_heartbeats(&self) {
        self.beat(self.sim.now().as_millis());
    }

    /// Delivers the periodic beats of the stretch the clock just crossed.
    /// Real workers beat through quiet stretches too, and the master's
    /// timers (failure detector, leases) run through them; nothing changed
    /// since the last event, so they are delivered late but identical,
    /// before anything happens at the new time.
    fn beat_through_gap(&self) {
        let step = self.master().config().heartbeat_ms;
        while self.master().now_ms() + step <= self.sim.now().as_millis() {
            self.beat(self.master().now_ms() + step);
        }
    }

    /// Ticks the master to virtual time `now_ms` ([`Master::tick`]), then
    /// delivers every worker's heartbeat.
    fn beat(&self, now_ms: u64) {
        self.master().tick(now_ms);
        for w in self.net.all_workers() {
            let _ = worker_server::heartbeat(w, &*self.net);
        }
    }

    /// Schedules a timer surfacing `SimEvent::Timer(token)` after `secs`.
    /// Tokens at or above `1 << 62` are reserved for internal use.
    pub fn schedule_timer(&mut self, secs: f64, token: u64) {
        assert!(token < DELAY_TOKEN_BASE, "timer tokens >= 2^62 are reserved");
        self.sim.schedule_after(secs, token);
    }

    /// A client at `location`: one per job, so each job writes under its
    /// own lease as a client of the deployment would.
    fn client(&self, location: ClientLocation) -> RemoteFs {
        RemoteFs::over(self.net.clone(), location)
    }

    fn push_job(&mut self, kind: JobKind, bytes_total: u64) -> JobId {
        let id = JobId(self.jobs.len());
        self.jobs.push(Job { kind, bytes_total, start: self.sim.now(), end: None, failed: None });
        id
    }

    /// Creates a file and submits a job writing `bytes` to it.
    pub fn submit_write(
        &mut self,
        path: &str,
        bytes: u64,
        rv: ReplicationVector,
        client: ClientLocation,
    ) -> Result<JobId> {
        let client = self.client(client);
        let block_size = client.open_new(path, rv, None)?.block_size;
        let id = self.push_job(
            JobKind::Write {
                client,
                path: path.to_string(),
                remaining: bytes,
                block_size,
                current: None,
            },
            bytes,
        );
        self.advance_write_job(id);
        Ok(id)
    }

    /// Submits a job reading the whole file.
    pub fn submit_read(&mut self, path: &str, client: ClientLocation) -> Result<JobId> {
        let client = self.client(client);
        let len = client.status(path)?.len;
        let id = self.push_job(
            JobKind::Read { client, path: path.to_string(), offset: 0, len, in_flight: 0 },
            len,
        );
        self.advance_read_job(id);
        Ok(id)
    }

    fn workers(&self) -> &[Arc<Worker>] {
        self.net.all_workers()
    }

    /// Appends one network hop `from → to` to a flow path: sender NIC out,
    /// receiver NIC in, and a network connection on each worker end. `None`
    /// is an off-cluster endpoint (the core network is non-blocking).
    fn hop(&self, path: &mut FlowPath, from: Option<WorkerId>, to: Option<WorkerId>) {
        if let Some(f) = from {
            path.res.push(self.nic_out[f.0 as usize]);
        }
        if let Some(t) = to {
            path.res.push(self.nic_in[t.0 as usize]);
        }
        for w in from.into_iter().chain(to) {
            path.guards.push(self.workers()[w.0 as usize].connect_net());
        }
    }

    /// Appends a replica's device — its write or its read side — to a flow
    /// path, with an I/O connection on the medium.
    fn device(&self, path: &mut FlowPath, at: &Location, write: bool) {
        let (w, r) = self.media[&at.media];
        path.res.push(if write { w } else { r });
        let medium = self.workers()[at.worker.0 as usize].medium(at.media).expect("replica media");
        path.guards.push(medium.connect());
    }

    /// Starts a flow of `bytes` along `path`, holding its guards until the
    /// flow completes.
    fn launch(&mut self, bytes: u64, path: FlowPath) -> FlowId {
        let flow = self.sim.start_flow(bytes as f64, path.res); // empty path ⇒ instant
        self.flow_guards.insert(flow, path.guards);
        flow
    }

    /// Finishes a job now; its `JobDone` surfaces on the next
    /// [`SimCluster::next_sim_event`] call, whether the job ended on a
    /// simulator event or inside the `submit_*` call that created it.
    fn finish_job(&mut self, id: JobId, failed: Option<String>) {
        let now = self.sim.now();
        let j = &mut self.jobs[id.0];
        j.end = Some(now);
        j.failed = failed;
        self.done.push_back(id);
    }

    /// Starts the next block write of a write job; closes the file and
    /// finishes the job when nothing remains.
    fn advance_write_job(&mut self, id: JobId) {
        // `Err(None)`: nothing left to write and the file closed cleanly.
        let allocated = {
            let JobKind::Write { client, path, remaining, block_size, current } =
                &mut self.jobs[id.0].kind
            else {
                unreachable!("advance_write_job on a read job")
            };
            debug_assert!(current.is_none());
            if *remaining == 0 {
                Err(client.close_file(path).err())
            } else {
                let len = (*remaining).min(*block_size);
                *remaining -= len;
                client.allocate_block(path, len).map(|a| (a, client.location())).map_err(Some)
            }
        };
        let ((block, pipeline), from) = match allocated {
            Ok(a) => a,
            Err(failed) => return self.finish_job(id, failed.map(|e| e.to_string())),
        };

        // Build the pipeline flow: client → W1 → W2 → … with media writes.
        let mut path = FlowPath::default();
        let mut prev = node_of(from);
        for loc in &pipeline {
            if prev != Some(loc.worker) {
                self.hop(&mut path, prev, Some(loc.worker));
            }
            self.device(&mut path, loc, true);
            prev = Some(loc.worker);
        }
        let flow = self.launch(block.len, path);
        self.flow_jobs.insert(flow, id);
        if let JobKind::Write { current, .. } = &mut self.jobs[id.0].kind {
            *current = Some((block, pipeline));
        }
        self.push_heartbeats();
    }

    /// Starts the next block read of a read job.
    fn advance_read_job(&mut self, id: JobId) {
        // Fetch the ordering for the next block only — the retrieval
        // policy re-evaluates live load for every block (§4.2).
        let JobKind::Read { client, path, offset, len, in_flight } = &mut self.jobs[id.0].kind
        else {
            unreachable!("advance_read_job on a write job")
        };
        let located = (|| {
            if *offset >= *len {
                return Err(None); // read to the end: done, not failed
            }
            let lbs = client.get_file_block_locations(path, *offset, 1);
            let lb = lbs.map_err(|e| Some(e.to_string()))?.into_iter().next();
            let lb = lb.ok_or_else(|| Some(format!("no block at offset {offset} of {path}")))?;
            let loc = lb.locations.first().copied();
            let loc = loc.ok_or_else(|| Some(format!("block {} has no replicas", lb.block.id)))?;
            *offset = lb.end().min(*len);
            *in_flight = lb.block.len;
            Ok((lb.block, loc, node_of(client.location())))
        })();
        let (block, loc, to) = match located {
            Ok(l) => l,
            Err(failed) => return self.finish_job(id, failed),
        };

        let mut path = FlowPath::default();
        self.device(&mut path, &loc, false);
        if to != Some(loc.worker) {
            self.hop(&mut path, Some(loc.worker), to);
        }
        let flow = self.launch(block.len, path);
        self.flow_jobs.insert(flow, id);
        self.push_heartbeats();
    }

    /// Submits a job reading exactly one block: the block overlapping
    /// `offset` in `path`. Used by compute frameworks whose tasks process
    /// one block each.
    pub fn submit_block_read(
        &mut self,
        path: &str,
        offset: u64,
        client: ClientLocation,
    ) -> Result<JobId> {
        let client = self.client(client);
        let lbs = client.get_file_block_locations(path, offset, 1)?;
        let Some(lb) = lbs.first() else {
            return Err(FsError::InvalidArgument(format!("no block at offset {offset} of {path}")));
        };
        let id = self.push_job(
            JobKind::Read {
                client,
                path: path.to_string(),
                offset: lb.offset,
                len: lb.end(),
                in_flight: 0,
            },
            lb.block.len,
        );
        self.advance_read_job(id);
        Ok(id)
    }

    /// Submits a raw network transfer of `bytes` from one worker to
    /// another (shuffle traffic). Same-node transfers complete at memory
    /// speed (no NIC traversal).
    pub fn submit_transfer(&mut self, from: WorkerId, to: WorkerId, bytes: u64) -> JobId {
        let id = self.push_job(JobKind::Opaque, bytes);
        let mut path = FlowPath::default();
        if from != to {
            self.hop(&mut path, Some(from), Some(to));
        }
        let flow = self.launch(bytes, path);
        self.flow_jobs.insert(flow, id);
        self.push_heartbeats();
        id
    }

    /// Submits a job that completes after `secs` of virtual time (CPU
    /// work). CPU contention is modelled by the caller through slot
    /// scheduling, not by the simulator.
    pub fn submit_delay(&mut self, secs: f64) -> JobId {
        let id = self.push_job(JobKind::Opaque, 0);
        self.sim.schedule_after(secs, DELAY_TOKEN_BASE + id.0 as u64);
        id
    }

    /// Runs one replication scan (§5). Each copy becomes a flow source →
    /// target and executes through the monitor when the flow completes;
    /// deletions (and copies with no source to read) execute at once.
    /// Returns the number of tasks started.
    pub fn pump_replication(&mut self) -> usize {
        let tasks = self.master().replication_scan();
        let n = tasks.len();
        let mut immediate = Vec::new();
        for task in tasks {
            let ReplicationTask::Copy { block, sources, target } = &task else {
                immediate.push(task);
                continue;
            };
            let Some(src) = sources.first() else {
                immediate.push(task);
                continue;
            };
            let mut path = FlowPath::default();
            self.device(&mut path, src, false);
            if src.worker != target.worker {
                self.hop(&mut path, Some(src.worker), Some(target.worker));
            }
            self.device(&mut path, target, true);
            let flow = self.launch(block.len, path);
            self.repl_flows.insert(flow, task);
        }
        monitor::run_tasks(self.master(), &*self.net, immediate, None, None);
        self.push_heartbeats();
        n
    }

    /// Processes simulator events until one is worth surfacing (a job
    /// completion or a user timer). Every submitted job surfaces exactly
    /// one `JobDone`. Returns `None` when the simulation has fully drained.
    pub fn next_sim_event(&mut self) -> Option<SimEvent> {
        loop {
            if let Some(job) = self.done.pop_front() {
                return Some(SimEvent::JobDone(job));
            }
            let e = self.sim.next_event()?;
            self.beat_through_gap();
            match e.kind {
                EventKind::Timer(token) if token >= DELAY_TOKEN_BASE => {
                    self.finish_job(JobId((token - DELAY_TOKEN_BASE) as usize), None);
                }
                EventKind::Timer(token) => return Some(SimEvent::Timer(token)),
                EventKind::FlowDone(f) => {
                    self.flow_guards.remove(&f);
                    if let Some(task) = self.repl_flows.remove(&f) {
                        monitor::run_tasks(self.master(), &*self.net, vec![task], None, None);
                    } else if let Some(job) = self.flow_jobs.remove(&f) {
                        self.complete_job_flow(job);
                    } else {
                        continue;
                    }
                    self.push_heartbeats();
                }
            }
        }
    }

    fn complete_job_flow(&mut self, id: JobId) {
        match &mut self.jobs[id.0].kind {
            JobKind::Opaque => self.finish_job(id, None),
            JobKind::Write { client, path, current, .. } => {
                // The block's bytes have arrived: one `WriteBlock` to the
                // pipeline head, as the client of the deployment sends it.
                let (block, pipeline) = current.take().expect("write flow without a block");
                let data = BlockRef::Synthetic { len: block.len, seed: block.id.0 };
                match client.store_block(path, block, pipeline, data) {
                    Ok(()) => {
                        self.bytes_written += block.len;
                        self.advance_write_job(id);
                    }
                    Err(e) => self.finish_job(id, Some(e.to_string())),
                }
            }
            JobKind::Read { in_flight, .. } => {
                self.bytes_read += std::mem::take(in_flight);
                self.advance_read_job(id);
            }
        }
    }

    /// Drives the simulation until every submitted job completes and its
    /// `JobDone` has been consumed. Returns the job reports.
    pub fn run_to_completion(&mut self) -> Vec<JobReport> {
        while !(self.all_jobs_done() && self.done.is_empty()) {
            if self.next_sim_event().is_none() {
                break;
            }
        }
        self.reports()
    }

    /// Drives the simulation to completion, invoking `sampler(now)` every
    /// `interval_secs` of virtual time (for time-series figures). The
    /// sampler may inspect the master through a pre-cloned `Arc`.
    pub fn run_with_sampler(
        &mut self,
        interval_secs: f64,
        mut sampler: impl FnMut(SimTime),
    ) -> Vec<JobReport> {
        const SAMPLE_TOKEN: u64 = DELAY_TOKEN_BASE - 1;
        self.schedule_timer(interval_secs, SAMPLE_TOKEN);
        while !(self.all_jobs_done() && self.done.is_empty()) {
            match self.next_sim_event() {
                Some(SimEvent::Timer(SAMPLE_TOKEN)) => {
                    sampler(self.now());
                    if !self.all_jobs_done() {
                        self.schedule_timer(interval_secs, SAMPLE_TOKEN);
                    }
                }
                Some(_) => {}
                None => break,
            }
        }
        self.reports()
    }

    /// Runs replication rounds until no more tasks are produced and all
    /// copy flows have drained (used after `setReplication` to realize
    /// moves/copies — §5).
    pub fn settle_replication(&mut self) -> Result<()> {
        loop {
            let started = self.pump_replication();
            if started == 0 && self.repl_flows.is_empty() {
                return Ok(());
            }
            while !self.repl_flows.is_empty() {
                if self.next_sim_event().is_none() && !self.repl_flows.is_empty() {
                    return Err(FsError::Internal(
                        "replication flows pending but simulator drained".into(),
                    ));
                }
            }
        }
    }

    /// Direct access to a worker (diagnostics/tests).
    pub fn worker(&self, id: WorkerId) -> &Arc<Worker> {
        &self.workers()[id.0 as usize]
    }

    /// Logical bytes written by completed block writes so far (not
    /// multiplied by replication). Used by time-series experiments.
    pub fn logical_bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Logical bytes delivered by completed block reads so far.
    pub fn logical_bytes_read(&self) -> u64 {
        self.bytes_read
    }
}
