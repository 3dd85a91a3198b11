//! The in-process service: admission, execution, fair sharing,
//! cancellation, and per-job accounting — everything the socket
//! layer ([`crate::server`]) needs, with no wire format attached, so
//! the whole multi-tenant discipline is testable in one process.
//!
//! A [`ServiceCore`] owns the shared [`DiskFarm`] and one
//! [`FairScheduler`]. [`ServiceCore::submit`] validates a
//! [`JobSpec`] against the farm's fixed block size and disk count,
//! applies the *typed* admission policy ([`Reject`]) and queues the
//! job FIFO. The pump admits queued jobs while executor slots and
//! disk capacity last — capacity admission is head-of-line, so a big
//! job waits rather than being overtaken forever — and each admitted
//! job runs on its own thread against its own leased
//! [`pdm::DiskSystem`] whose governor meters every parallel I/O
//! through the scheduler. K backlogged jobs therefore each see about
//! `1/K` of the array's bandwidth, and each job's charged ledger
//! ([`pdm::JobUsage`]) equals its own disk system's counters exactly.
//!
//! Jobs are also *resilient*: a run that dies with a retryable error
//! (transient fault, timeout, disk disconnect) within its
//! [`JobSpec::max_retries`] budget is requeued behind an exponential
//! backoff gate — lease and buffers released in between — and re-run
//! from scratch; a periodic sweeper (period
//! [`ServiceConfig::sweep_ms`]) expires those gates and enforces
//! per-job wall-clock deadlines ([`JobSpec::deadline_ms`]).

use crate::farm::DiskFarm;
use crate::job::{run_job, JobKind, JobReport, JobSpec};
use pdm::{FairScheduler, Geometry, JobId, JobUsage, PdmError};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Fixed properties of one service instance.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Records per block on every farm disk.
    pub block: usize,
    /// Number of disks.
    pub disks: usize,
    /// Block slots per disk (the farm's capacity).
    pub slots: usize,
    /// Scheduler quantum in blocks per round-robin turn. One
    /// memoryload of blocks (`M/B` for the typical job memory) gives
    /// memoryload-granular interleaving.
    pub quantum: u64,
    /// Maximum queued-but-not-yet-admitted jobs before submits are
    /// refused with [`Reject::QueueFull`].
    pub max_queue: usize,
    /// Maximum concurrently running jobs.
    pub max_running: usize,
    /// Period of the service sweeper, which expires retry backoffs
    /// and enforces per-job deadlines, in milliseconds.
    pub sweep_ms: u64,
    /// Base of the exponential backoff between a job's retry
    /// attempts, in milliseconds (`base << (attempt - 1)`).
    pub retry_backoff_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            block: 1 << 4,
            disks: 1 << 3,
            slots: 1 << 12,
            quantum: 1 << 6,
            max_queue: 64,
            max_running: 8,
            sweep_ms: 20,
            retry_backoff_ms: 10,
        }
    }
}

/// Why a submit was refused — typed, so clients can react instead of
/// parsing strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The admission queue is at [`ServiceConfig::max_queue`].
    QueueFull,
    /// The spec does not form a valid PDM geometry with the farm's
    /// block size and disk count.
    BadGeometry(String),
    /// The job could never fit: it needs more slots per disk than the
    /// farm has in total.
    TooLarge {
        /// Slots per disk the job needs.
        need: usize,
        /// Slots per disk the farm has.
        have: usize,
    },
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull => write!(f, "admission queue full"),
            Reject::BadGeometry(msg) => write!(f, "bad geometry: {msg}"),
            Reject::TooLarge { need, have } => {
                write!(
                    f,
                    "job too large: needs {need} slots per disk, farm has {have}"
                )
            }
        }
    }
}

/// Lifecycle of a job inside the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for an executor slot or disk capacity.
    Queued,
    /// Running on its own executor thread.
    Running,
    /// Finished successfully; the report is available.
    Done,
    /// Failed; the error string is available.
    Failed,
    /// Cancelled (by request or because its client vanished).
    Cancelled,
}

impl JobState {
    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Stable lowercase name, used on the wire and in the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Wire tag (one byte).
    pub fn code(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }
    }

    /// Inverse of [`JobState::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// A point-in-time view of one job, as reported to clients.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// The job's id.
    pub id: u64,
    /// Workload kind.
    pub kind: JobKind,
    /// Current lifecycle state.
    pub state: JobState,
    /// Disk bandwidth charged to the job so far (live while running,
    /// final afterwards).
    pub usage: JobUsage,
    /// The report, once [`JobState::Done`].
    pub report: Option<JobReport>,
    /// The failure, once [`JobState::Failed`] (or a note for
    /// [`JobState::Cancelled`]; during a retry backoff, the error
    /// the last attempt died with).
    pub error: Option<String>,
    /// Runs started so far: 1 for a job that never needed a retry,
    /// more when the service re-ran it after retryable failures.
    pub attempts: u32,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    /// Connection that owns the job (None once submitted in-process
    /// or after the client detaches cleanly).
    owner: Option<u64>,
    /// Final ledger, captured when the job leaves the scheduler.
    /// After a retry it is the *latest* attempt's ledger — earlier
    /// attempts' traffic hit the shared disks but is not re-charged
    /// to the final report.
    usage: JobUsage,
    report: Option<JobReport>,
    error: Option<String>,
    cancel_requested: bool,
    /// Runs started so far (see [`JobStatus::attempts`]).
    attempts: u32,
    /// Earliest instant the pump may admit the job again — the retry
    /// backoff gate. `None` means admissible now.
    not_before: Option<Instant>,
    /// Absolute deadline computed at submit from
    /// [`JobSpec::deadline_ms`].
    deadline: Option<Instant>,
    /// The sweeper caught the job past its deadline while running;
    /// its cancellation unwinds to `Failed("deadline exceeded")`
    /// rather than `Cancelled`.
    deadline_hit: bool,
}

struct CoreState {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    running: usize,
    stopping: bool,
}

/// Aggregate service counters for the overview status.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overview {
    /// Jobs waiting for admission.
    pub queued: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs in a terminal state still in the table.
    pub finished: usize,
    /// Unleased block slots per disk.
    pub free_slots: usize,
    /// Disk worker processes respawned after crashes, across the
    /// farm's lifetime (always zero for the memory backend).
    pub respawns: u64,
}

/// The multi-tenant job service (in-process half). Create with
/// [`ServiceCore::new`], share via [`Arc`].
pub struct ServiceCore {
    farm: DiskFarm<u64>,
    sched: Arc<FairScheduler>,
    config: ServiceConfig,
    state: Mutex<CoreState>,
    cv: Condvar,
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ServiceCore {
    /// Builds a memory-backed farm and scheduler and starts with an
    /// empty table.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        Self::new_with_farm(
            config,
            DiskFarm::new(config.block, config.disks, config.slots),
        )
    }

    /// Builds the service over a caller-constructed farm (e.g. the
    /// UDS process-per-disk backend,
    /// [`crate::farm::DiskFarm::new_uds`]). The farm's block size,
    /// disk count, and slot count must match `config`.
    pub fn new_with_farm(config: ServiceConfig, farm: DiskFarm<u64>) -> Arc<Self> {
        assert_eq!(farm.block(), config.block, "farm/config block mismatch");
        assert_eq!(farm.disks(), config.disks, "farm/config disk mismatch");
        assert_eq!(farm.slots(), config.slots, "farm/config slot mismatch");
        let core = Arc::new(ServiceCore {
            farm,
            sched: FairScheduler::new(config.quantum),
            config,
            state: Mutex::new(CoreState {
                next_id: 1,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                running: 0,
                stopping: false,
            }),
            cv: Condvar::new(),
        });
        Self::spawn_sweeper(&core);
        core
    }

    /// Starts the periodic sweeper: every [`ServiceConfig::sweep_ms`]
    /// it enforces deadlines and re-pumps so retry backoffs expire.
    /// The thread holds only a weak handle, so it dies with the
    /// service (on shutdown, or when the last strong reference
    /// drops).
    fn spawn_sweeper(core: &Arc<Self>) {
        let weak = Arc::downgrade(core);
        let period = Duration::from_millis(core.config.sweep_ms.max(1));
        std::thread::Builder::new()
            .name("pdm-sweeper".into())
            .spawn(move || loop {
                std::thread::sleep(period);
                let Some(core) = weak.upgrade() else { return };
                if core.sweep() {
                    return;
                }
            })
            .expect("spawn service sweeper");
    }

    /// One sweeper pass: fails jobs past their deadline, then pumps
    /// (admitting any job whose retry backoff has expired). Returns
    /// whether the service is stopping.
    fn sweep(self: &Arc<Self>) -> bool {
        let now = Instant::now();
        let (expired_running, stopping) = {
            let mut st = self.state.lock().expect("service state poisoned");
            let stopping = st.stopping;
            let over_deadline = |e: &JobEntry| e.deadline.is_some_and(|d| now >= d);
            let queued_expired: Vec<u64> = st
                .queue
                .iter()
                .copied()
                .filter(|id| over_deadline(&st.jobs[id]))
                .collect();
            st.queue.retain(|id| !queued_expired.contains(id));
            for &id in &queued_expired {
                let entry = st.jobs.get_mut(&id).expect("queued job in table");
                entry.state = JobState::Failed;
                entry.error = Some(format!("deadline exceeded ({} attempts)", entry.attempts));
            }
            if !queued_expired.is_empty() {
                self.cv.notify_all();
            }
            let expired_running: Vec<u64> = st
                .jobs
                .iter_mut()
                .filter(|(_, e)| e.state == JobState::Running && !e.deadline_hit)
                .filter(|(_, e)| e.deadline.is_some_and(|d| now >= d))
                .map(|(&id, e)| {
                    e.deadline_hit = true;
                    id
                })
                .collect();
            (expired_running, stopping)
        };
        for id in expired_running {
            // Refuse the job's next I/O grant; it unwinds through
            // run_job and finish() records the deadline failure.
            self.sched.cancel(JobId(id));
        }
        self.pump();
        stopping
    }

    /// The service's fixed configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Validates `spec`, queues it, and starts it if a slot is free.
    /// Returns the new job id, or a typed [`Reject`]. `owner` ties
    /// the job to a client connection for disconnect cleanup.
    pub fn submit(self: &Arc<Self>, spec: JobSpec, owner: Option<u64>) -> Result<u64, Reject> {
        let geom = Geometry::new(
            spec.records,
            self.config.block,
            self.config.disks,
            spec.memory,
        )
        .map_err(|e| Reject::BadGeometry(e.to_string()))?;
        let need = spec.kind.portions() * geom.stripes();
        if need > self.config.slots {
            return Err(Reject::TooLarge {
                need,
                have: self.config.slots,
            });
        }
        let id = {
            let mut st = self.state.lock().expect("service state poisoned");
            if st.stopping {
                return Err(Reject::QueueFull);
            }
            if st.queue.len() >= self.config.max_queue {
                return Err(Reject::QueueFull);
            }
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.insert(
                id,
                JobEntry {
                    spec,
                    state: JobState::Queued,
                    owner,
                    usage: JobUsage::default(),
                    report: None,
                    error: None,
                    cancel_requested: false,
                    attempts: 0,
                    not_before: None,
                    deadline: spec
                        .deadline_ms
                        .map(|ms| Instant::now() + Duration::from_millis(ms)),
                    deadline_hit: false,
                },
            );
            st.queue.push_back(id);
            id
        };
        self.pump();
        Ok(id)
    }

    /// Admits queued jobs while executor slots and disk capacity
    /// last. Capacity admission is head-of-line: when the chosen
    /// job's lease fails, the pump stops rather than skipping ahead,
    /// so a large job cannot starve behind a stream of small ones.
    /// Jobs waiting out a retry backoff are the one exception — they
    /// are skipped (the sweeper re-pumps when their gate expires)
    /// rather than stalling everyone behind them.
    fn pump(self: &Arc<Self>) {
        loop {
            let now = Instant::now();
            let (id, mut spec) = {
                let mut st = self.state.lock().expect("service state poisoned");
                if st.stopping || st.running >= self.config.max_running {
                    return;
                }
                let mut chosen = None;
                let mut i = 0;
                while i < st.queue.len() {
                    let id = st.queue[i];
                    let entry = st.jobs.get_mut(&id).expect("queued job in table");
                    if entry.cancel_requested {
                        // Cancelled before it ever ran: terminal now.
                        st.queue.remove(i);
                        let entry = st.jobs.get_mut(&id).expect("queued job in table");
                        entry.state = JobState::Cancelled;
                        entry.error = Some("cancelled before start".into());
                        self.cv.notify_all();
                        continue;
                    }
                    if entry.not_before.is_none_or(|gate| gate <= now) {
                        chosen = Some((id, entry.spec));
                        break;
                    }
                    i += 1; // still backing off: skip, don't block
                }
                let Some((id, spec)) = chosen else { return };
                (id, spec)
            };
            // Lease outside the state lock (allocator has its own).
            let geom = Geometry::new(
                spec.records,
                self.config.block,
                self.config.disks,
                spec.memory,
            )
            .expect("validated at submit");
            let leased = self.farm.lease_system(geom, spec.kind.portions());
            let mut st = self.state.lock().expect("service state poisoned");
            let Some(pos) = st.queue.iter().position(|&q| q == id) else {
                // Someone else pumped this job meanwhile; retry.
                continue;
            };
            let Ok((mut sys, lease)) = leased else {
                // No capacity: leave the job in the queue, try again
                // when a running job releases its lease.
                return;
            };
            st.queue.remove(pos);
            st.running += 1;
            let entry = st.jobs.get_mut(&id).expect("admitted job in table");
            entry.state = JobState::Running;
            entry.attempts += 1;
            entry.not_before = None;
            if entry.attempts > 1 {
                // Injected faults are one-shot: the re-run goes clean,
                // like a recovered real-world transient would.
                spec.fault = None;
            }
            drop(st);

            let handle = self.sched.register(JobId(id));
            sys.set_governor(Some(handle));
            sys.set_threaded(true);
            let core = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("pdm-job-{id}"))
                .spawn(move || {
                    // A panic inside the job, such as bulk placement's
                    // over a dead disk, still finishes it.
                    let result = catch_unwind(AssertUnwindSafe(|| run_job(&mut sys, &spec)))
                        .unwrap_or_else(|panic| Err(panicked(panic.as_ref())));
                    drop(sys); // release the transports, then the slots
                    drop(lease);
                    core.finish(id, result);
                })
                .expect("spawn job executor");
        }
    }

    /// Records a job's terminal state and admits successors — or, for
    /// a *retryable* failure within the job's retry budget, releases
    /// its lease back to the pool and requeues it behind an
    /// exponential backoff gate (the caller has already dropped the
    /// leased system, so the slots and scheduler slot are free while
    /// the job waits).
    fn finish(self: &Arc<Self>, id: u64, result: Result<JobReport, PdmError>) {
        let usage = self.sched.unregister(JobId(id)).unwrap_or_default();
        {
            let mut st = self.state.lock().expect("service state poisoned");
            st.running -= 1;
            let stopping = st.stopping;
            let entry = st.jobs.get_mut(&id).expect("finished job in table");
            entry.usage = usage;
            let now = Instant::now();
            let past_deadline = entry.deadline.is_some_and(|d| now >= d);
            match result {
                Ok(report) => {
                    entry.state = JobState::Done;
                    entry.report = Some(report);
                }
                Err(PdmError::Cancelled { .. }) if entry.deadline_hit => {
                    entry.state = JobState::Failed;
                    entry.error = Some(format!("deadline exceeded ({} attempts)", entry.attempts));
                }
                Err(PdmError::Cancelled { .. }) => {
                    entry.state = JobState::Cancelled;
                    entry.error = Some("cancelled while running".into());
                }
                Err(e)
                    if e.is_retryable()
                        && entry.attempts <= entry.spec.max_retries
                        && !entry.cancel_requested
                        && !stopping
                        && !past_deadline =>
                {
                    // Back off exponentially in the base, capped well
                    // short of overflow.
                    let exp = (entry.attempts - 1).min(10);
                    let backoff = self.config.retry_backoff_ms.saturating_mul(1 << exp);
                    entry.state = JobState::Queued;
                    entry.not_before = Some(now + Duration::from_millis(backoff));
                    entry.error = Some(format!("attempt {}: {e} (retrying)", entry.attempts));
                    entry.report = None;
                }
                Err(e) => {
                    entry.state = JobState::Failed;
                    entry.error = Some(if entry.attempts > 1 {
                        format!("attempt {}: {e}", entry.attempts)
                    } else {
                        e.to_string()
                    });
                }
            }
            let requeued = entry.state == JobState::Queued;
            if requeued {
                st.queue.push_back(id);
            }
            self.cv.notify_all();
        }
        self.pump();
    }

    /// Requests cancellation. Queued jobs become terminal at the next
    /// pump; running jobs are refused their next I/O grant and unwind
    /// as [`PdmError::Cancelled`]. Unknown ids are ignored. Returns
    /// whether the job existed and was not already terminal.
    pub fn cancel(self: &Arc<Self>, id: u64) -> bool {
        let live = {
            let mut st = self.state.lock().expect("service state poisoned");
            match st.jobs.get_mut(&id) {
                Some(entry) if !entry.state.is_terminal() => {
                    entry.cancel_requested = true;
                    true
                }
                _ => false,
            }
        };
        if live {
            self.sched.cancel(JobId(id));
            self.pump(); // sweep it out of the queue if it never ran
        }
        live
    }

    /// Cancels every live job owned by connection `conn` — the
    /// crashed-client cleanup path. Returns the cancelled ids.
    pub fn cancel_owned_by(self: &Arc<Self>, conn: u64) -> Vec<u64> {
        let ids: Vec<u64> = {
            let st = self.state.lock().expect("service state poisoned");
            st.jobs
                .iter()
                .filter(|(_, e)| e.owner == Some(conn) && !e.state.is_terminal())
                .map(|(&id, _)| id)
                .collect()
        };
        ids.iter().filter(|&&id| self.cancel(id)).copied().collect()
    }

    /// A point-in-time view of job `id`, or `None` if unknown.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let st = self.state.lock().expect("service state poisoned");
        let entry = st.jobs.get(&id)?;
        let usage = if entry.state.is_terminal() {
            entry.usage.clone()
        } else {
            // Live ledger while queued (zero) or running.
            self.sched.usage(JobId(id)).unwrap_or_default()
        };
        Some(JobStatus {
            id,
            kind: entry.spec.kind,
            state: entry.state,
            usage,
            report: entry.report,
            error: entry.error.clone(),
            attempts: entry.attempts,
        })
    }

    /// Aggregate counters across the whole service.
    pub fn overview(&self) -> Overview {
        let st = self.state.lock().expect("service state poisoned");
        let finished = st.jobs.values().filter(|e| e.state.is_terminal()).count();
        Overview {
            queued: st.queue.len(),
            running: st.running,
            finished,
            free_slots: self.farm.free_slots(),
            respawns: self.farm.respawns(),
        }
    }

    /// Blocks until job `id` reaches a terminal state, then returns
    /// its final status (`None` for unknown ids).
    pub fn wait(&self, id: u64) -> Option<JobStatus> {
        let mut st = self.state.lock().expect("service state poisoned");
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(entry) if entry.state.is_terminal() => break,
                Some(_) => st = self.cv.wait(st).expect("service state poisoned"),
            }
        }
        drop(st);
        self.status(id)
    }

    /// Stops admitting, cancels everything live, and waits for the
    /// executors to drain. Idempotent; called by the server on exit
    /// (and by drop-order safety nets in tests).
    pub fn shutdown(self: &Arc<Self>) {
        let ids: Vec<u64> = {
            let mut st = self.state.lock().expect("service state poisoned");
            st.stopping = true;
            st.jobs
                .iter()
                .filter(|(_, e)| !e.state.is_terminal())
                .map(|(&id, _)| id)
                .collect()
        };
        for id in ids {
            self.cancel(id);
        }
        let mut st = self.state.lock().expect("service state poisoned");
        while st.running > 0 {
            st = self.cv.wait(st).expect("service state poisoned");
        }
        // Queued leftovers (cancel marked them; pump is stopped).
        let leftover: Vec<u64> = st.queue.drain(..).collect();
        for id in leftover {
            let entry = st.jobs.get_mut(&id).expect("queued job in table");
            if !entry.state.is_terminal() {
                entry.state = JobState::Cancelled;
                entry.error = Some("service shutting down".into());
            }
        }
        self.cv.notify_all();
    }
}

/// The error a panicked job fails with: not retryable, carrying the
/// panic message.
fn panicked(panic: &(dyn std::any::Any + Send)) -> PdmError {
    let msg = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    PdmError::Io(format!("job executor panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_core() -> Arc<ServiceCore> {
        ServiceCore::new(ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 4,
            ..ServiceConfig::default()
        })
    }

    fn quick_spec(seed: u64) -> JobSpec {
        let mut s = JobSpec::new(JobKind::Bmmc, 1 << 10, 1 << 6, seed);
        s.verify = true;
        s
    }

    #[test]
    fn submit_runs_to_done_with_exact_accounting() {
        let core = quick_core();
        let id = core.submit(quick_spec(1), None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        let report = status.report.unwrap();
        assert!(report.verified);
        // The scheduler's charged ledger equals the job's own counters.
        assert_eq!(status.usage.io, report.io);
        core.shutdown();
    }

    #[test]
    fn four_equal_jobs_equal_charges() {
        let core = quick_core();
        let ids: Vec<u64> = (0..4)
            .map(|_| core.submit(quick_spec(9), None).unwrap())
            .collect();
        let charges: Vec<u64> = ids
            .iter()
            .map(|&id| {
                let s = core.wait(id).unwrap();
                assert_eq!(s.state, JobState::Done);
                assert_eq!(s.usage.io, s.report.unwrap().io, "exact ledger");
                s.usage.io.parallel_ios()
            })
            .collect();
        assert!(
            charges.windows(2).all(|w| w[0] == w[1]),
            "equal jobs, equal charge: {charges:?}"
        );
        core.shutdown();
    }

    #[test]
    fn queue_full_and_bad_geometry_are_typed() {
        let core = ServiceCore::new(ServiceConfig {
            max_queue: 0,
            max_running: 0, // nothing ever admits: pure queue test
            ..ServiceConfig::default()
        });
        assert_eq!(
            core.submit(JobSpec::new(JobKind::Sort, 1 << 12, 1 << 8, 0), None),
            Err(Reject::QueueFull)
        );
        // 8 records in 16-record blocks is not a geometry.
        match core.submit(JobSpec::new(JobKind::Sort, 8, 1 << 8, 0), None) {
            Err(Reject::BadGeometry(_)) => {}
            other => panic!("expected BadGeometry, got {other:?}"),
        }
        match core.submit(JobSpec::new(JobKind::Sort, 1 << 24, 1 << 8, 0), None) {
            Err(Reject::TooLarge { need, have }) => assert!(need > have),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn cancel_queued_and_running() {
        let core = ServiceCore::new(ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 1, // second job stays queued
            ..ServiceConfig::default()
        });
        let a = core.submit(quick_spec(1), None).unwrap();
        let b = core.submit(quick_spec(2), None).unwrap();
        assert!(core.cancel(b), "queued job is cancellable");
        let sb = core.wait(b).unwrap();
        assert_eq!(sb.state, JobState::Cancelled);
        let sa = core.wait(a).unwrap();
        assert_eq!(sa.state, JobState::Done, "head job unaffected");
        assert!(!core.cancel(a), "terminal jobs are not cancellable");
        assert!(!core.cancel(999), "unknown ids are not cancellable");
        core.shutdown();
    }

    #[test]
    fn retryable_failure_requeues_to_done() {
        let core = ServiceCore::new(ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 4,
            sweep_ms: 5,
            retry_backoff_ms: 1,
        });
        let mut spec = quick_spec(7);
        spec.fault = Some((3, 1)); // kills attempt 1 on the mem farm
        spec.max_retries = 2;
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done, "error: {:?}", status.error);
        assert_eq!(status.attempts, 2, "one crash, one clean re-run");
        let report = status.report.unwrap();
        assert!(report.verified);
        assert_eq!(status.usage.io, report.io, "final attempt's exact ledger");
        // The terminal report matches an identical never-faulted job.
        let mut clean = quick_spec(7);
        clean.max_retries = 2;
        let clean_id = core.submit(clean, None).unwrap();
        let clean_status = core.wait(clean_id).unwrap();
        assert_eq!(clean_status.attempts, 1);
        assert_eq!(clean_status.report.unwrap().io, report.io);
        core.shutdown();
        assert_eq!(
            core.overview().free_slots,
            core.config().slots,
            "lease released"
        );
    }

    #[test]
    fn without_retry_budget_the_fault_still_fails_the_job() {
        let core = quick_core();
        let mut spec = quick_spec(7);
        spec.fault = Some((3, 1));
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.attempts, 1);
        assert!(status.error.is_some());
        core.shutdown();
    }

    #[test]
    fn success_consumes_a_single_attempt_despite_budget() {
        // Which errors count as retryable is pinned by the pdm
        // crate's `retryable_classification` test; here: a clean run
        // with a generous budget must not retry at all.
        let core = quick_core();
        let mut spec = quick_spec(3);
        spec.max_retries = 3;
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.attempts, 1, "no spurious retries on success");
        core.shutdown();
    }

    #[test]
    fn sweeper_fails_queued_job_past_deadline() {
        let core = ServiceCore::new(ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 0, // nothing ever admits: job ages in queue
            sweep_ms: 5,    // satellite: sweep interval is configurable
            retry_backoff_ms: 1,
        });
        let mut spec = quick_spec(1);
        spec.deadline_ms = Some(20);
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(
            status.error.as_deref().unwrap_or("").contains("deadline"),
            "error: {:?}",
            status.error
        );
        assert_eq!(status.attempts, 0, "never ran");
        core.shutdown();
    }

    #[test]
    fn deadline_cuts_the_retry_loop_short() {
        let core = ServiceCore::new(ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 4,
            sweep_ms: 5,
            retry_backoff_ms: 1,
        });
        let mut spec = quick_spec(7);
        spec.fault = Some((3, 1));
        spec.max_retries = 10;
        spec.deadline_ms = Some(0); // already expired when attempt 1 dies
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Failed, "error: {:?}", status.error);
        core.shutdown();
    }

    #[test]
    fn uds_farm_job_survives_worker_crash_without_job_retry() {
        let Some(bin) = pdm::transport::find_diskd() else {
            eprintln!("pdm-diskd not built; skipping UDS service test");
            return;
        };
        let config = ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 8,
            quantum: 16,
            max_queue: 8,
            max_running: 2,
            sweep_ms: 5,
            retry_backoff_ms: 1,
        };
        let farm = DiskFarm::new_uds(config.block, config.disks, config.slots, bin, 2).unwrap();
        let core = ServiceCore::new_with_farm(config, farm);
        // The same fault that kills a mem-farm attempt crashes a real
        // worker process here — recovered below the job, so no retry
        // is consumed.
        let mut spec = quick_spec(5);
        spec.fault = Some((3, 1));
        spec.max_retries = 2;
        let id = core.submit(spec, None).unwrap();
        let status = core.wait(id).unwrap();
        assert_eq!(status.state, JobState::Done, "error: {:?}", status.error);
        assert_eq!(status.attempts, 1, "recovered in place, not re-run");
        assert!(status.report.unwrap().verified);
        assert_eq!(core.overview().respawns, 1, "one crash, one respawn");
        core.shutdown();
    }

    #[test]
    fn a_panicking_job_fails_and_frees_its_slots() {
        use pdm::backend::{DiskUnit, MemDisk};
        /// A disk whose first transfer panics.
        struct Panics;
        impl DiskUnit<u64> for Panics {
            fn slots(&self) -> usize {
                1 << 10
            }
            fn block(&self) -> usize {
                4
            }
            fn read(&mut self, _: usize, _: &mut [u64]) -> pdm::Result<()> {
                panic!("disk unit exploded");
            }
            fn write(&mut self, _: usize, _: &[u64]) -> pdm::Result<()> {
                panic!("disk unit exploded");
            }
        }
        let config = ServiceConfig {
            block: 4,
            disks: 4,
            slots: 1 << 10,
            quantum: 16,
            max_queue: 8,
            max_running: 4,
            ..ServiceConfig::default()
        };
        let units = (0..config.disks)
            .map(|d| match d {
                1 => Box::new(Panics) as Box<dyn DiskUnit<u64>>,
                _ => Box::new(MemDisk::new(config.block, config.slots)),
            })
            .collect();
        // Disk 1 panics on the thread it shares with disk 3.
        let farm = DiskFarm::over_units(config.block, config.slots, units, 2);
        let core = ServiceCore::new_with_farm(config, farm);
        let mut spec = quick_spec(1);
        spec.max_retries = 2;
        let id = core.submit(spec, None).unwrap();
        // Poll rather than wait, so that a stuck job fails the test
        // instead of hanging it.
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            let status = core.status(id).unwrap();
            if status.state.is_terminal() {
                break status;
            }
            assert!(Instant::now() < deadline, "job stuck {:?}", status.state);
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(status.state, JobState::Failed);
        let error = status.error.unwrap_or_default();
        assert!(error.contains("panicked"), "error: {error}");
        assert_eq!(status.attempts, 1, "a panic is not retried");
        let overview = core.overview();
        assert_eq!(overview.running, 0);
        assert_eq!(overview.free_slots, config.slots, "lease released");
        core.shutdown();
    }

    #[test]
    fn owner_disconnect_cancels_only_their_jobs() {
        let core = quick_core();
        // Big enough that cancellation lands mid-run.
        let mine = core
            .submit(JobSpec::new(JobKind::Sort, 1 << 13, 1 << 8, 3), Some(7))
            .unwrap();
        let theirs = core.submit(quick_spec(4), Some(8)).unwrap();
        let swept = core.cancel_owned_by(7);
        assert!(swept.contains(&mine) || core.wait(mine).unwrap().state.is_terminal());
        let s = core.wait(mine).unwrap();
        assert!(
            matches!(s.state, JobState::Cancelled | JobState::Done),
            "cancel raced job completion: {:?}",
            s.state
        );
        assert_eq!(core.wait(theirs).unwrap().state, JobState::Done);
        // Nothing leaked: all capacity back, nobody left registered.
        core.shutdown();
        assert_eq!(core.overview().free_slots, core.config().slots);
        assert_eq!(core.overview().running, 0);
    }
}
