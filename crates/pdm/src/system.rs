//! The parallel disk system: `D` disks driven by parallel I/O
//! operations with exact accounting.
//!
//! A [`DiskSystem`] owns one [`DiskUnit`] per
//! disk and exposes the model's two access disciplines:
//!
//! * **striped** — [`DiskSystem::read_stripe`] / [`DiskSystem::write_stripe`]
//!   move the `D` blocks at the same location on every disk;
//! * **independent** — [`DiskSystem::read_blocks`] /
//!   [`DiskSystem::write_blocks`] move at most one block per disk at
//!   arbitrary locations.
//!
//! Either way one call is one parallel I/O (the paper's unit of cost)
//! and is tallied in [`IoStats`]. The system enforces the model: a
//! request that addresses the same disk twice in one operation is an
//! error, not a slower success.
//!
//! Disks are sized as `portions × N/BD` stripes. Algorithms that "map
//! records from one set of N/BD stripes to a different set" (Section 3)
//! use portion 0 as the source and portion 1 as the target, swapping
//! roles between passes.
//!
//! # Service modes and the one transfer path
//!
//! How a parallel I/O is physically serviced is orthogonal to how it is
//! charged. Every operation takes one path: a *ticket* stages the
//! blocks of one or more parallel I/Os, one submit dispatches them, and
//! one drain settles the ticket (recovery, first error, buffer return).
//! [`ServiceMode`] selects where the submit sends the blocks. Serial
//! local disks serve them in the caller's thread, in staged order and
//! with one copy: a read lands straight in the caller's buffer, a write
//! leaves straight from the caller's data. Everything else goes through
//! a [`crate::parallel::DiskPool`]'s per-disk transports — on local
//! disks, `min(D, available_parallelism)` persistent service threads
//! ([`crate::parallel::service_threads`]), disk `d` on thread `d mod P`:
//! pipelined in [`ServiceMode::Threaded`], and in *lockstep* — each
//! command's completion collected before the next is sent — when disks
//! behind remote transports run in [`ServiceMode::Serial`].
//!
//! The pool submit sends each disk's blocks as one *run*: one command
//! per block, every one but the last marked
//! [`crate::parallel::Cmd::more`], which the in-process transport
//! hands to its service thread in one hop. A single parallel I/O is
//! the one-block-per-disk case; the [`crate::engine::PassEngine`]'s
//! memoryloads, [`DiskSystem::load_records`],
//! [`DiskSystem::dump_records`] and [`DiskSystem::read_memoryload_into`]
//! send one run per disk per memoryload. Admission — validation, the
//! governor, the fault plan, the charge — stays per parallel I/O and in
//! order, so only the hop to the service threads is batched. A ticket
//! of several parallel I/Os admits and charges all of them before its
//! first transfer, in every mode, so a backend failure part-way leaves
//! the whole ticket charged; a single all-at-once operation
//! ([`DiskSystem::read_blocks_into`], [`DiskSystem::write_blocks`] and
//! the stripe calls) is charged once it has succeeded. Tickets, their
//! completion queues and the block buffers
//! ([`DiskSystem::buffer_pool_stats`]) are recycled, so a steady-state
//! operation allocates nothing; every code path, including
//! fault-injection errors, must return its buffers to the pool.
//!
//! In [`ServiceMode::Threaded`] the system additionally supports
//! *split-phase* operations ([`DiskSystem::begin_read`] /
//! [`DiskSystem::finish_read`] and the write duals): the operation is
//! validated, charged, and submitted to the service threads
//! immediately, and the caller collects the data later — the engine
//! uses this to overlap disk transfers with in-memory permutation, and
//! the external merge to keep batches of refills
//! ([`DiskSystem::begin_reads`]) and an output stripe in flight while
//! its heap drains.

use crate::backend::{DiskUnit, FileDisk, MemDisk};
use crate::config::Geometry;
use crate::error::{PdmError, Result};
use crate::fault::FaultPlan;
use crate::layout::Layout;
use crate::parallel::{Cmd, Completion, CompletionQueue, DiskPool, Transport};
use crate::record::{ByteRecord, Record};
use crate::retry::{RetryPolicy, RetryStats};
use crate::sched::SchedHandle;
use crate::stats::{IoStats, MsgStats};
use crate::timing::{TimingModel, TimingTracker};
use crate::transport::{spawn_uds_workers, SimNetTransport, TransportConfig};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Which storage backs the disk units of a [`DiskSystem`].
///
/// Every algorithm in this workspace takes `&mut DiskSystem<R>`, so a
/// system built from a `Backend` runs the BMMC passes, fused plans,
/// the BPC baseline, and `extsort` unmodified on either backend; only
/// the wall clock (never the charged parallel-I/O count) differs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// In-memory disks ([`MemDisk`]) — the default for experiments:
    /// the paper's cost model counts operations, not bytes.
    #[default]
    Mem,
    /// One preallocated file per disk ([`FileDisk`]), for wall-clock
    /// realism: real positional system calls, serviced by the same
    /// [`ServiceMode`] machinery (including the threaded split-phase
    /// overlap).
    File {
        /// Directory holding the per-disk `disk###.bin` files
        /// (created if missing).
        dir: PathBuf,
    },
}

/// A reference to one block: disk number and block slot on that disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// Disk number, `0 .. D`.
    pub disk: usize,
    /// Block slot on the disk (global across portions).
    pub slot: usize,
}

/// How parallel I/O operations are physically serviced. The charged
/// cost ([`IoStats`]) is identical in both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServiceMode {
    /// An operation's blocks are serviced one after another: in the
    /// caller's thread on local disks, in lockstep over remote
    /// transports.
    #[default]
    Serial,
    /// Persistent service threads — `min(D, available_parallelism)` of
    /// them for local disks, each serving `D/P` disks — with
    /// asynchronous submission; enables the split-phase
    /// [`DiskSystem::begin_read`]/[`DiskSystem::begin_write`] overlap.
    Threaded,
}

/// The physical host of the disks.
enum Service<R: Record> {
    /// Local units, serviced in the caller's thread.
    Serial(Vec<Box<dyn DiskUnit<R>>>),
    /// Per-disk workers behind transports. `lockstep` keeps one command
    /// in flight: the serial discipline for remote disks, which cannot
    /// come home as local units.
    Pooled { pool: DiskPool<R>, lockstep: bool },
}

/// Pool-accounting snapshot (see [`DiskSystem::buffer_pool_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers sitting in the free list.
    pub free: usize,
    /// Buffers currently lent out (in flight or held by a ticket).
    pub outstanding: usize,
    /// Total buffers ever allocated. A steady-state workload should
    /// stop growing this after warm-up; growth under errors indicates
    /// a leak on an error path.
    pub allocated: u64,
}

/// A recycling pool of block-sized record buffers.
struct BlockPool<R> {
    block: usize,
    free: Vec<Vec<R>>,
    outstanding: usize,
    allocated: u64,
}

impl<R: Record> BlockPool<R> {
    fn new(block: usize) -> Self {
        BlockPool {
            block,
            free: Vec::new(),
            outstanding: 0,
            allocated: 0,
        }
    }

    fn take(&mut self) -> Vec<R> {
        self.outstanding += 1;
        match self.free.pop() {
            Some(buf) => buf,
            None => {
                self.allocated += 1;
                vec![R::default(); self.block]
            }
        }
    }

    fn put(&mut self, buf: Vec<R>) {
        debug_assert_eq!(buf.len(), self.block, "foreign buffer returned to pool");
        self.outstanding -= 1;
        self.free.push(buf);
    }

    fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            free: self.free.len(),
            outstanding: self.outstanding,
            allocated: self.allocated,
        }
    }
}

/// Where a read's blocks go.
enum Sink<'a, R> {
    /// Staged block `i` into block `at[i]` of `out` — block `i` when
    /// `at` is empty; a local read lands there directly.
    Out(&'a mut [R], &'a [usize]),
    /// Staged block `i` handed to the caller's `place(i, block)`.
    Each(&'a mut dyn FnMut(usize, &[R])),
    /// Kept on the ticket for a later drain: a local or lockstep
    /// split-phase read has its data before `finish_read` is called.
    Keep,
    /// Straight back to the pool: writes, and the abort path.
    Discard,
}

impl<'a, R: Record> Sink<'a, R> {
    /// Reads land in `out` in staged order; without one, blocks are
    /// discarded.
    fn out_or_discard(out: Option<&'a mut [R]>) -> Self {
        out.map_or(Sink::Discard, |out| Sink::Out(out, &[]))
    }

    /// The records of `out` that staged block `idx` lands in.
    fn landing<'o>(out: &'o mut [R], at: &[usize], idx: usize, block: usize) -> &'o mut [R] {
        let pos = if at.is_empty() { idx } else { at[idx] };
        &mut out[pos * block..(pos + 1) * block]
    }

    /// Delivers staged block `idx` (kept blocks are not delivered
    /// here: they stay on the ticket).
    fn put(&mut self, idx: usize, buf: &[R]) {
        match self {
            Sink::Out(out, at) => Self::landing(out, at, idx, buf.len()).copy_from_slice(buf),
            Sink::Each(place) => place(idx, buf),
            Sink::Keep | Sink::Discard => {}
        }
    }
}

/// One or more parallel I/Os between submission and drain: the state
/// behind a [`ReadTicket`] or [`WriteTicket`]. On a pooled system the
/// blocks a ticket moves on one disk travel as one run of commands
/// ([`Cmd::more`]), so a single parallel I/O is the one-block-per-disk
/// case and a memoryload is `D` runs. The system recycles tickets, completion queue and
/// vectors included, so steady-state operations allocate nothing.
struct InFlight<R: Record> {
    /// Reads, or else writes.
    read: bool,
    /// Operations staged.
    ops: usize,
    /// Each staged block; block `i` sits at record offset `i·B` and
    /// travels as request index `i`.
    blocks: Vec<BlockRef>,
    /// Per disk, its staged blocks in transfer order: the disk's run.
    /// Built when the ticket goes to the pool; local units never read it.
    runs: Vec<Vec<usize>>,
    /// Per disk, the recovery attempts spent on its run.
    attempts: Vec<u32>,
    /// Per staged block, the run attempt it was last sent under; empty
    /// until the first recovery, so a clean ticket never fills it.
    sent_at: Vec<u32>,
    /// Read blocks already transferred, with their block indices.
    landed: Vec<(usize, Vec<R>)>,
    /// Where the commands' completions arrive; every command carries a
    /// handle, so a resubmitted command reports to the same drain.
    done: CompletionQueue<R>,
    /// Completions taken from `done` and not yet absorbed.
    arrived: VecDeque<Completion<R>>,
    /// Completions not yet absorbed.
    pending: usize,
    /// The first transfer error.
    err: Option<PdmError>,
}

impl<R: Record> InFlight<R> {
    fn new(disks: usize) -> Self {
        InFlight {
            read: true,
            ops: 0,
            blocks: Vec::new(),
            runs: vec![Vec::new(); disks],
            attempts: vec![0; disks],
            sent_at: Vec::new(),
            landed: Vec::new(),
            done: CompletionQueue::new(),
            arrived: VecDeque::new(),
            pending: 0,
            err: None,
        }
    }

    /// Appends one operation's blocks right after the blocks already
    /// staged.
    fn stage(&mut self, refs: &[BlockRef]) {
        self.ops += 1;
        self.blocks.extend_from_slice(refs);
    }

    /// The command that moves staged block `idx` in `buf`.
    fn command(&self, idx: usize, buf: Vec<R>, more: bool) -> Cmd<R> {
        let slot = self.blocks[idx].slot;
        let done = self.done.clone();
        if self.read {
            Cmd::Read {
                slot,
                buf,
                idx,
                done,
                more,
            }
        } else {
            Cmd::Write {
                slot,
                buf,
                idx,
                done,
                more,
            }
        }
    }

    /// Resolves one completion: a read's block goes to `sink`, every
    /// other buffer back to the pool, and the first error is kept.
    fn absorb(&mut self, pool: &mut BlockPool<R>, c: Completion<R>, sink: &mut Sink<'_, R>) {
        let Completion {
            idx,
            disk,
            buf,
            result,
        } = c;
        match (result, sink) {
            (Err(e), _) => {
                if self.err.is_none() {
                    self.err = Some(e.with_disk(disk));
                }
            }
            (Ok(()), Sink::Keep) => return self.landed.push((idx, buf)),
            (Ok(()), sink) => sink.put(idx, &buf),
        }
        pool.put(buf);
    }

    /// Serves the staged blocks from local units in the caller's
    /// thread, in staged order and with one copy: a read lands straight
    /// in a [`Sink::Out`] buffer (any other sink gets a pooled buffer,
    /// absorbed as a completion would be), and write block `idx` leaves
    /// straight from `data(idx)`. Stops at the first unit error, which
    /// the ticket keeps.
    fn serve_local<'d>(
        &mut self,
        units: &mut [Box<dyn DiskUnit<R>>],
        pool: &mut BlockPool<R>,
        data: impl Fn(usize) -> &'d [R],
        sink: &mut Sink<'_, R>,
    ) where
        R: 'd,
    {
        let block = pool.block;
        for idx in 0..self.blocks.len() {
            let BlockRef { disk, slot } = self.blocks[idx];
            let unit = &mut units[disk];
            let result = match &mut *sink {
                _ if !self.read => unit.write(slot, data(idx)),
                Sink::Out(out, at) => unit.read(slot, Sink::landing(out, at, idx, block)),
                sink => {
                    let mut buf = pool.take();
                    let result = unit.read(slot, &mut buf);
                    let failed = result.is_err();
                    self.absorb(
                        pool,
                        Completion {
                            idx,
                            disk,
                            buf,
                            result,
                        },
                        sink,
                    );
                    if failed {
                        return;
                    }
                    continue;
                }
            };
            if let Err(e) = result {
                self.err = Some(e.with_disk(disk));
                return;
            }
        }
    }
}

/// A split-phase read in flight (see [`DiskSystem::begin_read`]). Must
/// be resolved with [`DiskSystem::finish_read`] or
/// [`DiskSystem::discard_read`]; simply dropping the ticket strands its
/// pooled buffers.
#[must_use = "resolve with finish_read/discard_read or the pooled buffers are stranded"]
pub struct ReadTicket<R: Record>(InFlight<R>);

impl<R: Record> ReadTicket<R> {
    /// Records transferred by this ticket.
    pub fn records(&self, block: usize) -> usize {
        self.0.blocks.len() * block
    }
}

/// A split-phase write in flight (see [`DiskSystem::begin_write`]).
/// Must be resolved with [`DiskSystem::finish_write`].
#[must_use = "resolve with finish_write or the staging buffers are stranded"]
pub struct WriteTicket<R: Record>(InFlight<R>);

/// A simulated parallel disk system storing records of type `R`.
pub struct DiskSystem<R: Record> {
    geom: Geometry,
    layout: Layout,
    service: Service<R>,
    pool: BlockPool<R>,
    portions: usize,
    stats: IoStats,
    faults: FaultPlan,
    op_counter: u64,
    timing: Option<TimingTracker>,
    striped_only: bool,
    /// True when the disks live behind remote transports (UDS workers
    /// or the simulated network) instead of local units. Remote
    /// systems keep their transport pool in [`ServiceMode::Serial`]
    /// and drive it in lockstep.
    remote: bool,
    /// Simulated network time accrued by a SimNet transport
    /// ([`DiskSystem::network_ms`]).
    net_ms: f64,
    /// Retry backoff and straggler delays charged so far
    /// ([`DiskSystem::stall_ms`]).
    stall_ms: f64,
    /// When set, every counted operation first acquires a grant from
    /// the fair-share scheduler this handle belongs to
    /// ([`DiskSystem::set_governor`]); the grant is charged to the
    /// handle's job.
    governor: Option<SchedHandle>,
    /// Bounds on the recovery layer ([`DiskSystem::set_retry_policy`]).
    /// The default is fail-fast: one attempt, no timeouts, no respawns.
    retry: RetryPolicy,
    /// The recovery ledger ([`DiskSystem::retry_stats`]).
    retry_stats: RetryStats,
    /// Set when a per-op completion timeout fired during the current
    /// drain; converts a final unrecovered `Disconnected` into
    /// [`PdmError::Timeout`]. Cleared at the end of every operation.
    timeout_fired: Option<u64>,
    /// Reused duplicate-disk scratch for per-operation validation, so
    /// the admission path allocates nothing in steady state.
    seen_disks: Vec<bool>,
    /// Reused operation-reference scratch: the stripe of
    /// [`Self::read_stripe_into`], and each operation of a multi-op
    /// ticket.
    stripe_scratch: Vec<BlockRef>,
    /// Idle tickets, recycled so that no operation allocates a
    /// completion queue or a vector in steady state.
    tickets: Vec<InFlight<R>>,
}

impl<R: Record> DiskSystem<R> {
    /// The one initializer: local units start serial, remote transports
    /// start in lockstep (the serial discipline on a pool).
    fn from_service(geom: Geometry, portions: usize, service: Service<R>) -> Self {
        assert!(portions >= 1, "need at least one portion");
        let (disks, remote) = match &service {
            Service::Serial(units) => (units.len(), false),
            Service::Pooled { pool, .. } => (pool.disks(), true),
        };
        assert_eq!(disks, geom.disks(), "one unit or transport per disk");
        DiskSystem {
            geom,
            layout: Layout::new(&geom),
            service,
            pool: BlockPool::new(geom.block()),
            portions,
            stats: IoStats::default(),
            faults: FaultPlan::new(),
            op_counter: 0,
            timing: None,
            striped_only: false,
            remote,
            governor: None,
            retry: RetryPolicy::default(),
            retry_stats: RetryStats::default(),
            timeout_fired: None,
            net_ms: 0.0,
            stall_ms: 0.0,
            seen_disks: vec![false; geom.disks()],
            stripe_scratch: Vec::with_capacity(geom.disks()),
            tickets: Vec::new(),
        }
    }

    /// A system whose disks live behind caller-supplied transports,
    /// one per disk in disk order. This is the multi-tenant
    /// construction: a service leases each job its own `DiskSystem`
    /// whose transports all feed the *same* shared disk workers,
    /// so the physical disks are contended while accounting and
    /// buffer pools stay per-job. Starts in lockstep
    /// ([`ServiceMode::Serial`]); [`DiskSystem::set_threaded`]
    /// switches to the pipelined pool.
    ///
    /// The transports' workers may expose more slots than this
    /// system's `portions × N/BD`; the system still validates every
    /// request against its own geometry, so a job cannot address
    /// outside its lease.
    pub fn new_from_transports(
        geom: Geometry,
        portions: usize,
        transports: Vec<Box<dyn Transport<R>>>,
    ) -> Self {
        let pool = DiskPool::from_transports(transports);
        Self::from_service(
            geom,
            portions,
            Service::Pooled {
                pool,
                lockstep: true,
            },
        )
    }

    /// A memory-backed system with `portions` address spaces of `N/BD`
    /// stripes each (use 2 for the source/target double-buffering of
    /// the one-pass algorithms).
    pub fn new_mem(geom: Geometry, portions: usize) -> Self {
        let slots = portions * geom.stripes();
        let units = (0..geom.disks())
            .map(|_| Box::new(MemDisk::<R>::new(geom.block(), slots)) as Box<dyn DiskUnit<R>>)
            .collect();
        Self::from_service(geom, portions, Service::Serial(units))
    }

    /// The geometry this system was built with.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// The address layout (Figure 2 field extractor).
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of block slots on each disk.
    #[inline]
    pub fn slots_per_disk(&self) -> usize {
        self.portions * self.geom.stripes()
    }

    /// Number of portions (independent N-record address spaces).
    #[inline]
    pub fn portions(&self) -> usize {
        self.portions
    }

    /// First stripe slot of a portion.
    #[inline]
    pub fn portion_base(&self, portion: usize) -> usize {
        assert!(portion < self.portions, "portion {portion} out of range");
        portion * self.geom.stripes()
    }

    /// Cumulative I/O statistics.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the I/O statistics (not the operation counter used by
    /// fault plans).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Installs a fault-injection plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Selects how parallel I/Os are physically serviced. Charged costs
    /// are identical in both modes; only wall-clock behaviour differs.
    /// Switching modes drains any service threads first. Remote disks
    /// stay on their transports either way: serial mode drives them in
    /// lockstep.
    pub fn set_service_mode(&mut self, mode: ServiceMode) {
        let threaded = mode == ServiceMode::Threaded;
        let placeholder = Service::Serial(Vec::new());
        self.service = match std::mem::replace(&mut self.service, placeholder) {
            Service::Pooled { pool, .. } if self.remote => Service::Pooled {
                pool,
                lockstep: !threaded,
            },
            Service::Pooled { pool, .. } if !threaded => Service::Serial(pool.into_units()),
            Service::Serial(units) if threaded => Service::Pooled {
                pool: DiskPool::new(units),
                lockstep: false,
            },
            unchanged => unchanged,
        };
    }

    /// The current service mode.
    pub fn service_mode(&self) -> ServiceMode {
        match self.service {
            Service::Pooled {
                lockstep: false, ..
            } => ServiceMode::Threaded,
            _ => ServiceMode::Serial,
        }
    }

    /// Enables or disables threaded servicing of parallel I/Os. `true`
    /// selects [`ServiceMode::Threaded`] (persistent service threads,
    /// `min(D, available_parallelism)` for local disks), `false`
    /// [`ServiceMode::Serial`].
    pub fn set_threaded(&mut self, on: bool) {
        self.set_service_mode(if on {
            ServiceMode::Threaded
        } else {
            ServiceMode::Serial
        });
    }

    /// Buffer-pool accounting for the split-phase paths. After every
    /// completed (or failed) operation, `outstanding` counts only
    /// buffers held by unresolved tickets.
    pub fn buffer_pool_stats(&self) -> BufferPoolStats {
        self.pool.stats()
    }

    /// Transport message counters, merged over all disks: frames and
    /// wire bytes both ways. Identically zero on in-process systems —
    /// channels move buffers, not messages.
    pub fn message_stats(&self) -> MsgStats {
        match &self.service {
            Service::Pooled { pool, .. } => pool.message_stats(),
            Service::Serial(_) => MsgStats::default(),
        }
    }

    /// Per-disk transport message counters (empty on serial local
    /// units).
    pub fn message_stats_per_disk(&self) -> Vec<MsgStats> {
        match &self.service {
            Service::Pooled { pool, .. } => pool.message_stats_per_disk(),
            Service::Serial(_) => Vec::new(),
        }
    }

    /// Simulated network time accrued so far (zero unless a SimNet
    /// transport is in use). Also folded into the timing tracker's
    /// makespan when [`DiskSystem::set_timing`] is active.
    pub fn network_ms(&self) -> f64 {
        self.net_ms
    }

    /// Stall time charged so far: retry backoff and fault-plan
    /// straggler delays ([`crate::fault::FaultPlan::delay_at`]). Zero
    /// on a clean run. Also folded into the timing tracker's makespan
    /// when [`DiskSystem::set_timing`] is active.
    pub fn stall_ms(&self) -> f64 {
        self.stall_ms
    }

    /// Collects simulated network time accrued by the transports since
    /// the last call (SimNet charges synchronously inside submission).
    fn absorb_network_time(&mut self) {
        let ms = match &mut self.service {
            Service::Pooled { pool, .. } => pool.take_sim_ms(),
            Service::Serial(_) => 0.0,
        };
        if ms > 0.0 {
            self.net_ms += ms;
            if let Some(t) = self.timing.as_mut() {
                t.add_network_ms(ms);
            }
        }
    }

    /// Enables the optional service-time model ([`crate::timing`]);
    /// each subsequent parallel I/O accumulates simulated elapsed
    /// time. Counted operations are unaffected.
    pub fn set_timing(&mut self, model: TimingModel) {
        self.timing = Some(TimingTracker::new(model, self.geom.disks()));
    }

    /// The timing tracker, if [`DiskSystem::set_timing`] was called.
    pub fn timing(&self) -> Option<&TimingTracker> {
        self.timing.as_ref()
    }

    /// Restricts the system to *striped* I/O only (the weaker model
    /// variant the paper contrasts with independent I/O in Section 1).
    /// Subsequent non-striped operations fail with
    /// [`PdmError::StripedOnly`].
    pub fn set_striped_only(&mut self, on: bool) {
        self.striped_only = on;
    }

    /// Installs (or removes) a fair-share governor: every counted
    /// parallel I/O first blocks in [`SchedHandle::acquire`] until the
    /// shared [`crate::sched::FairScheduler`] grants it, and the grant
    /// is charged to the handle's job. The multi-tenant service
    /// installs one per leased job system; solo systems leave it
    /// unset. Cancelling the job makes the next acquisition fail with
    /// [`PdmError::Cancelled`], before the operation is serviced or
    /// charged.
    pub fn set_governor(&mut self, governor: Option<SchedHandle>) {
        self.governor = governor;
    }

    /// The installed fair-share governor, if any.
    pub fn governor(&self) -> Option<&SchedHandle> {
        self.governor.as_ref()
    }

    /// Installs a recovery policy: retryable failures
    /// ([`PdmError::is_retryable`]) are re-attempted with exponential
    /// backoff within `policy.max_attempts`, stuck completions are
    /// timed out per `policy.op_timeout_ms`, and dead transport links
    /// may be revived ([`Transport::respawn`]) when `policy.respawn`.
    /// Recovered operations are **charged once** — a recovered run's
    /// [`IoStats`] equal a clean run's. The default policy is
    /// fail-fast (PR 6/7 behaviour, byte-for-byte).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = policy;
    }

    /// The installed recovery policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The cumulative recovery ledger: attempts, retries, timeouts,
    /// backoff charged, and worker respawns. All-zero on a clean run.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Charges straggler/backoff stall time into the stall accumulator
    /// and (when enabled) the timing tracker's makespan.
    fn charge_stall_ms(&mut self, ms: f64) {
        if ms > 0.0 {
            self.stall_ms += ms;
            if let Some(t) = self.timing.as_mut() {
                t.add_stall_ms(ms);
            }
        }
    }

    /// Books one recovery attempt (the `attempt`-th retry of its
    /// command): counts it, then sleeps and charges its backoff.
    fn count_retry(&mut self, attempt: u32) {
        self.retry_stats.retries += 1;
        self.retry_stats.attempts += 1;
        let backoff = self.retry.backoff_ms(attempt);
        if backoff > 0 {
            self.retry_stats.backoff_ms += backoff;
            std::thread::sleep(Duration::from_millis(backoff));
            self.charge_stall_ms(backoff as f64);
        }
    }

    /// Books one admission-level recovery attempt if the policy allows
    /// a retry, and reports whether the failure was absorbed. Injected
    /// transient faults and oversized delays are one-shot per
    /// operation ([`crate::fault::FaultPlan`]), so a single retry
    /// resolves them.
    fn absorb_retryable_failure(&mut self) -> bool {
        if !self.retry.retries_enabled() {
            return false;
        }
        self.count_retry(1);
        true
    }

    /// The transport pool. Only pool operations ask for it.
    fn disk_pool(&mut self) -> &mut DiskPool<R> {
        match &mut self.service {
            Service::Pooled { pool, .. } => pool,
            Service::Serial(_) => unreachable!("pool operation on serial units"),
        }
    }

    /// An empty ticket, recycled when one is idle.
    fn ticket(&mut self, read: bool) -> InFlight<R> {
        let mut op = match self.tickets.pop() {
            Some(op) => op,
            None => InFlight::new(self.geom.disks()),
        };
        op.read = read;
        op
    }

    /// Returns a drained ticket to the idle list, emptied but keeping
    /// its completion queue and the capacity of its vectors.
    fn recycle(&mut self, mut op: InFlight<R>) {
        debug_assert_eq!(op.pending, 0, "recycling a ticket in flight");
        debug_assert!(op.landed.is_empty(), "recycling landed blocks");
        op.ops = 0;
        op.blocks.clear();
        op.runs.iter_mut().for_each(Vec::clear);
        op.attempts.fill(0);
        op.sent_at.clear();
        op.err = None;
        self.tickets.push(op);
    }

    /// Dispatches a staged ticket: the one function that moves a staged
    /// block. Read blocks go to `sink`; write block `idx` comes from
    /// `data(idx)`. Serial local units serve the ticket in the caller's
    /// thread ([`InFlight::serve_local`]) and it is settled here.
    /// Otherwise each disk's staged blocks go to the pool as one run of
    /// commands. In lockstep every run is one command long: each
    /// completion is received and absorbed into `sink` before the next
    /// command is sent, and the ticket is settled here, so an error
    /// surfaces now; pipelined, the completions wait for
    /// [`Self::drain`]. `recover` engages the retry layer
    /// ([`Self::receive`]).
    fn submit<'d>(
        &mut self,
        op: &mut InFlight<R>,
        data: impl Fn(usize) -> &'d [R],
        mut sink: Sink<'_, R>,
        recover: bool,
    ) -> Result<()>
    where
        R: 'd,
    {
        let lockstep = match &mut self.service {
            Service::Serial(units) => {
                op.serve_local(units, &mut self.pool, data, &mut sink);
                return self.drain(op, sink, recover);
            }
            Service::Pooled { lockstep, .. } => *lockstep,
        };
        for (idx, r) in op.blocks.iter().enumerate() {
            op.runs[r.disk].push(idx);
        }
        for disk in 0..op.runs.len() {
            let len = op.runs[disk].len();
            for i in 0..len {
                let idx = op.runs[disk][i];
                let mut buf = self.pool.take();
                if !op.read {
                    buf.copy_from_slice(data(idx));
                }
                let cmd = op.command(idx, buf, !lockstep && i + 1 < len);
                self.disk_pool().submit(disk, cmd);
                op.pending += 1;
                if lockstep {
                    let c = self.receive(op, recover);
                    op.absorb(&mut self.pool, c, &mut sink);
                }
            }
        }
        if lockstep {
            return self.drain(op, sink, recover);
        }
        self.absorb_network_time();
        Ok(())
    }

    /// Receives one of `op`'s completions. With `recover`, failures the
    /// policy can absorb never reach the caller:
    ///
    /// * a `Disconnected` completion with respawn budget is resent
    ///   ([`Self::revive`]): reads are idempotent, and writes are
    ///   replay-safe because the per-disk link is FIFO and the payload
    ///   rides in the returned buffer;
    /// * a wait that outlasts `op_timeout_ms` for each operation the
    ///   ticket stages (a run completes at its end, so one wait may
    ///   cover all of them) severs the stuck ticket's links so every
    ///   in-flight buffer comes home as `Disconnected` — which the
    ///   respawn arm may then recover, and which [`Self::drain`]
    ///   otherwise reports as [`PdmError::Timeout`].
    fn receive(&mut self, op: &mut InFlight<R>, recover: bool) -> Completion<R> {
        let per_op = self.retry.op_timeout_ms.filter(|_| recover);
        let budget = per_op.map(|ms| ms.saturating_mul(op.ops.max(1) as u64));
        let mut severed = false;
        loop {
            let Some(c) = op.arrived.pop_front() else {
                let timeout = budget.map(Duration::from_millis);
                if !op.done.recv_all(&mut op.arrived, timeout) && !severed {
                    severed = true;
                    self.retry_stats.timeouts += 1;
                    self.timeout_fired = per_op;
                    // Sever the whole ticket: stuck links answer their
                    // in-flight commands with `Disconnected`, bringing
                    // the buffers home.
                    for disk in 0..op.runs.len() {
                        if !op.runs[disk].is_empty() {
                            self.disk_pool().inject_disconnect(disk);
                        }
                    }
                }
                continue;
            };
            let disconnected = matches!(c.result, Err(PdmError::Disconnected { .. }));
            if recover && disconnected && self.retry.respawn {
                if let Some(attempt) = self.revive(op, c.disk, c.idx) {
                    if op.sent_at.is_empty() {
                        op.sent_at.resize(op.blocks.len(), 0);
                    }
                    op.sent_at[c.idx] = attempt;
                    let cmd = op.command(c.idx, c.buf, false);
                    self.disk_pool().submit(c.disk, cmd);
                    continue;
                }
            }
            op.pending -= 1;
            return c;
        }
    }

    /// The run attempt under which to resend staged block `idx`, whose
    /// command on `disk` came home `Disconnected`, or `None` when the
    /// run's budget is spent or the link cannot be revived. Recovery
    /// acts per run: the first failure under an attempt revives the
    /// link ([`Transport::respawn`]) and books one retry, and the run's
    /// other commands follow under that attempt for free.
    fn revive(&mut self, op: &mut InFlight<R>, disk: usize, idx: usize) -> Option<u32> {
        let attempt = op.attempts[disk];
        if op.sent_at.get(idx).copied().unwrap_or(0) < attempt {
            return Some(attempt);
        }
        if attempt + 1 >= self.retry.max_attempts {
            return None;
        }
        let revived = self.disk_pool().respawn(disk).ok()?;
        op.attempts[disk] = attempt + 1;
        self.retry_stats.respawns += revived as u64;
        self.count_retry(attempt + 1);
        Some(attempt + 1)
    }

    /// Receives everything `op` still has in flight and settles it:
    /// read blocks go to `sink`, every buffer back to the pool, and the
    /// first error wins — reported as [`PdmError::Timeout`] when a
    /// per-op timeout fired and the survivors came home
    /// `Disconnected`. A failed ticket recycles its kept blocks too.
    fn drain(&mut self, op: &mut InFlight<R>, mut sink: Sink<'_, R>, recover: bool) -> Result<()> {
        while op.pending > 0 {
            let c = self.receive(op, recover);
            op.absorb(&mut self.pool, c, &mut sink);
        }
        self.absorb_network_time();
        let result = match (op.err.take(), self.timeout_fired.take()) {
            (None, _) => Ok(()),
            (Some(PdmError::Disconnected { disk }), Some(ms)) => Err(PdmError::Timeout {
                disk,
                op: self.op_counter.saturating_sub(1),
                attempt: 0,
                ms,
            }),
            (Some(e), _) => Err(e),
        };
        if result.is_err() || !matches!(sink, Sink::Keep) {
            for (idx, buf) in op.landed.drain(..) {
                if result.is_ok() {
                    sink.put(idx, &buf);
                }
                self.pool.put(buf);
            }
        }
        result
    }

    /// Drains `op` and recycles it.
    fn finish(&mut self, mut op: InFlight<R>, sink: Sink<'_, R>, recover: bool) -> Result<()> {
        let result = self.drain(&mut op, sink, recover);
        self.recycle(op);
        result
    }

    /// Submits a staged ticket and waits for it, recovering under the
    /// retry policy: read blocks land in `out` at their staged offsets
    /// (writes pass `None` and take block `idx` from `data(idx)`). The
    /// ticket is recycled whatever the outcome.
    fn transfer<'d>(
        &mut self,
        mut op: InFlight<R>,
        data: impl Fn(usize) -> &'d [R],
        mut out: Option<&mut [R]>,
    ) -> Result<()>
    where
        R: 'd,
    {
        let sent = self.submit(
            &mut op,
            data,
            Sink::out_or_discard(out.as_deref_mut()),
            true,
        );
        let drained = self.finish(op, Sink::out_or_discard(out), true);
        sent.and(drained)
    }

    /// One parallel I/O of `refs`, charged once it has succeeded: read
    /// blocks land in `out` in request order, and a write (`out` is
    /// `None`) takes block `i` from `data(i)`.
    fn single_io<'d>(
        &mut self,
        refs: &[BlockRef],
        data: impl Fn(usize) -> &'d [R],
        out: Option<&mut [R]>,
    ) -> Result<()>
    where
        R: 'd,
    {
        let read = out.is_some();
        self.admit(refs, read)?;
        let mut op = self.ticket(read);
        op.stage(refs);
        self.transfer(op, data, out)?;
        self.charge(refs, read);
        Ok(())
    }

    /// Stages the operations `next` yields as one ticket — each call
    /// fills `refs` with one operation's blocks, at most one per disk,
    /// and returns `false` when none are left — admitting and charging
    /// each in order, then dispatches the ticket ([`Self::submit`]).
    /// Empty operations are free. On a refused operation the ones
    /// before it stay charged, their transfers are waited out and
    /// discarded, and the error is returned.
    fn begin_ops<'d>(
        &mut self,
        read: bool,
        mut next: impl FnMut(&mut Vec<BlockRef>) -> bool,
        data: impl Fn(usize) -> &'d [R],
        sink: Sink<'_, R>,
    ) -> Result<InFlight<R>>
    where
        R: 'd,
    {
        let mut op = self.ticket(read);
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        let mut admitted = Ok(());
        while next(&mut refs) {
            if refs.is_empty() {
                continue;
            }
            admitted = self.admit(&refs, read);
            if admitted.is_err() {
                break;
            }
            self.charge(&refs, read);
            op.stage(&refs);
        }
        self.stripe_scratch = refs;
        let sent = self.submit(&mut op, data, sink, true);
        match admitted.and(sent) {
            Ok(()) => Ok(op),
            Err(e) => {
                let _ = self.finish(op, Sink::Discard, false);
                Err(e)
            }
        }
    }

    /// Runs `f` on the `D` references of the stripe at `slot`, held in
    /// the reused scratch.
    fn with_stripe<T>(&mut self, slot: usize, f: impl FnOnce(&mut Self, &[BlockRef]) -> T) -> T {
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        refs.clear();
        refs.extend((0..self.geom.disks()).map(|disk| BlockRef { disk, slot }));
        let result = f(self, &refs);
        self.stripe_scratch = refs;
        result
    }

    /// A write ticket (or, with `read`, a read ticket) staging the
    /// `M/BD` stripes of the memoryload that starts at stripe `slot`,
    /// in address order. Nothing is admitted: bulk placement.
    fn memoryload_ticket(&mut self, read: bool, slot: usize) -> InFlight<R> {
        let mut op = self.ticket(read);
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        let mut stripes = stripe_ops(&self.geom, slot);
        while stripes(&mut refs) {
            op.stage(&refs);
        }
        self.stripe_scratch = refs;
        op
    }

    fn validate(&mut self, refs: impl Iterator<Item = BlockRef>) -> Result<()> {
        let slots_per_disk = self.slots_per_disk();
        let disks = self.geom.disks();
        self.seen_disks.fill(false);
        let seen = &mut self.seen_disks;
        for r in refs {
            if r.disk >= disks || r.slot >= slots_per_disk {
                return Err(PdmError::OutOfRange {
                    disk: r.disk,
                    slot: r.slot,
                    slots_per_disk,
                });
            }
            if seen[r.disk] {
                return Err(PdmError::DuplicateDisk { disk: r.disk });
            }
            seen[r.disk] = true;
        }
        Ok(())
    }

    fn is_striped(&self, refs: &[BlockRef]) -> bool {
        refs.len() == self.geom.disks() && refs.windows(2).all(|w| w[0].slot == w[1].slot)
    }

    /// Validation common to every counted operation: model checks,
    /// then the fair-share governor (which may block until the
    /// scheduler grants the I/O, or refuse it on cancellation), then
    /// the fault plan (which consumes one operation number).
    fn admit(&mut self, refs: &[BlockRef], is_read: bool) -> Result<()> {
        self.validate(refs.iter().copied())?;
        let striped = self.is_striped(refs);
        if self.striped_only && !striped {
            return Err(PdmError::StripedOnly);
        }
        if let Some(g) = &self.governor {
            g.acquire(refs, is_read, striped)?;
        }
        let op = self.op_counter;
        self.op_counter += 1;
        self.retry_stats.attempts += 1;
        if let Some(disk) = self.faults.check(op, refs.iter().map(|r| r.disk)) {
            // Permanent: fail fast on every attempt, never retried.
            return Err(PdmError::Fault { op, disk });
        }
        if let Some(disk) = self.faults.check_transient(op, refs.iter().map(|r| r.disk)) {
            // Transient (point or flaky window): the first attempt
            // fails; within policy the retry absorbs it and the
            // operation proceeds — charged once, like a clean run.
            self.retry_stats.transient_faults += 1;
            if !self.absorb_retryable_failure() {
                return Err(PdmError::TransientFault {
                    op,
                    disk,
                    attempt: 0,
                });
            }
        }
        if let Some((disk, ms)) = self.faults.delay(op, refs.iter().map(|r| r.disk)) {
            match self.retry.op_timeout_ms {
                // A straggler past the per-op budget is a timeout:
                // retryable (the congestion is transient), and the
                // retry proceeds without re-paying the delay.
                Some(budget) if ms > budget => {
                    self.retry_stats.timeouts += 1;
                    if !self.absorb_retryable_failure() {
                        return Err(PdmError::Timeout {
                            disk,
                            op,
                            attempt: 0,
                            ms,
                        });
                    }
                }
                // Within budget (or no budget): the op simply takes
                // `ms` longer — charged to the makespan, not an error.
                _ => self.charge_stall_ms(ms as f64),
            }
        }
        if let Some(disk) = self
            .faults
            .check_disconnect(op, refs.iter().map(|r| r.disk))
        {
            match &mut self.service {
                // Transport-backed services sever the link and let the
                // operation proceed: the disconnect surfaces through
                // the completion path mid-operation (the realistic
                // failure), with every buffer still recycled.
                Service::Pooled { pool, .. } => pool.inject_disconnect(disk),
                // Local units have no link to sever; fail the
                // operation up front.
                Service::Serial(_) => return Err(PdmError::Disconnected { disk }),
            }
        }
        Ok(())
    }

    /// Charges one parallel I/O to the statistics and timing model.
    fn charge(&mut self, refs: &[BlockRef], is_read: bool) {
        if is_read {
            self.stats.parallel_reads += 1;
            self.stats.blocks_read += refs.len() as u64;
            if self.is_striped(refs) {
                self.stats.striped_reads += 1;
            }
        } else {
            self.stats.parallel_writes += 1;
            self.stats.blocks_written += refs.len() as u64;
            if self.is_striped(refs) {
                self.stats.striped_writes += 1;
            }
        }
        if let Some(t) = self.timing.as_mut() {
            t.record(refs.iter().map(|r| (r.disk, r.slot)));
        }
    }

    /// One parallel read into a contiguous buffer: fetches each
    /// requested block (at most one per disk) into
    /// `out[i*B .. (i+1)*B]` in request order, with no allocation in
    /// steady state. Counts one parallel I/O (zero if `refs` is empty)
    /// once it has succeeded.
    pub fn read_blocks_into(&mut self, refs: &[BlockRef], out: &mut [R]) -> Result<()> {
        if refs.is_empty() {
            assert!(out.is_empty(), "output buffer for an empty request");
            return Ok(());
        }
        let block = self.geom.block();
        assert_eq!(
            out.len(),
            refs.len() * block,
            "read_blocks_into requires {} records of output space",
            refs.len() * block
        );
        self.single_io(refs, no_data, Some(out))
    }

    /// One parallel read: fetches each requested block (at most one per
    /// disk). Returns the blocks in request order. Counts one parallel
    /// I/O (zero if `refs` is empty). Allocating convenience wrapper
    /// over [`DiskSystem::read_blocks_into`].
    pub fn read_blocks(&mut self, refs: &[BlockRef]) -> Result<Vec<Vec<R>>> {
        if refs.is_empty() {
            return Ok(Vec::new());
        }
        let block = self.geom.block();
        let mut flat = vec![R::default(); refs.len() * block];
        self.read_blocks_into(refs, &mut flat)?;
        Ok(flat.chunks_exact(block).map(|c| c.to_vec()).collect())
    }

    /// One parallel write: stores each block (at most one per disk).
    /// Every block must be exactly `B` records. Counts one parallel I/O
    /// (zero if `writes` is empty) once it has succeeded.
    pub fn write_blocks(&mut self, writes: &[(BlockRef, &[R])]) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        let block = self.geom.block();
        for (_, data) in writes {
            assert_eq!(
                data.len(),
                block,
                "write_blocks requires full {block}-record blocks"
            );
        }
        let mut refs = std::mem::take(&mut self.stripe_scratch);
        refs.clear();
        refs.extend(writes.iter().map(|(r, _)| *r));
        let result = self.single_io(&refs, |i| writes[i].1, None);
        self.stripe_scratch = refs;
        result
    }

    // ------------------------------------------------------------------
    // Split-phase operations (the engine's overlap path).

    /// Begins one parallel read. The operation is validated, charged,
    /// and submitted immediately; in [`ServiceMode::Threaded`] the
    /// transfer proceeds on the service threads while the caller
    /// computes, in [`ServiceMode::Serial`] it completes (and any
    /// transfer error surfaces) before this returns. Resolve with
    /// [`DiskSystem::finish_read`] (or [`DiskSystem::discard_read`] on
    /// an abort path).
    ///
    /// Unlike the all-at-once operations, a split-phase operation is
    /// charged at submission: a transfer that later fails has still
    /// been issued against the model.
    pub fn begin_read(&mut self, refs: &[BlockRef]) -> Result<ReadTicket<R>> {
        self.begin_reads(one_op(refs))
    }

    /// Begins the parallel reads that `next` yields as one ticket: each
    /// call fills `refs` with one operation's blocks (at most one per
    /// disk) and returns `false` when none are left. Every operation is
    /// admitted and charged in order, exactly as by
    /// [`DiskSystem::begin_read`], before the first transfer; then each
    /// disk's blocks travel as one run of commands (serial local disks
    /// read them at once). [`DiskSystem::finish_read`] places the blocks
    /// one after another in operation order. On a refused operation the
    /// ones before it stay charged, their transfers are waited out and
    /// discarded, and the error is returned.
    ///
    /// ```
    /// use pdm::{BlockRef, DiskSystem, Geometry};
    ///
    /// // Two single-block reads in one ticket: two parallel I/Os.
    /// let geom = Geometry::new(64, 2, 4, 16).unwrap();
    /// let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 1);
    /// sys.load_records(0, &(0..64).collect::<Vec<_>>());
    /// let mut ops = [BlockRef { disk: 1, slot: 0 }, BlockRef { disk: 0, slot: 2 }].into_iter();
    /// let ticket = sys
    ///     .begin_reads(|refs| {
    ///         refs.clear();
    ///         refs.extend(ops.next());
    ///         !refs.is_empty()
    ///     })
    ///     .unwrap();
    /// let mut out = [0u64; 4];
    /// sys.finish_read(ticket, &mut out).unwrap();
    /// assert_eq!(out, [2, 3, 16, 17]);
    /// assert_eq!(sys.stats().parallel_reads, 2);
    /// ```
    pub fn begin_reads(
        &mut self,
        next: impl FnMut(&mut Vec<BlockRef>) -> bool,
    ) -> Result<ReadTicket<R>> {
        self.begin_ops(true, next, no_data, Sink::Keep)
            .map(ReadTicket)
    }

    /// Reads the operations that `next` yields (see
    /// [`DiskSystem::begin_reads`]) into `out` and waits for them: block
    /// `i`, counted in operation order, lands at block position `at[i]`
    /// of `out`, or at position `i` when `at` is empty. Admitted and
    /// charged like `begin_reads`; serial local disks read straight
    /// into `out`.
    pub(crate) fn read_ops_into(
        &mut self,
        next: impl FnMut(&mut Vec<BlockRef>) -> bool,
        out: &mut [R],
        at: &[usize],
    ) -> Result<()> {
        let op = self.begin_ops(true, next, no_data, Sink::Out(out, at))?;
        self.finish(op, Sink::Out(out, at), true)
    }

    /// Completes a split-phase read, copying block `i` of the request
    /// into `out[i*B .. (i+1)*B]` and recycling the transfer buffers.
    /// On error every buffer is still reclaimed.
    pub fn finish_read(&mut self, ticket: ReadTicket<R>, out: &mut [R]) -> Result<()> {
        self.finish_read_at(ticket, out, &[])
    }

    /// Completes a split-phase read like [`DiskSystem::finish_read`],
    /// but lands block `i` at block position `at[i]` of `out` (at
    /// position `i` when `at` is empty).
    pub(crate) fn finish_read_at(
        &mut self,
        ticket: ReadTicket<R>,
        out: &mut [R],
        at: &[usize],
    ) -> Result<()> {
        let want = ticket.records(self.geom.block());
        assert_eq!(
            out.len(),
            want,
            "finish_read requires {want} records of output space"
        );
        self.finish(ticket.0, Sink::Out(out, at), true)
    }

    /// Completes a split-phase read like [`DiskSystem::finish_read`],
    /// but hands each block to `place(i, block)` instead of copying it
    /// into one buffer, where `i` counts the ticket's blocks in
    /// operation order. A read whose blocks belong to separate buffers
    /// (the external merge's landing units) lands each one straight
    /// where it goes. On error every buffer is still reclaimed.
    pub fn finish_read_with(
        &mut self,
        ticket: ReadTicket<R>,
        mut place: impl FnMut(usize, &[R]),
    ) -> Result<()> {
        self.finish(ticket.0, Sink::Each(&mut place), true)
    }

    /// Abandons a split-phase read (abort path): waits out the
    /// transfers, discards the data, and reclaims every buffer.
    pub fn discard_read(&mut self, ticket: ReadTicket<R>) {
        // No recovery on the abort path: the data is unwanted, so a
        // failed completion just recycles its buffer.
        let _ = self.finish(ticket.0, Sink::Discard, false);
    }

    /// Begins one parallel write from a contiguous buffer: block `i` of
    /// the request is taken from `data[i*B .. (i+1)*B]`. The data is
    /// written or staged into pooled buffers before this returns, so
    /// `data` is reusable at once. Charged at submission; resolve with
    /// [`DiskSystem::finish_write`].
    pub fn begin_write(&mut self, refs: &[BlockRef], data: &[R]) -> Result<WriteTicket<R>> {
        let block = self.geom.block();
        assert_eq!(
            data.len(),
            refs.len() * block,
            "begin_write requires {} records of data",
            refs.len() * block
        );
        self.begin_writes(one_op(refs), data)
    }

    /// Begins the parallel writes that `next` yields as one ticket (see
    /// [`DiskSystem::begin_reads`]), taking the blocks one after another
    /// from `data`. Every operation is admitted and charged in order
    /// before the first transfer; then serial local disks write the
    /// blocks at once, straight from `data`, and elsewhere each disk's
    /// blocks travel as one run of commands. On a refused operation the
    /// ones before it stay charged and are still written.
    pub(crate) fn begin_writes(
        &mut self,
        next: impl FnMut(&mut Vec<BlockRef>) -> bool,
        data: &[R],
    ) -> Result<WriteTicket<R>> {
        let block = self.geom.block();
        let data = |i: usize| &data[i * block..(i + 1) * block];
        self.begin_ops(false, next, data, Sink::Discard)
            .map(WriteTicket)
    }

    /// Completes a split-phase write, reclaiming the staging buffers
    /// and surfacing any transfer error.
    pub fn finish_write(&mut self, ticket: WriteTicket<R>) -> Result<()> {
        self.finish(ticket.0, Sink::Discard, true)
    }

    // ------------------------------------------------------------------
    // Striped convenience layers.

    /// The `D` references of the stripe at `slot` (test convenience;
    /// production paths reuse scratch buffers instead).
    #[cfg(test)]
    fn stripe_refs(&self, slot: usize) -> Vec<BlockRef> {
        (0..self.geom.disks())
            .map(|disk| BlockRef { disk, slot })
            .collect()
    }

    /// Striped read of the stripe at `slot` into `out` (`B·D` records
    /// in address order), with no allocation at all in steady state
    /// (the reference scratch is a reused field).
    pub fn read_stripe_into(&mut self, slot: usize, out: &mut [R]) -> Result<()> {
        self.with_stripe(slot, |sys, refs| sys.read_blocks_into(refs, out))
    }

    /// Striped read of the stripe at `slot`: the `D` blocks at the same
    /// location on every disk, concatenated in disk order (which is
    /// record-address order within the stripe).
    pub fn read_stripe(&mut self, slot: usize) -> Result<Vec<R>> {
        let mut out = vec![R::default(); self.geom.block() * self.geom.disks()];
        self.read_stripe_into(slot, &mut out)?;
        Ok(out)
    }

    /// Striped write of `data` (`B·D` records in address order) to the
    /// stripe at `slot`, with no allocation at all in steady state (the
    /// reference scratch is a reused field).
    pub fn write_stripe(&mut self, slot: usize, data: &[R]) -> Result<()> {
        let block = self.geom.block();
        assert_eq!(
            data.len(),
            block * self.geom.disks(),
            "write_stripe requires a full stripe of {} records",
            block * self.geom.disks()
        );
        self.with_stripe(slot, |sys, refs| {
            sys.single_io(refs, |i| &data[i * block..(i + 1) * block], None)
        })
    }

    /// Reads memoryload `ml` of a portion into `out` (`M` records in
    /// address order) with `M/BD` striped reads and no per-block
    /// allocation. The memoryload is one read ticket: the stripes are
    /// admitted and charged in order, as by [`DiskSystem::begin_read`],
    /// before the first transfer, each disk's blocks travel as one run
    /// (serial local disks read straight into `out`), and a refused
    /// stripe leaves the ones before it charged.
    pub fn read_memoryload_into(&mut self, portion: usize, ml: usize, out: &mut [R]) -> Result<()> {
        assert_eq!(
            out.len(),
            self.geom.memory(),
            "read_memoryload_into requires a full memoryload of {} records",
            self.geom.memory()
        );
        let base = self.portion_base(portion) + ml * self.geom.stripes_per_memoryload();
        self.read_ops_into(stripe_ops(&self.geom, base), out, &[])
    }

    /// Reads memoryload `ml` of a portion: its `M/BD` consecutive
    /// stripes, returned as `M` records in address order. Costs `M/BD`
    /// parallel (striped) reads.
    pub fn read_memoryload(&mut self, portion: usize, ml: usize) -> Result<Vec<R>> {
        let mut out = vec![R::default(); self.geom.memory()];
        self.read_memoryload_into(portion, ml, &mut out)?;
        Ok(out)
    }

    /// Writes `M` records (address order) to memoryload `ml` of a
    /// portion with `M/BD` striped writes.
    pub fn write_memoryload(&mut self, portion: usize, ml: usize, data: &[R]) -> Result<()> {
        assert_eq!(
            data.len(),
            self.geom.memory(),
            "write_memoryload requires a full memoryload of {} records",
            self.geom.memory()
        );
        let spm = self.geom.stripes_per_memoryload();
        let stripe_len = self.geom.block() * self.geom.disks();
        let base = self.portion_base(portion) + ml * spm;
        for (t, chunk) in data.chunks_exact(stripe_len).enumerate() {
            self.write_stripe(base + t, chunk)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Uncounted direct access (setup / verification / observation).

    /// Translates a record address within a portion to its block
    /// location (Figure 1 layout).
    pub fn locate(&self, portion: usize, address: u64) -> BlockRef {
        let disk = self.layout.disk(address) as usize;
        let stripe = self.layout.stripe(address) as usize;
        BlockRef {
            disk,
            slot: self.portion_base(portion) + stripe,
        }
    }

    /// Fills a portion with `records` in address order **without
    /// counting I/Os** — initial data placement, not part of any
    /// algorithm's cost. Each memoryload is one ticket: one run per disk
    /// on a pooled system. A link that dies under it is recovered under
    /// the retry policy, as for a counted operation.
    pub fn load_records(&mut self, portion: usize, records: &[R]) {
        assert_eq!(
            records.len(),
            self.geom.records(),
            "load_records requires exactly N = {} records",
            self.geom.records()
        );
        let base = self.portion_base(portion);
        let (block, spm) = (self.geom.block(), self.geom.stripes_per_memoryload());
        for (ml, chunk) in records.chunks_exact(self.geom.memory()).enumerate() {
            let op = self.memoryload_ticket(false, base + ml * spm);
            self.transfer(op, |i| &chunk[i * block..(i + 1) * block], None)
                .expect("load_records within capacity");
        }
    }

    /// Reads a whole portion back in address order **without counting
    /// I/Os** — for verification at the end of an experiment. Each
    /// memoryload is one ticket: one run per disk on a pooled system,
    /// recovered like [`DiskSystem::load_records`].
    pub fn dump_records(&mut self, portion: usize) -> Vec<R> {
        let base = self.portion_base(portion);
        let spm = self.geom.stripes_per_memoryload();
        let mut out = vec![R::default(); self.geom.records()];
        for (ml, chunk) in out.chunks_exact_mut(self.geom.memory()).enumerate() {
            let op = self.memoryload_ticket(true, base + ml * spm);
            self.transfer(op, no_data, Some(chunk))
                .expect("dump_records within capacity");
        }
        out
    }

    /// Reads one block **without counting I/Os** — used by the
    /// potential-function tracker to observe state between operations.
    pub fn peek_block(&mut self, r: BlockRef) -> Vec<R> {
        let mut buf = vec![R::default(); self.geom.block()];
        let mut op = self.ticket(true);
        op.stage(&[r]);
        self.transfer(op, no_data, Some(&mut buf))
            .expect("peek_block within capacity");
        buf
    }
}

/// The data of a read ticket's blocks: reads write nothing.
fn no_data<'d, R>(_: usize) -> &'d [R] {
    &[]
}

/// An operation source (see [`DiskSystem::begin_reads`]) whose one
/// operation is `refs`.
fn one_op(refs: &[BlockRef]) -> impl FnMut(&mut Vec<BlockRef>) -> bool + '_ {
    let mut done = false;
    move |out| {
        if std::mem::replace(&mut done, true) {
            return false;
        }
        out.clear();
        out.extend_from_slice(refs);
        true
    }
}

/// The `M/BD` stripes of the memoryload that starts at stripe `base`,
/// in address order, as an operation source for
/// [`DiskSystem::begin_reads`] and [`DiskSystem::begin_writes`]: the
/// one definition of which parallel I/Os move a memoryload.
pub(crate) fn stripe_ops(geom: &Geometry, base: usize) -> impl FnMut(&mut Vec<BlockRef>) -> bool {
    let disks = geom.disks();
    let mut slots = base..base + geom.stripes_per_memoryload();
    move |refs| {
        let Some(slot) = slots.next() else {
            return false;
        };
        refs.clear();
        refs.extend((0..disks).map(|disk| BlockRef { disk, slot }));
        true
    }
}

impl<R: Record + ByteRecord> DiskSystem<R> {
    /// A file-backed system: one preallocated file per disk in `dir`.
    pub fn new_file(geom: Geometry, portions: usize, dir: &Path) -> Result<Self> {
        assert!(portions >= 1, "need at least one portion");
        std::fs::create_dir_all(dir)
            .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
        let slots = portions * geom.stripes();
        let mut units: Vec<Box<dyn DiskUnit<R>>> = Vec::with_capacity(geom.disks());
        for d in 0..geom.disks() {
            let path = dir.join(format!("disk{d:03}.bin"));
            units.push(Box::new(FileDisk::create::<R>(&path, geom.block(), slots)?));
        }
        Ok(Self::from_service(geom, portions, Service::Serial(units)))
    }

    /// Backend-generic constructor: builds [`DiskSystem::new_mem`] or
    /// [`DiskSystem::new_file`] per the [`Backend`] value, so callers
    /// (CLI, benches, tests) can thread a backend choice through
    /// configuration instead of branching at every construction site.
    pub fn new_with_backend(geom: Geometry, portions: usize, backend: &Backend) -> Result<Self> {
        match backend {
            Backend::Mem => Ok(Self::new_mem(geom, portions)),
            Backend::File { dir } => Self::new_file(geom, portions, dir),
        }
    }

    /// Transport-generic constructor: the same system served in
    /// process ([`TransportConfig::InProc`]), by out-of-process
    /// `pdm-diskd` workers over Unix-domain sockets
    /// ([`TransportConfig::Uds`]), or over the deterministic simulated
    /// network ([`TransportConfig::SimNet`]). Placement and charged
    /// parallel-I/O counts are identical across all three; only
    /// message counters, network time, and the wall clock differ.
    ///
    /// Remote systems start in the lockstep (serial) discipline; use
    /// [`DiskSystem::set_service_mode`] /
    /// [`DiskSystem::set_threaded`] for pipelined submission.
    pub fn new_with_transport(
        geom: Geometry,
        portions: usize,
        backend: &Backend,
        transport: &TransportConfig,
    ) -> Result<Self> {
        let slots = portions * geom.stripes();
        match transport {
            TransportConfig::InProc => Self::new_with_backend(geom, portions, backend),
            TransportConfig::SimNet(model) => {
                let mut transports: Vec<Box<dyn Transport<R>>> = Vec::with_capacity(geom.disks());
                match backend {
                    Backend::Mem => {
                        for d in 0..geom.disks() {
                            transports.push(Box::new(SimNetTransport::<R>::new_mem(
                                d,
                                geom.block(),
                                slots,
                                *model,
                            )));
                        }
                    }
                    Backend::File { dir } => {
                        std::fs::create_dir_all(dir).map_err(|e| {
                            PdmError::Io(format!("create_dir_all {}: {e}", dir.display()))
                        })?;
                        for d in 0..geom.disks() {
                            transports.push(Box::new(SimNetTransport::<R>::new_file(
                                d,
                                &dir.join(format!("disk{d:03}.bin")),
                                geom.block(),
                                slots,
                                *model,
                            )?));
                        }
                    }
                }
                Ok(Self::new_from_transports(geom, portions, transports))
            }
            TransportConfig::Uds(cfg) => {
                let transports =
                    spawn_uds_workers::<R>(geom.disks(), geom.block(), slots, backend, cfg)?;
                let mut sys = Self::new_from_transports(geom, portions, transports);
                sys.set_retry_policy(cfg.retry);
                Ok(sys)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiskSystem<u64> {
        // N=64, B=2, D=4, M=16: 8 stripes, 4 memoryloads.
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        DiskSystem::new_mem(g, 2)
    }

    #[test]
    fn load_dump_round_trip() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        assert_eq!(sys.stats().parallel_ios(), 0, "loading is free");
    }

    #[test]
    fn figure1_placement() {
        // Figure 1 semantics: record 21 (B=2, D=4 here) sits at
        // offset 1, disk 2, stripe 2: 21 = 1 + 2*2 + 2*8.
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let loc = sys.locate(0, 21);
        assert_eq!(loc, BlockRef { disk: 2, slot: 2 });
        let blk = sys.peek_block(loc);
        assert_eq!(blk, vec![20, 21]);
    }

    #[test]
    fn striped_read_counts_one_io() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let stripe = sys.read_stripe(0).unwrap();
        assert_eq!(stripe, (0..8).collect::<Vec<u64>>());
        let s = sys.stats();
        assert_eq!(s.parallel_reads, 1);
        assert_eq!(s.striped_reads, 1);
        assert_eq!(s.blocks_read, 4);
    }

    #[test]
    fn independent_read_classified() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let blocks = sys
            .read_blocks(&[BlockRef { disk: 0, slot: 0 }, BlockRef { disk: 2, slot: 3 }])
            .unwrap();
        assert_eq!(blocks[0], vec![0, 1]);
        assert_eq!(blocks[1], vec![28, 29]); // stripe 3, disk 2 → 24 + 4..
        let s = sys.stats();
        assert_eq!(s.parallel_reads, 1);
        assert_eq!(s.striped_reads, 0);
        assert_eq!(s.independent_reads(), 1);
    }

    #[test]
    fn duplicate_disk_rejected() {
        let mut sys = small();
        let err = sys
            .read_blocks(&[BlockRef { disk: 1, slot: 0 }, BlockRef { disk: 1, slot: 1 }])
            .unwrap_err();
        assert!(matches!(err, PdmError::DuplicateDisk { disk: 1 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut sys = small();
        assert!(sys.read_blocks(&[BlockRef { disk: 9, slot: 0 }]).is_err());
        assert!(sys.read_blocks(&[BlockRef { disk: 0, slot: 99 }]).is_err());
    }

    #[test]
    fn write_blocks_round_trip() {
        let mut sys = small();
        let a = [100u64, 101];
        let b = [200u64, 201];
        sys.write_blocks(&[
            (BlockRef { disk: 0, slot: 8 }, &a),
            (BlockRef { disk: 3, slot: 9 }, &b),
        ])
        .unwrap();
        assert_eq!(sys.peek_block(BlockRef { disk: 0, slot: 8 }), a.to_vec());
        assert_eq!(sys.peek_block(BlockRef { disk: 3, slot: 9 }), b.to_vec());
        let s = sys.stats();
        assert_eq!(s.parallel_writes, 1);
        assert_eq!(s.blocks_written, 2);
        assert_eq!(s.independent_writes(), 1);
    }

    #[test]
    fn memoryload_round_trip_and_cost() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        // M = 16, BD = 8 → 2 stripes per memoryload, 4 memoryloads.
        let ml1 = sys.read_memoryload(0, 1).unwrap();
        assert_eq!(ml1, (16..32).collect::<Vec<u64>>());
        assert_eq!(sys.stats().parallel_reads, 2);
        assert_eq!(sys.stats().striped_reads, 2);

        sys.write_memoryload(1, 0, &ml1).unwrap();
        assert_eq!(sys.stats().parallel_writes, 2);
        let back = sys.read_memoryload(1, 0).unwrap();
        assert_eq!(back, ml1);
    }

    #[test]
    fn portions_are_disjoint() {
        let mut sys = small();
        let zeros = vec![0u64; 64];
        let ones = vec![1u64; 64];
        sys.load_records(0, &zeros);
        sys.load_records(1, &ones);
        assert_eq!(sys.dump_records(0), zeros);
        assert_eq!(sys.dump_records(1), ones);
    }

    #[test]
    fn striped_only_mode_rejects_independent_access() {
        let mut sys = small();
        sys.set_striped_only(true);
        // Striped operations still work.
        sys.read_stripe(0).unwrap();
        let stripe = vec![0u64; 8];
        sys.write_stripe(8, &stripe).unwrap();
        // Independent accesses are rejected without being charged.
        let before = sys.stats();
        let err = sys
            .read_blocks(&[BlockRef { disk: 0, slot: 0 }])
            .unwrap_err();
        assert!(matches!(err, PdmError::StripedOnly));
        let err = sys
            .write_blocks(&[(BlockRef { disk: 1, slot: 2 }, &[0u64, 0][..])])
            .unwrap_err();
        assert!(matches!(err, PdmError::StripedOnly));
        assert_eq!(sys.stats(), before, "rejected ops must not be charged");
    }

    #[test]
    fn fault_injection_fires() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().fail_at(1, 2));
        // op 0 succeeds
        sys.read_stripe(0).unwrap();
        // op 1 touches all disks; disk 2 faults.
        let err = sys.read_stripe(1).unwrap_err();
        assert!(matches!(err, PdmError::Fault { op: 1, disk: 2 }));
    }

    #[test]
    fn transient_faults_absorbed_with_exact_accounting() {
        // Admission-level transients (points and a flaky window) are
        // absorbed in every service mode; the recovered run's data and
        // charged I/Os equal a clean run's, and the ledger counts each
        // injected firing exactly once.
        let records: Vec<u64> = (0..64).collect();
        let mut clean = small();
        clean.load_records(0, &records);
        for s in 0..8 {
            clean.read_stripe(s).unwrap();
        }
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            sys.set_retry_policy(RetryPolicy::fault_tolerant());
            sys.load_records(0, &records);
            // Three point transients plus a two-op window: 5 firings.
            sys.set_faults(
                FaultPlan::new()
                    .fail_transient_at(0, 1)
                    .fail_transient_at(3, 2)
                    .fail_transient_at(7, 0)
                    .fail_between(4, 6, 3),
            );
            for s in 0..8 {
                assert_eq!(
                    sys.read_stripe(s).unwrap(),
                    records[s * 8..(s + 1) * 8],
                    "mode {mode:?} stripe {s}"
                );
            }
            let rs = sys.retry_stats();
            assert_eq!(rs.transient_faults, 5, "mode {mode:?}");
            assert_eq!(rs.retries, 5, "retries == injected transients");
            assert_eq!(rs.timeouts, 0);
            assert_eq!(rs.respawns, 0);
            assert_eq!(rs.attempts, sys.stats().parallel_ios() + rs.retries);
            assert_eq!(sys.stats(), clean.stats(), "charged once, mode {mode:?}");
        }
    }

    #[test]
    fn transient_fault_fails_fast_without_retry_budget() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().fail_transient_at(1, 2));
        sys.read_stripe(0).unwrap();
        let err = sys.read_stripe(1).unwrap_err();
        assert_eq!(
            err,
            PdmError::TransientFault {
                op: 1,
                disk: 2,
                attempt: 0
            }
        );
        assert!(err.is_retryable());
        let rs = sys.retry_stats();
        assert_eq!(rs.transient_faults, 1);
        assert_eq!(rs.retries, 0, "default policy never retries");
    }

    #[test]
    fn stragglers_charge_the_makespan_within_budget() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        sys.set_timing(TimingModel::ssd());
        sys.set_faults(FaultPlan::new().delay_at(0, 1, 25).delay_at(0, 3, 40));
        let (stall, net) = (sys.stall_ms(), sys.network_ms());
        sys.read_stripe(0).unwrap();
        // The op completes when its slowest participant does; the wait
        // is a stall, not network time.
        assert!((sys.stall_ms() - stall - 40.0).abs() < 1e-9);
        assert_eq!(sys.network_ms(), net, "no network moved");
        let t = sys.timing().unwrap();
        assert!((t.stall_ms() - 40.0).abs() < 1e-9);
        assert_eq!(t.network_ms(), 0.0);
        assert!(t.elapsed_ms() > 40.0, "the stall extends the makespan");
        assert!(sys.retry_stats().is_clean(), "a straggler is not a failure");
    }

    #[test]
    fn oversized_straggler_times_out_and_retries() {
        let records: Vec<u64> = (0..64).collect();
        let mut sys = small();
        sys.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            op_timeout_ms: Some(10),
            ..RetryPolicy::default()
        });
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().delay_at(1, 0, 50));
        sys.read_stripe(0).unwrap();
        assert_eq!(sys.read_stripe(1).unwrap(), records[8..16]);
        let rs = sys.retry_stats();
        assert_eq!(rs.timeouts, 1);
        assert_eq!(rs.retries, 1, "the retry outlives the congestion");

        // Without a retry budget the typed Timeout surfaces.
        let mut sys = small();
        sys.set_retry_policy(RetryPolicy {
            op_timeout_ms: Some(10),
            ..RetryPolicy::default()
        });
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().delay_at(0, 3, 50));
        let err = sys.read_stripe(0).unwrap_err();
        assert_eq!(
            err,
            PdmError::Timeout {
                disk: 3,
                op: 0,
                attempt: 0,
                ms: 50
            }
        );
    }

    #[test]
    fn disconnect_respawn_recovers_threaded_run() {
        let records: Vec<u64> = (0..64).collect();
        let mut clean = small();
        clean.set_service_mode(ServiceMode::Threaded);
        clean.load_records(0, &records);
        for s in 0..8 {
            clean.read_stripe(s).unwrap();
        }

        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().disconnect_at(2, 1));
        for s in 0..8 {
            assert_eq!(
                sys.read_stripe(s).unwrap(),
                records[s * 8..(s + 1) * 8],
                "stripe {s}"
            );
        }
        let rs = sys.retry_stats();
        assert_eq!(rs.respawns, 1, "one link revived");
        assert_eq!(rs.retries, 1, "one command resubmitted");
        assert_eq!(sys.stats(), clean.stats(), "recovered run charged once");
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn disconnect_without_respawn_still_fails_cleanly() {
        // The fail-fast contract of PR 7 is unchanged under the
        // default policy: the disconnect surfaces, buffers come home.
        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        sys.load_records(0, &(0..64).collect::<Vec<u64>>());
        sys.set_faults(FaultPlan::new().disconnect_at(1, 2));
        sys.read_stripe(0).unwrap();
        let err = sys.read_stripe(1).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 2 }), "{err}");
        assert_eq!(sys.retry_stats().respawns, 0);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn simnet_run_recovers_disconnect_with_respawn() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            2,
            &Backend::Mem,
            &TransportConfig::SimNet(Default::default()),
        )
        .unwrap();
        sys.set_threaded(true);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        sys.set_faults(FaultPlan::new().disconnect_at(3, 0).disconnect_at(5, 2));
        for s in 0..8 {
            assert_eq!(
                sys.read_stripe(s).unwrap(),
                records[s * 8..(s + 1) * 8],
                "stripe {s}"
            );
        }
        let rs = sys.retry_stats();
        assert_eq!(rs.respawns, 2);
        assert_eq!(rs.retries, 2);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn threaded_matches_serial() {
        let g = Geometry::new(256, 4, 8, 64).unwrap();
        let records: Vec<u64> = (0..256).collect();
        let mut serial = DiskSystem::<u64>::new_mem(g, 1);
        serial.load_records(0, &records);
        let mut threaded = DiskSystem::<u64>::new_mem(g, 1);
        threaded.set_service_mode(ServiceMode::Threaded);
        assert_eq!(threaded.service_mode(), ServiceMode::Threaded);
        threaded.load_records(0, &records);
        for slot in 0..g.stripes() {
            assert_eq!(
                serial.read_stripe(slot).unwrap(),
                threaded.read_stripe(slot).unwrap()
            );
        }
        assert_eq!(serial.stats(), threaded.stats());
    }

    #[test]
    fn service_mode_switch_preserves_data() {
        let mut sys = small();
        let records: Vec<u64> = (0..64).map(|i| i * 7).collect();
        sys.load_records(0, &records);
        sys.set_service_mode(ServiceMode::Threaded);
        assert_eq!(sys.dump_records(0), records);
        sys.set_service_mode(ServiceMode::Serial);
        assert_eq!(sys.dump_records(0), records);
        // With the four disks on two threads and on one: records written
        // threaded come home in serial mode, every unit in disk order.
        for threads in [2, 1] {
            let mut sys = small();
            sys.load_records(0, &records);
            let Service::Serial(units) =
                std::mem::replace(&mut sys.service, Service::Serial(vec![]))
            else {
                unreachable!("a memory system starts serial")
            };
            sys.service = Service::Pooled {
                pool: DiskPool::with_workers(units, threads),
                lockstep: false,
            };
            assert_eq!(sys.service_mode(), ServiceMode::Threaded);
            let shifted: Vec<u64> = records.iter().map(|r| r + 1000).collect();
            sys.load_records(1, &shifted);
            assert_eq!(sys.dump_records(0), records, "{threads} thread(s)");
            sys.set_threaded(false);
            assert_eq!(sys.dump_records(0), records, "{threads} thread(s)");
            assert_eq!(sys.dump_records(1), shifted, "{threads} thread(s)");
        }
    }

    #[test]
    fn empty_requests_are_free() {
        let mut sys = small();
        assert!(sys.read_blocks(&[]).unwrap().is_empty());
        sys.write_blocks(&[]).unwrap();
        let t = sys.begin_read(&[]).unwrap();
        sys.finish_read(t, &mut []).unwrap();
        let t = sys.begin_write(&[], &[]).unwrap();
        sys.finish_write(t).unwrap();
        assert_eq!(sys.stats().parallel_ios(), 0);
    }

    #[test]
    fn split_phase_round_trip_all_modes() {
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            // Overlapped read of stripes 0 and 1.
            let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
            let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            let mut s0 = vec![0u64; 8];
            let mut s1 = vec![0u64; 8];
            sys.finish_read(t0, &mut s0).unwrap();
            sys.finish_read(t1, &mut s1).unwrap();
            assert_eq!(s0, (0..8).collect::<Vec<u64>>());
            assert_eq!(s1, (8..16).collect::<Vec<u64>>());
            // Split-phase write to portion 1, then verify.
            let refs = sys.stripe_refs(sys.portion_base(1));
            let w = sys.begin_write(&refs, &s1).unwrap();
            sys.finish_write(w).unwrap();
            assert_eq!(
                sys.peek_block(BlockRef {
                    disk: 0,
                    slot: sys.portion_base(1)
                }),
                vec![8, 9]
            );
            let s = sys.stats();
            assert_eq!(s.parallel_reads, 2);
            assert_eq!(s.striped_reads, 2);
            assert_eq!(s.parallel_writes, 1);
            // All pooled buffers returned.
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn finish_read_with_hands_over_each_block() {
        // One ticket of three reads — a stripe, then single blocks on
        // disks 2 and 0 — hands each block over with its index in
        // operation order, however the completions arrive.
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            sys.load_records(0, &(0..64).collect::<Vec<u64>>());
            let single = |disk, slot| vec![BlockRef { disk, slot }];
            let mut ops = [sys.stripe_refs(1), single(2, 3), single(0, 0)].into_iter();
            let t = sys
                .begin_reads(|refs| {
                    let Some(op) = ops.next() else {
                        return false;
                    };
                    refs.clone_from(&op);
                    true
                })
                .unwrap();
            let mut got = Vec::new();
            (sys.finish_read_with(t, |i, block| got.push((i, block.to_vec())))).unwrap();
            got.sort();
            let blocks: Vec<Vec<u64>> = [8, 10, 12, 14, 28, 0].map(|r| vec![r, r + 1]).into();
            assert_eq!(got, blocks.into_iter().enumerate().collect::<Vec<_>>());
            let s = sys.stats();
            assert_eq!((s.parallel_reads, s.striped_reads), (3, 1), "mode {mode:?}");
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn buffer_pool_recycles_on_fault_error_path() {
        // Regression test: a fault-injection error must not strand
        // pooled block buffers (the pool's `outstanding` count would
        // creep up and every later operation would allocate afresh).
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            // Warm the pool, then record its size.
            let mut buf = vec![0u64; 8];
            sys.read_stripe_into(0, &mut buf).unwrap();
            let t = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            sys.finish_read(t, &mut buf).unwrap();
            let warm = sys.buffer_pool_stats();
            assert_eq!(warm.outstanding, 0);
            // Every striped op from now on faults on disk 2.
            let mut plan = FaultPlan::new();
            for op in 2..32 {
                plan = plan.fail_at(op, 2);
            }
            sys.set_faults(plan);
            for _ in 0..10 {
                assert!(matches!(
                    sys.read_stripe_into(0, &mut buf),
                    Err(PdmError::Fault { .. })
                ));
                assert!(matches!(
                    sys.begin_read(&sys.stripe_refs(0)),
                    Err(PdmError::Fault { .. })
                ));
                assert!(matches!(
                    sys.begin_write(&sys.stripe_refs(8), &buf),
                    Err(PdmError::Fault { .. })
                ));
            }
            let after = sys.buffer_pool_stats();
            assert_eq!(after.outstanding, 0, "buffers leaked in mode {mode:?}");
            assert_eq!(
                after.allocated, warm.allocated,
                "faulted ops must not grow the pool (mode {mode:?})"
            );
        }
    }

    #[test]
    fn single_block_reads_all_modes() {
        // The block-granular merge path: one block per parallel I/O,
        // synchronous and split-phase, classified independent for
        // D > 1.
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sys = small();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sys.load_records(0, &records);
            let mut buf = vec![0u64; 2];
            sys.read_blocks_into(&[BlockRef { disk: 2, slot: 3 }], &mut buf)
                .unwrap();
            assert_eq!(buf, vec![28, 29], "mode {mode:?}");
            let t = sys.begin_read(&[BlockRef { disk: 1, slot: 0 }]).unwrap();
            sys.finish_read(t, &mut buf).unwrap();
            assert_eq!(buf, vec![2, 3], "mode {mode:?}");
            let s = sys.stats();
            assert_eq!(s.parallel_reads, 2);
            assert_eq!(s.striped_reads, 0, "one block of D=4 is not a stripe");
            assert_eq!(s.blocks_read, 2);
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    #[test]
    fn discard_read_reclaims_buffers() {
        let mut sys = small();
        sys.set_service_mode(ServiceMode::Threaded);
        let records: Vec<u64> = (0..64).collect();
        sys.load_records(0, &records);
        let t = sys.begin_read(&sys.stripe_refs(0)).unwrap();
        sys.discard_read(t);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
    }

    #[test]
    fn file_backend_round_trip() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let dir = crate::tempdir::TempDir::new("pdm-sys");
        let mut sys: DiskSystem<u64> = DiskSystem::new_file(g, 2, dir.path()).unwrap();
        let records: Vec<u64> = (0..64).map(|i| i * 3).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        let stripe = sys.read_stripe(1).unwrap();
        assert_eq!(stripe, (8..16).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn backend_generic_constructor() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let records: Vec<u64> = (0..64).collect();
        let dir = crate::tempdir::TempDir::new("pdm-backend");
        for backend in [
            Backend::Mem,
            Backend::File {
                dir: dir.path().to_path_buf(),
            },
        ] {
            let mut sys: DiskSystem<u64> = DiskSystem::new_with_backend(g, 2, &backend).unwrap();
            sys.load_records(0, &records);
            assert_eq!(sys.dump_records(0), records, "backend {backend:?}");
        }
    }

    /// A SimNet system must be byte-identical to the in-process system
    /// on every access path — the simulated network serializes through
    /// the real wire protocol, which must be lossless.
    #[test]
    fn simnet_matches_inproc_on_all_paths() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let records: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(13)).collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
                g,
                2,
                &Backend::Mem,
                &TransportConfig::SimNet(SimNetModel::lan()),
            )
            .unwrap();
            sim.set_service_mode(mode);
            assert_eq!(sim.service_mode(), mode);
            let mut local = small();
            local.set_service_mode(mode);
            sim.load_records(0, &records);
            local.load_records(0, &records);
            assert_eq!(sim.dump_records(0), records, "mode {mode:?}");
            // Striped, independent, and split-phase paths all agree.
            assert_eq!(
                sim.read_stripe(1).unwrap(),
                local.read_stripe(1).unwrap(),
                "mode {mode:?}"
            );
            let refs = [BlockRef { disk: 1, slot: 0 }, BlockRef { disk: 3, slot: 2 }];
            assert_eq!(
                sim.read_blocks(&refs).unwrap(),
                local.read_blocks(&refs).unwrap()
            );
            let t = sim.begin_read(&sim.stripe_refs(2)).unwrap();
            let mut got = vec![0u64; 8];
            sim.finish_read(t, &mut got).unwrap();
            assert_eq!(got, records[16..24], "mode {mode:?}");
            let w = sim
                .begin_write(&sim.stripe_refs(sim.portion_base(1)), &got)
                .unwrap();
            sim.finish_write(w).unwrap();
            assert_eq!(
                sim.peek_block(BlockRef {
                    disk: 0,
                    slot: sim.portion_base(1)
                }),
                records[16..18].to_vec()
            );
            // Mirror the split-phase ops on the local system so the
            // charged-cost comparison covers identical sequences.
            let t = local.begin_read(&local.stripe_refs(2)).unwrap();
            let mut local_got = vec![0u64; 8];
            local.finish_read(t, &mut local_got).unwrap();
            assert_eq!(local_got, got);
            let w = local
                .begin_write(&local.stripe_refs(local.portion_base(1)), &local_got)
                .unwrap();
            local.finish_write(w).unwrap();
            // Same charged cost, messages moved, network time accrued.
            assert_eq!(sim.stats(), local.stats(), "mode {mode:?}");
            let msgs = sim.message_stats();
            assert!(msgs.messages_sent > 0 && msgs.messages_sent == msgs.messages_received);
            assert!(sim.network_ms() > 0.0, "mode {mode:?}");
            assert_eq!(local.message_stats(), MsgStats::default());
            assert_eq!(local.network_ms(), 0.0);
            assert_eq!(sim.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    /// SimNet time flows into the timing tracker's makespan.
    #[test]
    fn simnet_network_time_reaches_the_tracker() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            1,
            &Backend::Mem,
            &TransportConfig::SimNet(SimNetModel::lan()),
        )
        .unwrap();
        sim.set_timing(TimingModel::ssd());
        let records: Vec<u64> = (0..64).collect();
        sim.load_records(0, &records);
        let net_before = sim.network_ms();
        sim.read_stripe(0).unwrap();
        let t = sim.timing().unwrap();
        let accrued = sim.network_ms() - net_before;
        assert!(accrued > 0.0);
        assert!(t.network_ms() >= accrued, "tracker saw the network charge");
        assert!(t.elapsed_ms() >= t.network_ms());
    }

    /// An injected transport disconnect surfaces mid-operation as
    /// [`PdmError::Disconnected`] naming the disk, recycles every
    /// pooled buffer, and leaves the link dead for later operations.
    /// It also pins the charging rule on the failure path: a failed
    /// all-at-once call is admitted but not charged, while a failed
    /// split-phase call is charged once, at submission.
    #[test]
    fn transport_disconnect_surfaces_and_preserves_pool_hygiene() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
                g,
                2,
                &Backend::Mem,
                &TransportConfig::SimNet(SimNetModel::lan()),
            )
            .unwrap();
            sim.set_service_mode(mode);
            let records: Vec<u64> = (0..64).collect();
            sim.load_records(0, &records);
            // Warm the pool on both the all-at-once and split-phase
            // paths (split-phase holds a full stripe's buffers at
            // once), then snapshot.
            let mut buf = vec![0u64; 8];
            sim.read_stripe_into(0, &mut buf).unwrap();
            let t = sim.begin_read(&sim.stripe_refs(1)).unwrap();
            sim.finish_read(t, &mut buf).unwrap();
            let warm = sim.buffer_pool_stats();
            assert_eq!(warm.outstanding, 0);
            // Ops 2.. : disk 2's link drops during op 2.
            sim.set_faults(FaultPlan::new().disconnect_at(2, 2));
            let charged = sim.stats();
            let err = sim.read_stripe_into(0, &mut buf).unwrap_err();
            assert!(
                matches!(err, PdmError::Disconnected { disk: 2 }),
                "mode {mode:?}: {err}"
            );
            // The link stays dead: later ops touching disk 2 fail too.
            let err = sim.read_stripe_into(1, &mut buf).unwrap_err();
            assert!(matches!(err, PdmError::Disconnected { disk: 2 }));
            assert_eq!(sim.stats(), charged, "mode {mode:?}: failed ops charged");
            // Ops avoiding disk 2 still work.
            sim.read_blocks_into(&[BlockRef { disk: 0, slot: 0 }], &mut buf[..2])
                .unwrap();
            // Split-phase paths also fail cleanly: lockstep surfaces
            // the error at begin, pipelined at finish.
            let (io0, retry0) = (sim.stats(), sim.retry_stats());
            match sim.begin_read(&sim.stripe_refs(0)) {
                Ok(t) => {
                    let mut out = vec![0u64; 8];
                    let err = sim.finish_read(t, &mut out).unwrap_err();
                    assert!(matches!(err, PdmError::Disconnected { disk: 2 }));
                }
                Err(e) => assert!(matches!(e, PdmError::Disconnected { disk: 2 })),
            }
            let io = sim.stats().since(&io0);
            let retry = sim.retry_stats().since(&retry0);
            assert_eq!(io.parallel_ios(), 1, "mode {mode:?}: charged once");
            assert_eq!(retry.attempts, io.parallel_ios() + retry.retries);
            let after = sim.buffer_pool_stats();
            assert_eq!(after.outstanding, 0, "buffers leaked in mode {mode:?}");
            assert_eq!(
                after.allocated, warm.allocated,
                "disconnects must not grow the pool (mode {mode:?})"
            );
        }
    }

    /// In Threaded (pipelined) mode a split-phase disconnect error
    /// arrives at `finish_read`, not `begin_read`; buffers still come
    /// home.
    #[test]
    fn split_phase_disconnect_resolves_at_finish() {
        use crate::transport::{SimNetModel, TransportConfig};
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let mut sim: DiskSystem<u64> = DiskSystem::new_with_transport(
            g,
            1,
            &Backend::Mem,
            &TransportConfig::SimNet(SimNetModel::lan()),
        )
        .unwrap();
        sim.set_service_mode(ServiceMode::Threaded);
        let records: Vec<u64> = (0..64).collect();
        sim.load_records(0, &records);
        sim.set_faults(FaultPlan::new().disconnect_at(0, 1));
        let t = sim.begin_read(&sim.stripe_refs(0)).unwrap();
        let mut out = vec![0u64; 8];
        let err = sim.finish_read(t, &mut out).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 1 }), "{err}");
        assert_eq!(sim.buffer_pool_stats().outstanding, 0);
    }

    /// The one charging rule for a ticket of several parallel I/Os: a
    /// memoryload read admits and charges all its stripes before the
    /// first transfer, so a unit failing part-way leaves every stripe
    /// charged — in serial mode on local units as on the pool.
    #[test]
    fn a_failed_memoryload_read_is_charged_whole_in_every_mode() {
        /// A memory disk whose slot 1 cannot be read.
        struct BadSlot(MemDisk<u64>);
        impl DiskUnit<u64> for BadSlot {
            fn slots(&self) -> usize {
                self.0.slots()
            }
            fn block(&self) -> usize {
                DiskUnit::<u64>::block(&self.0)
            }
            fn read(&mut self, slot: usize, out: &mut [u64]) -> Result<()> {
                if slot == 1 {
                    return Err(PdmError::Io("bad sector".into()));
                }
                self.0.read(slot, out)
            }
            fn write(&mut self, slot: usize, data: &[u64]) -> Result<()> {
                self.0.write(slot, data)
            }
        }
        // N=64, B=2, D=4, M=16: memoryload 0 is stripes 0 and 1, and
        // disk 1 fails the second.
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let units = (0..g.disks())
                .map(|d| {
                    let unit = MemDisk::new(g.block(), g.stripes());
                    match d {
                        1 => Box::new(BadSlot(unit)) as Box<dyn DiskUnit<u64>>,
                        _ => Box::new(unit),
                    }
                })
                .collect();
            let mut sys = DiskSystem::from_service(g, 1, Service::Serial(units));
            sys.set_service_mode(mode);
            let mut out = vec![0u64; g.memory()];
            let err = sys.read_memoryload_into(0, 0, &mut out).unwrap_err();
            assert_eq!(err, PdmError::Io("bad sector".into()), "mode {mode:?}");
            let io = sys.stats();
            assert_eq!(
                io.parallel_reads as usize,
                g.stripes_per_memoryload(),
                "mode {mode:?}: the whole memoryload is charged"
            );
            let retry = sys.retry_stats();
            assert_eq!(retry.attempts, io.parallel_ios() + retry.retries);
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }

    /// On unit-backed (non-transport) services a disconnect fault has
    /// no link to sever and fails the operation up front.
    #[test]
    fn disconnect_fault_on_local_units_fails_upfront() {
        let mut sys = small();
        sys.set_faults(FaultPlan::new().disconnect_at(0, 3));
        let err = sys.read_stripe(0).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 3 }));
        // Not charged, and later ops are unaffected (no persistent
        // link state on local units).
        assert_eq!(sys.stats().parallel_ios(), 0);
        sys.read_stripe(0).unwrap();
    }

    /// The full UDS client path — handshake, socket framing, the
    /// reader-thread pipeline — against workers served on plain
    /// threads (the identical serve loop `pdm-diskd` runs), so the
    /// socket transport is provable without spawning processes.
    #[test]
    fn uds_transport_against_in_thread_workers() {
        use crate::proto::Worker;
        use crate::transport::{serve_stream, UdsTransport};
        use std::os::unix::net::UnixListener;
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        let dir = crate::tempdir::TempDir::new("pdm-uds-sys");
        let slots = 2 * g.stripes();
        let mut handles = Vec::new();
        let mut transports: Vec<Box<dyn Transport<u64>>> = Vec::new();
        for d in 0..g.disks() {
            let path = dir.path().join(format!("disk{d}.sock"));
            let listener = UnixListener::bind(&path).unwrap();
            let block_bytes = g.block() * 8;
            handles.push(std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut w = Worker::new_mem(block_bytes, slots);
                serve_stream(stream, &mut w).unwrap();
            }));
            transports.push(Box::new(
                UdsTransport::<u64>::connect(d, &path, g.block(), slots, None, None).unwrap(),
            ));
        }
        let mut sys = DiskSystem::new_from_transports(g, 2, transports);
        let records: Vec<u64> = (0..64).map(|i| i * 5).collect();
        sys.load_records(0, &records);
        assert_eq!(sys.dump_records(0), records);
        // Pipelined split-phase over the sockets.
        sys.set_threaded(true);
        let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
        let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
        let mut s0 = vec![0u64; 8];
        let mut s1 = vec![0u64; 8];
        sys.finish_read(t0, &mut s0).unwrap();
        sys.finish_read(t1, &mut s1).unwrap();
        assert_eq!(s0, records[..8]);
        assert_eq!(s1, records[8..16]);
        let w = sys
            .begin_write(&sys.stripe_refs(sys.portion_base(1)), &s0)
            .unwrap();
        sys.finish_write(w).unwrap();
        assert_eq!(
            sys.peek_block(BlockRef {
                disk: 0,
                slot: sys.portion_base(1)
            }),
            records[..2].to_vec()
        );
        let msgs = sys.message_stats();
        assert!(msgs.messages_sent > 0);
        assert_eq!(
            msgs.messages_sent, msgs.messages_received,
            "every request answered"
        );
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        // Dropping the system sends STOP; the serve loops exit cleanly.
        drop(sys);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The file backend must behave identically to MemDisk under every
    /// service mode — including the threaded split-phase path the
    /// engine's overlap uses, where the service threads issue real
    /// positional reads/writes against the files.
    #[test]
    fn file_backend_split_phase_all_modes() {
        let g = Geometry::new(64, 2, 4, 16).unwrap();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let dir = crate::tempdir::TempDir::new("pdm-sys-split");
            let mut sys: DiskSystem<u64> = DiskSystem::new_file(g, 2, dir.path()).unwrap();
            sys.set_service_mode(mode);
            let records: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(11)).collect();
            sys.load_records(0, &records);
            // Overlapped reads of stripes 0 and 1, then a split-phase
            // write of stripe 1's data into portion 1.
            let t0 = sys.begin_read(&sys.stripe_refs(0)).unwrap();
            let t1 = sys.begin_read(&sys.stripe_refs(1)).unwrap();
            let mut s0 = vec![0u64; 8];
            let mut s1 = vec![0u64; 8];
            sys.finish_read(t0, &mut s0).unwrap();
            sys.finish_read(t1, &mut s1).unwrap();
            assert_eq!(s0, records[..8], "mode {mode:?}");
            assert_eq!(s1, records[8..16], "mode {mode:?}");
            let refs = sys.stripe_refs(sys.portion_base(1));
            let w = sys.begin_write(&refs, &s1).unwrap();
            sys.finish_write(w).unwrap();
            assert_eq!(
                sys.peek_block(BlockRef {
                    disk: 0,
                    slot: sys.portion_base(1)
                }),
                records[8..10].to_vec(),
                "mode {mode:?}"
            );
            assert_eq!(sys.buffer_pool_stats().outstanding, 0, "mode {mode:?}");
        }
    }
}
