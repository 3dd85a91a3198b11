//! Concurrent servicing of parallel I/O operations.
//!
//! A parallel I/O touches at most one block on each disk; the transfers
//! are independent by construction, so no disk waits on another's
//! worker, and a worker may serve several disks. Each disk is reached
//! through its own [`Transport`]: the request/reply protocol ([`Cmd`] /
//! [`Completion`]) is the same whether the worker is a thread in this
//! process, a `pdm-diskd` process behind a Unix-domain socket, or a
//! deterministic simulated network (see [`crate::transport`]).
//!
//! A command moves one block. Consecutive commands to one disk form a
//! *run*: every command but the run's last sets [`Cmd::more`]. A
//! transport may hold a run until its last command arrives and hand it
//! to the worker in one hop, and the worker answers the run without
//! waking the caller before its last completion. [`InProcTransport`]
//! does both, so the [`crate::engine::PassEngine`]'s memoryloads — one
//! run per disk — cost a service thread one wake-up per run while the
//! model still charges `M/BD` parallel I/Os. The wire transports ship
//! every command at once and ignore the marker.
//!
//! [`DiskPool::new`] runs the disks on [`service_threads`]`(D)` =
//! `min(D, available_parallelism)` **persistent** service threads
//! ([`Workers`]): the PEM view of `P` processors driving `D` shared
//! disks, with disk `d` on thread `d mod P`. Every disk keeps its own
//! transport, so per-disk order, fault injection and counters do not
//! depend on how the disks are grouped. Commands carry owned block
//! buffers (recycled by the caller's buffer pool). Because submission
//! and completion are decoupled, a caller can keep an operation in
//! flight while it computes — this is what the [`crate::engine`]
//! pipeline uses to overlap the permute of memoryload *k* with the
//! reads of memoryload *k+1*, and the overlap survives remoteness: over
//! a socket the requests pipeline the same way. One worker loop serves
//! a thread's disks, finding each command's disk unit by the disk its
//! [`Inbox`] recorded; the pool's threads, a one-disk
//! [`InProcTransport`]'s and the job service's shared disk farm all
//! run it.
//!
//! The [`crate::system::DiskSystem`] drives the pool in one of two
//! disciplines chosen by
//! [`crate::system::DiskSystem::set_service_mode`]: *pipelined*
//! ([`crate::system::ServiceMode::Threaded`]), or *lockstep* — each
//! command's completion collected before the next is sent, so every
//! run is one command long — which is
//! [`crate::system::ServiceMode::Serial`] on disks behind remote
//! transports. Local disks in serial mode have no pool: the system's
//! one submit serves the same staged tickets from the units in the
//! caller's thread, with one copy and no commands. For
//! [`crate::backend::MemDisk`] the pool's threads overlap block copies
//! with the caller's in-memory work; for [`crate::backend::FileDisk`]
//! they overlap real system calls the way a disk array's controllers
//! would, `D/P` disks each.

use crate::backend::DiskUnit;
use crate::error::{PdmError, Result};
use crate::record::Record;
use crate::stats::MsgStats;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A command for one disk's service thread. Buffers travel by value:
/// the worker fills (read) or drains (write) the buffer and sends it
/// back in the [`Completion`], so the caller's pool can recycle it.
pub enum Cmd<R: Record> {
    /// Read block `slot` into `buf` and reply on `done`.
    Read {
        /// Block slot on this disk.
        slot: usize,
        /// Destination buffer, exactly one block long.
        buf: Vec<R>,
        /// Caller's request index, echoed in the completion.
        idx: usize,
        /// Where the completion goes.
        done: CompletionQueue<R>,
        /// Another command of the same run follows (see [`Cmd::more`]).
        more: bool,
    },
    /// Write `buf` to block `slot` and reply on `done`.
    Write {
        /// Block slot on this disk.
        slot: usize,
        /// Source buffer, exactly one block long.
        buf: Vec<R>,
        /// Caller's request index, echoed in the completion.
        idx: usize,
        /// Where the completion goes.
        done: CompletionQueue<R>,
        /// Another command of the same run follows (see [`Cmd::more`]).
        more: bool,
    },
    /// Shut the worker down (it returns its unit to the joiner).
    Stop,
}

impl<R: Record> Cmd<R> {
    /// Whether another command to the same disk follows at once: the
    /// caller promises to end the run with a command that clears it.
    /// A transport may hold the command until then, and a worker need
    /// not wake the caller for its completion.
    pub fn more(&self) -> bool {
        match self {
            Cmd::Read { more, .. } | Cmd::Write { more, .. } => *more,
            Cmd::Stop => false,
        }
    }

    /// Answers the command with `result` from `disk`: its completion,
    /// the queue the completion goes to, and [`Cmd::more`]. `None` for
    /// [`Cmd::Stop`], which nobody waits on.
    fn answer(
        self,
        disk: usize,
        result: Result<()>,
    ) -> Option<(Completion<R>, CompletionQueue<R>, bool)> {
        match self {
            Cmd::Read {
                buf,
                idx,
                done,
                more,
                ..
            }
            | Cmd::Write {
                buf,
                idx,
                done,
                more,
                ..
            } => Some((
                Completion {
                    idx,
                    disk,
                    buf,
                    result,
                },
                done,
                more,
            )),
            Cmd::Stop => None,
        }
    }
}

/// Where commands report: a queue of [`Completion`]s shared by a caller
/// and the commands it submitted. The caller keeps one handle and waits
/// on it; every command carries a clone (a reference count, no
/// allocation). A worker delivers a run's completions under one lock,
/// and the caller takes all that have arrived at once. Sending never
/// waits for capacity, so a worker never blocks on its caller, and
/// receiving never allocates — a std channel's receiver allocates the
/// first time it blocks — so a recycled queue keeps the caller's loop
/// allocation-free.
pub struct CompletionQueue<R>(Arc<Queue<R>>);

struct Queue<R> {
    state: Mutex<QueueState<R>>,
    ready: Condvar,
}

struct QueueState<R> {
    items: VecDeque<Completion<R>>,
    /// The receiver is parked on `ready`.
    waiting: bool,
}

impl<R> CompletionQueue<R> {
    /// An empty queue.
    pub fn new() -> Self {
        CompletionQueue(Arc::new(Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                waiting: false,
            }),
            ready: Condvar::new(),
        }))
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<R>> {
        // Every update is one push or pop, so no panic can leave the
        // queue half-updated.
        self.0.state.lock().expect("completion queue poisoned")
    }

    /// Delivers a completion, waking the receiver if it waits.
    pub fn send(&self, c: Completion<R>) {
        self.deliver(std::iter::once(c), true);
    }

    /// Delivers completions under one lock; wakes a waiting receiver
    /// only if `wake`. A worker delivers a run's completions together
    /// and wakes the receiver once, at the run's end. The waker clears
    /// `waiting`, so another worker's run that ends before the receiver
    /// runs does not wake it again.
    fn deliver(&self, cs: impl Iterator<Item = Completion<R>>, wake: bool) {
        let mut state = self.lock();
        state.items.extend(cs);
        let wake = wake && std::mem::take(&mut state.waiting);
        drop(state);
        if wake {
            self.0.ready.notify_one();
        }
    }

    /// Whether both handles name the same queue.
    fn same(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The oldest completion, if one has arrived.
    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Option<Completion<R>> {
        self.lock().items.pop_front()
    }

    /// Waits for the oldest completion.
    pub fn recv(&self) -> Completion<R> {
        self.wait(None, |items| items.pop_front())
            .flatten()
            .expect("an unbounded wait returns a completion")
    }

    /// Waits (at most `timeout`) until completions have arrived, then
    /// moves all of them into `into`, which must be empty: the two
    /// swap storage, so neither side allocates. `false` on a timeout.
    pub(crate) fn recv_all(
        &self,
        into: &mut VecDeque<Completion<R>>,
        timeout: Option<Duration>,
    ) -> bool {
        debug_assert!(into.is_empty(), "completions left unreceived");
        let deadline = timeout.map(|t| Instant::now() + t);
        self.wait(deadline, |items| std::mem::swap(items, into))
            .is_some()
    }

    /// Waits until the queue is non-empty (or `deadline` passes), then
    /// applies `take` to it under the lock.
    fn wait<T>(
        &self,
        deadline: Option<Instant>,
        take: impl FnOnce(&mut VecDeque<Completion<R>>) -> T,
    ) -> Option<T> {
        let poisoned = "completion queue poisoned";
        let mut state = self.lock();
        loop {
            if !state.items.is_empty() {
                return Some(take(&mut state.items));
            }
            state.waiting = true;
            state = match deadline {
                None => self.0.ready.wait(state).expect(poisoned),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        state.waiting = false;
                        return None;
                    }
                    self.0.ready.wait_timeout(state, left).expect(poisoned).0
                }
            };
            state.waiting = false;
        }
    }
}

impl<R> Clone for CompletionQueue<R> {
    fn clone(&self) -> Self {
        CompletionQueue(Arc::clone(&self.0))
    }
}

impl<R> Default for CompletionQueue<R> {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of one block transfer, carrying the buffer back for
/// reuse.
pub struct Completion<R> {
    /// The request index from the [`Cmd`].
    pub idx: usize,
    /// The disk that serviced the request.
    pub disk: usize,
    /// The block buffer (filled with data for reads).
    pub buf: Vec<R>,
    /// Transfer outcome.
    pub result: Result<()>,
}

/// One disk's end of the request/reply protocol.
///
/// A transport accepts [`Cmd`]s and eventually answers each on the
/// command's completion queue. The contract that keeps every caller
/// drain-loop transport-agnostic:
///
/// * **Submission never blocks on the reply** (it may block briefly on
///   a socket write or a full command queue).
/// * **Every command is answered exactly once**, including after the
///   link dies: a transport failure surfaces *through the completion*
///   as [`PdmError::Disconnected`] with the buffer attached, never as
///   a panic or a silently dropped command. Buffer-pool hygiene is
///   therefore identical on every path.
/// * Replies may arrive in any order across disks; per disk they
///   follow submission order.
/// * A command that sets [`Cmd::more`] may be held until its run's last
///   command is submitted, but no longer.
pub trait Transport<R: Record>: Send {
    /// The disk this transport serves.
    fn disk(&self) -> usize;

    /// Submits a command; the reply arrives on the command's `done`
    /// queue. [`Cmd::Stop`] is a no-op here — shutdown is driven by
    /// [`Transport::shutdown`].
    fn submit(&mut self, cmd: Cmd<R>);

    /// Data-plane messages and bytes moved so far. Identically zero
    /// for in-process transports, where commands cross by reference.
    fn message_stats(&self) -> MsgStats {
        MsgStats::default()
    }

    /// Takes (returns and resets) the simulated network milliseconds
    /// accrued since the last call. Zero for everything but the SimNet
    /// transport.
    fn take_sim_ms(&mut self) -> f64 {
        0.0
    }

    /// Severs the link as a fault-injection action
    /// ([`crate::fault::FaultPlan::disconnect_at`]): in-flight and
    /// subsequent commands complete with [`PdmError::Disconnected`].
    /// The link stays dead (unless revived by [`Transport::respawn`]).
    fn inject_disconnect(&mut self);

    /// Attempts to revive a dead link. `Ok(true)` means the transport
    /// actually relaunched/reconnected its worker, `Ok(false)` means
    /// the link was already healthy, and `Err` means this transport
    /// cannot recover (the default — recovery is opt-in per
    /// transport). The [`crate::system::DiskSystem`] retry layer calls
    /// this on a `Disconnected` completion when the
    /// [`crate::retry::RetryPolicy`] allows respawns, and counts a
    /// respawn in [`crate::retry::RetryStats`] only on `Ok(true)`.
    fn respawn(&mut self) -> Result<bool> {
        Err(PdmError::Io(format!(
            "disk {}: transport does not support respawn",
            self.disk()
        )))
    }

    /// Gracefully shuts the worker down, returning the disk unit when
    /// it lives in this process (`None` for remote workers, whose
    /// storage dies with them). Idempotent.
    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>>;
}

/// Answers `cmd` with [`PdmError::Disconnected`], returning its buffer
/// through the completion so the caller's pool can recycle it. Public
/// so out-of-crate [`Transport`] implementations (the service's disk
/// farm) can honour the severed-link contract.
pub fn fail_disconnected<R: Record>(cmd: Cmd<R>, disk: usize) {
    if let Some((completion, done, _)) = cmd.answer(disk, Err(PdmError::Disconnected { disk })) {
        done.send(completion);
    }
}

/// Commands an [`Inbox`] holds per disk its worker serves before a
/// sender waits for the worker. The bound keeps the queue's storage at
/// a fixed size, so a send never allocates.
const INBOX_CAPACITY: usize = 256;

/// A service thread's command queue, fed a run at a time: a sender
/// appends a whole run under one lock and wakes the worker once, and
/// the worker takes everything queued at once by swapping storage with
/// it, so neither side pays a lock per block. Each command is queued
/// beside the disk it was sent to, which is how a thread that serves
/// several disks finds the unit for it. Both storages hold a fixed
/// number of commands and a sender waits for room rather than grow
/// them, so nothing allocates after creation; the wait cannot
/// deadlock, because the worker answers on [`CompletionQueue`]s and
/// never blocks. Clones share the queue: many transports may feed one
/// worker (the disks of one [`Workers`] thread, and the job service's
/// tenants).
pub struct Inbox<R: Record>(Arc<InboxShared<R>>);

struct InboxShared<R: Record> {
    state: Mutex<InboxState<R>>,
    /// Signals the worker that commands arrived.
    ready: Condvar,
    /// Signals senders that the worker took the queue.
    room: Condvar,
    /// Commands the queue holds before a sender waits.
    capacity: usize,
}

struct InboxState<R: Record> {
    /// Queued commands, each with the disk it is for.
    cmds: VecDeque<(usize, Cmd<R>)>,
    /// The worker is parked on `ready`.
    waiting: bool,
    /// Senders are parked on `room`.
    full: bool,
    /// The worker has stopped; nothing more is served.
    closed: bool,
}

impl<R: Record> Inbox<R> {
    /// An empty queue for a worker serving `disks` disks.
    fn new(disks: usize) -> Self {
        let capacity = INBOX_CAPACITY * disks.max(1);
        Inbox(Arc::new(InboxShared {
            state: Mutex::new(InboxState {
                cmds: VecDeque::with_capacity(capacity),
                waiting: false,
                full: false,
                closed: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity,
        }))
    }

    fn lock(&self) -> MutexGuard<'_, InboxState<R>> {
        // Every update is one append or swap, so no panic can leave the
        // queue half-updated.
        self.0.state.lock().expect("inbox poisoned")
    }

    /// Queues the commands of `cmds` for `disk` in order, leaving it
    /// empty. Once the worker has stopped, answers each with
    /// [`PdmError::Disconnected`] for `disk` instead and returns
    /// `false`.
    pub fn send(&self, disk: usize, cmds: &mut Vec<Cmd<R>>) -> bool {
        let mut rest = cmds.drain(..);
        let mut state = self.lock();
        loop {
            if state.closed {
                drop(state);
                for cmd in rest {
                    fail_disconnected(cmd, disk);
                }
                return false;
            }
            let room = self.0.capacity - state.cmds.len();
            let run = rest.by_ref().take(room).map(|cmd| (disk, cmd));
            state.cmds.extend(run);
            // The waker clears `waiting`, so another disk's run that
            // reaches the worker before it runs does not wake it again.
            if std::mem::take(&mut state.waiting) {
                self.0.ready.notify_one();
            }
            if rest.len() == 0 {
                return true;
            }
            state.full = true;
            state = self.0.room.wait(state).expect("inbox poisoned");
        }
    }

    /// Whether the worker has stopped.
    fn closed(&self) -> bool {
        self.lock().closed
    }

    /// Waits for commands, then moves all of them into `into`, which
    /// must be empty and hold the queue's capacity.
    fn take_all(&self, into: &mut VecDeque<(usize, Cmd<R>)>) {
        debug_assert!(into.is_empty(), "commands left unserved");
        let mut state = self.lock();
        while state.cmds.is_empty() {
            state.waiting = true;
            state = self.0.ready.wait(state).expect("inbox poisoned");
            state.waiting = false;
        }
        std::mem::swap(&mut state.cmds, into);
        if std::mem::take(&mut state.full) {
            self.0.room.notify_all();
        }
    }

    /// Stops the queue: the commands in `left`, those still queued and
    /// any sent later are answered with `Disconnected`, each for its
    /// own disk.
    fn close(&self, left: &mut VecDeque<(usize, Cmd<R>)>) {
        let mut state = self.lock();
        state.closed = true;
        let queued = std::mem::take(&mut state.cmds);
        if std::mem::take(&mut state.full) {
            self.0.room.notify_all();
        }
        drop(state);
        for (disk, cmd) in left.drain(..).chain(queued) {
            fail_disconnected(cmd, disk);
        }
    }
}

impl<R: Record> Clone for Inbox<R> {
    fn clone(&self) -> Self {
        Inbox(Arc::clone(&self.0))
    }
}

impl<R: Record> std::fmt::Debug for Inbox<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Inbox")
    }
}

/// The disks one service thread serves: each disk's number and unit.
type Units<R> = Vec<(usize, Box<dyn DiskUnit<R>>)>;

/// The worker loop: serves the commands arriving in `inbox` against
/// `units`, finding each command's unit by the disk it was sent to —
/// reads into or writes from the command's buffer, then sends the
/// buffer back on the command's `done` queue — until [`Cmd::Stop`]
/// arrives; commands left behind are answered with `Disconnected`,
/// each for its own disk. Each disk's run is delivered together at
/// that disk's last command, waking the caller once, however the runs
/// of the thread's disks interleave. Should a unit panic, the command
/// it was serving is answered `Disconnected` too, so every command is
/// still answered exactly once.
fn serve<R: Record>(units: &mut Units<R>, inbox: &Inbox<R>) {
    /// A disk's run in progress: its completions so far, and where
    /// they go.
    type Run<R> = (Vec<Completion<R>>, Option<CompletionQueue<R>>);
    /// Closes the inbox however the loop ends — a panicking unit
    /// included — so no sender waits on, or queues for, a dead worker,
    /// and no command goes unanswered.
    struct Closer<'a, R: Record> {
        inbox: &'a Inbox<R>,
        /// Commands taken and not yet answered, the one being served
        /// first.
        cmds: VecDeque<(usize, Cmd<R>)>,
        /// Each unit's run in progress.
        runs: Vec<Run<R>>,
    }
    impl<R: Record> Drop for Closer<'_, R> {
        fn drop(&mut self) {
            for (run, done) in &mut self.runs {
                if let Some(q) = done.take() {
                    q.deliver(run.drain(..), true);
                }
            }
            self.inbox.close(&mut self.cmds);
        }
    }
    let mut taken = Closer {
        inbox,
        cmds: VecDeque::with_capacity(inbox.0.capacity),
        runs: units.iter().map(|_| (Vec::new(), None)).collect(),
    };
    loop {
        inbox.take_all(&mut taken.cmds);
        // Each command is served where it is queued and popped once
        // done, so a panicking unit leaves it for the closer to answer.
        while let Some((disk, cmd)) = taken.cmds.front_mut() {
            let disk = *disk;
            let i = (units.iter().position(|&(d, _)| d == disk))
                .expect("a command for a disk this thread serves");
            let unit = units[i].1.as_mut();
            let result = match cmd {
                Cmd::Read { slot, buf, .. } => unit.read(*slot, buf),
                Cmd::Write { slot, buf, .. } => unit.write(*slot, buf),
                Cmd::Stop => return,
            };
            let served = taken
                .cmds
                .pop_front()
                .and_then(|(_, c)| c.answer(disk, result));
            let (completion, done, more) = served.expect("the command just served");
            let (run, run_done) = &mut taken.runs[i];
            if let Some(q) = run_done {
                if !q.same(&done) {
                    // Another caller's command to this disk (the job
                    // service's shared disks): hand over what the open
                    // run has done so far.
                    q.deliver(run.drain(..), false);
                }
            }
            run.push(completion);
            if more {
                *run_done = Some(done);
            } else {
                done.deliver(run.drain(..), true);
                *run_done = None;
            }
        }
    }
}

/// Spawns a service thread named `name` over `units`, returning its
/// inbox and the handle that yields the units back once it stops.
fn spawn_thread<R: Record>(name: String, mut units: Units<R>) -> (Inbox<R>, JoinHandle<Units<R>>) {
    let inbox = Inbox::new(units.len());
    let served = inbox.clone();
    let thread = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            serve(&mut units, &served);
            units
        })
        .expect("failed to spawn disk service thread");
    (inbox, thread)
}

/// How many service threads serve `disks` local disks:
/// `min(D, available_parallelism)`, or `D` when the processor count is
/// unknown. `available_parallelism` follows the process's CPU affinity,
/// so a process pinned to one CPU serves all its disks on one thread.
/// [`DiskPool::new`] and the job service's memory farm use this rule.
pub fn service_threads(disks: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(disks, usize::from);
    disks.min(cpus)
}

/// Persistent service threads over a list of disk units: disk `d` is
/// served by thread `d mod P`, and the disks of one thread share its
/// [`Inbox`], which records each command's disk. Dropping the workers
/// stops and joins the threads; commands sent after that are answered
/// with [`PdmError::Disconnected`].
pub struct Workers<R: Record> {
    /// One inbox per disk, in disk order: disk `d`'s is thread
    /// `d mod P`'s.
    inboxes: Vec<Inbox<R>>,
    /// Thread `w` serves disk `w` first, so `inboxes[w]` reaches it.
    threads: Vec<JoinHandle<Units<R>>>,
}

impl<R: Record> Workers<R> {
    /// Spawns `threads` service threads (at most one per unit), named
    /// `{name}-{thread}`, over `units`, unit `d` being disk `d`.
    pub fn spawn(name: &str, units: Vec<Box<dyn DiskUnit<R>>>, threads: usize) -> Self {
        let disks = units.len();
        let threads = threads.min(disks);
        assert!(threads > 0 || disks == 0, "disks need a thread");
        let thread_of = |disk: usize| disk % threads;
        let mut groups: Vec<Units<R>> = (0..threads).map(|_| Vec::new()).collect();
        for (d, unit) in units.into_iter().enumerate() {
            groups[thread_of(d)].push((d, unit));
        }
        let (thread_inboxes, threads): (Vec<_>, Vec<_>) = (groups.into_iter().enumerate())
            .map(|(w, group)| spawn_thread(format!("{name}-{w}"), group))
            .unzip();
        Workers {
            inboxes: (0..disks)
                .map(|d| thread_inboxes[thread_of(d)].clone())
                .collect(),
            threads,
        }
    }

    /// The disks' inboxes, in disk order.
    pub fn inboxes(&self) -> &[Inbox<R>] {
        &self.inboxes
    }

    /// Number of service threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Stops every thread, once, and joins it: the units in disk order,
    /// or `None` if a unit panicked and took its thread down.
    pub(crate) fn stop(&mut self) -> Option<Vec<Box<dyn DiskUnit<R>>>> {
        for (w, inbox) in self.inboxes.iter().take(self.threads.len()).enumerate() {
            inbox.send(w, &mut vec![Cmd::Stop]);
        }
        let mut units = Vec::with_capacity(self.inboxes.len());
        let mut whole = true;
        for thread in self.threads.drain(..) {
            match thread.join() {
                Ok(served) => units.extend(served),
                Err(_) => whole = false,
            }
        }
        units.sort_by_key(|&(d, _)| d);
        whole.then(|| units.into_iter().map(|(_, unit)| unit).collect())
    }
}

impl<R: Record> Drop for Workers<R> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<R: Record> std::fmt::Debug for Workers<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (f.debug_struct("Workers"))
            .field("disks", &self.inboxes.len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// The in-process transport: one disk's link to a persistent service
/// thread that owns the disk's [`DiskUnit`] and serves it from an
/// [`Inbox`] — buffers cross by ownership transfer, no bytes are
/// serialized, and [`Transport::message_stats`] stays zero. This is the
/// default transport. It holds a run until its last command arrives and
/// then queues the whole run at once, so the service thread wakes once
/// per run. [`InProcTransport::new`] spawns a thread for its one disk;
/// the transports of [`DiskPool::new`] share the pool's threads, which
/// the pool owns.
pub struct InProcTransport<R: Record> {
    disk: usize,
    inbox: Inbox<R>,
    /// The commands of the run being submitted; the vector keeps its
    /// capacity, so holding a run allocates nothing in steady state.
    held: Vec<Cmd<R>>,
    /// The service thread, when this transport owns it (`None` once
    /// stopped).
    own: Option<JoinHandle<Units<R>>>,
    dead: bool,
}

impl<R: Record> InProcTransport<R> {
    /// Spawns the service thread for `disk` over `unit`.
    pub fn new(disk: usize, unit: Box<dyn DiskUnit<R>>) -> Self {
        let (inbox, thread) = spawn_thread(format!("pdm-disk-{disk}"), vec![(disk, unit)]);
        let mut transport = Self::shared(disk, inbox);
        transport.own = Some(thread);
        transport
    }

    /// A transport to `disk` on a thread that someone else owns,
    /// through that thread's `inbox`.
    fn shared(disk: usize, inbox: Inbox<R>) -> Self {
        InProcTransport {
            disk,
            inbox,
            held: Vec::new(),
            own: None,
            dead: false,
        }
    }

    /// Queues the held run for the service thread (or, over a dead
    /// link, answers it with `Disconnected`).
    fn release(&mut self) {
        if self.dead {
            for cmd in self.held.drain(..) {
                fail_disconnected(cmd, self.disk);
            }
        } else if !self.inbox.send(self.disk, &mut self.held) {
            // Service thread gone: the inbox answered the run.
            self.dead = true;
        }
    }

    /// Stops the service thread, if this transport owns it and it still
    /// runs, and joins it.
    fn stop(&mut self) -> Option<std::thread::Result<Box<dyn DiskUnit<R>>>> {
        self.release();
        let thread = self.own.take()?;
        self.held.push(Cmd::Stop);
        self.inbox.send(self.disk, &mut self.held);
        let units = thread.join();
        Some(units.map(|mut units| units.pop().expect("the thread's one unit").1))
    }
}

impl<R: Record> Transport<R> for InProcTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        let last = !cmd.more();
        self.held.push(cmd);
        if last {
            self.release();
        }
    }

    fn inject_disconnect(&mut self) {
        // The service thread stays alive (its unit must survive a
        // later shutdown); the *link* is what dies.
        self.release();
        self.dead = true;
    }

    fn respawn(&mut self) -> Result<bool> {
        // The severed link is a flag over a still-running service
        // thread whose unit (and data) survived; reviving it is a
        // reconnect, not a relaunch — but it is a real recovery
        // action, so report Ok(true) when the link was dead.
        if self.inbox.closed() {
            return Err(PdmError::Io(format!(
                "disk {}: service thread already shut down",
                self.disk
            )));
        }
        Ok(std::mem::take(&mut self.dead))
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        let joined = self.stop()?;
        Some(joined.expect("disk service thread panicked"))
    }
}

impl<R: Record> Drop for InProcTransport<R> {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Persistent disk workers behind per-disk [`Transport`]s.
///
/// [`DiskPool::new`] serves the [`DiskUnit`]s on [`Workers`] —
/// [`service_threads`]`(D)` in-process service threads, disk `d` on
/// thread `d mod P` — reached through one [`InProcTransport`] per disk;
/// [`DiskPool::from_transports`] generalizes to caller-built transports
/// and remote workers (see [`crate::transport`]).
/// [`DiskPool::into_units`] stops the service threads and hands the
/// units back (used when the [`crate::system::DiskSystem`] switches
/// service modes).
pub struct DiskPool<R: Record> {
    transports: Vec<Box<dyn Transport<R>>>,
    /// The service threads behind the transports, when the pool spawned
    /// them. Declared after `transports`, so it drops after them.
    workers: Option<Workers<R>>,
}

impl<R: Record> DiskPool<R> {
    /// Serves the units on [`service_threads`]`(D)` in-process service
    /// threads.
    pub fn new(units: Vec<Box<dyn DiskUnit<R>>>) -> Self {
        let threads = service_threads(units.len());
        Self::with_workers(units, threads)
    }

    /// Serves the units on `threads` service threads, disk `d` on
    /// thread `d mod threads`.
    pub(crate) fn with_workers(units: Vec<Box<dyn DiskUnit<R>>>, threads: usize) -> Self {
        let workers = Workers::spawn("pdm-worker", units, threads);
        let transports = (workers.inboxes().iter().enumerate())
            .map(|(disk, inbox)| {
                Box::new(InProcTransport::shared(disk, inbox.clone())) as Box<dyn Transport<R>>
            })
            .collect();
        DiskPool {
            transports,
            workers: Some(workers),
        }
    }

    /// A pool over pre-built transports, one per disk in disk order.
    pub fn from_transports(transports: Vec<Box<dyn Transport<R>>>) -> Self {
        for (d, t) in transports.iter().enumerate() {
            assert_eq!(t.disk(), d, "transports must be in disk order");
        }
        DiskPool {
            transports,
            workers: None,
        }
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.transports.len()
    }

    /// Submits a command to `disk`'s worker. Non-blocking; the reply
    /// arrives on the command's `done` queue (a dead link answers
    /// with [`PdmError::Disconnected`] there, buffer attached).
    pub fn submit(&mut self, disk: usize, cmd: Cmd<R>) {
        self.transports[disk].submit(cmd);
    }

    /// Aggregate data-plane message counters across all disks.
    pub fn message_stats(&self) -> MsgStats {
        let mut total = MsgStats::default();
        for t in &self.transports {
            total.merge(&t.message_stats());
        }
        total
    }

    /// Per-disk data-plane message counters, in disk order.
    pub fn message_stats_per_disk(&self) -> Vec<MsgStats> {
        self.transports.iter().map(|t| t.message_stats()).collect()
    }

    /// Takes the simulated network time accrued across all disks since
    /// the last call (SimNet transports only).
    pub fn take_sim_ms(&mut self) -> f64 {
        self.transports.iter_mut().map(|t| t.take_sim_ms()).sum()
    }

    /// Severs the link to `disk` (fault injection).
    pub fn inject_disconnect(&mut self, disk: usize) {
        self.transports[disk].inject_disconnect();
    }

    /// Attempts to revive the link to `disk` (see
    /// [`Transport::respawn`]).
    pub fn respawn(&mut self, disk: usize) -> Result<bool> {
        self.transports[disk].respawn()
    }

    /// Stops the service threads, each once, and returns the disk units
    /// in disk order. Panics on a pool over caller-built transports
    /// ([`DiskPool::from_transports`]): their workers are not the
    /// pool's to stop, remote storage cannot be pulled back into this
    /// process, and the `DiskSystem` never asks to.
    pub fn into_units(mut self) -> Vec<Box<dyn DiskUnit<R>>> {
        let mut workers = (self.workers.take()).expect("only the pool's own threads hold units");
        workers.stop().expect("disk service thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemDisk;

    fn units(block: usize, slots: usize, disks: usize) -> Vec<Box<dyn DiskUnit<u64>>> {
        (0..disks)
            .map(|_| Box::new(MemDisk::<u64>::new(block, slots)) as Box<dyn DiskUnit<u64>>)
            .collect()
    }

    fn read(slot: usize, block: usize, idx: usize, done: &CompletionQueue<u64>) -> Cmd<u64> {
        Cmd::Read {
            slot,
            buf: vec![0; block],
            idx,
            done: done.clone(),
            more: false,
        }
    }

    fn write(slot: usize, buf: Vec<u64>, idx: usize, done: &CompletionQueue<u64>) -> Cmd<u64> {
        Cmd::Write {
            slot,
            buf,
            idx,
            done: done.clone(),
            more: false,
        }
    }

    /// `cmds` as one run: every command but the last sets `more`.
    fn run(mut cmds: Vec<Cmd<u64>>) -> Vec<Cmd<u64>> {
        let last = cmds.len() - 1;
        for (i, cmd) in cmds.iter_mut().enumerate() {
            if let Cmd::Read { more, .. } | Cmd::Write { more, .. } = cmd {
                *more = i < last;
            }
        }
        cmds
    }

    /// A memory disk that reports `(disk, slot)` for each transfer.
    struct Reporting(MemDisk<u64>, usize, std::sync::mpsc::Sender<(usize, usize)>);

    impl DiskUnit<u64> for Reporting {
        fn slots(&self) -> usize {
            self.0.slots()
        }
        fn block(&self) -> usize {
            DiskUnit::<u64>::block(&self.0)
        }
        fn read(&mut self, slot: usize, out: &mut [u64]) -> Result<()> {
            self.2.send((self.1, slot)).unwrap();
            self.0.read(slot, out)
        }
        fn write(&mut self, slot: usize, data: &[u64]) -> Result<()> {
            self.2.send((self.1, slot)).unwrap();
            self.0.write(slot, data)
        }
    }

    /// A unit whose every transfer panics, once `go` says so; it first
    /// tells `entered` that a transfer started.
    struct Broken {
        entered: std::sync::mpsc::Sender<()>,
        go: std::sync::mpsc::Receiver<()>,
    }

    impl DiskUnit<u64> for Broken {
        fn slots(&self) -> usize {
            4
        }
        fn block(&self) -> usize {
            2
        }
        fn read(&mut self, _: usize, _: &mut [u64]) -> Result<()> {
            let _ = self.entered.send(());
            let _ = self.go.recv();
            panic!("broken unit");
        }
        fn write(&mut self, _: usize, _: &[u64]) -> Result<()> {
            let _ = self.entered.send(());
            let _ = self.go.recv();
            panic!("broken unit");
        }
    }

    /// A [`Broken`] unit, the channel it reports entering a transfer
    /// on, and the sender that lets it panic.
    fn broken() -> (
        Broken,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (entered, entering) = std::sync::mpsc::channel();
        let (go, going) = std::sync::mpsc::channel();
        (Broken { entered, go: going }, entering, go)
    }

    /// Pools over four disks: by the rule, on two threads (disks 0 and
    /// 2 share thread 0), and on one thread for all four.
    fn pools_of_four(block: usize, slots: usize) -> Vec<(usize, DiskPool<u64>)> {
        let by_rule = DiskPool::new(units(block, slots, 4));
        let threads = by_rule.workers.as_ref().map_or(0, Workers::threads);
        let pinned = [2, 1].map(|p| (p, DiskPool::with_workers(units(block, slots, 4), p)));
        std::iter::once((threads, by_rule)).chain(pinned).collect()
    }

    #[test]
    fn service_threads_are_min_of_disks_and_processors() {
        let cpus = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
        for disks in [0, 1, 2, 4, 16, 64] {
            assert_eq!(service_threads(disks), disks.min(cpus));
        }
        let pool = DiskPool::new(units(2, 2, 16));
        let workers = pool.workers.as_ref().unwrap();
        assert_eq!(
            workers.threads(),
            service_threads(16),
            "DiskPool::new follows the rule"
        );
        assert!((1..=16).contains(&workers.threads()));
    }

    #[test]
    fn disk_d_is_served_by_thread_d_mod_p() {
        let sized = (0..5)
            .map(|d| Box::new(MemDisk::<u64>::new(2, d + 1)) as Box<dyn DiskUnit<u64>>)
            .collect();
        let mut workers = Workers::spawn("pdm-test", sized, 2);
        assert_eq!(workers.threads(), 2);
        let inboxes = workers.inboxes();
        for d in 0..5 {
            for e in 0..5 {
                let shared = Arc::ptr_eq(&inboxes[d].0, &inboxes[e].0);
                assert_eq!(shared, d % 2 == e % 2, "disks {d} and {e}");
            }
        }
        // Each thread is stopped once and the units come home in disk
        // order (disk d's unit has d + 1 slots).
        let back = workers.stop().expect("no unit panicked");
        let slots: Vec<usize> = back.iter().map(|u| u.slots()).collect();
        assert_eq!(slots, [1, 2, 3, 4, 5]);
        assert!(
            workers.stop().unwrap().is_empty(),
            "stopping twice is a no-op"
        );
        // Never more threads than disks.
        assert_eq!(Workers::spawn("pdm-test", units(2, 4, 3), 8).threads(), 3);
    }

    #[test]
    fn pool_round_trip_and_unit_recovery() {
        for (threads, mut pool) in pools_of_four(2, 4) {
            assert_eq!(pool.disks(), 4);
            // Write a distinct block to each disk, all in flight at once.
            let q = CompletionQueue::new();
            for d in 0..4usize {
                let data = vec![d as u64 * 10, d as u64 * 10 + 1];
                pool.submit(d, write(d, data, d, &q));
            }
            for _ in 0..4 {
                q.recv().result.unwrap();
            }
            // Read them back concurrently.
            for d in 0..4usize {
                pool.submit(d, read(d, 2, d, &q));
            }
            let mut got = vec![Vec::new(); 4];
            for _ in 0..4 {
                let c = q.recv();
                c.result.unwrap();
                assert_eq!(c.idx, c.disk);
                got[c.idx] = c.buf;
            }
            for (d, blk) in got.iter().enumerate() {
                assert_eq!(blk, &vec![d as u64 * 10, d as u64 * 10 + 1]);
            }
            // Workers hand every unit back intact, in disk order.
            let mut recovered = pool.into_units();
            for (d, unit) in recovered.iter_mut().enumerate() {
                let mut out = [0u64; 2];
                unit.read(d, &mut out).unwrap();
                assert_eq!(out, [d as u64 * 10, d as u64 * 10 + 1], "P={threads}");
            }
        }
    }

    #[test]
    fn a_run_is_held_until_its_last_command() {
        let mut t = InProcTransport::new(0, units(2, 8, 1).pop().unwrap());
        let q = CompletionQueue::new();
        let mut cmds = run(vec![
            write(5, vec![50, 51], 0, &q),
            write(1, vec![10, 11], 1, &q),
            write(3, vec![30, 31], 2, &q),
        ]);
        let last = cmds.pop().unwrap();
        for cmd in cmds {
            t.submit(cmd);
        }
        assert_eq!(t.held.len(), 2, "an open run stays with the transport");
        t.submit(last);
        assert!(t.held.is_empty(), "its last command releases the run");
        for idx in 0..3 {
            let c = q.recv();
            c.result.unwrap();
            assert_eq!((c.idx, c.disk), (idx, 0), "a run completes in order");
        }
        // A read run lands each block in its own buffer, in order.
        for cmd in run(vec![
            read(3, 2, 0, &q),
            read(5, 2, 1, &q),
            read(1, 2, 2, &q),
        ]) {
            t.submit(cmd);
        }
        let got: Vec<Vec<u64>> = (0..3).map(|_| q.recv().buf).collect();
        assert_eq!(got, [vec![30, 31], vec![50, 51], vec![10, 11]]);
        assert!(q.try_recv().is_none(), "one completion per command");

        // Two disks of one thread: disks 0 and 2 share thread 0.
        for p in [2, 1] {
            let mut pool = DiskPool::with_workers(units(2, 8, 4), p);
            let mut zero = run(vec![
                write(5, vec![50, 51], 0, &q),
                write(1, vec![10, 11], 1, &q),
                write(3, vec![30, 31], 2, &q),
            ]);
            let last = zero.pop().unwrap();
            for cmd in zero {
                pool.submit(0, cmd);
            }
            // Disk 2's run completes, in order, while disk 0's is held:
            // its read sees its write.
            for cmd in run(vec![write(5, vec![52, 53], 3, &q), read(5, 2, 4, &q)]) {
                pool.submit(2, cmd);
            }
            for idx in [3, 4] {
                let c = q.recv();
                c.result.unwrap();
                assert_eq!((c.idx, c.disk), (idx, 2), "P={p}");
            }
            assert!(q.try_recv().is_none(), "disk 0's open run is held");
            pool.submit(0, last);
            for idx in 0..3 {
                let c = q.recv();
                c.result.unwrap();
                assert_eq!((c.idx, c.disk), (idx, 0), "P={p}: a run completes in order");
            }
            for cmd in run(vec![read(3, 2, 0, &q), read(5, 2, 1, &q)]) {
                pool.submit(0, cmd);
            }
            pool.submit(2, read(5, 2, 2, &q));
            let mut got: Vec<(usize, usize, Vec<u64>)> = (0..3)
                .map(|_| q.recv())
                .map(|c| (c.disk, c.idx, c.buf))
                .collect();
            got.sort();
            assert_eq!(
                got,
                [
                    (0, 0, vec![30, 31]),
                    (0, 1, vec![50, 51]),
                    (2, 2, vec![52, 53])
                ],
                "P={p}: each disk keeps its own blocks"
            );
            assert!(q.try_recv().is_none(), "one completion per command");
        }
    }

    #[test]
    fn a_run_completes_together_at_its_end() {
        let (tx, served) = std::sync::mpsc::channel();
        let reporting = |d| {
            (
                d,
                Box::new(Reporting(MemDisk::new(2, 8), d, tx.clone())) as _,
            )
        };
        let (inbox, worker) = spawn_thread("pdm-test".into(), vec![reporting(0)]);
        let q = CompletionQueue::new();
        let mut cmds = run(vec![
            write(5, vec![50, 51], 0, &q),
            write(1, vec![10, 11], 1, &q),
            write(3, vec![30, 31], 2, &q),
        ]);
        let mut last = cmds.split_off(2);
        assert!(inbox.send(0, &mut cmds));
        // The worker has served the first command once it starts the
        // second: an eager worker would have answered it.
        assert_eq!(
            (served.recv().unwrap(), served.recv().unwrap()),
            ((0, 5), (0, 1))
        );
        assert!(q.try_recv().is_none(), "an open run answers at its end");
        assert!(inbox.send(0, &mut last));
        for idx in 0..3 {
            assert_eq!(q.recv().idx, idx);
        }
        assert_eq!(served.recv().unwrap(), (0, 3));
        assert!(inbox.send(0, &mut vec![Cmd::Stop]));
        worker.join().unwrap();

        // One thread serving disks 0 and 2, their runs interleaved on
        // one completion queue: each run still answers at its own end.
        let (inbox, worker) = spawn_thread("pdm-test".into(), vec![reporting(0), reporting(2)]);
        let mut zero = run(vec![
            write(5, vec![50, 51], 0, &q),
            write(1, vec![10, 11], 1, &q),
            write(3, vec![30, 31], 2, &q),
        ]);
        let mut zero_last = zero.split_off(2);
        let mut two = run(vec![
            write(7, vec![70, 71], 3, &q),
            write(6, vec![60, 61], 4, &q),
        ]);
        let mut two_last = two.split_off(1);
        assert!(inbox.send(0, &mut zero));
        assert_eq!(
            (served.recv().unwrap(), served.recv().unwrap()),
            ((0, 5), (0, 1))
        );
        assert!(inbox.send(2, &mut two));
        assert_eq!(served.recv().unwrap(), (2, 7));
        assert!(q.try_recv().is_none(), "both runs are open");
        assert!(inbox.send(0, &mut zero_last));
        for idx in 0..3 {
            let c = q.recv();
            assert_eq!((c.disk, c.idx), (0, idx));
        }
        assert!(q.try_recv().is_none(), "disk 2's run is still open");
        assert!(inbox.send(2, &mut two_last));
        for idx in [3, 4] {
            let c = q.recv();
            assert_eq!((c.disk, c.idx), (2, idx));
        }
        assert!(inbox.send(0, &mut vec![Cmd::Stop]));
        let blocks: Vec<_> = (worker.join().unwrap().iter_mut())
            .map(|(_, u)| {
                let mut out = [0u64; 2];
                u.read(1, &mut out).unwrap();
                out
            })
            .collect();
        assert_eq!(
            blocks,
            [[10, 11], [0, 0]],
            "each write landed on its own disk"
        );
    }

    #[test]
    fn a_bad_slot_fails_only_its_own_command() {
        let mut pool = DiskPool::new(units(2, 4, 1));
        let q = CompletionQueue::new();
        let cmds = run(vec![
            write(2, vec![1, 2], 0, &q),
            write(9, vec![3, 4], 1, &q),
            write(3, vec![5, 6], 2, &q),
        ]);
        for cmd in cmds {
            pool.submit(0, cmd);
        }
        for idx in 0..3 {
            let c = q.recv();
            assert_eq!(c.idx, idx);
            assert_eq!(c.buf.len(), 2, "the buffer comes home, error or not");
            if idx == 1 {
                assert!(
                    matches!(c.result, Err(PdmError::OutOfRange { slot: 9, .. })),
                    "{:?}",
                    c.result
                );
            } else {
                c.result.unwrap();
            }
        }
        pool.submit(0, read(3, 2, 0, &q));
        assert_eq!(q.recv().buf, vec![5, 6], "the run went on past the error");
    }

    #[test]
    fn pool_propagates_unit_errors_with_buffer() {
        let mut pool = DiskPool::new(units(2, 2, 1));
        let q = CompletionQueue::new();
        pool.submit(0, read(9, 2, 0, &q)); // out of range
        let c = q.recv();
        assert!(c.result.is_err());
        assert_eq!(c.buf.len(), 2, "buffer must come back even on error");
    }

    #[test]
    fn a_panicking_worker_closes_its_inbox() {
        let (unit, _, go) = broken();
        drop(go); // panic at once
        let (inbox, worker) = spawn_thread("pdm-test".into(), vec![(0, Box::new(unit) as _)]);
        let q = CompletionQueue::new();
        assert!(inbox.send(0, &mut vec![read(0, 2, 0, &q)]));
        assert!(worker.join().is_err(), "the unit panicked");
        assert!(!inbox.send(0, &mut vec![read(1, 2, 1, &q)]));
        let c = q.recv();
        assert_eq!(c.idx, 0, "the command the unit panicked on is answered");
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 0 })));
        let c = q.recv();
        assert_eq!(c.idx, 1, "the later command is answered");
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 0 })));

        // Disk 0 panics on a thread it shares with disk 2 (and, on one
        // thread, with every disk): every queued and later command of
        // the thread's disks is answered for its own disk.
        for p in [2, 1] {
            let (unit, entered, go) = broken();
            let mut units = units(2, 4, 4);
            units[0] = Box::new(unit);
            let mut pool = DiskPool::with_workers(units, p);
            pool.submit(0, read(0, 2, 0, &q));
            entered.recv().unwrap();
            // Queued behind the transfer in progress.
            pool.submit(2, write(1, vec![7, 8], 1, &q));
            go.send(()).unwrap();
            for (disk, idx) in [(0, 0), (2, 1)] {
                let c = q.recv();
                assert_eq!((c.disk, c.idx, c.buf.len()), (disk, idx, 2), "P={p}");
                assert!(matches!(c.result, Err(PdmError::Disconnected { disk: d }) if d == disk));
            }
            for disk in [0, 2] {
                pool.submit(disk, read(0, 2, 2, &q));
                let c = q.recv();
                assert!(matches!(c.result, Err(PdmError::Disconnected { disk: d }) if d == disk));
                assert!(
                    pool.respawn(disk).is_err(),
                    "a dead thread cannot be revived"
                );
            }
            // Disk 1 lives on the other thread, or died with the only one.
            pool.submit(1, read(0, 2, 3, &q));
            let c = q.recv();
            assert_eq!(c.result.is_ok(), p == 2, "P={p}: {:?}", c.result);
            assert!(q.try_recv().is_none(), "one completion per command");
            drop(pool); // joins the threads, the dead one included
        }
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = DiskPool::new(units(2, 2, 3));
        drop(pool); // must not hang or leak threads
        drop(DiskPool::with_workers(units(2, 2, 3), 1));
    }

    #[test]
    fn inproc_transport_reports_zero_messages() {
        let mut pool = DiskPool::new(units(2, 2, 2));
        let q = CompletionQueue::new();
        pool.submit(0, write(1, vec![7, 8], 0, &q));
        q.recv().result.unwrap();
        assert!(pool.message_stats().is_zero());
        assert!(pool.message_stats_per_disk().iter().all(MsgStats::is_zero));
        assert_eq!(pool.take_sim_ms(), 0.0);
    }

    #[test]
    fn injected_disconnect_answers_with_buffer_and_stays_dead() {
        let mut pool = DiskPool::new(units(2, 4, 2));
        pool.inject_disconnect(1);
        let q = CompletionQueue::new();
        for _ in 0..2 {
            pool.submit(1, read(0, 2, 3, &q));
            let c = q.recv();
            assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 1 })));
            assert_eq!(c.buf.len(), 2, "buffer must come back on disconnect");
            assert_eq!(c.idx, 3);
        }
        // The other disk is unaffected.
        pool.submit(0, read(0, 2, 0, &q));
        q.recv().result.unwrap();
        // So is a disk that shares the severed disk's thread.
        for p in [2, 1] {
            let mut pool = DiskPool::with_workers(units(2, 4, 4), p);
            pool.inject_disconnect(2);
            for _ in 0..2 {
                pool.submit(2, read(0, 2, 3, &q));
                let c = q.recv();
                assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 2 })));
                assert_eq!((c.idx, c.buf.len()), (3, 2));
            }
            for cmd in run(vec![write(0, vec![1, 2], 0, &q), read(0, 2, 1, &q)]) {
                pool.submit(0, cmd);
            }
            q.recv().result.unwrap();
            assert_eq!(q.recv().buf, [1, 2], "P={p}: disk 0 serves on");
        }
    }

    #[test]
    fn respawn_revives_a_severed_inproc_link_with_data_intact() {
        for (threads, mut pool) in pools_of_four(2, 4) {
            let q = CompletionQueue::new();
            pool.submit(2, write(0, vec![41, 42], 0, &q));
            pool.submit(0, write(0, vec![1, 2], 1, &q));
            q.recv().result.unwrap();
            q.recv().result.unwrap();
            // Healthy link: nothing to revive.
            assert!(!pool.respawn(2).unwrap());
            pool.inject_disconnect(2);
            pool.submit(2, read(0, 2, 0, &q));
            let c = q.recv();
            assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 2 })));
            // Disk 0, on the same thread when P < 4, serves on.
            pool.submit(0, read(0, 2, 1, &q));
            assert_eq!(q.recv().buf, [1, 2], "P={threads}");
            // Revive and re-read: the unit (and its data) survived.
            assert!(pool.respawn(2).unwrap());
            pool.submit(2, read(0, 2, 0, &q));
            let c = q.recv();
            c.result.unwrap();
            assert_eq!(c.buf, vec![41, 42], "P={threads}");
        }
    }
}
