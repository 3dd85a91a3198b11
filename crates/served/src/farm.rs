//! The shared disk array behind the service: `D` physical disks, many
//! tenant [`DiskSystem`]s.
//!
//! Each admitted job leases a contiguous range of block slots on every
//! disk of a [`DiskFarm`] ([`DiskFarm::lease_system`]) and gets its own
//! [`DiskSystem`], whose per-disk `FarmTransport`s translate the job's
//! slot addresses into the leased range and hand each run of commands
//! to the disk's one shared link. The disks are therefore physically
//! contended — commands from all tenants interleave on each link —
//! while validation, buffer pools, and [`pdm::IoStats`] accounting stay
//! per-job, and the fair-share governor
//! ([`pdm::system::DiskSystem::set_governor`]) decides whose command is
//! *submitted* next. A memory disk's link is its service thread's
//! [`Inbox`]: [`pdm::parallel::service_threads`]`(D)` = `min(D,
//! available_parallelism)` threads serve the memory farm, disk `d` on
//! thread `d mod P` ([`pdm::parallel::Workers`]). A `pdm-diskd` disk's
//! link is its worker's [`UdsTransport`] behind a per-disk lock, the
//! pipelined client of a direct [`pdm::TransportConfig::Uds`] system
//! with its writer and reader thread; the UDS farm has no threads of
//! its own. A leased system's [`DiskSystem::message_stats`] reads zero
//! on both: memory commands cross by reference, and the frames on a
//! shared socket belong to no single tenant.
//!
//! [`UdsTransport`]: pdm::transport::UdsTransport

use pdm::backend::{DiskUnit, MemDisk};
use pdm::parallel::{fail_disconnected, service_threads, Cmd, Inbox, Workers};
use pdm::record::{ByteRecord, Record};
use pdm::transport::spawn_uds_workers;
use pdm::{Backend, DiskSystem, Geometry, PdmError, Result, RetryPolicy, Transport, UdsConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// What backs the farm's disks.
#[derive(Clone, Debug, PartialEq)]
pub enum FarmBackend {
    /// In-process memory disks: fast, but a disk that dies is gone —
    /// an injected disconnect fails the tenant's operation.
    Mem,
    /// One `pdm-diskd` process per disk over Unix sockets, file-backed
    /// so a crashed worker can be respawned with its data intact. An
    /// injected disconnect *kills the real process*; the tenants' retry
    /// layer relaunches it, at most `max_respawns` times per disk.
    Uds {
        /// Path to the `pdm-diskd` binary.
        bin: PathBuf,
        /// Respawn budget per disk over the farm's lifetime.
        max_respawns: u32,
    },
}

/// First-fit allocator over one disk's block slots (every disk is
/// sliced identically, so one allocator covers the whole array).
#[derive(Debug)]
struct SlotAllocator {
    /// Free ranges `(base, len)`, sorted by base, coalesced.
    free: Vec<(usize, usize)>,
}

impl SlotAllocator {
    fn new(slots: usize) -> Self {
        SlotAllocator {
            free: vec![(0, slots)],
        }
    }

    fn alloc(&mut self, len: usize) -> Option<usize> {
        let i = self.free.iter().position(|&(_, l)| l >= len)?;
        let (base, l) = self.free[i];
        if l == len {
            self.free.remove(i);
        } else {
            self.free[i] = (base + len, l - len);
        }
        Some(base)
    }

    fn release(&mut self, base: usize, len: usize) {
        let at = self
            .free
            .iter()
            .position(|&(b, _)| b > base)
            .unwrap_or(self.free.len());
        self.free.insert(at, (base, len));
        // Coalesce neighbours.
        let mut i = at.saturating_sub(1);
        while i + 1 < self.free.len() {
            let (b0, l0) = self.free[i];
            let (b1, l1) = self.free[i + 1];
            if b0 + l0 == b1 {
                self.free[i] = (b0, l0 + l1);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn free_slots(&self) -> usize {
        self.free.iter().map(|&(_, l)| l).sum()
    }
}

/// A leased slot range on every disk of the farm; released back to the
/// allocator on drop. Keep it alive as long as the leased
/// [`DiskSystem`] is in use.
#[derive(Debug)]
pub struct Lease {
    alloc: Arc<Mutex<SlotAllocator>>,
    base: usize,
    len: usize,
}

impl Lease {
    /// First leased slot on each disk.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Leased slots per disk.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lease covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.alloc
            .lock()
            .expect("slot allocator poisoned")
            .release(self.base, self.len);
    }
}

/// The shared disk array: `D` disks of `slots` blocks, each behind one
/// link that every tenant's `FarmTransport` feeds.
pub struct DiskFarm<R: Record> {
    block: usize,
    slots: usize,
    disks: Disks<R>,
    alloc: Arc<Mutex<SlotAllocator>>,
}

/// How a farm's disks are served.
enum Disks<R: Record> {
    /// Memory disks on service threads. Dropping them stops them; a
    /// lease that outlived the farm (the service core drops every leased
    /// system first) would see its commands answered with
    /// `Disconnected`.
    Mem(Workers<R>),
    /// `pdm-diskd` workers, the recovery policy of every leased system,
    /// and the directory of the workers' sockets and files, declared
    /// last so that it outlives them.
    Uds {
        remotes: Vec<Arc<Mutex<Remote<R>>>>,
        retry: RetryPolicy,
        _dir: pdm::TempDir,
    },
}

/// One `pdm-diskd` worker's client, shared by every tenant, and the
/// relaunches it has spent of its budget.
struct Remote<R: Record> {
    transport: Box<dyn Transport<R>>,
    relaunches: u32,
    budget: u32,
}

/// A disk's lock is poisoned only by a panic inside a transport call.
const POISONED: &str = "farm disk lock poisoned";

impl<R: Record> DiskFarm<R> {
    /// Serves `disks` memory-backed disks of `slots` blocks of `block`
    /// records on [`service_threads`]`(disks)` threads.
    pub fn new(block: usize, disks: usize, slots: usize) -> Self {
        let units = mem_units(block, disks, slots);
        let workers = Workers::spawn("pdm-farm", units, service_threads(disks));
        Self::serving(block, slots, Disks::Mem(workers))
    }

    /// A farm over the given units on `threads` service threads: how
    /// tests put a misbehaving disk behind the service, or several
    /// disks on one thread.
    #[cfg(test)]
    pub(crate) fn over_units(
        block: usize,
        slots: usize,
        units: Vec<Box<dyn DiskUnit<R>>>,
        threads: usize,
    ) -> Self {
        let workers = Workers::spawn("pdm-farm", units, threads);
        Self::serving(block, slots, Disks::Mem(workers))
    }

    /// A farm of `slots` blocks per disk over `disks`, nothing leased.
    fn serving(block: usize, slots: usize, disks: Disks<R>) -> Self {
        DiskFarm {
            block,
            slots,
            disks,
            alloc: Arc::new(Mutex::new(SlotAllocator::new(slots))),
        }
    }

    /// Records per block on every farm disk.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Worker relaunches across all disks over the farm's lifetime
    /// (always zero for the memory backend).
    pub fn respawns(&self) -> u64 {
        match &self.disks {
            Disks::Mem(_) => 0,
            Disks::Uds { remotes, .. } => (remotes.iter())
                .map(|r| u64::from(r.lock().expect(POISONED).relaunches))
                .sum(),
        }
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        match &self.disks {
            Disks::Mem(workers) => workers.inboxes().len(),
            Disks::Uds { remotes, .. } => remotes.len(),
        }
    }

    /// Block slots per disk.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Currently unleased slots per disk.
    pub fn free_slots(&self) -> usize {
        self.alloc
            .lock()
            .expect("slot allocator poisoned")
            .free_slots()
    }

    /// Leases a job its own [`DiskSystem`] over the shared disks:
    /// `portions × N/BD` slots per disk, allocated contiguously. The
    /// geometry's block size and disk count must match the farm's;
    /// the lease fails with a typed [`PdmError::Config`] when the
    /// farm lacks capacity. On `pdm-diskd` disks the system may revive
    /// a dead worker ([`Transport::respawn`]) once per relaunch in the
    /// budget; on memory disks it fails fast. Drop the system before
    /// the [`Lease`].
    pub fn lease_system(&self, geom: Geometry, portions: usize) -> Result<(DiskSystem<R>, Lease)> {
        if geom.block() != self.block {
            return Err(PdmError::Config(format!(
                "job block size {} does not match the farm's {}",
                geom.block(),
                self.block
            )));
        }
        if geom.disks() != self.disks() {
            return Err(PdmError::Config(format!(
                "job wants {} disks, the farm has {}",
                geom.disks(),
                self.disks()
            )));
        }
        let need = portions * geom.stripes();
        let base = {
            let mut alloc = self.alloc.lock().expect("slot allocator poisoned");
            alloc.alloc(need).ok_or_else(|| {
                PdmError::Config(format!(
                    "farm capacity exhausted: need {need} slots per disk, {} free of {}",
                    alloc.free_slots(),
                    self.slots
                ))
            })?
        };
        let lease = Lease {
            alloc: Arc::clone(&self.alloc),
            base,
            len: need,
        };
        let transports: Vec<Box<dyn Transport<R>>> = (0..self.disks())
            .map(|disk| {
                let link = match &self.disks {
                    Disks::Mem(workers) => Link::Mem {
                        inbox: workers.inboxes()[disk].clone(),
                        dead: false,
                    },
                    Disks::Uds { remotes, .. } => Link::Uds {
                        leased_at: remotes[disk].lock().expect(POISONED).relaunches,
                        remote: Arc::clone(&remotes[disk]),
                    },
                };
                Box::new(FarmTransport {
                    disk,
                    base,
                    link,
                    held: Vec::new(),
                }) as Box<dyn Transport<R>>
            })
            .collect();
        let mut sys = DiskSystem::new_from_transports(geom, portions, transports);
        if let Disks::Uds { retry, .. } = &self.disks {
            sys.set_retry_policy(*retry);
        }
        Ok((sys, lease))
    }
}

impl<R: Record + ByteRecord> DiskFarm<R> {
    /// Builds a farm over the chosen [`FarmBackend`].
    pub fn with_backend(
        block: usize,
        disks: usize,
        slots: usize,
        backend: &FarmBackend,
    ) -> Result<Self> {
        match backend {
            FarmBackend::Mem => Ok(Self::new(block, disks, slots)),
            FarmBackend::Uds { bin, max_respawns } => {
                Self::new_uds(block, disks, slots, bin.clone(), *max_respawns)
            }
        }
    }

    /// Spawns `disks` file-backed `pdm-diskd` worker processes, their
    /// sockets and backing files in a fresh temp directory, each behind
    /// one [`UdsTransport`] that every tenant shares
    /// ([`spawn_uds_workers`]), so tenants' runs pipeline over the
    /// socket as on a direct UDS system. A crashed worker is relaunched
    /// with `--reopen`, so its store survives, at most `max_respawns`
    /// times per disk over the farm's lifetime.
    ///
    /// [`UdsTransport`]: pdm::transport::UdsTransport
    pub fn new_uds(
        block: usize,
        disks: usize,
        slots: usize,
        bin: PathBuf,
        max_respawns: u32,
    ) -> Result<Self> {
        let tmp = pdm::TempDir::new("pdm-farm");
        let dir = tmp.path().to_path_buf();
        let config = UdsConfig {
            socket_dir: Some(dir.clone()),
            worker_bin: Some(bin),
            retry: RetryPolicy {
                max_attempts: max_respawns.saturating_add(1),
                respawn: true,
                ..RetryPolicy::default()
            },
        };
        let transports = spawn_uds_workers(disks, block, slots, &Backend::File { dir }, &config)?;
        let remotes = (transports.into_iter())
            .map(|transport| {
                Arc::new(Mutex::new(Remote {
                    transport,
                    relaunches: 0,
                    budget: max_respawns,
                }))
            })
            .collect();
        let retry = config.retry;
        let disks = Disks::Uds {
            remotes,
            retry,
            _dir: tmp,
        };
        Ok(Self::serving(block, slots, disks))
    }
}

/// `disks` memory disks of `slots` blocks of `block` records.
fn mem_units<R: Record>(block: usize, disks: usize, slots: usize) -> Vec<Box<dyn DiskUnit<R>>> {
    (0..disks)
        .map(|_| Box::new(MemDisk::new(block, slots)) as Box<dyn DiskUnit<R>>)
        .collect()
}

/// One disk's link, as one tenant holds it: a memory disk's service
/// thread (`dead` once severed for this tenant), or a `pdm-diskd`
/// worker's client with its relaunches when this tenant leased it.
enum Link<R: Record> {
    Mem {
        inbox: Inbox<R>,
        dead: bool,
    },
    Uds {
        remote: Arc<Mutex<Remote<R>>>,
        leased_at: u32,
    },
}

/// One disk's transport for one tenant: translates the job's slots into
/// its leased range and hands each run ([`Cmd::more`]) to the disk's
/// link at once, as the in-process transport does. A severed link
/// answers everything with [`PdmError::Disconnected`], buffer attached,
/// per the [`Transport`] contract.
struct FarmTransport<R: Record> {
    disk: usize,
    base: usize,
    link: Link<R>,
    /// The commands of the run being submitted.
    held: Vec<Cmd<R>>,
}

impl<R: Record> Transport<R> for FarmTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, mut cmd: Cmd<R>) {
        match &mut cmd {
            Cmd::Read { slot, .. } | Cmd::Write { slot, .. } => *slot += self.base,
            // The shared link outlives this tenant; swallow stops.
            Cmd::Stop => return,
        }
        let last = !cmd.more();
        self.held.push(cmd);
        if !last {
            return;
        }
        match &mut self.link {
            Link::Mem { dead: true, .. } => {
                for cmd in self.held.drain(..) {
                    fail_disconnected(cmd, self.disk);
                }
            }
            Link::Mem { inbox, dead } => *dead = !inbox.send(self.disk, &mut self.held),
            Link::Uds { remote, .. } => {
                let mut remote = remote.lock().expect(POISONED);
                for cmd in self.held.drain(..) {
                    remote.transport.submit(cmd);
                }
            }
        }
    }

    fn inject_disconnect(&mut self) {
        match &mut self.link {
            // A memory disk dies with this tenant's link: fail fast.
            Link::Mem { dead, .. } => *dead = true,
            // Kill the real worker, under every tenant: each one with
            // commands in flight revives the link through `respawn`.
            Link::Uds { remote, .. } => {
                remote.lock().expect(POISONED).transport.inject_disconnect();
            }
        }
    }

    /// Revives a `pdm-diskd` link: within the disk's budget the first
    /// tenant to find the worker dead relaunches it (`Ok(true)`) and
    /// the rest find it healthy (`Ok(false)`). Past the budget, a
    /// tenant leased before the last relaunch resends, as its commands
    /// may have died in that crash; any other gets an error, so the
    /// `Disconnected` reaches its caller.
    fn respawn(&mut self) -> Result<bool> {
        let Link::Uds { remote, leased_at } = &self.link else {
            return Err(PdmError::Io(format!(
                "disk {}: a memory disk cannot be respawned",
                self.disk
            )));
        };
        let mut remote = remote.lock().expect(POISONED);
        if remote.relaunches >= remote.budget {
            if *leased_at < remote.relaunches {
                return Ok(false);
            }
            return Err(PdmError::Io(format!(
                "disk {}: worker respawn budget of {} spent",
                self.disk, remote.budget
            )));
        }
        let relaunched = remote.transport.respawn()?;
        remote.relaunches += u32::from(relaunched);
        Ok(relaunched)
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::transport::find_diskd;
    use pdm::{BlockRef, FaultPlan, MsgStats, TransportConfig};
    use rand::{rngs::StdRng, SeedableRng};

    /// A memory farm's service threads.
    fn workers(farm: &DiskFarm<u64>) -> &Workers<u64> {
        match &farm.disks {
            Disks::Mem(workers) => workers,
            Disks::Uds { .. } => panic!("a UDS farm has no service threads"),
        }
    }

    /// The messages and bytes a UDS farm's shared clients have moved,
    /// over every tenant.
    fn link_message_stats(farm: &DiskFarm<u64>) -> MsgStats {
        let Disks::Uds { remotes, .. } = &farm.disks else {
            panic!("a memory farm moves no messages");
        };
        let mut total = MsgStats::default();
        for remote in remotes {
            total.merge(&remote.lock().unwrap().transport.message_stats());
        }
        total
    }

    #[test]
    fn allocator_first_fit_and_coalesce() {
        let mut a = SlotAllocator::new(100);
        let x = a.alloc(30).unwrap();
        let y = a.alloc(30).unwrap();
        let z = a.alloc(30).unwrap();
        assert_eq!((x, y, z), (0, 30, 60));
        assert_eq!(a.free_slots(), 10);
        assert!(a.alloc(20).is_none());
        a.release(y, 30);
        assert_eq!(a.free_slots(), 40);
        // Freed middle range is reused.
        assert_eq!(a.alloc(30).unwrap(), 30);
        a.release(0, 30);
        a.release(30, 30);
        a.release(60, 30);
        assert_eq!(a.free_slots(), 100);
        assert_eq!(a.free.len(), 1, "ranges coalesce: {:?}", a.free);
    }

    #[test]
    fn two_leases_are_disjoint_and_round_trip() {
        let farm: DiskFarm<u64> = DiskFarm::new(2, 4, 64);
        let geom = Geometry::new(64, 2, 4, 32).unwrap();
        let (mut a, _la) = farm.lease_system(geom, 2).unwrap();
        let (mut b, _lb) = farm.lease_system(geom, 2).unwrap();
        assert_eq!(farm.free_slots(), 64 - 2 * 2 * geom.stripes());
        a.load_records(0, &(0..64).collect::<Vec<_>>());
        b.load_records(0, &(1000..1064).collect::<Vec<_>>());
        assert_eq!(a.read_stripe(0).unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(b.read_stripe(0).unwrap(), (1000..1008).collect::<Vec<_>>());
        // Threaded split-phase against the shared workers.
        a.set_threaded(true);
        let t = a.begin_read(&[pdm::BlockRef { disk: 0, slot: 0 }]).unwrap();
        let mut out = vec![0u64; 2];
        a.finish_read(t, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
        assert_eq!(a.buffer_pool_stats().outstanding, 0);
        drop(a);
        drop(b);
        drop(_la);
        drop(_lb);
        assert_eq!(farm.free_slots(), 64);
    }

    /// Two-disk memory farms of `slots` blocks of 2 records: by the
    /// rule, and with both disks on one service thread.
    fn two_disk_farms(slots: usize) -> [DiskFarm<u64>; 2] {
        [
            DiskFarm::new(2, 2, slots),
            DiskFarm::over_units(2, slots, mem_units(2, 2, slots), 1),
        ]
    }

    #[test]
    fn a_run_lands_in_the_leased_slots() {
        for farm in two_disk_farms(64) {
            let threads = workers(&farm).threads();
            // 8 stripes of 4 records; a memoryload is 4 stripes, so bulk
            // placement sends each disk 4-block runs.
            let geom = Geometry::new(32, 2, 2, 16).unwrap();
            let (mut a, _la) = farm.lease_system(geom, 1).unwrap();
            let (mut b, lb) = farm.lease_system(geom, 1).unwrap();
            assert_eq!(
                lb.base,
                geom.stripes(),
                "the second lease starts past the first"
            );
            a.set_threaded(true);
            b.set_threaded(true);
            a.load_records(0, &(0..32).collect::<Vec<_>>());
            b.load_records(0, &(100..132).collect::<Vec<_>>());
            // Each disk of the shared array, read straight from its
            // service thread: block `disk` of every stripe of b, at b's
            // leased slots.
            for disk in 0..2 {
                let done = pdm::parallel::CompletionQueue::new();
                let physical = lb.base..lb.base + geom.stripes();
                let mut reads: Vec<Cmd<u64>> = physical
                    .clone()
                    .map(|slot| Cmd::Read {
                        slot,
                        buf: vec![0; 2],
                        idx: slot,
                        done: done.clone(),
                        more: false,
                    })
                    .collect();
                assert!(workers(&farm).inboxes()[disk].send(disk, &mut reads));
                for (s, slot) in physical.enumerate() {
                    let c = done.recv();
                    c.result.unwrap();
                    assert_eq!((c.idx, c.disk), (slot, disk));
                    let first = 100 + 4 * s as u64 + 2 * disk as u64;
                    assert_eq!(c.buf, [first, first + 1], "{threads} thread(s)");
                }
            }
            // Both tenants read their own records back through runs.
            assert_eq!(a.dump_records(0), (0..32).collect::<Vec<_>>());
            assert_eq!(b.dump_records(0), (100..132).collect::<Vec<_>>());
            assert_eq!(b.buffer_pool_stats().outstanding, 0);
        }
    }

    #[test]
    fn lease_capacity_exhaustion_is_typed() {
        let farm: DiskFarm<u64> = DiskFarm::new(2, 4, 16);
        let geom = Geometry::new(64, 2, 4, 32).unwrap(); // needs 2*8=16
        let (_s, _l) = farm.lease_system(geom, 2).unwrap();
        match farm.lease_system(geom, 2) {
            Err(PdmError::Config(msg)) => assert!(msg.contains("capacity"), "{msg}"),
            Err(other) => panic!("expected capacity error, got {other:?}"),
            Ok(_) => panic!("expected capacity error, got a lease"),
        }
    }

    #[test]
    fn geometry_mismatch_is_refused() {
        let farm: DiskFarm<u64> = DiskFarm::new(2, 4, 64);
        let wrong_block = Geometry::new(64, 4, 4, 32).unwrap();
        assert!(matches!(
            farm.lease_system(wrong_block, 2),
            Err(PdmError::Config(_))
        ));
        let wrong_disks = Geometry::new(64, 2, 8, 32).unwrap();
        assert!(matches!(
            farm.lease_system(wrong_disks, 2),
            Err(PdmError::Config(_))
        ));
    }

    #[test]
    fn uds_farm_recovers_injected_crash_with_respawn() {
        let Some(bin) = find_diskd() else {
            eprintln!("pdm-diskd not built; skipping UDS farm test");
            return;
        };
        let farm: DiskFarm<u64> = DiskFarm::new_uds(2, 2, 32, bin, 2).unwrap();
        assert_eq!(farm.respawns(), 0);
        let geom = Geometry::new(32, 2, 2, 16).unwrap();
        let (mut a, _la) = farm.lease_system(geom, 2).unwrap();
        a.load_records(0, &(0..32).collect::<Vec<_>>());
        // The same injection that fail-fasts a memory farm crashes and
        // transparently revives a real worker process here.
        a.set_faults(pdm::FaultPlan::new().disconnect_at(1, 0));
        a.set_threaded(true);
        for s in 0..geom.stripes() {
            let stripe = a.read_stripe(s).unwrap();
            assert_eq!(stripe[0], (s * geom.block() * geom.disks()) as u64);
        }
        assert_eq!(a.buffer_pool_stats().outstanding, 0);
        assert_eq!(farm.respawns(), 1, "one crash, one respawn");
    }

    #[test]
    fn disconnected_tenant_leaves_the_worker_alive() {
        for farm in two_disk_farms(32) {
            let geom = Geometry::new(32, 2, 2, 16).unwrap();
            let (mut a, _la) = farm.lease_system(geom, 2).unwrap();
            let (mut b, _lb) = farm.lease_system(geom, 2).unwrap();
            a.load_records(0, &(0..32).collect::<Vec<_>>());
            b.load_records(0, &(0..32).collect::<Vec<_>>());
            // Sever tenant a's disk 0 via the fault plan.
            a.set_faults(pdm::FaultPlan::new().disconnect_at(0, 0));
            a.set_threaded(true);
            let err = a.read_stripe(0);
            assert!(err.is_err(), "severed link must surface");
            assert_eq!(a.buffer_pool_stats().outstanding, 0, "pool hygiene");
            // Tenant b is unaffected, on both disks, however they share
            // service threads.
            assert_eq!(b.read_stripe(0).unwrap(), [0, 1, 2, 3]);
            b.set_threaded(true);
            assert_eq!(b.dump_records(0), (0..32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uds_farm_respawn_budget_spans_leases() {
        let Some(bin) = find_diskd() else {
            eprintln!("pdm-diskd not built; skipping UDS farm test");
            return;
        };
        let farm: DiskFarm<u64> = DiskFarm::new_uds(2, 2, 16, bin, 2).unwrap();
        let geom = Geometry::new(32, 2, 2, 16).unwrap();
        // Each lease crashes disk 0 at its first read. The first two
        // leases spend the budget, and each relaunched worker reopens
        // its store, so the records loaded before the crash read back.
        for lease in 1..=2 {
            let (mut sys, _lease) = farm.lease_system(geom, 1).unwrap();
            let records: Vec<u64> = (0..32).map(|r| 1000 * lease + r).collect();
            sys.load_records(0, &records);
            sys.set_faults(FaultPlan::new().disconnect_at(0, 0));
            for s in 0..geom.stripes() {
                assert_eq!(sys.read_stripe(s).unwrap(), records[4 * s..4 * s + 4]);
            }
            assert_eq!(sys.retry_stats().respawns, 1);
            assert_eq!(farm.respawns(), lease);
        }
        // The third crash finds the budget spent and reaches the caller.
        let (mut sys, _lease) = farm.lease_system(geom, 1).unwrap();
        sys.set_faults(FaultPlan::new().disconnect_at(0, 0));
        let err = sys.read_stripe(0).unwrap_err();
        assert!(matches!(err, PdmError::Disconnected { disk: 0 }), "{err}");
        assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        assert_eq!(farm.respawns(), 2);
    }

    #[test]
    fn one_crash_two_tenants_one_ledger() {
        let Some(bin) = find_diskd() else {
            eprintln!("pdm-diskd not built; skipping UDS farm test");
            return;
        };
        // A budget of one: the crash spends it, and the tenant that did
        // not relaunch the worker must still recover.
        let farm: DiskFarm<u64> = DiskFarm::new_uds(2, 2, 32, bin, 1).unwrap();
        let geom = Geometry::new(32, 2, 2, 16).unwrap();
        let (mut a, _la) = farm.lease_system(geom, 1).unwrap();
        let (mut b, _lb) = farm.lease_system(geom, 1).unwrap();
        a.load_records(0, &(0..32).collect::<Vec<_>>());
        b.load_records(0, &(100..132).collect::<Vec<_>>());
        a.set_threaded(true);
        b.set_threaded(true);
        let stripe = |slot| [0, 1].map(|disk| BlockRef { disk, slot });
        // b has a run in flight when a's first read crashes disk 1 and
        // sends a's run to the dead worker.
        let b0 = b.begin_read(&stripe(0)).unwrap();
        a.set_faults(FaultPlan::new().disconnect_at(0, 1));
        let a0 = a.begin_read(&stripe(0)).unwrap();
        // b's next transfer, an uncounted dump, finds the worker dead and
        // relaunches it; the runs that died in the crash resend to it.
        assert_eq!(b.dump_records(0), (100..132).collect::<Vec<_>>());
        let mut out = [0u64; 4];
        b.finish_read(b0, &mut out).unwrap();
        assert_eq!(out, [100, 101, 102, 103]);
        a.finish_read(a0, &mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(farm.respawns(), 1, "one crash, one relaunch");
        let (ra, rb) = (a.retry_stats(), b.retry_stats());
        assert_eq!((ra.respawns, rb.respawns), (0, 1));
        assert_eq!(a.dump_records(0), (0..32).collect::<Vec<_>>());
        for sys in [&a, &b] {
            assert_eq!(sys.buffer_pool_stats().outstanding, 0);
        }
    }

    #[test]
    fn a_farm_tenant_matches_a_direct_uds_system() {
        let Some(bin) = find_diskd() else {
            eprintln!("pdm-diskd not built; skipping UDS farm test");
            return;
        };
        let geom = Geometry::new(1 << 10, 4, 4, 1 << 6).unwrap();
        let perm = bmmc::catalog::random_bmmc(&mut StdRng::seed_from_u64(7), geom.n());
        let records: Vec<u64> = (0..geom.records() as u64).collect();
        // Both systems run in lockstep, so the crash finds nothing in
        // flight and every block crosses the wire exactly once.
        let run = |sys: &mut DiskSystem<u64>| {
            sys.load_records(0, &records);
            sys.set_faults(FaultPlan::new().disconnect_at(2, 1));
            let report = bmmc::algorithm::perform_bmmc(sys, &perm).unwrap();
            let placed = sys.dump_records(report.final_portion);
            (placed, sys.stats(), sys.retry_stats())
        };
        let farm: DiskFarm<u64> =
            DiskFarm::new_uds(4, 4, 2 * geom.stripes(), bin.clone(), 2).unwrap();
        let (mut leased, _lease) = farm.lease_system(geom, 2).unwrap();
        let on_farm = run(&mut leased);
        assert_eq!(leased.message_stats(), MsgStats::default());

        let dir = pdm::TempDir::new("pdm-farm-direct");
        let config = UdsConfig {
            worker_bin: Some(bin),
            retry: leased.retry_policy(),
            ..UdsConfig::default()
        };
        let backend = Backend::File {
            dir: dir.path().to_path_buf(),
        };
        let mut direct =
            DiskSystem::new_with_transport(geom, 2, &backend, &TransportConfig::Uds(config))
                .unwrap();
        let alone = run(&mut direct);
        assert_eq!(on_farm.2.respawns, 1, "the crash was recovered");
        assert_eq!(on_farm, alone, "placement, IoStats and RetryStats");
        let messages = direct.message_stats();
        assert_eq!(link_message_stats(&farm), messages);
        // One request and one reply frame per block: loaded, moved by
        // the permutation, or dumped.
        let blocks = 2 * geom.stripes() as u64 * 4 + alone.1.blocks_read + alone.1.blocks_written;
        assert_eq!(
            (messages.messages_sent, messages.messages_received),
            (blocks, blocks)
        );
    }
}
