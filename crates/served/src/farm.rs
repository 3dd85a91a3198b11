//! The shared disk array behind the service: a few service threads
//! over the physical disks, many tenant [`DiskSystem`]s.
//!
//! A [`DiskFarm`] owns `D` memory-backed disks served by
//! [`pdm::parallel::service_threads`]`(D)` = `min(D,
//! available_parallelism)` threads ([`pdm::parallel::Workers`], the same
//! service threads as [`pdm::parallel::DiskPool::new`]'s, disk `d` on
//! thread `d mod P`) — except that *many* clients feed each disk. Each
//! admitted job leases a contiguous range of block slots on every disk
//! ([`DiskFarm::lease_system`]) and gets its own
//! [`DiskSystem`] whose per-disk `FarmTransport`s translate the
//! job's slot addresses into the leased range and feed the shared
//! threads. The disks are therefore physically contended — commands
//! from all tenants interleave in each thread's queue — while
//! validation, buffer pools, and [`pdm::IoStats`] accounting stay
//! per-job, and the fair-share governor
//! ([`pdm::system::DiskSystem::set_governor`]) decides whose command
//! is *submitted* next.

use pdm::backend::{DiskUnit, MemDisk};
use pdm::parallel::{fail_disconnected, service_threads, Cmd, Inbox, Workers};
use pdm::record::{ByteRecord, Record};
use pdm::{DiskSystem, Geometry, MsgStats, PdmError, RemoteDisk, RespawnSpec, Result, Transport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What backs the farm's disks.
#[derive(Clone, Debug, PartialEq)]
pub enum FarmBackend {
    /// In-process memory disks: fast, but a disk that dies is gone —
    /// an injected disconnect fails the tenant's operation.
    Mem,
    /// One `pdm-diskd` process per disk over Unix sockets, file-backed
    /// so a crashed worker can be respawned with its data intact. An
    /// injected disconnect *kills the real process*; the farm recovers
    /// it transparently, bounded by `max_respawns` per disk.
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

/// The shared disk array: `D` disks of `slots` blocks on
/// `min(D, available_parallelism)` service threads (one thread per
/// disk over `pdm-diskd` workers), serving commands from every
/// tenant's `FarmTransport`s.
#[derive(Debug)]
pub struct DiskFarm<R: Record> {
    block: usize,
    slots: usize,
    /// The service threads. Dropping them stops them; a lease that
    /// outlived the farm (the service core drops every leased system
    /// first) would see its commands answered with `Disconnected`.
    /// Declared before `_dir`, which must outlive the UDS workers.
    workers: Workers<R>,
    alloc: Arc<Mutex<SlotAllocator>>,
    /// Per-disk crash-injection flags (UDS backend only; empty for
    /// memory disks). Arming a flag makes the disk's [`RemoteDisk`]
    /// kill its worker process at the next operation.
    kills: Vec<Arc<AtomicBool>>,
    /// Successful worker respawns across all disks.
    respawns: Arc<AtomicU64>,
    /// Holds the UDS backend's sockets and backing files.
    _dir: Option<pdm::TempDir>,
}

impl<R: Record> DiskFarm<R> {
    /// Serves `disks` memory-backed disks of `slots` blocks of `block`
    /// records on [`service_threads`]`(disks)` threads.
    pub fn new(block: usize, disks: usize, slots: usize) -> Self {
        let units = mem_units(block, disks, slots);
        let threads = service_threads(disks);
        Self::from_units(
            block,
            slots,
            units,
            threads,
            Vec::new(),
            Arc::default(),
            None,
        )
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
        Self::from_units(
            block,
            slots,
            units,
            threads,
            Vec::new(),
            Arc::default(),
            None,
        )
    }

    /// Serves the units on `threads` service threads.
    fn from_units(
        block: usize,
        slots: usize,
        units: Vec<Box<dyn DiskUnit<R>>>,
        threads: usize,
        kills: Vec<Arc<AtomicBool>>,
        respawns: Arc<AtomicU64>,
        dir: Option<pdm::TempDir>,
    ) -> Self {
        DiskFarm {
            block,
            slots,
            workers: Workers::spawn("pdm-farm", units, threads),
            alloc: Arc::new(Mutex::new(SlotAllocator::new(slots))),
            kills,
            respawns,
            _dir: dir,
        }
    }

    /// Records per block on every farm disk.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Successful worker respawns across all disks (always zero for
    /// the memory backend).
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Number of disks.
    pub fn disks(&self) -> usize {
        self.workers.inboxes().len()
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
    /// farm lacks capacity. Drop the system before the [`Lease`].
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
        let transports: Vec<Box<dyn Transport<R>>> = (self.workers.inboxes().iter())
            .enumerate()
            .map(|(d, inbox)| {
                Box::new(FarmTransport {
                    disk: d,
                    base,
                    inbox: inbox.clone(),
                    held: Vec::new(),
                    dead: false,
                    kill: self.kills.get(d).cloned(),
                }) as Box<dyn Transport<R>>
            })
            .collect();
        Ok((
            DiskSystem::new_from_transports(geom, portions, transports),
            lease,
        ))
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

    /// Spawns `disks` file-backed `pdm-diskd` worker processes (one
    /// per disk, sockets and backing files in a fresh temp
    /// directory) and a farm service thread per process holding the
    /// blocking [`RemoteDisk`] client: every transfer is a blocking
    /// socket round trip, so two disks on one thread would serialize.
    /// Each disk carries a crash-injection kill flag and shares the
    /// farm's respawn ledger; a killed worker is relaunched with
    /// `--reopen`, so its store survives, up to `max_respawns` times
    /// per disk.
    pub fn new_uds(
        block: usize,
        disks: usize,
        slots: usize,
        bin: PathBuf,
        max_respawns: u32,
    ) -> Result<Self> {
        let dir = pdm::TempDir::new("pdm-farm");
        let respawns: Arc<AtomicU64> = Arc::default();
        let mut kills = Vec::with_capacity(disks);
        let mut units: Vec<Box<dyn DiskUnit<R>>> = Vec::with_capacity(disks);
        for d in 0..disks {
            let spec = RespawnSpec {
                bin: bin.clone(),
                socket: dir.path().join(format!("farm{d:03}.sock")),
                block,
                slots,
                file: Some(dir.path().join(format!("farm{d:03}.bin"))),
            };
            let kill = Arc::new(AtomicBool::new(false));
            let unit = RemoteDisk::<R>::launch(
                spec,
                max_respawns,
                Arc::clone(&kill),
                Arc::clone(&respawns),
            )?;
            kills.push(kill);
            units.push(Box::new(unit));
        }
        Ok(Self::from_units(
            block,
            slots,
            units,
            disks,
            kills,
            respawns,
            Some(dir),
        ))
    }
}

/// `disks` memory disks of `slots` blocks of `block` records.
fn mem_units<R: Record>(block: usize, disks: usize, slots: usize) -> Vec<Box<dyn DiskUnit<R>>> {
    (0..disks)
        .map(|_| Box::new(MemDisk::new(block, slots)) as Box<dyn DiskUnit<R>>)
        .collect()
}

/// One disk's transport for one tenant: forwards commands to the
/// shared worker with their slots translated into the job's leased
/// range, a whole run at a time ([`Cmd::more`]), as the in-process
/// transport does. Message counters stay zero (commands cross by
/// reference); a severed transport answers everything with
/// [`PdmError::Disconnected`], buffer attached, per the [`Transport`]
/// contract.
struct FarmTransport<R: Record> {
    disk: usize,
    base: usize,
    inbox: Inbox<R>,
    /// The commands of the run being submitted.
    held: Vec<Cmd<R>>,
    dead: bool,
    /// UDS backend only: the disk's crash-injection flag. An injected
    /// disconnect arms it — killing the real worker process at its
    /// next operation — instead of severing this tenant's link, so
    /// the farm's respawn path gets to prove itself.
    kill: Option<Arc<AtomicBool>>,
}

impl<R: Record> Transport<R> for FarmTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, mut cmd: Cmd<R>) {
        match &mut cmd {
            Cmd::Read { slot, .. } | Cmd::Write { slot, .. } => *slot += self.base,
            // The shared worker outlives this tenant; swallow stops.
            Cmd::Stop => return,
        }
        let last = !cmd.more();
        self.held.push(cmd);
        if !last {
            return;
        }
        if self.dead {
            for cmd in self.held.drain(..) {
                fail_disconnected(cmd, self.disk);
            }
        } else if !self.inbox.send(self.disk, &mut self.held) {
            self.dead = true;
        }
    }

    fn message_stats(&self) -> MsgStats {
        MsgStats::default()
    }

    fn inject_disconnect(&mut self) {
        match &self.kill {
            // Crash the real worker; the farm respawns it in place and
            // the tenant's operation completes against the revived
            // disk (bounded by the farm's respawn budget).
            Some(kill) => kill.store(true, Ordering::Relaxed),
            // Memory disks die with their link: fail fast.
            None => self.dead = true,
        }
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let threads = farm.workers.threads();
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
                assert!(farm.workers.inboxes()[disk].send(disk, &mut reads));
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
        let Some(bin) = pdm::transport::find_diskd() else {
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
}
