//! Concurrent servicing of parallel I/O operations.
//!
//! A parallel I/O touches at most one block on each disk; the transfers
//! are independent by construction, so each disk can be serviced by its
//! own worker. The worker is reached through a [`Transport`]: the
//! request/reply protocol ([`Cmd`] / [`Completion`]) is the same
//! whether the worker is a thread in this process, a `pdm-diskd`
//! process behind a Unix-domain socket, or a deterministic simulated
//! network (see [`crate::transport`]).
//!
//! [`DiskPool`] holds one **persistent** worker per disk, fed through
//! transports. Commands carry owned block buffers (recycled by the
//! caller's buffer pool), so an in-process transfer costs one channel
//! round-trip. Because submission and completion are decoupled, a
//! caller can keep an operation in flight while it computes — this is
//! what the [`crate::engine`] pipeline uses to overlap the permute of
//! memoryload *k* with the reads of memoryload *k+1*, and the overlap
//! survives remoteness: over a socket the requests pipeline the same
//! way. [`serve_disk`] is the one worker loop; [`InProcTransport`]'s
//! service thread runs it, and so does the job service's shared disk
//! farm.
//!
//! The [`crate::system::DiskSystem`] drives the pool in one of two
//! disciplines chosen by
//! [`crate::system::DiskSystem::set_service_mode`]: *pipelined*
//! ([`crate::system::ServiceMode::Threaded`]), or *lockstep* — each
//! command's completion collected before the next is sent — which is
//! [`crate::system::ServiceMode::Serial`] on disks behind remote
//! transports. Local disks in serial mode bypass the pool and are
//! serviced in the caller's thread. For [`crate::backend::MemDisk`]
//! the pool's threads are pure overhead, but for
//! [`crate::backend::FileDisk`] they overlap real system calls exactly
//! the way a hardware disk array would.

use crate::backend::DiskUnit;
use crate::error::{PdmError, Result};
use crate::record::Record;
use crate::stats::MsgStats;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

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
        /// Completion channel.
        done: Sender<Completion<R>>,
    },
    /// Write `buf` to block `slot` and reply on `done`.
    Write {
        /// Block slot on this disk.
        slot: usize,
        /// Source buffer, exactly one block long.
        buf: Vec<R>,
        /// Caller's request index, echoed in the completion.
        idx: usize,
        /// Completion channel.
        done: Sender<Completion<R>>,
    },
    /// Shut the worker down (it returns its unit to the joiner).
    Stop,
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
/// command's completion channel. The contract that keeps every caller
/// drain-loop transport-agnostic:
///
/// * **Submission never blocks on the reply** (it may block briefly on
///   a socket write).
/// * **Every command is answered exactly once**, including after the
///   link dies: a transport failure surfaces *through the completion*
///   as [`PdmError::Disconnected`] with the buffer attached, never as
///   a panic or a silently dropped command. Buffer-pool hygiene is
///   therefore identical on every path.
/// * Replies may arrive in any order across disks; per disk they
///   follow submission order.
pub trait Transport<R: Record>: Send {
    /// The disk this transport serves.
    fn disk(&self) -> usize;

    /// Submits a command; the reply arrives on the command's `done`
    /// channel. [`Cmd::Stop`] is a no-op here — shutdown is driven by
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
    match cmd {
        Cmd::Read { buf, idx, done, .. } | Cmd::Write { buf, idx, done, .. } => {
            let _ = done.send(Completion {
                idx,
                disk,
                buf,
                result: Err(PdmError::Disconnected { disk }),
            });
        }
        Cmd::Stop => {}
    }
}

/// The disk worker loop: services the commands arriving on `rx`
/// against `unit` — reads into or writes from the command's buffer,
/// then sends the buffer back on the command's `done` channel — until
/// [`Cmd::Stop`] arrives or every sender is gone.
pub fn serve_disk<R: Record>(disk: usize, unit: &mut dyn DiskUnit<R>, rx: &Receiver<Cmd<R>>) {
    while let Ok(cmd) = rx.recv() {
        let (buf, idx, done, result) = match cmd {
            Cmd::Read {
                slot,
                mut buf,
                idx,
                done,
            } => {
                let result = unit.read(slot, &mut buf);
                (buf, idx, done, result)
            }
            Cmd::Write {
                slot,
                buf,
                idx,
                done,
            } => {
                let result = unit.write(slot, &buf);
                (buf, idx, done, result)
            }
            Cmd::Stop => break,
        };
        let _ = done.send(Completion {
            idx,
            disk,
            buf,
            result,
        });
    }
}

/// The in-process transport: a persistent service thread that owns its
/// [`DiskUnit`] and runs [`serve_disk`] over a channel — buffers cross
/// by ownership transfer, no bytes are serialized, and
/// [`Transport::message_stats`] stays zero. This is the default
/// transport.
pub struct InProcTransport<R: Record> {
    disk: usize,
    tx: Sender<Cmd<R>>,
    join: Option<JoinHandle<Box<dyn DiskUnit<R>>>>,
    dead: bool,
}

impl<R: Record> InProcTransport<R> {
    /// Spawns the service thread for `disk` over `unit`.
    pub fn new(disk: usize, mut unit: Box<dyn DiskUnit<R>>) -> Self {
        let (tx, rx) = channel();
        let join = std::thread::Builder::new()
            .name(format!("pdm-disk-{disk}"))
            .spawn(move || {
                serve_disk(disk, unit.as_mut(), &rx);
                unit
            })
            .expect("failed to spawn disk service thread");
        InProcTransport {
            disk,
            tx,
            join: Some(join),
            dead: false,
        }
    }
}

impl<R: Record> Transport<R> for InProcTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead || self.join.is_none() {
            fail_disconnected(cmd, self.disk);
            return;
        }
        if let Err(send_err) = self.tx.send(cmd) {
            // Service thread gone: answer the command ourselves.
            self.dead = true;
            fail_disconnected(send_err.0, self.disk);
        }
    }

    fn inject_disconnect(&mut self) {
        // The service thread stays alive (its unit must survive a
        // later shutdown); the *link* is what dies.
        self.dead = true;
    }

    fn respawn(&mut self) -> Result<bool> {
        // The severed link is a flag over a still-running service
        // thread whose unit (and data) survived; reviving it is a
        // reconnect, not a relaunch — but it is a real recovery
        // action, so report Ok(true) when the link was dead.
        if self.join.is_none() {
            return Err(PdmError::Io(format!(
                "disk {}: service thread already shut down",
                self.disk
            )));
        }
        Ok(std::mem::take(&mut self.dead))
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        let join = self.join.take()?;
        let _ = self.tx.send(Cmd::Stop);
        Some(join.join().expect("disk service thread panicked"))
    }
}

impl<R: Record> Drop for InProcTransport<R> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.tx.send(Cmd::Stop);
            let _ = join.join();
        }
    }
}

/// Persistent per-disk workers behind [`Transport`]s.
///
/// With [`DiskPool::new`] every worker is an in-process service thread
/// owning its [`DiskUnit`] ([`InProcTransport`]);
/// [`DiskPool::from_transports`] generalizes to remote workers (see
/// [`crate::transport`]). [`DiskPool::into_units`] shuts in-process
/// workers down and hands the units back (used when the
/// [`crate::system::DiskSystem`] switches service modes).
pub struct DiskPool<R: Record> {
    transports: Vec<Box<dyn Transport<R>>>,
}

impl<R: Record> DiskPool<R> {
    /// Spawns one in-process service thread per unit.
    pub fn new(units: Vec<Box<dyn DiskUnit<R>>>) -> Self {
        Self::from_transports(
            units
                .into_iter()
                .enumerate()
                .map(|(disk, unit)| {
                    Box::new(InProcTransport::new(disk, unit)) as Box<dyn Transport<R>>
                })
                .collect(),
        )
    }

    /// A pool over pre-built transports, one per disk in disk order.
    pub fn from_transports(transports: Vec<Box<dyn Transport<R>>>) -> Self {
        for (d, t) in transports.iter().enumerate() {
            assert_eq!(t.disk(), d, "transports must be in disk order");
        }
        DiskPool { transports }
    }

    /// Number of disks (workers).
    pub fn disks(&self) -> usize {
        self.transports.len()
    }

    /// Submits a command to `disk`'s worker. Non-blocking; the reply
    /// arrives on the command's `done` channel (a dead link answers
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

    /// Shuts down the workers and returns their disk units in disk
    /// order. Panics if any worker is remote — remote storage cannot
    /// be pulled back into this process, and the `DiskSystem` never
    /// asks to.
    pub fn into_units(mut self) -> Vec<Box<dyn DiskUnit<R>>> {
        self.transports
            .iter_mut()
            .map(|t| {
                t.shutdown()
                    .expect("remote transports host no local disk unit")
            })
            .collect()
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

    #[test]
    fn pool_round_trip_and_unit_recovery() {
        let mut pool = DiskPool::new(units(2, 4, 4));
        assert_eq!(pool.disks(), 4);
        // Write a distinct block to each disk, all in flight at once.
        let (tx, rx) = channel();
        for d in 0..4usize {
            pool.submit(
                d,
                Cmd::Write {
                    slot: d,
                    buf: vec![d as u64 * 10, d as u64 * 10 + 1],
                    idx: d,
                    done: tx.clone(),
                },
            );
        }
        for _ in 0..4 {
            let c = rx.recv().unwrap();
            c.result.unwrap();
        }
        // Read them back concurrently.
        for d in 0..4usize {
            pool.submit(
                d,
                Cmd::Read {
                    slot: d,
                    buf: vec![0u64; 2],
                    idx: d,
                    done: tx.clone(),
                },
            );
        }
        let mut got = vec![Vec::new(); 4];
        for _ in 0..4 {
            let c = rx.recv().unwrap();
            c.result.unwrap();
            assert_eq!(c.idx, c.disk);
            got[c.idx] = c.buf;
        }
        for (d, blk) in got.iter().enumerate() {
            assert_eq!(blk, &vec![d as u64 * 10, d as u64 * 10 + 1]);
        }
        // Workers hand their units back intact.
        let mut recovered = pool.into_units();
        let mut out = [0u64; 2];
        recovered[3].read(3, &mut out).unwrap();
        assert_eq!(out, [30, 31]);
    }

    #[test]
    fn pool_propagates_unit_errors_with_buffer() {
        let mut pool = DiskPool::new(units(2, 2, 1));
        let (tx, rx) = channel();
        pool.submit(
            0,
            Cmd::Read {
                slot: 9, // out of range
                buf: vec![0u64; 2],
                idx: 0,
                done: tx,
            },
        );
        let c = rx.recv().unwrap();
        assert!(c.result.is_err());
        assert_eq!(c.buf.len(), 2, "buffer must come back even on error");
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = DiskPool::new(units(2, 2, 3));
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn inproc_transport_reports_zero_messages() {
        let mut pool = DiskPool::new(units(2, 2, 2));
        let (tx, rx) = channel();
        pool.submit(
            0,
            Cmd::Write {
                slot: 1,
                buf: vec![7u64, 8],
                idx: 0,
                done: tx,
            },
        );
        rx.recv().unwrap().result.unwrap();
        assert!(pool.message_stats().is_zero());
        assert!(pool.message_stats_per_disk().iter().all(MsgStats::is_zero));
        assert_eq!(pool.take_sim_ms(), 0.0);
    }

    #[test]
    fn injected_disconnect_answers_with_buffer_and_stays_dead() {
        let mut pool = DiskPool::new(units(2, 4, 2));
        pool.inject_disconnect(1);
        for _ in 0..2 {
            let (tx, rx) = channel();
            pool.submit(
                1,
                Cmd::Read {
                    slot: 0,
                    buf: vec![0u64; 2],
                    idx: 3,
                    done: tx,
                },
            );
            let c = rx.recv().unwrap();
            assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 1 })));
            assert_eq!(c.buf.len(), 2, "buffer must come back on disconnect");
            assert_eq!(c.idx, 3);
        }
        // The other disk is unaffected.
        let (tx, rx) = channel();
        pool.submit(
            0,
            Cmd::Read {
                slot: 0,
                buf: vec![0u64; 2],
                idx: 0,
                done: tx,
            },
        );
        rx.recv().unwrap().result.unwrap();
    }

    #[test]
    fn respawn_revives_a_severed_inproc_link_with_data_intact() {
        let mut pool = DiskPool::new(units(2, 4, 2));
        let (tx, rx) = channel();
        pool.submit(
            1,
            Cmd::Write {
                slot: 0,
                buf: vec![41u64, 42],
                idx: 0,
                done: tx.clone(),
            },
        );
        rx.recv().unwrap().result.unwrap();
        // Healthy link: nothing to revive.
        assert!(!pool.respawn(1).unwrap());
        pool.inject_disconnect(1);
        pool.submit(
            1,
            Cmd::Read {
                slot: 0,
                buf: vec![0u64; 2],
                idx: 0,
                done: tx.clone(),
            },
        );
        let c = rx.recv().unwrap();
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 1 })));
        // Revive and re-read: the unit (and its data) survived.
        assert!(pool.respawn(1).unwrap());
        pool.submit(
            1,
            Cmd::Read {
                slot: 0,
                buf: c.buf,
                idx: 0,
                done: tx,
            },
        );
        let c = rx.recv().unwrap();
        c.result.unwrap();
        assert_eq!(c.buf, vec![41, 42]);
    }
}
