//! Benchmark-side seams around the disk layers, for the traced run.
//!
//! A threaded [`DiskSystem`] built with [`traced_threaded_system`] runs
//! the same `Pooled` service path as `DiskSystem::new_mem` followed by
//! `set_threaded(true)`, but every transport is a [`TimedTransport`]
//! (times `submit` on the caller thread, as a `transport.submit` leaf of
//! the innermost open span) over an `InProcTransport`, and every disk
//! is a [`TimedUnit`] (times each block transfer on its disk thread)
//! over a `MemDisk`. Serial systems have no public seam, so their
//! backend time stays inside the caller's spans.

use crate::trace;
use pdm::backend::{DiskUnit, MemDisk};
use pdm::parallel::{Cmd, InProcTransport};
use pdm::{DiskSystem, Geometry, MsgStats, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Work done by one disk's backend, updated from its service thread.
#[derive(Debug, Default)]
pub struct DiskCounters {
    ops: AtomicU64,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of [`DiskCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskSnapshot {
    /// Block transfers.
    pub ops: u64,
    /// Time spent inside the unit's read/write.
    pub busy_ns: u64,
    /// Bytes moved.
    pub bytes: u64,
}

impl DiskCounters {
    /// Reads the counters. Statistics only: no other data is published
    /// through them, so relaxed loads suffice; callers snapshot after
    /// every completion of the operation has been received.
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            ops: self.ops.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn record(&self, start: Instant, records: usize) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(
            (records * std::mem::size_of::<u64>()) as u64,
            Ordering::Relaxed,
        );
    }
}

impl DiskSnapshot {
    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &DiskSnapshot) -> DiskSnapshot {
        DiskSnapshot {
            ops: self.ops - earlier.ops,
            busy_ns: self.busy_ns - earlier.busy_ns,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// A memory disk whose transfers are timed on the thread that serves
/// them.
pub struct TimedUnit {
    inner: MemDisk<u64>,
    counters: Arc<DiskCounters>,
}

impl DiskUnit<u64> for TimedUnit {
    fn slots(&self) -> usize {
        DiskUnit::<u64>::slots(&self.inner)
    }

    fn block(&self) -> usize {
        DiskUnit::<u64>::block(&self.inner)
    }

    fn read(&mut self, slot: usize, out: &mut [u64]) -> pdm::Result<()> {
        let start = Instant::now();
        let r = self.inner.read(slot, out);
        self.counters.record(start, out.len());
        r
    }

    fn write(&mut self, slot: usize, data: &[u64]) -> pdm::Result<()> {
        let start = Instant::now();
        let r = self.inner.write(slot, data);
        self.counters.record(start, data.len());
        r
    }
}

/// An in-process transport whose `submit` is timed on the caller
/// thread.
pub struct TimedTransport {
    inner: InProcTransport<u64>,
}

impl Transport<u64> for TimedTransport {
    fn disk(&self) -> usize {
        self.inner.disk()
    }

    fn submit(&mut self, cmd: Cmd<u64>) {
        let start = Instant::now();
        self.inner.submit(cmd);
        trace::leaf("transport.submit", start.elapsed().as_nanos() as u64);
    }

    fn message_stats(&self) -> MsgStats {
        self.inner.message_stats()
    }

    fn take_sim_ms(&mut self) -> f64 {
        self.inner.take_sim_ms()
    }

    fn inject_disconnect(&mut self) {
        self.inner.inject_disconnect();
    }

    fn respawn(&mut self) -> pdm::Result<bool> {
        self.inner.respawn()
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<u64>>> {
        self.inner.shutdown()
    }
}

/// A threaded memory-backed system with `portions` portions whose
/// transports and disks are timed, plus the per-disk counters.
pub fn traced_threaded_system(
    geom: Geometry,
    portions: usize,
) -> (DiskSystem<u64>, Vec<Arc<DiskCounters>>) {
    let slots = portions * geom.stripes();
    let counters: Vec<Arc<DiskCounters>> = (0..geom.disks()).map(|_| Arc::default()).collect();
    let transports = counters
        .iter()
        .enumerate()
        .map(|(disk, c)| {
            let unit = TimedUnit {
                inner: MemDisk::new(geom.block(), slots),
                counters: Arc::clone(c),
            };
            Box::new(TimedTransport {
                inner: InProcTransport::new(disk, Box::new(unit)),
            }) as Box<dyn Transport<u64>>
        })
        .collect();
    let mut sys = DiskSystem::new_from_transports(geom, portions, transports);
    sys.set_threaded(true);
    (sys, counters)
}

/// Snapshots every disk's counters.
pub fn snapshot_all(counters: &[Arc<DiskCounters>]) -> Vec<DiskSnapshot> {
    counters.iter().map(|c| c.snapshot()).collect()
}
