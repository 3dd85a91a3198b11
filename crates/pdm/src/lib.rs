//! Vitter–Shriver parallel disk model (PDM) simulator.
//!
//! The model (Vitter & Shriver 1990; the cost model of the BMMC paper):
//! `N` records live on `D` disks in blocks of `B` records; a RAM holds
//! `M` records; one **parallel I/O operation** transfers at most one
//! block per disk (up to `BD` records). Algorithms are charged by the
//! number of parallel I/Os only.
//!
//! This crate provides:
//! * [`Geometry`] — validated `(N, B, D, M)` quadruples and the paper's
//!   `b, d, m, n` logarithms;
//! * [`Layout`] — Figure 2 address-field parsing (offset / disk /
//!   stripe / relative block / memoryload);
//! * [`DiskSystem`] — the disk array itself, with striped and
//!   independent parallel I/O, exact [`IoStats`] accounting, memory- or
//!   file-backed storage, optional servicing on
//!   `min(D, available_parallelism)` threads, and
//!   deterministic fault injection;
//! * [`Memory`] — the M-record internal memory with capacity
//!   enforcement, plus in-place permutation by cycle-following;
//! * [`PassEngine`] — the shared streaming loop (read a memoryload,
//!   rearrange in RAM, write it out) with double-buffered I/O overlap
//!   on the persistent disk service threads.
//!
//! ```
//! use pdm::{DiskSystem, Geometry};
//!
//! let geom = Geometry::new(64, 2, 8, 32).unwrap(); // Figure 1 of the paper
//! let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 1);
//! sys.load_records(0, &(0..64).collect::<Vec<_>>());
//! let stripe0 = sys.read_stripe(0).unwrap();
//! assert_eq!(stripe0, (0..16).collect::<Vec<_>>());
//! assert_eq!(sys.stats().parallel_ios(), 1);
//! ```

#![deny(missing_docs)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod error;
pub mod fault;
pub mod layout;
pub mod memory;
pub mod parallel;
pub mod proto;
pub mod record;
pub mod retry;
pub mod sched;
pub mod stats;
pub mod system;
pub mod tempdir;
pub mod timing;
pub mod transport;

pub use config::Geometry;
pub use engine::{BatchCursor, BlockBatches, PassEngine, ReadPlan, WritePlan};
pub use error::{PdmError, Result};
pub use fault::FaultPlan;
pub use layout::Layout;
pub use memory::{permute_in_place, Memory};
pub use parallel::Transport;
pub use record::{ByteRecord, Record, TaggedRecord};
pub use retry::{RetryPolicy, RetryStats};
pub use sched::{FairCore, FairScheduler, JobId, JobUsage, SchedHandle};
pub use stats::{IoStats, MsgStats};
pub use system::{
    Backend, BlockRef, BufferPoolStats, DiskSystem, ReadTicket, ServiceMode, WriteTicket,
};
pub use tempdir::TempDir;
pub use timing::{TimingModel, TimingTracker};
pub use transport::{RespawnSpec, SimNetModel, TransportConfig, UdsConfig};
