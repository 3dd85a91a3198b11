//! Multi-tenant permutation job service over one parallel disk system.
//!
//! This crate grows the workspace from a library-plus-CLI into a
//! long-running *service*: one process owns a shared disk array (a
//! [`farm::DiskFarm`]) and accepts permutation jobs — BMMC, BPC,
//! out-of-core sort, general permutation — from many clients over a
//! socket. Admitted jobs run concurrently, each on its own thread
//! with its own leased [`pdm::DiskSystem`], while a deficit
//! round-robin governor ([`pdm::FairScheduler`]) meters every
//! parallel I/O so that `K` backlogged tenants each see about `1/K`
//! of the array's bandwidth instead of queueing behind one another.
//!
//! The crate splits into:
//!
//! - [`farm`] — the shared disks' links (memory service threads, or
//!   one shared `pdm-diskd` client per disk), slot leasing, and the
//!   per-tenant transports that feed them;
//! - [`job`] — job specifications and the executor that runs one job
//!   against a leased disk system;
//! - [`core`] — the in-process service: admission queue, job table,
//!   scheduler wiring, cancellation, and per-job usage ledgers;
//! - [`proto`] — the length-prefixed control-plane wire protocol
//!   (`SUBMIT` / `STATUS` / `CANCEL` / `RESULT`), built on
//!   [`pdm::proto`]'s framing toolkit;
//! - [`server`] / [`client`] — the Unix-socket endpoints, including
//!   the `pdm-served` binary's entry point.
#![deny(missing_docs)]

pub mod client;
pub mod core;
pub mod farm;
pub mod job;
pub mod proto;
pub mod server;
