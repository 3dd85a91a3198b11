//! External merge sort on the parallel disk model, and the
//! general-permutation baseline built on it.
//!
//! Vitter & Shriver's general-permutation bound —
//! `Θ(min(N/D, (N/BD)·lg(N/B)/lg(M/B)))` parallel I/Os — is the
//! comparator the BMMC paper improves on for its permutation class.
//! This crate provides the executable baseline: sort the records by
//! target address with an external merge sort, which *is* the
//! permutation once the keys are `0..N`.
//!
//! The merge comes in two strategies (see [`MergeStrategy`] and
//! DESIGN.md for the cost table). The default is stripe-granular:
//! every buffer holds one stripe (`B·D` records), so every read and
//! write is a striped parallel I/O and each full pass costs exactly
//! `2N/BD` operations, at fan-in `M/BD − 1`. The
//! [`MergeStrategy::Forecast`] variant closes the fan-in gap to
//! Vitter–Shriver: per-run buffers shrink to one *block* and a
//! forecasting key per run (the last key of its newest block) orders
//! the split-phase prefetches by when each run empties, reaching
//! fan-in `M/B − D − 1 = Θ(M/B)` — the bound's own fan-in — and
//! strictly fewer merge passes whenever the default needs more than
//! one, at the price of independent single-block refill reads. Both
//! strategies share one pipelined merge loop (see [`merge`]).
//!
//! This crate owns the merge-strategy decision: the strategy list
//! ([`MergeStrategy::ALL`]), each strategy's fan-in and read cost, and
//! the exact replay of the merge schedule ([`merge_sort_levels`],
//! [`merge_sort_ios`], [`merge_sort_passes`]) that `bmmc::plan` costs
//! the sort route with.
//!
//! ```
//! use extsort::general_permute;
//! use pdm::{DiskSystem, Geometry};
//!
//! // Bit-reversal of 2^10 records via the sort-based baseline.
//! let g = Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap();
//! let n = g.records() as u64;
//! let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
//! sys.load_records(0, &(0..n).collect::<Vec<_>>());
//! let rev = |x: u64| x.reverse_bits() >> (64 - 10);
//! let report = general_permute(&mut sys, |&r| r, rev).unwrap();
//! let out = sys.dump_records(report.final_portion);
//! for x in 0..n {
//!     assert_eq!(out[rev(x) as usize], x);
//! }
//! ```

pub mod keys;
pub mod merge;
pub mod permute;

pub use merge::{
    merge_sort_ios, merge_sort_levels, merge_sort_passes, sort_by_key, sort_by_key_with,
    MergeLevel, MergeStrategy, SortConfig, SortReport,
};
pub use permute::{general_permute, general_permute_with};
