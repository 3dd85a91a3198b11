//! BMMC permutations on parallel disk systems.
//!
//! A Rust reproduction of Cormen, Sundquist & Wisniewski,
//! *Asymptotically Tight Bounds for Performing BMMC Permutations on
//! Parallel Disk Systems* (SPAA '93 / Dartmouth PCS-TR94-223).
//!
//! A **BMMC permutation** maps each `n`-bit source address `x` to the
//! target address `y = A x ⊕ c` over GF(2), with `A` nonsingular. This
//! crate implements, on top of the [`pdm`] disk-model simulator:
//!
//! * the permutation algebra ([`Bmmc`]: compose, invert, apply);
//! * the subclass predicates BPC / MRC / MLD ([`classes`]), including
//!   the Section 6 kernel-condition test;
//! * the Section 5 **factoring engine** ([`factoring`]) producing a
//!   plan of one-pass permutations, `⌈rank γ̂/lg(M/B)⌉ + 1` of them;
//! * **one-pass execution** ([`passes`]) of MRC (striped reads and
//!   writes), MLD (striped reads, independent writes) and MLD⁻¹
//!   (independent reads, striped writes), all through the one step
//!   executor [`fusion::execute_fused_with_strategy`];
//! * the **asymptotically optimal algorithm**
//!   ([`algorithm::perform_bmmc`]), Theorem 21: at most
//!   `(2N/BD)(⌈rank γ/lg(M/B)⌉ + 2)` parallel I/Os;
//! * **run-time detection** ([`detect`]) of BMMC structure from a
//!   target-address vector in `N/BD + ⌈(lg(N/B)+1)/D⌉` parallel reads
//!   (Section 6);
//! * the **lower-bound machinery** ([`bounds`], [`potential`]):
//!   Theorem 3, the Section 7 sharpened constants, and the
//!   Aggarwal–Vitter potential function;
//! * a catalog of named permutations ([`catalog`]): transpose,
//!   bit-reversal, vector-reversal, hypercube, Gray code, reblocking;
//! * a multi-pass **BPC baseline** ([`bpc_baseline`]) realizing the
//!   pass structure of the earlier algorithm of Cormen \[4\], for the
//!   old-vs-new comparisons;
//! * the **unified plan IR** ([`plan`]): typed [`plan::Plan`] values
//!   every planner produces, fused by whole-plan dynamic programming
//!   ([`fusion::fuse_passes`]), costed both in exact parallel I/Os and
//!   seek-aware modeled wall-clock — the machinery behind the CLI's
//!   `--algorithm auto` — and run, BMMC or sort route alike, by the one
//!   executor [`plan::Plan::execute`].
//!
//! ```
//! use bmmc::{catalog, algorithm::perform_bmmc};
//! use pdm::{DiskSystem, Geometry};
//!
//! // N=1024 records, blocks of 4, 4 disks, memory for 64 records.
//! let geom = Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap();
//! let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
//! sys.load_records(0, &(0..1024).collect::<Vec<_>>());
//!
//! let perm = bmmc::catalog::bit_reversal(geom.n());
//! let report = perform_bmmc(&mut sys, &perm).unwrap();
//! assert!(report.num_passes() <= 3);
//! let out = sys.dump_records(report.final_portion);
//! assert_eq!(out[perm.target(7) as usize], 7);
//! # let _ = catalog::gray_code(10);
//! ```

#![deny(missing_docs)]

pub mod algorithm;
#[allow(clippy::module_inception)]
pub mod bmmc;
pub mod bounds;
pub mod bpc_baseline;
pub mod catalog;
pub mod classes;
pub mod detect;
pub mod error;
pub mod eval;
pub mod extensions;
pub mod factoring;
pub mod factors;
pub mod fusion;
pub mod passes;
pub mod plan;
pub mod potential;
pub mod spec;
pub mod verify;

pub use crate::bmmc::Bmmc;
pub use algorithm::{execute_passes_unfused, perform_bmmc, plan_passes};
pub use classes::{classify, is_bmmc, is_bpc, is_mld, is_mld_inverse, is_mrc, ClassFlags};
pub use detect::{detect_bmmc, Detection};
pub use error::{BmmcError, Result};
pub use eval::{AffineEvaluator, BlockEvaluator, PassEval};
pub use extensions::perform_mld_pair;
pub use factoring::{factor, factor_chunked, Factorization, Pass, PassKind};
pub use fusion::{fuse_passes, fuse_passes_greedy, FusedPass, FusedPlan};
pub use passes::EvalStrategy;
pub use plan::{candidates, choose, CandidateKind, Plan, PlanStep, RunReport};
