//! One-pass permutations — MRC, MLD and MLD⁻¹ — on a
//! [`pdm::DiskSystem`], built on the shared streaming [`PassEngine`].
//!
//! All pass types process memoryloads in order (Section 3): read a
//! memoryload (`M/BD` parallel reads), permute the `M` records in
//! memory, and write them out (`M/BD` parallel writes) —
//!
//! * **MRC**: striped reads of each source memoryload; all `M` records
//!   go to a single target memoryload, written with striped writes;
//! * **MLD**: striped reads; the records form `M/B` *full* target
//!   blocks (Lemma 13), one per relative block number, spread evenly
//!   over the disks (property 3), written with independent writes of
//!   `D` blocks each;
//! * **MLD⁻¹**: the mirror image — each *target* memoryload's records
//!   are gathered with independent reads of `D` full source blocks
//!   each (Lemma 13 applied to `A⁻¹`), arranged in memory, and emitted
//!   with striped writes.
//!
//! Either way a pass costs exactly `2N/BD` parallel I/Os. A pass runs
//! as its own unfused step ([`FusedPass::from_single`]) through the
//! one step executor, [`execute_fused_with_strategy`], which serves
//! every read side (striped, or gathered blocks) and write side
//! (striped, or scattered blocks), fused steps included. It only
//! builds the engine's read/write *plans* and the in-memory
//! rearrangement; buffering, I/O issue, and (in
//! [`ServiceMode::Threaded`](pdm::ServiceMode)) the overlap of the
//! next memoryload's reads with the current permute all live in
//! `pdm::engine`.
//!
//! The in-memory rearrangement is the same for every shape, a gather:
//! the unit's source blocks land in the engine's data buffer at
//! positions fixed per step, and position `y mod M` of the scratch
//! buffer (the target relative-block number and offset of target
//! address `y`) is filled with the record the inverse map sends `y`
//! to, read from where it landed; then the two buffers swap. The
//! output is written in order and the landed memoryload, which stays
//! in cache, is read at random. This is a bijection on the unit because
//! the leading `m x m` submatrix of the map from a unit to its targets
//! is nonsingular (Lemma 12; trivially for MRC).
//!
//! # Block-run evaluation
//!
//! By default ([`EvalStrategy::BlockRun`]) the step executor evaluates
//! addresses with the block-hoisted [`BlockEvaluator`] form (see
//! [`crate::eval`]): the high `n − b` bits of the affine map, or of its
//! inverse, are evaluated once per block and the low `b` bits come from the
//! per-matrix residual table, so a memoryload's planning and permute
//! closures perform `M/B` high-bit evaluations instead of `M` full
//! ones. Batch discovery (the gather planner's first-seen order, the
//! scatter push order) is arranged to be *byte-identical* to the
//! per-address scan it replaces — [`EvalStrategy::PerAddress`] keeps
//! that scan alive for differential testing and as the `addr_eval`
//! benchmark baseline.
//!
//! The superseded hand-written loops survive in [`mod@reference`] — they
//! are the differential-testing oracle for the engine and the "old
//! loop" baseline of the `engine_sweep` benchmark. They still
//! rearrange each memoryload in place by cycle-following
//! ([`pdm::permute_in_place`]).

use crate::error::{BmmcError, Result};
use crate::eval::BlockEvaluator;
use crate::factoring::{Pass, PassKind};
use crate::fusion::{execute_fused_with_strategy, FusedPass};
use pdm::{DiskSystem, IoStats, PassEngine, Record};

/// Per-pass execution statistics.
#[derive(Clone, Copy, Debug)]
pub struct PassStats {
    /// Which pass discipline ran.
    pub kind: PassKind,
    /// I/O performed by this pass alone.
    pub ios: IoStats,
}

/// How the step executor evaluates addresses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Hoist the invariant high bits once per block and look
    /// the low bits up in the per-matrix residual table (see
    /// [`crate::eval::BlockEvaluator`]). The production default; the
    /// executor silently falls back to per-address evaluation when the
    /// block is too wide for the residual table
    /// (`b > `[`crate::eval::RESIDUAL_TABLE_MAX_BITS`]).
    #[default]
    BlockRun,
    /// Evaluate `y = Ax ⊕ c` independently for every address — the
    /// pre-block-run behaviour, kept selectable for differential
    /// testing and as the `addr_eval` benchmark baseline.
    PerAddress,
}

impl EvalStrategy {
    /// Whether this strategy uses `bev`'s block-hoisted path (requires
    /// the residual table to have been materialised).
    pub(crate) fn uses_block(self, bev: &BlockEvaluator) -> bool {
        self == EvalStrategy::BlockRun && bev.residual_table().is_some()
    }
}

/// Executes one pass, moving all `N` records from portion `src` to
/// portion `dst` of the disk system. Convenience wrapper over
/// [`execute_pass_with_strategy`] that builds a fresh engine;
/// multi-pass algorithms should build one [`PassEngine`] and reuse it.
pub fn execute_pass<R: Record>(
    sys: &mut DiskSystem<R>,
    src: usize,
    dst: usize,
    pass: &Pass,
) -> Result<PassStats> {
    let mut engine = PassEngine::new(sys.geometry());
    execute_pass_with_strategy(&mut engine, sys, src, dst, pass, EvalStrategy::default())
}

/// Executes one pass on a caller-provided engine (reusing its
/// memoryload buffers across passes) with an explicit
/// address-evaluation strategy: the pass runs as its own unfused step
/// ([`FusedPass::from_single`]) through the step executor. Placement
/// and I/O accounting are identical across strategies; only the kernel
/// work differs.
pub fn execute_pass_with_strategy<R: Record>(
    engine: &mut PassEngine<R>,
    sys: &mut DiskSystem<R>,
    src: usize,
    dst: usize,
    pass: &Pass,
    strategy: EvalStrategy,
) -> Result<PassStats> {
    let before = sys.stats();
    let step = FusedPass::from_single(pass);
    execute_fused_with_strategy(engine, sys, src, dst, &step, strategy)?;
    Ok(PassStats {
        kind: pass.kind,
        ios: sys.stats().since(&before),
    })
}

/// The reference (zero-I/O) permutation: returns the record vector as
/// it must appear after performing `target` on `input` —
/// `output[target(x)] = input[x]`.
pub fn reference_permute<R: Record>(input: &[R], target: impl Fn(u64) -> u64) -> Vec<R> {
    let mut out = vec![R::default(); input.len()];
    for (x, rec) in input.iter().enumerate() {
        out[target(x as u64) as usize] = *rec;
    }
    out
}

/// The superseded per-call-site loops, kept verbatim as the
/// differential-testing oracle for the [`PassEngine`]-based executor
/// and as the "old loop" baseline of the `engine_sweep` benchmark.
/// They allocate fresh buffers per block and service every parallel
/// I/O synchronously; the cost *counts* are identical to the engine's.
pub mod reference {
    use super::*;
    use crate::eval::AffineEvaluator;
    use pdm::memory::permute_in_place;
    use pdm::BlockRef;

    /// Executes one pass with the classic hand-written loops (see
    /// [`super::execute_pass`] for the engine-based production path).
    pub fn execute_pass<R: Record>(
        sys: &mut DiskSystem<R>,
        src: usize,
        dst: usize,
        pass: &Pass,
    ) -> Result<PassStats> {
        let geom = sys.geometry();
        let n = geom.n();
        if pass.matrix.rows() != n {
            return Err(BmmcError::GeometryMismatch {
                perm_bits: pass.matrix.rows(),
                system_bits: n,
            });
        }
        assert_ne!(src, dst, "source and target portions must differ");
        let before = sys.stats();
        let ev = AffineEvaluator::new(&pass.as_bmmc());
        match pass.kind {
            PassKind::Mrc => execute_mrc(sys, src, dst, &ev)?,
            PassKind::Mld => execute_mld(sys, src, dst, &ev)?,
            PassKind::MldInverse => {
                let inv_ev = AffineEvaluator::new(&pass.as_bmmc().inverse());
                execute_mld_inverse(sys, src, dst, &ev, &inv_ev)?;
            }
        }
        Ok(PassStats {
            kind: pass.kind,
            ios: sys.stats().since(&before),
        })
    }

    fn execute_mrc<R: Record>(
        sys: &mut DiskSystem<R>,
        src: usize,
        dst: usize,
        ev: &AffineEvaluator,
    ) -> Result<()> {
        let geom = sys.geometry();
        let (mem, m) = (geom.memory(), geom.m());
        let mask = (mem - 1) as u64;
        for ml in 0..geom.memoryloads() {
            let mut records = sys.read_memoryload(src, ml)?;
            let base = (ml * mem) as u64;
            let target_ml = (ev.eval(base) >> m) as usize;
            permute_in_place(&mut records, |i| (ev.eval(base + i as u64) & mask) as usize);
            sys.write_memoryload(dst, target_ml, &records)?;
        }
        Ok(())
    }

    fn execute_mld<R: Record>(
        sys: &mut DiskSystem<R>,
        src: usize,
        dst: usize,
        ev: &AffineEvaluator,
    ) -> Result<()> {
        let geom = sys.geometry();
        let layout = sys.layout();
        let mem = geom.memory();
        let block = geom.block();
        let disks = geom.disks();
        let mask = (mem - 1) as u64;
        let rel_blocks = geom.blocks_per_memoryload();
        let mut target_block = vec![0u64; rel_blocks];
        for ml in 0..geom.memoryloads() {
            let mut records = sys.read_memoryload(src, ml)?;
            let base = (ml * mem) as u64;
            for i in 0..mem as u64 {
                let y = ev.eval(base + i);
                let rel = layout.relative_block(y) as usize;
                target_block[rel] = layout.block(y);
            }
            permute_in_place(&mut records, |i| (ev.eval(base + i as u64) & mask) as usize);
            let dst_base = sys.portion_base(dst);
            for t in 0..rel_blocks / disks {
                let mut writes: Vec<(BlockRef, &[R])> = Vec::with_capacity(disks);
                for delta in 0..disks {
                    let rel = t * disks + delta;
                    let blk = target_block[rel];
                    let disk = layout.disk_of_block(blk) as usize;
                    let slot = dst_base + layout.stripe_of_block(blk) as usize;
                    writes.push((
                        BlockRef { disk, slot },
                        &records[rel * block..(rel + 1) * block],
                    ));
                }
                sys.write_blocks(&writes)?;
            }
        }
        Ok(())
    }

    fn execute_mld_inverse<R: Record>(
        sys: &mut DiskSystem<R>,
        src: usize,
        dst: usize,
        ev: &AffineEvaluator,
        inv_ev: &AffineEvaluator,
    ) -> Result<()> {
        let geom = sys.geometry();
        let layout = sys.layout();
        let mem = geom.memory();
        let disks = geom.disks();
        let mask = (mem - 1) as u64;
        let rel_blocks = geom.blocks_per_memoryload();
        let src_base = sys.portion_base(src);
        let mut per_disk: Vec<Vec<u64>> = vec![Vec::with_capacity(rel_blocks / disks); disks];
        let mut seen: Vec<bool> = Vec::new();
        for t in 0..geom.memoryloads() {
            let base = (t * mem) as u64;
            for d in per_disk.iter_mut() {
                d.clear();
            }
            seen.clear();
            seen.resize(geom.total_blocks(), false);
            for i in 0..mem as u64 {
                let x = inv_ev.eval(base + i);
                let blk = layout.block(x);
                if !seen[blk as usize] {
                    seen[blk as usize] = true;
                    per_disk[layout.disk_of_block(blk) as usize].push(blk);
                }
            }
            let mut out = vec![R::default(); mem];
            for k in 0..rel_blocks / disks {
                let refs: Vec<BlockRef> = (0..disks)
                    .map(|disk| BlockRef {
                        disk,
                        slot: src_base + layout.stripe_of_block(per_disk[disk][k]) as usize,
                    })
                    .collect();
                let blocks = sys.read_blocks(&refs)?;
                for (disk, data) in blocks.iter().enumerate() {
                    let blk = per_disk[disk][k];
                    for (off, rec) in data.iter().enumerate() {
                        let x = layout.compose_block(blk, off as u64);
                        let y = ev.eval(x);
                        out[(y & mask) as usize] = *rec;
                    }
                }
            }
            sys.write_memoryload(dst, t, &out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmmc::Bmmc;
    use crate::catalog;
    use crate::factoring::{Pass, PassKind};
    use gf2::BitVec;
    use pdm::{Geometry, ServiceMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// N=2^10, B=2^2, D=2^2, M=2^6 → b=2, d=2, m=6, n=10.
    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn run_one_pass(perm: &Bmmc, kind: PassKind) {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind,
        };
        let stats = execute_pass(&mut sys, 0, 1, &pass).unwrap();
        // Exactly one pass: 2N/BD parallel I/Os, N/BD reads (striped
        // for the forward disciplines, independent gathers for MLD⁻¹).
        assert_eq!(stats.ios.parallel_ios() as usize, g.ios_per_pass());
        assert_eq!(stats.ios.parallel_reads as usize, g.stripes());
        if matches!(kind, PassKind::Mrc | PassKind::Mld) {
            assert_eq!(stats.ios.striped_reads as usize, g.stripes());
        }
        let expect = reference_permute(&input, |x| perm.target(x));
        assert_eq!(sys.dump_records(1), expect, "wrong final placement");
        match kind {
            PassKind::Mrc | PassKind::MldInverse => assert_eq!(
                stats.ios.striped_writes, stats.ios.parallel_writes,
                "MRC/MLD⁻¹ must write striped"
            ),
            PassKind::Mld => {}
        }
    }

    /// Runs `perm` through the engine executor and the reference loop
    /// on separate systems and insists on identical placements and
    /// identical I/O statistics.
    fn assert_matches_reference(perm: &Bmmc, kind: PassKind, mode: ServiceMode) {
        let g = geom();
        let input: Vec<u64> = (0..g.records() as u64).collect();
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind,
        };
        let mut engine_sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        engine_sys.set_service_mode(mode);
        engine_sys.load_records(0, &input);
        let engine_stats = execute_pass(&mut engine_sys, 0, 1, &pass).unwrap();
        let mut ref_sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        ref_sys.load_records(0, &input);
        let ref_stats = reference::execute_pass(&mut ref_sys, 0, 1, &pass).unwrap();
        assert_eq!(engine_stats.ios, ref_stats.ios, "I/O accounting diverged");
        assert_eq!(
            engine_sys.dump_records(1),
            ref_sys.dump_records(1),
            "placements diverged"
        );
    }

    #[test]
    fn mrc_pass_random() {
        let mut rng = StdRng::seed_from_u64(51);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_mrc(&mut rng, g.n(), g.m());
            run_one_pass(&perm, PassKind::Mrc);
        }
    }

    #[test]
    fn mld_pass_random() {
        let mut rng = StdRng::seed_from_u64(52);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            run_one_pass(&perm, PassKind::Mld);
        }
    }

    #[test]
    fn mrc_runs_as_mld_too() {
        // Every MRC permutation is MLD (Section 3), so the MLD
        // executor must also handle it.
        let mut rng = StdRng::seed_from_u64(53);
        let g = geom();
        let perm = catalog::random_mrc(&mut rng, g.n(), g.m());
        run_one_pass(&perm, PassKind::Mld);
    }

    #[test]
    fn gray_code_one_pass() {
        let g = geom();
        run_one_pass(&catalog::gray_code(g.n()), PassKind::Mrc);
    }

    #[test]
    fn vector_reversal_one_pass() {
        let g = geom();
        // y = x ⊕ 1...1 is MRC (identity matrix) with full complement.
        run_one_pass(&catalog::vector_reversal(g.n()), PassKind::Mrc);
    }

    #[test]
    fn identity_pass_keeps_order() {
        let g = geom();
        run_one_pass(&Bmmc::identity(g.n()), PassKind::Mrc);
    }

    #[test]
    fn eraser_form_pass_is_mld() {
        // An eraser-form matrix exercises genuinely independent writes.
        let g = geom();
        let (b, m, n) = (g.b(), g.m(), g.n());
        let e = crate::factors::eraser(
            n,
            b,
            m,
            &[
                crate::factors::ColAdd { src: m, dst: b },
                crate::factors::ColAdd {
                    src: m + 1,
                    dst: b + 1,
                },
            ],
        );
        let perm = Bmmc::new(e, BitVec::zeros(n)).unwrap();
        assert!(crate::classes::is_mld(perm.matrix(), b, m));
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind: PassKind::Mld,
        };
        let stats = execute_pass(&mut sys, 0, 1, &pass).unwrap();
        let expect = reference_permute(&input, |x| perm.target(x));
        assert_eq!(sys.dump_records(1), expect);
        // This one genuinely disperses: writes are not all striped.
        assert!(stats.ios.independent_writes() > 0);
    }

    #[test]
    fn mld_inverse_pass_random() {
        // The inverse of an MLD permutation runs in one pass with the
        // mirrored discipline: independent reads, striped writes (the
        // helper asserts both).
        let mut rng = StdRng::seed_from_u64(54);
        let g = geom();
        for _ in 0..5 {
            let fwd = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            run_one_pass(&fwd.inverse(), PassKind::MldInverse);
        }
    }

    #[test]
    fn mrc_runs_as_mld_inverse_too() {
        // MRC inverses are MRC (Theorem 18) ⊆ MLD, so the MLD⁻¹
        // executor must handle an MRC matrix as well.
        let mut rng = StdRng::seed_from_u64(55);
        let g = geom();
        let perm = catalog::random_mrc(&mut rng, g.n(), g.m());
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind: PassKind::MldInverse,
        };
        execute_pass(&mut sys, 0, 1, &pass).unwrap();
        let expect = reference_permute(&input, |x| perm.target(x));
        assert_eq!(sys.dump_records(1), expect);
    }

    #[test]
    fn engine_matches_reference_all_kinds_and_modes() {
        let mut rng = StdRng::seed_from_u64(56);
        let g = geom();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let mrc = catalog::random_mrc(&mut rng, g.n(), g.m());
            assert_matches_reference(&mrc, PassKind::Mrc, mode);
            let mld = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            assert_matches_reference(&mld, PassKind::Mld, mode);
            let inv = catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse();
            assert_matches_reference(&inv, PassKind::MldInverse, mode);
        }
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let perm = Bmmc::identity(5);
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind: PassKind::Mrc,
        };
        assert!(matches!(
            execute_pass(&mut sys, 0, 1, &pass),
            Err(BmmcError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn reference_permute_sanity() {
        let input = [10u64, 11, 12, 13];
        let out = reference_permute(&input, |x| x ^ 0b11);
        assert_eq!(out, vec![13, 12, 11, 10]);
    }
}
