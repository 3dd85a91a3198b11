//! The asymptotically optimal BMMC algorithm (Theorem 21), end to end:
//! factor the characteristic matrix (Section 5), fuse adjacent passes
//! where they compose within the memory model ([`crate::fusion`]),
//! then execute the plan ([`crate::plan::Plan::execute`]) on a disk
//! system, ping-ponging between the source and target portions.

use crate::bmmc::Bmmc;
use crate::classes::{is_mld, is_mld_inverse, is_mrc};
use crate::error::Result;
use crate::factoring::{factor, Pass, PassKind};
use crate::passes::{execute_pass_with_strategy, EvalStrategy};
use crate::plan::{Plan, RunReport};
use pdm::{DiskSystem, PassEngine, Record};

/// Plans the pass sequence for `perm` at boundaries `(b, m)`.
///
/// Fast paths for the one-pass classes, exactly as Section 6 urges
/// ("run even faster algorithms for any of the special cases … whenever
/// possible"):
/// * MRC → one striped-read/striped-write pass,
/// * MLD → one striped-read/independent-write pass (Theorem 15),
/// * MLD⁻¹ → one independent-read/striped-write pass (Section 7's
///   "the inverse of any one-pass permutation is a one-pass
///   permutation"),
/// * anything else → the Section 5 factoring.
pub fn plan_passes(perm: &Bmmc, b: usize, m: usize) -> Result<Vec<Pass>> {
    let a = perm.matrix();
    if is_mrc(a, m) {
        return Ok(vec![Pass {
            matrix: a.clone(),
            complement: perm.complement().clone(),
            kind: PassKind::Mrc,
        }]);
    }
    if is_mld(a, b, m) {
        return Ok(vec![Pass {
            matrix: a.clone(),
            complement: perm.complement().clone(),
            kind: PassKind::Mld,
        }]);
    }
    if is_mld_inverse(a, b, m) {
        return Ok(vec![Pass {
            matrix: a.clone(),
            complement: perm.complement().clone(),
            kind: PassKind::MldInverse,
        }]);
    }
    Ok(factor(perm, b, m)?.passes)
}

/// Executes a pass sequence *without* fusion: one disk round-trip per
/// planned pass, exactly as the plan was written, through the one-pass
/// executors of [`crate::passes`]. This is the reference the fused
/// executor is tested against (`tests/fusion_equivalence.rs`), and the
/// opt-out for measuring what fusion saves.
pub fn execute_passes_unfused<R: Record>(
    sys: &mut DiskSystem<R>,
    passes: &[Pass],
) -> Result<RunReport> {
    assert!(
        sys.portions() >= 2,
        "plan execution needs a source and a target portion"
    );
    let before = sys.stats();
    let msgs_before = sys.message_stats();
    let mut engine = PassEngine::new(sys.geometry());
    let mut src = 0usize;
    for pass in passes {
        let dst = 1 - src;
        execute_pass_with_strategy(&mut engine, sys, src, dst, pass, EvalStrategy::default())?;
        src = dst;
    }
    Ok(RunReport {
        total: sys.stats().since(&before),
        msgs: sys.message_stats().since(&msgs_before),
        steps: passes.len(),
        final_portion: src,
    })
}

/// Performs the BMMC permutation `perm` on the records in portion 0,
/// using the one-pass fast paths or the Section 5 factoring: the
/// [`Plan::bmmc`] plan, run by [`Plan::execute`]. This is the
/// algorithm of Theorem 21: at most `(2N/BD)(⌈rank γ / lg(M/B)⌉ + 2)`
/// parallel I/Os.
pub fn perform_bmmc<R: Record>(sys: &mut DiskSystem<R>, perm: &Bmmc) -> Result<RunReport> {
    Plan::bmmc(perm, &sys.geometry())?.execute(sys, perm, |_| {
        unreachable!("BMMC-route plans never read record contents")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::error::BmmcError;
    use crate::passes::reference_permute;
    use gf2::elim::rank;
    use pdm::Geometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        // N=2^10, B=2^2, D=2^2, M=2^6.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn run_and_check(perm: &Bmmc, g: Geometry) -> RunReport {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        let report = perform_bmmc(&mut sys, perm).expect("algorithm failed");
        let expect = reference_permute(&input, |x| perm.target(x));
        assert_eq!(
            sys.dump_records(report.final_portion),
            expect,
            "records not in target order"
        );
        // Each pass costs exactly 2N/BD parallel I/Os.
        assert_eq!(
            report.total.parallel_ios() as usize,
            report.num_passes() * g.ios_per_pass()
        );
        // In-process servicing moves no transport messages.
        assert!(
            report.msgs.is_zero(),
            "in-proc run reported {}",
            report.msgs
        );
        report
    }

    #[test]
    fn random_bmmc_end_to_end() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_bmmc(&mut rng, g.n());
            let report = run_and_check(&perm, g);
            // Theorem 21: I/Os ≤ 2N/BD (⌈rank γ / lg(M/B)⌉ + 2).
            let r = rank(&perm.matrix().submatrix(g.b()..g.n(), 0..g.b()));
            let bound = g.ios_per_pass() * (r.div_ceil(g.lg_mb()) + 2);
            assert!(
                (report.total.parallel_ios() as usize) <= bound,
                "{} I/Os exceed Theorem 21 bound {bound}",
                report.total.parallel_ios()
            );
        }
    }

    #[test]
    fn bit_reversal_end_to_end() {
        let g = geom();
        let report = run_and_check(&catalog::bit_reversal(g.n()), g);
        assert!(report.num_passes() <= 3);
    }

    #[test]
    fn transpose_end_to_end() {
        let g = geom();
        for lg_r in [2, 5, 8] {
            run_and_check(&catalog::transpose(g.n(), lg_r), g);
        }
    }

    #[test]
    fn gray_code_single_pass() {
        let g = geom();
        let report = run_and_check(&catalog::gray_code(g.n()), g);
        assert_eq!(report.num_passes(), 1, "Gray code is MRC: one pass");
    }

    #[test]
    fn mld_single_pass_end_to_end() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = geom();
        let perm = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        let report = run_and_check(&perm, g);
        // MLD permutations must execute in one pass (Theorem 15).
        assert_eq!(report.num_passes(), 1, "MLD permutations are one pass");
    }

    #[test]
    fn geometry_mismatch_detected() {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let perm = Bmmc::identity(4);
        assert!(matches!(
            perform_bmmc(&mut sys, &perm),
            Err(BmmcError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn payload_integrity_with_tagged_records() {
        use pdm::TaggedRecord;
        let mut rng = StdRng::seed_from_u64(63);
        let g = geom();
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
        let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
        sys.load_records(0, &input);
        let report = perform_bmmc(&mut sys, &perm).unwrap();
        let out = sys.dump_records(report.final_portion);
        for (y, rec) in out.iter().enumerate() {
            assert!(rec.intact(), "payload corrupted at {y}");
            assert_eq!(perm.target(rec.key), y as u64, "record misplaced");
        }
    }
}
