//! Extensions from the paper's conclusion (Section 7): additional
//! O(1)-pass permutation classes beyond MRC/MLD.
//!
//! The paper remarks that "the inverse of any one-pass permutation is
//! a one-pass permutation" — implemented as
//! [`crate::factoring::PassKind::MldInverse`] — and that "the
//! composition of an MLD permutation with the inverse of an MLD
//! permutation is a one-pass permutation". This module implements the
//! latter: [`perform_mld_pair`] executes `π_Y ∘ π_Z⁻¹` for MLD
//! permutations `Y` and `Z` in exactly one pass, with independent
//! reads *and* independent writes:
//!
//! * For each *intermediate* memoryload `w`, the source addresses
//!   `x = Z(w·M + i)` form `M/B` full source blocks evenly spread over
//!   the disks (Lemma 13 applied to `Z`), so they are gathered with
//!   `M/BD` independent reads.
//! * The same `M` records, viewed through `Y` on the intermediate
//!   addresses, fill `M/B` full target blocks evenly spread over the
//!   disks (Lemma 13 applied to `Y`), emitted with `M/BD` independent
//!   writes.

use crate::bmmc::Bmmc;
use crate::classes::is_mld;
use crate::error::{BmmcError, Result};
use crate::factoring::PassKind;
use crate::fusion::{execute_fused_with_strategy, FusedPass};
use crate::passes::{EvalStrategy, PassStats};
use pdm::{DiskSystem, PassEngine, Record};

/// Performs the composition `π_Y ∘ π_Z⁻¹` (first `Z⁻¹`, then `Y`) of
/// two MLD permutations in ONE pass, moving records from portion `src`
/// to portion `dst`.
///
/// This is a thin wrapper over the step executor
/// ([`crate::fusion`]): the pair `(Z⁻¹ as MLD⁻¹, Y as MLD)` fuses by
/// the discipline rule into a single gathered-read/scattered-write
/// step with the composed evaluator `Y·Z⁻¹` ([`FusedPass::mld_pair`])
/// — the general mechanism of which this Section 7 composition is one
/// instance.
///
/// Returns an error if `Y` or `Z` is not MLD for the system's
/// geometry, or if the widths do not match.
pub fn perform_mld_pair<R: Record>(
    sys: &mut DiskSystem<R>,
    y: &Bmmc,
    z: &Bmmc,
    src: usize,
    dst: usize,
) -> Result<PassStats> {
    let geom = sys.geometry();
    let n = geom.n();
    for perm in [y, z] {
        if perm.bits() != n {
            return Err(BmmcError::GeometryMismatch {
                perm_bits: perm.bits(),
                system_bits: n,
            });
        }
    }
    let (b, m) = (geom.b(), geom.m());
    if !is_mld(y.matrix(), b, m) || !is_mld(z.matrix(), b, m) {
        return Err(BmmcError::Dimension(
            "perform_mld_pair requires both permutations to be MLD".to_string(),
        ));
    }
    let before = sys.stats();
    let step = FusedPass::mld_pair(y, z);
    let mut engine = PassEngine::new(geom);
    execute_fused_with_strategy(&mut engine, sys, src, dst, &step, EvalStrategy::default())?;
    Ok(PassStats {
        kind: PassKind::Mld,
        ios: sys.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::passes::reference_permute;
    use pdm::Geometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    #[test]
    fn mld_pair_is_one_pass_and_correct() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(121);
        for _ in 0..5 {
            let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            let z = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            let input: Vec<u64> = (0..g.records() as u64).collect();
            sys.load_records(0, &input);
            let stats = perform_mld_pair(&mut sys, &y, &z, 0, 1).unwrap();
            // One pass: 2N/BD I/Os exactly.
            assert_eq!(stats.ios.parallel_ios() as usize, g.ios_per_pass());
            let composed = y.compose(&z.inverse());
            let expect = reference_permute(&input, |x| composed.target(x));
            assert_eq!(sys.dump_records(1), expect);
        }
    }

    #[test]
    fn mld_pair_may_need_two_passes_via_factoring() {
        // The point of the extension: Y·Z⁻¹ is generally NOT MLD (nor
        // MLD⁻¹ / MRC), so the generic planner needs ≥ 2 passes where
        // perform_mld_pair needs 1.
        let g = geom();
        let mut rng = StdRng::seed_from_u64(122);
        let mut demonstrated = false;
        for _ in 0..100 {
            let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            let z = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            let composed = y.compose(&z.inverse());
            let passes = crate::algorithm::plan_passes(&composed, g.b(), g.m()).unwrap();
            if passes.len() >= 2 {
                demonstrated = true;
                break;
            }
        }
        assert!(
            demonstrated,
            "every sampled MLD·MLD⁻¹ composition was one-pass-classifiable"
        );
    }

    #[test]
    fn rejects_non_mld_inputs() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(123);
        let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        // A permutation crossing the memory boundary is not MLD.
        let not_mld = catalog::bit_reversal(g.n());
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        assert!(perform_mld_pair(&mut sys, &y, &not_mld, 0, 1).is_err());
        assert!(perform_mld_pair(&mut sys, &not_mld, &y, 0, 1).is_err());
    }

    #[test]
    fn width_mismatch_names_the_mismatched_permutation() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(125);
        let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        let narrow = Bmmc::identity(g.n() - 1);
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        for (y, z) in [(&y, &narrow), (&narrow, &y)] {
            match perform_mld_pair(&mut sys, y, z, 0, 1) {
                Err(BmmcError::GeometryMismatch {
                    perm_bits,
                    system_bits,
                }) => {
                    assert_eq!(perm_bits, g.n() - 1, "reported the matching width");
                    assert_eq!(system_bits, g.n());
                }
                other => panic!("expected GeometryMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn identity_pair_is_identity() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(124);
        let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        // Y ∘ Y⁻¹ = identity: records end up where they started.
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        perform_mld_pair(&mut sys, &y, &y, 0, 1).unwrap();
        assert_eq!(sys.dump_records(1), input);
    }
}
