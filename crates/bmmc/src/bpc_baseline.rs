//! A multi-pass BPC baseline with the pass structure of the earlier
//! algorithm of Cormen \[4\]: `2⌈ρ/lg(M/B)⌉ + 1` passes.
//!
//! The full pseudocode of \[4\] is not reproduced in the paper, but its
//! bound is (Table 1), and this baseline realizes an algorithm of the
//! same shape so that the old-vs-new comparison can be *executed*, not
//! just tabulated:
//!
//! 1. Identify the source bits below the memory boundary `m` that must
//!    move above it, and vice versa. For a permutation matrix these
//!    counts are equal — the `m`-cross-rank `ρ_m(A)`.
//! 2. Exchange them in chunks of at most `lg(M/B) = m − b` bit
//!    positions. Each chunked exchange is itself a BMMC permutation
//!    with `rank A_{m.., ..m} ≤ m − b`, so the Section 5 engine
//!    realizes it in exactly **two** passes.
//! 3. Finish with one MRC pass for the residual section-preserving
//!    rearrangement and the complement vector.
//!
//! Total: `2⌈ρ_m/(m−b)⌉ + 1` passes, which never exceeds the \[4\] bound
//! `2⌈ρ(A)/(m−b)⌉ + 1` because `ρ = max(ρ_b, ρ_m) ≥ ρ_m`. The new
//! algorithm (Theorem 21) uses `⌈rank γ̂/(m−b)⌉ + 1 ≤ ⌈ρ_m·…⌉` —
//! roughly half the passes — which is exactly the improvement the
//! paper claims ("reduces the innermost factor of 2 … to a factor
//! of 1").

use crate::bmmc::Bmmc;
use crate::classes::{is_bpc, is_mrc};
use crate::error::{BmmcError, Result};
use crate::factoring::{factor, Pass, PassKind};
use crate::plan::{Plan, RunReport};
use gf2::perm::{permutation_matrix, permutation_of_matrix};
use pdm::{DiskSystem, Record};

/// The baseline's plan: a list of one-pass permutations.
#[derive(Clone, Debug)]
pub struct BpcPlan {
    /// Passes in execution order.
    pub passes: Vec<Pass>,
    /// The m-cross-rank that determined the chunk count.
    pub rho_m: usize,
}

/// Builds the baseline plan for a BPC permutation at boundaries
/// `(b, m)`.
///
/// Returns an error if `perm` is not BPC.
pub fn bpc_baseline_plan(perm: &Bmmc, b: usize, m: usize) -> Result<BpcPlan> {
    let n = perm.bits();
    if !is_bpc(perm.matrix()) {
        return Err(BmmcError::Dimension(
            "baseline requires a BPC (permutation-matrix) input".to_string(),
        ));
    }
    if !(b < m && m < n) {
        return Err(BmmcError::Dimension(format!(
            "baseline requires b < m < n, got b={b}, m={m}, n={n}"
        )));
    }
    let pi = permutation_of_matrix(perm.matrix());
    // Bits that must cross the memory boundary, in each direction.
    let up: Vec<usize> = (0..m).filter(|&j| pi[j] >= m).collect();
    let down: Vec<usize> = (m..n).filter(|&j| pi[j] < m).collect();
    assert_eq!(up.len(), down.len(), "permutation crossing counts differ");
    let rho_m = up.len();

    let chunk = m - b;
    let mut passes: Vec<Pass> = Vec::new();
    // Running permutation applied so far (as a bit-position map).
    let mut applied: Vec<usize> = (0..n).collect();
    for (ups, downs) in up.chunks(chunk).zip(down.chunks(chunk)) {
        // Exchange bit positions ups[i] ↔ downs[i].
        let mut tau: Vec<usize> = (0..n).collect();
        for (&x, &y) in ups.iter().zip(downs.iter()) {
            tau.swap(x, y);
        }
        let tau_perm = Bmmc::linear(permutation_matrix(&tau))
            .expect("transposition products are permutations");
        // Realize the exchange with the Section 5 engine: rank of its
        // lower-left m-boundary block is |ups| ≤ m−b ⇒ exactly 2
        // passes (1 MLD + 1 MRC).
        let fac = factor(&tau_perm, b, m)?;
        debug_assert!(
            fac.num_passes() <= 2,
            "chunked exchange took {} passes",
            fac.num_passes()
        );
        passes.extend(fac.passes);
        // Track composition: applied := tau ∘ applied.
        for a in applied.iter_mut() {
            *a = tau[*a];
        }
    }
    // Residual sigma = pi ∘ applied⁻¹ must preserve both sections.
    let mut sigma = vec![0usize; n];
    for j in 0..n {
        sigma[applied[j]] = pi[j];
    }
    let sigma_matrix = permutation_matrix(&sigma);
    let residual_identity = sigma_matrix.is_identity() && perm.complement().is_zero();
    if !residual_identity {
        assert!(
            is_mrc(&sigma_matrix, m),
            "residual permutation crosses the memory boundary (bug)"
        );
        passes.push(Pass {
            matrix: sigma_matrix,
            complement: perm.complement().clone(),
            kind: PassKind::Mrc,
        });
    }
    Ok(BpcPlan { passes, rho_m })
}

/// Executes the baseline plan, DP-fused, data in portion 0. The plan's
/// pass count realizes the \[4\]-style bound `2⌈ρ_m/lg(M/B)⌉ + 1`.
pub fn perform_bpc_baseline<R: Record>(sys: &mut DiskSystem<R>, perm: &Bmmc) -> Result<RunReport> {
    let geom = sys.geometry();
    if perm.bits() != geom.n() {
        return Err(BmmcError::GeometryMismatch {
            perm_bits: perm.bits(),
            system_bits: geom.n(),
        });
    }
    let plan = bpc_baseline_plan(perm, geom.b(), geom.m())?;
    Plan::from_passes(&plan.passes, geom.b(), geom.m()).execute(sys, perm, |_| {
        unreachable!("BMMC-route plans never read record contents")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::passes::reference_permute;
    use gf2::perm::bpc_cross_rank;
    use pdm::Geometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn run(perm: &Bmmc) -> RunReport {
        let g = geom();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        let input: Vec<u64> = (0..g.records() as u64).collect();
        sys.load_records(0, &input);
        let report = perform_bpc_baseline(&mut sys, perm).unwrap();
        let expect = reference_permute(&input, |x| perm.target(x));
        assert_eq!(sys.dump_records(report.final_portion), expect);
        report
    }

    #[test]
    fn baseline_performs_random_bpc() {
        let mut rng = StdRng::seed_from_u64(91);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_bpc(&mut rng, g.n());
            let report = run(&perm);
            // [4]'s pass bound with ρ = max(ρ_b, ρ_m).
            let rho = bpc_cross_rank(perm.matrix(), g.b(), g.m());
            let bound = 2 * rho.div_ceil(g.lg_mb()) + 1;
            assert!(
                report.num_passes() <= bound,
                "{} passes exceed old bound {bound}",
                report.num_passes()
            );
        }
    }

    #[test]
    fn baseline_matches_its_pass_formula() {
        let mut rng = StdRng::seed_from_u64(92);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_bpc(&mut rng, g.n());
            let plan = bpc_baseline_plan(&perm, g.b(), g.m()).unwrap();
            let expect = if plan.rho_m == 0 {
                // no exchanges; possibly a single residual MRC pass
                plan.passes.len()
            } else {
                2 * plan.rho_m.div_ceil(g.lg_mb()) + 1
            };
            assert_eq!(plan.passes.len(), expect);
        }
    }

    #[test]
    fn new_algorithm_never_slower_than_baseline() {
        let mut rng = StdRng::seed_from_u64(93);
        let g = geom();
        for _ in 0..10 {
            let perm = catalog::random_bpc(&mut rng, g.n());
            let baseline = run(&perm);
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
            sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
            let new = crate::algorithm::perform_bmmc(&mut sys, &perm).unwrap();
            assert!(
                new.num_passes() <= baseline.num_passes(),
                "new {} > baseline {}",
                new.num_passes(),
                baseline.num_passes()
            );
        }
    }

    #[test]
    fn bit_reversal_baseline() {
        let g = geom();
        let report = run(&catalog::bit_reversal(g.n()));
        let rho = bpc_cross_rank(catalog::bit_reversal(g.n()).matrix(), g.b(), g.m());
        assert!(report.num_passes() <= 2 * rho.div_ceil(g.lg_mb()) + 1);
    }

    #[test]
    fn section_preserving_bpc_is_one_pass() {
        // A BPC permutation with no m-crossing: swap bits within each
        // section only.
        let g = geom();
        let n = g.n();
        let mut pi: Vec<usize> = (0..n).collect();
        pi.swap(0, 3); // below m = 6
        pi.swap(7, 9); // above m
        let perm = Bmmc::linear(permutation_matrix(&pi)).unwrap();
        let report = run(&perm);
        assert_eq!(report.num_passes(), 1);
    }

    #[test]
    fn rejects_non_bpc() {
        let mut rng = StdRng::seed_from_u64(94);
        let g = geom();
        // A random BMMC matrix is almost surely not a permutation
        // matrix; ensure the sampler gave us a non-BPC one.
        let perm = loop {
            let p = catalog::random_bmmc(&mut rng, g.n());
            if !is_bpc(p.matrix()) {
                break p;
            }
        };
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        assert!(perform_bpc_baseline(&mut sys, &perm).is_err());
    }
}
