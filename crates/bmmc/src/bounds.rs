//! Every bound the paper states, as executable formulas.
//!
//! These power the table/figure regenerators: each experiment prints a
//! bound column (from here) next to a measured column (from the
//! simulator).

use pdm::Geometry;

/// Theorem 3 (universal lower bound), as the expression inside Ω(·):
/// `(N/BD) · (1 + rank γ / lg(M/B))` with `γ = A_{b..n−1, 0..b−1}`.
pub fn theorem3_lower(geom: &Geometry, rank_gamma: usize) -> f64 {
    geom.stripes() as f64 * (1.0 + rank_gamma as f64 / geom.lg_mb() as f64)
}

/// Theorem 21 (upper bound), exact:
/// `(2N/BD) · (⌈rank γ / lg(M/B)⌉ + 2)`.
pub fn theorem21_upper(geom: &Geometry, rank_gamma: usize) -> u64 {
    (geom.ios_per_pass() * (rank_gamma.div_ceil(geom.lg_mb()) + 2)) as u64
}

/// The exact pass count our factoring produces (eq. 17 + 1):
/// `⌈rank γ̂ / lg(M/B)⌉ + 1` with `γ̂ = A_{m..n−1, 0..m−1}`.
pub fn factoring_passes(geom: &Geometry, rank_gamma_m: usize) -> usize {
    rank_gamma_m.div_ceil(geom.lg_mb()) + 1
}

/// Section 7's sharpened lower bound, exact constants:
/// `(2N/BD) · rank γ / (2/(e ln 2) + lg(M/B))`.
pub fn precise_lower(geom: &Geometry, rank_gamma: usize) -> f64 {
    let denom = 2.0 / (std::f64::consts::E * std::f64::consts::LN_2) + geom.lg_mb() as f64;
    (geom.ios_per_pass() as f64 / 2.0) * 2.0 * rank_gamma as f64 / denom
}

/// The function `H(N, M, B)` of eq. (1), used by the *old* BMMC bound
/// of Cormen \[4\].
pub fn h_function(geom: &Geometry) -> usize {
    let (n, m, b) = (geom.n(), geom.m(), geom.b());
    let lg_mb = geom.lg_mb();
    if 2 * m <= n {
        // M ≤ √N
        4 * b.div_ceil(lg_mb) + 9
    } else if 2 * m < n + b {
        // √N < M < √(NB)
        4 * (n - b).div_ceil(lg_mb) + 1
    } else {
        // √(NB) ≤ M
        5
    }
}

/// The old BMMC upper bound from Cormen \[4\] (Table 1):
/// `(2N/BD) · (2⌈(lg M − r)/lg(M/B)⌉ + H(N,M,B))`, where `r` is the
/// rank of the *leading* `lg M x lg M` submatrix.
pub fn old_bmmc_upper(geom: &Geometry, rank_leading: usize) -> u64 {
    let m = geom.m();
    assert!(rank_leading <= m);
    let passes = 2 * (m - rank_leading).div_ceil(geom.lg_mb()) + h_function(geom);
    (geom.ios_per_pass() * passes) as u64
}

/// The old BPC upper bound from Cormen \[4\] (Table 1):
/// `(2N/BD) · (2⌈ρ(A)/lg(M/B)⌉ + 1)` with `ρ` the cross-rank (eq. 3).
pub fn old_bpc_upper(geom: &Geometry, cross_rank: usize) -> u64 {
    let passes = 2 * cross_rank.div_ceil(geom.lg_mb()) + 1;
    (geom.ios_per_pass() * passes) as u64
}

/// The Vitter–Shriver general-permutation cost,
/// `Θ(min(N/D, (N/BD)·lg(N/B)/lg(M/B)))`, as the expression
/// `min(2N/D, (2N/BD)·(1 + ⌈(n−m)/(m−b)⌉))`: one run-formation pass
/// plus the merge passes of an ideal merge with fan-in `M/B`, each pass
/// `2N/BD` parallel I/Os; or `2N/D` one-record-at-a-time I/Os when
/// blocks are tiny. Returns `(per_record_term, sorting_term, min)`.
///
/// This is the bound's expression, not a count any executor performs:
/// the `extsort` merges reach fan-in `M/BD − 1` (striped) or
/// `M/B − D − 1` at `D` reads per stripe (forecasting). Their exact
/// costs are [`merge_sort_ios`], which `bmmc-cli info` prints beside
/// this bound.
pub fn general_permutation_bound(geom: &Geometry) -> (u64, u64, u64) {
    let per_record = (2 * geom.records() / geom.disks()) as u64;
    let merge_passes = 1 + (geom.n() - geom.m()).div_ceil(geom.lg_mb());
    let sorting = (geom.ios_per_pass() * merge_passes) as u64;
    (per_record, sorting, per_record.min(sorting))
}

/// The merge-sort schedule and its exact costs belong to `extsort`,
/// which executes them; they are re-exported here beside the bounds
/// they are compared with.
pub use extsort::{
    merge_sort_ios, merge_sort_levels, merge_sort_passes, MergeLevel, MergeStrategy,
};

/// Section 6's detection cost in parallel reads:
/// `N/BD + ⌈(lg(N/B) + 1)/D⌉`.
pub fn detection_reads(geom: &Geometry) -> u64 {
    (geom.stripes() + (geom.lg_nb() + 1).div_ceil(geom.disks())) as u64
}

/// MRC/MLD one-pass cost: `2N/BD` (Theorem 15 / Table 1).
pub fn one_pass_ios(geom: &Geometry) -> u64 {
    geom.ios_per_pass() as u64
}

/// The trivial full-scan lower bound `Ω(N/BD)` (Lemma 9 divided by D),
/// as the expression `N/B /D` — every non-identity BMMC permutation
/// must move at least half the blocks.
pub fn trivial_lower(geom: &Geometry) -> f64 {
    geom.stripes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n_exp: u32, b_exp: u32, d_exp: u32, m_exp: u32) -> Geometry {
        Geometry::new(1 << n_exp, 1 << b_exp, 1 << d_exp, 1 << m_exp).unwrap()
    }

    #[test]
    fn theorem3_grows_with_rank() {
        let geom = g(20, 4, 2, 10);
        let base = theorem3_lower(&geom, 0);
        assert_eq!(base, geom.stripes() as f64);
        assert!(theorem3_lower(&geom, 4) > base);
        // rank γ = lg(M/B) doubles the bound.
        assert_eq!(theorem3_lower(&geom, geom.lg_mb()), 2.0 * base);
    }

    #[test]
    fn theorem21_matches_hand_computation() {
        // N=2^20, B=2^4, D=2^2, M=2^10: 2N/BD = 2^15, lg(M/B)=6.
        let geom = g(20, 4, 2, 10);
        assert_eq!(theorem21_upper(&geom, 0), (1 << 15) * 2);
        assert_eq!(theorem21_upper(&geom, 6), (1 << 15) * 3);
        assert_eq!(theorem21_upper(&geom, 7), (1 << 15) * 4);
    }

    #[test]
    fn upper_dominates_lower() {
        for rank in 0..=16 {
            let geom = g(22, 4, 3, 12);
            assert!(
                theorem21_upper(&geom, rank) as f64 >= theorem3_lower(&geom, rank),
                "rank {rank}"
            );
            assert!(
                theorem21_upper(&geom, rank) as f64 >= precise_lower(&geom, rank),
                "precise, rank {rank}"
            );
        }
    }

    #[test]
    fn precise_lower_close_to_upper_constant() {
        // Section 7: 2/(e ln 2) ≈ 1.06, so for rank γ a multiple of
        // lg(M/B) the precise lower bound is close to 2N/BD·rank/lg(M/B).
        let geom = g(24, 4, 2, 12);
        let r = 2 * geom.lg_mb();
        let lower = precise_lower(&geom, r);
        let naive = (geom.ios_per_pass() * 2) as f64;
        assert!(lower < naive);
        assert!(lower > 0.8 * naive, "constant should be close to 1");
    }

    #[test]
    fn h_function_three_regimes() {
        // M ≤ √N: n=20, m=8 (2m=16 ≤ 20), b=4 ⇒ 4·⌈4/4⌉+9 = 13.
        assert_eq!(h_function(&g(20, 4, 2, 8)), 13);
        // √N < M < √(NB): n=20, b=4, m=11 (22 > 20, 22 < 24)
        // ⇒ 4·⌈16/7⌉+1 = 13.
        assert_eq!(h_function(&g(20, 4, 2, 11)), 13);
        // √(NB) ≤ M: n=20, b=4, m=12 (24 ≥ 24) ⇒ 5.
        assert_eq!(h_function(&g(20, 4, 2, 12)), 5);
    }

    #[test]
    fn new_bound_beats_old_bmmc_bound() {
        // For any rank pair the new bound's pass count is at most the
        // old one's: ⌈r_γ/lg(M/B)⌉ + 2 vs 2⌈(lgM−r)/lg(M/B)⌉ + H ≥ 5.
        let geom = g(20, 4, 2, 10);
        for r_gamma in 0..=4 {
            for r_lead in 0..=10 {
                assert!(
                    theorem21_upper(&geom, r_gamma) <= old_bmmc_upper(&geom, r_lead),
                    "r_gamma={r_gamma}, r_lead={r_lead}"
                );
            }
        }
    }

    #[test]
    fn general_bound_min_terms() {
        let geom = g(20, 4, 2, 10);
        let (per_rec, sorting, min) = general_permutation_bound(&geom);
        assert_eq!(per_rec, 1 << 19);
        // run formation + ⌈(20−10)/6⌉ = 2 merge passes, each 2·2^14.
        assert_eq!(sorting, 3 * (2 << 14));
        assert_eq!(min, sorting.min(per_rec));
    }

    #[test]
    fn general_bound_sorting_term_is_below_the_executed_sorts() {
        // The fan-in M/B expression is a bound, not an extsort count:
        // single-buffered (fan-in 15) needs 4 passes, forecasting
        // (fan-in 59) 3 passes at D reads per merged stripe.
        let geom = g(20, 4, 2, 10);
        assert_eq!(general_permutation_bound(&geom).1, 98_304);
        assert_eq!(
            merge_sort_ios(&geom, MergeStrategy::SingleBuffered),
            Some(131_072)
        );
        assert_eq!(
            merge_sort_passes(&geom, MergeStrategy::SingleBuffered),
            Some(4)
        );
        assert_eq!(
            merge_sort_ios(&geom, MergeStrategy::Forecast),
            Some(196_608)
        );
        assert_eq!(merge_sort_passes(&geom, MergeStrategy::Forecast), Some(3));
    }

    #[test]
    fn detection_cost_formula() {
        // N=2^13, B=2^3, D=2^4: N/BD = 2^6, ⌈(10+1)/16⌉ = 1 → 65.
        let geom = g(13, 3, 4, 8);
        assert_eq!(detection_reads(&geom), 64 + 1);
        // Single disk: N/B + lg(N/B)+1.
        let geom1 = g(13, 3, 0, 8);
        assert_eq!(detection_reads(&geom1), 1024 + 11);
    }

    #[test]
    fn low_rank_beats_general_sort() {
        // The headline claim: when rank γ is low, the BMMC bound beats
        // the general-permutation (sorting) bound.
        let geom = g(26, 10, 2, 13); // lg(N/B)=16, lg(M/B)=3
        let (_, _, general) = general_permutation_bound(&geom);
        assert!(theorem21_upper(&geom, 0) < general);
        assert!(theorem21_upper(&geom, 1) < general);
        assert!(theorem21_upper(&geom, 3) < general);
    }
}
