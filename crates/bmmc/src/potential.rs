//! The Aggarwal–Vitter potential function used in the Section 2 lower
//! bound, made executable.
//!
//! For target group `i` (the records destined for target block `i`),
//! `g_block(i, k)` counts members of group `i` currently in block `k`,
//! and the togetherness function of a block is
//! `Σ_i f(g_block(i, k))` with `f(x) = x lg x`. The potential `Φ` is
//! the sum over all blocks (plus memory, which is empty between
//! passes). The paper shows:
//!
//! * `Φ(0) = N (lg B − rank γ)` for a BMMC permutation (eq. 9, via
//!   Lemma 10),
//! * `Φ(final) = N lg B`,
//! * each parallel I/O increases `Φ` by at most
//!   `Δ_max = O(B·D·lg(M/B))`,
//!
//! which yields Theorem 3. Tracking `Φ` across the passes of the
//! algorithm shows how each pass "spends" its I/Os on potential gain —
//! the Section 7 open question asks whether a pass can always gain
//! `Ω((N/BD)·Δ_max)`.

use crate::error::Result;
use crate::factoring::Factorization;
use crate::passes::{execute_pass, PassStats};
use pdm::{BlockRef, DiskSystem, Record};
use std::collections::HashMap;

/// `f(x) = x lg x`, continuously extended with `f(0) = 0`.
pub fn f(x: f64) -> f64 {
    if x > 0.0 {
        x * x.log2()
    } else {
        0.0
    }
}

/// The togetherness value of one multiset of group counts.
pub fn togetherness(counts: impl IntoIterator<Item = usize>) -> f64 {
    counts.into_iter().map(|c| f(c as f64)).sum()
}

/// Computes `Φ` for the records currently in `portion` of the disk
/// system (memory assumed empty, as it is between passes).
/// `target_block_of` maps a record to its final target block number.
pub fn potential<R: Record>(
    sys: &mut DiskSystem<R>,
    portion: usize,
    mut target_block_of: impl FnMut(&R) -> u64,
) -> f64 {
    let geom = sys.geometry();
    let base = sys.portion_base(portion);
    let mut phi = 0.0;
    let mut groups: HashMap<u64, usize> = HashMap::new();
    for slot in 0..geom.stripes() {
        for disk in 0..geom.disks() {
            let block = sys.peek_block(BlockRef {
                disk,
                slot: base + slot,
            });
            groups.clear();
            for rec in &block {
                *groups.entry(target_block_of(rec)).or_insert(0) += 1;
            }
            phi += togetherness(groups.values().copied());
        }
    }
    phi
}

/// The closed-form initial potential for a BMMC permutation (eq. 9):
/// `Φ(0) = N (lg B − rank γ)` with `γ = A_{b..n−1, 0..b−1}`.
pub fn initial_potential_formula(records: usize, lg_b: usize, rank_gamma: usize) -> f64 {
    records as f64 * (lg_b as f64 - rank_gamma as f64)
}

/// The final potential `Φ(t) = N lg B` (every block fully together).
pub fn final_potential(records: usize, lg_b: usize) -> f64 {
    (records * lg_b) as f64
}

/// The Section 7 sharpened per-I/O potential gain limit:
/// `Δ_max ≤ B (2/(e ln 2) + lg(M/B))`, times `D` for D disks.
pub fn delta_max(block: usize, disks: usize, lg_mb: usize) -> f64 {
    block as f64
        * disks as f64
        * (2.0 / (std::f64::consts::E * std::f64::consts::LN_2) + lg_mb as f64)
}

/// Executes a factorization pass by pass, recording `Φ` before the
/// first pass and after each pass. Records must carry their original
/// source address via `key_of`, and `target` is the overall
/// permutation being performed.
///
/// Returns each pass's kind and I/O, and the potential trajectory
/// (`trajectory.len() == passes + 1`).
pub fn trace_potential<R: Record>(
    sys: &mut DiskSystem<R>,
    fac: &Factorization,
    key_of: impl Fn(&R) -> u64 + Copy,
    target: impl Fn(u64) -> u64 + Copy,
) -> Result<(Vec<PassStats>, Vec<f64>)> {
    let b = sys.geometry().b();
    let group = move |rec: &R| target(key_of(rec)) >> b;
    let mut trajectory = vec![potential(sys, 0, group)];
    let mut stats = Vec::with_capacity(fac.passes.len());
    let mut src = 0usize;
    for pass in &fac.passes {
        let dst = 1 - src;
        stats.push(execute_pass(sys, src, dst, pass)?);
        src = dst;
        trajectory.push(potential(sys, src, group));
    }
    Ok((stats, trajectory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::factoring::factor;
    use gf2::elim::rank;
    use pdm::{Geometry, TaggedRecord};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    #[test]
    fn f_properties() {
        assert_eq!(f(0.0), 0.0);
        assert_eq!(f(1.0), 0.0);
        assert_eq!(f(2.0), 2.0);
        assert_eq!(f(4.0), 8.0);
    }

    #[test]
    fn togetherness_of_full_block() {
        // B records all in one group: f(B) = B lg B.
        assert_eq!(togetherness([4]), 8.0);
        // Split across 4 groups: zero.
        assert_eq!(togetherness([1, 1, 1, 1]), 0.0);
    }

    fn loaded_system(g: Geometry) -> DiskSystem<TaggedRecord> {
        let mut sys = DiskSystem::new_mem(g, 2);
        let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
        sys.load_records(0, &input);
        sys
    }

    #[test]
    fn initial_potential_matches_eq9() {
        // Lemma 10 ⇒ Φ(0) = N (lg B − rank γ). Check on random BMMC
        // permutations with various γ ranks.
        let mut rng = StdRng::seed_from_u64(81);
        let g = geom();
        for r in 0..=g.b().min(g.n() - g.b()) {
            let a = gf2::sample::random_with_submatrix_rank(&mut rng, g.n(), g.b(), r);
            let perm = crate::Bmmc::linear(a).unwrap();
            let mut sys = loaded_system(g);
            let got = potential(&mut sys, 0, |rec| perm.target(rec.key) >> g.b());
            let expect = initial_potential_formula(g.records(), g.b(), r);
            assert!(
                (got - expect).abs() < 1e-6,
                "rank {r}: Φ(0) = {got}, eq. (9) says {expect}"
            );
        }
    }

    #[test]
    fn identity_starts_at_final_potential() {
        let g = geom();
        let mut sys = loaded_system(g);
        let got = potential(&mut sys, 0, |rec| rec.key >> g.b());
        assert_eq!(got, final_potential(g.records(), g.b()));
    }

    #[test]
    fn trajectory_ends_at_n_lg_b_and_is_monotone() {
        let mut rng = StdRng::seed_from_u64(82);
        let g = geom();
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let fac = factor(&perm, g.b(), g.m()).unwrap();
        let mut sys = loaded_system(g);
        let (passes, traj) = trace_potential(
            &mut sys,
            &fac,
            |rec: &TaggedRecord| rec.key,
            |x| perm.target(x),
        )
        .unwrap();
        assert_eq!(traj.len(), passes.len() + 1);
        let fin = final_potential(g.records(), g.b());
        assert!(
            (traj.last().unwrap() - fin).abs() < 1e-6,
            "final Φ = {} ≠ N lg B = {fin}",
            traj.last().unwrap()
        );
        // Initial value matches eq. (9).
        let r = rank(&perm.matrix().submatrix(g.b()..g.n(), 0..g.b()));
        let init = initial_potential_formula(g.records(), g.b(), r);
        assert!((traj[0] - init).abs() < 1e-6);
    }

    #[test]
    fn per_io_gain_respects_delta_max() {
        // Across each pass, the potential gain divided by the number of
        // parallel I/Os in the pass must not exceed Δ_max.
        let mut rng = StdRng::seed_from_u64(83);
        let g = geom();
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let fac = factor(&perm, g.b(), g.m()).unwrap();
        let mut sys = loaded_system(g);
        let (passes, traj) = trace_potential(
            &mut sys,
            &fac,
            |rec: &TaggedRecord| rec.key,
            |x| perm.target(x),
        )
        .unwrap();
        let dmax = delta_max(g.block(), g.disks(), g.lg_mb());
        for (i, w) in traj.windows(2).enumerate() {
            let gain = w[1] - w[0];
            let ios = passes[i].ios.parallel_ios() as f64;
            assert!(
                gain <= dmax * ios + 1e-6,
                "pass {i} gained {gain} over {ios} I/Os (Δ_max = {dmax})"
            );
        }
    }

    #[test]
    fn lemma10_group_structure() {
        // Each source block maps to exactly 2^r target blocks with
        // B/2^r records each.
        let mut rng = StdRng::seed_from_u64(84);
        let g = geom();
        let b = g.b();
        for r in 0..=b.min(g.n() - b) {
            let a = gf2::sample::random_with_submatrix_rank(&mut rng, g.n(), b, r);
            let perm = crate::Bmmc::linear(a).unwrap();
            for k in [0usize, 7, 100] {
                // source block k: addresses kB .. kB+B.
                let mut groups: HashMap<u64, usize> = HashMap::new();
                for off in 0..g.block() as u64 {
                    let x = (k as u64) * g.block() as u64 + off;
                    *groups.entry(perm.target(x) >> b).or_insert(0) += 1;
                }
                assert_eq!(groups.len(), 1 << r, "block {k}: wrong group count");
                for (&i, &cnt) in &groups {
                    assert_eq!(cnt, g.block() >> r, "block {k} group {i}");
                }
            }
        }
    }
}
