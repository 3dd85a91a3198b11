//! Property tests: block-hoisted address evaluation ≡ per-address
//! evaluation. For any BMMC permutation `y = Ax ⊕ c` and any block
//! size, [`bmmc::BlockEvaluator`] must reconstruct every target
//! address from its hoisted pieces — `block_base(x >> b) ^
//! residual(x & (B−1))` — exactly as [`bmmc::AffineEvaluator`]
//! computes it per address, across the five engine-equivalence
//! geometries (B=1, D=1, and the M=2BD / M=BD boundaries included)
//! for random and catalog matrices. Block-preserving matrices must
//! additionally report fanout 1, and every record of a source block
//! must land in the one target block its hoisted base names.

use bmmc::{catalog, AffineEvaluator, BlockEvaluator, Bmmc};
use gf2::{BitMatrix, BitVec};
use pdm::Geometry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The geometry zoo of `tests/engine_equivalence.rs`: comfortable,
/// degenerate-D, and memory-boundary cases.
fn geometries() -> Vec<Geometry> {
    vec![
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap(),
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 5).unwrap(),
        Geometry::new(1 << 10, 1 << 1, 1 << 3, 1 << 4).unwrap(),
        Geometry::new(1 << 11, 1, 1 << 3, 1 << 4).unwrap(),
    ]
}

/// Exhaustively checks, for all `2^n` addresses, that the hoisted
/// evaluation reassembles exactly the per-address result (which itself
/// must match the algebraic [`Bmmc::target`]).
fn assert_block_matches_affine(perm: &Bmmc, b: usize) -> Result<(), TestCaseError> {
    let n = perm.bits();
    let aff = AffineEvaluator::new(perm);
    let bev = BlockEvaluator::new(perm, b as u32);
    let mask = (1u64 << b) - 1;
    for x in 0..1u64 << n {
        let expect = perm.target(x);
        prop_assert_eq!(aff.eval(x), expect, "affine diverged at {}", x);
        prop_assert_eq!(
            bev.block_base(x >> b) ^ bev.residual(x & mask),
            expect,
            "hoisted evaluation diverged at {} (b = {})",
            x,
            b
        );
    }
    // The batch entry point over the full address space agrees too.
    let xs: Vec<u64> = (0..1u64 << n).collect();
    let mut ys = vec![0u64; xs.len()];
    aff.eval_batch(&xs, &mut ys);
    for (x, y) in xs.iter().zip(&ys) {
        prop_assert_eq!(*y, perm.target(*x), "batch diverged at {}", x);
    }
    Ok(())
}

/// Builds a block-preserving BMMC: block-diagonal `A` (a `b×b` mixer
/// on the offset bits, an `(n−b)×(n−b)` mixer on the block bits) with
/// an arbitrary complement. Offset bits never reach block bits, so
/// every source block maps onto exactly one target block.
fn random_block_preserving(rng: &mut StdRng, n: usize, b: usize) -> Bmmc {
    let mut a = BitMatrix::zeros(n, n);
    if b > 0 {
        let lo = catalog::random_bmmc(rng, b);
        for i in 0..b {
            for j in 0..b {
                a.set(i, j, lo.matrix().get(i, j));
            }
        }
    }
    let hi = catalog::random_bmmc(rng, n - b);
    for i in 0..n - b {
        for j in 0..n - b {
            a.set(b + i, b + j, hi.matrix().get(i, j));
        }
    }
    let mut c = BitVec::zeros(n);
    for i in 0..n {
        c.set(i, rng.gen_bool(0.5));
    }
    Bmmc::new(a, c).expect("block-diagonal matrix is nonsingular")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random BMMC matrices at the zoo's own block size: hoisted ≡
    /// per-address, exhaustively over all `N` addresses.
    #[test]
    fn block_eval_matches_affine_for_random_bmmc(
        s in any::<u64>(),
        gi in 0usize..5,
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        assert_block_matches_affine(&perm, g.b())?;
    }

    /// The same equivalence at *every* split point `0 ≤ b ≤ n`, not
    /// just the geometry's: the hoisting identity is split-agnostic.
    #[test]
    fn block_eval_matches_affine_for_all_splits(
        s in any::<u64>(),
        b in 0usize..=10,
    ) {
        let n = 10usize;
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, n);
        assert_block_matches_affine(&perm, b)?;
    }

    /// Block-preserving matrices announce themselves (`fanout == 1`,
    /// the only block-level residual being 0), and every record of
    /// source block `blk` lands, per address, in target block
    /// `block_base(blk) >> b`.
    #[test]
    fn block_preserving_maps_have_fanout_one(
        s in any::<u64>(),
        gi in 0usize..5,
    ) {
        let g = geometries()[gi];
        let (n, b) = (g.n(), g.b());
        let mut rng = StdRng::seed_from_u64(s);
        let perm = random_block_preserving(&mut rng, n, b);
        let aff = AffineEvaluator::new(&perm);
        let bev = BlockEvaluator::new(&perm, b as u32);
        prop_assert!(bev.preserves_blocks(), "block-diagonal must have fanout 1");
        prop_assert_eq!(bev.block_residuals(), Some(&[0u64][..]));
        for blk in 0..1u64 << (n - b) {
            let target = bev.block_base(blk) >> b;
            for off in 0..1u64 << b {
                prop_assert_eq!(
                    aff.eval((blk << b) | off) >> b,
                    target,
                    "block {} offset {} left its target block",
                    blk,
                    off
                );
            }
        }
    }

    /// Fanout counts the distinct block-level residuals: a random
    /// (generally non-block-preserving) matrix reports exactly the
    /// number of distinct values of `(A·off) >> b` seen per-address.
    #[test]
    fn fanout_counts_distinct_block_residuals(
        s in any::<u64>(),
        gi in 0usize..5,
    ) {
        let g = geometries()[gi];
        let (n, b) = (g.n(), g.b());
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, n);
        let bev = BlockEvaluator::new(&perm, b as u32);
        let aff = AffineEvaluator::new(&perm);
        let c = perm.target(0);
        let mut distinct: Vec<u64> = (0..1u64 << b)
            .map(|off| (aff.eval(off) ^ c) >> b)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(bev.fanout(), Some(distinct.len()));
        prop_assert_eq!(bev.preserves_blocks(), distinct.len() == 1);
    }
}

/// The catalog's named permutations at each zoo geometry — the
/// matrices production actually runs — round-trip the hoisted
/// evaluation too.
#[test]
fn catalog_permutations_hoist_exactly() {
    for g in geometries() {
        let n = g.n();
        for perm in [
            catalog::bit_reversal(n),
            catalog::gray_code(n),
            catalog::vector_reversal(n),
            catalog::transpose(n, n / 2),
        ] {
            assert_block_matches_affine(&perm, g.b()).unwrap();
        }
    }
}
