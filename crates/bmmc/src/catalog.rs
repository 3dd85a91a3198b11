//! A catalog of named BMMC permutations and random samplers for each
//! subclass.
//!
//! The BPC examples are the ones the paper lists (Section 1): matrix
//! transposition, bit-reversal (FFT), vector-reversal, hypercube
//! permutations, and matrix reblocking. The Gray-code permutations are
//! the paper's examples of MRC permutations characterized by unit
//! upper-triangular matrices.

use crate::bmmc::Bmmc;
use crate::classes;
use gf2::elim::{inverse, is_nonsingular};
use gf2::perm::permutation_matrix;
use gf2::sample::{random_matrix, random_nonsingular, random_permutation, random_with_rank};
use gf2::{BitMatrix, BitVec};
use rand::Rng;

/// Transposition of an `R x S` matrix stored in row-major order,
/// `N = R·S`, `R = 2^lg_r`. Source address `x = col + S·row` maps to
/// `y = row + R·col`: a rotation of the address bits left by `lg_r`
/// positions — a BPC permutation.
pub fn transpose(n: usize, lg_r: usize) -> Bmmc {
    assert!(lg_r <= n, "lg R = {lg_r} exceeds n = {n}");
    rotation(n, lg_r)
}

/// Rotation of the address bits: bit `j` of the source moves to bit
/// `(j + k) mod n` of the target.
pub fn rotation(n: usize, k: usize) -> Bmmc {
    let pi: Vec<usize> = (0..n).map(|j| (j + k) % n).collect();
    Bmmc::linear(permutation_matrix(&pi)).expect("permutation matrices are nonsingular")
}

/// Bit-reversal permutation (FFT reordering): bit `j` moves to bit
/// `n−1−j`.
pub fn bit_reversal(n: usize) -> Bmmc {
    let pi: Vec<usize> = (0..n).map(|j| n - 1 - j).collect();
    Bmmc::linear(permutation_matrix(&pi)).expect("permutation matrices are nonsingular")
}

/// Vector reversal: `y = x ⊕ (2^n − 1)`, i.e. identity matrix with an
/// all-ones complement vector.
pub fn vector_reversal(n: usize) -> Bmmc {
    Bmmc::new(BitMatrix::identity(n), BitVec::ones(n)).expect("identity is nonsingular")
}

/// Hypercube permutation: exchange across the dimensions set in
/// `mask` — `y = x ⊕ mask`.
pub fn hypercube(n: usize, mask: u64) -> Bmmc {
    Bmmc::new(BitMatrix::identity(n), BitVec::from_u64(n, mask)).expect("identity is nonsingular")
}

/// The standard binary-reflected Gray code `g(x) = x ⊕ (x >> 1)`:
/// `y_i = x_i ⊕ x_{i+1}`, a unit upper-triangular (hence MRC)
/// characteristic matrix.
pub fn gray_code(n: usize) -> Bmmc {
    let a = BitMatrix::from_fn(n, n, |i, j| j == i || j == i + 1);
    Bmmc::linear(a).expect("unit upper-triangular is nonsingular")
}

/// The inverse Gray code: `y_i = x_i ⊕ x_{i+1} ⊕ … ⊕ x_{n−1}`, the
/// full unit upper-triangular matrix of ones.
pub fn gray_code_inverse(n: usize) -> Bmmc {
    let a = BitMatrix::from_fn(n, n, |i, j| j >= i);
    Bmmc::linear(a).expect("unit upper-triangular is nonsingular")
}

/// Matrix reblocking: swap the field of bits `[0, k)` with the field
/// `[k, 2k)` (e.g. switching between row-major tiles of two sizes) — a
/// BPC permutation.
pub fn swap_fields(n: usize, k: usize) -> Bmmc {
    assert!(2 * k <= n, "fields of width {k} do not fit in {n} bits");
    let pi: Vec<usize> = (0..n)
        .map(|j| {
            if j < k {
                j + k
            } else if j < 2 * k {
                j - k
            } else {
                j
            }
        })
        .collect();
    Bmmc::linear(permutation_matrix(&pi)).expect("permutation matrices are nonsingular")
}

/// The perfect shuffle: rotate the address bits up by one (the card
/// shuffle `x ↦ 2x mod (N−1)` on indices; Johnsson–Ho's generalized
/// shuffle with k = 1) — a BPC permutation.
pub fn perfect_shuffle(n: usize) -> Bmmc {
    rotation(n, 1)
}

/// The inverse perfect shuffle (rotate down by one).
pub fn perfect_unshuffle(n: usize) -> Bmmc {
    rotation(n, n - 1)
}

/// The butterfly exchange of FFT stage `k`: swap bit `k` with bit 0 —
/// the data exchange of a decimation-in-time butterfly acting on
/// block-distributed data.
pub fn butterfly(n: usize, k: usize) -> Bmmc {
    assert!(k < n, "stage {k} out of range for n = {n}");
    let mut pi: Vec<usize> = (0..n).collect();
    pi.swap(0, k);
    Bmmc::linear(permutation_matrix(&pi)).expect("permutation matrices are nonsingular")
}

/// Morton (Z-order) interleave for a square 2^k x 2^k grid, `n = 2k`:
/// row bits and column bits interleave, `(r, c) ↦ … c₁ r₁ c₀ r₀`.
/// Source address = `c + 2^k · r`.
pub fn morton(n: usize) -> Bmmc {
    assert!(
        n.is_multiple_of(2),
        "Morton order needs an even address width, got {n}"
    );
    let k = n / 2;
    // Source bit j < k is column bit c_j → target position 2j+1;
    // source bit k+i is row bit r_i → target position 2i.
    let pi: Vec<usize> = (0..n)
        .map(|j| if j < k { 2 * j + 1 } else { 2 * (j - k) })
        .collect();
    Bmmc::linear(permutation_matrix(&pi)).expect("permutation matrices are nonsingular")
}

/// A uniformly random BMMC permutation (random nonsingular matrix and
/// random complement vector).
pub fn random_bmmc<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Bmmc {
    let a = random_nonsingular(rng, n);
    let c = BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()));
    Bmmc::new(a, c).expect("sampled nonsingular")
}

/// A random BPC permutation (random permutation matrix, random
/// complement).
pub fn random_bpc<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Bmmc {
    let a = permutation_matrix(&random_permutation(rng, n));
    let c = BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()));
    Bmmc::new(a, c).expect("permutation matrices are nonsingular")
}

/// A random MRC permutation at memory boundary `m`: nonsingular
/// leading and trailing blocks, arbitrary upper-right, zero
/// lower-left.
pub fn random_mrc<R: Rng + ?Sized>(rng: &mut R, n: usize, m: usize) -> Bmmc {
    assert!(m <= n);
    let mut a = BitMatrix::zeros(n, n);
    a.set_block(0, 0, &random_nonsingular(rng, m));
    a.set_block(m, m, &random_nonsingular(rng, n - m));
    a.set_block(0, m, &random_matrix(rng, m, n - m));
    let c = BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()));
    debug_assert!(classes::is_mrc(&a, m));
    Bmmc::new(a, c).expect("block-triangular with nonsingular blocks")
}

/// A random MLD permutation at boundaries `(b, m)`.
///
/// Construction (using `ker α ⊆ ker δ ⟺ row δ ⊆ row α`, Lemma 11 and
/// its converse over GF(2)):
/// 1. Draw `α` of full row rank `m−b` (Lemma 12 forces this).
/// 2. Set `δ = X·α` for random `X`, so `row δ ⊆ row α`.
/// 3. Complete the top `b` rows of the leading `m` columns so the
///    leading `m x m` block `Λ` is nonsingular.
/// 4. Draw the upper-right block `Bʹ` freely and set the lower-right
///    block `Δ = δ·Λ⁻¹·Bʹ ⊕ (random nonsingular)`, which makes the
///    Schur complement — hence `A` — nonsingular.
pub fn random_mld<R: Rng + ?Sized>(rng: &mut R, n: usize, b: usize, m: usize) -> Bmmc {
    assert!(b <= m && m < n, "need b ≤ m < n");
    // Step 1: full-row-rank α ((m−b) x m).
    let alpha = random_with_rank(rng, m - b, m, m - b);
    // Step 3: top rows completing α to a nonsingular leading block.
    let lambda = loop {
        let mut l = BitMatrix::zeros(m, m);
        l.set_block(0, 0, &random_matrix(rng, b, m));
        l.set_block(b, 0, &alpha);
        if is_nonsingular(&l) {
            break l;
        }
    };
    // Step 2: δ = X·α.
    let x = random_matrix(rng, n - m, m - b);
    let delta = x.mul(&alpha);
    // Step 4: right section.
    let bprime = random_matrix(rng, m, n - m);
    let lambda_inv = inverse(&lambda).expect("constructed nonsingular");
    let schur = random_nonsingular(rng, n - m);
    let mut big_delta = delta.mul(&lambda_inv).mul(&bprime);
    // big_delta ⊕ schur over GF(2), entrywise.
    for i in 0..n - m {
        for j in 0..n - m {
            if schur.get(i, j) {
                let v = big_delta.get(i, j);
                big_delta.set(i, j, !v);
            }
        }
    }
    let mut a = BitMatrix::zeros(n, n);
    a.set_block(0, 0, &lambda);
    a.set_block(0, m, &bprime);
    a.set_block(m, 0, &delta);
    a.set_block(m, m, &big_delta);
    let c = BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()));
    debug_assert!(classes::is_mld(&a, b, m), "sampler produced non-MLD matrix");
    Bmmc::new(a, c).expect("Schur-complement construction is nonsingular")
}

/// An adversarial BMMC draw for the planner benches: the cross block
/// `A[split.., 0..split]` has the maximum possible rank
/// `min(split, n − split)`. At `split = b` this maximises the
/// Aggarwal–Vitter potential drop Theorem 3 charges for (the hardest
/// permutations the lower bound knows); at `split = m` it maximises
/// `rank γ̂`, hence the factoring pass count `⌈rank γ̂ / lg(M/B)⌉ + 1`
/// — the workloads where route choice is least forgiving.
pub fn random_worst_rank<R: Rng + ?Sized>(rng: &mut R, n: usize, split: usize) -> Bmmc {
    assert!(split <= n, "split {split} out of range for n = {n}");
    let r = split.min(n - split);
    let a = gf2::sample::random_with_submatrix_rank(rng, n, split, r);
    let c = BitVec::from_bits((0..n).map(|_| rng.gen::<bool>()));
    Bmmc::new(a, c).expect("sampled nonsingular")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{is_bpc, is_mld, is_mrc};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transpose_is_rotation() {
        // 8x4 matrix (n=5, lg_r=3): x = col + 4*row ↦ y = row + 8*col.
        let t = transpose(5, 3);
        assert!(is_bpc(t.matrix()));
        for row in 0..8u64 {
            for col in 0..4u64 {
                let x = col + 4 * row;
                let y = row + 8 * col;
                assert_eq!(t.target(x), y, "row={row}, col={col}");
            }
        }
    }

    #[test]
    fn bit_reversal_reverses() {
        let p = bit_reversal(4);
        assert_eq!(p.target(0b0001), 0b1000);
        assert_eq!(p.target(0b0110), 0b0110);
        assert_eq!(p.target(0b1011), 0b1101);
        assert!(is_bpc(p.matrix()));
    }

    #[test]
    fn vector_reversal_reverses_order() {
        let p = vector_reversal(4);
        for x in 0..16u64 {
            assert_eq!(p.target(x), 15 - x);
        }
    }

    #[test]
    fn hypercube_is_xor() {
        let p = hypercube(5, 0b10010);
        for x in 0..32u64 {
            assert_eq!(p.target(x), x ^ 0b10010);
        }
    }

    #[test]
    fn gray_code_matches_formula() {
        let g = gray_code(6);
        for x in 0..64u64 {
            assert_eq!(g.target(x), x ^ (x >> 1));
        }
    }

    #[test]
    fn gray_code_inverse_is_inverse() {
        let g = gray_code(6);
        let gi = gray_code_inverse(6);
        for x in 0..64u64 {
            assert_eq!(gi.target(g.target(x)), x);
        }
        assert!(g.compose(&gi).is_identity());
    }

    #[test]
    fn gray_codes_are_mrc_for_any_m() {
        // Unit upper-triangular matrices are MRC for every memory
        // boundary (paper, Section 1 MRC discussion).
        let g = gray_code(8);
        let gi = gray_code_inverse(8);
        for m in 1..8 {
            assert!(is_mrc(g.matrix(), m), "gray code not MRC at m={m}");
            assert!(is_mrc(gi.matrix(), m), "inverse gray code not MRC at m={m}");
        }
    }

    #[test]
    fn swap_fields_swaps() {
        let p = swap_fields(6, 2);
        // low 2 bits and next 2 bits exchange.
        assert_eq!(p.target(0b00_01_10), 0b00_10_01);
        assert_eq!(p.target(0b11_00_11), 0b11_11_00);
    }

    #[test]
    fn perfect_shuffle_doubles_index() {
        let n = 6;
        let p = perfect_shuffle(n);
        for x in 0..(1u64 << n) {
            // x ↦ 2x mod (2^n − 1) for x < 2^n − 1 (the classic riffle).
            let expect = if x == (1 << n) - 1 {
                x
            } else {
                (2 * x) % ((1 << n) - 1)
            };
            assert_eq!(p.target(x), expect, "x = {x}");
        }
        assert!(perfect_shuffle(n)
            .compose(&perfect_unshuffle(n))
            .is_identity());
    }

    #[test]
    fn butterfly_swaps_stage_bit() {
        let p = butterfly(8, 5);
        assert_eq!(p.target(0b0000_0001), 0b0010_0000);
        assert_eq!(p.target(0b0010_0000), 0b0000_0001);
        assert_eq!(p.target(0b0100_0010), 0b0100_0010);
        assert!(p.compose(&p).is_identity(), "butterflies are involutions");
    }

    #[test]
    fn morton_interleaves_row_and_column_bits() {
        // 4x4 grid (k=2, n=4): (r, c) = (0b10, 0b01) → z = 0b0110.
        let p = morton(4);
        let addr = 0b01 + (0b10 << 2); // c=1, r=2
        assert_eq!(p.target(addr), 0b0110);
        // The Z-curve visits (0,0),(1,0),(0,1),(1,1),... in (r,c) pairs.
        assert_eq!(p.target(0b0000), 0);
        assert_eq!(p.target(0b0100), 1); // r=1,c=0
        assert_eq!(p.target(0b0001), 2); // r=0,c=1
        assert_eq!(p.target(0b0101), 3);
    }

    #[test]
    fn random_samplers_hit_their_classes() {
        let mut rng = StdRng::seed_from_u64(33);
        let (n, b, m) = (10, 2, 6);
        for _ in 0..20 {
            let p = random_bpc(&mut rng, n);
            assert!(is_bpc(p.matrix()));
            let p = random_mrc(&mut rng, n, m);
            assert!(is_mrc(p.matrix(), m));
            let p = random_mld(&mut rng, n, b, m);
            assert!(is_mld(p.matrix(), b, m));
            let p = random_bmmc(&mut rng, n);
            assert!(classes::is_bmmc(p.matrix()));
        }
    }

    #[test]
    fn random_mld_not_always_mrc() {
        // MLD is a strictly larger class; over a few samples we should
        // see at least one non-MRC member.
        let mut rng = StdRng::seed_from_u64(34);
        let (n, b, m) = (10, 2, 6);
        let any_non_mrc = (0..30)
            .map(|_| random_mld(&mut rng, n, b, m))
            .any(|p| !is_mrc(p.matrix(), m));
        assert!(any_non_mrc, "all sampled MLD matrices were MRC");
    }

    #[test]
    fn worst_rank_sampler_saturates_the_cross_rank() {
        let mut rng = StdRng::seed_from_u64(31);
        for (n, split) in [(10usize, 2usize), (10, 6), (13, 4), (16, 8)] {
            let p = random_worst_rank(&mut rng, n, split);
            assert_eq!(
                gf2::elim::rank(&p.matrix().submatrix(split..n, 0..split)),
                split.min(n - split),
                "n={n} split={split}"
            );
        }
    }

    #[test]
    fn permuted_gray_code_is_bmmc_not_mrc() {
        // Section 6's motivating example: Π·G with Π a bit permutation
        // is BMMC but not necessarily MRC.
        let g = gray_code(6);
        let pi = rotation(6, 3);
        let pg = pi.compose(&g);
        assert!(classes::is_bmmc(pg.matrix()));
        assert!(!is_mrc(pg.matrix(), 3));
    }
}
