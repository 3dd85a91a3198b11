//! Fast evaluation of `y = A x ⊕ c` for `n ≤ 64`.
//!
//! The executors apply the affine map to up to `2^n` addresses per
//! pass, so this module is the hot kernel of the whole simulator. It
//! offers two precomputed forms:
//!
//! * [`AffineEvaluator`] — generic byte slicing: for each byte
//!   position of the input, a 256-entry table of the XOR of the matrix
//!   columns selected by that byte. Evaluating an address is `⌈n/8⌉`
//!   table lookups and XORs — no per-bit branching.
//!   [`AffineEvaluator::eval_batch`] amortises the table walk over a
//!   whole slice of addresses, one table at a time, for full-scan
//!   consumers ([`crate::verify`]) whose inputs are data-dependent.
//!
//! * [`BlockEvaluator`] — block hoisting. In the parallel disk model
//!   (paper Section 2) the low `b = lg B` address bits only select a
//!   record *within* its block, so writing `x = blk·2^b ⊕ off` splits
//!   the affine map as
//!
//!   ```text
//!   A x ⊕ c = (A·(blk << b) ⊕ c) ⊕ A·off = block_base(blk) ⊕ residual(off)
//!   ```
//!
//!   `block_base` touches only the high `n − b` matrix columns and is
//!   evaluated **once per source block**; `residual` touches only the
//!   low `b` columns and is precomputed **once per matrix** as a
//!   `2^min(b, 16)`-entry table ([`RESIDUAL_TABLE_MAX_BITS`]). Kernel
//!   work per pass drops from `O(N)` full evaluations to `O(N/B)`
//!   high-bit evaluations plus one XOR and one table load per record.
//!
//!   Because XOR acts bitwise, the *block* part of the target obeys
//!   the same split: `block(y) = (block_base(blk) ⊕ residual(off)) >> b`,
//!   so each source block fans out to exactly
//!   [`BlockEvaluator::fanout`] distinct target blocks — one per
//!   distinct block-level residual — each receiving `B / fanout` of
//!   its records. This is the block-level structure behind the
//!   one-pass classes of paper Sections 3–4 (MRC keeps
//!   `block_base >> m` constant per memoryload; MLD's independent
//!   writes spread the fanned-out blocks one per disk). When the
//!   fanout is 1 the permutation is block-preserving: the only
//!   block-level residual is 0, and each source block lands whole in
//!   target block `block_base(blk) >> b`.
//!
//! [`PassEval`] bundles both forms for one permutation; the step
//! executor ([`crate::fusion::execute_fused_with_strategy`]) takes the
//! bundle and picks the block-hoisted path whenever the residual table
//! exists.

use crate::bmmc::Bmmc;

/// Residual tables are enumerated exhaustively over the `2^b` block
/// offsets, so cap the width at which [`BlockEvaluator`] materialises
/// them. Tuned by the bench `addr_eval` cap sweep
/// ([`BlockEvaluator::with_table_cap`]): the flat table wins at every
/// width it is allowed to exist at — at `b = 16` it is 512 KiB
/// (cache-resident, one load per record versus two byte-sliced
/// lookups) and its `2^b` setup scan is amortised by the `N ≫ 2^b`
/// records of any realistic pass. `b ≤ 16` covers every realistic
/// block size (64 KiB blocks of 1-byte records); beyond it setup cost
/// and cache footprint grow 2× per bit while the per-record win
/// stays flat, so wider evaluators fall back to byte-sliced
/// residuals and per-address planning.
pub const RESIDUAL_TABLE_MAX_BITS: u32 = 16;

/// Ceiling on [`BlockEvaluator::with_table_cap`]'s sweep knob: a flat
/// table above `2^24` entries (128 MiB) would dwarf any plausible win,
/// so caps beyond this are clamped rather than allocated.
const RESIDUAL_TABLE_HARD_CAP: u32 = 24;

/// Precomputed byte-sliced evaluator for a BMMC permutation.
#[derive(Clone)]
pub struct AffineEvaluator {
    n: u32,
    c: u64,
    /// `tables[k][byte]` = XOR of columns `8k .. 8k+8` of `A` selected
    /// by the bits of `byte`, each column packed as a `u64` target mask.
    tables: Vec<[u64; 256]>,
}

/// Packs each matrix column `j` of `perm` as a `u64`: bit `i` = `A[i][j]`.
fn packed_columns(perm: &Bmmc) -> Vec<u64> {
    let (n, a) = (perm.bits(), perm.matrix());
    (0..n)
        .map(|j| {
            (0..n)
                .filter(|&i| a.get(i, j))
                .fold(0, |col, i| col | 1 << i)
        })
        .collect()
}

/// Builds byte-sliced lookup tables over `cols[lo..hi]`: `k`-th table
/// maps a byte of the (shifted) input to the XOR of the columns
/// `lo + 8k ..` selected by its bits.
fn byte_tables(cols: &[u64], lo: usize, hi: usize) -> Vec<[u64; 256]> {
    let width_total = hi - lo;
    let num_tables = width_total.div_ceil(8);
    let mut tables = vec![[0u64; 256]; num_tables];
    for (k, table) in tables.iter_mut().enumerate() {
        let base = lo + k * 8;
        let width = 8.min(hi - base);
        for byte in 0usize..256 {
            if byte >> width != 0 {
                continue; // bits beyond the width never occur in valid input
            }
            let mut acc = 0u64;
            for bit in 0..width {
                if byte >> bit & 1 == 1 {
                    acc ^= cols[base + bit];
                }
            }
            table[byte] = acc;
        }
    }
    tables
}

impl AffineEvaluator {
    /// Builds the evaluator. The permutation must act on at most 64
    /// address bits (always true in the disk model, where `n = lg N`).
    pub fn new(perm: &Bmmc) -> Self {
        let n = perm.bits();
        assert!(n <= 64, "AffineEvaluator supports n ≤ 64, got {n}");
        let cols = packed_columns(perm);
        AffineEvaluator {
            n: n as u32,
            c: perm.complement().as_u64(),
            tables: byte_tables(&cols, 0, n),
        }
    }

    /// Address width `n`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.n
    }

    /// Computes `A x ⊕ c`.
    ///
    /// Debug-asserts that `x < 2^n`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        debug_assert!(self.n == 64 || x < (1u64 << self.n), "address out of range");
        let mut acc = self.c;
        for (k, table) in self.tables.iter().enumerate() {
            acc ^= table[(x >> (8 * k)) as usize & 0xff];
        }
        acc
    }

    /// Computes `A x ⊕ c` for every `x` in `xs`, writing the targets
    /// into `out` (same length).
    ///
    /// Walks one byte table at a time across the whole slice instead
    /// of all tables per address, so each 2 KiB table stays hot in L1
    /// for the length of the batch — the entry point for full-scan
    /// checks over data-dependent inputs where block hoisting does not
    /// apply.
    pub fn eval_batch(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "eval_batch length mismatch");
        out.fill(self.c);
        for (k, table) in self.tables.iter().enumerate() {
            let shift = 8 * k as u32;
            for (y, &x) in out.iter_mut().zip(xs.iter()) {
                debug_assert!(self.n == 64 || x < (1u64 << self.n), "address out of range");
                *y ^= table[(x >> shift) as usize & 0xff];
            }
        }
    }
}

/// Block-hoisted evaluator: per-source-block high-bit bases plus a
/// per-matrix residual table for the low `b` offset bits.
///
/// See the [module docs](self) for the hoisting identity. All methods
/// are exact for any nonsingular `A`; the planners additionally use
/// [`Self::block_residuals`] (present when `b ≤`
/// [`RESIDUAL_TABLE_MAX_BITS`]) to enumerate each block's fanned-out
/// target blocks without touching its `B` addresses.
#[derive(Clone)]
pub struct BlockEvaluator {
    n: u32,
    b: u32,
    c: u64,
    /// Byte-sliced tables over the high columns `b..n`, indexed by the
    /// bytes of the *block number* `blk = x >> b`.
    hi_tables: Vec<[u64; 256]>,
    /// Byte-sliced tables over the low columns `0..b`, indexed by the
    /// bytes of the offset — the fallback when `b` is too wide for the
    /// flat table.
    lo_tables: Vec<[u64; 256]>,
    /// Flat `residual(off)` table for all `2^b` offsets, when
    /// `b ≤ RESIDUAL_TABLE_MAX_BITS`.
    residual_table: Option<Vec<u64>>,
    /// The distinct block-level residuals `residual(off) >> b`, in
    /// first-occurrence order over ascending offset. Each source block
    /// `blk` fans out to exactly the target blocks
    /// `(block_base(blk) >> b) ⊕ r` for `r` in this list, and the
    /// order matches the order a per-address ascending scan would
    /// first touch them in — the pass planners rely on that to keep
    /// batch discovery order byte-identical.
    block_residuals: Option<Vec<u64>>,
}

impl BlockEvaluator {
    /// Builds the evaluator for a permutation on `n`-bit addresses
    /// whose low `block_bits = lg B` bits are intra-block offsets.
    pub fn new(perm: &Bmmc, block_bits: u32) -> Self {
        Self::with_table_cap(perm, block_bits, RESIDUAL_TABLE_MAX_BITS)
    }

    /// Like [`Self::new`] but with an explicit residual-table width
    /// cap — the knob behind [`RESIDUAL_TABLE_MAX_BITS`], exposed so
    /// the bench `addr_eval` kernel rows can sweep it. When
    /// `block_bits > cap` the flat table and the block-residual
    /// enumeration are skipped: [`Self::residual`] falls back to
    /// byte-sliced lookups and the planners to per-address scans.
    /// Placement is identical either way; only the constant factor
    /// moves.
    pub fn with_table_cap(perm: &Bmmc, block_bits: u32, cap: u32) -> Self {
        let n = perm.bits();
        assert!(n <= 64, "BlockEvaluator supports n ≤ 64, got {n}");
        assert!(
            block_bits as usize <= n,
            "block bits {block_bits} exceed address width {n}"
        );
        let b = block_bits as usize;
        let cols = packed_columns(perm);
        let hi_tables = byte_tables(&cols, b, n);
        let lo_tables = byte_tables(&cols, 0, b);
        let (residual_table, block_residuals) = if block_bits <= cap.min(RESIDUAL_TABLE_HARD_CAP) {
            let mut table = vec![0u64; 1usize << b];
            let mut residuals = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (off, slot) in table.iter_mut().enumerate() {
                let mut acc = 0u64;
                for (k, t) in lo_tables.iter().enumerate() {
                    acc ^= t[(off >> (8 * k)) & 0xff];
                }
                *slot = acc;
                if seen.insert(acc >> b) {
                    residuals.push(acc >> b);
                }
            }
            (Some(table), Some(residuals))
        } else {
            (None, None)
        };
        BlockEvaluator {
            n: n as u32,
            b: block_bits,
            c: perm.complement().as_u64(),
            hi_tables,
            lo_tables,
            residual_table,
            block_residuals,
        }
    }

    /// Address width `n`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.n
    }

    /// Intra-block offset width `b = lg B`.
    #[inline]
    pub fn block_bits(&self) -> u32 {
        self.b
    }

    /// Evaluates the invariant high bits once for a whole source
    /// block: `A·(blk << b) ⊕ c`. The full target of address
    /// `blk·2^b ⊕ off` is `block_base(blk) ⊕ residual(off)`; in
    /// particular `block_base(blk)` *is* the target of the block's
    /// offset-0 record.
    #[inline]
    pub fn block_base(&self, blk: u64) -> u64 {
        debug_assert!(
            self.n - self.b == 64 || blk < (1u64 << (self.n - self.b)),
            "block number out of range"
        );
        let mut acc = self.c;
        for (k, table) in self.hi_tables.iter().enumerate() {
            acc ^= table[(blk >> (8 * k)) as usize & 0xff];
        }
        acc
    }

    /// Evaluates the low columns only: `A·off` for `off < 2^b`.
    #[inline]
    pub fn residual(&self, off: u64) -> u64 {
        debug_assert!(
            self.b == 64 || off < (1u64 << self.b),
            "offset out of range"
        );
        if let Some(table) = &self.residual_table {
            return table[off as usize];
        }
        let mut acc = 0u64;
        for (k, table) in self.lo_tables.iter().enumerate() {
            acc ^= table[(off >> (8 * k)) as usize & 0xff];
        }
        acc
    }

    /// The flat `2^b` residual table, when `b ≤`
    /// [`RESIDUAL_TABLE_MAX_BITS`] — hot loops index it directly
    /// instead of calling [`Self::residual`] per record.
    #[inline]
    pub fn residual_table(&self) -> Option<&[u64]> {
        self.residual_table.as_deref()
    }

    /// The distinct block-level residuals in first-occurrence order
    /// over ascending offset (see the field docs), or `None` when `b`
    /// exceeds [`RESIDUAL_TABLE_MAX_BITS`].
    #[inline]
    pub fn block_residuals(&self) -> Option<&[u64]> {
        self.block_residuals.as_deref()
    }

    /// Number of distinct target blocks each source block fans out to,
    /// or `None` when the residuals were not enumerated.
    #[inline]
    pub fn fanout(&self) -> Option<usize> {
        self.block_residuals.as_ref().map(Vec::len)
    }

    /// Whether every source block maps wholesale onto one target block
    /// (fanout 1, i.e. the only block-level residual is 0). Requires
    /// the residuals to have been enumerated.
    #[inline]
    pub fn preserves_blocks(&self) -> bool {
        self.fanout() == Some(1)
    }
}

/// The evaluator bundle the step executor takes: the generic
/// per-address form plus the block-hoisted form for the same
/// permutation. It uses the block form whenever its residual
/// table exists and falls back to [`PassEval::affine`] otherwise
/// (`b >` [`RESIDUAL_TABLE_MAX_BITS`], or when forced for
/// benchmarking via [`crate::passes::EvalStrategy::PerAddress`]).
#[derive(Clone)]
pub struct PassEval {
    affine: AffineEvaluator,
    block: BlockEvaluator,
}

impl PassEval {
    /// Builds both evaluator forms for `perm` with `block_bits = lg B`.
    pub fn new(perm: &Bmmc, block_bits: u32) -> Self {
        PassEval {
            affine: AffineEvaluator::new(perm),
            block: BlockEvaluator::new(perm, block_bits),
        }
    }

    /// The generic per-address evaluator.
    #[inline]
    pub fn affine(&self) -> &AffineEvaluator {
        &self.affine
    }

    /// The block-hoisted evaluator.
    #[inline]
    pub fn block(&self) -> &BlockEvaluator {
        &self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::sample::random_nonsingular;
    use gf2::BitVec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_slow_path_exhaustively() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 3, 8, 9, 13] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let ev = AffineEvaluator::new(&p);
            for x in 0..(1u64 << n) {
                assert_eq!(ev.eval(x), p.target(x), "n={n}, x={x}");
            }
        }
    }

    /// The cap only moves the constant factor: a capped evaluator
    /// (no flat table, no block residuals) must agree address-for-
    /// address with the tuned one — the regression gate behind
    /// closing the ROADMAP residual-width item.
    #[test]
    fn capped_table_is_exact_and_only_drops_the_fast_path() {
        let mut rng = StdRng::seed_from_u64(23);
        for (n, b) in [(10usize, 3u32), (13, 4), (16, 6)] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let tuned = BlockEvaluator::new(&p, b);
            let capped = BlockEvaluator::with_table_cap(&p, b, 0);
            assert!(tuned.residual_table().is_some());
            assert!(capped.residual_table().is_none(), "cap 0 must disable it");
            assert!(capped.block_residuals().is_none());
            assert!(capped.fanout().is_none());
            for x in 0..(1u64 << n) {
                let (blk, off) = (x >> b, x & ((1 << b) - 1));
                assert_eq!(
                    tuned.block_base(blk) ^ tuned.residual(off),
                    capped.block_base(blk) ^ capped.residual(off),
                    "n={n} b={b} x={x}"
                );
                assert_eq!(capped.block_base(blk) ^ capped.residual(off), p.target(x));
            }
        }
    }

    #[test]
    fn matches_slow_path_sampled_wide() {
        let mut rng = StdRng::seed_from_u64(12);
        for n in [17usize, 24, 31] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1u64 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let ev = AffineEvaluator::new(&p);
            for _ in 0..200 {
                let x = rng.gen::<u64>() & ((1u64 << n) - 1);
                assert_eq!(ev.eval(x), p.target(x), "n={n}, x={x}");
            }
        }
    }

    #[test]
    fn identity_evaluator() {
        let ev = AffineEvaluator::new(&Bmmc::identity(20));
        for x in [0u64, 1, 12345, (1 << 20) - 1] {
            assert_eq!(ev.eval(x), x);
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in [1usize, 7, 13, 24] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1u64 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let ev = AffineEvaluator::new(&p);
            let xs: Vec<u64> = (0..257)
                .map(|_| rng.gen::<u64>() & ((1u64 << n) - 1))
                .collect();
            let mut out = vec![0u64; xs.len()];
            ev.eval_batch(&xs, &mut out);
            for (&x, &y) in xs.iter().zip(out.iter()) {
                assert_eq!(y, ev.eval(x), "n={n}, x={x}");
            }
        }
    }

    #[test]
    fn block_split_matches_full_eval() {
        let mut rng = StdRng::seed_from_u64(14);
        for (n, b) in [(6usize, 0u32), (6, 2), (10, 4), (13, 13), (18, 6)] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1u64 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let ev = AffineEvaluator::new(&p);
            let bev = BlockEvaluator::new(&p, b);
            for _ in 0..300 {
                let x = rng.gen::<u64>() & ((1u64 << n) - 1);
                let (blk, off) = (x >> b, x & ((1u64 << b) - 1));
                assert_eq!(
                    bev.block_base(blk) ^ bev.residual(off),
                    ev.eval(x),
                    "n={n}, b={b}, x={x}"
                );
            }
        }
    }

    #[test]
    fn block_residuals_first_occurrence_order() {
        let mut rng = StdRng::seed_from_u64(15);
        for (n, b) in [(10usize, 3u32), (12, 5), (9, 0)] {
            let a = random_nonsingular(&mut rng, n);
            let c = BitVec::from_u64(n, rng.gen::<u64>() & ((1u64 << n) - 1));
            let p = Bmmc::new(a, c).unwrap();
            let bev = BlockEvaluator::new(&p, b);
            // Reference: scan offsets ascending, collect first-seen
            // block-level residuals.
            let mut expect = Vec::new();
            for off in 0..(1u64 << b) {
                let r = bev.residual(off) >> b;
                if !expect.contains(&r) {
                    expect.push(r);
                }
            }
            assert_eq!(bev.block_residuals().unwrap(), &expect[..], "n={n}, b={b}");
            assert_eq!(bev.fanout().unwrap(), expect.len());
            assert_eq!(bev.block_residuals().unwrap()[0], 0, "residual(0) is 0");
        }
    }
}
