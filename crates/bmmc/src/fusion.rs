//! Pass-pair fusion: skip the disk round-trip between adjacent passes
//! of a multi-pass plan.
//!
//! A plan from [`crate::factoring::factor`], [`crate::plan_passes`],
//! or [`crate::bpc_baseline`] is a sequence of one-pass permutations,
//! and the executor pays a full disk round-trip *between* passes: pass
//! `k` writes its output to a portion and pass `k+1` immediately reads
//! the same records back. But both rearrangements are known GF(2)
//! affine maps — whenever they compose within the `M`-record memory
//! model, one read, one composed in-memory rearrangement, and one
//! write suffice, halving the parallel I/O for that pair. The
//! [`fuse_passes`] planner folds passes into [`FusedPass`] groups by
//! whole-plan dynamic programming (see *The DP fuser* below), with the
//! greedy pair fuser kept as [`fuse_passes_greedy`], and
//! [`execute_fused_with_strategy`] runs each group in a single pass of
//! `2N/BD` parallel I/Os.
//!
//! # Legality rule
//!
//! Two adjacent passes `p1; p2` (first `p1`, then `p2`) fuse when the
//! intermediate portion can be reconstructed one memoryload at a time
//! in RAM. Writing the composed matrix `C = A₂·A₁` (and complement
//! `c = A₂c₁ ⊕ c₂`), the planner applies two rules, in order:
//!
//! 1. **Discipline rule — unconditional.** If `p1` *writes* whole
//!    target memoryloads (MRC or MLD⁻¹: striped writes) and `p2`
//!    *reads* whole source memoryloads (MRC or MLD: striped reads),
//!    the intermediate memoryload `p1` would have written is exactly
//!    the memoryload `p2` would have read — so the fused pass keeps
//!    `p1`'s read side, applies the composed rearrangement, and writes
//!    with `p2`'s write side. No rank condition is needed: the pairs
//!    MRC∘MRC, MLD∘MRC, MRC∘MLD⁻¹ and MLD∘MLD⁻¹ (composition order:
//!    right first) always fuse, and a fused group keeps absorbing
//!    passes while its write side stays striped. The four resulting
//!    read/write shapes are the three classic disciplines plus
//!    gathered reads with scattered writes, which also realizes the
//!    Section 7 remark that the composition of an MLD permutation
//!    with an MLD inverse is one pass
//!    ([`crate::extensions::perform_mld_pair`]); the one step
//!    executor, [`execute_fused_with_strategy`], runs all four.
//! 2. **Rank rule — conditional.** Otherwise (`p1` scatters blocks, or
//!    `p2` gathers blocks), the pair still fuses if the *composed*
//!    matrix `C` is itself one-pass executable, i.e. classifies as
//!    MRC, MLD, or MLD⁻¹ at the geometry's `(b, m)` boundaries —
//!    equivalently, each source memoryload maps under `C` onto whole
//!    target memoryloads (MRC: nonsingular leading `m×m` submatrix and
//!    zero lower-left, Table 1) or whole target blocks (MLD: the
//!    kernel condition `ker α ⊆ ker δ` of eq. 4; MLD⁻¹ mirrored).
//!    The checks are rank computations on `C`'s submatrices via
//!    [`gf2::elim`] (see [`crate::classes`]). This covers e.g.
//!    MRC∘MLD pairs whose composition happens to stay memoryload-
//!    dispersal — the paper's Section 3 warns the MLD class is *not*
//!    closed under composition, which is exactly why the check is a
//!    rank condition rather than unconditional.
//!
//! Pairs where `p1` scatters and the composition leaves the one-pass
//! classes do **not** fuse: an intermediate memoryload of such a pair
//! is assembled from arbitrary `B`-record subsets of several source
//! memoryloads, which no `M/BD`-I/O read discipline can gather.
//!
//! Correctness does not depend on the classifier: every step, fused or
//! not, runs through [`execute_fused_with_strategy`], whose debug
//! assertions check the whole-memoryload / whole-block / evenly-spread
//! properties (Lemmas 12–14, property 3) on every unit.
//!
//! # What fuses in practice
//!
//! * The Section 5 factoring of a *generic* BMMC matrix is already
//!   pass-minimal for its rank (eq. 17), so its interior MLD pairs
//!   rarely satisfy the rank rule — the paper's optimality is
//!   respected.
//! * The [`crate::bpc_baseline`] plan `(MLD, MRC)×k, MRC` fuses every
//!   `MRC_i; MLD_{i+1}` seam and the trailing `MRC; MRC` pair by the
//!   discipline rule: `2k+1` planned passes execute as `k+1` steps —
//!   asymptotically the 2× round-trip saving this module exists for.
//! * Chains of MRC passes, and any `MLD⁻¹ …` prefix followed by
//!   striped-reading passes, collapse completely (`k` passes → 1).
//!
//! # The DP fuser
//!
//! [`fuse_passes`] runs an interval dynamic program over the whole
//! pass sequence instead of greedy left-to-right pair absorption
//! ([`fuse_passes_greedy`]). Its legality rule generalizes both greedy
//! rules: a contiguous interval of passes with composed map
//! `C = A_j ⋯ A_i` is one-step executable iff some *gather split*
//! exists — a prefix `G = A_s ⋯ A_i` (possibly empty) with `G` in
//! MLD⁻¹ and the remaining suffix `W = C·G⁻¹` in MLD:
//!
//! * `G ∈ MLD⁻¹` means `G⁻¹` disperses memoryloads onto whole blocks
//!   spread evenly across the disks (Lemma 13), so the iteration units
//!   `{x : G(x) ∈ memoryload u}` = `G⁻¹(memoryload u)` are gatherable
//!   in `M/BD` parallel reads (striped reads when the prefix is empty);
//! * `W ∈ MLD` means each gathered unit lands on whole target blocks
//!   evenly spread — scatterable in `M/BD` parallel writes, striped
//!   when `W` is in fact MRC (Lemma 12).
//!
//! Every greedy group satisfies this rule (discipline-rule chains have
//! `W` a composition of striped readers, which stays in MLD because
//! MLD∘MRC ⊆ MLD and MRC∘MRC ⊆ MRC; rank-rule groups are the empty or
//! full split), so the DP **never produces more steps than greedy**;
//! when the step counts tie, [`fuse_passes`] returns the greedy plan
//! verbatim, so behavior is bit-for-bit identical everywhere greedy
//! was already optimal. Where greedy was *not* optimal the DP finds
//! re-associations pair fusion cannot see. The closure lemmas pin down
//! exactly when: because MLD∘MRC ⊆ MLD and right-composition with an
//! MRC preserves the MLD kernel condition, any split whose gather
//! prefix is a *proper* prefix of a three-pass `MLD;MRC;MLD` chain is
//! visible to greedy's rank rule too — so the DP wins precisely when
//! the **full** composition classifies while the pair seam does not.
//! [`crate::plan::reassociation_case`] commits such a chain: greedy is
//! stuck at two steps — `[p₁]`, `[p₂+p₃]` — while the whole product
//! telescopes into MLD⁻¹ and the full-gather split executes all three
//! passes in one round-trip (`tests/planner.rs`, and the `reassoc` row
//! of the bench `planner` section).

use crate::bmmc::Bmmc;
use crate::classes::{is_mld, is_mld_inverse, is_mrc};
use crate::error::{BmmcError, Result};
use crate::eval::{AffineEvaluator, PassEval};
use crate::factoring::{Pass, PassKind};
use crate::passes::EvalStrategy;
use gf2::{BitMatrix, BitVec};
use pdm::engine::{BlockBatches, ReadPlan, WritePlan};
use pdm::{BlockRef, DiskSystem, Geometry, PassEngine, Record};

/// How a fused pass reads each unit of `M` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadDiscipline {
    /// Striped reads of whole source memoryloads (MRC/MLD heritage).
    Striped,
    /// Independent gathers of whole source blocks (MLD⁻¹ heritage).
    Gather,
}

/// How a fused pass writes each unit of `M` records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteDiscipline {
    /// Striped writes of whole target memoryloads (MRC/MLD⁻¹
    /// heritage).
    Striped,
    /// Independent scatters of whole target blocks (MLD heritage).
    Scatter,
}

/// One executed step of a fused plan: one disk round-trip realizing
/// one or more original one-pass permutations.
#[derive(Clone, Debug)]
pub struct FusedPass {
    /// Composed characteristic matrix of the group (`A_k ⋯ A_1`).
    pub matrix: BitMatrix,
    /// Composed complement vector.
    pub complement: BitVec,
    /// Present iff the reads are gathered: the affine *gather map*
    /// `G` defining the iteration units — unit `u` reads the source
    /// records `{x : G(x) ∈ memoryload u}`. For a lone MLD⁻¹ pass the
    /// gather map is the pass itself; after absorbing later passes it
    /// stays the *first* pass of the group.
    pub gather: Option<Bmmc>,
    /// The write side (the last absorbed pass's write discipline).
    pub write: WriteDiscipline,
    /// Kinds of the original passes this step replaces, in execution
    /// order (length 1 for an unfused pass).
    pub replaced: Vec<PassKind>,
}

impl FusedPass {
    /// The unfused step for one pass: its own matrix, read side, and
    /// write side.
    pub fn from_single(pass: &Pass) -> Self {
        FusedPass {
            matrix: pass.matrix.clone(),
            complement: pass.complement.clone(),
            gather: matches!(pass.kind, PassKind::MldInverse).then(|| pass.as_bmmc()),
            write: match pass.kind {
                PassKind::Mrc | PassKind::MldInverse => WriteDiscipline::Striped,
                PassKind::Mld => WriteDiscipline::Scatter,
            },
            replaced: vec![pass.kind],
        }
    }

    /// The Section 7 step `π_Y ∘ π_Z⁻¹` (first `Z⁻¹`, then `Y`): it
    /// gathers through `Z⁻¹` and scatters, in one pass when `Y` and `Z`
    /// are MLD ([`crate::extensions::perform_mld_pair`]).
    pub fn mld_pair(y: &Bmmc, z: &Bmmc) -> Self {
        let z_inv = z.inverse();
        let composed = y.compose(&z_inv);
        FusedPass {
            matrix: composed.matrix().clone(),
            complement: composed.complement().clone(),
            gather: Some(z_inv),
            write: WriteDiscipline::Scatter,
            replaced: vec![PassKind::MldInverse, PassKind::Mld],
        }
    }

    /// The read side of this step.
    pub fn reads(&self) -> ReadDiscipline {
        if self.gather.is_some() {
            ReadDiscipline::Gather
        } else {
            ReadDiscipline::Striped
        }
    }

    /// Number of original passes this step replaces.
    pub fn num_replaced(&self) -> usize {
        self.replaced.len()
    }

    /// True if this step replaces more than one original pass.
    pub fn is_fused(&self) -> bool {
        self.replaced.len() > 1
    }

    /// The composed permutation this step performs.
    pub fn as_bmmc(&self) -> Bmmc {
        Bmmc::new(self.matrix.clone(), self.complement.clone())
            .expect("fused groups compose nonsingular factors")
    }

    /// Display label, e.g. `"Mrc"` or `"Mrc+Mld"`.
    pub fn label(&self) -> String {
        let kinds: Vec<String> = self.replaced.iter().map(|k| format!("{k:?}")).collect();
        kinds.join("+")
    }
}

/// A fused execution plan: the steps to run, each one disk round-trip.
#[derive(Clone, Debug)]
pub struct FusedPlan {
    /// Executable steps in execution order.
    pub steps: Vec<FusedPass>,
}

impl FusedPlan {
    /// Number of executed steps (disk round-trips).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of original planned passes.
    pub fn planned_passes(&self) -> usize {
        self.steps.iter().map(FusedPass::num_replaced).sum()
    }

    /// Predicted parallel I/Os for the fused execution (`2N/BD` per
    /// step).
    pub fn predicted_ios(&self, geom: &Geometry) -> usize {
        self.num_steps() * geom.ios_per_pass()
    }

    /// Predicted parallel I/Os for the *unfused* execution of the same
    /// plan.
    pub fn unfused_ios(&self, geom: &Geometry) -> usize {
        self.planned_passes() * geom.ios_per_pass()
    }

    /// Recomposes the steps and checks they reproduce `perm` (the
    /// product of step permutations, last step leftmost).
    pub fn verify(&self, perm: &Bmmc) -> bool {
        let mut composed = Bmmc::identity(perm.bits());
        for step in &self.steps {
            composed = step.as_bmmc().compose(&composed);
        }
        composed == *perm
    }
}

/// Fuses a pass plan at boundaries `b = lg B`, `m = lg M` by interval
/// dynamic programming over the whole sequence (see *The DP fuser* in
/// the module docs for the gather-split legality rule). Guarantees:
///
/// * never more steps than [`fuse_passes_greedy`];
/// * when the step counts tie, the greedy plan is returned verbatim —
///   placement, I/O, and message counts stay bit-identical everywhere
///   greedy was already optimal;
/// * strictly fewer steps where a re-association exists (e.g. the
///   `MLD;MRC;MLD` case of `tests/planner.rs`).
///
/// ```
/// use bmmc::{catalog, fusion::fuse_passes, plan_passes};
///
/// // A Gray-code + bit-complement permutation is MRC: a chain of MRC
/// // passes collapses to one step.
/// let g = catalog::gray_code(10);
/// let passes = plan_passes(&g, 2, 6).unwrap();
/// let doubled: Vec<_> = passes.iter().chain(passes.iter()).cloned().collect();
/// let plan = fuse_passes(&doubled, 2, 6);
/// assert_eq!(plan.planned_passes(), 2);
/// assert_eq!(plan.num_steps(), 1); // MRC∘MRC always fuses
/// ```
pub fn fuse_passes(passes: &[Pass], b: usize, m: usize) -> FusedPlan {
    let greedy = fuse_passes_greedy(passes, b, m);
    let l = passes.len();
    if l <= 1 {
        return greedy;
    }

    // comp[i][j]: composition A_j ⋯ A_i of passes i..=j (affine).
    let mut comp: Vec<Vec<Option<Bmmc>>> = vec![vec![None; l]; l];
    for i in 0..l {
        comp[i][i] = Some(passes[i].as_bmmc());
        for j in i + 1..l {
            let prefix = comp[i][j - 1].clone().expect("filled above");
            comp[i][j] = Some(passes[j].as_bmmc().compose(&prefix));
        }
    }
    // step[i][j]: the cheapest one-step execution of interval [i, j],
    // if any split makes it legal.
    let mut step: Vec<Vec<Option<FusedPass>>> = vec![vec![None; l]; l];
    for i in 0..l {
        for j in i..l {
            step[i][j] = interval_step(passes, &comp, i, j, b, m);
        }
    }

    // Prefix DP: dp[k] = fewest steps covering passes[0..k].
    let mut dp = vec![usize::MAX; l + 1];
    let mut back = vec![0usize; l + 1];
    dp[0] = 0;
    for j in 0..l {
        for i in 0..=j {
            if step[i][j].is_some() && dp[i] != usize::MAX && dp[i] + 1 < dp[j + 1] {
                dp[j + 1] = dp[i] + 1;
                back[j + 1] = i;
            }
        }
    }

    // Tie-break: greedy groups are always legal intervals, so
    // dp[l] ≤ greedy; on equality keep greedy's exact plan.
    if dp[l] == usize::MAX || dp[l] >= greedy.num_steps() {
        return greedy;
    }
    let mut cut = l;
    let mut steps_rev = Vec::with_capacity(dp[l]);
    while cut > 0 {
        let i = back[cut];
        steps_rev.push(
            step[i][cut - 1]
                .take()
                .expect("backtracked interval is legal"),
        );
        cut = i;
    }
    steps_rev.reverse();
    FusedPlan { steps: steps_rev }
}

/// The original greedy left-to-right pair fuser: absorbs each pass
/// into the current group when the discipline or rank rule (see the
/// module docs) allows it. Kept as the DP fuser's tie-break target and
/// regression baseline — the DP provably never does worse.
pub fn fuse_passes_greedy(passes: &[Pass], b: usize, m: usize) -> FusedPlan {
    let mut steps: Vec<FusedPass> = Vec::new();
    for pass in passes {
        if let Some(group) = steps.last_mut() {
            if try_absorb(group, pass, b, m) {
                continue;
            }
        }
        steps.push(FusedPass::from_single(pass));
    }
    FusedPlan { steps }
}

/// Attempts to absorb `next` into `group`; true on success.
fn try_absorb(group: &mut FusedPass, next: &Pass, b: usize, m: usize) -> bool {
    // Rule 1 — discipline: the group ends on whole-memoryload writes
    // and `next` begins on whole-memoryload reads, so the intermediate
    // memoryload exists in RAM and never needs the disk.
    if group.write == WriteDiscipline::Striped && next.kind.reads_whole_memoryloads() {
        let composed = next.as_bmmc().compose(&group.as_bmmc());
        group.matrix = composed.matrix().clone();
        group.complement = composed.complement().clone();
        group.write = match next.kind {
            PassKind::Mld => WriteDiscipline::Scatter,
            _ => WriteDiscipline::Striped,
        };
        group.replaced.push(next.kind);
        return true;
    }
    // Rule 2 — rank check: the composed map is itself one-pass
    // executable, so the whole group collapses to a classified pass.
    let composed = next.as_bmmc().compose(&group.as_bmmc());
    let (gather, write) = if is_mrc(composed.matrix(), m) {
        (None, WriteDiscipline::Striped)
    } else if is_mld(composed.matrix(), b, m) {
        (None, WriteDiscipline::Scatter)
    } else if is_mld_inverse(composed.matrix(), b, m) {
        (Some(composed.clone()), WriteDiscipline::Striped)
    } else {
        return false;
    };
    group.matrix = composed.matrix().clone();
    group.complement = composed.complement().clone();
    group.gather = gather;
    group.write = write;
    group.replaced.push(next.kind);
    true
}

/// Executes one step on a caller-provided engine, moving all `N`
/// records from portion `src` to portion `dst` — the one executor of
/// every pass shape, fused or not. Costs exactly `2N/BD` parallel I/Os
/// regardless of how many original passes the step replaces.
/// Placement and I/O accounting are identical across
/// address-evaluation strategies (see [`EvalStrategy`]).
///
/// Unit `t` of `M` records is read from source memoryload `t` (striped)
/// or from the `M/B` source blocks of `G⁻¹(memoryload t)` for the
/// gather map `G` (`M/BD` independent reads). Source block `s` lands at
/// block position `φ(s)` of the engine's data buffer, where `φ` keeps
/// the pivot bits of the units' common block space (`φ(s) = s mod M/B`
/// for striped reads). The rearrangement is a gather: the scratch
/// buffer is filled in target order, one target block `tb` of the unit
/// at a time. One high-bit evaluation of the inverse map gives where
/// the block's offset-0 record landed, and its record at offset `off`
/// sits at that position XOR a per-step index table entry. The two
/// buffers swap, and the unit is written as one
/// target memoryload (striped; every record of it comes from the unit,
/// Lemma 12) or as its `M/B` whole target blocks in `M/BD` scatter
/// batches (each relative block on its home disk, property 3). The
/// gather writes its output in order and reads at random from the
/// landed memoryload, which stays in cache.
pub fn execute_fused_with_strategy<R: Record>(
    engine: &mut PassEngine<R>,
    sys: &mut DiskSystem<R>,
    src: usize,
    dst: usize,
    step: &FusedPass,
    strategy: EvalStrategy,
) -> Result<()> {
    let geom = sys.geometry();
    let n = geom.n();
    if step.matrix.rows() != n {
        return Err(BmmcError::GeometryMismatch {
            perm_bits: step.matrix.rows(),
            system_bits: n,
        });
    }
    assert_ne!(src, dst, "source and target portions must differ");
    let layout = sys.layout();
    let (block, b, m) = (geom.block(), geom.b(), geom.m());
    let (disks, rel_blocks) = (geom.disks(), geom.blocks_per_memoryload());
    let (mask, rel_mask) = ((geom.memory() - 1) as u64, (rel_blocks - 1) as u64);
    let dst_base = sys.portion_base(dst);
    let scatter_writes = step.write == WriteDiscipline::Scatter;
    let perm = step.as_bmmc();
    let land = landing_map(step.gather.as_ref().unwrap_or(&Bmmc::identity(n)), b, m);
    // Addresses in landed form: `t·M + p` is position `p` of unit `t`'s
    // data buffer. `fwd` maps them to target addresses, `inv` back.
    let fwd = PassEval::new(&perm.compose(&land.inverse()), b as u32);
    let inv = PassEval::new(&land.compose(&perm.inverse()), b as u32);
    let use_block = strategy.uses_block(fwd.block());
    let (fbev, faff, ibev, iaff) = (fwd.block(), fwd.affine(), inv.block(), inv.affine());
    let brs = fbev.block_residuals().unwrap_or_default();
    let irtab = ibev.residual_table().unwrap_or_default();
    // The record at offset `off` of a target block landed at the
    // position of its offset-0 record XOR `idx[off]` (inv is affine).
    let idx: Vec<usize> = irtab.iter().map(|&r| (r & mask) as usize).collect();
    let mut planner = step.gather.as_ref().map(|g| {
        let g_inv = PassEval::new(&g.inverse(), b as u32);
        GatherPlanner::new(sys, src, g_inv, AffineEvaluator::new(&land), use_block)
    });
    // Scatter writes: the unit's target block per relative block, and
    // the unit (plus one) that last filled each entry.
    let mut target_block = vec![0u64; rel_blocks];
    let mut filled = vec![0usize; rel_blocks];
    engine
        .run_pass(
            sys,
            |t, batches| match &mut planner {
                Some(planner) => planner.plan_unit(t, batches),
                None => ReadPlan::Memoryload {
                    portion: src,
                    ml: t,
                },
            },
            |t, records, scratch, batches| {
                let (unit, stamp) = (t as u64, t + 1);
                let first = unit * rel_blocks as u64;
                if scatter_writes {
                    // The target blocks of a landed block are a coset
                    // of the block residuals' subspace, so one whose
                    // offset-0 target block is already in the table
                    // adds nothing new: M/B updates per unit.
                    for lb in first..first + rel_blocks as u64 {
                        let tb0 = if use_block {
                            fbev.block_base(lb) >> b
                        } else {
                            layout.block(faff.eval(layout.compose_block(lb, 0)))
                        };
                        if filled[(tb0 & rel_mask) as usize] == stamp {
                            continue;
                        }
                        let mut add = |tb: u64| {
                            target_block[(tb & rel_mask) as usize] = tb;
                            filled[(tb & rel_mask) as usize] = stamp;
                        };
                        if use_block {
                            brs.iter().for_each(|&r| add(tb0 ^ r));
                        } else {
                            for off in 0..block as u64 {
                                add(layout.block(faff.eval(layout.compose_block(lb, off))));
                            }
                        }
                    }
                    debug_assert!(
                        filled.iter().all(|&f| f == stamp),
                        "unit {t} misses a relative target block (Lemma 13)"
                    );
                }
                let target_ml = faff.eval(first << b) >> m;
                let data: &[R] = records;
                for (rel, out) in scratch.chunks_exact_mut(block).enumerate() {
                    let tb = if scatter_writes {
                        target_block[rel]
                    } else {
                        (target_ml << (m - b)) | rel as u64
                    };
                    if use_block {
                        // One high-bit evaluation per target block.
                        let xbase = ibev.block_base(tb);
                        debug_assert!(
                            irtab.iter().all(|&r| (xbase ^ r) >> m == unit),
                            "target block {tb} not read by unit {t} (Lemmas 12–13)"
                        );
                        let base = (xbase & mask) as usize;
                        for (rec, &i) in out.iter_mut().zip(&idx) {
                            *rec = data[base ^ i];
                        }
                    } else {
                        for (off, rec) in out.iter_mut().enumerate() {
                            let x = iaff.eval(layout.compose_block(tb, off as u64));
                            debug_assert!(
                                x >> m == unit,
                                "target block {tb} not read by unit {t} (Lemmas 12–13)"
                            );
                            *rec = data[(x & mask) as usize];
                        }
                    }
                }
                std::mem::swap(records, scratch);
                if !scatter_writes {
                    return WritePlan::Memoryload {
                        portion: dst,
                        ml: target_ml as usize,
                    };
                }
                // Batch k carries relative blocks kD .. kD+D−1, whose
                // low d bits give their disks.
                batches.reset(disks);
                for (rel, &blk) in target_block.iter().enumerate() {
                    debug_assert_eq!(
                        layout.disk_of_block(blk) as usize,
                        rel % disks,
                        "relative block {rel} not on its home disk (property 3 violated)"
                    );
                    batches.push(BlockRef {
                        disk: rel % disks,
                        slot: dst_base + layout.stripe_of_block(blk) as usize,
                    });
                }
                WritePlan::Scatter
            },
        )
        .map_err(BmmcError::from)
}

/// The landing map of a step whose unit `u` reads the source records
/// `G⁻¹(memoryload u)` of the gather map `G` (the identity for striped
/// reads): source address `x` ↦ `u·M + p`, where unit `u` reads `x` and
/// `p` is the position `x` lands at in the unit's data buffer.
///
/// The units are cosets of one subspace, and their block numbers are
/// cosets of the units' common block space `W`, spanned by the images
/// `G⁻¹(eᵢ) >> b` of the `m` low unit vectors. A unit is made of whole
/// blocks (Lemma 13 applied to `G⁻¹`), so `W` has dimension `m − b`.
/// `φ` keeps only the pivot bits of a basis of `W` and packs them
/// together, which maps each unit's blocks one-to-one onto `0..M/B`:
/// block `s` lands at block position `φ(s)`. The map's low `m` bits are
/// `φ(x >> b)·B + x mod B`, its high bits `G(x) >> m`, so it is affine
/// and one-to-one, and `φ` of a XOR is the XOR of the `φ`s. For striped
/// reads `W` is the low `m − b` bits, `φ(s) = s mod M/B`, and the map is
/// the identity.
fn landing_map(gather: &Bmmc, b: usize, m: usize) -> Bmmc {
    let (n, g) = (gather.bits(), gather.matrix());
    let g_inv = gather.inverse();
    // A basis of W with distinct leading bits, in descending order.
    let mut basis: Vec<u64> = Vec::with_capacity(m - b);
    for j in 0..m {
        let image = (0..n).filter(|&i| g_inv.matrix().get(i, j));
        let v = image.fold(0u64, |v, i| v | 1 << i) >> b;
        let v = basis.iter().fold(v, |v, &w| v.min(v ^ w));
        if v != 0 {
            basis.push(v);
            basis.sort_unstable_by(|x, y| y.cmp(x));
        }
    }
    assert_eq!(
        basis.len(),
        m - b,
        "the gather map is not MLD⁻¹: its units are not made of whole blocks"
    );
    let mut a = BitMatrix::zeros(n, n);
    let mut c = BitVec::zeros(n);
    for i in 0..b {
        a.set(i, i, true);
    }
    for (k, w) in basis.iter().rev().enumerate() {
        a.set(b + k, b + (63 - w.leading_zeros()) as usize, true);
    }
    for i in m..n {
        (0..n).for_each(|j| a.set(i, j, g.get(i, j)));
        c.set(i, gather.complement().bit(i));
    }
    Bmmc::new(a, c).expect("a unit and a position in it determine one source address")
}

/// Plans the reads of a step with gathered reads: unit `t` reads the
/// source blocks of `G⁻¹(memoryload t)` for the gather map `G`, and
/// each lands where the step's landing map puts it.
struct GatherPlanner {
    /// Scratch: per-disk source-block lists for the unit being planned.
    per_disk: Vec<Vec<u64>>,
    /// Scratch: block-seen bitmap over all N/B source blocks.
    seen: Vec<bool>,
    /// The inverse of the gather map, which finds the units' blocks.
    inv: PassEval,
    /// The landing map (see [`landing_map`]), which places them.
    land: AffineEvaluator,
    use_block: bool,
    layout: pdm::Layout,
    mem: usize,
    b: usize,
    disks: usize,
    rel_blocks: usize,
    src_base: usize,
}

impl GatherPlanner {
    fn new<R: Record>(
        sys: &DiskSystem<R>,
        src: usize,
        inv: PassEval,
        land: AffineEvaluator,
        use_block: bool,
    ) -> Self {
        let geom = sys.geometry();
        let disks = geom.disks();
        let rel_blocks = geom.blocks_per_memoryload();
        GatherPlanner {
            per_disk: vec![Vec::with_capacity(rel_blocks / disks); disks],
            seen: vec![false; geom.total_blocks()],
            inv,
            land,
            use_block,
            layout: sys.layout(),
            mem: geom.memory(),
            b: geom.b(),
            disks,
            rel_blocks,
            src_base: sys.portion_base(src),
        }
    }

    /// Discovers the `M/B` distinct source blocks feeding unit `t`
    /// (the preimage of target memoryload `t` under the gather map,
    /// planned via its inverse) and fills `gather` with `M/BD`
    /// independent reads of one block per disk, each block landing at
    /// its block position `φ(s)`.
    ///
    /// With block-run evaluation the discovery loop walks the unit's
    /// `M/B` blocks and the inverse map's block-level residuals instead
    /// of its `M` addresses. The per-address ascending scan visits,
    /// within source block `j`, the candidate blocks
    /// `(block_base(j) >> b) ⊕ r` exactly in the residuals'
    /// first-occurrence order — so the first-seen discovery order (and
    /// with it the per-disk lists and batch composition) is
    /// byte-identical across strategies. The candidates of one `j` are
    /// a coset of the residuals' subspace, so they are all new or all
    /// seen, and a seen `block_base(j) >> b` skips the whole coset.
    fn plan_unit(&mut self, t: usize, gather: &mut BlockBatches) -> ReadPlan {
        let base = (t * self.mem) as u64;
        // Reset only the M/B bits the previous load set — a full clear
        // of the N/B-entry bitmap per load would dominate the planner
        // at large N.
        for d in self.per_disk.iter_mut() {
            for blk in d.drain(..) {
                self.seen[blk as usize] = false;
            }
        }
        if self.use_block {
            let bev = self.inv.block();
            let brs = bev
                .block_residuals()
                .expect("the inverse has the step's block width, so its residuals exist");
            let first = base >> self.b;
            for j in 0..self.rel_blocks as u64 {
                let xb = bev.block_base(first + j) >> self.b;
                if self.seen[xb as usize] {
                    continue;
                }
                for &r in brs {
                    let blk = xb ^ r;
                    debug_assert!(!self.seen[blk as usize], "residuals are a subspace");
                    self.seen[blk as usize] = true;
                    self.per_disk[self.layout.disk_of_block(blk) as usize].push(blk);
                }
            }
        } else {
            let inv_ev = self.inv.affine();
            for i in 0..self.mem as u64 {
                let x = inv_ev.eval(base + i);
                let blk = self.layout.block(x);
                if !self.seen[blk as usize] {
                    self.seen[blk as usize] = true;
                    self.per_disk[self.layout.disk_of_block(blk) as usize].push(blk);
                }
            }
        }
        debug_assert!(
            self.per_disk
                .iter()
                .all(|d| d.len() == self.rel_blocks / self.disks),
            "source blocks of a unit not evenly spread over the disks \
             (mirror of property 3)"
        );
        gather.reset(self.disks);
        for k in 0..self.rel_blocks / self.disks {
            for (disk, on_disk) in self.per_disk.iter().enumerate() {
                let blk = on_disk[k];
                let landed = self.land.eval(self.layout.compose_block(blk, 0));
                debug_assert_eq!(
                    landed / self.mem as u64,
                    t as u64,
                    "block {blk} gathered for the wrong unit"
                );
                gather.push_landing(
                    BlockRef {
                        disk,
                        slot: self.src_base + self.layout.stripe_of_block(blk) as usize,
                    },
                    (landed as usize % self.mem) >> self.b,
                );
            }
        }
        ReadPlan::Gather
    }
}

/// The cheapest legal one-step execution of passes `i..=j`, trying
/// every gather split `s`: prefix `G = A_{s-1} ⋯ A_i` (empty when
/// `s = i`) must be in MLD⁻¹, suffix `W = A_j ⋯ A_s` (identity when
/// `s = j+1`) in MLD (striped writes when it is MRC). Preference
/// order: fewest random-access sides, then the shortest gather prefix.
fn interval_step(
    passes: &[Pass],
    comp: &[Vec<Option<Bmmc>>],
    i: usize,
    j: usize,
    b: usize,
    m: usize,
) -> Option<FusedPass> {
    let composed = |x: usize, y: usize| comp[x][y].as_ref().expect("interval composed");
    let c = composed(i, j);
    let mut best: Option<(u32, FusedPass)> = None;
    for s in i..=j + 1 {
        let gather = if s == i {
            None
        } else {
            let g = composed(i, s - 1);
            if !is_mld_inverse(g.matrix(), b, m) {
                continue;
            }
            Some(g.clone())
        };
        let striped_write = if s == j + 1 {
            true // empty suffix: the gather map is the whole step
        } else {
            let w = composed(s, j);
            if is_mrc(w.matrix(), m) {
                true
            } else if is_mld(w.matrix(), b, m) {
                false
            } else {
                continue;
            }
        };
        let write = if striped_write {
            WriteDiscipline::Striped
        } else {
            WriteDiscipline::Scatter
        };
        let random_sides = u32::from(gather.is_some()) + u32::from(!striped_write);
        if best.as_ref().is_some_and(|(c0, _)| *c0 <= random_sides) {
            continue;
        }
        let fused = FusedPass {
            matrix: c.matrix().clone(),
            complement: c.complement().clone(),
            gather,
            write,
            replaced: passes[i..=j].iter().map(|p| p.kind).collect(),
        };
        let done = random_sides == 0;
        best = Some((random_sides, fused));
        if done {
            break;
        }
    }
    // Defensive: a lone pass always executes as itself even if its
    // matrix defies its planner label.
    if best.is_none() && i == j {
        return Some(FusedPass::from_single(&passes[i]));
    }
    best.map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::passes::reference_permute;
    use pdm::{Geometry, IoStats, ServiceMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// N=2^10, B=2^2, D=2^2, M=2^6 → b=2, d=2, m=6, n=10.
    fn geom() -> Geometry {
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap()
    }

    fn pass_of(perm: &Bmmc, kind: PassKind) -> Pass {
        Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind,
        }
    }

    /// Runs a fused plan end to end and checks the final placement
    /// against the composed reference permutation; returns
    /// (plan, total IoStats).
    fn run_fused(g: Geometry, passes: &[Pass], mode: ServiceMode) -> (FusedPlan, IoStats) {
        let plan = fuse_passes(passes, g.b(), g.m());
        let mut composed = Bmmc::identity(g.n());
        for p in passes {
            composed = p.as_bmmc().compose(&composed);
        }
        assert!(plan.verify(&composed), "fused plan does not recompose");
        let input: Vec<u64> = (0..g.records() as u64).collect();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.set_service_mode(mode);
        sys.load_records(0, &input);
        let mut engine = PassEngine::new(g);
        let mut src = 0;
        for step in &plan.steps {
            let dst = 1 - src;
            execute_fused_with_strategy(
                &mut engine,
                &mut sys,
                src,
                dst,
                step,
                EvalStrategy::default(),
            )
            .unwrap();
            src = dst;
        }
        let expect = reference_permute(&input, |x| composed.target(x));
        assert_eq!(sys.dump_records(src), expect, "wrong final placement");
        (plan, sys.stats())
    }

    #[test]
    fn mrc_chain_collapses_to_one_step() {
        let mut rng = StdRng::seed_from_u64(71);
        let g = geom();
        let chain: Vec<Pass> = (0..4)
            .map(|_| pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc))
            .collect();
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (plan, ios) = run_fused(g, &chain, mode);
            assert_eq!(plan.num_steps(), 1, "MRC chain must fully fuse");
            assert_eq!(plan.planned_passes(), 4);
            assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
            assert_eq!(ios.striped_writes, ios.parallel_writes);
        }
    }

    #[test]
    fn mrc_then_mld_fuses_to_one_scattering_step() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = geom();
        let plan_passes = vec![
            pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
            pass_of(
                &catalog::random_mld(&mut rng, g.n(), g.b(), g.m()),
                PassKind::Mld,
            ),
        ];
        let (plan, ios) = run_fused(g, &plan_passes, ServiceMode::Serial);
        assert_eq!(plan.num_steps(), 1);
        assert_eq!(plan.steps[0].reads(), ReadDiscipline::Striped);
        assert_eq!(plan.steps[0].write, WriteDiscipline::Scatter);
        // Exactly half the unfused cost.
        assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
        assert_eq!(plan.unfused_ios(&g), 2 * g.ios_per_pass());
    }

    #[test]
    fn mld_inverse_then_mrc_fuses_with_gathered_reads() {
        let mut rng = StdRng::seed_from_u64(73);
        let g = geom();
        let inv = catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse();
        let plan_passes = vec![
            pass_of(&inv, PassKind::MldInverse),
            pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
        ];
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (plan, ios) = run_fused(g, &plan_passes, mode);
            assert_eq!(plan.num_steps(), 1);
            assert_eq!(plan.steps[0].reads(), ReadDiscipline::Gather);
            assert_eq!(plan.steps[0].write, WriteDiscipline::Striped);
            assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
            assert_eq!(ios.striped_writes, ios.parallel_writes);
        }
    }

    #[test]
    fn mld_inverse_then_mld_fuses_gather_to_scatter() {
        // The gathered-read/scattered-write discipline: both sides
        // independent, still one pass (the Section 7 composition).
        let mut rng = StdRng::seed_from_u64(74);
        let g = geom();
        let z = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        let plan_passes = vec![
            pass_of(&z.inverse(), PassKind::MldInverse),
            pass_of(&y, PassKind::Mld),
        ];
        for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
            let (plan, ios) = run_fused(g, &plan_passes, mode);
            assert_eq!(plan.num_steps(), 1);
            assert_eq!(plan.steps[0].reads(), ReadDiscipline::Gather);
            assert_eq!(plan.steps[0].write, WriteDiscipline::Scatter);
            assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
        }
    }

    #[test]
    fn mld_then_mrc_does_not_fuse_in_general() {
        // An MLD pass scatters blocks; unless the composition lands
        // back in a one-pass class (rank rule), the pair must stay two
        // steps. Find such a pair and check it executes correctly.
        let mut rng = StdRng::seed_from_u64(75);
        let g = geom();
        let mut found = false;
        for _ in 0..50 {
            let mld = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
            let mrc = catalog::random_mrc(&mut rng, g.n(), g.m());
            let composed = mrc.compose(&mld);
            if is_mld(composed.matrix(), g.b(), g.m())
                || is_mld_inverse(composed.matrix(), g.b(), g.m())
                // The DP fuser can also gather *through* the MLD pass
                // when it happens to be MLD⁻¹ too — exclude that.
                || is_mld_inverse(mld.matrix(), g.b(), g.m())
            {
                continue;
            }
            let plan_passes = vec![pass_of(&mld, PassKind::Mld), pass_of(&mrc, PassKind::Mrc)];
            let (plan, ios) = run_fused(g, &plan_passes, ServiceMode::Serial);
            assert_eq!(plan.num_steps(), 2, "illegal pair must not fuse");
            assert_eq!(ios.parallel_ios() as usize, 2 * g.ios_per_pass());
            found = true;
            break;
        }
        assert!(found, "no non-fusable MLD;MRC pair sampled");
    }

    #[test]
    fn rank_rule_fuses_composition_landing_in_mld() {
        // MLD;MLD where the composition is MLD again: the discipline
        // rule does not apply (first pass scatters), but the rank rule
        // fires. Take Z then Z⁻¹·Y for MLD Y — composition is Y.
        // Z⁻¹·Y is usually not in any one-pass class by itself, so
        // construct directly: p1 = MLD Z, p2 with matrix Y·Z⁻¹ won't
        // generally be a *pass*. Instead use two erasers (involutions,
        // MLD) whose product is another eraser-form MLD matrix.
        let g = geom();
        let (b, m, n) = (g.b(), g.m(), g.n());
        let e1 = crate::factors::eraser(n, b, m, &[crate::factors::ColAdd { src: m, dst: b }]);
        let e2 = crate::factors::eraser(
            n,
            b,
            m,
            &[crate::factors::ColAdd {
                src: m + 1,
                dst: b + 1,
            }],
        );
        let p1 = Bmmc::linear(e1).unwrap();
        let p2 = Bmmc::linear(e2).unwrap();
        assert!(is_mld(p1.matrix(), b, m) && is_mld(p2.matrix(), b, m));
        let product = p2.compose(&p1);
        assert!(
            is_mld(product.matrix(), b, m),
            "eraser product should stay MLD"
        );
        let plan_passes = vec![pass_of(&p1, PassKind::Mld), pass_of(&p2, PassKind::Mld)];
        let (plan, ios) = run_fused(g, &plan_passes, ServiceMode::Serial);
        assert_eq!(plan.num_steps(), 1, "rank rule should fuse MLD;MLD here");
        assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
    }

    #[test]
    fn gather_headed_group_keeps_absorbing_striped_readers() {
        // MLD⁻¹; MRC; MRC; MLD → one gathered-read, scattered-write
        // step (the group's write side stays striped until the MLD).
        let mut rng = StdRng::seed_from_u64(76);
        let g = geom();
        let plan_passes = vec![
            pass_of(
                &catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse(),
                PassKind::MldInverse,
            ),
            pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
            pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
            pass_of(
                &catalog::random_mld(&mut rng, g.n(), g.b(), g.m()),
                PassKind::Mld,
            ),
        ];
        let (plan, ios) = run_fused(g, &plan_passes, ServiceMode::Threaded);
        assert_eq!(plan.num_steps(), 1, "whole chain must fuse");
        assert_eq!(plan.planned_passes(), 4);
        assert_eq!(plan.steps[0].label(), "MldInverse+Mrc+Mrc+Mld");
        assert_eq!(ios.parallel_ios() as usize, g.ios_per_pass());
    }

    #[test]
    fn complements_compose_through_fusion() {
        // Nonzero complements on both passes of a fused pair.
        let g = geom();
        let rev = catalog::vector_reversal(g.n()); // identity matrix, c = 1…1
        let gray = catalog::gray_code(g.n());
        let plan_passes = vec![
            pass_of(&rev, PassKind::Mrc),
            pass_of(&gray, PassKind::Mrc),
            pass_of(&rev, PassKind::Mrc),
        ];
        let (plan, _) = run_fused(g, &plan_passes, ServiceMode::Serial);
        assert_eq!(plan.num_steps(), 1);
    }

    #[test]
    fn empty_and_singleton_plans() {
        let g = geom();
        assert_eq!(fuse_passes(&[], g.b(), g.m()).num_steps(), 0);
        let mut rng = StdRng::seed_from_u64(77);
        let p = pass_of(
            &catalog::random_mld(&mut rng, g.n(), g.b(), g.m()),
            PassKind::Mld,
        );
        let plan = fuse_passes(std::slice::from_ref(&p), g.b(), g.m());
        assert_eq!(plan.num_steps(), 1);
        assert_eq!(plan.planned_passes(), 1);
        assert!(!plan.steps[0].is_fused());
    }

    #[test]
    fn bpc_baseline_plan_halves_round_trips() {
        // The flagship workload: the baseline's (MLD, MRC)×k + MRC
        // plan fuses to k+1 steps.
        let mut rng = StdRng::seed_from_u64(78);
        let g = geom();
        for _ in 0..5 {
            let perm = catalog::random_bpc(&mut rng, g.n());
            let plan_passes = crate::bpc_baseline::bpc_baseline_plan(&perm, g.b(), g.m())
                .unwrap()
                .passes;
            if plan_passes.len() < 3 {
                continue; // no crossing chunks: nothing to fuse
            }
            let k = (plan_passes.len() - 1) / 2;
            let (plan, ios) = run_fused(g, &plan_passes, ServiceMode::Serial);
            assert!(
                plan.num_steps() <= k + 1,
                "baseline plan of {} passes should fuse to at most {} steps, got {}",
                plan_passes.len(),
                k + 1,
                plan.num_steps()
            );
            assert_eq!(
                ios.parallel_ios() as usize,
                plan.num_steps() * g.ios_per_pass(),
                "fused execution must charge one pass per step"
            );
        }
    }
}
