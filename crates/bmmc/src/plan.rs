//! The unified plan IR: one `Plan` value that every planner produces
//! and one executor ([`Plan::execute`]) runs, plus the two-sided cost
//! model behind `--algorithm auto`.
//!
//! The paper's Theorem 17 argument is a *planning* argument — choose
//! the factorization whose pass sequence minimizes I/O. A [`Plan`] is a
//! sequence of typed [`PlanStep`]s — classic or fused BMMC passes
//! ([`crate::fusion::FusedPass`], fused by the whole-plan DP of
//! [`crate::fusion::fuse_passes`]) and external-sort passes
//! ([`SortPass`], replaying `extsort`'s schedule exactly via
//! [`extsort::merge_sort_levels`]) — each of which knows its exact
//! parallel-I/O count and its access patterns, so a plan can be costed
//! two ways:
//!
//! * **exact parallel I/Os** ([`Plan::parallel_ios`]): the paper's cost
//!   metric, `2N/BD` per BMMC round-trip and the replayed merge
//!   schedule for sort passes — these counts are *exact*:
//!   [`Plan::execute`] checks them against every run, and the bench
//!   gates them;
//! * **modeled wall-clock** ([`Plan::modeled_ms`]): a seek-aware
//!   estimate under a [`pdm::TimingModel`], charging each pass side by
//!   its [`AccessPattern`] — striped sides run mostly sequential (one
//!   positioning seek, then track-rate continuation), gathered /
//!   scattered / forecast-refill sides pay a seek per operation. Two
//!   plans with equal parallel-I/O counts can differ several-fold here,
//!   which is exactly the distinction the paper's model abstracts away
//!   and [`pdm::TimingTracker`] makes visible.
//!
//! [`candidates`] enumerates every executable plan for a permutation —
//! the DP-fused BMMC plan plus the external-sort general-permutation
//! route under each merge strategy — and [`choose`] picks the cheapest
//! by modeled wall-clock (exact I/Os as tie-break). The CLI's
//! `--algorithm auto` and the `engine_sweep` `planner` crossover table
//! are both this pair of calls; `auto` then executes the plan it
//! printed.

use crate::algorithm::plan_passes;
use crate::bmmc::Bmmc;
use crate::classes::{is_mld, is_mld_inverse, is_mrc};
use crate::error::{BmmcError, Result};
use crate::factoring::Pass;
use crate::fusion::{
    execute_fused_with_strategy, fuse_passes, FusedPass, FusedPlan, WriteDiscipline,
};
use crate::passes::EvalStrategy;
use extsort::{MergeStrategy, SortConfig};
use pdm::{DiskSystem, Geometry, IoStats, MsgStats, PassEngine, Record, TimingModel};

/// How one side (read or write) of a plan step touches the disks —
/// the distinction the wall-clock model charges for and the paper's
/// parallel-I/O metric deliberately ignores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive slots per disk: one positioning seek, then
    /// track-rate continuation (striped memoryload sides, run
    /// formation, merge output).
    Sequential,
    /// Every operation repositions the head: gathered reads, scattered
    /// writes, interleaved merge-run reads, forecast block refills.
    Random,
}

/// The exact I/O shape of one plan step: operation counts and access
/// patterns per side. Parallel-I/O counts are exact (matched by the
/// executors); patterns feed the wall-clock model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepIo {
    /// Parallel read operations.
    pub reads: u64,
    /// How the reads touch the disks.
    pub read_pattern: AccessPattern,
    /// Parallel write operations.
    pub writes: u64,
    /// How the writes touch the disks.
    pub write_pattern: AccessPattern,
}

impl StepIo {
    /// Total parallel I/Os of the step (the paper's metric).
    pub fn parallel_ios(&self) -> u64 {
        self.reads + self.writes
    }

    /// Modeled wall-clock of the step under `timing`: a sequential
    /// side of `k` operations costs one seek plus `k−1` track-rate
    /// continuations plus `k` transfers; a random side costs a seek
    /// and a transfer per operation (each operation moves one block
    /// per participating disk, so the barrier-synchronous makespan of
    /// one operation is a single access's cost — exactly what
    /// [`pdm::TimingTracker`] charges).
    pub fn modeled_ms(&self, timing: &TimingModel) -> f64 {
        side_ms(self.reads, self.read_pattern, timing)
            + side_ms(self.writes, self.write_pattern, timing)
    }
}

fn side_ms(ops: u64, pattern: AccessPattern, t: &TimingModel) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let ops_f = ops as f64;
    match pattern {
        AccessPattern::Sequential => {
            t.seek_ms + (ops_f - 1.0) * t.sequential_ms + ops_f * t.transfer_ms
        }
        AccessPattern::Random => ops_f * (t.seek_ms + t.transfer_ms),
    }
}

/// What a [`SortPass`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortPassKind {
    /// The run-formation pass: read each memoryload striped, sort in
    /// RAM, write it back striped as one sorted run.
    RunFormation,
    /// One merge level: every non-singleton group of runs is merged;
    /// leftover singleton groups stay in place and charge nothing.
    Merge {
        /// Groups actually merged on this level.
        merged_groups: usize,
        /// Leftover groups of one run, left in place.
        singleton_groups: usize,
    },
}

/// One external-sort pass placed on a plan — the `extsort` schedule
/// replayed step-for-step (run sizes, `chunks(fan_in)` grouping, the
/// leftover-singleton rule) via [`extsort::merge_sort_levels`], so the
/// planned counts equal the measured ones exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SortPass {
    /// What this pass does.
    pub kind: SortPassKind,
    /// Exact I/O shape of the pass.
    pub io: StepIo,
}

/// One step of a [`Plan`]: a single disk round-trip (BMMC) or one
/// external-sort pass.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// A classic or fused BMMC one-pass permutation: one read and one
    /// write of all `N` records, `2N/BD` parallel I/Os.
    Bmmc(FusedPass),
    /// One pass of an external merge sort (run formation or a merge
    /// level).
    Sort(SortPass),
}

impl PlanStep {
    /// The exact I/O shape of this step on `geom`.
    pub fn io(&self, geom: &Geometry) -> StepIo {
        match self {
            PlanStep::Bmmc(step) => {
                let stripes = geom.stripes() as u64;
                StepIo {
                    reads: stripes,
                    read_pattern: if step.gather.is_some() {
                        AccessPattern::Random
                    } else {
                        AccessPattern::Sequential
                    },
                    writes: stripes,
                    write_pattern: match step.write {
                        WriteDiscipline::Striped => AccessPattern::Sequential,
                        WriteDiscipline::Scatter => AccessPattern::Random,
                    },
                }
            }
            PlanStep::Sort(pass) => pass.io,
        }
    }

    /// Display label, e.g. `"Mrc+Mld"`, `"run-formation"`, or
    /// `"merge(16 groups)"`.
    pub fn label(&self) -> String {
        match self {
            PlanStep::Bmmc(step) => step.label(),
            PlanStep::Sort(pass) => match pass.kind {
                SortPassKind::RunFormation => "run-formation".to_string(),
                SortPassKind::Merge {
                    merged_groups,
                    singleton_groups,
                } => {
                    if singleton_groups > 0 {
                        format!("merge({merged_groups} groups, {singleton_groups} held)")
                    } else {
                        format!("merge({merged_groups} groups)")
                    }
                }
            },
        }
    }
}

/// Which executable route a candidate [`Plan`] takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateKind {
    /// The BMMC route: the one-pass fast paths or the Section 5
    /// factoring, DP-fused.
    Bmmc,
    /// The general-permutation route: external merge sort on the
    /// target addresses under the given merge strategy.
    Sort(MergeStrategy),
}

impl CandidateKind {
    /// Stable short name: `"bmmc"`, `"sort-single"`, `"sort-forecast"`
    /// — the labels the CLI candidate table and the bench `planner`
    /// section use.
    pub fn name(&self) -> &'static str {
        match self {
            CandidateKind::Bmmc => "bmmc",
            CandidateKind::Sort(MergeStrategy::SingleBuffered) => "sort-single",
            CandidateKind::Sort(MergeStrategy::Forecast) => "sort-forecast",
        }
    }
}

/// What executing a [`Plan`] measured, on either route.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Total I/O across all steps.
    pub total: IoStats,
    /// Transport messages and wire bytes moved by all steps —
    /// identically zero when the disk system is served in process
    /// (channels move buffers, not messages).
    pub msgs: MsgStats,
    /// Executed steps: disk round-trips or sort passes.
    pub(crate) steps: usize,
    /// The portion (0 or 1) holding the permuted data afterwards.
    pub final_portion: usize,
}

impl RunReport {
    /// Number of executed steps (disk round-trips or sort passes).
    pub fn num_passes(&self) -> usize {
        self.steps
    }
}

/// An executable plan: a typed step sequence with exact per-step I/O
/// counts and a modeled wall-clock. Produced by [`Plan::bmmc`],
/// [`Plan::from_passes`], [`Plan::sort`], and from a [`FusedPlan`];
/// run by [`Plan::execute`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which route this plan takes.
    pub candidate: CandidateKind,
    /// The steps, in execution order.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// The BMMC-route plan for `perm` on `geom`: the one-pass fast
    /// paths or the Section 5 factoring, fused by [`fuse_passes`].
    pub fn bmmc(perm: &Bmmc, geom: &Geometry) -> Result<Plan> {
        check_width(perm, geom)?;
        let passes = plan_passes(perm, geom.b(), geom.m())?;
        Ok(Plan::from_passes(&passes, geom.b(), geom.m()))
    }

    /// Places an explicit pass list on the IR, DP-fused.
    pub fn from_passes(passes: &[Pass], b: usize, m: usize) -> Plan {
        fuse_passes(passes, b, m).into()
    }

    /// The general-permutation plan on `geom` under `strategy`:
    /// run formation plus the exact merge-level schedule. `None` when
    /// memory is too small to merge (fan-in < 2).
    pub fn sort(geom: &Geometry, strategy: MergeStrategy) -> Option<Plan> {
        let levels = extsort::merge_sort_levels(geom, strategy)?;
        let stripes = geom.stripes() as u64;
        let mut steps = vec![PlanStep::Sort(SortPass {
            kind: SortPassKind::RunFormation,
            io: StepIo {
                reads: stripes,
                read_pattern: AccessPattern::Sequential,
                writes: stripes,
                write_pattern: AccessPattern::Sequential,
            },
        })];
        for level in levels {
            // Striped strategies read one stripe per refill but hop
            // between the interleaved runs (Random); the forecasting
            // merge performs `D` independent single-block refills per
            // merged stripe. Writes stream each group's output run.
            steps.push(PlanStep::Sort(SortPass {
                kind: SortPassKind::Merge {
                    merged_groups: level.merged_groups,
                    singleton_groups: level.singleton_groups,
                },
                io: StepIo {
                    reads: level.parallel_ios - level.merged_stripes,
                    read_pattern: AccessPattern::Random,
                    writes: level.merged_stripes,
                    write_pattern: AccessPattern::Sequential,
                },
            }));
        }
        Some(Plan {
            candidate: CandidateKind::Sort(strategy),
            steps,
        })
    }

    /// Number of steps (disk round-trips / sort passes).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Exact total parallel I/Os of the plan on `geom`. For the BMMC
    /// route this is `num_steps · 2N/BD`; for the sort route it equals
    /// [`extsort::merge_sort_ios`] exactly.
    pub fn parallel_ios(&self, geom: &Geometry) -> u64 {
        self.steps.iter().map(|s| s.io(geom).parallel_ios()).sum()
    }

    /// Modeled wall-clock of the plan on `geom` under `timing` (see
    /// [`StepIo::modeled_ms`]). Deterministic — a pure function of the
    /// plan and the model, so crossover picks are gateable.
    pub fn modeled_ms(&self, geom: &Geometry, timing: &TimingModel) -> f64 {
        self.steps
            .iter()
            .map(|s| s.io(geom).modeled_ms(timing))
            .sum()
    }

    /// Disk round-trips pass fusion saved: planned one-pass
    /// permutations minus executed steps (zero on the sort route).
    pub fn passes_saved(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                PlanStep::Bmmc(step) => step.num_replaced() - 1,
                PlanStep::Sort(_) => 0,
            })
            .sum()
    }

    /// Executes the plan on the records in portion 0 of `sys`,
    /// performing `perm`, and checks the run against the plan: the
    /// measured parallel I/Os and steps must equal
    /// [`Plan::parallel_ios`] and [`Plan::num_steps`] exactly, or the
    /// run fails with [`BmmcError::PlanMismatch`].
    ///
    /// * **BMMC route**: each [`PlanStep::Bmmc`] runs in place through
    ///   the fused executor ([`execute_fused_with_strategy`]) on one
    ///   [`PassEngine`], ping-ponging between portions 0 and 1. The
    ///   steps already encode `perm`; records are never read.
    /// * **Sort route**: [`extsort::general_permute_with`] under the
    ///   plan's merge strategy. Records are opaque, so `key_of` must
    ///   recover each record's source address (e.g. `|&r| r` for `u64`
    ///   records loaded as their own index, `|r| r.key` for
    ///   [`pdm::TaggedRecord`]); the sort orders records by
    ///   `perm.target(key_of(record))`.
    ///
    /// # Panics
    ///
    /// On a BMMC-route plan holding a sort step, and on a system with
    /// fewer than two portions.
    pub fn execute<R: Record>(
        &self,
        sys: &mut DiskSystem<R>,
        perm: &Bmmc,
        key_of: impl Fn(&R) -> u64 + Copy,
    ) -> Result<RunReport> {
        let geom = sys.geometry();
        check_width(perm, &geom)?;
        let before = sys.stats();
        let msgs_before = sys.message_stats();
        let (steps, final_portion) = match self.candidate {
            CandidateKind::Bmmc => {
                assert!(
                    sys.portions() >= 2,
                    "plan execution needs a source and a target portion"
                );
                let mut engine = PassEngine::new(geom);
                let strategy = EvalStrategy::default();
                let mut src = 0;
                for step in &self.steps {
                    let PlanStep::Bmmc(step) = step else {
                        panic!("a BMMC-route plan holds a sort step: {}", self.describe());
                    };
                    execute_fused_with_strategy(&mut engine, sys, src, 1 - src, step, strategy)?;
                    src = 1 - src;
                }
                (self.steps.len(), src)
            }
            CandidateKind::Sort(merge) => {
                let target = |x| perm.target(x);
                let r = extsort::general_permute_with(sys, key_of, target, SortConfig { merge })?;
                (r.passes, r.final_portion)
            }
        };
        let report = RunReport {
            total: sys.stats().since(&before),
            msgs: sys.message_stats().since(&msgs_before),
            steps,
            final_portion,
        };
        let predicted = (self.parallel_ios(&geom), self.num_steps());
        let measured = (report.total.parallel_ios(), steps);
        if measured != predicted {
            return Err(BmmcError::PlanMismatch {
                predicted,
                measured,
            });
        }
        Ok(report)
    }

    /// One-line description: candidate name plus the step labels.
    pub fn describe(&self) -> String {
        let labels: Vec<String> = self.steps.iter().map(PlanStep::label).collect();
        format!("{}: {}", self.candidate.name(), labels.join("; "))
    }
}

impl From<FusedPlan> for Plan {
    fn from(fused: FusedPlan) -> Plan {
        Plan {
            candidate: CandidateKind::Bmmc,
            steps: fused.steps.into_iter().map(PlanStep::Bmmc).collect(),
        }
    }
}

fn check_width(perm: &Bmmc, geom: &Geometry) -> Result<()> {
    if perm.bits() != geom.n() {
        return Err(BmmcError::GeometryMismatch {
            perm_bits: perm.bits(),
            system_bits: geom.n(),
        });
    }
    Ok(())
}

/// Every executable candidate plan for performing `perm` on `geom`:
/// the DP-fused BMMC route (when `perm` factors — it always does for a
/// nonsingular matrix) followed by the external-sort route under each
/// of [`MergeStrategy::ALL`] (when the geometry can merge). Order is
/// stable; [`choose`] breaks cost ties by this order.
pub fn candidates(perm: &Bmmc, geom: &Geometry) -> Vec<Plan> {
    let bmmc = Plan::bmmc(perm, geom).ok();
    let sorts = MergeStrategy::ALL
        .into_iter()
        .filter_map(|s| Plan::sort(geom, s));
    bmmc.into_iter().chain(sorts).collect()
}

/// Picks the cheapest candidate: minimal modeled wall-clock under
/// `timing`, ties broken by exact parallel-I/O count, then by
/// [`candidates`] order. Returns `None` only for an empty slice.
pub fn choose<'a>(plans: &'a [Plan], geom: &Geometry, timing: &TimingModel) -> Option<&'a Plan> {
    plans.iter().min_by(|a, b| {
        let (ma, mb) = (a.modeled_ms(geom, timing), b.modeled_ms(geom, timing));
        ma.partial_cmp(&mb)
            .expect("modeled costs are finite")
            .then(a.parallel_ios(geom).cmp(&b.parallel_ios(geom)))
    })
}

/// The committed `MLD;MRC;MLD` re-association workload (the DP
/// fuser's flagship regression case, also a `planner`-section bench
/// row): a three-pass chain greedy pair fusion executes in two steps
/// but the DP executes in one.
///
/// Construction, at boundaries `(b, m)` with `n` address bits: let
/// `F = I + e_m e_bᵀ` (a lower-left unit — an involution satisfying
/// the MLD kernel condition, hence in MLD ∩ MLD⁻¹) and `E = Fᵀ` (an
/// upper-right unit, MRC). Then:
///
/// * `p₁ = F·E` is MLD but **not** MLD⁻¹ (`(FE)⁻¹ = EF` zeroes the
///   `(b, b)` entry, putting `e_b` in `ker α` while `δ e_b ≠ 0`);
/// * `p₂ = R`, an MRC chosen so `R·F·E` is in no one-pass class — and
///   for *every* MRC it is already outside MLD⁻¹, because
///   `(R·F·E)⁻¹ = E·F·R⁻¹` is MLD iff `E·F` is (right-multiplication
///   by an MRC preserves the kernel condition) and `E·F` is not;
/// * `p₃ = (EF)²·R⁻¹`, which is MLD because `(EF)² = I + e_b e_mᵀ +
///   e_m e_bᵀ + e_m e_mᵀ` satisfies the kernel condition and the
///   `R⁻¹` factor drops out of it.
///
/// Greedy: `[p₁]` scatters, `R·F·E` classifies nowhere, so the group
/// closes; `[p₂+p₃]` fuse by the discipline rule — two steps. DP: the
/// whole composition telescopes, `p₃·p₂·p₁ = (EF)²·(EF)⁻¹ = E·F`,
/// which is MLD⁻¹ — the full-gather split executes all three passes
/// in one round-trip, strictly fewer steps *and* parallel I/Os.
pub fn reassociation_case(n: usize, b: usize, m: usize) -> Vec<Pass> {
    use crate::catalog;
    use crate::factoring::PassKind;
    use crate::factors::{column_addition_matrix, eraser, ColAdd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(b + 1 < m && m < n, "need b < m < n with a nonempty band");
    let f =
        Bmmc::linear(eraser(n, b, m, &[ColAdd { src: m, dst: b }])).expect("units are nonsingular");
    let e = Bmmc::linear(column_addition_matrix(n, &[ColAdd { src: b, dst: m }]))
        .expect("units are nonsingular");
    let p1 = f.compose(&e); // F·E ∈ MLD \ MLD⁻¹
    let ef = e.compose(&f); // E·F = (F·E)⁻¹, the telescoped target
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let p2 = (0..200)
        .map(|_| catalog::random_mrc(&mut rng, n, m))
        .find(|r| {
            let c2 = r.compose(&p1);
            !is_mrc(c2.matrix(), m) && !is_mld(c2.matrix(), b, m)
        })
        .expect("an MRC breaking the pair composition exists");
    let p3 = ef.compose(&ef).compose(&p2.inverse()); // (EF)²·R⁻¹ ∈ MLD
    debug_assert!(is_mld(p1.matrix(), b, m) && !is_mld_inverse(p1.matrix(), b, m));
    debug_assert!(is_mld(p3.matrix(), b, m));
    debug_assert!(is_mld_inverse(p3.compose(&p2).compose(&p1).matrix(), b, m));
    let pass = |perm: &Bmmc, kind: PassKind| Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind,
    };
    vec![
        pass(&p1, PassKind::Mld),
        pass(&p2, PassKind::Mrc),
        pass(&p3, PassKind::Mld),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::factoring::PassKind;
    use crate::fusion::fuse_passes_greedy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn dp_beats_greedy_on_the_reassociation_case() {
        let g = geom();
        let passes = reassociation_case(g.n(), g.b(), g.m());
        assert_eq!(
            passes.iter().map(|p| p.kind).collect::<Vec<_>>(),
            vec![PassKind::Mld, PassKind::Mrc, PassKind::Mld]
        );
        let greedy = fuse_passes_greedy(&passes, g.b(), g.m());
        let dp = fuse_passes(&passes, g.b(), g.m());
        assert_eq!(greedy.num_steps(), 2, "greedy must be stuck at two steps");
        assert_eq!(dp.num_steps(), 1, "DP must find the re-association");
        assert!(dp.predicted_ios(&g) < greedy.predicted_ios(&g));
        let mut composed = Bmmc::identity(g.n());
        for p in &passes {
            composed = p.as_bmmc().compose(&composed);
        }
        assert!(is_mld_inverse(composed.matrix(), g.b(), g.m()));
        assert!(dp.verify(&composed), "DP plan must recompose the product");
        let step = &dp.steps[0];
        assert!(
            step.gather.is_some(),
            "the split gathers through the full MLD⁻¹ composition"
        );
        assert_eq!(step.write, WriteDiscipline::Striped);
    }

    #[test]
    fn dp_ties_return_the_greedy_plan_verbatim() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let perm = catalog::random_bmmc(&mut rng, g.n());
            let passes = plan_passes(&perm, g.b(), g.m()).unwrap();
            let greedy = fuse_passes_greedy(&passes, g.b(), g.m());
            let dp = fuse_passes(&passes, g.b(), g.m());
            assert!(dp.num_steps() <= greedy.num_steps());
            if dp.num_steps() == greedy.num_steps() {
                for (a, b2) in dp.steps.iter().zip(&greedy.steps) {
                    assert_eq!(a.matrix, b2.matrix);
                    assert_eq!(a.complement, b2.complement);
                    assert_eq!(a.write, b2.write);
                    assert_eq!(a.replaced, b2.replaced);
                    assert_eq!(
                        a.gather.as_ref().map(|g2| g2.matrix().clone()),
                        b2.gather.as_ref().map(|g2| g2.matrix().clone())
                    );
                }
            }
        }
    }

    #[test]
    fn sort_plan_replays_the_extsort_schedule_exactly() {
        for strategy in MergeStrategy::ALL {
            let g = Geometry::new(1 << 17, 1 << 3, 1 << 4, 1 << 12).unwrap();
            let plan = Plan::sort(&g, strategy).expect("geometry merges");
            assert_eq!(
                plan.parallel_ios(&g),
                extsort::merge_sort_ios(&g, strategy).unwrap(),
                "{strategy:?}"
            );
            assert_eq!(
                plan.num_steps(),
                extsort::merge_sort_passes(&g, strategy).unwrap()
            );
        }
    }

    #[test]
    fn bmmc_plan_ios_match_the_fused_step_count() {
        let g = geom();
        let mut rng = StdRng::seed_from_u64(4);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let plan = Plan::bmmc(&perm, &g).unwrap();
        assert_eq!(
            plan.parallel_ios(&g),
            (plan.num_steps() * g.ios_per_pass()) as u64
        );
    }

    #[test]
    fn execute_rejects_a_plan_costed_for_another_geometry() {
        // A sort plan for M = 2^6 run on an M = 2^5 system merges in
        // more passes than the plan holds: a typed mismatch, not a
        // silently different run.
        let g = geom();
        let small = Geometry::new(1 << 10, 1 << 2, 1 << 1, 1 << 5).unwrap();
        let plan = Plan::sort(&g, MergeStrategy::SingleBuffered).unwrap();
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(small, 2);
        sys.load_records(0, &(0..small.records() as u64).collect::<Vec<_>>());
        let err = plan
            .execute(&mut sys, &catalog::bit_reversal(g.n()), |&r| r)
            .unwrap_err();
        assert!(matches!(err, BmmcError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn choose_prefers_striped_bmmc_over_seek_bound_sorts_on_hdd() {
        let g = Geometry::new(1 << 17, 1 << 3, 1 << 4, 1 << 12).unwrap();
        let perm = catalog::bit_reversal(g.n());
        let plans = candidates(&perm, &g);
        assert!(plans.len() >= 2, "bmmc and at least one sort route");
        let pick = choose(&plans, &g, &TimingModel::hdd()).unwrap();
        assert_eq!(pick.candidate, CandidateKind::Bmmc);
    }

    #[test]
    fn modeled_cost_separates_equal_io_plans() {
        // An MRC pass and an MLD pass cost the same parallel I/Os but
        // different modeled time on a seek-heavy device.
        let g = geom();
        let mrc = Plan::from_passes(
            &[pass_of(
                &catalog::random_mrc(&mut StdRng::seed_from_u64(5), g.n(), g.m()),
                PassKind::Mrc,
            )],
            g.b(),
            g.m(),
        );
        let mld = Plan::from_passes(
            &[pass_of(
                &catalog::random_mld(&mut StdRng::seed_from_u64(5), g.n(), g.b(), g.m()),
                PassKind::Mld,
            )],
            g.b(),
            g.m(),
        );
        let t = TimingModel::hdd();
        assert_eq!(mrc.parallel_ios(&g), mld.parallel_ios(&g));
        assert!(mrc.modeled_ms(&g, &t) < mld.modeled_ms(&g, &t));
    }
}
