//! The unified plan IR and the DP whole-plan fuser, end to end.
//!
//! * The committed `MLD;MRC;MLD` re-association regression: the DP
//!   fuser executes the chain in one step where greedy pair fusion
//!   needs two — strictly fewer steps *and* strictly fewer measured
//!   parallel I/Os, with byte-identical placement.
//! * DP ≤ greedy across the geometry zoo (proptest): for random BMMC
//!   factorings and adversarial worst-cross-rank draws, the DP plan
//!   never has more steps, and both executions place every record
//!   byte-identically.
//! * The one executor: every plan `plan::candidates` offers — the BMMC
//!   route and each sort route — runs through `Plan::execute` with
//!   byte-identical placement and exactly its predicted parallel I/Os
//!   and steps, serial and threaded.

use bmmc::plan::reassociation_case;
use bmmc::{
    candidates, catalog, fuse_passes, fuse_passes_greedy, plan_passes, Bmmc, CandidateKind, Plan,
};
use pdm::{DiskSystem, Geometry, ServiceMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Geometries spanning the corners the fuser's legality rules care
/// about: minimum memory, B = 1, D = 1, wide arrays, deep factorings.
fn geometry_zoo() -> Vec<Geometry> {
    vec![
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 4).unwrap(),
        Geometry::new(1 << 12, 1 << 3, 1 << 2, 1 << 8).unwrap(),
        Geometry::new(1 << 12, 1, 1 << 2, 1 << 6).unwrap(),
        Geometry::new(1 << 11, 1 << 1, 1 << 3, 1 << 7).unwrap(),
        Geometry::new(1 << 13, 1 << 3, 1 << 1, 1 << 5).unwrap(),
    ]
}

/// Runs `plan` for `perm` on a fresh system of `u64` records loaded as
/// their own source addresses, checks the measured parallel I/Os and
/// steps against the plan, and returns (placement, parallel I/Os).
fn run_plan(g: Geometry, plan: &Plan, perm: &Bmmc, mode: ServiceMode) -> (Vec<u64>, u64) {
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    sys.set_service_mode(mode);
    sys.load_records(0, &(0..g.records() as u64).collect::<Vec<_>>());
    let report = plan.execute(&mut sys, perm, |&r| r).unwrap();
    assert_eq!(report.total.parallel_ios(), plan.parallel_ios(&g));
    assert_eq!(report.num_passes(), plan.num_steps());
    (
        sys.dump_records(report.final_portion),
        report.total.parallel_ios(),
    )
}

/// The flagship regression: the committed chain where whole-plan DP
/// provably beats greedy pair fusion.
#[test]
fn reassociation_regression_fewer_steps_and_fewer_measured_ios() {
    let g = Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap();
    let passes = reassociation_case(g.n(), g.b(), g.m());
    let greedy = fuse_passes_greedy(&passes, g.b(), g.m());
    let dp = fuse_passes(&passes, g.b(), g.m());
    assert_eq!(greedy.num_steps(), 2);
    assert_eq!(dp.num_steps(), 1);
    let composed = passes
        .iter()
        .fold(Bmmc::identity(g.n()), |c, p| p.as_bmmc().compose(&c));

    let serial = ServiceMode::Serial;
    let (greedy_out, greedy_ios) = run_plan(g, &greedy.into(), &composed, serial);
    let (dp_out, dp_ios) = run_plan(g, &dp.into(), &composed, serial);
    assert_eq!(dp_out, greedy_out, "placements must be byte-identical");
    assert!(
        dp_ios < greedy_ios,
        "DP must measure strictly fewer parallel I/Os ({dp_ios} vs {greedy_ios})"
    );
    assert_eq!(dp_ios, g.ios_per_pass() as u64);

    // And the reference permutation is actually performed.
    for x in 0..g.records() as u64 {
        assert_eq!(dp_out[composed.target(x) as usize], x);
    }
}

/// `--algorithm auto` executes whichever candidate it picks, so every
/// candidate must run through `Plan::execute` exactly as planned: the
/// BMMC route and each sort route place every record byte-identically
/// and measure exactly the plan's parallel I/Os and steps, serial and
/// threaded, over the zoo plus the planner section's `narrow`
/// geometry (where the auto pick flips between the sort strategies).
#[test]
fn every_candidate_plan_executes_exactly_as_planned() {
    let mut rng = StdRng::seed_from_u64(77);
    let narrow = Geometry::new(1 << 9, 1 << 2, 1 << 1, 1 << 6).unwrap();
    let mut sort_runs = 0;
    for g in geometry_zoo().into_iter().chain([narrow]) {
        let perms = [
            catalog::random_bmmc(&mut rng, g.n()),
            catalog::random_worst_rank(&mut rng, g.n(), g.m()),
        ];
        for perm in &perms {
            let plans = candidates(perm, &g);
            assert_eq!(plans[0].candidate, CandidateKind::Bmmc);
            let expect: Vec<u64> = {
                let mut out = vec![0; g.records()];
                for x in 0..g.records() as u64 {
                    out[perm.target(x) as usize] = x;
                }
                out
            };
            for mode in [ServiceMode::Serial, ServiceMode::Threaded] {
                for plan in &plans {
                    let (out, _) = run_plan(g, plan, perm, mode);
                    assert!(
                        out == expect,
                        "{} misplaced records on {g:?} ({mode:?})",
                        plan.describe()
                    );
                    sort_runs += usize::from(plan.candidate != CandidateKind::Bmmc);
                }
            }
        }
    }
    // Every zoo geometry but the M = 2BD corner can merge.
    assert!(sort_runs >= 12, "only {sort_runs} sort-route runs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DP never produces more steps than greedy, and both plans place
    /// every record byte-identically, across the zoo — for generic
    /// random BMMC draws and for adversarial worst-cross-rank draws
    /// (maximal `rank γ̂`, the longest factorings).
    #[test]
    fn dp_never_worse_than_greedy_and_placement_identical(
        seed in any::<u64>(),
        gi in 0usize..6,
        adversarial in any::<bool>(),
    ) {
        let g = geometry_zoo()[gi];
        let mut rng = StdRng::seed_from_u64(seed);
        let perm = if adversarial {
            catalog::random_worst_rank(&mut rng, g.n(), g.m())
        } else {
            catalog::random_bmmc(&mut rng, g.n())
        };
        let passes = plan_passes(&perm, g.b(), g.m()).unwrap();
        let greedy = fuse_passes_greedy(&passes, g.b(), g.m());
        let dp = fuse_passes(&passes, g.b(), g.m());
        prop_assert!(dp.num_steps() <= greedy.num_steps());
        prop_assert!(dp.verify(&perm), "DP plan must recompose the permutation");
        let dp_steps = dp.num_steps();

        let serial = ServiceMode::Serial;
        let (greedy_out, greedy_ios) = run_plan(g, &greedy.into(), &perm, serial);
        let (dp_out, dp_ios) = run_plan(g, &dp.into(), &perm, serial);
        prop_assert_eq!(dp_out, greedy_out, "placements diverged");
        prop_assert!(dp_ios <= greedy_ios);
        prop_assert_eq!(
            dp_ios,
            dp_steps as u64 * g.ios_per_pass() as u64,
            "each DP step is one full round-trip"
        );
    }
}
