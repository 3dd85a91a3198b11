//! Property tests: fused execution ≡ unfused execution. For any pass
//! plan, `Plan::execute` on the DP-fused plan and the reference
//! `bmmc::execute_passes_unfused` must place every record — key *and*
//! payload — identically, across the five engine-equivalence
//! geometries in both serial and threaded service modes. The I/O
//! saving is asserted *exactly*: each skipped intermediate pass
//! removes precisely `N/BD` parallel reads, `N/BD` parallel writes,
//! and `N/B` blocks in each direction, so the fused `IoStats` equal
//! the unfused totals minus the skipped passes.

use bmmc::algorithm::execute_passes_unfused;
use bmmc::bpc_baseline::bpc_baseline_plan;
use bmmc::factoring::{Pass, PassKind};
use bmmc::fusion::{execute_fused_with_strategy, fuse_passes};
use bmmc::passes::EvalStrategy;
use bmmc::{catalog, plan_passes, Bmmc, Plan, RunReport};
use pdm::{DiskSystem, Geometry, PassEngine, ServiceMode, TaggedRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn mode_of(threaded: bool) -> ServiceMode {
    if threaded {
        ServiceMode::Threaded
    } else {
        ServiceMode::Serial
    }
}

fn pass_of(perm: &Bmmc, kind: PassKind) -> Pass {
    Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind,
    }
}

/// Runs `passes` fused and unfused on identical tagged inputs and
/// asserts byte-identical placement plus the exact I/O arithmetic.
/// Returns the two reports for plan-specific assertions.
fn assert_fused_equals_unfused(
    g: Geometry,
    passes: &[Pass],
    mode: ServiceMode,
) -> Result<(RunReport, RunReport), TestCaseError> {
    let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
    let composed = passes
        .iter()
        .fold(Bmmc::identity(g.n()), |c, p| p.as_bmmc().compose(&c));

    let mut fused_sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
    fused_sys.set_service_mode(mode);
    fused_sys.load_records(0, &input);
    let fused = Plan::from_passes(passes, g.b(), g.m())
        .execute(&mut fused_sys, &composed, |r| r.key)
        .expect("fused execution");

    let mut plain_sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
    plain_sys.set_service_mode(mode);
    plain_sys.load_records(0, &input);
    let unfused = execute_passes_unfused(&mut plain_sys, passes).expect("unfused execution");

    // Identical final placement, keys and payloads alike. (The final
    // portion may differ when fusion removes an odd number of
    // ping-pong hops; the *contents* may not.)
    let fused_out = fused_sys.dump_records(fused.final_portion);
    let plain_out = plain_sys.dump_records(unfused.final_portion);
    prop_assert_eq!(&fused_out, &plain_out, "placements diverged");
    prop_assert!(
        fused_out.iter().all(TaggedRecord::intact),
        "payload corrupted by fused execution"
    );

    // The plan arithmetic: the planner and the executed report agree.
    let plan = Plan::from_passes(passes, g.b(), g.m());
    prop_assert_eq!(fused.num_passes(), plan.num_steps());
    prop_assert_eq!(plan.num_steps() + plan.passes_saved(), passes.len());
    prop_assert_eq!(unfused.num_passes(), passes.len());

    // Exact stats: each skipped pass removes one full round-trip.
    let saved = plan.passes_saved() as u64;
    let stripes = g.stripes() as u64;
    let blocks = g.total_blocks() as u64;
    prop_assert_eq!(
        fused.total.parallel_reads,
        unfused.total.parallel_reads - saved * stripes,
        "parallel reads must drop by exactly N/BD per skipped pass"
    );
    prop_assert_eq!(
        fused.total.parallel_writes,
        unfused.total.parallel_writes - saved * stripes,
        "parallel writes must drop by exactly N/BD per skipped pass"
    );
    prop_assert_eq!(
        fused.total.blocks_read,
        unfused.total.blocks_read - saved * blocks
    );
    prop_assert_eq!(
        fused.total.blocks_written,
        unfused.total.blocks_written - saved * blocks
    );
    prop_assert_eq!(
        fused_sys.buffer_pool_stats().outstanding,
        0,
        "fused execution stranded pooled buffers"
    );
    Ok((fused, unfused))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary BMMC permutations through the planner: whatever plan
    /// comes out (one-pass fast paths or the Section 5 factoring),
    /// fusing it changes nothing but the round-trip count.
    #[test]
    fn fused_equals_unfused_for_random_bmmc(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        assert_fused_equals_unfused(g, &passes, mode_of(threaded))?;
    }

    /// BPC baseline plans — the flagship fusion workload: `2k+1`
    /// planned passes must execute as exactly `k+1` steps.
    #[test]
    fn fused_equals_unfused_for_bpc_baseline_plans(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bpc(&mut rng, g.n());
        let passes = bpc_baseline_plan(&perm, g.b(), g.m())
            .expect("baseline planning failed")
            .passes;
        if passes.is_empty() {
            return Ok(()); // identity: nothing to execute
        }
        let (fused, unfused) =
            assert_fused_equals_unfused(g, &passes, mode_of(threaded))?;
        if passes.len() >= 3 {
            // The greedy pairing gives exactly ⌈len/2⌉ steps; the DP
            // fuser may occasionally re-associate below that.
            let k = (passes.len() - 1) / 2;
            prop_assert!(
                fused.num_passes() <= k + 1,
                "baseline fusion must at least halve round-trips: {} passes -> {} steps",
                passes.len(),
                fused.num_passes()
            );
            prop_assert!(fused.total.parallel_ios() < unfused.total.parallel_ios());
        }
    }

    /// The same fused steps under the block-run evaluator (the
    /// default) and the per-address evaluator: byte-identical placement
    /// and *exactly* equal total `IoStats` and message counts — the
    /// gather/scatter batches the step executor builds from block-level
    /// residuals must be observationally indistinguishable from the
    /// per-address ones, serial and threaded.
    #[test]
    fn fused_block_run_matches_per_address(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        let input: Vec<TaggedRecord> =
            (0..g.records() as u64).map(TaggedRecord::new).collect();

        let plan = fuse_passes(&passes, g.b(), g.m());
        // The BMMC-route loop of `Plan::execute`, with the strategy
        // chosen here.
        let run = |strategy: EvalStrategy| {
            let mut sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
            sys.set_service_mode(mode_of(threaded));
            sys.load_records(0, &input);
            let mut engine = PassEngine::new(g);
            let mut src = 0;
            for step in &plan.steps {
                execute_fused_with_strategy(&mut engine, &mut sys, src, 1 - src, step, strategy)
                    .expect("fused execution");
                src = 1 - src;
            }
            (sys.dump_records(src), sys.stats(), sys.message_stats())
        };
        let (block_out, block_total, block_msgs) = run(EvalStrategy::BlockRun);
        let (addr_out, addr_total, addr_msgs) = run(EvalStrategy::PerAddress);
        prop_assert_eq!(block_out, addr_out, "placements diverged across strategies");
        prop_assert_eq!(
            block_total,
            addr_total,
            "total I/O diverged across strategies"
        );
        prop_assert_eq!(
            block_msgs,
            addr_msgs,
            "message counts diverged across strategies"
        );
    }

    /// Hand-built fully-fusable chains: every pair the discipline rule
    /// covers collapses to a single round-trip — exactly half (or a
    /// k-th of) the unfused I/O.
    #[test]
    fn fully_fusable_chains_collapse_to_one_step(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
        shape in 0usize..4,
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let mut mrc = || pass_of(&catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc);
        let mut rng2 = StdRng::seed_from_u64(s ^ 0xDEAD);
        let mut mld = || {
            pass_of(
                &catalog::random_mld(&mut rng2, g.n(), g.b(), g.m()),
                PassKind::Mld,
            )
        };
        let mut rng3 = StdRng::seed_from_u64(s ^ 0xBEEF);
        let mut mld_inv = || {
            pass_of(
                &catalog::random_mld(&mut rng3, g.n(), g.b(), g.m()).inverse(),
                PassKind::MldInverse,
            )
        };
        let chain: Vec<Pass> = match shape {
            0 => vec![mrc(), mld()],
            1 => vec![mld_inv(), mrc()],
            2 => vec![mld_inv(), mld()],
            _ => vec![mrc(), mrc(), mrc()],
        };
        let planned = chain.len() as u64;
        let (fused, unfused) = assert_fused_equals_unfused(g, &chain, mode_of(threaded))?;
        prop_assert_eq!(fused.num_passes(), 1, "chain shape {} must fully fuse", shape);
        prop_assert_eq!(
            fused.total.parallel_ios() * planned,
            unfused.total.parallel_ios(),
            "fully-fusable chain must cut I/O by exactly the chain length"
        );
    }
}
