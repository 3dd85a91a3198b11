//! Property tests: the streaming `PassEngine` executors must be
//! observationally identical to the superseded per-call-site loops
//! (`bmmc::passes::reference`) — same final record placement and the
//! same `IoStats` (in particular `parallel_ios()`), pass by pass — for
//! random BMMC matrices across geometries, including the degenerate
//! D=1 and the M=2BD / M=BD boundary cases exercised by
//! `tests/boundary_sweep.rs`. The same properties additionally pin the
//! `FileDisk` backend against MemDisk (byte-identical placement,
//! identical parallel-I/O counts, serial and threaded), with the
//! per-disk files in self-cleaning temp dirs.

use bmmc::algorithm::plan_passes;
use bmmc::factoring::{Pass, PassKind};
use bmmc::fusion::{execute_fused_with_strategy, FusedPass};
use bmmc::passes::{
    execute_pass, execute_pass_with_strategy, reference, reference_permute, EvalStrategy,
};
use bmmc::{catalog, Bmmc};
use pdm::{DiskSystem, Geometry, PassEngine, ServiceMode, TaggedRecord, TempDir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The geometry zoo: comfortable, degenerate-D, and memory-boundary
/// cases. All have n ≤ 11 so a full simulation stays fast.
fn geometries() -> Vec<Geometry> {
    vec![
        // The test suite's staple: N=2^10, B=4, D=4, M=64.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        // Degenerate D=1: every "parallel" I/O moves one block.
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap(),
        // M = 2BD: two stripes per memoryload (boundary_sweep's edge).
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 5).unwrap(),
        // M = BD: a memoryload is a single stripe.
        Geometry::new(1 << 10, 1 << 1, 1 << 3, 1 << 4).unwrap(),
        // B = 1 with deep striping.
        Geometry::new(1 << 11, 1, 1 << 3, 1 << 4).unwrap(),
    ]
}

/// Runs `passes` with the engine executor (in `mode`) and the
/// reference loops (serial) on identical inputs; asserts equal
/// placement and equal per-pass I/O statistics.
fn assert_equivalent(g: Geometry, passes: &[Pass], mode: ServiceMode) -> Result<(), TestCaseError> {
    let input: Vec<u64> = (0..g.records() as u64).collect();
    let mut engine_sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    engine_sys.set_service_mode(mode);
    engine_sys.load_records(0, &input);
    let mut ref_sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
    ref_sys.load_records(0, &input);
    let mut src = 0usize;
    for (i, pass) in passes.iter().enumerate() {
        let dst = 1 - src;
        let engine_stats = execute_pass(&mut engine_sys, src, dst, pass).expect("engine pass");
        let ref_stats = reference::execute_pass(&mut ref_sys, src, dst, pass).expect("ref pass");
        prop_assert_eq!(
            engine_stats.ios,
            ref_stats.ios,
            "I/O accounting diverged on pass {} ({:?})",
            i,
            pass.kind
        );
        prop_assert_eq!(
            engine_stats.ios.parallel_ios() as usize,
            g.ios_per_pass(),
            "pass {} not charged 2N/BD",
            i
        );
        src = dst;
    }
    prop_assert_eq!(
        engine_sys.dump_records(src),
        ref_sys.dump_records(src),
        "placements diverged after {} passes",
        passes.len()
    );
    prop_assert_eq!(
        engine_sys.buffer_pool_stats().outstanding,
        0,
        "engine stranded pooled buffers"
    );
    Ok(())
}

fn mode_of(threaded: bool) -> ServiceMode {
    if threaded {
        ServiceMode::Threaded
    } else {
        ServiceMode::Serial
    }
}

/// Runs `passes` once per [`EvalStrategy`] — block-run (the default)
/// and per-address — on identical inputs in `mode`; asserts
/// byte-identical final placement and *exactly* equal per-pass
/// `IoStats` and message counts. The evaluation strategy is an
/// in-memory concern only: nothing observable at the disks may change.
fn assert_strategies_equivalent(
    g: Geometry,
    passes: &[Pass],
    mode: ServiceMode,
) -> Result<(), TestCaseError> {
    let input: Vec<u64> = (0..g.records() as u64).collect();
    let run = |strategy: EvalStrategy| {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.set_service_mode(mode);
        sys.load_records(0, &input);
        let mut engine = PassEngine::new(g);
        let mut src = 0usize;
        let mut stats = Vec::with_capacity(passes.len());
        for pass in passes {
            let dst = 1 - src;
            let st = execute_pass_with_strategy(&mut engine, &mut sys, src, dst, pass, strategy)
                .expect("pass execution");
            stats.push(st.ios);
            src = dst;
        }
        (sys.dump_records(src), stats, sys.message_stats())
    };
    let (block_out, block_stats, block_msgs) = run(EvalStrategy::BlockRun);
    let (addr_out, addr_stats, addr_msgs) = run(EvalStrategy::PerAddress);
    prop_assert_eq!(block_out, addr_out, "placements diverged across strategies");
    prop_assert_eq!(
        block_stats,
        addr_stats,
        "per-pass I/O accounting diverged across strategies"
    );
    prop_assert_eq!(
        block_msgs,
        addr_msgs,
        "message counts diverged across strategies"
    );
    Ok(())
}

/// Runs one `step` through the step executor once per
/// [`EvalStrategy`] on identical inputs in `mode`; asserts
/// byte-identical placement equal to the reference permutation,
/// exactly equal `IoStats` and message counts, and a cost of exactly
/// `2N/BD` parallel I/Os.
fn assert_step_strategies_equivalent(
    g: Geometry,
    step: &FusedPass,
    mode: ServiceMode,
) -> Result<(), TestCaseError> {
    let input: Vec<u64> = (0..g.records() as u64).collect();
    let run = |strategy: EvalStrategy| {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.set_service_mode(mode);
        sys.load_records(0, &input);
        let (before, msgs_before) = (sys.stats(), sys.message_stats());
        let mut engine = PassEngine::new(g);
        execute_fused_with_strategy(&mut engine, &mut sys, 0, 1, step, strategy)
            .expect("step execution");
        (
            sys.dump_records(1),
            sys.stats().since(&before),
            sys.message_stats().since(&msgs_before),
        )
    };
    let (block_out, block_stats, block_msgs) = run(EvalStrategy::BlockRun);
    let (addr_out, addr_stats, addr_msgs) = run(EvalStrategy::PerAddress);
    prop_assert_eq!(
        &block_out,
        &addr_out,
        "placements diverged across strategies"
    );
    prop_assert_eq!(
        block_stats,
        addr_stats,
        "I/O accounting diverged across strategies"
    );
    prop_assert_eq!(
        block_msgs,
        addr_msgs,
        "message counts diverged across strategies"
    );
    let perm = step.as_bmmc();
    prop_assert_eq!(
        block_out,
        reference_permute(&input, |x| perm.target(x)),
        "wrong final placement"
    );
    prop_assert_eq!(
        block_stats.parallel_ios() as usize,
        g.ios_per_pass(),
        "step not charged 2N/BD"
    );
    Ok(())
}

/// Runs `passes` on a **file-backed** system (engine executor, in
/// `mode`) and on a MemDisk system (engine, serial) with identical
/// `TaggedRecord` inputs; asserts byte-identical final placement,
/// intact payloads, and identical per-pass `IoStats`. The per-disk
/// files live in a self-cleaning [`TempDir`] (dropped even on panic).
fn assert_file_matches_mem(
    g: Geometry,
    passes: &[Pass],
    mode: ServiceMode,
) -> Result<(), TestCaseError> {
    let dir = TempDir::new("pdm-engine-equiv");
    let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
    let mut file_sys: DiskSystem<TaggedRecord> =
        DiskSystem::new_file(g, 2, dir.path()).expect("file-backed system");
    file_sys.set_service_mode(mode);
    file_sys.load_records(0, &input);
    let mut mem_sys: DiskSystem<TaggedRecord> = DiskSystem::new_mem(g, 2);
    mem_sys.load_records(0, &input);
    let mut src = 0usize;
    for (i, pass) in passes.iter().enumerate() {
        let dst = 1 - src;
        let file_stats = execute_pass(&mut file_sys, src, dst, pass).expect("file pass");
        let mem_stats = execute_pass(&mut mem_sys, src, dst, pass).expect("mem pass");
        prop_assert_eq!(
            file_stats.ios,
            mem_stats.ios,
            "I/O accounting diverged on pass {} ({:?})",
            i,
            pass.kind
        );
        src = dst;
    }
    let file_out = file_sys.dump_records(src);
    prop_assert_eq!(
        file_out.clone(),
        mem_sys.dump_records(src),
        "file-backed placement diverged after {} passes",
        passes.len()
    );
    prop_assert!(
        file_out.iter().all(TaggedRecord::intact),
        "payload corrupted crossing the byte-serialization boundary"
    );
    prop_assert_eq!(file_sys.buffer_pool_stats().outstanding, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary BMMC permutations: whatever plan the planner picks
    /// (one-pass fast paths or the Section 5 factoring), the engine
    /// and the old loops agree, serial and threaded.
    #[test]
    fn engine_matches_old_loops_for_random_bmmc(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        assert_equivalent(g, &passes, mode_of(threaded))?;
    }

    /// The three one-pass disciplines, forced explicitly (random BMMC
    /// matrices rarely land in MLD⁻¹, so cover each executor head-on).
    #[test]
    fn engine_matches_old_loops_for_one_pass_classes(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let cases: Vec<(Bmmc, PassKind)> = vec![
            (catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
            (catalog::random_mld(&mut rng, g.n(), g.b(), g.m()), PassKind::Mld),
            (
                catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse(),
                PassKind::MldInverse,
            ),
        ];
        for (perm, kind) in cases {
            let pass = Pass {
                matrix: perm.matrix().clone(),
                complement: perm.complement().clone(),
                kind,
            };
            assert_equivalent(g, std::slice::from_ref(&pass), mode_of(threaded))?;
        }
    }

    /// Block-run evaluation is observationally identical to
    /// per-address evaluation: for arbitrary planned BMMC permutations
    /// the placement is byte-identical and the per-pass `IoStats` and
    /// message counts are exactly equal, serial and threaded.
    #[test]
    fn block_run_matches_per_address_for_random_bmmc(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        assert_strategies_equivalent(g, &passes, mode_of(threaded))?;
    }

    /// The same strategy equivalence with each one-pass discipline
    /// forced explicitly, plus the Section 7 `Y∘Z⁻¹` step (gathered
    /// reads, scattered writes), covering all four step shapes
    /// head-on.
    #[test]
    fn block_run_matches_per_address_for_one_pass_classes(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let cases: Vec<(Bmmc, PassKind)> = vec![
            (catalog::random_mrc(&mut rng, g.n(), g.m()), PassKind::Mrc),
            (catalog::random_mld(&mut rng, g.n(), g.b(), g.m()), PassKind::Mld),
            (
                catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse(),
                PassKind::MldInverse,
            ),
        ];
        for (perm, kind) in cases {
            let pass = Pass {
                matrix: perm.matrix().clone(),
                complement: perm.complement().clone(),
                kind,
            };
            assert_strategies_equivalent(g, std::slice::from_ref(&pass), mode_of(threaded))?;
        }
        let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        let z = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
        assert_step_strategies_equivalent(g, &FusedPass::mld_pair(&y, &z), mode_of(threaded))?;
    }

    /// The file backend is observationally identical to MemDisk:
    /// random BMMC plans on `FileDisk` produce byte-identical
    /// placement (16-byte `TaggedRecord` serialization round-trips
    /// through the staging buffers) and the same parallel-I/O counts,
    /// serial and threaded, across the geometry zoo.
    #[test]
    fn file_backend_matches_mem_for_random_bmmc(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        assert_file_matches_mem(g, &passes, mode_of(threaded))?;
    }

    /// Multi-pass plans keep agreeing when the engine (and its buffers)
    /// are reused across the whole plan via the algorithm layer. Uses
    /// the *unfused* route on purpose: this property pins the engine
    /// against the reference loops round-trip for round-trip
    /// (`tests/fusion_equivalence.rs` owns the fused≡unfused property).
    #[test]
    fn full_algorithm_matches_pass_by_pass_reference(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mut rng = StdRng::seed_from_u64(s);
        let perm = catalog::random_bmmc(&mut rng, g.n());
        let input: Vec<u64> = (0..g.records() as u64).collect();

        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        sys.set_service_mode(mode_of(threaded));
        sys.load_records(0, &input);
        let planned = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        let report = bmmc::execute_passes_unfused(&mut sys, &planned)
            .expect("execute_passes_unfused");

        let passes = plan_passes(&perm, g.b(), g.m()).expect("planning failed");
        let mut ref_sys: DiskSystem<u64> = DiskSystem::new_mem(g, 2);
        ref_sys.load_records(0, &input);
        let mut src = 0usize;
        let mut ref_total = pdm::IoStats::default();
        for pass in &passes {
            let dst = 1 - src;
            let st = reference::execute_pass(&mut ref_sys, src, dst, pass).expect("ref pass");
            ref_total = pdm::IoStats {
                parallel_reads: ref_total.parallel_reads + st.ios.parallel_reads,
                parallel_writes: ref_total.parallel_writes + st.ios.parallel_writes,
                striped_reads: ref_total.striped_reads + st.ios.striped_reads,
                striped_writes: ref_total.striped_writes + st.ios.striped_writes,
                blocks_read: ref_total.blocks_read + st.ios.blocks_read,
                blocks_written: ref_total.blocks_written + st.ios.blocks_written,
            };
            src = dst;
        }
        prop_assert_eq!(report.final_portion, src);
        prop_assert_eq!(report.total, ref_total, "total I/O diverged");
        prop_assert_eq!(
            sys.dump_records(report.final_portion),
            ref_sys.dump_records(src)
        );
    }
}
