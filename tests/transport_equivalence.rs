//! Transport equivalence: a [`pdm::DiskSystem`] served in-process,
//! over per-disk `pdm-diskd` worker processes (Unix-domain sockets),
//! or over the deterministic simulated network must be observationally
//! identical — byte-identical final placement, intact payloads across
//! the wire serialization boundary, and the same `IoStats` (in
//! particular `parallel_ios()`) — for full BMMC plans and external
//! merge sorts, serial and threaded, across the geometry zoo
//! (including the degenerate D=1, B=1, and M=BD cases).
//!
//! The message counters are pinned alongside: the in-process runs move
//! zero transport messages, while the sim and UDS runs — both speaking
//! the `pdm::proto` wire protocol over the same command sequence —
//! move **exactly** the same message and wire-byte counts, which makes
//! the simulated network an exact cost model of the real sockets.
//!
//! The UDS runs spawn one real worker process per disk (the binary is
//! built into `target/` beside this test's executable), so the case
//! counts here are deliberately low; the cheap in-process/sim pair is
//! additionally swept by the deterministic all-geometries tests. The
//! two gathered-read step shapes, which a random plan rarely contains,
//! are forced.

use bmmc::algorithm::perform_bmmc;
use bmmc::{catalog, is_mld, is_mrc, perform_mld_pair, Bmmc};
use extsort::{sort_by_key_with, SortConfig};
use pdm::{
    Backend, DiskSystem, FaultPlan, Geometry, IoStats, MsgStats, PdmError, ServiceMode,
    TaggedRecord, TransportConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The geometry zoo of `tests/engine_equivalence.rs`: comfortable,
/// degenerate-D, and memory-boundary cases.
fn geometries() -> Vec<Geometry> {
    vec![
        // The test suite's staple: N=2^10, B=4, D=4, M=64.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        // Degenerate D=1: every "parallel" I/O moves one block.
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap(),
        // M = 2BD: two stripes per memoryload.
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 5).unwrap(),
        // M = BD: a memoryload is a single stripe.
        Geometry::new(1 << 10, 1 << 1, 1 << 3, 1 << 4).unwrap(),
        // B = 1 with deep striping.
        Geometry::new(1 << 11, 1, 1 << 3, 1 << 4).unwrap(),
    ]
}

/// All three transports, reference first.
fn transports() -> Vec<(&'static str, TransportConfig)> {
    vec![
        ("inproc", TransportConfig::InProc),
        ("sim", TransportConfig::SimNet(Default::default())),
        ("uds", TransportConfig::Uds(Default::default())),
    ]
}

/// True if `g` leaves the default merge strategy a usable fan-in
/// (`M/BD − 1 ≥ 2`); the zoo's memory-boundary cases do not, and the
/// sort workload skips them (BMMC still covers them).
fn sortable(g: Geometry) -> bool {
    g.memory() / (g.block() * g.disks()) >= 3
}

fn mode_of(threaded: bool) -> ServiceMode {
    if threaded {
        ServiceMode::Threaded
    } else {
        ServiceMode::Serial
    }
}

/// One run's observable outcome.
struct Outcome {
    records: Vec<TaggedRecord>,
    ios: IoStats,
    msgs: MsgStats,
}

fn build(g: Geometry, cfg: &TransportConfig, mode: ServiceMode) -> DiskSystem<TaggedRecord> {
    let mut sys = DiskSystem::new_with_transport(g, 2, &Backend::Mem, cfg)
        .expect("transport system construction");
    sys.set_service_mode(mode);
    sys
}

/// Performs the BMMC permutation `seeded` by `s` on transport `cfg`.
fn run_bmmc(g: Geometry, s: u64, cfg: &TransportConfig, mode: ServiceMode) -> Outcome {
    let mut rng = StdRng::seed_from_u64(s);
    run_perm(g, &catalog::random_bmmc(&mut rng, g.n()), cfg, mode)
}

/// A seeded MLD⁻¹ permutation that is neither MRC nor MLD, so that its
/// plan is one step with gathered reads.
fn forced_mld_inverse(g: Geometry, s: u64) -> Bmmc {
    let mut rng = StdRng::seed_from_u64(s);
    (0..64)
        .map(|_| catalog::random_mld(&mut rng, g.n(), g.b(), g.m()).inverse())
        .find(|p| !is_mrc(p.matrix(), g.m()) && !is_mld(p.matrix(), g.b(), g.m()))
        .expect("a random MLD inverse that only gathered reads can perform")
}

/// The Section 7 step `Y∘Z⁻¹` of two seeded MLD permutations, one
/// gathered-read, scattered-write pass, on transport `cfg`.
fn run_mld_pair(g: Geometry, s: u64, cfg: &TransportConfig, mode: ServiceMode) -> Outcome {
    let mut rng = StdRng::seed_from_u64(s);
    let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
    let z = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
    let mut sys = build(g, cfg, mode);
    let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
    sys.load_records(0, &input);
    let before = sys.message_stats();
    let pass = perform_mld_pair(&mut sys, &y, &z, 0, 1).expect("MLD pair run");
    let msgs = sys.message_stats().since(&before);
    let records = sys.dump_records(1);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
    Outcome {
        records,
        ios: pass.ios,
        msgs,
    }
}

/// Performs `perm` on transport `cfg`.
fn run_perm(g: Geometry, perm: &Bmmc, cfg: &TransportConfig, mode: ServiceMode) -> Outcome {
    let mut sys = build(g, cfg, mode);
    let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
    sys.load_records(0, &input);
    let report = perform_bmmc(&mut sys, perm).expect("bmmc run");
    let records = sys.dump_records(report.final_portion);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
    Outcome {
        records,
        ios: report.total,
        msgs: report.msgs,
    }
}

/// External merge sort of a seeded shuffle on transport `cfg`.
fn run_sort(g: Geometry, s: u64, cfg: &TransportConfig, mode: ServiceMode) -> Outcome {
    let mut keys: Vec<u64> = (0..g.records() as u64).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(s));
    let input: Vec<TaggedRecord> = keys.into_iter().map(TaggedRecord::new).collect();
    let mut sys = build(g, cfg, mode);
    sys.load_records(0, &input);
    let report = sort_by_key_with(&mut sys, |r| r.key, SortConfig::default()).expect("sort run");
    let records = sys.dump_records(report.final_portion);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
    Outcome {
        records,
        ios: report.total,
        msgs: report.msgs,
    }
}

/// Runs `workload` on every transport and checks the equivalence and
/// message-count contracts against the in-process reference.
fn assert_transports_agree(
    label: &str,
    workload: impl Fn(&TransportConfig) -> Outcome,
) -> Result<(), TestCaseError> {
    let mut reference: Option<Outcome> = None;
    let mut wire: Option<(&str, MsgStats)> = None;
    for (name, cfg) in transports() {
        let out = workload(&cfg);
        prop_assert!(
            out.records.iter().all(TaggedRecord::intact),
            "{label}/{name}: payload corrupted"
        );
        match &reference {
            None => {
                // The in-process run is the reference and must move no
                // transport messages at all.
                prop_assert!(
                    out.msgs.is_zero(),
                    "{label}/{name}: in-process run moved {}",
                    out.msgs
                );
                reference = Some(out);
            }
            Some(r) => {
                prop_assert_eq!(
                    &out.records,
                    &r.records,
                    "{}/{}: placement diverged from in-process",
                    label,
                    name
                );
                prop_assert_eq!(
                    out.ios,
                    r.ios,
                    "{label}/{name}: I/O accounting diverged from in-process"
                );
                prop_assert!(!out.msgs.is_zero(), "{label}/{name}: no messages counted");
                // sim and uds speak the identical protocol over the
                // identical command sequence: exactly equal counts.
                match &wire {
                    None => wire = Some((name, out.msgs)),
                    Some((first, m)) => prop_assert_eq!(
                        *m,
                        out.msgs,
                        "{}/{}: message counts diverge from {}",
                        label,
                        name,
                        first
                    ),
                }
            }
        }
    }
    Ok(())
}

/// Deterministic full coverage: every geometry in the zoo, serial and
/// threaded, both workloads, across all three transports. (The
/// proptests below add randomized permutations and shuffles on top.)
#[test]
fn all_geometries_agree_across_transports() {
    for (gi, g) in geometries().into_iter().enumerate() {
        for threaded in [false, true] {
            let mode = mode_of(threaded);
            let label = format!("g{gi}/bmmc/threaded={threaded}");
            assert_transports_agree(&label, |cfg| run_bmmc(g, 0xEC0 + gi as u64, cfg, mode))
                .unwrap();
            if sortable(g) {
                let label = format!("g{gi}/sort/threaded={threaded}");
                assert_transports_agree(&label, |cfg| run_sort(g, 0x50F + gi as u64, cfg, mode))
                    .unwrap();
            }
        }
    }
}

/// The gathered-read step shapes, forced, agree across every
/// transport, serial and threaded: gathered blocks land at the same
/// positions wherever the disks live.
#[test]
fn gathered_read_steps_agree_across_transports() {
    let g = geometries()[0];
    for threaded in [false, true] {
        let mode = mode_of(threaded);
        let perm = forced_mld_inverse(g, 0x61);
        assert_transports_agree(&format!("mld-inverse/threaded={threaded}"), |cfg| {
            run_perm(g, &perm, cfg, mode)
        })
        .unwrap();
        assert_transports_agree(&format!("mld-pair/threaded={threaded}"), |cfg| {
            run_mld_pair(g, 0x62, cfg, mode)
        })
        .unwrap();
    }
}

/// A disconnect injected mid-permutation over real sockets (the worker
/// process is killed) surfaces as `Disconnected` naming the disk,
/// leaves no stranded pooled buffers, keeps the surviving disks
/// serviceable, and stays dead for later operations.
#[test]
fn uds_disconnect_mid_bmmc_is_clean() {
    let g = geometries()[0];
    let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
    let perm = catalog::random_bmmc(&mut StdRng::seed_from_u64(7), g.n());
    let uds = TransportConfig::Uds(Default::default());
    for threaded in [false, true] {
        // A clean run of the same permutation establishes the pool's
        // steady-state allocation: the faulted run may not exceed it.
        let mut clean = build(g, &uds, mode_of(threaded));
        clean.load_records(0, &input);
        perform_bmmc(&mut clean, &perm).expect("clean bmmc run");
        let steady = clean.buffer_pool_stats().allocated;
        drop(clean);

        let mut sys = build(g, &uds, mode_of(threaded));
        sys.load_records(0, &input);
        sys.set_faults(FaultPlan::new().disconnect_at(2, 1));
        let err = perform_bmmc(&mut sys, &perm).expect_err("link was severed");
        let bmmc::BmmcError::Pdm(e) = err else {
            panic!("unexpected error {err}");
        };
        assert!(
            matches!(e, PdmError::Disconnected { disk: 1 }),
            "threaded={threaded}: {e}"
        );
        let after = sys.buffer_pool_stats();
        assert_eq!(after.outstanding, 0, "buffers stranded after disconnect");
        assert!(
            after.allocated <= steady,
            "disconnect grew the pool past a clean run's working set: {} > {steady}",
            after.allocated,
        );
        // The link stays dead; disks that survived keep answering.
        let mut buf = vec![TaggedRecord::new(0); g.block() * g.disks()];
        assert!(matches!(
            sys.read_stripe_into(0, &mut buf).unwrap_err(),
            PdmError::Disconnected { disk: 1 }
        ));
        let only_disk0 = [pdm::BlockRef { disk: 0, slot: 0 }];
        sys.read_blocks_into(&only_disk0, &mut buf[..g.block()])
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random BMMC permutations agree across every transport (each
    /// case spawns two sets of worker processes, so cases stay few —
    /// the deterministic test above already covers the full zoo).
    #[test]
    fn random_bmmc_agrees_across_transports(
        s in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mode = mode_of(threaded);
        assert_transports_agree(
            &format!("g{gi}/bmmc/threaded={threaded}"),
            |cfg| run_bmmc(g, s, cfg, mode),
        )?;
    }

    /// Random shuffles sorted by the external merge sort agree across
    /// every transport.
    #[test]
    fn random_sort_agrees_across_transports(
        s in any::<u64>(),
        gi in 0usize..2,
        threaded in any::<bool>(),
    ) {
        let g = geometries()[gi];
        prop_assume!(sortable(g));
        let mode = mode_of(threaded);
        assert_transports_agree(
            &format!("g{gi}/sort/threaded={threaded}"),
            |cfg| run_sort(g, s, cfg, mode),
        )?;
    }
}
