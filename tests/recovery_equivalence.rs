//! Recovery equivalence: a run that absorbs injected transient
//! faults through the retry layer must be observationally identical
//! to a clean run — byte-identical final placement, intact payloads,
//! and the **same charged `IoStats`** (retried operations are charged
//! once) — across the geometry zoo, serial and threaded service
//! modes, and both the in-process and real-worker-process (UDS)
//! transports.
//!
//! The recovery ledger is pinned exactly: every injected fault that
//! fires costs exactly one retry (`retries == transient_faults`), the
//! attempt count decomposes as `parallel_ios + retries`, and a clean
//! run's ledger is all-zero. Fault schedules mix point transients
//! ([`FaultPlan::fail_transient_at`]) with flaky windows
//! ([`FaultPlan::fail_between`]); a window spanning the whole run
//! guarantees the schedule actually fires, so the equivalence claims
//! are never vacuous.
//!
//! The UDS cases spawn one real `pdm-diskd` worker process per disk,
//! so proptest case counts stay low; the deterministic sweep covers
//! the full zoo. The two gathered-read step shapes, which a random
//! plan rarely contains, are forced and also recover from a disconnect
//! inside a gather read ticket.

use bmmc::algorithm::perform_bmmc;
use bmmc::{catalog, is_mld, is_mrc, perform_mld_pair, Bmmc};
use extsort::{sort_by_key_with, SortConfig};
use pdm::{
    Backend, DiskSystem, FaultPlan, Geometry, IoStats, RetryPolicy, RetryStats, ServiceMode,
    TaggedRecord, TransportConfig, UdsConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The geometry zoo of `tests/transport_equivalence.rs`.
fn geometries() -> Vec<Geometry> {
    vec![
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 6).unwrap(),
        Geometry::new(1 << 9, 1 << 2, 1, 1 << 5).unwrap(),
        Geometry::new(1 << 10, 1 << 2, 1 << 2, 1 << 5).unwrap(),
        Geometry::new(1 << 10, 1 << 1, 1 << 3, 1 << 4).unwrap(),
        Geometry::new(1 << 11, 1, 1 << 3, 1 << 4).unwrap(),
    ]
}

/// The transports under test: the in-process reference and the real
/// worker processes. (The simulated network shares the UDS command
/// sequence and is covered by the transport equivalence suite.)
fn transports() -> Vec<(&'static str, TransportConfig)> {
    vec![
        ("inproc", TransportConfig::InProc),
        ("uds", TransportConfig::Uds(Default::default())),
    ]
}

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

/// A random schedule of transient faults: point faults at distinct
/// operations plus an optional flaky window, all within `total` ops.
#[derive(Clone, Debug)]
struct Schedule {
    points: Vec<(u64, usize)>,
    window: Option<(u64, u64, usize)>,
}

impl Schedule {
    /// Builds the fault plan. A point fault fires iff its disk
    /// participates in that operation; at most one transient is
    /// consumed per operation (the retry is a second attempt and is
    /// never re-checked).
    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(op, disk) in &self.points {
            plan = plan.fail_transient_at(op, disk);
        }
        if let Some((start, end, disk)) = self.window {
            plan = plan.fail_between(start, end, disk);
        }
        plan
    }

    /// A schedule guaranteed to fire at least once on any run of
    /// `total` operations: a window over every operation on disk 0
    /// (which participates in every striped access) plus `k` point
    /// faults spread across ops and disks.
    fn covering(total: u64, disks: usize, k: u64) -> Self {
        let points = (0..k)
            .map(|i| ((i * total) / k.max(1), (i as usize + 1) % disks))
            .collect();
        Schedule {
            points,
            window: Some((0, total, 0)),
        }
    }
}

/// One run's observable outcome plus its recovery ledger.
struct Outcome {
    records: Vec<TaggedRecord>,
    ios: IoStats,
    retry: RetryStats,
}

enum Workload {
    Bmmc,
    Sort,
    /// A forced MLD⁻¹ permutation: one gathered-read, striped-write
    /// step.
    MldInverse,
    /// The Section 7 pair `Y∘Z⁻¹`: one gathered-read, scattered-write
    /// step.
    MldPair,
}

impl Workload {
    fn label(&self) -> &'static str {
        match self {
            Workload::Bmmc => "bmmc",
            Workload::Sort => "sort",
            Workload::MldInverse => "mld-inverse",
            Workload::MldPair => "mld-pair",
        }
    }
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

/// The seeded MLD permutations `(Y, Z)` of a [`Workload::MldPair`] run.
fn mld_pair(g: Geometry, s: u64) -> (Bmmc, Bmmc) {
    let mut rng = StdRng::seed_from_u64(s);
    let y = catalog::random_mld(&mut rng, g.n(), g.b(), g.m());
    (y, catalog::random_mld(&mut rng, g.n(), g.b(), g.m()))
}

/// Runs the workload with the given fault schedule (empty = clean) and
/// a fault-tolerant retry policy, returning placement, charged I/O,
/// and the ledger.
fn run(
    g: Geometry,
    s: u64,
    cfg: &TransportConfig,
    mode: ServiceMode,
    workload: &Workload,
    plan: FaultPlan,
) -> Outcome {
    let sys = DiskSystem::new_with_transport(g, 2, &Backend::Mem, cfg)
        .expect("transport system construction");
    run_on(sys, s, mode, workload, plan)
}

/// [`run`] on a system built by the caller.
fn run_on(
    mut sys: DiskSystem<TaggedRecord>,
    s: u64,
    mode: ServiceMode,
    workload: &Workload,
    plan: FaultPlan,
) -> Outcome {
    let g = sys.geometry();
    sys.set_service_mode(mode);
    sys.set_retry_policy(RetryPolicy::fault_tolerant());
    sys.set_faults(plan);
    let final_portion = match workload {
        Workload::Bmmc => {
            let mut rng = StdRng::seed_from_u64(s);
            let perm = catalog::random_bmmc(&mut rng, g.n());
            let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
            sys.load_records(0, &input);
            perform_bmmc(&mut sys, &perm)
                .expect("bmmc run")
                .final_portion
        }
        Workload::Sort => {
            let mut keys: Vec<u64> = (0..g.records() as u64).collect();
            keys.shuffle(&mut StdRng::seed_from_u64(s));
            let input: Vec<TaggedRecord> = keys.into_iter().map(TaggedRecord::new).collect();
            sys.load_records(0, &input);
            sort_by_key_with(&mut sys, |r| r.key, SortConfig::default())
                .expect("sort run")
                .final_portion
        }
        Workload::MldInverse => {
            let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
            sys.load_records(0, &input);
            perform_bmmc(&mut sys, &forced_mld_inverse(g, s))
                .expect("MLD⁻¹ run")
                .final_portion
        }
        Workload::MldPair => {
            let (y, z) = mld_pair(g, s);
            let input: Vec<TaggedRecord> = (0..g.records() as u64).map(TaggedRecord::new).collect();
            sys.load_records(0, &input);
            perform_mld_pair(&mut sys, &y, &z, 0, 1).expect("MLD pair run");
            1
        }
    };
    let records = sys.dump_records(final_portion);
    assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
    Outcome {
        records,
        ios: sys.stats(),
        retry: sys.retry_stats(),
    }
}

/// Checks one faulted run against its clean reference: identical
/// placement and charged I/O, intact payloads, and an exact ledger.
fn assert_recovered(label: &str, clean: &Outcome, faulted: &Outcome) -> Result<(), TestCaseError> {
    prop_assert!(
        clean.retry.is_clean(),
        "{label}: clean run has a dirty ledger: {}",
        clean.retry
    );
    prop_assert!(
        faulted.records.iter().all(TaggedRecord::intact),
        "{label}: payload corrupted during recovery"
    );
    prop_assert_eq!(
        &faulted.records,
        &clean.records,
        "{}: recovered placement diverged from clean",
        label
    );
    prop_assert_eq!(
        faulted.ios,
        clean.ios,
        "{label}: recovered run charged differently from clean"
    );
    let r = &faulted.retry;
    prop_assert!(
        r.transient_faults >= 1,
        "{label}: the schedule never fired — the equivalence is vacuous"
    );
    prop_assert_eq!(
        r.retries,
        r.transient_faults,
        "{}: each injected fault costs exactly one retry",
        label
    );
    prop_assert_eq!(r.timeouts, 0, "{label}: no timeouts were scheduled");
    prop_assert_eq!(r.respawns, 0, "{label}: no disconnects were scheduled");
    prop_assert_eq!(
        r.attempts,
        faulted.ios.parallel_ios() + r.retries,
        "{}: attempts decompose as admitted ops + retries",
        label
    );
    Ok(())
}

/// Deterministic sweep: every geometry, serial and threaded, both
/// transports, BMMC (everywhere) and sort (where the fan-in allows),
/// each against a covering schedule derived from the clean run's
/// operation count.
#[test]
fn recovered_runs_equal_clean_runs_across_the_zoo() {
    for (gi, g) in geometries().into_iter().enumerate() {
        let mut workloads = vec![Workload::Bmmc];
        if sortable(g) {
            workloads.push(Workload::Sort);
        }
        for workload in &workloads {
            for threaded in [false, true] {
                let mode = mode_of(threaded);
                let seed = 0x9EC0 + gi as u64;
                // The clean in-process run sizes the schedule; its op
                // count is transport- and mode-invariant.
                let reference = run(
                    g,
                    seed,
                    &TransportConfig::InProc,
                    mode,
                    workload,
                    FaultPlan::new(),
                );
                let schedule = Schedule::covering(reference.ios.parallel_ios(), g.disks(), 3);
                for (name, cfg) in transports() {
                    let label = format!("g{gi}/{}/threaded={threaded}/{name}", workload.label());
                    let faulted = run(g, seed, &cfg, mode, workload, schedule.plan());
                    assert_recovered(&label, &reference, &faulted).unwrap();
                }
            }
        }
    }
}

/// The gathered-read step shapes, forced, threaded, on both
/// transports: under a covering transient schedule, and with a
/// disconnect inside a gather read ticket. A resent run lands its
/// blocks at the same positions as the first send, so placement and
/// charged I/O equal the clean run's, and both transports keep the
/// same recovery ledger.
#[test]
fn gathered_read_steps_recover_exactly() {
    let g = geometries()[0];
    let mode = ServiceMode::Threaded;
    let seed = 0x6A7;
    let (y, z) = mld_pair(g, seed);
    for (workload, perm) in [
        (Workload::MldInverse, forced_mld_inverse(g, seed)),
        (Workload::MldPair, y.compose(&z.inverse())),
    ] {
        let label = workload.label();
        let clean = run(
            g,
            seed,
            &TransportConfig::InProc,
            mode,
            &workload,
            FaultPlan::new(),
        );
        for x in 0..g.records() as u64 {
            let y = perm.target(x) as usize;
            assert_eq!(clean.records[y].key, x, "{label}: clean run misplaced {x}");
        }
        let schedule = Schedule::covering(clean.ios.parallel_ios(), g.disks(), 3);
        let mut ledgers = Vec::new();
        for (name, cfg) in transports() {
            let faulted = run(g, seed, &cfg, mode, &workload, schedule.plan());
            assert_recovered(&format!("{label}/{name}"), &clean, &faulted).unwrap();
            // A worker process is relaunched over its files, so the
            // UDS system is file-backed and may respawn.
            let dir = pdm::TempDir::new("pdm-recovery-gather");
            let (backend, cfg) = match cfg {
                TransportConfig::Uds(_) => (
                    Backend::File {
                        dir: dir.path().to_path_buf(),
                    },
                    TransportConfig::Uds(UdsConfig {
                        retry: RetryPolicy::fault_tolerant(),
                        ..UdsConfig::default()
                    }),
                ),
                cfg => (Backend::Mem, cfg),
            };
            let sys = DiskSystem::new_with_transport(g, 2, &backend, &cfg)
                .expect("transport system construction");
            // M/BD = 4: threaded, ops 0–3 gather unit 0 and ops 4–7
            // gather unit 1, so disk 2's link drops inside unit 1's
            // gather ticket, and its run there is resent.
            let cut = run_on(
                sys,
                seed,
                mode,
                &workload,
                FaultPlan::new().disconnect_at(5, 2),
            );
            assert!(
                cut.records.iter().all(TaggedRecord::intact),
                "{label}/{name}: payload corrupted"
            );
            assert_eq!(
                cut.records, clean.records,
                "{label}/{name}: a resent gather run landed elsewhere"
            );
            assert_eq!(cut.ios, clean.ios, "{label}/{name}: charged differently");
            let r = cut.retry;
            assert_eq!(r.respawns, 1, "{label}/{name}: {r}");
            assert_eq!(
                r.attempts,
                cut.ios.parallel_ios() + r.retries,
                "{label}/{name}"
            );
            ledgers.push(r);
        }
        assert_eq!(
            ledgers[0], ledgers[1],
            "{label}: inproc and uds recover differently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random transient-fault schedules over random BMMC permutations:
    /// point faults at random (op, disk) pairs plus a random flaky
    /// window, on both transports. (Each UDS case spawns a set of real
    /// worker processes, so cases stay few — the deterministic sweep
    /// above covers the full zoo.)
    #[test]
    fn random_fault_schedules_recover_exactly(
        s in any::<u64>(),
        fault_seed in any::<u64>(),
        gi in 0usize..5,
        threaded in any::<bool>(),
        uds in any::<bool>(),
    ) {
        let g = geometries()[gi];
        let mode = mode_of(threaded);
        let workload = Workload::Bmmc;
        let reference = run(g, s, &TransportConfig::InProc, mode, &workload, FaultPlan::new());
        let total = reference.ios.parallel_ios();
        // Derive a random schedule inside the run: distinct ops (the
        // plan is a set; duplicate ops would consume only one retry),
        // disks in range, and a window guaranteeing >= 1 firing.
        let mut rng = StdRng::seed_from_u64(fault_seed);
        let mut points: Vec<(u64, usize)> = (0..5)
            .map(|_| (rng.gen_range(0..total), rng.gen_range(0..g.disks())))
            .collect();
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        let schedule = Schedule {
            points,
            window: Some((0, total, rng.gen_range(0..g.disks()))),
        };
        let cfg = if uds {
            TransportConfig::Uds(Default::default())
        } else {
            TransportConfig::InProc
        };
        let label = format!("g{gi}/threaded={threaded}/uds={uds}");
        let faulted = run(g, s, &cfg, mode, &workload, schedule.plan());
        assert_recovered(&label, &reference, &faulted)?;
    }
}
