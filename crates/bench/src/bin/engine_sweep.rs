//! The streaming engine across disk counts and service modes — the
//! bench behind the committed `BENCH_PR*.json` files and the CI
//! `bench-smoke` gate.
//!
//! For each `D` the sweep performs the same seeded one-pass MLD
//! permutation (striped reads + independent writes, the paper's
//! Theorem 15 discipline) through the [`pdm::PassEngine`] two ways:
//!
//! * `serial`   — serial servicing in the caller's thread;
//! * `threaded` — the persistent per-disk service threads
//!   ([`ServiceMode::Threaded`]), overlapping the reads of memoryload
//!   *k+1* with the permute of memoryload *k*.
//!
//! Both are verified against the reference permutation and must charge
//! the *identical* number of parallel I/Os — the service mode may only
//! move the wall clock. The sweep records `threaded_over_serial` per
//! `D`; it is reported, not gated.
//!
//! Since PR 3 the document also carries a **fusion** section (multi-
//! pass plans executed fused vs. unfused — the fused runs must charge
//! strictly fewer parallel I/Os, exactly 2× fewer on fully-fusable
//! chains, with identical final placement) and an **extsort** section.
//! Since PR 8 a **recovery** section runs the same seeded BMMC
//! permutation clean and under a ~1%-transient-fault plan with the
//! retry layer engaged: placement, charged parallel I/Os, and the
//! retry ledger are exact-gated, and `--baseline` requires recovered
//! throughput ≥ 0.8× clean.
//! The extsort section sweeps every merge strategy in
//! `extsort::MergeStrategy::ALL` (single-buffered, and the forecasting
//! block-granular merge whose fan-in `M/B − D − 1` closes the D× gap
//! to Vitter–Shriver) across serial/threaded service and mem/file
//! backends, asserting every row's pass count and parallel-I/O count
//! equals the `extsort::merge_sort_*` replay and that the forecast rows
//! reach ≥8× the single-buffered fan-in in strictly fewer passes.
//! Since PR 4 a **file** section runs the same engine pass on MemDisk
//! vs. `FileDisk` (real positional file I/O) in both service modes:
//! placement must be byte-identical and the charged parallel-I/O
//! counts identical — only the wall clock may move. Since PR 6 a
//! **transport** section serves the same engine pass in-process, over per-disk
//! `pdm-diskd` worker processes (Unix-domain sockets), and over the
//! deterministic simulated network: placement and parallel-I/O counts
//! identical, in-process rows move zero messages, and the sim rows'
//! message/byte counts equal the real socket rows' exactly.
//! Since PR 9 an **addr_eval** section measures the block-run address
//! evaluator against the per-address one, both as an isolated kernel
//! (addresses/s over ~2^22 sequential addresses, no I/O) and end to
//! end on the bpc-baseline bit-reversal workload run per strategy:
//! placement and parallel-I/O counts are exact-gated, and `--baseline`
//! requires the block-run kernel ≥ 4× and the block-run end-to-end
//! ≥ 1.2× their per-address counterparts.
//! Since PR 10 a **planner** section emits the `--algorithm auto`
//! crossover table: for each named workload × geometry × timing model,
//! `bmmc::plan::candidates` + `choose` pick among the DP-fused BMMC
//! route and the external-sort route per merge strategy, and the pick itself is
//! part of the row *key* — a code change that flips any crossover
//! decision fails the `--check` gate as a missing row rather than
//! silently re-baselining. The section also carries the committed
//! `MLD;MRC;MLD` re-association chain (greedy pair fusion stuck at two
//! steps, the DP whole-plan fuser at one); the addr_eval section gains
//! a residual-table **cap sweep** (flat table vs byte-sliced fallback
//! per width — the tuning evidence behind `RESIDUAL_TABLE_MAX_BITS`);
//! and the extsort section gains adversarial-input rows
//! (duplicate-heavy and skewed key catalogs from `extsort::keys`),
//! whose schedules must stay input-independent.
//!
//! ```text
//! cargo run --release -p bmmc-bench --bin engine_sweep -- [FLAGS]
//!   --quick          small sizes (CI smoke); emits the "quick",
//!                    "fusion", "extsort", "service", "recovery",
//!                    "addr_eval", "planner", "transport", and "file"
//!                    sections
//!   --baseline       run full + quick and insist on the acceptance ratios
//!                    of the service, recovery, addr_eval and transport
//!                    sections
//!   --file-dir DIR   parent directory for the file section's per-disk
//!                    files (e.g. a tmpfs mount); default: a
//!                    self-cleaning temp dir
//!   --file-only      run (and with --check, gate) only the file section
//!   --transport X    run (and with --check, gate) only the transport
//!                    section, restricted to {inproc, X} — the CI UDS
//!                    smoke step (needs the pdm-diskd binary for X=uds)
//!   --out FILE       write the JSON document to FILE
//!   --check FILE     compare this run's sections against FILE's; exit 1
//!                    if any gated exact counter (parallel I/Os,
//!                    transport messages, retries, planner steps) moved
//!                    at all or a recorded row is missing. Timings are
//!                    recorded, never gated.
//!   --check-latest   like --check, against the newest BENCH_PR*.json in
//!                    the working directory (per-PR bench trajectory)
//! ```

use bmmc::algorithm::execute_passes_unfused;
use bmmc::bpc_baseline::bpc_baseline_plan;
use bmmc::catalog;
use bmmc::factoring::{Pass, PassKind};
use bmmc::fusion::{execute_fused_with_strategy, fuse_passes};
use bmmc::passes::{execute_pass, reference_permute, EvalStrategy};
use bmmc::plan::reassociation_case;
use bmmc::{candidates, choose, fuse_passes_greedy, AffineEvaluator, BlockEvaluator, Bmmc, Plan};
use bmmc_bench::json::Json;
use extsort::{
    keys, merge_sort_ios, merge_sort_passes, sort_by_key_with, MergeStrategy, SortConfig,
};
use pdm::{
    Backend, DiskSystem, FaultPlan, Geometry, MsgStats, PassEngine, RetryPolicy, ServiceMode,
    TimingModel, TransportConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Row {
    disks: usize,
    mode: &'static str, // "serial" | "threaded"
    records_per_sec: f64,
    elapsed_ms: f64,
    parallel_ios: u64,
    passes: usize,
}

impl Row {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("disks", Json::Num(self.disks as f64)),
            ("mode", Json::Str(self.mode.into())),
            // Part of the row key, so baselines that also carried
            // other implementations' rows still match these.
            ("impl", Json::Str("engine".into())),
            (
                "records_per_sec",
                Json::Num((self.records_per_sec * 10.0).round() / 10.0),
            ),
            (
                "elapsed_ms",
                Json::Num((self.elapsed_ms * 1000.0).round() / 1000.0),
            ),
            ("parallel_ios", Json::Num(self.parallel_ios as f64)),
            ("passes", Json::Num(self.passes as f64)),
        ])
    }
}

/// One sweep (a set of sizes): the geometry template and disk counts.
struct SweepSpec {
    name: &'static str,
    lg_records: usize,
    lg_block: usize,
    lg_memory: usize,
    disk_counts: &'static [usize],
    reps: usize,
}

const FULL: SweepSpec = SweepSpec {
    name: "full",
    lg_records: 20,
    lg_block: 3,
    lg_memory: 13,
    disk_counts: &[1, 4, 16, 64],
    reps: 5,
};

const QUICK: SweepSpec = SweepSpec {
    name: "quick",
    lg_records: 18,
    lg_block: 3,
    lg_memory: 12,
    disk_counts: &[1, 4, 16],
    reps: 5,
};

/// The sweeps' two service modes, by row name.
const MODES: [(&str, ServiceMode); 2] = [
    ("serial", ServiceMode::Serial),
    ("threaded", ServiceMode::Threaded),
];

fn run_config(
    geom: Geometry,
    pass: &Pass,
    expect: &[u64],
    (mode, service): (&'static str, ServiceMode),
    reps: usize,
) -> Row {
    let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
    sys.set_service_mode(service);
    let input: Vec<u64> = (0..geom.records() as u64).collect();
    sys.load_records(0, &input);
    let execute = |sys: &mut DiskSystem<u64>| execute_pass(sys, 0, 1, pass).expect("engine pass");
    // Warm-up rep doubles as the correctness check.
    let stats = execute(&mut sys);
    assert_eq!(
        sys.dump_records(1),
        expect,
        "{mode} D={} produced a wrong permutation",
        geom.disks()
    );
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let s = execute(&mut sys);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(
            s.ios.parallel_ios(),
            stats.ios.parallel_ios(),
            "parallel I/O count changed between reps"
        );
        best = best.min(dt);
    }
    Row {
        disks: geom.disks(),
        mode,
        records_per_sec: geom.records() as f64 / best,
        elapsed_ms: best * 1e3,
        parallel_ios: stats.ios.parallel_ios(),
        passes: 1,
    }
}

fn run_sweep(spec: &SweepSpec) -> Json {
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    eprintln!(
        "== {} sweep: N=2^{}, B=2^{}, M=2^{}, best of {} reps",
        spec.name, spec.lg_records, spec.lg_block, spec.lg_memory, spec.reps
    );
    for &d in spec.disk_counts {
        let geom = Geometry::new(
            1 << spec.lg_records,
            1 << spec.lg_block,
            d,
            1 << spec.lg_memory,
        )
        .expect("sweep geometry is valid");
        // One seeded MLD permutation per geometry so both service
        // modes perform the identical data movement.
        let mut rng = StdRng::seed_from_u64(0xB44C + d as u64);
        let perm = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
        let pass = Pass {
            matrix: perm.matrix().clone(),
            complement: perm.complement().clone(),
            kind: PassKind::Mld,
        };
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expect = reference_permute(&input, |x| perm.target(x));
        let [serial, threaded] = MODES.map(|mode| {
            let row = run_config(geom, &pass, &expect, mode, spec.reps);
            eprintln!(
                "   D={:<3} {:<8} {:>12.0} rec/s  {:>8.2} ms  {} parallel I/Os",
                row.disks, row.mode, row.records_per_sec, row.elapsed_ms, row.parallel_ios
            );
            row
        });
        assert_eq!(
            serial.parallel_ios, threaded.parallel_ios,
            "the service mode changed the charged I/O count at D={d}"
        );
        let ratio = threaded.records_per_sec / serial.records_per_sec;
        speedups.push(Json::obj(vec![
            ("disks", Json::Num(d as f64)),
            (
                "threaded_over_serial",
                Json::Num((ratio * 1000.0).round() / 1000.0),
            ),
        ]));
        rows.extend([serial, threaded]);
    }
    Json::obj(vec![
        (
            "geometry",
            Json::obj(vec![
                ("lg_records", Json::Num(spec.lg_records as f64)),
                ("lg_block", Json::Num(spec.lg_block as f64)),
                ("lg_memory", Json::Num(spec.lg_memory as f64)),
            ]),
        ),
        ("reps", Json::Num(spec.reps as f64)),
        (
            "rows",
            Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
        ),
        ("speedups", Json::Arr(speedups)),
    ])
}

/// One fusion workload: a named multi-pass plan on a geometry.
struct FusionCase {
    workload: &'static str,
    geom: Geometry,
    passes: Vec<Pass>,
    /// The permutation the passes compose to.
    perm: Bmmc,
    expect: Vec<u64>,
    /// True when the whole chain must fuse pairwise (exactly 2× fewer
    /// I/Os).
    fully_fusable: bool,
}

fn fusion_cases(lg_records: usize) -> Vec<FusionCase> {
    let mut cases = Vec::new();
    let pass_of = |perm: &Bmmc, kind: PassKind| Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind,
    };

    // Workload 1: the BPC baseline plan for bit reversal at a geometry
    // with a narrow middle section (m − b = 3), so the exchange needs
    // several chunks: 2k+1 planned passes fuse to k+1 steps.
    {
        let geom = Geometry::new(1 << lg_records, 1 << 6, 1 << 2, 1 << 9).expect("bpc geometry");
        let perm = catalog::bit_reversal(geom.n());
        let passes = bpc_baseline_plan(&perm, geom.b(), geom.m())
            .expect("bit reversal is BPC")
            .passes;
        assert!(passes.len() >= 5, "want a multi-chunk baseline plan");
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expect = reference_permute(&input, |x| perm.target(x));
        cases.push(FusionCase {
            workload: "bpc-baseline",
            geom,
            passes,
            perm,
            expect,
            fully_fusable: false,
        });
    }

    // Workload 2: an alternating MRC/MLD chain — every pair fuses by
    // the discipline rule, so the fused run must charge exactly half.
    {
        let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 2, 1 << 12).expect("alt geometry");
        let mut rng = StdRng::seed_from_u64(0xF05E);
        let mut passes = Vec::new();
        let mut composed = Bmmc::identity(geom.n());
        for _ in 0..3 {
            let mrc = catalog::random_mrc(&mut rng, geom.n(), geom.m());
            let mld = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
            passes.push(pass_of(&mrc, PassKind::Mrc));
            passes.push(pass_of(&mld, PassKind::Mld));
            composed = mld.compose(&mrc.compose(&composed));
        }
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expect = reference_permute(&input, |x| composed.target(x));
        cases.push(FusionCase {
            workload: "alternating-chain",
            geom,
            passes,
            perm: composed,
            expect,
            fully_fusable: true,
        });
    }

    // Workload 3: the Section 7 MLD⁻¹;MLD pair — gathered reads,
    // scattered writes, one round-trip instead of two.
    {
        let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 2, 1 << 12).expect("pair geometry");
        let mut rng = StdRng::seed_from_u64(0xF19A);
        let z = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
        let y = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
        let passes = vec![
            pass_of(&z.inverse(), PassKind::MldInverse),
            pass_of(&y, PassKind::Mld),
        ];
        let composed = y.compose(&z.inverse());
        let input: Vec<u64> = (0..geom.records() as u64).collect();
        let expect = reference_permute(&input, |x| composed.target(x));
        cases.push(FusionCase {
            workload: "mld-pair",
            geom,
            passes,
            perm: composed,
            expect,
            fully_fusable: true,
        });
    }
    cases
}

/// Fused vs. unfused execution of multi-pass plans. Verifies identical
/// placement and strictly fewer parallel I/Os fused (exactly 2× on the
/// fully-fusable chains) — the PR 3 acceptance criterion — and reports
/// the timings.
fn run_fusion_sweep(lg_records: usize, reps: usize) -> Json {
    eprintln!("== fusion sweep: N=2^{lg_records}, threaded, best of {reps} reps");
    let mut rows: Vec<Json> = Vec::new();
    for case in fusion_cases(lg_records) {
        let geom = case.geom;
        let plan = Plan::from_passes(&case.passes, geom.b(), geom.m());
        let mut ios = [0u64; 2]; // [unfused, fused]
        for (fi, fused) in [false, true].into_iter().enumerate() {
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
            sys.set_service_mode(ServiceMode::Threaded);
            let input: Vec<u64> = (0..geom.records() as u64).collect();
            sys.load_records(0, &input);
            let execute = |sys: &mut DiskSystem<u64>| {
                if fused {
                    plan.execute(sys, &case.perm, |&r| r).expect("fused run")
                } else {
                    execute_passes_unfused(sys, &case.passes).expect("unfused run")
                }
            };
            let report = execute(&mut sys);
            assert_eq!(
                sys.dump_records(report.final_portion),
                case.expect,
                "{} ({}) produced a wrong permutation",
                case.workload,
                if fused { "fused" } else { "unfused" }
            );
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = execute(&mut sys);
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(r.total.parallel_ios(), report.total.parallel_ios());
            }
            ios[fi] = report.total.parallel_ios();
            eprintln!(
                "   {:<18} {:<8} {:>2} pass(es) for {:>2} planned  {:>7} parallel I/Os  {:>8.2} ms",
                case.workload,
                if fused { "fused" } else { "unfused" },
                report.num_passes(),
                case.passes.len(),
                report.total.parallel_ios(),
                best * 1e3,
            );
            rows.push(Json::obj(vec![
                ("workload", Json::Str(case.workload.into())),
                (
                    "impl",
                    Json::Str(if fused { "fused" } else { "unfused" }.into()),
                ),
                ("planned_passes", Json::Num(case.passes.len() as f64)),
                ("executed_passes", Json::Num(report.num_passes() as f64)),
                (
                    "parallel_ios",
                    Json::Num(report.total.parallel_ios() as f64),
                ),
                (
                    "records_per_sec",
                    Json::Num(((geom.records() as f64 / best) * 10.0).round() / 10.0),
                ),
                (
                    "elapsed_ms",
                    Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
                ),
            ]));
        }
        // The acceptance criterion: strictly fewer parallel I/Os with
        // identical placement; exactly 2× on fully-fusable chains.
        assert!(
            ios[1] < ios[0],
            "{}: fused {} parallel I/Os not strictly below unfused {}",
            case.workload,
            ios[1],
            ios[0]
        );
        assert_eq!(
            ios[1] as usize,
            plan.num_steps() * geom.ios_per_pass(),
            "{}: fused cost must be one pass per step",
            case.workload
        );
        if case.fully_fusable {
            assert_eq!(
                2 * ios[1],
                ios[0],
                "{}: fully-fusable chain must halve the I/O count",
                case.workload
            );
        }
    }
    Json::obj(vec![
        ("mode", Json::Str("threaded".into())),
        ("lg_records", Json::Num(lg_records as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The PR 9 address-evaluation sweep: per-address vs. block-hoisted
/// target computation, measured twice.
///
/// * **kernel** rows isolate the address math from all I/O: for the
///   bit-reversal matrix at the bpc-baseline geometry, evaluate ~2^22
///   consecutive addresses with a full [`AffineEvaluator::eval`] walk
///   per address, then block-hoisted (one
///   [`BlockEvaluator::block_base`] per `B`-record block plus a
///   residual-table lookup per record). Both kernels fold their
///   targets into a wrapping sum — compared for equality, and fed to
///   [`std::hint::black_box`] so neither loop can be dead-code
///   eliminated. Under `--baseline` the block-run kernel must clear
///   ≥ 4× the per-address addresses/s.
/// * **end_to_end** rows run the fusion sweep's bpc-baseline workload
///   (BPC bit reversal, `B = 2^6`, `D = 2^2`, `M = 2^9`, threaded
///   MemDisk), its fused steps run by [`execute_fused_with_strategy`]
///   with [`EvalStrategy::PerAddress`] vs. [`EvalStrategy::BlockRun`]:
///   placement must be byte-identical and the charged parallel-I/O
///   counts equal (exact-gated by `--check`); under `--baseline` the
///   block-run execution must clear ≥ 1.2× the per-address records/s.
fn run_addr_eval_sweep(lg_records: usize, reps: usize, baseline_mode: bool) -> Json {
    let geom = Geometry::new(1 << lg_records, 1 << 6, 1 << 2, 1 << 9).expect("addr_eval geometry");
    let (n, b) = (geom.n(), geom.b());
    let perm = catalog::bit_reversal(n);
    let records = geom.records() as u64;
    // ---- Kernel: raw addresses/s over ~2^22 sequential addresses.
    let rounds = ((1u64 << 22) / records).max(1);
    let total = rounds * records;
    eprintln!(
        "== addr_eval sweep: N=2^{lg_records}, B=2^{b}, bit reversal, \
         {total} kernel addresses, best of {reps} reps"
    );
    let aff = AffineEvaluator::new(&perm);
    let bev = BlockEvaluator::new(&perm, b as u32);
    let rtab = bev
        .residual_table()
        .expect("b = 6 is within the residual-table cap");
    let blocks = records >> b;
    let mut rows: Vec<Json> = Vec::new();
    let mut kernel_rates = [0.0f64; 2]; // [per_address, block_run]
    let mut sums = [0u64; 2];
    for (ki, kimpl) in ["per_address", "block_run"].into_iter().enumerate() {
        let mut best = f64::INFINITY;
        let mut sum = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..rounds {
                if ki == 0 {
                    for x in 0..records {
                        acc = acc.wrapping_add(aff.eval(x));
                    }
                } else {
                    for blk in 0..blocks {
                        let ybase = bev.block_base(blk);
                        for &r in rtab {
                            acc = acc.wrapping_add(ybase ^ r);
                        }
                    }
                }
            }
            best = best.min(t0.elapsed().as_secs_f64());
            sum = std::hint::black_box(acc);
        }
        sums[ki] = sum;
        kernel_rates[ki] = total as f64 / best;
        eprintln!(
            "   kernel     {:<11} {:>13.0} addresses/s  {:>8.3} ms",
            kimpl,
            kernel_rates[ki],
            best * 1e3
        );
        rows.push(Json::obj(vec![
            ("kind", Json::Str("kernel".into())),
            ("impl", Json::Str(kimpl.into())),
            (
                "addresses_per_sec",
                Json::Num((kernel_rates[ki] * 10.0).round() / 10.0),
            ),
            (
                "elapsed_ms",
                Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
            ),
            ("parallel_ios", Json::Num(0.0)),
        ]));
    }
    assert_eq!(
        sums[0], sums[1],
        "kernels disagree: hoisted evaluation diverged from per-address"
    );
    let kernel_speedup = kernel_rates[1] / kernel_rates[0];
    eprintln!("   kernel block-run speedup: {kernel_speedup:.2}x");
    if baseline_mode {
        assert!(
            kernel_speedup >= 4.0,
            "acceptance criterion failed: block-run kernel only {kernel_speedup:.2}x per-address"
        );
    }
    // ---- Cap sweep (PR 10): the flat residual table against the
    // byte-sliced fallback at each plausible block width — the tuning
    // evidence behind `bmmc::eval::RESIDUAL_TABLE_MAX_BITS`. The tuned
    // cap must admit the table at every swept width; both paths must
    // produce identical target checksums; and under --baseline the
    // flat table must win wherever the fallback pays more than one
    // byte lookup per record.
    let sweep_bits = 22u32;
    let wperm = catalog::bit_reversal(sweep_bits as usize);
    let sweep_total = 1u64 << sweep_bits;
    let mut cap_ratios: Vec<Json> = Vec::new();
    for width in [6u32, 12, 16] {
        let mut rates = [0.0f64; 2]; // [flat, sliced]
        let mut csums = [0u64; 2];
        for (vi, vname) in ["flat", "sliced"].into_iter().enumerate() {
            let bev = if vi == 0 {
                let ev = BlockEvaluator::new(&wperm, width);
                assert!(
                    ev.residual_table().is_some(),
                    "the tuned cap must admit a width-{width} residual table"
                );
                ev
            } else {
                BlockEvaluator::with_table_cap(&wperm, width, 0)
            };
            let blocks = sweep_total >> width;
            let offsets = 1u64 << width;
            let mut best = f64::INFINITY;
            let mut sum = 0u64;
            for _ in 0..reps {
                let t0 = Instant::now();
                let mut acc = 0u64;
                if let Some(rtab) = bev.residual_table() {
                    for blk in 0..blocks {
                        let ybase = bev.block_base(blk);
                        for &r in rtab {
                            acc = acc.wrapping_add(ybase ^ r);
                        }
                    }
                } else {
                    for blk in 0..blocks {
                        let ybase = bev.block_base(blk);
                        for off in 0..offsets {
                            acc = acc.wrapping_add(ybase ^ bev.residual(off));
                        }
                    }
                }
                best = best.min(t0.elapsed().as_secs_f64());
                sum = std::hint::black_box(acc);
            }
            csums[vi] = sum;
            rates[vi] = sweep_total as f64 / best;
            eprintln!(
                "   cap_sweep  b={width:<2} {vname:<7} {:>13.0} addresses/s  {:>8.3} ms",
                rates[vi],
                best * 1e3
            );
            rows.push(Json::obj(vec![
                ("kind", Json::Str("cap_sweep".into())),
                ("impl", Json::Str(format!("b{width}-{vname}"))),
                (
                    "addresses_per_sec",
                    Json::Num((rates[vi] * 10.0).round() / 10.0),
                ),
                (
                    "elapsed_ms",
                    Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
                ),
                ("parallel_ios", Json::Num(0.0)),
            ]));
        }
        assert_eq!(
            csums[0], csums[1],
            "width {width}: capped evaluation diverged from the flat table"
        );
        let ratio = rates[0] / rates[1];
        eprintln!("   cap_sweep  b={width:<2} flat/sliced: {ratio:.2}x");
        if baseline_mode && width > 8 {
            // At one byte and below both paths are a single table
            // lookup and the comparison is noise; past that the
            // fallback pays an extra lookup per record and the flat
            // table must win.
            assert!(
                ratio >= 1.0,
                "acceptance criterion failed: width-{width} flat residual table only \
                 {ratio:.2}x the byte-sliced fallback"
            );
        }
        cap_ratios.push(Json::obj(vec![
            ("width", Json::Num(width as f64)),
            (
                "flat_over_sliced",
                Json::Num((ratio * 1000.0).round() / 1000.0),
            ),
        ]));
    }
    // ---- End to end: the bpc-baseline fusion workload per strategy.
    let passes = bpc_baseline_plan(&perm, geom.b(), geom.m())
        .expect("bit reversal is BPC")
        .passes;
    let plan = fuse_passes(&passes, geom.b(), geom.m());
    let input: Vec<u64> = (0..records).collect();
    let expect = reference_permute(&input, |x| perm.target(x));
    let mut e2e_rates = [0.0f64; 2]; // [per_address, block_run]
    for (si, (simpl, strategy)) in [
        ("per_address", EvalStrategy::PerAddress),
        ("block_run", EvalStrategy::BlockRun),
    ]
    .into_iter()
    .enumerate()
    {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
        sys.set_service_mode(ServiceMode::Threaded);
        sys.load_records(0, &input);
        // `Plan::execute`'s BMMC-route loop, with the strategy under
        // test. Returns (parallel I/Os, final portion).
        let execute = |sys: &mut DiskSystem<u64>| {
            let before = sys.stats();
            let mut engine = PassEngine::new(geom);
            let mut src = 0;
            for step in &plan.steps {
                execute_fused_with_strategy(&mut engine, sys, src, 1 - src, step, strategy)
                    .expect("bpc-baseline run");
                src = 1 - src;
            }
            (sys.stats().since(&before).parallel_ios(), src)
        };
        // Warm-up rep doubles as the correctness check.
        let (ios, portion) = execute(&mut sys);
        assert_eq!(
            sys.dump_records(portion),
            expect,
            "{simpl} produced a wrong permutation"
        );
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (r, _) = execute(&mut sys);
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(r, ios);
        }
        e2e_rates[si] = records as f64 / best;
        eprintln!(
            "   end_to_end {:<11} {:>13.0} records/s    {:>8.3} ms  {:>6} parallel I/Os",
            simpl,
            e2e_rates[si],
            best * 1e3,
            ios
        );
        rows.push(Json::obj(vec![
            ("kind", Json::Str("end_to_end".into())),
            ("impl", Json::Str(simpl.into())),
            ("executed_passes", Json::Num(plan.num_steps() as f64)),
            ("parallel_ios", Json::Num(ios as f64)),
            (
                "records_per_sec",
                Json::Num((e2e_rates[si] * 10.0).round() / 10.0),
            ),
            (
                "elapsed_ms",
                Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
            ),
        ]));
    }
    let e2e_speedup = e2e_rates[1] / e2e_rates[0];
    eprintln!("   end_to_end block-run speedup: {e2e_speedup:.2}x");
    if baseline_mode {
        assert!(
            e2e_speedup >= 1.2,
            "acceptance criterion failed: block-run end-to-end only {e2e_speedup:.2}x per-address"
        );
    }
    Json::obj(vec![
        ("geometry", Json::Str(bmmc_bench::geom_label(&geom))),
        ("kernel_addresses", Json::Num(total as f64)),
        ("rows", Json::Arr(rows)),
        (
            "kernel_block_run_over_per_address",
            Json::Num((kernel_speedup * 1000.0).round() / 1000.0),
        ),
        (
            "end_to_end_block_run_over_per_address",
            Json::Num((e2e_speedup * 1000.0).round() / 1000.0),
        ),
        ("cap_sweep_flat_over_sliced", Json::Arr(cap_ratios)),
    ])
}

/// One planner crossover row. Every field is deterministic — the sweep
/// is purely analytic (`bmmc::plan::candidates` + `choose` over exact
/// per-step counts), so `steps` and `parallel_ios` are exact-gated and
/// the pick string sits in the row *key*.
fn planner_row(
    workload: &str,
    geometry: &str,
    timing: &str,
    pick: &str,
    steps: usize,
    parallel_ios: u64,
    modeled_ms: f64,
) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("geometry", Json::Str(geometry.into())),
        ("timing", Json::Str(timing.into())),
        ("pick", Json::Str(pick.into())),
        ("steps", Json::Num(steps as f64)),
        ("parallel_ios", Json::Num(parallel_ios as f64)),
        (
            "modeled_ms",
            Json::Num((modeled_ms * 1000.0).round() / 1000.0),
        ),
    ])
}

/// The PR 10 planner sweep: the `--algorithm auto` crossover table.
///
/// For each named workload × geometry × timing model the unified plan
/// IR enumerates every executable candidate (the DP-fused BMMC route
/// plus the external-sort route per merge strategy) and `choose` picks the
/// cheapest by modeled wall-clock, exact parallel I/Os breaking ties.
/// The table spans the regimes the cost model distinguishes:
///
/// * BMMC-structured workloads (transpose, bit reversal, random,
///   adversarial worst-cross-rank) — where the paper's factoring
///   usually dominates, but a worst-rank matrix can push the BMMC
///   route past the sort route's pass count;
/// * a `shuffle` workload — a general permutation with no BMMC
///   structure, so the candidates are the merge strategies alone and
///   the pick is the strategy crossover (seek-heavy models favor the
///   fewer-operation single-buffered merge; flat models favor
///   whichever schedule moves fewest blocks);
/// * the `tiny-mem` geometry — `M = BD`, where no merge fits and the
///   sort route vanishes exactly where BMMC factoring is costliest;
/// * the committed `MLD;MRC;MLD` re-association chain
///   ([`reassociation_case`]) planned both ways: greedy
///   pair fusion is stuck at two steps, the DP whole-plan fuser
///   executes it in one — strictly fewer steps and parallel I/Os,
///   asserted here and exact-gated by `--check`.
fn run_planner_sweep() -> Json {
    let geoms = [
        (
            "fig2",
            Geometry::new(1 << 13, 1 << 3, 1 << 4, 1 << 8).expect("fig2 geometry"),
        ),
        (
            "bench",
            Geometry::new(1 << 18, 1 << 3, 1 << 4, 1 << 12).expect("bench geometry"),
        ),
        (
            "narrow",
            Geometry::new(1 << 9, 1 << 2, 1 << 1, 1 << 6).expect("narrow geometry"),
        ),
        (
            "tiny-mem",
            Geometry::new(1 << 13, 1 << 3, 1 << 2, 1 << 5).expect("tiny-mem geometry"),
        ),
    ];
    let timings = [("hdd", TimingModel::hdd()), ("ssd", TimingModel::ssd())];
    eprintln!(
        "== planner sweep: crossover picks over {} geometries x {{hdd,ssd}} (analytic)",
        geoms.len()
    );
    let mut rows: Vec<Json> = Vec::new();
    for (gi, (gname, g)) in geoms.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x10AD + gi as u64);
        let workloads: Vec<(&str, Bmmc)> = vec![
            ("transpose", catalog::transpose(g.n(), g.n() / 2)),
            ("bit-reversal", catalog::bit_reversal(g.n())),
            ("random", catalog::random_bmmc(&mut rng, g.n())),
            (
                "worst-rank",
                catalog::random_worst_rank(&mut rng, g.n(), g.m()),
            ),
        ];
        for (wname, perm) in &workloads {
            let plans = candidates(perm, g);
            assert!(!plans.is_empty(), "the BMMC route always applies");
            for (tname, timing) in &timings {
                let pick = choose(&plans, g, timing).expect("candidates is nonempty");
                eprintln!(
                    "   {:<8} {:<12} {:<3} -> {:<13} {:>2} steps  {:>7} parallel I/Os  \
                     {:>12.2} modeled ms  ({} candidates)",
                    gname,
                    wname,
                    tname,
                    pick.candidate.name(),
                    pick.num_steps(),
                    pick.parallel_ios(g),
                    pick.modeled_ms(g, timing),
                    plans.len()
                );
                rows.push(planner_row(
                    wname,
                    gname,
                    tname,
                    pick.candidate.name(),
                    pick.num_steps(),
                    pick.parallel_ios(g),
                    pick.modeled_ms(g, timing),
                ));
            }
        }
        // The sort-only shuffle workload: a general permutation with no
        // BMMC structure, so the candidates are the merge strategies
        // alone and the pick is the pure strategy crossover.
        let sort_plans: Vec<Plan> = MergeStrategy::ALL
            .into_iter()
            .filter_map(|s| Plan::sort(g, s))
            .collect();
        if sort_plans.is_empty() {
            eprintln!(
                "   {gname:<8} shuffle: no merge fits (fan-in < 2) — the sort route \
                 vanishes exactly where BMMC factoring is costliest"
            );
            continue;
        }
        for (tname, timing) in &timings {
            let pick = choose(&sort_plans, g, timing).expect("sort candidates exist");
            eprintln!(
                "   {:<8} {:<12} {:<3} -> {:<13} {:>2} steps  {:>7} parallel I/Os  \
                 {:>12.2} modeled ms  ({} candidates)",
                gname,
                "shuffle",
                tname,
                pick.candidate.name(),
                pick.num_steps(),
                pick.parallel_ios(g),
                pick.modeled_ms(g, timing),
                sort_plans.len()
            );
            rows.push(planner_row(
                "shuffle",
                gname,
                tname,
                pick.candidate.name(),
                pick.num_steps(),
                pick.parallel_ios(g),
                pick.modeled_ms(g, timing),
            ));
        }
    }
    // The committed re-association chain at the fig2 boundaries:
    // greedy pair fusion closes its first group after p1 (the pair seam
    // classifies nowhere), but the whole product telescopes into MLD⁻¹
    // and the DP's full-gather split executes all three passes in one
    // round-trip.
    let (gname, g) = &geoms[0];
    let passes = reassociation_case(g.n(), g.b(), g.m());
    let greedy_plan: Plan = fuse_passes_greedy(&passes, g.b(), g.m()).into();
    let dp = Plan::from_passes(&passes, g.b(), g.m());
    assert!(
        dp.num_steps() < greedy_plan.num_steps(),
        "the DP fuser must beat greedy on the committed re-association chain"
    );
    assert!(dp.parallel_ios(g) < greedy_plan.parallel_ios(g));
    eprintln!(
        "   {:<8} reassoc: greedy {} steps ({} parallel I/Os), dp {} step(s) ({} parallel I/Os)",
        gname,
        greedy_plan.num_steps(),
        greedy_plan.parallel_ios(g),
        dp.num_steps(),
        dp.parallel_ios(g)
    );
    for (tname, timing) in &timings {
        for (fuser, plan) in [("greedy", &greedy_plan), ("dp", &dp)] {
            rows.push(planner_row(
                "reassoc",
                gname,
                tname,
                fuser,
                plan.num_steps(),
                plan.parallel_ios(g),
                plan.modeled_ms(g, timing),
            ));
        }
    }
    Json::obj(vec![
        (
            "timing_models",
            Json::Arr(vec![Json::Str("hdd".into()), Json::Str("ssd".into())]),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// MemDisk vs. FileDisk under the engine, in both service modes.
///
/// Every row performs the identical seeded one-pass MLD permutation
/// through the [`pdm::PassEngine`]; the placement must be
/// byte-identical to the reference (hence to MemDisk) and the charged
/// parallel-I/O count identical across **all** rows — backends may
/// only move the wall clock. The interesting comparison is
/// `file`/`threaded` (persistent `DiskPool` workers issuing positional
/// reads/writes, split-phase overlap) against `file`/`serial` on the
/// same files, recorded as `threaded_over_serial`.
fn run_file_sweep(lg_records: usize, reps: usize, parent: &Path) -> Json {
    let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 4, 1 << 12).expect("file geometry");
    eprintln!(
        "== file sweep: N=2^{lg_records}, B=2^3, D=2^4, M=2^12, engine, best of {reps} reps \
         (files under {})",
        parent.display()
    );
    let mut rng = StdRng::seed_from_u64(0xF11E + lg_records as u64);
    let perm = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
    let pass = Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind: PassKind::Mld,
    };
    let input: Vec<u64> = (0..geom.records() as u64).collect();
    let expect = reference_permute(&input, |x| perm.target(x));
    let mut rows: Vec<Json> = Vec::new();
    let mut rps: Vec<(&str, &str, f64)> = Vec::new();
    let mut ios: Option<u64> = None;
    for backend in ["mem", "file"] {
        for (mode_name, mode) in MODES {
            let scratch = parent.join(format!("{backend}-{mode_name}"));
            let mut sys: DiskSystem<u64> = if backend == "file" {
                DiskSystem::new_file(geom, 2, &scratch).expect("file-backed system")
            } else {
                DiskSystem::new_mem(geom, 2)
            };
            sys.set_service_mode(mode);
            sys.load_records(0, &input);
            // Warm-up rep doubles as the correctness check: the file
            // backend must place every record byte-identically.
            let stats = execute_pass(&mut sys, 0, 1, &pass).expect("engine pass failed");
            assert_eq!(
                sys.dump_records(1),
                expect,
                "{backend}/{mode_name} produced a wrong permutation"
            );
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let s = execute_pass(&mut sys, 0, 1, &pass).expect("engine pass failed");
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(s.ios.parallel_ios(), stats.ios.parallel_ios());
            }
            drop(sys);
            if backend == "file" {
                std::fs::remove_dir_all(&scratch).ok();
            }
            if let Some(prev) = ios {
                assert_eq!(
                    prev,
                    stats.ios.parallel_ios(),
                    "{backend}/{mode_name} changed the charged I/O count"
                );
            }
            ios = Some(stats.ios.parallel_ios());
            let records_per_sec = geom.records() as f64 / best;
            rps.push((backend, mode_name, records_per_sec));
            eprintln!(
                "   {:<5} {:<9} {:>12.0} rec/s  {:>8.2} ms  {} parallel I/Os",
                backend,
                mode_name,
                records_per_sec,
                best * 1e3,
                stats.ios.parallel_ios()
            );
            rows.push(Json::obj(vec![
                ("backend", Json::Str(backend.into())),
                ("mode", Json::Str(mode_name.into())),
                (
                    "records_per_sec",
                    Json::Num((records_per_sec * 10.0).round() / 10.0),
                ),
                (
                    "elapsed_ms",
                    Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
                ),
                ("parallel_ios", Json::Num(stats.ios.parallel_ios() as f64)),
            ]));
        }
    }
    let threaded_over_serial = |backend: &str| {
        let get = |mode: &str| {
            rps.iter()
                .find(|(b, m, _)| *b == backend && *m == mode)
                .map(|(_, _, r)| *r)
                .expect("row measured")
        };
        get("threaded") / get("serial")
    };
    let speedups: Vec<Json> = ["mem", "file"]
        .into_iter()
        .map(|backend| {
            Json::obj(vec![
                ("backend", Json::Str(backend.into())),
                (
                    "threaded_over_serial",
                    Json::Num((threaded_over_serial(backend) * 1000.0).round() / 1000.0),
                ),
            ])
        })
        .collect();
    eprintln!(
        "   file threaded/serial: {:.2}x",
        threaded_over_serial("file")
    );
    Json::obj(vec![
        (
            "geometry",
            Json::obj(vec![
                ("lg_records", Json::Num(lg_records as f64)),
                ("lg_block", Json::Num(3.0)),
                ("lg_disks", Json::Num(4.0)),
                ("lg_memory", Json::Num(12.0)),
            ]),
        ),
        ("reps", Json::Num(reps as f64)),
        ("rows", Json::Arr(rows)),
        ("speedups", Json::Arr(speedups)),
    ])
}

/// Builds the `TransportConfig` for a transport-sweep row name.
fn transport_config(name: &str) -> TransportConfig {
    match name {
        "inproc" => TransportConfig::InProc,
        "uds" => TransportConfig::Uds(Default::default()),
        "sim" => TransportConfig::SimNet(Default::default()),
        other => unreachable!("unknown transport {other}"),
    }
}

/// The service sweep: the multi-tenant job service under three
/// scenarios, all in-process against one shared [`pdm_served`] disk
/// farm.
///
/// * `single` — the same seeded BMMC job run directly on a private
///   `DiskSystem` and through the service (one tenant, governor
///   engaged). Both rows must charge identical parallel I/Os — the
///   scheduler may not change the model cost — and under `--baseline`
///   the served row must reach ≥ 0.9× the direct records/s.
/// * `fair` — K=4 *identical* jobs (same seed) submitted at the same
///   instant by four client threads. Every job's charged ledger must
///   equal its own disk system's counters exactly, all four charges
///   must be equal to the operation, and under `--baseline` the
///   completion-time spread must stay within 25% of the mean — the
///   deficit round-robin discipline, not FIFO head-of-line blocking.
/// * `load` — an open-loop generator: jobs submitted on a fixed
///   arrival clock regardless of completions, reporting aggregate
///   throughput and p50/p95/p99 job latency.
///
/// The per-job parallel-I/O counts (single and fair rows) are
/// deterministic and exact-gated by `--check`; the latencies are
/// recorded, not gated.
fn run_service_sweep(reps: usize, baseline_mode: bool) -> Json {
    use pdm_served::core::{JobState, ServiceConfig, ServiceCore};
    use pdm_served::job::{run_job, JobKind, JobSpec};
    use std::sync::{Arc, Barrier};

    let lg_records = 14;
    let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 3, 1 << 10).expect("service geometry");
    let config = ServiceConfig {
        block: geom.block(),
        disks: geom.disks(),
        slots: 1 << 12,
        quantum: geom.blocks_per_memoryload() as u64,
        max_queue: 64,
        max_running: 8,
        ..ServiceConfig::default()
    };
    eprintln!(
        "== service sweep: N=2^{lg_records}, B=2^3, D=2^3, M=2^10, quantum {} blocks, best of {reps} reps",
        config.quantum
    );
    let spec = JobSpec::new(JobKind::Bmmc, geom.records(), geom.memory(), 0xFA1);
    let mut rows: Vec<Json> = Vec::new();

    // -- single: direct vs served ------------------------------------
    // Interleaved direct/served pairs (rather than two back-to-back
    // loops) so a drifting machine hits both paths alike; the baseline
    // run takes extra reps because it *asserts* on the ratio.
    let single_reps = if baseline_mode {
        reps.max(7)
    } else {
        reps.max(1)
    };
    let mut direct_best = f64::MAX;
    let mut direct_ios = 0u64;
    let mut served_best = f64::MAX;
    let mut served_ios = 0u64;
    for _ in 0..single_reps {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
        sys.set_threaded(true);
        let t0 = Instant::now();
        let report = run_job(&mut sys, &spec).expect("direct job");
        direct_best = direct_best.min(t0.elapsed().as_secs_f64());
        direct_ios = report.io.parallel_ios();

        let core = ServiceCore::new(config);
        let t0 = Instant::now();
        let id = core.submit(spec, None).expect("submit");
        let status = core.wait(id).expect("known id");
        served_best = served_best.min(t0.elapsed().as_secs_f64());
        assert_eq!(status.state, JobState::Done, "served single job");
        let report = status.report.expect("done job has report");
        assert_eq!(
            status.usage.io, report.io,
            "scheduler ledger equals the job's own counters"
        );
        served_ios = status.usage.io.parallel_ios();
        core.shutdown();
    }
    assert_eq!(
        direct_ios, served_ios,
        "the governor may not change the model cost"
    );
    let n = geom.records() as f64;
    let single_ratio = (n / served_best) / (n / direct_best);
    eprintln!(
        "   single: direct {:.1} ms, served {:.1} ms, ratio {single_ratio:.3}",
        direct_best * 1e3,
        served_best * 1e3
    );
    if baseline_mode {
        assert!(
            single_ratio >= 0.9,
            "acceptance criterion failed: served single-job throughput only \
             {single_ratio:.3}x of the direct path"
        );
    }
    for (job, ios, secs) in [
        ("direct", direct_ios, direct_best),
        ("served", served_ios, served_best),
    ] {
        rows.push(Json::obj(vec![
            ("scenario", Json::Str("single".into())),
            ("job", Json::Str(job.into())),
            ("parallel_ios", Json::Num(ios as f64)),
            (
                "records_per_sec",
                Json::Num(((n / secs) * 10.0).round() / 10.0),
            ),
            (
                "elapsed_ms",
                Json::Num((secs * 1e3 * 1000.0).round() / 1000.0),
            ),
        ]));
    }

    // -- fair: K=4 identical tenants ---------------------------------
    const K: usize = 4;
    let core = ServiceCore::new(config);
    let barrier = Arc::new(Barrier::new(K));
    let mut tenants = Vec::new();
    for _ in 0..K {
        let core = Arc::clone(&core);
        let barrier = Arc::clone(&barrier);
        tenants.push(std::thread::spawn(move || {
            barrier.wait();
            let t0 = Instant::now();
            let id = core.submit(spec, None).expect("fair submit");
            let status = core.wait(id).expect("known id");
            (id, status, t0.elapsed().as_secs_f64())
        }));
    }
    let mut completions = Vec::new();
    for t in tenants {
        let (id, status, secs) = t.join().expect("tenant thread");
        assert_eq!(status.state, JobState::Done, "fair job {id}");
        let report = status.report.expect("done job has report");
        assert_eq!(
            status.usage.io, report.io,
            "fair job {id}: exact per-job accounting"
        );
        completions.push((id, status.usage.io.parallel_ios(), secs));
    }
    core.shutdown();
    completions.sort_by_key(|&(id, _, _)| id);
    let charges: Vec<u64> = completions.iter().map(|&(_, c, _)| c).collect();
    assert!(
        charges.windows(2).all(|w| w[0] == w[1]),
        "identical jobs must be charged identically: {charges:?}"
    );
    let times: Vec<f64> = completions.iter().map(|&(_, _, s)| s).collect();
    let mean = times.iter().sum::<f64>() / K as f64;
    let spread = times.iter().cloned().fold(f64::MIN, f64::max)
        - times.iter().cloned().fold(f64::MAX, f64::min);
    let spread_pct = 100.0 * spread / mean;
    eprintln!(
        "   fair: {K} tenants, {} parallel I/Os each, completions {:?} ms, spread {spread_pct:.1}% of mean",
        charges[0],
        times.iter().map(|s| (s * 1e3).round()).collect::<Vec<_>>()
    );
    if baseline_mode {
        assert!(
            spread_pct <= 25.0,
            "acceptance criterion failed: fair-share completion spread {spread_pct:.1}% > 25% of mean"
        );
    }
    for &(id, ios, secs) in &completions {
        rows.push(Json::obj(vec![
            ("scenario", Json::Str("fair".into())),
            ("job", Json::Str(format!("tenant-{id}"))),
            ("parallel_ios", Json::Num(ios as f64)),
            (
                "elapsed_ms",
                Json::Num((secs * 1e3 * 1000.0).round() / 1000.0),
            ),
        ]));
    }

    // -- load: open-loop multi-tenant generator ----------------------
    const JOBS: usize = 24;
    let interval = std::time::Duration::from_millis(2);
    let small = JobSpec::new(
        JobKind::Bmmc,
        1 << 12,
        1 << 8,
        0xBEEF, // same work per job; arrivals, not content, vary
    );
    let core = ServiceCore::new(config);
    let t0 = Instant::now();
    let mut waiters = Vec::new();
    for _ in 0..JOBS {
        let id = core.submit(small, None).expect("load submit");
        let submitted = Instant::now();
        let core = Arc::clone(&core);
        waiters.push(std::thread::spawn(move || {
            let status = core.wait(id).expect("known id");
            assert_eq!(status.state, JobState::Done, "load job {id}");
            submitted.elapsed().as_secs_f64()
        }));
        std::thread::sleep(interval); // open loop: the clock, not the
                                      // completions, paces arrivals
    }
    let mut latencies: Vec<f64> = waiters
        .into_iter()
        .map(|w| w.join().expect("waiter thread"))
        .collect();
    let total = t0.elapsed().as_secs_f64();
    core.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: f64| latencies[((p * (JOBS - 1) as f64).round() as usize).min(JOBS - 1)];
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let throughput = JOBS as f64 / total;
    eprintln!(
        "   load: {JOBS} jobs open-loop @ {:?}, {throughput:.1} jobs/s, \
         p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        interval,
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );

    Json::obj(vec![
        ("geometry", Json::Str(bmmc_bench::geom_label(&geom))),
        ("quantum_blocks", Json::Num(config.quantum as f64)),
        ("rows", Json::Arr(rows)),
        (
            "single_ratio",
            Json::Num((single_ratio * 1000.0).round() / 1000.0),
        ),
        (
            "fair_spread_pct",
            Json::Num((spread_pct * 10.0).round() / 10.0),
        ),
        (
            "load",
            Json::obj(vec![
                ("jobs", Json::Num(JOBS as f64)),
                ("arrival_interval_ms", Json::Num(2.0)),
                (
                    "throughput_jobs_per_sec",
                    Json::Num((throughput * 10.0).round() / 10.0),
                ),
                ("p50_ms", Json::Num((p50 * 1e3 * 100.0).round() / 100.0)),
                ("p95_ms", Json::Num((p95 * 1e3 * 100.0).round() / 100.0)),
                ("p99_ms", Json::Num((p99 * 1e3 * 100.0).round() / 100.0)),
            ]),
        ),
    ])
}

/// The recovery sweep: the same seeded BMMC permutation performed
/// clean and under a ~1%-of-operations transient-fault plan with a
/// fault-tolerant retry policy. Recovery must be *invisible* in the
/// model: byte-identical final placement, exactly equal charged
/// parallel I/Os (retried operations are charged once), and a ledger
/// showing exactly one retry per injected firing — both counts are
/// deterministic and exact-gated by `--check`. Under `--baseline` the
/// recovered run must keep ≥ 0.8× the clean run's records/s.
fn run_recovery_sweep(lg_records: usize, reps: usize, baseline_mode: bool) -> Json {
    use bmmc::algorithm::perform_bmmc;
    let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 4, 1 << 12).expect("recovery geometry");
    let perm = catalog::random_bmmc(&mut StdRng::seed_from_u64(0xFA01), geom.n());
    let input: Vec<u64> = (0..geom.records() as u64).collect();
    let reps = reps.max(1);

    // One run of the workload under `plan`, returning placement,
    // charged I/O, the ledger, and the elapsed seconds.
    let run = |plan: FaultPlan| {
        let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
        sys.set_service_mode(ServiceMode::Threaded);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        sys.set_faults(plan);
        sys.load_records(0, &input);
        let t0 = Instant::now();
        let report = perform_bmmc(&mut sys, &perm).expect("recovery bmmc run");
        let secs = t0.elapsed().as_secs_f64();
        let records = sys.dump_records(report.final_portion);
        assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
        (records, sys.stats(), sys.retry_stats(), secs)
    };

    // The clean run sizes the fault plan: its operation count is
    // deterministic, so "1% of operations" is a fixed schedule.
    let (clean_records, clean_ios, clean_retry, mut clean_best) = run(FaultPlan::new());
    assert!(clean_retry.is_clean(), "clean run has a dirty ledger");
    let total_ops = clean_ios.parallel_ios();
    let fault_plan = || {
        let mut plan = FaultPlan::new();
        for (i, op) in (0..total_ops).step_by(100).enumerate() {
            plan = plan.fail_transient_at(op, i % geom.disks());
        }
        plan
    };
    let injected = fault_plan().len();
    eprintln!(
        "== recovery sweep: N=2^{lg_records}, B=2^3, D=2^4, M=2^12, \
         {injected} transient faults over {total_ops} ops, best of {reps} reps"
    );

    let (recovered_records, recovered_ios, recovered_retry, mut recovered_best) = run(fault_plan());
    assert_eq!(
        recovered_records, clean_records,
        "recovered placement diverged from clean"
    );
    assert_eq!(
        recovered_ios, clean_ios,
        "recovery changed the charged model cost"
    );
    assert!(recovered_retry.transient_faults >= 1, "no fault ever fired");
    assert_eq!(
        recovered_retry.retries, recovered_retry.transient_faults,
        "each injected firing costs exactly one retry"
    );
    for _ in 1..reps {
        let (_, _, _, secs) = run(FaultPlan::new());
        clean_best = clean_best.min(secs);
        let (_, _, retry, secs) = run(fault_plan());
        assert_eq!(retry, recovered_retry, "ledger changed between reps");
        recovered_best = recovered_best.min(secs);
    }

    let ratio = clean_best / recovered_best;
    eprintln!(
        "   clean {:.1} ms, recovered {:.1} ms ({} retries absorbed), ratio {ratio:.3}",
        clean_best * 1e3,
        recovered_best * 1e3,
        recovered_retry.retries
    );
    if baseline_mode {
        assert!(
            ratio >= 0.8,
            "acceptance criterion failed: recovered throughput only {ratio:.3}x of clean"
        );
    }
    let n = geom.records() as f64;
    let rows: Vec<Json> = [
        ("clean", clean_ios, 0u64, clean_best),
        (
            "recovered",
            recovered_ios,
            recovered_retry.retries,
            recovered_best,
        ),
    ]
    .into_iter()
    .map(|(label, ios, retries, secs)| {
        Json::obj(vec![
            ("run", Json::Str(label.into())),
            ("parallel_ios", Json::Num(ios.parallel_ios() as f64)),
            ("retries", Json::Num(retries as f64)),
            (
                "records_per_sec",
                Json::Num(((n / secs) * 10.0).round() / 10.0),
            ),
            (
                "elapsed_ms",
                Json::Num((secs * 1e3 * 1000.0).round() / 1000.0),
            ),
        ])
    })
    .collect();
    Json::obj(vec![
        ("geometry", Json::Str(bmmc_bench::geom_label(&geom))),
        ("injected_faults", Json::Num(injected as f64)),
        (
            "fired_faults",
            Json::Num(recovered_retry.transient_faults as f64),
        ),
        ("rows", Json::Arr(rows)),
        (
            "recovered_ratio",
            Json::Num((ratio * 1000.0).round() / 1000.0),
        ),
    ])
}

/// The transport sweep: the same seeded engine MLD pass served
/// in-process, over per-disk `pdm-diskd` worker processes (Unix-domain
/// sockets), and over the deterministic simulated network.
///
/// Placement and the charged parallel-I/O count must be identical
/// across every transport — the transport may only move the wall
/// clock. The in-process rows must move **zero** transport messages,
/// and the sim rows must move exactly the same message and wire-byte
/// counts as the real socket rows (both sides speak the identical
/// `pdm::proto` protocol, so the simulation is an exact cost model of
/// the sockets). Under `--baseline` the threaded UDS row must reach
/// ≥ 0.5× the threaded in-process records/s.
///
/// `only` restricts the sweep to `{inproc, only}` (the CI UDS smoke
/// step). The UDS rows need the `pdm-diskd` worker binary; a full run
/// skips them with a loud warning when it is missing, but a restricted
/// `--transport uds` run fails — that run exists to test the sockets.
fn run_transport_sweep(
    lg_records: usize,
    reps: usize,
    only: Option<&str>,
    baseline_mode: bool,
) -> Json {
    let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 4, 1 << 12).expect("transport geometry");
    eprintln!(
        "== transport sweep: N=2^{lg_records}, B=2^3, D=2^4, M=2^12, engine, best of {reps} reps"
    );
    let mut rng = StdRng::seed_from_u64(0x7BA7 + lg_records as u64);
    let perm = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
    let pass = Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind: PassKind::Mld,
    };
    let input: Vec<u64> = (0..geom.records() as u64).collect();
    let expect = reference_permute(&input, |x| perm.target(x));
    let transports: Vec<&'static str> = match only {
        None => vec!["inproc", "uds", "sim"],
        Some("inproc") => vec!["inproc"],
        Some("uds") => vec!["inproc", "uds"],
        Some("sim") => vec!["inproc", "sim"],
        Some(other) => {
            eprintln!("unknown --transport {other} (expected inproc, uds, or sim)");
            std::process::exit(2);
        }
    };
    let have_diskd = pdm::transport::find_diskd().is_some();
    if !have_diskd && transports.contains(&"uds") {
        if only.is_some() {
            eprintln!(
                "--transport uds: pdm-diskd worker binary not found — build it \
                 (cargo build --release) or set PDM_DISKD_BIN"
            );
            std::process::exit(1);
        }
        eprintln!(
            "   WARNING: pdm-diskd worker binary not found (PDM_DISKD_BIN unset, not \
             beside this executable) — skipping the uds rows"
        );
    }
    let mut rows: Vec<Json> = Vec::new();
    let mut rps: Vec<(&str, &str, f64)> = Vec::new();
    let mut ios: Option<u64> = None;
    let mut wire: Option<(&str, MsgStats)> = None;
    for transport in transports {
        if transport == "uds" && !have_diskd {
            continue;
        }
        let config = transport_config(transport);
        for (mode_name, mode) in MODES {
            let mut sys: DiskSystem<u64> =
                DiskSystem::new_with_transport(geom, 2, &Backend::Mem, &config)
                    .expect("transport system");
            sys.set_service_mode(mode);
            sys.load_records(0, &input);
            let run = |sys: &mut DiskSystem<u64>| {
                let m0 = sys.message_stats();
                let t0 = Instant::now();
                let stats = execute_pass(sys, 0, 1, &pass).expect("engine pass failed");
                let dt = t0.elapsed().as_secs_f64();
                (stats, sys.message_stats().since(&m0), dt)
            };
            // Warm-up rep doubles as the correctness check.
            let (stats, msgs, _) = run(&mut sys);
            assert_eq!(
                sys.dump_records(1),
                expect,
                "{transport}/{mode_name} produced a wrong permutation"
            );
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let (s, m, dt) = run(&mut sys);
                best = best.min(dt);
                assert_eq!(s.ios.parallel_ios(), stats.ios.parallel_ios());
                assert_eq!(
                    m, msgs,
                    "{transport}/{mode_name}: message count not deterministic"
                );
            }
            if let Some(prev) = ios {
                assert_eq!(
                    prev,
                    stats.ios.parallel_ios(),
                    "{transport}/{mode_name} changed the charged I/O count"
                );
            }
            ios = Some(stats.ios.parallel_ios());
            if transport == "inproc" {
                assert!(
                    msgs.is_zero(),
                    "in-process rows must move no messages, got {msgs}"
                );
            } else {
                // Both remote transports speak the same wire protocol
                // over the same op sequence: identical counts, exactly.
                match &wire {
                    None => wire = Some((transport, msgs)),
                    Some((first, m)) => assert_eq!(
                        *m, msgs,
                        "{transport}/{mode_name} message counts diverge from {first}"
                    ),
                }
            }
            let records_per_sec = geom.records() as f64 / best;
            rps.push((transport, mode_name, records_per_sec));
            eprintln!(
                "   {:<6} {:<9} {:>12.0} rec/s  {:>8.2} ms  {} parallel I/Os  \
                 {} msgs  {} wire bytes",
                transport,
                mode_name,
                records_per_sec,
                best * 1e3,
                stats.ios.parallel_ios(),
                msgs.messages(),
                msgs.bytes()
            );
            rows.push(Json::obj(vec![
                ("transport", Json::Str(transport.into())),
                ("mode", Json::Str(mode_name.into())),
                (
                    "records_per_sec",
                    Json::Num((records_per_sec * 10.0).round() / 10.0),
                ),
                (
                    "elapsed_ms",
                    Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
                ),
                ("parallel_ios", Json::Num(stats.ios.parallel_ios() as f64)),
                ("messages", Json::Num(msgs.messages() as f64)),
                ("wire_bytes", Json::Num(msgs.bytes() as f64)),
            ]));
        }
    }
    let get = |transport: &str, mode: &str| {
        rps.iter()
            .find(|(t, m, _)| *t == transport && *m == mode)
            .map(|(_, _, r)| *r)
    };
    if let (Some(uds), Some(inproc)) = (get("uds", "threaded"), get("inproc", "threaded")) {
        let ratio = uds / inproc;
        eprintln!("   uds/inproc threaded: {ratio:.2}x");
        if baseline_mode {
            assert!(
                ratio >= 0.5,
                "acceptance criterion failed: threaded uds only {ratio:.2}x of in-process"
            );
        }
    }
    Json::obj(vec![
        (
            "geometry",
            Json::obj(vec![
                ("lg_records", Json::Num(lg_records as f64)),
                ("lg_block", Json::Num(3.0)),
                ("lg_disks", Json::Num(4.0)),
                ("lg_memory", Json::Num(12.0)),
            ]),
        ),
        ("reps", Json::Num(reps as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// The extsort merge-strategy sweep: every [`MergeStrategy`] (single-
/// buffered and forecasting merge), across serial/threaded service and
/// mem/file backends. Every row's pass count and parallel-I/O count
/// must equal the exact schedule replay ([`merge_sort_passes`],
/// [`merge_sort_ios`]) (service mode and backend may only
/// move the wall clock), and the forecasting rows must realize the
/// PR 5 acceptance criterion: fan-in ≥ 8× the single-buffered
/// `M/BD − 1` and strictly fewer passes at this geometry.
fn run_extsort_sweep(lg_records: usize, reps: usize, parent: &Path) -> Json {
    let geom = Geometry::new(1 << lg_records, 1 << 3, 1 << 4, 1 << 12).expect("extsort geometry");
    // The merge is comparison-bound; 3 reps is plenty for a best-of.
    let reps = reps.min(3);
    eprintln!(
        "== extsort sweep: N=2^{lg_records}, B=2^3, D=2^4, M=2^12, \
         {{single,forecast}} x {{serial,threaded}} x {{mem,file}}, best of {reps} reps"
    );
    let mut rng = StdRng::seed_from_u64(0x50C7);
    let mut input: Vec<u64> = (0..geom.records() as u64).collect();
    input.shuffle(&mut rng);
    let mut rows: Vec<Json> = Vec::new();
    for backend in ["mem", "file"] {
        for (mode_name, mode) in MODES {
            for merge in MergeStrategy::ALL {
                let variant = merge.as_str();
                let scratch = parent.join(format!("extsort-{backend}-{mode_name}-{variant}"));
                let run = |input: &[u64]| {
                    let mut sys: DiskSystem<u64> = if backend == "file" {
                        DiskSystem::new_file(geom, 2, &scratch).expect("file-backed system")
                    } else {
                        DiskSystem::new_mem(geom, 2)
                    };
                    sys.set_service_mode(mode);
                    sys.load_records(0, input);
                    let t0 = Instant::now();
                    let report =
                        sort_by_key_with(&mut sys, |&r| r, SortConfig { merge }).expect("sort");
                    let dt = t0.elapsed().as_secs_f64();
                    let out = sys.dump_records(report.final_portion);
                    assert!(out.windows(2).all(|w| w[0] <= w[1]), "missorted output");
                    (report, dt)
                };
                let (report, mut best) = run(&input);
                for _ in 1..reps {
                    let (r, dt) = run(&input);
                    assert_eq!(r.total.parallel_ios(), report.total.parallel_ios());
                    best = best.min(dt);
                }
                if backend == "file" {
                    std::fs::remove_dir_all(&scratch).ok();
                }
                // The model cost is a function of the strategy alone:
                // exactly the schedule replay, on every backend and
                // service mode.
                assert_eq!(
                    Some(report.passes),
                    merge_sort_passes(&geom, merge),
                    "{variant}/{backend}/{mode_name}: pass count drifted from the replay"
                );
                assert_eq!(
                    Some(report.total.parallel_ios()),
                    merge_sort_ios(&geom, merge),
                    "{variant}/{backend}/{mode_name}: parallel I/Os drifted from the replay"
                );
                eprintln!(
                    "   {:<8} {:<5} {:<9} fan-in {:>3}  {} passes  {:>7} parallel I/Os  \
                     {:>12.0} rec/s  {:>8.2} ms",
                    variant,
                    backend,
                    mode_name,
                    report.fan_in,
                    report.passes,
                    report.total.parallel_ios(),
                    geom.records() as f64 / best,
                    best * 1e3
                );
                rows.push(Json::obj(vec![
                    ("variant", Json::Str(variant.into())),
                    ("input", Json::Str("perm".into())),
                    ("backend", Json::Str(backend.into())),
                    ("mode", Json::Str(mode_name.into())),
                    ("fan_in", Json::Num(report.fan_in as f64)),
                    ("passes", Json::Num(report.passes as f64)),
                    (
                        "parallel_ios",
                        Json::Num(report.total.parallel_ios() as f64),
                    ),
                    (
                        "records_per_sec",
                        Json::Num(((geom.records() as f64 / best) * 10.0).round() / 10.0),
                    ),
                    (
                        "elapsed_ms",
                        Json::Num((best * 1e3 * 1000.0).round() / 1000.0),
                    ),
                ]));
            }
        }
    }
    // Adversarial key catalogs (PR 10, `extsort::keys`): duplicate-
    // heavy and log-uniform skewed inputs through every strategy on
    // mem/serial. The merge schedule is a function of the geometry
    // alone, so these rows must replay the same counts as the
    // permutation input — the gate holds the schedule input-
    // independent — and the outputs must be exactly the sorted input.
    let records = geom.records();
    let adversarial: [(&str, Vec<u64>); 2] = [
        ("dup", keys::duplicate_heavy(0xD0B1, records, 4)),
        ("skew", keys::skewed(0x53E9, records, records as u64 * 4)),
    ];
    for (iname, input) in &adversarial {
        let mut expect = input.clone();
        expect.sort_unstable();
        for merge in MergeStrategy::ALL {
            let variant = merge.as_str();
            let mut sys: DiskSystem<u64> = DiskSystem::new_mem(geom, 2);
            sys.set_service_mode(ServiceMode::Serial);
            sys.load_records(0, input);
            let t0 = Instant::now();
            let report = sort_by_key_with(&mut sys, |&r| r, SortConfig { merge }).expect("sort");
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(
                sys.dump_records(report.final_portion),
                expect,
                "{variant}/{iname}: adversarial input missorted"
            );
            assert_eq!(
                Some(report.passes),
                merge_sort_passes(&geom, merge),
                "{variant}/{iname}: the merge schedule must be input-independent"
            );
            assert_eq!(
                Some(report.total.parallel_ios()),
                merge_sort_ios(&geom, merge),
                "{variant}/{iname}: parallel I/Os drifted from the replay"
            );
            eprintln!(
                "   {:<8} {:<5} {:<9} fan-in {:>3}  {} passes  {:>7} parallel I/Os  \
                 {:>12.0} rec/s  {:>8.2} ms",
                variant,
                iname,
                "serial",
                report.fan_in,
                report.passes,
                report.total.parallel_ios(),
                records as f64 / dt,
                dt * 1e3
            );
            rows.push(Json::obj(vec![
                ("variant", Json::Str(variant.into())),
                ("input", Json::Str((*iname).into())),
                ("backend", Json::Str("mem".into())),
                ("mode", Json::Str("serial".into())),
                ("fan_in", Json::Num(report.fan_in as f64)),
                ("passes", Json::Num(report.passes as f64)),
                (
                    "parallel_ios",
                    Json::Num(report.total.parallel_ios() as f64),
                ),
                (
                    "records_per_sec",
                    Json::Num(((records as f64 / dt) * 10.0).round() / 10.0),
                ),
                (
                    "elapsed_ms",
                    Json::Num((dt * 1e3 * 1000.0).round() / 1000.0),
                ),
            ]));
        }
    }
    // Acceptance: forecasting closes the D× fan-in gap at this
    // geometry (M/B − D − 1 ≥ 8·(M/BD − 1)) and needs strictly fewer
    // passes than the single-buffered merge.
    let single = MergeStrategy::SingleBuffered;
    let forecast = MergeStrategy::Forecast;
    assert!(
        forecast.fan_in(&geom) >= 8 * single.fan_in(&geom),
        "forecast fan-in {} below 8x single-buffered {}",
        forecast.fan_in(&geom),
        single.fan_in(&geom)
    );
    assert!(
        merge_sort_passes(&geom, forecast) < merge_sort_passes(&geom, single),
        "forecast must sort in strictly fewer passes at the bench geometry"
    );
    Json::obj(vec![
        ("lg_records", Json::Num(lg_records as f64)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Extracts `(label, field value)` pairs from a section's rows, keyed
/// by the row's identifying fields (strings or counts).
fn counter_rows(doc: &Json, section: &str, key_fields: &[&str], field: &str) -> Vec<(String, u64)> {
    let Some(rows) = doc
        .get(section)
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_array)
    else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            let label = key_fields
                .iter()
                .map(|f| match r.get(f) {
                    Some(Json::Num(n)) => n.to_string(),
                    v => v.and_then(Json::as_str).unwrap_or("?").to_string(),
                })
                .collect::<Vec<_>>()
                .join("/");
            Some((label, r.get(field)?.as_u64()?))
        })
        .collect()
}

/// Shorthand: the `parallel_ios` column of a section.
fn io_rows(doc: &Json, section: &str, key_fields: &[&str]) -> Vec<(String, u64)> {
    counter_rows(doc, section, key_fields, "parallel_ios")
}

/// The CI gate: compares this run's exact counters with the checked-in
/// baseline's — the charged parallel-I/O counts of every section (the
/// quick/full sweeps this run produced, fusion, extsort, file,
/// transport, service, recovery, addr_eval, planner), the transport
/// rows' message counts, the recovery rows' retries, and the planner
/// rows' steps. All are deterministic, so any change is a failure, and
/// so is a baseline row this run does not produce. Timings are
/// recorded, never gated. With `file_only` set (the tmpfs file-backend
/// smoke step), only the file section's I/O counts are compared. With
/// `transport_only` set (the UDS smoke step), only the transport rows
/// this restricted run produced are compared — the baseline's other
/// transports are not required to be present.
fn check_against_baseline(
    current: &Json,
    baseline_path: &str,
    file_only: bool,
    transport_only: bool,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let baseline = Json::parse(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let mut failures = Vec::new();
    const SWEEP_KEYS: &[&str] = &["disks", "mode", "impl"];
    const TRANSPORT_KEYS: &[&str] = &["transport", "mode"];
    // The pick sits in the key: a flipped crossover decision surfaces
    // as a missing row, never as a silently re-baselined count.
    const PLANNER_KEYS: &[&str] = &["workload", "geometry", "timing", "pick"];
    let gated: Vec<(&str, &[&str], &str)> = if file_only {
        // The dedicated file gate must never pass vacuously: a
        // baseline without file rows means there is nothing it could
        // be checking, which is itself a failure.
        if io_rows(&baseline, "file", &["backend", "mode"]).is_empty() {
            return Err(format!(
                "{baseline_path} has no file section to compare — \
                 regenerate it with a post-PR4 engine_sweep"
            ));
        }
        vec![("file", &["backend", "mode"], "parallel_ios")]
    } else if transport_only {
        // Same vacuity rule for the dedicated transport gate.
        if io_rows(&baseline, "transport", TRANSPORT_KEYS).is_empty() {
            return Err(format!(
                "{baseline_path} has no transport section to compare — \
                 regenerate it with a post-PR6 engine_sweep"
            ));
        }
        vec![
            ("transport", TRANSPORT_KEYS, "parallel_ios"),
            ("transport", TRANSPORT_KEYS, "messages"),
        ]
    } else {
        // A run produces the quick sweep, the full sweep, or both; gate
        // whichever it produced.
        let sweeps = ["quick", "full"]
            .into_iter()
            .filter(|s| current.get(s).is_some())
            .map(|s| (s, SWEEP_KEYS, "parallel_ios"));
        sweeps
            .chain([
                ("fusion", &["workload", "impl"][..], "parallel_ios"),
                (
                    "extsort",
                    &["variant", "input", "backend", "mode"],
                    "parallel_ios",
                ),
                ("file", &["backend", "mode"], "parallel_ios"),
                ("transport", TRANSPORT_KEYS, "parallel_ios"),
                ("transport", TRANSPORT_KEYS, "messages"),
                ("service", &["scenario", "job"], "parallel_ios"),
                ("recovery", &["run"], "parallel_ios"),
                ("recovery", &["run"], "retries"),
                ("addr_eval", &["kind", "impl"], "parallel_ios"),
                ("planner", PLANNER_KEYS, "parallel_ios"),
                ("planner", PLANNER_KEYS, "steps"),
            ])
            .collect()
    };
    for (section, keys, field) in gated {
        let base_rows = counter_rows(&baseline, section, keys, field);
        let cur_rows = counter_rows(current, section, keys, field);
        // A restricted transport run carries fewer rows than the full
        // baseline: walk the current rows and look them up in the
        // baseline. Every other gate walks the baseline, so dropping a
        // row is a failure.
        let (from, to, to_name) = if transport_only {
            (&cur_rows, &base_rows, "baseline")
        } else {
            (&base_rows, &cur_rows, "current run")
        };
        for (label, from_val) in from {
            match to.iter().find(|(l, _)| l == label) {
                Some((_, to_val)) if to_val == from_val => {
                    eprintln!("check {section} {label}: {field} {from_val} — ok");
                }
                Some((_, to_val)) => {
                    let (base_val, cur_val) = if transport_only {
                        (to_val, from_val)
                    } else {
                        (from_val, to_val)
                    };
                    failures.push(format!(
                        "{section} {label}: {field} changed {base_val} → {cur_val}"
                    ));
                }
                None => failures.push(format!("{section} {label}: missing from {to_name}")),
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // --baseline always runs the full sweep as well as the quick one
    // (and enforces the acceptance ratios), so it overrides --quick.
    // --file-only runs just the file section (the CI file-backend
    // smoke step); --transport X runs just the transport section
    // restricted to {inproc, X} (the CI UDS smoke step).
    let baseline_mode = has("--baseline");
    let transport_flag = value_of("--transport");
    let file_only = has("--file-only") && !baseline_mode;
    let transport_only = transport_flag.is_some() && !baseline_mode && !file_only;
    let quick_only = has("--quick") && !baseline_mode;

    // File-backend scratch space: --file-dir points it at, e.g., a
    // tmpfs mount; otherwise a self-cleaning temp dir (the guard
    // removes it on exit).
    let mut _file_guard: Option<pdm::TempDir> = None;
    let file_parent: std::path::PathBuf = match value_of("--file-dir") {
        Some(p) => {
            std::fs::create_dir_all(&p).expect("create --file-dir");
            p.into()
        }
        None => {
            let g = pdm::TempDir::new("engine-sweep-file");
            let p = g.path().to_path_buf();
            _file_guard = Some(g);
            p
        }
    };

    let mut sections: Vec<(&str, Json)> = Vec::new();
    if !file_only && !transport_only {
        if !quick_only {
            sections.push(("full", run_sweep(&FULL)));
        }
        if quick_only || baseline_mode {
            sections.push(("quick", run_sweep(&QUICK)));
        }
        // The fusion and extsort sections run at the quick size in
        // every mode: their parallel-I/O counts are deterministic (and
        // exactly gated by --check), their timings cheap.
        sections.push(("fusion", run_fusion_sweep(QUICK.lg_records, QUICK.reps)));
        sections.push((
            "extsort",
            run_extsort_sweep(QUICK.lg_records, QUICK.reps, &file_parent),
        ));
        sections.push((
            "service",
            run_service_sweep(QUICK.reps.min(3), baseline_mode),
        ));
        sections.push((
            "recovery",
            run_recovery_sweep(QUICK.lg_records, QUICK.reps.min(3), baseline_mode),
        ));
        sections.push((
            "addr_eval",
            run_addr_eval_sweep(QUICK.lg_records, QUICK.reps, baseline_mode),
        ));
        // The planner section is purely analytic — every row is a
        // deterministic function of the cost model, so it runs (and is
        // exact-gated) in every non-restricted mode.
        sections.push(("planner", run_planner_sweep()));
    }
    // The transport section runs at the quick size in every mode but
    // --file-only: the same engine pass over in-process channels, UDS
    // worker processes, and the simulated network.
    if !file_only {
        let only = if baseline_mode {
            None
        } else {
            transport_flag.as_deref()
        };
        sections.push((
            "transport",
            run_transport_sweep(QUICK.lg_records, QUICK.reps, only, baseline_mode),
        ));
    }
    // The file section likewise runs at the quick size in every mode
    // but --transport: MemDisk vs. FileDisk under the engine, in both
    // service modes.
    if !transport_only {
        sections.push((
            "file",
            run_file_sweep(QUICK.lg_records, QUICK.reps, &file_parent),
        ));
    }

    let mut doc_pairs = vec![
        ("bench", Json::Str("engine_sweep".into())),
        ("version", Json::Num(8.0)),
        (
            "acceptance",
            Json::Str(
                "engine serial and threaded identical parallel_ios at every D; \
                 fused execution strictly fewer parallel I/Os than unfused (2x on \
                 fully-fusable chains), identical placement; file backend byte-identical \
                 to mem with identical parallel_ios; every transport byte-identical with \
                 identical parallel_ios, inproc moves zero messages, sim message/byte counts \
                 equal uds exactly, threaded uds >= 0.5x inproc records/s; service: governor \
                 charges identical parallel_ios to the direct path, served single-job \
                 throughput >= 0.9x direct, K=4 identical tenants charged exactly equally with \
                 completion spread <= 25% of mean; recovery: a ~1%-transient-fault run places \
                 byte-identically with identical charged parallel_ios and exactly one retry per \
                 injected firing, recovered throughput >= 0.8x clean; addr_eval: block-run \
                 kernel >= 4x per-address addresses/s, block-run end-to-end >= 1.2x per-address \
                 records/s on the threaded bpc bit-reversal config, identical placement and \
                 parallel_ios, and the flat residual table >= the byte-sliced fallback \
                 addresses/s at every multi-byte width (the RESIDUAL_TABLE_MAX_BITS tuning \
                 evidence); planner: every crossover pick, step count, and predicted \
                 parallel-I/O count is a pure function of the cost model (pick-in-key exact \
                 gate), and the DP fuser executes the committed MLD;MRC;MLD re-association \
                 chain in one pass where greedy pair fusion needs two; extsort adversarial \
                 inputs (duplicate-heavy, skewed) sort exactly under every strategy with the \
                 input-independent schedule"
                    .into(),
            ),
        ),
    ];
    doc_pairs.extend(sections);
    let doc = Json::obj(doc_pairs);

    if let Some(path) = value_of("--out") {
        std::fs::write(&path, doc.to_pretty()).expect("write --out file");
        eprintln!("wrote {path}");
    } else {
        print!("{}", doc.to_pretty());
    }

    // --check FILE compares against a named baseline; --check-latest
    // finds the newest BENCH_PR*.json in the working directory, so the
    // gate follows the per-PR bench trajectory without CI edits.
    let check_target = value_of("--check").or_else(|| {
        has("--check-latest").then(|| {
            latest_bench_baseline(".").unwrap_or_else(|| {
                eprintln!("--check-latest: no BENCH_PR*.json found");
                std::process::exit(1);
            })
        })
    });
    if let Some(baseline) = check_target {
        eprintln!("bench-smoke gate: checking against {baseline}");
        // Every gated value is a deterministic count, so a failure is
        // real drift, never timing noise: there is nothing to retry.
        if let Err(msg) = check_against_baseline(&doc, &baseline, file_only, transport_only) {
            eprintln!("bench-smoke gate: FAIL\n{msg}");
            std::process::exit(1);
        }
        eprintln!("bench-smoke gate: PASS");
    }
}

/// The newest committed bench baseline: the `BENCH_PR<k>.json` in
/// `dir` with the highest PR number.
fn latest_bench_baseline(dir: &str) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        // Skip unreadable or non-UTF-8 entries rather than aborting
        // the scan — one stray file must not hide the baseline.
        let Some(name) = entry.ok().and_then(|e| e.file_name().into_string().ok()) else {
            continue;
        };
        let Some(num) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| num > *b) {
            best = Some((num, name));
        }
    }
    best.map(|(_, name)| name)
}
