//! The streaming engine and everything built on it, measured in one
//! run — the bench behind the committed `BENCH_PR*.json` files and the
//! CI `bench-smoke` gate.
//!
//! Every section is declared once in [`SECTIONS`]: its name, the fields
//! that identify a row, the exact counters `--check` gates, and the
//! runner that produces it. Rows are [`Row`]s, which round every timing
//! and print the stderr log line. Each runner asserts its own
//! invariants as it goes (placement equal to the reference, counts
//! equal across service modes, backends and transports, …) and panics
//! on a violation; `--baseline` also holds the timed ratios to
//! [`FLOORS`].
//!
//! ```text
//! cargo run --release -p bmmc-bench --bin engine_sweep -- [FLAGS]
//!   --quick          run the quick disk sweep instead of the full one
//!                    (what CI runs); every other section runs always
//!   --baseline       run both disk sweeps and exit 1 unless every
//!                    acceptance floor in FLOORS holds
//!   --file-dir DIR   parent directory for the file-backed systems'
//!                    per-disk files (e.g. a tmpfs mount); default: a
//!                    self-cleaning temp dir
//!   --out FILE       write the JSON document to FILE (default: stdout)
//!   --check FILE     exit 1 if a gated counter differs from FILE's, a
//!                    row of FILE is missing from this run, or a section
//!                    this run produced has no rows in FILE. Timings are
//!                    recorded, never gated.
//!   --check-latest   like --check, against the newest BENCH_PR<k>.json
//!                    in the working directory (the per-PR trajectory)
//! ```

use bmmc::algorithm::{execute_passes_unfused, perform_bmmc};
use bmmc::bpc_baseline::bpc_baseline_plan;
use bmmc::catalog;
use bmmc::factoring::{Pass, PassKind};
use bmmc::fusion::{execute_fused_with_strategy, fuse_passes};
use bmmc::passes::{execute_pass, reference_permute, EvalStrategy};
use bmmc::plan::reassociation_case;
use bmmc::{candidates, choose, fuse_passes_greedy, AffineEvaluator, BlockEvaluator, Bmmc, Plan};
use bmmc_bench::geom_label;
use bmmc_bench::json::Json;
use extsort::{
    keys, merge_sort_ios, merge_sort_passes, sort_by_key_with, MergeStrategy, SortConfig,
};
use pdm::parallel::service_threads;
use pdm::{
    Backend, DiskSystem, FaultPlan, Geometry, PassEngine, RetryPolicy, ServiceMode, TimingModel,
    TransportConfig,
};
use pdm_served::core::{JobState, ServiceConfig, ServiceCore};
use pdm_served::job::{run_job, JobKind, JobSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::{Debug, Display};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// lg N of every section but the full disk sweep.
const LG: usize = 18;

/// Timed reps of the engine-pass, fusion and addr_eval runs.
const REPS: usize = 5;

/// One section of the document: the fields that identify its rows,
/// the exact counters `--check` gates, and the runner that produces it.
struct Section {
    name: &'static str,
    keys: &'static [&'static str],
    counters: &'static [&'static str],
    run: fn(&Ctx) -> Out,
}

const PIO: &[&str] = &["parallel_ios"];

/// Every section, in run order. `quick` runs under `--quick` and
/// `--baseline`, `full` without `--quick`, the rest always.
///
/// * `quick`/`full` — the disk sweep: one seeded one-pass MLD
///   permutation (striped reads, independent writes: the paper's
///   Theorem 15 discipline) through the engine at each `D`, serial and
///   threaded, with `threaded_over_serial` per `D` and the number of
///   service threads the threaded run had
///   ([`pdm::parallel::service_threads`]; the document's `nproc` is
///   the processor count they shared with the caller).
/// * `fusion` — multi-pass plans fused and unfused: identical placement,
///   strictly fewer parallel I/Os fused, exactly half on the fully
///   fusable chains, one pass per step.
/// * `extsort` — every [`MergeStrategy`] across service modes and
///   mem/file backends, plus duplicate-heavy and skewed key catalogs
///   (`extsort::keys`): every row sorts exactly, and its passes and
///   parallel I/Os equal the input-independent schedule replay; the
///   forecasting merge reaches ≥ 8× the single-buffered fan-in in fewer
///   passes.
/// * `service` — one job direct and through the multi-tenant service
///   (the governor may not change its charge), K = 4 identical tenants
///   at once (charged exactly equally), and an open-loop load run.
/// * `recovery` — one BMMC run clean and under ~1% transient faults:
///   identical placement and charge, one retry per fired fault.
/// * `addr_eval` — per-address against block-run address evaluation,
///   as an isolated kernel and end to end (identical placement and
///   parallel I/Os), and the flat residual table against the
///   byte-sliced fallback per block width (the evidence behind
///   `RESIDUAL_TABLE_MAX_BITS`).
/// * `planner` — the `--algorithm auto` crossover table. The pick is a
///   row key, so a flipped decision shows as a missing row. It ends
///   with the committed `MLD;MRC;MLD` chain, which the DP fuser runs in
///   one step and greedy pair fusion in two.
/// * `transport` — the engine pass in process, over `pdm-diskd` worker
///   processes (Unix-domain sockets) and over the simulated network.
///   Without the worker binary the uds rows are missing and `--check`
///   fails.
/// * `file` — the engine pass on MemDisk and on FileDisk.
const SECTIONS: [Section; 10] = [
    Section::new("quick", &["disks", "mode", "impl"], PIO, |_| {
        disk_sweep(LG, 12, &[1, 4, 16])
    }),
    Section::new("full", &["disks", "mode", "impl"], PIO, |_| {
        disk_sweep(20, 13, &[1, 4, 16, 64])
    }),
    Section::new("fusion", &["workload", "impl"], PIO, fusion),
    Section::new(
        "extsort",
        &["variant", "input", "backend", "mode"],
        PIO,
        extsort,
    ),
    Section::new("service", &["scenario", "job"], PIO, service),
    Section::new("recovery", &["run"], &["parallel_ios", "retries"], recovery),
    Section::new("addr_eval", &["kind", "impl"], PIO, addr_eval),
    Section::new(
        "planner",
        &["workload", "geometry", "timing", "pick"],
        &["parallel_ios", "steps"],
        planner,
    ),
    Section::new(
        "transport",
        &["transport", "mode"],
        &["parallel_ios", "messages", "wire_bytes"],
        transport,
    ),
    Section::new("file", &["backend", "mode"], PIO, file),
];

impl Section {
    const fn new(
        name: &'static str,
        keys: &'static [&'static str],
        counters: &'static [&'static str],
        run: fn(&Ctx) -> Out,
    ) -> Section {
        Section {
            name,
            keys,
            counters,
            run,
        }
    }

    /// The section object: `out`'s fields plus its rows, each of which
    /// must carry every declared key and counter.
    fn emit(&self, out: &Out) -> Json {
        for row in &out.rows {
            for f in self.keys.iter().chain(self.counters) {
                assert!(row.get(f).is_some(), "row lacks {f}: {}", row.line());
            }
        }
        out.fields.clone().set("rows", array(&out.rows)).to_json()
    }

    /// This section's rows in `doc`, each labelled by its key fields.
    fn rows<'a>(&self, doc: &'a Json) -> Vec<(String, &'a Json)> {
        let rows = doc.get(self.name).and_then(|s| s.get("rows"));
        let rows = rows.and_then(Json::as_array).unwrap_or_default();
        let field = |r: &Json, k: &str| match r.get(k) {
            Some(Json::Num(n)) => n.to_string(),
            v => v.and_then(Json::as_str).unwrap_or("?").to_string(),
        };
        rows.iter()
            .map(|r| {
                let label: Vec<String> = self.keys.iter().map(|k| field(r, k)).collect();
                (label.join("/"), r)
            })
            .collect()
    }
}

/// The `--check` gate over every declared section the run produced:
/// each baseline row must be in the run with every gated counter
/// equal, and the baseline must have rows for the section. A row only
/// the run has passes. Returns the passed checks and the failures.
fn check(run: &Json, baseline: &Json) -> (Vec<String>, Vec<String>) {
    let (mut passed, mut failed) = (Vec::new(), Vec::new());
    let show = |v: Option<u64>| v.map_or("nothing".to_string(), |v| v.to_string());
    for s in SECTIONS.iter().filter(|s| run.get(s.name).is_some()) {
        let (base, cur) = (s.rows(baseline), s.rows(run));
        if base.is_empty() {
            failed.push(format!("{}: no rows in the baseline", s.name));
        }
        for (label, b) in &base {
            let Some((_, c)) = cur.iter().find(|(l, _)| l == label) else {
                failed.push(format!("{} {label}: missing from this run", s.name));
                continue;
            };
            for field in s.counters {
                let [was, now] = [b, c].map(|r| r.get(field).and_then(Json::as_u64));
                let check = format!("{} {label}: {field}", s.name);
                if was.is_some() && was == now {
                    passed.push(format!("check {check} {} — ok", show(was)));
                } else {
                    failed.push(format!("{check} changed {} → {}", show(was), show(now)));
                }
            }
        }
    }
    (passed, failed)
}

/// One `--baseline` acceptance floor: a ratio a section measures and
/// records under `name`, and the bound it must meet.
struct Floor {
    section: &'static str,
    name: &'static str,
    bound: f64,
    /// The ratio must stay at or below `bound` instead of reaching it.
    at_most: bool,
}

impl Floor {
    const fn min(section: &'static str, name: &'static str, bound: f64) -> Floor {
        Floor {
            section,
            name,
            bound,
            at_most: false,
        }
    }

    fn describe(&self) -> String {
        let op = if self.at_most { "<=" } else { ">=" };
        format!("{} {} {op} {}", self.section, self.name, self.bound)
    }
}

/// The acceptance floors, in order: served single-job records/s over
/// direct; the fair-share completion spread in % of the mean; recovered
/// records/s over clean; the block-run kernel's and end-to-end rate
/// over per-address; the flat residual table over the byte-sliced
/// fallback at widths 12 and 16; threaded uds records/s over threaded
/// inproc. They hold timings to bounds, which is noisy on small
/// machines, so only `--baseline` enforces them.
const FLOORS: [Floor; 7] = [
    Floor::min("service", "single_ratio", 0.9),
    Floor {
        at_most: true,
        ..Floor::min("service", "fair_spread_pct", 25.0)
    },
    Floor::min("recovery", "recovered_ratio", 0.8),
    Floor::min("addr_eval", "kernel_block_run_over_per_address", 4.0),
    Floor::min("addr_eval", "end_to_end_block_run_over_per_address", 1.2),
    Floor::min("addr_eval", "flat_over_sliced", 1.0),
    Floor::min("transport", "uds_over_inproc_threaded", 0.5),
];

/// The floors `measured` misses. A floor measured nowhere is missed.
fn missed_floors(measured: &[(&str, f64)]) -> Vec<String> {
    let mut missed = Vec::new();
    for f in &FLOORS {
        let values = measured.iter().filter(|(name, _)| *name == f.name);
        let values: Vec<f64> = values.map(|&(_, x)| x).collect();
        if values.is_empty() {
            missed.push(format!("{}: not measured", f.describe()));
        }
        for x in values {
            if (f.at_most && x > f.bound) || (!f.at_most && x < f.bound) {
                missed.push(format!("{}: measured {x:.3}", f.describe()));
            }
        }
    }
    missed
}

/// The document's `acceptance` field, rendered from [`SECTIONS`] and
/// [`FLOORS`].
fn acceptance() -> String {
    let gated = SECTIONS.map(|s| format!("{} {}", s.name, s.counters.join("/")));
    let (gated, floors) = (gated.join(", "), FLOORS.map(|f| f.describe()).join("; "));
    format!("exact under --check: {gated}; floors under --baseline: {floors}")
}

/// An ordered list of named JSON fields: one row of a section (key
/// fields, exact counters, timings) or a section's own fields. Its
/// setters do all of the document's rounding.
#[derive(Clone, Debug, Default)]
struct Row(Vec<(&'static str, Json)>);

impl Row {
    fn set(mut self, name: &'static str, value: Json) -> Self {
        self.0.push((name, value));
        self
    }

    /// A string field, such as a row key.
    fn key(self, name: &'static str, value: impl Display) -> Self {
        self.set(name, Json::Str(value.to_string()))
    }

    /// An exact count.
    fn count(self, name: &'static str, value: impl TryInto<u64>) -> Self {
        let value = value.try_into().ok().expect("counts fit in u64");
        self.set(name, Json::Num(value as f64))
    }

    /// A rate per second, to 0.1.
    fn rate(self, name: &'static str, per_sec: f64) -> Self {
        self.set(name, Json::Num((per_sec * 10.0).round() / 10.0))
    }

    /// Milliseconds or a ratio, to 0.001.
    fn real(self, name: &'static str, x: f64) -> Self {
        self.set(name, Json::Num((x * 1000.0).round() / 1000.0))
    }

    /// `records_per_sec` and `elapsed_ms` for `records` moved in `secs`.
    fn throughput(self, records: usize, secs: f64) -> Self {
        self.rate("records_per_sec", records as f64 / secs)
            .real("elapsed_ms", secs * 1e3)
    }

    fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    fn is(&self, name: &str, value: &str) -> bool {
        self.get(name).and_then(Json::as_str) == Some(value)
    }

    fn to_json(&self) -> Json {
        Json::obj(self.0.clone())
    }

    /// The stderr log line: every scalar field as `name=value`.
    fn line(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Str(s) => Some(format!("{k}={s}")),
                Json::Num(x) => Some(format!("{k}={x}")),
                _ => None,
            })
            .collect();
        fields.join(" ")
    }
}

/// Rows as a JSON array.
fn array(rows: &[Row]) -> Json {
    Json::Arr(rows.iter().map(Row::to_json).collect())
}

/// What the runners take from the command line.
struct Ctx {
    baseline: bool,
    file_dir: PathBuf,
}

/// What a section runner returns: its rows, the section's own fields,
/// and the [`FLOORS`] ratios it measured.
#[derive(Default)]
struct Out {
    rows: Vec<Row>,
    fields: Row,
    floors: Vec<(&'static str, f64)>,
}

/// Runs `run` `reps` times (at least once). Every rep must count
/// exactly what the first counted; returns that count and the best
/// time of each of the rep's timed parts.
fn best_of<T: PartialEq + Debug, const K: usize>(
    reps: usize,
    mut run: impl FnMut() -> (T, [f64; K]),
) -> (T, [f64; K]) {
    let (first, mut best) = run();
    for _ in 1..reps {
        let (again, secs) = run();
        assert_eq!(again, first, "the counted outcome changed between reps");
        for (b, s) in best.iter_mut().zip(secs) {
            *b = b.min(s);
        }
    }
    (first, best)
}

/// Runs `f` once, timing it in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, [f64; 1]) {
    let t0 = Instant::now();
    let out = f();
    (out, [t0.elapsed().as_secs_f64()])
}

fn geometry(lg_n: usize, lg_b: usize, lg_d: usize, lg_m: usize) -> Geometry {
    Geometry::new(1 << lg_n, 1 << lg_b, 1 << lg_d, 1 << lg_m).expect("bench geometry")
}

/// The geometry of the transport, file, recovery and extsort sections.
fn bench_geometry() -> Geometry {
    geometry(LG, 3, 4, 12)
}

/// Identity-tagged records `0..N`.
fn identity(geom: &Geometry) -> Vec<u64> {
    (0..geom.records() as u64).collect()
}

fn pass_of(perm: &Bmmc, kind: PassKind) -> Pass {
    Pass {
        matrix: perm.matrix().clone(),
        complement: perm.complement().clone(),
        kind,
    }
}

/// The two service disciplines every timed configuration runs under.
const MODES: [(&str, ServiceMode); 2] = [
    ("serial", ServiceMode::Serial),
    ("threaded", ServiceMode::Threaded),
];

/// One way to serve an engine-pass section's disks: the row key fields
/// naming it, and the backend and transport its systems use.
struct Variant {
    keys: Row,
    backend: Backend,
    transport: TransportConfig,
}

/// The runner of the disk sweep, `file` and `transport`: one seeded
/// one-pass MLD permutation timed through [`execute_pass`] on every
/// variant × service mode (a file backend's directory is removed after
/// each mode).
///
/// A warm-up run per configuration checks the placement against
/// [`reference_permute`], and the timed reps must count what it
/// counted. Every row must charge the same parallel I/Os. In-process
/// rows move no messages; every wire transport moves the same message
/// and byte counts, since all speak `pdm::proto`. Returns the rows and
/// each variant's `threaded_over_serial`, with the number of service
/// threads its in-process threaded system ran on.
fn engine_pass(geom: Geometry, seed: u64, variants: &[Variant]) -> (Vec<Row>, Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let perm = catalog::random_mld(&mut rng, geom.n(), geom.b(), geom.m());
    let pass = pass_of(&perm, PassKind::Mld);
    let input = identity(&geom);
    let expect = reference_permute(&input, |x| perm.target(x));
    let run = |sys: &mut DiskSystem<u64>| {
        let before = sys.message_stats();
        let stats = execute_pass(sys, 0, 1, &pass).expect("engine pass");
        (stats.ios.parallel_ios(), sys.message_stats().since(&before))
    };
    let (mut rows, mut speedups, mut ios, mut wire) = (Vec::new(), Vec::new(), None, None);
    for v in variants {
        let mut rates = [0.0; 2];
        for (i, (mode, service)) in MODES.into_iter().enumerate() {
            let label = format!("{} mode={mode}", v.keys.line());
            let mut sys = DiskSystem::new_with_transport(geom, 2, &v.backend, &v.transport)
                .expect("engine-pass system");
            sys.set_service_mode(service);
            sys.load_records(0, &input);
            let warm @ (pios, msgs) = run(&mut sys);
            assert_eq!(sys.dump_records(1), expect, "{label}: wrong placement");
            let (again, [secs]) = best_of(REPS, || timed(|| run(&mut sys)));
            assert_eq!(again, warm, "{label}: the reps counted differently");
            drop(sys);
            if let Backend::File { dir } = &v.backend {
                std::fs::remove_dir_all(dir).ok();
            }
            assert_eq!(*ios.get_or_insert(pios), pios, "{label}: parallel I/Os");
            let wired = !matches!(v.transport, TransportConfig::InProc);
            assert_eq!(msgs.is_zero(), !wired, "{label}: moved {msgs}");
            if wired {
                assert_eq!(*wire.get_or_insert(msgs), msgs, "{label}: wire counts");
            }
            rates[i] = geom.records() as f64 / secs;
            rows.push(
                (v.keys.clone().key("mode", mode))
                    .count("parallel_ios", pios)
                    .count("passes", 1)
                    .count("messages", msgs.messages())
                    .count("wire_bytes", msgs.bytes())
                    .throughput(geom.records(), secs),
            );
        }
        let mut speedup = v
            .keys
            .clone()
            .real("threaded_over_serial", rates[1] / rates[0]);
        if matches!(v.transport, TransportConfig::InProc) {
            speedup = speedup.count("service_threads", service_threads(geom.disks()));
        }
        speedups.push(speedup);
    }
    (rows, speedups)
}

/// The disk sweep at `N = 2^lg_records`, `B = 2^3`, `M = 2^lg_memory`.
fn disk_sweep(lg_records: usize, lg_memory: usize, disks: &[usize]) -> Out {
    let mut out = Out::default();
    let mut speedups = Vec::new();
    for &d in disks {
        let geom =
            Geometry::new(1 << lg_records, 1 << 3, d, 1 << lg_memory).expect("sweep geometry");
        let engine = Variant {
            keys: Row::default().count("disks", d).key("impl", "engine"),
            backend: Backend::Mem,
            transport: TransportConfig::InProc,
        };
        let (rows, sp) = engine_pass(geom, 0xB44C + d as u64, &[engine]);
        out.rows.extend(rows);
        speedups.extend(sp);
    }
    let geometry = (Row::default().count("lg_records", lg_records))
        .count("lg_block", 3)
        .count("lg_memory", lg_memory);
    out.fields = (Row::default().set("geometry", geometry.to_json()))
        .count("reps", REPS)
        .set("speedups", array(&speedups));
    out
}

/// An engine-pass section at the bench geometry: rows, plus the
/// section fields `geometry`, `reps` and `speedups`.
fn bench_engine_pass(seed: u64, variants: &[Variant]) -> Out {
    let geom = bench_geometry();
    let (rows, speedups) = engine_pass(geom, seed, variants);
    let fields = (Row::default().count("lg_records", geom.n()))
        .count("lg_block", geom.b())
        .count("lg_disks", geom.d())
        .count("lg_memory", geom.m());
    let fields = (Row::default().set("geometry", fields.to_json()))
        .count("reps", REPS)
        .set("speedups", array(&speedups));
    Out {
        rows,
        fields,
        floors: Vec::new(),
    }
}

fn file(ctx: &Ctx) -> Out {
    let dir = ctx.file_dir.join("file");
    let variants = [("mem", Backend::Mem), ("file", Backend::File { dir })];
    let variants = variants.map(|(name, backend)| Variant {
        keys: Row::default().key("backend", name),
        backend,
        transport: TransportConfig::InProc,
    });
    bench_engine_pass(0xF11E + LG as u64, &variants)
}

fn transport(_: &Ctx) -> Out {
    let have_diskd = pdm::transport::find_diskd().is_some();
    if !have_diskd {
        eprintln!("   WARNING: no pdm-diskd binary, so no uds rows: --check fails");
    }
    let variants: Vec<Variant> = [
        ("inproc", TransportConfig::InProc),
        ("uds", TransportConfig::Uds(Default::default())),
        ("sim", TransportConfig::SimNet(Default::default())),
    ]
    .into_iter()
    .filter(|(name, _)| have_diskd || *name != "uds")
    .map(|(name, transport)| Variant {
        keys: Row::default().key("transport", name),
        backend: Backend::Mem,
        transport,
    })
    .collect();
    let mut out = bench_engine_pass(0x7BA7 + LG as u64, &variants);
    let threaded = |t: &str| {
        let mut rows = out.rows.iter();
        let row = rows.find(|r| r.is("transport", t) && r.is("mode", "threaded"));
        row?.get("records_per_sec")?.as_f64()
    };
    if let (Some(uds), Some(inproc)) = (threaded("uds"), threaded("inproc")) {
        out.fields = out.fields.real("uds_over_inproc_threaded", uds / inproc);
        out.floors.push(("uds_over_inproc_threaded", uds / inproc));
    }
    out
}

/// Multi-pass plans run threaded, unfused and fused (`Plan::execute`):
/// identical placement, strictly fewer parallel I/Os fused, one pass
/// per fused step, and exactly half on the fully fusable chains.
fn fusion(_: &Ctx) -> Out {
    // The BPC baseline plan for bit reversal with a narrow middle
    // section (m − b = 3), so the exchange takes several chunks: 2k+1
    // planned passes fuse to k+1 steps.
    let bpc_geom = geometry(LG, 6, 2, 9);
    let reversal = catalog::bit_reversal(bpc_geom.n());
    let bpc = bpc_baseline_plan(&reversal, bpc_geom.b(), bpc_geom.m());
    let bpc = bpc.expect("bit reversal is BPC").passes;
    assert!(bpc.len() >= 5, "want a multi-chunk baseline plan");
    // An alternating MRC/MLD chain: every pair fuses by the discipline
    // rule.
    let geom = geometry(LG, 3, 2, 12);
    let (n, b, m) = (geom.n(), geom.b(), geom.m());
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let (mut chain, mut composed) = (Vec::new(), Bmmc::identity(n));
    for _ in 0..3 {
        let mrc = catalog::random_mrc(&mut rng, n, m);
        let mld = catalog::random_mld(&mut rng, n, b, m);
        chain.extend([pass_of(&mrc, PassKind::Mrc), pass_of(&mld, PassKind::Mld)]);
        composed = mld.compose(&mrc.compose(&composed));
    }
    // The Section 7 MLD⁻¹;MLD pair: gathered reads, scattered writes,
    // one round trip instead of two.
    let mut rng = StdRng::seed_from_u64(0xF19A);
    let z = catalog::random_mld(&mut rng, n, b, m);
    let y = catalog::random_mld(&mut rng, n, b, m);
    let inverse = pass_of(&z.inverse(), PassKind::MldInverse);
    let pair = vec![inverse, pass_of(&y, PassKind::Mld)];
    let cases = [
        ("bpc-baseline", bpc_geom, bpc, reversal, false),
        ("alternating-chain", geom, chain, composed, true),
        ("mld-pair", geom, pair, y.compose(&z.inverse()), true),
    ];
    let mut out = Out::default();
    for (w, geom, passes, perm, fully_fusable) in cases {
        let plan = Plan::from_passes(&passes, geom.b(), geom.m());
        let input = identity(&geom);
        let expect = reference_permute(&input, |x| perm.target(x));
        let mut ios = [0u64; 2];
        for (i, name) in ["unfused", "fused"].into_iter().enumerate() {
            let mut sys = DiskSystem::new_mem(geom, 2);
            sys.set_service_mode(ServiceMode::Threaded);
            sys.load_records(0, &input);
            let run = |sys: &mut DiskSystem<u64>| {
                let r = match i {
                    0 => execute_passes_unfused(sys, &passes),
                    _ => plan.execute(sys, &perm, |&r| r),
                };
                let r = r.expect("fusion run");
                (r.total.parallel_ios(), r.num_passes(), r.final_portion)
            };
            let (warm, label) = (run(&mut sys), format!("{w} {name}"));
            assert_eq!(sys.dump_records(warm.2), expect, "{label}: wrong placement");
            let (again, [secs]) = best_of(REPS, || timed(|| run(&mut sys)));
            assert_eq!(again, warm, "{label}: the reps counted differently");
            ios[i] = warm.0;
            out.rows.push(
                (Row::default().key("workload", w).key("impl", name))
                    .count("planned_passes", passes.len())
                    .count("executed_passes", warm.1)
                    .count("parallel_ios", warm.0)
                    .throughput(geom.records(), secs),
            );
        }
        let [unfused, fused] = ios;
        assert!(fused < unfused, "{w}: fused {fused} vs unfused {unfused}");
        let per_step = (plan.num_steps() * geom.ios_per_pass()) as u64;
        assert_eq!(fused, per_step, "{w}: fused cost must be one pass per step");
        assert!(!fully_fusable || 2 * fused == unfused, "{w}: must halve");
    }
    out.fields = (Row::default().key("mode", "threaded")).count("lg_records", LG);
    out
}

/// The wrapping sum of the targets of addresses `0 .. blocks << width`,
/// block-hoisted: one `block_base` per block plus one residual per
/// record, from the flat table or, without one, the byte-sliced
/// fallback.
fn hoisted_sum(bev: &BlockEvaluator, width: u32, blocks: u64) -> u64 {
    let mut acc = 0u64;
    if let Some(table) = bev.residual_table() {
        for blk in 0..blocks {
            let base = bev.block_base(blk);
            for &r in table {
                acc = acc.wrapping_add(base ^ r);
            }
        }
    } else {
        for blk in 0..blocks {
            let base = bev.block_base(blk);
            for off in 0..1u64 << width {
                acc = acc.wrapping_add(base ^ bev.residual(off));
            }
        }
    }
    acc
}

/// Times two address kernels, which must agree on their target
/// checksum, and pushes an `addresses_per_sec` row for each. Returns
/// both rates.
fn kernel_pair(out: &mut Out, kind: &str, kernels: [(String, &dyn Fn() -> u64); 2]) -> [f64; 2] {
    let (mut sums, mut rates) = ([0u64; 2], [0.0; 2]);
    for (i, (name, kernel)) in kernels.into_iter().enumerate() {
        let (sum, [secs]) = best_of(REPS, || timed(|| std::hint::black_box(kernel())));
        (sums[i], rates[i]) = (sum, (1u64 << 22) as f64 / secs);
        out.rows.push(
            (Row::default().key("kind", kind).key("impl", name))
                .rate("addresses_per_sec", rates[i])
                .real("elapsed_ms", secs * 1e3)
                .count("parallel_ios", 0),
        );
    }
    assert_eq!(sums[0], sums[1], "{kind}: the kernels' checksums disagree");
    rates
}

/// Per-address against block-hoisted target computation for bit
/// reversal: as raw kernels over 2^22 sequential addresses at the
/// bpc-baseline geometry, as the residual-table cap sweep, and end to
/// end (the fused bpc-baseline plan on threaded MemDisk, run with each
/// [`EvalStrategy`]).
fn addr_eval(_: &Ctx) -> Out {
    let geom = geometry(LG, 6, 2, 9);
    let (b, records) = (geom.b(), geom.records() as u64);
    let perm = catalog::bit_reversal(geom.n());
    let rounds = (1 << 22) / records;
    let aff = AffineEvaluator::new(&perm);
    let bev = BlockEvaluator::new(&perm, b as u32);
    assert!(bev.residual_table().is_some(), "b = 6 is within the cap");
    let per_address = || {
        let mut acc = 0u64;
        for _ in 0..rounds {
            for x in 0..records {
                acc = acc.wrapping_add(aff.eval(x));
            }
        }
        acc
    };
    let block_run = || {
        let round = |acc: u64, _| acc.wrapping_add(hoisted_sum(&bev, b as u32, records >> b));
        (0..rounds).fold(0, round)
    };
    let mut out = Out::default();
    let kernels: [(String, &dyn Fn() -> u64); 2] = [
        ("per_address".into(), &per_address),
        ("block_run".into(), &block_run),
    ];
    let [per, block] = kernel_pair(&mut out, "kernel", kernels);
    // The flat residual table against the byte-sliced fallback per
    // block width. At one byte and below both are a single lookup and
    // the comparison is noise; past that the fallback pays an extra
    // lookup per record and the flat table must win.
    let wide = catalog::bit_reversal(22);
    let mut cap = Vec::new();
    for width in [6u32, 12, 16] {
        let flat = BlockEvaluator::new(&wide, width);
        assert!(flat.residual_table().is_some(), "cap below {width} bits");
        let sliced = BlockEvaluator::with_table_cap(&wide, width, 0);
        let blocks = (1u64 << 22) >> width;
        let flat_sum = || hoisted_sum(&flat, width, blocks);
        let sliced_sum = || hoisted_sum(&sliced, width, blocks);
        let kernels: [(String, &dyn Fn() -> u64); 2] = [
            (format!("b{width}-flat"), &flat_sum),
            (format!("b{width}-sliced"), &sliced_sum),
        ];
        let [f, s] = kernel_pair(&mut out, "cap_sweep", kernels);
        if width > 8 {
            out.floors.push(("flat_over_sliced", f / s));
        }
        let ratio = Row::default().count("width", width);
        cap.push(ratio.real("flat_over_sliced", f / s));
    }
    // End to end: `Plan::execute`'s BMMC-route loop with each strategy.
    let passes = bpc_baseline_plan(&perm, b, geom.m()).expect("bit reversal is BPC");
    let plan = fuse_passes(&passes.passes, b, geom.m());
    let input = identity(&geom);
    let expect = reference_permute(&input, |x| perm.target(x));
    let mut rates = [0.0; 2];
    for (i, strategy) in [EvalStrategy::PerAddress, EvalStrategy::BlockRun]
        .into_iter()
        .enumerate()
    {
        let name = ["per_address", "block_run"][i];
        let mut sys = DiskSystem::new_mem(geom, 2);
        sys.set_service_mode(ServiceMode::Threaded);
        sys.load_records(0, &input);
        let run = |sys: &mut DiskSystem<u64>| {
            let (before, mut engine, mut src) = (sys.stats(), PassEngine::new(geom), 0);
            for step in &plan.steps {
                execute_fused_with_strategy(&mut engine, sys, src, 1 - src, step, strategy)
                    .expect("bpc-baseline run");
                src = 1 - src;
            }
            (sys.stats().since(&before).parallel_ios(), src)
        };
        let warm = run(&mut sys);
        assert_eq!(sys.dump_records(warm.1), expect, "{name}: wrong placement");
        let (again, [secs]) = best_of(REPS, || timed(|| run(&mut sys)));
        assert_eq!(again, warm, "{name}: the reps counted differently");
        rates[i] = records as f64 / secs;
        out.rows.push(
            (Row::default().key("kind", "end_to_end").key("impl", name))
                .count("executed_passes", plan.num_steps())
                .count("parallel_ios", warm.0)
                .throughput(geom.records(), secs),
        );
    }
    let ratios = [
        ("kernel_block_run_over_per_address", block / per),
        ("end_to_end_block_run_over_per_address", rates[1] / rates[0]),
    ];
    out.floors.extend(ratios);
    out.fields = (Row::default().key("geometry", geom_label(&geom)))
        .count("kernel_addresses", 1 << 22)
        .set("cap_sweep_flat_over_sliced", array(&cap))
        .real(ratios[0].0, ratios[0].1)
        .real(ratios[1].0, ratios[1].1);
    out
}

/// The `--algorithm auto` crossover table. For each named workload ×
/// geometry × timing model, `candidates` enumerates every executable
/// plan (the DP-fused BMMC route and the sort route per merge strategy)
/// and `choose` picks the cheapest by modeled time, exact parallel I/Os
/// breaking ties. Purely analytic, so every row is deterministic.
fn planner(_: &Ctx) -> Out {
    let geoms = [
        ("fig2", geometry(13, 3, 4, 8)),
        ("bench", geometry(18, 3, 4, 12)),
        ("narrow", geometry(9, 2, 1, 6)),
        ("tiny-mem", geometry(13, 3, 2, 5)),
    ];
    let timings = [("hdd", TimingModel::hdd()), ("ssd", TimingModel::ssd())];
    let mut out = Out::default();
    let mut push = |w: &str, g: &(&str, Geometry), t: &(&str, TimingModel), pick, plan: &Plan| {
        out.rows.push(
            (Row::default().key("workload", w).key("geometry", g.0))
                .key("timing", t.0)
                .key("pick", pick)
                .count("steps", plan.num_steps())
                .count("parallel_ios", plan.parallel_ios(&g.1))
                .real("modeled_ms", plan.modeled_ms(&g.1, &t.1)),
        )
    };
    for (gi, named @ (_, g)) in geoms.iter().enumerate() {
        let n = g.n();
        let mut rng = StdRng::seed_from_u64(0x10AD + gi as u64);
        let random = catalog::random_bmmc(&mut rng, n);
        let worst = catalog::random_worst_rank(&mut rng, n, g.m());
        let sorts = MergeStrategy::ALL.map(|s| Plan::sort(g, s));
        let workloads = [
            ("transpose", candidates(&catalog::transpose(n, n / 2), g)),
            ("bit-reversal", candidates(&catalog::bit_reversal(n), g)),
            ("random", candidates(&random, g)),
            ("worst-rank", candidates(&worst, g)),
            // A general permutation with no BMMC structure: only the
            // merge strategies compete. At tiny-mem (M = BD) no merge
            // fits, so the sort route vanishes exactly where BMMC
            // factoring is costliest.
            ("shuffle", sorts.into_iter().flatten().collect()),
        ];
        for (workload, plans) in &workloads {
            for t in &timings {
                let Some(pick) = choose(plans, g, &t.1) else {
                    assert_eq!(*workload, "shuffle", "the BMMC route always applies");
                    continue;
                };
                push(workload, named, t, pick.candidate.name(), pick);
            }
        }
    }
    // The committed re-association chain: greedy pair fusion closes its
    // first group after p1, but the whole product telescopes into MLD⁻¹,
    // which the DP's full-gather split runs in one round trip.
    let g = &geoms[0].1;
    let passes = reassociation_case(g.n(), g.b(), g.m());
    let greedy: Plan = fuse_passes_greedy(&passes, g.b(), g.m()).into();
    let dp = Plan::from_passes(&passes, g.b(), g.m());
    assert!(
        dp.num_steps() < greedy.num_steps() && dp.parallel_ios(g) < greedy.parallel_ios(g),
        "the DP fuser must beat greedy on the committed re-association chain"
    );
    for t in &timings {
        push("reassoc", &geoms[0], t, "greedy", &greedy);
        push("reassoc", &geoms[0], t, "dp", &dp);
    }
    let models = timings.map(|(t, _)| Json::Str(t.into()));
    out.fields = Row::default().set("timing_models", Json::Arr(models.into()));
    out
}

/// Submits `spec`, waits for it, and checks that it finished and was
/// charged exactly its own counters. Returns its id and parallel I/Os.
fn serve(core: &Arc<ServiceCore>, spec: JobSpec) -> (u64, u64) {
    let id = core.submit(spec, None).expect("submit");
    let status = core.wait(id).expect("known id");
    assert_eq!(status.state, JobState::Done, "job {id}");
    let report = status.report.expect("a done job has a report");
    assert_eq!(status.usage.io, report.io, "job {id}: ledger ≠ counters");
    (id, status.usage.io.parallel_ios())
}

/// The multi-tenant job service in process:
///
/// * `single` — one seeded BMMC job on a private system and through the
///   service, in interleaved pairs so a drifting machine hits both
///   alike; the governor may not change the charge.
/// * `fair` — K = 4 identical jobs submitted at once by four threads:
///   equal charges, and the completion spread of deficit round robin.
/// * `load` — jobs on a fixed arrival clock regardless of completions:
///   throughput and p50/p95/p99 latency.
fn service(ctx: &Ctx) -> Out {
    let geom = geometry(14, 3, 3, 10);
    let config = ServiceConfig {
        block: geom.block(),
        disks: geom.disks(),
        slots: 1 << 12,
        quantum: geom.blocks_per_memoryload() as u64,
        max_queue: 64,
        max_running: 8,
        ..ServiceConfig::default()
    };
    let spec = JobSpec::new(JobKind::Bmmc, geom.records(), geom.memory(), 0xFA1);
    let mut out = Out::default();
    // The baseline run takes extra reps because it holds the ratio to a
    // floor.
    let reps = if ctx.baseline { 7 } else { 3 };
    let ((direct_ios, served_ios), [direct, served]) = best_of(reps, || {
        let mut sys = DiskSystem::new_mem(geom, 2);
        sys.set_threaded(true);
        let (report, [d]) = timed(|| run_job(&mut sys, &spec).expect("direct job"));
        let core = ServiceCore::new(config);
        let ((_, ios), [s]) = timed(|| serve(&core, spec));
        core.shutdown();
        ((report.io.parallel_ios(), ios), [d, s])
    });
    assert_eq!(direct_ios, served_ios, "the governor changed the charge");
    for (job, secs) in [("direct", direct), ("served", served)] {
        out.rows.push(
            (Row::default().key("scenario", "single").key("job", job))
                .count("parallel_ios", direct_ios)
                .throughput(geom.records(), secs),
        );
    }
    const K: usize = 4;
    let (core, barrier) = (ServiceCore::new(config), Barrier::new(K));
    let mut fair: Vec<_> = std::thread::scope(|s| {
        let tenant = || {
            barrier.wait();
            timed(|| serve(&core, spec))
        };
        join_all((0..K).map(|_| s.spawn(tenant)).collect())
    });
    core.shutdown();
    fair.sort_by_key(|((id, _), _)| *id);
    let (mut lo, mut hi, mut sum) = (f64::MAX, f64::MIN, 0.0);
    for ((id, ios), [secs]) in &fair {
        assert_eq!(*ios, fair[0].0 .1, "tenants charged unequally");
        (lo, hi, sum) = (lo.min(*secs), hi.max(*secs), sum + secs);
        let job = format!("tenant-{id}");
        out.rows.push(
            (Row::default().key("scenario", "fair").key("job", job))
                .count("parallel_ios", *ios)
                .real("elapsed_ms", secs * 1e3),
        );
    }
    let spread_pct = 100.0 * (hi - lo) / (sum / K as f64);
    const JOBS: usize = 24;
    // The same work per job: arrivals, not content, vary.
    let small = JobSpec::new(JobKind::Bmmc, 1 << 12, 1 << 8, 0xBEEF);
    let (core, t0) = (ServiceCore::new(config), Instant::now());
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..JOBS)
            .map(|_| {
                let (id, submitted) = (core.submit(small, None).expect("submit"), Instant::now());
                let core = &core;
                let waiter = s.spawn(move || {
                    let status = core.wait(id).expect("known id");
                    assert_eq!(status.state, JobState::Done, "load job {id}");
                    submitted.elapsed().as_secs_f64()
                });
                // Open loop: the clock, not the completions, paces arrivals.
                std::thread::sleep(Duration::from_millis(2));
                waiter
            })
            .collect();
        join_all(waiters)
    });
    let total = t0.elapsed().as_secs_f64();
    core.shutdown();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[(p * (JOBS - 1) as f64).round() as usize] * 1e3;
    let load = (Row::default().count("jobs", JOBS))
        .real("arrival_interval_ms", 2.0)
        .rate("throughput_jobs_per_sec", JOBS as f64 / total)
        .real("p50_ms", pct(0.50))
        .real("p95_ms", pct(0.95))
        .real("p99_ms", pct(0.99));
    let ratio = direct / served;
    out.floors = vec![("single_ratio", ratio), ("fair_spread_pct", spread_pct)];
    out.fields = (Row::default().key("geometry", geom_label(&geom)))
        .count("quantum_blocks", config.quantum)
        .real("single_ratio", ratio)
        .real("fair_spread_pct", spread_pct)
        .set("load", load.to_json());
    out
}

/// One seeded BMMC permutation run clean and under a fault plan failing
/// ~1% of operations transiently, with a fault-tolerant retry policy.
/// Recovery must not show in the model: identical placement and
/// charged parallel I/Os (a retried operation is charged once), exactly
/// one retry per fired fault, and no buffer left outstanding.
fn recovery(_: &Ctx) -> Out {
    let geom = bench_geometry();
    let perm = catalog::random_bmmc(&mut StdRng::seed_from_u64(0xFA01), geom.n());
    let input = identity(&geom);
    let run = |plan: FaultPlan| {
        let mut sys = DiskSystem::new_mem(geom, 2);
        sys.set_service_mode(ServiceMode::Threaded);
        sys.set_retry_policy(RetryPolicy::fault_tolerant());
        sys.set_faults(plan);
        sys.load_records(0, &input);
        let (report, secs) = timed(|| perform_bmmc(&mut sys, &perm).expect("recovery run"));
        assert_eq!(sys.buffer_pool_stats().outstanding, 0, "buffers stranded");
        let records = sys.dump_records(report.final_portion);
        ((records, sys.stats(), sys.retry_stats()), secs)
    };
    // One fault per 100 operations of the clean run, whose operation
    // count is deterministic.
    let faults = |ops: u64| {
        let faults = (0..ops).step_by(100).enumerate();
        faults.fold(FaultPlan::new(), |plan, (i, op)| {
            plan.fail_transient_at(op, i % geom.disks())
        })
    };
    let ((clean, recovered), secs) = best_of(3, || {
        let (clean, [c]) = run(FaultPlan::new());
        let (recovered, [r]) = run(faults(clean.1.parallel_ios()));
        ((clean, recovered), [c, r])
    });
    let (retry, ops) = (recovered.2, clean.1.parallel_ios());
    assert!(clean.2.is_clean(), "the clean run has a dirty ledger");
    assert!(recovered.0 == clean.0, "recovered placement diverged");
    assert_eq!(recovered.1, clean.1, "recovery changed the charge");
    assert!(retry.transient_faults >= 1, "no fault ever fired");
    assert_eq!(retry.retries, retry.transient_faults, "retries ≠ faults");
    let mut out = Out::default();
    for (i, name) in ["clean", "recovered"].into_iter().enumerate() {
        out.rows.push(
            (Row::default().key("run", name).count("parallel_ios", ops))
                .count("retries", [0, retry.retries][i])
                .throughput(geom.records(), secs[i]),
        );
    }
    let ratio = secs[0] / secs[1];
    out.floors.push(("recovered_ratio", ratio));
    out.fields = (Row::default().key("geometry", geom_label(&geom)))
        .count("injected_faults", faults(ops).len())
        .count("fired_faults", retry.transient_faults)
        .real("recovered_ratio", ratio);
    out
}

/// Every [`MergeStrategy`] across service modes and mem/file backends
/// on a shuffled permutation (best of 3), then once on each adversarial
/// key catalog (`extsort::keys`) in serial on mem. Every row must sort
/// exactly, with the passes and parallel I/Os of the schedule replay
/// ([`merge_sort_passes`], [`merge_sort_ios`]). Records each strategy's
/// `threaded_over_serial` per backend on the permutation, with the
/// number of service threads the threaded system ran on.
fn extsort(ctx: &Ctx) -> Out {
    let geom = bench_geometry();
    let records = geom.records();
    let mut perm = identity(&geom);
    perm.shuffle(&mut StdRng::seed_from_u64(0x50C7));
    let dup = keys::duplicate_heavy(0xD0B1, records, 4);
    let skew = keys::skewed(0x53E9, records, records as u64 * 4);
    let mut cases = Vec::new();
    for backend in ["mem", "file"] {
        for (mode, service) in MODES {
            cases.push(("perm", &perm, backend, mode, service, 3));
        }
    }
    for (name, data) in [("dup", &dup), ("skew", &skew)] {
        cases.push((name, data, "mem", "serial", ServiceMode::Serial, 1));
    }
    let mut out = Out::default();
    let mut serial_secs = Vec::new();
    let mut speedups = Vec::new();
    let replay = |s| (merge_sort_passes(&geom, s), merge_sort_ios(&geom, s));
    for (input, data, backend, mode, service, reps) in cases {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for merge in MergeStrategy::ALL {
            let variant = merge.as_str();
            let label = format!("{variant}/{input}/{backend}/{mode}");
            let dir = format!("extsort-{backend}-{mode}-{variant}");
            let dir = ctx.file_dir.join(dir);
            let backend_of = || match backend {
                "file" => Backend::File { dir: dir.clone() },
                _ => Backend::Mem,
            };
            let ((passes, fan_in, ios), [secs]) = best_of(reps, || {
                let sys = DiskSystem::new_with_backend(geom, 2, &backend_of());
                let mut sys = sys.expect("extsort system");
                sys.set_service_mode(service);
                sys.load_records(0, data);
                let config = SortConfig { merge };
                let (report, secs) = timed(|| sort_by_key_with(&mut sys, |&r| r, config));
                let report = report.expect("sort");
                let got = sys.dump_records(report.final_portion);
                assert!(got == sorted, "{label}: missorted");
                let counts = (report.passes, report.fan_in, report.total.parallel_ios());
                (counts, secs)
            });
            std::fs::remove_dir_all(&dir).ok();
            let counted = (Some(passes), Some(ios));
            assert_eq!(counted, replay(merge), "{label} vs the schedule replay");
            if input == "perm" {
                let run = (variant, backend);
                match service {
                    ServiceMode::Serial => serial_secs.push((run, secs)),
                    ServiceMode::Threaded => {
                        let &(_, serial) = (serial_secs.iter().find(|(r, _)| *r == run))
                            .expect("the serial row comes first");
                        speedups.push(
                            (Row::default().key("variant", variant))
                                .key("backend", backend)
                                .real("threaded_over_serial", serial / secs)
                                .count("service_threads", service_threads(geom.disks())),
                        );
                    }
                }
            }
            out.rows.push(
                (Row::default().key("variant", variant).key("input", input))
                    .key("backend", backend)
                    .key("mode", mode)
                    .count("fan_in", fan_in)
                    .count("passes", passes)
                    .count("parallel_ios", ios)
                    .throughput(records, secs),
            );
        }
    }
    // Forecasting closes the D× fan-in gap at this geometry
    // (M/B − D − 1 ≥ 8·(M/BD − 1)) in strictly fewer passes.
    let (single, forecast) = (MergeStrategy::SingleBuffered, MergeStrategy::Forecast);
    let fan_in = |s: MergeStrategy| s.fan_in(&geom);
    assert!(fan_in(forecast) >= 8 * fan_in(single), "forecast fan-in");
    assert!(replay(forecast).0 < replay(single).0, "forecast passes");
    out.fields = (Row::default().count("lg_records", LG)).set("speedups", array(&speedups));
    out
}

/// Joins scoped threads, passing on a panic from any of them.
fn join_all<T>(threads: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    threads
        .into_iter()
        .map(|t| t.join().expect("worker thread"))
        .collect()
}

/// Prints `msg` and exits with status 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| Some(args.get(args.iter().position(|a| a == flag)? + 1)?.clone());
    let (baseline, quick) = (has("--baseline"), has("--quick") && !has("--baseline"));
    // Removed on exit; the default home of the file-backed systems.
    let scratch = pdm::TempDir::new("engine-sweep-file");
    let file_dir = value_of("--file-dir").map_or(scratch.path().to_path_buf(), PathBuf::from);
    let ctx = Ctx { baseline, file_dir };

    // The processors the threaded rows shared with the caller.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut doc = (Row::default().key("bench", "engine_sweep"))
        .count("version", 10)
        .count("nproc", nproc)
        .key("acceptance", acceptance());
    let mut floors = Vec::new();
    for s in &SECTIONS {
        if (s.name == "quick" && !quick && !baseline) || (s.name == "full" && quick) {
            continue;
        }
        eprintln!("== {}", s.name);
        let out = (s.run)(&ctx);
        for row in out.rows.iter().chain([&out.fields]) {
            eprintln!("   {}", row.line());
        }
        floors.extend(out.floors.iter().copied());
        doc = doc.set(s.name, s.emit(&out));
    }
    let doc = doc.to_json();
    let missed = missed_floors(&floors);
    if baseline && !missed.is_empty() {
        fail(&format!("acceptance floors missed:\n{}", missed.join("\n")));
    }
    match value_of("--out") {
        Some(path) => std::fs::write(&path, doc.to_pretty()).expect("write --out file"),
        None => print!("{}", doc.to_pretty()),
    }

    // --check-latest follows the per-PR trajectory without CI edits.
    let latest =
        || latest_bench_baseline(Path::new(".")).unwrap_or_else(|| fail("no BENCH_PR*.json"));
    let Some(path) = value_of("--check").or_else(|| has("--check-latest").then(latest)) else {
        return;
    };
    eprintln!("bench-smoke gate: checking against {path}");
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
    let baseline = text
        .and_then(|t| Json::parse(&t))
        .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    // Every gated value is a deterministic count, so a failure is real
    // drift, never timing noise: there is nothing to retry.
    let (passed, failed) = check(&doc, &baseline);
    for line in &passed {
        eprintln!("{line}");
    }
    if !failed.is_empty() {
        fail(&format!("bench-smoke gate: FAIL\n{}", failed.join("\n")));
    }
    eprintln!("bench-smoke gate: PASS ({} counters)", passed.len());
}

/// The newest committed bench baseline: the `BENCH_PR<k>.json` in `dir`
/// with the highest number `k`.
fn latest_bench_baseline(dir: &Path) -> Option<String> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A document with one `transport` row per `(transport, parallel
    /// I/Os, messages)`.
    fn transport_doc(rows: &[(&str, u64, u64)]) -> Json {
        let rows: Vec<Row> = (rows.iter())
            .map(|&(t, ios, msgs)| {
                (Row::default().key("transport", t).key("mode", "serial"))
                    .count("parallel_ios", ios)
                    .count("messages", msgs)
                    .count("wire_bytes", 49 * msgs)
                    .rate("records_per_sec", 1.5e7)
            })
            .collect();
        let section = Row::default().set("rows", array(&rows));
        Row::default().set("transport", section.to_json()).to_json()
    }

    #[test]
    fn equal_documents_pass_every_gated_counter() {
        let doc = transport_doc(&[("inproc", 4096, 0), ("sim", 4096, 131072)]);
        let (passed, failed) = check(&doc, &doc);
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(passed.len(), 6, "three counters per transport row");
        assert!(passed.contains(&"check transport sim/serial: wire_bytes 6422528 — ok".into()));
    }

    #[test]
    fn a_changed_counter_fails_naming_section_key_and_field() {
        let baseline = transport_doc(&[("inproc", 4096, 0), ("sim", 4096, 131072)]);
        let run = transport_doc(&[("inproc", 4096, 0), ("sim", 4096, 131074)]);
        let (passed, failed) = check(&run, &baseline);
        assert_eq!(passed.len(), 4);
        assert_eq!(
            failed,
            [
                "transport sim/serial: messages changed 131072 → 131074",
                "transport sim/serial: wire_bytes changed 6422528 → 6422626",
            ]
        );
    }

    #[test]
    fn a_baseline_row_missing_from_the_run_fails() {
        let baseline = transport_doc(&[("inproc", 4096, 0), ("uds", 4096, 131072)]);
        let run = transport_doc(&[("inproc", 4096, 0)]);
        let (_, failed) = check(&run, &baseline);
        assert_eq!(failed, ["transport uds/serial: missing from this run"]);
    }

    #[test]
    fn a_row_only_the_run_has_passes() {
        let baseline = transport_doc(&[("inproc", 4096, 0)]);
        let run = transport_doc(&[("inproc", 4096, 0), ("sim", 4096, 131072)]);
        let (passed, failed) = check(&run, &baseline);
        assert!(failed.is_empty(), "{failed:?}");
        assert_eq!(passed.len(), 3);
    }

    #[test]
    fn only_sections_the_run_produced_are_gated() {
        // A quick run carries no `full` section; the baseline's full
        // rows are not required of it.
        let full = Row::default().set(
            "rows",
            array(&[Row::default()
                .count("disks", 4)
                .key("mode", "serial")
                .key("impl", "engine")
                .count("parallel_ios", 65536)]),
        );
        let mut baseline = transport_doc(&[("inproc", 4096, 0)]);
        if let Json::Obj(map) = &mut baseline {
            map.insert("full".into(), full.to_json());
        }
        let run = transport_doc(&[("inproc", 4096, 0)]);
        assert!(check(&run, &baseline).1.is_empty());
        // The same rows gate a run that produced the section.
        let (_, failed) = check(&baseline, &run);
        assert_eq!(failed, ["full: no rows in the baseline"]);
    }

    #[test]
    fn a_section_without_baseline_rows_fails() {
        let run = transport_doc(&[("inproc", 4096, 0)]);
        let baseline = Row::default().key("bench", "engine_sweep").to_json();
        let (passed, failed) = check(&run, &baseline);
        assert!(passed.is_empty());
        assert_eq!(failed, ["transport: no rows in the baseline"]);
    }

    #[test]
    fn every_floor_must_be_measured_and_met() {
        let bounds: Vec<(&str, f64)> = FLOORS.iter().map(|f| (f.name, f.bound)).collect();
        assert!(missed_floors(&bounds).is_empty(), "bounds themselves pass");
        let mut short = bounds.clone();
        short.retain(|(name, _)| *name != "recovered_ratio");
        short.push(("flat_over_sliced", 0.99));
        short.push(("fair_spread_pct", 25.1));
        assert_eq!(
            missed_floors(&short),
            [
                "service fair_spread_pct <= 25: measured 25.100",
                "recovery recovered_ratio >= 0.8: not measured",
                "addr_eval flat_over_sliced >= 1: measured 0.990",
            ]
        );
    }

    #[test]
    fn latest_baseline_is_the_highest_number_not_the_last_name() {
        let dir = pdm::TempDir::new("engine-sweep-latest");
        let names = [
            "BENCH_PR9.json",
            "BENCH_PR13.json",
            "BENCH_PR.quick.json",
            "BENCH_PR2.json",
        ];
        for name in names {
            std::fs::write(dir.path().join(name), "{}").expect("write a fixture");
        }
        let latest = latest_bench_baseline(dir.path());
        assert_eq!(latest.as_deref(), Some("BENCH_PR13.json"));
    }

    #[test]
    fn latest_baseline_skips_the_ci_sweep_output() {
        let dir = pdm::TempDir::new("engine-sweep-latest");
        std::fs::write(dir.path().join("BENCH_PR.quick.json"), "{}").expect("write a fixture");
        assert_eq!(latest_bench_baseline(dir.path()), None);
    }
}
