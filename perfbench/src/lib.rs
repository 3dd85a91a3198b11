//! Wall-clock benchmark of the BMMC / PDM workspace.
//!
//! Four workloads, each chosen to load a different set of layers (see
//! `README.md` next to this crate for the reasons), run against the
//! public APIs of `bmmc`, `extsort`, `pdm` and `pdm-served`:
//!
//! * `bmmc-serial` — a seeded random BMMC permutation through
//!   `perform_bmmc` on serially serviced memory disks;
//! * `bmmc-threaded` — the same under `ServiceMode::Threaded`;
//! * `sort-threaded` — a seeded shuffle sorted by the forecasting
//!   external merge sort, threaded;
//! * `served-mixed` — an in-process `pdm-served` driven by two
//!   closed-loop clients alternating BMMC and sort jobs.
//!
//! Every operation's output is checked and its parallel-I/O count is
//! compared with the model's prediction; a mismatch fails the
//! operation. An untraced run reports [`END_TO_END`]; a traced run
//! records [`trace`] spans around the calls into each layer and
//! reports [`PER_LAYER`].

pub mod batch;
pub mod layers;
pub mod served;
pub mod stats;
pub mod trace;

use pdm::Geometry;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("parallel_ios", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// Per-layer metrics, reported by every traced run: (name, unit). A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.ms", "ms"),
    ("plan.planned_passes", "count"),
    ("plan.steps", "count"),
    ("exec.step_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("eval.replay_ms", "ms"),
    ("eval.fanout", "count"),
    ("system.parallel_ios", "count"),
    ("system.blocks_moved", "count"),
    ("system.striped_share", "ratio"),
    ("system.pool_allocated", "count"),
    ("system.retries", "count"),
    ("transport.submits", "count"),
    ("transport.submits_per_io", "ratio"),
    ("transport.submit_ms", "ms"),
    ("backend.ops", "count"),
    ("backend.busy_ms", "ms"),
    ("backend.bytes", "bytes"),
    ("backend.disk_skew", "ratio"),
    ("sort.ms", "ms"),
    ("sort.passes", "count"),
    ("sort.fan_in", "count"),
    ("served.submit_ms", "ms"),
    ("served.result_ms", "ms"),
    ("served.disk_skew", "ratio"),
    ("served.rejects", "count"),
    ("op.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Random BMMC, serial service: the no-I/O-path reference.
    BmmcSerial,
    /// Random BMMC, persistent per-disk service threads.
    BmmcThreaded,
    /// Forecasting external merge sort of a shuffle, threaded.
    SortThreaded,
    /// In-process job service, two closed-loop clients.
    ServedMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BmmcSerial,
        Workload::BmmcThreaded,
        Workload::SortThreaded,
        Workload::ServedMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BmmcSerial => "bmmc-serial",
            Workload::BmmcThreaded => "bmmc-threaded",
            Workload::SortThreaded => "sort-threaded",
            Workload::ServedMixed => "served-mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes of the service workload; its client count, admission
/// limit and farm disk count are the constants of [`served`].
#[derive(Clone, Copy, Debug)]
pub struct ServedSizes {
    /// Records per job (`N`).
    pub records: usize,
    /// Job memory in records (`M`).
    pub memory: usize,
    /// Farm block size (`B`).
    pub block: usize,
}

/// Problem sizes of every workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Geometry of both BMMC workloads.
    pub bmmc: Geometry,
    /// Geometry of the sort workload.
    pub sort: Geometry,
    /// The service workload.
    pub served: ServedSizes,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            bmmc: Geometry::new(1 << 22, 1 << 7, 1 << 2, 1 << 16).expect("valid geometry"),
            sort: Geometry::new(1 << 20, 1 << 7, 1 << 2, 1 << 14).expect("valid geometry"),
            served: ServedSizes {
                records: 1 << 16,
                memory: 1 << 12,
                block: 1 << 7,
            },
        }
    }

    /// Tiny sizes for the smoke tests: the same code, milliseconds per
    /// operation.
    pub fn tiny() -> Sizes {
        Sizes {
            bmmc: Geometry::new(1 << 12, 1 << 2, 1 << 2, 1 << 7).expect("valid geometry"),
            sort: Geometry::new(1 << 12, 1 << 2, 1 << 2, 1 << 6).expect("valid geometry"),
            served: ServedSizes {
                records: 1 << 10,
                memory: 1 << 6,
                block: 1 << 2,
            },
        }
    }
}

/// Set-ups per run: at least [`SETUP_MIN_REPS`], then more until
/// [`SETUP_BUDGET_S`] seconds of set-up ran or [`SETUP_MAX_REPS`] did;
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
const SETUP_MAX_REPS: usize = 200;
/// See [`SETUP_MIN_REPS`].
const SETUP_BUDGET_S: f64 = 4.0;

/// Whether `setup_s` holds enough set-up times.
pub(crate) fn setup_done(setup_s: &[f64]) -> bool {
    let spent: f64 = setup_s.iter().sum();
    setup_s.len() >= SETUP_MAX_REPS || (setup_s.len() >= SETUP_MIN_REPS && spent >= SETUP_BUDGET_S)
}

/// Operations (or closed-loop job pairs per client) run even after the
/// window closes: two, so a traced run has traced and untraced ones.
pub const MIN_OPS: usize = 2;

/// Serial operations measured after the window as the reference for
/// `x_over_serial` on the threaded batch workloads.
pub const SERIAL_REF_OPS: usize = 3;

/// How one run is carried out.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Directory for the service socket and the span file.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (or jobs) attempted, set-up operations included.
    pub attempted: u64,
    /// Operations that failed an output or model check, or errored.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// [`END_TO_END`] for an untraced run, [`PER_LAYER`] for a traced one.
    pub metrics: Vec<Metric>,
    /// Reference numbers reported beside the metrics and not gated:
    /// (key, JSON value).
    pub reference: Vec<(String, String)>,
    /// Spans of a traced run as JSON lines.
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub(crate) fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Adds a reference number.
    pub(crate) fn reference_num(&mut self, key: &str, value: f64) {
        self.reference.push((key.to_string(), json_num(value)));
    }

    /// Adds a reference string.
    pub(crate) fn reference_str(&mut self, key: &str, value: &str) {
        self.reference
            .push((key.to_string(), format!("\"{}\"", json_escape(value))));
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Builds the metric list `names` from `values`; a name with no value
/// reports 0 (the layer was bypassed).
pub(crate) fn metrics_from(
    names: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Per-operation layer values of a traced run, summarised as medians
/// across operations.
pub(crate) fn median_by_name(
    per_op: &[BTreeMap<&'static str, f64>],
) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in per_op {
        for (&k, &v) in op {
            by_name.entry(k).or_default().push(v);
        }
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect()
}

/// `max / min`, or 0 when the minimum is 0 or there are no values.
pub(crate) fn skew(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > 0.0 && lo.is_finite() {
        hi / lo
    } else {
        0.0
    }
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs one workload.
pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    let mut out = match workload {
        Workload::BmmcSerial => batch::run(batch::Kind::Bmmc, false, cfg),
        Workload::BmmcThreaded => batch::run(batch::Kind::Bmmc, true, cfg),
        Workload::SortThreaded => batch::run(batch::Kind::Sort, true, cfg),
        Workload::ServedMixed => served::run(cfg),
    };
    out.reference_str("workload", workload.name());
    out.reference
        .push(("seed".to_string(), cfg.seed.to_string()));
    out.reference_num("nproc", stats::nproc() as f64);
    out.reference_str("rustc", &stats::rustc_version());
    out.reference_str("commit", &stats::commit());
    out.reference_num(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}
