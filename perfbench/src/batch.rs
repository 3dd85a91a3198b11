//! The batch workloads: `bmmc-serial`, `bmmc-threaded` and
//! `sort-threaded`.
//!
//! One operation loads fresh input into portion 0 of a disk system
//! with `DiskSystem::load_records` (the loader the CLI, the job service
//! and the benches use), runs one whole permutation or sort, checks the measured parallel
//! I/Os against the model's prediction, and checks the output. Only the
//! permutation or sort itself is timed for `records_per_s`; the load is
//! part of set-up and of the operation's latency.
//!
//! The untraced operation calls `perform_bmmc` or `sort_by_key_with`
//! directly. The traced operation replays `perform_bmmc` as its public
//! parts (`plan_passes` + `fuse_passes`, then one
//! `execute_fused_with_strategy` per step on one `PassEngine`) with a
//! span around each, replays the block evaluator over each step's
//! source blocks, and on threaded systems runs over the timed
//! transports and disks of [`crate::layers`]. A traced run alternates
//! untraced and traced operations so the tracing overhead is measured
//! under the same conditions.

use crate::layers::{self, DiskCounters};
use crate::stats;
use crate::trace::{self, NameTotals, Trace};
use crate::{metrics_from, Outcome, RunConfig, END_TO_END, MIN_OPS, PER_LAYER, SERIAL_REF_OPS};
use bmmc::bounds::{self, MergeStrategy as PlannedMerge};
use bmmc::catalog::random_bmmc;
use bmmc::eval::BlockEvaluator;
use bmmc::fusion::{execute_fused_with_strategy, fuse_passes, FusedPass};
use bmmc::verify::{verify_permutation, VerifyOutcome};
use bmmc::{perform_bmmc, plan_passes, Bmmc, EvalStrategy, Plan};
use extsort::{sort_by_key_with, MergeStrategy, SortConfig};
use pdm::{DiskSystem, Geometry, PassEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which route a batch workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A seeded random BMMC permutation.
    Bmmc,
    /// The forecasting external merge sort of a seeded shuffle.
    Sort,
}

/// The model's prediction for one operation, and what it checks.
enum Route {
    Bmmc { perm: Bmmc },
    Sort,
}

/// What every operation of a run does.
struct Job {
    geom: Geometry,
    input: Vec<u64>,
    route: Route,
    predicted_ios: u64,
    predicted_passes: usize,
}

impl Job {
    fn new(kind: Kind, cfg: &RunConfig) -> Result<Job, String> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        match kind {
            Kind::Bmmc => {
                let geom = cfg.sizes.bmmc;
                let perm = random_bmmc(&mut rng, geom.n());
                let plan = Plan::bmmc(&perm, &geom).map_err(|e| format!("plan: {e}"))?;
                Ok(Job {
                    geom,
                    input: (0..geom.records() as u64).collect(),
                    predicted_ios: plan.parallel_ios(&geom),
                    predicted_passes: plan.num_steps(),
                    route: Route::Bmmc { perm },
                })
            }
            Kind::Sort => {
                let geom = cfg.sizes.sort;
                let mut input: Vec<u64> = (0..geom.records() as u64).collect();
                input.shuffle(&mut rng);
                let none = || "sort geometry cannot merge".to_string();
                Ok(Job {
                    geom,
                    input,
                    route: Route::Sort,
                    predicted_ios: bounds::merge_sort_ios(&geom, PlannedMerge::Forecast)
                        .ok_or_else(none)?,
                    predicted_passes: bounds::merge_sort_passes(&geom, PlannedMerge::Forecast)
                        .ok_or_else(none)?,
                })
            }
        }
    }

    /// The exact model check: measured against predicted parallel I/Os
    /// and passes.
    fn check_model(&self, ios: u64, passes: usize) -> Result<(), String> {
        if ios != self.predicted_ios || passes != self.predicted_passes {
            return Err(format!(
                "model mismatch: measured {ios} parallel I/Os in {passes} passes, \
                 predicted {} in {}",
                self.predicted_ios, self.predicted_passes
            ));
        }
        Ok(())
    }

    /// The output check on the portion holding the result.
    fn check_output(&self, sys: &mut DiskSystem<u64>, portion: usize) -> Result<(), String> {
        match &self.route {
            Route::Bmmc { perm } => match verify_permutation(sys, portion, perm, |&k| k) {
                Ok(VerifyOutcome::Correct { .. }) => Ok(()),
                Ok(VerifyOutcome::Misplaced {
                    address, found_key, ..
                }) => Err(format!(
                    "misplaced record: key {found_key} at address {address}"
                )),
                Err(e) => Err(format!("verify: {e}")),
            },
            Route::Sort => {
                // The input is a shuffle of 0..N, so the sorted output
                // is exactly 0..N.
                let out = sys.dump_records(portion);
                match out.iter().enumerate().find(|&(i, &k)| k != i as u64) {
                    Some((i, k)) => Err(format!("sort output out of order: key {k} at {i}")),
                    None => Ok(()),
                }
            }
        }
    }

    fn sort(&self, sys: &mut DiskSystem<u64>) -> Result<extsort::SortReport, String> {
        let cfg = SortConfig {
            merge: MergeStrategy::Forecast,
        };
        sort_by_key_with(sys, |&k| k, cfg).map_err(|e| format!("sort: {e}"))
    }
}

/// Timings of one operation.
#[derive(Clone, Copy, Debug)]
struct OpSample {
    /// The permutation or sort alone.
    perform_s: f64,
    /// Load, permutation or sort, and checks.
    latency_s: f64,
    ios: u64,
}

/// A disk system under test and, for a traced threaded one, its
/// per-disk backend counters.
struct System {
    sys: DiskSystem<u64>,
    disks: Vec<Arc<DiskCounters>>,
}

fn build(geom: Geometry, threaded: bool, traced: bool) -> System {
    if traced && threaded {
        let (sys, disks) = layers::traced_threaded_system(geom, 2);
        return System { sys, disks };
    }
    let mut sys = DiskSystem::new_mem(geom, 2);
    sys.set_threaded(threaded);
    System {
        sys,
        disks: Vec::new(),
    }
}

fn op_plain(sys: &mut DiskSystem<u64>, job: &Job) -> Result<OpSample, String> {
    let t0 = Instant::now();
    sys.load_records(0, &job.input);
    let t1 = Instant::now();
    let (ios, passes, portion) = match &job.route {
        Route::Bmmc { perm } => {
            let r = perform_bmmc(sys, perm).map_err(|e| format!("perform_bmmc: {e}"))?;
            (r.total.parallel_ios(), r.num_passes(), r.final_portion)
        }
        Route::Sort => {
            let r = job.sort(sys)?;
            (r.total.parallel_ios(), r.passes, r.final_portion)
        }
    };
    let perform_s = t1.elapsed().as_secs_f64();
    job.check_model(ios, passes)?;
    job.check_output(sys, portion)?;
    Ok(OpSample {
        perform_s,
        latency_s: t0.elapsed().as_secs_f64(),
        ios,
    })
}

/// Layer values of one traced operation that do not come from spans.
type Layer = BTreeMap<&'static str, f64>;

fn op_traced(
    system: &mut System,
    job: &Job,
    trace: &Trace,
    op: u64,
) -> Result<(OpSample, Layer), String> {
    let geom = job.geom;
    let sys = &mut system.sys;
    let mut layer = Layer::new();
    let _op = trace.span("op", op);
    let t0 = Instant::now();
    {
        let _s = trace.span("load", op);
        sys.load_records(0, &job.input);
    }
    let io_before = sys.stats();
    let retries_before = sys.retry_stats().retries;
    let disks_before = layers::snapshot_all(&system.disks);
    let t1 = Instant::now();
    let (passes, portion, perform_s) = match &job.route {
        Route::Bmmc { perm } => {
            let plan = {
                let _s = trace.span("plan", op);
                let passes =
                    plan_passes(perm, geom.b(), geom.m()).map_err(|e| format!("plan: {e}"))?;
                fuse_passes(&passes, geom.b(), geom.m())
            };
            let mut engine = PassEngine::new(geom);
            let mut src = 0;
            for step in &plan.steps {
                let _s = trace.span("exec.step", op);
                execute_fused_with_strategy(
                    &mut engine,
                    sys,
                    src,
                    1 - src,
                    step,
                    EvalStrategy::default(),
                )
                .map_err(|e| format!("exec: {e}"))?;
                src = 1 - src;
            }
            let perform_s = t1.elapsed().as_secs_f64();
            let mut fanout = 0.0;
            for step in &plan.steps {
                let _s = trace.span("eval.replay", op);
                fanout += replay_eval(step, &geom) as f64;
            }
            layer.insert("plan.planned_passes", plan.planned_passes() as f64);
            layer.insert("plan.steps", plan.num_steps() as f64);
            layer.insert("eval.fanout", fanout / plan.num_steps().max(1) as f64);
            (plan.num_steps(), src, perform_s)
        }
        Route::Sort => {
            let r = {
                let _s = trace.span("sort", op);
                job.sort(sys)?
            };
            layer.insert("sort.passes", r.passes as f64);
            layer.insert("sort.fan_in", r.fan_in as f64);
            (r.passes, r.final_portion, t1.elapsed().as_secs_f64())
        }
    };
    let io = sys.stats().since(&io_before);
    layer.insert("system.parallel_ios", io.parallel_ios() as f64);
    layer.insert(
        "system.blocks_moved",
        (io.blocks_read + io.blocks_written) as f64,
    );
    layer.insert(
        "system.striped_share",
        (io.striped_reads + io.striped_writes) as f64 / io.parallel_ios().max(1) as f64,
    );
    layer.insert(
        "system.retries",
        (sys.retry_stats().retries - retries_before) as f64,
    );
    let disks: Vec<_> = layers::snapshot_all(&system.disks)
        .iter()
        .zip(&disks_before)
        .map(|(a, b)| a.since(b))
        .collect();
    if !disks.is_empty() {
        layer.insert(
            "backend.ops",
            disks.iter().map(|d| d.ops).sum::<u64>() as f64,
        );
        layer.insert(
            "backend.busy_ms",
            disks.iter().map(|d| d.busy_ns).sum::<u64>() as f64 / 1e6,
        );
        layer.insert(
            "backend.bytes",
            disks.iter().map(|d| d.bytes).sum::<u64>() as f64,
        );
        layer.insert(
            "backend.disk_skew",
            crate::skew(disks.iter().map(|d| d.busy_ns as f64)),
        );
    }
    job.check_model(io.parallel_ios(), passes)?;
    {
        let _s = trace.span("verify", op);
        job.check_output(sys, portion)?;
    }
    let sample = OpSample {
        perform_s,
        latency_s: t0.elapsed().as_secs_f64(),
        ios: io.parallel_ios(),
    };
    Ok((sample, layer))
}

/// Replays the block evaluator of one fused step over all its source
/// blocks — the address evaluation the executor performs — and returns
/// the step's block fan-out (distinct target blocks per source block).
fn replay_eval(step: &FusedPass, geom: &Geometry) -> usize {
    let ev = BlockEvaluator::new(&step.as_bmmc(), geom.b() as u32);
    let blocks = (geom.records() / geom.block()) as u64;
    let mut targets = vec![0u64; geom.block()];
    for blk in 0..blocks {
        let base = ev.block_base(blk);
        match ev.residual_table() {
            Some(table) => {
                for (t, &r) in targets.iter_mut().zip(table) {
                    *t = base ^ r;
                }
            }
            None => {
                for (off, t) in targets.iter_mut().enumerate() {
                    *t = base ^ ev.residual(off as u64);
                }
            }
        }
        std::hint::black_box(&mut targets);
    }
    ev.fanout().unwrap_or(0)
}

/// Layer times of one operation, from its spans.
fn span_layers(names: &BTreeMap<&'static str, NameTotals>, layer: &mut Layer) {
    let ms = |name: &str| names.get(name).map_or(0.0, |t| t.ns as f64 / 1e6);
    let self_ms = |name: &str| names.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    layer.insert("plan.ms", ms("plan"));
    layer.insert("exec.step_ms", ms("exec.step"));
    layer.insert("exec.self_ms", self_ms("exec.step"));
    layer.insert("eval.replay_ms", ms("eval.replay"));
    layer.insert("sort.ms", ms("sort"));
    layer.insert("op.self_ms", self_ms("op"));
    // Submits made while the permutation or sort ran (loads and
    // verification scans submit too, under their own spans).
    let (mut submits, mut submit_ns) = (0u64, 0u64);
    for name in ["exec.step", "sort"] {
        if let Some(&(calls, ns)) = names
            .get(name)
            .and_then(|t| t.leaves.get("transport.submit"))
        {
            submits += calls;
            submit_ns += ns;
        }
    }
    layer.insert("transport.submits", submits as f64);
    layer.insert("transport.submit_ms", submit_ns as f64 / 1e6);
    let ios = layer.get("system.parallel_ios").copied().unwrap_or(0.0);
    if ios > 0.0 {
        layer.insert("transport.submits_per_io", submits as f64 / ios);
    }
}

fn records_per_s(samples: &[OpSample], records: usize) -> Vec<f64> {
    samples
        .iter()
        .map(|s| records as f64 / s.perform_s)
        .collect()
}

/// Runs one batch workload.
pub fn run(kind: Kind, threaded: bool, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let job = match Job::new(kind, cfg) {
        Ok(job) => job,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    let geom = job.geom;

    // Set-up: build the system, spawn its threads, load one input.
    let mut setup_s = Vec::new();
    let mut plain = None;
    while !crate::setup_done(&setup_s) {
        drop(plain.take());
        let t = Instant::now();
        let mut s = build(geom, threaded, false);
        s.sys.load_records(0, &job.input);
        setup_s.push(t.elapsed().as_secs_f64());
        plain = Some(s);
    }
    let mut plain = plain.expect("at least one set-up");
    let mut traced_sys = cfg.trace.then(|| build(geom, threaded, true));
    let trace = Trace::default();

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut layer_ops: Vec<(u64, Layer)> = Vec::new();
    let mut pool_allocated = Vec::new();
    let start = Instant::now();
    let mut k = 0u64;
    while (k as usize) < MIN_OPS || start.elapsed().as_secs_f64() < cfg.seconds {
        k += 1;
        match traced_sys.as_mut().filter(|_| k.is_multiple_of(2)) {
            Some(system) => {
                let result = op_traced(system, &job, &trace, k);
                pool_allocated.push(system.sys.buffer_pool_stats().allocated as f64);
                out.check(result.map(|(sample, layer)| {
                    traced.push(sample);
                    layer_ops.push((k, layer));
                }));
            }
            None => out.check(op_plain(&mut plain.sys, &job).map(|s| untraced.push(s))),
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();
    drop(plain);
    drop(traced_sys);

    let records = geom.records();
    let rps = stats::median(&records_per_s(&untraced, records));
    out.reference_num("ops", untraced.len() as f64);
    out.reference_num("setup_reps", setup_s.len() as f64);
    out.reference_num("passes", job.predicted_passes as f64);
    out.reference_num("predicted_parallel_ios", job.predicted_ios as f64);

    if cfg.trace {
        let by_op = trace::totals_by_op(&trace.spans());
        let mut per_op: Vec<Layer> = Vec::new();
        for (op, mut layer) in layer_ops {
            if let Some(names) = by_op.get(&op) {
                span_layers(names, &mut layer);
            }
            per_op.push(layer);
        }
        let mut values = crate::median_by_name(&per_op);
        // Buffers allocated after the first traced operation warmed
        // the pool up.
        if let (Some(first), Some(last)) = (pool_allocated.first(), pool_allocated.last()) {
            values.insert("system.pool_allocated", last - first);
        }
        let traced_rps = stats::median(&records_per_s(&traced, records));
        values.insert("trace.overhead_ratio", traced_rps / rps);
        out.metrics = metrics_from(PER_LAYER, &values);
        out.reference_num("traced_ops", traced.len() as f64);
        let mut jsonl = Vec::new();
        trace
            .write_jsonl(&mut jsonl)
            .expect("writing to memory cannot fail");
        out.spans_jsonl = Some(String::from_utf8_lossy(&jsonl).into_owned());
        return out;
    }

    let latency_ms: Vec<f64> = untraced.iter().map(|s| s.latency_s * 1e3).collect();
    let ios: Vec<f64> = untraced.iter().map(|s| s.ios as f64).collect();
    let values: BTreeMap<&'static str, f64> = [
        ("records_per_s", rps),
        ("parallel_ios", stats::median(&ios)),
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN)),
        ("jobs_per_s", untraced.len() as f64 / window_s),
        ("latency_ms_p50", stats::median(&latency_ms)),
        ("latency_ms_p90", stats::quantile(&latency_ms, 0.9)),
    ]
    .into_iter()
    .collect();
    out.metrics = metrics_from(END_TO_END, &values);

    if threaded {
        let mut serial = build(geom, false, false);
        let mut samples = Vec::new();
        for _ in 0..SERIAL_REF_OPS {
            out.check(op_plain(&mut serial.sys, &job).map(|s| samples.push(s)));
        }
        let serial_rps = stats::median(&records_per_s(&samples, records));
        out.reference_num("serial_records_per_s", serial_rps);
        out.reference_num("x_over_serial", rps / serial_rps);
    }
    let memcpy = stats::memcpy_bytes_per_s();
    let roof = stats::roofline_records_per_s(memcpy, job.predicted_passes as f64);
    out.reference_num("memcpy_gb_per_s", memcpy / 1e9);
    out.reference_num("roofline_records_per_s", roof);
    out.reference_num("roofline_frac", rps / roof);
    out
}
