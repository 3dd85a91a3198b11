//! The `served-mixed` workload: an in-process `pdm-served` (a
//! `ServiceCore` behind `serve_listener` on a Unix socket) driven by
//! closed-loop clients.
//!
//! Each client connection submits a job, waits for its RESULT, and only
//! then submits the next, alternating a BMMC job and a forecasting sort
//! job. Every job asks the service to verify its output. A job counts
//! as failed when it is rejected, does not finish `Done`, reports
//! unverified output, or when its charged ledger (`usage.io`) differs
//! from its own counters (`report.io`); sort jobs must also match the
//! exact merge-sort I/O prediction.
//!
//! Set-up is the time from nothing to the first verified result:
//! start the service, connect the clients, and run one BMMC job.

use crate::stats;
use crate::trace::{self, Trace};
use crate::{metrics_from, Outcome, RunConfig, ServedSizes, END_TO_END, MIN_OPS, PER_LAYER};
use bmmc::bounds::{self, MergeStrategy as PlannedMerge};
use extsort::MergeStrategy;
use pdm::Geometry;
use pdm_served::client::Client;
use pdm_served::core::{JobState, ServiceConfig, ServiceCore};
use pdm_served::job::{JobKind, JobSpec};
use pdm_served::server::serve_listener;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections, one load thread each.
pub const CLIENTS: usize = 2;
/// Jobs the service admits at once.
pub const MAX_RUNNING: usize = 2;
/// Disks of the service's farm (`D`).
pub const FARM_DISKS: usize = 4;

/// A running service and the handles needed to stop it.
struct Service {
    core: Arc<ServiceCore>,
    server: JoinHandle<()>,
    listener: UnixListener,
    path: PathBuf,
}

impl Service {
    fn start(sizes: &ServedSizes, path: PathBuf) -> Result<Service, String> {
        let geom = job_geometry(sizes)?;
        // Room for every admitted job's two portions.
        let slots = MAX_RUNNING * 2 * geom.stripes();
        let config = ServiceConfig {
            block: sizes.block,
            disks: FARM_DISKS,
            slots,
            quantum: geom.blocks_per_memoryload() as u64,
            max_running: MAX_RUNNING,
            ..ServiceConfig::default()
        };
        let _ = std::fs::remove_file(&path);
        let listener =
            UnixListener::bind(&path).map_err(|e| format!("bind {}: {e}", path.display()))?;
        let accept = listener
            .try_clone()
            .map_err(|e| format!("clone listener: {e}"))?;
        let core = ServiceCore::new(config);
        let served = Arc::clone(&core);
        let server = std::thread::Builder::new()
            .name("perfbench-served".into())
            .spawn(move || serve_listener(accept, served))
            .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Service {
            core,
            server,
            listener,
            path,
        })
    }

    /// Stops admitting, ends the accept loop, and joins the server.
    fn stop(self) {
        self.core.shutdown();
        // The accept loop ends at the first failing accept: make the
        // shared listening socket non-blocking, then wake the blocked
        // accept with one connection so the next accept fails.
        if self.listener.set_nonblocking(true).is_ok() {
            drop(UnixStream::connect(&self.path));
            let _ = self.server.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

fn job_geometry(sizes: &ServedSizes) -> Result<Geometry, String> {
    Geometry::new(sizes.records, sizes.block, FARM_DISKS, sizes.memory)
        .map_err(|e| format!("job geometry: {e}"))
}

/// One job's outcome as a client saw it.
#[derive(Clone, Debug, Default)]
struct JobSample {
    /// Submit to RESULT.
    latency_s: f64,
    ios: u64,
    blocks_moved: u64,
    striped: u64,
    disk_skew: f64,
    traced: bool,
}

/// The per-job checks and model checks.
struct Checker {
    sort_ios: u64,
    sort_passes: u64,
}

impl Checker {
    fn new(sizes: &ServedSizes) -> Result<Checker, String> {
        let geom = job_geometry(sizes)?;
        let none = || "sort job geometry cannot merge".to_string();
        Ok(Checker {
            sort_ios: bounds::merge_sort_ios(&geom, PlannedMerge::Forecast).ok_or_else(none)?,
            sort_passes: bounds::merge_sort_passes(&geom, PlannedMerge::Forecast)
                .ok_or_else(none)? as u64,
        })
    }

    /// Submits one job and waits for its result, with spans when a
    /// trace is given.
    fn job(
        &self,
        client: &mut Client,
        spec: &JobSpec,
        trace: Option<(&Trace, u64)>,
    ) -> Result<JobSample, JobError> {
        let _job = trace.map(|(t, op)| t.span("job", op));
        let t0 = Instant::now();
        let id = {
            let _s = trace.map(|(t, op)| t.span("served.submit", op));
            match client.submit(spec) {
                Ok(Ok(id)) => id,
                Ok(Err(reject)) => return Err(JobError::Rejected(reject.to_string())),
                Err(e) => return Err(JobError::Failed(format!("submit: {e}"))),
            }
        };
        let status = {
            let _s = trace.map(|(t, op)| t.span("served.result", op));
            client.result(id)
        };
        let latency_s = t0.elapsed().as_secs_f64();
        let fail = |msg: String| JobError::Failed(format!("job {id} ({:?}): {msg}", spec.kind));
        let status = match status {
            Ok(Some(status)) => status,
            Ok(None) => return Err(fail("unknown id".into())),
            Err(e) => return Err(fail(format!("result: {e}"))),
        };
        if status.state != JobState::Done {
            return Err(fail(format!(
                "{} {:?}",
                status.state.as_str(),
                status.error
            )));
        }
        let report = status.report.ok_or_else(|| fail("no report".into()))?;
        if !report.verified {
            return Err(fail("output not verified".into()));
        }
        if status.usage.io != report.io {
            return Err(fail(format!(
                "ledger {} differs from job counters {}",
                status.usage.io, report.io
            )));
        }
        if spec.kind == JobKind::Sort
            && (report.io.parallel_ios() != self.sort_ios || report.passes != self.sort_passes)
        {
            return Err(fail(format!(
                "model mismatch: {} parallel I/Os in {} passes, predicted {} in {}",
                report.io.parallel_ios(),
                report.passes,
                self.sort_ios,
                self.sort_passes
            )));
        }
        Ok(JobSample {
            latency_s,
            ios: report.io.parallel_ios(),
            blocks_moved: report.io.blocks_read + report.io.blocks_written,
            striped: report.io.striped_reads + report.io.striped_writes,
            disk_skew: crate::skew(status.usage.blocks_per_disk.iter().map(|&b| b as f64)),
            traced: trace.is_some(),
        })
    }
}

enum JobError {
    Rejected(String),
    Failed(String),
}

fn spec(sizes: &ServedSizes, kind: JobKind, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(kind, sizes.records, sizes.memory, seed);
    spec.merge = MergeStrategy::Forecast;
    spec.verify = true;
    spec
}

fn connect(path: &Path, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| {
            Client::connect_with_retry(path, Duration::from_secs(5))
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

/// What one client's closed loop produced.
#[derive(Default)]
struct ClientLog {
    samples: Vec<JobSample>,
    /// Latency of each (BMMC, sort) pair whose jobs both succeeded, and
    /// whether the pair was traced.
    pairs: Vec<(f64, bool)>,
    attempted: u64,
    rejects: u64,
    errors: Vec<String>,
}

/// One client's closed loop: (BMMC, sort) pairs until the window
/// closes and at least [`MIN_OPS`] pairs ran.
fn client_loop(
    client: &mut Client,
    checker: &Checker,
    sizes: &ServedSizes,
    seed: u64,
    deadline: Instant,
    trace: Option<(&Trace, u64)>,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = ClientLog::default();
    let mut pairs = 0;
    while pairs < MIN_OPS || Instant::now() < deadline {
        // Every second pair is traced in a traced run, so traced and
        // untraced jobs have the same mix of kinds.
        let traced_pair = trace.is_some() && pairs % 2 == 1;
        let mut pair_s = Some(0.0);
        for kind in [JobKind::Bmmc, JobKind::Sort] {
            let n = log.attempted;
            log.attempted += 1;
            let traced = trace.filter(|_| traced_pair).map(|(t, base)| (t, base + n));
            let result = checker.job(client, &spec(sizes, kind, rng.next_u64()), traced);
            pair_s = pair_s
                .zip(result.as_ref().ok())
                .map(|(p, s)| p + s.latency_s);
            match result {
                Ok(s) => log.samples.push(s),
                Err(JobError::Rejected(e)) => {
                    log.rejects += 1;
                    log.errors.push(format!("rejected: {e}"));
                }
                Err(JobError::Failed(e)) => log.errors.push(e),
            }
        }
        if let Some(p) = pair_s {
            log.pairs.push((p, traced_pair));
        }
        pairs += 1;
    }
    log
}

/// Runs the `served-mixed` workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let sizes = cfg.sizes.served;
    let checker = match Checker::new(&sizes) {
        Ok(c) => c,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        out.check(Err(format!("create {}: {e}", cfg.out_dir.display())));
        return out;
    }
    let mut seeds = StdRng::seed_from_u64(cfg.seed);

    // Set-up, repeated: start, connect, first verified result.
    let mut setup_s = Vec::new();
    let mut running: Option<(Service, Vec<Client>)> = None;
    let mut rep = 0;
    while !crate::setup_done(&setup_s) {
        rep += 1;
        if let Some((service, clients)) = running.take() {
            drop(clients);
            service.stop();
        }
        let path = cfg
            .out_dir
            .join(format!("served-{}-{rep}.sock", std::process::id()));
        let t = Instant::now();
        let started = Service::start(&sizes, path).and_then(|service| {
            match connect(&service.path, CLIENTS) {
                Ok(clients) => Ok((service, clients)),
                Err(e) => {
                    service.stop();
                    Err(e)
                }
            }
        });
        let (service, mut clients) = match started {
            Ok(s) => s,
            Err(e) => {
                out.check(Err(e));
                return out;
            }
        };
        let first = checker.job(
            &mut clients[0],
            &spec(&sizes, JobKind::Bmmc, seeds.next_u64()),
            None,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        out.check(first.map(drop).map_err(|e| match e {
            JobError::Rejected(e) | JobError::Failed(e) => e,
        }));
        running = Some((service, clients));
    }
    let (service, mut clients) = running.expect("at least one set-up");

    let trace = Trace::default();
    let client_seeds: Vec<u64> = clients.iter().map(|_| seeds.next_u64()).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&client_seeds)
            .enumerate()
            .map(|(i, (client, &seed))| {
                let (checker, trace) = (&checker, &trace);
                let traced = cfg.trace.then_some((trace, (i as u64 + 1) << 32));
                s.spawn(move || client_loop(client, checker, &sizes, seed, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb();
    drop(clients);
    service.stop();

    let mut samples = Vec::new();
    let mut pairs = Vec::new();
    let mut rejects = 0;
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.errors.len() as u64;
        out.errors.extend(log.errors);
        rejects += log.rejects;
        samples.extend(log.samples);
        pairs.extend(log.pairs);
    }
    out.reference_num("jobs", samples.len() as f64);
    out.reference_num("setup_reps", setup_s.len() as f64);
    out.reference_num("clients", CLIENTS as f64);

    let (traced, untraced): (Vec<JobSample>, Vec<JobSample>) =
        samples.into_iter().partition(|s| s.traced);
    // Latencies are per (BMMC, sort) pair: the two kinds' latencies
    // need not overlap, and a percentile over their mix would fall in
    // the gap between them.
    let pair_ms = |traced: bool| -> Vec<f64> {
        pairs
            .iter()
            .filter(|p| p.1 == traced)
            .map(|p| p.0 * 1e3)
            .collect()
    };
    if cfg.trace {
        let by_op = trace::totals_by_op(&trace.spans());
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        let span_ms = |name: &str| -> Vec<f64> {
            by_op
                .values()
                .filter_map(|names| names.get(name))
                .map(|t| t.ns as f64 / 1e6)
                .collect()
        };
        values.insert("served.submit_ms", stats::median(&span_ms("served.submit")));
        values.insert("served.result_ms", stats::median(&span_ms("served.result")));
        let self_ms: Vec<f64> = by_op
            .values()
            .filter_map(|names| names.get("job"))
            .map(|t| t.self_ns as f64 / 1e6)
            .collect();
        values.insert("op.self_ms", stats::median(&self_ms));
        let skews: Vec<f64> = traced.iter().map(|s| s.disk_skew).collect();
        values.insert("served.disk_skew", stats::median(&skews));
        values.insert("served.rejects", rejects as f64);
        let per_job = |f: fn(&JobSample) -> u64| -> f64 {
            traced.iter().map(|s| f(s) as f64).sum::<f64>() / traced.len().max(1) as f64
        };
        let ios = per_job(|s| s.ios);
        values.insert("system.parallel_ios", ios);
        values.insert("system.blocks_moved", per_job(|s| s.blocks_moved));
        values.insert("system.striped_share", per_job(|s| s.striped) / ios);
        values.insert(
            "trace.overhead_ratio",
            stats::median(&pair_ms(false)) / stats::median(&pair_ms(true)),
        );
        out.metrics = metrics_from(PER_LAYER, &values);
        out.reference_num("traced_jobs", traced.len() as f64);
        let mut jsonl = Vec::new();
        trace
            .write_jsonl(&mut jsonl)
            .expect("writing to memory cannot fail");
        out.spans_jsonl = Some(String::from_utf8_lossy(&jsonl).into_owned());
        return out;
    }

    let latency_ms = pair_ms(false);
    let jobs = untraced.len() as f64;
    let ios = untraced.iter().map(|s| s.ios as f64).sum::<f64>() / jobs.max(1.0);
    let values: BTreeMap<&'static str, f64> = [
        ("records_per_s", jobs * sizes.records as f64 / window_s),
        ("parallel_ios", ios),
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN)),
        ("jobs_per_s", jobs / window_s),
        ("latency_ms_p50", stats::median(&latency_ms)),
        ("latency_ms_p90", stats::quantile(&latency_ms, 0.9)),
    ]
    .into_iter()
    .collect();
    out.metrics = metrics_from(END_TO_END, &values);
    out.reference_num("latency_samples", latency_ms.len() as f64);
    out.reference_num(
        "latency_samples_beyond_p90",
        (latency_ms.len() as f64 * 0.1).floor(),
    );
    out
}
