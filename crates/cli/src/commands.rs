//! Subcommand implementations.

use crate::args::{parse_geometry, parse_pow2, Args};
use crate::builtins;
use bmmc::bpc_baseline::bpc_baseline_plan;
use bmmc::detect::{detect_bmmc, Detection};
use bmmc::fusion::{fuse_passes, FusedPass, FusedPlan};
use bmmc::verify::{verify_permutation, VerifyOutcome};
use bmmc::{
    bounds, candidates, choose, classify, factor_chunked, spec, Bmmc, Pass, PassKind, Plan,
};
use extsort::MergeStrategy;
use gf2::elim::rank;
use gf2::perm::bpc_cross_rank;
use pdm::{Backend, DiskSystem, Geometry, TempDir, TimingModel, TransportConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;

/// Loads the permutation from `--builtin` or `--spec` and checks it
/// fits the geometry.
fn load_perm(a: &Args, geom: &Geometry) -> Result<Bmmc, String> {
    let perm = match (a.get("builtin"), a.get("spec")) {
        (Some(name), None) => builtins::resolve(name, geom.n(), geom.b(), geom.m())?,
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            spec::parse_spec(&text).map_err(|e| e.to_string())?
        }
        _ => return Err("give exactly one of --builtin NAME or --spec FILE".to_string()),
    };
    if perm.bits() != geom.n() {
        return Err(format!(
            "permutation is on {}-bit addresses but the geometry has n = {}",
            perm.bits(),
            geom.n()
        ));
    }
    Ok(perm)
}

fn geometry(a: &Args) -> Result<Geometry, String> {
    parse_geometry(a.require("geometry")?)
}

/// Builds the disk array per `--backend` (mem, the default, or file),
/// `--dir`, `--transport`, and `--threaded`. Every algorithm the CLI
/// can run takes `&mut DiskSystem`, so the choice is invisible
/// downstream. A file-backed system without an explicit `--dir` uses a
/// self-cleaning temp dir whose guard is parked in `scratch` for the
/// command's duration.
fn build_system(
    a: &Args,
    geom: Geometry,
    scratch: &mut Option<TempDir>,
) -> Result<DiskSystem<u64>, String> {
    let backend = match a.get("backend").unwrap_or("mem") {
        "mem" => Backend::Mem,
        "file" => {
            let dir = match a.get("dir") {
                Some(d) => PathBuf::from(d),
                None => {
                    let guard = TempDir::new("bmmc-cli");
                    let dir = guard.path().to_path_buf();
                    *scratch = Some(guard);
                    dir
                }
            };
            Backend::File { dir }
        }
        other => return Err(format!("unknown backend {other:?} (expected mem or file)")),
    };
    let transport = match a.get("transport").unwrap_or("inproc") {
        "inproc" => TransportConfig::InProc,
        "uds" => TransportConfig::Uds(Default::default()),
        "sim" => TransportConfig::SimNet(Default::default()),
        other => {
            return Err(format!(
                "unknown transport {other:?} (expected inproc, uds, or sim)"
            ))
        }
    };
    let mut sys = DiskSystem::new_with_transport(geom, 2, &backend, &transport)
        .map_err(|e| format!("disk system: {e}"))?;
    if a.has("threaded") {
        sys.set_threaded(true);
    }
    if let Some(r) = a.get("retries") {
        let retries: u32 = r.parse().map_err(|_| format!("bad --retries {r:?}"))?;
        let mut policy = pdm::RetryPolicy::fault_tolerant();
        policy.max_attempts = retries.saturating_add(1);
        sys.set_retry_policy(policy);
    }
    if let Some(fault) = a.get("transient-fault") {
        let (op, disk) = fault
            .split_once(',')
            .ok_or_else(|| format!("--transient-fault wants OP,DISK, got {fault:?}"))?;
        let op: u64 = op
            .trim()
            .parse()
            .map_err(|_| format!("bad fault op {op:?}"))?;
        let disk: usize = disk
            .trim()
            .parse()
            .map_err(|_| format!("bad fault disk {disk:?}"))?;
        sys.set_faults(pdm::FaultPlan::new().fail_transient_at(op, disk));
    }
    Ok(sys)
}

/// The timing model candidate plans are costed under (`--timing`,
/// default hdd — seek-dominated devices are where the route choice
/// matters most).
fn costing_timing(a: &Args) -> Result<TimingModel, String> {
    match a.get("timing") {
        None | Some("hdd") => Ok(TimingModel::hdd()),
        Some("ssd") => Ok(TimingModel::ssd()),
        Some(other) => Err(format!("unknown timing model {other:?}")),
    }
}

/// Prints the full candidate table — steps, exact predicted parallel
/// I/Os, seek-aware modeled wall-clock, and which plan `auto` picks —
/// and returns the pick.
fn print_candidates(perm: &Bmmc, geom: &Geometry, timing: &TimingModel) -> Result<Plan, String> {
    let plans = candidates(perm, geom);
    let chosen = choose(&plans, geom, timing)
        .ok_or("no candidate plan applies to this geometry")?
        .clone();
    println!("candidate plans:");
    for plan in &plans {
        let mark = if plan.candidate == chosen.candidate {
            "->"
        } else {
            "  "
        };
        let labels: Vec<String> = plan.steps.iter().map(|s| s.label()).collect();
        println!(
            " {mark} {:<13} {:>2} step(s) {:>8} parallel I/Os {:>12.2} ms modeled  [{}]",
            plan.candidate.name(),
            plan.num_steps(),
            plan.parallel_ios(geom),
            plan.modeled_ms(geom, timing),
            labels.join("; ")
        );
    }
    println!("auto picks: {}", chosen.candidate.name());
    Ok(chosen)
}

/// `bmmc-cli info`: classification, ranks, and every bound.
pub fn info(a: &Args) -> Result<(), String> {
    let geom = geometry(a)?;
    let perm = load_perm(a, &geom)?;
    let (n, b, m) = (geom.n(), geom.b(), geom.m());
    let flags = classify(perm.matrix(), b, m);
    let r_gamma = rank(&perm.matrix().submatrix(b..n, 0..b));
    let r_gamma_m = rank(&perm.matrix().submatrix(m..n, 0..m));
    let r_lead = rank(&perm.matrix().submatrix(0..m, 0..m));

    println!(
        "geometry      N=2^{n} B=2^{} D=2^{} M=2^{m}  (one pass = {} parallel I/Os)",
        geom.b(),
        geom.d(),
        geom.ios_per_pass()
    );
    println!(
        "classes       BMMC={} BPC={} MRC={} MLD={} MLD⁻¹={}",
        flags.bmmc, flags.bpc, flags.mrc, flags.mld, flags.mld_inverse
    );
    println!(
        "ranks         rank γ (b-split) = {r_gamma}, rank γ̂ (m-split) = {r_gamma_m}, \
         leading m×m = {r_lead}"
    );
    if flags.bpc {
        println!(
            "cross-rank    ρ(A) = {} (old BPC bound {} I/Os)",
            bpc_cross_rank(perm.matrix(), b, m),
            bounds::old_bpc_upper(&geom, bpc_cross_rank(perm.matrix(), b, m))
        );
    }
    println!(
        "Theorem 3     lower bound expression = {:.0} parallel I/Os",
        bounds::theorem3_lower(&geom, r_gamma)
    );
    println!(
        "§7 precise    lower bound = {:.0} parallel I/Os",
        bounds::precise_lower(&geom, r_gamma)
    );
    println!(
        "Theorem 21    upper bound = {} parallel I/Os ({} passes predicted)",
        bounds::theorem21_upper(&geom, r_gamma),
        bounds::factoring_passes(&geom, r_gamma_m)
    );
    println!(
        "old BMMC [4]  upper bound = {} parallel I/Os (H = {})",
        bounds::old_bmmc_upper(&geom, r_lead),
        bounds::h_function(&geom)
    );
    let (per_rec, sort, min) = bounds::general_permutation_bound(&geom);
    println!(
        "general perm  min({per_rec}, {sort}) = {min} parallel I/Os (Vitter–Shriver, fan-in M/B)"
    );
    for merge in MergeStrategy::ALL {
        match (
            bounds::merge_sort_ios(&geom, merge),
            bounds::merge_sort_passes(&geom, merge),
        ) {
            (Some(ios), Some(passes)) => println!(
                "extsort {:<9} {ios} parallel I/Os exactly ({passes} passes, fan-in {})",
                merge.as_str(),
                merge.fan_in(&geom)
            ),
            _ => println!(
                "extsort {:<9} cannot merge (fan-in {} < 2)",
                merge.as_str(),
                merge.fan_in(&geom)
            ),
        }
    }
    println!(
        "detection     {} parallel reads (Section 6)",
        bounds::detection_reads(&geom)
    );
    Ok(())
}

/// `bmmc-cli factor`: the Section 5 plan, pass by pass.
pub fn factor(a: &Args) -> Result<(), String> {
    let geom = geometry(a)?;
    let perm = load_perm(a, &geom)?;
    let chunk = match a.get("chunk") {
        Some(s) => parse_pow2(s)?,
        None => geom.lg_mb(),
    };
    let fac = factor_chunked(&perm, geom.b(), geom.m(), chunk).map_err(|e| e.to_string())?;
    println!(
        "factored into {} pass(es) with {} swap/erase round(s), chunk = {chunk}:",
        fac.num_passes(),
        fac.g()
    );
    for (i, pass) in fac.passes.iter().enumerate() {
        println!(
            "  pass {}: {:?}  ({} I/O discipline)",
            i + 1,
            pass.kind,
            match pass.kind {
                PassKind::Mrc => "striped reads, striped writes",
                PassKind::Mld => "striped reads, independent writes",
                PassKind::MldInverse => "independent reads, striped writes",
            }
        );
    }
    if !fac.verify(&perm) {
        return Err("internal error: factorization does not recompose".to_string());
    }
    println!("recomposition check: passes compose back to A ✓");

    // The fused execution plan: adjacent passes that compose within
    // the memory model collapse into single disk round-trips.
    let fused = fuse_passes(&fac.passes, geom.b(), geom.m());
    if !fused.verify(&perm) {
        return Err("internal error: fused plan does not recompose".to_string());
    }
    println!(
        "fused plan: {} executed step(s) for {} planned pass(es):",
        fused.num_steps(),
        fused.planned_passes()
    );
    for (i, step) in fused.steps.iter().enumerate() {
        println!(
            "  step {}: {}  ({:?} reads, {:?} writes){}",
            i + 1,
            step.label(),
            step.reads(),
            step.write,
            if step.is_fused() {
                format!(
                    "  — fuses {} passes into one round-trip",
                    step.num_replaced()
                )
            } else {
                String::new()
            }
        );
    }
    println!(
        "predicted I/O: {} parallel I/Os fused vs {} unfused ({} round-trip(s) saved)",
        fused.predicted_ios(&geom),
        fused.unfused_ios(&geom),
        Plan::from(fused).passes_saved()
    );

    // The planner's view: every candidate route costed both ways.
    let timing = costing_timing(a)?;
    print_candidates(&perm, &geom, &timing)?;
    Ok(())
}

/// The BMMC-route plan for an explicit pass list: DP-fused, or one
/// step per pass under `--no-fuse`.
fn pass_plan(passes: &[Pass], geom: &Geometry, fuse: bool) -> Plan {
    if fuse {
        Plan::from_passes(passes, geom.b(), geom.m())
    } else {
        FusedPlan {
            steps: passes.iter().map(FusedPass::from_single).collect(),
        }
        .into()
    }
}

/// `bmmc-cli run`: plan the permutation, perform it with
/// [`Plan::execute`], and report costs.
pub fn run(a: &Args) -> Result<(), String> {
    let geom = geometry(a)?;
    let perm = load_perm(a, &geom)?;
    let fuse = !a.has("no-fuse");
    let plan = match a.get("algorithm").unwrap_or("auto") {
        "auto" if !fuse => {
            return Err(
                "--no-fuse cannot be combined with --algorithm auto, which runs the \
                 fused plan it costs; use --algorithm factor or bpc"
                    .to_string(),
            )
        }
        "auto" => print_candidates(&perm, &geom, &costing_timing(a)?)?,
        "factor" => {
            let chunk = match a.get("chunk") {
                Some(s) => parse_pow2(s)?,
                None => geom.lg_mb(),
            };
            let fac =
                factor_chunked(&perm, geom.b(), geom.m(), chunk).map_err(|e| e.to_string())?;
            pass_plan(&fac.passes, &geom, fuse)
        }
        "bpc" => {
            let bpc = bpc_baseline_plan(&perm, geom.b(), geom.m()).map_err(|e| e.to_string())?;
            pass_plan(&bpc.passes, &geom, fuse)
        }
        "sort" => {
            let merge: MergeStrategy = a.get("merge").unwrap_or("single").parse()?;
            Plan::sort(&geom, merge).ok_or_else(|| {
                format!(
                    "the {} merge cannot sort at this geometry (fan-in {} < 2)",
                    merge.as_str(),
                    merge.fan_in(&geom)
                )
            })?
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    // Keeps an implicit file-backend scratch dir alive (and removed on
    // exit, even an early error return) for the whole command.
    let mut scratch: Option<TempDir> = None;
    let mut sys = build_system(a, geom, &mut scratch)?;
    match a.get("timing") {
        Some("hdd") => sys.set_timing(TimingModel::hdd()),
        Some("ssd") => sys.set_timing(TimingModel::ssd()),
        Some(other) => return Err(format!("unknown timing model {other:?}")),
        None => {}
    }
    sys.load_records(0, &(0..geom.records() as u64).collect::<Vec<_>>());

    println!("plan {}", plan.describe());
    let report = plan
        .execute(&mut sys, &perm, |&x| x)
        .map_err(|e| e.to_string())?;
    println!(
        "{} step(s): {} — exactly as planned",
        report.num_passes(),
        report.total
    );
    print_transport_costs(&report.msgs, &sys);
    print_recovery(&sys);
    if plan.passes_saved() > 0 {
        println!(
            "pass fusion saved {} disk round-trip(s): {} planned passes ran as {} steps",
            plan.passes_saved(),
            plan.num_steps() + plan.passes_saved(),
            plan.num_steps()
        );
    }
    if let Some(t) = sys.timing() {
        println!(
            "simulated time: {:.2} s ({} seeks, {} sequential accesses)",
            t.elapsed_ms() / 1000.0,
            t.seeks(),
            t.sequential_accesses()
        );
    }
    if a.has("verify") {
        verify_and_report(&mut sys, report.final_portion, &perm)?;
    }
    Ok(())
}

/// Prints the transport cost line for a remote run; in-process runs
/// move no messages and print nothing.
fn print_transport_costs(msgs: &pdm::MsgStats, sys: &DiskSystem<u64>) {
    if msgs.is_zero() {
        return;
    }
    print!("transport: {msgs}");
    let net = sys.network_ms();
    if net > 0.0 {
        print!(", {net:.2} ms simulated network time");
    }
    println!();
}

/// Prints the recovery ledger for a run that needed the retry layer,
/// and its stall time on a line of its own; clean runs (no retries,
/// timeouts, respawns or stalls) print nothing.
fn print_recovery(sys: &DiskSystem<u64>) {
    let r = sys.retry_stats();
    if !r.is_clean() {
        println!("recovery: {r}");
    }
    let stall = sys.stall_ms();
    if stall > 0.0 {
        println!("stalls: {stall:.2} ms of retry backoff and straggler delay");
    }
}

fn verify_and_report(sys: &mut DiskSystem<u64>, portion: usize, perm: &Bmmc) -> Result<(), String> {
    match verify_permutation(sys, portion, perm, |&k| k).map_err(|e| e.to_string())? {
        VerifyOutcome::Correct { reads } => {
            println!("verified: every record at its target address ({reads} reads)");
            Ok(())
        }
        VerifyOutcome::Misplaced {
            address, found_key, ..
        } => Err(format!(
            "VERIFICATION FAILED: address {address} holds record {found_key}"
        )),
    }
}

/// `bmmc-cli detect`: Section 6 detection on a target vector.
pub fn detect(a: &Args) -> Result<(), String> {
    let geom = geometry(a)?;
    let targets: Vec<u64> = match (a.get("targets"), a.get("shuffle"), a.get("builtin")) {
        (Some(path), None, None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let vals: Result<Vec<u64>, _> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::parse)
                .collect();
            vals.map_err(|e| format!("bad target line: {e}"))?
        }
        (None, Some(seed), None) => {
            let seed: u64 = seed.parse().map_err(|_| "bad --shuffle seed".to_string())?;
            let mut v: Vec<u64> = (0..geom.records() as u64).collect();
            v.shuffle(&mut StdRng::seed_from_u64(seed));
            v
        }
        (None, None, Some(_)) => {
            let perm = load_perm(a, &geom)?;
            perm.target_vector()
        }
        _ => {
            return Err(
                "give exactly one of --targets FILE, --shuffle SEED, or --builtin NAME".to_string(),
            )
        }
    };
    if targets.len() != geom.records() {
        return Err(format!(
            "target vector has {} entries, geometry needs N = {}",
            targets.len(),
            geom.records()
        ));
    }
    let mut sys = bmmc::detect::load_target_vector(geom, &targets);
    match detect_bmmc(&mut sys, 0).map_err(|e| e.to_string())? {
        Detection::Bmmc { perm, stats } => {
            let flags = classify(perm.matrix(), geom.b(), geom.m());
            println!(
                "BMMC: yes ({} reads: {} candidate + {} verify; bound {})",
                stats.total(),
                stats.candidate_reads,
                stats.verify_reads,
                bounds::detection_reads(&geom)
            );
            println!(
                "classes: BPC={} MRC={} MLD={} MLD⁻¹={}",
                flags.bpc, flags.mrc, flags.mld, flags.mld_inverse
            );
            print!("{}", spec::to_spec(&perm));
        }
        Detection::NotBmmc { reason, stats } => {
            println!("BMMC: no ({:?}; {} reads)", reason, stats.total());
        }
    }
    Ok(())
}

/// `bmmc-cli spec`: print a builtin in the spec format.
pub fn spec(a: &Args) -> Result<(), String> {
    let n = parse_pow2(a.get("n").unwrap_or("13"))?;
    if n == 0 || n > 64 {
        return Err(format!("--n {n} out of range 1..=64"));
    }
    // For spec output, (b, m) only matter for the class samplers; use
    // a canonical split.
    let b = (n / 4).max(1);
    let m = (n * 2 / 3).max(b + 1);
    let name = a.require("builtin")?;
    let perm = builtins::resolve(name, n, b, m.min(n - 1))?;
    print!("{}", spec::to_spec(&perm));
    Ok(())
}
