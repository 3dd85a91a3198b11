//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` of measured time and prints, to
//! standard output: a table of the metrics with their units, a
//! `reference` JSON line of numbers that are reported but not gated
//! (host, seed, roofline, ratio to serial), and as the last line the
//! result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones and writes the spans to `perfbench/out/` (relative to the
//! working directory, the repository root).
//!
//! Exits 1 when any operation failed its output or model check, and 2
//! on a usage error.

use bmmc_perfbench::{json_escape, json_num, run, RunConfig, Sizes, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench/out");
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::full(),
        out_dir: out_dir.clone(),
    };
    let outcome = run(args.workload, &cfg);

    for e in &outcome.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let mut stdout = std::io::stdout().lock();
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    let _ = writeln!(
        stdout,
        "# {} seed {} ({kind}, {} s)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for m in &outcome.metrics {
        let _ = writeln!(stdout, "{:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &outcome.spans_jsonl {
        let path = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => {
                let _ = writeln!(stdout, "# spans: {}", path.display());
            }
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let reference: Vec<String> = outcome
        .reference
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    let _ = writeln!(stdout, "{{\"reference\":{{{}}}}}", reference.join(","));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    let _ = writeln!(
        stdout,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
