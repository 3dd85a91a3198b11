//! `bmmc-cli` — drive the BMMC permutation library from the shell.
//!
//! ```text
//! bmmc-cli info    --builtin bit-reversal --geometry 2^16,2^4,2^3,2^10
//! bmmc-cli factor  --builtin random:7     --geometry 2^13,2^3,2^4,2^8
//! bmmc-cli run     --builtin transpose:8  --geometry 2^16,2^4,2^3,2^10 --verify
//! bmmc-cli run     --spec perm.bmmc       --geometry ... --algorithm sort
//! bmmc-cli detect  --targets targets.txt  --geometry 2^13,2^3,2^4,2^8
//! bmmc-cli spec    --builtin gray --n 13
//! bmmc-cli submit  --socket /tmp/pdm.sock --job sort --records 2^16 --memory 2^10
//! ```

mod args;
mod builtins;
mod commands;
mod service;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
bmmc-cli — BMMC permutations on a simulated parallel disk system

USAGE:
  bmmc-cli <command> [flags]

COMMANDS:
  info     classify a permutation and print every bound the paper states
  factor   print the Section 5 factoring, the fused pass plan, and the
           full candidate table (predicted I/Os, modeled wall-clock,
           and which route auto picks)
  run      plan the permutation, perform it on the simulated disk
           array, and check the measured I/Os against the plan
  detect   run Section 6 detection on a vector of target addresses
  spec     print a permutation in the spec file format
  submit   send a job to a running pdm-served instance
  status   one job's progress (--id N) or the service overview
  cancel   request cancellation of a submitted job
  help     this text

COMMON FLAGS:
  --geometry N,B,D,M    disk geometry, powers of two (e.g. 2^16,2^4,2^3,2^10)
  --builtin NAME        a named permutation (see below)
  --spec FILE           read the permutation from a spec file instead

RUN FLAGS:
  --algorithm WHICH     auto (default) | factor | sort | bpc. auto
                        costs every candidate plan (DP-fused BMMC
                        route and both sort strategies) with the
                        seek-aware wall-clock model (--timing, default
                        hdd), prints the table, and runs the cheapest
  --merge WHICH         sort merge strategy: single | forecast. single
                        (default) is striped, fan-in M/BD−1; forecast
                        is block-granular Vitter–Shriver forecasting,
                        fan-in M/B−D−1
  --backend WHICH       mem (default) | file — file runs every pass
                        against one real file per disk (positional I/O)
  --dir PATH            file backend: directory for the per-disk files
                        (default: a self-cleaning temp directory)
  --threaded            service parallel I/Os on persistent per-disk
                        threads (overlapped reads; same charged cost)
  --transport WHICH     how disk commands reach the disks: inproc
                        (default, channels) | uds (one pdm-diskd worker
                        process per disk over Unix sockets) | sim
                        (deterministic simulated network; latency and
                        bandwidth charged into --timing). Placement and
                        parallel-I/O counts are identical across all
                        three; message/byte counters are printed for
                        uds and sim
  --timing MODEL        also simulate service time: hdd | ssd
  --retries N           allow N retries per disk operation after a
                        retryable failure (transient fault, timeout,
                        severed link), with worker respawn for uds;
                        default 0 = fail fast. A non-clean run prints
                        its recovery ledger
  --transient-fault OP,DISK
                        inject a one-shot transient transfer fault on
                        DISK at parallel I/O OP (testing; pair with
                        --retries to watch it recover)
  --chunk K             swap/erase chunk-size override (ablation)
  --verify              scan the output and confirm every placement
  --no-fuse             factor | bpc: disable pass fusion (one
                        round-trip per planned pass, for differential
                        comparison); auto rejects it

SERVICE FLAGS (submit / status / cancel):
  --socket PATH         the pdm-served Unix socket (required)
  --job KIND            submit: bmmc | bpc | sort | permute
  --records 2^k         submit: problem size N in records
  --memory 2^k          submit: memory size M in records (B and D are
                        the server's)
  --seed N              submit: permutation/shuffle seed (default 0)
  --fault OP,DISK       submit: sever DISK at parallel I/O OP (testing)
  --max-retries N       submit: let the service re-run the job up to N
                        times after a retryable failure (default 0)
  --deadline-ms N       submit: fail the job if not done N ms after
                        submission (bounds the retry loop)
  --detach              submit: print the job id instead of waiting
  --id N                status/cancel: the job id

DETECT FLAGS:
  --targets FILE        one target address per line (decimal), length N
  --shuffle SEED        use a random non-BMMC shuffle instead

SPEC FLAGS:
  --n BITS              address width for --builtin (spec has no geometry)

BUILTINS:
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(argv, &["verify", "no-fuse", "threaded", "detach"]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "info" => commands::info(&parsed),
        "factor" => commands::factor(&parsed),
        "run" => commands::run(&parsed),
        "detect" => commands::detect(&parsed),
        "spec" => commands::spec(&parsed),
        "submit" => service::submit(&parsed),
        "status" => service::status(&parsed),
        "cancel" => service::cancel(&parsed),
        "help" | "" => {
            println!("{USAGE}{}", builtins::BUILTIN_HELP);
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `bmmc-cli help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
