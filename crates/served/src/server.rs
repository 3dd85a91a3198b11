//! The Unix-socket server: accept loop, per-connection request
//! handling, and the `pdm-served` binary's entry point.
//!
//! One connection = one client. Each accepted connection gets its own
//! thread and a connection id; jobs submitted on it are owned by that
//! id, and when the connection dies — cleanly or not — every live job
//! it owns is cancelled ([`crate::core::ServiceCore::cancel_owned_by`]),
//! so a crashed client cannot pin disk capacity or scheduler slots.
//! Requests are served strictly in order per connection; `RESULT`
//! blocks its connection (not the service) until the job is terminal.

use crate::core::{ServiceConfig, ServiceCore};
use crate::farm::{DiskFarm, FarmBackend};
use crate::proto;
use pdm::proto::read_frame;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Serves connections on `listener` until accepting fails (i.e. the
/// listener is closed or the socket is unlinked and the process is
/// shutting down). Each connection is handled on its own thread.
pub fn serve_listener(listener: UnixListener, core: Arc<ServiceCore>) {
    let next_conn = AtomicU64::new(1);
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        let conn = next_conn.fetch_add(1, Ordering::Relaxed);
        let core = Arc::clone(&core);
        let _ = std::thread::Builder::new()
            .name(format!("pdm-conn-{conn}"))
            .spawn(move || {
                let _ = handle_conn(stream, &core, conn);
                // Clean or crashed, the client is gone: sweep its jobs.
                core.cancel_owned_by(conn);
            });
    }
}

/// Runs one connection's handshake + request loop. Returns `Ok` on
/// clean EOF; any error also just ends the connection (the caller
/// sweeps ownership either way).
fn handle_conn(mut stream: UnixStream, core: &Arc<ServiceCore>, conn: u64) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut buf = Vec::new();
    let mut out = Vec::new();

    // Handshake: one frame in, one frame out.
    read_frame(&mut reader, &mut buf)?;
    let version = proto::decode_hello(&buf).map_err(io_err)?;
    out.clear();
    if version != proto::VERSION {
        proto::encode_hello_bad(&mut out);
        stream.write_all(&out)?;
        return Ok(());
    }
    proto::encode_hello_ok(&mut out);
    stream.write_all(&out)?;

    loop {
        if read_frame(&mut reader, &mut buf).is_err() {
            return Ok(()); // EOF or a torn frame: connection over
        }
        let request = proto::decode_request(&buf).map_err(io_err)?;
        out.clear();
        match request {
            proto::Request::Submit(spec) => match core.submit(spec, Some(conn)) {
                Ok(id) => proto::encode_submitted(&mut out, id),
                Err(reject) => proto::encode_rejected(&mut out, &reject),
            },
            proto::Request::Status { id: 0 } => {
                proto::encode_overview(&mut out, &core.overview());
            }
            proto::Request::Status { id } => match core.status(id) {
                Some(status) => proto::encode_job(&mut out, &status),
                None => proto::encode_unknown_job(&mut out, id),
            },
            proto::Request::Cancel { id } => {
                proto::encode_cancelled(&mut out, core.cancel(id));
            }
            proto::Request::Result { id } => match core.wait(id) {
                Some(status) => proto::encode_job(&mut out, &status),
                None => proto::encode_unknown_job(&mut out, id),
            },
        }
        stream.write_all(&out)?;
    }
}

fn io_err(e: pdm::PdmError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Entry point for the `pdm-served` binary: parses flags, binds the
/// socket, and serves until killed. Returns the process exit code.
///
/// ```text
/// pdm-served --socket PATH [--block N] [--disks N] [--slots N]
///            [--quantum N] [--max-queue N] [--max-running N]
///            [--sweep-ms N] [--retry-backoff-ms N]
///            [--farm mem|uds] [--diskd PATH] [--max-respawns N]
/// ```
///
/// Sizes are in records (`--block`) and block slots per disk
/// (`--slots`, `--quantum`). `--farm uds` runs one file-backed
/// `pdm-diskd` process per disk (found next to this binary, or at
/// `--diskd`), each behind one pipelined client that every job shares.
/// The first job whose retry layer finds a worker dead relaunches it,
/// at most `--max-respawns` times per disk over the service's lifetime
/// (default 4).
pub fn served_main(args: impl Iterator<Item = String>) -> i32 {
    let mut socket: Option<PathBuf> = None;
    let mut config = ServiceConfig::default();
    let mut farm_uds = false;
    let mut diskd: Option<PathBuf> = None;
    let mut max_respawns: u32 = 4;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("pdm-served: {name} requires a value");
            }
            v
        };
        fn parsed<T: std::str::FromStr>(name: &str, v: Option<String>) -> Option<T> {
            let parsed = v.as_deref().and_then(|v| v.parse().ok());
            if parsed.is_none() {
                eprintln!("pdm-served: {name} wants a number in range, got {v:?}");
            }
            parsed
        }
        match flag.as_str() {
            "--socket" => socket = value("--socket").map(PathBuf::from),
            "--block" => match parsed("--block", value("--block")) {
                Some(v) => config.block = v,
                None => return 2,
            },
            "--disks" => match parsed("--disks", value("--disks")) {
                Some(v) => config.disks = v,
                None => return 2,
            },
            "--slots" => match parsed("--slots", value("--slots")) {
                Some(v) => config.slots = v,
                None => return 2,
            },
            "--quantum" => match parsed("--quantum", value("--quantum")) {
                Some(v) => config.quantum = v,
                None => return 2,
            },
            "--max-queue" => match parsed("--max-queue", value("--max-queue")) {
                Some(v) => config.max_queue = v,
                None => return 2,
            },
            "--max-running" => match parsed("--max-running", value("--max-running")) {
                Some(v) => config.max_running = v,
                None => return 2,
            },
            "--sweep-ms" => match parsed("--sweep-ms", value("--sweep-ms")) {
                Some(v) => config.sweep_ms = v,
                None => return 2,
            },
            "--retry-backoff-ms" => {
                match parsed("--retry-backoff-ms", value("--retry-backoff-ms")) {
                    Some(v) => config.retry_backoff_ms = v,
                    None => return 2,
                }
            }
            "--farm" => match value("--farm").as_deref() {
                Some("mem") => farm_uds = false,
                Some("uds") => farm_uds = true,
                other => {
                    eprintln!("pdm-served: --farm wants mem or uds, got {other:?}");
                    return 2;
                }
            },
            "--diskd" => diskd = value("--diskd").map(PathBuf::from),
            "--max-respawns" => match parsed("--max-respawns", value("--max-respawns")) {
                Some(v) => max_respawns = v,
                None => return 2,
            },
            other => {
                eprintln!("pdm-served: unknown flag {other}");
                return 2;
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!(
            "usage: pdm-served --socket PATH [--block N] [--disks N] [--slots N] \
             [--quantum N] [--max-queue N] [--max-running N] [--sweep-ms N] \
             [--retry-backoff-ms N] [--farm mem|uds] [--diskd PATH] [--max-respawns N]"
        );
        return 2;
    };
    let backend = if farm_uds {
        let Some(bin) = diskd.or_else(pdm::transport::find_diskd) else {
            eprintln!(
                "pdm-served: --farm uds needs the pdm-diskd worker binary \
                 (build it, set PDM_DISKD_BIN, or pass --diskd PATH)"
            );
            return 2;
        };
        FarmBackend::Uds { bin, max_respawns }
    } else {
        FarmBackend::Mem
    };
    let farm = match DiskFarm::with_backend(config.block, config.disks, config.slots, &backend) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("pdm-served: farm: {e}");
            return 1;
        }
    };
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pdm-served: bind {}: {e}", socket.display());
            return 1;
        }
    };
    let core = ServiceCore::new_with_farm(config, farm);
    println!(
        "pdm-served: listening on {} (B={} D={} slots={} quantum={} farm={} sweep={}ms)",
        socket.display(),
        config.block,
        config.disks,
        config.slots,
        config.quantum,
        if farm_uds { "uds" } else { "mem" },
        config.sweep_ms
    );
    serve_listener(listener, Arc::clone(&core));
    core.shutdown();
    0
}

#[cfg(test)]
mod tests {
    use super::served_main;

    /// Runs `pdm-served` on a UDS farm whose worker binary is missing,
    /// with the given respawn budget.
    fn serve_without_worker(budget: &str) -> i32 {
        let dir = std::env::temp_dir();
        let socket = dir.join(format!("pdm-served-budget-{}.sock", std::process::id()));
        let missing = dir.join(format!("pdm-served-no-diskd-{}", std::process::id()));
        let args = [
            "--socket",
            socket.to_str().unwrap(),
            "--farm",
            "uds",
            "--diskd",
            missing.to_str().unwrap(),
            "--max-respawns",
            budget,
        ];
        let code = served_main(args.into_iter().map(String::from));
        assert!(!socket.exists(), "no socket may be bound");
        code
    }

    #[test]
    fn an_out_of_range_respawn_budget_is_refused() {
        // 2^32 once wrapped to a budget of 0; it is refused like any
        // malformed flag, before the farm is built.
        for budget in ["4294967296", "4294967297", "-1", "four"] {
            assert_eq!(serve_without_worker(budget), 2, "--max-respawns {budget}");
        }
        // The largest budget is accepted, so the farm is reached and
        // fails to launch the missing worker.
        assert_eq!(serve_without_worker("4294967295"), 1);
    }
}
