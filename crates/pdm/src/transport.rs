//! Remote disk-service transports: the wire protocol of
//! [`crate::proto`] carried over real sockets or a simulated network.
//!
//! Three [`Transport`] implementations exist:
//!
//! * [`crate::parallel::InProcTransport`] — the default: in-process
//!   service threads (`min(D, available_parallelism)` of them behind a
//!   [`crate::parallel::DiskPool`]), each disk fed a run of commands at
//!   a time, zero serialization (`crate::parallel`).
//! * [`UdsTransport`] — one `pdm-diskd` worker **process** per disk,
//!   framed messages over a Unix-domain socket. Submission is a channel
//!   send to a per-disk writer thread that encodes and writes request
//!   frames one command at a time, ignoring [`Cmd::more`] (so a D-disk
//!   parallel I/O costs the submitting thread D channel sends, and the
//!   D socket syscalls run concurrently); a per-disk reader thread
//!   matches reply frames to pending commands in FIFO order (sound
//!   because one writer thread per socket writes, the socket is a FIFO
//!   byte stream, and the single-threaded worker replies in request
//!   order). Submission therefore stays split-phase: the engine's
//!   read-ahead overlap pipelines requests over the socket exactly as
//!   it pipelines them over channels. It is the one client of
//!   `pdm-diskd`, with those two threads per disk: a direct
//!   [`TransportConfig::Uds`] system owns one per disk, and the job
//!   service's UDS disk farm shares one per disk among its tenants.
//! * [`SimNetTransport`] — a deterministic in-process "network": every
//!   command is encoded to wire bytes, handled by the same
//!   [`Worker`] the out-of-process server runs, and decoded back, with
//!   a [`SimNetModel`] charging latency and bandwidth into the
//!   system's [`crate::timing::TimingTracker`]. Placement is
//!   byte-identical to InProc (the `ByteRecord` round trip is
//!   lossless), so CI can gate the full wire path without spawning
//!   processes.
//!
//! The choice is configuration, not code: every algorithm takes
//! `&mut DiskSystem<R>` and runs unmodified on any transport
//! ([`crate::system::DiskSystem::new_with_transport`]). A TCP
//! transport to another host is one more impl of the same trait.

use crate::backend::DiskUnit;
use crate::error::{PdmError, Result};
use crate::parallel::{fail_disconnected, Cmd, Completion, CompletionQueue, Transport};
use crate::proto::{self, read_frame, Worker, FRAME_HEADER, PROTO_VERSION};
use crate::record::{ByteRecord, Record};
use crate::retry::RetryPolicy;
use crate::stats::MsgStats;
use crate::system::Backend;
use crate::tempdir::TempDir;
use std::ffi::OsString;
use std::io::{BufReader, Write};
use std::marker::PhantomData;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which transport a [`crate::system::DiskSystem`] talks to its disk
/// workers over.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum TransportConfig {
    /// In-process service threads (the default; zero-copy,
    /// byte-identical to the pre-transport behaviour).
    #[default]
    InProc,
    /// One `pdm-diskd` worker process per disk over Unix-domain
    /// sockets.
    Uds(UdsConfig),
    /// The deterministic simulated network.
    SimNet(SimNetModel),
}

/// Configuration for the Unix-domain-socket transport.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UdsConfig {
    /// Directory for the per-disk socket files; a self-cleaning temp
    /// directory when `None`.
    pub socket_dir: Option<PathBuf>,
    /// Path to the `pdm-diskd` worker binary; discovered via
    /// [`find_diskd`] when `None`.
    pub worker_bin: Option<PathBuf>,
    /// Retry/timeout/respawn policy installed on the
    /// [`crate::system::DiskSystem`] built over this transport. The
    /// default keeps PR 6/7's fail-fast behaviour.
    pub retry: RetryPolicy,
}

/// Latency/bandwidth parameters of the simulated network
/// (milliseconds and megabytes per second). Every frame is charged
/// `latency_ms + bytes / mb_per_s`, serialized through the client's
/// single interface — the link-limited bound, deliberately
/// conservative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimNetModel {
    /// Per-frame latency in milliseconds.
    pub latency_ms: f64,
    /// Link bandwidth in megabytes per second.
    pub mb_per_s: f64,
}

impl Default for SimNetModel {
    fn default() -> Self {
        Self::lan()
    }
}

impl SimNetModel {
    /// A datacenter-LAN-flavoured default: 50 µs per frame, 1 GB/s.
    pub fn lan() -> Self {
        SimNetModel {
            latency_ms: 0.05,
            mb_per_s: 1000.0,
        }
    }

    /// Simulated time for one frame of `bytes`.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency_ms + bytes as f64 / (self.mb_per_s * 1000.0)
    }
}

// ---------------------------------------------------------------------
// The server side (pdm-diskd and in-process test servers).

/// Serves one client connection over `stream` until STOP or EOF:
/// HELLO handshake (version and geometry validation), then the
/// request/reply loop. This is the entire body of a `pdm-diskd`
/// worker.
pub fn serve_stream(stream: UnixStream, worker: &mut Worker) -> Result<()> {
    serve_stream_with_version(stream, worker, PROTO_VERSION)
}

/// [`serve_stream`] with an explicit version — lets tests stand up a
/// worker speaking the "wrong" protocol to prove the handshake refuses
/// it.
pub fn serve_stream_with_version(
    stream: UnixStream,
    worker: &mut Worker,
    version: u32,
) -> Result<()> {
    let io_err = |what: &str, e: std::io::Error| PdmError::Io(format!("{what}: {e}"));
    // Buffer the read side: pipelined requests arrive in batches, so
    // one syscall often yields many frames.
    let mut reader = BufReader::with_capacity(
        64 * 1024,
        stream
            .try_clone()
            .map_err(|e| io_err("clone worker socket", e))?,
    );
    let mut writer = stream;
    let mut frame = Vec::new();
    let mut reply = Vec::new();

    read_frame(&mut reader, &mut frame).map_err(|e| io_err("read HELLO", e))?;
    let hello = proto::decode_hello(&frame)?;
    if hello.version != version {
        proto::encode_hello_bad_version(&mut reply, version);
        let _ = writer.write_all(&reply);
        return Ok(());
    }
    if hello.block_bytes() != worker.block_bytes() || hello.slots != worker.slots() {
        proto::encode_hello_bad_geometry(&mut reply, worker.block_bytes(), worker.slots());
        let _ = writer.write_all(&reply);
        return Ok(());
    }
    proto::encode_hello_ok(&mut reply, version);
    writer
        .write_all(&reply)
        .map_err(|e| io_err("write HELLO reply", e))?;

    loop {
        match read_frame(&mut reader, &mut frame) {
            Ok(_) => {}
            // Client gone (EOF or reset): a normal end of session.
            Err(_) => return Ok(()),
        }
        reply.clear();
        if !worker.handle(&frame, &mut reply)? {
            return Ok(()); // STOP
        }
        writer
            .write_all(&reply)
            .map_err(|e| io_err("write reply", e))?;
    }
}

/// Entry point for the `pdm-diskd` worker binary: binds the socket,
/// accepts exactly one client, serves it, exits. Usage:
///
/// ```text
/// pdm-diskd --socket PATH --block-bytes N --slots N [--file PATH] [--reopen]
/// ```
///
/// `--reopen` (respawn path) reopens an existing `--file` store
/// without truncating it, so a relaunched worker keeps the blocks its
/// predecessor wrote.
///
/// Returns the process exit code. Kept in the library so the binary is
/// a two-line wrapper and the logic is unit-testable.
pub fn diskd_main(args: impl Iterator<Item = String>) -> i32 {
    let mut socket: Option<PathBuf> = None;
    let mut block_bytes: Option<usize> = None;
    let mut slots: Option<usize> = None;
    let mut file: Option<PathBuf> = None;
    let mut reopen = false;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("pdm-diskd: {name} requires a value");
            }
            v
        };
        match flag.as_str() {
            "--socket" => socket = value("--socket").map(PathBuf::from),
            "--block-bytes" => block_bytes = value("--block-bytes").and_then(|v| v.parse().ok()),
            "--slots" => slots = value("--slots").and_then(|v| v.parse().ok()),
            "--file" => file = value("--file").map(PathBuf::from),
            "--reopen" => reopen = true,
            other => {
                eprintln!("pdm-diskd: unknown flag {other}");
                return 2;
            }
        }
    }
    let (Some(socket), Some(block_bytes), Some(slots)) = (socket, block_bytes, slots) else {
        eprintln!(
            "usage: pdm-diskd --socket PATH --block-bytes N --slots N [--file PATH] [--reopen]"
        );
        return 2;
    };
    let mut worker = match &file {
        Some(path) => {
            let opened = if reopen {
                Worker::open_file(path, block_bytes, slots)
            } else {
                Worker::new_file(path, block_bytes, slots)
            };
            match opened {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("pdm-diskd: {e}");
                    return 1;
                }
            }
        }
        None => Worker::new_mem(block_bytes, slots),
    };
    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pdm-diskd: bind {}: {e}", socket.display());
            return 1;
        }
    };
    let stream = match listener.accept() {
        Ok((s, _)) => s,
        Err(e) => {
            eprintln!("pdm-diskd: accept: {e}");
            return 1;
        }
    };
    // One client per worker; unlink the socket as soon as it is taken.
    let _ = std::fs::remove_file(&socket);
    match serve_stream(stream, &mut worker) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("pdm-diskd: {e}");
            1
        }
    }
}

/// Locates the `pdm-diskd` worker binary: the `PDM_DISKD_BIN`
/// environment variable if set, else next to the current executable
/// (hopping out of cargo's `deps/` directory for test binaries).
pub fn find_diskd() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok();
    locate_diskd(std::env::var_os("PDM_DISKD_BIN"), exe.as_deref())
}

/// [`find_diskd`]'s lookup, given the value of `PDM_DISKD_BIN` and the
/// path of the running executable.
fn locate_diskd(env_override: Option<OsString>, exe: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = env_override {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let mut dir = exe?.parent()?.to_path_buf();
    for _ in 0..2 {
        let cand = dir.join("pdm-diskd");
        if cand.is_file() {
            return Some(cand);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

/// Everything needed to relaunch a dead `pdm-diskd` worker and
/// reconnect to it: the spawn parameters [`spawn_uds_workers`] used,
/// retained on the transport so [`Transport::respawn`] can redo the
/// spawn — with `--reopen`, so a file-backed store survives its
/// worker. That respawn is the only code that relaunches a worker; a
/// [`crate::system::DiskSystem`]'s retry layer calls it, directly or
/// through a job service tenant's shared link.
#[derive(Clone, Debug, PartialEq)]
pub struct RespawnSpec {
    /// The worker binary.
    pub bin: PathBuf,
    /// Socket path the worker listens on.
    pub socket: PathBuf,
    /// Records per block.
    pub block: usize,
    /// Block slots on the disk.
    pub slots: usize,
    /// Backing file for file-backed workers. `None` means
    /// memory-backed: the store dies with the process, so respawning
    /// would silently hand back a zeroed disk — refused instead.
    pub file: Option<PathBuf>,
}

impl RespawnSpec {
    /// Spawns a worker per this spec. `reopen` preserves an existing
    /// file-backed store (the respawn path); the initial spawn
    /// truncates for a fresh disk.
    fn launch(&self, block_bytes: usize, reopen: bool) -> Result<Child> {
        let _ = std::fs::remove_file(&self.socket);
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--socket")
            .arg(&self.socket)
            .arg("--block-bytes")
            .arg(block_bytes.to_string())
            .arg("--slots")
            .arg(self.slots.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(file) = &self.file {
            cmd.arg("--file").arg(file);
            if reopen {
                cmd.arg("--reopen");
            }
        }
        cmd.spawn()
            .map_err(|e| PdmError::Io(format!("spawn {}: {e}", self.bin.display())))
    }
}

// ---------------------------------------------------------------------
// The UDS client transport.

/// Shared request/reply counters (the submitting thread and the reader
/// thread update different halves).
#[derive(Default)]
struct Counters {
    msgs_out: AtomicU64,
    msgs_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> MsgStats {
        MsgStats {
            messages_sent: self.msgs_out.load(Ordering::Relaxed),
            messages_received: self.msgs_in.load(Ordering::Relaxed),
            bytes_sent: self.bytes_out.load(Ordering::Relaxed),
            bytes_received: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}

/// A submitted command awaiting its reply frame, queued to the reader
/// thread in submission order.
struct PendingOp<R> {
    idx: usize,
    is_read: bool,
    buf: Vec<R>,
    done: CompletionQueue<R>,
}

/// The client side of one disk's Unix-domain-socket connection (see
/// the module docs for the pipelining discipline).
pub struct UdsTransport<R: Record + ByteRecord> {
    disk: usize,
    /// The connected socket, kept for severing on disconnect/teardown
    /// (the writer and reader threads hold their own clones).
    stream: UnixStream,
    cmd_tx: Option<Sender<Cmd<R>>>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    child: Option<Child>,
    counters: Arc<Counters>,
    /// Set by whichever side sees the link die (submit, writer thread,
    /// fault injection); later commands fail without touching the
    /// socket.
    dead: Arc<AtomicBool>,
    /// Keeps an auto-created socket directory alive for the
    /// connection's lifetime.
    _socket_dir: Option<Arc<TempDir>>,
    /// Spawn parameters retained for [`Transport::respawn`]; `None`
    /// for externally managed workers (which this client cannot
    /// relaunch).
    respawn_spec: Option<RespawnSpec>,
}

impl<R: Record + ByteRecord> UdsTransport<R> {
    /// Connects to a listening worker at `path` and performs the
    /// HELLO handshake. `child` is the worker process to reap on
    /// shutdown, if this client spawned it.
    pub fn connect(
        disk: usize,
        path: &Path,
        block: usize,
        slots: usize,
        child: Option<Child>,
        socket_dir: Option<Arc<TempDir>>,
    ) -> Result<Self> {
        let stream =
            connect_with_retry(path, Duration::from_secs(10)).map_err(|e| e.with_disk(disk))?;
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, block, R::BYTES, slots);
        stream
            .try_clone()
            .and_then(|mut w| w.write_all(&frame))
            .map_err(|e| PdmError::Io(format!("disk {disk} HELLO: {e}")))?;
        let mut reader_stream = stream
            .try_clone()
            .map_err(|e| PdmError::Io(format!("disk {disk} socket clone: {e}")))?;
        read_frame(&mut reader_stream, &mut frame)
            .map_err(|e| PdmError::Io(format!("disk {disk} HELLO reply: {e}")))?;
        proto::decode_hello_reply(&frame, PROTO_VERSION).map_err(|e| e.with_disk(disk))?;

        let counters = Arc::new(Counters::default());
        let dead = Arc::new(AtomicBool::new(false));
        let (pending_tx, pending_rx) = channel::<PendingOp<R>>();
        let (cmd_tx, cmd_rx) = channel::<Cmd<R>>();
        let reader = {
            let counters = Arc::clone(&counters);
            let dead = Arc::clone(&dead);
            std::thread::Builder::new()
                .name(format!("pdm-uds-{disk}"))
                .spawn(move || {
                    reader_loop::<R>(disk, reader_stream, pending_rx, counters, dead, block)
                })
                .map_err(|e| PdmError::Io(format!("spawn uds reader: {e}")))?
        };
        let writer = {
            let counters = Arc::clone(&counters);
            let dead = Arc::clone(&dead);
            let writer_stream = stream
                .try_clone()
                .map_err(|e| PdmError::Io(format!("disk {disk} socket clone: {e}")))?;
            std::thread::Builder::new()
                .name(format!("pdm-uds-w-{disk}"))
                .spawn(move || {
                    writer_loop::<R>(disk, writer_stream, cmd_rx, pending_tx, counters, dead)
                })
                .map_err(|e| PdmError::Io(format!("spawn uds writer: {e}")))?
        };
        Ok(UdsTransport {
            disk,
            stream,
            cmd_tx: Some(cmd_tx),
            writer: Some(writer),
            reader: Some(reader),
            child,
            counters,
            dead,
            _socket_dir: socket_dir,
            respawn_spec: None,
        })
    }

    /// Retains the spawn parameters so a dead worker can be relaunched
    /// by [`Transport::respawn`].
    pub fn set_respawn_spec(&mut self, spec: RespawnSpec) {
        self.respawn_spec = Some(spec);
    }

    fn teardown(&mut self, graceful: bool) {
        if graceful && !self.dead.load(Ordering::Relaxed) {
            if let Some(tx) = self.cmd_tx.as_ref() {
                let _ = tx.send(Cmd::Stop);
            }
        }
        // Dropping the command sender ends the writer loop once the
        // queue drains; the writer dropping the pending sender then
        // ends the reader the same way. Severing the socket unblocks
        // either thread stuck mid-I/O.
        self.cmd_tx = None;
        if !graceful {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(mut child) = self.child.take() {
            if self.dead.load(Ordering::Relaxed) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// Encodes and writes request frames for one disk, then registers each
/// op with the reader in the exact order written (one writer per
/// socket, so pending order equals wire order). A write failure marks
/// the link dead and answers that and every later queued command with
/// `Disconnected`, buffers attached.
fn writer_loop<R: Record + ByteRecord>(
    disk: usize,
    mut stream: UnixStream,
    cmd_rx: Receiver<Cmd<R>>,
    pending_tx: Sender<PendingOp<R>>,
    counters: Arc<Counters>,
    dead: Arc<AtomicBool>,
) {
    let mut frame = Vec::new();
    while let Ok(cmd) = cmd_rx.recv() {
        if dead.load(Ordering::Relaxed) {
            fail_disconnected(cmd, disk);
            continue;
        }
        frame.clear();
        let (idx, is_read, buf, done) = match cmd {
            Cmd::Read {
                slot,
                buf,
                idx,
                done,
                ..
            } => {
                proto::encode_read(&mut frame, idx as u64, slot as u64);
                (idx, true, buf, done)
            }
            Cmd::Write {
                slot,
                buf,
                idx,
                done,
                ..
            } => {
                proto::encode_write(&mut frame, idx as u64, slot as u64, &buf);
                (idx, false, buf, done)
            }
            Cmd::Stop => {
                proto::encode_stop(&mut frame);
                let _ = stream.write_all(&frame);
                break;
            }
        };
        if stream.write_all(&frame).is_err() {
            dead.store(true, Ordering::Relaxed);
            done.send(Completion {
                idx,
                disk,
                buf,
                result: Err(PdmError::Disconnected { disk }),
            });
            continue;
        }
        counters.msgs_out.fetch_add(1, Ordering::Relaxed);
        counters
            .bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if let Err(send_err) = pending_tx.send(PendingOp {
            idx,
            is_read,
            buf,
            done,
        }) {
            // The reader is gone (socket died): answer directly.
            dead.store(true, Ordering::Relaxed);
            let p = send_err.0;
            p.done.send(Completion {
                idx: p.idx,
                disk,
                buf: p.buf,
                result: Err(PdmError::Disconnected { disk }),
            });
        }
    }
    // Dropping pending_tx lets the reader drain in-flight ops and exit.
}

/// Matches reply frames to pending commands in FIFO order and fires
/// their completions; a broken socket marks the link dead — a worker
/// that crashed on its own is seen only here — and answers the rest
/// with `Disconnected`.
fn reader_loop<R: Record + ByteRecord>(
    disk: usize,
    stream: UnixStream,
    pending_rx: Receiver<PendingOp<R>>,
    counters: Arc<Counters>,
    dead: Arc<AtomicBool>,
    block: usize,
) {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut frame = Vec::new();
    while let Ok(mut p) = pending_rx.recv() {
        let result = match read_frame(&mut reader, &mut frame) {
            Ok(wire_bytes) => {
                counters.msgs_in.fetch_add(1, Ordering::Relaxed);
                counters
                    .bytes_in
                    .fetch_add(wire_bytes as u64, Ordering::Relaxed);
                match proto::decode_reply(&frame) {
                    Ok(reply) => {
                        debug_assert_eq!(reply.idx, p.idx as u64, "reply out of order");
                        match reply.result {
                            Ok(payload) if p.is_read => {
                                if payload.len() == block * R::BYTES {
                                    for (chunk, r) in
                                        payload.chunks_exact(R::BYTES).zip(p.buf.iter_mut())
                                    {
                                        *r = R::from_bytes(chunk);
                                    }
                                    Ok(())
                                } else {
                                    Err(PdmError::Io(format!(
                                        "disk {disk} read reply carries {} bytes, expected {}",
                                        payload.len(),
                                        block * R::BYTES
                                    )))
                                }
                            }
                            Ok(_) => Ok(()),
                            Err(e) => Err(e),
                        }
                    }
                    Err(e) => Err(e),
                }
            }
            Err(_) => {
                dead.store(true, Ordering::Relaxed);
                Err(PdmError::Disconnected { disk })
            }
        };
        p.done.send(Completion {
            idx: p.idx,
            disk,
            buf: p.buf,
            result,
        });
    }
}

impl<R: Record + ByteRecord> Transport<R> for UdsTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead.load(Ordering::Relaxed) {
            fail_disconnected(cmd, self.disk);
            return;
        }
        if matches!(cmd, Cmd::Stop) {
            // Graceful stop flows through teardown so the threads join.
            return;
        }
        match self.cmd_tx.as_ref().map(|tx| tx.send(cmd)) {
            Some(Ok(())) => {}
            Some(Err(send_err)) => {
                self.dead.store(true, Ordering::Relaxed);
                fail_disconnected(send_err.0, self.disk);
            }
            None => unreachable!("cmd_tx lives until teardown"),
        }
    }

    fn message_stats(&self) -> MsgStats {
        self.counters.snapshot()
    }

    fn inject_disconnect(&mut self) {
        self.dead.store(true, Ordering::Relaxed);
        // Sever the socket (in-flight replies error out on the reader)
        // and kill the worker — the crash we are simulating.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
    }

    fn respawn(&mut self) -> Result<bool> {
        if !self.dead.load(Ordering::Relaxed) {
            return Ok(false);
        }
        let Some(spec) = self.respawn_spec.take() else {
            return Err(PdmError::Io(format!(
                "disk {}: worker is externally managed, cannot respawn",
                self.disk
            )));
        };
        if spec.file.is_none() {
            // A relaunched memory-backed worker comes up zeroed —
            // that is data loss dressed as recovery. Refuse.
            self.respawn_spec = Some(spec);
            return Err(PdmError::Io(format!(
                "disk {}: memory-backed worker lost its store with the process, cannot respawn",
                self.disk
            )));
        }
        // Join the dead link's threads and reap the old child, then
        // relaunch with --reopen and redo the handshake.
        self.teardown(false);
        let fresh = spec.launch(spec.block * R::BYTES, true).and_then(|child| {
            Self::connect(
                self.disk,
                &spec.socket,
                spec.block,
                spec.slots,
                Some(child),
                self._socket_dir.clone(),
            )
        });
        match fresh {
            Ok(mut fresh) => {
                // Message counters are per-disk, not per-process: carry
                // the dead incarnation's totals forward.
                let old = self.counters.snapshot();
                fresh
                    .counters
                    .msgs_out
                    .fetch_add(old.messages_sent, Ordering::Relaxed);
                fresh
                    .counters
                    .msgs_in
                    .fetch_add(old.messages_received, Ordering::Relaxed);
                fresh
                    .counters
                    .bytes_out
                    .fetch_add(old.bytes_sent, Ordering::Relaxed);
                fresh
                    .counters
                    .bytes_in
                    .fetch_add(old.bytes_received, Ordering::Relaxed);
                fresh.respawn_spec = Some(spec);
                // The replaced (already torn down) incarnation drops
                // here; its teardown is idempotent.
                *self = fresh;
                Ok(true)
            }
            Err(e) => {
                self.respawn_spec = Some(spec);
                Err(e)
            }
        }
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        self.teardown(true);
        None
    }
}

impl<R: Record + ByteRecord> Drop for UdsTransport<R> {
    fn drop(&mut self) {
        self.teardown(true);
    }
}

fn connect_with_retry(path: &Path, timeout: Duration) -> Result<UnixStream> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() > timeout {
                    return Err(PdmError::Io(format!(
                        "connect {}: {e} (worker not listening)",
                        path.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Spawns one `pdm-diskd` worker process per disk and connects a
/// [`UdsTransport`] to each. Workers are spawned first and connected
/// after, so their startups overlap. `slots` is blocks per disk;
/// the `backend` chooses memory- or file-backed worker storage.
pub fn spawn_uds_workers<R: Record + ByteRecord>(
    disks: usize,
    block: usize,
    slots: usize,
    backend: &Backend,
    cfg: &UdsConfig,
) -> Result<Vec<Box<dyn Transport<R>>>> {
    let bin = match &cfg.worker_bin {
        Some(p) => p.clone(),
        None => find_diskd().ok_or_else(|| {
            PdmError::Config(
                "pdm-diskd worker binary not found; build it (cargo build) or set PDM_DISKD_BIN"
                    .into(),
            )
        })?,
    };
    let (socket_base, guard) = match &cfg.socket_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
            (dir.clone(), None)
        }
        None => {
            let tmp = Arc::new(TempDir::new("pdm-uds"));
            (tmp.path().to_path_buf(), Some(tmp))
        }
    };
    if let Backend::File { dir } = backend {
        std::fs::create_dir_all(dir)
            .map_err(|e| PdmError::Io(format!("create_dir_all {}: {e}", dir.display())))?;
    }

    let mut children: Vec<(RespawnSpec, Child)> = Vec::with_capacity(disks);
    for d in 0..disks {
        let spec = RespawnSpec {
            bin: bin.clone(),
            socket: socket_base.join(format!("disk{d:03}.sock")),
            block,
            slots,
            file: match backend {
                Backend::File { dir } => Some(dir.join(format!("disk{d:03}.bin"))),
                _ => None,
            },
        };
        match spec.launch(block * R::BYTES, false) {
            Ok(child) => children.push((spec, child)),
            Err(e) => {
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }

    let mut transports: Vec<Box<dyn Transport<R>>> = Vec::with_capacity(disks);
    let mut children = children.into_iter();
    for d in 0..disks {
        let (spec, child) = children.next().expect("one child per disk");
        match UdsTransport::<R>::connect(d, &spec.socket, block, slots, Some(child), guard.clone())
        {
            Ok(mut t) => {
                t.set_respawn_spec(spec);
                transports.push(Box::new(t));
            }
            Err(e) => {
                // Connected transports clean up on drop; reap the rest.
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    Ok(transports)
}

// ---------------------------------------------------------------------
// The simulated-network transport.

/// The deterministic simulated network: request and reply take the
/// full encode → [`Worker::handle`] → decode path of the real wire
/// protocol, synchronously, with [`SimNetModel`] time accrued per
/// frame (collected by
/// [`crate::system::DiskSystem::network_ms`] and, when timing is
/// enabled, folded into the makespan).
pub struct SimNetTransport<R: Record + ByteRecord> {
    disk: usize,
    worker: Worker,
    model: SimNetModel,
    stats: MsgStats,
    sim_ms: f64,
    dead: bool,
    req: Vec<u8>,
    rep: Vec<u8>,
    _records: PhantomData<R>,
}

impl<R: Record + ByteRecord> SimNetTransport<R> {
    /// A memory-backed simulated worker for `disk`.
    pub fn new_mem(disk: usize, block: usize, slots: usize, model: SimNetModel) -> Self {
        Self::with_worker(disk, Worker::new_mem(block * R::BYTES, slots), model)
    }

    /// A file-backed simulated worker for `disk`, storing at `path`.
    pub fn new_file(
        disk: usize,
        path: &Path,
        block: usize,
        slots: usize,
        model: SimNetModel,
    ) -> Result<Self> {
        Ok(Self::with_worker(
            disk,
            Worker::new_file(path, block * R::BYTES, slots)?,
            model,
        ))
    }

    fn with_worker(disk: usize, worker: Worker, model: SimNetModel) -> Self {
        SimNetTransport {
            disk,
            worker,
            model,
            stats: MsgStats::default(),
            sim_ms: 0.0,
            dead: false,
            req: Vec::new(),
            rep: Vec::new(),
            _records: PhantomData,
        }
    }

    /// Encodes nothing — `req` already holds exactly one frame. Sends
    /// it through the worker and decodes the reply into a completion.
    fn round_trip(&mut self, idx: usize, is_read: bool, mut buf: Vec<R>, done: CompletionQueue<R>) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += self.req.len() as u64;
        self.sim_ms += self.model.transfer_ms(self.req.len() as u64);
        self.rep.clear();
        let result = match self.worker.handle(&self.req[FRAME_HEADER..], &mut self.rep) {
            Ok(true) => {
                self.stats.messages_received += 1;
                self.stats.bytes_received += self.rep.len() as u64;
                self.sim_ms += self.model.transfer_ms(self.rep.len() as u64);
                match proto::decode_reply(&self.rep[FRAME_HEADER..]) {
                    Ok(reply) => match reply.result {
                        Ok(payload) if is_read => {
                            for (chunk, r) in payload.chunks_exact(R::BYTES).zip(buf.iter_mut()) {
                                *r = R::from_bytes(chunk);
                            }
                            Ok(())
                        }
                        Ok(_) => Ok(()),
                        Err(e) => Err(e),
                    },
                    Err(e) => Err(e),
                }
            }
            Ok(false) => Err(PdmError::Io("worker answered STOP to a transfer".into())),
            Err(e) => Err(e),
        };
        done.send(Completion {
            idx,
            disk: self.disk,
            buf,
            result,
        });
    }
}

impl<R: Record + ByteRecord> Transport<R> for SimNetTransport<R> {
    fn disk(&self) -> usize {
        self.disk
    }

    fn submit(&mut self, cmd: Cmd<R>) {
        if self.dead {
            fail_disconnected(cmd, self.disk);
            return;
        }
        match cmd {
            Cmd::Read {
                slot,
                buf,
                idx,
                done,
                ..
            } => {
                self.req.clear();
                proto::encode_read(&mut self.req, idx as u64, slot as u64);
                self.round_trip(idx, true, buf, done);
            }
            Cmd::Write {
                slot,
                buf,
                idx,
                done,
                ..
            } => {
                self.req.clear();
                proto::encode_write(&mut self.req, idx as u64, slot as u64, &buf);
                self.round_trip(idx, false, buf, done);
            }
            Cmd::Stop => {}
        }
    }

    fn message_stats(&self) -> MsgStats {
        self.stats
    }

    fn take_sim_ms(&mut self) -> f64 {
        std::mem::take(&mut self.sim_ms)
    }

    fn inject_disconnect(&mut self) {
        self.dead = true;
    }

    fn respawn(&mut self) -> Result<bool> {
        // The simulated worker lives in this process: its store
        // survived the "crash", so reviving the link is the whole
        // recovery — the deterministic stand-in for a UDS relaunch.
        Ok(std::mem::take(&mut self.dead))
    }

    fn shutdown(&mut self) -> Option<Box<dyn DiskUnit<R>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_model_charges_latency_plus_bandwidth() {
        let m = SimNetModel {
            latency_ms: 0.5,
            mb_per_s: 1.0,
        };
        // 1000 bytes at 1 MB/s = 1 ms, plus 0.5 ms latency.
        assert!((m.transfer_ms(1000) - 1.5).abs() < 1e-12);
        assert!((m.transfer_ms(0) - 0.5).abs() < 1e-12);
    }

    /// A command for block `slot`, answered on `done`.
    fn cmd(
        read: bool,
        slot: usize,
        buf: Vec<u64>,
        more: bool,
        done: &CompletionQueue<u64>,
    ) -> Cmd<u64> {
        let done = done.clone();
        if read {
            Cmd::Read {
                slot,
                buf,
                idx: 0,
                done,
                more,
            }
        } else {
            Cmd::Write {
                slot,
                buf,
                idx: 0,
                done,
                more,
            }
        }
    }

    #[test]
    fn sim_transport_round_trip_counts_messages_and_time() {
        let mut t = SimNetTransport::<u64>::new_mem(0, 2, 4, SimNetModel::lan());
        let q = CompletionQueue::new();
        t.submit(cmd(false, 1, vec![10, 11], false, &q));
        q.recv().result.unwrap();
        t.submit(cmd(true, 1, vec![0, 0], false, &q));
        let c = q.recv();
        c.result.unwrap();
        assert_eq!(c.buf, vec![10, 11]);
        let s = t.message_stats();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_received, 2);
        assert!(s.bytes_sent > 0 && s.bytes_received > 0);
        let ms = t.take_sim_ms();
        assert!(ms > 0.0);
        assert_eq!(t.take_sim_ms(), 0.0, "take resets the accrual");
    }

    /// The messages and bytes moved since `before`.
    fn moved(t: &dyn Transport<u64>, before: MsgStats) -> MsgStats {
        let now = t.message_stats();
        MsgStats {
            messages_sent: now.messages_sent - before.messages_sent,
            messages_received: now.messages_received - before.messages_received,
            bytes_sent: now.bytes_sent - before.bytes_sent,
            bytes_received: now.bytes_received - before.bytes_received,
        }
    }

    /// Writes and reads back a 3-block run on `t` (every command but
    /// the last sets `more`), then the same blocks as lone commands, and
    /// checks that the run moved exactly their frames and bytes: one
    /// request and one reply per block.
    fn run_costs_three_single_commands(t: &mut dyn Transport<u64>) {
        let q = CompletionQueue::new();
        let slots = [2, 0, 3];
        let before = t.message_stats();
        for (i, &slot) in slots.iter().enumerate() {
            t.submit(cmd(false, slot, vec![20 + i as u64, 21], i < 2, &q));
        }
        for _ in 0..3 {
            q.recv().result.unwrap();
        }
        for (i, &slot) in slots.iter().enumerate() {
            t.submit(cmd(true, slot, vec![0; 2], i < 2, &q));
        }
        let got: Vec<Vec<u64>> = (0..3).map(|_| q.recv().buf).collect();
        assert_eq!(got, [vec![20, 21], vec![21, 21], vec![22, 21]]);
        let run = moved(t, before);
        assert_eq!((run.messages_sent, run.messages_received), (6, 6));
        let before = t.message_stats();
        for (i, &slot) in slots.iter().enumerate() {
            t.submit(cmd(false, slot, vec![20 + i as u64, 21], false, &q));
            q.recv().result.unwrap();
            t.submit(cmd(true, slot, vec![0; 2], false, &q));
            q.recv().result.unwrap();
        }
        assert_eq!(moved(t, before), run, "a run costs its lone commands");
    }

    #[test]
    fn sim_run_moves_one_frame_each_way_per_block() {
        let mut t = SimNetTransport::<u64>::new_mem(0, 2, 4, SimNetModel::lan());
        run_costs_three_single_commands(&mut t);
    }

    #[test]
    fn uds_run_moves_one_frame_each_way_per_block() {
        // The worker runs the same serve loop pdm-diskd runs, on a
        // plain thread.
        let dir = TempDir::new("pdm-uds-run");
        let path = dir.path().join("disk0.sock");
        let listener = UnixListener::bind(&path).unwrap();
        let worker = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_stream(stream, &mut Worker::new_mem(16, 4)).unwrap();
        });
        let mut t = UdsTransport::<u64>::connect(0, &path, 2, 4, None, None).unwrap();
        run_costs_three_single_commands(&mut t);
        drop(t);
        worker.join().unwrap();
    }

    #[test]
    fn uds_link_whose_worker_died_unseen_is_not_healthy() {
        // A worker that takes the handshake and one request, then dies
        // without replying: only the client's reader sees the crash.
        let dir = TempDir::new("pdm-uds-died");
        let path = dir.path().join("disk0.sock");
        let listener = UnixListener::bind(&path).unwrap();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (mut frame, mut reply) = (Vec::new(), Vec::new());
            read_frame(&mut stream, &mut frame).unwrap();
            proto::encode_hello_ok(&mut reply, PROTO_VERSION);
            stream.write_all(&reply).unwrap();
            read_frame(&mut stream, &mut frame).unwrap();
        });
        let mut t = UdsTransport::<u64>::connect(0, &path, 2, 4, None, None).unwrap();
        let q = CompletionQueue::new();
        t.submit(cmd(true, 0, vec![0, 0], false, &q));
        assert!(matches!(
            q.recv().result,
            Err(PdmError::Disconnected { disk: 0 })
        ));
        worker.join().unwrap();
        // Not "healthy, resend": the link knows it is dead, and this
        // externally managed worker cannot be relaunched.
        assert!(t.respawn().is_err());
    }

    #[test]
    fn sim_transport_disconnect_answers_without_worker() {
        let mut t = SimNetTransport::<u64>::new_mem(3, 2, 4, SimNetModel::lan());
        let before = t.message_stats();
        t.inject_disconnect();
        let q = CompletionQueue::new();
        t.submit(cmd(true, 0, vec![0, 0], false, &q));
        let c = q.recv();
        assert!(matches!(c.result, Err(PdmError::Disconnected { disk: 3 })));
        assert_eq!(c.buf.len(), 2);
        assert_eq!(t.message_stats(), before, "dead link moves no messages");
    }

    #[test]
    fn serve_stream_over_socketpair_round_trip() {
        // A worker on a plain thread over a socketpair: the same serve
        // loop pdm-diskd runs, no process spawn needed.
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8);
            serve_stream(server, &mut worker).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 8);
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client.try_clone().unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        proto::decode_hello_reply(&frame, PROTO_VERSION).unwrap();
        // One write, one read back.
        let mut req = Vec::new();
        proto::encode_write::<u64>(&mut req, 0, 3, &[111, 222]);
        writer.write_all(&req).unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        assert!(proto::decode_reply(&frame).unwrap().result.is_ok());
        req.clear();
        proto::encode_read(&mut req, 1, 3);
        writer.write_all(&req).unwrap();
        read_frame(&mut reader, &mut frame).unwrap();
        let reply = proto::decode_reply(&frame).unwrap();
        let payload = reply.result.unwrap();
        assert_eq!(u64::from_bytes(&payload[..8]), 111);
        assert_eq!(u64::from_bytes(&payload[8..]), 222);
        // STOP ends the serve loop.
        req.clear();
        proto::encode_stop(&mut req);
        writer.write_all(&req).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn serve_stream_refuses_version_mismatch() {
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8);
            serve_stream_with_version(server, &mut worker, PROTO_VERSION + 1).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 8);
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client;
        read_frame(&mut reader, &mut frame).unwrap();
        let err = proto::decode_hello_reply(&frame, PROTO_VERSION).unwrap_err();
        assert!(matches!(
            err,
            PdmError::ProtocolVersion {
                expected: PROTO_VERSION,
                ..
            }
        ));
        handle.join().unwrap();
    }

    #[test]
    fn serve_stream_refuses_geometry_mismatch() {
        let (client, server) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            let mut worker = Worker::new_mem(16, 8);
            serve_stream(server, &mut worker).unwrap();
        });
        let mut frame = Vec::new();
        proto::encode_hello(&mut frame, 2, 8, 99); // wrong slot count
        let mut writer = client.try_clone().unwrap();
        writer.write_all(&frame).unwrap();
        let mut reader = client;
        read_frame(&mut reader, &mut frame).unwrap();
        assert!(matches!(
            proto::decode_hello_reply(&frame, PROTO_VERSION),
            Err(PdmError::Config(_))
        ));
        handle.join().unwrap();
    }

    #[test]
    fn sim_transport_respawn_revives_the_link_with_data_intact() {
        let mut t = SimNetTransport::<u64>::new_mem(2, 2, 4, SimNetModel::lan());
        let q = CompletionQueue::new();
        t.submit(cmd(false, 0, vec![5, 6], false, &q));
        q.recv().result.unwrap();
        assert!(!t.respawn().unwrap(), "healthy link: nothing to do");
        t.inject_disconnect();
        assert!(t.respawn().unwrap());
        t.submit(cmd(true, 0, vec![0, 0], false, &q));
        let c = q.recv();
        c.result.unwrap();
        assert_eq!(c.buf, vec![5, 6], "store survived the crash");
    }

    #[test]
    fn diskd_lookup_prefers_the_env_override_then_the_exe_dir() {
        let dir = TempDir::new("pdm-locate-diskd");
        let exe = dir.path().join("deps").join("some-test");
        let beside = dir.path().join("pdm-diskd");
        let other = dir.path().join("other-diskd");
        std::fs::create_dir_all(exe.parent().unwrap()).unwrap();
        for f in [&exe, &beside, &other] {
            std::fs::write(f, b"").unwrap();
        }
        // Without the override: beside the executable, hopping out of
        // `deps/`; nothing when no worker binary is there.
        assert_eq!(locate_diskd(None, Some(&exe)), Some(beside.clone()));
        std::fs::remove_file(&beside).unwrap();
        assert_eq!(locate_diskd(None, Some(&exe)), None);
        assert_eq!(locate_diskd(None, None), None);
        // The override wins when it names a file, and a missing file is
        // None rather than a fallback to the executable's directory.
        std::fs::write(&beside, b"").unwrap();
        assert_eq!(
            locate_diskd(Some(other.clone().into()), Some(&exe)),
            Some(other)
        );
        let missing = dir.path().join("definitely-not-a-binary");
        assert_eq!(locate_diskd(Some(missing.into()), Some(&exe)), None);
    }
}
