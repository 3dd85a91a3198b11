//! The job-plane wire protocol: `SUBMIT` / `STATUS` / `CANCEL` /
//! `RESULT` over length-prefixed frames.
//!
//! This is a second, higher-level protocol next to [`pdm::proto`]'s
//! *data plane* (block reads and writes): same framing conventions —
//! a 4-byte little-endian length prefix per frame
//! ([`pdm::proto::FRAME_HEADER`]), a magic + version handshake frame
//! first, one request per frame, one reply per request — but its own
//! magic (`PDMS`, not `PDMD`) so the two endpoints cannot be
//! cross-connected silently, and typed messages about *jobs* rather
//! than blocks. Encoding reuses the framing toolkit
//! ([`pdm::proto::put_u32`], [`pdm::proto::begin_frame`],
//! [`pdm::proto::Take`], …), so truncation and garbage surface as
//! the same [`PdmError::Io`] family the data plane uses.

use crate::core::{JobState, JobStatus, Overview, Reject};
use crate::job::{JobKind, JobReport, JobSpec};
use extsort::MergeStrategy;
use pdm::proto::{begin_frame, end_frame, put_u32, put_u64, Take};
use pdm::{IoStats, JobUsage, PdmError, Result};

/// Job-plane magic, first 4 bytes of the client's handshake frame.
pub const MAGIC: [u8; 4] = *b"PDMS";

/// Job-plane protocol version; bumped on incompatible change.
/// Version 2 added the resilience fields: `max_retries` and the
/// optional deadline on `SUBMIT`, attempt counts on job snapshots,
/// and the farm's respawn counter on the overview.
pub const VERSION: u32 = 2;

// Request tags (client → server).
const T_SUBMIT: u8 = 0x10;
const T_STATUS: u8 = 0x11;
const T_CANCEL: u8 = 0x12;
const T_RESULT: u8 = 0x13;

// Reply tags (server → client).
const T_HELLO_OK: u8 = 0x01;
const T_HELLO_BAD: u8 = 0x02;
const T_SUBMITTED: u8 = 0x20;
const T_REJECTED: u8 = 0x21;
const T_JOB: u8 = 0x22;
const T_OVERVIEW: u8 = 0x23;
const T_CANCELLED: u8 = 0x24;
const T_UNKNOWN_JOB: u8 = 0x25;

// Reject codes inside T_REJECTED.
const R_QUEUE_FULL: u8 = 0;
const R_BAD_GEOMETRY: u8 = 1;
const R_TOO_LARGE: u8 = 2;

fn bad(what: &str) -> PdmError {
    PdmError::Io(format!("job-plane protocol: {what}"))
}

// ---------------------------------------------------------------------------
// Handshake.

/// Appends the client's handshake frame: magic + version.
pub fn encode_hello(out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.extend_from_slice(&MAGIC);
    put_u32(out, VERSION);
    end_frame(out, at);
}

/// Decodes a handshake body; returns the client's version.
pub fn decode_hello(body: &[u8]) -> Result<u32> {
    let mut t = Take(body);
    let magic = t.bytes(4)?;
    if magic != MAGIC {
        return Err(bad("bad magic (is this a data-plane endpoint?)"));
    }
    t.u32()
}

/// Appends the server's handshake acceptance.
pub fn encode_hello_ok(out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.push(T_HELLO_OK);
    put_u32(out, VERSION);
    end_frame(out, at);
}

/// Appends the server's handshake refusal (version mismatch).
pub fn encode_hello_bad(out: &mut Vec<u8>) {
    let at = begin_frame(out);
    out.push(T_HELLO_BAD);
    put_u32(out, VERSION);
    end_frame(out, at);
}

/// Decodes the server's handshake reply, failing on refusal.
pub fn decode_hello_reply(body: &[u8]) -> Result<()> {
    let mut t = Take(body);
    match t.u8()? {
        T_HELLO_OK => Ok(()),
        T_HELLO_BAD => {
            let server = t.u32()?;
            Err(bad(&format!(
                "server speaks job-plane version {server}, client speaks {VERSION}"
            )))
        }
        tag => Err(bad(&format!("unexpected handshake reply tag {tag:#04x}"))),
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// A decoded client request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Request {
    /// Run this job; reply is [`Reply::Submitted`] or
    /// [`Reply::Rejected`].
    Submit(JobSpec),
    /// Report on one job (or the whole service for `id` 0).
    Status {
        /// Job id, or 0 for the service overview.
        id: u64,
    },
    /// Request cancellation of one job.
    Cancel {
        /// Job id.
        id: u64,
    },
    /// Block until the job is terminal, then report it.
    Result {
        /// Job id.
        id: u64,
    },
}

// Merge strategy codes inside SUBMIT. Code 1 (the retired
// double-buffered merge) stays unassigned, so an old client's request
// for it is rejected rather than reinterpreted.
fn merge_code(m: MergeStrategy) -> u8 {
    match m {
        MergeStrategy::SingleBuffered => 0,
        MergeStrategy::Forecast => 2,
    }
}

fn merge_from_code(c: u8) -> Result<MergeStrategy> {
    Ok(match c {
        0 => MergeStrategy::SingleBuffered,
        2 => MergeStrategy::Forecast,
        _ => return Err(bad(&format!("unknown merge strategy code {c}"))),
    })
}

/// Appends a `SUBMIT` frame.
pub fn encode_submit(out: &mut Vec<u8>, spec: &JobSpec) {
    let at = begin_frame(out);
    out.push(T_SUBMIT);
    out.push(spec.kind.code());
    put_u64(out, spec.records as u64);
    put_u64(out, spec.memory as u64);
    put_u64(out, spec.seed);
    out.push(merge_code(spec.merge));
    out.push(u8::from(spec.verify));
    match spec.fault {
        Some((op, disk)) => {
            out.push(1);
            put_u64(out, op);
            put_u32(out, disk as u32);
        }
        None => out.push(0),
    }
    put_u32(out, spec.max_retries);
    match spec.deadline_ms {
        Some(ms) => {
            out.push(1);
            put_u64(out, ms);
        }
        None => out.push(0),
    }
    end_frame(out, at);
}

/// Appends a `STATUS` (`id` 0 = overview), `CANCEL`, or `RESULT`
/// frame — they share the tag-plus-id shape.
pub fn encode_id_request(out: &mut Vec<u8>, tag_status_cancel_result: u8, id: u64) {
    let at = begin_frame(out);
    out.push(tag_status_cancel_result);
    put_u64(out, id);
    end_frame(out, at);
}

/// Tag for [`encode_id_request`]: `STATUS`.
pub const STATUS: u8 = T_STATUS;
/// Tag for [`encode_id_request`]: `CANCEL`.
pub const CANCEL: u8 = T_CANCEL;
/// Tag for [`encode_id_request`]: `RESULT`.
pub const RESULT: u8 = T_RESULT;

/// Decodes one request frame body.
pub fn decode_request(body: &[u8]) -> Result<Request> {
    let mut t = Take(body);
    match t.u8()? {
        T_SUBMIT => {
            let kind = JobKind::from_code(t.u8()?).ok_or_else(|| bad("unknown job kind code"))?;
            let records = t.u64()? as usize;
            let memory = t.u64()? as usize;
            let seed = t.u64()?;
            let merge = merge_from_code(t.u8()?)?;
            let verify = t.u8()? != 0;
            let fault = match t.u8()? {
                0 => None,
                1 => Some((t.u64()?, t.u32()? as usize)),
                f => return Err(bad(&format!("bad fault flag {f}"))),
            };
            let max_retries = t.u32()?;
            let deadline_ms = match t.u8()? {
                0 => None,
                1 => Some(t.u64()?),
                f => return Err(bad(&format!("bad deadline flag {f}"))),
            };
            Ok(Request::Submit(JobSpec {
                kind,
                records,
                memory,
                seed,
                merge,
                verify,
                fault,
                max_retries,
                deadline_ms,
            }))
        }
        T_STATUS => Ok(Request::Status { id: t.u64()? }),
        T_CANCEL => Ok(Request::Cancel { id: t.u64()? }),
        T_RESULT => Ok(Request::Result { id: t.u64()? }),
        tag => Err(bad(&format!("unknown request tag {tag:#04x}"))),
    }
}

// ---------------------------------------------------------------------------
// Replies.

/// A decoded server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// The job was accepted under this id.
    Submitted {
        /// The new job's id.
        id: u64,
    },
    /// The submit was refused.
    Rejected(Reject),
    /// A job snapshot (for `STATUS` and `RESULT`).
    Job(JobStatus),
    /// The service overview (for `STATUS` with id 0).
    Overview(Overview),
    /// Acknowledges a `CANCEL`; `live` is false when the job was
    /// already terminal or unknown.
    Cancelled {
        /// Whether the cancel actually landed on a live job.
        live: bool,
    },
    /// `STATUS`/`RESULT` named a job the service has never seen.
    UnknownJob {
        /// The id that was asked about.
        id: u64,
    },
}

/// Appends a `Submitted` reply.
pub fn encode_submitted(out: &mut Vec<u8>, id: u64) {
    let at = begin_frame(out);
    out.push(T_SUBMITTED);
    put_u64(out, id);
    end_frame(out, at);
}

/// Appends a `Rejected` reply.
pub fn encode_rejected(out: &mut Vec<u8>, reject: &Reject) {
    let at = begin_frame(out);
    out.push(T_REJECTED);
    match reject {
        Reject::QueueFull => out.push(R_QUEUE_FULL),
        Reject::BadGeometry(msg) => {
            out.push(R_BAD_GEOMETRY);
            put_u32(out, msg.len() as u32);
            out.extend_from_slice(msg.as_bytes());
        }
        Reject::TooLarge { need, have } => {
            out.push(R_TOO_LARGE);
            put_u64(out, *need as u64);
            put_u64(out, *have as u64);
        }
    }
    end_frame(out, at);
}

fn put_io(out: &mut Vec<u8>, io: &IoStats) {
    put_u64(out, io.parallel_reads);
    put_u64(out, io.parallel_writes);
    put_u64(out, io.striped_reads);
    put_u64(out, io.striped_writes);
    put_u64(out, io.blocks_read);
    put_u64(out, io.blocks_written);
}

fn take_io(t: &mut Take<'_>) -> Result<IoStats> {
    Ok(IoStats {
        parallel_reads: t.u64()?,
        parallel_writes: t.u64()?,
        striped_reads: t.u64()?,
        striped_writes: t.u64()?,
        blocks_read: t.u64()?,
        blocks_written: t.u64()?,
    })
}

/// Appends a `Job` snapshot reply.
pub fn encode_job(out: &mut Vec<u8>, s: &JobStatus) {
    let at = begin_frame(out);
    out.push(T_JOB);
    put_u64(out, s.id);
    out.push(s.kind.code());
    out.push(s.state.code());
    put_u32(out, s.attempts);
    put_io(out, &s.usage.io);
    put_u32(out, s.usage.blocks_per_disk.len() as u32);
    for &b in &s.usage.blocks_per_disk {
        put_u64(out, b);
    }
    match &s.report {
        Some(r) => {
            out.push(1);
            put_u64(out, r.passes);
            put_io(out, &r.io);
            out.push(u8::from(r.verified));
        }
        None => out.push(0),
    }
    match &s.error {
        Some(msg) => {
            out.push(1);
            put_u32(out, msg.len() as u32);
            out.extend_from_slice(msg.as_bytes());
        }
        None => out.push(0),
    }
    end_frame(out, at);
}

/// Appends an `Overview` reply.
pub fn encode_overview(out: &mut Vec<u8>, o: &Overview) {
    let at = begin_frame(out);
    out.push(T_OVERVIEW);
    put_u64(out, o.queued as u64);
    put_u64(out, o.running as u64);
    put_u64(out, o.finished as u64);
    put_u64(out, o.free_slots as u64);
    put_u64(out, o.respawns);
    end_frame(out, at);
}

/// Appends a `Cancelled` acknowledgement.
pub fn encode_cancelled(out: &mut Vec<u8>, live: bool) {
    let at = begin_frame(out);
    out.push(T_CANCELLED);
    out.push(u8::from(live));
    end_frame(out, at);
}

/// Appends an `UnknownJob` reply.
pub fn encode_unknown_job(out: &mut Vec<u8>, id: u64) {
    let at = begin_frame(out);
    out.push(T_UNKNOWN_JOB);
    put_u64(out, id);
    end_frame(out, at);
}

fn take_string(t: &mut Take<'_>) -> Result<String> {
    let len = t.u32()? as usize;
    let bytes = t.bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| bad("reply string is not UTF-8"))
}

/// Decodes one reply frame body.
pub fn decode_reply(body: &[u8]) -> Result<Reply> {
    let mut t = Take(body);
    match t.u8()? {
        T_SUBMITTED => Ok(Reply::Submitted { id: t.u64()? }),
        T_REJECTED => {
            let reject = match t.u8()? {
                R_QUEUE_FULL => Reject::QueueFull,
                R_BAD_GEOMETRY => Reject::BadGeometry(take_string(&mut t)?),
                R_TOO_LARGE => Reject::TooLarge {
                    need: t.u64()? as usize,
                    have: t.u64()? as usize,
                },
                c => return Err(bad(&format!("unknown reject code {c}"))),
            };
            Ok(Reply::Rejected(reject))
        }
        T_JOB => {
            let id = t.u64()?;
            let kind = JobKind::from_code(t.u8()?).ok_or_else(|| bad("unknown job kind code"))?;
            let state =
                JobState::from_code(t.u8()?).ok_or_else(|| bad("unknown job state code"))?;
            let attempts = t.u32()?;
            let io = take_io(&mut t)?;
            let disks = t.u32()? as usize;
            let mut blocks_per_disk = Vec::with_capacity(disks.min(1 << 16));
            for _ in 0..disks {
                blocks_per_disk.push(t.u64()?);
            }
            let report = match t.u8()? {
                0 => None,
                1 => Some(JobReport {
                    passes: t.u64()?,
                    io: take_io(&mut t)?,
                    verified: t.u8()? != 0,
                }),
                f => return Err(bad(&format!("bad report flag {f}"))),
            };
            let error = match t.u8()? {
                0 => None,
                1 => Some(take_string(&mut t)?),
                f => return Err(bad(&format!("bad error flag {f}"))),
            };
            Ok(Reply::Job(JobStatus {
                id,
                kind,
                state,
                usage: JobUsage {
                    io,
                    blocks_per_disk,
                },
                report,
                error,
                attempts,
            }))
        }
        T_OVERVIEW => Ok(Reply::Overview(Overview {
            queued: t.u64()? as usize,
            running: t.u64()? as usize,
            finished: t.u64()? as usize,
            free_slots: t.u64()? as usize,
            respawns: t.u64()?,
        })),
        T_CANCELLED => Ok(Reply::Cancelled { live: t.u8()? != 0 }),
        T_UNKNOWN_JOB => Ok(Reply::UnknownJob { id: t.u64()? }),
        tag => Err(bad(&format!("unknown reply tag {tag:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::proto::FRAME_HEADER;

    fn body(frame: &[u8]) -> &[u8] {
        &frame[FRAME_HEADER..]
    }

    #[test]
    fn handshake_round_trips_and_rejects_data_plane_magic() {
        let mut f = Vec::new();
        encode_hello(&mut f);
        assert_eq!(decode_hello(body(&f)).unwrap(), VERSION);
        let mut wrong = body(&f).to_vec();
        wrong[..4].copy_from_slice(&pdm::proto::MAGIC);
        assert!(decode_hello(&wrong).is_err());
        let mut ok = Vec::new();
        encode_hello_ok(&mut ok);
        decode_hello_reply(body(&ok)).unwrap();
        let mut nope = Vec::new();
        encode_hello_bad(&mut nope);
        assert!(decode_hello_reply(body(&nope)).is_err());
    }

    #[test]
    fn submit_round_trips_every_field() {
        let mut spec = JobSpec::new(JobKind::Permute, 1 << 12, 1 << 7, 99);
        spec.merge = MergeStrategy::Forecast;
        spec.verify = true;
        spec.fault = Some((17, 3));
        spec.max_retries = 3;
        spec.deadline_ms = Some(30_000);
        let mut f = Vec::new();
        encode_submit(&mut f, &spec);
        match decode_request(body(&f)).unwrap() {
            Request::Submit(got) => assert_eq!(got, spec),
            other => panic!("decoded {other:?}"),
        }
        // The defaults (no retries, no deadline) survive too.
        let plain = JobSpec::new(JobKind::Sort, 1 << 10, 1 << 6, 1);
        let mut f = Vec::new();
        encode_submit(&mut f, &plain);
        match decode_request(body(&f)).unwrap() {
            Request::Submit(got) => assert_eq!(got, plain),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn merge_codes_round_trip_and_code_1_is_rejected() {
        for (merge, code) in [
            (MergeStrategy::SingleBuffered, 0),
            (MergeStrategy::Forecast, 2),
        ] {
            assert_eq!(merge_code(merge), code);
            assert_eq!(merge_from_code(code).unwrap(), merge);
        }
        let mut f = Vec::new();
        encode_submit(&mut f, &JobSpec::new(JobKind::Sort, 1 << 10, 1 << 6, 1));
        // Body layout: tag, kind, records, memory, seed, then the code.
        let mut b = body(&f).to_vec();
        b[2 + 3 * 8] = 1;
        let err = decode_request(&b).unwrap_err();
        assert!(matches!(err, PdmError::Io(_)), "{err:?}");
        assert!(
            err.to_string().contains("unknown merge strategy code 1"),
            "{err}"
        );
    }

    #[test]
    fn id_requests_round_trip() {
        for (tag, want) in [
            (STATUS, Request::Status { id: 5 }),
            (CANCEL, Request::Cancel { id: 5 }),
            (RESULT, Request::Result { id: 5 }),
        ] {
            let mut f = Vec::new();
            encode_id_request(&mut f, tag, 5);
            assert_eq!(decode_request(body(&f)).unwrap(), want);
        }
    }

    #[test]
    fn replies_round_trip() {
        let mut f = Vec::new();
        encode_submitted(&mut f, 42);
        assert_eq!(decode_reply(body(&f)).unwrap(), Reply::Submitted { id: 42 });

        for reject in [
            Reject::QueueFull,
            Reject::BadGeometry("M too small".into()),
            Reject::TooLarge { need: 9, have: 4 },
        ] {
            let mut f = Vec::new();
            encode_rejected(&mut f, &reject);
            assert_eq!(decode_reply(body(&f)).unwrap(), Reply::Rejected(reject));
        }

        let status = JobStatus {
            id: 7,
            kind: JobKind::Sort,
            state: JobState::Done,
            usage: JobUsage {
                io: IoStats {
                    parallel_reads: 10,
                    parallel_writes: 11,
                    striped_reads: 3,
                    striped_writes: 4,
                    blocks_read: 40,
                    blocks_written: 44,
                },
                blocks_per_disk: vec![21, 21, 21, 21],
            },
            report: Some(JobReport {
                passes: 3,
                io: IoStats::default(),
                verified: true,
            }),
            error: None,
            attempts: 2,
        };
        let mut f = Vec::new();
        encode_job(&mut f, &status);
        match decode_reply(body(&f)).unwrap() {
            Reply::Job(got) => {
                assert_eq!(got.id, status.id);
                assert_eq!(got.state, status.state);
                assert_eq!(got.usage, status.usage);
                assert_eq!(got.report.unwrap().passes, 3);
                assert_eq!(got.error, None);
                assert_eq!(got.attempts, 2);
            }
            other => panic!("decoded {other:?}"),
        }

        let mut f = Vec::new();
        encode_overview(
            &mut f,
            &Overview {
                queued: 1,
                running: 2,
                finished: 3,
                free_slots: 4,
                respawns: 5,
            },
        );
        match decode_reply(body(&f)).unwrap() {
            Reply::Overview(o) => assert_eq!(
                (o.queued, o.running, o.finished, o.free_slots, o.respawns),
                (1, 2, 3, 4, 5)
            ),
            other => panic!("decoded {other:?}"),
        }

        let mut f = Vec::new();
        encode_cancelled(&mut f, true);
        assert_eq!(
            decode_reply(body(&f)).unwrap(),
            Reply::Cancelled { live: true }
        );

        let mut f = Vec::new();
        encode_unknown_job(&mut f, 12);
        assert_eq!(
            decode_reply(body(&f)).unwrap(),
            Reply::UnknownJob { id: 12 }
        );
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut f = Vec::new();
        encode_submitted(&mut f, 42);
        let b = body(&f);
        for cut in 0..b.len() {
            assert!(decode_reply(&b[..cut]).is_err(), "cut at {cut}");
        }
    }
}
