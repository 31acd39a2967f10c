//! `mps-proto/v1` — the client ↔ daemon wire protocol.
//!
//! Frames ride the same length-prefixed transport as the supervisor ↔
//! worker protocol ([`mps_supervise::proto`]), but with two upgrades the
//! service boundary demands:
//!
//! 1. **Negotiated versioning.** Every connection opens with
//!    [`ClientFrame::Hello`] carrying [`PROTO_VERSION`]; the server
//!    answers [`ServerFrame::HelloAck`] or a typed
//!    [`ServerFrame::VersionMismatch`]. Unlike the in-house worker
//!    pipe (same binary on both ends), a socket outlives deploys — two
//!    builds *will* eventually talk across a restart.
//! 2. **Checksummed envelope.** Each frame body is wrapped as
//!    `{"sum":"<16-hex fnv64>","body":<message JSON as a JSON string>}`
//!    (the journal's checksum discipline, [`mps_journal::fnv64`], over
//!    the exact bytes of the message JSON): any single corrupted byte —
//!    in the length prefix, the envelope, or the body — is a typed frame
//!    error, never a silently misparsed message. Like a journal line, the
//!    envelope has one fixed layout, written only by [`send_msg`];
//!    [`decode_envelope`] checks it by prefix and suffix and rejects any
//!    other layout.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use mps_journal::fnv64;
use mps_supervise::proto::{read_frame_bytes, write_frame_bytes};

use crate::ServeError;

/// Version tag of the client ↔ daemon protocol, announced in the
/// handshake by both sides.
pub const PROTO_VERSION: &str = "mps-proto/v1";

/// The work a client can ask the daemon to do. Indices refer to the
/// deterministic paper corpus, exactly like the supervisor ↔ worker
/// protocol: requests stay tiny and the daemon cannot be handed a DAG it
/// doesn't know.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkRequest {
    /// Compute one schedule (no testbed execution): corpus DAG `dag`
    /// under simulator `variant` (`analytic`|`profile`|`empirical`) with
    /// algorithm `algo` (`HCPA`|`MCPA`). Streams one cell whose payload
    /// is the schedule JSON.
    Schedule {
        /// Index into the paper corpus.
        dag: usize,
        /// Simulator version name.
        variant: String,
        /// Algorithm name.
        algo: String,
    },
    /// Run one full grid cell: schedule, simulate, and execute `repeats`
    /// testbed runs. Streams one cell whose payload is the `CellResult`
    /// JSON.
    Simulate {
        /// Index into the paper corpus.
        dag: usize,
        /// Simulator version name.
        variant: String,
        /// Algorithm name.
        algo: String,
        /// Testbed repeats.
        repeats: u64,
        /// Optional timed platform-disturbance plan for the testbed runs
        /// (the `mps_faults::DisturbancePlan::parse` grammar, e.g.
        /// `crash@4:3;slow@2-10:5:1.5` or a `light|moderate|heavy`
        /// preset). Crashes are handled with rescue rescheduling.
        /// Defaults to `None` when missing, so old clients interoperate.
        #[serde(default)]
        disturb: Option<String>,
    },
    /// Run a streaming arrival-process workload: a seeded arrival stream
    /// draws corpus DAGs, an admission controller bounds the backlog, and
    /// the incremental DES runs jobs to completion over `horizon_events`
    /// engine events. Streams one cell whose payload is the
    /// `OnlineRun` JSON (throughput, SLO quantiles, shed counters).
    Online {
        /// Arrival-process spec: `poisson@R`, `mmpp@R0:R1:S0:S1`, or a
        /// bare Poisson rate like `0.05`.
        arrival: String,
        /// Engine events to run before draining (server-capped).
        horizon_events: u64,
        /// Arrival-stream seed.
        seed: u64,
        /// Admission-controller backlog bound (0 sheds everything).
        admission: u64,
        /// Algorithm name (`CPA`|`HCPA`|`MCPA`).
        algo: String,
    },
    /// Run the first `take` corpus DAGs × 3 simulators × 2 algorithms.
    /// Streams one cell per grid cell.
    SubsetGrid {
        /// Corpus prefix length.
        take: usize,
        /// Testbed repeats per cell.
        repeats: u64,
        /// Optional disturbance plan applied to every cell's testbed
        /// runs (same grammar and recovery as `Simulate::disturb`).
        #[serde(default)]
        disturb: Option<String>,
    },
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Opens every connection; nothing else is accepted before it.
    Hello {
        /// Protocol version the client speaks ([`PROTO_VERSION`]).
        proto: String,
        /// Free-form client identification (for logs).
        client: String,
    },
    /// Submit work. `id` is client-chosen and echoed on every reply frame
    /// so a client can multiplex.
    Submit {
        /// Client-chosen request id.
        id: u64,
        /// The work to do.
        work: WorkRequest,
        /// Optional deadline: the server stops starting new cells for
        /// this request once the deadline has passed (the cell in flight
        /// finishes and is journaled).
        deadline_ms: Option<u64>,
    },
    /// Ask for server statistics.
    Health {
        /// Client-chosen request id.
        id: u64,
    },
    /// Ask the server to drain: stop admitting, finish in-flight work,
    /// checkpoint, and exit.
    Drain {
        /// Client-chosen request id.
        id: u64,
    },
    /// Polite goodbye; the server closes the connection.
    Bye,
}

/// Summary of one completed work request.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkSummary {
    /// Cells streamed for this request (resumed + computed).
    pub cells: u64,
    /// Cells replayed from the request's journal.
    pub resumed: u64,
    /// Cells computed by this run.
    pub computed: u64,
    /// Cells quarantined as poison (crash reports, not measurements).
    pub quarantined: u64,
    /// Cells where a platform disturbance fired (still measurements).
    #[serde(default)]
    pub disturbed: u64,
    /// Rescue re-plans triggered by host crashes across the request.
    #[serde(default)]
    pub rescues: u64,
    /// `complete` | `interrupted` | `deadline` — mirrors the journal
    /// manifest status vocabulary.
    pub status: String,
}

/// Server statistics returned by [`ClientFrame::Health`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests waiting in the admission queue.
    pub queue_depth: u64,
    /// Admission queue capacity.
    pub queue_capacity: u64,
    /// Requests currently executing.
    pub inflight: u64,
    /// Requests completed since startup.
    pub served: u64,
    /// Requests shed with `Overloaded` since startup.
    pub shed: u64,
    /// Cells quarantined since startup.
    pub quarantined: u64,
    /// In-flight journals finished by startup crash recovery.
    pub recovered: u64,
    /// Connections reaped because no frame arrived within the read
    /// deadline ([`crate::ServeError::ClientStalled`]).
    #[serde(default)]
    pub stalled: u64,
    /// Cells where a platform disturbance fired, across all requests.
    #[serde(default)]
    pub disturbed: u64,
    /// Rescue re-plans triggered by host crashes, across all requests.
    #[serde(default)]
    pub rescues: u64,
    /// Median per-request service time (milliseconds, rounded; 0 until a
    /// request completes). Streaming P² estimate — no sample buffer.
    #[serde(default)]
    pub p50_service_ms: u64,
    /// 99th-percentile per-request service time (milliseconds, rounded).
    #[serde(default)]
    pub p99_service_ms: u64,
    /// True once the server has stopped admitting.
    pub draining: bool,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// Successful handshake.
    HelloAck {
        /// Protocol version the server speaks.
        proto: String,
        /// Free-form server identification.
        server: String,
        /// Admission queue capacity (a hint for client pacing).
        queue_capacity: u64,
    },
    /// The handshake failed: version skew. The connection closes after
    /// this frame.
    VersionMismatch {
        /// Version the server speaks.
        want: String,
        /// Version the client announced.
        got: String,
    },
    /// The request was admitted; cell frames follow.
    Accepted {
        /// Echoed request id.
        id: u64,
    },
    /// Load shed: the queue is full. The connection stays open; retry
    /// after the hinted backoff.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Suggested retry backoff, from the queue's service-time EMA.
        retry_after_ms: u64,
    },
    /// The server is draining and admits nothing new.
    Draining {
        /// Echoed request id.
        id: u64,
    },
    /// One completed cell of an admitted request. `payload` is the
    /// verbatim JSON journaled for this cell — replays after a daemon
    /// restart are byte-identical.
    Cell {
        /// Echoed request id.
        id: u64,
        /// The cell's journal key.
        key: String,
        /// Verbatim journaled cell JSON.
        payload: String,
    },
    /// An admitted request finished.
    Done {
        /// Echoed request id.
        id: u64,
        /// Outcome counters.
        summary: WorkSummary,
    },
    /// An admitted request failed (backend error, not a poison cell —
    /// poison cells arrive as quarantined [`ServerFrame::Cell`]s).
    Failed {
        /// Echoed request id.
        id: u64,
        /// Display form of the error.
        error: String,
    },
    /// Reply to [`ClientFrame::Health`].
    Stats {
        /// Echoed request id.
        id: u64,
        /// Current statistics.
        stats: ServerStats,
    },
    /// Reply to [`ClientFrame::Drain`]: the drain has begun.
    DrainStarted {
        /// Echoed request id.
        id: u64,
    },
}

/// The envelope layout around the checksum and the escaped body:
/// `{"sum":"<16 hex>","body":<body as a JSON string>}`.
const SUM_PREFIX: &str = "{\"sum\":\"";
const BODY_SEP: &str = "\",\"body\":";
const SUFFIX: &str = "}";

fn frame_err(reason: impl Into<String>) -> ServeError {
    ServeError::Frame {
        reason: reason.into(),
    }
}

/// Serializes `msg`, wraps it in a checksummed envelope, and writes it as
/// one length-prefixed frame with one write call.
pub fn send_msg<W: Write + ?Sized, T: Serialize>(w: &mut W, msg: &T) -> Result<(), ServeError> {
    let body = serde_json::to_string(msg).map_err(|e| frame_err(format!("encode: {e}")))?;
    let escaped =
        serde_json::to_string::<str>(&body).map_err(|e| frame_err(format!("encode: {e}")))?;
    let sum = format!("{:016x}", fnv64(body.as_bytes()));
    write_frame_bytes(
        w,
        &[
            SUM_PREFIX.as_bytes(),
            sum.as_bytes(),
            BODY_SEP.as_bytes(),
            escaped.as_bytes(),
            SUFFIX.as_bytes(),
        ],
    )
    .map_err(ServeError::from)
}

/// Reads one frame and unwraps + verifies its envelope. `Ok(None)` on a
/// clean EOF at a frame boundary.
pub fn recv_msg<R: Read + ?Sized, T: Deserialize>(r: &mut R) -> Result<Option<T>, ServeError> {
    let Some(bytes) = read_frame_bytes(&mut { r }).map_err(ServeError::from)? else {
        return Ok(None);
    };
    decode_envelope(&bytes).map(Some)
}

/// Decodes raw frame bytes: checks the envelope layout, unescapes the
/// body, verifies the checksum over the body's exact bytes, then parses
/// the body. Any single corrupted byte yields a typed error.
pub fn decode_envelope<T: Deserialize>(bytes: &[u8]) -> Result<T, ServeError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| frame_err(format!("frame is not UTF-8: {e}")))?;
    let rest = text
        .strip_prefix(SUM_PREFIX)
        .ok_or_else(|| frame_err("frame is not an envelope: missing checksum prefix"))?;
    let sum = rest
        .get(..16)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| frame_err("malformed envelope checksum"))?;
    let declared = u64::from_str_radix(sum, 16)
        .map_err(|e| frame_err(format!("malformed envelope checksum: {e}")))?;
    let quoted = rest[16..]
        .strip_prefix(BODY_SEP)
        .and_then(|b| b.strip_suffix(SUFFIX))
        .filter(|q| q.starts_with('"') && q.ends_with('"'))
        .ok_or_else(|| frame_err("frame is not an envelope: malformed body field"))?;
    let body: String = serde_json::from_str(quoted)
        .map_err(|e| frame_err(format!("envelope body is not a JSON string: {e}")))?;
    if fnv64(body.as_bytes()) != declared {
        return Err(frame_err("envelope checksum mismatch"));
    }
    serde_json::from_str(&body)
        .map_err(|e| frame_err(format!("envelope body is not a valid message: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let msg = ClientFrame::Submit {
            id: 7,
            work: WorkRequest::Simulate {
                dag: 3,
                variant: "analytic".to_string(),
                algo: "HCPA".to_string(),
                repeats: 2,
                disturb: Some("crash@4:3".to_string()),
            },
            deadline_ms: Some(1500),
        };
        let mut buf = Vec::new();
        send_msg(&mut buf, &msg).unwrap();
        let mut r = &buf[..];
        assert_eq!(recv_msg::<_, ClientFrame>(&mut r).unwrap(), Some(msg));
        assert_eq!(recv_msg::<_, ClientFrame>(&mut r).unwrap(), None);
    }

    #[test]
    fn corrupted_body_byte_fails_the_checksum() {
        let msg = ServerFrame::Accepted { id: 42 };
        let mut buf = Vec::new();
        send_msg(&mut buf, &msg).unwrap();
        // Flip a byte inside the envelope body (past the 4-byte length
        // prefix and the `{"sum":"<16hex>",` prefix).
        let target = 4 + 30;
        buf[target] ^= 0x01;
        let mut r = &buf[..];
        assert!(matches!(
            recv_msg::<_, ServerFrame>(&mut r),
            Err(ServeError::Frame { .. })
        ));
    }

    #[test]
    fn a_frame_is_one_write() {
        struct CountingWriter(usize);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter(0);
        send_msg(&mut w, &ClientFrame::Bye).unwrap();
        send_msg(
            &mut w,
            &ServerFrame::Cell {
                id: 1,
                key: "k".to_string(),
                payload: "{\"x\":[1.5,\"q\\\"\"]}".to_string(),
            },
        )
        .unwrap();
        assert_eq!(w.0, 2);
    }

    #[test]
    fn any_other_envelope_layout_is_rejected() {
        let body = serde_json::to_string(&ServerFrame::Accepted { id: 1 }).unwrap();
        let escaped = serde_json::to_string::<str>(&body).unwrap();
        let sum = format!("{:016x}", fnv64(body.as_bytes()));
        let frame = |env: String| {
            let mut buf = (env.len() as u32).to_le_bytes().to_vec();
            buf.extend_from_slice(env.as_bytes());
            buf
        };
        let canonical = frame(format!("{{\"sum\":\"{sum}\",\"body\":{escaped}}}"));
        let mut r = &canonical[..];
        assert_eq!(
            recv_msg::<_, ServerFrame>(&mut r).unwrap(),
            Some(ServerFrame::Accepted { id: 1 })
        );
        for env in [
            format!("{{\"body\":{escaped},\"sum\":\"{sum}\"}}"),
            format!("{{\"sum\":\"{sum}\", \"body\":{escaped}}}"),
            format!("{{\"sum\":\"{sum}\",\"body\": {escaped}}}"),
            format!("{{\"sum\":\"{sum}\",\"body\":{escaped} }}"),
            format!("{{\"sum\":\"{sum}\",\"body\":{escaped},\"x\":1}}"),
            format!("{{\"sum\":\"{sum}\",\"body\":{body}}}"),
        ] {
            let buf = frame(env.clone());
            let mut r = &buf[..];
            assert!(
                matches!(
                    recv_msg::<_, ServerFrame>(&mut r),
                    Err(ServeError::Frame { .. })
                ),
                "{env}"
            );
        }
    }

    #[test]
    fn a_plain_unenveloped_frame_is_rejected() {
        // A peer speaking the raw worker protocol (no envelope) must get
        // a typed frame error, not a misparse.
        let mut buf = Vec::new();
        mps_supervise::proto::write_frame(&mut buf, &ServerFrame::Accepted { id: 1 }).unwrap();
        let mut r = &buf[..];
        assert!(matches!(
            recv_msg::<_, ServerFrame>(&mut r),
            Err(ServeError::Frame { .. })
        ));
    }
}
