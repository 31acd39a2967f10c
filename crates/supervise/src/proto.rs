//! The supervisor ↔ worker wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte little-endian length followed by that many
//! bytes of UTF-8 JSON. Length prefixing (rather than newline delimiting)
//! makes torn writes unambiguous: a reader either gets a whole frame or a
//! typed error, never half a message parsed as a smaller one. Frames are
//! capped at [`MAX_FRAME_BYTES`] so a corrupted length prefix cannot make
//! the reader allocate gigabytes.

use std::io::{Read, Write};

use serde::{Deserialize, Serialize};

use crate::SuperviseError;

/// Upper bound on a single frame's payload (16 MiB — a full grid cell
/// result is a few KiB; anything near this bound is corruption).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Version tag of the supervisor ↔ worker protocol. The worker announces
/// it in its [`WorkerHello`]; a supervisor that sees any other value must
/// fail the run with [`SuperviseError::VersionMismatch`] instead of
/// retrying — version skew (a supervisor driving a worker binary from a
/// different build) is deterministic and will not heal on respawn.
pub const WORKER_PROTO_VERSION: &str = "mps-worker/v1";

/// Worker → supervisor: the first frame after startup, before any work.
///
/// The spawn-to-ready handshake is timed separately from work execution
/// so a slow process start never eats into a work item's budget. The
/// `proto` field is the versioning seam: workers predating it decode to
/// an empty string, which [`WorkerHello::check_version`] reports as a
/// mismatch against [`WORKER_PROTO_VERSION`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerHello {
    /// Protocol sanity marker.
    pub ready: bool,
    /// Protocol version the worker speaks ([`WORKER_PROTO_VERSION`]).
    #[serde(default)]
    pub proto: String,
}

impl WorkerHello {
    /// The hello a current-version worker sends.
    pub fn current() -> Self {
        WorkerHello {
            ready: true,
            proto: WORKER_PROTO_VERSION.to_string(),
        }
    }

    /// Checks the announced version against ours; a typed error on skew.
    pub fn check_version(&self) -> Result<(), SuperviseError> {
        if self.proto == WORKER_PROTO_VERSION {
            Ok(())
        } else {
            Err(SuperviseError::VersionMismatch {
                ours: WORKER_PROTO_VERSION.to_string(),
                theirs: self.proto.clone(),
            })
        }
    }
}

/// Writes one frame and flushes, so the peer sees it immediately. The
/// message is serialized straight into the frame buffer.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), SuperviseError> {
    let mut frame = serde::Writer::from_string(LEN_PLACEHOLDER.to_string());
    msg.serialize(&mut frame);
    write_framed(w, frame.into_string().into_bytes())
}

/// What a frame buffer handed to [`write_framed`] starts with: room for
/// the 4-byte length prefix, as a `str` so the frame can be built as a
/// `String`.
pub const LEN_PLACEHOLDER: &str = "\0\0\0\0";

/// Writes one frame and flushes. `frame` is [`LEN_PLACEHOLDER`] followed
/// by the payload; the placeholder is overwritten with the payload's
/// length and the whole buffer goes to one `write_all`, so a frame costs
/// one write call.
pub fn write_framed<W: Write + ?Sized>(
    w: &mut W,
    mut frame: Vec<u8>,
) -> Result<(), SuperviseError> {
    debug_assert!(frame.starts_with(LEN_PLACEHOLDER.as_bytes()));
    let len = frame.len() - LEN_PLACEHOLDER.len();
    let n = u32::try_from(len)
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| SuperviseError::Frame {
            reason: format!("frame of {len} bytes exceeds the cap"),
        })?;
    frame[..LEN_PLACEHOLDER.len()].copy_from_slice(&n.to_le_bytes());
    w.write_all(&frame)
        .map_err(|e| SuperviseError::io("write", e))?;
    w.flush().map_err(|e| SuperviseError::io("flush", e))?;
    Ok(())
}

/// Reads one raw frame. `Ok(None)` on a clean EOF at a frame boundary;
/// EOF mid-frame (a torn write / killed peer) is a typed error.
pub fn read_frame_bytes<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, SuperviseError> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(SuperviseError::Frame {
                    reason: "EOF inside a frame length prefix".to_string(),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(SuperviseError::io("read", e)),
        }
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME_BYTES {
        return Err(SuperviseError::Frame {
            reason: format!("declared frame length {n} exceeds the cap"),
        });
    }
    let mut buf = vec![0u8; n as usize];
    r.read_exact(&mut buf).map_err(|e| SuperviseError::Frame {
        reason: format!("EOF inside a {n}-byte frame body: {e}"),
    })?;
    Ok(Some(buf))
}

/// Reads and decodes one frame. `Ok(None)` on clean EOF.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, SuperviseError> {
    let Some(bytes) = read_frame_bytes(r)? else {
        return Ok(None);
    };
    decode_frame(&bytes).map(Some)
}

/// Decodes a raw frame body into a message.
pub fn decode_frame<T: Deserialize>(bytes: &[u8]) -> Result<T, SuperviseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| SuperviseError::Frame {
        reason: format!("frame is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| SuperviseError::Frame {
        reason: format!("frame is not a valid message: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Msg {
        id: u64,
        note: String,
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        let a = Msg {
            id: 1,
            note: "first".to_string(),
        };
        let b = Msg {
            id: 2,
            note: "second \"quoted\"".to_string(),
        };
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame::<_, Msg>(&mut r).unwrap(), Some(a));
        assert_eq!(read_frame::<_, Msg>(&mut r).unwrap(), Some(b));
        assert_eq!(read_frame::<_, Msg>(&mut r).unwrap(), None, "clean EOF");
    }

    /// Counts `write` calls; `write_all` on a `Vec` sink makes exactly
    /// one per buffer it is handed.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut w = CountingWriter::default();
        for id in 0..3 {
            write_frame(
                &mut w,
                &Msg {
                    id,
                    note: "one write".to_string(),
                },
            )
            .unwrap();
            assert_eq!(w.writes, id as usize + 1, "frame {id}");
        }
        let mut r = &w.bytes[..];
        assert_eq!(read_frame::<_, Msg>(&mut r).unwrap().map(|m| m.id), Some(0));
    }

    #[test]
    fn eof_mid_frame_is_a_typed_error_not_a_short_message() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Msg {
                id: 7,
                note: "torn".to_string(),
            },
        )
        .unwrap();
        // Every strict prefix (except the empty one) must error.
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            let res = read_frame::<_, Msg>(&mut r);
            assert!(
                matches!(res, Err(SuperviseError::Frame { .. })),
                "prefix of {cut} bytes must be a torn frame, got {res:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(b"garbage");
        let mut r = &buf[..];
        assert!(matches!(
            read_frame_bytes(&mut r),
            Err(SuperviseError::Frame { .. })
        ));
    }

    #[test]
    fn worker_hello_version_check() {
        assert!(WorkerHello::current().check_version().is_ok());
        // A worker from a build predating versioning: `proto` decodes to
        // the empty string and must be reported as skew.
        let legacy: WorkerHello = serde_json::from_str(r#"{"ready":true}"#).unwrap();
        assert!(matches!(
            legacy.check_version(),
            Err(SuperviseError::VersionMismatch { theirs, .. }) if theirs.is_empty()
        ));
        let future = WorkerHello {
            ready: true,
            proto: "mps-worker/v2".to_string(),
        };
        match future.check_version().unwrap_err() {
            SuperviseError::VersionMismatch { ours, theirs } => {
                assert_eq!(ours, WORKER_PROTO_VERSION);
                assert_eq!(theirs, "mps-worker/v2");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_is_a_frame_error() {
        let payload = b"not json at all";
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(payload);
        let mut r = &buf[..];
        assert!(matches!(
            read_frame::<_, Msg>(&mut r),
            Err(SuperviseError::Frame { .. })
        ));
    }
}
