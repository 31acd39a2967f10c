//! A small synchronous client for `mps-proto/v1`.
//!
//! Generic over any `Read + Write` transport so tests can drive it over
//! in-memory pipes; [`connect_unix`] is the production path.

use std::io::{BufReader, Read, Write};

use crate::proto::{
    recv_msg, send_msg, ClientFrame, ServerFrame, ServerStats, WorkRequest, WorkSummary,
    PROTO_VERSION,
};
use crate::ServeError;

/// How a submitted request ended, from the client's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Admitted and finished; cells were streamed to the callback.
    Done(WorkSummary),
    /// Admitted but the backend failed it.
    Failed {
        /// Display form of the server-side error.
        error: String,
    },
    /// Shed at admission: retry after the hinted backoff.
    Overloaded {
        /// Suggested backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// Refused: the server is draining.
    Draining,
}

/// A connected, handshaken `mps-proto/v1` client.
pub struct Client<S: Read + Write> {
    /// Reads go through the buffer, so reply frames that arrive together
    /// cost one read call; writes go straight to the stream, one call
    /// per frame.
    io: BufReader<S>,
}

impl<S: Read + Write> Client<S> {
    /// Performs the handshake on `io`. Returns the client and the
    /// server's advertised queue capacity, or a typed
    /// [`ServeError::VersionMismatch`] on skew.
    pub fn handshake(io: S, client_name: &str) -> Result<(Self, u64), ServeError> {
        let mut c = Client {
            io: BufReader::new(io),
        };
        send_msg(
            c.io.get_mut(),
            &ClientFrame::Hello {
                proto: PROTO_VERSION.to_string(),
                client: client_name.to_string(),
            },
        )?;
        match recv_msg::<_, ServerFrame>(&mut c.io)? {
            Some(ServerFrame::HelloAck { queue_capacity, .. }) => Ok((c, queue_capacity)),
            Some(ServerFrame::VersionMismatch { want, .. }) => Err(ServeError::VersionMismatch {
                ours: PROTO_VERSION.to_string(),
                theirs: want,
            }),
            Some(other) => Err(ServeError::Protocol {
                reason: format!("expected HelloAck, got {other:?}"),
            }),
            None => Err(ServeError::Protocol {
                reason: "connection closed during handshake".to_string(),
            }),
        }
    }

    /// Submits `work` and blocks until it resolves, invoking `on_cell`
    /// for every streamed `(key, payload)` cell.
    pub fn request(
        &mut self,
        id: u64,
        work: &WorkRequest,
        deadline_ms: Option<u64>,
        on_cell: &mut dyn FnMut(&str, &str),
    ) -> Result<RequestOutcome, ServeError> {
        send_msg(
            self.io.get_mut(),
            &ClientFrame::Submit {
                id,
                work: work.clone(),
                deadline_ms,
            },
        )?;
        loop {
            match recv_msg::<_, ServerFrame>(&mut self.io)? {
                Some(ServerFrame::Accepted { id: i }) if i == id => continue,
                Some(ServerFrame::Overloaded {
                    id: i,
                    retry_after_ms,
                }) if i == id => return Ok(RequestOutcome::Overloaded { retry_after_ms }),
                Some(ServerFrame::Draining { id: i }) if i == id => {
                    return Ok(RequestOutcome::Draining)
                }
                Some(ServerFrame::Cell {
                    id: i,
                    key,
                    payload,
                }) if i == id => on_cell(&key, &payload),
                Some(ServerFrame::Done { id: i, summary }) if i == id => {
                    return Ok(RequestOutcome::Done(summary))
                }
                Some(ServerFrame::Failed { id: i, error }) if i == id => {
                    return Ok(RequestOutcome::Failed { error })
                }
                Some(other) => {
                    return Err(ServeError::Protocol {
                        reason: format!("unexpected frame for request {id}: {other:?}"),
                    })
                }
                None => {
                    return Err(ServeError::Protocol {
                        reason: format!("connection closed while request {id} was in flight"),
                    })
                }
            }
        }
    }

    /// Asks for server statistics.
    pub fn health(&mut self, id: u64) -> Result<ServerStats, ServeError> {
        send_msg(self.io.get_mut(), &ClientFrame::Health { id })?;
        match recv_msg::<_, ServerFrame>(&mut self.io)? {
            Some(ServerFrame::Stats { id: i, stats }) if i == id => Ok(stats),
            Some(other) => Err(ServeError::Protocol {
                reason: format!("expected Stats, got {other:?}"),
            }),
            None => Err(ServeError::Protocol {
                reason: "connection closed awaiting Stats".to_string(),
            }),
        }
    }

    /// Asks the server to drain and waits for the acknowledgement.
    pub fn drain(&mut self, id: u64) -> Result<(), ServeError> {
        send_msg(self.io.get_mut(), &ClientFrame::Drain { id })?;
        match recv_msg::<_, ServerFrame>(&mut self.io)? {
            Some(ServerFrame::DrainStarted { id: i }) if i == id => Ok(()),
            Some(other) => Err(ServeError::Protocol {
                reason: format!("expected DrainStarted, got {other:?}"),
            }),
            None => Err(ServeError::Protocol {
                reason: "connection closed awaiting DrainStarted".to_string(),
            }),
        }
    }

    /// Sends a polite goodbye and consumes the client.
    pub fn bye(mut self) -> Result<(), ServeError> {
        send_msg(self.io.get_mut(), &ClientFrame::Bye)
    }

    /// Sends one raw frame without waiting for a reply (pipelined
    /// submission — load generators fire bursts this way).
    pub fn send_raw(&mut self, frame: &ClientFrame) -> Result<(), ServeError> {
        send_msg(self.io.get_mut(), frame)
    }

    /// Receives one raw server frame (`None` on clean EOF).
    pub fn recv_raw(&mut self) -> Result<Option<ServerFrame>, ServeError> {
        recv_msg(&mut self.io)
    }
}

/// Connects to a daemon's Unix socket and handshakes, retrying for up to
/// `retry_for` while the socket does not exist yet (daemon still
/// starting). Returns the client and the server's queue capacity.
#[cfg(unix)]
pub fn connect_unix(
    socket: &std::path::Path,
    client_name: &str,
    retry_for: std::time::Duration,
) -> Result<(Client<std::os::unix::net::UnixStream>, u64), ServeError> {
    let deadline = std::time::Instant::now() + retry_for;
    loop {
        match std::os::unix::net::UnixStream::connect(socket) {
            Ok(stream) => return Client::handshake(stream, client_name),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(ServeError::io("connect", e));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A transport that returns what the peer sent one burst at a time —
    /// a read call never spans two bursts — and counts the read calls.
    struct Bursts {
        bursts: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Bursts {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(front) = self.bursts.front_mut() else {
                return Ok(0);
            };
            let n = buf.len().min(front.len());
            buf[..n].copy_from_slice(&front[..n]);
            front.drain(..n);
            if front.is_empty() {
                self.bursts.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Bursts {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn burst(frames: &[ServerFrame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for f in frames {
            send_msg(&mut buf, f).unwrap();
        }
        buf
    }

    #[test]
    fn replies_sent_together_cost_at_most_two_reads() {
        let id = 7;
        let hello = burst(&[ServerFrame::HelloAck {
            proto: PROTO_VERSION.to_string(),
            server: "t".to_string(),
            queue_capacity: 16,
        }]);
        // A Schedule payload is about 1 KiB of JSON.
        let payload = format!(
            "{{\"tasks\":[{}]}}",
            vec!["{\"p\":[1,2],\"t\":0.5}"; 50].join(",")
        );
        let replies = burst(&[
            ServerFrame::Accepted { id },
            ServerFrame::Cell {
                id,
                key: "schedule/k".to_string(),
                payload: payload.clone(),
            },
            ServerFrame::Done {
                id,
                summary: WorkSummary {
                    cells: 1,
                    computed: 1,
                    status: "complete".to_string(),
                    ..WorkSummary::default()
                },
            },
        ]);
        let io = Bursts {
            bursts: VecDeque::from([hello, replies]),
            reads: 0,
        };
        let (mut client, _) = Client::handshake(io, "t").unwrap();
        let before = client.io.get_ref().reads;
        let work = WorkRequest::Schedule {
            dag: 0,
            variant: "analytic".to_string(),
            algo: "HCPA".to_string(),
        };
        let mut cells = Vec::new();
        let outcome = client
            .request(id, &work, None, &mut |_, p| cells.push(p.to_string()))
            .unwrap();
        assert!(matches!(outcome, RequestOutcome::Done(_)), "{outcome:?}");
        assert_eq!(cells, [payload]);
        let reads = client.io.get_ref().reads - before;
        assert!(reads <= 2, "{reads} read calls for three frames");
    }
}
