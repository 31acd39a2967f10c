//! End-to-end tests of the daemon lifecycle over a real Unix socket,
//! with a toy backend: handshake + version negotiation, request
//! streaming, admission-control shedding, deadlines, and the
//! client-initiated drain.
#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mps_journal::{fnv64, RunControl, StopReason};
use mps_serve::client::connect_unix;
use mps_serve::proto::{
    recv_msg, send_msg, ClientFrame, ServerFrame, WorkRequest, WorkSummary, PROTO_VERSION,
};
use mps_serve::{Backend, RequestOutcome, ServeError, Server, ServerConfig, ServerExit};

/// A backend that streams `take` synthetic cells per `SubsetGrid`
/// request, pausing `delay` between cells so tests can race the queue.
struct ToyBackend {
    delay: Duration,
    executed: AtomicU64,
}

impl ToyBackend {
    fn new(delay: Duration) -> Self {
        ToyBackend {
            delay,
            executed: AtomicU64::new(0),
        }
    }
}

impl Backend for ToyBackend {
    fn execute(
        &self,
        work: &WorkRequest,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        self.executed.fetch_add(1, Ordering::SeqCst);
        let cells = match work {
            WorkRequest::SubsetGrid { take, .. } => *take as u64,
            _ => 1,
        };
        let mut summary = WorkSummary {
            status: "complete".to_string(),
            ..WorkSummary::default()
        };
        for i in 0..cells {
            if let Some(reason) = ctrl.should_stop() {
                summary.status = match reason {
                    StopReason::Cancelled => "interrupted",
                    StopReason::DeadlineExpired => "deadline",
                }
                .to_string();
                return Ok(summary);
            }
            std::thread::sleep(self.delay);
            emit(&format!("toy/cell-{i}"), &format!("{{\"cell\":{i}}}"));
            summary.cells += 1;
            summary.computed += 1;
        }
        Ok(summary)
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mps-serve-{}-{tag}.sock", std::process::id()))
}

/// Starts a daemon on its own thread; returns the join handle.
fn start(
    server: &Arc<Server>,
    socket: PathBuf,
) -> std::thread::JoinHandle<Result<ServerExit, ServeError>> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.run_unix(&socket))
}

/// Connects without a handshake, waiting up to 5 s for the socket.
fn connect_raw(socket: &Path) -> UnixStream {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("connect: {e}"),
        }
    }
}

#[test]
fn handshake_submit_stream_and_drain() {
    let socket = socket_path("basic");
    let backend = Arc::new(ToyBackend::new(Duration::ZERO));
    let server = Server::new(backend.clone(), ServerConfig::default());
    let handle = start(&server, socket.clone());

    let (mut client, cap) = connect_unix(&socket, "test", Duration::from_secs(5)).unwrap();
    assert_eq!(cap, ServerConfig::default().queue_capacity as u64);

    // A three-cell request streams three cells, in order, then Done.
    let mut cells = Vec::new();
    let outcome = client
        .request(
            7,
            &WorkRequest::SubsetGrid {
                take: 3,
                repeats: 1,
                disturb: None,
            },
            None,
            &mut |key, payload| cells.push((key.to_string(), payload.to_string())),
        )
        .unwrap();
    assert_eq!(
        cells,
        vec![
            ("toy/cell-0".to_string(), "{\"cell\":0}".to_string()),
            ("toy/cell-1".to_string(), "{\"cell\":1}".to_string()),
            ("toy/cell-2".to_string(), "{\"cell\":2}".to_string()),
        ]
    );
    match outcome {
        RequestOutcome::Done(summary) => {
            assert_eq!(summary.cells, 3);
            assert_eq!(summary.computed, 3);
            assert_eq!(summary.status, "complete");
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // Health reflects the served request.
    let stats = client.health(8).unwrap();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.shed, 0);
    assert!(!stats.draining);

    // Client-initiated drain: the daemon acks, finishes, and exits clean.
    client.drain(9).unwrap();
    let exit = handle.join().unwrap().unwrap();
    assert_eq!(exit.served, 1);
    assert_eq!(exit.shed, 0);
    assert!(!exit.interrupted);
    assert!(!socket.exists(), "socket removed on exit");
}

#[test]
fn a_second_daemon_on_a_live_socket_fails_typed() {
    let socket = socket_path("live");
    let first = Server::new(
        Arc::new(ToyBackend::new(Duration::ZERO)),
        ServerConfig::default(),
    );
    let handle = start(&first, socket.clone());
    let (mut client, _) = connect_unix(&socket, "first", Duration::from_secs(5)).unwrap();

    let second = Server::new(
        Arc::new(ToyBackend::new(Duration::ZERO)),
        ServerConfig::default(),
    );
    match second.run_unix(&socket) {
        Err(ServeError::SocketInUse { path }) => assert_eq!(path, socket.display().to_string()),
        other => panic!("expected SocketInUse, got {other:?}"),
    }

    // The first daemon kept its address: old and new connections reach it.
    assert!(!client.health(1).unwrap().draining);
    let (mut fresh, _) = connect_unix(&socket, "after", Duration::from_secs(5)).unwrap();
    assert!(!fresh.health(2).unwrap().draining);
    fresh.drain(3).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn a_stale_socket_file_is_replaced() {
    let socket = socket_path("stale");
    let _ = std::fs::remove_file(&socket);
    // A listener that is gone leaves a socket file nobody accepts on.
    drop(std::os::unix::net::UnixListener::bind(&socket).unwrap());
    assert!(socket.exists());

    let server = Server::new(
        Arc::new(ToyBackend::new(Duration::ZERO)),
        ServerConfig::default(),
    );
    let handle = start(&server, socket.clone());
    let (mut c, _) = connect_unix(&socket, "stale", Duration::from_secs(5)).unwrap();
    c.drain(1).unwrap();
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket removed on exit");
}

#[test]
fn version_skew_gets_a_typed_mismatch() {
    let socket = socket_path("skew");
    let backend = Arc::new(ToyBackend::new(Duration::ZERO));
    let server = Server::new(backend, ServerConfig::default());
    let handle = start(&server, socket.clone());

    // Wait for the socket, then speak a future protocol version.
    let mut stream = connect_raw(&socket);
    send_msg(
        &mut stream,
        &ClientFrame::Hello {
            proto: "mps-proto/v99".to_string(),
            client: "test".to_string(),
        },
    )
    .unwrap();
    match recv_msg::<_, ServerFrame>(&mut stream).unwrap() {
        Some(ServerFrame::VersionMismatch { want, got }) => {
            assert_eq!(want, PROTO_VERSION);
            assert_eq!(got, "mps-proto/v99");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The server closes the connection after the mismatch frame.
    assert_eq!(recv_msg::<_, ServerFrame>(&mut stream).unwrap(), None);

    // And the typed client surfaces it as an error.
    let err = connect_unix(&socket, "test", Duration::from_secs(1));
    assert!(err.is_ok(), "a correct-version client still connects");
    drop(err);

    let (mut c, _) = connect_unix(&socket, "test", Duration::from_secs(1)).unwrap();
    c.drain(1).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn overload_is_shed_with_a_retry_hint() {
    let socket = socket_path("overload");
    // One slow executor, queue of one: a burst of submissions must shed.
    let backend = Arc::new(ToyBackend::new(Duration::from_millis(30)));
    let cfg = ServerConfig {
        queue_capacity: 1,
        executors: 1,
        ..ServerConfig::default()
    };
    let server = Server::new(backend, cfg);
    let handle = start(&server, socket.clone());

    let (mut c, _) = connect_unix(&socket, "burst", Duration::from_secs(5)).unwrap();
    // Fire submissions without reading replies: the queue (1 executor + 1
    // slot) cannot hold 6 outstanding ten-cell requests.
    for id in 0..6u64 {
        c.send_raw(&ClientFrame::Submit {
            id,
            work: WorkRequest::SubsetGrid {
                take: 10,
                repeats: 1,
                disturb: None,
            },
            deadline_ms: None,
        })
        .unwrap();
    }
    // Partition the admission verdicts (they arrive before any Cell of
    // the same id thanks to the server's write-lock ordering).
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut seen = 0u64;
    while seen < 6 {
        match c.recv_raw().unwrap() {
            Some(ServerFrame::Accepted { .. }) => {
                admitted += 1;
                seen += 1;
            }
            Some(ServerFrame::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms >= 50, "hint {retry_after_ms} below floor");
                shed += 1;
                seen += 1;
            }
            Some(ServerFrame::Cell { .. }) | Some(ServerFrame::Done { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(admitted >= 1, "at least one request runs");
    assert!(shed >= 1, "a burst at 6× capacity must shed");

    // Drain on a second connection (the first still has streams queued).
    let (mut c2, _) = connect_unix(&socket, "ctl", Duration::from_secs(5)).unwrap();
    c2.drain(100).unwrap();
    let exit = handle.join().unwrap().unwrap();
    assert_eq!(exit.served, admitted, "every admitted request completes");
    assert_eq!(exit.shed, shed);
    assert!(!exit.interrupted);
}

#[test]
fn a_request_deadline_stops_work_at_a_cell_boundary() {
    let socket = socket_path("deadline");
    let backend = Arc::new(ToyBackend::new(Duration::from_millis(10)));
    let server = Server::new(backend, ServerConfig::default());
    let handle = start(&server, socket.clone());

    let (mut c, _) = connect_unix(&socket, "deadline", Duration::from_secs(5)).unwrap();
    // 200 cells × 10 ms ≫ a 40 ms deadline: the request must come back
    // early with the deadline status and only a prefix of the cells.
    let mut cells = 0u64;
    let outcome = c
        .request(
            1,
            &WorkRequest::SubsetGrid {
                take: 200,
                repeats: 1,
                disturb: None,
            },
            Some(40),
            &mut |_, _| cells += 1,
        )
        .unwrap();
    match outcome {
        RequestOutcome::Done(summary) => {
            assert_eq!(summary.status, "deadline");
            assert!(summary.cells < 200, "deadline must cut the grid short");
        }
        other => panic!("expected Done-with-deadline, got {other:?}"),
    }

    c.drain(2).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn draining_refuses_new_submissions() {
    let socket = socket_path("drainrefuse");
    let backend = Arc::new(ToyBackend::new(Duration::from_millis(20)));
    let server = Server::new(backend, ServerConfig::default());
    let handle = start(&server, socket.clone());

    let (mut c, _) = connect_unix(&socket, "drainer", Duration::from_secs(5)).unwrap();
    // Park one slow request so the drain has something to finish, using a
    // raw submit (no reply pump) on a second connection.
    let (mut busy, _) = connect_unix(&socket, "busy", Duration::from_secs(5)).unwrap();
    busy.send_raw(&ClientFrame::Submit {
        id: 1,
        work: WorkRequest::SubsetGrid {
            take: 5,
            repeats: 1,
            disturb: None,
        },
        deadline_ms: None,
    })
    .unwrap();
    // Wait for the admission ack so the drain can't race it.
    match busy.recv_raw().unwrap() {
        Some(ServerFrame::Accepted { id: 1 }) => {}
        other => panic!("expected Accepted, got {other:?}"),
    }

    c.drain(2).unwrap();
    // Post-drain submissions get the typed Draining refusal.
    let outcome = c
        .request(
            3,
            &WorkRequest::SubsetGrid {
                take: 1,
                repeats: 1,
                disturb: None,
            },
            None,
            &mut |_, _| {},
        )
        .unwrap();
    assert_eq!(outcome, RequestOutcome::Draining);

    let exit = handle.join().unwrap().unwrap();
    // The parked request still finished: graceful means admitted work
    // completes.
    assert_eq!(exit.served, 1);
    assert!(!exit.interrupted);
}

#[test]
fn a_deeply_nested_frame_is_rejected_and_the_daemon_keeps_serving() {
    let socket = socket_path("nested");
    let backend = Arc::new(ToyBackend::new(Duration::ZERO));
    let server = Server::new(backend, ServerConfig::default());
    let handle = start(&server, socket.clone());

    // A checksum-valid envelope whose body is 100 000 `[`: about 100 KB,
    // far below the frame cap. Parsing it must fail with a typed error
    // instead of overflowing the connection thread's stack, which would
    // abort the whole daemon.
    let body = "[".repeat(100_000);
    let envelope = format!(
        "{{\"sum\":\"{:016x}\",\"body\":\"{body}\"}}",
        fnv64(body.as_bytes())
    );
    let mut frame = (envelope.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(envelope.as_bytes());
    let mut stream = connect_raw(&socket);
    stream.write_all(&frame).unwrap();
    // The daemon drops the connection that sent it.
    assert!(!matches!(
        recv_msg::<_, ServerFrame>(&mut stream),
        Ok(Some(_))
    ));

    // A fresh client still gets its `Hello` answered.
    let (mut c, cap) = connect_unix(&socket, "after", Duration::from_secs(5)).unwrap();
    assert_eq!(cap, ServerConfig::default().queue_capacity as u64);
    c.drain(1).unwrap();
    handle.join().unwrap().unwrap();
}
