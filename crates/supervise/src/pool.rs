//! One supervised child worker process: spawn, feed frames, wait with
//! timeouts, kill, and always reap.
//!
//! The child's stdout is drained by a dedicated reader thread that pushes
//! whole frames into a channel, so the parent can wait with a timeout
//! (`recv_timeout`) instead of blocking on a hung worker. Stderr is
//! drained into a bounded tail buffer — on a crash, the last few KiB
//! (panic message, abort diagnostics) go into the crash report. Every
//! exit path waits on the child process: a [`WorkerProcess`] can be
//! dropped or killed, but it never leaves a zombie behind, and
//! [`WorkerProcess::kill_and_reap`] never returns before the child is
//! gone.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;

use crate::proto::{read_frame_bytes, write_frame};
use crate::SuperviseError;

/// How to launch a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Program to execute (typically `std::env::current_exe()` with a
    /// hidden worker-mode flag in `args`).
    pub program: PathBuf,
    /// Arguments, including the worker-mode flag and any configuration
    /// the worker needs to mirror the supervisor's.
    pub args: Vec<String>,
    /// Bytes of stderr tail retained for crash reports.
    pub stderr_tail_bytes: usize,
}

impl WorkerSpec {
    /// A spec with the default 8 KiB stderr tail.
    pub fn new(program: PathBuf, args: Vec<String>) -> Self {
        WorkerSpec {
            program,
            args,
            stderr_tail_bytes: 8 * 1024,
        }
    }
}

/// How a dead worker ended, plus its captured stderr tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerDeath {
    /// Exit code, when the process exited normally (101 = Rust panic).
    pub exit_code: Option<i32>,
    /// Terminating signal, when it was killed (9 = SIGKILL, 6 = SIGABRT).
    pub signal: Option<i32>,
    /// Tail of the worker's stderr output (lossy UTF-8, bounded).
    pub stderr_tail: String,
}

/// Outcome of polling a worker for its next frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerRecv {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Nothing arrived within the timeout; the worker may still be busy.
    Timeout,
    /// The worker's stdout closed (it exited or crashed); reap it.
    Disconnected,
}

/// Bounded byte ring: keeps the most recent `cap` bytes pushed into it.
#[derive(Debug)]
struct TailBuf {
    cap: usize,
    buf: Vec<u8>,
}

impl TailBuf {
    fn push(&mut self, chunk: &[u8]) {
        if chunk.len() >= self.cap {
            self.buf.clear();
            self.buf.extend_from_slice(&chunk[chunk.len() - self.cap..]);
            return;
        }
        let overflow = (self.buf.len() + chunk.len()).saturating_sub(self.cap);
        if overflow > 0 {
            self.buf.drain(..overflow);
        }
        self.buf.extend_from_slice(chunk);
    }
}

/// How long a reap waits for the stderr drain to reach EOF after the
/// child died. The pipe closes with the child, so this only runs out when
/// a grandchild still holds the pipe open.
const STDERR_DRAIN_GRACE: Duration = Duration::from_millis(500);

/// A live (or dying) child worker process.
pub struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<Vec<u8>>,
    stderr_tail: Arc<Mutex<TailBuf>>,
    /// Disconnects when the stderr drain thread has read to EOF.
    stderr_drained: Receiver<()>,
}

impl WorkerProcess {
    /// Spawns the worker with piped stdio and starts its reader threads.
    pub fn spawn(spec: &WorkerSpec) -> Result<Self, SuperviseError> {
        let mut child = Command::new(&spec.program)
            .args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| SuperviseError::io("spawn", e))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = child.stdout.take().expect("stdout was piped");
        let mut stderr = child.stderr.take().expect("stderr was piped");

        let (tx, frames) = std::sync::mpsc::channel::<Vec<u8>>();
        std::thread::spawn(move || {
            // Frame reader: forwards whole frames; stops (dropping the
            // sender, which the supervisor observes as Disconnected) on
            // EOF or a torn frame.
            while let Ok(Some(frame)) = read_frame_bytes(&mut stdout) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });

        let stderr_tail = Arc::new(Mutex::new(TailBuf {
            cap: spec.stderr_tail_bytes.max(1),
            buf: Vec::new(),
        }));
        let tail = Arc::clone(&stderr_tail);
        let (drained_tx, stderr_drained) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let _drained = drained_tx;
            let mut chunk = [0u8; 1024];
            while let Ok(n) = stderr.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                if let Ok(mut t) = tail.lock() {
                    t.push(&chunk[..n]);
                }
            }
        });

        Ok(WorkerProcess {
            child,
            stdin: Some(stdin),
            frames,
            stderr_tail,
            stderr_drained,
        })
    }

    /// Sends one frame to the worker's stdin. An error here almost always
    /// means the worker died (broken pipe) — treat it as a crash.
    pub fn send<T: Serialize>(&mut self, msg: &T) -> Result<(), SuperviseError> {
        match self.stdin.as_mut() {
            Some(stdin) => write_frame(stdin, msg),
            None => Err(SuperviseError::Io {
                op: "write",
                err: "stdin already closed".to_string(),
            }),
        }
    }

    /// Waits up to `timeout` for the worker's next frame.
    pub fn recv_timeout(&self, timeout: Duration) -> WorkerRecv {
        match self.frames.recv_timeout(timeout) {
            Ok(f) => WorkerRecv::Frame(f),
            Err(RecvTimeoutError::Timeout) => WorkerRecv::Timeout,
            Err(RecvTimeoutError::Disconnected) => WorkerRecv::Disconnected,
        }
    }

    /// SIGKILLs the worker (no-op if already dead), waits for it, and
    /// returns how it died. Never leaves a zombie.
    pub fn kill_and_reap(mut self) -> WorkerDeath {
        let _ = self.child.kill();
        self.reap()
    }

    fn reap(&mut self) -> WorkerDeath {
        // Dropping stdin first unblocks a worker stuck reading it.
        self.stdin = None;
        let status = self.child.wait().ok();
        // The drain thread may not have pushed the final chunk yet: wait
        // until it has read to EOF, so the tail ends with the child's last
        // output.
        let _ = self.stderr_drained.recv_timeout(STDERR_DRAIN_GRACE);
        let tail = self
            .stderr_tail
            .lock()
            .map(|t| String::from_utf8_lossy(&t.buf).into_owned())
            .unwrap_or_default();
        let exit_code = status.and_then(|s| s.code());
        #[cfg(unix)]
        let signal = status.and_then(|s| std::os::unix::process::ExitStatusExt::signal(&s));
        #[cfg(not(unix))]
        let signal = None;
        WorkerDeath {
            exit_code,
            signal,
            stderr_tail: tail,
        }
    }
}

impl Drop for WorkerProcess {
    /// Safety net: a dropped worker is killed and reaped, so no code path
    /// (including panics in the supervisor) leaks a child process.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::time::Instant;

    fn sh(script: &str) -> WorkerSpec {
        WorkerSpec::new(
            PathBuf::from("/bin/sh"),
            vec!["-c".to_string(), script.to_string()],
        )
    }

    #[test]
    fn echo_worker_round_trips_frames() {
        // `cat` is a perfectly protocol-compliant worker: every frame we
        // send comes back verbatim.
        let mut w = WorkerProcess::spawn(&WorkerSpec::new(PathBuf::from("/bin/cat"), vec![]))
            .expect("spawn cat");
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Ping {
            seq: u64,
        }
        w.send(&Ping { seq: 41 }).unwrap();
        match w.recv_timeout(Duration::from_secs(10)) {
            WorkerRecv::Frame(bytes) => {
                let back: Ping = crate::proto::decode_frame(&bytes).unwrap();
                assert_eq!(back, Ping { seq: 41 });
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn crashing_worker_reports_exit_code_and_stderr_tail() {
        let w = WorkerProcess::spawn(&sh("echo boom-diagnostic >&2; exit 7")).unwrap();
        // The worker produces no frames and dies: Disconnected.
        let mut waited = Duration::ZERO;
        loop {
            match w.recv_timeout(Duration::from_millis(50)) {
                WorkerRecv::Disconnected => break,
                WorkerRecv::Timeout => {
                    waited += Duration::from_millis(50);
                    assert!(waited < Duration::from_secs(10), "worker never died");
                }
                WorkerRecv::Frame(f) => panic!("unexpected frame {f:?}"),
            }
        }
        let death = w.kill_and_reap();
        assert_eq!(death.exit_code, Some(7));
        assert!(
            death.stderr_tail.contains("boom-diagnostic"),
            "stderr tail missing: {:?}",
            death.stderr_tail
        );
    }

    #[test]
    fn hung_worker_times_out_and_kill_reports_the_signal() {
        let w = WorkerProcess::spawn(&sh("sleep 600")).unwrap();
        assert_eq!(
            w.recv_timeout(Duration::from_millis(100)),
            WorkerRecv::Timeout
        );
        let start = Instant::now();
        let death = w.kill_and_reap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "kill_and_reap must not wait for the sleep"
        );
        assert_eq!(death.signal, Some(9), "SIGKILL");
        assert_eq!(death.exit_code, None);
    }

    #[test]
    fn stderr_tail_is_bounded_to_the_configured_cap() {
        let mut spec = sh("i=0; while [ $i -lt 200 ]; do echo line-$i >&2; i=$((i+1)); done");
        spec.stderr_tail_bytes = 64;
        let w = WorkerProcess::spawn(&spec).unwrap();
        loop {
            if let WorkerRecv::Disconnected = w.recv_timeout(Duration::from_millis(50)) {
                break;
            }
        }
        let death = w.kill_and_reap();
        assert!(death.stderr_tail.len() <= 64);
        assert!(
            death.stderr_tail.contains("line-199"),
            "tail keeps the most recent output: {:?}",
            death.stderr_tail
        );
    }

    #[test]
    fn tail_buf_keeps_the_last_bytes() {
        let mut t = TailBuf {
            cap: 8,
            buf: Vec::new(),
        };
        t.push(b"abcdef");
        assert_eq!(&t.buf, b"abcdef");
        t.push(b"ghij");
        assert_eq!(&t.buf, b"cdefghij");
        t.push(b"0123456789abcdef");
        assert_eq!(&t.buf, b"89abcdef");
    }
}
