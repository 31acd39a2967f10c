//! Deterministic I/O fault injection: an environment seam under every
//! durability path.
//!
//! The journal, the campaign manifests, and the serve backend all assume
//! `write(2)`, `fdatasync(2)`, and `rename(2)` succeed. This module makes
//! that assumption *testable* instead of implicit:
//!
//! * [`IoEnv`] is the narrow waist — the five filesystem operations the
//!   durability layers actually perform (create, open-for-append, read,
//!   rename, directory sync) plus a short-write-capable file handle
//!   ([`IoFile`]);
//! * [`RealIo`] passes straight through to `std::fs`;
//! * [`ChaosIo`] injects ENOSPC, EIO, short writes, fsync failures, torn
//!   renames, and latency from a seeded [`IoFaultPlan`] — every decision
//!   derives from `splitmix64(seed ^ op-counter)`, so a plan replays
//!   bit-identically;
//! * [`ChaosStream`] and [`WireFaultPlan`] do the same for a byte stream:
//!   injected corruption, stalls, and half-closed connections for the
//!   wire protocols.
//!
//! The plans ride the [`FaultPlan`](crate::FaultPlan) grammar: the clause
//! `io:enospc@0.01,shortwrite@0.05` parses into
//! [`FaultPlan::io`](crate::FaultPlan), which a harness installs as a
//! [`ChaosIo`] seeded with the plan's seed.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::clause::{self, PlanParseError};

/// A writable file handle as the durability layers see it: sequential
/// writes plus the three positioning/durability calls resume needs.
pub trait IoFile: Write + Send {
    /// Forces file data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> std::io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
    /// Seeks to the end of the file, returning the new position.
    fn seek_end(&mut self) -> std::io::Result<u64>;
}

impl IoFile for std::fs::File {
    fn sync_data(&mut self) -> std::io::Result<()> {
        std::fs::File::sync_data(self)
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        std::fs::File::set_len(self, len)
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        use std::io::Seek;
        self.seek(std::io::SeekFrom::End(0))
    }
}

/// The filesystem operations the durability layers perform. Everything a
/// journal, manifest, or campaign writer touches goes through one of
/// these five calls, so swapping the env swaps the *physics* of the disk.
pub trait IoEnv: Send + Sync {
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>>;
    /// Opens an existing file for writing without truncating (resume).
    fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Syncs a directory so a preceding rename is itself durable.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// The passthrough environment: plain `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl IoEnv for RealIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(f))
    }
    fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        Ok(Box::new(f))
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        std::fs::File::open(dir)?.sync_all()
    }
}

/// Per-class injection probabilities (and latency) for the I/O layer.
///
/// Probabilities are per *operation*: every create/open/read/write/
/// sync/rename rolls once against its applicable classes. `latency_ms`
/// is applied to every operation unconditionally (keep it small — it
/// bounds wall time, not correctness).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct IoFaultPlan {
    /// Probability a write fails with ENOSPC before any byte lands.
    #[serde(default)]
    pub enospc: f64,
    /// Probability an open/read/write fails with EIO.
    #[serde(default)]
    pub eio: f64,
    /// Probability a write lands only a prefix of its buffer, then fails
    /// (a torn line on disk — the crash-mid-write case).
    #[serde(default)]
    pub short_write: f64,
    /// Probability `fdatasync` (file or directory) reports failure. Data
    /// already written stays on disk — the lying-fsync ambiguity.
    #[serde(default)]
    pub fsync_fail: f64,
    /// Probability a rename fails: half the time nothing moved, half the
    /// time the rename happened but the error was reported anyway. The
    /// destination is never left partial — POSIX rename is atomic.
    #[serde(default)]
    pub torn_rename: f64,
    /// Fixed latency injected into every operation, in milliseconds.
    #[serde(default)]
    pub latency_ms: u64,
}

impl IoFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.enospc == 0.0
            && self.eio == 0.0
            && self.short_write == 0.0
            && self.fsync_fail == 0.0
            && self.torn_rename == 0.0
            && self.latency_ms == 0
    }

    /// A plan scaled by one knob: `0.0` injects nothing, `1.0` is a
    /// hostile disk (a few percent of every class per operation).
    /// Deterministic and monotone in `intensity`.
    pub fn with_intensity(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 4.0);
        IoFaultPlan {
            enospc: 0.03 * i,
            eio: 0.03 * i,
            short_write: 0.05 * i,
            fsync_fail: 0.05 * i,
            torn_rename: 0.10 * i,
            latency_ms: 0,
        }
    }

    /// Parses the comma-separated `io:` clause body of the fault-plan
    /// grammar: `enospc@P`, `eio@P`, `shortwrite@P`, `fsync@P`,
    /// `rename@P`, `latency@MS`, or a preset `light`/`moderate`/`heavy`
    /// ([`IoFaultPlan::with_intensity`] 0.25 / 0.5 / 1.0).
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let mut plan = IoFaultPlan::default();
        for c in clause::clauses(spec, ',') {
            if let Some(intensity) = clause::preset(c.0) {
                let preset = IoFaultPlan::with_intensity(intensity);
                plan.enospc = plan.enospc.max(preset.enospc);
                plan.eio = plan.eio.max(preset.eio);
                plan.short_write = plan.short_write.max(preset.short_write);
                plan.fsync_fail = plan.fsync_fail.max(preset.fsync_fail);
                plan.torn_rename = plan.torn_rename.max(preset.torn_rename);
                continue;
            }
            let (knob, value) = c.split(c.0, '@', "knob@value")?;
            match knob {
                "latency" => {
                    plan.latency_ms = value.parse().map_err(|_| {
                        c.err(&format!("latency `{value}` is not a millisecond count"))
                    })?;
                }
                "enospc" => plan.enospc = c.prob(value)?,
                "eio" => plan.eio = c.prob(value)?,
                "shortwrite" => plan.short_write = c.prob(value)?,
                "fsync" => plan.fsync_fail = c.prob(value)?,
                "rename" => plan.torn_rename = c.prob(value)?,
                other => return Err(c.err(&format!("unknown io knob `{other}`"))),
            }
        }
        Ok(plan)
    }
}

/// Which injected faults actually fired, per class — the chaos driver
/// uses these to prove coverage rather than hope for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedIo {
    /// ENOSPC write failures injected.
    pub enospc: u64,
    /// EIO open/read/write failures injected.
    pub eio: u64,
    /// Short (torn) writes injected.
    pub short_write: u64,
    /// fsync failures injected (file or directory).
    pub fsync_fail: u64,
    /// Torn renames injected.
    pub torn_rename: u64,
}

impl InjectedIo {
    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.enospc + self.eio + self.short_write + self.fsync_fail + self.torn_rename
    }

    /// Accumulates another count set into this one.
    pub fn absorb(&mut self, other: &InjectedIo) {
        self.enospc += other.enospc;
        self.eio += other.eio;
        self.short_write += other.short_write;
        self.fsync_fail += other.fsync_fail;
        self.torn_rename += other.torn_rename;
    }
}

/// splitmix64: the standard 64-bit finalizer — every chaos decision is a
/// pure function of `(seed, op index)`, independent of wall clock and
/// allocation order.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

struct ChaosState {
    seed: u64,
    plan: IoFaultPlan,
    ops: AtomicU64,
    enospc: AtomicU64,
    eio: AtomicU64,
    short_write: AtomicU64,
    fsync_fail: AtomicU64,
    torn_rename: AtomicU64,
}

impl ChaosState {
    /// One decision draw: consumes an op tick, applies latency, returns
    /// `(uniform in [0,1), raw hash)` — the hash supplies sub-decisions
    /// (short-write length, rename variant).
    fn roll(&self) -> (f64, u64) {
        let i = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.plan.latency_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.plan.latency_ms));
        }
        let h = splitmix64(self.seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (unit(h), h)
    }
}

/// The adversarial filesystem: wraps [`RealIo`] and injects the plan's
/// fault classes deterministically. Cloning shares the op counter, so a
/// `ChaosIo` and the files it opened draw from one decision sequence.
#[derive(Clone)]
pub struct ChaosIo {
    state: Arc<ChaosState>,
}

impl ChaosIo {
    /// An adversarial env injecting `plan`, seeded by `seed`.
    pub fn new(seed: u64, plan: IoFaultPlan) -> Self {
        ChaosIo {
            state: Arc::new(ChaosState {
                seed,
                plan,
                ops: AtomicU64::new(0),
                enospc: AtomicU64::new(0),
                eio: AtomicU64::new(0),
                short_write: AtomicU64::new(0),
                fsync_fail: AtomicU64::new(0),
                torn_rename: AtomicU64::new(0),
            }),
        }
    }

    /// How many faults have been injected so far, per class.
    pub fn injected(&self) -> InjectedIo {
        InjectedIo {
            enospc: self.state.enospc.load(Ordering::SeqCst),
            eio: self.state.eio.load(Ordering::SeqCst),
            short_write: self.state.short_write.load(Ordering::SeqCst),
            fsync_fail: self.state.fsync_fail.load(Ordering::SeqCst),
            torn_rename: self.state.torn_rename.load(Ordering::SeqCst),
        }
    }

    /// Operations rolled so far (faulted or not).
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    fn open_fault(&self) -> Option<std::io::Error> {
        let (u, _) = self.state.roll();
        if u < self.state.plan.eio {
            self.state.eio.fetch_add(1, Ordering::SeqCst);
            return Some(std::io::Error::other("injected EIO (chaos open)"));
        }
        None
    }
}

struct ChaosFile {
    inner: Box<dyn IoFile>,
    state: Arc<ChaosState>,
}

impl Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let (u, h) = self.state.roll();
        let p = &self.state.plan;
        if u < p.enospc {
            self.state.enospc.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected ENOSPC (chaos write)",
            ));
        }
        if u < p.enospc + p.eio {
            self.state.eio.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::Error::other("injected EIO (chaos write)"));
        }
        if u < p.enospc + p.eio + p.short_write && buf.len() > 1 {
            // Land a prefix, then fail: the on-disk state is a torn
            // write, exactly what a crash mid-`write(2)` leaves behind.
            let cut = 1 + (h as usize) % (buf.len() - 1);
            self.inner.write_all(&buf[..cut])?;
            let _ = self.inner.flush();
            self.state.short_write.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::Error::other(format!(
                "injected short write (chaos): {cut} of {} bytes landed",
                buf.len()
            )));
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl IoFile for ChaosFile {
    fn sync_data(&mut self) -> std::io::Result<()> {
        let (u, _) = self.state.roll();
        if u < self.state.plan.fsync_fail {
            self.state.fsync_fail.fetch_add(1, Ordering::SeqCst);
            // The data may in fact be durable — fsync failure reports
            // are ambiguous, and callers must treat them as fatal.
            return Err(std::io::Error::other("injected fsync failure (chaos)"));
        }
        self.inner.sync_data()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        self.inner.seek_end()
    }
}

impl IoEnv for ChaosIo {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        if let Some(e) = self.open_fault() {
            return Err(e);
        }
        Ok(Box::new(ChaosFile {
            inner: RealIo.create(path)?,
            state: Arc::clone(&self.state),
        }))
    }
    fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
        if let Some(e) = self.open_fault() {
            return Err(e);
        }
        Ok(Box::new(ChaosFile {
            inner: RealIo.open_write(path)?,
            state: Arc::clone(&self.state),
        }))
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let (u, _) = self.state.roll();
        if u < self.state.plan.eio {
            self.state.eio.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::Error::other("injected EIO (chaos read)"));
        }
        RealIo.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let (u, h) = self.state.roll();
        if u < self.state.plan.torn_rename {
            self.state.torn_rename.fetch_add(1, Ordering::SeqCst);
            // rename(2) is atomic: the failure modes are "nothing moved"
            // and "it moved but the caller saw an error" (crash between
            // rename and ack). A partial destination is *not* a mode.
            if h & (1 << 60) != 0 {
                RealIo.rename(from, to)?;
            }
            return Err(std::io::Error::other("injected torn rename (chaos)"));
        }
        RealIo.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        let (u, _) = self.state.roll();
        if u < self.state.plan.fsync_fail {
            self.state.fsync_fail.fetch_add(1, Ordering::SeqCst);
            return Err(std::io::Error::other("injected dir-sync failure (chaos)"));
        }
        RealIo.sync_dir(dir)
    }
}

/// Per-class injection probabilities for a byte stream (the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WireFaultPlan {
    /// Probability a read/write has one byte corrupted (bit flip).
    #[serde(default)]
    pub corrupt: f64,
    /// Probability an operation stalls for `stall_ms` first.
    #[serde(default)]
    pub stall: f64,
    /// Stall length, milliseconds.
    #[serde(default)]
    pub stall_ms: u64,
    /// Probability the connection half-closes: reads return EOF (even
    /// mid-frame), writes fail with broken pipe.
    #[serde(default)]
    pub close: f64,
}

impl WireFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.corrupt == 0.0 && self.stall == 0.0 && self.close == 0.0
    }

    /// A plan scaled by one knob, like [`IoFaultPlan::with_intensity`].
    pub fn with_intensity(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 4.0);
        WireFaultPlan {
            corrupt: 0.05 * i,
            stall: 0.05 * i,
            stall_ms: 20,
            close: 0.02 * i,
        }
    }
}

/// Which wire faults actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedWire {
    /// Corrupted operations.
    pub corrupt: u64,
    /// Injected stalls.
    pub stall: u64,
    /// Injected half-closes.
    pub close: u64,
}

impl InjectedWire {
    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        self.corrupt + self.stall + self.close
    }

    /// Accumulates another count set into this one.
    pub fn absorb(&mut self, other: &InjectedWire) {
        self.corrupt += other.corrupt;
        self.stall += other.stall;
        self.close += other.close;
    }
}

struct WireState {
    seed: u64,
    plan: WireFaultPlan,
    ops: AtomicU64,
    corrupt: AtomicU64,
    stall: AtomicU64,
    close: AtomicU64,
}

/// An adversarial transport: wraps any `Read + Write` stream and injects
/// the plan's wire faults deterministically (per operation — byte
/// positions within an op derive from the op hash).
pub struct ChaosStream<S> {
    inner: S,
    state: WireState,
    closed: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`, injecting `plan` seeded by `seed`.
    pub fn new(inner: S, seed: u64, plan: WireFaultPlan) -> Self {
        ChaosStream {
            inner,
            state: WireState {
                seed,
                plan,
                ops: AtomicU64::new(0),
                corrupt: AtomicU64::new(0),
                stall: AtomicU64::new(0),
                close: AtomicU64::new(0),
            },
            closed: false,
        }
    }

    /// How many wire faults have been injected so far, per class.
    pub fn injected(&self) -> InjectedWire {
        InjectedWire {
            corrupt: self.state.corrupt.load(Ordering::SeqCst),
            stall: self.state.stall.load(Ordering::SeqCst),
            close: self.state.close.load(Ordering::SeqCst),
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn roll(&self) -> (f64, u64) {
        let i = self.state.ops.fetch_add(1, Ordering::SeqCst);
        let h =
            splitmix64(self.state.seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (unit(h), h)
    }

    fn maybe_stall(&self, u: f64) {
        if u < self.state.plan.stall {
            self.state.stall.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(self.state.plan.stall_ms));
        }
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.closed {
            return Ok(0);
        }
        let (u, h) = self.roll();
        let p = &self.state.plan;
        if u < p.close {
            // Half-close: the peer vanished; all further reads are EOF —
            // possibly mid-frame, which readers must report typed.
            self.state.close.fetch_add(1, Ordering::SeqCst);
            self.closed = true;
            return Ok(0);
        }
        self.maybe_stall(u);
        let n = self.inner.read(buf)?;
        if n > 0 && u >= p.close && u < p.close + p.corrupt {
            self.state.corrupt.fetch_add(1, Ordering::SeqCst);
            let at = (h >> 8) as usize % n;
            buf[at] ^= 1 << ((h >> 3) & 7);
        }
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected half-close (chaos)",
            ));
        }
        let (u, h) = self.roll();
        let p = &self.state.plan;
        if u < p.close {
            self.state.close.fetch_add(1, Ordering::SeqCst);
            self.closed = true;
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "injected half-close (chaos)",
            ));
        }
        self.maybe_stall(u);
        if !buf.is_empty() && u >= p.close && u < p.close + p.corrupt {
            self.state.corrupt.fetch_add(1, Ordering::SeqCst);
            let mut copy = buf.to_vec();
            let at = (h >> 8) as usize % copy.len();
            copy[at] ^= 1 << ((h >> 3) & 7);
            self.inner.write_all(&copy)?;
            return Ok(buf.len());
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mps-faults-io-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_round_trips() {
        let dir = scratch("real");
        let path = dir.join("f.txt");
        let mut f = RealIo.create(&path).unwrap();
        f.write_all(b"hello\n").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(RealIo.read(&path).unwrap(), b"hello\n");
        let to = dir.join("g.txt");
        RealIo.rename(&path, &to).unwrap();
        RealIo.sync_dir(&dir).unwrap();
        assert_eq!(RealIo.read(&to).unwrap(), b"hello\n");
        let mut f = RealIo.open_write(&to).unwrap();
        assert_eq!(f.seek_end().unwrap(), 6);
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(RealIo.read(&to).unwrap(), b"hello");
    }

    /// The same seeded plan replays the identical fault sequence for the
    /// identical op sequence — the bedrock of reproducible chaos runs.
    fn fault_trace(seed: u64) -> Vec<String> {
        let dir = scratch(&format!("det-{seed}"));
        let env = ChaosIo::new(seed, IoFaultPlan::with_intensity(1.0));
        let mut trace = Vec::new();
        for round in 0..30 {
            let path = dir.join(format!("f{round}"));
            match env.create(&path) {
                Err(e) => trace.push(format!("create:{e}")),
                Ok(mut f) => {
                    match f.write(b"0123456789abcdef") {
                        Err(e) => trace.push(format!("write:{e}")),
                        Ok(n) => trace.push(format!("wrote:{n}")),
                    }
                    match f.sync_data() {
                        Err(e) => trace.push(format!("sync:{e}")),
                        Ok(()) => trace.push("synced".to_string()),
                    }
                }
            }
        }
        trace
    }

    #[test]
    fn chaos_decisions_are_deterministic_in_the_seed() {
        assert_eq!(fault_trace(42), fault_trace(42));
        assert_ne!(fault_trace(42), fault_trace(43), "seeds must matter");
        let env = ChaosIo::new(42, IoFaultPlan::with_intensity(1.0));
        assert_eq!(env.injected(), InjectedIo::default());
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let dir = scratch("empty");
        let env = ChaosIo::new(1, IoFaultPlan::default());
        for i in 0..50 {
            let path = dir.join(format!("f{i}"));
            let mut f = env.create(&path).unwrap();
            f.write_all(b"data").unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(env.injected().total(), 0);
        assert!(env.ops() > 0);
    }

    #[test]
    fn short_writes_land_a_prefix_then_fail() {
        let dir = scratch("short");
        let plan = IoFaultPlan {
            short_write: 1.0,
            ..IoFaultPlan::default()
        };
        let env = ChaosIo::new(7, plan);
        let path = dir.join("f");
        let mut f = env.create(&path).unwrap();
        let err = f.write(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("short write"));
        drop(f);
        let on_disk = RealIo.read(&path).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < 10, "prefix landed");
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        assert_eq!(env.injected().short_write, 1);
    }

    #[test]
    fn torn_rename_never_leaves_a_partial_destination() {
        let dir = scratch("rename");
        let plan = IoFaultPlan {
            torn_rename: 1.0,
            ..IoFaultPlan::default()
        };
        for seed in 0..16u64 {
            let env = ChaosIo::new(seed, plan.clone());
            let from = dir.join(format!("tmp{seed}"));
            let to = dir.join(format!("final{seed}"));
            std::fs::write(&from, b"full contents").unwrap();
            let err = env.rename(&from, &to).unwrap_err();
            assert!(err.to_string().contains("torn rename"));
            // Either the rename happened wholly or not at all.
            match RealIo.read(&to) {
                Ok(data) => assert_eq!(data, b"full contents"),
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
                    assert_eq!(RealIo.read(&from).unwrap(), b"full contents");
                }
            }
        }
    }

    #[test]
    fn chaos_stream_half_close_is_eof_then_broken_pipe() {
        let plan = WireFaultPlan {
            close: 1.0,
            ..WireFaultPlan::default()
        };
        let mut s = ChaosStream::new(std::io::Cursor::new(b"payload".to_vec()), 3, plan);
        let mut buf = [0u8; 4];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF mid-stream");
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF is sticky");
        assert_eq!(
            s.write(b"x").unwrap_err().kind(),
            std::io::ErrorKind::BrokenPipe
        );
        assert_eq!(s.injected().close, 1);
    }

    #[test]
    fn chaos_stream_corrupts_exactly_one_byte_per_faulted_op() {
        let plan = WireFaultPlan {
            corrupt: 1.0,
            ..WireFaultPlan::default()
        };
        let payload = b"the quick brown fox".to_vec();
        let mut s = ChaosStream::new(std::io::Cursor::new(payload.clone()), 9, plan);
        let mut buf = vec![0u8; payload.len()];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(n, payload.len());
        let diff: Vec<usize> = (0..n).filter(|&i| buf[i] != payload[i]).collect();
        assert_eq!(diff.len(), 1, "exactly one corrupted byte");
        assert!(s.injected().corrupt >= 1);
    }

    #[test]
    fn io_plan_parse_accepts_the_documented_grammar() {
        let p = IoFaultPlan::parse("enospc@0.01,shortwrite@0.05,latency@5").unwrap();
        assert_eq!(p.enospc, 0.01);
        assert_eq!(p.short_write, 0.05);
        assert_eq!(p.latency_ms, 5);
        assert_eq!(p.eio, 0.0);
        let preset = IoFaultPlan::parse("heavy").unwrap();
        assert_eq!(preset, IoFaultPlan::with_intensity(1.0));
        for bad in ["enospc@1.5", "wibble@0.1", "enospc", "latency@x", "eio@-1"] {
            assert!(IoFaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn intensity_zero_is_empty_and_scaling_is_monotone() {
        assert!(IoFaultPlan::with_intensity(0.0).is_empty());
        assert!(WireFaultPlan::with_intensity(0.0).is_empty());
        let lo = IoFaultPlan::with_intensity(0.25);
        let hi = IoFaultPlan::with_intensity(1.0);
        assert!(lo.enospc < hi.enospc && lo.torn_rename < hi.torn_rename);
    }
}
