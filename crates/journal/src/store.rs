//! Journal files on disk: append-only writer, torn-tail recovery, and the
//! atomically-replaced manifest sidecar.
//!
//! Every filesystem touch goes through an [`IoEnv`] — the environment
//! seam from `mps-faults` — so the same code runs against the real disk
//! ([`RealIo`]) and against an adversarial one
//! ([`ChaosIo`](mps_faults::ChaosIo)) that injects ENOSPC, EIO, short
//! writes, fsync failures, and torn renames. The plain entry points
//! (`create`, `recover`, `write_manifest`, …) are the [`RealIo`]
//! shorthands; the `*_in` variants take an explicit env.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mps_faults::io::{IoEnv, IoFile, RealIo};

use crate::format::{decode_line, encode_line, JournalHeader, HEADER_KEY};
use crate::JournalError;

/// Format tag of the manifest sidecar.
pub const MANIFEST_FORMAT_V1: &str = "mps-journal-manifest/v1";

/// Append-only handle to a journal file.
///
/// Every appended record is written as one line in a single `write(2)`
/// and flushed immediately, so a crash loses at most the line in flight;
/// [`JournalWriter::sync`] additionally forces the data to stable storage
/// (checkpoints, graceful shutdown).
pub struct JournalWriter {
    file: Box<dyn IoFile>,
    path: PathBuf,
    records: u64,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` and writes its header line.
    ///
    /// Fails with [`JournalError::AlreadyExists`] if the path is occupied
    /// — an existing journal is resumed ([`open_resume`]) or removed,
    /// never silently clobbered.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        Self::create_in(&RealIo, path, header)
    }

    /// [`JournalWriter::create`] against an explicit I/O environment.
    pub fn create_in(
        env: &dyn IoEnv,
        path: &Path,
        header: &JournalHeader,
    ) -> Result<Self, JournalError> {
        if path.exists() {
            return Err(JournalError::AlreadyExists {
                path: path.display().to_string(),
            });
        }
        Self::create_overwrite_in(env, path, header)
    }

    /// Creates (or truncates) a journal at `path` and writes its header.
    pub fn create_overwrite(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        Self::create_overwrite_in(&RealIo, path, header)
    }

    /// [`JournalWriter::create_overwrite`] against an explicit I/O
    /// environment.
    pub fn create_overwrite_in(
        env: &dyn IoEnv,
        path: &Path,
        header: &JournalHeader,
    ) -> Result<Self, JournalError> {
        let file = env
            .create(path)
            .map_err(|e| JournalError::io("create", path, e))?;
        let mut w = JournalWriter {
            file,
            path: path.to_path_buf(),
            records: 0,
        };
        let header_json = serde_json::to_string(header).map_err(|e| JournalError::Serde {
            what: "journal header",
            err: e.to_string(),
        })?;
        w.append_line(HEADER_KEY, &header_json)?;
        w.records = 0; // the header is not a record
        w.sync()?;
        Ok(w)
    }

    fn append_line(&mut self, key: &str, payload_json: &str) -> Result<(), JournalError> {
        let mut line = encode_line(key, payload_json)?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| JournalError::io("append", &self.path, e))?;
        self.file
            .flush()
            .map_err(|e| JournalError::io("flush", &self.path, e))?;
        self.records += 1;
        Ok(())
    }

    /// Appends one record (key + single-line JSON payload) and flushes it
    /// to the OS: it survives a process kill, a power loss only after a
    /// later [`JournalWriter::sync`].
    pub fn append_record(&mut self, key: &str, payload_json: &str) -> Result<(), JournalError> {
        self.append_line(key, payload_json)
    }

    /// Forces journal data to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| JournalError::io("sync", &self.path, e))
    }

    /// Records appended so far (journal lines minus the header).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything salvaged from an existing journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJournal {
    /// The campaign header, or `None` when even the header line was torn
    /// (the journal is then equivalent to empty).
    pub header: Option<JournalHeader>,
    /// Intact `(key, payload_json)` records, in append order.
    pub records: Vec<(String, String)>,
    /// Byte offset just past the last intact line — the truncation point
    /// for resuming.
    pub intact_bytes: u64,
    /// Bytes of torn tail discarded after `intact_bytes`.
    pub dropped_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub dropped_reason: Option<String>,
}

/// Reads a journal, salvaging every intact record and stopping at the
/// first torn line. Never modifies the file.
///
/// Fails only on I/O errors or when the file's first intact line is not
/// a journal header (the path points at something that is not ours —
/// refusing protects against truncating an unrelated file on resume).
pub fn recover(path: &Path) -> Result<RecoveredJournal, JournalError> {
    recover_in(&RealIo, path)
}

/// [`recover`] against an explicit I/O environment.
pub fn recover_in(env: &dyn IoEnv, path: &Path) -> Result<RecoveredJournal, JournalError> {
    let data = env
        .read(path)
        .map_err(|e| JournalError::io("read", path, e))?;
    let mut out = RecoveredJournal {
        header: None,
        records: Vec::new(),
        intact_bytes: 0,
        dropped_bytes: 0,
        dropped_reason: None,
    };
    let mut pos = 0usize;
    let mut line_no = 0usize;
    while pos < data.len() {
        let Some(nl) = data[pos..].iter().position(|&b| b == b'\n') else {
            out.dropped_reason = Some("unterminated final line".to_string());
            break;
        };
        let Ok(line) = std::str::from_utf8(&data[pos..pos + nl]) else {
            out.dropped_reason = Some("invalid UTF-8".to_string());
            break;
        };
        match decode_line(line) {
            Ok((key, payload)) => {
                if line_no == 0 {
                    if key != HEADER_KEY {
                        return Err(JournalError::Corrupt {
                            line: 1,
                            reason: format!("first record has key {key:?}, not a journal header"),
                        });
                    }
                    out.header = Some(serde_json::from_str(&payload).map_err(|e| {
                        JournalError::Corrupt {
                            line: 1,
                            reason: format!("unreadable header: {e}"),
                        }
                    })?);
                } else {
                    out.records.push((key, payload));
                }
                pos += nl + 1;
                out.intact_bytes = pos as u64;
                line_no += 1;
            }
            Err(reason) => {
                out.dropped_reason = Some(reason);
                break;
            }
        }
    }
    out.dropped_bytes = data.len() as u64 - out.intact_bytes;
    Ok(out)
}

/// Recovers a journal and opens it for appending: the torn tail (if any)
/// is truncated away so the next [`JournalWriter::append_record`] starts
/// on a clean line boundary.
///
/// When the header itself was torn, the returned recovery has
/// `header: None` and the caller should recreate the journal with
/// [`JournalWriter::create_overwrite`].
pub fn open_resume(path: &Path) -> Result<(RecoveredJournal, JournalWriter), JournalError> {
    open_resume_in(&RealIo, path)
}

/// [`open_resume`] against an explicit I/O environment.
pub fn open_resume_in(
    env: &dyn IoEnv,
    path: &Path,
) -> Result<(RecoveredJournal, JournalWriter), JournalError> {
    let recovered = recover_in(env, path)?;
    let mut file = env
        .open_write(path)
        .map_err(|e| JournalError::io("open", path, e))?;
    file.set_len(recovered.intact_bytes)
        .map_err(|e| JournalError::io("truncate", path, e))?;
    file.seek_end()
        .map_err(|e| JournalError::io("seek", path, e))?;
    let writer = JournalWriter {
        file,
        path: path.to_path_buf(),
        records: recovered.records.len() as u64,
    };
    Ok((recovered, writer))
}

/// Campaign status sidecar — tiny, human-readable, always replaced
/// atomically so a reader can never observe a half-written manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format tag ([`MANIFEST_FORMAT_V1`]).
    pub format: String,
    /// Campaign id, mirroring the journal header.
    pub campaign: String,
    /// Records durable in the journal at manifest-write time.
    pub records: u64,
    /// Records a complete campaign will contain.
    pub expected: u64,
    /// `complete` | `interrupted` | `deadline`.
    pub status: String,
    /// Cells quarantined as poison (crashed / timed out repeatedly);
    /// counted inside `records` — their journal entries carry crash
    /// reports instead of measurements.
    #[serde(default)]
    pub quarantined: u64,
}

impl Manifest {
    /// True when every expected record is present.
    pub fn is_complete(&self) -> bool {
        self.status == "complete"
    }
}

/// The manifest path for a journal: `<journal>.manifest.json`.
pub fn manifest_path(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_string());
    name.push_str(".manifest.json");
    journal.with_file_name(name)
}

/// Atomically replaces the journal's manifest: write to a tmp file in the
/// same directory, `fdatasync`, `rename(2)` over the final path, then
/// fsync the directory so the rename itself is durable. Every step's
/// failure — including the directory sync — is a typed error: a manifest
/// whose rename never reached stable storage is not durable, and
/// pretending otherwise is how "recovered" campaigns lose their tail.
pub fn write_manifest(journal: &Path, manifest: &Manifest) -> Result<(), JournalError> {
    write_manifest_in(&RealIo, journal, manifest)
}

/// [`write_manifest`] against an explicit I/O environment.
pub fn write_manifest_in(
    env: &dyn IoEnv,
    journal: &Path,
    manifest: &Manifest,
) -> Result<(), JournalError> {
    let final_path = manifest_path(journal);
    let tmp_path = final_path.with_file_name(format!(
        "{}.tmp",
        final_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "manifest".to_string())
    ));
    let json = serde_json::to_string_pretty(manifest).map_err(|e| JournalError::Serde {
        what: "manifest",
        err: e.to_string(),
    })?;
    {
        let mut tmp = env
            .create(&tmp_path)
            .map_err(|e| JournalError::io("create", &tmp_path, e))?;
        tmp.write_all(json.as_bytes())
            .map_err(|e| JournalError::io("write", &tmp_path, e))?;
        tmp.write_all(b"\n")
            .map_err(|e| JournalError::io("write", &tmp_path, e))?;
        tmp.sync_data()
            .map_err(|e| JournalError::io("sync", &tmp_path, e))?;
    }
    env.rename(&tmp_path, &final_path)
        .map_err(|e| JournalError::io("rename", &final_path, e))?;
    if let Some(parent) = final_path.parent() {
        env.sync_dir(parent)
            .map_err(|e| JournalError::io("sync-dir", parent, e))?;
    }
    Ok(())
}

/// Reads the journal's manifest; `Ok(None)` when no manifest exists yet.
pub fn read_manifest(journal: &Path) -> Result<Option<Manifest>, JournalError> {
    read_manifest_in(&RealIo, journal)
}

/// [`read_manifest`] against an explicit I/O environment.
pub fn read_manifest_in(env: &dyn IoEnv, journal: &Path) -> Result<Option<Manifest>, JournalError> {
    let path = manifest_path(journal);
    let bytes = match env.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::io("read", &path, e)),
    };
    let text = std::str::from_utf8(&bytes).map_err(|e| JournalError::Serde {
        what: "manifest",
        err: format!("not UTF-8: {e}"),
    })?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| JournalError::Serde {
            what: "manifest",
            err: e.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::FORMAT_V1;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mps-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("j.jl")
    }

    fn header() -> JournalHeader {
        JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: "test".to_string(),
            seed: 1,
            repeats: 1,
            cells_expected: 3,
            config_digest: "d".to_string(),
            isolation: String::new(),
            request: String::new(),
        }
    }

    #[test]
    fn create_append_recover_round_trip() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record("a", r#"{"v":1}"#).unwrap();
        w.append_record("b", r#"{"v":2.5}"#).unwrap();
        w.sync().unwrap();
        assert_eq!(w.records(), 2);
        drop(w);

        let rec = recover(&path).unwrap();
        assert_eq!(rec.header, Some(header()));
        assert_eq!(
            rec.records,
            vec![
                ("a".to_string(), r#"{"v":1}"#.to_string()),
                ("b".to_string(), r#"{"v":2.5}"#.to_string()),
            ]
        );
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(rec.dropped_reason, None);
        assert_eq!(rec.intact_bytes, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = tmp("noclobber");
        let w = JournalWriter::create(&path, &header()).unwrap();
        drop(w);
        assert!(matches!(
            JournalWriter::create(&path, &header()),
            Err(JournalError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn resume_truncates_the_torn_tail_and_appends_cleanly() {
        let path = tmp("resume");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append_record("a", r#"{"v":1}"#).unwrap();
        drop(w);
        let intact = std::fs::read(&path).unwrap();

        // Simulate a torn write: half of a record, no newline.
        let mut torn = intact.clone();
        torn.extend_from_slice(b"{\"sum\":\"00ab");
        std::fs::write(&path, &torn).unwrap();

        let (rec, mut w) = open_resume(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.dropped_bytes, 12);
        assert!(rec.dropped_reason.is_some());
        // The tail is gone from disk.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        // Appending continues on a clean boundary.
        w.append_record("b", r#"{"v":2}"#).unwrap();
        drop(w);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.dropped_bytes, 0);
    }

    #[test]
    fn torn_header_recovers_as_empty() {
        let path = tmp("tornheader");
        std::fs::write(&path, b"{\"sum\":\"0123").unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.header, None);
        assert_eq!(rec.intact_bytes, 0);
        assert_eq!(rec.dropped_bytes, 12);
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = tmp("foreign");
        // A valid *line* but not a header record.
        let line = crate::format::encode_line("not-a-header", "{}").unwrap();
        std::fs::write(&path, format!("{line}\n")).unwrap();
        assert!(matches!(
            recover(&path),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
        // The file is untouched.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{line}\n"));
    }

    #[test]
    fn manifest_write_is_atomic_and_readable() {
        let path = tmp("manifest");
        let _w = JournalWriter::create(&path, &header()).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), None);
        let m = Manifest {
            format: MANIFEST_FORMAT_V1.to_string(),
            campaign: "test".to_string(),
            records: 2,
            expected: 3,
            status: "interrupted".to_string(),
            quarantined: 0,
        };
        write_manifest(&path, &m).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), Some(m.clone()));
        // Replacement leaves no tmp file behind.
        let m2 = Manifest {
            records: 3,
            status: "complete".to_string(),
            ..m
        };
        write_manifest(&path, &m2).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), Some(m2.clone()));
        assert!(m2.is_complete());
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
    }

    /// S1 regression: a failing directory sync after the manifest rename
    /// must surface as a typed error, not be discarded.
    #[test]
    fn failing_dir_sync_is_a_typed_error() {
        struct NoDirSync;
        impl IoEnv for NoDirSync {
            fn create(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
                RealIo.create(path)
            }
            fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn IoFile>> {
                RealIo.open_write(path)
            }
            fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
                RealIo.read(path)
            }
            fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
                RealIo.rename(from, to)
            }
            fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
                Err(std::io::Error::other("dir sync refused"))
            }
        }
        let path = tmp("dirsync");
        let m = Manifest {
            format: MANIFEST_FORMAT_V1.to_string(),
            campaign: "test".to_string(),
            records: 1,
            expected: 1,
            status: "complete".to_string(),
            quarantined: 0,
        };
        let err = write_manifest_in(&NoDirSync, &path, &m).unwrap_err();
        assert!(
            matches!(&err, JournalError::Io { op: "sync-dir", .. }),
            "got {err:?}"
        );
        // The rename itself landed: the manifest is readable afterwards —
        // the error tells the caller durability was NOT confirmed.
        assert_eq!(read_manifest(&path).unwrap(), Some(m));
    }
}
