//! Write-ahead log for catalog mutations.
//!
//! Every [`crate::Database::append_rows`] batch on a durable catalog is
//! appended (and optionally fsynced) here *before* the new table version
//! is published in memory — an acknowledged append is on disk even if
//! the process dies the next instant. Drops are logged the same way
//! (registrations checkpoint directly instead — their contents can be
//! arbitrarily large), so manifest + WAL tail together reproduce the
//! exact crash-time catalog.
//!
//! Records are checksummed section frames ([`super::format`]). Replay
//! semantics:
//!
//! * a **torn tail** (the file ends mid-record, or the *last* record's
//!   checksum fails) is a normal crash artifact — the torn bytes were
//!   never acknowledged and are dropped (and truncated away on open);
//! * a bad record **followed by more valid data** cannot be a torn tail
//!   and is reported as [`crate::DbError::Corrupt`] — acknowledged data
//!   after it would otherwise be silently lost;
//! * every record carries the catalog version it published; records at
//!   or below the manifest's catalog version are already covered by the
//!   manifest (a crash between manifest publish and WAL truncation) and
//!   are skipped idempotently.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::DbResult;
use crate::schema::{ColumnDef, Role, Schema, Semantic};
use crate::value::Value;

use super::format::{
    corrupt, frame_section, io_err, le_bytes_at, read_section, sync_dir, Dec, Enc, Section,
};

/// One logged catalog mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `append_rows(table, rows)` published `version`.
    Append {
        /// Catalog version the append published.
        version: u64,
        /// Target table.
        table: String,
        /// The appended rows.
        rows: Vec<Vec<Value>>,
    },
    /// `drop_table(table)` published `version`.
    Drop {
        /// Catalog version the drop published.
        version: u64,
        /// Dropped table name.
        table: String,
    },
}

impl WalRecord {
    /// The catalog version this record published.
    pub fn version(&self) -> u64 {
        match self {
            WalRecord::Append { version, .. } | WalRecord::Drop { version, .. } => *version,
        }
    }

    /// Encode to a record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Append {
                version,
                table,
                rows,
            } => WalRecord::encode_append(*version, table, rows),
            WalRecord::Drop { version, table } => {
                let mut e = Enc::new();
                e.u8(2);
                e.u64(*version);
                e.str(table);
                e.into_bytes()
            }
        }
    }

    /// Encode an `Append` record payload from *borrowed* rows —
    /// byte-identical to `WalRecord::Append { .. }.encode()`. The hot
    /// ingest path logs every durable batch, and this lets it do so
    /// without deep-cloning the batch just to own the rows.
    pub fn encode_append(version: u64, table: &str, rows: &[Vec<Value>]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(0);
        e.u64(version);
        e.str(table);
        encode_rows(&mut e, rows);
        e.into_bytes()
    }

    fn decode(payload: &[u8], what: &str) -> DbResult<WalRecord> {
        let mut d = Dec::new(payload, what);
        let rows_dec = |d: &mut Dec| -> DbResult<Vec<Vec<Value>>> {
            let n = d.count(1)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let m = d.count(1)?;
                let mut row = Vec::with_capacity(m);
                for _ in 0..m {
                    row.push(d.value()?);
                }
                rows.push(row);
            }
            Ok(rows)
        };
        let rec = match d.u8()? {
            0 => {
                let version = d.u64()?;
                let table = d.str()?;
                let rows = rows_dec(&mut d)?;
                WalRecord::Append {
                    version,
                    table,
                    rows,
                }
            }
            2 => WalRecord::Drop {
                version: d.u64()?,
                table: d.str()?,
            },
            t => return Err(corrupt(format!("{what}: bad WAL record tag {t}"))),
        };
        if !d.is_done() {
            return Err(corrupt(format!("{what}: trailing bytes in WAL record")));
        }
        Ok(rec)
    }
}

/// Encode a row batch (count, then per-row length-prefixed values).
fn encode_rows(e: &mut Enc, rows: &[Vec<Value>]) {
    e.u64(rows.len() as u64);
    for row in rows {
        e.u64(row.len() as u64);
        for v in row {
            e.value(v);
        }
    }
}

/// Encode one schema column definition.
pub(super) fn encode_column_def(e: &mut Enc, c: &ColumnDef) {
    e.str(&c.name);
    e.dtype(c.dtype);
    e.u8(match c.role {
        Role::Dimension => 0,
        Role::Measure => 1,
        Role::Ignore => 2,
    });
    e.u8(match c.semantic {
        Semantic::None => 0,
        Semantic::Geography => 1,
        Semantic::Temporal => 2,
        Semantic::Ordinal => 3,
    });
}

/// Decode one schema column definition.
pub(super) fn decode_column_def(d: &mut Dec) -> DbResult<ColumnDef> {
    let name = d.str()?;
    let dtype = d.dtype()?;
    let role = match d.u8()? {
        0 => Role::Dimension,
        1 => Role::Measure,
        2 => Role::Ignore,
        t => return Err(corrupt(format!("bad role tag {t}"))),
    };
    let semantic = match d.u8()? {
        0 => Semantic::None,
        1 => Semantic::Geography,
        2 => Semantic::Temporal,
        3 => Semantic::Ordinal,
        t => return Err(corrupt(format!("bad semantic tag {t}"))),
    };
    Ok(ColumnDef {
        name,
        dtype,
        role,
        semantic,
    })
}

/// Decode a schema column list into a validated [`Schema`].
pub(super) fn schema_from_defs(defs: Vec<ColumnDef>) -> DbResult<Schema> {
    Schema::new(defs).map_err(|e| corrupt(format!("stored schema invalid: {e}")))
}

/// The open write-ahead log of a durable database directory.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Store incarnation this log belongs to (must match the
    /// manifest's `wal_epoch` to be replayed — see [`replay`]).
    epoch: u64,
    /// Length of the framed header section (fixed per epoch).
    header_bytes: u64,
    /// Valid bytes currently in the log (header included).
    bytes: u64,
    /// Records currently in the log.
    records: u64,
    /// Set when a failed append left bytes past `bytes` that could not
    /// be truncated away: the tail is torn and appending after it would
    /// misalign the frame chain, so further appends are refused until a
    /// reset/truncate recreates the file.
    broken: Option<String>,
}

/// Magic bytes opening the WAL header section.
const HEADER_MAGIC: &[u8; 8] = b"SDBWAL1\0";

/// The framed header section a (re)initialized WAL file starts with.
fn header_frame(epoch: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(HEADER_MAGIC);
    e.u64(epoch);
    frame_section(&e.into_bytes())
}

impl Wal {
    /// File name inside the database directory.
    pub const FILE_NAME: &'static str = "wal.log";

    /// Reset the WAL at `path` to an empty log of the given epoch:
    /// truncate and write a fresh header. Used when a published
    /// manifest has made any previous contents redundant (checkpoint)
    /// or stale (a re-save stamped a new epoch).
    pub fn reset(path: &Path, epoch: u64) -> DbResult<Wal> {
        let header = header_frame(epoch);
        {
            let mut f = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
            f.write_all(&header).map_err(|e| io_err(path, e))?;
            f.sync_all().map_err(|e| io_err(path, e))?;
        }
        // Make the file's directory entry durable too: losing it to a
        // power loss would make every fsynced append vanish with it
        // (a missing log replays as "stale" — silently empty).
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            epoch,
            header_bytes: header.len() as u64,
            bytes: header.len() as u64,
            records: 0,
            broken: None,
        })
    }

    /// Resume appending to an existing WAL whose header matched
    /// `epoch`, positioned at `valid_bytes` — replay determines that
    /// offset and any torn tail beyond it is truncated away here.
    pub fn resume(path: &Path, epoch: u64, valid_bytes: u64, records: u64) -> DbResult<Wal> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        let actual = file.metadata().map_err(|e| io_err(path, e))?.len();
        if actual > valid_bytes {
            // Drop the torn tail so future appends start on a record
            // boundary.
            truncate_file(path, valid_bytes)?;
        }
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            epoch,
            header_bytes: header_frame(epoch).len() as u64,
            bytes: valid_bytes,
            records,
            broken: None,
        })
    }

    /// Append one record, optionally fsyncing before returning — the
    /// durability point of an acknowledged mutation.
    ///
    /// A failed write (short `write_all` on a full disk) can leave a
    /// torn partial frame in the file, and a failed fsync can leave a
    /// fully-written record that was never acknowledged; both would
    /// poison replay — appends after a partial frame misalign the frame
    /// chain (acknowledged records behind it read as a torn tail and
    /// are silently dropped), and an unacknowledged record must not
    /// reappear on recovery. So on any error the tail is truncated back
    /// to the last acknowledged byte before returning; if even that
    /// fails the log refuses further appends (retrying the repair on
    /// each attempt) until it succeeds or a checkpoint/re-save
    /// recreates the file. The one residual window: if both the append
    /// and every repair fail — a disk erroring on fsync *and* on
    /// truncate — and the process then crashes, a fully-written
    /// unacknowledged record can survive to replay; no WAL can mark a
    /// tail invalid on a disk it cannot write to.
    pub fn append(&mut self, record: &WalRecord, sync: bool) -> DbResult<()> {
        self.append_payload(&record.encode(), sync)
    }

    /// [`Wal::append`] of an already-encoded record payload (see
    /// [`WalRecord::encode_append`]).
    pub fn append_payload(&mut self, payload: &[u8], sync: bool) -> DbResult<()> {
        if let Some(b) = &self.broken {
            // Retry the repair: a transient failure (say, a full disk
            // that has since gained space) heals here instead of
            // wedging the store until the next checkpoint.
            if self.truncate_to_valid().is_err() {
                return Err(crate::error::DbError::Io(format!(
                    "WAL {} has an unrepaired torn tail ({b}); checkpoint or re-save to recover",
                    self.path.display()
                )));
            }
            self.broken = None;
        }
        let framed = frame_section(payload);
        let written = (|| {
            self.file.write_all(&framed)?;
            if sync {
                self.file.sync_all()?;
            }
            Ok(())
        })();
        if let Err(e) = written {
            let err = io_err(&self.path, e);
            if let Err(repair) = self.truncate_to_valid() {
                self.broken = Some(repair.to_string());
            }
            return Err(err);
        }
        self.bytes += framed.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Cut the file back to the valid prefix (`self.bytes`), discarding
    /// whatever a failed append left behind, and sync the truncation.
    fn truncate_to_valid(&self) -> DbResult<()> {
        truncate_file(&self.path, self.bytes)
    }

    /// Why this log is refusing appends, if a failed append could not
    /// be repaired (see [`Wal::append`]).
    pub fn broken_reason(&self) -> Option<&str> {
        self.broken.as_deref()
    }

    /// Bytes of pending records currently in the log (excluding the
    /// fixed header — 0 means "nothing to checkpoint").
    pub fn bytes(&self) -> u64 {
        self.bytes - self.header_bytes
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Reset the log to empty (after a checkpoint made its contents
    /// redundant), keeping the epoch.
    pub fn truncate(&mut self) -> DbResult<()> {
        *self = Wal::reset(&self.path, self.epoch)?;
        Ok(())
    }
}

/// Truncate the file at `path` to `len` bytes and sync the truncation
/// (crash-repair primitive: drops a torn tail so the file ends on a
/// record boundary). `set_len` needs a write handle, not append-mode.
fn truncate_file(path: &Path, len: u64) -> DbResult<()> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    f.set_len(len).map_err(|e| io_err(path, e))?;
    f.sync_all().map_err(|e| io_err(path, e))
}

/// Crash-injection test hook (used by the soak harness's crash/restart
/// injector and the crash tests): append a *torn* frame — a length
/// header promising more bytes than actually follow — to the WAL in
/// `dir`, simulating a process that died midway through writing an
/// unacknowledged record. Replay treats it exactly like any torn tail:
/// the torn bytes are dropped and truncated away on the next open, and
/// every acknowledged record survives. Returns the torn bytes appended.
///
/// Only inject when no live [`Wal`] handle will append afterwards: a
/// real record written *behind* the junk would make the junk read as
/// mid-log corruption (a bad record followed by valid data), which
/// recovery refuses to drop silently.
///
/// # Errors
/// `Io` when `dir` holds no WAL file or the append fails.
pub fn inject_torn_tail(dir: &Path) -> DbResult<u64> {
    let path = dir.join(Wal::FILE_NAME);
    let mut file = OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| io_err(&path, e))?;
    let mut torn = Vec::with_capacity(38);
    torn.extend_from_slice(&1_000u64.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 30]);
    file.write_all(&torn).map_err(|e| io_err(&path, e))?;
    file.sync_all().map_err(|e| io_err(&path, e))?;
    Ok(torn.len() as u64)
}

/// Result of replaying a WAL file.
#[derive(Debug)]
pub struct Replay {
    /// The decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes covered by the header plus those records (the valid
    /// prefix — what [`Wal::resume`] positions at).
    pub valid_bytes: u64,
    /// Bytes of torn tail dropped (0 for a clean log).
    pub torn_bytes: u64,
    /// The log belongs to a different store incarnation (epoch
    /// mismatch), is missing, or was never initialized: it carries no
    /// usable records and the caller should [`Wal::reset`] it. A crash
    /// between a re-save's manifest publish and its WAL reset lands
    /// here — the previous incarnation's records must not replay onto
    /// the newly-saved catalog.
    pub stale: bool,
}

impl Replay {
    fn stale() -> Replay {
        Replay {
            records: Vec::new(),
            valid_bytes: 0,
            torn_bytes: 0,
            stale: true,
        }
    }
}

/// Read and decode the WAL at `path`, accepting only records of the
/// store incarnation `expected_epoch` (the manifest's `wal_epoch`).
///
/// # Errors
/// `Io` on read failures; `Corrupt` when a bad record is followed by
/// further valid data (mid-log corruption, not a torn tail).
pub fn replay(path: &Path, expected_epoch: u64) -> DbResult<Replay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::stale()),
        Err(e) => return Err(io_err(path, e)),
    };
    let what = format!("WAL {}", path.display());

    // Header first: a missing/torn header is a crash during a reset
    // (contents were redundant then) — stale. A corrupted header with
    // valid records after it is indistinguishable from lost
    // acknowledged data — refuse.
    let mut pos = 0usize;
    match read_section(&bytes, pos) {
        Section::Ok(payload, consumed) => {
            let mut d = Dec::new(payload, &what);
            if d.bytes()? != HEADER_MAGIC {
                return Err(corrupt(format!("{what}: bad header magic")));
            }
            let epoch = d.u64()?;
            if epoch != expected_epoch {
                return Ok(Replay::stale());
            }
            pos += consumed;
        }
        Section::End | Section::Torn => return Ok(Replay::stale()),
        Section::BadChecksum => {
            if frame_end(&bytes, 0).is_some_and(|end| valid_section_ahead(&bytes, end)) {
                return Err(corrupt(format!(
                    "{what}: corrupted header with records after it"
                )));
            }
            return Ok(Replay::stale());
        }
    }

    let mut records = Vec::new();
    loop {
        match read_section(&bytes, pos) {
            Section::Ok(payload, consumed) => {
                records.push(WalRecord::decode(payload, &what)?);
                pos += consumed;
            }
            Section::End => {
                return Ok(Replay {
                    records,
                    valid_bytes: pos as u64,
                    torn_bytes: 0,
                    stale: false,
                })
            }
            Section::Torn => {
                return Ok(Replay {
                    records,
                    valid_bytes: pos as u64,
                    torn_bytes: (bytes.len() - pos) as u64,
                    stale: false,
                })
            }
            Section::BadChecksum => {
                // Distinguish a corrupted record from a torn tail: walk
                // the frame chain forward — if any later frame parses
                // as a valid section, data beyond the bad record exists
                // and dropping it would silently lose acknowledged
                // work. (Payload bit rot leaves the length headers
                // intact, so the chain stays aligned; a corrupted
                // *length* field misaligns it, which is inherently
                // ambiguous and reads as a torn tail.)
                if frame_end(&bytes, pos).is_some_and(|end| valid_section_ahead(&bytes, end)) {
                    return Err(corrupt(format!(
                        "{what}: checksum mismatch at offset {pos} with valid records after it"
                    )));
                }
                return Ok(Replay {
                    records,
                    valid_bytes: pos as u64,
                    torn_bytes: (bytes.len() - pos) as u64,
                    stale: false,
                });
            }
        }
    }
}

/// Best-effort read of the epoch in the WAL header at `path` (used by
/// a re-save to pick a strictly newer epoch even when the manifest is
/// unreadable). `None` when missing/unreadable/torn.
pub fn peek_epoch(path: &Path) -> Option<u64> {
    let bytes = std::fs::read(path).ok()?;
    let Section::Ok(payload, _) = read_section(&bytes, 0) else {
        return None;
    };
    let mut d = Dec::new(payload, "wal header");
    if d.bytes().ok()? != HEADER_MAGIC {
        return None;
    }
    d.u64().ok()
}

/// End offset of the (complete, already length-validated) frame
/// starting at `pos`; `None` when no complete header is there after
/// all (the caller then treats the tail as torn).
fn frame_end(bytes: &[u8], pos: usize) -> Option<usize> {
    let len = le_bytes_at::<8>(bytes, pos).map(u64::from_le_bytes)?;
    pos.checked_add(12)?.checked_add(len as usize)
}

/// Does any complete, checksum-valid section start on the frame chain
/// at or after `pos`? Walks successive frames across any number of
/// corrupted-payload records.
fn valid_section_ahead(bytes: &[u8], mut pos: usize) -> bool {
    while pos < bytes.len() {
        match read_section(bytes, pos) {
            Section::Ok(..) => return true,
            // Complete frame, bad payload: its length header is intact
            // (read_section validated it), keep walking.
            Section::BadChecksum => match frame_end(bytes, pos) {
                Some(end) => pos = end,
                None => return false,
            },
            Section::End | Section::Torn => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memdb-wal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(Wal::FILE_NAME)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Append {
                version: 1,
                table: "t".into(),
                rows: vec![vec!["a".into(), 1.5.into()]],
            },
            WalRecord::Append {
                version: 2,
                table: "t".into(),
                rows: vec![vec!["b".into(), Value::Null], vec!["c".into(), 2.0.into()]],
            },
            WalRecord::Drop {
                version: 3,
                table: "t".into(),
            },
        ]
    }

    /// Byte offset where record `i` (0-based) starts, given the fixed
    /// header frame.
    fn record_offset(records: &[WalRecord], i: usize) -> usize {
        header_frame(0).len()
            + records[..i]
                .iter()
                .map(|r| frame_section(&r.encode()).len())
                .sum::<usize>()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::reset(&path, 7).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        assert_eq!(wal.records(), 3);
        let replayed = replay(&path, 7).unwrap();
        assert!(!replayed.stale);
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.torn_bytes, 0);
        assert_eq!(
            replayed.valid_bytes,
            wal.bytes() + header_frame(7).len() as u64
        );
        assert_eq!(peek_epoch(&path), Some(7));

        // A different incarnation's manifest ignores this log entirely.
        let other = replay(&path, 8).unwrap();
        assert!(other.stale);
        assert!(other.records.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        let mut wal = Wal::reset(&path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        drop(wal);
        // Simulate a crash mid-write: cut the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let replayed = replay(&path, 1).unwrap();
        assert_eq!(replayed.records.len(), 2, "only the torn record is lost");
        assert_eq!(replayed.records, sample_records()[..2]);
        assert!(replayed.torn_bytes > 0);
        assert!(replayed.valid_bytes < full);

        // Resuming truncates the torn tail and appends cleanly after.
        let mut wal = Wal::resume(&path, 1, replayed.valid_bytes, 2).unwrap();
        wal.append(&sample_records()[2], true).unwrap();
        let replayed = replay(&path, 1).unwrap();
        assert_eq!(replayed.records.len(), 3);
        assert_eq!(replayed.records[2], sample_records()[2]);
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = tmp("midlog");
        let mut wal = Wal::reset(&path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        drop(wal);
        // Flip a byte inside the FIRST record's payload: records after
        // it are still valid, so this is corruption, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = record_offset(&sample_records(), 0) + 20;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path, 1), Err(DbError::Corrupt(_))));
    }

    /// Two *adjacent* corrupted records followed by a valid one must
    /// still read as corruption — the frame-chain scan walks past any
    /// number of bad-payload records before deciding "torn tail".
    #[test]
    fn adjacent_corrupted_records_before_valid_data_are_corrupt() {
        let path = tmp("midlog2");
        let mut wal = Wal::reset(&path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let records = sample_records();
        for i in 0..2 {
            let off = record_offset(&records, i) + 20;
            bytes[off] ^= 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path, 1), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn corrupted_header_with_records_after_is_corrupt() {
        let path = tmp("headerflip");
        let mut wal = Wal::reset(&path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0xFF; // inside the header payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path, 1), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn corrupted_final_record_counts_as_torn() {
        let path = tmp("tailflip");
        let mut wal = Wal::reset(&path, 1).unwrap();
        for r in sample_records() {
            wal.append(&r, true).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path, 1).unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert!(replayed.torn_bytes > 0);
    }

    /// The file states a failed append can leave behind — a torn
    /// partial frame (short write) or a complete but unacknowledged
    /// record (failed fsync) — are truncated away by the repair the
    /// error path runs, so later acknowledged appends stay on the
    /// frame chain and replay never drops or resurrects anything.
    #[test]
    fn failed_append_leftovers_are_truncated_before_further_appends() {
        use std::io::Write as _;
        let records = sample_records();
        let unacked = frame_section(&records[1].encode());
        for (name, leftover) in [
            ("repair-torn", &unacked[..7]),
            ("repair-full", &unacked[..]),
        ] {
            let path = tmp(name);
            let mut wal = Wal::reset(&path, 1).unwrap();
            wal.append(&records[0], true).unwrap();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(leftover).unwrap();
            drop(f);

            wal.truncate_to_valid().unwrap();
            wal.append(&records[2], true).unwrap();
            let replayed = replay(&path, 1).unwrap();
            assert!(!replayed.stale);
            assert_eq!(
                replayed.records,
                vec![records[0].clone(), records[2].clone()],
                "{name}: acknowledged records only, chain aligned"
            );
            assert_eq!(replayed.torn_bytes, 0, "{name}");
        }
    }

    /// A broken log retries its tail repair on the next append: once
    /// the repair can succeed, the torn bytes are discarded and the
    /// append lands cleanly.
    #[test]
    fn broken_wal_retries_repair_and_heals_on_next_append() {
        use std::io::Write as _;
        let path = tmp("broken-heal");
        let mut wal = Wal::reset(&path, 1).unwrap();
        wal.append(&sample_records()[0], true).unwrap();
        // Simulate a failed append whose repair also failed: torn
        // bytes past the valid prefix plus the in-memory refusal flag.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 9]).unwrap();
        drop(f);
        wal.broken = Some("simulated unrepaired tail".into());

        wal.append(&sample_records()[2], true).unwrap();
        assert!(wal.broken_reason().is_none(), "repair retried and healed");
        let replayed = replay(&path, 1).unwrap();
        assert_eq!(
            replayed.records,
            vec![sample_records()[0].clone(), sample_records()[2].clone()]
        );
        assert_eq!(replayed.torn_bytes, 0);
    }

    /// While the repair keeps failing, appends are refused loudly; a
    /// truncate (what a checkpoint runs) recreates the file and lifts
    /// the refusal.
    #[test]
    fn unrepairable_wal_refuses_appends_until_recreated() {
        let path = tmp("broken-stuck");
        let mut wal = Wal::reset(&path, 1).unwrap();
        wal.broken = Some("simulated unrepaired tail".into());
        // Make the repair impossible: the path cannot be opened for
        // writing at all.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(matches!(
            wal.append(&sample_records()[0], true),
            Err(DbError::Io(_))
        ));
        assert!(wal.broken_reason().is_some());

        std::fs::remove_dir(&path).unwrap();
        wal.truncate().unwrap();
        assert!(wal.broken_reason().is_none());
        wal.append(&sample_records()[0], true).unwrap();
        assert_eq!(replay(&path, 1).unwrap().records.len(), 1);
    }

    #[test]
    fn missing_or_uninitialized_logs_are_stale() {
        let path = tmp("missing").with_file_name("nonexistent.log");
        let replayed = replay(&path, 1).unwrap();
        assert!(replayed.stale);
        assert!(replayed.records.is_empty());
        assert_eq!(peek_epoch(&path), None);

        // Empty file (crash during a reset): stale, not an error.
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        assert!(replay(&path, 1).unwrap().stale);
        // Torn header likewise.
        std::fs::write(&path, &header_frame(1)[..5]).unwrap();
        assert!(replay(&path, 1).unwrap().stale);
    }

    /// Tag 1 was reserved for a whole-table registration record that
    /// nothing ever wrote (registrations checkpoint directly); a log
    /// holding one is corrupt, not replayable and never a panic.
    #[test]
    fn unassigned_record_tag_is_typed_corrupt() {
        let mut payload = sample_records()[0].encode();
        assert_eq!(payload[0], 0, "append records carry tag 0");
        payload[0] = 1;
        match WalRecord::decode(&payload, "test") {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("bad WAL record tag 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncate_keeps_the_epoch_and_empties_the_log() {
        let path = tmp("truncate");
        let mut wal = Wal::reset(&path, 9).unwrap();
        wal.append(&sample_records()[0], true).unwrap();
        assert!(wal.bytes() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.bytes(), 0);
        assert_eq!(wal.records(), 0);
        assert_eq!(peek_epoch(&path), Some(9));
        wal.append(&sample_records()[1], true).unwrap();
        let replayed = replay(&path, 9).unwrap();
        assert_eq!(replayed.records, vec![sample_records()[1].clone()]);
    }
}
