//! Write-ahead log.
//!
//! "Writing the WAL is the crucial stage in transaction commit, it
//! consists of a single I/O" (§3.2): a transaction's entire redo
//! content — its logical operations — travels in **one** commit record.
//! A record either lands completely or not at all; recovery treats a
//! torn trailing record as absent, which yields exactly the
//! committed-prefix semantics the paper's durability argument needs.
//!
//! Two backends: an in-memory buffer (tests, benchmarks) and a file
//! (durability across process restarts). Both support **crash
//! injection** — failing the append after a configured number of bytes —
//! so the recovery tests can cut the log at every possible point.

use crate::op::Op;
use crate::TxnId;
use std::borrow::Cow;
use std::io::Write as _;
use std::path::Path;

/// WAL failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An injected crash (or real I/O failure) interrupted an append.
    Crashed {
        /// Bytes that made it out before the crash.
        bytes_written: usize,
    },
    /// Real I/O failure.
    Io {
        /// The OS error text.
        message: String,
    },
    /// The log contains an undecodable (non-trailing) record.
    Corrupt {
        /// Description.
        message: String,
    },
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Crashed { bytes_written } => {
                write!(f, "crash injected after {bytes_written} bytes")
            }
            WalError::Io { message } => write!(f, "WAL I/O: {message}"),
            WalError::Corrupt { message } => write!(f, "WAL corrupt: {message}"),
        }
    }
}

impl std::error::Error for WalError {}

/// One WAL record. The paper's commit writes ancestor sizes, pageOffset
/// shifts and differential lists; our logical-redo equivalent carries
/// the operation list — replaying it regenerates all three.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed transaction with its redo operations.
    Commit {
        /// Transaction id.
        txn: TxnId,
        /// Redo operations in execution order.
        ops: Vec<Op>,
    },
    /// A checkpoint: the full committed document state at the moment the
    /// log was truncated. Recovery resumes from the *last* complete
    /// checkpoint instead of replaying history from genesis.
    Checkpoint {
        /// One past the highest node id allocated so far — replayed
        /// inserts must not re-issue ids of deleted nodes.
        alloc_end: u64,
        /// Used-tuple count (integrity check for the dump).
        tuples: u64,
        /// The structure-preserving tuple dump
        /// ([`mbxq_storage::PagedDoc::checkpoint_dump`] format — not XML
        /// text, which would coalesce adjacent text tuples on reparse
        /// and desynchronize node ids).
        dump: String,
    },
}

enum Backend {
    Memory(Vec<u8>),
    File(std::fs::File, std::path::PathBuf),
}

/// The write-ahead log.
pub struct Wal {
    backend: Backend,
    /// If set, log I/O fails once the *cumulative* byte count would
    /// exceed this limit — the crash-injection hook.
    crash_after_bytes: Option<usize>,
    /// Current log length.
    bytes_written: usize,
    /// Cumulative bytes of log I/O ever attempted (survives truncation,
    /// so an armed crash budget keeps counting across a checkpoint).
    io_total: usize,
    /// Set after a *real* I/O failure mid-append: some unknown prefix of
    /// the failed write may have reached the log, so any further append
    /// could land after undecodable garbage — recovery would then stop
    /// at the garbage and silently drop the later, success-reported
    /// records. A poisoned log refuses all further writes.
    poisoned: bool,
}

impl Wal {
    /// An in-memory log (tests/benchmarks).
    pub fn in_memory() -> Wal {
        Wal {
            backend: Backend::Memory(Vec::new()),
            crash_after_bytes: None,
            bytes_written: 0,
            io_total: 0,
            poisoned: false,
        }
    }

    /// A file-backed log (appends + flush per record).
    pub fn file(path: &Path) -> Result<Wal, WalError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)
            .map_err(|e| WalError::Io {
                message: e.to_string(),
            })?;
        let bytes_written = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
        Ok(Wal {
            backend: Backend::File(file, path.to_path_buf()),
            crash_after_bytes: None,
            bytes_written,
            io_total: bytes_written,
            poisoned: false,
        })
    }

    /// Arms crash injection: the log I/O that would push the cumulative
    /// total past `limit` bytes fails — an append writes only the prefix
    /// up to the limit (a torn record at an arbitrary byte position); a
    /// checkpoint rewrite fails atomically, leaving the old log intact.
    pub fn crash_after_bytes(&mut self, limit: usize) {
        self.crash_after_bytes = Some(limit);
    }

    /// Current log length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes_written
    }

    /// Appends one record (the single commit I/O) — a one-record
    /// [`Wal::append_batch`], so both paths share the same crash
    /// accounting.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        self.append_batch(std::slice::from_ref(record))
            .pop()
            .expect("one record in, one result out")
    }

    /// Appends a whole group-commit batch in **one** log I/O.
    ///
    /// All records are encoded into a single buffer and written (and
    /// flushed, on the file backend) together — this is the group-commit
    /// payoff: N committers share one I/O instead of queueing for N.
    /// Returns one result per record. Crash injection cuts the buffer at
    /// the armed byte offset, exactly as it would a sequence of single
    /// appends: records that land entirely before the cut succeed, the
    /// record straddling the cut is torn (recovery drops it), and
    /// everything after fails without touching the log — so a crashed
    /// batch is never "all or nothing" at batch granularity, but always
    /// all-or-nothing **per commit record**, which is the prefix
    /// semantics recovery needs.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> Vec<Result<(), WalError>> {
        if self.poisoned {
            return records
                .iter()
                .map(|_| {
                    Err(WalError::Io {
                        message: "WAL poisoned by an earlier I/O failure; the log tail is \
                                  unknown and further appends would be unrecoverable"
                            .to_string(),
                    })
                })
                .collect();
        }
        // Encode each record separately so per-record boundaries are
        // known, then write the concatenation in one I/O. Work in raw
        // bytes throughout: a crash budget cuts at an arbitrary *byte*
        // offset, which may fall inside a multi-byte character of an
        // op's payload (slicing a `str` there would panic instead of
        // simulating the torn write).
        let encoded: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
        let total: usize = encoded.iter().map(Vec::len).sum();
        let allowed = match self.crash_after_bytes {
            Some(limit) => limit.saturating_sub(self.io_total).min(total),
            None => total,
        };
        let mut buf = Vec::with_capacity(allowed);
        let mut results = Vec::with_capacity(records.len());
        let mut offset = 0usize;
        for enc in &encoded {
            if offset + enc.len() <= allowed {
                buf.extend_from_slice(enc);
                results.push(Ok(()));
            } else {
                // Torn (partially within the budget) or entirely past
                // it: write whatever prefix survives, fail the record.
                let prefix = allowed.saturating_sub(offset);
                buf.extend_from_slice(&enc[..prefix]);
                results.push(Err(WalError::Crashed {
                    bytes_written: prefix,
                }));
            }
            offset += enc.len();
        }
        debug_assert_eq!(buf.len(), allowed);
        if let Err(io) = self.write_raw(&buf) {
            // A real I/O failure fails every record in the batch — none
            // of them is known durable — and poisons the log: an unknown
            // prefix of `buf` may have landed, so appending anything
            // after it could bury later (durable, success-reported)
            // records behind undecodable bytes at recovery time.
            self.poisoned = true;
            return records.iter().map(|_| Err(io.clone())).collect();
        }
        self.bytes_written += allowed;
        match self.crash_after_bytes {
            // Crash tripped: pin the cumulative counter at the limit so
            // every later append fails too, mirroring `append`.
            Some(limit) if allowed < total => self.io_total = limit,
            _ => self.io_total += total,
        }
        results
    }

    /// Atomically replaces the whole log with `record` — the checkpoint
    /// truncation. Either the new log (just the checkpoint record) or
    /// the old log survives; a crash mid-rewrite never leaves a
    /// truncated log, mirroring the write-temp-then-rename protocol the
    /// file backend actually uses.
    pub fn reset_with(&mut self, record: &WalRecord) -> Result<(), WalError> {
        // Header, payload and terminator go to the backend one after
        // the other: a checkpoint's dump is not copied into a record
        // buffer first.
        let (header, payload) = record_parts(record);
        let parts = [header.as_bytes(), payload.as_bytes(), b"\n"];
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if let Some(limit) = self.crash_after_bytes {
            if self.io_total + len > limit {
                // The crash hit while writing the checkpoint's temp
                // file; the live log is untouched.
                self.io_total = limit;
                return Err(WalError::Crashed { bytes_written: 0 });
            }
        }
        match &mut self.backend {
            Backend::Memory(buf) => {
                buf.clear();
                buf.reserve_exact(len);
                for part in parts {
                    buf.extend_from_slice(part);
                }
            }
            Backend::File(f, path) => {
                let tmp = path.with_extension("wal-tmp");
                let io = |e: std::io::Error| WalError::Io {
                    message: e.to_string(),
                };
                // The temp file's *data* must be on the device before
                // the rename makes it the log: a journaled rename can
                // survive a power cut that the un-synced data blocks do
                // not, which would replace every durable record with an
                // empty/partial checkpoint — the one failure mode a
                // checkpoint must never introduce.
                let mut tmp_file = std::fs::File::create(&tmp).map_err(io)?;
                for part in parts {
                    tmp_file.write_all(part).map_err(io)?;
                }
                tmp_file.sync_all().map_err(io)?;
                drop(tmp_file);
                std::fs::rename(&tmp, &*path).map_err(io)?;
                // Persist the rename itself (the directory entry);
                // best-effort on platforms where directories cannot be
                // opened for sync.
                if let Some(dir) = path.parent() {
                    if let Ok(d) = std::fs::File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
                *f = std::fs::OpenOptions::new()
                    .append(true)
                    .read(true)
                    .open(&*path)
                    .map_err(io)?;
            }
        }
        self.bytes_written = len;
        self.io_total += len;
        // The whole log was atomically replaced by this one record: any
        // garbage a previously failed append may have left is gone, so a
        // poisoned log becomes writable again through exactly this path
        // (Shard::checkpoint is the recovery action for a sick WAL).
        self.poisoned = false;
        Ok(())
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        match &mut self.backend {
            Backend::Memory(buf) => {
                buf.extend_from_slice(bytes);
                Ok(())
            }
            Backend::File(f, _) => f
                .write_all(bytes)
                // A WAL append is only durable once the bytes reach the
                // device: fsync per log I/O. This is exactly the cost
                // group commit amortizes — one sync per *batch*.
                .and_then(|_| f.sync_data())
                .map_err(|e| WalError::Io {
                    message: e.to_string(),
                }),
        }
    }

    /// The raw log contents (what a recovery process would find on disk).
    pub fn raw(&self) -> Result<Vec<u8>, WalError> {
        match &self.backend {
            Backend::Memory(buf) => Ok(buf.clone()),
            Backend::File(_, path) => std::fs::read(path).map_err(|e| WalError::Io {
                message: e.to_string(),
            }),
        }
    }

    /// Decodes all complete records; a torn trailing record is ignored
    /// (it never committed).
    pub fn read_all(&self) -> Result<Vec<WalRecord>, WalError> {
        decode_log(&self.raw()?)
    }
}

/// Record wire format (text; payload lengths are explicit, so payloads
/// may contain anything including newlines):
///
/// ```text
/// W <txn> <op-count> <byte-len-of-payload>\n<payload>\n
/// C <alloc-end> <tuple-count> <byte-len-of-payload>\n<payload>\n
/// ```
///
/// A commit payload is the ops joined by `\x1f`; a checkpoint payload is
/// the tuple dump. The trailing `\n` completes the record; recovery only
/// accepts records whose full payload is present.
fn encode_record(record: &WalRecord) -> Vec<u8> {
    let (header, payload) = record_parts(record);
    let mut out = Vec::with_capacity(header.len() + payload.len() + 1);
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

/// A record's header line (with its `\n`) and its payload; the record's
/// bytes are these two and a closing `\n`. A checkpoint's payload is its
/// dump, borrowed, so the dump is never copied on its way to the log.
fn record_parts(record: &WalRecord) -> (String, Cow<'_, str>) {
    match record {
        WalRecord::Commit { txn, ops } => {
            let mut payload = String::new();
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    payload.push('\u{1f}');
                }
                op.encode(&mut payload);
            }
            let header = format!("W {txn} {} {}\n", ops.len(), payload.len());
            (header, Cow::Owned(payload))
        }
        WalRecord::Checkpoint {
            alloc_end,
            tuples,
            dump,
        } => {
            let header = format!("C {alloc_end} {tuples} {}\n", dump.len());
            (header, Cow::Borrowed(dump))
        }
    }
}

/// Decodes a log buffer into its complete records.
pub fn decode_log(raw: &[u8]) -> Result<Vec<WalRecord>, WalError> {
    let text = String::from_utf8_lossy(raw);
    let mut records = Vec::new();
    let mut rest: &str = &text;
    while !rest.is_empty() {
        let Some(nl) = rest.find('\n') else {
            break; // torn header
        };
        let header = &rest[..nl];
        let body_start = nl + 1;
        let mut it = header.split(' ');
        let (Some(tag @ ("W" | "C")), Some(a), Some(b), Some(len)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            // A torn record at the tail is fine; garbage in the middle is
            // corruption, but we cannot distinguish without consuming —
            // treat undecodable headers as the end of the valid prefix.
            break;
        };
        let (Ok(a), Ok(b), Ok(len)) = (a.parse::<u64>(), b.parse::<usize>(), len.parse::<usize>())
        else {
            break;
        };
        if rest.len() < body_start + len + 1 {
            break; // torn payload — the record never committed
        }
        let payload = &rest[body_start..body_start + len];
        if rest.as_bytes()[body_start + len] != b'\n' {
            break; // missing terminator
        }
        match tag {
            "W" => {
                let (txn, op_count) = (a, b);
                let mut ops = Vec::with_capacity(op_count);
                if !payload.is_empty() {
                    for chunk in payload.split('\u{1f}') {
                        ops.push(Op::decode(chunk).map_err(|e| WalError::Corrupt {
                            message: format!("record of txn {txn}: {e}"),
                        })?);
                    }
                }
                if ops.len() != op_count {
                    return Err(WalError::Corrupt {
                        message: format!(
                            "record of txn {txn} declares {op_count} ops but carries {}",
                            ops.len()
                        ),
                    });
                }
                records.push(WalRecord::Commit { txn, ops });
            }
            "C" => {
                records.push(WalRecord::Checkpoint {
                    alloc_end: a,
                    tuples: b as u64,
                    dump: payload.to_string(),
                });
            }
            _ => unreachable!("tag matched above"),
        }
        rest = &rest[body_start + len + 1..];
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::NodeId;

    fn sample_record(txn: TxnId) -> WalRecord {
        WalRecord::Commit {
            txn,
            ops: vec![
                Op::Delete { node: NodeId(5) },
                Op::UpdateValue {
                    node: NodeId(2),
                    value: "new text".into(),
                },
            ],
        }
    }

    #[test]
    fn append_read_round_trip() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.append(&sample_record(2)).unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], sample_record(1));
        assert_eq!(records[1], sample_record(2));
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        // Write two records, then replay logs cut at every byte: the
        // first record must survive any cut at or past its end; the
        // second must never half-apply.
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        let first_len = wal.len_bytes();
        wal.append(&sample_record(2)).unwrap();
        let raw = wal.raw().unwrap();
        for cut in 0..=raw.len() {
            let records = decode_log(&raw[..cut]).unwrap();
            if cut < first_len {
                assert!(records.is_empty(), "cut={cut}");
            } else if cut < raw.len() {
                assert_eq!(records.len(), 1, "cut={cut}");
            } else {
                assert_eq!(records.len(), 2);
            }
        }
    }

    #[test]
    fn crash_injection_cuts_the_log() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.crash_after_bytes(wal.len_bytes() + 10);
        let err = wal.append(&sample_record(2)).unwrap_err();
        assert!(matches!(err, WalError::Crashed { bytes_written: 10 }));
        // Recovery sees only the first record.
        assert_eq!(wal.read_all().unwrap().len(), 1);
    }

    #[test]
    fn file_backend_persists() {
        let dir = std::env::temp_dir().join(format!("mbxq-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(&sample_record(7)).unwrap();
        }
        let wal = Wal::file(&path).unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records, vec![sample_record(7)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let mut solo = Wal::in_memory();
        solo.append(&sample_record(1)).unwrap();
        solo.append(&sample_record(2)).unwrap();
        solo.append(&sample_record(3)).unwrap();
        let mut batched = Wal::in_memory();
        let results = batched.append_batch(&[sample_record(1), sample_record(2), sample_record(3)]);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(batched.raw().unwrap(), solo.raw().unwrap());
        assert_eq!(batched.len_bytes(), solo.len_bytes());
    }

    #[test]
    fn append_batch_crash_is_all_or_nothing_per_record() {
        // Find the length of one record, then arm the budget so the
        // batch tears inside its second record.
        let mut probe = Wal::in_memory();
        probe.append(&sample_record(1)).unwrap();
        let one = probe.len_bytes();
        let mut wal = Wal::in_memory();
        wal.crash_after_bytes(one + 7);
        let results = wal.append_batch(&[sample_record(1), sample_record(2), sample_record(3)]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(WalError::Crashed { bytes_written: 7 })
        ));
        assert!(matches!(
            results[2],
            Err(WalError::Crashed { bytes_written: 0 })
        ));
        // Recovery: the full first record, the torn second dropped.
        assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);
        // The crash budget stays tripped for later appends, like append.
        assert!(wal.append(&sample_record(4)).is_err());
        assert!(wal.append_batch(&[sample_record(5)])[0].is_err());
    }

    /// Regression: a crash budget may cut *inside a multi-byte UTF-8
    /// character* of a record payload; the torn write must be simulated
    /// byte-exactly, not panic on a `str` char boundary.
    #[test]
    fn crash_cut_inside_a_multibyte_character() {
        let multibyte = WalRecord::Commit {
            txn: 9,
            ops: vec![Op::UpdateValue {
                node: NodeId(1),
                value: "caffè—日本語".into(),
            }],
        };
        let mut probe = Wal::in_memory();
        probe.append(&sample_record(1)).unwrap();
        let first = probe.len_bytes();
        probe.append(&multibyte).unwrap();
        let second = probe.len_bytes() - first;
        // Probe every cut point across the multibyte record, for both
        // the solo-append and the batched path.
        for cut in 0..second {
            let mut wal = Wal::in_memory();
            wal.crash_after_bytes(first + cut);
            wal.append(&sample_record(1)).unwrap();
            assert!(wal.append(&multibyte).is_err(), "cut={cut}");
            assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);

            let mut wal = Wal::in_memory();
            wal.crash_after_bytes(first + cut);
            let results = wal.append_batch(&[sample_record(1), multibyte.clone()]);
            assert!(results[0].is_ok() && results[1].is_err(), "cut={cut}");
            assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);
        }
    }

    fn sample_checkpoint() -> WalRecord {
        WalRecord::Checkpoint {
            alloc_end: 17,
            tuples: 2,
            dump: "E 0 0 1:r T 2 1 9:line\none\n A 0 1:k 3:v v ".into(),
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_checkpoint()).unwrap();
        wal.append(&sample_record(3)).unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records[0], sample_checkpoint());
        assert_eq!(records[1], sample_record(3));
    }

    /// After a real I/O failure the log refuses appends (the failed
    /// write's tail is unknown — anything appended after it could bury
    /// durable records behind garbage at recovery), and a checkpoint
    /// truncation — which atomically replaces the whole log — heals it.
    #[test]
    fn poisoned_log_refuses_appends_until_truncated() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.poisoned = true; // what a failed write_raw records
        assert!(matches!(
            wal.append(&sample_record(2)),
            Err(WalError::Io { .. })
        ));
        assert!(wal.append_batch(&[sample_record(3)])[0].is_err());
        // The existing log stays readable.
        assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);
        // Checkpoint truncation replaces the unknown tail → healthy again.
        wal.reset_with(&sample_checkpoint()).unwrap();
        assert!(!wal.poisoned);
        wal.append(&sample_record(4)).unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![sample_checkpoint(), sample_record(4)]
        );
    }

    #[test]
    fn reset_with_truncates_to_one_checkpoint() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.append(&sample_record(2)).unwrap();
        let before = wal.len_bytes();
        wal.reset_with(&sample_checkpoint()).unwrap();
        assert!(wal.len_bytes() < before + 100);
        assert_eq!(wal.read_all().unwrap(), vec![sample_checkpoint()]);
        wal.append(&sample_record(9)).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 2);
    }

    /// A checkpoint written header-then-payload is the record format
    /// byte for byte, on both backends, and an appended checkpoint is the
    /// same bytes.
    #[test]
    fn a_checkpoint_record_is_written_in_the_record_format() {
        const BYTES: &[u8] = b"C 17 2 42\nE 0 0 1:r T 2 1 9:line\none\n A 0 1:k 3:v v \n";
        let mut wal = Wal::in_memory();
        wal.reset_with(&sample_checkpoint()).unwrap();
        assert_eq!(wal.raw().unwrap(), BYTES);
        assert_eq!(wal.len_bytes(), BYTES.len());
        let mut appended = Wal::in_memory();
        appended.append(&sample_checkpoint()).unwrap();
        assert_eq!(appended.raw().unwrap(), BYTES);
        let dir = std::env::temp_dir().join(format!("mbxq-wal-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.wal");
        let _ = std::fs::remove_file(&path);
        let mut file = Wal::file(&path).unwrap();
        file.append(&sample_record(1)).unwrap();
        file.reset_with(&sample_checkpoint()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), BYTES);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_reset_leaves_the_old_log_intact() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.crash_after_bytes(wal.len_bytes() + 5);
        let err = wal.reset_with(&sample_checkpoint()).unwrap_err();
        assert!(matches!(err, WalError::Crashed { bytes_written: 0 }));
        // The pre-checkpoint history is still fully readable.
        assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);
    }

    #[test]
    fn file_backend_reset_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("mbxq-wal-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(&sample_record(1)).unwrap();
            wal.reset_with(&sample_checkpoint()).unwrap();
            wal.append(&sample_record(2)).unwrap();
        }
        let wal = Wal::file(&path).unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![sample_checkpoint(), sample_record(2)]
        );
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn empty_payload_commit() {
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Commit {
            txn: 1,
            ops: vec![],
        })
        .unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![WalRecord::Commit {
                txn: 1,
                ops: vec![]
            }]
        );
    }
}
