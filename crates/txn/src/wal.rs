//! Write-ahead log.
//!
//! "Writing the WAL is the crucial stage in transaction commit, it
//! consists of a single I/O" (§3.2): a transaction's entire redo
//! content — its logical operations — travels in **one** commit record.
//! A record either lands completely or not at all; recovery treats a
//! torn trailing record as absent, which yields exactly the
//! committed-prefix semantics the paper's durability argument needs.
//! Reopening a file log cuts such a torn tail off before anything is
//! appended, so a record acknowledged after a restart never sits behind
//! bytes recovery stops at.
//!
//! Tuples travel in one format, the checkpoint's tuple stream
//! ([`mbxq_storage::checkpoint`]): a checkpoint record's payload, and an
//! insert op's fragment. A commit record's ops are read one after
//! another, each ending where its last field ends ([`crate::op`]).
//!
//! A checkpoint record is **streamed**: [`Wal::begin_checkpoint`] hands
//! out a [`CheckpointWriter`] that the dump is written into — on the
//! file backend a temp file through a buffer, on the memory backend the
//! next log buffer — and [`Wal::install_checkpoint`] patches the
//! record's length, carries over the complete commit records logged
//! since the caller pinned the version it dumped, and makes the result
//! the log. The writer needs no lock on the log, so committers keep
//! appending while a dump is written; and no document-sized string of
//! the dump exists on the way. Recovery reads the dump in place:
//! [`decode_log`] frames records on the raw bytes and hands out the
//! checkpoint payload borrowed.
//!
//! Two backends: an in-memory buffer (tests, benchmarks) and a file
//! (durability across process restarts). Both support **crash
//! injection** — failing the append after a configured number of bytes —
//! so the recovery tests can cut the log at every possible point.

use crate::op::Op;
use crate::TxnId;
use mbxq_storage::codec::Cursor;
use std::borrow::Cow;
use std::io::{self, BufRead as _, Read as _, Seek as _, Write};
use std::path::{Path, PathBuf};

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

pub(crate) fn io_error(e: io::Error) -> WalError {
    WalError::Io {
        message: e.to_string(),
    }
}

/// One WAL record. The paper's commit writes ancestor sizes, pageOffset
/// shifts and differential lists; our logical-redo equivalent carries
/// the operation list — replaying it regenerates all three.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<'a> {
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
        /// ([`mbxq_storage::PagedDoc::write_checkpoint_dump`] format —
        /// not XML text, which would coalesce adjacent text tuples on
        /// reparse and desynchronize node ids). Borrowed from the log
        /// bytes when decoded.
        dump: Cow<'a, str>,
    },
}

enum Backend {
    Memory {
        log: Vec<u8>,
        /// The buffer the log before the last checkpoint lived in, kept
        /// for the next checkpoint to write into: checkpoints into
        /// memory stop allocating (and fragmenting the heap with
        /// log-sized holes) once two buffers exist.
        spare: Vec<u8>,
    },
    File(std::fs::File, PathBuf),
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

/// A checkpoint record being written: the header went out when
/// [`Wal::begin_checkpoint`] made it, the dump goes in through
/// [`Write`], and [`Wal::install_checkpoint`] completes it. Writing
/// needs no access to the [`Wal`], so a shard streams the dump with no
/// lock held.
pub struct CheckpointWriter {
    sink: Sink,
    /// Bytes of the record so far, its header included.
    len: usize,
    /// Length of the header, whose last [`CKPT_LEN_WIDTH`] digits before
    /// the `\n` are the payload length, patched at install.
    header_len: usize,
}

enum Sink {
    /// The next in-memory log.
    Memory(Vec<u8>),
    /// The temp file that becomes the log.
    File {
        out: io::BufWriter<std::fs::File>,
        tmp: PathBuf,
    },
}

impl Write for CheckpointWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = match &mut self.sink {
            Sink::Memory(log) => {
                log.extend_from_slice(buf);
                buf.len()
            }
            Sink::File { out, .. } => out.write(buf)?,
        };
        self.len += n;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match &mut self.sink {
            Sink::Memory(log) => log.extend_from_slice(buf),
            Sink::File { out, .. } => out.write_all(buf)?,
        }
        self.len += buf.len();
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Memory(_) => Ok(()),
            Sink::File { out, .. } => out.flush(),
        }
    }
}

impl Wal {
    /// An in-memory log (tests/benchmarks).
    pub fn in_memory() -> Wal {
        Wal {
            backend: Backend::Memory {
                log: Vec::new(),
                spare: Vec::new(),
            },
            crash_after_bytes: None,
            bytes_written: 0,
            io_total: 0,
            poisoned: false,
        }
    }

    /// A file-backed log (appends + flush per record).
    ///
    /// Appends go after the log's decodable prefix. A torn tail — an
    /// incomplete header, or a payload shorter than its declared length,
    /// what a crash mid-append leaves — is cut off (and the cut synced)
    /// before the log is handed out: recovery ignores it anyway, and a
    /// record appended behind it would be lost to every later recovery.
    /// Any other undecodable bytes after the prefix are
    /// [`WalError::Corrupt`], naming their offset, instead of being
    /// buried under new records.
    pub fn file(path: &Path) -> Result<Wal, WalError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)
            .map_err(io_error)?;
        let file_len = file.metadata().map_err(io_error)?.len();
        let valid = decodable_prefix(&file, file_len, path)?;
        if valid < file_len {
            file.set_len(valid).map_err(io_error)?;
            file.sync_all().map_err(io_error)?;
        }
        let bytes_written = usize::try_from(valid).expect("a log length fits in usize");
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
    pub fn append(&mut self, record: &WalRecord<'_>) -> Result<(), WalError> {
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
    pub fn append_batch(&mut self, records: &[WalRecord<'_>]) -> Vec<Result<(), WalError>> {
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

    /// Starts a checkpoint record of a version with `tuples` used tuples
    /// and node ids allocated up to `alloc_end`: the header goes out with
    /// a placeholder length, and the returned writer takes the dump (see
    /// [`mbxq_storage::PagedDoc::write_checkpoint_dump`]). The memory
    /// backend reserves `size_hint` payload bytes for it up front.
    /// Nothing about the live log changes until
    /// [`Wal::install_checkpoint`].
    pub fn begin_checkpoint(
        &mut self,
        alloc_end: u64,
        tuples: u64,
        size_hint: usize,
    ) -> Result<CheckpointWriter, WalError> {
        let header = checkpoint_header(alloc_end, tuples, 0);
        let sink = match &mut self.backend {
            Backend::Memory { spare, .. } => {
                let mut log = std::mem::take(spare);
                log.clear();
                log.reserve_exact(header.len() + size_hint + 1);
                log.extend_from_slice(header.as_bytes());
                Sink::Memory(log)
            }
            Backend::File(_, path) => {
                let tmp = path.with_extension("wal-tmp");
                let file = std::fs::File::create(&tmp).map_err(io_error)?;
                let mut out = io::BufWriter::with_capacity(1 << 16, file);
                out.write_all(header.as_bytes()).map_err(io_error)?;
                Sink::File { out, tmp }
            }
        };
        Ok(CheckpointWriter {
            sink,
            len: header.len(),
            header_len: header.len(),
        })
    }

    /// Completes `ckpt` and atomically makes it the log: the record's
    /// length is patched into its header, and the complete records
    /// logged at or after byte `carry_from` of the current log — the
    /// commits that landed after the checkpointed version was pinned —
    /// follow it. A torn or failed append there is not carried over: its
    /// commit was never acknowledged. Either the new log or the old one
    /// survives; a crash mid-rewrite never leaves a truncated log
    /// (write-temp-then-rename on the file backend).
    pub fn install_checkpoint(
        &mut self,
        ckpt: CheckpointWriter,
        carry_from: usize,
    ) -> Result<(), WalError> {
        let CheckpointWriter {
            sink,
            len,
            header_len,
        } = ckpt;
        let payload_len = format!("{:0w$}", len - header_len, w = CKPT_LEN_WIDTH);
        let len_at = header_len - 1 - CKPT_LEN_WIDTH;
        let carried = self.complete_records_from(carry_from)?;
        let total = len + 1 + carried.len();
        if let Some(limit) = self.crash_after_bytes {
            if self.io_total + total > limit {
                // The crash hit while writing the checkpoint; the live
                // log is untouched.
                self.io_total = limit;
                if let Sink::File { tmp, .. } = &sink {
                    let _ = std::fs::remove_file(tmp);
                }
                return Err(WalError::Crashed { bytes_written: 0 });
            }
        }
        match (sink, &mut self.backend) {
            (Sink::Memory(mut new), Backend::Memory { log, spare }) => {
                new[len_at..len_at + CKPT_LEN_WIDTH].copy_from_slice(payload_len.as_bytes());
                new.push(b'\n');
                new.extend_from_slice(&carried);
                *spare = std::mem::replace(log, new);
            }
            (Sink::File { out, tmp }, Backend::File(f, path)) => {
                let mut file = out.into_inner().map_err(|e| io_error(e.into_error()))?;
                file.write_all(b"\n").map_err(io_error)?;
                file.write_all(&carried).map_err(io_error)?;
                file.seek(io::SeekFrom::Start(len_at as u64))
                    .and_then(|_| file.write_all(payload_len.as_bytes()))
                    .map_err(io_error)?;
                // The temp file's *data* must be on the device before
                // the rename makes it the log: a journaled rename can
                // survive a power cut that the un-synced data blocks do
                // not, which would replace every durable record with an
                // empty/partial checkpoint — the one failure mode a
                // checkpoint must never introduce.
                file.sync_all().map_err(io_error)?;
                drop(file);
                std::fs::rename(&tmp, &*path).map_err(io_error)?;
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
                    .map_err(io_error)?;
            }
            _ => unreachable!("a checkpoint is installed in the log that began it"),
        }
        self.bytes_written = total;
        self.io_total += total;
        // The whole log was atomically replaced: any garbage a
        // previously failed append may have left is gone, so a poisoned
        // log becomes writable again through exactly this path
        // (Shard::checkpoint is the recovery action for a sick WAL).
        self.poisoned = false;
        Ok(())
    }

    /// The complete records of the log from byte `from` on, up to the
    /// first torn or undecodable one. Only bytes counted in
    /// `bytes_written` are read: a failed write's tail is not part of
    /// the log.
    fn complete_records_from(&self, from: usize) -> Result<Vec<u8>, WalError> {
        debug_assert!(from <= self.bytes_written, "carry from inside the log");
        let n = self.bytes_written.saturating_sub(from);
        let mut tail = match &self.backend {
            Backend::Memory { log, .. } => log[from..from + n].to_vec(),
            Backend::File(_, path) => {
                let mut file = std::fs::File::open(path).map_err(io_error)?;
                file.seek(io::SeekFrom::Start(from as u64))
                    .map_err(io_error)?;
                let mut tail = Vec::with_capacity(n);
                file.take(n as u64)
                    .read_to_end(&mut tail)
                    .map_err(io_error)?;
                tail
            }
        };
        tail.truncate(complete_prefix(&tail));
        Ok(tail)
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        match &mut self.backend {
            Backend::Memory { log, .. } => {
                log.extend_from_slice(bytes);
                Ok(())
            }
            Backend::File(f, _) => f
                .write_all(bytes)
                // A WAL append is only durable once the bytes reach the
                // device: fsync per log I/O. This is exactly the cost
                // group commit amortizes — one sync per *batch*.
                .and_then(|_| f.sync_data())
                .map_err(io_error),
        }
    }

    /// The raw log contents (what a recovery process would find on disk).
    pub fn raw(&self) -> Result<Vec<u8>, WalError> {
        match &self.backend {
            Backend::Memory { log, .. } => Ok(log.clone()),
            Backend::File(_, path) => std::fs::read(path).map_err(io_error),
        }
    }
}

/// Record wire format (text; payload lengths are explicit, so payloads
/// may contain anything including newlines):
///
/// ```text
/// W <txn> <op-count> <byte-len-of-payload>\n<payload>\n
/// C <alloc-end> <tuple-count> <byte-len-of-payload: 20 digits, zero-padded>\n<payload>\n
/// ```
///
/// A commit payload is the ops in order, separated by `\x1f`; a
/// checkpoint payload is the tuple dump. The trailing `\n` completes the
/// record; recovery only accepts records whose full payload is present.
/// A checkpoint's length is fixed-width because its header is written
/// before the streamed dump and the length patched in after it; the
/// decoder reads a length of any width, so a log whose checkpoint header
/// carries the earlier variable-width length still recovers.
fn encode_record(record: &WalRecord<'_>) -> Vec<u8> {
    let (header, payload) = match record {
        WalRecord::Commit { txn, ops } => {
            let mut payload = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    payload.push(b'\x1f');
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
        } => (
            checkpoint_header(*alloc_end, *tuples, dump.len()),
            Cow::Borrowed(dump.as_bytes()),
        ),
    };
    let mut out = Vec::with_capacity(header.len() + payload.len() + 1);
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(&payload);
    out.push(b'\n');
    out
}

/// Digits of a checkpoint header's payload length.
const CKPT_LEN_WIDTH: usize = 20;

/// The longest header line, its `\n` included: a tag and three fields
/// of at most 20 digits each.
const MAX_HEADER: usize = 1 + 3 * 21 + 1;

fn checkpoint_header(alloc_end: u64, tuples: u64, payload_len: usize) -> String {
    format!(
        "C {alloc_end} {tuples} {payload_len:0w$}\n",
        w = CKPT_LEN_WIDTH
    )
}

/// A parsed header line.
struct Header {
    /// `b'W'` or `b'C'`.
    tag: u8,
    /// The txn id, or the allocation point.
    a: u64,
    /// The op count, or the tuple count.
    b: u64,
    /// Payload bytes.
    len: usize,
    /// Bytes of the header line, its `\n` included.
    size: usize,
}

/// What the bytes at a record boundary hold.
enum Frame {
    Header(Header),
    /// No `\n` before the bytes end, and what is there could begin a
    /// header: a header a crash cut short.
    Torn,
    Garbage,
}

/// Parses the header line at the start of `bytes`.
fn parse_header(bytes: &[u8]) -> Frame {
    let window = &bytes[..bytes.len().min(MAX_HEADER)];
    let Some(nl) = window.iter().position(|&b| b == b'\n') else {
        let could_start = match window.split_first() {
            None => true,
            Some((tag, rest)) => {
                matches!(tag, b'W' | b'C') && rest.iter().all(|&b| b == b' ' || b.is_ascii_digit())
            }
        };
        return if window.len() < MAX_HEADER && could_start {
            Frame::Torn
        } else {
            Frame::Garbage
        };
    };
    let read = |line: &str| {
        let mut cur = Cursor::new(line);
        let tag = match cur.token("record tag") {
            Ok("W") => b'W',
            Ok("C") => b'C',
            _ => return None,
        };
        let (a, b, len) = (
            cur.num("a").ok()?,
            cur.num("b").ok()?,
            cur.num("length").ok()?,
        );
        let len = usize::try_from(len).ok()?;
        cur.at_end().then_some(Header {
            tag,
            a,
            b,
            len,
            size: nl + 1,
        })
    };
    match std::str::from_utf8(&window[..nl]).ok().and_then(read) {
        Some(header) => Frame::Header(header),
        None => Frame::Garbage,
    }
}

/// The complete records at the head of a log buffer, each with its
/// offset. Iteration stops at the first bytes that do not frame a
/// complete record — a torn tail, or garbage — which is where the valid
/// prefix ends (`at`).
struct Frames<'a> {
    raw: &'a [u8],
    at: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, Header, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.raw[self.at..];
        let Frame::Header(header) = parse_header(rest) else {
            return None;
        };
        let end = header.size.checked_add(header.len)?;
        if rest.get(end) != Some(&b'\n') {
            return None; // torn payload, or a missing terminator
        }
        let (at, payload) = (self.at, &rest[header.size..end]);
        self.at += end + 1;
        Some((at, header, payload))
    }
}

/// Bytes of the complete records at the head of `raw`.
fn complete_prefix(raw: &[u8]) -> usize {
    let mut frames = Frames { raw, at: 0 };
    frames.by_ref().for_each(drop);
    frames.at
}

/// Decodes a log buffer into its complete records, framed on the raw
/// bytes. The first record that does not frame (a torn tail, or garbage)
/// ends the valid prefix. A complete record whose payload does not
/// decode — not UTF-8, or ops that do not parse — is corruption, not a
/// crash artifact, and an error. A checkpoint's dump is borrowed from
/// `raw`, not copied.
pub fn decode_log(raw: &[u8]) -> Result<Vec<WalRecord<'_>>, WalError> {
    let mut records = Vec::new();
    for (at, header, payload) in (Frames { raw, at: 0 }) {
        let payload = std::str::from_utf8(payload).map_err(|e| WalError::Corrupt {
            message: format!("record at byte {at}: payload is not UTF-8 ({e})"),
        })?;
        if header.tag == b'C' {
            records.push(WalRecord::Checkpoint {
                alloc_end: header.a,
                tuples: header.b,
                dump: Cow::Borrowed(payload),
            });
            continue;
        }
        let (txn, op_count) = (header.a, header.b);
        let corrupt = |message: String| WalError::Corrupt {
            message: format!("record of txn {txn}: {message}"),
        };
        let mut ops = Vec::with_capacity(usize::try_from(op_count).unwrap_or(0).min(payload.len()));
        let mut cur = Cursor::new(payload);
        while !cur.at_end() {
            ops.push(Op::read(&mut cur).map_err(corrupt)?);
        }
        if ops.len() as u64 != op_count {
            return Err(corrupt(format!(
                "declares {op_count} ops but carries {}",
                ops.len()
            )));
        }
        records.push(WalRecord::Commit { txn, ops });
    }
    Ok(records)
}

/// The end of the decodable prefix of the file log at `path`; bytes
/// after it that are not a torn tail are [`WalError::Corrupt`]. Reads the
/// header lines only: a payload is skipped by its declared length.
fn decodable_prefix(file: &std::fs::File, file_len: u64, path: &Path) -> Result<u64, WalError> {
    let undecodable = |at: u64| WalError::Corrupt {
        message: format!(
            "{}: undecodable bytes at offset {at} of {file_len}",
            path.display()
        ),
    };
    let mut reader = io::BufReader::with_capacity(1 << 16, file);
    let mut line = Vec::with_capacity(MAX_HEADER);
    let mut at = 0u64;
    while at < file_len {
        line.clear();
        (&mut reader)
            .take(MAX_HEADER as u64)
            .read_until(b'\n', &mut line)
            .map_err(io_error)?;
        let header = match parse_header(&line) {
            Frame::Header(header) => header,
            Frame::Torn => return Ok(at),
            Frame::Garbage => return Err(undecodable(at)),
        };
        let end = (header.size as u64).saturating_add(header.len as u64);
        if at.saturating_add(end) >= file_len {
            return Ok(at); // torn payload, or a missing terminator
        }
        // The payload ends inside the file, so its length fits an i64.
        reader
            .seek_relative(i64::try_from(header.len).expect("shorter than the file"))
            .map_err(io_error)?;
        let mut terminator = [0u8];
        reader.read_exact(&mut terminator).map_err(io_error)?;
        if terminator != *b"\n" {
            return Err(undecodable(at));
        }
        at += end + 1;
    }
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbxq_storage::NodeId;

    impl Wal {
        /// Decodes all complete records, owned.
        pub(crate) fn read_all(&self) -> Result<Vec<WalRecord<'static>>, WalError> {
            let raw = self.raw()?;
            let records = decode_log(&raw)?;
            Ok(records.into_iter().map(WalRecord::into_owned).collect())
        }
    }

    impl WalRecord<'_> {
        /// The record with its payload owned.
        pub(crate) fn into_owned(self) -> WalRecord<'static> {
            match self {
                WalRecord::Commit { txn, ops } => WalRecord::Commit { txn, ops },
                WalRecord::Checkpoint {
                    alloc_end,
                    tuples,
                    dump,
                } => WalRecord::Checkpoint {
                    alloc_end,
                    tuples,
                    dump: Cow::Owned(dump.into_owned()),
                },
            }
        }
    }

    fn sample_record(txn: TxnId) -> WalRecord<'static> {
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

    /// A fresh directory of this test's own (tests of one process run
    /// in parallel, so no two may share one); the test removes it whole.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mbxq-wal-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_backend_persists() {
        let dir = test_dir("persists");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(&sample_record(7)).unwrap();
        }
        let wal = Wal::file(&path).unwrap();
        let records = wal.read_all().unwrap();
        assert_eq!(records, vec![sample_record(7)]);
        std::fs::remove_dir_all(&dir).unwrap();
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

    fn sample_checkpoint() -> WalRecord<'static> {
        WalRecord::Checkpoint {
            alloc_end: 17,
            tuples: 2,
            dump: "E 0 0 1:r T 2 1 9:line\none\n A 0 1:k 3:v v ".into(),
        }
    }

    /// Makes the checkpoint `record` the log the way a shard does: begin
    /// the record, stream its dump into the writer, install it.
    fn reset_with(wal: &mut Wal, record: &WalRecord<'_>) -> Result<(), WalError> {
        let WalRecord::Checkpoint {
            alloc_end,
            tuples,
            dump,
        } = record
        else {
            panic!("not a checkpoint: {record:?}");
        };
        let mut ckpt = wal.begin_checkpoint(*alloc_end, *tuples, dump.len())?;
        ckpt.write_all(dump.as_bytes()).unwrap();
        let from = wal.len_bytes();
        wal.install_checkpoint(ckpt, from)
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
        reset_with(&mut wal, &sample_checkpoint()).unwrap();
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
        reset_with(&mut wal, &sample_checkpoint()).unwrap();
        assert!(wal.len_bytes() < before + 100);
        assert_eq!(wal.read_all().unwrap(), vec![sample_checkpoint()]);
        wal.append(&sample_record(9)).unwrap();
        assert_eq!(wal.read_all().unwrap().len(), 2);
    }

    /// A streamed checkpoint is the record format byte for byte, on both
    /// backends, and an appended checkpoint is the same bytes. The
    /// payload length is a fixed-width, zero-padded field: it is written
    /// before the dump and patched after it.
    #[test]
    fn a_checkpoint_record_is_written_in_the_record_format() {
        const BYTES: &[u8] =
            b"C 17 2 00000000000000000042\nE 0 0 1:r T 2 1 9:line\none\n A 0 1:k 3:v v \n";
        let mut wal = Wal::in_memory();
        reset_with(&mut wal, &sample_checkpoint()).unwrap();
        assert_eq!(wal.raw().unwrap(), BYTES);
        assert_eq!(wal.len_bytes(), BYTES.len());
        let mut appended = Wal::in_memory();
        appended.append(&sample_checkpoint()).unwrap();
        assert_eq!(appended.raw().unwrap(), BYTES);
        let dir = test_dir("ckpt-format");
        let path = dir.join("ckpt.wal");
        let mut file = Wal::file(&path).unwrap();
        file.append(&sample_record(1)).unwrap();
        reset_with(&mut file, &sample_checkpoint()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), BYTES);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_reset_leaves_the_old_log_intact() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        wal.crash_after_bytes(wal.len_bytes() + 5);
        let err = reset_with(&mut wal, &sample_checkpoint()).unwrap_err();
        assert!(matches!(err, WalError::Crashed { bytes_written: 0 }));
        // The pre-checkpoint history is still fully readable.
        assert_eq!(wal.read_all().unwrap(), vec![sample_record(1)]);
    }

    #[test]
    fn file_backend_reset_survives_reopen() {
        let dir = test_dir("reset-reopen");
        let path = dir.join("wal.log");
        {
            let mut wal = Wal::file(&path).unwrap();
            wal.append(&sample_record(1)).unwrap();
            reset_with(&mut wal, &sample_checkpoint()).unwrap();
            wal.append(&sample_record(2)).unwrap();
        }
        let wal = Wal::file(&path).unwrap();
        assert_eq!(
            wal.read_all().unwrap(),
            vec![sample_checkpoint(), sample_record(2)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
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

    /// A log written before the checkpoint length became fixed-width —
    /// its checkpoint header carries the payload length in as many
    /// digits as it needs — decodes, and a file log in that format
    /// reopens and takes appends after it.
    #[test]
    fn a_log_with_a_variable_width_checkpoint_length_still_decodes() {
        let mut log = b"C 17 2 42\nE 0 0 1:r T 2 1 9:line\none\n A 0 1:k 3:v v \n".to_vec();
        let mut commit = Wal::in_memory();
        commit.append(&sample_record(3)).unwrap();
        log.extend_from_slice(&commit.raw().unwrap());
        let expected = vec![sample_checkpoint(), sample_record(3)];
        assert_eq!(decode_log(&log).unwrap(), expected);
        let dir = test_dir("old-format");
        let path = dir.join("old.wal");
        std::fs::write(&path, &log).unwrap();
        let mut wal = Wal::file(&path).unwrap();
        assert_eq!(wal.len_bytes(), log.len());
        wal.append(&sample_record(4)).unwrap();
        let mut all = expected;
        all.push(sample_record(4));
        assert_eq!(Wal::file(&path).unwrap().read_all().unwrap(), all);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A decoded checkpoint's dump is a slice of the log bytes, not a
    /// copy of them.
    #[test]
    fn a_decoded_checkpoint_borrows_its_dump() {
        let mut wal = Wal::in_memory();
        wal.append(&sample_checkpoint()).unwrap();
        let raw = wal.raw().unwrap();
        let records = decode_log(&raw).unwrap();
        let WalRecord::Checkpoint {
            dump: Cow::Borrowed(dump),
            ..
        } = &records[0]
        else {
            panic!("an owned dump: {records:?}");
        };
        assert!(raw.as_ptr_range().contains(&dump.as_ptr()));
    }

    /// A complete record whose payload is not UTF-8 is corruption, not a
    /// torn tail: decoding reports it instead of ending the prefix there.
    #[test]
    fn a_complete_record_with_a_non_utf8_payload_is_corrupt() {
        let mut log = Wal::in_memory();
        log.append(&sample_record(1)).unwrap();
        let mut raw = log.raw().unwrap();
        raw.extend_from_slice(b"C 1 1 2\n\xff\xfe\n");
        assert!(matches!(decode_log(&raw), Err(WalError::Corrupt { .. })));
    }

    /// Commits that land while a checkpoint's dump is written are carried
    /// into the new log behind it; a torn append among them is not.
    #[test]
    fn install_carries_the_complete_records_logged_since_the_pin() {
        let dir = test_dir("carry");
        let mut wals = vec![Wal::in_memory(), Wal::file(&dir.join("carry.wal")).unwrap()];
        for wal in &mut wals {
            wal.append(&sample_record(1)).unwrap();
            let pin = wal.len_bytes();
            let WalRecord::Checkpoint { dump, .. } = sample_checkpoint() else {
                unreachable!()
            };
            let mut ckpt = wal.begin_checkpoint(17, 2, 0).unwrap();
            ckpt.write_all(dump.as_bytes()).unwrap();
            wal.append(&sample_record(2)).unwrap();
            wal.append(&sample_record(3)).unwrap();
            wal.install_checkpoint(ckpt, pin).unwrap();
            assert_eq!(
                wal.read_all().unwrap(),
                vec![sample_checkpoint(), sample_record(2), sample_record(3)]
            );
            assert_eq!(wal.len_bytes(), wal.raw().unwrap().len());
            wal.append(&sample_record(4)).unwrap();
            assert_eq!(wal.read_all().unwrap().len(), 4);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        // The carried bytes stop at a torn record.
        let mut wal = Wal::in_memory();
        wal.append(&sample_record(1)).unwrap();
        let one = wal.len_bytes();
        wal.crash_after_bytes(one + 6);
        assert!(wal.append(&sample_record(2)).is_err());
        assert_eq!(wal.len_bytes(), one + 6);
        assert_eq!(wal.complete_records_from(0).unwrap().len(), one);
        assert!(wal.complete_records_from(one).unwrap().is_empty());
    }

    /// A crash tears the last record; reopening the file log cuts the
    /// torn bytes, so what is appended next is not buried behind them.
    #[test]
    fn reopening_cuts_a_torn_tail_before_appending() {
        let dir = test_dir("torn-reopen");
        let path = dir.join("wal.log");
        let mut probe = Wal::in_memory();
        probe.append(&sample_record(1)).unwrap();
        let one = probe.len_bytes();
        probe.append(&sample_record(2)).unwrap();
        let two = probe.len_bytes() - one;
        // Every cut inside the second record: header or payload.
        for cut in 1..two {
            let _ = std::fs::remove_file(&path);
            {
                let mut wal = Wal::file(&path).unwrap();
                wal.append(&sample_record(1)).unwrap();
                wal.crash_after_bytes(one + cut);
                assert!(wal.append(&sample_record(2)).is_err(), "cut={cut}");
            }
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, one + cut);
            let mut wal = Wal::file(&path).unwrap();
            assert_eq!(wal.len_bytes(), one, "cut={cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, one);
            wal.append(&sample_record(3)).unwrap();
            drop(wal);
            assert_eq!(
                Wal::file(&path).unwrap().read_all().unwrap(),
                vec![sample_record(1), sample_record(3)],
                "cut={cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes after the decodable prefix that are not a torn record make
    /// opening fail, naming their offset, and the file is left alone.
    #[test]
    fn reopening_refuses_undecodable_bytes_after_the_prefix() {
        let dir = test_dir("garbage-reopen");
        let path = dir.join("wal.log");
        let mut probe = Wal::in_memory();
        probe.append(&sample_record(1)).unwrap();
        let good = probe.raw().unwrap();
        let mut unending = b"W ".to_vec();
        unending.resize(MAX_HEADER, b'1');
        let mut terminated = good.clone();
        terminated.extend_from_slice(&good);
        *terminated.last_mut().unwrap() = b'x';
        for tail in [
            b"garbage".to_vec(),
            b"X 1 1 1\nx\n".to_vec(),
            b"W 1 0 2\nab".to_vec().into_iter().chain(*b"!").collect(),
            terminated[good.len()..].to_vec(),
            unending,
        ] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&tail);
            std::fs::write(&path, &bytes).unwrap();
            match Wal::file(&path) {
                Err(WalError::Corrupt { message }) => {
                    assert!(
                        message.contains(&format!("offset {}", good.len())),
                        "{message}"
                    )
                }
                other => panic!("{tail:?} opened: {:?}", other.map(|w| w.len_bytes())),
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "the file is untouched"
            );
            // Recovery still reads the prefix.
            assert_eq!(decode_log(&bytes).unwrap(), vec![sample_record(1)]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
