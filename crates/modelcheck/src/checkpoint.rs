//! Crash-safe sweep checkpointing: an append-only journal of finished
//! combo outcomes, recovery that tolerates torn and corrupt tails, fault
//! injection for exercising every write boundary, and a memory watchdog
//! for graceful degradation instead of OOM death.
//!
//! # Journal format
//!
//! The journal is a single append-only file (`sweep.journal` inside the
//! checkpoint directory) of length-prefixed, checksummed frames — the same
//! discipline as the visited-store spill shards:
//!
//! ```text
//! [u32 LE payload-len][u64 LE fnv1a(payload)][payload bytes]
//! ```
//!
//! The first record is always a [`JournalHeader`] naming the check, the
//! sweep size, and a fingerprint of the sweep configuration; resuming
//! against a journal whose header does not match fails loudly rather than
//! assembling a report from someone else's combos. Every later record is
//! one combo *completion* (the full [`ComboOutcome`], recorded only for
//! runs whose stop probe never fired): the only thing a resume reads.
//! Tags 2 (an older build's per-combo claim) and 4 (its progress record)
//! are retired: decoding rejects them, so such a frame ends the valid
//! prefix and the combos after it are re-explored. Live progress is the
//! telemetry plane's job (`mc.states_total`, `mc.frontier_depth`), not the
//! journal's.
//!
//! # Why combo granularity is enough
//!
//! Per-combo BFS is deterministic: the same wiring combo with the same
//! caps always yields the same `ComboOutcome` (this is the property the
//! combo pool in [`crate::strategy`] already leans on). A resumed sweep
//! therefore replays recorded outcomes verbatim and re-explores every combo
//! without one — and the assembled `TaskCheckReport` is byte-identical to
//! an uninterrupted run no matter how many times the process was killed. Outcomes of aborted runs (stop
//! probe fired: a lower violation cancelled the combo, a signal arrived,
//! or the watchdog tripped) are never journaled, because replaying them
//! would freeze a nondeterministic partial result into the report.
//!
//! # Durability
//!
//! Every frame is handed to the OS with one `write_all` on the file, so a
//! killed process loses nothing it appended; only a machine crash can. The
//! rule for that case is fixed: the journal calls `sync_data` after the
//! header, whenever 64 KiB have been appended since the last sync (an
//! *epoch*), and once more when the sweep finishes. A machine crash can
//! therefore lose at most the final epoch of records — recovery truncates
//! the torn tail and the affected combos are simply re-explored.
//!
//! Visited-store spill shards are *not* made durable: only the exploration
//! that wrote a shard ever reads it back, in the same process, and
//! [`SweepJournal::open_resume`] deletes every shard a crashed run left
//! behind unread. The checkpoint directory is only where they live.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::store::fnv1a;
use crate::strategy::ComboOutcome;

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "sweep.journal";

/// Subdirectory of the checkpoint directory that hosts visited-store
/// spill shards while a checkpointed sweep runs.
pub const SPILL_SUBDIR: &str = "spill";

/// Fsync epoch: sync the journal after this many appended bytes.
const SYNC_EVERY_BYTES: u64 = 64 * 1024;

/// Environment variable consulted by [`crash_point`]: `site@N` aborts the
/// process on the `N`-th hit of `site` (`site` alone means `site@1`).
pub const CRASH_ENV: &str = "FA_CRASH_AT";

/// How a sweep checkpoints itself. Carried on
/// [`crate::CheckConfig::with_checkpoint`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding the journal and (while running) spill shards.
    pub dir: PathBuf,
    /// Resume from an existing journal in `dir` when one is present
    /// (otherwise a fresh journal is always started, clobbering any
    /// previous one).
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, no resume.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            resume: false,
        }
    }

    /// Resume from an existing journal when one is present.
    #[must_use]
    pub fn with_resume(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// Errors from journal I/O and recovery.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The journal's contents are unusable (missing or malformed header).
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// First record of every journal: identifies the sweep the journal
/// belongs to, so resuming under a different configuration fails loudly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Harness name (e.g. `"snapshot_task_coarse"`).
    pub check: String,
    /// Number of processors in the sweep.
    pub n: u64,
    /// Total wiring combinations in the sweep.
    pub total_combos: u64,
    /// FNV-1a hash over the full sweep configuration (check, sizes,
    /// quotient flag, harness inputs and caps).
    pub fingerprint: u64,
}

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// Sweep identity; always the first record.
    Header(JournalHeader),
    /// Exploration of `combo` finished without its stop probe firing;
    /// `outcome` is safe to replay verbatim on resume.
    ComboDone {
        /// Full combo index (the sweep-order index, not a compacted one).
        combo: u64,
        /// The deterministic outcome of the combo's exploration.
        outcome: ComboOutcome,
    },
}

const TAG_HEADER: u8 = 1;
const TAG_DONE: u8 = 3;
// Tags 2 and 4 were an older build's per-combo claim and progress records.
// They are retired, not free: decoding rejects them, so such a frame ends
// the valid prefix.

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("journal string fits in u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Sequential decoder over a record payload; every `take_*` fails with a
/// description instead of panicking so corrupt payloads degrade to
/// truncation, never a crash or a wrong record.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload underrun at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn take_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn take_opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            other => Err(format!("bad option tag {other}")),
        }
    }

    fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad utf8 in string: {e}"))
    }

    fn take_opt_str(&mut self) -> Result<Option<String>, String> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_str()?)),
            other => Err(format!("bad option tag {other}")),
        }
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.pos
            ))
        }
    }
}

fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match rec {
        JournalRecord::Header(h) => {
            out.push(TAG_HEADER);
            put_str(&mut out, &h.check);
            put_u64(&mut out, h.n);
            put_u64(&mut out, h.total_combos);
            put_u64(&mut out, h.fingerprint);
        }
        JournalRecord::ComboDone { combo, outcome } => {
            out.push(TAG_DONE);
            put_u64(&mut out, *combo);
            put_u64(&mut out, outcome.states as u64);
            out.push(u8::from(outcome.complete));
            put_opt_u64(&mut out, outcome.full_states_est);
            put_u64(&mut out, outcome.spilled_shards as u64);
            put_opt_str(&mut out, outcome.violation.as_deref());
        }
    }
    out
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut c = Cursor::new(payload);
    let rec = match c.take_u8()? {
        TAG_HEADER => JournalRecord::Header(JournalHeader {
            check: c.take_str()?,
            n: c.take_u64()?,
            total_combos: c.take_u64()?,
            fingerprint: c.take_u64()?,
        }),
        TAG_DONE => {
            let combo = c.take_u64()?;
            let states = usize::try_from(c.take_u64()?).map_err(|_| "states overflow")?;
            let complete = match c.take_u8()? {
                0 => false,
                1 => true,
                other => return Err(format!("bad bool {other}")),
            };
            let full_states_est = c.take_opt_u64()?;
            let spilled_shards =
                usize::try_from(c.take_u64()?).map_err(|_| "spilled_shards overflow")?;
            let violation = c.take_opt_str()?;
            JournalRecord::ComboDone {
                combo,
                outcome: ComboOutcome {
                    states,
                    complete,
                    full_states_est,
                    spilled_shards,
                    violation,
                },
            }
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    c.finish()?;
    Ok(rec)
}

/// Frame header size: u32 payload length + u64 FNV-1a checksum.
const FRAME_HEADER_BYTES: usize = 4 + 8;

fn encode_frame(rec: &JournalRecord) -> Vec<u8> {
    frame(&encode_record(rec))
}

/// Wraps a record payload in its length + checksum frame header.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    let len = u32::try_from(payload.len()).expect("record payload fits in u32");
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Checksum-valid frames of an older build's retired records for `combo`,
/// as a journal written before their retirement may hold: a claim (tag 2)
/// and a progress record (tag 4).
#[cfg(test)]
pub(crate) fn retired_frames(combo: u64) -> [Vec<u8>; 2] {
    let mut claim = vec![2u8];
    claim.extend_from_slice(&combo.to_le_bytes());
    let mut progress = vec![4u8];
    for v in [combo, 65_536, 7] {
        progress.extend_from_slice(&v.to_le_bytes());
    }
    [frame(&claim), frame(&progress)]
}

/// Scans journal bytes, returning every intact record in order plus the
/// byte length of the valid prefix. Scanning stops — without error — at
/// the first torn frame (length header past end of file), checksum
/// mismatch, or undecodable payload: everything after that point was
/// written during the crash and is discarded by recovery.
fn scan_records(bytes: &[u8]) -> (Vec<JournalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= FRAME_HEADER_BYTES {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let expect = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let start = pos + FRAME_HEADER_BYTES;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            break; // torn tail: the payload never made it to disk
        };
        let payload = &bytes[start..end];
        if fnv1a(payload) != expect {
            break; // corrupt frame: checksum mismatch
        }
        let Ok(rec) = decode_record(payload) else {
            break; // checksummed but undecodable (e.g. version skew)
        };
        records.push(rec);
        pos = end;
    }
    (records, pos as u64)
}

/// What recovery reconstructed from a journal.
#[derive(Debug)]
pub struct Recovery {
    /// The sweep identity the journal was written under.
    pub header: JournalHeader,
    /// Combos whose deterministic outcomes were durably recorded; a
    /// resumed sweep replays these verbatim and re-explores every other.
    pub completed: HashMap<usize, ComboOutcome>,
    /// Always empty: the journal records no claims, so nothing is known to
    /// be in flight. Kept only until the benchmark stops reading it.
    #[doc(hidden)]
    pub in_flight: Vec<usize>,
    /// Bytes dropped from the journal tail (torn or corrupt frames).
    pub truncated_bytes: u64,
    /// Stale spill-shard files from the crashed run that were removed.
    pub stale_spill_files: usize,
}

/// Read-only journal inspection: scan and classify without truncating or
/// opening for append. Used by harnesses to report recovery statistics.
///
/// # Errors
///
/// Fails if the journal cannot be read or lacks an intact header.
pub fn inspect_journal(dir: &Path) -> Result<Recovery, JournalError> {
    let bytes = fs::read(SweepJournal::journal_path(dir))?;
    let (records, valid_len) = scan_records(&bytes);
    build_recovery(records, bytes.len() as u64 - valid_len, 0)
}

fn build_recovery(
    records: Vec<JournalRecord>,
    truncated_bytes: u64,
    stale_spill_files: usize,
) -> Result<Recovery, JournalError> {
    let mut iter = records.into_iter();
    let header = match iter.next() {
        Some(JournalRecord::Header(h)) => h,
        _ => {
            return Err(JournalError::Corrupt(
                "no intact header record — cannot resume, start a fresh run".into(),
            ))
        }
    };
    let mut completed: HashMap<usize, ComboOutcome> = HashMap::new();
    for rec in iter {
        match rec {
            JournalRecord::Header(_) => {
                return Err(JournalError::Corrupt("duplicate header record".into()))
            }
            JournalRecord::ComboDone { combo, outcome } => {
                let combo = usize::try_from(combo)
                    .map_err(|_| JournalError::Corrupt("combo index overflow".into()))?;
                completed.insert(combo, outcome);
            }
        }
    }
    Ok(Recovery {
        header,
        completed,
        in_flight: Vec::new(),
        truncated_bytes,
        stale_spill_files,
    })
}

/// Append-only, checksummed, fsync-epoch'd journal of sweep progress.
#[derive(Debug)]
pub struct SweepJournal {
    file: File,
    bytes_since_sync: u64,
    bytes_written: u64,
    syncs: u64,
}

impl SweepJournal {
    /// Path of the journal file inside a checkpoint directory.
    #[must_use]
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Whether `dir` holds a journal to resume from.
    #[must_use]
    pub fn exists(dir: &Path) -> bool {
        Self::journal_path(dir).is_file()
    }

    /// Starts a fresh journal in `dir` (creating the directory, clobbering
    /// any previous journal), writes the header, and syncs it durably.
    ///
    /// # Errors
    ///
    /// Fails if the directory or journal cannot be created or written.
    pub fn create(dir: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(Self::journal_path(dir))?;
        let mut journal = SweepJournal {
            file,
            bytes_since_sync: 0,
            bytes_written: 0,
            syncs: 0,
        };
        journal.append(&JournalRecord::Header(header.clone()))?;
        journal.sync()?;
        Ok(journal)
    }

    /// Opens an existing journal for resumption: scans it, truncates the
    /// torn/corrupt tail (if any), removes stale spill shards left by the
    /// crashed run, and positions the journal for appending.
    ///
    /// # Errors
    ///
    /// Fails if the journal is missing, unreadable, or lacks an intact
    /// header record.
    pub fn open_resume(dir: &Path) -> Result<(Self, Recovery), JournalError> {
        let path = Self::journal_path(dir);
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = scan_records(&bytes);
        let truncated = bytes.len() as u64 - valid_len;
        if truncated > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let stale = remove_stale_spill_shards(&dir.join(SPILL_SUBDIR));
        let recovery = build_recovery(records, truncated, stale)?;
        let journal = SweepJournal {
            file,
            bytes_since_sync: 0,
            bytes_written: valid_len,
            syncs: 0,
        };
        Ok((journal, recovery))
    }

    /// Appends one record, syncing when the current epoch fills up.
    ///
    /// # Errors
    ///
    /// Fails if the write or an epoch sync fails (e.g. the checkpoint
    /// directory vanished) — callers must treat this as fatal for
    /// durability, not ignore it.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), JournalError> {
        let frame = encode_frame(rec);
        if crash_armed("journal.torn") {
            // Simulate a crash mid-write: persist half the frame, then die
            // the way a power cut would.
            let half = &frame[..frame.len() / 2];
            let _ = self.file.write_all(half);
            let _ = self.file.sync_data();
            eprintln!("crash_point: aborting mid-write at journal.torn");
            std::process::abort();
        }
        self.file.write_all(&frame)?;
        self.bytes_written += frame.len() as u64;
        self.bytes_since_sync += frame.len() as u64;
        if self.bytes_since_sync >= SYNC_EVERY_BYTES {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces an fsync of everything appended so far.
    ///
    /// # Errors
    ///
    /// Fails if the underlying `sync_data` fails.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        crash_point("journal.sync");
        self.file.sync_data()?;
        self.bytes_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Total bytes appended (including any pre-existing valid prefix when
    /// resumed).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of fsync epochs completed by this handle.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Deletes leftover `*.spill` files from a crashed run. Spill shards are
/// private to one process's exploration (combos restart from scratch on
/// resume), so stale ones are dead weight; their integrity is irrelevant
/// because nothing will ever read them again.
fn remove_stale_spill_shards(spill_dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(spill_dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "spill") && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Fingerprint of a sweep configuration, folded into the journal header.
/// `scope` lets each harness mix in its own inputs and caps so journals
/// from differently-parameterized runs of the same check never alias.
#[must_use]
pub fn sweep_fingerprint(
    check: &str,
    n: usize,
    total_combos: usize,
    explored: usize,
    quotient: bool,
    scope: u64,
) -> u64 {
    let mut buf = Vec::with_capacity(check.len() + 40);
    buf.extend_from_slice(check.as_bytes());
    put_u64(&mut buf, n as u64);
    put_u64(&mut buf, total_combos as u64);
    put_u64(&mut buf, explored as u64);
    buf.push(u8::from(quotient));
    put_u64(&mut buf, scope);
    fnv1a(&buf)
}

/// Hashes a harness's inputs and caps into a `scope` value for
/// [`sweep_fingerprint`].
#[must_use]
pub fn scope_of(inputs: &[u64], caps: &[u64]) -> u64 {
    let mut buf = Vec::with_capacity((inputs.len() + caps.len() + 2) * 8);
    put_u64(&mut buf, inputs.len() as u64);
    for &v in inputs {
        put_u64(&mut buf, v);
    }
    put_u64(&mut buf, caps.len() as u64);
    for &v in caps {
        put_u64(&mut buf, v);
    }
    fnv1a(&buf)
}

// ---------------------------------------------------------------------------
// Crash-point injection
// ---------------------------------------------------------------------------

struct CrashSpec {
    site: String,
    countdown: AtomicU64,
}

static CRASH: OnceLock<Option<CrashSpec>> = OnceLock::new();

/// Parses a `site@N` crash spec (`site` alone means hit 1). Returns `None`
/// for empty sites or a zero count.
fn parse_crash_spec(spec: &str) -> Option<(String, u64)> {
    let (site, count) = match spec.rsplit_once('@') {
        Some((site, n)) => (site, n.parse::<u64>().ok()?),
        None => (spec, 1),
    };
    let site = site.trim();
    if site.is_empty() || count == 0 {
        return None;
    }
    Some((site.to_string(), count))
}

fn crash_spec() -> Option<&'static CrashSpec> {
    CRASH
        .get_or_init(|| {
            std::env::var(CRASH_ENV)
                .ok()
                .as_deref()
                .and_then(parse_crash_spec)
                .map(|(site, count)| CrashSpec {
                    site,
                    countdown: AtomicU64::new(count),
                })
        })
        .as_ref()
}

/// True exactly once: on the `N`-th hit of the armed site.
fn crash_armed(site: &str) -> bool {
    let Some(spec) = crash_spec() else {
        return false;
    };
    if spec.site != site {
        return false;
    }
    // Saturating countdown: the N-th hit fires, later hits never do (the
    // process normally aborts before any, but tests stub the abort out).
    spec.countdown
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok_and(|prev| prev == 1)
}

/// Fault-injection hook threaded through the explorer, journal, and
/// visited store. A no-op unless [`CRASH_ENV`] arms this `site`, in which
/// case the `N`-th hit aborts the process — simulating a SIGKILL at that
/// exact write boundary so the kill/resume harness can exercise recovery
/// deterministically.
pub fn crash_point(site: &str) {
    if crash_armed(site) {
        eprintln!("crash_point: aborting at {site}");
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// Memory watchdog
// ---------------------------------------------------------------------------

/// Polls the process RSS and, once it reaches the limit, raises the
/// sweep's abort flag, which winds the sweep down to a checkpointed
/// `complete: false` report. It never changes what an exploration keeps
/// resident: only [`crate::CheckConfig::visited_budget`] does that.
#[derive(Debug)]
pub struct MemoryWatchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MemoryWatchdog {
    /// Poll interval for the RSS gauge.
    const POLL: std::time::Duration = std::time::Duration::from_millis(50);

    /// Starts the watchdog thread. `abort` is the sweep's abort flag,
    /// raised when RSS reaches `limit_bytes`; the thread then says so on
    /// stderr and exits. On platforms where the RSS gauge reads 0
    /// (unsupported), the watchdog never trips.
    #[must_use]
    pub fn start(limit_bytes: u64, abort: Arc<AtomicBool>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fa-mc-watchdog".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let rss = fa_obs::read_rss_bytes();
                        if rss > 0 && rss >= limit_bytes {
                            abort.store(true, Ordering::Relaxed);
                            let mib = |bytes: u64| bytes as f64 / f64::from(1u32 << 20);
                            eprintln!(
                                "memory_watchdog: RSS {:.1} MiB reached the {:.1} MiB limit; \
                                 stopping the sweep (a checkpointed sweep resumes with \
                                 --resume; --visited-budget bounds the visited set)",
                                mib(rss),
                                mib(limit_bytes)
                            );
                            break;
                        }
                        std::thread::sleep(Self::POLL);
                    }
                })
                .expect("spawn watchdog thread")
        };
        MemoryWatchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for MemoryWatchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fa-mc-checkpoint-{tag}-{}-{}",
            std::process::id(),
            crate::store::unique_id()
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_outcome(i: usize) -> ComboOutcome {
        ComboOutcome {
            states: 100 + i,
            complete: i % 2 == 0,
            full_states_est: (i % 3 == 0).then(|| 1_000 + i as u64),
            spilled_shards: i % 5,
            violation: (i % 7 == 0).then(|| format!("violation in combo {i}")),
        }
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            check: "snapshot_task_coarse".into(),
            n: 4,
            total_combos: 13_824,
            fingerprint: 0xdead_beef_cafe_f00d,
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        let mut records = vec![JournalRecord::Header(sample_header())];
        for i in 0..15usize {
            records.push(JournalRecord::ComboDone {
                combo: i as u64,
                outcome: sample_outcome(i),
            });
        }
        records
    }

    #[test]
    fn checkpoint_records_round_trip_through_codec() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            let back = decode_record(&payload).expect("decode");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn checkpoint_decode_rejects_trailing_bytes() {
        let mut payload = encode_record(&JournalRecord::ComboDone {
            combo: 7,
            outcome: sample_outcome(7),
        });
        payload.push(0);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn checkpoint_scan_reads_back_everything_written() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&encode_frame(rec));
        }
        let (back, valid_len) = scan_records(&bytes);
        assert_eq!(back, records);
        assert_eq!(valid_len, bytes.len() as u64);
    }

    #[test]
    fn checkpoint_scan_truncates_at_any_cut_point_without_wrong_records() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &records {
            bytes.extend_from_slice(&encode_frame(rec));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (back, valid_len) = scan_records(&bytes[..cut]);
            // The valid prefix always lands on a frame boundary at or
            // before the cut, and yields exactly the records before it.
            let frames = boundaries
                .iter()
                .position(|&b| b == valid_len as usize)
                .expect("valid_len is a frame boundary");
            assert!(valid_len as usize <= cut);
            assert_eq!(back, records[..frames], "cut={cut}");
        }
    }

    #[test]
    fn checkpoint_scan_stops_at_corrupt_byte_never_inventing_records() {
        let records = sample_records();
        let mut clean = Vec::new();
        for rec in &records {
            clean.extend_from_slice(&encode_frame(rec));
        }
        // Flip one byte at a few positions spread through the file; the
        // scan must never return a record that differs from what was
        // written (prefix property).
        for pos in (0..clean.len()).step_by(17) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x5a;
            let (back, valid_len) = scan_records(&bytes);
            assert!(valid_len <= clean.len() as u64);
            assert!(back.len() <= records.len());
            for (got, want) in back.iter().zip(records.iter()) {
                assert_eq!(got, want, "corrupt byte at {pos}");
            }
        }
    }

    #[test]
    fn checkpoint_scan_stops_at_a_retired_record_tag() {
        // Version skew: a checksum-valid frame whose tag this build cannot
        // decode (the retired claim tag 2 or progress tag 4) ends the valid
        // prefix, and the scan returns exactly the records before it.
        let records = sample_records();
        for skewed in retired_frames(3) {
            let tag = skewed[FRAME_HEADER_BYTES];
            assert!(decode_record(&skewed[FRAME_HEADER_BYTES..]).is_err());
            for keep in [1, 7, records.len()] {
                let mut bytes = Vec::new();
                for rec in &records[..keep] {
                    bytes.extend_from_slice(&encode_frame(rec));
                }
                let prefix_len = bytes.len() as u64;
                bytes.extend_from_slice(&skewed);
                for rec in &records[keep..] {
                    bytes.extend_from_slice(&encode_frame(rec));
                }
                let (back, valid_len) = scan_records(&bytes);
                assert_eq!(back, records[..keep], "tag={tag} keep={keep}");
                assert_eq!(valid_len, prefix_len, "tag={tag} keep={keep}");
            }
        }
    }

    #[test]
    fn checkpoint_journal_create_append_resume_round_trip() {
        let dir = temp_dir("roundtrip");
        let header = sample_header();
        let mut journal = SweepJournal::create(&dir, &header).expect("create");
        for i in 0..6u64 {
            journal
                .append(&JournalRecord::ComboDone {
                    combo: i,
                    outcome: sample_outcome(i as usize),
                })
                .expect("done");
        }
        journal.sync().expect("sync");
        drop(journal);

        let (_resumed, recovery) = SweepJournal::open_resume(&dir).expect("resume");
        assert_eq!(recovery.header, header);
        assert_eq!(recovery.completed.len(), 6);
        for i in 0..6usize {
            assert_eq!(recovery.completed[&i], sample_outcome(i));
        }
        assert_eq!(recovery.truncated_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resume_truncates_torn_tail_and_reports_it() {
        let dir = temp_dir("torn");
        let mut journal = SweepJournal::create(&dir, &sample_header()).expect("create");
        journal
            .append(&JournalRecord::ComboDone {
                combo: 0,
                outcome: sample_outcome(0),
            })
            .expect("done");
        journal.sync().expect("sync");
        drop(journal);

        // Tear the file: append half of a frame, as an interrupted write
        // would.
        let done1 = JournalRecord::ComboDone {
            combo: 1,
            outcome: sample_outcome(1),
        };
        let frame = encode_frame(&done1);
        let path = SweepJournal::journal_path(&dir);
        let intact_len = fs::metadata(&path).expect("meta").len();
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(&frame[..frame.len() / 2]).expect("tear");
        drop(file);

        let (mut resumed, recovery) = SweepJournal::open_resume(&dir).expect("resume");
        assert_eq!(recovery.truncated_bytes, (frame.len() / 2) as u64);
        assert_eq!(recovery.completed.len(), 1);
        assert_eq!(fs::metadata(&path).expect("meta").len(), intact_len);

        // The truncated journal accepts appends cleanly afterwards.
        resumed.append(&done1).expect("append after truncate");
        resumed.sync().expect("sync");
        drop(resumed);
        let (_again, recovery2) = SweepJournal::open_resume(&dir).expect("resume again");
        assert_eq!(recovery2.completed[&1], sample_outcome(1));
        assert_eq!(recovery2.truncated_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_journal_syncs_at_header_and_every_64_kib() {
        let dir = temp_dir("epoch");
        let mut journal = SweepJournal::create(&dir, &sample_header()).expect("create");
        assert_eq!(journal.syncs(), 1, "create syncs the header once");
        let rec = JournalRecord::ComboDone {
            combo: 1,
            outcome: sample_outcome(1),
        };
        let frame = encode_frame(&rec).len() as u64;
        let under = (SYNC_EVERY_BYTES - 1) / frame;
        for _ in 0..under {
            journal.append(&rec).expect("append");
        }
        assert_eq!(journal.syncs(), 1, "frames under 64 KiB add no sync");
        journal.append(&rec).expect("append");
        assert_eq!(journal.syncs(), 2, "the frame crossing 64 KiB syncs once");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resume_without_header_fails_loudly() {
        let dir = temp_dir("noheader");
        let path = SweepJournal::journal_path(&dir);
        let done = JournalRecord::ComboDone {
            combo: 0,
            outcome: sample_outcome(0),
        };
        fs::write(&path, encode_frame(&done)).expect("write");
        let err = SweepJournal::open_resume(&dir).expect_err("must fail");
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_resume_removes_stale_spill_shards() {
        let dir = temp_dir("stale");
        let spill = dir.join(SPILL_SUBDIR);
        fs::create_dir_all(&spill).expect("spill dir");
        fs::write(spill.join("fa-mc-visited-1-1.spill"), b"junk").expect("stale shard");
        fs::write(spill.join("keep.txt"), b"not a shard").expect("other file");
        drop(SweepJournal::create(&dir, &sample_header()).expect("create"));
        let (_journal, recovery) = SweepJournal::open_resume(&dir).expect("resume");
        assert_eq!(recovery.stale_spill_files, 1);
        assert!(!spill.join("fa-mc-visited-1-1.spill").exists());
        assert!(spill.join("keep.txt").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_fingerprint_distinguishes_configurations() {
        let base = sweep_fingerprint("snapshot_task", 3, 36, 36, false, 0);
        assert_eq!(
            base,
            sweep_fingerprint("snapshot_task", 3, 36, 36, false, 0)
        );
        assert_ne!(base, sweep_fingerprint("snapshot_task", 3, 36, 36, true, 0));
        assert_ne!(base, sweep_fingerprint("renaming", 3, 36, 36, false, 0));
        assert_ne!(
            base,
            sweep_fingerprint("snapshot_task", 3, 36, 36, false, 1)
        );
        assert_ne!(scope_of(&[1, 2], &[500_000]), scope_of(&[1, 2], &[250_000]));
        assert_ne!(scope_of(&[1, 2], &[500_000]), scope_of(&[2, 1], &[500_000]));
    }

    #[test]
    fn checkpoint_crash_spec_parsing() {
        assert_eq!(
            parse_crash_spec("journal.done@3"),
            Some(("journal.done".into(), 3))
        );
        assert_eq!(
            parse_crash_spec("store.spill"),
            Some(("store.spill".into(), 1))
        );
        assert_eq!(parse_crash_spec("site@0"), None);
        assert_eq!(parse_crash_spec("@2"), None);
        assert_eq!(parse_crash_spec(""), None);
        assert_eq!(parse_crash_spec("site@x"), None);
    }

    #[test]
    fn checkpoint_watchdog_trips_abort_on_tiny_hard_limit() {
        let abort = Arc::new(AtomicBool::new(false));
        let watchdog = MemoryWatchdog::start(1, Arc::clone(&abort));
        // The RSS gauge reads real memory (>= 1 byte) on Linux; give the
        // poll thread a moment. On platforms without an RSS gauge this
        // test degrades to checking the watchdog shuts down cleanly.
        if fa_obs::read_rss_bytes() > 0 {
            for _ in 0..100 {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(abort.load(Ordering::Relaxed), "watchdog never tripped");
        }
        drop(watchdog);
    }

    #[test]
    fn checkpoint_watchdog_stays_quiet_under_huge_limit() {
        let abort = Arc::new(AtomicBool::new(false));
        let watchdog = MemoryWatchdog::start(u64::MAX, Arc::clone(&abort));
        std::thread::sleep(std::time::Duration::from_millis(120));
        assert!(!abort.load(Ordering::Relaxed));
        drop(watchdog);
    }
}
