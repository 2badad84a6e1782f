//! Visited-set storage for the arena BFS: one store, [`TieredVisited`],
//! that keeps its rows resident in one flat vector and, once a
//! configurable memory budget is exceeded or the memory watchdog raises
//! its pressure flag, spills the oldest full row shards to an
//! append-only, checksummed file (DESIGN §13).
//!
//! Ids are assigned in insertion order (`0, 1, 2, ..`) whatever the
//! budget, so the explorer's BFS numbering — and therefore every report it
//! assembles — is identical whether rows stay resident or spill. Rows are
//! found through a `RowIndex`: row hash → newest id, plus a per-id link to
//! the previous id whose row shares that full 64-bit hash, so storing a
//! state allocates nothing beyond amortized vector growth. The index stays
//! in memory (only row payloads spill). A resident row is one subtraction
//! and an offset away; a spilled shard is read back through a single-shard
//! cache, and since BFS pops are nearly sequential in id order, the cache
//! absorbs almost all disk traffic. Spill decisions depend only on the
//! insertion sequence and the pressure flag.
//!
//! Durability is *not* a goal, even in a checkpoint directory — the spill
//! file is a temp file deleted when the store is reset or dropped, only the
//! exploration that wrote it reads it back, and a resumed sweep deletes
//! whatever a crashed run left behind unread. Integrity is: every spilled
//! shard carries a checksum, and any truncated or corrupted read (a shard
//! lost to a failed writeback included) surfaces as a loud [`StoreError`]
//! that the explorer converts into `complete: false` rather than silently
//! mis-deduplicating.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Multiplicative (Fx-style) hasher over small integer words: a rotate,
/// xor and multiply per word — a fraction of SipHash's cost. It hashes the
/// arena's transition-memo keys and visited rows, and keys the row index.
/// Not collision-resistant, which is fine: every key is ids the program
/// assigned, never outside input, and every user compares full keys.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StepHasher(u64);

impl Hasher for StepHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; bucket
        // indices come from the bottom.
        self.0.rotate_left(26)
    }
}

/// `HashMap` hasher state for [`StepHasher`].
pub(crate) type StepBuildHasher = BuildHasherDefault<StepHasher>;

/// Hash of one row: [`StepHasher`] over the row's words, two per multiply.
/// Rows of one store share their width, so no length is mixed in.
pub(crate) fn hash_row(row: &[u32]) -> u64 {
    let mut h = StepHasher::default();
    let mut pairs = row.chunks_exact(2);
    for pair in &mut pairs {
        h.write_u64(u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    if let [last] = pairs.remainder() {
        h.write_u32(*last);
    }
    h.finish()
}

/// No row: the end of a [`RowIndex`] chain.
const NO_ROW: usize = usize::MAX;

/// The row index: row hash → the newest id with that hash, and per id the
/// previous id with the same hash ([`NO_ROW`] ends the chain). Distinct
/// rows almost never share a full 64-bit hash, so a chain is nearly always
/// one id long — and unlike a `Vec` per hash, the index allocates nothing
/// per state.
#[derive(Debug, Default)]
struct RowIndex {
    newest: HashMap<u64, usize, StepBuildHasher>,
    prev: Vec<usize>,
}

impl RowIndex {
    /// Number of ids recorded.
    fn len(&self) -> usize {
        self.prev.len()
    }

    /// Records the next id, `len()`, under `hash`.
    fn push(&mut self, hash: u64) {
        let id = self.prev.len();
        self.prev
            .push(self.newest.insert(hash, id).unwrap_or(NO_ROW));
    }

    /// The newest id stored under `hash`, if any.
    fn newest(&self, hash: u64) -> Option<usize> {
        self.newest.get(&hash).copied()
    }

    /// The next older id stored under `id`'s hash, if any.
    fn older(&self, id: usize) -> Option<usize> {
        Some(self.prev[id]).filter(|&prev| prev != NO_ROW)
    }

    /// Forgets every id, keeping the allocations for reuse.
    fn clear(&mut self) {
        self.newest.clear();
        self.prev.clear();
    }
}

/// FNV-1a over a byte slice — the per-shard spill checksum, shared with
/// the checkpoint journal's frame checksums.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A visited-store failure. [`StoreError::Io`] wraps spill-file I/O errors
/// (including truncation, surfaced as an unexpected-EOF read);
/// [`StoreError::Corrupt`] reports a shard whose checksum no longer matches
/// its payload. The explorer treats both as a hard abort of the affected
/// exploration (`complete: false`), never as "row not seen".
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the spill tier failed.
    Io(std::io::Error),
    /// A spilled shard failed checksum verification on read-back.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "visited spill tier I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "visited spill tier corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Deduplicating storage of fixed-width `u32` rows with dense insertion-order
/// ids: the surface of [`TieredVisited`], kept as a trait while the
/// benchmark replays stores through it under their old names
/// ([`InMemoryVisited`], [`ShardedVisited`]).
pub trait VisitedStore: std::fmt::Debug {
    /// Width of every row, in `u32` words.
    fn row_words(&self) -> usize;

    /// Number of rows stored.
    fn len(&self) -> usize;

    /// Whether the store holds no rows yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of an already-stored row equal to `row`, if any.
    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError>;

    /// Stores `row` (assumed not present — call [`VisitedStore::lookup`]
    /// first) and returns its id, always `len()` before the call.
    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError>;

    /// Copies row `id` into `out` (length `row_words()`).
    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError>;

    /// Number of shards spilled to the disk tier so far (0 while every row
    /// is resident).
    fn spilled_shards(&self) -> usize;

    /// Estimated resident bytes: row payload held in memory plus per-state
    /// bookkeeping, using the same per-state constant the explorer's
    /// `mc.visited_bytes_est` gauge always used.
    fn approx_bytes(&self) -> usize;
}

/// Estimated per-state bookkeeping bytes (parents, depths, hash-index
/// entries) — the constant the explorer's byte gauge has always used.
const STATE_OVERHEAD_BYTES: usize = 72;

/// Distinguishes concurrent explorations' spill files within one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-unique counter draw — spill file names, plus unique temp-dir
/// names in tests across the crate.
pub(crate) fn unique_id() -> u64 {
    SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// The disk half of the tiered store: the spill file, one byte offset per
/// spilled shard, and the single-shard read-back cache. Dropping the tier
/// (a store reset does) deletes the file.
#[derive(Debug, Default)]
struct DiskTier {
    file: Option<File>,
    path: Option<PathBuf>,
    file_len: u64,
    /// Where each spilled shard starts (its checksum first), in id order.
    offsets: Vec<u64>,
    /// Single-shard read-back cache: `(shard index, decoded rows)`.
    cache: Option<(usize, Vec<u32>)>,
}

impl DiskTier {
    /// Spilled row `id` (shards of `shard_rows` rows of `w` words), read
    /// back through the cache — checksum verified.
    fn row(&mut self, shard_rows: usize, w: usize, id: usize) -> Result<&[u32], StoreError> {
        let (s, r) = (id / shard_rows, id % shard_rows);
        let rows = self.load_shard(s, shard_rows * w * 4)?;
        Ok(&rows[r * w..(r + 1) * w])
    }

    /// The rows of shard `s` (`payload_bytes` long on disk), loaded into
    /// the cache unless already there.
    fn load_shard(&mut self, s: usize, payload_bytes: usize) -> Result<&[u32], StoreError> {
        if !self.cache.as_ref().is_some_and(|(c, _)| *c == s) {
            let offset = self.offsets[s];
            let file = self.file.as_mut().ok_or_else(|| {
                StoreError::Corrupt(format!("shard {s} marked spilled but no spill file exists"))
            })?;
            let mut header = [0u8; 8];
            let mut payload = vec![0u8; payload_bytes];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut header)?;
            file.read_exact(&mut payload)?;
            let expect = u64::from_le_bytes(header);
            let got = fnv1a(&payload);
            if got != expect {
                return Err(StoreError::Corrupt(format!(
                    "shard {s} at offset {offset}: checksum {got:#018x} != recorded {expect:#018x}"
                )));
            }
            let rows: Vec<u32> = payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            self.cache = Some((s, rows));
        }
        Ok(&self.cache.as_ref().expect("the cache holds shard s").1)
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        self.file = None;
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The visited store. Rows `base..len()` are resident in one flat vector,
/// starting `head` words in; while resident rows exceed the budget (0
/// while the pressure flag is raised), the oldest *full* shard spills —
/// append-only, checksummed — to a temp file and `head` steps past it, so
/// a spill costs O(shard). Once the spilled prefix outweighs a quarter of
/// the resident rows the vector drops it (one move of the resident rows,
/// amortized O(1) per spilled word), and a vector left far larger than its
/// rows gives its memory back. The still-filling tail and the row index
/// never spill, so a lookup is one hash probe plus a resident compare or
/// (rarely) one cached shard read. Without a budget nothing spills unless
/// the pressure flag is raised.
#[derive(Debug)]
pub struct TieredVisited {
    index: RowIndex,
    w: usize,
    /// Rows per shard — fixed per configuration so disk offsets are
    /// computable.
    shard_rows: usize,
    /// Resident row budget derived from the byte budget.
    budget_rows: usize,
    /// Spilled rows not yet dropped (`head` words), then the resident
    /// rows, ids `base..len()`, `w` words each.
    rows: Vec<u32>,
    /// Where resident row `base` starts in `rows`.
    head: usize,
    /// The first resident id: `spilled_shards() * shard_rows`.
    base: usize,
    disk: DiskTier,
    /// Test hook: corrupt the next spilled shard's payload on disk.
    corrupt_next_spill: bool,
    /// Spill into this directory (checkpointed sweeps) instead of the
    /// system temp dir; a loud error if it vanishes mid-run.
    spill_dir: Option<PathBuf>,
    /// Memory-pressure flag from the watchdog: while raised, every sealed
    /// shard spills immediately regardless of budget.
    pressure: Option<Arc<AtomicBool>>,
}

/// The store the intra-combo strategy used, now the tiered store itself.
/// Kept only until the benchmark retires its e3-n3-intra2 workload.
pub type ShardedVisited = TieredVisited;

impl TieredVisited {
    /// Creates a store for rows of `row_words` words that keeps at most
    /// roughly `budget_bytes` of row payload resident; `None` spills only
    /// under memory pressure. Tiny budgets are honored by spilling every
    /// shard as soon as it fills.
    #[must_use]
    pub fn new(row_words: usize, budget_bytes: impl Into<Option<usize>>) -> Self {
        let budget_bytes = budget_bytes.into().unwrap_or(usize::MAX);
        let row_bytes = row_words.max(1) * 4;
        // Aim for at least a handful of shards within budget, bounded so
        // spill granularity stays sane for both tiny and huge budgets.
        let shard_rows = (budget_bytes / row_bytes / 4).clamp(16, 4096);
        TieredVisited {
            index: RowIndex::default(),
            w: row_words,
            shard_rows,
            budget_rows: (budget_bytes / row_bytes).max(shard_rows),
            rows: Vec::new(),
            head: 0,
            base: 0,
            disk: DiskTier::default(),
            corrupt_next_spill: false,
            spill_dir: None,
            pressure: None,
        }
    }

    /// Empties the store and reconfigures it as [`TieredVisited::new`]
    /// would: ids restart at 0, the spill file is deleted, and the spill
    /// directory, pressure flag and test hook are dropped. The row vector
    /// and the index keep their allocations, so one store can serve a
    /// worker's successive explorations.
    pub(crate) fn reset(&mut self, row_words: usize, budget_bytes: Option<usize>) {
        let mut index = std::mem::take(&mut self.index);
        let mut rows = std::mem::take(&mut self.rows);
        index.clear();
        rows.clear();
        *self = TieredVisited {
            index,
            rows,
            ..TieredVisited::new(row_words, budget_bytes)
        };
    }

    /// Places spill shards in `dir` (a checkpoint directory) instead of
    /// the system temp dir. Only the location changes — shards are never
    /// fsync'd, since nothing reads them after a crash — except that a
    /// vanished directory surfaces as a loud [`StoreError`] instead of
    /// silent dedup loss.
    pub fn set_spill_dir(&mut self, dir: PathBuf) {
        self.spill_dir = Some(dir);
    }

    /// Attaches a memory-pressure flag (from the watchdog): while raised,
    /// every sealed shard spills immediately regardless of budget.
    pub fn set_pressure(&mut self, flag: Arc<AtomicBool>) {
        self.pressure = Some(flag);
    }

    /// Path of the spill file, once anything has spilled.
    #[must_use]
    pub fn spill_path(&self) -> Option<&Path> {
        self.disk.path.as_deref()
    }

    /// Rows per spill shard (fixed at construction).
    #[must_use]
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Test hook: flips one payload byte of the next shard written to disk,
    /// so read-back must fail the checksum. Hidden — only the corruption
    /// tests use it.
    #[doc(hidden)]
    pub fn corrupt_next_spill_for_tests(&mut self) {
        self.corrupt_next_spill = true;
    }

    /// [`VisitedStore::lookup`] with the row's [`hash_row`] supplied, so
    /// the explorer hashes each successor once.
    pub(crate) fn lookup_hashed(
        &mut self,
        row: &[u32],
        hash: u64,
    ) -> Result<Option<usize>, StoreError> {
        let mut candidate = self.index.newest(hash);
        while let Some(id) = candidate {
            if self.row(id)? == row {
                return Ok(Some(id));
            }
            candidate = self.index.older(id);
        }
        Ok(None)
    }

    /// [`VisitedStore::insert`] with the row's [`hash_row`] supplied.
    pub(crate) fn insert_hashed(&mut self, row: &[u32], hash: u64) -> Result<usize, StoreError> {
        let id = self.index.len();
        self.index.push(hash);
        self.rows.extend_from_slice(row);
        self.maybe_spill()?;
        Ok(id)
    }

    /// Row `id`: a resident row is one subtraction and an offset away; a
    /// spilled one is read back through the disk tier.
    fn row(&mut self, id: usize) -> Result<&[u32], StoreError> {
        let w = self.w;
        match id.checked_sub(self.base) {
            Some(r) => {
                let start = self.head + r * w;
                Ok(&self.rows[start..start + w])
            }
            None => self.disk.row(self.shard_rows, w, id),
        }
    }

    fn resident_rows(&self) -> usize {
        self.index.len() - self.base
    }

    /// Errors loudly when the configured spill directory has vanished
    /// mid-run (e.g. the checkpoint dir was deleted).
    fn check_spill_dir(&self) -> Result<(), StoreError> {
        if let Some(dir) = &self.spill_dir {
            if !dir.is_dir() {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("spill directory {} vanished mid-run", dir.display()),
                )));
            }
        }
        Ok(())
    }

    fn ensure_file(&mut self) -> Result<(), StoreError> {
        if self.disk.file.is_some() {
            return Ok(());
        }
        self.check_spill_dir()?;
        let dir = self.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!(
            "fa-mc-visited-{}-{}.spill",
            std::process::id(),
            unique_id(),
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        self.disk.file = Some(file);
        self.disk.path = Some(path);
        Ok(())
    }

    /// Writes the oldest resident shard, which must be full, to the spill
    /// file and steps `head` past it.
    fn spill_oldest(&mut self) -> Result<(), StoreError> {
        crate::checkpoint::crash_point("store.spill");
        self.ensure_file()?;
        self.check_spill_dir()?;
        let words = self.shard_rows * self.w;
        let mut payload: Vec<u8> = Vec::with_capacity(words * 4);
        for v in &self.rows[self.head..self.head + words] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = fnv1a(&payload);
        if self.corrupt_next_spill {
            self.corrupt_next_spill = false;
            payload[0] ^= 0xFF;
        }
        let offset = self.disk.file_len;
        let file = self.disk.file.as_mut().expect("ensure_file ran");
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&checksum.to_le_bytes())?;
        file.write_all(&payload)?;
        self.disk.file_len = offset + 8 + payload.len() as u64;
        self.disk.offsets.push(offset);
        self.head += words;
        self.base += self.shard_rows;
        Ok(())
    }

    /// Drops the spilled prefix of `rows` once it outweighs a quarter of
    /// the resident rows, and shrinks a vector left more than four times
    /// larger than its rows (or one shard) to twice that. A budgeted store
    /// thus holds at most about 1.25× its resident rows, and a store that
    /// pressure just emptied hands its memory back.
    fn compact(&mut self) {
        if self.head == 0 || self.head * 4 < self.rows.len() - self.head {
            return;
        }
        self.rows.drain(..self.head);
        self.head = 0;
        let floor = self.rows.len().max(self.shard_rows * self.w);
        if self.rows.capacity() > 4 * floor {
            self.rows.shrink_to(2 * floor);
        }
    }

    fn maybe_spill(&mut self) -> Result<(), StoreError> {
        let under_pressure = self
            .pressure
            .as_ref()
            .is_some_and(|p| p.load(Ordering::Relaxed));
        let budget_rows = if under_pressure { 0 } else { self.budget_rows };
        // Only full shards spill: the still-filling tail stays resident.
        while self.resident_rows() > budget_rows && self.resident_rows() >= self.shard_rows {
            self.spill_oldest()?;
        }
        self.compact();
        Ok(())
    }
}

impl VisitedStore for TieredVisited {
    fn row_words(&self) -> usize {
        self.w
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        self.lookup_hashed(row, hash_row(row))
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        self.insert_hashed(row, hash_row(row))
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        out.copy_from_slice(self.row(id)?);
        Ok(())
    }

    fn spilled_shards(&self) -> usize {
        self.disk.offsets.len()
    }

    fn approx_bytes(&self) -> usize {
        self.rows.len() * 4 + self.index.len() * STATE_OVERHEAD_BYTES
    }
}

/// The budget-less store under its old name. Kept only until the
/// benchmark stops naming it.
#[doc(hidden)]
#[derive(Debug)]
pub struct InMemoryVisited(TieredVisited);

impl InMemoryVisited {
    /// `TieredVisited::new(row_words, None)`.
    #[must_use]
    pub fn new(row_words: usize) -> Self {
        InMemoryVisited(TieredVisited::new(row_words, None))
    }
}

impl VisitedStore for InMemoryVisited {
    fn row_words(&self) -> usize {
        self.0.row_words()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        self.0.lookup(row)
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        self.0.insert(row)
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        self.0.read_row(id, out)
    }

    fn spilled_shards(&self) -> usize {
        self.0.spilled_shards()
    }

    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic distinct rows: no two `i` produce equal rows.
    fn row(i: u32, w: usize) -> Vec<u32> {
        (0..w as u32)
            .map(|j| i.wrapping_mul(2_654_435_761).wrapping_add(j) ^ (i << 8))
            .collect()
    }

    #[test]
    fn store_inmemory_assigns_dense_ids_and_finds_rows() {
        let w = 5;
        let mut s = TieredVisited::new(w, None);
        for i in 0..50u32 {
            let r = row(i, w);
            assert_eq!(s.lookup(&r).unwrap(), None);
            assert_eq!(s.insert(&r).unwrap(), i as usize);
        }
        assert_eq!(s.len(), 50);
        let mut out = vec![0u32; w];
        for i in 0..50u32 {
            let r = row(i, w);
            assert_eq!(s.lookup(&r).unwrap(), Some(i as usize));
            s.read_row(i as usize, &mut out).unwrap();
            assert_eq!(out, r);
        }
        assert_eq!(s.spilled_shards(), 0);
    }

    #[test]
    fn store_tiered_spills_everything_under_a_zero_budget() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let total = 10 * t.shard_rows() + 3;
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), None);
            assert_eq!(t.insert(&r).unwrap(), i);
        }
        assert_eq!(t.len(), total);
        assert_eq!(
            t.spilled_shards(),
            10,
            "every full shard spills at budget 0"
        );
        assert!(t.spill_path().is_some());
        // Every row — resident or spilled — looks up and reads back.
        let mut out = vec![0u32; w];
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), Some(i));
            t.read_row(i, &mut out).unwrap();
            assert_eq!(out, r);
        }
        assert_eq!(t.lookup(&row(total as u32 + 7, w)).unwrap(), None);
        let path = t.spill_path().unwrap().to_path_buf();
        drop(t);
        assert!(!path.exists(), "spill file is removed on drop");
    }

    #[test]
    fn store_tiered_generous_budget_never_spills() {
        let w = 4;
        let mut t = TieredVisited::new(w, 1 << 20);
        for i in 0..1000u32 {
            t.insert(&row(i, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 0);
        assert!(t.spill_path().is_none());
    }

    #[test]
    fn store_tiered_truncated_spill_fails_loudly() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        // Truncate the spill file behind the store's back; reading any
        // spilled row must now error, not dedup-miss.
        let path = t.spill_path().unwrap();
        OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(4)
            .unwrap();
        let mut out = vec![0u32; w];
        let err = t.read_row(0, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    }

    #[test]
    fn store_tiered_corrupted_spill_fails_checksum() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        t.corrupt_next_spill_for_tests();
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        let mut out = vec![0u32; w];
        let err = t.read_row(0, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        let msg = err.to_string();
        assert!(msg.contains("checksum"), "got {msg}");
    }

    #[test]
    fn store_tiered_lookup_through_corrupt_tier_errors() {
        let w = 4;
        let mut t = TieredVisited::new(w, 0);
        t.corrupt_next_spill_for_tests();
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        // Row 0 lives in the corrupted first shard: a lookup that must
        // compare against it errors instead of reporting "unseen".
        assert!(t.lookup(&row(0, w)).is_err());
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fa-mc-store-{tag}-{}-{}",
            std::process::id(),
            unique_id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_tiered_routes_spills_into_configured_dir() {
        let w = 4;
        let dir = scratch_dir("route");
        let mut t = TieredVisited::new(w, 0);
        t.set_spill_dir(dir.clone());
        let total = 3 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 2);
        let path = t.spill_path().unwrap().to_path_buf();
        assert_eq!(path.parent(), Some(dir.as_path()));
        // Spilled rows still read back correctly from the routed file.
        let mut out = vec![0u32; w];
        t.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w));
        drop(t);
        assert!(!path.exists(), "spill file removed on drop");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_tiered_vanished_spill_dir_fails_loudly() {
        let w = 4;
        let dir = scratch_dir("vanish");
        let mut t = TieredVisited::new(w, 0);
        t.set_spill_dir(dir.clone());
        let total = 2 * t.shard_rows();
        for i in 0..total {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert!(t.spilled_shards() >= 1);
        // Delete the directory (and the spill file in it) behind the
        // store's back: the next spill must error, never lose rows
        // silently.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut err = None;
        for i in total..total + 2 * t.shard_rows() {
            if let Err(e) = t.insert(&row(i as u32, w)) {
                err = Some(e);
                break;
            }
        }
        let err = err.expect("spilling into a vanished dir must fail");
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("vanished"), "got {err}");
    }

    #[test]
    fn store_tiered_pressure_flag_force_spills_sealed_shards() {
        let w = 4;
        // Generous budget: nothing would spill on its own.
        let mut t = TieredVisited::new(w, 1 << 20);
        let pressure = Arc::new(AtomicBool::new(false));
        t.set_pressure(Arc::clone(&pressure));
        let per_shard = t.shard_rows();
        for i in 0..2 * per_shard {
            t.insert(&row(i as u32, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 0);
        pressure.store(true, Ordering::Relaxed);
        // The next insert sees the flag and evicts every sealed shard
        // (the still-filling tail stays resident by design).
        t.insert(&row(2 * per_shard as u32, w)).unwrap();
        assert_eq!(t.spilled_shards(), 2);
        // Spilled rows still read back.
        let mut out = vec![0u32; w];
        t.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w));
    }

    #[test]
    fn store_pressure_spill_frees_the_resident_rows() {
        let w = 4;
        let mut t = TieredVisited::new(w, None);
        let pressure = Arc::new(AtomicBool::new(false));
        t.set_pressure(Arc::clone(&pressure));
        let shard_words = t.shard_rows() * w;
        let total = 8 * t.shard_rows() as u32;
        for i in 0..total {
            t.insert(&row(i, w)).unwrap();
        }
        let (bytes_before, capacity_before) = (t.approx_bytes(), t.rows.capacity());
        assert!(capacity_before >= 8 * shard_words);
        pressure.store(true, Ordering::Relaxed);
        t.insert(&row(total, w)).unwrap();
        assert_eq!(t.spilled_shards(), 8);
        // The spilled rows left memory: only the one-row tail is held, in
        // a vector shrunk to two shards.
        assert_eq!(t.rows.len(), w);
        assert!(t.rows.capacity() <= 2 * shard_words);
        assert_eq!(
            bytes_before - t.approx_bytes(),
            (8 * shard_words - w) * 4 - STATE_OVERHEAD_BYTES
        );
        // Continued pressure spills each shard as it fills, with no
        // further reallocation.
        let capacity = t.rows.capacity();
        for i in total + 1..total + 3 * t.shard_rows() as u32 {
            t.insert(&row(i, w)).unwrap();
        }
        assert_eq!(t.spilled_shards(), 11);
        assert_eq!(t.rows.capacity(), capacity);
        let mut out = vec![0u32; w];
        for i in (0..total + 3 * t.shard_rows() as u32).step_by(97) {
            t.read_row(i as usize, &mut out).unwrap();
            assert_eq!(out, row(i, w), "row {i}");
            assert_eq!(t.lookup(&row(i, w)).unwrap(), Some(i as usize));
        }
    }

    #[test]
    fn store_budgeted_spills_keep_the_row_vector_bounded() {
        let w = 4;
        // A budget of eight full-size shards.
        let mut t = TieredVisited::new(w, 8 * 4096 * w * 4);
        assert_eq!(t.shard_rows(), 4096);
        let budget_words = t.budget_rows * w;
        let total = 6 * t.budget_rows as u32;
        for i in 0..total {
            t.insert(&row(i, w)).unwrap();
            // Spilled rows linger at most a quarter of the resident rows.
            assert!(t.rows.len() <= budget_words + budget_words / 4, "row {i}");
        }
        assert_eq!(t.spilled_shards(), 40);
        assert!(t.rows.capacity() <= 4 * budget_words);
        let mut out = vec![0u32; w];
        for i in (0..total).step_by(89) {
            t.read_row(i as usize, &mut out).unwrap();
            assert_eq!(out, row(i, w), "row {i}");
            assert_eq!(t.lookup(&row(i, w)).unwrap(), Some(i as usize));
        }
    }

    /// A visited set that shares no store code: rows by value, ids in
    /// insertion order.
    #[derive(Default)]
    struct MapReference {
        ids: HashMap<Vec<u32>, usize>,
        rows: Vec<Vec<u32>>,
    }

    impl MapReference {
        fn lookup(&self, row: &[u32]) -> Option<usize> {
            self.ids.get(row).copied()
        }

        fn insert(&mut self, row: &[u32]) -> usize {
            let id = self.rows.len();
            self.ids.insert(row.to_vec(), id);
            self.rows.push(row.to_vec());
            id
        }
    }

    /// A deterministic pseudo-random op stream (the no-new-deps stand-in
    /// for a proptest): under any interleaving of inserts and lookups of
    /// colliding candidates, the store — all resident, or spilling every
    /// full shard — accepts and rejects exactly the rows a map reference
    /// does, with identical ids and rows.
    #[test]
    fn store_matches_a_map_reference_under_random_interleavings() {
        for budget in [None, Some(0)] {
            for (seed, w) in [(1u64, 3usize), (7, 5), (42, 8)] {
                let mut rng = seed;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut store = TieredVisited::new(w, budget);
                let mut reference = MapReference::default();
                let mut out = vec![0u32; w];
                for _ in 0..600 {
                    // Small candidate pool so lookups hit both present and
                    // absent rows, and inserts see plenty of duplicates.
                    let candidate = row((next() % 97) as u32, w);
                    match next() % 3 {
                        0 => {
                            let got = store.lookup(&candidate).unwrap();
                            assert_eq!(got, reference.lookup(&candidate), "seed {seed} w {w}");
                        }
                        1 => {
                            // Insert only if absent, mirroring the explorer's
                            // lookup-then-insert discipline.
                            if reference.lookup(&candidate).is_none() {
                                assert_eq!(store.lookup(&candidate).unwrap(), None);
                                let got = store.insert(&candidate).unwrap();
                                assert_eq!(got, reference.insert(&candidate), "seed {seed} w {w}");
                            }
                        }
                        _ => {
                            if !reference.rows.is_empty() {
                                let id = (next() % reference.rows.len() as u64) as usize;
                                store.read_row(id, &mut out).unwrap();
                                assert_eq!(out, reference.rows[id], "seed {seed} w {w}");
                            }
                        }
                    }
                }
                assert_eq!(store.len(), reference.rows.len());
                assert_eq!(
                    store.spilled_shards() > 0,
                    budget.is_some(),
                    "seed {seed} w {w}: only the zero budget spills"
                );
            }
        }
    }

    /// Inserts `count` distinct rows all under one forced hash, then checks
    /// that every one is found under it, that an absent row under the same
    /// hash is not, and that no row is found under another hash.
    fn assert_one_hash_chain(store: &mut TieredVisited, count: usize) {
        const FORCED: u64 = 42;
        let w = store.row_words();
        for i in 0..count {
            let r = row(i as u32, w);
            assert_eq!(store.lookup_hashed(&r, FORCED).unwrap(), None, "row {i}");
            assert_eq!(store.insert_hashed(&r, FORCED).unwrap(), i);
        }
        let mut out = vec![0u32; w];
        for i in 0..count {
            let r = row(i as u32, w);
            assert_eq!(store.lookup_hashed(&r, FORCED).unwrap(), Some(i), "row {i}");
            assert_eq!(
                store.lookup_hashed(&r, FORCED + 1).unwrap(),
                None,
                "row {i}"
            );
            store.read_row(i, &mut out).unwrap();
            assert_eq!(out, r);
        }
        let absent = row(count as u32 + 1, w);
        assert_eq!(store.lookup_hashed(&absent, FORCED).unwrap(), None);
    }

    #[test]
    fn store_inmemory_resolves_rows_sharing_one_full_hash() {
        assert_one_hash_chain(&mut TieredVisited::new(5, None), 40);
    }

    #[test]
    fn store_tiered_resolves_spilled_rows_sharing_one_full_hash() {
        let mut t = TieredVisited::new(4, 0);
        let count = 3 * t.shard_rows() + 5;
        assert_one_hash_chain(&mut t, count);
        // The chain's older members live in spilled shards: resolving them
        // read the disk tier back.
        assert_eq!(t.spilled_shards(), 3);
    }

    #[test]
    fn store_cleared_inmemory_restarts_ids_and_forgets_every_row() {
        let w = 3;
        let mut s = TieredVisited::new(w, None);
        // Rows under their own hashes and under the forced one, so stale
        // chain links would show after the reset.
        for i in 0..30u32 {
            s.insert(&row(i, w)).unwrap();
        }
        for i in 100..120u32 {
            s.insert_hashed(&row(i, w), 42).unwrap();
        }
        s.reset(w, None);
        assert!(s.is_empty());
        assert_eq!(s.approx_bytes(), 0);
        for i in (0..30u32).chain(100..120) {
            assert_eq!(s.lookup(&row(i, w)).unwrap(), None, "row {i}");
            assert_eq!(s.lookup_hashed(&row(i, w), 42).unwrap(), None, "row {i}");
        }
        // Ids restart at 0: the reset store behaves as a fresh one.
        assert_one_hash_chain(&mut s, 10);
    }

    #[test]
    fn store_reset_deletes_the_spill_file_and_reconfigures() {
        let w = 4;
        let mut s = TieredVisited::new(w, 0);
        s.set_pressure(Arc::new(AtomicBool::new(true)));
        s.corrupt_next_spill_for_tests();
        for i in 0..3 * s.shard_rows() {
            s.insert(&row(i as u32, w)).unwrap();
        }
        assert_eq!(s.spilled_shards(), 3);
        let path = s.spill_path().unwrap().to_path_buf();
        assert!(path.exists());
        // A wider row and no budget: the reset store is a fresh
        // `TieredVisited::new(w + 1, None)` — no spill file, no pressure
        // flag, no pending corruption.
        s.reset(w + 1, None);
        assert!(!path.exists(), "reset deletes the spill file");
        assert!(s.spill_path().is_none());
        assert_eq!((s.row_words(), s.len(), s.spilled_shards()), (w + 1, 0, 0));
        assert_eq!(s.shard_rows(), TieredVisited::new(w + 1, None).shard_rows());
        for i in 0..2 * s.shard_rows() {
            assert_eq!(s.insert(&row(i as u32, w + 1)).unwrap(), i);
        }
        assert_eq!(s.spilled_shards(), 0);
        let mut out = vec![0u32; w + 1];
        s.read_row(0, &mut out).unwrap();
        assert_eq!(out, row(0, w + 1));
    }
}
