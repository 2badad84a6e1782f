//! Visited-set storage for the arena BFS: a [`VisitedStore`] trait with a
//! hot in-memory table ([`InMemoryVisited`], the flat fast path for runs
//! without a budget) and a tiered implementation ([`TieredVisited`]) that
//! spills cold row shards to an append-only file-backed tier once a
//! configurable memory budget is exceeded (DESIGN §13).
//!
//! Both stores assign state ids in insertion order (`0, 1, 2, ..`), so the
//! explorer's BFS numbering — and therefore every report it assembles — is
//! identical whichever store backs it. The tiered store keeps its hash
//! index in memory permanently (only row payloads spill) and reads spilled
//! shards back through a single-shard cache; BFS pops are nearly sequential
//! in id order, so the cache absorbs almost all disk traffic. Spill
//! decisions depend only on the insertion sequence.
//!
//! Durability is *not* a goal — the spill file is a temp file deleted on
//! drop. Integrity is: every spilled shard carries a checksum, and any
//! truncated or corrupted read surfaces as a loud [`StoreError`] that the
//! explorer converts into `complete: false` rather than silently
//! mis-deduplicating.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Hash of one row, matching the explorer's historical row hashing exactly
/// (so in-memory runs before and after this module report identically).
pub(crate) fn hash_row(row: &[u32]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
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
/// ids. The BFS uses exactly this surface; swapping implementations must
/// never change which ids exist or what they decode to.
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

    /// Number of shards spilled to the disk tier so far (0 for in-memory
    /// stores).
    fn spilled_shards(&self) -> usize;

    /// Estimated resident bytes: row payload held in memory plus per-state
    /// bookkeeping, using the same per-state constant the explorer's
    /// `mc.visited_bytes_est` gauge always used.
    fn approx_bytes(&self) -> usize;
}

/// [`VisitedStore::lookup`] and [`VisitedStore::insert`] with the row's
/// [`hash_row`] supplied, so the explorer hashes each successor once.
pub(crate) trait HashedStore: VisitedStore {
    fn lookup_hashed(&mut self, row: &[u32], hash: u64) -> Result<Option<usize>, StoreError>;
    fn insert_hashed(&mut self, row: &[u32], hash: u64) -> Result<usize, StoreError>;
}

/// Estimated per-state bookkeeping bytes (parents, depths, hash-index
/// entries) — the constant the explorer's byte gauge has always used.
const STATE_OVERHEAD_BYTES: usize = 72;

/// The hot all-in-memory store: a flat row arena plus a hash index, the
/// verbatim extraction of the explorer's original inline visited set.
#[derive(Debug)]
pub struct InMemoryVisited {
    w: usize,
    rows: Vec<u32>,
    index: HashMap<u64, Vec<usize>>,
}

impl InMemoryVisited {
    /// Creates an empty store for rows of `row_words` words.
    #[must_use]
    pub fn new(row_words: usize) -> Self {
        InMemoryVisited {
            w: row_words,
            rows: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl HashedStore for InMemoryVisited {
    fn lookup_hashed(&mut self, row: &[u32], hash: u64) -> Result<Option<usize>, StoreError> {
        let Some(ids) = self.index.get(&hash) else {
            return Ok(None);
        };
        Ok(ids
            .iter()
            .copied()
            .find(|&i| self.rows[i * self.w..(i + 1) * self.w] == *row))
    }

    fn insert_hashed(&mut self, row: &[u32], hash: u64) -> Result<usize, StoreError> {
        let id = self.len();
        self.index.entry(hash).or_default().push(id);
        self.rows.extend_from_slice(row);
        Ok(id)
    }
}

impl VisitedStore for InMemoryVisited {
    fn row_words(&self) -> usize {
        self.w
    }

    fn len(&self) -> usize {
        self.rows.len() / self.w.max(1)
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        self.lookup_hashed(row, hash_row(row))
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        self.insert_hashed(row, hash_row(row))
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        out.copy_from_slice(&self.rows[id * self.w..(id + 1) * self.w]);
        Ok(())
    }

    fn spilled_shards(&self) -> usize {
        0
    }

    fn approx_bytes(&self) -> usize {
        self.rows.len() * 4 + self.len() * STATE_OVERHEAD_BYTES
    }
}

/// Distinguishes concurrent explorations' spill files within one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Process-unique counter draw — spill file names, plus unique temp-dir
/// names in tests across the crate.
pub(crate) fn unique_id() -> u64 {
    SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// One fixed-capacity run of consecutive rows. Shards are resident until
/// full and cold, then move to the disk tier wholesale.
#[derive(Debug)]
enum Shard {
    /// Rows held in memory (the tail shard, or full shards not yet spilled).
    Ram(Vec<u32>),
    /// Rows spilled to the file at this byte offset (checksum included).
    Disk { offset: u64 },
}

/// The disk half of the tiered store: the spill file handle, its length,
/// and the single-shard read-back cache.
#[derive(Debug, Default)]
struct DiskTier {
    file: Option<File>,
    file_len: u64,
    /// Single-shard read-back cache: `(shard index, decoded rows)`.
    cache: Option<(usize, Vec<u32>)>,
}

impl DiskTier {
    /// Row `id` of `shards` (each `shard_rows` rows of `w` words), read
    /// back through the cache — checksum verified — when its shard has
    /// spilled.
    fn row<'a>(
        &'a mut self,
        shards: &'a [Shard],
        shard_rows: usize,
        w: usize,
        id: usize,
    ) -> Result<&'a [u32], StoreError> {
        let (s, r) = (id / shard_rows, id % shard_rows);
        let rows: &[u32] = match &shards[s] {
            Shard::Ram(rows) => rows,
            Shard::Disk { offset } => self.load_shard(s, *offset, shard_rows * w * 4)?,
        };
        Ok(&rows[r * w..(r + 1) * w])
    }

    /// The rows of shard `s` (on disk at `offset`, `payload_bytes` long),
    /// loaded into the cache unless already there.
    fn load_shard(
        &mut self,
        s: usize,
        offset: u64,
        payload_bytes: usize,
    ) -> Result<&[u32], StoreError> {
        if !self.cache.as_ref().is_some_and(|(c, _)| *c == s) {
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

/// The tiered store: resident shards up to a byte budget, then the oldest
/// *full* shards spill — append-only, checksummed — to a temp file. The
/// tail shard (still filling) and the hash index never spill, so lookups
/// stay one hash probe plus (rarely) one cached shard read. Spill
/// decisions depend only on the insertion sequence. Without a budget
/// nothing ever spills.
#[derive(Debug)]
pub struct TieredVisited {
    index: HashMap<u64, Vec<usize>>,
    w: usize,
    /// Rows per shard — fixed at construction so disk offsets are computable.
    shard_rows: usize,
    /// Resident row budget derived from the byte budget.
    budget_rows: usize,
    shards: Vec<Shard>,
    len: usize,
    disk: DiskTier,
    path: Option<PathBuf>,
    /// Lowest shard index still resident — shards spill strictly in order.
    next_to_spill: usize,
    spilled: usize,
    /// Test hook: corrupt the next spilled shard's payload on disk.
    corrupt_next_spill: bool,
    /// Spill into this directory (checkpointed sweeps) instead of the
    /// system temp dir. Implies durable mode: fsync on every shard seal
    /// and a loud error if the directory vanishes mid-run.
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
    /// roughly `budget_bytes` of row payload resident; `None` never spills.
    /// Tiny budgets are honored by spilling every shard as soon as it
    /// fills.
    #[must_use]
    pub fn new(row_words: usize, budget_bytes: impl Into<Option<usize>>) -> Self {
        let budget_bytes = budget_bytes.into().unwrap_or(usize::MAX);
        let row_bytes = row_words.max(1) * 4;
        // Aim for at least a handful of shards within budget, bounded so
        // spill granularity stays sane for both tiny and huge budgets.
        let shard_rows = (budget_bytes / row_bytes / 4).clamp(16, 4096);
        TieredVisited {
            index: HashMap::new(),
            w: row_words,
            shard_rows,
            budget_rows: (budget_bytes / row_bytes).max(shard_rows),
            shards: Vec::new(),
            len: 0,
            disk: DiskTier::default(),
            path: None,
            next_to_spill: 0,
            spilled: 0,
            corrupt_next_spill: false,
            spill_dir: None,
            pressure: None,
        }
    }

    /// Routes spill shards into `dir` (a checkpoint directory) instead of
    /// the system temp dir, and makes the spill tier durable: every sealed
    /// shard is fsync'd, and a vanished directory surfaces as a loud
    /// [`StoreError`] instead of silent dedup loss.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Attaches a memory-pressure flag (from the watchdog): while raised,
    /// every sealed shard spills immediately regardless of budget.
    pub fn set_pressure(&mut self, flag: Arc<AtomicBool>) {
        self.pressure = Some(flag);
    }

    /// Path of the spill file, once anything has spilled.
    #[must_use]
    pub fn spill_path(&self) -> Option<&Path> {
        self.path.as_deref()
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

    fn resident_rows(&self) -> usize {
        self.len - self.spilled * self.shard_rows
    }

    /// In durable mode, errors loudly when the configured spill directory
    /// has vanished mid-run (e.g. the checkpoint dir was deleted).
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
        self.path = Some(path);
        Ok(())
    }

    fn spill_oldest(&mut self) -> Result<(), StoreError> {
        crate::checkpoint::crash_point("store.spill");
        self.ensure_file()?;
        self.check_spill_dir()?;
        let s = self.next_to_spill;
        let Shard::Ram(rows) = &self.shards[s] else {
            unreachable!("shards spill in order; {s} already on disk");
        };
        debug_assert_eq!(
            rows.len(),
            self.shard_rows * self.w,
            "only full shards spill"
        );
        let mut payload: Vec<u8> = Vec::with_capacity(rows.len() * 4);
        for v in rows {
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
        if self.spill_dir.is_some() {
            // Durable mode: the shard is sealed — make it survive a crash
            // before anything depends on it being on disk.
            file.sync_data()?;
        }
        self.disk.file_len = offset + 8 + payload.len() as u64;
        self.shards[s] = Shard::Disk { offset };
        self.next_to_spill += 1;
        self.spilled += 1;
        Ok(())
    }

    fn maybe_spill(&mut self) -> Result<(), StoreError> {
        let under_pressure = self
            .pressure
            .as_ref()
            .is_some_and(|p| p.load(Ordering::Relaxed));
        let budget_rows = if under_pressure { 0 } else { self.budget_rows };
        while self.resident_rows() > budget_rows {
            let s = self.next_to_spill;
            if s >= self.shards.len() {
                break;
            }
            let Shard::Ram(rows) = &self.shards[s] else {
                break;
            };
            if rows.len() < self.shard_rows * self.w {
                // Never spill the still-filling tail shard.
                break;
            }
            self.spill_oldest()?;
        }
        Ok(())
    }
}

impl Drop for TieredVisited {
    fn drop(&mut self) {
        self.disk.file = None;
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl HashedStore for TieredVisited {
    fn lookup_hashed(&mut self, row: &[u32], hash: u64) -> Result<Option<usize>, StoreError> {
        let Some(ids) = self.index.get(&hash) else {
            return Ok(None);
        };
        for &id in ids {
            if self.disk.row(&self.shards, self.shard_rows, self.w, id)? == row {
                return Ok(Some(id));
            }
        }
        Ok(None)
    }

    fn insert_hashed(&mut self, row: &[u32], hash: u64) -> Result<usize, StoreError> {
        let id = self.len;
        self.index.entry(hash).or_default().push(id);
        let cap = self.shard_rows * self.w;
        let needs_new_tail = match self.shards.last() {
            None | Some(Shard::Disk { .. }) => true,
            Some(Shard::Ram(rows)) => rows.len() >= cap,
        };
        if needs_new_tail {
            self.shards.push(Shard::Ram(Vec::with_capacity(cap)));
        }
        let Some(Shard::Ram(tail)) = self.shards.last_mut() else {
            unreachable!("a resident tail shard was just ensured");
        };
        tail.extend_from_slice(row);
        self.len += 1;
        self.maybe_spill()?;
        Ok(id)
    }
}

impl VisitedStore for TieredVisited {
    fn row_words(&self) -> usize {
        self.w
    }

    fn len(&self) -> usize {
        self.len
    }

    fn lookup(&mut self, row: &[u32]) -> Result<Option<usize>, StoreError> {
        self.lookup_hashed(row, hash_row(row))
    }

    fn insert(&mut self, row: &[u32]) -> Result<usize, StoreError> {
        self.insert_hashed(row, hash_row(row))
    }

    fn read_row(&mut self, id: usize, out: &mut [u32]) -> Result<(), StoreError> {
        out.copy_from_slice(self.disk.row(&self.shards, self.shard_rows, self.w, id)?);
        Ok(())
    }

    fn spilled_shards(&self) -> usize {
        self.spilled
    }

    fn approx_bytes(&self) -> usize {
        self.resident_rows() * self.w * 4 + self.len * STATE_OVERHEAD_BYTES
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
        let mut s = InMemoryVisited::new(w);
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
        let mut m = InMemoryVisited::new(w);
        let total = 10 * t.shard_rows() + 3;
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), None);
            assert_eq!(m.lookup(&r).unwrap(), None);
            assert_eq!(t.insert(&r).unwrap(), m.insert(&r).unwrap());
        }
        assert_eq!(t.len(), total);
        assert_eq!(
            t.spilled_shards(),
            10,
            "every full shard spills at budget 0"
        );
        assert!(t.spill_path().is_some());
        // Every row — resident or spilled — looks up and reads back equally
        // in both stores.
        let mut a = vec![0u32; w];
        let mut b = vec![0u32; w];
        for i in 0..total {
            let r = row(i as u32, w);
            assert_eq!(t.lookup(&r).unwrap(), Some(i));
            assert_eq!(m.lookup(&r).unwrap(), Some(i));
            t.read_row(i, &mut a).unwrap();
            m.read_row(i, &mut b).unwrap();
            assert_eq!(a, b);
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
        let mut t = TieredVisited::new(w, 0).with_spill_dir(dir.clone());
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
        let mut t = TieredVisited::new(w, 0).with_spill_dir(dir.clone());
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

    /// A deterministic pseudo-random op stream (the no-new-deps stand-in
    /// for a proptest): under any interleaving of inserts and lookups of
    /// colliding candidates, a budget-less [`TieredVisited`] accepts and
    /// rejects exactly the set [`InMemoryVisited`] does, with identical ids.
    #[test]
    fn sharded_matches_inmemory_under_random_interleavings() {
        for (seed, w) in [(1u64, 3usize), (7, 5), (42, 8)] {
            let mut rng = seed;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut tiered = TieredVisited::new(w, None);
            let mut reference = InMemoryVisited::new(w);
            let mut out_a = vec![0u32; w];
            let mut out_b = vec![0u32; w];
            for _ in 0..600 {
                // Small candidate pool so lookups hit both present and
                // absent rows, and inserts see plenty of duplicates.
                let candidate = row((next() % 97) as u32, w);
                match next() % 3 {
                    0 => {
                        let a = tiered.lookup(&candidate).unwrap();
                        let b = reference.lookup(&candidate).unwrap();
                        assert_eq!(a, b, "seed {seed} w {w}");
                    }
                    1 => {
                        // Insert only if absent, mirroring the explorer's
                        // lookup-then-insert discipline.
                        if reference.lookup(&candidate).unwrap().is_none() {
                            assert_eq!(tiered.lookup(&candidate).unwrap(), None);
                            let a = tiered.insert(&candidate).unwrap();
                            let b = reference.insert(&candidate).unwrap();
                            assert_eq!(a, b, "seed {seed} w {w}");
                        }
                    }
                    _ => {
                        if !reference.is_empty() {
                            let id = (next() % reference.len() as u64) as usize;
                            tiered.read_row(id, &mut out_a).unwrap();
                            reference.read_row(id, &mut out_b).unwrap();
                            assert_eq!(out_a, out_b, "seed {seed} w {w}");
                        }
                    }
                }
            }
            assert_eq!(tiered.len(), reference.len());
            assert_eq!(tiered.spilled_shards(), 0, "no budget, no spills");
        }
    }
}
