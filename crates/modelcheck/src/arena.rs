//! Flat state arena: dense `u32` slot ids as *the* state representation.
//!
//! PR 5 introduced per-slot interning as a key codec: `McState` stayed a
//! vector of `Arc`-shared slots and the interner tables only produced dedup
//! keys. This module promotes those tables to the representation itself. A
//! state is one row of `m + 3n` ids (`memory ++ procs ++ pending ++
//! outputs`, the same layout the key codec used), stored contiguously in a
//! flat arena; a BFS step copies the parent row (a few words) and rewrites
//! the one to three slots the step touches. Values live exactly once, in the
//! tables; the hot path never clones an `Arc` per slot and visited-set
//! lookup is a flat `&[u32]` hash with no pointer chasing.
//!
//! Invariants observe states through [`StateView`], a borrow of one row plus
//! the tables; [`ArenaTables::decode`] materializes a full [`McState`] only
//! on the cold paths (violation reporting, replay).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::explorer::McState;

/// Slot id of a halted process's empty pending slot. Reserved: value tables
/// never assign it.
pub(crate) const HALTED: u32 = u32::MAX;

/// A state row: one `u32` id per slot in slot order
/// (`memory ++ procs ++ pending ++ outputs`), `m + 3n` words total. Two
/// states of one exploration are equal iff their rows are equal, because
/// each table is injective on values.
pub type ArenaState = Box<[u32]>;

/// The id space of some slot table ran out (ids are dense `u32`s, with
/// [`HALTED`] reserved). Explorations surface this as a graceful incomplete
/// abort — never a panic in a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdSpaceExhausted {
    /// Which slot table overflowed (`"memory"`, `"procs"`, `"pending"`,
    /// `"outputs"`).
    pub table: &'static str,
}

impl std::fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} slot table exhausted its id space", self.table)
    }
}

/// By-value interning table for one kind of state slot: each distinct value
/// gets a dense `u32` id, and the reverse table resolves ids back to shared
/// handles. Lookups borrow the pointee (`Arc<T>: Borrow<T>`), so candidate
/// values are never deep-cloned just to be looked up.
#[derive(Debug)]
pub(crate) struct SlotInterner<T> {
    table: &'static str,
    ids: HashMap<Arc<T>, u32>,
    values: Vec<Arc<T>>,
    /// Ids are assigned strictly below this cap, so [`HALTED`] (`u32::MAX`)
    /// is never assigned under any cap. Tests inject tiny caps to force the
    /// exhaustion path.
    cap: u32,
}

impl<T: Eq + Hash> SlotInterner<T> {
    pub(crate) fn new(table: &'static str, cap: u32) -> Self {
        SlotInterner {
            table,
            ids: HashMap::new(),
            values: Vec::new(),
            cap,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Resolves an id to its shared value handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned by this table (including
    /// [`HALTED`], which callers must special-case).
    pub(crate) fn get(&self, id: u32) -> &Arc<T> {
        &self.values[id as usize]
    }

    fn next_id(&self) -> Result<u32, IdSpaceExhausted> {
        u32::try_from(self.values.len())
            .ok()
            .filter(|&id| id < self.cap)
            .ok_or(IdSpaceExhausted { table: self.table })
    }

    /// The id of `value`'s pointee, assigning the next dense id (and storing
    /// a clone of the handle in the reverse table) on first sight.
    ///
    /// # Errors
    ///
    /// Fails when a fresh value would not fit the id space.
    pub(crate) fn intern_arc(&mut self, value: &Arc<T>) -> Result<u32, IdSpaceExhausted> {
        if let Some(&id) = self.ids.get(&**value) {
            return Ok(id);
        }
        let id = self.next_id()?;
        self.ids.insert(Arc::clone(value), id);
        self.values.push(Arc::clone(value));
        Ok(id)
    }

    /// Like [`SlotInterner::intern_arc`] for an owned value: allocates the
    /// shared handle only on first sight.
    ///
    /// # Errors
    ///
    /// Fails when a fresh value would not fit the id space.
    pub(crate) fn intern_owned(&mut self, value: T) -> Result<u32, IdSpaceExhausted> {
        if let Some(&id) = self.ids.get(&value) {
            return Ok(id);
        }
        let id = self.next_id()?;
        let value = Arc::new(value);
        self.ids.insert(Arc::clone(&value), id);
        self.values.push(value);
        Ok(id)
    }

    /// The id of `value` if it is already interned, without assigning one.
    pub(crate) fn lookup(&self, value: &T) -> Option<u32> {
        self.ids.get(value).copied()
    }
}

/// Which of the four slot tables an intern call touched — the alphabet of a
/// worker's overlay intern log, replayed serially to commit provisional ids
/// in exactly the order a serial exploration would have assigned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotKind {
    Memory,
    Procs,
    Pending,
    Outputs,
}

/// A transition-memo key: `[proc id, pending id, aux]`, where `aux` is the
/// id of the register a `Read` observes, `0` for a `Write`, and the
/// current output-log id for an `Output`. Hashed as two words through
/// [`StepHasher`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StepKey(pub(crate) [u32; 3]);

impl Hash for StepKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.0;
        state.write_u64(u64::from(a) | u64::from(b) << 32);
        state.write_u32(c);
    }
}

/// Multiplicative (Fx-style) hasher for [`StepKey`]s: a rotate, xor and
/// multiply per word — a fraction of SipHash's cost on three small ids.
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

/// The transition memo: [`StepKey`] → `[proc' id, pending' id, extra]`,
/// where `extra` is the id the step leaves in the one other slot it
/// touches (the written register, the grown output log, or — for a read —
/// the unchanged register id).
pub(crate) type StepMemo = HashMap<StepKey, [u32; 3], BuildHasherDefault<StepHasher>>;

/// Table access the arena steppers need: resolve slot ids to values and
/// intern freshly produced values. [`ArenaTables`] implements it directly
/// (the commit loop's inline step); [`OverlayTables`] implements it over a
/// frozen base with per-worker provisional ids (the intra-combo worker
/// crew). Both
/// paths share [`step_row_in`]/[`step_block_row_in`] verbatim, so the intern
/// call order per action — load-bearing for log replay — cannot drift.
pub(crate) trait StepTables<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn dims(&self) -> (usize, usize);
    fn memory_value(&self, id: u32) -> &Arc<P::Value>;
    fn proc_value(&self, id: u32) -> &Arc<P>;
    fn pending_value(&self, id: u32) -> &Arc<Action<P::Value, P::Output>>;
    fn outputs_value(&self, id: u32) -> &Arc<Vec<P::Output>>;
    fn intern_memory(&mut self, value: P::Value) -> Result<u32, IdSpaceExhausted>;
    fn intern_proc(&mut self, value: P) -> Result<u32, IdSpaceExhausted>;
    fn intern_pending(
        &mut self,
        value: Action<P::Value, P::Output>,
    ) -> Result<u32, IdSpaceExhausted>;
    fn intern_outputs(&mut self, value: Vec<P::Output>) -> Result<u32, IdSpaceExhausted>;
    /// Probes the transition memo, tallying the hit or miss.
    fn memo_get(&mut self, key: StepKey) -> Option<[u32; 3]>;
    /// Records a fully stepped transition; `third` names the table that
    /// `aux` and `extra` index.
    fn memo_put(&mut self, key: StepKey, value: [u32; 3], third: SlotKind);
}

/// Whether process `p`'s pending slot in `row` is a read — the scan
/// predicate of coarse (label-granularity) stepping.
fn pending_is_read_in<P, T>(tables: &T, row: &[u32], p: ProcId) -> bool
where
    T: StepTables<P>,
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    let (m, n) = tables.dims();
    let id = row[m + n + p.0];
    id != HALTED && matches!(&**tables.pending_value(id), Action::Read { .. })
}

/// Applies process `p`'s poised action to `row` in place against any
/// [`StepTables`] — the one arena step both the serial and the overlay
/// paths run. See [`ArenaTables::step_row`] for the contract.
///
/// A transition already seen in this exploration is patched straight from
/// the memo: `Process::step` is deterministic and every slot table is
/// injective, so the ids a full step would return are exactly the memoized
/// ones, and a full step would intern nothing new. Only misses run the
/// step and its interning, and record the result.
pub(crate) fn step_row_in<P, T>(
    tables: &mut T,
    row: &mut [u32],
    p: ProcId,
    wirings: &[Arc<Wiring>],
) -> Result<(), IdSpaceExhausted>
where
    T: StepTables<P>,
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    let (m, n) = tables.dims();
    let proc_ix = m + p.0;
    let pend_ix = m + n + p.0;
    let pending_id = row[pend_ix];
    assert_ne!(pending_id, HALTED, "live process steps");
    // The one slot besides `p`'s process and pending ids that the step
    // reads or writes, the table it indexes, and the key's third word.
    let (col, third, aux) = match &**tables.pending_value(pending_id) {
        Action::Halt => {
            row[pend_ix] = HALTED;
            return Ok(());
        }
        Action::Read { local } => {
            let g = wirings[p.0].global(*local).0;
            (g, SlotKind::Memory, row[g])
        }
        Action::Write { local, .. } => (wirings[p.0].global(*local).0, SlotKind::Memory, 0),
        Action::Output(_) => {
            let out_ix = m + 2 * n + p.0;
            (out_ix, SlotKind::Outputs, row[out_ix])
        }
    };
    let key = StepKey([row[proc_ix], pending_id, aux]);
    if let Some([proc_id, next_id, extra]) = tables.memo_get(key) {
        row[proc_ix] = proc_id;
        row[pend_ix] = next_id;
        row[col] = extra;
        return Ok(());
    }
    // A miss: the full step. The one-slot write (if any) is interned
    // before the process and its next action — the order overlay log
    // replay relies on.
    let action = Arc::clone(tables.pending_value(pending_id));
    let input = match &*action {
        // Hand the process a shared handle to the register cell; the
        // version is always 0 — the model checker must never let
        // processes observe write multiplicity.
        Action::Read { .. } => StepInput::ReadValue(fa_memory::Versioned::from_shared(
            Arc::clone(tables.memory_value(row[col])),
            0,
        )),
        Action::Write { value, .. } => {
            row[col] = tables.intern_memory(value.clone())?;
            StepInput::Wrote
        }
        Action::Output(o) => {
            let mut outs = (**tables.outputs_value(row[col])).clone();
            outs.push(o.clone());
            row[col] = tables.intern_outputs(outs)?;
            StepInput::OutputRecorded
        }
        Action::Halt => unreachable!("halt returned above"),
    };
    let mut proc = (**tables.proc_value(row[proc_ix])).clone();
    let next_action = proc.step(input);
    row[proc_ix] = tables.intern_proc(proc)?;
    row[pend_ix] = tables.intern_pending(next_action)?;
    tables.memo_put(key, [row[proc_ix], row[pend_ix], row[col]], third);
    Ok(())
}

/// One PlusCal-label-granularity block of `p` applied to `row` in place,
/// against any [`StepTables`]: a single write or output, or a complete scan
/// (maximal run of consecutive reads) — the arena counterpart of
/// [`crate::explorer::step_block`].
pub(crate) fn step_block_row_in<P, T>(
    tables: &mut T,
    row: &mut [u32],
    p: ProcId,
    wirings: &[Arc<Wiring>],
) -> Result<(), IdSpaceExhausted>
where
    T: StepTables<P>,
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    let was_read = pending_is_read_in(tables, row, p);
    step_row_in(tables, row, p, wirings)?;
    if was_read {
        while pending_is_read_in(tables, row, p) {
            step_row_in(tables, row, p, wirings)?;
        }
    }
    Ok(())
}

/// The four slot tables of one exploration plus the row layout over them.
///
/// Row layout (`row_words()` ids): `memory` ids at `0..m`, process ids at
/// `m..m+n`, pending-action ids at `m+n..m+2n` ([`HALTED`] once the process
/// halted), output-log ids at `m+2n..m+3n`.
#[derive(Debug)]
pub struct ArenaTables<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) memory: SlotInterner<P::Value>,
    pub(crate) procs: SlotInterner<P>,
    pub(crate) pending: SlotInterner<Action<P::Value, P::Output>>,
    pub(crate) outputs: SlotInterner<Vec<P::Output>>,
    memo: StepMemo,
    memo_hits: u64,
    memo_misses: u64,
    m: usize,
    n: usize,
}

impl<P> ArenaTables<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Fresh tables for a system of `n` processes over `m` registers, with
    /// each table's id space capped at `id_cap` (production explorations use
    /// [`HALTED`]; tests inject tiny caps).
    #[must_use]
    pub fn new(m: usize, n: usize, id_cap: u32) -> Self {
        ArenaTables {
            memory: SlotInterner::new("memory", id_cap),
            procs: SlotInterner::new("procs", id_cap),
            pending: SlotInterner::new("pending", id_cap),
            outputs: SlotInterner::new("outputs", id_cap),
            memo: StepMemo::default(),
            memo_hits: 0,
            memo_misses: 0,
            m,
            n,
        }
    }

    /// Transition-memo `(hits, misses)` tallied so far, including those of
    /// absorbed overlays.
    #[must_use]
    pub fn memo_tallies(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Folds a committed epoch's overlay into the transition memo: merges
    /// the entries it logged (all ids committed, so they hold here for the
    /// rest of the exploration) and adds its hit/miss tallies.
    pub(crate) fn absorb(&mut self, log: &OverlayLog<P>) {
        for &(key, value) in &log.memo {
            let prior = self.memo.insert(key, value);
            debug_assert!(prior.map_or(true, |v| v == value), "memo is a function");
        }
        self.memo_hits += log.memo_hits;
        self.memo_misses += log.memo_misses;
    }

    /// Ids per state row: `m + 3n`.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.m + 3 * self.n
    }

    /// Entries across all four tables — the live size of the interned value
    /// universe this exploration has touched.
    #[must_use]
    pub fn len_total(&self) -> usize {
        self.memory.len() + self.procs.len() + self.pending.len() + self.outputs.len()
    }

    /// Interns every slot of `state` into a row.
    ///
    /// # Errors
    ///
    /// Fails when some table's id space is exhausted.
    pub fn encode(&mut self, state: &McState<P>) -> Result<ArenaState, IdSpaceExhausted> {
        let (m, n) = (self.m, self.n);
        let mut row = vec![0u32; self.row_words()];
        for (i, cell) in state.memory.iter().enumerate() {
            row[i] = self.memory.intern_arc(cell)?;
        }
        for (i, proc) in state.procs.iter().enumerate() {
            row[m + i] = self.procs.intern_arc(proc)?;
        }
        for (i, slot) in state.pending.iter().enumerate() {
            row[m + n + i] = match slot {
                Some(action) => self.pending.intern_arc(action)?,
                None => HALTED,
            };
        }
        for (i, outs) in state.outputs.iter().enumerate() {
            row[m + 2 * n + i] = self.outputs.intern_arc(outs)?;
        }
        Ok(row.into_boxed_slice())
    }

    /// Materializes the full state a row denotes — the inverse of
    /// [`ArenaTables::encode`]. Cold path only (violations, replay).
    #[must_use]
    pub fn decode(&self, row: &[u32]) -> McState<P> {
        let (m, n) = (self.m, self.n);
        McState {
            memory: row[..m]
                .iter()
                .map(|&id| Arc::clone(self.memory.get(id)))
                .collect(),
            procs: row[m..m + n]
                .iter()
                .map(|&id| Arc::clone(self.procs.get(id)))
                .collect(),
            pending: row[m + n..m + 2 * n]
                .iter()
                .map(|&id| (id != HALTED).then(|| Arc::clone(self.pending.get(id))))
                .collect(),
            outputs: row[m + 2 * n..m + 3 * n]
                .iter()
                .map(|&id| Arc::clone(self.outputs.get(id)))
                .collect(),
        }
    }

    /// Applies process `p`'s poised action to `row` in place: the arena
    /// step. Rewrites `p`'s process and pending ids plus at most one
    /// register or output id; every other word is untouched.
    ///
    /// # Errors
    ///
    /// Fails when a fresh slot value would not fit some table's id space
    /// (`row` is left partially stepped; callers must discard it).
    ///
    /// # Panics
    ///
    /// Panics if `p` has halted in `row`.
    pub fn step_row(
        &mut self,
        row: &mut [u32],
        p: ProcId,
        wirings: &[Arc<Wiring>],
    ) -> Result<(), IdSpaceExhausted> {
        step_row_in(self, row, p, wirings)
    }

    /// Replays one record's slice of a worker's overlay intern log into the
    /// committed tables, pushing the committed id of every logged value onto
    /// `maps` (indexed by provisional offset) and advancing the per-table
    /// `cursors`. Because records are replayed in serial (parent, process)
    /// order and each worker logs a value at its earliest producing record,
    /// the globally earliest record that produced a fresh value is always
    /// the one whose replay interns it — so committed ids land in exactly
    /// the order a serial exploration would have assigned them.
    ///
    /// # Errors
    ///
    /// Fails at precisely the record where a serial exploration would have
    /// exhausted the id space.
    pub(crate) fn replay_slice(
        &mut self,
        log: &OverlayLog<P>,
        range: std::ops::Range<usize>,
        cursors: &mut [usize; 4],
        maps: &mut [Vec<u32>; 4],
    ) -> Result<(), IdSpaceExhausted> {
        for kind in &log.kinds[range] {
            match kind {
                SlotKind::Memory => {
                    let v = &log.memory[cursors[0]];
                    cursors[0] += 1;
                    maps[0].push(self.memory.intern_arc(v)?);
                }
                SlotKind::Procs => {
                    let v = &log.procs[cursors[1]];
                    cursors[1] += 1;
                    maps[1].push(self.procs.intern_arc(v)?);
                }
                SlotKind::Pending => {
                    let v = &log.pending[cursors[2]];
                    cursors[2] += 1;
                    maps[2].push(self.pending.intern_arc(v)?);
                }
                SlotKind::Outputs => {
                    let v = &log.outputs[cursors[3]];
                    cursors[3] += 1;
                    maps[3].push(self.outputs.intern_arc(v)?);
                }
            }
        }
        Ok(())
    }
}

impl<P> StepTables<P> for ArenaTables<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    fn memory_value(&self, id: u32) -> &Arc<P::Value> {
        self.memory.get(id)
    }

    fn proc_value(&self, id: u32) -> &Arc<P> {
        self.procs.get(id)
    }

    fn pending_value(&self, id: u32) -> &Arc<Action<P::Value, P::Output>> {
        self.pending.get(id)
    }

    fn outputs_value(&self, id: u32) -> &Arc<Vec<P::Output>> {
        self.outputs.get(id)
    }

    fn intern_memory(&mut self, value: P::Value) -> Result<u32, IdSpaceExhausted> {
        self.memory.intern_owned(value)
    }

    fn intern_proc(&mut self, value: P) -> Result<u32, IdSpaceExhausted> {
        self.procs.intern_owned(value)
    }

    fn intern_pending(
        &mut self,
        value: Action<P::Value, P::Output>,
    ) -> Result<u32, IdSpaceExhausted> {
        self.pending.intern_owned(value)
    }

    fn intern_outputs(&mut self, value: Vec<P::Output>) -> Result<u32, IdSpaceExhausted> {
        self.outputs.intern_owned(value)
    }

    fn memo_get(&mut self, key: StepKey) -> Option<[u32; 3]> {
        let hit = self.memo.get(&key).copied();
        if hit.is_some() {
            self.memo_hits += 1;
        } else {
            self.memo_misses += 1;
        }
        hit
    }

    fn memo_put(&mut self, key: StepKey, value: [u32; 3], _third: SlotKind) {
        self.memo.insert(key, value);
    }
}

/// One table's provisional overlay: values this worker produced that the
/// frozen base tables do not hold, with dense ids starting at the base
/// epoch's length. `values` doubles as the per-table intern log in
/// assignment order.
#[derive(Debug)]
pub(crate) struct OverlaySlot<T> {
    frozen_len: u32,
    ids: HashMap<Arc<T>, u32>,
    values: Vec<Arc<T>>,
}

impl<T: Eq + Hash> OverlaySlot<T> {
    fn new(frozen_len: usize) -> Self {
        OverlaySlot {
            frozen_len: u32::try_from(frozen_len).expect("committed ids fit u32"),
            ids: HashMap::new(),
            values: Vec::new(),
        }
    }

    fn get<'s>(&'s self, base: &'s SlotInterner<T>, id: u32) -> &'s Arc<T> {
        if id >= self.frozen_len {
            &self.values[(id - self.frozen_len) as usize]
        } else {
            base.get(id)
        }
    }

    /// Interns `value` against the frozen base first, then this overlay,
    /// assigning a fresh provisional id (`frozen_len + k`) on first sight.
    /// The returned flag says whether a fresh id was assigned (and so must
    /// be logged). The only failure here is the hard [`HALTED`] bound; the
    /// base table's configured cap is enforced later, during replay, where
    /// the serial abort point is known.
    fn intern(
        &mut self,
        base: &SlotInterner<T>,
        value: T,
    ) -> Result<(u32, bool), IdSpaceExhausted> {
        if let Some(id) = base.lookup(&value) {
            return Ok((id, false));
        }
        if let Some(&id) = self.ids.get(&value) {
            return Ok((id, false));
        }
        let id = u32::try_from(self.frozen_len as usize + self.values.len())
            .ok()
            .filter(|&id| id < HALTED)
            .ok_or(IdSpaceExhausted { table: base.table })?;
        let value = Arc::new(value);
        self.ids.insert(Arc::clone(&value), id);
        self.values.push(value);
        Ok((id, true))
    }
}

/// A worker's private view of the arena during one parallel expansion
/// epoch: the committed tables are frozen (shared immutably across
/// workers), and anything fresh this worker interns lands in per-table
/// overlays under provisional ids, recorded in an ordered intern log.
/// Committing an epoch replays the logs serially ([`ArenaTables::replay_slice`])
/// and patches provisional ids to committed ones ([`OverlayLog::patch_row`]),
/// after which worker scheduling is unobservable in any row.
#[derive(Debug)]
pub(crate) struct OverlayTables<'a, P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    base: &'a ArenaTables<P>,
    memory: OverlaySlot<P::Value>,
    procs: OverlaySlot<P>,
    pending: OverlaySlot<Action<P::Value, P::Output>>,
    outputs: OverlaySlot<Vec<P::Output>>,
    kinds: Vec<SlotKind>,
    /// Transitions this worker stepped whose ids are all committed — the
    /// ones the base memo may absorb at the table commit.
    memo: Vec<(StepKey, [u32; 3])>,
    memo_hits: u64,
    memo_misses: u64,
}

impl<'a, P> OverlayTables<'a, P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) fn new(base: &'a ArenaTables<P>) -> Self {
        OverlayTables {
            base,
            memory: OverlaySlot::new(base.memory.len()),
            procs: OverlaySlot::new(base.procs.len()),
            pending: OverlaySlot::new(base.pending.len()),
            outputs: OverlaySlot::new(base.outputs.len()),
            kinds: Vec::new(),
            memo: Vec::new(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Intern-log length so far — record boundaries snapshot this.
    pub(crate) fn log_len(&self) -> usize {
        self.kinds.len()
    }

    /// Dismantles the overlay into its replayable log, releasing the borrow
    /// of the base tables so the commit phase can mutate them.
    pub(crate) fn into_log(self) -> OverlayLog<P> {
        OverlayLog {
            kinds: self.kinds,
            frozen: [
                self.memory.frozen_len,
                self.procs.frozen_len,
                self.pending.frozen_len,
                self.outputs.frozen_len,
            ],
            memory: self.memory.values,
            procs: self.procs.values,
            pending: self.pending.values,
            outputs: self.outputs.values,
            memo: self.memo,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        }
    }
}

impl<P> StepTables<P> for OverlayTables<'_, P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    fn dims(&self) -> (usize, usize) {
        (self.base.m, self.base.n)
    }

    fn memory_value(&self, id: u32) -> &Arc<P::Value> {
        self.memory.get(&self.base.memory, id)
    }

    fn proc_value(&self, id: u32) -> &Arc<P> {
        self.procs.get(&self.base.procs, id)
    }

    fn pending_value(&self, id: u32) -> &Arc<Action<P::Value, P::Output>> {
        self.pending.get(&self.base.pending, id)
    }

    fn outputs_value(&self, id: u32) -> &Arc<Vec<P::Output>> {
        self.outputs.get(&self.base.outputs, id)
    }

    fn intern_memory(&mut self, value: P::Value) -> Result<u32, IdSpaceExhausted> {
        let (id, fresh) = self.memory.intern(&self.base.memory, value)?;
        if fresh {
            self.kinds.push(SlotKind::Memory);
        }
        Ok(id)
    }

    fn intern_proc(&mut self, value: P) -> Result<u32, IdSpaceExhausted> {
        let (id, fresh) = self.procs.intern(&self.base.procs, value)?;
        if fresh {
            self.kinds.push(SlotKind::Procs);
        }
        Ok(id)
    }

    fn intern_pending(
        &mut self,
        value: Action<P::Value, P::Output>,
    ) -> Result<u32, IdSpaceExhausted> {
        let (id, fresh) = self.pending.intern(&self.base.pending, value)?;
        if fresh {
            self.kinds.push(SlotKind::Pending);
        }
        Ok(id)
    }

    fn intern_outputs(&mut self, value: Vec<P::Output>) -> Result<u32, IdSpaceExhausted> {
        let (id, fresh) = self.outputs.intern(&self.base.outputs, value)?;
        if fresh {
            self.kinds.push(SlotKind::Outputs);
        }
        Ok(id)
    }

    /// Reads the frozen base memo only, so hits and misses depend on the
    /// committed epoch alone — never on which worker claimed which chunk.
    fn memo_get(&mut self, key: StepKey) -> Option<[u32; 3]> {
        let hit = self.base.memo.get(&key).copied();
        if hit.is_some() {
            self.memo_hits += 1;
        } else {
            self.memo_misses += 1;
        }
        hit
    }

    /// Logs the transition only if every id in it is committed (below the
    /// frozen lengths). One with a provisional id is dropped; a later level
    /// re-derives it with committed ids.
    fn memo_put(&mut self, key: StepKey, value: [u32; 3], third: SlotKind) {
        let frozen = |kind| match kind {
            SlotKind::Memory => self.memory.frozen_len,
            SlotKind::Procs => self.procs.frozen_len,
            SlotKind::Pending => self.pending.frozen_len,
            SlotKind::Outputs => self.outputs.frozen_len,
        };
        let [proc_id, pending_id, aux] = key.0;
        let [next_proc, next_pending, extra] = value;
        let committed = proc_id.max(next_proc) < frozen(SlotKind::Procs)
            && pending_id.max(next_pending) < frozen(SlotKind::Pending)
            && aux.max(extra) < frozen(third);
        if committed {
            self.memo.push((key, value));
        }
    }
}

/// The replayable remains of one worker's [`OverlayTables`]: the ordered
/// intern log (`kinds` interleaves the four per-table value queues) plus the
/// frozen epoch lengths that tell provisional ids apart from committed ones.
#[derive(Debug)]
pub(crate) struct OverlayLog<P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) kinds: Vec<SlotKind>,
    frozen: [u32; 4],
    memory: Vec<Arc<P::Value>>,
    procs: Vec<Arc<P>>,
    pending: Vec<Arc<Action<P::Value, P::Output>>>,
    outputs: Vec<Arc<Vec<P::Output>>>,
    memo: Vec<(StepKey, [u32; 3])>,
    memo_hits: u64,
    memo_misses: u64,
}

impl<P> OverlayLog<P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    /// Rewrites every provisional id in `row` to its committed id using the
    /// replay `maps` built by [`ArenaTables::replay_slice`]. After this the
    /// row is exactly the row a serial exploration would have produced.
    pub(crate) fn patch_row(&self, m: usize, n: usize, maps: &[Vec<u32>; 4], row: &mut [u32]) {
        for (col, id) in row.iter_mut().enumerate() {
            let table = if col < m {
                0
            } else if col < m + n {
                1
            } else if col < m + 2 * n {
                2
            } else {
                3
            };
            if table == 2 && *id == HALTED {
                continue;
            }
            if *id >= self.frozen[table] {
                *id = maps[table][(*id - self.frozen[table]) as usize];
            }
        }
    }
}

/// A borrowed, zero-materialization window onto one arena state: the row
/// plus the tables that resolve its ids. This is what exploration invariants
/// receive — reading a slot is one index into a reverse table, and checks
/// like [`StateView::all_halted`] are pure id comparisons.
#[derive(Clone, Copy, Debug)]
pub struct StateView<'a, P: Process>
where
    P: Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    tables: &'a ArenaTables<P>,
    row: &'a [u32],
}

impl<'a, P> StateView<'a, P>
where
    P: Process + Clone + Eq + Hash + std::fmt::Debug,
    P::Value: Clone + Eq + Hash + std::fmt::Debug,
    P::Output: Clone + Eq + Hash + std::fmt::Debug,
{
    pub(crate) fn new(tables: &'a ArenaTables<P>, row: &'a [u32]) -> Self {
        debug_assert_eq!(row.len(), tables.row_words());
        StateView { tables, row }
    }

    /// Number of registers.
    #[must_use]
    pub fn num_registers(&self) -> usize {
        self.tables.m
    }

    /// Number of processes.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.tables.n
    }

    /// The value held by register `i`.
    #[must_use]
    pub fn memory(&self, i: usize) -> &'a P::Value {
        self.tables.memory.get(self.row[i])
    }

    /// The state of process `i`.
    #[must_use]
    pub fn proc(&self, i: usize) -> &'a P {
        self.tables.procs.get(self.row[self.tables.m + i])
    }

    /// Process `i`'s poised action, or `None` once it halted.
    #[must_use]
    pub fn pending(&self, i: usize) -> Option<&'a Action<P::Value, P::Output>> {
        let id = self.row[self.tables.m + self.tables.n + i];
        (id != HALTED).then(|| &**self.tables.pending.get(id))
    }

    /// The outputs process `i` has produced so far, in order.
    #[must_use]
    pub fn outputs(&self, i: usize) -> &'a [P::Output] {
        self.tables
            .outputs
            .get(self.row[self.tables.m + 2 * self.tables.n + i])
    }

    /// Whether every process has halted — a scan of `n` ids against the
    /// [`HALTED`] sentinel, no value access at all.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        let (m, n) = (self.tables.m, self.tables.n);
        self.row[m + n..m + 2 * n].iter().all(|&id| id == HALTED)
    }

    /// The live (non-halted) processes.
    #[must_use]
    pub fn live(&self) -> Vec<ProcId> {
        let (m, n) = (self.tables.m, self.tables.n);
        self.row[m + n..m + 2 * n]
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != HALTED)
            .map(|(i, _)| ProcId(i))
            .collect()
    }

    /// First output of each process (the one-shot task reading).
    #[must_use]
    pub fn first_outputs(&self) -> Vec<Option<P::Output>> {
        (0..self.tables.n)
            .map(|i| self.outputs(i).first().cloned())
            .collect()
    }

    /// Materializes the full [`McState`] this view denotes. Cold path:
    /// invariants that re-step the state (e.g. the wait-freedom
    /// certificate's solo runs) pay one decode here; plain slot reads never
    /// need it.
    #[must_use]
    pub fn to_state(&self) -> McState<P> {
        self.tables.decode(self.row)
    }

    /// The raw id row (test/debug aid; ids are exploration-local).
    #[must_use]
    pub fn raw_row(&self) -> &'a [u32] {
        self.row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_memory::Wiring;

    /// Writes its input, then halts — the same toy process the explorer
    /// tests use.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct OneWrite {
        input: u8,
        wrote: bool,
    }
    impl Process for OneWrite {
        type Value = u8;
        type Output = u8;
        fn step(&mut self, _i: StepInput<u8>) -> Action<u8, u8> {
            if self.wrote {
                Action::Halt
            } else {
                self.wrote = true;
                Action::write(0, self.input)
            }
        }
    }

    fn two_writers() -> (McState<OneWrite>, Vec<Arc<Wiring>>) {
        let procs = vec![
            OneWrite {
                input: 1,
                wrote: false,
            },
            OneWrite {
                input: 2,
                wrote: false,
            },
        ];
        let wirings = vec![Arc::new(Wiring::identity(1)), Arc::new(Wiring::identity(1))];
        (McState::initial(procs, 1, 0u8), wirings)
    }

    #[test]
    fn arena_encode_decode_round_trips_initial_state() {
        let (initial, _) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let row = tables.encode(&initial).unwrap();
        assert_eq!(row.len(), tables.row_words());
        assert_eq!(tables.decode(&row), initial);
    }

    #[test]
    fn arena_step_row_matches_mcstate_step() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let row0 = tables.encode(&initial).unwrap();
        let mut row = row0.clone();
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap();
        let expected = initial.step(ProcId(0), &wirings).unwrap();
        assert_eq!(tables.decode(&row), expected);
        // The parent row is untouched and still decodes to the parent.
        assert_eq!(tables.decode(&row0), initial);
    }

    #[test]
    fn arena_view_reads_slots_without_materializing() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let mut row = tables.encode(&initial).unwrap();
        tables.step_row(&mut row, ProcId(1), &wirings).unwrap();
        let view = StateView::new(&tables, &row);
        assert_eq!(*view.memory(0), 2);
        assert!(view.proc(1).wrote);
        assert!(!view.all_halted());
        assert_eq!(view.live(), vec![ProcId(0), ProcId(1)]);
        assert_eq!(view.first_outputs(), vec![None, None]);
        assert_eq!(view.to_state(), initial.step(ProcId(1), &wirings).unwrap());
    }

    #[test]
    fn arena_halt_writes_the_sentinel() {
        let (initial, wirings) = two_writers();
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let mut row = tables.encode(&initial).unwrap();
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap(); // write
        tables.step_row(&mut row, ProcId(0), &wirings).unwrap(); // halt
        assert_eq!(row[1 + 2], HALTED);
        let view = StateView::new(&tables, &row);
        assert!(view.pending(0).is_none());
        assert_eq!(view.live(), vec![ProcId(1)]);
    }

    #[test]
    fn arena_tiny_id_cap_reports_exhaustion_not_panic() {
        let (initial, wirings) = two_writers();
        // Cap of 2 ids per table: encoding the initial state fits exactly
        // (procs and pending are both at the cap), so the first step — whose
        // new pending action `Halt` is a third distinct pending value — must
        // fail gracefully rather than panic.
        let mut tables = ArenaTables::<OneWrite>::new(1, 2, 2);
        let row0 = tables.encode(&initial).unwrap();
        let mut row = row0.clone();
        let err = tables.step_row(&mut row, ProcId(0), &wirings).unwrap_err();
        assert_eq!(err, IdSpaceExhausted { table: "pending" });
        assert!(err.to_string().contains("pending"));
    }

    /// Drives the overlay path the way the parallel explorer does — expand
    /// against frozen tables, replay the log, patch rows — and checks the
    /// result is bit-identical to serial stepping: same rows, same ids, same
    /// table contents.
    #[test]
    fn arena_overlay_replay_matches_serial_ids_and_rows() {
        let (initial, wirings) = two_writers();

        // Serial reference: step each process once from the root.
        let mut serial = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root_s = serial.encode(&initial).unwrap();
        let mut serial_rows = Vec::new();
        for p in 0..2 {
            let mut row = root_s.clone();
            serial.step_row(&mut row, ProcId(p), &wirings).unwrap();
            serial_rows.push(row);
        }

        // Overlay path over the same frozen epoch.
        let mut committed = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root = committed.encode(&initial).unwrap();
        let mut rows = Vec::new();
        let mut ranges = Vec::new();
        let log = {
            let mut overlay = OverlayTables::new(&committed);
            for p in 0..2 {
                let start = overlay.log_len();
                let mut row = root.clone();
                step_row_in(&mut overlay, &mut row, ProcId(p), &wirings).unwrap();
                ranges.push(start..overlay.log_len());
                rows.push(row);
            }
            overlay.into_log()
        };

        let mut cursors = [0usize; 4];
        let mut maps: [Vec<u32>; 4] = Default::default();
        for (row, range) in rows.iter_mut().zip(ranges) {
            committed
                .replay_slice(&log, range, &mut cursors, &mut maps)
                .unwrap();
            log.patch_row(1, 2, &maps, row);
        }

        assert_eq!(rows, serial_rows);
        assert_eq!(committed.len_total(), serial.len_total());
        for (row, srow) in rows.iter().zip(&serial_rows) {
            assert_eq!(committed.decode(row), serial.decode(srow));
        }
    }

    /// A value two records both produce is logged once per worker and
    /// interned once at replay; values already committed are never logged.
    #[test]
    fn arena_overlay_dedups_against_frozen_and_itself() {
        let (initial, wirings) = two_writers();
        let mut committed = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root = committed.encode(&initial).unwrap();
        let before = committed.len_total();

        let mut overlay = OverlayTables::new(&committed);
        // Stepping the same process twice from the same parent row produces
        // identical fresh values; the second step logs nothing new.
        let mut row_a = root.clone();
        step_row_in(&mut overlay, &mut row_a, ProcId(0), &wirings).unwrap();
        let after_first = overlay.log_len();
        let mut row_b = root.clone();
        step_row_in(&mut overlay, &mut row_b, ProcId(0), &wirings).unwrap();
        assert_eq!(row_a, row_b);
        assert_eq!(
            overlay.log_len(),
            after_first,
            "duplicate step logs nothing"
        );
        // The frozen tables were never touched.
        assert_eq!(committed.len_total(), before);
    }

    /// The overlay itself never enforces the configured cap — exhaustion is
    /// detected at replay, where the serial abort point is known.
    #[test]
    fn arena_overlay_replay_enforces_the_committed_cap() {
        let (initial, wirings) = two_writers();
        let mut committed = ArenaTables::<OneWrite>::new(1, 2, 2);
        let root = committed.encode(&initial).unwrap();

        let mut row = root.clone();
        let range = {
            let mut overlay = OverlayTables::new(&committed);
            step_row_in(&mut overlay, &mut row, ProcId(0), &wirings).unwrap();
            0..overlay.log_len()
        };
        let log = {
            let mut overlay = OverlayTables::new(&committed);
            let mut row = root.clone();
            step_row_in(&mut overlay, &mut row, ProcId(0), &wirings).unwrap();
            overlay.into_log()
        };
        let mut cursors = [0usize; 4];
        let mut maps: [Vec<u32>; 4] = Default::default();
        let err = committed
            .replay_slice(&log, range, &mut cursors, &mut maps)
            .unwrap_err();
        assert_eq!(err.table, "pending");
    }

    /// A base memo warmed by serial stepping answers the overlay's step:
    /// it hits, interns nothing, and logs nothing.
    #[test]
    fn arena_overlay_warm_memo_step_logs_nothing() {
        let (initial, wirings) = two_writers();
        let mut committed = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root = committed.encode(&initial).unwrap();
        let mut serial_row = root.clone();
        committed
            .step_row(&mut serial_row, ProcId(0), &wirings)
            .unwrap();
        assert_eq!(committed.memo_tallies(), (0, 1));

        let mut overlay = OverlayTables::new(&committed);
        let mut row = root.clone();
        step_row_in(&mut overlay, &mut row, ProcId(0), &wirings).unwrap();
        assert_eq!(row, serial_row);
        assert_eq!(overlay.log_len(), 0, "nothing interned");
        let log = overlay.into_log();
        assert!(log.memo.is_empty(), "a hit records nothing");
        assert_eq!((log.memo_hits, log.memo_misses), (1, 0));
    }

    /// A step whose result holds a provisional id is never logged for the
    /// base memo: the id means nothing outside this overlay.
    #[test]
    fn arena_overlay_never_logs_provisional_transitions() {
        let (initial, wirings) = two_writers();
        let mut committed = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root = committed.encode(&initial).unwrap();
        let mut overlay = OverlayTables::new(&committed);
        let mut row = root.clone();
        step_row_in(&mut overlay, &mut row, ProcId(0), &wirings).unwrap();
        assert!(overlay.log_len() > 0, "the step produced fresh values");
        let log = overlay.into_log();
        assert!(log.memo.is_empty(), "provisional ids stay out of the memo");
        assert_eq!((log.memo_hits, log.memo_misses), (0, 1));
    }

    /// Three epochs over the same parents: the first commits fresh values
    /// (its transitions are dropped), the second re-derives them with
    /// committed ids (and logs them), and after `absorb` the third is
    /// answered entirely by the memo — rows bit-identical to serial
    /// stepping throughout.
    #[test]
    fn arena_overlay_absorb_then_replay_matches_serial_rows() {
        let (initial, wirings) = two_writers();
        let mut serial = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root_s = serial.encode(&initial).unwrap();
        let serial_rows: Vec<Box<[u32]>> = (0..2)
            .map(|p| {
                let mut row = root_s.clone();
                serial.step_row(&mut row, ProcId(p), &wirings).unwrap();
                row
            })
            .collect();

        let mut committed = ArenaTables::<OneWrite>::new(1, 2, HALTED);
        let root = committed.encode(&initial).unwrap();
        let mut logged = Vec::new();
        for epoch in 0..3 {
            let mut rows = Vec::new();
            let mut ranges = Vec::new();
            let log = {
                let mut overlay = OverlayTables::new(&committed);
                for p in 0..2 {
                    let start = overlay.log_len();
                    let mut row = root.clone();
                    step_row_in(&mut overlay, &mut row, ProcId(p), &wirings).unwrap();
                    ranges.push(start..overlay.log_len());
                    rows.push(row);
                }
                overlay.into_log()
            };
            let mut cursors = [0usize; 4];
            let mut maps: [Vec<u32>; 4] = Default::default();
            for (row, range) in rows.iter_mut().zip(ranges) {
                committed
                    .replay_slice(&log, range, &mut cursors, &mut maps)
                    .unwrap();
                log.patch_row(1, 2, &maps, row);
            }
            committed.absorb(&log);
            assert_eq!(rows, serial_rows, "epoch {epoch}");
            assert_eq!(committed.len_total(), serial.len_total(), "epoch {epoch}");
            logged.push(log.memo.len());
        }
        assert_eq!(
            logged,
            vec![0, 2, 0],
            "only the committed re-derivation logs"
        );
        // Epochs 1 and 2 missed then hit both steps; epoch 0 missed both.
        assert_eq!(committed.memo_tallies(), (2, 4));
    }

    #[test]
    fn arena_interner_reuses_ids_for_equal_values() {
        let mut interner = SlotInterner::<u8>::new("memory", HALTED);
        let a = interner.intern_owned(7).unwrap();
        let b = interner.intern_arc(&Arc::new(7)).unwrap();
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
        assert_eq!(**interner.get(a), 7);
    }
}
