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
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use fa_memory::{Action, ProcId, Process, StepInput, Wiring};

use crate::explorer::McState;
use crate::store::StepBuildHasher;

/// Slot id of a halted process's empty pending slot. Reserved: value tables
/// never assign it.
pub(crate) const HALTED: u32 = u32::MAX;

/// A state row: one `u32` id per slot in slot order
/// (`memory ++ procs ++ pending ++ outputs`), `m + 3n` words total. Two
/// states of one exploration are equal iff their rows are equal, because
/// each table is injective on values.
pub type ArenaState = Box<[u32]>;

/// The id space of some slot table ran out (ids are dense `u32`s, with
/// `HALTED` reserved). Explorations surface this as a graceful incomplete
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
    /// Ids are assigned strictly below this cap, so `HALTED` (`u32::MAX`)
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
    /// `HALTED`, which callers must special-case).
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
}

/// A transition-memo key: `[proc id, pending id, aux]`, where `aux` is the
/// id of the register a `Read` observes, `0` for a `Write`, and the
/// current output-log id for an `Output`. Hashed as two words through
/// the shared multiplicative hasher of [`crate::store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StepKey([u32; 3]);

impl Hash for StepKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.0;
        state.write_u64(u64::from(a) | u64::from(b) << 32);
        state.write_u32(c);
    }
}

/// The transition memo: [`StepKey`] → `[proc' id, pending' id, extra]`,
/// where `extra` is the id the step leaves in the one other slot it
/// touches (the written register, the grown output log, or — for a read —
/// the unchanged register id).
type StepMemo = HashMap<StepKey, [u32; 3], StepBuildHasher>;

/// The four slot tables plus the row layout over them. One set serves one
/// exploration, or — on plain sweeps — every exploration a combo-pool
/// worker runs (DESIGN §12): interning is by value and memo keys never name
/// a processor or a wiring, so ids stay valid across combos.
///
/// Row layout (`row_words()` ids): `memory` ids at `0..m`, process ids at
/// `m..m+n`, pending-action ids at `m+n..m+2n` (`HALTED` once the process
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
    /// `HALTED`; tests inject tiny caps).
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

    /// Transition-memo `(hits, misses)` tallied so far.
    #[must_use]
    pub fn memo_tallies(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Ids per state row: `m + 3n`.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.m + 3 * self.n
    }

    /// `(registers, processes)` of the row layout.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Entries across all four tables — the live size of the interned value
    /// universe every exploration sharing these tables has touched.
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
    /// A transition these tables have already seen is patched straight
    /// from the memo: `Process::step` is deterministic and every slot table
    /// is injective, so the ids a full step would return are exactly the
    /// memoized ones, and a full step would intern nothing new. Only misses
    /// run the step and its interning, and record the result.
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
        let (m, n) = (self.m, self.n);
        let proc_ix = m + p.0;
        let pend_ix = m + n + p.0;
        let pending_id = row[pend_ix];
        assert_ne!(pending_id, HALTED, "live process steps");
        // The one slot besides `p`'s process and pending ids that the step
        // reads or writes, and the key's third word.
        let (col, aux) = match &**self.pending.get(pending_id) {
            Action::Halt => {
                row[pend_ix] = HALTED;
                return Ok(());
            }
            Action::Read { local } => {
                let g = wirings[p.0].global(*local).0;
                (g, row[g])
            }
            Action::Write { local, .. } => (wirings[p.0].global(*local).0, 0),
            Action::Output(_) => {
                let out_ix = m + 2 * n + p.0;
                (out_ix, row[out_ix])
            }
        };
        let key = StepKey([row[proc_ix], pending_id, aux]);
        if let Some(&[proc_id, next_id, extra]) = self.memo.get(&key) {
            self.memo_hits += 1;
            row[proc_ix] = proc_id;
            row[pend_ix] = next_id;
            row[col] = extra;
            return Ok(());
        }
        self.memo_misses += 1;
        // A miss: the full step. The one-slot write (if any) is interned
        // before the process and its next action.
        let action = Arc::clone(self.pending.get(pending_id));
        let input = match &*action {
            // Hand the process a shared handle to the register cell; the
            // version is always 0 — the model checker must never let
            // processes observe write multiplicity.
            Action::Read { .. } => StepInput::ReadValue(fa_memory::Versioned::from_shared(
                Arc::clone(self.memory.get(row[col])),
                0,
            )),
            Action::Write { value, .. } => {
                row[col] = self.memory.intern_owned(value.clone())?;
                StepInput::Wrote
            }
            Action::Output(o) => {
                let mut outs = (**self.outputs.get(row[col])).clone();
                outs.push(o.clone());
                row[col] = self.outputs.intern_owned(outs)?;
                StepInput::OutputRecorded
            }
            Action::Halt => unreachable!("halt returned above"),
        };
        let mut proc = (**self.procs.get(row[proc_ix])).clone();
        let next_action = proc.step(input);
        row[proc_ix] = self.procs.intern_owned(proc)?;
        row[pend_ix] = self.pending.intern_owned(next_action)?;
        self.memo
            .insert(key, [row[proc_ix], row[pend_ix], row[col]]);
        Ok(())
    }

    /// One PlusCal-label-granularity block of `p` applied to `row` in
    /// place: a single write or output, or a complete scan (maximal run of
    /// consecutive reads) — the arena counterpart of
    /// [`crate::explorer::step_block`]. Errors and panics as
    /// [`ArenaTables::step_row`].
    pub(crate) fn step_block_row(
        &mut self,
        row: &mut [u32],
        p: ProcId,
        wirings: &[Arc<Wiring>],
    ) -> Result<(), IdSpaceExhausted> {
        let was_read = self.pending_is_read(row, p);
        self.step_row(row, p, wirings)?;
        if was_read {
            while self.pending_is_read(row, p) {
                self.step_row(row, p, wirings)?;
            }
        }
        Ok(())
    }

    /// Whether process `p`'s pending slot in `row` is a read — the scan
    /// predicate of coarse (label-granularity) stepping.
    fn pending_is_read(&self, row: &[u32], p: ProcId) -> bool {
        let id = row[self.m + self.n + p.0];
        id != HALTED && matches!(&**self.pending.get(id), Action::Read { .. })
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
    /// `HALTED` sentinel, no value access at all.
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
