//! Views: the sets of known input values at the heart of every algorithm in
//! the paper.
//!
//! A processor's *view* is "the set of inputs it knows about" (Section 4).
//! Views only ever grow, and the central structural question of the paper —
//! the eventual pattern — is about the containment order on views.
//!
//! # Representation
//!
//! The paper's algorithms only ever union and compare views drawn from a
//! *tiny* input domain (one input per processor or group), so [`View`] keeps
//! two representations behind one API:
//!
//! * **Small** — a [`SmallView`] 64-bit bitmask, used while every member maps
//!   into the dense index range `0..64` via [`ViewValue::dense_index`]. All
//!   the hot operations (union, subset, equality, hashing, length) are O(1)
//!   word ops, and cloning is a word copy.
//! * **Set** — the original `BTreeSet<V>` fallback, engaged the moment any
//!   member is not densely representable (e.g. `u32` values ≥ 64, or a type
//!   with no dense embedding at all).
//!
//! The two representations are kept *normalized*: a view uses the Set
//! fallback **iff** it holds at least one non-dense member. Since views only
//! grow (there is no `remove`), a view can spill from Small to Set but never
//! needs to return, and two semantically equal views always share a
//! representation — which is what makes the per-representation `Eq`/`Hash`
//! fast paths sound. The one shrinking operation, [`View::intersection`],
//! re-normalizes its result.

use core::fmt;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::marker::PhantomData;

use serde::{Deserialize, Serialize, Value};

/// A value that can live in a [`View`].
///
/// The two hooks describe an optional *dense embedding* of the type into the
/// index range `0..64`, which lets views hold the value in the packed
/// [`SmallView`] bitmask representation. The default implementation opts out
/// (every view of the type uses the `BTreeSet` fallback), so
/// `impl ViewValue for MyType {}` is always a correct starting point.
///
/// # Contract
///
/// Implementations that do provide a dense embedding must keep the two hooks
/// mutually inverse and **monotone**:
///
/// * `from_dense_index(v.dense_index().unwrap()) == Some(v)` for every dense
///   `v`, and `from_dense_index(i).and_then(|v| v.dense_index()) == Some(i)`
///   for every `i` the type maps;
/// * `a < b` implies `a.dense_index() < b.dense_index()` whenever both are
///   dense — index order must agree with `Ord`, so that iteration order and
///   [`View::rank_of`] are representation-independent.
///
/// All primitive integer types implement this with the identity embedding on
/// `0..64`, which covers every model-check and fuzz configuration in this
/// repo (inputs are small `u32`s, n ≤ 6).
pub trait ViewValue: Ord + Clone {
    /// The value's dense index in `0..64`, or `None` if this value (or the
    /// whole type) has no dense embedding.
    fn dense_index(&self) -> Option<u8> {
        None
    }

    /// The value with dense index `idx`, inverse of
    /// [`dense_index`](ViewValue::dense_index).
    fn from_dense_index(idx: u8) -> Option<Self> {
        let _ = idx;
        None
    }
}

macro_rules! impl_view_value_int {
    ($($t:ty),*) => {$(
        impl ViewValue for $t {
            #[inline]
            fn dense_index(&self) -> Option<u8> {
                if (0..64).contains(&i128::from(*self)) {
                    Some(*self as u8)
                } else {
                    None
                }
            }

            #[inline]
            fn from_dense_index(idx: u8) -> Option<Self> {
                (idx < 64).then_some(idx as $t)
            }
        }
    )*};
}

impl_view_value_int!(u8, u16, u32, u64, i8, i16, i32, i64);

// Tuples (e.g. the consensus algorithm's stamped values) have no dense
// embedding; views of them always use the `BTreeSet` fallback.
impl<A: Ord + Clone, B: Ord + Clone> ViewValue for (A, B) {}

impl ViewValue for usize {
    #[inline]
    fn dense_index(&self) -> Option<u8> {
        (*self < 64).then_some(*self as u8)
    }

    #[inline]
    fn from_dense_index(idx: u8) -> Option<Self> {
        (idx < 64).then_some(idx as usize)
    }
}

/// A packed set of dense indices `0..64`: one bit per index.
///
/// This is the fast-path representation behind [`View`]. Union, subset,
/// equality, and length are single word operations, and the mask itself
/// doubles as a precomputed hash (two equal small views hash by writing the
/// same `u64`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmallView {
    mask: u64,
}

impl SmallView {
    /// The largest number of distinct dense indices a `SmallView` can hold.
    pub const CAPACITY: usize = 64;

    /// The empty set.
    pub const EMPTY: SmallView = SmallView { mask: 0 };

    /// The raw bitmask: bit `i` set iff index `i` is a member.
    #[must_use]
    pub fn mask(self) -> u64 {
        self.mask
    }

    /// Builds from a raw bitmask.
    #[must_use]
    pub fn from_mask(mask: u64) -> Self {
        SmallView { mask }
    }

    /// Number of members.
    #[must_use]
    pub fn len(self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// Whether index `idx` is a member.
    #[must_use]
    pub fn contains(self, idx: u8) -> bool {
        idx < 64 && self.mask & (1u64 << idx) != 0
    }

    /// Adds index `idx` (must be `< 64`); returns whether it was new.
    pub fn insert(&mut self, idx: u8) -> bool {
        debug_assert!(idx < 64, "SmallView index out of range");
        let bit = 1u64 << idx;
        let new = self.mask & bit == 0;
        self.mask |= bit;
        new
    }

    /// Whether `self ⊆ other` — one word op.
    #[must_use]
    pub fn is_subset(self, other: SmallView) -> bool {
        self.mask & !other.mask == 0
    }

    /// The union — one word op.
    #[must_use]
    pub fn union(self, other: SmallView) -> SmallView {
        SmallView {
            mask: self.mask | other.mask,
        }
    }

    /// The intersection — one word op.
    #[must_use]
    pub fn intersection(self, other: SmallView) -> SmallView {
        SmallView {
            mask: self.mask & other.mask,
        }
    }

    /// Batch union of many packed views — the scan-path reduction. Written
    /// over four disjoint accumulators so the compiler autovectorizes the
    /// main loop (one vector OR per four masks on 256-bit SIMD); the scalar
    /// tail handles the remainder.
    #[must_use]
    pub fn union_of(views: &[SmallView]) -> SmallView {
        let mut acc = [0u64; 4];
        let mut chunks = views.chunks_exact(4);
        for c in &mut chunks {
            acc[0] |= c[0].mask;
            acc[1] |= c[1].mask;
            acc[2] |= c[2].mask;
            acc[3] |= c[3].mask;
        }
        let mut mask = acc[0] | acc[1] | acc[2] | acc[3];
        for v in chunks.remainder() {
            mask |= v.mask;
        }
        SmallView { mask }
    }

    /// How many of `views` are subsets of `of` — a branch-free batch scan
    /// (one AND-NOT + compare per mask, no data-dependent branches).
    #[must_use]
    pub fn count_subsets_of(views: &[SmallView], of: SmallView) -> usize {
        views
            .iter()
            .map(|v| usize::from(v.mask & !of.mask == 0))
            .sum()
    }

    /// Whether the masks are pairwise containment-comparable (every two
    /// related by `⊆`) — the snapshot-task condition checked on every
    /// reachable state, batched.
    ///
    /// Containment-comparability of a whole family reduces to a *chain*
    /// check: sorted by population count, each adjacent pair must satisfy
    /// `⊆` (transitivity gives every other pair; two comparable masks of
    /// equal popcount are equal). That turns the quadratic pairwise loop
    /// into one sort of ≤ a few words plus a branch-free linear scan.
    #[must_use]
    pub fn chain_comparable(masks: &[u64]) -> bool {
        fn chain_holds(sorted: &[u64]) -> bool {
            sorted.windows(2).fold(0u64, |acc, w| acc | (w[0] & !w[1])) == 0
        }
        // The model checker calls this once per reachable state: keep the
        // common small family on the stack.
        const INLINE: usize = 8;
        if masks.len() <= INLINE {
            let mut buf = [0u64; INLINE];
            buf[..masks.len()].copy_from_slice(masks);
            let buf = &mut buf[..masks.len()];
            buf.sort_unstable_by_key(|m| m.count_ones());
            chain_holds(buf)
        } else {
            let mut sorted = masks.to_vec();
            sorted.sort_unstable_by_key(|m| m.count_ones());
            chain_holds(&sorted)
        }
    }

    /// The precomputed hash: the mask is its own hash value.
    #[must_use]
    pub fn precomputed_hash(self) -> u64 {
        self.mask
    }

    /// Iterates over the member indices in ascending order.
    pub fn iter_indices(self) -> impl Iterator<Item = u8> {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let idx = rest.trailing_zeros() as u8;
            rest &= rest - 1;
            Some(idx)
        })
    }

    /// Lexicographic comparison of the member sequences in ascending index
    /// order — the set order `BTreeSet` iteration induces.
    fn cmp_lex(self, other: SmallView) -> Ordering {
        let (mut a, mut b) = (self.mask, other.mask);
        loop {
            match (a == 0, b == 0) {
                (true, true) => return Ordering::Equal,
                (true, false) => return Ordering::Less,
                (false, true) => return Ordering::Greater,
                (false, false) => {}
            }
            let (i, j) = (a.trailing_zeros(), b.trailing_zeros());
            match i.cmp(&j) {
                Ordering::Equal => {
                    a &= a - 1;
                    b &= b - 1;
                }
                unequal => return unequal,
            }
        }
    }
}

/// The two representations. Invariant (enforced by every constructor and
/// mutation): `Set` is used iff at least one member has no dense index, so
/// equal views always share a representation.
#[derive(Clone)]
enum Repr<V> {
    Small(SmallView),
    Set(BTreeSet<V>),
}

/// A set of input values ordered by `V`'s `Ord`; grows monotonically as the
/// owning processor learns values.
///
/// Representation is pluggable via [`ViewValue`]: densely-embeddable values
/// live in a [`SmallView`] bitmask with O(1) union/subset/eq and a
/// precomputed hash; anything else falls back to a `BTreeSet`. See the
/// module docs for the normalization invariant that keeps the two
/// interchangeable.
///
/// ```
/// use fa_core::View;
///
/// let mut v = View::singleton(1);
/// v.insert(3);
/// assert!(v.contains(&1));
/// assert_eq!(v.len(), 2);
///
/// let w = View::from_iter([1, 2, 3]);
/// assert!(v.is_subset(&w));
/// assert!(v.is_strict_subset(&w));
/// assert!(!w.is_subset(&v));
/// ```
pub struct View<V: Ord> {
    repr: Repr<V>,
}

impl<V: Ord> View<V> {
    /// The empty view — the "known default value" initially held by every
    /// register.
    #[must_use]
    pub fn new() -> Self {
        View {
            repr: Repr::Small(SmallView::EMPTY),
        }
    }

    /// Whether the view currently uses the packed [`SmallView`] fast path.
    ///
    /// Exposed for tests and benchmarks; algorithms should never branch on
    /// the representation.
    #[must_use]
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small(_))
    }

    /// The packed representation, if the view is on the fast path.
    #[must_use]
    pub fn as_small(&self) -> Option<SmallView> {
        match &self.repr {
            Repr::Small(s) => Some(*s),
            Repr::Set(_) => None,
        }
    }
}

impl<V: Ord> Default for View<V> {
    fn default() -> Self {
        View::new()
    }
}

impl<V: ViewValue> View<V> {
    /// The view containing exactly one value — a processor's initial view of
    /// its own input.
    #[must_use]
    pub fn singleton(value: V) -> Self {
        let mut v = View::new();
        v.insert(value);
        v
    }

    /// Wraps a packed view. Sound for any [`ViewValue`]: every `SmallView`
    /// member has a dense index by construction, so the normalization
    /// invariant (Small iff all members dense) holds.
    #[must_use]
    pub fn from_small(small: SmallView) -> Self {
        View {
            repr: Repr::Small(small),
        }
    }

    /// Number of values in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small(s) => s.len(),
            Repr::Set(set) => set.len(),
        }
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small(s) => s.is_empty(),
            Repr::Set(set) => set.is_empty(),
        }
    }

    /// Whether `value` is in the view.
    #[must_use]
    pub fn contains(&self, value: &V) -> bool {
        match &self.repr {
            // A non-dense value can never be in a Small view.
            Repr::Small(s) => value.dense_index().is_some_and(|i| s.contains(i)),
            Repr::Set(set) => set.contains(value),
        }
    }

    /// Adds a value; returns whether it was new.
    pub fn insert(&mut self, value: V) -> bool {
        match (&mut self.repr, value.dense_index()) {
            (Repr::Small(s), Some(idx)) => s.insert(idx),
            (Repr::Small(s), None) => {
                // First non-dense member: spill to the fallback.
                let mut set: BTreeSet<V> = decode_indices(*s).collect();
                let new = set.insert(value);
                self.repr = Repr::Set(set);
                new
            }
            (Repr::Set(set), _) => set.insert(value),
        }
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &View<V>) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.is_subset(*b),
            (Repr::Small(a), Repr::Set(b)) => decode_indices::<V>(*a).all(|v| b.contains(&v)),
            // A Set view holds a non-dense member no Small view can contain.
            (Repr::Set(_), Repr::Small(_)) => false,
            (Repr::Set(a), Repr::Set(b)) => a.is_subset(b),
        }
    }

    /// Whether `self ⊂ other` (strict).
    #[must_use]
    pub fn is_strict_subset(&self, other: &View<V>) -> bool {
        self.len() < other.len() && self.is_subset(other)
    }

    /// Whether `self ⊆ other` or `other ⊆ self` — the snapshot-task
    /// containment condition (Definition 3.2).
    #[must_use]
    pub fn comparable(&self, other: &View<V>) -> bool {
        self.is_subset(other) || other.is_subset(self)
    }

    /// Iterates over the values in ascending order.
    ///
    /// Yields values by value (`V: Clone`): the packed representation stores
    /// indices, not `V`s, so there is no `&V` to hand out.
    pub fn iter(&self) -> ViewIter<'_, V> {
        ViewIter {
            inner: match &self.repr {
                Repr::Small(s) => IterRepr::Small {
                    rest: s.mask(),
                    _view: PhantomData,
                },
                Repr::Set(set) => IterRepr::Set(set.iter()),
            },
        }
    }

    /// Consumes the view and returns the members as an ordered set.
    #[must_use]
    pub fn into_set(self) -> BTreeSet<V> {
        match self.repr {
            Repr::Small(s) => decode_indices(s).collect(),
            Repr::Set(set) => set,
        }
    }

    /// The 1-based rank of `value` in the view's ascending order, if present.
    ///
    /// Used by the Bar-Noy–Dolev renaming rule (Section 6): a processor ranks
    /// itself within its own snapshot. On the packed representation this is a
    /// popcount of the bits below the value's index.
    ///
    /// ```
    /// use fa_core::View;
    /// let v = View::from_iter([10, 20, 30]);
    /// assert_eq!(v.rank_of(&20), Some(2));
    /// assert_eq!(v.rank_of(&99), None);
    /// ```
    #[must_use]
    pub fn rank_of(&self, value: &V) -> Option<usize> {
        match &self.repr {
            Repr::Small(s) => {
                let idx = value.dense_index()?;
                if !s.contains(idx) {
                    return None;
                }
                let below = s.mask() & ((1u64 << idx) - 1);
                Some(below.count_ones() as usize + 1)
            }
            Repr::Set(set) => {
                if !set.contains(value) {
                    return None;
                }
                Some(set.range(..=value).count())
            }
        }
    }

    /// Unions `other` into `self` ("adds all the values it read to its
    /// view"). Returns whether `self` changed.
    ///
    /// This is the merge on the paper's write–scan hot path; on the packed
    /// representation it is a single `|=`.
    pub fn union_with(&mut self, other: &View<V>) -> bool {
        match (&mut self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => {
                let merged = a.union(*b);
                let changed = merged != *a;
                *a = merged;
                changed
            }
            (Repr::Small(a), Repr::Set(b)) => {
                // `other` holds a non-dense member, so the result must spill.
                let mut set: BTreeSet<V> = decode_indices(*a).collect();
                let before = set.len();
                set.extend(b.iter().cloned());
                let changed = set.len() != before;
                self.repr = Repr::Set(set);
                changed
            }
            (Repr::Set(a), Repr::Small(b)) => {
                let before = a.len();
                a.extend(decode_indices::<V>(*b));
                a.len() != before
            }
            (Repr::Set(a), Repr::Set(b)) => {
                let before = a.len();
                a.extend(b.iter().cloned());
                a.len() != before
            }
        }
    }

    /// The union of two views, as a new view.
    ///
    /// Built in place: the packed fast path is a single word `or`, and the
    /// fallback collects each element exactly once rather than cloning
    /// `self` wholesale and re-cloning `other` into it.
    #[must_use]
    pub fn union(&self, other: &View<V>) -> View<V> {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => View {
                repr: Repr::Small(a.union(*b)),
            },
            // At least one side holds a non-dense member, so the result does
            // too: collect both member sequences straight into the fallback.
            _ => View {
                repr: Repr::Set(self.iter().chain(other.iter()).collect()),
            },
        }
    }

    /// The intersection of two views, as a new view.
    ///
    /// Intersection can shed every non-dense member, so the result is
    /// re-normalized (possibly back onto the packed representation).
    #[must_use]
    pub fn intersection(&self, other: &View<V>) -> View<V> {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => View {
                repr: Repr::Small(a.intersection(*b)),
            },
            (Repr::Small(a), Repr::Set(b)) | (Repr::Set(b), Repr::Small(a)) => {
                // Common members are exactly the dense side's members found
                // in the set — all dense, so the result stays packed.
                let mut out = SmallView::EMPTY;
                for v in decode_indices::<V>(*a) {
                    if b.contains(&v) {
                        out.insert(v.dense_index().expect("decoded value is dense"));
                    }
                }
                View {
                    repr: Repr::Small(out),
                }
            }
            (Repr::Set(a), Repr::Set(b)) => a.intersection(b).cloned().collect(),
        }
    }
}

/// Decodes a packed mask back into values, in ascending order.
fn decode_indices<V: ViewValue>(s: SmallView) -> impl Iterator<Item = V> {
    s.iter_indices()
        .map(|i| V::from_dense_index(i).expect("ViewValue contract: dense index must decode"))
}

impl<V: Ord + Clone> Clone for View<V> {
    fn clone(&self) -> Self {
        View {
            repr: self.repr.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut self.repr, &source.repr) {
            (Repr::Set(dst), Repr::Set(src)) => dst.clone_from(src),
            (dst, _) => *dst = source.repr.clone(),
        }
    }
}

impl<V: ViewValue> PartialEq for View<V> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a == b,
            (Repr::Set(a), Repr::Set(b)) => a == b,
            // Normalization invariant: a Set view holds a non-dense member,
            // which a Small view cannot.
            _ => false,
        }
    }
}

impl<V: ViewValue> Eq for View<V> {}

impl<V: ViewValue + std::hash::Hash> std::hash::Hash for View<V> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Sound because equal views share a representation (see `Repr`).
        match &self.repr {
            Repr::Small(s) => {
                state.write_u8(0);
                state.write_u64(s.precomputed_hash());
            }
            Repr::Set(set) => {
                state.write_u8(1);
                set.hash(state);
            }
        }
    }
}

impl<V: ViewValue> PartialOrd for View<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: ViewValue> Ord for View<V> {
    /// Lexicographic on the ascending member sequence — the order the
    /// `BTreeSet` representation's derived `Ord` induced, kept for
    /// representation independence. The dense embedding's monotonicity makes
    /// the packed comparison agree.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp_lex(*b),
            (Repr::Set(a), Repr::Set(b)) => a.cmp(b),
            _ => self.iter().cmp(other.iter()),
        }
    }
}

impl<V: ViewValue + fmt::Debug> fmt::Debug for View<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the pre-refactor derived output: `View { values: {1, 2} }`.
        struct Values<'a, V: ViewValue + fmt::Debug>(&'a View<V>);
        impl<V: ViewValue + fmt::Debug> fmt::Debug for Values<'_, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("View")
            .field("values", &Values(self))
            .finish()
    }
}

impl<V: ViewValue + Serialize> Serialize for View<V> {
    fn to_value(&self) -> Value {
        // Same shape as the pre-refactor derived impl: representation is an
        // in-memory concern only.
        let values = Value::Array(self.iter().map(|v| v.to_value()).collect());
        let mut map = serde::Map::new();
        map.insert("values".to_string(), values);
        Value::Object(map)
    }
}

impl<V: ViewValue + Deserialize> Deserialize for View<V> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let values = v
            .as_object()
            .and_then(|m| m.get("values"))
            .ok_or_else(|| serde::Error::custom("expected View object"))?;
        let values = values
            .as_array()
            .ok_or_else(|| serde::Error::custom("expected View values array"))?;
        values.iter().map(V::from_value).collect()
    }
}

/// Iterator over a view's members in ascending order; see [`View::iter`].
pub struct ViewIter<'a, V: Ord> {
    inner: IterRepr<'a, V>,
}

impl<V: Ord> fmt::Debug for ViewIter<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewIter").finish_non_exhaustive()
    }
}

enum IterRepr<'a, V: Ord> {
    Small {
        rest: u64,
        _view: PhantomData<&'a V>,
    },
    Set(std::collections::btree_set::Iter<'a, V>),
}

impl<V: ViewValue> Iterator for ViewIter<'_, V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        match &mut self.inner {
            IterRepr::Small { rest, .. } => {
                if *rest == 0 {
                    return None;
                }
                let idx = rest.trailing_zeros() as u8;
                *rest &= *rest - 1;
                Some(V::from_dense_index(idx).expect("ViewValue contract: dense index must decode"))
            }
            IterRepr::Set(it) => it.next().cloned(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.inner {
            IterRepr::Small { rest, .. } => rest.count_ones() as usize,
            IterRepr::Set(it) => it.len(),
        };
        (len, Some(len))
    }
}

impl<V: ViewValue> ExactSizeIterator for ViewIter<'_, V> {}

/// Owning iterator; see [`View::into_iter`].
pub struct ViewIntoIter<V: Ord> {
    inner: IntoIterRepr<V>,
}

impl<V: Ord> fmt::Debug for ViewIntoIter<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewIntoIter").finish_non_exhaustive()
    }
}

enum IntoIterRepr<V: Ord> {
    Small(u64),
    Set(std::collections::btree_set::IntoIter<V>),
}

impl<V: ViewValue> Iterator for ViewIntoIter<V> {
    type Item = V;

    fn next(&mut self) -> Option<V> {
        match &mut self.inner {
            IntoIterRepr::Small(rest) => {
                if *rest == 0 {
                    return None;
                }
                let idx = rest.trailing_zeros() as u8;
                *rest &= *rest - 1;
                Some(V::from_dense_index(idx).expect("ViewValue contract: dense index must decode"))
            }
            IntoIterRepr::Set(it) => it.next(),
        }
    }
}

impl<V: ViewValue> FromIterator<V> for View<V> {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        let mut v = View::new();
        for value in iter {
            v.insert(value);
        }
        v
    }
}

impl<V: ViewValue> Extend<V> for View<V> {
    fn extend<T: IntoIterator<Item = V>>(&mut self, iter: T) {
        for value in iter {
            self.insert(value);
        }
    }
}

impl<V: ViewValue> IntoIterator for View<V> {
    type Item = V;
    type IntoIter = ViewIntoIter<V>;

    fn into_iter(self) -> Self::IntoIter {
        ViewIntoIter {
            inner: match self.repr {
                Repr::Small(s) => IntoIterRepr::Small(s.mask()),
                Repr::Set(set) => IntoIterRepr::Set(set.into_iter()),
            },
        }
    }
}

impl<'a, V: ViewValue> IntoIterator for &'a View<V> {
    type Item = V;
    type IntoIter = ViewIter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V: ViewValue + fmt::Debug> fmt::Display for View<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_and_singleton() {
        let e: View<u32> = View::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let s = View::singleton(5);
        assert!(s.contains(&5));
        assert_eq!(s.len(), 1);
        assert!(e.is_subset(&s));
        assert!(e.is_strict_subset(&s));
    }

    #[test]
    fn insert_reports_novelty() {
        let mut v = View::new();
        assert!(v.insert(1));
        assert!(!v.insert(1));
    }

    #[test]
    fn union_with_reports_change() {
        let mut v = View::from_iter([1, 2]);
        assert!(!v.union_with(&View::singleton(1)));
        assert!(v.union_with(&View::singleton(3)));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn strict_subset_excludes_equal() {
        let a = View::from_iter([1, 2]);
        let b = View::from_iter([1, 2]);
        assert!(a.is_subset(&b));
        assert!(!a.is_strict_subset(&b));
    }

    #[test]
    fn comparable_detects_incomparability() {
        let a = View::from_iter([1, 2]);
        let b = View::from_iter([1, 3]);
        assert!(!a.comparable(&b));
        let c = View::from_iter([1, 2, 3]);
        assert!(a.comparable(&c));
        assert!(c.comparable(&a));
    }

    #[test]
    fn rank_is_one_based_ascending() {
        let v = View::from_iter([7, 3, 9]);
        assert_eq!(v.rank_of(&3), Some(1));
        assert_eq!(v.rank_of(&7), Some(2));
        assert_eq!(v.rank_of(&9), Some(3));
        assert_eq!(v.rank_of(&4), None);
    }

    #[test]
    fn display_format() {
        let v = View::from_iter([2, 1]);
        assert_eq!(v.to_string(), "{1,2}");
        let e: View<u32> = View::new();
        assert_eq!(e.to_string(), "{}");
    }

    #[test]
    fn intersection_and_union() {
        let a = View::from_iter([1, 2, 3]);
        let b = View::from_iter([2, 3, 4]);
        assert_eq!(a.intersection(&b), View::from_iter([2, 3]));
        assert_eq!(a.union(&b), View::from_iter([1, 2, 3, 4]));
    }

    #[test]
    fn dense_views_stay_packed_and_spill_on_large_values() {
        let mut v: View<u32> = View::from_iter([0, 5, 63]);
        assert!(v.is_small());
        assert_eq!(v.as_small().unwrap().mask(), 1 | (1 << 5) | (1 << 63));
        v.insert(64);
        assert!(!v.is_small());
        assert_eq!(v.len(), 4);
        assert!(v.contains(&63));
        assert!(v.contains(&64));
    }

    #[test]
    fn spill_preserves_semantics_across_representations() {
        // A packed view and a spilled view of the same dense prefix agree on
        // every predicate against each other.
        let packed: View<u32> = View::from_iter([1, 2]);
        let mut spilled: View<u32> = View::from_iter([1, 2, 100]);
        assert!(packed.is_small());
        assert!(!spilled.is_small());
        assert!(packed.is_subset(&spilled));
        assert!(packed.is_strict_subset(&spilled));
        assert!(!spilled.is_subset(&packed));
        assert!(packed.comparable(&spilled));
        assert_eq!(spilled.rank_of(&100), Some(3));
        assert!(!spilled.union_with(&packed));
    }

    #[test]
    fn intersection_renormalizes_to_packed() {
        let a: View<u32> = View::from_iter([1, 2, 100]);
        let b: View<u32> = View::from_iter([2, 3, 200]);
        let i = a.intersection(&b);
        assert_eq!(i, View::singleton(2));
        assert!(i.is_small());
    }

    #[test]
    fn debug_matches_derived_shape() {
        let v: View<u32> = View::from_iter([2, 1]);
        assert_eq!(format!("{v:?}"), "View { values: {1, 2} }");
    }

    #[test]
    fn fallback_only_types_work_without_dense_embedding() {
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
        struct Opaque(&'static str);
        impl ViewValue for Opaque {}

        let mut v = View::singleton(Opaque("b"));
        assert!(!v.is_small());
        assert!(v.insert(Opaque("a")));
        assert_eq!(v.len(), 2);
        assert_eq!(v.rank_of(&Opaque("a")), Some(1));
        assert!(View::new().is_subset(&v));
    }

    #[test]
    fn serde_shape_is_stable() {
        let v: View<u32> = View::from_iter([3, 1]);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"values":[1,3]}"#);
        let back: View<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        let spilled: View<u32> = serde_json::from_str(r#"{"values":[1,99]}"#).unwrap();
        assert!(!spilled.is_small());
        assert_eq!(spilled, View::from_iter([1, 99]));
    }

    /// Mirrors every packed-vs-fallback predicate against a reference
    /// `BTreeSet` model; `any::<bool>` decides whether each side also gets a
    /// spill value ≥ 64 so all four representation pairings are exercised,
    /// including the >64-value spill boundary itself.
    fn check_against_model(xs: &BTreeSet<u32>, ys: &BTreeSet<u32>) {
        let a: View<u32> = xs.iter().copied().collect();
        let b: View<u32> = ys.iter().copied().collect();
        assert_eq!(a.len(), xs.len());
        assert_eq!(a.is_subset(&b), xs.is_subset(ys));
        assert_eq!(
            a.is_strict_subset(&b),
            xs.is_subset(ys) && xs.len() < ys.len()
        );
        assert_eq!(a.comparable(&b), xs.is_subset(ys) || ys.is_subset(xs));
        assert_eq!(a == b, xs == ys);
        assert_eq!(a.cmp(&b), xs.cmp(ys));
        let union_model: BTreeSet<u32> = xs.union(ys).copied().collect();
        assert_eq!(a.union(&b).into_set(), union_model);
        let mut merged = a.clone();
        assert_eq!(merged.union_with(&b), union_model != *xs);
        assert_eq!(merged.into_set(), union_model);
        let inter_model: BTreeSet<u32> = xs.intersection(ys).copied().collect();
        assert_eq!(a.intersection(&b).into_set(), inter_model);
        let collected: Vec<u32> = a.iter().collect();
        let model_order: Vec<u32> = xs.iter().copied().collect();
        assert_eq!(collected, model_order);
        for (rank, x) in xs.iter().enumerate() {
            assert_eq!(a.rank_of(x), Some(rank + 1));
        }
    }

    proptest! {
        #[test]
        fn union_is_commutative_and_monotone(
            xs in proptest::collection::btree_set(0u32..50, 0..10),
            ys in proptest::collection::btree_set(0u32..50, 0..10),
        ) {
            let a: View<u32> = xs.iter().cloned().collect();
            let b: View<u32> = ys.iter().cloned().collect();
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert!(a.is_subset(&a.union(&b)));
            prop_assert!(b.is_subset(&a.union(&b)));
        }

        #[test]
        fn rank_of_is_bijective_on_members(
            xs in proptest::collection::btree_set(0u32..100, 1..12),
        ) {
            let v: View<u32> = xs.iter().cloned().collect();
            let mut ranks: Vec<usize> = xs.iter().map(|x| v.rank_of(x).unwrap()).collect();
            ranks.sort_unstable();
            let expect: Vec<usize> = (1..=xs.len()).collect();
            prop_assert_eq!(ranks, expect);
        }

        #[test]
        fn comparability_matches_subset_defs(
            xs in proptest::collection::btree_set(0u32..10, 0..6),
            ys in proptest::collection::btree_set(0u32..10, 0..6),
        ) {
            let a: View<u32> = xs.iter().cloned().collect();
            let b: View<u32> = ys.iter().cloned().collect();
            prop_assert_eq!(a.comparable(&b), xs.is_subset(&ys) || ys.is_subset(&xs));
        }

        /// The headline representation-equivalence property: the packed
        /// SmallView path agrees with the BTreeSet model on every operation,
        /// across purely-dense sets, purely-spilled sets, and mixtures
        /// straddling the 64-value boundary.
        #[test]
        fn small_and_fallback_representations_agree(
            dense_x in proptest::collection::btree_set(0u32..64, 0..12),
            dense_y in proptest::collection::btree_set(0u32..64, 0..12),
            spill_x in proptest::collection::btree_set(64u32..1000, 0..4),
            spill_y in proptest::collection::btree_set(64u32..1000, 0..4),
        ) {
            // Dense vs dense (both packed).
            check_against_model(&dense_x, &dense_y);
            // Dense vs mixed, mixed vs dense, mixed vs mixed (spilled).
            let mixed_x: BTreeSet<u32> = dense_x.union(&spill_x).copied().collect();
            let mixed_y: BTreeSet<u32> = dense_y.union(&spill_y).copied().collect();
            check_against_model(&dense_x, &mixed_y);
            check_against_model(&mixed_x, &dense_y);
            check_against_model(&mixed_x, &mixed_y);
        }

        /// Insertion order never affects the representation or the members —
        /// the spill boundary is crossed at the same point regardless.
        #[test]
        fn insertion_order_is_irrelevant(
            values in proptest::collection::vec(0u32..128, 0..16),
        ) {
            let forward: View<u32> = values.iter().copied().collect();
            let reverse: View<u32> = values.iter().rev().copied().collect();
            prop_assert_eq!(&forward, &reverse);
            prop_assert_eq!(forward.is_small(), reverse.is_small());
            prop_assert_eq!(
                forward.is_small(),
                values.iter().all(|v| *v < 64)
            );
        }

        /// Equal views hash equally even when built via different routes
        /// (insert-by-insert vs collected, intersection-renormalized).
        #[test]
        fn equal_views_hash_equally(
            xs in proptest::collection::btree_set(0u32..96, 0..10),
        ) {
            use std::hash::{Hash, Hasher};
            fn hash_of(v: &View<u32>) -> u64 {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut h);
                h.finish()
            }
            let collected: View<u32> = xs.iter().copied().collect();
            let mut inserted = View::new();
            for x in xs.iter().rev() {
                inserted.insert(*x);
            }
            prop_assert_eq!(hash_of(&collected), hash_of(&inserted));
            // Intersection with itself must renormalize to the same hash.
            let reinter = collected.intersection(&inserted);
            prop_assert_eq!(&reinter, &collected);
            prop_assert_eq!(hash_of(&reinter), hash_of(&collected));
        }

        /// `union_of` agrees with the fold over `union`, for every slice
        /// length (including the 4-lane chunked body and the scalar tail).
        #[test]
        fn batch_union_matches_the_fold(
            masks in proptest::collection::vec(any::<u64>(), 0..11),
        ) {
            let views: Vec<SmallView> = masks.iter().map(|&m| SmallView::from_mask(m)).collect();
            let expect = masks.iter().fold(0u64, |acc, m| acc | m);
            prop_assert_eq!(SmallView::union_of(&views).mask(), expect);
        }

        /// `count_subsets_of` agrees with the filter over `is_subset`.
        #[test]
        fn batch_subset_count_matches_the_filter(
            masks in proptest::collection::vec(0u64..256, 0..10),
            of in 0u64..256,
        ) {
            let views: Vec<SmallView> = masks.iter().map(|&m| SmallView::from_mask(m)).collect();
            let of_view = SmallView::from_mask(of);
            let expect = views.iter().filter(|v| v.is_subset(of_view)).count();
            prop_assert_eq!(SmallView::count_subsets_of(&views, of_view), expect);
        }

        /// `chain_comparable` agrees with the quadratic pairwise definition
        /// — on small universes (dense comparable families are likely) and
        /// across the INLINE=8 stack-buffer boundary.
        #[test]
        fn batch_chain_comparability_matches_pairwise(
            masks in proptest::collection::vec(0u64..16, 0..12),
        ) {
            let pairwise = masks.iter().all(|&a| {
                masks.iter().all(|&b| a & !b == 0 || b & !a == 0)
            });
            prop_assert_eq!(SmallView::chain_comparable(&masks), pairwise);
        }
    }

    #[test]
    fn batch_union_covers_chunked_and_tail_lanes() {
        let views: Vec<SmallView> = (0..9).map(|i| SmallView::from_mask(1 << (i * 7))).collect();
        let expect = views.iter().fold(0u64, |acc, v| acc | v.mask());
        assert_eq!(SmallView::union_of(&views).mask(), expect);
        assert_eq!(SmallView::union_of(&[]).mask(), 0);
    }

    #[test]
    fn batch_chain_comparability_examples() {
        // A proper chain: {} ⊂ {0} ⊂ {0,1} ⊂ {0,1,2}.
        assert!(SmallView::chain_comparable(&[0b111, 0b1, 0b11, 0b0]));
        // {0} and {1} are incomparable.
        assert!(!SmallView::chain_comparable(&[0b1, 0b10]));
        // Equal masks are mutually comparable.
        assert!(SmallView::chain_comparable(&[0b101, 0b101, 0b1]));
        // Trivial families.
        assert!(SmallView::chain_comparable(&[]));
        assert!(SmallView::chain_comparable(&[42]));
    }
}
