//! First- and second-hop neighbor knowledge (Section 4.2.1).
//!
//! After secure neighbor discovery every node holds:
//!
//! * its **first-hop** neighbor list `R_me`, each entry carrying a status
//!   (active or revoked), and
//! * for each neighbor `B`, the announced list `R_B` — the node's
//!   **second-hop** knowledge.
//!
//! This data structure answers the three questions LITEWORP keeps asking:
//!
//! 1. *Is this transmitter my neighbor?* (non-neighbors are rejected —
//!    defeats high-power and relay wormholes),
//! 2. *Is the claimed previous hop plausible?* (`prev ∈ R_via` — defeats
//!    encapsulation/out-of-band wormholes that name their colluder), and
//! 3. *Am I a guard of this link?* (neighbor of both endpoints).
//!
//! Every one of them is a binary search over one sorted id column, plus
//! (for the second) one over a short sorted run of second-hop ids, so the
//! state a guard touches per overheard frame sits in a few contiguous
//! cache lines. Each neighbor's slot also carries the guard's standing
//! judgment of it (accused, suspected by another guard, last alert
//! round), which [`crate::monitor::LocalMonitor`] reads on every frame.
//!
//! A preloaded table copies nothing: every table of a deployment is a
//! block of one shared, read-only [`BlockArena`], and each neighbor's
//! list is that neighbor's own block's id column. The arena is
//! copy-on-write: a table's first write moves it to a private arena of
//! its own block and runs, so no table ever writes an arena another table
//! reads.

use crate::types::{Micros, NodeId};
use std::fmt;
use std::iter;
use std::sync::Arc;

/// Status of a first-hop neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborStatus {
    /// Trusted: packets are exchanged and the link monitored.
    Active,
    /// Isolated: no packets are accepted from or sent to this node.
    Revoked,
}

/// Status bit: the neighbor is revoked.
pub(crate) const REVOKED: u8 = 1;
/// Status bit: the neighbor's announced list `R_b` is stored.
const LISTED: u8 = 1 << 1;
/// Status bit: this guard accused the neighbor (implies [`REVOKED`]).
pub(crate) const ACCUSED: u8 = 1 << 2;
/// Status bit: another guard's alert named the neighbor as a suspect.
pub(crate) const SUSPECTED: u8 = 1 << 3;

/// Words of a block's slot: the start (in the arena) and length of the
/// neighbor's run `R_b` (meaningful when listed), then the last alert
/// round about it as two words (meaningful once accused).
const SLOT_WORDS: usize = 4;

/// One known neighbor's state, as unpacked from or packed into a block.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: NodeId,
    flags: u8,
    start: u32,
    len: u32,
    last_alert: Micros,
}

/// The block words of `n` neighbors: ids, status bytes four to a word,
/// slots.
fn block_words(n: usize) -> usize {
    slot_of(n, n)
}

/// The index, in a block of `n` entries, of entry `i`'s slot.
fn slot_of(n: usize, i: usize) -> usize {
    n + n.div_ceil(4) + SLOT_WORDS * i
}

/// Replaces the status byte of entry `i` of `block`.
fn set_flags_in(block: &mut [NodeId], n: usize, i: usize, flags: u8) {
    let word = &mut block[n + i / 4].0;
    let shift = 8 * (i % 4);
    *word = *word & !(0xff << shift) | u32::from(flags) << shift;
}

/// Writes `entry` as entry `i` of `block`.
fn put_entry(block: &mut [NodeId], n: usize, i: usize, entry: Entry) {
    block[i] = entry.id;
    set_flags_in(block, n, i, entry.flags);
    let s = slot_of(n, i);
    block[s..s + SLOT_WORDS].copy_from_slice(&[
        NodeId(entry.start),
        NodeId(entry.len),
        NodeId(entry.last_alert.0 as u32),
        NodeId((entry.last_alert.0 >> 32) as u32),
    ]);
}

/// A status word with every byte [`LISTED`] (a preloaded block's; the
/// last word's padding bytes are never read).
const ALL_LISTED: NodeId = NodeId(u32::from_le_bytes([LISTED; 4]));

/// An arena of `len` zero words, allocated once.
fn zeroed(len: usize) -> Arc<[NodeId]> {
    iter::repeat_n(NodeId(0), len).collect()
}

/// Asserts that `len` arena words are addressable by a slot's `u32`
/// range.
fn check_width(len: usize) {
    assert!(u32::try_from(len).is_ok(), "table arena exceeds u32 ranges");
}

/// A node's first- and second-hop neighbor knowledge.
///
/// Stored as one block of words in an arena, sized to the known
/// neighbors: their ids in ascending order, then a status byte per id
/// (revoked, listed, and the monitor's flags) four to a word, then a slot
/// per id (a `(start, len)` run of the arena and the last alert round).
/// The per-frame checks read only the ids and status bytes, which sit
/// together at the block's head. Every announced list is a run of the
/// same arena, sorted and deduplicated.
///
/// The arena is either a [`BlockArena`] shared read-only with the other
/// tables of a preloaded deployment (a neighbor's list is then its own
/// block's id column) or the table's own: its block at offset 0, then
/// exactly its live runs. Every write goes through copy-on-write, so a
/// table writes its arena only while it holds the only reference.
/// Ascending order everywhere matches the ordered-set iteration this
/// layout replaced, so everything derived from it (alert recipients,
/// announcements) keeps its order.
///
/// # Example
///
/// ```
/// use liteworp::neighbor::NeighborTable;
/// use liteworp::types::NodeId;
///
/// let mut t = NeighborTable::new(NodeId(0));
/// t.add_neighbor(NodeId(1));
/// t.add_neighbor(NodeId(2));
/// t.set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2), NodeId(5)]);
///
/// assert!(t.is_active_neighbor(NodeId(1)));
/// // Node 5 is reachable through 1: a valid previous hop for 1's forwards.
/// assert!(t.link_plausible(NodeId(5), NodeId(1)));
/// // Node 9 is not in R_1: a forward from 1 claiming prev=9 is bogus.
/// assert!(!t.link_plausible(NodeId(9), NodeId(1)));
/// // We neighbor both 1 and 2, and 2 ∈ R_1, so we guard the link 2 -> 1.
/// assert!(t.is_guard_of(NodeId(2), NodeId(1)));
/// ```
#[derive(Clone)]
pub struct NeighborTable {
    me: NodeId,
    /// Known first-hop neighbors (active and revoked).
    n: u32,
    /// Where the table's block starts in `arena`.
    at: u32,
    /// The block (`n` ascending ids, `n` status bytes packed four to a
    /// word, `n` slots of [`SLOT_WORDS`] words: entry `i` is the `i`-th
    /// id's) and every run a listed slot points at. Typed as ids so that
    /// a run reads out as `&[NodeId]`; status and slot words hold raw
    /// `u32`s.
    arena: Arc<[NodeId]>,
}

impl NeighborTable {
    /// Creates an empty table for node `me`.
    pub fn new(me: NodeId) -> Self {
        NeighborTable {
            me,
            n: 0,
            at: 0,
            // An empty `Arc` slice shares one static allocation.
            arena: Arc::default(),
        }
    }

    /// Creates node `me`'s table with its neighborhood already known:
    /// `neighbors` (ascending, distinct, without `me`) become active
    /// first-hop neighbors, and the `k`-th of `lists` (ascending and
    /// distinct) is `neighbors[k]`'s announced list. The table gets a
    /// private arena; [`BlockArena`] builds a whole deployment's tables
    /// without copying.
    ///
    /// # Example
    ///
    /// ```
    /// use liteworp::neighbor::NeighborTable;
    /// use liteworp::types::NodeId;
    ///
    /// // The middle of a path 0 - 1 - 2: R_0 = [1], R_2 = [1].
    /// let t = NeighborTable::with_lists(NodeId(1), [NodeId(0), NodeId(2)], [[NodeId(1)], [NodeId(1)]]);
    /// assert!(!t.link_plausible(NodeId(0), NodeId(2)), "0 is not in R_2");
    /// assert_eq!(t.neighbor_list_of(NodeId(2)), Some(&[NodeId(1)][..]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `neighbors` is not strictly ascending or contains `me`,
    /// if `lists` does not hold one list per neighbor, or if the table
    /// exceeds `u32::MAX` words (the width of a slot's range).
    pub fn with_lists<N, L>(me: NodeId, neighbors: N, lists: L) -> Self
    where
        N: IntoIterator<Item = NodeId>,
        N::IntoIter: ExactSizeIterator,
        L: IntoIterator,
        L::Item: IntoIterator<Item = NodeId>,
    {
        let neighbors = neighbors.into_iter();
        let n = neighbors.len();
        let mut words = vec![NodeId(0); block_words(n)];
        words[n..slot_of(n, 0)].fill(ALL_LISTED);
        let mut lists = lists.into_iter();
        let mut prev = None;
        let mut listed = 0;
        for (i, (id, list)) in neighbors.zip(lists.by_ref()).enumerate() {
            assert!(prev < Some(id), "neighbors must be strictly ascending");
            assert_ne!(id, me, "a node is not its own neighbor");
            prev = Some(id);
            listed += 1;
            words[i] = id;
            let start = words.len();
            words.extend(list);
            debug_assert!(words[start..].windows(2).all(|w| w[0] < w[1]));
            let s = slot_of(n, i);
            words[s] = NodeId(start as u32);
            words[s + 1] = NodeId((words.len() - start) as u32);
        }
        assert!(
            listed == n && lists.next().is_none(),
            "one list per neighbor"
        );
        check_width(words.len());
        NeighborTable {
            me,
            n: n as u32,
            at: 0,
            arena: words.into(),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// The table's block, writable. Copy-on-write: while the arena is
    /// shared, this first moves the table to a private arena of its own
    /// block and runs.
    fn block_mut(&mut self) -> &mut [NodeId] {
        if Arc::get_mut(&mut self.arena).is_none() {
            let mut own = zeroed(self.private_words(self.len(), None));
            self.copy_into(Arc::make_mut(&mut own), None, None);
            self.install(own, self.len());
        }
        let (at, words) = (self.at as usize, block_words(self.len()));
        // The arena is unique here, so this copies nothing.
        &mut Arc::make_mut(&mut self.arena)[at..at + words]
    }

    /// Arena words of a private copy of this table with a block of `n`
    /// entries, without `skip`'s run.
    fn private_words(&self, n: usize, skip: Option<usize>) -> usize {
        let skipped = skip.map_or(0, |i| self.run(i).1 as usize);
        block_words(n) + self.stored_ids() - skipped
    }

    /// Lays this table out afresh at the head of `words`: a block with a
    /// blank entry `insert` at its sorted index (if given), then every
    /// entry's run except `skip`'s, in entry order, with each slot
    /// pointing at its copy. Returns where the copied runs end.
    fn copy_into(
        &self,
        words: &mut [NodeId],
        insert: Option<(usize, NodeId)>,
        skip: Option<usize>,
    ) -> usize {
        let n = self.len() + usize::from(insert.is_some());
        let mut end = block_words(n);
        for k in 0..self.len() {
            let mut entry = self.entry(k);
            let run = entry.start as usize..(entry.start + entry.len) as usize;
            entry.start = end as u32;
            if Some(k) == skip {
                entry.len = 0;
            } else {
                words[end..end + run.len()].copy_from_slice(&self.arena[run.clone()]);
                end += run.len();
            }
            let i = match insert {
                Some((at, _)) if k >= at => k + 1,
                _ => k,
            };
            put_entry(words, n, i, entry);
        }
        if let Some((at, id)) = insert {
            let blank = Entry {
                id,
                flags: 0,
                start: 0,
                len: 0,
                last_alert: Micros::default(),
            };
            put_entry(words, n, at, blank);
        }
        end
    }

    /// Makes `arena` the table's own, holding a block of `n` entries at
    /// offset 0.
    fn install(&mut self, arena: Arc<[NodeId]>, n: usize) {
        check_width(arena.len());
        self.arena = arena;
        self.at = 0;
        self.n = n as u32;
    }

    /// The known ids, ascending: the head of the table's block.
    fn ids(&self) -> &[NodeId] {
        let at = self.at as usize;
        &self.arena[at..at + self.len()]
    }

    /// Word `k` of the table's block. Every read of the block goes
    /// through here or [`NeighborTable::ids`], one bounds check each, so
    /// a shared and a private table are read alike.
    fn word(&self, k: usize) -> u32 {
        self.arena[self.at as usize + k].0
    }

    /// The status byte of entry `i`.
    fn flags_at(&self, i: usize) -> u8 {
        (self.word(self.len() + i / 4) >> (8 * (i % 4))) as u8
    }

    /// Replaces the status byte of entry `i`.
    fn set_flags(&mut self, i: usize, flags: u8) {
        let n = self.len();
        set_flags_in(self.block_mut(), n, i, flags);
    }

    /// Adds `bits` to the status byte of entry `i`.
    fn mark(&mut self, i: usize, bits: u8) {
        self.set_flags(i, self.flags_at(i) | bits);
    }

    /// Entry `i`'s run `(start, len)` in the arena.
    fn run(&self, i: usize) -> (u32, u32) {
        let s = slot_of(self.len(), i);
        (self.word(s), self.word(s + 1))
    }

    /// When this guard last alerted about entry `i`.
    fn last_alert(&self, i: usize) -> Micros {
        let s = slot_of(self.len(), i);
        Micros(u64::from(self.word(s + 2)) | u64::from(self.word(s + 3)) << 32)
    }

    /// Entry `i`, unpacked.
    fn entry(&self, i: usize) -> Entry {
        let (start, len) = self.run(i);
        Entry {
            id: self.ids()[i],
            flags: self.flags_at(i),
            start,
            len,
            last_alert: self.last_alert(i),
        }
    }

    /// The slot index of `n`, if known.
    pub(crate) fn find(&self, n: NodeId) -> Option<usize> {
        self.ids().binary_search(&n).ok()
    }

    /// The slot index of `n`, inserting an empty entry if unknown (the
    /// table moves to a new private arena one entry longer: inserts
    /// happen while tables are filled and on revocations of strangers,
    /// never per frame).
    fn find_or_insert(&mut self, n: NodeId) -> usize {
        match self.ids().binary_search(&n) {
            Ok(i) => i,
            Err(at) => {
                let mut own = zeroed(self.private_words(self.len() + 1, None));
                self.copy_into(Arc::make_mut(&mut own), Some((at, n)), None);
                self.install(own, self.len() + 1);
                at
            }
        }
    }

    /// The status byte of a known neighbor ([`REVOKED`], [`ACCUSED`],
    /// [`SUSPECTED`]), or `None` for an unknown id.
    pub(crate) fn flags(&self, n: NodeId) -> Option<u8> {
        self.find(n).map(|i| self.flags_at(i))
    }

    /// Registers a first-hop neighbor (idempotent; does not resurrect a
    /// revoked neighbor).
    ///
    /// # Panics
    ///
    /// Panics if asked to add the owner itself.
    pub fn add_neighbor(&mut self, n: NodeId) {
        assert_ne!(n, self.me, "a node is not its own neighbor");
        self.find_or_insert(n);
    }

    /// Stores neighbor `b`'s announced list `R_b` (second-hop knowledge),
    /// replacing any earlier one. Ignored if `b` is not a known neighbor —
    /// per the protocol, a node only accepts list announcements from
    /// verified neighbors. The list may come unsorted and with repeats.
    ///
    /// Every call moves the table to a fresh private arena, exactly as
    /// long as its block and live runs: the other stored lists in slot
    /// order, then the new one, sorted and deduplicated in place.
    ///
    /// Returns whether the list was stored.
    ///
    /// # Panics
    ///
    /// Panics if the table would exceed `u32::MAX` words (the width of a
    /// slot's range).
    pub fn set_neighbor_list<I: IntoIterator<Item = NodeId>>(
        &mut self,
        b: NodeId,
        list: I,
    ) -> bool {
        let Some(i) = self.find(b) else {
            return false;
        };
        let flags = self.flags_at(i) | LISTED;
        let mut words = vec![NodeId(0); self.private_words(self.len(), Some(i))];
        let start = self.copy_into(&mut words, None, Some(i));
        words.extend(list);
        let run = &mut words[start..];
        run.sort_unstable();
        let len = dedup_sorted(run);
        words.truncate(start + len);
        let n = self.len();
        let s = slot_of(n, i);
        words[s] = NodeId(start as u32);
        words[s + 1] = NodeId(len as u32);
        set_flags_in(&mut words, n, i, flags);
        self.install(words.into(), n);
        true
    }

    /// The status of `n`, or `None` if it is not a known neighbor.
    pub fn status(&self, n: NodeId) -> Option<NeighborStatus> {
        self.flags(n).map(|f| {
            if f & REVOKED != 0 {
                NeighborStatus::Revoked
            } else {
                NeighborStatus::Active
            }
        })
    }

    /// Whether `n` is a *known* neighbor (active or revoked).
    pub fn is_neighbor(&self, n: NodeId) -> bool {
        self.find(n).is_some()
    }

    /// Whether `n` is an active (non-revoked) neighbor.
    pub fn is_active_neighbor(&self, n: NodeId) -> bool {
        self.status(n) == Some(NeighborStatus::Active)
    }

    /// Whether `n` has been revoked.
    pub fn is_revoked(&self, n: NodeId) -> bool {
        self.status(n) == Some(NeighborStatus::Revoked)
    }

    /// Marks `n` as revoked. Unknown ids are recorded as revoked too, so
    /// that an alert about a not-yet-discovered node still takes effect.
    pub fn revoke(&mut self, n: NodeId) {
        let i = self.find_or_insert(n);
        self.mark(i, REVOKED);
    }

    /// Whether this node's monitor accused `n` (see
    /// [`crate::monitor::LocalMonitor`]).
    pub fn is_accused(&self, n: NodeId) -> bool {
        self.flags(n).is_some_and(|f| f & ACCUSED != 0)
    }

    /// Revokes `n` as accused by this node's monitor, opening its first
    /// alert round at `now`.
    pub(crate) fn accuse(&mut self, n: NodeId, now: Micros) {
        let i = self.find_or_insert(n);
        self.mark(i, ACCUSED | REVOKED);
        self.set_last_alert(i, now);
    }

    fn set_last_alert(&mut self, i: usize, t: Micros) {
        let s = slot_of(self.len(), i);
        let block = self.block_mut();
        block[s + 2] = NodeId(t.0 as u32);
        block[s + 3] = NodeId((t.0 >> 32) as u32);
    }

    /// Whether an accused `n` is due another alert round at `now` (at
    /// least `interval_us` after the last); if so, opens it.
    pub(crate) fn realert_due(&mut self, n: NodeId, now: Micros, interval_us: u64) -> bool {
        let Some(i) = self.find(n) else {
            return false;
        };
        let due = self.flags_at(i) & ACCUSED != 0
            && now.0.saturating_sub(self.last_alert(i).0) >= interval_us;
        if due {
            self.set_last_alert(i, now);
        }
        due
    }

    /// Records that another guard's alert named `n` as a suspect. Only
    /// known neighbors are recorded: the monitor judges and watches no
    /// one else, so the mark would change nothing for an unknown id.
    pub(crate) fn mark_suspected(&mut self, n: NodeId) {
        if let Some(i) = self.find(n) {
            self.mark(i, SUSPECTED);
        }
    }

    /// Active neighbors in ascending id order.
    pub fn active_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len())
            .filter(|&i| self.flags_at(i) & REVOKED == 0)
            .map(|i| self.ids()[i])
    }

    /// Count of known neighbors (active and revoked).
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no neighbors are known.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn list_at(&self, i: usize) -> Option<&[NodeId]> {
        let (start, len) = self.run(i);
        (self.flags_at(i) & LISTED != 0)
            .then(|| &self.arena[start as usize..(start + len) as usize])
    }

    /// Second-hop ids stored over all runs (an unlisted run is empty).
    fn stored_ids(&self) -> usize {
        (0..self.len()).map(|i| self.run(i).1 as usize).sum()
    }

    /// The stored neighbor list `R_b` of neighbor `b` in ascending order,
    /// if announced.
    pub fn neighbor_list_of(&self, b: NodeId) -> Option<&[NodeId]> {
        self.find(b).and_then(|i| self.list_at(i))
    }

    /// Whether a packet forwarded by `via` claiming previous hop `prev`
    /// is plausible: `via` must be an active neighbor and `prev` must be
    /// in `via`'s announced neighbor list (or be this node itself).
    ///
    /// This is the second-hop legitimacy check of Section 4.2.1: "If a
    /// node C receives a packet forwarded by B purporting to come from A
    /// in the previous hop, C discards the packet if A is not a second
    /// hop neighbor."
    pub fn link_plausible(&self, prev: NodeId, via: NodeId) -> bool {
        let Some(i) = self.find(via) else {
            return false;
        };
        !self.revoked_at(i) && (prev == self.me || self.lists_at(i, prev))
    }

    /// Whether this node guards the link `prev → via`: the two ends must
    /// differ, and each must be known to this node — a first-hop neighbor
    /// (active or revoked) or the node itself, since a sender trivially
    /// guards its own outgoing links. The announced lists are not
    /// consulted: the rule does not check that `prev` and `via` neighbor
    /// each other.
    pub fn is_guard_of(&self, prev: NodeId, via: NodeId) -> bool {
        Self::guarded_link((prev, self.link_end(prev)), (via, self.link_end(via))).is_some()
    }

    /// `n` as one end of a link this node may guard: its status byte, `0`
    /// for the owner when it has no slot (a revocation may have recorded
    /// one), `None` for a stranger.
    pub(crate) fn link_end(&self, n: NodeId) -> Option<u8> {
        self.end_at(n, self.find(n))
    }

    /// [`NeighborTable::link_end`] of `n`, whose slot index `at` was
    /// already found.
    pub(crate) fn end_at(&self, n: NodeId, at: Option<usize>) -> Option<u8> {
        at.map(|i| self.flags_at(i)).or((n == self.me).then_some(0))
    }

    /// Whether the known neighbor at slot `i` is revoked.
    pub(crate) fn revoked_at(&self, i: usize) -> bool {
        self.flags_at(i) & REVOKED != 0
    }

    /// Whether `prev` is in the announced list of the neighbor at slot
    /// `i` (`false` when it announced none).
    pub(crate) fn lists_at(&self, i: usize, prev: NodeId) -> bool {
        self.list_at(i)
            .is_some_and(|list| list.binary_search(&prev).is_ok())
    }

    /// The guard rule of [`NeighborTable::is_guard_of`] over two ends
    /// already looked up with [`NeighborTable::link_end`], so a caller
    /// judging several links of one frame looks each id up once: the
    /// status bytes of `prev` and `via` when the link is guarded, else
    /// `None`.
    pub(crate) fn guarded_link(
        (prev, prev_end): (NodeId, Option<u8>),
        (via, via_end): (NodeId, Option<u8>),
    ) -> Option<(u8, u8)> {
        if prev == via {
            return None;
        }
        Some((prev_end?, via_end?))
    }

    /// Approximate storage footprint in bytes, matching the Section 5.2
    /// accounting: 5 bytes per first-hop entry (4-byte id + 1-byte MalC)
    /// plus 4 bytes per stored second-hop id.
    pub fn storage_bytes(&self) -> usize {
        self.len() * 5 + self.stored_ids() * 4
    }
}

/// Prints the table's own state: each known neighbor with its status
/// byte, last alert round and stored list. The arena itself is never
/// printed, since it may hold a whole deployment's adjacency.
impl fmt::Debug for NeighborTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NeighborTable")
            .field("me", &self.me)
            .field("neighbors", &OwnRuns(self))
            .finish()
    }
}

/// A table's neighbors as a map: `id: (status byte, last alert, R_id)`.
struct OwnRuns<'a>(&'a NeighborTable);

impl fmt::Debug for OwnRuns<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        f.debug_map()
            .entries((0..t.len()).map(|i| {
                let e = t.entry(i);
                (e.id, (e.flags, e.last_alert, t.list_at(i)))
            }))
            .finish()
    }
}

/// Moves the distinct values of the sorted `run` to its front; returns
/// how many there are.
fn dedup_sorted(run: &mut [NodeId]) -> usize {
    let mut w = 0;
    for r in 0..run.len() {
        if w == 0 || run[r] != run[w - 1] {
            run[w] = run[r];
            w += 1;
        }
    }
    w
}

/// Every preloaded table of a deployment, laid out back to back in one
/// shared arena: node `i`'s block (its ascending in-range ids, every
/// status byte "listed", and one slot per neighbor) in node order. A
/// neighbor `b`'s announced list is `b`'s own in-range set, which is the
/// id column at the head of `b`'s block, so each slot points there and
/// the arena holds every list exactly once. [`BlockArena::table`] hands
/// out a table as an `Arc` clone and an offset, copying nothing; the
/// table's first write moves it to a private arena (see
/// [`NeighborTable`]).
///
/// # Example
///
/// ```
/// use liteworp::neighbor::BlockArena;
/// use liteworp::types::NodeId;
///
/// // A path 0 - 1 - 2 as an adjacency list: R_0 = [1], R_1 = [0, 2],
/// // R_2 = [1].
/// let ids = [1, 0, 2, 1].map(NodeId);
/// let blocks = BlockArena::from_adjacency(&ids, &[(0, 1), (1, 3), (3, 4)], |id| id);
/// let t = blocks.table(NodeId(1));
/// assert!(!t.link_plausible(NodeId(0), NodeId(2)), "0 is not in R_2");
/// assert_eq!(t.neighbor_list_of(NodeId(2)), Some(&[NodeId(1)][..]));
/// ```
pub struct BlockArena {
    arena: Arc<[NodeId]>,
    /// Node `i`'s block: its offset in `arena` and its neighbor count.
    blocks: Vec<(u32, u32)>,
}

impl BlockArena {
    /// Lays out the tables of a deployment whose node `i` has the
    /// in-range set `ids[rows[i].0..rows[i].1]` (ascending, without `i`),
    /// each id mapped through `id`: one pass over the rows to size the
    /// blocks, one to fill them, and one allocation.
    ///
    /// # Panics
    ///
    /// Panics if a row falls outside `ids`, if a mapped id is not a node
    /// of the deployment (`0..rows.len()`), or if the arena exceeds
    /// `u32::MAX` words (the width of a slot's range).
    pub fn from_adjacency<T: Copy>(
        ids: &[T],
        rows: &[(usize, usize)],
        id: impl Fn(T) -> NodeId,
    ) -> Self {
        let mut total = 0;
        let blocks: Vec<(u32, u32)> = rows
            .iter()
            .map(|&(start, end)| {
                let at = total;
                total += block_words(end - start);
                (at as u32, (end - start) as u32)
            })
            .collect();
        check_width(total);
        let mut arena = zeroed(total);
        // Just allocated, so unique: this copies nothing.
        let words = Arc::make_mut(&mut arena);
        for (&(start, end), &(at, n)) in rows.iter().zip(&blocks) {
            let n = n as usize;
            let block = &mut words[at as usize..at as usize + block_words(n)];
            let (own, rest) = block.split_at_mut(n);
            let (flags, slots) = rest.split_at_mut(n.div_ceil(4));
            flags.fill(ALL_LISTED);
            for ((word, &nb), slot) in own
                .iter_mut()
                .zip(&ids[start..end])
                .zip(slots.chunks_exact_mut(SLOT_WORDS))
            {
                *word = id(nb);
                // The neighbor's list is its block's id column.
                let (list_at, list_len) = blocks[word.0 as usize];
                slot[0] = NodeId(list_at);
                slot[1] = NodeId(list_len);
            }
            debug_assert!(own.windows(2).all(|w| w[0] < w[1]));
        }
        BlockArena { arena, blocks }
    }

    /// Node `me`'s table: its block of the shared arena, as if `me` had
    /// completed secure discovery.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a node of the deployment.
    pub fn table(&self, me: NodeId) -> NeighborTable {
        let (at, n) = self.blocks[me.0 as usize];
        NeighborTable {
            me,
            n,
            at,
            arena: Arc::clone(&self.arena),
        }
    }
}

/// Prints the arena's size, never its words.
impl fmt::Debug for BlockArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockArena")
            .field("tables", &self.blocks.len())
            .field("words", &self.arena.len())
            .finish()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> NeighborTable {
        let mut t = NeighborTable::new(NodeId(0));
        t.add_neighbor(NodeId(1));
        t.add_neighbor(NodeId(2));
        t.set_neighbor_list(NodeId(1), [NodeId(0), NodeId(2), NodeId(5)]);
        t.set_neighbor_list(NodeId(2), [NodeId(0), NodeId(1)]);
        t
    }

    #[test]
    fn membership_queries() {
        let t = table();
        assert!(t.is_neighbor(NodeId(1)));
        assert!(t.is_active_neighbor(NodeId(1)));
        assert!(!t.is_neighbor(NodeId(5)), "second hop is not first hop");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn revocation_excludes_from_active() {
        let mut t = table();
        t.revoke(NodeId(1));
        assert!(t.is_neighbor(NodeId(1)));
        assert!(!t.is_active_neighbor(NodeId(1)));
        assert!(t.is_revoked(NodeId(1)));
        assert_eq!(t.active_neighbors().collect::<Vec<_>>(), vec![NodeId(2)]);
    }

    #[test]
    fn add_does_not_resurrect_revoked() {
        let mut t = table();
        t.revoke(NodeId(1));
        t.add_neighbor(NodeId(1));
        assert!(t.is_revoked(NodeId(1)));
    }

    #[test]
    fn revoking_unknown_node_sticks() {
        let mut t = table();
        t.revoke(NodeId(9));
        assert!(t.is_revoked(NodeId(9)));
        assert!(!t.is_active_neighbor(NodeId(9)));
    }

    #[test]
    fn link_plausibility() {
        let t = table();
        assert!(t.link_plausible(NodeId(5), NodeId(1)));
        assert!(t.link_plausible(NodeId(2), NodeId(1)));
        assert!(!t.link_plausible(NodeId(9), NodeId(1)), "9 not in R_1");
        assert!(!t.link_plausible(NodeId(5), NodeId(9)), "9 not my neighbor");
        // prev == me is always plausible (I know what I sent).
        assert!(t.link_plausible(NodeId(0), NodeId(2)));
    }

    #[test]
    fn link_plausible_rejects_revoked_via() {
        let mut t = table();
        t.revoke(NodeId(1));
        assert!(!t.link_plausible(NodeId(5), NodeId(1)));
    }

    #[test]
    fn link_without_announced_list_is_implausible() {
        let mut t = NeighborTable::new(NodeId(0));
        t.add_neighbor(NodeId(1));
        assert!(!t.link_plausible(NodeId(5), NodeId(1)));
    }

    #[test]
    fn guard_determination() {
        let t = table();
        // 0 neighbors both 1 and 2: guards the links between them.
        assert!(t.is_guard_of(NodeId(2), NodeId(1)));
        assert!(t.is_guard_of(NodeId(1), NodeId(2)));
        // Own outgoing links are guarded too.
        assert!(t.is_guard_of(NodeId(0), NodeId(1)));
        // Not a guard when one endpoint is unknown.
        assert!(!t.is_guard_of(NodeId(9), NodeId(1)));
        // Degenerate link.
        assert!(!t.is_guard_of(NodeId(1), NodeId(1)));
    }

    #[test]
    fn neighbor_list_rejected_from_stranger() {
        let mut t = table();
        assert!(!t.set_neighbor_list(NodeId(7), [NodeId(1)]));
        assert!(t.neighbor_list_of(NodeId(7)).is_none());
    }

    #[test]
    fn storage_accounting() {
        let t = table();
        // 2 first-hop entries * 5 + (3 + 2) second-hop ids * 4 = 30.
        assert_eq!(t.storage_bytes(), 30);
    }

    #[test]
    fn announced_lists_are_stored_sorted_and_deduplicated() {
        let mut t = table();
        t.set_neighbor_list(NodeId(2), [NodeId(7), NodeId(0), NodeId(7), NodeId(3)]);
        assert_eq!(
            t.neighbor_list_of(NodeId(2)),
            Some(&[NodeId(0), NodeId(3), NodeId(7)][..])
        );
        assert!(t.link_plausible(NodeId(7), NodeId(2)));
        assert!(!t.link_plausible(NodeId(1), NodeId(2)), "old list replaced");
        // An empty announcement is still an announcement.
        t.set_neighbor_list(NodeId(1), []);
        assert_eq!(t.neighbor_list_of(NodeId(1)), Some(&[][..]));
    }

    #[test]
    fn repeated_reannouncement_keeps_the_arena_exact() {
        let mut t = table();
        for round in 0..200u32 {
            // Alternate short and long lists: each call rewrites the
            // arena to exactly the live runs either way.
            let len = if round % 2 == 0 { 3 } else { 9 };
            t.set_neighbor_list(NodeId(1), (0..len).map(|k| NodeId(round + k)));
            assert_eq!(
                t.neighbor_list_of(NodeId(1)).map(<[NodeId]>::len),
                Some(len as usize)
            );
        }
        let live = 9 + 2; // R_1 (last round: 9 ids) + R_2
        assert_eq!(t.arena.len(), block_words(2) + live);
        assert_eq!(
            t.neighbor_list_of(NodeId(2)),
            Some(&[NodeId(0), NodeId(1)][..])
        );
        assert_eq!(t.storage_bytes(), 2 * 5 + live * 4);
    }

    /// A ring of `n` nodes, each in range of the two before and after it,
    /// as an adjacency list.
    fn ring(n: u32) -> (Vec<NodeId>, Vec<(usize, usize)>) {
        let mut ids = Vec::new();
        let rows = (0..n)
            .map(|i| {
                let start = ids.len();
                let mut row = [n - 2, n - 1, 1, 2].map(|d| NodeId((i + d) % n));
                row.sort_unstable();
                ids.extend(row);
                (start, ids.len())
            })
            .collect();
        (ids, rows)
    }

    /// `t`'s state in a private arena of its own: its writes take the
    /// in-place path.
    fn private_twin(t: &NeighborTable) -> NeighborTable {
        let mut twin = t.clone();
        twin.block_mut();
        assert!(Arc::get_mut(&mut twin.arena).is_some());
        assert_eq!(format!("{twin:?}"), format!("{t:?}"));
        twin
    }

    /// A write to a table, given its neighbors, and whether it writes
    /// the table's block in place when the arena is its own.
    type Write = (&'static str, fn(&mut NeighborTable, &[NodeId]), bool);

    /// Every write path: the status byte, the last alert round, an
    /// insert, and a stored list.
    const WRITES: [Write; 7] = [
        ("revoke", |t, nb| t.revoke(nb[1]), true),
        ("mark_suspected", |t, nb| t.mark_suspected(nb[3]), true),
        ("accuse", |t, nb| t.accuse(nb[2], Micros(5)), true),
        (
            "realert_due",
            |t, nb| assert!(t.realert_due(nb[0], Micros(500), 100)),
            true,
        ),
        ("revoke a stranger", |t, _| t.revoke(NodeId(50)), false),
        ("add_neighbor", |t, _| t.add_neighbor(NodeId(40)), false),
        (
            "set_neighbor_list",
            |t, nb| assert!(t.set_neighbor_list(nb[0], [NodeId(99), NodeId(7)])),
            false,
        ),
    ];

    #[test]
    fn writes_to_one_table_leave_its_arena_siblings_alone() {
        let (ids, rows) = ring(8);
        let blocks = BlockArena::from_adjacency(&ids, &rows, |id| id);
        let pristine = blocks.arena.to_vec();
        let mut tables: Vec<NeighborTable> = (0..8).map(|i| blocks.table(NodeId(i))).collect();
        for t in &mut tables {
            // `realert_due` writes only for an accused neighbor: accuse
            // one in a private arena, then share that arena with a clone.
            let nb = t.ids()[0];
            t.accuse(nb, Micros(0));
            let accused = t.clone();
            assert!(Arc::ptr_eq(&accused.arena, &t.arena));
        }
        let shared: Vec<NeighborTable> = (0..8).map(|i| blocks.table(NodeId(i))).collect();
        for (name, write, in_place) in WRITES {
            let base = if name == "realert_due" {
                &tables
            } else {
                &shared
            };
            let before: Vec<String> = base.iter().map(|t| format!("{t:?}")).collect();
            for target in 0..base.len() {
                // Clones share the arena too.
                let mut ts = base.clone();
                let nb = ts[target].ids().to_vec();
                let mut twin = private_twin(&ts[target]);
                let twin_arena = Arc::as_ptr(&twin.arena);
                write(&mut twin, &nb);
                let moved = !std::ptr::addr_eq(Arc::as_ptr(&twin.arena), twin_arena);
                assert_eq!(moved, !in_place, "{name}");
                let t = &mut ts[target];
                let was = Arc::clone(&t.arena);
                write(t, &nb);
                // The writer moved to a private arena of exactly its block
                // and live runs, and holds what the in-place write gave.
                assert!(!Arc::ptr_eq(&t.arena, &was), "{name}");
                assert_eq!(t.at, 0, "{name}");
                assert_eq!(t.arena.len(), block_words(t.len()) + t.stored_ids());
                assert_eq!(format!("{t:?}"), format!("{twin:?}"), "{name}");
                assert_ne!(format!("{t:?}"), before[target], "{name}");
                for (k, other) in ts.iter().enumerate() {
                    if k != target {
                        assert_eq!(format!("{other:?}"), before[k], "{name}: table {k}");
                    }
                }
                assert_eq!(&blocks.arena[..], &pristine[..], "{name}");
            }
        }
        // A private table writes in place; nothing else holds its arena.
        let t = &mut tables[0];
        let arena = Arc::as_ptr(&t.arena);
        t.mark_suspected(t.ids()[1]);
        assert!(std::ptr::addr_eq(Arc::as_ptr(&t.arena), arena));
    }

    #[test]
    fn shared_tables_match_private_ones() {
        let (ids, rows) = ring(8);
        let blocks = BlockArena::from_adjacency(&ids, &rows, |id| id);
        for i in 0..8u32 {
            let t = blocks.table(NodeId(i));
            assert_eq!(t.owner(), NodeId(i));
            let (start, end) = rows[i as usize];
            assert_eq!(t.ids(), &ids[start..end]);
            for (k, &nb) in t.ids().iter().enumerate() {
                let (s, e) = rows[nb.0 as usize];
                assert_eq!(t.list_at(k), Some(&ids[s..e]), "R_{nb} is its row");
            }
            let lists = (0..t.len()).map(|k| t.list_at(k).unwrap_or_default().to_vec());
            let built = NeighborTable::with_lists(t.me, t.ids().iter().copied(), lists);
            assert_eq!(format!("{t:?}"), format!("{built:?}"));
            assert_eq!(t.storage_bytes(), 4 * 5 + 4 * 4 * 4);
        }
        assert_eq!(
            format!("{blocks:?}"),
            format!("BlockArena {{ tables: 8, words: {} }}", 8 * block_words(4))
        );
    }

    #[test]
    fn debug_prints_own_runs_only() {
        // A path of 100 nodes: node 50's table lives among 99 others.
        let mut ids = Vec::new();
        let rows: Vec<(usize, usize)> = (0..100u32)
            .map(|i| {
                let start = ids.len();
                ids.extend(
                    [i.checked_sub(1), (i < 99).then_some(i + 1)]
                        .into_iter()
                        .flatten()
                        .map(NodeId),
                );
                (start, ids.len())
            })
            .collect();
        let t = BlockArena::from_adjacency(&ids, &rows, |id| id).table(NodeId(50));
        let text = format!("{t:?}");
        assert!(
            text.contains("NodeId(49): (2, Micros(0), Some([NodeId(48), NodeId(50)]))"),
            "{text}"
        );
        assert!(text.contains("[NodeId(50), NodeId(52)]"), "{text}");
        assert!(
            !text.contains("NodeId(47)") && !text.contains("NodeId(53)"),
            "{text}"
        );
    }

    #[test]
    fn monitor_marks_live_in_the_slots() {
        let mut t = table();
        t.mark_suspected(NodeId(9)); // unknown: nothing to mark
        assert!(!t.is_neighbor(NodeId(9)));
        t.mark_suspected(NodeId(2));
        assert!(t.flags(NodeId(2)).is_some_and(|f| f & SUSPECTED != 0));
        assert!(
            !t.is_revoked(NodeId(2)),
            "a suspicion alone does not revoke"
        );
        // Accusing an unknown id revokes it, like `revoke`.
        t.accuse(NodeId(8), Micros(100));
        assert!(t.is_accused(NodeId(8)) && t.is_revoked(NodeId(8)));
        assert!(!t.realert_due(NodeId(8), Micros(150), 100));
        assert!(t.realert_due(NodeId(8), Micros(200), 100));
        assert!(
            !t.realert_due(NodeId(8), Micros(250), 100),
            "round reopened at 200"
        );
        assert!(
            !t.realert_due(NodeId(1), Micros(1_000), 100),
            "never accused"
        );
    }

    #[test]
    #[should_panic(expected = "not its own neighbor")]
    fn rejects_self_neighbor() {
        NeighborTable::new(NodeId(0)).add_neighbor(NodeId(0));
    }
}
