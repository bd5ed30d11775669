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
//! (for the second) one over a short sorted run of a second-hop arena, so
//! the state a guard touches per overheard frame sits in a few contiguous
//! cache lines. Each neighbor's slot also carries the guard's standing
//! judgment of it (accused, suspected by another guard, last alert
//! round), which [`crate::monitor::LocalMonitor`] reads on every frame.
//!
//! A preloaded table does not copy its lists: every table of a deployment
//! points into one shared, read-only arena (the deployment's adjacency,
//! see [`NeighborTable::with_lists`]). The arena is copy-on-write: the
//! first [`NeighborTable::set_neighbor_list`] gives the table a private
//! arena, so no table ever writes an arena another table reads.

use crate::types::{Micros, NodeId};
use std::fmt;
use std::ops::Range;
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

/// Words of a block's slot: the start and length of the neighbor's run
/// `R_b` in the second-hop arena (meaningful when listed), then the last
/// alert round about it as two words (meaningful once accused).
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
    n + n.div_ceil(4) + SLOT_WORDS * n
}

/// A node's first- and second-hop neighbor knowledge.
///
/// Stored as one block of words, sized to the known neighbors: their ids
/// in ascending order, then a status byte per id (revoked, listed, and the
/// monitor's flags) four to a word, then a slot per id (a `(start, len)`
/// range and the last alert round). The per-frame checks read only the
/// ids and status bytes, which sit together at the block's head. Beside
/// the block, an arena holds every announced list as a run, each sorted
/// and deduplicated.
/// The arena is either shared read-only with the other tables of a
/// preloaded deployment or the table's own, exactly as long as its live
/// runs. Ascending order everywhere matches the ordered-set iteration
/// this layout replaced, so everything derived from it (alert
/// recipients, announcements) keeps its order.
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
    /// `n` ascending ids, `n` status bytes packed four to a word, `n`
    /// slots of [`SLOT_WORDS`] words: entry `i` is the `i`-th id's.
    block: Box<[u32]>,
    /// The arena every listed slot's run points into. Never written:
    /// [`NeighborTable::set_neighbor_list`] replaces it with a private
    /// copy of the live runs, so one arena can back many tables.
    second: Arc<[NodeId]>,
}

impl NeighborTable {
    /// Creates an empty table for node `me`.
    pub fn new(me: NodeId) -> Self {
        NeighborTable {
            me,
            n: 0,
            block: Box::default(),
            // An empty `Arc` slice shares one static allocation.
            second: Arc::default(),
        }
    }

    /// Creates node `me`'s table with its neighborhood already known:
    /// `neighbors` (ascending, distinct, without `me`) become active
    /// first-hop neighbors, and the `k`-th range of `lists` is the run of
    /// `arena` holding `neighbors[k]`'s announced list (ascending and
    /// distinct). The runs are read in place, so every table built on one
    /// arena shares it until its own first
    /// [`NeighborTable::set_neighbor_list`].
    ///
    /// # Example
    ///
    /// ```
    /// use liteworp::neighbor::NeighborTable;
    /// use liteworp::types::NodeId;
    /// use std::sync::Arc;
    ///
    /// // A path 0 - 1 - 2 as one adjacency arena: R_0 = [1],
    /// // R_1 = [0, 2], R_2 = [1].
    /// let arena: Arc<[NodeId]> = [1, 0, 2, 1].map(NodeId).into();
    /// let t = NeighborTable::with_lists(NodeId(1), vec![NodeId(0), NodeId(2)], arena, [0..1, 3..4]);
    /// assert!(!t.link_plausible(NodeId(0), NodeId(2)), "0 is not in R_2");
    /// assert_eq!(t.neighbor_list_of(NodeId(2)), Some(&[NodeId(1)][..]));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `neighbors` is not strictly ascending or contains `me`,
    /// if `lists` does not hold one range per neighbor, if a range falls
    /// outside `arena`, or if `arena` exceeds `u32::MAX` ids (the width
    /// of a slot's range).
    pub fn with_lists<L>(me: NodeId, neighbors: Vec<NodeId>, arena: Arc<[NodeId]>, lists: L) -> Self
    where
        L: IntoIterator<Item = Range<usize>>,
    {
        assert!(
            u32::try_from(arena.len()).is_ok(),
            "second-hop arena exceeds u32 ranges"
        );
        assert!(
            neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbors must be strictly ascending"
        );
        assert!(
            neighbors.binary_search(&me).is_err(),
            "a node is not its own neighbor"
        );
        let n = neighbors.len();
        let mut block = vec![0u32; block_words(n)].into_boxed_slice();
        let (ids, rest) = block.split_at_mut(n);
        let (flags, slots) = rest.split_at_mut(n.div_ceil(4));
        for (word, id) in ids.iter_mut().zip(&neighbors) {
            *word = id.0;
        }
        let listed = u32::from_le_bytes([LISTED; 4]);
        flags.fill(listed);
        let mut lists = lists.into_iter();
        let mut listed = 0;
        for (slot, run) in slots.chunks_exact_mut(SLOT_WORDS).zip(lists.by_ref()) {
            assert!(
                run.start <= run.end && run.end <= arena.len(),
                "list outside the arena"
            );
            debug_assert!(arena[run.clone()].windows(2).all(|w| w[0] < w[1]));
            slot[0] = run.start as u32;
            slot[1] = run.len() as u32;
            listed += 1;
        }
        assert!(
            listed == n && lists.next().is_none(),
            "one list per neighbor"
        );
        // (The last status word's padding bytes are never read.)
        NeighborTable {
            me,
            n: n as u32,
            block,
            second: arena,
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// The known ids, ascending, as words.
    fn ids(&self) -> &[u32] {
        &self.block[..self.n as usize]
    }

    /// The status byte of entry `i`.
    fn flags_at(&self, i: usize) -> u8 {
        let word = self.block[self.n as usize + i / 4];
        (word >> (8 * (i % 4))) as u8
    }

    /// Replaces the status byte of entry `i`.
    fn set_flags(&mut self, i: usize, flags: u8) {
        let word = &mut self.block[self.n as usize + i / 4];
        let shift = 8 * (i % 4);
        *word = *word & !(0xff << shift) | u32::from(flags) << shift;
    }

    /// Adds `bits` to the status byte of entry `i`.
    fn mark(&mut self, i: usize, bits: u8) {
        self.set_flags(i, self.flags_at(i) | bits);
    }

    /// The block index of entry `i`'s slot.
    fn slot(&self, i: usize) -> usize {
        let n = self.n as usize;
        n + n.div_ceil(4) + SLOT_WORDS * i
    }

    /// Entry `i`'s run `(start, len)` in the arena.
    fn run(&self, i: usize) -> (u32, u32) {
        let s = self.slot(i);
        (self.block[s], self.block[s + 1])
    }

    /// When this guard last alerted about entry `i`.
    fn last_alert(&self, i: usize) -> Micros {
        let s = self.slot(i);
        Micros(u64::from(self.block[s + 2]) | u64::from(self.block[s + 3]) << 32)
    }

    /// Entry `i`, unpacked.
    fn entry(&self, i: usize) -> Entry {
        let (start, len) = self.run(i);
        Entry {
            id: NodeId(self.block[i]),
            flags: self.flags_at(i),
            start,
            len,
            last_alert: self.last_alert(i),
        }
    }

    /// Writes `entry` as entry `i`.
    fn set_entry(&mut self, i: usize, entry: Entry) {
        self.block[i] = entry.id.0;
        self.set_flags(i, entry.flags);
        let s = self.slot(i);
        self.block[s..s + SLOT_WORDS].copy_from_slice(&[
            entry.start,
            entry.len,
            entry.last_alert.0 as u32,
            (entry.last_alert.0 >> 32) as u32,
        ]);
    }

    /// The slot index of `n`, if known.
    pub(crate) fn find(&self, n: NodeId) -> Option<usize> {
        self.ids().binary_search(&n.0).ok()
    }

    /// The slot index of `n`, inserting an empty entry if unknown (the
    /// block is rebuilt one entry longer: inserts happen while tables are
    /// filled and on revocations of strangers, never per frame).
    fn find_or_insert(&mut self, n: NodeId) -> usize {
        match self.ids().binary_search(&n.0) {
            Ok(i) => i,
            Err(at) => {
                let mut entries: Vec<Entry> = (0..self.len()).map(|i| self.entry(i)).collect();
                entries.insert(
                    at,
                    Entry {
                        id: n,
                        flags: 0,
                        start: 0,
                        len: 0,
                        last_alert: Micros::default(),
                    },
                );
                self.n += 1;
                self.block = vec![0; block_words(entries.len())].into_boxed_slice();
                for (i, entry) in entries.into_iter().enumerate() {
                    self.set_entry(i, entry);
                }
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
    /// Copy-on-write: the arena may be shared with other tables, so every
    /// call writes a fresh private arena, exactly as long as the table's
    /// live runs: the other stored lists in slot order, then the new one,
    /// sorted and deduplicated in place.
    ///
    /// Returns whether the list was stored.
    ///
    /// # Panics
    ///
    /// Panics if the table's stored second-hop ids would exceed
    /// `u32::MAX` (the width of a slot's range).
    pub fn set_neighbor_list<I: IntoIterator<Item = NodeId>>(
        &mut self,
        b: NodeId,
        list: I,
    ) -> bool {
        let Some(i) = self.find(b) else {
            return false;
        };
        let kept: usize = self.stored_ids() - self.run(i).1 as usize;
        let mut second = Vec::with_capacity(kept);
        for k in (0..self.len()).filter(|&k| k != i) {
            // An unlisted slot's run is empty.
            let (start, len) = self.run(k);
            let s = self.slot(k);
            self.block[s] = second.len() as u32;
            second.extend_from_slice(&self.second[start as usize..(start + len) as usize]);
        }
        let start = second.len();
        second.extend(list);
        let run = &mut second[start..];
        run.sort_unstable();
        let len = dedup_sorted(run);
        second.truncate(start + len);
        assert!(
            u32::try_from(second.len()).is_ok(),
            "second-hop arena exceeds u32 ranges"
        );
        let s = self.slot(i);
        self.block[s] = start as u32;
        self.block[s + 1] = len as u32;
        self.mark(i, LISTED);
        self.second = second.into();
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
        let s = self.slot(i);
        self.block[s + 2] = t.0 as u32;
        self.block[s + 3] = (t.0 >> 32) as u32;
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
            .map(|i| NodeId(self.block[i]))
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
            .then(|| &self.second[start as usize..(start + len) as usize])
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
        assert_eq!(t.second.len(), live);
        assert_eq!(
            t.neighbor_list_of(NodeId(2)),
            Some(&[NodeId(0), NodeId(1)][..])
        );
        assert_eq!(t.storage_bytes(), 2 * 5 + live * 4);
    }

    #[test]
    fn writes_to_one_table_leave_its_arena_siblings_alone() {
        // A ring of 8 nodes, each in range of the two before and after it.
        let n = 8u32;
        let row = |i: u32| {
            let mut r: Vec<NodeId> = [n - 2, n - 1, 1, 2].map(|d| NodeId((i + d) % n)).to_vec();
            r.sort_unstable();
            r
        };
        let arena: Arc<[NodeId]> = (0..n).flat_map(row).collect();
        let run = |i: u32| i as usize * 4..i as usize * 4 + 4;
        let tables: Vec<NeighborTable> = (0..n)
            .map(|i| {
                let mine = row(i);
                let lists: Vec<Range<usize>> = mine.iter().map(|nb| run(nb.0)).collect();
                NeighborTable::with_lists(NodeId(i), mine, Arc::clone(&arena), lists)
            })
            .collect();
        let before: Vec<String> = tables.iter().map(|t| format!("{t:?}")).collect();
        let pristine = arena.to_vec();
        for target in 0..n as usize {
            // Clones share the arena too.
            let mut ts = tables.clone();
            let t = &mut ts[target];
            let nb: Vec<NodeId> = t.ids().iter().copied().map(NodeId).collect();
            t.revoke(nb[1]);
            t.revoke(NodeId(50));
            t.accuse(nb[2], Micros(5));
            t.mark_suspected(nb[3]);
            assert!(Arc::ptr_eq(&t.second, &arena), "flags and slots only");
            assert!(t.set_neighbor_list(nb[0], [NodeId(99), NodeId(7)]));
            // The writer moved to a private arena of exactly its live
            // runs: three neighbors' lists of 4 ids and the new one.
            assert!(!Arc::ptr_eq(&t.second, &arena));
            assert_eq!(t.second.len(), 3 * 4 + 2);
            assert_eq!(
                t.neighbor_list_of(nb[0]),
                Some(&[NodeId(7), NodeId(99)][..])
            );
            assert_eq!(t.neighbor_list_of(nb[1]), Some(&arena[run(nb[1].0)]));
            assert_ne!(format!("{t:?}"), before[target]);
            for (k, other) in ts.iter().enumerate() {
                if k != target {
                    assert_eq!(format!("{other:?}"), before[k], "table {k} changed");
                }
            }
            assert_eq!(&arena[..], &pristine[..]);
        }
    }

    #[test]
    fn debug_prints_own_runs_only() {
        // A wide arena the table uses two ids of.
        let arena: Arc<[NodeId]> = (100..200).map(NodeId).collect();
        let t = NeighborTable::with_lists(NodeId(0), vec![NodeId(1)], arena, std::iter::once(5..7));
        let text = format!("{t:?}");
        assert!(text.contains("[NodeId(105), NodeId(106)]"), "{text}");
        assert!(
            !text.contains("NodeId(104)") && !text.contains("NodeId(107)"),
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
