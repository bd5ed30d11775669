//! Per-node route-request flood state: which floods this node has seen,
//! and the reverse hop each one arrived from.
//!
//! Every copy of a flooded request costs one probe here, so the state is
//! one open-addressed table of 16-byte slots keyed by `(origin, seq)`:
//! linear probing, a fixed multiplicative hash, doubling at 3/4 load.
//! Entries are never removed (a request seen once is seen forever, as in
//! the set this replaced), and the table allocates nothing until its
//! first insert.
//!
//! Only point lookups are exposed, never iteration, so the hash order of
//! the slots cannot leak into protocol behavior.

use liteworp::types::NodeId;

/// `origin` of an unused slot. Node ids are dense indices, so no real
/// node carries it.
const EMPTY: u32 = u32::MAX;

/// Fibonacci-hashing multiplier (2^64 / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots in the first allocation (a power of two).
const MIN_SLOTS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    origin: u32,
    /// The neighbor the first copy came from (the owner for its own
    /// floods).
    hop: u32,
}

const VACANT: Slot = Slot {
    seq: 0,
    origin: EMPTY,
    hop: EMPTY,
};

/// The seen-set and reverse-path pointers of one node's route-request
/// floods, in one table.
///
/// # Example
///
/// ```
/// use liteworp::types::NodeId;
/// use liteworp_routing::flood::FloodTable;
///
/// let me = NodeId(0);
/// let mut floods = FloodTable::new(me);
/// assert!(floods.insert(me, 1, me), "own flood, first time");
/// assert!(floods.insert(NodeId(7), 3, NodeId(2)), "first copy");
/// assert!(!floods.insert(NodeId(7), 3, NodeId(5)), "later copy");
/// assert_eq!(floods.reverse_hop(NodeId(7), 3), Some(NodeId(2)));
/// assert_eq!(floods.reverse_hop(me, 1), None, "own floods have no reverse hop");
/// ```
#[derive(Debug, Clone)]
pub struct FloodTable {
    owner: NodeId,
    /// Power-of-two length, or empty before the first insert.
    slots: Vec<Slot>,
    len: usize,
}

impl FloodTable {
    /// An empty table for node `owner`. Allocates nothing.
    pub fn new(owner: NodeId) -> Self {
        FloodTable {
            owner,
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Records flood `(origin, seq)` as first heard from `hop`, unless it
    /// is already known. Returns `true` when it was new; a known flood
    /// keeps its first hop. The owner's own floods are recorded with
    /// `origin` = the owner.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is `NodeId(u32::MAX)`, the empty-slot marker.
    pub fn insert(&mut self, origin: NodeId, seq: u64, hop: NodeId) -> bool {
        assert!(origin.0 != EMPTY, "flood origin {origin} is reserved");
        if self.slots.is_empty() {
            self.grow();
        }
        let mut i = self.probe(origin.0, seq);
        if self.slots[i].origin != EMPTY {
            return false;
        }
        // Only a new entry can push the load past 3/4, so a duplicate
        // copy never grows the table.
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            i = self.probe(origin.0, seq);
        }
        self.slots[i] = Slot {
            seq,
            origin: origin.0,
            hop: hop.0,
        };
        self.len += 1;
        true
    }

    /// The neighbor flood `(origin, seq)` first arrived from: the next
    /// hop of a reply travelling back toward `origin`. `None` for unknown
    /// floods and for the owner's own floods, which arrived from nowhere.
    pub fn reverse_hop(&self, origin: NodeId, seq: u64) -> Option<NodeId> {
        if origin == self.owner || self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(origin.0, seq)];
        (slot.origin != EMPTY).then_some(NodeId(slot.hop))
    }

    /// The slot holding `(origin, seq)`, or the empty slot its probe
    /// sequence ends at. The table must be allocated; it is never full,
    /// so the probe ends.
    fn probe(&self, origin: u32, seq: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(origin, seq, mask);
        loop {
            let slot = &self.slots[i];
            if slot.origin == EMPTY || (slot.origin == origin && slot.seq == seq) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The first slot probed for `(origin, seq)` in a table of `mask + 1`
    /// slots: the top bits of one multiplicative hash of both halves.
    fn home(origin: u32, seq: u64, mask: usize) -> usize {
        let h = ((u64::from(origin) << 40) ^ seq).wrapping_mul(MUL);
        (h >> (64 - (mask + 1).trailing_zeros())) as usize
    }

    /// Doubles the slot count (or makes the first allocation) and
    /// re-places every entry.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; size]);
        for s in old.into_iter().filter(|s| s.origin != EMPTY) {
            let i = self.probe(s.origin, s.seq);
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn protocol_nodes_stay_small() {
        // One per deployed node: parameters (LITEWORP's config among them)
        // are shared and source-only state is boxed, so a node is mostly
        // its LITEWORP instance, whose neighbor table is an arena handle.
        let size = std::mem::size_of::<crate::node::ProtocolNode>();
        assert!(size <= 512, "ProtocolNode grew to {size} bytes");
        let guard = std::mem::size_of::<liteworp::Liteworp>();
        assert!(guard <= 280, "Liteworp grew to {guard} bytes");
    }

    #[test]
    fn allocates_on_first_insert_and_doubles_at_three_quarters() {
        let mut t = FloodTable::new(NodeId(0));
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!(t.reverse_hop(NodeId(1), 1), None);
        assert_eq!(t.slots.capacity(), 0, "a lookup allocates nothing");
        for seq in 0..12 {
            assert!(t.insert(NodeId(1), seq, NodeId(2)));
        }
        assert_eq!(t.slots.len(), MIN_SLOTS, "12 of 16 is exactly 3/4");
        assert!(!t.insert(NodeId(1), 5, NodeId(3)), "a later copy");
        assert_eq!(
            t.slots.len(),
            MIN_SLOTS,
            "a duplicate never grows the table"
        );
        assert_eq!(t.reverse_hop(NodeId(1), 5), Some(NodeId(2)));
        assert!(t.insert(NodeId(1), 12, NodeId(2)));
        assert_eq!(t.slots.len(), 2 * MIN_SLOTS);
        assert_eq!(t.len, 13);
        assert!((0..13).all(|seq| t.reverse_hop(NodeId(1), seq) == Some(NodeId(2))));
    }

    #[test]
    fn reserved_origin_is_never_found() {
        let mut t = FloodTable::new(NodeId(0));
        t.insert(NodeId(1), 0, NodeId(2));
        assert_eq!(t.reverse_hop(NodeId(EMPTY), 0), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_origin_is_rejected() {
        FloodTable::new(NodeId(0)).insert(NodeId(EMPTY), 0, NodeId(1));
    }
}
