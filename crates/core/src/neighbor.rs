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

use crate::types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Status of a first-hop neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborStatus {
    /// Trusted: packets are exchanged and the link monitored.
    Active,
    /// Isolated: no packets are accepted from or sent to this node.
    Revoked,
}

/// A node's first- and second-hop neighbor knowledge.
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
#[derive(Debug, Clone)]
pub struct NeighborTable {
    me: NodeId,
    first_hop: BTreeMap<NodeId, NeighborStatus>,
    second_hop: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl NeighborTable {
    /// Creates an empty table for node `me`.
    pub fn new(me: NodeId) -> Self {
        NeighborTable {
            me,
            first_hop: BTreeMap::new(),
            second_hop: BTreeMap::new(),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.me
    }

    /// Registers a first-hop neighbor (idempotent; does not resurrect a
    /// revoked neighbor).
    ///
    /// # Panics
    ///
    /// Panics if asked to add the owner itself.
    pub fn add_neighbor(&mut self, n: NodeId) {
        assert_ne!(n, self.me, "a node is not its own neighbor");
        self.first_hop.entry(n).or_insert(NeighborStatus::Active);
    }

    /// Stores neighbor `b`'s announced list `R_b` (second-hop knowledge).
    /// Ignored if `b` is not a known neighbor — per the protocol, a node
    /// only accepts list announcements from verified neighbors.
    ///
    /// Returns whether the list was stored.
    pub fn set_neighbor_list<I: IntoIterator<Item = NodeId>>(
        &mut self,
        b: NodeId,
        list: I,
    ) -> bool {
        if !self.first_hop.contains_key(&b) {
            return false;
        }
        // Insert rather than `collect()`: `BTreeSet`'s `FromIterator` sorts
        // through a temporary `Vec`. At 10^5 nodes those ~10^6 short-lived
        // buffers sit between the long-lived tables, and the allocator's
        // cached copies of them kept much of a dropped deployment's heap
        // resident.
        let mut set = BTreeSet::new();
        set.extend(list);
        self.second_hop.insert(b, set);
        true
    }

    /// Whether `n` is a *known* neighbor (active or revoked).
    pub fn is_neighbor(&self, n: NodeId) -> bool {
        self.first_hop.contains_key(&n)
    }

    /// Whether `n` is an active (non-revoked) neighbor.
    pub fn is_active_neighbor(&self, n: NodeId) -> bool {
        self.first_hop.get(&n) == Some(&NeighborStatus::Active)
    }

    /// Whether `n` has been revoked.
    pub fn is_revoked(&self, n: NodeId) -> bool {
        self.first_hop.get(&n) == Some(&NeighborStatus::Revoked)
    }

    /// Marks `n` as revoked. Unknown ids are recorded as revoked too, so
    /// that an alert about a not-yet-discovered node still takes effect.
    pub fn revoke(&mut self, n: NodeId) {
        self.first_hop.insert(n, NeighborStatus::Revoked);
    }

    /// Active neighbors in ascending id order.
    pub fn active_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.first_hop
            .iter()
            .filter(|(_, &s)| s == NeighborStatus::Active)
            .map(|(&n, _)| n)
    }

    /// Count of known neighbors (active and revoked).
    pub fn len(&self) -> usize {
        self.first_hop.len()
    }

    /// Whether no neighbors are known.
    pub fn is_empty(&self) -> bool {
        self.first_hop.is_empty()
    }

    /// The stored neighbor list `R_b` of neighbor `b`, if announced.
    pub fn neighbor_list_of(&self, b: NodeId) -> Option<&BTreeSet<NodeId>> {
        self.second_hop.get(&b)
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
        if !self.is_active_neighbor(via) {
            return false;
        }
        if prev == self.me {
            return true;
        }
        match self.second_hop.get(&via) {
            Some(list) => list.contains(&prev),
            None => false,
        }
    }

    /// Whether this node guards the link `prev → via`: it must neighbor
    /// both endpoints (the sender of a link trivially guards its own
    /// outgoing links), and the link itself must exist per the announced
    /// lists.
    pub fn is_guard_of(&self, prev: NodeId, via: NodeId) -> bool {
        if prev == via {
            return false;
        }
        let knows_prev = prev == self.me || self.is_neighbor(prev);
        let knows_via = via == self.me || self.is_neighbor(via);
        knows_prev && knows_via
    }

    /// Approximate storage footprint in bytes, matching the Section 5.2
    /// accounting: 5 bytes per first-hop entry (4-byte id + 1-byte MalC)
    /// plus 4 bytes per stored second-hop id.
    pub fn storage_bytes(&self) -> usize {
        let first = self.first_hop.len() * 5;
        let second: usize = self.second_hop.values().map(|s| s.len() * 4).sum();
        first + second
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
    #[should_panic(expected = "not its own neighbor")]
    fn rejects_self_neighbor() {
        NeighborTable::new(NodeId(0)).add_neighbor(NodeId(0));
    }
}
