//! Oracle bootstrap of neighbor knowledge from deployment geometry.
//!
//! The paper treats neighbor discovery as a secure one-time step completed
//! before any insider attacker can act (the `T_CT` assumption, Section
//! 4.1). Experiments that do not study discovery itself can therefore
//! preload every node's first- and second-hop tables straight from the
//! deployment geometry, which decouples the evaluation from discovery
//! message losses. Message-level discovery remains available through
//! [`crate::params::DiscoveryMode::Messages`] and is exercised by its own
//! tests.
//!
//! A deployment's tables hold the same lists many times over: neighbor
//! `B`'s list `R_B` sits in the table of every node within range of `B`.
//! [`SharedAdjacency`] lays every table out once, in one block arena
//! where `R_B` is `B`'s own id column, and every table it preloads is a
//! view of that arena (copy-on-write, see [`BlockArena`]).
//! [`preload_liteworp`] preloads one node on its own, with a private copy.

use crate::node::core_id;
use liteworp::neighbor::{BlockArena, NeighborTable};
use liteworp::Liteworp;
use liteworp_netsim::field::{Field, NodeId as SimNodeId};

/// A deployment's preloaded tables, built once per scenario in one pass
/// over [`Field::adjacency`]: every node's table block in one shared
/// arena.
///
/// # Example
///
/// ```
/// use liteworp::prelude::*;
/// use liteworp_netsim::field::{Field, NodeId, Position};
/// use liteworp_routing::bootstrap::SharedAdjacency;
///
/// let field = Field::from_positions(100.0, 30.0, vec![
///     Position::new(0.0, 0.0),
///     Position::new(20.0, 0.0),
///     Position::new(40.0, 0.0),
/// ]);
/// let adjacency = SharedAdjacency::from_field(&field);
/// let mut lw = Liteworp::new(Config::default(), KeyStore::new(7, liteworp::types::NodeId(0)));
/// adjacency.preload(&mut lw, NodeId(0));
/// // Node 2 is known as a second-hop neighbor through node 1.
/// assert!(lw.table().link_plausible(liteworp::types::NodeId(2), liteworp::types::NodeId(1)));
/// ```
#[derive(Debug)]
pub struct SharedAdjacency {
    blocks: BlockArena,
}

impl SharedAdjacency {
    /// Lays out every node's table from `field`'s adjacency list.
    ///
    /// # Panics
    ///
    /// Panics if the tables exceed `u32::MAX` words.
    pub fn from_field(field: &Field) -> Self {
        let (neighbors, rows) = field.adjacency();
        SharedAdjacency {
            blocks: BlockArena::from_adjacency(neighbors, rows, core_id),
        }
    }

    /// Preloads `lw`'s neighbor table as if node `me` had completed
    /// secure discovery: all nodes in range become first-hop neighbors,
    /// and each neighbor's own range set is its stored list, read in
    /// place from the shared arena. Replaces whatever the table held;
    /// allocates nothing.
    pub fn preload(&self, lw: &mut Liteworp, me: SimNodeId) {
        *lw.table_mut() = self.blocks.table(core_id(me));
    }
}

/// Preloads `lw`'s neighbor table as if node `me` had completed secure
/// discovery on `field`: all nodes in range become first-hop neighbors,
/// and each neighbor's own range set is stored as second-hop knowledge.
/// Replaces whatever the table held. The table gets a private arena
/// ([`NeighborTable::with_lists`]); [`SharedAdjacency::preload`] installs
/// the same table without the copy.
///
/// # Example
///
/// ```
/// use liteworp::prelude::*;
/// use liteworp_netsim::field::{Field, NodeId, Position};
/// use liteworp_routing::bootstrap::preload_liteworp;
///
/// let field = Field::from_positions(100.0, 30.0, vec![
///     Position::new(0.0, 0.0),
///     Position::new(20.0, 0.0),
///     Position::new(40.0, 0.0),
/// ]);
/// let mut lw = Liteworp::new(Config::default(), KeyStore::new(7, liteworp::types::NodeId(0)));
/// preload_liteworp(&mut lw, NodeId(0), &field);
/// // Node 1 is in range; node 2 is not (40 m > 30 m)...
/// assert!(lw.table().is_active_neighbor(liteworp::types::NodeId(1)));
/// assert!(!lw.table().is_neighbor(liteworp::types::NodeId(2)));
/// // ...but node 2 is known as a second-hop neighbor through node 1.
/// assert!(lw.table().link_plausible(liteworp::types::NodeId(2), liteworp::types::NodeId(1)));
/// ```
pub fn preload_liteworp(lw: &mut Liteworp, me: SimNodeId, field: &Field) {
    let in_range = field.in_range_of(me);
    let lists = in_range
        .iter()
        .map(|&nb| field.in_range_of(nb).iter().copied().map(core_id));
    *lw.table_mut() =
        NeighborTable::with_lists(core_id(me), in_range.iter().copied().map(core_id), lists);
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp::config::Config;
    use liteworp::keys::KeyStore;
    use liteworp::types::NodeId;
    use liteworp_netsim::field::Position;

    fn chain() -> Field {
        Field::from_positions(
            200.0,
            30.0,
            (0..5)
                .map(|i| Position::new(25.0 * i as f64, 0.0))
                .collect(),
        )
    }

    fn lw_for(i: u32, field: &Field) -> Liteworp {
        let mut lw = Liteworp::new(Config::default(), KeyStore::new(7, NodeId(i)));
        preload_liteworp(&mut lw, SimNodeId(i), field);
        lw
    }

    #[test]
    fn chain_tables_match_geometry() {
        let field = chain();
        let lw = lw_for(2, &field);
        assert!(lw.table().is_active_neighbor(NodeId(1)));
        assert!(lw.table().is_active_neighbor(NodeId(3)));
        assert!(!lw.table().is_neighbor(NodeId(0)));
        assert!(!lw.table().is_neighbor(NodeId(4)));
        // Second hop via 1 and 3.
        assert!(lw.table().link_plausible(NodeId(0), NodeId(1)));
        assert!(lw.table().link_plausible(NodeId(4), NodeId(3)));
        assert!(!lw.table().link_plausible(NodeId(4), NodeId(1)));
    }

    #[test]
    fn guard_relationships_follow_geometry() {
        // Make a triangle 0-1-2 all within range, plus distant node 3.
        let field = Field::from_positions(
            200.0,
            30.0,
            vec![
                Position::new(0.0, 0.0),
                Position::new(20.0, 0.0),
                Position::new(10.0, 15.0),
                Position::new(150.0, 150.0),
            ],
        );
        let lw = lw_for(0, &field);
        assert!(lw.table().is_guard_of(NodeId(1), NodeId(2)));
        assert!(lw.table().is_guard_of(NodeId(2), NodeId(1)));
        assert!(!lw.table().is_guard_of(NodeId(3), NodeId(1)));
    }
}
