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
//! [`SharedAdjacency`] stores each list once, and every table it preloads
//! points into it (copy-on-write, see [`NeighborTable::with_lists`]).
//! [`preload_liteworp`] preloads one node on its own, with a private copy.

use crate::node::core_id;
use liteworp::neighbor::NeighborTable;
use liteworp::types::NodeId;
use liteworp::Liteworp;
use liteworp_netsim::field::{Field, NodeId as SimNodeId};
use std::ops::Range;
use std::sync::Arc;

/// A deployment's adjacency in core ids, built once per scenario: every
/// node's in-range list in one shared arena.
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
    /// Every node's in-range set, concatenated in [`Field::adjacency`]'s
    /// row order, each run ascending.
    arena: Arc<[NodeId]>,
    /// Node `i`'s run of `arena` at index `i`.
    rows: Vec<(u32, u32)>,
}

impl SharedAdjacency {
    /// Copies `field`'s adjacency list into core ids.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency holds more than `u32::MAX` ids.
    pub fn from_field(field: &Field) -> Self {
        let (neighbors, rows) = field.adjacency();
        assert!(
            u32::try_from(neighbors.len()).is_ok(),
            "second-hop arena exceeds u32 ranges"
        );
        SharedAdjacency {
            arena: neighbors.iter().copied().map(core_id).collect(),
            rows: rows
                .iter()
                .map(|&(start, end)| (start as u32, end as u32))
                .collect(),
        }
    }

    /// Node `n`'s in-range run of the arena.
    fn row(&self, n: NodeId) -> Range<usize> {
        let (start, end) = self.rows[n.0 as usize];
        start as usize..end as usize
    }

    /// Preloads `lw`'s neighbor table as if node `me` had completed
    /// secure discovery: all nodes in range become first-hop neighbors,
    /// and each neighbor's own range set is its stored list, read in
    /// place from the shared arena. Replaces whatever the table held.
    pub fn preload(&self, lw: &mut Liteworp, me: SimNodeId) {
        let neighbors = &self.arena[self.row(core_id(me))];
        let lists = neighbors.iter().map(|&nb| self.row(nb));
        *lw.table_mut() = NeighborTable::with_lists(
            core_id(me),
            neighbors.to_vec(),
            Arc::clone(&self.arena),
            lists,
        );
    }
}

/// Preloads `lw`'s neighbor table as if node `me` had completed secure
/// discovery on `field`: all nodes in range become first-hop neighbors,
/// and each neighbor's own range set is stored as second-hop knowledge.
/// Replaces whatever the table held. The lists go into one private arena
/// built in one pass over `Field`'s rows; [`SharedAdjacency::preload`]
/// installs the same table without the copy.
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
    let rows = || in_range.iter().map(|&nb| field.in_range_of(nb));
    let mut arena = Vec::with_capacity(rows().map(<[_]>::len).sum());
    for row in rows() {
        arena.extend(row.iter().copied().map(core_id));
    }
    let lists = rows().scan(0, |start, row| {
        let run = *start..*start + row.len();
        *start = run.end;
        Some(run)
    });
    let neighbors = in_range.iter().copied().map(core_id).collect();
    *lw.table_mut() = NeighborTable::with_lists(core_id(me), neighbors, arena.into(), lists);
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp::config::Config;
    use liteworp::keys::KeyStore;
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
