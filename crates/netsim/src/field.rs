//! Node identities, positions, and deployment fields.
//!
//! The paper deploys nodes uniformly at random over a square field whose
//! side scales with the node count to hold the average density constant
//! (Section 6: "the field size varies (80×80 m …) with the number of
//! nodes"). [`Field`] reproduces that, and answers the geometric queries the
//! rest of the system needs: who is in range of whom, connectivity, and
//! distance.
//!
//! Nodes never move, so the nominal-range disc graph is built once, at
//! construction, as a CSR adjacency list (one flat neighbor array plus a
//! `(start, end)` row per node). Neighbor queries, the BFS routines, the
//! oracle preload and the simulator's normal-power reception fan-out all
//! read that one array; only off-nominal disc queries
//! ([`Field::nodes_within`]) still walk the spatial grid.

use crate::grid::PointGrid;
use liteworp_runner::rng::Rng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// Identity of a node in the simulated network.
///
/// # Example
///
/// ```
/// use liteworp_netsim::field::NodeId;
///
/// let id = NodeId(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(id.to_string(), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// This identity as a `usize` index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A position on the 2-D deployment field, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in meters.
    pub fn distance_to(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A square deployment field with node positions.
///
/// # Example
///
/// Deploy 50 nodes at an average density of 8 neighbors per node within a
/// 30 m range, then check the field side matches the density:
///
/// ```
/// use liteworp_netsim::field::Field;
/// use liteworp_netsim::rng::Pcg32;
///
/// let mut rng = Pcg32::seed_from_u64(7);
/// let field = Field::with_average_neighbors(50, 8.0, 30.0, &mut rng);
/// assert_eq!(field.len(), 50);
/// let n_b: f64 = (0..50)
///     .map(|i| field.in_range_of(liteworp_netsim::field::NodeId(i as u32)).len() as f64)
///     .sum::<f64>() / 50.0;
/// assert!(n_b > 4.0, "average degree {n_b} unexpectedly low");
/// ```
#[derive(Debug, Clone)]
pub struct Field {
    side: f64,
    range: f64,
    positions: Vec<Position>,
    /// Spatial index (cell size = `range`) behind the adjacency build and
    /// [`Field::nodes_within`]: disc queries visit only the cells adjacent
    /// to the query disc instead of every node. Grid answers are candidate
    /// supersets; the exact distance predicate keeps every query
    /// set-identical to a brute-force scan.
    grid: PointGrid,
    /// Node `i`'s in-range set is `neighbors[rows[i].0..rows[i].1]`.
    rows: Vec<(usize, usize)>,
    /// Every node's in-range set under [`Field::in_range`], concatenated
    /// in grid-cell order (so spatially close rows sit close in memory),
    /// each run in ascending id order.
    neighbors: Vec<NodeId>,
    /// Reusable BFS state for [`Field::hop_distance`] / connectivity,
    /// generation-stamped so re-use needs no clearing.
    scratch: RefCell<BfsScratch>,
}

/// Preallocated breadth-first-search state. `stamp[i] == epoch` means node
/// `i` was visited in the current traversal; bumping `epoch` resets the
/// whole bitmap in O(1).
#[derive(Debug, Clone, Default)]
struct BfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    queue: VecDeque<(u32, u32)>,
}

impl BfsScratch {
    /// Starts a fresh traversal over `n` nodes.
    fn begin(&mut self, n: usize) {
        self.queue.clear();
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            // A traversal enqueues each node at most once, so the queue is
            // sized once here and never regrows mid-build.
            self.queue.reserve_exact(n);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One O(n) sweep every 2^32 traversals keeps stamps unambiguous.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    fn visited(&self, id: u32) -> bool {
        self.stamp[id as usize] == self.epoch
    }

    fn visit(&mut self, id: u32) {
        self.stamp[id as usize] = self.epoch;
    }
}

impl Field {
    /// Creates a field from explicit positions.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `range` is not positive, or a position lies
    /// outside the field.
    pub fn from_positions(side: f64, range: f64, positions: Vec<Position>) -> Self {
        assert!(side > 0.0, "field side must be positive");
        assert!(range > 0.0, "communication range must be positive");
        for (i, p) in positions.iter().enumerate() {
            assert!(
                (0.0..=side).contains(&p.x) && (0.0..=side).contains(&p.y),
                "position {i} ({}, {}) outside the {side} m field",
                p.x,
                p.y
            );
        }
        let grid = PointGrid::new(side, range, &positions);
        let (rows, neighbors) = adjacency(side, range, &grid);
        Field {
            side,
            range,
            positions,
            grid,
            rows,
            neighbors,
            scratch: RefCell::new(BfsScratch::default()),
        }
    }

    /// Deploys `count` nodes uniformly at random over a square of the given
    /// side length.
    pub fn uniform_random<R: Rng>(count: usize, side: f64, range: f64, rng: &mut R) -> Self {
        assert!(side > 0.0, "field side must be positive");
        let positions = (0..count)
            .map(|_| Position::new(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
            .collect();
        Field::from_positions(side, range, positions)
    }

    /// Deploys `count` nodes so the *average* number of neighbors per node
    /// is `n_b` for communication range `range` — the paper's density
    /// control (`N_B = π r² d`, `side = sqrt(N / d)`).
    pub fn with_average_neighbors<R: Rng>(count: usize, n_b: f64, range: f64, rng: &mut R) -> Self {
        assert!(n_b > 0.0, "average neighbor count must be positive");
        let density = n_b / (std::f64::consts::PI * range * range);
        let side = (count as f64 / density).sqrt();
        Field::uniform_random(count, side, range, rng)
    }

    /// Number of deployed nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The side length of the square field, in meters.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// The nominal communication range, in meters.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn position(&self, id: NodeId) -> Position {
        self.positions[id.index()]
    }

    /// All node positions, indexed by [`NodeId::index`].
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Distance between two nodes in meters.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_to(&self.position(b))
    }

    /// Whether two distinct nodes are within communication range.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.distance(a, b) <= self.range
    }

    /// All nodes within communication range of `id` (excluding itself),
    /// in ascending id order. Precomputed: a slice of the adjacency list.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn in_range_of(&self, id: NodeId) -> &[NodeId] {
        let (start, end) = self.rows[id.index()];
        &self.neighbors[start..end]
    }

    /// The whole adjacency list: every node's [`Field::in_range_of`] set
    /// concatenated (rows in grid-cell order, so spatially close rows sit
    /// close), and node `i`'s `(start, end)` range into it at index `i`.
    pub fn adjacency(&self) -> (&[NodeId], &[(usize, usize)]) {
        (&self.neighbors, &self.rows)
    }

    /// All nodes whose position lies within `radius` meters of `center`
    /// (including any node exactly at `center`), in ascending id order.
    ///
    /// This is the reception fan-out query: the simulator asks it with a
    /// transmission's origin and *effective* range (which a high-power
    /// transmission stretches beyond [`Field::range`]) instead of walking
    /// every node. The grid supplies a candidate superset; the exact disc
    /// predicate `distance_to(center) <= radius` keeps the result
    /// set-identical to a brute-force scan over all nodes.
    pub fn nodes_within(&self, center: Position, radius: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes_within_into(center, radius, &mut out);
        out
    }

    /// Like [`Field::nodes_within`] but writes into a caller-provided
    /// buffer (cleared first), so per-event queries on the simulator hot
    /// path allocate nothing in steady state.
    pub fn nodes_within_into(&self, center: Position, radius: f64, out: &mut Vec<NodeId>) {
        out.clear();
        self.grid.for_each_candidate(center, radius, |p, id| {
            if p.distance_to(&center) <= radius {
                out.push(NodeId(id));
            }
        });
        out.sort_unstable();
    }

    /// Number of hops on the shortest path between `a` and `b` over the
    /// disc graph, or `None` if disconnected.
    ///
    /// Reuses a preallocated generation-stamped visited bitmap across
    /// calls — this sits on the [`Field::connected_with_average_neighbors`]
    /// retry loop and colluder placement, so per-call allocation matters.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.begin(self.positions.len());
        s.visit(a.0);
        s.queue.push_back((a.0, 0));
        while let Some((u, depth)) = s.queue.pop_front() {
            for &vid in self.in_range_of(NodeId(u)) {
                if s.visited(vid.0) {
                    continue;
                }
                if vid == b {
                    return Some(depth as usize + 1);
                }
                s.visit(vid.0);
                s.queue.push_back((vid.0, depth + 1));
            }
        }
        None
    }

    /// All nodes reachable from `origin` in at most `max_hops` hops of
    /// the disc graph (excluding `origin` itself), in ascending id order.
    ///
    /// This is the *h-hop neighborhood* scale experiments use to build
    /// local traffic pools: with TTL-scoped route discovery, exactly
    /// these nodes are discoverable from `origin`. Reuses the same
    /// generation-stamped BFS scratch as [`Field::hop_distance`].
    pub fn nodes_within_hops(&self, origin: NodeId, max_hops: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        if max_hops == 0 || origin.index() >= self.positions.len() {
            return out;
        }
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.begin(self.positions.len());
        s.visit(origin.0);
        s.queue.push_back((origin.0, 0));
        while let Some((u, depth)) = s.queue.pop_front() {
            if depth >= max_hops {
                continue;
            }
            for &vid in self.in_range_of(NodeId(u)) {
                if !s.visited(vid.0) {
                    s.visit(vid.0);
                    out.push(vid);
                    s.queue.push_back((vid.0, depth + 1));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Whether the disc graph over all nodes is connected.
    pub fn is_connected(&self) -> bool {
        let n = self.positions.len();
        if n <= 1 {
            return true;
        }
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.begin(n);
        s.visit(0);
        s.queue.push_back((0, 0));
        let mut count = 1usize;
        while let Some((u, _)) = s.queue.pop_front() {
            for &vid in self.in_range_of(NodeId(u)) {
                if !s.visited(vid.0) {
                    s.visit(vid.0);
                    count += 1;
                    s.queue.push_back((vid.0, 0));
                }
            }
        }
        count == n
    }

    /// Re-deploys until the field is connected, up to `attempts` tries.
    /// Returns `None` if no connected deployment was found.
    pub fn connected_with_average_neighbors<R: Rng>(
        count: usize,
        n_b: f64,
        range: f64,
        attempts: usize,
        rng: &mut R,
    ) -> Option<Self> {
        for _ in 0..attempts {
            let f = Field::with_average_neighbors(count, n_b, range, rng);
            if f.is_connected() {
                return Some(f);
            }
        }
        None
    }
}

/// Builds the nominal-range disc graph in one pass over the nodes: one
/// grid query per node, each filtered by the [`Field::in_range`]
/// predicate and sorted in place at the tail of one flat array, so the
/// build allocates two vectors however many nodes there are. Nodes are
/// visited in grid-cell order, so consecutive queries scan the same few
/// cells while they are still in cache.
fn adjacency(side: f64, range: f64, grid: &PointGrid) -> (Vec<(usize, usize)>, Vec<NodeId>) {
    let n = grid.points().len();
    // Expected degree of a uniform deployment, ignoring edge effects (which
    // only lower it), so the flat array is sized once in the common case.
    let degree = (std::f64::consts::PI * range * range / (side * side) * n as f64).min(n as f64);
    let mut rows = vec![(0, 0); n];
    let mut neighbors = Vec::with_capacity((degree * n as f64) as usize);
    for &(p, i) in grid.points() {
        let start = neighbors.len();
        grid.for_each_candidate(p, range, |q, j| {
            // Branch-free filter: append every candidate, keep it only if
            // it matches. About a third of the candidates match, in no
            // pattern a branch predictor can learn; at 10^5 nodes the
            // branch cost more than the distance itself.
            let hit = j != i && p.distance_to(&q) <= range;
            let len = neighbors.len();
            neighbors.push(NodeId(j));
            neighbors.truncate(len + usize::from(hit));
        });
        neighbors[start..].sort_unstable();
        rows[i as usize] = (start, neighbors.len());
    }
    (rows, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteworp_runner::rng::Pcg32;

    fn line_field() -> Field {
        // Nodes in a line 25 m apart with range 30: a chain.
        let positions = (0..5)
            .map(|i| Position::new(25.0 * i as f64, 0.0))
            .collect();
        Field::from_positions(100.0, 30.0, positions)
    }

    #[test]
    fn distance_and_range() {
        let f = line_field();
        assert_eq!(f.distance(NodeId(0), NodeId(1)), 25.0);
        assert!(f.in_range(NodeId(0), NodeId(1)));
        assert!(!f.in_range(NodeId(0), NodeId(2)));
        assert!(!f.in_range(NodeId(2), NodeId(2)), "self is not a neighbor");
    }

    #[test]
    fn in_range_of_lists_neighbors_sorted() {
        let f = line_field();
        assert_eq!(f.in_range_of(NodeId(2)), [NodeId(1), NodeId(3)]);
        assert_eq!(f.in_range_of(NodeId(0)), [NodeId(1)]);
    }

    #[test]
    fn nodes_within_hops_matches_hop_distance() {
        let f = line_field();
        assert_eq!(f.nodes_within_hops(NodeId(0), 0), vec![]);
        assert_eq!(f.nodes_within_hops(NodeId(0), 1), f.in_range_of(NodeId(0)));
        assert_eq!(
            f.nodes_within_hops(NodeId(0), 2),
            vec![NodeId(1), NodeId(2)]
        );
        // On a random field, h-hop membership must agree with
        // hop_distance for every node.
        let mut rng = Pcg32::seed_from_u64(12);
        let r = Field::with_average_neighbors(60, 8.0, 30.0, &mut rng);
        for h in [1u32, 3] {
            let got = r.nodes_within_hops(NodeId(0), h);
            let want: Vec<NodeId> = (1..r.len() as u32)
                .map(NodeId)
                .filter(|&v| {
                    r.hop_distance(NodeId(0), v)
                        .is_some_and(|d| d <= h as usize)
                })
                .collect();
            assert_eq!(got, want, "h = {h}");
        }
    }

    #[test]
    fn hop_distance_on_chain() {
        let f = line_field();
        assert_eq!(f.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(f.hop_distance(NodeId(1), NodeId(1)), Some(0));
    }

    #[test]
    fn hop_distance_disconnected() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(90.0, 0.0)];
        let f = Field::from_positions(100.0, 30.0, positions);
        assert_eq!(f.hop_distance(NodeId(0), NodeId(1)), None);
        assert!(!f.is_connected());
    }

    #[test]
    fn chain_is_connected() {
        assert!(line_field().is_connected());
    }

    #[test]
    fn density_targets_average_degree() {
        // With enough nodes, the empirical mean degree approaches N_B
        // (edge effects bias it slightly low).
        let mut rng = Pcg32::seed_from_u64(42);
        let f = Field::with_average_neighbors(400, 8.0, 30.0, &mut rng);
        let mean: f64 = (0..400)
            .map(|i| f.in_range_of(NodeId(i as u32)).len() as f64)
            .sum::<f64>()
            / 400.0;
        assert!(
            (5.5..9.0).contains(&mean),
            "mean degree {mean} far from target 8"
        );
    }

    #[test]
    fn field_side_scales_with_count() {
        let mut rng = Pcg32::seed_from_u64(1);
        let f20 = Field::with_average_neighbors(20, 8.0, 30.0, &mut rng);
        let f100 = Field::with_average_neighbors(100, 8.0, 30.0, &mut rng);
        assert!((f100.side() / f20.side() - (5.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn deployment_is_deterministic_per_seed() {
        let a = Field::uniform_random(10, 100.0, 30.0, &mut Pcg32::seed_from_u64(9));
        let b = Field::uniform_random(10, 100.0, 30.0, &mut Pcg32::seed_from_u64(9));
        for i in 0..10 {
            assert_eq!(a.position(NodeId(i)), b.position(NodeId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_field_positions() {
        Field::from_positions(10.0, 5.0, vec![Position::new(11.0, 0.0)]);
    }

    #[test]
    fn connected_retry_finds_connected_field() {
        let mut rng = Pcg32::seed_from_u64(3);
        let f = Field::connected_with_average_neighbors(30, 8.0, 30.0, 100, &mut rng)
            .expect("should find a connected deployment");
        assert!(f.is_connected());
    }
}
