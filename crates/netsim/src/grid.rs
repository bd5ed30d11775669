//! Uniform spatial bucket index over a square field.
//!
//! Both [`crate::field::Field`] (static node positions) and
//! [`crate::medium::Medium`] (live transmissions) answer disc queries —
//! "everything within `radius` of `center`". A grid with cell size equal
//! to the nominal radio range turns those from O(N) scans into visits of
//! the O(1) cells adjacent to the query disc. The field's points never
//! move, so it uses a frozen [`PointGrid`]; the medium's records come and
//! go, so it uses mutable [`Buckets`]. Both share one cell arithmetic.
//!
//! # Superset-candidate contract
//!
//! The grid never answers a query exactly. [`Buckets::for_each_candidate`]
//! visits every value whose cell *could* intersect the disc — a superset of
//! the true matches — and the caller applies the same exact floating-point
//! predicate the old brute-force scan used (`distance_to(center) <=
//! radius`). Membership therefore cannot drift by even one ULP from the
//! pre-index code: the grid only prunes points that are provably outside
//! the disc (their cell is more than `ceil(radius / cell)` cells away on
//! an axis, hence more than `radius` meters away).
//!
//! Out-of-field coordinates are clamped onto the edge cells by a monotone
//! (1-Lipschitz in cell units) projection, so the superset property holds
//! for arbitrary query centers, not just in-field ones.

use crate::field::Position;

/// The cell arithmetic shared by both grids: a square `[0, side]²` cut
/// into square cells of `cell` meters per axis (the last row/column
/// absorbs any partial remainder).
#[derive(Debug, Clone)]
struct Lattice {
    cell: f64,
    nx: usize,
}

impl Lattice {
    fn new(side: f64, cell: f64) -> Self {
        assert!(side > 0.0, "grid side must be positive");
        assert!(cell > 0.0, "grid cell size must be positive");
        let nx = ((side / cell).ceil() as usize).max(1);
        Lattice { cell, nx }
    }

    fn axis_index(&self, coord: f64) -> usize {
        ((coord.max(0.0) / self.cell) as usize).min(self.nx - 1)
    }

    fn cell_index(&self, p: Position) -> usize {
        self.axis_index(p.y) * self.nx + self.axis_index(p.x)
    }

    /// The cell window `(x0, x1, y0, y1)` (inclusive) a disc query must
    /// visit. Every cell more than `ceil(radius / cell)` cells away on an
    /// axis is provably outside the disc, so the window is a superset of
    /// the disc's cells.
    fn window(&self, center: Position, radius: f64) -> (usize, usize, usize, usize) {
        let k = ((radius.max(0.0) / self.cell).ceil()) as usize;
        let cx = self.axis_index(center.x);
        let cy = self.axis_index(center.y);
        let x0 = cx.saturating_sub(k);
        let x1 = cx.saturating_add(k).min(self.nx - 1);
        let y0 = cy.saturating_sub(k);
        let y1 = cy.saturating_add(k).min(self.nx - 1);
        (x0, x1, y0, y1)
    }
}

/// A uniform grid of mutable buckets over a square `[0, side]²`, for
/// values that come and go: [`crate::medium::Medium`] indexes live
/// transmissions by sequence number here.
#[derive(Debug, Clone)]
pub(crate) struct Buckets<T> {
    lattice: Lattice,
    cells: Vec<Vec<T>>,
}

impl<T: Copy + PartialEq> Buckets<T> {
    /// Creates an empty grid covering `[0, side]²` with `cell`-sized
    /// buckets.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `cell` is not positive.
    pub(crate) fn new(side: f64, cell: f64) -> Self {
        let lattice = Lattice::new(side, cell);
        let cells = vec![Vec::new(); lattice.nx * lattice.nx];
        Buckets { lattice, cells }
    }

    /// The cell size in meters.
    pub(crate) fn cell(&self) -> f64 {
        self.lattice.cell
    }

    /// Cells per axis (for tests / diagnostics).
    #[cfg(test)]
    pub(crate) fn cells_per_axis(&self) -> usize {
        self.lattice.nx
    }

    /// Inserts `value` at position `p`. Values within one cell keep
    /// insertion order until a [`Buckets::remove`] disturbs it.
    pub(crate) fn insert(&mut self, p: Position, value: T) {
        let idx = self.lattice.cell_index(p);
        self.cells[idx].push(value);
    }

    /// Removes one occurrence of `value` from the cell containing `p`
    /// (which must be the position it was inserted at). A no-op if the
    /// value is absent.
    pub(crate) fn remove(&mut self, p: Position, value: T) {
        let idx = self.lattice.cell_index(p);
        let cell = &mut self.cells[idx];
        if let Some(at) = cell.iter().position(|v| *v == value) {
            cell.swap_remove(at);
        }
    }

    /// Visits every value whose insertion position could lie within
    /// `radius` of `center`: a **superset** of the true matches, in
    /// row-major cell order, insertion order within a cell. Callers must
    /// apply the exact distance predicate themselves.
    pub(crate) fn for_each_candidate(&self, center: Position, radius: f64, mut f: impl FnMut(T)) {
        let (x0, x1, y0, y1) = self.lattice.window(center, radius);
        let nx = self.lattice.nx;
        for y in y0..=y1 {
            for cell in &self.cells[y * nx + x0..=y * nx + x1] {
                cell.iter().for_each(|&v| f(v));
            }
        }
    }
}

/// A frozen grid over a fixed point set, for [`crate::field::Field`]:
/// the points are counting-sorted by cell into one flat array, so a
/// query's cells in one grid row are one contiguous slice, positions
/// inline, with no per-cell allocation.
#[derive(Debug, Clone)]
pub(crate) struct PointGrid {
    lattice: Lattice,
    /// Cell `c`'s points are `points[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Every point with its index into the input, cell by cell in
    /// row-major order, ascending index within a cell.
    points: Vec<(Position, u32)>,
}

impl PointGrid {
    /// Indexes `positions` (point `i` is reported as `i`) over
    /// `[0, side]²` with `cell`-sized cells.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `cell` is not positive.
    pub(crate) fn new(side: f64, cell: f64, positions: &[Position]) -> Self {
        let lattice = Lattice::new(side, cell);
        let mut starts = vec![0usize; lattice.nx * lattice.nx + 1];
        for p in positions {
            starts[lattice.cell_index(*p) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut fill = starts.clone();
        let mut points = vec![(Position::default(), 0u32); positions.len()];
        for (i, p) in positions.iter().enumerate() {
            let slot = &mut fill[lattice.cell_index(*p)];
            points[*slot] = (*p, i as u32);
            *slot += 1;
        }
        PointGrid {
            lattice,
            starts,
            points,
        }
    }

    /// Every point, cell by cell in row-major order.
    pub(crate) fn points(&self) -> &[(Position, u32)] {
        &self.points
    }

    /// Visits every point whose cell could intersect the disc of `radius`
    /// around `center`: a **superset** of the true matches, in row-major
    /// cell order, ascending index within a cell. Callers must apply the
    /// exact distance predicate themselves.
    pub(crate) fn for_each_candidate(
        &self,
        center: Position,
        radius: f64,
        mut f: impl FnMut(Position, u32),
    ) {
        let (x0, x1, y0, y1) = self.lattice.window(center, radius);
        let nx = self.lattice.nx;
        for y in y0..=y1 {
            let run = self.starts[y * nx + x0]..self.starts[y * nx + x1 + 1];
            self.points[run].iter().for_each(|&(p, i)| f(p, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(b: &Buckets<u32>, center: Position, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        b.for_each_candidate(center, radius, |v| out.push(v));
        out.sort_unstable();
        out
    }

    #[test]
    fn partial_last_cell_is_absorbed() {
        // side 100, cell 30 -> ceil(100/30) = 4 cells per axis.
        let b: Buckets<u32> = Buckets::new(100.0, 30.0);
        assert_eq!(b.cells_per_axis(), 4);
        // side smaller than one cell -> a single bucket.
        let tiny: Buckets<u32> = Buckets::new(10.0, 30.0);
        assert_eq!(tiny.cells_per_axis(), 1);
    }

    #[test]
    fn candidates_cover_the_disc() {
        let mut b = Buckets::new(100.0, 30.0);
        b.insert(Position::new(5.0, 5.0), 0);
        b.insert(Position::new(95.0, 95.0), 1);
        b.insert(Position::new(35.0, 5.0), 2);
        // Querying near the first point must yield it (and may yield the
        // adjacent-cell point, never the far corner).
        let got = collect(&b, Position::new(10.0, 5.0), 30.0);
        assert!(got.contains(&0));
        assert!(got.contains(&2), "adjacent cell is within one ring");
        assert!(!got.contains(&1), "opposite corner pruned");
    }

    #[test]
    fn boundary_point_found_from_both_sides() {
        // A value exactly on a cell edge (x = 30 with cell 30) is a
        // candidate for queries from either neighboring cell.
        let mut b = Buckets::new(100.0, 30.0);
        b.insert(Position::new(30.0, 0.0), 7);
        assert_eq!(collect(&b, Position::new(29.0, 0.0), 5.0), vec![7]);
        assert_eq!(collect(&b, Position::new(31.0, 0.0), 5.0), vec![7]);
    }

    #[test]
    fn out_of_field_coordinates_clamp_to_edge_cells() {
        let mut b = Buckets::new(100.0, 30.0);
        b.insert(Position::new(99.0, 99.0), 3);
        assert_eq!(collect(&b, Position::new(500.0, 500.0), 1.0), vec![3]);
    }

    #[test]
    fn remove_then_query_misses_value() {
        let mut b = Buckets::new(100.0, 30.0);
        let p = Position::new(50.0, 50.0);
        b.insert(p, 1);
        b.insert(p, 2);
        b.remove(p, 1);
        assert_eq!(collect(&b, p, 1.0), vec![2]);
        // Removing an absent value is a no-op.
        b.remove(p, 99);
        assert_eq!(collect(&b, p, 1.0), vec![2]);
    }

    #[test]
    fn point_grid_yields_the_bucket_candidates_in_cell_order() {
        let positions: Vec<Position> = (0..40)
            .map(|i| Position::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        let mut buckets = Buckets::new(100.0, 30.0);
        for (i, p) in positions.iter().enumerate() {
            buckets.insert(*p, i as u32);
        }
        let grid = PointGrid::new(100.0, 30.0, &positions);
        for (center, radius) in [
            ((50.0, 50.0), 10.0),
            ((0.0, 99.0), 45.0),
            ((-5.0, 7.0), 1e9),
        ] {
            let center = Position::new(center.0, center.1);
            let mut from_buckets = Vec::new();
            buckets.for_each_candidate(center, radius, |v| from_buckets.push(v));
            let mut from_grid = Vec::new();
            grid.for_each_candidate(center, radius, |p, i| {
                assert_eq!(p, positions[i as usize]);
                from_grid.push(i);
            });
            assert_eq!(from_grid, from_buckets, "center {center:?} radius {radius}");
        }
        let all: Vec<u32> = grid.points().iter().map(|&(_, i)| i).collect();
        let mut whole = Vec::new();
        buckets.for_each_candidate(Position::new(0.0, 0.0), 1e9, |v| whole.push(v));
        assert_eq!(all, whole);
    }

    #[test]
    fn large_radius_saturates_to_whole_grid() {
        let mut b = Buckets::new(100.0, 30.0);
        b.insert(Position::new(1.0, 1.0), 0);
        b.insert(Position::new(99.0, 99.0), 1);
        assert_eq!(collect(&b, Position::new(50.0, 50.0), 1e9), vec![0, 1]);
    }
}
