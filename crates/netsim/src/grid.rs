//! Uniform spatial grid over a square field.
//!
//! [`crate::field::Field`] answers disc queries — "every node within
//! `radius` of `center`". A grid with cell size equal to the nominal radio
//! range turns those from O(N) scans into visits of the O(1) cells
//! adjacent to the query disc. The field's points never move, so the grid
//! is a frozen [`PointGrid`].
//!
//! # Superset-candidate contract
//!
//! The grid never answers a query exactly. [`PointGrid::for_each_candidate`]
//! visits every point whose cell *could* intersect the disc — a superset
//! of the true matches — and the caller applies the same exact
//! floating-point predicate the old brute-force scan used
//! (`distance_to(center) <= radius`). Membership therefore cannot drift by
//! even one ULP from the pre-index code: the grid only prunes points that
//! are provably outside the disc (their cell is more than
//! `ceil(radius / cell)` cells away on an axis, hence more than `radius`
//! meters away).
//!
//! Out-of-field coordinates are clamped onto the edge cells by a monotone
//! (1-Lipschitz in cell units) projection, so the superset property holds
//! for arbitrary query centers, not just in-field ones.

use crate::field::Position;

/// The grid's cell arithmetic: a square `[0, side]²` cut into square
/// cells of `cell` meters per axis (the last row/column
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

    /// Cells per axis (for tests / diagnostics).
    #[cfg(test)]
    fn cells_per_axis(&self) -> usize {
        self.lattice.nx
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

    fn collect(g: &PointGrid, center: Position, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_candidate(center, radius, |_, i| out.push(i));
        out.sort_unstable();
        out
    }

    fn grid(side: f64, cell: f64, points: &[(f64, f64)]) -> PointGrid {
        let positions: Vec<Position> = points.iter().map(|&(x, y)| Position::new(x, y)).collect();
        PointGrid::new(side, cell, &positions)
    }

    #[test]
    fn partial_last_cell_is_absorbed() {
        // side 100, cell 30 -> ceil(100/30) = 4 cells per axis.
        assert_eq!(grid(100.0, 30.0, &[]).cells_per_axis(), 4);
        // side smaller than one cell -> a single cell.
        assert_eq!(grid(10.0, 30.0, &[]).cells_per_axis(), 1);
    }

    #[test]
    fn candidates_cover_the_disc() {
        let g = grid(100.0, 30.0, &[(5.0, 5.0), (95.0, 95.0), (35.0, 5.0)]);
        // Querying near the first point must yield it (and may yield the
        // adjacent-cell point, never the far corner).
        let got = collect(&g, Position::new(10.0, 5.0), 30.0);
        assert!(got.contains(&0));
        assert!(got.contains(&2), "adjacent cell is within one ring");
        assert!(!got.contains(&1), "opposite corner pruned");
    }

    #[test]
    fn boundary_point_found_from_both_sides() {
        // A point exactly on a cell edge (x = 30 with cell 30) is a
        // candidate for queries from either neighboring cell.
        let g = grid(100.0, 30.0, &[(30.0, 0.0)]);
        assert_eq!(collect(&g, Position::new(29.0, 0.0), 5.0), vec![0]);
        assert_eq!(collect(&g, Position::new(31.0, 0.0), 5.0), vec![0]);
    }

    #[test]
    fn out_of_field_coordinates_clamp_to_edge_cells() {
        let g = grid(100.0, 30.0, &[(99.0, 99.0)]);
        assert_eq!(collect(&g, Position::new(500.0, 500.0), 1.0), vec![0]);
    }

    #[test]
    fn point_grid_yields_points_in_cell_order() {
        let positions: Vec<Position> = (0..40)
            .map(|i| Position::new((i * 37 % 100) as f64, (i * 53 % 100) as f64))
            .collect();
        let g = PointGrid::new(100.0, 30.0, &positions);
        let lattice = Lattice::new(100.0, 30.0);
        // Row-major cell order, ascending index within a cell.
        let key = |&(p, i): &(Position, u32)| (lattice.cell_index(p), i);
        assert!(g.points().windows(2).all(|w| key(&w[0]) < key(&w[1])));
        for (center, radius) in [
            ((50.0, 50.0), 10.0),
            ((0.0, 99.0), 45.0),
            ((-5.0, 7.0), 1e9),
        ] {
            let center = Position::new(center.0, center.1);
            let mut got = Vec::new();
            g.for_each_candidate(center, radius, |p, i| {
                assert_eq!(p, positions[i as usize]);
                got.push((p, i));
            });
            assert!(got.windows(2).all(|w| key(&w[0]) < key(&w[1])));
            for (i, p) in positions.iter().enumerate() {
                if p.distance_to(&center) <= radius {
                    assert!(
                        got.contains(&(*p, i as u32)),
                        "center {center:?} radius {radius}"
                    );
                }
            }
        }
        let mut whole = Vec::new();
        g.for_each_candidate(Position::new(0.0, 0.0), 1e9, |p, i| whole.push((p, i)));
        assert_eq!(whole, g.points());
    }

    #[test]
    fn large_radius_saturates_to_whole_grid() {
        let g = grid(100.0, 30.0, &[(1.0, 1.0), (99.0, 99.0)]);
        assert_eq!(collect(&g, Position::new(50.0, 50.0), 1e9), vec![0, 1]);
    }
}
