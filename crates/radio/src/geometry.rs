//! Positions and distances on the synthetic map.
//!
//! The deployment lives on a square region measured in kilometres. Geography
//! is synthetic (DESIGN.md §11): what matters to the reproduction is relative
//! density and distance, not real coordinates.

/// A position on the map, in kilometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pos {
    /// East–west coordinate (km).
    pub x: f64,
    /// North–south coordinate (km).
    pub y: f64,
}

impl Pos {
    /// Construct a position.
    pub const fn new(x: f64, y: f64) -> Pos {
        Pos { x, y }
    }

    /// Euclidean distance to another position, in km.
    pub fn distance_km(self, other: Pos) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Clamp the position into the square `[0, size] × [0, size]`.
    pub(crate) fn clamped(self, size: f64) -> Pos {
        Pos {
            x: self.x.clamp(0.0, size),
            y: self.y.clamp(0.0, size),
        }
    }

    /// Translate by a delta.
    pub fn offset(self, dx: f64, dy: f64) -> Pos {
        Pos {
            x: self.x + dx,
            y: self.y + dy,
        }
    }
}

/// A uniform spatial grid index over `[0, size] × [0, size]`, bucketing item
/// indices by cell for neighbourhood queries in O(cells touched).
#[derive(Debug, Clone)]
pub struct GridIndex {
    size_km: f64,
    cell_km: f64,
    cells_per_side: usize,
    buckets: Vec<Vec<u32>>,
}

impl GridIndex {
    /// Create an empty grid covering a `size_km × size_km` region with the
    /// given cell edge length.
    pub fn new(size_km: f64, cell_km: f64) -> Self {
        assert!(size_km > 0.0 && cell_km > 0.0);
        let cells_per_side = (size_km / cell_km).ceil().max(1.0) as usize;
        GridIndex {
            size_km,
            cell_km,
            cells_per_side,
            buckets: vec![Vec::new(); cells_per_side * cells_per_side],
        }
    }

    fn cell_of(&self, pos: Pos) -> (usize, usize) {
        let cx = ((pos.x / self.cell_km) as usize).min(self.cells_per_side - 1);
        let cy = ((pos.y / self.cell_km) as usize).min(self.cells_per_side - 1);
        (cx, cy)
    }

    /// Insert an item index at a position.
    pub fn insert(&mut self, pos: Pos, item: u32) {
        let (cx, cy) = self.cell_of(pos.clamped(self.size_km));
        self.buckets[cy * self.cells_per_side + cx].push(item);
    }

    /// Visit every item whose grid cell intersects the disc of `radius_km`
    /// around `pos`. Items outside the disc may be visited (cell granularity);
    /// callers filter by exact distance.
    pub(crate) fn for_each_near(&self, pos: Pos, radius_km: f64, mut f: impl FnMut(u32)) {
        let pos = pos.clamped(self.size_km);
        let r_cells = (radius_km / self.cell_km).ceil() as isize;
        let (cx, cy) = self.cell_of(pos);
        let (cx, cy) = (cx as isize, cy as isize);
        let n = self.cells_per_side as isize;
        for dy in -r_cells..=r_cells {
            let y = cy + dy;
            if y < 0 || y >= n {
                continue;
            }
            for dx in -r_cells..=r_cells {
                let x = cx + dx;
                if x < 0 || x >= n {
                    continue;
                }
                for &item in &self.buckets[(y * n + x) as usize] {
                    f(item);
                }
            }
        }
    }

    /// Collect items within exact distance `radius_km` of `pos`, given a
    /// position accessor for items.
    pub fn query_within(&self, pos: Pos, radius_km: f64, pos_of: impl Fn(u32) -> Pos) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_near(pos, radius_km, |item| {
            if pos_of(item).distance_km(pos) <= radius_km {
                out.push(item);
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance() {
        let a = Pos::new(0.0, 0.0);
        let b = Pos::new(3.0, 4.0);
        assert!((a.distance_km(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_km(a), 0.0);
    }

    #[test]
    fn clamping() {
        let p = Pos::new(-1.0, 11.0).clamped(10.0);
        assert_eq!(p, Pos::new(0.0, 10.0));
    }

    #[test]
    fn grid_finds_nearby_items() {
        let mut g = GridIndex::new(10.0, 1.0);
        let positions = [Pos::new(1.0, 1.0), Pos::new(1.2, 1.1), Pos::new(9.0, 9.0)];
        for (i, &p) in positions.iter().enumerate() {
            g.insert(p, i as u32);
        }
        let near = g.query_within(Pos::new(1.0, 1.0), 0.5, |i| positions[i as usize]);
        assert_eq!(near.len(), 2);
        assert!(near.contains(&0) && near.contains(&1));
    }

    #[test]
    fn grid_radius_excludes_far_items() {
        let mut g = GridIndex::new(10.0, 2.0);
        let positions = [Pos::new(0.5, 0.5), Pos::new(1.9, 1.9)];
        for (i, &p) in positions.iter().enumerate() {
            g.insert(p, i as u32);
        }
        // Item 1 shares the grid cell but is ~1.98 km away.
        let near = g.query_within(Pos::new(0.5, 0.5), 1.0, |i| positions[i as usize]);
        assert_eq!(near, vec![0]);
    }

    #[test]
    fn grid_handles_edge_positions() {
        let mut g = GridIndex::new(10.0, 3.0);
        g.insert(Pos::new(10.0, 10.0), 7);
        let near = g.query_within(Pos::new(10.0, 10.0), 0.1, |_| Pos::new(10.0, 10.0));
        assert_eq!(near, vec![7]);
    }
}
