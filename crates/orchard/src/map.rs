//! The orchard map: tree rows and fly traps.

use hdc_geometry::Vec2;

/// One tree in the plantation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tree {
    /// Ground position.
    pub position: Vec2,
    /// Row index.
    pub row: u32,
    /// Column index within the row.
    pub col: u32,
}

/// A fly trap hung in a tree (the drone's data source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlyTrap {
    /// Trap id (index into the map's trap list).
    pub id: u32,
    /// Ground position (at the tree).
    pub position: Vec2,
    /// Height of the trap above ground, metres.
    pub height_m: f64,
    /// Whether the trap has been read this mission.
    pub read: bool,
}

/// The plantation: a rectangular grid of trees, one trap per tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchardMap {
    trees: Vec<Tree>,
    traps: Vec<FlyTrap>,
    row_spacing: f64,
    col_spacing: f64,
}

impl OrchardMap {
    /// Builds a `rows × cols` grid with the given spacings (metres).
    ///
    /// # Panics
    /// Panics if `rows`, `cols` or a spacing is zero/non-positive.
    pub fn grid(rows: u32, cols: u32, row_spacing: f64, col_spacing: f64) -> Self {
        assert!(rows > 0 && cols > 0, "orchard must have trees");
        assert!(
            row_spacing > 0.0 && col_spacing > 0.0,
            "spacings must be positive"
        );
        let mut trees = Vec::with_capacity((rows * cols) as usize);
        let mut traps = Vec::with_capacity((rows * cols) as usize);
        for r in 0..rows {
            for c in 0..cols {
                let position = Vec2::new(c as f64 * col_spacing, r as f64 * row_spacing);
                trees.push(Tree {
                    position,
                    row: r,
                    col: c,
                });
                traps.push(FlyTrap {
                    id: (r * cols + c),
                    position,
                    height_m: 1.8,
                    read: false,
                });
            }
        }
        OrchardMap {
            trees,
            traps,
            row_spacing,
            col_spacing,
        }
    }

    /// The trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// The traps.
    pub fn traps(&self) -> &[FlyTrap] {
        &self.traps
    }

    /// Mutable trap access (mission bookkeeping).
    pub fn traps_mut(&mut self) -> &mut [FlyTrap] {
        &mut self.traps
    }

    /// Bounding rectangle of the plantation `(min, max)`, with a margin.
    pub fn bounds(&self) -> (Vec2, Vec2) {
        let mut lo = Vec2::splat(f64::INFINITY);
        let mut hi = Vec2::splat(f64::NEG_INFINITY);
        for t in &self.trees {
            lo = lo.min(t.position);
            hi = hi.max(t.position);
        }
        (lo - Vec2::splat(2.0), hi + Vec2::splat(2.0))
    }

    /// Nearest-neighbour tour over all unread traps starting from `from`.
    ///
    /// Returns trap ids in visiting order — the mission's route.
    pub fn plan_tour(&self, from: Vec2) -> Vec<u32> {
        let mut remaining: Vec<&FlyTrap> = self.traps.iter().filter(|t| !t.read).collect();
        let mut tour = Vec::with_capacity(remaining.len());
        let mut at = from;
        while !remaining.is_empty() {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    at.distance(a.position)
                        .partial_cmp(&at.distance(b.position))
                        .unwrap()
                })
                .expect("non-empty");
            let trap = remaining.swap_remove(idx);
            at = trap.position;
            tour.push(trap.id);
        }
        tour
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions() {
        let m = OrchardMap::grid(3, 5, 4.0, 3.0);
        assert_eq!(m.trees().len(), 15);
        assert_eq!(m.traps().len(), 15);
        assert_eq!(m.trees()[0].position, Vec2::ZERO);
        assert_eq!(m.trees()[14].position, Vec2::new(12.0, 8.0));
    }

    #[test]
    fn bounds_include_margin() {
        let m = OrchardMap::grid(2, 2, 4.0, 3.0);
        let (lo, hi) = m.bounds();
        assert_eq!(lo, Vec2::new(-2.0, -2.0));
        assert_eq!(hi, Vec2::new(5.0, 6.0));
    }

    #[test]
    fn tour_visits_every_trap_once() {
        let m = OrchardMap::grid(4, 4, 4.0, 3.0);
        let tour = m.plan_tour(Vec2::new(-5.0, -5.0));
        assert_eq!(tour.len(), 16);
        let mut sorted = tour.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "no repeats");
    }

    #[test]
    fn tour_starts_nearby() {
        let m = OrchardMap::grid(3, 3, 4.0, 3.0);
        let tour = m.plan_tour(Vec2::new(0.0, 0.0));
        assert_eq!(tour[0], 0, "nearest trap first");
    }

    #[test]
    fn tour_skips_read_traps() {
        let mut m = OrchardMap::grid(2, 2, 4.0, 3.0);
        m.traps_mut()[0].read = true;
        let tour = m.plan_tour(Vec2::ZERO);
        assert_eq!(tour.len(), 3);
        assert!(!tour.contains(&0));
    }

    #[test]
    fn nearest_neighbour_tour_is_not_terrible() {
        // tour length within 2× of the row-by-row boustrophedon length
        let m = OrchardMap::grid(5, 5, 4.0, 3.0);
        let tour = m.plan_tour(Vec2::ZERO);
        let mut len = 0.0;
        let mut at = Vec2::ZERO;
        for id in &tour {
            let p = m.traps()[*id as usize].position;
            len += at.distance(p);
            at = p;
        }
        let boustrophedon = 5.0 * 12.0 + 4.0 * 4.0; // 5 rows of 12 m + 4 row changes
        assert!(
            len < 2.0 * boustrophedon,
            "tour {len} vs serpentine {boustrophedon}"
        );
    }

    #[test]
    #[should_panic(expected = "trees")]
    fn empty_grid_rejected() {
        OrchardMap::grid(0, 3, 1.0, 1.0);
    }
}
