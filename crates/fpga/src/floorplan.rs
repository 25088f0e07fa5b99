//! Physical BRAM sites: where each block sits on the die.
//!
//! Vulnerability belongs to *sites*, not to the logical design placed on
//! them (README invariant 2), so every fault-model draw is keyed by the
//! physical `(x, y)` coordinate. Real 7-series devices arrange BRAMs in
//! vertical columns; we reproduce that column layout so the Fault Variation
//! Maps of Figs. 6–7 get their characteristic striped geometry.

use crate::bram::BramId;

/// A physical BRAM site: column `x`, row `y` on the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    pub x: u16,
    pub y: u16,
}

/// Column-major floorplan mapping dense [`BramId`]s onto sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    bram_count: usize,
    rows_per_column: usize,
}

impl Floorplan {
    /// 7-series-like column height: 100 BRAMs per column (VC707's 2060
    /// blocks span 21 columns, the 21×100 grid of the Fig.-6 rendering).
    pub const ROWS_PER_COLUMN: usize = 100;

    #[must_use]
    pub fn new(bram_count: usize) -> Floorplan {
        Floorplan {
            bram_count,
            rows_per_column: Floorplan::ROWS_PER_COLUMN,
        }
    }

    #[must_use]
    pub fn columns(&self) -> usize {
        self.bram_count.div_ceil(self.rows_per_column)
    }

    /// Physical site of a logical BRAM, if it exists on this device.
    #[must_use]
    pub fn site(&self, id: BramId) -> Option<Site> {
        let idx = id.0 as usize;
        if idx >= self.bram_count {
            return None;
        }
        Some(Site {
            x: (idx / self.rows_per_column) as u16,
            y: (idx % self.rows_per_column) as u16,
        })
    }

    /// Iterate every populated site in id order.
    pub fn sites(&self) -> impl Iterator<Item = (BramId, Site)> + '_ {
        (0..self.bram_count as u32).filter_map(|i| {
            let id = BramId(i);
            self.site(id).map(|s| (id, s))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`Floorplan::site`].
    fn id_at(fp: &Floorplan, site: Site) -> Option<BramId> {
        let idx = site.x as usize * fp.rows_per_column + site.y as usize;
        if site.y as usize >= fp.rows_per_column || idx >= fp.bram_count {
            return None;
        }
        Some(BramId(idx as u32))
    }

    #[test]
    fn vc707_grid_is_21_columns() {
        let fp = Floorplan::new(2060);
        assert_eq!(fp.columns(), 21);
        assert_eq!(fp.site(BramId(0)), Some(Site { x: 0, y: 0 }));
        assert_eq!(fp.site(BramId(100)), Some(Site { x: 1, y: 0 }));
        assert_eq!(fp.site(BramId(2059)), Some(Site { x: 20, y: 59 }));
        assert_eq!(fp.site(BramId(2060)), None);
    }

    #[test]
    fn site_id_roundtrip() {
        let fp = Floorplan::new(890);
        for (id, site) in fp.sites() {
            assert_eq!(id_at(&fp, site), Some(id));
        }
        assert_eq!(fp.sites().count(), 890);
    }
}
