//! Symbolic communication-pattern analysis — Table 1 of the paper.
//!
//! For a cubic sub-box of edge `a` and ghost cutoff `r`, the two patterns
//! move the following per-exchange volumes (Newton's 3rd law enabled):
//!
//! | pattern | msg_size | hop | msg |
//! |---------|----------|-----|-----|
//! | 3-stage | a^2 r            | 1 | 2 |
//! | 3-stage | a^2 r + 2 a r^2  | 1 | 2 |
//! | 3-stage | (a + 2r)^2 r     | 1 | 2 |
//! | p2p     | a^2 r            | 1 | 3 |
//! | p2p     | a r^2            | 2 | 6 |
//! | p2p     | r^3              | 3 | 4 |
//!
//! totals: 3-stage ships `8r^3 + 12ar^2 + 6a^2r` atoms in 6 messages, p2p
//! ships `4r^3 + 6ar^2 + 3a^2r` (half) in 13.

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternRow {
    /// Ghost-slab volume carried per message (multiply by density for
    /// atoms, by atom record size for bytes).
    pub volume: f64,
    /// Network hops to the peer in the logical 3D torus.
    pub hops: u32,
    /// Number of messages of this row (per exchange, per rank).
    pub msgs: u32,
}

/// Sub-box geometry for the symbolic analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Cubic sub-box edge length.
    pub a: f64,
    /// Ghost cutoff (r_cut + skin in practice; the paper writes r_cut).
    pub r: f64,
}

impl Geometry {
    /// Geometry from a per-rank atom count and number density.
    #[must_use]
    pub fn from_atoms_per_rank(n_local: f64, density: f64, r: f64) -> Self {
        assert!(n_local > 0.0 && density > 0.0);
        Geometry {
            a: (n_local / density).cbrt(),
            r,
        }
    }

    /// The three 3-stage rows (Table 1 upper half).
    #[must_use]
    pub fn three_stage_rows(&self) -> [PatternRow; 3] {
        let (a, r) = (self.a, self.r);
        [
            PatternRow {
                volume: a * a * r,
                hops: 1,
                msgs: 2,
            },
            PatternRow {
                volume: a * a * r + 2.0 * a * r * r,
                hops: 1,
                msgs: 2,
            },
            PatternRow {
                volume: (a + 2.0 * r) * (a + 2.0 * r) * r,
                hops: 1,
                msgs: 2,
            },
        ]
    }

    /// The three p2p rows (Table 1 lower half, Newton half set).
    #[must_use]
    pub fn p2p_rows(&self) -> [PatternRow; 3] {
        let (a, r) = (self.a, self.r);
        [
            PatternRow {
                volume: a * a * r,
                hops: 1,
                msgs: 3,
            },
            PatternRow {
                volume: a * r * r,
                hops: 2,
                msgs: 6,
            },
            PatternRow {
                volume: r * r * r,
                hops: 3,
                msgs: 4,
            },
        ]
    }

    /// Table 1: `total_atom` volume of the 3-stage pattern.
    #[must_use]
    pub fn three_stage_total(&self) -> f64 {
        let (a, r) = (self.a, self.r);
        8.0 * r * r * r + 12.0 * a * r * r + 6.0 * a * a * r
    }

    /// Table 1: `total_atom` volume of the (half) p2p pattern.
    #[must_use]
    pub fn p2p_total(&self) -> f64 {
        let (a, r) = (self.a, self.r);
        4.0 * r * r * r + 6.0 * a * r * r + 3.0 * a * a * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry { a: 10.0, r: 2.5 }
    }

    #[test]
    fn totals_match_row_sums() {
        let g = geom();
        let ts: f64 = g
            .three_stage_rows()
            .iter()
            .map(|r| r.volume * f64::from(r.msgs))
            .sum();
        assert!((ts - g.three_stage_total()).abs() < 1e-9);
        let p2p: f64 = g
            .p2p_rows()
            .iter()
            .map(|r| r.volume * f64::from(r.msgs))
            .sum();
        assert!((p2p - g.p2p_total()).abs() < 1e-9);
    }

    #[test]
    fn newton_halves_the_volume() {
        let g = geom();
        assert!((g.three_stage_total() - 2.0 * g.p2p_total()).abs() < 1e-9);
    }

    #[test]
    fn message_counts_match_paper() {
        let g = geom();
        let total_msgs_3s: u32 = g.three_stage_rows().iter().map(|r| r.msgs).sum();
        let total_msgs_p2p: u32 = g.p2p_rows().iter().map(|r| r.msgs).sum();
        assert_eq!(total_msgs_3s, 6);
        assert_eq!(total_msgs_p2p, 13);
    }

    #[test]
    fn staged_messages_grow_per_stage() {
        // Each stage carries part of the previous stage's ghosts, so the
        // message volumes are strictly increasing.
        let rows = geom().three_stage_rows();
        assert!(rows[0].volume < rows[1].volume);
        assert!(rows[1].volume < rows[2].volume);
    }

    #[test]
    fn geometry_from_atom_count() {
        let g = Geometry::from_atoms_per_rank(1000.0, 0.8442, 2.8);
        assert!((g.a.powi(3) * 0.8442 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn paper_65k_on_768_nodes_message_size() {
        // §4.2: 65K atoms on 3072 ranks -> ~22 atoms/rank; forward/reverse
        // messages at most 528 B. A 22-atom sub-box at LJ density has a
        // face message of ~a^2 r rho atoms * 24 B/atom — small, consistent
        // with the paper's "at most 528B".
        let g = Geometry::from_atoms_per_rank(65_536.0 / 3072.0, 0.8442, 2.8);
        let face_atoms = g.p2p_rows()[0].volume * 0.8442;
        let bytes = face_atoms * 24.0;
        assert!(
            bytes < 600.0,
            "face message {bytes} B should be ~paper's 528 B"
        );
    }
}
