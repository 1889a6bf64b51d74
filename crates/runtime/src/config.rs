//! Run configurations mirroring the paper's inputs (Table 2).

use tofumd_md::lattice::FccLattice;
use tofumd_md::neighbor::{ListKind, RebuildPolicy};
use tofumd_md::potential::{EamCu, LjCut, LjCutMulti, Potential, StillingerWeber};
use tofumd_md::units::UnitSystem;

/// Which force field / neighbor regime a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PotentialKind {
    /// Table 2 LJ benchmark: sigma = eps = 1, cutoff 2.5, Newton on.
    Lj,
    /// Table 2 EAM benchmark: Cu, cutoff 4.95, Newton on.
    Eam,
    /// Full-neighbor-list LJ (stands in for Tersoff/DeePMD): 26-neighbor
    /// exchange, no reverse communication (Fig. 15's first scenario).
    LjFull,
    /// Long-cutoff LJ producing the 62/124-neighbor regimes of Fig. 15.
    LjLongCutoff {
        /// Force cutoff (in sigma).
        cutoff: f64,
        /// Full list (124 neighbors) vs Newton half (62).
        full: bool,
    },
    /// Stillinger-Weber silicon: a real full-list three-body potential
    /// (26-neighbor exchange *and* reverse communication) — the Fig. 11
    /// silicon system and Fig. 15's Tersoff/DeePMD class.
    Sw,
    /// A 50/50 binary LJ mixture (Lorentz-Berthelot mixed): exercises the
    /// type-carrying wire format through every communication stage.
    /// Species are assigned by tag parity, so the assignment is identical
    /// in serial and decomposed runs. Equal masses (the integrator is
    /// single-mass).
    LjBinary,
}

/// Spatial decomposition strategy (LAMMPS `comm_style`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Decomp {
    /// Uniform bricks aligned with the rank mesh (`comm_style brick`).
    #[default]
    Grid,
    /// Recursive coordinate bisection over the initial atom positions
    /// (`comm_style tiled` + `balance rcb`): rank boxes follow the atom
    /// density, so skewed systems start balanced.
    Rcb,
}

/// Communication-layer tuning riding along with a [`RunConfig`]. The
/// default reproduces the historical behavior exactly (uniform grid,
/// cutoff-derived halo, uniform lattice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommTuning {
    /// Decomposition strategy.
    pub decomp: Decomp,
    /// Force at least this many halo shells (1 -> 13/26 neighbors,
    /// 2 -> 62, 3 -> 124); the cutoff-derived minimum always wins when
    /// larger. Grid decomposition only.
    pub shells: Option<usize>,
    /// Extend the ghost cutoff beyond force cutoff + skin (LAMMPS
    /// `comm_modify cutoff`); values below the derived cutoff are ignored.
    pub ghost_cutoff: Option<f64>,
    /// Linear density thinning along +x: the kept fraction falls from 1
    /// at the low face to `1 - density_gradient` at the high face,
    /// decided per atom by a tag hash so the system is identical under
    /// any decomposition. 0 = uniform lattice.
    pub density_gradient: f64,
    /// Imbalance threshold of `balance <thresh> rcb`: a mid-run rebalance
    /// fires only while max/mean atom imbalance exceeds this. `None`
    /// means 1.0 (any measurable imbalance qualifies). RCB only.
    pub balance_thresh: Option<f64>,
    /// Check the rebalance trigger every this many steps (LAMMPS
    /// `fix balance N`). `None` keeps the decomposition static for the
    /// whole run — the historical behavior. RCB only.
    pub rebalance_every: Option<u64>,
}

impl Default for CommTuning {
    fn default() -> Self {
        CommTuning {
            decomp: Decomp::Grid,
            shells: None,
            ghost_cutoff: None,
            density_gradient: 0.0,
            balance_thresh: None,
            rebalance_every: None,
        }
    }
}

impl CommTuning {
    /// Is this a step where the rebalance trigger is *evaluated* (and its
    /// imbalance allreduce charged)? Pure in (config, step).
    #[must_use]
    pub fn rebalance_check_due(&self, step: u64) -> bool {
        self.decomp == Decomp::Rcb
            && self
                .rebalance_every
                .is_some_and(|every| every > 0 && step.is_multiple_of(every))
    }

    /// Does the dynamic-balance trigger fire at this step with this
    /// measured atom imbalance? Pure in (config, step, imbalance) so
    /// every rank — at every thread count — reaches the same decision.
    #[must_use]
    pub fn rebalance_due(&self, step: u64, imbalance: f64) -> bool {
        self.rebalance_check_due(step) && imbalance > self.balance_thresh.unwrap_or(1.0)
    }

    /// Should the atom with this global tag survive the density ramp?
    /// `frac_x` is the atom's fractional position along x. Deterministic
    /// in (tag, gradient) only, so grid and RCB runs build the same
    /// system.
    #[must_use]
    pub fn keeps_atom(&self, tag: u64, frac_x: f64) -> bool {
        if self.density_gradient <= 0.0 {
            return true;
        }
        // splitmix64: a well-mixed draw in [0, 1) per tag.
        let mut z = tag.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let draw = (z >> 11) as f64 / (1u64 << 53) as f64;
        draw >= self.density_gradient * frac_x
    }
}

/// A complete run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Force field / regime.
    pub kind: PotentialKind,
    /// Total atom count to build (rounded up to whole FCC cells).
    pub natoms_target: usize,
    /// Initial temperature (reduced units for LJ, kelvin for EAM).
    pub temperature: f64,
    /// Velocity seed.
    pub seed: u64,
    /// Communication tuning (decomposition, halo depth, density ramp).
    pub comm: CommTuning,
}

impl RunConfig {
    /// The LJ benchmark at a given size (65 K / 1.7 M / 4,194,304 in the
    /// paper).
    #[must_use]
    pub fn lj(natoms: usize) -> Self {
        RunConfig {
            kind: PotentialKind::Lj,
            natoms_target: natoms,
            temperature: 1.44,
            seed: 20230612,
            comm: CommTuning::default(),
        }
    }

    /// The EAM benchmark at a given size (65 K / 1.7 M / 3,456,000).
    /// 1600 K initial temperature as in the LAMMPS `in.eam` benchmark.
    #[must_use]
    pub fn eam(natoms: usize) -> Self {
        RunConfig {
            kind: PotentialKind::Eam,
            natoms_target: natoms,
            temperature: 1600.0,
            seed: 20230612,
            comm: CommTuning::default(),
        }
    }

    /// Stillinger-Weber silicon at 1000 K.
    #[must_use]
    pub fn sw(natoms: usize) -> Self {
        RunConfig {
            kind: PotentialKind::Sw,
            natoms_target: natoms,
            temperature: 1000.0,
            seed: 20230612,
            comm: CommTuning::default(),
        }
    }

    /// Unit system (Table 2).
    #[must_use]
    pub fn units(&self) -> UnitSystem {
        match self.kind {
            PotentialKind::Eam | PotentialKind::Sw => UnitSystem::Metal,
            _ => UnitSystem::Lj,
        }
    }

    /// Verlet skin (Table 2: 0.3 LJ / 1.0 EAM).
    #[must_use]
    pub fn skin(&self) -> f64 {
        match self.kind {
            PotentialKind::Eam | PotentialKind::Sw => 1.0,
            _ => 0.3,
        }
    }

    /// Timestep (Table 2: 0.005 tau / 0.005 ps).
    #[must_use]
    pub fn timestep(&self) -> f64 {
        0.005
    }

    /// Neighbor rebuild policy (Table 2).
    #[must_use]
    pub fn policy(&self) -> RebuildPolicy {
        match self.kind {
            PotentialKind::Eam | PotentialKind::Sw => RebuildPolicy::EAM,
            _ => RebuildPolicy::LJ,
        }
    }

    /// Atomic mass (reduced 1 for LJ, 63.55 g/mol for Cu).
    #[must_use]
    pub fn mass(&self) -> f64 {
        match self.kind {
            PotentialKind::Eam => 63.55,
            PotentialKind::Sw => 28.0855,
            _ => 1.0,
        }
    }

    /// The FCC lattice of Table 2.
    #[must_use]
    pub fn lattice(&self) -> FccLattice {
        match self.kind {
            PotentialKind::Eam => FccLattice::from_cell(3.615),
            PotentialKind::Sw => FccLattice::from_cell(5.431),
            _ => FccLattice::from_reduced_density(0.8442),
        }
    }

    /// Atoms per conventional lattice cell (4 FCC, 8 diamond).
    #[must_use]
    pub fn atoms_per_cell(&self) -> usize {
        match self.kind {
            PotentialKind::Sw => 8,
            _ => 4,
        }
    }

    /// Build the lattice block: FCC or diamond per the potential.
    #[must_use]
    pub fn build_lattice(
        &self,
        nx: usize,
        ny: usize,
        nz: usize,
    ) -> (tofumd_md::region::Box3, Vec<[f64; 3]>) {
        match self.kind {
            PotentialKind::Sw => self.lattice().build_diamond(nx, ny, nz),
            _ => self.lattice().build(nx, ny, nz),
        }
    }

    /// Number density.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.atoms_per_cell() as f64 / self.lattice().cell.powi(3)
    }

    /// Build the potential object.
    #[must_use]
    pub fn build_potential(&self) -> Potential {
        match self.kind {
            PotentialKind::Lj => Potential::Pair(Box::new(LjCut::lammps_bench())),
            PotentialKind::Eam => Potential::ManyBody(Box::new(EamCu::lammps_bench())),
            PotentialKind::LjFull => {
                Potential::Pair(Box::new(LjCut::new(1.0, 1.0, 2.5, ListKind::Full)))
            }
            PotentialKind::LjLongCutoff { cutoff, full } => {
                let kind = if full {
                    ListKind::Full
                } else {
                    ListKind::HalfNewton
                };
                Potential::Pair(Box::new(LjCut::new(1.0, 1.0, cutoff, kind)))
            }
            PotentialKind::Sw => Potential::Pair(Box::new(StillingerWeber::silicon())),
            PotentialKind::LjBinary => Potential::Pair(Box::new(LjCutMulti::from_types(
                &[(1.0, 1.0), (0.8, 0.9)],
                2.5,
            ))),
        }
    }

    /// Whether the ghost exchange is Newton-halved.
    #[must_use]
    pub fn newton_half(&self) -> bool {
        matches!(self.build_potential().list_kind(), ListKind::HalfNewton)
    }

    /// Is this an EAM-like (two-pass) run?
    #[must_use]
    pub fn is_eam(&self) -> bool {
        matches!(self.kind, PotentialKind::Eam)
    }

    /// Must ghost forces be reverse-communicated after the pair stage?
    #[must_use]
    pub fn needs_reverse(&self) -> bool {
        self.build_potential().needs_reverse()
    }

    /// Species of the atom with a given global tag (deterministic and
    /// decomposition-invariant).
    #[must_use]
    pub fn type_of_tag(&self, tag: u64) -> u32 {
        match self.kind {
            PotentialKind::LjBinary => 1 + (tag % 2) as u32,
            _ => 1,
        }
    }

    /// Ghost cutoff: force cutoff + skin, extended by `comm.ghost_cutoff`
    /// when that asks for more (never less — correctness floor).
    #[must_use]
    pub fn ghost_cutoff(&self) -> f64 {
        let derived = self.build_potential().cutoff() + self.skin();
        match self.comm.ghost_cutoff {
            Some(r) => derived.max(r),
            None => derived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_preset_matches_table2() {
        let c = RunConfig::lj(65_536);
        assert_eq!(c.units(), UnitSystem::Lj);
        assert_eq!(c.skin(), 0.3);
        assert_eq!(c.policy(), RebuildPolicy::LJ);
        assert_eq!(c.mass(), 1.0);
        assert!((c.density() - 0.8442).abs() < 1e-12);
        assert!((c.ghost_cutoff() - 2.8).abs() < 1e-12);
        assert!(c.newton_half());
        assert!(!c.is_eam());
    }

    #[test]
    fn eam_preset_matches_table2() {
        let c = RunConfig::eam(65_536);
        assert_eq!(c.units(), UnitSystem::Metal);
        assert_eq!(c.skin(), 1.0);
        assert_eq!(c.policy(), RebuildPolicy::EAM);
        assert!((c.ghost_cutoff() - 5.95).abs() < 1e-12);
        assert!(c.newton_half());
        assert!(c.is_eam());
    }

    #[test]
    fn full_list_disables_newton_halving() {
        let c = RunConfig {
            kind: PotentialKind::LjFull,
            ..RunConfig::lj(1000)
        };
        assert!(!c.newton_half());
    }

    #[test]
    fn sw_preset_is_full_list_with_reverse() {
        let c = RunConfig::sw(8000);
        assert_eq!(c.units(), UnitSystem::Metal);
        assert!(!c.newton_half(), "SW uses the full list");
        assert!(c.needs_reverse(), "SW still reverse-communicates");
        assert_eq!(c.atoms_per_cell(), 8);
        assert!((c.density() - 8.0 / 5.431f64.powi(3)).abs() < 1e-12);
        assert!((c.ghost_cutoff() - (1.8 * 2.0951 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn binary_mixture_types_by_tag_parity() {
        let c = RunConfig {
            kind: PotentialKind::LjBinary,
            ..RunConfig::lj(1000)
        };
        assert_eq!(c.type_of_tag(1), 2);
        assert_eq!(c.type_of_tag(2), 1);
        assert!(c.newton_half());
        assert_eq!(RunConfig::lj(10).type_of_tag(7), 1);
    }

    #[test]
    fn rebalance_trigger_is_interval_and_threshold_gated() {
        let tuned = CommTuning {
            decomp: Decomp::Rcb,
            balance_thresh: Some(1.2),
            rebalance_every: Some(10),
            ..CommTuning::default()
        };
        assert!(tuned.rebalance_due(10, 1.5));
        assert!(!tuned.rebalance_due(10, 1.2), "threshold is exclusive");
        assert!(!tuned.rebalance_due(11, 1.5), "off-interval step");
        assert!(!tuned.rebalance_due(10, 1.01), "below threshold");
        // No interval -> static decomposition; grid never rebalances.
        assert!(!CommTuning {
            rebalance_every: None,
            ..tuned
        }
        .rebalance_due(10, 9.0));
        assert!(!CommTuning {
            decomp: Decomp::Grid,
            ..tuned
        }
        .rebalance_due(10, 9.0));
        // Without an explicit threshold any excess over 1.0 fires.
        assert!(CommTuning {
            balance_thresh: None,
            ..tuned
        }
        .rebalance_due(20, 1.05));
    }

    #[test]
    fn long_cutoff_variants() {
        let half = RunConfig {
            kind: PotentialKind::LjLongCutoff {
                cutoff: 5.0,
                full: false,
            },
            ..RunConfig::lj(1000)
        };
        assert!(half.newton_half());
        assert!((half.ghost_cutoff() - 5.3).abs() < 1e-12);
        let full = RunConfig {
            kind: PotentialKind::LjLongCutoff {
                cutoff: 5.0,
                full: true,
            },
            ..RunConfig::lj(1000)
        };
        assert!(!full.newton_half());
    }
}
