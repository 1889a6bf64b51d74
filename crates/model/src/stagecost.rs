//! Calibrated per-stage compute-cost model (the non-communication side of
//! the Table 3 breakdown).
//!
//! Communication time comes from the simulated fabric; the remaining
//! stages — Pair, Neigh, Modify, Other — are CPU work whose absolute
//! values on A64FX we cannot measure. The constants below are calibrated
//! so the *shape* of the paper's results holds (Table 3 stage shares,
//! Fig. 12's step-by-step ordering, the 43 %/57 % pair-stage reduction from
//! the thread pool); each constant notes its calibration anchor. See
//! EXPERIMENTS.md for the calibration narrative.

/// Which threading runtime executes the compute stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threading {
    /// OpenMP-style fork/join per parallel region (baseline LAMMPS and the
    /// non-pool uTofu variants; 5.8 us/region).
    OpenMp,
    /// The paper's spin-lock thread pool (1.1 us/region).
    SpinPool,
}

/// Per-stage cost constants. Times in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Cost of one pair interaction on one core (LJ): ~10 ns covers the
    /// distance check, the 12-6 kernel and force scatter at short vector
    /// lengths.
    pub pair_interaction: f64,
    /// Per-atom traversal overhead in the pair stage (list walk, cache
    /// misses over the ghost-heavy array) per core-visit.
    pub pair_atom: f64,
    /// EAM work multiplier over LJ per interaction (spline lookups;
    /// anchored on Table 3's ref-EAM/ref-LJ pair ratio).
    pub eam_pair_factor: f64,
    /// EAM multiplier on the per-atom traversal (two passes over the
    /// list + the embedding pass).
    pub eam_atom_factor: f64,
    /// Serial per-step fixed cost of the pair stage (list bookkeeping,
    /// kernel setup) — dominates at the strong-scaling limit.
    pub pair_fixed: f64,
    /// Additional fixed pair-stage cost for EAM (table/spline machinery;
    /// anchored on Table 3's opt-EAM pair time at 23 atoms/rank).
    pub eam_fixed: f64,
    /// Parallel regions launched by the pair stage (anchored on the
    /// ref-vs-pool pair gap at the last scaling point: about 2 regions).
    pub pair_regions: f64,
    /// Neighbor-list rebuild cost per (local + ghost) atom per core.
    pub neigh_atom: f64,
    /// Per stored pair cost of the rebuild per core.
    pub neigh_pair: f64,
    /// Integration cost per local atom per core (one half-kick + drift).
    pub modify_atom: f64,
    /// Serial per-step fixed cost of the modify stage (fix dispatch).
    pub modify_fixed: f64,
    /// Per-step residual bookkeeping (output aggregation, timers) —
    /// Table 3's "Other" floor.
    pub other_base: f64,
    /// Computing cores per rank (12: one CMG).
    pub cores: f64,
}

impl Default for StageCosts {
    fn default() -> Self {
        StageCosts {
            pair_interaction: 10.0e-9,
            pair_atom: 330.0e-9,
            eam_pair_factor: 3.4,
            eam_atom_factor: 2.0,
            pair_fixed: 3.0e-6,
            eam_fixed: 28.0e-6,
            pair_regions: 2.0,
            neigh_atom: 550.0e-9,
            neigh_pair: 20.0e-9,
            modify_atom: 110.0e-9,
            modify_fixed: 2.5e-6,
            other_base: 7.0e-6,
            cores: 12.0,
        }
    }
}

impl Threading {
    /// Per-region dispatch + join overhead (§3.3's 5.8 us vs 1.1 us).
    #[must_use]
    pub fn region_overhead(self, p: &tofumd_tofu::NetParams) -> f64 {
        match self {
            Threading::OpenMp => p.omp_region_overhead,
            Threading::SpinPool => p.pool_region_overhead,
        }
    }
}

/// Workload numbers a stage-cost evaluation needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankWork {
    /// Local atoms on the rank.
    pub n_local: f64,
    /// Ghost atoms on the rank.
    pub n_ghost: f64,
    /// Half-list pair interactions computed per step.
    pub interactions: f64,
    /// Is the potential EAM-like (two-pass)?
    pub eam: bool,
}

impl StageCosts {
    /// Pair-stage compute time (excluding mid-stage communication, which
    /// the fabric provides).
    #[must_use]
    pub fn pair_time(&self, w: &RankWork, threading: Threading, p: &tofumd_tofu::NetParams) -> f64 {
        let (f_int, f_atom, fixed) = if w.eam {
            (
                self.eam_pair_factor,
                self.eam_atom_factor,
                self.pair_fixed + self.eam_fixed,
            )
        } else {
            (1.0, 1.0, self.pair_fixed)
        };
        let work = (w.n_local + w.n_ghost) * self.pair_atom * f_atom
            + w.interactions * self.pair_interaction * f_int;
        self.pair_regions * threading.region_overhead(p) + fixed + work / self.cores
    }

    /// Neighbor-list rebuild time (charged on rebuild steps only).
    #[must_use]
    pub fn neigh_time(
        &self,
        w: &RankWork,
        threading: Threading,
        p: &tofumd_tofu::NetParams,
    ) -> f64 {
        let work = (w.n_local + w.n_ghost) * self.neigh_atom + w.interactions * self.neigh_pair;
        threading.region_overhead(p) + work / self.cores
    }

    /// Modify-stage time per step: two integration halves, each a parallel
    /// region (this is where the paper's "OpenMP makes modify 10x slower"
    /// shows up — for tiny n_local the region overhead dominates).
    #[must_use]
    pub fn modify_time(
        &self,
        w: &RankWork,
        threading: Threading,
        p: &tofumd_tofu::NetParams,
    ) -> f64 {
        self.modify_fixed
            + 2.0 * (threading.region_overhead(p) + w.n_local * self.modify_atom / self.cores)
    }

    /// "Other" floor per step (collective costs are added by the driver).
    #[must_use]
    pub fn other_time(&self) -> f64 {
        self.other_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_tofu::NetParams;

    fn small_work() -> RankWork {
        // The 36,864-node regime: ~28 locals, ghost-dominated.
        RankWork {
            n_local: 28.0,
            n_ghost: 280.0,
            interactions: 780.0,
            eam: false,
        }
    }

    #[test]
    fn pool_reduces_pair_time_substantially_when_small() {
        let c = StageCosts::default();
        let p = NetParams::default();
        let w = small_work();
        let omp = c.pair_time(&w, Threading::OpenMp, &p);
        let pool = c.pair_time(&w, Threading::SpinPool, &p);
        // Fig. 13b: pair time drops ~40% at the last point.
        let drop = 1.0 - pool / omp;
        assert!(
            (0.25..0.60).contains(&drop),
            "pool pair-stage reduction {drop:.2} out of the paper's band"
        );
    }

    #[test]
    fn modify_overhead_dominates_small_systems() {
        // "Enabling OpenMP causes the modify stage to take ten times
        // longer": with tiny n_local, region overhead >> integration work.
        let c = StageCosts::default();
        let p = NetParams::default();
        let w = small_work();
        let omp = c.modify_time(&w, Threading::OpenMp, &p);
        let compute_only = 2.0 * w.n_local * c.modify_atom / c.cores;
        assert!(omp > 10.0 * compute_only);
    }

    #[test]
    fn eam_pair_is_heavier_than_lj() {
        let c = StageCosts::default();
        let p = NetParams::default();
        let mut w = small_work();
        let lj = c.pair_time(&w, Threading::OpenMp, &p);
        w.eam = true;
        let eam = c.pair_time(&w, Threading::OpenMp, &p);
        assert!(eam > lj);
    }

    #[test]
    fn large_systems_amortize_region_overhead() {
        // Fig. 12: for 1.7M atoms the pair stage dominates and the pool
        // advantage shrinks.
        let c = StageCosts::default();
        let p = NetParams::default();
        let big = RankWork {
            n_local: 550.0,
            n_ghost: 900.0,
            interactions: 15_000.0,
            eam: false,
        };
        let omp = c.pair_time(&big, Threading::OpenMp, &p);
        let pool = c.pair_time(&big, Threading::SpinPool, &p);
        let drop = 1.0 - pool / omp;
        assert!(drop < 0.25, "large-system pool gain should shrink: {drop}");
    }
}
