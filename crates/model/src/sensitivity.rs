//! Calibration-sensitivity analysis.
//!
//! The reproduction's conclusions should not hinge on a lucky constant.
//! This module sweeps the calibrated parameters the paper's own
//! measurements pinned down — MPI per-message cost, pool/OpenMP region
//! overheads, uTofu posting cost — and reports how the headline
//! strong-scaling speedup responds. The *directions* are the science:
//! a heavier MPI stack or a cheaper pool can only help the optimization,
//! while a heavier uTofu stack erodes it.

use crate::analytic::{opt_step_time, ref_step_time, AnalyticWorkload};
use crate::stagecost::StageCosts;
use tofumd_tofu::NetParams;

/// Which calibrated constant a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Sender-side MPI per-message CPU cost.
    MpiPerMessage,
    /// uTofu descriptor-posting CPU cost.
    UtofuPerPut,
    /// Spin-pool parallel-region overhead.
    PoolRegion,
    /// OpenMP parallel-region overhead.
    OmpRegion,
}

impl Knob {
    /// All sweepable knobs.
    pub const ALL: [Knob; 4] = [
        Knob::MpiPerMessage,
        Knob::UtofuPerPut,
        Knob::PoolRegion,
        Knob::OmpRegion,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Knob::MpiPerMessage => "MPI per-message CPU",
            Knob::UtofuPerPut => "uTofu per-put CPU",
            Knob::PoolRegion => "pool region overhead",
            Knob::OmpRegion => "OpenMP region overhead",
        }
    }

    /// The calibrated default value.
    #[must_use]
    pub fn default_value(self, p: &NetParams) -> f64 {
        match self {
            Knob::MpiPerMessage => p.cpu_per_put_mpi,
            Knob::UtofuPerPut => p.cpu_per_put_utofu,
            Knob::PoolRegion => p.pool_region_overhead,
            Knob::OmpRegion => p.omp_region_overhead,
        }
    }

    /// A copy of `p` with this knob set to `value`.
    #[must_use]
    pub fn apply(self, p: &NetParams, value: f64) -> NetParams {
        let mut q = *p;
        match self {
            Knob::MpiPerMessage => q.cpu_per_put_mpi = value,
            Knob::UtofuPerPut => q.cpu_per_put_utofu = value,
            Knob::PoolRegion => q.pool_region_overhead = value,
            Knob::OmpRegion => q.omp_region_overhead = value,
        }
        q
    }
}

/// Strong-scaling speedup (ref/opt) of the LJ last point under `params`.
#[must_use]
pub fn headline_speedup(params: &NetParams, costs: &StageCosts) -> f64 {
    // 4,194,304 atoms over 147,456 ranks: the paper's last point.
    let w = AnalyticWorkload::lj(4_194_304.0 / 147_456.0);
    let r = ref_step_time(&w, 147_456.0, costs, params).total();
    let o = opt_step_time(&w, 147_456.0, costs, params).total();
    r / o
}

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Knob value (seconds).
    pub value: f64,
    /// Resulting headline speedup.
    pub speedup: f64,
}

/// Sweep a knob over `factors` x its calibrated default.
#[must_use]
pub fn sweep(knob: Knob, factors: &[f64], costs: &StageCosts) -> Vec<Sample> {
    let base = NetParams::default();
    let v0 = knob.default_value(&base);
    factors
        .iter()
        .map(|&f| {
            let p = knob.apply(&base, v0 * f);
            Sample {
                value: v0 * f,
                speedup: headline_speedup(&p, costs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups(knob: Knob) -> Vec<f64> {
        sweep(knob, &[0.5, 1.0, 2.0], &StageCosts::default())
            .into_iter()
            .map(|s| s.speedup)
            .collect()
    }

    #[test]
    fn baseline_speedup_is_in_the_paper_band() {
        let s = headline_speedup(&NetParams::default(), &StageCosts::default());
        assert!((1.8..4.5).contains(&s), "headline speedup {s}");
    }

    #[test]
    fn heavier_mpi_stack_helps_the_optimization() {
        let s = speedups(Knob::MpiPerMessage);
        assert!(s[0] < s[1] && s[1] < s[2], "monotone in MPI cost: {s:?}");
    }

    #[test]
    fn heavier_utofu_stack_erodes_the_optimization() {
        let s = speedups(Knob::UtofuPerPut);
        assert!(s[0] > s[1] && s[1] > s[2], "monotone in uTofu cost: {s:?}");
    }

    #[test]
    fn cheaper_pool_helps_and_cheaper_openmp_hurts() {
        let pool = speedups(Knob::PoolRegion);
        assert!(pool[0] > pool[2], "cheaper pool -> larger speedup");
        let omp = speedups(Knob::OmpRegion);
        assert!(omp[0] < omp[2], "cheaper OpenMP -> smaller speedup");
    }

    #[test]
    fn conclusion_is_robust_to_2x_miscalibration() {
        // Even with every knob individually off by 2x in the unfavourable
        // direction, the optimization still wins clearly.
        let costs = StageCosts::default();
        let base = NetParams::default();
        for knob in Knob::ALL {
            let worst_factor = match knob {
                Knob::MpiPerMessage | Knob::OmpRegion => 0.5, // cheaper baseline
                Knob::UtofuPerPut | Knob::PoolRegion => 2.0,  // costlier opt
            };
            let p = knob.apply(&base, knob.default_value(&base) * worst_factor);
            let s = headline_speedup(&p, &costs);
            assert!(
                s > 1.3,
                "{}: speedup {s} collapses under 2x miscalibration",
                knob.name()
            );
        }
    }
}
