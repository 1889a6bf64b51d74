//! The communication variants evaluated step-by-step in Fig. 12 and the
//! paper's artifact (ref / utofu_3stage / 4tni_p2p / 6tni_p2p / opt), plus
//! the MPI-p2p strawman of Fig. 6.

use tofumd_model::Threading;

/// One of the paper's communication designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommVariant {
    /// `ref`: original LAMMPS — MPI 3-stage, OpenMP compute.
    Ref,
    /// Naive p2p over MPI (§3.2's negative result; Fig. 6).
    MpiP2p,
    /// `utofu_3stage`: staged pattern over uTofu.
    Utofu3Stage,
    /// `4tni_p2p`: coarse-grained p2p, one VCQ per rank on its own TNI.
    Utofu4TniP2p,
    /// `6tni_p2p`: single thread driving 6 VCQs (the §4.2 anti-pattern).
    Utofu6TniP2p,
    /// `opt`: fine-grained pool p2p + pre-registered addresses.
    Opt,
}

impl CommVariant {
    /// The five step-by-step variants of Fig. 12, in paper order.
    pub const STEP_BY_STEP: [CommVariant; 5] = [
        CommVariant::Ref,
        CommVariant::Utofu3Stage,
        CommVariant::Utofu4TniP2p,
        CommVariant::Utofu6TniP2p,
        CommVariant::Opt,
    ];

    /// Figure label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CommVariant::Ref => "ref",
            CommVariant::MpiP2p => "mpi-p2p",
            CommVariant::Utofu3Stage => "utofu-3stage",
            CommVariant::Utofu4TniP2p => "4tni-p2p",
            CommVariant::Utofu6TniP2p => "6tni-p2p",
            CommVariant::Opt => "parallel-p2p",
        }
    }

    /// Parse a figure label (as printed by [`CommVariant::label`]) back
    /// into a variant; accepts the paper's `opt` as an alias for
    /// `parallel-p2p`.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "ref" => Some(CommVariant::Ref),
            "mpi-p2p" => Some(CommVariant::MpiP2p),
            "utofu-3stage" => Some(CommVariant::Utofu3Stage),
            "4tni-p2p" => Some(CommVariant::Utofu4TniP2p),
            "6tni-p2p" => Some(CommVariant::Utofu6TniP2p),
            "parallel-p2p" | "opt" => Some(CommVariant::Opt),
            _ => None,
        }
    }

    /// Which threading runtime executes the compute stages under this
    /// variant (§4.2: only the thread-pool version switches off OpenMP).
    #[must_use]
    pub fn threading(self) -> Threading {
        match self {
            CommVariant::Opt => Threading::SpinPool,
            _ => Threading::OpenMp,
        }
    }

    /// Does the variant transport ride on MPI (vs uTofu)?
    #[must_use]
    pub fn is_mpi(self) -> bool {
        matches!(self, CommVariant::Ref | CommVariant::MpiP2p)
    }

    /// Does the variant exchange ghosts peer-to-peer (half shell under
    /// Newton) rather than via the staged full-shell sweeps?
    #[must_use]
    pub fn is_p2p(self) -> bool {
        !matches!(self, CommVariant::Ref | CommVariant::Utofu3Stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_by_step_order_matches_fig12() {
        let labels: Vec<_> = CommVariant::STEP_BY_STEP
            .iter()
            .map(|v| v.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "ref",
                "utofu-3stage",
                "4tni-p2p",
                "6tni-p2p",
                "parallel-p2p"
            ]
        );
    }

    #[test]
    fn only_opt_uses_the_pool() {
        for v in CommVariant::STEP_BY_STEP {
            let expect = v == CommVariant::Opt;
            assert_eq!(v.threading() == Threading::SpinPool, expect);
        }
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for v in CommVariant::STEP_BY_STEP {
            assert_eq!(CommVariant::from_label(v.label()), Some(v));
        }
        assert_eq!(CommVariant::from_label("opt"), Some(CommVariant::Opt));
        assert_eq!(
            CommVariant::from_label("mpi-p2p"),
            Some(CommVariant::MpiP2p)
        );
        assert_eq!(CommVariant::from_label("nope"), None);
    }

    #[test]
    fn transport_classification() {
        assert!(CommVariant::Ref.is_mpi());
        assert!(CommVariant::MpiP2p.is_mpi());
        assert!(!CommVariant::Opt.is_mpi());
        assert!(!CommVariant::Utofu3Stage.is_mpi());
    }
}
