//! Overlap ≡ no-overlap equivalence (DESIGN.md §12): the overlapping step
//! DAG must produce **bit-identical physics** to the same variant run in
//! the no-overlap shape, at every thread count, across all engine
//! variants and both potentials — including rebuild steps (where the
//! split is geometric), a rebalancing irregular graph, and a faulted run
//! that demotes mid-overlap. The no-overlap reference is reached through
//! the step function's private `overlap` argument, so these tests live
//! inside the crate.
//!
//! The fingerprint deliberately excludes virtual clocks: shrinking comm
//! waits is the overlap's entire purpose, so clocks legitimately differ
//! between the shapes. Everything an MD user can observe — trajectories,
//! forces, energies, thermo history — must not.

use super::Cluster;
use crate::config::{CommTuning, Decomp};
use crate::{CommVariant, RunConfig};
use tofumd_core::engine::Op;
use tofumd_tofu::{FaultKind, FaultPlan, FaultRule};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

/// Exact-bits physics fingerprint: thermo history, final global thermo,
/// and every rank's local positions/velocities/forces in storage order.
fn physics_fingerprint(c: &Cluster) -> Vec<u64> {
    let mut bits = Vec::new();
    for snap in c.thermo_log() {
        bits.push(snap.step);
        bits.extend(
            [snap.pe, snap.ke, snap.temperature, snap.pressure]
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    let t = c.thermo();
    bits.extend([t.pe.to_bits(), t.ke.to_bits(), t.pressure.to_bits()]);
    for st in c.states() {
        bits.push(st.atoms.nlocal as u64);
        for arr in [&st.atoms.x, &st.atoms.v, &st.atoms.f] {
            for p in &arr[..st.atoms.nlocal] {
                bits.extend(p.iter().map(|v| v.to_bits()));
            }
        }
    }
    bits
}

/// Step `c` `steps` times, with the overlapping shape allowed or not.
fn advance(c: &mut Cluster, overlap: bool, steps: u64) {
    for _ in 0..steps {
        c.advance(overlap);
    }
}

/// A fresh cluster with thermo every 2 steps, run for `steps` steps.
fn run(cfg: RunConfig, variant: CommVariant, overlap: bool, threads: usize, steps: u64) -> Cluster {
    let mut c = Cluster::new(MESH, cfg, variant);
    c.set_driver_threads(threads);
    c.set_thermo_every(2);
    advance(&mut c, overlap, steps);
    c
}

/// The headline contract: overlap ≡ no-overlap bit-for-bit at threads
/// {1, 2, 8} across all five step-by-step variants and both potentials.
/// Variants that cannot overlap run the no-overlap shape either way and
/// match trivially; overlapping ones must match through the split kernels.
#[test]
fn overlap_matches_no_overlap_bit_for_bit() {
    for (cfg, steps, label) in [
        (RunConfig::lj(4000), 8, "lj"),
        (RunConfig::eam(4000), 6, "eam"),
    ] {
        for variant in CommVariant::STEP_BY_STEP {
            let reference = physics_fingerprint(&run(cfg, variant, false, 1, steps));
            for threads in [1, 2, 8] {
                assert_eq!(
                    physics_fingerprint(&run(cfg, variant, true, threads, steps)),
                    reference,
                    "{label}/{}: overlap@{threads} threads diverged",
                    variant.label()
                );
            }
        }
    }
}

/// Crossing a reneighbor step exercises the geometric split: interior
/// list build + interior pair logging ride inside the Border window.
#[test]
fn overlap_rebuild_steps_match_no_overlap() {
    for variant in [CommVariant::Opt, CommVariant::Utofu6TniP2p] {
        let reference = physics_fingerprint(&run(RunConfig::lj(4000), variant, false, 1, 22));
        for threads in [1, 8] {
            assert_eq!(
                physics_fingerprint(&run(RunConfig::lj(4000), variant, true, threads, 22)),
                reference,
                "{}: rebuild-crossing overlap@{threads} diverged",
                variant.label()
            );
        }
    }
    // EAM rebuild path: density + force passes both split.
    assert_eq!(
        physics_fingerprint(&run(RunConfig::eam(4000), CommVariant::Opt, true, 8, 12)),
        physics_fingerprint(&run(RunConfig::eam(4000), CommVariant::Opt, false, 1, 12)),
        "eam rebuild-crossing overlap diverged"
    );
}

/// An irregular (RCB) graph that rebalances mid-run: the Rebalance node,
/// the owner-directed migration and the overlap windows on a graph with
/// ghosts on every side must all match the no-overlap shape.
#[test]
fn rebalancing_rcb_overlap_matches_no_overlap() {
    let cfg = RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.8,
            balance_thresh: Some(1.05),
            rebalance_every: Some(20),
            ..CommTuning::default()
        },
        ..RunConfig::lj(4000)
    };
    for threads in [1, 2] {
        let reference = run(cfg, CommVariant::MpiP2p, false, threads, 45);
        let overlapped = run(cfg, CommVariant::MpiP2p, true, threads, 45);
        assert_eq!(
            physics_fingerprint(&overlapped),
            physics_fingerprint(&reference),
            "rcb overlap@{threads} threads diverged"
        );
        assert!(reference.rebalance_count() >= 1, "the ramp must rebalance");
        assert_eq!(overlapped.rebalance_count(), reference.rebalance_count());
        assert_eq!(reference.overlapped_total(), 0.0);
        assert!(overlapped.overlapped_total() > 0.0);
    }
}

/// A permanent Forward drop exhausts the retry budget inside an overlap
/// window; the cluster must demote to the 3-stage reference mid-run and
/// still match the no-overlap faulted trajectory bit-for-bit (fault
/// decisions key on (step, op, src, dst, tni) — never on clocks).
#[test]
fn faulted_demotion_mid_overlap_matches_no_overlap() {
    let unrecoverable = || {
        FaultPlan::new().with_rule(FaultRule {
            step: Some(2),
            op: Some(Op::Forward.index() as u8),
            src: Some(7),
            ..FaultRule::any(FaultKind::Drop { times: u32::MAX })
        })
    };
    let faulted = |overlap: bool| {
        let mut c =
            Cluster::with_fault_plan(MESH, RunConfig::lj(4000), CommVariant::Opt, unrecoverable());
        c.set_thermo_every(2);
        advance(&mut c, overlap, 10);
        assert!(c.demoted(), "overlap={overlap}: drop must exhaust retries");
        assert_eq!(c.variant(), CommVariant::Ref);
        physics_fingerprint(&c)
    };
    assert_eq!(
        faulted(true),
        faulted(false),
        "faulted+demoted overlap trajectory diverged"
    );
}

/// The no-overlap shape runs every op back to back, so on the Fig. 6
/// configuration it hides no comm time even on a variant that overlaps by
/// default (`p2p_variants_overlap_comm_on_fig06_config` in `tests/dag.rs`
/// checks the overlapping side over the same 25 steps). The run must
/// cross a rebuild: before the first one no step can overlap anyway.
#[test]
fn no_overlap_shape_hides_no_comm() {
    let mut c = Cluster::new(MESH, RunConfig::lj(65_536), CommVariant::Opt);
    c.reset_timers();
    advance(&mut c, false, 25);
    assert!(c.rebuild_count >= 2, "setup plus at least one step rebuild");
    assert_eq!(c.overlapped_total(), 0.0);
}
