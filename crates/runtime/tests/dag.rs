//! Step-DAG suite (DESIGN.md §12) over the public surface: a mid-run
//! driver thread-count change must not perturb the trajectory, and every
//! p2p variant must hide comm time on the Fig. 6 configuration. The
//! overlap ≡ no-overlap equivalence proofs need the step function's
//! private no-overlap shape, so they live in the runtime crate's own
//! unit tests (`cluster_overlap_tests.rs`).

use tofumd_runtime::{Cluster, CommVariant, RunConfig};

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

/// Changing the driver thread count mid-run must not perturb the
/// trajectory (the team swap keeps the node partition and the DAG's
/// execution order is thread-independent).
#[test]
fn dag_thread_count_can_change_mid_run() {
    let mut a = Cluster::new(MESH, RunConfig::eam(4000), CommVariant::Opt);
    let mut b = Cluster::new(MESH, RunConfig::eam(4000), CommVariant::Opt);
    a.run(6);
    b.set_driver_threads(4);
    b.run(3);
    b.set_driver_threads(2);
    b.run(3);
    assert_eq!(physics_fingerprint(&a), physics_fingerprint(&b));
}

/// The overlap metric: on the Fig. 6 strong-scaling configuration every
/// p2p variant must hide a strictly positive amount of comm time behind
/// interior compute, the reference must hide none, and the trace report
/// must carry the Overlap column.
#[test]
fn p2p_variants_overlap_comm_on_fig06_config() {
    for variant in [
        CommVariant::MpiP2p,
        CommVariant::Utofu4TniP2p,
        CommVariant::Utofu6TniP2p,
        CommVariant::Opt,
    ] {
        let mut c = Cluster::new(MESH, RunConfig::lj(65_536), variant);
        c.reset_timers();
        let trace = c.run_traced(25);
        assert!(
            c.overlapped_total() > 0.0,
            "{}: no comm time was hidden",
            variant.label()
        );
        let (_, mean, max) = trace.overlap_stats();
        assert!(
            mean > 0.0 && max > 0.0,
            "{}: trace missed the overlap",
            variant.label()
        );
        assert!(trace.report().contains("Overlap"));
    }
    // The reference variant cannot overlap.
    let mut rf = Cluster::new(MESH, RunConfig::lj(65_536), CommVariant::Ref);
    rf.reset_timers();
    rf.run_traced(12);
    assert_eq!(rf.overlapped_total(), 0.0);
}
