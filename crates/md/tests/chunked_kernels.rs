//! Property tests for the deterministic chunk-parallel kernels.
//!
//! The contract under test: the chunked neighbor build and the chunked
//! LJ/EAM passes (whose inner loops are the lane-blocked row kernels) are
//! **bit-identical** to the scalar serial passes — same force bits, same
//! energy/virial bits — at any thread count, with or without spatial
//! sorting, and at every lane-remainder length; and spatial sorting
//! permutes atoms without changing which pairs exist.

use proptest::prelude::*;
use tofumd_md::kernels::PairScratch;
use tofumd_md::neighbor::{sort_locals_by_bin, ListKind, NeighborList};
use tofumd_md::potential::{EamCu, LjCut, ManyBodyPotential, PairPotential};
use tofumd_md::Atoms;
use tofumd_threadpool::{ChunkExec, SpinPool};

const LO: [f64; 3] = [-3.0, -3.0, -3.0];
const HI: [f64; 3] = [13.0, 13.0, 13.0];

/// A cloud of local atoms in the core box plus "ghosts" scattered over the
/// extended region (their provenance doesn't matter to the kernels).
fn cloud(nlocal: usize, nghost: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<[f64; 3]>)> {
    let local = prop::collection::vec(prop::array::uniform3(0.05f64..9.95), nlocal..nlocal + 1);
    let ghost = prop::collection::vec(prop::array::uniform3(-2.5f64..12.5), nghost..nghost + 1);
    (local, ghost)
}

/// A cloud whose local count sweeps every residue mod the lane width, so
/// the blocked row kernels exercise every scalar-tail length 0..=7 (and
/// the random densities scatter per-row neighbor counts across all
/// residues as well).
fn lane_cloud(base: usize) -> impl Strategy<Value = (Vec<[f64; 3]>, Vec<[f64; 3]>)> {
    (cloud(base + 7, 71), 0usize..8).prop_map(move |((mut l, mut g), res)| {
        l.truncate(base + res);
        g.truncate(64 + res);
        (l, g)
    })
}

fn make_atoms(locals: &[[f64; 3]], ghosts: &[[f64; 3]], sorted: bool, cell: f64) -> Atoms {
    let mut atoms = Atoms::from_positions(locals.to_vec(), 1);
    if sorted {
        sort_locals_by_bin(&mut atoms, LO, HI, cell);
    }
    for (k, g) in ghosts.iter().enumerate() {
        atoms.push_ghost(*g, 1, 1000 + k as u64);
    }
    atoms
}

fn assert_forces_bitwise(a: &Atoms, b: &Atoms, label: &str) {
    assert_eq!(a.f.len(), b.f.len());
    for (i, (fa, fb)) in a.f.iter().zip(&b.f).enumerate() {
        for d in 0..3 {
            assert_eq!(
                fa[d].to_bits(),
                fb[d].to_bits(),
                "{label}: force mismatch atom {i} dim {d}: {} vs {}",
                fa[d],
                fb[d]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chunked LJ forces/energy/virial are bitwise equal to the serial
    /// kernel at 1, 2 and 8 threads, on sorted and unsorted input, over a
    /// plain cloud and a lane-remainder sweep, and the chunked list build
    /// reproduces the serial build exactly.
    #[test]
    fn lj_chunked_is_bitwise_serial(
        atoms_in in cloud(180, 90),
        lane_in in lane_cloud(152),
        sorted in any::<bool>(),
    ) {
        for (locals, ghosts) in [atoms_in, lane_in] {
            let lj = LjCut::lammps_bench();
            let cell = 2.5 + 0.3;
            let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
            let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3);

            let mut ref_atoms = atoms0.clone();
            ref_atoms.zero_forces();
            let ref_ev = lj.compute(&mut ref_atoms, &list);

            for threads in [1usize, 2, 8] {
                let pool;
                let exec = if threads == 1 {
                    ChunkExec::Serial
                } else {
                    pool = SpinPool::new(threads);
                    ChunkExec::Pool(&pool)
                };
                // The chunked build must reproduce the serial list verbatim.
                let clist =
                    NeighborList::build_chunked(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3, &exec);
                prop_assert_eq!(clist.npairs(), list.npairs());
                for i in 0..atoms0.nlocal {
                    prop_assert_eq!(clist.neighbors(i), list.neighbors(i), "row {} threads {}", i, threads);
                }

                let mut atoms = atoms0.clone();
                atoms.zero_forces();
                let mut scratch = PairScratch::new();
                let ev = lj.compute_chunked(&mut atoms, &list, &exec, &mut scratch);
                prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
                prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
                assert_forces_bitwise(&atoms, &ref_atoms, &format!("lj threads {threads} sorted {sorted}"));
            }
        }
    }

    /// The three chunked EAM passes are bitwise equal to the serial ones
    /// at 1, 2 and 8 threads, over a plain cloud and a lane-remainder
    /// sweep.
    #[test]
    fn eam_chunked_is_bitwise_serial(
        atoms_in in cloud(140, 70),
        lane_in in lane_cloud(120),
        sorted in any::<bool>(),
    ) {
        for (locals, ghosts) in [atoms_in, lane_in] {
            let eam = EamCu::lammps_bench();
            let cell = 4.95 + 1.0;
            let atoms0 = make_atoms(&locals, &ghosts, sorted, cell);
            let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 4.95, 1.0);

            let mut ref_atoms = atoms0.clone();
            ref_atoms.zero_forces();
            let mut ref_rho = Vec::new();
            let mut ref_fp = Vec::new();
            eam.compute_rho(&ref_atoms, &list, &mut ref_rho);
            let ref_embed = eam.compute_embedding(&ref_atoms, &ref_rho, &mut ref_fp);
            let ref_ev = eam.compute_force(&mut ref_atoms, &list, &ref_fp);

            for threads in [1usize, 2, 8] {
                let pool;
                let exec = if threads == 1 {
                    ChunkExec::Serial
                } else {
                    pool = SpinPool::new(threads);
                    ChunkExec::Pool(&pool)
                };
                let mut atoms = atoms0.clone();
                atoms.zero_forces();
                let mut scratch = PairScratch::new();
                let mut rho = Vec::new();
                let mut fp = Vec::new();
                eam.compute_rho_chunked(&atoms, &list, &mut rho, &exec, &mut scratch);
                prop_assert_eq!(rho.len(), ref_rho.len());
                for (i, (a, b)) in rho.iter().zip(&ref_rho).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "rho atom {} threads {}", i, threads);
                }
                let embed = eam.compute_embedding_chunked(&atoms, &rho, &mut fp, &exec);
                prop_assert_eq!(embed.to_bits(), ref_embed.to_bits(), "threads {}", threads);
                for (i, (a, b)) in fp.iter().zip(&ref_fp).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "fp atom {} threads {}", i, threads);
                }
                let ev = eam.compute_force_chunked(&mut atoms, &list, &fp, &exec, &mut scratch);
                prop_assert_eq!(ev.energy.to_bits(), ref_ev.energy.to_bits(), "threads {}", threads);
                prop_assert_eq!(ev.virial.to_bits(), ref_ev.virial.to_bits(), "threads {}", threads);
                assert_forces_bitwise(&atoms, &ref_atoms, &format!("eam threads {threads} sorted {sorted}"));
            }
        }
    }

    /// Spatial sorting permutes atoms but never changes which pairs the
    /// half-one-sided list contains: same pair count, same (tag, tag)
    /// pair set.
    #[test]
    fn half_one_sided_pairs_invariant_under_sorting(atoms_in in cloud(160, 80)) {
        let (locals, ghosts) = atoms_in;
        let cell = 2.5 + 0.3;
        let unsorted = make_atoms(&locals, &ghosts, false, cell);
        let sorted = make_atoms(&locals, &ghosts, true, cell);

        let pair_tags = |atoms: &Atoms| -> std::collections::BTreeSet<(u64, u64)> {
            let list = NeighborList::build(atoms, LO, HI, ListKind::HalfOneSided, 2.5, 0.3);
            let mut set = std::collections::BTreeSet::new();
            for i in 0..atoms.nlocal {
                for &j in list.neighbors(i) {
                    let (a, b) = (atoms.tag[i], atoms.tag[j as usize]);
                    set.insert((a.min(b), a.max(b)));
                }
            }
            set
        };
        let pu = pair_tags(&unsorted);
        let ps = pair_tags(&sorted);
        prop_assert_eq!(pu.len(), ps.len(), "pair count changed by sorting");
        prop_assert_eq!(pu, ps, "pair set changed by sorting");
    }
}

/// Small-N thread scaling: with the work floor in [`ChunkExec`], an
/// 8-thread pool must not be meaningfully slower than serial at 2048
/// atoms (the floor routes tiny systems to the serial loop, so the pool
/// dispatch overhead never dominates). Order-of-magnitude pin only —
/// wall-clock, so the bound is deliberately loose.
#[test]
fn small_system_pool_not_slower_than_serial() {
    let mut locals = Vec::new();
    for ix in 0..16 {
        for iy in 0..16 {
            for iz in 0..8 {
                locals.push([
                    0.05 + 0.6 * f64::from(ix),
                    0.05 + 0.6 * f64::from(iy),
                    0.05 + 1.2 * f64::from(iz),
                ]);
            }
        }
    }
    assert_eq!(locals.len(), 2048);
    let atoms0 = Atoms::from_positions(locals, 1);
    let lj = LjCut::lammps_bench();
    let list = NeighborList::build(&atoms0, LO, HI, ListKind::HalfNewton, 2.5, 0.3);
    let pool = SpinPool::new(8);

    let time_with = |exec: &ChunkExec<'_>| {
        let mut atoms = atoms0.clone();
        let mut scratch = PairScratch::default();
        // Warm-up fills the scratch allocations.
        atoms.zero_forces();
        lj.compute_chunked(&mut atoms, &list, exec, &mut scratch);
        let reps = 10;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            atoms.zero_forces();
            lj.compute_chunked(&mut atoms, &list, exec, &mut scratch);
        }
        start.elapsed().as_secs_f64() / f64::from(reps)
    };
    let t1 = time_with(&ChunkExec::Serial);
    let t8 = time_with(&ChunkExec::Pool(&pool));
    assert!(
        t8 <= t1 * 10.0,
        "8-thread pool at 2048 atoms is >10x slower than serial: t8={t8:.3e}s t1={t1:.3e}s"
    );
}
