//! Construction of a [`Cluster`]: lattice sizing proportioned to the rank
//! grid, atom distribution, engine instantiation per [`CommVariant`],
//! global velocity initialization and the setup phases (ghosts, lists,
//! initial forces). Child module of [`crate::cluster`] so it can fill the
//! façade's private fields without widening their visibility.

use super::Cluster;
use crate::config::{Decomp, RunConfig};
use crate::driver::{DagPhase, Lane, Team};
use crate::variant::CommVariant;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, RankState};
use tofumd_core::mpi_engine::{MpiP2p, MpiThreeStage};
use tofumd_core::plan::{CommPlan, PlanConfig};
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_core::utofu_engine::{AddressBook, UtofuConfig, UtofuP2p, UtofuThreeStage};
use tofumd_core::CommGraph;
use tofumd_md::atom::Atoms;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::region::Box3;
use tofumd_md::velocity;
use tofumd_model::StageCosts;
use tofumd_mpi::Communicator;
use tofumd_tofu::{CellGrid, FaultPlan, NetParams, TofuNet};

impl Cluster {
    pub(super) fn build(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        placement: Placement,
    ) -> Self {
        Self::build_with_faults(proxy_mesh, target_mesh, cfg, variant, placement, None)
    }

    pub(super) fn build_with_faults(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        placement: Placement,
        fault_plan: Option<FaultPlan>,
    ) -> Self {
        let grid = CellGrid::from_node_mesh(proxy_mesh)
            .unwrap_or_else(|| panic!("node mesh {proxy_mesh:?} does not fold onto TofuD cells"));
        let map = RankMap::new(grid, placement);
        let nranks = map.nranks();
        let target_ranks = 4 * target_mesh.iter().map(|&d| d as usize).product::<usize>();

        // Build the global system with the lattice proportioned to the
        // rank grid so each rank's sub-box is (near-)cubic — the paper's
        // Table 1 analysis and Fig. 1 assume cubic sub-boxes.
        let rg_pre = {
            let mesh = grid.node_mesh();
            [
                mesh[0] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[0],
                mesh[1] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[1],
                mesh[2] * tofumd_core::topo_map::RANKS_PER_NODE_SPLIT[2],
            ]
        };
        let nranks_f = f64::from(rg_pre[0]) * f64::from(rg_pre[1]) * f64::from(rg_pre[2]);
        let apc = cfg.atoms_per_cell() as f64;
        let cells_per_rank = (cfg.natoms_target as f64 / (apc * nranks_f)).cbrt();
        let (cx, cy, cz) = (
            (cells_per_rank * f64::from(rg_pre[0])).ceil() as usize,
            (cells_per_rank * f64::from(rg_pre[1])).ceil() as usize,
            (cells_per_rank * f64::from(rg_pre[2])).ceil() as usize,
        );
        let (global, pos) = cfg.build_lattice(cx.max(1), cy.max(1), cz.max(1));
        // Optional density ramp: thin the lattice along +x by a per-tag
        // hash so the surviving set is identical under any decomposition.
        let glx = global.lengths()[0];
        let kept: Vec<([f64; 3], u64)> = pos
            .iter()
            .enumerate()
            .map(|(i, p)| (*p, i as u64 + 1))
            .filter(|(p, tag)| cfg.comm.keeps_atom(*tag, (p[0] - global.lo[0]) / glx))
            .collect();

        // Fabric + MPI layer. A fault plan must be live before the first
        // engine is built so registration / CQ faults hit the build too.
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        if let Some(plan) = fault_plan {
            net.set_fault_plan(plan);
        }
        let mpi = Arc::new(Communicator::new(net.clone(), nranks, 4));

        // Plans.
        let rg = map.rank_grid;
        let r_ghost = cfg.ghost_cutoff();
        let gl = global.lengths();
        let min_edge = (0..3)
            .map(|d| gl[d] / f64::from(rg[d]))
            .fold(f64::INFINITY, f64::min);
        let auto_shells = ((r_ghost / min_edge).ceil() as usize).max(1);
        // A requested halo depth may widen the exchange (62/124-neighbor
        // scenarios) but never narrow it below the cutoff-derived floor.
        let shells = cfg.comm.shells.map_or(auto_shells, |s| s.max(auto_shells));
        let plan_cfg = PlanConfig {
            shells,
            half: cfg.newton_half(),
        };

        // Decomposition: uniform bricks, or RCB over the initial atom
        // positions. RCB's irregular graph rides the reliable MPI p2p
        // engine; the staged and uTofu engines stay grid-only.
        let rcb = match cfg.comm.decomp {
            Decomp::Grid => None,
            Decomp::Rcb => {
                assert!(
                    matches!(variant, CommVariant::MpiP2p),
                    "RCB decomposition requires the MpiP2p engine (got {variant:?})"
                );
                let xs: Vec<[f64; 3]> = kept.iter().map(|(x, _)| *x).collect();
                Some(Arc::new(RcbDecomposition::build(nranks, &xs, &global)))
            }
        };

        // Distribute atoms to owners.
        let mut per_rank: Vec<Vec<([f64; 3], u64)>> = vec![Vec::new(); nranks];
        for (p, tag) in &kept {
            let owner = match &rcb {
                Some(r) => r.owner_of(p),
                None => owner_of(&global, rg, &map, p),
            };
            per_rank[owner].push((*p, *tag));
        }

        let potential = Arc::new(cfg.build_potential());
        let integrator = NveIntegrator::new(cfg.timestep(), cfg.mass(), cfg.units());
        let density = cfg.density();
        let book = AddressBook::new();

        let mut states = Vec::with_capacity(nranks);
        let mut lanes: Vec<Lane> = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let graph = match &rcb {
                Some(r) => CommGraph::from_rcb(rank, r, &map, r_ghost),
                None => {
                    CommGraph::from_grid(CommPlan::build(rank, &map, &global, r_ghost, plan_cfg))
                }
            };
            let node = map.node_of(rank);
            let mut atoms = Atoms::default();
            for (x, tag) in &per_rank[rank] {
                atoms.push_local(*x, [0.0; 3], cfg.type_of_tag(*tag), *tag);
            }
            velocity::create_velocities(
                &mut atoms,
                cfg.mass(),
                cfg.temperature,
                cfg.units(),
                cfg.seed,
            );
            let engine: Box<dyn GhostEngine> = match variant {
                CommVariant::Ref => {
                    Box::new(MpiThreeStage::new(mpi.clone(), &map, rank, &global, shells))
                }
                CommVariant::MpiP2p => {
                    if rcb.is_some() {
                        Box::new(MpiP2p::new_irregular(mpi.clone(), rank))
                    } else {
                        Box::new(MpiP2p::new(mpi.clone(), rank))
                    }
                }
                CommVariant::Utofu3Stage => Box::new(UtofuThreeStage::new(
                    net.clone(),
                    book.clone(),
                    &map,
                    &graph,
                    node,
                    density,
                    &global,
                )),
                CommVariant::Utofu4TniP2p => Box::new(UtofuP2p::new(
                    net.clone(),
                    book.clone(),
                    &graph,
                    node,
                    density,
                    UtofuConfig::coarse4(),
                )),
                CommVariant::Utofu6TniP2p => Box::new(UtofuP2p::new(
                    net.clone(),
                    book.clone(),
                    &graph,
                    node,
                    density,
                    UtofuConfig::single6(),
                )),
                CommVariant::Opt => Box::new(UtofuP2p::new(
                    net.clone(),
                    book.clone(),
                    &graph,
                    node,
                    density,
                    UtofuConfig::pool6(),
                )),
            };
            states.push(RankState::new(atoms, graph));
            lanes.push(Lane::new(engine));
        }

        // Zero total momentum and scale to the target temperature, using
        // globally reduced quantities so the result matches a serial run.
        let natoms_global: usize = states.iter().map(|s| s.atoms.nlocal).sum();
        let mut vcm = [0.0f64; 3];
        for st in &states {
            for i in 0..st.atoms.nlocal {
                for d in 0..3 {
                    vcm[d] += st.atoms.v[i][d];
                }
            }
        }
        for v in &mut vcm {
            *v /= natoms_global as f64;
        }
        let mut ke_after = 0.0;
        for st in &states {
            for i in 0..st.atoms.nlocal {
                let mut s = 0.0;
                for d in 0..3 {
                    let dv = st.atoms.v[i][d] - vcm[d];
                    s += dv * dv;
                }
                ke_after += 0.5 * cfg.units().mvv2e() * cfg.mass() * s;
            }
        }
        for st in &mut states {
            velocity::apply_drift_and_scale(
                &mut st.atoms,
                vcm,
                ke_after,
                natoms_global,
                cfg.temperature,
                cfg.units(),
            );
        }

        let half = cfg.needs_reverse();
        let team = Team::new(1, &map);
        let mut cluster = Cluster {
            cfg,
            variant,
            map,
            global,
            net,
            mpi,
            potential,
            integrator,
            states,
            lanes,
            team,
            costs: StageCosts::default(),
            step: 0,
            rebuild_count: 0,
            steps_run: 0,
            rebuild: false,
            reverse_needed: half,
            thermo_every: 0,
            thermo_log: Vec::new(),
            target_mesh,
            target_ranks,
            op_observer: None,
            shells,
            retired_stats: tofumd_core::engine::OpStats::default(),
            demoted: false,
            force_rebuild: false,
            rebalance_now: false,
            rebalance_count: 0,
            proxy_mesh,
            checkpoint_every: 0,
            next_checkpoint: 0,
            checkpoint_path: None,
            last_checkpoint: None,
            pending_peer_death: None,
            dead: None,
            recovery: crate::trace::RecoveryStats::default(),
            // The setup phases below end at a freshly-built-lists state —
            // a valid checkpoint boundary.
            at_rebuild_boundary: true,
        };
        // Setup stage: sort locals into bin order (no ghosts exist yet),
        // then establish ghosts, lists, initial forces.
        cluster.run_dag_phase(DagPhase::SpatialSort);
        cluster.rebuild_ghosts_and_forces();
        cluster.reset_timers();
        cluster
    }
}

/// Which rank's sub-box contains the (wrapped) position.
fn owner_of(global: &Box3, rg: [u32; 3], map: &RankMap, x: &[f64; 3]) -> usize {
    let l = global.lengths();
    let mut c = [0i64; 3];
    for d in 0..3 {
        let frac = (x[d] - global.lo[d]) / l[d];
        let idx = (frac * f64::from(rg[d])).floor() as i64;
        c[d] = idx.clamp(0, i64::from(rg[d]) - 1);
    }
    map.rank_at(c)
}
