//! The per-rank compute kernels of a timestep — neighbor rebuilds, pair
//! passes (including the EAM two-pass pipeline) and NVE integration —
//! extracted from the `Cluster` monolith and fanned out over the
//! [`Team`](crate::driver::Team).
//!
//! Every function here is a pure per-rank map: rank `r` touches only
//! `lanes[r]` / `states[r]` plus shared read-only context, so the team
//! can run them at any thread count with bit-identical results (the
//! virtual-time charges depend only on the rank's own workload).

use crate::driver::{Lane, Partition, Team};
use tofumd_core::border_bin;
use tofumd_core::engine::RankState;
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::kernels;
use tofumd_md::neighbor::{sort_locals_by_bin, ListKind, NeighborList};
use tofumd_md::potential::{PairEnergyVirial, Potential};
use tofumd_model::{RankWork, StageCosts, Threading};
use tofumd_tofu::{NetParams, TofuError};

/// Record a phase-order violation (state consumed before it was built) on
/// the lane; the step driver raises it after the phase joins.
fn fail_missing_list(lane: &mut Lane, rank: usize, phase: &'static str) {
    fail_missing(lane, rank, phase, "neighbor list");
}

/// Like [`fail_missing_list`] for other prerequisite state.
fn fail_missing(lane: &mut Lane, rank: usize, phase: &'static str, missing: &'static str) {
    lane.failed = Some(TofuError::PhaseOrder {
        node: rank,
        phase,
        missing,
    });
}

/// Shared read-only context for the physics phases: the potential's
/// cutoff, the cost model and the threading mode the *virtual* machine
/// charges for (orthogonal to the host team's thread count).
pub struct Ctx {
    /// Stage cost model.
    pub costs: StageCosts,
    /// Fabric timing constants.
    pub params: NetParams,
    /// The virtual compute-threading mode of the variant under test.
    pub threading: Threading,
    /// Force cutoff of the potential.
    pub cutoff: f64,
    /// Verlet skin.
    pub skin: f64,
    /// Neighbor-list flavor the variant needs.
    pub list_kind: ListKind,
    /// EAM workload flag for the cost model.
    pub eam: bool,
}

/// The cost-model workload descriptor of one rank; `None` when the rank's
/// neighbor list has not been built yet (a phase-ordering bug the caller
/// reports through the lane's typed-error path).
#[must_use]
pub fn rank_work(lane: &Lane, st: &RankState, eam: bool) -> Option<RankWork> {
    let list = lane.list.as_ref()?;
    Some(RankWork {
        n_local: st.atoms.nlocal as f64,
        n_ghost: st.atoms.nghost() as f64,
        interactions: list.npairs() as f64,
        eam,
    })
}

/// Sort every rank's local atoms into row-major bin order on the *same*
/// grid the list rebuild bins over, so the half-stencil fast path engages
/// on the next build. Runs between Exchange and Border: no ghosts exist,
/// and the Border phase rebuilds its send lists against the new order.
/// A host-side layout optimization only — no virtual time is charged.
pub fn spatial_sort(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|_, _lane, st| {
        let sub = st.graph.sub;
        let rg = st.graph.r_ghost;
        let lo = [sub.lo[0] - rg, sub.lo[1] - rg, sub.lo[2] - rg];
        let hi = [sub.hi[0] + rg, sub.hi[1] + rg, sub.hi[2] + rg];
        sort_locals_by_bin(&mut st.atoms, lo, hi, ctx.cutoff + ctx.skin);
    });
}

/// Rebuild every rank's Verlet list (chunk-parallel, bit-identical to the
/// serial build) and charge Neigh time.
pub fn rebuild_lists(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|_, lane, st, exec| {
        let sub = st.graph.sub;
        let rg = st.graph.r_ghost;
        let lo = [sub.lo[0] - rg, sub.lo[1] - rg, sub.lo[2] - rg];
        let hi = [sub.hi[0] + rg, sub.hi[1] + rg, sub.hi[2] + rg];
        let list = NeighborList::build_chunked(
            &st.atoms,
            lo,
            hi,
            ctx.list_kind,
            ctx.cutoff,
            ctx.skin,
            exec,
        );
        let work = RankWork {
            n_local: st.atoms.nlocal as f64,
            n_ghost: st.atoms.nghost() as f64,
            interactions: list.npairs() as f64,
            eam: ctx.eam,
        };
        let dt = ctx.costs.neigh_time(&work, ctx.threading, &ctx.params);
        st.clock += dt;
        lane.acc.neigh += dt;
        lane.list = Some(list);
        // A one-pass rebuild starts a new list epoch without classifying
        // rows; any partition from an earlier epoch is now stale.
        lane.part = None;
        lane.interior_list = None;
    });
}

/// Single-pass pair potential: zero forces, compute, store energy/virial.
///
/// # Panics
/// If `potential` is not a single-pass pair style.
pub fn pair_single(
    team: &Team,
    potential: &Potential,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::Pair(pot) = potential else {
        panic!("pair_single requires a single-pass potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        st.atoms.zero_forces();
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "pair");
            return;
        };
        lane.energy = pot.compute_chunked(&mut st.atoms, list, exec, &mut lane.scratch);
        lane.embed = 0.0;
    });
}

/// EAM pass 1: electron densities into `st.scalar` (ghost contributions
/// are reverse-folded by the scalar op the caller runs next).
///
/// # Panics
/// If `potential` is not many-body.
pub fn eam_rho(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    let Potential::ManyBody(pot) = potential else {
        panic!("eam_rho requires a many-body potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        st.atoms.zero_forces();
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "eam_rho");
            return;
        };
        pot.compute_rho_chunked(&st.atoms, list, &mut st.scalar, exec, &mut lane.scratch);
    });
}

/// EAM mid-stage: embedding energy + F' for locals; leaves F' in
/// `st.scalar` for the forward-scalar op.
///
/// # Panics
/// If `potential` is not many-body.
pub fn eam_embed(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    let Potential::ManyBody(pot) = potential else {
        panic!("eam_embed requires a many-body potential");
    };
    team.for_each_chunk(lanes, states, &|_, lane, st, exec| {
        lane.embed = pot.compute_embedding_chunked(&st.atoms, &st.scalar, &mut lane.fp_buf, exec);
        std::mem::swap(&mut st.scalar, &mut lane.fp_buf);
    });
}

/// EAM pass 2: forces from the exchanged F' values.
///
/// # Panics
/// If `potential` is not many-body.
pub fn eam_force(team: &Team, potential: &Potential, lanes: &mut [Lane], states: &mut [RankState]) {
    let Potential::ManyBody(pot) = potential else {
        panic!("eam_force requires a many-body potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "eam_force");
            return;
        };
        lane.energy =
            pot.compute_force_chunked(&mut st.atoms, list, &st.scalar, exec, &mut lane.scratch);
    });
}

/// Charge every rank's Pair-stage time from its actual workload.
pub fn charge_pair(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|r, lane, st| {
        let Some(work) = rank_work(lane, st, ctx.eam) else {
            fail_missing_list(lane, r, "charge_pair");
            return;
        };
        let dt = ctx.costs.pair_time(&work, ctx.threading, &ctx.params);
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// First velocity-Verlet half (cost charged once, in
/// [`integrate_final`]).
pub fn integrate_initial(
    team: &Team,
    integrator: &NveIntegrator,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each(lanes, states, &|_, _lane, st| {
        integrator.initial_integrate(&mut st.atoms);
    });
}

/// Second velocity-Verlet half + the Modify charge for both halves.
pub fn integrate_final(
    team: &Team,
    ctx: &Ctx,
    integrator: &NveIntegrator,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    team.for_each(lanes, states, &|r, lane, st| {
        integrator.final_integrate(&mut st.atoms);
        let Some(work) = rank_work(lane, st, ctx.eam) else {
            fail_missing_list(lane, r, "integrate_final");
            return;
        };
        let dt = ctx.costs.modify_time(&work, ctx.threading, &ctx.params);
        st.clock += dt;
        lane.acc.modify += dt;
    });
}

/// Per-rank displacement check: set `lane.moved` when any atom drifted
/// beyond half the skin since the last rebuild.
pub fn check_displacements(team: &Team, skin: f64, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each(lanes, states, &|r, lane, st| {
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "check_displacements");
            return;
        };
        lane.moved = list.any_moved_beyond_half_skin(&st.atoms, skin);
    });
}

/// Charge the per-step bookkeeping floor into Other.
pub fn charge_other_floor(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    let dt = ctx.costs.other_time();
    team.for_each(lanes, states, &|_, lane, st| {
        st.clock += dt;
        lane.acc.other += dt;
    });
}

// ---------------------------------------------------------------------
// Split (overlap) phases: the interior halves run while halo messages
// are in flight; the boundary halves run after arrival and replay both
// sides in exact serial row order (DESIGN.md §12).
// ---------------------------------------------------------------------

/// Geometric classification radius: a hair beyond the list cutoff so
/// float jitter at the shell boundary can only *shrink* the interior —
/// a misclassified row would silently read stale ghosts.
fn classify_radius(ctx: &Ctx) -> f64 {
    (ctx.cutoff + ctx.skin) * (1.0 + 1e-9)
}

/// Cost-model workload of an interior row set (no ghosts by definition).
fn interior_work(n_rows: usize, pairs: usize, eam: bool) -> RankWork {
    RankWork {
        n_local: n_rows as f64,
        n_ghost: 0.0,
        interactions: pairs as f64,
        eam,
    }
}

/// The flag set and its workload counts for one split pass: geometric on
/// rebuild steps (the list is being rebuilt pre-ghost), list-content on
/// forward steps (the list is fixed, only ghost positions are stale).
fn split_sel(part: &Partition, rebuild: bool) -> (&[bool], usize, usize) {
    if rebuild {
        (&part.geo, part.n_geo, part.geo_pairs)
    } else {
        (&part.pair, part.n_pair, part.pair_pairs)
    }
}

/// Classify every rank's rows geometrically and build the interior-only
/// Verlet list — all before any ghost exists, while the Border halo is in
/// flight. Charges the interior share of Neigh.
pub fn build_interior_lists(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|_, lane, st, exec| {
        let sub = st.graph.sub;
        let rg = st.graph.r_ghost;
        let lo = [sub.lo[0] - rg, sub.lo[1] - rg, sub.lo[2] - rg];
        let hi = [sub.hi[0] + rg, sub.hi[1] + rg, sub.hi[2] + rg];
        let geo =
            border_bin::interior_flags(&st.atoms.x, st.atoms.nlocal, &sub, classify_radius(ctx));
        let ilist = NeighborList::build_interior(
            &st.atoms,
            lo,
            hi,
            ctx.list_kind,
            ctx.cutoff,
            ctx.skin,
            &geo,
            exec,
        );
        let n_geo = geo.iter().filter(|&&b| b).count();
        let geo_pairs = ilist.npairs();
        let dt = ctx.costs.neigh_time(
            &interior_work(n_geo, geo_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        st.clock += dt;
        lane.acc.neigh += dt;
        lane.interior_list = Some(ilist);
        lane.part = Some(Partition {
            geo,
            n_geo,
            geo_pairs,
            ..Partition::default()
        });
    });
}

/// Build the boundary rows against the arrived ghost shell, merge with
/// the interior list into the full list (bit-identical to the one-pass
/// build) and derive the list-content partition for forward-step splits.
/// Charges the remainder of the full rebuild's Neigh time.
pub fn build_boundary_lists(team: &Team, ctx: &Ctx, lanes: &mut [Lane], states: &mut [RankState]) {
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(ilist) = lane.interior_list.take() else {
            fail_missing(lane, r, "boundary_build", "interior list");
            return;
        };
        let Some(part) = lane.part.as_mut() else {
            fail_missing(lane, r, "boundary_build", "row partition");
            return;
        };
        let sub = st.graph.sub;
        let rg = st.graph.r_ghost;
        let lo = [sub.lo[0] - rg, sub.lo[1] - rg, sub.lo[2] - rg];
        let hi = [sub.hi[0] + rg, sub.hi[1] + rg, sub.hi[2] + rg];
        let full = NeighborList::build_boundary(&st.atoms, lo, hi, &ilist, &part.geo, exec);
        part.pair = full.local_only_rows();
        part.n_pair = part.pair.iter().filter(|&&b| b).count();
        part.pair_pairs = full.pairs_in(&part.pair, true);
        let w_full = RankWork {
            n_local: st.atoms.nlocal as f64,
            n_ghost: st.atoms.nghost() as f64,
            interactions: full.npairs() as f64,
            eam: ctx.eam,
        };
        let t_full = ctx.costs.neigh_time(&w_full, ctx.threading, &ctx.params);
        let t_int = ctx.costs.neigh_time(
            &interior_work(part.n_geo, part.geo_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        let dt = (t_full - t_int).max(0.0);
        st.clock += dt;
        lane.acc.neigh += dt;
        lane.list = Some(full);
    });
}

/// Log the interior rows of a single-pass pair potential into the split
/// scratch (no force array is touched — the halo may still be in
/// flight). Charges the interior share of Pair.
///
/// # Panics
/// If `potential` is not a split-capable single-pass style.
pub fn pair_interior_log(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    rebuild: bool,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::Pair(pot) = potential else {
        panic!("pair_interior_log requires a single-pass potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("pair_interior_log requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "interior_pair", "row partition");
            return;
        };
        let (flags, n_int, int_pairs) = split_sel(part, rebuild);
        let list = if rebuild {
            lane.interior_list.as_ref()
        } else {
            lane.list.as_ref()
        };
        let Some(list) = list else {
            fail_missing_list(lane, r, "interior_pair");
            return;
        };
        lane.split.prepare(st.atoms.nlocal);
        split.log_rows(&st.atoms, list, flags, true, exec, &mut lane.split);
        let dt = ctx.costs.pair_time(
            &interior_work(n_int, int_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// Log the boundary rows of a single-pass pair potential against the
/// arrived ghosts, then replay both sides in exact serial row order into
/// freshly zeroed forces. Charges the remainder of the full Pair time.
///
/// # Panics
/// If `potential` is not a split-capable single-pass style.
pub fn pair_boundary_finish(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    rebuild: bool,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::Pair(pot) = potential else {
        panic!("pair_boundary_finish requires a single-pass potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("pair_boundary_finish requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "boundary_pair", "row partition");
            return;
        };
        let (flags, n_int, int_pairs) = split_sel(part, rebuild);
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "boundary_pair");
            return;
        };
        split.log_rows(&st.atoms, list, flags, false, exec, &mut lane.split);
        st.atoms.zero_forces();
        kernels::replay_forces_split(&lane.split, &mut st.atoms.f, exec);
        let (energy, virial) = kernels::fold_ev_split(&lane.split);
        lane.energy = PairEnergyVirial { energy, virial };
        lane.embed = 0.0;
        let w_full = RankWork {
            n_local: st.atoms.nlocal as f64,
            n_ghost: st.atoms.nghost() as f64,
            interactions: list.npairs() as f64,
            eam: ctx.eam,
        };
        let t_full = ctx.costs.pair_time(&w_full, ctx.threading, &ctx.params);
        let t_int = ctx.costs.pair_time(
            &interior_work(n_int, int_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        let dt = (t_full - t_int).max(0.0);
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// Log the interior rows of the EAM density pass. Charges half the
/// interior Pair share (the other half belongs to the force pass).
///
/// # Panics
/// If `potential` is not a split-capable many-body style.
pub fn rho_interior_log(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    rebuild: bool,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::ManyBody(pot) = potential else {
        panic!("rho_interior_log requires a many-body potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("rho_interior_log requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "interior_rho", "row partition");
            return;
        };
        let (flags, n_int, int_pairs) = split_sel(part, rebuild);
        let list = if rebuild {
            lane.interior_list.as_ref()
        } else {
            lane.list.as_ref()
        };
        let Some(list) = list else {
            fail_missing_list(lane, r, "interior_rho");
            return;
        };
        lane.split.prepare(st.atoms.nlocal);
        split.log_rho_rows(&st.atoms, list, flags, true, exec, &mut lane.split);
        let dt = 0.5
            * ctx.costs.pair_time(
                &interior_work(n_int, int_pairs, ctx.eam),
                ctx.threading,
                &ctx.params,
            );
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// Log the boundary rows of the EAM density pass and replay both sides
/// into a zeroed `st.scalar` — bit-identical to the one-pass density.
/// Charges the density pass's remaining Pair share.
///
/// # Panics
/// If `potential` is not a split-capable many-body style.
pub fn rho_boundary_finish(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    rebuild: bool,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::ManyBody(pot) = potential else {
        panic!("rho_boundary_finish requires a many-body potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("rho_boundary_finish requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "boundary_rho", "row partition");
            return;
        };
        let (flags, n_int, int_pairs) = split_sel(part, rebuild);
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "boundary_rho");
            return;
        };
        split.log_rho_rows(&st.atoms, list, flags, false, exec, &mut lane.split);
        st.scalar.clear();
        st.scalar.resize(st.atoms.ntotal(), 0.0);
        kernels::replay_scalars_split(&lane.split, &mut st.scalar, exec);
        let w_full = RankWork {
            n_local: st.atoms.nlocal as f64,
            n_ghost: st.atoms.nghost() as f64,
            interactions: list.npairs() as f64,
            eam: ctx.eam,
        };
        let t_full = ctx.costs.pair_time(&w_full, ctx.threading, &ctx.params);
        let t_int = ctx.costs.pair_time(
            &interior_work(n_int, int_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        let dt = 0.5 * (t_full - t_int).max(0.0);
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// Log the interior rows of the EAM force pass — rows whose stored
/// neighbors are all local, so every F' they read is already valid while
/// the F' forward is still in flight. Charges half the interior share.
///
/// # Panics
/// If `potential` is not a split-capable many-body style.
pub fn force_interior_log(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::ManyBody(pot) = potential else {
        panic!("force_interior_log requires a many-body potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("force_interior_log requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "interior_force", "row partition");
            return;
        };
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "interior_force");
            return;
        };
        lane.split.prepare(st.atoms.nlocal);
        split.log_force_rows(
            &st.atoms,
            list,
            &st.scalar,
            &part.pair,
            true,
            exec,
            &mut lane.split,
        );
        let dt = 0.5
            * ctx.costs.pair_time(
                &interior_work(part.n_pair, part.pair_pairs, ctx.eam),
                ctx.threading,
                &ctx.params,
            );
        st.clock += dt;
        lane.acc.pair += dt;
    });
}

/// Log the boundary rows of the EAM force pass with the arrived ghost F'
/// values, then replay both sides into zeroed forces. Charges the force
/// pass's remaining Pair share.
///
/// # Panics
/// If `potential` is not a split-capable many-body style.
pub fn force_boundary_finish(
    team: &Team,
    ctx: &Ctx,
    potential: &Potential,
    lanes: &mut [Lane],
    states: &mut [RankState],
) {
    let Potential::ManyBody(pot) = potential else {
        panic!("force_boundary_finish requires a many-body potential");
    };
    let Some(split) = pot.as_split() else {
        panic!("force_boundary_finish requires a split-capable potential");
    };
    team.for_each_chunk(lanes, states, &|r, lane, st, exec| {
        let Some(part) = lane.part.as_ref() else {
            fail_missing(lane, r, "boundary_force", "row partition");
            return;
        };
        let Some(list) = lane.list.as_ref() else {
            fail_missing_list(lane, r, "boundary_force");
            return;
        };
        split.log_force_rows(
            &st.atoms,
            list,
            &st.scalar,
            &part.pair,
            false,
            exec,
            &mut lane.split,
        );
        st.atoms.zero_forces();
        kernels::replay_forces_split(&lane.split, &mut st.atoms.f, exec);
        let (energy, virial) = kernels::fold_ev_split(&lane.split);
        lane.energy = PairEnergyVirial { energy, virial };
        let w_full = RankWork {
            n_local: st.atoms.nlocal as f64,
            n_ghost: st.atoms.nghost() as f64,
            interactions: list.npairs() as f64,
            eam: ctx.eam,
        };
        let t_full = ctx.costs.pair_time(&w_full, ctx.threading, &ctx.params);
        let t_int = ctx.costs.pair_time(
            &interior_work(part.n_pair, part.pair_pairs, ctx.eam),
            ctx.threading,
            &ctx.params,
        );
        let dt = 0.5 * (t_full - t_int).max(0.0);
        st.clock += dt;
        lane.acc.pair += dt;
    });
}
