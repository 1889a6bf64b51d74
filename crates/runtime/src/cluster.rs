//! The simulated cluster: lockstep multi-rank MD over the TofuD fabric.
//!
//! Every rank holds real atoms and computes real forces; ghost data moves
//! as real bytes through the chosen [`CommVariant`]'s engine. Time is
//! *virtual*: communication time flows from the fabric's calibrated model,
//! compute-stage time from [`StageCosts`] applied to the rank's actual
//! workload. The per-stage accounting mirrors LAMMPS's timing breakdown
//! (Table 3): Pair, Neigh, Comm, Modify, Other.
//!
//! `Cluster` is a thin façade: each timestep runs one
//! [`StepDag`](crate::driver::StepDag) of [`crate::driver`], per-rank
//! compute lives in [`crate::physics`], and virtual-time bookkeeping in
//! [`crate::accounting`]. Host parallelism comes from the driver's
//! node-aligned [`Team`] on the spin pool — bit-identical results at any
//! thread count (DESIGN.md §9).
//!
//! The same type serves correctness runs (compare against
//! [`tofumd_md::SerialSim`]) and performance runs (a small *proxy* torus
//! carrying the per-rank workload of a much larger target machine).

use crate::accounting::{self, SyncBucket};
use crate::config::RunConfig;
use crate::driver::{DagPhase, Lane, StepDag, Team};
use crate::physics;
use crate::trace::RecoveryStats;
use crate::variant::CommVariant;
use std::sync::Arc;
use tofumd_core::engine::{GhostEngine, Op, OpStats, RankState};
use tofumd_core::mpi_engine::MpiThreeStage;
use tofumd_core::topo_map::{Placement, RankMap};
use tofumd_md::integrate::NveIntegrator;
use tofumd_md::potential::Potential;
use tofumd_md::region::Box3;
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_model::StageCosts;
use tofumd_mpi::Communicator;
use tofumd_tofu::{FaultCounters, FaultPlan, TofuError, TofuNet};

pub use crate::accounting::StageBreakdown;

// Child modules of the façade: system construction (lattice, engines,
// velocity init, setup phases) and the read-side metrics/observability
// surface. Split out so this file stays the step driver alone.
#[path = "cluster_build.rs"]
mod build;
#[path = "cluster_checkpoint.rs"]
mod checkpoint_impl;
#[cfg(test)]
#[path = "cluster_overlap_tests.rs"]
mod overlap_tests;
#[path = "cluster_rebalance.rs"]
mod rebalance;
#[path = "cluster_report.rs"]
mod report;

/// Callback invoked after every completed communication round: `(op,
/// round, rounds, states)`. Installed by the lockstep bisector to snapshot
/// per-rank state at op granularity.
pub type OpObserver = Box<dyn FnMut(Op, usize, usize, &[RankState]) + Send>;

/// The lockstep simulated cluster.
pub struct Cluster {
    /// The run configuration in force.
    pub cfg: RunConfig,
    /// The communication design under test.
    pub variant: CommVariant,
    map: RankMap,
    global: Box3,
    net: Arc<TofuNet>,
    mpi: Arc<Communicator>,
    potential: Arc<Potential>,
    integrator: NveIntegrator,
    states: Vec<RankState>,
    lanes: Vec<Lane>,
    team: Team,
    costs: StageCosts,
    /// Completed timesteps since construction.
    pub step: u64,
    /// Neighbor-list rebuilds performed (including setup).
    pub rebuild_count: u64,
    steps_run: u64,
    /// This step's reneighbor verdict (set by the check phase).
    rebuild: bool,
    /// Whether the reverse (ghost-force) exchange runs each step.
    reverse_needed: bool,
    /// LAMMPS `thermo N`: global thermo reduction every N steps (0 = off).
    thermo_every: u64,
    /// Snapshots collected at thermo steps.
    thermo_log: Vec<ThermoSnapshot>,
    target_mesh: [u32; 3],
    target_ranks: usize,
    op_observer: Option<OpObserver>,
    /// Ghost-shell depth of the built plans (needed to rebuild engines on
    /// a mid-run demotion).
    pub(crate) shells: usize,
    /// Counters of engines retired by a mid-run demotion, folded into the
    /// telemetry views so history survives the engine swap.
    pub(crate) retired_stats: OpStats,
    /// True once the cluster has swapped its engines for the MPI 3-stage
    /// reference after a retry budget was exhausted.
    pub(crate) demoted: bool,
    /// Forces the next step to reneighbor (set on demotion: the fresh
    /// engines have no ghost send lists until a Border pass runs).
    pub(crate) force_rebuild: bool,
    /// Armed by the check phase when the dynamic-balance trigger fires;
    /// consumed by this step's Rebalance phase.
    pub(crate) rebalance_now: bool,
    /// Mid-run rebalances performed since construction.
    pub(crate) rebalance_count: u64,
    /// The proxy mesh this cluster was built on (needed to restore: the
    /// [`RankMap`] does not expose its cell grid).
    pub(crate) proxy_mesh: [u32; 3],
    /// Auto-checkpoint cadence in steps (0 = manual checkpoints only).
    /// Checkpoints land at the first reneighbor step at or past the due
    /// step, so the dump is always at a list-rebuild boundary.
    pub(crate) checkpoint_every: u64,
    /// First step at or after which the next auto checkpoint is due.
    pub(crate) next_checkpoint: u64,
    /// Where auto checkpoints are written (`restart N <file>`); `None`
    /// keeps them in memory only.
    pub(crate) checkpoint_path: Option<std::path::PathBuf>,
    /// The sealed container bytes of the most recent checkpoint — the
    /// rollback target when a peer dies.
    pub(crate) last_checkpoint: Option<Vec<u8>>,
    /// Set when a communication op surfaced [`TofuError::PeerDead`]
    /// mid-step; consumed by `run_step`, which aborts the step and runs
    /// the shrinking recovery.
    pub(crate) pending_peer_death: Option<u32>,
    /// The rank a shrinking recovery removed from the run, if any. Its
    /// lane stays allocated but is skipped by every phase.
    pub(crate) dead: Option<u32>,
    /// Checkpoint/recovery counters, surfaced through
    /// [`Trace::report`](crate::trace::Trace::report).
    pub(crate) recovery: RecoveryStats,
    /// True exactly when the current state is a consistent checkpoint
    /// boundary (end of a reneighbor step, or right after setup/restore).
    pub(crate) at_rebuild_boundary: bool,
}

impl Cluster {
    /// Build a cluster on `mesh` nodes holding `cfg.natoms_target` atoms.
    #[must_use]
    pub fn new(mesh: [u32; 3], cfg: RunConfig, variant: CommVariant) -> Self {
        Self::build(mesh, mesh, cfg, variant, Placement::TopoAware)
    }

    /// Build a *proxy* cluster: a small `proxy_mesh` torus whose ranks each
    /// carry the per-rank workload of `cfg.natoms_target` atoms spread over
    /// `target_mesh`; collective costs are modeled at the target scale.
    #[must_use]
    pub fn proxy(
        proxy_mesh: [u32; 3],
        target_mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
    ) -> Self {
        let target_nodes: u64 = target_mesh.iter().map(|&d| u64::from(d)).product();
        let proxy_nodes: u64 = proxy_mesh.iter().map(|&d| u64::from(d)).product();
        let scaled =
            ((cfg.natoms_target as u64 * proxy_nodes) / target_nodes).max(proxy_nodes * 4) as usize;
        let scaled_cfg = RunConfig {
            natoms_target: scaled,
            ..cfg
        };
        Self::build(
            proxy_mesh,
            target_mesh,
            scaled_cfg,
            variant,
            Placement::TopoAware,
        )
    }

    /// Full constructor with explicit placement (the topo-map ablation
    /// passes `Placement::Shuffled`).
    #[must_use]
    pub fn with_placement(
        mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        placement: Placement,
    ) -> Self {
        Self::build(mesh, mesh, cfg, variant, placement)
    }

    /// Build a cluster with a deterministic [`FaultPlan`] installed on the
    /// fabric *before* any engine construction, so registration and CQ
    /// faults already apply to the build itself (keyed under
    /// [`tofumd_tofu::OP_SETUP`] / step 0).
    #[must_use]
    pub fn with_fault_plan(
        mesh: [u32; 3],
        cfg: RunConfig,
        variant: CommVariant,
        plan: FaultPlan,
    ) -> Self {
        Self::build_with_faults(mesh, mesh, cfg, variant, Placement::TopoAware, Some(plan))
    }

    /// Install (or replace) a fault plan on the running fabric; it takes
    /// effect at the next communication op.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// Running totals of the faults the fabric has injected.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        self.net.fault_counters()
    }

    /// True once a retry-budget exhaustion demoted the cluster to the MPI
    /// 3-stage reference engine.
    #[must_use]
    pub fn demoted(&self) -> bool {
        self.demoted
    }

    /// The communication variant currently in force (changes to
    /// [`CommVariant::Ref`] after a mid-run demotion).
    #[must_use]
    pub fn variant(&self) -> CommVariant {
        self.variant
    }

    /// Number of ranks.
    #[must_use]
    pub fn nranks(&self) -> usize {
        self.states.len()
    }

    /// Total atoms across all ranks.
    #[must_use]
    pub fn natoms(&self) -> usize {
        self.states.iter().map(|s| s.atoms.nlocal).sum()
    }

    /// Per-rank states (read-only observability for tests).
    #[must_use]
    pub fn states(&self) -> &[RankState] {
        &self.states
    }

    /// The global periodic box of the built system.
    #[must_use]
    pub fn global_box(&self) -> Box3 {
        self.global
    }

    /// The rank-to-node mapping in force.
    #[must_use]
    pub fn rank_map(&self) -> &RankMap {
        &self.map
    }

    /// Zero all timing state (clocks, TNI schedules, accumulators).
    /// Called after setup so reported times cover production steps only.
    pub fn reset_timers(&mut self) {
        for st in &mut self.states {
            st.clock = 0.0;
            st.comm_time = 0.0;
            st.pair_comm_time = 0.0;
        }
        self.net.reset_clocks();
        for lane in &mut self.lanes {
            lane.acc.reset();
        }
        self.steps_run = 0;
    }

    /// Drive the lockstep phases with `threads` host threads (1 = serial).
    /// Results are bit-identical at any thread count: the team's static
    /// node-aligned partition keeps every shared-TNI ordering fixed
    /// (DESIGN.md §9).
    pub fn set_driver_threads(&mut self, threads: usize) {
        assert!(threads >= 1);
        if threads != self.team.threads() {
            self.team = Team::new(threads, &self.map);
        }
    }

    /// Host threads currently driving the phases.
    #[must_use]
    pub fn driver_threads(&self) -> usize {
        self.team.threads()
    }

    /// The read-only context of this step's physics phases.
    fn physics_ctx(&self) -> physics::Ctx {
        let p2p_grid = self.variant.is_p2p() && self.cfg.comm.decomp == crate::config::Decomp::Grid;
        physics::Ctx {
            costs: self.costs,
            params: *self.net.params(),
            threading: self.variant.threading(),
            cutoff: self.potential.cutoff(),
            skin: self.cfg.skin(),
            // The one-sided rule requires the grid's half ghost shell;
            // irregular (RCB) graphs carry ghosts on every side, so they
            // keep the coordinate-ordering rule to own each cross-rank
            // pair exactly once.
            list_kind: match self.potential.list_kind() {
                tofumd_md::neighbor::ListKind::HalfNewton if p2p_grid => {
                    tofumd_md::neighbor::ListKind::HalfOneSided
                }
                k => k,
            },
            eam: self.cfg.is_eam(),
        }
    }

    /// After a parallel phase region joined, raise the first captured
    /// engine failure. Recoverable faults never reach here (the engines
    /// absorb them by retry or reliable-stack fallback). A
    /// [`TofuError::PeerDead`] is the one survivable escalation: it marks
    /// the dead rank for the shrinking recovery and lets the step driver
    /// abort the step. Anything else is a protocol violation a real run
    /// could not survive either, so the typed context is surfaced as a
    /// panic message rather than silently corrupting physics.
    fn raise_lane_failures(&mut self, op: Op, round: usize, stage: &str) {
        for (rank, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(e) = lane.failed.take() {
                if let TofuError::PeerDead { rank: dead, .. } = e {
                    // Every survivor reports the same dead peer; keep the
                    // first sighting and drain the rest.
                    if self.pending_peer_death.is_none() {
                        self.pending_peer_death = Some(dead);
                    }
                    continue;
                }
                panic!("rank {rank}: {stage}({op:?}, round {round}) failed: {e}");
            }
        }
    }

    /// Lanes excluded from every communication phase: ranks the fault
    /// plan has killed by the current fault-context step, plus a rank a
    /// completed shrinking recovery removed (the plan's kill step is in
    /// the rolled-back past, so the recovery keeps its own record).
    fn dead_lanes(&self) -> Vec<u32> {
        let mut dead = self.net.dead_ranks();
        if let Some(d) = self.dead {
            dead.push(d);
            dead.sort_unstable();
            dead.dedup();
        }
        dead
    }

    /// Raise the first typed failure a physics phase recorded (a phase
    /// sequencing violation, e.g. a force pass before any list build).
    fn raise_physics_failures(&mut self, stage: &str) {
        for (rank, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(e) = lane.failed.take() {
                panic!("rank {rank}: {stage} failed: {e}");
            }
        }
    }

    /// `op`'s round count and stage-barrier rule, read from rank 0.
    fn op_rounds(&self, op: Op) -> (usize, bool) {
        let rounds = self.lanes[0].engine.rounds(op);
        let barrier = self.lanes[0].engine.barrier_between_rounds();
        // A wrapper that fails to delegate rounds()/barrier_between_rounds()
        // silently changes every rank's round count (the driver reads rank
        // 0 only) — catch the disagreement here.
        debug_assert!(
            self.lanes
                .iter()
                .all(|l| l.engine.rounds(op) == rounds
                    && l.engine.barrier_between_rounds() == barrier),
            "engines disagree on rounds({op:?})/barrier: engine wrappers must \
             delegate rounds() and barrier_between_rounds()"
        );
        (rounds, barrier)
    }

    /// Run every round of `op` back to back: the driver's one way to run
    /// a comm op. The overlap DAG's window nodes call the same two halves
    /// with interior compute between them.
    fn run_op(&mut self, op: Op) {
        let (rounds, _) = self.op_rounds(op);
        for round in 0..rounds {
            self.post_op(op, round);
            if self.pending_peer_death.is_none() {
                self.complete_op(op, round);
            }
            if self.pending_peer_death.is_some() {
                break;
            }
        }
    }

    /// Post half of one round of `op` on every live rank. Each rank then
    /// records its clock: the start of the window whose hidden comm time
    /// [`Cluster::complete_op`] credits.
    fn post_op(&mut self, op: Op, round: usize) {
        // Key every fault decision this op makes on (step, op).
        self.net.set_fault_context(self.step, op.index() as u8);
        let dead = self.dead_lanes();
        self.team
            .for_each(&mut self.lanes, &mut self.states, &|rank, lane, st| {
                if dead.contains(&(rank as u32)) {
                    return;
                }
                if let Err(e) = lane.engine.post(op, round, st) {
                    lane.failed = Some(e);
                }
                lane.overlap_c0 = st.clock;
            });
        self.raise_lane_failures(op, round, "post");
    }

    /// Complete half of one round of `op`, then the stage barrier (3-stage
    /// engines), the op observer and, after the last round, the mailbox
    /// reset. A peer death skips those three: the recovery that follows
    /// drains the fabric and resets the mailboxes itself.
    ///
    /// The rank spent `clock − overlap_c0` on interior compute since the
    /// post; any part of the raw arrival horizon covered by that window is
    /// comm time a back-to-back op would have waited out, booked into
    /// `acc.overlapped`. Back to back nothing moves the clock between the
    /// halves, so the credit is exactly +0.0.
    fn complete_op(&mut self, op: Op, round: usize) {
        self.net.set_fault_context(self.step, op.index() as u8);
        let dead = self.dead_lanes();
        self.team
            .for_each(&mut self.lanes, &mut self.states, &|rank, lane, st| {
                if dead.contains(&(rank as u32)) {
                    return;
                }
                let c1 = st.clock;
                st.arrival_horizon = f64::NEG_INFINITY;
                if let Err(e) = lane.engine.complete(op, round, st) {
                    lane.failed = Some(e);
                }
                lane.acc.overlapped += (st.arrival_horizon.min(c1) - lane.overlap_c0).max(0.0);
            });
        self.raise_lane_failures(op, round, "complete");
        if self.pending_peer_death.is_some() {
            return;
        }
        let (rounds, barrier) = self.op_rounds(op);
        if barrier && round + 1 < rounds {
            // Stage synchronization of the 3-stage pattern ("an MPI
            // barrier is mandatory between stages", §3.1), realized by
            // LAMMPS's sendrecv dependency chain: a global stall plus
            // one notification, not a log-P collective.
            accounting::global_sync(
                &mut self.states,
                self.lanes.iter_mut().map(|l| &mut l.acc),
                self.net.params().mpi_match_cost,
                SyncBucket::Comm(op),
            );
        }
        if let Some(mut obs) = self.op_observer.take() {
            obs(op, round, rounds, &self.states);
            self.op_observer = Some(obs);
        }
        if round + 1 == rounds {
            self.mpi.reset_mailboxes();
        }
    }

    /// Can this step's halo ops overlap with interior compute? Requires a
    /// p2p variant whose Border/Forward ops are single-round without a
    /// stage barrier, and a potential that implements the split kernels.
    /// Re-evaluated every step, so a mid-run demotion (to the 3-stage
    /// reference) degrades the DAG to its no-overlap shape.
    fn overlap_eligible(&self) -> bool {
        if !self.variant.is_p2p() {
            return false;
        }
        let engine = &self.lanes[0].engine;
        if engine.barrier_between_rounds()
            || engine.rounds(Op::Border) != 1
            || engine.rounds(Op::Forward) != 1
        {
            return false;
        }
        match &*self.potential {
            Potential::Pair(p) => p.as_split().is_some(),
            Potential::ManyBody(p) => p.as_split().is_some(),
        }
    }

    /// Execute one node of the step DAG.
    fn run_dag_phase(&mut self, phase: DagPhase) {
        let ctx = self.physics_ctx();
        let potential = self.potential.clone();
        match phase {
            DagPhase::Rebalance => self.run_rebalance(),
            DagPhase::Exchange => {
                // Positions are deliberately *not* wrapped into the global
                // box first: the face link's periodic shift re-wraps a
                // boundary-crossing atom while sending it one hop; a global
                // wrap would route it the long way around the torus.
                for st in &mut self.states {
                    st.atoms.clear_ghosts();
                }
                self.run_op(Op::Exchange);
            }
            DagPhase::SpatialSort => {
                physics::spatial_sort(&self.team, &ctx, &mut self.lanes, &mut self.states);
            }
            DagPhase::BorderOp => self.run_op(Op::Border),
            DagPhase::ForwardOp => self.run_op(Op::Forward),
            DagPhase::RhoReduce => self.run_op(Op::ReverseScalar),
            DagPhase::Reverse => self.run_op(Op::Reverse),
            DagPhase::BorderPost => self.post_op(Op::Border, 0),
            DagPhase::ForwardPost => self.post_op(Op::Forward, 0),
            DagPhase::FwdScalarPost => self.post_op(Op::ForwardScalar, 0),
            DagPhase::BorderComplete => self.complete_op(Op::Border, 0),
            DagPhase::ForwardComplete => self.complete_op(Op::Forward, 0),
            DagPhase::FwdScalarComplete => self.complete_op(Op::ForwardScalar, 0),
            DagPhase::RebuildLists => {
                physics::rebuild_lists(&self.team, &ctx, &mut self.lanes, &mut self.states);
                self.rebuild_count += 1;
            }
            DagPhase::InteriorBuild => {
                physics::build_interior_lists(&self.team, &ctx, &mut self.lanes, &mut self.states);
                self.raise_physics_failures("interior_build");
            }
            DagPhase::BoundaryBuild => {
                physics::build_boundary_lists(&self.team, &ctx, &mut self.lanes, &mut self.states);
                self.raise_physics_failures("boundary_build");
                self.rebuild_count += 1;
            }
            DagPhase::InteriorPair => {
                physics::pair_interior_log(
                    &self.team,
                    &ctx,
                    &potential,
                    self.rebuild,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("interior_pair");
            }
            DagPhase::BoundaryPair => {
                physics::pair_boundary_finish(
                    &self.team,
                    &ctx,
                    &potential,
                    self.rebuild,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("boundary_pair");
            }
            DagPhase::InteriorRho => {
                physics::rho_interior_log(
                    &self.team,
                    &ctx,
                    &potential,
                    self.rebuild,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("interior_rho");
            }
            DagPhase::BoundaryRho => {
                physics::rho_boundary_finish(
                    &self.team,
                    &ctx,
                    &potential,
                    self.rebuild,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("boundary_rho");
            }
            DagPhase::Embed => {
                physics::eam_embed(&self.team, &potential, &mut self.lanes, &mut self.states);
            }
            DagPhase::InteriorForce => {
                physics::force_interior_log(
                    &self.team,
                    &ctx,
                    &potential,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("interior_force");
            }
            DagPhase::BoundaryForce => {
                physics::force_boundary_finish(
                    &self.team,
                    &ctx,
                    &potential,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("boundary_force");
            }
            DagPhase::PairCompute => {
                // The unsplit pass: single pass, or the EAM pipeline with
                // its two mid-stage scalar exchanges.
                match &*potential {
                    Potential::Pair(_) => {
                        physics::pair_single(
                            &self.team,
                            &potential,
                            &mut self.lanes,
                            &mut self.states,
                        );
                        self.raise_physics_failures("pair");
                    }
                    Potential::ManyBody(_) => {
                        physics::eam_rho(&self.team, &potential, &mut self.lanes, &mut self.states);
                        self.raise_physics_failures("eam_rho");
                        self.run_op(Op::ReverseScalar);
                        if self.pending_peer_death.is_some() {
                            return;
                        }
                        physics::eam_embed(
                            &self.team,
                            &potential,
                            &mut self.lanes,
                            &mut self.states,
                        );
                        self.run_op(Op::ForwardScalar);
                        if self.pending_peer_death.is_some() {
                            return;
                        }
                        physics::eam_force(
                            &self.team,
                            &potential,
                            &mut self.lanes,
                            &mut self.states,
                        );
                        self.raise_physics_failures("eam_force");
                    }
                }
                physics::charge_pair(&self.team, &ctx, &mut self.lanes, &mut self.states);
                self.raise_physics_failures("charge_pair");
            }
            DagPhase::FinalIntegrate => {
                physics::integrate_final(
                    &self.team,
                    &ctx,
                    &self.integrator,
                    &mut self.lanes,
                    &mut self.states,
                );
                self.raise_physics_failures("integrate_final");
            }
            DagPhase::Accounting => {
                // Per-step Other floor plus the optional LAMMPS `thermo N`
                // reduction, booked into Other like LAMMPS's output stage.
                physics::charge_other_floor(&self.team, &ctx, &mut self.lanes, &mut self.states);
                if self.thermo_every > 0 && self.step.is_multiple_of(self.thermo_every) {
                    self.allreduce_other(3 * 8);
                    let snap = self.thermo();
                    self.thermo_log.push(snap);
                }
            }
        }
    }

    /// Establish ghosts, lists and forces from the current local atoms:
    /// the no-overlap Border → list build → forces → Reverse chain that
    /// setup, checkpoint restore and rank-death recovery share.
    fn rebuild_ghosts_and_forces(&mut self) {
        self.run_dag_phase(DagPhase::BorderOp);
        self.run_dag_phase(DagPhase::RebuildLists);
        self.run_dag_phase(DagPhase::PairCompute);
        if self.reverse_needed {
            self.run_dag_phase(DagPhase::Reverse);
        }
    }

    /// Install an [`OpObserver`] called after every completed round of
    /// every op. Used by the lockstep bisector; replaces any previous
    /// observer.
    pub fn set_op_observer(&mut self, obs: OpObserver) {
        self.op_observer = Some(obs);
    }

    /// Remove the installed [`OpObserver`], if any.
    pub fn clear_op_observer(&mut self) {
        self.op_observer = None;
    }

    /// Replace rank `rank`'s ghost engine with `wrap(old_engine)`. The
    /// lockstep fault-injection tests use this to interpose a corrupting
    /// shim around one rank's engine.
    pub fn wrap_engine(
        &mut self,
        rank: usize,
        wrap: impl FnOnce(Box<dyn GhostEngine>) -> Box<dyn GhostEngine>,
    ) {
        let old = std::mem::replace(&mut self.lanes[rank].engine, Box::new(PlaceholderEngine));
        self.lanes[rank].engine = wrap(old);
    }

    /// Decide whether this step reneighbors: rebuild-policy schedule plus
    /// (for EAM) the every-5-step displacement check, whose allreduce is
    /// booked into Other at the target machine's scale. Afterwards the
    /// dynamic-balance trigger is evaluated — at `fix balance` interval
    /// steps the atom imbalance is globally reduced (one more allreduce
    /// into Other) and compared with the balance threshold; firing arms
    /// this step's Rebalance phase and forces a reneighbor so the fresh
    /// decomposition rebuilds ghosts and lists. Skipped after a demotion
    /// (the reference engines are grid-only).
    fn reneighbor_check(&mut self) {
        self.reneighbor_verdict();
        // A post-recovery run keeps its shrunken decomposition static:
        // `run_rebalance` rebuilds full-width graphs, which would
        // resurrect the dead rank.
        if self.demoted || self.dead.is_some() || !self.cfg.comm.rebalance_check_due(self.step) {
            return;
        }
        let imbalance = self.atom_imbalance();
        if self.cfg.comm.rebalance_due(self.step, imbalance) {
            self.rebalance_now = true;
            self.rebuild = true;
        }
        self.allreduce_other(1);
    }

    fn reneighbor_verdict(&mut self) {
        if self.force_rebuild {
            // A demotion swapped in engines with empty ghost send lists;
            // only a full exchange + border pass can populate them.
            self.force_rebuild = false;
            self.rebuild = true;
            return;
        }
        let policy = self.cfg.policy();
        self.rebuild = false;
        if !policy.is_check_step(self.step) {
            return;
        }
        if !policy.check {
            self.rebuild = true;
            return;
        }
        physics::check_displacements(
            &self.team,
            self.cfg.skin(),
            &mut self.lanes,
            &mut self.states,
        );
        self.raise_physics_failures("check_displacements");
        self.rebuild = self.lanes.iter().any(|l| l.moved);
        self.allreduce_other(1);
    }

    /// A target-scale allreduce of `bytes` bytes booked into Other: every
    /// clock stalls to the latest plus the collective's modeled cost.
    fn allreduce_other(&mut self, bytes: usize) {
        let cost = accounting::allreduce_cost_target(
            self.net.params(),
            self.target_mesh,
            self.target_ranks,
            bytes,
        );
        accounting::global_sync(
            &mut self.states,
            self.lanes.iter_mut().map(|l| &mut l.acc),
            cost,
            SyncBucket::Other,
        );
    }

    /// Advance one timestep: the first integrate half and the reneighbor
    /// verdict, then the step DAG that verdict shapes. If any engine
    /// exhausted its put retry budget during the step, the whole cluster
    /// demotes to the MPI 3-stage reference before the next step.
    pub fn run_step(&mut self) {
        self.advance(true);
    }

    /// The one step function. `overlap` permits the overlapping DAG shape
    /// where the variant and potential support it; `false` runs every
    /// step in the no-overlap shape, the reference the overlap ≡
    /// no-overlap equivalence tests compare against.
    fn advance(&mut self, overlap: bool) {
        self.step += 1;
        self.at_rebuild_boundary = false;
        physics::integrate_initial(
            &self.team,
            &self.integrator,
            &mut self.lanes,
            &mut self.states,
        );
        self.reneighbor_check();
        // A rebuild step creates its own partition; a forward step can
        // only split rows if an overlapped rebuild already classified them
        // for the current list epoch (a full list rebuild, a restore and a
        // recovery all invalidate it).
        let partitioned = self.rebuild || self.lanes.iter().all(|l| l.part.is_some());
        let dag = StepDag::build(
            self.rebuild,
            self.cfg.is_eam(),
            self.reverse_needed,
            overlap && self.overlap_eligible() && partitioned,
        );
        for phase in dag.execution_order() {
            if self.pending_peer_death.is_some() {
                break;
            }
            self.run_dag_phase(phase);
        }
        // A peer died mid-step: abandon the partial step and roll every
        // survivor back to the last checkpoint on a shrunken star forest.
        if let Some(dead) = self.pending_peer_death.take() {
            self.recover_from_rank_death(dead);
            return;
        }
        self.steps_run += 1;
        if !self.demoted && self.lanes.iter().any(|l| l.engine.fallback_requested()) {
            self.demote_to_ref();
        }
        if self.rebuild {
            self.at_rebuild_boundary = true;
            if self.checkpoint_every > 0 && self.step >= self.next_checkpoint {
                self.auto_checkpoint();
            }
        }
    }

    /// Graceful degradation: retire every lane's engine (folding its
    /// counters into [`Self::retired_stats`]) and replace it with the MPI
    /// 3-stage reference. The demotion is *collective* — the lockstep ops
    /// require all ranks to speak the same protocol — and forces a
    /// reneighbor pass next step so the fresh engines build their ghost
    /// lists before any forward exchange.
    fn demote_to_ref(&mut self) {
        for (rank, lane) in self.lanes.iter_mut().enumerate() {
            self.retired_stats.merge(&lane.engine.op_stats());
            lane.engine = Box::new(MpiThreeStage::new(
                self.mpi.clone(),
                &self.map,
                rank,
                &self.global,
                self.shells,
            ));
        }
        self.variant = CommVariant::Ref;
        self.demoted = true;
        self.force_rebuild = true;
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.run_step();
        }
    }
}

/// Stand-in engine used only inside [`Cluster::wrap_engine`] while the
/// real engine is temporarily moved out. Never posts or completes.
struct PlaceholderEngine;

impl GhostEngine for PlaceholderEngine {
    fn name(&self) -> &'static str {
        "placeholder"
    }
    fn rounds(&self, _op: Op) -> usize {
        0
    }
    fn post(
        &mut self,
        _op: Op,
        _round: usize,
        _st: &mut RankState,
    ) -> Result<(), tofumd_tofu::TofuError> {
        unreachable!("placeholder engine must never run");
    }
    fn complete(
        &mut self,
        _op: Op,
        _round: usize,
        _st: &mut RankState,
    ) -> Result<(), tofumd_tofu::TofuError> {
        unreachable!("placeholder engine must never run");
    }
}
