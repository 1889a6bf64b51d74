//! The deterministic host-parallel step executor.
//!
//! After the integrate and reneighbor-check prefix, a timestep is one
//! [`StepDag`] of [`DagPhase`] nodes — per-rank work items (ghost-op
//! halves, list builds, pair passes, integration, accounting) executed
//! over all simulated ranks by a persistent [`Team`] of host threads
//! built on `tofumd-threadpool`'s spin pool (the paper's §3.3 design,
//! dogfooded as our own step driver).
//!
//! # Determinism contract (DESIGN.md §9)
//!
//! Results are **bit-identical at any thread count** because rank→worker
//! assignment is static and *node-aligned*:
//!
//! * The only cross-rank mutable state whose ordering is observable in
//!   virtual time is the per-`(node, TNI)` injection clock inside
//!   [`tofumd_tofu::TofuNet`] — and only ranks sharing a *node* share
//!   TNIs. Cross-node interactions fold arrival times with `max` and
//!   match payloads by content (piggyback / stadd / (src, tag)), so their
//!   ordering is unobservable.
//! * Therefore the team partitions work by **node**: all four ranks of a
//!   node are always driven by the same worker, nodes in ascending id
//!   order and ranks in ascending order within each node — exactly the
//!   serial order restricted to each worker's node range. No phase result
//!   can depend on the interleaving between workers.
//!
//! Note the 1×2×2 rank-per-node split means a node's four ranks are *not*
//! contiguous in rank order, which is why chunking is over node groups
//! rather than rank ranges.

use crate::accounting::StageAcc;
use tofumd_core::engine::GhostEngine;
use tofumd_core::topo_map::RankMap;
use tofumd_md::kernels::{PairScratch, SplitScratch};
use tofumd_md::neighbor::NeighborList;
use tofumd_md::potential::PairEnergyVirial;
use tofumd_threadpool::{ChunkExec, SpinPool};
use tofumd_tofu::TofuError;

/// The rank's interior/boundary row partition for one overlap window
/// (rebuilt on reneighbor steps, reused in between).
///
/// Two tiers of "interior" exist because the two split points need
/// different guarantees:
///
/// * `geo` — geometric: the atom sits deeper than `cutoff + skin` from
///   every face of the rank's subdomain, so *no* atom it could ever list
///   as a neighbor is a ghost. Safe for the rebuild-step split, where the
///   interior half runs before the ghost shell exists.
/// * `pair` — list-content: the row's stored neighbor rows are all local.
///   A superset of `geo`; safe for forward-step splits, where the list is
///   fixed and only ghost *positions* are in flight.
#[derive(Debug, Default, Clone)]
pub struct Partition {
    /// Geometric interior flags per local atom.
    pub geo: Vec<bool>,
    /// List-content interior flags per local atom.
    pub pair: Vec<bool>,
    /// Count of `geo` rows.
    pub n_geo: usize,
    /// Stored pairs on `geo` rows.
    pub geo_pairs: usize,
    /// Count of `pair` rows.
    pub n_pair: usize,
    /// Stored pairs on `pair` rows.
    pub pair_pairs: usize,
}

/// Per-rank execution context owned by the driver: everything a phase
/// needs besides the [`tofumd_core::engine::RankState`] itself. Keeping
/// it in one struct lets the team hand a worker `(&mut Lane, &mut
/// RankState)` for each rank it owns without aliasing.
pub struct Lane {
    /// The rank's communication engine.
    pub engine: Box<dyn GhostEngine>,
    /// Current Verlet list (`None` only before the setup build).
    pub list: Option<NeighborList>,
    /// Pair energy/virial of the last force evaluation.
    pub energy: PairEnergyVirial,
    /// EAM embedding energy of the last evaluation.
    pub embed: f64,
    /// Scratch buffer for the EAM F' forward (swapped with `scalar`).
    pub fp_buf: Vec<f64>,
    /// Reneighbor-check verdict of this rank (set by the check phase).
    pub moved: bool,
    /// Compute-stage time accumulators.
    pub acc: StageAcc,
    /// Typed engine failure captured inside a parallel phase region (the
    /// pool's closures cannot propagate `Result`s); the step driver
    /// inspects and raises it after the region joins.
    pub failed: Option<TofuError>,
    /// Chunk-log scratch for the deterministic parallel force kernels
    /// (retained across steps so the hot path does not allocate).
    pub scratch: PairScratch,
    /// Row-tagged scatter logs of the current split pass (interior side
    /// filled while halo messages are in flight, boundary side after).
    pub split: SplitScratch,
    /// Interior/boundary row partition of the current neighbor epoch.
    pub part: Option<Partition>,
    /// Interior-only list built pre-ghost on rebuild steps, consumed by
    /// the boundary build after the Border op lands.
    pub interior_list: Option<NeighborList>,
    /// The rank's clock right after its last post — the start of the
    /// window whose hidden comm time the complete half credits.
    pub overlap_c0: f64,
}

impl Lane {
    /// Fresh lane around `engine` with empty derived state.
    #[must_use]
    pub fn new(engine: Box<dyn GhostEngine>) -> Self {
        Lane {
            engine,
            list: None,
            energy: PairEnergyVirial::default(),
            embed: 0.0,
            fp_buf: Vec::new(),
            moved: false,
            acc: StageAcc::default(),
            failed: None,
            scratch: PairScratch::new(),
            split: SplitScratch::new(),
            part: None,
            interior_list: None,
            overlap_c0: 0.0,
        }
    }
}

/// One node of the per-rank step DAG — the only phase enum of a step.
/// The overlap nodes split each halo op into a post half and a complete
/// half with interior compute between them; the `*Op` nodes and the
/// whole-pass nodes run an op or pass in one piece (the no-overlap shape,
/// used when the variant or potential cannot overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagPhase {
    /// Mid-run domain rebalance (no-op unless armed); the Exchange node
    /// depends on it, making it a barrier point of every rebuild shape.
    Rebalance,
    /// Staged atom migration (3 rounds, never split).
    Exchange,
    /// Bin-order sort of locals between Exchange and Border.
    SpatialSort,
    /// Post the ghost-region halo (Border) puts.
    BorderPost,
    /// Classify rows geometrically and build the interior-only Verlet
    /// list while Border messages are in flight.
    InteriorBuild,
    /// Log the interior rows of the pair pass (single-pass potentials).
    InteriorPair,
    /// Log the interior rows of the EAM density pass.
    InteriorRho,
    /// Wait on the Border halo.
    BorderComplete,
    /// Build the boundary rows against the arrived ghosts and merge into
    /// the full list; derive the list-content partition.
    BoundaryBuild,
    /// Log the boundary pair rows, then replay both sides in serial row
    /// order (single-pass potentials).
    BoundaryPair,
    /// Boundary half of the EAM density pass + merged replay.
    BoundaryRho,
    /// Post the ghost position update (Forward).
    ForwardPost,
    /// Wait on the Forward halo.
    ForwardComplete,
    /// Fold ghost densities back to their owners (ReverseScalar op).
    RhoReduce,
    /// EAM embedding energy + F' for locals.
    Embed,
    /// Post the F' forward exchange (ForwardScalar).
    FwdScalarPost,
    /// Log the interior rows of the EAM force pass while F' ghosts are in
    /// flight.
    InteriorForce,
    /// Wait on the F' halo.
    FwdScalarComplete,
    /// Boundary half of the EAM force pass + merged replay.
    BoundaryForce,
    /// Ghost force fold-back (Reverse op).
    Reverse,
    /// Second velocity-Verlet half + Modify charge.
    FinalIntegrate,
    /// Per-step Other floor + optional thermo reduction.
    Accounting,
    /// Degenerate node: the whole Border op, post+complete back-to-back.
    BorderOp,
    /// Degenerate node: the full (unsplit) list rebuild.
    RebuildLists,
    /// Degenerate node: the whole Forward op.
    ForwardOp,
    /// Degenerate node: the unsplit pair pass (including the EAM
    /// pipeline and the Pair charge).
    PairCompute,
}

/// A DAG node: its phase and the ids of the nodes it depends on.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// The work item.
    pub phase: DagPhase,
    /// Ids of nodes that must execute first (always smaller than this
    /// node's own id, so id order is a topological order).
    pub deps: Vec<usize>,
}

/// The dependency DAG of one timestep, built after the reneighbor verdict
/// is known. Node ids are assigned in a valid topological order and the
/// executor dispatches the lowest-id ready node, so the execution order
/// is a pure function of the step's shape — independent of host thread
/// count, wall-clock, or any virtual-time value (DESIGN.md §12).
#[derive(Debug)]
pub struct StepDag {
    /// The nodes, id-indexed.
    pub nodes: Vec<DagNode>,
}

impl StepDag {
    /// Build the step DAG. `overlap` selects the split (overlapping)
    /// shape; without it the DAG is a chain that posts and completes
    /// every comm op back to back, compute strictly between ops.
    #[must_use]
    pub fn build(rebuild: bool, eam: bool, reverse_needed: bool, overlap: bool) -> Self {
        let mut dag = StepDag { nodes: Vec::new() };
        // Rebuild steps migrate first: Exchange waits on the Rebalance
        // barrier point, and the sort runs while no ghost exists.
        let sorted = if rebuild {
            let rb = dag.push(DagPhase::Rebalance, vec![]);
            let ex = dag.push(DagPhase::Exchange, vec![rb]);
            vec![dag.push(DagPhase::SpatialSort, vec![ex])]
        } else {
            vec![]
        };
        let pair_done = if !overlap {
            let prev = if rebuild {
                let border = dag.push(DagPhase::BorderOp, sorted);
                dag.push(DagPhase::RebuildLists, vec![border])
            } else {
                dag.push(DagPhase::ForwardOp, sorted)
            };
            dag.push(DagPhase::PairCompute, vec![prev])
        } else {
            // The halo op whose window hides the interior rows: Border on
            // rebuild steps (which also build the interior rows' list in
            // the window), Forward otherwise.
            let (post, complete) = if rebuild {
                (DagPhase::BorderPost, DagPhase::BorderComplete)
            } else {
                (DagPhase::ForwardPost, DagPhase::ForwardComplete)
            };
            let post = dag.push(post, sorted.clone());
            let ibuild = rebuild.then(|| dag.push(DagPhase::InteriorBuild, sorted));
            let interior = if eam {
                DagPhase::InteriorRho
            } else {
                DagPhase::InteriorPair
            };
            let ilog = dag.push(interior, ibuild.into_iter().collect());
            let done = dag.push(complete, vec![post]);
            let ready = match ibuild {
                Some(ib) => dag.push(DagPhase::BoundaryBuild, vec![ib, done]),
                None => done,
            };
            if eam {
                let brho = dag.push(DagPhase::BoundaryRho, vec![ilog, ready]);
                dag.push_eam_tail(brho)
            } else {
                dag.push(DagPhase::BoundaryPair, vec![ilog, ready])
            }
        };
        let mut prev = pair_done;
        if reverse_needed {
            prev = dag.push(DagPhase::Reverse, vec![prev]);
        }
        let fin = dag.push(DagPhase::FinalIntegrate, vec![prev]);
        dag.push(DagPhase::Accounting, vec![fin]);
        dag
    }

    /// Append a node; its id is the next free one.
    fn push(&mut self, phase: DagPhase, deps: Vec<usize>) -> usize {
        self.nodes.push(DagNode { phase, deps });
        self.nodes.len() - 1
    }

    /// The shared EAM tail after the density replay: fold ghost rho back,
    /// embed, then overlap the F' forward with the interior force rows.
    fn push_eam_tail(&mut self, rho_done: usize) -> usize {
        let reduce = self.push(DagPhase::RhoReduce, vec![rho_done]);
        let embed = self.push(DagPhase::Embed, vec![reduce]);
        let fpost = self.push(DagPhase::FwdScalarPost, vec![embed]);
        let iforce = self.push(DagPhase::InteriorForce, vec![embed]);
        let fdone = self.push(DagPhase::FwdScalarComplete, vec![fpost]);
        self.push(DagPhase::BoundaryForce, vec![iforce, fdone])
    }

    /// Execute order: repeatedly dispatch the lowest-id node whose deps
    /// have all run. Because ids are assigned topologically this equals
    /// plain id order, but computing it through the ready set keeps the
    /// scheduling rule explicit (and lets tests validate the dep edges).
    #[must_use]
    pub fn execution_order(&self) -> Vec<DagPhase> {
        let n = self.nodes.len();
        let mut done = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let ready = (0..n).find(|&i| !done[i] && self.nodes[i].deps.iter().all(|&d| done[d]));
            let Some(i) = ready else {
                unreachable!("step DAG has a dependency cycle");
            };
            done[i] = true;
            order.push(self.nodes[i].phase);
        }
        order
    }
}

/// Raw-pointer wrapper that lets the pool's scoped closures index into
/// the lane/state slices. Safe because the team's node partition gives
/// every index to exactly one worker per region (see `for_each`).
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i`. Taking the receiver by value (Copy-free via
    /// `&self`) keeps edition-2021 closures capturing the whole wrapper
    /// rather than the raw-pointer field, which would lose the Sync impl.
    fn slot(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

/// The persistent worker team driving per-rank phases.
///
/// Built once per `(thread count, rank map)`; dispatching a phase is one
/// spin-pool region (a single atomic store + spin join), not a round of
/// thread spawns like the old `thread::scope` driver.
pub struct Team {
    pool: SpinPool,
    /// Rank ids grouped by node: `order[node_starts[n]..node_starts[n+1]]`
    /// are node `n`'s ranks in ascending rank order.
    order: Vec<usize>,
    node_starts: Vec<usize>,
}

impl Team {
    /// Build a team of `threads` host threads over `map`'s ranks.
    #[must_use]
    pub fn new(threads: usize, map: &RankMap) -> Self {
        assert!(threads >= 1, "team needs at least one thread");
        let nranks = map.nranks();
        let nnodes = (0..nranks).map(|r| map.node_of(r) + 1).max().unwrap_or(0);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); nnodes];
        for r in 0..nranks {
            groups[map.node_of(r)].push(r);
        }
        let mut order = Vec::with_capacity(nranks);
        let mut node_starts = Vec::with_capacity(nnodes + 1);
        node_starts.push(0);
        for g in &groups {
            order.extend_from_slice(g);
            node_starts.push(order.len());
        }
        Team {
            pool: SpinPool::new(threads),
            order,
            node_starts,
        }
    }

    /// Parallelism of the team.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of node groups in the partition.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// Run `f(rank, &mut a[rank], &mut b[rank])` for every rank, fanned
    /// out over the team with the static node-aligned partition. With one
    /// thread this degrades to the plain serial loop in the same order,
    /// so the 1-thread and N-thread schedules are literally the same
    /// per-node instruction streams.
    pub fn for_each<A: Send, B: Send>(
        &self,
        a: &mut [A],
        b: &mut [B],
        f: &(dyn Fn(usize, &mut A, &mut B) + Sync),
    ) {
        assert_eq!(a.len(), self.order.len());
        assert_eq!(b.len(), self.order.len());
        let threads = self.pool.threads();
        if threads <= 1 {
            for &r in &self.order {
                f(r, &mut a[r], &mut b[r]);
            }
            return;
        }
        let nnodes = self.nodes();
        let chunk = nnodes.div_ceil(threads);
        let pa = SendPtr(a.as_mut_ptr());
        let pb = SendPtr(b.as_mut_ptr());
        self.pool.run(&|tid| {
            let lo = tid * chunk;
            let hi = ((tid + 1) * chunk).min(nnodes);
            for n in lo..hi {
                for &r in &self.order[self.node_starts[n]..self.node_starts[n + 1]] {
                    // SAFETY: the node ranges [lo, hi) are disjoint across
                    // tids and every rank id appears exactly once in
                    // `order`, so each element of `a`/`b` is accessed by
                    // exactly one thread for the duration of this region;
                    // `run` does not return until all workers are done.
                    let ea = unsafe { &mut *pa.slot(r) };
                    let eb = unsafe { &mut *pb.slot(r) };
                    f(r, ea, eb);
                }
            }
        });
    }

    /// Like [`Team::for_each`], but hands each rank closure a
    /// [`ChunkExec`] so the per-rank kernels can themselves go parallel.
    /// The parallelism budget is spent at exactly one level — the spin
    /// pool is not reentrant:
    ///
    /// * more threads than node groups → walk ranks serially (team order)
    ///   and give every rank the pooled executor, so wide-thread runs on
    ///   few ranks still use all workers;
    /// * otherwise → the node-aligned rank fan-out of `for_each` with a
    ///   serial executor inside each rank.
    ///
    /// Results are identical either way because every chunked kernel is
    /// bit-identical to its serial form at any thread count — the mode
    /// choice (and the thread count) affects only wall-clock.
    pub fn for_each_chunk<A: Send, B: Send>(
        &self,
        a: &mut [A],
        b: &mut [B],
        f: &(dyn Fn(usize, &mut A, &mut B, &ChunkExec<'_>) + Sync),
    ) {
        assert_eq!(a.len(), self.order.len());
        assert_eq!(b.len(), self.order.len());
        let threads = self.pool.threads();
        if threads <= 1 {
            for &r in &self.order {
                f(r, &mut a[r], &mut b[r], &ChunkExec::Serial);
            }
            return;
        }
        if threads > self.nodes() {
            let exec = ChunkExec::Pool(&self.pool);
            for &r in &self.order {
                f(r, &mut a[r], &mut b[r], &exec);
            }
            return;
        }
        let nnodes = self.nodes();
        let chunk = nnodes.div_ceil(threads);
        let pa = SendPtr(a.as_mut_ptr());
        let pb = SendPtr(b.as_mut_ptr());
        self.pool.run(&|tid| {
            let lo = tid * chunk;
            let hi = ((tid + 1) * chunk).min(nnodes);
            for n in lo..hi {
                for &r in &self.order[self.node_starts[n]..self.node_starts[n + 1]] {
                    // SAFETY: same disjointness argument as `for_each`.
                    let ea = unsafe { &mut *pa.slot(r) };
                    let eb = unsafe { &mut *pb.slot(r) };
                    f(r, ea, eb, &ChunkExec::Serial);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_core::topo_map::Placement;
    use tofumd_tofu::CellGrid;

    fn map() -> RankMap {
        RankMap::new(
            CellGrid::from_node_mesh([2, 3, 2]).unwrap(),
            Placement::TopoAware,
        )
    }

    #[test]
    fn partition_is_node_aligned_and_complete() {
        let m = map();
        let team = Team::new(3, &m);
        assert_eq!(team.nodes(), 12);
        assert_eq!(team.order.len(), m.nranks());
        // Every rank appears exactly once.
        let mut seen = vec![false; m.nranks()];
        for &r in &team.order {
            assert!(!seen[r]);
            seen[r] = true;
        }
        // Each node group holds exactly that node's ranks, ascending.
        for n in 0..team.nodes() {
            let g = &team.order[team.node_starts[n]..team.node_starts[n + 1]];
            assert_eq!(g.len(), 4);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.iter().all(|&r| m.node_of(r) == n));
        }
    }

    #[test]
    fn for_each_visits_every_rank_once_at_any_thread_count() {
        let m = map();
        for threads in [1, 2, 5, 8] {
            let team = Team::new(threads, &m);
            let mut hits = vec![0u32; m.nranks()];
            let mut ids = vec![0usize; m.nranks()];
            team.for_each(&mut hits, &mut ids, &|r, h, id| {
                *h += 1;
                *id = r;
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
            assert!(ids.iter().enumerate().all(|(i, &id)| i == id));
        }
    }

    fn pos(order: &[DagPhase], p: DagPhase) -> usize {
        order
            .iter()
            .position(|&q| q == p)
            .unwrap_or_else(|| panic!("{p:?} missing from {order:?}"))
    }

    #[test]
    fn dag_ids_are_topological_and_execution_is_id_order() {
        for rebuild in [false, true] {
            for eam in [false, true] {
                for overlap in [false, true] {
                    let dag = StepDag::build(rebuild, eam, true, overlap);
                    for (i, n) in dag.nodes.iter().enumerate() {
                        assert!(n.deps.iter().all(|&d| d < i), "dep edge forward at {i}");
                    }
                    let order = dag.execution_order();
                    let by_id: Vec<DagPhase> = dag.nodes.iter().map(|n| n.phase).collect();
                    assert_eq!(order, by_id);
                }
            }
        }
    }

    #[test]
    fn degenerate_dag_mirrors_barrier_plan() {
        let order = StepDag::build(true, false, true, false).execution_order();
        assert_eq!(
            order,
            vec![
                DagPhase::Rebalance,
                DagPhase::Exchange,
                DagPhase::SpatialSort,
                DagPhase::BorderOp,
                DagPhase::RebuildLists,
                DagPhase::PairCompute,
                DagPhase::Reverse,
                DagPhase::FinalIntegrate,
                DagPhase::Accounting,
            ]
        );
        let fwd = StepDag::build(false, true, false, false).execution_order();
        assert_eq!(
            fwd,
            vec![
                DagPhase::ForwardOp,
                DagPhase::PairCompute,
                DagPhase::FinalIntegrate,
                DagPhase::Accounting,
            ]
        );
        // In every shape the migration path exists only on rebuild steps
        // and Reverse only when Newton is on.
        for (eam, overlap) in [(false, false), (false, true), (true, false), (true, true)] {
            let order = StepDag::build(false, eam, false, overlap).execution_order();
            assert!(order.iter().all(|p| !matches!(
                p,
                DagPhase::Rebalance
                    | DagPhase::Exchange
                    | DagPhase::SpatialSort
                    | DagPhase::Reverse
            )));
        }
    }

    #[test]
    fn overlap_dag_interleaves_interior_compute_inside_halo_windows() {
        // LJ rebuild: interior build + pair logging run between the Border
        // post and its complete.
        let o = StepDag::build(true, false, true, true).execution_order();
        let (bp, bc) = (
            pos(&o, DagPhase::BorderPost),
            pos(&o, DagPhase::BorderComplete),
        );
        assert!(bp < pos(&o, DagPhase::InteriorBuild) || pos(&o, DagPhase::InteriorBuild) < bc);
        assert!(pos(&o, DagPhase::InteriorBuild) < bc && bp < bc);
        assert!(pos(&o, DagPhase::InteriorPair) < bc);
        assert!(pos(&o, DagPhase::BoundaryBuild) > bc);
        assert!(pos(&o, DagPhase::BoundaryPair) > pos(&o, DagPhase::BoundaryBuild));
        // LJ forward: interior pair logging inside the Forward window.
        let f = StepDag::build(false, false, true, true).execution_order();
        let (fp, fc) = (
            pos(&f, DagPhase::ForwardPost),
            pos(&f, DagPhase::ForwardComplete),
        );
        assert!(fp < pos(&f, DagPhase::InteriorPair) && pos(&f, DagPhase::InteriorPair) < fc);
        // EAM forward: interior force rows inside the F' window.
        let e = StepDag::build(false, true, true, true).execution_order();
        let (sp, sc) = (
            pos(&e, DagPhase::FwdScalarPost),
            pos(&e, DagPhase::FwdScalarComplete),
        );
        assert!(sp < pos(&e, DagPhase::InteriorForce) && pos(&e, DagPhase::InteriorForce) < sc);
        assert!(pos(&e, DagPhase::InteriorRho) < pos(&e, DagPhase::ForwardComplete));
        assert!(pos(&e, DagPhase::RhoReduce) > pos(&e, DagPhase::BoundaryRho));
        // Tail order is fixed in every shape.
        for order in [&o, &f, &e] {
            let rev = pos(order, DagPhase::Reverse);
            assert!(rev < pos(order, DagPhase::FinalIntegrate));
            assert_eq!(*order.last().unwrap(), DagPhase::Accounting);
        }
    }
}
