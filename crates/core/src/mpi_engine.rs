//! Ghost engines over the MPI transport: the LAMMPS baseline 3-stage
//! pattern ("ref") and the naive MPI p2p pattern that §3.2 shows is
//! *slower* than the baseline because of MPI's per-message software cost.

use crate::engine::{GhostEngine, GhostLayout, Op, OpStats, RankState};
use crate::p2p::P2pGhosts;
use crate::plan::NeighborLink;
use crate::sf::SendSelector;
use crate::three_stage::{staged_links, StagedGhosts};
use crate::topo_map::RankMap;
use crate::wire;
use std::sync::Arc;
use tofumd_md::region::Box3;
use tofumd_mpi::Communicator;
use tofumd_tofu::TofuError;

fn op_base(op: Op) -> u32 {
    match op {
        Op::Border => 1,
        Op::Forward => 2,
        Op::Reverse => 3,
        Op::ForwardScalar => 4,
        Op::ReverseScalar => 5,
        Op::Exchange => 6,
    }
}

/// Tag for a staged (3-stage) message: op, sweep dimension, direction sent.
fn staged_tag(op: Op, dim: usize, dir: usize) -> u32 {
    op_base(op) * 64 + (dim as u32) * 2 + dir as u32
}

/// Tag for a p2p message: op and the *receiver's* edge index (a sender
/// tags with its edge's `peer_index`; on grid graphs the two coincide).
fn p2p_tag(op: Op, link: usize) -> u32 {
    op_base(op) * 1024 + link as u32
}

/// Pack layout slot `slot` of a ghost op into its own payload: the MPI
/// engines stage every message through a `Vec`.
fn pack(layout: &GhostLayout, op: Op, st: &RankState, slot: usize, shift: [f64; 3]) -> Vec<f64> {
    let mut out = Vec::with_capacity(layout.f64s(op, slot));
    layout.pack_into(op, st, slot, shift, &mut out);
    out
}

/// `(rank, tag)` of the two messages of a staged sweep along `dim` with
/// the face neighbors `ranks = [-dim, +dim]`. A message is tagged with the
/// direction it was sent in, so the receive from `ranks[dir]` expects
/// direction `1 - dir`.
fn sweep_peers(op: Op, dim: usize, ranks: [usize; 2], recv: bool) -> [(usize, u32); 2] {
    [0, 1].map(|dir| {
        (
            ranks[dir],
            staged_tag(op, dim, if recv { 1 - dir } else { dir }),
        )
    })
}

/// The MPI side both engines share: this rank's communicator handle and
/// its per-op counters. Every message leaves through [`MpiPort::send`]
/// and arrives through [`MpiPort::recv`]; the engines differ only in the
/// `(rank, tag)` lists they feed them.
struct MpiPort {
    comm: Arc<Communicator>,
    me: usize,
    stats: OpStats,
}

impl MpiPort {
    fn new(comm: Arc<Communicator>, me: usize) -> Self {
        MpiPort {
            comm,
            me,
            stats: OpStats::default(),
        }
    }

    /// Send `payloads[i]` to `dests[i] = (rank, tag)`, in order: one pack
    /// charge on the total bytes, then each message's software cost in
    /// turn. MPI stages every message through a copy.
    fn send(
        &mut self,
        st: &mut RankState,
        op: Op,
        round: usize,
        dests: &[(usize, u32)],
        payloads: &[Vec<f64>],
    ) {
        let p = *self.comm.net().params();
        let bytes: usize = payloads.iter().map(|v| v.len() * 8).sum();
        let mut now = st.clock + p.pack_cost(bytes);
        for (&(rank, tag), payload) in dests.iter().zip(payloads) {
            self.stats.count(op, round, payload.len() * 8);
            self.stats.copied(op, round, payload.len() * 8);
            self.comm
                .send(self.me, rank, tag, &wire::encode_f64s(payload), &mut now);
        }
        st.charge(now - st.clock, op);
    }

    /// Receive one payload from each `srcs[i] = (rank, tag)`, in order. A
    /// shortfall (dead peer / protocol bug) surfaces as the typed error;
    /// the clock is still charged for the messages that did arrive.
    fn recv(
        &self,
        st: &mut RankState,
        op: Op,
        srcs: &[(usize, u32)],
    ) -> Result<Vec<Vec<f64>>, TofuError> {
        let mut out = Vec::with_capacity(srcs.len());
        let mut now = st.clock;
        for &(rank, tag) in srcs {
            let m = match self.comm.try_recv(self.me, rank, tag, now) {
                Ok(m) => m,
                Err(e) => {
                    st.charge(now - st.clock, op);
                    return Err(e);
                }
            };
            now = m.now;
            st.arrival_horizon = st.arrival_horizon.max(m.arrival);
            out.push(wire::decode_f64s(&m.data));
        }
        st.charge(now - st.clock, op);
        Ok(out)
    }

    /// Post round `dim` of the grid migration: one face sweep per
    /// dimension, shared by both engines.
    fn post_migrate_sweep(&mut self, st: &mut RankState, dim: usize, ranks: [usize; 2]) {
        let payloads = st.pack_exchange(dim);
        let dests = sweep_peers(Op::Exchange, dim, ranks, false);
        self.send(st, Op::Exchange, dim, &dests, &payloads);
    }

    /// Complete round `dim` of the grid migration: adopt both faces'
    /// migrants, `-dim` side first.
    fn complete_migrate_sweep(
        &self,
        st: &mut RankState,
        dim: usize,
        ranks: [usize; 2],
    ) -> Result<(), TofuError> {
        for p in self.recv(
            st,
            Op::Exchange,
            &sweep_peers(Op::Exchange, dim, ranks, true),
        )? {
            st.unpack_exchange(&p);
        }
        Ok(())
    }
}

/// The LAMMPS default: 6-message staged exchange over MPI.
pub struct MpiThreeStage {
    port: MpiPort,
    links: [[NeighborLink; 2]; 3],
    ghosts: StagedGhosts,
}

impl MpiThreeStage {
    /// Build the engine for one rank. `shells` is the plan's shell count:
    /// each dimension performs that many successive swaps (Fig. 15's
    /// long-cutoff regime needs more than one).
    #[must_use]
    pub fn new(
        comm: Arc<Communicator>,
        map: &RankMap,
        rank: usize,
        global: &Box3,
        shells: usize,
    ) -> Self {
        MpiThreeStage {
            port: MpiPort::new(comm, rank),
            links: staged_links(map, rank, global),
            ghosts: StagedGhosts::new(shells),
        }
    }

    /// The face neighbors of sweep `dim`, `[-dim, +dim]`.
    fn face_ranks(&self, dim: usize) -> [usize; 2] {
        [0, 1].map(|dir| self.links[dim][dir].rank)
    }
}

impl GhostEngine for MpiThreeStage {
    fn name(&self) -> &'static str {
        "mpi-3stage"
    }

    fn rounds(&self, op: Op) -> usize {
        // Every ghost op sweeps the three dimensions `shells` times.
        // Whether Reverse runs at all (Newton on/off) is the driver's
        // decision, not the engine's. Migration stays one swap per
        // dimension (atoms move less than a sub-box between rebuilds).
        if op == Op::Exchange {
            3
        } else {
            3 * self.ghosts.swaps()
        }
    }

    fn barrier_between_rounds(&self) -> bool {
        true
    }

    fn op_stats(&self) -> OpStats {
        self.port.stats.clone()
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if op == Op::Exchange {
            self.port
                .post_migrate_sweep(st, round, self.face_ranks(round));
            return Ok(());
        }
        if op == Op::Border && round == 0 {
            self.ghosts.reset(st);
        }
        let (dim, swap) = self.ghosts.sweep(op, round);
        let payloads = if op == Op::Border {
            self.ghosts.pack_border(st, &self.links, dim, swap)
        } else {
            let g = &self.ghosts;
            [0, 1].map(|dir| {
                let slot = g.slot(dim, swap, dir);
                pack(&g.layout, op, st, slot, self.links[dim][dir].shift)
            })
        };
        let dests = sweep_peers(op, dim, self.face_ranks(dim), false);
        self.port.send(st, op, round, &dests, &payloads);
        Ok(())
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if op == Op::Exchange {
            return self
                .port
                .complete_migrate_sweep(st, round, self.face_ranks(round));
        }
        let (dim, swap) = self.ghosts.sweep(op, round);
        let srcs = sweep_peers(op, dim, self.face_ranks(dim), true);
        let payloads = self.port.recv(st, op, &srcs)?;
        if op == Op::Border {
            self.ghosts.unpack_border(st, dim, swap, &payloads);
            // EAM scalar buffers must track the growing ghost tail.
            st.scalar.resize(st.atoms.ntotal(), 0.0);
        } else {
            for (dir, values) in payloads.iter().enumerate() {
                let slot = self.ghosts.slot(dim, swap, dir);
                self.ghosts.layout.unpack(op, st, slot, values);
            }
        }
        Ok(())
    }
}

/// Naive peer-to-peer over MPI: direct exchange with every graph neighbor.
/// The only engine that also speaks *irregular* graphs (RCB): ghost ops
/// walk the edge lists either way, and migration switches from the three
/// staged face sweeps to one owner-directed round.
pub struct MpiP2p {
    port: MpiPort,
    sel: Option<SendSelector>,
    ghosts: P2pGhosts,
    migrate_rounds: usize,
}

impl MpiP2p {
    /// Build the engine for one rank of a grid graph (the selector is
    /// created lazily from the graph carried by the first `RankState`).
    #[must_use]
    pub fn new(comm: Arc<Communicator>, rank: usize) -> Self {
        MpiP2p {
            port: MpiPort::new(comm, rank),
            sel: None,
            ghosts: P2pGhosts::default(),
            migrate_rounds: 3,
        }
    }

    /// Build the engine for one rank of an irregular graph (single-round
    /// owner-directed migration).
    #[must_use]
    pub fn new_irregular(comm: Arc<Communicator>, rank: usize) -> Self {
        MpiP2p {
            migrate_rounds: 1,
            ..Self::new(comm, rank)
        }
    }

    fn sel<'a>(sel: &'a mut Option<SendSelector>, st: &RankState) -> &'a SendSelector {
        sel.get_or_insert_with(|| st.graph.selector())
    }

    /// The grid graph's face neighbors of sweep `dim`, `[-dim, +dim]`.
    fn face_ranks(st: &RankState, dim: usize) -> [usize; 2] {
        [0, 1].map(|dir| st.graph.face_link(dim, dir).rank)
    }
}

impl GhostEngine for MpiP2p {
    fn name(&self) -> &'static str {
        "mpi-p2p"
    }

    fn rounds(&self, op: Op) -> usize {
        // Grid graphs migrate by sweeping the three dimensions even under
        // p2p ghosts; irregular graphs migrate owner-directed in one round.
        if op == Op::Exchange {
            self.migrate_rounds
        } else {
            1
        }
    }

    fn op_stats(&self) -> OpStats {
        self.port.stats.clone()
    }

    fn rebind_graph(&mut self, _st: &RankState) {
        // The send selector is derived from the graph's send regions;
        // rebuild it lazily against the swapped graph. Ghost send lists
        // and segment tables are refreshed by the next Border, which the
        // rebalance always schedules.
        self.sel = None;
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if op == Op::Exchange && st.graph.is_grid() {
            self.port
                .post_migrate_sweep(st, round, Self::face_ranks(st, round));
            return Ok(());
        }
        let (dests, payloads): (Vec<_>, _) = if op == Op::Exchange {
            // Irregular single round: every out-of-box atom goes straight
            // to its new owner, tagged with my slot in the owner's
            // migrate list.
            let payloads = st.pack_exchange_graph();
            let dests = (st.graph.migrate_peers().iter())
                .map(|peer| (peer.rank, p2p_tag(op, peer.tag_index)))
                .collect();
            (dests, payloads)
        } else {
            // Ghost ops: one payload per edge `op` leaves along, tagged
            // with the receiver's edge index.
            let payloads = if op == Op::Border {
                let sel = Self::sel(&mut self.sel, st);
                self.ghosts.pack_border(st, sel)
            } else {
                let layout = &self.ghosts.layout;
                (st.graph.out_edges(op).iter().enumerate())
                    .map(|(k, edge)| pack(layout, op, st, k, edge.shift))
                    .collect()
            };
            let dests = (st.graph.out_edges(op).iter())
                .map(|edge| (edge.rank, p2p_tag(op, edge.peer_index)))
                .collect();
            (dests, payloads)
        };
        self.port.send(st, op, round, &dests, &payloads);
        Ok(())
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if op == Op::Exchange && st.graph.is_grid() {
            return self
                .port
                .complete_migrate_sweep(st, round, Self::face_ranks(st, round));
        }
        // One payload per edge `op` arrives along (or per migrate peer),
        // tagged with my index in that list.
        let srcs: Vec<(usize, u32)> = if op == Op::Exchange {
            let peers = st.graph.migrate_peers().iter();
            peers
                .enumerate()
                .map(|(k, peer)| (peer.rank, p2p_tag(op, k)))
                .collect()
        } else {
            let edges = st.graph.in_edges(op).iter();
            edges
                .enumerate()
                .map(|(k, edge)| (edge.rank, p2p_tag(op, k)))
                .collect()
        };
        let payloads = self.port.recv(st, op, &srcs)?;
        match op {
            Op::Exchange => {
                for p in &payloads {
                    st.unpack_exchange(p);
                }
            }
            Op::Border => {
                self.ghosts.unpack_border(st, &payloads);
                st.scalar.resize(st.atoms.ntotal(), 0.0);
            }
            _ => {
                for (k, values) in payloads.iter().enumerate() {
                    self.ghosts.layout.unpack(op, st, k, values);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_op_single;
    use crate::plan::{CommPlan, PlanConfig};
    use crate::sf::CommGraph;
    use crate::topo_map::Placement;
    use std::sync::Arc;
    use tofumd_md::atom::Atoms;
    use tofumd_tofu::{CellGrid, NetParams, TofuNet};

    /// A 2-rank fixture where rank 0 and rank 1 are x-face neighbors; the
    /// lockstep driver is emulated by posting both ranks then completing
    /// both.
    struct TwoRanks {
        comm: Arc<Communicator>,
        map: RankMap,
        global: Box3,
        states: [RankState; 2],
    }

    fn two_ranks(positions: [Vec<[f64; 3]>; 2]) -> TwoRanks {
        let grid = CellGrid::new([1, 1, 1]); // 12 nodes, 48 ranks
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid; // [2, 6, 4]
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        let comm = Arc::new(Communicator::new(net, map.nranks(), 4));
        let mk = |rank: usize, pos: Vec<[f64; 3]>, map: &RankMap| {
            let plan = CommPlan::build(rank, map, &global, 2.8, PlanConfig::NEWTON);
            // Shift positions into this rank's sub-box.
            let sub = plan.sub;
            let pos = pos
                .into_iter()
                .map(|p| [sub.lo[0] + p[0], sub.lo[1] + p[1], sub.lo[2] + p[2]])
                .collect();
            RankState::new(
                Atoms::from_positions(pos, rank as u64 * 1000 + 1),
                CommGraph::from_grid(plan),
            )
        };
        let states = [
            mk(0, positions[0].clone(), &map),
            mk(1, positions[1].clone(), &map),
        ];
        TwoRanks {
            comm,
            map,
            global,
            states,
        }
    }

    /// All 48 ranks exist in the map but only ranks 0 and 1 hold atoms;
    /// the remaining ranks must still participate in the exchange for the
    /// lockstep to complete, so the fixture drives every rank.
    fn drive_all(engines: &mut [Box<dyn GhostEngine>], states: &mut [RankState], op: Op) {
        let rounds = engines[0].rounds(op);
        for round in 0..rounds {
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.post(op, round, st).unwrap();
            }
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.complete(op, round, st).unwrap();
            }
        }
    }

    fn full_fixture<F>(mk_engine: F) -> (Vec<Box<dyn GhostEngine>>, Vec<RankState>, Box3)
    where
        F: Fn(Arc<Communicator>, &RankMap, usize, &Box3) -> Box<dyn GhostEngine>,
    {
        let t = two_ranks([vec![[9.5, 5.0, 5.0]], vec![[0.5, 5.0, 5.0]]]);
        let nranks = t.map.nranks();
        let mut engines = Vec::new();
        let mut states = Vec::new();
        for r in 0..nranks {
            engines.push(mk_engine(t.comm.clone(), &t.map, r, &t.global));
            let plan = CommPlan::build(r, &t.map, &t.global, 2.8, PlanConfig::NEWTON);
            states.push(RankState::new(Atoms::default(), CommGraph::from_grid(plan)));
        }
        let [s0, s1] = t.states;
        states[0] = s0;
        states[1] = s1;
        (engines, states, t.global)
    }

    #[test]
    fn mpi_3stage_establishes_cross_rank_ghosts() {
        let (mut engines, mut states, _g) = full_fixture(|c, m, r, g| {
            Box::new(MpiThreeStage::new(c, m, r, g, 1)) as Box<dyn GhostEngine>
        });
        drive_all(&mut engines, &mut states, Op::Border);
        // Rank 0's atom at x = hi - 0.5 must appear as a ghost on rank 1
        // (its -x neighbor side), and vice versa.
        assert!(
            states[1].atoms.nghost() >= 1,
            "rank 1 got {} ghosts",
            states[1].atoms.nghost()
        );
        assert!(states[0].atoms.nghost() >= 1);
        // Tags preserved across the wire.
        let tags1: Vec<u64> = states[1].atoms.tag[states[1].atoms.nlocal..].to_vec();
        assert!(
            tags1.contains(&1),
            "rank 0's atom (tag 1) as ghost: {tags1:?}"
        );
    }

    #[test]
    fn mpi_3stage_forward_updates_ghost_positions() {
        let (mut engines, mut states, _g) = full_fixture(|c, m, r, g| {
            Box::new(MpiThreeStage::new(c, m, r, g, 1)) as Box<dyn GhostEngine>
        });
        drive_all(&mut engines, &mut states, Op::Border);
        let before = states[1].atoms.x[states[1].atoms.nlocal];
        // Move rank 0's atom and forward.
        states[0].atoms.x[0][1] += 0.25;
        drive_all(&mut engines, &mut states, Op::Forward);
        let after = states[1].atoms.x[states[1].atoms.nlocal];
        assert!((after[1] - before[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mpi_p2p_reverse_returns_ghost_forces() {
        // Fig. 5 semantics: rank 1 sends its -x-face atom to its *lower*
        // neighbors (rank 0 among them); rank 0 holds the ghost, computes,
        // and the reverse stage carries the force back to rank 1.
        let (mut engines, mut states, _g) =
            full_fixture(|c, _m, r, _g| Box::new(MpiP2p::new(c, r)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        assert!(
            states[0].atoms.nghost() >= 1,
            "rank 0 must hold rank 1's border atom as a ghost"
        );
        let n0 = states[0].atoms.nlocal;
        for gi in n0..states[0].atoms.ntotal() {
            states[0].atoms.f[gi] = [1.0, 2.0, 3.0];
        }
        states[1].atoms.zero_forces();
        drive_all(&mut engines, &mut states, Op::Reverse);
        assert!(states[1].atoms.f[0][0] >= 1.0 - 1e-12);
        assert!((states[1].atoms.f[0][1] / states[1].atoms.f[0][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tags_disambiguate_ops_and_links() {
        // Distinct (op, link) pairs must map to distinct MPI tags.
        let mut seen = std::collections::HashSet::new();
        for op in [
            Op::Border,
            Op::Forward,
            Op::Reverse,
            Op::ForwardScalar,
            Op::ReverseScalar,
        ] {
            for link in 0..124 {
                assert!(seen.insert(p2p_tag(op, link)), "collision at {op:?} {link}");
            }
            for dim in 0..3 {
                for dir in 0..2 {
                    assert!(
                        seen.insert(staged_tag(op, dim, dir) + 1_000_000),
                        "staged collision"
                    );
                }
            }
        }
    }

    #[test]
    fn engines_charge_time_to_the_right_buckets() {
        let (mut engines, mut states, _g) =
            full_fixture(|c, _m, r, _g| Box::new(MpiP2p::new(c, r)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        assert!(states[0].comm_time > 0.0);
        let comm_before = states[0].comm_time;
        for st in states.iter_mut() {
            let n = st.atoms.ntotal();
            st.scalar.resize(n, 1.0);
        }
        drive_all(&mut engines, &mut states, Op::ForwardScalar);
        assert!(
            states[0].pair_comm_time > 0.0,
            "scalar ops book into the pair bucket"
        );
        assert_eq!(
            states[0].comm_time, comm_before,
            "scalar ops must not book into Comm"
        );
    }

    #[test]
    fn run_op_single_is_a_noop_safe_helper() {
        // A rank alone in a 1-cell machine exchanging with itself is not a
        // supported configuration; run_op_single simply drives rounds.
        // Verify it compiles/links and the rounds accessor is sane.
        let t = two_ranks([vec![[5.0, 5.0, 5.0]], vec![[5.0, 5.0, 5.0]]]);
        let e = MpiThreeStage::new(t.comm.clone(), &t.map, 0, &t.global, 1);
        assert_eq!(e.rounds(Op::Border), 3);
        assert!(e.barrier_between_rounds());
        let e2 = MpiP2p::new(t.comm, 0);
        assert_eq!(e2.rounds(Op::Forward), 1);
        assert!(!e2.barrier_between_rounds());
        let _ = run_op_single; // referenced
    }
}
