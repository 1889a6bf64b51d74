//! The ghost-communication engine abstraction.
//!
//! A [`GhostEngine`] realizes one of the paper's communication designs
//! (MPI 3-stage, MPI p2p, uTofu 3-stage, uTofu p2p over 4 or 6 TNIs,
//! thread-pool parallel p2p). Engines are driven in lockstep by
//! `tofumd-runtime`: every rank first `post`s its sends for a round, then
//! every rank `complete`s its receives — mirroring a bulk-synchronous MD
//! timestep while letting virtual time flow through the simulated fabric.

use crate::sf::CommGraph;
use tofumd_md::atom::Atoms;
use tofumd_tofu::TofuError;

/// A ghost-communication operation within a timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Establish ghost atoms (tags + positions); runs after exchange on
    /// reneighbor steps.
    Border,
    /// Refresh ghost positions (every step).
    Forward,
    /// Fold ghost forces back to their owners (Newton on).
    Reverse,
    /// EAM mid-pair-stage: send local scalars (F') to ghosts.
    ForwardScalar,
    /// EAM mid-pair-stage: fold ghost scalars (rho) back to owners.
    ReverseScalar,
    /// Atom migration on reneighbor steps: three staged sweeps moving
    /// out-of-bounds atoms (with velocities) to the face neighbors, exactly
    /// as LAMMPS's exchange works for every communication pattern.
    Exchange,
}

/// Number of distinct [`Op`] kinds.
pub const N_OPS: usize = 6;

impl Op {
    /// Every op kind in display order: migration first, then the
    /// ghost-side ops, the owner-side fold, and EAM's scalar pair.
    pub const ALL: [Op; N_OPS] = [
        Op::Exchange,
        Op::Border,
        Op::Forward,
        Op::Reverse,
        Op::ForwardScalar,
        Op::ReverseScalar,
    ];

    /// Dense index of this op into [`Op::ALL`]-ordered tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Op::Exchange => 0,
            Op::Border => 1,
            Op::Forward => 2,
            Op::Reverse => 3,
            Op::ForwardScalar => 4,
            Op::ReverseScalar => 5,
        }
    }

    /// Short lower-case label for report rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Op::Exchange => "exchange",
            Op::Border => "border",
            Op::Forward => "forward",
            Op::Reverse => "reverse",
            Op::ForwardScalar => "fwd-scalar",
            Op::ReverseScalar => "rev-scalar",
        }
    }

    /// Whether `self` is a reduce: data flows ghost → owner, back along
    /// the `recv` edges into the owner-side buffers, and accumulates into
    /// the send lists. Every other op flows owner → ghost.
    #[must_use]
    pub fn is_reverse(self) -> bool {
        matches!(self, Op::Reverse | Op::ReverseScalar)
    }
}

/// Send lists and ghost segments of one rank, indexed by a flat slot: the
/// star forest's bcast and reduce as one table. A forward op (bcast)
/// packs a send list and overwrites the mirrored ghost segment on the far
/// side; a reverse op (reduce) packs a ghost segment and accumulates into
/// the mirrored send list. Border fills the table; Forward, Reverse and
/// the EAM scalar ops only read it. The p2p layout uses one slot per
/// graph edge, the staged layout one per `(dim, swap, dir)`.
#[derive(Debug, Clone, Default)]
pub struct GhostLayout {
    /// Per slot: indices of the atoms (locals, or relayed ghosts in the
    /// staged pattern) sent along it.
    pub send_lists: Vec<Vec<u32>>,
    /// Per slot: (first ghost index, count) received along it.
    pub ghost_seg: Vec<(usize, usize)>,
}

impl GhostLayout {
    /// Payload size in f64s of one atom under `op`.
    fn width(op: Op) -> usize {
        match op {
            Op::Forward | Op::Reverse => 3,
            Op::ForwardScalar | Op::ReverseScalar => 1,
            Op::Border | Op::Exchange => unreachable!("{op:?} is not a ghost op"),
        }
    }

    /// Atoms on one side of `slot`: its ghost segment or its send list.
    fn atoms(&self, ghost_side: bool, slot: usize) -> usize {
        if ghost_side {
            self.ghost_seg[slot].1
        } else {
            self.send_lists[slot].len()
        }
    }

    /// Atom-array range of `slot`'s ghost segment.
    fn ghosts(&self, slot: usize) -> std::ops::Range<usize> {
        let (start, count) = self.ghost_seg[slot];
        start..start + count
    }

    /// Payload size (f64s) this rank sends on `slot` under `op`.
    #[must_use]
    pub fn f64s(&self, op: Op, slot: usize) -> usize {
        self.atoms(op.is_reverse(), slot) * Self::width(op)
    }

    /// Stream `slot`'s payload for `op` into any [`crate::wire::F64Sink`]:
    /// a staging `Vec`, or a `CombinedWriter` over a registered region on
    /// the zero-copy path. `shift` is the periodic image shift applied to
    /// forwarded positions; the other ops ignore it.
    pub fn pack_into(
        &self,
        op: Op,
        st: &RankState,
        slot: usize,
        shift: [f64; 3],
        out: &mut impl crate::wire::F64Sink,
    ) {
        match op {
            Op::Forward => {
                for &i in &self.send_lists[slot] {
                    let x = st.atoms.x[i as usize];
                    out.put_f64(x[0] + shift[0]);
                    out.put_f64(x[1] + shift[1]);
                    out.put_f64(x[2] + shift[2]);
                }
            }
            Op::ForwardScalar => {
                for &i in &self.send_lists[slot] {
                    out.put_f64(st.scalar[i as usize]);
                }
            }
            Op::Reverse => {
                for f in &st.atoms.f[self.ghosts(slot)] {
                    out.put_f64s(f);
                }
            }
            Op::ReverseScalar => out.put_f64s(&st.scalar[self.ghosts(slot)]),
            Op::Border | Op::Exchange => unreachable!("{op:?} is not a ghost op"),
        }
    }

    /// Apply `values` received on `slot` under `op`: forward ops copy
    /// them into the ghost segment, reverse ops accumulate them into the
    /// send list (whose entries may be relayed ghosts, whose sums continue
    /// homeward in an earlier staged round).
    pub fn unpack(&self, op: Op, st: &mut RankState, slot: usize, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.atoms(!op.is_reverse(), slot) * Self::width(op),
            "{} payload size mismatch",
            op.label()
        );
        match op {
            Op::Forward => {
                for (x, xyz) in st.atoms.x[self.ghosts(slot)]
                    .iter_mut()
                    .zip(values.chunks_exact(3))
                {
                    *x = [xyz[0], xyz[1], xyz[2]];
                }
            }
            Op::ForwardScalar => st.scalar[self.ghosts(slot)].copy_from_slice(values),
            Op::Reverse => {
                for (&i, fxyz) in self.send_lists[slot].iter().zip(values.chunks_exact(3)) {
                    let f = &mut st.atoms.f[i as usize];
                    f[0] += fxyz[0];
                    f[1] += fxyz[1];
                    f[2] += fxyz[2];
                }
            }
            Op::ReverseScalar => {
                for (&i, v) in self.send_lists[slot].iter().zip(values) {
                    st.scalar[i as usize] += v;
                }
            }
            Op::Border | Op::Exchange => unreachable!("{op:?} is not a ghost op"),
        }
    }
}

/// Live communication counters (the in-vivo counterpart of Table 1's
/// `total_msg` and `total_atom` columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages posted (payload puts; piggyback-only descriptors excluded).
    pub messages: u64,
    /// Payload bytes posted (framing included where the transport frames).
    pub bytes: u64,
    /// Largest single message observed (bytes).
    pub max_msg_bytes: u64,
    /// Dynamic buffer-growth events (§3.4 re-registration handshakes).
    pub growth_events: u64,
    /// Put retransmissions after a transport error (each also charged
    /// backoff on the virtual clock).
    pub retries: u64,
    /// Messages handed to the reliable stack after the retry budget was
    /// exhausted (each one requests engine fallback).
    pub fallback_sends: u64,
    /// Duplicate deliveries detected and discarded on receive.
    pub dup_drops: u64,
    /// Receive-buffer overwrites detected (a newer sequence landed on an
    /// unconsumed round-robin slot).
    pub overwrites: u64,
    /// Send-side staging bytes: payload bytes that passed through an
    /// intermediate CPU copy before reaching the transport. The zero-copy
    /// wire path serializes straight into a registered region and counts
    /// nothing here — the acceptance signal that the copy is really gone.
    pub bytes_copied: u64,
}

impl CommStats {
    /// Count one message of `bytes` bytes.
    pub fn count(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.max_msg_bytes = self.max_msg_bytes.max(bytes as u64);
    }

    /// Count `bytes` staged through an intermediate send-side copy.
    pub fn copied(&mut self, bytes: usize) {
        self.bytes_copied += bytes as u64;
    }

    /// Transport-anomaly total: everything that is not plain traffic.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.fallback_sends + self.dup_drops + self.overwrites
    }

    /// Fold another counter set into this one (messages and bytes add,
    /// the max-message watermark takes the larger side).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.max_msg_bytes = self.max_msg_bytes.max(other.max_msg_bytes);
        self.growth_events += other.growth_events;
        self.retries += other.retries;
        self.fallback_sends += other.fallback_sends;
        self.dup_drops += other.dup_drops;
        self.overwrites += other.overwrites;
        self.bytes_copied += other.bytes_copied;
    }

    /// Counter-wise difference against an earlier reading of the same
    /// monotone counters (`max_msg_bytes` is a watermark and carries over).
    #[must_use]
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            max_msg_bytes: self.max_msg_bytes,
            growth_events: self.growth_events - earlier.growth_events,
            retries: self.retries - earlier.retries,
            fallback_sends: self.fallback_sends - earlier.fallback_sends,
            dup_drops: self.dup_drops - earlier.dup_drops,
            overwrites: self.overwrites - earlier.overwrites,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// [`CommStats`] resolved along the two axes the lockstep driver iterates:
/// operation kind and round within the operation. Engines accumulate into
/// this; the runtime aggregates it across ranks for telemetry reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStats {
    /// `rounds[op.index()][round]`, grown on first use per round.
    rounds: [Vec<CommStats>; N_OPS],
}

impl OpStats {
    fn slot(&mut self, op: Op, round: usize) -> &mut CommStats {
        let v = &mut self.rounds[op.index()];
        if v.len() <= round {
            v.resize(round + 1, CommStats::default());
        }
        &mut v[round]
    }

    /// Count one message of `bytes` bytes under `(op, round)`.
    pub fn count(&mut self, op: Op, round: usize, bytes: usize) {
        self.slot(op, round).count(bytes);
    }

    /// Count `bytes` staged through a send-side copy under `(op, round)`.
    pub fn copied(&mut self, op: Op, round: usize, bytes: usize) {
        self.slot(op, round).copied(bytes);
    }

    /// Record one dynamic buffer-growth event under `(op, round)`.
    pub fn growth(&mut self, op: Op, round: usize) {
        self.slot(op, round).growth_events += 1;
    }

    /// Record one put retransmission under `(op, round)`.
    pub fn retry(&mut self, op: Op, round: usize) {
        self.slot(op, round).retries += 1;
    }

    /// Record one budget-exhausted reliable-stack send under `(op, round)`.
    pub fn fallback(&mut self, op: Op, round: usize) {
        self.slot(op, round).fallback_sends += 1;
    }

    /// Record `n` discarded duplicate deliveries under `(op, round)`.
    pub fn add_dup_drops(&mut self, op: Op, round: usize, n: u64) {
        self.slot(op, round).dup_drops += n;
    }

    /// Record `n` detected receive-buffer overwrites under `(op, round)`.
    pub fn add_overwrites(&mut self, op: Op, round: usize, n: u64) {
        self.slot(op, round).overwrites += n;
    }

    /// Per-round counters recorded for `op` (may be empty).
    #[must_use]
    pub fn rounds_of(&self, op: Op) -> &[CommStats] {
        &self.rounds[op.index()]
    }

    /// All rounds of `op` folded together.
    #[must_use]
    pub fn op_total(&self, op: Op) -> CommStats {
        let mut total = CommStats::default();
        for s in &self.rounds[op.index()] {
            total.merge(s);
        }
        total
    }

    /// Everything folded together (the legacy flat [`CommStats`] view).
    #[must_use]
    pub fn total(&self) -> CommStats {
        let mut total = CommStats::default();
        for op in Op::ALL {
            total.merge(&self.op_total(op));
        }
        total
    }

    /// Fold another rank's counters into this one, round by round.
    pub fn merge(&mut self, other: &OpStats) {
        for op in Op::ALL {
            for (round, s) in other.rounds_of(op).iter().enumerate() {
                self.slot(op, round).merge(s);
            }
        }
    }

    /// Per-(op, round) difference against an earlier reading.
    #[must_use]
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        let mut out = OpStats::default();
        for op in Op::ALL {
            let before = earlier.rounds_of(op);
            for (round, s) in self.rounds_of(op).iter().enumerate() {
                let b = before.get(round).copied().unwrap_or_default();
                *out.slot(op, round) = s.since(&b);
            }
        }
        out
    }
}

/// The coordinate `pack_exchange_graph` routes migrants by: the periodic
/// wrap of `x` into the global box, nudged one ulp off the upper face when
/// the wrap rounds onto it (the half-open boxes exclude their `hi` face —
/// see `pack_exchange` for the rounding hazard). The mid-run rebalance
/// uses the same function to predict destinations, so its migrate peer
/// lists agree bit-for-bit with what the exchange actually routes.
#[must_use]
pub fn wrap_for_exchange(global: &tofumd_md::region::Box3, x: [f64; 3]) -> [f64; 3] {
    let (mut w, _) = global.wrap(x);
    for d in 0..3 {
        if w[d] >= global.hi[d] {
            w[d] = global.hi[d].next_down();
        }
    }
    w
}

/// Per-rank simulation-side state an engine operates on.
#[derive(Debug)]
pub struct RankState {
    /// The rank's atoms (locals + ghosts).
    pub atoms: Atoms,
    /// The rank's star-forest communication graph.
    pub graph: CommGraph,
    /// Virtual clock (seconds of simulated Fugaku time).
    pub clock: f64,
    /// Time attributed to the Comm stage this step (Table 3 breakdown).
    pub comm_time: f64,
    /// Time attributed to mid-pair-stage communication (EAM; counted into
    /// the Pair stage per the paper's accounting).
    pub pair_comm_time: f64,
    /// Scalar work buffer for EAM (rho or fp), len == atoms.ntotal().
    pub scalar: Vec<f64>,
    /// Latest raw payload-arrival instant folded in by the engine's
    /// complete path (`NEG_INFINITY` when nothing arrived since the last
    /// reset). The DAG executor reads this to credit overlap: wait charged
    /// against an arrival that lands before interior compute finishes was
    /// hidden, not paid.
    pub arrival_horizon: f64,
}

impl RankState {
    /// Fresh state with a zero clock.
    #[must_use]
    pub fn new(atoms: Atoms, graph: CommGraph) -> Self {
        RankState {
            atoms,
            graph,
            clock: 0.0,
            comm_time: 0.0,
            pair_comm_time: 0.0,
            scalar: Vec::new(),
            arrival_horizon: f64::NEG_INFINITY,
        }
    }

    /// Charge `dt` of virtual time to the clock and the chosen stage
    /// bucket.
    pub fn charge(&mut self, dt: f64, op: Op) {
        self.clock += dt;
        match op {
            Op::ForwardScalar | Op::ReverseScalar => self.pair_comm_time += dt,
            _ => self.comm_time += dt,
        }
    }

    /// Exchange-stage packing for sweep `dim`: remove local atoms whose
    /// coordinate lies outside the sub-box in that dimension and encode
    /// them (tag, type, shifted position, velocity) toward each face.
    /// Ghosts must have been cleared. Returns `[toward -dim, toward +dim]`.
    pub fn pack_exchange(&mut self, dim: usize) -> [Vec<f64>; 2] {
        assert_eq!(self.atoms.nghost(), 0, "exchange runs before border");
        let (lo, hi) = (self.graph.sub.lo[dim], self.graph.sub.hi[dim]);
        let mut out = [Vec::new(), Vec::new()];
        let mut i = 0;
        while i < self.atoms.nlocal {
            let x = self.atoms.x[i];
            let dir = if x[dim] < lo {
                0
            } else if x[dim] >= hi {
                1
            } else {
                i += 1;
                continue;
            };
            let link = *self.graph.face_link(dim, dir);
            let mut nx = [
                x[0] + link.shift[0],
                x[1] + link.shift[1],
                x[2] + link.shift[2],
            ];
            // Periodic-wrap guard: the receiving sub-box is half-open
            // [lo, hi). An atom marginally outside the *global* lower face
            // can round to exactly the global upper face after the +L
            // shift (|x - lo| is far below one ulp of L), landing on the
            // receiver's hi face — outside its box, so every subsequent
            // rebuild re-migrates it and the atom ping-pongs between the
            // boundary ranks. Nudge it one ulp inside. The mirror case
            // (an atom at exactly the global upper face whose -L shift
            // rounds below the global lower face) clamps to the face
            // itself, which is inside the half-open box.
            let s = link.shift[dim];
            if s > 0.0 && nx[dim] >= lo + s {
                nx[dim] = (lo + s).next_down();
            } else if s < 0.0 && nx[dim] < hi + s {
                nx[dim] = hi + s;
            }
            crate::wire::push_exchange_record(
                &mut out[dir],
                self.atoms.tag[i],
                self.atoms.typ[i],
                nx,
                self.atoms.v[i],
            );
            self.atoms.swap_remove_local(i);
        }
        out
    }

    /// Exchange-stage packing for irregular graphs: one owner-directed
    /// round instead of three staged sweeps. Local atoms that left the
    /// sub-box are wrapped into the global box, resolved to their new
    /// owner through the decomposition, and encoded toward the matching
    /// migrate peer; periodic self-wraps are rewritten in place. Returns
    /// one payload per entry of [`CommGraph::migrate_peers`].
    pub fn pack_exchange_graph(&mut self) -> Vec<Vec<f64>> {
        assert_eq!(self.atoms.nghost(), 0, "exchange runs before border");
        let peers = self.graph.migrate_peers().to_vec();
        let global = *self.graph.global_box();
        let mut out = vec![Vec::new(); peers.len()];
        let mut i = 0;
        while i < self.atoms.nlocal {
            let x = self.atoms.x[i];
            if self.graph.sub.contains(&x) {
                i += 1;
                continue;
            }
            let w = wrap_for_exchange(&global, x);
            let owner = self.graph.owner_of(&w);
            if owner == self.graph.me {
                self.atoms.x[i] = w;
                i += 1;
            } else if let Some(p) = peers.iter().position(|p| p.rank == owner) {
                crate::wire::push_exchange_record(
                    &mut out[p],
                    self.atoms.tag[i],
                    self.atoms.typ[i],
                    w,
                    self.atoms.v[i],
                );
                self.atoms.swap_remove_local(i);
            } else {
                // Within one rebuild interval atoms cannot outrun the
                // ghost cutoff, so the new owner is always a halo peer;
                // keep the atom (wrapped) rather than lose it if that
                // invariant is ever violated.
                debug_assert!(false, "migrant outran the halo at {w:?}");
                self.atoms.x[i] = w;
                i += 1;
            }
        }
        out
    }

    /// Exchange-stage unpacking: append arriving migrants as local atoms.
    pub fn unpack_exchange(&mut self, values: &[f64]) {
        for (tag, typ, x, v) in crate::wire::parse_exchange_records(values) {
            self.atoms.push_local(x, v, typ, tag);
        }
    }
}

/// One of the paper's communication designs, driven in lockstep rounds.
pub trait GhostEngine: Send {
    /// Human-readable variant name (figure labels).
    fn name(&self) -> &'static str;

    /// How many post/complete rounds `op` takes (p2p: 1; 3-stage: 3).
    fn rounds(&self, op: Op) -> usize;

    /// Whether the driver must globally synchronize clocks between rounds
    /// (the 3-stage pattern's mandatory MPI barrier, §3.1).
    fn barrier_between_rounds(&self) -> bool {
        false
    }

    /// Pack and send this rank's messages for `(op, round)`.
    ///
    /// An `Err` is a transport failure the engine could not absorb through
    /// its own recovery (retry, reliable-stack escape) — the driver treats
    /// it as fatal for the run. Recoverable faults are handled internally
    /// and only surface through counters and [`Self::fallback_requested`].
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError>;

    /// Receive and unpack this rank's messages for `(op, round)`.
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError>;

    /// Setup-stage modeled cost already paid (memory registrations, buffer
    /// pre-sizing): reported separately, not charged to step time.
    fn setup_cost(&self) -> f64 {
        0.0
    }

    /// Cumulative message counters since construction (all ops folded).
    fn stats(&self) -> CommStats {
        self.op_stats().total()
    }

    /// Cumulative per-(op, round) message counters since construction.
    fn op_stats(&self) -> OpStats {
        OpStats::default()
    }

    /// True once the engine has exhausted a retry budget and wants the
    /// driver to demote the whole cluster to a reliable transport at the
    /// next safe point (end of step). Sticky once set.
    fn fallback_requested(&self) -> bool {
        false
    }

    /// Drop any caches keyed off `st.graph` — the driver calls this after
    /// swapping the rank's graph during a mid-run rebalance, before the
    /// next communication op runs. Engines whose per-edge state is rebuilt
    /// each Border (or who keep none) use the default no-op.
    fn rebind_graph(&mut self, _st: &RankState) {}
}

/// Run one complete ghost operation through an engine for a *single rank
/// in isolation* (test helper; the real driver interleaves many ranks).
#[cfg(test)]
pub fn run_op_single(engine: &mut dyn GhostEngine, op: Op, st: &mut RankState) {
    for round in 0..engine.rounds(op) {
        engine.post(op, round, st).expect("post failed");
        engine.complete(op, round, st).expect("complete failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommPlan, PlanConfig};
    use crate::topo_map::{Placement, RankMap};
    use tofumd_md::region::Box3;
    use tofumd_tofu::CellGrid;

    fn state() -> RankState {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([80.0, 240.0, 160.0]);
        let plan = CommPlan::build(0, &map, &global, 2.8, PlanConfig::NEWTON);
        RankState::new(
            Atoms::from_positions(vec![[1.0; 3]], 1),
            CommGraph::from_grid(plan),
        )
    }

    #[test]
    fn charge_routes_to_stage_buckets() {
        let mut st = state();
        st.charge(1.0, Op::Forward);
        st.charge(2.0, Op::ReverseScalar);
        st.charge(4.0, Op::Border);
        assert_eq!(st.clock, 7.0);
        assert_eq!(st.comm_time, 5.0);
        assert_eq!(st.pair_comm_time, 2.0);
    }

    #[test]
    fn op_indices_are_dense_and_labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(seen.insert(op.label()), "duplicate label {}", op.label());
        }
    }

    #[test]
    fn op_stats_accumulate_and_fold() {
        let mut s = OpStats::default();
        s.count(Op::Forward, 0, 100);
        s.count(Op::Forward, 0, 300);
        s.count(Op::Exchange, 2, 50);
        s.growth(Op::Border, 1);
        s.copied(Op::Forward, 0, 400);
        assert_eq!(s.op_total(Op::Forward).messages, 2);
        assert_eq!(s.op_total(Op::Forward).bytes_copied, 400);
        assert_eq!(
            s.op_total(Op::Reverse).bytes_copied,
            0,
            "zero-copy ops stay at zero"
        );
        assert_eq!(s.op_total(Op::Forward).max_msg_bytes, 300);
        assert_eq!(s.rounds_of(Op::Exchange).len(), 3);
        assert_eq!(s.rounds_of(Op::Exchange)[2].bytes, 50);
        let t = s.total();
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 450);
        assert_eq!(t.growth_events, 1);
        let mut m = OpStats::default();
        m.merge(&s);
        m.merge(&s);
        assert_eq!(m.total().bytes, 900);
        let d = m.since(&s);
        assert_eq!(d.total().bytes, 450);
        assert_eq!(d.op_total(Op::Forward).messages, 2);
    }

    #[test]
    fn exchange_wrap_never_lands_on_the_receiving_upper_face() {
        let mut st = state();
        assert_eq!(
            st.graph.sub.lo[0], 0.0,
            "rank 0 sits on the global lower face"
        );
        let shift = st.graph.face_link(0, 0).shift[0];
        assert!(shift > 0.0, "lower-face link wraps by +L");
        // An atom marginally below the global lower face: x + L rounds to
        // exactly L, the global (and receiving sub-box's) upper face.
        let x = -1e-18;
        assert_eq!(x + shift, shift, "premise: the shift absorbs the offset");
        st.atoms = Atoms::from_positions(vec![[x, 1.0, 1.0]], 7);
        let out = st.pack_exchange(0);
        assert_eq!(st.atoms.nlocal, 0);
        let recs = crate::wire::parse_exchange_records(&out[0]);
        assert_eq!(recs.len(), 1);
        let nx = recs[0].2[0];
        assert!(
            nx < shift,
            "wrapped coordinate {nx} must stay below the global upper face {shift}"
        );
        assert!(
            shift - nx < 1e-9,
            "only a one-ulp nudge, got {}",
            shift - nx
        );
    }

    #[test]
    fn wrapped_migrant_settles_on_the_receiving_rank() {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([80.0, 240.0, 160.0]);
        let rg = map.rank_grid;
        let top = map.rank_at([i64::from(rg[0]) - 1, 0, 0]);
        let mk = |rank| {
            CommGraph::from_grid(CommPlan::build(
                rank,
                &map,
                &global,
                2.8,
                PlanConfig::NEWTON,
            ))
        };
        let mut sender = RankState::new(Atoms::from_positions(vec![[-1e-18, 1.0, 1.0]], 7), mk(0));
        let mut receiver = RankState::new(Atoms::default(), mk(top));
        let out = sender.pack_exchange(0);
        receiver.unpack_exchange(&out[0]);
        assert_eq!(receiver.atoms.nlocal, 1);
        // The migrant sits strictly inside the receiver's half-open
        // sub-box: a further exchange sweep must not move it again.
        let again = receiver.pack_exchange(0);
        assert!(
            again[0].is_empty() && again[1].is_empty(),
            "migrant must not ping-pong off the receiver"
        );
        assert_eq!(receiver.atoms.nlocal, 1);
    }

    #[test]
    fn irregular_migration_routes_atoms_to_their_owner() {
        use std::sync::Arc;
        use tofumd_md::domain::RcbDecomposition;
        let grid = CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([20.0, 16.0, 12.0]);
        let pts: Vec<[f64; 3]> = (0..200)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                [u(0) * 20.0, u(16) * 16.0, u(32) * 12.0]
            })
            .collect();
        let rcb = Arc::new(RcbDecomposition::build(4, &pts, &global));
        let graphs: Vec<CommGraph> = (0..4)
            .map(|r| CommGraph::from_rcb(r, &rcb, &map, 2.5))
            .collect();
        // Give rank 0 every atom plus one out-of-box straggler; one
        // migrate round must leave each atom on its owner.
        let mut states: Vec<RankState> = graphs
            .iter()
            .enumerate()
            .map(|(r, g)| {
                let mine: Vec<[f64; 3]> = if r == 0 {
                    let mut v = pts.clone();
                    v.push([-0.5, 1.0, 1.0]); // wraps to the +x edge
                    v
                } else {
                    Vec::new()
                };
                RankState::new(Atoms::from_positions(mine, 1), g.clone())
            })
            .collect();
        let payloads = states[0].pack_exchange_graph();
        let peers = states[0].graph.migrate_peers().to_vec();
        for (p, payload) in peers.iter().zip(&payloads) {
            states[p.rank].unpack_exchange(payload);
        }
        let total: usize = states.iter().map(|s| s.atoms.nlocal).sum();
        assert_eq!(total, pts.len() + 1, "no atom lost in migration");
        for st in &states {
            for i in 0..st.atoms.nlocal {
                assert!(
                    st.graph.sub.contains(&st.atoms.x[i]),
                    "atom {:?} not owned by rank {}",
                    st.atoms.x[i],
                    st.graph.me
                );
            }
        }
        // A second round is a fixed point.
        for st in &mut states {
            let again = st.pack_exchange_graph();
            assert!(again.iter().all(Vec::is_empty), "migration must converge");
        }
    }
}
